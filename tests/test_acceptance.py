"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they complete.  The expensive shared work (the full sweep and the
eight-vertex class enumeration) is computed once per session.
"""

import subprocess
import sys
import time

import pytest

from tourmod import (
    Xorshift64Star,
    brute_Delta,
    brute_delta,
    brute_modules,
    comodular_index,
    component_comodule,
    decomposability_index,
    enumerate_tournaments,
    erdos_transitive_extension,
    invert,
    is_indecomposable,
    is_module,
    minimal_comodules,
    overlap_set,
    random_tournament,
    subtournament,
    sweep_verify,
    synthesize_certificate,
    transitive,
    transitive_components,
    verify_certificate,
    hereditary_witness,
    VertexSet,
    all_delta_decompositions,
    nontrivial_modules,
)

from conftest import composed_random, random_bits_tournament


def ceil_div(a, b):
    return -(-a // b)


def report(number, message):
    print(f"criterion {number}: PASS - {message}")


def _is_transitive_mask(T, mask):
    """Reference definition: T restricted to mask is transitive iff its
    inner out-degrees are distinct."""
    degs = {(T.out_masks[v] & mask).bit_count() for v in range(T.n) if mask >> v & 1}
    return len(degs) == mask.bit_count()


@pytest.fixture(scope="session")
def sweep_reports():
    start = time.monotonic()
    reports = sweep_verify(7, jobs=2)
    return reports, time.monotonic() - start


@pytest.fixture(scope="session")
def classes_to_eight():
    table = {}
    for n in range(3, 9):
        table[n] = enumerate_tournaments(n)
    return table


def test_criterion_1_transitive_inversion_index():
    start = time.monotonic()
    for n in range(5, 13):
        assert decomposability_index(transitive(n)) == ceil_div(n + 1, 4)
    guided_elapsed = time.monotonic() - start
    assert guided_elapsed < 1.0
    start = time.monotonic()
    for n in range(5, 9):
        assert brute_delta(transitive(n)) == ceil_div(n + 1, 4)
    brute_elapsed = time.monotonic() - start
    assert brute_elapsed < 300.0
    report(
        1,
        f"inversion index of chains n=5..12 exact in {guided_elapsed:.3f}s, "
        f"search oracle confirms n=5..8 in {brute_elapsed:.2f}s",
    )


def test_criterion_2_transitive_comodular_index():
    start = time.monotonic()
    for n in range(3, 13):
        assert comodular_index(transitive(n)) == ceil_div(n + 1, 2)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(2, f"co-modular index of chains n=3..12 exact in {elapsed:.3f}s")


def test_criterion_3_max_index_sweep(sweep_reports):
    reports, elapsed = sweep_reports
    assert [r.n for r in reports] == [3, 4, 5, 6, 7]
    assert [r.class_count for r in reports] == [2, 4, 12, 56, 456]
    for r in reports:
        assert r.max_Delta == ceil_div(r.n + 1, 2)
    assert elapsed < 120.0
    report(3, f"max co-modular index over all classes n=3..7 matches in {elapsed:.1f}s")


def test_criterion_4_max_inversion_sweep(sweep_reports):
    reports, elapsed = sweep_reports
    by_n = {r.n: r for r in reports}
    assert [by_n[n].max_delta for n in (5, 6, 7)] == [2, 2, 2]
    for r in reports:
        assert r.violations == []
    assert elapsed < 1800.0
    report(
        4,
        "max inversion count 2,2,2 over n=5,6,7; full search checks at 5-6, "
        f"1000 sampled draws at 7; sweep took {elapsed:.1f}s",
    )


def test_criterion_5_index_halving_certificates():
    checked = 0
    for n in (5, 6):
        for T in enumerate_tournaments(n):
            cert = synthesize_certificate(T)
            assert verify_certificate(T, cert)
            assert len(cert.arcs) == ceil_div(comodular_index(T), 2)
            assert is_indecomposable(cert.final)
            assert brute_delta(T) == len(cert.arcs)
            checked += 1
    for i in range(300):
        n = 7 if i < 150 else 8
        T = random_tournament(n, i)
        cert = synthesize_certificate(T)
        assert verify_certificate(T, cert)
        assert len(cert.arcs) == ceil_div(comodular_index(T), 2)
        assert is_indecomposable(cert.final)
        assert brute_delta(T) == len(cert.arcs)
        checked += 1
    report(5, f"certificate length = ceil(index/2) on {checked} instances, oracle-confirmed")


def test_criterion_6_structure_suite():
    start = time.monotonic()
    for n in range(1, 7):
        for T in enumerate_tournaments(n):
            mc = minimal_comodules(T)
            mc_masks = {c.members.mask for c in mc}
            # overlap degree bound, zero off twins
            for c in mc:
                over = overlap_set(T, c)
                assert len(over) <= 2
                if not (len(c.members) == 2 and is_module(T, c.members)):
                    assert over == []
            # twin pick uniqueness
            if n >= 3:
                for W in nontrivial_modules(T):
                    if len(W) == 2:
                        x, y = W.members()
                        hits = sum(
                            1 for m in (W.mask, 1 << x, 1 << y) if m in mc_masks
                        )
                        assert hits == 1
            # maximal transitive modules partition the vertices
            blocks = transitive_components(T).blocks
            union = 0
            for b in blocks:
                assert union & b.mask == 0
                union |= b.mask
                assert is_module(T, b) and _is_transitive_mask(T, b.mask)
            assert union == (1 << n) - 1
            # an mc element meets a component iff it is one of its picks
            if n >= 3:
                for b in blocks:
                    if len(b) < 2:
                        continue
                    expected = {
                        component_comodule(T, b, k).members.mask
                        for k in range(len(b) - 1)
                    }
                    meeting = {m for m in mc_masks if m & b.mask}
                    assert meeting == expected
    # even chains have a unique maximum minimal-part decomposition
    for n in (4, 6):
        T = transitive(n)
        decomps = list(all_delta_decompositions(T))
        assert len(decomps) == 1
        expected = sorted(
            [(0,), (n - 1,)] + [(2 * i - 1, 2 * i) for i in range(1, (n - 2) // 2 + 1)]
        )
        assert sorted(tuple(p.members) for p in decomps[0].parts) == expected
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(6, f"structure suite exhaustive to n=6 in {elapsed:.1f}s")


def _check_module_calculus(T, masks, rng):
    n = T.n

    def as_set(mask):
        return VertexSet(n, mask)

    for M in masks:
        for N in masks:
            inter = M & N
            assert is_module(T, as_set(inter))
            if inter:
                assert is_module(T, as_set(M | N))
            if M & ~N:
                assert is_module(T, as_set(N & ~M))
            if not inter and M and N:
                flows = {T.relation(x, y) for x in as_set(M) for y in as_set(N)}
                assert len(flows) == 1
    # restriction and promotion on one sampled window / module
    wmask = 0
    while wmask == 0:
        wmask = rng.next() & ((1 << n) - 1)
    S, labels = subtournament(T, as_set(wmask))
    for M in masks:
        restricted = [k for k, v in enumerate(labels) if M >> v & 1]
        assert is_module(S, restricted)
    big = [M for M in masks if M.bit_count() >= 2 and M != (1 << n) - 1]
    if big:
        M = big[rng.below(len(big))]
        S, labels = subtournament(T, as_set(M))
        for inner in brute_modules(S):
            lifted = VertexSet.from_members(n, (labels[k] for k in inner))
            assert is_module(T, lifted)


def _check_inversion_rule(T, a, masks):
    amask = (1 << a.tail) | (1 << a.head)
    U = invert(T, [a])
    for M in masks:
        overlap = bool(M & amask) and bool(M & ~amask) and bool(amask & ~M)
        assert is_module(U, VertexSet(T.n, M)) == (not overlap)


def test_criterion_7_module_calculus_suites():
    # exhaustive: every class up to five vertices, all modules, all arcs
    rng = Xorshift64Star(101)
    for n in range(1, 6):
        for T in enumerate_tournaments(n):
            masks = [s.mask for s in brute_modules(T)]
            _check_module_calculus(T, masks, rng)
            for a in T.arcs():
                _check_inversion_rule(T, a, masks)
    # 1000 random instances (T, a, M, N) on up to 12 vertices
    for _ in range(1000):
        n = 5 + rng.below(8)
        T = composed_random(rng, n)
        mods = [s.mask for s in brute_modules(T)]
        M = mods[rng.below(len(mods))]
        N = mods[rng.below(len(mods))]
        arcs = list(T.arcs())
        a = arcs[rng.below(len(arcs))]
        _check_module_calculus(T, [M, N], rng)
        _check_inversion_rule(T, a, [M, N])
    report(7, "module calculus exhaustive to n=5 plus 1000 random instances, zero violations")


def test_criterion_8_hereditary_witnesses(classes_to_eight):
    index_cache = {}

    def index_of(T):
        key = (T.n, T.bits)
        if key not in index_cache:
            index_cache[key] = comodular_index(T)
        return index_cache[key]

    checked = 0
    for k in (1, 2, 3, 4):
        for n in range(3 + k, 9):
            for T in classes_to_eight[n]:
                X = hereditary_witness(T, k)
                assert len(X) == k
                rest, _ = subtournament(T, X.complement())
                assert index_of(T) <= comodular_index(rest) + 2
                if n >= 5 + k:
                    assert ceil_div(index_of(T), 2) <= ceil_div(comodular_index(rest), 2) + 1
                checked += 1
    report(8, f"hereditary witnesses verified on {checked} (class, k) pairs up to n=8")


def test_criterion_9_transitive_extensions():
    pairs = 0
    for n in range(3, 7):
        for T in enumerate_tournaments(n):
            if len({T.out_degree(v) for v in range(n)}) == n:
                continue  # transitive
            E = erdos_transitive_extension(T)
            assert len({E.out_degree(v) for v in range(n)}) == n
            old = {s.mask for s in nontrivial_modules(T)}
            new = {s.mask for s in nontrivial_modules(E)}
            assert old < new
            if n >= 5:
                assert decomposability_index(T) <= decomposability_index(E)
                pairs += 1
    report(9, f"module-preserving transitive extensions on all classes n=3..6; "
              f"monotonicity on {pairs} pairs")


def test_criterion_10_sweep_determinism():
    def run(jobs):
        proc = subprocess.run(
            [sys.executable, "-m", "tourmod", "sweep", "--max-n", "7", "--jobs", jobs],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        return proc.stdout

    first = run("1")
    second = run("3")
    assert first == second
    assert first.count("\n") == 5
    report(10, "sweep reports byte-identical across --jobs 1 and --jobs 3")
