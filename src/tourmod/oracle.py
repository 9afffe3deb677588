"""Brute-force reference implementations and exhaustive sweeps.

These deliberately slow routines recompute the guided results from the
raw definitions (subset scans, exact set packing, breadth-first search
over arc subsets) so the two routes can be cross-checked.  The sweep
walks every isomorphism class up to a given size, validates the guided
computations class by class, and reports maxima plus any violations.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import reduce
from multiprocessing import Pool

from .core import Tournament, VertexSet, Xorshift64Star, dual, enumerate_tournaments, invert
from .comodular import comodular_index, delta_decomposition
from .inversion import synthesize_certificate, verify_certificate
from .modular import _is_module_mask, is_indecomposable

__all__ = [
    "SweepReport",
    "brute_Delta",
    "brute_delta",
    "brute_modules",
    "report_to_json",
    "sweep_verify",
]

MODULE_SCAN_BOUND = 16
PACKING_BOUND = 12
DELTA_SEARCH_BOUND = 8
SWEEP_BOUND = 7
SPOT_CHECK_DRAWS = 1000


def brute_modules(T: Tournament) -> list[VertexSet]:
    """Every module of T, trivial ones included, by full subset scan."""
    if T.n > MODULE_SCAN_BOUND:
        raise ValueError(f"subset scan limited to n <= {MODULE_SCAN_BOUND}")
    full = (1 << T.n) - 1
    found = [VertexSet(T.n, m) for m in range(full + 1) if _is_module_mask(T, m)]
    found.sort(key=lambda s: s.key)
    return found


def _brute_comodule_masks(T: Tournament) -> list[int]:
    full = (1 << T.n) - 1
    masks: set[int] = set()
    for s in brute_modules(T):
        if 2 <= len(s) < T.n:
            masks.add(s.mask)
            masks.add(full & ~s.mask)
    return sorted(masks, key=lambda m: (m.bit_count(), m))


def brute_Delta(T: Tournament) -> int:
    """Maximum number of pairwise disjoint co-modules, by branch and bound.

    Candidates are every co-module (from the module subset scan and the
    complements), ordered by size; the bound uses the vertices still free
    divided by the smallest remaining candidate size.
    """
    if T.n > PACKING_BOUND:
        raise ValueError(f"exact packing limited to n <= {PACKING_BOUND}")
    comods = _brute_comodule_masks(T)
    sizes = [m.bit_count() for m in comods]
    best = 0

    def search(start: int, used: int, count: int):
        nonlocal best
        if count > best:
            best = count
        free = T.n - used.bit_count()
        for i in range(start, len(comods)):
            if count + min(len(comods) - i, free // sizes[i]) <= best:
                return
            if comods[i] & used:
                continue
            search(i + 1, used | comods[i], count + 1)

    search(0, 0, 0)
    return best


def brute_delta(T: Tournament) -> int:
    """Least number of arc reversals reaching indecomposability, by
    breadth-first search over arc subsets of increasing size.

    Subsets whose endpoints miss a part of a maximum co-modular
    decomposition cannot work and are skipped.  The search depth is capped
    at ceil((n+1)/4), the worst case over all tournaments of that size.
    """
    if T.n < 5:
        raise ValueError("the decomposability index is only defined from 5 vertices up")
    if T.n > DELTA_SEARCH_BOUND:
        raise ValueError(f"arc-subset search limited to n <= {DELTA_SEARCH_BOUND}")
    if is_indecomposable(T):
        return 0
    part_masks = [p.members.mask for p in delta_decomposition(T).parts]
    arcs = list(T.arcs())
    arc_masks = [(1 << a.tail) | (1 << a.head) for a in arcs]
    cap = -(-(T.n + 1) // 4)
    for size in range(1, cap + 1):
        for combo in itertools.combinations(range(len(arcs)), size):
            touched = reduce(lambda acc, i: acc | arc_masks[i], combo, 0)
            if any(touched & p == 0 for p in part_masks):
                continue
            if is_indecomposable(invert(T, [arcs[i] for i in combo])):
                return size
    raise RuntimeError("search cap exceeded; this contradicts the index bound")


@dataclass(frozen=True)
class SweepReport:
    """Per-size aggregation of an exhaustive verification sweep."""

    n: int
    class_count: int
    max_Delta: int
    max_delta: int | None
    violations: list[str]


def report_to_json(report: SweepReport) -> str:
    record = {
        "n": report.n,
        "class_count": report.class_count,
        "max_Delta": report.max_Delta,
        "max_delta": report.max_delta,
        "violations": report.violations,
    }
    return json.dumps(record, separators=(", ", ": "))


def _check_class(task) -> tuple[str, int, int | None, bool]:
    """Validate one isomorphism class; returns (bits, Delta, delta, ok)."""
    n, bits, run_brute_delta = task
    T = Tournament(n, bits)
    index = comodular_index(T)
    ok = index == brute_Delta(T)
    ok = ok and index == comodular_index(dual(T))
    inv_count = None
    if n >= 5:
        cert = synthesize_certificate(T)
        inv_count = len(cert.arcs)
        ok = ok and bool(verify_certificate(T, cert))
        ok = ok and inv_count == (index + 1) // 2
        if run_brute_delta:
            ok = ok and brute_delta(T) == inv_count
    return T.bit_string(), index, inv_count, ok


def _spot_check_flags(n: int, class_count: int) -> list[bool]:
    """Which classes receive a brute-force inversion check.

    Sizes 5 and 6 are checked in full.  At size 7 the checks are drawn by
    the fixed generator (seed 0) over class indices, SPOT_CHECK_DRAWS
    times with replacement.
    """
    if n < 5:
        return [False] * class_count
    if n <= 6:
        return [True] * class_count
    flags = [False] * class_count
    rng = Xorshift64Star(0)
    for _ in range(SPOT_CHECK_DRAWS):
        flags[rng.below(class_count)] = True
    return flags


def sweep_verify(max_n: int, jobs: int = 1) -> list[SweepReport]:
    """Validate every isomorphism class of sizes 3..max_n (max_n <= 7).

    Per class: the guided co-modular index must agree with the packing
    oracle and be invariant under dualisation; from five vertices up a
    certificate is synthesised, replay-verified, and required to contain
    exactly ceil(index/2) arcs, with the breadth-first inversion oracle
    confirming the count on every class at sizes 5-6 and on sampled
    classes at size 7.  Violations list the canonical bit strings of the
    offending classes.
    """
    if max_n > SWEEP_BOUND:
        raise ValueError(f"sweeps limited to max_n <= {SWEEP_BOUND}")
    reports = []
    for n in range(3, max_n + 1):
        classes = enumerate_tournaments(n)
        flags = _spot_check_flags(n, len(classes))
        tasks = [(n, T.bits, flag) for T, flag in zip(classes, flags)]
        if jobs > 1:
            with Pool(jobs) as pool:
                results = pool.map(_check_class, tasks, chunksize=16)
        else:
            results = [_check_class(t) for t in tasks]
        max_index = max(r[1] for r in results)
        inv_counts = [r[2] for r in results if r[2] is not None]
        reports.append(
            SweepReport(
                n=n,
                class_count=len(classes),
                max_Delta=max_index,
                max_delta=max(inv_counts) if inv_counts else None,
                violations=[r[0] for r in results if not r[3]],
            )
        )
    return reports
