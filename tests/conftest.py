"""Shared helpers: named small tournaments, deterministic generators and
reference checks."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from tourmod import (
    Tournament,
    VertexSet,
    Xorshift64Star,
    brute_modules,
    component_comodule,
    enumerate_tournaments,
    erdos_transitive_extension,
    invert,
    is_indecomposable,
    is_module,
    make_tournament,
    minimal_comodules,
    nontrivial_modules,
    overlap_set,
    pair_count,
    random_tournament,
    relabel,
    subtournament,
    substitute,
    transitive,
    transitive_components,
)
from tourmod import modular


ROOT = Path(__file__).resolve().parent.parent


def run_python(args: list[str], timeout: float) -> tuple[int, str, str]:
    """Run a Python child with the library in src/ on its path; returns
    its exit code, stdout and stderr."""
    done = subprocess.run(
        [sys.executable, *args],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    return done.returncode, done.stdout, done.stderr


@pytest.fixture
def c3() -> Tournament:
    # the 3-cycle 0 -> 1 -> 2 -> 0
    return make_tournament(3, [1, 0, 1])


@pytest.fixture
def t4() -> Tournament:
    # the 3-cycle plus a dominating vertex 3
    return make_tournament(4, [1, 0, 0, 1, 0, 0])


def random_bits_tournament(rng: Xorshift64Star, n: int) -> Tournament:
    bits = 0
    for k in range(pair_count(n)):
        if rng.next() >> 63 & 1:
            bits |= 1 << k
    return Tournament(n, bits)


def composed_random(rng: Xorshift64Star, n: int) -> Tournament:
    """Random tournament on n >= 4 vertices with a guaranteed nontrivial
    module (a substituted block)."""
    q = 2 + rng.below(n - 2)  # outer size 2..n-1
    outer = random_bits_tournament(rng, q)
    inner = random_bits_tournament(rng, n - q + 1)
    return substitute(outer, inner, rng.below(q))


def nested_substitution(rng: Xorshift64Star) -> Tournament:
    """A random tournament with two to four levels of substituted blocks,
    each new block wrapping the last result or placed beside it."""
    T = random_tournament(2 + rng.below(5), rng.next())
    for _ in range(2 + rng.below(3)):
        other = random_tournament(2 + rng.below(5), rng.next())
        if rng.below(2):
            T = substitute(other, T, rng.below(other.n))
        else:
            T = substitute(T, other, rng.below(T.n))
    return T


def random_perm(rng: Xorshift64Star, n: int) -> list[int]:
    """A seeded Fisher-Yates shuffle of 0..n-1."""
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.below(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def relabelled_chain(n: int, seed: int) -> Tournament:
    """transitive(n) with its vertices renamed by a seeded shuffle, so that
    its transitive order is not the label order."""
    return relabel(transitive(n), random_perm(Xorshift64Star(seed), n))


def record_calls(monkeypatch, owner, name: str) -> list:
    """Wrap ``owner.name`` so that each call appends its first argument to
    the returned list."""
    calls, real = [], getattr(owner, name)

    def recording(arg, *rest, **kwargs):
        calls.append(arg)
        return real(arg, *rest, **kwargs)

    monkeypatch.setattr(owner, name, recording)
    return calls


def record_analyses(monkeypatch) -> list:
    """Wrap ``modular._Analysis.__init__`` so that each record built, by
    whichever module's name for the class, appends its tournament to the
    returned list."""
    built, real = [], modular._Analysis.__init__

    def recording(self, T):
        built.append(T)
        real(self, T)

    monkeypatch.setattr(modular._Analysis, "__init__", recording)
    return built


def first_indecomposable(n: int) -> Tournament:
    return next(T for T in enumerate_tournaments(n) if is_indecomposable(T))


def all_classes_up_to(max_n: int):
    for n in range(1, max_n + 1):
        for T in enumerate_tournaments(n):
            yield T


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def ceil_half(x: int) -> int:
    return (x + 1) // 2


def _is_transitive_mask(T: Tournament, mask: int) -> bool:
    """Reference definition: T restricted to mask is transitive iff its
    inner out-degrees are distinct."""
    degs = {(T.out_masks[v] & mask).bit_count() for v in range(T.n) if mask >> v & 1}
    return len(degs) == mask.bit_count()


def overlaps(a: int, b: int) -> bool:
    """The definition, kept apart from the library's walk-based overlaps:
    two vertex masks meet and neither contains the other."""
    return bool(a & b) and bool(a & ~b) and bool(b & ~a)


def check_module_rules(T: Tournament, masks) -> None:
    """Closure rules for modules of T given as masks: intersections, unions
    of meeting modules and differences are modules, and disjoint modules
    are homogeneous to each other."""
    n = T.n
    for M in masks:
        for N in masks:
            inter = M & N
            assert is_module(T, VertexSet(n, inter))
            if inter:
                assert is_module(T, VertexSet(n, M | N))
            if M & ~N:
                assert is_module(T, VertexSet(n, N & ~M))
            if not inter and M and N:
                flows = {T.relation(x, y) for x in VertexSet(n, M) for y in VertexSet(n, N)}
                assert len(flows) == 1


def check_promotion(T: Tournament, masks) -> None:
    """A module of T[M] is a module of T, for M a module of T."""
    for M in masks:
        if M.bit_count() < 2:
            continue
        S, labels = subtournament(T, VertexSet(T.n, M))
        for inner in brute_modules(S):
            lifted = VertexSet.from_members(T.n, (labels[k] for k in inner))
            assert is_module(T, lifted)


def check_inversion_rule(T: Tournament, a, masks) -> None:
    """Reversing the arc a keeps exactly the modules its ends do not overlap."""
    U = invert(T, [a])
    for M in masks:
        assert is_module(U, VertexSet(T.n, M)) == (not overlaps(M, 1 << a.tail | 1 << a.head))


def checked_extension(T: Tournament) -> Tournament:
    """erdos_transitive_extension(T), checked to be transitive with a
    strictly larger family of nontrivial modules."""
    E = erdos_transitive_extension(T)
    assert len({E.out_degree(v) for v in range(T.n)}) == T.n
    old = {s.mask for s in nontrivial_modules(T)}
    new = {s.mask for s in nontrivial_modules(E)}
    assert old < new
    return E


def check_overlap_bound(T: Tournament) -> None:
    """A minimal co-module overlaps at most two others, and only a twin
    overlaps any."""
    for c in minimal_comodules(T):
        over = overlap_set(T, c)
        assert len(over) <= 2
        if over:
            assert len(c.members) == 2 and is_module(T, c.members)


def check_twin_picks(T: Tournament) -> None:
    """A twin {x, y} contributes exactly one of {x,y}, {x}, {y} to mc."""
    mc = {c.members.mask for c in minimal_comodules(T)}
    for W in nontrivial_modules(T):
        if len(W) == 2:
            x, y = W.members()
            assert sum(1 for m in (W.mask, 1 << x, 1 << y) if m in mc) == 1


def check_transitive_components(T: Tournament) -> None:
    """The blocks are disjoint transitive modules covering the vertices,
    and no single-vertex extension of one stays a transitive module."""
    union = 0
    for b in transitive_components(T).blocks:
        assert union & b.mask == 0
        union |= b.mask
        assert is_module(T, b) and _is_transitive_mask(T, b.mask)
        for v in range(T.n):
            bigger = VertexSet(T.n, b.mask | (1 << v))
            if v not in b:
                assert not (is_module(T, bigger) and _is_transitive_mask(T, bigger.mask))
    assert union == (1 << T.n) - 1


def check_component_picks(T: Tournament) -> None:
    """An mc element meets a transitive component iff it is one of the
    component's twin picks, and the two end picks overlap at most one."""
    if T.n < 3:
        return  # component_comodule needs three vertices
    mc = [c.members.mask for c in minimal_comodules(T)]
    for block in transitive_components(T).blocks:
        if len(block) < 2:
            continue
        picks = [component_comodule(T, block, k) for k in range(len(block) - 1)]
        assert {m for m in mc if m & block.mask} == {p.members.mask for p in picks}
        assert len(overlap_set(T, picks[0])) <= 1 and len(overlap_set(T, picks[-1])) <= 1
