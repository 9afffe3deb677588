"""Brute-force reference implementations and exhaustive sweeps.

These deliberately slow routines recompute the guided results from the
raw definitions so the two routes can be cross-checked.  All three read
one bit-parallel scan of the 2^n vertex sets (``_module_family``), which
marks the modules from the arcs alone and reads no decomposition tree:
the modules are its members, the co-modules its nontrivial members and
their complements, and the inversion search tests each tournament it
reaches through that state's own scan.  On top of it sit an exact set
packing and a depth-first search over arc sets that every co-module must
cross.  All three share one bound, ``MODULE_SCAN_BOUND``, checked before
any work, and import nothing from ``modular``.  The sweep walks every
isomorphism class up to a given size, validates the guided computations
class by class against ``inversion.decomposability_index`` among others,
and reports maxima plus any violations.
"""

from __future__ import annotations

import json
import os
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from functools import lru_cache

from .core import (
    ENUMERATION_BOUND,
    Tournament,
    VertexSet,
    _classes,
    _enumerate_bits,
    _from_bit_string,
    dual,
    invert,
)
from .comodular import comodular_index
from .inversion import (
    MIN_VERTICES,
    _expected_max_inversions,
    _require_size,
    decomposability_index,
    synthesize_certificate,
    verify_certificate,
)

__all__ = [
    "SweepReport",
    "brute_Delta",
    "brute_delta",
    "brute_modules",
    "report_to_json",
    "sweep_verify",
]

MODULE_SCAN_BOUND = 16


def _check_scan_bound(T: Tournament) -> None:
    if T.n > MODULE_SCAN_BOUND:
        raise ValueError(f"subset scan limited to n <= {MODULE_SCAN_BOUND}")


@lru_cache(maxsize=None)
def _has_vertex(n: int) -> tuple[int, ...]:
    """Per vertex i, the 2^n-bit pattern whose bit X is set exactly when
    the vertex set X holds i."""
    full = (1 << (1 << n)) - 1
    # 2^i clear bits then 2^i set bits, repeated: a repunit in base
    # 2^(2^(i+1)) times one set block
    return tuple(full // ((1 << (2 << i)) - 1) * ((1 << (1 << i)) - 1 << (1 << i)) for i in range(n))


def _module_family(T: Tournament) -> int:
    """The module family of T as one 2^n-bit integer: bit X is set exactly
    when the vertex set X is a module.

    A vertex v fails to split X exactly when v is in X, or X lies within
    out(v), or X lies within in(v); the subsets of a set A are those
    holding no vertex outside A.  So the family is the intersection over
    v of HAS[v] | SUB(out(v)) | SUB(in(v)), read off the arcs alone.
    """
    n = T.n
    has = _has_vertex(n)
    full = (1 << (1 << n)) - 1
    family = full
    for v, out in enumerate(T.out_masks):
        # the sets with a vertex outside out(v), and outside in(v); v is
        # outside both
        off_out = off_in = has[v]
        for i in range(n):
            if out >> i & 1:
                off_in |= has[i]
            else:
                off_out |= has[i]
        family &= has[v] | full ^ (off_out & off_in)
    return family


def _family_masks(family: int) -> list[int]:
    """The set bits of a module family, ascending."""
    found = []
    bits = bin(family)[:1:-1]
    at = bits.find("1")
    while at >= 0:
        found.append(at)
        at = bits.find("1", at + 1)
    return found


@lru_cache(maxsize=None)
def _trivial(n: int) -> int:
    """The family bits of the empty set, the singletons and V on n vertices."""
    return 1 | 1 << (1 << n) - 1 | sum(1 << (1 << i) for i in range(n))


def brute_modules(T: Tournament) -> list[VertexSet]:
    """Every module of T, trivial ones included, read off the subset scan."""
    _check_scan_bound(T)
    found = [VertexSet(T.n, m) for m in _family_masks(_module_family(T))]
    found.sort(key=lambda s: s.key)
    return found


def _brute_comodule_masks(T: Tournament) -> tuple[int, ...]:
    """Every co-module of T in (size, mask) order: the nontrivial members
    of the module family and their complements; none exactly when T is
    indecomposable.  Kept on T itself, as ``modular._analysis`` keeps its
    record, so ``brute_Delta`` and ``brute_delta`` on one tournament share
    one scan, and the scan goes with T."""
    if "_brute_comodules" not in vars(T):
        _check_scan_bound(T)
        modules = _family_masks(_module_family(T) & ~_trivial(T.n))
        found = {*modules, *(((1 << T.n) - 1) ^ m for m in modules)}
        vars(T)["_brute_comodules"] = tuple(sorted(found, key=lambda m: (m.bit_count(), m)))
    return vars(T)["_brute_comodules"]


def _pack(comods, sizes, start: int, used: int, free: int, chosen: list, best: list) -> None:
    """Copy into ``best`` each larger packing that extends ``chosen`` (which
    covers ``used``, leaving ``free`` vertices) by candidates from ``start``
    on.  All state is passed, so no closure holds T in a reference cycle."""
    if len(chosen) > len(best):
        best[:] = chosen
    for i in range(start, len(comods)):
        if len(chosen) + min(len(comods) - i, free // sizes[i]) <= len(best):
            return
        if comods[i] & used:
            continue
        chosen.append(comods[i])
        _pack(comods, sizes, i + 1, used | comods[i], free - sizes[i], chosen, best)
        chosen.pop()


def brute_Delta(T: Tournament) -> int:
    """Maximum number of pairwise disjoint co-modules, by branch and bound.

    Candidates are every co-module, ordered by size; the bound uses the
    vertices still free divided by the smallest remaining candidate size.
    """
    comods = _brute_comodule_masks(T)
    best: list[int] = []
    _pack(comods, [m.bit_count() for m in comods], 0, 0, T.n, [], best)
    return len(best)


def brute_delta(T: Tournament) -> int:
    """Least number of arc reversals reaching indecomposability, by
    depth-first search over arc sets of increasing size.

    Reversing arcs none of which crosses a nontrivial module M (has
    exactly one end in M) leaves M a module, so every solution crosses
    every co-module, and one arc crosses at most two disjoint ones.  The
    search branches over the arcs crossing the first co-module (smallest
    first) that no chosen arc crosses, bars at each branch point the arcs
    already tried there, and drops a branch when the uncrossed co-modules,
    picked greedily to be disjoint, outnumber twice its remaining budget.
    Only a set crossing every co-module is reversed, and the result is
    tested through its own module family: it is indecomposable when the
    family holds no set of 2 to n-1 vertices.  Otherwise the same fact
    applied to it makes the search branch over the arcs crossing its first
    nontrivial module in (size, mask) order, a smallest and so an
    inclusion-minimal one.  No guided analysis is read.  The size is
    capped at ``inversion._expected_max_inversions(n)``, the paper's
    worst case over all tournaments on n vertices.
    """
    _require_size(T)
    comods = _brute_comodule_masks(T)
    if not comods:
        return 0
    arcs = list(T.arcs())
    # holds[v]: the co-modules holding v, one bit each; an arc crosses the
    # co-modules of holds[tail] ^ holds[head]
    holds = [sum(1 << j for j, m in enumerate(comods) if m >> v & 1) for v in range(T.n)]
    crosses = [holds[a.tail] ^ holds[a.head] for a in arcs]
    for size in range(1, _expected_max_inversions(T.n) + 1):
        if _arc_search(T, arcs, comods, crosses, [], 0, 0, size):
            return size
    raise RuntimeError("search cap exceeded; this contradicts the index bound")


def _arc_search(T, arcs, comods, crosses, chosen, crossed, barred, budget) -> bool:
    """One branch of ``brute_delta``: can ``budget`` more arcs, none in
    ``barred``, extend the arcs at ``chosen`` (crossing ``crossed``) to an
    indecomposable result?  All state is passed, as in ``_pack``."""
    uncrossed = ((1 << len(comods)) - 1) & ~crossed
    if uncrossed:
        used = count = 0
        rest = uncrossed
        while rest:
            bit = rest & -rest
            rest ^= bit
            comod = comods[bit.bit_length() - 1]
            if not comod & used:
                used |= comod
                count += 1
                if count > 2 * budget:
                    return False
        first = uncrossed & -uncrossed
        options = [i for i, c in enumerate(crosses) if c & first]
    else:
        nontrivial = _module_family(invert(T, [arcs[i] for i in chosen])) & ~_trivial(T.n)
        if not nontrivial:
            return True
        if not budget:
            return False
        M = min(_family_masks(nontrivial), key=int.bit_count)
        options = [
            i for i, a in enumerate(arcs) if (M >> a.tail ^ M >> a.head) & 1 and i not in chosen
        ]
    for i in options:
        if barred >> i & 1:
            continue
        chosen.append(i)
        if _arc_search(T, arcs, comods, crosses, chosen, crossed | crosses[i], barred, budget - 1):
            return True
        chosen.pop()
        barred |= 1 << i
    return False


@dataclass(frozen=True)
class SweepReport:
    """Per-size aggregation of an exhaustive verification sweep."""

    n: int
    class_count: int
    max_Delta: int
    max_delta: int | None
    violations: list[str]


def report_to_json(report: SweepReport) -> str:
    return json.dumps(asdict(report))


def _check_class(task) -> tuple[str, int, int | None, bool]:
    """Validate the class (n, canonical string); returns (that string, Delta, delta, ok)."""
    n, bits = task
    T = _from_bit_string(n, bits)
    index = comodular_index(T)
    ok = index == brute_Delta(T)
    ok = ok and index == comodular_index(dual(T))
    inv_count = None
    if n >= MIN_VERTICES:
        cert = synthesize_certificate(T)
        inv_count = len(cert.arcs)
        ok = ok and bool(verify_certificate(T, cert))
        ok = ok and inv_count == decomposability_index(T)
        ok = ok and brute_delta(T) == inv_count
    return bits, index, inv_count, ok


def sweep_verify(max_n: int, jobs: int = 1) -> list[SweepReport]:
    """Validate every isomorphism class of sizes 3..max_n (3 <= max_n <=
    ``ENUMERATION_BOUND``).

    Per class: the guided co-modular index must agree with the packing
    oracle and be invariant under dualisation; from ``MIN_VERTICES`` up a
    certificate is synthesised, replay-verified, and required to contain
    exactly ``decomposability_index`` arcs, with the arc-set search oracle
    confirming the count.  Violations list the canonical bit strings of
    the offending classes.  Each size is enumerated by ``core._classes``,
    as in ``enumerate_tournaments``, from the canonical strings one vertex
    smaller, then checked.  With ``jobs`` above 1 one pool of at most
    ``os.cpu_count()`` processes does both steps; with ``jobs`` 1 the same
    steps run in process.  The reports do not depend on ``jobs``.
    """
    if not 3 <= max_n <= ENUMERATION_BOUND:
        raise ValueError(f"sweeps need 3 <= max_n <= {ENUMERATION_BOUND}")
    if jobs < 1:
        raise ValueError("sweeps need at least one job")
    if jobs > 1:
        from multiprocessing import Pool  # loaded here, so importing tourmod skips it

        context = Pool(min(jobs, os.cpu_count() or 1))
    else:
        context = nullcontext()
    reports = []
    with context as pool:
        run = (
            pool.map if pool is not None else lambda fn, tasks, chunksize=1: list(map(fn, tasks))
        )
        classes = _enumerate_bits(2)
        for n in range(3, max_n + 1):
            classes = _classes(n, classes, run)
            results = run(_check_class, [(n, bits) for bits in classes], chunksize=16)
            inv_counts = [r[2] for r in results if r[2] is not None]
            reports.append(
                SweepReport(
                    n=n,
                    class_count=len(results),
                    max_Delta=max(r[1] for r in results),
                    max_delta=max(inv_counts, default=None),
                    violations=[r[0] for r in results if not r[3]],
                )
            )
    return reports
