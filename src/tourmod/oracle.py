"""Brute-force reference implementations and exhaustive sweeps.

These deliberately slow routines recompute the guided results from the
raw definitions (subset scans, exact set packing, a depth-first search
over arc sets that every co-module must cross) so the two routes can be
cross-checked.  All three share one bound, ``MODULE_SCAN_BOUND``, checked
before any work.  The sweep walks every isomorphism class up to a given
size, validates the guided computations class by class, and reports
maxima plus any violations.
"""

from __future__ import annotations

import json
import os
from contextlib import nullcontext
from dataclasses import dataclass
from functools import lru_cache

from .core import (
    ENUMERATION_BOUND,
    Tournament,
    VertexSet,
    _members,
    dual,
    enumerate_tournaments,
    invert,
)
from .comodular import comodular_index
from .inversion import synthesize_certificate, verify_certificate
from .modular import _is_module_mask, is_indecomposable, minimal_nontrivial_modules

__all__ = [
    "SweepReport",
    "brute_Delta",
    "brute_delta",
    "brute_modules",
    "report_to_json",
    "sweep_verify",
]

MODULE_SCAN_BOUND = 16


def brute_modules(T: Tournament) -> list[VertexSet]:
    """Every module of T, trivial ones included, by full subset scan."""
    if T.n > MODULE_SCAN_BOUND:
        raise ValueError(f"subset scan limited to n <= {MODULE_SCAN_BOUND}")
    full = (1 << T.n) - 1
    found = [VertexSet(T.n, m) for m in range(full + 1) if _is_module_mask(T, m)]
    found.sort(key=lambda s: s.key)
    return found


@lru_cache(maxsize=1)
def _brute_comodule_masks(T: Tournament) -> tuple[int, ...]:
    """Every co-module of T, smallest first, from the module subset scan and
    the complements; none exactly when T is indecomposable.  The last
    result is kept, so ``brute_Delta`` and ``brute_delta`` on one
    tournament share one scan."""
    full = (1 << T.n) - 1
    masks: set[int] = set()
    for s in brute_modules(T):
        if 2 <= len(s) < T.n:
            masks.add(s.mask)
            masks.add(full & ~s.mask)
    return tuple(sorted(masks, key=lambda m: (m.bit_count(), m)))


def _brute_packing(T: Tournament) -> tuple[int, ...]:
    """The masks of a maximum set of pairwise disjoint co-modules, by
    branch and bound.

    Candidates are every co-module, ordered by size; the bound uses the
    vertices still free divided by the smallest remaining candidate size.
    """
    comods = _brute_comodule_masks(T)
    sizes = [m.bit_count() for m in comods]
    best: list[int] = []
    chosen: list[int] = []

    def search(start: int, used: int):
        nonlocal best
        if len(chosen) > len(best):
            best = chosen[:]
        free = T.n - used.bit_count()
        for i in range(start, len(comods)):
            if len(chosen) + min(len(comods) - i, free // sizes[i]) <= len(best):
                return
            if comods[i] & used:
                continue
            chosen.append(comods[i])
            search(i + 1, used | comods[i])
            chosen.pop()

    search(0, 0)
    return tuple(best)


def brute_Delta(T: Tournament) -> int:
    """Maximum number of pairwise disjoint co-modules: the size of
    ``_brute_packing``."""
    return len(_brute_packing(T))


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
    Only a set crossing every co-module is reversed and tested; when the
    result is still decomposable, the same fact applied to it makes the
    search branch over the arcs crossing one of its minimal modules.  The
    size is capped at ceil((n+1)/4), the worst case over all tournaments
    of that size.
    """
    if T.n < 5:
        raise ValueError("the decomposability index is only defined from 5 vertices up")
    comods = _brute_comodule_masks(T)
    if not comods:
        return 0
    arcs = list(T.arcs())
    # holds[v]: the co-modules holding v, one bit each; an arc crosses the
    # co-modules of holds[tail] ^ holds[head]
    holds = [sum(1 << j for j, m in enumerate(comods) if m >> v & 1) for v in range(T.n)]
    crosses = [holds[a.tail] ^ holds[a.head] for a in arcs]
    every = (1 << len(comods)) - 1

    def search(chosen: list[int], crossed: int, barred: int, budget: int) -> bool:
        uncrossed = every & ~crossed
        if uncrossed:
            used = count = 0
            for j in _members(uncrossed):
                if not comods[j] & used:
                    used |= comods[j]
                    count += 1
            if count > 2 * budget:
                return False
            first = uncrossed & -uncrossed
            options = [i for i, c in enumerate(crosses) if c & first]
        else:
            state = invert(T, [arcs[i] for i in chosen])
            if is_indecomposable(state):
                return True
            if not budget:
                return False
            M = minimal_nontrivial_modules(state)[0].mask
            options = [
                i for i, a in enumerate(arcs) if (M >> a.tail ^ M >> a.head) & 1 and i not in chosen
            ]
        for i in options:
            if barred >> i & 1:
                continue
            chosen.append(i)
            if search(chosen, crossed | crosses[i], barred, budget - 1):
                return True
            chosen.pop()
            barred |= 1 << i
        return False

    cap = -(-(T.n + 1) // 4)
    for size in range(1, cap + 1):
        if search([], 0, 0, size):
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
    n, bits = task
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
        ok = ok and brute_delta(T) == inv_count
    return T.bit_string(), index, inv_count, ok


def sweep_verify(max_n: int, jobs: int = 1) -> list[SweepReport]:
    """Validate every isomorphism class of sizes 3..max_n (3 <= max_n <=
    ``ENUMERATION_BOUND``).

    Per class: the guided co-modular index must agree with the packing
    oracle and be invariant under dualisation; from five vertices up a
    certificate is synthesised, replay-verified, and required to contain
    exactly ceil(index/2) arcs, with the arc-set search oracle
    confirming the count.  Violations list the canonical bit strings of
    the offending classes.  With ``jobs`` above 1 the classes are checked
    in one pool of at most ``os.cpu_count()`` processes; the reports do not
    depend on ``jobs``.
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
        for n in range(3, max_n + 1):
            tasks = [(n, T.bits) for T in enumerate_tournaments(n)]
            if pool is None:
                results = [_check_class(t) for t in tasks]
            else:
                results = pool.map(_check_class, tasks, chunksize=16)
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
