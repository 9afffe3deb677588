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
import os
from contextlib import nullcontext
from dataclasses import dataclass
from functools import lru_cache, reduce
from multiprocessing import Pool

from .core import Tournament, VertexSet, dual, enumerate_tournaments, invert
from .comodular import comodular_index
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
SWEEP_BOUND = 8


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


@lru_cache(maxsize=1)
def _brute_packing(T: Tournament) -> tuple[int, ...]:
    """The masks of a maximum set of pairwise disjoint co-modules, by
    branch and bound.

    Candidates are every co-module (from the module subset scan and the
    complements), ordered by size; the bound uses the vertices still free
    divided by the smallest remaining candidate size.  The last result is
    kept, so ``brute_Delta`` and ``brute_delta`` on one tournament share it.
    """
    if T.n > PACKING_BOUND:
        raise ValueError(f"exact packing limited to n <= {PACKING_BOUND}")
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
    breadth-first search over arc subsets of increasing size.

    Subsets whose endpoints miss a part of the brute-force maximum
    packing cannot work (an untouched co-module survives) and are
    skipped.  The search depth is capped at ceil((n+1)/4), the worst case
    over all tournaments of that size.
    """
    if T.n < 5:
        raise ValueError("the decomposability index is only defined from 5 vertices up")
    if T.n > DELTA_SEARCH_BOUND:
        raise ValueError(f"arc-subset search limited to n <= {DELTA_SEARCH_BOUND}")
    if is_indecomposable(T):
        return 0
    part_masks = _brute_packing(T)
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
    """Validate every isomorphism class of sizes 3..max_n (3 <= max_n <= 8).

    Per class: the guided co-modular index must agree with the packing
    oracle and be invariant under dualisation; from five vertices up a
    certificate is synthesised, replay-verified, and required to contain
    exactly ceil(index/2) arcs, with the breadth-first inversion oracle
    confirming the count.  Violations list the canonical bit strings of
    the offending classes.  With ``jobs`` above 1 the classes are checked
    in one pool of at most ``os.cpu_count()`` processes; the reports do not
    depend on ``jobs``.
    """
    if not 3 <= max_n <= SWEEP_BOUND:
        raise ValueError(f"sweeps need 3 <= max_n <= {SWEEP_BOUND}")
    if jobs < 1:
        raise ValueError("sweeps need at least one job")
    reports = []
    with Pool(min(jobs, os.cpu_count() or 1)) if jobs > 1 else nullcontext() as pool:
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
