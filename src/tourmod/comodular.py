"""The co-modular index and maximum co-modular decompositions.

A co-modular decomposition is a set of pairwise disjoint co-modules; the
co-modular index of a tournament is the largest size such a set can have
(0 exactly for indecomposable tournaments, never 1).  Any maximum
decomposition can be shrunk part-by-part to one made of minimal
co-modules only, so the index equals the maximum independent set of the
overlap graph on mc(T).  That graph has maximum degree 2, hence splits
into paths and cycles where the optimum is trivial to compute and all
optima are easy to enumerate.

A "delta decomposition" below always means a maximum decomposition whose
parts are all minimal co-modules.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator

from .core import Tournament, VertexSet
from .modular import (
    CoModule,
    minimal_comodules,
    _extremal_module_masks,
    _minimal_comodules,
    _overlaps,
    _sorted_sets,
    _tree,
)

__all__ = [
    "CoModularDecomposition",
    "ConflictGraph",
    "all_delta_decompositions",
    "comodular_index",
    "conflict_graph",
    "delta_decomposition",
    "hereditary_witness",
    "structured_delta_decomposition",
]


@dataclass(frozen=True)
class ConflictGraph:
    """Overlap graph on the minimal co-modules of one tournament."""

    nodes: tuple[CoModule, ...]
    edges: tuple[tuple[int, int], ...]
    adjacency: tuple[tuple[int, ...], ...] = field(
        init=False, repr=False, compare=False, default=()
    )

    def __post_init__(self):
        adj: list[list[int]] = [[] for _ in self.nodes]
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        object.__setattr__(self, "adjacency", tuple(map(tuple, adj)))

    def degree(self, i: int) -> int:
        return len(self.adjacency[i])

    def components(self) -> list[list[int]]:
        """Connected components as sorted index lists, in index order."""
        seen: set[int] = set()
        comps = []
        for i in range(len(self.nodes)):
            if i in seen:
                continue
            stack = [i]
            comp = []
            while stack:
                u = stack.pop()
                if u in seen:
                    continue
                seen.add(u)
                comp.append(u)
                stack.extend(self.adjacency[u])
            comps.append(sorted(comp))
        return comps


def _conflict_graph(mc: list[CoModule]) -> ConflictGraph:
    """Overlapping sets intersect, so only pairs sharing a vertex are tested
    (at most three minimal co-modules hold any one vertex)."""
    holders: dict[int, list[int]] = {}
    for i, c in enumerate(mc):
        rest = c.members.mask
        while rest:
            bit = rest & -rest
            rest ^= bit
            holders.setdefault(bit, []).append(i)
    edges = {
        (i, j)
        for group in holders.values()
        for i, j in itertools.combinations(group, 2)
        if _overlaps(mc[i].members.mask, mc[j].members.mask)
    }
    return ConflictGraph(tuple(mc), tuple(sorted(edges)))


def conflict_graph(T: Tournament) -> ConflictGraph:
    return _conflict_graph(minimal_comodules(T))


def _is_cycle(graph: ConflictGraph, comp: list[int]) -> bool:
    return len(comp) >= 3 and all(graph.degree(i) == 2 for i in comp)


def _component_optima(graph: ConflictGraph, comp: list[int]) -> list[tuple[int, ...]]:
    """All maximum independent sets of one component, as sorted index
    tuples in lexicographic order (the order of ``itertools.combinations``).

    The overlap graph has maximum degree 2, so the component is walked in
    path or cycle order w_0 .. w_{k-1} and the optima are read off in closed
    form.  A path has optima of size ceil(k/2): the even positions when k
    is odd; for even k the k/2 + 1 sets that take even positions up to some
    point and odd positions after it.  A cycle has optima of size
    floor(k/2): the even and the odd positions when k is even; for odd k
    the k rotations of every other position, starting anywhere.
    """
    adj = graph.adjacency
    assert all(len(adj[i]) <= 2 for i in comp), "overlap graph degree above 2"
    k = len(comp)
    cycle = _is_cycle(graph, comp)
    walk = [comp[0] if cycle else next(i for i in comp if len(adj[i]) < 2)]
    prev = None
    while len(walk) < k:
        here = walk[-1]
        walk.append(next(u for u in adj[here] if u != prev))
        prev = here
    half = k // 2
    if cycle and k % 2 == 0:
        positions = [range(0, k, 2), range(1, k, 2)]
    elif cycle:
        positions = [[(s + 2 * t) % k for t in range(half)] for s in range(k)]
    elif k % 2:
        positions = [range(0, k, 2)]
    else:
        positions = [
            [2 * t for t in range(j)] + [2 * t + 1 for t in range(j, half)]
            for j in range(half + 1)
        ]
    return sorted(tuple(sorted(walk[p] for p in pos)) for pos in positions)


@dataclass(frozen=True)
class CoModularDecomposition:
    """Pairwise disjoint co-modules; ``is_delta`` marks a maximum-size
    decomposition made of minimal co-modules only."""

    parts: tuple[CoModule, ...]
    is_delta: bool = False

    def __len__(self) -> int:
        return len(self.parts)

    def part_sets(self) -> list[VertexSet]:
        return [p.members for p in self.parts]

    @property
    def key(self) -> tuple:
        return tuple(p.key for p in self.parts)


class _Analysis:
    """What the index, the decompositions and a certificate step read from
    one tournament, built from one decomposition tree: the tree's nodes,
    mc(T) with the co-module kinds (the graph's nodes), the overlap graph,
    its components, the index and the distinguished subset of every
    minimal co-module with at most one overlap.  The optima of the
    components are enumerated on first use."""

    def __init__(self, T: Tournament):
        self.tournament = T
        self.tree = list(_tree(T))
        self.graph = graph = _conflict_graph(_minimal_comodules(T, self.tree))
        self.components = graph.components()
        self.index = sum(
            len(comp) // 2 if _is_cycle(graph, comp) else (len(comp) + 1) // 2
            for comp in self.components
        )
        self.overlaps: dict[int, int] = {}  # overlap count per member mask
        self.tildes: dict[int, VertexSet] = {}
        for c, near in zip(graph.nodes, graph.adjacency):
            mask = c.members.mask
            self.overlaps[mask] = len(near)
            if len(near) <= 1:
                shared = mask & graph.nodes[near[0]].members.mask if near else mask
                self.tildes[mask] = VertexSet(T.n, shared)

    @cached_property
    def optima(self) -> list[list[tuple[int, ...]]]:
        return [_component_optima(self.graph, comp) for comp in self.components]

    def tilde(self, part: CoModule) -> VertexSet:
        """As ``modular.tilde``: defined for minimal co-modules with at most
        one overlap."""
        found = self.tildes.get(part.members.mask)
        if found is None:
            raise ValueError("tilde needs a minimal co-module with at most one overlap")
        return found

    def _require_decomposable(self):
        if not self.graph.nodes:
            raise ValueError("an indecomposable tournament has no decomposition")

    def decompositions(self) -> Iterator[CoModularDecomposition]:
        self._require_decomposable()
        nodes = self.graph.nodes
        for pick in itertools.product(*self.optima):
            parts = sorted((nodes[i] for chosen in pick for i in chosen), key=lambda c: c.key)
            yield CoModularDecomposition(tuple(parts), is_delta=True)

    def decomposition(self) -> CoModularDecomposition:
        self._require_decomposable()
        nodes = self.graph.nodes
        chosen: list[CoModule] = []
        for optima in self.optima:
            pick = min(optima, key=lambda combo: tuple(sorted(nodes[i].key for i in combo)))
            chosen.extend(nodes[i] for i in pick)
        chosen.sort(key=lambda c: c.key)
        return CoModularDecomposition(tuple(chosen), is_delta=True)


def comodular_index(T: Tournament) -> int:
    """Largest number of pairwise disjoint co-modules of T.

    Equals the maximum independent set of the overlap graph on mc(T); 0
    exactly when T is indecomposable, and at least 2 otherwise.
    """
    return _Analysis(T).index


def all_delta_decompositions(T: Tournament) -> Iterator[CoModularDecomposition]:
    """All maximum decompositions into minimal co-modules, in a fixed order.

    One maximum independent set is chosen per overlap-graph component and
    the choices combined, which enumerates every such decomposition
    exactly once.
    """
    return _Analysis(T).decompositions()


def delta_decomposition(T: Tournament) -> CoModularDecomposition:
    """A deterministic maximum decomposition into minimal co-modules.

    Ties are broken toward the lexicographically smallest selection of
    vertex sets (per overlap-graph component), so repeated runs agree.
    """
    return _Analysis(T).decomposition()


def _rel_all(T: Tournament, amask: int, bmask: int) -> bool:
    """True when every vertex of amask beats every vertex of bmask."""
    rest = amask
    while rest:
        bit = rest & -rest
        rest ^= bit
        if T.out_masks[bit.bit_length() - 1] & bmask != bmask:
            return False
    return True


def structured_delta_decomposition(
    T: Tournament,
) -> tuple[CoModularDecomposition, dict[str, CoModule]]:
    """A maximum minimal-co-module decomposition with labelled special parts.

    The labels satisfy, writing o(X) for the number of minimal co-modules
    overlapping X and index = comodular_index(T):

    * index == 2: labels M, N with o <= 1 on both; M is a part that is a
      nontrivial module whenever one of the two parts is (always the case
      from four vertices up).
    * index == 3: labels M, N, L, all with o <= 1.
    * index >= 4: labels M1..M4 with (C1) o(M1), o(M3), o(M4) <= 1,
      (C2) M1 beats all of M2 and M2 beats all of M3, and (C3) some
      x in M4 beats all of M1 or loses to all of M3.

    Candidate decompositions are scanned in the order of
    ``all_delta_decompositions``.  At index 4 or more the parts of each are
    tried as (M1, M2, M3, M4) in the lexicographic order of distinct index
    quadruples, and a prefix is dropped as soon as it breaks (C1) or (C2),
    so the labelling found is the first in that order.  Such a
    decomposition always exists, so a failure can only signal an internal
    bug.
    """
    return _structured(_Analysis(T))


def _structured(A: _Analysis) -> tuple[CoModularDecomposition, dict[str, CoModule]]:
    if A.index < 2:
        raise ValueError("tournament is indecomposable")
    over = A.overlaps

    if A.index == 2:
        decomp = A.decomposition()
        a, b = decomp.parts
        if over[a.members.mask] > 1 or over[b.members.mask] > 1:
            raise RuntimeError("contract check failed for a two-part decomposition")
        # prefer a nontrivial-module part for the M label; one exists from
        # four vertices up, and below that the choice is immaterial
        if a.kind == "complement-module" and b.kind in ("module", "both"):
            a, b = b, a
        return decomp, {"M": a, "N": b}

    if A.index == 3:
        for decomp in A.decompositions():
            if all(over[p.members.mask] <= 1 for p in decomp.parts):
                labels = dict(zip(("M", "N", "L"), decomp.parts))
                return decomp, labels
        raise RuntimeError("no three-part decomposition with all overlaps <= 1")

    T = A.tournament
    for decomp in A.decompositions():
        masks = [p.members.mask for p in decomp.parts]
        free = [over[m] <= 1 for m in masks]
        span = range(len(masks))
        for i in span:
            if not free[i]:
                continue
            for j in span:
                if j == i or not _rel_all(T, masks[i], masks[j]):
                    continue
                for k in span:
                    if k in (i, j) or not free[k] or not _rel_all(T, masks[j], masks[k]):
                        continue
                    for l in span:
                        if l in (i, j, k) or not free[l]:
                            continue
                        m1, m3 = masks[i], masks[k]
                        if any(
                            T.out_masks[x] & m1 == m1 or T.out_masks[x] & m3 == 0
                            for x in VertexSet(T.n, masks[l])
                        ):
                            chosen = (decomp.parts[q] for q in (i, j, k, l))
                            return decomp, dict(zip(("M1", "M2", "M3", "M4"), chosen))
    raise RuntimeError("no labelled four-part decomposition found")


def hereditary_witness(T: Tournament, k: int) -> VertexSet:
    """A k-vertex set X with comodular_index(T) <= comodular_index(T-X) + 2.

    The construction follows the size of the index: X always avoids three
    designated vertices, namely two members of a nontrivial module and
    one outside vertex when the tournament is decomposable (so the
    surviving module keeps T-X decomposable), or the first three vertices
    when it is not (any X works then).  At index 5 or more, X is instead
    drawn from the union of two non-singleton parts of a maximum
    decomposition, whose remaining parts survive in T-X.
    """
    if not 1 <= k <= 4:
        raise ValueError("k must be between 1 and 4")
    if T.n < 3 + k:
        raise ValueError(f"needs at least {3 + k} vertices, got {T.n}")
    A = _Analysis(T)
    index = A.index
    if index <= 4:
        if index == 0:
            designated = (0, 1, 2)
        else:
            module = _sorted_sets(T, _extremal_module_masks(T, A.tree)[0])[0]
            x, y = module.members()[:2]
            z = next(v for v in range(T.n) if v not in module)
            designated = (x, y, z)
        pool = [v for v in range(T.n) if v not in designated]
        return VertexSet.from_members(T.n, pool[:k])
    decomp = A.decomposition()
    big = [p for p in decomp.parts if len(p.members) >= 2]
    pool = sorted(set(big[0].members) | set(big[1].members))
    return VertexSet.from_members(T.n, pool[:k])
