"""The co-modular index and maximum co-modular decompositions.

A co-modular decomposition is a set of pairwise disjoint co-modules; the
co-modular index of a tournament is the largest size such a set can have
(0 exactly for indecomposable tournaments, never 1).  Any maximum
decomposition can be shrunk part-by-part to one made of minimal
co-modules only, so the index equals the maximum independent set of the
overlap graph on mc(T).  Only twins overlap, so the decomposition tree
lists that graph as paths, each a run of consecutive twins along one
linear node, where the optimum is trivial to compute and all optima are
easy to enumerate.

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
    _extremal_module_masks,
    _minimal_comodules,
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


def conflict_graph(T: Tournament) -> ConflictGraph:
    return _Analysis(T).graph


def _walks(tree: list, mc: list[CoModule]) -> list[list[int]]:
    """The components of the overlap graph on mc, each as the indices of
    its nodes in path order, in the order of their smallest index.

    Only twins (2-vertex modules) overlap, and a twin is a pair of
    consecutive single-vertex children of a linear node.  Twins {a, b} and
    {b, c} that overlap both hold b, so b's one parent lists a, b, c as
    consecutive children.  The twin at position i of a linear node's
    children therefore overlaps only those at i-1 and i+1: a component is
    a run of twins of mc at consecutive positions of one linear node, or a
    single node, and no cycle can arise.
    """
    index = {c.members.mask: i for i, c in enumerate(mc)}
    walks = []
    for _, linear, children in tree:
        if not linear:
            continue
        at = [
            index.get(a | b) if (a | b).bit_count() == 2 else None
            for a, b in zip(children, children[1:])
        ]
        runs = itertools.groupby(at, lambda i: i is not None)
        walks += [list(run) for found, run in runs if found]
    covered = {i for walk in walks for i in walk}
    walks += [[i] for i in range(len(mc)) if i not in covered]
    return sorted(walks, key=min)


def _path_optima(walk: list[int]) -> list[tuple[int, ...]]:
    """All maximum independent sets of the path walk[0] - walk[1] - ...,
    as sorted index tuples in lexicographic order (the order of
    ``itertools.combinations``).

    They have ceil(k/2) nodes for a path of k: the even positions when k
    is odd; for even k the k/2 + 1 sets that take even positions up to
    some point and odd positions after it.
    """
    k = len(walk)
    if k % 2:
        positions = [range(0, k, 2)]
    else:
        positions = [
            [2 * t for t in range(j)] + [2 * t + 1 for t in range(j, k // 2)]
            for j in range(k // 2 + 1)
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

    @property
    def key(self) -> tuple:
        return tuple(p.key for p in self.parts)


class _Analysis:
    """What the index, the decompositions and a certificate step read from
    one tournament, built from one decomposition tree: the tree's nodes,
    mc(T) with the co-module kinds (the graph's nodes), the overlap graph
    and its components as walks, the index and the distinguished subset
    of every minimal co-module with at most one overlap.  The optima of
    the components are enumerated on first use."""

    def __init__(self, T: Tournament):
        self.tournament = T
        self.tree = list(_tree(T))
        mc = _minimal_comodules(T, self.tree)
        self.walks = _walks(self.tree, mc)
        edges = sorted((min(e), max(e)) for walk in self.walks for e in zip(walk, walk[1:]))
        self.graph = graph = ConflictGraph(tuple(mc), tuple(edges))
        self.index = sum((len(walk) + 1) // 2 for walk in self.walks)
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
        return [_path_optima(walk) for walk in self.walks]

    def tilde(self, part: CoModule) -> VertexSet:
        """As ``modular.tilde``: defined for minimal co-modules with at most
        one overlap."""
        found = self.tildes.get(part.members.mask)
        if found is None:
            raise ValueError("tilde needs a minimal co-module with at most one overlap")
        return found

    def decompositions(self) -> Iterator[CoModularDecomposition]:
        if not self.graph.nodes:
            raise ValueError("an indecomposable tournament has no decomposition")
        nodes = self.graph.nodes
        for pick in itertools.product(*self.optima):
            parts = sorted((nodes[i] for chosen in pick for i in chosen), key=lambda c: c.key)
            yield CoModularDecomposition(tuple(parts), is_delta=True)

    def decomposition(self) -> CoModularDecomposition:
        """The first of ``decompositions``: the nodes are in key order and
        each component's optima are sorted index tuples, so it takes the
        smallest selection of vertex sets per component."""
        return next(self.decompositions())


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
    """A deterministic maximum decomposition into minimal co-modules: the
    first of ``all_delta_decompositions``.

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
