"""Modules, co-modules and the local structure around them.

A module of a tournament is a vertex set whose members are
indistinguishable from outside: every outside vertex either beats all of
them or loses to all of them.  The empty set, the singletons and the full
vertex set are the trivial modules; a tournament whose modules are all
trivial is indecomposable.  A co-module is a set M such that M or its
complement is a nontrivial module; mc(T) denotes the inclusion-minimal
co-modules.  Two sets overlap when they intersect and neither contains
the other; among minimal co-modules each element overlaps at most two
others, and only size-2 modules (twins) overlap anything at all.

All of it is read off the modular decomposition tree of strong modules
(Gallai 1967; Ehrenfeucht, Gabow, McConnell and Sullivan, J. Algorithms
16, 1994), built on bitmasks in polynomial time, with no size cap.  In a
tournament each internal node is linear (children ordered so that each
beats all later ones) or prime, and the modules are exactly the nodes
and the unions of runs of consecutive children of a linear node.  The
root reads every row once for the scores that order every node; a node
tested for linearity then costs one pass over its members and one row
read, and a child of a linear node, always prime, skips the test.  A
prime node costs a partition refinement that splits a part by all of
its splitters in one pass, reading each member once per pass and about
once in all on random inputs, plus one pass that grows a single closure
around its lowest vertex and stops each part's test at the first child
already found (see ``_tree``), which reads about |S| rows on random and
substituted inputs.  The whole tree reads about 3n rows of a random
400-vertex tournament.

Every structural query reads one record per tournament object,
``_Analysis``, built from one tree: the nontrivial modules, the minimal
and maximal ones and indecomposability, mc(T), the overlaps and tildes,
the co-modular index and its decompositions, and the transitive
components, whose order is the tree's dominance order of a linear node's
children.  ``_analysis(T)`` builds it from ``_tree(T)`` on first use and
keeps it on T, so every later query on that object, certificates and
their verification included, reads it.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, compress, groupby, product
from operator import not_, or_
from typing import Iterable, Iterator

from .core import (
    InputError,
    Tournament,
    VertexSet,
    _closure_mask,
    _is_module_mask,
    _mask_key,
    _members,
)

__all__ = [
    "CoModule",
    "TransitiveComponentPartition",
    "component_comodule",
    "is_comodule",
    "is_indecomposable",
    "is_module",
    "maximal_nontrivial_modules",
    "minimal_comodules",
    "minimal_nontrivial_modules",
    "nontrivial_modules",
    "overlap_set",
    "smallest_module_containing",
    "tilde",
    "transitive_components",
]


def _as_mask(T: Tournament, X) -> int:
    if isinstance(X, CoModule):
        X = X.members
    if isinstance(X, VertexSet):
        if X.n != T.n:
            raise ValueError("vertex set belongs to a different vertex count")
        return X.mask
    return VertexSet.from_members(T.n, X).mask


def is_module(T: Tournament, X) -> bool:
    """True when every vertex outside X relates identically to all of X."""
    return _is_module_mask(T, _as_mask(T, X))


def smallest_module_containing(T: Tournament, S) -> VertexSet:
    """The inclusion-smallest module of T containing the nonempty set S.

    Any vertex distinguishing two members of the current set must belong
    to every module containing S, so repeatedly adding such splitters
    converges to the least module above S; it stops once it holds every
    vertex, so on a prime input it reads few rows.
    """
    mask = _as_mask(T, S)
    if mask == 0:
        raise ValueError("need at least one seed vertex")
    return VertexSet(T.n, _closure_mask(T, mask, whole=(1 << T.n) - 1))


# ---------------------------------------------------------------------------
# The modular decomposition tree.


def _modular_partition_avoiding(T: Tournament, S: int, v: int) -> list[int]:
    """The maximal modules of T inside the module S that avoid v; they
    partition S minus v.  Members of such a module relate alike to v, so
    v's row first splits S minus v into the vertices v beats and the rest.
    Then one pass over a part groups its members by their out-neighbours
    outside it, so by all of its splitters at once; each group is a union
    of such modules.  A part that stays one group has no splitter and is
    a module, hence final, and so is a single-vertex group.  Each member
    is read once per pass, about once in all on a random input."""
    out = T.out_masks
    others = S & ~(1 << v)
    beaten = out[v] & others
    todo = [half for half in (beaten, others ^ beaten) if half]
    parts = []
    while todo:
        part = todo.pop()
        outside = ~part
        groups: dict[int, int] = {}
        rest = part
        while rest:
            bit = rest & -rest
            rest ^= bit
            key = out[bit.bit_length() - 1] & outside
            groups[key] = groups.get(key, 0) | bit
        if len(groups) == 1:
            parts.append(part)
            continue
        for group in groups.values():
            (todo if group & (group - 1) else parts).append(group)
    return parts


def _tree(T: Tournament) -> Iterator[tuple[int, bool, list[int]]]:
    """The internal nodes of the decomposition tree as (mask, linear,
    children), the root first, each built only when it is read.

    When T[S] has several strong components, S is linear over them in
    dominance order: sorted by inner score, the first k of the s vertices
    are a union of leading components exactly when their scores sum to
    C(k,2) + k(s-k).  Otherwise S is prime; with v its lowest vertex, a
    maximal module X of T[S] avoiding v is a child exactly when the
    closure of X and v is S, and the rest of S is the child C_v holding v.

    One score pass at the root orders every node.  Each vertex outside a
    module S treats all of S alike, so every member's inner score is its
    score in T less one offset, read off one member's row.  A node sorts
    its members by (score in T, vertex), which is the order by inner
    score, and the test subtracts the offset.

    A child of a linear node skips that test.  It is a strong component of
    its parent, and one with two or more vertices has at least three (a
    tournament on two vertices is transitive) and is strongly connected,
    so its own component test would find the one block S: it is prime.
    Such a child is pushed as known to be strong and goes straight to the
    prime pass, with no score pass, sort or block loop.

    The parts are tested in one pass that keeps ``inner``, the union of
    the closures so far that stopped short of S, and ``known``, the union
    of the children found so far; ``_closure_mask`` grows inner | X from
    each part X against v's row, read once per node, with these early
    stops:

    * if X lies in C_v, the closure stays inside the module C_v != S;
    * if X is another child, the closure holds closure(v | X) = S;
    * a module holding v and a vertex of a known child C contains C (C is
      strong and lacks v), hence S, so growth stops at the first vertex of
      ``known`` it reaches, and X is a child;
    * ``inner`` is a module, so no vertex outside it splits it: only the
      members of X and the vertices added after them are read against v.

    A part that is no child moves its closure into ``inner``, so each
    vertex of C_v is read once there.  A prime node costs its partition
    refinement, one read per member and pass and about one per member in
    all on random inputs, plus O(|S|) reads on the inputs measured.  The
    children other than C_v come in the refinement's order.  A prime node
    has at least three children, so a pass that finds none besides C_v
    raises RuntimeError rather than push S again.
    """
    out = T.out_masks
    score = [row.bit_count() for row in out]
    todo = [((1 << T.n) - 1, False)] if T.n > 1 else []
    while todo:
        S, strong = todo.pop()
        children = []
        if not strong:
            ranked = []
            rest = S
            while rest:
                bit = rest & -rest
                rest ^= bit
                v = bit.bit_length() - 1
                ranked.append((score[v], v))
            ranked.sort()
            # every member's inner score is its score less this offset (v is
            # the last member read); from the top, the k-th member adds its
            # inner score less s - k, and a block ends where the sum is 0
            offset = score[v] - (out[v] & S).bit_count()
            block = slack = 0
            target = len(ranked) + offset
            for root_score, v in reversed(ranked):
                block |= 1 << v
                target -= 1
                slack += root_score - target
                if not slack:
                    children.append(block)
                    block = 0
        linear = len(children) > 1
        if not linear:
            inner = S & -S
            v = inner.bit_length() - 1
            ref = out[v]
            children = []
            known = 0
            for x in _modular_partition_avoiding(T, S, v):
                grown = _closure_mask(T, inner | x, x, known, S, ref)
                if grown & known or grown == S:
                    children.append(x)
                    known |= x
                else:
                    inner = grown
            if not known:
                # C_v would be S itself; only a partition that is no
                # module partition can lead here
                raise RuntimeError(
                    f"prime node found no child besides C_v on n={T.n} bits={T.bit_string()}"
                )
            children.append(S ^ known)
        yield S, linear, children
        todo += [(c, linear) for c in children if c & (c - 1)]


def _sorted_sets(T: Tournament, masks: Iterable[int]) -> list[VertexSet]:
    return [VertexSet(T.n, m) for m in sorted(masks, key=_mask_key)]


def nontrivial_modules(T: Tournament) -> list[VertexSet]:
    """All modules X with 2 <= |X| <= n-1: the tree nodes below the root,
    and the runs of 2..m-1 consecutive children of each linear node with m
    children."""
    masks = []
    for _, linear, children in _analysis(T).tree:
        masks += [c for c in children if c & (c - 1)]
        if linear:
            for i in range(len(children)):
                masks += list(accumulate(children[i : i + len(children) - 1], or_))[1:]
    return _sorted_sets(T, masks)


def is_indecomposable(T: Tournament) -> bool:
    """True when the only modules are the trivial ones: mc(T) is empty."""
    return not _analysis(T).mc


def minimal_nontrivial_modules(T: Tournament) -> list[VertexSet]:
    """Inclusion-minimal nontrivial modules, read off the decomposition tree."""
    return _sorted_sets(T, _analysis(T).minimal_modules)


def maximal_nontrivial_modules(T: Tournament) -> list[VertexSet]:
    """Inclusion-maximal nontrivial modules, read off the decomposition tree."""
    return _sorted_sets(T, _analysis(T).maximal_modules)


def is_comodule(T: Tournament, M) -> bool:
    """True when M or its complement is a nontrivial module of T."""
    mask = _as_mask(T, M)
    return any(
        2 <= m.bit_count() < T.n and _is_module_mask(T, m) for m in (mask, ((1 << T.n) - 1) ^ mask)
    )


@dataclass(frozen=True)
class CoModule:
    """A minimal co-module together with which side is the module.

    ``kind`` is "module" when the members form a nontrivial module,
    "complement-module" when only the complement does, "both" when both do.
    """

    members: VertexSet
    kind: str

    @property
    def key(self) -> tuple[int, tuple[int, ...]]:
        return self.members.key

    def __repr__(self) -> str:
        return f"CoModule({{{', '.join(map(str, self.members.members()))}}}, {self.kind})"


def minimal_comodules(T: Tournament) -> list[CoModule]:
    """The inclusion-minimal co-modules mc(T); empty iff T is indecomposable.

    A minimal co-module is either a minimal nontrivial module or the
    complement of a maximal one; which candidates are minimal is read off
    the shape of the tree's root (see ``_Analysis``).
    """
    A = _analysis(T)
    return [A.comodule(m) for m in A.mc]


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
        return [tuple(sorted(walk[::2]))]
    return sorted(
        tuple(sorted(walk[: 2 * j : 2] + walk[2 * j + 1 :: 2])) for j in range(k // 2 + 1)
    )


class _Analysis:
    """One tournament read off its decomposition tree once, on masks.
    Every structural query (modules, co-modules, transitive components),
    the index, the decompositions, every certificate step and its
    verification read this record, through ``_analysis``.  It is built
    from n, the rows (``out``) and a tree, and reads nothing else; it keeps
    no tournament, so a tournament and its record form no reference cycle:

    * ``tree``: the tree it was given, ``_tree``'s nodes, which only
      ``nontrivial_modules`` and ``inversion.erdos_transitive_extension``
      read besides this record;
    * ``chains``: the maximal runs of single-vertex children of each linear
      node, as one-bit masks in dominance order; the twins are the unions
      of consecutive members of a chain;
    * ``minimal_modules``: the minimal nontrivial modules, the twins other
      than V and the prime nodes below the root with only single-vertex
      children;
    * ``maximal_modules``: the maximal nontrivial modules, the root's
      children with two or more vertices; under a linear root with m >= 3
      children, the two runs of m-1 children instead;
    * ``mc``: mc(T) as a mask -> kind dict in key order, read off the
      root's shape (below), and ``masks``, its sets as a list;
    * ``walks``: the overlap graph's components, each as positions in
      ``masks`` in path order, listed by smallest position;
    * ``index``: the co-modular index, ceil(k/2) summed over the walks;
    * ``edges``, ``overlaps``, ``runs`` and ``optima``, derived on first use.

    A minimal co-module is a minimal nontrivial module or the complement
    of a maximal one, and it is in mc exactly when no candidate of the
    other family lies strictly inside it (each family is an antichain).
    Every nontrivial module is a node below the root or a run of 2..m-1
    consecutive children of a linear node with m children, so the root
    decides which candidates survive:

    * Prime root.  Every nontrivial module lies in one child, and the
      maximal ones are the children c with two or more vertices.  V - c
      holds the other children, at least two, so it is no module, and no
      minimal module, which lies in one child, can contain it: every
      minimal module is in mc.  V - c holds every minimal module outside
      c strictly, so it is in mc exactly when all of them lie in c, that
      is, when c is the only child with two or more vertices (any other
      such child holds a minimal module).
    * Linear root with m >= 3 children c_1 .. c_m.  The maximal modules
      are the two runs of m-1 children, so the complements are the end
      children.  An end child with two or more vertices is a nontrivial
      module; it holds no minimal module strictly exactly when it is one
      ("both").  A singleton end holds none ("complement-module").  A
      minimal module that holds an end child e strictly is a run from e,
      and only the run of e and its neighbour, when both are single
      vertices, is minimal: that twin drops out.
    * Linear root with 2 children.  The maximal modules are the children
      with two or more vertices, and the complement of one is the other
      child, kept by the end-child rule above.  No minimal module holds a
      child strictly, since every run of two children is V.

    Only twins overlap.  Overlapping twins {a, b} and {b, c} both hold b,
    whose one parent lists a, b, c consecutively, so a walk is a run of
    twins of mc at consecutive positions of one chain, or a single node.
    The only twins of a chain outside mc are V and those holding an end
    of a linear root, so they sit at the ends of their chain, and the
    twins of a chain that are in mc form one walk.
    """

    def __init__(self, n: int, out: tuple[int, ...], tree: list[tuple[int, bool, list[int]]]):
        self.n, self.out, self.tree = n, out, tree
        full = (1 << n) - 1
        self.chains, self.minimal_modules = [], []
        for S, linear, children in self.tree:
            if linear:
                self.chains += [
                    list(run) for size, run in groupby(children, int.bit_count) if size == 1
                ]
            elif S != full and len(children) == S.bit_count():
                self.minimal_modules.append(S)
        twins = [[a | b for a, b in zip(run, run[1:])] for run in self.chains if len(run) > 1]
        self.minimal_modules += [t for pairs in twins for t in pairs if t != full]
        kinds = dict.fromkeys(self.minimal_modules, "module")
        _, linear, children = self.tree[0] if self.tree else (full, False, [])
        if linear and len(children) >= 3:
            self.maximal_modules = [full ^ children[-1], full ^ children[0]]
        else:
            self.maximal_modules = [c for c in children if c & (c - 1)]
        for M in self.maximal_modules:
            end = full ^ M
            if not linear:
                if len(self.maximal_modules) == 1:
                    kinds[end] = "complement-module"
            elif end & (end - 1) == 0:
                kinds[end] = "complement-module"
                # the twin of a singleton end and its neighbour, if that
                # is one; V with two children is none
                kinds.pop(end | (children[1] if end == children[0] else children[-2]), None)
            elif end in kinds:
                kinds[end] = "both"
        self.mc = {m: kinds[m] for m in sorted(kinds, key=_mask_key)}
        self.masks = list(self.mc)
        position = {m: i for i, m in enumerate(self.masks)}
        walks = []
        for pairs in twins:
            walk = [position[t] for t in pairs if t in position]
            if walk:
                walks.append(walk)
        covered = {i for walk in walks for i in walk}
        walks += [[i] for i in range(len(self.mc)) if i not in covered]
        self.walks = sorted(walks, key=min)
        self.index = sum((len(walk) + 1) // 2 for walk in self.walks)

    def without(self, out: tuple[int, ...], gone: set[int]) -> _Analysis:
        """The record of the state with rows ``out`` whose mc is this
        record's less the sets in ``gone``, each with the same kind and
        overlaps, and whose walks are this record's less those sets, each
        still a path (``inversion._plan`` proves both of a high step).  It
        shares this record's mask list, so no position is renumbered and
        the positions keep mc's order, and it keeps the optima of the walks
        left whole.  It has no tree, chains or runs, and ``_analysis`` never
        stores it."""
        A = object.__new__(_Analysis)
        A.n, A.out, A.masks = self.n, out, self.masks
        # copy() clones the hash table; dict() would insert every mask again,
        # and masks a multiple of 61 bits apart share a hash
        A.mc, A.overlaps = self.mc.copy(), self.overlaps.copy()
        for g in gone:
            del A.mc[g]
            for q in A.overlaps.pop(g):
                if q not in gone:
                    A.overlaps[q] = [o for o in A.overlaps[q] if o not in gone]
        # the walks that keep all their sets keep their optima, their share
        # of the index and their order; a cut walk is placed again by its
        # least position
        cut = {self.masks.index(g) for g in gone}
        keep = list(map(cut.isdisjoint, self.walks))
        A.walks, A.optima = list(compress(self.walks, keep)), list(compress(self.optima, keep))
        A.index = self.index
        for walk in compress(self.walks, map(not_, keep)):
            A.index -= (len(walk) + 1) // 2
            walk = [i for i in walk if i not in cut]
            if walk:
                A.index += (len(walk) + 1) // 2
                at = bisect(A.walks, min(walk), key=min)
                A.walks.insert(at, walk)
                A.optima.insert(at, _path_optima(walk))
        return A

    @cached_property
    def edges(self) -> list[tuple[int, int]]:
        """The overlap graph's edges, sorted: the pairs (i, j), i < j, of
        mc positions that are neighbours on a walk."""
        return sorted((min(e), max(e)) for walk in self.walks for e in zip(walk, walk[1:]))

    @cached_property
    def overlaps(self) -> dict[int, list[int]]:
        """The minimal co-modules each one overlaps, so at most two, in mc
        order: the edges are sorted, so each meets its lower one first."""
        masks = self.masks
        near = {m: [] for m in masks}
        for i, j in self.edges:
            near[masks[i]].append(masks[j])
            near[masks[j]].append(masks[i])
        return near

    def overlapping(self, mask: int) -> list[int]:
        """``overlaps[mask]``, rejecting a mask that is not in mc."""
        near = self.overlaps.get(mask)
        if near is None:
            raise ValueError("argument is not a minimal co-module of the tournament")
        return near

    def tilde(self, mask: int) -> int:
        """The distinguished subset of a minimal co-module with at most one
        overlap: the set itself with none, the vertex it shares with its
        one neighbour otherwise."""
        near = self.overlapping(mask)
        if len(near) > 1:
            raise ValueError("tilde is undefined when two minimal co-modules overlap")
        return mask & near[0] if near else mask

    @cached_property
    def runs(self) -> list[list[int]]:
        """The maximal transitive modules, each as its vertices in the
        tree's dominance order (each beats all later ones), listed by lowest
        vertex.  A transitive module with two or more vertices is a run of
        consecutive single-vertex children of a linear node, so these are
        the chains, and every vertex no chain holds (a child of a prime
        node, or the one vertex of T when n = 1) is a run of its own.  T is
        transitive exactly when there is one run."""
        chains = [[c.bit_length() - 1 for c in run] for run in self.chains]
        covered = {v for run in chains for v in run}
        return sorted(chains + [[v] for v in range(self.n) if v not in covered], key=min)

    @cached_property
    def optima(self) -> list[list[tuple[int, ...]]]:
        """Each walk's optima."""
        return [_path_optima(walk) for walk in self.walks]

    def comodule(self, mask: int) -> CoModule:
        return CoModule(VertexSet(self.n, mask), self.mc[mask])

    def decompositions(self) -> Iterator[tuple[int, ...]]:
        """The parts of each delta decomposition as masks in key order, as
        mc is.  The first takes the smallest selection of vertex sets per
        component, since each component's optima are sorted tuples."""
        if not self.mc:
            raise ValueError("an indecomposable tournament has no decomposition")
        masks = self.masks
        for pick in product(*self.optima):
            yield tuple(map(masks.__getitem__, sorted(chain.from_iterable(pick))))


def _analysis(T: Tournament) -> _Analysis:
    """T's record, built on first use and kept on T itself, never keyed on
    its value: two equal tournaments build two records."""
    A = vars(T).get("_analysis")
    if A is None:
        A = vars(T)["_analysis"] = _Analysis(T.n, T.out_masks, list(_tree(T)))
    return A


def overlap_set(T: Tournament, M) -> list[CoModule]:
    """Minimal co-modules overlapping M, which must itself be in mc(T):
    its neighbours on its walk of the overlap graph, in key order."""
    A = _analysis(T)
    return [A.comodule(m) for m in A.overlapping(_as_mask(T, M))]


def tilde(T: Tournament, M) -> VertexSet:
    """The distinguished subset of a minimal co-module with at most one overlap.

    With no overlapping minimal co-module this is M itself; with exactly
    one, say M', it is the single shared vertex of M and M'.  Undefined
    (rejected) when two minimal co-modules overlap M.
    """
    return VertexSet(T.n, _analysis(T).tilde(_as_mask(T, M)))


# ---------------------------------------------------------------------------
# Transitive modules and components.


@dataclass(frozen=True)
class TransitiveComponentPartition:
    """The maximal transitive modules; they partition the vertex set."""

    blocks: tuple[VertexSet, ...]

    def block_of(self, v: int) -> VertexSet:
        for b in self.blocks:
            if v in b:
                return b
        raise ValueError(f"vertex {v} not covered")


def transitive_components(T: Tournament) -> TransitiveComponentPartition:
    """Partition V(T) into maximal transitive modules, listed by their
    lowest vertex: the runs of ``_Analysis``."""
    runs = _analysis(T).runs
    return TransitiveComponentPartition(tuple(VertexSet.from_members(T.n, r) for r in runs))


def component_comodule(T: Tournament, C, k: int) -> CoModule:
    """The k-th minimal co-module along a transitive component.

    With the component's vertices written v_0 -> v_1 -> ... in transitive
    order, {v_k, v_{k+1}} is a twin of T, and exactly one of that twin and
    its two singletons is a minimal co-module; that element is returned.
    """
    if T.n < 3:
        raise InputError("needs a tournament with at least three vertices")
    mask = _as_mask(T, C)
    A = _analysis(T)
    order = next((r for r in A.runs if tuple(sorted(r)) == _members(mask)), None)
    if order is None:
        raise ValueError("argument is not a transitive component of the tournament")
    if len(order) < 2:
        raise ValueError("component must have at least two vertices")
    if not 0 <= k <= len(order) - 2:
        raise ValueError(f"index k must lie in 0..{len(order) - 2}, got {k}")
    twin = (1 << order[k]) | (1 << order[k + 1])
    hits = [m for m in A.mc if m & ~twin == 0]
    if len(hits) != 1:
        raise RuntimeError(
            f"a twin holds {len(hits)} minimal co-modules on n={T.n} bits={T.bit_string()}"
        )
    return A.comodule(hits[0])
