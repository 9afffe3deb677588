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
and the unions of runs of consecutive children of a linear node.  A
linear node costs one read of each member's row.  A prime node costs a
partition refinement that splits a part by all of its splitters in one
pass, reading each member once per pass (about once in all on random
inputs, where halving by one splitter at a time read about log2|S| rows
per vertex), plus one pass that grows a single closure around its
lowest vertex and stops each part's test at the first child already
found (see ``_tree``); on random and substituted inputs that pass reads
about |S| rows, where one closure per part read about |S|^2.  The whole
tree reads about 3n rows of a random 400-vertex tournament (12.9n when
halving), and a random tournament on 2000 vertices yields its tree in
5-9 ms (2 shared cores, Python 3.11).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import accumulate, groupby
from operator import or_
from typing import Iterable, Iterator

from .core import Tournament, VertexSet, _members

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


def _is_module_mask(T: Tournament, mask: int) -> bool:
    full = (1 << T.n) - 1
    outside = full & ~mask
    while outside:
        bit = outside & -outside
        outside ^= bit
        rel = T.out_masks[bit.bit_length() - 1] & mask
        if rel and rel != mask:
            return False
    return True


def is_module(T: Tournament, X) -> bool:
    """True when every vertex outside X relates identically to all of X."""
    return _is_module_mask(T, _as_mask(T, X))


def _closure_mask(T: Tournament, mask: int) -> int:
    """Grow ``mask`` by splitter vertices until it becomes a module.  An
    outside vertex splits it when it treats some member w unlike a fixed
    member r, i.e. is a bit of out(w) ^ out(r), so each member is read once."""
    out = T.out_masks
    ref = out[(mask & -mask).bit_length() - 1] if mask else 0
    todo = mask & (mask - 1)
    while todo:
        bit = todo & -todo
        todo ^= bit
        new = (out[bit.bit_length() - 1] ^ ref) & ~mask
        mask |= new
        todo |= new
    return mask


def smallest_module_containing(T: Tournament, S) -> VertexSet:
    """The inclusion-smallest module of T containing the nonempty set S.

    Any vertex distinguishing two members of the current set must belong
    to every module containing S, so repeatedly adding such splitters
    converges to the least module above S.
    """
    mask = _as_mask(T, S)
    if mask == 0:
        raise ValueError("need at least one seed vertex")
    return VertexSet(T.n, _closure_mask(T, mask))


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

    The parts are tested in one pass that keeps ``inner``, the union of
    the closures so far that stopped short of S, and ``known``, the union
    of the children found so far; each part X grows inner | X:

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
    all on random inputs, plus O(|S|) reads on the inputs measured, not
    one closure of up to |S| reads per part.  The children other than
    C_v come in the refinement's order.
    """
    out = T.out_masks
    todo = [(1 << T.n) - 1] if T.n > 1 else []
    while todo:
        S = todo.pop()
        scores = []
        rest = S
        while rest:
            bit = rest & -rest
            rest ^= bit
            v = bit.bit_length() - 1
            scores.append(((out[v] & S).bit_count(), v))
        scores.sort()
        children = []
        block = total = 0
        for k, (score, v) in enumerate(reversed(scores), 1):
            block |= 1 << v
            total += score
            if total == k * (k - 1) // 2 + k * (len(scores) - k):
                children.append(block)
                block = 0
        linear = len(children) > 1
        if not linear:
            inner = S & -S
            ref = out[inner.bit_length() - 1]
            children = []
            known = 0
            for x in _modular_partition_avoiding(T, S, inner.bit_length() - 1):
                grown = inner | x
                unread = x
                while unread and not grown & known and grown != S:
                    bit = unread & -unread
                    unread ^= bit
                    new = (out[bit.bit_length() - 1] ^ ref) & ~grown
                    grown |= new
                    unread |= new
                if grown & known or grown == S:
                    children.append(x)
                    known |= x
                else:
                    inner = grown
            children.append(S ^ known)
        yield S, linear, children
        todo += [c for c in children if c & (c - 1)]


def is_indecomposable(T: Tournament) -> bool:
    """True when the only modules are the trivial ones, i.e. when the root
    of the decomposition tree is prime with single-vertex children."""
    if T.n <= 2:
        return True
    _, linear, children = next(_tree(T))
    return not linear and all(c & (c - 1) == 0 for c in children)


def _mask_key(n: int, mask: int) -> tuple[int, str]:
    """Orders masks as ``VertexSet.key`` orders their sets: by size, then
    first the set holding the lowest vertex in which two sets differ, whose
    complement, written from vertex 0 up, is then the smaller string."""
    return mask.bit_count(), format(((1 << n) - 1) ^ mask, f"0{n}b")[::-1]


def _sorted_sets(T: Tournament, masks: Iterable[int]) -> list[VertexSet]:
    return [VertexSet(T.n, m) for m in sorted(masks, key=lambda m: _mask_key(T.n, m))]


def nontrivial_modules(T: Tournament) -> list[VertexSet]:
    """All modules X with 2 <= |X| <= n-1: the tree nodes below the root,
    and the runs of 2..m-1 consecutive children of each linear node with m
    children."""
    masks = []
    for _, linear, children in _tree(T):
        masks += [c for c in children if c & (c - 1)]
        if linear:
            for i in range(len(children)):
                masks += list(accumulate(children[i : i + len(children) - 1], or_))[1:]
    return _sorted_sets(T, masks)


def _extremal_module_masks(T: Tournament, tree: list) -> tuple[list[int], list[int]]:
    """The inclusion-minimal nontrivial modules (prime nodes below the root
    with single-vertex children, and pairs of consecutive single-vertex
    children of a linear node) and the inclusion-maximal ones (the root's
    children with two or more vertices; under a linear root with m >= 3
    children, the two runs of m-1 children instead), from the nodes of
    ``_tree(T)``."""
    full = (1 << T.n) - 1
    minimal = []
    for S, linear, children in tree:
        if linear:
            minimal += [
                a | b
                for a, b in zip(children, children[1:])
                if a & (a - 1) == 0 and b & (b - 1) == 0 and a | b != full
            ]
        elif S != full and all(c & (c - 1) == 0 for c in children):
            minimal.append(S)
    _, linear, children = tree[0] if tree else (full, False, [])
    if linear and len(children) >= 3:
        return minimal, [full ^ children[-1], full ^ children[0]]
    return minimal, [c for c in children if c & (c - 1)]


def minimal_nontrivial_modules(T: Tournament) -> list[VertexSet]:
    """Inclusion-minimal nontrivial modules, read off the decomposition tree."""
    return _sorted_sets(T, _extremal_module_masks(T, list(_tree(T)))[0])


def maximal_nontrivial_modules(T: Tournament) -> list[VertexSet]:
    """Inclusion-maximal nontrivial modules, read off the decomposition tree."""
    return _sorted_sets(T, _extremal_module_masks(T, list(_tree(T)))[1])


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
    def key(self) -> tuple:
        return self.members.key

    def __repr__(self) -> str:
        return f"CoModule({{{', '.join(map(str, self.members.members()))}}}, {self.kind})"


def minimal_comodules(T: Tournament) -> list[CoModule]:
    """The inclusion-minimal co-modules mc(T); empty iff T is indecomposable.

    A minimal co-module is either a minimal nontrivial module or the
    complement of a maximal one, so filtering that candidate pool for
    inclusion-minimality is exhaustive.
    """
    mc = _minimal_comodules(T, list(_tree(T)))
    return [CoModule(VertexSet(T.n, m), kind) for m, kind in mc.items()]


def _minimal_comodules(T: Tournament, tree: list) -> dict[int, str]:
    """mc(T) as a mask -> kind dict in key order.  A minimal co-module that
    is a module is a minimal nontrivial one, and one whose complement is a
    module is the complement of a maximal one, so membership in the two
    families gives its kind.  Each family is an antichain; only a set of
    one can contain a set of the other."""
    minimal, maximal = _extremal_module_masks(T, tree)
    full = (1 << T.n) - 1
    modules = set(minimal)
    complements = {full ^ m for m in maximal}
    kinds = {m: "module" for m in modules}
    for m in complements:
        kinds[m] = "both" if m in modules else "complement-module"
    return {
        m: kinds[m]
        for m in sorted(kinds, key=lambda m: _mask_key(T.n, m))
        if not any(o & m == o and o != m for o in (complements if m in modules else modules))
    }


def _walks(tree: list, mc: list[int]) -> list[list[int]]:
    """The components of the overlap graph on the masks mc, each as the
    indices of its nodes in path order, in the order of their smallest
    index.

    Only twins (2-vertex modules) overlap, and a twin is a pair of
    consecutive single-vertex children of a linear node.  Twins {a, b} and
    {b, c} that overlap both hold b, so b's one parent lists a, b, c as
    consecutive children.  The twin at position i of a linear node's
    children therefore overlaps only those at i-1 and i+1: a component is
    a run of twins of mc at consecutive positions of one linear node, or a
    single node, and no cycle can arise.
    """
    index = {m: i for i, m in enumerate(mc)}
    walks = []
    for _, linear, children in tree:
        if not linear:
            continue
        at = [
            index.get(a | b) if (a | b).bit_count() == 2 else None
            for a, b in zip(children, children[1:])
        ]
        runs = groupby(at, lambda i: i is not None)
        walks += [list(run) for found, run in runs if found]
    covered = {i for walk in walks for i in walk}
    walks += [[i] for i in range(len(mc)) if i not in covered]
    return sorted(walks, key=min)


def overlap_set(T: Tournament, M) -> list[CoModule]:
    """Minimal co-modules overlapping M, which must itself be in mc(T):
    its neighbours on its walk of the overlap graph, in key order."""
    mask = _as_mask(T, M)
    tree = list(_tree(T))
    mc = _minimal_comodules(T, tree)
    if mask not in mc:
        raise ValueError("argument is not a minimal co-module of the tournament")
    masks = list(mc)
    i = masks.index(mask)
    walk = next(w for w in _walks(tree, masks) if i in w)
    p = walk.index(i)
    near = sorted(walk[max(p - 1, 0) : p] + walk[p + 1 : p + 2])
    return [CoModule(VertexSet(T.n, masks[j]), mc[masks[j]]) for j in near]


def tilde(T: Tournament, M) -> VertexSet:
    """The distinguished subset of a minimal co-module with at most one overlap.

    With no overlapping minimal co-module this is M itself; with exactly
    one, say M', it is the single shared vertex of M and M'.  Undefined
    (rejected) when two minimal co-modules overlap M.
    """
    mask = _as_mask(T, M)
    over = overlap_set(T, VertexSet(T.n, mask))
    if len(over) > 1:
        raise ValueError("tilde is undefined when two minimal co-modules overlap")
    return VertexSet(T.n, mask & over[0].members.mask if over else mask)


# ---------------------------------------------------------------------------
# Transitive modules and components.


def _is_transitive_mask(T: Tournament, mask: int) -> bool:
    """T restricted to mask is transitive iff its inner out-degrees are distinct."""
    degs = {(T.out_masks[v] & mask).bit_count() for v in range(T.n) if mask >> v & 1}
    return len(degs) == mask.bit_count()


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
    """Partition V(T) into maximal transitive modules.

    A transitive module with two or more vertices is a run of consecutive
    single-vertex children of a linear tree node, so the blocks are the
    maximal such runs, and every other vertex (a child of a prime node)
    is a block of its own.  Blocks are listed by their lowest vertex.
    """
    blocks = _transitive_blocks(T, _tree(T))
    return TransitiveComponentPartition(tuple(VertexSet(T.n, m) for m in blocks))


def _transitive_blocks(T: Tournament, tree: Iterable) -> list[int]:
    blocks = [] if T.n > 1 else [1]
    for _, linear, children in tree:
        for single, run in groupby(children, key=lambda c: c & (c - 1) == 0):
            if single:
                blocks += [reduce(or_, run)] if linear else list(run)
    return sorted(blocks, key=lambda m: m & -m)


def _transitive_order(T: Tournament, mask: int) -> list[int]:
    """Members of a transitive set, source first (descending inner out-degree)."""
    return sorted(_members(mask), key=lambda v: -(T.out_masks[v] & mask).bit_count())


def component_comodule(T: Tournament, C, k: int) -> CoModule:
    """The k-th minimal co-module along a transitive component.

    With the component's vertices written v_0 -> v_1 -> ... in transitive
    order, {v_k, v_{k+1}} is a twin of T, and exactly one of that twin and
    its two singletons is a minimal co-module; that element is returned.
    """
    if T.n < 3:
        raise ValueError("needs a tournament with at least three vertices")
    mask = _as_mask(T, C)
    tree = list(_tree(T))
    if mask not in _transitive_blocks(T, tree):
        raise ValueError("argument is not a transitive component of the tournament")
    size = mask.bit_count()
    if size < 2:
        raise ValueError("component must have at least two vertices")
    if not 0 <= k <= size - 2:
        raise ValueError(f"index k must lie in 0..{size - 2}, got {k}")
    order = _transitive_order(T, mask)
    twin = (1 << order[k]) | (1 << order[k + 1])
    mc = _minimal_comodules(T, tree)
    hits = [m for m in mc if m & ~twin == 0]
    assert len(hits) == 1, "a twin must contain exactly one minimal co-module"
    return CoModule(VertexSet(T.n, hits[0]), mc[hits[0]])
