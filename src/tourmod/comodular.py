"""The co-modular index and maximum co-modular decompositions.

A co-modular decomposition is a set of pairwise disjoint co-modules; the
co-modular index of a tournament is the largest size such a set can have
(0 exactly for indecomposable tournaments, never 1).  Any maximum
decomposition can be shrunk part-by-part to one made of minimal
co-modules only, so the index equals the maximum independent set of the
overlap graph on mc(T).  Only twins overlap, so the decomposition tree
lists that graph as single sets and paths, each a run of consecutive
twins along one linear node, whose optima are named by the point where
they switch from even nodes to odd ones (``modular._path_optima``).

A "delta decomposition" below always means a maximum decomposition whose
parts are all minimal co-modules.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

from .core import InputError, Tournament, VertexSet, _mask_key, _members
from .modular import CoModule, _Analysis, _analysis

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

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Each node's neighbours: the edges read both ways."""
        adj: list[list[int]] = [[] for _ in self.nodes]
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        return tuple(map(tuple, adj))

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
    """The overlap graph on mc(T); its edges join neighbours on a path."""
    A = _analysis(T)
    edges = tuple((i, j) for i, near in enumerate(A.near) for j in near if i < j)
    return ConflictGraph(tuple(map(A.comodule, range(len(A.masks)))), edges)


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


def _as_decomposition(A: _Analysis, parts: tuple[int, ...]) -> CoModularDecomposition:
    return CoModularDecomposition(tuple(map(A.comodule, parts)), is_delta=True)


def comodular_index(T: Tournament) -> int:
    """Largest number of pairwise disjoint co-modules of T.

    Equals the maximum independent set of the overlap graph on mc(T); 0
    exactly when T is indecomposable, and at least 2 otherwise.
    """
    return _analysis(T).index


def all_delta_decompositions(T: Tournament) -> Iterator[CoModularDecomposition]:
    """All maximum decompositions into minimal co-modules, in a fixed order.

    One maximum independent set is chosen per overlap-graph component and
    the choices combined, which enumerates every such decomposition
    exactly once.
    """
    A = _analysis(T)
    return (_as_decomposition(A, parts) for parts in A.decompositions())


def delta_decomposition(T: Tournament) -> CoModularDecomposition:
    """A deterministic maximum decomposition into minimal co-modules: the
    first of ``all_delta_decompositions``.

    Ties are broken toward the lexicographically smallest selection of
    vertex sets (per overlap-graph component), so repeated runs agree.
    """
    A = _analysis(T)
    return _as_decomposition(A, next(A.decompositions()))


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
    A = _analysis(T)
    parts, labels = _structured(A)
    return _as_decomposition(A, parts), {k: A.comodule(p) for k, p in labels.items()}


def _structured(A: _Analysis) -> tuple[tuple[int, ...], dict[str, int]]:
    """``structured_delta_decomposition`` on positions: the parts and the
    labelled parts as positions in ``A.masks``, from the first
    decomposition that ``_label`` labels.  ``A`` is a state's record,
    built from its tree or derived by a certificate's high step
    (``_Analysis.without``)."""
    if A.index < 2:
        raise ValueError("tournament is indecomposable")
    for parts in A.decompositions():
        labels = _label(A, parts)
        if labels is not None:
            return parts, labels
    if A.index < 4:
        size = ("two", "three")[A.index - 2]
        raise RuntimeError(f"no {size}-part decomposition with all overlaps <= 1")
    raise RuntimeError("no labelled four-part decomposition found")


def _dominance(out: tuple[int, ...], part: int) -> int:
    """A part's dominance mask, the AND of its members' rows: the vertices
    that every member beats."""
    mask = -1
    while part:
        bit = part & -part
        part ^= bit
        mask &= out[bit.bit_length() - 1]
    return mask


def _label(A: _Analysis, parts: tuple[int, ...]) -> dict[str, int] | None:
    """The labels of one delta decomposition of the record A, given and
    returned as positions, or None when it has none.

    At index 2 and 3 every part needs a tilde, so the parts are labelled
    M, N (and L) when all have at most one overlap.  From index 4 up, the
    free parts, those with at most one overlap, alone may be M1, M3 or
    M4, and M1 beats all of M2 exactly when M2 lies in M1's dominance
    mask, so each (C2) test is one AND; a part's mask is built when a
    (C2) test first reads it.  The loops and their order are those of
    ``structured_delta_decomposition``, so the labelling is the first in
    that order."""
    near, out, masks = A.near, A.out, A.masks
    if A.index < 4:
        if any(len(near[p]) > 1 for p in parts):
            return None
        a, b = parts[:2]
        # at index 2, prefer a nontrivial-module part for M; one exists
        # from four vertices up, and below that the choice is immaterial
        swap = A.kinds[a] == "complement-module" and A.kinds[b] in ("module", "both")
        return dict(zip("MNL", (b, a) if A.index == 2 and swap else parts))
    free = [i for i, p in enumerate(parts) if len(near[p]) <= 1]
    # no vertex beats itself, so a part's mask holds none of its own
    # members: the (C2) tests alone make j differ from i, and, as M2
    # loses to all of M1, make k differ from i and j; (C3) does not
    for i in free:
        m1 = masks[parts[i]]
        below_m1 = _dominance(out, m1)
        for j, p2 in enumerate(parts):
            m2 = masks[p2]
            if below_m1 & m2 != m2:
                continue
            below_m2 = _dominance(out, m2)
            for k in free:
                m3 = masks[parts[k]]
                if below_m2 & m3 != m3:
                    continue
                for l in free:
                    if l in (i, j, k):
                        continue
                    m4 = masks[parts[l]]
                    if any(out[x] & m1 == m1 or out[x] & m3 == 0 for x in _members(m4)):
                        return {"M1": parts[i], "M2": p2, "M3": parts[k], "M4": parts[l]}
    return None


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
        raise InputError("k must be between 1 and 4")
    if T.n < 3 + k:
        raise InputError(f"needs at least {3 + k} vertices, got {T.n}")
    A = _analysis(T)
    index = A.index
    if index <= 4:
        if index == 0:
            designated = (0, 1, 2)
        else:
            module = min(A.minimal_modules, key=_mask_key)
            x, y = _members(module)[:2]
            z = next(v for v in range(T.n) if not module >> v & 1)
            designated = (x, y, z)
        pool = [v for v in range(T.n) if v not in designated]
        return VertexSet.from_members(T.n, pool[:k])
    big = [m for m in map(A.masks.__getitem__, next(A.decompositions())) if m.bit_count() >= 2]
    return VertexSet.from_members(T.n, _members(big[0] | big[1])[:k])
