"""Tournament values: construction, transformation, enumeration, and I/O.

A tournament on n vertices (labelled 0..n-1) orients every unordered pair
{i, j} exactly one way.  The orientation is stored as a flat sequence of
n(n-1)/2 booleans in row-major upper-triangle order: the entry for the
pair {i, j} with i < j sits at position

    idx(i, j) = i*(2n - i - 1)/2 + (j - i - 1)

and is True when the arc (i, j) is present, False when (j, i) is.  The
sequence is packed into a single int (bit k = entry k), which makes
tournaments cheap to hash and compare.  The out-neighbourhood masks are
decoded from it on first read; ``invert`` and ``dual`` derive theirs by
flipping.

All values in this module are immutable; every function is pure.

Text format "tourn-v1"
----------------------
Three lines, trailing newline optional::

    tourn-v1
    n=<N>
    bits=<string of '0'/'1' of length N(N-1)/2 in idx order>

Anything else is rejected by the parser.

Random generation
-----------------
``random_tournament`` draws orientation bits from xorshift64* so that the
same (n, seed) produces the same tournament on every platform.  The
generator state is ``seed`` truncated to 64 bits (the zero seed is
replaced by 0x9E3779B97F4A7C15, since xorshift has no zero state); each
step computes

    x ^= x >> 12;  x ^= (x << 25) & (2**64 - 1);  x ^= x >> 27;
    output = (x * 0x2545F4914F6CDD1D) & (2**64 - 1)

and the orientation bit for pair position k is bit 63 of the k-th output.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from typing import Iterable, Iterator, NamedTuple, Sequence

__all__ = [
    "Arc",
    "Tournament",
    "VertexSet",
    "Xorshift64Star",
    "canonical_form",
    "dual",
    "enumerate_tournaments",
    "format_tourn_v1",
    "invert",
    "make_tournament",
    "pair_count",
    "pair_index",
    "parse_tourn_v1",
    "random_tournament",
    "relabel",
    "subtournament",
    "substitute",
    "transitive",
]

# the largest vertex count for canonical forms, enumeration and sweeps
ENUMERATION_BOUND = 9

_MASK64 = (1 << 64) - 1
_ZERO_SEED_STATE = 0x9E3779B97F4A7C15
_FLIP = bytes.maketrans(b"01", b"10")


def pair_count(n: int) -> int:
    """Number of unordered vertex pairs, i.e. the orientation length."""
    return n * (n - 1) // 2


def pair_index(n: int, i: int, j: int) -> int:
    """Position of the pair {i, j} (i < j) in the orientation sequence."""
    if not 0 <= i < j < n:
        raise ValueError(f"bad pair ({i}, {j}) for n={n}")
    return i * (2 * n - i - 1) // 2 + (j - i - 1)


def _members(mask: int) -> tuple[int, ...]:
    """The vertices of a mask in ascending order."""
    out = []
    while mask:
        bit = mask & -mask
        mask ^= bit
        out.append(bit.bit_length() - 1)
    return tuple(out)


def _mask_key(mask: int) -> tuple[int, tuple[int, ...]]:
    """The sort key of vertex sets: the size, then the member list.  Two
    member lists of one size first differ at the lowest vertex in which
    the sets differ, and the set holding it sorts first."""
    return mask.bit_count(), _members(mask)


# modules, pair closures and primality by definition, reading no tree
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


def _closure_mask(T: Tournament, mask: int, unread=-1, stop=0, whole=-1, ref=None) -> int:
    """Grow ``mask`` by splitter vertices until it becomes a module.  An
    outside vertex splits it when it treats some member w unlike the lowest
    member r, i.e. is a bit of out(w) ^ out(r), so each member is read once:
    the members of ``unread`` but r, then the vertices added.  A caller that
    grows a module by a part passes the part, since no vertex outside a
    module splits it, and a caller that already holds r's row passes it as
    ``ref``.  Growth stops early once the mask meets ``stop`` or equals
    ``whole``."""
    out = T.out_masks
    if ref is None:
        ref = out[(mask & -mask).bit_length() - 1]
    unread &= mask & (mask - 1)
    while unread and not mask & stop and mask != whole:
        bit = unread & -unread
        unread ^= bit
        new = (out[bit.bit_length() - 1] ^ ref) & ~mask
        mask |= new
        unread |= new
    return mask


def _is_prime(T: Tournament) -> bool:
    """Whether T is indecomposable: every pair's closure, the least module
    holding it, is V.  The pairs through vertex 0 must grow to V; any other
    pair {a, b} need only reach 0, as its closure then holds that of {0, a}."""
    full = (1 << T.n) - 1
    if not all(_closure_mask(T, 1 | 1 << u, whole=full) == full for u in range(1, T.n)):
        return False
    pairs = combinations(range(1, T.n), 2)
    return all(_closure_mask(T, 1 << a | 1 << b, stop=1) & 1 for a, b in pairs)


class Arc(NamedTuple):
    """A directed arc tail -> head between two distinct vertices."""

    tail: int
    head: int


@dataclass(frozen=True)
class VertexSet:
    """Subset of the vertices 0..n-1 of some tournament, stored as a bitmask."""

    n: int
    mask: int

    def __post_init__(self):
        if self.mask < 0 or self.mask >> self.n:
            raise ValueError(f"mask {self.mask:#x} has bits outside 0..{self.n - 1}")

    @classmethod
    def from_members(cls, n: int, members: Iterable[int]) -> "VertexSet":
        mask = 0
        for v in members:
            if not 0 <= v < n:
                raise ValueError(f"vertex {v} out of range 0..{n - 1}")
            mask |= 1 << v
        return cls(n, mask)

    def members(self) -> tuple[int, ...]:
        return _members(self.mask)

    def complement(self) -> "VertexSet":
        return VertexSet(self.n, ((1 << self.n) - 1) ^ self.mask)

    @property
    def key(self) -> tuple[int, tuple[int, ...]]:
        """Sort key among the sets on n vertices: by cardinality, then by member list."""
        return _mask_key(self.mask)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members())

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.n and bool(self.mask >> v & 1)

    def __repr__(self) -> str:
        return f"VertexSet({self.n}, {{{', '.join(map(str, self.members()))}}})"


@dataclass(frozen=True)
class Tournament:
    """Immutable tournament on vertices 0..n-1.

    ``bits`` packs the orientation sequence (bit k = entry k).  Equality
    and hashing use (n, bits) only; ``out_masks`` is derived.
    """

    n: int
    bits: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("a tournament needs at least one vertex")
        m = pair_count(self.n)
        if self.bits < 0 or self.bits >> m:
            raise ValueError(f"bits value does not fit {m} pair positions")

    @classmethod
    def _derived(cls, n: int, bits: int, out_masks: Sequence[int]) -> "Tournament":
        """A tournament from bits and rows that agree: both decoded from one
        string, or both flipped from a valid tournament's by the same arcs."""
        T = object.__new__(cls)
        vars(T).update(n=n, bits=bits, out_masks=tuple(out_masks))
        return T

    @cached_property
    def out_masks(self) -> tuple[int, ...]:
        """Bit y of out_masks[x] is set when the arc (x, y) is present;
        decoded from ``bits`` on first read unless ``_derived`` seeded it."""
        m = pair_count(self.n)
        return _rows(self.n, format(self.bits, f"0{m}b").encode() if m else b"")

    @property
    def orient(self) -> tuple[bool, ...]:
        """The orientation sequence as booleans, in idx order."""
        return tuple(c == "1" for c in self.bit_string())

    def relation(self, x: int, y: int) -> int:
        """1 if the arc (x, y) is present, else 0."""
        if not (0 <= x < self.n and 0 <= y < self.n):
            raise ValueError(f"pair ({x}, {y}) has a vertex outside 0..{self.n - 1}")
        if x == y:
            raise ValueError("no self-pairs in a tournament")
        return self.out_masks[x] >> y & 1

    def has_arc(self, x: int, y: int) -> bool:
        return bool(self.relation(x, y))

    def arcs(self) -> Iterator[Arc]:
        """All arcs, one per pair, in idx order of the underlying pair."""
        for i, out in enumerate(self.out_masks):
            for j in range(i + 1, self.n):
                yield Arc(i, j) if out >> j & 1 else Arc(j, i)

    def out_degree(self, v: int) -> int:
        return self.out_masks[v].bit_count()

    def vertex_set(self) -> VertexSet:
        return VertexSet(self.n, (1 << self.n) - 1)

    def bit_string(self) -> str:
        """The orientation sequence as a string of '0'/'1', in idx order."""
        m = pair_count(self.n)
        return format(self.bits, f"0{m}b")[::-1] if m else ""

    def __repr__(self) -> str:
        return f"Tournament(n={self.n}, bits='{self.bit_string()}')"


def _rows(n: int, s: bytes) -> tuple[int, ...]:
    """The out-masks of the n-vertex tournament whose orientation bits,
    read from the highest pair position down, are the ASCII '0'/'1' string
    ``s`` (``format(bits, "0mb")``, the reversed ``bit_string``).

    Read from its start, ``s`` lists the rows (i, j > i) from i = n-1 down,
    each from its highest j: row i is i's out-arcs above i as one binary
    number.  Padded, complemented and stacked, the rows form a grid whose
    column n-1-i has i's out-arcs below i."""
    rows = [s[pair_count(n - 1 - i) : pair_count(n - i)] for i in range(n)]
    grid = b"".join(rows[i] + b"0" * (i + 1) for i in reversed(range(n))).translate(_FLIP)
    return tuple([int(rows[i] + b"0" + grid[(n - i) * n + n - 1 - i :: n], 2) for i in range(n)])


def _read(outs: Sequence[int], order: Sequence[int]) -> str:
    """The orientation sequence, as a '0'/'1' string in idx order, of the
    tournament with out-neighbourhoods ``outs`` relabelled so that its
    vertex k is ``order[k]``."""
    return "".join("1" if outs[x] >> y & 1 else "0" for x, y in combinations(order, 2))


def make_tournament(n: int, orient: Sequence) -> Tournament:
    """Build a tournament from its orientation sequence.

    ``orient`` must contain exactly n(n-1)/2 entries; entry k decides the
    pair at position k (truthy: arc (i, j) with i < j; falsy: arc (j, i)).
    """
    return _from_bit_string(n, "".join("1" if e else "0" for e in orient))


def _from_bit_string(n: int, bits: str) -> Tournament:
    """The tournament whose orientation sequence is the '0'/'1' string
    ``bits`` (as ``Tournament.bit_string`` writes it); raises ValueError
    for n < 1, a wrong length or any other character.  The characters are
    checked once, before ``int``, which would also take signs, spaces,
    underscores, a 0b prefix and non-ASCII digits; the value and the rows
    are then both read from the reversed string."""
    if n < 1:
        raise ValueError("a tournament needs at least one vertex")
    if len(bits) != pair_count(n):
        raise ValueError(f"expected {pair_count(n)} orientation bits for n={n}, got {len(bits)}")
    if not bits.isascii() or bits.encode().translate(None, b"01"):
        raise ValueError("orientation bits may contain only '0' and '1'")
    s = bits[::-1].encode()
    return Tournament._derived(n, int(s or b"0", 2), _rows(n, s))


def transitive(n: int) -> Tournament:
    """The transitive tournament 0 -> 1 -> ... -> n-1 (all bits set), as the
    dual of the one with none set: ``Tournament`` checks n before any bits
    are built, which a negative n's huge pair count would make slow."""
    return dual(Tournament(n, 0))


def dual(T: Tournament) -> Tournament:
    """Reverse every arc.  An involution; each row is complemented, not decoded."""
    full = (1 << T.n) - 1
    outs = [full ^ (1 << v) ^ out for v, out in enumerate(T.out_masks)]
    return Tournament._derived(T.n, T.bits ^ ((1 << pair_count(T.n)) - 1), outs)


def invert(T: Tournament, arcs: Iterable) -> Tournament:
    """Reverse the given arcs.

    Every element of ``arcs`` must be an arc of T (its stated orientation
    must be present), and no two elements may share a vertex pair.  Each
    reversal flips its bit and its two row bits, so nothing is decoded.
    """
    flip = 0
    outs = list(T.out_masks)
    seen = set()
    for a in arcs:
        x, y = a
        if not T.has_arc(x, y):
            raise ValueError(f"arc ({x}, {y}) absent from the tournament")
        pair = (x, y) if x < y else (y, x)
        if pair in seen:
            raise ValueError(f"duplicate pair {pair} in inversion set")
        seen.add(pair)
        flip |= 1 << pair_index(T.n, *pair)
        outs[x] ^= 1 << y
        outs[y] ^= 1 << x
    return Tournament._derived(T.n, T.bits ^ flip, outs)


def subtournament(T: Tournament, W) -> tuple[Tournament, tuple[int, ...]]:
    """Restrict T to the vertex subset W.

    Returns (S, labels) where S is the induced tournament on 0..|W|-1 and
    labels[k] is the original vertex now called k (members of W in
    ascending order).
    """
    members = tuple(sorted(set(W)))
    if not members:
        raise ValueError("cannot induce a subtournament on the empty set")
    for v in members:
        if not 0 <= v < T.n:
            raise ValueError(f"vertex {v} out of range 0..{T.n - 1}")
    return _from_bit_string(len(members), _read(T.out_masks, members)), members


def relabel(T: Tournament, perm: Sequence[int]) -> Tournament:
    """The isomorphic copy of T in which vertex v is called perm[v];
    ``perm`` must list each of 0..n-1 exactly once."""
    n = T.n
    if sorted(perm) != list(range(n)):
        raise ValueError(f"perm must list each of 0..{n - 1} exactly once")
    old = sorted(range(n), key=perm.__getitem__)  # old[perm[v]] = v
    return _from_bit_string(n, _read(T.out_masks, old))


def substitute(outer: Tournament, inner: Tournament, at: int) -> Tournament:
    """The lexicographic sum: vertex ``at`` of ``outer`` expanded into a
    copy of ``inner``.

    The copy takes the labels at..at+inner.n-1 and is a module of the
    result; the vertices of ``outer`` after ``at`` move up by inner.n-1.
    """
    if not 0 <= at < outer.n:
        raise ValueError(f"vertex {at} out of range 0..{outer.n - 1}")
    home = [*range(at), *[at] * inner.n, *range(at + 1, outer.n)]  # vertex -> outer vertex
    orient = [
        outer.relation(a, b) if a != b else inner.relation(i - at, j - at)
        for (i, a), (j, b) in combinations(enumerate(home), 2)
    ]
    return make_tournament(len(home), orient)


def random_tournament(n: int, seed: int) -> Tournament:
    """Deterministic pseudo-random tournament; see the module docstring."""
    if n < 1:
        raise ValueError("a tournament needs at least one vertex")
    rng = Xorshift64Star(seed)
    return _from_bit_string(n, "".join("01"[rng.next() >> 63] for _ in range(pair_count(n))))


class Xorshift64Star:
    """The xorshift64* generator used for all reproducible randomness."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64
        if self.state == 0:
            self.state = _ZERO_SEED_STATE

    def next(self) -> int:
        x = self.state
        x ^= x >> 12
        x = (x ^ (x << 25)) & _MASK64
        x ^= x >> 27
        self.state = x
        return (x * 0x2545F4914F6CDD1D) & _MASK64

    def below(self, bound: int) -> int:
        """Next value reduced modulo ``bound`` (fine for desk-scale bounds)."""
        return self.next() % bound


# ---------------------------------------------------------------------------
# Canonical forms and enumeration up to isomorphism.
#
# The canonical form of a tournament is the lexicographically smallest
# orientation sequence over all relabelings of its vertices.  Row i of the
# sequence holds the pairs (i, j), j > i, so the search fixes labels in
# order.  With labels 0..i-1 fixed, the unlabelled vertices form an ordered
# partition (held as bitmasks): each cell relates alike to every labelled
# vertex, and the cells are in label order.  Row i then reads, cell by
# cell, 0 for each in-neighbour and 1 for each out-neighbour of the vertex
# labelled i, so the row is smallest when that vertex comes from the first
# cell, has the lexicographically largest in-neighbour counts read cell by
# cell, and every cell is split into its in-part, then its out-part.  This
# is individualisation with ordered partition refinement, as in McKay and
# Piperno, "Practical Graph Isomorphism II" (2014).
#
# The search is breadth first.  All branches alive at one depth share their
# prefix rows and so their cell sizes, which makes the count vectors
# comparable across branches: at each depth only the candidates with the
# largest vector survive, so the search branches only on ties and drops
# every branch whose prefix is larger than the best one.


def _canonical_order(outs: Sequence[int]) -> tuple[int, ...]:
    """A labelling (order[k] is the vertex labelled k) under which the
    tournament with out-neighbourhoods ``outs`` reads its canonical form."""
    n = len(outs)
    full = (1 << n) - 1
    ins = [full ^ out ^ (1 << v) for v, out in enumerate(outs)]
    frontier = [((), (full,))]
    for _ in range(n):
        best = None
        picks = []
        for order, cells in frontier:
            first = cells[0]
            rest = first
            while rest:
                low = rest & -rest
                rest ^= low
                v = low.bit_length() - 1
                in_v = ins[v]
                key = [(in_v & cell).bit_count() for cell in cells]
                if best is None or key > best:
                    best = key
                    picks = [(order, cells, v)]
                elif key == best:
                    picks.append((order, cells, v))
        frontier = []
        for order, cells, v in picks:
            in_v = ins[v]
            split = []
            for cell in cells:
                cell &= ~(1 << v)
                if cell & in_v:
                    split.append(cell & in_v)
                if cell & ~in_v:
                    split.append(cell & ~in_v)
            frontier.append((order + (v,), tuple(split)))
    return frontier[0][0]


def canonical_form(T: Tournament) -> tuple[bool, ...]:
    """Lexicographically minimal orientation sequence over all relabelings.

    Two tournaments are isomorphic exactly when their canonical forms are
    equal.  Found by individualisation and partition refinement (see the
    comment above), which branches only on ties; refuses n above 9.
    """
    if T.n > ENUMERATION_BOUND:
        raise ValueError(f"canonicalization limited to n <= {ENUMERATION_BOUND}, got n={T.n}")
    outs = T.out_masks
    return tuple(c == "1" for c in _read(outs, _canonical_order(outs)))


def _extend(task: tuple[int, Sequence[str]]) -> set[str]:
    """The canonical strings of the n-vertex extensions, by a new vertex
    n-1 of highest score, of the (n-1)-vertex tournaments in ``task`` =
    (n, their canonical strings).

    When k old vertices beat the new one, its score is n-1-k.  That is
    highest exactly when no old score exceeds n-1-k and each of the k
    beaters, whose score grows by one, scored below n-1-k; so the
    beaters are drawn from those vertices and no other extension is made.
    """
    n, parents = task
    forms = set()
    for bits in parents:
        outs = _from_bit_string(n - 1, bits).out_masks
        scores = [out.bit_count() for out in outs]
        top = max(scores)
        for k in range(n):
            new_score = n - 1 - k
            if top > new_score:
                break
            low = [i for i, s in enumerate(scores) if s < new_score]
            for beaters in combinations(low, k):
                # each beater i gains the arc (i, n-1); the rest lose to n-1
                new_outs = list(outs)
                ext = 0
                for i in beaters:
                    new_outs[i] |= 1 << (n - 1)
                    ext |= 1 << i
                new_outs.append(((1 << (n - 1)) - 1) ^ ext)
                forms.add(_read(new_outs, _canonical_order(new_outs)))
    return forms


def _classes(n: int, parents: Sequence[str], run=map) -> tuple[str, ...]:
    """The sorted canonical strings of every class on n vertices: ``run``
    (``map``, or a pool's) maps ``_extend`` over slices of 64 ``parents``,
    those of every class on n-1.  Deleting a vertex of highest score from
    any class leaves a class on n-1 vertices, so every class is reached."""
    slices = [(n, parents[i : i + 64]) for i in range(0, len(parents), 64)]
    return tuple(sorted(set().union(*run(_extend, slices))))


@lru_cache(maxsize=None)
def _enumerate_bits(n: int) -> tuple[str, ...]:
    """Canonical strings of every class on n vertices, sorted (so in
    canonical-form order), grown one vertex at a time by ``_classes``."""
    return ("",) if n == 1 else _classes(n, _enumerate_bits(n - 1))


def enumerate_tournaments(n: int) -> list[Tournament]:
    """One representative per isomorphism class, in canonical-form order.

    Representatives are themselves canonical.  Each class on n-1
    vertices is extended by a new vertex of highest score in every way,
    generated directly rather than filtered from all 2^(n-1) extensions,
    and the canonical forms deduplicated.  Refuses n above 9 (the 6,880
    classes on 8 vertices take about 0.8 s, the 191,536 on 9 about 21 s).
    """
    if n < 1:
        raise ValueError("a tournament needs at least one vertex")
    if n > ENUMERATION_BOUND:
        raise ValueError(f"enumeration limited to n <= {ENUMERATION_BOUND}, got n={n}")
    return [_from_bit_string(n, bits) for bits in _enumerate_bits(n)]


# ---------------------------------------------------------------------------
# tourn-v1 text format.


def format_tourn_v1(T: Tournament) -> str:
    return f"tourn-v1\nn={T.n}\nbits={T.bit_string()}\n"


def parse_tourn_v1(text: str) -> Tournament:
    """Parse the three-line tourn-v1 format; reject anything else."""
    body = text[:-1] if text.endswith("\n") else text
    lines = body.split("\n")
    if len(lines) != 3:
        raise ValueError("tourn-v1 input must have exactly three lines")
    if lines[0] != "tourn-v1":
        raise ValueError("missing tourn-v1 header")
    count = lines[1][2:]
    if not lines[1].startswith("n=") or not (count.isascii() and count.isdigit()):
        raise ValueError("second line must be n=<count>")
    if not lines[2].startswith("bits="):
        raise ValueError("third line must be bits=<0/1 string>")
    return _from_bit_string(int(count), lines[2][5:])
