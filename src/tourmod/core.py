"""Tournament values: construction, transformation, enumeration, and I/O.

A tournament on n vertices (labelled 0..n-1) orients every unordered pair
{i, j} exactly one way.  The orientation is stored as a flat sequence of
n(n-1)/2 booleans in row-major upper-triangle order: the entry for the
pair {i, j} with i < j sits at position

    idx(i, j) = i*(2n - i - 1)/2 + (j - i - 1)

and is True when the arc (i, j) is present, False when (j, i) is.  The
sequence is packed into a single int (bit k = entry k), which makes
tournaments cheap to hash, compare and transform.

All values in this module are immutable; every function is pure.  The
canonical-form cache is per-process, so forked worker processes are safe.

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

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

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
    "subtournament",
    "transitive",
]

CANONICAL_BOUND = 9
ENUMERATION_BOUND = 7

_MASK64 = (1 << 64) - 1
_ZERO_SEED_STATE = 0x9E3779B97F4A7C15


def pair_count(n: int) -> int:
    """Number of unordered vertex pairs, i.e. the orientation length."""
    return n * (n - 1) // 2


def pair_index(n: int, i: int, j: int) -> int:
    """Position of the pair {i, j} (i < j) in the orientation sequence."""
    if not 0 <= i < j < n:
        raise ValueError(f"bad pair ({i}, {j}) for n={n}")
    return i * (2 * n - i - 1) // 2 + (j - i - 1)


@lru_cache(maxsize=None)
def _pairs(n: int) -> tuple[tuple[int, int], ...]:
    """All pairs (i, j), i < j, in idx order."""
    return tuple((i, j) for i in range(n) for j in range(i + 1, n))


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
        out = []
        rest = self.mask
        while rest:
            bit = rest & -rest
            rest ^= bit
            out.append(bit.bit_length() - 1)
        return tuple(out)

    def complement(self) -> "VertexSet":
        return VertexSet(self.n, ((1 << self.n) - 1) ^ self.mask)

    @property
    def key(self) -> tuple:
        """Sort key: by cardinality, then by member list."""
        return (len(self), self.members())

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
    out_masks: tuple[int, ...] = field(
        init=False, repr=False, compare=False, hash=False, default=()
    )

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("a tournament needs at least one vertex")
        m = pair_count(self.n)
        if self.bits < 0 or self.bits >> m:
            raise ValueError(f"bits value does not fit {m} pair positions")
        # one pass over the bit string, read from its high end (vertex 0's
        # row, highest j first): shifting the big int once per pair would
        # make construction quadratic in the pair count
        s = format(self.bits, f"0{m}b") if m else ""
        outs = [0] * self.n
        end = m
        for i in range(self.n - 1):
            start = end - (self.n - 1 - i)
            row = s[start:end]
            end = start
            outs[i] |= int(row, 2) << (i + 1)
            bit = 1 << i
            j = self.n
            for c in row:
                j -= 1
                if c == "0":
                    outs[j] |= bit
        object.__setattr__(self, "out_masks", tuple(outs))

    @property
    def orient(self) -> tuple[bool, ...]:
        """The orientation sequence as booleans, in idx order."""
        return tuple(c == "1" for c in self.bit_string())

    def relation(self, x: int, y: int) -> int:
        """1 if the arc (x, y) is present, else 0."""
        if x == y:
            raise ValueError("no self-pairs in a tournament")
        return self.out_masks[x] >> y & 1

    def has_arc(self, x: int, y: int) -> bool:
        return bool(self.relation(x, y))

    def arcs(self) -> Iterator[Arc]:
        """All arcs, one per pair, in idx order of the underlying pair."""
        for i, j in _pairs(self.n):
            yield Arc(i, j) if self.relation(i, j) else Arc(j, i)

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


def _pack(entries: Iterable) -> int:
    """The int whose bit k is set when entry k is truthy, built from one
    string (setting bits one by one would be quadratic in the length)."""
    return int("".join("1" if e else "0" for e in entries)[::-1] or "0", 2)


def make_tournament(n: int, orient: Sequence) -> Tournament:
    """Build a tournament from its orientation sequence.

    ``orient`` must contain exactly n(n-1)/2 entries; entry k decides the
    pair at position k (truthy: arc (i, j) with i < j; falsy: arc (j, i)).
    """
    if n < 1:
        raise ValueError("a tournament needs at least one vertex")
    entries = list(orient)
    if len(entries) != pair_count(n):
        raise ValueError(
            f"expected {pair_count(n)} orientation entries for n={n}, got {len(entries)}"
        )
    return Tournament(n, _pack(entries))


def _from_bit_string(n: int, bits: str) -> Tournament:
    """The tournament whose orientation sequence is the '0'/'1' string
    ``bits`` (as ``Tournament.bit_string`` writes it), read in one
    conversion; raises ValueError for n < 1, a wrong length or any other
    character."""
    if n < 1:
        raise ValueError("a tournament needs at least one vertex")
    if len(bits) != pair_count(n):
        raise ValueError(f"expected {pair_count(n)} orientation bits for n={n}, got {len(bits)}")
    if bits.strip("01"):
        raise ValueError("orientation bits may contain only '0' and '1'")
    return Tournament(n, int(bits[::-1] or "0", 2))


def transitive(n: int) -> Tournament:
    """The transitive tournament 0 -> 1 -> ... -> n-1 (all bits set)."""
    if n < 1:
        raise ValueError("a tournament needs at least one vertex")
    return Tournament(n, (1 << pair_count(n)) - 1)


def dual(T: Tournament) -> Tournament:
    """Reverse every arc.  An involution."""
    return Tournament(T.n, T.bits ^ ((1 << pair_count(T.n)) - 1))


def invert(T: Tournament, arcs: Iterable) -> Tournament:
    """Reverse the given arcs.

    Every element of ``arcs`` must be an arc of T (its stated orientation
    must be present), and no two elements may share a vertex pair.
    """
    flip = 0
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
    return Tournament(T.n, T.bits ^ flip)


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
    k = len(members)
    bits = _pack(T.relation(members[a], members[b]) for a in range(k) for b in range(a + 1, k))
    return Tournament(k, bits), members


def random_tournament(n: int, seed: int) -> Tournament:
    """Deterministic pseudo-random tournament; see the module docstring."""
    if n < 1:
        raise ValueError("a tournament needs at least one vertex")
    rng = Xorshift64Star(seed)
    return Tournament(n, _pack(rng.next() >> 63 for _ in range(pair_count(n))))


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
# orientation sequence over all relabelings of its vertices, found by full
# minimisation over the n! permutations.  The permutation action is
# precomputed per n as two (n!, m) tables: POS maps each target pair
# position to its source position, FLIP records whether the bit reverses
# (the relabeled pair comes out in descending order).

_perm_tables: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _permutation_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    cached = _perm_tables.get(n)
    if cached is not None:
        return cached
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int8)
    inv = np.argsort(perms, axis=1).astype(np.int8)
    m = pair_count(n)
    idx_lookup = np.zeros((n, n), dtype=np.int16)
    for k, (i, j) in enumerate(_pairs(n)):
        idx_lookup[i, j] = k
    pos = np.empty((len(perms), m), dtype=np.int16)
    flip = np.empty((len(perms), m), dtype=np.uint8)
    for k, (a, b) in enumerate(_pairs(n)):
        u = inv[:, a].astype(np.int16)
        v = inv[:, b].astype(np.int16)
        lo = np.minimum(u, v)
        hi = np.maximum(u, v)
        pos[:, k] = idx_lookup[lo, hi]
        flip[:, k] = (u > v).astype(np.uint8)
    _perm_tables[n] = (pos, flip)
    return pos, flip


def _bits_to_array(bits: int, m: int) -> np.ndarray:
    return np.array([bits >> k & 1 for k in range(m)], dtype=np.uint8)


def _place_weights(m: int) -> np.ndarray:
    """Weight 2^(m-1-k) of target position k; keys then order like the
    orientation sequences.  Exact in float64 for m <= 52."""
    return 2.0 ** (m - 1 - np.arange(m, dtype=np.float64))


def _key_to_bits(key: int, m: int) -> int:
    """Unpack a position-weighted key back into an orientation int."""
    bits = 0
    for k in range(m):
        if key >> (m - 1 - k) & 1:
            bits |= 1 << k
    return bits


@lru_cache(maxsize=200_000)
def _canonical_bits(n: int, bits: int) -> int:
    pos, flip = _permutation_tables(n)
    m = pair_count(n)
    arr = _bits_to_array(bits, m)
    place = _place_weights(m)
    best = None
    chunk = 40320  # keep the candidate matrix a few MB at most
    for start in range(0, len(pos), chunk):
        cand = arr[pos[start : start + chunk]] ^ flip[start : start + chunk]
        lo = int(cand.astype(np.float64).dot(place).min())
        if best is None or lo < best:
            best = lo
    return _key_to_bits(best, m)


def canonical_form(T: Tournament, bound: int = CANONICAL_BOUND) -> tuple[bool, ...]:
    """Lexicographically minimal orientation sequence over all relabelings.

    Two tournaments are isomorphic exactly when their canonical forms are
    equal.  Full permutation minimisation; refuses n above ``bound``.
    """
    if T.n > bound:
        raise ValueError(f"canonicalization limited to n <= {bound}, got n={T.n}")
    cbits = _canonical_bits(T.n, T.bits)
    m = pair_count(T.n)
    return tuple(bool(cbits >> k & 1) for k in range(m))


def _canonical_batch(n: int, bit_rows: np.ndarray) -> np.ndarray:
    """Canonical keys (position-weighted, float64-exact) for a batch of
    orientation rows.

    The key of row b under permutation p is an affine function of the
    row, sum_k (bits[b, pos[p,k]] XOR flip[p,k]) * 2^(m-1-k)
    = const[p] + bits[b] . W[p], so one matrix product per permutation
    chunk covers the whole batch.
    """
    pos, flip = _permutation_tables(n)
    m = pair_count(n)
    place = _place_weights(m)
    rows = bit_rows.astype(np.float64)
    best = np.full(len(rows), np.inf)
    # keep each product block around a hundred MB
    chunk = max(1, min(len(pos), (1 << 24) // max(len(rows), 1)))
    for start in range(0, len(pos), chunk):
        p_slice = slice(start, start + chunk)
        pos_c = pos[p_slice]
        flip_c = flip[p_slice].astype(np.float64)
        signed = (1.0 - 2.0 * flip_c) * place  # per (perm, target k)
        weights = np.zeros((len(pos_c), m))
        weights[np.arange(len(pos_c))[:, None], pos_c] = signed
        const = flip_c @ place
        keys = rows @ weights.T
        keys += const
        np.minimum(best, keys.min(axis=1), out=best)
    return best


def _all_orientation_rows(m: int) -> np.ndarray:
    count = 1 << m
    codes = np.arange(count, dtype=np.uint32)
    return (codes[:, None] >> np.arange(m, dtype=np.uint32)[None, :] & 1).astype(np.uint8)


def _rows_from_reps(reps: list[int], n: int) -> np.ndarray:
    """Extend each (n-1)-vertex rep by a new last vertex in all 2^(n-1) ways."""
    m_old = pair_count(n - 1)
    ext = _all_orientation_rows(n - 1)  # orientation of pairs {i, n-1}
    rows = np.empty((len(reps) * len(ext), pair_count(n)), dtype=np.uint8)
    # target layout: pair {i, j} of the old tournament keeps relative order,
    # pair {i, n-1} lands at idx(i, n-1)
    old_pos = [pair_index(n, i, j) for (i, j) in _pairs(n - 1)]
    new_pos = [pair_index(n, i, n - 1) for i in range(n - 1)]
    r = 0
    for bits in reps:
        old_row = np.array([bits >> k & 1 for k in range(m_old)], dtype=np.uint8)
        block = rows[r : r + len(ext)]
        block[:, old_pos] = old_row[None, :]
        block[:, new_pos] = ext
        r += len(ext)
    return rows


@lru_cache(maxsize=None)
def _enumerate_bits(n: int) -> tuple[int, ...]:
    m = pair_count(n)
    if n <= 6:
        keys = _canonical_batch(n, _all_orientation_rows(m))
    else:
        rows = _rows_from_reps(list(_enumerate_bits(n - 1)), n)
        keys = _canonical_batch(n, rows)
    return tuple(_key_to_bits(int(k), m) for k in np.unique(keys))


def enumerate_tournaments(n: int, bound: int = ENUMERATION_BOUND) -> list[Tournament]:
    """One representative per isomorphism class, in canonical-form order.

    Representatives are themselves canonical.  For n <= 6 all labeled
    tournaments are scanned; for larger n each class on n-1 vertices is
    extended by one vertex in every way and the results deduplicated.
    ``bound`` (default 7) may be raised to 8 when the extra half-minute
    of enumeration work is acceptable.
    """
    if n < 1:
        raise ValueError("a tournament needs at least one vertex")
    if n > bound:
        raise ValueError(f"enumeration limited to n <= {bound}, got n={n}")
    return [Tournament(n, bits) for bits in _enumerate_bits(n)]


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
    if not lines[1].startswith("n=") or not lines[1][2:].isdigit():
        raise ValueError("second line must be n=<count>")
    if not lines[2].startswith("bits="):
        raise ValueError("third line must be bits=<0/1 string>")
    return _from_bit_string(int(lines[1][2:]), lines[2][5:])
