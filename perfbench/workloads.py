"""Seeded benchmark inputs, built from tourmod's public API only.

Every workload is a sequence of rounds.  A round is a fixed mix of
instance shapes in a seeded order, so runs that complete the same number
of rounds see the same mix whatever the seed; the seed only changes the
labelling and the random arcs.  No two instances of one stream share
their orientation bits, so an input-keyed memo cannot pass for a
speed-up.
"""

from __future__ import annotations

from dataclasses import dataclass

from tourmod import Tournament, Xorshift64Star, make_tournament, random_tournament, transitive

# Transitive tournaments: the co-modular index is at its maximum
# ceil((n+1)/2), so the overlap-graph work dominates.  The latency of one
# size varies by up to 1.5x from instance to instance, so the order
# statistics reported for a 64-instance round sit near the middle of
# large groups of one size: the median (ranks 32 and 33) among the
# thirty-two 15-vertex instances (ranks 16..47), the tail rank 54 among
# the eleven 17-vertex ones (ranks 50..60).
CHAIN_ROUND = (14,) * 15 + (15,) * 32 + (16,) * 2 + (17,) * 11 + (18,) * 2 + (19,) * 2

# Half random tournaments (prime with high probability), half with a
# random tournament on n/4 vertices substituted into a vertex of another
# (co-modular index 2 or 3), n = 32..64.  Random inputs of one size vary
# in cost by +-20%, so, as for chain, the order statistics sit in large
# groups of one shape: the median (ranks 27 and 28 of a 54-instance
# round) among the fourteen random 56-vertex ones, which cost about the
# same as a composed 40-vertex one, and the tail (rank 98 of the two
# rounds a run does) among the eight composed 56-vertex ones per round.
WIDE_ROUND = (
    (("random", 32),) * 3
    + (("random", 40),) * 3
    + (("random", 48),) * 4
    + (("random", 56),) * 14
    + (("random", 64),) * 3
    + (("composed", 32),) * 4
    + (("composed", 36),) * 4
    + (("composed", 40),) * 4
    + (("composed", 44),) * 3
    + (("composed", 48),) * 2
    + (("composed", 56),) * 8
    + (("composed", 64),) * 2
)


@dataclass(frozen=True)
class Instance:
    """One benchmark input.  ``module`` is the planted module of a
    composed instance as a vertex mask, 0 for the other kinds."""

    id: int
    kind: str  # "chain", "random" or "composed"
    tournament: Tournament
    module: int = 0


def random_permutation(rng: Xorshift64Star, n: int) -> list[int]:
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.below(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def relabel(T: Tournament, perm: list[int]) -> Tournament:
    """The isomorphic copy of T in which vertex v is called perm[v]."""
    old = [0] * T.n
    for v, p in enumerate(perm):
        old[p] = v
    return make_tournament(
        T.n, [T.relation(old[i], old[j]) for i in range(T.n) for j in range(i + 1, T.n)]
    )


def substitute(outer: Tournament, at: int, inner: Tournament) -> tuple[Tournament, int]:
    """Replace vertex ``at`` of ``outer`` by a copy of ``inner``.

    The copy takes the labels outer.n-1 .. outer.n+inner.n-2 and is a
    module of the result; returns the result and that module's mask.
    """
    rest = [v for v in range(outer.n) if v != at]
    first = outer.n - 1
    n = first + inner.n

    def rel(a: int, b: int) -> int:
        if a >= first and b >= first:
            return inner.relation(a - first, b - first)
        return outer.relation(at if a >= first else rest[a], at if b >= first else rest[b])

    T = make_tournament(n, [rel(i, j) for i in range(n) for j in range(i + 1, n)])
    return T, ((1 << inner.n) - 1) << first


def _permute_mask(mask: int, perm: list[int]) -> int:
    return sum(1 << perm[v] for v in range(len(perm)) if mask >> v & 1)


class InstanceStream:
    """Rounds of instances for one workload, drawn from xorshift64*(seed)."""

    def __init__(self, workload: str, seed: int):
        if workload not in ("chain", "wide"):
            raise ValueError(f"no generated inputs for workload {workload!r}")
        self.workload = workload
        self.rng = Xorshift64Star(seed)
        self.seen: set[tuple[int, int]] = set()
        self.count = 0

    def _shuffled(self, items) -> list:
        return [items[i] for i in random_permutation(self.rng, len(items))]

    def _fresh(self, make) -> tuple[Tournament, int]:
        """Draw from ``make`` until the bits are new to this stream."""
        while True:
            T, module = make()
            if (T.n, T.bits) not in self.seen:
                self.seen.add((T.n, T.bits))
                return T, module

    def _chain(self, n: int) -> tuple[Tournament, int]:
        return relabel(transitive(n), random_permutation(self.rng, n)), 0

    def _random(self, n: int) -> tuple[Tournament, int]:
        return random_tournament(n, self.rng.next()), 0

    def _composed(self, n: int) -> tuple[Tournament, int]:
        k = n // 4  # a fixed module size keeps the cost of a round steady
        outer = random_tournament(n - k + 1, self.rng.next())
        inner = random_tournament(k, self.rng.next())
        T, module = substitute(outer, self.rng.below(outer.n), inner)
        perm = random_permutation(self.rng, n)
        return relabel(T, perm), _permute_mask(module, perm)

    def next_round(self) -> list[Instance]:
        if self.workload == "chain":
            shapes = [("chain", n) for n in CHAIN_ROUND]
        else:
            shapes = list(WIDE_ROUND)
        make = {"chain": self._chain, "random": self._random, "composed": self._composed}
        out = []
        for kind, n in self._shuffled(shapes):
            T, module = self._fresh(lambda: make[kind](n))
            out.append(Instance(self.count, kind, T, module))
            self.count += 1
        return out
