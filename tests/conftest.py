"""Shared helpers: named small tournaments and deterministic generators."""

import pytest

from tourmod import (
    Tournament,
    Xorshift64Star,
    enumerate_tournaments,
    make_tournament,
    pair_count,
    random_tournament,
    transitive,
)


@pytest.fixture
def c3() -> Tournament:
    # the 3-cycle 0 -> 1 -> 2 -> 0
    return make_tournament(3, [1, 0, 1])


@pytest.fixture
def t4() -> Tournament:
    # the 3-cycle plus a dominating vertex 3
    return make_tournament(4, [1, 0, 0, 1, 0, 0])


def random_bits_tournament(rng: Xorshift64Star, n: int) -> Tournament:
    bits = 0
    for k in range(pair_count(n)):
        if rng.next() >> 63 & 1:
            bits |= 1 << k
    return Tournament(n, bits)


def substitute(outer: Tournament, inner: Tournament, at: int) -> Tournament:
    """Expand vertex ``at`` of ``outer`` into a copy of ``inner``.

    The copy occupies the label block at..at+inner.n-1 and is a module of
    the result, which makes this the standard source of decomposable test
    instances.
    """
    n = outer.n + inner.n - 1

    def to_outer(v: int) -> int:
        if v < at:
            return v
        if v < at + inner.n:
            return at
        return v - inner.n + 1

    orient = []
    for i in range(n):
        for j in range(i + 1, n):
            oi, oj = to_outer(i), to_outer(j)
            if oi == oj:  # both inside the inner block
                orient.append(inner.relation(i - at, j - at))
            else:
                orient.append(outer.relation(oi, oj))
    return make_tournament(n, orient)


def composed_random(rng: Xorshift64Star, n: int) -> Tournament:
    """Random tournament on n >= 4 vertices with a guaranteed nontrivial
    module (a substituted block)."""
    q = 2 + rng.below(n - 2)  # outer size 2..n-1
    outer = random_bits_tournament(rng, q)
    inner = random_bits_tournament(rng, n - q + 1)
    return substitute(outer, inner, rng.below(q))


def nested_substitution(rng: Xorshift64Star) -> Tournament:
    """A random tournament with two to four levels of substituted blocks,
    each new block wrapping the last result or placed beside it."""
    T = random_tournament(2 + rng.below(5), rng.next())
    for _ in range(2 + rng.below(3)):
        other = random_tournament(2 + rng.below(5), rng.next())
        if rng.below(2):
            T = substitute(other, T, rng.below(other.n))
        else:
            T = substitute(T, other, rng.below(T.n))
    return T


def relabelled_chain(n: int, seed: int) -> Tournament:
    """transitive(n) with its vertices renamed by a seeded shuffle, so that
    its transitive order is not the label order."""
    rng = Xorshift64Star(seed)
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.below(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    old = [0] * n
    for v, p in enumerate(perm):
        old[p] = v
    T = transitive(n)
    return make_tournament(
        n, [T.relation(old[i], old[j]) for i in range(n) for j in range(i + 1, n)]
    )


def all_classes_up_to(max_n: int):
    for n in range(1, max_n + 1):
        for T in enumerate_tournaments(n):
            yield T
