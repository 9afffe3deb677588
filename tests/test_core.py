import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tourmod import (
    Tournament,
    Xorshift64Star,
    canonical_form,
    dual,
    enumerate_tournaments,
    format_tourn_v1,
    invert,
    is_module,
    make_tournament,
    pair_count,
    pair_index,
    parse_tourn_v1,
    random_tournament,
    subtournament,
    transitive,
)

from conftest import random_bits_tournament


def relabeled(T: Tournament, perm) -> Tournament:
    """Rename vertex v to perm[v]."""
    rel = {}
    for i in range(T.n):
        for j in range(T.n):
            if i != j:
                rel[(perm[i], perm[j])] = T.relation(i, j)
    return make_tournament(
        T.n, [rel[(i, j)] for i in range(T.n) for j in range(i + 1, T.n)]
    )


class TestPairLayout:
    def test_row_major_upper_triangle(self):
        assert [pair_index(4, i, j) for i, j in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]] == list(range(6))

    def test_rejects_bad_pairs(self):
        with pytest.raises(ValueError):
            pair_index(4, 2, 2)
        with pytest.raises(ValueError):
            pair_index(4, 3, 1)


class TestMakeTournament:
    def test_transitive_three(self):
        T = make_tournament(3, [1, 1, 1])
        assert sorted(T.arcs()) == [(0, 1), (0, 2), (1, 2)]

    def test_single_vertex(self):
        T = make_tournament(1, [])
        assert T.n == 1 and list(T.arcs()) == []

    def test_three_cycle(self, c3):
        assert sorted(c3.arcs()) == [(0, 1), (1, 2), (2, 0)]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            make_tournament(3, [1, 1])

    def test_zero_vertices(self):
        with pytest.raises(ValueError):
            make_tournament(0, [])

    def test_antisymmetry_by_construction(self):
        T = random_tournament(6, 2)
        for i in range(6):
            for j in range(6):
                if i != j:
                    assert T.relation(i, j) + T.relation(j, i) == 1


def pairwise_out_masks(n: int, bits: int) -> list[int]:
    """Out-neighbourhoods read one pair at a time, straight from the layout."""
    outs = [0] * n
    for k, (i, j) in enumerate((i, j) for i in range(n) for j in range(i + 1, n)):
        if bits >> k & 1:
            outs[i] |= 1 << j
        else:
            outs[j] |= 1 << i
    return outs


class TestConstruction:
    def test_out_masks_match_pairwise_reading(self):
        rng = Xorshift64Star(53)
        for n in range(1, 41):
            for bits in (0, (1 << pair_count(n)) - 1, random_bits_tournament(rng, n).bits):
                T = Tournament(n, bits)
                assert list(T.out_masks) == pairwise_out_masks(n, bits)
                assert T.bit_string() == "".join(str(bits >> k & 1) for k in range(pair_count(n)))
                assert T.orient == tuple(bool(bits >> k & 1) for k in range(pair_count(n)))

    def test_builders_keep_bits(self):
        rng = Xorshift64Star(59)
        for n in (1, 2, 5, 17, 40):
            orient = [rng.below(2) for _ in range(pair_count(n))]
            T = make_tournament(n, orient)
            assert T.orient == tuple(map(bool, orient))
            S, labels = subtournament(T, range(0, n, 2))
            assert all(
                S.relation(a, b) == T.relation(labels[a], labels[b])
                for a in range(S.n)
                for b in range(S.n)
                if a != b
            )

    def test_random_tournament_reads_one_output_per_pair(self):
        for n, seed in ((1, 3), (6, 0), (19, 7), (64, 2**64 + 5)):
            assert random_tournament(n, seed) == random_bits_tournament(Xorshift64Star(seed), n)


class TestTransitive:
    def test_three(self):
        assert transitive(3) == make_tournament(3, [1, 1, 1])

    def test_single(self):
        assert transitive(1).n == 1

    def test_interval_is_module(self):
        assert is_module(transitive(5), {1, 2})

    def test_zero(self):
        with pytest.raises(ValueError):
            transitive(0)


class TestDual:
    def test_dual_of_transitive(self):
        assert list(dual(transitive(3)).arcs()) == [(1, 0), (2, 0), (2, 1)]

    def test_dual_of_cycle_is_isomorphic(self, c3):
        assert canonical_form(dual(c3)) == canonical_form(c3)

    def test_involution(self):
        T = random_tournament(6, 1)
        assert dual(dual(T)) == T


class TestInvert:
    def test_full_inversion_is_dual(self):
        T = transitive(3)
        assert invert(T, list(T.arcs())) == dual(T)

    def test_empty_inversion(self):
        T = random_tournament(5, 4)
        assert invert(T, []) == T

    def test_single_arc(self):
        assert invert(transitive(3), [(0, 1)]) == make_tournament(3, [0, 1, 1])

    def test_absent_arc_rejected(self):
        with pytest.raises(ValueError):
            invert(transitive(3), [(1, 0)])

    def test_duplicate_pair_rejected(self):
        T = make_tournament(3, [1, 0, 1])
        with pytest.raises(ValueError):
            invert(transitive(3), [(0, 1), (0, 1)])
        with pytest.raises(ValueError):
            invert(T, [(0, 1), (1, 2), (2, 0), (0, 2)])

    @settings(max_examples=40, derandomize=True)
    @given(st.integers(0, 2**15 - 1), st.sets(st.integers(0, 14), max_size=6))
    def test_involution_property(self, bits, positions):
        T = Tournament(6, bits)
        arcs = [a for k, a in enumerate(T.arcs()) if k in positions]
        assert invert(invert(T, arcs), [(y, x) for x, y in arcs]) == T


class TestSubtournament:
    def test_interval_of_transitive(self):
        S, labels = subtournament(transitive(5), {1, 2, 3})
        assert S == transitive(3) and labels == (1, 2, 3)

    def test_whole_vertex_set(self):
        T = random_tournament(6, 7)
        S, labels = subtournament(T, range(6))
        assert S == T and labels == tuple(range(6))

    def test_pair_of_cycle(self, c3):
        S, labels = subtournament(c3, {0, 2})
        assert labels == (0, 2) and list(S.arcs()) == [(1, 0)]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            subtournament(transitive(4), set())

    def test_commutes_with_dual(self):
        T = random_tournament(7, 11)
        for W in ({0, 2, 5}, {1, 3, 4, 6}, {2, 3}):
            a, _ = subtournament(dual(T), W)
            b, _ = subtournament(T, W)
            assert a == dual(b)


class TestCanonicalForm:
    def test_separates_the_two_three_vertex_classes(self, c3):
        assert canonical_form(transitive(3)) != canonical_form(c3)

    def test_permutation_invariance_sampled(self):
        # 20 sampled relabelings per tournament, sizes up to 7
        rng = Xorshift64Star(3)
        for n in (4, 5, 6, 7):
            T = random_bits_tournament(rng, n)
            base = canonical_form(T)
            perms = list(itertools.permutations(range(n)))
            for _ in range(20):
                p = perms[rng.below(len(perms))]
                assert canonical_form(relabeled(T, p)) == base

    def test_bound_enforced(self):
        with pytest.raises(ValueError):
            canonical_form(transitive(10))


class TestEnumeration:
    def test_class_counts(self):
        assert [len(enumerate_tournaments(n)) for n in range(1, 6)] == [1, 1, 2, 4, 12]

    def test_seven_vertex_count(self):
        assert len(enumerate_tournaments(7)) == 456

    def test_representatives_are_canonical(self):
        for T in enumerate_tournaments(5):
            assert tuple(T.orient) == canonical_form(T)

    def test_orbit_sizes_cover_all_labeled_tournaments(self):
        # sum over classes of n!/|Aut| must equal 2^(n(n-1)/2)
        for n in (4, 5):
            total = 0
            for T in enumerate_tournaments(n):
                orbit = {relabeled(T, p).bits for p in itertools.permutations(range(n))}
                total += len(orbit)
            assert total == 1 << pair_count(n)

    def test_bound_enforced(self):
        with pytest.raises(ValueError):
            enumerate_tournaments(8)


class TestRandomTournament:
    def test_deterministic(self):
        assert random_tournament(5, 0) == random_tournament(5, 0)
        assert random_tournament(7, 123) == random_tournament(7, 123)

    def test_single_vertex_any_seed(self):
        for s in (0, 1, 99):
            assert random_tournament(1, s).n == 1

    def test_zero_vertices(self):
        with pytest.raises(ValueError):
            random_tournament(0, 1)

    def test_generator_stream_frozen(self):
        # regression pin for the documented xorshift64* stream, seed 1
        rng = Xorshift64Star(1)
        assert [rng.next() for _ in range(3)] == [
            5180492295206395165,
            12380297144915551517,
            13389498078930870103,
        ]


class TestTournV1:
    def test_roundtrip(self):
        T = random_tournament(6, 5)
        assert parse_tourn_v1(format_tourn_v1(T)) == T

    def test_trailing_newline_optional(self):
        text = format_tourn_v1(transitive(4))
        assert parse_tourn_v1(text.rstrip("\n")) == transitive(4)

    def test_single_vertex_empty_bits(self):
        assert format_tourn_v1(transitive(1)) == "tourn-v1\nn=1\nbits=\n"

    @pytest.mark.parametrize(
        "text",
        [
            "tourn-v2\nn=3\nbits=111",
            "tourn-v1\nn=3",
            "tourn-v1\nn=3\nbits=111\nextra",
            "tourn-v1\nn=x\nbits=111",
            "tourn-v1\nn=3\nbits=11",
            "tourn-v1\nn=3\nbits=1a1",
            "tourn-v1\nn=0\nbits=",
            "tourn-v1\nn=-1\nbits=",
            "n=3\nbits=111\ntourn-v1",
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            parse_tourn_v1(text)
