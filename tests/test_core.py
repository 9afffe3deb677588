import dataclasses
import hashlib
import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tourmod import (
    Tournament,
    VertexSet,
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
    relabel,
    substitute,
    subtournament,
    synthesize_certificate,
    transitive,
    verify_certificate,
)

from tourmod import core

from conftest import NON_BINARY_BITS, random_bits_tournament, random_perm, record_calls


def brute_canonical(T: Tournament) -> tuple[bool, ...]:
    """The smallest orientation sequence over all n! relabelings, read
    straight off the pair layout: q[a] is the vertex labelled a."""
    n = T.n
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    outs = T.out_masks
    best = min(
        "".join("1" if outs[q[a]] >> q[b] & 1 else "0" for a, b in pairs)
        for q in itertools.permutations(range(n))
    )
    return tuple(c == "1" for c in best)


def paley7() -> Tournament:
    # i -> j when j - i is a nonzero square mod 7: vertex-transitive, so
    # all seven vertices tie at the first level of the canonical search
    return make_tournament(7, [(j - i) % 7 in (1, 2, 4) for i in range(7) for j in range(i + 1, 7)])


def cycle_of_cycles() -> Tournament:
    # the 3-cycle with each vertex replaced by a 3-cycle (9 vertices,
    # vertex-transitive, 81 automorphisms)
    c3 = make_tournament(3, [1, 0, 1])
    return substitute(substitute(substitute(c3, c3, 2), c3, 1), c3, 0)


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


def read_by_relation(T: Tournament, order) -> str:
    """Reference reading: the orientation string of T with its vertex k
    called order[k], one validated ``relation`` call per pair."""
    return "".join(str(T.relation(x, y)) for x, y in itertools.combinations(order, 2))


class TestConstruction:
    def test_fields_are_n_and_bits(self):
        # the rows are derived, decoded from bits on first read: here the
        # 3-cycle 0 -> 1 -> 2 -> 0
        assert [f.name for f in dataclasses.fields(Tournament)] == ["n", "bits"]
        T = Tournament(3, 0b101)
        assert "out_masks" not in vars(T)
        assert T.out_masks == (0b010, 0b100, 0b001) and "out_masks" in vars(T)

    def test_out_masks_match_pairwise_reading(self):
        rng = Xorshift64Star(53)
        # past 40, sizes around the 64-bit word boundaries and one large n
        for n in [*range(1, 41), 63, 64, 65, 127, 128, 129, 300]:
            for bits in (0, (1 << pair_count(n)) - 1, random_bits_tournament(rng, n).bits):
                T = Tournament(n, bits)
                assert list(T.out_masks) == pairwise_out_masks(n, bits)
                assert T.bit_string() == "".join(str(bits >> k & 1) for k in range(pair_count(n)))
                assert T.orient == tuple(bool(bits >> k & 1) for k in range(pair_count(n)))

    def test_builders_keep_bits(self):
        rng = Xorshift64Star(59)
        for n in (1, 2, 5, 17, 40, 64, 200):
            orient = [rng.below(2) for _ in range(pair_count(n))]
            T = make_tournament(n, orient)
            assert T.orient == tuple(map(bool, orient))
            picked = [v for v in range(n) if rng.below(2)] or [0]
            for W in (range(0, n, 2), picked):
                S, labels = subtournament(T, W)
                assert labels == tuple(sorted(W))
                assert S.bit_string() == read_by_relation(T, labels)
                assert all(
                    S.relation(a, b) == T.relation(labels[a], labels[b])
                    for a in range(S.n)
                    for b in range(S.n)
                    if a != b
                )

    @pytest.mark.parametrize("n, bits", [(0, 0), (3, 1 << 3), (3, -1)])
    def test_rejects_bad_fields(self, n, bits):
        with pytest.raises(ValueError):
            Tournament(n, bits)

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
        # refused by Tournament, before a negative n's pair count is used
        for n in (0, -3):
            with pytest.raises(ValueError, match="at least one vertex"):
                transitive(n)


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

    @settings(max_examples=60, derandomize=True)
    @given(st.integers(1, 14), st.integers(min_value=0), st.integers(min_value=0))
    @example(1, 0, 0)
    @example(9, 2**36 - 1, 0)
    def test_flipped_masks_match_rebuild(self, n, bits, chosen):
        # invert and dual derive their rows by flipping the parent's; a
        # rebuild from the bits decodes them afresh
        T = Tournament(n, bits % (1 << pair_count(n)))
        arcs = [a for k, a in enumerate(T.arcs()) if chosen >> k & 1]
        for U in (invert(T, arcs), dual(T)):
            R = Tournament(U.n, U.bits)
            assert (U.n, U.bits, U.out_masks) == (R.n, R.bits, R.out_masks)


class TestVertexRange:
    @pytest.mark.parametrize(
        "x, y", [(0, 5), (5, 0), (0, 6), (6, 0), (-1, 0), (0, -1), (-1, 5), (1, 1)]
    )
    def test_outside_vertices_rejected(self, x, y):
        T = random_tournament(5, 1)
        with pytest.raises(ValueError):
            T.relation(x, y)
        with pytest.raises(ValueError):
            T.has_arc(x, y)
        with pytest.raises(ValueError):
            invert(T, [(x, y)])

    @pytest.mark.parametrize("mask", [-1, 1 << 5])
    def test_vertex_set_mask_outside_rejected(self, mask):
        with pytest.raises(ValueError, match="bits outside 0..4"):
            VertexSet(5, mask)

    @pytest.mark.parametrize("v", [-1, 5])
    def test_vertex_set_member_outside_rejected(self, v):
        with pytest.raises(ValueError, match=f"vertex {v} out of range 0..4"):
            VertexSet.from_members(5, [0, v])


class TestVertexSetKey:
    def test_orders_as_size_then_members(self):
        # up to 70 vertices, so masks span up to two 64-bit words
        rng = Xorshift64Star(24)
        for n in range(1, 71):
            full = (1 << n) - 1
            masks = [0, full, *(1 << v for v in range(n))]
            for _ in range(60):
                # sparse, even and dense masks, so that sizes both tie and differ
                draws = [(rng.next() << 64 | rng.next()) & full for _ in range(3)]
                masks += [draws[0] & draws[1] & draws[2], draws[0], draws[0] | draws[1] | draws[2]]
            sets = [VertexSet(n, m) for m in masks]
            assert sorted(sets, key=lambda s: s.key) == sorted(
                sets, key=lambda s: (len(s), s.members())
            )

    @staticmethod
    def byte_reversed_key(n, mask):
        # the order as one integer: the size above the mask with its bits
        # reversed, subtracted, so that the set holding the lowest vertex in
        # which two sets differ sorts first
        width = n // 8 + 1
        table = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))
        reversed_mask = int.from_bytes(mask.to_bytes(width, "little").translate(table), "big")
        return (mask.bit_count() << 8 * width) - reversed_mask

    def test_matches_the_byte_reversed_key(self):
        for n in range(9):
            masks = range(1 << n)
            assert sorted(masks, key=core._mask_key) == sorted(
                masks, key=lambda m: self.byte_reversed_key(n, m)
            )
        rng = Xorshift64Star(29)
        for n in (63, 64, 65, 200):
            masks = []
            for _ in range(300):
                draws = [sum(rng.next() << 64 * w for w in range(4)) % (1 << n) for _ in range(3)]
                masks += [draws[0] & draws[1] & draws[2], draws[0], draws[0] | draws[1] | draws[2]]
                # the same size and a long common prefix: move one member
                a, b = rng.below(n), rng.below(n)
                if draws[0] >> a & 1 and not draws[0] >> b & 1:
                    masks.append(draws[0] ^ (1 << a | 1 << b))
            assert sorted(masks, key=core._mask_key) == sorted(
                masks, key=lambda m: self.byte_reversed_key(n, m)
            )


class TestRepr:
    def test_tournament(self):
        assert repr(transitive(3)) == "Tournament(n=3, bits='111')"

    def test_vertex_set(self):
        assert repr(VertexSet(5, 0b101)) == "VertexSet(5, {0, 2})"


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

    def test_outside_vertex_rejected(self):
        T = transitive(4)
        with pytest.raises(ValueError):
            subtournament(T, {0, T.n})

    def test_commutes_with_dual(self):
        T = random_tournament(7, 11)
        for W in ({0, 2, 5}, {1, 3, 4, 6}, {2, 3}):
            a, _ = subtournament(dual(T), W)
            b, _ = subtournament(T, W)
            assert a == dual(b)


class TestRelabelAndSubstitute:
    def test_relabel_calls_vertex_v_perm_v(self):
        # 0 -> 1 -> 2 renamed 0:2, 1:0, 2:1 reads 2 -> 0 -> 1
        assert sorted(relabel(transitive(3), [2, 0, 1]).arcs()) == [(0, 1), (2, 0), (2, 1)]
        rng = Xorshift64Star(61)
        for n in (1, 2, 5, 9, 64, 200):
            T, p = random_bits_tournament(rng, n), random_perm(rng, n)
            R = relabel(T, p)
            pairs = itertools.permutations(range(n), 2)
            assert all(R.relation(p[u], p[v]) == T.relation(u, v) for u, v in pairs)
            # R's vertex k is T's vertex v with p[v] = k
            assert R.bit_string() == read_by_relation(T, sorted(range(n), key=p.__getitem__))

    @pytest.mark.parametrize("perm", [[0, 0, 1], [0, 1], [0, 1, 2, 3], [1, 2, 3], [-1, 0, 1]])
    def test_relabel_rejects_non_permutations(self, perm):
        with pytest.raises(ValueError):
            relabel(transitive(3), perm)

    def test_substitute_block_takes_labels_from_at(self, c3):
        inner = random_tournament(4, 3)
        for at in range(3):
            T = substitute(c3, inner, at)
            assert T.n == 6 and is_module(T, set(range(at, at + 4)))
            for i, j in itertools.permutations(range(6), 2):
                oi, oj = (v if v < at else max(at, v - 3) for v in (i, j))
                if oi == oj:
                    assert T.relation(i, j) == inner.relation(i - at, j - at)
                else:
                    assert T.relation(i, j) == c3.relation(oi, oj)
        assert substitute(c3, transitive(1), 1) == c3 and substitute(transitive(1), c3, 0) == c3

    @pytest.mark.parametrize("at", [-1, 3])
    def test_substitute_rejects_at_outside_outer(self, c3, at):
        with pytest.raises(ValueError):
            substitute(c3, transitive(2), at)


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
                assert canonical_form(relabel(T, p)) == base

    def test_bound_enforced(self):
        with pytest.raises(ValueError):
            canonical_form(transitive(10))

    def test_matches_permutation_scan_on_all_small_classes(self):
        rng = Xorshift64Star(5)
        for n in range(1, 7):
            for T in enumerate_tournaments(n):
                expected = brute_canonical(T)
                assert canonical_form(T) == expected
                assert canonical_form(relabel(T, random_perm(rng, n))) == expected

    @pytest.mark.parametrize("n", [7, 8])
    def test_matches_permutation_scan_on_relabelings(self, n):
        rng = Xorshift64Star(100 + n)
        T = random_bits_tournament(rng, n)
        expected = brute_canonical(T)
        for _ in range(20):
            assert canonical_form(relabel(T, random_perm(rng, n))) == expected

    def test_paley_tournament_matches_permutation_scan(self):
        T = paley7()
        expected = brute_canonical(T)
        rng = Xorshift64Star(7)
        for _ in range(10):
            assert canonical_form(relabel(T, random_perm(rng, 7))) == expected

    @pytest.mark.parametrize(
        "make",
        [
            cycle_of_cycles,
            lambda: random_bits_tournament(Xorshift64Star(9), 9),
            lambda: random_bits_tournament(Xorshift64Star(10), 9),
        ],
        ids=["cycle_of_cycles", "random9_seed9", "random9_seed10"],
    )
    def test_relabeling_invariance_at_bound(self, make):
        T = make()
        base = canonical_form(T)
        rng = Xorshift64Star(11)
        for _ in range(10):
            assert canonical_form(relabel(T, random_perm(rng, T.n))) == base


REPRESENTATIVE_DIGESTS = {
    1: "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    2: "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9",
    3: "cf13902bae18fdcb1aa6d32989d110d63ac60aea394ea7e3f6cd0cb458090495",
    4: "abe29de9fdfce7a7a82dd71e01fe7ccf79a36e96090a74fc14f563f11864c9f5",
    5: "c860fd3127668cc249786136390e1ce50062d24df12c11ed2b1ea4c4778a232a",
    6: "19b1706067fb0107b87f521fffbea03500e144ce276edcadcf7bf9d5d1432ece",
    7: "13400bec677a3bb07553b465cdb7ae1ea9ef6f5f654f3820cb4024eb74c7f3c3",
    8: "cda7ebc640161eb812fef4d217d5ca092e4aeea73481c811b186f2be4dfef4d1",
}


def extensions_by_rejection(n: int) -> list[tuple[int, ...]]:
    """Reference extension step: every one of the 2^(n-1) ways to join a
    new vertex n-1 to each (n-1)-vertex class, kept when the new vertex
    has the highest score; returns the kept out-neighbourhood lists."""
    old_vertices = (1 << (n - 1)) - 1
    kept = []
    for bits in core._enumerate_bits(n - 1):
        outs = core._from_bit_string(n - 1, bits).out_masks
        scores = [out.bit_count() for out in outs]
        for ext in range(1 << (n - 1)):
            # bit i of ext set: the arc (i, n-1); clear: the arc (n-1, i)
            new_score = n - 1 - ext.bit_count()
            if any(s + (ext >> i & 1) > new_score for i, s in enumerate(scores)):
                continue
            new_outs = [out | (ext >> i & 1) << (n - 1) for i, out in enumerate(outs)]
            new_outs.append(old_vertices ^ ext)
            kept.append(tuple(new_outs))
    return kept


class TestEnumeration:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_extensions_match_rejection_filter(self, n, monkeypatch):
        kept = extensions_by_rejection(n)
        forms = {core._read(outs, core._canonical_order(outs)) for outs in kept}
        made = record_calls(monkeypatch, core, "_canonical_order")
        assert core._extend((n, core._enumerate_bits(n - 1))) == forms
        # exactly the extensions the filter keeps, and no other, are made
        assert sorted(map(tuple, made)) == sorted(kept)
        assert core._enumerate_bits(n) == tuple(sorted(forms))

    def test_class_counts(self):
        assert [len(enumerate_tournaments(n)) for n in range(1, 6)] == [1, 1, 2, 4, 12]

    def test_seven_vertex_count(self):
        assert len(enumerate_tournaments(7)) == 456

    def test_grown_by_the_one_class_step(self, monkeypatch):
        core._enumerate_bits.cache_clear()
        calls = record_calls(monkeypatch, core, "_classes")
        assert len(enumerate_tournaments(5)) == 12
        assert calls == [2, 3, 4, 5]

    def test_representatives_are_canonical(self):
        for T in enumerate_tournaments(5):
            assert tuple(T.orient) == canonical_form(T)

    def test_orbit_sizes_cover_all_labeled_tournaments(self):
        # sum over classes of n!/|Aut| must equal 2^(n(n-1)/2)
        for n in (4, 5):
            total = 0
            for T in enumerate_tournaments(n):
                orbit = {relabel(T, p).bits for p in itertools.permutations(range(n))}
                total += len(orbit)
            assert total == 1 << pair_count(n)

    def test_bound_enforced(self):
        with pytest.raises(ValueError):
            enumerate_tournaments(10)

    def test_zero_vertices(self):
        with pytest.raises(ValueError):
            enumerate_tournaments(0)

    def test_class_counts_match_oeis(self):
        # OEIS A000568
        counts = [len(enumerate_tournaments(n)) for n in range(1, 9)]
        assert counts == [1, 1, 2, 4, 12, 56, 456, 6880]

    @pytest.mark.parametrize("n", sorted(REPRESENTATIVE_DIGESTS))
    def test_representatives_pinned(self, n):
        # sha256 of the representatives' bit strings, newline-joined in
        # enumeration order: pins both the forms and their order
        joined = "\n".join(T.bit_string() for T in enumerate_tournaments(n))
        assert hashlib.sha256(joined.encode()).hexdigest() == REPRESENTATIVE_DIGESTS[n]


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
            "tourn-v1\nn=\u0663\nbits=111",  # ARABIC-INDIC DIGIT THREE passes str.isdigit
            "tourn-v1\nn=3\nbits=11",
            "tourn-v1\nn=3\nbits=1a1",
            "tourn-v1\nn=3\nbit=111",
            "tourn-v1\nn=0\nbits=",
            "tourn-v1\nn=-1\nbits=",
            "n=3\nbits=111\ntourn-v1",
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            parse_tourn_v1(text)

    @NON_BINARY_BITS
    def test_rejects_bits_that_int_accepts(self, bits):
        assert int(bits[::-1], 2) >= 0
        with pytest.raises(ValueError, match="only '0' and '1'"):
            parse_tourn_v1(f"tourn-v1\nn=5\nbits={bits}\n")

    @settings(max_examples=300, derandomize=True)
    @given(
        st.text()
        | st.builds(
            "tourn-v1\nn={}\nbits={}{}".format,
            st.integers(-2, 12).map(str) | st.text("0123456789+- ", max_size=4),
            st.text("01", max_size=70),
            st.sampled_from(["", "\n", "\n\n", "\nbits="]),
        )
        | st.integers(1, 9).flatmap(
            lambda n: st.text("01", min_size=pair_count(n), max_size=pair_count(n)).map(
                lambda bits: f"tourn-v1\nn={n}\nbits={bits}\n"
            )
        )
    )
    def test_fuzzed_text_parses_or_raises_value_error(self, text):
        # untrusted input: a parsed tournament round-trips and certifies,
        # anything else ends in ValueError, never another exception
        try:
            T = parse_tourn_v1(text)
        except ValueError:
            return
        assert parse_tourn_v1(format_tourn_v1(T)) == T
        if T.n >= 5:
            assert verify_certificate(T, synthesize_certificate(T))
