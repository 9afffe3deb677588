import json

import pytest

from tourmod import (
    SweepReport,
    Xorshift64Star,
    brute_Delta,
    brute_delta,
    brute_modules,
    comodular_index,
    enumerate_tournaments,
    is_indecomposable,
    nontrivial_modules,
    report_to_json,
    sweep_verify,
    transitive,
)

from conftest import all_classes_up_to, composed_random


class TestBruteModules:
    def test_transitive_four_counts(self):
        mods = brute_modules(transitive(4))
        assert len(mods) == 11  # 6 trivial + 5 intervals
        assert sum(1 for m in mods if 2 <= len(m) < 4) == 5

    def test_prime_has_trivial_only(self, c3):
        assert [tuple(m) for m in brute_modules(c3)] == [
            (),
            (0,),
            (1,),
            (2,),
            (0, 1, 2),
        ]

    def test_matches_guided_enumeration(self):
        rng = Xorshift64Star(31)
        composed = [composed_random(rng, 6 + rng.below(11)) for _ in range(40)]
        for T in [*all_classes_up_to(6), *composed]:
            brute_nontrivial = [m for m in brute_modules(T) if 2 <= len(m) < T.n]
            assert [tuple(m) for m in brute_nontrivial] == [
                tuple(m) for m in nontrivial_modules(T)
            ]
            assert is_indecomposable(T) == (not brute_nontrivial)

    def test_bound(self):
        with pytest.raises(ValueError):
            brute_modules(transitive(17))


class TestBruteDelta:
    def test_transitive_seven(self):
        assert brute_Delta(transitive(7)) == 4

    def test_prime(self, c3):
        assert brute_Delta(c3) == 0

    def test_agrees_with_guided(self):
        for T in all_classes_up_to(6):
            assert brute_Delta(T) == comodular_index(T)

    def test_bound(self):
        with pytest.raises(ValueError):
            brute_Delta(transitive(13))


class TestBruteInversionCount:
    def test_transitive_five(self):
        assert brute_delta(transitive(5)) == 2

    def test_prime_input(self):
        T = next(T for T in enumerate_tournaments(5) if is_indecomposable(T))
        assert brute_delta(T) == 0

    def test_transitive_eight(self):
        assert brute_delta(transitive(8)) == 3

    def test_bounds(self):
        with pytest.raises(ValueError):
            brute_delta(transitive(4))
        with pytest.raises(ValueError):
            brute_delta(transitive(9))

    def test_half_index_lower_bound(self):
        for n in (5, 6):
            for T in enumerate_tournaments(n):
                assert brute_delta(T) >= (brute_Delta(T) + 1) // 2


class TestSweep:
    def test_small_sweep_values(self):
        reports = sweep_verify(5)
        assert [r.n for r in reports] == [3, 4, 5]
        assert [r.class_count for r in reports] == [2, 4, 12]
        assert [r.max_Delta for r in reports] == [2, 3, 3]
        assert [r.max_delta for r in reports] == [None, None, 2]
        assert all(r.violations == [] for r in reports)

    def test_bound(self):
        with pytest.raises(ValueError):
            sweep_verify(8)

    def test_report_json_fields(self):
        rep = SweepReport(n=5, class_count=12, max_Delta=3, max_delta=2, violations=[])
        record = json.loads(report_to_json(rep))
        assert list(record) == ["n", "class_count", "max_Delta", "max_delta", "violations"]
        assert record["max_delta"] == 2

    def test_parallel_matches_serial(self):
        assert sweep_verify(4, jobs=2) == sweep_verify(4)
