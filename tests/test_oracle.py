import gc
import json
import multiprocessing
import os
import sys
import time
import weakref

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
    random_tournament,
    report_to_json,
    sweep_verify,
    transitive,
)
from tourmod import comodular, core, inversion, modular, oracle

from conftest import (
    all_classes_up_to,
    composed_random,
    first_indecomposable,
    module_family_by_subsets,
    record_calls,
    relabelled_chain,
)


class TestModuleFamily:
    def test_matches_subset_scan_through_eight(self):
        for T in all_classes_up_to(8):
            assert oracle._module_family(T) == module_family_by_subsets(T)

    def test_matches_subset_scan_at_sixteen(self):
        rng = Xorshift64Star(1601)
        inputs = [random_tournament(16, rng.next()) for _ in range(10)]
        inputs += [composed_random(rng, 16) for _ in range(10)]
        inputs += [relabelled_chain(16, seed) for seed in range(10)]
        for T in inputs:
            assert oracle._module_family(T) == module_family_by_subsets(T)


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
        assert brute_Delta(transitive(16)) == 9
        with pytest.raises(ValueError):
            brute_Delta(transitive(17))


class TestBruteInversionCount:
    def test_transitive_five(self):
        assert brute_delta(transitive(5)) == 2

    def test_prime_input(self):
        assert brute_delta(first_indecomposable(5)) == 0

    def test_transitive_eight(self):
        assert brute_delta(transitive(8)) == 3

    def test_search_capped_at_the_paper_bound(self, monkeypatch):
        assert brute_delta(relabelled_chain(9, 1)) == inversion._expected_max_inversions(9) == 3
        lower = lambda n: inversion._expected_max_inversions(n) - 1
        monkeypatch.setattr(oracle, "_expected_max_inversions", lower)
        with pytest.raises(RuntimeError, match="search cap exceeded"):
            brute_delta(relabelled_chain(9, 1))

    def test_bounds(self, monkeypatch):
        with pytest.raises(ValueError):
            brute_delta(transitive(4))
        assert brute_delta(transitive(16)) == 5

        def refuse(T):
            raise AssertionError("brute_delta worked past its bound")

        monkeypatch.setattr(oracle, "_module_family", refuse)
        monkeypatch.setattr(oracle, "_has_vertex", refuse)
        for brute in (brute_modules, brute_Delta, brute_delta):
            with pytest.raises(ValueError, match="limited to n <= 16"):
                brute(transitive(17))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_sixteen_vertex_chain_in_under_a_second(self, seed):
        T = relabelled_chain(16, seed)
        start = time.perf_counter()
        assert brute_delta(T) == 5
        assert time.perf_counter() - start < 1.0

    def test_agrees_past_eight_vertices(self):
        # seeded inputs of 9-16 vertices, beyond the exhaustive sweep
        rng = Xorshift64Star(911)
        inputs = [composed_random(rng, 9 + rng.below(8)) for _ in range(92)]
        inputs += [relabelled_chain(n, n) for n in range(9, 17)]
        for T in inputs:
            index = comodular_index(T)
            assert brute_Delta(T) == index
            assert brute_delta(T) == (index + 1) // 2

    def test_exact_when_crossing_is_not_enough(self, monkeypatch):
        # given only the smallest co-module, the search soon crosses all it
        # knows and must branch on modules of the reversed tournament
        expected = [(T, (comodular_index(T) + 1) // 2) for T in all_classes_up_to(6) if T.n >= 5]
        expected.append((transitive(8), 3))
        scan = oracle._brute_comodule_masks
        monkeypatch.setattr(oracle, "_brute_comodule_masks", lambda T: scan(T)[:1])
        for T, delta in expected:
            assert brute_delta(T) == delta

    def test_independent_of_guided_analysis(self, monkeypatch):
        inputs = [*enumerate_tournaments(6), relabelled_chain(12, 5)]
        expected = [(T, (comodular_index(T) + 1) // 2) for T in inputs]

        def refuse(T):
            raise AssertionError("brute_delta must not use the guided analysis")

        # refuse the tree, the record, its accessor and the guided queries
        # in every module that binds them, so that a record kept on T
        # cannot be read either
        guided = {
            "_tree": modular,
            "_Analysis": modular,
            "_analysis": modular,
            "comodular_index": comodular,
            "is_indecomposable": modular,
            "minimal_nontrivial_modules": modular,
        }
        bound = [
            (module, attr)
            for name, module in sys.modules.items()
            if name.startswith("tourmod")
            for attr, owner in guided.items()
            if getattr(module, attr, None) is getattr(owner, attr)
        ]
        assert {attr for _, attr in bound} == set(guided)
        assert {comodular, inversion, modular, oracle} <= {module for module, _ in bound}
        for module, attr in bound:
            monkeypatch.setattr(module, attr, refuse)
        for T, delta in expected:
            assert brute_delta(T) == delta

    def test_scan_goes_with_its_tournament(self):
        # the co-module scan is kept on T, not in a cache keyed on its value
        # that would keep T and its guided record alive, and the searches
        # leave no reference cycle: reference counting alone frees T
        gc.disable()
        try:
            T = relabelled_chain(8, 3)
            comodular_index(T)
            brute_Delta(T)
            brute_delta(T)
            alive = weakref.ref(T)
            del T
            assert alive() is None
        finally:
            gc.enable()

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
            sweep_verify(10)

    @pytest.mark.parametrize("max_n", [2, 0, -5])
    def test_max_n_below_three_rejected(self, max_n):
        # a sweep over no size would report nothing and read as a pass
        with pytest.raises(ValueError):
            sweep_verify(max_n)

    def test_report_json_fields(self):
        rep = SweepReport(n=5, class_count=12, max_Delta=3, max_delta=2, violations=[])
        record = json.loads(report_to_json(rep))
        assert list(record) == ["n", "class_count", "max_Delta", "max_delta", "violations"]
        assert record["max_delta"] == 2

    @pytest.mark.parametrize(
        "n, max_Delta, max_delta, violations, ok",
        [
            (5, 3, 2, [], True),
            (5, 3, 2, ["1111111111"], False),
            (5, 4, 2, [], False),
            (5, 3, 3, [], False),
            (4, 3, None, [], True),
        ],
        ids=["paper", "violation", "Delta-off", "delta-off", "no-delta-below-five"],
    )
    def test_report_judges_its_size(self, n, max_Delta, max_delta, violations, ok):
        rep = SweepReport(n, 12, max_Delta, max_delta, violations)
        assert rep.ok is ok

    def test_parallel_matches_serial(self):
        assert sweep_verify(4, jobs=2) == sweep_verify(4)

    def test_jobs_below_one_rejected(self):
        with pytest.raises(ValueError):
            sweep_verify(5, jobs=0)

    def test_one_pool_capped_at_cpu_count(self, monkeypatch):
        pools, mapped = [], []

        class FakePool:
            # records its size and maps in process: no worker is started
            def __init__(self, processes):
                pools.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                mapped.append(fn)
                return [fn(t) for t in tasks]

        # sweep_verify imports Pool from multiprocessing when it needs one
        monkeypatch.setattr(multiprocessing, "Pool", FakePool)
        assert sweep_verify(5, jobs=1) == sweep_verify(5, jobs=10**6)
        assert len(pools) == 1 and 1 <= pools[0] <= (os.cpu_count() or 1)
        # each size is enumerated in the pool, then checked there
        assert mapped == [core._extend, oracle._check_class] * 3

    def test_enumerates_through_the_one_class_step(self, monkeypatch):
        assert oracle._classes is core._classes
        calls = record_calls(monkeypatch, oracle, "_classes")
        assert [r.class_count for r in sweep_verify(5)] == [2, 4, 12]
        assert calls == [3, 4, 5]

    def test_inversion_count_checked_against_decomposability_index(self, monkeypatch):
        calls = record_calls(monkeypatch, oracle, "decomposability_index")
        assert sweep_verify(5)[-1].violations == []
        # once per class from five vertices up: the 12 classes on 5
        assert [T.n for T in calls] == [5] * 12

    def test_one_packing_per_class(self, monkeypatch):
        # one scan of T itself; the other scans are of reversed states
        calls = record_calls(monkeypatch, oracle, "_module_family")
        for T in enumerate_tournaments(6):
            calls.clear()
            assert oracle._check_class((6, T.bit_string()))[3]
            assert calls.count(T) == 1
