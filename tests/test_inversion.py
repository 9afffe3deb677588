import json
import sys
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tourmod import (
    Arc,
    CoModularDecomposition,
    CoModule,
    InversionCertificate,
    Tournament,
    VertexSet,
    Xorshift64Star,
    brute_delta,
    certificate_from_json,
    certificate_to_json,
    comodular_index,
    decomposability_index,
    delta_decomposition,
    dual,
    enumerate_tournaments,
    erdos_transitive_extension,
    feasible_single_arcs,
    format_tourn_v1,
    invert,
    is_indecomposable,
    make_tournament,
    minimal_comodules,
    nontrivial_modules,
    pair_count,
    random_tournament,
    reduction_arc_high,
    reduction_arc_three,
    reduction_arc_two,
    structured_delta_decomposition,
    substitute,
    synthesize_certificate,
    tilde,
    transitive,
    verify_certificate,
)
from tourmod import comodular, inversion, modular
from tourmod.cli import main

from conftest import (
    NON_BINARY_BITS,
    all_classes_up_to,
    ceil_half,
    checked_extension,
    composed_random,
    doubled,
    first_indecomposable,
    nested_substitution,
    record_calls,
    relabelled_chain,
)


class TestDecomposabilityIndex:
    def test_transitive_closed_form(self):
        for n in range(5, 13):
            assert decomposability_index(transitive(n)) == -(-(n + 1) // 4)

    def test_prime_is_zero(self):
        assert decomposability_index(first_indecomposable(5)) == 0

    def test_random_agrees_with_search_oracle(self):
        T = random_tournament(7, 3)
        assert decomposability_index(T) == brute_delta(T)

    def test_small_tournaments_rejected(self):
        for n in (3, 4):
            with pytest.raises(ValueError):
                decomposability_index(transitive(n))

    def test_extremal_values_closed_forms(self):
        # Delta(n) = ceil((n+1)/2), and delta(n) = ceil((n+1)/4) is its half rounded up
        for n in range(1, 300):
            assert inversion._expected_max_index(n) == -(-(n + 1) // 2)
            assert inversion._expected_max_inversions(n) == -(-(n + 1) // 4)

    def test_dual_invariant(self):
        for n in (5, 6):
            for T in enumerate_tournaments(n):
                assert decomposability_index(T) == decomposability_index(dual(T))


class TestReductions:
    def test_high_on_transitive_six(self):
        T = transitive(6)
        arc = reduction_arc_high(T, structured_delta_decomposition(T))
        assert arc == Arc(0, 3)
        assert comodular_index(invert(T, [arc])) == 2

    def test_high_on_transitive_eight_and_nine(self):
        for n in (8, 9):
            T = transitive(n)
            arc = reduction_arc_high(T, structured_delta_decomposition(T))
            assert comodular_index(invert(T, [arc])) == comodular_index(T) - 2

    def test_high_preserves_untouched_minimal_comodules(self):
        # the minimal co-modules of the new tournament all come from the
        # old ones minus the two labelled parts
        for T in all_classes_up_to(7):
            if comodular_index(T) < 4:
                continue
            D = structured_delta_decomposition(T)
            _, labels = D
            arc = reduction_arc_high(T, D)
            new_mc = {c.members.mask for c in minimal_comodules(invert(T, [arc]))}
            old_mc = {c.members.mask for c in minimal_comodules(T)}
            removed = {labels["M1"].members.mask, labels["M3"].members.mask}
            assert new_mc <= old_mc - removed

    def test_three_on_transitive_five(self):
        T = transitive(5)
        arc = reduction_arc_three(T, structured_delta_decomposition(T))
        assert arc == Arc(0, 4)
        assert comodular_index(invert(T, [arc])) == 2

    def test_three_endpoints_in_distinct_parts(self):
        for T in all_classes_up_to(6):
            if T.n < 5 or comodular_index(T) != 3:
                continue
            D = structured_delta_decomposition(T)
            arc = reduction_arc_three(T, D)
            holders = [
                p for p in D[0].parts if {arc.tail, arc.head} & set(p.members)
            ]
            assert len(holders) == 2

    def test_three_succeeds_on_duals(self):
        for T in all_classes_up_to(6):
            if T.n < 5 or comodular_index(T) != 3:
                continue
            U = dual(T)
            arc = reduction_arc_three(U, structured_delta_decomposition(U))
            assert comodular_index(invert(U, [arc])) == 2

    def test_two_on_the_five_chain_pipeline_state(self):
        T = invert(transitive(5), [(0, 4)])
        assert comodular_index(T) == 2
        arc = reduction_arc_two(T, structured_delta_decomposition(T))
        assert is_indecomposable(invert(T, [arc]))

    def test_two_exhaustive(self):
        for T in all_classes_up_to(6):
            if T.n < 5 or comodular_index(T) != 2:
                continue
            D = structured_delta_decomposition(T)
            arc = reduction_arc_two(T, D)
            assert is_indecomposable(invert(T, [arc]))
            _, labels = D
            amask = (1 << arc.tail) | (1 << arc.head)
            for role in ("M", "N"):
                assert amask & labels[role].members.mask
                assert amask & tilde(T, labels[role]).mask

    def test_failed_high_check_names_input(self, monkeypatch):
        T = transitive(6)
        D = structured_delta_decomposition(T)
        monkeypatch.setattr(inversion, "invert", lambda U, arcs: U)
        with pytest.raises(RuntimeError, match=f"n=6 bits={T.bit_string()}"):
            reduction_arc_high(T, D)

    def test_failed_three_check_names_input(self, monkeypatch):
        T = transitive(5)
        D = structured_delta_decomposition(T)
        monkeypatch.setattr(inversion, "invert", lambda U, arcs: U)
        with pytest.raises(RuntimeError, match=f"n=5 bits={T.bit_string()}"):
            reduction_arc_three(T, D)

    def test_three_without_pattern_names_input(self, monkeypatch):
        T = transitive(5)
        D = structured_delta_decomposition(T)
        position_of = modular._analysis(T).position_of
        # index 3, but every distinguished subset is empty: no x -> z -> y
        monkeypatch.setattr(
            inversion,
            "_analysis",
            lambda U: SimpleNamespace(index=3, position_of=position_of, tilde=lambda p: 0),
        )
        with pytest.raises(RuntimeError, match=f"three-part.* n=5 bits={T.bit_string()}"):
            reduction_arc_three(T, D)

    def test_failed_two_check_names_input(self, monkeypatch):
        T = invert(transitive(5), [(0, 4)])
        D = structured_delta_decomposition(T)
        real = modular._analysis
        # every candidate's record reports index 2, as if still decomposable
        faulty = lambda U: real(U) if U is T else SimpleNamespace(index=2)
        monkeypatch.setattr(inversion, "_analysis", faulty)
        with pytest.raises(RuntimeError, match=f"n=5 bits={T.bit_string()}"):
            reduction_arc_two(T, D)

    def test_public_reductions_take_synthesis_arcs(self):
        # synthesis and the public reductions share one step, so at every
        # state of a certificate the public reduction for its index returns
        # the arc that synthesis took there
        inputs = [relabelled_chain(n, n) for n in range(5, 20)]
        rng = Xorshift64Star(19)
        inputs += [composed_random(rng, 5 + rng.below(36)) for _ in range(40)]
        public = {2: reduction_arc_two, 3: reduction_arc_three}
        seen = set()
        for T in inputs:
            cert = synthesize_certificate(T)
            state = T
            for index, arc in zip(cert.trace, cert.arcs):
                reduce = public.get(index, reduction_arc_high)
                assert reduce(state, structured_delta_decomposition(state)) == arc, T
                seen.add(reduce)
                state = invert(state, [arc])
        assert seen == {reduction_arc_high, reduction_arc_three, reduction_arc_two}

    def test_wrong_index_rejected(self):
        T = transitive(6)
        D = structured_delta_decomposition(T)
        with pytest.raises(ValueError):
            reduction_arc_three(T, D)
        with pytest.raises(ValueError):
            reduction_arc_two(T, D)
        U = transitive(5)  # index 3
        with pytest.raises(ValueError):
            reduction_arc_high(U, structured_delta_decomposition(U))


class TestSynthesize:
    def test_five_chain(self):
        T = transitive(5)
        cert = synthesize_certificate(T)
        assert len(cert.arcs) == 2
        assert is_indecomposable(cert.final)

    def test_prime_input_gives_empty_certificate(self):
        T = first_indecomposable(5)
        cert = synthesize_certificate(T)
        assert cert.arcs == () and cert.trace == () and cert.final == T

    def test_nine_chain_trace(self):
        cert = synthesize_certificate(transitive(9))
        assert len(cert.arcs) == 3
        assert list(cert.trace) == [5, 3, 2]

    def test_trace_steps_drop_by_two_above_three(self):
        for n in (8, 10, 12):
            cert = synthesize_certificate(transitive(n))
            tr = list(cert.trace)
            for a, b in zip(tr, tr[1:]):
                if a >= 4:
                    assert b == a - 2

    def test_length_matches_index_exhaustive(self):
        for n in (5, 6):
            for T in enumerate_tournaments(n):
                cert = synthesize_certificate(T)
                assert len(cert.arcs) == ceil_half(comodular_index(T))
                assert verify_certificate(T, cert)

    def test_length_matches_search_oracle(self):
        for n in (5, 6):
            for T in enumerate_tournaments(n):
                assert len(synthesize_certificate(T).arcs) == brute_delta(T)

    def test_small_tournaments_rejected(self):
        with pytest.raises(ValueError):
            synthesize_certificate(transitive(4))

    def test_long_chain(self):
        T = transitive(64)
        cert = synthesize_certificate(T)
        assert len(cert.arcs) == 17
        assert verify_certificate(T, cert)

    @pytest.mark.parametrize(
        "T",
        [transitive(9), relabelled_chain(15, 3), composed_random(Xorshift64Star(1), 14)]
        + [first_indecomposable(6)],
        ids=["chain-9", "relabelled-chain-15", "composed-14", "prime-6"],
    )
    def test_one_analysis_per_state(self, T, monkeypatch):
        # no state is analysed twice, a planned state not at all, and
        # verification reads the records of the input and the final state;
        # a fresh object, since building an input may already analyse it
        # (first_indecomposable asks is_indecomposable)
        T = Tournament(T.n, T.bits)
        analysed = record_calls(monkeypatch, modular, "_tree")
        cert = synthesize_certificate(T)
        assert verify_certificate(T, cert)
        states = [T]
        for arc in cert.arcs:
            states.append(invert(states[-1], [arc]))
        # the index falls, so no two states are equal
        assert len(set(analysed)) == len(analysed) and set(analysed) <= set(states)
        assert analysed[0] is T and analysed[-1] is cert.final

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_states_stay_on_masks(self, seed, monkeypatch):
        # each reversal derives the next state's rows from its parent's,
        # and the index and the steps read masks: no bit string is decoded
        # and no public object is built on the way to a certificate
        T = relabelled_chain(17, seed)
        watched = [(Tournament, "__post_init__")]
        watched += [(cls, "__init__") for cls in (VertexSet, CoModule, CoModularDecomposition)]
        built = {cls.__name__: record_calls(monkeypatch, cls, name) for cls, name in watched}
        cert = synthesize_certificate(T)
        assert verify_certificate(T, cert)
        assert comodular_index(T) == 9
        assert len(cert.arcs) == 5
        assert built == dict.fromkeys(built, [])


def twins_800() -> Tournament:
    return doubled(random_tournament(400, 7))


def record_path(T):
    """The arcs that labelling every state's own record gives: the public
    reduction for each state's index, on its structured decomposition."""
    arcs, state = [], T
    while (index := comodular_index(state)) >= 2:
        reduce = {2: reduction_arc_two, 3: reduction_arc_three}.get(index, reduction_arc_high)
        arcs.append(reduce(state, structured_delta_decomposition(state)))
        state = invert(state, arcs[-1:])
    return tuple(arcs)


def substituted_chain() -> Tournament:
    """A 6-chain with random blocks of 4 and 5 vertices substituted: its
    state at index 4 labels its record's second decomposition."""
    return substitute(substitute(transitive(6), random_tournament(4, 7), 0), random_tournament(5, 3), 3)


def plan_corpus():
    """The certificate inputs of the suite that reach planned states."""
    yield substituted_chain()
    for n in range(5, 62):
        for seed in range(1, 6):
            yield relabelled_chain(n, seed)
    rng = Xorshift64Star(29)
    for _ in range(200):
        yield composed_random(rng, 6 + rng.below(35))
    nested = (nested_substitution(rng) for _ in range(100))
    yield from (T for T in nested if T.n >= 5)
    yield from (T for T in all_classes_up_to(7) if T.n >= 5)


class TestPlan:
    """A high step derives the next state's record from its own and hands
    it back (``inversion._reduce``), so no tree is built for the state it
    reaches."""

    @pytest.mark.parametrize(
        "make, trees",
        [(lambda: transitive(400), 3), (twins_800, 2)],
        ids=["chain-400", "twins-800"],
    )
    def test_tree_counts(self, make, trees, monkeypatch):
        # the input, the state an index-3 step reaches (the chain's index
        # is odd) and the final state
        T = make()
        analysed = record_calls(monkeypatch, modular, "_tree")
        cert = synthesize_certificate(T)
        assert len(analysed) == trees
        assert analysed[0] is T and analysed[-1] is cert.final
        assert verify_certificate(T, cert)

    def test_failed_first_labelling_walks_on(self, monkeypatch):
        # the state at 4 has no labelling on its first decomposition, so
        # its derived record labels its second, and the 4 -> 2 step
        # derives again
        T = relabelled_chain(15, 1)
        analysed = record_calls(monkeypatch, modular, "_tree")
        cert = synthesize_certificate(T)
        assert cert.trace == (8, 6, 4, 2)
        assert analysed == [T, cert.final]
        assert cert.arcs == record_path(relabelled_chain(15, 1))

    def test_survivor_with_two_overlaps_walks_on(self, monkeypatch):
        # at 5 -> 3 one survivor keeps two overlaps, so it has no tilde and
        # the derived record picks another decomposition; the state that
        # the index-3 step reaches is checked, so it has a tree
        T = relabelled_chain(17, 1)
        analysed = record_calls(monkeypatch, modular, "_tree")
        cert = synthesize_certificate(T)
        assert cert.trace == (9, 7, 5, 3, 2)
        assert analysed == [T, invert(T, cert.arcs[:4]), cert.final]
        assert cert.arcs == record_path(relabelled_chain(17, 1))

    def test_later_pick_walks_on(self, monkeypatch):
        # the state at 4 labels its second decomposition, which differs
        # from the first on a walk the 4 -> 2 arc leaves alone, so the
        # survivors are not the first decomposition of the state at 2;
        # its derived record walks its decompositions all the same
        T = substituted_chain()
        analysed = record_calls(monkeypatch, modular, "_tree")
        cert = synthesize_certificate(T)
        assert cert.trace == (6, 4, 2)
        assert analysed == [T, cert.final]
        assert cert.arcs == record_path(substituted_chain())

    def test_planned_states_build_no_tree(self, monkeypatch):
        # a state that a high step reaches reads the record derived from
        # the step, which is never stored on it; a low step hands back the
        # record its check stored
        real = inversion._reduce
        planned = []
        checked = 0

        def reduce(T, view, D):
            nonlocal checked
            arc, after, record = real(T, view, D)
            if view.index >= 4:
                planned.append(after)
            else:
                assert record is modular._analysis(after)
                checked += 1
            return arc, after, record

        monkeypatch.setattr(inversion, "_reduce", reduce)
        analysed = record_calls(monkeypatch, modular, "_tree")
        for T in plan_corpus():
            synthesize_certificate(T)
        assert planned and checked
        analysed = set(map(id, analysed))
        assert not any(id(S) in analysed or "_analysis" in vars(S) for S in planned)

    def test_plans_equal_records(self, monkeypatch):
        # every derived record is compared with the record of a fresh
        # copy of its state; the two number mc apart, so positions are
        # compared through their sets
        real = modular._Analysis.without
        compared = 0

        def sets(record, positions):
            return [record.masks[i] for i in positions]

        def checked(A, out, gone):
            nonlocal compared
            plan = real(A, out, gone)
            n = len(out)
            state = make_tournament(n, [out[i] >> j & 1 for i in range(n) for j in range(i + 1, n)])
            fresh = modular._analysis(state)
            assert plan.masks is A.masks and plan.kinds is A.kinds
            assert plan.out == fresh.out
            # a derived record's mc is its singles and the positions on its paths
            live = sorted(plan.singles + [i for p in plan.paths for i in p])
            assert sets(plan, live) == fresh.masks
            assert [plan.kinds[i] for i in live] == fresh.kinds
            assert [sets(plan, plan.near[i]) for i in live] == [
                sets(fresh, near) for near in fresh.near
            ]
            assert plan.index == fresh.index
            assert sets(plan, plan.singles) == sets(fresh, fresh.singles)
            # each path as a set, as a path may run either way
            assert [set(sets(plan, p)) for p in plan.paths] == [
                set(sets(fresh, p)) for p in fresh.paths
            ]
            assert [sets(plan, d) for d in plan.decompositions()] == [
                sets(fresh, d) for d in fresh.decompositions()
            ]
            (parts, labels), (own_parts, own_labels) = (
                comodular._structured(plan),
                comodular._structured(fresh),
            )
            assert sets(plan, parts) == sets(fresh, own_parts)
            assert list(labels) == list(own_labels)
            assert sets(plan, labels.values()) == sets(fresh, own_labels.values())
            compared += 1
            return plan

        monkeypatch.setattr(modular._Analysis, "without", checked)
        for T in plan_corpus():
            synthesize_certificate(T)
        assert compared


class TestVerify:
    def test_accepts_synthesised(self):
        T = transitive(7)
        assert verify_certificate(T, synthesize_certificate(T))

    def test_parsed_decomposable_final_rejected(self, monkeypatch):
        # a certificate read from JSON brings fresh objects, so the final
        # state's record is built during verification, not taken on trust
        T = transitive(5)
        cert = synthesize_certificate(T)
        partial = invert(T, [cert.arcs[0]])
        line = certificate_to_json(InversionCertificate(T, cert.arcs[:1], cert.trace[:1], partial))
        parsed = certificate_from_json(line)
        analysed = record_calls(monkeypatch, modular, "_tree")
        res = verify_certificate(parsed.base, parsed)
        assert not res and res.reason == "final decomposable"
        assert analysed == [partial] and analysed[0] is parsed.final

    def test_base_mismatch(self):
        T = transitive(5)
        cert = synthesize_certificate(T)
        res = verify_certificate(transitive(6), cert)
        assert not res and res.reason == "base mismatch"

    def test_missing_arc_detected(self):
        T = transitive(5)
        cert = synthesize_certificate(T)
        partial = invert(T, [cert.arcs[0]])
        clipped = InversionCertificate(T, cert.arcs[:1], cert.trace[:1], partial)
        res = verify_certificate(T, clipped)
        assert not res and res.reason in ("final decomposable", "length mismatch")
        assert res.reason == "final decomposable"

    def test_stale_final_detected(self):
        T = transitive(5)
        cert = synthesize_certificate(T)
        res = verify_certificate(
            T, InversionCertificate(T, cert.arcs[:1], cert.trace[:1], cert.final)
        )
        assert not res and res.reason == "final mismatch"

    def test_non_arc_pair(self):
        T = transitive(5)
        cert = synthesize_certificate(T)
        bad = InversionCertificate(T, (Arc(1, 0),) + cert.arcs[1:], cert.trace, cert.final)
        res = verify_certificate(T, bad)
        assert not res and res.reason == "arc absent"

    def test_length_mismatch(self):
        # reversing an arc of the final state and then its reverse replays
        # to the same prime state, with two arcs more than the minimum
        T = transitive(9)
        cert = synthesize_certificate(T)
        x, y = next(iter(cert.final.arcs()))
        padded = cert.arcs + (Arc(x, y), Arc(y, x))
        res = verify_certificate(T, InversionCertificate(T, padded, cert.trace, cert.final))
        assert not res and res.reason == "length mismatch"

    @pytest.mark.parametrize("trace", [(), (1, 2, 3), (99,), (6, 3, 2)])
    def test_trace_mismatch(self, trace):
        T = transitive(9)
        cert = synthesize_certificate(T)
        res = verify_certificate(T, InversionCertificate(T, cert.arcs, trace, cert.final))
        assert not res and res.reason == "trace mismatch"

    def test_truthful_trace_accepted(self):
        T = transitive(9)
        cert = synthesize_certificate(T)
        assert verify_certificate(T, InversionCertificate(T, cert.arcs, (5, 3, 2), cert.final))


class TestFeasibleArcs:
    def test_consistency_with_definition(self):
        for T in all_classes_up_to(6):
            if T.n < 5:
                continue
            feas = set(feasible_single_arcs(T))
            for a in T.arcs():
                assert (a in feas) == is_indecomposable(invert(T, [a]))

    def test_prime_test_agrees_with_the_record(self):
        rng = Xorshift64Star(11)
        inputs = [
            *all_classes_up_to(7),
            relabelled_chain(12, 3),
            random_tournament(24, 5),
            *(composed_random(rng, n) for n in (9, 16, 24, 33, 40)),
        ]
        for T in inputs:
            assert inversion._is_prime(T) == is_indecomposable(T)

    def test_independent_of_guided_analysis(self, monkeypatch):
        inputs = [
            *enumerate_tournaments(6),
            relabelled_chain(12, 5),
            substitute(random_tournament(18, 1), random_tournament(7, 2), 0),
        ]
        expected = [
            (T, [a for a in T.arcs() if is_indecomposable(invert(T, [a]))]) for T in inputs
        ]

        def refuse(*args):
            raise AssertionError("feasible_single_arcs must not use the guided analysis")

        # refuse the tree, its refinement, the record, its accessor and the
        # guided primality test in every module that binds them
        guided = {
            "_tree": modular,
            "_modular_partition_avoiding": modular,
            "_Analysis": modular,
            "_analysis": modular,
            "is_indecomposable": modular,
        }
        bound = [
            (module, attr)
            for name, module in sys.modules.items()
            if name.startswith("tourmod")
            for attr, owner in guided.items()
            if getattr(module, attr, None) is getattr(owner, attr)
        ]
        assert {attr for _, attr in bound} == set(guided)
        assert {comodular, inversion, modular} <= {module for module, _ in bound}
        for module, attr in bound:
            monkeypatch.setattr(module, attr, refuse)
        for T, arcs in expected:
            assert feasible_single_arcs(T) == arcs

    def test_nonempty_iff_one_reversal_suffices(self):
        # for decomposable inputs; a prime tournament may stay prime under
        # a reversal, so only per-arc consistency applies there
        for T in all_classes_up_to(6):
            if T.n < 5 or is_indecomposable(T):
                continue
            assert bool(feasible_single_arcs(T)) == (decomposability_index(T) == 1)

    def test_two_part_instances_hit_both_tilde_sets(self):
        for T in all_classes_up_to(6):
            if T.n < 5 or comodular_index(T) != 2:
                continue
            _, labels = structured_delta_decomposition(T)
            m_t = tilde(T, labels["M"]).mask
            n_t = tilde(T, labels["N"]).mask
            for a in feasible_single_arcs(T):
                amask = (1 << a.tail) | (1 << a.head)
                assert amask & m_t and amask & n_t

    def test_high_index_has_none(self):
        assert feasible_single_arcs(transitive(6)) == []

    def test_parts_must_be_touched(self):
        # an arc avoiding some part of a maximum decomposition never works
        for T in all_classes_up_to(6):
            if T.n < 5 or is_indecomposable(T):
                continue
            parts = [p.members.mask for p in delta_decomposition(T).parts]
            for a in feasible_single_arcs(T):
                amask = (1 << a.tail) | (1 << a.head)
                assert all(amask & p for p in parts)

    def test_small_tournaments_rejected(self):
        with pytest.raises(ValueError):
            feasible_single_arcs(transitive(4))


class TestCertificateJson:
    GOOD = {
        "n": 5,
        "base_bits": "1111111111",
        "arcs": [[0, 4], [0, 2]],
        "trace": [3, 2],
        "final_bits": "1010111111",
    }

    def test_golden_five_chain(self):
        cert = synthesize_certificate(transitive(5))
        assert json.loads(certificate_to_json(cert)) == self.GOOD

    def test_roundtrip(self):
        for n in (5, 8):
            cert = synthesize_certificate(transitive(n))
            back = certificate_from_json(certificate_to_json(cert))
            assert back == cert

    def test_field_order_stable(self):
        line = certificate_to_json(synthesize_certificate(transitive(5)))
        assert line.index('"n"') < line.index('"base_bits"') < line.index('"arcs"')
        assert line.index('"arcs"') < line.index('"trace"') < line.index('"final_bits"')

    @pytest.mark.parametrize(
        "line",
        [
            "not json",
            "{}",
            "[1, 2]",
            '"text"',
            json.dumps({k: v for k, v in GOOD.items() if k != "arcs"}),
            json.dumps(dict(GOOD, n="5")),
            json.dumps(dict(GOOD, n=True)),
            json.dumps(dict(GOOD, n=0)),
            json.dumps(dict(GOOD, n=6)),
            json.dumps(dict(GOOD, final_bits="11111111x1")),
            json.dumps(dict(GOOD, base_bits=None)),
            json.dumps(dict(GOOD, arcs=[[0]])),
            json.dumps(dict(GOOD, arcs=[[0, "4"]])),
            json.dumps(dict(GOOD, arcs=[[0, 4.0]])),
            json.dumps(dict(GOOD, arcs="04")),
            json.dumps(dict(GOOD, trace=["3"])),
            json.dumps(dict(GOOD, trace=3)),
            json.dumps(dict(GOOD, base_bits="111111111")),
            pytest.param("[" * 100000, id="nested-too-deep"),
        ],
    )
    def test_malformed_rejected(self, line):
        with pytest.raises(ValueError):
            certificate_from_json(line)

    @NON_BINARY_BITS
    @pytest.mark.parametrize("field", ["base_bits", "final_bits"])
    def test_rejects_bits_that_int_accepts(self, bits, field):
        assert int(bits[::-1], 2) >= 0
        with pytest.raises(ValueError, match="only '0' and '1'"):
            certificate_from_json(json.dumps(dict(self.GOOD, **{field: bits})))

    def test_good_literal_parses(self):
        cert = certificate_from_json(json.dumps(self.GOOD))
        assert cert == synthesize_certificate(transitive(5))

    @settings(max_examples=300, derandomize=True)
    @given(st.data())
    def test_fuzzed_records_parse_or_raise_value_error(self, data):
        # untrusted input: any JSON object with the five fields either
        # parses and then verifies to a verdict, or ends in ValueError
        json_values = st.recursive(
            st.none() | st.booleans() | st.integers() | st.text(max_size=6)
            | st.floats(allow_nan=False, allow_infinity=False),
            lambda kids: st.lists(kids, max_size=3)
            | st.dictionaries(st.text(max_size=3), kids, max_size=3),
            max_leaves=8,
        )
        shaped = data.draw(st.booleans())  # every field of the type it needs
        n = data.draw(st.integers(1, 9) if shaped else st.integers(-1, 9) | json_values)
        m = pair_count(n) if shaped else 0
        bit_strings = (
            st.text("01", min_size=m, max_size=m) if shaped else st.text("01x", max_size=12)
        )
        pairs = st.lists(st.lists(st.integers(-2, 11), min_size=2, max_size=2), max_size=4)
        traces = st.lists(st.integers(-1, 6), max_size=4)
        base = data.draw(bit_strings if shaped else bit_strings | json_values)
        record = {
            "n": n,
            "base_bits": base,
            "arcs": data.draw(pairs if shaped else pairs | json_values),
            "trace": data.draw(traces if shaped else traces | json_values),
            "final_bits": base if data.draw(st.booleans()) else data.draw(bit_strings),
        }
        try:
            cert = certificate_from_json(json.dumps(record))
        except ValueError:
            return
        assert isinstance(verify_certificate(cert.base, cert).ok, bool)


class TestErdosExtension:
    def test_cycle_gets_transitive_superset(self, c3):
        E = erdos_transitive_extension(c3)
        assert len({E.out_degree(v) for v in range(3)}) == 3
        assert nontrivial_modules(c3) == []
        assert len(nontrivial_modules(E)) > 0

    def test_t4(self, t4):
        checked_extension(t4)

    def test_all_nontransitive_classes_up_to_five(self):
        for T in all_classes_up_to(5):
            if T.n >= 3 and len({T.out_degree(v) for v in range(T.n)}) < T.n:
                checked_extension(T)

    def test_transitive_rejected(self):
        with pytest.raises(ValueError):
            erdos_transitive_extension(transitive(5))

    def test_raises_exactly_on_transitive_inputs(self):
        # reference: a tournament is transitive iff its out-degrees differ
        for T in all_classes_up_to(7):
            if len({T.out_degree(v) for v in range(T.n)}) == T.n:
                with pytest.raises(ValueError, match="already transitive"):
                    erdos_transitive_extension(T)
            else:
                erdos_transitive_extension(T)

    @pytest.mark.parametrize(
        "T",
        [random_tournament(40, 1)] + [composed_random(Xorshift64Star(s), 40) for s in (1, 2, 3)],
        ids=["random", "composed-1", "composed-2", "composed-3"],
    )
    def test_forty_vertices(self, T):
        # no size bound: the order comes from the decomposition tree
        checked_extension(T)


class TestIndexLawsSmall:
    def test_lower_bound_and_equality(self):
        for n in (5, 6):
            for T in enumerate_tournaments(n):
                d = brute_delta(T)
                index = comodular_index(T)
                assert d >= ceil_half(index)
                assert d == ceil_half(index)

    def test_monotone_for_module_inclusion_pairs(self):
        for n in (5, 6):
            for T in enumerate_tournaments(n):
                if len({T.out_degree(v) for v in range(T.n)}) == T.n:
                    continue
                E = erdos_transitive_extension(T)
                assert decomposability_index(T) <= decomposability_index(E)


class TestBytePins:
    """Whole output lines of ``analyze`` and of a certificate, pinned byte
    for byte: a relabelled chain (index 9, every reduction step) and a
    composed input (index 3)."""

    CASES = {
        "chain-17": (
            lambda: relabelled_chain(17, 17),
            '{"n": 17, "indecomposable": false, "Delta": 9, "delta": 5, "mc": [[0], [1], [2, 7], [2, 14], [3, 7], [3, 12], [4, 12], [5, 8], [5, 10], [6, 9], [6, 14], [8, 13], [9, 10], [11, 15], [11, 16], [13, 15]], "components": [[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16]], "delta_decomposition": [[0], [1], [2, 7], [3, 12], [5, 8], [6, 14], [9, 10], [11, 16], [13, 15]]}\n',
            '{"n": 17, "base_bits": "0000000000000000111111111111111110010000100001000000010000000000000000110110101001000010100000010000110101000010100010100111100000100000", "arcs": [[11, 0], [13, 12], [5, 7], [1, 14], [9, 0]], "trace": [9, 7, 5, 3, 2], "final_bits": "0000000010100000111111111111011110010000100001000000010000000000000000100110101001000010100000010000110101000010100010100111101000100000"}',
        ),
        "composed-14": (
            lambda: composed_random(Xorshift64Star(1), 14),
            '{"n": 14, "indecomposable": false, "Delta": 3, "delta": 2, "mc": [[0], [1], [2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13]], "components": [[0], [1], [2], [3], [4], [5], [6], [7], [8], [9], [10], [11], [12], [13]], "delta_decomposition": [[0], [1], [2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13]]}\n',
            '{"n": 14, "base_bits": "1111111111111000000000000011101000111001100100111000010000010101100111111111001110101100111", "arcs": [[0, 1], [0, 2]], "trace": [3, 2], "final_bits": "0011111111111000000000000011101000111001100100111000010000010101100111111111001110101100111"}',
        ),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_analyze_stdout(self, name, tmp_path, capsys):
        make, analyze_line, _ = self.CASES[name]
        path = tmp_path / "t.tourn"
        path.write_text(format_tourn_v1(make()))
        assert main(["analyze", str(path)]) == 0
        assert capsys.readouterr().out == analyze_line

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_certificate_line(self, name):
        make, _, cert_line = self.CASES[name]
        assert certificate_to_json(synthesize_certificate(make())) == cert_line
