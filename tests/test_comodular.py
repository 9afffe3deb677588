import dataclasses
import itertools
from types import SimpleNamespace

import pytest

from tourmod import (
    CoModularDecomposition,
    CoModule,
    ConflictGraph,
    VertexSet,
    Xorshift64Star,
    all_delta_decompositions,
    brute_Delta,
    comodular_index,
    conflict_graph,
    delta_decomposition,
    dual,
    enumerate_tournaments,
    erdos_transitive_extension,
    hereditary_witness,
    invert,
    is_indecomposable,
    minimal_comodules,
    random_tournament,
    structured_delta_decomposition,
    subtournament,
    synthesize_certificate,
    transitive,
)
from tourmod.comodular import _structured
from tourmod.modular import _analysis, _path_optima

from conftest import (
    all_classes_up_to,
    composed_random,
    nested_substitution,
    overlaps,
    random_bits_tournament,
    random_perm,
    relabelled_chain,
)


def parts_of(decomp):
    return sorted(tuple(p.members) for p in decomp.parts)


class TestComodularIndex:
    def test_transitive_closed_form(self):
        for n in range(3, 13):
            assert comodular_index(transitive(n)) == (n + 2) // 2

    def test_long_chains_closed_form(self):
        # the overlap graph of a chain is one long path, whose optima the
        # subset enumeration this replaced could not reach past n ~ 30
        for n in range(13, 201):
            assert comodular_index(transitive(n)) == (n + 2) // 2

    def test_prime_is_zero(self, c3):
        assert comodular_index(c3) == 0

    def test_random_agrees_with_packing(self):
        T = random_tournament(8, 7)
        assert comodular_index(T) == brute_Delta(T)

    def test_never_one_and_two_iff_decomposable(self):
        for T in all_classes_up_to(6):
            index = comodular_index(T)
            assert index != 1
            assert (index >= 2) == (not is_indecomposable(T))

    def test_dual_invariant(self):
        for T in all_classes_up_to(6):
            assert comodular_index(T) == comodular_index(dual(T))

    def test_exhaustive_against_packing(self):
        for T in all_classes_up_to(6):
            assert comodular_index(T) == brute_Delta(T)

    def test_random_against_packing(self):
        rng = Xorshift64Star(31)
        for i in range(500):
            n = 4 + rng.below(7)  # 4..10
            T = composed_random(rng, n) if i % 2 else random_bits_tournament(rng, n)
            assert comodular_index(T) == brute_Delta(T)

    def test_maximum_over_classes(self):
        for n in range(3, 7):
            assert max(comodular_index(T) for T in enumerate_tournaments(n)) == (n + 2) // 2

    def test_monotone_under_module_extension(self):
        # adding modules can only raise the index
        for T in all_classes_up_to(5):
            if T.n < 3 or len({T.out_degree(v) for v in range(T.n)}) == T.n:
                continue
            E = erdos_transitive_extension(T)
            assert comodular_index(T) <= comodular_index(E)


class TestConflictGraph:
    def test_paths_or_cycles_only(self):
        for T in all_classes_up_to(7):
            g = conflict_graph(T)
            for i in range(len(g.nodes)):
                assert g.degree(i) <= 2

    def test_transitive_chain(self):
        g = conflict_graph(transitive(7))
        assert len(g.nodes) == 6
        assert len(g.edges) == 3  # the interior twins {1,2}-{2,3}-{3,4}-{4,5}

    def test_edges_are_all_overlapping_pairs(self):
        # the graph is read off the tree's twin runs; every pair of mc is
        # tested for overlap here, and each component must be a path
        rng = Xorshift64Star(53)
        corpus = itertools.chain(
            all_classes_up_to(8),
            (composed_random(rng, 6 + rng.below(35)) for _ in range(300)),  # 6..40
            (nested_substitution(rng) for _ in range(100)),
            (relabelled_chain(n, n) for n in range(5, 41)),
        )
        for T in corpus:
            g = conflict_graph(T)
            masks = [c.members.mask for c in g.nodes]
            assert g.edges == tuple(
                (i, j)
                for i, j in itertools.combinations(range(len(masks)), 2)
                if overlaps(masks[i], masks[j])
            )
            for comp in g.components():
                assert sum(i in comp for i, _ in g.edges) == len(comp) - 1

    def test_graph_is_its_nodes_and_edges(self):
        g = conflict_graph(transitive(9))
        assert [f.name for f in dataclasses.fields(g)] == ["nodes", "edges"]
        unread, read = ConflictGraph(g.nodes, g.edges), ConflictGraph(g.nodes, g.edges)
        assert read.adjacency is read.adjacency
        assert read == unread and hash(read) == hash(unread) and repr(read) == repr(unread)
        both_ways = sorted([*g.edges, *((b, a) for a, b in g.edges)])
        assert sorted((a, b) for a, near in enumerate(read.adjacency) for b in near) == both_ways
        # built directly, without conflict_graph, as synthetic_path builds one
        graph, walk = synthetic_path(5, Xorshift64Star(3))
        assert [graph.degree(v) for v in walk] == [1, 2, 2, 2, 1]
        assert [graph.degree(v) for v in (5, 6)] == [0, 0]
        assert graph.components() == [sorted(walk), [5], [6]]


class TestDeltaDecomposition:
    def test_even_transitive_unique(self):
        assert parts_of(delta_decomposition(transitive(6))) == [
            (0,),
            (1, 2),
            (3, 4),
            (5,),
        ]
        assert sum(1 for _ in all_delta_decompositions(transitive(6))) == 1

    def test_length_and_key(self):
        D = delta_decomposition(transitive(6))
        assert len(D) == 4
        assert D.key == tuple(sorted(p.key for p in D.parts))

    def test_odd_transitive_variants(self):
        found = [parts_of(D) for D in all_delta_decompositions(transitive(5))]
        assert sorted(found) == [
            [(0,), (1, 2), (4,)],
            [(0,), (2, 3), (4,)],
        ]
        assert parts_of(delta_decomposition(transitive(5))) == [(0,), (1, 2), (4,)]

    def test_rejects_indecomposable(self, c3):
        with pytest.raises(ValueError):
            delta_decomposition(c3)

    def test_structural_invariants(self):
        for T in all_classes_up_to(6):
            if is_indecomposable(T):
                continue
            D = delta_decomposition(T)
            assert D.is_delta
            assert len(D.parts) == comodular_index(T)
            mc_masks = {c.members.mask for c in minimal_comodules(T)}
            used = 0
            singles = 0
            for p in D.parts:
                assert p.members.mask in mc_masks
                assert used & p.members.mask == 0
                used |= p.members.mask
                singles += len(p.members) == 1
            assert singles <= 2
            if T.n >= 4:
                # at least one part is a nontrivial module
                assert any(p.kind in ("module", "both") for p in D.parts)


class TestStructuredDecomposition:
    def test_transitive_six_labels(self):
        _, labels = structured_delta_decomposition(transitive(6))
        assert {k: tuple(v.members) for k, v in labels.items()} == {
            "M1": (0,),
            "M2": (1, 2),
            "M3": (3, 4),
            "M4": (5,),
        }

    def test_transitive_five_all_low_overlap(self):
        D, labels = structured_delta_decomposition(transitive(5))
        assert set(labels) == {"M", "N", "L"}
        assert parts_of(D) == [(0,), (1, 2), (4,)]

    def test_rejects_indecomposable(self, c3):
        with pytest.raises(ValueError):
            structured_delta_decomposition(c3)

    @pytest.mark.parametrize(
        "n, message", [(3, "two-part"), (5, "three-part"), (6, "four-part")]
    )
    def test_contract_failure_raises(self, n, message):
        # the record of a chain with index 2, 3 or 4, doctored so that every
        # part overlaps two others and no labelling qualifies
        A = _analysis(transitive(n))
        doctored = SimpleNamespace(
            index=A.index,
            mc=A.mc,
            out=A.out,
            decompositions=A.decompositions,
            overlaps={m: (0, 0) for m in A.mc},
        )
        with pytest.raises(RuntimeError, match=message):
            _structured(doctored)

    def test_two_parts_take_the_first_qualifying_decomposition(self):
        # the record of a 3-chain, doctored so that its first decomposition
        # pairs {0} with the twin {0, 1}, which overlaps two parts
        A = _analysis(transitive(3))
        a, b = next(A.decompositions())
        twin = 0b011
        doctored = SimpleNamespace(
            index=A.index,
            mc={**A.mc, twin: "module"},
            out=A.out,
            decompositions=lambda: iter([(a, twin), (a, b)]),
            overlaps={**A.overlaps, twin: (0, 0)},
        )
        assert _structured(doctored) == ((a, b), {"M": a, "N": b})

    def test_contract_exhaustive(self):
        for T in all_classes_up_to(7):
            index = comodular_index(T)
            if index < 2:
                continue
            D, labels = structured_delta_decomposition(T)
            assert len(D.parts) == index
            over = {
                c.members.mask: 0 for c in minimal_comodules(T)
            }
            g = conflict_graph(T)
            for i, c in enumerate(g.nodes):
                over[c.members.mask] = g.degree(i)
            if index == 2:
                assert set(labels) == {"M", "N"}
                assert all(over[c.members.mask] <= 1 for c in labels.values())
                kinds = {c.kind for c in D.parts}
                if kinds & {"module", "both"}:
                    assert labels["M"].kind in ("module", "both")
            elif index == 3:
                assert set(labels) == {"M", "N", "L"}
                assert all(over[c.members.mask] <= 1 for c in labels.values())
            else:
                assert set(labels) == {"M1", "M2", "M3", "M4"}
                m1, m2, m3, m4 = (labels[f"M{i}"].members for i in (1, 2, 3, 4))
                for c in (m1, m3, m4):
                    assert over[c.mask] <= 1
                assert all(T.relation(x, y) for x in m1 for y in m2)
                assert all(T.relation(x, y) for x in m2 for y in m3)
                assert any(
                    all(T.relation(x, u) for u in m1)
                    or all(T.relation(u, x) for u in m3)
                    for x in m4
                )

    @staticmethod
    def certificate_states():
        """The decomposable tournaments each certificate passes through."""
        rng = Xorshift64Star(29)
        corpus = [
            *(T for T in all_classes_up_to(7) if T.n >= 5),
            *(composed_random(rng, 6 + rng.below(35)) for _ in range(300)),
            *(nested_substitution(rng) for _ in range(100)),
            *(relabelled_chain(n, n) for n in range(5, 41)),
        ]
        for T in corpus:
            for arc in synthesize_certificate(T).arcs:
                yield T
                T = invert(T, [arc])

    def test_walks_at_most_three_decompositions(self):
        # one of the first three decompositions qualified on every input
        # tried; the labelled search has no proven bound on its walk.  A
        # certificate walks this way on every state, on the record of its
        # tree or on the one its high step derives
        walked = {}
        for T in self.certificate_states():
            A = _analysis(T)
            drawn = 0

            def decompositions():
                nonlocal drawn
                for parts in A.decompositions():
                    drawn += 1
                    yield parts

            _structured(
                SimpleNamespace(
                    index=A.index,
                    mc=A.mc,
                    out=A.out,
                    decompositions=decompositions,
                    overlaps=A.overlaps,
                )
            )
            walked[drawn] = walked.get(drawn, 0) + 1
        assert 1 in walked and max(walked) <= 3, walked


def removed(T, X):
    S, _ = subtournament(T, X.complement())
    return S


class TestHereditaryWitness:
    def test_transitive_nine_k4(self):
        T = transitive(9)
        X = hereditary_witness(T, 4)
        assert len(X) == 4
        assert comodular_index(T) <= comodular_index(removed(T, X)) + 2

    def test_transitive_seven_k1(self):
        T = transitive(7)
        X = hereditary_witness(T, 1)
        assert len(X) == 1
        assert comodular_index(removed(T, X)) + 2 >= 4

    def test_low_index_keeps_decomposable(self):
        # for index 2 the removal avoids a module and an outside vertex
        rng = Xorshift64Star(37)
        checked = 0
        for _ in range(200):
            T = composed_random(rng, 6 + rng.below(4))
            if comodular_index(T) != 2:
                continue
            checked += 1
            for k in (1, 2):
                rest = removed(T, hereditary_witness(T, k))
                assert comodular_index(rest) >= 2
        assert checked > 5

    def test_bounds(self):
        with pytest.raises(ValueError):
            hereditary_witness(transitive(6), 5)
        with pytest.raises(ValueError):
            hereditary_witness(transitive(4), 2)

    def test_exhaustive_small(self):
        for k in (1, 2, 3, 4):
            for n in range(3 + k, 8):
                for T in enumerate_tournaments(n):
                    X = hereditary_witness(T, k)
                    assert len(X) == k
                    assert comodular_index(T) <= comodular_index(removed(T, X)) + 2


# ---------------------------------------------------------------------------
# Equivalence with the exhaustive searches the closed forms replaced.


def reference_component_optima(graph, comp):
    """Every maximum independent set of a component, by subset enumeration."""
    adjacent = set(graph.edges)
    best = [()]
    for size in range(1, len(comp) + 1):
        found = [
            combo
            for combo in itertools.combinations(comp, size)
            if all(
                (combo[a], combo[b]) not in adjacent
                for a in range(size)
                for b in range(a + 1, size)
            )
        ]
        if found:
            best = found
    return best


def reference_decompositions(T):
    graph = conflict_graph(T)
    per_comp = [reference_component_optima(graph, comp) for comp in graph.components()]
    for pick in itertools.product(*per_comp):
        parts = sorted((graph.nodes[i] for chosen in pick for i in chosen), key=lambda c: c.key)
        yield CoModularDecomposition(tuple(parts), is_delta=True)


def reference_delta_parts(T):
    graph = conflict_graph(T)
    chosen = []
    for comp in graph.components():
        optima = reference_component_optima(graph, comp)
        pick = min(optima, key=lambda combo: tuple(sorted(graph.nodes[i].key for i in combo)))
        chosen.extend(graph.nodes[i] for i in pick)
    return sorted(chosen, key=lambda c: c.key)


def _rel_all(T, amask, bmask):
    return all(T.relation(x, y) for x in VertexSet(T.n, amask) for y in VertexSet(T.n, bmask))


def reference_structured(T):
    """The labelled decomposition by scanning every decomposition against
    every ordered quadruple of its parts."""
    index = comodular_index(T)
    graph = conflict_graph(T)
    over = {c.members.mask: graph.degree(i) for i, c in enumerate(graph.nodes)}
    if index == 2:
        parts = reference_delta_parts(T)
        a, b = parts
        if a.kind == "complement-module" and b.kind in ("module", "both"):
            a, b = b, a
        return parts, {"M": a, "N": b}
    for decomp in reference_decompositions(T):
        if index == 3:
            if all(over[p.members.mask] <= 1 for p in decomp.parts):
                return list(decomp.parts), dict(zip(("M", "N", "L"), decomp.parts))
            continue
        for quad in itertools.permutations(range(len(decomp.parts)), 4):
            p = [decomp.parts[i] for i in quad]
            if any(over[p[i].members.mask] > 1 for i in (0, 2, 3)):
                continue
            m1, m2, m3, m4 = (c.members.mask for c in p)
            if not (_rel_all(T, m1, m2) and _rel_all(T, m2, m3)):
                continue
            if any(
                T.out_masks[x] & m1 == m1 or T.out_masks[x] & m3 == 0
                for x in VertexSet(T.n, m4)
            ):
                return list(decomp.parts), dict(zip(("M1", "M2", "M3", "M4"), p))
    raise AssertionError("reference scan found no labelling")


def equivalence_corpus():
    yield from all_classes_up_to(7)
    rng = Xorshift64Star(43)
    for _ in range(200):
        yield composed_random(rng, 6 + rng.below(9))  # 6..14


def synthetic_path(k, rng):
    """A path on k nodes, walked in a shuffled node order, with two extra
    isolated nodes so that the component is not all of the graph."""
    order = random_perm(rng, k)
    edges = tuple(sorted((min(a, b), max(a, b)) for a, b in zip(order, order[1:])))
    nodes = tuple(CoModule(VertexSet(k + 2, 1 << i), "module") for i in range(k + 2))
    return ConflictGraph(nodes, edges), order


class TestClosedFormOptima:
    def test_synthetic_paths(self):
        rng = Xorshift64Star(47)
        for k in range(1, 13):
            for _ in range(4):
                graph, walk = synthetic_path(k, rng)
                comp = sorted(walk)
                assert graph.components()[0] == comp
                optima = _path_optima(walk)
                assert optima == reference_component_optima(graph, comp)
                assert all(len(o) == (k + 1) // 2 for o in optima)
                assert len(optima) == (k // 2 + 1 if k % 2 == 0 else 1)

    def test_degree_reads_adjacency(self):
        graph = conflict_graph(transitive(9))
        assert [graph.degree(i) for i in range(len(graph.nodes))] == [
            sum(i in e for e in graph.edges) for i in range(len(graph.nodes))
        ]

    def test_matches_subset_enumeration(self):
        for T in equivalence_corpus():
            A = _analysis(T)
            graph = conflict_graph(T)
            assert A.optima == [
                reference_component_optima(graph, comp) for comp in graph.components()
            ]
            if not graph.nodes:
                continue
            assert delta_decomposition(T).parts == tuple(reference_delta_parts(T))
            assert [d.parts for d in all_delta_decompositions(T)] == [
                d.parts for d in reference_decompositions(T)
            ]

    def test_labels_match_permutation_scan(self):
        # relabelled chains add inputs of index 4 to 7, whose parts are
        # not listed in dominance order
        chains = (relabelled_chain(n, seed) for n in range(6, 13) for seed in (1, 2))
        for T in itertools.chain(equivalence_corpus(), chains):
            if comodular_index(T) < 2:
                continue
            D, labels = structured_delta_decomposition(T)
            parts, ref_labels = reference_structured(T)
            assert list(D.parts) == parts
            assert labels == ref_labels

    def test_labels_match_permutation_scan_on_certificate_states(self):
        # the states certificates reach are not transitive, so the scan of
        # ordered quadruples of distinct parts checks that the (C2) tests
        # alone keep the labelled parts distinct; the scan's subset
        # enumeration bounds n
        for T in TestStructuredDecomposition.certificate_states():
            if T.n > 16:
                continue
            D, labels = structured_delta_decomposition(T)
            parts, ref_labels = reference_structured(T)
            assert list(D.parts) == parts
            assert labels == ref_labels
