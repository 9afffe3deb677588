import gc
import weakref
from functools import reduce
from itertools import accumulate, groupby, islice
from operator import or_

import pytest

from tourmod import (
    Arc,
    VertexSet,
    brute_modules,
    comodular_index,
    component_comodule,
    dual,
    enumerate_tournaments,
    erdos_transitive_extension,
    invert,
    is_comodule,
    is_indecomposable,
    is_module,
    make_tournament,
    maximal_nontrivial_modules,
    minimal_comodules,
    minimal_nontrivial_modules,
    nontrivial_modules,
    overlap_set,
    parse_tourn_v1,
    format_tourn_v1,
    random_tournament,
    smallest_module_containing,
    substitute,
    subtournament,
    synthesize_certificate,
    tilde,
    transitive,
    transitive_components,
)
from tourmod import Xorshift64Star, modular

from conftest import (
    all_classes_up_to,
    check_component_picks,
    check_inversion_rule,
    check_module_rules,
    check_overlap_bound,
    check_promotion,
    check_transitive_components,
    check_twin_picks,
    composed_random,
    first_indecomposable,
    nested_substitution,
    overlaps,
    record_calls,
    relabelled_chain,
)


def members(sets):
    return sorted(tuple(s) for s in sets)


def mc_members(T):
    return sorted(tuple(c.members) for c in minimal_comodules(T))


class TestIsModule:
    def test_interval_true(self):
        assert is_module(transitive(5), {1, 2})

    def test_non_interval_false(self):
        assert not is_module(transitive(5), {0, 2})

    def test_trivial_modules(self, c3):
        T = transitive(4)
        for X in (set(), {2}, set(range(4))):
            assert is_module(T, X)
        assert is_module(c3, set()) and is_module(c3, {1}) and is_module(c3, {0, 1, 2})

    def test_vertex_set_of_other_size_rejected(self):
        T = transitive(4)
        with pytest.raises(ValueError):
            is_module(T, VertexSet(T.n + 1, 1))


class TestIndecomposable:
    def test_three_cycle(self, c3):
        assert is_indecomposable(c3)

    def test_transitive_three(self):
        assert not is_indecomposable(transitive(3))

    def test_all_four_vertex_tournaments(self):
        assert all(not is_indecomposable(T) for T in enumerate_tournaments(4))

    def test_tiny_tournaments(self):
        assert is_indecomposable(transitive(1))
        assert is_indecomposable(transitive(2))


class TestSmallestModule:
    def test_interval_closure(self):
        assert smallest_module_containing(transitive(5), {1, 3}).members() == (1, 2, 3)

    def test_singleton(self):
        T = make_tournament(4, [1, 0, 0, 1, 0, 0])
        for v in range(4):
            assert smallest_module_containing(T, {v}).members() == (v,)

    def test_prime_reaches_everything(self, c3):
        assert smallest_module_containing(c3, {0, 1}).members() == (0, 1, 2)

    def test_empty_seed_rejected(self):
        with pytest.raises(ValueError):
            smallest_module_containing(transitive(3), set())

    def test_result_is_least(self):
        # every module containing the seed contains the closure
        rng = Xorshift64Star(17)
        for _ in range(30):
            T = composed_random(rng, 5 + rng.below(4))
            x = rng.below(T.n)
            y = (x + 1 + rng.below(T.n - 1)) % T.n
            closure = smallest_module_containing(T, {x, y}).mask
            assert is_module(T, VertexSet(T.n, closure))
            for M in brute_modules(T):
                if x in M and y in M:
                    assert closure & ~M.mask == 0


class TestNontrivialModules:
    def test_transitive_four(self):
        assert members(nontrivial_modules(transitive(4))) == [
            (0, 1),
            (0, 1, 2),
            (1, 2),
            (1, 2, 3),
            (2, 3),
        ]

    def test_prime_empty(self, c3):
        assert nontrivial_modules(c3) == []

    def test_transitive_five_count(self):
        assert len(nontrivial_modules(transitive(5))) == 9

    def test_bound(self):
        # no subset-scan cap: on 17 vertices the modules are the 135
        # intervals of 2..16 consecutive vertices
        expected = sorted(
            tuple(range(i, i + size)) for size in range(2, 17) for i in range(18 - size)
        )
        assert len(expected) == 135
        assert members(nontrivial_modules(transitive(17))) == expected


class TestMinimalMaximalModules:
    def test_agree_with_subset_scan(self):
        rng = Xorshift64Star(23)
        cases = [T for T in all_classes_up_to(5)] + [
            composed_random(rng, 6 + rng.below(7)) for _ in range(40)
        ]
        for T in cases:
            masks = {s.mask for s in brute_modules(T) if 2 <= len(s) < T.n}
            minimal = {s for s in masks if not any(m != s and m & ~s == 0 for m in masks)}
            maximal = {s for s in masks if not any(m != s and s & ~m == 0 for m in masks)}
            assert {s.mask for s in minimal_nontrivial_modules(T)} == minimal
            assert {s.mask for s in maximal_nontrivial_modules(T)} == maximal


class TestIsComodule:
    def test_endpoints_of_chain(self):
        assert is_comodule(transitive(5), {0})
        assert not is_comodule(transitive(5), {1})

    def test_empty_and_full(self):
        T = transitive(5)
        assert not is_comodule(T, set())
        assert not is_comodule(T, set(range(5)))


class TestMinimalComodules:
    def test_transitive_six(self):
        assert mc_members(transitive(6)) == [(0,), (1, 2), (2, 3), (3, 4), (5,)]

    def test_prime_empty(self, c3):
        assert minimal_comodules(c3) == []

    def test_transitive_family_shape(self):
        # {0}, {n-1} and the interior consecutive pairs
        for n in range(3, 9):
            expected = sorted(
                [(0,), (n - 1,)] + [(i, i + 1) for i in range(1, n - 2)]
            )
            assert mc_members(transitive(n)) == expected

    def test_twin_uniqueness(self):
        for T in all_classes_up_to(5):
            check_twin_picks(T)

    def test_repr(self):
        assert repr(minimal_comodules(transitive(5))[0]) == "CoModule({0}, complement-module)"

    def test_kind_consistency(self):
        for T in all_classes_up_to(6):
            for c in minimal_comodules(T):
                m = c.members
                as_module = 2 <= len(m) < T.n and is_module(T, m)
                comp = m.complement()
                comp_module = 2 <= len(comp) < T.n and is_module(T, comp)
                assert as_module or comp_module
                expected = (
                    "both"
                    if as_module and comp_module
                    else "module" if as_module else "complement-module"
                )
                assert c.kind == expected

    def test_matches_brute_force_minimal_comodules(self):
        rng = Xorshift64Star(5)
        cases = list(all_classes_up_to(6)) + [
            composed_random(rng, 4 + rng.below(9)) for _ in range(200)
        ]
        for T in cases:
            full = (1 << T.n) - 1
            comods = set()
            for s in brute_modules(T):
                if not 2 <= len(s) < T.n:
                    continue
                comods.add(s.mask)
                comods.add(full ^ s.mask)
            brute_minimal = {
                m for m in comods if not any(o != m and o & ~m == 0 for o in comods)
            }
            assert {c.members.mask for c in minimal_comodules(T)} == brute_minimal

    def test_shared_with_dual(self):
        for T in all_classes_up_to(6):
            assert mc_members(T) == mc_members(dual(T))


class TestOverlap:
    def test_interior_pair_one_neighbour(self):
        assert [tuple(c.members) for c in overlap_set(transitive(6), [1, 2])] == [(2, 3)]

    def test_endpoint_isolated(self):
        assert overlap_set(transitive(6), [0]) == []

    def test_two_neighbours(self):
        assert [tuple(c.members) for c in overlap_set(transitive(7), [2, 3])] == [
            (1, 2),
            (3, 4),
        ]

    def test_requires_minimal_comodule(self):
        with pytest.raises(ValueError):
            overlap_set(transitive(6), [0, 1])

    @staticmethod
    def chain_certificate_states():
        """The states the certificates of relabelled 17..40-vertex chains
        pass through, whose paths are long and mostly not monotone in mc."""
        for n in range(17, 41):
            T = relabelled_chain(n, n)
            for arc in synthesize_certificate(T).arcs:
                yield T
                T = invert(T, [arc])

    def test_matches_the_definition(self):
        # M' overlaps M when they meet and neither contains the other
        unsorted = 0
        for T in (*all_classes_up_to(7), *self.chain_certificate_states()):
            masks = [c.members.mask for c in minimal_comodules(T)]
            for m in masks:
                expected = [o for o in masks if overlaps(o, m)]
                assert [c.members.mask for c in overlap_set(T, VertexSet(T.n, m))] == expected
            paths = modular._analysis(T).paths
            unsorted += sum(path not in (sorted(path), sorted(path)[::-1]) for path in paths)
        # most paths of three or more twins run out of mc order, so the
        # overlaps' mc order is not their order along the path
        assert unsorted > 100

    def test_degree_bound_and_twin_requirement(self):
        for T in all_classes_up_to(6):
            check_overlap_bound(T)

    def test_two_overlaps_need_big_transitive_block(self):
        # with two overlapping neighbours the twin lies in a transitive
        # component with at least four vertices
        for T in all_classes_up_to(7):
            if T.n < 3:
                continue
            comps = transitive_components(T)
            for c in minimal_comodules(T):
                if len(overlap_set(T, c)) == 2:
                    block = comps.block_of(c.members.members()[0])
                    assert c.members.mask & ~block.mask == 0
                    assert len(block) >= 4


class TestTilde:
    def test_one_overlap_gives_shared_vertex(self):
        assert tilde(transitive(6), [1, 2]).members() == (2,)
        assert tilde(transitive(5), [1, 2]).members() == (2,)

    def test_no_overlap_gives_set_itself(self):
        assert tilde(transitive(6), [0]).members() == (0,)

    def test_rejected_on_two_overlaps(self):
        with pytest.raises(ValueError):
            tilde(transitive(6), [2, 3])


class TestTransitiveComponents:
    def test_transitive_single_block(self):
        for n in (1, 2, 5):
            blocks = transitive_components(transitive(n)).blocks
            assert len(blocks) == 1 and blocks[0].members() == tuple(range(n))

    def test_prime_singletons(self, c3):
        assert [b.members() for b in transitive_components(c3).blocks] == [
            (0,),
            (1,),
            (2,),
        ]

    def test_twin_in_rigid_host(self, c3):
        T = substitute(c3, transitive(2), 0)  # duplicate vertex 0 of the cycle
        block = transitive_components(T).block_of(0)
        assert len(block) >= 2

    def test_block_of_outside_vertex_rejected(self, c3):
        with pytest.raises(ValueError):
            transitive_components(c3).block_of(c3.n)

    def test_partition_properties(self):
        for T in all_classes_up_to(6):
            check_transitive_components(T)


class TestOneTreePerCall:
    @pytest.mark.parametrize(
        "query",
        [
            lambda T: component_comodule(T, T.vertex_set(), 2),
            lambda T: tilde(T, [1, 2]),
            lambda T: overlap_set(T, [1, 2]),
            minimal_comodules,
            transitive_components,
            minimal_nontrivial_modules,
            maximal_nontrivial_modules,
            # a 3-cycle inside the chain, so the input is not transitive
            lambda T: erdos_transitive_extension(invert(T, [Arc(0, 2)])),
        ],
        ids=["component_comodule", "tilde", "overlap_set", "minimal_comodules",
             "transitive_components", "minimal_nontrivial", "maximal_nontrivial",
             "erdos_transitive_extension"],
    )
    def test_tree_built_once(self, query, monkeypatch):
        builds = record_calls(monkeypatch, modular, "_tree")
        query(transitive(7))
        assert len(builds) == 1

    @pytest.mark.parametrize(
        "build",
        [lambda: transitive(7), lambda: composed_random(Xorshift64Star(5), 12)],
        ids=["chain-7", "composed-12"],
    )
    def test_module_and_comodule_queries_share_one_tree(self, build, monkeypatch):
        T = build()
        builds = record_calls(monkeypatch, modular, "_tree")
        is_indecomposable(T)
        nontrivial_modules(T)
        minimal_nontrivial_modules(T)
        maximal_nontrivial_modules(T)
        comodular_index(T)
        transitive_components(T)
        assert len(builds) == 1 and builds[0] is T

    def test_queries_and_certificate_share_one_tree(self, monkeypatch):
        # the later states of the certificate build their own trees
        T = transitive(7)
        builds = record_calls(monkeypatch, modular, "_tree")
        comodular_index(T)
        minimal_comodules(T)
        transitive_components(T)
        synthesize_certificate(T)
        assert sum(U is T for U in builds) == 1


class TestOneRecordPerObject:
    def test_two_parses_build_two_records(self, monkeypatch):
        # the record belongs to the object, not to its value
        text = format_tourn_v1(relabelled_chain(9, 4))
        built = record_calls(monkeypatch, modular, "_tree")
        first, second = parse_tourn_v1(text), parse_tourn_v1(text)
        assert first == second
        for T in (first, second, first, second):
            assert comodular_index(T) == 5
        assert len(built) == 2
        assert built[0] is first and built[1] is second

    def test_record_freed_with_its_tournament(self):
        # no reference cycle: reference counting alone frees the record
        T = transitive(8)
        record = weakref.ref(modular._analysis(T))
        assert record() is modular._analysis(T)
        gc.disable()
        try:
            del T
            assert record() is None
        finally:
            gc.enable()

    def test_record_reads_only_its_tree(self, monkeypatch):
        # with `_tree` refused, a record built from a kept tree
        # derives the same structure as the tournament's own record
        rng = Xorshift64Star(23)
        inputs = [*all_classes_up_to(6), relabelled_chain(17, 2)]
        inputs += [composed_random(rng, n) for n in (9, 16, 24, 33)]
        inputs += [nested_substitution(rng) for _ in range(6)]
        kept = [(T, list(modular._tree(T)), modular._analysis(T)) for T in inputs]

        def refuse(T):
            raise AssertionError("a record must read the tree it is given")

        monkeypatch.setattr(modular, "_tree", refuse)
        for T, tree, own in kept:
            A = modular._Analysis(T.n, T.out_masks, tree)
            mine = (A.masks, A.kinds, A.singles, A.paths, A.index, A.runs)
            assert mine == (own.masks, own.kinds, own.singles, own.paths, own.index, own.runs), T


def halving_partition(T, S, v):
    """The maximal modules of T inside the module S that avoid v, found by
    halving: a part that some vertex of S outside it splits is cut by that
    vertex's row, one splitter at a time; a part with no splitter is final."""
    out = T.out_masks
    todo = [S & ~(1 << v)]
    parts = []
    while todo:
        part = todo.pop()
        ref = out[(part & -part).bit_length() - 1]
        split = 0
        for w in range(T.n):
            if part >> w & 1:
                split |= out[w] ^ ref
        split &= ~part
        if split:
            half = out[(split & -split).bit_length() - 1] & part
            todo += [half, part ^ half]
        else:
            parts.append(part)
    return parts


def reference_tree(T, partition=modular._modular_partition_avoiding):
    """``modular._tree`` with the plain prime-node child rule: one full
    closure per part of ``partition``, the maximal modules avoiding the
    lowest vertex."""
    out = T.out_masks
    todo = [(1 << T.n) - 1] if T.n > 1 else []
    while todo:
        S = todo.pop()
        scores = sorted(
            ((out[v] & S).bit_count(), v) for v in range(T.n) if S >> v & 1
        )
        children = []
        block = total = 0
        for k, (score, v) in enumerate(reversed(scores), 1):
            block |= 1 << v
            total += score
            if total == k * (k - 1) // 2 + k * (len(scores) - k):
                children.append(block)
                block = 0
        linear = len(children) > 1
        if not linear:
            low = S & -S
            parts = partition(T, S, low.bit_length() - 1)
            children = [x for x in parts if modular._closure_mask(T, x | low) == S]
            children.append(S ^ reduce(or_, children, 0))
        yield S, linear, children
        todo += [c for c in children if c & (c - 1)]


def prime_in_prime(k):
    """A k-vertex random tournament substituted into vertex 0 of another."""
    return substitute(random_tournament(k, 2 * k), random_tournament(k, 2 * k + 1), 0)


def nested_three_cycles(n):
    """A 3-cycle substituted into vertex 0 of a 3-cycle, over and over, to
    n vertices: a tree (n - 1) / 2 prime nodes deep."""
    c3 = make_tournament(3, [1, 0, 1])
    T = c3
    while T.n < n:
        T = substitute(T, c3, 0)
    return T


def chain_certificate_midway():
    """The state after the first 25 of the 51 arcs certifying transitive(200)."""
    T = transitive(200)
    return invert(T, synthesize_certificate(T).arcs[:25])


class CountingRows(tuple):
    """A tuple of out-masks that counts its element reads, by index or by
    iteration."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return tuple.__getitem__(self, i)

    def __iter__(self):
        for row in tuple.__iter__(self):
            self.reads += 1
            yield row


class TestTreeChildRule:
    def inputs(self):
        yield from all_classes_up_to(7)
        rng = Xorshift64Star(41)
        for _ in range(300):
            yield composed_random(rng, 6 + rng.below(35))
        for _ in range(100):
            yield nested_substitution(rng)
        for n in range(5, 41):
            yield relabelled_chain(n, n)
        for n in range(1, 61):
            yield random_tournament(n, n)
        for k in range(3, 31):
            yield prime_in_prime(k)

    def test_matches_closure_per_part(self):
        for T in self.inputs():
            assert list(modular._tree(T)) == list(reference_tree(T)), T

    @pytest.mark.parametrize(
        "build, bound",
        [(lambda: random_tournament(400, 3), 1215), (lambda: prime_in_prime(200), 3990)],
        ids=["random400", "prime_in_prime399"],
    )
    def test_reads_linear_in_n(self, build, bound):
        # one full closure per part read about n^2 rows on both inputs, and
        # reading the lowest vertex's row once per part 1,612 on random400;
        # it reads 400 rows for the scores, one for the root's offset and
        # the rest in the prime pass
        T = build()
        rows = CountingRows(T.out_masks)
        object.__setattr__(T, "out_masks", rows)
        minimal_comodules(T)
        assert rows.reads <= bound

    @pytest.mark.parametrize(
        "build, bound",
        [
            (lambda: nested_three_cycles(127), 10333),
            (lambda: nested_three_cycles(255), 41149),
            (chain_certificate_midway, 4051),
        ],
        ids=["nested127", "nested255", "chain200_midway"],
    )
    def test_deep_reads_baseline(self, build, bound):
        # today's counts, not a target: each prime node's pass reads every
        # member again, so deep trees read about n * depth rows
        T = build()
        rows = CountingRows(T.out_masks)
        object.__setattr__(T, "out_masks", rows)
        minimal_comodules(T)
        assert rows.reads <= bound

    def test_children_of_linear_nodes_skip_the_score_pass(self):
        # three primes substituted into transitive(3): the root reads every
        # row once for its scores and one more for its offset, and each
        # child, a module, costs exactly its prime pass, its own tree's
        # reads less that tree's score pass and offset read.  A score pass
        # per child that reads the child's rows makes 191 reads here, and
        # one that reads the root's scores makes 3 more than this
        tries = ((random_tournament(k, seed) for seed in range(100)) for k in (9, 12, 15))
        primes = [next(P for P in candidates if is_indecomposable(P)) for candidates in tries]
        T = transitive(3)
        for at in reversed(range(3)):
            T = substitute(T, primes[at], at)
        prime_pass = 0
        for P in primes:
            rows = CountingRows(P.out_masks)
            object.__setattr__(P, "out_masks", rows)
            assert [linear for _, linear, _ in modular._tree(P)] == [False]
            prime_pass += rows.reads - P.n - 1
        rows = CountingRows(T.out_masks)
        object.__setattr__(T, "out_masks", rows)
        assert [linear for _, linear, _ in modular._tree(T)] == [True, False, False, False]
        assert rows.reads == T.n + 1 + prime_pass

    def test_smallest_module_stops_at_every_vertex(self):
        # the closure of {0, 1} in a prime tournament is V, reached long
        # before every row is read; a closure that never stops reads all 400
        T = random_tournament(400, 3)
        rows = CountingRows(T.out_masks)
        object.__setattr__(T, "out_masks", rows)
        assert smallest_module_containing(T, {0, 1}).mask == (1 << T.n) - 1
        assert rows.reads <= 40

    def test_smallest_module_finds_planted_module(self):
        T = prime_in_prime(200)
        assert smallest_module_containing(T, {0, 1}).mask == (1 << 200) - 1

    def test_partition_reads_each_row_about_once(self):
        # halving one splitter at a time read about 11n rows here
        T = random_tournament(400, 3)
        rows = CountingRows(T.out_masks)
        object.__setattr__(T, "out_masks", rows)
        modular._modular_partition_avoiding(T, (1 << T.n) - 1, 0)
        assert rows.reads <= 2 * T.n


def node_shapes(tree):
    """The nodes of a tree with a prime node's children as a set, except
    ``C_v``, which comes last; a linear node keeps its order."""
    return {
        (S, linear, tuple(kids) if linear else (frozenset(kids[:-1]), kids[-1]))
        for S, linear, kids in tree
    }


class TestModularPartition:
    """The parts at each prime node, checked against references that do
    not call ``_modular_partition_avoiding``."""

    @staticmethod
    def prime_parts(T):
        for S, linear, _ in modular._tree(T):
            if not linear:
                v = (S & -S).bit_length() - 1
                yield S, v, modular._modular_partition_avoiding(T, S, v)

    def test_maximal_modules_avoiding_lowest_vertex(self):
        for T in all_classes_up_to(7):
            for S, v, parts in self.prime_parts(T):
                rest = S & ~(1 << v)
                modules = []
                sub = rest
                while sub:
                    if modular._is_module_mask(T, sub):
                        modules.append(sub)
                    sub = (sub - 1) & rest
                maximal = [m for m in modules if not any(m != o and m & ~o == 0 for o in modules)]
                assert sorted(parts) == sorted(maximal), T

    def test_matches_halving(self):
        for T in TestTreeChildRule().inputs():
            for S, v, parts in self.prime_parts(T):
                assert sorted(parts) == sorted(halving_partition(T, S, v)), T
            assert node_shapes(modular._tree(T)) == node_shapes(reference_tree(T, halving_partition))


def reference_extremal_masks(n, tree):
    """The minimal and maximal nontrivial modules read node by node: the
    prime nodes below the root with single-vertex children and the pairs of
    consecutive single-vertex children of a linear node, other than V; the
    root's children with two or more vertices, or under a linear root with
    m >= 3 children its two runs of m-1 children."""
    full = (1 << n) - 1
    minimal = []
    for S, linear, children in tree:
        if linear:
            minimal += [
                a | b
                for a, b in zip(children, children[1:])
                if a & (a - 1) == 0 and b & (b - 1) == 0 and a | b != full
            ]
        elif S != full and all(c & (c - 1) == 0 for c in children):
            minimal.append(S)
    _, linear, children = tree[0] if tree else (full, False, [])
    if linear and len(children) >= 3:
        return minimal, [full ^ children[-1], full ^ children[0]]
    return minimal, [c for c in children if c & (c - 1)]


def reference_mc(n, minimal, maximal):
    """mc(T) in key order from every candidate at once: the minimal modules
    and the complements of the maximal ones, keeping each that holds no
    other candidate."""
    full = (1 << n) - 1
    complements = {full ^ m for m in maximal}
    candidates = set(minimal) | complements
    kinds = {m: "both" if m in complements else "module" for m in minimal}
    kinds |= {m: "complement-module" for m in complements if m not in kinds}
    kept = [m for m in candidates if not any(o != m and o & ~m == 0 for o in candidates)]
    return {m: kinds[m] for m in sorted(kept, key=modular._mask_key)}


def inclusion_filter_mc(n, minimal, maximal):
    """mc(T) in key order by inclusion alone: the minimal modules and the
    complements of the maximal ones, each kept when no member of the other
    family lies strictly inside it (each family is an antichain)."""
    full = (1 << n) - 1
    modules = set(minimal)
    complements = {full ^ m for m in maximal}
    kinds = dict.fromkeys(modules, "module")
    for m in complements:
        kinds[m] = "both" if m in modules else "complement-module"
    return {
        m: kinds[m]
        for m in sorted(kinds, key=modular._mask_key)
        if not any(o & m == o and o != m for o in (complements if m in modules else modules))
    }


def reference_walks(tree, mc):
    """The overlap graph's components read off each linear node's children:
    runs of pairs of consecutive single-vertex children that are in mc,
    then every other member of mc alone, listed by smallest position."""
    position = {m: i for i, m in enumerate(mc)}
    walks = []
    for _, linear, children in tree:
        if linear:
            at = [
                position.get(a | b) if (a | b).bit_count() == 2 else None
                for a, b in zip(children, children[1:])
            ]
            walks += [list(run) for found, run in groupby(at, lambda i: i is not None) if found]
    covered = {i for walk in walks for i in walk}
    walks += [[i] for i in range(len(mc)) if i not in covered]
    return sorted(walks, key=min)


def reference_runs(n, tree):
    """The transitive runs read node by node: each run of single-vertex
    children of a linear node, and each single-vertex child of a prime
    node alone."""
    runs = [[0]] if n == 1 else []
    for _, linear, children in tree:
        for single, run in groupby(children, key=lambda c: c & (c - 1) == 0):
            if single:
                vertices = [c.bit_length() - 1 for c in run]
                runs += [vertices] if linear else [[v] for v in vertices]
    return sorted(runs, key=min)


class TestOneChainScan:
    """The record derives its twins, minimal modules, components and runs from
    one scan of the linear nodes' chains; references read every node."""

    def test_matches_node_by_node_reading(self):
        for T in TestTreeChildRule().inputs():
            A = modular._analysis(T)
            minimal, maximal = reference_extremal_masks(T.n, A.tree)
            assert set(A.minimal_modules) == set(minimal), T
            assert A.maximal_modules == maximal, T
            mc = reference_mc(T.n, minimal, maximal)
            assert list(zip(A.masks, A.kinds)) == list(mc.items()), T
            walks = sorted(A.paths + [[i] for i in A.singles], key=min)
            assert walks == reference_walks(A.tree, mc), T
            assert A.runs == reference_runs(T.n, A.tree), T


class TestMcFromRootShape:
    """The record reads mc off the shape of the tree's root; the reference
    filters both candidate families by inclusion."""

    def test_matches_inclusion_filter(self):
        states = 0
        for T in TestTreeChildRule().inputs():
            arcs = synthesize_certificate(T).arcs if T.n >= 5 else ()
            for state in accumulate(arcs, lambda S, a: invert(S, [a]), initial=T):
                A = modular._analysis(state)
                minimal, maximal = reference_extremal_masks(state.n, A.tree)
                mc = inclusion_filter_mc(state.n, minimal, maximal)
                assert list(zip(A.masks, A.kinds)) == list(mc.items()), state
                states += 1
        assert states > 2000


class TestTreeFailsFast:
    def test_prime_node_without_children_raises(self, monkeypatch):
        # a partition that is no module partition leaves C_v equal to S; the
        # tree must fail on that node, not push S again forever
        T = first_indecomposable(6)
        monkeypatch.setattr(modular, "_modular_partition_avoiding", lambda T, S, v: [])
        with pytest.raises(RuntimeError, match=f"n=6 bits={T.bit_string()}"):
            list(islice(modular._tree(T), 1000))


class TestComponentComodule:
    def test_matches_degree_order(self):
        # the record orders a run as the tree does; the reference sorts the
        # block by inner out-degree, source first
        rng = Xorshift64Star(31)
        inputs = [relabelled_chain(n, seed) for n in range(5, 14) for seed in (1, 2)]
        inputs += [composed_random(rng, 5 + rng.below(10)) for _ in range(60)]
        inputs += [nested_substitution(rng) for _ in range(30)]
        picks = 0
        for T in inputs:
            mc = {c.members.mask: c for c in minimal_comodules(T)}
            for block in transitive_components(T).blocks:
                order = sorted(block, key=lambda v: -(T.out_masks[v] & block.mask).bit_count())
                for k in range(len(block) - 1):
                    twin = (1 << order[k]) | (1 << order[k + 1])
                    [pick] = [m for m in mc if m & ~twin == 0]
                    assert component_comodule(T, block, k) == mc[pick]
                    picks += 1
        assert picks > 300

    def test_transitive_endpoints_and_middles(self):
        for n in (4, 6, 7):
            T = transitive(n)
            V = T.vertex_set()
            assert tuple(component_comodule(T, V, 0).members) == (0,)
            assert tuple(component_comodule(T, V, n - 2).members) == (n - 1,)
            for k in range(1, n - 2):
                assert tuple(component_comodule(T, V, k).members) == (k, k + 1)

    def test_union_covers_component(self):
        # needs four vertices overall: on exactly three, the two end picks
        # are the extreme singletons and miss the middle vertex
        for T in all_classes_up_to(6):
            if T.n < 4:
                continue
            for block in transitive_components(T).blocks:
                if len(block) < 3:
                    continue
                union = 0
                for k in range(len(block) - 1):
                    union |= component_comodule(T, block, k).members.mask
                assert union == block.mask

    def test_errors(self, c3):
        T = transitive(6)
        with pytest.raises(ValueError):
            component_comodule(T, T.vertex_set(), 5)
        with pytest.raises(ValueError):
            component_comodule(T, [0, 2], 0)  # not a component
        with pytest.raises(ValueError):
            component_comodule(transitive(2), [0, 1], 0)  # too few vertices
        with pytest.raises(ValueError):
            component_comodule(c3, [0], 0)  # a one-vertex component

    def test_broken_record_raises(self):
        # a record whose mc puts two sets inside one twin breaks the
        # contract; the check holds under python -O too
        T = transitive(5)
        A = modular._analysis(T)
        A.masks.append(0b11)
        A.kinds.append("module")
        with pytest.raises(RuntimeError, match="n=5 bits=1111111111"):
            component_comodule(T, range(5), 0)

    def test_minimal_comodules_meeting_component(self):
        for T in all_classes_up_to(6):
            check_component_picks(T)


def modules_of(T):
    return [s.mask for s in brute_modules(T)]


class TestModuleCalculus:
    """Closure rules for modules, exhaustive on small sizes plus random."""

    def test_exhaustive_small(self):
        for T in all_classes_up_to(5):
            masks = modules_of(T)
            check_module_rules(T, masks)
            check_promotion(T, masks)

    def test_restriction_exhaustive_small(self):
        for T in all_classes_up_to(5):
            masks = modules_of(T)
            for wmask in range(1, 1 << T.n):
                S, labels = subtournament(T, VertexSet(T.n, wmask))
                for M in masks:
                    restricted = [k for k, v in enumerate(labels) if M >> v & 1]
                    assert is_module(S, restricted)

    def test_random_instances(self):
        rng = Xorshift64Star(29)
        for _ in range(120):
            T = composed_random(rng, 5 + rng.below(8))
            masks = modules_of(T)
            pick = lambda: masks[rng.below(len(masks))]
            check_module_rules(T, [pick() for _ in range(6)])
            if T.n <= 10:
                check_promotion(T, [pick(), pick()])


class TestSingleArcInversionRule:
    def test_module_survives_iff_no_overlap(self):
        # exhaustive over classes up to 5, all arcs, all modules
        for T in all_classes_up_to(5):
            for a in T.arcs():
                check_inversion_rule(T, a, modules_of(T))
