"""Induced-pattern detection and hereditary class membership."""

from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chibound import (
    CLASSES,
    PATTERNS,
    Embedding,
    Graph,
    Pattern,
    SampleConfig,
    SampleExhausted,
    SplitMix64,
    class_by_name,
    complete,
    cycle,
    disjoint_union,
    empty,
    find_induced,
    gnp,
    is_member,
    join,
    named_graph,
    path,
    pattern_by_name,
    sample_class,
)
from chibound.graphs import restrict
from chibound.patterns import _ABSENT, _co_connected, _search, in_class

from oracles import (
    brute_find_induced,
    clique_components,
    count_induced,
    degree,
    embedding_is_induced,
    has_k1_union_k3,
    induced_embeddings,
)


class TestFindInduced:
    def test_c5_has_no_p3_union_p2(self):
        assert find_induced(cycle(5), PATTERNS["p3_union_p2"]) is None

    def test_kite_contains_diamond(self):
        emb = find_induced(named_graph("kite"), PATTERNS["diamond"])
        assert emb is not None
        assert embedding_is_induced(named_graph("kite"), PATTERNS["diamond"], emb)

    def test_grotzsch_is_triangle_free(self):
        assert find_induced(named_graph("grotzsch"), PATTERNS["k3"]) is None

    def test_witnesses_satisfy_induced_condition(self):
        host = named_graph("schlafli_complement")
        for name in ("k3", "c5", "p3_union_p2", "kite"):
            pattern = PATTERNS[name]
            emb = find_induced(host, pattern)
            if emb is not None:
                assert embedding_is_induced(host, pattern, emb)

    def test_pattern_order_cap(self):
        with pytest.raises(ValueError):
            Pattern("too-big", complete(9))

    def test_agrees_with_oracle_on_catalog_hosts(self):
        hosts = [named_graph(name) for name in ("kite", "hammer", "gem", "house", "w4")]
        for host in hosts:
            for pattern in PATTERNS.values():
                if pattern.graph.n > host.n:
                    continue
                mine = find_induced(host, pattern)
                oracle = brute_find_induced(host, pattern.graph)
                assert (mine is None) == (oracle is None), (host.name, pattern.name)

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_oracle_on_random_hosts(self, seed):
        host = gnp(6, 0.45, seed)
        for name in ("p3", "k3", "p3_union_p2", "diamond", "c5"):
            pattern = PATTERNS[name]
            mine = find_induced(host, pattern)
            oracle = brute_find_induced(host, pattern.graph)
            assert (mine is None) == (oracle is None), name
            if mine is not None:
                assert embedding_is_induced(host, pattern, mine)


class TestFindInducedWithin:
    @given(
        st.integers(min_value=0, max_value=2**32),
        st.integers(min_value=0, max_value=2**8 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_induced_copy(self, seed, mask):
        host = gnp(8, 0.5, seed)
        keep = [v for v in host.vertices() if mask >> v & 1]
        sub = host.induced(keep)
        for name in ("p3", "k3", "p3_union_p2", "p2_union_k3", "hammer", "2k3"):
            pattern = PATTERNS[name]
            mine = find_induced(host, pattern, within=mask)
            ref = find_induced(sub, pattern)
            if ref is None:
                assert mine is None, name
            else:
                assert mine == Embedding(name, tuple(keep[i] for i in ref.vertices))

    def test_mask_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            find_induced(path(3), PATTERNS["p3"], within=1 << 5)


def _first_through(pattern, every, u, v):
    """The copy the pinned search returns first: the first pattern pair
    (a, b), ascending, that some copy maps to (u, v), then the least such
    copy with the rest read in static order (descending degree, then id)."""
    p = pattern.graph
    static = sorted(range(p.n), key=lambda i: (-degree(p, i), i))
    for a in range(p.n):
        for b in range(p.n):
            hits = [vs for vs in every if a != b and (vs[a], vs[b]) == (u, v)]
            if hits:
                rest = [i for i in static if i not in (a, b)]
                first = min(hits, key=lambda vs: [vs[i] for i in rest])
                return Embedding(pattern.name, first)
    return None


class TestFindInducedThrough:
    @given(
        st.integers(min_value=2, max_value=10),
        st.sampled_from([0.25, 0.5, 0.75]),
        st.integers(min_value=0, max_value=2**32),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_filtered_full_search(self, n, p, seed, data):
        host = gnp(n, p, seed)
        u = data.draw(st.integers(min_value=0, max_value=n - 1))
        v = data.draw(st.integers(min_value=0, max_value=n - 1).filter(lambda x: x != u))
        for pattern in PATTERNS.values():
            every = induced_embeddings(host, pattern.graph)
            emb = find_induced(host, pattern, through=(u, v))
            assert emb == _first_through(pattern, every, u, v), pattern.name

    def test_pair_outside_mask_finds_nothing(self):
        host = complete(4)
        assert find_induced(host, PATTERNS["k3"], through=(0, 1)) is not None
        assert find_induced(host, PATTERNS["k3"], within=0b1110, through=(0, 1)) is None

    def test_rejects_bad_pair(self):
        for pattern in ("p3", "k4"):
            for pair in ((1, 1), (0, 5)):
                with pytest.raises(ValueError):
                    find_induced(path(3), PATTERNS[pattern], through=pair)


PART_ORDERS = st.integers(min_value=0, max_value=6)
PART_DENSITIES = st.sampled_from([0.0, 0.3, 0.6, 1.0])


class TestFindInducedOnJoins:
    """A co-connected pattern is searched part by part on a join to prove
    it absent; the answer must be the unsplit search's, witness and all."""

    @given(
        st.lists(
            st.tuples(PART_ORDERS, PART_DENSITIES, st.integers(0, 2**32)),
            min_size=2,
            max_size=3,
        ),
        st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_unsplit_search(self, parts, data):
        j = reduce(join, (gnp(n, p, seed) for n, p, seed in parts))
        # Relabel, so that the parts interleave in id order.
        perm = data.draw(st.permutations(range(j.n)))
        host = Graph(j.n, [(perm[u], perm[v]) for u, v in j.edges()])
        within = data.draw(st.none() | st.integers(0, host.full_mask))
        keep = [v for v in host.vertices() if within is None or within >> v & 1]
        for name, pattern in PATTERNS.items():
            mine = find_induced(host, pattern, within=within)
            whole = _search(*restrict(host, within), pattern, None)
            assert mine == (None if whole is None else Embedding(name, whole)), name
            if host.n <= 8:
                oracle = brute_find_induced(host.induced(keep), pattern.graph)
                assert (mine is None) == (oracle is None), name

    def test_co_connected_patterns(self):
        split = {name for name, p in PATTERNS.items() if _co_connected(p.graph)}
        assert split == {
            "2k3",
            "c5",
            "hammer",
            "house",
            "k1_union_k3",
            "kite",
            "p2_union_k3",
            "p3_union_p2",
        }

    def test_copy_found_in_a_later_part_is_the_first_copy(self):
        # Part A is vertex 0, isolated in A, plus a P3+P2 on 6..10; part B
        # is a P3+P2 on 1..5.  A holds the lowest id, B the first copy.
        p3p2 = named_graph("p3_union_p2")
        j = join(disjoint_union(empty(1), p3p2), p3p2)
        perm = [0, 6, 7, 8, 9, 10, 1, 2, 3, 4, 5]
        host = Graph(j.n, [(perm[u], perm[v]) for u, v in j.edges()])
        emb = find_induced(host, PATTERNS["p3_union_p2"])
        assert emb is not None and emb.image == frozenset(range(1, 6))


KERNEL_PATTERNS = ("p3", "k3", "k4", "p3_union_p2", "p2_union_k3", "k1_union_k3")


def _within(host: Graph):
    """A full (as None or as a mask), random or empty vertex mask."""
    return st.sampled_from([None, host.full_mask, 0]) | st.integers(0, host.full_mask)


class TestAbsenceKernels:
    """Each anchored kernel says absent exactly when the search finds no
    copy, and find_induced still returns the search's first copy."""

    def _check(self, host: Graph, within):
        rows, full = restrict(host, within)
        keep = [v for v in host.vertices() if full >> v & 1]
        for name in KERNEL_PATTERNS:
            pattern = PATTERNS[name]
            absent = _ABSENT[pattern.graph](rows, full)
            whole = _search(rows, full, pattern, None)
            assert absent == (whole is None), name
            mine = find_induced(host, pattern, within=within)
            assert mine == (None if whole is None else Embedding(name, whole)), name
            if len(keep) <= 8:
                oracle = brute_find_induced(host.induced(keep), pattern.graph)
                assert absent == (oracle is None), name
        assert _ABSENT[PATTERNS["p3"].graph](rows, full) == clique_components(host, full)
        assert _ABSENT[PATTERNS["k1_union_k3"].graph](rows, full) == (
            not has_k1_union_k3(host, full)
        )

    @given(
        st.integers(min_value=0, max_value=14),
        st.sampled_from([0.2, 0.5, 0.8]),
        st.integers(min_value=0, max_value=2**32),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_match_search_on_random_hosts(self, n, p, seed, data):
        host = gnp(n, p, seed)
        self._check(host, data.draw(_within(host)))

    @given(
        st.lists(
            st.tuples(PART_ORDERS, st.sampled_from([0.2, 0.5, 0.8]), st.integers(0, 2**32)),
            min_size=2,
            max_size=3,
        ),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_match_search_on_joins(self, parts, data):
        j = reduce(join, (gnp(n, p, seed) for n, p, seed in parts))
        perm = data.draw(st.permutations(range(j.n)))
        host = Graph(j.n, [(perm[u], perm[v]) for u, v in j.edges()])
        self._check(host, data.draw(_within(host)))

    def test_only_the_last_edge_sees_the_p3(self):
        # P3 0-1-2 under a triangle 3,4,5 that sees all of it, and the edge
        # 6-7 apart from everything.  Every edge but 6-7, the last one
        # scanned, has only 6-7 left outside its neighbourhood.
        edges = [(0, 1), (1, 2), (3, 4), (3, 5), (4, 5), (6, 7)]
        edges += [(a, b) for a in range(3) for b in range(3, 6)]
        host = Graph(8, edges)
        far_with_p3 = [
            (x, y)
            for x, y in host.edges()
            if not clique_components(host, host.full_mask & ~(host.rows[x] | host.rows[y]))
        ]
        assert far_with_p3 == [(6, 7)]
        pattern = PATTERNS["p3_union_p2"]
        assert not _ABSENT[pattern.graph](host.rows, host.full_mask)
        emb = find_induced(host, pattern)
        assert emb is not None and emb.image == frozenset({0, 1, 2, 6, 7})
        self._check(host, None)
        self._check(host.toggled(6, 7), None)
        assert find_induced(host.toggled(6, 7), pattern) is None

    def test_kernels_are_keyed_by_graph(self):
        # A pattern that borrows a kernel pattern's name keeps its own graph
        # and is searched: C4 holds a C4 but no P3+P2.  One with a kernel
        # pattern's graph uses the kernel.
        impostor = Pattern("p3_union_p2", cycle(4))
        assert impostor.graph not in _ABSENT
        emb = find_induced(cycle(4), impostor)
        assert emb is not None and emb.image == frozenset(range(4))
        renamed = Pattern("cherry", path(3))
        assert _ABSENT[renamed.graph] is _ABSENT[PATTERNS["p3"].graph]
        assert find_induced(path(3), renamed) == Embedding("cherry", (0, 1, 2))
        assert find_induced(complete(3), renamed) is None


class TestInClass:
    @given(
        st.sampled_from(sorted(CLASSES)),
        st.integers(min_value=0, max_value=13),
        st.sampled_from([0.1, 0.2, 0.5, 0.8, 0.95]),
        st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_is_member(self, cls, n, p, seed):
        g = gnp(n, p, seed)
        assert in_class(g, CLASSES[cls]) == bool(is_member(g, CLASSES[cls]))

    def test_catalog_members_and_non_members(self):
        assert in_class(named_graph("schlafli_complement"), CLASSES["K4Free"])
        assert in_class(named_graph("grotzsch"), CLASSES["KiteFree"])
        assert not in_class(cycle(5), CLASSES["C5Free"])
        assert not in_class(complete(4), CLASSES["K4Free"])
        assert not in_class(named_graph("p3_union_p2"), CLASSES["P3P2"])


def _member(spec, n: int, p: float, seed: int):
    """A sampled member of the class, or the edgeless graph, which is in
    every class here."""
    cfg = SampleConfig(n=n, p=p, seed=seed, class_name=spec.name, max_tries=50)
    try:
        return sample_class(cfg)
    except SampleExhausted:
        return empty(n)


class TestMembershipThrough:
    @given(
        st.sampled_from(sorted(CLASSES)),
        st.integers(min_value=2, max_value=10),
        st.sampled_from([0.2, 0.5, 0.8]),
        st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=80, deadline=None)
    def test_agrees_with_full_test_along_a_walk(self, cls, n, p, seed):
        spec = CLASSES[cls]
        g = _member(spec, n, p, seed)
        rng = SplitMix64(seed)
        for _ in range(25):
            u = rng.below(n)
            v = (u + 1 + rng.below(n - 1)) % n
            cand = g.toggled(u, v)
            fast = is_member(cand, spec, through=(u, v))
            assert bool(fast) == bool(is_member(cand, spec)), (cls, u, v)
            if fast:
                g = cand
            else:
                assert {u, v} <= fast.witness.image


class TestMembership:
    def test_schlafli_is_k4_free(self):
        assert is_member(named_graph("schlafli_complement"), CLASSES["K4Free"])

    def test_grotzsch_expansions_are_kite_free(self):
        g = named_graph("grotzsch")
        assert is_member(g, CLASSES["KiteFree"])
        doubled = join(g, g)
        assert is_member(doubled, CLASSES["KiteFree"])

    def test_c5_rejected_with_identity_witness(self):
        verdict = is_member(cycle(5), CLASSES["C5Free"])
        assert not verdict
        assert verdict.witness is not None
        assert verdict.witness.pattern == "c5"
        assert sorted(verdict.witness.vertices) == [0, 1, 2, 3, 4]

    def test_hereditary_consistency(self):
        g = named_graph("schlafli_complement")
        spec = CLASSES["K4Free"]
        assert is_member(g, spec)
        for pick in ([0, 3, 5, 9, 12, 20], [1, 2, 4, 8, 16], list(range(14))):
            assert is_member(g.induced(pick), spec)

    def test_class_by_name_normalizes(self):
        assert class_by_name("kitefree").name == "KiteFree"
        assert class_by_name("K4-Free").name == "K4Free"
        assert class_by_name("p2_k3_free").name == "P2K3Free"
        with pytest.raises(ValueError):
            class_by_name("cographs")

    def test_every_class_lists_its_patterns(self):
        assert {p.name for p in CLASSES["TriangleFree"].forbidden} == {
            "p3_union_p2",
            "k3",
        }
        for name, spec in CLASSES.items():
            assert spec.forbidden, name


class TestCountInduced:
    def test_k3_in_k4(self):
        assert count_induced(complete(4), PATTERNS["k3"]) == 4

    def test_k3_in_2k3(self):
        assert count_induced(named_graph("2k3"), PATTERNS["k3"]) == 2

    def test_c5_in_grotzsch_positive(self):
        assert count_induced(named_graph("grotzsch"), PATTERNS["c5"]) > 0

    def test_cap_truncates(self):
        assert count_induced(complete(6), PATTERNS["k3"], cap=5) == 5

    def test_counts_vertex_sets_not_maps(self):
        assert count_induced(path(3), PATTERNS["p3"]) == 1


class TestPatternByName:
    def test_lookup_and_errors(self):
        assert pattern_by_name("kite").graph.n == 5
        assert pattern_by_name("P3_UNION_P2").name == "p3_union_p2"
        with pytest.raises(ValueError):
            pattern_by_name("heptagon")

    def test_catalog_patterns_match_named_graphs(self):
        for name in ("kite", "hammer", "diamond", "gem", "house"):
            assert list(pattern_by_name(name).graph.edges()) == list(
                named_graph(name).edges()
            )
