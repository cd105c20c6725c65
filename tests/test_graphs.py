"""Core graph type, constructors, and combinators."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chibound import (
    Coloring,
    Graph,
    complement,
    complete,
    cycle,
    disjoint_union,
    empty,
    gnp,
    join,
    mycielskian,
    named_graph,
    path,
)
from chibound.graphs import co_components, components

from oracles import is_isomorphic, reference_disjoint_union, reference_join


def small_graphs(max_n=8):
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=0, max_value=max_n))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = [p for p in pairs if draw(st.booleans())]
        return Graph(n, edges)

    return build()


class TestGraphBasics:
    def test_constructor_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            Graph(2, [(0, 2)])
        with pytest.raises(ValueError):
            Graph(2, [(1, 1)])
        with pytest.raises(ValueError):
            Graph(-1, [])

    def test_no_self_loops_and_symmetry(self):
        g = Graph(4, [(0, 1), (1, 2), (0, 1)])
        assert g.edge_count == 2
        assert g.rows[0] >> 1 & 1 and g.rows[1] >> 0 & 1
        assert g.rows[2] >> 2 & 1 == 0

    def test_edges_lexicographic(self):
        g = Graph(4, [(2, 3), (0, 3), (0, 1)])
        assert list(g.edges()) == [(0, 1), (0, 3), (2, 3)]

    def test_induced_renumbers_ascending(self):
        g = cycle(5)
        sub = g.induced([4, 0, 1])
        assert sub.n == 3
        # Kept vertices 0, 1, 4 take new ids 0, 1, 2 in ascending order.
        assert list(sub.edges()) == [(0, 1), (0, 2)]

    def test_basic_families(self):
        assert complete(3).edge_count == 3
        assert cycle(5).n == 5 and cycle(5).edge_count == 5
        assert path(2).edge_count == 1
        assert empty(4).edge_count == 0


class TestToggled:
    @given(small_graphs(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_flips_one_pair_and_back(self, g, data):
        if g.n < 2:
            return
        u = data.draw(st.integers(min_value=0, max_value=g.n - 1))
        v = data.draw(st.integers(min_value=0, max_value=g.n - 1).filter(lambda x: x != u))
        named = g.with_name("start")
        t = named.toggled(u, v)
        assert set(t.edges()) ^ set(g.edges()) == {(min(u, v), max(u, v))}
        assert all(
            (t.rows[a] >> b & 1) == (t.rows[b] >> a & 1)
            for a in range(g.n)
            for b in range(g.n)
        )
        assert t.name == "start"
        assert t.toggled(u, v) == named
        assert t.toggled(v, u).rows == named.rows

    def test_rejects_loop_and_out_of_range(self):
        g = path(3)
        for u, v in ((1, 1), (0, 3), (3, 0), (-1, 0)):
            with pytest.raises(ValueError):
                g.toggled(u, v)


class TestCombinators:
    def test_disjoint_union_examples(self):
        p3p2 = disjoint_union(path(3), path(2))
        assert (p3p2.n, p3p2.edge_count) == (5, 3)
        two_k3 = disjoint_union(complete(3), complete(3))
        assert (two_k3.n, two_k3.edge_count) == (6, 6)
        c5 = cycle(5)
        again = disjoint_union(empty(0), c5)
        assert list(again.edges()) == list(c5.edges())

    def test_join_examples(self):
        assert is_isomorphic(join(complete(1), complete(1)), complete(2))
        assert is_isomorphic(join(complete(3), complete(3)), complete(6))
        big = join(named_graph("grotzsch"), named_graph("schlafli_complement"))
        assert big.n == 38

    def test_join_edge_count_law(self):
        g, h = cycle(5), path(4)
        j = join(g, h)
        assert j.n == g.n + h.n
        assert j.edge_count == g.edge_count + h.edge_count + g.n * h.n

    def test_complement_examples(self):
        assert complement(complete(4)).edge_count == 0
        c5 = cycle(5)
        assert list(complement(complement(c5)).edges()) == list(c5.edges())
        assert is_isomorphic(complement(c5), c5)

    def test_mycielskian_examples(self):
        grotzsch = mycielskian(cycle(5))
        assert (grotzsch.n, grotzsch.edge_count) == (11, 20)
        assert is_isomorphic(mycielskian(path(2)), cycle(5))
        degenerate = mycielskian(empty(1))
        assert (degenerate.n, degenerate.edge_count) == (3, 1)

    @given(small_graphs(7), small_graphs(7))
    @settings(max_examples=100, deadline=None)
    def test_shifted_rows_match_the_edge_list_construction(self, g, h):
        for mine, ref in ((disjoint_union(g, h), reference_disjoint_union(g, h)),
                          (join(g, h), reference_join(g, h))):
            assert (mine.n, mine.rows, mine.name) == (ref.n, ref.rows, ref.name)
            assert isinstance(mine.rows, tuple)

    @given(small_graphs(6))
    @settings(max_examples=60, deadline=None)
    def test_mycielskian_edge_law(self, g):
        m = mycielskian(g)
        assert m.n == 2 * g.n + 1
        assert m.edge_count == 3 * g.edge_count + g.n


class TestColoring:
    def test_palette_counts_distinct(self):
        assert Coloring((0, 2, 0)).palette == 2
        assert Coloring(()).palette == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Coloring((0, -1))

    def test_compacted_preserves_classes(self):
        c = Coloring((5, 2, 5, 7)).compacted()
        assert c.colors == (0, 1, 0, 2)
        assert c.palette == 3


class TestRandomGraphProperties:
    @given(st.integers(min_value=0, max_value=64))
    @settings(max_examples=30, deadline=None)
    def test_gnp_extremes(self, seed):
        assert gnp(8, 0.0, seed).edge_count == 0
        assert gnp(8, 1.0, seed).edge_count == 28

    @given(small_graphs())
    @settings(max_examples=60, deadline=None)
    def test_complement_involution(self, g):
        assert list(complement(complement(g)).edges()) == list(g.edges())

    @given(small_graphs(), small_graphs())
    @settings(max_examples=60, deadline=None)
    def test_join_order_law(self, g, h):
        j = join(g, h)
        assert j.n == g.n + h.n
        assert j.edge_count == g.edge_count + h.edge_count + g.n * h.n


class TestCoComponents:
    @given(small_graphs(), st.integers(min_value=0, max_value=2**8 - 1))
    @settings(max_examples=60, deadline=None)
    def test_are_the_components_of_the_complement(self, g, mask):
        m = mask & g.full_mask
        assert co_components(g, m) == components(complement(g), m)

    def test_join_splits_into_its_sides(self):
        j = join(join(cycle(5), empty(1)), named_graph("grotzsch"))
        assert co_components(j, j.full_mask) == [0b11111, 1 << 5, ((1 << 11) - 1) << 6]
        assert co_components(cycle(5), 0b11111) == [0b11111]
        assert co_components(empty(3), 0) == []
