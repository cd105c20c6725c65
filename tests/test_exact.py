"""Exact clique and chromatic solvers against brute-force oracles."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chibound import (
    BudgetExhausted,
    Coloring,
    SolveBudget,
    chromatic_number,
    clique_number,
    complete,
    cycle,
    empty,
    gnp,
    greedy_coloring,
    join,
    named_graph,
    require_chromatic,
    require_clique_number,
    verify_coloring,
)

from oracles import brute_chromatic_number, brute_clique_number


class TestCliqueNumber:
    def test_named_values(self):
        assert clique_number(named_graph("grotzsch")).value == 2
        assert clique_number(complete(5)).value == 5
        assert clique_number(named_graph("schlafli_complement")).value == 3

    def test_witness_is_a_clique(self):
        res = clique_number(named_graph("schlafli_complement"))
        g = named_graph("schlafli_complement")
        assert len(res.vertices) == 3
        for i, u in enumerate(res.vertices):
            for v in res.vertices[i + 1 :]:
                assert g.has_edge(u, v)

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=50, deadline=None)
    def test_matches_oracle(self, seed):
        g = gnp(6, 0.5, seed)
        assert clique_number(g).value == brute_clique_number(g)


class TestChromaticNumber:
    def test_named_values(self):
        assert chromatic_number(cycle(5)).value == 3
        assert chromatic_number(named_graph("schlafli_complement")).value == 6
        doubled = join(named_graph("grotzsch"), named_graph("grotzsch"))
        assert chromatic_number(doubled).value == 8

    def test_empty_graph(self):
        res = chromatic_number(empty(0))
        assert res.value == 0 and res.coloring is not None

    def test_witness_is_proper_and_tight(self):
        g = named_graph("grotzsch")
        res = chromatic_number(g)
        assert res.value == 4
        assert res.coloring is not None
        assert verify_coloring(g, res.coloring) is None
        assert res.coloring.palette == 4

    def test_bounds_on_exhaustion(self):
        g = join(named_graph("grotzsch"), named_graph("grotzsch"))
        res = chromatic_number(g, SolveBudget(node_limit=10, time_limit=60))
        assert not res.complete
        assert res.lower <= 8 <= res.upper
        with pytest.raises(BudgetExhausted):
            require_chromatic(g, SolveBudget(node_limit=10, time_limit=60))
        with pytest.raises(BudgetExhausted):
            require_clique_number(g, SolveBudget(node_limit=2, time_limit=60))

    def test_exhaustion_inside_the_k_coloring_search(self):
        # The clique search finishes (omega 4) and the k = 4 and k = 5
        # searches prove uncolorability; the budget runs out at k = 6,
        # which is then the proven lower bound.
        g = join(named_graph("grotzsch"), named_graph("grotzsch"))
        res = chromatic_number(g, SolveBudget(node_limit=153))
        assert (res.lower, res.upper, res.complete, res.nodes_used) == (6, 8, False, 154)
        assert res.coloring is not None and res.coloring.palette == 8
        assert verify_coloring(g, res.coloring) is None

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=40, deadline=None)
    def test_matches_oracle(self, seed):
        g = gnp(6, 0.5, seed)
        assert chromatic_number(g).value == brute_chromatic_number(g)

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=30, deadline=None)
    def test_sandwich_and_monotonicity(self, seed):
        g = gnp(7, 0.5, seed)
        omega = clique_number(g).value
        chi = chromatic_number(g).value
        assert omega <= chi
        sub = g.induced([0, 2, 4, 6])
        assert chromatic_number(sub).value <= chi

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=25, deadline=None)
    def test_join_additivity(self, seed):
        g = gnp(5, 0.5, seed)
        h = gnp(5, 0.5, seed + 1)
        j = join(g, h)
        assert (
            chromatic_number(j).value
            == chromatic_number(g).value + chromatic_number(h).value
        )
        assert clique_number(j).value == clique_number(g).value + clique_number(h).value


class TestWithinMask:
    """A masked solve answers exactly as a solve of the induced copy."""

    @given(
        st.integers(min_value=0, max_value=2**32),
        st.integers(min_value=0, max_value=2**9 - 1),
        st.sampled_from([3, 40, 10_000]),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_induced_copy(self, seed, mask, nodes):
        g = gnp(9, 0.5, seed)
        keep = [v for v in g.vertices() if mask >> v & 1]
        sub = g.induced(keep)
        budget = SolveBudget(node_limit=nodes)
        mine = clique_number(g, budget, within=mask)
        ref = clique_number(sub, budget)
        assert mine.vertices == tuple(keep[i] for i in ref.vertices)
        assert (mine.lower, mine.upper, mine.complete, mine.nodes_used) == (
            ref.lower, ref.upper, ref.complete, ref.nodes_used,
        )
        mine = chromatic_number(g, budget, within=mask)
        ref = chromatic_number(sub, budget)
        assert mine == ref

    def test_whole_mask_is_the_whole_graph(self):
        g = named_graph("grotzsch")
        assert chromatic_number(g, within=g.full_mask) == chromatic_number(g)
        assert clique_number(g, within=g.full_mask) == clique_number(g)

    def test_empty_mask(self):
        g = complete(4)
        assert clique_number(g, within=0).value == 0
        assert require_chromatic(g, within=0) == (0, Coloring(()))

    def test_mask_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            clique_number(complete(3), within=1 << 3)
        with pytest.raises(ValueError, match="out of range"):
            chromatic_number(complete(3), within=-1)

    def test_require_variants_take_the_mask(self):
        g = join(cycle(5), complete(2))
        assert require_clique_number(g, within=0b11111).value == 2
        value, coloring = require_chromatic(g, within=0b11111)
        assert value == 3 and coloring.n == 5


class TestVerifyAndGreedy:
    def test_verify_examples(self):
        k3 = complete(3)
        assert verify_coloring(k3, Coloring((0, 1, 2))) is None
        assert verify_coloring(k3, Coloring((0, 0, 1))) == (0, 1)
        with pytest.raises(ValueError):
            verify_coloring(k3, Coloring((0, 1)))

    def test_greedy_examples(self):
        assert greedy_coloring(complete(5)).palette == 5
        assert greedy_coloring(empty(4)).palette == 1
        assert greedy_coloring(cycle(5)).palette == 3

    def test_greedy_needs_permutation(self):
        for order in ([0, 1], [0, 0, 1], [0, 1, 3]):
            with pytest.raises(ValueError, match="permutation"):
                greedy_coloring(complete(3), order=order)

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=40, deadline=None)
    def test_greedy_always_proper(self, seed):
        g = gnp(9, 0.4, seed)
        assert verify_coloring(g, greedy_coloring(g)) is None
        assert greedy_coloring(g) == greedy_coloring(g, order=list(range(9)))


class TestBudgetValidation:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            SolveBudget(node_limit=0)
        with pytest.raises(ValueError):
            SolveBudget(time_limit=0)

    def test_rejects_nan(self):
        nan = float("nan")
        with pytest.raises(ValueError, match="time_limit"):
            SolveBudget(time_limit=nan)
        with pytest.raises(ValueError, match="node_limit"):
            SolveBudget(node_limit=nan)
