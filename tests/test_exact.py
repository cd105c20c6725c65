"""Exact clique and chromatic solvers against brute-force oracles."""

import inspect
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chibound import (
    BudgetExhausted,
    ChromaticResult,
    CliqueResult,
    Coloring,
    Graph,
    SolveBudget,
    chromatic_number,
    clique_number,
    complete,
    cycle,
    disjoint_union,
    empty,
    extremal_family,
    gnp,
    greedy_coloring,
    join,
    mycielskian,
    named_graph,
    read_graph6,
    require_chromatic,
    require_clique_number,
    verify_coloring,
)
from chibound import exact
from chibound.graphs import bits, co_components, mask_of, vertex_mask

from oracles import (
    brute_chromatic_number,
    brute_clique_number,
    has_edge,
    reference_first_fit,
    reference_greedy_maximal_clique,
    reference_k_color_search,
    reference_level_k_color_search,
    reference_max_clique_search,
    restrict,
    subset_chromatic_number,
)


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
                assert has_edge(g, u, v)

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=50, deadline=None)
    def test_matches_oracle(self, seed):
        g = gnp(6, 0.5, seed)
        assert clique_number(g).value == brute_clique_number(g)

    def test_bounds_that_meet_are_a_proof(self):
        # A KiteFree hunt result whose search runs out holding a clique as
        # large as its first-fit bound.
        g = read_graph6("K|Nz^~}~}}fn")
        budget = SolveBudget(node_limit=5)
        res = clique_number(g, budget)
        assert not res.complete and (res.lower, res.upper) == (7, 7)
        assert res.value == 7 == clique_number(g).value
        assert require_clique_number(g, budget) == res
        cut = clique_number(g, SolveBudget(node_limit=1))
        assert cut.lower < cut.upper and cut.value is None
        with pytest.raises(BudgetExhausted, match="clique number unresolved"):
            require_clique_number(g, SolveBudget(node_limit=1))

    def test_deep_clique_runs_without_deep_recursion(self):
        # The join of 100 copies of K2 + K3, copy i on ids 5i..5i+4 with its
        # K2 first: the greedy classes do not close the search at its root.
        # clique_number splits the join and searches each copy on its own;
        # k_colorable searches it whole and grows a clique of 300 vertices
        # one branch per vertex.  A call per branch would pass a limit of 60
        # frames above the caller's.
        n = 500
        g = Graph(n, [
            (u, v) for u in range(n) for v in range(u + 1, n)
            if u // 5 != v // 5 or (u % 5 < 2) == (v % 5 < 2)
        ])
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 60)
        try:
            res = clique_number(g)
            assert not exact.k_colorable(g, 299)
        finally:
            sys.setrecursionlimit(limit)
        assert (res.value, res.complete, res.nodes_used) == (300, True, 299)
        assert _is_clique(g, res.vertices)


class TestRootBoundCloses:
    """Hosts whose root greedy classes number no more than the greedy
    clique: the solve ends at its root node with the reference's clique."""

    @staticmethod
    def _hosts():
        g = named_graph("schlafli_complement")
        triangle = mask_of(clique_number(g).vertices)
        return [(complete(5), None), (empty(5), None), (cycle(4), None), (g, triangle)]

    def test_one_node_and_the_reference_clique(self):
        for g, within in self._hosts():
            res = clique_number(g, within=within)
            ticker = exact._Ticker(SolveBudget())
            best, done, upper = reference_max_clique_search(
                g.rows, vertex_mask(g, within), ticker
            )
            assert res.nodes_used == 1 == ticker.nodes
            assert (res.vertices, res.complete, res.upper) == (tuple(best), done, upper)
            assert res.value == len(best)


class TestGreedySeed:
    """The greedy maximal clique against the oracle's seed, picked by max
    over (degree inside the mask, -id)."""

    @given(
        st.integers(min_value=0, max_value=12),
        st.sampled_from([0.0, 0.3, 0.5, 0.8, 1.0]),
        st.integers(min_value=0, max_value=2**32),
        st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_random_masks(self, n, p, seed, data):
        g = gnp(n, p, seed)
        mask = data.draw(st.integers(min_value=0, max_value=g.full_mask))
        got = exact._greedy_maximal_clique(g.rows, mask)
        assert got == reference_greedy_maximal_clique(g.rows, mask)

    def test_tied_degrees_and_the_empty_mask(self):
        # Every degree ties in a regular host, so the lowest id seeds.
        for n in range(13):
            for g in (empty(n), complete(n), *([cycle(n)] if n >= 3 else [])):
                for mask in (0, g.full_mask, g.full_mask & 0b101101101101):
                    got = exact._greedy_maximal_clique(g.rows, mask)
                    assert got == reference_greedy_maximal_clique(g.rows, mask)
        assert exact._greedy_maximal_clique(cycle(5).rows, 0) == []
        assert exact._greedy_maximal_clique(cycle(5).rows, 0b11111) == [0, 1]


class TestCliqueSearchReference:
    """The clique search on a list of frames against the recursive search it
    replaced: the same clique, bound and completeness at the same node."""

    @given(
        st.integers(min_value=0, max_value=16),
        st.sampled_from([0.3, 0.5, 0.7, 0.9]),
        st.integers(min_value=0, max_value=2**32),
        st.sampled_from([1, 3, 40, 10_000]),
    )
    @settings(max_examples=200, deadline=None)
    def test_random_graphs(self, n, p, seed, nodes):
        g = gnp(n, p, seed)
        runs = []
        for search in (exact._max_clique_search, reference_max_clique_search):
            ticker = exact._Ticker(SolveBudget(node_limit=nodes))
            runs.append((search(g.rows, g.full_mask, ticker), ticker.nodes))
        assert runs[0] == runs[1]


class TestChromaticNumber:
    def test_named_values(self):
        assert chromatic_number(cycle(5)).value == 3
        assert chromatic_number(named_graph("schlafli_complement")).value == 6
        doubled = join(named_graph("grotzsch"), named_graph("grotzsch"))
        assert chromatic_number(doubled).value == 8

    def test_long_odd_cycle(self):
        # Deeper than Python's default recursion limit: the k search colors
        # one vertex per step.
        g = cycle(999)
        res = chromatic_number(g)
        assert res.complete and res.value == 3
        assert res.nodes_used == 998
        assert verify_coloring(g, res.coloring) is None

    def test_search_effort_is_pinned(self):
        # Node counts are deterministic: a count that moves means the k
        # search's vertex or color order moved.
        assert chromatic_number(named_graph("schlafli_complement")).nodes_used == 7020
        assert chromatic_number(extremal_family("kite-odd", 2)).nodes_used == 7048

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

    def test_time_limit_ends_the_search(self):
        # The k = 5 refutation takes about 7,000 nodes; the clock is read
        # every _CLOCK_STRIDE nodes, and the first reading is past the
        # deadline.  k = 3 and k = 4 are refuted by then.
        g = named_graph("schlafli_complement")
        res = chromatic_number(g, SolveBudget(time_limit=1e-9))
        assert (res.lower, res.upper, res.complete) == (5, 6, False)
        assert res.nodes_used == exact._CLOCK_STRIDE
        assert verify_coloring(g, res.coloring) is None

    def test_exhaustion_inside_the_k_coloring_search(self):
        # A prime graph (order 23, chi 5): the clique search finishes
        # (omega 2, 8 nodes) and the k = 2 and k = 3 searches prove
        # uncolorability; the budget runs out at k = 4, which is then the
        # proven lower bound.
        g = mycielskian(named_graph("grotzsch"))
        res = chromatic_number(g, SolveBudget(node_limit=300))
        assert (res.lower, res.upper, res.complete, res.nodes_used) == (4, 5, False, 301)
        assert res.coloring is not None and res.coloring.palette == 5
        assert verify_coloring(g, res.coloring) is None

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=40, deadline=None)
    def test_matches_oracle(self, seed):
        g = gnp(6, 0.5, seed)
        assert chromatic_number(g).value == brute_chromatic_number(g)

    @given(st.integers(min_value=0, max_value=2**32), st.sampled_from([0.2, 0.5, 0.8]))
    @settings(max_examples=30, deadline=None)
    def test_subset_oracle_matches_brute_force(self, seed, p):
        g = gnp(7, p, seed)
        assert subset_chromatic_number(g) == brute_chromatic_number(g)

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
        st.integers(min_value=0, max_value=9),
        st.sampled_from([0.3, 0.5, 0.7]),
        st.integers(min_value=0, max_value=2**32),
        st.sampled_from([3, 40, 10_000]),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_induced_copy(self, n, p, seed, nodes):
        # The host has random edges outside the mask too, so a read that
        # escapes the mask sees neighbors the induced copy lacks.
        sub = gnp(n, p, seed)
        g, mask = _embedded(sub, seed)
        keep = list(bits(mask))
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
        for cap in (lambda w: 2 * w, lambda w: 4, lambda w: 2):
            assert _bounded(g, cap, budget, mask) == _bounded(sub, cap, budget, None)

    def test_degree_is_read_within_the_mask(self):
        # Vertex 3 lies outside the mask.  Its edges must not count toward
        # the degrees the k search breaks ties by: counted, they give the
        # 3-coloring (0, 1, 0, 2, 1, 1, 2).
        g = gnp(8, 0.5, 3)
        mask = 247
        mine = chromatic_number(g, within=mask)
        assert mine == chromatic_number(g.induced(list(bits(mask))))
        assert mine.coloring == Coloring((0, 1, 1, 1, 1, 0, 2))

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


def _bounded(g: Graph, cap, budget: SolveBudget, within: int | None):
    """require_coloring's result, or the message of its BudgetExhausted."""
    try:
        return exact.require_coloring(g, cap, budget, within=within)
    except BudgetExhausted as e:
        return str(e)


def _reference_on_masked_rows(rows, full, k, ticker, clique):
    """The reference k search, which reads a row's bit count as the degree,
    on the rows cut to the solved set."""
    return reference_k_color_search(
        [r & full for r in rows], list(bits(full)), k, ticker, clique
    )


def _same_as_reference(g: Graph, budget: SolveBudget, within: int | None = None):
    """The solve with the k search swapped for the reference search gives
    the same result, bounds, node count and coloring included."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exact, "_k_color_search", _reference_on_masked_rows)
        ref = chromatic_number(g, budget, within=within)
    assert chromatic_number(g, budget, within=within) == ref


class TestKColorable:
    """One k search with the greedy maximal clique precolored."""

    @given(
        st.integers(min_value=0, max_value=7),
        st.sampled_from([0.3, 0.5, 0.7]),
        st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_oracle(self, n, p, seed):
        g = gnp(n, p, seed)
        chi = brute_chromatic_number(g)
        for k in range(n + 1):
            assert exact.k_colorable(g, k) == (chi <= k), k

    def test_effort_is_pinned_by_the_budget(self):
        # chi 6, omega 3: the clique search and the refutation of k = 5 take
        # 6,863 nodes; the clique search and a 6-coloring take 36.
        g = named_graph("schlafli_complement")
        assert exact.k_colorable(g, 5, SolveBudget(node_limit=6863)) is False
        with pytest.raises(BudgetExhausted):
            exact.k_colorable(g, 5, SolveBudget(node_limit=6862))
        assert exact.k_colorable(g, 6, SolveBudget(node_limit=36)) is True
        with pytest.raises(BudgetExhausted):
            exact.k_colorable(g, 6, SolveBudget(node_limit=35))

    def test_clique_above_k_answers_under_any_budget(self):
        # The greedy maximal clique of K5 plus a pendant vertex is the K5,
        # so no search step is needed to refute k <= 4.
        g = Graph(6, [*complete(5).edges(), (4, 5)])
        for k in range(5):
            assert exact.k_colorable(g, k, SolveBudget(node_limit=1)) is False

    def test_clique_search_settles_what_the_greedy_clique_misses(self):
        # Omega 9 in this 16-vertex C5-free graph (a hunt candidate), but
        # the greedy maximal clique has 5 vertices: a k search from it takes
        # 2,977 nodes to refute k = 8, where the clique search takes 9.
        g = read_graph6("OdtxmO}uXnetnzNjxM}qb")
        assert len(exact._greedy_maximal_clique(g.rows, g.full_mask)) == 5
        assert exact.k_colorable(g, 8, SolveBudget(node_limit=9)) is False
        assert exact.k_colorable(g, 9, SolveBudget(node_limit=17)) is True


class TestKColorSearchReference:
    """The mask-based k search against the per-vertex scan it replaced."""

    @given(
        st.integers(min_value=0, max_value=14),
        st.sampled_from([0.3, 0.5, 0.7]),
        st.integers(min_value=0, max_value=2**32),
        st.none() | st.integers(min_value=0, max_value=2**14 - 1),
        st.sampled_from([3, 40, 10_000]),
    )
    @settings(max_examples=300, deadline=None)
    def test_random_graphs(self, n, p, seed, mask, nodes):
        g = gnp(n, p, seed)
        within = None if mask is None else mask & g.full_mask
        _same_as_reference(g, SolveBudget(node_limit=nodes), within)

    def test_schlafli_complement_across_budgets(self):
        g = named_graph("schlafli_complement")
        for nodes in range(1, 7021, 97):
            _same_as_reference(g, SolveBudget(node_limit=nodes))


class TestKColorSearchLevels:
    """The k search against the level search it replaced, which walked all
    k + 1 levels on every lift and undo: the same coloring or None, at the
    same node, for every k from a precolored maximum clique up to the
    greedy palette."""

    @staticmethod
    def _run(search, g: Graph, k: int, clique: list[int], budget: SolveBudget):
        ticker = exact._Ticker(budget)
        # The reference takes the vertex list, the search the vertex mask.
        verts = list(g.vertices()) if search is reference_level_k_color_search else g.full_mask
        try:
            found = search(g.rows, verts, k, ticker, clique)
        except exact._OutOfBudget:
            return "out of budget", ticker.nodes
        return found, ticker.nodes

    @given(
        st.integers(min_value=0, max_value=16),
        st.sampled_from([0.2, 0.4, 0.5, 0.6, 0.8]),
        st.integers(min_value=0, max_value=2**32),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_random_graphs(self, n, p, seed, data):
        g = gnp(n, p, seed)
        clique, complete, _ = exact._max_clique_search(
            g.rows, g.full_mask, exact._Ticker(SolveBudget())
        )
        assert complete
        for k in range(len(clique), greedy_coloring(g).palette + 1):
            runs = [
                self._run(search, g, k, clique, SolveBudget())
                for search in (exact._k_color_search, reference_level_k_color_search)
            ]
            assert runs[0] == runs[1], k
            nodes = runs[0][1]
            if nodes > 1:
                cut = SolveBudget(node_limit=data.draw(st.integers(1, nodes - 1)))
                mine = self._run(exact._k_color_search, g, k, clique, cut)
                assert mine == self._run(reference_level_k_color_search, g, k, clique, cut)
                assert mine == ("out of budget", cut.node_limit + 1), k


class TestUnrestrictedRows:
    """The solvers hand the clique and k searches the graph's own rows and
    the mask of the set they solve: each search must confine itself to the
    mask, giving the result of a search of the rows cut to it, at the same
    node count."""

    @given(
        st.integers(min_value=0, max_value=16),
        st.sampled_from([0.2, 0.5, 0.8]),
        st.integers(min_value=0, max_value=2**32),
        st.integers(min_value=0, max_value=2**16 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_same_result_and_nodes(self, n, p, seed, mask):
        host = gnp(n, p, seed)
        cut, full = restrict(host, mask & host.full_mask)

        def both(search):
            runs = []
            for rows in (cut, host.rows):
                ticker = exact._Ticker(SolveBudget())
                runs.append((search(rows, ticker), ticker.nodes))
            assert runs[0] == runs[1]
            return runs[0][0]

        for g in (None, host):
            clique, _, _ = both(lambda rows, t: exact._max_clique_search(rows, full, t, g=g))
        for k in range(len(clique), exact._greedy(cut, full).palette + 1):
            both(lambda rows, t: exact._k_color_search(rows, full, k, t, clique))


# The path 0-2-3-1: first-fit by id uses 3 colors where 2 suffice.
BAD_FIRST_FIT_P4 = Graph(4, [(0, 2), (2, 3), (3, 1)])
# Omega 2, chi 3, first-fit by id 4: the k search runs past the clique size.
GAPPED = Graph(7, [(0, 2), (0, 4), (0, 5), (1, 2), (1, 3), (1, 6), (3, 5), (4, 6), (5, 6)])


def _is_clique(g: Graph, vertices) -> bool:
    return all(has_edge(g, u, v) for i, u in enumerate(vertices) for v in vertices[i + 1 :])


def _with_edge(g: Graph) -> Graph:
    """g with the edge 0-1 added, so that it is not edgeless."""
    return Graph(g.n, [*g.edges(), (0, 1)])


def _embedded(g: Graph, seed: int) -> tuple[Graph, int]:
    """A host with g induced on a random vertex mask, in ascending id order,
    and random edges everywhere else; returns (host, mask)."""
    rng = random.Random(seed)
    n = g.n + 3
    keep = sorted(rng.sample(range(n), g.n))
    edges = {(keep[u], keep[v]) for u, v in g.edges()}
    for u in range(n):
        for v in range(u + 1, n):
            if not (u in keep and v in keep) and rng.random() < 0.5:
                edges.add((u, v))
    return Graph(n, edges), sum(1 << v for v in keep)


class TestJoinSplit:
    """Joins are solved over their co-components; answers are checked
    against brute force.  The chromatic reference is the sum of the parts'
    brute-force values (chi adds over a join), because brute force on a
    whole join of order 9 would try up to 9**9 assignments."""

    def _check(self, parts: list[Graph], seed: int):
        j = parts[0]
        for part in parts[1:]:
            j = join(j, part)
        omega = brute_clique_number(j)
        chi = sum(brute_chromatic_number(part) for part in parts)

        res = clique_number(j)
        assert res.value == omega
        assert len(res.vertices) == omega
        assert _is_clique(j, res.vertices)
        # The witness holds a maximum clique of each part.
        for part in co_components(j, j.full_mask):
            held = sum(1 for v in res.vertices if part >> v & 1)
            assert held == clique_number(j, within=part).value
        col = chromatic_number(j)
        assert col.value == chi
        assert col.coloring.palette == chi
        assert verify_coloring(j, col.coloring) is None

        host, mask = _embedded(j, seed)
        keep = [v for v in host.vertices() if mask >> v & 1]
        for budget in (None, SolveBudget(node_limit=1 + seed % 50)):
            mine = clique_number(host, budget, within=mask)
            ref = clique_number(j, budget)
            assert mine.vertices == tuple(keep[i] for i in ref.vertices)
            assert (mine.lower, mine.upper, mine.complete, mine.nodes_used) == (
                ref.lower, ref.upper, ref.complete, ref.nodes_used,
            )
            assert chromatic_number(host, budget, within=mask) == chromatic_number(j, budget)

        for limit in range(1, 51):
            budget = SolveBudget(node_limit=limit)
            res = clique_number(j, budget)
            assert res.lower <= omega <= res.upper
            assert res.nodes_used <= limit + 1
            assert len(res.vertices) == res.lower
            assert _is_clique(j, res.vertices)
            col = chromatic_number(j, budget)
            assert col.lower <= chi <= col.upper
            assert col.nodes_used <= limit + 1
            assert col.coloring.palette == col.upper
            assert verify_coloring(j, col.coloring) is None

    @given(
        st.integers(min_value=0, max_value=2**32),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_two_parts(self, seed, na, nb):
        self._check([gnp(na, 0.5, seed), gnp(nb, 0.5, seed + 1)], seed)

    @given(
        st.integers(min_value=0, max_value=2**32),
        st.lists(st.integers(min_value=2, max_value=3), min_size=2, max_size=2),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=2),
    )
    @settings(max_examples=40, deadline=None)
    def test_three_parts_at_most_one_edgeless(self, seed, orders, nc, slot):
        parts = [_with_edge(gnp(n, 0.5, seed + i)) for i, n in enumerate(orders)]
        parts.insert(slot, gnp(nc, 0.5, seed + 2))
        self._check(parts, seed)

    @pytest.mark.parametrize(
        "parts",
        [
            [cycle(5), cycle(5)],
            [BAD_FIRST_FIT_P4, cycle(5)],
            [GAPPED, cycle(5)],
            [BAD_FIRST_FIT_P4, empty(1), BAD_FIRST_FIT_P4],
            [cycle(5), complete(2), cycle(7)],
            [gnp(5, 0.5, 89), gnp(4, 0.5, 90)],
        ],
    )
    def test_fixed_joins(self, parts):
        # On the first five joins first-fit uses more colors than the clique
        # size, so the chromatic solve splits and runs the k search inside
        # the parts.  On the last, the parts' maximum cliques differ from
        # the witness of the unsplit search.
        self._check(parts, 0)

    def test_budget_spans_every_part(self):
        # Three Grotzsch parts: once one part runs out, the parts after it
        # take their greedy bounds without ticking again.
        grotzsch = named_graph("grotzsch")
        g = join(join(grotzsch, grotzsch), grotzsch)
        for limit in range(1, 120):
            budget = SolveBudget(node_limit=limit)
            res = clique_number(g, budget)
            assert res.nodes_used <= limit + 1 and res.lower <= 6 <= res.upper
            col = chromatic_number(g, budget)
            assert col.nodes_used <= limit + 1 and col.lower <= 12 <= col.upper

    def test_split_join_returns_the_parts_union(self):
        # Two Grotzsch parts: the split proves omega 4 in 9 nodes (103
        # unsplit).  Each part keeps its share of the greedy clique it
        # starts from, so that clique is the witness.
        res = clique_number(join(named_graph("grotzsch"), named_graph("grotzsch")))
        assert res == CliqueResult((5, 10, 11, 12), 4, 4, True, 9)

    def test_one_nontrivial_part_is_searched_whole(self):
        # K1 + Grotzsch has one part with an edge, so it is not split: the
        # witness and node counts are those of the unsplit search.
        g = join(complete(1), named_graph("grotzsch"))
        assert clique_number(g) == CliqueResult((0, 1, 2), 3, 3, True, 4)
        assert chromatic_number(g) == ChromaticResult(
            5, 5, Coloring((0, 1, 2, 1, 2, 3, 1, 2, 1, 2, 3, 4)), True, 23
        )


class TestGivenClique:
    """A solve given a clique runs no clique search of its own."""

    @given(
        st.integers(min_value=0, max_value=2**32),
        st.sampled_from([0.3, 0.5, 0.8]),
        st.integers(min_value=0, max_value=2**10 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_own_clique_is_the_plain_solve_less_its_search(self, seed, p, mask):
        g = gnp(10, p, seed)
        for within in (None, mask):
            omega = clique_number(g, within=within)
            plain = chromatic_number(g, within=within)
            mine = chromatic_number(g, within=within, clique=omega.vertices)
            assert (mine.lower, mine.upper, mine.coloring, mine.complete) == (
                plain.lower, plain.upper, plain.coloring, plain.complete,
            )
            assert mine.nodes_used == plain.nodes_used - omega.nodes_used
            assert require_chromatic(g, within=within, clique=omega.vertices) == (
                plain.value, plain.coloring,
            )
            # Any clique is a correct start, the empty one included.
            for start in ([], omega.vertices[:1]):
                assert chromatic_number(g, within=within, clique=start).value == plain.value

    def test_rejects_a_non_clique(self):
        g = cycle(5)
        for bad in ([0, 2], [0, 1, 2], [0, 0], [5], [-1]):
            with pytest.raises(ValueError):
                chromatic_number(g, clique=bad)
        with pytest.raises(ValueError):
            chromatic_number(g, within=0b01110, clique=[0, 1])
        with pytest.raises(ValueError):
            require_chromatic(g, within=0b00110, clique=[1, 2, 3])


def _first_fit_tree(k: int) -> Graph:
    """The binomial tree on 2**(k-1) vertices, numbered so that first fit
    along ascending ids takes k colors: the root of each subtree comes after
    the subtrees below it, whose roots first fit colors 0, 1, ..."""
    edges = []

    def build(k: int, start: int) -> tuple[int, int]:
        nxt, roots = start, []
        for j in range(1, k):
            root, nxt = build(j, nxt)
            roots.append(root)
        edges.extend((root, nxt) for root in roots)
        return nxt, nxt + 1

    return Graph(build(k, 0)[1], edges)


CAPS = {"2w": lambda w: 2 * w, "4": lambda w: 4, "2": lambda w: 2}


def _check_bounded_coloring(g: Graph, mask: int, cap) -> None:
    """require_coloring against require_chromatic on G[mask], part by part:
    a proper coloring, the exact one on a part whose chi is its omega or at
    least its cap, and at most cap colors on any other part."""
    clique = clique_number(g, within=mask).vertices
    res = exact.require_coloring(g, cap, within=mask, clique=clique)
    chi, ref = require_chromatic(g, within=mask, clique=clique)
    keep = list(bits(mask))
    assert verify_coloring(g.induced(keep), res.coloring) is None
    assert res.lower <= chi <= res.upper == res.coloring.palette
    assert res.complete == (res.lower == res.upper)
    assert res.value in (None, chi)
    for part in exact._parts(g, mask):
        w = sum(1 for v in clique if part >> v & 1)
        part_chi, _ = require_chromatic(g, within=part)
        mine, exact_part = (
            Coloring(tuple(c for v, c in zip(keep, col.colors) if part >> v & 1)).compacted()
            for col in (res.coloring, ref)
        )
        if part_chi == w or part_chi >= cap(w):
            assert mine == exact_part
        else:
            assert mine.palette <= cap(w)


class TestBoundedColoring:
    """require_coloring probes k = omega, then the cap, per part."""

    @given(
        st.integers(min_value=0, max_value=2**32),
        st.sampled_from([0.3, 0.5, 0.8]),
        st.integers(min_value=0, max_value=2**10 - 1),
        st.sampled_from(sorted(CAPS)),
        st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_the_exact_solve_within_the_cap(self, seed, p, mask, cap, joined):
        g = join(gnp(5, p, seed), gnp(5, p, seed + 1)) if joined else gnp(10, p, seed)
        _check_bounded_coloring(g, mask, CAPS[cap])
        _check_bounded_coloring(g, g.full_mask, CAPS[cap])

    @pytest.mark.parametrize("cap", sorted(CAPS))
    def test_fixed_hosts(self, cap):
        # First fit takes 5 colors on the tree, whose union with C5 has
        # omega 2 and chi 3, so the probe runs at k = 4 under the caps 2w
        # and 4.  The joins probe each part at its own clique number.
        tree_c5 = disjoint_union(cycle(5), _first_fit_tree(5))
        grotzsch = named_graph("grotzsch")
        for g in (tree_c5, join(tree_c5, tree_c5), join(grotzsch, grotzsch),
                  named_graph("schlafli_complement"), extremal_family("kite-odd", 2)):
            _check_bounded_coloring(g, g.full_mask, CAPS[cap])

    def test_cap_above_greedy_returns_greedy_after_one_refutation(self):
        # Omega 3, chi 6, first fit 6: k = 3 is refuted in 5 nodes, and
        # 2 * omega meets the greedy palette, so no k = 4 or 5 search runs.
        # chi = 6 is not proven, so the result does not claim it.
        g = named_graph("schlafli_complement")
        clique = clique_number(g).vertices
        res = exact.require_coloring(g, lambda w: 2 * w, clique=clique)
        assert (res.lower, res.upper, res.complete, res.nodes_used) == (4, 6, False, 5)
        assert res.value is None and res.coloring == greedy_coloring(g)

    def test_budget_runs_out_inside_the_probe(self):
        g = named_graph("schlafli_complement")
        clique = clique_number(g).vertices
        with pytest.raises(BudgetExhausted, match=r"bounded coloring .* bounds \[3, 6\]"):
            exact.require_coloring(g, lambda w: 2 * w, SolveBudget(node_limit=4), clique=clique)


def _first_bad_edge(g: Graph, colors) -> tuple[int, int] | None:
    """Reference: scan the edges in lexicographic order."""
    return next(((u, v) for u, v in g.edges() if colors[u] == colors[v]), None)


class TestVerifyAndGreedy:
    def test_verify_examples(self):
        k3 = complete(3)
        assert verify_coloring(k3, Coloring((0, 1, 2))) is None
        assert verify_coloring(k3, Coloring((0, 0, 1))) == (0, 1)
        with pytest.raises(ValueError):
            verify_coloring(k3, Coloring((0, 1)))

    @given(
        st.integers(min_value=0, max_value=2**32),
        st.sampled_from([0.1, 0.5, 0.9]),
        st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=80, deadline=None)
    def test_verify_matches_an_edge_scan(self, seed, p, k):
        g = gnp(12, p, seed)
        rng = random.Random(seed)
        for colors in (
            greedy_coloring(g).colors,
            tuple(rng.randrange(k) for _ in g.vertices()),
            tuple(10**9 * rng.randrange(k) for _ in g.vertices()),
        ):
            assert verify_coloring(g, Coloring(colors)) == _first_bad_edge(g, colors)

    def test_greedy_examples(self):
        assert greedy_coloring(complete(5)).palette == 5
        assert greedy_coloring(empty(4)).palette == 1
        assert greedy_coloring(cycle(5)).palette == 3

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=40, deadline=None)
    def test_greedy_always_proper(self, seed):
        g = gnp(9, 0.4, seed)
        assert verify_coloring(g, greedy_coloring(g)) is None
        # First fit along 0..n-1: the least color no earlier neighbor has.
        colors = greedy_coloring(g).colors
        for v in g.vertices():
            earlier = {colors[w] for w in range(v) if g.rows[v] >> w & 1}
            assert colors[v] == min(set(range(v + 1)) - earlier)

    @given(st.integers(min_value=0, max_value=2**32), st.data())
    @settings(max_examples=40, deadline=None)
    def test_first_fit_along_a_partial_order(self, seed, data):
        # The least color no neighbor earlier in the order has; -1 off it.
        g = gnp(10, 0.5, seed)
        order = data.draw(st.permutations(range(g.n)))[: data.draw(st.integers(0, g.n))]
        colors = reference_first_fit(g.rows, order)
        for i, v in enumerate(order):
            earlier = {colors[w] for w in order[:i] if g.rows[v] >> w & 1}
            assert colors[v] == min(set(range(i + 1)) - earlier)
        assert all(colors[v] == -1 for v in g.vertices() if v not in order)

    @given(
        st.integers(min_value=0, max_value=2**32),
        st.sampled_from([0.2, 0.5, 0.8]),
        st.integers(min_value=0, max_value=2**16 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_greedy_classes_are_first_fit(self, seed, p, mask):
        # greedy_coloring, the chromatic solver's greedy on a mask, and the
        # class count of a clique search cut short at its root all read the
        # first fit along ascending ids.
        g = gnp(16, p, seed)
        assert list(greedy_coloring(g).colors) == reference_first_fit(g.rows, range(16))
        rows = [r & mask for r in g.rows]
        first_fit = reference_first_fit(rows, bits(mask))
        assert exact._greedy(rows, mask).colors == tuple(first_fit[v] for v in bits(mask))
        spent = exact._Ticker(SolveBudget(node_limit=1))
        spent.nodes = 1
        clique, complete, upper = exact._max_clique_search(rows, mask, spent)
        assert complete == (mask == 0)
        assert upper == max(first_fit) + 1


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
