"""Structural colorers: palette bounds, audits, branch coverage, reductions."""

import inspect
import random
import re
import sys
from functools import reduce
from operator import or_
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chibound import (
    COLORERS,
    BudgetExhausted,
    ClassMembershipError,
    Coloring,
    Graph,
    SampleConfig,
    SampleExhausted,
    SolveBudget,
    clique_number,
    color_c5_free,
    color_hammer_free,
    color_k4_free,
    color_kite_free,
    color_p2k3_free,
    complement,
    complete,
    cycle,
    disjoint_union,
    empty,
    evaluate_bound,
    extremal_family,
    gnp,
    greedy_coloring,
    join,
    named_graph,
    path,
    replay,
    sample_class,
    verify_coloring,
)
from chibound import colorers
from chibound.colorers import (
    _cluster,
    _dominated_pair,
    _fold_classes,
    _wrap,
)
from chibound.graphs import bits, components
from chibound.trace import ProofTrace

from oracles import FULL_PAPER_BINDINGS, REFERENCE_BINDINGS, reference_dominated_pair
from test_patterns import _CountedRows, _k2_first_join

# The only audit locations allowed to record a soft-gap verdict.
SOFT_ALLOWED = re.compile(r"^(split-hammer/j[23]-palette|second-nbhd/b\d+-palette)$")


def check_run(g, coloring, trace, bound):
    assert verify_coloring(g, coloring) is None
    assert coloring.palette <= bound
    assert trace.violated_count == 0
    for step in trace.steps:
        if step.verdict == "soft-gap":
            assert SOFT_ALLOWED.match(step.tag), step.tag


def classes_coloring(g, classes):
    """The coloring giving class i color i; each vertex must be in exactly
    one class."""
    assert reduce(or_, classes, 0) == g.full_mask
    assert sum(c.bit_count() for c in classes) == g.n
    colors = [0] * g.n
    for i, c in enumerate(classes):
        for v in bits(c):
            colors[v] = i
    return Coloring(tuple(colors))


class TestEvaluateBound:
    def test_values(self):
        assert evaluate_bound("KiteFree", 2) == 4
        assert evaluate_bound("HammerFree", 3) == 9
        assert evaluate_bound("C5Free", 3) == 15
        assert evaluate_bound("K4Free", 1) == 9
        assert evaluate_bound("K4Free", 3) == 9
        assert evaluate_bound("P2K3Free", 2) == 4
        assert evaluate_bound("K1K3Free", 3) == 6
        assert evaluate_bound("TriangleFree", 2) == 4
        assert evaluate_bound("P3P2", 3) == 10

    def test_bindings_match_the_abstract(self):
        # Every class either has a reference binding from the abstract or is
        # listed as resting on the full paper.
        assert sorted(colorers.BINDINGS) == sorted([*REFERENCE_BINDINGS, *FULL_PAPER_BINDINGS])
        for name, reference in REFERENCE_BINDINGS.items():
            for w in range(1, 13):
                assert colorers.BINDINGS[name](w) == reference(w), (name, w)

    def test_name_normalization(self):
        assert evaluate_bound("kitefree", 2) == 4

    def test_rejects_omega_below_one(self):
        with pytest.raises(ValueError, match="omega"):
            evaluate_bound("KiteFree", 0)

    def test_rejects_unknown_class(self):
        with pytest.raises(ValueError, match="unknown class"):
            evaluate_bound("PlanarFree", 2)

    def test_nondecreasing_in_omega(self):
        for name in ("KiteFree", "HammerFree", "C5Free", "K4Free", "P2K3Free"):
            values = [evaluate_bound(name, w) for w in range(1, 8)]
            assert values == sorted(values)


class TestClusterColor:
    """_cluster colors each component of G[m] as a clique, ids ascending:
    class i holds the i-th vertex of every component."""

    def test_two_triangles(self):
        g = named_graph("2k3")
        assert _cluster(g, g.full_mask) == [0b001001, 0b010010, 0b100100]

    def test_edgeless(self):
        assert _cluster(empty(5), 0b11111) == [0b11111]

    def test_palette_is_largest_component(self):
        g = disjoint_union(complete(2), complete(4))
        classes = _cluster(g, g.full_mask)
        assert len(classes) == 4
        assert verify_coloring(g, classes_coloring(g, classes)) is None


def _part_lookup(g, m):
    """Each vertex's co-component of G[m], read off the components of the
    complement."""
    return {v: part for part in components(complement(g), m) for v in bits(part)}


def _check_removals(g, order):
    """_dominated_pair agrees with the reference scan on the full mask and
    after each removal in order, given the full mask's lookup."""
    part_of = _part_lookup(g, g.full_mask)
    m = g.full_mask
    for v in order:
        assert _dominated_pair(g, m, part_of) == reference_dominated_pair(g, m)
        m &= ~(1 << v)


def _check_reduction(g):
    """The same along the kite reduction's own removals: each pair's
    dominated vertex leaves the mask."""
    part_of = _part_lookup(g, g.full_mask)
    m = g.full_mask
    while True:
        pair = _dominated_pair(g, m, part_of)
        assert pair == reference_dominated_pair(g, m)
        if pair is None:
            return
        m &= ~(1 << pair[0])


def _reduction(g):
    """The kite reduction on the whole of g, its core giving each vertex
    left a class of its own: its rules (u, v), read off the audit steps,
    and the classes after each u joins its donor v."""
    trace = ProofTrace("KiteFree", g)

    def own(trace, live):
        return [1 << v for v in bits(live)]
        yield

    with mock.patch.object(colorers, "_kite_core", own):
        classes = colorers._run(colorers._kite(trace, g.full_mask))
    rules = [
        (dict(s.sets)["removed"].bit_length() - 1, dict(s.sets)["donor"].bit_length() - 1)
        for s in trace.steps
        if s.tag == "reduce/dominated-pair"
    ]
    return rules, classes


def _check_rules(g):
    """The reduction's rules are those of a scan that restarts at the
    lowest live vertex after every removal, and each u takes v's class."""
    m, expected = g.full_mask, []
    while True:
        pair = reference_dominated_pair(g, m)
        if pair is None:
            break
        expected.append(pair)
        m &= ~(1 << pair[0])
    rules, classes = _reduction(g)
    assert rules == expected
    assert reduce(or_, classes, 0) == g.full_mask
    assert sum(c.bit_count() for c in classes) == g.n
    for u, v in rules:
        assert any(c >> u & c >> v & 1 for c in classes)


class TestDomination:
    """The kite procedure's reduction: remove the first vertex u whose
    neighborhood inside the part fits in a nonadjacent v's, then give u the
    color of v."""

    def test_cycle_has_no_dominated_pair(self):
        g = cycle(5)
        assert _dominated_pair(g, g.full_mask, _part_lookup(g, g.full_mask)) is None

    def test_edgeless_pair_reduces(self):
        assert _dominated_pair(empty(2), 0b11, _part_lookup(empty(2), 0b11)) == (0, 1)
        # Neighborhoods are taken inside the mask: C5 minus vertex 2 is the
        # path 3-4-0-1, where N(1) = {0} lies in N(4) = {0, 3}.
        g = cycle(5)
        assert _dominated_pair(g, 0b11011, _part_lookup(g, 0b11011)) == (1, 4)

    @given(
        st.integers(min_value=1, max_value=14),
        st.sampled_from([0.2, 0.5, 0.8]),
        st.integers(min_value=0, max_value=2**32),
        st.integers(min_value=0, max_value=2**14 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_scan(self, n, p, seed, picked):
        g = gnp(n, p, seed)
        for m in (g.full_mask, picked & g.full_mask):
            assert _dominated_pair(g, m, _part_lookup(g, m)) == reference_dominated_pair(g, m)

    @given(
        st.lists(st.integers(min_value=1, max_value=7), min_size=2, max_size=3),
        st.sampled_from([0.2, 0.5, 0.8]),
        st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=150, deadline=None)
    def test_joins_match_reference_after_removals(self, sizes, p, seed):
        # The lookup is the full mask's co-components, kept through the
        # removals, as in the kite reduction.
        g = reduce(join, [gnp(n, p, seed + i) for i, n in enumerate(sizes)])
        order = list(g.vertices())
        random.Random(seed).shuffle(order)
        _check_removals(g, order)
        _check_reduction(g)
        _check_rules(g)

    @pytest.mark.parametrize(
        "family, k",
        [("kite-even", k) for k in (1, 2, 3, 4)] + [("kite-odd", k) for k in (1, 2, 3)]
        + [("hammer", 1), ("k4", 1)],
    )
    def test_witnesses_match_reference_after_removals(self, family, k):
        g = extremal_family(family, k)
        order = list(g.vertices())
        random.Random(k).shuffle(order)
        _check_removals(g, order)
        _check_reduction(g)
        _check_rules(g)

    @given(
        st.lists(st.integers(min_value=1, max_value=6), min_size=2, max_size=3),
        st.sampled_from([0.2, 0.5, 0.8]),
        st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=100, deadline=None)
    def test_permuted_joins_reduce_as_a_restarted_scan(self, sizes, p, seed):
        # The parts interleave in id order, so the scan resumes below u.
        j = reduce(join, [gnp(n, p, seed + i) for i, n in enumerate(sizes)])
        perm = list(range(j.n))
        random.Random(seed).shuffle(perm)
        _check_rules(Graph(j.n, [(perm[u], perm[v]) for u, v in j.edges()]))

    @pytest.mark.parametrize("k", [1, 2, 3, 10, 31])
    def test_cocktail_party_reduces_as_a_restarted_scan(self, k):
        _check_rules(reduce(join, [empty(2)] * k))

    def test_cocktail_party_scan_is_linear(self, monkeypatch):
        # K_{2x300}: each pair (2i, 2i + 1) removes 2i, and the scan resumes
        # at 2i + 1, whose part is now itself.  Two row reads per vertex
        # scanned: a scan restarted at the lowest live vertex would read
        # every odd vertex below u again, about 90,000 rows.
        g = reduce(join, [empty(2)] * 300)
        counted = SimpleNamespace(rows=_CountedRows(g.rows, 2 * g.n))
        scan = colorers._dominated_pair
        monkeypatch.setattr(
            colorers, "_dominated_pair", lambda g, *args: scan(counted, *args)
        )
        rules, _ = _reduction(g)
        assert rules == [(u, u + 1) for u in range(0, g.n, 2)]
        assert counted.rows.reads == 2 * g.n

    def test_join_reads_no_row_outside_the_co_component(self):
        # K_{2x300}: vertex 0 has no neighbour in its co-component {0, 1},
        # so its own row (for the non-neighbours, then for the neighbours
        # inside) is all the scan reads, not its 598 neighbours' rows.
        g = reduce(join, [empty(2)] * 300)
        counted = SimpleNamespace(rows=_CountedRows(g.rows, 2))
        assert _dominated_pair(counted, g.full_mask, _part_lookup(g, g.full_mask)) == (0, 1)

    def test_star_fixpoint(self):
        star = Graph(4, [(0, 1), (0, 2), (0, 3)])
        coloring, trace = color_kite_free(star)
        pairs = [
            (dict(s.sets)["removed"], dict(s.sets)["donor"])
            for s in trace.steps
            if s.tag == "reduce/dominated-pair"
        ]
        assert pairs == [(1 << 1, 1 << 2), (1 << 2, 1 << 3)]
        assert verify_coloring(star, coloring) is None
        assert coloring.palette == 2


class TestFoldClasses:
    def test_disjoint_blocks_share_colors(self):
        g = named_graph("2k3")
        spread = [1 << v for v in g.vertices()]
        assert len(_fold_classes(g, spread)) == 3

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=40, deadline=None)
    def test_fold_never_hurts(self, seed):
        g = gnp(9, 0.4, seed)
        greedy = greedy_coloring(g)
        classes = [0] * greedy.palette
        for v, c in enumerate(greedy.colors):
            classes[c] |= 1 << v
        folded = _fold_classes(g, classes)
        assert len(folded) <= len(classes)
        assert verify_coloring(g, classes_coloring(g, folded)) is None


class TestWrap:
    """_wrap rejects a decomposition whose classes do not partition the
    vertices."""

    @staticmethod
    def _procedure(classes):
        """A procedure that recurses nowhere and returns classes(live)."""
        def rec(trace, live):
            return classes(live)
            yield

        return rec

    def test_overlapping_classes_raise(self):
        with pytest.raises(RuntimeError, match="partition"):
            _wrap("KiteFree", empty(3), None, self._procedure(lambda live: [live, 1]))

    def test_missed_vertex_raises(self):
        with pytest.raises(RuntimeError, match="partition"):
            _wrap("KiteFree", empty(3), None, self._procedure(lambda live: [live & ~1]))


class TestKiteFree:
    def test_tight_on_triangle_free_witness(self):
        g = named_graph("grotzsch")
        col, trace = color_kite_free(g)
        check_run(g, col, trace, 4)
        assert col.palette == 4
        assert trace.label == "KiteFree"

    def test_complete_graph_leaf(self):
        g = complete(5)
        col, trace = color_kite_free(g)
        check_run(g, col, trace, 10)
        assert col.palette == 5
        assert any(s.tag == "leaf/k1k3-absent" for s in trace.steps)

    def test_five_cycle(self):
        g = cycle(5)
        col, trace = color_kite_free(g)
        check_run(g, col, trace, 4)
        assert any(s.tag == "leaf/triangle-free" for s in trace.steps)

    def test_spare_edge_split_branch(self):
        g = disjoint_union(complete(3), complete(2))
        col, trace = color_kite_free(g)
        check_run(g, col, trace, 6)
        assert col.palette == 3
        assert any(s.tag == "split-p2k3/total" for s in trace.steps)

    def test_hammer_split_branch(self):
        # Seed found by scanning: this sample's decomposition reaches the
        # hammer split rather than dominating away or leafing out.
        g = sample_class(SampleConfig(n=9, p=0.5, seed=10, class_name="KiteFree"))
        col, trace = color_kite_free(g)
        check_run(g, col, trace, evaluate_bound("KiteFree", _omega_of(g)))
        assert any(s.tag == "split-hammer/total" for s in trace.steps)

    def test_join_doubles_and_stays_tight(self):
        g = join(named_graph("grotzsch"), named_graph("grotzsch"))
        col, trace = color_kite_free(g)
        check_run(g, col, trace, 8)
        assert col.palette == 8

    def test_budget_propagates(self):
        # Numbered v -> 4v mod 27, the Schlafli complement (omega 3, chi 6)
        # is one k1k3 leaf whose first fit takes 7 colors, past 2 * omega:
        # the leaf refutes k = 3 and then searches k = 6, 30 nodes in all,
        # more than any clique search of the run (at most 13).
        base = named_graph("schlafli_complement")
        g = Graph(27, [(4 * u % 27, 4 * v % 27) for u, v in base.edges()])
        assert greedy_coloring(g).palette == 7
        with pytest.raises(BudgetExhausted, match=r"bounded coloring .* bounds \[4, 7\]"):
            color_kite_free(g, SolveBudget(node_limit=29, time_limit=60))
        col, trace = color_kite_free(g, SolveBudget(node_limit=30, time_limit=60))
        check_run(g, col, trace, 6)
        assert col.palette == 6
        # On two joined Grotzsch graphs the leaves need 9 nodes and the
        # budget runs out in a clique search below that.
        g = join(named_graph("grotzsch"), named_graph("grotzsch"))
        with pytest.raises(BudgetExhausted, match="clique number"):
            color_kite_free(g, SolveBudget(node_limit=8, time_limit=60))

    def test_cocktail_party_reduces_to_a_clique(self):
        # K_{2x150}: each vertex is dominated by its nonadjacent twin, so
        # 150 reductions leave a clique, without a cubic rescan per step.
        g = Graph(300, [
            (u, v) for u in range(300) for v in range(u + 1, 300) if u // 2 != v // 2
        ])
        col, trace = color_kite_free(g)
        check_run(g, col, trace, 300)
        assert col.palette == 150
        assert replay(g, trace) == []

    def test_rejects_kite(self):
        with pytest.raises(ClassMembershipError) as exc:
            color_kite_free(named_graph("kite"))
        assert exc.value.witness.pattern == "kite"
        assert exc.value.class_name == "KiteFree"


def _omega_of(g):
    return max(1, clique_number(g).value)


class TestP2K3Free:
    def test_edgeless(self):
        g = empty(4)
        col, trace = color_p2k3_free(g)
        check_run(g, col, trace, 1)
        assert col.palette == 1

    def test_five_cycle(self):
        g = cycle(5)
        col, trace = color_p2k3_free(g)
        check_run(g, col, trace, 4)

    def test_triangle_free_witness(self):
        g = named_graph("grotzsch")
        col, trace = color_p2k3_free(g)
        check_run(g, col, trace, 4)

    def test_rejects_spare_edge_plus_triangle(self):
        with pytest.raises(ClassMembershipError) as exc:
            color_p2k3_free(disjoint_union(complete(3), complete(2)))
        assert exc.value.witness.pattern == "p2_union_k3"


class TestHammerFree:
    def test_twin_edge_branch(self):
        g = disjoint_union(complete(3), complete(2))
        col, trace = color_hammer_free(g)
        check_run(g, col, trace, 9)
        assert col.palette == 3
        assert any(s.tag == "twin-edge/total" for s in trace.steps)

    def test_triangle_free_witness(self):
        g = named_graph("grotzsch")
        col, trace = color_hammer_free(g)
        check_run(g, col, trace, 4)

    def test_rejects_hammer(self):
        with pytest.raises(ClassMembershipError) as exc:
            color_hammer_free(named_graph("hammer"))
        assert exc.value.witness.pattern == "hammer"


def _cocktail_party(k):
    """K_{2xk}: 2k vertices, each adjacent to all but its pair partner."""
    return Graph(2 * k, [
        (u, v) for u in range(2 * k) for v in range(u + 1, 2 * k) if u // 2 != v // 2
    ])


class TestC5Free:
    def test_complete_graph(self):
        g = complete(6)
        col, trace = color_c5_free(g)
        check_run(g, col, trace, evaluate_bound("C5Free", 6))
        assert col.palette == 6

    def test_diamond(self):
        g = named_graph("diamond")
        col, trace = color_c5_free(g)
        check_run(g, col, trace, evaluate_bound("C5Free", 3))
        assert col.palette == 3

    def test_rejects_five_cycle_host(self):
        with pytest.raises(ClassMembershipError) as exc:
            color_c5_free(named_graph("grotzsch"))
        assert exc.value.witness.pattern == "c5"

    @pytest.mark.parametrize("k", [10, 50, 200])
    def test_cocktail_party_trace_is_linear(self, k):
        # K_{2xk} goes one level per pair.  Each level claims its category-0
        # clique vertices' second-sphere parts empty in one step, over their
        # union, so the trace does not grow with the clique at each level.
        g = _cocktail_party(k)
        col, trace = color_c5_free(g)
        tags = [s.tag for s in trace.steps]
        assert len(trace.steps) == 13 * k - 24
        assert tags.count("second-nbhd/b-empty") == tags.count("second-nbhd/total")
        assert not [t for t in tags if re.fullmatch(r"second-nbhd/b\d+-empty", t)]
        assert replay(g, trace) == []

    @given(
        st.integers(6, 16),
        st.sampled_from([0.5, 0.7, 0.9]),
        st.integers(0, 2**32),
    )
    @settings(max_examples=60, deadline=None)
    def test_sampled_members_never_lack_a_low_category_neighbor(self, n, p, seed):
        # A root of largest degree always has a neighbor in a012, so the
        # RuntimeError in _c5_rec is never raised on a member.
        try:
            g = sample_class(SampleConfig(n=n, p=p, seed=seed, class_name="C5Free"))
        except SampleExhausted:
            return
        col, trace = color_c5_free(g)
        omega = clique_number(g).value
        check_run(g, col, trace, evaluate_bound("C5Free", omega))


class TestK4Free:
    def test_ten_regular_witness(self):
        g = named_graph("schlafli_complement")
        col, trace = color_k4_free(g)
        check_run(g, col, trace, 9)
        assert col.palette == 6

    def test_two_triangles_branch(self):
        g = named_graph("2k3")
        col, trace = color_k4_free(g)
        check_run(g, col, trace, 9)
        assert col.palette == 3
        assert any(s.tag == "two-triangles/total" for s in trace.steps)

    def test_spare_edge_branch(self):
        g = disjoint_union(complete(3), complete(2))
        col, trace = color_k4_free(g)
        check_run(g, col, trace, 9)
        assert col.palette == 3
        assert any(s.tag == "spare-edge/total" for s in trace.steps)

    def test_triangle_free_leaf(self):
        g = cycle(5)
        col, trace = color_k4_free(g)
        check_run(g, col, trace, 9)
        assert any(s.tag == "leaf/triangle-free" for s in trace.steps)

    def test_rejects_k4(self):
        with pytest.raises(ClassMembershipError) as exc:
            color_k4_free(complete(4))
        assert exc.value.witness.pattern == "k4"


class TestAcrossClasses:
    @pytest.mark.parametrize("colorer, host, palette", [
        (color_kite_free, "cocktail-party", 200),
        (color_hammer_free, "cocktail-party", 200),
        (color_p2k3_free, "cocktail-party", 200),
        (color_hammer_free, "twin-edge-tower", 210),
        (color_kite_free, "twin-edge-tower", 210),
        (color_c5_free, "twin-edge-tower", 210),
        (color_c5_free, "cocktail-party", 200),
    ])
    def test_long_chains_run_without_deep_recursion(self, colorer, host, palette):
        # On the cocktail party graph K_{2x200} the kite reduction removes
        # one dominated vertex per pair, and the clique-rooted chain and the
        # C5 procedure go one level per pair; the twin-edge chain and the
        # kite and C5 procedures go one level or more per K3+K2 of a join
        # of 70 of them.  Every colorer runs its levels on the one stack of
        # colorers._run, and the clique search runs on a list of frames, so
        # neither adds depth; a call per level would pass a limit of 60
        # frames above the caller's.
        if host == "cocktail-party":
            g = _cocktail_party(200)
        else:
            g = reduce(join, [disjoint_union(complete(3), complete(2))] * 70)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 60)
        try:
            col, trace = colorer(g)
        finally:
            sys.setrecursionlimit(limit)
        check_run(g, col, trace, palette * palette)
        assert col.palette == palette
        assert replay(g, trace) == []

    def test_hammer_colorer_on_k2_first_join(self):
        # 100 copies of K2 + K3 joined, each K2 first.  Every clique audit
        # solves the join part by part, so this takes a fraction of a second.
        g = _k2_first_join(100)
        col, trace = color_hammer_free(g)
        check_run(g, col, trace, 300 * 300)
        assert (col.palette, len(trace.steps)) == (300, 701)
        assert replay(g, trace) == []

    def test_rejects_p3_union_p2(self):
        bad = disjoint_union(path(3), complete(2))
        for colorer in COLORERS.values():
            with pytest.raises(ClassMembershipError) as exc:
                colorer(bad)
            assert exc.value.witness.pattern == "p3_union_p2"

    def test_deterministic(self):
        g = sample_class(SampleConfig(n=10, p=0.5, seed=3, class_name="HammerFree"))
        first, _ = color_hammer_free(g)
        second, _ = color_hammer_free(g)
        assert first.colors == second.colors

    @pytest.mark.parametrize("class_name", sorted(COLORERS))
    def test_sampled_members_stay_audited(self, class_name):
        p = 0.25 if class_name == "K4Free" else 0.5
        colorer = COLORERS[class_name]
        colored = 0
        for seed in range(30):
            try:
                g = sample_class(
                    SampleConfig(n=9, p=p, seed=seed, class_name=class_name, max_tries=300)
                )
            except SampleExhausted:
                continue
            col, trace = colorer(g)
            omega = _omega_of(g)
            check_run(g, col, trace, evaluate_bound(class_name, omega))
            colored += 1
        assert colored >= 10
