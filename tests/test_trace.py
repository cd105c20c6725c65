"""Audit-step evaluation, trace recording, and replay."""

from dataclasses import is_dataclass, replace
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chibound import (
    COLORERS,
    AuditViolation,
    BudgetExhausted,
    Graph,
    ProofTrace,
    SampleConfig,
    SolveBudget,
    TraceStep,
    class_by_name,
    color_k4_free,
    color_kite_free,
    complete,
    cycle,
    disjoint_union,
    empty,
    evaluate_step,
    gnp,
    is_member,
    join,
    named_graph,
    path,
    read_graph6,
    replay,
    sample_class,
)
from chibound.trace import CLAIMS, _claim_of, _matcher
from oracles import clique_components, has_k1_union_k3
from test_golden import CASES
from test_patterns import _k2_first_join


def _eval(g, kind, sets=None, numbers=None):
    return evaluate_step(ProofTrace("Demo", g), kind, sets or {}, numbers or {})


class TestEvaluateStep:
    def test_value_le(self):
        g = empty(1)
        assert _eval(g, "value-le", numbers={"value": 4, "bound": 4})
        assert not _eval(g, "value-le", numbers={"value": 5, "bound": 4})

    def test_empty_set(self):
        g = empty(3)
        assert _eval(g, "empty-set", sets={"X": 0})
        assert not _eval(g, "empty-set", sets={"X": 0b010})

    def test_independent(self):
        g = cycle(5)
        assert _eval(g, "independent", sets={"X": 0b101})
        assert not _eval(g, "independent", sets={"X": 0b011})
        assert _eval(g, "independent", sets={"X": 0})

    def test_clique(self):
        g = complete(4)
        assert _eval(g, "clique", sets={"X": 0b1011})
        assert not _eval(cycle(4), "clique", sets={"X": 0b0111})

    def test_p3_free_means_clique_components(self):
        two_triangles = disjoint_union(complete(3), complete(3))
        assert _eval(two_triangles, "p3-free", sets={"X": 0b111111})
        assert not _eval(path(3), "p3-free", sets={"X": 0b111})

    def test_components_le_2(self):
        g = disjoint_union(complete(2), empty(2))
        assert _eval(g, "components-le-2", sets={"X": 0b1111})
        assert not _eval(path(3), "components-le-2", sets={"X": 0b111})

    def test_k1k3_absent(self):
        g = disjoint_union(complete(3), empty(1))
        assert not _eval(g, "k1k3-absent", sets={"X": 0b1111})
        assert _eval(g, "k1k3-absent", sets={"X": 0b0111})
        assert _eval(complete(4), "k1k3-absent", sets={"X": 0b1111})

    def test_omega_le(self):
        g = named_graph("grotzsch")
        assert _eval(g, "omega-le", sets={"X": g.full_mask}, numbers={"bound": 2})
        assert not _eval(g, "omega-le", sets={"X": g.full_mask}, numbers={"bound": 1})

    def test_omega_le_uses_the_given_budget(self):
        run = ProofTrace("Demo", cycle(5), SolveBudget(node_limit=1))
        with pytest.raises(BudgetExhausted):
            evaluate_step(run, "omega-le", {"X": 0b11111}, {"bound": 2})

    def test_omega_le_on_a_subset(self):
        g = disjoint_union(complete(4), complete(2))
        assert _eval(g, "omega-le", sets={"X": 0b110011}, numbers={"bound": 2})
        assert not _eval(g, "omega-le", sets={"X": 0b000111}, numbers={"bound": 2})

    def test_anticomplete(self):
        g = path(4)
        assert _eval(g, "anticomplete", sets={"X": 0b0001, "Y": 0b1100})
        assert not _eval(g, "anticomplete", sets={"X": 0b0001, "Y": 0b0010})
        # Overlapping sets never count as anticomplete.
        assert not _eval(empty(3), "anticomplete", sets={"X": 0b001, "Y": 0b101})

    def test_complete_between(self):
        g = complete(4)
        assert _eval(g, "complete-between", sets={"X": 0b0011, "Y": 0b1100})
        assert not _eval(path(3), "complete-between", sets={"X": 0b001, "Y": 0b100})
        assert not _eval(complete(3), "complete-between", sets={"X": 0b001, "Y": 0b011})

    def test_subset_and_sets_equal(self):
        g = empty(5)
        assert _eval(g, "subset", sets={"X": 0b00110, "Y": 0b00111})
        assert not _eval(g, "subset", sets={"X": 0b01000, "Y": 0b00011})
        assert _eval(g, "sets-equal", sets={"X": 0b10100, "Y": 0b10100})
        assert not _eval(g, "sets-equal", sets={"X": 0b00100, "Y": 0b10100})

    def test_unknown_kind_rejected(self):
        for kind in ("majority-vote", "triangle-free"):
            with pytest.raises(ValueError, match="unknown audit kind"):
                _eval(empty(2), kind, sets={"X": 0b1})

    def test_out_of_range_vertex_rejected(self):
        # Any bit at or above g.n, and any negative mask, is out of range,
        # in whichever named set it appears.
        for mask in (1 << 5, 1 << 2, 0b111, -1, -4):
            for sets in ({"X": mask}, {"X": 0b1, "Y": mask}, {"X": 0b1, "anchor": mask}):
                with pytest.raises(ValueError, match="out of range"):
                    _eval(empty(2), "independent", sets=sets)


DENSITIES = (0.2, 0.5, 0.8)


@st.composite
def _gnp_host(draw, max_order):
    n = draw(st.integers(0, max_order))
    return gnp(n, draw(st.sampled_from(DENSITIES)), draw(st.integers(0, 2**32)))


@st.composite
def _masked(draw, hosts):
    """A host with a random, full or empty vertex mask."""
    g = draw(hosts)
    which = draw(st.sampled_from(("random", "full", "empty")))
    if which == "random":
        return g, draw(st.integers(0, g.full_mask))
    return g, g.full_mask if which == "full" else 0


def _join_all(parts):
    return reduce(join, parts)


class TestPatternAbsenceKinds:
    """The p3-free and k1k3-absent kinds, answered by the induced-subgraph
    search, against direct mask predicates."""

    def _check(self, g, m):
        run, sets = ProofTrace("Demo", g), {"X": m}
        assert evaluate_step(run, "p3-free", sets, {}) == clique_components(g, m)
        assert evaluate_step(run, "k1k3-absent", sets, {}) == (not has_k1_union_k3(g, m))

    @given(_masked(_gnp_host(12)))
    @settings(max_examples=150, deadline=None)
    def test_gnp_hosts(self, host):
        self._check(*host)

    # A join's co-components are searched one at a time.
    @given(_masked(st.lists(_gnp_host(6), min_size=2, max_size=3).map(_join_all)))
    @settings(max_examples=150, deadline=None)
    def test_joins(self, host):
        self._check(*host)


class TestProofTrace:
    def test_sets_are_masks(self):
        trace = ProofTrace("Demo", cycle(5))
        trace.audit("greedy-split/b-independent", sets={"X": 0b101})
        assert trace.steps[0].sets == (("X", 0b101),)
        # An id list is not a set of the trace.
        with pytest.raises(TypeError):
            trace.audit("greedy-split/b-independent", sets={"X": [0, 2]})

    def test_step_is_a_slotted_record(self):
        # Slotted, not frozen, and still a value: the replay tamper tests
        # edit steps through dataclasses.replace.
        trace = ProofTrace("Demo", cycle(5))
        trace.audit("greedy-split/b-complete", sets={"X": 0b1, "Y": 0b10010})
        step = trace.steps[0]
        assert is_dataclass(step) and not hasattr(step, "__dict__")
        copy = replace(step)
        assert copy == step and copy is not step
        fields = (step.tag, step.kind, step.assertion, step.verdict, step.sets, step.numbers)
        assert TraceStep(*fields) == TraceStep(*fields) == step
        assert replace(step, verdict="violated") != step

    def test_holds_step_recorded(self):
        trace = ProofTrace("Demo", cycle(5))
        ok = trace.audit("greedy-split/b-independent", sets={"X": 0b101})
        assert ok
        step = trace.steps[0]
        assert step.verdict == "holds"
        assert step.sets == (("X", 0b101),)
        assert trace.holds_count == 1
        assert trace.soft_gap_count == 0

    def test_soft_failure_continues(self):
        trace = ProofTrace("Demo", cycle(5))
        ok = trace.audit("second-nbhd/b{idx}-palette", numbers={"value": 2, "bound": 1}, idx=1)
        assert not ok
        assert trace.steps[0].tag == "second-nbhd/b1-palette"
        assert trace.steps[0].verdict == "soft-gap"
        assert trace.soft_gap_count == 1
        assert trace.violated_count == 0

    def test_hard_failure_raises(self):
        trace = ProofTrace("Demo", cycle(5))
        with pytest.raises(AuditViolation) as exc:
            trace.audit("split-hammer/n-block-palette", numbers={"value": 5, "bound": 4})
        assert exc.value.step.tag == "split-hammer/n-block-palette"
        assert exc.value.step.verdict == "violated"
        assert exc.value.trace is trace
        assert "split-hammer/n-block-palette" in str(exc.value)
        assert trace.violated_count == 1

    def test_claim_comes_from_the_table(self):
        trace = ProofTrace("Demo", cycle(5))
        trace.audit("bound/final-palette", numbers={"value": 3, "bound": 4},
                    cls="KiteFree", omega=2)
        step = trace.steps[0]
        assert (step.tag, step.kind) == ("bound/final-palette", "value-le")
        assert step.assertion == "palette within the KiteFree binding function at omega=2"
        # A tag outside the table has no claim to record.
        with pytest.raises(KeyError):
            trace.audit("root/indep", sets={"X": 0b101})

    def test_serialize_shape(self):
        trace = ProofTrace("Demo", cycle(5))
        trace.audit("greedy-split/b-independent", sets={"X": 0b101})
        trace.audit("twin-edge/cluster-palette", numbers={"value": 1, "bound": 3})
        trace.audit("two-triangles/cell-{a}-empty",
                    sets={"X": 0, "other-triangle": 0b11000}, a=1)
        text = trace.serialize()
        lines = text.splitlines()
        assert lines[0] == "trace|Demo|steps=3"
        assert lines[1] == ("greedy-split/b-independent|independent|holds|"
                            "leftover outside vertices are independent|X=0,2|")
        assert lines[2] == ("twin-edge/cluster-palette|value-le|holds|"
                            "remainder cliques fit in omega colors||value=1;bound=3")
        assert lines[3] == ("two-triangles/cell-1-empty|empty-set|holds|no vertex sees "
                            "exactly one base triangle vertex|X=;other-triangle=3,4|")
        assert text.endswith("\n")


class TestReplay:
    def _trace_on_cycle(self):
        g = cycle(5)
        trace = ProofTrace("Demo", g)
        trace.audit("greedy-split/b-independent", sets={"X": 0b101})
        trace.audit("second-nbhd/b{idx}-palette", numbers={"value": 2, "bound": 1}, idx=3)
        trace.audit("twin-edge/n-omega", sets={"X": 0b11111}, numbers={"bound": 2})
        trace.audit("split-p2k3/d-clique", sets={"X": 0b011})
        return g, trace

    def test_clean_replay(self):
        g, trace = self._trace_on_cycle()
        assert [s.verdict for s in trace.steps] == ["holds", "soft-gap", "holds", "holds"]
        assert replay(g, trace) == []

    def test_mismatch_when_holds_step_breaks(self):
        _, trace = self._trace_on_cycle()
        # The omega-le step is flagged only if replay solves the clique on
        # K5 itself rather than reading the recording run's answer on C5.
        bad = replay(complete(5), trace)
        assert [s.tag for s in bad] == ["greedy-split/b-independent", "twin-edge/n-omega"]
        bad = replay(empty(5), trace)
        assert [s.tag for s in bad] == ["split-p2k3/d-clique"]

    def test_trace_budget_reaches_omega_steps(self):
        trace = ProofTrace("Demo", cycle(5), SolveBudget(node_limit=1))
        with pytest.raises(BudgetExhausted):
            trace.audit("twin-edge/n-omega", sets={"X": 0b11111}, numbers={"bound": 2})

    def test_mismatch_when_soft_gap_starts_holding(self):
        g, trace = self._trace_on_cycle()
        gap = trace.steps[1]
        trace.steps[1] = replace(gap, numbers=(("value", 1), ("bound", 1)))
        assert replay(g, trace) == [trace.steps[1]]


def _host_traces():
    """(graph, trace) for the golden corpus and the colorer tests' graphs
    outside it: cliques, C5, the diamond, an edgeless graph, the cocktail
    party K_{2x12} (clique indices past 9) and two short join chains, each
    colored by every colorer whose class admits it."""
    extra = [
        complete(5), complete(6), cycle(5), empty(4), named_graph("diamond"),
        Graph(24, [(u, v) for u in range(24) for v in range(u + 1, 24) if u // 2 != v // 2]),
        reduce(join, [disjoint_union(complete(3), complete(2))] * 4),
        _k2_first_join(4),
    ]
    out = [(g, COLORERS[key.rsplit("/", 1)[1]](g)[1]) for key, g in CASES.items()]
    for g in extra:
        out += [(g, c(g)[1]) for cls, c in COLORERS.items() if is_member(g, class_by_name(cls))]
    return out


@pytest.fixture(scope="module")
def host_traces():
    return _host_traces()


class TestClaimTable:
    def test_every_emitted_tag_matches_exactly_one_template(self, host_traces):
        tags = {s.tag for _, t in host_traces for s in t.steps}
        reached = set()
        for tag in tags:
            found = [template for template in CLAIMS if _matcher(template).fullmatch(tag)]
            assert len(found) == 1, (tag, found)
            reached.add(found[0])
        # The corpus reaches every template, split-p2k3 included.
        assert reached == set(CLAIMS)

    def test_untampered_traces_replay_cleanly(self, host_traces):
        for g, trace in host_traces:
            assert replay(g, trace) == [], trace.label

    def test_every_kind_is_evaluable(self):
        run = ProofTrace("Demo", empty(1))
        for kind, _, _ in CLAIMS.values():
            evaluate_step(run, kind, {}, {"value": 0, "bound": 0})

    def test_soft_claims_are_the_two_soft_sites(self):
        soft = sorted(t for t, (_, _, is_soft) in CLAIMS.items() if is_soft)
        assert soft == [
            "second-nbhd/b{idx}-palette", "split-hammer/j2-palette", "split-hammer/j3-palette"
        ]

    def test_no_field_separator_in_tags_or_assertions(self, host_traces):
        texts = [*CLAIMS, *(assertion for _, assertion, _ in CLAIMS.values())]
        texts += [x for _, t in host_traces for s in t.steps for x in (s.tag, s.assertion)]
        assert not [x for x in texts if "|" in x or "\n" in x]

    def test_anchor_fields_keep_templates_apart(self):
        # {a} is one digit, so the two-anchor cells never read as one anchor.
        for tag, template in (
            ("split-hammer/cell-12-empty", "split-hammer/cell-12-empty"),
            ("split-hammer/cell-4-empty", "split-hammer/cell-{a}-empty"),
            ("two-triangles/cell-123-empty", "two-triangles/cell-123-empty"),
            ("two-triangles/cell-13-independent", "two-triangles/cell-{a}{b}-independent"),
        ):
            assert [t for t in CLAIMS if _matcher(t).fullmatch(tag)] == [template]
        assert _claim_of("split-hammer/cell-1245-empty") is None


def _hammer_split_trace():
    g = sample_class(SampleConfig(n=9, p=0.5, seed=10, class_name="KiteFree"))
    return g, color_kite_free(g)[1]


def _kite_reduction_trace():
    g = read_graph6("K^~^u~vNtz}~")
    return g, color_kite_free(g)[1]


def _tampered(trace, tag, changes):
    """A copy of the trace with the first step of the tag changed."""
    i = next(i for i, s in enumerate(trace.steps) if s.tag == tag)
    out = ProofTrace(trace.label, trace.g)
    out.steps = list(trace.steps)
    out.steps[i] = replace(trace.steps[i], **changes)
    return out, out.steps[i]


class TestReplayChecksClaims:
    """A trace edited to claim less, or other than, what its tag claims is a
    mismatch, even where the edited step still evaluates as recorded."""

    @pytest.mark.parametrize("make, tag, changes", [
        # A weaker kind whose claim still holds: X equals Y, so X is in Y.
        (_hammer_split_trace, "split-hammer/cells-cover", {"kind": "subset"}),
        (_hammer_split_trace, "split-hammer/cells-cover",
         {"assertion": "the anchor neighborhood holds the mixed cells plus the full cell"}),
        (_kite_reduction_trace, "reduce/dominated-pair",
         {"assertion": "vertex 1 is dominated by adjacent 0 and will copy its color"}),
        # The template itself, its fields left unfilled.
        (_kite_reduction_trace, "reduce/dominated-pair",
         {"assertion": CLAIMS["reduce/dominated-pair"][1]}),
        (_kite_reduction_trace, "bound/final-palette",
         {"assertion": "palette within the KiteFree binding function at omega 7"}),
        (_hammer_split_trace, "split-hammer/cell-12-empty", {"tag": "split-hammer/cell-3-full"}),
        (_kite_reduction_trace, "leaf/k1k3-free", {"tag": "leaf/k1k3-freedom"}),
    ])
    def test_edited_step_is_a_mismatch(self, make, tag, changes):
        g, trace = make()
        assert replay(g, trace) == []
        edited, step = _tampered(trace, tag, changes)
        assert replay(g, edited) == [step]

    def test_dominated_pair_names_its_removed_and_donor_vertices(self):
        # The sentence keeps its template's shape and the sets still evaluate
        # as recorded; only the vertices it names are not the step's.
        g, trace = _kite_reduction_trace()
        edited, step = _tampered(trace, "reduce/dominated-pair", {
            "assertion": "vertex 5 is dominated by nonadjacent 9 and will copy its color"
        })
        sets = dict(step.sets)
        assert (sets["removed"], sets["donor"]) == (1 << 1, 1 << 0)
        assert replay(g, edited) == [step]

    def test_final_palette_names_the_traced_class(self):
        # The palette still fits the bound; only the class named is not the
        # one the trace is labelled with.
        g, trace = _kite_reduction_trace()
        assert trace.label == "KiteFree"
        edited, step = _tampered(trace, "bound/final-palette", {
            "assertion": "palette within the C5Free binding function at omega=2"
        })
        assert replay(g, edited) == [step]

    def test_soft_gap_under_a_hard_claim_is_a_mismatch(self):
        # The clique cap fails on K27, so a soft gap there evaluates as
        # recorded; only the claim, which is hard, makes it a mismatch.
        g = named_graph("schlafli_complement")
        trace = color_k4_free(g)[1]
        assert replay(g, trace) == []
        edited, step = _tampered(trace, "triangle-cap/omega", {"verdict": "soft-gap"})
        assert not evaluate_step(ProofTrace("Demo", complete(27)), step.kind,
                                 dict(step.sets), dict(step.numbers))
        assert step in replay(complete(27), edited)
