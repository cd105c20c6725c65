"""Audit-step evaluation, trace recording, and replay."""

from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chibound import (
    AuditViolation,
    BudgetExhausted,
    ProofTrace,
    SolveBudget,
    complete,
    cycle,
    disjoint_union,
    empty,
    evaluate_step,
    gnp,
    join,
    named_graph,
    path,
    replay,
)
from oracles import clique_components, has_k1_union_k3


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
        trace.audit("root/indep", "independent", "mask form", sets={"X": 0b101})
        assert trace.steps[0].sets == (("X", 0b101),)
        # An id list is not a set of the trace.
        with pytest.raises(TypeError):
            trace.audit("root/ids", "independent", "id list", sets={"X": [0, 2]})

    def test_holds_step_recorded(self):
        trace = ProofTrace("Demo", cycle(5))
        ok = trace.audit("root/indep", "independent",
                         "chosen set is independent", sets={"X": 0b101})
        assert ok
        step = trace.steps[0]
        assert step.verdict == "holds"
        assert step.sets == (("X", 0b101),)
        assert trace.holds_count == 1
        assert trace.soft_gap_count == 0

    def test_soft_failure_continues(self):
        trace = ProofTrace("Demo", cycle(5))
        ok = trace.audit("root/padding", "independent",
                         "palette slack stays tight", sets={"X": 0b011}, soft=True)
        assert not ok
        assert trace.steps[0].verdict == "soft-gap"
        assert trace.soft_gap_count == 1
        assert trace.violated_count == 0

    def test_hard_failure_raises(self):
        trace = ProofTrace("Demo", cycle(5))
        with pytest.raises(AuditViolation) as exc:
            trace.audit("root/bad", "clique", "span forms a clique",
                        sets={"X": 0b111})
        assert exc.value.step.tag == "root/bad"
        assert exc.value.step.verdict == "violated"
        assert exc.value.trace is trace
        assert "root/bad" in str(exc.value)
        assert trace.violated_count == 1

    def test_serialize_shape(self):
        trace = ProofTrace("Demo", cycle(5))
        trace.audit("a", "independent", "first", sets={"X": 0b101})
        trace.audit("b", "value-le", "second",
                    numbers={"value": 1, "bound": 3})
        trace.audit("c", "empty-set", "third", sets={"X": 0, "Y": 0b11000})
        text = trace.serialize()
        lines = text.splitlines()
        assert lines[0] == "trace|Demo|steps=3"
        assert lines[1] == "a|independent|holds|first|X=0,2|"
        assert lines[2] == "b|value-le|holds|second||value=1;bound=3"
        assert lines[3] == "c|empty-set|holds|third|X=;Y=3,4|"
        assert text.endswith("\n")


class TestReplay:
    def _trace_on_cycle(self):
        g = cycle(5)
        trace = ProofTrace("Demo", g)
        trace.audit("ok/indep", "independent", "holds here", sets={"X": 0b101})
        trace.audit("gap/indep", "independent", "soft here",
                    sets={"X": 0b011}, soft=True)
        trace.audit("ok/omega", "omega-le", "no triangle",
                    sets={"X": 0b11111}, numbers={"bound": 2})
        return g, trace

    def test_clean_replay(self):
        g, trace = self._trace_on_cycle()
        assert replay(g, trace) == []

    def test_mismatch_when_holds_step_breaks(self):
        _, trace = self._trace_on_cycle()
        # The omega-le step is flagged only if replay solves the clique on
        # K5 itself rather than reading the recording run's answer on C5.
        bad = replay(complete(5), trace)
        assert [s.tag for s in bad] == ["ok/indep", "ok/omega"]

    def test_trace_budget_reaches_omega_steps(self):
        trace = ProofTrace("Demo", cycle(5), SolveBudget(node_limit=1))
        with pytest.raises(BudgetExhausted):
            trace.audit("cap/omega", "omega-le", "small cliques",
                        sets={"X": 0b11111}, numbers={"bound": 2})

    def test_mismatch_when_soft_gap_starts_holding(self):
        _, trace = self._trace_on_cycle()
        bad = replay(empty(5), trace)
        assert [s.tag for s in bad] == ["gap/indep"]
