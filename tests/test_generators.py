"""Seeded generation: random stream, samplers, mutation, witnesses, hunt."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chibound import (
    CLASSES,
    BudgetExhausted,
    HuntResult,
    SampleConfig,
    SampleExhausted,
    SolveBudget,
    SplitMix64,
    chromatic_number,
    class_by_name,
    clique_number,
    complete,
    empty,
    extremal_family,
    gnp,
    hunt,
    is_member,
    mutate_within_class,
    named_graph,
    sample_class,
    write_graph6,
)

from chibound.generators import _grow
from oracles import reference_hunt, reference_sample_class

_MASK64 = (1 << 64) - 1


def _reference_stream(seed, count):
    """splitmix64 written straight from its published definition."""
    out = []
    state = seed & _MASK64
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        out.append(z ^ (z >> 31))
    return out


class TestSplitMix64:
    def test_published_vector_seed_zero(self):
        rng = SplitMix64(0)
        assert [rng.next_u64() for _ in range(4)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
            0xF88BB8A8724C81EC,
        ]

    def test_published_vector_seed_1234567(self):
        rng = SplitMix64(1234567)
        assert [rng.next_u64() for _ in range(3)] == [
            0x599ED017FB08FC85,
            0x2C73F08458540FA5,
            0x883EBCE5A3F27C77,
        ]

    def test_seed_wraps_modulo_64_bits(self):
        a = SplitMix64(5)
        b = SplitMix64((1 << 64) + 5)
        assert [a.next_u64() for _ in range(5)] == [b.next_u64() for _ in range(5)]

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    @settings(max_examples=30, deadline=None)
    def test_matches_reference(self, seed):
        rng = SplitMix64(seed)
        assert [rng.next_u64() for _ in range(6)] == _reference_stream(seed, 6)

    def test_below_bounds_and_errors(self):
        rng = SplitMix64(1)
        assert all(0 <= rng.below(7) < 7 for _ in range(200))
        assert SplitMix64(3).below(1) == 0
        with pytest.raises(ValueError):
            rng.below(0)
        with pytest.raises(ValueError):
            rng.below(-2)

    def test_below_hits_every_residue(self):
        rng = SplitMix64(2)
        assert {rng.below(5) for _ in range(200)} == {0, 1, 2, 3, 4}


class TestGnp:
    def test_extremes(self):
        assert gnp(6, 0.0, 9).edge_count == 0
        assert gnp(6, 1.0, 9).edge_count == 15

    def test_deterministic(self):
        assert gnp(9, 0.5, 123).rows == gnp(9, 0.5, 123).rows

    def test_edge_decisions_follow_the_stream(self):
        # One draw per vertex pair in lexicographic order, edge present when
        # the draw falls under floor(p * 2^64).  A column is drawn as one
        # packed mix over all its lanes, so the larger orders check columns
        # of up to 199 lanes, at both ends of p and between.
        cases = [(6, 0.37, 991), (0, 0.5, 1), (1, 0.5, 2), (2, 0.5, 3), (13, 0.6, _MASK64)]
        for n in (31, 32, 33, 64, 65, 127, 128, 129, 200):
            cases += [(n, p, 7919 * n) for p in (0.0, 1.0, 1 / 3, 0.999999)]
        for n, p, seed in cases:
            threshold = int(p * (_MASK64 + 1))
            stream = iter(_reference_stream(seed, n * (n - 1) // 2))
            expected = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if next(stream) < threshold
            ]
            assert list(gnp(n, p, seed).edges()) == expected, (n, p, seed)

    def test_each_yield_holds_the_prefix_of_the_whole_draw(self):
        # sample_class reads G[0..w] at each yield w: rows 0..w hold the whole
        # draw's rows cut to 0..w, and the later rows are still empty.
        for n in (*range(1, 71), 129):
            whole = gnp(n, 0.4, n).rows
            rows = [0] * n
            seen = []
            for w in _grow(rows, 0.4, n):
                keep = (2 << w) - 1
                assert rows == [r & keep if u <= w else 0 for u, r in enumerate(whole)], (n, w)
                seen.append(w)
            assert seen == list(range(n))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            gnp(-1, 0.5, 0)
        with pytest.raises(ValueError):
            gnp(4, 1.5, 0)


class TestSampleClass:
    def test_returns_member_deterministically(self):
        cfg = SampleConfig(n=8, p=0.5, seed=77, class_name="HammerFree")
        g = sample_class(cfg)
        assert is_member(g, class_by_name("HammerFree"))
        assert g.rows == sample_class(cfg).rows

    def test_exhaustion_carries_config(self):
        # Mid-density draws at this order essentially always contain a kite
        # or a P3+P2, so thirty tries cannot succeed.
        cfg = SampleConfig(n=13, p=0.5, seed=0, class_name="KiteFree", max_tries=30)
        with pytest.raises(SampleExhausted) as exc:
            sample_class(cfg)
        assert exc.value.config is cfg
        assert "30" in str(exc.value)

    @pytest.mark.parametrize("cls", sorted(CLASSES))
    def test_matches_reference_loop_in_every_class(self, cls):
        # Orders 0 to 2 accept the first draw; the others reject some, and
        # at p = 1 every draw is one complete graph.
        cases = [(0, 0.5, 1), (1, 0.5, 2), (5, 0.5, 3), (9, 0.3, 4), (12, 0.9, 5)]
        cases += [(0, 0.0, 6), (1, 1.0, 7), (2, 0.0, 8), (2, 1.0, 9), (7, 0.0, 10), (7, 1.0, 11)]
        for n, p, seed in cases:
            cfg = SampleConfig(n=n, p=p, seed=seed, class_name=cls, max_tries=200)
            want = reference_sample_class(cfg)
            if want is None:
                with pytest.raises(SampleExhausted):
                    sample_class(cfg)
            else:
                assert sample_class(cfg) == want, (n, p, seed)

    @given(
        st.sampled_from(sorted(CLASSES)),
        st.integers(min_value=0, max_value=12),
        st.sampled_from([0.1, 0.3, 0.5, 0.7, 0.9]),
        st.integers(min_value=0, max_value=_MASK64),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_reference_loop(self, cls, n, p, seed):
        cfg = SampleConfig(n=n, p=p, seed=seed, class_name=cls, max_tries=20)
        want = reference_sample_class(cfg)
        if want is None:
            with pytest.raises(SampleExhausted):
                sample_class(cfg)
        else:
            assert sample_class(cfg) == want

    @pytest.mark.parametrize(
        "cfg, tries, line",
        [
            (SampleConfig(10, 0.3, 5, "K4Free"), 11, "IG_?aTWuo"),
            # K1 + K3 has an isolated vertex: a vertex drawn with no edge to
            # the ones before it can still complete a copy.
            (SampleConfig(9, 0.5, 3, "K1K3Free"), 148, "H|vrZZk"),
        ],
    )
    def test_pinned_multi_try_samples(self, cfg, tries, line):
        assert write_graph6(sample_class(cfg)) == line
        assert sample_class(replace(cfg, max_tries=tries)) == sample_class(cfg)
        with pytest.raises(SampleExhausted):
            sample_class(replace(cfg, max_tries=tries - 1))

    def test_exhaustion_matches_reference_loop(self):
        # Every draw of G(8, 1) is K8, which holds a triangle.
        cfg = SampleConfig(n=8, p=1.0, seed=9, class_name="TriangleFree", max_tries=5)
        assert reference_sample_class(cfg) is None
        with pytest.raises(SampleExhausted):
            sample_class(cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SampleConfig(n=-1, p=0.5, seed=0, class_name="KiteFree")
        with pytest.raises(ValueError):
            SampleConfig(n=5, p=1.5, seed=0, class_name="KiteFree")
        with pytest.raises(ValueError):
            SampleConfig(n=5, p=0.5, seed=0, class_name="KiteFree", max_tries=0)
        with pytest.raises(ValueError):
            SampleConfig(n=5, p=0.5, seed=0, class_name="NoSuchClass")


class TestMutateWithinClass:
    def test_zero_steps_is_identity(self):
        g = named_graph("grotzsch")
        assert mutate_within_class(g, "KiteFree", steps=0, seed=4).rows == g.rows

    def test_stays_in_class(self):
        spec = class_by_name("KiteFree")
        g = named_graph("grotzsch")
        for seed in range(6):
            assert is_member(mutate_within_class(g, "KiteFree", 25, seed), spec)

    def test_schlafli_complement_stays_k4_free(self):
        g = named_graph("schlafli_complement")
        out = mutate_within_class(g, "K4Free", steps=20, seed=7)
        assert is_member(out, class_by_name("K4Free"))

    def test_rejects_non_member_start(self):
        with pytest.raises(ValueError, match="not in"):
            mutate_within_class(complete(4), "K4Free", steps=1, seed=0)

    def test_rejects_negative_steps(self):
        with pytest.raises(ValueError, match="steps"):
            mutate_within_class(empty(3), "K4Free", steps=-1, seed=0)

    def test_single_vertex_has_no_moves(self):
        g = empty(1)
        assert mutate_within_class(g, "K4Free", steps=9, seed=0).rows == g.rows


class TestExtremalFamily:
    def test_kite_even_first_two(self):
        g1 = extremal_family("kite-even", 1)
        assert (g1.n, g1.edge_count) == (11, 20)
        assert clique_number(g1).value == 2
        assert chromatic_number(g1).value == 4
        g2 = extremal_family("kite-even", 2)
        assert clique_number(g2).value == 4
        assert chromatic_number(g2).value == 8

    def test_kite_odd_first_two(self):
        g1 = extremal_family("kite-odd", 1)
        assert g1.n == 27
        assert clique_number(g1).value == 3
        assert chromatic_number(g1).value == 6
        g2 = extremal_family("kite-odd", 2)
        assert g2.n == 38
        assert clique_number(g2).value == 5
        assert is_member(g2, class_by_name("KiteFree"))

    def test_hammer_and_k4_witnesses(self):
        assert extremal_family("hammer").rows == named_graph("grotzsch").rows
        assert (
            extremal_family("k4").rows == named_graph("schlafli_complement").rows
        )
        for family in ("hammer", "k4"):
            with pytest.raises(ValueError, match="k=1"):
                extremal_family(family, 2)

    def test_name_normalization(self):
        assert extremal_family("KITE_EVEN", 1).rows == extremal_family("kite-even", 1).rows
        assert extremal_family("kitefree-odd", 1).n == 27

    def test_rejects_unknown_or_bad_k(self):
        with pytest.raises(ValueError, match="unknown family"):
            extremal_family("moebius")
        with pytest.raises(ValueError, match="k must be"):
            extremal_family("kite-even", 0)


class TestHunt:
    def test_deterministic_and_in_class(self):
        first = hunt("KiteFree", n=8, steps=30, seed=5)
        second = hunt("KiteFree", n=8, steps=30, seed=5)
        assert first.graph.rows == second.graph.rows
        assert first.chi == second.chi
        assert is_member(first.graph, class_by_name("KiteFree"))

    def test_reported_chi_is_exact(self):
        res = hunt("HammerFree", n=8, steps=25, seed=2)
        assert chromatic_number(res.graph).value == res.chi
        assert clique_number(res.graph).value == res.omega

    def test_zero_steps_returns_start(self):
        g = named_graph("grotzsch")
        res = hunt("KiteFree", n=0, steps=0, seed=5, start=g)
        assert res.graph.rows == g.rows
        assert (res.chi, res.omega, res.evaluations) == (4, 2, 1)

    def test_triangle_free_members_stay_under_four(self):
        res = hunt("TriangleFree", n=9, steps=40, seed=11)
        assert res.chi <= 4

    def test_seeded_from_best_known_k4_witness(self):
        res = hunt(
            "K4Free", n=27, steps=5, seed=0,
            start=named_graph("schlafli_complement"),
        )
        assert 6 <= res.chi <= 9
        assert res.noteworthy == (res.chi >= 7)

    def test_noteworthy_rule(self):
        g = empty(1)
        high = HuntResult("K4Free", g, 7, 3, 1, 0, 0)
        flat = HuntResult("K4Free", g, 6, 3, 1, 0, 0)
        other = HuntResult("KiteFree", g, 9, 2, 1, 0, 0)
        assert high.noteworthy
        assert not flat.noteworthy
        assert not other.noteworthy

    @pytest.mark.parametrize("cls", ["TriangleFree", "K1K3Free"])
    def test_fallback_start_is_a_member(self, cls):
        # No G(30, p) draw of the ladder is a member: the start is edgeless.
        start = hunt(cls, n=30, steps=0, seed=0).graph
        assert (start.n, start.edge_count) == (30, 0)
        res = hunt(cls, n=30, steps=1, seed=0)
        assert res.graph.n == 30
        assert is_member(res.graph, class_by_name(cls))

    @pytest.mark.parametrize("n", [10, 16])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("cls", sorted(CLASSES))
    def test_matches_full_solve_per_candidate(self, cls, seed, n):
        res = hunt(cls, n=n, steps=100, seed=seed)
        graph, chi, omega, evaluations = reference_hunt(cls, n, 100, seed)
        assert write_graph6(res.graph) == write_graph6(graph)
        assert (res.chi, res.omega, res.evaluations) == (chi, omega, evaluations)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(sorted(CLASSES)),
        st.integers(0, 2**32),
        st.integers(8, 14),
        st.integers(5, 60),
    )
    def test_chi_stays_exact_when_decisions_run_out(self, cls, seed, n, node_limit):
        # Under a tight budget some decisions run out and skip their
        # candidate; the chi carried by +-1 steps must still be exact.
        budget = SolveBudget(node_limit=node_limit)
        start = hunt(cls, n=n, steps=0, seed=seed).graph
        start_done = chromatic_number(start, budget).complete
        try:
            res = hunt(cls, n=n, steps=60, seed=seed, budget=budget)
        except BudgetExhausted:
            # Only the start solve may raise: an unresolved final clique
            # number is returned as None.
            assert not start_done
            return
        assert start_done
        assert is_member(res.graph, class_by_name(cls))
        assert res.chi == chromatic_number(res.graph).value
        assert res.omega in (None, clique_number(res.graph).value)

    @pytest.mark.parametrize("n, seed, node_limit, omega", [(12, 0, 5, 7), (14, 1, 5, 10)])
    def test_final_clique_bounds_that_meet_are_a_proof(self, n, seed, node_limit, omega):
        # Each final clique search runs out with lower = upper.
        budget = SolveBudget(node_limit=node_limit)
        res = hunt("KiteFree", n=n, steps=60, seed=seed, budget=budget)
        cut = clique_number(res.graph, budget)
        assert not cut.complete and cut.lower == cut.upper
        assert res.omega == cut.value == clique_number(res.graph).value == omega

    def test_final_clique_search_of_a_join_completes(self):
        # The final graph joins three parts, and their searches prove omega
        # within the budget.
        budget = SolveBudget(node_limit=10)
        res = hunt("KiteFree", n=14, steps=60, seed=2, budget=budget)
        cut = clique_number(res.graph, budget)
        assert cut.complete and cut.nodes_used <= 10
        assert res.omega == cut.value == clique_number(res.graph).value == 10

    def test_unresolved_final_clique_number_is_none(self):
        budget = SolveBudget(node_limit=4)
        res = hunt("K1K3Free", n=10, steps=100, seed=344, budget=budget)
        cut = clique_number(res.graph, budget)
        assert (cut.lower, cut.upper, cut.value) == (6, 7, None)
        assert res.omega is None
        assert res.chi == chromatic_number(res.graph).value == 7

    def test_tight_budget_completes_more_decisions(self):
        # A decision at one k can finish where a full solve of chi, clique
        # search and k = omega, omega + 1, ... under the same budget, runs
        # out: 16 decisions complete here where 13 full solves would.
        budget = SolveBudget(node_limit=12)
        res = hunt("P2K3Free", n=12, steps=100, seed=2, budget=budget)
        assert res.evaluations == 16
        assert reference_hunt("P2K3Free", 12, 100, 2, budget)[3] == 13
        assert res.chi == chromatic_number(res.graph).value

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="not in"):
            hunt("K4Free", n=4, steps=1, seed=0, start=complete(4))
        with pytest.raises(ValueError, match="steps"):
            hunt("K4Free", n=4, steps=-1, seed=0)
        with pytest.raises(ValueError, match="n must be"):
            hunt("K4Free", n=0, steps=1, seed=0)
