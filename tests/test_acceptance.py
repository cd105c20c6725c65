"""End-to-end acceptance battery.

Each test checks one release criterion at full scale and prints a single
pass/fail line even under capture, so a release run reads as a checklist.
"""

import re
import time

from chibound import (
    COLORERS,
    PATTERNS,
    SolveBudget,
    SplitMix64,
    chromatic_number,
    class_by_name,
    clique_number,
    color_kite_free,
    dumps,
    evaluate_bound,
    extremal_family,
    find_induced,
    gnp,
    hunt,
    is_member,
    join,
    loads,
    named_graph,
    replay,
    verify_coloring,
)
from chibound.suite import _sample_instance

from oracles import (
    brute_chromatic_number,
    brute_clique_number,
    brute_find_induced,
    degree,
    has_edge,
)

SOFT_ALLOWED = re.compile(r"^(split-hammer/j[23]-palette|second-nbhd/b\d+-palette)$")
SUITE_SEED = 20260814


def _verdict(capfd, label, body):
    try:
        body()
    except BaseException:
        with capfd.disabled():
            print(f"[acceptance] {label}: FAIL", flush=True)
        raise
    with capfd.disabled():
        print(f"[acceptance] {label}: PASS", flush=True)


def test_triangle_free_witness_invariants(capfd):
    def body():
        t0 = time.perf_counter()
        g = named_graph("grotzsch")
        assert (g.n, g.edge_count) == (11, 20)
        assert clique_number(g).value == 2
        assert chromatic_number(g).value == 4
        assert is_member(g, class_by_name("KiteFree"))
        assert is_member(g, class_by_name("HammerFree"))
        assert time.perf_counter() - t0 < 1.0

    _verdict(capfd, "triangle-free witness invariants", body)


def test_ten_regular_witness_invariants(capfd):
    def body():
        g = named_graph("schlafli_complement")
        assert g.n == 27
        assert g.edge_count == 135
        assert all(degree(g, v) == 10 for v in g.vertices())
        assert clique_number(g).value == 3
        assert is_member(g, class_by_name("K4Free"))
        t0 = time.perf_counter()
        assert chromatic_number(g).value == 6
        assert time.perf_counter() - t0 < 300.0

    _verdict(capfd, "ten-regular witness invariants", body)


def test_join_additivity(capfd):
    def body():
        g = named_graph("grotzsch")
        doubled = join(g, g)
        assert chromatic_number(doubled).value == 8
        assert clique_number(doubled).value == 4
        for seed in range(100):
            a = gnp(1 + seed % 8, 0.5, seed)
            b = gnp(1 + (seed * 31 + 7) % 8, 0.45, seed + 1000)
            j = join(a, b)
            assert (
                chromatic_number(j).value
                == chromatic_number(a).value + chromatic_number(b).value
            )
            assert (
                clique_number(j).value
                == clique_number(a).value + clique_number(b).value
            )

    _verdict(capfd, "join additivity, 100 pairs", body)


def test_sampled_members_across_all_classes(capfd):
    def body():
        t0 = time.perf_counter()
        for class_name in sorted(COLORERS):
            colorer = COLORERS[class_name]
            rng = SplitMix64(SUITE_SEED)
            for index in range(200):
                g = _sample_instance(class_name, 12, rng)
                assert g is not None, (class_name, index)
                coloring, trace = colorer(g)
                assert verify_coloring(g, coloring) is None, (class_name, index)
                omega = clique_number(g).value
                bound = evaluate_bound(class_name, max(omega, 1))
                assert coloring.palette <= bound, (class_name, index)
                assert chromatic_number(g).value <= bound, (class_name, index)
                assert trace.violated_count == 0, (class_name, index)
                for step in trace.steps:
                    if step.verdict == "soft-gap":
                        assert SOFT_ALLOWED.match(step.tag), (class_name, index, step.tag)
        assert time.perf_counter() - t0 < 600.0

    _verdict(capfd, "200 audited members per class", body)


def test_kite_free_coloring_is_tight_on_witness(capfd):
    def body():
        g = named_graph("grotzsch")
        coloring, _ = color_kite_free(g)
        assert coloring.palette == 4
        assert clique_number(g).value == 2
        assert evaluate_bound("KiteFree", 2) == 4

    _verdict(capfd, "tight palette on the kite-free witness", body)


def test_joined_witnesses_color_within_budget(capfd):
    def body():
        budget = SolveBudget(node_limit=300_000)
        for g, order, palette in (
            (extremal_family("kite-even", 5), 55, 20),
            (extremal_family("kite-odd", 2), 38, 10),
        ):
            assert g.n == order
            coloring, trace = color_kite_free(g, budget)
            assert coloring.palette == palette, g.name
            assert verify_coloring(g, coloring) is None, g.name
            assert replay(g, trace) == [], g.name
            res = chromatic_number(g, budget)
            assert res.value == palette and res.nodes_used < 10_000, g.name

    _verdict(capfd, "joined witnesses color within a 300,000-node budget", body)


def test_pattern_search_agrees_with_oracle(capfd):
    def body():
        densities = (0.2, 0.35, 0.5, 0.65, 0.8)
        hosts = [
            gnp(1 + seed % 7, densities[seed % 5], seed) for seed in range(500)
        ]
        hosts += [p.graph for p in PATTERNS.values()]
        for host in hosts:
            for pattern in PATTERNS.values():
                got = find_induced(host, pattern)
                want = brute_find_induced(host, pattern.graph)
                assert (got is None) == (want is None)
                if got is not None:
                    image = got.vertices
                    assert len(set(image)) == pattern.graph.n
                    for i in range(pattern.graph.n):
                        for j in range(i + 1, pattern.graph.n):
                            assert has_edge(pattern.graph, i, j) == has_edge(
                                host, image[i], image[j]
                            )

    _verdict(capfd, "induced-pattern search vs oracle, 517 hosts", body)


def test_exact_solvers_agree_with_brute_force(capfd):
    def body():
        densities = (0.25, 0.5, 0.75)
        for seed in range(200):
            g = gnp(1 + seed % 6, densities[seed % 3], seed)
            assert clique_number(g).value == brute_clique_number(g)
            assert chromatic_number(g).value == brute_chromatic_number(g)

    _verdict(capfd, "exact solvers vs brute force, 200 graphs", body)


def test_hunt_from_best_known_witness(capfd):
    def body():
        res = hunt(
            "K4Free",
            n=27,
            steps=40,
            seed=SUITE_SEED,
            start=named_graph("schlafli_complement"),
        )
        assert 6 <= res.chi <= 9
        assert res.noteworthy == (res.chi > 6)

    _verdict(capfd, "hunt holds the known chromatic range", body)


def test_serialization_round_trips(capfd):
    def body():
        densities = (0.1, 0.3, 0.5, 0.7, 0.9)
        for seed in range(1000):
            g = gnp(seed % 13, densities[seed % 5], seed)
            for fmt in ("dimacs", "graph6"):
                back = loads(dumps(g, fmt), fmt)
                assert back.n == g.n
                assert back.rows == g.rows

    _verdict(capfd, "1000 serialization round trips", body)
