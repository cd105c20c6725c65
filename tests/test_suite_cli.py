"""Suite runner reports and the command-line front end."""

import re
from collections import Counter

import pytest

from chibound import (
    COLORERS,
    Coloring,
    ProofTrace,
    SampleConfig,
    SampleExhausted,
    SolveBudget,
    SplitMix64,
    SuiteRecord,
    class_by_name,
    cycle,
    color_k4_free,
    color_kite_free,
    complete,
    dumps,
    empty,
    extremal_family,
    is_member,
    loads,
    named_graph,
    read_graph6,
    run_suite,
    sample_class,
    write_graph,
)
from chibound import exact, suite
from chibound.cli import EXIT_OK, EXIT_UNKNOWN, EXIT_USAGE, EXIT_VERDICT, main

from oracles import subset_chromatic_number


def _fields(record):
    return (
        record.index,
        record.n,
        record.m,
        record.omega,
        record.chi,
        record.palette,
        record.bound,
        record.verdict,
        record.holds,
        record.soft,
        record.violated,
        record.note,
    )


def _improper_colorer(g, budget):
    return Coloring((0,) * g.n), ProofTrace("KiteFree", g, budget)


def _false_audit_colorer(g, budget):
    trace = ProofTrace("KiteFree", g, budget)
    trace.audit("bound/final-palette", numbers={"value": 2, "bound": 1}, cls="KiteFree", omega=1)


def _rainbow_colorer(g, budget):
    return Coloring(tuple(range(g.n))), ProofTrace("KiteFree", g, budget)


class TestRunSuite:
    def test_deterministic_apart_from_timing(self):
        a = run_suite("KiteFree", n=8, count=10, seed=3)
        b = run_suite("KiteFree", n=8, count=10, seed=3)
        assert [_fields(r) for r in a.records] == [_fields(r) for r in b.records]

    def test_records_satisfy_their_verdicts(self):
        report = run_suite("K4Free", n=9, count=15, seed=5)
        assert len(report.records) == 15
        for r in report.records:
            if r.verdict == "pass":
                assert r.palette is not None and r.bound is not None
                assert r.palette <= r.bound
                assert r.chi is not None and r.chi <= r.bound
                assert r.violated == 0

    def test_chi_is_exact_whether_settled_or_solved(self):
        # chi is settled from omega when the palette meets it and solved
        # given the trace's clique otherwise; both must be the true chi.
        branches = Counter()
        for class_name in sorted(COLORERS):
            for seed in range(4):
                rng = SplitMix64(seed)
                for index in range(25):
                    g = suite._sample_instance(class_name, 9, rng)
                    r = suite._run_instance(index, class_name, g, None)
                    assert r.verdict == "pass"
                    assert r.chi == subset_chromatic_number(g), (class_name, seed, index)
                    branches[r.palette == r.omega] += 1
        assert branches[True] and branches[False]

    def test_tight_budget_settles_chi_from_omega(self):
        # Under a 3-node budget the plain solve of records 13 and 15 ran out
        # after its clique search; their palettes meet the proven omega.
        # Record 8's clique searches run out with bounds that meet, which
        # proves omega, so its colorer finishes.
        report = run_suite("KiteFree", 12, 60, 0, SolveBudget(node_limit=3))
        assert report.footer() == (
            "total=60 pass=47 fail=0 unknown=13 sample-fail=0 soft-gap=0"
        )
        for index, n in ((8, 10), (13, 9), (15, 8)):
            r = report.records[index]
            assert (r.n, r.verdict, r.note) == (n, "pass", "")
            assert r.chi == r.palette == r.omega

    @pytest.mark.parametrize("stub, g, note", [
        (_improper_colorer, complete(3), "improper"),
        (_false_audit_colorer, complete(3), "audit:bound/final-palette"),
        (_rainbow_colorer, empty(3), "bound-exceeded"),
    ])
    def test_fail_verdicts(self, monkeypatch, stub, g, note):
        # The real colorers cannot fail on a member; stubs reach each arm.
        monkeypatch.setitem(suite.COLORERS, "KiteFree", stub)
        r = suite._run_instance(0, "KiteFree", g, None)
        assert (r.verdict, r.note) == ("fail", note)
        assert r.violated == (note == "audit:bound/final-palette")
        assert r.chi == r.omega == exact.clique_number(g).value

    def test_unknown_verdicts(self):
        report = run_suite("C5Free", 12, 40, 1, SolveBudget(node_limit=2))
        notes = {r.index: r.note for r in report.records if r.verdict != "pass"}
        assert notes[21] == "chi-budget"
        assert notes[11] == "colorer-budget"
        r = report.records[21]
        assert (r.n, r.omega, r.chi, r.palette) == (8, 4, None, 5)

    def test_sampler_exhaustion_is_a_verdict(self, monkeypatch):
        monkeypatch.setattr(suite, "_sample_instance", lambda *_: None)
        report = run_suite("KiteFree", n=6, count=2, seed=0)
        assert [(r.verdict, r.note) for r in report.records] == [
            ("sample-fail", "sampler-exhausted")
        ] * 2

    @pytest.mark.parametrize("class_name", sorted(COLORERS))
    def test_fallback_witness_is_an_in_class_member(self, monkeypatch, class_name):
        # Rejection sampling at these orders succeeds in tier-1 runs, so the
        # fallback is reached only with the sampler made to give up.
        def exhausted(cfg):
            raise SampleExhausted(cfg)

        monkeypatch.setattr(suite, "sample_class", exhausted)
        spec = class_by_name(class_name)
        orders = set()
        for seed in range(200):
            order = 1 + SplitMix64(seed).below(12)
            g = suite._sample_instance(class_name, 12, SplitMix64(seed))
            assert g is not None and g.n == order
            assert is_member(g, spec)
            orders.add(order)
        assert orders == set(range(1, 13))

    @pytest.mark.parametrize("order", [13, 14, 15, 16])
    def test_k4free_profile_samples_above_order_12(self, order):
        # Above order 12 the K4Free profile thins out, so rejection sampling
        # finds members without the Schlafli-complement fallback.
        for seed in range(4):
            g = sample_class(SampleConfig(
                n=order, p=suite._profile_p("K4Free", order), seed=seed,
                class_name="K4Free", max_tries=suite._REJECTION_TRIES,
            ))
            assert g.n == order and is_member(g, class_by_name("K4Free"))

    def test_non_member_sample_is_an_internal_error(self, monkeypatch):
        # The check must hold under python -O too, so it is not an assert.
        monkeypatch.setattr(suite, "_sample_instance", lambda *_: complete(4))
        with pytest.raises(RuntimeError, match="internal: .*K4Free"):
            run_suite("K4Free", n=6, count=2, seed=0)

    def test_footer_totals_add_up(self):
        report = run_suite("HammerFree", n=7, count=8, seed=2)
        total = sum(
            report.tally(v) for v in ("pass", "fail", "unknown", "sample-fail")
        )
        assert total == len(report.records) == 8
        assert report.footer().startswith("total=8 pass=")
        assert report.header() == "suite class=HammerFree n=7 count=8 seed=2"

    def test_lines_shape(self):
        report = run_suite("C5Free", n=6, count=4, seed=9)
        lines = report.lines()
        assert len(lines) == 6
        assert lines[0].startswith("suite class=C5Free")
        for line in lines[1:-1]:
            assert re.match(r"^i=\d+ n=\d+ m=\d+ omega=", line)
            assert "ms=" in line
        assert lines[-1].startswith("total=4")

    def test_table_shape(self):
        report = run_suite("P2K3Free", n=6, count=3, seed=1)
        rows = report.table()
        assert rows[0].split() == [
            "i", "n", "m", "omega", "chi", "palette", "bound", "verdict",
        ]
        assert len(rows) == 5

    def test_argument_validation(self):
        with pytest.raises(ValueError, match="count"):
            run_suite("KiteFree", n=6, count=0, seed=0)
        with pytest.raises(ValueError, match="n must"):
            run_suite("KiteFree", n=0, count=1, seed=0)
        with pytest.raises(ValueError, match="no colorer"):
            run_suite("TriangleFree", n=6, count=1, seed=0)
        with pytest.raises(ValueError, match="unknown class"):
            run_suite("Chordal", n=6, count=1, seed=0)

    def test_record_line_renders_missing_values_as_dash(self):
        r = SuiteRecord(3, 0, 0, verdict="sample-fail", note="sampler-exhausted")
        line = r.line()
        assert "omega=- chi=- palette=- bound=-" in line
        assert line.endswith("note=sampler-exhausted")


@pytest.fixture()
def grotzsch_file(tmp_path):
    path = tmp_path / "grotzsch.g6"
    write_graph(named_graph("grotzsch"), str(path))
    return str(path)


@pytest.fixture()
def c5_file(tmp_path):
    path = tmp_path / "c5.col"
    write_graph(cycle(5), str(path))
    return str(path)


class TestCliGen:
    def test_family_to_stdout(self, capsys):
        assert main(["gen", "--family", "grotzsch"]) == EXIT_OK
        g = loads(capsys.readouterr().out, "graph6")
        assert (g.n, g.edge_count) == (11, 20)

    def test_witness_family_fallback(self, capsys):
        assert main(["gen", "--family", "kite-even", "--k", "2"]) == EXIT_OK
        assert loads(capsys.readouterr().out, "graph6").n == 22

    def test_gnp_to_file(self, tmp_path, capsys):
        out = tmp_path / "g.g6"
        code = main(["gen", "--gnp", "8", "0.5", "--seed", "3", "-o", str(out)])
        assert code == EXIT_OK
        assert loads(out.read_text(), "graph6").n == 8

    def test_sample_respects_class(self, capsys):
        from chibound import class_by_name, is_member

        code = main(["gen", "--sample", "k4free", "--n", "8", "--seed", "1"])
        assert code == EXIT_OK
        g = loads(capsys.readouterr().out, "graph6")
        assert is_member(g, class_by_name("K4Free"))

    def test_needs_exactly_one_mode(self, capsys):
        assert main(["gen"]) == EXIT_USAGE
        assert main(["gen", "--family", "c5", "--gnp", "4", "0.5"]) == EXIT_USAGE

    def test_exhausted_sampler_is_a_verdict(self, capsys):
        code = main([
            "gen", "--sample", "kitefree", "--n", "13", "--p", "0.5",
            "--max-tries", "10",
        ])
        assert code == EXIT_VERDICT


class TestCliQueries:
    def test_detect_found_and_absent(self, c5_file, capsys):
        assert main(["detect", "--pattern", "c5", c5_file]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "found pattern=c5 vertices=0,1,2,3,4"
        assert main(["detect", "--pattern", "k3", c5_file]) == EXIT_VERDICT
        assert capsys.readouterr().out.strip() == "absent pattern=k3"

    def test_member_yes_and_no(self, grotzsch_file, tmp_path, capsys):
        assert main(["member", "--class", "kitefree", grotzsch_file]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "member class=KiteFree"
        k4 = tmp_path / "k4.g6"
        write_graph(complete(4), str(k4))
        assert main(["member", "--class", "k4free", str(k4)]) == EXIT_VERDICT
        out = capsys.readouterr().out.strip()
        assert out == "non-member class=K4Free pattern=k4 vertices=0,1,2,3"

    def test_omega_and_chi(self, grotzsch_file, capsys):
        assert main(["omega", grotzsch_file]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "2"
        assert main(["chi", grotzsch_file]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "4"

    def test_chi_on_a_long_odd_cycle(self, tmp_path, capsys):
        c999 = tmp_path / "c999.g6"
        write_graph(cycle(999), str(c999))
        assert main(["chi", str(c999)]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "3"

    def test_budget_exhaustion_reports_bounds(self, tmp_path, capsys):
        big = tmp_path / "big.g6"
        main(["gen", "--family", "kite-even", "--k", "2", "-o", str(big)])
        capsys.readouterr()
        code = main(["chi", str(big), "--budget-nodes", "10"])
        assert code == EXIT_UNKNOWN
        assert re.match(r"^chi lower=\d+ upper=\d+$", capsys.readouterr().out.strip())

    def test_omega_bounds_that_meet_are_an_answer(self, tmp_path, capsys):
        # The clique search runs out at 5 nodes holding a clique as large as
        # its first-fit bound; at 1 node the bounds do not meet.
        path = tmp_path / "kite-hunt.g6"
        write_graph(read_graph6("K|Nz^~}~}}fn"), str(path))
        assert main(["omega", str(path), "--budget-nodes", "5"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "7"
        assert main(["omega", str(path), "--budget-nodes", "1"]) == EXIT_UNKNOWN
        captured = capsys.readouterr()
        assert captured.out.strip() == "omega lower=6 upper=7"
        assert captured.err.strip() == "budget exhausted after 2 nodes"

    def test_stdin_graph(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(dumps(cycle(5), "graph6")))
        assert main(["omega", "-"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "2"


class TestCliColorVerify:
    def test_color_writes_artifacts(self, grotzsch_file, tmp_path, capsys):
        audit = tmp_path / "trace.txt"
        colors = tmp_path / "colors.txt"
        code = main([
            "color", "--class", "kitefree", grotzsch_file,
            "--audit-out", str(audit), "--coloring-out", str(colors),
        ])
        assert code == EXIT_OK
        captured = capsys.readouterr()
        assert len(captured.out.split()) == 11
        assert "palette=4" in captured.err
        assert audit.read_text().startswith("trace|KiteFree|steps=")
        assert colors.read_text().split() == captured.out.split()
        code = main(["verify", grotzsch_file, "--coloring", str(colors)])
        assert code == EXIT_OK
        assert capsys.readouterr().out.strip() == "proper palette=4"

    def test_color_omega_respects_budget(self, grotzsch_file, monkeypatch):
        # The colorer is stubbed out, so only the omega report can run out.
        # Like a real colorer, the stub returns a trace bound to the caller's
        # budget, so the report's omega is solved under it.
        coloring, _ = COLORERS["KiteFree"](named_graph("grotzsch"))
        monkeypatch.setitem(
            COLORERS, "KiteFree",
            lambda g, budget: (coloring, ProofTrace("KiteFree", g, budget)),
        )
        code = main(["color", "--class", "kitefree", grotzsch_file, "--budget-nodes", "1"])
        assert code == EXIT_UNKNOWN

    def test_color_budget_runs_out_in_the_clique_search(self, grotzsch_file, capsys):
        # The triangle-free leaf reads the trace's clique before its solve.
        code = main(["color", "--class", "kitefree", grotzsch_file, "--budget-nodes", "1"])
        assert code == EXIT_UNKNOWN
        assert "clique number unresolved" in capsys.readouterr().err

    def test_color_outside_class_fails(self, c5_file):
        assert main(["color", "--class", "c5free", c5_file]) == EXIT_VERDICT

    def test_color_needs_a_colorer(self, c5_file):
        assert main(["color", "--class", "trianglefree", c5_file]) == EXIT_USAGE

    def test_verify_improper_and_unparsable(self, tmp_path, capsys):
        k3 = tmp_path / "k3.g6"
        write_graph(complete(3), str(k3))
        bad = tmp_path / "bad.txt"
        bad.write_text("0 0 1\n")
        assert main(["verify", str(k3), "--coloring", str(bad)]) == EXIT_VERDICT
        assert capsys.readouterr().out.strip() == "improper edge=0,1"
        garbage = tmp_path / "garbage.txt"
        garbage.write_text("zero one two\n")
        assert main(["verify", str(k3), "--coloring", str(garbage)]) == EXIT_USAGE


class TestOneCliqueSolvePerMask:
    """A run solves the clique number of each vertex set at most once: the
    colorers, the omega-le audits and the final palette bound share the
    run's answer, and the CLI report reads it too."""

    @pytest.fixture()
    def solves(self, monkeypatch):
        counts = Counter()
        real = exact.clique_number

        def counted(g, budget=None, *, within=None):
            counts[g, g.full_mask if within is None else within] += 1
            return real(g, budget, within=within)

        monkeypatch.setattr(exact, "clique_number", counted)
        return counts

    @pytest.fixture()
    def searches(self, monkeypatch):
        # Top-level clique searches by mask: the ones given the graph, as
        # clique_number's and chromatic_number's are; a join's parts are not.
        counts = Counter()
        real = exact._max_clique_search

        def counted(rows, full, ticker, best=None, g=None):
            if g is not None:
                counts[full] += 1
            return real(rows, full, ticker, best, g)

        monkeypatch.setattr(exact, "_max_clique_search", counted)
        return counts

    @pytest.mark.parametrize(
        "g",
        [named_graph("grotzsch"), named_graph("schlafli_complement"),
         extremal_family("kite-odd", 2)],
        ids=["grotzsch", "schlafli_complement", "kite-odd-2"],
    )
    def test_kite_free_leaves_take_the_trace_clique(self, searches, g):
        color_kite_free(g)
        assert searches and max(searches.values()) == 1

    def test_k4_free_colorer(self, solves):
        color_k4_free(named_graph("schlafli_complement"))
        assert solves and max(solves.values()) == 1

    def test_kite_free_colorer(self, solves):
        color_kite_free(extremal_family("kite-odd", 2))
        assert solves and max(solves.values()) == 1

    def test_color_command(self, solves, tmp_path):
        path = tmp_path / "schlafli.g6"
        write_graph(named_graph("schlafli_complement"), str(path))
        assert main(["color", "--class", "k4free", str(path)]) == EXIT_OK
        assert solves and max(solves.values()) == 1


class TestCliSuiteHuntBench:
    def test_suite_report(self, capsys):
        code = main([
            "suite", "--class", "k4free", "--n", "6", "--count", "5",
            "--seed", "1",
        ])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "suite class=K4Free n=6 count=5 seed=1"
        assert len(lines) == 7
        assert lines[-1].startswith("total=5 pass=5")

    def test_suite_table(self, capsys):
        code = main([
            "suite", "--class", "hammerfree", "--n", "6", "--count", "3",
            "--seed", "2", "--table",
        ])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].split()[0] == "i"

    def test_suite_exit_codes(self, monkeypatch, capsys):
        code = main([
            "suite", "--class", "c5free", "--n", "12", "--count", "40",
            "--seed", "1", "--budget-nodes", "2",
        ])
        assert code == EXIT_UNKNOWN
        footer = capsys.readouterr().out.strip().splitlines()[-1]
        assert footer == "total=40 pass=32 fail=0 unknown=8 sample-fail=0 soft-gap=0"
        monkeypatch.setattr(suite, "_sample_instance", lambda *_: None)
        assert main(["suite", "--class", "c5free", "--count", "2"]) == EXIT_VERDICT
        footer = capsys.readouterr().out.strip().splitlines()[-1]
        assert footer == "total=2 pass=0 fail=0 unknown=0 sample-fail=2 soft-gap=0"

    def test_hunt_prints_an_unresolved_omega_as_dash(self, capsys):
        code = main([
            "hunt", "--class", "k1k3free", "--n", "10", "--steps", "100",
            "--seed", "344", "--budget-nodes", "4",
        ])
        assert code == EXIT_OK
        assert capsys.readouterr().out.splitlines() == [
            "class=K1K3Free n=10 m=38 chi=7 omega=- evaluations=3 steps=100 "
            "seed=344 noteworthy=false",
            "I~j^~~yvg",
        ]

    def test_hunt_output_parses(self, tmp_path, capsys):
        out = tmp_path / "best.g6"
        code = main([
            "hunt", "--class", "kitefree", "--n", "7", "--steps", "10",
            "--seed", "4", "-o", str(out),
        ])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert re.match(
            r"^class=KiteFree n=7 m=\d+ chi=\d+ omega=\d+ evaluations=\d+ "
            r"steps=10 seed=4 noteworthy=(true|false)$",
            lines[0],
        )
        assert loads(lines[1], "graph6").n == 7
        assert loads(out.read_text(), "graph6").rows == loads(lines[1], "graph6").rows

    def test_hunt_with_start_graph(self, grotzsch_file, capsys):
        code = main([
            "hunt", "--class", "kitefree", "--steps", "0", "--seed", "0",
            "--start", grotzsch_file,
        ])
        assert code == EXIT_OK
        assert "chi=4 omega=2" in capsys.readouterr().out


class TestCliErrorMapping:
    def test_missing_file(self):
        assert main(["omega", "/nonexistent/g.g6"]) == EXIT_USAGE

    def test_malformed_graph_file(self, tmp_path):
        bad = tmp_path / "bad.col"
        bad.write_text("p edge x y\n")
        assert main(["omega", str(bad)]) == EXIT_USAGE

    def test_nan_budget_seconds(self, c5_file, capsys):
        assert main(["chi", c5_file, "--budget-seconds", "nan"]) == EXIT_USAGE
        assert "time_limit must be positive" in capsys.readouterr().err

    def test_unknown_class_name(self, c5_file):
        assert main(["member", "--class", "chordal", c5_file]) == EXIT_USAGE

    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_no_arguments(self):
        assert main([]) == EXIT_USAGE
