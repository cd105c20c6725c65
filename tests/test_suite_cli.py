"""Suite runner reports and the command-line front end."""

import re

import pytest

from chibound import (
    COLORERS,
    SuiteRecord,
    cycle,
    complete,
    dumps,
    loads,
    named_graph,
    run_suite,
    write_graph,
)
from chibound import suite
from chibound.cli import EXIT_OK, EXIT_UNKNOWN, EXIT_USAGE, EXIT_VERDICT, main


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
        r = SuiteRecord(
            index=3, n=0, m=0, omega=None, chi=None, palette=None, bound=None,
            verdict="sample-fail", holds=0, soft=0, violated=0, ms=0.0,
            note="sampler-exhausted",
        )
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
        done = COLORERS["KiteFree"](named_graph("grotzsch"))
        monkeypatch.setitem(COLORERS, "KiteFree", lambda g, budget: done)
        code = main(["color", "--class", "kitefree", grotzsch_file, "--budget-nodes", "1"])
        assert code == EXIT_UNKNOWN

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
