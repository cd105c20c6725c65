"""DIMACS and graph6 reading, writing, and round-trip identity."""

from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chibound import (
    Graph,
    GraphParseError,
    complete,
    cycle,
    dumps,
    empty,
    extremal_family,
    gnp,
    join,
    loads,
    named_graph,
    read_dimacs,
    read_graph,
    read_graph6,
    write_dimacs,
    write_graph,
    write_graph6,
)
from chibound.cli import EXIT_USAGE, main

from oracles import decode_graph6_reference


class TestDimacs:
    def test_reads_k3(self):
        text = "p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n"
        g = read_dimacs(text)
        assert g.n == 3 and g.edge_count == 3

    def test_tolerates_comments_and_blank_lines(self):
        text = "c a comment\n\np edge 2 1\nc another\ne 1 2\n"
        g = read_dimacs(text)
        assert g.n == 2 and g.edge_count == 1

    def test_write_then_read_identity(self):
        g = named_graph("grotzsch")
        assert list(read_dimacs(write_dimacs(g)).edges()) == list(g.edges())

    def test_write_is_canonical_fixpoint(self):
        g = cycle(6)
        once = write_dimacs(g)
        assert write_dimacs(read_dimacs(once)) == once

    def test_errors_carry_position(self):
        with pytest.raises(GraphParseError, match="line 1"):
            read_dimacs("q edge 1 0\n")
        with pytest.raises(GraphParseError, match="line 2"):
            read_dimacs("p edge 2 1\ne 1 5\n")
        with pytest.raises(GraphParseError):
            read_dimacs("e 1 2\n")


class TestGraph6:
    def test_known_small_encoding(self):
        g = read_graph6("D?{")
        assert g.n == 5
        assert write_graph6(g) == "D?{"

    def test_header_prefix_accepted(self):
        assert read_graph6(">>graph6<<D?{").n == 5

    def test_reference_decoder_agreement_small(self):
        for seed in range(40):
            g = gnp(1 + seed % 11, 0.4, seed)
            line = write_graph6(g)
            n, edges = decode_graph6_reference(line)
            assert n == g.n
            assert edges == set(g.edges())

    def test_reference_decoder_agreement_large_order(self):
        g = gnp(70, 0.05, 3)
        line = write_graph6(g)
        n, edges = decode_graph6_reference(line)
        assert (n, edges) == (g.n, set(g.edges()))

    @given(
        st.integers(min_value=0, max_value=62) | st.integers(min_value=63, max_value=70),
        st.sampled_from([0.0, 0.1, 0.5, 1.0]),
        st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=60, deadline=None)
    def test_reference_decoder_round_trip(self, n, p, seed):
        # Orders from 63 take the four-byte size form.
        g = gnp(n, p, seed)
        line = write_graph6(g)
        assert decode_graph6_reference(line) == (n, set(g.edges()))
        assert read_graph6(line) == g

    @pytest.mark.parametrize(
        "g",
        [
            extremal_family("kite-even", 4),
            extremal_family("kite-odd", 2),
            *(reduce(join, [empty(2)] * k) for k in (1, 3, 31, 32, 60)),
            empty(0),
            empty(1),
            empty(2),
            complete(2),
            gnp(63, 0.5, 1),
            gnp(130, 0.3, 2),
        ],
        ids=lambda g: f"{g.name or 'n'}-{g.n}-{g.edge_count}",
    )
    def test_reader_matches_reference_decoder(self, g):
        # The reader lays the columns out as one n x n bit square and reads
        # each row from it: the dense joins (K_{2xk} among them), the
        # smallest orders and the four-byte size form (orders from 63) all
        # go through it.
        line = write_graph6(g)
        back = read_graph6(line)
        assert (back.n, set(back.edges())) == decode_graph6_reference(line)
        assert back.rows == g.rows

    def test_four_byte_size_form(self):
        g = Graph(100, [(0, 99)])
        line = write_graph6(g)
        assert line.startswith("~")
        back = read_graph6(line)
        assert back.n == 100 and list(back.edges()) == [(0, 99)]

    def test_eight_byte_size_form_rejected(self):
        with pytest.raises(GraphParseError):
            read_graph6("~~" + "?" * 10)

    def test_padding_must_be_zero(self):
        # C5 fills 10 of 12 bit slots, so the final group ends in two
        # padding bits; setting either one must be rejected.
        line = write_graph6(cycle(5))
        group = ord(line[-1]) - 63
        assert group & 3 == 0
        for pad in (1, 2):
            corrupted = line[:-1] + chr(63 + (group | pad))
            with pytest.raises(GraphParseError, match="padding"):
                read_graph6(corrupted)

    def test_out_of_range_byte_rejected(self):
        with pytest.raises(GraphParseError, match="out of graph6 range"):
            read_graph6("D?\x1f")


# Every parse-error site: (reader, input, exception type, message fragment).
PARSE_ERRORS = [
    (read_dimacs, "p edge 1 0\np edge 1 0\n", GraphParseError, "line 2: second problem line"),
    (read_dimacs, "p edge 3\n", GraphParseError, "line 1: expected 'p edge <n> <m>'"),
    (read_dimacs, "p col 3 0\n", GraphParseError, "line 1: expected 'p edge <n> <m>'"),
    (read_dimacs, "p edge x 0\n", GraphParseError, "line 1: non-integer counts"),
    (read_dimacs, "p edge -1 0\n", GraphParseError, "line 1: negative order"),
    (read_dimacs, "e 1 2\n", GraphParseError, "line 1: edge before problem line"),
    (read_dimacs, "p edge 2 1\ne 1\n", GraphParseError, "line 2: expected 'e <u> <v>'"),
    (read_dimacs, "p edge 2 1\ne 1 x\n", GraphParseError, "line 2: non-integer endpoints"),
    (read_dimacs, "p edge 2 1\ne 1 5\n", GraphParseError, "line 2: endpoint out of range 1..2"),
    (read_dimacs, "p edge 2 1\ne 2 2\n", GraphParseError, "line 2: loop at vertex 2"),
    (read_dimacs, "q edge 1 0\n", GraphParseError, "line 1: unknown record 'q'"),
    (read_dimacs, "c comments only\n", GraphParseError, "missing 'p edge' problem line"),
    (read_graph6, "D?{\nD?{\n", GraphParseError, "expected a single graph6 line"),
    (read_graph6, " \n", GraphParseError, "empty graph6 string"),
    (read_graph6, "~??", GraphParseError, "char 1: truncated extended size"),
    (read_graph6, "~~" + "?" * 10, GraphParseError, "char 2: 8-byte size form not supported"),
    (read_graph6, "~?\x7f?", GraphParseError, "char 3: byte out of graph6 range"),
    (read_graph6, "\x7f", GraphParseError, "char 1: byte out of graph6 range"),
    (read_graph6, "D?", GraphParseError, "body has 1 chars, order 5 needs 2"),
    (read_graph6, "D?\x7f", GraphParseError, "body char 2: byte out of graph6 range"),
    (read_graph6, "D?{\x1f", GraphParseError, "body has 3 chars, order 5 needs 2"),
    (read_graph6, "B@", GraphParseError, "non-zero padding bits"),
    (write_graph6, Graph(258048, []), ValueError, "graph6 here covers order <= 258047"),
    (lambda text: loads(text, "xyz"), "B?", ValueError, "unknown format 'xyz'"),
    (lambda g: dumps(g, "xyz"), Graph(2, []), ValueError, "unknown format 'xyz'"),
    (lambda path: read_graph(path, "xyz"), "g.g6", ValueError, "unknown format 'xyz'"),
]


@pytest.mark.parametrize(
    "reader, arg, exc, fragment", PARSE_ERRORS, ids=[e[3] for e in PARSE_ERRORS]
)
def test_parse_error_sites(reader, arg, exc, fragment):
    with pytest.raises(exc) as info:
        reader(arg)
    assert fragment in str(info.value)


@pytest.mark.parametrize("name, text", [
    ("bad.col", "p edge 2 1\ne 2 2\n"),
    ("bad.g6", "~??\n"),
], ids=["dimacs", "graph6"])
def test_cli_parse_error_is_one_line(tmp_path, capsys, name, text):
    path = tmp_path / name
    path.write_text(text)
    assert main(["omega", str(path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err


class TestFileLevel:
    def test_extension_detection(self, tmp_path):
        g = named_graph("kite")
        for name in ("g.col", "g.dimacs", "g.g6", "g.graph6"):
            p = tmp_path / name
            write_graph(g, p)
            back = read_graph(p)
            assert list(back.edges()) == list(g.edges())

    def test_unknown_extension_needs_fmt(self, tmp_path):
        p = tmp_path / "g.xyz"
        with pytest.raises(ValueError):
            write_graph(complete(3), p)
        write_graph(complete(3), p, fmt="graph6")
        assert read_graph(p, fmt="graph6").edge_count == 3

    def test_dumps_loads_both_formats(self):
        g = cycle(7)
        for fmt in ("dimacs", "graph6"):
            assert list(loads(dumps(g, fmt), fmt).edges()) == list(g.edges())


class TestRoundTripProperty:
    @given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=0, max_value=14))
    @settings(max_examples=80, deadline=None)
    def test_seeded_round_trips(self, seed, n):
        g = gnp(n, 0.35, seed)
        for fmt in ("dimacs", "graph6"):
            back = loads(dumps(g, fmt), fmt)
            assert back.n == g.n
            assert list(back.edges()) == list(g.edges())
