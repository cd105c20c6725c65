"""Read and write graphs as DIMACS .col text or graph6 strings.

Both directions are exact: writing then reading reproduces the adjacency and
order bit for bit.  Parse failures raise GraphParseError with the offending
line or character position in the message.
"""

from __future__ import annotations

import re
from pathlib import Path

from .graphs import Graph, _from_rows

FORMATS = ("dimacs", "graph6")

_EXTENSIONS = {
    ".col": "dimacs",
    ".dimacs": "dimacs",
    ".g6": "graph6",
    ".graph6": "graph6",
}

# Largest order the 4-byte graph6 size form can carry.
_GRAPH6_MAX_N = 258047


class GraphParseError(ValueError):
    """Malformed graph text; the message carries the position."""


def write_dimacs(g: Graph) -> str:
    lines = [f"p edge {g.n} {g.edge_count}"]
    lines += [f"e {u + 1} {v + 1}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


def read_dimacs(text: str) -> Graph:
    n = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if n is not None:
                raise GraphParseError(f"line {lineno}: second problem line")
            if len(fields) != 4 or fields[1] != "edge":
                raise GraphParseError(f"line {lineno}: expected 'p edge <n> <m>'")
            try:
                n = int(fields[2])
                int(fields[3])
            except ValueError:
                raise GraphParseError(f"line {lineno}: non-integer counts") from None
            if n < 0:
                raise GraphParseError(f"line {lineno}: negative order")
        elif fields[0] == "e":
            if n is None:
                raise GraphParseError(f"line {lineno}: edge before problem line")
            if len(fields) != 3:
                raise GraphParseError(f"line {lineno}: expected 'e <u> <v>'")
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError:
                raise GraphParseError(f"line {lineno}: non-integer endpoints") from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise GraphParseError(
                    f"line {lineno}: endpoint out of range 1..{n}"
                )
            if u == v:
                raise GraphParseError(f"line {lineno}: loop at vertex {u}")
            edges.append((u - 1, v - 1))
        else:
            raise GraphParseError(f"line {lineno}: unknown record {fields[0]!r}")
    if n is None:
        raise GraphParseError("missing 'p edge' problem line")
    return Graph(n, edges)


# The six bits of each body character, most significant first, and back.
# Column v of the body holds the pairs (0, v), ..., (v - 1, v).
_G6_BITS = {63 + i: format(i, "06b") for i in range(64)}
_G6_CHAR = {six: chr(code) for code, six in _G6_BITS.items()}


def write_graph6(g: Graph) -> str:
    if g.n > _GRAPH6_MAX_N:
        raise ValueError(f"graph6 here covers order <= {_GRAPH6_MAX_N}, got {g.n}")
    if g.n <= 62:
        head = chr(63 + g.n)
    else:
        head = "~" + "".join(
            chr(63 + (g.n >> shift & 63)) for shift in (12, 6, 0)
        )
    flat = "".join(
        format(g.rows[v] & ((1 << v) - 1), f"0{v}b")[::-1] for v in range(1, g.n)
    )
    flat += "0" * (-len(flat) % 6)
    return head + "".join([_G6_CHAR[flat[i:i + 6]] for i in range(0, len(flat), 6)])


def read_graph6(text: str) -> Graph:
    """The graph of one graph6 line, read with no edge list: column v of
    the body (v's neighbours below v), padded to n bits, is row v of an
    n x n bit square, and u's adjacency row is read as one int from row u
    of the square (its neighbours below) and one from column u (above)."""
    # Only ASCII whitespace is stripped: str.strip() would also drop the
    # control bytes 0x1c-0x1f, which are out of graph6 range.
    line = text.strip(" \t\r\n")
    if line.startswith(">>graph6<<"):
        line = line[len(">>graph6<<"):]
    if "\n" in line:
        raise GraphParseError("expected a single graph6 line")
    if not line:
        raise GraphParseError("empty graph6 string")
    if line[0] == "~":
        if len(line) < 4:
            raise GraphParseError("char 1: truncated extended size")
        if line[1] == "~":
            raise GraphParseError("char 2: 8-byte size form not supported")
        n = 0
        for pos, ch in enumerate(line[1:4], start=2):
            if not 63 <= ord(ch) <= 126:
                raise GraphParseError(f"char {pos}: byte out of graph6 range")
            n = n << 6 | (ord(ch) - 63)
        body = line[4:]
    else:
        if not 63 <= ord(line[0]) <= 126:
            raise GraphParseError("char 1: byte out of graph6 range")
        n = ord(line[0]) - 63
        body = line[1:]
    need_bits = n * (n - 1) // 2
    need_chars = (need_bits + 5) // 6
    if len(body) != need_chars:
        raise GraphParseError(
            f"body has {len(body)} chars, order {n} needs {need_chars}"
        )
    bad = re.search("[^?-~]", body)
    if bad:
        raise GraphParseError(f"body char {bad.start() + 1}: byte out of graph6 range")
    flat = body.translate(_G6_BITS)
    if "1" in flat[need_bits:]:
        raise GraphParseError("non-zero padding bits")
    square = "".join(
        [flat[v * (v - 1) // 2:v * (v + 1) // 2].ljust(n, "0") for v in range(n)]
    )
    return _from_rows(
        int(square[u::n][::-1], 2) | int(square[u * n:(u + 1) * n][::-1], 2)
        for u in range(n)
    )


def _detect_format(path: Path, fmt: str | None) -> str:
    if fmt is not None:
        if fmt not in FORMATS:
            raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")
        return fmt
    ext = path.suffix.lower()
    if ext not in _EXTENSIONS:
        raise ValueError(
            f"cannot infer format from {path.name!r}; pass fmt or use one of "
            f"{sorted(_EXTENSIONS)}"
        )
    return _EXTENSIONS[ext]


def dumps(g: Graph, fmt: str) -> str:
    if fmt == "dimacs":
        return write_dimacs(g)
    if fmt == "graph6":
        return write_graph6(g) + "\n"
    raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")


def loads(text: str, fmt: str) -> Graph:
    if fmt == "dimacs":
        return read_dimacs(text)
    if fmt == "graph6":
        return read_graph6(text)
    raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")


def read_graph(path: str | Path, fmt: str | None = None) -> Graph:
    p = Path(path)
    kind = _detect_format(p, fmt)
    return loads(p.read_text(), kind)


def write_graph(g: Graph, path: str | Path, fmt: str | None = None) -> None:
    p = Path(path)
    kind = _detect_format(p, fmt)
    p.write_text(dumps(g, kind))
