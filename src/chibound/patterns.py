"""Induced-subgraph detection and membership tests for hereditary classes.

A class is given by its forbidden induced patterns.  Detection is exact
backtracking: pattern vertices are matched in a fixed static order
(descending pattern degree, then id) and host candidates are tried in
ascending id, so the first embedding found is deterministic and is the
lexicographically least one in that search order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .catalog import named_graph
from .graphs import Graph, bits, complete, cycle, mask_of, path, restrict

MAX_PATTERN_ORDER = 8


@dataclass(frozen=True)
class Pattern:
    """A small graph to search for as an induced subgraph."""

    name: str
    graph: Graph

    def __post_init__(self):
        if not 1 <= self.graph.n <= MAX_PATTERN_ORDER:
            raise ValueError(
                f"pattern order must be 1..{MAX_PATTERN_ORDER}, got {self.graph.n}"
            )


@dataclass(frozen=True)
class Embedding:
    """Witness that a pattern occurs induced in a host.

    vertices[i] is the host vertex playing pattern vertex i.
    """

    pattern: str
    vertices: tuple[int, ...]

    @property
    def image(self) -> frozenset[int]:
        return frozenset(self.vertices)


@dataclass(frozen=True)
class Membership:
    """Verdict of a class membership test, with a witness when negative."""

    class_name: str
    member: bool
    witness: Embedding | None = None

    def __bool__(self) -> bool:
        return self.member


@dataclass(frozen=True)
class ClassSpec:
    """Hereditary class defined by forbidden induced patterns."""

    name: str
    forbidden: tuple[Pattern, ...]


def _basic_patterns() -> dict[str, Pattern]:
    table: dict[str, Pattern] = {}
    for name in (
        "p3_union_p2",
        "kite",
        "hammer",
        "diamond",
        "2k3",
        "p2_union_k3",
        "k1_union_k3",
        "gem",
        "house",
        "w4",
        "paraglider",
        "hvn",
        "crown",
    ):
        table[name] = Pattern(name, named_graph(name))
    table["p3"] = Pattern("p3", path(3))
    table["k3"] = Pattern("k3", complete(3))
    table["k4"] = Pattern("k4", complete(4))
    table["c5"] = Pattern("c5", cycle(5))
    return table


PATTERNS: dict[str, Pattern] = _basic_patterns()


def pattern_by_name(name: str) -> Pattern:
    key = name.strip().lower()
    if key not in PATTERNS:
        raise ValueError(
            f"unknown pattern {name!r}; known: {', '.join(sorted(PATTERNS))}"
        )
    return PATTERNS[key]


def _class_table() -> dict[str, ClassSpec]:
    p = PATTERNS
    specs = [
        ClassSpec("P3P2", (p["p3_union_p2"],)),
        ClassSpec("KiteFree", (p["p3_union_p2"], p["kite"])),
        ClassSpec("HammerFree", (p["p3_union_p2"], p["hammer"])),
        ClassSpec("C5Free", (p["p3_union_p2"], p["c5"])),
        ClassSpec("K4Free", (p["p3_union_p2"], p["k4"])),
        ClassSpec("P2K3Free", (p["p3_union_p2"], p["p2_union_k3"])),
        ClassSpec("K1K3Free", (p["p3_union_p2"], p["k1_union_k3"])),
        ClassSpec("TriangleFree", (p["p3_union_p2"], p["k3"])),
    ]
    return {spec.name: spec for spec in specs}


CLASSES: dict[str, ClassSpec] = _class_table()


def class_by_name(name: str) -> ClassSpec:
    key = name.strip().lower().replace("-", "").replace("_", "")
    for spec in CLASSES.values():
        if spec.name.lower() == key:
            return spec
    raise ValueError(
        f"unknown class {name!r}; known: {', '.join(sorted(CLASSES))}"
    )


def _search(
    host: Graph, pattern: Pattern, collect=None, within: int | None = None
) -> Embedding | None:
    """Backtracking core.  With collect=None returns the first embedding;
    otherwise calls collect(vertices) for every embedding and returns None.
    Returning True from collect stops the search early.  With a vertex mask
    the search runs on host[within], in the host's ids."""
    p = pattern.graph
    k = p.n
    rows, full = restrict(host, within)
    if k > full.bit_count():
        return None
    order = sorted(range(k), key=lambda i: (-p.rows[i].bit_count(), i))
    # Host vertices usable for pattern vertex i must have at least its degree.
    degree_ok = []
    host_deg = [r.bit_count() for r in rows]
    for i in range(k):
        need = p.rows[i].bit_count()
        degree_ok.append(mask_of(v for v in host.vertices() if host_deg[v] >= need))
    assign = [0] * k

    def extend(pos: int, used: int):
        if pos == k:
            if collect is None:
                return tuple(assign)
            return True if collect(tuple(assign)) else None
        pv = order[pos]
        cand = full & ~used & degree_ok[pv]
        for prev in range(pos):
            qv = order[prev]
            hq = assign[qv]
            if p.rows[qv] >> pv & 1:
                cand &= rows[hq]
            else:
                cand &= ~rows[hq]
        for hv in bits(cand):
            assign[pv] = hv
            got = extend(pos + 1, used | 1 << hv)
            if got is not None:
                return got
        return None

    got = extend(0, 0)
    if collect is None and got is not None:
        return Embedding(pattern.name, got)
    return None


def find_induced(
    host: Graph, pattern: Pattern, *, within: int | None = None
) -> Embedding | None:
    """First induced occurrence of the pattern in the host, or None.

    With a vertex mask ``within`` the search is confined to host[within]
    and finds the occurrence a search of the induced copy would find; its
    vertices are ids of the host.
    """
    return _search(host, pattern, within=within)


def embedding_is_induced(host: Graph, pattern: Pattern, emb: Embedding) -> bool:
    """Check an embedding: distinct vertices, adjacency matches exactly."""
    p = pattern.graph
    vs = emb.vertices
    if len(vs) != p.n or len(set(vs)) != p.n:
        return False
    for v in vs:
        if not 0 <= v < host.n:
            return False
    return all(
        (host.rows[vs[i]] >> vs[j] & 1) == (p.rows[i] >> j & 1)
        for i in range(p.n)
        for j in range(i + 1, p.n)
    )


def count_induced(host: Graph, pattern: Pattern, cap: int | None = None) -> int:
    """Number of distinct vertex subsets of the host inducing the pattern.

    Distinct embeddings with the same image count once.  With a cap the
    search stops early and the result is min(true count, cap).
    """
    if cap is not None and cap <= 0:
        return 0
    images: set[frozenset[int]] = set()

    def collect(vertices: tuple[int, ...]):
        images.add(frozenset(vertices))
        return cap is not None and len(images) >= cap

    _search(host, pattern, collect=collect)
    return len(images)


def is_member(g: Graph, cls: ClassSpec) -> Membership:
    """Membership verdict for a hereditary class, smallest patterns first."""
    for pattern in sorted(cls.forbidden, key=lambda p: (p.graph.n, p.name)):
        emb = find_induced(g, pattern)
        if emb is not None:
            return Membership(cls.name, False, emb)
    return Membership(cls.name, True)
