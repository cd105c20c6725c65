"""Induced-subgraph detection and membership tests for hereditary classes.

A class is given by its forbidden induced patterns.  Detection is exact
backtracking: pattern vertices are matched in a fixed static order
(descending pattern degree, then id) and host candidates are tried in
ascending id, so the first embedding found is deterministic and is the
lexicographically least one in that search order.  A search through a
host pair pins two pattern vertices to it first and keeps that order for
the rest.

Absence of p3, k3, k4, p3_union_p2, p2_union_k3 and k1_union_k3 is decided
by an anchored kernel, by bit operations on the host rows alone; the kernels
are keyed by pattern graph.  Every other co-connected pattern (its
complement is connected) is proved absent per co-component: each induced
copy lies inside one co-component of the host, so on a join each part is
searched on its own.  When a copy exists, the whole host is searched, so the
copy returned is the one the plain search finds.  A search through a host
pair takes neither shortcut.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Sequence

from .catalog import named_graph
from .graphs import Graph, co_components, complete, cycle, mask_of, path, restrict

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


def _plan(p: Graph, order: list[int]) -> tuple:
    """Per position of a match order: the pattern vertex, and the vertices
    before it that it must be adjacent and non-adjacent to."""
    return tuple(
        (
            pv,
            tuple(q for q in order[:pos] if p.rows[q] >> pv & 1),
            tuple(q for q in order[:pos] if not p.rows[q] >> pv & 1),
        )
        for pos, pv in enumerate(order)
    )


@cache
def _match_plans(p: Graph):
    """The plan of the static match order (descending degree, then id), and
    for each adjacency bit the pinned plans (a, b, plan) of the pairs (a, b)
    with that adjacency: a and b first, then the other vertices in static
    order.  Computed once per pattern."""
    static = sorted(range(p.n), key=lambda i: (-p.rows[i].bit_count(), i))
    pinned: tuple[list, list] = ([], [])
    for a in range(p.n):
        for b in range(p.n):
            if a != b:
                rest = [i for i in static if i != a and i != b]
                pinned[p.rows[a] >> b & 1].append((a, b, _plan(p, [a, b, *rest])))
    return _plan(p, static), tuple(map(tuple, pinned))


@cache
def _co_connected(p: Graph) -> bool:
    """Whether the pattern's complement is connected.  Computed once per
    pattern."""
    return len(co_components(p, p.full_mask)) == 1


def _clusters(rows: Sequence[int], m: int) -> bool:
    """Whether G[m] is P3-free: each component is a clique, the closed
    neighbourhood of each of its vertices."""
    while m:
        low = m & -m
        comp = rest = rows[low.bit_length() - 1] & m | low
        while rest:
            b = rest & -rest
            if rows[b.bit_length() - 1] & m | b != comp:
                return False
            rest ^= b
        m ^= comp
    return True


def _triangle_free(rows: Sequence[int], m: int) -> bool:
    """Whether G[m] has no triangle: no later neighbourhood holds an edge."""
    while m:
        low = m & -m
        m ^= low
        later = rest = rows[low.bit_length() - 1] & m
        while rest:
            b = rest & -rest
            if rows[b.bit_length() - 1] & later:
                return False
            rest ^= b
    return True


def _k4_free(rows: Sequence[int], m: int) -> bool:
    """Whether G[m] has no K4: no later neighbourhood holds a triangle."""
    while m:
        low = m & -m
        m ^= low
        if not _triangle_free(rows, rows[low.bit_length() - 1] & m):
            return False
    return True


def _triangles_dominate(rows: Sequence[int], m: int) -> bool:
    """Whether G[m] is K1 + K3-free: every triangle dominates m, so no
    vertex's non-neighbourhood holds a triangle."""
    rest = m
    while rest:
        low = rest & -rest
        rest ^= low
        if not _triangle_free(rows, m & ~(rows[low.bit_length() - 1] | low)):
            return False
    return True


def _edge_anchored(far_free):
    """Kernel for P + P2, given far_free(rows, m) that tells G[m] is P-free:
    every copy of P + P2 is a P in G - N[x] - N[y] for an edge xy, and back."""

    def absent(rows: Sequence[int], m: int) -> bool:
        rest = m
        while rest:
            low = rest & -rest
            rest ^= low
            rx = rows[low.bit_length() - 1]
            near = rx & rest
            while near:
                b = near & -near
                near ^= b
                if not far_free(rows, m & ~(rx | rows[b.bit_length() - 1])):
                    return False
        return True

    return absent


# Absence kernels by pattern graph: kernel(rows, m) is True exactly when
# G[m] has no induced copy of the pattern.
_ABSENT = {
    path(3): _clusters,
    complete(3): _triangle_free,
    complete(4): _k4_free,
    named_graph("p3_union_p2"): _edge_anchored(_clusters),
    named_graph("p2_union_k3"): _edge_anchored(_triangle_free),
    named_graph("k1_union_k3"): _triangles_dominate,
}


def _search(
    rows: Sequence[int], full: int, pattern: Pattern, through: tuple[int, int] | None
) -> tuple[int, ...] | None:
    """Backtracking core on G[full], given G's rows restricted to full: the
    host vertices of the first embedding, or None.  With a host pair
    ``through`` only embeddings whose image holds both its vertices are
    searched: each pattern pair of matching adjacency is pinned to it in
    turn, ascending (a, b), and the rest is matched as usual."""
    p = pattern.graph
    k = p.n
    if k > full.bit_count():
        return None
    static, pinned = _match_plans(p)
    # Host vertices usable for pattern vertex i must have at least its degree.
    host_deg = [r.bit_count() for r in rows]
    need = [r.bit_count() for r in p.rows]
    at_least = {
        d: mask_of(v for v, hd in enumerate(host_deg) if hd >= d) for d in set(need)
    }
    degree_ok = [at_least[d] for d in need]
    assign = [0] * k

    def extend(pos: int, used: int):
        # plan is the match plan of the current start, bound below.
        if pos == k:
            return tuple(assign)
        pv, adjacent, apart = plan[pos]
        cand = full & ~used & degree_ok[pv]
        for q in adjacent:
            cand &= rows[assign[q]]
        for q in apart:
            cand &= ~rows[assign[q]]
        while cand:
            low = cand & -cand
            assign[pv] = low.bit_length() - 1
            got = extend(pos + 1, used | low)
            if got is not None:
                return got
            cand ^= low
        return None

    if through is None:
        plan = static
        return extend(0, 0)
    u, v = through
    if full >> u & 1 and full >> v & 1:
        for a, b, plan in pinned[rows[u] >> v & 1]:
            if degree_ok[a] >> u & 1 and degree_ok[b] >> v & 1:
                assign[a], assign[b] = u, v
                got = extend(2, 1 << u | 1 << v)
                if got is not None:
                    return got
    return None


def find_induced(
    host: Graph,
    pattern: Pattern,
    *,
    within: int | None = None,
    through: tuple[int, int] | None = None,
) -> Embedding | None:
    """First induced occurrence of the pattern in the host, or None.

    With a vertex mask ``within`` the search is confined to host[within]
    and finds the occurrence a search of the induced copy would find; its
    vertices are ids of the host.

    A pattern with an absence kernel is proved absent by the kernel, and
    on a join any other co-connected pattern one co-component at a time
    (see the module docstring).  A copy that is found comes from the whole
    search, as without either shortcut.

    With a pair of distinct host vertices ``through=(u, v)`` only
    occurrences whose image contains both u and v count.  Each pattern pair
    (a, b) with the adjacency of u and v is pinned to (u, v) in ascending
    order of (a, b), the rest is matched as usual, and the first occurrence
    found is returned; this costs about O(n^(k-2)) instead of O(n^k) for a
    pattern of order k.  When the host with uv toggled back has no
    occurrence, every occurrence holds u and v, so the answer is None
    exactly when the full search's is; ``is_member`` relies on this.  This
    search takes neither shortcut.
    """
    if through is not None:
        u, v = through
        host.check_vertex(u)
        host.check_vertex(v)
        if u == v:
            raise ValueError(f"through needs two distinct vertices, got ({u}, {v})")
    rows, full = restrict(host, within)
    absent = _ABSENT.get(pattern.graph)
    if through is None and absent is not None:
        if absent(rows, full):
            return None
    elif through is None and _co_connected(pattern.graph):
        parts = co_components(host, full)
        if len(parts) > 1 and all(
            _search([r & part for r in rows], part, pattern, None) is None
            for part in parts
            if part.bit_count() >= pattern.graph.n
        ):
            return None
    got = _search(rows, full, pattern, through)
    return None if got is None else Embedding(pattern.name, got)


def is_member(
    g: Graph, cls: ClassSpec, *, through: tuple[int, int] | None = None
) -> Membership:
    """Membership verdict for a hereditary class, smallest patterns first.

    ``through=(u, v)`` is for graphs that differ from a known member in the
    pair uv alone: precondition, g with uv toggled back is in the class.
    Then every forbidden copy in g holds both u and v (a copy missing one
    of them is induced in the member too), so searching only the copies
    through u and v gives the verdict, and the stopping pattern, of the
    full test.  The witness is the first copy through u and v, which can
    differ from the full test's.  Without the precondition the verdict can
    be wrong; test a graph from scratch with through=None.
    """
    for pattern in sorted(cls.forbidden, key=lambda p: (p.graph.n, p.name)):
        emb = find_induced(g, pattern, through=through)
        if emb is not None:
            return Membership(cls.name, False, emb)
    return Membership(cls.name, True)


def in_class(g: Graph, cls: ClassSpec) -> bool:
    """The verdict of ``is_member`` alone.  Patterns with an absence kernel
    go first, smallest first, and the kernel alone decides them."""
    order = sorted(cls.forbidden, key=lambda p: (p.graph not in _ABSENT, p.graph.n, p.name))
    for pattern in order:
        absent = _ABSENT.get(pattern.graph)
        if not (absent(g.rows, g.full_mask) if absent else find_induced(g, pattern) is None):
            return False
    return True
