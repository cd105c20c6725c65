"""Induced-subgraph detection and membership tests for hereditary classes.

A class is given by its forbidden induced patterns.  Detection is exact
backtracking: pattern vertices are matched in a fixed static order
(descending pattern degree, then id) and host candidates are tried in
ascending id, so the first embedding found is deterministic and is the
lexicographically least one in that search order.

Every forbidden pattern of every class in CLASSES (k3, k4, kite, hammer, c5,
p3_union_p2, p2_union_k3, k1_union_k3) has a vertex-anchored kernel, which
tells by bit operations on the host rows alone whether any copy holds a given
vertex w, case by case over the role w plays in the copy.  Absence of every
one of them, and of p3 and 2k3 (which the K4Free colorer seeks), is decided
by a whole-graph kernel.  Five patterns are a triangle T with more off it,
and their kernel reads each triangle once, with far, the vertices anticomplete
to T: a copy of k1_union_k3 has far non-empty, of p2_union_k3 an edge in far,
of 2k3 a triangle in far, of the hammer a vertex that sees exactly one vertex
of T and one of far, and of the kite a vertex that sees exactly two vertices
of T (the centres) and one of far.  A triangle through x whose y sees every
vertex off N[x] leaves far empty, so those ys are cut before the triangles are
read, by a row read per vertex off N[x] when x's later neighbours outnumber
them; the p3_union_p2 kernel, a P3 in G - N[x] - N[y] for an edge xy, makes
the same cut, and tests the far sets of all of x's kept ys in one call,
skipping those of fewer than three vertices.  Absence of c5 is the anchored
kernel swept over the vertices in id order, since each copy holds its last
vertex.  The kernels are keyed by pattern graph.  When a kernel finds a copy,
or the pattern has no kernel, the search finds the copy.  ``in_class`` gives
the verdict from the kernels alone.

A pattern whose complement is connected (co-connected: 2k3, c5, hammer,
house, k1_union_k3, kite, p2_union_k3, p3_union_p2) has every copy inside
one co-component of the host, so ``find_induced`` runs the kernel, and the
search where the kernel finds a copy, on each co-component in turn.  A
kernel gives a verdict alone, so a part that does not start at vertex 0 but
holds an id of 30 or more is handed to it copied, as its own rows shifted
down to bit 0; the search reads the host's rows, and its copy has host ids.
Copies in disjoint parts differ in their first matched vertex, so the least
copy in static order is the parts' first copy whose first matched vertex is
lowest.  A join, such as a kite-free tightness witness, costs its parts and
not the cross edges between them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Sequence

from .catalog import named_graph
from .graphs import Graph, co_components, complete, cycle, path, vertex_mask

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


@cache
def _match_plan(p: Graph) -> tuple:
    """Per position of the static match order (descending degree, then id):
    the pattern vertex, and the vertices before it that it must be adjacent
    and non-adjacent to.  Computed once per pattern."""
    order = sorted(range(p.n), key=lambda i: (-p.rows[i].bit_count(), i))
    return tuple(
        (
            pv,
            tuple(q for q in order[:pos] if p.rows[q] >> pv & 1),
            tuple(q for q in order[:pos] if not p.rows[q] >> pv & 1),
        )
        for pos, pv in enumerate(order)
    )


@cache
def _co_connected(p: Graph) -> bool:
    """Whether the pattern's complement is connected.  A copy in a host that
    met two co-components would join its pieces there, and its complement
    would not be connected, so each copy lies inside one co-component."""
    return len(co_components(p, p.full_mask)) == 1


def _clusters(rows: Sequence[int], m: int, out: int = 0, ys: int = 0) -> bool:
    """Whether G[m] is P3-free, and G[out - N(y)] too for every y in ys:
    each component is a clique, the closed neighbourhood of each of its
    vertices.  A set out - N(y) of fewer than three vertices holds no P3
    and is not read."""
    while True:
        while m:
            low = m & -m
            comp = rest = rows[low.bit_length() - 1] & m | low
            while rest:
                b = rest & -rest
                if rows[b.bit_length() - 1] & m | b != comp:
                    return False
                rest ^= b
            m ^= comp
        while ys:
            b = ys & -ys
            ys ^= b
            m = out & ~rows[b.bit_length() - 1]
            if m.bit_count() > 2:
                break
        else:
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


def _far_later(rows: Sequence[int], out: int, ys: int) -> int:
    """The neighbours y in ys of a vertex x that leave out - N(y) non-empty,
    out being m - N[x], or a set holding them: ys cut by the common
    neighbourhood of out, which on a dense host holds most of them.  The cut
    reads a row per vertex of out, so it runs only when the ys outnumber
    them: elsewhere, as on a sparse host, it would read rows and cut
    nothing.  The intersection stops once it is empty."""
    if out.bit_count() >= ys.bit_count():
        return ys
    seen = ys
    while out and seen:
        f = out & -out
        out ^= f
        seen &= rows[f.bit_length() - 1]
    return ys & ~seen


def _no_p3_union_p2(rows: Sequence[int], m: int) -> bool:
    """Whether G[m] is P3 + P2-free: every copy is a P3 in out - N(y) for
    an edge xy, out being m - N[x], and back.  Only the ys that
    ``_far_later`` keeps are read, by one ``_clusters`` call per x."""
    rest = m
    while rest:
        low = rest & -rest
        rest ^= low
        rx = rows[low.bit_length() - 1]
        out = m & ~rx & ~low
        ys = _far_later(rows, out, rx & rest)
        if ys and not _clusters(rows, 0, out, ys):
            return False
    return True


def _off_triangle(found):
    """Absence kernel for a pattern made of a triangle T and more off it,
    given found(rows, m, far, rx, ry, rz), which tells whether the rest lies
    in G[m] about T = xyz, far being the non-empty set of vertices of m
    anticomplete to T.  Each triangle is read once, as x < y < z, with y
    and z among x's later neighbours that ``_far_later`` keeps: any other y
    leaves far empty.  A triangle-free G[m] is cleared by the cheaper
    triangle test alone."""

    def absent(rows: Sequence[int], m: int) -> bool:
        if _triangle_free(rows, m):
            return True
        rest = m
        while rest:
            low = rest & -rest
            rest ^= low
            rx = rows[low.bit_length() - 1]
            ys = _far_later(rows, m & ~rx & ~low, rx & rest)
            while ys:
                b = ys & -ys
                ys ^= b
                ry = rows[b.bit_length() - 1]
                rxy = rx | ry
                zs = ry & ys
                while zs:
                    c = zs & -zs
                    zs ^= c
                    rz = rows[c.bit_length() - 1]
                    far = m & ~(rxy | rz)
                    if far and found(rows, m, far, rx, ry, rz):
                        return False
        return True

    return absent


def _meets(rows: Sequence[int], far: int, near: int) -> bool:
    """Whether some vertex of far has a neighbour in near."""
    while far:
        f = far & -far
        if rows[f.bit_length() - 1] & near:
            return True
        far ^= f
    return False


def _edgeless(rows: Sequence[int], m: int) -> bool:
    """Whether G[m] has no edge."""
    rest = m
    while rest:
        low = rest & -rest
        if rows[low.bit_length() - 1] & m:
            return False
        rest ^= low
    return True


def _clique_at(rows: Sequence[int], m: int, w: int) -> bool:
    """Whether no P3 in G[m] holds w: every vertex of N[w] has N[w] as its
    closed neighbourhood, so w's component is a clique."""
    closed = zs = rows[w] & m | 1 << w
    while zs:
        z = zs & -zs
        if rows[z.bit_length() - 1] & m | z != closed:
            return False
        zs ^= z
    return True


def _k3_at(rows: Sequence[int], m: int, w: int) -> bool:
    """Whether no triangle in G[m] holds w: N(w) has no edge."""
    return _edgeless(rows, rows[w] & m)


def _edge_through(far_free, at_free):
    """Kernel anchored at w for P + P2, given far_free(rows, m), which tells
    that G[m] is P-free, and at_free(rows, m, w), which tells that no P in
    G[m] holds w.  A copy holds w either in its P2, with a neighbour y that
    leaves a P in G - N[w] - N[y], or in its P, opposite an edge xy off N[w]
    that leaves a P through w in G - N[x] - N[y].  P-freeness is hereditary,
    so the first case needs a P in G - N[w]."""

    def absent(rows: Sequence[int], m: int, w: int) -> bool:
        rw = rows[w]
        out = m & ~rw & ~(1 << w)
        rest = 0 if far_free(rows, out) else rw & m
        while rest:
            low = rest & -rest
            rest ^= low
            if not far_free(rows, out & ~rows[low.bit_length() - 1]):
                return False
        rest = out
        while rest:
            low = rest & -rest
            rest ^= low
            rx = rows[low.bit_length() - 1]
            ys = rx & rest
            while ys:
                b = ys & -ys
                ys ^= b
                if not at_free(rows, m & ~(rx | rows[b.bit_length() - 1]), w):
                    return False
        return True

    return absent


def _k1k3_through(rows: Sequence[int], m: int, w: int) -> bool:
    """Whether G[m] has no K1 + K3 through w: no triangle misses N[w], and no
    edge xy in N(w) misses a vertex off N[w]."""
    rw = rows[w]
    out = m & ~rw & ~(1 << w)
    if not _triangle_free(rows, out):
        return False
    rest = rw & m
    while rest:
        low = rest & -rest
        rest ^= low
        rx = rows[low.bit_length() - 1]
        far = out & ~rx
        ys = rx & rest if far else 0
        while ys:
            b = ys & -ys
            if far & ~rows[b.bit_length() - 1]:
                return False
            ys ^= b
    return True


# The kite, hammer and C5 kernels below start each case from a vertex o off
# N[w]: every vertex of those patterns has a non-neighbour in the pattern.
# On the dense members a hunt walks through, N[w] is most of G and the cases
# cost little.


def _kite_through(rows: Sequence[int], m: int, w: int) -> bool:
    """Whether G[m] has no kite through w.  The kite is a diamond, centres c
    and c' adjacent to each other and to the tips t and t', with a pendant p
    on t'.  For each o off N[w]: w is p with o and a later y as the
    centres; w is a centre with o as p; or w and o are the tips."""
    rw = rows[w]
    near = rw & m
    rest = out = m & ~rw & ~(1 << w)
    while rest:
        low = rest & -rest
        rest ^= low
        ro = rows[low.bit_length() - 1]
        # w = p, o and y the centres: t' in N(w), t off N[w], t' and t apart.
        ys = ro & rest
        while ys:
            b = ys & -ys
            ys ^= b
            both = ro & rows[b.bit_length() - 1]
            tips = near & both
            ts = out & both if tips else 0
            while ts:
                t = ts & -ts
                if tips & ~rows[t.bit_length() - 1]:
                    return False
                ts ^= t
        # w = c, o = p: c' in N(w) - N(o) sees t' in N(w) & N(o) and t in
        # N(w) - N(o) - N(t').
        held = near & ro
        cs = near & ~ro if held else 0
        while cs:
            c = cs & -cs
            cs ^= c
            rc = rows[c.bit_length() - 1]
            ts = rc & near & ~ro
            tps = rc & held if ts else 0
            while tps:
                t = tps & -tps
                if ts & ~rows[t.bit_length() - 1]:
                    return False
                tps ^= t
        # w and o the tips: the centres an edge xy of N(w) & N(o), and p on
        # w (off N(o)) or on o (off N(w)) misses x and y.
        pend = near & ~ro | out & ro
        xs = near & ro if pend else 0
        while xs:
            x = xs & -xs
            xs ^= x
            rx = rows[x.bit_length() - 1]
            spare = pend & ~rx
            ys = rx & xs if spare else 0
            while ys:
                b = ys & -ys
                if spare & ~rows[b.bit_length() - 1]:
                    return False
                ys ^= b
    return True


def _hammer_through(rows: Sequence[int], m: int, w: int) -> bool:
    """Whether G[m] has no hammer through w.  The hammer is a triangle
    t t' h with a path h - i - e.  For each o off N[w]: o and a later y are
    t and t', with w as i or e; or o is e, with w as h or a triangle
    vertex."""
    rw = rows[w]
    near = rw & m
    rest = m & ~rw & ~(1 << w)
    while rest:
        low = rest & -rest
        rest ^= low
        ro = rows[low.bit_length() - 1]
        # o, y = t, t': a hub h that sees both, and in N(w) - N(o) - N(y)
        # either e off N(h) (h in N(w), w = i) or i in N(h) (h off N(w), w = e).
        ys = ro & rest
        while ys:
            b = ys & -ys
            ys ^= b
            ry = rows[b.bit_length() - 1]
            miss = near & ~(ro | ry)
            hs = ro & ry & m if miss else 0
            while hs:
                h = hs & -hs
                rh = rows[h.bit_length() - 1]
                if miss & (~rh if h & near else rh):
                    return False
                hs ^= h
        # o = e and i in N(o): w = h when i is in N(w), with an edge tt' in
        # N(w) - N(o) - N(i); w a triangle vertex when i is off N[w], with an
        # edge from h in N(w) & N(i) - N(o) to t' in N(w) - N(i) - N(o).
        tri = near & ~ro
        mids = ro & m if tri else 0
        while mids:
            i = mids & -mids
            mids ^= i
            ri = rows[i.bit_length() - 1]
            if i & near:
                if not _edgeless(rows, tri & ~ri):
                    return False
                continue
            hubs = tri & ri
            others = tri & ~ri if hubs else 0
            while others and hubs:
                h = hubs & -hubs
                if rows[h.bit_length() - 1] & others:
                    return False
                hubs ^= h
    return True


def _c5_through(rows: Sequence[int], m: int, w: int) -> bool:
    """Whether G[m] has no induced C5 through w: no edge ab off N[w] has a
    neighbour x of w in N(a) - N(b) apart from a neighbour y of w in
    N(b) - N(a)."""
    rw = rows[w]
    near = rw & m
    rest = m & ~rw & ~(1 << w)
    while rest:
        low = rest & -rest
        rest ^= low
        ra = rows[low.bit_length() - 1]
        bs = ra & rest
        while bs:
            b = bs & -bs
            bs ^= b
            rb = rows[b.bit_length() - 1]
            ys = near & rb & ~ra
            xs = near & ra & ~rb if ys else 0
            while xs:
                x = xs & -xs
                if ys & ~rows[x.bit_length() - 1]:
                    return False
                xs ^= x
    return True


# Vertex-anchored kernels: kernel(rows, m, w) is True exactly when no induced
# copy in G[m] holds w.  Every pattern of every class in CLASSES has one.
_ANCHORED = {
    complete(3): _k3_at,
    complete(4): lambda rows, m, w: _triangle_free(rows, rows[w] & m),
    named_graph("p3_union_p2"): _edge_through(_clusters, _clique_at),
    named_graph("p2_union_k3"): _edge_through(_triangle_free, _k3_at),
    named_graph("k1_union_k3"): _k1k3_through,
    named_graph("kite"): _kite_through,
    named_graph("hammer"): _hammer_through,
    cycle(5): _c5_through,
}


def _no_c5(rows: Sequence[int], m: int) -> bool:
    """Whether G[m] has no induced C5: each copy holds its last vertex w and
    lies in the part of m up to w, so the kernel anchored at w sweeps the
    prefixes."""
    seen = 0
    rest = m
    while rest:
        low = rest & -rest
        rest ^= low
        seen |= low
        if not _c5_through(rows, seen, low.bit_length() - 1):
            return False
    return True


# Absence kernels by pattern graph: kernel(rows, m) is True exactly when
# G[m] has no induced copy of the pattern.  Next to far, the hammer has a
# vertex that sees exactly one vertex of T, and the kite one that sees two.
_ABSENT = {
    path(3): _clusters,
    complete(3): _triangle_free,
    complete(4): _k4_free,
    named_graph("p3_union_p2"): _no_p3_union_p2,
    named_graph("k1_union_k3"): _off_triangle(lambda *_: True),
    named_graph("p2_union_k3"): _off_triangle(lambda rows, m, far, *_: not _edgeless(rows, far)),
    named_graph("2k3"): _off_triangle(lambda rows, m, far, *_: not _triangle_free(rows, far)),
    named_graph("hammer"): _off_triangle(
        lambda rows, m, far, rx, ry, rz: _meets(rows, far, m & (rx ^ ry ^ rz) & ~(rx & ry & rz))
    ),
    named_graph("kite"): _off_triangle(
        lambda rows, m, far, rx, ry, rz: _meets(rows, far, m & (rx | ry | rz) & ~(rx ^ ry ^ rz))
    ),
    cycle(5): _no_c5,
}


def _search(rows: Sequence[int], full: int, pattern: Pattern) -> tuple[int, ...] | None:
    """Backtracking core on G[full]: the host vertices of the first
    embedding, or None.  Every candidate set is cut by full, so the rows are
    G's own, with no copy cut to full."""
    p = pattern.graph
    k = p.n
    plan = _match_plan(p)
    assign = [0] * k

    def extend(pos: int, used: int):
        if pos == k:
            return tuple(assign)
        pv, adjacent, apart = plan[pos]
        cand = full & ~used
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

    return extend(0, 0)


def find_induced(
    host: Graph, pattern: Pattern, *, within: int | None = None
) -> Embedding | None:
    """First induced occurrence of the pattern in the host, or None.

    With a vertex mask ``within`` the search is confined to host[within]
    and finds the occurrence a search of the induced copy would find; its
    vertices are ids of the host.

    A co-connected pattern is sought in each co-component of host[within]
    in turn, since every copy lies inside one: the absence kernel (see the
    module docstring) clears a part, or the search finds the part's first
    copy.  Of those, the copy whose first matched vertex is lowest is the
    whole search's first copy.  Other patterns are sought in host[within]
    whole.
    """
    # The search cuts its reads by the part, so it reads the host's rows and
    # finds host ids.  A kernel gives a verdict alone, so a part at lo > 0
    # that reaches bit 30 gets its own rows shifted down to bit 0, and its
    # bit operations work on fewer 30-bit int digits.  A part below bit 30
    # is one digit already, and a copy would only cost.
    full = vertex_mask(host, within)
    p = pattern.graph
    absent = _ABSENT.get(p)
    first = _match_plan(p)[0][0]
    best = None
    for part in co_components(host, full) if _co_connected(p) else (full,):
        # Parts come by ascending lowest id, so a part whose lowest id is
        # above best's first matched vertex holds no earlier copy, nor do
        # the parts after it.
        if best is not None and part & -part > 1 << best[first]:
            break
        if part.bit_count() < p.n:
            continue
        if absent is not None:
            lo = (part & -part).bit_length() - 1 if part >> 30 else 0
            rows = host.rows if lo == 0 else [
                (r & part) >> lo for r in host.rows[lo:part.bit_length()]
            ]
            if absent(rows, part >> lo):
                continue
        got = _search(host.rows, part, pattern)
        if got is not None and (best is None or got[first] < best[first]):
            best = got
    return None if best is None else Embedding(pattern.name, best)


def is_member(g: Graph, cls: ClassSpec) -> Membership:
    """Membership verdict for a hereditary class, smallest patterns first.

    The witness of a non-member is the first copy of the first forbidden
    pattern found."""
    for pattern in sorted(cls.forbidden, key=lambda p: (p.graph.n, p.name)):
        emb = find_induced(g, pattern)
        if emb is not None:
            return Membership(cls.name, False, emb)
    return Membership(cls.name, True)


def in_class(
    g: Graph, cls: ClassSpec, *, through: tuple[int, int] | None = None
) -> bool:
    """The verdict of ``is_member`` alone, from the kernels, with no search.

    Without ``through`` the absence kernels decide.  ``through=(u, v)`` is
    for graphs that differ from a known member in the pair uv alone:
    precondition, g with uv toggled back is in the class.  Then every
    forbidden copy in g holds both u and v (a copy missing one of them is
    induced in the member too), so the kernels anchored at u decide.
    Without the precondition the verdict can be wrong; test a graph from
    scratch with through=None."""
    rows, full = g.rows, g.full_mask
    if through is None:
        return all(_ABSENT[p.graph](rows, full) for p in cls.forbidden)
    return all(_ANCHORED[p.graph](rows, full, through[0]) for p in cls.forbidden)
