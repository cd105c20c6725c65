"""Immutable graphs on dense integer vertices with bitset adjacency.

Vertices are 0..n-1.  Adjacency rows are Python ints used as bitmasks, so set
algebra on neighborhoods runs word-parallel.  Vertex sets cross the API as
vertex masks, ints whose bit v stands for vertex v (``mask_of`` packs ids into
one); a mask is validated against the graph order where it enters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> int:
    """Pack an iterable of vertex ids into a bitmask."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def reachable(g: Graph, m: int, seeds: int) -> int:
    """Mask of the vertices of G[m] joined to the seed mask by a path."""
    comp = seeds
    frontier = seeds
    while frontier:
        grown = comp
        for v in bits(frontier):
            grown |= g.rows[v] & m
        frontier = grown & ~comp
        comp = grown
    return comp


def components(g: Graph, m: int) -> list[int]:
    """Masks of the connected components of G[m], by ascending lowest id."""
    comps = []
    rest = m
    while rest:
        comp = reachable(g, m, rest & -rest)
        comps.append(comp)
        rest &= ~comp
    return comps


def co_components(g: Graph, m: int) -> list[int]:
    """Masks of the co-components of G[m], the components of its complement,
    by ascending lowest id.  G[m] is the join of them."""
    parts = []
    rest = m
    while rest:
        part = frontier = rest & -rest
        rest ^= part
        while frontier and rest:
            low = frontier & -frontier
            frontier ^= low
            new = rest & ~g.rows[low.bit_length() - 1]
            rest ^= new
            part |= new
            frontier |= new
        parts.append(part)
    return parts


def is_independent(g: Graph, m: int) -> bool:
    """True when G[m] has no edge."""
    return all(g.rows[v] & m == 0 for v in bits(m))


def is_clique(g: Graph, m: int) -> bool:
    """True when every two vertices of m are adjacent."""
    return all(g.rows[v] & m == m & ~(1 << v) for v in bits(m))


def vertex_mask(g: Graph, within: int | None) -> int:
    """The vertex mask within, checked against g's order; the whole vertex
    set when within is None."""
    if within is None:
        return g.full_mask
    if within < 0 or within >> g.n:
        raise ValueError(f"vertex mask out of range for order {g.n}")
    return within


class Graph:
    """Undirected simple graph, immutable after construction.

    Equality and hashing compare order and adjacency only; the name is a
    label for reports and round-trips.
    """

    __slots__ = ("n", "rows", "name")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = (), name: str = ""):
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"order must be a non-negative int, got {n!r}")
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for order {n}")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", tuple(rows))
        object.__setattr__(self, "name", name)

    def __setattr__(self, key, value):
        raise AttributeError("Graph is immutable")

    # -- basic queries ----------------------------------------------------

    @property
    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def vertices(self) -> range:
        return range(self.n)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield edges as (u, v) with u < v, in lexicographic order."""
        for u in range(self.n):
            yield from ((u, v) for v in bits(self.rows[u] >> (u + 1) << (u + 1)))

    def check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise ValueError(f"vertex {v} out of range for order {self.n}")

    def check_vertex_set(self, xs: Iterable[int]) -> set[int]:
        s = set(xs)
        for v in s:
            self.check_vertex(v)
        return s

    # -- derived graphs ----------------------------------------------------

    def induced(self, vertices: Iterable[int], name: str = "") -> Graph:
        """Induced subgraph on the given vertices, renumbered by ascending id."""
        keep = sorted(self.check_vertex_set(vertices))
        index = {v: i for i, v in enumerate(keep)}
        edges = [
            (index[u], index[v])
            for u in keep
            for v in bits(self.rows[u])
            if v in index and u < v
        ]
        return Graph(len(keep), edges, name=name)

    def with_name(self, name: str) -> Graph:
        return _from_rows(self.rows, name)

    def toggled(self, u: int, v: int) -> Graph:
        """This graph with the pair uv flipped: the edge is added when
        absent and removed when present.  The name is kept."""
        self.check_vertex(u)
        self.check_vertex(v)
        if u == v:
            raise ValueError(f"loop at vertex {u}")
        rows = list(self.rows)
        rows[u] ^= 1 << v
        rows[v] ^= 1 << u
        return _from_rows(rows, self.name)

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph) and self.n == other.n and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"<Graph{label} n={self.n} m={self.edge_count}>"


@dataclass(frozen=True)
class Coloring:
    """Total assignment of non-negative color ids to vertices 0..n-1."""

    colors: tuple[int, ...]

    def __post_init__(self):
        for c in self.colors:
            if not isinstance(c, int) or c < 0:
                raise ValueError(f"color ids must be non-negative ints, got {c!r}")

    @property
    def n(self) -> int:
        return len(self.colors)

    @property
    def palette(self) -> int:
        """Number of distinct colors actually used."""
        return len(set(self.colors))

    def compacted(self) -> Coloring:
        """Renumber colors densely by first appearance; properness is kept."""
        remap: dict[int, int] = {}
        out = []
        for c in self.colors:
            if c not in remap:
                remap[c] = len(remap)
            out.append(remap[c])
        return Coloring(tuple(out))


# -- constructors ----------------------------------------------------------


def _from_rows(rows: Iterable[int], name: str = "") -> Graph:
    """The graph with these adjacency rows, which must be symmetric and
    loop-free; no edge list is built."""
    rows = tuple(rows)
    g = Graph(len(rows), name=name)
    object.__setattr__(g, "rows", rows)
    return g


def empty(k: int) -> Graph:
    """Edgeless graph on k vertices."""
    if k < 0:
        raise ValueError(f"order must be >= 0, got {k}")
    return Graph(k, name=f"empty-{k}")


def complete(k: int) -> Graph:
    if k < 0:
        raise ValueError(f"order must be >= 0, got {k}")
    return Graph(k, [(u, v) for u in range(k) for v in range(u + 1, k)], name=f"K{k}")


def path(k: int) -> Graph:
    """Path with k vertices (k-1 edges)."""
    if k < 1:
        raise ValueError(f"path needs k >= 1, got {k}")
    return Graph(k, [(i, i + 1) for i in range(k - 1)], name=f"P{k}")


def cycle(k: int) -> Graph:
    if k < 3:
        raise ValueError(f"cycle needs k >= 3, got {k}")
    return Graph(k, [(i, (i + 1) % k) for i in range(k)], name=f"C{k}")


# -- combinators -----------------------------------------------------------
#
# Vertex numbering of every combinator: left operand keeps its ids, the right
# operand is shifted to start at left.n.


def disjoint_union(g: Graph, h: Graph) -> Graph:
    return _from_rows([*g.rows, *(r << g.n for r in h.rows)])


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint union plus all edges between the two sides."""
    right = h.full_mask << g.n
    left = g.full_mask
    return _from_rows([*(r | right for r in g.rows), *(r << g.n | left for r in h.rows)])


def complement(g: Graph) -> Graph:
    full = g.full_mask
    edges = []
    for u in range(g.n):
        missing = full & ~g.rows[u] & ~(1 << u)
        edges += [(u, v) for v in bits(missing >> (u + 1) << (u + 1))]
    return Graph(g.n, edges)


def mycielskian(g: Graph) -> Graph:
    """Mycielski construction: originals 0..n-1, shadow of i is n+i, apex 2n.

    Raises chromatic number by one while keeping the graph triangle-free when
    the input is triangle-free.
    """
    n = g.n
    edges = list(g.edges())
    for u, v in g.edges():
        edges.append((u, n + v))
        edges.append((v, n + u))
    edges += [(n + i, 2 * n) for i in range(n)]
    return Graph(2 * n + 1, edges)
