"""Named small graphs used as forbidden patterns and reference witnesses.

Every entry is built from an explicit edge list or from the combinators, so
vertex numbering is fixed and documented here, and detection witnesses are
reproducible across runs.
"""

from __future__ import annotations

from itertools import combinations

from .graphs import Graph, complement, cycle, mycielskian, path


def _p3_union_p2() -> Graph:
    # P3 on 0-1-2 plus an independent edge 3-4.
    return Graph(5, [(0, 1), (1, 2), (3, 4)], name="p3_union_p2")


def _kite() -> Graph:
    # Diamond on 0,1,2,3 (1 and 2 are the degree-3 pair) with pendant 4 on 3.
    return Graph(5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4)], name="kite")


def _hammer() -> Graph:
    # Triangle 0,1,2 with a path 2-3-4 hanging off vertex 2.
    return Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)], name="hammer")


def _diamond() -> Graph:
    return Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)], name="diamond")


def _two_k3() -> Graph:
    return Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)], name="2k3")


def _p2_union_k3() -> Graph:
    # Edge 0-1 plus a disjoint triangle 2,3,4.
    return Graph(5, [(0, 1), (2, 3), (2, 4), (3, 4)], name="p2_union_k3")


def _k1_union_k3() -> Graph:
    # Isolated vertex 0 plus a triangle 1,2,3.
    return Graph(4, [(1, 2), (1, 3), (2, 3)], name="k1_union_k3")


def _gem() -> Graph:
    # Path 0-1-2-3 joined to an apex 4.
    return Graph(
        5, [(0, 1), (1, 2), (2, 3), (0, 4), (1, 4), (2, 4), (3, 4)], name="gem"
    )


def _house() -> Graph:
    return complement(path(5)).with_name("house")


def _w4() -> Graph:
    # 4-cycle 0,1,2,3 plus a hub 4 adjacent to all of it.
    return Graph(
        5,
        [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (1, 4), (2, 4), (3, 4)],
        name="w4",
    )


def _paraglider() -> Graph:
    return complement(_p3_union_p2()).with_name("paraglider")


def _hvn() -> Graph:
    # K4 on 0,1,2,3 plus a vertex 4 adjacent to exactly 0 and 1.
    edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    edges += [(0, 4), (1, 4)]
    return Graph(5, edges, name="hvn")


def _crown() -> Graph:
    # Apex 0 joined to K1 union K3 (isolated 1, triangle 2,3,4).
    return Graph(
        5, [(0, 1), (0, 2), (0, 3), (0, 4), (2, 3), (2, 4), (3, 4)], name="crown"
    )


def _grotzsch() -> Graph:
    return mycielskian(cycle(5)).with_name("grotzsch")


def _schlafli_complement() -> Graph:
    """27-vertex complement of the Schlafli graph, srg(27, 10, 1, 5).

    Vertices: a_1..a_6 are 0..5, b_1..b_6 are 6..11, c_ij for i<j in 1..6 are
    12..26 in lexicographic (i, j) order.  a_i ~ b_j iff i != j; a_i and b_i
    are adjacent to c_jk iff i is one of j, k; c_ij ~ c_kl iff the index
    pairs are disjoint; the a's and the b's are independent sets.
    """
    pairs = list(combinations(range(1, 7), 2))
    c_index = {pair: 12 + k for k, pair in enumerate(pairs)}
    edges = []
    for i in range(1, 7):
        for j in range(1, 7):
            if i != j:
                edges.append((i - 1, 5 + j))
    for (j, k), cid in c_index.items():
        for i in (j, k):
            edges.append((i - 1, cid))
            edges.append((5 + i, cid))
    for p, q in combinations(pairs, 2):
        if not set(p) & set(q):
            edges.append((c_index[p], c_index[q]))
    dedup = sorted({(min(u, v), max(u, v)) for u, v in edges})
    return Graph(27, dedup, name="schlafli_complement")


_BUILDERS = {
    "grotzsch": _grotzsch,
    "schlafli_complement": _schlafli_complement,
    "p3_union_p2": _p3_union_p2,
    "kite": _kite,
    "hammer": _hammer,
    "diamond": _diamond,
    "2k3": _two_k3,
    "p2_union_k3": _p2_union_k3,
    "k1_union_k3": _k1_union_k3,
    "gem": _gem,
    "house": _house,
    "w4": _w4,
    "paraglider": _paraglider,
    "hvn": _hvn,
    "crown": _crown,
}


def catalog_names() -> list[str]:
    return sorted(_BUILDERS)


def named_graph(name: str) -> Graph:
    """Build a catalog graph by name; unknown names raise ValueError."""
    key = name.strip().lower()
    if key not in _BUILDERS:
        raise ValueError(f"unknown named graph {name!r}; known: {', '.join(catalog_names())}")
    return _BUILDERS[key]()
