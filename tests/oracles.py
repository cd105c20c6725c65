"""Independent brute-force oracles for cross-checking the package.

Everything here is written naively on purpose: subsets and bijections are
enumerated outright, colorings are searched by direct assignment, and the
graph6 decoder below shares no code with the package reader.  Slow is fine;
the enumerations run on orders <= 8.  The two mask predicates check the
p3-free and k1k3-absent audit kinds without the pattern search, and the
reference sampler is sample_class's rejection loop over the full
membership test, witness search included.
"""

from itertools import combinations, permutations, product

from chibound import Graph, SplitMix64, class_by_name, gnp, is_member
from chibound.graphs import bits, components


def has_edge(g: Graph, u: int, v: int) -> bool:
    return bool(g.rows[u] >> v & 1)


def degree(g: Graph, v: int) -> int:
    return g.rows[v].bit_count()


def brute_clique_number(g: Graph) -> int:
    best = 0
    for size in range(g.n, 0, -1):
        for subset in combinations(range(g.n), size):
            if all(has_edge(g, u, v) for u, v in combinations(subset, 2)):
                return size
    return best


def clique_components(g: Graph, m: int) -> bool:
    """Whether every component of G[m] is a clique (G[m] is P3-free)."""
    return all(
        g.rows[v] & comp == comp & ~(1 << v)
        for comp in components(g, m)
        for v in bits(comp)
    )


def has_k1_union_k3(g: Graph, m: int) -> bool:
    """Whether some triangle of G[m] misses a vertex of m outright."""
    for v in bits(m):
        for w in bits(g.rows[v] & m):
            if w <= v:
                continue
            for x in bits(g.rows[v] & g.rows[w] & m):
                lonely = m & ~g.rows[v] & ~g.rows[w] & ~g.rows[x]
                lonely &= ~(1 << v) & ~(1 << w) & ~(1 << x)
                if lonely:
                    return True
    return False


def reference_sample_class(cfg) -> Graph | None:
    """What sample_class must return for a SampleConfig: the first of
    max_tries G(n, p) draws, each seeded by the next word of one splitmix64
    stream, that the full is_member test accepts; None when none is."""
    spec = class_by_name(cfg.class_name)
    rng = SplitMix64(cfg.seed)
    for _ in range(cfg.max_tries):
        g = gnp(cfg.n, cfg.p, rng.next_u64())
        if is_member(g, spec):
            return g
    return None


def brute_chromatic_number(g: Graph) -> int:
    if g.n == 0:
        return 0
    edges = list(g.edges())
    for k in range(1, g.n + 1):
        for assignment in product(range(k), repeat=g.n):
            if set(assignment) != set(range(k)):
                continue
            if all(assignment[u] != assignment[v] for u, v in edges):
                return k
    return g.n


def brute_find_induced(host: Graph, pattern: Graph) -> tuple[int, ...] | None:
    """First induced copy over all vertex subsets and all bijections.

    Returns the host vertices in pattern-vertex order, or None.  Subsets are
    scanned in lexicographic order, bijections in permutation order, so the
    result is deterministic (not necessarily equal to the package's witness,
    only its existence is compared).
    """
    k = pattern.n
    if k > host.n:
        return None
    pattern_edges = {(u, v) for u, v in pattern.edges()}
    host_degrees = [degree(host, v) for v in range(host.n)]
    min_pattern_degree = min(
        (degree(pattern, v) for v in range(k)), default=0
    )
    candidates = [v for v in range(host.n) if host_degrees[v] >= 0]
    for subset in combinations(candidates, k):
        if sum(1 for v in subset if host_degrees[v] >= min_pattern_degree) < k:
            continue
        for image in permutations(subset):
            ok = True
            for a in range(k):
                for b in range(a + 1, k):
                    want = (a, b) in pattern_edges
                    have = has_edge(host, image[a], image[b])
                    if want != have:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                return image
    return None


def induced_embeddings(host: Graph, pattern: Graph) -> list[tuple[int, ...]]:
    """Every induced copy, as host vertices in pattern-vertex order.

    Partial maps are extended one pattern vertex at a time, in id order, by
    every unused host vertex whose adjacency to the vertices mapped so far
    matches the pattern's.
    """
    out = []

    def extend(image: list[int]):
        i = len(image)
        if i == pattern.n:
            out.append(tuple(image))
            return
        for v in range(host.n):
            if v not in image and all(
                has_edge(host, v, image[j]) == has_edge(pattern, i, j) for j in range(i)
            ):
                extend(image + [v])

    extend([])
    return out


def embedding_is_induced(host: Graph, pattern, emb) -> bool:
    """Check an embedding of a Pattern: distinct host vertices, adjacency
    matches exactly."""
    p = pattern.graph
    vs = emb.vertices
    if len(vs) != p.n or len(set(vs)) != p.n:
        return False
    if not all(0 <= v < host.n for v in vs):
        return False
    return all(
        has_edge(host, vs[i], vs[j]) == has_edge(p, i, j)
        for i, j in combinations(range(p.n), 2)
    )


def count_induced(host: Graph, pattern, cap: int | None = None) -> int:
    """Number of distinct vertex sets of the host inducing the Pattern, or
    min(that, cap) with a cap."""
    images = {frozenset(vs) for vs in induced_embeddings(host, pattern.graph)}
    return len(images) if cap is None else max(0, min(len(images), cap))


def is_isomorphic(g: Graph, h: Graph) -> bool:
    """Isomorphism by trying every bijection of the vertices."""
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    h_edges = set(h.edges())
    for image in permutations(range(g.n)):
        if all(
            (min(image[u], image[v]), max(image[u], image[v])) in h_edges
            for u, v in g.edges()
        ):
            return True
    return False


def decode_graph6_reference(line: str) -> tuple[int, set[tuple[int, int]]]:
    """Independent graph6 decoder: order plus edge set.

    Follows the format note directly: size, then the upper triangle of the
    adjacency matrix in column order, 6 bits per character, offset 63.
    """
    data = [ord(ch) - 63 for ch in line.strip()]
    if data[0] == 63:
        if data[1] == 63:
            raise ValueError("8-byte size form not handled by this oracle")
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        body = data[4:]
    else:
        n = data[0]
        body = data[1:]
    bit_list = []
    for value in body:
        for shift in (5, 4, 3, 2, 1, 0):
            bit_list.append((value >> shift) & 1)
    edges = set()
    idx = 0
    for v in range(1, n):
        for u in range(v):
            if bit_list[idx]:
                edges.add((u, v))
            idx += 1
    return n, edges
