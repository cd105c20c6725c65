"""Independent brute-force oracles for cross-checking the package.

Everything here is written naively on purpose: subsets and bijections are
enumerated outright, colorings are searched by direct assignment, and the
graph6 decoder below shares no code with the package reader.  Slow is fine;
the enumerations run on orders <= 8.  The two mask predicates check the
p3-free and k1k3-absent audit kinds without the pattern search, and the
reference sampler is sample_class's rejection loop over the full
membership test, witness search included.  The reference k search is the
chromatic solver's earlier per-vertex scan, which the mask-based search must
match node for node, and the reference level search is the mask-based
search before undo restored a snapshot, which the search must match node
for node too.  The reference clique search is the branch and bound with
one recursive call per branch, which the search on a list of frames must
match branch for branch; it starts from the reference greedy clique,
whose seed, the highest degree inside the mask, is picked by max over a
key as the exact layer once picked it.  The reference hunt solves every
candidate's chromatic number in full, where hunt decides one k per toggle.
The subset-cover chromatic number covers each vertex subset by independent
sets outright, so it reaches order 9 and beyond, where direct assignment
takes seconds.  The
reference dominated pair is the kite reduction's earlier pair scan, which
the donor-mask scan must match pair for pair.  The reference first fit is
the exact layer's earlier greedy coloring, which the classes of the clique
search's color sort must match color for color.  The reference union and
join are the combinators' earlier edge-list constructions, which the
shifted-row constructions must match row for row.  restrict copies the
adjacency rows cut to a vertex mask, as the solvers and the pattern search
once did; the searches, which read the graph's own rows under the mask,
must match a search of that copy.  The reference bindings are the four
binding functions the paper's abstract states, written out apart from the
package's table.
"""

from itertools import combinations, permutations, product
from math import comb
from typing import Sequence

from chibound import (
    Coloring,
    Graph,
    SplitMix64,
    chromatic_number,
    class_by_name,
    clique_number,
    gnp,
    greedy_coloring,
    is_member,
)
from chibound.exact import _OutOfBudget, _Ticker, _color_sort
from chibound.generators import _hunt_start, _unrank_pair
from chibound.graphs import bits, components, vertex_mask


def has_edge(g: Graph, u: int, v: int) -> bool:
    return bool(g.rows[u] >> v & 1)


def degree(g: Graph, v: int) -> int:
    return g.rows[v].bit_count()


def restrict(g: Graph, within: int | None) -> tuple[list[int], int]:
    """Adjacency rows and vertex mask of G[within], kept in g's own ids;
    the whole vertex set when within is None."""
    full = vertex_mask(g, within)
    return [r & full for r in g.rows], full


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


def reference_hunt(
    class_name: str, n: int, steps: int, seed: int, budget=None
) -> tuple[Graph, int, int, int]:
    """What hunt must return without a start graph, as (graph, chi, omega,
    evaluations): the same start and toggles, every toggle tested by the
    full is_member, and a full chromatic_number of each candidate that the
    greedy bound leaves open.  A candidate is kept when its chi beats the
    current one or ties it with fewer edges; an incomplete solve skips it.
    Assumes the start solve and the last clique solve complete."""
    spec = class_by_name(class_name)
    rng = SplitMix64(seed)
    cur = _hunt_start(spec, n, rng)
    cur_chi = chromatic_number(cur, budget).value
    evaluations = 1
    pairs = n * (n - 1) // 2
    for _ in range(steps if pairs else 0):
        u, v = _unrank_pair(rng.below(pairs), n)
        cand = cur.toggled(u, v)
        if not is_member(cand, spec):
            continue
        upper = greedy_coloring(cand).palette
        fewer = cand.edge_count < cur.edge_count
        if upper < cur_chi or (upper == cur_chi and not fewer):
            continue
        res = chromatic_number(cand, budget)
        if not res.complete:
            continue
        evaluations += 1
        if res.value > cur_chi or (res.value == cur_chi and fewer):
            cur, cur_chi = cand, res.value
    return cur, cur_chi, clique_number(cur, budget).value, evaluations


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


def subset_chromatic_number(g: Graph) -> int:
    """Fewest independent sets covering V: for every vertex subset S, the
    independent set holding S's lowest vertex is tried in every way."""
    independent = [
        all(not has_edge(g, u, v) for u, v in combinations(bits(s), 2))
        for s in range(1 << g.n)
    ]
    chi = [0] * (1 << g.n)
    for s in range(1, 1 << g.n):
        low = s & -s
        chi[s] = min(
            chi[s ^ i] + 1
            for i in range(low, s + 1)
            if i & s == i and i & low and independent[i]
        )
    return chi[-1]


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


def reference_first_fit(rows: Sequence[int], order) -> list[int]:
    """The exact layer's first-fit coloring as it was before the greedy
    classes came from the clique search's color sort, kept verbatim:
    first-fit colors by vertex id along the order, -1 off the order.  Each
    color class is kept as a vertex mask, so v gets the first class that
    misses its row."""
    colors = [-1] * len(rows)
    classes: list[int] = []
    for v in order:
        row = rows[v]
        c = 0
        for members in classes:
            if not members & row:
                break
            c += 1
        else:
            classes.append(0)
        classes[c] |= 1 << v
        colors[v] = c
    return colors


def reference_disjoint_union(g: Graph, h: Graph) -> Graph:
    """The disjoint union as it was built from an edge list, kept verbatim:
    h's ids are shifted past g's."""
    edges = list(g.edges()) + [(u + g.n, v + g.n) for u, v in h.edges()]
    return Graph(g.n + h.n, edges)


def reference_join(g: Graph, h: Graph) -> Graph:
    """The join as it was built from an edge list, kept verbatim: the
    disjoint union's edges plus every pair across the two sides."""
    edges = list(reference_disjoint_union(g, h).edges())
    edges += [(u, v + g.n) for u in range(g.n) for v in range(h.n)]
    return Graph(g.n + h.n, edges)


def reference_dominated_pair(g: Graph, m: int) -> tuple[int, int] | None:
    """The kite reduction's pair scan as it was before donors became one
    mask per vertex, kept verbatim: the first ordered pair (u, v) in the
    mask with u, v nonadjacent and N(u) within N(v), neighborhoods taken
    inside the mask."""
    for u in bits(m):
        nu = g.rows[u] & m
        for v in bits(m):
            if v == u or g.rows[u] >> v & 1:
                continue
            if nu & ~(g.rows[v] & m) == 0:
                return u, v
    return None


def reference_k_color_search(
    rows: Sequence[int], verts: list[int], k: int, ticker: _Ticker, clique: list[int]
) -> Coloring | None:
    """The k-coloring search as it was before its saturation moved into
    masks, kept verbatim: pick() scans every uncolored vertex for the most
    neighbor colors, then the highest degree, then the lowest id.

    k-coloring search on the given vertices, with the clique precolored
    0, 1, ...; needs k >= len(clique).  A found coloring lists the vertices
    in the order of verts; None proves that no k-coloring exists.  Raises
    _OutOfBudget when the ticker runs out."""
    colors = [-1] * len(rows)
    # Color masks already present on each vertex's neighborhood.
    adj_colors = [0] * len(rows)
    for i, v in enumerate(clique):
        colors[v] = i
        for w in bits(rows[v]):
            adj_colors[w] |= 1 << i
    uncolored = [v for v in verts if colors[v] < 0]

    def pick() -> int:
        best_v = -1
        best_key = (-1, -1, 1)
        for v in uncolored:
            if colors[v] >= 0:
                continue
            key = (adj_colors[v].bit_count(), rows[v].bit_count(), -v)
            if key > best_key:
                best_key = key
                best_v = v
        return best_v

    # One frame per vertex colored so far: [vertex, colors left to try,
    # neighbors its current color touched, colors in use before it].
    stack: list[list] = []
    used = len(clique)
    while True:
        ticker.tick()
        if len(stack) == len(uncolored):
            return Coloring(tuple(colors[v] for v in verts))
        v = pick()
        # New color indices are tried only in ascending order: allowing one
        # fresh color per step breaks the color-permutation symmetry.
        stack.append([v, ~adj_colors[v] & ((1 << min(k, used + 1)) - 1), [], used])
        # Move the deepest vertex to its next color that passes the forward
        # check, backtracking out of vertices that have none left.
        while True:
            if not stack:
                return None
            frame = stack[-1]
            v, avail, touched, used = frame
            if colors[v] >= 0:
                for w in touched:
                    adj_colors[w] &= ~(1 << colors[v])
                touched.clear()
                colors[v] = -1
            if not avail:
                stack.pop()
                continue
            c = (avail & -avail).bit_length() - 1
            frame[1] = avail & (avail - 1)
            colors[v] = c
            ok = True
            for w in bits(rows[v]):
                if not adj_colors[w] >> c & 1:
                    adj_colors[w] |= 1 << c
                    touched.append(w)
                    if colors[w] < 0 and adj_colors[w].bit_count() >= k:
                        ok = False
            if ok:
                used = max(used, c + 1)
                break


def reference_shift(level: list[int], moved: int, order: range) -> None:
    """The level shift of reference_level_k_color_search, kept verbatim.
    Move the vertices of moved one level along order (ascending is up).
    A vertex sits in one level at most, so each level's share is a carry."""
    carry = 0
    for s in order:
        here = level[s] & moved
        level[s] ^= here ^ carry
        carry = here


def reference_level_k_color_search(
    rows: Sequence[int], verts: list[int], k: int, ticker: _Ticker, clique: list[int]
) -> Coloring | None:
    """The mask-based k search as it was before undo restored a snapshot of
    the levels, kept verbatim: every lift and drop walks all k + 1 levels
    through reference_shift, and near[c] tracks colored vertices too.

    k-coloring search on the given vertices, with the clique precolored
    0, 1, ...; needs k >= len(clique).  A found coloring lists the vertices
    in the order of verts; None proves that no k-coloring exists.  Raises
    _OutOfBudget when the ticker runs out.

    Each node colors the uncolored vertex with the most neighbor colors,
    then the highest degree, then the lowest id (DSATUR, Brelaz 1979).
    Saturation lives in masks, as in San Segundo's PASS (2012): near[c]
    holds the vertices with a neighbor colored c, and level[s] the
    uncolored vertices with exactly s neighbor colors, s = 0..k.  Coloring
    v with c reaches rows[v] & ~near[c] and moves those vertices up one
    level; the forward check fails when one would reach level k."""
    colors = [-1] * len(rows)
    near = [0] * k
    for i, v in enumerate(clique):
        colors[v] = i
        near[i] = rows[v]
    by_degree: dict[int, int] = {}
    for v in verts:
        if colors[v] < 0:
            d = rows[v].bit_count()
            by_degree[d] = by_degree.get(d, 0) | 1 << v
    degree_classes = [by_degree[d] for d in sorted(by_degree, reverse=True)]
    level = [sum(degree_classes)] + [0] * k
    n_free = level[0].bit_count()
    up, down = range(k + 1), range(k, -1, -1)
    for reached in near:
        reference_shift(level, reached, up)

    # One frame per vertex colored so far: [vertex, its level, colors left
    # to try, neighbors its current color reached, colors in use before it].
    stack: list[list] = []
    used = len(clique)
    while True:
        ticker.tick()
        if len(stack) == n_free:
            return Coloring(tuple(colors[v] for v in verts))
        s = k
        while not level[s]:
            s -= 1
        top = level[s]
        for mask in degree_classes:
            if top & mask:
                top &= mask
                break
        bit = top & -top
        v = bit.bit_length() - 1
        level[s] ^= bit
        # New color indices are tried only in ascending order: allowing one
        # fresh color per step breaks the color-permutation symmetry.
        avail = 0
        for c in range(min(k, used + 1)):
            if not near[c] & bit:
                avail |= 1 << c
        stack.append([v, s, avail, 0, used])
        # Move the deepest vertex to its next color that passes the forward
        # check, backtracking out of vertices that have none left.
        while True:
            if not stack:
                return None
            frame = stack[-1]
            v, s, avail, reached, used = frame
            c = colors[v]
            if c >= 0:
                near[c] ^= reached
                reference_shift(level, reached, down)
                colors[v] = -1
            if not avail:
                level[s] |= 1 << v
                stack.pop()
                continue
            c = (avail & -avail).bit_length() - 1
            frame[2] = avail & (avail - 1)
            reached = rows[v] & ~near[c]
            if reached & level[k - 1]:  # one would reach level k
                continue
            near[c] |= reached
            reference_shift(level, reached, up)
            colors[v] = c
            frame[3] = reached
            used = max(used, c + 1)
            break


def reference_greedy_maximal_clique(rows: Sequence[int], full: int) -> list[int]:
    """The greedy maximal clique as the exact layer first wrote it: the seed
    of highest degree inside full, the lowest id on ties, then lowest ids."""
    if not full:
        return []
    seed = max(bits(full), key=lambda v: ((rows[v] & full).bit_count(), -v))
    clique = [seed]
    cand = rows[seed] & full
    while cand:
        v = next(bits(cand))
        clique.append(v)
        cand &= rows[v]
    return sorted(clique)


def reference_max_clique_search(
    rows: Sequence[int], full: int, ticker: _Ticker
) -> tuple[list[int], bool, int]:
    """The clique search as it was before its branches moved onto a list of
    frames, kept verbatim but for the join split, which a search given no
    graph never takes: expand calls itself once per branch."""
    best = reference_greedy_maximal_clique(rows, full)
    cur: list[int] = []
    floor = len(best)

    def expand(p_mask: int, order: list[tuple[int, int]]):
        nonlocal best, floor
        for v, bound in reversed(order):
            if len(cur) + bound <= floor:
                return
            cur.append(v)
            rest = p_mask & rows[v]
            if rest:
                ticker.tick()
                expand(rest, _color_sort(rows, rest))
            elif len(cur) > floor:
                best = sorted(cur)
                floor = len(best)
            cur.pop()
            p_mask &= ~(1 << v)

    order = _color_sort(rows, full)
    try:
        if full:
            ticker.tick()
            expand(full, order)
    except _OutOfBudget:
        return best, False, order[-1][1]
    return best, True, len(best)


# The four binding functions stated in the abstract (PAPER.md): 2*omega for
# (P3+P2, kite)-free, omega^2 for (P3+P2, hammer)-free, (3*omega^2+omega)/2
# for (P3+P2, C5)-free, and omega(omega+1)(omega+2)/6 for every (P3+P2)-free
# graph, the bound the paper starts from (its ref. BA18).
REFERENCE_BINDINGS = {
    "KiteFree": lambda w: w + w,
    "HammerFree": lambda w: w**2,
    "C5Free": lambda w: w * (3 * w + 1) // 2,
    "P3P2": lambda w: comb(w + 2, 3),
}
# The other classes' bindings (K4Free 9, P2K3Free omega^2, K1K3Free 2*omega,
# TriangleFree 4) rest on the full paper, which is not in the repository, so
# they have no reference here.
FULL_PAPER_BINDINGS = ("K4Free", "P2K3Free", "K1K3Free", "TriangleFree")
