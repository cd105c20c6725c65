"""Exact solvers for clique number and chromatic number.

All solvers run under a budget of search nodes and wall time.  Exhausting the
budget is not an error: results carry proven bounds and a completeness flag,
so "unknown" stays distinct from any definite answer.  Tie-breaking is always
toward the lowest vertex id, which makes every witness deterministic.

The clique and chromatic solvers take an optional vertex mask ``within`` and
then solve G[within] in place: every search reads the graph's own rows under
the mask of the vertex set it solves, results keep the graph's own vertex
ids, and the search runs exactly as it would on the induced copy renumbered
by ascending id.

Both solvers split a join over its co-components (the components of the
complement, from ``graphs.co_components``) when at least two of them have an
edge: clique number and chromatic number add over a join, so each part is
searched on its own under the one shared budget.  A prime graph, or a join
of one part with edgeless parts, is searched whole as before.  A split
clique search returns the union of the parts' maximum cliques, which can
differ from the clique the whole search would have returned; a split
coloring colors the parts with disjoint palettes.

The chromatic solver tries k = omega, omega + 1, ... in turn on each part:
the parts of a split join, or the whole graph as one part.
``require_coloring``, for callers that need only a coloring within a bound
cap(omega), runs the same solve over another sequence of k: on each part,
k = omega, then cap(omega), cap(omega) + 1, ...  It refutes no k strictly
between omega and the cap, and its result claims only the bounds it proved.
The k search picks as DSATUR does (most neighbor colors, then highest
degree, then lowest id) and keeps saturation in level masks, one per count
of neighbor colors, so a search node costs O(k) mask operations and walks no
vertex list.  A color moves only the uncolored vertices it reaches, each up
one level, and undoing it restores a copy of the levels taken when the
vertex was picked.
``k_colorable`` answers at one known k: a maximum clique, then at most one
such k search.
A chromatic solve given a proven clique (``clique=``; a ``ProofTrace`` holds
one per vertex set) runs no clique search, and its budget counts k-search
nodes alone: the clique was paid for under the budget that proved it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable, Sequence

from .graphs import Coloring, Graph, bits, co_components, is_clique, mask_of, vertex_mask

DEFAULT_NODE_LIMIT = 10_000_000
DEFAULT_TIME_LIMIT = 60.0

# How many nodes pass between wall-clock checks.
_CLOCK_STRIDE = 256


@dataclass(frozen=True)
class SolveBudget:
    """Limits for one exact solve: search nodes and wall-clock seconds."""

    node_limit: int = DEFAULT_NODE_LIMIT
    time_limit: float = DEFAULT_TIME_LIMIT

    def __post_init__(self):
        # "not x > 0" rather than "x <= 0", so that NaN is rejected too.
        if not self.node_limit > 0:
            raise ValueError(f"node_limit must be positive, got {self.node_limit}")
        if not self.time_limit > 0:
            raise ValueError(f"time_limit must be positive, got {self.time_limit}")


class BudgetExhausted(RuntimeError):
    """Raised by callers that need a definite answer and did not get one."""


class _OutOfBudget(Exception):
    pass


class _Ticker:
    """Shared node counter and deadline for one top-level solve."""

    __slots__ = ("nodes", "node_limit", "deadline")

    def __init__(self, budget: SolveBudget):
        self.nodes = 0
        self.node_limit = budget.node_limit
        self.deadline = time.monotonic() + budget.time_limit

    def tick(self):
        self.nodes += 1
        if self.nodes > self.node_limit:
            raise _OutOfBudget
        if self.nodes % _CLOCK_STRIDE == 0 and time.monotonic() > self.deadline:
            raise _OutOfBudget


@dataclass(frozen=True)
class CliqueResult:
    """Best clique found plus proven bounds on the clique number."""

    vertices: tuple[int, ...]
    lower: int
    upper: int
    complete: bool
    nodes_used: int

    @property
    def value(self) -> int | None:
        """The clique number once proven: the search completed, or a search
        cut short found a clique as large as its upper bound."""
        return self.lower if self.complete or self.lower == self.upper else None


@dataclass(frozen=True)
class ChromaticResult:
    """Proven chromatic bounds; coloring witnesses the upper bound."""

    lower: int
    upper: int
    coloring: Coloring | None
    complete: bool
    nodes_used: int

    @property
    def value(self) -> int | None:
        return self.upper if self.complete else None


def greedy_coloring(g: Graph) -> Coloring:
    """First-fit coloring along the vertex order 0..n-1."""
    return _greedy(g.rows, g.full_mask)


def verify_coloring(g: Graph, coloring: Coloring) -> tuple[int, int] | None:
    """Return None when proper, else the lexicographically first bad edge,
    found with one vertex mask per color class."""
    if coloring.n != g.n:
        raise ValueError(
            f"coloring covers {coloring.n} vertices, graph has {g.n}"
        )
    classes: dict[int, int] = {}
    for v, c in enumerate(coloring.colors):
        classes[c] = classes.get(c, 0) | 1 << v
    for u, row in enumerate(g.rows):
        bad = row & classes[coloring.colors[u]] & ~((2 << u) - 1)
        if bad:
            return (u, (bad & -bad).bit_length() - 1)
    return None


def _greedy_maximal_clique(rows: Sequence[int], full: int) -> list[int]:
    """Grow a maximal clique greedily: seed it with the vertex of highest
    degree inside full, the lowest id on ties, then add the lowest id that
    sees every vertex so far."""
    if not full:
        return []
    seed = top = -1
    for v in bits(full):
        d = (rows[v] & full).bit_count()
        if d > top:
            seed, top = v, d
    clique = [seed]
    cand = rows[seed] & full
    while cand:
        v = next(bits(cand))
        clique.append(v)
        cand &= rows[v]
    return sorted(clique)


def _color_sort(rows: Sequence[int], p_mask: int) -> list[tuple[int, int]]:
    """Greedy color classes over the candidate set; returns (vertex, bound)
    pairs in class order, bound being the class index + 1.  Each class takes
    the lowest free vertex, then each later free vertex with no neighbor in
    the class so far, so the classes are the first-fit coloring along
    ascending ids: a vertex joins the first class that holds no earlier
    neighbor."""
    out = []
    rest = p_mask
    bound = 0
    while rest:
        bound += 1
        avail = rest
        while avail:
            v = (avail & -avail).bit_length() - 1
            out.append((v, bound))
            rest &= ~(1 << v)
            avail &= ~rows[v] & ~(1 << v)
    return out


def _greedy(rows: Sequence[int], mask: int) -> Coloring:
    """First-fit coloring of G[mask] along ascending ids, listing the colors
    of the masked vertices in that order."""
    colors = dict(_color_sort(rows, mask))
    return Coloring(tuple(colors[v] - 1 for v in bits(mask)))


def _parts(g: Graph, full: int) -> list[int]:
    """The parts a solve of G[full] runs on: its co-components when at least
    two of them have an edge, else [full].  A join whose other parts are
    edgeless (mostly universal vertices) costs more to split than to search
    whole."""
    parts = co_components(g, full)
    edged = sum(1 for p in parts if any(g.rows[v] & p for v in bits(p)))
    return parts if edged >= 2 else [full]


def _max_clique_search(
    rows: Sequence[int],
    full: int,
    ticker: _Ticker,
    best: list[int] | None = None,
    g: Graph | None = None,
) -> tuple[list[int], bool, int]:
    """Branch-and-bound maximum clique of G[full], starting from the maximal
    clique best (greedy by default); returns the best clique, whether the
    search completed, and a proven upper bound on the clique number (the
    root's greedy class count when the search did not complete).  When the
    root's class count is no more than len(best), the search returns best
    after the root tick, with no split and no branch: one node, as a search
    of the root would take.

    Only a search given its graph g may split, and only when its root bound
    does not close it.  A split search returns the union of the parts'
    maximum cliques, which is a maximum clique of the join but can differ
    from the clique the whole search would have found.  The parts are
    co-connected, so their own searches are given no graph."""
    if best is None:
        best = _greedy_maximal_clique(rows, full)
    cur: list[int] = []

    def expand(p_mask: int, order: list[tuple[int, int]]):
        # The branches run on a list, not the call stack, so a deep clique
        # needs no deep recursion.  One frame per open branch: [candidates
        # left, their color order, how many of its entries are untried];
        # cur holds the vertex each frame after the first branched on.
        nonlocal best
        frames = [[p_mask, order, len(order)]]
        while frames:
            frame = frames[-1]
            p_mask, order, i = frame
            if not i or len(cur) + order[i - 1][1] <= len(best):
                frames.pop()
                if frames:
                    cur.pop()
                continue
            v = order[i - 1][0]
            frame[0] = p_mask & ~(1 << v)
            frame[2] = i - 1
            cur.append(v)
            rest = p_mask & rows[v]
            if rest:
                ticker.tick()
                order = _color_sort(rows, rest)
                frames.append([rest, order, len(order)])
                continue
            if len(cur) > len(best):
                best = sorted(cur)
            cur.pop()

    order = _color_sort(rows, full)
    try:
        if full:
            ticker.tick()
            if order[-1][1] <= len(best):
                return best, True, len(best)
            if g is not None:
                parts = _parts(g, full)
                if len(parts) > 1:
                    return _clique_over_parts(rows, parts, ticker, best)
            expand(full, order)
    except _OutOfBudget:
        # Each greedy class holds one clique vertex at most.
        return best, False, order[-1][1]
    return best, True, len(best)


def _clique_over_parts(
    rows: Sequence[int], parts: list[int], ticker: _Ticker, start: list[int]
) -> tuple[list[int], bool, int]:
    """Maximum clique of a join as the union of its parts' maximum cliques.
    The maximal clique start meets each part in a maximal clique of that
    part, and each part's search starts from it.  Once the ticker has run
    out, the remaining parts keep it and take their greedy class count as
    the bound without ticking again."""
    clique: list[int] = []
    complete = True
    upper = 0
    for part in parts:
        best = [v for v in start if part >> v & 1]
        if complete:
            best, complete, cap = _max_clique_search(rows, part, ticker, best)
        else:
            cap = _color_sort(rows, part)[-1][1]
        clique += best
        upper += cap
    return sorted(clique), complete, upper


def clique_number(
    g: Graph, budget: SolveBudget | None = None, *, within: int | None = None
) -> CliqueResult:
    """Exact clique number with greedy-coloring upper bounds on exhaustion
    (on a join that is split, the sums of the parts' bounds).

    With a vertex mask ``within`` this is the clique number of G[within];
    the clique's vertices are ids of g.
    """
    ticker = _Ticker(budget or SolveBudget())
    best, complete, upper = _max_clique_search(g.rows, vertex_mask(g, within), ticker, g=g)
    return CliqueResult(tuple(best), len(best), upper, complete, ticker.nodes)


def _k_color_search(
    rows: Sequence[int], full: int, k: int, ticker: _Ticker, clique: list[int]
) -> Coloring | None:
    """k-coloring search on G[full], with the clique precolored 0, 1, ...;
    needs k >= len(clique).  A found coloring lists the vertices of full in
    ascending id order; None proves that no k-coloring exists.  Raises
    _OutOfBudget when the ticker runs out.

    Each node colors the uncolored vertex with the most neighbor colors,
    then the highest degree, then the lowest id (DSATUR, Brelaz 1979).
    Saturation lives in masks, as in San Segundo's PASS (2012): unc holds
    the uncolored vertices, near[c] (exact on unc) those with a neighbor
    colored c, and level[s] the uncolored vertices with exactly s neighbor
    colors, s = 0..k.  Coloring v with c reaches rows[v] & ~near[c] & unc
    and moves those vertices up one level; the forward check fails when one
    would reach level k.  Undo restores the levels from the snapshot taken
    when v was picked and takes v's reach back out of near[c]."""
    colors = [-1] * len(rows)
    near = [0] * k
    for i, v in enumerate(clique):
        colors[v] = i
        near[i] = rows[v]
    held = mask_of(clique)
    level = [0] * (k + 1)
    by_degree: dict[int, int] = {}
    for v in bits(full):
        if colors[v] < 0:
            d = (rows[v] & full).bit_count()
            by_degree[d] = by_degree.get(d, 0) | 1 << v
            level[(rows[v] & held).bit_count()] |= 1 << v
    degree_classes = [by_degree[d] for d in sorted(by_degree, reverse=True)]
    unc = sum(level)

    # near[c] is exact on unc alone: a vertex colored when v takes c misses
    # v's reach, but undo is last in, first out, so it is colored until v
    # is uncolored again, and only uncolored vertices read near.
    # One frame per vertex colored so far: (vertex, colors left to try,
    # neighbors its color reached, its color, colors in use before it, the
    # levels when it was picked).
    stack: list[tuple] = []
    used = len(clique)
    while True:
        ticker.tick()
        if not unc:
            for v, _, _, c, _, _ in stack:
                colors[v] = c
            return Coloring(tuple(colors[v] for v in bits(full)))
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
        unc ^= bit
        saved = level.copy()
        # New color indices are tried only in ascending order: allowing one
        # fresh color per step breaks the color-permutation symmetry.
        avail = 0
        for c in range(min(k, used + 1)):
            if not near[c] & bit:
                avail |= 1 << c
        # Give v its next color that passes the forward check; when it has
        # none left, put it back and move to the vertex colored before it.
        while True:
            while avail:
                c = (avail & -avail).bit_length() - 1
                avail &= avail - 1
                reached = rows[v] & ~near[c] & unc
                if not reached & level[k - 1]:  # none would reach level k
                    break
            else:
                if not stack:
                    return None
                unc |= bit
                v, avail, reached, c, used, saved = stack.pop()
                bit = 1 << v
                near[c] ^= reached
                level[:] = saved
                continue
            near[c] |= reached
            # Lift each reached vertex one level, lowest level first, and
            # stop once every one of them has moved.
            t = carry = 0
            rest = reached
            while rest:
                here = level[t] & rest
                level[t] ^= here ^ carry
                carry = here
                rest ^= here
                t += 1
            level[t] |= carry
            stack.append((v, avail, reached, c, used, saved))
            if c == used:
                used += 1
            break


def chromatic_number(
    g: Graph, budget: SolveBudget | None = None, *, within: int | None = None,
    clique: Sequence[int] | None = None,
) -> ChromaticResult:
    """Exact chromatic number by ascending k, under one shared budget.

    When the budget runs out the result carries the proven bounds: lower is
    the largest k shown uncolorable plus one (at least the best clique found)
    and upper comes from the best coloring seen.  On a join that is split,
    both are the sums of the parts' bounds.

    With a vertex mask ``within`` this solves G[within]; the coloring then
    lists the colors of the masked vertices in ascending id order, as a
    coloring of the induced copy renumbered by ascending id would.

    ``clique``, vertex ids of a clique of G[within] (else ValueError),
    replaces the clique search: the k search starts at its size.  Any clique
    gives a correct answer, and the one ``clique_number`` returns on the
    same mask gives the plain solve's result.  Budget rule: the budget then
    bounds the k search alone, so nodes_used drops the clique search's.
    """
    return _solve(g, budget, within, clique, lambda w: w + 1)


def require_coloring(
    g: Graph, cap: Callable[[int], int], budget: SolveBudget | None = None, *,
    within: int | None = None, clique: Sequence[int] | None = None,
) -> ChromaticResult:
    """A coloring of G[within] that stops once it is within cap, or
    BudgetExhausted.

    As ``chromatic_number`` (greedy shortcut, join split, ``clique`` and its
    budget rule), but each part, of clique number w, tries k = w, then
    k = cap(w), cap(w) + 1, ... below its greedy palette.  So a part's
    coloring is the exact solve's when chi = w or chi >= cap(w), and has at
    most cap(w) colors otherwise.  The bounds are what was proven, and
    ``complete`` (hence ``value``) is set only when they meet.
    """
    res = _solve(g, budget, within, clique, cap)
    if not res.complete:
        raise BudgetExhausted(
            f"bounded coloring unresolved within budget: bounds [{res.lower}, {res.upper}]"
        )
    return replace(res, complete=res.lower == res.upper)


def _solve(
    g: Graph, budget: SolveBudget | None, within: int | None,
    clique: Sequence[int] | None, cap: Callable[[int], int],
) -> ChromaticResult:
    """Color G[within] one part at a time: the parts of a split join, or the
    whole graph as one part.  A part of clique size w and greedy palette top
    tries k = w, then k = cap(w), cap(w) + 1, ... below top, until one
    colors; each k refuted proves chi > k.  ``complete`` is False only when
    the budget ran out; with cap(w) = w + 1, every k from the clique size
    up, a finished solve has proven chi."""
    full = vertex_mask(g, within)
    rows = g.rows
    if clique is not None:
        given = mask_of(clique)
        if given & ~full or len(clique) != given.bit_count() or not is_clique(g, given):
            raise ValueError(f"not a clique of the solved graph: {list(clique)}")
    if not full:
        return ChromaticResult(0, 0, Coloring(()), True, 0)
    ticker = _Ticker(budget or SolveBudget())
    if clique is None:
        clique, complete_omega, _ = _max_clique_search(rows, full, ticker, g=g)
    else:
        clique, complete_omega = sorted(clique), True
    greedy = _greedy(rows, full)
    lower = len(clique)
    upper = greedy.palette
    if lower == upper or not complete_omega:
        return ChromaticResult(lower, upper, greedy, lower == upper, ticker.nodes)
    parts = _parts(g, full)
    # A maximum clique of a join meets each part in a maximum clique of that
    # part, so the parts need no clique search of their own.  Each part's
    # colors are shifted past the palettes of the parts before it; the
    # witness is the part's greedy coloring until a k search colors it.
    colors = [0] * len(rows)
    lower = upper = 0
    finished = True
    for part in parts:
        part_clique = [v for v in clique if part >> v & 1]
        witness = _greedy(rows, part)
        lo, hi = len(part_clique), witness.palette
        if finished and lo < hi:
            for k in [lo, *range(max(cap(lo), lo + 1), hi)]:
                try:
                    found = _k_color_search(rows, part, k, ticker, part_clique)
                except _OutOfBudget:
                    finished = False
                    break
                if found is not None:
                    witness = found.compacted()
                    hi = witness.palette
                    break
                lo = k + 1
        for v, c in zip(bits(part), witness.colors):
            colors[v] = upper + c
        lower += lo
        upper += hi
    witness = Coloring(tuple(colors[v] for v in bits(full))).compacted()
    return ChromaticResult(lower, upper, witness, finished, ticker.nodes)


def k_colorable(g: Graph, k: int, budget: SolveBudget | None = None) -> bool:
    """Whether g has a proper k-coloring: False when a maximum clique search
    finds more than k vertices, else the verdict of one k search with that
    clique precolored.  Both share one budget; raises BudgetExhausted when
    it runs out before the answer is proven."""
    ticker = _Ticker(budget or SolveBudget())
    try:
        clique, complete, _ = _max_clique_search(g.rows, g.full_mask, ticker)
        if len(clique) > k:
            return False
        if not complete:
            raise _OutOfBudget
        found = _k_color_search(g.rows, g.full_mask, k, ticker, clique)
    except _OutOfBudget:
        raise BudgetExhausted(f"{k}-colorability unresolved within budget") from None
    return found is not None


def require_chromatic(
    g: Graph, budget: SolveBudget | None = None, *, within: int | None = None,
    clique: Sequence[int] | None = None,
) -> tuple[int, Coloring]:
    """Chromatic number or BudgetExhausted; for callers needing certainty.
    ``clique`` is as in ``chromatic_number``, budget rule included."""
    res = chromatic_number(g, budget, within=within, clique=clique)
    if not res.complete:
        raise BudgetExhausted(
            f"chromatic number unresolved within budget: bounds [{res.lower}, {res.upper}]"
        )
    assert res.coloring is not None
    return res.upper, res.coloring


def require_clique_number(
    g: Graph, budget: SolveBudget | None = None, *, within: int | None = None
) -> CliqueResult:
    """Clique number, proven when the bounds meet, or BudgetExhausted."""
    res = clique_number(g, budget, within=within)
    if res.value is None:
        raise BudgetExhausted(
            f"clique number unresolved within budget: bounds [{res.lower}, {res.upper}]"
        )
    return res
