"""Exact solvers for clique number and chromatic number.

All solvers run under a budget of search nodes and wall time.  Exhausting the
budget is not an error: results carry proven bounds and a completeness flag,
so "unknown" stays distinct from any definite answer.  Tie-breaking is always
toward the lowest vertex id, which makes every witness deterministic.

The clique and chromatic solvers take an optional vertex mask ``within`` and
then solve G[within] in place: the adjacency rows are restricted to the mask
once, results keep the graph's own vertex ids, and the search runs exactly as
it would on the induced copy renumbered by ascending id.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Sequence

from .graphs import Coloring, Graph, bits, restrict

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
        return self.lower if self.complete else None


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


def greedy_coloring(g: Graph, order: list[int] | None = None) -> Coloring:
    """First-fit coloring along the given vertex order (default 0..n-1)."""
    if order is None:
        order = g.vertices()
    elif sorted(order) != list(g.vertices()):
        raise ValueError("order must be a permutation of the vertices")
    return Coloring(tuple(_first_fit(g.rows, order)))


def _first_fit(rows: Sequence[int], order: Iterable[int]) -> list[int]:
    """First-fit colors by vertex id along the order; -1 off the order."""
    colors = [-1] * len(rows)
    for v in order:
        taken = 0
        for w in bits(rows[v]):
            if colors[w] >= 0:
                taken |= 1 << colors[w]
        c = 0
        while taken >> c & 1:
            c += 1
        colors[v] = c
    return colors


def verify_coloring(g: Graph, coloring: Coloring) -> tuple[int, int] | None:
    """Return None when proper, else the lexicographically first bad edge."""
    if coloring.n != g.n:
        raise ValueError(
            f"coloring covers {coloring.n} vertices, graph has {g.n}"
        )
    for u, v in g.edges():
        if coloring.colors[u] == coloring.colors[v]:
            return (u, v)
    return None


def _greedy_maximal_clique(rows: Sequence[int], full: int) -> list[int]:
    """Grow a maximal clique greedily: best seed degree, then lowest ids."""
    if not full:
        return []
    seed = max(bits(full), key=lambda v: (rows[v].bit_count(), -v))
    clique = [seed]
    cand = rows[seed]
    while cand:
        v = next(bits(cand))
        clique.append(v)
        cand &= rows[v]
    return sorted(clique)


def _color_sort(rows: Sequence[int], p_mask: int) -> list[tuple[int, int]]:
    """Greedy color classes over the candidate set; returns (vertex, bound)
    pairs in class order, bound being the class index + 1."""
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


def _max_clique_search(
    rows: Sequence[int], full: int, ticker: _Ticker
) -> tuple[list[int], bool]:
    """Branch-and-bound maximum clique; returns (best clique, completed)."""
    best: list[int] = _greedy_maximal_clique(rows, full)
    cur: list[int] = []

    def expand(p_mask: int):
        nonlocal best
        ticker.tick()
        for v, bound in reversed(_color_sort(rows, p_mask)):
            if len(cur) + bound <= len(best):
                return
            cur.append(v)
            rest = p_mask & rows[v]
            if rest:
                expand(rest)
            elif len(cur) > len(best):
                best = sorted(cur)
            cur.pop()
            p_mask &= ~(1 << v)

    complete = True
    try:
        if full:
            expand(full)
    except _OutOfBudget:
        complete = False
    return best, complete


def clique_number(
    g: Graph, budget: SolveBudget | None = None, *, within: int | None = None
) -> CliqueResult:
    """Exact clique number with greedy-coloring upper bounds on exhaustion.

    With a vertex mask ``within`` this is the clique number of G[within];
    the clique's vertices are ids of g.
    """
    rows, full = restrict(g, within)
    ticker = _Ticker(budget or SolveBudget())
    best, complete = _max_clique_search(rows, full, ticker)
    lower = len(best)
    # A proper coloring bounds the clique number from above.
    upper = lower if complete else max(lower, max(_first_fit(rows, bits(full))) + 1)
    return CliqueResult(tuple(best), lower, upper, complete, ticker.nodes)


def _k_color_search(
    rows: Sequence[int], verts: list[int], k: int, ticker: _Ticker, clique: list[int]
) -> Coloring | None:
    """k-coloring search on the given vertices, with the clique precolored
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
    max_used = len(clique)
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

    def solve(remaining: int, max_used: int) -> bool:
        ticker.tick()
        if remaining == 0:
            return True
        v = pick()
        # New color indices are tried only in ascending order: allowing one
        # fresh color per step breaks the color-permutation symmetry.
        limit = min(k, max_used + 1)
        avail = ~adj_colors[v] & ((1 << limit) - 1)
        for c in bits(avail):
            colors[v] = c
            touched = []
            ok = True
            for w in bits(rows[v]):
                if not adj_colors[w] >> c & 1:
                    adj_colors[w] |= 1 << c
                    touched.append(w)
                    if colors[w] < 0 and adj_colors[w].bit_count() >= k:
                        ok = False
            if ok and solve(remaining - 1, max(max_used, c + 1)):
                return True
            for w in touched:
                adj_colors[w] &= ~(1 << c)
            colors[v] = -1
        return False

    if solve(len(uncolored), max_used):
        return Coloring(tuple(colors[v] for v in verts))
    return None


def chromatic_number(
    g: Graph, budget: SolveBudget | None = None, *, within: int | None = None
) -> ChromaticResult:
    """Exact chromatic number by ascending k, under one shared budget.

    When the budget runs out the result carries the proven bounds: lower is
    the largest k shown uncolorable plus one (at least the best clique found)
    and upper comes from the best coloring seen.

    With a vertex mask ``within`` this solves G[within]; the coloring then
    lists the colors of the masked vertices in ascending id order, as a
    coloring of the induced copy renumbered by ascending id would.
    """
    rows, full = restrict(g, within)
    if not full:
        return ChromaticResult(0, 0, Coloring(()), True, 0)
    verts = list(bits(full))
    ticker = _Ticker(budget or SolveBudget())
    clique, complete_omega = _max_clique_search(rows, full, ticker)
    first_fit = _first_fit(rows, verts)
    greedy = Coloring(tuple(first_fit[v] for v in verts)).compacted()
    lower = len(clique)
    upper = greedy.palette
    witness = greedy
    if lower == upper:
        return ChromaticResult(lower, upper, witness, True, ticker.nodes)
    if not complete_omega:
        return ChromaticResult(lower, upper, witness, False, ticker.nodes)
    for k in range(lower, upper):
        try:
            found = _k_color_search(rows, verts, k, ticker, clique)
        except _OutOfBudget:
            # Every k' < k was shown uncolorable, so k is a proven lower bound.
            return ChromaticResult(k, upper, witness, False, ticker.nodes)
        if found is not None:
            return ChromaticResult(k, k, found.compacted(), True, ticker.nodes)
    return ChromaticResult(upper, upper, witness, True, ticker.nodes)


def require_chromatic(
    g: Graph, budget: SolveBudget | None = None, *, within: int | None = None
) -> tuple[int, Coloring]:
    """Chromatic number or BudgetExhausted; for callers needing certainty."""
    res = chromatic_number(g, budget, within=within)
    if not res.complete:
        raise BudgetExhausted(
            f"chromatic number unresolved within budget: bounds [{res.lower}, {res.upper}]"
        )
    assert res.coloring is not None
    return res.upper, res.coloring


def require_clique_number(
    g: Graph, budget: SolveBudget | None = None, *, within: int | None = None
) -> CliqueResult:
    """Clique number or BudgetExhausted."""
    res = clique_number(g, budget, within=within)
    if not res.complete:
        raise BudgetExhausted(
            f"clique number unresolved within budget: bounds [{res.lower}, {res.upper}]"
        )
    return res
