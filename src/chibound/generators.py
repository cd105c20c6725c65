"""Seeded random and extremal instance generation.

The random stream is a splitmix64 generator written out in full so corpora
are reproducible bit-for-bit across platforms and languages; ``gnp`` takes
each vertex pair's draw by its index, and draws the pairs of a column as one
mix over 128-bit lanes of one int.  Samplers reject until a draw passes
class membership, stopping a draw at the first vertex that closes a
forbidden copy; the hunt hill-climbs over membership-preserving edge toggles
looking for high-chromatic members.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce

from .catalog import named_graph
# perfbench's tracer rebinds greedy_coloring here, so it stays bound.
from .exact import (
    BudgetExhausted,
    SolveBudget,
    _color_sort,
    greedy_coloring,
    k_colorable,
    require_chromatic,
    require_clique_number,
)
from .graphs import Graph, _from_rows, join
from .patterns import _ANCHORED, ClassSpec, class_by_name, in_class, is_member

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix(z: int, mask: int = _MASK64) -> int:
    """splitmix64's output mix of z, or of every 64-bit value of z packed in
    128-bit lanes when mask is the lanes' 64-bit mask: masking after each
    xor-shift and each product keeps every lane inside its own 128 bits."""
    z = (z ^ z >> 30 & mask) * 0xBF58476D1CE4E5B9 & mask
    z = (z ^ z >> 27 & mask) * 0x94D049BB133111EB & mask
    return z ^ z >> 31 & mask


class SplitMix64:
    """splitmix64: state += _GAMMA; return _mix(state), modulo 2^64."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        return _mix(self.state)

    def below(self, n: int) -> int:
        """Uniform draw in [0, n) by rejection, so streams stay portable."""
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        zone = _MASK64 + 1 - ((_MASK64 + 1) % n)
        while True:
            draw = self.next_u64()
            if draw < zone:
                return draw % n


# Each byte 0 or 1 as the digit that int(..., 2) reads.
_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _lanes(values) -> int:
    """Values below 2^64 packed into one int of 128-bit lanes, value i in
    lane i."""
    return sum(v << 128 * i for i, v in enumerate(values))


@lru_cache(maxsize=32)
def _order(n: int) -> tuple[int, int, int, int]:
    """The lanes 0..n-1 of drawing G(n, p) a column at a time: 1, gamma and
    the 64-bit mask in every lane, and lane u's offset
    (idx(u, w) + 1 - w) * gamma mod 2^64, the same in every column w.  Each
    is one int of 128n bits."""
    ones = _lanes([1] * n)
    offsets = _lanes([(u * n - u * (u + 3) // 2) * _GAMMA & _MASK64 for u in range(n)])
    return ones, _GAMMA * ones, _MASK64 * ones, offsets


def _grow(rows: list[int], p: float, seed: int):
    """Draw G(n, p) into rows, n = len(rows), one vertex at a time, yielding
    w once they hold G[0..w].

    Draw i of the stream is _mix(seed + i * gamma), so the pair (u, w),
    u < w, takes draw idx(u, w) + 1 = w + u*n - u*(u+3)/2 directly.  Column
    w draws all its pairs as one _mix over lanes 0..w-1, lane u holding the
    state of the pair (u, w); every lane's state advances by gamma per
    column.  Bit 64 of (2^64 - 1 + threshold) - draw, set exactly when
    draw < threshold (p = 0 and p = 1 included), is its lane's edge bit; the
    bits above it are 0, so the byte that holds it is 0 or 1, and those
    bytes, read from every lane at once as binary digits, give row w."""
    n = len(rows)
    if n:
        yield 0
    ones, gamma, mask, offsets = _order(n)
    top = (_MASK64 + int(p * (_MASK64 + 1))) * ones
    state = offsets + ((seed + _GAMMA) & _MASK64) * ones
    for w in range(1, n):
        cut = 128 * (n - w)
        z = (top >> cut) - _mix(state & (mask >> cut), mask)
        row = rows[w] = int(z.to_bytes(16 * w - 7, "big")[::16].translate(_DIGITS), 2)
        bit = 1 << w
        while row:
            low = row & -row
            rows[low.bit_length() - 1] |= bit
            row ^= low
        state += gamma
        yield w


def gnp(n: int, p: float, seed: int) -> Graph:
    """Seeded G(n, p): pairs (u, v) with u < v in lexicographic order each
    consume one draw; the edge exists when draw < floor(p * 2^64)."""
    if n < 0:
        raise ValueError("order must be nonnegative")
    if not 0.0 <= p <= 1.0:
        raise ValueError("edge probability must be within [0, 1]")
    rows = [0] * n
    for _ in _grow(rows, p, seed):
        pass
    return _from_rows(rows, name=f"gnp-{n}")


@dataclass(frozen=True)
class SampleConfig:
    n: int
    p: float
    seed: int
    class_name: str
    max_tries: int = 1000

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("order must be nonnegative")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("edge probability must be within [0, 1]")
        if self.max_tries < 1:
            raise ValueError("max_tries must be at least 1")
        class_by_name(self.class_name)


class SampleExhausted(RuntimeError):
    """Rejection sampling ran out of tries; carries the acceptance estimate."""

    def __init__(self, cfg: SampleConfig):
        super().__init__(
            f"no {cfg.class_name} member in {cfg.max_tries} draws of "
            f"G({cfg.n}, {cfg.p}); acceptance rate < 1/{cfg.max_tries}"
        )
        self.config = cfg
        self.tries = cfg.max_tries


def sample_class(cfg: SampleConfig) -> Graph:
    """First G(n, p) draw that is a member of the class, by rejection.

    A try draws ``gnp``'s graph one vertex at a time and stops as soon as an
    anchored kernel finds a forbidden copy through the last vertex w (once
    w + 1 reaches the pattern's order).  G[0..w] is induced in the whole
    draw, so the graph returned and the tries spent are those of drawing
    every graph whole.  Every copy lies in the prefix that ends at its last
    vertex, so a draw that completes is a member."""
    spec = class_by_name(cfg.class_name)
    kernels = [(p.graph.n - 1, _ANCHORED[p.graph]) for p in spec.forbidden]
    rng = SplitMix64(cfg.seed)
    for _ in range(cfg.max_tries):
        rows = [0] * cfg.n
        grown = _grow(rows, cfg.p, rng.next_u64())
        if all(k(rows, (2 << w) - 1, w) for w in grown for low, k in kernels if w >= low):
            return _from_rows(rows, name=f"gnp-{cfg.n}")
    raise SampleExhausted(cfg)


def _unrank_pair(idx: int, n: int) -> tuple[int, int]:
    u = 0
    row = n - 1
    while idx >= row:
        idx -= row
        u += 1
        row -= 1
    return u, u + 1 + idx


def _require_member(g: Graph, spec: ClassSpec, what: str) -> None:
    """Raise ValueError naming a forbidden copy when g is not in the class."""
    if not in_class(g, spec):
        witness = is_member(g, spec).witness
        assert witness is not None
        raise ValueError(
            f"{what} is not in {spec.name}: induced "
            f"{witness.pattern} on {sorted(witness.vertices)}"
        )


def mutate_within_class(g: Graph, class_name: str, steps: int, seed: int) -> Graph:
    """Random single-edge toggles, each kept only when the result still
    passes membership; always returns an in-class graph.

    The start graph gets the full membership verdict.  Each toggle of the
    pair uv is then tested with ``in_class(..., through=(u, v))``: the graph
    it came from is a member, so only forbidden copies through u and v can
    appear, and the kernels anchored at u decide."""
    spec = class_by_name(class_name)
    _require_member(g, spec, "graph")
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    pairs = g.n * (g.n - 1) // 2
    if pairs == 0:
        return g
    rng = SplitMix64(seed)
    for _ in range(steps):
        u, v = _unrank_pair(rng.below(pairs), g.n)
        candidate = g.toggled(u, v)
        if in_class(candidate, spec, through=(u, v)):
            g = candidate
    return g


_FAMILIES = ("kite-even", "kite-odd", "hammer", "k4")


def extremal_family(family: str, k: int = 1) -> Graph:
    """Tightness witnesses: kite-even k joins k Grotzsch copies (omega 2k,
    chromatic 4k); kite-odd k joins k-1 Grotzsch copies with the Schlafli
    complement (omega 2k+1, chromatic 4k+2); hammer is Grotzsch (omega 2,
    chromatic 4 = omega^2); k4 is the Schlafli complement (omega 3,
    chromatic 6)."""
    key = family.strip().lower().replace("_", "-").replace("kitefree", "kite")
    if key not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}; choose from {_FAMILIES}")
    if k < 1:
        raise ValueError("k must be at least 1")
    grotzsch = named_graph("grotzsch")
    if key == "kite-even":
        g = reduce(join, [grotzsch] * k)
        return g.with_name(f"kite-even-{k}")
    if key == "kite-odd":
        parts = [grotzsch] * (k - 1) + [named_graph("schlafli_complement")]
        return reduce(join, parts).with_name(f"kite-odd-{k}")
    if k != 1:
        raise ValueError(f"family {key!r} only supports k=1")
    if key == "hammer":
        return grotzsch.with_name("hammer-witness")
    return named_graph("schlafli_complement").with_name("k4-witness")


@dataclass(frozen=True)
class HuntResult:
    class_name: str
    graph: Graph
    chi: int
    omega: int | None
    evaluations: int
    steps: int
    seed: int

    @property
    def noteworthy(self) -> bool:
        """True when a K4-free member beats the best published construction
        (chromatic number 6 of the Schlafli complement)."""
        return self.class_name == "K4Free" and self.chi >= 7


def _hunt_start(spec: ClassSpec, n: int, rng: SplitMix64) -> Graph:
    """In-class start graph of the requested order.

    Rejection-sample across a ladder of densities; when every density is
    hopeless, fall back to a triangle plus isolated vertices if that is a
    member, and otherwise to the edgeless graph, which sits in every class
    this module handles because each forbidden pattern has an edge.
    """
    for p in (0.5, 0.3, 0.7, 0.2, 0.9):
        cfg = SampleConfig(
            n=n, p=p, seed=rng.next_u64(), class_name=spec.name, max_tries=200
        )
        try:
            return sample_class(cfg)
        except SampleExhausted:
            continue
    k = min(n, 3)
    triangle = Graph(n, [(u, v) for u in range(k) for v in range(u + 1, k)])
    return triangle if in_class(triangle, spec) else Graph(n)


def hunt(
    class_name: str,
    n: int,
    steps: int,
    seed: int,
    start: Graph | None = None,
    budget: SolveBudget | None = None,
) -> HuntResult:
    """Hill-climb over in-class graphs for high chromatic number.

    Starts from a sampled member of the class unless a start graph is given.
    Moves are single-edge toggles kept only when membership is preserved.
    The start and the result get the full membership verdict; the current
    graph is always a member, so a toggle of uv is tested only for forbidden
    copies through u and v (``in_class(..., through=(u, v))``).  A
    move is accepted when its exact chromatic number beats the current one,
    or ties it with fewer edges.

    Only the start's chromatic number c is solved in full: a toggle moves it
    by at most one, so a candidate needs one ``k_colorable`` decision.  An
    added edge is kept when the candidate is not c-colorable (chi c + 1), a
    removed one (a tie with fewer edges) when it is not (c - 1)-colorable.
    A decision runs only when the greedy coloring uses more than k colors
    and the candidate is a member; the greedy bound, the cheaper test, runs
    first, on the toggled rows, and only a candidate that passes it is built
    as a graph.  ``evaluations`` counts the start solve and each completed
    decision.

    Budget rule: the budget bounds the start solve and each decision on its
    own.  A start solve that runs out raises BudgetExhausted, a decision
    that runs out skips its candidate.  Where nothing runs out, the walk is
    the one a full solve of each candidate's chi would take; under a tight
    budget a decision can finish where a full solve would not, so more
    candidates complete.  The final clique number counts as proven when its
    bounds meet; a final clique solve that still runs out leaves omega None.
    Never claims optimality.
    """
    spec = class_by_name(class_name)
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    rng = SplitMix64(seed)
    if start is None:
        if n < 1:
            raise ValueError("n must be at least 1")
        start = _hunt_start(spec, n, rng)
    else:
        n = start.n
    _require_member(start, spec, "start graph")
    cur = start
    cur_chi, _ = require_chromatic(cur, budget)
    evaluations = 1
    pairs = n * (n - 1) // 2
    for _ in range(steps if pairs else 0):
        u, v = _unrank_pair(rng.below(pairs), n)
        rows = list(cur.rows)
        rows[u] ^= 1 << v
        rows[v] ^= 1 << u
        added = rows[u] >> v & 1
        k = cur_chi if added else cur_chi - 1
        if _color_sort(rows, cur.full_mask)[-1][1] <= k:
            continue
        cand = _from_rows(rows, cur.name)
        if not in_class(cand, spec, through=(u, v)):
            continue
        try:
            keep = not k_colorable(cand, k, budget)
        except BudgetExhausted:
            continue
        evaluations += 1
        if keep:
            cur, cur_chi = cand, cur_chi + added
    try:
        omega: int | None = require_clique_number(cur, budget).lower
    except BudgetExhausted:
        omega = None
    if not in_class(cur, spec):
        raise RuntimeError("internal: hunt left the class")
    return HuntResult(
        class_name=spec.name,
        graph=cur,
        chi=cur_chi,
        omega=omega,
        evaluations=evaluations,
        steps=steps,
        seed=seed,
    )
