"""Seeded random and extremal instance generation.

The random stream is a splitmix64 generator written out in full so corpora
are reproducible bit-for-bit across platforms and languages.  Samplers
reject until a draw passes class membership; the hunt hill-climbs over
membership-preserving edge toggles looking for high-chromatic members.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .catalog import named_graph
from .exact import (
    BudgetExhausted,
    SolveBudget,
    greedy_coloring,
    require_chromatic,
    require_clique_number,
)
from .graphs import Graph, join
from .patterns import ClassSpec, class_by_name, in_class, is_member

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """splitmix64: state += 0x9E3779B97F4A7C15; z = state; z = (z ^ z>>30) *
    0xBF58476D1CE4E5B9; z = (z ^ z>>27) * 0x94D049BB133111EB; return z ^ z>>31.
    All arithmetic modulo 2^64."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform draw in [0, n) by rejection, so streams stay portable."""
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        zone = _MASK64 + 1 - ((_MASK64 + 1) % n)
        while True:
            draw = self.next_u64()
            if draw < zone:
                return draw % n


def gnp(n: int, p: float, seed: int) -> Graph:
    """Seeded G(n, p): pairs (u, v) with u < v in lexicographic order each
    consume one draw; the edge exists when draw < floor(p * 2^64)."""
    if n < 0:
        raise ValueError("order must be nonnegative")
    if not 0.0 <= p <= 1.0:
        raise ValueError("edge probability must be within [0, 1]")
    threshold = int(p * (_MASK64 + 1))
    rng = SplitMix64(seed)
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.next_u64() < threshold
    ]
    return Graph(n, edges, name=f"gnp-{n}")


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
    """First G(n, p) draw that is a member of the class, by pure rejection.
    Only the verdict is asked for (``in_class``), not a witness."""
    spec = class_by_name(cfg.class_name)
    rng = SplitMix64(cfg.seed)
    for _ in range(cfg.max_tries):
        g = gnp(cfg.n, cfg.p, rng.next_u64())
        if in_class(g, spec):
            return g
    raise SampleExhausted(cfg)


def _unrank_pair(idx: int, n: int) -> tuple[int, int]:
    u = 0
    row = n - 1
    while idx >= row:
        idx -= row
        u += 1
        row -= 1
    return u, u + 1 + idx


def mutate_within_class(g: Graph, class_name: str, steps: int, seed: int) -> Graph:
    """Random single-edge toggles, each kept only when the result still
    passes membership; always returns an in-class graph.

    The start graph gets the full membership test.  Each toggle of the pair
    uv is then tested with ``is_member(..., through=(u, v))``: the graph it
    came from is a member, so only forbidden copies through u and v can
    appear."""
    spec = class_by_name(class_name)
    verdict = is_member(g, spec)
    if not verdict:
        assert verdict.witness is not None
        raise ValueError(
            f"graph is not in {spec.name}: induced {verdict.witness.pattern}"
        )
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    pairs = g.n * (g.n - 1) // 2
    if pairs == 0:
        return g
    rng = SplitMix64(seed)
    for _ in range(steps):
        u, v = _unrank_pair(rng.below(pairs), g.n)
        candidate = g.toggled(u, v)
        if is_member(candidate, spec, through=(u, v)):
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
    omega: int
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
    return triangle if is_member(triangle, spec) else Graph(n)


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
    The start and the result get the full membership test; the current
    graph is always a member, so a toggle of uv is tested only for forbidden
    copies through u and v (``is_member(..., through=(u, v))``).  A
    move is accepted when its exact chromatic number beats the current one,
    or ties it with fewer edges.  The exact solver only runs when the greedy
    upper bound leaves an acceptance possible, and a candidate whose solve
    exhausts the budget is skipped.  Never claims optimality.
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
    verdict = is_member(start, spec)
    if not verdict:
        assert verdict.witness is not None
        raise ValueError(
            f"start graph is not in {spec.name}: induced "
            f"{verdict.witness.pattern} on {sorted(verdict.witness.vertices)}"
        )
    cur = start
    cur_chi, _ = require_chromatic(cur, budget)
    evaluations = 1
    pairs = n * (n - 1) // 2
    for _ in range(steps if pairs else 0):
        u, v = _unrank_pair(rng.below(pairs), n)
        cand = cur.toggled(u, v)
        if not is_member(cand, spec, through=(u, v)):
            continue
        upper = greedy_coloring(cand).palette
        tie_possible = cand.edge_count < cur.edge_count and upper >= cur_chi
        if upper <= cur_chi and not tie_possible:
            continue
        try:
            cand_chi, _ = require_chromatic(cand, budget)
        except BudgetExhausted:
            continue
        evaluations += 1
        if cand_chi > cur_chi or (
            cand_chi == cur_chi and cand.edge_count < cur.edge_count
        ):
            cur, cur_chi = cand, cand_chi
    omega = require_clique_number(cur, budget).lower
    final = is_member(cur, spec)
    if not final:
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
