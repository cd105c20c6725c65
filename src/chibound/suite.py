"""Property-suite runner: sample, color, audit, exact-check, report.

Each record is one sampled instance run through its class colorer and the
exact solvers.  Reports are line-oriented key=value text so golden files
diff cleanly; the ms field is wall-clock and is the one field excluded from
determinism guarantees.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .catalog import named_graph
from .colorers import COLORERS, BINDINGS
from .exact import BudgetExhausted, SolveBudget, require_chromatic, require_clique_number, verify_coloring
from .generators import SampleConfig, SampleExhausted, SplitMix64, mutate_within_class, sample_class
from .graphs import Graph, complete
# perfbench's tracer wraps the is_member this module binds, so it stays bound.
from .patterns import class_by_name, in_class, is_member
from .trace import AuditViolation

_PROFILE_DENSE = ((6, 0.5), (9, 0.75), (12, 0.9))
_PROFILES: dict[str, tuple[tuple[int, float], ...]] = {
    "KiteFree": _PROFILE_DENSE,
    "HammerFree": _PROFILE_DENSE,
    "C5Free": _PROFILE_DENSE,
    "P2K3Free": _PROFILE_DENSE,
    "K4Free": ((6, 0.4), (8, 0.3), (12, 0.2)),
}
_REJECTION_TRIES = 300


def _profile_p(class_name: str, order: int) -> float:
    for cap, p in _PROFILES.get(class_name, _PROFILE_DENSE):
        if order <= cap:
            return p
    return _PROFILE_DENSE[-1][1]


def _fallback_witness(class_name: str, order: int, rng: SplitMix64) -> Graph | None:
    """In-class seed graph for orders where rejection sampling is hopeless:
    a random induced subgraph of a known member (hereditary, so still a
    member), diversified by membership-preserving toggles."""
    if class_name == "K4Free" and order > 3:
        host = named_graph("schlafli_complement")
    elif class_name != "C5Free" and order <= 11 and rng.below(2) == 0:
        host = named_graph("grotzsch")
    else:
        host = complete(order)
    if host.n < order:
        return None
    picked: list[int] = []
    seen = 0
    for v in range(host.n):
        remaining = host.n - v
        if rng.below(remaining) < order - seen:
            picked.append(v)
            seen += 1
            if seen == order:
                break
    sub = host.induced(picked)
    return mutate_within_class(sub, class_name, steps=2 * order, seed=rng.next_u64())


def _sample_instance(class_name: str, n_max: int, rng: SplitMix64) -> Graph | None:
    order = 1 + rng.below(n_max)
    p = _profile_p(class_name, order)
    cfg = SampleConfig(
        n=order,
        p=p,
        seed=rng.next_u64(),
        class_name=class_name,
        max_tries=_REJECTION_TRIES,
    )
    try:
        return sample_class(cfg)
    except SampleExhausted:
        return _fallback_witness(class_name, order, rng)


@dataclass(frozen=True)
class SuiteRecord:
    index: int
    n: int
    m: int
    omega: int | None
    chi: int | None
    palette: int | None
    bound: int | None
    verdict: str
    holds: int
    soft: int
    violated: int
    ms: float
    note: str = ""

    def line(self) -> str:
        def fmt(x) -> str:
            return "-" if x is None else str(x)

        parts = [
            f"i={self.index}",
            f"n={self.n}",
            f"m={self.m}",
            f"omega={fmt(self.omega)}",
            f"chi={fmt(self.chi)}",
            f"palette={fmt(self.palette)}",
            f"bound={fmt(self.bound)}",
            f"verdict={self.verdict}",
            f"holds={self.holds}",
            f"soft={self.soft}",
            f"violated={self.violated}",
            f"ms={self.ms:.1f}",
        ]
        if self.note:
            parts.append(f"note={self.note}")
        return " ".join(parts)


@dataclass
class SuiteReport:
    class_name: str
    n: int
    count: int
    seed: int
    records: list[SuiteRecord] = field(default_factory=list)

    def tally(self, verdict: str) -> int:
        return sum(1 for r in self.records if r.verdict == verdict)

    @property
    def soft_gap_records(self) -> int:
        return sum(1 for r in self.records if r.soft > 0)

    def header(self) -> str:
        return (
            f"suite class={self.class_name} n={self.n} count={self.count} "
            f"seed={self.seed}"
        )

    def footer(self) -> str:
        return (
            f"total={len(self.records)} pass={self.tally('pass')} "
            f"fail={self.tally('fail')} unknown={self.tally('unknown')} "
            f"sample-fail={self.tally('sample-fail')} "
            f"soft-gap={self.soft_gap_records}"
        )

    def lines(self) -> list[str]:
        return [self.header(), *(r.line() for r in self.records), self.footer()]

    def table(self) -> list[str]:
        head = (
            f"{'i':>4} {'n':>3} {'m':>4} {'omega':>5} {'chi':>4} "
            f"{'palette':>7} {'bound':>5} {'verdict':>11}"
        )
        rows = [head]
        for r in self.records:
            def fmt(x) -> str:
                return "-" if x is None else str(x)

            rows.append(
                f"{r.index:>4} {r.n:>3} {r.m:>4} {fmt(r.omega):>5} "
                f"{fmt(r.chi):>4} {fmt(r.palette):>7} {fmt(r.bound):>5} "
                f"{r.verdict:>11}"
            )
        rows.append(self.footer())
        return rows


def _run_instance(
    index: int, class_name: str, g: Graph, budget: SolveBudget | None
) -> SuiteRecord:
    start = time.perf_counter()
    colorer = COLORERS[class_name]
    palette = None
    holds = soft = violated = 0
    note = ""
    verdict = "pass"
    chi: int | None = None
    omega: int | None = None
    bound: int | None = None
    try:
        coloring, trace = colorer(g, budget)
        palette = coloring.palette
        holds, soft = trace.holds_count, trace.soft_gap_count
        violated = trace.violated_count
        if verify_coloring(g, coloring) is not None:
            verdict = "fail"
            note = "improper"
    except AuditViolation as exc:
        verdict = "fail"
        note = f"audit:{exc.step.tag}"
        violated = 1
    except BudgetExhausted:
        verdict = "unknown"
        note = "colorer-budget"
    try:
        omega = require_clique_number(g, budget).lower
        bound = BINDINGS[class_name](omega) if omega >= 1 else 0
    except BudgetExhausted:
        if verdict == "pass":
            verdict = "unknown"
            note = "omega-budget"
    try:
        chi, _ = require_chromatic(g, budget)
    except BudgetExhausted:
        if verdict == "pass":
            verdict = "unknown"
            note = "chi-budget"
    if verdict == "pass":
        if bound is None or palette is None:
            verdict = "unknown"
        elif palette > bound or (chi is not None and chi > bound):
            verdict = "fail"
            note = "bound-exceeded"
    ms = (time.perf_counter() - start) * 1000.0
    return SuiteRecord(
        index=index,
        n=g.n,
        m=g.edge_count,
        omega=omega,
        chi=chi,
        palette=palette,
        bound=bound,
        verdict=verdict,
        holds=holds,
        soft=soft,
        violated=violated,
        ms=ms,
        note=note,
    )


def run_suite(
    class_name: str,
    n: int,
    count: int,
    seed: int,
    budget: SolveBudget | None = None,
) -> SuiteReport:
    """Sample count members of the class with orders in 1..n, run the class
    colorer and the exact solvers on each, and tabulate verdicts."""
    spec = class_by_name(class_name)
    if spec.name not in COLORERS:
        raise ValueError(f"no colorer for class {spec.name}")
    if count < 1:
        raise ValueError("count must be at least 1")
    if n < 1:
        raise ValueError("n must be at least 1")
    report = SuiteReport(class_name=spec.name, n=n, count=count, seed=seed)
    rng = SplitMix64(seed)
    for index in range(count):
        inst = _sample_instance(spec.name, n, rng)
        if inst is None:
            report.records.append(
                SuiteRecord(
                    index=index,
                    n=0,
                    m=0,
                    omega=None,
                    chi=None,
                    palette=None,
                    bound=None,
                    verdict="sample-fail",
                    holds=0,
                    soft=0,
                    violated=0,
                    ms=0.0,
                    note="sampler-exhausted",
                )
            )
            continue
        if not in_class(inst, spec):
            raise RuntimeError(f"internal: sampled a graph outside {spec.name}")
        report.records.append(_run_instance(index, spec.name, inst, budget))
    return report
