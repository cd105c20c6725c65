"""Property-suite runner: sample, color, audit, exact-check, report.

Each record is one sampled instance run through its class colorer and the
exact solvers.  Reports are line-oriented key=value text so golden files
diff cleanly; the ms field is wall-clock and is the one field excluded from
determinism guarantees.

A record's chi is settled with no search when the verified palette equals
the trace's proven omega (omega <= chi <= palette), else solved given the
trace's clique.  Budget rule: a settled chi ticks no nodes; a solve's budget
counts only its k-search nodes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .catalog import named_graph
from .colorers import COLORERS, ClassMembershipError, _bound_at
from .exact import BudgetExhausted, SolveBudget, require_chromatic, verify_coloring
from .generators import SampleConfig, SampleExhausted, SplitMix64, mutate_within_class, sample_class
from .graphs import Graph, complete
# perfbench's tracer wraps the is_member this module binds, so it stays bound.
from .patterns import class_by_name, is_member
from .trace import AuditViolation, ProofTrace

_PROFILE_DENSE = ((6, 0.5), (9, 0.75), (12, 0.9))
_PROFILES: dict[str, tuple[tuple[int, float], ...]] = {
    "K4Free": ((6, 0.4), (8, 0.3), (12, 0.2), (14, 0.1), (20, 0.05)),
}
_REJECTION_TRIES = 300


def _profile_p(class_name: str, order: int) -> float:
    profile = _PROFILES.get(class_name, _PROFILE_DENSE)
    for cap, p in profile:
        if order <= cap:
            return p
    return profile[-1][1]


def _fallback_witness(class_name: str, order: int, rng: SplitMix64) -> Graph | None:
    """In-class seed graph for orders where rejection sampling is hopeless:
    a random induced subgraph of a known member (hereditary, so still a
    member), diversified by membership-preserving toggles."""
    if class_name == "K4Free" and order > 3:
        host = named_graph("schlafli_complement")
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


def _fmt(x) -> str:
    return "-" if x is None else str(x)


@dataclass(frozen=True)
class SuiteRecord:
    index: int
    n: int
    m: int
    omega: int | None = None
    chi: int | None = None
    palette: int | None = None
    bound: int | None = None
    verdict: str = "pass"
    holds: int = 0
    soft: int = 0
    violated: int = 0
    ms: float = 0.0
    note: str = ""

    def line(self) -> str:
        parts = [
            f"i={self.index}",
            f"n={self.n}",
            f"m={self.m}",
            f"omega={_fmt(self.omega)}",
            f"chi={_fmt(self.chi)}",
            f"palette={_fmt(self.palette)}",
            f"bound={_fmt(self.bound)}",
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
        rows = [
            f"{r.index:>4} {r.n:>3} {r.m:>4} {_fmt(r.omega):>5} "
            f"{_fmt(r.chi):>4} {_fmt(r.palette):>7} {_fmt(r.bound):>5} "
            f"{r.verdict:>11}"
            for r in self.records
        ]
        return [head, *rows, self.footer()]


def _run_instance(
    index: int, class_name: str, g: Graph, budget: SolveBudget | None
) -> SuiteRecord:
    start = time.perf_counter()
    palette = chi = omega = bound = clique = None
    holds = soft = violated = 0
    verdict, note = "pass", ""
    try:
        coloring, trace = COLORERS[class_name](g, budget)
        palette = coloring.palette
        holds, soft = trace.holds_count, trace.soft_gap_count
        if verify_coloring(g, coloring) is not None:
            verdict, note = "fail", "improper"
    except ClassMembershipError as exc:
        raise RuntimeError(f"internal: sampled a graph outside {class_name}") from exc
    except AuditViolation as exc:
        # A hard step that fails raises, so only this arm sees a violation.
        trace = exc.trace
        verdict, note, violated = "fail", f"audit:{exc.step.tag}", 1
    except BudgetExhausted:
        trace = ProofTrace(class_name, g, budget)
        verdict, note = "unknown", "colorer-budget"
    try:
        # A returned run hits the cache (_wrap read this clique for its
        # final audit); the others may run out, and omega stays None.
        clique = trace.clique(g.full_mask).vertices
        omega = len(clique)
        bound = _bound_at(class_name, omega)
    except BudgetExhausted:
        pass
    try:
        if verdict == "pass" and palette == omega:
            chi = palette  # omega <= chi <= palette, both proven
        else:
            chi, _ = require_chromatic(g, budget, clique=clique)
    except BudgetExhausted:
        if verdict == "pass":
            verdict, note = "unknown", "chi-budget"
    if verdict == "pass" and (palette > bound or chi > bound):
        verdict, note = "fail", "bound-exceeded"
    ms = (time.perf_counter() - start) * 1000.0
    return SuiteRecord(
        index, g.n, g.edge_count, omega=omega, chi=chi, palette=palette, bound=bound,
        verdict=verdict, holds=holds, soft=soft, violated=violated, ms=ms, note=note,
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
        report.records.append(
            SuiteRecord(index, 0, 0, verdict="sample-fail", note="sampler-exhausted")
            if inst is None
            else _run_instance(index, spec.name, inst, budget)
        )
    return report
