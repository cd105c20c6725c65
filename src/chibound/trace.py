"""Runtime audit traces for the structural coloring procedures.

Every structural fact a colorer relies on is checked on the concrete vertex
sets and recorded as a step.  Steps carry enough data (a predicate kind, the
named sets, the named numbers) to re-evaluate them later against the graph,
which is what replay() does.  Every named set is a vertex mask: in the
audit call, in TraceStep.sets as (name, mask) pairs, and in evaluate_step; a
serialized step lists each set's vertex ids ascending.  A failed hard step
raises immediately; steps marked soft record a "soft-gap" verdict and
execution continues, since the surrounding procedure still guarantees the
final palette bound.

A trace belongs to one coloring run: it holds the run's input graph, which
every step is evaluated against, and the run's SolveBudget.  All vertex ids
in a trace refer to that graph, no matter how deep the recursion that
produced the step.  ProofTrace.clique solves the clique number of each vertex
set once per run under that budget; the colorers and a recorded omega-le step
read it.  evaluate_step takes the run, and replay() evaluates on a fresh run of
its own graph, so it solves every clique afresh under the default budget.  The
pattern-absence kinds (p3-free, k1k3-absent) are answered by the
induced-subgraph search of the patterns module.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import patterns
from .exact import CliqueResult, SolveBudget, require_clique_number
from .graphs import Graph, bits, components, is_clique, is_independent

HOLDS = "holds"
SOFT_GAP = "soft-gap"
VIOLATED = "violated"


@dataclass(frozen=True)
class TraceStep:
    tag: str
    kind: str
    assertion: str
    verdict: str
    sets: tuple[tuple[str, int], ...] = ()
    numbers: tuple[tuple[str, int], ...] = ()

    def line(self) -> str:
        sets = ";".join(f"{k}={','.join(map(str, bits(v)))}" for k, v in self.sets)
        nums = ";".join(f"{k}={v}" for k, v in self.numbers)
        return "|".join((self.tag, self.kind, self.verdict, self.assertion, sets, nums))


class AuditViolation(RuntimeError):
    """A hard structural assertion failed at runtime."""

    def __init__(self, step: TraceStep, trace: "ProofTrace"):
        super().__init__(f"audit violated at {step.tag}: {step.assertion}")
        self.step = step
        self.trace = trace


def evaluate_step(run: ProofTrace, kind: str, sets: dict[str, int],
                  numbers: dict[str, int]) -> bool:
    """Re-evaluate one audit predicate, its sets given as vertex masks,
    against the run's graph.  The omega-le kind reads run.clique, which
    raises BudgetExhausted when the run's budget runs out."""
    g = run.g
    if any(m >> g.n for m in sets.values()):
        raise ValueError("vertex id out of range in audit set")
    if kind == "value-le":
        return numbers["value"] <= numbers["bound"]
    x = sets.get("X", 0)
    if kind == "empty-set":
        return x == 0
    if kind == "independent":
        return is_independent(g, x)
    if kind == "clique":
        return is_clique(g, x)
    if kind == "p3-free":
        return patterns.find_induced(g, patterns.PATTERNS["p3"], within=x) is None
    if kind == "components-le-2":
        return all(c.bit_count() <= 2 for c in components(g, x))
    if kind == "k1k3-absent":
        return patterns.find_induced(g, patterns.PATTERNS["k1_union_k3"], within=x) is None
    if kind == "omega-le":
        return run.clique(x).lower <= numbers["bound"]
    y = sets.get("Y", 0)
    if kind == "anticomplete":
        return x & y == 0 and all(g.rows[v] & y == 0 for v in bits(x))
    if kind == "complete-between":
        return x & y == 0 and all(g.rows[v] & y == y for v in bits(x))
    if kind == "subset":
        return x & ~y == 0
    if kind == "sets-equal":
        return x == y
    raise ValueError(f"unknown audit kind {kind!r}")


class ProofTrace:
    """Ordered log of audited decomposition steps for one coloring run.

    g is the run's input graph; budget bounds every exact solve of the run,
    the audit steps' own included.
    """

    def __init__(self, label: str, g: Graph, budget: SolveBudget | None = None):
        self.label = label
        self.g = g
        self.budget = budget
        self.steps: list[TraceStep] = []
        self._cliques: dict[int, CliqueResult] = {}

    def clique(self, mask: int) -> CliqueResult:
        """Proven maximum clique of G[mask], solved once per run under the
        run's budget.  BudgetExhausted propagates and is never cached."""
        if mask not in self._cliques:
            self._cliques[mask] = require_clique_number(self.g, self.budget, within=mask)
        return self._cliques[mask]

    def audit(
        self,
        tag: str,
        kind: str,
        assertion: str,
        sets: dict[str, int] | None = None,
        numbers: dict[str, int] | None = None,
        soft: bool = False,
    ) -> bool:
        """Evaluate a predicate on the run's graph, record the step, and
        raise on hard failure.  Each named set is a vertex mask."""
        sets = sets or {}
        numbers = numbers or {}
        ok = evaluate_step(self, kind, sets, numbers)
        verdict = HOLDS if ok else (SOFT_GAP if soft else VIOLATED)
        step = TraceStep(
            tag, kind, assertion, verdict, tuple(sets.items()), tuple(numbers.items())
        )
        self.steps.append(step)
        if verdict == VIOLATED:
            raise AuditViolation(step, self)
        return ok

    @property
    def holds_count(self) -> int:
        return sum(1 for s in self.steps if s.verdict == HOLDS)

    @property
    def soft_gap_count(self) -> int:
        return sum(1 for s in self.steps if s.verdict == SOFT_GAP)

    @property
    def violated_count(self) -> int:
        return sum(1 for s in self.steps if s.verdict == VIOLATED)

    def serialize(self) -> str:
        head = f"trace|{self.label}|steps={len(self.steps)}"
        return "\n".join([head] + [s.line() for s in self.steps]) + "\n"


def replay(g: Graph, trace: ProofTrace) -> list[TraceStep]:
    """Re-evaluate every step against the graph; return the mismatches.

    A step replays cleanly when re-evaluation agrees with the recorded
    verdict: holds-steps still hold, soft-gap steps still fail.  Steps are
    evaluated on a fresh run, so cliques are solved afresh on g.
    """
    run = ProofTrace(trace.label, g)
    bad = []
    for step in trace.steps:
        ok = evaluate_step(run, step.kind, dict(step.sets), dict(step.numbers))
        if ok != (step.verdict == HOLDS):
            bad.append(step)
    return bad
