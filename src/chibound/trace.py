"""Runtime audit traces for the structural coloring procedures.

Every structural fact a colorer relies on is checked on the concrete vertex
sets and recorded as a step.  What a step claims is fixed by the program:
CLAIMS maps each tag template to its predicate kind, its assertion sentence
and its soft flag, and audit() takes only the template, its fields, and the
step's named sets and numbers.  Steps carry enough data (the kind, the named
sets, the named numbers) to re-evaluate them later against the graph, which
is what replay() does; replay also checks each step's kind, assertion and
verdict against its tag's claim, reading an assertion's vertices and class
back from the step's sets and the trace's label.  Every named set is a
vertex mask: in the audit call, in TraceStep.sets as (name, mask) pairs, and
in evaluate_step; a serialized step lists each set's vertex ids ascending.
A failed hard step raises immediately; a failed step whose claim is soft
(the two soft sites are declared in CLAIMS) records a "soft-gap" verdict and
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

import re
from dataclasses import dataclass
from functools import cache, lru_cache, reduce
from operator import or_

from . import patterns
from .exact import CliqueResult, SolveBudget, require_clique_number
from .graphs import Graph, bits, components, is_clique, is_independent

HOLDS = "holds"
SOFT_GAP = "soft-gap"
VIOLATED = "violated"


# Every claim a colorer records, keyed by its tag template: the predicate kind
# that evaluate_step checks, the assertion sentence, and whether a failure is
# only a soft gap.  audit() fills a template's {fields}, in the tag and the
# assertion alike, from its keywords.
CLAIMS: dict[str, tuple[str, str, bool]] = {
    "leaf/triangle-free": ("value-le",
        "triangle-free remainder takes at most 4 colors", False),
    "bound/final-palette": ("value-le",
        "palette within the {cls} binding function at omega={omega}", False),
    "reduce/dominated-pair": ("subset",
        "vertex {u} is dominated by nonadjacent {v} and will copy its color", False),
    "leaf/k1k3-absent": ("k1k3-absent",
        "no spare-edge or hammer split and dominated pairs removed leaves no "
        "isolated-vertex-plus-triangle", False),
    "leaf/k1k3-free": ("value-le",
        "a triangle-containing remainder without K1+K3 takes at most 2*omega colors",
        False),
    "split-p2k3/eq1-x1": ("independent",
        "private neighbors of one endpoint of the spare edge are independent", False),
    "split-p2k3/eq1-x2": ("independent",
        "private neighbors of the other endpoint are independent", False),
    "split-p2k3/m-anticomplete": ("anticomplete",
        "the non-neighborhood of the spare edge misses both endpoints", False),
    "split-p2k3/m-p3free": ("p3-free",
        "non-neighborhood of the spare edge is a union of cliques", False),
    "split-p2k3/d-clique": ("clique",
        "common neighbors complete to the rest of the common neighborhood form a clique",
        False),
    "split-p2k3/eq2-c-meets-c1": ("subset",
        "every remaining common neighbor sees the largest remainder clique", False),
    "split-p2k3/eq3-c-complete-c1": ("complete-between",
        "remaining common neighbors are complete to the largest remainder clique", False),
    "split-p2k3/clique-budget": ("value-le",
        "remainder clique plus a clique of the recursed part fit in omega", False),
    "split-p2k3/edge-budget": ("value-le",
        "the spare edge extends any clique of the recursed part", False),
    "split-p2k3/d-budget": ("value-le",
        "the dominating clique, the spare edge, and a recursed-part clique stack into one "
        "clique", False),
    "split-p2k3/cluster-palette": ("value-le",
        "cliques of the non-neighborhood plus the spare edge fit in omega minus omega1 "
        "colors", False),
    "split-p2k3/recursion-palette": ("value-le",
        "recursed common-neighborhood part stays within twice its clique number", False),
    "split-p2k3/total": ("value-le",
        "spare-edge split stays within twice the clique number", False),
    "split-hammer/cell-12-empty": ("empty-set",
        "no vertex sees exactly the triangle edge of the hammer anchors", False),
    "split-hammer/cell-45-empty": ("empty-set",
        "no vertex sees exactly the handle edge of the hammer anchors", False),
    "split-hammer/cell-{a}-empty": ("empty-set",
        "no vertex sees exactly one hammer anchor", False),
    "split-hammer/cell-{cell}-independent": ("independent",
        "a mixed anchor cell is independent", False),
    "split-hammer/cells-cover": ("sets-equal",
        "the anchor neighborhood is exactly the mixed cells plus the full cell", False),
    "split-hammer/eq4-j2-j3": ("anticomplete",
        "two-anchor cells are anticomplete to three-anchor cells", False),
    "split-hammer/hammer-complete-full": ("complete-between",
        "all five hammer vertices are complete to the full cell", False),
    "split-hammer/full-cell-omega": ("omega-le",
        "the full cell lives under the hammer triangle in clique space", False),
    "split-hammer/recursion-palette": ("value-le",
        "recursed full cell stays within twice its clique budget", False),
    "split-hammer/j2-palette": ("value-le",
        "two-anchor cells together take at most 2 colors", True),
    "split-hammer/j3-palette": ("value-le",
        "three-anchor cells together take at most 2 colors", True),
    "split-hammer/n-block-palette": ("value-le",
        "mixed cells share one palette of at most 4 colors", False),
    "split-hammer/rest-components": ("components-le-2",
        "outside the anchor neighborhood only vertices and edges remain", False),
    "split-hammer/rest-palette": ("value-le",
        "remainder plus anchors take at most 2 colors", False),
    "split-hammer/total": ("value-le",
        "hammer split stays within twice the clique number", False),
    "greedy-split/a{i}-components": ("components-le-2",
        "a part missing one clique vertex splits into vertices and edges", False),
    "greedy-split/b-complete": ("complete-between",
        "leftover outside vertices see the whole clique except its root", False),
    "greedy-split/b-independent": ("independent",
        "leftover outside vertices are independent", False),
    "greedy-split/recursion-omega": ("omega-le",
        "the root neighborhood drops the clique number by one", False),
    "greedy-split/recursion-palette": ("value-le",
        "recursed neighborhood stays within its squared clique budget", False),
    "greedy-split/a{i}-palette": ("value-le",
        "a vertices-and-edges part takes at most 2 colors", False),
    "greedy-split/total": ("value-le",
        "clique-rooted split stays within the squared clique number", False),
    "twin-edge/eq5-closed-equal": ("sets-equal",
        "the spare edge endpoints have identical closed neighborhoods", False),
    "twin-edge/pair-complete": ("complete-between",
        "the twin edge is complete to its shared neighborhood", False),
    "twin-edge/n-omega": ("omega-le",
        "the shared neighborhood drops the clique number by two", False),
    "twin-edge/rest-p3free": ("p3-free",
        "the remainder plus the twin edge is a union of cliques", False),
    "twin-edge/recursion-palette": ("value-le",
        "recursed shared neighborhood stays within its squared clique budget", False),
    "twin-edge/cluster-palette": ("value-le",
        "remainder cliques fit in omega colors", False),
    "twin-edge/total": ("value-le",
        "twin-edge split stays within the squared clique number", False),
    "layers/aprime-clique": ("clique",
        "neighbors whose second-sphere non-neighborhood holds a triangle form a clique",
        False),
    "layers/aprime-size": ("value-le", "that clique extends by the root vertex", False),
    "second-nbhd/base-clique": ("value-le",
        "the low-category clique extends by the root vertex", False),
    "second-nbhd/b-partition": ("sets-equal",
        "second-sphere vertices missing part of the clique split by their first missed "
        "clique vertex", False),
    "second-nbhd/b-empty": ("empty-set",
        "the category-0 clique vertices have no second-sphere parts", False),
    "second-nbhd/b{idx}-p3free": ("p3-free",
        "a second-sphere part is a union of cliques", False),
    "second-nbhd/b{idx}-palette": ("value-le",
        "a second-sphere part takes one color at category <= 1 and two at category 2",
        True),
    "second-nbhd/b-block": ("value-le",
        "all second-sphere parts fit in twice the low-category clique size", False),
    "second-nbhd/d-omega": ("omega-le",
        "vertices complete to the low-category clique drop the clique number by its size",
        False),
    "second-nbhd/a-palette": ("value-le",
        "recursed low-category neighbors stay within the binding at their clique number",
        False),
    "second-nbhd/d-palette": ("value-le",
        "recursed complete-side stays within the binding at the reduced clique number",
        False),
    "second-nbhd/far-anticomplete": ("anticomplete",
        "the high-category clique sees nothing at distance three or beyond", False),
    "second-nbhd/far-p3free": ("p3-free",
        "distance three and beyond is a union of cliques", False),
    "second-nbhd/far-block": ("value-le",
        "the high-category clique and the far cliques share omega colors", False),
    "second-nbhd/total": ("value-le",
        "second-neighborhood split stays within the binding", False),
    "triangle-cap/omega": ("omega-le", "without K4 the clique number stays at 3", False),
    "two-triangles/cell-123-empty": ("empty-set",
        "no vertex sees the whole base triangle", False),
    "two-triangles/cell-{a}-empty": ("empty-set",
        "no vertex sees exactly one base triangle vertex", False),
    "two-triangles/cell-{a}{b}-independent": ("independent",
        "a two-vertex cell of the base triangle is independent", False),
    "two-triangles/rest-p3free": ("p3-free",
        "outside the base triangle's neighborhood is a union of cliques", False),
    "two-triangles/rest-palette": ("value-le",
        "outside cliques take at most 3 colors", False),
    "two-triangles/total": ("value-le", "two-triangle split takes at most 6 colors", False),
    "spare-edge/cell-123-empty": ("empty-set", "no vertex sees the whole triangle", False),
    "spare-edge/singles-complete-pair": ("complete-between",
        "one-vertex cells are complete to the spare edge", False),
    "spare-edge/singles-independent": ("independent",
        "one-vertex cells together are independent", False),
    "spare-edge/cell-{a}{b}-independent": ("independent",
        "a two-vertex cell of the triangle is independent", False),
    "spare-edge/rest-components": ("components-le-2",
        "without a second triangle the outside splits into vertices and edges", False),
    "spare-edge/rest-palette": ("value-le",
        "outside components take at most 2 colors", False),
    "spare-edge/total": ("value-le", "spare-edge split takes at most 6 colors", False),
}


@lru_cache(maxsize=4096)
def _filled(tag: str, assertion: str, **fields: object) -> tuple[str, str]:
    """A template's tag and assertion with its fields filled in.  Cached: a
    suite record fills about four templates, nearly always with values seen
    before, and a cache hit costs half of the two formats."""
    return tag.format_map(fields), assertion.format_map(fields)


# What a field matches when replay reads a concrete tag or assertion: {a} and
# {b} are one anchor label, so split-hammer/cell-12-empty never matches
# cell-{a}-empty; {cls} is a class name; every other field is a number.
_FIELDS = {"a": "[0-9]", "b": "[0-9]", "cls": "[A-Za-z0-9]+"}


@cache
def _matcher(template: str) -> re.Pattern[str]:
    """A template's regex, compiled on first use: compiling them all takes
    about 15 ms, which an import would pay on every coloring run."""
    # re.split keeps the captured field names: they are the odd parts.
    parts = re.split(r"\{(\w+)\}", template)
    return re.compile("".join(
        f"(?P<{p}>{_FIELDS.get(p, '[0-9]+')})" if i % 2 else re.escape(p)
        for i, p in enumerate(parts)
    ))


@lru_cache(maxsize=4096)
def _claim_of(tag: str) -> tuple[str, str, bool, re.Pattern[str]] | None:
    """The claim of the one template that matches a concrete tag, followed by
    the matcher of its assertion; None unless exactly one template matches."""
    found = [claim for t, claim in CLAIMS.items() if _matcher(t).fullmatch(tag)]
    return (*found[0], _matcher(found[0][1])) if len(found) == 1 else None


def _says(step: TraceStep, assertion: str, says: re.Pattern[str], label: str) -> bool:
    """The step's assertion is the claim's sentence with its fields filled
    in, and the fields that the step or its trace record elsewhere read
    back: {u} and {v} are the vertices of the step's removed and donor sets,
    {cls} the trace's label.  Other fields are read by their shape only."""
    if step.assertion == assertion:
        return "{" not in assertion
    said = says.fullmatch(step.assertion)
    if said is None:
        return False
    fields = said.groupdict()
    sets = dict(step.sets)
    return fields.get("cls", label) == label and all(
        sets.get(name) == 1 << int(fields[f])
        for f, name in (("u", "removed"), ("v", "donor")) if f in fields
    )


# Slotted, not frozen: a frozen dataclass sets each field through
# object.__setattr__, which made a step cost four times as much to build.
@dataclass(slots=True)
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
    # One OR over the masks: a negative mask has every high bit set.
    if sets and reduce(or_, sets.values()) >> g.n:
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
        sets: dict[str, int] | None = None,
        numbers: dict[str, int] | None = None,
        **fields: object,
    ) -> bool:
        """Evaluate the claim of a CLAIMS tag template, its fields filled
        from the keywords, on the run's graph; record the step, and raise on
        a hard failure.  Each named set is a vertex mask."""
        kind, assertion, soft = CLAIMS[tag]
        if fields:
            tag, assertion = _filled(tag, assertion, **fields)
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
    """Check every step against its tag's claim and the graph; return the
    mismatches.

    A step replays cleanly when its tag matches exactly one CLAIMS template,
    its kind is that claim's, its assertion is the claim's sentence with the
    fields filled in (a dominated pair's vertices read back from its removed
    and donor sets, a class from the trace's label), it records no soft gap
    under a hard claim, and re-evaluation agrees with the recorded verdict:
    holds-steps still hold, soft-gap steps still fail.  Steps are evaluated
    on a fresh run, so cliques are solved afresh on g.
    """
    run = ProofTrace(trace.label, g)
    bad = []
    for step in trace.steps:
        found = _claim_of(step.tag)
        if found is None:
            bad.append(step)
            continue
        kind, assertion, soft, says = found
        if not (
            step.kind == kind
            and _says(step, assertion, says, trace.label)
            and (soft or step.verdict != SOFT_GAP)
            and evaluate_step(run, step.kind, dict(step.sets), dict(step.numbers))
            == (step.verdict == HOLDS)
        ):
            bad.append(step)
    return bad
