"""The three benchmark workloads: suite, witness and hunt.

Each workload builds its inputs from the run seed in its constructor (that is
set-up, timed as ``setup_s``), then runs passes over those same inputs.  A
pass returns the time interval of each unit it ran, the operations timed by
the program inside them, failures, the output checks that did not hold, and
a fingerprint of every output so repeated passes can be compared exactly.  Only the generated inputs reach the program;
the expected values the checks use are fixed here, not computed by it.
"""

from __future__ import annotations

import gc
import random
import sys
import time
import traceback
from dataclasses import dataclass, field, replace

CLASSES = ("KiteFree", "HammerFree", "C5Free", "K4Free", "P2K3Free")

SUITE_ORDER = 12
# 4,000 records a pass, as 40 run_suite calls of 100.  The work of a pass
# varies with the seed: which orders are drawn decides how often rejection
# sampling runs out of tries, and at 2,000 records the is_member call count
# spread by 20% (interquartile range over median) across ten seeds.
SUITE_CALLS_PER_CLASS = 8
SUITE_COUNT = 100

# (colorer class, extremal_family arguments, chromatic number, repeats).
# The hammer witness is the Grotzsch graph (chi 4) and the k4 witness the
# Schlafli complement (chi 6).  kite-even-k joins k Grotzsch graphs and
# kite-odd-k joins k-1 of them with the Schlafli complement; chi adds over
# joins, so the references are 4k and 4k+2.  A witness that takes well under
# a second runs several times a pass, so that its median rests on more
# samples.  kite-even-2 (about 30 ms) is the median witness.
WITNESSES = (
    ("KiteFree", ("kite-even", 1), 4, 20),
    ("KiteFree", ("kite-even", 2), 8, 8),
    ("KiteFree", ("kite-even", 3), 12, 1),
    ("KiteFree", ("kite-even", 4), 16, 1),
    ("KiteFree", ("kite-odd", 1), 6, 5),
    ("KiteFree", ("kite-odd", 2), 10, 1),
    ("HammerFree", ("hammer", 1), 4, 20),
    ("P2K3Free", ("hammer", 1), 4, 20),
    ("K4Free", ("k4", 1), 6, 20),
)
# Witnesses up to this order are cheap; the warm-up colors only these.
WARM_UP_ORDER = 27

HUNT_ORDER = 16
# Many short hunts rather than a few long ones: the cost of a hunt depends
# on where its walk goes, and 8 walks per class kept the seed-to-seed spread
# of the pass's total work to about 2%.  The median hunt call still moved by
# about 10% from seed to seed at 8 walks per class, so there are 12.  60
# hunts leave 15 beyond the 75th percentile, so the latency tail is a
# percentile, not the maximum.
HUNT_STEPS = 100
HUNT_SEEDS_PER_CLASS = 12
# At order 16, G(16, 0.9) draws are members of every class but K4Free often
# enough (KiteFree least, about one draw in 6); K4-free members are sparse,
# about one G(16, 0.05) draw in 6.
HUNT_START_DENSITIES = (0.9, 0.05)
HUNT_START_TRIES = 200


@dataclass
class Pass:
    """One pass over a workload's inputs.

    ``units`` holds the (start, end) perf_counter interval of each timed
    piece of the pass, keyed the same way on every pass; a unit run several
    times in a pass has one interval per run.  When the program times the
    single operations itself, ``inner_ms`` maps each operation to its unit
    and its ms; otherwise each unit is one operation.
    """

    ops: int = 0
    attempted: int = 0
    failed: int = 0
    units: dict = field(default_factory=dict)
    inner_ms: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    fingerprint: list = field(default_factory=list)

    @staticmethod
    def start() -> float:
        """Start timing a unit from a clean collector state, so a unit's
        time does not depend on the garbage left by the one before it."""
        gc.collect()
        return time.perf_counter()

    def timed(self, key, t0: float) -> None:
        """Record a run of the unit that started at t0."""
        self.units.setdefault(key, []).append((t0, time.perf_counter()))

    def check(self, ok: bool, what: str) -> bool:
        """Record a failed output check; returns ok."""
        if not ok:
            self.problems.append(what)
        return ok


def _crashed(p: Pass, what: str, ops: int = 1) -> None:
    """ops operations raised something other than a budget verdict: count
    them as failed checks and keep the run going."""
    traceback.print_exc(file=sys.stderr)
    p.failed += ops
    p.check(False, f"{what} raised {sys.exc_info()[1]!r}")


def _proper(g, colors) -> bool:
    return all(colors[u] != colors[v] for u, v in g.edges())


class Suite:
    """run_suite over every colorer class: the rejection-sampling path."""

    def __init__(self, cb, seed: int, budget):
        self.cb = cb
        self.budget = budget
        rng = random.Random(seed)
        self.inputs = [
            (cls, rng.getrandbits(64)) for cls in CLASSES for _ in range(SUITE_CALLS_PER_CLASS)
        ]

    def warm_up(self) -> None:
        for cls, seed in self.inputs[::SUITE_CALLS_PER_CLASS]:
            self.cb.run_suite(cls, SUITE_ORDER, 5, seed, self.budget)

    def run_pass(self, trc) -> Pass:
        p = Pass()
        for cls, seed in self.inputs:
            p.attempted += SUITE_COUNT
            t0 = p.start()
            try:
                with trc.span("suite.run_suite"):
                    report = self.cb.run_suite(cls, SUITE_ORDER, SUITE_COUNT, seed, self.budget)
            except Exception:
                _crashed(p, f"run_suite({cls}, seed {seed})", SUITE_COUNT)
                continue
            finally:
                p.timed((cls, seed), t0)
            for r in report.records:
                p.ops += 1
                p.inner_ms[cls, seed, r.index] = ((cls, seed), r.ms)
                p.fingerprint.append(replace(r, ms=0.0).line())
                if r.verdict != "pass":
                    p.failed += 1
                    # "unknown" and "sample-fail" are budget or sampler
                    # verdicts; "fail" is a wrong answer.
                    p.check(r.verdict != "fail", f"{cls} record {r.index}: {r.note}")
        return p


class Witness:
    """Audited, replayed colorings of the tightness witnesses: the exact path."""

    def __init__(self, cb, seed: int, budget):
        self.cb = cb
        self.budget = budget
        # The witnesses are fixed by definition: every seed gives these inputs.
        self.items = [
            (cls, cb.extremal_family(*args), chi, repeats) for cls, args, chi, repeats in WITNESSES
        ]

    def warm_up(self) -> None:
        for cls, g, _, _ in self.items:
            if g.n <= WARM_UP_ORDER:
                self.cb.COLORERS[cls](g, self.budget)

    def run_pass(self, trc) -> Pass:
        p = Pass()
        for cls, g, chi, repeats in self.items:
            label = f"{cls} on {g.name}"
            p.attempted += 1
            p.ops += 1
            runs = [self._color(p, trc, label, cls, g, chi) for _ in range(repeats)]
            outputs = [out for out, _ in runs]
            p.fingerprint.append(outputs[0])
            ok = all(ok for _, ok in runs)
            ok &= p.check(
                all(out == outputs[0] for out in outputs),
                f"{label}: repeats in one pass gave different outputs",
            )
            if not ok:
                p.failed += 1
        return p

    def _color(self, p: Pass, trc, label: str, cls: str, g, chi: int):
        """One timed round trip, coloring, serialization and replay of a
        witness.  Returns its outputs and whether it succeeded and passed
        every check; an exhausted budget is a failure but not a wrong answer."""
        cb = self.cb
        t0 = p.start()
        try:
            with trc.span("io.roundtrip"):
                h = cb.loads(cb.dumps(g, "graph6"), "graph6")
            coloring, trace = cb.COLORERS[cls](h, self.budget)
            with trc.span("trace.serialize"):
                text = trace.serialize()
            with trc.span("trace.replay"):
                mismatches = cb.replay(h, trace)
        except cb.BudgetExhausted:
            p.timed(label, t0)
            return (label, "budget-exhausted"), False
        except Exception:
            p.timed(label, t0)
            traceback.print_exc(file=sys.stderr)
            p.check(False, f"{label} raised {sys.exc_info()[1]!r}")
            return (label, "raised"), False
        p.timed(label, t0)
        ok = p.check(h == g, f"{label}: graph6 round trip changed the graph")
        ok &= p.check(coloring.palette == chi, f"{label}: palette {coloring.palette}, chi is {chi}")
        ok &= p.check(_proper(h, coloring.colors), f"{label}: coloring is improper")
        ok &= p.check(not mismatches, f"{label}: {len(mismatches)} replay mismatches")
        ok &= p.check(
            text.count("\n") == len(trace.steps) + 1,
            f"{label}: serialized trace does not hold every step",
        )
        return (label, coloring.colors, text), ok


class Hunt:
    """Counterexample hunts from pre-sampled members: the membership accept path."""

    def __init__(self, cb, seed: int, budget):
        self.cb = cb
        self.budget = budget
        rng = random.Random(seed)
        self.inputs = []
        for cls in CLASSES:
            for _ in range(HUNT_SEEDS_PER_CLASS):
                self.inputs.append((cls, rng.getrandbits(64), self._start(cls, rng)))

    def _start(self, cls: str, rng: random.Random):
        cb = self.cb
        for p in HUNT_START_DENSITIES:
            cfg = cb.SampleConfig(
                n=HUNT_ORDER, p=p, seed=rng.getrandbits(64), class_name=cls, max_tries=HUNT_START_TRIES
            )
            try:
                return cb.sample_class(cfg)
            except cb.SampleExhausted:
                continue
        raise RuntimeError(f"no {cls} start graph of order {HUNT_ORDER}")

    def warm_up(self) -> None:
        for cls, seed, g in self.inputs[::HUNT_SEEDS_PER_CLASS]:
            self.cb.hunt(cls, g.n, HUNT_STEPS // 10, seed, start=g, budget=self.budget)

    def run_pass(self, trc) -> Pass:
        cb = self.cb
        p = Pass()
        for cls, seed, g in self.inputs:
            label = f"hunt {cls} seed {seed}"
            p.attempted += 1
            t0 = p.start()
            try:
                with trc.span("generators.hunt"):
                    r = cb.hunt(cls, g.n, HUNT_STEPS, seed, start=g, budget=self.budget)
            except cb.BudgetExhausted:
                p.timed(label, t0)
                p.failed += 1
                p.fingerprint.append((label, "budget-exhausted"))
                continue
            except Exception:
                p.timed(label, t0)
                _crashed(p, label)
                continue
            p.timed(label, t0)
            p.ops += HUNT_STEPS
            trc.count("generators.hunt.evaluations", r.evaluations)
            p.fingerprint.append((label, cb.write_graph6(r.graph), r.chi, r.omega, r.evaluations))
            ok = p.check(bool(cb.is_member(r.graph, cb.class_by_name(cls))), f"{label}: result left the class")
            ok &= p.check(
                r.chi <= cb.BINDINGS[cls](r.omega),
                f"{label}: chi {r.chi} above the bound at omega {r.omega}",
            )
            if not ok:
                p.failed += 1
        return p


WORKLOADS = {"suite": Suite, "witness": Witness, "hunt": Hunt}
