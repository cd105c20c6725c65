"""Span tracer for the benchmark's traced runs.

Spans are recorded from the benchmark's own files: the tracer replaces a
public function of the program at every place a module binds it (``from
.patterns import is_member`` copies the name into the importing module, so
``chibound.suite.is_member`` is wrapped as well as ``chibound.patterns``'s
own), and the workloads open spans around their direct calls.  Each span is
``[name, start, end, parent]``; spans stay in memory and are written out when
the run ends.  Self time is a span's duration minus the part of it covered by
its child spans.
"""

from __future__ import annotations

import gzip
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from pathlib import Path

# Audit-tag prefixes (the part before the first "/") that the colorers write.
BRANCH_PREFIXES = (
    "bound",
    "clique-nbhd",
    "greedy-split",
    "layers",
    "leaf",
    "reduce",
    "second-nbhd",
    "spare-edge",
    "split-hammer",
    "split-p2k3",
    "triangle-cap",
    "twin-edge",
    "two-triangles",
)

# (metric, unit, better) for every per-layer figure a traced run prints.
PER_LAYER = (
    ("patterns.is_member.calls", "count", "lower"),
    ("patterns.is_member.ms", "ms", "lower"),
    ("patterns.is_member.reject_share", "share", "lower"),
    ("patterns.find_induced.calls", "count", "lower"),
    ("patterns.find_induced.ms", "ms", "lower"),
    ("generators.gnp.calls", "count", "lower"),
    ("generators.gnp.ms", "ms", "lower"),
    ("generators.sample_class.calls", "count", "lower"),
    ("generators.sample_class.ms", "ms", "lower"),
    ("generators.sample_class.accept_ratio", "share", "higher"),
    ("generators.mutate_within_class.calls", "count", "lower"),
    ("generators.mutate_within_class.ms", "ms", "lower"),
    ("generators.hunt.self_ms", "ms", "lower"),
    ("generators.hunt.evaluations", "count", "lower"),
    ("exact.chromatic_number.calls", "count", "lower"),
    ("exact.chromatic_number.ms", "ms", "lower"),
    ("exact.chromatic_number.nodes", "count", "lower"),
    ("exact.clique_number.calls", "count", "lower"),
    ("exact.clique_number.ms", "ms", "lower"),
    ("exact.clique_number.nodes", "count", "lower"),
    ("exact.budget_exhausted", "count", "lower"),
    ("exact.greedy_coloring.calls", "count", "lower"),
    ("exact.greedy_coloring.ms", "ms", "lower"),
    ("colorers.color.calls", "count", "lower"),
    ("colorers.color.self_ms", "ms", "lower"),
    ("colorers.audit_steps", "count", "lower"),
    *((f"colorers.branch.{p}", "count", "lower") for p in BRANCH_PREFIXES),
    ("colorers.branch.other", "count", "lower"),
    ("trace.audit.calls", "count", "lower"),
    ("trace.audit.ms", "ms", "lower"),
    ("trace.serialize.ms", "ms", "lower"),
    ("trace.replay.ms", "ms", "lower"),
    ("graphs.induced.calls", "count", "lower"),
    ("graphs.induced.ms", "ms", "lower"),
    ("graphs.Graph.calls", "count", "lower"),
    ("io.roundtrip.ms", "ms", "lower"),
    ("suite.run_suite.self_ms", "ms", "lower"),
    ("catalog.named_graph.ms", "ms", "lower"),
    ("catalog.named_graph.pass_calls", "count", "lower"),
    ("bench.trace_overhead_share", "share", "lower"),
)

# Counts that depend only on the inputs; two passes over the same inputs
# must give identical values.
DETERMINISTIC = tuple(name for name, unit, _ in PER_LAYER if unit == "count") + (
    "patterns.is_member.rejects",
    "generators.sample_class.accepted",
)

NO_TRACE = nullcontext()


class NullTracer:
    """Stand-in for untraced passes: spans cost one attribute lookup."""

    def span(self, name: str):
        return NO_TRACE

    def count(self, name: str, n: int = 1) -> None:
        pass


class Tracer:
    """Records spans and counts for one traced pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _traced(self, name, fn, done=None):
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            idx = open_(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                close(idx)
            if done is not None:
                done(out)
            return out

        return traced

    def _counted(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installing into the program --------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, cb) -> None:
        """Wrap the program's functions where its modules bind them."""
        counts = self.counts

        def membership(verdict):
            if not verdict:
                counts["patterns.is_member.rejects"] += 1

        def sampled(_graph):
            counts["generators.sample_class.accepted"] += 1

        def solved(kind):
            def done(res):
                counts[f"exact.{kind}.nodes"] += res.nodes_used
                if not res.complete:
                    counts["exact.budget_exhausted"] += 1

            return done

        def colored(out):
            steps = out[1].steps
            counts["colorers.audit_steps"] += len(steps)
            for step in steps:
                prefix = step.tag.split("/", 1)[0]
                key = prefix if prefix in BRANCH_PREFIXES else "other"
                counts[f"colorers.branch.{key}"] += 1

        is_member = self._traced("patterns.is_member", cb.patterns.is_member, membership)
        for mod in (cb.generators, cb.suite, cb.colorers):
            self._set(mod, "is_member", is_member)
        find = self._traced("patterns.find_induced", cb.patterns.find_induced)
        for mod in (cb.patterns, cb.colorers):
            self._set(mod, "find_induced", find)

        self._set(cb.generators, "gnp", self._traced("generators.gnp", cb.generators.gnp))
        sample = self._traced("generators.sample_class", cb.generators.sample_class, sampled)
        for mod in (cb.generators, cb.suite):
            self._set(mod, "sample_class", sample)
        self._set(
            cb.suite,
            "mutate_within_class",
            self._traced("generators.mutate_within_class", cb.suite.mutate_within_class),
        )

        for kind in ("chromatic_number", "clique_number"):
            fn = getattr(cb.exact, kind)
            self._set(cb.exact, kind, self._traced(f"exact.{kind}", fn, solved(kind)))
        greedy = self._traced("exact.greedy_coloring", cb.exact.greedy_coloring)
        for mod in (cb.exact, cb.generators):
            self._set(mod, "greedy_coloring", greedy)

        for name, fn in list(cb.COLORERS.items()):
            self._undo.append((cb.COLORERS, name, fn))
            cb.COLORERS[name] = self._traced("colorers.color", fn, colored)

        proof = cb.trace.ProofTrace
        self._set(proof, "audit", self._traced("trace.audit", proof.audit))
        graph = cb.graphs.Graph
        self._set(graph, "induced", self._traced("graphs.induced", graph.induced))
        self._set(graph, "__init__", self._counted("graphs.Graph.calls", graph.__init__))
        for mod in (cb.suite, cb.generators):
            self._set(
                mod, "named_graph", self._counted("catalog.named_graph.pass_calls", mod.named_graph)
            )

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = old
            else:
                setattr(owner, attr, old)

    # -- aggregation -------------------------------------------------------

    def layer_metrics(self, seconds=lambda start, end: end - start) -> dict[str, float]:
        """Per-layer totals for the spans and counts recorded so far;
        seconds(start, end) gives the time a span counts for."""
        spent = [seconds(start, end) for _, start, end, _ in self.spans]
        covered = [0.0] * len(self.spans)
        for (_, _, _, parent), dt in zip(self.spans, spent):
            if parent >= 0:
                covered[parent] += dt
        calls: Counter[str] = Counter()
        total: Counter[str] = Counter()
        own: Counter[str] = Counter()
        for (name, _, _, _), dt, inner in zip(self.spans, spent, covered):
            calls[name] += 1
            total[name] += dt * 1e3
            own[name] += (dt - inner) * 1e3
        c = self.counts
        out: dict[str, float] = {}
        for name, unit, _ in PER_LAYER:
            base, _, field = name.rpartition(".")
            if name in c:
                out[name] = c[name]
            elif field == "calls":
                out[name] = calls[base]
            elif field == "ms":
                out[name] = total[base]
            elif field == "self_ms":
                out[name] = own[base]
            else:
                out[name] = 0
        member_calls = calls["patterns.is_member"]
        out["patterns.is_member.reject_share"] = (
            c["patterns.is_member.rejects"] / member_calls if member_calls else 0.0
        )
        draws = calls["generators.gnp"]
        out["generators.sample_class.accept_ratio"] = (
            c["generators.sample_class.accepted"] / draws if draws else 0.0
        )
        return out

    def deterministic(self) -> dict[str, int]:
        metrics = self.layer_metrics()
        return {name: metrics.get(name, self.counts[name]) for name in DETERMINISTIC}

    def dump(self, path: Path, label: str) -> None:
        """Append this pass's spans to a gzip TSV: label, id, parent, name,
        start and end in microseconds from the first span."""
        if not self.spans:
            return
        t0 = self.spans[0][1]
        with gzip.open(path, "at", encoding="utf-8") as fh:
            for idx, (name, start, end, parent) in enumerate(self.spans):
                fh.write(
                    f"{label}\t{idx}\t{parent}\t{name}\t"
                    f"{(start - t0) * 1e6:.1f}\t{(end - t0) * 1e6:.1f}\n"
                )
