"""chibound benchmark runner.

Run from the root of a source checkout:

    python3 perfbench/run.py --node-limit 300000 --workload suite --seed 0 \\
        --seconds 35 --trace 0

One process: set up the workload (import, catalog, inputs); warm up on a
small input; then run passes over the same inputs until ``--seconds`` have
passed, timing one more complete set-up before each later pass.  While a
set-up or a pass runs, a probe samples the host's speed (see speed.py), and
every time is reported at one fixed reference speed.
Every output is checked and every pass must reproduce the first pass's
outputs exactly.  With ``--trace 1`` untraced and traced passes alternate
and the per-layer metrics of the traced passes are printed instead of the
end-to-end ones.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from speed import SpeedProbe  # noqa: E402
from tracing import PER_LAYER, NullTracer, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Set-ups are spread over the run, one before each pass, so that their
# median does not rest on the host's state in one short burst; runs with few
# passes make up the rest at the end.
SETUP_REPEATS = 9
# A wall-clock limit that cannot fire, so every verdict depends on the node
# budget alone and repeats exactly.
NEVER_SECONDS = 1e9

# (metric, unit) for every end-to-end figure an untraced run prints.
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("ok_share", "share"),
)

# What the generic metrics mean on each workload, in the workload's own terms.
ALIASES = {
    "suite": {
        "ops_per_s": "suite.inst_per_s",
        "op_ms_p50": "suite.check_ms_p50",
        "op_ms_tail": "suite.check_ms_{tail}",
    },
    "witness": {
        "ops_per_s": "witness.per_s",
        "op_ms_p50": "witness.ms_p50",
        "op_ms_tail": "witness.ms_{tail}",
    },
    "hunt": {
        "ops_per_s": "hunt.steps_per_s",
        "op_ms_p50": "hunt.call_ms_p50",
        "op_ms_tail": "hunt.call_ms_{tail}",
    },
}
TAIL_PERCENTILES = (99, 95, 90, 75)


def _program_modules() -> dict:
    return {name: m for name, m in sys.modules.items() if name.split(".")[0] == "chibound"}


def _import_program():
    """Import chibound afresh, so each set-up pays the import."""
    for name in _program_modules():
        del sys.modules[name]
    return importlib.import_module("chibound")


def _set_up(workload: str, seed: int, node_limit: int):
    """One complete set-up: a fresh import, the whole catalog and the
    workload's inputs.  Returns the program, the workload, and the
    perf_counter intervals of the set-up and of its catalog build."""
    t0 = time.perf_counter()
    cb = _import_program()
    t1 = time.perf_counter()
    for name in cb.catalog_names():
        cb.named_graph(name)
    t2 = time.perf_counter()
    budget = cb.SolveBudget(node_limit=node_limit, time_limit=NEVER_SECONDS)
    work = WORKLOADS[workload](cb, seed, budget)
    t3 = time.perf_counter()
    return cb, work, (t0, t3), (t1, t2)


def _measure(cb, work, probe, seconds: float, traced: bool, set_up_again):
    """Run passes until the time is up; with tracing, alternate untraced and
    traced passes and keep at least two of each.  set_up_again runs before
    every pass but the first; its set-up is timed and thrown away.  The
    probe samples during every pass; it calls nothing of the program, so a
    trace never records it."""
    plain, layered = [], []
    deadline = time.perf_counter() + seconds
    # Start another pass (or untraced and traced pair) only if it would end
    # less than half of the last one late.
    last = 0.0
    while (
        not plain
        or (traced and len(layered) < 2)
        or time.perf_counter() + last / 2 < deadline
    ):
        if plain:
            set_up_again()
        t0 = time.perf_counter()
        with probe:
            plain.append(work.run_pass(NullTracer()))
        if traced:
            trc = Tracer()
            trc.install(cb)
            try:
                with probe:
                    result = work.run_pass(trc)
            finally:
                trc.uninstall()
            layered.append((result, trc))
        last = time.perf_counter() - t0
    return plain, layered


def _per_key(passes, value) -> dict:
    """Per unit key, value(start, end) of every run of the unit over the
    passes."""
    out: dict = {}
    for p in passes:
        for key, runs in p.units.items():
            out.setdefault(key, []).extend(value(start, end) for start, end in runs)
    return out


def _operations_ms(passes, probe) -> list[float]:
    """Per operation, the median over its runs of its normalised ms."""
    samples: dict = {}
    for p in passes:
        if p.inner_ms:
            for key, (unit, ms) in p.inner_ms.items():
                ((start, end),) = p.units[unit]
                samples.setdefault(key, []).append(ms * probe.factor(start, end))
        else:
            for key, runs in p.units.items():
                samples.setdefault(key, []).extend(
                    probe.normalised(start, end) * 1e3 for start, end in runs
                )
    return sorted(statistics.median(xs) for xs in samples.values())


def _tail(xs: list[float]) -> tuple[str, float]:
    """The highest percentile with at least ten operations beyond it, or the
    slowest operation when there are too few for any."""
    for q in TAIL_PERCENTILES:
        if len(xs) * (100 - q) >= 1000:
            return f"p{q}", statistics.quantiles(xs, n=100, method="inclusive")[q - 1]
    return "max", max(xs)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--node-limit", required=True, type=int, help="search nodes per exact solve")
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "chibound" / "__init__.py").is_file():
        print(f"perfbench: no chibound sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    probe = SpeedProbe()
    setups = []

    def set_up():
        with probe:
            cb, work, whole, catalog = _set_up(args.workload, args.seed, args.node_limit)
        setups.append((whole, catalog))
        return cb, work

    def set_up_again():
        # Put the measured program's modules back afterwards: its functions
        # import from sys.modules at call time (chibound.trace imports
        # chibound.exact inside a method), and must not reach the copy.
        kept = _program_modules()
        set_up()
        for name in _program_modules():
            del sys.modules[name]
        sys.modules.update(kept)

    cb, work = set_up()
    work.warm_up()
    plain, layered = _measure(cb, work, probe, args.seconds, bool(args.trace), set_up_again)
    while len(setups) < SETUP_REPEATS:
        set_up_again()
    setup_s = statistics.median(probe.normalised(*whole) for whole, _ in setups)
    catalog_ms = statistics.median(probe.normalised(*catalog) * 1e3 for _, catalog in setups)

    passes = plain + [res for res, _ in layered]
    problems = [msg for p in passes for msg in p.problems]
    reference = plain[0].fingerprint
    for i, p in enumerate(passes[1:], 1):
        if p.fingerprint != reference:
            problems.append(f"pass {i} outputs differ from pass 0")
    counters = [trc.deterministic() for _, trc in layered]
    for i, det in enumerate(counters[1:], 1):
        if det != counters[0]:
            diff = sorted(k for k in det if det[k] != counters[0][k])
            problems.append(f"traced pass {i} counters differ: {', '.join(diff)}")

    attempted = sum(p.attempted for p in plain)
    failed = sum(p.failed for p in plain)
    # Each unit and each operation counts once, at the median of its
    # normalised times over its runs.
    pass_s = sum(statistics.median(xs) for xs in _per_key(plain, probe.normalised).values())
    latencies = _operations_ms(plain, probe) or [0.0]
    tail, tail_ms = _tail(latencies)
    values = {
        "setup_s": setup_s,
        "ops_per_s": statistics.median(p.ops for p in plain) / pass_s,
        "op_ms_p50": statistics.median(latencies),
        "op_ms_tail": tail_ms,
        "ok_share": 1.0 - failed / attempted,
    }

    print(
        f"workload={args.workload} seed={args.seed} passes={len(plain)} "
        f"traced_passes={len(layered)} attempted={attempted} failed={failed} "
        f"operations={len(latencies)}"
    )
    aliases = ALIASES[args.workload]
    for name, unit in END_TO_END:
        label = aliases.get(name, name).format(tail=tail)
        print(f"  {label} = {values[name]:.6g} {unit}")
    print(f"  {args.workload}.fail_share = {failed}/{attempted}")
    print(f"  {args.workload}.pass_s = {pass_s:.6g} s")
    # The fastest own time of each unit, not normalised, for comparison.
    best_s = sum(min(xs) for xs in _per_key(plain, probe.own_seconds).values())
    print(f"  {args.workload}.pass_s_best_measured = {best_s:.6g} s")
    print(
        f"  probe: {len(probe.seconds)} samples, fastest {min(probe.seconds) * 1e3:.4g} ms, "
        f"median {statistics.median(probe.seconds) * 1e3:.4g} ms"
    )
    for msg in problems:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)

    if args.trace:
        per_pass = [trc.layer_metrics(probe.normalised) for _, trc in layered]
        layer = {
            name: statistics.median(metrics[name] for metrics in per_pass)
            for name, _, _ in PER_LAYER
            if name not in ("catalog.named_graph.ms", "bench.trace_overhead_share")
        }
        layer["catalog.named_graph.ms"] = catalog_ms
        traced_s = sum(
            statistics.median(xs)
            for xs in _per_key([r for r, _ in layered], probe.normalised).values()
        )
        layer["bench.trace_overhead_share"] = traced_s / pass_s - 1.0
        metrics = {
            name: {"value": int(layer[name]) if unit == "count" else layer[name], "unit": unit}
            for name, unit, _ in PER_LAYER
        }
        spans_path = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
        spans_path.parent.mkdir(exist_ok=True)
        spans_path.unlink(missing_ok=True)
        for i, (_, trc) in enumerate(layered):
            trc.dump(spans_path, f"pass{i}")
        print(f"  spans written to {spans_path.relative_to(ROOT)}")
    else:
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
