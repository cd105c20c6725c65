"""Command-line front end.

Data goes to stdout, diagnostics to stderr.  Exit codes: 0 success, 1
negative verdict (non-member, pattern absent, improper coloring, violated
audit, failed suite records), 2 usage or parse error, 3 budget exhausted
before an exact answer.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .catalog import catalog_names, named_graph
from .colorers import COLORERS, ClassMembershipError, _bound_at
from .exact import (
    BudgetExhausted,
    SolveBudget,
    chromatic_number,
    clique_number,
    verify_coloring,
)
from .generators import (
    SampleConfig,
    SampleExhausted,
    extremal_family,
    gnp,
    hunt,
    sample_class,
)
from .graphs import Coloring, Graph
from .io import FORMATS, dumps, loads, read_graph, write_graph
from .patterns import class_by_name, find_induced, is_member, pattern_by_name
from .suite import run_suite
from .trace import AuditViolation

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_USAGE = 2
EXIT_UNKNOWN = 3


def _say(msg: str) -> None:
    print(msg, file=sys.stderr)


def _load_graph(path: str, fmt: str | None) -> Graph:
    if path == "-":
        return loads(sys.stdin.read(), fmt or "graph6")
    return read_graph(path, fmt)


def _emit_graph(g: Graph, out: str | None, fmt: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(dumps(g, fmt or "graph6"))
    else:
        write_graph(g, out, fmt)
        _say(f"wrote {g.n} vertices, {g.edge_count} edges to {out}")


def _budget_from(args) -> SolveBudget | None:
    kwargs = {}
    if getattr(args, "budget_nodes", None) is not None:
        kwargs["node_limit"] = args.budget_nodes
    if getattr(args, "budget_seconds", None) is not None:
        kwargs["time_limit"] = args.budget_seconds
    return SolveBudget(**kwargs) if kwargs else None


def _add_graph_arg(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("graph", help="graph file (.col/.dimacs/.g6/.graph6), or - for stdin")
    sub.add_argument("--fmt", choices=FORMATS, help="override format detection")


def _add_budget_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--budget-nodes", type=int, metavar="N", help="search node limit")
    sub.add_argument(
        "--budget-seconds", type=float, metavar="S", help="wall-clock limit per solve"
    )


def _cmd_gen(args) -> int:
    picked = [x for x in (args.family, args.gnp, args.sample) if x]
    if len(picked) != 1:
        _say("gen needs exactly one of --family, --gnp, --sample")
        return EXIT_USAGE
    if args.family:
        try:
            g = named_graph(args.family)
        except ValueError:
            g = extremal_family(args.family, args.k)
    elif args.gnp:
        n, p = int(args.gnp[0]), float(args.gnp[1])
        g = gnp(n, p, args.seed)
    else:
        cfg = SampleConfig(
            n=args.n,
            p=args.p,
            seed=args.seed,
            class_name=args.sample,
            max_tries=args.max_tries,
        )
        try:
            g = sample_class(cfg)
        except SampleExhausted as exc:
            _say(str(exc))
            return EXIT_VERDICT
    _emit_graph(g, args.out, args.fmt)
    return EXIT_OK


def _cmd_detect(args) -> int:
    g = _load_graph(args.graph, args.fmt)
    pattern = pattern_by_name(args.pattern)
    emb = find_induced(g, pattern)
    if emb is None:
        print(f"absent pattern={pattern.name}")
        return EXIT_VERDICT
    print(f"found pattern={pattern.name} vertices={','.join(map(str, emb.vertices))}")
    return EXIT_OK


def _cmd_member(args) -> int:
    g = _load_graph(args.graph, args.fmt)
    spec = class_by_name(args.cls)
    verdict = is_member(g, spec)
    if verdict:
        print(f"member class={spec.name}")
        return EXIT_OK
    w = verdict.witness
    assert w is not None
    print(
        f"non-member class={spec.name} pattern={w.pattern} "
        f"vertices={','.join(map(str, sorted(w.vertices)))}"
    )
    return EXIT_VERDICT


def _solved(name: str, res) -> int:
    """Print an exact solver's proven value, or its bounds when the budget
    ran out first."""
    if res.value is not None:
        print(res.value)
        return EXIT_OK
    print(f"{name} lower={res.lower} upper={res.upper}")
    _say(f"budget exhausted after {res.nodes_used} nodes")
    return EXIT_UNKNOWN


def _cmd_omega(args) -> int:
    g = _load_graph(args.graph, args.fmt)
    return _solved("omega", clique_number(g, _budget_from(args)))


def _cmd_chi(args) -> int:
    g = _load_graph(args.graph, args.fmt)
    return _solved("chi", chromatic_number(g, _budget_from(args)))


def _cmd_color(args) -> int:
    g = _load_graph(args.graph, args.fmt)
    spec = class_by_name(args.cls)
    if spec.name not in COLORERS:
        _say(f"no colorer for class {spec.name}; choose from {sorted(COLORERS)}")
        return EXIT_USAGE
    coloring, trace = COLORERS[spec.name](g, _budget_from(args))
    print(" ".join(map(str, coloring.colors)))
    omega = trace.clique(g.full_mask).lower
    _say(
        f"class={spec.name} n={g.n} palette={coloring.palette} "
        f"bound={_bound_at(spec.name, omega)} omega={omega} "
        f"steps={len(trace.steps)} holds={trace.holds_count} "
        f"soft={trace.soft_gap_count} violated={trace.violated_count}"
    )
    if args.audit_out:
        Path(args.audit_out).write_text(trace.serialize())
        _say(f"wrote {len(trace.steps)} audit steps to {args.audit_out}")
    if args.coloring_out:
        Path(args.coloring_out).write_text(" ".join(map(str, coloring.colors)) + "\n")
    return EXIT_OK


def _cmd_verify(args) -> int:
    g = _load_graph(args.graph, args.fmt)
    text = Path(args.coloring).read_text()
    try:
        colors = tuple(int(tok) for tok in text.split())
    except ValueError:
        _say(f"coloring file {args.coloring} must hold whitespace-separated integers")
        return EXIT_USAGE
    coloring = Coloring(colors)
    bad = verify_coloring(g, coloring)
    if bad is None:
        print(f"proper palette={coloring.palette}")
        return EXIT_OK
    print(f"improper edge={bad[0]},{bad[1]}")
    return EXIT_VERDICT


def _cmd_suite(args) -> int:
    report = run_suite(args.cls, args.n, args.count, args.seed, _budget_from(args))
    for line in report.table() if args.table else report.lines():
        print(line)
    if report.tally("fail") or report.tally("sample-fail"):
        return EXIT_VERDICT
    if report.tally("unknown"):
        return EXIT_UNKNOWN
    return EXIT_OK


def _cmd_hunt(args) -> int:
    start = _load_graph(args.start, args.fmt) if args.start else None
    result = hunt(
        args.cls,
        n=args.n,
        steps=args.steps,
        seed=args.seed,
        start=start,
        budget=_budget_from(args),
    )
    flag = "true" if result.noteworthy else "false"
    omega = "-" if result.omega is None else result.omega
    print(
        f"class={result.class_name} n={result.graph.n} m={result.graph.edge_count} "
        f"chi={result.chi} omega={omega} evaluations={result.evaluations} "
        f"steps={result.steps} seed={result.seed} noteworthy={flag}"
    )
    print(dumps(result.graph, "graph6"), end="")
    if result.noteworthy:
        _say("noteworthy: chromatic number exceeds the best known construction")
    if args.out:
        write_graph(result.graph, args.out)
        _say(f"wrote best graph to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chibound",
        description="Audit-checked coloring toolkit for hereditary graph classes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit a named, random, or sampled graph")
    p.add_argument(
        "--family",
        metavar="NAME",
        help=f"catalog graph ({', '.join(catalog_names())}) or witness family "
        "(kite-even, kite-odd, hammer, k4)",
    )
    p.add_argument("--k", type=int, default=1, help="witness family size parameter")
    p.add_argument("--gnp", nargs=2, metavar=("N", "P"), help="G(n, p) random graph")
    p.add_argument("--sample", metavar="CLASS", help="rejection-sample a class member")
    p.add_argument("--n", type=int, default=10, help="order for --sample")
    p.add_argument("--p", type=float, default=0.5, help="edge probability for --sample")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-tries", type=int, default=1000)
    p.add_argument("-o", "--out", metavar="FILE", help="output file; stdout by default")
    p.add_argument("--fmt", choices=FORMATS, help="output format override")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("detect", help="search for an induced pattern")
    p.add_argument("--pattern", required=True)
    _add_graph_arg(p)
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("member", help="test hereditary class membership")
    p.add_argument("--class", dest="cls", required=True, metavar="CLASS")
    _add_graph_arg(p)
    p.set_defaults(func=_cmd_member)

    p = sub.add_parser("omega", help="exact clique number")
    _add_graph_arg(p)
    _add_budget_args(p)
    p.set_defaults(func=_cmd_omega)

    p = sub.add_parser("chi", help="exact chromatic number")
    _add_graph_arg(p)
    _add_budget_args(p)
    p.set_defaults(func=_cmd_chi)

    p = sub.add_parser("color", help="run a class colorer with runtime audits")
    p.add_argument("--class", dest="cls", required=True, metavar="CLASS")
    _add_graph_arg(p)
    _add_budget_args(p)
    p.add_argument("--audit-out", metavar="FILE", help="write the audit trace here")
    p.add_argument("--coloring-out", metavar="FILE", help="write the colors here")
    p.set_defaults(func=_cmd_color)

    p = sub.add_parser("verify", help="check a coloring file against a graph")
    _add_graph_arg(p)
    p.add_argument("--coloring", required=True, metavar="FILE")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("suite", help="sample members, color, audit, exact-check")
    p.add_argument("--class", dest="cls", required=True, metavar="CLASS")
    p.add_argument("--n", type=int, default=12, help="maximum instance order")
    p.add_argument("--count", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--table", action="store_true", help="aligned columns")
    _add_budget_args(p)
    p.set_defaults(func=_cmd_suite)

    p = sub.add_parser("hunt", help="hill-climb for high chromatic number in a class")
    p.add_argument("--class", dest="cls", required=True, metavar="CLASS")
    p.add_argument("--n", type=int, default=12, help="order when no start graph given")
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--start", metavar="FILE", help="start graph; a sampled member otherwise"
    )
    p.add_argument("--fmt", choices=FORMATS, help="start graph format override")
    p.add_argument("-o", "--out", metavar="FILE", help="save the best graph here")
    _add_budget_args(p)
    p.set_defaults(func=_cmd_hunt)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except BudgetExhausted as exc:
        _say(str(exc))
        return EXIT_UNKNOWN
    except (AuditViolation, ClassMembershipError) as exc:
        _say(str(exc))
        return EXIT_VERDICT
    except (OSError, ValueError) as exc:
        _say(str(exc))
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
