"""Command-line front end: evaluate figure scripts, run checks, render
SVG, and drive the continued-fraction, extension and triangle tools.

Exit codes: 0 success (all checks true, nothing infeasible), 1 a check
or verdict failed, 2 parse or validation error, 3 overflow (more figure
instances than allowed, or more sign branches than the solver's cap),
4 degenerate input.  MOEBINV_EPS overrides the comparison tolerance; a
value that is not a finite number > 0 exits 2 before any work.

Each subcommand takes only the options it reads: --metric and --arith
go to figure-eval, figure-check, figure-render, ninepoint and apollonius,
--seed only to ninepoint --random; the others refuse them with exit 2.
A value may start with a minus sign, as in --pairs -3:1 0:2 1:5.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys
from fractions import Fraction
from typing import List, Optional

from .contfrac import (ARRANGEMENTS, ContinuedFraction, InvalidCF, chain,
                       convergents, orthogonality_residual, quotient,
                       seidel_stern_check, tangency_residual)
from .cycle import Cycle, Metric, parse_metric
from .figure import (Degenerate, DegenerateMetric, Figure, NotEvaluated,
                     TooManyInstances, nine_point_figure)
from .numerics import (RadicalClash, canonical_row, comparison_eps,
                       format_scalar, parse_scalar)
from .poincare import (classify_intervals, extension_from_triple,
                       extension_point)
from .relations import BranchOverflow, IsTangent, solve
from .render import Viewport, render_chain, render_figure

OK, FAIL, PARSE, OVERFLOW, DEGENERATE = 0, 1, 2, 3, 4
DRAWS_PER_TRIANGLE = 20  # --random cap: every parabolic triangle is degenerate

REPORT_FORMAT = "report-v1"


class CliError(Exception):
    def __init__(self, message: str, code: int = PARSE):
        super().__init__(message)
        self.code = code


def _emit(text: str, out: Optional[str]):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report(args, payload: dict, lines: List[str]):
    """Write a report as report-v1 JSON or as its text lines."""
    if args.format == "json":
        lines = [json.dumps(dict(payload, format=REPORT_FORMAT),
                            indent=2, sort_keys=True)]
    _emit("\n".join(lines) + "\n", args.out)


def _load_script(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as err:
        raise CliError(f"cannot read {path}: {err}")
    except json.JSONDecodeError as err:
        raise CliError(
            f"{path}:{err.lineno}:{err.colno}: {err.msg}")


def _build_figure(args) -> tuple:
    obj = _load_script(args.script)
    if args.metric:
        obj["metric"] = args.metric
    if args.arith:
        obj["arithmetic"] = args.arith
    extras = {"checks": obj.pop("checks", []),
              "measures": obj.pop("measures", [])}
    try:
        fig = Figure.from_obj(obj)
    except (KeyError, NotEvaluated, ValueError) as err:
        raise CliError(f"script error: {err}")
    return fig, extras


def _figure_report(fig: Figure) -> dict:
    nodes = []
    for label in fig.labels():
        node = fig.node(label)
        entry = {
            "label": label,
            "kind": node.kind,
            "generation": node.generation,
            "status": node.status,
            "instances": [[format_scalar(v) for v in inst.cycle.row()]
                          for inst in node.instances],
        }
        if node.reason:
            entry["reason"] = node.reason
        nodes.append(entry)
    return {"metric": fig.metric.label(),
            "arithmetic": fig.arithmetic,
            "nodes": nodes,
            "violations": fig.validate()}


def _report_lines(report: dict) -> List[str]:
    lines = [f"metric {report['metric']}  arithmetic {report['arithmetic']}"]
    for node in report["nodes"]:
        head = (f"{node['label']}: gen {node['generation']} "
                f"{node['status']}")
        if node.get("reason"):
            head += f" ({node['reason']})"
        lines.append(head)
        for row in node["instances"]:
            lines.append("  (" + ", ".join(row) + ")")
    for v in report["violations"]:
        lines.append(f"violation: {v}")
    return lines


def cmd_figure_eval(args) -> int:
    fig, _ = _build_figure(args)
    report = _figure_report(fig)
    _report(args, report, _report_lines(report))
    bad = any(n["status"] == "infeasible" for n in report["nodes"])
    return FAIL if bad or report["violations"] else OK


def cmd_figure_check(args) -> int:
    fig, extras = _build_figure(args)
    checks = extras["checks"]
    if not checks:
        raise CliError("script declares no checks")
    verdicts, details = [], []
    for spec in checks:
        try:
            results = fig.check_rel(spec["a"], spec["b"], spec["kind"])
        except (KeyError, NotEvaluated) as err:
            raise CliError(f"check error: {err}")
        verdict = bool(results) and all(ok for _, ok, _ in results)
        verdicts.append(verdict)
        details.append({
            "a": spec["a"], "b": spec["b"], "kind": spec["kind"],
            "verdict": verdict,
            "pairs": [{"instances": list(pair), "holds": ok,
                       "residual": format_scalar(res)}
                      for pair, ok, res in results]})
    measured = []
    for spec in extras["measures"]:
        values = fig.measure(spec["a"], spec["b"], spec["quantity"])
        measured.append({
            "a": spec["a"], "b": spec["b"], "quantity": spec["quantity"],
            "values": [{"instances": list(pair), "value": format_scalar(v)}
                       for pair, v in values]})
    lines = [",".join("true" if v else "false" for v in verdicts)]
    for m in measured:
        vals = "; ".join(v["value"] for v in m["values"])
        lines.append(f"{m['quantity']}({m['a']}, {m['b']}) = {vals}")
    _report(args, {"checks": details, "measures": measured}, lines)
    return OK if all(verdicts) else FAIL


def _viewport(args) -> Viewport:
    kw = {}
    if args.viewport:
        kw.update(zip(("umin", "umax", "vmin", "vmax"), args.viewport))
    if args.size:
        kw["width"], kw["height"] = args.size
    return Viewport(**kw)


def cmd_figure_render(args) -> int:
    fig, _ = _build_figure(args)
    _emit(render_figure(fig, _viewport(args), labels=args.labels), args.out)
    return OK


def cmd_contfrac(args) -> int:
    try:
        cf = ContinuedFraction.parse(args.cf)
    except ValueError as err:
        raise CliError(f"bad continued fraction: {err}")
    steps = args.steps if args.steps is not None else len(cf.terms)
    try:
        pairs = convergents(cf, steps)
        ch = chain(cf, steps, args.arrangement)
    except InvalidCF as err:
        raise CliError(str(err))
    report = seidel_stern_check(ch)
    # arrangement 1 makes consecutive horocycles touch, 2 and 3 make them
    # meet at right angles
    expected_zero = (tangency_residual if args.arrangement == "tangent"
                     else orthogonality_residual)
    residuals = [expected_zero(prev, here)
                 for prev, here in zip(ch.horocycles, ch.horocycles[1:])]
    payload = {
        "cf": args.cf,
        "arrangement": args.arrangement,
        "convergents": [[format_scalar(p), format_scalar(q)] for p, q in pairs],
        "residuals": [format_scalar(r) for r in residuals],
        "nested": report.nested,
        "converges": report.converges,
    }
    if args.svg:
        _emit(render_chain(ch, _viewport(args)), args.svg)
    lines = [f"{args.cf} [{args.arrangement}]"]
    for p, q in pairs:
        value = quotient((p, q))
        shown = "oo" if value is None else format_scalar(value)
        lines.append(f"  {format_scalar(p)}/{format_scalar(q)} = {shown}")
    lines.append("step residuals: "
                 + ", ".join(format_scalar(r) for r in residuals))
    lines.append(f"nested: {report.nested}  converges: {report.converges}")
    _report(args, payload, lines)
    return OK


def _endpoint(text: str):
    if text in ("inf", "oo"):
        raise CliError("infinite endpoints are not supported here")
    try:
        return parse_scalar(text, "exact")
    except ValueError as err:
        raise CliError(f"bad endpoint {text!r}: {err}")


def cmd_poincare(args) -> int:
    pairs = []
    for spec in args.pairs:
        if ":" not in spec:
            raise CliError(f"pair {spec!r} must look like x:y")
        x, y = spec.split(":", 1)
        pairs.append((_endpoint(x), _endpoint(y)))
    try:
        kind, disc = classify_intervals(pairs)
        tau, cycle = extension_from_triple(pairs)
    except ValueError as err:
        raise CliError(f"bad triple: {err}", DEGENERATE)
    point = extension_point(cycle)
    # reported as (n, l, k, m) = (l_2, l_1, k, m), first nonzero entry 1
    form = canonical_row((cycle.l[1], cycle.l[0], cycle.k, cycle.m), 1e-14)
    payload = {
        "kind": kind,
        "tau": tau,
        "discriminant": format_scalar(disc),
        "form": [format_scalar(v) for v in form],
        "point": None if point is None else [format_scalar(c) for c in point],
    }
    at = "boundary (infinity)" if point is None else \
        "(" + ", ".join(payload["point"]) + ")"
    _report(args, payload, [f"{kind} (tau {tau}), extension point {at}"])
    return OK


def _coords(text: str, n: int = 2):
    parts = text.split(",")
    if len(parts) != n:
        raise CliError(f"expected {n} comma-separated coordinates, "
                       f"got {text!r}")
    return tuple(_endpoint(p) for p in parts)


def _ninepoint_payload(result) -> dict:
    return {
        "verdict": result.verdict,
        "kind": result.kind,
        "conic": [format_scalar(v) for v in result.conic.canonical().row()],
        "points": {lab: None if pt is None else
                   [format_scalar(c) for c in pt]
                   for lab, pt in sorted(result.points.items())},
    }


def cmd_ninepoint(args) -> int:
    metric = parse_metric(args.metric) if args.metric else None
    if args.random:
        rng = random.Random(args.seed)
        runs = []
        all_true = True
        done = draws = 0
        reason = ""
        while done < args.random and draws < DRAWS_PER_TRIANGLE * args.random:
            draws += 1
            tri = [(Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                    Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
                   for _ in range(3)]
            try:
                res = nine_point_figure(*tri, metric=metric,
                                        arithmetic=args.arith or "exact")
            except DegenerateMetric as err:
                reason = f": {err}"   # no triangle can succeed in this metric
                break
            except Degenerate:
                continue
            runs.append({"triangle": [[format_scalar(c) for c in p]
                                      for p in tri],
                         "verdict": res.verdict, "kind": res.kind})
            all_true = all_true and res.verdict
            done += 1
        if done < args.random:
            raise CliError(f"degenerate configuration: {done} of {args.random}"
                           f" random triangles usable in {draws} draws"
                           f"{reason}", DEGENERATE)
        _report(args, {"runs": runs, "all_true": all_true},
                [f"{done} triangles, all on the conic: {all_true}"])
        return OK if all_true else FAIL
    if not args.triangle:
        raise CliError("provide --triangle or --random")
    a, b, c = (_coords(t) for t in args.triangle)
    n = None if args.n in (None, "inf") else _coords(args.n)
    try:
        res = nine_point_figure(a, b, c, n=n, metric=metric,
                                arithmetic=args.arith or "exact")
    except Degenerate as err:
        raise CliError(f"degenerate configuration: {err}", DEGENERATE)
    if args.svg:
        _emit(render_figure(res.figure, _viewport(args)), args.svg)
    payload = _ninepoint_payload(res)
    conic = ", ".join(payload["conic"])
    _report(args, payload, [f"verdict: {res.verdict}", f"kind: {res.kind}",
                            f"conic: ({conic})"])
    return OK if res.verdict else FAIL


_SIGN_NAMES = {"e": "external", "i": "internal"}


def cmd_apollonius(args) -> int:
    metric = parse_metric(args.metric) if args.metric else Metric.named("e")
    refs = [Cycle.from_row(metric, _coords(t, metric.n + 2))
            for t in args.cycle]
    if any(not any(c.row()) for c in refs):
        raise CliError("the zero row is not a cycle")
    if args.arith == "float":
        refs = [c.as_float() for c in refs]
    if args.signs == "all":
        combos = [a + b + c for a in "ei" for b in "ei" for c in "ei"]
    else:
        combos = args.signs.split(",")
        for combo in combos:
            if len(combo) != 3 or any(s not in "ei" for s in combo):
                raise CliError(f"bad sign combo {combo!r}: "
                               "three letters from e/i")
    branches = []
    for combo in combos:
        rels = [IsTangent(ref, _SIGN_NAMES[s])
                for ref, s in zip(refs, combo)]
        sols = solve(rels, metric, args.arith or "exact")
        entry = {"signs": combo, "status": sols.status, "solutions": []}
        for sol in sols:
            row = sol.canonical().row()
            residuals = [tangency_residual(sol, ref) for ref in refs]
            entry["solutions"].append({
                "row": [format_scalar(v) for v in row],
                "residuals": [format_scalar(r) for r in residuals]})
        branches.append(entry)
    lines = []
    for entry in branches:
        lines.append(f"[{entry['signs']}] {entry['status']}")
        for sol in entry["solutions"]:
            lines.append("  (" + ", ".join(sol["row"]) + ")")
    _report(args, {"branches": branches}, lines)
    return OK


# options that several subcommands read; each subcommand names its own
_COMMON = {
    "metric": dict(help='e, p, h or "p,q,r"'),
    "arith": dict(choices=("exact", "float")),
    "out": dict(help="write output here instead of stdout"),
    "format": dict(choices=("json", "text"), default="text"),
    "viewport": dict(type=float, nargs=4,
                     metavar=("UMIN", "UMAX", "VMIN", "VMAX")),
    "size": dict(type=int, nargs=2, metavar=("WIDTH", "HEIGHT")),
}


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="cyclekit",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = top.add_subparsers(dest="command", required=True)

    def command(name, func, help, *common):
        p = sub.add_parser(name, help=help)
        # read "-3:1" or "-1,0" as a value, not as an unknown option, on
        # every Python: older argparse releases test only for plain numbers
        p._negative_number_matcher = re.compile(r"-\.?\d")
        p.set_defaults(func=func)
        for option in common:
            p.add_argument(f"--{option}", **_COMMON[option])
        return p

    p = command("figure-eval", cmd_figure_eval, "evaluate a figure script",
                "metric", "arith", "out", "format")
    p.add_argument("script")

    p = command("figure-check", cmd_figure_check, "run a script's checks",
                "metric", "arith", "out", "format")
    p.add_argument("script")

    p = command("figure-render", cmd_figure_render,
                "render a figure script to SVG",
                "metric", "arith", "out", "viewport", "size")
    p.add_argument("script")
    p.add_argument("--labels", action="store_true")

    p = command("contfrac", cmd_contfrac,
                "convergents and horocycle chain of a fraction",
                "out", "format", "viewport", "size")
    p.add_argument("--cf", required=True, help='like "3;7,15,1,292"')
    p.add_argument("--steps", type=int)
    p.add_argument("--arrangement", default="tangent",
                   choices=ARRANGEMENTS)
    p.add_argument("--svg", help="also write the chain as SVG here")

    p = command("poincare", cmd_poincare,
                "classify an aligned triple and extend it", "out", "format")
    p.add_argument("--pairs", nargs=3, required=True, metavar="X:Y")

    p = command("ninepoint", cmd_ninepoint, "nine-point conic of a triangle",
                "metric", "arith", "out", "format", "viewport", "size")
    p.add_argument("--triangle", nargs=3, metavar="X,Y")
    p.add_argument("--n", help='finite stand-in point "u,v" or "inf"')
    p.add_argument("--random", type=int, metavar="K",
                   help="run K random rational triangles instead")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--svg", help="also write the figure as SVG here")

    p = command("apollonius", cmd_apollonius,
                "cycles tangent to three given cycles",
                "metric", "arith", "out", "format")
    p.add_argument("--cycle", nargs=3, required=True, metavar="K,L1,L2,M")
    p.add_argument("--signs", default="all",
                   help='comma-separated combos of e/i, or "all"')
    return top


# exit code of each exception a handler may raise; a CliError names its own
_EXIT_CODES = {TooManyInstances: OVERFLOW, BranchOverflow: OVERFLOW,
               Degenerate: DEGENERATE, RadicalClash: PARSE}


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        try:
            comparison_eps()
        except ValueError as err:
            raise CliError(str(err))
        return args.func(args)
    except (CliError, *_EXIT_CODES) as err:
        if isinstance(err, RadicalClash):
            err = CliError(f"mixed radicals stay out of reach of exact "
                           f"arithmetic ({err}); rerun with --arith float")
        print(f"error: {err}", file=sys.stderr)
        if isinstance(err, CliError):
            return err.code
        return next(code for kind, code in _EXIT_CODES.items()
                    if isinstance(err, kind))


if __name__ == "__main__":
    sys.exit(main())
