"""Byte-identity of report-v1 JSON and SVG output across refactors.

The exact-mode hashes were recorded from the CLI before the scalar-layer
cleanup (one lift, one 2x2 matrix, one orthogonality relation), the
float-mode ones before the tolerance helpers were merged into
``numerics``.  The branch-stage hashes cover the solver's own output,
float rows of demoted answers included, one per arithmetic mode; they
were recorded before the demand was scaled to the references' square
class, which moved only the exact-mode ones.  The rational-solve
hash covers the result types of exact solves (``Fraction(3)`` and ``3``
hash apart); it was recorded before verification ran on primitive int
rows.  The mixed-solve hashes cover every relation kind over two
radicands in four metrics, float mode's multi-pattern linear stage and
RadicalClash messages, one per mode, recorded as the branch-stage ones
were.  A change that moves any of them changes user-visible output and
must say so.
"""

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction

import pytest

from cyclekit.cli import main
from cyclekit.cycle import Cycle, Metric
from cyclekit.figure import (INFINITY, REAL_LINE, Degenerate, Figure,
                             is_point, nine_point_figure, only_reals,
                             orthogonal, tangent, through)
from cyclekit.numerics import QuadExt, format_scalar
from cyclekit.relations import (InversiveDistance, IsFlat,
                                IsLobachevskyLine, IsOrthogonal, IsPoint,
                                IsTangent, PassesThrough, SteinerPower, solve)
from cyclekit.render import Viewport, render_cycle

CF = "3;7,15,1,292,1,1"
BRANCH_STAGE_SHA = {
    "exact":
        "ce703656831ccad96bc693c2c250d00eab4d0c5719e3cbf1b39739a4ae06239b",
    "float":
        "63a47d00efc81d29333e3b75c9ebb7d35f0bb6d8ceb81d5ded54845132dc9507"}
RATIONAL_SOLVE_SHA = (
    "b40e96275ac44d02245ca2d9d2374a50b17c4cf2b4ef3fb8ab8b65a5d8088972")
MIXED_SOLVE_SHA = {
    "exact":
        "d44ae041a858cab5b979bb617681b6c981e77bcf0f84a15e8898949ce04ac1e0",
    "float":
        "dea1bd13b00166d365ebe81047cb2bf26b9d44606cfa2991addc2c0bb888d7ad"}
NINE_POINT_ROWS_SHA = (
    "57c8d379b3b4d9fc6dc297d73789823b174966eb1a0405348c6af78ad01612c8")

# (argv, sha256 of stdout, sha256 of the --svg side output or None);
# SCRIPT and SVG are replaced by paths under tmp_path
RUNS = [
    (["ninepoint", "--triangle", "0,0", "4,0", "1,3", "--format", "json",
      "--svg", "SVG"],
     "5909051455b1b0d57d1b23aa2f0b80c8cfa62017f251091371caf1c4140ff3ac",
     "8558122642f7fe15378cbc39a04e51546eb0c4e681ff6fc8df03f08750306224"),
    (["ninepoint", "--triangle", "0,0", "4,0", "1,2", "--metric", "h",
      "--format", "json", "--svg", "SVG"],
     "4696ab5c4d5ef77db82cc2e1157b1b00eddad36e07dcc5fc36930804e348d5e7",
     "e2f0c4300f9cbc9a2ea933b8f7b6922055efd9c279a9198d48cdcd3172277453"),
    (["contfrac", "--cf", CF, "--arrangement", "orthogonal",
      "--format", "json", "--svg", "SVG"],
     "b9a100199f1e5521bd7aea70524d46f77d2934d7a622f21cfcc164eac4928c46",
     "541797f10c92a34642419c0f23ad44fb6daba6cff768a36cdbbf1599e6d0ba2f"),
    (["contfrac", "--cf", CF, "--arrangement", "ortho45",
      "--format", "json", "--svg", "SVG"],
     "560b7b3fa213abb289b3b477a70c1ea77468903506158fdb77eeb22d92a10389",
     "247812176ba89b4055232a199a035f3fbbd6401d2b88dc682674faa34378665b"),
    (["contfrac", "--cf", CF, "--format", "json", "--svg", "SVG"],
     "1e697589215af27baf9717d13a088f4ee2d231a99dc35dbe50da45c6272f3537",
     "6be46152078f0d0e87f2d779b8747c01ed4322d63070d1283a4aff3976fdfe09"),
    (["poincare", "--pairs", "0:1", "2:3", "5:7", "--format", "json"],
     "93c571e5296f571c1735db748487bbd20a088b0dac4c04e047b5f3314c7a87a2",
     None),
    (["apollonius", "--cycle", "1,0,0,-1", "1,-3,0,8", "1,0,-3,8",
      "--format", "json"],
     "eea7684b68ef14121bbda6519a80a9c2bbd7dc3478721d0f683e0ae829e502dd",
     None),
    (["figure-check", "SCRIPT", "--format", "json"],
     "9b80578d00f8d0987c0b8d8da8c293b13e85727b4687c21d489746b4bf817b52",
     None),
    (["figure-render", "SCRIPT", "--labels"],
     "4903f120f05674d91a821bc4a206fcfb5def4c44c232741955ab2b34bf6c2178",
     None),
    # float mode: every tolerance decision of the solver, the quadratic
    # stage and the figure validator lies on these paths
    (["apollonius", "--cycle", "1,0,0,-1", "1,-3,0,8", "1,0,-3,8",
      "--arith", "float", "--format", "json"],
     "4d9c09f63f0bdde7a1ca2cfb07c07db2b2cab62ccdddc3077143baa5e3c6c9af",
     None),
    (["ninepoint", "--triangle", "0,0", "4,0", "1,3", "--arith", "float",
      "--format", "json"],
     "98b2051760497d04c5f5bf5fa563392c556888fc2eb0035d1a294680a88b7956",
     None),
    (["ninepoint", "--triangle", "0,0", "4,0", "1,2", "--metric", "h",
      "--arith", "float", "--format", "json"],
     "649089ab41bdb6d87996259bbd5f4599e7d0aa8a1ac49ea2d5c34545f37ccf8f",
     None),
    (["ninepoint", "--random", "8", "--seed", "3", "--arith", "float",
      "--format", "json"],
     "0749a02e7fcd6a09fce3d77a22982f08e780d283973263399dae2ba7273d7121",
     None),
    (["figure-eval", "SCRIPT", "--arith", "float", "--format", "json"],
     "e8c93983f1d21182105f9c5147b6fc43c809bbbf556f2899fc85a67202bf282b",
     None),
]


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def touch_script(path):
    """Two concentric circles, tangent lines and orthogonal circles, with
    checks and all three measured quantities."""
    fig = Figure()
    fig.add_cycle((1, 0, 0, -1), "a")
    fig.add_cycle((1, 0, 0, -4), "b")
    fig.add_cycle_rel([tangent("a"), orthogonal(INFINITY), only_reals()],
                      "l", pins=[orthogonal(REAL_LINE)])
    fig.add_cycle_rel([orthogonal("a"), orthogonal("l"), is_point(),
                       only_reals()], "C")
    fig.add_cycle_rel([orthogonal("C"), orthogonal("a")], "r",
                      pins=[through(1, 2)])
    obj = fig.to_obj()
    obj["checks"] = [{"a": "l", "b": "r", "kind": "orthogonal"},
                     {"a": "C", "b": "a", "kind": "orthogonal"}]
    obj["measures"] = [
        {"a": "a", "b": "b", "quantity": "inversive_distance"},
        {"a": "l", "b": "r", "quantity": "normalized_product"},
        {"a": "a", "b": "C", "quantity": "steiner_power"}]
    path.write_text(json.dumps(obj))


@pytest.mark.parametrize("argv, out_hash, svg_hash", RUNS,
                         ids=[f"{r[0][0]}-{i}" for i, r in enumerate(RUNS)])
def test_cli_output_is_byte_identical(tmp_path, argv, out_hash, svg_hash):
    script, svg = tmp_path / "touch.json", tmp_path / "out.svg"
    touch_script(script)
    subst = {"SCRIPT": str(script), "SVG": str(svg)}
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main([subst.get(a, a) for a in argv])
    assert code == 0
    assert sha(buf.getvalue().encode()) == out_hash
    if svg_hash is not None:
        assert sha(svg.read_bytes()) == svg_hash


def test_line_elements_are_byte_identical():
    # flat rows, vertical parabola pairs and hyperbola asymptotes all
    # draw <line> elements; hash them in all three metrics
    rows = [(0, 1, 2, 3), (0, 0, 1, 0), (0, 1, 0, -2), (1, 2, 0, 3),
            (1, 2, 0, 4), (1, 2, 0, 5), (1, 1, 1, 0), (1, 0, 0, 0),
            (1, 3, 3, 0), (2, 1, -1, 0), (1, 1, 2, 3), (0, 3, 0, 100)]
    vp = Viewport()
    out = [render_cycle(Cycle.from_row(Metric.named(name), row), vp,
                        dashed=dashed, cls="boundary")
           for name in "eph" for row in rows for dashed in (False, True)]
    text = "\n".join(out)
    assert text.count("<line") == 46
    assert sha(text.encode()) == \
        "f9d257217932c5122d7682f4d3c20a5caea0e18fc3e4740e5d79db0f366a0aaf"


def _tangency_circles(E, rng, factors):
    """Three circles about random rational centres, of radius^2 f s^2 for
    each f of ``factors``, s a random rational."""
    circles = []
    for f in factors:
        centre = (Fraction(rng.randint(-24, 24), rng.randint(1, 4)),
                  Fraction(rng.randint(-24, 24), rng.randint(1, 4)))
        s = Fraction(rng.randint(1, 6), rng.randint(1, 3))
        circles.append(Cycle.circle(E, centre, f * s * s))
    return circles


def _tangency_solves():
    """Seeded relation systems on the branch stage: 300 three-tangency
    solves on rational circles of radius s and s*sqrt(2) interleaved (one
    square class each, so an exact solve stays in one Q(sqrt d)), a few
    whose reference rows hold a QuadExt entry, power solves, and 300
    three-tangency solves whose circles lie in two square classes, radius^2
    s^2 and 3 s^2 / 2: their builds pin a radical, and most demote."""
    E = Metric.named("e")
    for i in range(300):
        rng = random.Random(f"golden-tangency:{i}")
        yield E, [IsTangent(c) for c in
                  _tangency_circles(E, rng, [1 + i % 2] * 3)]
    r3 = QuadExt(0, 1, 3)
    for k, l2, m in ((1, r3, 2), (1, r3, 3), (1, QuadExt(1, 1, 2), 0)):
        refs = [Cycle(E, 1, (1, 0), 0), Cycle(E, 1, (-1, 0), 0),
                Cycle(E, k, (0, l2), m)]
        yield E, [IsTangent(c) for c in refs]
    yield E, [IsTangent(Cycle(E, 1, (0, r3), 2)), IsOrthogonal(
        Cycle(E, 0, (0, 1), 0)), IsTangent(Cycle(E, 1, (4, r3), 18))]
    yield E, [SteinerPower(Cycle.circle(E, (0, 0), 1), Fraction(3)),
              SteinerPower(Cycle.circle(E, (5, 1), 2), Fraction(1, 2)),
              PassesThrough(E, (Fraction(1), Fraction(2)))]
    for i in range(300):
        rng = random.Random(f"golden-tangency-classes:{i}")
        factors = [Fraction(3, 2) if j == i % 3 else 1 for j in range(3)]
        yield E, [IsTangent(c) for c in _tangency_circles(E, rng, factors)]


def _outcome(sol):
    """Everything a solve reports, floats by their repr."""
    rows = lambda cycles: [repr(c.row()) for c in cycles]
    return [sol.status, rows(sol.cycles), repr(sol.provenance),
            sol.demoted, sol.notes, sol.reason,
            rows([sol.base] if sol.base is not None else []),
            rows(sol.span), sol.residual_demand]


def _mode_outcomes(systems):
    """:func:`_outcome` of every system in exact and in float mode, or the
    ArithmeticError it raised, by mode."""
    out = {"exact": [], "float": []}
    for metric, rels in systems:
        for mode, outcomes in out.items():
            try:
                outcomes.append(_outcome(solve(rels, metric, mode)))
            except ArithmeticError as err:
                outcomes.append([type(err).__name__, str(err)])
    return out


def _mode_hashes(out):
    return {mode: sha(json.dumps(outcomes).encode())
            for mode, outcomes in out.items()}


def test_branch_stage_output_is_byte_identical():
    # the digests in CI hash exact rows only; this hashes the float rows
    # of demoted answers too, in exact and float mode
    out = _mode_outcomes(_tangency_solves())
    assert sum(o[3:4] == [True] for o in out["exact"]) > 100   # demoted
    assert _mode_hashes(out) == BRANCH_STAGE_SHA


# directions (u, v) with u^2 + v^2 = 2 w^2, as ((u, v), w): a step of
# t*sqrt(2) along one is a rational step of t/w in each coordinate
_DIRS = (((1, 1), 1), ((1, -1), 1), ((-1, 1), 1), ((-1, -1), 1),
         ((7, 1), 5), ((1, 7), 5), ((-7, 1), 5), ((1, -7), 5))


def _through(metric, a, b, k, t):
    """A cycle (k, l, m) through the points a and b, l_1 = t when a and
    b differ in their second coordinate: (k, l, m) passes through x when
    m = sum 2 l_i x_i + k eta_i x_i^2 (point metric)."""
    e = metric.point_eta
    f = lambda l, x: sum(2 * li * xi + k * ei * xi * xi
                         for li, ei, xi in zip(l, e, x))
    gap = k * sum(ei * (bi * bi - ai * ai) for ei, ai, bi in zip(e, a, b))
    d1, d2 = a[0] - b[0], a[1] - b[1]
    if d2:
        l = (t, (gap - 2 * t * d1) / (2 * d2))
    elif d1:
        l = (gap / (2 * d1), t)
    else:
        l = (t, t)
    return Cycle(metric, k, l, f(l, a))


def _rational_solves():
    """Seeded exact solves on rational data, 300 of them in five kinds:
    three orthogonality relations (to cycles, points, infinity or the real
    line) in e, h and p; two orthogonality relations plus IsPoint in e and
    h -- two circles through two shared points, a point on a circle (a
    double root), one orthogonality twice, random references (irrational
    roots too); and three tangent, inversive-distance and power relations
    around a circle X of radius rho*sqrt(2) against references of radius
    s*sqrt(2), X among the answers, so the demand's roots at X are
    rational and the sign tests of the tangency variants, the inversive
    distance and the power decide."""
    E, H, P = Metric.named("e"), Metric.named("h"), Metric.named("p")
    for i in range(300):
        rng = random.Random(f"golden-rational:{i}")
        q = lambda lo, hi, den=3: Fraction(rng.randint(lo, hi),
                                           rng.randint(1, den))
        pt = lambda: (q(-6, 6), q(-6, 6))
        kind = i % 5
        if kind == 0:
            metric = (E, H, P)[i // 5 % 3]
            rels = []
            for _ in range(3):
                pick = rng.randrange(4)
                if pick == 0 and metric is not P:
                    rels.append(PassesThrough(metric, pt()))
                elif pick == 1:
                    rels.append(rng.choice((IsFlat(metric),
                                            IsLobachevskyLine(metric))))
                else:
                    rels.append(IsOrthogonal(Cycle(
                        metric, q(-4, 4), (q(-9, 9), q(-9, 9)), q(-20, 20))))
        elif kind == 1:
            metric = (E, H)[i // 5 % 2]
            a, b = pt(), pt()
            shape = i // 10 % 4
            if shape == 0:
                rels = [IsOrthogonal(_through(metric, a, b, k, q(-6, 6)))
                        for k in (0, 1)]
            elif shape == 1:
                rels = [PassesThrough(metric, a), IsOrthogonal(
                    _through(metric, a, b, 1, q(-6, 6)))]
            elif shape == 2:
                c = Cycle(metric, q(-3, 3), pt(), q(-9, 9))
                rels = [IsOrthogonal(c), IsOrthogonal(c.scaled(q(-3, -1)))]
            else:
                rels = [IsOrthogonal(Cycle(metric, q(-3, 3), pt(),
                                           q(-9, 9))) for _ in range(2)]
            rels.insert(rng.randrange(3), IsPoint(metric))
        else:
            metric = E
            cx, rho = pt(), q(1, 6)
            X = Cycle.circle(E, cx, 2 * rho * rho)
            rels = []
            for j in range(3):
                (u, v), w = rng.choice(_DIRS)
                s = q(1, 6)
                t = (abs(rho - s) if rng.random() < 0.5 and s != rho
                     else rho + s) / w
                ref = Cycle.circle(E, (cx[0] + u * t, cx[1] + v * t),
                                   2 * s * s)
                what = (kind + j) % 3
                if what == 0:
                    rels.append(IsTangent(ref, rng.choice(
                        ("both", "external", "internal"))))
                elif what == 1:
                    theta = X.product(ref) / (4 * rho * s)
                    rels.append(InversiveDistance(
                        ref, theta * rng.choice((1, 1, -1))))
                else:
                    # X over 2 rho has <x,x> = -1; its power against ref
                    x = X.scaled(1 / (2 * rho))
                    rk = ref.scaled(Fraction(1, ref.k))
                    rels.append(SteinerPower(ref, (x.product(rk) + 2 * s)
                                             / x.k))
        yield metric, rels


def test_rational_solve_output_is_byte_identical():
    # the CI digests hash format_scalar text, which reads Fraction(3) and
    # 3 alike; the reprs here tell them apart
    out = [_outcome(solve(rels, metric)) for metric, rels in
           _rational_solves()]
    rows = [row for o in out for row in o[1]]
    assert sum("QuadExt" not in row for row in rows) > 200   # rational
    assert not any(o[3] for o in out)                        # none demoted
    assert sum(o[0] == "parametric" for o in out) > 20
    assert sha(json.dumps(out).encode()) == RATIONAL_SOLVE_SHA


_ROOTS = {d: QuadExt(0, 1, d) for d in (2, 3, 5)}
_RADICANDS = ((), (2,), (3,), (5,), (2, 3), (3, 5), (2, 5))


def _mixed_solves():
    """Seeded systems of every relation kind, 1,600 of them, in e, h, p
    and signature (3,0,0) in turn: n + 1 row-bearing relations (tangent,
    orthogonal, inversive distance, power, through a point, IsFlat) plus
    any IsPoint drawn among them.  Each reference is over at most one of
    the system's radicands (none, one or two of sqrt 2, sqrt 3 and
    sqrt 5), an entry of it irrational one time in five; so a tangency
    rhs is a root in or outside a reference's field, and a system over
    two radicands raises RadicalClash or demotes."""
    metrics = (Metric.named("e"), Metric.named("h"), Metric.named("p"),
               Metric.from_signature(3))
    for i in range(1600):
        rng = random.Random(f"golden-mixed:{i}")
        metric = metrics[i % 4]
        n = metric.n
        q = lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 3))
        rads = _RADICANDS[rng.randrange(len(_RADICANDS))]

        def entry(d):
            if d and rng.random() < 0.2:
                return q() + q() * _ROOTS[d]
            return q()

        def ref():
            d = rng.choice(rads) if rads else 0
            return Cycle(metric, rng.choice((1, 1, 0, entry(d))),
                         [entry(d) for _ in range(n)], entry(d))

        rels, rows = [], 0
        while rows < n + 1:
            pick = rng.randrange(9)
            rows += pick != 7
            if pick < 3:
                rels.append(IsTangent(ref(), rng.choice(
                    ("both", "both", "external", "internal"))))
            elif pick == 3:
                rels.append(IsOrthogonal(ref()))
            elif pick == 4:
                rels.append(InversiveDistance(ref(), rng.choice(
                    (0, Fraction(1, 2), -1, 2, q()))))
            elif pick == 5:
                r = ref()
                rels.append(SteinerPower(r, q()) if r.k else IsFlat(metric))
            elif pick == 6:
                rels.append(PassesThrough(metric, ref().l))
            elif pick == 7:
                rels.append(IsPoint(metric))
            else:
                rels.append(IsFlat(metric))
        yield metric, rels


def test_mixed_solve_output_is_byte_identical():
    # float systems with several signed rows, systems over two radicands
    # and rational rows with a Q(sqrt d) rhs, in exact and float mode
    out = _mode_outcomes(_mixed_solves())
    both = out["exact"] + out["float"]
    kinds = [o[0] for o in both]
    assert kinds.count("RadicalClash") > 50
    assert kinds.count("finite") > 500 and kinds.count("parametric") > 100
    assert sum(o[3:4] == [True] for o in both) > 300    # demoted answers
    assert _mode_hashes(out) == MIXED_SOLVE_SHA


def _nine_point_triangles():
    rng = random.Random(32)
    fixed = [((0, 0), (4, 0), (1, 3)), ((0, 0), (4, 0), (1, 2)),
             ((0, 0), (4, 0), (0, 3)),           # right angle at A
             ((1, 1), (4, 1), (4, 5)),           # right angle at B
             ((0, 0), (1, 0), (2, 0)),           # collinear
             ((0, 0), (1, 0), (0, 0))]           # repeated vertex
    return fixed + [tuple((Fraction(rng.randint(-8, 8), rng.randint(1, 3)),
                           Fraction(rng.randint(-8, 8), rng.randint(1, 3)))
                          for _ in range(3)) for _ in range(30)]


def nine_point_rows_digest() -> str:
    """sha256 over every exact node row of the nine-point figures of
    ``_nine_point_triangles`` in e and h, n at infinity and at (1/3,
    -2/5): each entry's type and text, the verdict and the kind.  A
    Degenerate outcome is hashed without its node label, the one part of
    it that names a ``line_*`` node."""
    h = hashlib.sha256()
    for metric in (Metric.named("e"), Metric.named("h")):
        for n in (None, (Fraction(1, 3), Fraction(-2, 5))):
            for tri in _nine_point_triangles():
                try:
                    res = nine_point_figure(*tri, n=n, metric=metric)
                except Degenerate as err:
                    h.update(f"Degenerate {str(err).split(': ', 1)[1]}\n"
                             .encode())
                    continue
                fig = res.figure
                for lab in fig.labels():
                    if lab.startswith("line_"):
                        continue
                    for c in fig.instances(lab):
                        row = " ".join(f"{type(v).__name__}:{format_scalar(v)}"
                                       for v in c.row())
                        h.update(f"{lab} {row}\n".encode())
                h.update(f"{res.verdict} {res.kind}\n".encode())
    return h.hexdigest()


def test_nine_point_rows_are_byte_identical():
    # exact rows in value and entry type, across e and h and both n
    assert nine_point_rows_digest() == NINE_POINT_ROWS_SHA
