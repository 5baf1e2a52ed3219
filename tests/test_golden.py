"""Byte-identity of report-v1 JSON and SVG output across refactors.

The exact-mode hashes were recorded from the CLI before the scalar-layer
cleanup (one lift, one 2x2 matrix, one orthogonality relation), the
float-mode ones before the tolerance helpers were merged into
``numerics``.  The branch-stage hash covers the solver's own output,
float rows of demoted answers included; it was recorded before the sign
patterns of an exact solve shared one elimination.  A change that moves
any of them changes user-visible output and must say so.
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
from cyclekit.figure import (INFINITY, REAL_LINE, Figure, is_point,
                             only_reals, orthogonal, tangent, through)
from cyclekit.numerics import QuadExt
from cyclekit.relations import (IsOrthogonal, IsTangent, PassesThrough,
                                SteinerPower, solve)
from cyclekit.render import Viewport, render_cycle

CF = "3;7,15,1,292,1,1"
BRANCH_STAGE_SHA = (
    "99df7cfea3e89af6b7e313f5500df9e3c5f7fc6993ef77cc58b0dfbf16f146b1")

# (argv, sha256 of stdout, sha256 of the --svg side output or None);
# SCRIPT and SVG are replaced by paths under tmp_path
RUNS = [
    (["ninepoint", "--triangle", "0,0", "4,0", "1,3", "--format", "json",
      "--svg", "SVG"],
     "5909051455b1b0d57d1b23aa2f0b80c8cfa62017f251091371caf1c4140ff3ac",
     "19e732cd8a58c131f44185c38ea6ab2216095a29ca25b36a2ac5b8b4f8ef2c9b"),
    (["ninepoint", "--triangle", "0,0", "4,0", "1,2", "--metric", "h",
      "--format", "json", "--svg", "SVG"],
     "4696ab5c4d5ef77db82cc2e1157b1b00eddad36e07dcc5fc36930804e348d5e7",
     "4d9f98d79dde1edc04245aca2a1092198df66ade06d321a642f9614531d41f2b"),
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
     "d89178e14671e684c8e86fc5c8681ff150c9abb1cb7ad379a2c1009e8e67b27e",
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
     "53128fdec6cf6fe3d317dd66773e0d84a0cd835c3428b560da269260cc66837c",
     None),
    (["ninepoint", "--triangle", "0,0", "4,0", "1,2", "--metric", "h",
      "--arith", "float", "--format", "json"],
     "0cf986822b1be1cfbb60fa912b727b3ac5a809aaa8aec448728c1ea0ff24e6f4",
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


def _tangency_solves():
    """Seeded relation systems on the branch stage: 300 three-tangency
    solves on rational circles of radius s and s*sqrt(2) interleaved (the
    first pin sqrt(2) and mostly demote, the second stay rational), a few
    whose reference rows hold a QuadExt entry, and power solves."""
    E = Metric.named("e")
    for i in range(300):
        rng = random.Random(f"golden-tangency:{i}")
        circles = []
        for _ in range(3):
            centre = (Fraction(rng.randint(-24, 24), rng.randint(1, 4)),
                      Fraction(rng.randint(-24, 24), rng.randint(1, 4)))
            s = Fraction(rng.randint(1, 6), rng.randint(1, 3))
            circles.append(Cycle.circle(E, centre, (1 + i % 2) * s * s))
        yield E, [IsTangent(c) for c in circles]
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


def _outcome(sol):
    """Everything a solve reports, floats by their repr."""
    rows = lambda cycles: [repr(c.row()) for c in cycles]
    return [sol.status, rows(sol.cycles), repr(sol.provenance),
            sol.demoted, sol.notes, sol.reason,
            rows([sol.base] if sol.base is not None else []),
            rows(sol.span), sol.residual_demand]


def test_branch_stage_output_is_byte_identical():
    # the digests in CI hash exact rows only; this hashes the float rows
    # of demoted answers too, in exact and float mode
    out = []
    for metric, rels in _tangency_solves():
        for mode in ("exact", "float"):
            try:
                out.append(_outcome(solve(rels, metric, mode)))
            except ArithmeticError as err:
                out.append([type(err).__name__, str(err)])
    text = json.dumps(out)
    assert sum(o[3:4] == [True] for o in out) > 100     # demoted answers
    assert sha(text.encode()) == BRANCH_STAGE_SHA
