import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cyclekit
from cyclekit import cli
from cyclekit.cli import main
from cyclekit.figure import (INFINITY, REAL_LINE, Figure, inversive,
                             is_point, nine_point_figure, only_reals,
                             orthogonal, tangent, through)


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def touch_script(tmp_path, checks=True, measures=False, max_instances=None):
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
    if checks:
        obj["checks"] = [{"a": "l", "b": "r", "kind": "orthogonal"},
                         {"a": "C", "b": "a", "kind": "orthogonal"}]
    if measures:
        obj["measures"] = [{"a": "a", "b": "b",
                            "quantity": "inversive_distance"}]
    if max_instances:
        obj["max_instances"] = max_instances
    path = tmp_path / "touch.json"
    path.write_text(json.dumps(obj))
    return str(path)


class TestFigureEval:
    def test_touch_script(self, capsys, tmp_path):
        code, out, _ = run(capsys, "figure-eval", touch_script(tmp_path))
        assert code == 0
        assert "l: gen 1 solved" in out
        assert "r: gen 3 solved" in out

    def test_json_report(self, capsys, tmp_path):
        code, out, _ = run(capsys, "figure-eval", touch_script(tmp_path),
                           "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["format"] == "report-v1"
        statuses = {n["label"]: n["status"] for n in report["nodes"]}
        assert statuses["C"] == "solved"
        assert report["violations"] == []

    def test_empty_script(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(
            {"format": "figure-v1", "metric": "e", "nodes": []}))
        code, out, _ = run(capsys, "figure-eval", str(path))
        assert code == 0

    def test_unknown_label_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"format": "figure-v1", "metric": "e", "nodes": [
                {"label": "x", "kind": "rel",
                 "relations": [{"rel": "orthogonal", "parent": "ghost"}]}]}))
        code, _, err = run(capsys, "figure-eval", str(path))
        assert code == 2
        assert "ghost" in err

    def test_malformed_json_exits_2_with_location(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"format": "figure-v1",,}')
        code, _, err = run(capsys, "figure-eval", str(path))
        assert code == 2
        assert ":1:" in err

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "figure-eval",
                           str(tmp_path / "nope.json"))
        assert code == 2

    def test_radical_clash_exits_2(self, capsys, tmp_path):
        # b's row holds sqrt(3) and the tangency rows take sqrt(2)
        rows = {"a": ("1", "0", "0", "-1"), "b": ("1", "1", "0+1*sqrt(3)", "2"),
                "c": ("1", "5", "0", "23")}
        nodes = [{"label": lab, "kind": "cycle",
                  "row": {"k": k, "l": [l1, l2], "m": m}}
                 for lab, (k, l1, l2, m) in rows.items()]
        nodes.append({"label": "x", "kind": "rel", "relations": [
            {"rel": "tangent", "parent": lab, "variant": "both"}
            for lab in rows]})
        path = tmp_path / "clash.json"
        path.write_text(json.dumps({"format": "figure-v1", "metric": "e",
                                    "arithmetic": "exact", "nodes": nodes}))
        code, _, err = run(capsys, "figure-eval", str(path))
        assert code == 2
        assert "--arith float" in err and "Traceback" not in err
        code, _, _ = run(capsys, "figure-eval", str(path), "--arith", "float")
        assert code == 0

    def test_overflow_exits_3(self, capsys, tmp_path):
        path = touch_script(tmp_path, max_instances=1)
        code, _, err = run(capsys, "figure-eval", path)
        assert code == 3

    def test_sign_branch_overflow_exits_3(self, capsys, tmp_path):
        # tangent to seven disjoint circles: 2^7 sign branches
        fig = Figure()
        fig.freeze()
        for i in range(7):
            fig.add_cycle((1, 5 * i, 0, 25 * i * i - 1), f"c{i}")
        fig.add_cycle_rel([tangent(f"c{i}") for i in range(7)], "x")
        obj = fig.to_obj()
        obj["mode"] = "unfreeze"
        path = tmp_path / "seven.json"
        path.write_text(json.dumps(obj))
        code, _, err = run(capsys, "figure-eval", str(path))
        assert code == 3
        assert err == "error: 128+ sign branches (cap 64)\n"

    def test_metric_override(self, capsys, tmp_path):
        fig = Figure()
        fig.add_point((1, 2), "P")
        path = tmp_path / "pt.json"
        path.write_text(json.dumps(fig.to_obj()))
        code, out, _ = run(capsys, "figure-eval", str(path),
                           "--metric", "h")
        assert code == 0
        assert "(1, 1, -2, -3)" in out


    def test_float_parameter_on_exact_data(self, capsys, tmp_path):
        fig = Figure()
        fig.freeze()
        fig.add_cycle((1, 0, 0, -1), "a")
        fig.add_cycle_rel([inversive("a", -0.5), orthogonal(REAL_LINE),
                           through(0, 2)], "w")
        obj = fig.to_obj()
        obj["mode"] = "unfreeze"
        assert obj["nodes"][1]["relations"][0]["theta"] == -0.5
        path = tmp_path / "theta.json"
        path.write_text(json.dumps(obj))
        code, out, _ = run(capsys, "figure-eval", str(path))
        assert code == 0
        assert "w: gen 1 solved" in out

    def test_nine_point_reflection_nodes(self, capsys, tmp_path):
        # a figure-v1 document carries each midpoint as a reflection node
        fig = nine_point_figure((0, 0), (4, 0), (1, 3)).figure
        path = tmp_path / "nine.json"
        path.write_text(fig.to_json())
        code, out, _ = run(capsys, "figure-eval", str(path),
                           "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["violations"] == []
        nodes = {n["label"]: n for n in report["nodes"]}
        mid = nodes["mid_BC"]
        assert (mid["kind"], mid["status"]) == ("reflection", "solved")
        assert mid["instances"] == [["1", "5/2", "3/2", "17/2"]]   # (5/2, 3/2)
        assert sum(n["kind"] == "reflection" for n in nodes.values()) == 6


class TestFigureCheck:
    def test_touch_checks_both_true(self, capsys, tmp_path):
        code, out, _ = run(capsys, "figure-check", touch_script(tmp_path))
        assert code == 0
        assert out.splitlines()[0] == "true,true"

    def test_failing_check_exits_1(self, capsys, tmp_path):
        path = touch_script(tmp_path, checks=False)
        obj = json.loads(Path(path).read_text())
        obj["checks"] = [{"a": "l", "b": "a", "kind": "orthogonal"}]
        Path(path).write_text(json.dumps(obj))
        code, out, _ = run(capsys, "figure-check", path)
        assert code == 1
        assert out.splitlines()[0] == "false"

    def test_no_checks_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "figure-check",
                           touch_script(tmp_path, checks=False))
        assert code == 2

    def test_measures_are_reported(self, capsys, tmp_path):
        path = touch_script(tmp_path, measures=True)
        code, out, _ = run(capsys, "figure-check", path)
        assert code == 0
        assert "inversive_distance(a, b) = -5/4" in out

    def test_json_details(self, capsys, tmp_path):
        code, out, _ = run(capsys, "figure-check", touch_script(tmp_path),
                           "--format", "json")
        report = json.loads(out)
        assert all(c["verdict"] for c in report["checks"])
        residuals = [p["residual"] for c in report["checks"]
                     for p in c["pairs"]]
        assert set(residuals) == {"0"}


class TestFigureRender:
    def test_svg_to_stdout(self, capsys, tmp_path):
        code, out, _ = run(capsys, "figure-render", touch_script(tmp_path))
        assert code == 0
        assert out.startswith("<svg ")
        assert 'data-label="l"' in out

    def test_deterministic_bytes(self, capsys, tmp_path):
        path = touch_script(tmp_path)
        _, first, _ = run(capsys, "figure-render", path)
        _, second, _ = run(capsys, "figure-render", path)
        assert first == second

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "fig.svg"
        code, out, _ = run(capsys, "figure-render", touch_script(tmp_path),
                           "--out", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("<svg ")

    def test_viewport_flags(self, capsys, tmp_path):
        code, out, _ = run(capsys, "figure-render", touch_script(tmp_path),
                           "--viewport", "-2", "2", "-2", "2",
                           "--size", "200", "100")
        assert code == 0
        assert 'width="200" height="100"' in out


class TestContfrac:
    def test_pi_convergents(self, capsys):
        code, out, _ = run(capsys, "contfrac", "--cf", "3;7,15,1,292",
                           "--steps", "4")
        assert code == 0
        for frac in ("3/1", "22/7", "333/106", "355/113", "103993/33102"):
            assert frac in out

    def test_tangency_residuals_zero(self, capsys):
        code, out, _ = run(capsys, "contfrac", "--cf", "3;7,15,1,292",
                           "--format", "json")
        report = json.loads(out)
        assert set(report["residuals"]) == {"0"}
        assert report["converges"] is True

    def test_orthogonal_arrangement(self, capsys):
        code, out, _ = run(capsys, "contfrac", "--cf", "2;1,2,1,1,4",
                           "--arrangement", "ortho45", "--format", "json")
        report = json.loads(out)
        assert set(report["residuals"]) == {"0"}

    def test_svg_output(self, capsys, tmp_path):
        target = tmp_path / "chain.svg"
        code, _, _ = run(capsys, "contfrac", "--cf", "3;7,15",
                         "--svg", str(target))
        assert code == 0
        text = target.read_text()
        assert 'data-label="horocycles"' in text

    def test_bad_fraction_exits_2(self, capsys):
        code, _, err = run(capsys, "contfrac", "--cf", "not a fraction")
        assert code == 2

    def test_refused_chain_exits_2(self, capsys):
        # the arrangement residual of step 2 does not vanish: |a_2| != 1
        code, out, err = run(capsys, "contfrac", "--cf", "2/1 3/1 1/2")
        assert code == 2
        assert out == ""
        assert err == ("error: step 2: arrangement residual "
                       "Fraction(-80, 1) is not zero\n")


class TestPoincare:
    def test_elliptic_triple(self, capsys):
        code, out, _ = run(capsys, "poincare", "--pairs",
                           "0:1", "1:2", "2:5")
        assert code == 0
        assert out.startswith("elliptic (tau -1)")

    def test_parabolic_translation(self, capsys):
        code, out, _ = run(capsys, "poincare", "--pairs",
                           "0:1", "1:2", "2:3")
        assert code == 0
        assert "parabolic" in out
        assert "boundary (infinity)" in out

    def test_hyperbolic_dilation(self, capsys):
        code, out, _ = run(capsys, "poincare", "--pairs",
                           "1:2", "2:4", "3:6", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["kind"] == "hyperbolic"
        assert report["tau"] == 1

    def test_rational_pairs(self, capsys):
        code, out, _ = run(capsys, "poincare", "--pairs",
                           "1/2:1", "1:3/2", "2:5/2")
        assert code == 0

    def test_unordered_triple_exits_4(self, capsys):
        code, _, err = run(capsys, "poincare", "--pairs",
                           "0:1", "0:2", "2:3")
        assert code == 4

    def test_bad_pair_syntax_exits_2(self, capsys):
        code, _, err = run(capsys, "poincare", "--pairs", "0", "1:2", "2:3")
        assert code == 2

    def test_identity_triple_exits_4(self, capsys):
        code, out, err = run(capsys, "poincare", "--pairs",
                             "0:0", "1:1", "2:2")
        assert code == 4
        assert out == ""
        assert "bad triple:" in err and "fixes every point" in err


class TestNinepoint:
    def test_classical(self, capsys):
        code, out, _ = run(capsys, "ninepoint", "--triangle",
                           "0,0", "4,0", "1,3")
        assert code == 0
        assert "verdict: True" in out
        assert "kind: circle" in out

    def test_hyperbolic(self, capsys):
        code, out, _ = run(capsys, "ninepoint", "--triangle",
                           "0,0", "4,0", "1,2", "--metric", "h",
                           "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] is True
        assert report["kind"] == "equilateral-hyperbola"
        assert report["conic"] == ["1", "3/2", "-1/8", "2"]

    def test_collinear_exits_4(self, capsys):
        code, _, err = run(capsys, "ninepoint", "--triangle",
                           "0,0", "1,0", "2,0")
        assert code == 4

    def test_null_product_axis_exits_4_with_the_reason(self, capsys):
        code, _, err = run(capsys, "ninepoint", "--triangle",
                           "0,0", "4,0", "1,3", "--metric", "p")
        assert code == 4
        assert "null axis" in err

    def test_finite_stand_in(self, capsys):
        code, out, _ = run(capsys, "ninepoint", "--triangle",
                           "0,0", "4,0", "1,3", "--n", "10,10")
        assert code == 0
        assert "verdict: True" in out

    def test_float_finite_stand_in(self, capsys):
        code, out, _ = run(capsys, "ninepoint", "--triangle",
                           "0,0", "4,0", "1,3", "--n", "1/3,-2/5",
                           "--arith", "float")
        assert code == 0
        assert "verdict: True" in out
        assert "kind: circle" in out

    def test_right_angle_exits_4_naming_diam_ah(self, capsys):
        code, out, err = run(capsys, "ninepoint", "--triangle",
                             "0,0", "4,0", "0,3")
        assert code == 4
        assert out == ""
        assert "diam_AH: expected one instance" in err

    def test_random_is_seed_deterministic(self, capsys):
        args = ("ninepoint", "--random", "4", "--seed", "7",
                "--format", "json")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        report = json.loads(out1)
        assert report["all_true"] is True
        assert len(report["runs"]) == 4

    def test_random_gives_up_when_every_draw_is_degenerate(self):
        # every parabolic-metric triangle is degenerate; the draw loop
        # must end with exit code 4 instead of running forever
        src = os.path.dirname(os.path.dirname(cyclekit.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "cyclekit.cli", "ninepoint", "--random",
             "2", "--metric", "p"],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 4
        assert "random triangles" in proc.stderr

    def test_random_stops_at_a_metric_wide_refusal(self, capsys, monkeypatch):
        draws = []

        def counting(*args, **kwargs):
            draws.append(args)
            return nine_point_figure(*args, **kwargs)

        monkeypatch.setattr(cli, "nine_point_figure", counting)
        code, _, err = run(capsys, "ninepoint", "--random", "3",
                           "--metric", "p")
        assert code == 4
        assert "random triangles" in err
        assert "null axis" in err
        assert len(draws) <= 1

    def test_svg_side_output(self, capsys, tmp_path):
        target = tmp_path / "nine.svg"
        code, _, _ = run(capsys, "ninepoint", "--triangle",
                         "0,0", "4,0", "1,3", "--svg", str(target))
        assert code == 0
        assert target.read_text().startswith("<svg ")

    def test_rational_coordinates(self, capsys):
        code, out, _ = run(capsys, "ninepoint", "--triangle",
                           "0,0", "7/2,0", "1/2,5/2")
        assert code == 0
        assert "verdict: True" in out


class TestApollonius:
    def test_descartes_curvatures(self, capsys):
        code, out, _ = run(capsys, "apollonius", "--cycle",
                           "1,1,0,0", "1,-1,0,0", "1,0,0+1*sqrt(3),2",
                           "--arith", "float", "--format", "json")
        assert code == 0
        report = json.loads(out)
        curvatures = set()
        for branch in report["branches"]:
            for sol in branch["solutions"]:
                k, l1, l2, m = (float(v) for v in sol["row"])
                if abs(k) > 1e-12:
                    r2 = (l1 * l1 + l2 * l2 - k * m) / (k * k)
                    if r2 > 0:
                        curvatures.add(round(1 / math.sqrt(r2), 9))
        inner = round(3 + 2 * math.sqrt(3), 9)
        outer = round(2 * math.sqrt(3) - 3, 9)
        assert inner in curvatures and outer in curvatures

    def test_exact_mode_reports_radical_clash(self, capsys):
        code, _, err = run(capsys, "apollonius", "--cycle",
                           "1,1,0,0", "1,-1,0,0", "1,0,0+1*sqrt(3),2")
        assert code == 2
        assert "float" in err

    def test_concentric_all_infeasible(self, capsys):
        code, out, _ = run(capsys, "apollonius", "--cycle",
                           "1,0,0,-1", "1,0,0,-4", "1,0,0,-9",
                           "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert len(report["branches"]) == 8
        assert all(b["status"] == "infeasible" for b in report["branches"])

    def test_zero_row_exits_2(self, capsys):
        code, out, err = run(capsys, "apollonius", "--cycle",
                             "0,0,0,0", "1,0,0,-1", "1,3,0,8")
        assert code == 2
        assert out == ""
        assert "the zero row is not a cycle" in err

    def test_sign_selection(self, capsys):
        code, out, _ = run(capsys, "apollonius", "--cycle",
                           "1,0,0,-1", "0,1,0,-2", "0,0,1,-2",
                           "--signs", "eee,eii", "--format", "json")
        assert code == 0
        assert [b["signs"] for b in json.loads(out)["branches"]] == [
            "eee", "eii"]

    def test_bad_signs_exit_2(self, capsys):
        code, _, err = run(capsys, "apollonius", "--cycle",
                           "1,0,0,-1", "1,0,0,-4", "1,0,0,-9",
                           "--signs", "xyz")
        assert code == 2

    def test_wrong_row_length_exits_2(self, capsys):
        code, _, err = run(capsys, "apollonius", "--cycle",
                           "1,0,0", "1,0,0,-4", "1,0,0,-9")
        assert code == 2


@pytest.mark.parametrize("value", ["-1", "nan", "abc"])
def test_bad_eps_exits_2(capsys, monkeypatch, value):
    monkeypatch.setenv("MOEBINV_EPS", value)
    code, out, err = run(capsys, "poincare", "--pairs", "0:1", "2:3", "5:7")
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "MOEBINV_EPS" in lines[0]


def test_bad_eps_exits_2_before_an_exact_solve(capsys, monkeypatch):
    # the solver reads the tolerance only for float candidates; the CLI
    # still refuses a malformed one before any work
    monkeypatch.setenv("MOEBINV_EPS", "abc")
    code, out, err = run(capsys, "ninepoint", "--triangle", "0,0", "4,0",
                         "1,3")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "MOEBINV_EPS" in err


class TestOptions:
    # each subcommand declares exactly the options its handler reads
    EXPECTED = {
        "figure-eval": {"metric", "arith", "out", "format"},
        "figure-check": {"metric", "arith", "out", "format"},
        "figure-render": {"labels", "metric", "arith", "out", "viewport",
                          "size"},
        "contfrac": {"cf", "steps", "arrangement", "svg", "out", "format",
                     "viewport", "size"},
        "poincare": {"pairs", "out", "format"},
        "ninepoint": {"triangle", "n", "random", "svg", "metric", "arith",
                      "seed", "out", "format", "viewport", "size"},
        "apollonius": {"cycle", "signs", "metric", "arith", "out", "format"},
    }

    @staticmethod
    def declared():
        sub = next(a for a in cli._parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        return {name: {a.dest for a in p._actions
                       if a.option_strings and a.dest != "help"}
                for name, p in sub.choices.items()}

    def test_each_subcommand_declares_what_it_reads(self):
        declared = self.declared()
        assert declared == self.EXPECTED
        assert sum(len(opts) for opts in declared.values()) == 42

    @pytest.mark.parametrize("argv, extra", [
        (["figure-eval", "s.json"], ["--seed", "1"]),
        (["figure-check", "s.json"], ["--seed", "1"]),
        (["figure-render", "s.json"], ["--seed", "1"]),
        (["figure-render", "s.json"], ["--format", "json"]),
        (["contfrac", "--cf", "3;7"], ["--metric", "h"]),
        (["contfrac", "--cf", "3;7"], ["--arith", "float"]),
        (["contfrac", "--cf", "3;7"], ["--seed", "1"]),
        (["poincare", "--pairs", "0:1", "2:3", "5:7"], ["--metric", "h"]),
        (["poincare", "--pairs", "0:1", "2:3", "5:7"], ["--arith", "float"]),
        (["poincare", "--pairs", "0:1", "2:3", "5:7"], ["--seed", "1"]),
        (["apollonius", "--cycle", "1,0,0,-1", "1,-3,0,8", "1,0,-3,8"],
         ["--seed", "1"]),
    ], ids=lambda v: " ".join(v))
    def test_an_option_the_handler_ignores_exits_2(self, capsys, argv,
                                                   extra):
        with pytest.raises(SystemExit) as exc:
            main(argv + extra)
        assert exc.value.code == 2
        assert "unrecognized arguments: " + " ".join(extra) in \
            capsys.readouterr().err


class TestNegativeValues:
    # argparse of Python 3.10 to 3.13.0 takes "-3:1" or "-1,0" for an option
    @pytest.mark.parametrize("argv, line", [
        (["poincare", "--pairs", "-3:1", "0:2", "1:5"],
         "elliptic (tau -1), extension point (1, 1*sqrt(2))"),
        (["apollonius", "--cycle", "-1,0,0,1", "1,3,0,8", "1,0,3,8",
          "--signs", "eee"], "  (1, 3/2, 3/2, -1+3*sqrt(2))"),
        (["ninepoint", "--triangle", "-1,0", "3,0", "0,2"],
         "conic: (1, 1/2, 7/8, 0)"),
    ], ids=lambda v: v[0] if isinstance(v, list) else None)
    def test_a_value_may_start_with_a_minus_sign(self, capsys, argv, line):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert line in out.splitlines()

    def test_an_unknown_flag_still_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["poincare", "--pairs", "-3:1", "0:2", "1:5", "-x"])
        assert exc.value.code == 2
        assert "unrecognized arguments: -x" in capsys.readouterr().err
