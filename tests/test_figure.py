import json
import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

import cyclekit
from cyclekit import figure
from cyclekit.clifford import Signature
from cyclekit.contfrac import embed_real_moebius
from cyclekit.cycle import Cycle, Metric
from cyclekit.numerics import to_float
from cyclekit.relations import BranchOverflow
from cyclekit.figure import (INFINITY, REAL_LINE, Degenerate, DuplicateLabel,
                             Figure, Instance, InvalidTriple, NotEvaluated,
                             TooManyInstances, UnknownNode, inversive,
                             is_point, loxodrome_triple_ok,
                             loxodrome_triples_equivalent, nine_point_figure,
                             only_reals, orthogonal, pairs_span_same_pencil,
                             poincare_pair_ok, power, tangent, through)

E2 = Metric.named("e")
H2 = Metric.named("h")

UNIT = (1, 0, 0, -1)


def ec(row):
    return Cycle.from_row(E2, row)


def touch_figure(radius_sq=1):
    """Unit(ish) circle, its vertical tangent lines, the touch points and
    the circles joining each touch point to a fixed outside point."""
    fig = Figure()
    fig.add_cycle((1, 0, 0, -radius_sq), "a")
    fig.add_cycle_rel([tangent("a"), orthogonal(INFINITY), only_reals()],
                      "l", pins=[orthogonal(REAL_LINE)])
    fig.add_cycle_rel([orthogonal("a"), orthogonal("l"), is_point(),
                       only_reals()], "C")
    fig.add_cycle_rel([orthogonal("C"), orthogonal("a")], "r",
                      pins=[through(1, 2)])
    return fig


class TestDataNodes:
    def test_point_rows_follow_the_metric(self):
        fig = Figure()
        fig.add_point((0, 0), "O")
        fig.add_point((1, 2), "P")
        assert fig.instances("O")[0].row() == (1, 0, 0, 0)
        assert fig.instances("P")[0].row() == (1, 1, 2, 5)
        fig.set_metric(H2)
        assert fig.instances("P")[0].row() == (1, 1, -2, -3)

    def test_point_row_is_a_point_cycle(self):
        fig = Figure()
        fig.add_point((F(1, 3), F(-2, 7)), "P")
        assert fig.instances("P")[0].self_product() == 0

    def test_duplicate_label_rejected(self):
        fig = Figure()
        fig.add_cycle(UNIT, "a")
        with pytest.raises(DuplicateLabel):
            fig.add_cycle(UNIT, "a")

    def test_predefined_labels_are_reserved(self):
        fig = Figure()
        with pytest.raises(DuplicateLabel):
            fig.add_cycle(UNIT, REAL_LINE)
        with pytest.raises(DuplicateLabel):
            fig.add_point((0, 0), INFINITY)

    def test_zero_row_rejected(self):
        fig = Figure()
        with pytest.raises(ValueError):
            fig.add_cycle((0, 0, 0, 0), "z")

    def test_foreign_metric_rejected(self):
        fig = Figure()
        with pytest.raises(ValueError):
            fig.add_cycle(Cycle.from_row(H2, UNIT), "a")

    def test_unknown_parent_rejected(self):
        fig = Figure()
        with pytest.raises(UnknownNode):
            fig.add_cycle_rel([orthogonal("ghost")], "x")

    def test_predefined_generations(self):
        fig = Figure()
        assert fig.generation(REAL_LINE) == -2
        assert fig.generation(INFINITY) == -1

    def test_bad_parameters_refused_when_added(self):
        fig = Figure()
        fig.freeze()   # nothing is solved, so only the add-time check can fail
        fig.add_cycle(UNIT, "a")
        with pytest.raises(ValueError):
            fig.add_cycle_rel([orthogonal("a"), through(1, 2, 3)], "x")
        with pytest.raises(ValueError):
            fig.add_cycle_rel([figure.RelSpec("tangent", "a", ("sideways",))],
                              "y")
        assert fig.labels() == [REAL_LINE, INFINITY, "a"]


class TestTouchFigure:
    def test_generations_count_up_from_parents(self):
        fig = touch_figure()
        assert [fig.generation(x) for x in "alCr"] == [0, 1, 2, 3]

    def test_two_branches_all_the_way_down(self):
        fig = touch_figure()
        for label in "lCr":
            assert fig.status(label) == "solved"
            assert len(fig.instances(label)) == 2

    def test_tangent_lines_are_vertical(self):
        fig = touch_figure()
        rows = sorted((tuple(i.canonical().row()) for i in fig.instances("l")),
                      key=lambda r: [to_float(c) for c in r])
        assert rows == [(0, 1, 0, -2), (0, 1, 0, 2)]

    def test_touch_points_sit_on_both_parents(self):
        fig = touch_figure()
        for (_, ok, res) in fig.check_rel("C", "a", "orthogonal"):
            assert ok and res == 0
        for (_, ok, res) in fig.check_rel("C", "l", "orthogonal"):
            assert ok and res == 0

    def test_joining_circles_meet_their_tangent_line_straight(self):
        fig = touch_figure()
        results = fig.check_rel("l", "r", "orthogonal")
        assert [(pair, ok) for pair, ok, _ in results] == [
            ((0, 0), True), ((1, 1), True)]
        assert all(res == 0 for _, _, res in results)

    def test_branches_never_mix(self):
        fig = touch_figure()
        pairs = [pair for pair, _, _ in fig.check_rel("C", "l", "orthogonal")]
        assert pairs == [(0, 0), (1, 1)]

    def test_validate_is_quiet(self):
        assert touch_figure().validate() == []


class TestMeasures:
    def test_concentric_inversive_distance(self):
        fig = Figure()
        fig.add_cycle(UNIT, "u")
        fig.add_cycle((1, 0, 0, -4), "w")
        assert fig.measure("u", "w", "inversive_distance") == [
            ((0, 0), F(-5, 4))]

    def test_concentric_power(self):
        fig = Figure()
        fig.add_cycle(UNIT, "u")
        fig.add_cycle((1, 0, 0, -4), "w")
        # d^2 - (r1 - r2)^2 = 0 - 1
        assert fig.measure("u", "w", "steiner_power") == [((0, 0), -1)]

    def test_power_against_a_line_is_undefined(self):
        fig = Figure()
        fig.add_cycle(UNIT, "u")
        fig.add_cycle((0, 0, 1, 0), "axis")
        with pytest.raises(ValueError):
            fig.measure("u", "axis", "steiner_power")

    def test_real_circle_is_not_self_orthogonal(self):
        fig = Figure()
        fig.add_cycle(UNIT, "u")
        [(_, ok, res)] = fig.check_rel("u", "u", "orthogonal")
        assert not ok and res == -2

    def test_raw_product(self):
        fig = Figure()
        fig.add_cycle(UNIT, "u")
        fig.add_cycle((1, 0, 0, -4), "w")
        assert fig.measure("u", "w", "product") == [((0, 0), -5)]


class TestEvaluationModes:
    def test_freeze_defers_and_unfreeze_catches_up(self):
        lazy = Figure()
        lazy.freeze()
        lazy.add_cycle(UNIT, "a")
        lazy.add_cycle_rel([tangent("a"), orthogonal(INFINITY), only_reals()],
                           "l", pins=[orthogonal(REAL_LINE)])
        lazy.add_cycle_rel([orthogonal("a"), orthogonal("l"), is_point(),
                            only_reals()], "C")
        assert lazy.status("l") == "pending"
        lazy.unfreeze()
        eager = touch_figure()
        for label in "lC":
            assert [i.key() for i in lazy.instances(label)] == \
                   [i.key() for i in eager.instances(label)]

    def test_reevaluate_is_idempotent(self):
        fig = touch_figure()
        before = {lab: [i.key() for i in fig.instances(lab)]
                  for lab in fig.labels()}
        fig.reevaluate()
        fig.reevaluate()
        after = {lab: [i.key() for i in fig.instances(lab)]
                 for lab in fig.labels()}
        assert before == after

    def test_set_data_reflows_descendants(self):
        fig = touch_figure()
        fig.set_data("a", (1, 0, 0, -4))
        rows = sorted((tuple(i.canonical().row()) for i in fig.instances("l")),
                      key=lambda r: [to_float(c) for c in r])
        assert rows == [(0, 1, 0, -4), (0, 1, 0, 4)]

    def test_set_data_equals_fresh_build(self):
        fig = touch_figure()
        fig.set_data("a", (1, 0, 0, -9))
        fresh = touch_figure(radius_sq=9)
        for label in "lCr":
            assert [i.key() for i in fig.instances(label)] == \
                   [i.key() for i in fresh.instances(label)]

    @staticmethod
    def overflow_figure():
        """Y (through P and Q, tangent to the unit circle C) is infeasible
        while P sits inside C, and gets two instances, one over the cap,
        once P moves outside; Z is the vertical line through P."""
        fig = Figure(max_instances=1)
        fig.add_point((0, 0), "P")
        fig.add_point((3, 0), "Q")
        fig.add_cycle(Cycle.circle(E2, (0, 0), 1), "C")
        fig.add_cycle_rel([orthogonal("P"), orthogonal("Q"), tangent("C")],
                          "Y")
        fig.add_cycle_rel([orthogonal("P"), orthogonal(INFINITY),
                           orthogonal(REAL_LINE)], "Z")
        assert fig.status("Y") == "infeasible"
        return fig

    @pytest.mark.parametrize("frozen", [False, True])
    def test_raising_resolve_leaves_no_stale_node(self, frozen):
        fig = self.overflow_figure()
        if frozen:
            fig.freeze()
        with pytest.raises(TooManyInstances):
            fig.set_data("P", (1, -5))
            fig.unfreeze()   # reached only when frozen: the full re-solve
        assert fig.status("Z") == "pending"
        assert fig.instances("Z") == []
        assert "'Y' raised" in fig.node("Z").reason
        assert fig.validate() == []

    def test_edit_elsewhere_resolves_nodes_left_pending(self):
        fig = self.overflow_figure()
        with pytest.raises(TooManyInstances):
            fig.set_data("P", (1, -5))
        fig.set_data("Q", (F(1, 2), 0))   # Q inside C: Y is infeasible again
        assert fig.status("Y") == "infeasible"
        assert fig.status("Z") == "solved"
        assert fig.instances("Z")[0].canonical().row() == (0, 1, 0, 2)
        assert fig.validate() == []

    def test_set_metric_reflows_everything(self):
        fig = Figure()
        fig.add_point((1, 2), "P")
        fig.add_cycle_rel([orthogonal("P"), orthogonal(REAL_LINE),
                           orthogonal(INFINITY)], "vert")
        before = fig.instances("vert")[0].canonical().row()
        fig.set_metric(H2)
        after = fig.instances("vert")[0].canonical().row()
        # the vertical line through P survives, rebuilt against the new metric
        assert before == (0, 1, 0, 2)
        assert after == (0, 1, 0, 2)
        assert fig.instances("P")[0].row() == (1, 1, -2, -3)

    def test_set_metric_cannot_change_dimension(self):
        fig = Figure()
        with pytest.raises(ValueError):
            fig.set_metric(Metric.from_signature(3))


class TestConeResolve:
    """An edit re-solves only the cone below the edited node."""

    TRIANGLES = [((0, 0), (4, 0), (1, 3)), ((0, 0), (5, 0), (2, 4)),
                 ((1, 1), (6, 2), (3, 5)), ((-2, 0), (3, -1), (0, 4))]

    def four_subfigures(self):
        # four nine-point subfigures of 17 relation nodes and 6 reflection
        # nodes each, plus one node orthogonal to three of the conics
        fig = Figure()
        for sub, tri in enumerate(self.TRIANGLES):
            bindings = {corner: fig.add_point(pt, f"s{sub}_{corner}")
                        for corner, pt in zip("ABC", tri)}
            fig.add_subfigure(nine_point_figure(*tri).figure, bindings,
                              "conic", f"conic{sub}")
        fig.add_cycle_rel([orthogonal(f"conic{sub}") for sub in range(3)],
                          "linked")
        return fig

    def test_vertex_edit_resolves_one_nine_point_subfigure(self, monkeypatch):
        fig = self.four_subfigures()
        calls = {"solve": 0, "from_obj": 0}
        real_solve, real_from_obj = figure.solve, Figure.from_obj

        def counting_solve(*args, **kwargs):
            calls["solve"] += 1
            return real_solve(*args, **kwargs)

        def counting_from_obj(obj):
            calls["from_obj"] += 1
            return real_from_obj(obj)

        monkeypatch.setattr(figure, "solve", counting_solve)
        monkeypatch.setattr(Figure, "from_obj",
                            staticmethod(counting_from_obj))
        # a full re-solve makes 4 * 17 + 1 = 69 solves and 4 from_obj
        # calls; moving A leaves the BC side chain (side, diam and mid of
        # BC, of which mid is derived, not solved) out of the inner cone
        for vertex, point, solves in (("s0_A", (-1, -2), 15 + 1),
                                      ("s3_C", (1, 5), 15)):
            calls.update(solve=0, from_obj=0)
            fig.set_data(vertex, point)
            assert calls == {"solve": solves, "from_obj": 0}
            assert all(fig.status(lab) == "solved" for lab in fig.labels())
            assert fig.validate() == []
        fresh = real_from_obj(fig.to_obj())
        assert all(fig.instances(lab) == fresh.instances(lab)
                   for lab in fig.labels())

    def test_vertex_edits_leave_no_stale_inner_node(self):
        # every node of the edited subfigure's kept inner figure, the
        # derived midpoints included, equals a fresh nine-point figure of
        # the moved triangle, in value and in scalar type
        fig = self.four_subfigures()
        tri = dict(zip("ABC", self.TRIANGLES[0]))
        for corner, point in (("A", (-1, -2)), ("C", (F(1, 2), 4)),
                              ("A", (0, 0))):
            fig.set_data(f"s0_{corner}", point)
            tri[corner] = point
            kept = fig.node("conic0").kept
            fresh = nine_point_figure(*tri.values()).figure
            assert kept.labels() == fresh.labels()
            assert sum(kept.node(lab).kind == "reflection"
                       for lab in kept.labels()) == 6
            typed = lambda node: [[(v, type(v)) for v in c.row()]
                                  for c in node.cycles()]
            for lab in fresh.labels():
                got, want = kept.node(lab), fresh.node(lab)
                assert got.status == want.status == "solved", lab
                assert typed(got) == typed(want), lab
            assert kept.validate() == []


class TestReflection:
    """A reflection node is derived from its parents, never solved."""

    def test_reflection_in_a_circle_and_in_a_line(self):
        fig = Figure()
        fig.add_cycle(UNIT, "u")
        fig.add_cycle((0, 1, 0, 2), "x1")            # the line x = 1
        fig.add_point((2, 0), "P")
        fig.add_point((3, 5), "Q")
        fig.add_reflection("P", "u", "P'")
        fig.add_reflection("Q", "x1", "Q'")
        fig.add_reflection(INFINITY, "u", "O")
        assert fig.generation("P'") == 1
        assert fig.instances("P'")[0].center() == (F(1, 2), 0)
        assert fig.instances("Q'")[0].center() == (-1, 5)
        assert fig.instances("O")[0].row() == (1, 0, 0, 0)
        assert all(fig.instances(lab)[0] == fig.instances(lab)[0].canonical()
                   for lab in ("P'", "Q'", "O"))
        assert fig.validate() == []

    def test_one_instance_per_consistent_parent_pair(self):
        fig = touch_figure()
        fig.add_reflection("C", "l", "m")
        assert len(fig.instances("m")) == 2
        for inst in fig.node("m").instances:
            assert inst.context["C"] == inst.context["l"]
        # a touch point lies on its tangent line: the reflection fixes it
        assert fig.instances("m") == [c.canonical()
                                      for c in fig.instances("C")]

    def test_edit_re_derives_the_reflection(self):
        fig = Figure()
        fig.add_cycle(UNIT, "u")
        fig.add_point((2, 0), "P")
        fig.add_reflection("P", "u", "R")
        fig.set_data("P", (0, 4))
        assert fig.instances("R")[0].center() == (0, F(1, 4))
        fig.set_data("u", (1, 0, 0, -4))
        assert fig.instances("R")[0].center() == (0, 1)

    @pytest.mark.parametrize("arithmetic, mirror", [
        ("exact", (1, 3, 4, 25)),            # the point (3, 4)
        ("float", (1.0, 3.0, 4.0, 25.0 + 1e-14))])
    def test_isotropic_mirror_is_infeasible(self, arithmetic, mirror):
        fig = Figure(arithmetic=arithmetic)
        fig.add_point((1, 2), "P")
        fig.add_cycle(mirror, "c")
        fig.add_reflection("P", "c", "R")
        assert fig.status("R") == "infeasible"
        assert "'c' has <C,C> = 0" in fig.node("R").reason
        fig.set_data("c", UNIT)                 # the edit re-derives it
        assert fig.status("R") == "solved"
        assert fig.instances("R")[0].center() == (F(1, 5), F(2, 5))

    def test_nine_point_isotropic_diameter_raises_degenerate(self,
                                                            monkeypatch):
        # with n at infinity an isotropic diam_ needs a light-like side,
        # which fails earlier at its foot; swap in a point cycle to reach
        # the reflection itself
        real = Figure.add_cycle_rel

        def isotropic_diam(self, relations, label, **kwargs):
            if label == "diam_AB":
                return self.add_point((5, 5), label)
            return real(self, relations, label, **kwargs)

        monkeypatch.setattr(Figure, "add_cycle_rel", isotropic_diam)
        with pytest.raises(Degenerate, match="mid_AB: expected one instance,"
                                             " got infeasible"):
            nine_point_figure((0, 0), (4, 0), (1, 3))

    def test_validate_reports_a_wrong_instance(self):
        fig = Figure()
        fig.add_cycle(UNIT, "u")
        fig.add_point((2, 0), "P")
        fig.add_reflection("P", "u", "R")
        node = fig.node("R")
        node.instances[0] = Instance(ec((1, 0, 0, 0)),
                                     node.instances[0].context)
        assert fig.validate() == ["R: not the reflection of 'P' in 'u'"]

    def test_unknown_parent_rejected(self):
        fig = Figure()
        fig.add_point((2, 0), "P")
        with pytest.raises(UnknownNode):
            fig.add_reflection("P", "nope", "R")
        assert "R" not in fig.labels()

    @pytest.mark.parametrize("n", [None, (F(1, 3), F(-2, 5))])
    def test_nine_point_round_trip(self, n):
        fig = nine_point_figure((0, 0), (4, 0), (1, 3), n=n).figure
        obj = json.loads(fig.to_json())
        mids = [e for e in obj["nodes"] if e["kind"] == "reflection"]
        nref = "N" if n else INFINITY
        assert [e["mirror"] for e in mids] == [
            [nref, "diam_" + e["label"][4:]] for e in mids]
        assert len(mids) == 6
        again = Figure.from_obj(obj)
        assert again.to_json() == fig.to_json()
        for lab in fig.labels():
            assert again.node(lab) == fig.node(lab)

    def test_nine_point_midpoints_are_covariant(self):
        M = embed_real_moebius(((1, 2), (1, 3)), Signature(2))
        fig = nine_point_figure((0, 0), (4, 0), (1, 3)).figure
        moved = fig.transformed(M)
        for lab in ("mid_AB", "mid_BC", "mid_CA", "mid_AH", "mid_BH",
                    "mid_CH"):
            assert moved.node(lab).kind == "reflection"
            [got] = moved.instances(lab)
            [orig] = fig.instances(lab)
            assert got == orig.flt(M).canonical()
        assert moved.validate() == []


class TestBranching:
    def test_parametric_node_persists_and_blocks_children(self):
        fig = Figure()
        fig.add_cycle(UNIT, "a")
        fig.add_cycle_rel([tangent("a")], "t")
        assert fig.status("t") == "parametric"
        with pytest.raises(NotEvaluated):
            fig.add_cycle_rel([orthogonal("t")], "u")
        assert "u" not in fig.labels()
        assert fig.status("t") == "parametric"

    def test_parametric_node_rejects_checks(self):
        fig = Figure()
        fig.add_cycle(UNIT, "a")
        fig.add_cycle_rel([tangent("a")], "t")
        with pytest.raises(NotEvaluated):
            fig.check_rel("t", "a", "orthogonal")
        with pytest.raises(NotEvaluated):
            fig.measure("t", "a", "product")

    def test_pin_turns_parametric_into_finite(self):
        fig = Figure()
        fig.add_cycle(UNIT, "a")
        fig.add_cycle_rel([tangent("a"), orthogonal(INFINITY), only_reals()],
                          "l", pins=[orthogonal(REAL_LINE)])
        assert fig.status("l") == "solved"

    def test_overflow_raises_instead_of_truncating(self):
        fig = Figure(max_instances=1)
        fig.add_cycle(UNIT, "a")
        with pytest.raises(TooManyInstances):
            fig.add_cycle_rel([tangent("a"), orthogonal(INFINITY),
                               only_reals()], "l",
                              pins=[orthogonal(REAL_LINE)])
        assert "l" not in fig.labels()

    def test_failed_add_leaves_no_trace(self):
        fig = Figure()
        for i in range(7):   # seven disjoint circles: 2^7 sign branches
            fig.add_cycle((1, 3 * i, 0, 9 * i * i - 1), f"c{i}")
        with pytest.raises(BranchOverflow):
            fig.add_cycle_rel([tangent(f"c{i}") for i in range(7)], "x")
        assert "x" not in fig.labels()
        fig.add_cycle_rel([tangent("c0")], "x")   # the label is free again
        assert fig.status("x") == "parametric"

    def test_power_against_a_flat_parent_is_infeasible(self):
        fig = Figure()
        fig.add_cycle(UNIT, "a")
        fig.add_cycle_rel([power("a", 1), orthogonal("a")], "x")
        assert fig.status("x") == "parametric"
        fig.set_data("a", (0, 1, 0, 0))
        assert fig.status("x") == "infeasible"
        assert fig.node("x").reason == \
            "power against a flat reference is undefined"
        fig.set_data("a", (1, 0, 0, -4))   # a later edit re-solves it
        assert fig.status("x") == "parametric"

    def test_power_against_a_flat_parent_added_is_infeasible(self):
        fig = Figure()
        fig.add_cycle((0, 1, 0, 0), "a")
        fig.add_cycle_rel([power("a", 1)], "y")
        assert fig.status("y") == "infeasible"
        assert "flat reference" in fig.node("y").reason

    def test_float_parameter_on_exact_data(self):
        got = {}
        for arithmetic in ("exact", "float"):
            fig = Figure(arithmetic=arithmetic)
            fig.add_cycle(UNIT, "a")
            fig.add_cycle_rel([inversive("a", -0.5), orthogonal(REAL_LINE),
                               through(0, 2)], "w")
            assert fig.status("w") == "solved"
            assert fig.validate() == []
            got[arithmetic] = sorted(
                tuple(to_float(c) for c in i.canonical().row())
                for i in fig.instances("w"))
        assert len(got["exact"]) == 2
        for e, f in zip(got["exact"], got["float"]):
            assert e == pytest.approx(f)
        k, l1, _, m = got["exact"][0]
        assert (k, abs(l1), m) == pytest.approx((0.21822, 1, -0.87287),
                                                abs=1e-5)

    def test_infeasible_is_reported_not_raised(self):
        fig = Figure()
        fig.add_cycle(UNIT, "a")
        # orthogonal to itself and passing through its center: impossible
        fig.add_cycle_rel([orthogonal("a"), through(0, 0), orthogonal("a"),
                           inversive("a", 5)], "x")
        assert fig.status("x") == "infeasible"
        assert fig.instances("x") == []

    def test_avoid_drops_projective_copies(self):
        fig = Figure()
        fig.add_point((0, 0), "P")
        fig.add_point((2, 0), "Q")
        for lab, pair in (("m1", ("P", "Q")), ("m2", ("P", "Q"))):
            fig.add_cycle_rel([orthogonal(pair[0]), orthogonal(pair[1]),
                               orthogonal(INFINITY)], "base_" + lab)
        fig.add_cycle_rel([orthogonal("base_m1"), orthogonal("base_m2"),
                           is_point()], "cross", avoid=(INFINITY,))
        # the two bases coincide, so everything is spurious
        assert fig.status("cross") == "parametric"

    def test_avoid_matches_a_datum_over_a_radicand(self):
        from cyclekit.numerics import QuadExt
        E = Metric.named("e")
        R2 = QuadExt(0, 1, 2)
        fig = Figure()
        # the point (1/2, 0) as sqrt 2 times its rational row, every entry
        # a QuadExt: avoid compares it projectively with the rational answer
        fig.add_cycle(Cycle(E, R2, (R2 / 2, 0), R2 / 4), "O")
        fig.add_cycle(Cycle(E, 0, (1, 0), 1), "X")
        fig.add_cycle(Cycle(E, 0, (0, 1), 0), "Y")
        fig.add_cycle_rel([orthogonal("X"), orthogonal("Y"), is_point()],
                          "cross", avoid=("O",))
        assert [i.cycle.row() for i in fig.node("cross").instances] == [
            (0, 0, 0, 1)]

    @pytest.mark.parametrize("arithmetic", ["exact", "float"])
    def test_avoid_drops_an_exact_datum_in_either_mode(self, arithmetic):
        # two cycles through N and P cross at N and P; a float figure
        # compares N's float key with the float candidates, not its int row
        fig = Figure(arithmetic=arithmetic)
        fig.add_point((F(1, 3), F(-2, 5)), "N")
        for lab, pt in (("P", (0, 0)), ("Q", (4, 0)), ("R", (1, 3))):
            fig.add_point(pt, lab)
        fig.add_cycle_rel([orthogonal("N"), orthogonal("P"),
                           orthogonal("Q")], "a")
        fig.add_cycle_rel([orthogonal("N"), orthogonal("P"),
                           orthogonal("R")], "b")
        fig.add_cycle_rel([orthogonal("a"), orthogonal("b"), is_point()],
                          "X", avoid=("N",))
        [x] = fig.instances("X")
        assert x.center() == pytest.approx((0, 0), abs=1e-12)

    def test_parents_from_two_branches_of_one_ancestor_are_not_combined(
            self, monkeypatch):
        # a diamond: X has two instances, Y1 and Y2 each one per X instance,
        # and Z pairs a Y1 with a Y2 only where both came from the same X
        merged = []

        def spy(contexts):
            merged.append(real(contexts))
            return merged[-1]

        real = figure._merge_contexts
        monkeypatch.setattr(figure, "_merge_contexts", spy)
        fig = Figure()
        fig.add_cycle((1, 0, 0, -1), "a")
        fig.add_cycle((1, 1, 0, 0), "b")
        fig.add_cycle_rel([orthogonal("a"), orthogonal("b"), is_point()], "X")
        fig.add_point((3, 1), "P")
        fig.add_point((-2, 5), "Q")
        for y, pt in (("Y1", "P"), ("Y2", "Q")):
            fig.add_cycle_rel([orthogonal("X"), orthogonal(pt),
                               orthogonal(INFINITY)], y)
        merged.clear()
        fig.add_cycle_rel([orthogonal("Y1"), orthogonal("Y2"), is_point()],
                          "Z", avoid=(INFINITY,))
        assert len(merged) == 4 and merged.count(None) == 2
        xs, zs = fig.node("X").instances, fig.node("Z").instances
        assert len(xs) == 2 and len(zs) == 2
        for z in zs:
            assert z.cycle.same_cycle(xs[z.context["X"]].cycle)
            assert z.context["Y1"] == z.context["Y2"] == z.context["X"]


class TestSubfigures:
    @staticmethod
    def midpoint_macro():
        inner = Figure()
        inner.freeze()
        inner.add_point((0, 0), "P")
        inner.add_point((1, 0), "Q")
        inner.add_cycle_rel([orthogonal("P"), orthogonal("Q"),
                             orthogonal(INFINITY)], "base")
        inner.add_cycle_rel([orthogonal("P"), orthogonal("Q"),
                             orthogonal("base")], "diam")
        inner.add_cycle_rel([orthogonal("base"), orthogonal("diam"),
                             orthogonal(INFINITY)], "perp")
        inner.add_cycle_rel([orthogonal("base"), orthogonal("perp"),
                             is_point()], "mid", avoid=(INFINITY,))
        return inner

    def test_midpoint_macro(self):
        outer = Figure()
        outer.add_point((0, 0), "A")
        outer.add_point((4, 6), "B")
        outer.add_subfigure(self.midpoint_macro(), {"P": "A", "Q": "B"},
                            "mid", "M")
        assert outer.status("M") == "solved"
        [inst] = outer.node("M").instances
        assert inst.cycle.center() == (2, 3)

    def test_macro_reuse_with_rational_data(self):
        outer = Figure()
        outer.add_point((F(1, 3), F(1, 5)), "A")
        outer.add_point((F(2, 3), F(7, 5)), "B")
        outer.add_subfigure(self.midpoint_macro(), {"P": "A", "Q": "B"},
                            "mid", "M")
        assert outer.node("M").instances[0].cycle.center() == (F(1, 2), F(4, 5))

    def test_inner_hierarchy_stays_hidden(self):
        outer = Figure()
        outer.add_point((0, 0), "A")
        outer.add_point((2, 0), "B")
        outer.add_subfigure(self.midpoint_macro(), {"P": "A", "Q": "B"},
                            "mid", "M")
        assert "base" not in outer.labels()
        assert "perp" not in outer.labels()

    def test_binding_must_hit_a_data_slot(self):
        outer = Figure()
        outer.add_point((0, 0), "A")
        outer.add_point((2, 0), "B")
        with pytest.raises(ValueError):
            outer.add_subfigure(self.midpoint_macro(),
                                {"base": "A", "Q": "B"}, "mid", "M")

    def test_macro_tracks_rebound_data(self):
        outer = Figure()
        outer.add_point((0, 0), "A")
        outer.add_point((2, 0), "B")
        outer.add_subfigure(self.midpoint_macro(), {"P": "A", "Q": "B"},
                            "mid", "M")
        outer.set_data("B", (10, 4))
        assert outer.node("M").instances[0].cycle.center() == (5, 2)

    @staticmethod
    def overflow_macro():
        """Z of the overflow figure as a macro over one bound point O: O
        inside the unit circle solves, O outside overflows the inner cap."""
        outer = Figure()
        outer.add_point((0, 0), "O")
        outer.add_subfigure(TestEvaluationModes.overflow_figure(),
                            {"P": "O"}, "Z", "S")
        outer.add_cycle_rel([orthogonal("S"), orthogonal("O"),
                             orthogonal(REAL_LINE)], "T")
        return outer

    def test_failed_run_leaves_no_kept_figure(self):
        outer = self.overflow_macro()
        assert outer.node("S").kept is not None
        with pytest.raises(TooManyInstances):
            outer.set_data("O", (1, -5))
        assert outer.node("S").kept is None
        assert outer.status("S") == outer.status("T") == "pending"
        outer.set_data("O", (F(1, 2), F(1, 3)))
        fresh = Figure.from_obj(outer.to_obj())
        for lab in outer.labels():
            assert outer.node(lab) == fresh.node(lab)
        assert outer.instances("S")[0].canonical().row() == (0, 1, 0, 1)
        assert outer.node("S").kept is not None

    def test_kept_figure_is_not_serialized(self):
        outer = self.overflow_macro()
        outer.set_data("O", (F(1, 2), 0))
        node = outer.node("S")
        kept = node.kept
        text = outer.to_json()
        node.kept = None
        assert outer.to_json() == text
        assert Figure.from_json(text).to_json() == text
        assert repr(node) == repr(replace(node, kept=kept))
        assert node == replace(node, kept=kept)

    def test_changed_metric_rebuilds_the_inner_figure(self, monkeypatch):
        outer = Figure()
        outer.add_point((0, 0), "A")
        outer.add_point((4, 6), "B")
        outer.add_subfigure(self.midpoint_macro(), {"P": "A", "Q": "B"},
                            "mid", "M")
        built = []
        real_from_obj = Figure.from_obj

        def recording_from_obj(obj):
            built.append(obj["metric"])
            return real_from_obj(obj)

        monkeypatch.setattr(Figure, "from_obj",
                            staticmethod(recording_from_obj))
        outer.set_data("B", (2, 2))
        outer.set_metric(H2)
        assert built == ["h"]
        assert outer.node("M").kept.metric == H2
        fresh = real_from_obj(outer.to_obj())
        assert outer.instances("M") == fresh.instances("M")


class TestSerialization:
    def test_json_round_trip_is_byte_stable(self):
        fig = touch_figure()
        text = fig.to_json()
        again = Figure.from_json(text)
        assert again.to_json() == text

    def test_round_trip_resolves_identically(self):
        fig = touch_figure()
        again = Figure.from_json(fig.to_json())
        for label in ("a", "l", "C", "r"):
            assert [i.key() for i in again.instances(label)] == \
                   [i.key() for i in fig.instances(label)]

    def test_frozen_figures_stay_frozen(self):
        fig = Figure()
        fig.freeze()
        fig.add_cycle(UNIT, "a")
        fig.add_cycle_rel([tangent("a"), orthogonal(INFINITY), only_reals()],
                          "l", pins=[orthogonal(REAL_LINE)])
        again = Figure.from_json(fig.to_json())
        assert again.mode == "freeze"
        assert again.status("l") == "pending"

    def test_exact_scalars_survive(self):
        fig = Figure()
        fig.add_point((F(1, 3), F(-2, 7)), "P")
        fig.add_cycle_rel([orthogonal("P"), orthogonal(REAL_LINE)], "c",
                          pins=[through(F(5, 2), 1), orthogonal(INFINITY)])
        again = Figure.from_json(fig.to_json())
        assert again.node("P").point == (F(1, 3), F(-2, 7))
        assert [i.key() for i in again.instances("c")] == \
               [i.key() for i in fig.instances("c")]

    def test_subfigures_round_trip(self):
        outer = Figure()
        outer.add_point((0, 0), "A")
        outer.add_point((4, 6), "B")
        outer.add_subfigure(TestSubfigures.midpoint_macro(),
                            {"P": "A", "Q": "B"}, "mid", "M")
        text = outer.to_json()
        again = Figure.from_json(text)
        assert again.to_json() == text
        assert again.node("M").instances[0].cycle.center() == (2, 3)

    # one sample per parameter name: the constructor's positional arguments
    SAMPLES = {"variant": ("internal",), "theta": (F(-1, 2),),
               "value": (0.75,), "point": (F(1, 3), 2)}

    def test_every_kind_has_a_constructor_and_a_codec(self):
        fig = Figure()
        fig.freeze()
        fig.add_cycle(UNIT, "a")
        specs = {}
        for kind, (_, on_parent, names) in figure._KINDS.items():
            assert kind in cyclekit.__all__
            args = [a for name in names for a in self.SAMPLES[name]]
            spec = getattr(cyclekit, kind)(*(["a"] if on_parent else []),
                                           *args)
            assert spec.kind == kind and len(spec.args) == len(names)
            specs["n_" + kind] = spec
            fig.add_cycle_rel([spec], "n_" + kind)
        again = Figure.from_obj(json.loads(json.dumps(fig.to_obj())))
        for label, spec in specs.items():
            assert again.node(label).relations == (spec,)

    def test_format_marker_is_checked(self):
        with pytest.raises(ValueError):
            Figure.from_obj({"format": "figure-v0", "metric": "e"})

    def test_metric_dict_form(self):
        fig = Figure(Metric((-1, -1), (-1, 1)))
        fig.add_point((1, 2), "P")
        again = Figure.from_json(fig.to_json())
        assert again.metric == fig.metric


class TestTransformed:
    def sl2(self, a, b, c, d):
        return embed_real_moebius(((a, b), (c, d)), Signature(2))

    def test_rel_nodes_are_covariant(self):
        M = self.sl2(1, 2, 1, 3)
        fig = Figure()
        fig.add_cycle(UNIT, "a")
        fig.add_point((1, 2), "p")
        fig.add_cycle_rel([orthogonal("a"), orthogonal("p"),
                           orthogonal(INFINITY)], "x")
        moved = fig.transformed(M)
        want = [i.cycle.flt(M) for i in fig.node("x").instances]
        got = [i.cycle for i in moved.node("x").instances]
        assert len(want) == len(got)
        assert all(any(w.same_cycle(g) for g in got) for w in want)

    def test_points_map_as_points(self):
        M = self.sl2(2, 1, 1, 1)
        fig = Figure()
        fig.add_point((1, 2), "p")
        moved = fig.transformed(M)
        assert moved.node("p").row.same_cycle(fig.node("p").row.flt(M))

    def test_point_sent_to_infinity_becomes_the_infinite_cycle(self):
        M = self.sl2(0, 1, 1, 0)   # inversion swaps 0 and infinity
        fig = Figure()
        fig.add_point((0, 0), "origin")
        moved = fig.transformed(M)
        assert moved.node("origin").row.same_cycle(Cycle.infinity(E2))

    def test_through_pin_travels_with_the_map(self):
        M = self.sl2(1, 1, 0, 1)   # shift by 1
        fig = touch_figure()
        moved = fig.transformed(M)
        assert moved.status("r") == "solved"
        want = sorted(i.cycle.flt(M).key() for i in fig.node("r").instances)
        got = sorted(i.cycle.key() for i in moved.node("r").instances)
        assert want == got

    def test_through_pin_may_not_escape(self):
        M = self.sl2(0, 1, 1, -1)   # sends 1 to infinity; pin sits at (1, 2)
        fig = Figure()
        fig.add_cycle(UNIT, "a")
        fig.add_cycle_rel([orthogonal("a"), orthogonal(REAL_LINE)], "c",
                          pins=[through(F(1), F(0)), orthogonal(INFINITY)])
        with pytest.raises(ValueError):
            fig.transformed(M)


class TestPencilsAndTriples:
    def c(self, row):
        return ec(row)

    def test_span_detects_the_same_pencil(self):
        c2, c3 = self.c((1, 0, 0, -1)), self.c((1, 0, 0, -4))
        other = (self.c((2, 0, 0, -2)), self.c((1, 0, 0, -3)))
        assert pairs_span_same_pencil((c2, c3), other)

    def test_span_rejects_a_different_pencil(self):
        c2, c3 = self.c((1, 0, 0, -1)), self.c((1, 0, 0, -4))
        other = (self.c((1, 1, 0, 0)), self.c((1, 0, 0, -3)))
        assert not pairs_span_same_pencil((c2, c3), other)

    def test_span_needs_two_dimensions(self):
        c2 = self.c((1, 0, 0, -1))
        assert not pairs_span_same_pencil((c2, c2.scaled(3)),
                                          (c2, self.c((1, 0, 0, -4))))

    def test_poincare_pair(self):
        u = self.c(UNIT)
        assert poincare_pair_ok(u, self.c((1, 1, 0, 0)))      # crossing
        assert poincare_pair_ok(u, self.c((0, 1, 0, 0)))      # diameter line
        assert not poincare_pair_ok(u, self.c((1, 0, 0, -4)))  # nested

    def test_triple_preconditions(self):
        xaxis = self.c((0, 0, 1, 0))
        c2, c3 = self.c(UNIT), self.c((1, 0, 0, -4))
        assert loxodrome_triple_ok((xaxis, c2, c3))
        assert not loxodrome_triple_ok((self.c((1, 0, 0, -9)), c2, c3))
        assert not loxodrome_triple_ok((xaxis, c2, self.c((1, 1, 0, 0))))

    def test_equivalence_accepts_itself_and_rescalings(self):
        T = (self.c((0, 0, 1, 0)), self.c(UNIT), self.c((1, 0, 0, -4)))
        S = (self.c((0, 0, 3, 0)), self.c((2, 0, 0, -2)),
             self.c((1, 0, 0, -4)))
        assert loxodrome_triples_equivalent(T, T)
        assert loxodrome_triples_equivalent(T, S)

    def test_equivalence_tracks_the_spiral(self):
        # pencil 0/infinity, radii ratio 2: one winding advances the
        # radius by 2, so a quarter turn pairs with the factor 2**(1/4)
        T = (self.c((0, 0, 1, 0)), self.c(UNIT), self.c((1, 0, 0, -4)))
        s = 2.0 ** 0.25
        good = (self.c((0.0, -1.0, 0.0, 0.0)),
                self.c((1.0, 0.0, 0.0, -s * s)),
                self.c((1.0, 0.0, 0.0, -4 * s * s)))
        assert loxodrome_triples_equivalent(T, good)
        b = 2.0 ** 0.5
        off = (self.c((0.0, -1.0, 0.0, 0.0)),
               self.c((1.0, 0.0, 0.0, -b * b)),
               self.c((1.0, 0.0, 0.0, -4 * b * b)))
        assert not loxodrome_triples_equivalent(T, off)

    def test_equivalence_needs_the_same_pencil(self):
        T = (self.c((0, 0, 1, 0)), self.c(UNIT), self.c((1, 0, 0, -4)))
        far = (self.c((0, 0, 1, 0)), self.c((1, 5, 0, 24)),
               self.c((1, 5, 0, 21)))
        assert loxodrome_triple_ok(far)
        assert not loxodrome_triples_equivalent(T, far)

    def test_equivalence_needs_matching_ratio(self):
        T = (self.c((0, 0, 1, 0)), self.c(UNIT), self.c((1, 0, 0, -4)))
        S = (self.c((0, 0, 1, 0)), self.c(UNIT), self.c((1, 0, 0, -9)))
        assert not loxodrome_triples_equivalent(T, S)

    def test_bad_triples_raise(self):
        T = (self.c((0, 0, 1, 0)), self.c(UNIT), self.c((1, 0, 0, -4)))
        with pytest.raises(InvalidTriple):
            loxodrome_triples_equivalent(
                T, (self.c((1, 0, 0, -9)), self.c(UNIT),
                    self.c((1, 0, 0, -4))))

    def test_tangent_pencil_raises(self):
        tangent_pair = (self.c((0, 0, 1, 0)), self.c(UNIT),
                        self.c((1, 3, 0, 5)))
        assert loxodrome_triple_ok(tangent_pair)
        with pytest.raises(InvalidTriple):
            loxodrome_triples_equivalent(tangent_pair, tangent_pair)


class TestNinePoint:
    @staticmethod
    def assert_centres(r):
        # a reported point is its instance's centre() in value and type,
        # and so is the centre read off a copy of its row with no form
        # cached; None for a flat instance
        for lab, point in r.points.items():
            cyc = r.figure.instances(lab)[0]
            for c in (cyc, Cycle.from_row(cyc.metric, cyc.row())):
                want = None if c.k == 0 else c.center()
                assert point == want, lab
                assert type(point) is type(want), lab
                assert [type(v) for v in point or ()] == \
                    [type(v) for v in want or ()], lab

    def test_classical_circle(self):
        r = nine_point_figure((0, 0), (4, 0), (1, 3))
        assert r.verdict
        assert r.kind == "circle"
        assert r.conic.center() == (F(3, 2), 1)
        assert r.conic.radius_sq() == F(5, 4)
        assert r.points["H"] == (1, 1)

    def test_all_nine_points_reported(self):
        r = nine_point_figure((0, 0), (4, 0), (1, 3))
        assert r.points["mid_AB"] == (2, 0)
        assert r.points["mid_BC"] == (F(5, 2), F(3, 2))
        assert r.points["foot_C"] == (1, 0)
        assert r.points["mid_CH"] == (1, 2)

    def test_hyperbolic_metric(self):
        r = nine_point_figure((0, 0), (4, 0), (1, 2), metric=H2)
        assert r.verdict
        assert r.kind == "equilateral-hyperbola"
        assert tuple(r.conic.canonical().row()) == (1, F(3, 2), F(-1, 8), 2)

    def test_hyperbolic_null_side_degenerates(self):
        # B - C = (3, -3) is a null direction of the h point metric
        with pytest.raises(Degenerate):
            nine_point_figure((0, 0), (4, 0), (1, 3), metric=H2)

    def test_finite_stand_in_for_infinity(self):
        r = nine_point_figure((0, 0), (4, 0), (1, 3), n=(10, 10))
        assert r.verdict
        assert r.kind == "circle"
        self.assert_centres(r)

    def test_finite_stand_in_hyperbolic(self):
        r = nine_point_figure((0, 0), (4, 0), (1, 2), n=(10, 3), metric=H2)
        assert r.verdict
        assert r.kind == "equilateral-hyperbola"
        self.assert_centres(r)

    def test_right_angle_at_a_degenerates_at_diam_ah(self):
        # H = A: the cycle orthogonal to A, H and alt_A is not determined
        with pytest.raises(Degenerate, match="^diam_AH: expected one "
                                             "instance, got parametric"):
            nine_point_figure((0, 0), (4, 0), (0, 3))

    @pytest.mark.parametrize("n", [None, (F(1, 3), F(-2, 5))])
    def test_lines_through_h_are_the_altitudes(self, n, monkeypatch):
        # 17 solves and 6 reflections; diam_vH is orthogonal to v, H and
        # alt_v, the line through v and H
        solves = []
        real = figure.solve
        monkeypatch.setattr(figure, "solve",
                            lambda *a, **k: solves.append(1) or real(*a, **k))
        fig = nine_point_figure((0, 0), (4, 0), (1, 3), n=n).figure
        assert len(solves) == 17
        kinds = [fig.node(lab).kind for lab in fig.labels()]
        assert kinds.count("rel") == 17 and kinds.count("reflection") == 6
        assert not [lab for lab in fig.labels() if lab.startswith("line_")]
        for v in "ABC":
            assert fig.node("diam_" + v + "H").solve_parents() == (
                v, "H", "alt_" + v)

    def test_float_figure_with_a_finite_n(self):
        n = (F(1, 3), F(-2, 5))
        exact = nine_point_figure((0, 0), (4, 0), (1, 3), n=n)
        r = nine_point_figure((0.0, 0.0), (4.0, 0.0), (1.0, 3.0), n=n,
                              arithmetic="float")
        assert r.verdict
        assert r.kind == "circle"
        for lab, point in exact.points.items():
            assert r.points[lab] == pytest.approx(point, abs=1e-9), lab

    def test_null_product_axis_is_refused_before_solving(self, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("solve ran for a null product axis")

        monkeypatch.setattr(figure, "solve", no_solve)
        with pytest.raises(Degenerate, match="null axis"):
            nine_point_figure((0, 0), (4, 0), (1, 3), metric=Metric.named("p"))

    def test_collinear_triangle_degenerates(self):
        with pytest.raises(Degenerate):
            nine_point_figure((0, 0), (1, 0), (2, 0))

    def test_repeated_vertex_degenerates(self):
        with pytest.raises(Degenerate):
            nine_point_figure((0, 0), (1, 0), (0, 0))

    def test_random_rational_triangles_elliptic(self):
        rng = random.Random(11)
        done = 0
        while done < 15:
            tri = [(F(rng.randint(-8, 8), rng.randint(1, 3)),
                    F(rng.randint(-8, 8), rng.randint(1, 3)))
                   for _ in range(3)]
            try:
                r = nine_point_figure(*tri)
            except Degenerate:
                continue
            assert r.verdict, tri
            assert r.kind == "circle"
            self.assert_centres(r)
            done += 1

    def test_random_rational_triangles_hyperbolic(self):
        rng = random.Random(12)
        done = 0
        while done < 15:
            tri = [(F(rng.randint(-8, 8), rng.randint(1, 3)),
                    F(rng.randint(-8, 8), rng.randint(1, 3)))
                   for _ in range(3)]
            try:
                r = nine_point_figure(*tri, metric=H2)
            except Degenerate:
                continue
            assert r.verdict, tri
            assert r.kind == "equilateral-hyperbola"
            self.assert_centres(r)
            done += 1

    def test_float_arithmetic_agrees(self):
        r = nine_point_figure((0.0, 0.0), (4.0, 0.0), (1.0, 3.0),
                              arithmetic="float")
        assert r.verdict
        cx, cy = r.conic.center()
        assert abs(cx - 1.5) < 1e-9 and abs(cy - 1.0) < 1e-9
