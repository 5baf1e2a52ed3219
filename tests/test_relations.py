import itertools
import math
import random
from collections import Counter
from fractions import Fraction as F

import pytest

from cyclekit import numerics, relations
from cyclekit.cycle import Cycle, Metric
from cyclekit.numerics import QuadExt
from cyclekit.relations import (
    BranchOverflow, InversiveDistance, IsFlat, IsLobachevskyLine, IsOrthogonal,
    IsPoint, IsTangent, OnlyReals, PassesThrough, Relation, SteinerPower,
    check, linear_solve, row_product, solve,
)

E = Metric.named("e")
UNIT = Cycle(E, 1, (0, 0), -1)
REAL = Cycle.real_line(E)
VAXIS = Cycle(E, 0, (1, 0), 0)


def rows_of(sol):
    return [c.row() for c in sol.cycles]


class TestLinearStage:
    def test_exact_unique(self):
        rows = [((F(1), F(0)), F(2)), ((F(1), F(1)), F(5))]
        p, basis = linear_solve(rows, 2).solution()
        assert p == (2, 3) and basis == []

    def test_exact_underdetermined(self):
        rows = [((F(1), F(2), F(0)), F(0))]
        p, basis = linear_solve(rows, 3).solution()
        assert p == (0, 0, 0)
        assert len(basis) == 2
        for v in basis:
            assert v[0] + 2 * v[1] == 0

    def test_inconsistent(self):
        rows = [((F(1), F(1)), F(1)), ((F(2), F(2)), F(3))]
        p, basis = linear_solve(rows, 2).solution()
        assert p is None and basis is None

    def test_float_rank_threshold(self):
        rows = [((1.0, 1.0), 1.0), ((1.0, 1.0 + 1e-14), 1.0)]
        p, basis = linear_solve(rows, 2, float).solution()
        assert len(basis) == 1  # the near-duplicate row adds no rank


def test_orthogonal_pair_unique_line():
    sol = solve([IsOrthogonal(UNIT), IsFlat(E), IsOrthogonal(REAL)], E)
    assert sol.status == "finite"
    assert rows_of(sol) == [(0, 1, 0, 0)]  # the vertical axis


def test_parametric_flat_family():
    sol = solve([IsFlat(E), IsOrthogonal(REAL)], E)
    assert sol.status == "parametric"
    assert sol.projective_dim == 1
    for c in sol.span:
        assert c.k == 0 and c.l[1] == 0


def test_three_collinear_points_give_the_line():
    rels = [PassesThrough(E, (F(i), F(0))) for i in (0, 1, 2)]
    sol = solve(rels, E)
    assert rows_of(sol) == [(0, 0, 1, 0)]


def test_four_generic_points_infeasible():
    pts = [(0, 0), (1, 0), (0, 1), (3, 5)]
    sol = solve([PassesThrough(E, (F(u), F(v))) for u, v in pts], E)
    assert sol.status == "infeasible"


@pytest.mark.parametrize("seed", range(5))
def test_float_points_solve_alike_in_exact_and_float_mode(seed):
    # four float points on one circle: exact mode must not run exact
    # elimination on float rows, where rounding noise reads as inconsistency
    rng = random.Random(seed)
    cx, cy, r = rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(0.5, 5)
    rels = []
    for _ in range(4):
        t = rng.uniform(0, 2 * math.pi)
        rels.append(PassesThrough(E, (cx + r * math.cos(t),
                                      cy + r * math.sin(t))))
    want = solve(rels, E, "float")
    got = solve(rels, E, "exact")
    assert len(want) == 1
    assert [c.key() for c in got] == [c.key() for c in want]


class TestTouchCentres:
    """Tangent lines to the unit circle, their touch points, and the
    orthogonal cycles through a fixed outside point: all exact."""

    def test_vertical_tangent_lines(self):
        sol = solve([IsTangent(UNIT), IsOrthogonal(Cycle.infinity(E)),
                     IsOrthogonal(REAL)], E)
        assert sol.status == "finite" and not sol.demoted
        assert rows_of(sol) == [(0, 1, 0, -2), (0, 1, 0, 2)]

    def test_touch_points(self):
        for mline, expect in ((2, (1, 1, 0, 1)), (-2, (1, -1, 0, 1))):
            line = Cycle(E, 0, (1, 0), mline)
            sol = solve([IsOrthogonal(UNIT), IsOrthogonal(line), IsPoint(E)], E)
            assert rows_of(sol) == [expect]
            assert not sol.demoted

    def test_orthogonal_through_point(self):
        got = []
        for mline in (2, -2):
            line = Cycle(E, 0, (1, 0), mline)
            touch = solve([IsOrthogonal(UNIT), IsOrthogonal(line), IsPoint(E)], E).cycles[0]
            sol = solve([IsOrthogonal(touch), IsOrthogonal(UNIT),
                         PassesThrough(E, (F(1), F(2)))], E)
            got.extend(rows_of(sol))
        assert (1, 1, 1, 1) in got
        assert (1, -1, 2, 1) in got
        # the two results meet the tangent lines orthogonally
    def test_results_orthogonal_to_lines(self):
        r1 = Cycle(E, 1, (1, 1), 1)
        r2 = Cycle(E, 1, (-1, 2), 1)
        l1 = Cycle(E, 0, (1, 0), 2)
        l2 = Cycle(E, 0, (1, 0), -2)
        assert check([IsOrthogonal(l1)], r1)
        assert check([IsOrthogonal(l2)], r2)


def test_point_mode_downgrades_tangency():
    sol = solve([IsPoint(E), IsTangent(UNIT), IsOrthogonal(REAL)], E)
    assert sol.status == "finite" and not sol.demoted
    assert rows_of(sol) == [(1, -1, 0, 1), (1, 1, 0, 1)]


def test_inversive_distance_concentric():
    sol = solve([InversiveDistance(UNIT, F(-5, 4)), IsOrthogonal(REAL),
                 IsOrthogonal(VAXIS)], E)
    assert sol.status == "finite" and not sol.demoted
    assert rows_of(sol) == [(1, 0, 0, -4), (1, 0, 0, F(-1, 4))]


def test_tangency_variants():
    # circles centered on the u-axis through (3,0) tangent to the unit circle
    pins = [PassesThrough(E, (F(3), F(0))), IsOrthogonal(REAL)]
    ext = solve([IsTangent(UNIT, "external")] + pins, E)
    assert rows_of(ext) == [(1, 2, 0, 3)]
    inn = solve([IsTangent(UNIT, "internal")] + pins, E)
    assert rows_of(inn) == [(1, 1, 0, -3)]
    both = solve([IsTangent(UNIT, "both")] + pins, E)
    assert len(both.cycles) == 2


def test_steiner_power_oracle():
    big = Cycle.circle(E, (F(3), F(0)), F(4))
    assert check([SteinerPower(big, F(8))], UNIT)
    assert not check([SteinerPower(big, F(7))], UNIT)
    sol = solve([SteinerPower(big, F(8)), IsOrthogonal(REAL),
                 PassesThrough(E, (F(1), F(0)))], E)
    assert any(c.same_cycle(UNIT) for c in sol.cycles)
    for c in sol.cycles:
        assert check([SteinerPower(big, F(8))], c)


def test_rational_answers_after_a_root_come_back_as_fractions():
    # the tangency takes sqrt(2) on the way; both answers are rational
    pin = SteinerPower(Cycle.zero_radius_at(E, (3, 0)), 1)
    sol = solve([pin, IsTangent(UNIT), IsOrthogonal(REAL)], E)
    assert sol.status == "finite" and not sol.demoted
    assert rows_of(sol) == [(1, F(7, 8), 0, F(-11, 4)), (1, F(7, 4), 0, F(5, 2))]
    assert all(type(v) is F for row in rows_of(sol) for v in row)


def test_steiner_point_mode():
    # points of power 8 against the circle: distance sqrt(12) from its center
    big = Cycle.circle(E, (F(3), F(0)), F(4))
    sol = solve([SteinerPower(big, F(8)), IsPoint(E), IsOrthogonal(REAL)], E)
    assert sol.status == "finite" and not sol.demoted
    assert len(sol.cycles) == 2
    for c in sol.cycles:
        z = c.canonical()
        assert z.self_product() == 0
        assert 8 * z.k - z.product(big) == 0  # big already has k = 1
        u = z.l[0] / z.k
        assert (u - 3) ** 2 == 12


def test_apollonius_eight():
    a = Cycle.circle(E, (F(0), F(0)), F(1))
    b = Cycle.circle(E, (F(4), F(0)), F(1))
    c = Cycle.circle(E, (F(2), F(3)), F(1))
    sol = solve([IsTangent(a), IsTangent(b), IsTangent(c)], E)
    assert sol.status == "finite"
    assert len(sol.cycles) == 8
    for x in sol.cycles:
        for ref in (a, b, c):
            assert abs(abs(x.normalized_product(ref)) - 1) < 1e-9


def test_descartes_curvatures():
    r3 = math.sqrt(3)
    a = Cycle.circle(E, (0.0, 0.0), 1.0)
    b = Cycle.circle(E, (2.0, 0.0), 1.0)
    c = Cycle.circle(E, (1.0, r3), 1.0)
    sol = solve([IsTangent(a), IsTangent(b), IsTangent(c)], E, arithmetic="float")
    radii = sorted(math.sqrt(x.radius_sq()) for x in sol.cycles)
    assert any(abs(r - 1 / (3 + 2 * r3)) < 1e-9 for r in radii)
    assert any(abs(r - 1 / (2 * r3 - 3)) < 1e-9 for r in radii)
    # each given circle is itself a (double-root) solution here, so the set
    # is the two new circles plus the three originals
    assert len(sol.cycles) == 5
    assert sum(1 for x in sol.cycles
               if any(x.same_cycle(y.canonical(), digits=6) for y in (a, b, c))) == 3


def test_tangent_to_zero_radius_degrades(caplog):
    pt = Cycle.zero_radius_at(E, (F(1), F(0)))
    sol = solve([IsTangent(pt), IsFlat(E), IsOrthogonal(REAL)], E)
    # tangency to a point is incidence: vertical lines through (1, 0)
    assert rows_of(sol) == [(0, 1, 0, 2)]


def test_branch_overflow():
    refs = [Cycle.circle(E, (F(5 * i), F(0)), F(1)) for i in range(7)]
    with pytest.raises(BranchOverflow):
        solve([IsTangent(r) for r in refs], E)


def test_demotion_on_second_radicand():
    a = Cycle.circle(E, (F(0), F(0)), F(1))    # <a,a> = -2, sqrt2
    b = Cycle.circle(E, (F(5), F(0)), F(3))    # <b,b> = -6, sqrt6: demote
    sol = solve([IsTangent(a), IsTangent(b), IsOrthogonal(REAL)], E)
    assert sol.demoted
    assert sol.status == "finite"
    for x in sol.cycles:
        assert abs(abs(x.normalized_product(a)) - 1) < 1e-9
        assert abs(abs(x.normalized_product(b)) - 1) < 1e-9


def test_a_radicand_from_the_data_demotes_a_second_one():
    # tangencies to radius s*sqrt(2) circles have rational rhs, and an
    # inversive distance of sqrt(3)/2 puts the rhs over sqrt 3 while no
    # root was taken: the context holds sqrt 3 from the data, so a root
    # over another radicand, as system 30's over sqrt 5, demotes with a
    # note instead of clashing
    theta = QuadExt(0, F(1, 2), 3)
    kinds = Counter()
    for i in range(300):
        rng = random.Random(f"radicand-from-data:{i}")
        q = lambda lo, hi, den: F(rng.randint(lo, hi), rng.randint(1, den))
        refs = [Cycle.circle(E, (q(-6, 6, 2), q(-6, 6, 2)),
                             2 * q(1, 4, 2) ** 2) for _ in range(3)]
        rels = [IsTangent(refs[0]), IsTangent(refs[1]),
                InversiveDistance(refs[2], theta)]
        sol = solve(rels, E)
        kinds[sol.demoted] += 1
        assert all(check(rels, x) for x in sol.cycles)
        if i == 30:
            assert sol.demoted and sol.status == "finite"
            assert "second radicand 5 incompatible with 3" in sol.notes
    assert kinds[True] > 250 and kinds[False] > 10


def test_a_rational_rhs_from_radicals_is_eliminated_over_the_ints(
        monkeypatch):
    # theta = sqrt(2)/2 times sqrt|<R,R>| = sqrt 2 is the rational 1: a
    # value with no radical part is a Fraction, so the rows are read as
    # rational and eliminated over the ints, not over Z[sqrt 2]
    seen = []

    def spy(rows, nunk, ring=None):
        red = linear_solve(rows, nunk, ring)
        seen.append(([rhs for _, rhs in rows], red.ring))
        return red

    monkeypatch.setattr(relations, "linear_solve", spy)
    rels = [InversiveDistance(Cycle.circle(E, (1, 2), 1),
                              QuadExt(0, F(1, 2), 2)),
            IsOrthogonal(Cycle.circle(E, (3, 0), 1)), PassesThrough(E, (0, 0))]
    sol = solve(rels, E)
    assert seen == [([(F(1),), (0,), (0,)], int)]
    assert type(seen[0][0][0][0]) is F
    assert sol.demoted and [repr(c.row()) for c in sol.cycles] == \
        ["(0.75, 1.0, -0.10551611250369008, 0.0)"]
    sol = solve(rels, E, "float")
    assert seen[1][1] is float
    assert [repr(c.row()) for c in sol.cycles] == \
        ["(0.7499999999999999, 1.0, -0.10551611250369013, 0.0)"]


def test_a_rhs_over_one_radicand_is_eliminated_over_it_and_adopted(
        monkeypatch):
    # system 30 of test_a_radicand_from_the_data_demotes_a_second_one:
    # rational rows whose rhs is over sqrt 3 are eliminated over Z[sqrt 3],
    # and the context adopts 3 from the rhs, so each root over sqrt 5
    # demotes with a note; the demoted rows and the notes are pinned
    seen = []

    def spy(rows, nunk, ring=None):
        red = linear_solve(rows, nunk, ring)
        seen.append(red.ring)
        return red

    monkeypatch.setattr(relations, "linear_solve", spy)
    refs = [Cycle.circle(E, (F(0), F(-3)), F(18)),
            Cycle.circle(E, (F(1), F(2)), F(2)),
            Cycle.circle(E, (F(-3, 2), F(-3)), F(18))]
    sol = solve([IsTangent(refs[0]), IsTangent(refs[1]),
                 InversiveDistance(refs[2], QuadExt(0, F(1, 2), 3))], E)
    assert seen == [QuadExt]
    assert sol.demoted and sol.notes == [
        "second radicand 5 incompatible with 3",
        "second radicand 5 incompatible with 3",
        "nested radical sqrt(QuadExt(433/9, -80/3, sqrt=3))",
        "nested radical sqrt(QuadExt(433/9, 80/3, sqrt=3))"]
    assert [repr(c.row()) for c in sol.cycles] == [
        "(0.2811148983831685, -0.2718883367738444, 0.4828554550855609, 1.0)",
        "(0.31665148512547603, 0.5764504096889891, 0.09021625697767757, 1.0)",
        "(0.7424863616675849, -0.17920169209804046, 0.8458683587647071, 1.0)",
        "(0.8031239501135529, 0.5752635515777575, 0.7224805440320778, 1.0)",
        "(0.8887142961897686, 0.18381121158110578, 0.938555003440511, 1.0)"]


def test_a_scaled_demand_is_reported_as_its_sign(monkeypatch):
    # a circle of radius 1 has <R,R> = -2, so an exact solve scales the
    # demand <x,x> = -1 to -2 and the tangency rhs sqrt(2 * 2) = 2 is
    # rational; the family it leaves parametric reports the sign, and a
    # float solve keeps the demand as it is
    seen = []
    branch = relations._solve_branch

    def spy(metric, red, column, demand, ar, bases):
        seen.append(demand)
        return branch(metric, red, column, demand, ar, bases)

    monkeypatch.setattr(relations, "_solve_branch", spy)
    rels = [IsTangent(Cycle.circle(E, (0, 0), 1))]
    for mode, demand in (("exact", -2), ("float", -1)):
        sol = solve(rels, E, mode)
        assert seen.pop() == demand
        assert (sol.status, sol.residual_demand) == ("parametric", -1)


def test_lobachevsky_and_onlyreals():
    sol = solve([IsLobachevskyLine(E), PassesThrough(E, (F(0), F(1))),
                 PassesThrough(E, (F(0), F(2))), OnlyReals(E)], E)
    assert rows_of(sol) == [(0, 1, 0, 0)]  # the v-axis geodesic


def test_row_product_matches_cycle_product():
    a = Cycle(E, F(2), (F(1), F(-3)), F(4))
    b = Cycle(E, F(-1), (F(2), F(5)), F(0))
    assert row_product(E, a.row(), b.row()) == a.product(b)


def test_orthogonality_row_of_a_radical_reference_is_its_coeffs():
    # only a rational reference's row is read off its primitive int row;
    # a QuadExt row keeps its pairing coefficients
    for ref in (Cycle(E, QuadExt(2, 1, 2), (F(1), F(0)), 3),
                Cycle(E, 1, (QuadExt(0, 1, 2), F(0)), 1)):
        rel = IsOrthogonal(ref)
        assert rel.row(True) == rel.coeffs
    assert IsOrthogonal(Cycle(E, F(2), (F(1), F(0)), 3)).row(True) == \
        (3, -2, 0, 2)


@pytest.mark.parametrize("ref", [UNIT, Cycle(Metric.from_signature(3), 1,
                                             (0, 0, 0), -1)])
def test_check_refuses_a_reference_in_another_metric(ref):
    # exact rational rows on both sides: the pairing still checks metrics
    with pytest.raises(ValueError, match="product metric mismatch"):
        check([IsOrthogonal(ref)], Cycle(Metric.named("h"), 1, (0, 0), -1))


class TestBuildOncePerSolve:
    """Each row is built once per solve, and each pair of sign patterns
    sigma, -sigma is solved once."""

    @pytest.fixture
    def calls(self, monkeypatch):
        tally = Counter()

        def counted(name, fn):
            def wrapper(*args):
                tally[name] += 1
                return fn(*args)
            return wrapper

        def classes(cls):
            return [cls] + [c for sub in cls.__subclasses__()
                            for c in classes(sub)]

        for cls in classes(Relation):
            if "build" in vars(cls):
                monkeypatch.setattr(cls, "build",
                                    counted("build", vars(cls)["build"]))
        monkeypatch.setattr(relations, "linear_solve",
                            counted("linear_solve", relations.linear_solve))
        return tally

    def test_three_tangencies(self, calls):
        refs = [Cycle.circle(E, c, F(1)) for c in ((0, 0), (4, 0), (2, 3))]
        sol = solve([IsTangent(r) for r in refs], E)
        assert len(sol.cycles) == 8
        assert calls == {"build": 3, "linear_solve": 1}
        assert all(pattern[0] == 1 for pattern, _ in sol.provenance)

    def test_float_signed_rows_are_one_elimination(self, calls):
        refs = [Cycle.circle(E, c, F(1)) for c in ((0, 0), (4, 0), (2, 3))]
        sol = solve([IsTangent(r) for r in refs], E, "float")
        assert len(sol.cycles) == 8
        assert calls == {"build": 3, "linear_solve": 1}

    def test_one_pattern_is_one_elimination(self, calls):
        sol = solve([IsTangent(UNIT), IsOrthogonal(REAL),
                     PassesThrough(E, (F(3), F(0)))], E)
        assert [pattern for pattern, _ in sol.provenance] == [(1, None, None)] * 2
        assert calls == {"build": 3, "linear_solve": 1}

    def test_two_radicands_are_one_elimination(self, calls):
        # a sqrt(3) reference entry against sqrt(2) tangency rhs
        refs = [Cycle(E, 1, (1, 0), 0), Cycle(E, 1, (-1, 0), 0),
                Cycle(E, 1, (0, QuadExt(0, 1, 3)), 2)]
        with pytest.raises(numerics.RadicalClash):
            solve([IsTangent(r) for r in refs], E)
        assert calls["linear_solve"] == 1

    def test_no_signed_row_is_one_branch(self, calls):
        # three homogeneous int rows in the plane: their 3x3 minors are the
        # one candidate, with no elimination
        sol = solve([IsOrthogonal(UNIT), IsFlat(E), IsOrthogonal(REAL)], E)
        assert [pattern for pattern, _ in sol.provenance] == [(None,) * 3]
        assert calls == {"build": 3}
        assert calls["linear_solve"] == 0

    def test_point_mode_builds_nothing(self, calls):
        # two int rows against the point demand: a pencil read off their
        # 2x2 minors, with no elimination
        sol = solve([IsPoint(E), IsTangent(UNIT), IsOrthogonal(REAL)], E)
        assert len(sol.cycles) == 2
        assert calls["build"] == calls["linear_solve"] == 0

    def test_the_same_relations_in_space_are_one_elimination(self, calls):
        s3 = Metric.from_signature(3)
        unit, real = Cycle(s3, 1, (0, 0, 0), -1), Cycle.real_line(s3)
        solve([IsOrthogonal(unit), IsFlat(s3), IsOrthogonal(real)], s3)
        assert calls["linear_solve"] == 1
        sol = solve([IsPoint(s3), IsTangent(unit), IsOrthogonal(real)], s3)
        assert sol.status == "parametric"
        assert calls["linear_solve"] == 2

    def test_rank_deficient_plane_rows_are_one_elimination(self, calls):
        # a repeated reference leaves rank 2 of three rows, and rank 1 of
        # two: every minor is 0, and the elimination answers
        sol = solve([IsOrthogonal(UNIT), IsOrthogonal(UNIT.scaled(2)),
                     IsFlat(E)], E)
        assert sol.status == "parametric" and len(sol.span) == 2
        assert calls["linear_solve"] == 1
        sol = solve([IsPoint(E), IsOrthogonal(UNIT), IsOrthogonal(UNIT)], E)
        assert sol.status == "parametric"
        assert calls["linear_solve"] == 2

    def test_power_against_a_point_is_unsigned(self, calls):
        # <R_k,R_k> = 0 gives rhs 0: one pattern, not two
        point = Cycle.zero_radius_at(E, (F(3), F(0)))
        sol = solve([SteinerPower(point, F(1)), IsTangent(UNIT),
                     IsOrthogonal(REAL)], E)
        assert calls["linear_solve"] == 1
        assert [pattern for pattern, _ in sol.provenance] == [(None, 1, None)] * 2

    def test_conflicting_demands_take_no_root(self, calls):
        # references with <R,R> = 2 and 3 would need sqrt 2 and sqrt 3,
        # and the power's demand -1 conflicts with their +1
        refs = [Cycle(E, 1, (0, 0), F(1)), Cycle(E, 1, (0, 0), F(3, 2))]
        assert [r.self_product() for r in refs] == [2, 3]
        sol = solve([IsTangent(refs[0]), IsTangent(refs[1]),
                     SteinerPower(UNIT, 1)], E)
        assert sol.status == "infeasible" and not sol.demoted
        assert sol.reason == "conflicting demands [-1, 1]"
        assert calls == {}


class TestToleranceIsReadForFloatCandidates:
    """``solve`` reads MOEBINV_EPS only to verify a float candidate, once
    per solve; an exact candidate's tests are exact, so a malformed value
    raises only from a solve that compares floats (the CLI refuses it up
    front)."""

    RATIONAL = [IsPoint(E), IsOrthogonal(UNIT), IsOrthogonal(REAL)]
    # the unit circle meets the line y = 2x at +-(1, 2)/sqrt(5)
    RADICAL = [IsPoint(E), IsOrthogonal(UNIT),
               IsOrthogonal(Cycle(E, 0, (2, -1), 0))]
    # radius^2 1 and 6 = 3 * 2^2 / 2 lie in two square classes, so the
    # builds pin sqrt 6 and half the answers demote to floats
    DEMOTED = [IsTangent(Cycle.circle(E, c, F(r)))
               for c, r in (((0, 0), 1), ((4, 0), 1), ((2, 3), 6))]

    @pytest.fixture
    def reads(self, monkeypatch):
        tally = Counter()
        read = relations.comparison_eps

        def counted():
            tally["comparison_eps"] += 1
            return read()

        monkeypatch.setattr(relations, "comparison_eps", counted)
        return tally

    def test_exact_candidates_do_not_read_it(self, reads, monkeypatch):
        want = [rows_of(solve(rels, E)) for rels in (self.RATIONAL,
                                                     self.RADICAL)]
        assert [type(c) for row in want[1] for c in row[1:3]] == [QuadExt] * 4
        monkeypatch.setenv("MOEBINV_EPS", "abc")
        assert [rows_of(solve(rels, E)) for rels in (self.RATIONAL,
                                                     self.RADICAL)] == want
        assert reads == {}

    def test_float_candidates_read_it_once(self, reads, monkeypatch):
        sol = solve(self.DEMOTED, E)
        assert [type(c.k) for c in sol.cycles].count(float) == 4
        assert reads == {"comparison_eps": 1}
        monkeypatch.setenv("MOEBINV_EPS", "abc")
        for rels, mode in ((self.DEMOTED, "exact"), (self.RATIONAL, "float")):
            with pytest.raises(ValueError, match="MOEBINV_EPS"):
                solve(rels, E, mode)


class TestFloatFlatCandidates:
    """A flat float candidate carries k at rounding noise; the sign tests
    of tangency, inversive distance and Steiner power skip it as they skip
    an exact k = 0."""

    SYSTEM = [IsTangent(Cycle.from_row(E, (1, F(1, 2), F(5, 2), F(5, 2))),
                        "internal"),
              IsTangent(Cycle.from_row(E, (1, F(5, 2), 3, F(-3, 4))),
                        "external"),
              IsTangent(Cycle.from_row(E, (1, F(7, 2), F(5, 2), F(-13, 2))),
                        "both")]

    def test_float_mode_keeps_the_line(self):
        exact = solve(self.SYSTEM, E, "exact")
        assert rows_of(exact)[0] == (0, 1, 0, -3)
        floats = solve(self.SYSTEM, E, "float")
        assert len(floats.cycles) == len(exact.cycles) == 2
        for want, got in zip(exact.cycles, floats.cycles):
            # projectively equal: each row over its largest entry
            w, g = ([float(v) / max(c.row(), key=abs) for v in c.row()]
                    for c in (want, got))
            assert max(abs(a - b) for a, b in zip(w, g)) < 1e-9

    @pytest.mark.parametrize("rel, line", [
        (IsTangent(UNIT, "internal"), (1, 0, 2)),
        (InversiveDistance(UNIT, F(-1, 2)), (1, 0, 1)),
        (SteinerPower(UNIT, 1), (1, 0, 2))])
    def test_noise_k_is_flat(self, rel, line):
        # each line meets its relation's equation, and its pairing with the
        # unit circle has the sign the relation's sign test refuses, so it
        # holds only because a flat cycle skips that test
        assert rel.satisfied_by(Cycle.from_row(E, (0,) + line), 1e-9)
        line = tuple(map(float, line))
        for k in (0.0, 3e-17, -3e-17):
            assert rel.satisfied_by(Cycle.from_row(E, (k,) + line), 1e-9)


class TestVerificationReadsCanonicalRows:
    """``satisfied_by`` takes the canonical cycle its caller made and
    canonicalises nothing itself; a reference is canonicalised once, when
    its relation is constructed."""

    RELATIONS = [
        IsOrthogonal(REAL), PassesThrough(E, (F(1), F(2))), IsFlat(E),
        IsPoint(E), OnlyReals(E),
        InversiveDistance(Cycle(E, 2, (1, 0), -6), 3),
        IsTangent(Cycle(E, 3, (0, 1), -5), "external"),
        IsTangent(Cycle(E, 1, (0, 0), F(-1, 4)), "internal"),
        SteinerPower(Cycle(E, 2, (2, 0), -4), F(1, 2)),
    ]

    @pytest.mark.parametrize("rel", RELATIONS, ids=repr)
    def test_satisfied_by_makes_no_canonical_call(self, rel, monkeypatch):
        cycles = [c.canonical() for c in
                  (UNIT, VAXIS, Cycle(E, 2, (F(1, 2), 1), 0),
                   Cycle(E, 0.5, (0.25, -1.0), 0.125))]
        calls = Counter()
        canonical = Cycle.canonical

        def counted(cycle):
            calls["canonical"] += 1
            return canonical(cycle)

        monkeypatch.setattr(Cycle, "canonical", counted)
        for c in cycles:
            rel.satisfied_by(c, 1e-9)
        assert calls == {}


class TestVerificationCountsItsWork:
    """A single solution is not keyed for sorting."""

    def test_one_solution_is_not_sort_keyed(self, monkeypatch):
        calls = Counter()
        sort_key = relations._sort_key

        def counted(cycle):
            calls["_sort_key"] += 1
            return sort_key(cycle)

        monkeypatch.setattr(relations, "_sort_key", counted)
        rels = [PassesThrough(E, (F(i), F(0))) for i in (0, 1, 2)]
        assert rows_of(solve(rels, E)) == [(0, 0, 1, 0)]
        assert calls == {}
        # two circles through (2, 0) touch the unit circle and meet the
        # real line at right angles: both are keyed
        sol = solve([IsTangent(UNIT), IsOrthogonal(REAL),
                     PassesThrough(E, (F(2), F(0)))], E)
        assert len(sol.cycles) == calls["_sort_key"] == 2


def test_answers_whose_sort_keys_tie_are_ordered_by_repr(monkeypatch):
    # two points of h a distance 1e-10 apart: both answers round to the
    # same 9-digit sort key, so the tie-break orders them, whatever the
    # order of the relations
    calls = Counter()
    tie_key = relations._tie_key

    def counted(cycle):
        calls["_tie_key"] += 1
        return tie_key(cycle)

    monkeypatch.setattr(relations, "_tie_key", counted)
    H = Metric.named("h")
    eps = F(1, 10**10)
    rels = [PassesThrough(H, (0, 0)), PassesThrough(H, (eps, eps / 2)),
            IsPoint(H)]
    sol = solve(rels, H)
    assert calls == {"_tie_key": 2}
    a, b = sol.cycles
    assert relations._sort_key(a) == relations._sort_key(b)
    assert [repr(v) for v in a.row()] < [repr(v) for v in b.row()]
    for order in itertools.permutations(rels):
        assert rows_of(solve(list(order), H)) == rows_of(sol)
