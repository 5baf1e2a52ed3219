"""A caller's Arithmetic is configuration only: calls that take one work in a
private clone, so radicands and demotions never leak from call to call."""

from fractions import Fraction as F

from cyclekit.cycle import Cycle, Metric
from cyclekit.figure import REAL_LINE, Figure, is_point, orthogonal
from cyclekit.numerics import Arithmetic, QuadExt, is_exact
from cyclekit.poincare import (extension_point_ell, fixed_points,
                               interval_endpoints)

E = Metric.named("e")


def assert_untouched(ar):
    assert ar.radicand is None
    assert ar.demoted is False
    assert ar.notes == []


def test_poincare_calls_with_different_radicands_share_one_context():
    ar = Arithmetic("exact")
    u, v = extension_point_ell(0, 2, 1, 4, ar)            # needs sqrt(2)
    assert v == QuadExt(0, F(2, 3), 2)
    u, v = extension_point_ell(0, 3, 1, 5, ar)            # needs sqrt(5)
    assert (u, v) == (F(5, 3), QuadExt(0, F(2, 3), 5))
    u, v = extension_point_ell(F(-2), F(1, 2), F(-1), F(1), ar)
    assert (u, v) == (0, 1) and is_exact(v)
    lo, hi = interval_endpoints(((0, 3), (1, 0)), ar)     # needs sqrt(3)
    assert (lo, hi) == (QuadExt(0, -1, 3), QuadExt(0, 1, 3))
    roots = fixed_points(((0, 7), (1, 0)), ar)            # needs sqrt(7)
    assert roots == [QuadExt(0, -1, 7), QuadExt(0, 1, 7)]
    assert_untouched(ar)


def test_normalized_product_with_different_radicands_shares_one_context():
    ar = Arithmetic("exact")
    unit = Cycle.from_row(E, (1, 0, 0, -1))
    rows = [(1, 0, 0, -2), (1, 1, 0, -2), (1, 3, 0, 5)]   # sqrt 2, sqrt 3, Q
    got = [unit.normalized_product(Cycle.from_row(E, r), ar) for r in rows]
    assert got == [QuadExt(0, F(-3, 4), 2), QuadExt(0, F(-1, 2), 3), 1]
    assert all(is_exact(v) for v in got)
    assert_untouched(ar)


def test_figure_measure_pairs_do_not_share_a_radicand():
    # B holds two circles about the origin with squared radii 2 and 16/5,
    # so the two pairs against the unit circle live in Q(sqrt 2), Q(sqrt 5)
    fig = Figure()
    fig.add_cycle((1, 0, 0, -1), "unit")
    fig.add_cycle((1, 1, 0, 0), "circ")
    fig.add_cycle((0, 1, 3, 8), "line")
    fig.add_cycle((0, 1, 0, 0), "yaxis")
    fig.add_cycle_rel([is_point(), orthogonal("circ"), orthogonal("line")], "P")
    fig.add_cycle_rel([orthogonal(REAL_LINE), orthogonal("yaxis"),
                       orthogonal("P")], "B")
    values = [v for _, v in fig.measure("B", "unit", "normalized_product")]
    assert values == [QuadExt(0, F(-3, 4), 2), QuadExt(0, F(-21, 40), 5)]
    powers = [v for _, v in fig.measure("B", "unit", "steiner_power")]
    assert powers == [QuadExt(-3, 2, 2), QuadExt(F(-21, 5), F(8, 5), 5)]
