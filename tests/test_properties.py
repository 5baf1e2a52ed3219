"""Property tests for the exact-or-float decision layer, the Moebius action
on cycles, the solver, figure re-evaluation and the figure JSON round trip.

The examples are drawn by hypothesis under the derandomized profile that
``conftest.py`` loads.
"""

from fractions import Fraction

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from cyclekit import cycle, figure, numerics, poincare, relations
from cyclekit.cycle import Cycle, Metric
from cyclekit.figure import (INFINITY, REAL_LINE, Figure, TooManyInstances,
                             inversive, is_point, only_reals, orthogonal,
                             power, tangent, through)
from cyclekit.numerics import QuadExt, RadicalClash, canonical_row, near_zero
from cyclekit.relations import (BranchOverflow, IsFlat, IsLobachevskyLine,
                                IsOrthogonal, IsPoint, PassesThrough, check,
                                solve)

METRICS = [Metric.named(name) for name in "eph"]
E2 = Metric.named("e")

rationals = st.fractions(min_value=-40, max_value=40, max_denominator=9)
nonzero_rationals = rationals.filter(lambda q: q != 0)
exact_scalars = st.one_of(
    st.integers(-10**6, 10**6), rationals,
    st.builds(lambda a, b: QuadExt(a, b, 2), rationals, rationals))
exact_rows = st.tuples(exact_scalars, exact_scalars, exact_scalars,
                       exact_scalars)
any_rows = st.lists(st.lists(st.one_of(exact_scalars, st.floats(
    allow_nan=False, allow_infinity=False)), max_size=5), max_size=3)


@given(st.sampled_from(METRICS), exact_rows, nonzero_rationals)
def test_key_is_unchanged_by_rational_row_scaling(metric, row, factor):
    c = Cycle.from_row(metric, row)
    assert c.scaled(factor).key() == c.key()


@given(exact_rows, nonzero_rationals)
def test_form_canonical_is_unchanged_by_rational_row_scaling(row, factor):
    # the (n, l, k, m) form of a poincare report is canonical_row at 1e-14
    scaled = tuple(v * factor for v in row)
    assert canonical_row(scaled, 1e-14) == canonical_row(row, 1e-14)


rational_mats = st.tuples(rationals, rationals, rationals, rationals).filter(
    lambda t: t[0] * t[3] != t[1] * t[2]).map(
    lambda t: ((t[0], t[1]), (t[2], t[3])))


@given(st.sampled_from(METRICS), rational_mats, exact_rows, exact_rows)
def test_moebius_action_scales_the_product_by_det_squared(metric, g, r1, r2):
    c1, c2 = Cycle.from_row(metric, r1), Cycle.from_row(metric, r2)
    moved = poincare.act(g, c1).product(poincare.act(g, c2))
    assert moved == poincare.mat_det(g) ** 2 * c1.product(c2)


@given(st.sampled_from(METRICS), rational_mats, exact_rows)
def test_moebius_action_is_det_times_rep4(metric, g, row):
    c = Cycle.from_row(metric, row)
    moved = poincare.act(g, c)
    T, det = poincare.rep4(g), poincare.mat_det(g)
    nlkm = (c.l[1], c.l[0], c.k, c.m)
    assert (moved.l[1], moved.l[0], moved.k, moved.m) == tuple(
        det * sum(T[i][j] * nlkm[j] for j in range(4)) for i in range(4))


@given(exact_scalars, st.floats(min_value=0.0, allow_nan=False), any_rows)
def test_near_zero_is_strict_on_exact_values(v, eps, rows):
    assert near_zero(v, eps, *rows) == (v == 0)


@st.composite
def linear_systems(draw):
    """Three orthogonality or incidence relations against random rational
    data, or two plus the zero-radius demand: one sign branch, at most one
    radicand, and most systems finite."""
    metric = draw(st.sampled_from(METRICS))
    point = st.tuples(rationals, rationals)
    ref = st.builds(lambda k, l1, l2, m: Cycle(metric, k, (l1, l2), m),
                    st.sampled_from([0, 1]), rationals, rationals,
                    rationals).filter(lambda c: any(c.row()))
    one = st.one_of(
        st.builds(IsOrthogonal, ref),
        st.builds(lambda p: PassesThrough(metric, p), point),
        st.just(IsFlat(metric)),
        st.just(IsLobachevskyLine(metric)))
    rels = draw(st.lists(one, min_size=2, max_size=3, unique_by=repr))
    if len(rels) == 2:
        rels.append(IsPoint(metric))
    return metric, rels


@given(linear_systems())
def test_exact_solve_never_computes_a_float_scale(system):
    metric, rels = system
    calls, row_scale = [], numerics.row_scale

    def counted(values):
        calls.append(values)
        return row_scale(values)

    with pytest.MonkeyPatch.context() as mp:
        for mod in (numerics, relations, cycle, poincare, figure):
            mp.setattr(mod, "row_scale", counted)
        sol = solve(rels, metric)
        for c in sol.cycles:
            check(rels, c)
    assert not sol.demoted
    assert calls == []


@given(linear_systems())
def test_every_exact_solution_passes_check(system):
    metric, rels = system
    sol = solve(rels, metric)
    for c in sol.cycles:
        assert all(numerics.is_exact(v) for v in c.row())
        assert check(rels, c)
        assert check(rels, c.scaled(Fraction(-3, 7)))


float_entries = st.floats(min_value=-10, max_value=10).filter(
    lambda v: abs(v) > 0.5)


@st.composite
def float_pencils(draw):
    """Two float cycle pairs in metric e: the second pair either spans the
    pencil of the first (well-conditioned combinations) or swaps in a
    random row that leaves it."""
    metric = Metric.named("e")
    rows = st.tuples(float_entries, float_entries, float_entries,
                     float_entries)
    r2, r3 = draw(rows), draw(rows)
    a, b, c, d = draw(st.tuples(*[st.integers(-5, 5)] * 4).filter(
        lambda t: abs(t[0] * t[3] - t[1] * t[2]) >= 1))
    mix = lambda s, t: tuple(s * x + t * y for x, y in zip(r2, r3))
    other = [mix(a, b), mix(c, d)]
    if draw(st.booleans()):
        other[1] = draw(rows)
    cycles = [Cycle.from_row(metric, r) for r in (r2, r3, *other)]
    return cycles, draw(st.integers(0, 3)), draw(st.integers(-12, 12))


@given(float_pencils())
def test_pencil_span_is_unchanged_by_scaling_one_row(case):
    cycles, which, k = case
    want = figure.pairs_span_same_pencil(cycles[:2], cycles[2:])
    cycles[which] = cycles[which].scaled(10.0 ** k)
    assert figure.pairs_span_same_pencil(cycles[:2], cycles[2:]) == want


def edit_figure():
    """Points A, B, C and the unit circles K and U; T through A and B
    tangent to K (two instances, often in Q(sqrt d)); X where T meets the
    line L = AB again (``avoid`` drops A); W where U meets
    the real line, less C (its only link to an edited node is ``avoid``);
    S the line BC from a subfigure; Y the perpendicular from A to S."""
    fig = Figure()
    for label, pt in zip("ABC", [(-2, 1), (3, 2), (1, -3)]):
        fig.add_point(pt, label)
    for label in "KU":
        fig.add_cycle(Cycle.circle(E2, (0, 0), 1), label)
    fig.add_cycle_rel([tangent("K"), orthogonal("A"), orthogonal("B")], "T")
    fig.add_cycle_rel([orthogonal("A"), orthogonal("B"),
                       orthogonal(INFINITY)], "L")
    fig.add_cycle_rel([orthogonal("T"), orthogonal("L"), is_point()], "X",
                      avoid=("A",))
    fig.add_cycle_rel([orthogonal("U"), orthogonal(REAL_LINE), is_point()],
                      "W", avoid=("C",))
    inner = Figure()
    inner.add_point((0, 0), "p")
    inner.add_point((1, 0), "q")
    inner.add_cycle_rel([orthogonal("p"), orthogonal("q"),
                         orthogonal(INFINITY)], "line")
    fig.add_subfigure(inner, {"p": "B", "q": "C"}, "line", "S")
    fig.add_cycle_rel([orthogonal("S"), orthogonal("A"),
                       orthogonal(INFINITY)], "Y")
    return fig


def evaluation(fig):
    return {lab: (fig.status(lab),
                  [inst.cycle.key() for inst in fig.node(lab).instances],
                  [inst.context for inst in fig.node(lab).instances])
            for lab in fig.labels()}


small = st.fractions(min_value=-4, max_value=4, max_denominator=2)
# (1, 0) and (-1, 0) are the two instances of W, so moving C there drops one
points = st.one_of(st.sampled_from([(1, 0), (-1, 0)]),
                   st.tuples(small, small))
edits = st.one_of(
    st.tuples(st.sampled_from("ABC"), points),
    st.tuples(st.just("K"), st.builds(
        lambda x, y, r: Cycle.circle(E2, (x, y), r), small, small,
        st.fractions(min_value=Fraction(1, 4), max_value=9,
                     max_denominator=4))))


@settings(max_examples=25)
@given(st.lists(edits, min_size=1, max_size=4))
def test_cone_resolve_equals_full_evaluation(steps):
    fig = edit_figure()
    for label, data in steps:
        fig.set_data(label, data)
        assert evaluation(fig) == evaluation(Figure.from_obj(fig.to_obj()))


@st.composite
def figures(draw):
    """A figure over the data cycles a (k = 1) and b (k = 1, or a line) and
    the point P: two to four relation nodes, each with at most one signed
    relation (tangent in a drawn variant, inversive, or power against a),
    unsigned relations, pins and avoid; then the line through two labels
    as a subfigure."""
    metric = draw(st.sampled_from(METRICS))
    fig = Figure(metric, arithmetic=draw(st.sampled_from(["exact", "float"])))
    fig.freeze()
    fig.add_cycle((1,) + draw(st.tuples(small, small, small)), "a")
    fig.add_cycle(draw(st.one_of(st.tuples(st.just(1), small, small, small),
                                 st.tuples(st.just(0), st.just(1), small,
                                           small))), "b")
    fig.add_point(draw(st.tuples(small, small)), "P")
    labels = ["a", "b", "P"]
    parent = lambda: st.sampled_from(labels + [REAL_LINE, INFINITY])
    for i in range(draw(st.integers(2, 4))):
        signed = draw(st.one_of(
            st.builds(tangent, parent(),
                      st.sampled_from(["both", "external", "internal"])),
            st.builds(inversive, parent(), small),
            st.builds(lambda value: power("a", value), small),
            st.none()))
        linear = st.one_of(st.builds(orthogonal, parent()),
                           st.builds(through, small, small))
        rels = draw(st.lists(linear, min_size=2, max_size=3))
        rels += draw(st.lists(st.sampled_from([is_point(), only_reals()]),
                              max_size=1))
        rels += [signed] if signed is not None else []
        pins = draw(st.lists(linear, max_size=1))
        avoid = draw(st.lists(st.sampled_from(labels), max_size=1))
        labels.append(fig.add_cycle_rel(rels, f"n{i}", pins=pins,
                                        avoid=avoid))
    inner = Figure(metric)
    inner.add_point((0, 0), "p")
    inner.add_point((1, 0), "q")
    inner.add_cycle_rel([orthogonal("p"), orthogonal("q"),
                         orthogonal(INFINITY)], "line")
    ends = draw(st.lists(st.sampled_from(labels), min_size=2, max_size=2,
                         unique=True))
    fig.add_subfigure(inner, dict(zip("pq", ends)), "line", "S")
    try:
        fig.unfreeze()
    except (RadicalClash, TooManyInstances, BranchOverflow):
        reject()
    return fig


@settings(max_examples=40)
@given(figures())
def test_figure_json_round_trip(fig):
    obj = fig.to_obj()
    again = Figure.from_obj(obj)
    assert again.to_obj() == obj
    assert evaluation(again) == evaluation(fig)
