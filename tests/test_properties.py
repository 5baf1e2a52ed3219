"""Property tests for the exact-or-float decision layer, the Moebius action
on cycles, the solver, figure re-evaluation and the figure JSON round trip.

The examples are drawn by hypothesis under the derandomized profile that
``conftest.py`` loads.
"""

from fractions import Fraction
from itertools import product as iproduct

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from cyclekit import cycle, figure, numerics, poincare, relations
from cyclekit.cycle import Cycle, Metric
from cyclekit.figure import (INFINITY, REAL_LINE, Figure, TooManyInstances,
                             inversive, is_point, only_reals, orthogonal,
                             power, tangent, through)
from cyclekit.numerics import QuadExt, RadicalClash, canonical_row, near_zero
from cyclekit.relations import (BranchOverflow, InversiveDistance, IsFlat,
                                IsLobachevskyLine, IsOrthogonal, IsPoint,
                                IsTangent, PassesThrough, SteinerPower, check,
                                pairing_coeffs, solve)

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


@st.composite
def signed_systems(draw):
    """Two to four tangent, inversive, power, orthogonal and through
    relations against random data in e or h, exact or float."""
    metric = draw(st.sampled_from([E2, Metric.named("h")]))
    mode = draw(st.sampled_from(["exact", "float"]))
    data = (lambda c: c.as_float()) if mode == "float" else (lambda c: c)
    ref = st.builds(lambda k, l1, l2, m: data(Cycle(metric, k, (l1, l2), m)),
                    st.sampled_from([0, 1]), small, small, small).filter(
        lambda c: any(c.row()))
    circle = st.builds(lambda l1, l2, m: data(Cycle(metric, 1, (l1, l2), m)),
                       small, small, small)
    one = st.one_of(
        st.builds(IsTangent, ref,
                  st.sampled_from(["both", "external", "internal"])),
        st.builds(InversiveDistance, ref, small),
        st.builds(SteinerPower, circle, small),
        st.builds(IsOrthogonal, ref),
        st.builds(lambda p: PassesThrough(metric, p), st.tuples(small, small)))
    return metric, draw(st.lists(one, min_size=2, max_size=4)), mode


def _reference_row(rel, ar):
    """(coeffs, + branch rhs, demand) of one relation, from its data."""
    if isinstance(rel, SteinerPower):
        base = pairing_coeffs(rel.ref.metric, rel.ref_k)
        coeffs = (rel.power - base[0],) + tuple(-c for c in base[1:])
        return coeffs, ar.sqrt(rel.ref_k.self_product()), -1
    coeffs = pairing_coeffs(rel.ref.metric, rel.ref)
    ss = rel.ref.self_product()
    if not isinstance(rel, InversiveDistance) or ss == 0:
        return coeffs, 0, None
    rhs = rel.theta * ar.sqrt(ss) if rel.theta != 0 else 0
    return coeffs, rhs, numerics.scalar_sign(ss)


def _reference_solve(rels, metric, mode):
    """Every sign pattern, sigma and -sigma alike, each in its own context;
    then verify, dedup and order as ``solve`` does."""
    demands = {_reference_row(r, numerics.Arithmetic(mode))[2]
               for r in rels} - {None}
    if len(demands) > 1:
        return "infeasible", [], False
    demand = next(iter(demands), None)
    signed = [_reference_row(r, numerics.Arithmetic(mode))[1] != 0
              for r in rels]
    found, parametric, demoted = [], False, False
    for pattern in iproduct(*[(1, -1) if s else (1,) for s in signed]):
        ar = numerics.Arithmetic(mode)
        rows = []
        for rel, sign in zip(rels, pattern):
            coeffs, rhs, _ = _reference_row(rel, ar)
            rows.append((coeffs, -rhs if sign < 0 else rhs))
        sols, par = relations._solve_branch(metric, rows, demand, ar)
        demoted = demoted or ar.demoted
        parametric = parametric or par is not None
        found += [Cycle.from_row(metric, row) for row in sols or []]
    eps = numerics.comparison_eps()
    kept = {}
    for cyc in found:
        can = cyc.canonical()
        if all(rel.satisfied_by(can, eps) for rel in rels):
            kept.setdefault(can.key(), can)
    ordered = sorted(kept.values(), key=relations._sort_key)
    status = ("finite" if ordered else "parametric" if parametric
              else "infeasible")
    return status, [c.row() for c in ordered], demoted


@settings(max_examples=150)
@given(signed_systems())
def test_solve_equals_the_all_patterns_reference(system):
    metric, rels, mode = system
    want = _reference_solve(rels, metric, mode)
    sol = solve(rels, metric, mode)
    assert (sol.status, [c.row() for c in sol.cycles], sol.demoted) == want
    assert [c.key() for c in sol.cycles] == [
        Cycle.from_row(metric, row).key() for row in want[1]]
