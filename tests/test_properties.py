"""Property tests for the exact-or-float decision layer, the ``QuadExt``
kernel against its Fraction-pair reference, the Moebius action on cycles,
the solver, figure re-evaluation, the figure JSON round trip, chain
validation against its scalar reference and the int build of a chain
against the scalar build.

The examples are drawn by hypothesis under the derandomized profile that
``conftest.py`` loads.
"""

import functools
import math
import operator
from fractions import Fraction
from itertools import combinations
from itertools import product as iproduct
from unittest import mock

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from cyclekit import contfrac, cycle, figure, numerics, poincare, relations
from cyclekit.clifford import (Mat2, Mv, dilation, euclidean, inversion,
                               reflection, translation)
from cyclekit.contfrac import (ContinuedFraction, HorocycleChain, InvalidCF,
                               orthogonality_residual, quotient,
                               tangency_residual)
from cyclekit.cycle import Cycle, Metric
from cyclekit.figure import (INFINITY, REAL_LINE, Figure, TooManyInstances,
                             inversive, is_point, only_reals, orthogonal,
                             power, tangent, through)
from cyclekit.numerics import (QuadExt, RadicalClash, canonical_row,
                               comparison_eps, format_scalar, fraction_sqrt,
                               lift, near_zero, parse_scalar, to_float)
from cyclekit.relations import (BranchOverflow, InversiveDistance, IsFlat,
                                IsLobachevskyLine, IsOrthogonal, IsPoint,
                                IsTangent, OnlyReals, PassesThrough,
                                SteinerPower, check, pairing_coeffs, solve)

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


@given(st.sampled_from(METRICS), exact_rows)
# a QuadExt row whose canonical row is rational: its key is (1, 2, 0, 3)
@example(E2, (QuadExt(0, 1, 2), QuadExt(0, 2, 2), 0, QuadExt(0, 3, 2)))
def test_key_is_the_key_of_the_canonical_cycle(metric, row):
    c = Cycle.from_row(metric, row)
    assert c.key() == c.canonical().key()


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


R3D = Metric.from_signature(3)
SIG3 = euclidean(3)
vectors3 = st.tuples(rationals, rationals, rationals)
# exact Clifford-entry maps in R^3: products of up to four translations,
# dilations, inversions and reflections, as test_cycle's _random_map in 2D
maps3 = st.lists(st.one_of(
    vectors3.map(lambda b: translation(Mv.vector(SIG3, b))),
    nonzero_rationals.map(lambda lam: dilation(SIG3, lam)),
    st.just(inversion(SIG3)),
    vectors3.filter(any).map(lambda u: reflection(Mv.vector(SIG3, u)))),
    min_size=1, max_size=4).map(lambda gs: functools.reduce(operator.mul, gs))
spheres3 = st.builds(lambda k, l, m: Cycle(R3D, k, l, m), rationals, vectors3,
                     rationals)


@given(maps3, spheres3, spheres3)
def test_nd_moebius_action_scales_the_product_by_pseudodet_squared(M, a, b):
    assert a.flt(M).product(b.flt(M)) == M.pseudodet() ** 2 * a.product(b)


def _ref_flt(c, M):
    """``Cycle.flt`` with the four image checks it had before the star
    argument dropped the ``d`` entry's: kept as the reference for its
    refusals."""
    sig = c.metric.product_signature()
    if M.sig != sig:
        raise ValueError("map acts on a different product signature")
    out = M * c.matrix() * M.star()
    coeffs = [v for part in (out.a, out.b, out.c, out.d)
              for v in part.terms.values()]
    tol = (None if all(numerics.is_exact(v) for v in coeffs)
           else 1e-9 * max(1.0, numerics.row_scale(coeffs)))

    def peak(mv):
        return max((abs(to_float(v)) for v in mv.terms.values()), default=0.0)

    def off_grade(mv, k):
        stray = mv - mv.grade(k)
        return bool(stray.terms) and (tol is None or peak(stray) > tol)

    k2, m2 = out.c, out.b
    if off_grade(k2, 0) or off_grade(m2, 0):
        raise ValueError("image is not a cycle matrix")
    if off_grade(out.a, 1):
        raise ValueError("image direction is not a vector")
    l2 = out.a.grade(1)
    mismatch = out.d - l2.conj()
    if mismatch.terms and (tol is None or peak(mismatch) > tol):
        raise ValueError("image matrix lost its shape")
    return Cycle(c.metric, k2.scalar_part(), l2.vector_components(),
                 m2.scalar_part())


FLT_METRICS = METRICS + [R3D, Metric.from_signature(2, 1, 0)]


@st.composite
def flt_cases(draw):
    """A cycle and a map in one of five metrics: a product of up to three
    Vahlen generators or raw multivector-entry matrices, which need not be
    Moebius maps.  Half the maps are floats, each coefficient off by a
    relative 1e-12 or less, and half of those act on a float cycle."""
    metric = draw(st.sampled_from(FLT_METRICS))
    sig = metric.product_signature()
    vec = st.lists(rationals, min_size=sig.n, max_size=sig.n).map(
        lambda v: Mv.vector(sig, v))
    blades = [b for k in range(sig.n + 1)
              for b in combinations(range(1, sig.n + 1), k)]
    mv = st.dictionaries(st.sampled_from(blades), rationals,
                         max_size=3).map(lambda t: Mv(sig, t))
    gens = st.one_of(
        vec.map(translation),
        nonzero_rationals.map(lambda lam: dilation(sig, lam)),
        st.just(inversion(sig)),
        vec.filter(lambda u: u.modulus_sq() != 0).map(reflection),
        st.builds(lambda *e: Mat2(sig, *e), mv, mv, mv, mv))
    M = functools.reduce(operator.mul, draw(st.lists(gens, min_size=1,
                                                     max_size=3)))
    c = Cycle(metric, draw(rationals), draw(st.lists(
        rationals, min_size=sig.n, max_size=sig.n)), draw(rationals))
    if draw(st.booleans()):
        rnd = draw(st.randoms(use_true_random=False))
        noisy = lambda v: float(v) * (1 + 1e-12 * rnd.uniform(-1, 1))
        M = Mat2(sig, *(p.map(noisy) for p in (M.a, M.b, M.c, M.d)))
        if draw(st.booleans()):
            c = c.as_float()
    return c, M


def _flt_outcome(flt, c, M):
    try:
        return _exactly(flt(c, M).row())
    except ValueError as exc:
        return ValueError, str(exc)


@given(flt_cases())
def test_flt_keeps_the_four_check_refusals(case):
    # M C M* is its own star, so the d-entry check the reference also makes
    # never fires: the same typed row or the same refusal
    c, M = case
    assert _flt_outcome(Cycle.flt, c, M) == _flt_outcome(_ref_flt, c, M)


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
    S the line BC from a subfigure; Y the perpendicular from A to S; R
    from a subfigure bound to T, A and C, run once per instance of T: the
    point where the line through A and the center of T meets the vertical
    line through C (only the first of these depends on T)."""
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
    inner = Figure()
    inner.freeze()
    inner.add_cycle(Cycle.circle(E2, (0, 2), 1), "c")
    inner.add_point((0, 0), "p")
    inner.add_point((1, 0), "q")
    inner.add_cycle_rel([orthogonal("c"), orthogonal("p"),
                         orthogonal(INFINITY)], "d")
    inner.add_cycle_rel([orthogonal("q"), orthogonal(REAL_LINE),
                         orthogonal(INFINITY)], "m")
    inner.add_cycle_rel([orthogonal("d"), orthogonal("m"), is_point()], "r",
                        avoid=(INFINITY,))
    fig.add_subfigure(inner, {"c": "T", "p": "A", "q": "C"}, "r", "R")
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
moves = st.one_of(
    st.tuples(st.sampled_from("ABC"), points),
    st.tuples(st.just("K"), st.builds(
        lambda x, y, r: Cycle.circle(E2, (x, y), r).row(), small, small,
        st.fractions(min_value=Fraction(1, 4), max_value=9,
                     max_denominator=4))))
# a move, a move made while frozen, or a metric swap (K's row is a tuple
# so that it reads in whatever metric the figure has then)
edits = st.one_of(moves, st.tuples(st.just("frozen"), moves),
                  st.tuples(st.just("metric"), st.sampled_from("ehp")))


def apply_edit(fig, step):
    what, data = step
    if what == "metric":
        fig.set_metric(Metric.named(data))
    elif what == "frozen":
        fig.freeze()
        fig.set_data(*data)
        fig.unfreeze()
    else:
        fig.set_data(what, data)


@settings(max_examples=25)
@given(st.lists(edits, min_size=1, max_size=4))
def test_cone_resolve_equals_full_evaluation(steps):
    fig = edit_figure()
    for step in steps:
        apply_edit(fig, step)
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


REFLECTION_METRICS = [E2, Metric.named("h"), Metric.from_signature(3)]


@st.composite
def reflection_pairs(draw):
    """X and C over Q in e, h or 3-D; C is a point cycle (<C,C> = 0) in
    about one draw of four."""
    metric = draw(st.sampled_from(REFLECTION_METRICS))
    entries = st.one_of(st.integers(-50, 50), rationals)
    row = st.lists(entries, min_size=metric.n + 2,
                   max_size=metric.n + 2).filter(any)
    x = Cycle.from_row(metric, draw(row))
    if draw(st.integers(0, 3)):
        c = Cycle.from_row(metric, draw(row))
    else:
        c = Cycle.zero_radius_at(metric, draw(st.lists(
            rationals, min_size=metric.n, max_size=metric.n)))
    return x, c


def _reflect(x, c):
    node = figure.FigureNode("R", "reflection", 0, mirror=("x", "c"))
    return Figure._reflect(node, {"x": figure.Instance(x, {}),
                                  "c": figure.Instance(c, {})})


def _scalar_reflection(x, c):
    """The reflection X <C,C> - 2 <X,C> C on the entries, canonical."""
    cc, t = c.self_product(), 2 * x.product(c)
    return Cycle.from_row(x.metric, [cc * a - t * b for a, b in
                                     zip(x.row(), c.row())]).canonical()


@settings(max_examples=200)
@given(reflection_pairs())
@example((Cycle.from_row(E2, (1, 2, 3, 4)), Cycle.zero_radius_at(E2, (1, 2))))
def test_int_reflection_equals_the_scalar_formula(pair):
    x, c = pair
    got = _reflect(x, c)
    if c.self_product() == 0:
        assert got is None
        return
    want = _scalar_reflection(x, c)
    assert got.row() == want.row()
    assert [type(v) for v in got.row()] == [type(v) for v in want.row()]
    # the int row it keeps, which key() and verification read
    assert got.integer_form() == want.integer_form()


R2 = QuadExt(0, 1, 2)


@pytest.mark.parametrize("x, c", [
    ((R2, 1, 0, 3), (1, 0, 0, -1)),             # X over Q(sqrt 2)
    ((1, 2, 3, 4), (1, R2, 0, -1)),             # C over Q(sqrt 2)
    ((R2, 2 * R2, 0, R2), (1, 0, 0, -4)),       # sqrt 2 times a rational X
    ((1.0, 2.0, 3.0, 4.5), (1, 0, 0, -1)),      # float X
    ((1, 2, 3, 4), (1.0, 0.5, 0.0, -1.0))])     # float C
def test_radical_and_float_parents_reflect_on_their_entries(x, c,
                                                            monkeypatch):
    def no_ints(*args):
        raise AssertionError("reflected on int rows")

    monkeypatch.setattr(figure, "integer_pairing", no_ints)
    x, c = Cycle.from_row(E2, x), Cycle.from_row(E2, c)
    got, want = _reflect(x, c), _scalar_reflection(x, c)
    assert got.row() == want.row()
    assert [type(v) for v in got.row()] == [type(v) for v in want.row()]


@st.composite
def signed_systems(draw):
    """Two to four tangent, inversive, power, orthogonal, through, point,
    flat and Lobachevsky-line relations against random data in e, p or h,
    exact or float."""
    metric = draw(st.sampled_from(METRICS))
    mode = draw(st.sampled_from(["exact", "float"]))
    data = (lambda c: c.as_float()) if mode == "float" else (lambda c: c)
    # cycles through one shared point meet there, so a point-mode solve
    # on two of them has rational roots
    shared = draw(st.tuples(small, small))
    m_through = lambda k, l: sum(2 * li * x + k * e * x * x for li, e, x in
                                 zip(l, metric.point_eta, shared))
    ref = st.one_of(
        st.builds(lambda k, l1, l2, m: Cycle(metric, k, (l1, l2), m),
                  st.sampled_from([0, 1]), small, small, small),
        st.builds(lambda k, l1, l2: Cycle(metric, k, (l1, l2),
                                          m_through(k, (l1, l2))),
                  st.sampled_from([0, 1]), small, small)).filter(
        lambda c: any(c.row())).map(data)
    circle = st.builds(lambda l1, l2, m: data(Cycle(metric, 1, (l1, l2), m)),
                       small, small, small)
    one = st.one_of(
        st.builds(IsTangent, ref,
                  st.sampled_from(["both", "external", "internal"])),
        st.builds(InversiveDistance, ref, small),
        st.builds(SteinerPower, circle, small),
        st.builds(IsOrthogonal, ref),
        st.builds(lambda p: PassesThrough(metric, p), st.tuples(small, small)),
        st.just(IsPoint(metric)),
        st.sampled_from([IsFlat(metric), IsLobachevskyLine(metric)]))
    return metric, draw(st.lists(one, min_size=2, max_size=4)), mode


def _reference_coeffs(rel):
    """The coefficients of one relation's row, from its data through
    ``pairing_coeffs``; None for ``IsPoint``, which has no row."""
    if isinstance(rel, IsPoint):
        return None
    if isinstance(rel, SteinerPower):
        base = pairing_coeffs(rel.ref.metric, rel.ref_k)
        return (rel.power - base[0],) + tuple(-c for c in base[1:])
    return pairing_coeffs(rel.ref.metric, rel.ref)


def _reference_self(rel):
    """<R,R> of the reference a relation's rhs is a root of; None for a
    relation with no rhs."""
    if isinstance(rel, SteinerPower):
        return rel.ref_k.self_product()
    return rel.ref.self_product() if isinstance(rel, InversiveDistance) \
        else None


def _reference_row(rel, ar, lam=1):
    """(coeffs, + branch rhs, demand) of one relation, from its data, for
    the demand <x,x> = demand * lam."""
    coeffs = _reference_coeffs(rel)
    ss = _reference_self(rel)
    if isinstance(rel, SteinerPower):
        return coeffs, ar.sqrt(lam * ss), -1
    if ss is None or ss == 0:
        return coeffs, 0, None
    rhs = rel.theta * ar.sqrt(lam * ss) if rel.theta != 0 else 0
    return coeffs, rhs, numerics.scalar_sign(ss)


def _reference_scale(rels, demand, mode):
    """The demand's scale lam, from the data: the squarefree core of the
    first nonzero |<R,R>| when an exact solve has a nonzero demand and
    every coefficient, |<R,R>| and theta is rational; 1 otherwise."""
    if mode != "exact" or not demand:
        return 1
    selfs = [ss for ss in map(_reference_self, rels) if ss is not None]
    data = selfs + [rel.theta for rel in rels
                    if isinstance(rel, InversiveDistance)]
    data += [c for rel in rels for c in _reference_coeffs(rel) or ()]
    if not all(isinstance(v, (int, Fraction)) for v in data):
        return 1
    return next((numerics.radical_parts(abs(ss))[1].numerator
                 for ss in selfs if ss), 1)


def _pattern_branch(metric, rows, demand, ar):
    """One sign pattern from its own elimination, as ``solve`` ran each
    pattern before its patterns shared one: one ``linear_solve`` of the
    pattern's rows, then the field rows' candidates."""
    red = relations.linear_solve(rows, metric.n + 2,
                                 None if ar.exact else float)
    if red.rows is None:
        return [], None
    return relations._field_candidates(metric, *red.solution(), demand, ar)


def _reference_candidates(rels, metric, mode):
    """The unverified candidate rows of every sign pattern, sigma and
    -sigma alike, each in its own context, with whether a branch was
    parametric and whether one demoted; None for conflicting demands.  An
    ``IsPoint`` sets the demand to 0 and every rhs to 0.  A nonzero
    demand s is solved as <x,x> = s lam (:func:`_reference_scale`)."""
    point = any(isinstance(r, IsPoint) for r in rels)
    demands = {0} if point else {_reference_row(r, numerics.Arithmetic(
        mode))[2] for r in rels} - {None}
    if len(demands) > 1:
        return None
    demand = next(iter(demands), None)
    lam = _reference_scale(rels, demand, mode)
    signed = [not point and _reference_row(r, numerics.Arithmetic(mode))[1]
              != 0 for r in rels]
    found, parametric, demoted = [], False, False
    for pattern in iproduct(*[(1, -1) if s else (1,) for s in signed]):
        ar = numerics.Arithmetic(mode)
        rows = []
        for rel, sign in zip(rels, pattern):
            coeffs, rhs, _ = ((_reference_coeffs(rel), 0, None) if point
                              else _reference_row(rel, ar, lam))
            if coeffs is not None:
                rows.append((coeffs, -rhs if sign < 0 else rhs))
        sols, par = _pattern_branch(metric, rows, demand and demand * lam,
                                    ar)
        demoted = demoted or ar.demoted
        parametric = parametric or par is not None
        found += sols or []
    return found, parametric, demoted


def _reference_solve(rels, metric, mode):
    """:func:`_reference_candidates`, then verify on canonical cycles,
    dedup and order as ``solve`` does."""
    candidates = _reference_candidates(rels, metric, mode)
    if candidates is None:
        return "infeasible", [], False
    found, parametric, demoted = candidates
    eps = numerics.comparison_eps()
    kept = {}
    for row in found:
        can = Cycle.from_row(metric, row).canonical()
        if all(rel.satisfied_by(can, eps) for rel in rels):
            kept.setdefault(can.key(), can)
    # ordered by the entries as floats rounded to 9 digits, ties broken by
    # the entries' reprs
    ordered = sorted(kept.values(), key=lambda c: (
        tuple(round(to_float(v), 9) + 0 for v in c.row()),
        tuple(repr(v) for v in c.row())))
    status = ("finite" if ordered else "parametric" if parametric
              else "infeasible")
    return status, [c.row() for c in ordered], demoted


@settings(max_examples=150)
@given(signed_systems())
# the second tangency needs a second radicand, so its build demotes: the
# elimination runs in floats, on the rows as their data gives them
@example((E2, [IsTangent(Cycle(E2, 0, (0, 1), 0)),
               IsTangent(Cycle(E2, 1, (0, 3), 3)),
               IsOrthogonal(Cycle(E2, 0, (0, 0), 2))], "exact"))
# the unit circle meets the real line in two rational points
@example((E2, [IsPoint(E2), IsOrthogonal(Cycle(E2, 1, (0, 0), -1)),
               IsOrthogonal(Cycle(E2, 0, (0, 1), 0))], "exact"))
def test_solve_equals_the_all_patterns_reference(system):
    metric, rels, mode = system
    want = _reference_solve(rels, metric, mode)
    sol = solve(rels, metric, mode)
    assert (sol.status, [c.row() for c in sol.cycles], sol.demoted) == want
    assert [c.key() for c in sol.cycles] == [
        Cycle.from_row(metric, row).key() for row in want[1]]


# directions (u, v) with u^2 + v^2 = 2 w^2, as ((u, v), w): a step of
# t*sqrt(2) along one is a rational step of t/w in each coordinate
_SQRT2_STEPS = (((1, 1), 1), ((1, -1), 1), ((-1, -1), 1), ((7, 1), 5),
                ((1, -7), 5))


@st.composite
def rational_root_systems(draw):
    """Three tangent, inversive-distance and power relations that a circle
    X of radius rho*sqrt(2) satisfies, against references of radius
    s*sqrt(2) that touch X from outside or inside: every root the demand
    takes is rational at X, so most branches give rational candidates,
    and the sign tests reject many of them."""
    radius = st.fractions(min_value=Fraction(1, 2), max_value=5,
                          max_denominator=3)
    cx, rho = draw(st.tuples(small, small)), draw(radius)
    X = Cycle.circle(E2, cx, 2 * rho * rho)
    rels = []
    for _ in range(3):
        (u, v), w = draw(st.sampled_from(_SQRT2_STEPS))
        s = draw(radius)
        t = draw(st.sampled_from([rho + s, abs(rho - s)])) / w
        ref = Cycle.circle(E2, (cx[0] + u * t, cx[1] + v * t), 2 * s * s)
        kind = draw(st.sampled_from(["both", "external", "internal",
                                     "inversive", "power"]))
        if kind == "inversive":
            theta = X.product(ref) / (4 * rho * s)
            rels.append(InversiveDistance(ref, theta * draw(
                st.sampled_from([1, -1]))))
        elif kind == "power":
            # X over 2 rho has <x,x> = -1, and sqrt|<R_k,R_k>| = 2 s
            x, rk = X.scaled(1 / (2 * rho)), ref.scaled(Fraction(1, ref.k))
            rels.append(SteinerPower(ref, (x.product(rk) + 2 * s) / x.k))
        else:
            rels.append(IsTangent(ref, kind))
    return E2, rels, "exact"


@settings(max_examples=100)
@given(st.one_of(rational_root_systems(), signed_systems().filter(
           lambda system: system[2] == "exact")),
       nonzero_rationals.filter(lambda q: q.denominator > 1 or q < 0))
def test_primitive_row_verifies_as_the_canonical_cycle(system, factor):
    # every rational candidate of every branch, scaled by a negative or
    # non-integer factor: its primitive int row (the cycle solve verifies
    # it on) and its canonical cycle get the same verdict from every
    # relation of its system, sign tests included, and from a few that
    # most candidates fail
    metric, rels, mode = system
    candidates = _reference_candidates(rels, metric, mode)
    rels = rels + [OnlyReals(metric), IsPoint(metric), IsFlat(metric),
                   IsTangent(Cycle(metric, 1, (1, 0), -3))]
    eps = comparison_eps()
    for row in candidates[0] if candidates else []:
        scaled = tuple(factor * v for v in row)
        form = cycle.integer_form(scaled)
        if not form or form[2]:
            continue
        x = Cycle.from_primitive(metric, form[0])
        can = Cycle.from_row(metric, scaled).canonical()
        assert x.canonical().row() == can.row()
        for rel in rels:
            assert rel.satisfied_by(x, 0.0) == rel.satisfied_by(can, eps)


@st.composite
def one_class_tangencies(draw):
    """Three tangencies of drawn variants to circles about rational
    centres, of radius^2 f s^2 with s rational and f drawn once per system:
    every <R,R> is -2 f s^2, one square class."""
    f = draw(st.sampled_from([1, 2, 3, 6, Fraction(1, 2)]))
    radius = st.fractions(min_value=Fraction(1, 3), max_value=6,
                          max_denominator=3)
    variant = st.sampled_from(["both", "external", "internal"])
    return [IsTangent(Cycle.circle(E2, draw(st.tuples(small, small)),
                                   f * draw(radius) ** 2), draw(variant))
            for _ in range(3)]


def _projective_twin(row, rows, tol=1e-6):
    """Is the float row ``row`` a multiple of one of ``rows`` to ``tol``
    relative to the largest entry?"""
    unit = lambda r: [float(v) / max(abs(float(v)) for v in r) for v in r]
    a = unit(row)
    return any(min(max(abs(x - y) for x, y in zip(a, b)),
                   max(abs(x + y) for x, y in zip(a, b))) <= tol
               for b in map(unit, rows))


@settings(max_examples=200)
@given(one_class_tangencies())
def test_one_square_class_solves_exactly(rels):
    # the demand scaled to the references' square class makes every
    # tangency rhs rational, so no root needs a nested radical
    sol = solve(rels, E2)
    assert not sol.demoted
    assert all(check(rels, c) for c in sol.cycles)
    exact_rows = [c.row() for c in sol.cycles]
    for c in solve(rels, E2, "float").cycles:
        assert _projective_twin(c.row(), exact_rows)


def _quadext_verdict(rel, can):
    """The verdict of an InversiveDistance, IsTangent, SteinerPower or
    IsPoint on an exact canonical cycle, in the exact arithmetic of its
    values: products of QuadExts and Fractions through ``Cycle.product``."""
    if isinstance(rel, IsPoint):
        return can.self_product() == 0
    if isinstance(rel, SteinerPower):
        rk = rel.ref.scaled(1 / lift(rel.ref.k))
        lhs = rel.power * can.k - can.product(rk)
        if lhs * lhs != can.self_product() * rk.self_product():
            return False
        return can.k == 0 or lhs >= 0
    r = rel.ref.canonical()
    p, sx, sr = can.product(r), can.self_product(), r.self_product()
    if isinstance(rel, IsTangent):
        if p * p != sx * sr:
            return False
        if rel.variant == "both" or 0 in (can.k, r.k, sx, sr):
            return True
        return numerics.scalar_sign(p) == (1 if rel.variant == "external"
                                           else -1)
    th = rel.theta
    if p * p != th * th * abs(sx) * abs(sr):
        return False
    if th == 0 or can.k == 0 or r.k == 0:
        return True
    return numerics.scalar_sign(p) in (0, numerics.scalar_sign(th))


@settings(max_examples=80)
@given(one_class_tangencies(), rationals, rationals, st.sampled_from([2, 3]))
def test_form_verdicts_equal_the_quadext_reference(rels, a, b, radicand):
    # each answer of a one-class tangency system times a + b sqrt D, D its
    # radicand (or 2 or 3 for a rational answer), so the row is scaled and
    # often sign-flipped, over Q(sqrt D) even when its canonical cycle is
    # rational.  It is tangent to every reference, so the zero tests pass
    # and the sign tests decide: every tangency variant, theta of each
    # sign, and powers 0 (rational) and 2 <x,R_k>/k_x (mostly irrational,
    # decided on the canonical cycle).  Two cycles join the answers for
    # IsPoint's form verdict: a zero-radius one at (a, b), and one whose
    # <C,C> = -2 sqrt D has no rational part
    if a == 0 and b == 0:
        reject()
    refs = [rel.ref for rel in rels]
    eps = comparison_eps()
    for c in solve(rels, E2).cycles + [
            Cycle.zero_radius_at(E2, (a, b)),
            Cycle(E2, 1, (0, 0), QuadExt(0, -1, radicand))]:
        form = c.integer_form()
        D = form[2] or radicand
        factor = a + b * QuadExt(0, 1, D)
        x = Cycle.from_row(E2, [factor * v for v in c.row()])
        can = x.canonical()
        checks = [IsPoint(E2)] + [IsTangent(R, v) for R in refs
                                  for v in ("both", "external", "internal")]
        checks += [InversiveDistance(R, t) for R in refs
                   for t in (1, -1, 0, Fraction(1, 2), Fraction(-3, 2))]
        for R in refs:
            rk = R.scaled(1 / lift(R.k))
            checks += [SteinerPower(R, 0), SteinerPower(R, Fraction(7, 3))]
            if can.k != 0:
                checks.append(SteinerPower(R, 2 * can.product(rk) / can.k))
        for rel in checks:
            want = _quadext_verdict(rel, can)
            assert rel.satisfied_by(x, 0.0) == want
            assert rel.satisfied_by(can, eps) == want


@st.composite
def pencils(draw):
    """Two rational rows spanning a pencil: random, or through two point
    cycles, whose isotropic members are then rational."""
    metric = draw(st.sampled_from(METRICS))
    row = st.tuples(small, small, small, small)
    if draw(st.booleans()):
        return metric, draw(row), draw(row)
    p, q = (Cycle.zero_radius_at(metric, draw(st.tuples(small, small))).row()
            for _ in range(2))
    a, b, c, d = (draw(small) for _ in range(4))
    return (metric, tuple(a * x + b * y for x, y in zip(p, q)),
            tuple(c * x + d * y for x, y in zip(p, q)))


def _branch_outcome(branch, radicand):
    """``branch(ar)`` in a fresh exact context holding ``radicand``: its
    rows, exact ones typed through ``canonical_row`` and float ones by
    ``repr``, its parametric result typed, and the context's radicand,
    demotion and notes after it; the type and message of an
    ArithmeticError it raises."""
    ar = numerics.Arithmetic("exact", radicand)
    try:
        sols, par = branch(ar)
    except ArithmeticError as err:
        return type(err), str(err)
    rows = None if sols is None else [
        repr(row) if type(row[0]) is float
        else _typed(canonical_row(row, 0)) for row in sols]
    return rows, _typed(par), (ar.radicand, ar.demoted, ar.notes)


@settings(max_examples=300)
@given(pencils(), st.sampled_from([None, Fraction(2), Fraction(3)]))
# a = 0: the isotropic first row and one more root
@example((E2, (1, 0, 0, 0), (0, 0, 0, 1)), None)
# a light line of h: every member isotropic, so parametric
@example((Metric.named("h"), (1, 0, 0, 0), (1, 1, -1, 0)), None)
# a zero discriminant: one double root
@example((E2, (0, 1, 0, 0), (1, 0, 0, 0)), None)
# roots over sqrt 2, adopted by a context with no radicand, and demoted
# by one that holds sqrt 3
@example((E2, (1, 0, 0, -1), (-2, -1, -1, -2)), None)
@example((E2, (1, 0, 0, -1), (-2, -1, -1, -2)), Fraction(3))
def test_integer_pencil_equals_the_field_roots(case, radicand):
    # the point demand on the pencil of two rational rows, read in ints
    # as the line through v2 along v1, gives the roots the field rows
    # give (None: the whole pencil is isotropic, left to the field rows)
    metric, v1, v2 = case
    if len(relations.linear_solve([(v1, 0), (v2, 0)], 4).pivots) < 2:
        reject()                     # basis rows are independent
    v1, v2 = (tuple(map(Fraction, v)) for v in (v1, v2))
    L = math.lcm(*[x.denominator for x in (*v1, *v2)])
    V, P = (tuple([int(x * L) for x in v]) for v in (v1, v2))
    Q = lambda x, y: cycle.row_product(metric, x, y)
    got = _branch_outcome(lambda ar: (relations._line_candidates(
        metric.weights, L, V, P, 0, ar), None), radicand)
    want = _branch_outcome(lambda ar: (relations._binary_quadratic(
        Q, v1, v2, ar), None), radicand)
    assert got == want


class _RefQuadExt:
    """The Fraction-pair ``QuadExt`` the integer triple replaced, kept as the
    reference: ``a + b*sqrt(d)`` with Fraction ``a``, ``b`` and ``d``, every
    result rebuilt (and its radicand re-checked) through the constructor."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b, d):
        self.a, self.b, self.d = Fraction(a), Fraction(b), Fraction(d)
        if self.d <= 0 or fraction_sqrt(self.d) is not None:
            raise ValueError(f"radicand must be positive and non-square: {d}")

    def _coerce(self, other):
        if isinstance(other, _RefQuadExt):
            if other.d != self.d:
                if other.b == 0:
                    return _RefQuadExt(other.a, 0, self.d)
                if self.b == 0:
                    return other
                raise RadicalClash(f"sqrt({self.d}) vs sqrt({other.d})")
            return other
        if isinstance(other, (int, Fraction)):
            return _RefQuadExt(other, 0, self.d)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return float(self) + other if isinstance(other, float) \
                else NotImplemented
        if o.d != self.d:
            return _RefQuadExt(self.a + o.a, o.b, o.d)
        return _RefQuadExt(self.a + o.a, self.b + o.b, self.d)

    __radd__ = __add__

    def __neg__(self):
        return _RefQuadExt(-self.a, -self.b, self.d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return float(self) - other if isinstance(other, float) \
                else NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return float(self) * other if isinstance(other, float) \
                else NotImplemented
        if o.d != self.d:
            return _RefQuadExt(self.a * o.a, self.a * o.b, o.d)
        return _RefQuadExt(self.a * o.a + self.b * o.b * self.d,
                           self.a * o.b + self.b * o.a, self.d)

    __rmul__ = __mul__

    def _inverse(self):
        norm = self.a * self.a - self.b * self.b * self.d
        if norm == 0:
            raise ZeroDivisionError("division by zero QuadExt")
        return _RefQuadExt(self.a / norm, -self.b / norm, self.d)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return float(self) / other if isinstance(other, float) \
                else NotImplemented
        if o.d != self.d:
            return _RefQuadExt(self.a, 0, o.d) / o
        return self * o._inverse()

    def __rtruediv__(self, other):
        return self._inverse() * other

    def __pow__(self, n):
        out = _RefQuadExt(1, 0, self.d)
        for _ in range(n):
            out = out * self
        return out

    def _sign(self):
        a, b = self.a, self.b
        if b == 0:
            return -1 if a < 0 else (0 if a == 0 else 1)
        if a == 0:
            return -1 if b < 0 else 1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        lhs, rhs = a * a, b * b * self.d
        if a > 0:
            return 1 if lhs > rhs else (-1 if lhs < rhs else 0)
        return -1 if lhs > rhs else (1 if lhs < rhs else 0)

    def __eq__(self, other):
        if isinstance(other, _RefQuadExt):
            if other.d == self.d:
                return self.a == other.a and self.b == other.b
            return self.b == 0 and other.b == 0 and self.a == other.a
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        if isinstance(other, float):
            return float(self) == other
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b * self.b * self.d, self.b > 0))

    def _cmp(self, other):
        o = self._coerce(other)
        if o is None:
            return float(self) - other
        return (self - o)._sign()

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __abs__(self):
        return -self if self._sign() < 0 else self

    def __float__(self):
        return float(self.a) + float(self.b) * math.sqrt(float(self.d))

    def format(self):
        if self.b == 0:
            return str(self.a)
        if self.a == 0:
            return f"{self.b}*sqrt({self.d})"
        op = "+" if self.b > 0 else "-"
        return f"{self.a}{op}{abs(self.b)}*sqrt({self.d})"


# radicand -> (coeff, squarefree core) with radicand = coeff^2 * core
RADICANDS = {2: (1, 2), 3: (1, 3), 5: (1, 5), 6: (1, 6),
             Fraction(1, 2): (Fraction(1, 2), 2),
             Fraction(3, 2): (Fraction(1, 2), 6), 8: (2, 2), 12: (2, 3)}
quad_parts = st.tuples(rationals, st.one_of(st.just(Fraction(0)), rationals),
                       st.sampled_from(list(RADICANDS)))


def _quad_and_reference(parts):
    """QuadExt(a, b, d) and the reference over d's squarefree core, the
    Fraction a when b is 0."""
    a, b, d = parts
    coeff, core = RADICANDS[d]
    return QuadExt(a, b, d), (_RefQuadExt(a, b * coeff, core) if b
                              else Fraction(a))


operands = st.one_of(
    quad_parts.map(_quad_and_reference),
    st.one_of(rationals, st.integers(-5, 5),
              st.floats(-50, 50)).map(lambda v: (v, v)))


def _outcome(op, *args):
    """A comparable digest of ``op(*args)``: floats bit for bit, quadratic
    values as (a, b, d), a reference value with no radical part as its
    Fraction, raised arithmetic errors by type."""
    try:
        v = op(*args)
    except (RadicalClash, ZeroDivisionError) as exc:
        return type(exc)
    if isinstance(v, _RefQuadExt) and v.b == 0:
        v = v.a
    if isinstance(v, (QuadExt, _RefQuadExt)):
        return ("quad", v.a, v.b, v.d)
    if isinstance(v, float):
        return ("float", v.hex())
    return (type(v), v)


BINARY_OPS = (operator.add, operator.sub, operator.mul, operator.truediv,
              operator.lt, operator.le, operator.gt, operator.ge,
              operator.eq, operator.ne)


@settings(max_examples=300)
@given(quad_parts.map(_quad_and_reference), operands)
def test_quadext_agrees_with_the_fraction_pair_reference(x, y):
    (new, ref), (other, ref_other) = x, y
    for op in BINARY_OPS:
        assert _outcome(op, new, other) == _outcome(op, ref, ref_other), op
        assert _outcome(op, other, new) == _outcome(op, ref_other, ref), op


def test_radical_clash_raises_on_both_sides():
    for a, b in (((1, 1, 2), (0, 1, 3)), ((0, 1, 8), (1, 1, 12))):
        (x, rx), (y, ry) = map(_quad_and_reference, (a, b))
        for op in (operator.add, operator.mul, operator.truediv, operator.lt):
            assert _outcome(op, x, y) == _outcome(op, rx, ry) == RadicalClash


# primes past the trial division of radical_parts: a radicand with one
# of them squared can keep the square in its core
_BIG_PRIMES = [100_003, 100_019, 1_000_003, 1_000_000_007]


@given(st.sampled_from(_BIG_PRIMES), st.sampled_from(_BIG_PRIMES),
       st.sampled_from([1, 2, 3, 6]), rationals, nonzero_rationals,
       nonzero_rationals)
@example(1_000_003, 1_000_000_007, 1, Fraction(0), Fraction(1), Fraction(1))
def test_two_cores_of_one_radical_are_one_value(p, q, t, a, b, c):
    # a + b sqrt(p^2 q t) over its unreduced core and a + b p sqrt(q t)
    # over the reduced one: equal, one hash, a Fraction difference and
    # ordered as one value, whichever operand comes first
    x, y = QuadExt(a, b, p * p * q * t), QuadExt(a, b * p, q * t)
    assert x.d != y.d and math.isqrt(x.d * y.d) ** 2 == x.d * y.d
    assert x == y and y == x and not x != y
    assert hash(x) == hash(y)
    assert x != -y and x != QuadExt(a + c, b * p, q * t)
    for u, v in ((x, y), (y, x)):
        assert _typed(u - v) == _typed(Fraction(0))
        assert _typed(u + c - v) == _typed(c)
        assert u <= v and u >= v and not u < v and not u > v
        assert (u + c > v) == (c > 0) and (u + c < v) == (c < 0)
        assert u * v == y * y and u / v == 1


@given(quad_parts, st.integers(0, 4))
def test_quadext_unary_ops_agree_with_the_reference(parts, k):
    new, ref = _quad_and_reference(parts)
    for op in (operator.neg, abs, lambda v: v ** k):
        assert _outcome(op, new) == _outcome(op, ref)
    assert hash(new) == hash(ref) and bool(new) == bool(ref)
    # bit-equal to the reference both over the core and over the radicand
    # as given: every coeff above is a power of two, so scaling by it is
    # exact and sqrt(coeff^2 * core) == coeff * sqrt(core) in floats too
    assert float(new).hex() == float(ref).hex() == float(_RefQuadExt(*parts)).hex()
    assert format_scalar(new) == (format_scalar(ref) if type(ref) is Fraction
                                  else ref.format())
    assert parse_scalar(format_scalar(new)) == new


def _one_representation(v):
    """Is ``v`` a float, an int, a Fraction or a QuadExt with a radical
    part?  A value with no radical part has one form, the Fraction."""
    return type(v) in (float, int, Fraction) or (type(v) is QuadExt
                                                  and v.q != 0)


def _results(fn, *args):
    """``[fn(*args)]``, or ``[]`` when it raises an arithmetic error."""
    try:
        return [fn(*args)]
    except (RadicalClash, ZeroDivisionError):
        return []


@given(quad_parts, operands, st.integers(0, 4))
def test_a_value_with_no_radical_part_is_a_fraction(parts, y, k):
    x, other = QuadExt(*parts), y[0]
    values = [x, x ** k, -x, abs(x)]
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        values += _results(op, x, other) + _results(op, other, x)
    for v in list(values):
        for row in _results(canonical_row, (0, v, x, other, x * x), 1e-12):
            values += row
        values += _results(lambda: Cycle.from_row(E2, (v, x, other, 1)).product(
            Cycle.from_row(E2, (x, 1, v, other))))
    values += [parse_scalar(format_scalar(v)) for v in values]
    assert all(map(_one_representation, values)), values
    a, d = parts[0], parts[2]
    z = QuadExt(a, 0, d)
    assert type(z) is Fraction and z == a and hash(z) == hash(a)
    for bad in (0, -d, 4 * d * d, Fraction(9, 4)):
        with pytest.raises(ValueError):
            QuadExt(a, 0, bad)


def _ref_radical_parts(x):
    """radical_parts as it was before it tried primes only: every odd
    divisor up to the bound, kept as the reference."""
    x = Fraction(x)
    n = x.numerator * x.denominator
    s, core, m, f = 1, 1, n, 2
    while f * f * f <= m and f <= 100_000:
        if m % f == 0:
            e = 0
            while m % f == 0:
                m //= f
                e += 1
            s *= f ** (e // 2)
            if e % 2:
                core *= f
        f += 1 if f == 2 else 2
    r = math.isqrt(m)
    if r * r == m:
        s *= r
    else:
        core *= m
    return Fraction(s, x.denominator), Fraction(core)


# primes around the trial-division bound and past it
_EDGE_PRIMES = [2, 3, 97, 99_989, 99_991, 100_003, 100_019, 1_000_003]


@settings(max_examples=200)
@given(st.one_of(
    st.integers(1, 10**15), st.integers(10**15, 10**24),
    st.builds(lambda p, k: p * p * k, st.sampled_from(_EDGE_PRIMES),
              st.integers(1, 10**9)),
    st.fractions(min_value=Fraction(1, 10**12), max_value=10**12)))
@example(99_991 ** 2 * 99_989)
@example(100_003 ** 2 * 99_991)
@example(99_991 ** 3)
def test_radical_parts_equals_the_all_odd_divisors_reference(x):
    assert numerics.radical_parts(x) == _ref_radical_parts(x)


class _RefContext:
    """The state ``Arithmetic.sqrt`` reads and writes: radicand, demotion
    and notes."""

    def __init__(self, radicand):
        self.radicand, self.demoted, self.notes = radicand, False, []

    def demote(self, why):
        if not self.demoted:
            self.demoted = True
            self.notes.append(why)


def _ref_sqrt(ar, x):
    """``Arithmetic.sqrt`` in an exact context as it was before it took a
    root in one pass, kept as the reference: ``fraction_sqrt`` of x, then
    of ``x/d`` over a held radicand ``d`` and ``QuadExt(0, t, d)``, or
    ``QuadExt(0, 1, x)`` with none held."""
    if isinstance(x, float) or ar.demoted:
        return math.sqrt(abs(to_float(x)))
    x = abs(x)
    if isinstance(x, QuadExt):
        ar.demote(f"nested radical sqrt({x!r})")
        return math.sqrt(abs(to_float(x)))
    x = Fraction(x)
    r = fraction_sqrt(x)
    if r is not None:
        return r
    d = ar.radicand
    if d is None:
        root = QuadExt(0, 1, x)
        ar.radicand = Fraction(root.d)
        return root
    t = fraction_sqrt(x / d)
    if t is not None:
        return QuadExt(0, t, d)
    ar.demote(f"second radicand {x} incompatible with {d}")
    return math.sqrt(to_float(x))


def _typed_scalar(v):
    if isinstance(v, QuadExt):
        return QuadExt, v.p, v.q, v.n, v.d
    return type(v), v


_root_inputs = st.one_of(
    rationals, st.integers(-100, 100),
    st.builds(lambda q: q * q, rationals),
    st.builds(lambda q, d: q * q * d, nonzero_rationals,
              st.sampled_from([2, 3, 6, 8, Fraction(1, 2), Fraction(2, 3)])),
    st.builds(lambda k, p: k * p * p, st.integers(1, 10**6),
              st.sampled_from([100_003, 1_000_003])),
    st.builds(QuadExt, rationals, nonzero_rationals, st.sampled_from([2, 3])),
    st.floats(-100, 100))


@settings(max_examples=300)
@given(st.lists(_root_inputs, min_size=1, max_size=4),
       st.sampled_from([None, Fraction(2), Fraction(3), Fraction(8),
                        Fraction(1, 2)]))
@example([2 * 1000003 ** 2, Fraction(2)], None)
@example([Fraction(9, 8), 8, Fraction(1, 2)], Fraction(8))
@example([0, -2, Fraction(-1, 2), 3], Fraction(1, 2))
@example([QuadExt(1, 1, 2), 2], Fraction(2))
def test_sqrt_equals_the_two_pass_reference(xs, radicand):
    # every root in value, type and d; then the context's state
    ar, ref = numerics.Arithmetic("exact", radicand), _RefContext(radicand)
    for x in xs:
        assert _typed_scalar(ar.sqrt(x)) == _typed_scalar(_ref_sqrt(ref, x))
    assert (ar.radicand, ar.demoted, ar.notes) == \
        (ref.radicand, ref.demoted, ref.notes)


def _ref_linear_solve(rows, nunk):
    """The Fraction and QuadExt Gauss-Jordan that exact systems ran on
    before the fraction-free elimination, kept as the reference: pivot on
    the first nonzero entry of each column, scale the pivot row, clear the
    column."""
    A = [[lift(c) for c in coeffs] + [lift(rhs)] for coeffs, rhs in rows]
    pivots = []
    rank = 0
    for col in range(nunk):
        pr = next((i for i in range(rank, len(A)) if A[i][col] != 0), None)
        if pr is None:
            continue
        A[rank], A[pr] = A[pr], A[rank]
        piv = A[rank][col]
        A[rank] = [c / piv for c in A[rank]]
        for i in range(len(A)):
            if i != rank and A[i][col] != 0:
                f = A[i][col]
                A[i] = [a - f * b for a, b in zip(A[i], A[rank])]
        pivots.append((rank, col))
        rank += 1
    if any(A[i][nunk] != 0 for i in range(rank, len(A))):
        return None, None
    particular = [Fraction(0)] * nunk
    for r, col in pivots:
        particular[col] = A[r][nunk]
    pivot_cols = {col for _, col in pivots}
    basis = []
    for free in range(nunk):
        if free in pivot_cols:
            continue
        v = [Fraction(0)] * nunk
        v[free] = Fraction(1)
        for r, col in pivots:
            v[col] = -A[r][free]
        basis.append(tuple(v))
    return tuple(particular), basis


def _typed(value):
    """A value with the type of every scalar in it, so that an int where a
    Fraction was expected (or the reverse) compares unequal."""
    if value is None:
        return None
    if isinstance(value, (list, tuple)):
        return type(value), tuple(_typed(v) for v in value)
    return type(value), value


rational_entries = st.one_of(st.integers(-6, 6), rationals)


@st.composite
def rational_systems(draw, entries=rational_entries,
                     factors=st.one_of(st.integers(-3, 3), rationals),
                     shifts=nonzero_rationals, rhs_entries=None):
    """1-4 rows over 3-5 unknowns of ``entries``, by default ints and
    Fractions, and rhs of ``rhs_entries`` (by default ``entries``); a row
    after the first may be zero, a combination of earlier rows
    (dependent), or such a combination with its rhs moved
    (inconsistent)."""
    rhs_entries = entries if rhs_entries is None else rhs_entries
    nunk = draw(st.integers(3, 5))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(
            ["free", "zero", "dependent", "inconsistent"] if rows else ["free"]))
        if kind == "free":
            rows.append((tuple(draw(st.lists(entries, min_size=nunk,
                                             max_size=nunk))),
                         draw(rhs_entries)))
            continue
        if kind == "zero":
            rows.append(((0,) * nunk, 0))
            continue
        coeffs, rhs = [0] * nunk, 0
        for c, r in rows:
            t = draw(factors)
            coeffs = [a + t * b for a, b in zip(coeffs, c)]
            rhs += t * r
        if kind == "inconsistent":
            rhs += draw(shifts)
        rows.append((tuple(coeffs), rhs))
    return rows, nunk


@settings(max_examples=300)
@given(rational_systems())
def test_integer_linear_solve_equals_the_fraction_reference(system):
    rows, nunk = system
    p, basis = relations.linear_solve(rows, nunk).solution()
    want_p, want_basis = _ref_linear_solve(rows, nunk)
    assert _typed(p) == _typed(want_p)
    assert _typed(basis) == _typed(want_basis)


# metrics with n = 1, 2, 3: a system over nunk unknowns is one on the
# cycles of a metric with n = nunk - 2
BRANCH_METRICS = {3: [Metric.from_signature(1), Metric.from_signature(0, 1),
                      Metric.from_signature(0, 0, 1)],
                  4: METRICS,
                  5: [Metric.from_signature(3), Metric.from_signature(1, 1, 1),
                      Metric.from_signature(2, 0, 1)]}


@st.composite
def homogeneous_systems(draw):
    """A rational system with every rhs 0 as one branch sees it: its metric
    and no demand or a point demand."""
    rows, nunk = draw(rational_systems())
    metric = draw(st.sampled_from(BRANCH_METRICS[nunk]))
    return (metric, [(coeffs, 0) for coeffs, _ in rows],
            draw(st.sampled_from([None, 0])))


def _ref_branch(metric, rows, demand):
    """``_solve_branch`` of a homogeneous system from the Fraction reference
    elimination: (candidate rows | None, parametric tuple | None)."""
    _, basis = _ref_linear_solve(rows, metric.n + 2)
    Q = lambda x, y: cycle.row_product(metric, x, y)
    dim = len(basis)
    if dim == 0:
        return [], None
    if dim == 1:
        v = basis[0]
        return ([v] if demand is None or Q(v, v) == 0 else []), None
    if dim == 2 and demand == 0:
        sols = relations._binary_quadratic(Q, *basis,
                                           numerics.Arithmetic("exact"))
        if sols is not None:
            return sols, None
        return None, (None, basis, None)
    return None, (None, basis, demand)


@settings(max_examples=300)
@given(homogeneous_systems())
# the two isotropic rows of the pencil orthogonal to the unit circle and
# the real line are the points (-1, 0) and (1, 0): rational roots
@example((E2, [(pairing_coeffs(E2, Cycle(E2, 1, (0, 0), -1)), 0),
               (pairing_coeffs(E2, Cycle(E2, 0, (0, 1), 0)), 0)], 0))
def test_integer_branch_equals_the_fraction_reference(system):
    metric, rows, demand = system
    red = relations.linear_solve(rows, metric.n + 2)
    sols, par = relations._solve_branch(metric, red, 0, demand,
                                        numerics.Arithmetic("exact"), [])
    want_sols, want_par = _ref_branch(metric, rows, demand)
    canonical = lambda found: None if found is None else [
        _typed(Cycle.from_row(metric, row).canonical().row()) for row in found]
    assert canonical(sols) == canonical(want_sols)
    assert _typed(par) == _typed(want_par)


@st.composite
def radical_systems(draw):
    """Systems as above whose entries mix 0, ints, Fractions and QuadExts
    over one radicand, some with no radical part."""
    d = draw(st.sampled_from([2, 3, 5, 6]))
    quads = st.builds(lambda a, b: QuadExt(a, b, d), rationals, rationals)
    return draw(rational_systems(
        st.one_of(st.just(0), st.integers(-6, 6), rationals, quads),
        st.one_of(st.integers(-3, 3), rationals, quads),
        st.one_of(nonzero_rationals, quads.filter(bool))))


@settings(max_examples=300)
@given(radical_systems())
def test_radical_linear_solve_equals_the_field_reference(system):
    rows, nunk = system
    p, basis = relations.linear_solve(rows, nunk).solution()
    assert (p, basis) == _ref_linear_solve(rows, nunk)
    # a value without a radical part reads back as a Fraction
    for value in [] if p is None else [*p, *(c for v in basis for c in v)]:
        assert type(value) is Fraction or (type(value) is QuadExt and value.q)


def test_two_radicands_in_one_system_clash():
    r2, r3 = QuadExt(0, 1, 2), QuadExt(0, 1, 3)
    rows = [((r2, 1, 0), 1), ((1, r3, 1), 2)]
    with pytest.raises(RadicalClash):
        relations.linear_solve(rows, 3)
    with pytest.raises(RadicalClash):
        _ref_linear_solve(rows, 3)


def _pattern_rows(rows, signed, signs):
    """The rows of one sign pattern: row ``signed[j]`` with its rhs times
    ``signs[j]``, every other row as it is."""
    sign_of = dict(zip(signed, signs))
    return [(c, -r if sign_of.get(i, 1) < 0 else r)
            for i, (c, r) in enumerate(rows)]


@st.composite
def radical_rhs_systems(draw):
    """Rational coefficient rows whose rhs lie in Q(sqrt d), some with no
    radical part: ``linear_solve`` eliminates them over Z[sqrt d] when a
    rhs has a radical part, over the ints otherwise."""
    d = draw(st.sampled_from([2, 3, 5, 6]))
    quads = st.builds(lambda a, b: QuadExt(a, b, d), rationals, rationals)
    return draw(rational_systems(
        rhs_entries=st.one_of(st.just(0), rationals, quads),
        shifts=st.one_of(nonzero_rationals, quads.filter(bool))))


@st.composite
def two_radicand_systems(draw):
    """Coefficients in Q(sqrt d1) and rhs in Q(sqrt d2), as when a
    reference with a radical entry meets a tangency rhs whose root is in
    another field."""
    d1, d2 = draw(st.lists(st.sampled_from([2, 3, 5]), min_size=2,
                           max_size=2, unique=True))
    quads = lambda d: st.builds(lambda a, b: QuadExt(a, b, d), rationals,
                                nonzero_rationals)
    return draw(rational_systems(
        st.one_of(st.integers(-6, 6), rationals, quads(d1)),
        rhs_entries=st.one_of(rationals, quads(d2)), shifts=quads(d2)))


@st.composite
def signed_linear_systems(draw):
    """A system (zero, dependent and inconsistent rows included) with a
    signed rhs on some rows and rhs 0 on the others, and the ``ring`` to
    eliminate it in: rational, radical, radical-rhs or two-radicand rows
    exactly, float rows or exact rows in floats."""
    ring = draw(st.sampled_from([None, float]))
    floats = st.floats(-50, 50)
    rows, nunk = draw(st.one_of(
        rational_systems(), radical_systems(), radical_rhs_systems(),
        two_radicand_systems(),
        rational_systems(floats, floats, floats.filter(bool))))
    signed = sorted(draw(st.sets(st.sampled_from(range(len(rows))),
                                 min_size=min(2, len(rows)))))
    return ([(c, r if i in signed else 0) for i, (c, r) in enumerate(rows)],
            signed, nunk, ring)


R2 = QuadExt(0, 1, 2)
R3 = QuadExt(0, 1, 3)


def _outcome_or_error(fn):
    """``fn()``, or the type and message of the ArithmeticError it raises."""
    try:
        return fn()
    except ArithmeticError as err:
        return type(err), str(err)


@settings(max_examples=600)
@given(signed_linear_systems())
# one row twice with rhs 1 and -1: A is rank-deficient, and the row past
# the rank cancels for the patterns (+, -, *) and is inconsistent for the
# others
@example(([((1, 2, 0, 1), 1), ((1, 2, 0, 1), -1), ((0, 1, 1, 0), 3)],
          [0, 1, 2], 4, None))
# Z[sqrt 2] rows, the third the sum of the first two
@example(([((1 + R2, 0, 1), R2), ((1, R2, 0), 1),
           ((2 + R2, R2, 1), 1 + R2)], [0, 1, 2], 3, None))
# every signed rhs 0: the particular row cancels to zero
@example(([((1, 0, 0, 0), 0), ((0, 1, 0, 0), 0)], [0, 1], 4, None))
# rational rows with sqrt 2 rhs, over Z[sqrt 2]; and the same rows in
# floats
@example(([((1, 2, 0, 1), R2), ((0, 1, 1, 0), 3 * R2), ((2, 0, 1, 1), 1)],
          [0, 1], 4, None))
@example(([((1, 2, 0, 1), R2), ((0, 1, 1, 0), 3 * R2), ((2, 0, 1, 1), 1)],
          [0, 1], 4, float))
# a sqrt 3 coefficient against sqrt 2 rhs
@example(([((1, R3, 0), R2), ((1, 1, 1), 2 * R2)], [0, 1], 3, None))
def test_shared_elimination_equals_one_elimination_per_pattern(system):
    # the read-back of each sign pattern's column of one elimination is
    # the pattern's own linear_solve: typed for exact rows, by repr for
    # float rows, so that -0.0 and last bits count; a system that clashes
    # raises what the first pattern to clash raises
    rows, signed, nunk, ring = system
    patterns = [_pattern_rows(rows, signed, signs)
                for signs in iproduct((1, -1), repeat=len(signed))]
    columns = [(c, tuple([pattern[i][1] for pattern in patterns]))
               for i, (c, _) in enumerate(rows)]
    want = _outcome_or_error(lambda: [
        relations.linear_solve(pattern, nunk, ring).solution()
        for pattern in patterns])

    def shared():
        red = relations.linear_solve(columns, nunk, ring)
        return [(p, None if p is None else red.basis())
                for p in map(red.particular, range(len(patterns)))]

    got = _outcome_or_error(shared)
    same = repr if ring is float else _typed
    assert same(got) == same(want)


# metrics e, h, p and (3,0,0), and (1,0,0) for three unknowns
LINE_METRICS = {3: [Metric.from_signature(1)], 4: METRICS,
                5: [Metric.from_signature(3)]}


@st.composite
def line_systems(draw):
    """A system from radical_rhs_systems or signed_linear_systems with its
    sign patterns, a metric, a demand +-1 and the radicand a solve's
    context may hold.  Rational coefficient rows are topped up with random
    rows (rhs over the system's radicand) towards one free column, where
    the solution is a line."""
    rows, signed, nunk, ring = draw(st.one_of(
        radical_rhs_systems().map(lambda s: (s[0], [i for i, (_, r) in
                                                    enumerate(s[0]) if r][:3],
                                             s[1], None)),
        signed_linear_systems()))
    ds = {r.d for _, r in rows if type(r) is QuadExt and r.q}
    d = min(ds) if ds else None
    if ring is None and all(type(c) in (int, Fraction)
                            for coeffs, _ in rows for c in coeffs):
        rank = len(relations.linear_solve(
            [(c, 0) for c, _ in rows], nunk).pivots)
        rhs = st.one_of(rationals, st.builds(lambda a, b: QuadExt(a, b, d),
                                             rationals, rationals)) \
            if d else rationals
        rows = rows + [(tuple(draw(st.lists(rational_entries, min_size=nunk,
                                            max_size=nunk))), draw(rhs))
                       for _ in range(nunk - 1 - rank)]
    radicand = draw(st.sampled_from([None, d or 2, 3]))
    return (draw(st.sampled_from(LINE_METRICS[nunk])), rows, signed, ring,
            draw(st.sampled_from([1, -1])), radicand)


def _line(rows, demand=-1, radicand=None):
    """One E2 system of three rows k = rows[0], l_2 = rows[1], m = rows[2]
    as ``line_systems`` draws them: l_1 is free, and <x,x> = 2 k m - 2 l_1^2
    - 2 l_2^2 meets the demand where 2 l_1^2 = 2 k m - 2 l_2^2 - demand."""
    unit = [(1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    return (E2, list(zip(unit, rows)), [], None, demand, radicand)


@settings(max_examples=300)
@given(line_systems())
@example(_line((1, 0, 0), demand=1))   # l_1^2 = -1/2: no root
@example(_line((1, 0, Fraction(1, 2)), demand=1))      # a double root
@example(_line((1, 0, Fraction(1, 2))))                # l_1 = +-1
@example(_line((1, 0, 0)))                             # l_1 = +-sqrt(1/2)
@example(_line((1, 0, 0), radicand=Fraction(2)))       # in the context's
@example(_line((1, 0, Fraction(1, 4)), radicand=Fraction(2)))  # sqrt 3
@example(_line((1, R2, 2), radicand=Fraction(2)))      # rhs and root sqrt 2
@example(_line((1, R2, 3 * R2), radicand=Fraction(2)))  # nested radical
@example(_line((1, R2, 3 * R2)))       # sqrt 2 rhs, a context with none
# m is free: <v,v> = 0, one root; and the same over a sqrt 2 rhs, whose
# one root t = -c / 2b has b and c in Q(sqrt 2)
@example((E2, [((1, 0, 0, 0), 1), ((0, 1, 0, 0), 0), ((0, 0, 1, 0), 0)],
          [], None, 1, None))
@example((E2, [((1, 0, 0, 0), 1 + R2), ((0, 1, 0, 0), 2 - R2),
               ((0, 0, 1, 0), 0)], [], None, 1, Fraction(2)))
# two sign patterns on a sqrt 2 rhs, and two on a rational one
@example((E2, [((1, 0, 0, 0), 1), ((0, 0, 1, 0), R2), ((0, 1, 0, 1), 3)],
          [1, 2], None, -1, Fraction(2)))
@example((Metric.named("h"), [((1, 0, 0, 0), 2), ((0, 1, 0, 0), 1),
                              ((0, 0, 1, 1), 3)], [0, 2], None, 1, None))
def test_integer_line_equals_the_field_candidates(system):
    # each sign pattern's branch reads its candidates as the field rows
    # give them: exact rows projectively and typed (through canonical_row,
    # the reference), float rows by repr, the parametric result typed, and
    # the context's radicand, demotion and notes after it
    metric, rows, signed, ring, demand, radicand = system
    nunk = metric.n + 2
    patterns = [_pattern_rows(rows, signed, signs)
                for signs in iproduct((1, -1), repeat=len(signed))]
    columns = [(c, tuple([pattern[i][1] for pattern in patterns]))
               for i, (c, _) in enumerate(rows)]
    try:
        red = relations.linear_solve(columns, nunk, ring)
    except RadicalClash:
        reject()

    for j in range(len(patterns)):
        if not red.consistent[j]:
            continue
        got = _branch_outcome(lambda ar: relations._solve_branch(
            metric, red, j, demand, ar, []), radicand)
        want = _branch_outcome(lambda ar: relations._field_candidates(
            metric, red.particular(j), red.basis(), demand, ar), radicand)
        assert got == want


@settings(max_examples=300)
@given(st.one_of(rational_systems(), radical_rhs_systems()), st.data())
# sqrt 2 rhs on two signed rows of rational rows, and their difference
# with its rhs: eliminated over Z[sqrt 2], with no int read-back
@example(([((1, 2, 0, 1), R2), ((0, 1, 1, 0), 3 * R2), ((2, 0, 1, 1), 1),
           ((1, 1, -1, 1), -2 * R2)], 4), None)
def test_integer_rows_equal_the_field_read_back(system, data):
    # every consistent rhs column of an int elimination reads back in
    # ints (L, basis, P) as the field rows read it, typed: basis() is
    # [V / L] with L in each row's free column, and particular(j) is
    # P / L
    rows, nunk = system
    signed = [0, 1] if data is None else sorted(data.draw(st.sets(
        st.sampled_from(range(len(rows))), max_size=3)))
    patterns = [_pattern_rows(rows, signed, signs)
                for signs in iproduct((1, -1), repeat=len(signed))]
    red = relations.linear_solve(
        [(c, tuple([pattern[i][1] for pattern in patterns]))
         for i, (c, _) in enumerate(rows)], nunk)
    if red.ring is not int:
        # a rhs over sqrt d keeps the elimination over Z[sqrt d], whose
        # rows have no int read-back
        assert all(red.integer_rows(j) is None
                   for j in range(len(patterns)))
        return
    free = sorted(set(range(nunk)) - {col for _, col in red.pivots})
    for j, consistent in enumerate(red.consistent):
        ints = red.integer_rows(j)
        if not consistent:
            assert ints is None
            continue
        L, basis, P = ints
        assert L > 0
        assert [V[f] for V, f in zip(basis, free)] == [L] * len(free)
        assert _typed([tuple([Fraction(x, L) for x in V]) for V in basis]) \
            == _typed(red.basis())
        assert _typed(tuple([Fraction(x, L) for x in P])) \
            == _typed(red.particular(j))


class _IntRow(relations.Relation):
    """The row ``coeffs . x = 0`` of any int row, the zero row included,
    verified on the candidate's own row."""

    def __init__(self, coeffs):
        self.coeffs = coeffs

    def satisfied_by(self, cycle, eps):
        return not sum(map(operator.mul, self.coeffs, cycle.row()))

    def __repr__(self):
        return f"_IntRow{self.coeffs}"


@st.composite
def plane_int_systems(draw):
    """A homogeneous plane system of int rows in e, p or h: three rows and
    no demand, or two rows against IsPoint, in any order, with OnlyReals
    at times.  A row may be zero or a multiple of another, and up to two
    columns may be zero in every row, so the rank may fall short.  Each
    row is an _IntRow, or IsOrthogonal to an int reference cycle."""
    metric = draw(st.sampled_from(METRICS))
    nrows = draw(st.sampled_from([3, 2]))
    rows = draw(st.lists(st.tuples(*[st.sampled_from(range(-5, 6))] * 4),
                         min_size=nrows, max_size=nrows))
    i, j = draw(st.permutations(range(nrows)))[:2]
    shape = draw(st.sampled_from(["zero row", "repeated row", "zero column",
                                  "zero columns"] + ["as drawn"] * 4))
    if shape == "zero row":
        rows[i] = (0, 0, 0, 0)
    elif shape == "repeated row":
        k = draw(st.sampled_from([-2, -1, 1, 2]))
        rows[i] = tuple(k * v for v in rows[j])
    elif shape != "as drawn":
        zero = draw(st.sets(st.sampled_from(range(4)), min_size=1,
                            max_size=1 if shape == "zero column" else 2))
        rows = [tuple(0 if c in zero else v for c, v in enumerate(row))
                for row in rows]
    rels = [_IntRow(row) if draw(st.booleans()) else
            IsOrthogonal(Cycle(metric, row[0], row[1:3], row[3]))
            for row in rows]
    rels += [IsPoint(metric)] if nrows == 2 else []
    rels += [OnlyReals(metric)] if draw(st.booleans()) else []
    return metric, draw(st.permutations(rels))


def _eliminated(rels, metric):
    """What ``solve`` answers through the one elimination: linear_solve
    and the branch read-back on the rows it reads, then the shared tail."""
    live = [c for c in (r.row(True) for r in rels) if c is not None]
    demand = 0 if any(r.demand == 0 for r in rels) else None
    red = relations.linear_solve([(c, (0,)) for c in live], 4, int)
    ar = numerics.Arithmetic()
    sols, par = relations._solve_branch(metric, red, 0, demand, ar, [])
    pattern = (None,) * len(rels)
    return relations._kept(rels, metric, [
        (srow, (pattern, idx)) for idx, srow in enumerate(sols or ())],
        [ar], par, demand)


def _solution_digest(sol):
    """Everything a SolutionSet holds, each row with its entry types."""
    def rows(cycles):
        return [_typed(c.row()) for c in cycles]
    return (sol.status, rows(sol.cycles), sol.provenance,
            sol.base and _typed(sol.base.row()), rows(sol.span),
            sol.residual_demand, sol.reason, sol.demoted, sol.notes)


@settings(max_examples=300)
@given(plane_int_systems())
# isotropic pencils in h and p: every minor path falls through
@example((Metric.named("h"), [IsPoint(Metric.named("h")),
                              _IntRow((0, 1, -1, 0)), _IntRow((0, 0, 0, 1))]))
@example((Metric.named("p"), [_IntRow((0, 1, 0, 0)), _IntRow((0, 0, 0, 1)),
                              IsPoint(Metric.named("p"))]))
# a repeated reference: rank 2 of three rows
@example((E2, [IsOrthogonal(Cycle(E2, 1, (0, 0), -1)), IsFlat(E2),
               IsOrthogonal(Cycle(E2, 2, (0, 0), -2))]))
# one point of a pencil over sqrt 2, and a rational pair
@example((E2, [IsPoint(E2), _IntRow((1, 0, 0, -1)), _IntRow((0, 0, 1, 0))]))
@example((E2, [IsPoint(E2), _IntRow((1, 0, 0, -2)), _IntRow((0, 0, 1, 0))]))
def test_plane_minors_equal_the_elimination(system):
    # a homogeneous plane system of int rows answers off its minors as the
    # one elimination answers: status, cycles by value and entry type,
    # provenance and notes; a rank-deficient system, or an isotropic
    # pencil, makes the elimination and takes its answer
    metric, rels = system
    want = _eliminated(rels, metric)
    with mock.patch.object(relations, "linear_solve",
                           wraps=relations.linear_solve) as spy:
        got = solve(rels, metric)
    assert _solution_digest(got) == _solution_digest(want)
    live = [c for c in (r.row(True) for r in rels) if c is not None]
    full = len(relations.linear_solve([(c, 0) for c in live], 4).pivots) \
        == len(live)
    assert spy.call_count == (0 if full and want.status != "parametric"
                              else 1)
    if not full:
        assert want.status in ("parametric", "infeasible")


def _ref_row_product(metric, x, y):
    """The pairing summed over the rows' own scalars."""
    eta, n = metric.product_eta, metric.n
    acc = x[n + 1] * y[0] + y[n + 1] * x[0]
    for i in range(n):
        if eta[i] != 0:
            acc = acc + 2 * eta[i] * x[1 + i] * y[1 + i]
    return acc


PAIRING_METRICS = METRICS + [Metric.from_signature(3),
                             Metric.from_signature(1, 1, 1)]


@st.composite
def exact_row_pairs(draw):
    """Two rows of one metric, null axes included, over Q or over one
    Q(sqrt d): 0, ints and Fractions, and over Q(sqrt d) also QuadExts,
    some of them with no radical part."""
    metric = draw(st.sampled_from(PAIRING_METRICS))
    entries = [st.just(0), st.integers(-6, 6), rationals,
               st.builds(Fraction, st.integers(-6, 6))]
    d = draw(st.sampled_from([0, 0, 2, 3, 12]))
    if d:
        entries.append(st.builds(lambda a, b: QuadExt(a, b, d), rationals,
                                 st.one_of(st.just(0), rationals)))
    row = st.lists(st.one_of(*entries), min_size=metric.n + 2,
                   max_size=metric.n + 2)
    return metric, tuple(draw(row)), tuple(draw(row))


def _exactly(value):
    """:func:`_typed` plus the repr, which shows a QuadExt's radicand also
    when its radical part is 0."""
    return _typed(value), repr(value)


@settings(max_examples=300)
@given(exact_row_pairs())
def test_integer_row_product_equals_the_fraction_sum(case):
    metric, x, y = case
    want = _exactly(_ref_row_product(metric, x, y))
    assert _exactly(cycle.row_product(metric, x, y)) == want
    cx, cy = Cycle.from_row(metric, x), Cycle.from_row(metric, y)
    assert _exactly(cx.product(cy)) == want
    assert _exactly(cx.product(cy)) == want    # the cached integer forms
    assert _exactly(cx.self_product()) == \
        _exactly(_ref_row_product(metric, x, x))


def _rebuilt(form):
    """The row an integer form stands for: num/den * (P_i + Q_i sqrt d)."""
    P, Q, d, num, den, _ = form
    scale = Fraction(num, den)
    return tuple(QuadExt(scale * p, scale * q, d) if d else scale * p
                 for p, q in zip(P, Q or [0] * len(P)))


def _widest(row):
    kinds = set(map(type, row))
    return QuadExt if QuadExt in kinds else Fraction if Fraction in kinds \
        else int


@settings(max_examples=150)
@given(exact_row_pairs(), nonzero_rationals)
def test_integer_form_is_unchanged_by_rational_scaling(case, t):
    # dedup reads a rational row's primitive row, so it cannot see a
    # projective scale; a Q(sqrt d) row's form is only cleared of
    # denominators, so its scaled form rebuilds the scaled row
    metric, x, _ = case
    c = Cycle.from_row(metric, x)
    form, scaled = c.integer_form(), c.scaled(t).integer_form()
    if not any(x):
        assert form == scaled == ()
        return
    P, Q, d, num, den, kind = form
    assert _rebuilt(form) == c.row() and kind is _widest(x)
    assert _rebuilt(scaled) == c.scaled(t).row()
    assert scaled[2] == d and den > 0
    radical = [v for v in x if type(v) is QuadExt and v.q]
    assert bool(Q) == bool(radical) and (not radical or d == radical[0].d)
    if d:
        assert any(type(v) is QuadExt for v in x) and num == 1
        return
    assert math.gcd(*P) == 1 and next(v for v in P if v) > 0
    s = Fraction(num, den) * t
    assert scaled == (P, (), 0, s.numerator, s.denominator, Fraction)


@settings(max_examples=150)
@given(exact_row_pairs())
def test_integer_form_pairing_equals_the_fraction_sum(case):
    metric, x, y = case
    fx = Cycle.from_row(metric, x).integer_form()
    fy = Cycle.from_row(metric, y).integer_form()
    if not (fx and fy):
        return
    R, S = cycle.form_pairing(metric.weights, fx, fy)
    scale = Fraction(fx[3] * fy[3], fx[4] * fy[4])
    d = fx[2] or fy[2]
    got = QuadExt(scale * R, scale * S, d) if d else scale * R
    lifted = [[v if type(v) is QuadExt else Fraction(v) for v in row]
              for row in (x, y)]
    assert got == _ref_row_product(metric, *lifted)
    if not d:
        assert S == 0


R3 = QuadExt(0, 1, 3)


@pytest.mark.parametrize("metric, x, y", [
    (E2, (1, 2, 3, 4), (5, 6, 7, 8)),                       # ints give an int
    (E2, (Fraction(1, 2), 2, 3, 4), (5, 6, 7, 8)),
    (E2, (0, 0, 0, 0), (Fraction(1, 3), 1, 1, 1)),
    # the parabolic pairing skips l_2: a Fraction there leaves an int sum
    (Metric.named("p"), (1, 2, Fraction(1, 3), 4), (5, 6, Fraction(1, 7), 8)),
    (Metric.named("p"), (Fraction(2), 2, Fraction(1, 3), 4), (5, 6, 7, 8)),
    # a QuadExt entry the pairing reads gives a QuadExt, and one on a
    # null axis does not
    (E2, (Fraction(1, 2), QuadExt(1, 1, 2), 3, 4), (5, Fraction(6, 7), 7, 8)),
    (E2, (QuadExt(1, 1, 2), 1, 0, 3), (1, 2, 3, 4)),
    (Metric.named("p"), (1, 2, R2, 4), (5, 6, R2, 8)),
    # two radicands: a row over two has no form, and forms over two sum
    # as they are, raising or not as the entries do
    (E2, (1, R2, R3, 1), (1, 1, 0, 2)),
    (E2, (1, 2 - R2, 0, -2 - 4 * R2), (1, 0, R3, 2)),
    (E2, (1, R2, 0, 1), (1, R3, 0, 2)),
    # floats sum as they are, bit for bit
    (E2, (0.1, 1.25, -3.0, Fraction(1, 3)), (1.5, 0.7, 0.3, 7.0)),
])
def test_row_product_keeps_the_sum_type(metric, x, y):
    def outcome(pair):
        try:
            return _exactly(pair())
        except RadicalClash as exc:
            return RadicalClash, str(exc)

    want = outcome(lambda: _ref_row_product(metric, x, y))
    assert outcome(lambda: cycle.row_product(metric, x, y)) == want
    assert outcome(lambda: Cycle.from_row(metric, x).product(
        Cycle.from_row(metric, y))) == want


def test_two_radicand_rows_pair_as_before():
    assert Cycle.from_row(E2, (1, R2, R3, 1)).integer_form() == ()
    assert repr(cycle.row_product(E2, (1, R2, R3, 1), (1, 1, 0, 2))) == \
        "QuadExt(3, -2, sqrt=2)"
    assert repr(cycle.row_product(E2, (1, 2 - R2, 0, -2 - 4 * R2),
                                  (1, 0, R3, 2))) == "QuadExt(0, -4, sqrt=2)"
    with pytest.raises(RadicalClash, match=r"^sqrt\(2\) vs sqrt\(3\)$"):
        Cycle.from_row(E2, (1, R2, 0, 1)).product(
            Cycle.from_row(E2, (1, R3, 0, 2)))


def _ref_canonical_row(values):
    """A rational row times the inverse of its first nonzero entry."""
    pivot = next((v for v in values if v != 0), None)
    if pivot is None:
        return tuple(values)
    inv = 1 / Fraction(pivot)
    return tuple(v * inv for v in values)


rational_rows = st.lists(st.one_of(st.just(0), st.integers(-6, 6), rationals),
                         min_size=1, max_size=5)


def _assert_canonical_like_the_reference(row):
    """canonical_row, and for a cycle row (length 3 or more)
    ``Cycle.canonical``, give the reference's values and types."""
    want = _typed(_ref_canonical_row(row))
    assert _typed(canonical_row(row, 1e-12)) == want
    if len(row) >= 3:
        metric = Metric.from_signature(len(row) - 2)
        assert _typed(Cycle.from_row(metric, row).canonical().row()) == want


@given(rational_rows)
def test_rational_canonical_row_equals_the_fraction_reference(row):
    _assert_canonical_like_the_reference(row)


@pytest.mark.parametrize("row", [
    (2, 4, -6),                                  # ints only
    (1, 2, 3),                                   # ints led by 1 become Fractions
    (0, -3, Fraction(3, 2), 6),                  # negative pivot
    (0, 0, 0),                                   # all zero: unchanged
    (Fraction(0), Fraction(0)),
    (Fraction(1), 2, Fraction(1, 3)),            # mixed, led by 1
    (Fraction(1), Fraction(-2), Fraction(1, 3)),  # already canonical
    (Fraction(-2, 3), 4, Fraction(5, 7)),
])
def test_rational_canonical_row_keeps_the_reference_types(row):
    _assert_canonical_like_the_reference(row)


@st.composite
def quad_rows(draw):
    """A cycle row over 3-5 entries mixing 0, ints, Fractions and Q(sqrt d)
    values, some with no radical part, with at least one QuadExt entry,
    and a nonzero scale in Q(sqrt d), irrational or not."""
    d = draw(st.sampled_from([2, 3, 5, 6]))
    quads = st.builds(lambda a, b: QuadExt(a, b, d), rationals,
                      st.one_of(st.just(0), rationals))
    row = draw(st.lists(st.one_of(st.just(0), st.integers(-6, 6), rationals,
                                  quads), min_size=2, max_size=4))
    row.insert(draw(st.integers(0, len(row))), draw(quads))
    scale = draw(st.builds(lambda a, b: QuadExt(a, b, d), rationals,
                           rationals).filter(bool))
    return row, scale


def _hashable_form(c):
    form = c.integer_form()
    return form and (tuple(form[0]), tuple(form[1]), *form[2:])


@settings(max_examples=300)
@given(quad_rows())
@example(([QuadExt(1, 0, 2), 0, QuadExt(0, 1, 2)], QuadExt(0, 1, 2)))
@example(([0, QuadExt(2, 0, 3), 4, 1], QuadExt(1, 1, 3)))
@example(([QuadExt(1, 1, 2), Fraction(1, 2), 0, QuadExt(3, -2, 2)],
          Fraction(-2, 3)))
def test_radical_canonical_equals_the_canonical_row_reference(case):
    # Cycle.canonical reads a Q(sqrt d) row off its integer form: the
    # values and types of canonical_row, and the form it keeps is the
    # one its row gives; the dedup form of the canonical cycle (solve
    # keys an exact candidate on it) is unchanged by any scale
    row, scale = case
    metric = Metric.from_signature(len(row) - 2)
    if not any(row):
        reject()
    can = Cycle.from_row(metric, row).canonical()
    assert _typed(can.row()) == _typed(canonical_row(row, 1e-12))
    assert _hashable_form(can) == _hashable_form(Cycle.from_row(metric,
                                                                can.row()))
    scaled = Cycle.from_row(metric, [v * scale for v in row]).canonical()
    assert _hashable_form(scaled) == _hashable_form(can)


def _ref_validate_chain(ch):
    """The scalar loop that checked every chain before exact chains were
    checked in ints, kept as the reference: each residual through
    ``Cycle.product``, ``value_at`` at the quotient or ``det``, tested with
    :func:`near_zero` against the scale of all rows.  It raises InvalidCF
    where it raised ValueError."""
    eps = comparison_eps()
    rows = [c for cyc in ch.cycles for c in cyc.row()]
    tangent = ch.arrangement == "tangent"
    for i in range(1, len(ch.horocycles)):
        prev, here = ch.horocycles[i - 1], ch.horocycles[i]
        res = tangency_residual(prev, here) if tangent \
            else orthogonality_residual(prev, here)
        if not near_zero(res, eps, rows, rows):
            raise InvalidCF(f"step {i}: arrangement residual {res!r} is not zero")
        join = ch.connecting[i - 1]
        for pair in (ch.pairs[i - 1], ch.pairs[i]):
            pt = quotient(pair)
            if pt is None:
                continue
            if not near_zero(join.value_at((pt, 0)), eps, rows, rows):
                raise InvalidCF(f"step {i}: connecting cycle misses quotient {pt}")
        if ch.arrangement == "ortho45":
            n = join.l[-1]
            if not near_zero(2 * n * n - join.det(), eps, rows, rows):
                raise InvalidCF(f"step {i}: connecting cycle is not at 45 degrees")
        else:
            if not near_zero(join.l[-1], eps, rows):
                raise InvalidCF(f"step {i}: connecting cycle tilts off vertical")
            for h in (prev, here):
                if not near_zero(orthogonality_residual(join, h), eps, rows, rows):
                    raise InvalidCF(f"step {i}: connecting cycle not orthogonal")


CHAIN_TERMS = {
    "int": st.integers(-9, 9),
    "fraction": st.one_of(st.integers(-9, 9),
                          st.fractions(-9, 9, max_denominator=6)),
    # three decimals keep a float term 0 or at least 1e-3 in size
    "float": st.one_of(st.integers(-9, 9),
                       st.floats(-9, 9).map(lambda x: round(x, 3))),
}
# a + b sqrt(d), b nonzero, with Fraction parts now and then, so rows and
# quotients carry radical parts and denominators
for _d in (2, 3):
    CHAIN_TERMS[f"sqrt{_d}"] = st.one_of(
        st.integers(-9, 9),
        st.builds(QuadExt, st.fractions(-9, 9, max_denominator=3),
                  st.fractions(-3, 3, max_denominator=2).filter(bool),
                  st.just(_d)))


@st.composite
def chain_cases(draw):
    """A fraction of 1-12 steps whose terms are ints, ints and Fractions,
    ints and floats, or ints and values of Q(sqrt 2) or Q(sqrt 3); a_1 is
    any nonzero term and a_j = +-1 after it, which the three arrangements
    need.  With it an arrangement, tangent for Q(sqrt 3) terms (the other
    two bring in sqrt 2), and one entry of one cycle to perturb, ``(cycle,
    entry, by_root)``, counting the horocycles and then the connecting
    cycles."""
    kind = draw(st.sampled_from(sorted(CHAIN_TERMS)))
    term = CHAIN_TERMS[kind]
    n = draw(st.integers(1, 12))
    a1 = draw(term.filter(bool))
    terms = [(a1, draw(term))]
    terms += [(draw(st.sampled_from([1, -1])), draw(term)) for _ in range(n - 1)]
    b0 = draw(st.one_of(st.none(), term))
    arrangement = "tangent" if kind == "sqrt3" else \
        draw(st.sampled_from(contfrac.ARRANGEMENTS))
    mutation = draw(st.tuples(st.integers(0, 2 * n), st.integers(0, 3),
                              st.booleans()))
    return ContinuedFraction(b0, terms), n, arrangement, mutation


def _perturbed(ch, mutation):
    """The chain with one entry moved: by 1 or sqrt(d) in an exact chain
    (sqrt(d) only in Q(sqrt d) chains), relatively by 1e-3 in a float
    one."""
    index, entry, by_root = mutation
    cycles = ch.cycles
    values = [v for cyc in cycles for v in cyc.row()]
    roots = {v.d for v in values if isinstance(v, QuadExt)}
    row = list(cycles[index].row())
    if not all(map(numerics.is_exact, values)):
        row[entry] = to_float(row[entry]) * (1 + 1e-3)
    elif by_root and roots:
        row[entry] = row[entry] + QuadExt(0, 1, roots.pop())
    else:
        row[entry] = row[entry] + 1
    cycles[index] = Cycle.from_row(E2, row)
    n = len(ch.horocycles)
    return HorocycleChain(ch.arrangement, cycles[:n], cycles[n:], ch.pairs,
                          ch.flat_steps)


def _verdict(validate, ch):
    try:
        validate(ch)
    except ValueError as err:
        return type(err), str(err)
    return None


@settings(max_examples=500)
@given(chain_cases())
# a quotient 0 next to the moved horocycle keeps the arrangement residual
# when l_1 moves, so only the connecting cycle's right angle fails: with
# the horocycle after it (quotients 0, 1/2, 3/7), and before it (1, 0, 1/3)
@example((ContinuedFraction(None, [(1, 2), (1, 3)]), 2, "orthogonal",
          (1, 1, False)))
@example((ContinuedFraction(1, [(-1, 1), (1, 2)]), 2, "orthogonal",
          (0, 1, False)))
def test_chain_validation_equals_the_scalar_reference(case):
    cf, n, arrangement, mutation = case
    try:
        ch = contfrac.chain(cf, n, arrangement)
    except InvalidCF as err:
        # float rounding can cancel the determinant of a long product
        if not str(err).endswith(": partial matrix is singular"):
            raise
        reject()
    assert _verdict(_ref_validate_chain, ch) is None
    moved = _perturbed(ch, mutation)
    assert _verdict(contfrac._validate_chain, moved) == \
        _verdict(_ref_validate_chain, moved)


def _ref_chain(cf, n, arrangement):
    """The scalar build every chain had before a chain of int terms was
    built in ints, kept as the reference: the closed forms of
    ``horocycle_images`` on the partial matrices, each horocycle mirrored
    when its l_2 is negative, then ``_validate_chain``."""
    rt2 = numerics.Arithmetic("exact").sqrt(2)
    value, inclination = {"tangent": (2, 0), "orthogonal": (rt2, 0),
                          "ortho45": (rt2, 1)}[arrangement]
    states = list(contfrac.convergent_states(cf, n))
    mats = [s.matrix() for s in states[1:]]
    horos = [contfrac.horocycle_images(mats[0], "first_col", value)]
    horos += [contfrac.horocycle_images(m, "second_col", value) for m in mats]
    horos = [h.mirror() if numerics.scalar_sign(h.l[-1]) < 0 else h
             for h in horos]
    joins = [contfrac.horocycle_images(m, "connecting", inclination)
             for m in mats]
    ch = HorocycleChain(arrangement, horos, joins,
                        [s.pair() for s in states],
                        [i for i, h in enumerate(horos) if h.k == 0])
    contfrac._validate_chain(ch)
    return ch


def _typed_chain(build, *args):
    """A chain's rows, pairs and flat steps with every entry's type, or
    the InvalidCF it raised."""
    try:
        ch = build(*args)
    except InvalidCF as err:
        return "InvalidCF", str(err)
    typed = lambda values: [(type(v), v) for v in values]
    return ([typed(c.row()) for c in ch.horocycles],
            [typed(c.row()) for c in ch.connecting],
            [typed(p) for p in ch.pairs], ch.flat_steps)


@st.composite
def int_chain_cases(draw):
    """Int terms: a_1 any nonzero int, and a_j after it +-1 or, in about
    half the fractions, any nonzero int (so validation fails); b_j zero
    and negative too (flat steps, mirrored horocycles); b0 None or an
    int; and an arrangement."""
    n = draw(st.integers(1, 12))
    nonzero = st.integers(-9, 9).filter(bool)
    later = nonzero if draw(st.booleans()) else st.sampled_from([1, -1])
    a = [draw(nonzero)] + [draw(later) for _ in range(n - 1)]
    terms = [(aj, draw(st.integers(-9, 9))) for aj in a]
    b0 = draw(st.one_of(st.none(), st.integers(-9, 9)))
    return (ContinuedFraction(b0, terms), n,
            draw(st.sampled_from(contfrac.ARRANGEMENTS)))


@settings(max_examples=400)
@given(int_chain_cases())
@example((ContinuedFraction(None, [(1, 1), (-1, 1), (1, 1)]), 3, "tangent"))
@example((ContinuedFraction(2, [(1, -3), (1, 0), (-1, 2)]), 3, "ortho45"))
@example((ContinuedFraction(None, [(2, 1), (3, 1), (1, 2)]), 3, "orthogonal"))
def test_int_chain_equals_the_scalar_build(case):
    # a chain of int terms is built from four ints per row and checked on
    # them alone, never on its scalars: every entry equals the scalar
    # build's in value and type, and a refused chain raises the same
    # message; the rows the build checked are the ints its cycles are made
    # of, the sqrt 2 horocycles' entries but l_2 times sqrt 2
    cf, n, arrangement = case
    with mock.patch.object(contfrac, "_scalar_failure",
                           side_effect=AssertionError("scalar check")):
        got = _typed_chain(contfrac.chain, cf, n, arrangement)
    assert got == _typed_chain(_ref_chain, cf, n, arrangement)
    ch, rows, points = contfrac._int_chain(cf.b0, cf.terms[:n], arrangement)
    root = 1 if arrangement == "tangent" else numerics.Arithmetic("exact").sqrt(2)
    horos, joins = rows[:len(ch.horocycles)], rows[len(ch.horocycles):]
    assert [c.row() for c in ch.horocycles] == \
        [(k * root, x * root, y, m * root) for k, x, y, m in horos]
    assert [c.row() for c in ch.connecting] == joins
    assert points == [(y * y, x * y, 0, x * x) if y else None
                      for x, y in ch.pairs]
    assert (got[0] == "InvalidCF") == \
        (contfrac._exact_failure(ch, rows, points) is not None)
