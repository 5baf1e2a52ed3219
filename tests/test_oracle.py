"""sympy as an independent oracle for the exact kernels: ``linear_solve``
against ``sympy.Matrix`` ranks, the circle that ``solve`` puts through
three rational points against ``sympy.Circle``, and the radicands of exact
3-D tangency answers against ``sympy.factorint``."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sympy = pytest.importorskip("sympy")

from cyclekit.cycle import Cycle, Metric  # noqa: E402
from cyclekit.numerics import QuadExt  # noqa: E402
from cyclekit.relations import (IsTangent, PassesThrough, check,  # noqa: E402
                                linear_solve, solve)

E2 = Metric.named("e")

entries = st.one_of(st.integers(-3, 3),
                    st.fractions(min_value=-3, max_value=3,
                                 max_denominator=4))


@st.composite
def systems(draw):
    """One to four rows over two to four unknowns; a repeated or summed row
    now and then makes the system rank-deficient or inconsistent."""
    nunk = draw(st.integers(2, 4))
    row = st.tuples(st.tuples(*[entries] * nunk), entries)
    rows = draw(st.lists(row, min_size=1, max_size=4))
    if len(rows) >= 2 and draw(st.booleans()):
        (c1, r1), (c2, r2) = rows[:2]
        rows.append((tuple(a + b for a, b in zip(c1, c2)),
                     r1 + r2 + draw(st.sampled_from([0, 0, 1]))))
    return rows, nunk


def sym(v):
    return sympy.Rational(v.numerator, v.denominator) if isinstance(
        v, Fraction) else sympy.Integer(v)


@given(systems())
def test_linear_solve_agrees_with_sympy(system):
    rows, nunk = system
    A = sympy.Matrix([[sym(c) for c in coeffs] for coeffs, _ in rows])
    Ab = A.row_join(sympy.Matrix([sym(rhs) for _, rhs in rows]))
    particular, basis = linear_solve(rows, nunk).solution()
    assert (particular is not None) == (A.rank() == Ab.rank())
    if particular is None:
        return
    assert len(basis) == nunk - A.rank()
    for coeffs, rhs in rows:
        assert sum(c * x for c, x in zip(coeffs, particular)) == rhs
        for v in basis:
            assert sum(c * x for c, x in zip(coeffs, v)) == 0
    if basis:
        assert sympy.Matrix([[sym(x) for x in v] for v in basis]).rank() \
            == len(basis)


coords = st.fractions(min_value=-5, max_value=5, max_denominator=3)
points = st.tuples(coords, coords)


@st.composite
def triples(draw):
    """Three distinct points; half the time the third lies on the line
    through the first two."""
    p, q = draw(st.lists(points, min_size=2, max_size=2, unique=True))
    if draw(st.booleans()):
        t = draw(coords.filter(lambda t: t not in (0, 1)))
        return [p, q, tuple(a + t * (b - a) for a, b in zip(p, q))]
    return [p, q, draw(points.filter(lambda r: r not in (p, q)))]


@settings(max_examples=30)
@given(triples())
def test_cycle_through_three_points_agrees_with_sympy(pts):
    sol = solve([PassesThrough(E2, p) for p in pts], E2)
    assert sol.status == "finite" and len(sol) == 1
    c = sol.cycles[0]
    sym_pts = [sympy.Point(sym(x), sym(y)) for x, y in pts]
    if sympy.Point.is_collinear(*sym_pts):
        assert c.k == 0
        line = sympy.Line(sym_pts[0], sym_pts[1])
        # k = 0 leaves -2 l1 x - 2 l2 y + m = 0
        a, b, m = (sym(v) for v in (-2 * c.l[0], -2 * c.l[1], c.m))
        la, lb, lc = line.coefficients
        assert a * lb == b * la and a * lc == m * la and b * lc == m * lb
        return
    circle = sympy.Circle(*sym_pts)
    assert tuple(sym(v) for v in c.center()) == tuple(circle.center)
    assert sym(c.radius_sq()) == circle.radius ** 2


def test_tangent_spheres_stay_exact_over_trial_reduced_radicands():
    # spheres tangent to four rational spheres in R^3, whose discriminants
    # mostly exceed 10**15: past that, radical_parts leaves a square of a
    # prime above its trial bound in the core (265483**2 divides the
    # radicand 43319141199622857307928489 here), and no smaller square
    R3 = Metric.from_signature(3)
    answers, radicands = 0, set()
    for i in range(20):
        rng = random.Random(f"spheres:{i}")
        rels = []
        for _ in range(4):
            centre = [Fraction(rng.randint(-24, 24), rng.randint(1, 4))
                      for _ in range(3)]
            s = Fraction(rng.randint(1, 6), rng.randint(1, 3))
            rels.append(IsTangent(Cycle.circle(R3, centre, s * s)))
        sol = solve(rels, R3)
        assert sol.status == "finite" and not sol.demoted
        answers += len(sol)
        for c in sol:
            assert check(rels, c)
            radicands.update(v.d for v in c.row() if isinstance(v, QuadExt))
    assert answers == 272
    for d in radicands:
        squares = [p for p, e in sympy.factorint(d).items() if e > 1]
        assert all(p > 100_000 for p in squares)
        assert not squares or d > 10**15
