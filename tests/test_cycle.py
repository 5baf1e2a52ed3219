import random
from fractions import Fraction as F

import pytest

from cyclekit.clifford import (Mat2, Mv, dilation, euclidean, identity_map,
                               inversion, reflection, translation)
from cyclekit.cycle import Cycle, Metric, parse_metric

E = Metric.named("e")
P = Metric.named("p")
H = Metric.named("h")


def circ(cx, cy, r2, metric=E):
    return Cycle.circle(metric, (F(cx), F(cy)), F(r2))


def test_metric_parsing():
    assert parse_metric("e") == E
    assert parse_metric("h").sigma == 1
    assert parse_metric("2,0,0") == Metric(( -1, -1), (-1, -1))
    m = parse_metric("1,1,0")
    assert m.product_eta == (-1, 1)
    with pytest.raises(ValueError):
        parse_metric("x")


def test_unit_circle_products():
    unit = Cycle(E, 1, (0, 0), -1)
    assert unit.self_product() == -2
    other = Cycle(E, 1, (2, 0), 3)
    assert unit.product(other) == 2
    assert unit.trace_product(other) == 2


def test_product_matches_trace_form(seed=11):
    rng = random.Random(seed)
    for metric in (E, P, H):
        for _ in range(30):
            a = Cycle(metric, *[F(rng.randint(-5, 5)) for _ in range(1)],
                      tuple(F(rng.randint(-5, 5)) for _ in range(2)),
                      F(rng.randint(-5, 5)))
            b = Cycle(metric, F(rng.randint(-5, 5)),
                      tuple(F(rng.randint(-5, 5)) for _ in range(2)),
                      F(rng.randint(-5, 5)))
            assert a.product(b) == a.trace_product(b)
            assert a.product(b) == b.product(a)


def test_zero_radius_encoding():
    p = Cycle.zero_radius_at(E, (F(1), F(2)))
    assert p.row() == (1, F(1), F(2), F(5))
    assert p.self_product() == 0
    h = Cycle.zero_radius_at(H, (F(1), F(2)))
    assert h.row() == (1, F(1), F(-2), F(-3))
    assert h.self_product() == 0
    par = Cycle.zero_radius_at(P, (F(1), F(2)))
    assert par.row() == (1, F(1), 0, F(1))
    assert par.self_product() == 0


def test_incidence_via_product():
    c = circ(0, 0, 25)
    for pt in [(F(3), F(4)), (F(5), F(0)), (F(-4), F(3))]:
        assert Cycle.zero_radius_at(E, pt).product(c) == 0
        assert c.passes_through(pt)
    assert Cycle.zero_radius_at(E, (F(1), F(1))).product(c) != 0


def test_center_radius_round_trip():
    c = circ(2, -3, F(7, 4))
    assert c.center() == (F(2), F(-3))
    assert c.radius_sq() == F(7, 4)
    assert c.self_product() == -2 * c.radius_sq()  # k = 1
    # hyperbolic drawn center flips the v-component sign of l/k
    hc = Cycle(H, 1, (F(1), F(2)), 0)
    assert hc.center() == (F(1), F(-2))


def test_value_at_curve_equation():
    # k(u^2 - tau v^2) - 2 l u - 2 n v + m
    c = Cycle(P, 1, (F(0), F(1, 2)), 0)  # u^2 - v = 0
    assert c.value_at((F(2), F(4))) == 0
    assert c.value_at((F(2), F(3))) == 1


def test_real_line_and_infinity():
    rl = Cycle.real_line(E)
    assert rl.row() == (0, 0, 1, 0)
    zi = Cycle.infinity(E)
    assert zi.product(Cycle(E, F(3), (1, 2), 7)) == 3  # reads off k
    assert zi.self_product() == 0
    # boundary-centered circles are orthogonal to the boundary
    assert rl.product(circ(4, 0, 9)) == 0


def test_flt_translation_rule(seed=5):
    rng = random.Random(seed)
    sig = E.product_signature()
    for _ in range(25):
        c = Cycle(E, F(rng.randint(-4, 4)),
                  (F(rng.randint(-4, 4)), F(rng.randint(-4, 4))),
                  F(rng.randint(-4, 4)))
        b = (F(rng.randint(-3, 3)), F(rng.randint(-3, 3)))
        M = translation(Mv.vector(sig, b))
        img = c.flt(M)
        assert img.k == c.k
        assert img.l == (c.l[0] + b[0] * c.k, c.l[1] + b[1] * c.k)
        bb = b[0] * b[0] + b[1] * b[1]
        assert img.m == c.m + bb * c.k + 2 * (c.l[0] * b[0] + c.l[1] * b[1])


def _random_map(rng, sig):
    gens = [translation(Mv.vector(sig, (F(rng.randint(-3, 3)), F(rng.randint(-3, 3))))),
            dilation(sig, F(rng.randint(1, 4))),
            inversion(sig),
            reflection(Mv.e(sig, 1))]
    M = gens[rng.randrange(4)]
    for _ in range(rng.randrange(3)):
        M = M * gens[rng.randrange(4)]
    return M


def test_flt_product_covariance(seed=23):
    rng = random.Random(seed)
    sig = E.product_signature()
    for _ in range(60):
        a = Cycle(E, F(rng.randint(-4, 4)),
                  (F(rng.randint(-4, 4)), F(rng.randint(-4, 4))),
                  F(rng.randint(-4, 4)))
        b = Cycle(E, F(rng.randint(-4, 4)),
                  (F(rng.randint(-4, 4)), F(rng.randint(-4, 4))),
                  F(rng.randint(-4, 4)))
        M = _random_map(rng, sig)
        delta = M.pseudodet()
        assert a.flt(M).product(b.flt(M)) == delta * delta * a.product(b)


def test_flt_moves_points_with_cycles(seed=31):
    from cyclekit.clifford import mobius_apply, Infinity
    rng = random.Random(seed)
    sig = E.product_signature()
    pts = [(F(3), F(4)), (F(5), F(0)), (F(0), F(-5))]
    c = circ(0, 0, 25)
    for _ in range(20):
        M = _random_map(rng, sig)
        img = c.flt(M)
        for pt in pts:
            q = mobius_apply(M, Mv.vector(sig, pt))
            if isinstance(q, Infinity):
                assert img.k == 0  # image passes through infinity: flat
            else:
                assert img.passes_through(q.vector_components())


R3 = Metric.from_signature(3)
E1E2E3 = Mv(euclidean(3), {(1, 2, 3): 1})


@pytest.mark.parametrize("M, c, message", [
    (identity_map(euclidean(3)), circ(0, 0, 1),
     "map acts on a different product signature"),
    # a translation by a scalar moves l off the vectors
    (Mat2(E.product_signature(), 1, 1, 0, 1), circ(0, 0, 1),
     "image direction is not a vector"),
    # in R^3, b = -(a a-bar) = -2 - 2 e1e2e3 keeps a grade-3 part
    (Mat2(euclidean(3), 1 + E1E2E3, 0, 0, 0), Cycle(R3, 1, (0, 0, 0), -1),
     "image is not a cycle matrix"),
])
def test_flt_refuses_what_is_not_a_moebius_image(M, c, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        c.flt(M)


def test_inversive_distance_oracle():
    # concentric r=1 and r=2
    a, b = circ(0, 0, 1), circ(0, 0, 4)
    assert a.normalized_product(b) == -1.25
    # external tangency is +1
    c = circ(3, 0, 4)
    assert a.normalized_product(c) == 1.0
    # internal tangency is -1
    d = circ(1, 0, 4)
    assert a.normalized_product(d) == -1.0


def test_normalized_product_matches_classic(seed=17):
    import math
    rng = random.Random(seed)
    for _ in range(50):
        x1, y1, x2, y2 = (rng.uniform(-5, 5) for _ in range(4))
        r1, r2 = rng.uniform(0.2, 3), rng.uniform(0.2, 3)
        a = Cycle.circle(E, (x1, y1), r1 * r1)
        b = Cycle.circle(E, (x2, y2), r2 * r2)
        d2 = (x1 - x2) ** 2 + (y1 - y2) ** 2
        classic = (d2 - r1 * r1 - r2 * r2) / (2 * r1 * r2)
        assert math.isclose(a.normalized_product(b), classic, rel_tol=1e-12, abs_tol=1e-12)


def test_mirror():
    c = Cycle(E, 1, (F(1), F(2)), 3)
    assert c.mirror().row() == (1, F(1), F(-2), 3)
    d = Cycle(E, 2, (F(0), F(-1)), 1)
    assert c.mirror().product(d.mirror()) == c.product(d)


def test_canonical_and_key():
    c = Cycle(E, F(2), (F(4), F(-2)), F(6))
    assert c.canonical().row() == (1, 2, -1, 3)
    assert c.same_cycle(c.scaled(F(-7, 3)))
    line = Cycle(E, 0, (F(0), F(-3)), F(6))
    assert line.canonical().row() == (0, 0, 1, -2)
    f = Cycle(E, 2.0, (4.0, -2.0), 6.0)
    assert f.key() == (round(1 / 3, 9) + 0, round(2 / 3, 9), round(-1 / 3, 9), 1.0)
    assert f.same_cycle(Cycle(E, 2.0 + 1e-13, (4.0, -2.0), 6.0))


def test_key_is_the_primitive_int_row_of_a_rational_cycle():
    from cyclekit.numerics import QuadExt
    c = Cycle(E, F(1, 2), (F(-1, 3), 0), 1)
    for scaled in (c, c.scaled(F(-7, 3)), c.scaled(-6)):
        key = scaled.key()
        assert key == (3, -2, 0, 6)
        assert all(type(v) is int for v in key)
    # a QuadExt row's key is its canonical row, entries as they are
    q = Cycle(E, 2, (QuadExt(0, 2, 2), F(0)), 4)
    assert q.key() == q.canonical().row() == (1, QuadExt(0, 1, 2), 0, 2)
    assert q.scaled(QuadExt(1, 1, 2)).key() == q.key()
    # a float row's key rounds its canonical row, as before
    f = Cycle(E, 0.5, (-1 / 3, 0.0), 1.0)
    assert f.key() == (0.5, round(-1 / 3, 9), 0.0, 1.0)


def test_radical_free_quadext_row_keys_like_its_rational_twin():
    from cyclekit.numerics import QuadExt
    twin = Cycle(E, 2, (F(1), F(0)), 3)
    q = Cycle(E, QuadExt(2, 0, 2), (F(1), F(0)), 3)
    assert q.key() == twin.key() == (2, 1, 0, 3)
    assert q.same_cycle(twin)
    # radicals that cancel on canonicalisation key as the rational row too
    r2 = QuadExt(0, 1, 2)
    assert Cycle(E, r2, (2 * r2, F(0)), r2).key() == (1, 2, 0, 1)


def test_serialization_round_trip():
    from cyclekit.numerics import QuadExt
    c = Cycle(E, F(1, 3), (QuadExt(F(0), F(1), 2), F(-2)), F(5))
    back = Cycle.from_obj(E, c.to_obj())
    assert back == c
    fl = Cycle(E, 0.5, (1.25, -2.0), 0.0)
    assert Cycle.from_obj(E, fl.to_obj()) == fl


def test_is_zero_radius():
    assert Cycle.zero_radius_at(E, (F(1), F(7))).is_zero_radius()
    assert not circ(0, 0, 1).is_zero_radius()
    p = Cycle.zero_radius_at(E, (1.0, 7.0))
    assert p.is_zero_radius(eps=1e-12)
