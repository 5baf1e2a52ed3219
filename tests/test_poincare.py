import math
import random
from fractions import Fraction as F

import pytest

from cyclekit.cycle import Cycle
from cyclekit.numerics import Arithmetic, QuadExt, to_float
from cyclekit.poincare import (InvalidOrdering, NoRealPoint, NotAligned, act,
                               angle_to_real_line, classify_intervals,
                               common_point, curve_membership,
                               cycle_from_interval, dilation_map,
                               extend_apply, extension_from_triple,
                               extension_point, extension_point_ell,
                               extension_point_hyp, extension_point_par,
                               fixed_points, h_tau, h_tau_parameter, half_turn,
                               imap, inclined_interval_form,
                               interval_endpoints, interval_flt,
                               interval_matrix, is_tau_isotropic,
                               isotropic_form_at, iwasawa, jay, mat_adj,
                               mat_apply, mat_det, mat_mul,
                               moebius_from_three_pairs, orientation,
                               proportional, real_line_form, rep4, rotation,
                               tau_plane, to_zero_one_inf, translation_map)
from cyclekit.relations import row_product

E2 = tau_plane(-1)
TAUS = (-1, 0, 1)


def is_scalar_matrix(g):
    return g[0][1] == 0 and g[1][0] == 0 and g[0][0] == g[1][1]


def rand_frac(rng, span=6):
    return F(rng.randint(-span, span), rng.randint(1, 4))


def rand_mat(rng, span=5):
    while True:
        g = ((rand_frac(rng, span), rand_frac(rng, span)),
             (rand_frac(rng, span), rand_frac(rng, span)))
        if mat_det(g) != 0:
            return g


def rand_nlkm(rng):
    return tuple(rand_frac(rng) for _ in range(4))


def cycle_nlkm(tau, n, l, k, m):
    """The cycle with coefficients (n, l, k, m): k, l = (l, n), m."""
    return Cycle(tau_plane(tau), k, (l, n), m)


def real_matrix(c):
    """The cycle as the real matrix [[l_1 + l_2, -m], [k, l_2 - l_1]]."""
    l1, l2 = c.l
    return ((l1 + l2, -c.m), (c.k, l2 - l1))


def from_real_matrix(M, tau=-1):
    """Inverse of real_matrix."""
    (a, b), (c, d) = M
    return cycle_nlkm(tau, F(a + d) / 2, F(a - d) / 2, c, -b)


class TestIntervalMatrices:
    def test_finite_interval(self):
        C = interval_matrix(0, 2)
        assert C == ((1, 0), (1, -1))
        assert mat_det(C) == -1  # -(x-y)^2/4
        assert interval_endpoints(C) == (0, 2)

    def test_interval_with_infinity(self):
        C = interval_matrix(0, None)
        assert proportional(C, ((1, 0), (0, -1)))
        assert interval_endpoints(C) == (0, None)
        D = interval_matrix(None, 3)
        x, y = interval_endpoints(D)
        assert (x, y) == (3, None)

    def test_eigenvalue_and_action(self):
        x, y = F(-1), F(3)
        C = interval_matrix(x, y)
        # both endpoints are fixed directions
        assert mat_apply(C, x) == x
        assert mat_apply(C, y) == y
        assert C[0][0] + C[1][1] == 0

    def test_flt_moves_endpoints(self):
        rng = random.Random(7)
        for _ in range(25):
            g = rand_mat(rng)
            x, y = F(0), F(1)
            while mat_apply(g, x) is None or mat_apply(g, y) is None:
                x, y = x + 1, y + 2
            img = interval_flt(g, interval_matrix(x, y))
            got = set(interval_endpoints(img, Arithmetic("exact")))
            assert got == {mat_apply(g, x), mat_apply(g, y)}

    def test_flt_with_negative_determinant(self):
        g = ((1, 0), (0, -1))  # x -> -x
        img = interval_flt(g, interval_matrix(F(1), F(2)))
        assert set(interval_endpoints(img)) == {F(-2), F(-1)}

    def test_pairing_values(self):
        # minus the product of interval cycles is tr(C1 C2) of the matrices
        C02 = cycle_from_interval(0, 2, -1)
        assert -C02.product(C02) == 2  # (x-y)^2/2
        rng = random.Random(3)
        for _ in range(20):
            x, y, xp, yp = (rand_frac(rng) for _ in range(4))
            M = mat_mul(interval_matrix(x, y), interval_matrix(xp, yp))
            assert M[0][0] + M[1][1] == \
                (x + y) * (xp + yp) / 2 - x * y - xp * yp
            for tau in TAUS:
                val = -cycle_from_interval(x, y, tau).product(
                    cycle_from_interval(xp, yp, tau))
                assert val == M[0][0] + M[1][1]

    def test_imap_is_negated_inverse(self):
        rng = random.Random(11)
        for _ in range(20):
            g = rand_mat(rng)
            x = rand_frac(rng)
            lhs = mat_apply(imap(g), x)
            rhs = mat_apply(mat_adj(g), x)
            if lhs is None or rhs is None:
                assert lhs is None and rhs is None
            else:
                assert lhs == -rhs
            assert mat_det(imap(g)) == -mat_det(g)


class TestForms:
    def test_matrix_roundtrip(self):
        q = cycle_nlkm(-1, F(2), F(-1), F(3), F(5))
        assert from_real_matrix(real_matrix(q)) == q
        assert real_matrix(q) == ((F(1), F(-5)), (F(3), F(3)))
        for tau in TAUS:
            c = cycle_from_interval(F(-1), F(3), tau)
            assert real_matrix(c) == interval_matrix(F(-1), F(3))

    def test_isotropic_form(self):
        for tau in TAUS:
            iso = isotropic_form_at(F(1, 2), F(3), tau)
            assert is_tau_isotropic(iso)
            assert extension_point(iso) == (F(1, 2), F(3))
            # the point-metric center is (u, -tau v): not the label
            assert iso.center() == (F(1, 2), -tau * F(3))

    def test_membership_is_pairing_with_point_form(self):
        rng = random.Random(13)
        for _ in range(15):
            nlkm = rand_nlkm(rng)
            u, v = rand_frac(rng), rand_frac(rng)
            for tau in TAUS:
                q = cycle_nlkm(tau, *nlkm)
                iso = isotropic_form_at(u, v, tau)
                assert q.value_at((u, v)) == row_product(E2, q.row(),
                                                         iso.row())

    def test_real_line_self_pairing(self):
        for tau in TAUS:
            R = real_line_form(tau)
            assert R.self_product() == tau

    def test_boundary_form_has_no_point(self):
        assert extension_point(cycle_nlkm(-1, 1, 0, 0, 1)) is None

    def test_interval_cycle_matches_e_product(self):
        # zero-angle interval cycles pair like the intervals themselves
        x, y = F(1), F(4)
        q = cycle_nlkm(-1, 0, (x + y) / 2, 1, x * y)
        assert q == cycle_from_interval(x, y, -1)
        assert q.self_product() == -(x - y) ** 2 / 2


class TestInclinedForms:
    def test_passes_through_endpoints(self):
        rng = random.Random(17)
        for tau in TAUS:
            for _ in range(10):
                x, y = rand_frac(rng), rand_frac(rng)
                if x == y:
                    continue
                q = inclined_interval_form(x, y, tau)
                assert q.value_at((x, 0)) == 0
                assert q.value_at((y, 0)) == 0
                iso = isotropic_form_at(0, 1, tau)
                assert row_product(E2, q.row(), iso.row()) == 0

    def test_inclination_depends_only_on_parameter(self):
        # cos^2 * |t^2 - tau| == tau^2 / |<Q,Q>| normalised: compare squares
        rng = random.Random(19)
        for tau in (-1, 1):
            R = real_line_form(tau)
            for _ in range(12):
                x, y = rand_frac(rng), rand_frac(rng)
                if x == y or x * y == tau:
                    continue
                q = inclined_interval_form(x, y, tau)
                t = h_tau_parameter(x, y, tau)
                lhs = q.product(R) ** 2 * abs(t * t - tau)
                rhs = tau * tau * abs(q.self_product())
                assert lhs == rhs
                assert q.self_product() == \
                    (tau * (x * y - tau) ** 2 - (x - y) ** 2) / 2

    def test_angle_to_real_line_on_circles(self):
        # diameter-standing circle: cosine 0; center dropped to (0, -1): 45
        # degrees, cosine^2 = 1/2
        flat = cycle_nlkm(-1, 0, 0, 1, -1)
        assert angle_to_real_line(flat) == 0
        tilted = cycle_nlkm(-1, F(-1), 0, 1, -1)  # through (+-1, 0), r^2 = 2
        c = angle_to_real_line(tilted, Arithmetic("exact"))
        assert c * c == F(1, 2)

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_angle_to_real_line_refuses_zero_radius(self, mode):
        # a point cycle at (1/2, 3) and the all-zero row have no angle; the
        # division by their zero root used to raise a bare ZeroDivisionError
        point = Cycle(E2, 2, (1, 6), F(37, 2))
        for c in (point, Cycle(E2, 0, (0, 0), 0)):
            if mode == "float":
                c = c.as_float()
            with pytest.raises(ValueError, match="zero-radius cycle"):
                angle_to_real_line(c, Arithmetic(mode))

    def test_subgroup_parameter_moves_x_to_y(self):
        rng = random.Random(23)
        for tau in (-1, 0, 1):
            for _ in range(12):
                x, y = rand_frac(rng), rand_frac(rng)
                if x * y == tau:
                    continue
                t = h_tau_parameter(x, y, tau)
                if t * x == -1:
                    continue
                g = h_tau(tau, 1, t)
                assert mat_apply(g, x) == y

    def test_h_tau_closure(self):
        rng = random.Random(29)
        for tau in (-1, 0, 1):
            a, b, c, d = (rand_frac(rng) for _ in range(4))
            prod = mat_mul(h_tau(tau, a, b), h_tau(tau, c, d))
            assert prod == h_tau(tau, a * c + tau * b * d, a * d + b * c)


class TestLinearAction:
    def test_rep4_preserves_gram_matrix(self):
        rng = random.Random(31)
        mats = [rand_mat(rng) for _ in range(12)]
        mats.append(((1, 0), (0, -1)))  # negative determinant
        mats.append(((2, 0), (0, 3)))   # determinant far from 1
        for g in mats:
            T = rep4(g)
            for sigma in (-1, 0, 1):
                J = jay(sigma)
                lhs = [[sum(T[k][i] * J[k][q] for k in range(4))
                        for q in range(4)] for i in range(4)]
                full = [[sum(lhs[i][k] * T[k][j] for k in range(4))
                         for j in range(4)] for i in range(4)]
                assert all(full[i][j] == J[i][j]
                           for i in range(4) for j in range(4))

    def test_action_matches_conjugation(self):
        rng = random.Random(37)
        for _ in range(15):
            g = rand_mat(rng)
            nlkm = rand_nlkm(rng)
            det = mat_det(g)
            T = rep4(g)
            acted = tuple(det * sum(T[i][j] * nlkm[j] for j in range(4))
                          for i in range(4))
            for tau in TAUS:
                q = cycle_nlkm(tau, *nlkm)
                conj = mat_mul(mat_mul(g, real_matrix(q)), mat_adj(g))
                assert act(g, q) == from_real_matrix(conj, tau) \
                    == cycle_nlkm(tau, *acted)

    def test_pairing_invariance(self):
        rng = random.Random(41)
        for _ in range(15):
            g = rand_mat(rng)
            q1, q2 = rand_nlkm(rng), rand_nlkm(rng)
            for tau in TAUS:
                c1, c2 = cycle_nlkm(tau, *q1), cycle_nlkm(tau, *q2)
                assert act(g, c1).product(act(g, c2)) \
                    == mat_det(g) ** 2 * c1.product(c2)

    def test_translation_action_on_coefficients(self):
        for tau in TAUS:
            q = cycle_nlkm(tau, F(1), F(2), F(3), F(4))
            moved = act(translation_map(F(5)), q)
            assert moved == cycle_nlkm(tau, F(1), F(2) + 5 * 3, F(3),
                                       F(4) + 25 * 3 + 2 * 2 * 5)

    def test_point_transport(self):
        # conjugation carries the point form along; a negative determinant
        # lands in the mirror half-plane, which extend_apply folds back
        rng = random.Random(43)
        for _ in range(15):
            g = rand_mat(rng)
            u, v = rand_frac(rng), abs(rand_frac(rng)) + 1
            iso = isotropic_form_at(u, v, -1)
            moved = act(g, iso)
            try:
                up, vp = extend_apply(g, u, v)
            except ZeroDivisionError:
                assert not bool(moved.k)
                continue
            flip = 1 if mat_det(g) > 0 else -1
            assert extension_point(moved) == (up, flip * vp)


class TestOrientationAndTransitivity:
    def test_orientation_signs(self):
        assert orientation(0, 1, None) == 1
        assert orientation(1, 0, None) == -1
        assert orientation(0, 1, 2) == 1
        assert orientation(0, 2, 1) == -1
        assert orientation(0, 0, 1) == 0

    def test_reflection_flips_orientation(self):
        rng = random.Random(47)
        for _ in range(20):
            pts = [rand_frac(rng) for _ in range(3)]
            if len({*pts}) < 3:
                continue
            refl = [-p for p in pts]
            assert orientation(*refl) == -orientation(*pts)

    def test_to_zero_one_inf(self):
        triples = [(F(2), F(5), F(3)), (None, F(0), F(1)), (F(1), None, F(0)),
                   (F(0), F(1), None), (F(-4), F(-2), F(7))]
        for t in triples:
            if orientation(*t) <= 0:
                t = (t[1], t[0], t[2])
            g = to_zero_one_inf(*t)
            assert mat_apply(g, t[0]) == 0
            assert mat_apply(g, t[1]) == 1
            assert mat_apply(g, t[2]) is None
        with pytest.raises(ValueError):
            to_zero_one_inf(F(1), F(0), None)

    def test_three_pairs_translation(self):
        tm = moebius_from_three_pairs((F(0), F(1), None), (F(1), F(2), None))
        assert not tm.reflected
        assert proportional(tm.matrix, ((1, 1), (0, 1)))

    def test_three_pairs_random(self):
        rng = random.Random(53)
        done = 0
        while done < 20:
            pts = [rand_frac(rng, 8) for _ in range(6)]
            X, Y = pts[:3], pts[3:]
            if len({*X}) < 3 or len({*Y}) < 3:
                continue
            tm = moebius_from_three_pairs(X, Y)
            assert all(tm.apply(x) == y for x, y in zip(X, Y))
            assert tm.reflected == (orientation(*X) != orientation(*Y))
            done += 1

    def test_three_pairs_with_reflection(self):
        X, Y = (F(0), F(1), None), (F(2), F(1), None)
        tm = moebius_from_three_pairs(X, Y)
        assert tm.reflected
        assert all(tm.apply(x) == y for x, y in zip(X, Y))


class TestClassification:
    def test_fixed_point_counts(self):
        assert fixed_points(translation_map(1)) == [None]
        assert fixed_points(dilation_map(F(2))) == [0, None]
        assert fixed_points(rotation(0, 1)) == []
        assert fixed_points(half_turn(F(1), F(2))) == []
        two = fixed_points(((3, 1), (1, 3)))
        assert two == [-1, 1]

    def _pairs_from(self, g, xs):
        return [(x, mat_apply(g, x)) for x in xs]

    def test_classify_matches_fixed_points(self):
        rng = random.Random(59)
        done = 0
        while done < 40:
            g = rand_mat(rng)
            if is_scalar_matrix(g):
                continue
            xs, seen = [], set()
            while len(xs) < 3:
                x = rand_frac(rng, 8)
                y = mat_apply(g, x)
                if x in seen or y is None or x == y:
                    continue
                seen.add(x)
                xs.append(x)
            pairs = self._pairs_from(g, xs)
            try:
                kind, disc = classify_intervals(pairs)
            except NotAligned:
                continue
            count = len(fixed_points(g, Arithmetic("exact")))
            assert kind == {0: "elliptic", 1: "parabolic", 2: "hyperbolic"}[count]
            done += 1

    def test_classify_known_kinds(self):
        shift = translation_map(F(1))
        kind, disc = classify_intervals(self._pairs_from(shift, [F(0), F(1), F(2)]))
        assert kind == "parabolic" and disc == 0
        dil = dilation_map(F(3))
        kind, disc = classify_intervals(self._pairs_from(dil, [F(1), F(2), F(4)]))
        assert kind == "hyperbolic" and disc > 0
        turn = half_turn(F(0), F(1))
        kind, disc = classify_intervals(self._pairs_from(turn, [F(2), F(3), F(5)]))
        assert kind == "elliptic" and disc < 0

    def test_identity_triple_is_refused(self):
        # each x paired with itself: the endpoint map is scalar
        for triple in ([(F(0), F(0)), (F(1), F(1)), (F(2), F(2))],
                       [(F(0), F(0)), (F(1), F(1)), (None, None)]):
            with pytest.raises(ValueError, match="fixes every point"):
                classify_intervals(triple)
            with pytest.raises(ValueError, match="fixes every point"):
                extension_from_triple(triple)

    def test_not_aligned(self):
        with pytest.raises(NotAligned):
            # repeated left endpoint: no orientation to compare
            classify_intervals([(F(0), F(1)), (F(0), F(2)), (F(2), F(3))])
        with pytest.raises(NotAligned):
            # X positively oriented, Y negatively
            classify_intervals([(F(0), F(3)), (F(1), F(2)), (F(2), F(1))])


class TestIwasawa:
    def test_reconstruction(self):
        rng = random.Random(61)
        for _ in range(30):
            g = [[rng.uniform(-3, 3) for _ in range(2)] for _ in range(2)]
            det = g[0][0] * g[1][1] - g[0][1] * g[1][0]
            if abs(det) < 1e-3:
                continue
            if det < 0:
                g[0] = [-v for v in g[0]]
                det = -det
            s = math.sqrt(det)
            g = ((g[0][0] / s, g[0][1] / s), (g[1][0] / s, g[1][1] / s))
            gA, gN, gK = iwasawa(g)
            back = mat_mul(gA, mat_mul(gN, gK))
            assert max(abs(back[i][j] - g[i][j])
                       for i in range(2) for j in range(2)) < 1e-12
            assert gA[0][1] == gA[1][0] == 0 and gA[0][0] > 0
            assert gN[0][0] == gN[1][1] == 1 and gN[1][0] == 0
            assert abs(mat_det(gK) - 1) < 1e-14 and abs(gK[0][0] - gK[1][1]) < 1e-14

    def test_rotation_factors_trivially(self):
        th = 0.7
        gK = ((math.cos(th), -math.sin(th)), (math.sin(th), math.cos(th)))
        gA, gN, gK2 = iwasawa(gK)
        assert abs(gA[0][0] - 1) < 1e-14 and abs(gN[0][1]) < 1e-14
        assert max(abs(gK2[i][j] - gK[i][j])
                   for i in range(2) for j in range(2)) < 1e-14

    def test_diagonal_factors_trivially(self):
        g = ((2.0, 0.0), (0.0, 0.5))
        gA, gN, gK = iwasawa(g)
        assert abs(gA[0][0] - 2.0) < 1e-14
        assert abs(gN[0][1]) < 1e-14
        assert abs(gK[0][0] - 1.0) < 1e-14


class TestExtensionPoints:
    def test_ell_special_reciprocal_case(self):
        u, v = extension_point_ell(F(-2), F(1, 2), F(-1), F(1))
        assert (u, v) == (0, 1)

    def test_ell_lies_on_both_semicircles(self):
        rng = random.Random(67)
        done = 0
        while done < 25:
            vals = sorted({rand_frac(rng, 9) for _ in range(4)})
            if len(vals) < 4:
                continue
            x, xp, y, yp = vals
            u, v = extension_point_ell(x, y, xp, yp, Arithmetic("exact"))
            assert (u - x) * (u - y) + v * v == 0
            assert (u - xp) * (u - yp) + v * v == 0
            assert to_float(v) > 0
            done += 1

    def test_ell_ordering_enforced(self):
        with pytest.raises(InvalidOrdering):
            extension_point_ell(F(0), F(1), F(2), F(3))  # disjoint, not nested

    def test_hyp_lies_on_both_hyperbolas(self):
        rng = random.Random(71)
        done = 0
        while done < 25:
            vals = sorted({rand_frac(rng, 9) for _ in range(4)})
            if len(vals) < 4:
                continue
            x, y, xp, yp = vals
            u, v = extension_point_hyp(x, y, xp, yp, Arithmetic("exact"))
            assert v * v == (u - x) * (u - y)
            assert v * v == (u - xp) * (u - yp)
            assert to_float(v) > 0
            done += 1

    def test_hyp_ordering_enforced(self):
        with pytest.raises(InvalidOrdering):
            extension_point_hyp(F(0), F(2), F(1), F(3))

    def test_par_known_values(self):
        pts = extension_point_par(F(0), F(1), F(1, 2), F(2))
        r3 = QuadExt(0, 1, 3)
        expected = {(-1 + r3, 5 - 3 * r3), (-1 - r3, 5 + 3 * r3)}
        assert set(pts) == expected

    def test_par_points_on_both_parabolas(self):
        rng = random.Random(73)
        done = 0
        while done < 20:
            x, y, xp, yp = (rand_frac(rng, 7) for _ in range(4))
            if x == y or xp == yp or x - y == xp - yp:
                continue
            try:
                pts = extension_point_par(x, y, xp, yp, Arithmetic("exact"))
            except NoRealPoint:
                continue
            for u, v in pts:
                assert v * (y - x) == (u - x) * (u - y)
                assert v * (yp - xp) == (u - xp) * (u - yp)
            done += 1

    def test_par_no_real_point(self):
        # nested intervals: the two parabolas never meet
        with pytest.raises(NoRealPoint):
            extension_point_par(F(0), F(3), F(1), F(2))

    def test_par_degenerate_spread(self):
        with pytest.raises(InvalidOrdering):
            extension_point_par(F(0), F(1), F(2), F(3))


class TestExtensionFromTriple:
    def _pairs(self, g, xs):
        return [(x, mat_apply(g, x)) for x in xs]

    def test_elliptic_recovers_fixed_point(self):
        rng = random.Random(79)
        done = 0
        while done < 20:
            u0 = rand_frac(rng)
            v0 = abs(rand_frac(rng)) + F(1, 3)
            g = half_turn(u0, v0)
            xs = []
            for cand in (F(0), F(1), F(2), F(3), F(5)):
                if mat_apply(g, cand) is not None and len(xs) < 3:
                    xs.append(cand)
            tau, form = extension_from_triple(self._pairs(g, xs))
            assert tau == -1 and form.metric == tau_plane(-1)
            assert is_tau_isotropic(form)
            assert extension_point(form) == (u0, v0)
            assert extend_apply(g, u0, v0) == (u0, v0)
            done += 1

    def test_parabolic_translation_hits_boundary(self):
        tau, form = extension_from_triple(
            self._pairs(translation_map(F(1)), [F(0), F(1), F(2)]))
        assert tau == 0 and form.metric == tau_plane(0)
        assert is_tau_isotropic(form)
        assert extension_point(form) is None  # fixed point is infinity

    def test_parabolic_shear(self):
        g = ((1, 0), (F(1, 2), 1))  # fixes 0 only
        tau, form = extension_from_triple(self._pairs(g, [F(1), F(2), F(3)]))
        assert tau == 0
        assert extension_point(form) == (0, 1)
        assert is_tau_isotropic(form)

    def test_hyperbolic_dilation(self):
        g = dilation_map(F(4))
        tau, form = extension_from_triple(self._pairs(g, [F(1), F(2), F(3)]))
        assert tau == 1 and form.metric == tau_plane(1)
        assert is_tau_isotropic(form)
        # the fixed form commutes with the generator
        assert proportional(mat_mul(g, real_matrix(form)),
                            mat_mul(real_matrix(form), g))

    def test_fixed_form_commutes_all_kinds(self):
        rng = random.Random(83)
        done = 0
        while done < 30:
            g = rand_mat(rng)
            if is_scalar_matrix(g):
                continue
            xs, seen = [], set()
            while len(xs) < 3:
                x = rand_frac(rng, 8)
                y = mat_apply(g, x)
                if x in seen or y is None or x == y:
                    continue
                seen.add(x)
                xs.append(x)
            pairs = self._pairs(g, xs)
            try:
                tau, form = extension_from_triple(pairs)
            except NotAligned:
                continue
            assert form.metric == tau_plane(tau)
            assert is_tau_isotropic(form)
            assert proportional(mat_mul(g, real_matrix(form)),
                                mat_mul(real_matrix(form), g))
            done += 1

    def test_remark_graph_orthogonality(self):
        # the graph form of (x, gx) is e-orthogonal to the form of g itself
        rng = random.Random(89)
        for _ in range(20):
            g = rand_mat(rng)
            x = rand_frac(rng)
            y = mat_apply(g, x)
            if y is None:
                continue
            graph = from_real_matrix(((x, -x * y), (1, -y)))
            assert from_real_matrix(g).product(graph) == 0


class TestCommonPoint:
    def test_two_circles(self):
        C = cycle_nlkm(-1, 0, 0, 1, -1)   # unit circle at the origin
        Ct = cycle_nlkm(-1, 0, 1, 1, 0)   # unit circle at (1, 0): u^2+v^2=2u
        got = common_point(C, Ct)
        assert len(got) == 2
        r3 = QuadExt(0, F(1, 2), 3)
        # ordered as solve orders its answers: (k, l_1, l_2, m) with k = 1
        assert [extension_point(f) for f in got] == [(F(1, 2), -r3),
                                                     (F(1, 2), r3)]

    def test_rational_points_keep_the_canonical_row_order(self):
        # the primitive int keys, (5, -3, 2, 1) and (1, 3, -2, 5), would
        # sort the other way round
        C = cycle_nlkm(1, 2, 2, 1, -1)
        Ct = cycle_nlkm(1, 0, 2, 3, -3)
        assert [c.row() for c in common_point(C, Ct)] == [
            (1, F(-3, 5), F(2, 5), F(1, 5)), (1, 3, -2, 5)]

    def test_two_circles_float(self):
        C = cycle_nlkm(-1, 0.0, 0.0, 1.0, -1.0)
        Ct = cycle_nlkm(-1, 0.0, 1.0, 1.0, 0.0)
        got = common_point(C, Ct, Arithmetic("float"))
        assert len(got) == 2
        pts = sorted(tuple(map(to_float, extension_point(f))) for f in got)
        assert pts[0][0] == pytest.approx(0.5) and pts[0][1] == pytest.approx(-math.sqrt(3) / 2)
        assert pts[1][1] == pytest.approx(math.sqrt(3) / 2)

    def test_tangent_circle_and_line(self):
        C = cycle_nlkm(-1, 0, 0, 1, -1)
        line = cycle_nlkm(-1, 0, 1, 0, 2)     # vertical line u = 1
        got = common_point(C, line)
        assert len(got) == 1
        assert extension_point(got[0]) == (1, 0)

    def test_disjoint_circle_and_line(self):
        C = cycle_nlkm(-1, 0, 0, 1, -1)
        line = cycle_nlkm(-1, 0, 1, 0, 6)     # vertical line u = 3
        assert common_point(C, line) == []

    def test_hyperbolic_carrier(self):
        # tau = +1: equilateral hyperbolas v^2 = (u-x)(u-y) meet where the
        # closed formula says they do
        x, y, xp, yp = F(0), F(1), F(2), F(4)
        u, v = extension_point_hyp(x, y, xp, yp, Arithmetic("exact"))
        C = cycle_from_interval(x, y, 1)
        Ct = cycle_from_interval(xp, yp, 1)
        got = common_point(C, Ct)
        pts = {extension_point(f) for f in got}
        assert (u, v) in pts
        for f in got:
            assert f.metric == tau_plane(1)
            assert curve_membership(C, *extension_point(f))
            assert curve_membership(Ct, *extension_point(f))

    def test_degenerate_pair_raises(self):
        C = cycle_nlkm(-1, 0, 0, 1, -1)
        with pytest.raises(ValueError):
            common_point(C, C)


def floats(g):
    return tuple(tuple(float(v) for v in row) for row in g)


def float_points(points):
    """Endpoints or fixed points as floats, None (infinity) kept."""
    return [None if p is None else to_float(p) for p in points]


class TestFloatTwins:
    """The float branches, each against the float of the exact answer."""

    def test_proportional(self):
        rng = random.Random(97)
        for _ in range(20):
            A = rand_mat(rng)
            t = rand_frac(rng) or F(1, 3)
            for B in (tuple(tuple(t * v for v in row) for row in A),
                      rand_mat(rng)):
                assert proportional(floats(A), floats(B)) == \
                    proportional(A, B)

    def test_zero_matrix_is_proportional_to_none(self):
        # a zero row passes every cross-product test; both branches refuse
        # it as the exact one always did
        zero = ((0, 0), (0, 0))
        for B in (((1, 2), (3, 4)), zero):
            for A, C in ((zero, B), (B, zero)):
                assert proportional(A, C) is False
                assert proportional(floats(A), floats(C)) is False

    def test_interval_endpoints(self):
        rng = random.Random(101)
        ends = [(rand_frac(rng), rand_frac(rng)) for _ in range(20)]
        for x, y in ends + [(F(0), None), (None, F(3)), (None, None)]:
            C = interval_matrix(x, y)
            want = interval_endpoints(C, Arithmetic("exact"))
            got = interval_endpoints(floats(C))
            assert float_points(got) == pytest.approx(float_points(want))
        with pytest.raises(ValueError, match="trace-free"):
            interval_endpoints(((1.0, 0.0), (1.0, 1.0)))

    def test_curve_membership(self):
        rng = random.Random(103)
        for tau in TAUS:
            for _ in range(10):
                x, y = rand_frac(rng), rand_frac(rng)
                c = cycle_from_interval(x, y, tau)
                for u, v in ((x, F(0)), (rand_frac(rng), rand_frac(rng))):
                    assert curve_membership(c.as_float(), float(u), float(v)) \
                        == curve_membership(c, u, v)

    def test_fixed_points(self):
        rng = random.Random(107)
        mats = [rand_mat(rng) for _ in range(30)] + [
            ((1, -1), (1, 3)), translation_map(F(1)), dilation_map(F(2)),
            ((1, 0), (F(1, 2), 1)), rotation(0, 1)]
        for g in mats:
            if is_scalar_matrix(g):
                continue
            want = fixed_points(g, Arithmetic("exact"))
            got = fixed_points(floats(g))
            assert float_points(got) == pytest.approx(float_points(want))
        # a double root
        assert fixed_points(((1., -1.), (1., 3.))) == [-1.0]

    def test_classify_intervals(self):
        def twin(pairs):
            return [tuple(float_points(p)) for p in pairs]

        rng = random.Random(109)
        triples = [[(F(0), F(1)), (F(1), F(2)), (F(2), F(3))],
                   [(F(1, 10), F(2, 10)), (F(2, 10), F(3, 10)),
                    (F(3, 10), F(4, 10))],
                   [(F(1), F(2)), (F(2), F(4)), (F(4), F(8))],
                   [(F(2), F(5)), (F(3), None), (F(5), F(-1))]]
        while len(triples) < 30:
            g = rand_mat(rng)
            xs = {rand_frac(rng, 8) for _ in range(3)}
            pairs = [(x, mat_apply(g, x)) for x in xs]
            if len(xs) == 3 and all(y is not None for _, y in pairs):
                try:
                    classify_intervals(pairs)
                except NotAligned:
                    continue
                triples.append(pairs)
        kinds = set()
        for pairs in triples:
            kind, disc = classify_intervals(pairs)
            assert classify_intervals(twin(pairs)) == (
                kind, pytest.approx(to_float(disc), rel=1e-9, abs=1e-12))
            kinds.add(kind)
        assert kinds == {"elliptic", "parabolic", "hyperbolic"}
        with pytest.raises(NotAligned):
            classify_intervals(twin([(F(0), F(3)), (F(1), F(2)),
                                     (F(2), F(1))]))
