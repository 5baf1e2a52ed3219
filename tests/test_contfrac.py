import random
from fractions import Fraction as F

import pytest

from cyclekit import cycle, poincare
from cyclekit.clifford import INFINITY, Mat2, Mv, euclidean, identity_map, mobius_apply
from cyclekit.contfrac import (ContinuedFraction, HorocycleChain, InvalidCF,
                               _validate_chain, advance, chain,
                               clifford_cf_step, clifford_convergents,
                               convergent_states, convergents,
                               embed_real_moebius, endpoints,
                               horocycle_images, initial_state, mat_mul,
                               mat_of_step, moebius_of_cf, multidim_connecting,
                               multidim_horocycles, orthogonality_residual,
                               quotient, reconstruct_horocycles,
                               seidel_stern_check, tangency_residual)
from cyclekit.cycle import Cycle, Metric
from cyclekit.numerics import (Arithmetic, QuadExt, RadicalClash, is_exact,
                               scalar_sign)
from test_properties import _ref_validate_chain

E2 = Metric.named("e")

PI_BS = [7, 15, 1, 292, 1, 1, 1, 2, 1, 3]
E_BS = [1, 2, 1, 1, 4, 1, 1, 6, 1, 1]
TINY = F(1, 10**40)


def pi_cf():
    return ContinuedFraction.simple(3, PI_BS)


def e_cf():
    return ContinuedFraction.simple(2, E_BS)


def rt2():
    return Arithmetic(mode="exact").sqrt(2)


def rand_frac(rng, span=6):
    return F(rng.randint(-span, span), rng.randint(1, 4))


def rand_cf(rng, nterms):
    terms = []
    for _ in range(nterms):
        a = rand_frac(rng)
        while a == 0:
            a = rand_frac(rng)
        terms.append((a, rand_frac(rng)))
    b0 = rand_frac(rng) if rng.random() < 0.5 else None
    return ContinuedFraction(b0, terms)


class TestContinuedFraction:
    def test_parse_simple(self):
        cf = ContinuedFraction.parse("3;7,15,1,292")
        assert cf.b0 == 3
        assert cf.terms == ((1, 7), (1, 15), (1, 1), (1, 292))
        assert cf.simple_flag

    def test_parse_headless_is_pure(self):
        cf = ContinuedFraction.parse(";1,1,1")
        assert cf.b0 is None
        assert len(cf) == 3

    def test_parse_general_pairs(self):
        cf = ContinuedFraction.parse("1/2 -3/4")
        assert cf.b0 is None
        assert cf.terms == ((1, 2), (-3, 4))
        assert not cf.simple_flag

    def test_zero_numerator_rejected(self):
        with pytest.raises(InvalidCF):
            ContinuedFraction(None, [(1, 1), (0, 2)])

    def test_parse_garbage_rejected(self):
        with pytest.raises((InvalidCF, ValueError)):
            ContinuedFraction.parse("1 2 3")


class TestConvergents:
    def test_pi_values(self):
        assert convergents(pi_cf(), 3) == [(3, 1), (22, 7), (333, 106), (355, 113)]

    def test_e_values(self):
        got = convergents(e_cf(), 5)
        assert got == [(2, 1), (3, 1), (8, 3), (11, 4), (19, 7), (87, 32)]

    def test_fibonacci_ratios(self):
        cf = ContinuedFraction.simple(None, [1] * 6)
        got = convergents(cf, 5)
        assert got == [(1, 1), (1, 2), (2, 3), (3, 5), (5, 8)]

    def test_too_many_steps_rejected(self):
        with pytest.raises(InvalidCF):
            convergents(pi_cf(), 11)

    def test_negative_steps_rejected(self):
        # a negative count is not a slice from the end of the terms
        cf = ContinuedFraction.simple(3, [7, 15, 1, 292])
        with pytest.raises(InvalidCF, match="^step count -1 is negative$"):
            convergents(cf, -1)
        with pytest.raises(InvalidCF, match="^step count -2 is negative$"):
            list(convergent_states(cf, -2))

    def test_zero_q_quotient_is_infinite(self):
        cf = ContinuedFraction(None, [(1, 1), (-1, 1)])
        pairs = convergents(cf, 2)
        assert pairs[-1][1] == 0
        assert quotient(pairs[-1]) is None
        assert quotient(pairs[0]) == 1

    def test_matrix_equals_recurrence(self):
        rng = random.Random(7)
        for _ in range(200):
            cf = rand_cf(rng, rng.randint(1, 6))
            n = len(cf)
            folded = ((1, cf.b0), (0, 1)) if cf.b0 is not None else ((1, 0), (0, 1))
            for a, b in cf.terms:
                folded = mat_mul(folded, mat_of_step(a, b))
            assert moebius_of_cf(cf, n) == folded

    def test_composition_law(self):
        rng = random.Random(11)
        for _ in range(50):
            cf = rand_cf(rng, 4)
            for n in range(2, 5):
                a, b = cf.terms[n - 1]
                assert moebius_of_cf(cf, n) == mat_mul(moebius_of_cf(cf, n - 1),
                                                       mat_of_step(a, b))

    def test_endpoints_are_last_two_quotients(self):
        # the matrix of step 1 already carries the integer part in its columns
        s0, s1 = endpoints(moebius_of_cf(pi_cf(), 1))
        assert (s0, s1) == (F(22, 7), 3)
        s0, s1 = endpoints(moebius_of_cf(pi_cf(), 2))
        assert (s0, s1) == (F(333, 106), F(22, 7))

    def test_single_step_pure(self):
        cf = ContinuedFraction.simple(None, [3])
        s0, s1 = endpoints(moebius_of_cf(cf, 1))
        assert s0 == F(1, 3)
        assert s1 == 0  # the seed quotient P_0/Q_0 = 0/1

    def test_infinite_endpoint(self):
        cf = ContinuedFraction(None, [(1, 1), (-1, 1)])
        s0, s1 = endpoints(moebius_of_cf(cf, 2))
        assert s0 is None
        assert s1 == 1

    def test_streaming_states(self):
        cf = pi_cf()
        states = list(convergent_states(cf, 4))
        assert states[0] == initial_state(cf)
        rebuilt = initial_state(cf)
        for (a, b), state in zip(cf.terms, states[1:]):
            rebuilt = advance(rebuilt, a, b)
            assert rebuilt == state


class TestHorocycleImages:
    def test_first_col_pinned(self):
        c = horocycle_images(((1, 0), (1, 1)), "first_col", 2)
        assert c.row() == (2, 2, 1, 2)
        assert c.value_at((1, 0)) == 0
        assert c.radius_sq() == F(1, 4)

    def test_second_col_pinned(self):
        c = horocycle_images(((1, 0), (0, 1)), "second_col", 2)
        assert c.row() == (2, 0, 1, 0)
        assert c.value_at((0, 0)) == 0
        assert c.radius_sq() == F(1, 4)

    def test_touch_points(self):
        rng = random.Random(3)
        for _ in range(40):
            cf = rand_cf(rng, 3)
            mat = moebius_of_cf(cf, 3)
            (a, b), (c, d) = mat
            first = horocycle_images(mat, "first_col", 2)
            second = horocycle_images(mat, "second_col", 2)
            if c != 0:
                assert first.value_at((F(a) / c, 0)) == 0
            if d != 0:
                assert second.value_at((F(b) / d, 0)) == 0

    def test_connecting_passes_both_quotients(self):
        rng = random.Random(5)
        for _ in range(40):
            cf = rand_cf(rng, 3)
            mat = moebius_of_cf(cf, 3)
            (a, b), (c, d) = mat
            for npar in (0, 1, -2):
                join = horocycle_images(mat, "connecting", npar)
                if c != 0:
                    assert join.value_at((F(a) / c, 0)) == 0
                if d != 0:
                    assert join.value_at((F(b) / d, 0)) == 0

    def test_zero_c_gives_line(self):
        c = horocycle_images(((1, 5), (0, 1)), "first_col", 2)
        assert c.is_flat()
        assert c.row() == (0, 0, 1, 2)  # the line v = 1, shifted map keeps it flat

    def test_radius_scales_with_delta(self):
        mat = ((2, 1), (1, 1))  # delta = 1: radius |delta|/(m c^2) = 1/3
        c = horocycle_images(mat, "first_col", 3)
        assert c.radius_sq() == F(1, 9)
        mat2 = ((4, 2), (2, 2))  # same map, delta = 4
        c2 = horocycle_images(mat2, "first_col", 3)
        assert c2.radius_sq() == F(1, 9)

    def test_degenerate_matrix_rejected(self):
        with pytest.raises(ValueError):
            horocycle_images(((1, 1), (1, 1)), "first_col", 2)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            horocycle_images(((1, 0), (0, 1)), "sideways", 2)


class TestChains:
    def test_tangent_radii(self):
        ch = chain(pi_cf(), 3, "tangent")
        qs = [q for _, q in ch.pairs]
        assert qs == [1, 7, 106, 113]
        for h, q in zip(ch.horocycles, qs):
            assert h.radius_sq() == F(1, 2 * q * q) ** 2
        assert ch.horocycles[1].radius_sq() == F(1, 98) ** 2

    def test_touch_at_quotients(self):
        for ar_name in ("tangent", "orthogonal", "ortho45"):
            ch = chain(pi_cf(), 4, ar_name)
            for h, pair in zip(ch.horocycles, ch.pairs):
                assert h.value_at((quotient(pair), 0)) == 0

    def test_tangency_residuals_exact_zero(self):
        for cf in (pi_cf(), e_cf()):
            ch = chain(cf, 10, "tangent")
            for prev, here in zip(ch.horocycles, ch.horocycles[1:]):
                assert tangency_residual(prev, here) == 0

    def test_orthogonality_residuals_exact_zero(self):
        for cf in (pi_cf(), e_cf()):
            for ar_name in ("orthogonal", "ortho45"):
                ch = chain(cf, 10, ar_name)
                for prev, here in zip(ch.horocycles, ch.horocycles[1:]):
                    assert orthogonality_residual(prev, here) == 0

    def test_orthogonal_radii(self):
        ch = chain(pi_cf(), 3, "orthogonal")
        for h, (_, q) in zip(ch.horocycles, ch.pairs):
            assert h.radius_sq() == F(1, 2 * q ** 4)

    def test_connecting_vertical_and_orthogonal(self):
        for ar_name in ("tangent", "orthogonal"):
            ch = chain(e_cf(), 6, ar_name)
            real_line = Cycle.real_line(E2)
            for i, join in enumerate(ch.connecting):
                assert orthogonality_residual(join, real_line) == 0
                assert orthogonality_residual(join, ch.horocycles[i]) == 0
                assert orthogonality_residual(join, ch.horocycles[i + 1]) == 0

    def test_connecting_radius_tangent(self):
        ch = chain(pi_cf(), 3, "tangent")
        qs = [q for _, q in ch.pairs]
        for i, join in enumerate(ch.connecting):
            assert join.radius_sq() == F(1, 2 * qs[i] * qs[i + 1]) ** 2

    def test_ortho45_cosine(self):
        ch = chain(pi_cf(), 5, "ortho45")
        for join in ch.connecting:
            cos = poincare.angle_to_real_line(join)
            assert cos * cos == F(1, 2)

    def test_ortho45_radius_geometric_mean(self):
        ch = chain(e_cf(), 6, "ortho45")
        for i, join in enumerate(ch.connecting):
            r2 = join.radius_sq()
            assert r2 * r2 == ch.horocycles[i].radius_sq() * ch.horocycles[i + 1].radius_sq()

    def test_ortho45_passes_horocycle_intersection(self):
        ch = chain(pi_cf(), 3, "ortho45")
        ar = Arithmetic(mode="float")
        for i, join in enumerate(ch.connecting):
            pts = poincare.common_point(ch.horocycles[i].as_float(),
                                        ch.horocycles[i + 1].as_float(), ar)
            assert len(pts) == 2
            pts = [poincare.extension_point(p) for p in pts]
            hits = [p for p in pts
                    if abs(join.as_float().value_at(p)) < 1e-9]
            mirror_hits = [p for p in pts
                           if abs(join.mirror().as_float().value_at(p)) < 1e-9]
            assert len(hits) == 1
            assert len(mirror_hits) == 1
            assert hits[0] != mirror_hits[0]

    def test_flat_step_marked(self):
        cf = ContinuedFraction(None, [(1, 1), (-1, 1), (1, 1)])
        ch = chain(cf, 3, "tangent")
        assert ch.flat_steps == [2]
        assert ch.horocycles[2].is_flat()
        # the flat member is still tangent to its neighbours
        assert tangency_residual(ch.horocycles[1], ch.horocycles[2]) == 0
        assert tangency_residual(ch.horocycles[2], ch.horocycles[3]) == 0

    def test_float_chain_accepted(self):
        cf = ContinuedFraction.simple(3.0, [7.0, 15.0, 1.0])
        ch = chain(cf, 3, "orthogonal")
        assert len(ch.horocycles) == 4

    def test_float_ortho45_chain_accepted(self):
        # from step 5 on, the float determinant of the connecting cycle is
        # pure cancellation, so its cosine is tested as a residual
        cf = ContinuedFraction.simple(3.0, [7.0, 15.0, 1.0, 292.0, 1.0, 1.0])
        ch = chain(cf, 6, "ortho45")
        exact = chain(pi_cf(), 6, "ortho45")
        assert len(ch.connecting) == 6
        for got, want in zip(ch.cycles, exact.cycles):
            assert got.same_cycle(want.as_float(), digits=6)

    @pytest.mark.parametrize("arrangement", ["tangent", "orthogonal", "ortho45"])
    def test_field_comes_from_the_terms_used(self, arrangement):
        # a float term past step N leaves the chain exact
        got = chain(ContinuedFraction.simple(3, [7, 15, 1.5]), 2, arrangement)
        want = chain(ContinuedFraction.simple(3, [7, 15, 1]), 2, arrangement)
        assert [c.row() for c in got.cycles] == [c.row() for c in want.cycles]
        assert all(is_exact(v) for c in got.cycles for v in c.row())

    @pytest.mark.parametrize("arrangement", ["tangent", "orthogonal", "ortho45"])
    def test_radical_free_term_over_another_radicand(self, arrangement):
        # a term over sqrt(3): the tangent chain stays exact over sqrt(3),
        # while the orthogonal and 45-degree chains bring in sqrt(2), which
        # clashes with it
        cf = ContinuedFraction.simple(1, [QuadExt(1, 1, 3), 3])
        if arrangement != "tangent":
            with pytest.raises(RadicalClash, match=r"^sqrt\(3\) vs sqrt\(2\)$"):
                chain(cf, 2, arrangement)
            return
        rows = [c.row() for c in chain(cf, 2, arrangement).cycles]
        assert all(is_exact(v) for row in rows for v in row)
        assert {v.d for row in rows for v in row if isinstance(v, QuadExt)} == {3}

    def test_chain_needs_a_step(self):
        with pytest.raises(InvalidCF):
            chain(pi_cf(), 0, "tangent")

    @pytest.mark.parametrize("arrangement", ["tangent", "orthogonal", "ortho45"])
    def test_mirror_sign_is_exact(self, arrangement):
        # a_1 = -(1 - sqrt 2)^40 is negative, but its float is 0.125
        a1 = -(QuadExt(1, -1, 2) ** 40)
        assert a1 < 0 < float(a1)
        cf = ContinuedFraction(None, [(a1, 1), (1, 2), (1, 3), (1, 1)])
        ch = chain(cf, 4, arrangement)
        assert all(scalar_sign(h.l[-1]) > 0 for h in ch.horocycles)

    @pytest.mark.parametrize("arrangement", ["tangent", "orthogonal", "ortho45"])
    def test_refused_chain_raises_invalid_cf(self, arrangement):
        # consecutive radii agree only when |a_j| = 1 for j >= 2
        cf = ContinuedFraction.parse("2/1 3/1 1/2")
        with pytest.raises(InvalidCF, match="^step 2: arrangement residual"):
            chain(cf, 3, arrangement)

    @pytest.mark.parametrize("arrangement", ["tangent", "orthogonal", "ortho45"])
    def test_exact_validation_pairs_no_integer_form(self, arrangement,
                                                    monkeypatch):
        # a chain of int terms is checked on the ints it is built from: no
        # integer form is made and no form pairing summed
        calls = []

        def spy(name):
            real = getattr(cycle, name)

            def counted(*args):
                calls.append(name)
                return real(*args)
            return counted

        for name in ("integer_form", "form_pairing"):
            monkeypatch.setattr(cycle, name, spy(name))
        rng = random.Random("exact validation")
        cf = ContinuedFraction.simple(3, [rng.randint(1, 9) for _ in range(24)])
        ch = chain(cf, 24, arrangement)
        assert len(ch.horocycles) == 25
        assert calls == []
        # the spies do see a pairing made the old way
        ch.horocycles[0].product(ch.horocycles[1])
        assert calls

    @pytest.mark.parametrize("arrangement", ["tangent", "orthogonal", "ortho45"])
    def test_int_and_fraction_terms_give_equal_chains(self, arrangement):
        # Fraction terms are built from the scalar closed forms and checked
        # on those scalars; int terms are built and checked in ints
        read = chain(ContinuedFraction.parse("3;7,15,1,292"), 4, arrangement)
        ints = chain(ContinuedFraction.simple(3, [7, 15, 1, 292]), 4,
                     arrangement)
        assert [c.row() for c in read.cycles] == [c.row() for c in ints.cycles]
        assert read.pairs == ints.pairs
        assert read.flat_steps == ints.flat_steps

    @pytest.mark.parametrize("cf, arrangement, index, entry, by", [
        (ContinuedFraction.parse("3;7,15,1,292"), "tangent", 2, 0, TINY),
        (ContinuedFraction.parse("3;7,15,1,292"), "orthogonal", 1, 1, TINY),
        (ContinuedFraction.parse("3;7,15,1,292"), "ortho45", 6, 3, TINY),
        (ContinuedFraction.simple(1, [QuadExt(1, 1, 3), 3]), "tangent", 1, 3,
         QuadExt(0, TINY, 3)),
        (ContinuedFraction.simple(1, [QuadExt(1, 1, 3), 3]), "tangent", 3, 1,
         QuadExt(0, TINY, 3)),
    ])
    def test_exact_checks_stay_exact(self, cf, arrangement, index, entry, by):
        # an exact chain is checked exactly on its scalars: an entry moved by
        # 1/10^40 or sqrt(3)/10^40, far below any float tolerance, is
        # refused with the scalar reference's message
        ch = chain(cf, len(cf), arrangement)
        cycles = ch.cycles
        row = list(cycles[index].row())
        row[entry] += by
        cycles[index] = Cycle.from_row(E2, row)
        n = len(ch.horocycles)
        moved = HorocycleChain(arrangement, cycles[:n], cycles[n:], ch.pairs,
                               ch.flat_steps)
        with pytest.raises(InvalidCF) as ref:
            _ref_validate_chain(moved)
        with pytest.raises(InvalidCF) as err:
            _validate_chain(moved)
        assert str(err.value) == str(ref.value)

    @pytest.mark.parametrize("arrangement", ["tangent", "orthogonal", "ortho45"])
    def test_exact_chain_past_float_range(self, arrangement):
        # entries near 10^800 are checked exactly, never turned into floats
        cf = ContinuedFraction.simple(F(10**400, 3), [F(10**300, 7), 3])
        ch = chain(cf, 2, arrangement)
        assert ch.pairs[-1] == (F(10**700, 7) + 3 + F(10**400, 3),
                                F(3 * 10**300, 7) + 1)

    def test_singular_partial_matrix_names_the_step(self):
        # the float product of the second partial matrix has determinant
        # 1e-200 - 1e-200 = 0
        cf = ContinuedFraction(None, [(1e-200, 1.0), (1e-200, 1.0)])
        with pytest.raises(InvalidCF) as err:
            chain(cf, 2, "tangent")
        assert str(err.value) == "step 2: partial matrix is singular"

    def test_refusal_message_names_the_residual(self):
        cf = ContinuedFraction.parse("2/1 3/1 1/2")
        with pytest.raises(InvalidCF) as err:
            chain(cf, 3, "tangent")
        assert str(err.value) == \
            "step 2: arrangement residual Fraction(-80, 1) is not zero"


class TestReconstruction:
    def test_orthogonal_matches_chain_heights(self):
        cf = pi_cf()
        pts = [quotient(p) for p in convergents(cf, 4)]
        half_rt2 = rt2() / 2
        rec = reconstruct_horocycles(pts, half_rt2, "orthogonal")
        qs = [q for _, q in convergents(cf, 4)]
        for cyc, q in zip(rec, qs):
            assert cyc.l[1] == rt2() / (2 * q * q)
            assert orthogonality_residual(cyc, Cycle.real_line(E2)) != 0  # horocycle, not a line
        for prev, here in zip(rec, rec[1:]):
            assert orthogonality_residual(prev, here) == 0

    def test_tangent_roots_touch(self):
        pts = [F(0), F(1), F(3, 2)]
        rec = reconstruct_horocycles(pts, F(1, 2), "tangent")
        for prev, here in zip(rec, rec[1:]):
            assert tangency_residual(prev, here) == 0
        for cyc, p in zip(rec, pts):
            assert cyc.value_at((p, 0)) == 0

    def test_unknown_relation(self):
        with pytest.raises(ValueError):
            reconstruct_horocycles([F(0), F(1)], F(1), "parallel")

    def test_zero_height_is_an_invalid_cf(self):
        # orthogonality divides by the previous height
        with pytest.raises(InvalidCF, match="^previous horocycle has zero height$"):
            reconstruct_horocycles([F(0), F(1)], 0, "orthogonal")
        # a repeated point gives a zero height that the next step meets
        with pytest.raises(InvalidCF, match="zero height"):
            reconstruct_horocycles([F(0), F(0), F(1)], F(1), "orthogonal")
        assert len(reconstruct_horocycles([F(0)], 0, "orthogonal")) == 1


class TestSeidelStern:
    def test_pi_chain_converges(self):
        report = seidel_stern_check(chain(pi_cf(), 4, "tangent"))
        assert report.nested
        assert report.violations == []
        assert all(a > b for a, b in zip(report.radii, report.radii[1:]))
        assert report.radii_to_zero
        assert report.converges is True

    def test_constant_chain_no_verdict(self):
        same = Cycle(E2, 1, (0, 1), 0)
        report = seidel_stern_check([same] * 4)
        assert not report.nested
        assert report.converges is None

    def test_e_slower_than_pi(self):
        rpi = seidel_stern_check(chain(pi_cf(), 3, "tangent")).radii
        re_ = seidel_stern_check(chain(e_cf(), 3, "tangent")).radii
        assert re_[2] > rpi[2]

    def test_ortho45_centres_sink(self):
        report = seidel_stern_check(chain(pi_cf(), 6, "ortho45"))
        heights = report.centre_heights
        assert all(a > b for a, b in zip(heights, heights[1:]))
        assert report.centres_to_zero

    def test_threshold_respected(self):
        report = seidel_stern_check(chain(pi_cf(), 2, "tangent"), threshold=1e-12)
        assert report.converges is False


class TestMultidim:
    def rand_mat(self, rng):
        while True:
            a, b, c, d = (rand_frac(rng) for _ in range(4))
            if a * d - b * c != 0:
                return ((a, b), (c, d))

    def rand_ahlfors(self, rng, sig, nsteps=3):
        M = identity_map(sig)
        for _ in range(nsteps):
            b = Mv.vector(sig, [rand_frac(rng) for _ in range(sig.n)])
            M = M * Mat2(sig, 0, 1, 1, b)
        return M

    def test_one_dim_collapse_matches_plane_formulas(self):
        rng = random.Random(23)
        sig1 = euclidean(1)
        for _ in range(40):
            mat = self.rand_mat(rng)
            M = embed_real_moebius(mat, sig1)
            for fam, val in (("first_col", 2), ("second_col", F(5, 3))):
                assert multidim_horocycles(M, fam, val).row() == \
                    horocycle_images(mat, fam, val).row()
            for npar in (0, 1, F(-2, 3)):
                assert multidim_connecting(M, (1,), npar).row() == \
                    horocycle_images(mat, "connecting", npar).row()

    def test_embedding_is_multiplicative(self):
        rng = random.Random(29)
        sig1 = euclidean(1)
        for _ in range(20):
            x, y = self.rand_mat(rng), self.rand_mat(rng)
            lhs = embed_real_moebius(mat_mul(x, y), sig1)
            rhs = embed_real_moebius(x, sig1) * embed_real_moebius(y, sig1)
            assert lhs == rhs

    def test_first_col_closed_form(self):
        rng = random.Random(31)
        sig = euclidean(2)
        big = euclidean(3)
        e3 = Mv.e(big, 3)
        for _ in range(25):
            M = self.rand_ahlfors(rng, sig)
            delta = M.pseudodet()
            m = rand_frac(rng)
            img = multidim_horocycles(M, "first_col", m)
            assert img.k == m * M.c.modulus_sq()
            assert img.m == m * M.a.modulus_sq()
            lvec = Mv(big, dict((M.a * M.c.conj()).terms)) * m + e3 * delta
            assert img.l == lvec.vector_components()

    def test_second_col_closed_form(self):
        rng = random.Random(37)
        sig = euclidean(2)
        big = euclidean(3)
        e3 = Mv.e(big, 3)
        for _ in range(25):
            M = self.rand_ahlfors(rng, sig)
            delta = M.pseudodet()
            k = rand_frac(rng)
            img = multidim_horocycles(M, "second_col", k)
            assert img.k == k * M.d.modulus_sq()
            assert img.m == k * M.b.modulus_sq()
            lvec = Mv(big, dict((M.b * M.d.conj()).terms)) * k + e3 * delta
            assert img.l == lvec.vector_components()

    def test_touch_points_match_moebius_images(self):
        rng = random.Random(41)
        sig = euclidean(2)
        zero = Mv.scalar(sig, 0)
        for _ in range(20):
            M = self.rand_ahlfors(rng, sig)
            first = multidim_horocycles(M, "first_col", 2)
            second = multidim_horocycles(M, "second_col", 2)
            at_inf = mobius_apply(M, INFINITY)
            at_zero = mobius_apply(M, zero)
            if not isinstance(at_inf, type(INFINITY)):
                assert first.value_at(at_inf.vector_components() + (0,)) == 0
            if not isinstance(at_zero, type(INFINITY)):
                assert second.value_at(at_zero.vector_components() + (0,)) == 0

    def test_identity_fixes_hyperplane(self):
        M = identity_map(euclidean(2))
        img = multidim_horocycles(M, "first_col", 5)
        assert img.row() == (0, 0, 0, 1, 5)

    def test_connecting_centre_in_contact_plane(self):
        rng = random.Random(43)
        sig = euclidean(2)
        for _ in range(20):
            M = self.rand_ahlfors(rng, sig)
            if M.c.modulus_sq() == 0 or M.d.modulus_sq() == 0:
                continue
            x = M.c.conj() * M.d
            assert x.is_vector()
            r = rand_frac(rng)
            if r == 0:
                r = F(1)
            join = multidim_connecting(M, x, r)
            if join.k == 0:
                continue
            touch1 = mobius_apply(M, INFINITY).vector_components()
            touch2 = mobius_apply(M, Mv.scalar(sig, 0)).vector_components()
            mid = tuple((F(p) + q) / 2 for p, q in zip(touch1, touch2))
            height = M.pseudodet() * r / (2 * M.c.modulus_sq() * M.d.modulus_sq())
            assert join.center() == mid + (height,)

    def test_step_matches_matrix_action(self):
        rng = random.Random(47)
        sig = euclidean(2)
        for _ in range(30):
            b = Mv.vector(sig, [rand_frac(rng), rand_frac(rng)])
            x = Mv.vector(sig, [rand_frac(rng), rand_frac(rng)])
            M = Mat2(sig, 0, 1, 1, b)
            assert clifford_cf_step(x, b) == mobius_apply(M, x)
        b = Mv.vector(sig, [1, 2])
        assert clifford_cf_step(INFINITY, b) == Mv.scalar(sig, 0)
        assert clifford_cf_step(-b, b) is INFINITY

    def test_fold_equals_matrix_convergents(self):
        rng = random.Random(53)
        sig = euclidean(2)
        for _ in range(20):
            bs = [Mv.vector(sig, [rand_frac(rng), rand_frac(rng)])
                  for _ in range(rng.randint(1, 5))]
            points = clifford_convergents(bs)
            folded = Mv.scalar(sig, 0)
            for b in reversed(bs):
                folded = clifford_cf_step(folded, b)
            assert points[-1] == folded

    def test_ahlfors_conditions_maintained(self):
        rng = random.Random(59)
        sig = euclidean(3)
        M = identity_map(sig)
        for _ in range(6):
            b = Mv.vector(sig, [rand_frac(rng) for _ in range(3)])
            M = M * Mat2(sig, 0, 1, 1, b)
            assert M.entry_conditions_ok()

    def test_repeated_e1_is_periodic(self):
        # (t e1 + e1)^{-1} = -(t+1)^{-1} e1: an order-3 map, so the
        # convergents cycle through -e1, oo, 0 instead of converging
        sig = euclidean(2)
        e1 = Mv.e(sig, 1)
        pts = clifford_convergents([e1] * 7)
        zero = Mv.scalar(sig, 0)
        assert pts[0] == -e1
        assert pts[1] is INFINITY
        assert pts[2] == zero
        assert pts[3] == -e1
        assert pts[4] is INFINITY
        assert pts[6] == -e1

    def test_repeated_e1_same_in_one_dimension(self):
        one = clifford_convergents([Mv.e(euclidean(1), 1)] * 6)
        two = clifford_convergents([Mv.e(euclidean(2), 1)] * 6)
        for p1, p2 in zip(one, two):
            if p1 is INFINITY:
                assert p2 is INFINITY
            else:
                assert p1.vector_components() + (0,) == p2.vector_components()

    def test_embedded_scalar_run(self):
        # push a plain rational fraction through the algebra along e1
        cf = ContinuedFraction.simple(None, [F(1), F(2), F(3)])
        sig = euclidean(1)
        for n in range(1, 4):
            mat = moebius_of_cf(cf, n)
            M = embed_real_moebius(mat, sig)
            pt = mobius_apply(M, Mv.scalar(sig, 0))
            expect = quotient(convergents(cf, n)[-1])
            assert pt == Mv.vector(sig, [expect])

    def test_nonvector_denominator_rejected(self):
        sig = euclidean(2)
        bad = Mv.e(sig, 1) * Mv.e(sig, 2)
        with pytest.raises(ValueError):
            clifford_convergents([bad])
