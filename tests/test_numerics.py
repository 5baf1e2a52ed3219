import copy
import math
import pickle
from collections import Counter
from fractions import Fraction as F

import pytest

from cyclekit import numerics
from cyclekit.contfrac import ContinuedFraction, chain
from cyclekit.numerics import (
    Arithmetic, QuadExt, RadicalClash, comparison_eps, format_scalar,
    fraction_sqrt, parse_scalar, scalar_sign, to_float,
)


def test_fraction_sqrt():
    assert fraction_sqrt(F(9, 4)) == F(3, 2)
    assert fraction_sqrt(F(2)) is None
    assert fraction_sqrt(F(0)) == 0
    assert fraction_sqrt(F(-1)) is None


class TestQuadExt:
    def test_field_ops(self):
        x = QuadExt(F(1), F(1), 2)   # 1 + sqrt(2)
        y = QuadExt(F(3), F(-2), 2)  # 3 - 2 sqrt(2)
        assert x * y == QuadExt(F(-1), F(1), 2)
        assert x + y == QuadExt(F(4), F(-1), 2)
        assert (x * y) / y == x
        assert x * (1 / x) == 1

    def test_sqrt2_squares_to_two(self):
        s = QuadExt(F(0), F(1), 2)
        assert s * s == F(2)
        assert (s * s).__class__ is F or s * s == 2

    def test_collapse_and_equality_with_fraction(self):
        z = QuadExt(F(5, 3), F(0), 2)
        assert z == F(5, 3)
        assert hash(z) == hash(F(5, 3))
        assert type(z) is F and z == F(5, 3)

    def test_exact_ordering(self):
        s = QuadExt(F(0), F(1), 2)  # sqrt(2) = 1.414...
        assert F(7, 5) < s < F(3, 2)
        assert s > 0
        assert -s < 0
        assert QuadExt(F(1), F(-1), 2) < 0  # 1 - sqrt(2)

    def test_sign_near_tie(self):
        # 99/70 is a convergent of sqrt(2); the float gap is ~1e-5 but the
        # sign test must be exact either way
        assert QuadExt(F(-99, 70), F(1), 2) < 0
        assert QuadExt(F(99, 70), F(-1), 2) > 0

    def test_mixed_radicand_rejected(self):
        with pytest.raises(RadicalClash):
            QuadExt(F(0), F(1), 2) + QuadExt(F(0), F(1), 3)
        # but a value with no radical part is a Fraction, and mixes fine
        assert QuadExt(F(2), F(0), 3) + QuadExt(F(1), F(1), 2) == QuadExt(F(3), F(1), 2)

    def test_requires_nonsquare_positive(self):
        with pytest.raises(ValueError):
            QuadExt(F(1), F(1), 4)
        with pytest.raises(ValueError):
            QuadExt(F(1), F(1), -2)

    def test_equal_radicals_share_one_field(self):
        # the constructor reduces a radicand to its squarefree core
        r8, r2 = parse_scalar("sqrt(8)"), Arithmetic().sqrt(2)
        assert r8 + r2 == QuadExt(0, 3, 2)
        assert r8 == 2 * r2 and hash(r8) == hash(2 * r2)
        assert format_scalar(r8) == "2*sqrt(2)"
        assert format_scalar(parse_scalar("sqrt(3/2)")) == "1/2*sqrt(6)"

    def test_square_factor_past_the_trial_bound_shares_the_field(self):
        # 2000012000018 = 2 * 1000003**2: the square factor lies past the
        # trial-division bound, in the cofactor left over
        x = parse_scalar("sqrt(2000012000018)")
        y = parse_scalar("1000003*sqrt(2)")
        assert x + y == QuadExt(0, 2000006, 2)
        assert x == y and hash(x) == hash(y)

    def test_arithmetic_checks_the_radicand_once(self, monkeypatch):
        # a longer chain does more Q(sqrt 2) arithmetic, but no more checks
        calls = Counter()
        for name in ("fraction_sqrt", "radical_parts"):
            def counted(x, _check=getattr(numerics, name), _name=name):
                calls[_name] += 1
                return _check(x)
            monkeypatch.setattr(numerics, name, counted)
        cf = ContinuedFraction.simple(1, [2] * 24)
        seen = []
        for n in (4, 24):
            calls.clear()
            chain(cf, n, "orthogonal")
            seen.append(dict(calls))
        assert seen[0] == seen[1]

    @pytest.mark.parametrize("x", [F(2), F(3, 8), 2 * 1000003 ** 2])
    def test_a_fresh_root_factors_its_radicand_once(self, monkeypatch, x):
        calls = Counter()
        for name in ("fraction_sqrt", "radical_parts"):
            def counted(x, _check=getattr(numerics, name), _name=name):
                calls[_name] += 1
                return _check(x)
            monkeypatch.setattr(numerics, name, counted)
        ar = Arithmetic("exact")
        root = ar.sqrt(x)
        assert calls == {"radical_parts": 1}
        assert root * root == x and ar.radicand == root.d

    def test_copy_and_pickle_round_trip(self):
        x = QuadExt(F(1, 3), F(-2, 5), 8)
        assert copy.deepcopy(x) == x == pickle.loads(pickle.dumps(x))
        assert copy.copy(x).d == 2

    def test_pow_and_float(self):
        s = QuadExt(F(1), F(1), 2)
        assert s ** 2 == s * s
        assert math.isclose(float(s), 1 + math.sqrt(2))


    def test_float_operand_gives_the_float_result(self):
        q = QuadExt(1, 1, 2)
        x = float(q)
        assert 0.5 * q == q * 0.5 == x * 0.5
        assert q + 0.5 == 0.5 + q == x + 0.5
        assert q - 0.5 == x - 0.5 and 0.5 - q == 0.5 - x
        assert q / 0.5 == x / 0.5 and 0.5 / q == pytest.approx(0.5 / x)
        assert q < 2.5 and 2.5 > q and q > 2.4 and q >= 2.4 and q <= x
        assert not q < x and not q < float("nan")


# primes past the trial-division bound of radical_parts
P, Q = 100_003, 100_019


@pytest.mark.parametrize("x, coeff, core", [
    (P * Q, 1, P * Q),
    (P ** 2, P, 1),
    (3 * P ** 2, P, 3),
    (F(P * Q, P ** 2), F(1, P), P * Q),
    (2 * 1_000_003 ** 2, 1_000_003, 2),
])
def test_radical_parts_core_is_squarefree_below_1e15(x, coeff, core):
    assert numerics.radical_parts(x) == (coeff, core)


def test_radical_parts_past_1e15_is_never_wrong():
    # P**2 * Q > 10**15 has three prime factors past the bound; its square
    # factor may stay in core, but coeff**2 * core is still the input
    coeff, core = numerics.radical_parts(P ** 2 * Q)
    assert coeff ** 2 * core == P ** 2 * Q and core.denominator == 1


class TestArithmetic:
    def test_sqrt_in_q_and_over_a_held_radicand(self):
        ar = Arithmetic("exact")
        assert ar.sqrt(F(9, 16)) == F(3, 4) and ar.radicand is None
        # no root in Q(sqrt 3): a second radicand
        ar = Arithmetic("exact", F(3))
        assert isinstance(ar.sqrt(F(2)), float) and ar.demoted
        ar = Arithmetic("exact", F(2))
        assert ar.sqrt(F(2)) == QuadExt(F(0), F(1), 2)
        assert ar.sqrt(F(1, 2)) == QuadExt(F(0), F(1, 2), 2)
        s = ar.sqrt(F(8))
        assert s == 2 * ar.sqrt(F(2)) and s * s == 8
        assert not ar.demoted
        # the sqrt of a QuadExt with a radical part is a nested radical
        v = ar.sqrt(QuadExt(F(1), F(1), 2))
        assert ar.demoted and ar.notes[0].startswith("nested radical")
        assert math.isclose(v, math.sqrt(1 + math.sqrt(2)))

    def test_exact_sqrt_adopts_radicand(self):
        ar = Arithmetic("exact")
        v = ar.sqrt(F(2))
        assert v == QuadExt(F(0), F(1), 2)
        assert ar.radicand == 2
        assert not ar.demoted

    def test_second_radicand_demotes(self):
        ar = Arithmetic("exact")
        ar.sqrt(F(2))
        v = ar.sqrt(F(3))
        assert ar.demoted
        assert isinstance(v, float)
        assert math.isclose(v, math.sqrt(3))

    def test_nested_radical_demotes(self):
        ar = Arithmetic("exact")
        r2 = ar.sqrt(F(2))
        v = ar.sqrt(1 + r2)
        assert ar.demoted
        assert math.isclose(v, math.sqrt(1 + math.sqrt(2)))

    def test_sqrt_of_negative_uses_magnitude(self):
        ar = Arithmetic("exact")
        assert ar.sqrt(F(-9, 4)) == F(3, 2)

    def test_float_mode(self):
        ar = Arithmetic("float")
        assert math.isclose(ar.sqrt(2), math.sqrt(2))


def test_scalar_sign():
    assert scalar_sign(F(-3, 7)) == -1
    assert scalar_sign(0) == 0
    assert scalar_sign(QuadExt(F(0), F(1), 5)) == 1
    assert scalar_sign(-0.25) == -1


def test_parse_and_format_round_trip():
    for text in ["3/4", "-7", "0", "2+3*sqrt(5)", "-1/2*sqrt(2)", "1-1*sqrt(3)"]:
        v = parse_scalar(text, "exact")
        assert parse_scalar(format_scalar(v), "exact") == v
    assert parse_scalar("0.5", "exact") == F(1, 2)
    assert isinstance(parse_scalar("0.5", "float"), float)


def test_eps_env_override(monkeypatch):
    monkeypatch.setenv("MOEBINV_EPS", "1e-6")
    assert comparison_eps() == 1e-6
    monkeypatch.delenv("MOEBINV_EPS")
    assert comparison_eps() == 1e-9
    # a tolerance that is not a finite float > 0 is refused, not used or
    # replaced by the default
    for bad in ("-1", "0", "nan", "inf", "abc"):
        monkeypatch.setenv("MOEBINV_EPS", bad)
        with pytest.raises(ValueError, match="MOEBINV_EPS"):
            comparison_eps()


def test_to_float():
    assert to_float(F(1, 4)) == 0.25
    assert math.isclose(to_float(QuadExt(F(1), F(1), 2)), 1 + math.sqrt(2))
