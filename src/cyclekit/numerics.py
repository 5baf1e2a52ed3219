"""Scalar arithmetic for the geometry engine.

Three interoperable scalar kinds, one representation per number:

* exact rationals -- ``int`` and ``fractions.Fraction``;
* :class:`QuadExt` -- irrational numbers ``a + b*sqrt(d)`` with rational
  ``a`` and ``b != 0``, held as an integer triple ``(p + q*sqrt(d))/n`` in
  lowest terms over the squarefree integer core ``d`` of the radicand (one
  radicand per solve).  A QuadExt always has a radical part: a value whose
  radical part is 0, built or computed, is a Fraction.  Both builders, the
  public constructor and :meth:`Arithmetic.sqrt`, reduce a radicand to its
  core with one :func:`radical_parts`; arithmetic works in ints after that;
* ``float``.

Exact kinds never lose precision; a computation that would need a second
independent radical is demoted to float explicitly (see :class:`Arithmetic`),
never silently.

Lifecycle of an :class:`Arithmetic` context: what a caller passes in is
configuration only -- the mode and an optional pre-chosen radicand.  Every
public call that takes a context works in a private clone (see
:func:`private_context`), so the radicand one call adopts and any demotion
it records never leak into the next call.  Only ``Arithmetic``'s own
methods mutate a context.

Tolerance policy: exact values are compared with zero exactly, floats
against a tolerance.  :func:`near_zero` is the one floored test: a float
``v`` is zero when ``|v| <= eps * max(1, S)``, ``S`` the product of the
:func:`row_scale` of the rows ``v`` came from.  Relative tests, ``|v| <=
eps * scale`` with no floor, stay where scale invariance matters:
``Cycle.is_zero_radius`` and ``passes_through``, ``linear_solve``'s rank
test, ``loxodrome_triple_ok``, ``proportional`` and ``interval_endpoints``'
trace check.  Each site keeps its own ``eps``; the only settings are
``MOEBINV_EPS``, read by :func:`comparison_eps`, and ``relations.check``'s
``eps``.  A system's data chooses its field: ``linear_solve`` (like
``_quad_roots``) works exactly unless its caller asks for floats or an
entry is a float.  Every exact system that is eliminated is eliminated
fraction-free, over Z[sqrt d] when an entry, a rhs included, has a
radical part and over the ints otherwise, and read back by its caller as
Fractions and QuadExts, except that a branch of ``solve`` reads a column
of int rows back in ints, in one read-back (``Reduced.integer_rows``).
A homogeneous plane system of int rows that ``solve`` can answer off its
minors (three rows, or two against a point demand) is not eliminated:
its candidates are those same int rows, read off the minors.  An exact
cycle row over one radicand has one integer form over Z[sqrt d]
(``cycle.integer_form``): the cycle pairing sums in ints on it, and a
rational cycle's canonical row and key read its primitive int row.
Chain validation reads a chain's rows into ints over Z[sqrt d] itself,
with no primitive form.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

DEFAULT_EPS = 1e-9

Rational = Union[int, Fraction]


def lift(x):
    """Ints become Fractions, so that dividing by or into them stays exact;
    every other scalar passes through unchanged."""
    return Fraction(x) if isinstance(x, int) else x


def comparison_eps() -> float:
    """Default comparison tolerance; the MOEBINV_EPS env var overrides it.

    Raises ValueError when MOEBINV_EPS is set to anything but a finite
    float > 0: a negative or NaN tolerance would make every float zero
    test fail."""
    raw = os.environ.get("MOEBINV_EPS")
    if not raw:
        return DEFAULT_EPS
    try:
        eps = float(raw)
    except ValueError:
        eps = math.nan
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"MOEBINV_EPS must be a finite number > 0, "
                         f"got {raw!r}")
    return eps


def fraction_sqrt(x: Rational) -> Optional[Fraction]:
    """Exact square root of a non-negative rational, or None."""
    x = Fraction(x)
    if x < 0:
        return None
    if x == 0:
        return Fraction(0)
    pn, pd = x.numerator, x.denominator
    rn, rd = math.isqrt(pn), math.isqrt(pd)
    if rn * rn == pn and rd * rd == pd:
        return Fraction(rn, rd)
    return None


def radical_parts(x: Rational):
    """Split positive x into (coeff, core) with x = coeff^2 * core.

    core is a positive integer, 1 exactly when x is a square and never a
    square otherwise, so sqrt(core) is irrational for every other x.  No
    prime up to 100,000 divides core twice, and a core up to 10**15 is
    squarefree, so there equal radicals built from different inputs agree
    representation-wise; a larger core may keep the square of a larger
    prime.  Two such cores of one radical, d and d' with d d' a square,
    still make one field: :class:`QuadExt` decides ``==`` and ``hash`` on
    (a, b^2 d, sign b), and arithmetic reads the second operand over the
    first one's core; only a non-square d d' raises :class:`RadicalClash`.
    Trial division by 2 and the odd primes (:func:`_trial_primes`) runs
    while the cube of the divisor is at most the cofactor left, and
    to 100,000 at most; a cofactor left over after the cube bound is 1, a
    prime, a product of two primes or a prime squared, and a square
    cofactor goes into coeff.  A square factor that stays in core only
    leaves the result less reduced, never wrong.  No composite divisor is
    tried: its prime factors are gone from the cofactor by then, so it
    would divide nothing.
    """
    x = Fraction(x)
    n = x.numerator * x.denominator
    s, core, m = 1, 1, n
    for f in _trial_primes():
        if f * f * f > m:
            break
        if m % f == 0:
            e = 0
            while m % f == 0:
                m //= f
                e += 1
            s *= f ** (e // 2)
            if e % 2:
                core *= f
    r = math.isqrt(m)
    if r * r == m:
        s *= r
    else:
        core *= m
    return Fraction(s, x.denominator), Fraction(core)


@functools.cache
def _trial_primes() -> tuple:
    """The primes up to 100,000, sieved on the first call, not at import."""
    top = 100_000
    sieve = bytearray([1]) * (top + 1)
    sieve[:2] = b"\0\0"
    for i in range(2, math.isqrt(top) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(range(i * i, top + 1, i)))
    return tuple(itertools.compress(range(top + 1), sieve))


class RadicalClash(ArithmeticError):
    """A value needs a radical that does not live in the current field."""


class QuadExt:
    """``a + b*sqrt(d)`` with rational ``a`` and ``b != 0``, held as
    ``(p + q*sqrt(d))/n``.

    ``p``, ``q`` and ``n`` are Python ints in lowest terms with ``n > 0``
    and ``q != 0``; ``d`` is the squarefree integer core of the radicand.
    The public constructor ``QuadExt(a, b, d)`` checks a radicand: ``d``
    must be a positive non-square rational, and one :func:`radical_parts`
    splits it into ``coeff**2 * core`` with ``coeff`` folded into ``b``, so
    equal radicals built from different inputs (``sqrt(8)``, ``2*sqrt(2)``)
    share one field.  :meth:`Arithmetic.sqrt` and arithmetic build with
    :func:`_quad` over a core (a held radicand is one), which never
    re-checks it and costs one ``gcd``.  Both constructors return a
    Fraction where the radical part is 0 (``QuadExt(a, 0, d)`` is
    ``Fraction(a)``), so a QuadExt is irrational and never equals a
    rational.

    ``a`` and ``b`` read back as Fractions.  Mixed arithmetic with ints and
    Fractions lifts them; mixing two radicands whose product is not a
    square raises :class:`RadicalClash` (the CLI exits 2 on it), and two
    cores of one radical compare and hash as one value
    (:func:`radical_parts`).  A float operand gives the float result, as
    with a Fraction.
    """

    __slots__ = ("p", "q", "n", "d")

    def __new__(cls, a, b, d):
        a, b, d = Fraction(a), Fraction(b), Fraction(d)
        coeff, core = radical_parts(d) if d > 0 else (d, 1)
        if core == 1:                   # d <= 0, or d a square
            raise ValueError(f"radicand must be positive and non-square: {d}")
        b *= coeff
        return _quad(a.numerator * b.denominator, b.numerator * a.denominator,
                     a.denominator * b.denominator, core.numerator)

    def __reduce__(self):
        # copy and pickle rebuild through the private constructor
        return _quad, (self.p, self.q, self.n, self.d)

    @property
    def a(self) -> Fraction:
        return Fraction(self.p, self.n)

    @property
    def b(self) -> Fraction:
        return Fraction(self.q, self.n)

    # -- coercion ---------------------------------------------------------
    def _pair(self, other):
        """``(p, q, n, P, Q, N, d)``: self and other over one radicand
        ``d``, or None when other is not exact.  A rational operand reads
        over self's radicand."""
        d = self.d
        if isinstance(other, QuadExt):
            if other.d == d:
                return self.p, self.q, self.n, other.p, other.q, other.n, d
            # two cores of one radical (a core above 10**15 may keep a
            # square), d D = s^2: sqrt(D) = s sqrt(d) / d
            D = other.d
            s = math.isqrt(d * D)
            if s * s != d * D:
                raise RadicalClash(f"sqrt({d}) vs sqrt({D})")
            return (self.p, self.q, self.n,
                    other.p * d, other.q * s, other.n * d, d)
        if isinstance(other, (int, Fraction)):
            return (self.p, self.q, self.n,
                    other.numerator, 0, other.denominator, d)
        return None

    # -- arithmetic -------------------------------------------------------
    def __add__(self, other):
        t = self._pair(other)
        if t is None:
            return float(self) + other if isinstance(other, float) \
                else NotImplemented
        p, q, n, P, Q, N, d = t
        return _quad(p * N + P * n, q * N + Q * n, n * N, d)

    __radd__ = __add__

    def __neg__(self):
        return _quad(-self.p, -self.q, self.n, self.d)

    def __sub__(self, other):
        t = self._pair(other)
        if t is None:
            return float(self) - other if isinstance(other, float) \
                else NotImplemented
        p, q, n, P, Q, N, d = t
        return _quad(p * N - P * n, q * N - Q * n, n * N, d)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        t = self._pair(other)
        if t is None:
            return float(self) * other if isinstance(other, float) \
                else NotImplemented
        p, q, n, P, Q, N, d = t
        return _quad(p * P + q * Q * d, p * Q + q * P, n * N, d)

    __rmul__ = __mul__

    def _inverse(self) -> "QuadExt":
        p, q, n = self.p, self.q, self.n
        norm = p * p - q * q * self.d
        if norm == 0:
            raise ZeroDivisionError("division by zero QuadExt")
        return _quad(n * p, -n * q, norm, self.d)

    def __truediv__(self, other):
        if isinstance(other, QuadExt):
            return self * other._inverse()
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError("division by zero QuadExt")
            N = other.denominator
            return _quad(self.p * N, self.q * N, self.n * other.numerator,
                         self.d)
        return float(self) / other if isinstance(other, float) \
            else NotImplemented

    def __rtruediv__(self, other):
        return self._inverse() * other

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = _ONE
        for _ in range(n):
            out = out * self
        return out

    # -- comparisons ------------------------------------------------------
    def _sign(self) -> int:
        return quad_sign(self.p, self.q, self.d)

    def __eq__(self, other):
        # decided on (a, b^2 d, sign b): one field's triples are unique
        if isinstance(other, QuadExt):
            if self.d == other.d:
                return (self.p == other.p and self.q == other.q
                        and self.n == other.n)
            n, N = self.n, other.n
            return (self.p * N == other.p * n and (self.q > 0) == (other.q > 0)
                    and self.q * self.q * self.d * N * N
                    == other.q * other.q * other.d * n * n)
        if isinstance(other, (int, Fraction)):
            return False                # a QuadExt is irrational
        if isinstance(other, float):
            return float(self) == other
        return NotImplemented

    def __hash__(self):
        return hash((self.a, Fraction(self.q * self.q * self.d,
                                      self.n * self.n), self.q > 0))

    def _cmp(self, other):
        """A number whose sign is that of ``self - other``."""
        if isinstance(other, float):
            return float(self) - other
        if not isinstance(other, (int, Fraction, QuadExt)):
            raise TypeError(f"cannot compare QuadExt with {type(other)}")
        return scalar_sign(self - other)

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __abs__(self):
        return -self if self._sign() < 0 else self

    def __float__(self):
        # int / int rounds as float(Fraction) does: this is float(a) +
        # float(b) * sqrt(d) bit for bit
        return self.p / self.n + self.q / self.n * math.sqrt(self.d)

    def __repr__(self):
        return f"QuadExt({self.a}, {self.b}, sqrt={self.d})"


_new_object = object.__new__
_ONE = Fraction(1)


def _quad(p: int, q: int, n: int, d: int) -> Union[Fraction, QuadExt]:
    """The private constructor: ``(p + q*sqrt(d))/n`` over a core ``d``
    from :func:`radical_parts`, reduced to lowest terms with
    ``n > 0`` (``n`` nonzero); ``Fraction(p, n)`` when ``q`` is 0."""
    if not q:
        return Fraction(p, n)
    g = math.gcd(p, q, n)
    if n < 0:
        g = -g
    x = _new_object(QuadExt)
    x.p, x.q, x.n, x.d = p // g, q // g, n // g, d
    return x


def quad_sign(p: int, q: int, d: int) -> int:
    """The sign of ``p + q*sqrt(d)`` for ints ``p`` and ``q`` and ``d >=
    0``, decided in ints."""
    sp = (p > 0) - (p < 0)
    sq = (q > 0) - (q < 0)
    if sp == sq or not sq:
        return sp
    if not sp:
        return sq
    # opposite signs: compare p^2 with q^2 d
    lhs, rhs = p * p, q * q * d
    return sp if lhs > rhs else (-sp if lhs < rhs else 0)


Scalar = Union[int, Fraction, QuadExt, float]


def is_exact(x: Scalar) -> bool:
    return isinstance(x, (int, Fraction, QuadExt))


def to_float(x: Scalar) -> float:
    return float(x)


def scalar_sign(x: Scalar) -> int:
    if isinstance(x, QuadExt):
        return x._sign()
    return -1 if x < 0 else (0 if x == 0 else 1)


def row_scale(values) -> float:
    """Largest magnitude in a row as a float; 1.0 for an all-zero row."""
    return max((abs(to_float(v)) for v in values), default=0.0) or 1.0


def near_zero(v: Scalar, eps: float, *rows) -> bool:
    """The floored zero test: ``v == 0`` for exact ``v``; for a float,
    ``|v| <= eps * max(1, S)`` with ``S`` the product of the rows'
    :func:`row_scale` (1 without rows).  A value quadratic in a row passes
    that row twice.  Scales are computed only for floats, and multiplied
    in the order given."""
    if is_exact(v):
        return v == 0
    scale = 1.0
    for row in rows:
        scale *= row_scale(row)
    return abs(to_float(v)) <= eps * max(1.0, scale)


def canonical_row(values, eps: float) -> tuple:
    """Projective representative: an exact row divided by its first nonzero
    entry (staying in its field), else floats divided by the largest
    magnitude, signed so the first entry above ``eps`` times it is positive.
    All-zero rows come back unscaled."""
    if all(is_exact(v) for v in values):
        pivot = next((v for v in values if v != 0), None)
        if pivot is None:
            return tuple(values)
        inv = 1 / lift(pivot)
        return tuple([v * inv for v in values])
    fv = [to_float(v) for v in values]
    scale = max(abs(v) for v in fv)
    if scale == 0:
        return tuple(fv)
    lead = next(v for v in fv if abs(v) > eps * scale)
    div = scale if lead > 0 else -scale
    return tuple(v / div for v in fv)


@dataclass
class Arithmetic:
    """Arithmetic context: exact or float, one radicand, demotions.

    A caller's context is configuration: the mode and an optional
    pre-chosen radicand.  Public functions that take one work in a
    :meth:`clone` (see :func:`private_context`), so the caller's context
    never picks up a radicand or a demotion from a call.  The radicand,
    ``demoted`` and ``notes`` change only through the methods below.

    A held radicand is a core: a caller's (``8``, ``1/2``) keeps its value
    and is reduced to its core once, when the context is made.
    """

    mode: str = "exact"  # "exact" | "float"
    radicand: Optional[Fraction] = None
    demoted: bool = False
    notes: list = field(default_factory=list)

    def __post_init__(self):
        d = self.radicand       # core 1 (d <= 0 or a square) holds no root
        self._core = radical_parts(d)[1].numerator if d and d > 0 else 1

    def clone(self) -> "Arithmetic":
        c = Arithmetic(self.mode)
        c.radicand, c._core = self.radicand, self._core
        return c

    @property
    def exact(self) -> bool:
        return self.mode == "exact" and not self.demoted

    def demote(self, why: str) -> None:
        if not self.demoted:
            self.demoted = True
            self.notes.append(why)

    def adopt(self, d: int) -> None:
        """Hold the radicand core ``d`` when no radicand is held yet: data
        over sqrt d asks for the roots to share it."""
        if self.radicand is None:
            self.radicand, self._core = Fraction(d), d

    def sqrt(self, x: Scalar) -> Scalar:
        """sqrt(|x|) in one pass; stays exact when one shared radicand
        suffices: ``p/n`` is a square when ``p*n`` is, over the held core
        ``d`` the root is ``sqrt(x/d) * sqrt(d)``, and with none held one
        :func:`radical_parts` gives it and its core is held."""
        if isinstance(x, float) or not self.exact:
            return math.sqrt(abs(to_float(x)))
        x = abs(x)
        if isinstance(x, QuadExt):
            self.demote(f"nested radical sqrt({x!r})")
            return math.sqrt(abs(to_float(x)))
        y, n = x.numerator * x.denominator, x.denominator
        r = math.isqrt(y)
        if r * r == y:
            return Fraction(r, n)
        if self.radicand is None:
            coeff, core = radical_parts(x)
            self.radicand, self._core = core, core.numerator
            return _quad(0, coeff.numerator, coeff.denominator, core.numerator)
        d = self._core
        r = math.isqrt(y * d)
        if r * r == y * d:
            return _quad(0, r, n * d, d)
        self.demote(f"second radicand {x} incompatible with {self.radicand}")
        return math.sqrt(to_float(x))


def private_context(ar: Optional[Arithmetic], mode: str = "exact") -> Arithmetic:
    """The context one public call works in: a clone of the caller's
    configuration, or a fresh context in ``mode`` when there is none."""
    return Arithmetic(mode) if ar is None else ar.clone()


def parse_scalar(text: str, mode: str = "exact") -> Scalar:
    """Parse 'p/q', 'a+b*sqrt(d)' and decimal forms.

    Decimals become Fractions in exact mode and floats in float mode.
    """
    s = text.strip().replace(" ", "")
    if "sqrt" in s:
        return _parse_quadext(s)
    if "/" in s:
        p, q = s.split("/", 1)
        return Fraction(int(p), int(q))
    if mode == "float":
        return float(s)
    return Fraction(s)


def _parse_quadext(s: str) -> QuadExt:
    # forms: [a+]b*sqrt(d), sqrt(d), -sqrt(d), a-b*sqrt(d)
    idx = s.find("sqrt(")
    if not s.endswith(")"):
        raise ValueError(f"bad scalar: {s}")
    d = Fraction(s[idx + 5:-1]) if "/" not in s[idx + 5:-1] else _frac(s[idx + 5:-1])
    head = s[:idx]
    if head.endswith("*"):
        head = head[:-1]
    # split head into a-part and b-part at the last +/- not at position 0
    a, b = Fraction(0), Fraction(1)
    if head in ("", "+"):
        pass
    elif head == "-":
        b = Fraction(-1)
    else:
        cut = max(head.rfind("+", 1), head.rfind("-", 1))
        if cut == -1:
            b = _frac(head)
        else:
            a = _frac(head[:cut])
            btxt = head[cut:]
            b = _frac(btxt) if btxt not in ("+", "-") else Fraction(f"{btxt}1")
    return QuadExt(a, b, d)


def _frac(s: str) -> Fraction:
    if "/" in s:
        p, q = s.split("/", 1)
        return Fraction(int(p), int(q))
    return Fraction(s)


def format_scalar(x: Scalar) -> str:
    if isinstance(x, QuadExt):
        if x.a == 0:
            return f"{x.b}*sqrt({x.d})"
        op = "+" if x.b > 0 else "-"
        return f"{x.a}{op}{abs(x.b)}*sqrt({x.d})"
    if isinstance(x, (int, Fraction)):
        return str(x)
    return repr(x)
