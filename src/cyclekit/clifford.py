"""Small Clifford algebras Cl(p,q,r) and 2x2 matrices over them.

Generators anticommute; e_i^2 is -1 for the first p generators, +1 for the
next q, 0 for the last r.  Multivectors are sparse maps from strictly
increasing index tuples (1-based) to scalar coefficients; zero coefficients
are never stored.  Dimension is capped at p+q+r <= 8, which keeps the dense
blade bookkeeping trivially fast.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, Tuple, Union

from .numerics import Scalar, lift

Blade = Tuple[int, ...]

MAX_DIM = 8


@dataclass(frozen=True)
class Signature:
    p: int = 0
    q: int = 0
    r: int = 0

    def __post_init__(self):
        if min(self.p, self.q, self.r) < 0 or self.n > MAX_DIM:
            raise ValueError(f"bad signature {(self.p, self.q, self.r)}")

    @property
    def n(self) -> int:
        return self.p + self.q + self.r

    def square(self, i: int) -> int:
        """e_i * e_i for 1-based generator index."""
        if not 1 <= i <= self.n:
            raise ValueError(f"generator e_{i} out of range")
        if i <= self.p:
            return -1
        if i <= self.p + self.q:
            return 1
        return 0

    def squares(self) -> Tuple[int, ...]:
        return tuple(self.square(i) for i in range(1, self.n + 1))


def euclidean(n: int) -> Signature:
    """The Cl(n,0,0) model of R^n used for conformal geometry here."""
    return Signature(n, 0, 0)


def _mul_blades(sig: Signature, left: Blade, right: Blade):
    """Product of two basis blades: canonical blade and the sign/square factor."""
    coef = 1
    out = list(left)
    for g in right:
        k = len(out)
        while k > 0 and out[k - 1] > g:
            k -= 1
            coef = -coef
        if k > 0 and out[k - 1] == g:
            coef *= sig.square(g)
            out.pop(k - 1)
            if coef == 0:
                return (), 0
        else:
            out.insert(k, g)
    return tuple(out), coef


class Mv:
    """Sparse multivector over a fixed signature."""

    __slots__ = ("sig", "terms")

    def __init__(self, sig: Signature, terms: Dict[Blade, Scalar] = None):
        self.sig = sig
        self.terms = {}
        for blade, c in (terms or {}).items():
            if c != 0:
                self.terms[blade] = c

    # -- constructors -----------------------------------------------------
    @staticmethod
    def scalar(sig: Signature, value) -> "Mv":
        return Mv(sig, {(): value})

    @staticmethod
    def e(sig: Signature, i: int) -> "Mv":
        sig.square(i)  # range check
        return Mv(sig, {(i,): Fraction(1)})

    @staticmethod
    def vector(sig: Signature, components: Iterable) -> "Mv":
        comps = list(components)
        if len(comps) != sig.n:
            raise ValueError(f"expected {sig.n} components, got {len(comps)}")
        return Mv(sig, {(i + 1,): c for i, c in enumerate(comps)})

    # -- views ------------------------------------------------------------
    def __getitem__(self, blade: Blade) -> Scalar:
        return self.terms.get(tuple(blade), 0)

    def scalar_part(self) -> Scalar:
        return self.terms.get((), 0)

    def grade(self, k: int) -> "Mv":
        return Mv(self.sig, {b: c for b, c in self.terms.items() if len(b) == k})

    def is_scalar(self) -> bool:
        return all(len(b) == 0 for b in self.terms)

    def is_vector(self) -> bool:
        return all(len(b) == 1 for b in self.terms)

    def vector_components(self) -> Tuple[Scalar, ...]:
        if not self.is_vector():
            raise ValueError(f"not a vector: {self}")
        return tuple(self.terms.get((i,), 0) for i in range(1, self.sig.n + 1))

    # -- ring ops ----------------------------------------------------------
    def _coerce(self, other) -> "Mv":
        if isinstance(other, Mv):
            if other.sig != self.sig:
                raise ValueError("signature mismatch")
            return other
        return Mv.scalar(self.sig, other)

    def __add__(self, other):
        o = self._coerce(other)
        terms = dict(self.terms)
        for b, c in o.terms.items():
            terms[b] = terms.get(b, 0) + c
        return Mv(self.sig, terms)

    __radd__ = __add__

    def __neg__(self):
        return Mv(self.sig, {b: -c for b, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Mv):
            return Mv(self.sig, {b: c * other for b, c in self.terms.items()})
        o = self._coerce(other)
        terms: Dict[Blade, Scalar] = {}
        for b1, c1 in self.terms.items():
            for b2, c2 in o.terms.items():
                blade, f = _mul_blades(self.sig, b1, b2)
                if f == 0:
                    continue
                terms[blade] = terms.get(blade, 0) + c1 * c2 * f
        return Mv(self.sig, terms)

    def __rmul__(self, other):
        # scalars commute with everything
        return self * other

    def __truediv__(self, other):
        if isinstance(other, Mv):
            return self * other.inverse()
        other = lift(other)  # keep int/int exact
        return Mv(self.sig, {b: c / other for b, c in self.terms.items()})

    # -- involutions --------------------------------------------------------
    def reverse(self) -> "Mv":
        """x* : reverses the order of generators; identity on vectors."""
        return Mv(self.sig, {b: c if len(b) * (len(b) - 1) // 2 % 2 == 0 else -c
                             for b, c in self.terms.items()})

    def conj(self) -> "Mv":
        """Clifford conjugation x-bar: negates vectors, (ab)-bar = b-bar a-bar."""
        return Mv(self.sig, {b: c if len(b) * (len(b) + 1) // 2 % 2 == 0 else -c
                             for b, c in self.terms.items()})

    def modulus_sq(self) -> Scalar:
        """|x|^2 = x x-bar; scalar for products of vectors, which is asserted."""
        prod = self * self.conj()
        rest = prod - Mv.scalar(self.sig, prod.scalar_part())
        if rest.terms:
            raise ValueError(f"modulus_sq not scalar for {self}")
        return prod.scalar_part()

    def inverse(self) -> "Mv":
        m = self.modulus_sq()
        if m == 0:
            raise ZeroDivisionError(f"non-invertible: {self}")
        return self.conj() / m

    # -- misc ----------------------------------------------------------------
    def __eq__(self, other):
        if isinstance(other, Mv):
            return self.sig == other.sig and self.terms == other.terms
        if isinstance(other, (int, Fraction, float)):
            return self.is_scalar() and self.scalar_part() == other
        return NotImplemented

    def __hash__(self):
        return hash((self.sig, tuple(sorted(self.terms.items()))))

    def __bool__(self):
        return bool(self.terms)

    def map(self, f) -> "Mv":
        return Mv(self.sig, {b: f(c) for b, c in self.terms.items()})

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for blade in sorted(self.terms, key=lambda b: (len(b), b)):
            c = self.terms[blade]
            name = "".join(f"e{i}" for i in blade) or "1"
            bits.append(f"{c}*{name}" if blade else f"{c}")
        return " + ".join(bits)


class Infinity:
    """The point at infinity of the conformal compactification."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "oo"


INFINITY = Infinity()

Point = Union[Mv, Infinity]


class Mat2:
    """2x2 matrix with multivector entries; the Moebius machine."""

    __slots__ = ("a", "b", "c", "d", "sig")

    def __init__(self, sig: Signature, a, b, c, d):
        lift = lambda x: x if isinstance(x, Mv) else Mv.scalar(sig, x)
        self.sig = sig
        self.a, self.b, self.c, self.d = lift(a), lift(b), lift(c), lift(d)

    def __mul__(self, other: "Mat2") -> "Mat2":
        return Mat2(self.sig,
                    self.a * other.a + self.b * other.c,
                    self.a * other.b + self.b * other.d,
                    self.c * other.a + self.d * other.c,
                    self.c * other.b + self.d * other.d)

    def bar(self) -> "Mat2":
        """[[d*, -b*], [-c*, a*]]; M M-bar = pseudodet * I."""
        return Mat2(self.sig, self.d.reverse(), -self.b.reverse(),
                    -self.c.reverse(), self.a.reverse())

    def star(self) -> "Mat2":
        """[[d-bar, b-bar], [c-bar, a-bar]]; cycles transform as M C M*."""
        return Mat2(self.sig, self.d.conj(), self.b.conj(),
                    self.c.conj(), self.a.conj())

    def pseudodet(self) -> Scalar:
        delta = self.a * self.d.reverse() - self.b * self.c.reverse()
        if not delta.is_scalar():
            raise ValueError(f"pseudodeterminant is not scalar: {delta}")
        return delta.scalar_part()

    def entry_conditions_ok(self) -> bool:
        """The checkable part of the Ahlfors conditions on raw entries."""
        pairs = (self.a * self.b.reverse(), self.c * self.d.reverse(),
                 self.c.reverse() * self.a, self.d.reverse() * self.b)
        if not all((not p) or p.is_vector() for p in pairs):
            return False
        delta = self.a * self.d.reverse() - self.b * self.c.reverse()
        return delta.is_scalar() and delta.scalar_part() != 0

    def __eq__(self, other):
        return (isinstance(other, Mat2) and self.a == other.a and self.b == other.b
                and self.c == other.c and self.d == other.d)

    def __repr__(self):
        return f"[[{self.a}, {self.b}], [{self.c}, {self.d}]]"


def identity_map(sig: Signature) -> Mat2:
    return Mat2(sig, 1, 0, 0, 1)


def translation(b: Mv) -> Mat2:
    if not b.is_vector() and bool(b):
        raise ValueError("translation needs a vector")
    return Mat2(b.sig, 1, b, 0, 1)


def dilation(sig: Signature, lam) -> Mat2:
    if lam == 0:
        raise ValueError("dilation factor must be nonzero")
    return Mat2(sig, lam, 0, 0, 1)


def inversion(sig: Signature) -> Mat2:
    """x -> x^{-1}; in Cl(n,0,0) this is the conformal inversion composed
    with the antipodal flip (x^{-1} = -x/|x|^2)."""
    return Mat2(sig, 0, 1, 1, 0)


def reflection(u: Mv) -> Mat2:
    """x -> u x u^{-1} scaled: the sphere/plane reflection generator."""
    if not u.is_vector() or u.modulus_sq() == 0:
        raise ValueError("reflection needs a non-null vector")
    return Mat2(u.sig, u, 0, 0, u)


def mobius_apply(M: Mat2, x: Point) -> Point:
    """(a x + b)(c x + d)^{-1} on R^n plus infinity."""
    if isinstance(x, Infinity):
        num, den = M.a, M.c
    else:
        num, den = M.a * x + M.b, M.c * x + M.d
    if not den or den.modulus_sq() == 0:
        return INFINITY
    out = num * den.inverse()
    if out and not out.is_vector():
        # products of vectors keep grade parity; anything else is a bug upstream
        raise ValueError(f"moebius image is not a point: {out}")
    return out
