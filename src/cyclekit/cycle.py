"""Cycles in projective coordinates and their invariant pairing.

A cycle is the solution set of  k x.conj x - l.conj x - x l.conj + m = 0,
stored as the coefficient row (k, l_1..l_n, m) up to a common factor.  The
same row is the 2x2 matrix [[l, m], [k, l.conj]] over a Clifford algebra,
and Moebius maps act on it by M C M*.

Two signatures matter and they need not agree: the point metric fixes which
curve the row draws (circle, parabola, equilateral hyperbola in 2D), while
the product metric fixes the invariant pairing used by every relation.
Both are kept as tuples of generator squares, -1/0/+1 per axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .clifford import Mat2, Mv, Signature
from .numerics import (Arithmetic, QuadExt, Scalar, _quad, canonical_row,
                       format_scalar, is_exact, lift, parse_scalar,
                       private_context, row_scale, to_float)

Eta = Tuple[int, ...]


def row_product(metric: Metric, x: Sequence[Scalar],
                y: Sequence[Scalar]) -> Scalar:
    """The cycle pairing on raw coefficient rows (k, l.., m)."""
    fx = integer_form(x)
    fy = fx if y is x else fx and integer_form(y)
    return _pairing(metric, fx, fy, x[0], x[1:-1], x[-1],
                    y[0], y[1:-1], y[-1])


_RATIONAL = {int, Fraction}
_EXACT = {int, Fraction, QuadExt}


def integer_form(row: Sequence[Scalar]):
    """An exact row over at most one radicand as ints ``(P, Q, d, num,
    den, kind)``: entry i is ``num/den * (P_i + Q_i sqrt(d))`` with ``den >
    0``, ``d`` the radicand's core (0 for a rational row) and ``Q`` ``()``
    when no entry has a radical part; ``kind`` is the row's widest entry
    type, int, Fraction or QuadExt.  A rational row's ``P`` is primitive
    (gcd 1, first nonzero entry positive), its projective representative; a
    Q(sqrt d) row is only cleared of denominators (``num`` 1).  ``()`` for
    a zero row, a row with a float, or one whose QuadExt entries are over
    two radicands."""
    kinds = set(map(type, row))
    if not kinds <= _RATIONAL:
        return _radical_form(row) if kinds <= _EXACT else ()
    if Fraction in kinds:
        den = math.lcm(*[v.denominator for v in row])
        nums = [v.numerator * (den // v.denominator) for v in row]
        kind = Fraction
    else:
        den, nums, kind = 1, row, int
    g = math.gcd(*nums)
    if not g:
        return ()
    for v in nums:
        if v:
            if v < 0:
                g = -g
            break
    return (tuple(nums) if g == 1 else tuple([v // g for v in nums]), (), 0,
            g, den, kind)


def _radical_form(row):
    """:func:`integer_form` of an exact row with a QuadExt entry."""
    P, Q, dens = [], [], []
    d = 0
    for v in row:
        if type(v) is QuadExt:
            if v.d != d:
                if d:
                    return ()       # entries over two radicands
                d = v.d
            P.append(v.p)
            Q.append(v.q)
            dens.append(v.n)
        else:
            P.append(v.numerator)
            Q.append(0)
            dens.append(v.denominator)
    den = math.lcm(*dens)
    if den != 1:
        P = [p * (den // n) for p, n in zip(P, dens)]
        Q = [q * (den // n) for q, n in zip(Q, dens)]
    return P, Q, d, 1, den, QuadExt


def integer_pairing(w: Sequence[int], a: Sequence[int],
                    b: Sequence[int]) -> int:
    """m k' + m' k + sum w_i l_i l'_i on two int rows (k, l.., m), with
    weights w_i = 2 eta_i for the l_i the rows hold (a null axis has weight
    0, or its column left out): the one pairing sum over ints."""
    acc = a[-1] * b[0] + b[-1] * a[0]
    i = 1
    for wi in w:
        acc += wi * a[i] * b[i]
        i += 1
    return acc


def form_pairing(w: Sequence[int], fx, fy):
    """The pairing of two :func:`integer_form` rows without their scales,
    as ints ``(R, S)``: <x, y> is ``num num'/(den den') * (R + S sqrt(d))``
    over the one radicand ``d`` of the two, and zero exactly when R and S
    are.  None when the forms are over two radicands."""
    P, Q, d, _, _, _ = fx
    P2, Q2, d2, _, _, _ = fy
    if d != d2 and d and d2:
        return None
    R = integer_pairing(w, P, P2)
    if not (Q or Q2):
        return R, 0
    S = 0
    if Q:
        S = integer_pairing(w, Q, P2)
        if Q2:
            R += d * integer_pairing(w, Q, Q2)
    if Q2:
        S += integer_pairing(w, P, Q2)
    return R, S


_ZERO = Fraction(0)


def _pairing(metric: Metric, fx, fy, xk, xl, xm, yk, yl, ym) -> Scalar:
    """The pairing of two rows (k, l, m) from their integer forms ``fx``
    and ``fy``, summed in ints and typed as the sum over the entries
    (:func:`_sum_pair`) would be: a value of Q(sqrt d), a QuadExt or a
    Fraction, when an entry the pairing reads is a QuadExt, else a Fraction
    when one is a Fraction, else an int.  Two rational rows take one
    :func:`integer_pairing`; a row with no form, or forms over two
    radicands, sum as they are."""
    if not fy:
        return _sum_pair(metric.product_eta, xk, xl, xm, yk, yl, ym)
    P, _, d, s, t, kind = fx
    P2, _, d2, s2, t2, kind2 = fy
    if not (d or d2):
        num, rad = integer_pairing(metric.weights, P, P2) * s * s2, 0
        if kind is int and kind2 is int:
            return num
    else:
        parts = form_pairing(metric.weights, fx, fy)
        if parts is None:
            return _sum_pair(metric.product_eta, xk, xl, xm, yk, yl, ym)
        num, rad = parts[0] * s * s2, parts[1] * s * s2
    eta = metric.product_eta
    kinds = kind, kind2
    if 0 in eta:            # the entries the pairing reads fix the type
        kinds = {type(v) for l in (xl, yl) for v, e in zip(l, eta) if e}
        kinds.update(map(type, (xk, xm, yk, ym)))
    if QuadExt in kinds:
        return _quad(num, rad, t * t2, d or d2)
    if Fraction in kinds:
        return Fraction(num, t * t2) if num else _ZERO
    return num // (t * t2)


def _sum_pair(eta: Eta, xk, xl, xm, yk, yl, ym) -> Scalar:
    """The pairing summed over the entries (k, l, m) as they are."""
    acc = xm * yk + ym * xk
    for e, a, b in zip(eta, xl, yl):
        if e:
            acc = acc + 2 * e * a * b
    return acc


def signature_from_eta(eta: Eta) -> Signature:
    """Clifford signature whose generator squares read off as eta, in order."""
    p = sum(1 for s in eta if s == -1)
    q = sum(1 for s in eta if s == 1)
    r = sum(1 for s in eta if s == 0)
    sig = Signature(p, q, r)
    if sig.squares() != tuple(eta):
        raise ValueError(f"eta {eta} is not ordered as (-1.., +1.., 0..)")
    return sig


_NAMED = {"e": -1, "p": 0, "h": 1}


@dataclass(frozen=True)
class Metric:
    point_eta: Eta
    product_eta: Eta
    # 2 eta_i per axis of the product metric: integer_pairing's weights
    weights: Tuple[int, ...] = field(init=False, repr=False, compare=False)
    n: int = field(init=False, repr=False, compare=False)   # the dimension

    def __post_init__(self):
        if len(self.point_eta) != len(self.product_eta):
            raise ValueError("point and product metrics must share the dimension")
        signature_from_eta(self.product_eta)  # validates ordering
        object.__setattr__(self, "weights",
                           tuple(2 * e for e in self.product_eta))
        object.__setattr__(self, "n", len(self.product_eta))

    @staticmethod
    def named(name: str) -> "Metric":
        """2D planes: 'e'/'p'/'h' with matching point and product metrics."""
        if name not in _NAMED:
            raise ValueError(f"unknown metric name {name!r}")
        eta = (-1, _NAMED[name])
        return Metric(eta, eta)

    @staticmethod
    def from_signature(p: int, q: int = 0, r: int = 0) -> "Metric":
        eta = Signature(p, q, r).squares()
        return Metric(eta, eta)

    @property
    def tau(self) -> int:
        """2D point-space flavour: -1 elliptic, 0 parabolic, +1 hyperbolic."""
        if self.n != 2:
            raise ValueError("tau is a 2D notion")
        return self.point_eta[1]

    @property
    def sigma(self) -> int:
        """2D product-space flavour."""
        if self.n != 2:
            raise ValueError("sigma is a 2D notion")
        return self.product_eta[1]

    def product_signature(self) -> Signature:
        return signature_from_eta(self.product_eta)

    def label(self) -> str:
        for name, s in _NAMED.items():
            if self.point_eta == self.product_eta == (-1, s):
                return name
        sig = self.product_signature()
        body = f"{sig.p},{sig.q},{sig.r}"
        if self.point_eta != self.product_eta:
            body += "|point=" + ",".join(str(s) for s in self.point_eta)
        return body


def parse_metric(text: str) -> Metric:
    text = text.strip()
    if text in _NAMED:
        return Metric.named(text)
    parts = [p.strip() for p in text.split(",")]
    if len(parts) == 3 and all(p.lstrip("-").isdigit() for p in parts):
        return Metric.from_signature(*(int(p) for p in parts))
    raise ValueError(f"cannot parse metric {text!r}")


class Cycle:
    """One coefficient row (k, l_1..l_n, m) over a fixed metric; never
    changed after construction.

    An exact row over at most one radicand also has one integer form,
    cached on first use (:func:`integer_form`): int rows ``P`` and ``Q``
    and a scale, with every entry ``(P_i + Q_i sqrt d)`` times the scale.
    The pairing sums in ints on it (:func:`form_pairing`); the parts of
    the self pairing are cached too (:meth:`self_pairing`).  A rational
    row's ``P`` is primitive (gcd 1, first nonzero entry positive), and two
    rational rows are projectively equal exactly when their ``P`` are, so
    it is the one representative of a rational cycle: :meth:`canonical`
    builds its row from it and keeps it, :meth:`key` is it (also for a
    ``QuadExt`` row whose canonical row is rational), and the exact rows of
    orthogonality relations read it.
    """

    __slots__ = ("metric", "k", "l", "m", "_form", "_self_parts")

    def __init__(self, metric: Metric, k: Scalar, l: Sequence[Scalar], m: Scalar):
        lt = tuple(l)
        if len(lt) != metric.n:
            raise ValueError(f"expected {metric.n} direction components, got {len(lt)}")
        self.metric = metric
        self.k = k
        self.l = lt
        self.m = m
        self._form = None
        self._self_parts = None

    # -- constructors -------------------------------------------------------
    @staticmethod
    def from_row(metric: Metric, row: Sequence[Scalar],
                 form=None) -> "Cycle":
        """The cycle of ``row``; ``form`` is the row's :func:`integer_form`
        when the caller has made it."""
        row = list(row)
        if len(row) != metric.n + 2:
            raise ValueError(f"row of length {metric.n + 2} expected")
        c = Cycle(metric, row[0], row[1:-1], row[-1])
        c._form = form
        return c

    @staticmethod
    def from_primitive(metric: Metric, prim: Tuple[int, ...]) -> "Cycle":
        """The cycle of a primitive int row ``prim`` (gcd 1, first nonzero
        entry positive), its entries the ints, ``prim`` its integer form."""
        c = Cycle(metric, prim[0], prim[1:-1], prim[-1])
        c._form = prim, (), 0, 1, 1, int
        return c

    @staticmethod
    def zero_radius_at(metric: Metric, point: Sequence[Scalar]) -> "Cycle":
        """The point as a cycle: k=1, l_i = -eta_i x_i, m = sum -eta_i x_i^2.

        Uses the product metric, so the self-pairing is identically zero and
        pairing against any cycle is the incidence test.
        """
        pt = tuple(point)
        if len(pt) != metric.n:
            raise ValueError("point dimension mismatch")
        eta = metric.product_eta
        l = tuple(-eta[i] * pt[i] for i in range(metric.n))
        m = sum((-eta[i]) * pt[i] * pt[i] for i in range(metric.n))
        return Cycle(metric, 1, l, m)

    @staticmethod
    def real_line(metric: Metric) -> "Cycle":
        """The boundary hyperplane x_n = 0."""
        l = tuple(0 for _ in range(metric.n - 1)) + (1,)
        return Cycle(metric, 0, l, 0)

    @staticmethod
    def infinity(metric: Metric) -> "Cycle":
        """The zero-radius cycle at infinity; pairing with it reads off k."""
        return Cycle(metric, 0, tuple(0 for _ in range(metric.n)), 1)

    @staticmethod
    def circle(metric: Metric, center: Sequence[Scalar], radius_sq: Scalar) -> "Cycle":
        """k=1 cycle with a given point-metric center and squared radius."""
        c = tuple(center)
        etap = metric.point_eta
        if any(s == 0 for s in etap):
            raise ValueError("center/radius need a non-degenerate point metric")
        l = tuple(-etap[i] * c[i] for i in range(metric.n))
        m = sum((-etap[i]) * c[i] * c[i] for i in range(metric.n)) - radius_sq
        return Cycle(metric, 1, l, m)

    # -- row access -----------------------------------------------------------
    def row(self) -> Tuple[Scalar, ...]:
        return (self.k,) + self.l + (self.m,)

    def scaled(self, factor: Scalar) -> "Cycle":
        return Cycle(self.metric, self.k * factor,
                     tuple(c * factor for c in self.l), self.m * factor)

    def mirror(self) -> "Cycle":
        """Reflection in the boundary hyperplane: flips the last direction."""
        l = self.l[:-1] + (-self.l[-1],)
        return Cycle(self.metric, self.k, l, self.m)

    def map_coeffs(self, f) -> "Cycle":
        return Cycle(self.metric, f(self.k), tuple(f(c) for c in self.l), f(self.m))

    def as_float(self) -> "Cycle":
        return self.map_coeffs(to_float)

    # -- invariant pairing ------------------------------------------------------
    def product(self, other: "Cycle") -> Scalar:
        """<C, C'> = m k' + m' k + 2 sum eta_i l_i l'_i (product metric)."""
        eta = self.metric.product_eta
        if other.metric.product_eta != eta:
            raise ValueError("product metric mismatch")
        fx = self.integer_form()
        fy = fx and other.integer_form()
        return _pairing(self.metric, fx, fy, self.k, self.l, self.m,
                        other.k, other.l, other.m)

    def integer_form(self):
        """:func:`integer_form` of the row, computed on first use."""
        if self._form is None:
            self._form = integer_form(self.row())
        return self._form

    def self_product(self) -> Scalar:
        return self.product(self)

    def self_pairing(self) -> Tuple[int, int]:
        """:func:`form_pairing` of the integer form with itself, ``(R,
        S)``: <C,C> is ``(num/den)**2 (R + S sqrt d)``; computed on first
        use.  Only for a cycle with a form."""
        if self._self_parts is None:
            form = self.integer_form()
            self._self_parts = form_pairing(self.metric.weights, form, form)
        return self._self_parts

    def det(self) -> Scalar:
        """det [[l, m], [k, l.conj]] = -<C,C>/2; k^2 rho^2 for real circles."""
        eta = self.metric.product_eta
        acc = -(self.k * self.m)
        for i in range(self.metric.n):
            acc = acc + (-eta[i]) * self.l[i] * self.l[i]
        return acc

    def trace_product(self, other: "Cycle") -> Scalar:
        """Scalar part of tr(C C'); the matrix-side view of product()."""
        prod = self.matrix() * other.matrix()
        return (prod.a + prod.d).scalar_part()

    def normalized_product(self, other: "Cycle", ar: Optional[Arithmetic] = None):
        """<C,C'> / sqrt|<C,C>| sqrt|<C',C'>|; classical inversive distance
        for pairs of real circles."""
        num = self.product(other)
        s1, s2 = self.self_product(), other.self_product()
        if s1 == 0 or s2 == 0:
            raise ZeroDivisionError("normalized product undefined for point cycles")
        ar = private_context(ar, "float")
        root = ar.sqrt(s1 * s2)  # sqrt|s1| sqrt|s2| in one radical
        if not is_exact(root) and is_exact(num):
            num = to_float(num)
        return num / root

    # -- drawn geometry (point metric) -----------------------------------------
    def is_flat(self) -> bool:
        return self.k == 0

    def is_zero_radius(self, eps: float = 0.0) -> bool:
        d = self.det()
        if is_exact(d):
            return d == 0
        scale = row_scale(self.row())
        return abs(d) <= eps * scale * scale

    def center(self) -> Tuple[Scalar, ...]:
        """Point-metric center -eta^p_i l_i / k; what the drawing shows.
        A rational row with its form cached gives -eta^p_i P_i / P_0."""
        if self.k == 0:
            raise ZeroDivisionError("flat cycles have no center")
        etap, form = self.metric.point_eta, self._form
        if form and not form[2]:
            return tuple([Fraction(-e * p, form[0][0])
                          for e, p in zip(etap, form[0][1:-1])])
        return tuple(lift((-etap[i]) * self.l[i]) / self.k for i in range(self.metric.n))

    def radius_sq(self) -> Scalar:
        """(sum -eta^p_i l_i^2 - k m) / k^2 in the point metric."""
        if self.k == 0:
            raise ZeroDivisionError("flat cycles have no radius")
        etap = self.metric.point_eta
        acc = -(self.k * self.m)
        for i in range(self.metric.n):
            acc = acc + (-etap[i]) * self.l[i] * self.l[i]
        return lift(acc) / (self.k * self.k)

    def value_at(self, point: Sequence[Scalar]) -> Scalar:
        """The defining polynomial k sum(-eta^p_i x_i^2) - 2 sum l_i x_i + m."""
        pt = tuple(point)
        etap = self.metric.point_eta
        acc = self.m
        for i in range(self.metric.n):
            acc = acc + self.k * (-etap[i]) * pt[i] * pt[i] - 2 * self.l[i] * pt[i]
        return acc

    def passes_through(self, point: Sequence[Scalar], eps: float = 0.0) -> bool:
        v = self.value_at(point)
        if is_exact(v):
            return v == 0
        return abs(v) <= eps * row_scale(self.row())

    # -- matrix form and Moebius action ------------------------------------------
    def matrix(self) -> Mat2:
        sig = self.metric.product_signature()
        lv = Mv.vector(sig, self.l)
        return Mat2(sig, lv, self.m, self.k, lv.conj())

    def flt(self, M: Mat2) -> "Cycle":
        """Image under x -> (ax+b)(cx+d)^{-1}, i.e. the row of M C M*.

        Star is an anti-automorphism, (AB)* = B* A*, with M** = M, and a
        cycle matrix is its own star, so the image X = M C M* is too: X's d
        is conj(a) and its b and c are fixed by conjugation, which keeps
        grades 0, 3, 4, ...  So b and c can leave the scalars only when n
        >= 3, a can leave the vectors, and nothing else can go wrong.
        Exact images must be exactly in grade; a float image may carry
        residue up to 1e-9 times the larger of 1 and its largest
        coefficient."""
        sig = self.metric.product_signature()
        if M.sig != sig:
            raise ValueError("map acts on a different product signature")
        out = M * self.matrix() * M.star()
        coeffs = [c for part in (out.a, out.b, out.c, out.d)
                  for c in part.terms.values()]
        tol = (None if all(map(is_exact, coeffs))
               else 1e-9 * max(1.0, row_scale(coeffs)))

        def off_grade(mv: Mv, k: int) -> bool:
            return any(tol is None or abs(to_float(c)) > tol
                       for blade, c in mv.terms.items() if len(blade) != k)

        if off_grade(out.c, 0) or off_grade(out.b, 0):
            raise ValueError("image is not a cycle matrix")
        if off_grade(out.a, 1):
            raise ValueError("image direction is not a vector")
        return Cycle(self.metric, out.c.scalar_part(),
                     out.a.grade(1).vector_components(), out.b.scalar_part())

    # -- canonical representative ---------------------------------------------
    def canonical(self) -> "Cycle":
        """Scale so the first significant coefficient is 1; exact rows stay
        in their field, float rows are normalized against the largest entry
        (:func:`canonical_row`).  An exact row is read off its integer form.
        A rational row's canonical cycle is its primitive int row over its
        lead, one Fraction per entry, and keeps that row as its form.  A
        Q(sqrt d) row's entry j is ``(P_j + Q_j sqrt d)(P_0 - Q_0 sqrt d) /
        (P_0^2 - d Q_0^2)``, ``(P_0, Q_0)`` its first nonzero entry: the
        values and types :func:`canonical_row` gives.  Its canonical cycle
        keeps its own form, over ``P_0^2 - d Q_0^2``, when an entry has a
        radical part.
        An exact row led by 1, every entry a Fraction or a ``QuadExt``, is
        canonical already."""
        form = self._form
        if not (form and form[5] is int):
            if _is_canonical(self.row()):
                return self
            form = self.integer_form()
        if not form:
            row = canonical_row(self.row(), 1e-12)
            return Cycle(self.metric, row[0], row[1:-1], row[-1])
        if form[2]:
            P, Q, d = form[:3]
            p0, q0 = next((p, q) for p, q in zip(P, Q) if p or q)
            norm = p0 * p0 - d * q0 * q0
            xs = [p * p0 - d * q * q0 for p, q in zip(P, Q)]
            ys = [q * p0 - p * q0 for p, q in zip(P, Q)]
            row = [_quad(x, y, norm, d) for x, y in zip(xs, ys)]
            c = Cycle(self.metric, row[0], row[1:-1], row[-1])
            if any(ys):
                g = math.gcd(norm, *xs, *ys) * (1 if norm > 0 else -1)
                c._form = (tuple([x // g for x in xs]),
                           tuple([y // g for y in ys]), d, 1, norm // g,
                           QuadExt)
            return c
        prim = form[0]
        lead = next(filter(None, prim))
        row = [Fraction(v, lead) if v else _ZERO for v in prim]
        c = Cycle(self.metric, row[0], row[1:-1], row[-1])
        c._form = prim, (), 0, 1, lead, Fraction
        return c

    def key(self, digits: int = 9):
        """Hashable projective key for dedup: the primitive int row of a
        cycle whose canonical row is rational (a ``QuadExt`` row that is a
        multiple of a rational row included), else the canonical row with
        float entries rounded to ``digits``."""
        form = self.integer_form()
        if form and not form[2]:
            return form[0]
        can = self.canonical()
        form = can.integer_form()
        if form and not form[2]:
            return form[0]
        out = []
        for c in can.row():
            if is_exact(c):
                out.append(c)
            else:
                v = round(c, digits)
                out.append(0.0 if v == 0 else v)  # kill -0.0
        return tuple(out)

    # -- serialization -----------------------------------------------------------
    def to_obj(self) -> dict:
        enc = encode_scalar
        return {"k": enc(self.k), "l": [enc(c) for c in self.l], "m": enc(self.m)}

    @staticmethod
    def from_obj(metric: Metric, obj: dict) -> "Cycle":
        dec = decode_scalar
        return Cycle(metric, dec(obj["k"]), [dec(c) for c in obj["l"]], dec(obj["m"]))

    # -- misc ---------------------------------------------------------------------
    def __eq__(self, other):
        return (isinstance(other, Cycle) and self.metric == other.metric
                and self.row() == other.row())

    def __hash__(self):
        return hash((self.metric, self.row()))

    def same_cycle(self, other: "Cycle", digits: int = 9) -> bool:
        """Projective equality up to scale (and rounding for float rows)."""
        return self.metric == other.metric and self.key(digits) == other.key(digits)

    def __repr__(self):
        parts = ", ".join(format_scalar(c) for c in self.row())
        return f"Cycle[{self.metric.label()}]({parts})"


def _is_canonical(row) -> bool:
    """Is ``row`` exact and its own :func:`canonical_row`?"""
    return (next((v for v in row if v), None) == 1
            and all(type(v) is Fraction or type(v) is QuadExt for v in row))


def encode_scalar(c):
    """JSON form of a scalar: exact values as strings, floats as numbers."""
    return format_scalar(c) if is_exact(c) else float(c)


def decode_scalar(c):
    """Inverse of :func:`encode_scalar`."""
    return parse_scalar(c, "exact") if isinstance(c, str) else c
