"""Real Moebius maps on the projective line and their half-plane extensions.

An interval [x, y] is stored as the trace-free matrix that fixes both
endpoints and swaps the interval with its complement.  Generic 2x2 forms
carry four coefficients (n, l, k, m); the tau-pairing (tau in {-1, 0, +1})
is the invariant product that singles out circles, parabolas or equilateral
hyperbolas as the "distance" carriers of the extended plane.

A point of the extended half-plane is a tau-isotropic form.  It can be
reached two ways: by intersecting the conics attached to two boundary
intervals, or from three intervals via the one-parameter subgroup their
endpoint map generates.  Both routes are implemented and agree on the
elliptic slice.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .numerics import (Arithmetic, QuadExt, Scalar, canonical_row,
                       comparison_eps, is_exact, lift, near_zero,
                       private_context, row_scale, scalar_sign, to_float)
from .relations import _binary_quadratic, linear_solve

Mat = Tuple[Tuple[Scalar, Scalar], Tuple[Scalar, Scalar]]
Endpoint = Optional[Scalar]  # None is the point at infinity
Proj = Tuple[Scalar, Scalar]


class NotAligned(ValueError):
    """Endpoint triples of the three intervals disagree in orientation."""


class InvalidOrdering(ValueError):
    """Endpoints violate the ordering the formula assumes."""


class NoRealPoint(ValueError):
    """The radicand is negative: the conics do not meet in real points."""


# ---------------------------------------------------------------------------
# 2x2 matrices as nested tuples

def mat_mul(A: Mat, B: Mat) -> Mat:
    return ((A[0][0] * B[0][0] + A[0][1] * B[1][0],
             A[0][0] * B[0][1] + A[0][1] * B[1][1]),
            (A[1][0] * B[0][0] + A[1][1] * B[1][0],
             A[1][0] * B[0][1] + A[1][1] * B[1][1]))


def mat_det(A: Mat) -> Scalar:
    return A[0][0] * A[1][1] - A[0][1] * A[1][0]


def mat_adj(A: Mat) -> Mat:
    """Adjugate: the inverse up to the determinant factor."""
    return ((A[1][1], -A[0][1]), (-A[1][0], A[0][0]))


def proj(x: Endpoint) -> Proj:
    return (1, 0) if x is None else (x, 1)


def proj_value(p: Proj) -> Endpoint:
    if p[1] == 0:
        return None
    return lift(p[0]) / p[1]


def mat_on_proj(A: Mat, p: Proj) -> Proj:
    return (A[0][0] * p[0] + A[0][1] * p[1], A[1][0] * p[0] + A[1][1] * p[1])


def mat_apply(A: Mat, x: Endpoint) -> Endpoint:
    """Linear-fractional action on the real line plus infinity."""
    p = mat_on_proj(A, proj(x))
    if p == (0, 0):
        raise ZeroDivisionError("matrix annihilates the point")
    return proj_value(p)


def proportional(A: Mat, B: Mat) -> bool:
    """Projective equality: one matrix is a nonzero multiple of the other."""
    fa = [A[0][0], A[0][1], A[1][0], A[1][1]]
    fb = [B[0][0], B[0][1], B[1][0], B[1][1]]
    exact = all(is_exact(v) for v in fa + fb)
    if exact:
        return (any(fa) and any(fb)
                and all(fa[i] * fb[j] == fa[j] * fb[i]
                        for i in range(4) for j in range(i + 1, 4)))
    fa = [to_float(v) for v in fa]
    fb = [to_float(v) for v in fb]
    tol = comparison_eps()
    scale = max(row_scale(fa) * row_scale(fb), 1e-300)
    return all(abs(fa[i] * fb[j] - fa[j] * fb[i]) <= tol * scale
               for i in range(4) for j in range(i + 1, 4))


def imap(A: Mat) -> Mat:
    """Column-to-row flip intertwining left and inverse right actions."""
    (x1, y1), (x2, y2) = A
    return ((y2, -y1), (x2, -x1))


# ---------------------------------------------------------------------------
# interval matrices

def interval_matrix(x: Endpoint, y: Endpoint) -> Mat:
    """Trace-free matrix fixing [x:1] and [y:1] with eigenvalues +-(x-y)/2.

    Both endpoints may be infinite; the result is projective, normalised so
    that finite pairs give exactly [[(x+y)/2, -xy], [1, -(x+y)/2]].
    """
    p, q = proj(x)
    P, Q = proj(y)
    s = lift(p * Q + P * q) / 2
    return ((s, -lift(p) * P), (q * Q, -s))


def interval_endpoints(C: Mat, ar: Optional[Arithmetic] = None):
    """Recover (x, y) from a trace-free matrix, ascending, None = infinity."""
    (a, b), (c, d) = C
    entries = (a, b, c, d)
    if all(is_exact(v) for v in entries):
        if bool(a + d):
            raise ValueError("interval matrices are trace-free")
        w = lift(a)
    else:
        if abs(to_float(a) + to_float(d)) > 1e-9 * row_scale(entries):
            raise ValueError("interval matrices are trace-free")
        w = (to_float(a) - to_float(d)) / 2.0  # symmetrised diagonal
        b, c = to_float(b), to_float(c)
    ar = private_context(ar)
    if not bool(c):
        if not bool(w):
            return (None, None)
        return (lift(-b) / (2 * w), None)
    rad = w * w + b * c
    if scalar_sign(rad) < 0:
        raise NoRealPoint(f"imaginary endpoints, radicand {rad!r}")
    r = ar.sqrt(rad)
    lo = (w - r) / c
    hi = (w + r) / c
    return (lo, hi) if to_float(lo) <= to_float(hi) else (hi, lo)


def cycle_from_interval(x: Endpoint, y: Endpoint) -> "Form":
    """The level-zero form carried by an interval: coefficients (0, (x+y)/2,
    1, xy), read as a semicircle, parabola pair or equilateral hyperbola
    depending on tau."""
    return Form.from_matrix(interval_matrix(x, y))


def interval_flt(g: Mat, C: Mat) -> Mat:
    """Conjugated interval: endpoints move by g.  Scaled by det g."""
    return mat_mul(mat_mul(g, C), mat_adj(g))


def interval_pairing(C1: Mat, C2: Mat) -> Scalar:
    """tr(C1 C2); on intervals = (x+y)(x'+y')/2 - xy - x'y'.

    Self-pairing is (x-y)^2/2 >= 0.  This positive-diagonal convention is
    the negative of tau_pairing on the same trace-free data; orthogonal
    families agree, signs of products do not.
    """
    M = mat_mul(C1, C2)
    return M[0][0] + M[1][1]


# ---------------------------------------------------------------------------
# four-coefficient forms and the tau-pairing

class Form(NamedTuple):
    """Bilinear form [[l+n, -m], [k, -l+n]] as the vector (n, l, k, m)."""

    n: Scalar
    l: Scalar
    k: Scalar
    m: Scalar

    @classmethod
    def from_matrix(cls, M: Mat) -> "Form":
        (a, b), (c, d) = M
        return cls(lift(a + d) / 2, lift(a - d) / 2, c, -b)

    def matrix(self) -> Mat:
        return ((self.l + self.n, -self.m), (self.k, self.n - self.l))

    def tau_twist(self, tau: int) -> Mat:
        """Matrix whose plain trace pairing realises the tau product."""
        return ((self.l - tau * self.n, -self.m),
                (self.k, -self.l - tau * self.n))

    def point(self) -> Optional[Tuple[Scalar, Scalar]]:
        """(u, v) for k-normalisable forms, None on the boundary k = 0."""
        if not bool(self.k):
            return None
        k = lift(self.k)
        return (lift(self.l) / k, lift(self.n) / k)

    def canonical(self) -> "Form":
        return Form(*canonical_row(tuple(lift(v) for v in self), 1e-14))

    def key(self, digits: int = 9):
        can = self.canonical()
        return tuple(round(to_float(v), digits) + 0.0 for v in can)


def tau_pairing(Q1: Sequence[Scalar], Q2: Sequence[Scalar], tau: int) -> Scalar:
    """2 tau n n' - 2 l l' + k m' + m k': the invariant product of forms."""
    n1, l1, k1, m1 = Q1
    n2, l2, k2, m2 = Q2
    return 2 * tau * n1 * n2 - 2 * l1 * l2 + k1 * m2 + m1 * k2


def is_tau_isotropic(Q: Sequence[Scalar], tau: int) -> bool:
    return near_zero(tau_pairing(Q, Q, tau), comparison_eps(), Q, Q)


def isotropic_form_at(u: Scalar, v: Scalar, tau: int) -> Form:
    """The normalised tau-isotropic form labelled by the point (u, v)."""
    return Form(v, u, 1, u * u - tau * v * v)


def curve_value(Q: Sequence[Scalar], u: Scalar, v: Scalar, tau: int) -> Scalar:
    """k(u^2 - tau v^2) - 2lu - 2nv + m; zero iff (u, v) lies on the curve.

    Equals the e-pairing of Q with the tau-isotropic form at (u, v).
    """
    n, l, k, m = Q
    return k * (u * u - tau * v * v) - 2 * l * u - 2 * n * v + m


def curve_membership(Q: Sequence[Scalar], u: Scalar, v: Scalar,
                     tau: int) -> bool:
    val = curve_value(Q, u, v, tau)
    if is_exact(val):
        return val == 0
    reach = max(1.0, to_float(u) ** 2 + to_float(v) ** 2)
    return near_zero(val, comparison_eps(), Q, (reach,))


def real_line_form() -> Form:
    """The boundary line, scaled so its self tau-pairing equals tau."""
    return Form(QuadExt(0, Fraction(1, 2), 2), 0, 0, 0)


def inclined_interval_form(x: Scalar, y: Scalar, tau: int) -> Form:
    """The form through x and y that is e-orthogonal to the tau-point (0,1).

    Circles for tau = -1, 45-degree parabolas for tau = 0, equilateral
    hyperbolas for tau = +1; the inclination to the boundary depends only
    on the subgroup parameter t = (x-y)/(xy-tau), not on x itself.
    """
    return Form(lift(x * y - tau) / 2, lift(x + y) / 2, 1, lift(x) * y)


def angle_to_real_line(Q: Sequence[Scalar],
                       ar: Optional[Arithmetic] = None) -> Scalar:
    """Cosine of the intersection angle with the boundary: -n/sqrt|l^2+n^2-km|."""
    ar = private_context(ar)
    n, l, k, m = (lift(c) for c in Q)
    den = ar.sqrt(l * l + n * n - k * m)
    return -n / den


# ---------------------------------------------------------------------------
# the linear action on (n, l, k, m)

def rep4(g: Mat):
    """4x4 matrix of conjugation by g on (n, l, k, m), det-normalised.

    Exactly the action of the unit-determinant rescaling of g, yet rational
    whenever g is: every block entry is quadratic in the entries of g.
    """
    (a, b), (c, d) = g
    delta = lift(mat_det(g))
    if not bool(delta):
        raise ValueError("singular matrix has no projective action")
    return ((1, 0, 0, 0),
            (0, (c * b + a * d) / delta, b * d / delta, c * a / delta),
            (0, 2 * c * d / delta, d * d / delta, c * c / delta),
            (0, 2 * a * b / delta, b * b / delta, a * a / delta))


def jay(sigma: int):
    """Gram matrix of the invariant pairing on (n, l, k, m)."""
    return ((2 * sigma, 0, 0, 0), (0, -2, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0))


def sl2_act_r4(g: Mat, Q: Sequence[Scalar]) -> Form:
    """Apply rep4(g); agrees with matrix conjugation up to the determinant."""
    T = rep4(g)
    return Form(*(sum(T[i][j] * lift(Q[j]) for j in range(4))
                  for i in range(4)))


def conjugate_form(g: Mat, Q: "Form") -> Form:
    """g Q adj(g) decoded back to coefficients: det(g) times sl2_act_r4."""
    return Form.from_matrix(mat_mul(mat_mul(g, Q.matrix()), mat_adj(g)))


# ---------------------------------------------------------------------------
# one-parameter subgroups

def h_tau(tau: int, a: Scalar, b: Scalar) -> Mat:
    """[[a, tau b], [b, a]]: rotations, lower shears or boosts by tau."""
    return ((a, tau * b), (b, a))


def h_tau_parameter(x: Scalar, y: Scalar, tau: int) -> Scalar:
    """t with x -> (x + tau t)/(t x + 1) sending x to y: t = (x-y)/(xy-tau)."""
    den = x * y - tau
    if not bool(den):
        raise ValueError("xy = tau: the pair is not reached by this family")
    return (lift(x) - y) / den


def rotation(c: Scalar, s: Scalar) -> Mat:
    return ((c, -s), (s, c))


def translation_map(b: Scalar) -> Mat:
    return ((1, b), (0, 1))


def dilation_map(lam: Scalar) -> Mat:
    return ((lam, 0), (0, 1))


# ---------------------------------------------------------------------------
# orientation and constructive three-transitivity

def _diff_sign(a: Endpoint, b: Endpoint) -> int:
    # infinity counts as greater than every real number
    if a is None and b is None:
        return 0
    if a is None:
        return 1
    if b is None:
        return -1
    return scalar_sign(a - b) if is_exact(a) and is_exact(b) \
        else scalar_sign(to_float(a) - to_float(b))


def orientation(x1: Endpoint, x2: Endpoint, x3: Endpoint) -> int:
    """Sign of (x1-x2)(x2-x3)(x3-x1); +1 means positively oriented."""
    s = 1
    for a, b in ((x1, x2), (x2, x3), (x3, x1)):
        d = _diff_sign(a, b)
        if d == 0:
            return 0
        s *= d
    return s


def _reflect(x: Endpoint) -> Endpoint:
    return None if x is None else -x


def to_zero_one_inf(x1: Endpoint, x2: Endpoint, x3: Endpoint) -> Mat:
    """Rational matrix sending a positively oriented triple to (0, 1, oo).

    Built from the stabiliser chain: a rotation-type element kills x3, a
    shear moves the image of x1 to 0, a dilation lands x2 on 1.
    """
    if orientation(x1, x2, x3) <= 0:
        raise ValueError("positively oriented triple required")
    p3, q3 = proj(x3)
    g = ((p3, q3), (-q3, p3)) if bool(q3) else ((1, 0), (0, 1))
    a1, b1 = mat_on_proj(g, proj(x1))
    g = mat_mul(((1, -lift(a1) / b1), (0, 1)), g)
    a2, b2 = mat_on_proj(g, proj(x2))
    x2pp = lift(a2) / b2
    if scalar_sign(x2pp) <= 0:
        raise ValueError("orientation broke during reduction")
    return mat_mul(((1, 0), (0, x2pp)), g)


class TriplesMap(NamedTuple):
    """Moebius matrix plus whether x -> -x must be applied first."""

    matrix: Mat
    reflected: bool

    def apply(self, x: Endpoint) -> Endpoint:
        return mat_apply(self.matrix, _reflect(x) if self.reflected else x)


def moebius_from_three_pairs(X: Sequence[Endpoint],
                             Y: Sequence[Endpoint]) -> TriplesMap:
    """The unique map sending the triple X to Y, matching orientations.

    Opposite orientations cannot be joined by a fraction-linear map alone;
    then the result composes its matrix with the reflection x -> -x, and
    says so in the reflected flag.
    """
    ox, oy = orientation(*X), orientation(*Y)
    if ox == 0 or oy == 0:
        raise ValueError("triples must consist of three distinct points")
    fx, fy = ox < 0, oy < 0
    gX = to_zero_one_inf(*(map(_reflect, X) if fx else X))
    gY = to_zero_one_inf(*(map(_reflect, Y) if fy else Y))
    M = mat_mul(mat_adj(gY), gX)
    if fy:
        # undo the flip on the target side: conjugate by x -> -x
        R = ((1, 0), (0, -1))
        M = mat_mul(R, mat_mul(M, R))
    return TriplesMap(M, fx != fy)


def fixed_points(g: Mat, ar: Optional[Arithmetic] = None) -> List[Endpoint]:
    """Solutions of c s^2 + (d-a) s - b = 0, plus infinity when c = 0."""
    ar = private_context(ar)
    (a, b), (c, d) = g
    if not bool(c):
        if not bool(a - d):
            if not bool(b):
                raise ValueError("scalar matrix fixes every point")
            return [None]
        return sorted([lift(b) / (d - a)], key=to_float) + [None]
    disc = (d - a) * (d - a) + 4 * b * c
    sgn = scalar_sign(disc)
    if not is_exact(disc):  # no float scale, which could overflow
        spread = max(to_float(a - d) ** 2, abs(4.0 * to_float(b) * to_float(c)))
        if near_zero(disc, 1e-12, (spread,)):
            sgn = 0
    if sgn < 0:
        return []
    if sgn == 0:
        return [(lift(a) - d) / (2 * c)]
    r = ar.sqrt(disc)
    roots = [(lift(a) - d - r) / (2 * c), (lift(a) - d + r) / (2 * c)]
    return sorted(roots, key=to_float)


# ---------------------------------------------------------------------------
# classification of interval triples

def classify_intervals(pairs) -> Tuple[str, Scalar]:
    """Kind of the subgroup moving interval onto interval along the triple.

    The endpoint map has 0, 1 or 2 fixed points as the discriminant of its
    fixed-point quadratic is negative, zero or positive; the three 3x3
    determinants below are that quadratic's coefficients, assembled
    projectively so infinite endpoints need no special case.
    """
    if len(pairs) != 3:
        raise ValueError("exactly three intervals expected")
    X = [p[0] for p in pairs]
    Y = [p[1] for p in pairs]
    ox, oy = orientation(*X), orientation(*Y)
    if ox == 0 or oy == 0 or ox != oy:
        raise NotAligned("endpoint triples must share an orientation")
    rowsA, rowsB, rowsC = [], [], []
    for x, y in pairs:
        p, q = proj(x)
        P, Q = proj(y)
        rowsA.append((p * Q, q * Q, P * q))
        rowsB.append((q * Q, p * P, P * q - p * Q))
        rowsC.append((p * Q, -p * P, P * q))
    A, B, C = (_det3(rows) for rows in (rowsA, rowsB, rowsC))
    disc = B * B - 4 * A * C
    sgn = scalar_sign(disc)
    if not is_exact(disc):  # no float scale, which could overflow
        spread = max(to_float(B) ** 2, abs(4.0 * to_float(A) * to_float(C)))
        if near_zero(disc, 1e-9, (spread,)):
            sgn = 0
    kind = {-1: "elliptic", 0: "parabolic", 1: "hyperbolic"}[sgn]
    return kind, disc


def _det3(rows) -> Scalar:
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


# ---------------------------------------------------------------------------
# Iwasawa factorisation

def iwasawa(g: Mat) -> Tuple[Mat, Mat, Mat]:
    """g = gA gN gK: positive diagonal, upper unitriangular, rotation.

    Takes any matrix with positive determinant; it is rescaled to unit
    determinant first.  Float-valued by nature of the rotation angle.
    """
    det = to_float(mat_det(g))
    if det <= 0:
        raise ValueError("positive determinant required")
    s0 = math.sqrt(det)
    a, b = to_float(g[0][0]) / s0, to_float(g[0][1]) / s0
    c, d = to_float(g[1][0]) / s0, to_float(g[1][1]) / s0
    theta = math.atan2(c, d)
    s = 1.0 / math.hypot(c, d)
    t = (a * math.sin(theta) + b * math.cos(theta)) / s
    gA = ((s, 0.0), (0.0, 1.0 / s))
    gN = ((1.0, t), (0.0, 1.0))
    gK = ((math.cos(theta), -math.sin(theta)),
          (math.sin(theta), math.cos(theta)))
    return gA, gN, gK


# ---------------------------------------------------------------------------
# extension points from two intervals

def extension_point_ell(x: Scalar, y: Scalar, xp: Scalar, yp: Scalar,
                        ar: Optional[Arithmetic] = None):
    """Common point of the semicircles on [x, y] and [xp, yp], v > 0.

    Requires the overlapping order x < xp < y < yp; then the radicand is a
    product of four negative factors and the point is always real.
    """
    _require_order((x, xp, y, yp), "x < x' < y < y'")
    ar = private_context(ar)
    den = lift(x) + y - xp - yp  # strictly negative under the ordering
    u = (lift(x) * y - lift(xp) * yp) / den
    rad = (x - yp) * (x - xp) * (xp - y) * (y - yp)
    v = ar.sqrt(rad) / -den
    return (u, v)


def extension_point_hyp(x: Scalar, y: Scalar, xp: Scalar, yp: Scalar,
                        ar: Optional[Arithmetic] = None):
    """Common point of the equilateral hyperbolas with vertices on the two
    disjoint intervals x < y < xp < yp; v > 0."""
    _require_order((x, y, xp, yp), "x < y < x' < y'")
    ar = private_context(ar)
    den = lift(x) + y - xp - yp
    u = (lift(x) * y - lift(xp) * yp) / den
    rad = (x - yp) * (x - xp) * (xp - y) * (yp - y)
    v = ar.sqrt(rad) / -den
    return (u, v)


def extension_point_par(x: Scalar, y: Scalar, xp: Scalar, yp: Scalar,
                        ar: Optional[Arithmetic] = None):
    """Both common points of the 45-degree parabolas through the intervals.

    The parabola attached to [x, y] is v = (u-x)(u-y)/(y-x); the two
    intersection points correspond to the two signs of the inner radical
    and need not share a half-plane.
    """
    for lo, hi in ((x, y), (xp, yp)):
        if not bool(lift(hi) - lo):
            raise InvalidOrdering("intervals need distinct endpoints")
    den = lift(x) - y - xp + yp
    if not bool(den):
        raise InvalidOrdering("equal interval spreads leave no finite point")
    ar = private_context(ar)
    rad = (x - xp) * (y - yp) * (y - x) * (yp - xp)
    if scalar_sign(rad) < 0:
        raise NoRealPoint(f"parabolas miss each other, radicand {rad!r}")
    r = ar.sqrt(rad)
    pts = []
    for D in (r, -r):
        u = (lift(x) * yp - lift(y) * xp + D) / den
        v = ((xp - x) * (yp - y) * (y - x + yp - xp)
             + (lift(x) + y - xp - yp) * D) / (den * den)
        pts.append((u, v))
    return tuple(pts)


def _require_order(seq, label: str):
    for a, b in zip(seq, seq[1:]):
        if _diff_sign(lift(a), lift(b)) >= 0:
            raise InvalidOrdering(f"need {label}, got {tuple(seq)!r}")


# ---------------------------------------------------------------------------
# extension point from three intervals

def half_turn(u: Scalar, v: Scalar) -> Mat:
    """Order-two map fixing the upper half-plane point (u, v).

    Its boundary action pairs x with the far end of the semicircle through
    (u, v): handy as a generator of aligned interval triples.
    """
    return ((u, -(u * u + v * v)), (1, -u))


def extend_apply(g: Mat, u: Scalar, v: Scalar):
    """Action of g on the upper half-plane point (u, v).

    Works for either determinant sign; v stays positive because only |det|
    enters its numerator.
    """
    (a, b), (c, d) = g
    det = mat_det(g)
    if not bool(det):
        raise ValueError("singular matrix has no projective action")
    den = (c * u + d) * (c * u + d) + c * c * v * v
    if not bool(den):
        raise ZeroDivisionError("point maps to infinity")
    up = ((a * u + b) * (c * u + d) + a * c * v * v) / lift(den)
    vp = scalar_sign(det) * det * v / lift(den)
    return (up, vp)


_P_TAU = {tau: ((1, tau), (1, 1)) for tau in (-1, 0, 1)}


def extension_from_triple(pairs, ar: Optional[Arithmetic] = None):
    """(tau, Form): the isotropic form every map along the triple fixes.

    The endpoint map phi of an aligned triple generates a one-parameter
    subgroup conjugate to the tau-model [[a, tau b], [b, a]]; pulling
    the model's fixed form [[1, tau], [1, 1]] back through the conjugator
    yields the point of the extended space.  The form is returned
    canonicalised; its point() is None when the subgroup fixes infinity.
    """
    kind, _ = classify_intervals(pairs)
    ar = private_context(ar)
    X = [p[0] for p in pairs]
    Y = [p[1] for p in pairs]
    tm = moebius_from_three_pairs(X, Y)
    (a, b), (c, d) = tm.matrix
    a, b, c, d = map(lift, (a, b, c, d))
    tau = {"elliptic": -1, "parabolic": 0, "hyperbolic": 1}[kind]
    if kind == "elliptic":
        # bring phi to a rotation: basis from the complex eigenvector
        alpha = (a + d) / 2
        disc = (a + d) ** 2 - 4 * (a * d - b * c)
        beta = ar.sqrt(disc) / 2
        if scalar_sign(b) < 0:
            beta = -beta  # keeps the decoded v positive
        B = ((b, 0), (alpha - a, beta))
        F = mat_mul(mat_mul(B, _P_TAU[-1]), mat_adj(B))
    elif kind == "parabolic":
        if bool(c):
            s = (a - d) / (2 * c)
            gc = ((1, -s), (0, 1))
        else:
            gc = ((0, 1), (-1, 0))  # single fixed point at infinity
        F = mat_mul(mat_mul(mat_adj(gc), _P_TAU[0]), gc)
    else:
        pts = fixed_points(tm.matrix, ar)
        (p1, q1), (p2, q2) = proj(pts[0]), proj(pts[1])
        gc = ((-q2 - q1, p2 + p1), (q2 - q1, p1 - p2))
        F = mat_mul(mat_mul(mat_adj(gc), _P_TAU[1]), gc)
    return tau, Form.from_matrix(F).canonical()


# ---------------------------------------------------------------------------
# common points of two generic forms

def common_point(C: Sequence[Scalar], Ct: Sequence[Scalar], tau: int,
                 ar: Optional[Arithmetic] = None) -> List[Form]:
    """The at most two tau-isotropic forms e-orthogonal to both C and Ct.

    Two linear conditions cut the coefficient space down to a plane, on
    which tau-isotropy is a binary quadratic.
    """
    ar = private_context(ar)
    rows = []
    for ref in (C, Ct):
        n, l, k, m = ref
        rows.append(((-2 * n, -2 * l, m, k), 0))
    part, basis = linear_solve(rows, 4, ar.exact)
    if part is None or basis is None:
        return []
    if len(basis) > 2:
        raise ValueError("forms too degenerate to cut out a pencil")
    if not basis:
        return []
    if len(basis) == 1:
        vec = basis[0]
        return [Form(*vec).canonical()] if is_tau_isotropic(vec, tau) else []
    sols = _binary_quadratic(lambda u, w: tau_pairing(u, w, tau),
                             basis[0], basis[1], ar)
    if sols is None:
        raise ValueError("every form of the pencil is isotropic")
    out, seen = [], set()
    for vec in sols:
        form = Form(*vec).canonical()
        if not is_tau_isotropic(form, tau):
            continue
        if not all(near_zero(tau_pairing(form, ref, -1), comparison_eps(),
                             form, ref) for ref in (C, Ct)):
            continue
        key = form.key()
        if key in seen:
            continue
        seen.add(key)
        out.append(form)
    out.sort(key=lambda f: f.key())
    return out
