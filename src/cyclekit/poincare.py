"""Real Moebius maps on the projective line and their half-plane extensions.

An interval [x, y] is stored as the trace-free matrix that fixes both
endpoints and swaps the interval with its complement.  The extended
half-plane is read through cycles of the three tau-planes (tau in
{-1, 0, +1}, point and product metric (-1, tau)): circles, parabolas or
equilateral hyperbolas are the "distance" carriers, the cycle product is
the invariant pairing, and a real Moebius map acts on every plane by the
same Clifford-entry matrix.

A point (u, v) of the extended half-plane is an isotropic cycle of its
tau-plane, with l = (u, v) when k = 1.  It can be reached two ways: by
intersecting the conics attached to two boundary intervals, or from three
intervals via the one-parameter subgroup their endpoint map generates.
Both routes are implemented and agree on the elliptic slice.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .clifford import Mat2, Mv
from .cycle import Cycle, Metric, row_product
from .numerics import (Arithmetic, QuadExt, Scalar, comparison_eps, is_exact,
                       lift, near_zero, private_context, row_scale,
                       scalar_sign, to_float)
from .relations import _binary_quadratic, linear_solve, pairing_coeffs

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
    """Projective equality: one matrix is a nonzero multiple of the other;
    a zero matrix is proportional to none."""
    fa = [A[0][0], A[0][1], A[1][0], A[1][1]]
    fb = [B[0][0], B[0][1], B[1][0], B[1][1]]
    if not (any(fa) and any(fb)):
        return False
    if all(is_exact(v) for v in fa + fb):
        return all(fa[i] * fb[j] == fa[j] * fb[i]
                   for i in range(4) for j in range(i + 1, 4))
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


def cycle_from_interval(x: Endpoint, y: Endpoint, tau: int) -> Cycle:
    """The level-zero cycle carried by an interval: k = 1, l = ((x+y)/2, 0),
    m = xy, read as a semicircle, parabola pair or equilateral hyperbola
    depending on tau.  Minus its product with another interval's cycle is
    tr(C1 C2) of the two interval matrices."""
    (s, b), (k, _) = interval_matrix(x, y)
    return Cycle(tau_plane(tau), k, (s, 0), -b)


def interval_flt(g: Mat, C: Mat) -> Mat:
    """Conjugated interval: endpoints move by g.  Scaled by det g."""
    return mat_mul(mat_mul(g, C), mat_adj(g))


# ---------------------------------------------------------------------------
# cycles of the tau-planes

def tau_plane(tau: int) -> Metric:
    """Point and product metric (-1, tau): the plane of circles (tau = -1),
    parabolas (0) or equilateral hyperbolas (+1)."""
    return Metric((-1, tau), (-1, tau))


def extension_point(c: Cycle) -> Optional[Tuple[Scalar, Scalar]]:
    """(u, v) = l / k labelling a point cycle, None on the boundary k = 0.

    Not ``Cycle.center()``, which reads the point metric and gives
    (u, -tau v) off the elliptic plane."""
    if not bool(c.k):
        return None
    k = lift(c.k)
    return (lift(c.l[0]) / k, lift(c.l[1]) / k)


def is_tau_isotropic(c: Cycle) -> bool:
    """Zero self-product in the cycle's own tau-plane."""
    row = c.row()
    return near_zero(c.self_product(), comparison_eps(), row, row)


def isotropic_form_at(u: Scalar, v: Scalar, tau: int) -> Cycle:
    """The normalised isotropic cycle of the tau-plane labelled by (u, v).

    Not ``Cycle.zero_radius_at``, whose l is (u, -tau v) off the elliptic
    plane; this one's e-product with a cycle is that cycle's curve value
    at (u, v)."""
    return Cycle(tau_plane(tau), 1, (u, v), u * u - tau * v * v)


def curve_membership(c: Cycle, u: Scalar, v: Scalar) -> bool:
    """Does (u, v) lie on the curve the cycle draws in its tau-plane?"""
    val = c.value_at((u, v))
    if is_exact(val):
        return val == 0
    reach = max(1.0, to_float(u) ** 2 + to_float(v) ** 2)
    return near_zero(val, comparison_eps(), c.row(), (reach,))


def real_line_form(tau: int) -> Cycle:
    """The boundary line, scaled so its self-product equals tau."""
    return Cycle(tau_plane(tau), 0, (0, QuadExt(0, Fraction(1, 2), 2)), 0)


def inclined_interval_form(x: Scalar, y: Scalar, tau: int) -> Cycle:
    """The cycle through x and y that is e-orthogonal to the tau-point (0,1).

    Circles for tau = -1, 45-degree parabolas for tau = 0, equilateral
    hyperbolas for tau = +1; the inclination to the boundary depends only
    on the subgroup parameter t = (x-y)/(xy-tau), not on x itself.
    """
    return Cycle(tau_plane(tau), 1, (lift(x + y) / 2, lift(x * y - tau) / 2),
                 lift(x) * y)


def angle_to_real_line(c: Cycle, ar: Optional[Arithmetic] = None) -> Scalar:
    """Cosine of the intersection angle with the boundary:
    -l_2 / sqrt|l_1^2 + l_2^2 - k m|."""
    ar = private_context(ar)
    k, l1, l2, m = (lift(v) for v in c.row())
    return -l2 / ar.sqrt(l1 * l1 + l2 * l2 - k * m)


# ---------------------------------------------------------------------------
# the Moebius action on cycles

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


def embed_real_moebius(mat: Mat, sig) -> Mat2:
    """Real 2x2 matrix as a Clifford-entry matrix acting along the e1 axis.

    [[a, b], [c, d]] becomes [[a, b e1], [-c e1, d]]: multiplicative, and
    x1 e1 maps to ((a x1 + b)/(c x1 + d)) e1, so everything the 2D lane
    computes is reproduced inside the algebra verbatim.
    """
    (a, b), (c, d) = mat
    e1 = Mv.e(sig, 1)
    return Mat2(sig, Mv.scalar(sig, a), e1 * b, e1 * (-c), Mv.scalar(sig, d))


def act(g: Mat, c: Cycle) -> Cycle:
    """The image of a cycle of any tau-plane under g, scaled by det g:
    read as (n, l, k, m) = (l_2, l_1, k, m) it is det(g) rep4(g) c."""
    return c.flt(embed_real_moebius(g, c.metric.product_signature()))


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
    if not (bool(A) or bool(B) or bool(C)):
        raise ValueError("the endpoint map is scalar: it fixes every point")
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
    return _extension_point(x, y, xp, yp, 1, ar)


def extension_point_hyp(x: Scalar, y: Scalar, xp: Scalar, yp: Scalar,
                        ar: Optional[Arithmetic] = None):
    """Common point of the equilateral hyperbolas with vertices on the two
    disjoint intervals x < y < xp < yp; v > 0."""
    _require_order((x, y, xp, yp), "x < y < x' < y'")
    return _extension_point(x, y, xp, yp, -1, ar)


def _extension_point(x, y, xp, yp, sign: int, ar: Optional[Arithmetic]):
    """The point of :func:`extension_point_ell` (``sign`` 1) and
    :func:`extension_point_hyp` (``sign`` -1): the radicand is ``(x - yp)
    (x - xp) (xp - y)`` times ``sign (y - yp)``, positive in each one's
    order.  Negating a product is exact, so the hyperbolas' radicand has
    the bits that the factor ``yp - y`` gives."""
    ar = private_context(ar)
    den = lift(x) + y - xp - yp  # strictly negative under either ordering
    u = (lift(x) * y - lift(xp) * yp) / den
    rad = (x - yp) * (x - xp) * (xp - y) * (y - yp)
    v = ar.sqrt(rad if sign > 0 else -rad) / -den
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


def extension_from_triple(pairs, ar: Optional[Arithmetic] = None):
    """(tau, Cycle): the isotropic cycle every map along the triple fixes.

    The endpoint map phi of an aligned triple generates a one-parameter
    subgroup conjugate to the tau-model [[a, tau b], [b, a]]; carrying the
    model's fixed point (0, 1) back through the conjugator yields the point
    of the extended space.  The cycle is returned canonicalised; its
    extension_point() is None when the subgroup fixes infinity.
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
        g = ((b, 0), (alpha - a, beta))
    elif kind == "parabolic":
        if bool(c):
            s = (a - d) / (2 * c)
            g = mat_adj(((1, -s), (0, 1)))
        else:
            g = mat_adj(((0, 1), (-1, 0)))  # single fixed point at infinity
    else:
        pts = fixed_points(tm.matrix, ar)
        (p1, q1), (p2, q2) = proj(pts[0]), proj(pts[1])
        g = mat_adj(((-q2 - q1, p2 + p1), (q2 - q1, p1 - p2)))
    return tau, act(g, isotropic_form_at(0, 1, tau)).canonical()


# ---------------------------------------------------------------------------
# common points of two cycles

def common_point(C: Cycle, Ct: Cycle,
                 ar: Optional[Arithmetic] = None) -> List[Cycle]:
    """The at most two isotropic cycles of C's tau-plane e-orthogonal to
    both C and Ct, ordered by canonical row (float entries rounded to 9
    digits).

    Two linear conditions cut the coefficient space down to a plane, on
    which isotropy is a binary quadratic.
    """
    ar = private_context(ar)
    plane, e2 = C.metric, tau_plane(-1)
    _, basis = linear_solve([(pairing_coeffs(e2, ref), 0) for ref in (C, Ct)],
                            4, None if ar.exact else float).solution()
    if len(basis) > 2:
        raise ValueError("cycles too degenerate to cut out a pencil")
    sols = _binary_quadratic(lambda u, w: row_product(plane, u, w),
                             basis[0], basis[1], ar)
    if sols is None:
        raise ValueError("every cycle of the pencil is isotropic")
    found = {}
    for vec in sols:
        c = Cycle.from_row(plane, vec).canonical()
        row = c.row()
        if is_tau_isotropic(c) and all(
                near_zero(row_product(e2, row, ref.row()), comparison_eps(),
                          row, ref.row()) for ref in (C, Ct)):
            found.setdefault(c.key(), c)
    return sorted(found.values(), key=lambda c: tuple(
        v if is_exact(v) else round(v, 9) + 0 for v in c.row()))
