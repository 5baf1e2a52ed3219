"""Continued fractions as Moebius-matrix products, drawn with horocycles.

A fraction b0 + K(a_j|b_j) folds into the matrix product
[[1,b0],[0,1]] * prod_j [[0,a_j],[1,b_j]]; the columns of the partial
product hold two consecutive convergents P_{n-1}/Q_{n-1} and P_n/Q_n.
Pushing fixed cycle families through the product yields horocycles
touching the real line at consecutive convergents plus a connecting
cycle through both touch points; three parameter choices make the
consecutive horocycles tangent, orthogonal, or orthogonal with the
connecting cycle inclined at 45 degrees.  The same machine runs over
R^n with Clifford-entry matrices.

Every chain is checked once, exactly when its terms are exact.  A chain
of int terms (a simple continued fraction) has int convergents, so its
rows are ints, some times sqrt 2, in closed form: it is built from four
ints per row and checked on the same ints.  Any other chain is built from
the scalar closed forms and checked on its scalars with :func:`near_zero`,
which is the zero test for exact values and the floored tolerance for
floats.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .numerics import (Scalar, _quad, comparison_eps, is_exact, lift,
                       near_zero, row_scale, scalar_sign, to_float)
from .cycle import Cycle, Metric
from .clifford import (INFINITY, Infinity, Mat2, Mv, Point, euclidean,
                       identity_map, mobius_apply)
from .poincare import (Mat, embed_real_moebius,  # noqa: F401  (re-exported)
                       mat_mul)

E2 = Metric.named("e")

ARRANGEMENTS = ("tangent", "orthogonal", "ortho45")


class InvalidCF(ValueError):
    """Zero partial numerator, an index past the known terms, a chain
    whose arrangement, incidence or shape check fails (consecutive radii
    of the three families agree only when |a_j| = 1 for j >= 2), or an
    orthogonal reconstruction past a horocycle of zero height."""


# ---------------------------------------------------------------------------
# the fraction itself and its convergent ladder


class ContinuedFraction:
    """b0 + a1/(b1 + a2/(b2 + ...)) with all partial numerators nonzero.

    `b0` is the optional leading integer-part term; pure K(a_n|b_n)
    fractions leave it None.  `terms` holds (a_j, b_j) pairs from j=1.
    """

    __slots__ = ("b0", "terms")

    def __init__(self, b0: Optional[Scalar], terms: Iterable[Tuple[Scalar, Scalar]]):
        tt = tuple((a, b) for a, b in terms)
        for j, (a, _) in enumerate(tt, start=1):
            if a == 0:
                raise InvalidCF(f"partial numerator a_{j} is zero")
        self.b0 = b0
        self.terms = tt

    @staticmethod
    def simple(b0: Optional[Scalar], bs: Iterable[Scalar]) -> "ContinuedFraction":
        return ContinuedFraction(b0, tuple((1, b) for b in bs))

    @staticmethod
    def parse(text: str) -> "ContinuedFraction":
        """`b0;b1,b2,...` (all a_j = 1; empty b0 allowed) or `a1/b1 a2/b2 ...`."""
        text = text.strip()
        if not text:
            raise InvalidCF("empty continued-fraction text")
        if ";" in text:
            head, _, tail = text.partition(";")
            b0 = Fraction(head.strip()) if head.strip() else None
            bs = [Fraction(tok.strip()) for tok in tail.split(",") if tok.strip()]
            return ContinuedFraction.simple(b0, bs)
        terms = []
        for tok in text.split():
            num, slash, den = tok.partition("/")
            if not slash:
                raise InvalidCF(f"expected a/b pair, got {tok!r}")
            terms.append((Fraction(num), Fraction(den)))
        return ContinuedFraction(None, terms)

    @property
    def simple_flag(self) -> bool:
        return all(a == 1 for a, _ in self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __repr__(self):
        head = "" if self.b0 is None else f"{self.b0};"
        return f"ContinuedFraction({head}{','.join(str(b) for _, b in self.terms)})"


@dataclass(frozen=True)
class ConvergentState:
    """Columns of the partial matrix product: [[P_{n-1}, P_n], [Q_{n-1}, Q_n]]."""

    n: int
    p_prev: Scalar
    p: Scalar
    q_prev: Scalar
    q: Scalar

    def matrix(self) -> Mat:
        return ((self.p_prev, self.p), (self.q_prev, self.q))

    def pair(self) -> Tuple[Scalar, Scalar]:
        return (self.p, self.q)


def initial_state(cf: ContinuedFraction) -> ConvergentState:
    if cf.b0 is None:
        return ConvergentState(0, 1, 0, 0, 1)
    return ConvergentState(0, 1, cf.b0, 0, 1)


def advance(state: ConvergentState, a: Scalar, b: Scalar) -> ConvergentState:
    return ConvergentState(state.n + 1,
                           state.p, b * state.p + a * state.p_prev,
                           state.q, b * state.q + a * state.q_prev)


def _first_terms(cf: ContinuedFraction, N: Optional[int]):
    """The first N terms, all of them for None; InvalidCF for a negative N
    and past the known ones."""
    if N is None:
        return cf.terms
    if N < 0:
        raise InvalidCF(f"step count {N} is negative")
    if N > len(cf.terms):
        raise InvalidCF(f"only {len(cf.terms)} terms known, asked for {N}")
    return cf.terms[:N]


def convergent_states(cf: ContinuedFraction, N: Optional[int] = None) -> Iterator[ConvergentState]:
    """States for n = 0..N; the step is stateless given the previous state."""
    terms = _first_terms(cf, N)
    state = initial_state(cf)
    yield state
    for a, b in terms:
        state = advance(state, a, b)
        yield state


def convergents(cf: ContinuedFraction, N: Optional[int] = None) -> List[Tuple[Scalar, Scalar]]:
    """(P_n, Q_n) pairs; starts with (b0, 1) when the leading term is present.

    Q_n = 0 is legal and kept raw; the quotient is then the point at
    infinity, see quotient().
    """
    out = []
    for state in convergent_states(cf, N):
        if state.n == 0 and cf.b0 is None:
            continue
        out.append(state.pair())
    return out


def quotient(pair: Tuple[Scalar, Scalar]) -> Optional[Scalar]:
    """P/Q, or None for the infinite quotient."""
    p, q = pair
    return None if q == 0 else lift(p) / q


def moebius_of_cf(cf: ContinuedFraction, n: int) -> Mat:
    """The matrix [[P_{n-1}, P_n], [Q_{n-1}, Q_n]] of the n-th partial map."""
    if n < 1:
        raise InvalidCF("partial maps start at n = 1")
    for state in convergent_states(cf, n):
        pass
    return state.matrix()


def endpoints(mat: Mat) -> Tuple[Optional[Scalar], Optional[Scalar]]:
    """Images of 0 and infinity: the n-th and (n-1)-th quotients."""
    (a, b), (c, d) = mat
    return (None if d == 0 else lift(b) / d,
            None if c == 0 else lift(a) / c)


def mat_of_step(a: Scalar, b: Scalar) -> Mat:
    return ((0, a), (1, b))


# ---------------------------------------------------------------------------
# horocycle images of the three cycle families


def horocycle_images(mat: Mat, family: str, value: Scalar) -> Cycle:
    """Image under mat of one of three cycle families, in closed form.

    first_col:  the line v = value/2 lands on a horocycle touching at
                a/c with radius |delta|/(value*c^2);
    second_col: the family value*(u^2+v^2) - 2v = 0 lands on a horocycle
                touching at b/d with radius |delta|/(value*d^2);
    connecting: the line through 0 with inclination `value` lands on a
                cycle through both touch points a/c and b/d.

    c = 0 (or d = 0) degenerates the image to a k = 0 line, which the
    same coefficients already express.
    """
    (a, b), (c, d) = mat
    delta = a * d - b * c
    if delta == 0:
        raise ValueError("matrix is degenerate")
    if family == "first_col":
        return Cycle(E2, c * c * value, (a * c * value, delta), a * a * value)
    if family == "second_col":
        return Cycle(E2, d * d * value, (b * d * value, delta), b * b * value)
    if family == "connecting":
        return Cycle(E2, 2 * d * c, (b * c + d * a, delta * value), 2 * b * a)
    raise ValueError(f"unknown family {family!r}")


def tangency_residual(C1: Cycle, C2: Cycle) -> Scalar:
    """det of the coefficient sum; vanishes exactly when the cycles touch."""
    row = [x + y for x, y in zip(C1.row(), C2.row())]
    return Cycle.from_row(C1.metric, row).det()


def orthogonality_residual(C1: Cycle, C2: Cycle) -> Scalar:
    return C1.product(C2)


# ---------------------------------------------------------------------------
# chains of horocycles along a fraction


@dataclass
class HorocycleChain:
    """Horocycle i touches the real line at P_i/Q_i; connecting cycle i
    joins horocycles i and i+1 and passes through both touch points."""

    arrangement: str
    horocycles: List[Cycle]
    connecting: List[Cycle]
    pairs: List[Tuple[Scalar, Scalar]]
    flat_steps: List[int]

    @property
    def cycles(self) -> List[Cycle]:
        return self.horocycles + self.connecting


# sqrt 2 as Arithmetic("exact").sqrt(2) gives it, with no factoring at import
_RT2 = _quad(0, 1, 1, 2)


def _arrangement_params(arrangement: str, exact: bool):
    if arrangement == "tangent":
        return 2, 2, 0
    rt2 = _RT2 if exact else math.sqrt(2.0)
    if arrangement == "orthogonal":
        return rt2, rt2, 0
    if arrangement == "ortho45":
        return rt2, rt2, 1
    raise ValueError(f"unknown arrangement {arrangement!r}")


def chain(cf: ContinuedFraction, N: int, arrangement: str) -> HorocycleChain:
    """Horocycles at the first N+1 quotients plus N connecting cycles.

    Every horocycle is mirrored into the upper half-plane, which is what
    makes the arrangement residuals vanish identically even though the
    determinant alternates.  A zero Q_n step degenerates its horocycle
    to a line; the step index is recorded in flat_steps.

    A chain whose terms are all ints (``b0`` None or an int), the simple
    continued fractions of :meth:`ContinuedFraction.simple`, is built
    straight from its convergents in four ints per row and checked by
    :func:`_exact_failure` on those same ints (:func:`_int_chain`).  Any
    other chain is built from the scalar closed forms and checked by
    :func:`_validate_chain`.  A singular partial matrix (a float product
    that underflows) and a failed check raise :class:`InvalidCF`.
    """
    if N < 1:
        raise InvalidCF("a chain needs at least one step")
    terms = _first_terms(cf, N)
    if (cf.b0 is None or type(cf.b0) is int) and all(
            type(a) is int and type(b) is int for a, b in terms):
        ch, rows, points = _int_chain(cf.b0, terms, arrangement)
        failure = _exact_failure(ch, rows, points)
        if failure is not None:
            _refuse(ch, failure)
        return ch
    states = list(convergent_states(cf, N))
    # the field is that of the terms the chain uses
    exact = all(is_exact(a) and is_exact(b) for a, b in terms) and \
        (cf.b0 is None or is_exact(cf.b0))
    mpar, kpar, npar = _arrangement_params(arrangement, exact)

    mats = [s.matrix() for s in states[1:]]
    for n, ((a, b), (c, d)) in enumerate(mats, start=1):
        if a * d - b * c == 0:
            raise InvalidCF(f"step {n}: partial matrix is singular")
    horos = [horocycle_images(mats[0], "first_col", mpar)]
    horos += [horocycle_images(m, "second_col", kpar) for m in mats]
    horos = [h.mirror() if scalar_sign(h.l[-1]) < 0 else h for h in horos]
    joins = [horocycle_images(m, "connecting", npar) for m in mats]

    pairs = [s.pair() for s in states]
    flats = [i for i, h in enumerate(horos) if h.k == 0]
    ch = HorocycleChain(arrangement, horos, joins, pairs, flats)
    _validate_chain(ch)
    return ch


def _int_chain(b0, terms, arrangement: str):
    """The chain of int terms built in ints, as ``(chain, rows, points)``:
    ``rows[i]`` holds the four ints the i-th cycle is made of, and
    ``points[j]`` is the zero-radius cycle at the j-th quotient x/y times
    y^2, ``(y^2, x y, 0, x^2)``, or None when y is 0.

    The convergents are ints, so every row is the closed form of
    :func:`horocycle_images` on the partial matrix [[x', x], [y', y]] of
    the columns (x', y') = (P_{n-1}, Q_{n-1}) and (x, y) = (P_n, Q_n),
    delta = x' y - x y', mirrored by delta -> |delta|.  For the tangent
    value 2 the horocycle at the column (x, y) is the ints (2 y^2, 2 x y,
    |delta|, 2 x^2).  For the value sqrt 2 it is (0, 0, |delta|, 0) +
    (y^2, x y, 0, x^2) sqrt 2, kept as the ints (y^2, x y, |delta|, x^2);
    its entries but l_2 are made through :func:`_quad`, which gives
    ``Fraction(0)`` where the int is 0, as ``int * sqrt 2`` does.  The
    connecting cycle is the ints (2 y y', x y' + y x', delta n, 2 x x')
    for the arrangement's inclination n (0 or 1)."""
    value, _, n = _arrangement_params(arrangement, True)
    x, y, xp, yp = (0 if b0 is None else b0), 1, 1, 0
    pairs = [(x, y)]
    deltas = []
    for a, b in terms:
        xp, x, yp, y = x, b * x + a * xp, y, b * y + a * yp
        pairs.append((x, y))
        deltas.append(xp * y - x * yp)

    horos, rows, points = [], [], []
    # horocycle 0 is the first column of the first partial matrix
    for (x, y), delta in zip(pairs, deltas[:1] + deltas):
        yy, xy, xx, l2 = y * y, x * y, x * x, abs(delta)
        points.append((yy, xy, 0, xx) if y else None)
        if type(value) is int:
            row = (2 * yy, 2 * xy, l2, 2 * xx)
            horos.append(Cycle(E2, row[0], row[1:3], row[3]))
        else:
            row = (yy, xy, l2, xx)
            horos.append(Cycle(E2, _quad(0, yy, 1, 2),
                               (_quad(0, xy, 1, 2), l2), _quad(0, xx, 1, 2)))
        rows.append(row)
    joins = []
    for ((xp, yp), (x, y)), delta in zip(zip(pairs, pairs[1:]), deltas):
        row = (2 * y * yp, x * yp + y * xp, delta * n, 2 * x * xp)
        rows.append(row)
        joins.append(Cycle(E2, row[0], row[1:3], row[3]))
    flats = [i for i, (_, y) in enumerate(pairs) if not y]
    return HorocycleChain(arrangement, horos, joins, pairs, flats), rows, points


def _validate_chain(ch: HorocycleChain) -> None:
    """Check every step of a chain: the arrangement residual of the two
    horocycles, the connecting cycle through both quotients, and its
    shape (45 degrees in ortho45; vertical and orthogonal to both
    horocycles otherwise), on its scalars (:func:`_scalar_failure`).  A
    failed check raises :class:`InvalidCF`.

    :func:`chain` checks a chain of int terms on the ints it builds it
    from instead; this serves the chains of Fraction, QuadExt and float
    terms, and any chain built elsewhere."""
    failure = _scalar_failure(ch)
    if failure is not None:
        _refuse(ch, failure)


def _refuse(ch: HorocycleChain, failure) -> None:
    """Raise the :class:`InvalidCF` of a failed check ``(step, what,
    pair)``."""
    i, what, pair = failure
    if what == _ARRANGEMENT:
        prev, here = ch.horocycles[i - 1], ch.horocycles[i]
        res = tangency_residual(prev, here) if ch.arrangement == "tangent" \
            else orthogonality_residual(prev, here)
        what = f"arrangement residual {res!r} is not zero"
    elif what == _MISSES:
        what = f"connecting cycle misses quotient {quotient(pair)}"
    raise InvalidCF(f"step {i}: {what}")


# what a failed check reports; the first two are filled in by _refuse
_ARRANGEMENT = "arrangement residual"
_MISSES = "connecting cycle misses a quotient"
_NOT_45 = "connecting cycle is not at 45 degrees"
_TILTS = "connecting cycle tilts off vertical"
_NOT_ORTHOGONAL = "connecting cycle not orthogonal"


def _scalar_failure(ch: HorocycleChain):
    """The first failed check of a chain on its scalars, as ``(step, what,
    pair)``, or None.  Each residual is tested with :func:`near_zero`:
    exactly for an exact value, and for a float against the floored
    tolerance scaled by the chain's largest entry."""
    eps = comparison_eps()
    entries = [v for cyc in ch.cycles for v in cyc.row()]
    # the one-entry row scales like all the rows: row_scale((S,)) == S; an
    # exact chain needs no scale, and its entries may overflow a float
    scale = () if all(map(is_exact, entries)) else (row_scale(entries),)
    tangent = ch.arrangement == "tangent"
    for i in range(1, len(ch.horocycles)):
        prev, here = ch.horocycles[i - 1], ch.horocycles[i]
        res = tangency_residual(prev, here) if tangent \
            else orthogonality_residual(prev, here)
        if not near_zero(res, eps, scale, scale):
            return i, _ARRANGEMENT, None
        join = ch.connecting[i - 1]
        for pair in (ch.pairs[i - 1], ch.pairs[i]):
            pt = quotient(pair)
            if pt is None:
                continue
            if not near_zero(join.value_at((pt, 0)), eps, scale, scale):
                return i, _MISSES, pair
        if ch.arrangement == "ortho45":
            # squared inclination n^2/det == 1/2, as a residual quadratic in
            # the rows: radical-free and without cancellation in a quotient
            n = join.l[-1]
            if not near_zero(2 * n * n - join.det(), eps, scale, scale):
                return i, _NOT_45, None
        else:
            if not near_zero(join.l[-1], eps, scale):
                return i, _TILTS, None
            for h in (prev, here):
                if not near_zero(orthogonality_residual(join, h), eps, scale,
                                 scale):
                    return i, _NOT_ORTHOGONAL, None
    return None


def _exact_failure(ch: HorocycleChain, rows, points):
    """The first failed check of a chain of int terms, as ``(step, what,
    pair)``, or None, on the ``rows`` and ``points`` of :func:`_int_chain`.
    Every check but the tilt is an E2 pairing written out with E2's
    weights (:func:`_pairs_to_zero`, :func:`_square_is_zero`); the tilt
    tests l_2.  The chain's cycles are rows of E2, whose point and product
    metrics agree.

    A sqrt 2 horocycle kept as the ints (k, x, y, m) pairs with another as
    2 (m K + M k - 2 x X) - 2 y Y.  Every other pairing meets an l_2 of 0
    (points have none, and the tilt is checked first), so it is the int
    pairing times sqrt 2, or equal to it."""
    n = len(ch.horocycles)
    horos, joins = rows[:n], rows[n:]
    tangent = ch.arrangement == "tangent"
    ortho45 = ch.arrangement == "ortho45"
    for i in range(1, n):
        prev, here, join = horos[i - 1], horos[i], joins[i - 1]
        if tangent:
            # det C = -<C, C>/2 for the summed row C: both rows share
            # their scale
            if not _square_is_zero(map(add, prev, here), 1):
                return i, _ARRANGEMENT, None
        elif not _pairs_to_zero(prev, here, 1):
            return i, _ARRANGEMENT, None
        for j in (i - 1, i):
            if points[j] is not None and not _pairs_to_zero(join, points[j]):
                return i, _MISSES, ch.pairs[j]
        if ortho45:
            # 2 n^2 - det = <C, mirror C>/2: at 45 degrees to the real
            # line a cycle meets its mirror image at right angles
            if not _square_is_zero(join, -1):
                return i, _NOT_45, None
        else:
            if join[2]:
                return i, _TILTS, None
            if not (_pairs_to_zero(join, prev) and _pairs_to_zero(join, here)):
                return i, _NOT_ORTHOGONAL, None
    return None


def _pairs_to_zero(a, b, w: int = 2) -> bool:
    """Whether m K + M k == 2 x X + w y Y for two int rows (k, x, y, m) and
    (K, X, Y, M): the E2 pairing m K + M k - 2 (x X + y Y) is zero for w =
    2, and that of two sqrt 2 horocycles of :func:`_int_chain` for w =
    1."""
    k, x, y, m = a
    K, X, Y, M = b
    return m * K + M * k == 2 * x * X + w * y * Y


def _square_is_zero(a, s: int) -> bool:
    """Whether m k - x^2 - s y^2 is zero for an int row (k, x, y, m):
    <a, a>/2 for s = 1, and <a, mirror a>/2 for s = -1, the mirror
    negating l_2."""
    k, x, y, m = a
    return m * k == x * x + s * y * y


def reconstruct_horocycles(points: Sequence[Scalar], n0: Scalar,
                           relation: str = "orthogonal") -> List[Cycle]:
    """Horocycles (1, p_j, n_j, p_j^2) at given boundary points, each tied
    to its predecessor.

    Orthogonality determines n_j linearly: n_j = (p_j - p_{j-1})^2 / (2 n_{j-1}),
    so a zero height before a further point raises :class:`InvalidCF`.
    Tangency is quadratic with the two roots -n_{j-1} +- |p_j - p_{j-1}|;
    the larger root is taken.
    """
    if not points:
        return []
    if relation not in ("orthogonal", "tangent"):
        raise ValueError(f"unknown relation {relation!r}")
    out = [Cycle(E2, 1, (points[0], n0), points[0] * points[0])]
    n_prev = n0
    for p_prev, p in zip(points, points[1:]):
        if relation == "orthogonal":
            if n_prev == 0:
                raise InvalidCF("previous horocycle has zero height")
            n = lift((p - p_prev) * (p - p_prev)) / (2 * n_prev)
        else:
            n = abs(p - p_prev) - n_prev
        out.append(Cycle(E2, 1, (p, n), p * p))
        n_prev = n
    return out


# ---------------------------------------------------------------------------
# nesting diagnostic for connecting-cycle chains


@dataclass
class SeidelSternReport:
    nested: bool
    violations: List[int]
    radii: List[float]
    centre_heights: List[float]
    radii_to_zero: bool
    centres_to_zero: bool
    converges: Optional[bool]


def _enclosed(inner: Cycle, outer: Cycle) -> bool:
    """Closed-disk containment, internal tangency allowed, equality not."""
    if inner.k == 0 or outer.k == 0:
        return False
    r2i, r2o = inner.radius_sq(), outer.radius_sq()
    if not r2i < r2o:
        return False
    ci, co = inner.center(), outer.center()
    d2 = sum((x - y) * (x - y) for x, y in zip(ci, co))
    t = d2 - r2i - r2o
    return t < 0 and t * t >= 4 * r2i * r2o


def _tends_to_zero(values: List[float], threshold: float) -> bool:
    if not values:
        return False
    tail = values[len(values) // 2:]
    if any(x < y for x, y in zip(tail, tail[1:])):
        return False
    return tail[-1] < threshold


def seidel_stern_check(cycles: Union[HorocycleChain, Sequence[Cycle]],
                       threshold: float = 1e-3) -> SeidelSternReport:
    """Convergence diagnostic on a run of connecting cycles.

    The verdict needs every cycle enclosed in its predecessor and either
    the radii or the boundary-distance of the centres to die out (the
    latter carries the 45-degree arrangement, whose cycles shrink onto
    the real line).  Chains failing the nesting test get no verdict.
    """
    if isinstance(cycles, HorocycleChain):
        cycles = cycles.connecting
    cycles = list(cycles)
    violations = [j for j in range(1, len(cycles))
                  if not _enclosed(cycles[j], cycles[j - 1])]
    nested = bool(cycles) and not violations

    radii, heights = [], []
    for c in cycles:
        if c.k == 0:
            radii.append(math.inf)
            heights.append(math.inf)
        else:
            radii.append(math.sqrt(abs(to_float(c.radius_sq()))))
            heights.append(abs(to_float(c.center()[-1])))
    radii_ok = _tends_to_zero(radii, threshold)
    # centres sitting exactly on the boundary say nothing about shrinking
    tail = heights[len(heights) // 2:]
    centres_ok = all(h > 0 for h in tail) and _tends_to_zero(heights, threshold)
    return SeidelSternReport(nested, violations, radii, heights, radii_ok,
                             centres_ok,
                             (radii_ok or centres_ok) if nested else None)


# ---------------------------------------------------------------------------
# the same trip through R^n: Clifford-entry matrices


def _lift_mv(x: Mv, sig) -> Mv:
    return Mv(sig, dict(x.terms))


def _lift_matrix(M: Mat2, sig) -> Mat2:
    return Mat2(sig, _lift_mv(M.a, sig), _lift_mv(M.b, sig),
                _lift_mv(M.c, sig), _lift_mv(M.d, sig))


def _input_cycle(M: Mat2, family: str, value: Scalar) -> Tuple[Cycle, Mat2]:
    if not M.entry_conditions_ok():
        raise ValueError("matrix fails the Clifford-entry Moebius conditions")
    n = M.sig.n
    metric = Metric.from_signature(n + 1)
    axis = (0,) * n + (1,)
    if family == "first_col":
        src = Cycle(metric, 0, axis, value)
    elif family == "second_col":
        src = Cycle(metric, value, axis, 0)
    else:
        raise ValueError(f"unknown family {family!r}")
    return src, _lift_matrix(M, euclidean(n + 1))


def multidim_horocycles(M: Mat2, family: str, value: Scalar) -> Cycle:
    """Image in R^{n+1} of the two touching families under an Ahlfors-style
    matrix, by honest conjugation of the cycle matrix."""
    src, big = _input_cycle(M, family, value)
    return src.flt(big)


def multidim_connecting(M: Mat2, x: Union[Mv, Sequence[Scalar]], r: Scalar) -> Cycle:
    """Image of the hyperplane through the origin with normal x + r e_{n+1}.

    For x = c-conj * d the image passes through both contact points and
    its centre stays in the vertical 2-plane through them.
    """
    if not M.entry_conditions_ok():
        raise ValueError("matrix fails the Clifford-entry Moebius conditions")
    n = M.sig.n
    coords = tuple(x.vector_components() if isinstance(x, Mv) else x)
    if len(coords) != n:
        raise ValueError(f"normal must have {n} components")
    metric = Metric.from_signature(n + 1)
    src = Cycle(metric, 0, coords + (r,), 0)
    return src.flt(_lift_matrix(M, euclidean(n + 1)))


def clifford_cf_step(x: Point, b: Mv) -> Point:
    """x -> (x + b)^{-1}, the one-letter step [[0,1],[1,b]]."""
    if bool(b) and not b.is_vector():
        raise ValueError("partial denominator must be a vector")
    if isinstance(x, Infinity):
        return Mv.scalar(b.sig, 0)
    s = x + b
    if not s or s.modulus_sq() == 0:
        return INFINITY
    return s.inverse()


def clifford_convergents(bs: Sequence[Mv]) -> List[Point]:
    """Points P_n Q_n-conj / |Q_n|^2 of the vector-valued simple fraction.

    Isotropic denominators propagate as the INFINITY sentinel rather than
    an error; the matrix state remains valid either way.
    """
    bs = list(bs)
    if not bs:
        raise ValueError("need at least one partial denominator")
    sig = bs[0].sig
    M = identity_map(sig)
    zero = Mv.scalar(sig, 0)
    out = []
    for j, b in enumerate(bs, start=1):
        if bool(b) and not b.is_vector():
            raise ValueError(f"partial denominator {j} is not a vector")
        M = M * Mat2(sig, 0, 1, 1, b)
        if not M.entry_conditions_ok():
            raise ValueError(f"step {j} broke the Moebius entry conditions")
        out.append(mobius_apply(M, zero))
    return out
