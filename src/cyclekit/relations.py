"""Relations on an unknown cycle and the solver that intersects them.

Every relation linearizes against the unknown row x = (k, l_1..l_n, m): it
is at most one row ``coeffs . x = rhs`` plus at most one demand <x,x> = s
with s in {-1, 0, +1}, both fixed when it is constructed.  The demand is
the single quadratic equation left after elimination.  It is projective,
so an exact solve with rational rows, references and thetas solves <x,x>
= s lam instead (:func:`_square_class`), lam the squarefree core of the
first nonzero |<R,R>|: each rhs theta sqrt(lam |<R_i,R_i>|) is then
rational when the references share one square class, and a root the
quadratic takes needs one radical, not a nested one.

``solve`` alone owns signs and point mode.  ``build`` gives a row's +
branch rhs, and a nonzero rhs is signed.  Negating x maps the sign pattern
sigma to -sigma; the demand is even in x and every signed rhs is odd, so
-sigma gives the same projective cycles and only the patterns whose first
signed row is +1 are solved.  ``build`` takes lam.

The coefficient rows do not depend on the signs, so a solve makes at
most one elimination (:func:`linear_solve`): row i carries one rhs column
per sign pattern, sigma_i r_i, and each pattern reads its own column back
(:func:`_solve_branch`).  A homogeneous system of int rows in the plane
makes none when its minors answer it (:func:`_plane_candidates`): three
rows meet in the cycle of their signed 3x3 minors, and two rows against a
point demand span the pencil of their 2x2 minors, with the candidates the
elimination would read back; a rank-deficient system or an isotropic
pencil is eliminated.  A column reads back as the pattern's own
elimination would read it: the pivots depend on the coefficients alone,
each column is eliminated entry by entry, and a row's signed rhs differ
only in sign, so a float row keeps its largest magnitude and its floats
round as they would alone.  A system over two radicands raises its
RadicalClash in that elimination.  Rational rows with a rhs over one
sqrt d are eliminated over Z[sqrt d]; a context that holds no radicand
then adopts d, so a root over another radicand demotes rather than
clashes.

Exact work runs on each cycle's integer form (:meth:`Cycle.integer_form`):
int rows ``P`` and ``Q`` with every entry ``(P_i + Q_i sqrt d)`` times one
rational scale, ``Q`` empty for a rational row, whose primitive ``P`` is
the cycle's projective representative.  In a build that stays exact, an
orthogonality row (``IsOrthogonal``, ``PassesThrough``, ``IsFlat``,
``IsLobachevskyLine``) is read off a rational reference's primitive row, a
rational multiple of its pairing coefficients; once a build demotes or the
data has a float, every row is the one its data gives, so float
eliminations see the numbers they always did.  ``solve`` reads its ring
off the entry types once (:func:`_ring`).  ``linear_solve`` hands back
the reduced system (:class:`Reduced`), and its callers read it back.  A
branch of int rows reads its column in ints (:meth:`Reduced.integer_rows`):
a basis row is a candidate as it is, and a line against a nonzero demand,
or a pencil against a point demand, meets it in one integer quadratic
(:func:`_line_candidates`); every other result reads back Fractions and
QuadExts.  A rational candidate is deduplicated and
verified on its primitive int row, a positive multiple of its canonical
row; a Q(sqrt d) candidate is verified on its own row and form and
deduplicated on its canonical cycle's form; only a kept one builds its
canonical row.  A float candidate is verified on its canonical cycle and
deduplicated by its :meth:`Cycle.key`, and only it reads the comparison
tolerance.

Exact verdicts are decided on forms.  An exact candidate's pairings with a
rational reference sum in ints over Z[sqrt d]
(:func:`~cyclekit.cycle.form_pairing`), its self pairing once per
candidate (:meth:`Cycle.self_pairing`): orthogonality tests the two parts
for zero, tangency, inversive distance and power test their squared
equation on two int parts, and each sign test takes the exact sign of an
``R + S sqrt d`` times the sign of the row's lead entry, so a row decides
as its canonical cycle does (:func:`_form_parts`, :func:`_lead_sign`).  A reference or theta
over a radicand is paired in the candidate's canonical values.  A float
candidate pairs with the relation's exact reference row and self product:
Python computes a float times a Fraction, an int or a QuadExt as the float
times its float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product as iproduct
from operator import itemgetter, mul
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

from .cycle import (Cycle, Metric, form_pairing, integer_form,
                    integer_pairing, row_product)
from .numerics import (Arithmetic, QuadExt, Scalar, _quad, comparison_eps,
                       is_exact, lift, near_zero, quad_sign, radical_parts,
                       row_scale, scalar_sign, to_float)

Row = Tuple[Tuple[Scalar, ...], Union[Scalar, Tuple[Scalar, ...]]]

MAX_BRANCHES = 64


class BranchOverflow(RuntimeError):
    """More sign branches than the solver is willing to enumerate."""


def pairing_coeffs(metric: Metric, ref: Cycle) -> Tuple[Scalar, ...]:
    """Coefficients c with c . x = <x, ref>."""
    eta = metric.product_eta
    return (ref.m, *(2 * e * l for e, l in zip(eta, ref.l)), ref.k)


# ---------------------------------------------------------------------------
# relation kinds


class Relation:
    """One constraint on the unknown cycle: the row ``coeffs . x = rhs``
    (``coeffs`` None: no row) and the demand <x,x> = ``demand`` (None: no
    demand)."""

    coeffs: Optional[Tuple[Scalar, ...]] = None
    demand: Optional[int] = None

    def row(self, exact: bool) -> Optional[Tuple[Scalar, ...]]:
        """The row's coefficients for a build that stays exact (``exact``)
        or not; None: no row."""
        return self.coeffs

    def build(self, ar: Arithmetic, lam: int = 1) -> Scalar:
        """The rhs of the row's + branch against the demand <x,x> =
        ``demand * lam``, lam > 0 from :func:`_square_class`: a tangency
        or inversive rhs is theta sqrt(lam |<R,R>|); a root it takes is
        taken in ``ar``."""
        return 0

    def satisfied_by(self, cycle: Cycle, eps: float) -> bool:
        """Does ``cycle`` hold?  The verdict is projective, and its sign
        tests read the signs of the canonical cycle, so callers pass any
        exact row over one radicand, or the canonical row of any other
        cycle.  An exact row is decided on its integer form in ints: its
        pairings with rational data, or its self pairing (:class:`IsPoint`)."""
        raise NotImplementedError


def _form_parts(cycle: Cycle, metric: Metric, prim):
    """An exact ``cycle`` against a rational reference over ``metric``, a
    positive multiple of the int row ``prim``, in ints over Z[sqrt d]:
    ``(R, S, R2, S2, d)``.  <x, ref> is a positive multiple of ``s (R + S
    sqrt d)`` and <x, x> of ``R2 + S2 sqrt d`` (:meth:`Cycle.self_pairing`),
    ``s`` the sign of the scale of the cycle's integer form.  None when
    ``prim`` is None, or ``cycle`` has no form or another product
    metric."""
    fx = prim and cycle.integer_form()
    if not fx or (cycle.metric is not metric
                  and cycle.metric.product_eta != metric.product_eta):
        return None
    P, Q, d = fx[:3]
    w = metric.weights
    return (integer_pairing(w, P, prim),
            integer_pairing(w, Q, prim) if Q else 0, *cycle.self_pairing(), d)


def _lead_sign(cycle: Cycle) -> int:
    """The sign of the first nonzero ``P_i + Q_i sqrt d`` of an exact
    row's integer form: ``s`` times it is the sign of the row's lead
    entry, so a sign read off the form (:func:`_form_parts`) times it is
    the canonical cycle's."""
    P, Q, d = cycle.integer_form()[:3]
    return next(quad_sign(p, q, d) for p, q in zip(P, Q) if p or q) \
        if Q else 1


def _flat(cycle: Cycle, eps: float) -> bool:
    """k = 0: :func:`near_zero` at the row's scale, so a flat float
    candidate with its k at rounding noise skips the sign tests too."""
    return near_zero(cycle.k, eps, cycle.row())


def _canonical_if_radical(cycle: Cycle) -> Cycle:
    """The canonical cycle of a Q(sqrt d) row, which a verdict on the
    row's values reads; ``cycle`` itself otherwise."""
    form = cycle.integer_form()
    return cycle.canonical() if form and form[2] else cycle


class IsOrthogonal(Relation):
    """<x, ref> = 0.  The subclasses below only fix the reference."""

    def __init__(self, ref: Cycle):
        self.ref = ref

    @property
    def coeffs(self):
        """The reference's pairing coefficients, built when asked for."""
        return pairing_coeffs(self.ref.metric, self.ref)

    def row(self, exact):
        """An exact build takes the row from the reference's primitive
        int row: a rational multiple of :attr:`coeffs`, and the rhs is 0."""
        form = exact and self.ref.integer_form()
        if not form or form[2]:
            return self.coeffs
        prim = form[0]
        return (prim[-1], *map(mul, self.ref.metric.weights, prim[1:-1]),
                prim[0])

    def satisfied_by(self, cycle, eps):
        # two exact rows over one radicand in one product metric: the int
        # pairing of their forms is zero or not in its two parts
        fx = cycle.integer_form()
        fr = fx and self.ref.integer_form()
        if fr and cycle.metric.product_eta == self.ref.metric.product_eta:
            parts = form_pairing(cycle.metric.weights, fx, fr)
            if parts is not None:
                return not any(parts)
        return near_zero(cycle.product(self.ref), eps, cycle.row(),
                         self.ref.row())

    def __repr__(self):
        return f"IsOrthogonal({self.ref!r})"


class PassesThrough(IsOrthogonal):
    """Incidence with a point, as orthogonality to its zero-radius cycle."""

    def __init__(self, metric: Metric, point: Sequence[Scalar]):
        self.point = tuple(point)
        super().__init__(Cycle.zero_radius_at(metric, self.point))

    def __repr__(self):
        return f"PassesThrough{self.point}"


class IsFlat(IsOrthogonal):
    """k = 0: the cycle passes through infinity."""

    def __init__(self, metric: Metric):
        super().__init__(Cycle.infinity(metric))

    def __repr__(self):
        return "IsFlat"


class IsLobachevskyLine(IsOrthogonal):
    """Geodesic of the upper half-space: orthogonal to the boundary."""

    def __init__(self, metric: Metric):
        super().__init__(Cycle.real_line(metric))

    def __repr__(self):
        return "IsLobachevskyLine"


class IsPoint(Relation):
    """Zero-radius demand <x,x> = 0; turns tangency-like rows into incidence.
    An exact row holds when its self pairing (:meth:`Cycle.self_pairing`)
    is zero in both parts; a float row by :func:`near_zero`."""

    demand = 0

    def __init__(self, metric: Metric):
        self.metric = metric

    def satisfied_by(self, cycle, eps):
        if cycle.integer_form():
            return not any(cycle.self_pairing())
        row = cycle.row()
        return near_zero(cycle.self_product(), eps, row, row)

    def __repr__(self):
        return "IsPoint"


class OnlyReals(Relation):
    """Kept for interface compatibility; rational data satisfies it for free."""

    def __init__(self, metric: Metric):
        self.metric = metric

    def satisfied_by(self, cycle, eps):
        return True

    def __repr__(self):
        return "OnlyReals"


class InversiveDistance(Relation):
    """Pinned normalized pairing <x,R> = theta sqrt|<x,x>| sqrt|<R,R>|.

    An exact candidate is decided on its form against the canonical
    reference's primitive int row ``P``, when that and theta are rational
    (``ref_prim``; ``ref_pairing`` is <P, P>)."""

    def __init__(self, ref: Cycle, theta: Scalar):
        self.ref = ref
        self.ref_canonical = ref.canonical()
        self.ref_self = self.ref_canonical.self_product()
        self.theta = lift(theta)
        self.coeffs = pairing_coeffs(ref.metric, ref)
        # <R,R> of the reference as given: build's rhs is a root of it
        self.ref_raw_self = ss = ref.self_product()
        self.demand = None if ss == 0 else scalar_sign(ss)
        fr = self.ref_canonical.integer_form()
        self.ref_prim = (fr[0] if fr and not fr[2]
                         and type(self.theta) is Fraction else None)
        if self.ref_prim:
            self.ref_pairing = integer_pairing(ref.metric.weights, fr[0],
                                               fr[0])

    def build(self, ar, lam=1):
        if self.demand is None or self.theta == 0:
            return 0
        return self.theta * ar.sqrt(lam * self.ref_raw_self)

    def satisfied_by(self, cycle, eps):
        th = self.theta
        parts = _form_parts(cycle, self.ref.metric, self.ref_prim)
        if parts is not None:
            # theta = a/b: b^2 (R + S sqrt d)^2 = a^2 |<P,P>| |R2 + S2 sqrt d|
            R, S, R2, S2, d = parts
            a2, b2 = th.numerator ** 2, th.denominator ** 2
            k = a2 * abs(self.ref_pairing) * quad_sign(R2, S2, d)
            if b2 * (R * R + d * S * S) != k * R2 or 2 * b2 * R * S != k * S2:
                return False
            if th == 0 or cycle.k == 0 or self.ref_canonical.k == 0:
                return True
            return (quad_sign(R, S, d) * _lead_sign(cycle)
                    in (0, scalar_sign(th)))
        x = _canonical_if_radical(cycle)
        r = self.ref_canonical
        p, sx = x.product(r), x.self_product()
        lhs = p * p
        rhs = th * th * abs(sx) * abs(self.ref_self)
        rows = x.row(), r.row()
        if not near_zero(lhs - rhs, eps, *rows, *rows):
            return False
        if th == 0 or _flat(x, eps) or _flat(r, eps):
            return True
        return scalar_sign(p) in (0, scalar_sign(th))

    def __repr__(self):
        return f"InversiveDistance({self.ref!r}, {self.theta})"


class IsTangent(InversiveDistance):
    """|<x,R>| = sqrt(<x,x><R,R>): inversive distance 1, normalized by the
    demand.

    variant: "both", "external" (+1 side of the pairing) or "internal".
    A zero-radius reference degrades to plain incidence, which is noted.
    """

    def __init__(self, ref: Cycle, variant: str = "both"):
        if variant not in ("both", "external", "internal"):
            raise ValueError(f"unknown tangency variant {variant!r}")
        super().__init__(ref, 1)
        self.variant = variant

    def satisfied_by(self, cycle, eps):
        want = 1 if self.variant == "external" else -1
        parts = _form_parts(cycle, self.ref.metric, self.ref_prim)
        if parts is not None:
            # (R + S sqrt d)^2 = <P,P> (R2 + S2 sqrt d)
            R, S, R2, S2, d = parts
            sr = self.ref_pairing
            if R * R + d * S * S != sr * R2 or 2 * R * S != sr * S2:
                return False
            if (self.variant == "both" or cycle.k == 0 or not (R2 or S2)
                    or not sr or self.ref_canonical.k == 0):
                return True
            return quad_sign(R, S, d) * _lead_sign(cycle) == want
        x = _canonical_if_radical(cycle)
        r, sr = self.ref_canonical, self.ref_self
        p, sx = x.product(r), x.self_product()
        rows = x.row(), r.row()
        if not near_zero(p * p - sx * sr, eps, *rows, *rows):
            return False
        if (self.variant == "both" or _flat(x, eps) or _flat(r, eps)
                or sx == 0 or self.ref_self == 0):
            return True
        return scalar_sign(p) == want if is_exact(p) else (p > 0) == (want > 0)

    def __repr__(self):
        return f"IsTangent({self.ref!r}, {self.variant})"


class SteinerPower(Relation):
    """Power d of the unknown against a k-normalized reference:
    d k_x - <x, R_k> = sign sqrt|<R_k,R_k>| with demand <x,x> = -1.

    An exact candidate is decided on its form against ``R_k``'s primitive
    int row ``P``, ``R_k = P n/m``, when that and d = a/b are rational:
    then ``lhs`` is a positive multiple of ``s (a m k_x - b n <x, P>)``
    over the candidate's form (:func:`_form_parts`)."""

    demand = -1

    def __init__(self, ref: Cycle, power: Scalar):
        if ref.k == 0:
            raise ValueError("power against a flat reference is undefined")
        self.ref = ref
        self.power = lift(power)
        self.ref_k = ref.scaled(1 / lift(ref.k))
        self.ref_self = self.ref_k.self_product()
        base = pairing_coeffs(ref.metric, self.ref_k)
        self.coeffs = (self.power - base[0],) + tuple(-c for c in base[1:])
        fr = self.ref_k.integer_form()
        self.ref_prim = (fr[0] if fr and not fr[2]
                         and type(self.power) is Fraction else None)
        if self.ref_prim:
            # R_k leads with k = 1, so n > 0
            n, m = fr[3], fr[4]
            a, b = self.power.numerator, self.power.denominator
            self.form_coeffs = a * m, b * n, (b * n) ** 2 * integer_pairing(
                ref.metric.weights, fr[0], fr[0])

    def build(self, ar, lam=1):
        return ar.sqrt(lam * self.ref_self)

    def satisfied_by(self, cycle, eps):
        parts = _form_parts(cycle, self.ref.metric, self.ref_prim)
        if parts is not None:
            # lhs^2 = <x,x> <R_k,R_k>: T^2 = (b n)^2 <P,P> (R2 + S2 sqrt d)
            R, S, R2, S2, d = parts
            fx = cycle.integer_form()
            cp, cr, k = self.form_coeffs
            tp = cp * fx[0][0] - cr * R
            tq = (cp * fx[1][0] if fx[1] else 0) - cr * S
            if tp * tp + d * tq * tq != k * R2 or 2 * tp * tq != k * S2:
                return False
            return (cycle.k == 0
                    or quad_sign(tp, tq, d) * _lead_sign(cycle) >= 0)
        cycle = _canonical_if_radical(cycle)
        r, sr = self.ref_k, self.ref_self
        lhs = self.power * cycle.k - cycle.product(r)
        rhs_sq = cycle.self_product() * sr
        rows = cycle.row(), r.row()
        if not near_zero(lhs * lhs - rhs_sq, eps, *rows, *rows):
            return False
        return (_flat(cycle, eps) or lhs >= 0
                or near_zero(lhs, eps, *rows, *rows))

    def __repr__(self):
        return f"SteinerPower({self.ref!r}, {self.power})"


# ---------------------------------------------------------------------------
# linear stage

EPS_RANK = 1e-10


class Reduced(NamedTuple):
    """A linear system in reduced row echelon form, as :func:`linear_solve`
    hands it back; its callers read it back.

    ``rows`` holds the reduced rows, the unknowns' columns first and the
    rhs columns last, and ``pivots`` their ``(row, col)`` pairs.
    ``consistent`` has one flag per rhs column: is that column's system
    consistent?  ``rows`` is None when none is.  ``ring`` is the type the
    rows are kept in: ``int`` or ``QuadExt`` for a primitive row over the
    ints or Z[sqrt d] (a rhs over sqrt d makes it Z[sqrt d]) with its pivot
    as the elimination left it, ``float`` for a row scaled to a unit
    pivot.  A column reads back over the field
    (:meth:`particular`, :meth:`basis`) or, from int rows, in ints over the
    lcm of the pivots (:meth:`integer_rows`).
    """

    rows: Optional[list]
    pivots: List[Tuple[int, int]]
    nunk: int
    ring: type
    consistent: Tuple[bool, ...]

    def solution(self):
        """``(particular, basis)`` of rhs column 0 over the field: an
        exact entry is the quotient of a row's entry by its pivot, a
        Fraction or a QuadExt; ``(None, None)`` when inconsistent."""
        p = self.particular()
        return (None, None) if p is None else (p, self.basis())

    def _entry(self, r: int, col: int, j: int):
        """Entry ``j`` of row ``r`` over its pivot in column ``col``."""
        row = self.rows[r]
        if self.ring is float:
            return row[j]
        return _quotient(row[j], row[col])

    def particular(self, column: int = 0) -> Optional[tuple]:
        """The particular row of rhs column ``column``: each pivot column
        reads its row's rhs entry, every free column 0; None when that
        column's system is inconsistent."""
        if not self.consistent[column]:
            return None
        nunk = self.nunk
        p = [0.0 if self.ring is float else _ZERO] * nunk
        for r, col in self.pivots:
            p[col] = self._entry(r, col, nunk + column)
        return tuple(p)

    def basis(self) -> list:
        """One row per free column: 1 there and the negated entries of
        that column in the pivot columns."""
        zero, one = (0.0, 1.0) if self.ring is float else (_ZERO, _ONE)
        pivot_cols = {col for _, col in self.pivots}
        basis = []
        for free in range(self.nunk):
            if free in pivot_cols:
                continue
            v = [zero] * self.nunk
            v[free] = one
            for r, col in self.pivots:
                v[col] = -self._entry(r, col, free)
            basis.append(tuple(v))
        return basis

    def _scaled(self, j: int, L: int) -> list:
        """Column ``j`` over the pivots times ``L``, a multiple of the pivot
        of each row with an entry there: ``A[r][j] * (L // A[r][col])``."""
        v = [0] * self.nunk
        for r, col in self.pivots:
            row = self.rows[r]
            if row[j]:
                v[col] = row[j] * (L // row[col])
        return v

    def integer_rows(self, column: int):
        """Rhs column ``column`` of int rows read back as ints ``(L, basis,
        P)``, ``L`` the lcm of ``|pivot|``: ``basis()`` is ``[V / L for V
        in basis]`` and ``particular(column)`` is ``P / L``.  A basis row
        holds ``L`` in its free column and ``-L`` times that column over the
        pivot in each pivot column (:meth:`_scaled`).  None for rows that
        are not ints (a rhs over sqrt d makes them Z[sqrt d] rows) or an
        inconsistent column."""
        if self.ring is not int or not self.consistent[column]:
            return None
        nunk = self.nunk
        L = math.lcm(*[self.rows[r][col] for r, col in self.pivots])
        pivot_cols = {col for _, col in self.pivots}
        basis = []
        for free in range(nunk):
            if free not in pivot_cols:
                V = self._scaled(free, -L)
                V[free] = L
                basis.append(tuple(V))
        return L, basis, self._scaled(nunk + column, L)


def linear_solve(rows: List[Row], nunk: int,
                 ring: Optional[type] = None) -> Reduced:
    """Gauss-Jordan: the system's :class:`Reduced` form, which its callers
    read back.

    A row is ``(coeffs, rhs)``, ``rhs`` one scalar or a tuple of them, one
    per rhs column, and each column is a system of its own, consistent or
    not (``solve`` gives each sign pattern one column).  The pivots depend
    on the unknowns' columns alone and every column is eliminated entry by
    entry, so a column reads back as the elimination of its own system
    would read it: in the same values, and for float rows in the same bits
    as long as every row's largest magnitude is the same in each column's
    system.

    ``ring`` None reads the ring off the entry types (:func:`_ring`);
    ``float`` forces the float loop.  An exact system is eliminated
    fraction-free (:func:`_fraction_free`) and kept in the ring it ran in:
    the ints, or Z[sqrt d] when an entry is a ``QuadExt``, a rhs entry
    included.  Float rows partial-pivot, rank-test against EPS_RANK times
    the original row magnitude and are scaled to unit pivots.
    """
    full = [(*coeffs, *rhs) if type(rhs) is tuple else (*coeffs, rhs)
            for coeffs, rhs in rows]
    ncols = len(full[0]) - nunk if full else 1
    if ring is None:
        ring = _ring({type(c) for row in full for c in row})
    if ring is not float:
        cleared, primitive = _CLEARING[ring]
        A = [cleared(row) for row in full]
        A, pivots = _fraction_free(A, nunk, primitive)
        rest = A[len(pivots):]
        consistent = tuple([not any(row[j] for row in rest)
                            for j in range(nunk, nunk + ncols)]) \
            if rest else (True,) * ncols
        return Reduced(A if any(consistent) else None, pivots, nunk,
                       QuadExt if ring is QuadExt else int, consistent)
    A = [[float(c) for c in row] for row in full]
    norms = [row_scale(row) for row in A]
    pivots: List[Tuple[int, int]] = []
    rank = 0
    for col in range(nunk):
        pr, best = None, 0.0
        for i in range(rank, len(A)):
            mag = abs(A[i][col])
            if mag > best and mag > EPS_RANK * norms[i]:
                best, pr = mag, i
        if pr is None:
            continue
        A[rank], A[pr] = A[pr], A[rank]
        norms[rank], norms[pr] = norms[pr], norms[rank]
        piv = A[rank][col]
        A[rank] = [c / piv for c in A[rank]]
        for i in range(len(A)):
            if i != rank and A[i][col] != 0:
                f = A[i][col]
                A[i] = [a - f * b for a, b in zip(A[i], A[rank])]
        pivots.append((rank, col))
        rank += 1
    consistent = tuple([all(abs(A[i][j]) <= EPS_RANK * norms[i]
                            for i in range(rank, len(A)))
                        for j in range(nunk, nunk + ncols)])
    return Reduced(A if any(consistent) else None, pivots, nunk, float,
                   consistent)


def _fraction_free(A: list, nunk: int, primitive):
    """Fraction-free Gauss-Jordan (Bareiss 1968) of the rows ``A`` of an
    exact system, each already a primitive row over the ints or Z[sqrt d]:
    ``(rows, pivots)`` of its reduced row echelon form, rows past the rank
    included.

    Each column pivots on its first nonzero row at or below the rank, and
    every other row with an entry there becomes ``piv*row - f*prow``, made
    ``primitive``: divided by the gcd of its integer parts.  No row is
    divided by its pivot, so the rows stay in the ring; the reduced row
    echelon form is unique up to the scale of each row, so an entry over
    its row's pivot reads back as a field elimination gives it
    (:meth:`Reduced._entry`).
    """
    pivots: List[Tuple[int, int]] = []
    rank, n = 0, len(A)
    for col in range(nunk):
        for pr in range(rank, n):
            if A[pr][col]:
                break
        else:
            continue
        A[rank], A[pr] = A[pr], A[rank]
        prow = A[rank]
        piv = prow[col]
        for i in range(n):
            row = A[i]
            f = row[col]
            if f and i != rank:
                A[i] = primitive([piv * a - f * b for a, b in zip(row, prow)])
        pivots.append((rank, col))
        rank += 1
    return A, pivots


def _ring(kinds: set) -> type:
    """The ring of an elimination whose entries have types ``kinds``:
    ``int`` (rows only made primitive), ``Fraction`` (cleared to ints),
    ``QuadExt`` (any other exact types) or ``float``."""
    if kinds <= {int, Fraction}:
        return Fraction if Fraction in kinds else int
    exact = all(issubclass(t, (int, Fraction, QuadExt)) for t in kinds)
    return QuadExt if exact else float


def _integer_row(row):
    """A rational row as its primitive int row (:func:`integer_form`) with
    the row's own sign, a positive multiple of the row; zeros for a zero
    row or one with an entry that is not an int or a Fraction."""
    form = integer_form(row)
    if not form:
        return [0] * len(row)
    prim = form[0]
    return prim if form[3] > 0 else tuple([-v for v in prim])


def _primitive(row: List[int]) -> List[int]:
    """An integer row divided by the gcd of its entries."""
    g = math.gcd(*row)
    return [c // g for c in row] if g > 1 else row


def _radical_row(row) -> list:
    """A primitive row of ints and QuadExts with ``n == 1``."""
    den = math.lcm(*[c.n if isinstance(c, QuadExt) else c.denominator
                     for c in row])
    return _primitive_radical([c * den if isinstance(c, QuadExt)
                               else c.numerator * (den // c.denominator)
                               for c in row])


def _primitive_radical(row: list) -> list:
    """A row of ints, Fractions with denominator 1 and QuadExts with ``n ==
    1`` divided by the gcd of their integer parts."""
    g = math.gcd(*[x for c in row for x in (
        (c.p, c.q) if isinstance(c, QuadExt) else (c.numerator,))])
    return [_quad(c.p // g, c.q // g, 1, c.d) if isinstance(c, QuadExt)
            else c // g for c in row] if g > 1 else row


# how each exact ring clears an input row and makes a new row primitive
_CLEARING = {int: (_primitive, _primitive),
             Fraction: (_integer_row, _primitive),
             QuadExt: (_radical_row, _primitive_radical)}

_ZERO, _ONE = Fraction(0), Fraction(1)


def _quotient(a, b):
    """``a / b`` as a Fraction or a QuadExt."""
    return Fraction(a, b) if type(a) is int and type(b) is int else a / b


# ---------------------------------------------------------------------------
# solution container


@dataclass
class SolutionSet:
    """What :func:`solve` found: the cycles, or a parametric family
    ``base + span``.  ``residual_demand`` is the sign s of the demand
    <x,x> = s lam the family leaves unsolved (None: none), whatever lam
    the solve scaled it by."""

    status: str                      # "finite" | "parametric" | "infeasible"
    cycles: List[Cycle] = field(default_factory=list)
    provenance: List[tuple] = field(default_factory=list)
    base: Optional[Cycle] = None
    span: List[Cycle] = field(default_factory=list)
    residual_demand: Optional[int] = None
    reason: str = ""
    demoted: bool = False
    notes: List[str] = field(default_factory=list)

    def __len__(self):
        return len(self.cycles)

    def __iter__(self):
        return iter(self.cycles)

    @property
    def projective_dim(self) -> int:
        if self.status != "parametric":
            return 0
        extra = 1 if self.base is not None and any(
            c != 0 for c in self.base.row()) else 0
        return len(self.span) - 1 + extra


# ---------------------------------------------------------------------------
# branch machinery


def _quad_roots(a, b, c, ar: Arithmetic):
    """Roots of a t^2 + 2 b t + c = 0; None = identically satisfied."""
    exact = ar.exact and all(is_exact(v) for v in (a, b, c))
    if not exact:
        a, b, c = to_float(a), to_float(b), to_float(c)
    abc = (a, b, c)
    if near_zero(a, 1e-13, abc):
        if near_zero(b, 1e-13, abc):
            return None if near_zero(c, 1e-10, abc) else []
        return [-c / (2 * b)]
    disc = b * b - a * c
    if not exact:
        # a discriminant at rounding-noise level is a double root, not a
        # pair of spuriously split solutions; c is floored at 1 as in
        # near_zero, so b = 0 and c at noise do not leave the scale at noise
        dscale = max(b * b, abs(a) * max(abs(c), 1.0), 1e-300)
        if disc <= 1e-12 * dscale:
            return [-b / a] if disc >= -1e-10 * dscale else []
        r = disc ** 0.5
        return sorted({(-b - r) / a, (-b + r) / a})
    sgn = scalar_sign(disc)
    if sgn < 0:
        return []
    if sgn == 0:
        return [-b / a]
    root = ar.sqrt(disc)
    if ar.demoted:
        a, b = to_float(a), to_float(b)
        return sorted({(-b - root) / a, (-b + root) / a})
    return [(-b - root) / a, (-b + root) / a]


def _combine(p, v, t):
    return tuple(pc + t * vc for pc, vc in zip(p, v))


def _solve_branch(metric, red: Reduced, column: int, demand,
                  ar: Arithmetic, bases: list):
    """The candidates of rhs column ``column`` of the reduced system
    ``red``, one sign branch: its linear stage plus at most one quadratic
    demand.  ``bases`` holds ``red.basis()`` once a branch of the solve
    has read it: it is read when the field rows are read back, once.

    Returns (list of rows | None, parametric tuple | None).  A column of
    int rows, its rhs rational, stays in ints from the elimination to the
    candidate rows (:meth:`Reduced.integer_rows`): a single basis row is
    the candidate, and a line against a nonzero demand, or a pencil
    against a point demand, meets it in :func:`_line_candidates`.  It
    reads back the field rows (:func:`_field_candidates`) only for a
    parametric result, a homogeneous system with a nonzero demand, and no
    free column with a nonzero demand; so do float eliminations and those
    over Z[sqrt d], rational rows with a rhs over sqrt d among them.
    """
    if not red.consistent[column]:
        return [], None
    ints = ar.exact and red.integer_rows(column)
    if ints:
        L, basis, P = ints
        w, dim = metric.weights, len(basis)
        homogeneous = not any(P)
        sols = None
        if dim < 2 and (demand is None or demand == 0 and homogeneous):
            ok = dim and (demand is None or not integer_pairing(
                w, basis[0], basis[0]))
            return (basis if ok else []), None
        if demand == 0 and homogeneous and dim == 2:
            sols = _line_candidates(w, L, *basis, 0, ar)
        elif demand and not homogeneous and dim == 1:
            sols = _line_candidates(w, L, basis[0], P, demand, ar)
        if sols is not None:
            return sols, None
    if not bases:
        bases.append(red.basis())
    return _field_candidates(metric, red.particular(column), bases[0],
                             demand, ar)


def _field_candidates(metric, p, basis, demand, ar: Arithmetic):
    """The candidates of one branch from its field rows: the particular row
    ``p`` and the ``basis``, then at most one quadratic demand."""
    dim = len(basis)
    homogeneous = all(near_zero(c, 1e-12) for c in p)

    if demand is None:
        if dim == 0:
            return [], None          # only the trivial row
        if dim == 1:
            return [basis[0]], None
        return None, (None, basis, None)

    Q = lambda x, y: row_product(metric, x, y)

    if homogeneous:
        if dim == 0:
            return [], None
        if demand == 0:
            if dim == 1:
                v = basis[0]
                ok = near_zero(Q(v, v), 1e-9, v, v)
                return ([v] if ok else []), None
            if dim == 2:
                sols = _binary_quadratic(Q, basis[0], basis[1], ar)
                if sols is None:
                    return None, (None, basis, None)  # whole line isotropic
                return sols, None
            return None, (None, basis, 0)
        # <x,x> = s != 0 fixes the scale along the line
        if dim == 1:
            qv = Q(basis[0], basis[0])
            if near_zero(qv, 1e-12, basis[0], basis[0]):
                return [], None
            t2 = lift(demand) / qv
            if scalar_sign(t2) < 0:
                return [], None
            t = ar.sqrt(t2)
            return [tuple(t * c for c in basis[0])], None
        return None, (None, basis, demand)

    if dim == 0:
        ok = near_zero(Q(p, p) - demand, 1e-9, p, p)
        return ([p] if ok else []), None
    if dim == 1:
        v = basis[0]
        roots = _quad_roots(Q(v, v), Q(p, v), Q(p, p) - demand, ar)
        if roots is None:
            return None, ((p,), basis, None)  # demand holds along the line
        if ar.demoted and is_exact(p[0]):
            p = tuple(to_float(c) for c in p)
            v = tuple(to_float(c) for c in v)
        return [_combine(p, v, t) for t in roots], None
    return None, ((p,), basis, demand)


def _line_candidates(w, L, V, P, demand, ar: Arithmetic):
    """:func:`_field_candidates` of the line ``p + t v``, ``p = P / L``,
    ``v = V / L`` (:meth:`Reduced.integer_rows`), against the demand
    ``<x,x> = demand``, in ints: ``a``, ``b``, ``c`` are ``L**2`` times the
    field rows'.  A point demand reads the pencil spanned by two
    homogeneous rows, ``V`` and ``P``, as :func:`_binary_quadratic` does:
    ``V`` is then a root when isotropic.

    ``a = 0``, a zero discriminant and a perfect-square one are settled
    in ints (:func:`math.isqrt`).  Any other root is taken once, in
    ``ar``, on the field discriminant ``(b^2 - ac) / L^4``.  An exact root
    ``(rp + rq sqrt D) / rn`` gives ``rn (a P - b V) -+ L^2 (rp + rq sqrt
    D) V``, a rational multiple of the field row, -root first: a row of
    ``(x + y sqrt D)``.  A float root gives the field rows' floats bit for
    bit.  None when ``a``, ``b`` and ``c`` are all 0, which the field rows
    take."""
    a = integer_pairing(w, V, V)
    L2 = L * L
    b, c = integer_pairing(w, P, V), integer_pairing(w, P, P) - demand * L2
    if not a:
        head = [V] if demand == 0 else []
        if not b:
            return None if not c else head
        # the one root t = -c / 2b, times 2 b^2: -c b
        return head + [_root_row(2 * b * b, P, -c * b, 0, V, 0)]
    disc = b * b - a * c
    if disc < 0:
        return []
    r = math.isqrt(disc)
    if r * r == disc:
        rp, rq, rn, M, D = r, 0, 1, 1, 0
    else:
        root = ar.sqrt(Fraction(disc, L2 * L2))
        if type(root) is float:
            # x / n is float(Fraction(x, n)): int / int rounds correctly
            fa, fb = a / L2, b / L2
            fp, fv = [x / L for x in P], [x / L for x in V]
            return [_combine(fp, fv, t)
                    for t in sorted({(-fb - root) / fa, (-fb + root) / fa})]
        rp, rq, rn, M, D = root.p, root.q, root.n, L2, root.d
    return [_root_row(rn * a, P, s * rp - rn * b, s * rq, V, D)
            for s in ((-M, M) if rp or rq else (0,))]


def _root_row(k, P, tp, tq, V, D):
    """The row ``k P + (tp + tq sqrt D) V``: ints, or ``(x + y sqrt D)``
    entries when ``tq`` is nonzero."""
    xp = [k * x + tp * v for x, v in zip(P, V)]
    if not tq:
        return tuple(xp)
    return tuple([_quad(x, tq * v, 1, D) for x, v in zip(xp, V)])


def _binary_quadratic(Q, v1, v2, ar: Arithmetic):
    """Projective roots of Q(t v1 + u v2) = 0."""
    a, b, c = Q(v1, v1), Q(v1, v2), Q(v2, v2)
    v12 = tuple(v1) + tuple(v2)
    if all(near_zero(x, 1e-12, v12, v12) for x in (a, b, c)):
        return None  # the whole line is isotropic; caller reports parametric
    sols = []
    if not near_zero(a, 1e-12, v12, v12):
        # an exact a is nonzero here; a float a may still be zero at the
        # (a, b, c) scale of _quad_roots, which then answers None: no roots
        for t in _quad_roots(a, b, c, ar) or []:
            sols.append(_combine(v2, v1, t))
    else:
        sols.append(v1)
        if not near_zero(b, 1e-12, v12, v12):
            sols.append(tuple(c * x - 2 * b * y for x, y in zip(v1, v2)))
    return sols


# ---------------------------------------------------------------------------
# driver


def solve(relations: Sequence[Relation], metric: Metric,
          arithmetic="exact") -> SolutionSet:
    """Intersect the relations in one pass from them to the kept cycles.

    One loop reads each relation's demand, row and row entry types; a
    point demand (:class:`IsPoint`) makes every rhs and the demand 0, and
    two others conflict.  Each row's rhs is built once.  A homogeneous
    plane system of int rows, three of them and no demand or two against
    a point demand, reads its candidates off its minors
    (:func:`_plane_candidates`); any other system, or one of those whose
    minors are all 0, makes one elimination with a column per sign
    pattern.  Each candidate of every pattern is verified against every
    relation (an exact one on its integer form) and deduplicated, and the
    kept cycles come back in a deterministic order (:func:`_kept`)."""
    ar = (arithmetic.clone() if isinstance(arithmetic, Arithmetic)
          else Arithmetic(arithmetic))
    exact = ar.exact
    demands, live, kinds = set(), [], set()
    for i, r in enumerate(relations):
        if r.demand is not None:
            demands.add(r.demand)
        c = r.row(exact)
        if c is not None:
            live.append((i, r, c))
            kinds.update(map(type, c))
    if len(demands) > 1 and 0 not in demands:
        return SolutionSet("infeasible",
                           reason=f"conflicting demands {sorted(demands)}")
    demand = 0 if 0 in demands else next(iter(demands), None)
    rational = kinds <= {int, Fraction}      # the coefficient rows
    lam = _square_class(relations) if exact and demand and rational else 1
    rhs = [0 if demand == 0 else r.build(ar, lam) for _, r, _ in live]
    kinds.update(map(type, rhs))
    ring = _ring(kinds) if ar.exact else float
    if exact and ring is float:
        # a build demoted or the data has a float: the elimination runs
        # in floats on every row as its data gives it
        live = [(i, r, r.row(False)) for i, r, _ in live]
    signed = [i for (i, _, _), v in zip(live, rhs) if v]
    if ring is int and not signed and metric.n == 2:
        found = _plane_candidates([c for _, _, c in live], demand,
                                  metric.weights, ar)
        if found is not None:
            pattern = (None,) * len(relations)
            return _kept(relations, metric, [
                (srow, (pattern, idx)) for idx, srow in enumerate(found)],
                [ar], None, demand)
    if 2 ** len(signed) > MAX_BRANCHES:
        raise BranchOverflow(
            f"{2 ** len(signed)}+ sign branches (cap {MAX_BRANCHES})")
    axes = [(None,)] * len(relations)
    for j, i in enumerate(signed):   # the twin -sigma gives the same cycles
        axes[i] = (1, -1) if j else (1,)
    # one elimination: row i holds one rhs column per pattern, sigma_i r_i
    patterns = list(iproduct(*axes))
    red = linear_solve([(c, tuple([v if p[i] == 1 else -v for p in patterns])
                         if v else (v,) * len(patterns))
                        for (i, _, c), v in zip(live, rhs)], metric.n + 2, ring)
    radicands = {v.d for v in rhs if type(v) is QuadExt}
    if ring is QuadExt and rational and len(radicands) == 1:
        ar.adopt(*radicands)         # a rhs over sqrt d: roots share it
    contexts, bases, found, parametric = [ar], [], [], None
    for column, pattern in enumerate(patterns):
        if len(signed) > 1:
            contexts.append(ar.clone())
        sols, par = _solve_branch(metric, red, column, demand and demand * lam,
                                  contexts[-1], bases)
        parametric = parametric or par
        found += [(srow, (pattern, idx)) for idx, srow in enumerate(sols or ())]
    return _kept(relations, metric, found, contexts, parametric, demand)


# the column pairs of a plane pencil's 2x2 minors, in the order in which
# an elimination picks its pivot columns
_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def _plane_candidates(rows, demand, w, ar: Arithmetic):
    """The candidates of a homogeneous plane system of int rows read off
    its minors, as the elimination's one branch gives them
    (:func:`_solve_branch`), or None when it must eliminate.

    Three rows and no demand meet in the one cycle of their signed 3x3
    minors, None when they are all 0 (rank below 3).  Two rows against a
    point demand span a pencil, read off their 2x2 minors as
    :meth:`Reduced.integer_rows` gives it: the pivots are the first pair
    of columns with a nonzero minor ``m``, and the basis row of each free
    column, in ascending order, holds ``|m|`` there, so ``|m|`` stands for
    ``L`` and the field rows are the elimination's; :func:`_line_candidates`
    meets it, None when every minor is 0 or the pencil is isotropic.  Any
    other shape is None."""
    if demand is None and len(rows) == 3:
        a, (b0, b1, b2, b3), (c0, c1, c2, c3) = rows
        p01, p02, p03 = b0 * c1 - b1 * c0, b0 * c2 - b2 * c0, b0 * c3 - b3 * c0
        p12, p13, p23 = b1 * c2 - b2 * c1, b1 * c3 - b3 * c1, b2 * c3 - b3 * c2
        x = (a[1] * p23 - a[2] * p13 + a[3] * p12,
             a[2] * p03 - a[0] * p23 - a[3] * p02,
             a[0] * p13 - a[1] * p03 + a[3] * p01,
             a[1] * p02 - a[0] * p12 - a[2] * p01)
        return [x] if any(x) else None
    if demand != 0 or len(rows) != 2:
        return None
    a, b = rows
    for i, j in _PAIRS:
        m = a[i] * b[j] - a[j] * b[i]
        if m:
            break
    else:
        return None
    s = 1 if m > 0 else -1
    basis = []
    for f in range(4):
        if f != i and f != j:
            V = [0] * 4
            V[f] = s * m
            V[i] = s * (a[j] * b[f] - a[f] * b[j])
            V[j] = s * (a[f] * b[i] - a[i] * b[f])
            basis.append(tuple(V))
    return _line_candidates(w, s * m, *basis, 0, ar)


def _kept(relations, metric, found, contexts, parametric,
          demand) -> SolutionSet:
    """The :class:`SolutionSet` of a solve's candidates ``found``, ``(row,
    provenance)`` pairs: each is verified against every relation,
    deduplicated and ordered; an exact verdict is projective and decided
    on the candidate's form, and only a kept candidate builds its
    canonical cycle.  With none kept, the ``parametric`` result of a
    branch, or infeasible; ``contexts`` are the branches' arithmetic."""
    demoted = any(c.demoted for c in contexts)
    notes = [note for c in contexts for note in c.notes]
    kept, eps = {}, None
    for srow, prov in found:
        form = type(srow[0]) is not float and integer_form(srow)
        if form and not form[2]:
            if form[0] not in kept:
                x = Cycle.from_primitive(metric, form[0])
                if all(rel.satisfied_by(x, 0.0) for rel in relations):
                    kept[form[0]] = x.canonical(), prov
            continue
        if form:
            x = Cycle.from_row(metric, srow, form)
            if all(rel.satisfied_by(x, 0.0) for rel in relations):
                can = x.canonical()
                kept.setdefault(_dedup_key(can), (can, prov))
            continue
        can = Cycle.from_row(metric, srow).canonical()
        if eps is None and type(can.k) is float:
            eps = comparison_eps()
        if all(rel.satisfied_by(can, eps or 0.0) for rel in relations):
            kept.setdefault(_dedup_key(can), (can, prov))
    ordered = list(kept.values())
    if len(ordered) > 1:
        keys = [_sort_key(c) for c, _ in ordered]
        if len(set(keys)) < len(keys):
            keys = [(k, _tie_key(c)) for k, (c, _) in zip(keys, ordered)]
        ordered = [cp for _, cp in sorted(zip(keys, ordered),
                                          key=itemgetter(0))]

    if ordered:
        return SolutionSet("finite", [c for c, _ in ordered],
                           [p for _, p in ordered], demoted=demoted, notes=notes)
    if parametric is not None:
        pbase, pbasis, ps = parametric
        note = notes + (["residual quadratic demand left unsolved"]
                        if ps is not None else [])
        return SolutionSet(
            "parametric",
            base=Cycle.from_row(metric, pbase[0]) if pbase else None,
            span=[Cycle.from_row(metric, b) for b in pbasis],
            residual_demand=ps and demand,  # the sign, not s * lam
            demoted=demoted, notes=note)
    return SolutionSet("infeasible", reason="no cycle satisfies the relations",
                       demoted=demoted, notes=notes)


def _square_class(relations: Sequence[Relation]) -> int:
    """The scale lam of a solve's nonzero demand <x,x> = s lam whose
    coefficient rows are rational: the squarefree core of the first
    nonzero |<R,R>| of its references (read off ``ref_self``, a rational
    square times <R,R>), when every |<R,R>| and every theta is rational;
    1 otherwise.  The demand is projective, and each rhs theta sqrt(lam
    |<R_i,R_i>|) is rational when the references share lam's square
    class."""
    lam = 0
    for r in relations:
        if isinstance(r, InversiveDistance) and type(r.theta) is not Fraction:
            return 1
        ss = getattr(r, "ref_self", 0)
        if type(ss) is not int and type(ss) is not Fraction:
            return 1
        if ss and not lam:
            lam = radical_parts(abs(ss))[1].numerator
    return lam or 1


def _dedup_key(can: Cycle):
    """The key a kept canonical cycle is deduplicated on: its primitive
    int row when it is rational, its form's ints over Q(sqrt d), else
    :meth:`Cycle.key`."""
    form = can.integer_form()
    return (can.key() if not form else form[0] if not form[2] else
            (tuple(form[0]), tuple(form[1]), form[2], form[4]))


def _sort_key(c: Cycle):
    """The order of the kept solutions: the entries as floats rounded to 9
    digits, and only where two of those tie also :func:`_tie_key`.  A
    canonical exact row is ``(P + Q sqrt d) / den``, and its entry's float
    is ``P_i / den + Q_i / den * sqrt(d)``, as ``float`` gives it (int
    division rounds correctly)."""
    form = c.integer_form()
    if not form:
        return tuple(round(to_float(v), 9) + 0 for v in c.row())
    P, Q, d, _, den = form[:5]
    if not Q:
        return tuple([round(v / den, 9) + 0 for v in P])
    r = math.sqrt(d)
    return tuple([round(p / den + q / den * r, 9) + 0 for p, q in zip(P, Q)])


def _tie_key(c: Cycle):
    return tuple(repr(v) for v in c.row())


def check(relations: Sequence[Relation], cycle: Cycle,
          eps: Optional[float] = None) -> bool:
    """Do the relations hold for this concrete cycle?"""
    eps = comparison_eps() if eps is None else eps
    can = cycle.canonical()
    return all(rel.satisfied_by(can, eps) for rel in relations)
