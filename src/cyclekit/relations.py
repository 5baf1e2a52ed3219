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
signed row is +1 are solved.  ``build`` takes lam.  With an IsPoint
present every rhs is 0 and so is the demand.  Solutions are checked back
against every relation, deduplicated projectively and returned in a
deterministic order.

The coefficient rows do not depend on the signs, so every solve makes
one elimination (:func:`linear_solve`): row i carries one rhs column per
sign pattern, sigma_i r_i, and each pattern reads its own column back
(:func:`_solve_branch`).  A column reads back as the pattern's own
elimination would read it: the pivots depend on the coefficients alone,
each column is eliminated entry by entry, and a row's signed rhs differ
only in sign, so a float row keeps its largest magnitude and its floats
round as they would alone.  A system over two radicands raises its
RadicalClash in that elimination.  Rational rows with a Q(sqrt d) rhs are
eliminated over the ints, each rhs column split into its rational part
and its sqrt d coefficient; a context that holds no radicand then adopts
d, so a root over another radicand demotes rather than clashes.

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
over Z[sqrt d] (:func:`_line_candidates`); every other result reads back
Fractions and QuadExts.  A rational candidate is deduplicated and
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
candidate pairs with a float copy of its relation's fixed reference row
and self product, made once per relation: Python computes a float times a
Fraction as the float times its float, so the bits are the ones the exact
reference gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from itertools import product as iproduct
from operator import itemgetter
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
        cycle.  An exact row against rational data is decided on its
        integer form in ints."""
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
        return (prim[-1], *[w * l for w, l in zip(self.ref.metric.weights,
                                                  prim[1:-1])], prim[0])

    @cached_property
    def ref_float(self) -> Cycle:
        """The reference's float copy, which a float candidate pairs with
        (see :meth:`InversiveDistance.reference`); made on first use."""
        return self.ref.as_float()

    def satisfied_by(self, cycle, eps):
        # two exact rows over one radicand in one product metric: the int
        # pairing of their forms is zero or not in its two parts
        fx = cycle.integer_form()
        fr = fx and self.ref.integer_form()
        if fr and cycle.metric.product_eta == self.ref.metric.product_eta:
            parts = form_pairing(cycle.metric.weights, fx, fr)
            if parts is not None:
                return not any(parts)
        ref = self.ref_float if type(cycle.k) is float else self.ref
        return near_zero(cycle.product(ref), eps, cycle.row(), ref.row())

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
    """Zero-radius demand <x,x> = 0; turns tangency-like rows into incidence."""

    demand = 0

    def __init__(self, metric: Metric):
        self.metric = metric

    def satisfied_by(self, cycle, eps):
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
        self.ref_float = self.ref_canonical.as_float()
        self.ref_self_float = float(self.ref_self)
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

    def reference(self, cycle: Cycle):
        """The canonical reference and its self product as ``cycle`` pairs
        with them: a float candidate (its canonical row is all floats) with
        their float copies, made once in ``__init__``.  A float times a
        Fraction, an int or a QuadExt is computed as the float times its
        float, so the products keep their bits."""
        if type(cycle.k) is float:
            return self.ref_float, self.ref_self_float
        return self.ref_canonical, self.ref_self

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
        r = self.reference(x)[0]
        p, sx = x.product(r), x.self_product()
        lhs = p * p
        rhs = th * th * abs(sx) * abs(self.ref_self)
        rows = x.row(), r.row()
        if not near_zero(lhs - rhs, eps, *rows, *rows):
            return False
        if th == 0 or x.k == 0 or r.k == 0:
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
        r, sr = self.reference(x)
        p, sx = x.product(r), x.self_product()
        rows = x.row(), r.row()
        if not near_zero(p * p - sx * sr, eps, *rows, *rows):
            return False
        if (self.variant == "both" or x.k == 0 or r.k == 0 or sx == 0
                or self.ref_self == 0):
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
        # the float copies a float candidate pairs with, as in
        # InversiveDistance.reference
        self.ref_float = self.ref_k.as_float()
        self.ref_self_float = float(self.ref_self)
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
        r, sr = ((self.ref_float, self.ref_self_float)
                 if type(cycle.k) is float else (self.ref_k, self.ref_self))
        lhs = self.power * cycle.k - cycle.product(r)
        rhs_sq = cycle.self_product() * sr
        rows = cycle.row(), r.row()
        if not near_zero(lhs * lhs - rhs_sq, eps, *rows, *rows):
            return False
        return cycle.k == 0 or lhs >= 0 or near_zero(lhs, eps, *rows, *rows)

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
    ints or Z[sqrt d] with its pivot as the elimination left it, ``float``
    for a row scaled to a unit pivot.  ``d`` is the radicand of split rhs
    columns, 0 for none: int rows hold rhs column j's rational part in
    rhs column j and its sqrt d coefficient k columns later, k the number
    of rhs columns.  A column reads back over the field
    (:meth:`particular`, :meth:`basis`) or, from int rows, in ints over the
    lcm of the pivots (:meth:`integer_rows`).
    """

    rows: Optional[list]
    pivots: List[Tuple[int, int]]
    nunk: int
    ring: type
    consistent: Tuple[bool, ...]
    d: int

    def solution(self):
        """``(particular, basis)`` of rhs column 0 over the field: an
        exact entry is the quotient of a row's entry by its pivot, a
        Fraction or a QuadExt; ``(None, None)`` when inconsistent."""
        p = self.particular()
        return (None, None) if p is None else (p, self.basis())

    def _entry(self, r: int, col: int, j: int):
        """Entry ``j`` of row ``r`` over its pivot in column ``col``; a
        split rhs entry joins its sqrt d coefficient."""
        row = self.rows[r]
        if self.ring is float:
            return row[j]
        b = self.d and j >= self.nunk and row[j + len(self.consistent)]
        return _quad(row[j], b, row[col], self.d) if b else \
            _quotient(row[j], row[col])

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
        P, Q)``, ``L`` the lcm of ``|pivot|``: ``basis()`` is ``[V / L for V
        in basis]`` and ``particular(column)`` is ``(P + Q sqrt d) / L``,
        ``Q`` ``()`` with no radical part.  A basis row holds ``L`` in its
        free column and ``-L`` times that column over the pivot in each
        pivot column (:meth:`_scaled`).  None for rows that are not ints or
        an inconsistent column."""
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
        j = nunk + column
        Q = self.d and self._scaled(j + len(self.consistent), L)
        return L, basis, self._scaled(j, L), Q if Q and any(Q) else ()


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
    the ints, or Z[sqrt d] when an entry is a ``QuadExt``.  When only the
    rhs has radical parts, all over one radicand d, each rhs column is
    split into its rational part and its sqrt d coefficient and the
    elimination stays over the ints (``Reduced.d``).  Float rows
    partial-pivot, rank-test against EPS_RANK times the original row
    magnitude and are scaled to unit pivots.
    """
    full = [(*coeffs, *rhs) if type(rhs) is tuple else (*coeffs, rhs)
            for coeffs, rhs in rows]
    ncols = len(full[0]) - nunk if full else 1
    if ring is None:
        ring = _ring({type(c) for row in full for c in row})
    if ring is not float:
        cleared, primitive = _CLEARING[ring]
        A = [cleared(row) for row in full]
        d = _split_radicand(A, nunk) if ring is QuadExt else 0
        if d:
            A = [[*row[:nunk], *[c.p if type(c) is QuadExt else c
                                 for c in row[nunk:]],
                  *[c.q if type(c) is QuadExt else 0 for c in row[nunk:]]]
                 for row in A]
            ring, primitive = int, _primitive
        A, pivots = _fraction_free(A, nunk, primitive)
        rest = A[len(pivots):]
        consistent = tuple([not any(row[j] or d and row[j + ncols]
                                    for row in rest)
                            for j in range(nunk, nunk + ncols)]) \
            if rest else (True,) * ncols
        return Reduced(A if any(consistent) else None, pivots, nunk,
                       QuadExt if ring is QuadExt else int, consistent, d)
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
                   consistent, 0)


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


def _split_radicand(A: list, nunk: int) -> int:
    """The radicand of the rhs of the cleared Z[sqrt d] rows ``A`` when
    every coefficient is an int and the rhs's radical parts are all over
    that one radicand; 0 otherwise."""
    if any(type(c) is QuadExt for row in A for c in row[:nunk]):
        return 0
    ds = {c.d for row in A for c in row[nunk:] if type(c) is QuadExt}
    return ds.pop() if len(ds) == 1 else 0


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
        # pair of spuriously split solutions
        dscale = max(b * b, abs(a * c), 1e-300)
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
    int rows, its rhs rational or split over the context's radicand,
    stays in ints from the elimination to the candidate rows
    (:meth:`Reduced.integer_rows`): a single basis row is the candidate,
    and a line against a nonzero demand, or a pencil against a point
    demand, meets it in :func:`_line_candidates`.  It reads back the field
    rows (:func:`_field_candidates`) only for a parametric result, a
    homogeneous system with a nonzero demand, no free column with a
    nonzero demand, and a split rhs over a radicand the context does not
    hold; so do float eliminations and those over Z[sqrt d].
    """
    if not red.consistent[column]:
        return [], None
    ints = (ar.exact and (not red.d or ar.radicand == red.d)
            and red.integer_rows(column))
    if ints:
        L, basis, P, Q = ints
        w, dim = metric.weights, len(basis)
        homogeneous = not (Q or any(P))
        sols = None
        if dim < 2 and (demand is None or demand == 0 and homogeneous):
            ok = dim and (demand is None or not integer_pairing(
                w, basis[0], basis[0]))
            return (basis if ok else []), None
        if demand == 0 and homogeneous and dim == 2:
            sols = _line_candidates(w, L, *basis, (), 0, 0, ar)
        elif demand and not homogeneous and dim == 1:
            sols = _line_candidates(w, L, basis[0], P, Q, red.d, demand, ar)
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

    # the pairings of p, basis[0] and basis[1], each row's form made once
    forms = {id(x): integer_form(x) for x in (p, *basis[:2])}
    Q = lambda x, y: row_product(metric, x, y, forms[id(x)], forms[id(y)])

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


def _line_candidates(w, L, V, P, Q, d, demand, ar: Arithmetic):
    """:func:`_field_candidates` of the line ``p + t v``, ``p = (P + Q sqrt
    d) / L``, ``v = V / L`` (:meth:`Reduced.integer_rows`), against the
    demand ``<x,x> = demand``, in ints over Z[sqrt d]: ``a``, ``b``, ``c``
    are ``L**2`` times the field rows'.  A point demand reads the pencil
    spanned by two homogeneous rows, ``V`` and ``P`` (``Q`` empty), as
    :func:`_binary_quadratic` does: ``V`` is then a root when isotropic.

    ``a = 0``, a zero discriminant and a perfect-square one are settled
    in ints (:func:`math.isqrt`).  Any other root is taken once, in
    ``ar``, on the field discriminant ``(b^2 - ac) / L^4``.  An exact root
    ``(rp + rq sqrt D) / rn`` gives ``rn (a (P + Q sqrt d) - b V) -+ L^2
    (rp + rq sqrt D) V``, a rational multiple of the field row, -root
    first: an int row or a row of ``(x + y sqrt D)``.  A float root gives the field rows'
    floats bit for bit, as ``float(QuadExt)`` gives them.  None when ``a``,
    ``b`` and ``c`` are all 0, which the field rows take."""
    a = integer_pairing(w, V, V)
    L2 = L * L
    bp, cp, bq, cq = (integer_pairing(w, P, V),
                      integer_pairing(w, P, P) - demand * L2, 0, 0)
    if Q:
        bq = integer_pairing(w, Q, V)
        cp += d * integer_pairing(w, Q, Q)
        cq = 2 * integer_pairing(w, P, Q)
    if not a:
        head = [V] if demand == 0 else []
        if not (bp or bq):
            return None if not (cp or cq) else head
        # the one root t = -c / 2b, times 2n, n the norm of b: -c conj(b)
        n = bp * bp - d * bq * bq
        return head + [_root_row(2 * n, P, Q, d * cq * bq - cp * bp,
                                 cp * bq - cq * bp, V, d)]
    dp, dq = bp * bp + d * bq * bq - a * cp, 2 * bp * bq - a * cq
    if dq:
        disc = _quad(dp, dq, L2 * L2, d)
        if scalar_sign(disc) < 0:
            return []
    elif dp < 0:
        return []
    else:
        r = math.isqrt(dp)
        disc = None if r * r == dp else Fraction(dp, L2 * L2)
    if disc is None:
        rp, rq, rn, M, D = r, 0, 1, 1, d
    else:
        root = ar.sqrt(disc)
        if type(root) is float:
            # x / n is float(Fraction(x, n)): int / int rounds correctly
            fl = lambda x, y, n: x / n + y / n * math.sqrt(d) if y else x / n
            fa, fb = a / L2, fl(bp, bq, L2)
            fp = [fl(x, y, L) for x, y in zip(P, Q or [0] * len(P))]
            fv = [x / L for x in V]
            return [_combine(fp, fv, t)
                    for t in sorted({(-fb - root) / fa, (-fb + root) / fa})]
        rp, rq, rn, M, D = root.p, root.q, root.n, L2, root.d
    return [_root_row(rn * a, P, Q, s * rp - rn * bp, s * rq - rn * bq, V, D)
            for s in ((-M, M) if rp or rq else (0,))]


def _root_row(k, P, Q, tp, tq, V, D):
    """The row ``k (P + Q sqrt D) + (tp + tq sqrt D) V``: ints, or
    ``(x + y sqrt D)`` entries when a ``y`` is nonzero."""
    xp = [k * x + tp * v for x, v in zip(P, V)]
    if not (Q or tq):
        return tuple(xp)
    xq = [k * y + tq * v for y, v in zip(Q or [0] * len(V), V)]
    return (tuple([_quad(x, y, 1, D) for x, y in zip(xp, xq)]) if any(xq)
            else tuple(xp))


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
    """Intersect all relations; enumerate sign branches; verify; order."""
    point_mode = any(isinstance(r, IsPoint) for r in relations)
    demands = {r.demand for r in relations if r.demand is not None}
    if point_mode:
        demands = {0}
    elif len(demands) > 1:
        return SolutionSet("infeasible",
                           reason=f"conflicting demands {sorted(demands)}")
    demand = next(iter(demands), None)

    ar = (arithmetic.clone() if isinstance(arithmetic, Arithmetic)
          else Arithmetic(arithmetic))
    exact = ar.exact
    coeffs = [r.row(exact) for r in relations]
    lam = _square_class(relations, coeffs) if exact and demand else 1
    rhs = [None if c is None else 0 if point_mode else r.build(ar, lam)
           for r, c in zip(relations, coeffs)]
    live = [i for i, c in enumerate(coeffs) if c is not None]
    ring = float
    if ar.exact:
        # the one type scan: the ring of the rows and their rhs
        ring = _ring({type(v) for i in live for v in coeffs[i]}
                     | {type(rhs[i]) for i in live})
    if exact and ring is float:
        # a build demoted or the data has a float: the elimination runs
        # in floats on every row as its data gives it
        coeffs = [r.row(False) for r in relations]
    axes = [(None,) if v is None or v == 0 else (1, -1) for v in rhs]
    signed = [i for i, axis in enumerate(axes) if axis[0] is not None]
    if 2 ** len(signed) > MAX_BRANCHES:
        raise BranchOverflow(
            f"{2 ** len(signed)}+ sign branches (cap {MAX_BRANCHES})")
    if signed:
        axes[signed[0]] = (1,)       # the twin -sigma gives the same cycles
    # one elimination: row i holds one rhs column per pattern, sigma_i r_i
    patterns = list(iproduct(*axes))
    red = linear_solve([(coeffs[i], (rhs[i],) * len(patterns)
                         if len(axes[i]) == 1 else
                         tuple([rhs[i] if p[i] == 1 else -rhs[i]
                                for p in patterns]))
                        for i in live], metric.n + 2, ring)
    if red.d:
        ar.adopt(red.d)              # a rhs over sqrt d: roots share it
    bases: list = []
    found: List[Tuple[Cycle, tuple]] = []
    parametric = None
    contexts = [ar]
    for column, pattern in enumerate(patterns):
        if len(signed) > 1:
            contexts.append(ar.clone())
        sols, par = _solve_branch(metric, red, column, demand and demand * lam,
                                  contexts[-1], bases)
        if par is not None and parametric is None:
            pbase, pbasis, ps = par
            parametric = (
                Cycle.from_row(metric, pbase[0]) if pbase else None,
                [Cycle.from_row(metric, b) for b in pbasis],
                ps and demand,       # the demand's sign, not s * lam
            )
        for idx, srow in enumerate(sols or []):
            found.append((srow, (pattern, idx)))
    demoted = any(c.demoted for c in contexts)
    notes = [note for c in contexts for note in c.notes]

    # verify, dedup and order; an exact verdict is projective and decided
    # on the candidate's form, and only a kept candidate builds its
    # canonical cycle
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
        base, span, resid = parametric
        note = notes + (["residual quadratic demand left unsolved"]
                        if resid is not None else [])
        return SolutionSet("parametric", base=base, span=span,
                           residual_demand=resid, demoted=demoted, notes=note)
    return SolutionSet("infeasible", reason="no cycle satisfies the relations",
                       demoted=demoted, notes=notes)


def _square_class(relations: Sequence[Relation], coeffs: list) -> int:
    """The scale lam of a solve's nonzero demand <x,x> = s lam: the
    squarefree core of the first nonzero |<R,R>| of its references (read
    off ``ref_self``, a rational square times <R,R>), when every
    coefficient row, every |<R,R>| and every theta is rational; 1
    otherwise.  The demand is projective, and each rhs theta sqrt(lam
    |<R_i,R_i>|) is rational when the references share lam's square
    class."""
    if not all(type(v) is int or type(v) is Fraction
               for c in coeffs if c is not None for v in c):
        return 1
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
