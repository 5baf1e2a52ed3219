"""The four benchmark workloads, each driving the public cyclekit API.

A workload turns a seed into a deterministic stream of items, builds its
starting state, runs one item, and checks the item's answer.  Every item
draws from its own ``random.Random`` keyed by (seed, workload, index), so
item ``i`` is the same whatever ran before it.  The program under test
sees only the generated inputs.  Traced functions are called through their
module attribute, so a wrapper installed there sees the call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, List

from cyclekit import contfrac, relations, render
from cyclekit.contfrac import ContinuedFraction
from cyclekit.cycle import Cycle, Metric
from cyclekit.figure import (Degenerate, Figure, nine_point_figure,
                             orthogonal)
from cyclekit.numerics import format_scalar, is_exact, parse_scalar
from cyclekit.relations import IsOrthogonal, IsTangent, check

E2 = Metric.named("e")
H2 = Metric.named("h")


@dataclass
class Verdict:
    """What the correctness gate found for one item."""

    ok: bool = True
    rejected: bool = False          # a typed Degenerate, recorded not failed
    answers: int = 0
    exact_answers: int = 0
    exact_rows: List[str] = field(default_factory=list)
    float_rows: int = 0
    why: str = ""

    def fail(self, why: str) -> "Verdict":
        self.ok = False
        self.why = why
        return self

    def answer(self, cycles, demoted: bool = False) -> None:
        """Count one answer and file its rows: exact rows are kept for the
        digest, float-demoted rows are only counted."""
        exact = not demoted
        for c in cycles:
            row = c.row()
            if all(is_exact(v) for v in row):
                self.exact_rows.append(",".join(format_scalar(v) for v in row))
            else:
                self.float_rows += 1
                exact = False
        self.answers += 1
        self.exact_answers += exact


def _rng(seed: int, name: str, index: int) -> random.Random:
    return random.Random(f"{seed}:{name}:{index}")


def _frac(rng: random.Random, span: int, den: int) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def _triangle(rng: random.Random):
    return [(_frac(rng, 8, 3), _frac(rng, 8, 3)) for _ in range(3)]


def _figure_cycles(fig: Figure) -> List[Cycle]:
    return [c for label in fig.labels() for c in fig.instances(label)]


# ---------------------------------------------------------------------------
# ninepoint: the rational figure path, no parent ever reused


class NinePoint:
    """One random rational triangle through ``nine_point_figure`` in the
    elliptic and then the hyperbolic metric."""

    name = "ninepoint"
    trace_items = 120
    want_kind = {"e": "circle", "h": "equilateral-hyperbola"}

    def items(self, seed: int) -> Iterator:
        i = 0
        while True:
            yield _triangle(_rng(seed, self.name, i))
            i += 1

    def setup_inputs(self, seed: int):
        return None

    def setup(self, inputs):
        return (E2, H2)

    def run(self, state, tri):
        out = []
        for metric in state:
            try:
                out.append(nine_point_figure(*tri, metric=metric))
            except Degenerate:
                out.append(None)
        return out

    def gate(self, state, tri, results) -> Verdict:
        v = Verdict()
        for metric, res in zip(state, results):
            if res is None:
                v.rejected = True
                continue
            if not res.verdict:
                return v.fail(f"{metric.label()}: nine points off the conic")
            if res.kind != self.want_kind[metric.label()]:
                return v.fail(f"{metric.label()}: conic kind {res.kind}")
            v.answer(_figure_cycles(res.figure))
        return v


# ---------------------------------------------------------------------------
# apollonius: the branch and quadratic stage, no figure layer


class Apollonius:
    """Three ``IsTangent`` relations on random rational circles.

    Circles have rational centres and radius s or s*sqrt(2), s rational.
    Three radius-s circles pin sqrt(2) while building the tangency rows,
    so the quadratic stage mostly needs a nested radical and demotes to
    float.  Every fourth item uses radius s*sqrt(2) instead, whose rows
    stay rational, so the whole solve stays exact in one Q(sqrt d).  The
    fixed interleave keeps the exact share from depending on the seed.
    """

    name = "apollonius"
    trace_items = 400

    def items(self, seed: int) -> Iterator:
        i = 0
        while True:
            rng = _rng(seed, self.name, i)
            factor = 2 if i % 4 == 0 else 1
            circles = []
            for _ in range(3):
                centre = (_frac(rng, 6, 4), _frac(rng, 6, 4))
                s = Fraction(rng.randint(1, 6), rng.randint(1, 3))
                circles.append(Cycle.circle(E2, centre, factor * s * s))
            yield [IsTangent(c) for c in circles]
            i += 1

    def setup_inputs(self, seed: int):
        return None

    def setup(self, inputs):
        return E2

    def run(self, metric, rels):
        return relations.solve(rels, metric, "exact")

    def gate(self, metric, rels, sols) -> Verdict:
        v = Verdict()
        for c in sols:
            if not check(rels, c):
                return v.fail(f"solution {c!r} misses its relations")
        v.answer(sols, sols.demoted)
        return v


# ---------------------------------------------------------------------------
# chains: continued fractions, never touching relations or figure


class Chains:
    """One random simple continued fraction of 24 terms, drawn as horocycle
    chains in all three arrangements."""

    name = "chains"
    trace_items = 150
    terms = 24
    arrangements = ("tangent", "orthogonal", "ortho45")

    def items(self, seed: int) -> Iterator:
        i = 0
        while True:
            rng = _rng(seed, self.name, i)
            yield ContinuedFraction.simple(
                rng.randint(0, 9), [rng.randint(1, 9) for _ in range(self.terms)])
            i += 1

    def setup_inputs(self, seed: int):
        return None

    def setup(self, inputs):
        return self.terms

    def run(self, n, cf):
        return [contfrac.chain(cf, n, arrangement) for arrangement in self.arrangements]

    def gate(self, n, cf, chains) -> Verdict:
        v = Verdict()
        for ch in chains:
            if len(ch.horocycles) != n + 1:
                return v.fail(f"{ch.arrangement}: {len(ch.horocycles)} "
                              f"horocycles, want {n + 1}")
            v.answer(ch.horocycles + ch.connecting)
        return v


# ---------------------------------------------------------------------------
# edit: the write path of the figure layer


SUBFIGURES = 4
LINKED = 3          # the extra node is orthogonal to the first LINKED conics


def _vertex(sub: int, corner: str) -> str:
    return f"s{sub}_{corner}"


class Edit:
    """Move one vertex of a figure made of four nine-point subfigures, then
    render it.

    The starting figure binds each subfigure to its own three points and
    adds one node orthogonal to three of the four conics.  Each item is one
    ``set_data`` on one vertex, in a seeded order, followed by
    ``render_figure``.  The generator tracks the positions itself and keeps
    a move only when the moved triangle still gives a nine-point figure and
    the extra node still has a solution, so every edit is solvable.
    """

    name = "edit"
    trace_items = 50
    corners = "ABC"

    def _fit(self, tri):
        try:
            return nine_point_figure(*tri, metric=E2).conic
        except Degenerate:
            return None

    def _linked_ok(self, conics) -> bool:
        rels = [IsOrthogonal(c) for c in conics[:LINKED]]
        return relations.solve(rels, E2, "exact").status == "finite"

    def setup_inputs(self, seed: int):
        """The four starting triangles as exact strings."""
        tris, conics = self._start(seed)
        return [[[format_scalar(x) for x in p] for p in tri] for tri in tris]

    def _start(self, seed: int):
        rng = _rng(seed, self.name, -1)
        while True:
            tris, conics = [], []
            while len(tris) < SUBFIGURES:
                tri = _triangle(rng)
                conic = self._fit(tri)
                if conic is not None:
                    tris.append(tri)
                    conics.append(conic)
            if self._linked_ok(conics):
                return tris, conics

    def items(self, seed: int) -> Iterator:
        tris, conics = self._start(seed)
        tris = [list(t) for t in tris]
        i = 0
        while True:
            rng = _rng(seed, self.name, i)
            while True:
                sub = rng.randrange(SUBFIGURES)
                corner = rng.randrange(3)
                point = (_frac(rng, 8, 3), _frac(rng, 8, 3))
                tri = list(tris[sub])
                tri[corner] = point
                conic = self._fit(tri)
                if conic is None:
                    continue
                moved = list(conics)
                moved[sub] = conic
                if sub >= LINKED or self._linked_ok(moved):
                    break
            tris[sub], conics = tri, moved
            yield _vertex(sub, self.corners[corner]), point
            i += 1

    def setup(self, start) -> Figure:
        fig = Figure(E2)
        for sub, tri in enumerate(start):
            pts = [tuple(parse_scalar(x) for x in p) for p in tri]
            inner = nine_point_figure(*pts, metric=E2).figure
            bindings = {}
            for corner, pt in zip(self.corners, pts):
                bindings[corner] = fig.add_point(pt, _vertex(sub, corner))
            fig.add_subfigure(inner, bindings, "conic", f"conic{sub}")
        fig.add_cycle_rel([orthogonal(f"conic{sub}") for sub in range(LINKED)],
                          "linked")
        return fig

    def run(self, fig: Figure, edit):
        label, point = edit
        fig.set_data(label, point)
        return render.render_figure(fig)

    def gate(self, fig: Figure, edit, svg) -> Verdict:
        v = Verdict()
        unsolved = [lab for lab in fig.labels() if fig.status(lab) != "solved"]
        if unsolved:
            return v.fail(f"unsolved nodes {unsolved}")
        bad = fig.validate()
        if bad:
            return v.fail(f"validate: {bad[0]}")
        if not (svg.startswith("<svg") and svg.endswith("</svg>\n")):
            return v.fail("render produced no svg document")
        v.answer(_figure_cycles(fig))
        return v


WORKLOADS = {w.name: w for w in (NinePoint(), Apollonius(), Chains(), Edit())}
