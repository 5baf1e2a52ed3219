"""Spans around cyclekit's public functions, installed from outside.

``Tracer.install`` replaces each traced function with a wrapper at every
place the name is looked up: the attribute of every loaded ``cyclekit``
module that holds the same function object, or the method in the
``__dict__`` of every class that defines it.  Each call records one span
(name, start, end, parent) in flat in-memory arrays; ``uninstall`` puts
the originals back.  Self time is a span's duration minus the durations
of its direct children (calls nest, so children never overlap).
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from cyclekit import contfrac, cycle, figure, numerics, relations, render

def _all_subclasses(cls) -> List[type]:
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_all_subclasses(sub))
    return out


# (span name, owner, attribute): a module owner means "wherever this
# function is bound in a cyclekit module"; a class owner means "this method
# in the class and every subclass that defines its own".
FUNCTIONS = (
    ("relations.linear_solve", relations, "linear_solve"),
    ("relations.solve", relations, "solve"),
    ("contfrac.chain", contfrac, "chain"),
    ("contfrac.horocycle_images", contfrac, "horocycle_images"),
    ("render.render_figure", render, "render_figure"),
)
METHODS = (
    ("relations.Relation.build", relations.Relation, "build"),
    ("relations.Relation.satisfied_by", relations.Relation, "satisfied_by"),
    ("cycle.Cycle.canonical", cycle.Cycle, "canonical"),
    ("cycle.Cycle.key", cycle.Cycle, "key"),
    ("cycle.Cycle.product", cycle.Cycle, "product"),
    ("numerics.QuadExt.mul", numerics.QuadExt, "__mul__"),
    ("numerics.QuadExt.mul", numerics.QuadExt, "__rmul__"),
    ("numerics.Arithmetic.sqrt", numerics.Arithmetic, "sqrt"),
    ("figure.Figure.reevaluate", figure.Figure, "reevaluate"),
    ("figure.Figure.from_obj", figure.Figure, "from_obj"),
)
# relations.solve as looked up by the figure module gets a second, outer
# span, so calls made through the figure layer can be told apart.
VIA_FIGURE = ("figure.solve", figure, "solve")


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: List[int] = []
        self.counts: Counter = Counter()     # outcome counters for ratios
        self.solve_size: Dict[int, int] = {}  # solve span -> relation count
        self.active = True
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------
    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(i)
        self.start[i] = perf_counter()
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        i = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(i)

    @contextmanager
    def paused(self):
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def wrap(self, name: str, fn: Callable,
             outcome: Optional[Callable] = None) -> Callable:
        nid = self._id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            i = tracer._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(i)
            if outcome is not None:
                outcome(tracer, i, args, out)
            return out

        return traced

    # -- installing ----------------------------------------------------------------
    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        wrappers: Dict[int, Callable] = {}
        for name, owner, attr in targets():
            member = owner.__dict__[attr]
            if id(member) not in wrappers:
                if isinstance(member, staticmethod):
                    wrapped = staticmethod(self.wrap(name, member.__func__))
                else:
                    wrapped = self.wrap(name, member, _OUTCOMES.get(name))
                wrappers[id(member)] = wrapped
            self._patch(owner, attr, wrappers[id(member)])
        name, module, attr = VIA_FIGURE
        self._patch(module, attr, self.wrap(name, getattr(module, attr)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading -------------------------------------------------------------------
    def summary(self, scale: Optional[Dict[int, float]] = None
                ) -> Dict[str, Dict[str, float]]:
        """Per span name: calls and self seconds.  ``scale`` maps a root
        span to a factor applied to every span under it."""
        n = len(self.start)
        child = array("d", bytes(8 * n))
        root = array("i", range(n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
                root[i] = root[p]
        out: Dict[str, Dict[str, float]] = {
            name: {"calls": 0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            rec = out[self.names[self.name[i]]]
            factor = scale.get(root[i], 1.0) if scale else 1.0
            rec["calls"] += 1
            rec["self_s"] += factor * (self.end[i] - self.start[i] - child[i])
        return out

    def branches(self) -> float:
        """Sign branches tried: each branch builds every relation once, so
        the build spans under a solve divided by its relation count."""
        solve_id = self._ids.get("relations.solve")
        build_id = self._ids.get("relations.Relation.build")
        per_solve: Counter = Counter()
        for i in range(len(self.start)):
            p = self.parent[i]
            if self.name[i] == build_id and p >= 0 and self.name[p] == solve_id:
                per_solve[p] += 1
        return sum(builds / self.solve_size[p] for p, builds in per_solve.items())

    def spans(self):
        """Rows (name, parent, start, end) in recording order."""
        return [(self.names[self.name[i]], self.parent[i], self.start[i], self.end[i])
                for i in range(len(self.start))]


def _cyclekit_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "cyclekit" or name.startswith("cyclekit."))]


def targets() -> List[Tuple[str, object, str]]:
    """(span name, owner, attribute) for every binding ``install``
    replaces, VIA_FIGURE's outer span aside."""
    out = []
    for name, module, attr in FUNCTIONS:
        original = module.__dict__[attr]
        out += [(name, mod, attr) for mod in _cyclekit_modules()
                if mod.__dict__.get(attr) is original]
    for name, base, attr in METHODS:
        out += [(name, cls, attr) for cls in _all_subclasses(base)
                if attr in cls.__dict__]
    return out


def bindings(where: List[Tuple[str, object, str]]) -> Dict[Tuple[int, str], object]:
    """What each of ``where`` (from ``targets``, taken before installing)
    holds now, to prove a restore."""
    return {(id(owner), attr): owner.__dict__[attr] for _, owner, attr in where}


def _linear_outcome(tracer, i, args, out):
    tracer.counts["relations.linear_solve.inconsistent"] += out[0] is None


def _solve_outcome(tracer, i, args, out):
    tracer.solve_size[i] = len(args[0])
    tracer.counts["relations.solve.solutions"] += len(out)
    tracer.counts["relations.solve.demoted"] += bool(out.demoted)


_OUTCOMES = {
    "relations.linear_solve": _linear_outcome,
    "relations.solve": _solve_outcome,
}
