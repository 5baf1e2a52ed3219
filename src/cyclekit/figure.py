"""Figures: named ensembles of cycles linked by relations, solved as a DAG.

A figure stores nodes by label.  Explicit rows and points sit at
generation 0, a relation-defined node lands one generation above its
newest parent, and two predefined nodes exist from the start: the
boundary line at generation REAL_LINE_GEN and the zero-radius cycle at
infinity at INFINITY_GEN.  Point nodes keep their coordinates and
re-derive the row from the metric.

Quadratic relations produce solution pairs, so a node may carry several
instances.  Children are solved once per combination of parent
instances, and every instance remembers the ancestor instances it was
built from; checks and measurements pair instances with consistent
ancestries instead of mixing branches.  Editing a data node re-solves
only the nodes downstream of it: every other node would get the same
instances back.  A subfigure node keeps its inner figure between runs and
rebinds only the slots whose outer cycle changed, so an edit re-solves
only the inner nodes downstream of those slots.

Continuous families are not enumerated.  When a solve leaves free
parameters the node is marked parametric and blocks its children; the
caller selects concrete representatives with ``pins`` (extra relations
used only for selection) or discards known spurious roots with
``avoid`` (labels whose instances are excluded projectively).

``_KINDS`` is the one list of relation kinds; spec checks, solves and the
JSON codec all read it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import product as iproduct
from math import acos, acosh, pi, sqrt as _fsqrt
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .clifford import Infinity, Mat2, Mv, mobius_apply
from .cycle import Cycle, Metric, decode_scalar, encode_scalar, parse_metric
from .numerics import (Arithmetic, Scalar, comparison_eps, is_exact, lift,
                       near_zero, row_scale, to_float)
from .relations import (InversiveDistance, IsOrthogonal, IsPoint, IsTangent,
                        OnlyReals, PassesThrough, Relation, SteinerPower,
                        linear_solve, solve)

REAL_LINE_GEN = -2
INFINITY_GEN = -1

REAL_LINE = "real_line"
INFINITY = "infinity"

FORMAT = "figure-v1"


class DuplicateLabel(ValueError):
    """The label is already taken (predefined labels included)."""


class UnknownNode(KeyError):
    pass


class NotEvaluated(RuntimeError):
    """A node (or one of its parents) has no usable instances."""


class TooManyInstances(RuntimeError):
    """Branch product exceeded the per-node cap; nothing was truncated."""


class Degenerate(ValueError):
    """The input configuration makes the construction degenerate."""


class DegenerateMetric(Degenerate):
    """The metric makes the construction degenerate for every input."""


class InvalidTriple(ValueError):
    """Cycles do not satisfy the loxodrome parametrisation constraints."""


# ---------------------------------------------------------------------------
# relation specs: relation kinds bound to parent nodes by label

# The one list of relation kinds: kind -> (relation class, built on a
# parent cycle?, parameter names).  A parent-built kind is constructed as
# cls(parent_cycle, *args), a parentless one as cls(metric, *args).
_KINDS = {
    "orthogonal": (IsOrthogonal, True, ()),
    "tangent": (IsTangent, True, ("variant",)),
    "inversive": (InversiveDistance, True, ("theta",)),
    "power": (SteinerPower, True, ("value",)),
    "through": (PassesThrough, False, ("point",)),
    "is_point": (IsPoint, False, ()),
    "only_reals": (OnlyReals, False, ()),
}


@dataclass(frozen=True)
class RelSpec:
    """One relation kind, referencing a parent node or self-applied;
    ``args`` follow the kind's parameter names in ``_KINDS``."""

    kind: str
    parent: Optional[str] = None
    args: tuple = ()


def orthogonal(parent: str) -> RelSpec:
    return RelSpec("orthogonal", parent)


def tangent(parent: str, variant: str = "both") -> RelSpec:
    if variant not in ("both", "external", "internal"):
        raise ValueError(f"unknown tangency variant {variant!r}")
    return RelSpec("tangent", parent, (variant,))


def inversive(parent: str, theta: Scalar) -> RelSpec:
    return RelSpec("inversive", parent, (theta,))


def power(parent: str, value: Scalar) -> RelSpec:
    return RelSpec("power", parent, (value,))


def through(*point: Scalar) -> RelSpec:
    """Incidence with a fixed point (a constant, not a node)."""
    return RelSpec("through", None, (tuple(point),))


def is_point() -> RelSpec:
    return RelSpec("is_point")


def only_reals() -> RelSpec:
    return RelSpec("only_reals")


# ---------------------------------------------------------------------------
# nodes


@dataclass(frozen=True)
class Instance:
    """One concrete cycle plus the ancestor instance indices it came from."""

    cycle: Cycle
    context: Dict[str, int]

    def __repr__(self):
        return f"Instance({self.cycle!r}, {self.context})"


@dataclass
class FigureNode:
    label: str
    kind: str                 # predefined | cycle | point | rel | subfigure
    generation: int
    relations: Tuple[RelSpec, ...] = ()
    pins: Tuple[RelSpec, ...] = ()
    avoid: Tuple[str, ...] = ()
    point: Optional[Tuple[Scalar, ...]] = None
    row: Optional[Cycle] = None
    inner: Optional[dict] = None
    bindings: Tuple[Tuple[str, str], ...] = ()
    result: Optional[str] = None
    status: str = "pending"   # pending | solved | parametric | infeasible
    instances: List[Instance] = field(default_factory=list)
    reason: str = ""
    # a subfigure's inner figure as last run; runtime state, never serialized
    kept: Optional["Figure"] = field(default=None, repr=False, compare=False)

    def solve_parents(self) -> Tuple[str, ...]:
        """Node labels whose instances parametrise the solve, in first
        mention order."""
        if self.kind == "subfigure":
            seen: List[str] = []
            for _, outer in self.bindings:
                if outer not in seen:
                    seen.append(outer)
            return tuple(seen)
        seen = []
        for spec in self.relations + self.pins:
            if spec.parent is not None and spec.parent not in seen:
                seen.append(spec.parent)
        return tuple(seen)

    def parent_labels(self) -> Tuple[str, ...]:
        out = list(self.solve_parents())
        for lab in self.avoid:
            if lab not in out:
                out.append(lab)
        return tuple(out)

    def cycles(self) -> List[Cycle]:
        return [inst.cycle for inst in self.instances]


def _set_row(node: FigureNode, row: Cycle) -> FigureNode:
    """Make ``row`` the data node's row and its one instance."""
    node.row = row
    node.instances = [Instance(row, {node.label: 0})]
    node.status = "solved"
    return node


def _merge_contexts(contexts) -> Optional[Dict[str, int]]:
    out: Dict[str, int] = {}
    for ctx in contexts:
        for k, v in ctx.items():
            if out.setdefault(k, v) != v:
                return None   # would mix two branches of a shared ancestor
    return out


def _consistent(a: Dict[str, int], b: Dict[str, int]) -> bool:
    if len(b) < len(a):
        a, b = b, a
    return all(b.get(k, v) == v for k, v in a.items())


# ---------------------------------------------------------------------------
# the figure


class Figure:
    """Single-writer ensemble of cycles; reads are safe without a writer."""

    def __init__(self, metric: Optional[Metric] = None, arithmetic: str = "exact",
                 max_instances: int = 64):
        if arithmetic not in ("exact", "float"):
            raise ValueError(f"unknown arithmetic mode {arithmetic!r}")
        self.metric = metric or Metric.named("e")
        self.arithmetic = arithmetic
        self.max_instances = max_instances
        self.mode = "unfreeze"
        self._nodes: Dict[str, FigureNode] = {}
        self._install_predefined()

    # -- predefined and data nodes ------------------------------------------
    def _install_predefined(self):
        for label, gen, row in (
                (REAL_LINE, REAL_LINE_GEN, Cycle.real_line(self.metric)),
                (INFINITY, INFINITY_GEN, Cycle.infinity(self.metric))):
            self._nodes[label] = _set_row(
                FigureNode(label, "predefined", gen), row)

    def _claim(self, label: str):
        if not label or not isinstance(label, str):
            raise ValueError("label must be a non-empty string")
        if label in self._nodes:
            raise DuplicateLabel(f"label {label!r} is already used")

    def _as_cycle(self, data) -> Cycle:
        c = data if isinstance(data, Cycle) else Cycle.from_row(self.metric, data)
        if c.metric != self.metric:
            raise ValueError("cycle belongs to a different metric")
        if all(v == 0 for v in c.row()):
            raise ValueError("the zero row is not a cycle")
        return c

    def add_cycle(self, data, label: str) -> str:
        self._claim(label)
        self._nodes[label] = _set_row(FigureNode(label, "cycle", 0),
                                      self._as_cycle(data))
        return label

    def add_point(self, point: Sequence[Scalar], label: str) -> str:
        """Zero-radius node at the point; the row follows the metric."""
        self._claim(label)
        node = FigureNode(label, "point", 0, point=tuple(point))
        self._nodes[label] = _set_row(
            node, Cycle.zero_radius_at(self.metric, node.point))
        return label

    # -- relation nodes -------------------------------------------------------
    def _check_specs(self, specs: Sequence[RelSpec]):
        """Refuse a spec whose kind, parent or parameters are wrong now,
        not at solve time: a kind with parameters is built once, on the
        origin as a stand-in parent if it takes one (k = 1 suits all)."""
        for spec in specs:
            if spec.kind not in _KINDS:
                raise ValueError(f"unknown relation kind {spec.kind!r}")
            cls, on_parent, params = _KINDS[spec.kind]
            if on_parent and spec.parent is None:
                raise ValueError(f"{spec.kind} needs a parent label")
            if on_parent and spec.parent not in self._nodes:
                raise UnknownNode(spec.parent)
            if not on_parent and spec.parent is not None:
                raise ValueError(f"{spec.kind} takes no parent")
            if params:
                cls(Cycle(self.metric, 1, (0,) * self.metric.n, 0)
                    if on_parent else self.metric, *spec.args)

    def _generation_for(self, parents: Sequence[str]) -> int:
        gens = [self._nodes[p].generation for p in parents]
        return (max(gens) if gens else -1) + 1

    def add_cycle_rel(self, relations: Sequence[RelSpec], label: str,
                      pins: Sequence[RelSpec] = (),
                      avoid: Sequence[str] = ()) -> str:
        self._claim(label)
        relations = tuple(relations)
        pins = tuple(pins)
        avoid = tuple(avoid)
        if not relations:
            raise ValueError("a relation-defined node needs relations")
        self._check_specs(relations + pins)
        for lab in avoid:
            if lab not in self._nodes:
                raise UnknownNode(lab)
        node = FigureNode(label, "rel", 0, relations=relations, pins=pins,
                          avoid=avoid)
        node.generation = self._generation_for(node.parent_labels())
        return self._install(node)

    def add_subfigure(self, inner, bindings: Dict[str, str], result: str,
                      label: str) -> str:
        """Macro node: bound outer instances replace the inner figure's
        generation-0 slots, only the result node comes back.  The node
        keeps the inner figure it last ran and rebinds it on later runs;
        only ``inner``, ``bindings`` and ``result`` are serialized."""
        self._claim(label)
        obj = inner.to_obj() if isinstance(inner, Figure) else dict(inner)
        names = {n["label"]: n for n in obj.get("nodes", ())}
        for inner_lab, outer_lab in bindings.items():
            slot = names.get(inner_lab)
            if slot is None or slot["kind"] not in ("cycle", "point"):
                raise ValueError(f"binding target {inner_lab!r} is not a "
                                 "generation-0 data node of the subfigure")
            if outer_lab not in self._nodes:
                raise UnknownNode(outer_lab)
        if result not in names and result not in (REAL_LINE, INFINITY):
            raise UnknownNode(result)
        node = FigureNode(label, "subfigure", 0, inner=obj,
                          bindings=tuple(sorted(bindings.items())),
                          result=result)
        node.generation = self._generation_for(node.parent_labels())
        return self._install(node)

    def _install(self, node: FigureNode) -> str:
        """Register a derived node; failed adds leave no trace behind."""
        self._nodes[node.label] = node
        if self.mode == "unfreeze":
            try:
                self._solve_node(node)
                if node.status == "pending":
                    raise NotEvaluated(f"{node.label}: {node.reason}")
            except BaseException:
                del self._nodes[node.label]
                raise
        return node.label

    # -- evaluation ------------------------------------------------------------
    def _concrete(self, spec: RelSpec, by_label: Dict[str, Instance]) -> Relation:
        cls, on_parent, _ = _KINDS[spec.kind]
        return cls(by_label[spec.parent].cycle if on_parent else self.metric,
                   *spec.args)

    def _solve_node(self, node: FigureNode):
        node.instances = []
        node.status = "pending"
        node.reason = ""
        direct = node.solve_parents()
        for lab in direct + node.avoid:
            parent = self._nodes[lab]
            if parent.status != "solved":
                node.reason = f"parent {lab!r} is {parent.status}"
                return
        pools = [self._nodes[p].instances for p in direct]
        specs = node.relations + node.pins
        parametric = False
        reasons: List[str] = []
        for combo in iproduct(*pools):
            ctx = _merge_contexts([inst.context for inst in combo])
            if ctx is None:
                continue
            by_label = dict(zip(direct, combo))
            if node.kind == "rel":
                try:
                    rels = [self._concrete(s, by_label) for s in specs]
                except ValueError as err:   # e.g. power against a flat parent
                    reasons.append(str(err))
                    continue
                sols = solve(rels, self.metric, self.arithmetic)
                if sols.status == "parametric":
                    parametric = True
                    continue
                if sols.status == "infeasible":
                    reasons.append(sols.reason)
                    continue
                cycles = sols.cycles
            else:
                cycles = self._run_subfigure(node, by_label)
                if cycles is None:
                    parametric = True
                    continue
            for c in self._filter_avoid(node, cycles, ctx):
                inst_ctx = dict(ctx)
                inst_ctx[node.label] = len(node.instances)
                node.instances.append(Instance(c, inst_ctx))
                if len(node.instances) > self.max_instances:
                    node.instances = []
                    node.reason = "instance overflow"
                    raise TooManyInstances(
                        f"{node.label}: over {self.max_instances} instances")
        if parametric:
            node.status = "parametric"
            node.reason = "free parameters left; pin or avoid to select"
        elif node.instances:
            node.status = "solved"
        else:
            node.status = "infeasible"
            node.reason = ("; ".join(r for r in reasons if r)
                           or "no parent combination produced instances")

    def _filter_avoid(self, node, cycles, ctx):
        if not node.avoid:
            return cycles
        avoided = [inst.cycle for lab in node.avoid
                   for inst in self._nodes[lab].instances
                   if _consistent(inst.context, ctx)]
        banned = {c.key() for c in avoided}
        return [c for c in cycles if c.key() not in banned]

    def _run_subfigure(self, node, by_label) -> Optional[List[Cycle]]:
        """Bind the outer instances to the inner slots, solve, and return
        the result node's cycles (None when it is parametric).

        The inner figure is built from ``node.inner`` on the first run and
        under a changed metric or arithmetic, and kept, frozen, between
        runs.  A run sets only the slots not already holding the outer
        instance's very cycle (identity: rows that compare equal may differ
        in scalar type) and re-solves their cones in one walk; every node
        of a new figure is pending, so that walk solves it whole.  The
        figure is kept only once a run succeeds, so one that raises leaves
        the next run to rebuild it."""
        inner, node.kept = node.kept, None
        if inner is None or inner.metric != self.metric \
                or inner.arithmetic != self.arithmetic:
            obj = dict(node.inner)
            obj["mode"] = "freeze"      # defer: placeholder rows must not solve
            obj["metric"] = _encode_metric(self.metric)
            obj["arithmetic"] = self.arithmetic
            inner = Figure.from_obj(obj)
        changed = set()
        for inner_lab, outer_lab in node.bindings:
            cycle = by_label[outer_lab].cycle
            if inner._nodes[inner_lab].row is not cycle:
                inner.set_data(inner_lab, cycle)
                changed.add(inner_lab)
        inner._resolve(changed)
        node.kept = inner
        res = inner._nodes[node.result]
        if res.status == "parametric":
            return None
        return res.cycles()

    def freeze(self):
        self.mode = "freeze"

    def unfreeze(self):
        self.mode = "unfreeze"
        self.reevaluate()

    def reevaluate(self):
        """Re-derive every data row and re-solve every derived node."""
        for node in self._nodes.values():
            if node.kind == "point":
                _set_row(node, Cycle.zero_radius_at(self.metric, node.point))
            elif node.kind in ("predefined", "cycle"):
                _set_row(node, node.row)
        self._resolve(None)

    def _resolve(self, changed: Optional[Set[str]]):
        """Re-solve derived nodes in insertion order (a topological order,
        since parents must exist before their children): every one when
        ``changed`` is None, else those downstream of any label in
        ``changed`` and those left pending (by an unsolved parent, or by an
        earlier walk that raised).  The union of the cones is one walk, so
        a node below several changed labels is solved once.

        A node that raises leaves itself and the rest of the walk pending
        with no instances, so no node keeps instances built from old data.
        """
        cone = set(changed or ())
        walk = []
        for node in self._nodes.values():
            if node.kind in ("rel", "subfigure") and (
                    changed is None or node.status == "pending"
                    or cone.intersection(node.parent_labels())):
                cone.add(node.label)
                walk.append(node)
        for i, node in enumerate(walk):
            try:
                self._solve_node(node)
            except BaseException:
                node.instances = []
                for rest in walk[i + 1:]:
                    rest.status, rest.instances = "pending", []
                    rest.reason = f"not re-solved: {node.label!r} raised"
                raise

    def set_data(self, label: str, data):
        """Replace a generation-0 row (or point); an unfrozen figure then
        re-solves the downstream cone of ``label``, the only nodes whose
        parents can have changed."""
        node = self.node(label)
        if node.kind == "point" and not isinstance(data, Cycle) \
                and len(tuple(data)) == self.metric.n:
            node.point = tuple(data)
            _set_row(node, Cycle.zero_radius_at(self.metric, node.point))
        elif node.kind in ("cycle", "point"):
            _set_row(node, self._as_cycle(data))
            if node.kind == "point":
                node.kind = "cycle"   # bound rows no longer track the metric
                node.point = None
        else:
            raise ValueError(f"{label!r} is not a generation-0 data node")
        if self.mode == "unfreeze":
            self._resolve({label})

    def set_metric(self, metric: Metric):
        """Swap the metric under a live figure and re-derive everything."""
        if metric.n != self.metric.n:
            raise ValueError("metric change cannot alter the dimension")
        self.metric = metric
        for label, gen, row in (
                (REAL_LINE, REAL_LINE_GEN, Cycle.real_line(metric)),
                (INFINITY, INFINITY_GEN, Cycle.infinity(metric))):
            self._nodes[label].row = row
        for node in self._nodes.values():
            if node.kind == "cycle":
                node.row = Cycle.from_row(metric, node.row.row())
        if self.mode == "unfreeze":
            self.reevaluate()

    # -- reads -------------------------------------------------------------------
    def node(self, label: str) -> FigureNode:
        node = self._nodes.get(label)
        if node is None:
            raise UnknownNode(label)
        return node

    def labels(self) -> List[str]:
        return list(self._nodes)

    def status(self, label: str) -> str:
        return self.node(label).status

    def generation(self, label: str) -> int:
        return self.node(label).generation

    def instances(self, label: str) -> List[Cycle]:
        return self.node(label).cycles()

    def _solved(self, label: str) -> FigureNode:
        node = self.node(label)
        if node.status != "solved":
            raise NotEvaluated(f"{label!r} is {node.status}")
        return node

    def _pairs(self, na: FigureNode, nb: FigureNode):
        return [(i, j)
                for i, ia in enumerate(na.instances)
                for j, ib in enumerate(nb.instances)
                if _consistent(ia.context, ib.context)]

    def check_rel(self, label_a: str, label_b: str, kind: str):
        """Evaluate a binary relation on every aligned instance pair.

        ``kind`` is the orthogonality or the tangency kind of ``_KINDS``.
        Returns [((i, j), holds, residual), ...]; the residual is the
        pairing for orthogonality and the tangency discriminant for
        tangency, both on canonical representatives.
        """
        cls = _KINDS.get(kind, (None,))[0]
        if cls not in (IsOrthogonal, IsTangent):
            raise ValueError(f"unknown check kind {kind!r}")
        na, nb = self._solved(label_a), self._solved(label_b)
        eps = comparison_eps()
        out = []
        for i, j in self._pairs(na, nb):
            a = na.instances[i].cycle.canonical()
            b = nb.instances[j].cycle.canonical()
            rel = cls(b)
            residual = a.product(b)
            if cls is IsTangent:
                residual = residual ** 2 - a.self_product() * b.self_product()
            out.append(((i, j), rel.satisfied_by(a, eps), residual))
        return out

    def measure(self, label_a: str, label_b: str, quantity: str):
        """Numeric quantities on aligned instance pairs:
        product, normalized_product, inversive_distance, steiner_power."""
        na, nb = self._solved(label_a), self._solved(label_b)
        out = []
        for i, j in self._pairs(na, nb):
            ar = Arithmetic(self.arithmetic)
            a = na.instances[i].cycle
            b = nb.instances[j].cycle
            if quantity == "product":
                value = a.product(b)
            elif quantity in ("normalized_product", "inversive_distance"):
                value = a.normalized_product(b, ar)
            elif quantity == "steiner_power":
                value = _steiner_power(a, b, ar)
            else:
                raise ValueError(f"unknown quantity {quantity!r}")
            out.append(((i, j), value))
        return out

    def validate(self) -> List[str]:
        """Residual sweep: instances must satisfy their defining relations."""
        eps = comparison_eps()
        bad = []
        for node in self._nodes.values():
            if node.kind != "rel" or node.status != "solved":
                continue
            direct = node.solve_parents()
            for inst in node.instances:
                by_label = {p: self._nodes[p].instances[inst.context[p]]
                            for p in direct}
                for spec in node.relations + node.pins:
                    rel = self._concrete(spec, by_label)
                    if not rel.satisfied_by(inst.cycle.canonical(), eps):
                        bad.append(f"{node.label}: {rel!r} fails")
        return bad

    # -- covariance ---------------------------------------------------------------
    def transformed(self, M: Mat2) -> "Figure":
        """Push every generation-0 datum through the map and re-solve.

        Predefined rows transform like any cycle, so relations referencing
        them stay covariant.  Fixed points of ``through`` pins must keep a
        finite image.  Subfigure inner constants are part of the macro and
        do not transform."""
        out = Figure(self.metric, self.arithmetic, self.max_instances)
        out.freeze()
        sig = M.sig
        for node in self._nodes.values():
            if node.kind == "predefined":
                _set_row(out._nodes[node.label], node.row.flt(M))
            elif node.kind == "cycle":
                out.add_cycle(node.row.flt(M), node.label)
            elif node.kind == "point":
                img = mobius_apply(M, Mv.vector(sig, node.point))
                if isinstance(img, Infinity):
                    out.add_cycle(Cycle.infinity(self.metric), node.label)
                else:
                    out.add_point(img.vector_components(), node.label)
            elif node.kind == "rel":
                out.add_cycle_rel(
                    [self._transform_spec(s, M, sig) for s in node.relations],
                    node.label,
                    pins=[self._transform_spec(s, M, sig) for s in node.pins],
                    avoid=node.avoid)
            else:
                out.add_subfigure(node.inner, dict(node.bindings),
                                  node.result, node.label)
        out.unfreeze()
        return out

    def _transform_spec(self, spec: RelSpec, M: Mat2, sig) -> RelSpec:
        if _KINDS[spec.kind][0] is not PassesThrough:
            return spec
        img = mobius_apply(M, Mv.vector(sig, spec.args[0]))
        if isinstance(img, Infinity):
            raise ValueError("pinned point maps to infinity under this map")
        return through(*img.vector_components())

    # -- serialization ---------------------------------------------------------------
    def to_obj(self) -> dict:
        nodes = []
        for node in self._nodes.values():
            if node.kind == "predefined":
                continue
            entry: dict = {"label": node.label, "kind": node.kind}
            if node.kind == "cycle":
                entry["row"] = node.row.to_obj()
            elif node.kind == "point":
                entry["point"] = [encode_scalar(c) for c in node.point]
            elif node.kind == "rel":
                entry["relations"] = [_spec_obj(s) for s in node.relations]
                if node.pins:
                    entry["pins"] = [_spec_obj(s) for s in node.pins]
                if node.avoid:
                    entry["avoid"] = list(node.avoid)
            else:
                entry["inner"] = node.inner
                entry["bindings"] = {k: v for k, v in node.bindings}
                entry["result"] = node.result
            nodes.append(entry)
        return {
            "format": FORMAT,
            "metric": _encode_metric(self.metric),
            "arithmetic": self.arithmetic,
            "mode": self.mode,
            "max_instances": self.max_instances,
            "nodes": nodes,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), indent=2, sort_keys=True)

    @staticmethod
    def from_obj(obj: dict) -> "Figure":
        if obj.get("format") != FORMAT:
            raise ValueError(f"not a {FORMAT} document")
        fig = Figure(_decode_metric(obj["metric"]),
                     arithmetic=obj.get("arithmetic", "exact"),
                     max_instances=obj.get("max_instances", 64))
        fig.mode = "freeze"   # defer solving until the whole DAG is present
        for entry in obj.get("nodes", ()):
            label, kind = entry["label"], entry["kind"]
            if kind == "cycle":
                fig.add_cycle(Cycle.from_obj(fig.metric, entry["row"]), label)
            elif kind == "point":
                fig.add_point([decode_scalar(c) for c in entry["point"]], label)
            elif kind == "rel":
                fig.add_cycle_rel(
                    [_spec_from_obj(o) for o in entry["relations"]], label,
                    pins=[_spec_from_obj(o) for o in entry.get("pins", ())],
                    avoid=tuple(entry.get("avoid", ())))
            elif kind == "subfigure":
                fig.add_subfigure(entry["inner"], dict(entry["bindings"]),
                                  entry["result"], label)
            else:
                raise ValueError(f"unknown node kind {kind!r}")
        if obj.get("mode", "unfreeze") == "unfreeze":
            fig.unfreeze()
        return fig

    @staticmethod
    def from_json(text: str) -> "Figure":
        return Figure.from_obj(json.loads(text))

    def __repr__(self):
        counts = {}
        for node in self._nodes.values():
            counts[node.status] = counts.get(node.status, 0) + 1
        body = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
        return f"Figure[{self.metric.label()}]({len(self._nodes)} nodes: {body})"


# ---------------------------------------------------------------------------
# scalar and spec encoding



def _encode_metric(metric: Metric):
    name = metric.label()
    if name in ("e", "p", "h"):
        return name
    return {"point": list(metric.point_eta), "product": list(metric.product_eta)}


def _decode_metric(obj) -> Metric:
    if isinstance(obj, str):
        return parse_metric(obj)
    return Metric(tuple(obj["point"]), tuple(obj["product"]))


# JSON codec of a spec parameter by name; every other parameter is a scalar
_ARG_CODECS = {
    "point": (lambda p: [encode_scalar(c) for c in p],
              lambda o: tuple(decode_scalar(c) for c in o)),
    "variant": (str, str),
}
_SCALAR_CODEC = (encode_scalar, decode_scalar)


def _spec_obj(spec: RelSpec) -> dict:
    out: dict = {"rel": spec.kind}
    if spec.parent is not None:
        out["parent"] = spec.parent
    for name, value in zip(_KINDS[spec.kind][2], spec.args):
        out[name] = _ARG_CODECS.get(name, _SCALAR_CODEC)[0](value)
    return out


def _spec_from_obj(obj: dict) -> RelSpec:
    kind = obj["rel"]
    if kind not in _KINDS:
        raise ValueError(f"unknown relation kind {kind!r}")
    return RelSpec(kind, obj.get("parent"),
                   tuple(_ARG_CODECS.get(name, _SCALAR_CODEC)[1](obj[name])
                         for name in _KINDS[kind][2]))


def _steiner_power(a: Cycle, b: Cycle, ar: Arithmetic) -> Scalar:
    """Power of two k-normalized cycles; the square of the external
    tangential distance for real circles."""
    if a.k == 0 or b.k == 0:
        raise ValueError("power against a flat cycle is undefined")
    z = a.scaled(1 / lift(a.k))
    r = b.scaled(1 / lift(b.k))
    return z.product(r) + ar.sqrt(z.self_product() * r.self_product())


# ---------------------------------------------------------------------------
# pencils and triple ensembles


def _rank(rows: Sequence[Sequence[Scalar]]) -> int:
    return len(linear_solve([(row, 0) for row in rows], len(rows[0])).pivots)


def pairs_span_same_pencil(pair, other) -> bool:
    """Do two cycle pairs span the same two-dimensional row space?"""
    r1 = [c.row() for c in pair]
    r2 = [c.row() for c in other]
    if _rank(r1) != 2 or _rank(r2) != 2:
        return False
    return (all(_rank(r1 + [r]) == 2 for r in r2)
            and all(_rank(r2 + [r]) == 2 for r in r1))


def poincare_pair_ok(c1: Cycle, c2: Cycle) -> bool:
    """Intersecting pair test: the pairing squared must not exceed the
    product of self-pairings."""
    lhs = c1.product(c2) ** 2
    rhs = c1.self_product() * c2.self_product()
    gap = rhs - lhs
    return gap >= 0 or near_zero(gap, comparison_eps(), (lhs, rhs))


def loxodrome_triple_ok(triple) -> bool:
    """C1 orthogonal to C2 and C3; {C2, C3} disjoint (hyperbolic pencil)."""
    eps = comparison_eps()
    c1, c2, c3 = triple
    for other in (c2, c3):
        v = c1.product(other)
        if is_exact(v):
            if v != 0:
                return False
        elif abs(to_float(v)) > eps * (row_scale(c1.row())
                                       * row_scale(other.row())):
            return False
    gap = c2.product(c3) ** 2 - c2.self_product() * c3.self_product()
    if is_exact(gap):
        return gap >= 0
    scale = row_scale(c2.row()) * row_scale(c3.row())
    return to_float(gap) >= -eps * scale ** 2


def _abs_normalized(a: Cycle, b: Cycle) -> float:
    s = to_float(a.self_product()) * to_float(b.self_product())
    if s <= 0:
        raise InvalidTriple("normalized product undefined for point cycles")
    return abs(to_float(a.product(b))) / _fsqrt(s)


def loxodrome_triples_equivalent(triple, other) -> bool:
    """Do two orthogonal-pair triples describe the same loxodrome?

    True when {C2, C3} and the tilde pair span one pencil, their
    normalized products agree, and the arccosh/arccos winding identity
    holds mod 1 (computed for j = 2).  Projective sign freedom is folded
    away by taking absolute normalized products.
    """
    eps = comparison_eps()
    for t in (triple, other):
        if not loxodrome_triple_ok(t):
            raise InvalidTriple("triple violates the orthogonality or "
                                "disjointness constraints")
    if not pairs_span_same_pencil(triple[1:], other[1:]):
        return False
    lam = _abs_normalized(triple[1], triple[2])
    lam2 = _abs_normalized(other[1], other[2])
    if abs(lam - lam2) > max(eps, 1e-9) * max(1.0, lam):
        return False
    denom = acosh(max(lam, 1.0))
    if denom <= eps:
        raise InvalidTriple("tangent pencil: the winding identity degenerates")
    lhs = acosh(max(_abs_normalized(triple[1], other[1]), 1.0)) / denom
    rhs = acos(min(_abs_normalized(triple[0], other[0]), 1.0)) / (2 * pi)
    gap = abs((lhs - rhs + 0.5) % 1.0 - 0.5)
    return gap <= max(eps, 1e-9)


# ---------------------------------------------------------------------------
# the nine-point construction


@dataclass
class NinePointResult:
    figure: Figure
    conic: Cycle
    verdict: bool
    kind: str                       # circle | parabola | equilateral-hyperbola | flat
    points: Dict[str, Tuple[Scalar, ...]]


_NINE = ("foot_A", "foot_B", "foot_C",
         "mid_AB", "mid_BC", "mid_CA",
         "mid_AH", "mid_BH", "mid_CH")


def nine_point_figure(a, b, c, n=None, metric: Optional[Metric] = None,
                      arithmetic: str = "exact") -> NinePointResult:
    """Altitude feet, side midpoints and orthocenter-segment midpoints of
    the triangle abc, with the conic fitted through the three feet.

    ``n`` replaces the point at infinity: every "line" becomes the cycle
    through its two defining points and n.  Midpoints are the second
    intersection of the base cycle with the cycle orthogonal to it and to
    the one having the base pair as diameter.  The verdict reports whether
    all nine points land on the fitted conic.  A null product axis is
    refused before any solve: point cycles drop that coordinate.
    """
    metric = metric or Metric.named("e")
    if 0 in metric.product_eta:
        raise DegenerateMetric(f"product metric {metric.label()} has a "
                               "null axis: no line through two points is "
                               "determined")
    fig = Figure(metric, arithmetic=arithmetic)
    fig.add_point(a, "A")
    fig.add_point(b, "B")
    fig.add_point(c, "C")
    nref = INFINITY
    if n is not None:
        nref = "N"
        fig.add_point(n, "N")
    on_n, point = orthogonal(nref), is_point()  # specs shared by many nodes

    def one(label: str) -> Cycle:
        node = fig.node(label)
        if node.status != "solved" or len(node.instances) != 1:
            raise Degenerate(f"{label}: expected one instance, "
                             f"got {node.status} ({len(node.instances)})")
        return node.instances[0].cycle

    def line_through(p: str, q: str, label: str) -> None:
        fig.add_cycle_rel([orthogonal(p), orthogonal(q), on_n], label)
        one(label)

    def second_point(c1: str, c2: str, label: str) -> None:
        # the two cycles cross at nref and one more point; keep the latter
        fig.add_cycle_rel([orthogonal(c1), orthogonal(c2), point],
                          label, avoid=(nref,))
        one(label)

    def midpoint(p: str, q: str, base: str, label: str) -> None:
        diam, perp = "diam_" + label[4:], "perp_" + label[4:]
        fig.add_cycle_rel([orthogonal(p), orthogonal(q), orthogonal(base)],
                          diam)
        one(diam)
        fig.add_cycle_rel([orthogonal(base), orthogonal(diam), on_n], perp)
        one(perp)
        second_point(base, perp, label)

    try:
        for (p, q), name in ((("A", "B"), "AB"), (("B", "C"), "BC"),
                             (("C", "A"), "CA")):
            line_through(p, q, "side_" + name)
        for v, s in (("A", "BC"), ("B", "CA"), ("C", "AB")):
            fig.add_cycle_rel([orthogonal(v), on_n, orthogonal("side_" + s)],
                              "alt_" + v)
            one("alt_" + v)
            second_point("side_" + s, "alt_" + v, "foot_" + v)
        second_point("alt_A", "alt_B", "H")
        for (p, q), name in ((("A", "B"), "AB"), (("B", "C"), "BC"),
                             (("C", "A"), "CA")):
            midpoint(p, q, "side_" + name, "mid_" + name)
        for v in "ABC":
            line_through(v, "H", "line_" + v + "H")
            midpoint(v, "H", "line_" + v + "H", "mid_" + v + "H")
        fig.add_cycle_rel([orthogonal("foot_A"), orthogonal("foot_B"),
                           orthogonal("foot_C")], "conic")
        conic = one("conic")
    except NotEvaluated as err:
        raise Degenerate(str(err)) from err

    on_conic, eps = IsOrthogonal(conic.canonical()), comparison_eps()
    verdict = all(on_conic.satisfied_by(fig.instances(lab)[0].canonical(), eps)
                  for lab in _NINE)
    points = {}
    for lab in _NINE + ("H",):
        cyc = fig.instances(lab)[0]
        points[lab] = cyc.center() if cyc.k != 0 else None
    return NinePointResult(fig, conic, verdict, _conic_kind(conic), points)


def _conic_kind(conic: Cycle) -> str:
    """What the row draws in its point metric.  Rows carry no cross term,
    so a hyperbolic-metric conic is an equilateral hyperbola whose
    symmetry axes are the vertical and horizontal lines through its
    center."""
    if conic.k == 0:
        return "flat"
    tau = conic.metric.tau
    if tau < 0:
        return "circle"
    if tau == 0:
        return "parabola"
    return "equilateral-hyperbola"
