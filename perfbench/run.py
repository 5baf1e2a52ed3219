"""cyclekit benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload ninepoint --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout and imports cyclekit from its
``src`` directory.  The untraced run (``--trace 0``) times items in a
closed loop with one caller for ``--seconds`` seconds and reports the
end-to-end metrics; set-up time comes from fresh interpreters started by
``probe.py``.  The traced run (``--trace 1``) runs a fixed number of items
with spans around the layer functions (see ``tracer.py``) and reports the
per-layer metrics, with the same items timed untraced in a fresh
interpreter for the tracing overhead.  Every item passes a correctness
gate outside the timed region.  Human-readable lines come first; the last
line of standard output is one JSON object.

Reported times are at reference speed.  A fixed pure-Python ``Fraction``
kernel is timed between consecutive items (and around each set-up probe),
and each time is scaled by REFERENCE_S over the kernel's time next to it.
On a shared machine whose speed drifts by tens of percent within a minute
this cancels the drift; the wall-clock figures are printed alongside.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

WARMUP_ITEMS = 3
MIN_ITEMS = 100        # keeps at least ten samples above the 90th percentile
DIGEST_ITEMS = 100     # the digest covers the first items after warm-up
SETUP_PROBES = 7
MAX_RUN_S = 120.0
CHILD_TIMEOUT_S = 150
REFERENCE_TERMS = 150
REFERENCE_S = 0.0005   # the kernel's time at reference speed; fixed for good


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program():
    """cyclekit from this checkout's sources, never an installed copy."""
    if not (SRC / "cyclekit" / "__init__.py").is_file():
        _fail(f"no cyclekit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    try:
        import cyclekit
    except ImportError as err:
        _fail(f"cannot import cyclekit: {err}")
    if Path(cyclekit.__file__).resolve().parent != SRC / "cyclekit":
        _fail(f"cyclekit came from {cyclekit.__file__}, not {SRC}")


def _metadata() -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():     # never let git search above the checkout
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted((SRC / "cyclekit").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"commit": commit, "src_sha256": src.hexdigest()[:16],
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "loadavg_1m": os.getloadavg()[0]}


def _percentile(sorted_values, q: int) -> float:
    return statistics.quantiles(sorted_values, n=100, method="inclusive")[q - 1]


def _reference() -> float:
    """Seconds the reference kernel takes right now."""
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, REFERENCE_TERMS):
        acc += Fraction(1, i)
    return time.perf_counter() - start


def _at_reference(seconds: float, before: float, after: float) -> float:
    return seconds * REFERENCE_S / ((before + after) / 2)


def _setup_seconds(workload, seed: int):
    """Median over fresh interpreters of (start to cyclekit imported) plus
    (starting state built); handing over the inputs is not counted.
    Returns (at reference speed, wall clock)."""
    inputs = json.dumps(workload.setup_inputs(seed))
    scaled, wall = [], []
    ref = _reference()
    for _ in range(SETUP_PROBES):
        spawned = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(BENCH / "probe.py"), workload.name],
            input=inputs, capture_output=True, text=True, cwd=ROOT,
            timeout=CHILD_TIMEOUT_S)
        if done.returncode != 0:
            _fail(f"set-up probe failed: {done.stderr.strip()}")
        probe = json.loads(done.stdout.strip().splitlines()[-1])
        seconds = probe["imported"] - spawned + probe["built_s"]
        ref, before = _reference(), ref
        wall.append(seconds)
        scaled.append(_at_reference(seconds, before, ref))
    return statistics.median(scaled), statistics.median(wall)


class Tally:
    """Gate results over the measured items."""

    def __init__(self):
        self.attempted = self.failed = self.rejected = 0
        self.answers = self.exact_answers = 0
        self.digest = hashlib.sha256()
        self.digest_rows = self.float_rows = 0
        self.first_failure = ""

    def add(self, verdict, digest: bool) -> None:
        self.attempted += 1
        if not verdict.ok:
            self.failed += 1
            self.first_failure = self.first_failure or verdict.why
            return
        self.rejected += verdict.rejected
        self.answers += verdict.answers
        self.exact_answers += verdict.exact_answers
        if digest:
            for row in verdict.exact_rows:
                self.digest.update(row.encode() + b"\n")
            self.digest_rows += len(verdict.exact_rows)
            self.float_rows += verdict.float_rows


def _attempt(workload, state, item, tracer=None):
    """Run one item; return (seconds, verdict).  The gate runs outside the
    timed region and, when tracing, with recording paused."""
    from workloads import Verdict
    start = time.perf_counter()
    try:
        if tracer is None:
            result = workload.run(state, item)
        else:
            with tracer.span("bench.item"):
                result = workload.run(state, item)
    except Exception as err:                 # an item that raises has failed
        return time.perf_counter() - start, Verdict().fail(f"{type(err).__name__}: {err}")
    elapsed = time.perf_counter() - start
    if tracer is None:
        return elapsed, workload.gate(state, item, result)
    with tracer.paused():
        return elapsed, workload.gate(state, item, result)


def _prepare(workload, seed: int):
    """Starting state and the item stream, past the warm-up items."""
    state = workload.setup(workload.setup_inputs(seed))
    items = workload.items(seed)
    for _ in range(WARMUP_ITEMS):
        item = next(items)
        _, verdict = _attempt(workload, state, item)
        if not verdict.ok:
            _fail(f"warm-up item failed: {verdict.why}")
    return state, items


def measure(workload, seed: int, seconds: float, count: int = 0):
    """Closed loop with one caller: until ``seconds`` have passed and at
    least MIN_ITEMS ran, or exactly ``count`` items when given.  Returns
    the tally, the wall-clock item times and the same at reference speed."""
    state, items = _prepare(workload, seed)
    tally, wall, refs = Tally(), [], [_reference()]
    begun = time.monotonic()
    while True:
        n = len(wall)
        if count:
            if n >= count:
                break
        elif (time.monotonic() - begun >= seconds and n >= MIN_ITEMS) \
                or time.monotonic() - begun >= MAX_RUN_S:
            break
        elapsed, verdict = _attempt(workload, state, next(items))
        refs.append(_reference())
        wall.append(elapsed)
        tally.add(verdict, digest=n < DIGEST_ITEMS)
    scaled = [_at_reference(t, refs[i], refs[i + 1]) for i, t in enumerate(wall)]
    return tally, wall, scaled


def _timing(times) -> tuple:
    """(items per second, p50 ms, p90 ms) of a list of item seconds."""
    ordered = sorted(times)
    return (len(times) / sum(times), 1000 * statistics.median(ordered),
            1000 * _percentile(ordered, 90))


def end_to_end(workload, args) -> dict:
    tally, wall, times = measure(workload, args.seed, args.seconds, args.items)
    rate, p50, p90 = _timing(times)
    metrics = {
        "items_per_s": (rate, "1/s"),
        "item_p50_ms": (p50, "ms"),
        "item_p90_ms": (p90, "ms"),
        "exact_share": (tally.exact_answers / max(tally.answers, 1), "ratio"),
    }
    wall_setup = ""
    if not args.items:
        setup, setup_wall = _setup_seconds(workload, args.seed)
        metrics["setup_s"] = (setup, "s")
        wall_setup = f", setup_s {setup_wall:.6g}"
    metrics["rss_peak_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    above = sum(1000 * t > p90 for t in times)
    lines = [
        "wall clock: items_per_s {:.6g}, item_p50_ms {:.6g}, item_p90_ms "
        "{:.6g}".format(*_timing(wall)) + wall_setup,
        f"items {len(times)} timed, {above} above p90; "
        f"fail_ratio {tally.failed / len(times):.6g} ratio "
        f"({tally.failed} failed of {len(times)}); "
        f"rejected {tally.rejected} (typed Degenerate)",
        f"digest sha256:{tally.digest.hexdigest()} over the first "
        f"{min(DIGEST_ITEMS, len(times))} items: {tally.digest_rows} exact rows "
        f"hashed, {tally.float_rows} float rows counted",
    ]
    if tally.first_failure:
        lines.append(f"first failure: {tally.first_failure}")
    return _result(tally, metrics, lines)


def per_layer(workload, args) -> dict:
    from tracer import Tracer, bindings, targets
    count = args.items or workload.trace_items
    untraced = _untraced_rate(workload, args.seed, count)
    state, items = _prepare(workload, args.seed)
    batch = [next(items) for _ in range(count)]
    where = targets()
    before = bindings(where)
    tracer = Tracer()
    tally, times, refs = Tally(), [], [_reference()]
    tracer.install()
    try:
        for item in batch:
            elapsed, verdict = _attempt(workload, state, item, tracer)
            refs.append(_reference())
            times.append(_at_reference(elapsed, refs[-2], refs[-1]))
            tally.add(verdict, digest=True)
    finally:
        tracer.uninstall()
    restored = bindings(where) == before
    traced_rate = count / sum(times)
    # spans of item k hang under the k-th root span; scale them like it
    roots = [i for i in range(len(tracer.parent)) if tracer.parent[i] < 0]
    scale = {root: _at_reference(1.0, refs[k], refs[k + 1])
             for k, root in enumerate(roots)}
    metrics = _layer_metrics(tracer, count, scale)
    metrics["trace.items_per_s"] = (traced_rate, "1/s")
    metrics["trace.untraced_items_per_s"] = (untraced, "1/s")
    metrics["trace.overhead_ratio"] = (untraced / traced_rate, "ratio")
    path = _write_spans(tracer, workload.name, args.seed)
    lines = [f"traced {count} items; spans {len(tracer.start)} written to "
             f"{path.relative_to(ROOT)}; wrapped attributes restored: {restored}",
             f"digest sha256:{tally.digest.hexdigest()} over {count} items"]
    if tally.first_failure:
        lines.append(f"first failure: {tally.first_failure}")
    result = _result(tally, metrics, lines)
    result["correct"] = result["correct"] and restored
    return result


def _untraced_rate(workload, seed: int, count: int) -> float:
    """items_per_s of the same items, untraced, in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload.name,
         "--seed", str(seed), "--trace", "0", "--items", str(count)],
        capture_output=True, text=True, cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        _fail(f"untraced reference run failed: {done.stderr.strip()}")
    out = json.loads(done.stdout.strip().splitlines()[-1])
    if not out["correct"]:
        _fail("untraced reference run was not correct")
    return out["metrics"]["items_per_s"]["value"]


PER_CALL = (
    "relations.linear_solve", "relations.solve", "relations.Relation.build",
    "relations.Relation.satisfied_by", "cycle.Cycle.canonical",
    "cycle.Cycle.key", "cycle.Cycle.product", "numerics.QuadExt.mul",
    "numerics.Arithmetic.sqrt", "contfrac.horocycle_images",
    "figure.Figure.from_obj", "render.render_figure",
)
SELF_ONLY = ("contfrac.chain", "figure.Figure.reevaluate")


def _layer_metrics(tracer, count: int, scale) -> dict:
    spans = tracer.summary(scale)
    zero = {"calls": 0, "self_s": 0.0}
    out = {}
    for name in PER_CALL + SELF_ONLY:
        rec = spans.get(name, zero)
        if name in PER_CALL:
            out[f"{name}.calls"] = (rec["calls"] / count, "calls/item")
        out[f"{name}.self_ms"] = (1000 * rec["self_s"] / count, "ms/item")
    linear = spans.get("relations.linear_solve", zero)["calls"]
    solves = spans.get("relations.solve", zero)["calls"]
    branches = tracer.branches()
    counts = tracer.counts
    out["relations.linear_solve.inconsistent_share"] = (
        counts["relations.linear_solve.inconsistent"] / linear if linear else 0.0, "ratio")
    out["relations.solve.branches"] = (branches / count, "branches/item")
    out["relations.solve.yield"] = (
        counts["relations.solve.solutions"] / branches if branches else 0.0,
        "solutions/branch")
    out["relations.solve.demoted_share"] = (
        counts["relations.solve.demoted"] / solves if solves else 0.0, "ratio")
    out["figure.solve_calls"] = (
        spans.get("figure.solve", zero)["calls"] / count, "calls/item")
    return out


def _write_spans(tracer, name: str, seed: int) -> Path:
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    path = out / f"spans-{name}-{seed}.tsv"
    with open(path, "w") as fh:
        fh.write("index\tname\tparent\tstart_s\tend_s\n")
        for i, (span, parent, start, end) in enumerate(tracer.spans()):
            fh.write(f"{i}\t{span}\t{parent}\t{start:.9f}\t{end:.9f}\n")
    return path


def _result(tally, metrics: dict, lines) -> dict:
    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:14.6g} {unit}")
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--items", type=int, default=0,
                        help="run exactly this many items: untraced, instead "
                             "of timing for --seconds and without set-up "
                             "probes; traced, instead of the workload's own "
                             "count")
    args = parser.parse_args(argv)
    meta = _metadata()
    _import_program()
    from workloads import WORKLOADS
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        _fail(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    print(f"perfbench workload={workload.name} seed={args.seed} "
          f"trace={args.trace} " + " ".join(f"{k}={v}" for k, v in meta.items()))
    result = (per_layer if args.trace else end_to_end)(workload, args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
