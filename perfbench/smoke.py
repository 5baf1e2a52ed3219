"""Smoke test of the benchmark itself, at a tiny size.

    python3 perfbench/smoke.py

Runs every workload untraced and traced for a few items through run.py,
and checks in this process that installing the tracer wraps every traced
binding and that uninstalling it restores each one.  Exits non-zero on
the first problem.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

from tracer import Tracer, bindings, targets  # noqa: E402
from workloads import WORKLOADS      # noqa: E402

ITEMS = 2


def run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "0", "--trace", str(trace), "--items", str(ITEMS)],
        capture_output=True, text=True, cwd=ROOT, timeout=300)
    if done.returncode != 0:
        sys.exit(f"{workload} trace={trace}: exit {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_restore() -> None:
    where = targets()
    before = bindings(where)
    tracer = Tracer()
    tracer.install()
    try:
        during = bindings(where)
        unwrapped = [key for key, value in before.items() if during[key] is value]
        if unwrapped:
            sys.exit(f"tracer left {len(unwrapped)} bindings unwrapped")
        for workload in WORKLOADS.values():
            state = workload.setup(workload.setup_inputs(0))
            item = next(workload.items(0))
            with tracer.span("bench.item"):
                workload.run(state, item)
    finally:
        tracer.uninstall()
    after = bindings(where)
    changed = [key for key, value in before.items() if after[key] is not value]
    if changed:
        sys.exit(f"tracer did not restore {len(changed)} bindings")
    names = set(tracer.summary())
    if not {"relations.solve", "figure.solve", "contfrac.chain",
            "render.render_figure", "numerics.QuadExt.mul"} <= names:
        sys.exit(f"missing spans; recorded {sorted(names)}")


def main() -> None:
    check_restore()
    for name in WORKLOADS:
        for trace in (0, 1):
            result = run(name, trace)
            if not result["correct"] or result["attempted"] != ITEMS:
                sys.exit(f"{name} trace={trace}: {result}")
        print(f"{name}: ok")
    print("smoke: ok")


if __name__ == "__main__":
    main()
