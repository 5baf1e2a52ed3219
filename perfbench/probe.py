"""Set-up probe, started by run.py in a fresh interpreter.

    python3 perfbench/probe.py <workload>  < starting-state inputs as JSON

Imports the workload module (and through it cyclekit from the checkout's
``src``), reads the starting-state inputs from standard input, builds the
starting state, and prints one JSON line: the ``time.monotonic()`` reading
once the import finished, and the seconds the build took.  The caller
adds the first to its own spawn time, so reading the inputs is not
counted.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import WORKLOADS  # noqa: E402  (imports cyclekit)

imported = time.monotonic()
workload = WORKLOADS[sys.argv[1]]
inputs = json.load(sys.stdin)
start = time.monotonic()
workload.setup(inputs)
print(json.dumps({"imported": imported, "built_s": time.monotonic() - start}))
