"""Set-up probe, run in a fresh interpreter: import layered442, then prepare a workload.

Usage: python3 bench/setup_probe.py WORKLOAD OUT_DIR

Prints one JSON line of ``time.perf_counter()`` readings (the system-wide
monotonic clock, so the parent can subtract its own spawn time):
``import_start``, ``import_end`` and ``ready``.
"""

import time

IMPORT_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
import layered442  # noqa: E402,F401

IMPORT_END = time.perf_counter()

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads  # noqa: E402

workloads.prepare(sys.argv[1], Path(sys.argv[2]))
print(json.dumps({"import_start": IMPORT_START, "import_end": IMPORT_END,
                  "ready": time.perf_counter()}))
