"""Print what ``import hopflab`` costs a fresh interpreter.

    python3 tools/import_cost.py [RUNS]

Starts RUNS (default 5) fresh interpreters on this checkout's ``src/``.
Each imports numpy and ``scipy.sparse.linalg`` first, as
``perfbench/run.py`` does before its set-up clock starts, and then
``import hopflab`` under ``-X importtime``.  Prints one line per
``hopflab`` module that the import loads: the median over the runs of its
self and cumulative import time in ms, as ``-X importtime`` reports them,
in the order of the first run's report (the package itself, whose
cumulative time is the whole import, comes last).  Then it prints the
``hopflab`` modules that ``import hopflab`` left in ``sys.modules``.  The
environment passes through, so ``PYTHONDONTWRITEBYTECODE`` decides
whether a bytecode cache is read and written.
"""

from __future__ import annotations

import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHILD = """
import sys
import numpy, scipy.sparse.linalg
import hopflab
print(" ".join(sorted(m for m in sys.modules
                      if m.partition(".")[0] == "hopflab")))
"""
# "import time: <self us> | <cumulative us> | <indent><module>"
LINE = re.compile(r"import time:\s*(\d+) \|\s*(\d+) \| *(\S+)")


def one_run() -> tuple:
    """({module: (self us, cumulative us)}, hopflab modules loaded) of
    one fresh interpreter, modules in the order of its report."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", CHILD],
                          capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": path})
    times = {}
    for match in map(LINE.match, proc.stderr.splitlines()):
        if match and match[3].partition(".")[0] == "hopflab":
            times[match[3]] = (int(match[1]), int(match[2]))
    return times, proc.stdout.split()


def main(argv) -> int:
    count = argv[0] if argv else "5"
    if len(argv) > 1 or not count.isdigit() or int(count) < 1:
        print(__doc__, file=sys.stderr)
        return 2
    runs = [one_run() for _ in range(int(count))]
    print(f"{'module':28s} {'self ms':>8s} {'cumul ms':>8s}   "
          f"(median of {len(runs)} runs)")
    for module in runs[0][0]:
        self_us, cumulative_us = zip(*(times[module] for times, _ in runs))
        print(f"{module:28s} {statistics.median(self_us) / 1e3:8.2f} "
              f"{statistics.median(cumulative_us) / 1e3:8.2f}")
    print("loaded by import hopflab:", " ".join(runs[0][1]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
