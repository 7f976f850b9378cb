"""Run the fixed report set of the hopflab CLI and keep everything it prints.

    python3 tools/report_set.py OUTDIR

Each command below runs in a fresh process on this checkout's ``src/``,
with OUTDIR as its working directory.  Its command line, stdout, stderr,
exit code and report files go under ``OUTDIR/<n>/`` (the reports in
``OUTDIR/<n>/reports``, absent when the command wrote none).  The modulus
tables that the ``--csv`` commands read are written to OUTDIR first and
named by a relative path, so a command line and the ``csv:`` label it
reports are the same bytes in every run.  Reports are byte-reproducible
for a fixed build, so a change that is not meant to move results is
checked by

    diff -r BEFORE AFTER

of two runs, one per checkout.  OUTDIR must not exist yet.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

_GEOM = np.geomspace(1e-300, 1.0, 400)
# (t, sigma) columns of the tables; between them the modulus table's J
# column takes every value it can: finite numbers, "inf" and "budget"
TABLES = {
    # sigma = 1/2 on [1e-9, 1e-2]: finite J
    "plateau.csv": ([0.0, 1e-9, 1e-2, 1.0], [0.0, 0.5, 0.5, 1.0]),
    # 1/ln(e/t), not Dini: J = inf
    "log1.csv": (_GEOM, 1.0 / (1.0 - np.log(_GEOM))),
    # 1/ln(e/t)^2, Dini, but unresolved before the 1e-280 floor: "budget"
    "log2.csv": (_GEOM, 1.0 / (1.0 - np.log(_GEOM)) ** 2),
}

DEEP = ["--K", "4", "--h", "0.001953125"]
SHALLOW = ["--K", "3", "--h", "0.0078125"]

COMMANDS = [
    ["decay", "--profile", "log1", "--R0", "0.5", *DEEP],
    ["decay", "--profile", "power:0.5", "--R0", "0.5", *DEEP],
    ["decay", "--profile", "wedge:2.0944", "--bc", "sector", *DEEP],
    ["decay", "--profile", "log1", "--op", "drift:1.5", *DEEP],
    ["decay", "--profile", "wedge", "--bc", "sector", *SHALLOW],
    ["decay", "--profile", "log2", "--op", "checker:0.25", *SHALLOW],
    ["decay", "--profile", "cone:0.4", "--op", "aniso:0.5,2", *SHALLOW],
    ["decay", "--profile", "flat", "--op", "checker", *SHALLOW],
    ["decay", "--profile", "power:1", "--op", "drift", *SHALLOW],
    ["decay", "--contrast", "log1,log2,flat,power:0.45,cone:0.4", *SHALLOW],
    ["decay", "--contrast", "power:0.5,log1", "--K", "2", "--h", "0.015625"],
    ["solve", "--profile", "power:1", "--h", "0.015625", "--dump-matrix"],
    ["solve", "--profile", "log2", "--h", "0.01", "--dump-matrix"],
    ["solve", "--profile", "wedge:1.5", "--bc", "sector", "--op", "aniso:2,0.5",
     "--h", "0.015625"],
    ["modulus", "--preset", "log2"],
    ["modulus", "--preset", "log1"],
    ["modulus", "--preset", "linear"],
    ["modulus", "--preset", "power:0.3"],
    *(["geometry", "--profile", p]
      for p in ("power:0.5", "log1", "log2", "cone:0.4", "wedge:2.0944",
                "flat")),
    ["verify", "--nu", "0.5", "--n", "2"],
    ["verify", "--nu", "0.3", "--n", "3"],
    ["verify", "--nu", "0.7", "--n", "4", "--samples", "2000"],
    ["modulus", "--preset", "nosuch"],
    ["decay", "--profile", "nosuch", "--K", "2", "--h", "0.015625"],
    ["solve", "--profile", "log1", "--h", "0.015625", "--op", "nosuch"],
    ["solve", "--h", "0"],
    ["solve", "--h", "0.3"],
    ["decay", "--K", "1"],
    ["verify", "--samples", "0"],
    ["decay", "--profile", "wedge:", "--bc", "sector"],
    ["decay", "--contrast", "log1,cone:0.4", "--K", "2", "--h", "0.015625"],
    ["verify", "--s", "nan"],
    ["verify", "--s", "inf"],
    *(["modulus", "--csv", name] for name in TABLES),
    # one run at a non-default value of each flag no line above passes
    ["modulus", "--preset", "log2", "--depth", "200"],
    ["geometry", "--profile", "log1", "--R0", "0.25", "--nu", "0.3",
     "--levels", "6"],
    ["verify", "--profiles", "10", "--seed", "5", "--samples", "2000"],
    ["solve", "--profile", "cone:0.4", "--R0", "0.25", "--h", "0.0078125"],
]


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=False)
    out = out.resolve()
    for name, (t, sigma) in TABLES.items():
        (out / name).write_text("t,sigma\n" + "".join(
            f"{a!r},{b!r}\n" for a, b in zip(np.asarray(t).tolist(),
                                             np.asarray(sigma).tolist())))
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    for n, command in enumerate(COMMANDS):
        case = out / f"{n:02d}"
        case.mkdir()
        proc = subprocess.run(
            [sys.executable, "-m", "hopflab.cli", *command,
             "--out", str(case / "reports")],
            capture_output=True, env=env, cwd=out, check=False)
        (case / "command").write_text(" ".join(command) + "\n")
        (case / "stdout").write_bytes(proc.stdout)
        (case / "stderr").write_bytes(proc.stderr)
        (case / "exit_code").write_text(f"{proc.returncode}\n")
        print(f"{n:02d} exit {proc.returncode}: {' '.join(command)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
