import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from hopflab import cli


def run_cli(args, tmp_path):
    return cli.main(list(args) + ["--out", str(tmp_path)])


# ---------------------------------------------------------------- modulus

def test_modulus_linear_table(tmp_path):
    assert run_cli(["modulus", "--preset", "linear"], tmp_path) == 0
    table = (tmp_path / "modulus_table.csv").read_text().splitlines()
    assert table[0] == "t,sigma,ratio,j_sigma"
    for line in table[1:]:
        t, s, _, j = line.split(",")
        assert float(t) == pytest.approx(float(j))  # J(t) = t for linear
        assert float(t) == pytest.approx(float(s))


def test_modulus_log1_verdict(tmp_path):
    assert run_cli(["modulus", "--preset", "log1"], tmp_path) == 0
    summary = (tmp_path / "modulus_summary.txt").read_text()
    assert "verdict: NonDini" in summary


def test_modulus_log2_deep_not_nondini(tmp_path):
    assert run_cli(["modulus", "--preset", "log2", "--depth", "400"],
                   tmp_path) == 0
    summary = (tmp_path / "modulus_summary.txt").read_text()
    assert "verdict: Dini" in summary
    assert "numeric_verdict: Inconclusive" in summary
    assert "NonDini" not in summary


def test_modulus_bad_csv_exit_2(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("0.0,0.0\n0.5,0.9\n1.0,0.4\n", encoding="utf-8")
    assert run_cli(["modulus", "--csv", str(bad)], tmp_path) == 2


def test_modulus_csv_plateau_table_is_finite(tmp_path):
    # sigma = 1/2 on [1e-9, 1e-2]: 23 dyadic intervals of equal
    # contribution, and a finite J at every t of the table
    table = tmp_path / "plateau.csv"
    table.write_text("t,sigma\n0,0\n1e-9,0.5\n1e-2,0.5\n1,1\n")
    assert run_cli(["modulus", "--csv", str(table)], tmp_path) == 0
    rows = (tmp_path / "modulus_table.csv").read_text().splitlines()[1:]
    assert len(rows) == 25
    assert all(math.isfinite(float(row.split(",")[3])) for row in rows)


def test_modulus_csv_unresolved_j_reads_budget(tmp_path):
    # 1/ln(e/t)^2 has a finite J that the quadrature does not resolve
    # before double precision's range ends it: those cells read "budget"
    t = np.geomspace(1e-300, 1.0, 400)
    table = tmp_path / "log2.csv"
    table.write_text("t,sigma\n" + "".join(
        f"{a!r},{b!r}\n" for a, b in zip(t.tolist(), (
            1.0 / (1.0 - np.log(t)) ** 2).tolist())))
    assert run_cli(["modulus", "--csv", str(table)], tmp_path) == 0
    rows = (tmp_path / "modulus_table.csv").read_text().splitlines()[1:]
    cells = [row.split(",")[3] for row in rows]
    assert len(cells) == 25 and "budget" in cells
    assert "inf" not in cells


def test_modulus_unknown_preset_exit_2(tmp_path):
    assert run_cli(["modulus", "--preset", "nosuch"], tmp_path) == 2


# ---------------------------------------------------------------- geometry

def test_geometry_report(tmp_path):
    assert run_cli(["geometry", "--profile", "power:0.5"], tmp_path) == 0
    summary = (tmp_path / "geometry_summary.txt").read_text()
    assert "sandwich_ok: True" in summary
    assert "ball_included:" in summary


# ---------------------------------------------------------------- verify

def test_verify_passes(tmp_path):
    assert run_cli(["verify", "--nu", "0.5", "--samples", "2000",
                    "--profiles", "10"], tmp_path) == 0
    summary = (tmp_path / "verify_summary.txt").read_text()
    assert "cylinder_passed: True" in summary
    assert "radial_passed: True" in summary
    assert "sandwich_violations: 0" in summary
    # the barrier steps beside the two certificates: the cylinder
    # barrier's bracket, the ball chain's factor, the cap bound constant
    values = dict(line.split(": ") for line in summary.splitlines())
    assert float(values["cylinder_barrier_bracket"]) <= 1e-12
    assert 0.0 < float(values["chain_theta"]) < 1.0
    assert 0.0 < float(values["cap_bound_constant"]) < math.inf


def test_verify_forced_low_exponent_fails(tmp_path):
    # s = n/nu^2 - 3 sits below the elementary threshold
    code = run_cli(["verify", "--nu", "0.5", "--s", "5", "--samples", "500",
                    "--profiles", "5"], tmp_path)
    assert code == 1
    summary = (tmp_path / "verify_summary.txt").read_text()
    assert "radial_passed: False" in summary


def test_verify_laplace_exact_bracket(tmp_path):
    assert run_cli(["verify", "--nu", "1.0", "--samples", "500",
                    "--profiles", "5"], tmp_path) == 0


def test_verify_deterministic(tmp_path):
    d1 = tmp_path / "a"
    d2 = tmp_path / "b"
    d1.mkdir()
    d2.mkdir()
    assert run_cli(["verify", "--samples", "500", "--profiles", "5"], d1) == 0
    assert run_cli(["verify", "--samples", "500", "--profiles", "5"], d2) == 0
    assert (d1 / "verify_summary.txt").read_bytes() == \
        (d2 / "verify_summary.txt").read_bytes()


# ---------------------------------------------------------------- solve

def test_solve_writes_outputs(tmp_path):
    assert run_cli(["solve", "--profile", "power:1", "--h", "0.03125",
                    "--dump-matrix"], tmp_path) == 0
    assert (tmp_path / "solution.csv").exists()
    assert (tmp_path / "system_matrix.txt").exists()
    summary = (tmp_path / "solve_summary.txt").read_text()
    assert "residual:" in summary
    assert "grid.h: 0.03125" in summary


@pytest.mark.parametrize("op", ["drift:1e39", "aniso:1e35,1",
                                "aniso:1e-50,1e-50", "aniso:1e150,1",
                                "drift:1e150"])
def test_solve_outside_float32_range(tmp_path, op):
    # matrix entries that overflow to inf or flush to 0 in float32: the
    # system is solved by the float64 factor alone
    assert run_cli(["solve", "--profile", "log1", "--h", "0.015625",
                    "--op", op], tmp_path) == 0
    summary = (tmp_path / "solve_summary.txt").read_text().splitlines()
    residual = next(line for line in summary if line.startswith("residual:"))
    assert float(residual.partition(":")[2]) <= 1e-12


@pytest.mark.parametrize("command", [
    ["solve", "--profile", "flat", "--h", "0.0625"],
    ["decay", "--profile", "log1", "--K", "2", "--h", "0.015625"],
], ids=["solve", "decay"])
def test_out_of_memory_exit_3(tmp_path, capsys, monkeypatch, command):
    from hopflab import fd_solver

    def solve(system):
        raise MemoryError("factor does not fit")

    monkeypatch.setattr(fd_solver, "solve", solve)
    assert run_cli(command, tmp_path) == 3
    assert "numerical failure: factor does not fit" in capsys.readouterr().err
    assert not (tmp_path / "decay_levels.csv").exists()


# flags that a subcommand does not take, among them a seed where nothing
# is drawn from it: argparse's usage error, before the command runs
UNKNOWN_FLAGS = [
    ["modulus", "--seed", "1"],
    ["solve", "--seed", "1"],
    ["decay", "--seed", "1"],
    ["solve", "--config", "x"],
    ["decay", "--config", "x"],
]


# each input once exited 1 with a traceback, the code of a failed check
@pytest.mark.parametrize("command", [
    ["geometry", "--nu", "0"],
    ["geometry", "--nu", "1.5"],
    ["geometry", "--levels", "0"],
    ["verify", "--nu", "0"],
    ["verify", "--s", "-1"],
    ["verify", "--n", "1"],
    ["verify", "--n", "0"],
    ["modulus", "--depth", "5"],
    ["modulus", "--depth", "1023"],
    ["modulus", "--csv", "{missing}"],
    *UNKNOWN_FLAGS,
    ["solve", "--h", "0"],
    ["decay", "--profile", "log1", "--K", "2", "--h", "0"],
    ["verify", "--profiles", "-1"],
    ["verify", "--profiles", "0"],
    ["verify", "--samples", "-1"],
    ["verify", "--samples", "0"],
    # a non-finite radial exponent: a failed, or a passed, certificate
    ["verify", "--s", "nan"],
    ["verify", "--s", "inf"],
    # non-finite parameters: silently dropped, or a singular factor
    ["solve", "--profile", "log1", "--h", "0.015625", "--op", "drift:nan"],
    ["solve", "--profile", "log1", "--h", "0.015625", "--op", "checker:nan"],
    ["solve", "--profile", "log1", "--h", "0.015625", "--op", "aniso:nan,1"],
    ["solve", "--profile", "log1", "--h", "0.015625", "--op", "aniso:inf,1"],
    ["solve", "--profile", "log1", "--h", "0.015625", "--op", "drift:inf"],
    # finite parameters whose assembled diagonal overflows to inf
    ["solve", "--profile", "log1", "--h", "0.015625", "--op",
     "aniso:1e308,1"],
    ["solve", "--profile", "log1", "--h", "0.015625", "--op", "drift:1e308"],
    ["geometry", "--profile", "cone:nan"],
    # a preset given an argument it does not take, or missing one, and
    # input that was dropped without a word
    ["decay", "--profile", "log1:0.3"],
    ["decay", "--profile", "flat:9"],
    ["decay", "--profile", "wedge:1.5,2", "--bc", "sector"],
    ["geometry", "--profile", "cone"],
    ["solve", "--op", "laplace:7"],
    ["solve", "--op", "aniso:1"],
    ["modulus", "--preset", "log2:3"],
    ["modulus", "--preset", "linear:1"],
    ["decay", "--profile", "log1", "--contrast", "", "--K", "2", "--h",
     "0.015625"],
    ["modulus", "--csv", "{table}", "--preset", "log1"],
    ["modulus", "--csv", "{headers}"],
], ids=lambda c: " ".join(c))
def test_bad_input_exit_2(tmp_path, capsys, command):
    # the output directory is made at the first write, so a rejected
    # input leaves none behind
    paths = {"missing": tmp_path / "missing.txt"}
    for name, text in (("table", "0,0\n0.5,0.6\n1,1\n"),
                       ("headers", "t,sigma\nfoo,bar\nbaz\n0,0\n1,1\n")):
        paths[name] = tmp_path / f"{name}.txt"
        paths[name].write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    argv = [a.format(**paths) for a in command]
    if command in UNKNOWN_FLAGS:
        with pytest.raises(SystemExit) as exc:
            run_cli(argv, out)
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-2:] == [
            "usage: hopflab [-h] {modulus,geometry,verify,solve,decay} ...",
            f"hopflab: error: unrecognized arguments: {' '.join(command[1:])}"]
    else:
        assert run_cli(argv, out) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ")
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["verify", "--samples", "200", "--profiles", "2"],
    ["geometry", "--levels", "1"],
], ids=["verify", "geometry"])
def test_seed_reaches_the_sampling_commands(tmp_path, command):
    # their samples are drawn from the seed, which each summary echoes
    assert run_cli(command + ["--seed", "1"], tmp_path) == 0
    summary = (tmp_path / f"{command[0]}_summary.txt").read_text()
    assert "seed: 1" in summary.splitlines()


def test_decay_defaults_are_hopf_experiment_defaults(tmp_path,
                                                     monkeypatch):
    # the parser takes K and h from HopfExperiment, whose defaults validate
    from hopflab import decay_analysis

    seen = []

    def run_experiment(cfg):
        seen.append(cfg)
        raise MemoryError("stop before solving")

    monkeypatch.setattr(decay_analysis, "run_experiment", run_experiment)
    assert run_cli(["decay"], tmp_path) == 3
    default = decay_analysis.HopfExperiment(profile="log1")
    default.validate()
    assert seen == [default]

    # operator, R0 and bc kind are read from HopfExperiment as well
    @dataclasses.dataclass(frozen=True)
    class Altered(decay_analysis.HopfExperiment):
        operator: str = "checker"
        R0: float = 1.0
        bc: str = "sector"

    monkeypatch.setattr(decay_analysis, "HopfExperiment", Altered)
    seen.clear()
    assert run_cli(["decay"], tmp_path) == 3
    assert seen == [Altered(profile="log1")]


def test_verify_large_n_exits_2_before_sampling(tmp_path, capsys):
    # 2^n corner matrices: n = 64 is refused before any is built, with
    # less than a megabyte traced
    tracemalloc.start()
    try:
        assert run_cli(["verify", "--n", "64"], tmp_path) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert capsys.readouterr().err == (
        "config error: the sampled certificates need n <= 16 "
        "(2^n corner matrices), got 64\n")


@pytest.mark.parametrize("flag", ["--profiles", "--samples"])
def test_verify_negative_count_names_its_flag(tmp_path, capsys, flag):
    assert run_cli(["verify", flag, "-1"], tmp_path) == 2
    assert capsys.readouterr().err == \
        f"config error: {flag} must be at least 1, got -1\n"


def test_decay_too_few_levels_exit_2_before_solving(tmp_path, capsys,
                                                    monkeypatch):
    from hopflab import fd_solver

    def solve(system):
        raise AssertionError("solved a system for a rejected depth")

    monkeypatch.setattr(fd_solver, "solve", solve)
    assert run_cli(["decay", "--profile", "log1", "--K", "1",
                    "--h", "0.015625"], tmp_path) == 2
    assert capsys.readouterr().err.startswith("config error: ")


def test_decay_repeated_contrast_profile_exit_2_before_solving(
        tmp_path, capsys, monkeypatch):
    from hopflab import decay_analysis

    def run_experiment(cfg):
        raise AssertionError("ran an experiment for a repeated profile")

    monkeypatch.setattr(decay_analysis, "run_experiment", run_experiment)
    assert run_cli(["decay", "--profile", "log1", "--contrast", "log1,flat",
                    "--K", "2", "--h", "0.015625"], tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "log1" in err


def test_solve_bad_grid_exit_2(tmp_path):
    assert run_cli(["solve", "--profile", "flat", "--h", "0.3"],
                   tmp_path) == 2


# ---------------------------------------------------------------- decay

def test_decay_run(tmp_path):
    assert run_cli(["decay", "--profile", "log1", "--K", "2",
                    "--h", "0.015625"], tmp_path) == 0
    csv = (tmp_path / "decay_levels.csv").read_text().splitlines()
    assert csv[0] == "k,r_k,osc_k,ratio_k,delta_k,product_k,h_k"
    assert len(csv) == 4
    summary = (tmp_path / "decay_summary.txt").read_text()
    assert "profile: log1" in summary


def test_decay_contrast(tmp_path):
    assert run_cli(["decay", "--contrast", "power:0.5,log1", "--K", "2",
                    "--h", "0.015625"], tmp_path) == 0
    rows = (tmp_path / "decay_contrast.csv").read_text().splitlines()
    assert rows[0].startswith("profile,")
    assert len(rows) == 3
    assert "consistency_ok: True" in \
        (tmp_path / "decay_summary.txt").read_text()


def test_decay_invalid_depth_exit_2(tmp_path):
    assert run_cli(["decay", "--profile", "log1", "--K", "8",
                    "--h", "0.015625"], tmp_path) == 2


def test_decay_missing_nondini_exit_2(tmp_path, capsys, monkeypatch):
    from hopflab import decay_analysis

    def run_experiment(cfg):
        raise AssertionError("ran an experiment for a one-sided contrast")

    monkeypatch.setattr(decay_analysis, "run_experiment", run_experiment)
    assert run_cli(["decay", "--contrast", "flat,power:0.5", "--K", "2",
                    "--h", "0.015625"], tmp_path) == 2
    assert capsys.readouterr().err == (
        "config error: contrast needs at least one Dini and one non-Dini "
        "profile\n")


@pytest.mark.parametrize("command, message", [
    (["decay", "--profile", "wedge:", "--bc", "sector"],
     "profile preset 'wedge:' argument '' is not a number"),
    (["solve", "--op", "aniso:1,x"],
     "operator preset 'aniso:1,x' argument 'x' is not a number"),
    (["modulus", "--preset", "power:abc"],
     "modulus preset 'power:abc' argument 'abc' is not a number"),
], ids=["profile", "operator", "modulus"])
def test_non_numeric_preset_argument_names_the_id(tmp_path, capsys, command,
                                                  message):
    assert run_cli(command, tmp_path) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_decay_byte_reproducible(tmp_path):
    d1 = tmp_path / "a"
    d2 = tmp_path / "b"
    d1.mkdir()
    d2.mkdir()
    for d in (d1, d2):
        assert run_cli(["decay", "--profile", "log1", "--K", "2",
                        "--h", "0.015625"], d) == 0
    assert (d1 / "decay_levels.csv").read_bytes() == \
        (d2 / "decay_levels.csv").read_bytes()


# ---------------------------------------------------------------- process

def test_console_entry_point(tmp_path):
    # the child imports the same hopflab as this process, installed or not
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "hopflab.cli", "modulus", "--preset",
         "linear", "--out", str(tmp_path)],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert "verdict: Dini" in proc.stdout


_LOADED_BY_DECAY = """
import sys
from hopflab import cli, decay_analysis as D
D.run_experiment(D.HopfExperiment(profile="log1", K=2, h=2.0**-6))
assert cli.main(["decay", "--profile", "log1", "--K", "2",
                 "--h", "0.015625", "--out", sys.argv[1]]) == 0
print("loaded:", " ".join(sorted(m for m in sys.modules
                                 if m.startswith("hopflab"))))
assert cli.main(["verify", "--samples", "200", "--profiles", "2",
                 "--out", sys.argv[1]]) == 0
"""


def test_only_verify_loads_the_barriers(tmp_path):
    # a fresh process that imports hopflab and runs a decay experiment,
    # from the API and from the command line, never loads the barriers;
    # verify loads them and still prints both certificates
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_BY_DECAY, str(tmp_path)],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    loaded = next(line for line in proc.stdout.splitlines()
                  if line.startswith("loaded:")).split()[1:]
    assert "hopflab.barriers" not in loaded
    assert "hopflab.cli" in loaded and "hopflab.fd_solver" in loaded
    keys = {line.split(":")[0] for line in proc.stdout.splitlines()}
    assert {"cylinder_bracket_max", "cylinder_passed", "radial_margin",
            "radial_passed", "radial_s", "radial_sampled_min"} <= keys


def test_decay_reports_independent_of_blas_threads(tmp_path):
    # a BLAS reduction may split its sum differently per thread count;
    # the solve path keeps its vector reductions out of BLAS (fd_solver),
    # so the reports cannot depend on the caller's thread count
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    runs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        proc = subprocess.run(
            [sys.executable, "-m", "hopflab.cli", "decay", "--profile",
             "log1", "--K", "4", "--h", "0.001953125", "--out", str(out)],
            capture_output=True,
            env={**os.environ, "PYTHONPATH": path,
                 "OPENBLAS_NUM_THREADS": threads})
        assert proc.returncode == 0, proc.stderr
        runs.append((proc.stdout, {f.name: f.read_bytes()
                                   for f in sorted(out.iterdir())}))
    assert runs[0][1]
    assert runs[0] == runs[1]
