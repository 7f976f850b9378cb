import os
import subprocess
import sys
from pathlib import Path

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


def test_modulus_bad_csv_exit_2(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("0.0,0.0\n0.5,0.9\n1.0,0.4\n", encoding="utf-8")
    assert run_cli(["modulus", "--csv", str(bad)], tmp_path) == 2


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


def test_solve_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("grid.h = 0.0625\ngrid.R0 = 0.5\nbc.kind = linear\n",
                   encoding="utf-8")
    assert run_cli(["solve", "--profile", "flat", "--config", str(cfg)],
                   tmp_path) == 0
    assert "grid.h: 0.0625" in (tmp_path / "solve_summary.txt").read_text()


@pytest.mark.parametrize("command", [
    ["solve", "--profile", "flat"],
    ["decay", "--profile", "log1", "--K", "2"],
], ids=["solve", "decay"])
@pytest.mark.parametrize("key", ["grid.H", "solver.maxiter", "solver.tol",
                                 "solver.max_iter"])
def test_config_unknown_key_exit_2(tmp_path, capsys, command, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"grid.h = 0.015625\n{key} = 7\n", encoding="utf-8")
    assert run_cli(command + ["--config", str(cfg)], tmp_path) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["solve", "--profile", "flat"],
    ["decay", "--profile", "log1", "--K", "2"],
], ids=["solve", "decay"])
# solver.tol and solver.max_iter are not config keys: any value of them
# exits 2 naming the key rather than being ignored
@pytest.mark.parametrize("setting", ["solver.tol = 0", "solver.tol = -1",
                                     "solver.tol = nan",
                                     "solver.max_iter = 0"])
def test_config_bad_solver_setting_exit_2(tmp_path, capsys, command,
                                          setting):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"grid.h = 0.015625\n{setting}\n", encoding="utf-8")
    assert run_cli(command + ["--config", str(cfg)], tmp_path) == 2
    assert setting.split(" = ")[0] in capsys.readouterr().err


def test_decay_config_file_matches_flags(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("grid.h = 0.015625\ngrid.R0 = 0.5\nbc.kind = linear\n",
                   encoding="utf-8")
    d1 = tmp_path / "a"
    d2 = tmp_path / "b"
    d1.mkdir()
    d2.mkdir()
    assert run_cli(["decay", "--profile", "log1", "--K", "2", "--config",
                    str(cfg)], d1) == 0
    assert run_cli(["decay", "--profile", "log1", "--K", "2",
                    "--h", "0.015625"], d2) == 0
    for name in ("decay_levels.csv", "decay_summary.txt"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


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
    ["modulus", "--csv", "{missing}"],
    ["solve", "--config", "{missing}"],
    ["solve", "--h", "0"],
    ["decay", "--profile", "log1", "--K", "2", "--h", "0"],
    ["verify", "--profiles", "-1"],
    ["verify", "--profiles", "0"],
    ["verify", "--samples", "-1"],
    ["verify", "--samples", "0"],
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
], ids=lambda c: " ".join(c))
def test_bad_input_exit_2(tmp_path, capsys, command):
    # the output directory is made at the first write, so a rejected
    # input leaves none behind
    missing = str(tmp_path / "missing.txt")
    out = tmp_path / "out"
    assert run_cli([a.format(missing=missing) for a in command], out) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")
    assert not out.exists()


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


def test_decay_missing_nondini_exit_2(tmp_path):
    assert run_cli(["decay", "--contrast", "flat,power:0.5", "--K", "2",
                    "--h", "0.015625"], tmp_path) == 2


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
