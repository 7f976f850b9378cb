"""Command-line surface: modulus, geometry, verify, solve, decay.

Exit codes, decided in ``main`` alone: 0 success; 1 a failed check,
returned only by ``verify`` (certificates, property suites) and
``geometry`` (sandwich check); 2 configuration error, for every bad flag
or missing file; 3 numerical failure: a Dini integral
that is finite but not resolved to its tolerance, a mixed coefficient
with no monotone stencil, or a system whose factorization runs out of
memory.  A divergent Dini integral is no failure but the value inf
("inf" in the modulus table).  Every ``ValueError`` but
``StencilMonotonicityError`` is a configuration error: among them a
preset id given an argument it does not take, missing one it needs or
given one that is not a number, and ``modulus --csv`` together with
``--preset``.  Reports are plain text (key: value) and CSV,
byte-reproducible for fixed flags and build; every report embeds the
resolved configuration.  Only ``verify`` and ``geometry`` draw samples,
so only they take ``--seed``.  The default output directory comes from
HOPFLAB_OUT.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import convex_geometry as geo, decay_analysis as decay
from . import elliptic_operator as ell, fd_solver as fds, modulus as mod

EXIT_OK = 0
EXIT_CERT_FAIL = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _out_file(args, name: str) -> Path:
    """Path of the report ``name`` in the output directory.  The directory
    is made here, at a command's first write, which comes after every
    input check, so a rejected input leaves nothing behind."""
    out = Path(args.out or os.environ.get("HOPFLAB_OUT") or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out / name


def _write(args, name: str, text: str) -> None:
    _out_file(args, name).write_text(text, encoding="utf-8")


def _echo_config(pairs) -> str:
    return "".join(f"{k}: {v}\n" for k, v in sorted(pairs.items()))


# ----------------------------------------------------------------------
# modulus
# ----------------------------------------------------------------------

def _j_cell(sigma, t: float) -> str:
    """J(t) for the modulus table: "inf" where the integral diverges,
    "budget" where a finite J is not resolved before the quadrature's
    1e-280 floor."""
    try:
        return repr(mod.dini_integral(sigma, t, rel_tol=1e-9))
    except mod.QuadratureToleranceError:
        return "budget"


def _cmd_modulus(args) -> int:
    if args.csv is not None:
        if args.preset is not None:
            raise ValueError("--csv and --preset are exclusive")
        sigma = mod.load_csv(args.csv)
        label = f"csv:{args.csv}"
    else:
        label = "linear" if args.preset is None else args.preset
        sigma = mod.preset_modulus(label)
    verdict = mod.dini_classify(sigma, depth=args.depth)
    rows = ["t,sigma,ratio,j_sigma"]
    for t in np.geomspace(2.0 ** -args.depth, 1.0, 25).tolist():
        s = sigma(t)
        rows.append(f"{t!r},{s!r},{s / t!r},{_j_cell(sigma, t)}")
    _write(args, "modulus_table.csv", "\n".join(rows) + "\n")
    summary = _echo_config({
        "modulus": label,
        "depth": args.depth,
        "verdict": str(verdict.verdict),
        "numeric_verdict": str(verdict.numeric_verdict),
        "growth_exponent": repr(verdict.growth_exponent_estimate),
    })
    _write(args, "modulus_summary.txt", summary)
    sys.stdout.write(summary)
    return EXIT_OK


# ----------------------------------------------------------------------
# geometry
# ----------------------------------------------------------------------

def _cmd_geometry(args) -> int:
    profile = geo.preset_profile(args.profile, R0=args.R0)
    if args.levels < 1:
        raise ValueError(f"--levels must be at least 1, got {args.levels}")
    rs = [args.R0 / 2.0 ** k for k in range(2, 2 + args.levels)]
    rows = ["r,delta,delta1,lower_ok,upper_ok"]
    all_ok = True
    for r in rs:
        rep = geo.sandwich_check(profile, r)
        all_ok &= rep.both_ok
        rows.append(f"{r!r},{rep.delta_r!r},{rep.delta1_r!r},"
                    f"{rep.lower_ok},{rep.upper_ok}")
    frame = geo.extremal_frame(profile, rs[0])
    ball = geo.ball_inclusion_check(profile, frame, nu=args.nu,
                                    seed=args.seed)
    _write(args, "geometry_table.csv", "\n".join(rows) + "\n")
    summary = _echo_config({
        "profile": args.profile,
        "R0": repr(args.R0),
        "nu": repr(args.nu),
        "sandwich_ok": all_ok,
        "phi": repr(frame.phi),
        "ball_included": ball.included,
        "ball_margin": repr(ball.margin),
        "smallness_ok": ball.smallness_ok,
        "seed": args.seed,
    })
    _write(args, "geometry_summary.txt", summary)
    sys.stdout.write(summary)
    return EXIT_OK if all_ok else EXIT_CERT_FAIL


# ----------------------------------------------------------------------
# verify: certificates and property suites
# ----------------------------------------------------------------------

def _cmd_verify(args) -> int:
    # only verify uses the barriers, so only verify loads them
    from . import barriers

    # a certificate over no sampled matrix, or a sandwich suite over no
    # profile, would certify nothing
    for flag, count in (("--samples", args.samples),
                        ("--profiles", args.profiles)):
        if count < 1:
            raise ValueError(f"{flag} must be at least 1, got {count}")
    rng = np.random.default_rng(args.seed)
    failures = []
    lines = {}

    cyl = barriers.cylinder_barrier_certificate(
        nu=args.nu, n=args.n, samples=args.samples, seed=args.seed)
    lines["cylinder_bracket_max"] = repr(cyl.bracket_max)
    lines["cylinder_passed"] = cyl.passed
    if not cyl.passed:
        failures.append(f"cylinder bracket max {cyl.bracket_max!r} > 0 "
                        f"(worst matrix {cyl.worst_matrix.tolist()})")

    s = args.s if args.s is not None else args.n / args.nu**2
    rad = barriers.radial_exponent_certificate(
        s=s, nu=args.nu, n=args.n, samples=args.samples, seed=args.seed)
    lines["radial_s"] = repr(s)
    lines["radial_margin"] = repr(rad.margin)
    lines["radial_sampled_min"] = repr(rad.sampled_min_bracket)
    lines["radial_passed"] = rad.passed
    if not rad.passed:
        failures.append(
            f"radial margin {rad.margin!r} < 0 at s = {s!r} "
            f"(worst matrix {rad.worst_matrix.tolist()})")

    # the other barrier steps, reported: the bracket -tr(a D^2 psi)/2 of
    # the cylinder barrier psi (k = rho = 1) from its own Hessian, at the
    # certificate's worst matrix (+ 0.0 prints a zero unsigned); the
    # ball chain's factor theta, k_{l+1} = k_l theta/2 without drift, on
    # the shortest admissible chain, whose steps are the longest; the cap
    # bound constant.  Both of the last are scale-free; at
    # r = 64/gamma the chain's inner radius rho0/8 is 1, so no power
    # |x - z|^-s of theirs overflows
    _, _, hess = barriers.barrier_eval(
        barriers.cylinder_barrier(1.0, 1.0, args.nu, args.n),
        np.zeros(args.n))
    lines["cylinder_barrier_bracket"] = repr(
        -0.5 * float(np.sum(cyl.worst_matrix * hess)) + 0.0)
    r = 64.0 * (args.n - 1) ** 0.5 / args.nu
    window = barriers.chain_geometry(args.nu, args.n, r)[3]
    chain = barriers.growth_chain(1.0, args.nu, args.n, r,
                                  chain_length=int(np.ceil(window[0])))
    lines["chain_theta"] = repr(chain.theta)
    lines["cap_bound_constant"] = repr(
        float(barriers.cap_bound_constant(args.nu, args.n, r)))

    sandwich_bad = 0
    for trial in range(args.profiles):
        k = int(rng.integers(2, 7))
        slopes = np.vstack((np.zeros((1, 1)), rng.normal(0.0, 1.0, size=(k, 1))))
        offsets = np.concatenate(([0.0], -np.abs(rng.normal(0.0, 0.05, size=k))))
        prof = geo.MaxAffineProfile(slopes=slopes, offsets=offsets, R0=0.5)
        for r in (prof.R0 / 4.0, prof.R0 / 8.0):
            if not geo.sandwich_check(prof, r).both_ok:
                sandwich_bad += 1
    lines["sandwich_violations"] = sandwich_bad
    if sandwich_bad:
        failures.append(f"{sandwich_bad} sandwich violations")

    drift_bad = 0
    for _ in range(2000):
        n = int(rng.integers(2, 6))
        b = rng.normal(0.0, 2.0, size=n)
        eps = float(rng.uniform(0.2, 2.0))
        g = rng.normal(0.0, 1.0, size=n)
        bt = ell.truncate_drift(b, eps)
        be = ell.correct_drift(bt, b, g)
        if abs(be @ g) > abs(b @ g) or np.any(np.abs(be) > np.abs(bt) + 1e-15):
            drift_bad += 1
    lines["drift_violations"] = drift_bad
    if drift_bad:
        failures.append(f"{drift_bad} drift-correction violations")

    lines.update({"nu": repr(args.nu), "n": args.n, "seed": args.seed,
                  "samples": args.samples})
    summary = _echo_config(lines)
    _write(args, "verify_summary.txt", summary)
    sys.stdout.write(summary)
    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return EXIT_CERT_FAIL
    return EXIT_OK


# ----------------------------------------------------------------------
# solve
# ----------------------------------------------------------------------

def _cmd_solve(args) -> int:
    profile = geo.preset_profile(args.profile, R0=args.R0)
    op = ell.preset_operator(args.op)
    bc = decay.boundary_data(args.bc, profile)
    dom = fds.DiscreteDomain.build(profile, args.h)
    system = fds.discretize(op, dom, bc)
    sol = fds.solve(system)
    if args.dump_matrix:
        fds.dump_matrix(_out_file(args, "system_matrix.txt"), system.matrix)
        fds.dump_vector(_out_file(args, "system_rhs.txt"), system.rhs)
    fds.dump_solution_csv(_out_file(args, "solution.csv"), sol)
    summary = _echo_config({
        "profile": args.profile, "operator": args.op,
        "grid.h": repr(args.h), "grid.R0": repr(args.R0),
        "bc.kind": args.bc, "residual": repr(sol.residual_norm),
        "method": sol.method, "unknowns": dom.n_unknowns,
    })
    _write(args, "solve_summary.txt", summary)
    sys.stdout.write(summary)
    return EXIT_OK


# ----------------------------------------------------------------------
# decay
# ----------------------------------------------------------------------

def _cmd_decay(args) -> int:
    base = decay.HopfExperiment(profile=args.profile or "log1",
                                operator=args.op, R0=args.R0, K=args.K,
                                h=args.h, bc=args.bc)
    base.validate()
    if args.contrast is None:
        rep = decay.run_experiment(base)
        _write(args, "decay_levels.csv", decay.report_csv(rep))
        summary = decay.report_summary(rep)
    else:
        profiles = [p.strip() for p in args.contrast.split(",") if p.strip()]
        if args.profile:
            profiles = [args.profile] + profiles
        rep = decay.contrast_suite(profiles, args.op, base)
        rows = ["profile,dini,trace_first,trace_last,kappa,product_K,verdict"]
        for row in rep.rows:
            rows.append(",".join(repr(row[k]) if isinstance(row[k], float)
                                 else str(row[k])
                                 for k in ("profile", "dini", "trace_first",
                                           "trace_last", "kappa",
                                           "product_K", "verdict")))
        _write(args, "decay_contrast.csv", "\n".join(rows) + "\n")
        summary = _echo_config({
            "profiles": ";".join(profiles),
            "operator": args.op,
            "consistency_ok": rep.consistency_ok,
            "common_kappa": repr(rep.common_kappa),
            "grid.h": repr(args.h), "grid.R0": repr(args.R0), "K": args.K,
            "bc.kind": args.bc,
        })
    _write(args, "decay_summary.txt", summary)
    sys.stdout.write(summary)
    return EXIT_OK


# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hopflab",
        description="Boundary-point behavior of elliptic equations on "
                    "convex graph domains: moduli, geometry, certificates, "
                    "solves and decay experiments.")
    sub = ap.add_subparsers(dest="command", required=True)

    # flags shared by several subcommands, declared once; the defaults of
    # a run are HopfExperiment's.  Only the sampling commands take a seed
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None)
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0)
    radius = argparse.ArgumentParser(add_help=False)
    radius.add_argument("--R0", type=float, default=decay.HopfExperiment.R0)
    run = argparse.ArgumentParser(add_help=False, parents=[common, radius])
    run.add_argument("--op", default=decay.HopfExperiment.operator)
    run.add_argument("--bc", default=decay.HopfExperiment.bc,
                     choices=("linear", "sector"))

    p = sub.add_parser("modulus", parents=[common],
                       help="modulus table and Dini verdict")
    p.add_argument("--preset", default=None, help="default linear")
    p.add_argument("--csv", default=None,
                   help="tabulated modulus CSV, in place of --preset")
    p.add_argument("--depth", type=int, default=40)
    p.set_defaults(func=_cmd_modulus)

    p = sub.add_parser("geometry", parents=[common, seeded, radius],
                       help="delta/delta1 table, frame and ball")
    p.add_argument("--profile", default="power:0.5")
    p.add_argument("--nu", type=float, default=0.5)
    p.add_argument("--levels", type=int, default=4)
    p.set_defaults(func=_cmd_geometry)

    p = sub.add_parser("verify", parents=[common, seeded],
                       help="barrier certificates and property suites")
    p.add_argument("--nu", type=float, default=0.5)
    p.add_argument("--n", type=int, default=2,
                   help="dimension, 2 to 16 (2^n corner matrices are "
                        "sampled)")
    p.add_argument("--s", type=float, default=None,
                   help="radial exponent override (default n/nu^2)")
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--profiles", type=int, default=50)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("solve", parents=[run],
                       help="one finite-difference solve")
    p.add_argument("--profile", default="flat")
    p.add_argument("--h", type=float, default=2**-6)
    p.add_argument("--dump-matrix", action="store_true")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("decay", parents=[run],
                       help="dyadic decay experiment / contrast")
    p.add_argument("--profile", default=None)
    p.add_argument("--h", type=float, default=decay.HopfExperiment.h)
    p.add_argument("--K", type=int, default=decay.HopfExperiment.K)
    p.add_argument("--contrast", default=None,
                   help="comma-separated profile list")
    p.set_defaults(func=_cmd_decay)
    return ap


def main(argv=None) -> int:
    """Run one subcommand; this table alone maps errors to exit codes."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    # StencilMonotonicityError is a ValueError: this clause comes first
    except (MemoryError, fds.StencilMonotonicityError,
            mod.QuadratureToleranceError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError) as exc:  # bad flag or file
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
