"""Command-line front end.

Subcommands:

    kernel       constant-coefficient kernel slice as CSV
    gamma        parametrix fundamental-solution column as CSV + JSON sidecar
    oracle       ODE-oracle fundamental-solution column, same CSV schema
    compare      norm distances between two field CSVs
    bound-check  empirical bound constants as JSON
    solve        Cauchy-problem solver, time-slice CSVs + JSON run report
    verify       named verification suites, JSON reports

Exit codes: 0 success, 2 argument errors, 3 tolerance or convergence
failures.  All numeric output is deterministic for a fixed configuration
and seed; files are written to a temp name and renamed on success.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import oracle, verify
from .heat_const import ConstCoeffs, kernel_slice, recommended_radius
from .lattice import Field, GridSpec, _atomic_write, field_from_csv, field_to_csv, lp_norm
from .parametrix import Coefficients, ParametrixSolver
from .quadrature import TimeQuadrature
from .solver import CauchyProblem, SolveReport, solve_inhomogeneous, solve_with_potential


def _write_json(path: str | None, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, default=str)
    if path is None:
        print(text)
        return
    _atomic_write(path, lambda fh: fh.write(text))


def _parse_expression(expr: str, grid: GridSpec, kind: str) -> np.ndarray:
    """Evaluate a named field expression or load a CSV on the grid."""
    if expr == "zero":
        return np.zeros(grid.shape)
    if expr.startswith("const:"):
        return np.full(grid.shape, float(expr.split(":", 1)[1]))
    if expr.startswith("sine:"):
        try:
            a, b, k = (float(v) for v in expr.split(":", 1)[1].split(","))
        except ValueError:
            raise ValueError(f"bad {kind} expression {expr!r}: want sine:a,b,k") from None
        axes = np.meshgrid(*[grid.axis_coordinates()] * grid.dim, indexing="ij")
        return a + b * np.sin(2.0 * np.pi * k * axes[0])
    if os.path.exists(expr):
        f = field_from_csv(expr, dx=grid.dx, boundary=grid.boundary)
        if f.grid.shape != grid.shape:
            raise ValueError(
                f"{kind} CSV grid {f.grid.shape} does not match requested grid {grid.shape}")
        return f.values
    raise ValueError(f"unrecognised {kind} {expr!r} (const:v, sine:a,b,k, zero, or a CSV path)")


def _usage_error(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def _grid_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dx", type=float, required=True)
    p.add_argument("--dim", type=int, default=1)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--boundary", choices=("periodic-wrap", "zero-extension"),
                   default="periodic-wrap")


def _warn_radius(grid: GridSpec, t: float, cbar: float) -> None:
    need = recommended_radius(t, cbar, grid.dx)
    if grid.radius < need:
        print(f"warning: radius {grid.radius} is below the truncation rule ({need}) "
              f"for t={t}, cbar={cbar}; wrap/tail error may exceed 1e-15 of the mass",
              file=sys.stderr)


def cmd_kernel(args) -> int:
    grid = GridSpec(dx=args.dx, dim=args.dim, radius=args.radius, boundary=args.boundary)
    c = args.c if len(args.c) > 1 else args.c * grid.dim
    coeffs = ConstCoeffs(tuple(c))
    _warn_radius(grid, args.t, coeffs.cbar)
    field_to_csv(kernel_slice(grid, coeffs, args.t), args.out)
    return 0


def _make_coefficients(args, grid: GridSpec) -> Coefficients:
    vals = _parse_expression(args.coeff, grid, "coefficient")
    if np.min(vals) <= 0:
        raise ValueError("coefficients must be strictly positive")
    return Coefficients.from_field(grid, vals)


def cmd_gamma(args) -> int:
    grid = GridSpec(dx=args.dx, dim=args.dim, radius=args.radius, boundary=args.boundary)
    coeffs = _make_coefficients(args, grid)
    _warn_radius(grid, args.time, coeffs.cbar)
    beta = tuple(args.beta) if args.beta else (0,) * grid.dim
    solver = ParametrixSolver(coeffs, TimeQuadrature(nodes=args.quad_nodes), tol=args.tol)
    try:
        col = solver.gamma_column(beta, args.time)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    field_to_csv(col, args.out)
    lad = solver.ladder(args.time)
    _write_json(args.out + ".json", {
        "m_max": lad.m_max, "fitted_C3": lad.fitted_c3,
        "quad_nodes": args.quad_nodes, "tail_estimate": lad.tail,
    })
    return 0


def cmd_oracle(args) -> int:
    grid = GridSpec(dx=args.dx, dim=args.dim, radius=args.radius, boundary=args.boundary)
    coeffs = _make_coefficients(args, grid)
    beta = tuple(args.beta) if args.beta else (0,) * grid.dim
    try:
        col = oracle.gamma_oracle(coeffs, beta, args.time, tol=args.tol)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    field_to_csv(col, args.out)
    return 0


def cmd_compare(args) -> int:
    fa = field_from_csv(args.a, dx=args.dx)
    fb = field_from_csv(args.b, dx=args.dx)
    if fa.grid.shape != fb.grid.shape:
        return _usage_error(f"grids differ: {fa.grid.shape} vs {fb.grid.shape}")
    diff = Field(fa.grid, fa.values - fb.values)
    payload = {"l1": lp_norm(diff, 1.0), "l2": lp_norm(diff, 2.0),
               "linf": lp_norm(diff, math.inf)}
    if args.norm != "all":
        payload = {args.norm: payload[args.norm]}
    _write_json(args.out, payload)
    return 0


def cmd_bound_check(args) -> int:
    bound_id = args.bound
    spacings = args.dx or [0.25, 0.125, 1.0 / 16.0]
    if bound_id.startswith("lorentz-m"):
        m = int(bound_id[-1])
        per_dx = [(dx, verify._lorentz_sweep_1d(dx, m)) for dx in spacings]
        sup = max(c for _, c in per_dx)
        payload = {"bound_id": bound_id, "sup_ratio": sup,
                   "per_dx": [{"dx": dx, "constant": c} for dx, c in per_dx]}
    elif bound_id == "gaussian":
        rep = verify.suite_gaussian()
        payload = {"bound_id": bound_id,
                   "sup_ratio": 1.0 + rep["metrics"]["max_ratio_minus_1"],
                   "per_dx": []}
    elif bound_id == "pang":
        rep = verify.suite_pang()
        payload = {"bound_id": bound_id, "sup_ratio": rep["metrics"]["fitted_constant"],
                   "argmax": rep["metrics"]["argmax"], "per_dx": []}
    elif bound_id == "prop53":
        rep = verify.suite_prop53()
        payload = {"bound_id": bound_id,
                   "sup_ratio": max(rep["metrics"]["per_dx"].values()),
                   "per_dx": [{"dx": float(k), "constant": v}
                              for k, v in rep["metrics"]["per_dx"].items()]}
    else:
        return _usage_error(f"unknown bound id {bound_id!r}")
    _write_json(args.out, payload)
    return 0


def cmd_solve(args) -> int:
    grid = GridSpec(dx=args.dx, dim=args.dim, radius=args.radius, boundary=args.boundary)
    coeffs = _make_coefficients(args, grid)
    psi = Field(grid, _parse_expression(args.psi, grid, "initial data"))
    source = None
    if args.source != "zero":
        f_vals = Field(grid, _parse_expression(args.source, grid, "source"))
        source = lambda s: f_vals  # noqa: E731 - constant-in-time source
    potential = None
    if args.potential != "zero":
        potential = Field(grid, _parse_expression(args.potential, grid, "potential"))
    prob = CauchyProblem(coeffs, psi, source=source, potential=potential, horizon=args.time)
    times = np.linspace(0.0, args.time, args.slices + 1)[1:]
    report = SolveReport()
    solver = ParametrixSolver(coeffs, TimeQuadrature(nodes=args.quad_nodes), tol=args.tol)
    slices = []
    try:
        for i, t in enumerate(times):
            if potential is None:
                u = solve_inhomogeneous(prob, float(t), solver=solver)
            else:
                u = solve_with_potential(prob, float(t), solver=solver, report=report)
            slices.append(u)
            field_to_csv(u, f"{args.out}.t{i + 1}.csv")
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    res = report.residual
    if potential is None and len(slices) >= 3:
        # centered ODE residual over the emitted uniform slices
        res = oracle.residual(slices, [float(t) for t in times], coeffs, f=source)
    _write_json(args.out + ".json", {"panels": report.panels,
                                     "residual": res,
                                     "times": [float(t) for t in times]})
    return 0


def cmd_verify(args) -> int:
    if args.suite not in verify.SUITES:
        return _usage_error(f"unknown suite {args.suite!r}; choose from {', '.join(verify.SUITES)}")
    np.random.seed(args.seed)
    rep = verify.run_suite(args.suite)
    # keep the written report byte-deterministic; timing goes to stderr
    runtime = rep["metrics"].pop("runtime_s", None)
    if runtime is not None:
        print(f"suite {args.suite} finished in {runtime}s", file=sys.stderr)
    rep["config_echo"] = {"subcommand": args.subcommand,
                          "options": {k: v for k, v in vars(args).items() if k != "subcommand"}}
    _write_json(args.out, rep)
    return 0 if rep["pass"] else 3


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="sdheat",
                                 description="semi-discrete heat kernels: compute, verify, compare")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("kernel", help="constant-coefficient kernel slice")
    _grid_args(p)
    p.add_argument("--c", type=float, nargs="+", default=[1.0])
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--out", required=True)

    for name in ("gamma", "oracle"):
        p = sub.add_parser(name, help=f"{name} fundamental-solution column")
        _grid_args(p)
        p.add_argument("--coeff", required=True,
                       help="const:v | sine:a,b,k | CSV path")
        p.add_argument("--time", type=float, required=True)
        p.add_argument("--tol", type=float, default=1e-8)
        p.add_argument("--quad-nodes", type=int, default=96)
        p.add_argument("--beta", type=int, nargs="+", default=None)
        p.add_argument("--out", required=True)

    p = sub.add_parser("compare", help="distances between two field CSVs")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--dx", type=float, default=1.0)
    p.add_argument("--norm", choices=("l1", "l2", "linf", "all"), default="all")
    p.add_argument("--out", default=None)

    p = sub.add_parser("bound-check", help="empirical bound constants")
    p.add_argument("--bound", required=True,
                   help="lorentz-m0 | lorentz-m1 | lorentz-m2 | gaussian | pang | prop53")
    p.add_argument("--dx", type=float, nargs="+", default=None)
    p.add_argument("--out", default=None)

    p = sub.add_parser("solve", help="solve a Cauchy problem")
    _grid_args(p)
    p.add_argument("--coeff", required=True)
    p.add_argument("--psi", required=True)
    p.add_argument("--source", default="zero")
    p.add_argument("--potential", default="zero")
    p.add_argument("--time", type=float, required=True)
    p.add_argument("--slices", type=int, default=1)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--quad-nodes", type=int, default=96)
    p.add_argument("--out", required=True)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.subcommand == "kernel":
            return cmd_kernel(args)
        if args.subcommand == "gamma":
            return cmd_gamma(args)
        if args.subcommand == "oracle":
            return cmd_oracle(args)
        if args.subcommand == "compare":
            return cmd_compare(args)
        if args.subcommand == "bound-check":
            return cmd_bound_check(args)
        if args.subcommand == "solve":
            return cmd_solve(args)
        if args.subcommand == "verify":
            return cmd_verify(args)
    except (ValueError, OSError) as exc:
        return _usage_error(str(exc))
    return _usage_error(f"unknown subcommand {args.subcommand!r}")


if __name__ == "__main__":
    sys.exit(main())
