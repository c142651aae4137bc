"""Verification suites: one per acceptance check, shared by CLI and tests.

Each suite function runs a self-contained numerical experiment and
returns a report dict {"suite", "pass", "metrics", ...}; the CLI
serialises it as JSON and the acceptance tests assert on it.  All
suites are deterministic for a fixed seed.
"""

from __future__ import annotations

import math
import time
from typing import Callable

import numpy as np

from . import bessel, bounds, heat_const, oracle
from .heat_const import ConstCoeffs, kernel_axis_values, recommended_radius, spectral_axis_values
from .lattice import Field, GridSpec
from .parametrix import Coefficients, ParametrixSolver
from .quadrature import TimeQuadrature
from .solver import CauchyProblem, gradient_sup, solve_inhomogeneous, solve_with_potential

SUITES = ("mass", "bessel-cross", "spectral-cross", "lorentz-kernel", "gaussian",
          "gamma-oracle", "propagation", "lorentz-conv", "prop53", "duhamel",
          "potential", "pang")


def ac6_coefficients(dx: float = 1.0 / 16.0, radius: int = 64) -> Coefficients:
    """The reference variable-coefficient configuration used by the
    oracle-equivalence checks: c(x) = 1 + 0.5 sin(2 pi x), periodic."""
    grid = GridSpec(dx=dx, dim=1, radius=radius)
    return Coefficients.from_function(grid, lambda x: 1.0 + 0.5 * np.sin(2.0 * np.pi * x))


def _report(suite: str, ok: bool, metrics: dict, config: dict) -> dict:
    return {"suite": suite, "pass": bool(ok), "metrics": metrics, "config_echo": config}


# -- constant-coefficient kernel suites --------------------------------------

def suite_mass() -> dict:
    """Kernel mass over a rule-sized periodic box equals one."""
    cfg = {"dims": [1, 2], "dx": [1.0, 0.25, 1.0 / 16.0], "t": [0.1, 1.0, 10.0], "c": 1.0}
    worst = 0.0
    worst_at = None
    for dx in cfg["dx"]:
        for t in cfg["t"]:
            arr = bessel.iv_scaled_array(recommended_radius(t, 1.0, dx), 2.0 * t / dx**2)
            axis_sum = float(arr[0] + 2.0 * arr[1:].sum())
            for d in cfg["dims"]:
                dev = abs(axis_sum**d - 1.0)
                if dev > worst:
                    worst, worst_at = dev, {"d": d, "dx": dx, "t": t}
    return _report("mass", worst <= 1e-12, {"max_deviation": worst, "argmax": worst_at}, cfg)


def suite_bessel_cross() -> dict:
    """Scaled-Bessel routine against the integral-representation oracle."""
    cfg = {"orders": "0..60", "r": "10^k, k=-3..4", "rel_tol": 1e-10}
    worst = 0.0
    worst_at = None
    for n in range(0, 61):
        for k in range(-3, 5):
            r = 10.0**k
            iv = bessel.iv_scaled(n, r)
            qd = bessel.iv_scaled_quadrature(n, r)
            dev = abs(iv - qd) / max(iv, 1e-300)
            if dev > worst:
                worst, worst_at = dev, {"n": n, "r": r}
    return _report("bessel-cross", worst <= 1e-10,
                   {"max_rel_deviation": worst, "argmax": worst_at}, cfg)


def suite_spectral_cross() -> dict:
    """Bessel-product kernel against the spectral and series routes."""
    cfg = {"dims": [1, 2], "dx": [1.0, 0.25, 1.0 / 16.0], "t": "10^k, k=-3..1",
           "spectral_tol": 1e-9, "series_tol": 1e-10}
    worst_sp = 0.0
    worst_se = 0.0
    for dx in cfg["dx"]:
        for k in range(-3, 2):
            t = 10.0**k
            n = min(recommended_radius(t, 1.0, dx), 48)
            direct = kernel_axis_values(n, t, 1.0, dx)
            spec = spectral_axis_values(n, t, 1.0, dx)
            dev_axis = np.abs(direct - spec).max()
            # product structure: a d-dimensional entry differs by at most
            # d * dev_axis * (axis peak)^(d-1)
            for d in (1, 2):
                dev = d * dev_axis * (np.abs(direct).max() ** (d - 1))
                worst_sp = max(worst_sp, dev * dx**d)
            grid1 = GridSpec(dx=dx, dim=1, radius=min(n, 24))
            coeffs1 = ConstCoeffs.of(1.0)
            if heat_const.series_tail_ok(t, coeffs1, grid1, 24):
                ser = heat_const.kernel_series_smalltime(t, coeffs1, grid1, 24)
                mid = kernel_axis_values(grid1.radius, t, 1.0, dx)
                worst_se = max(worst_se, np.abs(ser.flat() - mid).max() * dx)
    # one genuine 2-d series check at coarse resolution
    grid2 = GridSpec(dx=1.0, dim=2, radius=8)
    coeffs2 = ConstCoeffs.of(1.0, 1.0)
    ser2 = heat_const.kernel_series_smalltime(0.01, coeffs2, grid2, 20)
    axis = kernel_axis_values(8, 0.01, 1.0, 1.0)
    worst_se = max(worst_se, float(np.abs(ser2.values - np.multiply.outer(axis, axis)).max()))
    ok = worst_sp <= 1e-9 and worst_se <= 1e-10
    return _report("spectral-cross", ok,
                   {"spectral_dev_scaled": worst_sp, "series_dev_scaled": worst_se}, cfg)


def _lorentz_sweep_1d(dx: float, m: int, cbar: float = 1.0) -> float:
    """Sup ratio of |(D+)^m kernel| over the Lorentzian rhs, d = 1."""
    t_min = min(1e-3, 1e-2 * dx**2 / (2.0 * cbar))
    decades = math.log10(10.0 / t_min)
    ts = np.logspace(math.log10(t_min), 1.0, int(40 * decades) + 1)
    x_max = 24.0
    n_box = int(x_max / dx)
    sup = 0.0
    for t in ts:
        r = 2.0 * cbar * t / dx**2
        n_eff = min(n_box, bessel.normalization_order(r) + m + 2)
        arr = bessel.iv_scaled_array(n_eff + m, r) / dx
        vals = np.concatenate([arr[::-1], arr[1:]])  # offsets -n_eff-m .. n_eff+m
        for _ in range(m):
            vals = (vals[1:] - vals[:-1]) / dx
        offs = np.arange(-(n_eff + m), -(n_eff + m) + vals.size)
        rhs = bounds.lorentz_rhs(offs, t, cbar, dx, m)
        sup = max(sup, float((np.abs(vals) / rhs).max()))
    return sup


def suite_lorentz_kernel() -> dict:
    """Lorentzian kernel bound: finite sup ratios, spacing-stable."""
    cfg = {"d": 1, "m": [0, 1, 2], "dx": [0.25, 0.125, 1.0 / 16.0], "c": 1.0,
           "t_grid": "40/decade, per-dx scaled minimum .. 10"}
    per_m = {}
    ok = True
    for m in (0, 1, 2):
        consts = {dx: _lorentz_sweep_1d(dx, m) for dx in cfg["dx"]}
        vals = list(consts.values())
        spread = (max(vals) - min(vals)) / max(vals)
        per_m[m] = {"per_dx": {str(k): v for k, v in consts.items()}, "spread": spread}
        ok = ok and all(np.isfinite(v) for v in vals) and spread < 0.10
    return _report("lorentz-kernel", ok, {"per_order": per_m}, cfg)


def suite_gaussian() -> dict:
    """Explicit-constant Gaussian bound holds pointwise in its region."""
    cfg = {"dims": [1, 2], "c": [0.5, 1.0, 2.0], "dx": [1.0, 0.25],
           "alpha_max": 64, "t_points": 40, "slack": 1e-12}
    ts = np.logspace(-2, 1, 40)
    worst = -math.inf
    checked = 0
    n = np.arange(0, 65)
    for dx in cfg["dx"]:
        for t in ts:
            log_kernel = {}
            for c in cfg["c"]:
                vals = bessel.iv_scaled_array(64, 2.0 * c * t / dx**2) / dx
                with np.errstate(divide="ignore"):
                    log_kernel[c] = np.log(vals)
            for d in (1, 2):
                combos = [(c,) for c in cfg["c"]] if d == 1 else \
                    [(c1, c2) for c1 in cfg["c"] for c2 in cfg["c"]]
                for combo in combos:
                    # kernel and bound are products over directions and the
                    # region is a box, so the worst log ratio is a sum of
                    # per-direction maxima
                    c_min = min(combo)
                    log_ratio = sum(
                        float((log_kernel[c] - bounds.gaussian_log_rhs(n, t, c, dx, c_min)).max())
                        for c in combo)
                    worst = max(worst, log_ratio)
                    checked += 1
    ok = worst <= math.log1p(1e-12)
    return _report("gaussian", ok,
                   {"max_log_ratio": worst, "max_ratio_minus_1": math.expm1(worst),
                    "combinations_checked": checked}, cfg)


# -- parametrix vs oracle suites ----------------------------------------------

def suite_gamma_oracle(solver96: ParametrixSolver | None = None) -> dict:
    """Parametrix column against the ODE oracle, three quadrature levels."""
    cfg = {"dx": "1/16", "radius": 64, "c": "1 + 0.5 sin(2 pi x)", "T": 0.25,
           "beta": 0, "tol": 1e-8, "levels": [24, 48, 96]}
    coeffs = ac6_coefficients()
    T = 0.25
    ref = oracle.gamma_oracle(coeffs, (0,), T, tol=1e-10)
    dists = []
    for nodes in cfg["levels"]:
        solver = solver96 if (nodes == 96 and solver96 is not None) else \
            ParametrixSolver(coeffs, TimeQuadrature(nodes=nodes), tol=1e-8)
        col = solver.gamma_column((0,), T)
        dists.append(float(np.abs(col.flat() - ref.flat()).sum() * coeffs.grid.dx))
    monotone = all(b < a for a, b in zip(dists, dists[1:]))
    ok = monotone and dists[-1] <= 1e-2
    return _report("gamma-oracle", ok, {"l1_distances": dists, "monotone": monotone}, cfg)


def suite_propagation(solver96: ParametrixSolver | None = None) -> dict:
    """Propagation relation Gamma(t) = Gamma(s) * Gamma(t-s)."""
    cfg = {"dx": "1/16", "radius": 64, "T": 0.25, "s": 0.125,
           "variable_tol": 1e-2, "constant_tol": 1e-11}
    coeffs = ac6_coefficients()
    T = 0.25
    solver = solver96 or ParametrixSolver(coeffs, TimeQuadrature(nodes=96), tol=1e-8)
    defect_var = solver.propagation_defect(T / 2.0, T)
    const = Coefficients.constant(coeffs.grid, 1.0)
    sc = ParametrixSolver(const, TimeQuadrature(nodes=96), tol=1e-8)
    defect_const = sc.propagation_defect(T / 2.0, T)
    ok = defect_var <= 1e-2 and defect_const <= 1e-11
    return _report("propagation", ok,
                   {"defect_variable": defect_var, "defect_constant": defect_const}, cfg)


def suite_lorentz_conv() -> dict:
    """Lorentz-convolution closed form vs adaptive quadrature, and the
    sqrt(2) pi domination by the single Lorentzian at the full time."""
    cfg = {"offsets": 20, "times": 20, "rel_tol": 1e-8}
    offsets = np.linspace(-6.0, 6.0, 20)
    ts = np.linspace(0.1, 4.0, 20)
    worst_rel = 0.0
    worst_bound = 0.0
    for t in ts:
        for s in np.linspace(0.05, 0.95, 19) * t:
            for z in offsets:
                closed = bounds.lorentz_closed_form(z, 0.0, s, t)
                worst_bound = max(worst_bound,
                                  closed / (math.sqrt(2.0) * math.pi * bounds.lorentz_tilde(t, z)))
    # quadrature cross-check on a thinner sample (the expensive part)
    for t in ts[::4]:
        for s in np.array([0.2, 0.5, 0.8]) * t:
            for z in offsets[::4]:
                closed = bounds.lorentz_closed_form(z, 0.0, s, t)
                quad = bounds.lorentz_conv_quadrature(z, 0.0, s, t)
                worst_rel = max(worst_rel, abs(closed - quad) / abs(closed))
    ok = worst_rel <= 1e-8 and worst_bound <= 1.0 + 1e-12
    return _report("lorentz-conv", ok,
                   {"max_rel_error": worst_rel, "max_bound_ratio": worst_bound}, cfg)


def suite_prop53() -> dict:
    """Self-reproduction of the Lorentz-product profile under discrete
    convolution, with a spacing-stable constant."""
    cfg = {"d": 1, "dx": [0.25, 1.0 / 16.0], "c1": 1.0, "T": 1.0, "stability": 0.15}
    per_dx = {}
    for dx in cfg["dx"]:
        x_max = 20.0
        n = int(x_max / dx)
        offs = np.arange(-n, n + 1)
        t_min = max(1e-3, 1e-2 * dx**2)
        ts = np.logspace(math.log10(t_min), 0.0, int(10 * math.log10(1.0 / t_min)) + 1)
        sup = 0.0
        for t in ts:
            for frac in np.linspace(0.1, 0.9, 9):
                s = frac * t
                f_ts = bounds.prop53_f(t - s, offs[:, None], dx)
                f_s = bounds.prop53_f(s, offs[:, None], dx)
                conv = np.convolve(f_ts, f_s)[n: 3 * n + 1] * dx
                keep = np.abs(offs) <= n // 2
                rhs = bounds.prop53_f(t, offs[keep, None], dx)
                rhs = rhs * math.sqrt(t) / math.sqrt(s * (t - s))
                sup = max(sup, float((conv[keep] / rhs).max()))
        per_dx[dx] = sup
    vals = list(per_dx.values())
    spread = (max(vals) - min(vals)) / max(vals)
    ok = all(np.isfinite(v) and v > 0 for v in vals) and spread < 0.15
    return _report("prop53", ok,
                   {"per_dx": {str(k): v for k, v in per_dx.items()}, "spread": spread}, cfg)


def _ac10_problem(coeffs: Coefficients) -> tuple[CauchyProblem, Field]:
    grid = coeffs.grid
    length = grid.npts * grid.dx
    psi = Field.from_function(grid, lambda x: 1.0 + 0.3 * np.cos(2 * np.pi * x / length)
                              + 0.2 * np.sin(4 * np.pi * x / length))
    fsrc = Field.from_function(grid, lambda x: 0.5 + 0.25 * np.sin(2 * np.pi * x / length))
    prob = CauchyProblem(coeffs, psi, source=lambda s: fsrc, horizon=0.251)
    return prob, fsrc


def suite_duhamel(solver_duhamel: ParametrixSolver | None = None) -> dict:
    """Centered-difference ODE residual of the Duhamel solution."""
    cfg = {"dx": "1/16", "radius": 64, "T": 0.25, "h": 1e-3, "tol_factor": 1e-4}
    coeffs = ac6_coefficients()
    prob, fsrc = _ac10_problem(coeffs)
    T, h = 0.25, 1e-3
    solver = solver_duhamel or ParametrixSolver(coeffs, TimeQuadrature(nodes=96), tol=1e-8)
    slices = [solve_inhomogeneous(prob, t, solver=solver, source_nodes=16)
              for t in (T - h, T, T + h)]
    res = oracle.residual(slices, [T - h, T, T + h], coeffs, f=lambda s: fsrc)
    scale = float(np.abs(prob.psi.values).max() + np.abs(fsrc.values).max())
    budget = 1e-4 * scale
    return _report("duhamel", res <= budget,
                   {"residual": res, "budget": budget, "data_scale": scale}, cfg)


def suite_potential() -> dict:
    """Potential solver: closed form, oracle agreement, spacing stability."""
    cfg = {"constant": {"lambda": 1.3, "tol": 1e-8},
           "variable_tol": 5e-3, "stability": 0.10, "dx": [0.125, 1.0 / 16.0]}
    grid = GridSpec(dx=1.0 / 16.0, dim=1, radius=64)
    lam = 1.3
    prob_const = CauchyProblem(Coefficients.constant(grid, 1.0), Field.constant(grid, 1.0),
                               potential=Field.constant(grid, lam), horizon=0.25)
    u_const = solve_with_potential(prob_const, 0.25, tol=1e-12)
    dev_const = float(np.abs(u_const.values - math.exp(-lam * 0.25)).max())

    stats = {}
    dev_var = 0.0
    for dx in cfg["dx"]:
        g = GridSpec(dx=dx, dim=1, radius=int(4 / dx))
        length = g.npts * dx
        cf = Coefficients.from_function(g, lambda x: 1.0 + 0.5 * np.sin(2.0 * np.pi * x))
        psi = Field.from_function(g, lambda x: 1.0 + 0.3 * np.cos(2 * np.pi * x / length))
        pot = Field.from_function(g, lambda x: 0.5 + 0.5 * np.sin(2 * np.pi * x / length) ** 2)
        fs = Field.from_function(g, lambda x: 0.2 + 0.1 * np.cos(2 * np.pi * x / length))
        prob = CauchyProblem(cf, psi, source=lambda s: fs, potential=pot, horizon=0.25)
        u = solve_with_potential(prob, 0.25,
                                 solver=ParametrixSolver(cf, TimeQuadrature(nodes=96), tol=1e-8))
        ref = oracle.evolve_with_potential(cf, pot.values, fs.values, 0.25, psi, tol=1e-12)
        dev_var = max(dev_var, float(np.abs(u.values - ref.values).max()))
        stats[dx] = {"sup": float(np.abs(u.values).max()), "grad": gradient_sup(u),
                     "min": float(u.values.min())}
    sups = [v["sup"] for v in stats.values()]
    grads = [v["grad"] for v in stats.values()]
    stable = (max(sups) - min(sups)) / max(sups) < 0.10 and \
        (max(grads) - min(grads)) / max(grads) < 0.10
    nonneg = all(v["min"] >= -1e-10 for v in stats.values())
    ok = dev_const <= 1e-8 and dev_var <= 5e-3 and stable and nonneg
    return _report("potential", ok,
                   {"constant_dev": dev_const, "variable_dev": dev_var,
                    "per_dx": {str(k): v for k, v in stats.items()}}, cfg)


def suite_pang(samples: int = 50) -> dict:
    """Two-regime bound comparison for the unit-grid kernel.

    Reports the empirically fitted constant (sup of kernel/bound), its
    sample-density stability, and verifies that the bound family has no
    member at the origin.  The fitted constant sits near (2 pi)^(-1/2),
    which Stirling shows is the exact small-time limit of the ratio.
    """
    cfg = {"orders": "1..64", "t": f"[1e-3, 100] log, {samples} then {2 * samples} points",
           "stability": 0.20}

    def fit(npts: int) -> tuple[float, dict]:
        ts = np.logspace(-3, 2, npts)
        best = 0.0
        arg = None
        for n in range(1, 65):
            for t in ts:
                ratio = bessel.iv_scaled(n, 2.0 * t) / bounds.pang_rhs(n, t)
                if ratio > best:
                    best, arg = ratio, {"n": n, "t": float(t)}
        return best, arg

    c1, arg1 = fit(samples)
    c2, _ = fit(2 * samples)
    drift = abs(c2 - c1) / max(c1, 1e-300)
    origin_excluded = False
    try:
        bounds.pang_rhs(0, 1.0)
    except ValueError:
        origin_excluded = True
    ok = np.isfinite(c1) and c1 > 0 and drift < 0.20 and origin_excluded
    return _report("pang", ok,
                   {"fitted_constant": c1, "argmax": arg1, "refit_constant": c2,
                    "density_drift": drift, "origin_excluded": origin_excluded,
                    "constant_at_least_one": bool(c1 >= 1.0)}, cfg)


_SUITE_FN: dict[str, Callable[..., dict]] = {
    "mass": suite_mass,
    "bessel-cross": suite_bessel_cross,
    "spectral-cross": suite_spectral_cross,
    "lorentz-kernel": suite_lorentz_kernel,
    "gaussian": suite_gaussian,
    "gamma-oracle": suite_gamma_oracle,
    "propagation": suite_propagation,
    "lorentz-conv": suite_lorentz_conv,
    "prop53": suite_prop53,
    "duhamel": suite_duhamel,
    "potential": suite_potential,
    "pang": suite_pang,
}


def run_suite(name: str) -> dict:
    """Run one named suite; raises KeyError for unknown names."""
    fn = _SUITE_FN[name]
    start = time.monotonic()
    rep = fn()
    rep["metrics"]["runtime_s"] = round(time.monotonic() - start, 3)
    return rep
