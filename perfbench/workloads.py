"""The benchmark workloads: inputs from a seed, the solves, and their checks.

A workload is a list of solves that one pass runs in order.  A solve
calls the public sdheat API and returns the program's output together
with facts about how it was reached (truncation order, Picard sweeps);
its check compares that output with an independent reference: the
certified ODE oracle, or a verify suite's own acceptance test.

The seed translates the whole problem, coefficient and data fields and
the source site beta, cyclically by whole lattice sites.  On the
periodic box a whole-site translation permutes the sites, so every
ladder is the same matrix up to a permutation and every output is the
translate of the seed-0 output: cost, truncation orders, errors and the
known failures are the same for every seed, while the inputs and
outputs differ.  Seed 0 is beta = 0 with no translation, which is the
ROADMAP configuration.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

#: Horizons of the ROADMAP horizon probe, one fresh solver each.
HORIZONS = (0.125, 0.25, 0.5, 1.0)

#: Verify suites of the bound fits: the scalar-Bessel and bound-evaluator
#: paths, with no parametrix.
BOUND_SUITES = ("lorentz-kernel", "prop53", "gaussian", "pang")

#: ROADMAP horizon probe at seed 0: T -> (m_max, l1 to the oracle), None
#: where the solve raises the ``_M_CAP`` RuntimeError.
ROADMAP_PROBE = {0.125: (16, 2.5e-11), 0.25: (18, 5.6e-9), 0.5: None, 1.0: (19, 3.3e-6)}

#: Acceptance gates already used by the tests: AC-6 for columns, AC-11
#: for the potential solve.
COLUMN_GATE_L1 = 1e-2
POTENTIAL_GATE_SUP = 5e-3

#: Oracle tolerance for the references: its certified bound, summed over
#: the box, stays far below the solver tolerances compared against.
ORACLE_TOL = 1e-12


@dataclass
class Check:
    """Outcome of comparing one output with its reference."""

    distance: float  # to the reference in the workload's norm; nan for suites
    gate_ok: bool    # within the acceptance gate of the tests
    tol_ok: bool     # within the tolerance the solve was asked for


@dataclass
class Solve:
    label: str
    run: Callable[[], tuple[Any, dict]]  # -> (output, facts)
    check: Callable[[Any], Check]


@dataclass
class Workload:
    params: dict
    #: builds fresh solvers and returns the solves of one pass
    prepare: Callable[[], list[Solve]]


def translation(seed: int, radius: int, dim: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Whole-site field shift and source site beta for a seed; zero for seed 0.

    beta is the site the shift carries the origin to, so the column's
    position relative to the coefficient field is the same for every
    seed.  With beta free, the l1 error of the T = 0.25 column crosses
    tol = 1e-8 at some sites and not at others, and ``tol_miss_frac``
    would change from seed to seed.  The multipliers are coprime to the
    box widths used here (65 and 13 sites), so consecutive seeds give
    distinct shifts.
    """
    npts = 2 * radius + 1
    shift = tuple((seed * (7 + 4 * j)) % npts for j in range(dim))
    beta = tuple((k + radius) % npts - radius for k in shift)
    return shift, beta


def _rolled(values: np.ndarray, shift: tuple[int, ...]) -> np.ndarray:
    """Translate the trailing len(shift) axes cyclically."""
    axes = tuple(range(values.ndim - len(shift), values.ndim))
    return np.roll(values, shift, axis=axes)


def _columns(grid, coeff_values: np.ndarray, beta: tuple[int, ...],
             params: dict) -> Callable[[], list[Solve]]:
    """Gamma columns a -> Gamma_{a,beta}(T) for each T in ``params["horizons"]``,
    one fresh solver per T; returns the ``prepare`` of a workload."""
    from sdheat import oracle
    from sdheat.parametrix import Coefficients, ParametrixSolver
    from sdheat.quadrature import TimeQuadrature

    coeffs = Coefficients(grid, coeff_values)
    tol = params["tol"]

    def check(t: float):
        def compare(col: np.ndarray) -> Check:
            ref = oracle.gamma_oracle(coeffs, beta, t, tol=ORACLE_TOL)
            l1 = float(np.abs(col - ref.flat()).sum() * grid.cell_volume)
            return Check(l1, l1 <= COLUMN_GATE_L1, l1 <= tol)
        return compare

    def prepare() -> list[Solve]:
        solves = []
        for t in params["horizons"]:
            solver = ParametrixSolver(coeffs, TimeQuadrature(nodes=params["nodes"]), tol=tol)

            def run(solver=solver, t=t):
                col = solver.gamma_column(beta, t)
                series = solver.phi_series(t)
                return col.flat(), {"m_max": series.m_max, "tail": series.tail_estimate}

            solves.append(Solve(f"T={t:g}", run, check(t)))
        return solves

    return prepare


def horizon_1d(seed: int) -> Workload:
    """The ROADMAP horizon probe, then the bound fits.

    The Gamma columns are dominated by Bessel batches and carry the known
    T=0.5 RuntimeError and T=1.0 tolerance miss.  The bound fits are the
    only use of the bound evaluators and the scalar Bessel path; they
    ride here because alone their time spreads beyond any allowed bound.
    """
    from sdheat.lattice import GridSpec
    from sdheat.parametrix import Coefficients

    grid = GridSpec(dx=1.0 / 8.0, dim=1, radius=32)
    shift, beta = translation(seed, grid.radius, grid.dim)
    base = Coefficients.from_function(grid, lambda x: 1.0 + 0.5 * np.sin(2.0 * np.pi * x))
    fits, order = _bound_fits(seed)
    params = {"dx": grid.dx, "radius": grid.radius, "c": "1 + 0.5 sin(2 pi x)",
              "horizons": list(HORIZONS), "nodes": 48, "tol": 1e-8,
              "shift": list(shift), "beta": list(beta), "suites": order}
    columns = _columns(grid, _rolled(base.values, shift), beta, params)
    return Workload(params, lambda: columns() + [fits])


def column_2d(seed: int) -> Workload:
    """An anisotropic 2-D column on 169 sites: the ladder matmuls dominate
    and Bessel batches are a small share."""
    from sdheat.lattice import GridSpec

    grid = GridSpec(dx=0.25, dim=2, radius=6)
    shift, beta = translation(seed, grid.radius, grid.dim)
    x = grid.axis_coordinates()
    xx, yy = np.meshgrid(x, x, indexing="ij")
    values = np.stack([1.0 + 0.5 * np.sin(2.0 * np.pi * xx), 1.2 + 0.3 * np.cos(2.0 * np.pi * yy)])
    params = {"dx": grid.dx, "radius": grid.radius,
              "c": ["1 + 0.5 sin(2 pi x)", "1.2 + 0.3 cos(2 pi y)"],
              "horizons": [1.0 / 16.0], "nodes": 48, "tol": 1e-8,
              "shift": list(shift), "beta": list(beta)}
    return Workload(params, _columns(grid, _rolled(values, shift), beta, params))


def potential_1d(seed: int) -> Workload:
    """The AC-11 potential problem at dx = 1/8: many cached dense Gamma
    operators reused across Picard sweeps instead of one column."""
    from sdheat import oracle, solver
    from sdheat.lattice import Field, GridSpec
    from sdheat.parametrix import Coefficients, ParametrixSolver
    from sdheat.quadrature import TimeQuadrature

    grid = GridSpec(dx=1.0 / 8.0, dim=1, radius=32)
    shift, _ = translation(seed, grid.radius, grid.dim)
    length = grid.npts * grid.dx

    def field(fn) -> Field:
        return Field(grid, _rolled(Field.from_function(grid, fn).values, shift))

    base = Coefficients.from_function(grid, lambda x: 1.0 + 0.5 * np.sin(2.0 * np.pi * x))
    coeffs = Coefficients(grid, _rolled(base.values, shift))
    psi = field(lambda x: 1.0 + 0.3 * np.cos(2 * np.pi * x / length))
    pot = field(lambda x: 0.5 + 0.5 * np.sin(2 * np.pi * x / length) ** 2)
    src = field(lambda x: 0.2 + 0.1 * np.cos(2 * np.pi * x / length))
    prob = solver.CauchyProblem(coeffs, psi, source=lambda s: src, potential=pot, horizon=0.25)
    t_end, tol = 0.25, 1e-10
    params = {"dx": grid.dx, "radius": grid.radius, "T": t_end, "nodes": 48, "tol": tol,
              "fields": "AC-11", "shift": list(shift)}

    def compare(u: np.ndarray) -> Check:
        ref = oracle.evolve_with_potential(coeffs, pot.values, src.values, t_end, psi,
                                           tol=ORACLE_TOL)
        sup = float(np.abs(u - ref.values).max())
        return Check(sup, sup <= POTENTIAL_GATE_SUP, sup <= tol)

    def prepare() -> list[Solve]:
        gamma_solver = ParametrixSolver(coeffs, TimeQuadrature(nodes=48), tol=1e-8)

        def run():
            report = solver.SolveReport()
            u = solver.solve_with_potential(prob, t_end, tol=tol, report=report,
                                            solver=gamma_solver)
            return u.values, {"picard_iters": report.picard_iters, "panels": report.panels}

        return [Solve(f"T={t_end:g}", run, compare)]

    return Workload(params, prepare)


def _bound_fits(seed: int) -> tuple[Solve, list[str]]:
    """Four verify suites as one solve: fitting every bound family.

    The suites differ fiftyfold in cost, so a median over them as
    separate solves would be the time of whichever suite lands in the
    middle.  Their configurations are fixed; the seed only permutes the
    order in which they run.
    """
    from sdheat import verify

    order = list(BOUND_SUITES)
    random.Random(seed).shuffle(order)

    def run():
        reports = [verify.run_suite(name) for name in order]
        return reports, {rep["suite"]: rep["metrics"]["runtime_s"] for rep in reports}

    def compare(reports: list[dict]) -> Check:
        ok = all(rep["pass"] for rep in reports)
        return Check(math.nan, ok, ok)

    return Solve("bound-fits", run, compare), order


def bounds_fit(seed: int) -> Workload:
    """The bound fits alone: no parametrix."""
    fits, order = _bound_fits(seed)
    return Workload({"suites": order}, lambda: [fits])


WORKLOADS: dict[str, Callable[[int], Workload]] = {
    "horizon-1d": horizon_1d,
    "column-2d": column_2d,
    "potential-1d": potential_1d,
    "bounds-fit": bounds_fit,
}


def repro_check(solves: list[tuple[str, dict | None, Check | None]]) -> list[dict]:
    """Compare a seed-0 ``horizon-1d`` pass with the ROADMAP probe.

    ``solves`` holds (label, facts or None if the solve raised, check or
    None).  The orders must match exactly and each l1 must round to the
    two significant digits the ROADMAP quotes.
    """
    rows = []
    for t, (label, facts, chk) in zip(HORIZONS, solves):
        want = ROADMAP_PROBE[t]
        got = None if facts is None else (facts["m_max"], chk.distance)
        if want is None or got is None:
            ok = want is None and got is None
        else:
            ok = got[0] == want[0] and float(f"{got[1]:.1e}") == want[1]
        rows.append({"T": t, "label": label, "expected": want, "got": got, "match": ok})
    return rows
