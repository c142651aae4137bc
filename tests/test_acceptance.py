"""Acceptance suite: every criterion at its stated tolerance.

Each test drives a suite from sdheat.verify (the same code behind
``sdheat verify``), prints one line with the measured numbers, and
asserts the criterion.  The heavy oracle-equivalence checks share one
session-scoped 96-node solver.
"""

import pytest

from sdheat import verify


def _announce(tag: str, rep: dict, detail: str) -> None:
    status = "PASS" if rep["pass"] else "FAIL"
    print(f"\n[{tag}] {status} ({rep['metrics']['runtime_s']}s) {detail}")


def test_ac01_mass_conservation():
    rep = verify.run_suite("mass")
    _announce("AC-1 mass conservation", rep,
              f"max deviation {rep['metrics']['max_deviation']:.2e} <= 1e-12")
    assert rep["pass"], rep["metrics"]


def test_ac02_bessel_cross_check():
    rep = verify.run_suite("bessel-cross")
    _announce("AC-2 Bessel cross-check", rep,
              f"max rel deviation {rep['metrics']['max_rel_deviation']:.2e} <= 1e-10")
    assert rep["pass"], rep["metrics"]


def test_ac03_representation_agreement():
    rep = verify.run_suite("spectral-cross")
    m = rep["metrics"]
    _announce("AC-3 representation agreement", rep,
              f"spectral {m['spectral_dev_scaled']:.2e} <= 1e-9, "
              f"series {m['series_dev_scaled']:.2e} <= 1e-10")
    assert rep["pass"], m


def test_ac04_lorentz_bound_dx_independence():
    rep = verify.run_suite("lorentz-kernel")
    spreads = {m: v["spread"] for m, v in rep["metrics"]["per_order"].items()}
    _announce("AC-4 Lorentzian bound", rep, f"per-order dx spreads {spreads} < 10%")
    assert rep["pass"], rep["metrics"]


def test_ac05_gaussian_explicit_constants():
    rep = verify.run_suite("gaussian")
    _announce("AC-5 Gaussian bound", rep,
              f"max ratio-1 = {rep['metrics']['max_ratio_minus_1']:.3e} <= 1e-12")
    assert rep["pass"], rep["metrics"]


def test_ac06_parametrix_vs_oracle(ac6_solver):
    rep = verify.suite_gamma_oracle(solver96=ac6_solver)
    rep["metrics"]["runtime_s"] = "-"
    dists = rep["metrics"]["l1_distances"]
    nodes = rep["config_echo"]["nodes"]
    _announce("AC-6 parametrix vs oracle", rep,
              f"l1 at {'/'.join(map(str, nodes))} nodes = {[f'{d:.2e}' for d in dists]}, "
              f"monotone={rep['metrics']['monotone']}, final <= 1e-2")
    assert nodes == [16, 48, 96]  # each level runs its whole budget
    assert rep["pass"], rep["metrics"]


def test_ac06_truncation_order_regression(ac6_solver):
    # pinned outcome of the tail estimator on the reference configuration
    series = ac6_solver.phi_series(0.25)
    print(f"\n[AC-6 regression] m_max={series.m_max}, fitted C3={series.fitted_c3:.3f}, "
          f"tail={series.tail_estimate:.2e}")
    assert series.m_max == 19
    assert series.tail_estimate <= series.tol
    assert 1.0 < series.fitted_c3 < 1.6


def test_ac07_propagation_relation(ac6_solver):
    rep = verify.suite_propagation(solver96=ac6_solver)
    rep["metrics"]["runtime_s"] = "-"
    m = rep["metrics"]
    _announce("AC-7 propagation relation", rep,
              f"variable {m['defect_variable']:.2e} <= 1e-2, "
              f"constant {m['defect_constant']:.2e} <= 1e-11")
    assert rep["pass"], m


def test_ac08_lorentz_convolution():
    rep = verify.run_suite("lorentz-conv")
    m = rep["metrics"]
    _announce("AC-8 Lorentz convolution", rep,
              f"closed form vs quadrature {m['max_rel_error']:.2e} <= 1e-8, "
              f"sqrt2-pi bound ratio {m['max_bound_ratio']:.4f} <= 1")
    assert rep["pass"], m


def test_ac09_convolution_estimate():
    rep = verify.run_suite("prop53")
    m = rep["metrics"]
    _announce("AC-9 convolution estimate", rep,
              f"fitted C per dx {m['per_dx']}, spread {m['spread']:.3f} < 0.15")
    assert rep["pass"], m


def test_ac10_duhamel_residual(ac6_solver):
    rep = verify.suite_duhamel(solver_duhamel=ac6_solver)
    rep["metrics"]["runtime_s"] = "-"
    m = rep["metrics"]
    _announce("AC-10 Duhamel residual", rep,
              f"residual {m['residual']:.2e} <= {m['budget']:.2e}")
    assert rep["pass"], m


def test_ac11_potential_solver():
    rep = verify.run_suite("potential")
    m = rep["metrics"]
    _announce("AC-11 potential solver", rep,
              f"exp-decay dev {m['constant_dev']:.2e} <= 1e-8, "
              f"oracle dev {m['variable_dev']:.2e} <= 5e-3, dx-stable")
    assert rep["pass"], m


def test_ac12_two_regime_bound_fit():
    rep = verify.run_suite("pang")
    m = rep["metrics"]
    _announce("AC-12 two-regime bound", rep,
              f"fitted C {m['fitted_constant']:.4f} at {m['argmax']}, "
              f"density drift {m['density_drift']:.2e} < 0.2, origin excluded")
    assert rep["pass"], m


@pytest.mark.xfail(strict=True, reason=(
    "the fitted constant cannot reach 1: in the small-time regime the "
    "kernel/bound ratio tends to n^(n+1/2)/(n! e^n) < (2 pi)^(-1/2) by "
    "Stirling, and the measured supremum is ~0.398 at (n=64, t=1e-3)"))
def test_ac12_fitted_constant_at_least_one():
    rep = verify.run_suite("pang")
    assert rep["metrics"]["fitted_constant"] >= 1.0
