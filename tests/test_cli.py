import csv
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sdheat.cli import _write_json, main
from sdheat.lattice import Field, GridSpec
from sdheat.oracle import evolve_with_potential
from sdheat.parametrix import Coefficients

IV_0_1 = 0.46575960759364043


def run_cli(*argv):
    return main(list(argv))


def read_column(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return {int(r[0]): float(r[1]) for r in rows[1:]}


class TestRunConfig:
    def test_round_trip_bit_exact(self, tmp_path):
        # the writer behind the verify report's config_echo: key order
        # does not change the bytes, and floats come back bit-exact
        cfg = {"subcommand": "kernel", "options": {"dx": 0.1, "t": 1.0 / 3.0, "c": [1.0, 2.0]}}
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        _write_json(str(a), cfg)
        _write_json(str(b), {"options": {"c": [1.0, 2.0], "t": 1.0 / 3.0, "dx": 0.1},
                             "subcommand": "kernel"})
        assert a.read_bytes() == b.read_bytes()
        assert json.loads(a.read_text()) == cfg


class TestKernel:
    def test_reference_row(self, tmp_path):
        out = str(tmp_path / "k.csv")
        assert run_cli("kernel", "--dim", "1", "--dx", "1", "--c", "1",
                       "--t", "0.5", "--radius", "64", "--out", out) == 0
        col = read_column(out)
        assert col[0] == pytest.approx(IV_0_1, rel=1e-14)

    def test_determinism(self, tmp_path):
        a = str(tmp_path / "a.csv")
        b = str(tmp_path / "b.csv")
        for out in (a, b):
            run_cli("kernel", "--dim", "1", "--dx", "0.25", "--c", "1.5",
                    "--t", "0.3", "--radius", "48", "--out", out)
        assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_zero_time_does_not_warn(self, tmp_path, capsys):
        # the kernel at t = 0 is the Dirac, which no radius truncates
        assert run_cli("kernel", "--dim", "1", "--dx", "0.5", "--c", "1", "--t", "0",
                       "--radius", "2", "--out", str(tmp_path / "k.csv")) == 0
        assert capsys.readouterr().err == ""


class TestCompare:
    def test_identical_files_give_zero(self, tmp_path, capsys):
        out = str(tmp_path / "k.csv")
        run_cli("kernel", "--dim", "1", "--dx", "1", "--c", "1",
                "--t", "0.5", "--radius", "16", "--out", out)
        assert run_cli("compare", "--a", out, "--b", out, "--norm", "l1") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"l1": 0.0}


class TestGammaOracleCompare:
    def test_pipeline(self, tmp_path, capsys):
        common = ["--dim", "1", "--dx", "0.25", "--radius", "16",
                  "--coeff", "sine:1,0.3,0.2", "--time", "0.1"]
        g_out = str(tmp_path / "gamma.csv")
        o_out = str(tmp_path / "oracle.csv")
        assert run_cli("gamma", *common, "--quad-nodes", "32", "--out", g_out) == 0
        assert run_cli("oracle", *common, "--tol", "1e-10", "--out", o_out) == 0
        sidecar = json.loads(Path(g_out + ".json").read_text())
        assert set(sidecar) == {"m_max", "fitted_C3", "quad_nodes", "tail_estimate"}
        assert run_cli("compare", "--a", g_out, "--b", o_out, "--dx", "0.25") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["l1"] <= 1e-4
        assert payload["linf"] <= 1e-3

    def test_zero_extension_edge_column(self, tmp_path, capsys):
        # both routes are absorbing outside the box, so they agree on the
        # column at the edge too
        common = ["--dim", "1", "--dx", "0.25", "--radius", "16", "--boundary", "zero-extension",
                  "--coeff", "sine:1,0.3,0.2", "--time", "0.1", "--beta", "16"]
        g_out = str(tmp_path / "gamma.csv")
        o_out = str(tmp_path / "oracle.csv")
        assert run_cli("gamma", *common, "--quad-nodes", "32", "--out", g_out) == 0
        assert run_cli("oracle", *common, "--tol", "1e-12", "--out", o_out) == 0
        assert run_cli("compare", "--a", g_out, "--b", o_out, "--dx", "0.25") == 0
        assert json.loads(capsys.readouterr().out)["l1"] <= 1e-9

    def test_nan_tol_exit_2(self, tmp_path):
        out = str(tmp_path / "gamma.csv")
        assert run_cli("gamma", "--dim", "1", "--dx", "0.25", "--radius", "16",
                       "--coeff", "sine:1,0.3,0.2", "--time", "0.1", "--quad-nodes", "16",
                       "--tol", "nan", "--out", out) == 2
        assert not Path(out).exists()

    def test_zero_time_exit_2_leaves_nothing(self, tmp_path):
        # Gamma(0) is the Dirac, but the sidecar's ladder needs a positive
        # horizon: the run fails before it writes the column or the sidecar
        out = str(tmp_path / "g.csv")
        assert run_cli("gamma", "--dim", "1", "--dx", "0.5", "--radius", "2",
                       "--coeff", "const:1", "--time", "0", "--quad-nodes", "16",
                       "--out", out) == 2
        assert not Path(out).exists() and not Path(out + ".json").exists()


class TestSolve:
    def test_smoke_with_potential(self, tmp_path):
        out = str(tmp_path / "run")
        code = run_cli("solve", "--dim", "1", "--dx", "0.25", "--radius", "16",
                       "--coeff", "const:1", "--psi", "const:1",
                       "--potential", "const:0.5", "--time", "0.1",
                       "--quad-nodes", "16", "--out", out)
        assert code == 0
        report = json.loads(Path(out + ".json").read_text())
        assert report["panels"] >= 1
        col = read_column(out + ".t1.csv")
        # crude sanity: damping acts (exact comparison is in the solver tests)
        assert 0.9 < col[0] < 1.0

    @pytest.mark.parametrize("time", ["nan", "inf", "-0.1"])
    def test_bad_time_exit_2(self, tmp_path, time):
        # a non-finite or negative time is an argument error for every
        # subcommand that takes one, and nothing is written
        grid = ["--dx", "0.5", "--radius", "2"]
        common = grid + ["--coeff", "const:1", "--time", time]
        for name, args in (("solve", common + ["--psi", "const:1", "--quad-nodes", "16"]),
                           ("gamma", common + ["--quad-nodes", "16"]), ("oracle", common),
                           ("kernel", grid + ["--t", time])):
            assert run_cli(name, *args, "--out", str(tmp_path / name)) == 2
        assert list(tmp_path.iterdir()) == []

    def test_zero_time_report_is_strict_json(self, tmp_path):
        # at --time 0 no panel solve runs: the slices are the initial data
        # and the report's residual is null, which a parser that rejects
        # NaN accepts
        out = str(tmp_path / "run")
        assert run_cli("solve", "--dx", "0.5", "--radius", "2", "--coeff", "const:1",
                       "--psi", "const:2", "--time", "0", "--slices", "2", "--quad-nodes", "16",
                       "--out", out) == 0

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        report = json.loads(Path(out + ".json").read_text(), parse_constant=reject)
        assert report == {"panels": 0, "residual": None, "times": [0.0, 0.0]}
        assert all(set(read_column(f"{out}.t{i}.csv").values()) == {2.0} for i in (1, 2))

    @pytest.mark.parametrize("slices", ["0", "-2"])
    def test_bad_slices_exit_2(self, tmp_path, slices):
        # a solve needs at least one slice; nothing is written otherwise
        assert run_cli("solve", "--dx", "0.5", "--radius", "2", "--coeff", "const:1",
                       "--psi", "const:1", "--time", "0.1", "--slices", slices,
                       "--quad-nodes", "16", "--out", str(tmp_path / "run")) == 2
        assert list(tmp_path.iterdir()) == []

    def test_slices_match_oracle(self, tmp_path):
        # each slice is marched from the one before, with and without a
        # potential; every slice is checked, not only the last
        grid = GridSpec(dx=0.25, dim=1, radius=16)
        x = grid.axis_coordinates()
        coeffs = Coefficients.from_field(grid, 1.0 + 0.3 * np.sin(2.0 * np.pi * 0.2 * x))
        psi = Field(grid, 1.0 + 0.3 * np.sin(2.0 * np.pi * 0.5 * x))
        src = np.full(grid.shape, 0.2)
        for potential, y in (("zero", None), ("const:0.5", np.full(grid.shape, 0.5))):
            out = str(tmp_path / potential.replace(":", "_"))
            assert run_cli("solve", "--dx", "0.25", "--radius", "16",
                           "--coeff", "sine:1,0.3,0.2", "--psi", "sine:1,0.3,0.5",
                           "--source", "const:0.2", "--potential", potential, "--time", "0.2",
                           "--slices", "4", "--quad-nodes", "16", "--out", out) == 0
            times = json.loads(Path(out + ".json").read_text())["times"]
            assert len(times) == 4
            for i, t in enumerate(times):
                got = read_column(f"{out}.t{i + 1}.csv")
                ref = evolve_with_potential(coeffs, y, src, t, psi, tol=1e-13)
                dev = max(abs(got[a] - ref.value((a,))) for a in got)
                assert dev <= 1e-12, (potential, t, dev)


class TestVerifySubcommand:
    def test_mass_suite_passes(self, tmp_path):
        out = str(tmp_path / "rep.json")
        assert run_cli("verify", "--suite", "mass", "--out", out) == 0
        rep = json.loads(Path(out).read_text())
        assert rep["pass"] is True
        assert rep["suite"] == "mass"
        assert "config_echo" in rep

    def test_unknown_suite_exit_2(self):
        assert run_cli("verify", "--suite", "bogus") == 2

    def test_unknown_flag_exit_2(self):
        assert run_cli("kernel", "--nonsense") == 2

    def test_unread_options_are_gone(self, tmp_path):
        out = str(tmp_path / "o.csv")
        assert run_cli("verify", "--suite", "mass", "--seed", "7", "--out", out) == 2
        assert run_cli("oracle", "--dx", "0.25", "--radius", "4", "--coeff", "const:1",
                       "--time", "0.1", "--quad-nodes", "16", "--out", out) == 2
        assert not (tmp_path / "o.csv").exists()

    def test_report_determinism(self, tmp_path):
        out = str(tmp_path / "rep.json")
        run_cli("verify", "--suite", "mass", "--out", out)
        first = Path(out).read_bytes()
        run_cli("verify", "--suite", "mass", "--out", out)
        assert Path(out).read_bytes() == first


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        out = str(tmp_path / "k.csv")
        proc = subprocess.run(
            [sys.executable, "-m", "sdheat.cli", "kernel", "--dim", "1", "--dx", "1",
             "--c", "1", "--t", "0.1", "--radius", "8", "--out", out],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert read_column(out)[0] > 0.0
