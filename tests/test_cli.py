import csv
import json
import subprocess
import sys
from pathlib import Path

import pytest

from sdheat.cli import RunConfig, main

IV_0_1 = 0.46575960759364043


def run_cli(*argv):
    return main(list(argv))


def read_column(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return {int(r[0]): float(r[1]) for r in rows[1:]}


class TestRunConfig:
    def test_round_trip_bit_exact(self):
        cfg = RunConfig("kernel", {"dx": 0.1, "t": 1.0 / 3.0, "c": [1.0, 2.0]})
        text = cfg.to_json()
        back = RunConfig.from_json(text)
        assert back == cfg
        assert back.to_json() == text


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

    def test_thread_cap_flag(self, tmp_path):
        out = str(tmp_path / "rep.json")
        assert run_cli("--threads", "2", "verify", "--suite", "mass", "--out", out) == 0
        assert json.loads(Path(out).read_text())["pass"] is True

    def test_thread_cap_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SDHEAT_THREADS", "2")
        out = str(tmp_path / "rep.json")
        assert run_cli("verify", "--suite", "mass", "--out", out) == 0

    def test_report_determinism(self, tmp_path):
        out = str(tmp_path / "rep.json")
        run_cli("verify", "--suite", "mass", "--seed", "7", "--out", out)
        first = Path(out).read_bytes()
        run_cli("verify", "--suite", "mass", "--seed", "7", "--out", out)
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
