import json
import subprocess
import sys

import numpy as np
import pytest

from strmv.bench import strip_timings
from strmv.cli import main
from strmv.panel import SyntheticSpec, generate_synthetic, save_panel


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "strmv.cli", *args], capture_output=True, text=True
    )
    return proc


@pytest.fixture
def panel_csv(tmp_path):
    panel = generate_synthetic(
        SyntheticSpec(n=8, T=48, singular_decay=0.7, noise_floor=0.02, seed=3)
    )
    path = tmp_path / "panel.csv"
    save_panel(panel, path)
    return path


class TestSubcommands:
    def test_synth_then_spectrum(self, tmp_path):
        out = tmp_path / "p.csv"
        assert main(["synth", "--n", "6", "--T", "12", "--seed", "4", "--out", str(out)]) == 0
        proc = run_cli("spectrum", "--panel", str(out))
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["numerical_rank"] <= min(6, 12 - 1)
        assert payload["energy"][-1] == pytest.approx(1.0)

    def test_project_flags(self):
        proc = run_cli("project", "--v", "0.5,0.5", "--mu", "1,0", "--r-target", "0.9")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        np.testing.assert_allclose(payload["x"], [0.9, 0.1], atol=1e-8)
        assert payload["diagnostics"]["constraint_active"]

    def test_project_huge_entry(self):
        proc = run_cli("project", "--v", "1e17,0", "--mu", "1,0", "--r-target", "0.5")
        assert proc.returncode == 0, proc.stderr
        np.testing.assert_array_equal(json.loads(proc.stdout)["x"], [1.0, 0.0])

    def test_project_from_csv(self, tmp_path):
        path = tmp_path / "vm.csv"
        path.write_text("v,mu\n0.5,1.0\n0.5,0.0\n")
        proc = run_cli("project", "--from-csv", str(path), "--r-target", "0.9")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        np.testing.assert_allclose(payload["x"], [0.9, 0.1], atol=1e-8)

    def test_solve_writes_result(self, panel_csv, tmp_path):
        out = tmp_path / "result.json"
        proc = run_cli(
            "solve", "--panel", str(panel_csv), "--model", "str", "--s", "24",
            "--tol", "1e-8", "--out", str(out),
        )
        assert proc.returncode == 0
        payload = json.loads(out.read_text())
        x = np.array(payload["x"])
        assert abs(x.sum() - 1.0) <= 1e-9 and x.min() >= -1e-10
        assert payload["termination"] in ("tolerance", "max_iters")
        assert payload["provenance"]["ell"] >= 1

    def test_solve_max_iters_warns(self, panel_csv, tmp_path):
        out = tmp_path / "result.json"
        proc = run_cli("solve", "--panel", str(panel_csv), "--model", "baseline",
                       "--max-iters", "2", "--out", str(out))
        assert proc.returncode == 0
        assert json.loads(out.read_text())["termination"] == "max_iters"
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("strmv: warning: stopped at max_iters=2 with residual ")
        assert lines[0].endswith(" > 1e-08")

    def test_solve_rule_sized_sketch_and_residual_csv(self, panel_csv, tmp_path):
        out = tmp_path / "result.json"
        res_csv = tmp_path / "res.csv"
        proc = run_cli(
            "solve", "--panel", str(panel_csv), "--model", "sketch",
            "--sketch", "countsketch", "--out", str(out),
            "--residual-csv", str(res_csv),
        )
        assert proc.returncode == 0
        payload = json.loads(out.read_text())
        assert payload["model"] == "sketch"
        lines = res_csv.read_text().strip().splitlines()
        assert lines[0] == "check,residual"
        assert len(lines) >= 2

    def test_bench_approx_runs(self, tmp_path):
        cfg = {
            "synthetic": {"n": 8, "T": 48, "singular_decay": 0.7,
                          "noise_floor": 0.02, "seed": 0},
            "models": [{"kind": "str", "sketch_kind": "gaussian_jl"}],
            "eta_grid": [0.9],
            "s_over_ell_grid": [2.0],
            "solver": {"tol": 1e-7, "max_iters": 2000, "residual_check_stride": 5},
            "repetitions": 2,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "report.json"
        proc = run_cli("bench", "approx", "--config", str(cfg_path),
                       "--seed", "5", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        report = json.loads(out.read_text())
        assert report["kind"] == "approx" and len(report["rows"]) == 2

    def test_bench_rate_trace_out(self, tmp_path):
        out, trace = tmp_path / "report.json", tmp_path / "traces.csv"
        proc = run_cli("bench", "rate", "--seed", "2", "--trace-out", str(trace),
                       "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(out.read_text())["kind"] == "rate"
        assert trace.read_text().splitlines()[0] == "case,k,gap"

    def test_bench_solver_csv_out(self, tmp_path):
        cfg = {
            "models": [{"kind": "baseline"}, {"kind": "str", "s": 16}],
            "sizes": [6],
            "solver": {"tol": 1e-7, "max_iters": 2000},
            "repetitions": 1,
            "warmup": 0,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out, rows = tmp_path / "report.json", tmp_path / "rows.csv"
        proc = run_cli("bench", "solver", "--config", str(cfg_path),
                       "--out", str(out), "--csv-out", str(rows))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(out.read_text())["kind"] == "solver"
        header = rows.read_text().splitlines()[0].split(",")
        assert header[:3] == ["model", "n", "T"] and "grad_us_per_iter" in header

    def test_bench_real_csv_out(self, tmp_path):
        panel = tmp_path / "panel.csv"
        assert main(["synth", "--n", "6", "--T", "30", "--decay", "0.7",
                     "--seed", "1", "--out", str(panel)]) == 0
        cfg = {
            "panel_path": str(panel),
            "models": [{"kind": "baseline"}, {"kind": "str", "s": 12}],
            "solver": {"tol": 1e-7, "max_iters": 2000},
            "repetitions": 1,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out, rows = tmp_path / "report.json", tmp_path / "rows.csv"
        proc = run_cli("bench", "real", "--config", str(cfg_path),
                       "--out", str(out), "--csv-out", str(rows))
        assert proc.returncode == 0, proc.stderr
        report = json.loads(out.read_text())
        assert report["kind"] == "real" and len(report["rows"]) == 2
        header = rows.read_text().splitlines()[0].split(",")
        assert header[0] == "model" and "portfolio.annualized_vol_pct" in header


class TestExitCodes:
    def test_usage_error_is_1(self):
        assert run_cli("bogus-subcommand").returncode == 1
        assert run_cli("synth", "--n", "4").returncode == 1  # missing required

    def test_bad_generator_parameter_is_2(self, tmp_path):
        out = tmp_path / "p.csv"
        proc = run_cli("synth", "--n", "4", "--T", "8", "--decay", "1.5",
                       "--out", str(out))
        assert proc.returncode == 2

    def test_data_error_is_2(self, tmp_path):
        missing = tmp_path / "nope.csv"
        assert run_cli("spectrum", "--panel", str(missing)).returncode == 2
        bad = tmp_path / "bad.csv"
        bad.write_text("asset,p1,p2\nA,1,2\nB,1\n")
        assert run_cli("spectrum", "--panel", str(bad)).returncode == 2

    def test_numeric_error_is_3(self):
        # projecting a non-finite point is a numeric failure
        proc = run_cli("project", "--v", "nan,0", "--mu", "1,0", "--r-target", "0.1")
        assert proc.returncode == 3

    def test_projection_missing_target_is_3(self):
        proc = run_cli("project", "--v=-6.23e16,4.13e15,-2.33e17,-2.19e16,-1.25e17",
                       "--mu=-0.73,-0.54,-0.32,0.41,1.04", "--r-target", "0.16")
        assert proc.returncode == 3
        assert "misses R_target" in proc.stderr

    def test_infeasible_target_is_2(self, panel_csv):
        proc = run_cli("solve", "--panel", str(panel_csv), "--model", "baseline",
                       "--r-target", "999.0")
        assert proc.returncode == 2


class TestDeterminism:
    def test_identical_reports_across_runs(self, tmp_path):
        cfg = {
            "synthetic": {"n": 8, "T": 48, "singular_decay": 0.7,
                          "noise_floor": 0.02, "seed": 0},
            "models": [
                {"kind": "str", "sketch_kind": "gaussian_jl"},
                {"kind": "str", "sketch_kind": "countsketch"},
            ],
            "eta_grid": [0.9],
            "s_over_ell_grid": [2.0],
            "solver": {"tol": 1e-7, "max_iters": 2000, "residual_check_stride": 5},
            "repetitions": 2,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        payloads = []
        for run in range(2):
            out = tmp_path / f"report{run}.json"
            proc = run_cli("bench", "approx", "--config", str(cfg_path),
                           "--seed", "9", "--threads", "2", "--out", str(out))
            assert proc.returncode == 0, proc.stderr
            payloads.append(strip_timings(json.loads(out.read_text())))
        assert payloads[0] == payloads[1]
