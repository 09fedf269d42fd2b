import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from strmv.bench import strip_timings
from strmv.cli import _THREAD_VARS, main
from strmv.panel import (
    SyntheticSpec,
    center_and_factor,
    generate_synthetic,
    load_panel,
    save_panel,
)
from strmv.spectrum import RANK_TOL, report_from_singular_values


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
    @pytest.mark.parametrize("T", [12, 6, 4], ids=["T_gt_n", "T_eq_n", "T_lt_n"])
    def test_synth_then_spectrum(self, tmp_path, capsys, T):
        # Centering drops the rank to min(n, T - 1), so for T <= n the Gram
        # matrix has an exact zero eigenvalue that roundoff can make negative.
        out = tmp_path / "p.csv"
        assert main(["synth", "--n", "6", "--T", str(T), "--seed", "4", "--out", str(out)]) == 0
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["spectrum", "--panel", str(out)]) == 0
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        payload = json.loads(capsys.readouterr().out)
        sv = np.array(payload["singular_values"])
        assert np.all(np.isfinite(sv)) and np.all(sv >= 0.0)
        ref = report_from_singular_values(
            np.linalg.svd(center_and_factor(load_panel(out)).L, compute_uv=False)
        )
        assert sv.shape == ref.singular_values.shape
        resolved = ref.eigenvalues >= RANK_TOL * ref.eigenvalues[0]
        np.testing.assert_allclose(sv[resolved], ref.singular_values[resolved], rtol=1e-10)
        assert payload["numerical_rank"] == ref.numerical_rank
        assert payload["numerical_rank"] <= min(6, T - 1)
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

    @pytest.mark.parametrize("model", ["str", "baseline", "sketch"])
    def test_solve_reports_typed_spectrum(self, panel_csv, tmp_path, model):
        out = tmp_path / "result.json"
        proc = run_cli("solve", "--panel", str(panel_csv), "--model", model,
                       "--s", "24", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(out.read_text())
        assert "sigma1" not in payload["provenance"]
        assert "singular_values" not in payload["provenance"]
        sv = payload["singular_values"]
        assert payload["momentum"] == ("strongly_convex" if model == "str"
                                       else "fista_restart")
        assert payload["restarts"] >= 0
        if model == "str":
            assert len(sv) == payload["provenance"]["ell"]
            assert sv == sorted(sv, reverse=True) and sv[-1] > 0
        else:
            assert sv is None

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
        with open(res_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["check", "residual"]
        trace = payload["residual_trace"]
        assert len(trace) >= 1
        assert [int(check) for check, _ in rows[1:]] == list(range(len(trace)))
        assert [float(r) for _, r in rows[1:]] == trace

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

    def test_bench_solver_default_config_runs(self, tmp_path):
        # With no --config the one model is {"kind": "str"}: no s, no
        # s_over_ell, so the strmv solve rule sizes it.
        out = tmp_path / "report.json"
        assert main(["bench", "solver", "--out", str(out)]) == 0
        rows = json.loads(out.read_text())["rows"]
        assert [(r["model"], r["n"]) for r in rows] == [
            ("str-gaussian_jl", 8), ("str-gaussian_jl", 10), ("str-gaussian_jl", 12)
        ]

    def test_bench_real_default_width_is_the_solve_rule(self, tmp_path):
        # n = 6 puts the rule at 16 * 6 + 48 = 144 columns, below both the
        # panel's T = 240 and the 160 training columns, so neither clips it.
        panel = tmp_path / "panel.csv"
        assert main(["synth", "--n", "6", "--T", "240", "--decay", "0.7",
                     "--seed", "1", "--out", str(panel)]) == 0
        solved = tmp_path / "solve.json"
        assert main(["solve", "--panel", str(panel), "--out", str(solved)]) == 0
        s = json.loads(solved.read_text())["provenance"]["sketch"]["s"]
        assert s == 144
        rows = []
        for model in ({"kind": "str"}, {"kind": "str", "s": s}):
            cfg_path, out = tmp_path / "cfg.json", tmp_path / "report.json"
            cfg_path.write_text(json.dumps({"panel_path": str(panel), "models": [model],
                                            "repetitions": 1}))
            assert main(["bench", "real", "--config", str(cfg_path), "--out", str(out)]) == 0
            rows.append(strip_timings(json.loads(out.read_text())["rows"]))
        assert rows[0] == rows[1]


class TestExitCodes:
    def test_usage_error_is_1(self):
        assert run_cli("bogus-subcommand").returncode == 1
        assert run_cli("synth", "--n", "4").returncode == 1  # missing required

    def test_bad_generator_parameter_is_2(self, tmp_path):
        out = tmp_path / "p.csv"
        proc = run_cli("synth", "--n", "4", "--T", "8", "--decay", "1.5",
                       "--out", str(out))
        assert proc.returncode == 2
        for flag in ("--scale", "--floor"):
            for value in ("nan", "inf"):
                proc = run_cli("synth", "--n", "4", "--T", "8", flag, value, "--out", str(out))
                assert proc.returncode == 2, (flag, value)
                assert "must be finite" in proc.stderr
                assert "Warning" not in proc.stderr and not out.exists()

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

    def test_project_spread_beyond_float_range_is_3_in_one_line(self):
        # No NumPy RuntimeWarning comes before the documented error.
        proc = run_cli("project", "--v=1e308,-1e308,1e308", "--mu", "1,0,0.5",
                       "--r-target", "0.9")
        assert proc.returncode == 3
        assert proc.stderr.splitlines() == [
            "strmv: numeric failure: cannot project a non-finite point or one whose "
            "entries span more than the float range"
        ]

    def test_projection_missing_target_is_3(self):
        proc = run_cli("project", "--v=-6.23e16,4.13e15,-2.33e17,-2.19e16,-1.25e17",
                       "--mu=-0.73,-0.54,-0.32,0.41,1.04", "--r-target", "0.16")
        assert proc.returncode == 3
        assert "misses R_target" in proc.stderr

    def test_closed_stdout_pipe_is_0_without_traceback(self, panel_csv):
        # The reader closed the pipe before the report was written.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "strmv.cli", "spectrum", "--panel", str(panel_csv)],
                stdout=write_end, stderr=subprocess.PIPE, text=True,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 0
        assert proc.stderr == ""

    def test_broken_pipe_in_process(self, monkeypatch, capsys):
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["project", "--v", "0.5,0.5", "--mu", "1,0", "--r-target", "0.9"]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("cfg", [
        {"solver": {"bogus": 1}},
        {"solver": {"power_iters": 10}},
        {"models": [{"bogus": 1}]},
        {"synthetic": {"n": 6, "T": 24, "bogus": 2}},
        {"solver": {"step_mode": "backtracking", "shrink": 0.5}},
        {"solver": {"step_mode": "backtracking", "alpha0": 1.0}},
        {"models": [{"tau": 1e-3}]},
        {"models": [{"rho": 0.9}]},
    ])
    def test_unknown_nested_config_key_is_1(self, tmp_path, cfg):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        proc = run_cli("bench", "approx", "--config", str(cfg_path))
        assert proc.returncode == 1
        assert "unknown config keys" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("cfg", [{"models": [1]}, {"solver": [1]}])
    def test_non_object_config_section_is_1(self, tmp_path, cfg):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        proc = run_cli("bench", "approx", "--config", str(cfg_path))
        assert proc.returncode == 1
        assert "must be an object" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_unknown_model_kind_is_1(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "models": [{"kind": "bogus", "s": 4}],
            "synthetic": {"n": 6, "T": 24},
            "repetitions": 1,
        }))
        proc = run_cli("bench", "approx", "--config", str(cfg_path))
        assert proc.returncode == 1
        assert "unknown model kind 'bogus'" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("cfg,key", [
        ({"solver": {"tol": "abc"}}, "solver.tol"),
        ({"synthetic": {"n": "x", "T": 24}}, "synthetic.n"),
        ([1], "config must be an object"),
    ])
    def test_config_value_of_wrong_type_is_1(self, tmp_path, cfg, key):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        proc = run_cli("bench", "approx", "--config", str(cfg_path))
        assert proc.returncode == 1
        assert "usage error" in proc.stderr and key in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_infeasible_target_is_2(self, panel_csv):
        proc = run_cli("solve", "--panel", str(panel_csv), "--model", "baseline",
                       "--r-target", "999.0")
        assert proc.returncode == 2

    @pytest.mark.parametrize("body,row", [
        ("v,mu\n0.5,1\nabc,0\n", "row 3"),  # non-numeric cell
        ("v,mu\n0.5,1\n0.5\n", "row 3"),  # short row
    ])
    def test_project_bad_csv_row_is_2(self, tmp_path, body, row):
        path = tmp_path / "vm.csv"
        path.write_text(body)
        proc = run_cli("project", "--from-csv", str(path), "--r-target", "0.5")
        assert proc.returncode == 2
        assert "data error" in proc.stderr and row in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_solve_percentile_out_of_range_is_1(self, panel_csv):
        proc = run_cli("solve", "--panel", str(panel_csv), "--model", "baseline",
                       "--r-target-percentile", "150")
        assert proc.returncode == 1
        assert "r_target_percentile must be in [0, 100]" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_config_percentile_out_of_range_is_1(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "models": [{"kind": "baseline"}],
            "synthetic": {"n": 6, "T": 24},
            "repetitions": 1,
            "r_target_percentile": 150,
        }))
        proc = run_cli("bench", "approx", "--config", str(cfg_path))
        assert proc.returncode == 1
        assert "r_target_percentile must be in [0, 100]" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_solve_zero_sketch_width_is_not_replaced(self, panel_csv):
        proc = run_cli("solve", "--panel", str(panel_csv), "--model", "sketch",
                       "--s", "0")
        assert proc.returncode == 1
        assert "sketch size must be >= 1, got 0" in proc.stderr

    def test_solve_nan_kappa_target_is_1(self, panel_csv):
        proc = run_cli("solve", "--panel", str(panel_csv), "--kappa-target", "nan")
        assert proc.returncode == 1
        assert "kappa_target must exceed 1, got nan" in proc.stderr

    def test_solve_inf_kappa_target_is_1(self, panel_csv):
        proc = run_cli("solve", "--panel", str(panel_csv), "--kappa-target", "inf")
        assert proc.returncode == 1
        assert "kappa_target must be finite, got inf" in proc.stderr
        assert "gamma" not in proc.stderr

    def test_solve_nan_r_target_is_1(self, panel_csv):
        proc = run_cli("solve", "--panel", str(panel_csv), "--r-target", "nan")
        assert proc.returncode == 1
        assert "R_target=nan" in proc.stderr

    def test_solve_inf_tol_is_1(self, panel_csv):
        proc = run_cli("solve", "--panel", str(panel_csv), "--tol", "inf")
        assert proc.returncode == 1
        assert "tol must be positive and finite, got inf" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("flag,value", [
        ("--tol", "inf"), ("--max-iters", "0"), ("--r-target", "nan"),
        ("--r-target-percentile", "150"), ("--seed", "-1"),
    ])
    def test_solve_bad_flag_is_1_before_the_panel_is_read(self, tmp_path, capsys, flag, value):
        # The panel does not exist: the flag is refused first, as a usage error.
        assert main(["solve", "--panel", str(tmp_path / "missing.csv"), flag, value]) == 1
        err = capsys.readouterr().err
        assert "usage error" in err and "No such file" not in err

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_is_1(self, panel_csv, monkeypatch, capsys, threads):
        for var in _THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--panel", str(panel_csv), f"--threads={threads}"])
        assert exc.value.code == 1
        assert f"needs at least 1 thread, got {threads}" in capsys.readouterr().err
        assert not any(var in os.environ for var in _THREAD_VARS)  # refused before any is set

    @pytest.mark.parametrize("tol", ["nan", "0", "-1", "inf"])
    def test_bench_bad_tol_is_1(self, tmp_path, capsys, tol):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"sizes": [8], "repetitions": 1}))
        assert main(["bench", "solver", "--config", str(cfg_path), f"--tol={tol}"]) == 1
        assert "tol must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["synth", "solve"])
    def test_negative_seed_is_1(self, panel_csv, tmp_path, capsys, command):
        argv = {"synth": ["synth", "--n", "4", "--T", "8", "--out", str(tmp_path / "p.csv")],
                "solve": ["solve", "--panel", str(panel_csv)]}[command]
        assert main([*argv, "--seed=-1"]) == 1
        assert "seed must be nonnegative, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "synth", "bench"])
    def test_directory_in_place_of_a_file_is_2(self, panel_csv, tmp_path, capsys, command):
        argv = {"solve": ["solve", "--panel", str(tmp_path)],
                "synth": ["synth", "--n", "4", "--T", "8", "--out", str(tmp_path)],
                "bench": ["bench", "rate", "--config", str(tmp_path)]}[command]
        assert main(argv) == 2
        assert str(tmp_path) in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "project"])
    def test_undecodable_input_file_is_2(self, tmp_path, capsys, command):
        path = tmp_path / "bad.csv"
        if command == "solve":
            path.write_bytes(b"asset,p1,p2\nA,1,2\nB,\xff,1\n")
            argv = ["solve", "--panel", str(path)]
        else:
            path.write_bytes(b"v,mu\n0.5,1\n\xff,0\n")
            argv = ["project", "--from-csv", str(path), "--r-target", "0.5"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "data error" in err and str(path) in err

    def test_malformed_json_config_is_1(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"sizes": [8],')
        assert main(["bench", "solver", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert "usage error" in err and str(cfg_path) in err

    def test_project_non_finite_r_target_is_1(self):
        proc = run_cli("project", "--v", "0.5,0.5", "--mu", "1,0", "--r-target", "inf")
        assert proc.returncode == 1
        assert "R_target=inf" in proc.stderr

    def test_config_nan_gamma_is_1(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        # JSON reads 1e400 as inf; neither ridge reaches a solve.
        for text, shown in (("NaN", "nan"), ("1e400", "inf")):
            cfg_path.write_text('{"models": [{"kind": "str", "s": 12, "gamma": %s}], '
                                '"sizes": [8], "repetitions": 1}' % text)
            proc = run_cli("bench", "solver", "--config", str(cfg_path))
            assert proc.returncode == 1
            assert f"str models require gamma > 0, got {shown}" in proc.stderr
            assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr

    def test_approx_config_error_is_1_not_an_error_row(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        out = tmp_path / "report.json"
        cfg_path.write_text('{"models": [{"kind": "str", "gamma": NaN}], '
                            '"synthetic": {"n": 6, "T": 24}, "repetitions": 1}')
        proc = run_cli("bench", "approx", "--config", str(cfg_path), "--out", str(out))
        assert proc.returncode == 1
        assert "str models require gamma > 0, got nan" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("model,pinned", [
        ({"kind": "str", "s": 0, "eta": 0.5}, "s, eta"),
        ({"kind": "sketch", "s_over_ell": 3.0}, "s_over_ell"),
    ])
    def test_approx_model_pinning_a_grid_value_is_1(self, tmp_path, model, pinned):
        # The sweep sets s, eta and s/ell from its grids; a model that pins one
        # would otherwise run at a grid point and exit 0.
        cfg_path = tmp_path / "cfg.json"
        out = tmp_path / "report.json"
        cfg_path.write_text(json.dumps({"models": [model], "synthetic": {"n": 6, "T": 24},
                                        "repetitions": 1}))
        proc = run_cli("bench", "approx", "--config", str(cfg_path), "--out", str(out))
        assert proc.returncode == 1
        assert f"models[0] sets {pinned}" in proc.stderr
        assert "eta_grid" in proc.stderr and "s_over_ell_grid" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()


    # The rate_iters and split_fraction cases keep the ids of the range checks
    # those keys had while they were settings; the keys are now unknown.
    @pytest.mark.parametrize("experiment,cfg,code,message", [
        pytest.param("rate", {"rate_iters": 5}, 1,
                     "unknown config keys in top-level: ['rate_iters']",
                     id="rate-cfg0-1-needs a trace of at least 11 iterations, got 5"),
        pytest.param("rate", {"rate_iters": 10}, 1,
                     "unknown config keys in top-level: ['rate_iters']",
                     id="rate-cfg1-1-needs a trace of at least 11 iterations, got 10"),
        ("solver", {"models": [{"kind": "str", "s": 0}]}, 1, "sketch size must be >= 1, got 0"),
        ("solver", {"models": [{"kind": "str", "s": 100000}]}, 2,
         "1 <= s <= T=32, got s=100000"),
        ("solver", {"models": [{"kind": "str", "s": 12, "kappa_target": None}]}, 1,
         "models[0].kappa_target must be float"),
        ("solver", {"models": [{"kind": "str", "s": 12, "kappa_target": 1}]}, 1,
         "kappa_target must exceed 1, got 1"),
        ("solver", {"solver": {"step_mode": "fixed_auto"}}, 1,
         "unknown config keys in solver: ['step_mode']"),
        ("solver", {"solver": {"seed": 3}}, 1, "unknown config keys in solver: ['seed']"),
        ("solver", {"solver": {"alpha": 0.1, "step_mode": "backtracking"}}, 1,
         "unknown config keys in solver: ['alpha', 'step_mode']"),
        ("solver", {"warmup": 0}, 1, "unknown config keys in top-level: ['warmup']"),
        ("solver", {"models": [{"kind": "str", "s_over_ell": -3, "eta": 0.9}]}, 1,
         "s_over_ell must be > 0, got -3"),
        ("approx", {"synthetic": {"n": 6, "T": 24}, "s_over_ell_grid": [2.0, 0.0]}, 1,
         "s_over_ell_grid values must be > 0, got [2.0, 0.0]"),
        ("solver", {"models": [{"kind": "sketch", "s_over_ell": 2.0}]}, 1,
         "model sketch-gaussian_jl sets s_over_ell without eta"),
        pytest.param("real", {"split_fraction": float("nan")}, 1,
                     "unknown config keys in top-level: ['split_fraction']",
                     id="real-cfg13-1-split_fraction must be in (0, 1), got nan"),
        pytest.param("real", {"split_fraction": 1.5}, 1,
                     "unknown config keys in top-level: ['split_fraction']",
                     id="real-cfg14-1-split_fraction must be in (0, 1), got 1.5"),
        ("solver", {"sizes": []}, 1, "sizes must not be empty"),
        ("approx", {"models": []}, 1, "models must not be empty"),
        ("approx", {"eta_grid": []}, 1, "eta_grid must not be empty"),
        ("approx", {"s_over_ell_grid": []}, 1, "s_over_ell_grid must not be empty"),
        ("solver", {"T_over_n": 0}, 1, "T_over_n must be >= 1, got 0"),
        ("solver", {"sizes": [1]}, 1, "sizes must be >= 2, got [1]"),
        ("solver", {"sizes": [0]}, 1, "sizes must be >= 2, got [0]"),
        ("solver", {"sizes": [-3]}, 1, "sizes must be >= 2, got [-3]"),
        ("solver", {"solver": {"alpha": 0.1}}, 1, "unknown config keys in solver: ['alpha']"),
        ("solver", {"solver": {"record_objective": True}}, 1,
         "unknown config keys in solver: ['record_objective']"),
    ])
    def test_config_error_exit_code(self, tmp_path, capsys, experiment, cfg, code, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"sizes": [8], "repetitions": 1, **cfg}))
        assert main(["bench", experiment, "--config", str(cfg_path)]) == code
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_bench_rate_refuses_solver_settings(self, tmp_path, source):
        # The rate experiment fixes its own solver settings, so any that a
        # flag or config sets would change nothing.
        out = tmp_path / "report.json"
        if source == "flag":
            argv = ["--tol", "0.5"]
        else:
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps({"solver": {"max_iters": 3}}))
            argv = ["--config", str(cfg_path)]
        proc = run_cli("bench", "rate", *argv, "--out", str(out))
        assert proc.returncode == 1
        assert "takes no solver settings or --tol" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()


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


_TOKENS = st.one_of(
    st.sampled_from(["", " ", "nan", "inf", "-inf", "abc", "0", "1", "-1", "1e17", "1e308"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)
_VECTORS = st.lists(_TOKENS, max_size=6).map(",".join)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(_VECTORS, _VECTORS, st.floats(allow_nan=True, allow_infinity=True))
def test_project_fuzz_exits_with_a_documented_code(v, mu, r_target):
    # The --flag=value form keeps argparse from reading "-1,..." as an option.
    argv = ["project", f"--v={v}", f"--mu={mu}", f"--r-target={r_target!r}"]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2, 3)


_BENCH_MODELS = st.fixed_dictionaries(
    {"kind": st.sampled_from(["baseline", "sketch", "str"])},
    optional={"s": st.one_of(st.integers(1, 24), st.integers(-1, 40))},
)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["rate", "solver"]),
    st.fixed_dictionaries({
        "synthetic": st.fixed_dictionaries({
            "n": st.integers(2, 6), "T": st.integers(8, 24),
            "singular_decay": st.floats(0.5, 0.9),
        }),
        # Mostly valid values, so that most examples run an experiment.
        "sizes": st.lists(st.one_of(st.integers(2, 6), st.just(1)), min_size=1, max_size=2),
        "models": st.lists(_BENCH_MODELS, min_size=1, max_size=1),
        "repetitions": st.one_of(st.integers(1, 2), st.just(0)),
    }),
)
def test_bench_config_fuzz_exits_with_a_documented_code(tmp_path_factory, experiment, cfg):
    if experiment == "solver":  # the rate experiment refuses solver settings
        cfg = {**cfg, "solver": {"max_iters": 2000}}
    path = tmp_path_factory.mktemp("fuzz") / "cfg.json"
    path.write_text(json.dumps(cfg))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["bench", experiment, "--config", str(path)])
    assert code in (0, 1, 2, 3)


_GRID_VALUES = st.one_of(st.floats(0.5, 0.95), st.sampled_from([0.0, -1.0, 1.0, 3.0]))


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["approx", "real"]),
    st.fixed_dictionaries({
        "synthetic": st.fixed_dictionaries({
            "n": st.integers(2, 6), "T": st.integers(8, 24),
            "singular_decay": st.floats(0.5, 0.9),
        }),
        # Mostly valid values, so that most examples run an experiment.
        "eta_grid": st.lists(_GRID_VALUES, min_size=1, max_size=2),
        "s_over_ell_grid": st.lists(_GRID_VALUES, min_size=1, max_size=2),
        "models": st.lists(
            st.fixed_dictionaries(
                {"kind": st.sampled_from(["baseline", "sketch", "str"])},
                optional={"eta": _GRID_VALUES, "s_over_ell": _GRID_VALUES,
                          "s": st.integers(-1, 30)},
            ),
            min_size=1, max_size=2,
        ),
        "repetitions": st.one_of(st.just(1), st.just(0)),
    }),
)
def test_approx_and_real_config_fuzz_exits_with_a_documented_code(
    tmp_path_factory, tiny_panel, experiment, cfg
):
    path = tmp_path_factory.mktemp("fuzz") / "cfg.json"
    path.write_text(json.dumps({**cfg, "panel_path": str(tiny_panel),
                                "solver": {"max_iters": 2000}}))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["bench", experiment, "--config", str(path)])
    assert code in (0, 1, 2, 3)


@pytest.fixture(scope="module")
def tiny_panel(tmp_path_factory):
    path = tmp_path_factory.mktemp("tiny") / "panel.csv"
    assert main(["synth", "--n", "6", "--T", "24", "--decay", "0.7", "--seed", "1",
                 "--out", str(path)]) == 0
    return path


_SOLVE_FLAGS = {
    "--model": st.sampled_from(["baseline", "sketch", "str"]),
    "--sketch": st.sampled_from(["gaussian_jl", "countsketch"]),
    "--s": st.integers(1, 24).map(str),
    "--kappa-target": st.floats(1.01, 1e8).map(repr),
    "--r-target-percentile": st.floats(0, 100).map(repr),
    "--r-target": st.floats(-0.5, 0.5).map(repr),
    "--tol": st.floats(1e-12, 1.0).map(repr),
    # Small, so that a tiny --tol cannot make an example run long.
    "--max-iters": st.integers(1, 300).map(str),
    "--seed": st.integers(0, 1000).map(str),
}
_BAD_NUMBERS = st.one_of(
    st.sampled_from(["0", "-1", "25", "nan", "inf", "-inf", "1e300", "-1e300"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)


@settings(max_examples=200, deadline=None)
@given(
    st.fixed_dictionaries(_SOLVE_FLAGS),
    # Mostly valid flags, so that most examples run a solve.
    st.dictionaries(st.sampled_from(sorted(set(_SOLVE_FLAGS) - {"--model", "--sketch"})),
                    _BAD_NUMBERS, max_size=2),
    st.sampled_from(["--r-target", "--r-target-percentile"]),
)
# Pinned because random draws seldom pair a negative seed with a Gaussian sketch.
@example({"--model": "str", "--sketch": "gaussian_jl"}, {"--seed": "-1"}, "--r-target")
def test_solve_fuzz_exits_with_a_documented_code(tiny_panel, flags, bad, unused_target):
    flags = {k: v for k, v in flags.items() if k != unused_target}
    argv = ["solve", f"--panel={tiny_panel}",
            *(f"{flag}={value}" for flag, value in {**flags, **bad}.items())]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a flag value with exit 1
            code = exc.code
    assert code in (0, 1, 2, 3)
