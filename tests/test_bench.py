import json
from pathlib import Path

import numpy as np
import pytest
from jsonschema import validate

from strmv.bench import (
    REPORT_SCHEMA,
    BenchReport,
    ExperimentConfig,
    ModelSpec,
    TIMING_KEYS,
    derive_seed,
    feasible_from_factor,
    run_approximation_sweep,
    run_rate_experiment,
    run_real_panel,
    run_solver_benchmark,
    strip_timings,
)
from strmv.panel import SyntheticSpec, center_and_factor, generate_synthetic, save_panel
from strmv.solver import SolverConfig


def small_cfg(**kw):
    base = dict(
        synthetic=SyntheticSpec(n=8, T=48, singular_decay=0.7, noise_floor=0.02, seed=0),
        models=[
            ModelSpec(kind="str", sketch_kind="gaussian_jl"),
            ModelSpec(kind="str", sketch_kind="countsketch"),
        ],
        eta_grid=[0.9],
        s_over_ell_grid=[2.0, 4.0],
        solver=SolverConfig(tol=1e-8, max_iters=4000, residual_check_stride=5),
        repetitions=3,
        seed=7,
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestApproximationSweep:
    def test_rows_and_summary(self):
        report = run_approximation_sweep(small_cfg())
        assert report.kind == "approx"
        ok_rows = [r for r in report.rows if "error" not in r]
        assert len(ok_rows) == 2 * 2 * 3  # kinds x ratios x reps
        assert len(report.summary) == 4
        for row in ok_rows:
            assert row["rel_spectral_error"] >= 0
            assert row["full_model_gap"] >= 0
        validate(report.to_dict(), REPORT_SCHEMA)

    def test_identity_cap_reaches_T(self):
        # an s/ell ratio large enough to clip at T keeps the row valid
        report = run_approximation_sweep(small_cfg(s_over_ell_grid=[1000.0]))
        for row in report.rows:
            assert row["s"] == 48

    def test_row_failures(self, monkeypatch):
        # A StrmvError fails only its row; any other exception fails the run.
        import strmv.bench as bench
        from strmv.errors import NumericError

        def numeric_failure(*args):
            raise NumericError("injected")

        monkeypatch.setattr(bench, "relative_spectral_error", numeric_failure)
        report = run_approximation_sweep(small_cfg(repetitions=1))
        assert [r["error"] for r in report.rows] == ["NumericError: injected"] * 4

        def bug(*args):
            raise RuntimeError("injected")

        monkeypatch.setattr(bench, "relative_spectral_error", bug)
        with pytest.raises(RuntimeError):
            run_approximation_sweep(small_cfg(repetitions=1))

    def test_identity_sketch_has_no_spectral_error(self):
        # the debug identity injection reproduces the covariance exactly
        from strmv.bench import _model_from_spec
        from strmv.metrics import relative_spectral_error

        panel = generate_synthetic(
            SyntheticSpec(n=8, T=48, singular_decay=0.7, noise_floor=0.02, seed=0)
        )
        factor = center_and_factor(panel)
        model = _model_from_spec(
            factor, ModelSpec(kind="sketch", sketch_kind="identity", s=48), seed=0
        )
        err = relative_spectral_error(model.covariance(), factor.L @ factor.L.T)
        assert err <= 1e-10

    def test_sketch_rows_keep_the_eta_mapped_ell(self):
        from dataclasses import replace

        from strmv.spectrum import cumulative_energy, energy_rank

        cfg = small_cfg(models=[ModelSpec(kind="sketch")], repetitions=2)
        report = run_approximation_sweep(cfg)
        assert len(report.rows) == 4
        for row in report.rows:
            factor = center_and_factor(
                generate_synthetic(replace(cfg.synthetic, seed=row["panel_seed"]))
            )
            singvals = np.linalg.svd(factor.L, compute_uv=False)
            ell = energy_rank(cumulative_energy(singvals**2), row["eta"])
            assert row["ell"] == ell
            assert row["s"] == int(np.ceil(row["s_over_ell"] * ell))
            assert row["gamma"] == 0.0

    def test_median_error_weakly_decreasing_in_ratio(self):
        cfg = small_cfg(
            synthetic=SyntheticSpec(n=12, T=96, singular_decay=0.7, noise_floor=0.02, seed=0),
            s_over_ell_grid=[1.0, 6.0],
            repetitions=5,
        )
        report = run_approximation_sweep(cfg)
        for kind in ("str-gaussian_jl", "str-countsketch"):
            meds = {
                s["s_over_ell"]: s["median_rel_spectral_error"]
                for s in report.summary
                if s["model"] == kind
            }
            assert meds[6.0] <= meds[1.0]

    def test_reproducible_from_seed(self):
        a = run_approximation_sweep(small_cfg())
        b = run_approximation_sweep(small_cfg())
        assert strip_timings(a.to_dict()) == strip_timings(b.to_dict())


class TestModelFromSpec:
    def test_width_order(self):
        # explicit s, then s_over_ell times the eta-mapped ell clipped into
        # [1, T], then the strmv solve rule min(T, 16 * min(n, 50) + 48)
        from strmv.bench import _model_from_spec
        from strmv.errors import ArgumentError
        from strmv.spectrum import cumulative_energy, energy_rank

        factor = center_and_factor(generate_synthetic(
            SyntheticSpec(n=8, T=200, singular_decay=0.7, noise_floor=0.02, seed=0)
        ))
        singvals = np.linalg.svd(factor.L, compute_uv=False)

        def width(**kw):
            model = _model_from_spec(factor, ModelSpec(kind="sketch", **kw), 0, singvals)
            return model.provenance["sketch"]["s"]

        assert width(s=7, eta=0.9, s_over_ell=2.0) == 7
        ell = energy_rank(cumulative_energy(singvals**2), 0.9)
        assert width(eta=0.9, s_over_ell=2.0) == 2 * ell
        assert width(eta=0.9, s_over_ell=1000.0) == 200
        assert width() == width(eta=0.9) == 176
        with pytest.raises(ArgumentError, match="sets s_over_ell without eta"):
            width(s_over_ell=2.0)

    @pytest.mark.parametrize("ratio", [0.0, -3.0, float("nan")])
    def test_non_positive_ratio_rejected(self, ratio):
        from strmv.errors import ArgumentError

        with pytest.raises(ArgumentError, match="s_over_ell must be > 0"):
            ModelSpec(kind="str", s_over_ell=ratio, eta=0.9)
        with pytest.raises(ArgumentError, match="s_over_ell_grid values must be > 0"):
            small_cfg(s_over_ell_grid=[2.0, ratio])


class TestRateExperiment:
    def test_two_regimes(self, tmp_path):
        cfg = ExperimentConfig(
            synthetic=SyntheticSpec(n=8, T=40, singular_decay=0.7, seed=0),
            solver=SolverConfig(),
            rate_iters=260,
            seed=3,
        )
        trace = tmp_path / "traces.csv"
        report = run_rate_experiment(cfg, trace_path=trace)
        cases = {r["case"]: r for r in report.rows}
        assert cases["convex"]["loglog_slope"] <= -1.8
        assert cases["strongly_convex"]["envelope_ok"]
        lines = trace.read_text().strip().splitlines()
        assert lines[0] == "case,k,gap"
        assert len(lines) > 400

    def test_flat_trace_from_optimum(self):
        # when the start is already optimal the residual check fires at once
        cfg = ExperimentConfig(
            synthetic=SyntheticSpec(n=6, T=30, singular_decay=0.7, seed=1),
            rate_iters=50,
            seed=4,
        )
        report = run_rate_experiment(cfg)
        assert all(np.isfinite(r["final_gap"]) for r in report.rows)


class TestSolverBenchmark:
    def test_small_and_timing_rows(self):
        cfg = small_cfg(
            models=[ModelSpec(kind="baseline"), ModelSpec(kind="str", s=24)],
            sizes=[8, 20],
            T_over_n=5,
            repetitions=2,
        )
        report = run_solver_benchmark(cfg)
        validate(report.to_dict(), REPORT_SCHEMA)
        small = [r for r in report.rows if r["n"] == 8]
        big = [r for r in report.rows if r["n"] == 20]
        assert all(r["model_gap"] is not None and r["model_gap"] <= 1e-6 for r in small)
        assert all(r["model_gap"] is None for r in big)  # oracle out of reach
        assert all(r["full_model_gap"] >= 0 for r in report.rows)
        for r in report.rows:
            assert {"build_time_s", "solve_time_s", "total_time_s"} <= set(r)
            assert r["momentum"] == {"baseline": "fista_restart",
                                     "str-gaussian_jl": "strongly_convex"}[r["model"]]
            assert r["restarts"] >= 0


class TestRealPanel:
    def test_split_and_stats(self, tmp_path):
        panel = generate_synthetic(
            SyntheticSpec(n=10, T=90, singular_decay=0.7, noise_floor=0.02, seed=5)
        )
        path = tmp_path / "panel.csv"
        save_panel(panel, path)
        cfg = ExperimentConfig(
            panel_path=str(path),
            models=[ModelSpec(kind="baseline"), ModelSpec(kind="str", s=30)],
            solver=SolverConfig(tol=1e-8, max_iters=3000),
            repetitions=1,
            seed=2,
            split_fraction=2.0 / 3.0,
        )
        report = run_real_panel(cfg)
        assert {r["model"] for r in report.rows} == {"baseline", "str-gaussian_jl"}
        for row in report.rows:
            assert row["T_train"] == 60 and row["T_test"] == 30
            assert row["full_model_gap"] >= 0
            assert row["portfolio"]["intervals_per_year"] == 11712
            assert row["r_target_percentile"] == 60.0
        validate(report.to_dict(), REPORT_SCHEMA)

    def test_degenerate_panel_all_zero(self, tmp_path):
        rows = "\n".join(f"A{i}," + ",".join(["0.0"] * 12) for i in range(4))
        path = tmp_path / "zeros.csv"
        path.write_text("asset," + ",".join(f"p{t}" for t in range(12)) + "\n" + rows + "\n")
        cfg = ExperimentConfig(
            panel_path=str(path),
            models=[ModelSpec(kind="baseline")],
            repetitions=1,
        )
        report = run_real_panel(cfg)
        assert report.rows[0]["full_model_gap"] == 0.0


class TestConfigAndHelpers:
    def test_from_dict_round_trip(self):
        raw = {
            "synthetic": {"n": 8, "T": 40, "singular_decay": 0.6, "seed": 1},
            "models": [{"kind": "str", "sketch_kind": "countsketch", "s": 16}],
            "solver": {"tol": 1e-7, "max_iters": 500},
            "repetitions": 2,
            "seed": 11,
        }
        cfg = ExperimentConfig.from_dict(raw)
        assert cfg.synthetic.n == 8
        assert cfg.models[0].sketch_kind == "countsketch"
        assert cfg.solver.tol == 1e-7

    def test_committed_configs_load(self):
        paths = sorted((Path(__file__).parent.parent / "configs").glob("*.json"))
        assert paths
        for path in paths:
            ExperimentConfig.from_json(path)

    def test_unknown_keys_rejected(self):
        from strmv.errors import ArgumentError

        with pytest.raises(ArgumentError):
            ExperimentConfig.from_dict({"bogus": 1})

    def test_derive_seed_stable(self):
        assert derive_seed(7, 1, 2) == derive_seed(7, 1, 2)
        assert derive_seed(7, 1, 2) != derive_seed(7, 2, 1)
        assert 0 <= derive_seed(123, 9) < 2**63

    def test_strip_timings(self):
        row = {"model": "x", "solve_time_s": 1.0, "nested": [{"wall_time_s": 2.0, "a": 1}]}
        out = strip_timings(row)
        assert out == {"model": "x", "nested": [{"a": 1}]}
        assert TIMING_KEYS >= {"solve_time_s", "wall_time_s"}

    def test_feasible_from_factor_percentile(self):
        panel = generate_synthetic(SyntheticSpec(n=6, T=24, seed=0))
        factor = center_and_factor(panel)
        fs = feasible_from_factor(factor, 60.0)
        assert fs.R_target == pytest.approx(float(np.percentile(factor.mean, 60.0)))

    def test_report_save(self, tmp_path):
        report = BenchReport(kind="x", rows=[], summary=[], environment={}, seed_ledger={})
        path = tmp_path / "r.json"
        report.save(path)
        assert json.loads(path.read_text())["kind"] == "x"

    def test_rows_to_csv_flattens(self, tmp_path):
        from strmv.bench import rows_to_csv

        rows = [
            {"model": "a", "gap": 0.1, "portfolio": {"vol": 2.0}},
            {"model": "b", "gap": 0.2},
        ]
        path = tmp_path / "rows.csv"
        rows_to_csv(rows, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "model,gap,portfolio.vol"
        assert lines[1].startswith("a,0.1,2.0")
        assert lines[2].startswith("b,0.2,")
