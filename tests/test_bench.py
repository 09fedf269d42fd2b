import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from strmv.bench import (
    ExperimentConfig,
    ModelSpec,
    RATE_ITERS,
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


def assert_rows_are_keyed(report):
    """What a report's rows hold beyond ``BenchReport``'s fields: every row a
    str model label and an int derived seed, and a portfolio block, where a
    row has one, an object."""
    for row in dataclasses.asdict(report)["rows"]:
        assert isinstance(row["model"], str) and type(row["seed"]) is int, row
        assert isinstance(row.get("portfolio", {}), dict), row


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
            assert row["termination"] == "tolerance"
            assert list(row)[-1] == "total_time_s"
        assert_rows_are_keyed(report)

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

    def test_identity_sketch_has_no_spectral_error(self, unsketched):
        # a sketch model of the unsketched factor reproduces the covariance exactly
        from strmv.bench import _model_from_spec
        from strmv.metrics import relative_spectral_error

        panel = generate_synthetic(
            SyntheticSpec(n=8, T=48, singular_decay=0.7, noise_floor=0.02, seed=0)
        )
        factor = center_and_factor(panel)
        model = _model_from_spec(
            factor, ModelSpec(kind="sketch", sketch_kind="gaussian_jl", s=48), seed=0
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
        assert strip_timings(dataclasses.asdict(a)) == strip_timings(dataclasses.asdict(b))


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
            model = _model_from_spec(factor, ModelSpec(kind="sketch", **kw), 0)
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

    @pytest.mark.parametrize("settings,message", [
        ({"s": 0}, "sketch size must be >= 1, got 0"),
        ({"s": -3}, "sketch size must be >= 1, got -3"),
        ({"kappa_target": 0.5}, "kappa_target must exceed 1, got 0.5"),
        ({"kappa_target": float("inf")}, "kappa_target must be finite, got inf"),
        ({"eta": 1.0}, "eta must be in (0,1), got 1.0"),
        ({"eta": 0.0}, "eta must be in (0,1), got 0.0"),
        ({"gamma": 0.0}, "str models require gamma > 0, got 0.0"),
        ({"gamma": float("inf")}, "str models require gamma > 0, got inf"),
    ])
    def test_what_a_builder_refuses_is_refused_at_construction(self, settings, message):
        # before any panel is generated or read, with the builder's message
        from strmv.errors import ArgumentError

        with pytest.raises(ArgumentError, match=re.escape(message)):
            ModelSpec(kind="str", **settings)

    @pytest.mark.parametrize("settings,message", [
        ({"kind": "baseline", "sketch_kind": "countsketch"},
         "baseline models do not read sketch_kind"),
        ({"kind": "baseline", "kappa_target": 5.0}, "baseline models do not read kappa_target"),
        ({"kind": "sketch", "kappa_target": 5.0}, "sketch models do not read kappa_target"),
        ({"kind": "str", "gamma": 0.05, "kappa_target": 50.0},
         "str models with a gamma do not read kappa_target"),
        ({"kind": "sketch", "s_over_ell": 2.0},
         "model sketch-gaussian_jl sets s_over_ell without eta"),
        ({"kind": "str", "s": 7, "s_over_ell": 2.0},
         "model str-gaussian_jl sets s_over_ell without eta"),
    ])
    def test_what_no_build_reads_is_refused_at_construction(self, settings, message):
        from strmv.errors import ArgumentError

        with pytest.raises(ArgumentError, match=re.escape(message)):
            ModelSpec(**settings)

    def test_a_setting_at_its_declared_default_is_accepted(self):
        # What a flag or config states at the default is what leaving it out gives.
        stated = ModelSpec(kind="baseline", sketch_kind="gaussian_jl", kappa_target=1e3)
        assert stated == ModelSpec(kind="baseline")
        assert ModelSpec(kind="str", gamma=0.05, kappa_target=1e3).gamma == 0.05

    def test_percentile_out_of_range_is_refused_at_construction(self):
        from strmv.errors import ArgumentError

        with pytest.raises(ArgumentError, match=re.escape("must be in [0, 100], got 150")):
            ExperimentConfig(r_target_percentile=150)

    def test_eta_grid_out_of_range_is_refused_at_construction(self):
        # from_dict builds no panel, so the refusal comes before any is generated.
        from strmv.errors import ArgumentError

        with pytest.raises(ArgumentError, match=re.escape("eta must be in (0,1), got 1.5")):
            ExperimentConfig.from_dict({"eta_grid": [1.5]}, "approx")

    @pytest.mark.parametrize("kind", ["bogus", "identity"])
    def test_unknown_sketch_kind_rejected_at_construction(self, kind):
        # before any panel is generated or baseline solved
        from strmv.errors import ArgumentError

        with pytest.raises(ArgumentError, match=f"unknown sketch kind '{kind}'"):
            ModelSpec(kind="str", sketch_kind=kind)


class TestOneDenseSpectrumPerPanel:
    """Each bench panel's Sigma = L @ L.T is formed once, and its dense
    spectrum comes from one eigensolve of it, whatever the models: the factor
    keeps both, and the baseline's Hessian copies that Sigma. The spectral
    error's own eigensolves score a model against Sigma and are not counted."""

    @staticmethod
    def panel_work(monkeypatch):
        """A function returning the counts of bench panels factored, of Sigmas
        formed of their L, and of eigensolves run on a Sigma or on a Hessian
        made from it."""
        import functools

        import strmv.bench as bench
        import strmv.spectrum as spectrum
        from strmv.models import FactorModel
        from strmv.panel import CovarianceFactor

        factors, formed, dense, solved = [], [], [], []
        in_metric = []

        def of_panel(A):
            return any(A is f.L for f in factors)

        def keep(matrix, new=True):
            dense.append(matrix)
            if new:
                formed.append(matrix)
            return matrix

        center, gram = bench.center_and_factor, spectrum._gram
        monkeypatch.setattr(bench, "center_and_factor",
                            lambda panel: factors.append(center(panel)) or factors[-1])
        form = CovarianceFactor.covariance.func
        kept = functools.cached_property(lambda factor: keep(form(factor)))
        kept.__set_name__(CovarianceFactor, "covariance")
        monkeypatch.setattr(CovarianceFactor, "covariance", kept)

        def counted_gram(A):
            out = gram(A)
            if of_panel(A) and not out[1]:  # the n x n Gram L @ L.T
                keep(out[2])
            return out

        monkeypatch.setattr(spectrum, "_gram", counted_gram)
        covariance = FactorModel.covariance
        monkeypatch.setattr(
            FactorModel, "covariance",
            lambda model: (keep(covariance(model), new=model.gram is None)
                           if of_panel(model.L_eff) else covariance(model)))
        metric = bench.relative_spectral_error

        def scoring(*args):
            in_metric.append(True)
            try:
                return metric(*args)
            finally:
                in_metric.pop()

        monkeypatch.setattr(bench, "relative_spectral_error", scoring)
        for name in ("eigvalsh", "eigh"):
            solver = getattr(np.linalg, name)

            def counted(M, *args, _solver=solver, **kwargs):
                if not in_metric and any(M is D for D in dense):
                    solved.append(M)
                return _solver(M, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        return lambda: (len(factors), len(formed), len(solved))

    def test_approx_maps_every_point_on_one_spectrum_per_panel(self, monkeypatch):
        count = self.panel_work(monkeypatch)
        report = run_approximation_sweep(small_cfg(repetitions=2))  # 2 models x 2 ratios
        assert len(report.rows) == 8
        assert count() == (2, 2, 2)

    def test_solver_forms_one_per_panel(self, monkeypatch):
        # Sizes 8, 10 and 12: the oracle's Q for each baseline copies its Sigma.
        count = self.panel_work(monkeypatch)
        report = run_solver_benchmark(ExperimentConfig())
        assert len(report.rows) == 3
        assert count() == (3, 3, 3)


class TestRateExperiment:
    # Seeds 4 and 5 failed the envelope while C was fitted pointwise at k = 5.
    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_two_regimes(self, seed):
        cfg = ExperimentConfig(
            synthetic=SyntheticSpec(n=8, T=40, singular_decay=0.7, seed=0),
            seed=seed,
        )
        report = run_rate_experiment(cfg)
        cases = {r["case"]: r for r in report.rows}
        assert cases["convex"]["loglog_slope"] <= -1.8
        assert cases["strongly_convex"]["envelope_ok"]
        # The gap at every iterate. The strongly convex run can stop early, on a
        # residual of exactly 0, before RATE_ITERS (seeds 3 and 4).
        assert len(cases["convex"]["gap_trace"]) == RATE_ITERS + 1
        for row in report.rows:
            assert len(row["gap_trace"]) == row["iterations"] + 1
            assert row["gap_trace"][-1] == row["final_gap"]

    # Criteria 3 and 4 measure the loop's own rate at tol 1e-300, which no
    # face-solve point meets: each is rejected and the loop runs on unchanged.
    @pytest.mark.parametrize("seed", [0, -1, 3, 4, 5])
    def test_face_solves_leave_the_report_unchanged(self, monkeypatch, seed):
        import strmv.solver as solver

        with_faces = run_rate_experiment(ExperimentConfig(seed=seed))
        monkeypatch.setattr(solver, "face_solve", lambda *args: None)
        without = run_rate_experiment(ExperimentConfig(seed=seed))
        assert (strip_timings(dataclasses.asdict(with_faces))
                == strip_timings(dataclasses.asdict(without)))

    def test_flat_trace_from_optimum(self):
        # when the start is already optimal the residual check fires at once
        cfg = ExperimentConfig(
            synthetic=SyntheticSpec(n=6, T=30, singular_decay=0.7, seed=1),
            seed=4,
        )
        report = run_rate_experiment(cfg)
        assert all(np.isfinite(r["final_gap"]) for r in report.rows)


class TestSolverBenchmark:
    def test_small_and_timing_rows(self):
        cfg = small_cfg(
            models=[ModelSpec(kind="baseline"), ModelSpec(kind="str", s=24)],
            synthetic=SyntheticSpec(n=8, T=40, singular_decay=0.7, noise_floor=0.02, seed=0),
            sizes=[8, 20],
            repetitions=2,
        )
        report = run_solver_benchmark(cfg)
        assert_rows_are_keyed(report)
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
            assert r["termination"] == "tolerance"
            # Both panels have T > n, so every model is full rank or ridged.
            assert r["kappa"] > 1.0
            if r["model"] != "baseline":
                assert r["kappa"] <= 1e3 * (1 + 1e-12)  # the default kappa_target

    def test_panels_keep_the_synthetic_aspect(self):
        cfg = small_cfg(
            synthetic=SyntheticSpec(n=8, T=40, singular_decay=0.7, noise_floor=0.02),
            models=[ModelSpec(kind="baseline")],
            sizes=[4, 6],
            repetitions=1,
        )
        assert [(r["n"], r["T"]) for r in run_solver_benchmark(cfg).rows] == [(4, 20), (6, 30)]


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
        )
        report = run_real_panel(cfg)
        assert {r["model"] for r in report.rows} == {"baseline", "str-gaussian_jl"}
        for row in report.rows:
            assert row["T_train"] == 60 and row["T_test"] == 30
            assert row["full_model_gap"] >= 0
            assert row["termination"] == "tolerance"
            assert row["portfolio"]["intervals_per_year"] == 11712
            assert row["r_target_percentile"] == 60.0
        assert_rows_are_keyed(report)

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
            "synthetic": {"n": 8, "T": 40, "singular_decay": 0.6},
            "models": [{"kind": "str", "sketch_kind": "countsketch", "s": 16}],
            "solver": {"tol": 1e-7, "max_iters": 500},
            "repetitions": 2,
        }
        cfg = ExperimentConfig.from_dict(raw, "solver")
        assert cfg.synthetic.n == 8
        assert cfg.models[0].sketch_kind == "countsketch"
        assert cfg.solver.tol == 1e-7

    def test_committed_configs_load(self):
        paths = sorted((Path(__file__).parent.parent / "configs").glob("*.json"))
        assert paths
        for path in paths:  # each named for its experiment, and sets only keys it reads
            ExperimentConfig.from_json(path, path.stem.split("_")[0])

    def test_unknown_keys_rejected(self):
        from strmv.errors import ArgumentError

        with pytest.raises(ArgumentError):
            ExperimentConfig.from_dict({"bogus": 1}, "solver")

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

    def test_timed_solve_keeps_the_solves_own_wall_times(self, monkeypatch):
        # One warm-up solve, then the median wall_time_s of the timed solves,
        # and the last solve's result.
        import types

        import strmv.bench as bench

        walls = iter([9.0, 1.0, 3.0, 2.5, 5.0])
        monkeypatch.setattr(bench, "solve", lambda model, fs, cfg: types.SimpleNamespace(
            wall_time_s=next(walls)))
        result, t = bench._timed_solve(None, None, None, repeats=3)
        assert t == 2.5 and result.wall_time_s == 2.5
        result, t = bench._timed_solve(None, None, None)  # no warm-up
        assert t == result.wall_time_s == 5.0
