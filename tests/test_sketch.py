import numpy as np
import pytest

from strmv.errors import ArgumentError, DimensionError
from strmv.panel import CovarianceFactor
from strmv.sketch import (
    SketchConfig,
    _apply_countsketch,
    apply_sketch,
    countsketch_arrays,
    recommended_sketch_size,
)

from reference import materialize_sketch_matrix


def factor_of(L):
    L = np.asarray(L, dtype=float)
    return CovarianceFactor(L=L, mean=np.zeros(L.shape[0]))


def random_low_rank(n, T, r, seed, sig=None):
    rng = np.random.default_rng(seed)
    U = np.linalg.qr(rng.standard_normal((n, r)))[0]
    V = np.linalg.qr(rng.standard_normal((T, r)))[0]
    if sig is None:
        sig = 1.0 + rng.uniform(0.0, 1.0, r)
    return (U * sig) @ V.T


def sketch(factor, kind, s, seed):
    return apply_sketch(factor, SketchConfig(kind=kind, s=s, seed=seed))


KINDS = ("gaussian_jl", "countsketch")


class TestApplySketch:
    @pytest.mark.parametrize("kind", KINDS)
    def test_zero_factor(self, kind):
        sk = sketch(factor_of(np.zeros((3, 8))), kind, s=4, seed=0)
        np.testing.assert_array_equal(sk.Ltilde, 0.0)

    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_materialized_phi(self, kind):
        f = factor_of(np.random.default_rng(2).standard_normal((3, 10)))
        cfg = SketchConfig(kind=kind, s=5, seed=9)
        sk = apply_sketch(f, cfg)
        assert sk.config == cfg
        np.testing.assert_allclose(sk.Ltilde, f.L @ materialize_sketch_matrix(cfg, 10), atol=1e-14)

    @pytest.mark.parametrize("kind", KINDS)
    def test_size_bounds(self, kind):
        f = factor_of(np.zeros((2, 6)))
        with pytest.raises(DimensionError):
            sketch(f, kind, s=7, seed=0)
        with pytest.raises(ArgumentError):  # SketchConfig refuses s < 1 ...
            sketch(f, kind, s=0, seed=0)
        cfg = SketchConfig(kind=kind, s=1)
        cfg.s = 0
        with pytest.raises(DimensionError):  # ... and so does apply_sketch
            apply_sketch(f, cfg)

    def test_identity_is_not_a_sketch_kind(self):
        with pytest.raises(ArgumentError, match="unknown sketch kind 'identity'"):
            SketchConfig(kind="identity", s=6, seed=0)

    def test_apply_ops_by_kind(self):
        # CountSketch does one accumulation per entry of L, the Gaussian
        # projection s of them.
        f = factor_of(np.ones((5, 100)))
        ops = {kind: sketch(f, kind, s=8, seed=0).apply_ops for kind in KINDS}
        assert ops == {"countsketch": 5 * 100, "gaussian_jl": 5 * 100 * 8}


class TestGaussianJL:
    def test_shape_and_determinism(self):
        f = factor_of(np.random.default_rng(1).standard_normal((2, 8)))
        a = sketch(f, "gaussian_jl", s=4, seed=1)
        b = sketch(f, "gaussian_jl", s=4, seed=1)
        assert a.Ltilde.shape == (2, 4)
        np.testing.assert_array_equal(a.Ltilde, b.Ltilde)

    def test_seed_changes_output(self):
        f = factor_of(np.random.default_rng(1).standard_normal((2, 8)))
        a = sketch(f, "gaussian_jl", s=4, seed=1)
        b = sketch(f, "gaussian_jl", s=4, seed=2)
        assert np.abs(a.Ltilde - b.Ltilde).max() > 0

    def test_streaming_equals_dense(self, monkeypatch):
        import strmv.sketch as sketch_module

        f = factor_of(np.random.default_rng(3).standard_normal((4, 64)))
        dense = sketch(f, "gaussian_jl", s=8, seed=5)
        monkeypatch.setattr(sketch_module, "DENSE_PHI_ENTRY_CAP", 100)  # 12-row blocks of Phi
        streamed = sketch(f, "gaussian_jl", s=8, seed=5)
        np.testing.assert_allclose(streamed.Ltilde, dense.Ltilde, atol=1e-12)
        again = sketch(f, "gaussian_jl", s=8, seed=5)
        np.testing.assert_array_equal(streamed.Ltilde, again.Ltilde)

    def test_distortion_monte_carlo(self):
        # Quadratic-form distortion over random directions stays within the
        # budget for rule-sized sketches on low-rank inputs.
        hits = 0
        trials = 40
        eps = 0.25
        s = recommended_sketch_size(5, eps, 0.05)
        for seed in range(trials):
            L = random_low_rank(20, 600, 5, seed)
            sk = sketch(factor_of(L), "gaussian_jl", s=s, seed=seed)
            X = np.random.default_rng(seed + 1).standard_normal((20, 1000))
            base = np.sum((L.T @ X) ** 2, axis=0)
            sketched = np.sum((sk.Ltilde.T @ X) ** 2, axis=0)
            ok = base > 0
            dist = np.abs(sketched[ok] - base[ok]) / base[ok]
            hits += dist.max() <= eps
        assert hits >= int(0.9 * trials)


class TestCountSketch:
    def test_hand_example(self):
        # h = (0,1,0,1), signs (+,-,+,-): first output column collects inputs
        # 0 and 2, second collects 1 and 3 with flipped sign.
        L = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]])
        h = np.array([0, 1, 0, 1])
        signs = np.array([1.0, -1.0, 1.0, -1.0])
        out = _apply_countsketch(L, h, signs, 2)
        np.testing.assert_array_equal(out, [[1.0, 0.0], [0.0, -1.0]])

    @pytest.mark.parametrize("n,T,s", [(5, 7, 3), (40, 300, 17), (600, 2400, 968)])
    def test_bit_identical_to_add_at(self, n, T, s):
        def add_at_reference(L, h, signs, s):
            out = np.zeros((s, L.shape[0]))
            np.add.at(out, h, (L * signs).T)
            return out.T

        L = np.random.default_rng(n).standard_normal((n, T))
        L[0, :3] = -0.0
        h, signs = countsketch_arrays(T, s, seed=n + T)
        out = _apply_countsketch(L, h, signs, s)
        ref = add_at_reference(L, h, signs, s)
        np.testing.assert_array_equal(out.view(np.int64), ref.view(np.int64))
        assert out.flags["F_CONTIGUOUS"] == ref.flags["F_CONTIGUOUS"]

    def test_phi_rows_single_pm_one(self):
        phi = materialize_sketch_matrix(SketchConfig(kind="countsketch", s=6, seed=3), 40)
        nonzeros = (phi != 0).sum(axis=1)
        assert (nonzeros == 1).all()
        vals = phi[phi != 0]
        assert set(np.unique(vals)) <= {-1.0, 1.0}

    def test_hash_deterministic(self):
        h1, s1 = countsketch_arrays(100, 7, seed=42)
        h2, s2 = countsketch_arrays(100, 7, seed=42)
        np.testing.assert_array_equal(h1, h2)
        np.testing.assert_array_equal(s1, s2)
        h3, _ = countsketch_arrays(100, 7, seed=43)
        assert (h1 != h3).any()

    def test_apply_ops_linear_in_nnz(self):
        # Work scales with the input size, not the sketch width.
        f1 = factor_of(np.ones((5, 100)))
        f2 = factor_of(np.ones((5, 200)))
        a = sketch(f1, "countsketch", s=8, seed=0)
        b = sketch(f2, "countsketch", s=8, seed=0)
        c = sketch(f1, "countsketch", s=64, seed=0)
        assert b.apply_ops == 2 * a.apply_ops
        assert c.apply_ops == a.apply_ops


class TestRecommendedSize:
    def test_arithmetic_cases(self):
        # c = 4: ceil(4 * 2 / 0.25) and ceil(4 * (10 + ln 100) / 0.25).
        assert recommended_sketch_size(1, 0.5, float(np.exp(-1.0))) == 32
        assert recommended_sketch_size(10, 0.5, 0.01) == 234

    def test_bad_arguments(self):
        with pytest.raises(ArgumentError):
            recommended_sketch_size(-1, 0.25, 0.05)
        with pytest.raises(ArgumentError):
            recommended_sketch_size(5, 1.5, 0.05)
        with pytest.raises(ArgumentError):
            recommended_sketch_size(5, 0.25, 1.5)

    def test_monotone_in_rank(self):
        sizes = [recommended_sketch_size(r, 0.25, 0.05) for r in (1, 5, 20)]
        assert sizes == sorted(sizes)


class TestMaterialize:
    def test_size_cap(self):
        with pytest.raises(ArgumentError):
            materialize_sketch_matrix(SketchConfig(kind="gaussian_jl", s=2000, seed=0), 10**4)


def test_pd_preservation_under_embedding():
    # Whenever the measured distortion is below 1/kappa, the sketched
    # covariance stays positive definite.
    checked = 0
    for seed in range(30):
        rng = np.random.default_rng(seed)
        n, T = 10, 400
        sig = 1.0 + rng.uniform(0.0, 0.3, n)  # kappa <= ~1.7
        L = random_low_rank(n, T, n, seed, sig=sig)
        Sigma = L @ L.T
        lam = np.linalg.eigvalsh(Sigma)
        kappa = lam[-1] / lam[0]
        sk = sketch(factor_of(L), "gaussian_jl", s=256, seed=seed)
        V = np.linalg.svd(L, full_matrices=False)[2].T
        phi = materialize_sketch_matrix(SketchConfig(kind="gaussian_jl", s=256, seed=seed), T)
        G = (phi.T @ V).T @ (phi.T @ V)
        eps_meas = np.linalg.norm(G - np.eye(n), 2)
        if eps_meas < 1.0 / kappa:
            checked += 1
            assert np.linalg.eigvalsh(sk.Ltilde @ sk.Ltilde.T)[0] > 0
    assert checked >= 20  # the regime must actually occur
