"""Reference models: LKV least squares, T-S and type-1 polynomial fuzzy."""

import numpy as np
import pytest

from it2pf.core import Channel, ShapeError, TrainingError, materialize_ticks
from it2pf.baselines import (
    LKVModel,
    fit_lkv,
    fit_pfmb,
    fit_tsfmb,
)
from it2pf.identify import TrainConfig, train


def _ticks(fn, n_trials=6, n_ticks=40, dt=0.01, seed=0, n=1):
    """Per-tick records of y = fn(x, v) over smooth sinusoid trajectories."""
    rng = np.random.default_rng(seed)
    t, tid, X, V, Y = [], [], [], [], []
    for j in range(n_trials):
        amp = rng.uniform(0.5, 1.5, size=n)
        phase = rng.uniform(0, np.pi, size=n)
        freq = rng.uniform(0.5, 2.0, size=n)
        for k in range(n_ticks):
            tk = k * dt
            x = amp * np.sin(2 * np.pi * freq * tk + phase)
            v = amp * 2 * np.pi * freq * np.cos(2 * np.pi * freq * tk + phase)
            t.append(tk), tid.append(j), X.append(x), V.append(v)
            Y.append(np.atleast_1d(fn(x, v)))
    return (np.array(t), np.array(tid), np.array(X), np.array(V),
            np.array(Y))


def _dataset(fn, **kw):
    ticks = _ticks(fn, **kw)
    return materialize_ticks(Channel.ENVIRONMENT, 0.01, *ticks)


class TestLKV:
    def test_recovers_linear_law(self):
        ds = _dataset(lambda x, v: 5.0 * x + 0.3 * v)
        model = fit_lkv(ds)
        assert np.allclose(model.K, [[5.0]], atol=1e-8)
        assert np.allclose(model.C, [[0.3]], atol=1e-8)

    def test_recovers_multidim_matrices(self):
        K = np.array([[2.0, -1.0], [0.5, 3.0]])
        C = np.array([[0.1, 0.0], [0.2, -0.4]])
        ds = _dataset(lambda x, v: K @ x + C @ v, n=2)
        model = fit_lkv(ds)
        assert np.allclose(model.K, K, atol=1e-8)
        assert np.allclose(model.C, C, atol=1e-8)

    def test_zero_output_gives_zero_model(self):
        ds = _dataset(lambda x, v: 0.0 * x)
        model = fit_lkv(ds)
        assert np.allclose(model.K, 0.0, atol=1e-12)
        assert np.allclose(model.C, 0.0, atol=1e-12)
        pred, _ = model.predict_batch(ds.x, ds.v)
        assert np.allclose(pred, 0.0, atol=1e-12)

    def test_predict_matches_matrix_algebra(self):
        model = LKVModel(K=[[2.0, 1.0]], C=[[0.5, -0.5]])
        y, degen = model.predict_batch([[1.0, 2.0]], [[4.0, 2.0]])
        # 2*1 + 1*2 + 0.5*4 - 0.5*2 = 5.0
        assert np.allclose(y, [[5.0]]) and not degen.any()

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            LKVModel(K=[[1.0, 2.0]], C=[[1.0]])
        model = LKVModel(K=[[1.0]], C=[[1.0]])
        with pytest.raises(ShapeError):
            model.predict_batch(np.zeros((3, 2)), np.zeros((3, 2)))

    def test_too_few_samples(self):
        ds = _dataset(lambda x, v: x, n_trials=1, n_ticks=2)
        with pytest.raises(TrainingError):
            fit_lkv(ds)

    def test_cubic_spring_defeats_lkv(self):
        """A cubic stiffness law leaves LKV with large structured residual
        while the polynomial fuzzy model tracks it closely."""
        ds = _dataset(lambda x, v: 4.0 * x ** 3 + 0.2 * v, n_trials=8)
        lkv = fit_lkv(ds)
        pred_l, _ = lkv.predict_batch(ds.x, ds.v)
        pfmb, _ = fit_pfmb(ds, TrainConfig(degree=1, force_p=6))
        pred_p, _ = pfmb.predict_batch(ds.x, ds.v, ds.v_next)
        err_l = np.sqrt(np.mean((pred_l - ds.y) ** 2))
        err_p = np.sqrt(np.mean((pred_p - ds.y) ** 2))
        assert err_p < 0.25 * err_l


class TestFuzzyBaselines:
    def test_tsfmb_equals_degree0_delta0_training(self):
        ds = _dataset(lambda x, v: 3.0 * x + 2.0 * v)
        cfg = TrainConfig(degree=1, delta=0.2, force_p=4)
        m1, _ = fit_tsfmb(ds, cfg)
        m2, _ = train(ds, TrainConfig(degree=0, delta=0.0, force_p=4))
        p1, _ = m1.predict_batch(ds.x, ds.v, ds.v_next)
        p2, _ = m2.predict_batch(ds.x, ds.v, ds.v_next)
        assert np.max(np.abs(p1 - p2)) <= 1e-12

    def test_pfmb_equals_delta0_training(self):
        ds = _dataset(lambda x, v: 3.0 * x + 2.0 * v)
        cfg = TrainConfig(degree=1, delta=0.2, force_p=4)
        m1, _ = fit_pfmb(ds, cfg)
        m2, _ = train(ds, TrainConfig(degree=1, delta=0.0, force_p=4))
        p1, _ = m1.predict_batch(ds.x, ds.v, ds.v_next)
        p2, _ = m2.predict_batch(ds.x, ds.v, ds.v_next)
        assert np.max(np.abs(p1 - p2)) <= 1e-12

    def test_tsfmb_consequents_are_constant(self):
        ds = _dataset(lambda x, v: 3.0 * x + 2.0 * v)
        model, _ = fit_tsfmb(ds, TrainConfig(force_p=4))
        assert all(cons.degree == 0 for _, cons in model.rules)
        assert all(np.all(prem.deltas == 0.0) for prem, _ in model.rules)

    def test_pfmb_keeps_polynomial_consequents(self):
        ds = _dataset(lambda x, v: 3.0 * x + 2.0 * v)
        model, _ = fit_pfmb(ds, TrainConfig(degree=0, force_p=4))
        # degree is promoted to at least 1 for the polynomial baseline
        assert all(cons.degree >= 1 for _, cons in model.rules)
        assert all(np.all(prem.deltas == 0.0) for prem, _ in model.rules)
