"""Model identification: regressors, robust rule fits, the train pipeline."""

import numpy as np
import pytest

from it2pf.core import (
    Channel,
    Dataset,
    Normalization,
    TrainingError,
    eval_consequent,
    materialize_ticks,
)
from it2pf.identify import (
    TrainConfig,
    assemble_regressor,
    config_with,
    huber_objective,
    regressor_matrix,
    robust_fit_rule,
    train,
)


def _linear_ticks(K, C, n_trials=6, n_ticks=40, dt=0.01, seed=0, noise=0.0,
                  n=1):
    """Ticks from y = K x + C v with smooth per-trial trajectories."""
    rng = np.random.default_rng(seed)
    K = np.atleast_2d(K)
    C = np.atleast_2d(C)
    t, tid, X, V, Y = [], [], [], [], []
    for j in range(n_trials):
        amp = rng.uniform(0.5, 1.5, size=n)
        phase = rng.uniform(0, np.pi, size=n)
        freq = rng.uniform(0.5, 2.0, size=n)
        for k in range(n_ticks):
            tk = k * dt
            x = amp * np.sin(2 * np.pi * freq * tk + phase)
            v = amp * 2 * np.pi * freq * np.cos(2 * np.pi * freq * tk + phase)
            y = K @ x + C @ v + noise * rng.normal(size=K.shape[0])
            t.append(tk), tid.append(j), X.append(x), V.append(v), Y.append(y)
    return (np.array(t), np.array(tid), np.array(X), np.array(V),
            np.array(Y))


def _linear_dataset(K=3.0, C=2.0, **kw):
    ticks = _linear_ticks(K, C, **kw)
    return materialize_ticks(Channel.ENVIRONMENT, 0.01, *ticks)


class TestRegressor:
    def test_degree0_row_layout(self):
        row = assemble_regressor(np.zeros(3), x=[2.0], v=[3.0],
                                 v_next=[3.5], dt=0.5, degree=0)
        # [(v_next - v)/dt, v, x, 1]
        assert np.allclose(row, [1.0, 3.0, 2.0, 1.0])

    def test_degree1_row_length(self):
        row = assemble_regressor(np.zeros(3), [1.0], [1.0], [1.0], 0.01, 1)
        assert row.shape == (16,)

    def test_row_theta_duality(self):
        # row @ theta must reproduce eval_consequent for random coefficients
        rng = np.random.default_rng(11)
        n, m, degree = 2, 2, 2
        from it2pf.core import basis_size, PolynomialConsequent
        B = basis_size(3 * n, degree)
        cons = PolynomialConsequent(
            degree=degree,
            coeffs_M=rng.normal(size=(m, n, B)),
            coeffs_C=rng.normal(size=(m, n, B)),
            coeffs_K=rng.normal(size=(m, n, B)),
            coeffs_f=rng.normal(size=(m, B)))
        for _ in range(20):
            x, v, vn = rng.normal(size=(3, n))
            z = np.concatenate([x, v, vn])
            row = assemble_regressor(z, x, v, vn, 0.01, degree)
            direct = eval_consequent(cons, z, x, v, vn, 0.01)
            for i in range(m):
                theta = np.concatenate([cons.coeffs_M[i].ravel(),
                                        cons.coeffs_C[i].ravel(),
                                        cons.coeffs_K[i].ravel(),
                                        cons.coeffs_f[i]])
                assert row @ theta == pytest.approx(direct[i], rel=1e-12,
                                                    abs=1e-12)

    def test_matrix_matches_rows(self):
        rng = np.random.default_rng(2)
        Z = rng.normal(size=(15, 3))
        X, V, VN = rng.normal(size=(3, 15, 1))
        R = regressor_matrix(Z, X, V, VN, 0.01, 1)
        for k in range(15):
            row = assemble_regressor(Z[k], X[k], V[k], VN[k], 0.01, 1)
            assert np.allclose(R[k], row, atol=0)


class TestRobustFit:
    def test_noiseless_linear_recovery(self):
        # y = 3x + 2v, degree 0, uniform weights -> exact OLS recovery
        ds = _linear_dataset(3.0, 2.0)
        cfg = TrainConfig(degree=0, delta=0.0)
        cons, rep = robust_fit_rule(ds, np.ones(ds.n_samples), cfg)
        assert cons.coeffs_K[0, 0, 0] == pytest.approx(3.0, rel=1e-6)
        assert cons.coeffs_C[0, 0, 0] == pytest.approx(2.0, rel=1e-6)
        assert abs(cons.coeffs_M[0, 0, 0]) < 1e-6
        assert abs(cons.coeffs_f[0, 0]) < 1e-6

    def test_huber_matches_ols_without_outliers(self):
        ds = _linear_dataset(1.5, -0.5, noise=0.01, seed=3)
        cfg = TrainConfig(degree=0, delta=0.0)
        w = np.ones(ds.n_samples)
        cons_h, _ = robust_fit_rule(ds, w, cfg)
        cons_inf, _ = robust_fit_rule(ds, w, config_with(cfg,
                                                         huber_k=np.inf))
        # the infinite-threshold limit IS weighted OLS
        R = regressor_matrix(ds.feature_matrix(), ds.x, ds.v, ds.v_next,
                             ds.dt, 0)
        theta_ols, *_ = np.linalg.lstsq(R, ds.y[:, 0], rcond=None)
        theta_inf = np.concatenate([cons_inf.coeffs_M[0].ravel(),
                                    cons_inf.coeffs_C[0].ravel(),
                                    cons_inf.coeffs_K[0].ravel(),
                                    cons_inf.coeffs_f[0]])
        assert np.allclose(theta_inf, theta_ols, atol=1e-9)
        # finite threshold on mildly noisy clean data stays close to OLS
        theta_h = np.concatenate([cons_h.coeffs_M[0].ravel(),
                                  cons_h.coeffs_C[0].ravel(),
                                  cons_h.coeffs_K[0].ravel(),
                                  cons_h.coeffs_f[0]])
        assert np.allclose(theta_h, theta_ols, atol=1e-2)

    def test_huber_beats_ols_under_outliers(self):
        rng = np.random.default_rng(9)
        ticks = _linear_ticks(2.0, 1.0, n_trials=8, n_ticks=50, seed=5,
                              noise=0.01)
        t, tid, X, V, Y = ticks
        bad = rng.choice(Y.shape[0], size=Y.shape[0] // 10, replace=False)
        Y = Y.copy()
        Y[bad] += 100.0
        ds = materialize_ticks(Channel.ENVIRONMENT, 0.01, t, tid, X, V, Y)
        cfg = TrainConfig(degree=0, delta=0.0)
        w = np.ones(ds.n_samples)
        cons_h, _ = robust_fit_rule(ds, w, cfg)
        cons_ols, _ = robust_fit_rule(ds, w, config_with(cfg,
                                                         huber_k=np.inf))
        truth = np.array([0.0, 1.0, 2.0, 0.0])  # [M, C, K, f]
        def vec(c):
            return np.array([c.coeffs_M[0, 0, 0], c.coeffs_C[0, 0, 0],
                             c.coeffs_K[0, 0, 0], c.coeffs_f[0, 0]])
        err_h = np.linalg.norm(vec(cons_h) - truth)
        err_ols = np.linalg.norm(vec(cons_ols) - truth)
        assert err_h < err_ols

    def test_insufficient_effective_weight(self):
        ds = _linear_dataset(1.0, 1.0, n_trials=2, n_ticks=10)
        w = np.zeros(ds.n_samples)
        w[0] = 1.0
        with pytest.raises(TrainingError):
            robust_fit_rule(ds, w, TrainConfig(degree=1, delta=0.0))

    def test_huber_objective_quadratic_region(self):
        r = np.array([0.5, -0.3])
        w = np.ones(2)
        assert huber_objective(r, w, 1.0) == pytest.approx(
            0.5 * (0.25 + 0.09))
        # linear region beyond the threshold
        assert huber_objective(np.array([3.0]), np.ones(1), 1.0) == \
            pytest.approx(3.0 - 0.5)


class TestTrain:
    def test_forced_single_rule_linear(self):
        ds = _linear_dataset(3.0, 2.0)
        cfg = TrainConfig(degree=0, delta=0.0, force_p=1)
        model, rep = train(ds, cfg)
        assert model.p == 1
        pred, _ = model.predict_batch(ds.x, ds.v, ds.v_next)
        rmse = float(np.sqrt(np.mean((pred - ds.y) ** 2)))
        assert rmse < 1e-6

    def test_forced_single_rule_matches_ols_oracle(self):
        ds = _linear_dataset(4.0, -1.5, seed=7)
        model, _ = train(ds, TrainConfig(degree=0, delta=0.0, force_p=1))
        cons = model.rules[0][1]
        assert cons.coeffs_K[0, 0, 0] == pytest.approx(4.0, rel=1e-6)
        assert cons.coeffs_C[0, 0, 0] == pytest.approx(-1.5, rel=1e-6)

    def test_determinism(self):
        ds = _linear_dataset(1.0, 0.5, noise=0.05, seed=2)
        cfg = TrainConfig(degree=1, delta=0.2, force_p=2)
        m1, _ = train(ds, cfg)
        m2, _ = train(ds, cfg)
        rng = np.random.default_rng(0)
        X, V, VN = rng.normal(size=(3, 50, 1))
        p1, _ = m1.predict_batch(X, V, VN)
        p2, _ = m2.predict_batch(X, V, VN)
        assert np.array_equal(p1, p2)

    def test_too_few_samples(self):
        ds = _linear_dataset(1.0, 1.0, n_trials=1, n_ticks=3)
        with pytest.raises(TrainingError):
            train(ds, TrainConfig(degree=2, delta=0.1))

    def test_piecewise_linear_beats_single_lkv(self):
        # two stiffness regimes; a rule-based model should beat one
        # global linear fit on held-out data
        from it2pf.baselines import fit_lkv
        rng = np.random.default_rng(12)
        t, tid, X, V, Y = [], [], [], [], []
        for j in range(12):
            amp = rng.uniform(0.5, 1.5)
            for k in range(60):
                tk = k * 0.01
                x = amp * np.sin(4 * tk + j)
                v = amp * 4 * np.cos(4 * tk + j)
                kstiff = 5.0 if x > 0 else 1.0
                t.append(tk), tid.append(j)
                X.append([x]), V.append([v])
                Y.append([kstiff * x + 0.2 * v + 0.002 * rng.normal()])
        ds = materialize_ticks(Channel.ENVIRONMENT, 0.01,
                               np.array(t), np.array(tid), np.array(X),
                               np.array(V), np.array(Y))
        tr = ds.subset(np.where(ds.trial_id < 8)[0])
        te = ds.subset(np.where(ds.trial_id >= 8)[0])
        model, _ = train(tr, TrainConfig(degree=1, delta=0.1, force_p=4))
        lkv = fit_lkv(tr)
        pred_f, _ = model.predict_batch(te.x, te.v, te.v_next)
        pred_l, _ = lkv.predict_batch(te.x, te.v)
        rmse_f = np.sqrt(np.mean((pred_f - te.y) ** 2))
        rmse_l = np.sqrt(np.mean((pred_l - te.y) ** 2))
        assert rmse_f < rmse_l

    def test_degenerate_count_is_the_final_models(self):
        # the Robotic Partner motion model of acceptance criterion 6: weak
        # rules are dropped, and 15 training samples fall outside every
        # rule of the final 25-rule model
        from it2pf.clustering import SubtractiveParams
        from it2pf.pegsim import PegWorldConfig, record_demonstrations
        mt, _ = record_demonstrations(PegWorldConfig(), 5, seed=0)
        cfg = TrainConfig(degree=0, delta=0.1,
                          subtractive=SubtractiveParams(r_a=0.35),
                          max_cluster_points=1500, force_p=30)
        model, report = train(mt, cfg)
        _, degen = model.predict_batch(mt.x, mt.v, mt.v_next)
        assert (model.p, report.dropped_rules) == (25, 5)
        assert mt.n_samples == 7095
        assert report.degenerate_samples == int(degen.sum()) == 15
