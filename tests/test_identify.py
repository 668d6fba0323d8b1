"""Model identification: regressors, robust rule fits, the train pipeline."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from it2pf import identify
from it2pf.bench import Split, split_trials
from it2pf.core import (
    Channel,
    Dataset,
    Normalization,
    ParameterError,
    TrainingError,
    basis_size,
    consequent_basis,
    materialize_ticks,
)
from it2pf.envsim import PressProtocol, default_env, generate_benchmark
from it2pf.identify import (
    TrainConfig,
    _column_scaled,
    _weighted_lstsq,
    cluster_rules,
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
        R = regressor_matrix(np.zeros((1, 3)), np.array([[2.0]]),
                             np.array([[3.0]]), np.array([[3.5]]), 0.5, 0)
        # [(v_next - v)/dt, v, x, 1]
        assert np.allclose(R, [[1.0, 3.0, 2.0, 1.0]])

    def test_degree1_row_length(self):
        R = regressor_matrix(np.zeros((1, 3)), *np.ones((3, 1, 1)), 0.01, 1)
        assert R.shape == (1, 16)

    def test_matrix_matches_rows(self):
        rng = np.random.default_rng(2)
        Z = rng.normal(size=(15, 3))
        X, V, VN = rng.normal(size=(3, 15, 1))
        R = regressor_matrix(Z, X, V, VN, 0.01, 1)
        for k in range(15):
            row = regressor_matrix(Z[k:k + 1], X[k:k + 1], V[k:k + 1],
                                   VN[k:k + 1], 0.01, 1)
            assert np.allclose(R[k:k + 1], row, atol=0)


class TestRobustFit:
    def test_noiseless_linear_recovery(self):
        # y = 3x + 2v, degree 0, uniform weights -> exact OLS recovery
        ds = _linear_dataset(3.0, 2.0)
        cfg = TrainConfig(degree=0, delta=0.0)
        cons, rep = robust_fit_rule(ds, np.ones(ds.n_samples), cfg)
        M, C, K, f = cons.beta[:, 0]  # at degree 0 beta is [M, C, K, f]
        assert K == pytest.approx(3.0, rel=1e-6)
        assert C == pytest.approx(2.0, rel=1e-6)
        assert abs(M) < 1e-6
        assert abs(f) < 1e-6

    def test_huber_matches_ols_without_outliers(self):
        ds = _linear_dataset(1.5, -0.5, noise=0.01, seed=3)
        cfg = TrainConfig(degree=0, delta=0.0)
        w = np.ones(ds.n_samples)
        cons_h, _ = robust_fit_rule(ds, w, cfg)
        cons_inf, _ = robust_fit_rule(ds, w, replace(cfg, huber_k=np.inf))
        # the infinite-threshold limit IS weighted OLS
        R = regressor_matrix(ds.feature_matrix(), ds.x, ds.v, ds.v_next,
                             ds.dt, 0)
        theta_ols, *_ = np.linalg.lstsq(R, ds.y[:, 0], rcond=None)
        # at degree 0 beta is theta, [M, C, K, f]
        assert np.allclose(cons_inf.beta[:, 0], theta_ols, atol=1e-9)
        # finite threshold on mildly noisy clean data stays close to OLS
        assert np.allclose(cons_h.beta[:, 0], theta_ols, atol=1e-2)

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
        cons_ols, _ = robust_fit_rule(ds, w, replace(cfg, huber_k=np.inf))
        truth = np.array([0.0, 1.0, 2.0, 0.0])  # [M, C, K, f], beta at degree 0
        err_h = np.linalg.norm(cons_h.beta[:, 0] - truth)
        err_ols = np.linalg.norm(cons_ols.beta[:, 0] - truth)
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
        _, C, K, _ = model.rules[0][1].beta[:, 0]  # [M, C, K, f] at degree 0
        assert K == pytest.approx(4.0, rel=1e-6)
        assert C == pytest.approx(-1.5, rel=1e-6)

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
        from it2pf.pegsim import PegRunConfig, record_demonstrations
        peg = PegRunConfig()
        mt, _ = record_demonstrations(peg.world, peg.n_demos, seed=0)
        model, report = train(mt, peg.train_config(TrainConfig()))
        _, degen = model.predict_batch(mt.x, mt.v, mt.v_next)
        assert (model.p, report.dropped_rules) == (25, 5)
        assert mt.n_samples == 7095
        assert report.degenerate_samples == int(degen.sum()) == 15


# ---------------------------------------------------------------------------
# The guarded Gram step
# ---------------------------------------------------------------------------

def _random_rows(rng, n, N=300):
    """(Zn, X, V, VN): raw-scale random features and their normalized z."""
    mean, scale = rng.normal(size=3 * n), rng.uniform(0.1, 3.0, size=3 * n)
    raw = rng.normal(size=(N, 3 * n)) * scale + mean
    return (Normalization(mean, scale).apply(raw),
            *np.split(raw, 3, axis=1))


def _random_dataset(seed=0, constant_x=False):
    """Independent random x, v, v_next (x constant on request: a
    rank-deficient Gram basis) and a nonlinear response with heavy-tailed
    noise, so that IRLS reweights for several steps."""
    rng = np.random.default_rng(seed)
    x, v, vn = rng.normal(size=(3, 400, 1))
    if constant_x:
        x = np.full_like(x, 0.5)
    y = 2.0 * v + np.sin(3 * vn) + x * v + 0.1 * rng.standard_t(2, v.shape)
    return Dataset(Channel.ENVIRONMENT, 0.01, x, v, vn, y)


def _rule_fit_args(ds, cfg):
    norm, _ = cluster_rules(ds, cfg)
    Zn = norm.apply(ds.feature_matrix())
    return norm, consequent_basis(Zn, ds.x, ds.v, ds.v_next, ds.dt,
                                  cfg.degree)


def _same_model(a, b):
    """Whether two fuzzy models hold bit-identical parameters."""
    return all(np.array_equal(getattr(a, k), getattr(b, k)) for k in
               ("_theta", "_centers", "_var_lower", "_var_upper")) and \
        np.array_equal(a.norm.mean, b.norm.mean) and \
        np.array_equal(a.norm.scale, b.norm.scale)


@pytest.fixture(scope="module")
def press_split():
    """Criterion 1's 10% training split, split seed 0."""
    ds = generate_benchmark(default_env(), PressProtocol())
    return split_trials(ds, Split(0.10, 0))


class TestTrainConfig:
    @pytest.mark.parametrize("field,value", [
        ("irls_max_iter", -3), ("fcm_max_iter", -1),
        ("max_cluster_points", 0), ("width_floor", 0.0),
        ("width_floor", -1.0), ("width_scale", 0.0), ("epsilon_floor", 0.0),
        ("force_p", 0)])
    def test_bad_value_is_rejected_when_built(self, field, value):
        with pytest.raises(ParameterError):
            TrainConfig(**{field: value})

    def test_smallest_good_values_are_accepted(self):
        TrainConfig(irls_max_iter=0, fcm_max_iter=0, max_cluster_points=1,
                    force_p=1)


class TestGramStep:
    @given(st.integers(1, 2), st.integers(1, 2), st.integers(1, 2),
           st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_fits_the_values_of_raw_lstsq(self, degree, n, m, seed):
        # beta on Phi fits what the minimum-norm raw theta fits
        rng = np.random.default_rng(seed)
        rows = (*_random_rows(rng, n), 0.01, degree)
        phi, R = consequent_basis(*rows), regressor_matrix(*rows)
        assert phi.shape[1] < R.shape[1]
        w = rng.uniform(0.01, 1.0, size=R.shape[0])
        sw = np.sqrt(w)
        for y in rng.normal(size=(m, R.shape[0])):
            beta, _, svd, _ = _weighted_lstsq(phi, y, w, _column_scaled(phi))
            ref = R @ np.linalg.lstsq(R * sw[:, None], y * sw, rcond=None)[0]
            assert not svd
            assert np.linalg.norm(phi @ beta - ref) <= \
                1e-9 * np.linalg.norm(ref)

    def test_degree0_basis_is_the_column_scaled_regressor(self):
        # the degree-0 Gram step is the one that scales the raw regressor
        # [a, v, x, 1] column by column and maps back by diag(1 / scale)
        rng = np.random.default_rng(0)
        rows = (*_random_rows(rng, 1), 0.01, 0)
        phi, R = consequent_basis(*rows), regressor_matrix(*rows)
        assert np.array_equal(phi, R)
        y, w = rng.normal(size=R.shape[0]), rng.uniform(0.01, 1.0, R.shape[0])
        scale = np.linalg.norm(R, axis=0)
        L = np.linalg.cholesky(((R / scale) * w[:, None]).T @ (R / scale))
        ref = np.diag(1.0 / scale) @ np.linalg.solve(
            L.T, np.linalg.solve(L, (R / scale).T @ (w * y)))
        beta, _, svd, _ = _weighted_lstsq(phi, y, w, _column_scaled(phi))
        assert not svd and np.array_equal(beta, ref)

    @given(st.integers(1, 2), st.integers(1, 2), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_degree0_step_equals_lstsq(self, n, m, seed):
        rng = np.random.default_rng(seed)
        phi = consequent_basis(*_random_rows(rng, n), 0.01, 0)
        w = rng.uniform(0.01, 1.0, size=phi.shape[0])
        sw = np.sqrt(w)
        for y in rng.normal(size=(m, phi.shape[0])):
            beta, cond, svd, _ = _weighted_lstsq(phi, y, w,
                                                 _column_scaled(phi))
            ref = np.linalg.lstsq(phi * sw[:, None], y * sw, rcond=None)[0]
            assert not svd and cond ** 2 <= identify._GRAM_COND_MAX
            assert np.linalg.norm(beta - ref) <= \
                1e-9 * np.linalg.norm(ref)

    def test_rank_deficient_basis_takes_the_svd_step_bit_for_bit(self):
        ds = _random_dataset(constant_x=True)
        cfg = TrainConfig(degree=1, delta=0.1)
        norm, phi = _rule_fit_args(ds, cfg)
        w = np.random.default_rng(1).uniform(0.2, 1.0, ds.n_samples)
        _, rep = robust_fit_rule(ds, w, cfg, norm, phi)
        assert rep["svd_steps"] == rep["rule_iterations"] + 1
        assert rep["rank_fallback"]

    def test_constant_z_column_fit_reports_svd_steps(self):
        model, rep = train(_random_dataset(constant_x=True),
                           TrainConfig(degree=1, delta=0.1, force_p=2))
        assert len(rep.svd_steps) == model.p
        assert all(s > 0 for s in rep.svd_steps)
        assert all(rep.rank_fallback)

    def test_objective_rise_is_retried_by_svd(self, monkeypatch):
        # Gram steps after the first are spoiled, so each raises the Huber
        # objective; the SVD retry must still carry IRLS to convergence
        ds = _random_dataset()
        cfg = TrainConfig(degree=1, delta=0.0)
        norm, phi = _rule_fit_args(ds, cfg)
        w = np.ones(ds.n_samples)
        cons_ref, rep_ref = robust_fit_rule(ds, w, cfg, norm, phi)
        real, calls = identify._weighted_lstsq, []

        def spoiled(phi, target, u, scaled=None):
            beta, cond, svd, short = real(phi, target, u, scaled)
            calls.append(scaled is not None)
            if scaled is not None and len(calls) > 1:
                beta = 1.5 * beta
            return beta, cond, svd, short

        monkeypatch.setattr(identify, "_weighted_lstsq", spoiled)
        cons, rep = robust_fit_rule(ds, w, cfg, norm, phi)
        assert rep_ref["rule_iterations"] > 1 and rep_ref["svd_steps"] == 0
        assert rep["svd_steps"] == rep["rule_iterations"] > 1
        assert not rep["rank_fallback"]
        assert np.allclose(cons.beta, cons_ref.beta, rtol=1e-6, atol=1e-9)

    def test_svd_steps_count_every_lstsq_call(self, monkeypatch):
        # x within 1e-3 of v: the Gram guard sends full-rank steps to SVD,
        # which svd_steps counts and rank_fallback does not flag
        rng = np.random.default_rng(0)
        x, v, vn = rng.normal(size=(3, 400, 1))
        x = v + 1e-3 * rng.normal(size=v.shape)
        y = 2.0 * v + np.sin(3 * vn) + x * v + 0.1 * rng.standard_t(2, v.shape)
        ds = Dataset(Channel.ENVIRONMENT, 0.01, x, v, vn, y)
        real, calls = np.linalg.lstsq, []

        def counted(*args, **kw):
            calls.append(None)
            return real(*args, **kw)

        monkeypatch.setattr(np.linalg, "lstsq", counted)
        _, rep = train(ds, TrainConfig(degree=0, delta=0.1, force_p=3))
        assert sum(rep.svd_steps) == len(calls) > 0
        assert not any(rep.rank_fallback)

    def test_pressing_fit_takes_no_svd_step(self, press_split):
        tr, _ = press_split
        model, rep = train(tr, TrainConfig(degree=1, delta=0.2))
        assert len(rep.svd_steps) == model.p > 1
        assert sum(rep.svd_steps) == 0
        # so rank_fallback flags only rules with under 2 samples per
        # coefficient (100 at degree 1)
        assert rep.rank_fallback == [e < 200
                                     for e in rep.rule_effective_weights]
        assert not any(rep.irls_capped)


class TestFitReport:
    def test_irls_cap_is_reported(self):
        ds = _linear_dataset(1.0, 0.5, noise=0.05, seed=2)
        cfg = TrainConfig(degree=1, delta=0.2, force_p=2)
        _, rep = train(ds, cfg)
        assert rep.irls_capped == [False, False]
        _, rep = train(ds, replace(cfg, irls_max_iter=1))
        assert rep.irls_capped == [True, True]
        assert rep.rule_iterations == [1, 1]

    def test_fcm_convergence_is_reported(self, press_split):
        # FCM stops at its cap on the 10 % pressing fit, and meets its
        # tolerance on two well separated clusters
        tr, _ = press_split
        _, rep = train(tr, TrainConfig(degree=0, delta=0.2))
        assert (rep.fcm_iterations, rep.fcm_converged) == (200, False)
        ds = _linear_dataset(1.0, 0.5, noise=0.05, seed=2)
        _, rep = train(ds, TrainConfig(degree=1, delta=0.2, force_p=2))
        assert 1 < rep.fcm_iterations < 200 and rep.fcm_converged

    def test_train_builds_no_paper_form_regressor(self, monkeypatch):
        from it2pf import core
        real, calls = core.regressor_matrix, []

        def counted(*args):
            calls.append(None)
            return real(*args)

        for module in (core, identify):
            monkeypatch.setattr(module, "regressor_matrix", counted)
        ds = _linear_dataset(1.0, 0.5, noise=0.05, seed=2)
        for degree in (0, 1, 2):
            model, _ = train(ds, TrainConfig(degree=degree, force_p=1))
            assert model._theta.shape == (basis_size(3, degree + 1), 1)
        assert calls == []

    def test_clusters_can_be_passed_in(self):
        ds = _linear_dataset(1.0, 0.5, noise=0.05, seed=2)
        cfg = TrainConfig(degree=1, delta=0.2, force_p=2)
        shared = cluster_rules(ds, replace(cfg, degree=0, delta=0.0))
        m1, _ = train(ds, cfg)
        m2, _ = train(ds, cfg, shared)
        assert _same_model(m1, m2)


def _top_up_reference(points_std, hyper, config):
    """_initial_centers with the farthest-point top-up that recomputes the
    distances to every chosen center for each center it adds."""
    sub = identify._subsample_indices(points_std.shape[0],
                                      config.max_cluster_points)
    idx = list(sub[identify.subtractive_cluster(hyper[sub],
                                                config.subtractive)])
    while len(idx) < config.force_p:
        chosen = points_std[idx]
        d = np.min(np.sum((points_std[:, None, :] - chosen[None]) ** 2,
                          axis=2), axis=1)
        idx.append(int(np.argmax(d)))
    return np.array(idx[:config.force_p])


class TestInitialCenters:
    @pytest.mark.parametrize("seed", range(4))
    def test_top_up_matches_the_full_recomputation(self, seed):
        from it2pf.clustering import SubtractiveParams
        rng = np.random.default_rng(seed)
        points = rng.standard_normal((600, 5)) * rng.uniform(0.2, 3.0, 5)
        lo = points.min(axis=0)
        hyper = (points - lo) / (points.max(axis=0) - lo)
        cfg = TrainConfig(subtractive=SubtractiveParams(r_a=0.9),
                          max_cluster_points=400, force_p=25)
        idx, p = identify._initial_centers(points, hyper, cfg)
        ref = _top_up_reference(points, hyper, cfg)
        assert p == 25 and len(set(idx)) == 25
        assert np.array_equal(idx, ref)
        # subtractive alone picks few of the 25
        sub_only, _ = identify._initial_centers(
            points, hyper, replace(cfg, force_p=None))
        assert len(sub_only) < 10

    def test_cut_keeps_subtractive_order(self):
        rng = np.random.default_rng(7)
        points = rng.uniform(size=(300, 2))
        cfg = TrainConfig()
        every, p = identify._initial_centers(points, points, cfg)
        cut, q = identify._initial_centers(points, points,
                                           replace(cfg, force_p=2))
        assert p > 2 and q == 2 and np.array_equal(cut, every[:2])
