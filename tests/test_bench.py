"""Metrics, whole-trial splits, benchmark runner, learning curves."""

import numpy as np
import pytest

from it2pf import bench, identify
from it2pf.core import (Channel, ParameterError, ShapeError, TrainingError,
                        materialize_ticks)
from it2pf.baselines import fit_lkv, fit_pfmb, fit_tsfmb
from it2pf.bench import (
    MODEL_NAMES,
    Split,
    learning_curve,
    mae,
    per_trial_metrics,
    rmse,
    run_benchmark,
    split_trials,
)
from it2pf.envsim import PressProtocol, default_env, generate_benchmark
from it2pf.identify import TrainConfig, train


def _linear_dataset(n_trials=10, n_ticks=30, seed=0):
    rng = np.random.default_rng(seed)
    t, tid, X, V, Y = [], [], [], [], []
    for j in range(n_trials):
        amp = rng.uniform(0.5, 1.5)
        phase = rng.uniform(0, np.pi)
        for k in range(n_ticks):
            tk = k * 0.01
            x = amp * np.sin(2 * np.pi * tk + phase)
            v = amp * 2 * np.pi * np.cos(2 * np.pi * tk + phase)
            t.append(tk), tid.append(j)
            X.append([x]), V.append([v]), Y.append([3.0 * x + 2.0 * v])
    return materialize_ticks(Channel.ENVIRONMENT, 0.01, np.array(t),
                             np.array(tid), np.array(X), np.array(V),
                             np.array(Y))


class TestMetrics:
    def test_rmse_mae_scalar_oracle(self):
        # error norms 3 and 4: rmse = sqrt(12.5), mae = 3.5
        pred = np.array([[3.0], [4.0]])
        true = np.zeros((2, 1))
        assert np.isclose(rmse(pred, true), np.sqrt(12.5), rtol=1e-15)
        assert np.isclose(mae(pred, true), 3.5, rtol=1e-15)

    def test_vector_error_uses_euclidean_norm(self):
        pred = np.array([[3.0, 4.0]])
        true = np.zeros((1, 2))
        assert np.isclose(rmse(pred, true), 5.0, rtol=1e-15)
        assert np.isclose(mae(pred, true), 5.0, rtol=1e-15)

    def test_perfect_prediction_is_zero(self):
        y = np.random.default_rng(0).normal(size=(50, 2))
        assert rmse(y, y) == 0.0
        assert mae(y, y) == 0.0

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            rmse(np.zeros((3, 2)), np.zeros((4, 2)))

    def test_one_dimensional_pair_treated_as_vector_sample(self):
        # two flat length-2 arrays are one 2-vector tick, not two scalars
        assert np.isclose(rmse([3.0, 4.0], [0.0, 0.0]), 5.0)


class TestSplit:
    def test_default_split_is_15_train_135_test(self):
        ds = _linear_dataset(n_trials=150, n_ticks=5)
        tr, te = split_trials(ds, Split(0.10, seed=0))
        assert tr.trials().shape[0] == 15
        assert te.trials().shape[0] == 135

    def test_partition_is_disjoint_and_whole_trial(self):
        ds = _linear_dataset(n_trials=20, n_ticks=5)
        tr, te = split_trials(ds, Split(0.25, seed=3))
        tr_ids = set(tr.trials().tolist())
        te_ids = set(te.trials().tolist())
        assert tr_ids.isdisjoint(te_ids)
        assert tr_ids | te_ids == set(range(20))
        assert tr.n_samples + te.n_samples == ds.n_samples

    def test_extreme_fractions_keep_one_trial_each_side(self):
        ds = _linear_dataset(n_trials=4, n_ticks=5)
        tr, te = split_trials(ds, Split(0.001, seed=0))
        assert tr.trials().shape[0] == 1
        tr, te = split_trials(ds, Split(0.999, seed=0))
        assert te.trials().shape[0] == 1

    def test_single_trial_cannot_split(self):
        ds = _linear_dataset(n_trials=1, n_ticks=5)
        with pytest.raises(ParameterError):
            split_trials(ds, Split(0.5, seed=0))

    def test_fraction_validation(self):
        with pytest.raises(ParameterError):
            Split(0.0)
        with pytest.raises(ParameterError):
            Split(1.0)

    def test_seed_controls_partition(self):
        ds = _linear_dataset(n_trials=30, n_ticks=5)
        tr_a, _ = split_trials(ds, Split(0.3, seed=1))
        tr_b, _ = split_trials(ds, Split(0.3, seed=1))
        tr_c, _ = split_trials(ds, Split(0.3, seed=2))
        assert np.array_equal(tr_a.trials(), tr_b.trials())
        assert not np.array_equal(tr_a.trials(), tr_c.trials())


class TestBenchmarkRunner:
    def test_srmse_single_trial_equals_rmse(self):
        ds = _linear_dataset(n_trials=2, n_ticks=20)
        tr, te = split_trials(ds, Split(0.5, seed=0))
        pred, _ = fit_lkv(tr).predict_batch(te.x, te.v)
        rows = per_trial_metrics(pred, te)
        assert len(rows) == 1
        assert np.isclose(rows[0][1], rmse(pred, te.y), rtol=1e-15)

    def test_srmse_sums_per_trial_values(self):
        ds = _linear_dataset(n_trials=8, n_ticks=20)
        report = run_benchmark(ds, ["lkv"], Split(0.25), seeds=[0])
        rows = [r for r in report.rows if r["seed"] == 0]
        assert np.isclose(report.srmse("lkv", 0),
                          sum(r["rmse"] for r in rows), rtol=1e-12)
        assert np.isclose(report.smae("lkv", 0),
                          sum(r["mae"] for r in rows), rtol=1e-12)

    def test_duplicate_models_score_identically(self):
        ds = _linear_dataset(n_trials=8, n_ticks=20)
        report = run_benchmark(ds, ["lkv", "lkv"], Split(0.25), seeds=[0])
        a, b = report.aggregates
        assert a["srmse"] == b["srmse"] and a["smae"] == b["smae"]

    def test_lkv_is_exact_on_linear_data(self):
        ds = _linear_dataset(n_trials=8, n_ticks=20)
        report = run_benchmark(ds, ["lkv"], Split(0.25), seeds=[0, 1])
        for a in report.aggregates:
            assert a["srmse"] < 1e-8

    def test_unknown_model_name_recorded_as_failure(self):
        ds = _linear_dataset(n_trials=4, n_ticks=10)
        report = run_benchmark(ds, ["nope"], Split(0.5), seeds=[0])
        assert report.failures and report.failures[0]["model"] == "nope"
        assert not report.aggregates

    def test_empty_model_list(self):
        ds = _linear_dataset(n_trials=4, n_ticks=10)
        with pytest.raises(ParameterError):
            run_benchmark(ds, [], Split(0.5), seeds=[0])

    def test_training_failure_is_recorded_not_raised(self):
        ds = _linear_dataset(n_trials=2, n_ticks=2)
        report = run_benchmark(ds, ["lkv"], Split(0.5), seeds=[0])
        assert report.failures and report.failures[0]["model"] == "lkv"
        assert not report.aggregates

    def test_each_scored_cell_is_one_per_trial_metrics_call(
            self, monkeypatch):
        ds = _linear_dataset(n_trials=8, n_ticks=20)
        real, calls = bench.per_trial_metrics, []

        def counted(pred, test_set):
            calls.append(None)
            return real(pred, test_set)

        monkeypatch.setattr(bench, "per_trial_metrics", counted)
        report = run_benchmark(ds, ["lkv", "nope", "lkv"], Split(0.25),
                               seeds=[0, 1, 2])
        assert len(calls) == len(report.aggregates) == 6
        assert len(report.failures) == 3
        curve = learning_curve(ds, "lkv", [0.25, 0.5], n_seeds=2)
        assert len(calls) == 6 + len(curve["cells"]) == 10

    def test_per_trial_metrics_keep_each_trials_row_order(self):
        ds = _linear_dataset(n_trials=6, n_ticks=12)
        # interleaved trials: rows of one trial are not contiguous
        shuffled = ds.subset(np.random.default_rng(3).permutation(
            ds.n_samples))
        pred = shuffled.y + np.random.default_rng(4).normal(
            size=shuffled.y.shape)
        rows = per_trial_metrics(pred, shuffled)
        assert [r[0] for r in rows] == list(range(6))
        for tid, r, a in rows:
            mask = shuffled.trial_id == tid
            assert r == rmse(pred[mask], shuffled.y[mask])
            assert a == mae(pred[mask], shuffled.y[mask])


def _press_dataset():
    """A small pressing benchmark: 12 trials of 210 samples."""
    return generate_benchmark(default_env(), PressProtocol(
        trials_per_level=4, grid=((0.04, 0.04), (0.16, 0.16))))


class TestSharedClusters:
    FUZZY = ("it2pfml", "pfmb", "tsfmb")

    def test_benchmark_models_equal_standalone_fits(self, monkeypatch):
        ds = _press_dataset()
        cfg = TrainConfig(degree=1, delta=0.2, force_p=3)
        fitted, fcm_calls = [], []
        real_fit, real_fcm = bench.fit_named_model, identify.fcm_refine

        def fit(name, train_set, config, clusters=None):
            model, report = real_fit(name, train_set, config, clusters)
            fitted.append((name, model))
            return model, report

        def fcm(*args):
            fcm_calls.append(None)
            return real_fcm(*args)

        monkeypatch.setattr(bench, "fit_named_model", fit)
        monkeypatch.setattr(identify, "fcm_refine", fcm)
        report = run_benchmark(ds, MODEL_NAMES, Split(0.5), [0, 1], cfg)
        monkeypatch.undo()
        assert not report.failures and len(fcm_calls) == 2
        standalone = {"it2pfml": train, "pfmb": fit_pfmb, "tsfmb": fit_tsfmb}
        for k, (name, model) in enumerate(fitted):
            if name == "lkv":
                continue
            tr, _ = split_trials(ds, Split(0.5, k // 4))
            ref, _ = standalone[name](tr, cfg)
            assert all(np.array_equal(getattr(model, a), getattr(ref, a))
                       for a in ("_theta", "_centers", "_var_lower",
                                 "_var_upper")), name
            assert np.array_equal(model.norm.mean, ref.norm.mean)
            assert np.array_equal(model.norm.scale, ref.norm.scale)

    def test_clustering_error_fails_each_fuzzy_model(self, monkeypatch):
        def broken(*args):
            raise TrainingError("FCM objective increased; numerical fault")

        monkeypatch.setattr(identify, "fcm_refine", broken)
        report = run_benchmark(_press_dataset(), MODEL_NAMES, Split(0.5), [0],
                               TrainConfig(degree=1, force_p=3))
        assert [f["model"] for f in report.failures] == list(self.FUZZY)
        assert all("numerical fault" in f["error"] for f in report.failures)
        assert [a["model"] for a in report.aggregates] == ["lkv"]


class TestLearningCurve:
    def test_flat_curve_on_linear_data(self):
        ds = _linear_dataset(n_trials=20, n_ticks=20)
        curve = learning_curve(ds, "lkv", fractions=[0.1, 0.25, 0.5],
                               n_seeds=3)
        for row in curve["summary"]:
            assert row["n_ok"] == 3
            assert row["median_rmse"] < 1e-6

    def test_fractions_must_ascend(self):
        ds = _linear_dataset(n_trials=10, n_ticks=10)
        with pytest.raises(ParameterError):
            learning_curve(ds, "lkv", fractions=[0.5, 0.1], n_seeds=1)

    def test_cells_are_the_benchmark_cells_from_seed_base(self):
        ds = _linear_dataset(n_trials=10, n_ticks=10)
        curve = learning_curve(ds, "lkv", fractions=[0.3], n_seeds=2,
                               seed_base=5)
        report = run_benchmark(ds, ["lkv"], Split(0.3), seeds=[5, 6])
        assert [(c["seed"], c["rmse"]) for c in curve["cells"]] == \
            [(a["seed"], a["pooled_rmse"]) for a in report.aggregates]

    def test_failed_cells_marked_missing(self):
        ds = _linear_dataset(n_trials=10, n_ticks=2)
        curve = learning_curve(ds, "lkv", fractions=[0.1], n_seeds=2)
        assert curve["summary"][0]["n_ok"] == 0
        assert np.isnan(curve["summary"][0]["median_rmse"])
        assert all(c["error"] for c in curve["cells"])
