"""Error metrics, whole-trial splitting, learning curves, and the
multi-model benchmark runner."""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .baselines import fit_lkv, fit_pfmb, fit_tsfmb
from .core import Dataset, FuzzyModelError, ParameterError, ShapeError
from .identify import TrainConfig, cluster_rules, train
from .seeds import substream


def _error_norms(pred, true):
    pred = np.atleast_2d(np.asarray(pred, dtype=float))
    true = np.atleast_2d(np.asarray(true, dtype=float))
    if pred.shape[0] == 1 and true.shape[0] > 1:
        pred = pred.T
    if true.shape[0] == 1 and pred.shape[0] > 1:
        true = true.T
    if pred.shape != true.shape:
        raise ShapeError(f"series shapes differ: {pred.shape} vs {true.shape}")
    if pred.shape[0] < 1:
        raise ShapeError("series must have length >= 1")
    return np.linalg.norm(pred - true, axis=1)


def rmse(pred, true) -> float:
    """Root mean square of per-tick Euclidean error norms."""
    e = _error_norms(pred, true)
    return float(np.sqrt(np.mean(e ** 2)))


def mae(pred, true) -> float:
    """Mean of per-tick Euclidean error norms."""
    return float(np.mean(_error_norms(pred, true)))


@dataclass(frozen=True)
class Split:
    """Whole-trial random train/test partition."""

    fraction: float = 0.10
    seed: int = 0

    def __post_init__(self):
        if not (0 < self.fraction < 1):
            raise ParameterError("fraction must lie in (0, 1)")


def split_trials(dataset: Dataset, split: Split):
    """Partition a dataset into train/test by whole trials."""
    trials = dataset.trials()
    if trials.shape[0] < 2:
        raise ParameterError("need at least 2 trials to split")
    rng = substream(split.seed, 101)
    perm = rng.permutation(trials.shape[0])
    n_train = int(round(split.fraction * trials.shape[0]))
    n_train = min(max(n_train, 1), trials.shape[0] - 1)
    train_ids = set(trials[perm[:n_train]].tolist())
    mask = np.array([tid in train_ids for tid in dataset.trial_id])
    return dataset.subset(mask), dataset.subset(~mask)


MODEL_NAMES = ("it2pfml", "pfmb", "tsfmb", "lkv")


def fit_named_model(name: str, train_set: Dataset, config: TrainConfig,
                    clusters=None):
    """Fit one model family (clusters: see train); returns (predictor,
    FitReport), the report None for lkv."""
    if name == "it2pfml":
        return train(train_set, config, clusters)
    if name == "pfmb":
        return fit_pfmb(train_set, config, clusters)
    if name == "tsfmb":
        return fit_tsfmb(train_set, config, clusters)
    if name == "lkv":
        return fit_lkv(train_set), None
    raise ParameterError(f"unknown model name {name!r}")


def per_trial_metrics(pred, test_set: Dataset):
    """(trial_id, rmse, mae) rows of the predictions pred over the test
    trials, sorted by id."""
    # a stable sort keeps each trial's rows in their original order
    order = np.argsort(test_set.trial_id, kind="stable")
    tids, starts = np.unique(test_set.trial_id[order], return_index=True)
    return [(int(tid), rmse(pred[rows], test_set.y[rows]),
             mae(pred[rows], test_set.y[rows]))
            for tid, rows in zip(tids, np.split(order, starts[1:]))]


@dataclass
class BenchmarkReport:
    rows: list = field(default_factory=list)        # per-trial rows
    aggregates: list = field(default_factory=list)  # per model x seed
    failures: list = field(default_factory=list)

    def _aggregate(self, model, seed):
        for a in self.aggregates:
            if a["model"] == model and a["seed"] == seed:
                return a
        raise KeyError((model, seed))

    def srmse(self, model, seed) -> float:
        return self._aggregate(model, seed)["srmse"]

    def smae(self, model, seed) -> float:
        return self._aggregate(model, seed)["smae"]


def run_benchmark(dataset: Dataset, models, split: Split, seeds,
                  config: TrainConfig = None) -> BenchmarkReport:
    """Train every model on identical whole-trial splits and score the
    held-out trials; SRMSE/SMAE are sums of per-trial metrics."""
    models = list(models)
    if not models:
        raise ParameterError("need at least one model")
    config = config or TrainConfig()
    report = BenchmarkReport()
    for seed in seeds:
        tr, te = split_trials(dataset, replace(split, seed=seed))
        clusters = None
        if {"it2pfml", "pfmb", "tsfmb"} & set(models):
            try:
                clusters = cluster_rules(tr, config)
            except FuzzyModelError:
                pass  # each fuzzy fit clusters again and records its error
        for name in models:
            try:
                model, _ = fit_named_model(name, tr, config, clusters)
                pred, _ = model.predict_batch(te.x, te.v, te.v_next)
                trial_rows = per_trial_metrics(pred, te)
            except FuzzyModelError as exc:
                report.failures.append(
                    {"model": name, "seed": seed, "error": str(exc)})
                continue
            for tid, r, a in trial_rows:
                report.rows.append({"model": name, "seed": seed,
                                    "fraction": split.fraction,
                                    "trial_id": tid, "rmse": r, "mae": a})
            report.aggregates.append({
                "model": name, "seed": seed, "fraction": split.fraction,
                "srmse": float(sum(r for _, r, _ in trial_rows)),
                "smae": float(sum(a for _, _, a in trial_rows)),
                "pooled_rmse": rmse(pred, te.y),
                "pooled_mae": mae(pred, te.y),
            })
    return report


def learning_curve(dataset: Dataset, model: str, fractions, n_seeds,
                   config: TrainConfig = None, seed_base: int = 0):
    """Test RMSE of one model (a MODEL_NAMES name) as a function of the
    training fraction: one run_benchmark per fraction over the split seeds
    seed_base, seed_base + 1, ...  Cells whose training fails are recorded
    as missing.  Returns a dict with per-cell rows and per-fraction
    median / interquartile range.
    """
    fractions = list(fractions)
    if any(b <= a for a, b in zip(fractions, fractions[1:])):
        raise ParameterError("fractions must be sorted ascending")
    seeds = range(seed_base, seed_base + n_seeds)
    cells = []
    for frac in fractions:
        report = run_benchmark(dataset, (model,), Split(frac), seeds, config)
        value = {a["seed"]: a["pooled_rmse"] for a in report.aggregates}
        error = {f["seed"]: f["error"] for f in report.failures}
        cells += [{"fraction": frac, "seed": seed,
                   "rmse": value.get(seed, float("nan")),
                   "error": error.get(seed, "")} for seed in seeds]
    summary = []
    for frac in fractions:
        vals = np.array([c["rmse"] for c in cells
                         if c["fraction"] == frac and np.isfinite(c["rmse"])])
        stats = [np.median(vals), np.percentile(vals, 25),
                 np.percentile(vals, 75)] if vals.size else [np.nan] * 3
        med, q25, q75 = map(float, stats)
        summary.append({"fraction": frac, "median_rmse": med, "q25": q25,
                        "q75": q75, "n_ok": int(vals.size)})
    return {"cells": cells, "summary": summary}
