"""Error metrics, whole-trial splitting, learning curves, and the
multi-model benchmark runner."""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .baselines import fit_lkv, fit_pfmb, fit_tsfmb
from .core import Dataset, FuzzyModelError, ParameterError, ShapeError
from .identify import TrainConfig, train
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


def fit_named_model(name: str, train_set: Dataset, config: TrainConfig):
    """Fit one of the benchmark model families; returns a predictor."""
    if name == "it2pfml":
        model, _ = train(train_set, config)
    elif name == "pfmb":
        model, _ = fit_pfmb(train_set, config)
    elif name == "tsfmb":
        model, _ = fit_tsfmb(train_set, config)
    elif name == "lkv":
        model = fit_lkv(train_set)
    else:
        raise ParameterError(f"unknown model name {name!r}")
    return model


def per_trial_metrics(model, test_set: Dataset):
    """(trial_id, rmse, mae) rows over the test trials, sorted by id."""
    pred, _ = model.predict_batch(test_set.x, test_set.v, test_set.v_next)
    return _trial_rows(pred, test_set)


def _trial_rows(pred, test_set: Dataset):
    """per_trial_metrics of the predictions pred on test_set."""
    rows = []
    for tid in test_set.trials():
        mask = test_set.trial_id == tid
        rows.append((int(tid), rmse(pred[mask], test_set.y[mask]),
                     mae(pred[mask], test_set.y[mask])))
    return rows


@dataclass
class BenchmarkReport:
    rows: list = field(default_factory=list)        # per-trial rows
    aggregates: list = field(default_factory=list)  # per model x seed
    failures: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def srmse(self, model, seed) -> float:
        for a in self.aggregates:
            if a["model"] == model and a["seed"] == seed:
                return a["srmse"]
        raise KeyError((model, seed))

    def smae(self, model, seed) -> float:
        for a in self.aggregates:
            if a["model"] == model and a["seed"] == seed:
                return a["smae"]
        raise KeyError((model, seed))


def run_benchmark(dataset: Dataset, models, split: Split, seeds,
                  config: TrainConfig = None) -> BenchmarkReport:
    """Train every model on identical whole-trial splits and score the
    held-out trials; SRMSE/SMAE are sums of per-trial metrics."""
    models = list(models)
    if not models:
        raise ParameterError("need at least one model")
    config = config or TrainConfig()
    report = BenchmarkReport(metadata={
        "fraction": split.fraction, "seeds": list(seeds),
        "models": list(models), "degree": config.degree,
        "delta": config.delta,
    })
    for seed in seeds:
        tr, te = split_trials(dataset, replace(split, seed=seed))
        for name in models:
            try:
                model = fit_named_model(name, tr, config)
                pred, _ = model.predict_batch(te.x, te.v, te.v_next)
                trial_rows = _trial_rows(pred, te)
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


def learning_curve(dataset: Dataset, model_factory, fractions, n_seeds,
                   seed_base: int = 0):
    """Test RMSE as a function of the training fraction.

    model_factory(train_set, seed) must return a fitted predictor.  Cells
    whose training fails are recorded as missing.  Returns a dict with
    per-cell rows and per-fraction median / interquartile range.
    """
    fractions = list(fractions)
    if any(b <= a for a, b in zip(fractions, fractions[1:])):
        raise ParameterError("fractions must be sorted ascending")
    cells = []
    for frac in fractions:
        for s in range(n_seeds):
            seed = seed_base + s
            tr, te = split_trials(dataset, Split(frac, seed))
            try:
                model = model_factory(tr, seed)
                pred, _ = model.predict_batch(te.x, te.v, te.v_next)
                value = rmse(pred, te.y)
            except FuzzyModelError as exc:
                cells.append({"fraction": frac, "seed": seed,
                              "rmse": float("nan"), "error": str(exc)})
                continue
            cells.append({"fraction": frac, "seed": seed, "rmse": value,
                          "error": ""})
    summary = []
    for frac in fractions:
        vals = np.array([c["rmse"] for c in cells
                         if c["fraction"] == frac and np.isfinite(c["rmse"])])
        if vals.size:
            summary.append({"fraction": frac,
                            "median_rmse": float(np.median(vals)),
                            "q25": float(np.percentile(vals, 25)),
                            "q75": float(np.percentile(vals, 75)),
                            "n_ok": int(vals.size)})
        else:
            summary.append({"fraction": frac, "median_rmse": float("nan"),
                            "q25": float("nan"), "q75": float("nan"),
                            "n_ok": 0})
    return {"cells": cells, "summary": summary}
