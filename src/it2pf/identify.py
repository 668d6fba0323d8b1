"""Model identification: per-rule robust weighted least squares.

The training pipeline standardizes the feature vector, clusters the joint
(z, y) cloud to obtain the rule base, computes per-sample type-reduced rule
weights, and fits each rule's polynomial consequent by Huber regression
(iteratively reweighted least squares).
"""
from __future__ import annotations

import math

from dataclasses import dataclass, field, replace

import numpy as np

from .clustering import SubtractiveParams, build_premises, fcm_refine, \
    subtractive_cluster
from .core import (Dataset, IT2PFModel, Normalization, ParameterError,
                   PolynomialConsequent, TrainingError, TypeReductionConfig,
                   _firing_batch, _premise_tables, basis_size,
                   regressor_matrix, type_reduce_batch)


@dataclass(frozen=True)
class TrainConfig:
    degree: int = 2
    delta: float = 0.2
    huber_k: float = 1.345
    irls_max_iter: int = 50
    irls_tol: float = 1e-8
    subtractive: SubtractiveParams = field(default_factory=SubtractiveParams)
    fcm_fuzzifier: float = 1.2
    fcm_tol: float = 1e-6
    fcm_max_iter: int = 200
    width_floor: float = 1e-3
    width_scale: float = 1.0
    tr_config: TypeReductionConfig = field(default_factory=TypeReductionConfig)
    epsilon_floor: float = 1e-12
    l2_penalty: float = 0.0
    seed: int = 0
    force_p: int = None          # bypass subtractive clustering, fix rule count
    max_rules: int = None        # keep only the strongest centers
    max_cluster_points: int = 2000  # subsample cap for the O(N^2) potential pass
    drop_weak_rules: bool = True

    def __post_init__(self):
        if self.degree < 0:
            raise ParameterError("degree must be >= 0")
        if not (0 <= self.delta < 1):
            raise ParameterError("delta must be in [0, 1)")
        if self.huber_k <= 0:
            raise ParameterError("huber_k must be > 0")
        if self.irls_tol <= 0 or self.fcm_tol <= 0:
            raise ParameterError("tolerances must be > 0")


@dataclass
class FitReport:
    rule_residual_norms: list = field(default_factory=list)
    rule_effective_weights: list = field(default_factory=list)
    rule_iterations: list = field(default_factory=list)
    rule_condition: list = field(default_factory=list)
    rank_fallback: list = field(default_factory=list)
    dropped_rules: int = 0
    degenerate_samples: int = 0
    training_rmse: float = float("nan")
    notes: list = field(default_factory=list)


def assemble_regressor(z, x, v, v_next, dt, degree) -> np.ndarray:
    """Regressor row such that row @ theta reproduces eval_consequent.

    theta layout per output dimension: [M.ravel(), C.ravel(), K.ravel(), f],
    each block in (n, B) row-major order.
    """
    z = np.asarray(z, dtype=float).reshape(-1)
    x = np.asarray(x, dtype=float).reshape(-1)
    v = np.asarray(v, dtype=float).reshape(-1)
    v_next = np.asarray(v_next, dtype=float).reshape(-1)
    return regressor_matrix(z[None, :], x[None, :], v[None, :],
                            v_next[None, :], dt, degree)[0]


def _weighted_median(values, weights):
    order = np.argsort(values, kind="stable")
    v = values[order]
    w = weights[order]
    cw = np.cumsum(w)
    if cw[-1] <= 0:
        return float(np.median(values))
    return float(v[np.searchsorted(cw, 0.5 * cw[-1])])


def huber_objective(residuals, weights, threshold):
    r = np.abs(residuals)
    if not np.isfinite(threshold):
        return float(np.sum(weights * 0.5 * r ** 2))
    quad = r <= threshold
    rho = np.where(quad, 0.5 * r ** 2, threshold * r - 0.5 * threshold ** 2)
    return float(np.sum(weights * rho))


def _weighted_lstsq(rows, target, w, l2=0.0, free_cols=()):
    """Weighted least squares, optionally with a Tikhonov penalty.

    The penalty shrinks every coefficient except the columns listed in
    free_cols (typically the constant intercept), which stay unpenalized.
    """
    sw = np.sqrt(w)
    A = rows * sw[:, None]
    b = target * sw
    if l2 > 0:
        R = rows.shape[1]
        pen = np.full(R, math.sqrt(l2))
        pen[list(free_cols)] = 0.0
        A = np.vstack([A, np.diag(pen)])
        b = np.concatenate([b, np.zeros(R)])
    theta, _, rank, sv = np.linalg.lstsq(A, b, rcond=None)
    cond = float(sv[0] / sv[-1]) if sv.size and sv[-1] > 0 else float("inf")
    return theta, rank, cond


def robust_fit_rule(dataset: Dataset, rule_weights, config: TrainConfig,
                    norm: Normalization = None, regressors=None):
    """Fit one rule's consequent by weighted Huber IRLS.

    rule_weights are the per-sample type-reduced weights of this rule.
    norm standardizes z before the monomial basis (identity when omitted).
    Returns (PolynomialConsequent, per-rule report dict).
    """
    w = np.asarray(rule_weights, dtype=float)
    if w.shape != (dataset.n_samples,):
        raise ParameterError("rule_weights must have one entry per sample")
    if np.any(w < 0):
        raise ParameterError("rule_weights must be non-negative")
    if w.sum() <= 0:
        raise TrainingError("rule has zero total weight")
    if regressors is None:
        Z = dataset.feature_matrix()
        if norm is not None:
            Z = norm.apply(Z)
        regressors = regressor_matrix(Z, dataset.x, dataset.v, dataset.v_next,
                                      dataset.dt, config.degree)
    R = regressors.shape[1]
    eff = float(w.sum())
    if eff < R:
        raise TrainingError(
            f"effective sample count {eff:.1f} below coefficient count {R}")
    fallback = eff < 2 * R

    m = dataset.m
    theta_rows = np.empty((m, R))
    iters_used = 0
    conds = []
    for i in range(m):
        target = dataset.y[:, i]
        free = (3 * dataset.n * (R // (3 * dataset.n + 1)),)
        theta, rank, cond = _weighted_lstsq(regressors, target, w,
                                            config.l2_penalty, free)
        conds.append(cond)
        fallback = fallback or (rank < R)
        resid = target - regressors @ theta
        med = _weighted_median(resid, w)
        scale = 1.4826 * _weighted_median(np.abs(resid - med), w)
        scale = max(scale, 1e-12 * (1.0 + float(np.median(np.abs(target)))))
        threshold = config.huber_k * scale
        prev_obj = huber_objective(resid, w, threshold)
        for it in range(config.irls_max_iter):
            absr = np.maximum(np.abs(resid), 1e-300)
            u = w if not np.isfinite(threshold) else \
                w * np.minimum(1.0, threshold / absr)
            new_theta, rank, cond = _weighted_lstsq(
                regressors, target, u, config.l2_penalty, free)
            resid = target - regressors @ new_theta
            obj = huber_objective(resid, w, threshold)
            if obj > prev_obj + 1e-9 * (1.0 + abs(prev_obj)):
                # MM guarantee: should not happen beyond roundoff
                break
            prev_obj = obj
            change = np.max(np.abs(new_theta - theta))
            theta = new_theta
            iters_used = max(iters_used, it + 1)
            if change < config.irls_tol * (1.0 + np.max(np.abs(theta))):
                break
        theta_rows[i] = theta

    resid_all = dataset.y - regressors @ theta_rows.T
    report = {
        "residual_norm": float(np.sqrt(np.sum(w[:, None] * resid_all ** 2))),
        "effective_weight": eff,
        "iterations": iters_used,
        "condition": max(conds),
        "rank_fallback": bool(fallback),
    }
    return PolynomialConsequent.from_theta(theta_rows.T, dataset.n,
                                           config.degree), report


def _subsample_indices(N, cap):
    if cap is None or N <= cap:
        return np.arange(N)
    return np.unique(np.linspace(0, N - 1, cap).astype(int))


def _initial_centers(points_std, hyper, config):
    """Pick rule centers; returns indices into the full point set."""
    N = points_std.shape[0]
    sub = _subsample_indices(N, config.max_cluster_points)
    if config.force_p is not None:
        p = config.force_p
        if p < 1:
            raise ParameterError("force_p must be >= 1")
        if p == 1:
            return None, 1  # caller uses the mean
        idx = subtractive_cluster(hyper[sub], config.subtractive)
        idx = list(sub[idx])
        # top up with farthest-point selection if subtractive found too few
        while len(idx) < p:
            chosen = points_std[idx]
            d = np.min(np.sum((points_std[:, None, :] - chosen[None]) ** 2,
                              axis=2), axis=1)
            idx.append(int(np.argmax(d)))
        return np.array(idx[:p]), p
    idx = subtractive_cluster(hyper[sub], config.subtractive)
    idx = sub[idx]
    if config.max_rules is not None:
        idx = idx[:config.max_rules]
    return np.array(idx), len(idx)


def train(dataset: Dataset, config: TrainConfig):
    """Identify an IT2 polynomial fuzzy model from a dataset.

    Deterministic: clustering and fitting involve no random draws, so equal
    inputs give bit-identical models.
    """
    N, n, m = dataset.n_samples, dataset.n, dataset.m
    R = (3 * n + 1) * basis_size(3 * n, config.degree)
    if N < R:
        raise TrainingError(
            f"{N} samples cannot support {R} coefficients per output row")

    Z = dataset.feature_matrix()
    z_mean = Z.mean(axis=0)
    z_scale = np.maximum(Z.std(axis=0), 1e-8)
    norm = Normalization(z_mean, z_scale)
    Zn = norm.apply(Z)
    y_mean = dataset.y.mean(axis=0)
    y_scale = np.maximum(dataset.y.std(axis=0), 1e-8)
    points = np.hstack([Zn, (dataset.y - y_mean) / y_scale])

    # unit-hypercube copy for the subtractive potential pass
    lo = points.min(axis=0)
    span = np.maximum(points.max(axis=0) - lo, 1e-12)
    hyper = (points - lo) / span

    center_idx, p = _initial_centers(points, hyper, config)
    init = points.mean(axis=0)[None, :] if center_idx is None \
        else points[center_idx]
    result = fcm_refine(points, p, init, config.fcm_fuzzifier, config.fcm_tol,
                        config.fcm_max_iter, config.width_floor)

    report = FitReport()
    if config.width_scale <= 0:
        raise ParameterError("width_scale must be > 0")
    if config.width_scale != 1.0:
        result = replace(result, widths=result.widths * config.width_scale)
    premises = build_premises(result, config.delta, n_z=3 * n)
    lo_f, up_f = _firing_batch(Zn, *_premise_tables(premises))
    W, _ = type_reduce_batch(lo_f, up_f, config.tr_config,
                             config.epsilon_floor)

    # drop rules too weakly fired to support their coefficient count
    if config.drop_weak_rules and len(premises) > 1:
        while len(premises) > 1:
            masses = W.sum(axis=0)
            weakest = int(np.argmin(masses))
            if masses[weakest] >= R:
                break
            del premises[weakest]
            lo_f = np.delete(lo_f, weakest, axis=1)
            up_f = np.delete(up_f, weakest, axis=1)
            W, _ = type_reduce_batch(lo_f, up_f, config.tr_config,
                                     config.epsilon_floor)
            report.dropped_rules += 1
        if report.dropped_rules:
            report.notes.append(
                f"dropped {report.dropped_rules} weakly fired rule(s)")

    regressors = regressor_matrix(Zn, dataset.x, dataset.v, dataset.v_next,
                                  dataset.dt, config.degree)
    rules = []
    for l, prem in enumerate(premises):
        try:
            cons, rrep = robust_fit_rule(dataset, W[:, l], config, norm=norm,
                                         regressors=regressors)
        except TrainingError as exc:
            raise TrainingError(f"rule {l}: {exc}") from exc
        rules.append((prem, cons))
        report.rule_residual_norms.append(rrep["residual_norm"])
        report.rule_effective_weights.append(rrep["effective_weight"])
        report.rule_iterations.append(rrep["iterations"])
        report.rule_condition.append(rrep["condition"])
        report.rank_fallback.append(rrep["rank_fallback"])

    model = IT2PFModel(dataset.channel, dataset.dt, tuple(rules), norm,
                       config.tr_config, config.epsilon_floor)
    pred, degen = model.predict_batch(dataset.x, dataset.v, dataset.v_next)
    report.degenerate_samples = int(np.count_nonzero(degen))
    err = pred - dataset.y
    report.training_rmse = float(np.sqrt(np.mean(np.sum(err ** 2, axis=1))))
    return model, report


def config_with(config: TrainConfig, **kw) -> TrainConfig:
    return replace(config, **kw)
