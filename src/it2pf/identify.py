"""Model identification: per-rule robust weighted least squares.

The training pipeline standardizes the feature vector, clusters the joint
(z, y) cloud to obtain the rule base, computes per-sample type-reduced rule
weights, and fits each rule's polynomial consequent by Huber regression
(iteratively reweighted least squares).
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .clustering import SubtractiveParams, build_premises, fcm_refine, \
    subtractive_cluster
from .core import (BasisConsequent, Dataset, IT2PFModel, Normalization,
                   ParameterError, TrainingError, TypeReductionConfig,
                   _firing_batch, _premise_tables, basis_size,
                   consequent_basis, type_reduce_batch)
from .core import regressor_matrix  # noqa: F401 (re-exported)


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
    force_p: int = None          # fix the rule count: top up or cut the centers
    max_cluster_points: int = 2000  # subsample cap for the O(N^2) potential pass

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
    svd_steps: list = field(default_factory=list)  # steps solved by SVD
    irls_capped: list = field(default_factory=list)
    dropped_rules: int = 0
    degenerate_samples: int = 0
    fcm_iterations: int = 0
    fcm_converged: bool = False  # FCM met fcm_tol before fcm_max_iter
    training_rmse: float = float("nan")


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


_GRAM_COND_MAX = 1e6  # max (max/min diag L)^2: Gram error stays < ~irls_tol


def _column_scaled(phi):
    """(phi with each column scaled to unit norm, 1 / scale)."""
    scale = np.linalg.norm(phi, axis=0)
    scale[scale == 0] = 1.0
    return phi / scale, 1.0 / scale


def _weighted_lstsq(phi, target, w, scaled=None):
    """beta minimizing sum(w * (phi @ beta - target) ** 2), a condition
    estimate, and whether the SVD step solved it and found phi rank
    deficient.  With scaled = _column_scaled(phi), the Gram step solves by
    the Cholesky L of Phi' diag(w) Phi on the scaled columns unless L fails
    or breaks the bound; the SVD step is the minimum-norm lstsq on phi."""
    if scaled is not None:
        unit, inv_scale = scaled
        try:
            L = np.linalg.cholesky((unit * w[:, None]).T @ unit)
            cond = float(np.diag(L).max() / np.diag(L).min())
        except np.linalg.LinAlgError:
            cond = float("inf")
        if cond ** 2 <= _GRAM_COND_MAX:
            beta = np.linalg.solve(L.T, np.linalg.solve(
                L, unit.T @ (w * target)))
            return inv_scale * beta, cond, False, False
    sw = np.sqrt(w)
    beta, _, rank, sv = np.linalg.lstsq(phi * sw[:, None], target * sw,
                                        rcond=None)
    cond = float(sv[0] / sv[-1]) if sv.size and sv[-1] > 0 else float("inf")
    return beta, cond, True, bool(rank < phi.shape[1])


def robust_fit_rule(dataset: Dataset, rule_weights, config: TrainConfig,
                    norm: Normalization = None, phi=None, gram=False):
    """Fit one rule's beta by weighted Huber IRLS on Phi.

    rule_weights are the per-sample type-reduced weights of this rule.
    phi is consequent_basis at the samples, built here, with z standardized
    by norm (identity when omitted), unless given.  Each step is
    _weighted_lstsq's Gram step with gram=True, and its SVD step otherwise.
    Returns (BasisConsequent, {FitReport list: this rule's entry}).
    """
    w = np.asarray(rule_weights, dtype=float)
    if w.shape != (dataset.n_samples,):
        raise ParameterError("rule_weights must have one entry per sample")
    if np.any(w < 0):
        raise ParameterError("rule_weights must be non-negative")
    if w.sum() <= 0:
        raise TrainingError("rule has zero total weight")
    if phi is None:
        Z = dataset.feature_matrix()
        phi = consequent_basis(Z if norm is None else norm.apply(Z),
                               dataset.x, dataset.v, dataset.v_next,
                               dataset.dt, config.degree)
    # the paper form's coefficient count, until a ridge makes beta's count
    R = (3 * dataset.n + 1) * basis_size(3 * dataset.n, config.degree)
    eff = float(w.sum())
    if eff < R:
        raise TrainingError(
            f"effective sample count {eff:.1f} below coefficient count {R}")

    m = dataset.m
    scaled = _column_scaled(phi) if gram else None
    beta_cols = np.empty((phi.shape[1], m))
    iters_used, svd_steps, deficient, capped = 0, 0, 0, False
    conds = []
    for i in range(m):
        target = dataset.y[:, i]
        beta, cond, svd, short = _weighted_lstsq(phi, target, w, scaled)
        conds.append(cond)
        svd_steps, deficient = svd_steps + svd, deficient + short
        resid = target - phi @ beta
        med = _weighted_median(resid, w)
        scale = 1.4826 * _weighted_median(np.abs(resid - med), w)
        scale = max(scale, 1e-12 * (1.0 + float(np.median(np.abs(target)))))
        threshold = config.huber_k * scale
        prev_obj = huber_objective(resid, w, threshold)
        for it in range(config.irls_max_iter):
            absr = np.maximum(np.abs(resid), 1e-300)
            u = w if not np.isfinite(threshold) else \
                w * np.minimum(1.0, threshold / absr)
            limit = prev_obj + 1e-9 * (1.0 + abs(prev_obj))
            for s in (scaled, None):  # a Gram step that rises: retry by SVD
                new_beta, _, svd, short = _weighted_lstsq(phi, target, u, s)
                resid = target - phi @ new_beta
                obj = huber_objective(resid, w, threshold)
                if obj <= limit or svd:
                    break
            svd_steps, deficient = svd_steps + svd, deficient + short
            if obj > limit:
                # MM guarantee: should not happen beyond roundoff
                break
            prev_obj = obj
            change = np.max(np.abs(new_beta - beta))
            beta = new_beta
            iters_used = max(iters_used, it + 1)
            if change < config.irls_tol * (1.0 + np.max(np.abs(beta))):
                break
        else:
            capped = True
        beta_cols[:, i] = beta

    resid_all = dataset.y - phi @ beta_cols
    report = {
        "rule_residual_norms": float(
            np.sqrt(np.sum(w[:, None] * resid_all ** 2))),
        "rule_effective_weights": eff,
        "rule_iterations": iters_used,
        "rule_condition": max(conds),
        "rank_fallback": eff < 2 * R or deficient > 0,
        "svd_steps": svd_steps,
        "irls_capped": capped,
    }
    return BasisConsequent(config.degree, beta_cols), report


def _subsample_indices(N, cap):
    if cap is None or N <= cap:
        return np.arange(N)
    return np.unique(np.linspace(0, N - 1, cap).astype(int))


def _initial_centers(points_std, hyper, config):
    """Pick rule centers; returns indices into the full point set."""
    p = config.force_p
    if p is not None and p < 1:
        raise ParameterError("force_p must be >= 1")
    sub = _subsample_indices(points_std.shape[0], config.max_cluster_points)
    idx = list(sub[subtractive_cluster(hyper[sub], config.subtractive)])
    if p is None:
        return np.array(idx), len(idx)
    # top up with farthest-point selection if subtractive found too few,
    # keeping each point's squared distance to its nearest chosen center
    def sq_dist(c):
        return np.sum((points_std - points_std[c]) ** 2, axis=1)

    if len(idx) < p:
        d = np.min([sq_dist(c) for c in idx], axis=0)
        while len(idx) < p:
            idx.append(int(np.argmax(d)))
            d = np.minimum(d, sq_dist(idx[-1]))
    return np.array(idx[:p]), p


def cluster_rules(dataset: Dataset, config: TrainConfig):
    """train's clustering stage: (Normalization of z, ClusterResult).  It
    reads neither degree nor delta, so one result serves every fit of a
    dataset whose configs differ only in those."""
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
    result = fcm_refine(points, p, points[center_idx], config.fcm_fuzzifier,
                        config.fcm_tol, config.fcm_max_iter,
                        config.width_floor)
    if config.width_scale <= 0:
        raise ParameterError("width_scale must be > 0")
    if config.width_scale != 1.0:
        result = replace(result, widths=result.widths * config.width_scale)
    return norm, result


def train(dataset: Dataset, config: TrainConfig, clusters=None):
    """Identify an IT2 polynomial fuzzy model from a dataset.

    clusters is cluster_rules(dataset, config), computed here when omitted.
    Deterministic: clustering and fitting involve no random draws, so equal
    inputs give bit-identical models.
    """
    N, n, m = dataset.n_samples, dataset.n, dataset.m
    R = (3 * n + 1) * basis_size(3 * n, config.degree)
    if N < R:
        raise TrainingError(
            f"{N} samples cannot support {R} coefficients per output row")

    norm, result = clusters or cluster_rules(dataset, config)
    Zn = norm.apply(dataset.feature_matrix())
    report = FitReport(fcm_iterations=len(result.objective_history),
                       fcm_converged=result.converged)
    premises = build_premises(result, config.delta, n_z=3 * n)
    lo_f, up_f = _firing_batch(Zn, *_premise_tables(premises))
    W, _ = type_reduce_batch(lo_f, up_f, config.tr_config,
                             config.epsilon_floor)

    # drop rules too weakly fired to support their coefficient count
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

    phi = consequent_basis(Zn, dataset.x, dataset.v, dataset.v_next,
                           dataset.dt, config.degree)
    rules = []
    for l, prem in enumerate(premises):
        try:
            cons, rrep = robust_fit_rule(dataset, W[:, l], config, norm, phi,
                                         gram=True)
        except TrainingError as exc:
            raise TrainingError(f"rule {l}: {exc}") from exc
        rules.append((prem, cons))
        for key, value in rrep.items():
            getattr(report, key).append(value)

    model = IT2PFModel(dataset.channel, dataset.dt, tuple(rules), norm,
                       config.tr_config, config.epsilon_floor)
    pred, degen = model.predict_batch(dataset.x, dataset.v, dataset.v_next)
    report.degenerate_samples = int(np.count_nonzero(degen))
    err = pred - dataset.y
    report.training_rmse = float(np.sqrt(np.mean(np.sum(err ** 2, axis=1))))
    return model, report
