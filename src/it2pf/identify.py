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
    svd_steps: list = field(default_factory=list)
    irls_capped: list = field(default_factory=list)
    dropped_rules: int = 0
    degenerate_samples: int = 0
    fcm_iterations: int = 0
    fcm_converged: bool = False  # FCM met fcm_tol before fcm_max_iter
    training_rmse: float = float("nan")


def assemble_regressor(z, x, v, v_next, dt, degree) -> np.ndarray:
    """Regressor row such that row @ theta reproduces eval_consequent.

    theta layout per output dimension: [M.ravel(), C.ravel(), K.ravel(), f],
    each block in (n, B) row-major order.
    """
    rows = (np.asarray(a, dtype=float).reshape(1, -1)
            for a in (z, x, v, v_next))
    return regressor_matrix(*rows, dt, degree)[0]


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


def _gram_basis(Zn, regressors, degree):
    """(Phi, pinv(T)) with regressors = Phi @ T, Phi the fewer monomials of
    degree <= degree+1 in Zn that span regressors.  At degree 0 the
    regressors [a, v, x, 1] have no redundant columns: Phi is them, each
    column scaled to unit norm, and pinv(T) = diag(1 / scale)."""
    if degree == 0:
        scale = np.linalg.norm(regressors, axis=0)
        scale[scale == 0] = 1.0
        return regressors / scale, np.diag(1.0 / scale)
    # each monomial is a lower one times one variable: no (N, B, q) powers
    cols = frontier = [(np.ones(Zn.shape[0]), 0)]
    for _ in range(degree + 1):
        frontier = [(c * Zn[:, j], j) for c, i in frontier
                    for j in range(i, Zn.shape[1])]
        cols = cols + frontier
    phi = np.column_stack([c for c, _ in cols])
    return phi, np.linalg.pinv(np.linalg.lstsq(phi, regressors, rcond=None)[0])


def _weighted_lstsq(rows, target, w, basis=None):
    """Minimum-norm theta minimizing sum(w * (rows @ theta - target) ** 2),
    a condition estimate, and whether it took the SVD step on rank-deficient
    rows.  With basis = _gram_basis(...), theta = pinv(T) @ beta, beta by
    Cholesky L of Phi' diag(w) Phi unless that fails or breaks the bound."""
    if basis is not None:
        phi, t_pinv = basis
        try:
            L = np.linalg.cholesky((phi * w[:, None]).T @ phi)
            cond = float(np.diag(L).max() / np.diag(L).min())
        except np.linalg.LinAlgError:
            cond = float("inf")
        if cond ** 2 <= _GRAM_COND_MAX:
            beta = np.linalg.solve(L, phi.T @ (w * target))
            return t_pinv @ np.linalg.solve(L.T, beta), cond, False
    sw = np.sqrt(w)
    theta, _, rank, sv = np.linalg.lstsq(rows * sw[:, None], target * sw,
                                         rcond=None)
    cond = float(sv[0] / sv[-1]) if sv.size and sv[-1] > 0 else float("inf")
    return theta, cond, bool(rank < rows.shape[1])


def robust_fit_rule(dataset: Dataset, rule_weights, config: TrainConfig,
                    norm: Normalization = None, regressors=None, basis=None):
    """Fit one rule's consequent by weighted Huber IRLS.

    rule_weights are the per-sample type-reduced weights of this rule.
    norm standardizes z before the monomial basis (identity when omitted).
    basis = _gram_basis(...) of the same regressors solves each step by
    _weighted_lstsq's Gram step; without it every step is the SVD step.
    Returns (PolynomialConsequent, {FitReport list: this rule's entry}).
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
        regressors = regressor_matrix(Z if norm is None else norm.apply(Z),
                                      dataset.x, dataset.v, dataset.v_next,
                                      dataset.dt, config.degree)
    R = regressors.shape[1]
    eff = float(w.sum())
    if eff < R:
        raise TrainingError(
            f"effective sample count {eff:.1f} below coefficient count {R}")

    m = dataset.m
    theta_rows = np.empty((m, R))
    iters_used, svd_steps, capped = 0, 0, False
    conds = []
    for i in range(m):
        target = dataset.y[:, i]
        theta, cond, fell_back = _weighted_lstsq(regressors, target, w, basis)
        conds.append(cond)
        svd_steps += fell_back
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
            limit = prev_obj + 1e-9 * (1.0 + abs(prev_obj))
            for b in (basis, None):  # a Gram step that rises: retry by SVD
                new_theta, _, fell_back = _weighted_lstsq(regressors, target,
                                                          u, b)
                resid = target - regressors @ new_theta
                obj = huber_objective(resid, w, threshold)
                if obj <= limit or fell_back or b is None:
                    break
            svd_steps += fell_back
            if obj > limit:
                # MM guarantee: should not happen beyond roundoff
                break
            prev_obj = obj
            change = np.max(np.abs(new_theta - theta))
            theta = new_theta
            iters_used = max(iters_used, it + 1)
            if change < config.irls_tol * (1.0 + np.max(np.abs(theta))):
                break
        else:
            capped = True
        theta_rows[i] = theta

    resid_all = dataset.y - regressors @ theta_rows.T
    report = {
        "rule_residual_norms": float(
            np.sqrt(np.sum(w[:, None] * resid_all ** 2))),
        "rule_effective_weights": eff,
        "rule_iterations": iters_used,
        "rule_condition": max(conds),
        "rank_fallback": eff < 2 * R or svd_steps > 0,
        "svd_steps": svd_steps,
        "irls_capped": capped,
    }
    return PolynomialConsequent.from_theta(theta_rows.T, dataset.n,
                                           config.degree), report


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

    regressors = regressor_matrix(Zn, dataset.x, dataset.v, dataset.v_next,
                                  dataset.dt, config.degree)
    basis = _gram_basis(Zn, regressors, config.degree)
    rules = []
    for l, prem in enumerate(premises):
        try:
            cons, rrep = robust_fit_rule(dataset, W[:, l], config, norm=norm,
                                         regressors=regressors, basis=basis)
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


def config_with(config: TrainConfig, **kw) -> TrainConfig:
    return replace(config, **kw)
