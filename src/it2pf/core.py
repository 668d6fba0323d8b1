"""Core types and inference for interval type-2 polynomial fuzzy models.

A model is a rule base.  Each rule pairs an antecedent (one interval
type-2 Gaussian set per component of the feature vector z = [x, v, v_next])
with a polynomial consequent

    y_l = M_l(z) (v_next - v)/dt + C_l(z) v + K_l(z) x + f_l(z),

where each entry of M, C, K, f is a polynomial in the normalized z.
Rule firing strengths are intervals (product of lower/upper memberships);
type reduction collapses them to scalar blending weights.

That paper form is the model.  A model stores each rule's consequent as
beta, its coefficients on the q columns of consequent_basis, which the
(3n+1)*B coefficients of M, C, K, f span with redundancy.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np


class FuzzyModelError(Exception):
    """Base class for all errors raised by this package."""


class InputDomainError(FuzzyModelError):
    """Non-finite or otherwise inadmissible input value."""


class ShapeError(FuzzyModelError):
    """Dimension mismatch between inputs and a model or dataset."""


class ParameterError(FuzzyModelError):
    """Invalid hyperparameter or configuration value."""


class StructuralError(FuzzyModelError):
    """Structurally invalid object (e.g. empty rule base)."""


class TrainingError(FuzzyModelError):
    """Model identification failed."""


class Channel(enum.Enum):
    """Data channel: operator motion, gripper gesture, or environment force."""

    MOTION = "h_mt"
    GESTURE = "h_ga"
    ENVIRONMENT = "e"


def _vec(a, name, dtype=float):
    arr = np.asarray(a, dtype=dtype)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise ShapeError(f"{name} must be a vector, got shape {arr.shape}")
    return arr


def _check_finite(arr, name):
    if not np.all(np.isfinite(arr)):
        raise InputDomainError(f"{name} contains non-finite entries")


def _freeze(obj, name, arr):
    """Set field name of the frozen dataclass obj to arr, made read-only."""
    arr.setflags(write=False)
    object.__setattr__(obj, name, arr)


@dataclass(frozen=True)
class Dataset:
    """Column-major sample store for one channel.

    Rows are ordered; `trial_id` groups rows into whole trials for
    splitting, `t` is the sample timestamp.  `v_next` is the velocity at
    the following tick of the same trial (materialized by the reader).
    """

    channel: Channel
    dt: float
    x: np.ndarray
    v: np.ndarray
    v_next: np.ndarray
    y: np.ndarray
    trial_id: np.ndarray = None
    t: np.ndarray = None

    def __post_init__(self):
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ParameterError(f"dt must be positive, got {self.dt}")
        for name in ("x", "v", "v_next", "y"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.ndim == 1:
                arr = arr[:, None]
            if arr.ndim != 2:
                raise ShapeError(f"{name} must be 2-D (N, dim)")
            _check_finite(arr, name)
            _freeze(self, name, arr)
        N = self.x.shape[0]
        if N < 1:
            raise StructuralError("dataset must contain at least one sample")
        if self.v.shape != self.x.shape or self.v_next.shape != self.x.shape:
            raise ShapeError("x, v, v_next must share shape")
        if self.y.shape[0] != N:
            raise ShapeError("y row count must match x")
        tid = self.trial_id
        tid = np.zeros(N, dtype=int) if tid is None else np.asarray(tid, dtype=int)
        if tid.shape != (N,):
            raise ShapeError("trial_id must have one entry per sample")
        _freeze(self, "trial_id", tid.copy())
        t = self.t
        t = self.dt * np.arange(N) if t is None else np.asarray(t, dtype=float)
        if t.shape != (N,):
            raise ShapeError("t must have one entry per sample")
        _freeze(self, "t", t.copy())

    @property
    def n(self) -> int:
        return self.x.shape[1]

    @property
    def m(self) -> int:
        return self.y.shape[1]

    @property
    def n_samples(self) -> int:
        return self.x.shape[0]

    def subset(self, idx) -> "Dataset":
        return Dataset(self.channel, self.dt, self.x[idx], self.v[idx],
                       self.v_next[idx], self.y[idx], self.trial_id[idx],
                       self.t[idx])

    def trials(self) -> np.ndarray:
        return np.unique(self.trial_id)

    def feature_matrix(self) -> np.ndarray:
        """z rows: [x, v, v_next], shape (N, 3n)."""
        return np.hstack([self.x, self.v, self.v_next])


def _tick_arrays(t, trial_id, x, v, y):
    """Per-tick records as arrays: t and trial_id (N,), and x, v and y as
    (N, dim) rows, where a 1-D x, v or y over N > 1 ticks is one column."""
    t = np.asarray(t, dtype=float)
    trial_id = np.asarray(trial_id, dtype=int)
    x = np.atleast_2d(np.asarray(x, dtype=float))
    v = np.atleast_2d(np.asarray(v, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    if x.shape[0] == 1 and t.shape[0] > 1:
        x, v, y = x.T, v.T, y.T
    return t, trial_id, x, v, y


def materialize_ticks(channel, dt, t, trial_id, x, v, y) -> Dataset:
    """Build training pairs from per-tick records.

    v_next at tick k is v at tick k+1 of the same trial; the last tick of
    every trial carries no successor and is dropped.  Each trial's ticks
    must be contiguous, with t increasing by dt (to 1e-6 dt).
    """
    t, trial_id, x, v, y = _tick_arrays(t, trial_id, x, v, y)
    same = np.diff(trial_id) == 0
    if np.count_nonzero(~same) + 1 != np.unique(trial_id).size:
        raise StructuralError("the ticks of each trial must be contiguous")
    if dt > 0 and np.any(np.abs(np.diff(t)[same] - dt) > 1e-6 * dt):
        raise StructuralError(f"t must step by dt={dt} within a trial")
    keep = np.ones(t.shape[0], dtype=bool)
    last = np.nonzero(~same)[0]
    keep[last] = False
    keep[-1] = False
    succ = np.roll(np.arange(t.shape[0]), -1)
    if not np.any(keep):
        raise StructuralError("no trial has two or more ticks")
    return Dataset(channel, dt, x[keep], v[keep], v[succ][keep], y[keep],
                   trial_id[keep], t[keep])


# ---------------------------------------------------------------------------
# Monomial basis
# ---------------------------------------------------------------------------

def basis_size(n_vars: int, degree: int) -> int:
    """Number of monomials in n_vars variables of total degree <= degree."""
    return math.comb(n_vars + degree, degree)


def monomial_basis(z: np.ndarray, degree: int) -> np.ndarray:
    """The monomials of degree <= degree in the last axis of z, (..., k) ->
    (..., B), in graded order: degree 0 first, each degree in lexicographic
    order of its variables.  Each is a lower one times one variable."""
    if degree < 0:
        raise ParameterError("degree must be >= 0")
    z = np.asarray(z, dtype=float)
    cols = frontier = [(np.ones(z.shape[:-1]), 0)]
    for _ in range(degree):
        frontier = [(c * z[..., j], j) for c, i in frontier
                    for j in range(i, z.shape[-1])]
        cols = cols + frontier
    return np.stack([c for c, _ in cols], axis=-1)


# ---------------------------------------------------------------------------
# Membership functions and firing strengths
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IT2Gaussian:
    """Gaussian set with uncertain width: sigma scaled by (1 -/+ delta)."""

    center: float
    sigma: float
    delta: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.center) and np.isfinite(self.sigma)
                and np.isfinite(self.delta)):
            raise ParameterError("IT2Gaussian parameters must be finite")
        if self.sigma <= 0:
            raise ParameterError(f"sigma must be > 0, got {self.sigma}")
        if not (0 <= self.delta < 1):
            raise ParameterError(f"delta must be in [0, 1), got {self.delta}")


def eval_membership(mf: IT2Gaussian, t: float) -> tuple[float, float]:
    """Lower and upper membership grade of scalar input t."""
    t = float(t)
    if not np.isfinite(t):
        raise InputDomainError(f"membership input must be finite, got {t}")
    d2 = (t - mf.center) ** 2
    lo = math.exp(-d2 / (2.0 * (mf.sigma * (1.0 - mf.delta)) ** 2))
    up = math.exp(-d2 / (2.0 * (mf.sigma * (1.0 + mf.delta)) ** 2))
    return lo, up


@dataclass(frozen=True)
class FiringInterval:
    lower: float
    upper: float

    def __post_init__(self):
        if not (0.0 <= self.lower <= self.upper <= 1.0):
            raise ParameterError(
                f"invalid firing interval [{self.lower}, {self.upper}]")


@dataclass(frozen=True)
class RulePremise:
    """Antecedent of one rule: one IT2 Gaussian per feature dimension."""

    sets: tuple

    def __post_init__(self):
        sets = tuple(self.sets)
        if not sets:
            raise StructuralError("premise needs at least one set")
        object.__setattr__(self, "sets", sets)
        _freeze(self, "_centers", np.array([s.center for s in sets]))
        _freeze(self, "_sigmas", np.array([s.sigma for s in sets]))
        _freeze(self, "_deltas", np.array([s.delta for s in sets]))

    @property
    def n_inputs(self) -> int:
        return len(self.sets)

    @property
    def centers(self) -> np.ndarray:
        return self._centers

    @property
    def sigmas(self) -> np.ndarray:
        return self._sigmas

    @property
    def deltas(self) -> np.ndarray:
        return self._deltas


def firing_interval(premise: RulePremise, z: np.ndarray) -> FiringInterval:
    """Product firing interval of a premise at feature vector z."""
    z = _vec(z, "z")
    _check_finite(z, "z")
    if z.shape[0] != premise.n_inputs:
        raise ShapeError(
            f"z has {z.shape[0]} entries, premise expects {premise.n_inputs}")
    lo, up = _firing_batch(z[None, :], *_premise_tables([premise]))
    return FiringInterval(float(lo[0, 0]), float(up[0, 0]))


def _premise_tables(premises):
    """Stack premises into centers and lower/upper variances, each (p, d).

    The lower (upper) membership of rule l in dimension j is a Gaussian of
    variance (sigma (1 - delta))^2 ((sigma (1 + delta))^2).
    """
    C = np.stack([prem.centers for prem in premises])
    S = np.stack([prem.sigmas for prem in premises])
    D = np.stack([prem.deltas for prem in premises])
    return C, (S * (1.0 - D)) ** 2, (S * (1.0 + D)) ** 2


def _firing_batch(Z, centers, var_lower, var_upper):
    """Lower/upper firing of stacked premises at rows of Z -> two (N, p)."""
    d2 = (Z[:, None, :] - centers[None, :, :]) ** 2            # (N, p, d)
    lo = np.exp(-0.5 * np.sum(d2 / var_lower, axis=2))
    up = np.exp(-0.5 * np.sum(d2 / var_upper, axis=2))
    return lo, up


# ---------------------------------------------------------------------------
# Type reduction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TypeReductionConfig:
    """Constant interval-collapse weights: omega~ = b_lower*lo + b_upper*up."""

    b_lower: float = 0.5
    b_upper: float = 0.5

    def __post_init__(self):
        if not (0.0 <= self.b_lower <= 1.0 and 0.0 <= self.b_upper <= 1.0):
            raise ParameterError("b weights must lie in [0, 1]")
        if abs(self.b_lower + self.b_upper - 1.0) > 1e-12:
            raise ParameterError("b_lower + b_upper must equal 1")


def type_reduce(intervals, cfg: TypeReductionConfig,
                epsilon_floor: float = 1e-12):
    """Collapse firing intervals to normalized weights.

    Returns (weights, degenerate): weights sum to 1; when the total
    collapsed mass falls below epsilon_floor all rules get uniform weight
    and the degeneracy flag is set.
    """
    intervals = list(intervals)
    if not intervals:
        raise StructuralError("type reduction needs at least one rule")
    lo = np.array([iv.lower for iv in intervals])[None, :]
    up = np.array([iv.upper for iv in intervals])[None, :]
    w, degen = type_reduce_batch(lo, up, cfg, epsilon_floor)
    return w[0], bool(degen[0])


def type_reduce_batch(lower, upper, cfg, epsilon_floor=1e-12):
    """Vectorized type reduction over (N, p) firing bounds."""
    if epsilon_floor <= 0:
        raise ParameterError("epsilon_floor must be > 0")
    omega = cfg.b_lower * lower + cfg.b_upper * upper
    total = omega.sum(axis=1)
    degen = total < epsilon_floor
    p = omega.shape[1]
    w = np.empty_like(omega)
    ok = ~degen
    w[ok] = omega[ok] / total[ok, None]
    w[degen] = 1.0 / p
    return w, degen


# ---------------------------------------------------------------------------
# Polynomial consequents
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolynomialConsequent:
    """Coefficient tensors of one rule's output map.

    coeffs_M/C/K have shape (m, n, B) and coeffs_f (m, B), where B is the
    full monomial basis size of the 3n-dimensional feature vector.
    """

    degree: int
    coeffs_M: np.ndarray
    coeffs_C: np.ndarray
    coeffs_K: np.ndarray
    coeffs_f: np.ndarray

    def __post_init__(self):
        if self.degree < 0:
            raise ParameterError("degree must be >= 0")
        if np.ndim(self.coeffs_M) != 3:
            raise ShapeError("coeffs_M must have shape (m, n, B)")
        m, n, B = np.shape(self.coeffs_M)
        if B != basis_size(3 * n, self.degree):
            raise ShapeError(
                f"basis size {B} inconsistent with n={n}, degree={self.degree}")
        for name, want in (("coeffs_M", (m, n, B)), ("coeffs_C", (m, n, B)),
                           ("coeffs_K", (m, n, B)), ("coeffs_f", (m, B))):
            arr = np.array(getattr(self, name), dtype=float)
            if arr.shape != want:
                raise ShapeError(f"{name} must have shape {want}, got {arr.shape}")
            _check_finite(arr, name)
            _freeze(self, name, arr)

    @property
    def n(self) -> int:
        return self.coeffs_M.shape[1]

    @property
    def m(self) -> int:
        return self.coeffs_M.shape[0]

    @property
    def theta(self) -> np.ndarray:
        """Coefficients as (R, m) columns in regressor_matrix's layout."""
        m = self.m
        return np.hstack([self.coeffs_M.reshape(m, -1),
                          self.coeffs_C.reshape(m, -1),
                          self.coeffs_K.reshape(m, -1), self.coeffs_f]).T


def regressor_matrix(Z, X, V, VN, dt, degree) -> np.ndarray:
    """Rows of the consequent map at N samples, shape (N, (3n+1)*B).

    Z is the normalized feature matrix and a = (VN - V)/dt.  Columns are
    [M, C, K, f]: the first three blocks hold a_j, v_j, x_j times the
    basis, each in (n, B) row-major order, and the last holds the basis.
    A coefficient matrix theta in this layout gives y = R @ theta; training
    solves for it, inference evaluates it.
    """
    if dt <= 0:
        raise ParameterError(f"dt must be > 0, got {dt}")
    phi = monomial_basis(Z, degree)          # (N, B)
    A = (VN - V) / dt
    blocks = [
        (A[:, :, None] * phi[:, None, :]).reshape(Z.shape[0], -1),
        (V[:, :, None] * phi[:, None, :]).reshape(Z.shape[0], -1),
        (X[:, :, None] * phi[:, None, :]).reshape(Z.shape[0], -1),
        phi,
    ]
    return np.hstack(blocks)


def consequent_basis(Z, X, V, VN, dt, degree) -> np.ndarray:
    """Phi, the q columns that a rule's beta weighs, at N samples: (N, q).

    a = (VN - V)/dt, v and x are affine in Z, the normalized [X, V, VN], so
    every column of regressor_matrix is a polynomial of degree <= degree + 1
    in Z: Phi is those q = basis_size(3n, degree + 1) monomials.  At degree
    0 it is [a, v, x, 1] itself, and beta the paper's [M, C, K, f]."""
    if degree == 0:
        return np.hstack([(VN - V) / dt, V, X, np.ones((Z.shape[0], 1))])
    return monomial_basis(Z, degree + 1)


def eval_consequent_batch(beta, Z, X, V, VN, dt, degree):
    """Consequents with coefficient columns beta at N samples: one GEMM."""
    return consequent_basis(Z, X, V, VN, dt, degree) @ beta


def eval_consequent(cons: PolynomialConsequent, z, x, v, v_next, dt) -> np.ndarray:
    """Evaluate one paper-form consequent at normalized features z."""
    rows = [_vec(a, name)[None, :] for name, a in
            (("z", z), ("x", x), ("v", v), ("v_next", v_next))]
    return (regressor_matrix(*rows, dt, cons.degree) @ cons.theta)[0]


@dataclass(frozen=True)
class BasisConsequent:
    """One rule's consequent as stored: beta (q, m), its coefficients on
    consequent_basis at this degree."""

    degree: int
    beta: np.ndarray

    def __post_init__(self):
        if self.degree < 0:
            raise ParameterError("degree must be >= 0")
        beta = np.array(self.beta, dtype=float)
        if beta.ndim != 2:
            raise ShapeError(f"beta must have shape (q, m), got {beta.shape}")
        _check_finite(beta, "beta")
        _freeze(self, "beta", beta)

    @property
    def m(self) -> int:
        return self.beta.shape[1]


def _paper_to_beta(conses, norm, dt):
    """beta = T theta of paper-form consequents, one (q, m) block each, for
    features normalized by norm.  T is the regressor regressed on Phi at
    fixed points, exactly as it lies in Phi's span; at degree 0 it is I."""
    theta = np.hstack([cons.theta for cons in conses])
    degree = conses[0].degree
    if degree > 0:
        n3 = norm.mean.shape[0]
        Zn = np.random.default_rng(0).standard_normal(
            (2 * basis_size(n3, degree + 1), n3))
        rows = (Zn, *np.split(Zn * norm.scale + norm.mean, 3, axis=1), dt,
                degree)
        T = np.linalg.lstsq(consequent_basis(*rows), regressor_matrix(*rows),
                            rcond=None)[0]
        theta = T @ theta
    return np.split(theta, len(conses), axis=1)


# ---------------------------------------------------------------------------
# Assembled model
# ---------------------------------------------------------------------------

_ROW_BLOCK = 2048    # rows per inference block in IT2PFModel.predict_batch


@dataclass(frozen=True)
class Normalization:
    """Per-dimension affine standardization of the feature vector."""

    mean: np.ndarray
    scale: np.ndarray

    def __post_init__(self):
        mean = _vec(self.mean, "mean")
        scale = _vec(self.scale, "scale")
        if mean.shape != scale.shape:
            raise ShapeError("mean and scale must share shape")
        _check_finite(mean, "mean")
        _check_finite(scale, "scale")
        if np.any(scale <= 0):
            raise ParameterError("normalization scales must be > 0")
        _freeze(self, "mean", mean)
        _freeze(self, "scale", scale)

    def apply(self, Z):
        return (Z - self.mean) / self.scale


@dataclass(frozen=True)
class IT2PFModel:
    """Trained interval type-2 polynomial fuzzy model for one channel."""

    channel: Channel
    dt: float
    rules: tuple
    norm: Normalization
    tr_config: TypeReductionConfig = field(default_factory=TypeReductionConfig)
    epsilon_floor: float = 1e-12

    def __post_init__(self):
        rules = tuple((prem, cons) for prem, cons in self.rules)
        if not rules:
            raise StructuralError("model needs at least one rule")
        if self.dt <= 0:
            raise ParameterError("dt must be > 0")
        if self.epsilon_floor <= 0:
            raise ParameterError("epsilon_floor must be > 0")
        n3, m, deg = self.norm.mean.shape[0], rules[0][1].m, rules[0][1].degree
        for prem, cons in rules:
            if (cons.m, cons.degree) != (m, deg):
                raise ShapeError("all rules must share (m, degree)")
            if prem.n_inputs != n3 or n3 % 3:
                raise ShapeError(
                    "premise and normalization dimensions must equal 3n")
        # a paper-form consequent (built by hand, or read from a v1 file) is
        # mapped to beta once, by this model's normalization and dt
        paper = [cons for _, cons in rules
                 if isinstance(cons, PolynomialConsequent)]
        if any(3 * cons.n != n3 for cons in paper):
            raise ShapeError("consequent dimension must equal 3n")
        betas = iter(_paper_to_beta(paper, self.norm, self.dt) if paper else ())
        rules = tuple((prem, BasisConsequent(deg, next(betas))
                       if isinstance(cons, PolynomialConsequent) else cons)
                      for prem, cons in rules)
        q = basis_size(n3, deg + 1)
        if any(cons.beta.shape[0] != q for _, cons in rules):
            raise ShapeError(f"beta must have {q} rows at n={n3 // 3}, "
                             f"degree={deg}")
        object.__setattr__(self, "rules", rules)
        # inference tensors, stacked once: premise tables (p, 3n) and every
        # rule's beta side by side, theta (q, p*m)
        tables = _premise_tables([prem for prem, _ in rules])
        for name, arr in zip(("_centers", "_var_lower", "_var_upper"), tables):
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "_theta",
                           np.hstack([cons.beta for _, cons in rules]))

    @property
    def p(self) -> int:
        return len(self.rules)

    @property
    def n(self) -> int:
        return self.norm.mean.shape[0] // 3

    @property
    def m(self) -> int:
        return self.rules[0][1].m

    @property
    def degree(self) -> int:
        return self.rules[0][1].degree

    def predict(self, x, v, v_next):
        """Blend the rule consequents at one input; returns (y, degenerate)."""
        rows = []
        for name, a in (("x", x), ("v", v), ("v_next", v_next)):
            a = _vec(a, name)
            _check_finite(a, name)
            if a.shape[0] != self.n:
                raise ShapeError(f"{name} must have dimension {self.n}")
            rows.append(a[None, :])
        Y, degen = self._predict_rows(*rows)
        return Y[0], bool(degen[0])

    def predict_batch(self, X, V, VN):
        """Predict N rows; returns (Y (N, m), degenerate (N,))."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        V = np.atleast_2d(np.asarray(V, dtype=float))
        VN = np.atleast_2d(np.asarray(VN, dtype=float))
        if X.shape[1] != self.n or V.shape != X.shape or VN.shape != X.shape:
            raise ShapeError("inputs must have shape (N, n)")
        for name, a in (("x", X), ("v", V), ("v_next", VN)):
            _check_finite(a, name)
        N = X.shape[0]
        Y = np.empty((N, self.m))
        degen = np.empty(N, dtype=bool)
        # row blocks bound the (rows, q) basis temporary
        for start in range(0, N, _ROW_BLOCK):
            rows = slice(start, start + _ROW_BLOCK)
            Y[rows], degen[rows] = self._predict_rows(X[rows], V[rows],
                                                      VN[rows])
        return Y, degen

    def _predict_rows(self, X, V, VN):
        """Inference on validated rows: firing, type reduction, one GEMM
        over every rule's consequent, one weighted sum over the rules."""
        Zn = self.norm.apply(np.hstack([X, V, VN]))
        lo, up = _firing_batch(Zn, self._centers, self._var_lower,
                               self._var_upper)
        W, degen = type_reduce_batch(lo, up, self.tr_config, self.epsilon_floor)
        Yr = eval_consequent_batch(self._theta, Zn, X, V, VN, self.dt,
                                   self.degree)
        Y = np.einsum("np,npm->nm", W, Yr.reshape(-1, self.p, self.m))
        return Y, degen
