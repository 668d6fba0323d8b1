"""Rule extraction: subtractive clustering for the rule count and initial
centers, fuzzy C-means for refined centers, memberships and widths."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (IT2Gaussian, ParameterError, RulePremise, StructuralError,
                   TrainingError, _check_finite)


@dataclass(frozen=True)
class SubtractiveParams:
    """Density-potential clustering parameters (points in the unit hypercube)."""

    r_a: float = 0.5
    r_b: float = None
    accept_ratio: float = 0.5
    reject_ratio: float = 0.15

    def __post_init__(self):
        if self.r_a <= 0:
            raise ParameterError("r_a must be > 0")
        r_b = 1.5 * self.r_a if self.r_b is None else self.r_b
        if r_b < self.r_a:
            raise ParameterError("r_b must be >= r_a")
        object.__setattr__(self, "r_b", r_b)
        if not (0 < self.reject_ratio < self.accept_ratio <= 1):
            raise ParameterError("need 0 < reject_ratio < accept_ratio <= 1")


@dataclass(frozen=True)
class ClusterResult:
    """Output of the clustering stage.

    centers live in the joint (z, y) space handed to fcm_refine; widths are
    per-dimension membership-weighted standard deviations, floored so the
    derived Gaussian sets stay valid on zero-variance dimensions.
    """

    p: int
    centers: np.ndarray              # (p, dim)
    fuzzifier_memberships: np.ndarray  # (p, N), columns sum to 1
    widths: np.ndarray               # (p, dim), > 0
    objective_history: tuple = ()

    def __post_init__(self):
        if self.p < 1:
            raise ParameterError("p must be >= 1")
        U = np.asarray(self.fuzzifier_memberships, dtype=float)
        if U.shape[0] != self.p:
            raise ParameterError("membership matrix must have p rows")
        if np.any(U < -1e-12) or np.any(U > 1 + 1e-12):
            raise ParameterError("memberships must lie in [0, 1]")
        col = U.sum(axis=0)
        if np.any(np.abs(col - 1.0) > 1e-9):
            raise ParameterError("membership columns must sum to 1")
        if np.any(np.asarray(self.widths) <= 0):
            raise ParameterError("widths must be > 0")


def _chunked_potentials(points, alpha, chunk=512):
    N = points.shape[0]
    P = np.zeros(N)
    for i0 in range(0, N, chunk):
        block = points[i0:i0 + chunk]
        d2 = np.sum((block[:, None, :] - points[None, :, :]) ** 2, axis=2)
        P[i0:i0 + chunk] = np.exp(-alpha * d2).sum(axis=1)
    return P


def subtractive_cluster(points, params: SubtractiveParams) -> list[int]:
    """Select cluster centers among the data points (Chiu's method).

    Returns indices into `points`, in decreasing order of potential.
    Points are expected pre-scaled to the unit hypercube per dimension.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    N = points.shape[0]
    if N == 0:
        raise StructuralError("subtractive clustering needs at least one point")
    _check_finite(points, "points")
    alpha = 4.0 / params.r_a ** 2
    beta = 4.0 / params.r_b ** 2
    P = _chunked_potentials(points, alpha)

    centers: list[int] = []
    first = int(np.argmax(P))
    p1 = P[first]
    centers.append(first)
    P = P - p1 * np.exp(-beta * np.sum((points - points[first]) ** 2, axis=1))
    np.maximum(P, 0.0, out=P)

    while True:
        cand = int(np.argmax(P))
        pk = P[cand]
        if pk <= 0:
            break
        ratio = pk / p1
        if ratio > params.accept_ratio:
            accept = True
        elif ratio < params.reject_ratio:
            break
        else:
            # gray zone: accept only if far enough from existing centers
            dmin = min(np.linalg.norm(points[cand] - points[c]) for c in centers)
            accept = (dmin / params.r_a + ratio) >= 1.0
        if accept:
            centers.append(cand)
            P = P - pk * np.exp(-beta * np.sum((points - points[cand]) ** 2, axis=1))
            np.maximum(P, 0.0, out=P)
        else:
            P[cand] = 0.0
        if len(centers) >= N:
            break
    return centers


def fcm_refine(points, p, init_centers, fuzzifier_m=2.0, tol=1e-6,
               max_iter=200, width_floor=1e-3) -> ClusterResult:
    """Fuzzy C-means with given initial centers.

    The objective sum_{l,k} u_lk^m ||x_k - c_l||^2 is non-increasing per
    iteration (checked); iteration stops when the largest center shift
    drops below tol.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    N, dim = points.shape
    if p < 1:
        raise ParameterError("p must be >= 1")
    if p > N:
        raise ParameterError(f"p={p} exceeds sample count {N}")
    if fuzzifier_m <= 1:
        raise ParameterError("fuzzifier must be > 1")
    if tol <= 0:
        raise ParameterError("tol must be > 0")
    centers = np.atleast_2d(np.asarray(init_centers, dtype=float)).copy()
    if centers.shape != (p, dim):
        raise ParameterError(f"init_centers must have shape ({p}, {dim})")

    expo = 2.0 / (fuzzifier_m - 1.0)
    history = []
    prev_obj = np.inf
    U = None
    for _ in range(max_iter):
        d2 = np.maximum(
            np.sum((points[None, :, :] - centers[:, None, :]) ** 2, axis=2), 0.0)
        U = _memberships_from_d2(d2, expo)
        Um = U ** fuzzifier_m
        obj = float(np.sum(Um * d2))
        if obj > prev_obj + 1e-9 * (1.0 + abs(prev_obj)):
            raise TrainingError("FCM objective increased; numerical fault")
        history.append(obj)
        prev_obj = obj
        mass = Um.sum(axis=1)
        new_centers = (Um @ points) / np.maximum(mass, 1e-300)[:, None]
        shift = np.max(np.linalg.norm(new_centers - centers, axis=1))
        centers = new_centers
        if shift < tol:
            break

    d2 = np.sum((points[None, :, :] - centers[:, None, :]) ** 2, axis=2)
    U = _memberships_from_d2(d2, expo)
    widths = np.empty((p, dim))
    for l in range(p):
        w = U[l]
        total = max(w.sum(), 1e-300)
        var = (w[:, None] * (points - centers[l]) ** 2).sum(axis=0) / total
        widths[l] = np.sqrt(var)
    widths = np.maximum(widths, width_floor)
    return ClusterResult(p, centers, U, widths, tuple(history))


def _memberships_from_d2(d2, expo):
    """FCM membership update; rows of d2 are clusters, columns samples."""
    p = d2.shape[0]
    U = np.empty_like(d2)
    zero_cols = np.any(d2 <= 0, axis=0)
    safe = ~zero_cols
    if np.any(safe):
        inv = d2[:, safe] ** (-expo / 2.0)
        U[:, safe] = inv / inv.sum(axis=0)
    if np.any(zero_cols):
        # a point coincides with >=1 center: split membership among those
        hit = d2[:, zero_cols] <= 0
        U[:, zero_cols] = hit / hit.sum(axis=0)
    return U


def build_premises(result: ClusterResult, delta: float,
                   n_z: int = None) -> list[RulePremise]:
    """Turn cluster centers/widths into rule antecedents over the z-subspace.

    Clustering may run in the joint (z, y) space; n_z selects the leading
    z dimensions (default: all dimensions).
    """
    if not (0 <= delta < 1):
        raise ParameterError("delta must be in [0, 1)")
    dim = result.centers.shape[1]
    n_z = dim if n_z is None else n_z
    if not (1 <= n_z <= dim):
        raise ParameterError("n_z out of range")
    premises = []
    for l in range(result.p):
        sets = tuple(
            IT2Gaussian(float(result.centers[l, v]), float(result.widths[l, v]),
                        delta)
            for v in range(n_z))
        premises.append(RulePremise(sets))
    return premises
