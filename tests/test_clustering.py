"""Clustering stage: subtractive center selection, FCM refinement, premises."""

import numpy as np
import pytest

from it2pf import clustering
from it2pf.clustering import (
    ClusterResult,
    SubtractiveParams,
    build_premises,
    fcm_refine,
    subtractive_cluster,
)
from it2pf.core import ParameterError, TrainingError


def _two_blobs(rng, sep=0.8, n=60, spread=0.01):
    a = rng.normal(scale=spread, size=(n, 2)) + [0.1, 0.1]
    b = rng.normal(scale=spread, size=(n, 2)) + [0.1 + sep, 0.1 + sep]
    return np.vstack([a, b])


def _doubled_after_first(memberships):
    """Memberships that are doubled from the second call on, so the FCM
    objective rises: a stand-in for a numerical fault."""
    calls = []

    def faulty(d2, expo):
        calls.append(None)
        return memberships(d2, expo) * (1.0 if len(calls) == 1 else 2.0)

    return faulty


class TestSubtractive:
    def test_single_point(self):
        idx = subtractive_cluster(np.array([[0.3, 0.7]]), SubtractiveParams())
        assert idx == [0]

    def test_identical_points(self):
        pts = np.tile([0.5, 0.5], (40, 1))
        idx = subtractive_cluster(pts, SubtractiveParams())
        assert len(idx) == 1

    def test_two_separated_blobs(self):
        rng = np.random.default_rng(0)
        params = SubtractiveParams(r_a=0.06)
        pts = _two_blobs(rng, sep=0.8, spread=0.004)
        idx = subtractive_cluster(pts, params)
        assert len(idx) == 2
        # one center inside each blob
        sides = sorted(pts[i][0] > 0.5 for i in idx)
        assert sides == [False, True]

    def test_brute_force_potential_oracle(self):
        # the first selected center maximizes the exact potential field
        rng = np.random.default_rng(4)
        pts = rng.uniform(size=(80, 3))
        params = SubtractiveParams(r_a=0.4)
        alpha = 4.0 / params.r_a ** 2
        d2 = np.sum((pts[:, None] - pts[None]) ** 2, axis=2)
        pot = np.exp(-alpha * d2).sum(axis=1)
        idx = subtractive_cluster(pts, params)
        assert idx[0] == int(np.argmax(pot))

    def test_param_validation(self):
        with pytest.raises(ParameterError):
            SubtractiveParams(r_a=-1.0)
        with pytest.raises(ParameterError):
            SubtractiveParams(r_a=0.5, r_b=0.2)
        with pytest.raises(ParameterError):
            SubtractiveParams(accept_ratio=0.1, reject_ratio=0.5)


class TestFCM:
    def test_single_cluster_is_mean(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(200, 3))
        res = fcm_refine(pts, 1, pts.mean(axis=0, keepdims=True))
        assert np.allclose(res.centers[0], pts.mean(axis=0), atol=1e-9)
        assert np.allclose(res.fuzzifier_memberships, 1.0, atol=0)

    def test_two_blobs_match_kmeans_oracle(self):
        rng = np.random.default_rng(2)
        pts = _two_blobs(rng, sep=0.8, spread=0.02)
        init = np.array([[0.0, 0.0], [1.0, 1.0]])
        res = fcm_refine(pts, 2, init)
        # oracle: hard k-means on the same points (well separated, so the
        # two methods agree about where the blobs are)
        means = np.array([pts[:60].mean(axis=0), pts[60:].mean(axis=0)])
        for c in res.centers:
            assert min(np.linalg.norm(c - mu) for mu in means) < 0.05

    def test_equidistant_symmetric_memberships(self):
        pts = np.array([[0.0, 0.0], [-1.0, 0.0], [1.0, 0.0]])
        init = np.array([[-1.0, 0.0], [1.0, 0.0]])
        res = fcm_refine(pts, 2, init, max_iter=1)
        assert np.allclose(res.fuzzifier_memberships[:, 0], 0.5, atol=1e-12)

    def test_objective_monotone(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(300, 4))
        init = pts[:5]
        res = fcm_refine(pts, 5, init)
        hist = np.array(res.objective_history)
        assert np.all(np.diff(hist) <= 1e-9 * (1 + np.abs(hist[:-1])))

    def test_objective_rise_is_training_error(self, monkeypatch):
        monkeypatch.setattr(clustering, "_memberships_from_d2",
                            _doubled_after_first(
                                clustering._memberships_from_d2))
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(50, 2))
        with pytest.raises(TrainingError, match="objective increased"):
            fcm_refine(pts, 2, pts[:2])

    def test_zero_variance_dimension_floored(self):
        rng = np.random.default_rng(5)
        pts = np.column_stack([rng.normal(size=100), np.zeros(100)])
        res = fcm_refine(pts, 1, pts.mean(axis=0, keepdims=True),
                         width_floor=1e-3)
        assert res.widths[0, 1] == 1e-3

    def test_parameter_validation(self):
        pts = np.zeros((10, 2))
        with pytest.raises(ParameterError):
            fcm_refine(pts, 0, np.zeros((0, 2)))
        with pytest.raises(ParameterError):
            fcm_refine(pts, 11, np.zeros((11, 2)))
        with pytest.raises(ParameterError):
            fcm_refine(pts, 1, np.zeros((1, 2)), fuzzifier_m=1.0)
        with pytest.raises(ParameterError):
            fcm_refine(pts, 1, np.zeros((1, 3)))


    def test_gemm_distances_match_direct_reference(self):
        rng = np.random.default_rng(8)
        pts = rng.normal(size=(400, 5)) + 3.0
        init = pts[:6] + 0.1     # no point on a center: every d2 > 0
        res = fcm_refine(pts, 6, init, fuzzifier_m=1.2, max_iter=60)
        # the same iterations with the distances taken point by point
        centers = init.copy()
        for _ in res.objective_history:
            d2 = np.sum((pts[None] - centers[:, None]) ** 2, axis=2)
            inv = d2 ** -5.0
            Um = (inv / inv.sum(axis=0)) ** 1.2
            centers = (Um @ pts) / Um.sum(axis=1)[:, None]
        assert np.max(np.abs(res.centers - centers)) <= 1e-12

    @pytest.mark.parametrize("expo", [2.0, 10.0])  # fuzzifier 2 and 1.2
    def test_memberships_equal_the_unscaled_power(self, expo):
        # scaling each column by a power of two is exact: no bit moves
        rng = np.random.default_rng(9)
        d2 = rng.uniform(0.0, 10.0, size=(7, 400)) ** 2 * \
            10.0 ** rng.integers(-20, 20, size=400)
        inv = d2 ** (-expo / 2.0)
        assert np.array_equal(clustering._memberships_from_d2(d2, expo),
                              inv / inv.sum(axis=0))

    def test_tiny_distances_do_not_overflow(self):
        # with fuzzifier 1.2 the memberships take d2 to the power -5,
        # which overflows for d2 below ~1e-62 unless d2 is rescaled
        pts = np.array([[0.0], [1e-70], [1.0], [2.0], [2.1]])
        res = fcm_refine(pts, 2, np.array([[0.0], [2.0]]), fuzzifier_m=1.2)
        assert res.converged and len(res.objective_history) < 20
        assert np.allclose(res.centers.ravel(), [0.3303, 2.0476], atol=1e-4)
        assert np.all(np.isfinite(res.widths))

    def test_convergence_is_reported(self):
        rng = np.random.default_rng(2)
        pts = _two_blobs(rng, sep=0.8, spread=0.02)
        init = np.array([[0.0, 0.0], [1.0, 1.0]])
        res = fcm_refine(pts, 2, init)
        assert res.converged and len(res.objective_history) < 200
        res = fcm_refine(pts, 2, init, max_iter=1)
        assert not res.converged and len(res.objective_history) == 1

    @pytest.mark.parametrize("field", ["centers", "fuzzifier_memberships",
                                       "widths"])
    def test_non_finite_result_is_rejected(self, field):
        parts = {"centers": np.zeros((2, 1)),
                 "fuzzifier_memberships": np.full((2, 3), 0.5),
                 "widths": np.ones((2, 1))}
        ClusterResult(2, **parts)
        parts[field] = parts[field].copy()
        parts[field][0, 0] = np.nan
        with pytest.raises(TrainingError, match="non-finite"):
            ClusterResult(2, **parts)


class TestPremises:
    def _result(self, centers, widths):
        p, dim = centers.shape
        U = np.full((p, 5), 1.0 / p)
        return ClusterResult(p, centers, U, widths)

    def test_uniform_widths_delta(self):
        res = self._result(np.zeros((2, 3)), np.ones((2, 3)))
        prem = build_premises(res, delta=0.2)
        for rule in prem:
            for s in rule.sets:
                assert (s.sigma * (1 - s.delta),
                        s.sigma * (1 + s.delta)) == (0.8, 1.2)

    def test_standard_normal_cloud_stats(self):
        rng = np.random.default_rng(6)
        pts = rng.standard_normal((3000, 2))
        res = fcm_refine(pts, 1, pts.mean(axis=0, keepdims=True))
        prem = build_premises(res, delta=0.1)[0]
        for s in prem.sets:
            assert abs(s.center) < 0.1
            assert abs(s.sigma - 1.0) < 0.1

    def test_projection_to_z_dims(self):
        centers = np.array([[1.0, 2.0, 3.0]])
        widths = np.array([[0.5, 0.6, 0.7]])
        res = self._result(centers, widths)
        prem = build_premises(res, delta=0.0, n_z=2)[0]
        assert len(prem.sets) == 2
        assert prem.sets[0].center == 1.0 and prem.sets[1].sigma == 0.6

    def test_delta_validation(self):
        res = self._result(np.zeros((1, 2)), np.ones((1, 2)))
        with pytest.raises(ParameterError):
            build_premises(res, delta=1.0)
        with pytest.raises(ParameterError):
            build_premises(res, delta=-0.1)
