"""Core fuzzy machinery: memberships, firing, type reduction, consequents."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from it2pf import core
from it2pf.core import (
    Channel,
    Dataset,
    FiringInterval,
    IT2Gaussian,
    IT2PFModel,
    InputDomainError,
    Normalization,
    ParameterError,
    PolynomialConsequent,
    RulePremise,
    ShapeError,
    StructuralError,
    TypeReductionConfig,
    basis_size,
    eval_consequent,
    eval_membership,
    firing_interval,
    materialize_ticks,
    consequent_basis,
    monomial_basis,
    regressor_matrix,
    type_reduce,
    type_reduce_batch,
)


# ---------------------------------------------------------------------------
# IT2 Gaussian membership
# ---------------------------------------------------------------------------

class TestMembership:
    def test_peak_is_one(self):
        lo, up = eval_membership(IT2Gaussian(0.0, 1.0, 0.2), 0.0)
        assert lo == 1.0 and up == 1.0

    def test_delta_zero_collapses(self):
        lo, up = eval_membership(IT2Gaussian(0.0, 1.0, 0.0), 0.5)
        assert lo == up == pytest.approx(math.exp(-0.125), abs=1e-15)

    def test_known_interval_at_one_sigma(self):
        # independent scalar evaluation of the two Gaussians
        lo, up = eval_membership(IT2Gaussian(0.0, 1.0, 0.2), 1.0)
        assert lo == pytest.approx(math.exp(-1.0 / (2 * 0.64)), rel=1e-12)
        assert up == pytest.approx(math.exp(-1.0 / (2 * 1.44)), rel=1e-12)
        assert (round(lo, 4), round(up, 4)) == (0.4578, 0.7066)

    def test_invalid_parameters(self):
        with pytest.raises(ParameterError):
            IT2Gaussian(0.0, 0.0, 0.2)
        with pytest.raises(ParameterError):
            IT2Gaussian(0.0, -1.0, 0.2)
        with pytest.raises(ParameterError):
            IT2Gaussian(0.0, 1.0, 1.0)
        with pytest.raises(ParameterError):
            IT2Gaussian(0.0, 1.0, -0.1)

    @given(st.floats(-50, 50), st.floats(0.01, 10), st.floats(0, 0.99),
           st.floats(-100, 100))
    @settings(max_examples=300, deadline=None)
    def test_ordering_and_range(self, c, sigma, delta, t):
        lo, up = eval_membership(IT2Gaussian(c, sigma, delta), t)
        assert 0.0 <= lo <= up <= 1.0

    @given(st.floats(-5, 5), st.floats(0.1, 3), st.floats(0.01, 0.9),
           st.floats(0.1, 20))
    @settings(max_examples=200, deadline=None)
    def test_symmetry_about_center(self, c, sigma, delta, off):
        s = IT2Gaussian(c, sigma, delta)
        a = eval_membership(s, c + off)
        b = eval_membership(s, c - off)
        assert a[0] == pytest.approx(b[0], rel=1e-9, abs=1e-300)
        assert a[1] == pytest.approx(b[1], rel=1e-9, abs=1e-300)


# ---------------------------------------------------------------------------
# Rule firing
# ---------------------------------------------------------------------------

class TestFiring:
    def test_at_center_fires_fully(self):
        prem = RulePremise((IT2Gaussian(1.0, 0.5, 0.1),
                            IT2Gaussian(-2.0, 1.0, 0.3)))
        fi = firing_interval(prem, np.array([1.0, -2.0]))
        assert fi.lower == 1.0 and fi.upper == 1.0

    def test_product_of_per_dim_bounds(self):
        # per-dimension bounds (0.5, 0.8) and (0.4, 0.9) -> (0.2, 0.72).
        # Solve for inputs that hit those membership values exactly.
        def at(mu, sigma, delta, side):
            s = sigma * (1 - delta) if side == "lo" else sigma * (1 + delta)
            return math.sqrt(-2.0 * s * s * math.log(mu))

        # pick delta so that both target bounds are achievable at one t:
        # mu_lo = exp(-t^2/(2 slo^2)), mu_up = exp(-t^2/(2 sup^2))
        # -> slo/sup = sqrt(ln(mu_up)/ln(mu_lo))
        def make(mu_lo, mu_up):
            ratio = math.sqrt(math.log(mu_up) / math.log(mu_lo))
            delta = (1 - ratio) / (1 + ratio)
            sigma = 1.0
            t = at(mu_lo, sigma, delta, "lo")
            return IT2Gaussian(0.0, sigma, delta), t

        s1, t1 = make(0.5, 0.8)
        s2, t2 = make(0.4, 0.9)
        fi = firing_interval(RulePremise((s1, s2)), np.array([t1, t2]))
        assert fi.lower == pytest.approx(0.2, rel=1e-12)
        assert fi.upper == pytest.approx(0.72, rel=1e-12)

    def test_annihilating_dimension(self):
        prem = RulePremise((IT2Gaussian(0.0, 0.01, 0.0),
                            IT2Gaussian(0.0, 1.0, 0.1)))
        fi = firing_interval(prem, np.array([1e6, 0.0]))
        assert fi.lower == 0.0

    def test_dimension_mismatch(self):
        prem = RulePremise((IT2Gaussian(0.0, 1.0, 0.1),))
        with pytest.raises(ShapeError):
            firing_interval(prem, np.array([0.0, 1.0]))

    @given(st.integers(1, 5), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=100, deadline=None)
    def test_interval_ordering(self, dim, seed):
        rng = np.random.default_rng(seed)
        sets = tuple(IT2Gaussian(float(rng.normal()),
                                 float(rng.uniform(0.1, 2.0)),
                                 float(rng.uniform(0, 0.9)))
                     for _ in range(dim))
        fi = firing_interval(RulePremise(sets), rng.normal(size=dim))
        assert 0.0 <= fi.lower <= fi.upper <= 1.0


# ---------------------------------------------------------------------------
# Type reduction
# ---------------------------------------------------------------------------

class TestTypeReduce:
    def test_single_rule(self):
        w, degen = type_reduce([FiringInterval(0.3, 0.7)],
                               TypeReductionConfig())
        assert w.tolist() == [1.0]
        assert not degen

    def test_two_rule_arithmetic(self):
        # b=(0.5,0.5): omega_tilde = [0.4, 0.1] -> normalized [0.8, 0.2]
        w, degen = type_reduce([FiringInterval(0.2, 0.6),
                                FiringInterval(0.1, 0.1)],
                               TypeReductionConfig(0.5, 0.5))
        assert np.allclose(w, [0.8, 0.2], atol=1e-15)
        assert not degen

    def test_degenerate_fallback(self):
        w, degen = type_reduce([FiringInterval(0.0, 0.0)] * 4,
                               TypeReductionConfig())
        assert np.allclose(w, 0.25, atol=0)
        assert degen

    def test_b_weights_must_sum_to_one(self):
        with pytest.raises(ParameterError):
            TypeReductionConfig(0.3, 0.3)
        with pytest.raises(ParameterError):
            TypeReductionConfig(-0.1, 1.1)

    @given(st.integers(1, 8), st.floats(0, 1), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=300, deadline=None)
    def test_normalization_property(self, p, b_lower, seed):
        rng = np.random.default_rng(seed)
        lo = rng.uniform(0, 1, size=p)
        up = np.maximum(lo, rng.uniform(0, 1, size=p))
        fis = [FiringInterval(float(a), float(b)) for a, b in zip(lo, up)]
        w, _ = type_reduce(fis, TypeReductionConfig(b_lower, 1.0 - b_lower))
        assert abs(w.sum() - 1.0) <= 1e-12
        assert np.all(w >= 0)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(7)
        lo = rng.uniform(0, 0.5, size=(20, 3))
        up = lo + rng.uniform(0, 0.5, size=(20, 3))
        cfg = TypeReductionConfig(0.4, 0.6)
        W, degen = type_reduce_batch(lo, up, cfg)
        for k in range(20):
            w, d = type_reduce([FiringInterval(*pair)
                                for pair in zip(lo[k], up[k])], cfg)
            assert np.allclose(W[k], w, atol=1e-15)
            assert degen[k] == d


# ---------------------------------------------------------------------------
# Monomial basis / consequents
# ---------------------------------------------------------------------------

class TestBasis:
    def test_sizes(self):
        assert basis_size(3, 0) == 1
        assert basis_size(3, 1) == 4
        assert basis_size(3, 2) == 10
        assert basis_size(9, 2) == 55

    def test_graded_order(self):
        # primes as variables: each monomial is a distinct product
        phi = monomial_basis(np.array([2.0, 3.0]), 2)
        assert phi.tolist() == [1.0, 2.0, 3.0, 4.0, 6.0, 9.0]

    def test_eval_matches_manual(self):
        for k, degree in ((1, 0), (2, 2), (3, 3), (9, 3)):
            z = np.random.default_rng(k).normal(size=(5, k))
            phi = monomial_basis(z, degree)
            manual = [[math.prod(zj ** int(e) for zj, e in zip(row, exps))
                       for exps in _exponents(k, degree)] for row in z]
            assert phi.shape == (5, basis_size(k, degree))
            assert np.allclose(phi, manual, rtol=1e-14, atol=0)

    def test_consequent_basis_spans_the_regressor(self):
        # q = 55 at n = 3, degree 1, and 220 at degree 2, for 100 and 550
        # regressor columns; at degree 0 the basis is the regressor
        rng = np.random.default_rng(1)
        Z = rng.normal(size=(400, 9))
        X, V, VN = np.split(Z * rng.uniform(0.5, 2.0, 9) + rng.normal(size=9),
                            3, axis=1)
        assert np.array_equal(consequent_basis(Z, X, V, VN, 0.01, 0),
                              regressor_matrix(Z, X, V, VN, 0.01, 0))
        for degree, q, R in ((1, 55, 100), (2, 220, 550)):
            phi = consequent_basis(Z, X, V, VN, 0.01, degree)
            raw = regressor_matrix(Z, X, V, VN, 0.01, degree)
            T = np.linalg.lstsq(phi, raw, rcond=None)[0]
            assert phi.shape[1] == q == np.linalg.matrix_rank(raw)
            assert raw.shape[1] == R
            assert np.max(np.abs(phi @ T - raw)) <= 1e-9 * np.max(np.abs(raw))


class TestConsequent:
    def test_all_zero(self):
        B = basis_size(6, 1)
        c = PolynomialConsequent(1, np.zeros((1, 2, B)), np.zeros((1, 2, B)),
                                 np.zeros((1, 2, B)), np.zeros((1, B)))
        y = eval_consequent(c, np.zeros(6), np.ones(2), np.ones(2),
                            np.ones(2), dt=0.01)
        assert np.all(y == 0.0)

    def test_degree0_scalar_arithmetic(self):
        # M=0, C=2, K=3, f=1, x=1, v=0.5, v_next=v -> y = 2*0.5 + 3*1 + 1 = 5
        c = PolynomialConsequent(
            degree=0,
            coeffs_M=np.zeros((1, 1, 1)),
            coeffs_C=np.full((1, 1, 1), 2.0),
            coeffs_K=np.full((1, 1, 1), 3.0),
            coeffs_f=np.ones((1, 1)))
        y = eval_consequent(c, np.zeros(3), np.array([1.0]), np.array([0.5]),
                            np.array([0.5]), dt=0.01)
        assert y[0] == pytest.approx(5.0, abs=1e-15)

    def test_degree1_single_monomial(self):
        # K(z) = z1, x = 2, z1 = 0.3, all else zero -> y = 0.6
        B = basis_size(3, 1)
        K = np.zeros((1, 1, B))
        K[0, 0, 1] = 1.0  # coefficient on z1
        c = PolynomialConsequent(
            degree=1, coeffs_M=np.zeros((1, 1, B)),
            coeffs_C=np.zeros((1, 1, B)), coeffs_K=K,
            coeffs_f=np.zeros((1, B)))
        z = np.array([0.3, 0.0, 0.0])
        y = eval_consequent(c, z, np.array([2.0]), np.array([0.0]),
                            np.array([0.0]), dt=0.01)
        assert y[0] == pytest.approx(0.6, abs=1e-15)

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            PolynomialConsequent(
                degree=1, coeffs_M=np.zeros((1, 1, 3)),
                coeffs_C=np.zeros((1, 1, 4)), coeffs_K=np.zeros((1, 1, 4)),
                coeffs_f=np.zeros((1, 4)))


# ---------------------------------------------------------------------------
# Whole-model inference
# ---------------------------------------------------------------------------

def _const_model(centers, values, delta=0.2, sigma=1.0):
    """One-dim model, constant consequents (degree 0, M=C=K=0, f=value)."""
    rules = []
    for c, val in zip(centers, values):
        prem = RulePremise(tuple(IT2Gaussian(c, sigma, delta)
                                 for _ in range(3)))
        cons = PolynomialConsequent(
            degree=0, coeffs_M=np.zeros((1, 1, 1)),
            coeffs_C=np.zeros((1, 1, 1)), coeffs_K=np.zeros((1, 1, 1)),
            coeffs_f=np.full((1, 1), float(val)))
        rules.append((prem, cons))
    norm = Normalization(np.zeros(3), np.ones(3))
    return IT2PFModel(channel=Channel.ENVIRONMENT, dt=0.01, rules=rules,
                      norm=norm, tr_config=TypeReductionConfig())


class TestModelInference:
    def test_single_rule_equals_consequent(self):
        m = _const_model([0.0], [3.25])
        y, degen = m.predict([0.7], [0.1], [0.2])
        assert y[0] == pytest.approx(3.25, abs=1e-15)
        assert not degen

    def test_delta_zero_matches_type1(self):
        m0 = _const_model([0.0, 1.0], [1.0, 5.0], delta=0.0)
        # type-1 oracle: plain normalized Gaussian-product weights
        z = np.array([0.4, 0.4, 0.4])
        w = np.array([math.exp(-0.5 * np.sum((z - c) ** 2))
                      for c in (0.0, 1.0)])
        w /= w.sum()
        expect = w @ np.array([1.0, 5.0])
        y, _ = m0.predict([0.4], [0.4], [0.4])
        assert y[0] == pytest.approx(expect, rel=1e-12)

    def test_far_rule_negligible(self):
        m = _const_model([0.0, 10.0], [2.0, -7.0], sigma=1.0)
        y, _ = m.predict([0.0], [0.0], [0.0])
        assert y[0] == pytest.approx(2.0, rel=1e-6)

    def test_delta_widens_and_changes_output(self):
        y0, _ = _const_model([0.0, 2.0], [1.0, 5.0], delta=0.0).predict(
            [0.5], [0.5], [0.5])
        y8, _ = _const_model([0.0, 2.0], [1.0, 5.0], delta=0.8).predict(
            [0.5], [0.5], [0.5])
        assert abs(y0[0] - y8[0]) > 1e-3

    def test_batch_matches_scalar(self):
        m = _const_model([0.0, 1.5], [1.0, 4.0])
        rng = np.random.default_rng(3)
        X, V, VN = rng.normal(size=(3, 40, 1))
        Y, _ = m.predict_batch(X, V, VN)
        for k in range(40):
            y, _ = m.predict(X[k], V[k], VN[k])
            assert np.allclose(Y[k], y, atol=1e-14)


def _exponents(k, degree):
    """Exponent rows of the monomials of degree <= degree in k variables,
    in graded order, each degree in lexicographic order of its variables."""
    return [np.bincount(combo, minlength=k).tolist()
            for d in range(degree + 1)
            for combo in itertools.combinations_with_replacement(range(k), d)]


def _random_model(rng, n, m, p, degree):
    """(model, its paper-form consequents): random premises, coefficients,
    normalization and b weights."""
    B = basis_size(3 * n, degree)
    rules = []
    for _ in range(p):
        prem = RulePremise(tuple(
            IT2Gaussian(float(rng.normal()), float(rng.uniform(0.5, 2.0)),
                        float(rng.uniform(0.0, 0.5)))
            for _ in range(3 * n)))
        cons = PolynomialConsequent(degree, *rng.normal(size=(3, m, n, B)),
                                    rng.normal(size=(m, B)))
        rules.append((prem, cons))
    norm = Normalization(rng.normal(size=3 * n), rng.uniform(0.5, 2.0, 3 * n))
    b = float(rng.uniform())
    model = IT2PFModel(Channel.ENVIRONMENT, 0.01, rules, norm,
                       TypeReductionConfig(b, 1.0 - b))
    return model, [cons for _, cons in rules]


def _reference_predict(model, conses, x, v, v_next):
    """Per-rule evaluation of the module-docstring formula at one row, with
    the rules' paper-form consequents conses.

    Returns (y, magnitude, degenerate); magnitude is the blended sum of the
    absolute values of every consequent term, the scale of y's roundoff.
    """
    z = (np.concatenate([x, v, v_next]) - model.norm.mean) / model.norm.scale
    a = (v_next - v) / model.dt
    phi = np.array([math.prod(zj ** int(e) for zj, e in zip(z, row))
                    for row in _exponents(3 * model.n, model.degree)])
    b_lo, b_up = model.tr_config.b_lower, model.tr_config.b_upper
    omegas, outputs, mags = [], [], []
    for (prem, _), cons in zip(model.rules, conses):
        lo = up = 1.0
        for s, zj in zip(prem.sets, z):
            lo *= math.exp(-(zj - s.center) ** 2
                           / (2 * (s.sigma * (1 - s.delta)) ** 2))
            up *= math.exp(-(zj - s.center) ** 2
                           / (2 * (s.sigma * (1 + s.delta)) ** 2))
        omegas.append(b_lo * lo + b_up * up)
        terms = np.concatenate([
            ((cons.coeffs_M * a[:, None] + cons.coeffs_C * v[:, None]
              + cons.coeffs_K * x[:, None]) * phi).reshape(model.m, -1),
            cons.coeffs_f * phi], axis=1)
        outputs.append(terms.sum(axis=1))
        mags.append(np.abs(terms).sum(axis=1))
    total = sum(omegas)
    degenerate = total < model.epsilon_floor
    w = np.full(model.p, 1.0 / model.p) if degenerate \
        else np.array(omegas) / total
    return w @ np.array(outputs), w @ np.array(mags), degenerate


def _rows_near_and_far(rng, model, n_near=4, n_far=2):
    """Raw (x, v, v_next) rows: near a rule center, or far from every one."""
    Z = []
    for _ in range(n_near):
        l = int(rng.integers(model.p))
        prem = model.rules[l][0]
        half = 0.5 * prem.sigmas * (1 - prem.deltas)
        Z.append(prem.centers + rng.uniform(-half, half))
    for _ in range(n_far):
        Z.append(1e3 + rng.normal(size=3 * model.n))
    raw = np.array(Z) * model.norm.scale + model.norm.mean
    return np.split(raw, 3, axis=1)


class TestStackedInference:
    """predict_batch against an independent per-rule reference."""

    @given(st.integers(0, 2), st.integers(1, 3), st.integers(1, 2),
           st.integers(1, 6), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_per_rule_reference(self, degree, n, m, p, seed):
        rng = np.random.default_rng(seed)
        model, conses = _random_model(rng, n, m, p, degree)
        X, V, VN = _rows_near_and_far(rng, model)
        Y, degen = model.predict_batch(X, V, VN)
        assert degen.tolist() == [False] * 4 + [True] * 2
        for k in range(X.shape[0]):
            y, mag, d = _reference_predict(model, conses, X[k], V[k], VN[k])
            assert degen[k] == d
            assert np.all(np.abs(Y[k] - y) <= 1e-12 * mag)
        # the single-row path is the one-row batch, bit for bit
        y0, d0 = model.predict(X[0], V[0], VN[0])
        Y0, D0 = model.predict_batch(X[:1], V[:1], VN[:1])
        assert np.array_equal(y0, Y0[0]) and d0 == D0[0]

    def test_row_blocks_match_rows_one_by_one(self, monkeypatch):
        rng = np.random.default_rng(5)
        model, conses = _random_model(rng, n=2, m=2, p=4, degree=2)
        X, V, VN = _rows_near_and_far(rng, model, n_near=8, n_far=3)
        monkeypatch.setattr(core, "_ROW_BLOCK", 4)   # 11 rows -> 3 blocks
        Y, degen = model.predict_batch(X, V, VN)
        monkeypatch.undo()
        whole, whole_degen = model.predict_batch(X, V, VN)
        for k in range(X.shape[0]):
            y, d = model.predict(X[k], V[k], VN[k])
            _, mag, _ = _reference_predict(model, conses, X[k], V[k], VN[k])
            assert degen[k] == d == whole_degen[k]
            assert np.all(np.abs(Y[k] - y) <= 1e-12 * mag)
            assert np.all(np.abs(Y[k] - whole[k]) <= 1e-12 * mag)


# ---------------------------------------------------------------------------
# Dataset plumbing
# ---------------------------------------------------------------------------

def _toy_ticks(n_tr=2, n_tk=5):
    t, tid, X, V, Y = [], [], [], [], []
    for j in range(n_tr):
        for k in range(n_tk):
            t.append(k * 0.01)
            tid.append(j)
            X.append([j + 0.1 * k])
            V.append([0.1])
            Y.append([2.0 * (j + 0.1 * k)])
    return (np.array(t), np.array(tid), np.array(X), np.array(V),
            np.array(Y))


def _faulty_ticks(fault):
    """_toy_ticks with one fault in the tick records."""
    t, tid, X, V, Y = _toy_ticks()
    if fault == "interleaved":      # trial 0, trial 1, then trial 0 again
        order = np.r_[0:2, 5:10, 2:5]
        return t[order], tid[order], X[order], V[order], Y[order]
    if fault == "t-not-increasing":
        t = t.copy()
        t[[2, 3]] = t[[3, 2]]
    if fault == "spacing":
        t = np.where(tid == 1, 2 * t, t)
    return t, tid, X, V, Y


TICK_FAULTS = {"interleaved": "contiguous", "t-not-increasing": "step by dt",
               "spacing": "step by dt"}


class TestDataset:
    @pytest.mark.parametrize("fault", list(TICK_FAULTS))
    def test_materialize_rejects_faulty_ticks(self, fault):
        with pytest.raises(StructuralError, match=TICK_FAULTS[fault]):
            materialize_ticks(Channel.ENVIRONMENT, 0.01, *_faulty_ticks(fault))

    def test_materialize_checks_spacing_within_trials_only(self):
        t, tid, X, V, Y = _toy_ticks()
        t = t + 5.0 * tid + 1e-9 * (np.arange(t.size) % 2)
        ds = materialize_ticks(Channel.ENVIRONMENT, 0.01, t, tid, X, V, Y)
        assert ds.n_samples == 8

    def test_materialize_drops_last_tick(self):
        ds = materialize_ticks(Channel.ENVIRONMENT, 0.01, *_toy_ticks())
        assert ds.n_samples == 8  # 2 trials x (5 - 1)
        # v_next of sample k is v of the next tick in the same trial
        assert np.allclose(ds.v_next, 0.1)

    def test_subset_and_trials(self):
        ds = materialize_ticks(Channel.ENVIRONMENT, 0.01, *_toy_ticks())
        assert ds.trials().tolist() == [0, 1]
        sub = ds.subset(np.arange(4))
        assert sub.n_samples == 4
        assert sub.trials().tolist() == [0]

    def test_feature_matrix_layout(self):
        ds = materialize_ticks(Channel.ENVIRONMENT, 0.01, *_toy_ticks())
        Z = ds.feature_matrix()
        assert Z.shape == (ds.n_samples, 3 * ds.n)
        assert np.allclose(Z[:, 0], ds.x[:, 0])
        assert np.allclose(Z[:, 1], ds.v[:, 0])
        assert np.allclose(Z[:, 2], ds.v_next[:, 0])

    def test_normalization_roundtrip(self):
        norm = Normalization(np.array([1.0, -2.0]), np.array([2.0, 0.5]))
        z = np.array([[3.0, -1.0], [1.0, -2.0]])
        assert np.allclose(norm.apply(z), [[1.0, 2.0], [0.0, 0.0]])
