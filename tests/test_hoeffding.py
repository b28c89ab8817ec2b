import numpy as np
import pytest

from ojainfer import (
    SeedSpec,
    eigendecompose,
    hajek_projection,
    hoeffding_term,
    matrix_product,
    oja_run,
    residual_decomposition,
)
from ojainfer.synth import sample

from conftest import random_unit


def random_instance(rng, n, d, eta_max=0.2):
    """Random rank-one sample matrices plus a nearby centering matrix."""
    x = rng.standard_normal((n, d))
    mats = x[:, :, None] * x[:, None, :]
    a = rng.standard_normal((d, d))
    sigma = (a @ a.T) / d
    eta = float(rng.uniform(0.01, eta_max))
    return x, mats, sigma, eta


class TestMatrixProduct:
    def test_empty_product_is_identity(self):
        np.testing.assert_array_equal(matrix_product(np.empty((0, 3, 3)), 0.5), np.eye(3))
        np.testing.assert_array_equal(matrix_product([], 0.5, dim=2), np.eye(2))

    def test_single_rank_one_factor(self):
        a = np.zeros((3, 3))
        a[0, 0] = 1.0
        np.testing.assert_array_equal(matrix_product([a], 0.5), np.diag([1.5, 1.0, 1.0]))

    def test_matches_columnwise_application(self):
        rng = SeedSpec(71).rng()
        mats = rng.standard_normal((3, 3, 3))
        eta = 0.1
        b = matrix_product(mats, eta)
        cols = []
        for j in range(3):
            v = np.eye(3)[j]
            for a in mats:
                v = v + eta * (a @ v)
            cols.append(v)
        np.testing.assert_allclose(b, np.column_stack(cols), rtol=1e-13)


class TestHoeffdingTerm:
    def test_order_zero_is_plain_power(self):
        rng = SeedSpec(73).rng()
        _, mats, sigma, eta = random_instance(rng, 5, 3)
        expected = np.linalg.matrix_power(np.eye(3) + eta * sigma, 5)
        np.testing.assert_allclose(hoeffding_term(mats, sigma, eta, 0), expected, rtol=1e-12)

    def test_single_sample_order_one(self):
        rng = SeedSpec(74).rng()
        _, mats, sigma, eta = random_instance(rng, 1, 3)
        np.testing.assert_allclose(hoeffding_term(mats, sigma, eta, 1), eta * (mats[0] - sigma), rtol=1e-13)

    def test_terms_sum_to_product(self):
        rng = SeedSpec(75).rng()
        _, mats, sigma, eta = random_instance(rng, 6, 3)
        total = sum(hoeffding_term(mats, sigma, eta, k) for k in range(7))
        b = matrix_product(mats, eta)
        assert np.linalg.norm(b - total, "fro") <= 1e-10 * np.linalg.norm(b, "fro")

    def test_enumeration_cap_and_range(self):
        mats = np.zeros((15, 2, 2))
        with pytest.raises(ValueError):
            hoeffding_term(mats, np.eye(2), 0.1, 1)
        with pytest.raises(ValueError):
            hoeffding_term(np.zeros((3, 2, 2)), np.eye(2), 0.1, 4)

    def test_order_terms_pairwise_uncorrelated(self, synth3):
        # Sample covariance of <M, T1> and <M, T2> over resampled data stays
        # within 4 standard errors of zero for a fixed probe M.
        spec, sigma, eigen, root = synth3
        rng = SeedSpec(79).rng()
        probe = rng.standard_normal((3, 3))
        n, eta, resamples = 4, 0.05, 5000
        t1s = np.empty(resamples)
        t2s = np.empty(resamples)
        for i in range(resamples):
            x = sample(spec, root, n, rng=SeedSpec(80).child(i).rng()).samples
            mats = x[:, :, None] * x[:, None, :]
            t1s[i] = np.sum(probe * hoeffding_term(mats, sigma, eta, 1))
            t2s[i] = np.sum(probe * hoeffding_term(mats, sigma, eta, 2))
        cov = np.mean((t1s - t1s.mean()) * (t2s - t2s.mean()))
        se = np.sqrt(t1s.var() * t2s.var() / resamples)
        assert abs(cov) <= 4.0 * se


class TestHajekProjection:
    def test_zero_when_samples_match_centering(self, synth3):
        spec, sigma, eigen, root = synth3
        mats = np.broadcast_to(sigma, (6, 3, 3)).copy()
        u0 = random_unit(SeedSpec(81).rng(), 3)
        np.testing.assert_allclose(hajek_projection(mats, sigma, eigen, 0.05, u0), np.zeros(3), atol=1e-14)

    def test_single_sample_closed_form(self):
        rng = SeedSpec(83).rng()
        sigma = np.diag([3.0, 1.0])
        eigen = eigendecompose(sigma)
        x = rng.standard_normal(2)
        mats = np.array([np.outer(x, x)])
        u0 = random_unit(rng, 2)
        eta = 0.1
        v1, v2 = eigen.leading, eigen.tail_basis[:, 0]
        sgn = 1.0 if v1 @ u0 >= 0 else -1.0
        expected = eta * sgn / (1.0 + eta * 3.0) * np.outer(v2, v2) @ (mats[0] - sigma) @ v1
        np.testing.assert_allclose(hajek_projection(mats, sigma, eigen, eta, u0), expected, rtol=1e-12)

    def test_matches_order_one_term_formula(self, synth3):
        spec, sigma, eigen, root = synth3
        rng = SeedSpec(87).rng()
        n, eta = 5, 0.04
        x = sample(spec, root, n, rng=rng).samples
        mats = x[:, :, None] * x[:, None, :]
        u0 = random_unit(rng, 3)
        t1 = hoeffding_term(mats, sigma, eta, 1)
        vp = eigen.tail_basis
        denom = (1.0 + eta * eigen.eigenvalues[0]) ** n
        sgn = 1.0 if eigen.leading @ u0 >= 0 else -1.0
        expected = sgn / denom * (vp @ (vp.T @ (t1 @ eigen.leading)))
        got = hajek_projection(mats, sigma, eigen, eta, u0)
        assert np.linalg.norm(got - expected) <= 1e-10


class TestResidualDecomposition:
    def test_proxy_equal_truth_zeroes_recentering(self, synth3):
        spec, sigma, eigen, root = synth3
        rng = SeedSpec(89).rng()
        x = sample(spec, root, 6, rng=rng).samples
        mats = x[:, :, None] * x[:, None, :]
        u0 = random_unit(rng, 3)
        report = residual_decomposition(mats, sigma, eigen, 0.03, u0, eigen.leading)
        np.testing.assert_array_equal(report.e0, np.zeros(3))
        report.validate()

    def test_deterministic_fixed_point(self, synth3):
        spec, sigma, eigen, root = synth3
        mats = np.broadcast_to(sigma, (5, 3, 3)).copy()
        v1 = eigen.leading
        report = residual_decomposition(mats, sigma, eigen, 0.03, v1, v1)
        assert np.linalg.norm(report.e1) <= 1e-10
        assert np.linalg.norm(report.e2) <= 1e-10
        assert np.linalg.norm(report.e4) <= 1e-10
        assert np.linalg.norm(report.v_est - v1) <= 1e-10

    def test_pieces_sum_to_direct_run_residual(self, synth3):
        spec, sigma, eigen, root = synth3
        rng = SeedSpec(91).rng()
        for _ in range(10):
            n = int(rng.integers(2, 9))
            x = sample(spec, root, n, rng=rng).samples
            mats = x[:, :, None] * x[:, None, :]
            u0 = random_unit(rng, 3)
            vt = eigen.leading + 0.05 * rng.standard_normal(3)
            vt /= np.linalg.norm(vt)
            eta = float(rng.uniform(0.01, 0.1))
            report = residual_decomposition(mats, sigma, eigen, eta, u0, vt)
            report.validate()
            direct = oja_run(x, eta, u0).estimate
            if direct @ report.v_est < 0:
                direct = -direct
            target = direct - float(vt @ direct) * vt
            assert np.linalg.norm(report.residual_sum() - target) <= 1e-9

    def test_exact_enumeration_matches_recentered_e2(self, synth3):
        spec, sigma, eigen, root = synth3
        rng = SeedSpec(93).rng()
        x = sample(spec, root, 7, rng=rng).samples
        mats = x[:, :, None] * x[:, None, :]
        u0 = random_unit(rng, 3)
        vt = random_unit(rng, 3)
        fast = residual_decomposition(mats, sigma, eigen, 0.05, u0, vt)
        slow = residual_decomposition(mats, sigma, eigen, 0.05, u0, vt, exact_e2=True)
        assert np.linalg.norm(fast.e2 - slow.e2) <= 1e-11

    def test_orthogonal_start_rejected(self):
        sigma = np.diag([3.0, 1.0])
        eigen = eigendecompose(sigma)
        mats = np.broadcast_to(sigma, (3, 2, 2)).copy()
        u0 = eigen.tail_basis[:, 0]
        with pytest.raises(ValueError):
            residual_decomposition(mats, sigma, eigen, 0.1, u0, eigen.leading)

    def test_json_round_trip(self, synth3):
        spec, sigma, eigen, root = synth3
        rng = SeedSpec(95).rng()
        x = sample(spec, root, 4, rng=rng).samples
        mats = x[:, :, None] * x[:, None, :]
        report = residual_decomposition(mats, sigma, eigen, 0.05, random_unit(rng, 3), eigen.leading)
        import json

        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["n"] == 4 and payload["d"] == 3
        np.testing.assert_allclose(np.asarray(payload["e1"]), report.e1)

    def test_leading_fluctuation_dominates_higher_order(self, synth5):
        # Mean squared mass of the order >= 2 pieces plus normalization and
        # initialization leakage stays below 10% of the leading piece.
        spec, sigma, eigen, root = synth5
        from ojainfer.oja import learning_rate

        n, trials = 2000, 500
        eta = learning_rate(n, eigen.gap, 2.0)
        lead, rest = 0.0, 0.0
        for t in range(trials):
            st = SeedSpec(97).child(t)
            x = sample(spec, root, n, rng=st.child(0).rng()).samples
            mats = x[:, :, None] * x[:, None, :]
            u0 = random_unit(st.child(1).rng(), 5)
            rep = residual_decomposition(mats, sigma, eigen, eta, u0, eigen.leading,
                                         include_terms=False)
            lead += float(rep.e1 @ rep.e1)
            rest += float(np.linalg.norm(rep.e2 + rep.e3 + rep.e4) ** 2)
        assert rest / trials <= 0.1 * (lead / trials)
