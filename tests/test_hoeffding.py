import json

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
from ojainfer.io import write_json
from ojainfer.synth import sample

from conftest import random_unit, rank_one


def random_instance(rng, n, d, eta_max=0.2):
    """Random sample rows plus a nearby centering matrix."""
    x = rng.standard_normal((n, d))
    a = rng.standard_normal((d, d))
    sigma = (a @ a.T) / d
    eta = float(rng.uniform(0.01, eta_max))
    return x, sigma, eta


def test_matrix_stack_is_refused_naming_its_shape(synth3):
    # The functions take (n, d) sample rows; an (n, d, d) stack of A_i is not one.
    sigma, eigen, root = synth3
    x = sample(root, 4, rng=SeedSpec(70).rng()).samples
    stack = x[:, :, None] * x[:, None, :]
    u0 = eigen.leading
    calls = [
        lambda: matrix_product(stack, 0.1),
        lambda: hoeffding_term(stack, sigma, 0.1, 1),
        lambda: hajek_projection(stack, sigma, eigen, 0.1, u0),
        lambda: residual_decomposition(stack, sigma, eigen, 0.1, u0, u0),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=r"\(4, 3, 3\)"):
            call()


class TestMatrixProduct:
    def test_empty_product_is_identity(self):
        np.testing.assert_array_equal(matrix_product(np.empty((0, 3)), 0.5), np.eye(3))
        np.testing.assert_array_equal(matrix_product(np.empty((0, 2)), 0.5), np.eye(2))

    def test_single_rank_one_factor(self):
        np.testing.assert_array_equal(matrix_product([[1.0, 0.0, 0.0]], 0.5), np.diag([1.5, 1.0, 1.0]))

    def test_matches_columnwise_application(self):
        rng = SeedSpec(71).rng()
        x = rng.standard_normal((3, 3))
        eta = 0.1
        b = matrix_product(x, eta)
        cols = []
        for j in range(3):
            v = np.eye(3)[j]
            for row in x:
                v = v + eta * (np.outer(row, row) @ v)
            cols.append(v)
        np.testing.assert_allclose(b, np.column_stack(cols), rtol=1e-13)


class TestHoeffdingTerm:
    def test_order_zero_is_plain_power(self):
        rng = SeedSpec(73).rng()
        x, sigma, eta = random_instance(rng, 5, 3)
        expected = np.linalg.matrix_power(np.eye(3) + eta * sigma, 5)
        np.testing.assert_allclose(hoeffding_term(x, sigma, eta, 0), expected, rtol=1e-12)

    def test_single_sample_order_one(self):
        rng = SeedSpec(74).rng()
        x, sigma, eta = random_instance(rng, 1, 3)
        np.testing.assert_allclose(hoeffding_term(x, sigma, eta, 1), eta * (np.outer(x[0], x[0]) - sigma),
                                   rtol=1e-13)

    def test_terms_sum_to_product(self):
        rng = SeedSpec(75).rng()
        x, sigma, eta = random_instance(rng, 6, 3)
        total = sum(hoeffding_term(x, sigma, eta, k) for k in range(7))
        b = matrix_product(x, eta)
        assert np.linalg.norm(b - total, "fro") <= 1e-10 * np.linalg.norm(b, "fro")

    def test_enumeration_cap_and_range(self):
        with pytest.raises(ValueError):
            hoeffding_term(np.zeros((15, 2)), np.eye(2), 0.1, 1)
        with pytest.raises(ValueError):
            hoeffding_term(np.zeros((3, 2)), np.eye(2), 0.1, 4)

    def test_order_terms_pairwise_uncorrelated(self, synth3):
        # Sample covariance of <M, T1> and <M, T2> over resampled data stays
        # within 4 standard errors of zero for a fixed probe M.
        sigma, eigen, root = synth3
        rng = SeedSpec(79).rng()
        probe = rng.standard_normal((3, 3))
        n, eta, resamples = 4, 0.05, 5000
        t1s = np.empty(resamples)
        t2s = np.empty(resamples)
        for i in range(resamples):
            x = sample(root, n, rng=SeedSpec(80).child(i).rng()).samples
            t1s[i] = np.sum(probe * hoeffding_term(x, sigma, eta, 1))
            t2s[i] = np.sum(probe * hoeffding_term(x, sigma, eta, 2))
        cov = np.mean((t1s - t1s.mean()) * (t2s - t2s.mean()))
        se = np.sqrt(t1s.var() * t2s.var() / resamples)
        assert abs(cov) <= 4.0 * se


class TestHajekProjection:
    def test_zero_when_samples_match_centering(self):
        # Every row is sqrt(lam) v, so every A_j is Sigma = lam v v^T up to rounding.
        sigma, draw = rank_one(2.5, [1.0, 2.0, 2.0])
        eigen = eigendecompose(sigma)
        u0 = random_unit(SeedSpec(81).rng(), 3)
        np.testing.assert_allclose(hajek_projection(draw(None, 6), sigma, eigen, 0.05, u0), np.zeros(3),
                                   atol=1e-14)

    def test_single_sample_closed_form(self):
        rng = SeedSpec(83).rng()
        sigma = np.diag([3.0, 1.0])
        eigen = eigendecompose(sigma)
        x = rng.standard_normal(2)
        u0 = random_unit(rng, 2)
        eta = 0.1
        v1, v2 = eigen.leading, eigen.tail_basis[:, 0]
        sgn = 1.0 if v1 @ u0 >= 0 else -1.0
        expected = eta * sgn / (1.0 + eta * 3.0) * np.outer(v2, v2) @ (np.outer(x, x) - sigma) @ v1
        np.testing.assert_allclose(hajek_projection(x[None], sigma, eigen, eta, u0), expected, rtol=1e-12)

    def test_matches_order_one_term_formula(self, synth3):
        sigma, eigen, root = synth3
        rng = SeedSpec(87).rng()
        n, eta = 5, 0.04
        x = sample(root, n, rng=rng).samples
        u0 = random_unit(rng, 3)
        t1 = hoeffding_term(x, sigma, eta, 1)
        vp = eigen.tail_basis
        denom = (1.0 + eta * eigen.eigenvalues[0]) ** n
        sgn = 1.0 if eigen.leading @ u0 >= 0 else -1.0
        expected = sgn / denom * (vp @ (vp.T @ (t1 @ eigen.leading)))
        got = hajek_projection(x, sigma, eigen, eta, u0)
        assert np.linalg.norm(got - expected) <= 1e-10


class TestResidualDecomposition:
    def test_proxy_equal_truth_zeroes_recentering(self, synth3):
        sigma, eigen, root = synth3
        rng = SeedSpec(89).rng()
        x = sample(root, 6, rng=rng).samples
        u0 = random_unit(rng, 3)
        report = residual_decomposition(x, sigma, eigen, 0.03, u0, eigen.leading)
        np.testing.assert_array_equal(report.e0, np.zeros(3))
        report.validate()

    def test_deterministic_fixed_point(self):
        sigma, draw = rank_one(2.5, [1.0, 2.0, 2.0])
        eigen = eigendecompose(sigma)
        v1 = eigen.leading
        report = residual_decomposition(draw(None, 5), sigma, eigen, 0.03, v1, v1)
        assert np.linalg.norm(report.e1) <= 1e-10
        assert np.linalg.norm(report.e2) <= 1e-10
        assert np.linalg.norm(report.e4) <= 1e-10
        assert np.linalg.norm(report.v_est - v1) <= 1e-10

    def test_pieces_sum_to_direct_run_residual(self, synth3):
        sigma, eigen, root = synth3
        rng = SeedSpec(91).rng()
        for _ in range(10):
            n = int(rng.integers(2, 9))
            x = sample(root, n, rng=rng).samples
            u0 = random_unit(rng, 3)
            vt = eigen.leading + 0.05 * rng.standard_normal(3)
            vt /= np.linalg.norm(vt)
            eta = float(rng.uniform(0.01, 0.1))
            report = residual_decomposition(x, sigma, eigen, eta, u0, vt)
            report.validate()
            direct = oja_run(x, eta, u0)
            if direct @ report.v_est < 0:
                direct = -direct
            target = direct - float(vt @ direct) * vt
            assert np.linalg.norm(report.residual_sum() - target) <= 1e-9

    def test_exact_enumeration_matches_recentered_e2(self, synth3):
        sigma, eigen, root = synth3
        rng = SeedSpec(93).rng()
        x = sample(root, 7, rng=rng).samples
        u0 = random_unit(rng, 3)
        vt = random_unit(rng, 3)
        fast = residual_decomposition(x, sigma, eigen, 0.05, u0, vt)
        slow = residual_decomposition(x, sigma, eigen, 0.05, u0, vt, exact_e2=True)
        assert np.linalg.norm(fast.e2 - slow.e2) <= 1e-11

    def test_orthogonal_start_rejected(self):
        sigma, draw = rank_one(3.0, [1.0, 0.0])
        eigen = eigendecompose(sigma)
        u0 = eigen.tail_basis[:, 0]
        with pytest.raises(ValueError, match="orthogonal"):
            residual_decomposition(draw(None, 3), sigma, eigen, 0.1, u0, eigen.leading)

    @pytest.mark.parametrize("eta", [-0.05, 0.0, float("nan"), float("inf")])
    def test_step_must_be_positive_and_finite(self, synth3, eta):
        # The rule oracle --eta applies; a NaN step once reached "(1 + eta*lambda_1)^n overflowed".
        sigma, eigen, root = synth3
        rng = SeedSpec(96).rng()
        x = sample(root, 4, rng=rng).samples
        with pytest.raises(ValueError, match=rf"^eta must be positive and finite \(got {eta}\)"):
            residual_decomposition(x, sigma, eigen, eta, random_unit(rng, 3), eigen.leading)

    def test_json_round_trip(self, synth3, tmp_path):
        sigma, eigen, root = synth3
        rng = SeedSpec(95).rng()
        x = sample(root, 4, rng=rng).samples
        report = residual_decomposition(x, sigma, eigen, 0.05, random_unit(rng, 3), eigen.leading)
        write_json(tmp_path / "report.json", report)
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["n"] == 4 and payload["d"] == 3
        np.testing.assert_allclose(np.asarray(payload["e1"]), report.e1)

    def test_leading_fluctuation_dominates_higher_order(self, synth5):
        # Mean squared mass of the order >= 2 pieces plus normalization and
        # initialization leakage stays below 10% of the leading piece.
        sigma, eigen, root = synth5
        from ojainfer.oja import learning_rate

        n, trials = 2000, 500
        eta = learning_rate(n, eigen.gap, 2.0)
        lead, rest = 0.0, 0.0
        for t in range(trials):
            st = SeedSpec(97).child(t)
            x = sample(root, n, rng=st.child(0).rng()).samples
            u0 = random_unit(st.child(1).rng(), 5)
            rep = residual_decomposition(x, sigma, eigen, eta, u0, eigen.leading,
                                         include_terms=False)
            lead += float(rep.e1 @ rep.e1)
            rest += float(np.linalg.norm(rep.e2 + rep.e3 + rep.e4) ** 2)
        assert rest / trials <= 0.1 * (lead / trials)
