import math

import numpy as np
import pytest

from ojainfer import (
    Dataset, DegenerateGapError, SeedSpec, eigendecompose, learning_rate, oja_boosted,
    oja_run, sample_covariance, sin2,
)
from ojainfer.hoeffding import matrix_product
from ojainfer.oja import estimate_gap, gaussian_unit

from conftest import random_unit


class TestLearningRate:
    def test_formula_values(self):
        assert learning_rate(1000, 1.0, 2.0) == pytest.approx(2.0 * math.log(1000) / 1000, rel=1e-14)
        assert learning_rate(1000, 1.0, 2.0) == pytest.approx(0.0138155, abs=1e-7)
        assert learning_rate(math.e**2, 1.0, 1.5) == pytest.approx(3.0 / math.e**2, rel=1e-12)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            learning_rate(1, 1.0, 2.0)
        for gap in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match=f"^gap must be positive .*got {gap}"):
                learning_rate(1000, gap, 2.0)
        for alpha in (1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match=f"^alpha must exceed 1 .*got {alpha}"):
                learning_rate(1000, 1.0, alpha)


class TestOjaRun:
    def test_one_step_hand_computation(self):
        out = oja_run(np.array([[1.0, 0.0]]), 0.5, np.array([0.6, 0.8]))
        np.testing.assert_allclose(out, [0.74741, 0.66437], atol=1e-5)
        expected = np.array([0.9, 0.8]) / np.linalg.norm([0.9, 0.8])
        np.testing.assert_allclose(out, expected, rtol=1e-14)

    def test_fixed_point(self):
        e1 = np.array([1.0, 0.0, 0.0])
        data = np.tile(e1, (25, 1))
        out = oja_run(data, 0.5, e1)
        np.testing.assert_array_equal(out, e1)

    def test_unit_norm_and_bookkeeping(self):
        rng = SeedSpec(41).rng()
        data = rng.standard_normal((200, 6))
        u0 = random_unit(rng, 6)
        out = oja_run(data, 0.01, u0)
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-10

    def test_single_pass_over_generator_stream(self):
        rng = SeedSpec(43).rng()
        pulls = 0

        def stream(n, d):
            nonlocal pulls
            for _ in range(n):
                pulls += 1
                yield rng.standard_normal(d)

        out = oja_run(stream(100_000, 4), 1e-4, random_unit(rng, 4))
        assert pulls == 100_000

    def test_matches_explicit_product(self):
        rng = SeedSpec(47).rng()
        for _ in range(20):
            n = int(rng.integers(1, 51))
            d = int(rng.integers(2, 11))
            eta = float(rng.uniform(0.01, 0.2))
            x = rng.standard_normal((n, d))
            u0 = random_unit(rng, d)
            b = matrix_product(x, eta)
            oracle = b @ u0
            oracle /= np.linalg.norm(oracle)
            out = oja_run(x, eta, u0)
            assert sin2(out, oracle) <= 1e-8

    def test_errors(self):
        e1 = np.array([1.0, 0.0])
        with pytest.raises(ValueError):
            oja_run(np.array([[1.0, 0.0, 0.0]]), 0.1, e1)  # dimension mismatch
        with pytest.raises(ValueError):
            oja_run(np.empty((0, 2)), 0.1, e1)  # empty stream
        with pytest.raises(ValueError):
            oja_run(np.array([[1.0, 0.0]]), -0.1, e1)
        with pytest.raises(ValueError):
            oja_run(np.array([[1.0, 0.0]]), 0.1, np.array([0.5, 0.0]))

    def test_converges_on_spiked_covariance(self):
        # Sigma = diag(4, 1, ..., 1) in d=10; ground truth direction is e1.
        d, n, trials = 10, 2000, 100
        scales = np.sqrt(np.array([4.0] + [1.0] * (d - 1)))
        eta = learning_rate(n, 3.0, 2.0)
        e1 = np.eye(d)[0]
        hits = 0
        for t in range(trials):
            st = SeedSpec(51).child(t)
            x = st.child(0).rng().standard_normal((n, d)) * scales
            u0 = gaussian_unit(st.child(1).rng(), d)
            out = oja_run(x, eta, u0)
            hits += sin2(out, e1) <= 0.05
        assert hits >= 90

    def test_median_error_shrinks_with_n(self):
        d = 10
        scales = np.sqrt(np.array([4.0] + [1.0] * (d - 1)))
        e1 = np.eye(d)[0]

        def median_err(n, seed):
            errs = []
            for t in range(20):
                st = SeedSpec(seed).child(t)
                x = st.child(0).rng().standard_normal((n, d)) * scales
                u0 = gaussian_unit(st.child(1).rng(), d)
                errs.append(sin2(oja_run(x, learning_rate(n, 3.0, 2.0), u0), e1))
            return np.median(errs)

        assert median_err(4000, 53) < median_err(500, 54)


class TestEstimateGap:
    def test_recovers_known_gap(self):
        rng = SeedSpec(59).rng()
        scales = np.sqrt(np.array([4.0, 1.0, 1.0]))
        data = Dataset(rng.standard_normal((6000, 3)) * scales)
        assert estimate_gap(data) == pytest.approx(3.0, rel=0.25)

    @pytest.mark.parametrize("n, d", [(6000, 3), (5000, 40), (300, 2)])
    def test_equals_full_decomposition(self, n, d):
        data = Dataset(SeedSpec(60).rng().standard_normal((n, d)) * np.linspace(2.0, 1.0, d))
        full = eigendecompose(sample_covariance(Dataset(data.samples[:4096]))).gap
        assert estimate_gap(data) == pytest.approx(full, rel=1e-12)

    def test_degenerate_gap_rejected(self):
        data = Dataset(np.tile(np.eye(3), (10, 1)))
        with pytest.raises(DegenerateGapError, match="eigengap .* is degenerate"):
            estimate_gap(data)


class TestOjaBoosted:
    def test_single_batch_reduces_to_plain_run(self, synth3):
        sigma, eigen, root = synth3
        from ojainfer.synth import sample

        data = sample(root, 300, rng=SeedSpec(61).rng())
        boosted = oja_boosted(data, 0.5, eigen.gap, 2.0, SeedSpec(62))  # ceil(ln 2) = 1 batch
        u0 = gaussian_unit(SeedSpec(62).child(0).rng(), 3)
        plain = oja_run(data, learning_rate(300, eigen.gap, 2.0), u0)
        np.testing.assert_array_equal(boosted, plain)

    def test_picks_one_of_the_coinciding_candidates(self):
        # Three contiguous batches: two driven to e1, one driven to e2.
        d, per = 2, 40
        e1, e2 = np.eye(2)
        data = Dataset(np.vstack([np.tile(e1, (per, 1)), np.tile(e1, (per, 1)), np.tile(e2, (per, 1))]))
        out = oja_boosted(data, 0.08, 1.0, 2.0, SeedSpec(63))  # ceil(ln(1/0.08)) = 3 batches
        # Winner must come from the coinciding pair (near e1), never the
        # orthogonal candidate (sin2 ~= 1 against e1).
        assert sin2(out, e1) <= 1e-3

    def test_no_worse_than_median_single_batch(self, monkeypatch):
        d, n, trials = 10, 6000, 50
        scales = np.sqrt(np.array([4.0] + [1.0] * (d - 1)))
        e1 = np.eye(d)[0]
        boosted_errs, batch_medians = [], []
        for t in range(trials):
            st = SeedSpec(67).child(t)
            x = st.child(0).rng().standard_normal((n, d)) * scales
            data = Dataset(x)
            out = oja_boosted(data, 0.05, 3.0, 2.0, st.child(1))  # ceil(ln 20) = 3 batches
            boosted_errs.append(sin2(out, e1))
            batch = n // 3
            eta = learning_rate(batch, 3.0, 2.0)
            errs = []
            for j in range(3):
                u0 = gaussian_unit(st.child(1).child(j).rng(), d)
                v = oja_run(x[j * batch : (j + 1) * batch], eta, u0)
                errs.append(sin2(v, e1))
            batch_medians.append(np.median(errs))
        assert np.median(boosted_errs) <= np.median(batch_medians)

    def test_too_small_dataset_rejected(self):
        data = Dataset(np.ones((4, 2)))
        with pytest.raises(ValueError):
            oja_boosted(data, 0.01, 1.0, 2.0, SeedSpec(68))  # 5 batches of 0 samples

    def test_refuses_bad_alpha_and_gap(self):
        data = Dataset(np.ones((40, 2)))
        with pytest.raises(ValueError, match="alpha must exceed 1"):
            oja_boosted(data, 0.5, 1.0, 1.0, SeedSpec(69))
        with pytest.raises(ValueError, match="gap must be positive"):
            oja_boosted(data, 0.5, 0.0, 2.0, SeedSpec(69))
