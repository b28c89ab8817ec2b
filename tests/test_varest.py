import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ojainfer import (
    DEFAULT_ALPHA,
    Dataset,
    PAPER_M1,
    RegimeError,
    SeedSpec,
    batch_variance,
    learning_rate,
    median_of_means,
    oja_run,
    ojavarest,
    plan_schedule,
)
from ojainfer.oja import estimate_gap, gaussian_unit
from ojainfer.synth import sample

from conftest import random_unit


class TestPlanSchedule:
    def test_paper_experiment_shape(self):
        m1, m2, batch = plan_schedule(5000, 2000, 0.05, m1_override=3)
        assert (m1, m2, batch) == (3, 9, 185)

    def test_insufficient_data_rejected(self):
        # n = 54 (~ e^4) at d = 2, delta = 1/e: m2 = 4, m1 = ceil(8 ln(2e)) = 14,
        # leaving zero-sample batches.
        assert max(2, math.ceil(math.log(54))) == 4
        assert math.ceil(8.0 * math.log(2.0 * math.e)) == 14
        with pytest.raises(ValueError):
            plan_schedule(54, 2, 1.0 / math.e)

    def test_full_collapse_overrides(self):
        m1, m2, batch = plan_schedule(100, 5, 0.05, m1_override=1, m2_override=1)
        assert (m1, m2, batch) == (1, 1, 100)

    def test_delta_bounds(self):
        with pytest.raises(ValueError):
            plan_schedule(100, 5, 1.5)

    @given(n=st.integers(4, 10**6), d=st.integers(1, 5000),
           delta=st.floats(1e-6, 1.0, exclude_max=True),
           m1=st.none() | st.integers(1, 200), m2=st.none() | st.integers(1, 200))
    def test_invariants_or_refusal(self, n, d, delta, m1, m2):
        want_m1 = m1 if m1 is not None else math.ceil(8.0 * math.log(d / delta))
        want_m2 = m2 if m2 is not None else max(2, math.ceil(math.log(n)))
        if n // (want_m1 * want_m2) < 2:
            with pytest.raises(ValueError, match="insufficient data"):
                plan_schedule(n, d, delta, m1, m2)
            return
        got_m1, got_m2, batch = plan_schedule(n, d, delta, m1, m2)
        assert (got_m1, got_m2) == (want_m1, want_m2)
        assert got_m1 * got_m2 * batch <= n and batch >= 2


class TestBatchVariance:
    def test_zero_spread(self):
        vt = np.array([1.0, 0.0])
        np.testing.assert_array_equal(batch_variance([vt, vt, vt], vt), np.zeros(2))

    def test_single_orthogonal_vector(self):
        vt = np.array([1.0, 0.0])
        v = np.array([0.0, 1.0])
        np.testing.assert_array_equal(batch_variance([v], vt), v**2)

    def test_hand_computation(self):
        vt = np.array([1.0, 0.0])
        vecs = [np.array([0.0, 1.0]), np.array([0.6, 0.8])]
        np.testing.assert_allclose(batch_variance(vecs, vt), [0.0, 0.82], atol=1e-15)

    def test_sign_flip_bit_identical(self):
        rng = SeedSpec(101).rng()
        vt = random_unit(rng, 5)
        vecs = np.array([random_unit(rng, 5) for _ in range(4)])
        base = batch_variance(vecs, vt)
        flipped = vecs.copy()
        flipped[2] = -flipped[2]
        np.testing.assert_array_equal(batch_variance(flipped, vt), base)

    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 40), rows=st.integers(1, 12),
           flips=st.lists(st.booleans(), min_size=12, max_size=12))
    def test_any_sign_flips_bit_identical(self, seed, d, rows, flips):
        rng = SeedSpec(seed).rng()
        vt = random_unit(rng, d)
        vecs = np.array([random_unit(rng, d) for _ in range(rows)])
        signs = np.where(flips[:rows], -1.0, 1.0)
        np.testing.assert_array_equal(batch_variance(vecs * signs[:, None], vt),
                                      batch_variance(vecs, vt))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            batch_variance([np.array([1.0, 0.0])], np.array([1.0, 0.0, 0.0]))

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            batch_variance([np.array([2.0, 0.0])], np.array([1.0, 0.0]))


class TestMedianOfMeans:
    def test_odd(self):
        assert median_of_means([1, 2, 3, 4, 5]) == 3.0

    def test_even_middle_pair(self):
        assert median_of_means([1, 2, 3, 4]) == 2.5

    def test_singleton(self):
        assert median_of_means([7]) == 7.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            median_of_means([])

    @pytest.mark.parametrize("m1", [1, 2, 3, 4])
    def test_group_spreads_give_per_coordinate_medians(self, m1):
        spreads = SeedSpec(112).rng().standard_exponential((m1, 9))
        med = median_of_means(spreads)
        assert med.shape == (9,)
        np.testing.assert_array_equal(med, np.median(spreads, axis=0))


class TestOjaVarEst:
    def test_schedule_collapse_single_batch(self, synth3):
        sigma, eigen, root = synth3
        data = sample(root, 200, rng=SeedSpec(104).rng())
        gap = eigen.gap
        vt = eigen.leading
        result = ojavarest(data, 0.1, vt, gap, m1=1, m2=1, seed=SeedSpec(105))
        eta = learning_rate(200, gap, DEFAULT_ALPHA)
        u0 = gaussian_unit(SeedSpec(105).child(0).rng(), 3)
        v = oja_run(data.samples, eta, u0)
        resid = v - float(vt @ v) * vt
        np.testing.assert_allclose(result.gamma, resid**2 / (eta * gap), rtol=1e-12)

    def test_scale_identity_and_nonnegativity(self, synth3):
        sigma, eigen, root = synth3
        data = sample(root, 600, rng=SeedSpec(106).rng())
        result = ojavarest(data, 0.1, eigen.leading, eigen.gap, m1=3, m2=2, seed=SeedSpec(107))
        assert np.all(result.gamma >= 0.0)
        recomputed = np.median(result.batch_sigma2, axis=0) / (result.eta_b * eigen.gap)
        np.testing.assert_array_equal(result.gamma, recomputed)
        np.testing.assert_array_equal(
            result.gamma, median_of_means(result.batch_sigma2) / (result.eta_b * eigen.gap))
        np.testing.assert_array_equal(median_of_means(result.batch_sigma2),
                                      np.median(result.batch_sigma2, axis=0))

    def test_determinism(self, synth3):
        sigma, eigen, root = synth3
        data = sample(root, 600, rng=SeedSpec(108).rng())
        cfg = dict(m1=2, m2=3, seed=SeedSpec(109))
        a = ojavarest(data, 0.1, eigen.leading, eigen.gap, **cfg)
        b = ojavarest(data, 0.1, eigen.leading, eigen.gap, **cfg)
        np.testing.assert_array_equal(a.gamma, b.gamma)
        np.testing.assert_array_equal(a.batch_sigma2, b.batch_sigma2)

    def test_remainder_recorded(self, synth3):
        sigma, eigen, root = synth3
        data = sample(root, 205, rng=SeedSpec(110).rng())
        result = ojavarest(data, 0.1, eigen.leading, eigen.gap, m1=2, m2=2, seed=SeedSpec(111))
        assert result.batch_size == 51
        assert result.samples_unused == 205 - 4 * 51

    def test_refuses_pure_noise(self):
        # The plug-in gap of pure noise is at noise level, so eta_B is far too large.
        x = SeedSpec(206).rng().standard_normal((400, 10))
        data = Dataset(x - x.mean(axis=0))
        gap = estimate_gap(data)
        vt = oja_run(data, learning_rate(400, gap, 2.0), random_unit(SeedSpec(207).rng(), 10))
        with pytest.raises(RegimeError, match=r"eta_B \* lambda_1 = \d"):
            ojavarest(data, 0.05, vt, gap, m1=PAPER_M1)

    def test_regime_edge_is_eta_b_times_rayleigh_quotient(self):
        # Rows +-2 e1 and +-e2: the proxy e1 has Rayleigh quotient exactly 2.
        rows = np.array([[2.0, 0.0], [0.0, 1.0], [-2.0, 0.0], [0.0, -1.0]])
        data, e1 = Dataset(np.tile(rows, (25, 1))), np.array([1.0, 0.0])
        edge = learning_rate(plan_schedule(100, 2, 0.05, 2, 2)[2], 1.0, 2.0) * 2.0
        ojavarest(data, 0.05, e1, edge / 0.99, m1=2, m2=2)
        with pytest.raises(RegimeError, match="= 1.01 >= 1"):
            ojavarest(data, 0.05, e1, edge / 1.01, m1=2, m2=2)

    def test_collapsed_schedule_refused(self, synth3):
        sigma, eigen, root = synth3
        data = sample(root, 100, rng=SeedSpec(112).rng())
        with pytest.raises(ValueError, match=r"m1 must be at least 1 \(got 0\)"):
            ojavarest(data, 0.1, eigen.leading, eigen.gap, m1=0)

    def test_gap_must_be_positive(self, synth3):
        sigma, eigen, root = synth3
        data = sample(root, 100, rng=SeedSpec(112).rng())
        with pytest.raises(ValueError):
            ojavarest(data, 0.1, eigen.leading, 0.0)

    def test_relative_error_shrinks_with_n(self, synth50, asym50):
        # Default schedule: the batch size grows with n, so the batch-level
        # convergence terms of the error shrink; the trend is large enough to
        # resolve with few trials.
        sigma, eigen, root = synth50
        moments, asym = asym50
        vkk = asym.diag()
        top = np.argsort(vkk)[::-1][:5]
        gap = eigen.gap

        def median_max_err(n, seed):
            errs = []
            for t in range(12):
                st = SeedSpec(seed).child(t)
                data = sample(root, n, rng=st.child(0).rng())
                u0 = gaussian_unit(st.child(1).rng(), 50)
                vt = oja_run(data, learning_rate(n, gap, 2.0), u0)
                res = ojavarest(data, 0.05, vt, gap, seed=st.child(2))
                errs.append(np.max(np.abs(res.gamma[top] - vkk[top]) / vkk[top]))
            return np.median(errs)

        assert median_max_err(40_000, 120) <= median_max_err(10_000, 121)
