import math

import numpy as np
import pytest

from ojainfer import ConfidenceBand, SeedSpec, build_ci, median_of_means, normal_quantile
from ojainfer.experiments import method_variance
from ojainfer.inference import band_hits
from ojainfer.oja import learning_rate

from checks import AD_CRITICAL, anderson_darling, check_clt, check_entrywise_bound, normal_cdf
from conftest import random_unit


class TestNormalQuantile:
    def test_95_percent_two_sided(self):
        assert normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-6)

    def test_median_band(self):
        assert normal_quantile(0.75) == pytest.approx(0.6744897501960817, abs=1e-9)

    def test_consistent_with_cdf(self):
        for p in (0.01, 0.3, 0.5, 0.9, 0.999):
            assert normal_cdf(normal_quantile(p)) == pytest.approx(p, abs=1e-10)

    def test_domain(self):
        with pytest.raises(ValueError):
            normal_quantile(0.0)
        with pytest.raises(ValueError):
            normal_quantile(1.0)


class TestBuildCi:
    def test_hand_example(self):
        center = np.array([0.5, math.sqrt(1.0 - 0.25)])
        band = build_ci(center, np.array([1e-4, 1e-4]), 0.95)
        assert band.lower()[0] == pytest.approx(0.48040, abs=1e-5)
        assert band.upper()[0] == pytest.approx(0.51960, abs=1e-5)

    def test_zero_variance_zero_width(self):
        center = np.array([1.0, 0.0])
        band = build_ci(center, np.zeros(2), 0.9)
        np.testing.assert_array_equal(band.half_width, np.zeros(2))
        np.testing.assert_array_equal(band.lower(), band.upper())

    def test_median_level_quantile(self):
        center = np.array([1.0, 0.0])
        band = build_ci(center, np.array([1.0, 1.0]), 0.5)
        np.testing.assert_allclose(band.half_width, 0.6744897501960817 * np.ones(2), atol=1e-9)

    def test_full_scale_rescales(self, synth3):
        sigma, eigen, root = synth3
        from ojainfer.synth import sample

        data = sample(root, 400, rng=SeedSpec(170).rng())
        eta_n = learning_rate(data.n, eigen.gap, 2.0)
        args = ("ojavarest", data, eigen.leading, eigen.gap, 2.0, SeedSpec(170), 0.05, 2, 2)
        full_s2, result = method_variance(*args)
        batch = build_ci(eigen.leading, median_of_means(result.batch_sigma2), 0.95)
        full = build_ci(eigen.leading, full_s2, 0.95)
        ratio = math.sqrt(eta_n / result.eta_b)
        np.testing.assert_allclose(full.half_width, batch.half_width * ratio, rtol=1e-12)

    def test_symmetry_by_construction(self):
        rng = SeedSpec(171).rng()
        center = random_unit(rng, 6)
        band = build_ci(center, rng.uniform(0.0, 0.1, 6), 0.8)
        np.testing.assert_allclose((band.lower() + band.upper()) / 2.0, band.center, atol=1e-15)

    def test_validation(self):
        center = np.array([1.0, 0.0])
        with pytest.raises(ValueError):
            build_ci(center, np.array([-1.0, 0.0]), 0.95)
        for level in (1.5, 0.0, math.nan):
            with pytest.raises(ValueError, match=rf"^level must lie in \(0, 1\) \(got {level}\)"):
                build_ci(center, np.zeros(2), level)


class TestEvaluateCoverage:
    """A band is scored against the truth by band_hits, one 0/1 per coordinate."""

    def test_infinite_width_covers_everything(self):
        rng = SeedSpec(173).rng()
        truth = random_unit(rng, 4)
        for _ in range(5):
            band = ConfidenceBand(random_unit(rng, 4), np.full(4, np.inf), 0.95)
            np.testing.assert_array_equal(band_hits(band, truth), np.ones(4))

    def test_zero_width_wrong_center_misses(self):
        truth = np.array([1.0, 0.0])
        off = np.array([0.6, 0.8])
        np.testing.assert_array_equal(band_hits(ConfidenceBand(off, np.zeros(2), 0.95), truth), np.zeros(2))

    def test_sign_alignment_applied(self):
        truth = np.array([0.6, 0.8])
        np.testing.assert_array_equal(band_hits(ConfidenceBand(-truth, np.zeros(2), 0.95), truth), np.ones(2))

    def test_doubling_widths_never_decreases_coverage(self):
        rng = SeedSpec(179).rng()
        truth = random_unit(rng, 5)
        for _ in range(40):
            center = random_unit(rng, 5)
            hw = rng.uniform(0.0, 0.5, 5)
            narrow = band_hits(ConfidenceBand(center, hw, 0.95), truth)
            wide = band_hits(ConfidenceBand(center, 2.0 * hw, 0.95), truth)
            assert np.all(wide >= narrow)

    def test_band_hits_dimension_mismatch(self):
        with pytest.raises(ValueError):
            band_hits(ConfidenceBand(np.array([1.0, 0.0]), np.zeros(2), 0.95), np.array([1.0, 0.0, 0.0]))


class TestResidualAggregation:
    def test_squared_residuals_sum_to_sin2(self):
        rng = SeedSpec(181).rng()
        for _ in range(50):
            d = int(rng.integers(2, 10))
            v1 = random_unit(rng, d)
            v = random_unit(rng, d)
            resid = v - float(v1 @ v) * v1
            assert abs(float(resid @ resid) - (1.0 - float(v1 @ v) ** 2)) <= 1e-10


class TestAndersonDarling:
    def test_gaussian_reference_passes(self):
        z = SeedSpec(183).rng().standard_normal(2000)
        assert anderson_darling(z) < AD_CRITICAL

    def test_uniform_data_fails(self):
        u = SeedSpec(184).rng().uniform(-1.0, 1.0, 2000)
        assert anderson_darling(u) > AD_CRITICAL

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            anderson_darling(np.ones(100))


class TestCheckEntrywiseBound:
    def test_trials_floor(self):
        with pytest.raises(ValueError):
            check_entrywise_bound(np.zeros((50, 3)), np.ones(3), 0.01, 1.0)

    def test_negligible_variance_excluded(self):
        rng = SeedSpec(185).rng()
        res = rng.standard_normal((300, 3)) * 0.01
        v_diag = np.array([1.0, 1e-13, 1.0])
        report = check_entrywise_bound(res, v_diag, 0.01, 1.0)
        assert report.excluded == [1]
        assert set(report.ratios) == {0, 2}

    def test_most_strong_coordinates_pass(self, synth5, asym5, residuals5):
        sigma, eigen, root = synth5
        moments, asym = asym5
        vkk = asym.diag()
        eta = learning_rate(4000, eigen.gap, 2.0)
        report = check_entrywise_bound(residuals5, vkk, eta, eigen.gap)
        strong = [k for k in report.ratios if vkk[k] >= 0.1 * vkk.max()]
        passing = [k for k in strong if k not in report.flagged]
        assert len(passing) >= 0.9 * len(strong)


class TestCheckClt:
    def test_empty_set_rejected(self):
        res = SeedSpec(186).rng().standard_normal((1500, 3))
        with pytest.raises(ValueError):
            check_clt(res, np.array([0.1, 0.2, 0.3]), 0.01, 1.0, variance_floor=1.0)

    def test_trials_floor(self):
        with pytest.raises(ValueError):
            check_clt(np.zeros((100, 2)), np.ones(2), 0.01, 1.0, variance_floor=0.5)

    def test_exact_gaussian_calibration(self):
        # Feed exact normal draws with the advertised variances; the ratio
        # must sit at 1 and normality must pass at the 1% level.
        rng = SeedSpec(187).rng()
        eta, gap = 0.002, 3.0
        v_diag = np.array([0.5, 1.5])
        draws = rng.standard_normal((3000, 2)) * np.sqrt(eta * gap * v_diag)
        report = check_clt(draws, v_diag, eta, gap, variance_floor=0.4)
        assert report.coords == [0, 1]
        for k in report.coords:
            assert report.variance_ratios[k] == pytest.approx(1.0, abs=0.1)
            assert report.ad_pass[k]
