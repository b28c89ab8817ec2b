import math

import numpy as np
import pytest

from ojainfer import SeedSpec, build_sigma, mask_missing, sample, sample_covariance
from ojainfer.synth import BETA_PRESETS, HALF_WIDTH, SynthSpec, sample_stream

from conftest import make_instance


class TestBuildSigma:
    def test_fast_kernel_decay_is_nearly_diagonal(self):
        spec = SynthSpec(d=2, beta=1.0, c=50.0)
        sigma, eigen = build_sigma(spec)
        np.testing.assert_allclose(np.diag(sigma), [25.0, 6.25], rtol=1e-12)
        assert abs(sigma[0, 1]) <= 25.0 * math.exp(-50.0) * 1.01

    def test_d1_rejected(self):
        with pytest.raises(ValueError):
            SynthSpec(d=1, beta=1.0)

    def test_known_entry(self):
        spec = SynthSpec(d=3, beta=1.0)
        sigma, _ = build_sigma(spec)
        assert sigma[0, 1] == pytest.approx(math.exp(-0.01) * 5.0 * 2.5, rel=1e-14)

    def test_presets_listed(self):
        assert BETA_PRESETS == (0.02, 0.2, 1.0, 2.0)

    def test_gap_positive_at_d50(self, synth50):
        spec, sigma, eigen, root = synth50
        assert eigen.gap > 1e-6

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            SynthSpec(d=3, beta=1.0, c=0.0)
        with pytest.raises(ValueError):
            SynthSpec(d=3, beta=1.0, scale=-1.0)


class TestSample:
    def test_base_noise_has_unit_variance(self):
        spec = SynthSpec(d=2, beta=1.0)
        data = sample(spec, np.eye(2), 500_000, rng=SeedSpec(151).rng())
        var = data.samples.reshape(-1).var()
        assert 0.995 <= var <= 1.005
        assert np.max(np.abs(data.samples)) < HALF_WIDTH * 1.0000001

    @pytest.mark.parametrize("d", [3, 10])
    def test_covariance_fidelity(self, d):
        spec, sigma, eigen, root = make_instance(d)
        data = sample(spec, root, 100_000, rng=SeedSpec(152).rng())
        est = sample_covariance(data)
        prods = data.samples[:, :, None] * data.samples[:, None, :]
        se = prods.std(axis=0) / np.sqrt(data.n)
        assert np.all(np.abs(est - sigma) <= 5.0 * se)

    def test_mean_zero(self, synth3):
        spec, sigma, eigen, root = synth3
        data = sample(spec, root, 100_000, rng=SeedSpec(153).rng())
        se = data.samples.std(axis=0) / np.sqrt(data.n)
        assert np.all(np.abs(data.samples.mean(axis=0)) <= 5.0 * se)

    def test_fixed_seed_reproduces(self, synth3):
        spec, sigma, eigen, root = synth3
        a = sample(spec, root, 257, rng=SeedSpec(154).rng())
        b = sample(spec, root, 257, rng=SeedSpec(154).rng())
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_stream_blocks_concatenate(self, synth3):
        spec, sigma, eigen, root = synth3
        blocks = list(sample_stream(spec, root, 10_000, rng=SeedSpec(155).rng(), block=1024))
        assert sum(b.shape[0] for b in blocks) == 10_000
        assert all(b.shape[1] == 3 for b in blocks)

    @pytest.mark.parametrize("n", [919, 5000, 9000])
    def test_sample_matches_stacked_stream(self, synth50, n):
        # sample multiplies each block into its slice of one array; the bits
        # are those of the stacked stream, a short last block included.
        spec, sigma, eigen, root = synth50
        data = sample(spec, root, n, rng=SeedSpec(162).rng())
        stacked = np.vstack(list(sample_stream(spec, root, n, rng=SeedSpec(162).rng())))
        assert data.samples.tobytes() == stacked.tobytes()

    def test_n_floor(self, synth3):
        spec, sigma, eigen, root = synth3
        with pytest.raises(ValueError):
            sample(spec, root, 0)


class TestMaskMissing:
    def test_zero_rate_identity(self, synth3):
        spec, sigma, eigen, root = synth3
        data = sample(spec, root, 50, rng=SeedSpec(156).rng())
        masked = mask_missing(data, 0.0, SeedSpec(157))
        np.testing.assert_array_equal(masked.samples, data.samples)
        assert masked is not data

    def test_masked_fraction_concentrates(self, synth3):
        spec, sigma, eigen, root = synth3
        rng = SeedSpec(158).rng()
        base = rng.uniform(1.0, 2.0, size=(200_000, 5))  # no zeros to start
        from ojainfer import Dataset

        data = Dataset(base)
        masked = mask_missing(data, 0.1, SeedSpec(159))
        frac = np.mean(masked.samples == 0.0)
        assert 0.097 <= frac <= 0.103
        np.testing.assert_array_equal(data.samples, base)  # original untouched

    def test_rate_one_rejected(self, synth3):
        spec, sigma, eigen, root = synth3
        data = sample(spec, root, 10, rng=SeedSpec(160).rng())
        with pytest.raises(ValueError):
            mask_missing(data, 1.0, SeedSpec(161))
