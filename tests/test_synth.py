import math

import numpy as np
import pytest

from ojainfer import SeedSpec, build_sigma, eigendecompose, psd_sqrt, sample, sample_covariance
from ojainfer import core, synth
from ojainfer.synth import HALF_WIDTH

from oracle import sample_blocks


class TestBuildSigma:
    def test_fast_kernel_decay_is_nearly_diagonal(self):
        sigma, eigen, root = build_sigma(2, 1.0, c=50.0)
        np.testing.assert_allclose(np.diag(sigma), [25.0, 6.25], rtol=1e-12)
        assert abs(sigma[0, 1]) <= 25.0 * math.exp(-50.0) * 1.01

    def test_d1_rejected(self):
        with pytest.raises(ValueError):
            build_sigma(1, 1.0)

    def test_known_entry(self):
        sigma, _, _ = build_sigma(3, 1.0)
        assert sigma[0, 1] == pytest.approx(math.exp(-0.01) * 5.0 * 2.5, rel=1e-14)

    def test_gap_positive_at_d50(self, synth50):
        sigma, eigen, root = synth50
        assert eigen.gap > 1e-6

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            build_sigma(3, 1.0, c=0.0)
        with pytest.raises(ValueError):
            build_sigma(3, 1.0, scale=-1.0)

    def test_one_eigendecomposition(self, monkeypatch):
        calls = []

        def counted(s):
            calls.append(s)
            return eigendecompose(s)

        monkeypatch.setattr(core, "eigendecompose", counted)
        monkeypatch.setattr(synth, "eigendecompose", counted)
        build_sigma(20, 1.0)
        assert len(calls) == 1

    @pytest.mark.parametrize("d", [5, 200, 561])
    def test_root_is_psd_sqrt_of_its_eigen_system(self, d):
        sigma, eigen, root = build_sigma(d, 1.0)
        assert root.tobytes() == psd_sqrt(eigendecompose(sigma)).tobytes()


class TestSample:
    def test_base_noise_has_unit_variance(self):
        data = sample(np.eye(2), 500_000, SeedSpec(151).rng())
        var = data.samples.reshape(-1).var()
        assert 0.995 <= var <= 1.005
        assert np.max(np.abs(data.samples)) < HALF_WIDTH * 1.0000001

    @pytest.mark.parametrize("d", [3, 10])
    def test_covariance_fidelity(self, d):
        sigma, eigen, root = build_sigma(d, 1.0)
        data = sample(root, 100_000, rng=SeedSpec(152).rng())
        est = sample_covariance(data)
        prods = data.samples[:, :, None] * data.samples[:, None, :]
        se = prods.std(axis=0) / np.sqrt(data.n)
        assert np.all(np.abs(est - sigma) <= 5.0 * se)

    def test_mean_zero(self, synth3):
        sigma, eigen, root = synth3
        data = sample(root, 100_000, rng=SeedSpec(153).rng())
        se = data.samples.std(axis=0) / np.sqrt(data.n)
        assert np.all(np.abs(data.samples.mean(axis=0)) <= 5.0 * se)

    def test_fixed_seed_reproduces(self, synth3):
        sigma, eigen, root = synth3
        a = sample(root, 257, rng=SeedSpec(154).rng())
        b = sample(root, 257, rng=SeedSpec(154).rng())
        np.testing.assert_array_equal(a.samples, b.samples)

    @pytest.mark.parametrize("n", [919, 5000, 9000])
    def test_sample_matches_stacked_stream(self, synth50, n):
        # sample multiplies each block into its slice of one array; the bits
        # are those of the stacked blocks, a short last block included.
        sigma, eigen, root = synth50
        data = sample(root, n, SeedSpec(162).rng())
        stacked = sample_blocks(root, n, SeedSpec(162).rng())
        assert data.samples.tobytes() == stacked.tobytes()

    def test_n_floor(self, synth3):
        sigma, eigen, root = synth3
        with pytest.raises(ValueError):
            sample(root, 0, SeedSpec(0).rng())
