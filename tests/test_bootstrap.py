import numpy as np
import pytest

from ojainfer import Dataset, SeedSpec, bootstrap_run, bootstrap_variance, oja_run
from ojainfer.bootstrap import _multipliers
from ojainfer.synth import sample

from conftest import random_unit


class TestBootstrapRun:
    def test_degenerate_multiplier_recovers_plain_run(self, synth3):
        spec, sigma, eigen, root = synth3
        data = sample(spec, root, 150, rng=SeedSpec(131).rng())
        u0 = random_unit(SeedSpec(132).rng(), 3)
        eta = 0.01
        replica = bootstrap_run(data, 1, eta, SeedSpec(133), u0, law="constant")[0]
        plain = oja_run(data, eta, u0).estimate
        np.testing.assert_array_equal(replica, plain)

    def test_fixed_point_under_any_multipliers(self):
        e1 = np.array([1.0, 0.0, 0.0])
        data = Dataset(np.tile(e1, (40, 1)))
        replicas = bootstrap_run(data, 4, 0.3, SeedSpec(134), e1, law="exponential")
        for rep in replicas:
            np.testing.assert_array_equal(rep, e1)

    def test_replicas_differ_and_are_unit_norm(self, synth3):
        spec, sigma, eigen, root = synth3
        data = sample(spec, root, 200, rng=SeedSpec(135).rng())
        replicas = bootstrap_run(data, 5, 0.005, SeedSpec(136), random_unit(SeedSpec(137).rng(), 3),
                                 law="exponential")
        assert replicas.shape == (5, 3)
        np.testing.assert_allclose(np.linalg.norm(replicas, axis=1), np.ones(5), atol=1e-10)
        assert not np.array_equal(replicas[0], replicas[1])

    def test_determinism(self, synth3):
        spec, sigma, eigen, root = synth3
        data = sample(spec, root, 100, rng=SeedSpec(138).rng())
        u0 = random_unit(SeedSpec(139).rng(), 3)
        np.testing.assert_array_equal(bootstrap_run(data, 3, 0.01, SeedSpec(140), u0, law="normal"),
                                      bootstrap_run(data, 3, 0.01, SeedSpec(140), u0, law="normal"))

    def test_dimension_mismatch(self, synth3):
        spec, sigma, eigen, root = synth3
        data = sample(spec, root, 20, rng=SeedSpec(141).rng())
        with pytest.raises(ValueError):
            bootstrap_run(data, 1, 0.01, SeedSpec(142), random_unit(SeedSpec(143).rng(), 4),
                          law="exponential")

    @pytest.mark.parametrize("law", ["exponential", "normal"])
    def test_vector_draw_equals_scalar_draws(self, law):
        # Replicas draw their n multipliers as one vector; the values must be
        # the sequence of n scalar draws from the same generator.
        vector = _multipliers(law, SeedSpec(148).rng(), 257)
        rng = SeedSpec(148).rng()
        draw = rng.standard_exponential if law == "exponential" else lambda: 1.0 + rng.standard_normal()
        np.testing.assert_array_equal(vector, [draw() for _ in range(257)])
        assert _multipliers("constant", rng, 257) is None

    def test_config_validation(self):
        data, e1 = Dataset(np.eye(3)), np.eye(3)[0]
        with pytest.raises(ValueError):
            bootstrap_run(data, 0, 0.1, SeedSpec(0), e1)
        with pytest.raises(ValueError):
            bootstrap_run(data, 1, 0.1, SeedSpec(0), e1, law="uniform")
        with pytest.raises(ValueError):
            bootstrap_run(data, 1, 0.0, SeedSpec(0), e1)


class TestBootstrapVariance:
    def test_zero_when_replicas_match_proxy(self):
        vt = np.array([0.0, 1.0])
        np.testing.assert_array_equal(bootstrap_variance([vt, vt], vt), np.zeros(2))

    def test_single_replica_squared_residual(self):
        vt = np.array([1.0, 0.0])
        rep = np.array([0.6, 0.8])
        resid = rep - (rep @ vt) * vt
        np.testing.assert_allclose(bootstrap_variance([rep], vt), resid**2, rtol=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bootstrap_variance(np.empty((0, 3)), np.array([1.0, 0.0, 0.0]))

    def test_invariant_under_replica_permutation(self, synth3):
        spec, sigma, eigen, root = synth3
        data = sample(spec, root, 120, rng=SeedSpec(144).rng())
        replicas = bootstrap_run(data, 6, 0.005, SeedSpec(145), random_unit(SeedSpec(146).rng(), 3),
                                 law="exponential")
        base = bootstrap_variance(replicas, eigen.leading)
        perm = SeedSpec(147).rng().permutation(6)
        shuffled = bootstrap_variance(replicas[perm], eigen.leading)
        assert np.max(np.abs(base - shuffled)) <= 1e-12
