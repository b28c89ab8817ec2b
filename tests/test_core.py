import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ojainfer import (
    Dataset,
    DegenerateGapError,
    EigenSystem,
    SeedSpec,
    eigendecompose,
    psd_sqrt,
    sample_covariance,
    sign_align,
    sin2,
)
from ojainfer.synth import sample

from conftest import random_unit


class TestSeedSpec:
    def test_identical_pairs_identical_streams(self):
        a = SeedSpec(123, (4,)).rng().standard_normal(8)
        b = SeedSpec(123, (4,)).rng().standard_normal(8)
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = SeedSpec(123, (4,)).rng().standard_normal(8)
        b = SeedSpec(123, (5,)).rng().standard_normal(8)
        c = SeedSpec(124, (4,)).rng().standard_normal(8)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_child_extends_stream(self):
        s = SeedSpec(9).child(1, 2)
        assert s.stream == (1, 2)
        assert s.child(3).stream == (1, 2, 3)

    def test_bad_master(self):
        with pytest.raises(ValueError):
            SeedSpec(-1)

    @given(master=st.integers(0, 2**64 - 1), stream=st.lists(st.integers(0, 2**32), max_size=3))
    def test_equal_keys_equal_streams(self, master, stream):
        a = SeedSpec(master, tuple(stream)).rng().random(4)
        b = SeedSpec(master).child(*stream).rng().random(4)
        np.testing.assert_array_equal(a, b)

    @given(master=st.integers(0, 2**64 - 1), stream=st.lists(st.integers(0, 2**32), max_size=3),
           labels=st.lists(st.integers(0, 2**32), min_size=2, max_size=2, unique=True))
    def test_distinct_children_differ(self, master, stream, labels):
        parent = SeedSpec(master, tuple(stream))
        a, b = (parent.child(label).rng().random(4) for label in labels)
        assert not np.array_equal(a, b)


class TestDataset:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Dataset(np.empty((0, 3)))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[1.0, np.nan]]))

    def test_shape_accessors(self):
        data = Dataset(np.ones((4, 2)))
        assert (data.n, data.d) == (4, 2)


class TestSampleCovariance:
    def test_single_sample(self):
        data = Dataset(np.array([[1.0, 0.0]]))
        np.testing.assert_array_equal(sample_covariance(data), [[1.0, 0.0], [0.0, 0.0]])

    def test_two_basis_samples(self):
        data = Dataset(np.array([[1.0, 0.0], [0.0, 1.0]]))
        np.testing.assert_allclose(sample_covariance(data), [[0.5, 0.0], [0.0, 0.5]])

    def test_symmetry_exact(self):
        rng = SeedSpec(3).rng()
        s = sample_covariance(Dataset(rng.standard_normal((50, 7))))
        np.testing.assert_array_equal(s, s.T)

    def test_matches_construction_within_mc_error(self, synth3):
        spec, sigma, eigen, root = synth3
        data = sample(spec, root, 10_000, rng=SeedSpec(21).rng())
        est = sample_covariance(data)
        # Monte-Carlo standard error of each entry, estimated from the draws.
        prods = data.samples[:, :, None] * data.samples[:, None, :]
        se = prods.std(axis=0) / np.sqrt(data.n)
        assert np.all(np.abs(est - sigma) <= 5.0 * se)


class TestEigendecompose:
    def test_diagonal(self):
        eig = eigendecompose(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(eig.eigenvalues, [3.0, 1.0])
        assert abs(abs(eig.leading[0]) - 1.0) < 1e-12
        assert eig.gap == pytest.approx(2.0)

    def test_identity_degenerate_gap_flagged(self):
        eig = eigendecompose(np.eye(4))
        np.testing.assert_allclose(eig.eigenvalues, np.ones(4))
        with pytest.raises(DegenerateGapError):
            eig.require_gap()

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError):
            eigendecompose(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_leading_matches_power_iteration(self):
        spec, sigma, eigen, root = __import__("conftest").make_instance(5)
        z = np.full(5, 1.0) / np.sqrt(5.0)
        for _ in range(500):
            z = sigma @ z
            z /= np.linalg.norm(z)
        assert sin2(eigen.leading, z) <= 1e-10

    def test_orthonormality_and_reconstruction(self):
        rng = SeedSpec(17).rng()
        for _ in range(20):
            d = int(rng.integers(2, 9))
            a = rng.standard_normal((d, d))
            s = (a + a.T) / 2.0
            eig = eigendecompose(s)
            v = eig.eigenvectors
            assert np.max(np.abs(v.T @ v - np.eye(d))) <= 1e-8
            recon = (v * eig.eigenvalues) @ v.T
            rel = np.linalg.norm(recon - s, "fro") / np.linalg.norm(s, "fro")
            assert rel <= 1e-8

    def test_eigen_system_validates(self):
        with pytest.raises(ValueError):
            EigenSystem(np.array([1.0, 2.0]), np.eye(2))  # ascending order
        with pytest.raises(ValueError):
            EigenSystem(np.array([2.0, 1.0]), np.array([[1.0, 1.0], [0.0, 1.0]]))


class TestPsdSqrt:
    def test_diagonal(self):
        np.testing.assert_allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_identity(self):
        np.testing.assert_allclose(psd_sqrt(np.eye(3)), np.eye(3))

    def test_diagonal_entrywise_sqrt(self):
        rng = SeedSpec(23).rng()
        vals = rng.uniform(0.0, 10.0, size=6)
        np.testing.assert_allclose(psd_sqrt(np.diag(vals)), np.diag(np.sqrt(vals)), atol=1e-12)

    def test_random_psd_reconstructs(self):
        rng = SeedSpec(29).rng()
        a = rng.standard_normal((6, 6))
        s = a @ a.T
        r = psd_sqrt(s)
        np.testing.assert_array_equal(r, r.T)
        assert np.linalg.norm(r @ r - s, "fro") <= 1e-8 * np.linalg.norm(s, "fro")

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            psd_sqrt(np.diag([1.0, -0.5]))


class TestSin2:
    def test_equal_vectors(self):
        e1 = np.array([1.0, 0.0])
        assert sin2(e1, e1) == 0.0

    def test_orthogonal(self):
        assert sin2(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0

    def test_45_degrees(self):
        u = np.array([1.0, 1.0]) / np.sqrt(2.0)
        assert sin2(u, np.array([1.0, 0.0])) == pytest.approx(0.5, abs=1e-12)

    def test_symmetry_and_sign_invariance(self):
        rng = SeedSpec(31).rng()
        for _ in range(50):
            d = int(rng.integers(2, 12))
            u, v = random_unit(rng, d), random_unit(rng, d)
            s = sin2(u, v)
            assert s == sin2(v, u)
            assert s == sin2(-u, v)
            assert s == sin2(u, -v)
            assert 0.0 <= s <= 1.0 + 1e-12

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            sin2(np.array([2.0, 0.0]), np.array([1.0, 0.0]))


class TestSignAlign:
    def test_flips_opposed(self):
        e1 = np.array([1.0, 0.0])
        np.testing.assert_array_equal(sign_align(e1, -e1), e1)

    def test_zero_dot_keeps_sign(self):
        e1 = np.array([1.0, 0.0])
        e2 = np.array([0.0, 1.0])
        np.testing.assert_array_equal(sign_align(e1, e2), e2)
        np.testing.assert_array_equal(sign_align(e1, -e2), -e2)

    def test_flips_back_negated_estimate(self):
        rng = SeedSpec(37).rng()
        v1 = random_unit(rng, 6)
        v = random_unit(rng, 6)
        if v1 @ v < 0:
            v = -v
        np.testing.assert_array_equal(sign_align(v1, -v), v)
