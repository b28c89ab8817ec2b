import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ojainfer import (
    DegenerateGapError,
    MomentEstimates,
    SeedSpec,
    build_r0_v,
    build_rn,
    eigendecompose,
    empirical_hajek_covariance,
    estimate_mtilde,
    hajek_projection,
    learning_rate,
)
from ojainfer import asymvar
from ojainfer.asymvar import _BLOCK_ELEMS, _CHUNK, _operator_norms, _sigma_matrix
from ojainfer.asymvar import ck_diagnostic, contraction_factors, with_rn
from ojainfer.core import EigenSystem
from ojainfer.hoeffding import order1_contraction
from ojainfer.synth import vector_sampler

from oracle import hajek_vector, operator_norms_rows


def rank_one(lam, v):
    """Sigma = lam v v^T and a sampler whose every row is sqrt(lam) v, so that every A is Sigma."""
    v = np.asarray(v, dtype=np.float64) / np.linalg.norm(v)
    row = math.sqrt(lam) * v

    def draw(rng, m):
        return np.tile(row, (m, 1))

    return lam * np.outer(v, v), draw


def closed_form_mtilde(sigma, root, eigen):
    """Fourth-moment formula for X = root @ Z with Z i.i.d. uniform, unit
    variance: E[A M A] = R(2N + tr(N) I + (mu4 - 3) diag(N)) R for N = R M R,
    with mu4 = 9/5 for the uniform law on (-sqrt(3), sqrt(3))."""
    v1 = eigen.leading
    lam1 = eigen.eigenvalues[0]
    w = root @ v1
    n_mat = np.outer(w, w)
    mu4 = 9.0 / 5.0
    inner = 2.0 * n_mat + np.trace(n_mat) * np.eye(len(w)) + (mu4 - 3.0) * np.diag(np.diag(n_mat))
    e_ava = root @ inner @ root
    vp = eigen.tail_basis
    return vp.T @ (e_ava - lam1**2 * np.outer(v1, v1)) @ vp


class TestEstimateMtilde:
    def test_degenerate_sampler_gives_zero(self):
        sigma, sampler = rank_one(2.5, [1.0, 2.0, 2.0])
        eigen = eigendecompose(sigma)
        mom = estimate_mtilde(sampler, eigen, 200, SeedSpec(1))
        np.testing.assert_allclose(mom.mtilde, np.zeros((2, 2)), atol=1e-12)
        np.testing.assert_allclose(mom.mc_stderr, np.zeros((2, 2)), atol=1e-12)
        assert mom.m2 <= 1e-10 and mom.m4 <= 1e-10 and mom.vstat <= 1e-12

    def test_degenerate_gap_rejected(self):
        eigen = eigendecompose(np.eye(2))
        with pytest.raises(DegenerateGapError):
            estimate_mtilde(rank_one(1.0, [1.0, 0.0])[1], eigen, 200, SeedSpec(2))

    def test_sample_count_floor(self, synth3):
        sigma, eigen, root = synth3
        with pytest.raises(ValueError):
            estimate_mtilde(vector_sampler(root), eigen, 50, SeedSpec(3))

    def test_matches_closed_form_fourth_moment(self, synth3, moments3):
        sigma, eigen, root = synth3
        oracle = closed_form_mtilde(sigma, root, eigen)
        assert np.all(np.abs(moments3.mtilde - oracle) <= 5.0 * np.maximum(moments3.mc_stderr, 1e-12))

    def test_split_sample_agreement(self, synth3, moments3):
        sigma, eigen, root = synth3
        other = estimate_mtilde(vector_sampler(root), eigen, 10**6, SeedSpec(111))
        combined = np.sqrt(moments3.mc_stderr**2 + other.mc_stderr**2)
        assert np.all(np.abs(moments3.mtilde - other.mtilde) <= 4.0 * combined)

    def test_moment_ordering(self, moments3):
        assert np.sqrt(moments3.vstat) <= moments3.m2 * (1.0 + 1e-9)
        assert moments3.m2 <= moments3.m4

    def test_type_invariants_enforced(self):
        with pytest.raises(ValueError):
            MomentEstimates(m2=2.0, m4=1.0, vstat=1.0, mtilde=np.eye(2),
                            mc_samples=100, mc_stderr=np.zeros((2, 2)))
        with pytest.raises(ValueError):
            MomentEstimates(m2=1.0, m4=2.0, vstat=1.0,
                            mtilde=np.array([[1.0, 0.5], [0.2, 1.0]]),
                            mc_samples=100, mc_stderr=np.zeros((2, 2)))


class TestMtildeSums:
    def test_matches_per_draw_outer_products(self, synth5):
        sigma, eigen, root = synth5
        sampler, draws = vector_sampler(root), []

        def keep(rng, m):
            draws.append(sampler(rng, m))
            return draws[-1]

        mc = 3000
        mom = estimate_mtilde(keep, eigen, mc, SeedSpec(23))
        v1, vp = eigen.leading, eigen.tail_basis
        sigma_v1 = _sigma_matrix(eigen) @ v1
        s1, s2 = 0.0, 0.0
        for x in np.vstack(draws):
            w = vp.T @ (x * (x @ v1) - sigma_v1)
            outer = np.outer(w, w)
            s1, s2 = s1 + outer, s2 + outer**2
        mt = (s1 / mc + (s1 / mc).T) / 2.0
        se = np.sqrt(np.maximum(s2 / mc - (s1 / mc) ** 2, 0.0) / mc)
        assert np.max(np.abs(mom.mtilde - mt)) <= 1e-12 * np.max(np.abs(mt))
        assert np.max(np.abs(mom.mc_stderr - se)) <= 1e-12 * np.max(np.abs(se))
        np.testing.assert_array_equal(mom.mtilde, mom.mtilde.T)

    def test_memory_stays_quadratic_in_d(self, synth50):
        # Per-draw (d-1, d-1) products would take 4096 * 49 * 49 * 8 B = 79 MB each.
        sigma, eigen, root = synth50
        tracemalloc.start()
        try:
            estimate_mtilde(vector_sampler(root), eigen, 4096, SeedSpec(24))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20


def make_moments(mtilde):
    p = mtilde.shape[0]
    return MomentEstimates(m2=1.0, m4=2.0, vstat=1.0, mtilde=mtilde,
                           mc_samples=1000, mc_stderr=np.zeros((p, p)))


class TestBuildR0V:
    def test_two_dimensional_algebra(self):
        eigen = eigendecompose(np.diag([3.0, 1.0]))
        mtilde = np.array([[0.8]])
        asym = build_r0_v(make_moments(mtilde), eigen)
        # Single entry: R0 = mtilde / (2*(l1 - l2)); V in the eigenbasis has
        # the one nonzero entry R0 / (l1 - l2).
        assert asym.r0[0, 0] == pytest.approx(0.8 / 4.0, rel=1e-14)
        v_eig = eigen.eigenvectors.T @ asym.v @ eigen.eigenvectors
        assert v_eig[1, 1] == pytest.approx(0.8 / (2.0 * (3.0 - 1.0) ** 2), rel=1e-12)
        assert abs(v_eig[0, 0]) <= 1e-14

    def test_zero_moment_gives_zero(self, synth3):
        sigma, eigen, root = synth3
        asym = build_r0_v(make_moments(np.zeros((2, 2))), eigen)
        np.testing.assert_array_equal(asym.v, np.zeros((3, 3)))

    def test_leading_direction_annihilated(self):
        rng = SeedSpec(7).rng()
        a = rng.standard_normal((4, 4))
        eigen = eigendecompose(a @ a.T + np.diag([4.0, 0, 0, 0]))
        raw = rng.standard_normal((3, 3))
        asym = build_r0_v(make_moments(raw @ raw.T), eigen)
        assert np.max(np.abs(asym.v @ eigen.leading)) <= 1e-10
        assert np.all(np.diag(asym.v) >= -1e-12)

    def test_degenerate_gap_rejected(self):
        eigen = eigendecompose(np.eye(3))
        with pytest.raises(DegenerateGapError):
            build_r0_v(make_moments(np.eye(2)), eigen)

    def test_trace_chain(self, synth5, asym5):
        sigma, eigen, root = synth5
        moments, asym = asym5
        lam = eigen.eigenvalues
        direct = np.sum(np.diag(moments.mtilde) / (2.0 * (lam[0] - lam[1:])))
        assert np.trace(asym.r0) == pytest.approx(direct, abs=1e-10)
        assert np.trace(asym.r0) <= np.trace(moments.mtilde) / (2.0 * eigen.gap) + 1e-10

    def test_psd_with_jitter(self, asym5):
        moments, asym = asym5
        np.linalg.cholesky(asym.v + 1e-10 * np.eye(asym.v.shape[0]))


class TestBuildRn:
    def test_single_step(self, synth3, moments3):
        sigma, eigen, root = synth3
        eta = 0.001
        rn = build_rn(moments3, eigen, 1, eta)
        expected = moments3.mtilde / (1.0 + eta * eigen.eigenvalues[0]) ** 2
        np.testing.assert_allclose(rn, expected, rtol=1e-12)

    def test_zero_moment(self, synth3):
        sigma, eigen, root = synth3
        rn = build_rn(make_moments(np.zeros((2, 2))), eigen, 50, 0.001)
        np.testing.assert_array_equal(rn, np.zeros((2, 2)))

    def test_eta_bound_enforced(self, synth3, moments3):
        sigma, eigen, root = synth3
        with pytest.raises(ValueError):
            build_rn(moments3, eigen, 10, 1.0 / eigen.eigenvalues[0])

    def test_scaled_block_approaches_limit(self, synth3, moments3):
        # Frobenius deviation of eta * Rn from R0 obeys the first-order
        # bound (eta * l1 / gap) * ||mtilde||_F / 2 once the transient died.
        sigma, eigen, root = synth3
        asym = build_r0_v(moments3, eigen)
        gap = eigen.gap
        lam1 = eigen.eigenvalues[0]
        n = 30_000  # eta*n*gap = 2 ln n > 20
        eta = learning_rate(n, gap, 2.0)
        dev = np.linalg.norm(eta * build_rn(moments3, eigen, n, eta) - asym.r0, "fro")
        bound = 5.0 * (eta * lam1 / gap) * np.linalg.norm(moments3.mtilde, "fro") / 2.0
        assert dev <= bound

    def test_contraction_factors_in_unit_interval(self, synth5):
        sigma, eigen, root = synth5
        dk = contraction_factors(eigen, 0.001)
        assert np.all(dk > 0.0) and np.all(dk < 1.0)

    def test_with_rn_attaches_block(self, synth3, moments3):
        sigma, eigen, root = synth3
        asym = build_r0_v(moments3, eigen)
        full = with_rn(asym, moments3, eigen, 100, 0.001)
        assert full.rn is not None and full.n == 100
        assert full.d_factors is not None and full.eta == 0.001


class TestEmpiricalHajekCovariance:
    def test_degenerate_sampler(self):
        sigma, sampler = rank_one(2.5, [1.0, 2.0, 2.0])
        eigen = eigendecompose(sigma)
        emp = empirical_hajek_covariance(sampler, eigen, 10, 0.01, trials=5, seed=SeedSpec(13))
        np.testing.assert_allclose(emp.matrix, np.zeros((3, 3)), atol=1e-14)

    def test_single_trial_is_one_outer_product(self):
        # Diagonal instance: the eigendecomposition is exact and v1 is a unit
        # axis, so x (x . v1) and (x x^T) v1 round alike, and the mean of one
        # trial must equal the matrix-form oracle's outer product bit for bit.
        sigma = np.diag([3.0, 1.0, 0.5])
        eigen = eigendecompose(sigma)
        n, eta = 7, 0.01
        fixed = SeedSpec(14).rng().standard_normal((n, 3))

        def sampler(rng_, m):
            return fixed

        emp = empirical_hajek_covariance(sampler, eigen, n, eta, trials=1, seed=SeedSpec(14))
        psi = hajek_projection(fixed[:, :, None] * fixed[:, None, :], sigma, eigen, eta, eigen.leading)
        np.testing.assert_array_equal(emp.matrix, np.outer(psi, psi))
        np.testing.assert_array_equal(emp.stderr, np.zeros((3, 3)))


@pytest.mark.parametrize("estimator", [
    lambda sampler, eigen: estimate_mtilde(sampler, eigen, 200, SeedSpec(18)),
    lambda sampler, eigen: empirical_hajek_covariance(sampler, eigen, 6, 0.01, 1, SeedSpec(18)),
], ids=["estimate_mtilde", "empirical_hajek_covariance"])
def test_matrix_draws_are_refused(estimator):
    sigma = np.diag([3.0, 1.0, 0.5])

    def matrices(rng, m):
        return np.broadcast_to(sigma, (m, 3, 3))

    with pytest.raises(ValueError, match=r"sampler returned shape \((200|6), 3, 3\)"):
        estimator(matrices, eigendecompose(sigma))


class TestCkDiagnostic:
    def test_formula(self):
        vals = np.array([0.4, 0.9])
        out = ck_diagnostic(vals, eta=0.1, gap=2.0, m2=4.0)
        np.testing.assert_allclose(out, np.sqrt(vals / 0.1 * 2.0 / 16.0))

    def test_positivity_guards(self):
        with pytest.raises(ValueError):
            ck_diagnostic(np.array([1.0]), eta=0.0, gap=1.0, m2=1.0)


def random_eigen(rng, d, null=False):
    """Eigensystem of a random PSD matrix, or of zero with a random basis."""
    a = rng.standard_normal((d, d))
    eigen = eigendecompose(a @ a.T / d)
    if null:
        return EigenSystem(np.zeros(d), eigen.eigenvectors)
    return eigen


ROW_COUNTS = ("one", "below", "equal", "blocks_and_part")


class TestOperatorNormsAgainstOracle:
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 60), rows=st.sampled_from(ROW_COUNTS),
           part=st.floats(0.0, 1.0), zero_row=st.booleans(), null=st.booleans())
    @example(seed=1, d=2, rows="one", part=0.0, zero_row=True, null=True)
    @example(seed=2, d=60, rows="blocks_and_part", part=0.5, zero_row=True, null=True)
    @settings(max_examples=40)
    def test_rows_match_oracle(self, seed, d, rows, part, zero_row, null):
        # The block holds _BLOCK_ELEMS // d rows; m runs below, at and across
        # it. A zero row against a zero Sigma makes a zero iterate, which the
        # nrm == 0 guard must carry through as in the oracle.
        step = _BLOCK_ELEMS // d
        m = {"one": 1, "below": step - 1, "equal": step,
             "blocks_and_part": 2 * step + 1 + int(part * (step - 2))}[rows]
        rng = SeedSpec(seed).rng()
        eigen = random_eigen(rng, d, null)
        sigma = _sigma_matrix(eigen)
        x = rng.standard_normal((m, d)) * rng.uniform(0.1, 3.0, size=d)
        if zero_row:
            x[rng.integers(m)] = 0.0
        got = _operator_norms(x, eigen, SeedSpec(seed, (1,)).rng())
        ref = operator_norms_rows(x, sigma, SeedSpec(seed, (1,)).rng())
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0)

    def test_zero_row_against_zero_sigma_is_zero(self):
        eigen = random_eigen(SeedSpec(3).rng(), 4, null=True)
        x = np.zeros((3, 4))
        x[1] = [1.0, -2.0, 0.5, 3.0]
        got = _operator_norms(x, eigen, SeedSpec(4).rng())
        assert got[0] == 0.0 and got[2] == 0.0
        assert got[1] == pytest.approx(float(x[1] @ x[1]), rel=1e-12)

    def test_stream_pinned_to_oracle(self, synth3, monkeypatch):
        # Two chunks: the second chunk's draws follow the first chunk's power
        # iteration start vectors, so any change in what the iteration takes
        # from the stream would move mtilde, mc_stderr and vstat.
        sigma, eigen, root = synth3
        mc = _CHUNK + 777
        fast = estimate_mtilde(vector_sampler(root), eigen, mc, SeedSpec(21))
        monkeypatch.setattr(asymvar, "_operator_norms",
                            lambda x, eig, rng: operator_norms_rows(x, _sigma_matrix(eig), rng))
        ref = estimate_mtilde(vector_sampler(root), eigen, mc, SeedSpec(21))
        np.testing.assert_array_equal(fast.mtilde, ref.mtilde)
        np.testing.assert_array_equal(fast.mc_stderr, ref.mc_stderr)
        assert fast.vstat == ref.vstat
        assert fast.m2 == pytest.approx(ref.m2, rel=1e-12)
        assert fast.m4 == pytest.approx(ref.m4, rel=1e-12)


class TestOrderOneAgainstOracle:
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 60), n=st.integers(1, 300),
           eta=st.floats(1e-4, 0.2))
    @settings(max_examples=40)
    def test_contraction_matches_oracle(self, seed, d, n, eta):
        rng = SeedSpec(seed).rng()
        eigen = random_eigen(rng, d)
        v1, vp = eigen.leading, eigen.tail_basis
        sigma_v1 = _sigma_matrix(eigen) @ v1
        x = rng.standard_normal((n, d))
        got = order1_contraction(eigen, eta, n)((x * (x @ v1)[:, None] - sigma_v1) @ vp)
        ref = hajek_vector(x, eigen, eta, sigma_v1)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_covariance_matches_per_trial_oracle(self, synth5):
        sigma, eigen, root = synth5
        n, eta, trials = 200, 0.003, 30
        sampler = vector_sampler(root)
        emp = empirical_hajek_covariance(sampler, eigen, n, eta, trials, SeedSpec(17))
        sigma_v1 = _sigma_matrix(eigen) @ eigen.leading
        psis = [hajek_vector(sampler(SeedSpec(17).child(t).rng(), n), eigen, eta, sigma_v1)
                for t in range(trials)]
        ref = np.mean([np.outer(p, p) for p in psis], axis=0)
        assert np.max(np.abs(emp.matrix - ref)) <= 1e-12 * np.max(np.abs(ref))
