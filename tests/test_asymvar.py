import logging
import os
import pickle
import signal
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
    build_sigma,
    eigendecompose,
    empirical_hajek_covariance,
    estimate_mtilde,
    hajek_projection,
    learning_rate,
)
from ojainfer.asymvar import _BLOCK_ELEMS, _operator_norms, _sigma_matrix
from ojainfer import asymvar, workers
from ojainfer.asymvar import ck_diagnostic, contraction_factors, moments_and_trials, with_rn
from ojainfer.core import EigenSystem
from ojainfer.hoeffding import order1_contraction
from ojainfer.synth import vector_sampler

from conftest import rank_one
from oracle import hajek_vector


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

    def test_scratch_is_bounded_by_the_block_not_the_draws(self):
        # Each chunk is one _operator_norms block of _BLOCK_ELEMS entries, so each
        # array of the loop is about 0.5 MB at d = 200 as at d = 5.
        sigma, eigen, root = build_sigma(200, 1.0)
        tracemalloc.start()
        try:
            estimate_mtilde(vector_sampler(root), eigen, 20_000, SeedSpec(25))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20


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
        psi = hajek_projection(fixed, sigma, eigen, eta, eigen.leading)
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


def eigvalsh_norms(x, eigen):
    """max |eigenvalue| of each x_i x_i^T - Sigma by one batched eigvalsh call."""
    vals = np.linalg.eigvalsh(x[:, :, None] * x[:, None, :] - _sigma_matrix(eigen))
    return np.maximum(vals[:, -1], -vals[:, 0])


class TestOperatorNormsAgainstEigvalsh:
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 60), rows=st.sampled_from(ROW_COUNTS),
           part=st.floats(0.0, 1.0), zero_row=st.booleans(),
           sigma=st.sampled_from(["random", "null", "tied"]))
    @example(seed=1, d=2, rows="one", part=0.0, zero_row=True, sigma="null")
    @example(seed=2, d=60, rows="blocks_and_part", part=0.5, zero_row=True, sigma="tied")
    @example(seed=3, d=2, rows="below", part=0.0, zero_row=False, sigma="tied")
    @settings(max_examples=40)
    def test_rows_match_eigvalsh(self, seed, d, rows, part, zero_row, sigma):
        # The block holds _BLOCK_ELEMS // d rows; m runs below, at and across
        # it. Sigma is random, zero, or has lambda_1 = lambda_2; a zero row
        # has the norm max |lambda|.
        step = _BLOCK_ELEMS // d
        m = {"one": 1, "below": step - 1, "equal": step,
             "blocks_and_part": 2 * step + 1 + int(part * (step - 2))}[rows]
        rng = SeedSpec(seed).rng()
        eigen = random_eigen(rng, d, sigma == "null")
        if sigma == "tied":
            lam = eigen.eigenvalues.copy()
            lam[1] = lam[0]
            eigen = EigenSystem(lam, eigen.eigenvectors)
        x = rng.standard_normal((m, d)) * rng.uniform(0.1, 3.0, size=d)
        if zero_row:
            x[rng.integers(m)] = 0.0
        np.testing.assert_allclose(_operator_norms(x, eigen), eigvalsh_norms(x, eigen),
                                   rtol=1e-12, atol=0.0)

    def test_zero_row_against_zero_sigma_is_zero(self):
        eigen = random_eigen(SeedSpec(3).rng(), 4, null=True)
        x = np.zeros((3, 4))
        x[1] = [1.0, -2.0, 0.5, 3.0]
        got = _operator_norms(x, eigen)
        assert got[0] == 0.0 and got[2] == 0.0
        assert got[1] == pytest.approx(float(x[1] @ x[1]), rel=1e-12)

    @pytest.mark.parametrize("d", [2, 5, 30])
    def test_top_and_bottom_eigenvalue_of_equal_size(self, d):
        # Along a fixed direction u, scaling x = r u moves the top eigenvalue of
        # x x^T - Sigma from below |bottom| to above it; bisect r to where the
        # two agree and check rows on both sides of that point.
        rng = SeedSpec(40 + d).rng()
        eigen = random_eigen(rng, d)
        u = rng.standard_normal(d)

        def excess(r):
            vals = np.linalg.eigvalsh(r * r * np.outer(u, u) - _sigma_matrix(eigen))
            return vals[-1] + vals[0]

        lo, hi = 0.0, 10.0 * np.sqrt(eigen.eigenvalues[0]) / np.linalg.norm(u)
        for _ in range(100):
            mid = (lo + hi) / 2.0
            lo, hi = (mid, hi) if excess(mid) < 0.0 else (lo, mid)
        x = np.outer((lo + hi) / 2.0 * (1.0 + np.linspace(-1e-6, 1e-6, 41)), u)
        np.testing.assert_allclose(_operator_norms(x, eigen), eigvalsh_norms(x, eigen),
                                   rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("d", [5, 50])
    def test_draws_where_the_power_iteration_read_low(self, d):
        # 2000 draws at seed 5; 50 power-iteration steps from seed-6 starts read
        # these norms up to 3.9e-2 (d = 5) and 5.5e-2 (d = 50) short.
        sigma, eigen, root = build_sigma(d, 1.0)
        x = vector_sampler(root)(SeedSpec(5).rng(), 2000)
        np.testing.assert_allclose(_operator_norms(x, eigen), eigvalsh_norms(x, eigen),
                                   rtol=1e-12, atol=0.0)

    @staticmethod
    def rows_at_lambda1(eigen, rng):
        # z = Q^T x has z_1^2 = lambda_1 to within 4 ulps and the rest zero (first
        # nine rows) or 1e-12 sqrt(lambda_1) (last nine), so x x^T - Sigma is
        # about diag(0, -lambda_2, ...) and its norm lambda_2, far below lambda_1.
        lam = eigen.eigenvalues
        k = np.arange(-4, 5)
        z = np.zeros((2 * k.size, eigen.d))
        z[:, 0] = np.sqrt(lam[0]) * np.tile(1.0 + k * np.finfo(np.float64).eps, 2)
        z[k.size:, 1:] = 1e-12 * np.sqrt(lam[0]) * rng.standard_normal((k.size, eigen.d - 1))
        return z @ eigen.eigenvectors.T

    @pytest.mark.parametrize("d", [2, 3, 5, 30, 60])
    def test_norm_far_below_lambda1_is_exact_to_eps_lambda1(self, d):
        # Exact only to about eps lambda_1 absolute, as eigvalsh's are; the
        # analytic value is lambda_2.
        rng = SeedSpec(70 + d).rng()
        eigen = random_eigen(rng, d)
        lam = eigen.eigenvalues
        got = _operator_norms(self.rows_at_lambda1(eigen, rng), eigen)
        assert np.max(np.abs(got - lam[1])) <= 8 * np.finfo(np.float64).eps * lam[0]

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_norm_far_below_lambda1_matches_eigvalsh_to_eps_lambda1(self, d):
        # At d = 30 and 60 eigvalsh's own error on these rows reached 15 eps lambda_1.
        rng = SeedSpec(70 + d).rng()
        eigen = random_eigen(rng, d)
        x = self.rows_at_lambda1(eigen, rng)
        err = np.abs(_operator_norms(x, eigen) - eigvalsh_norms(x, eigen))
        assert np.max(err) <= 8 * np.finfo(np.float64).eps * eigen.eigenvalues[0]

    def test_stream_feeds_the_sampler_alone(self, synth3):
        # Two chunks, the first of _BLOCK_ELEMS // d rows: the norms draw
        # nothing, so the second chunk's rows follow the first chunk's on the
        # stream, and m2 and m4 are those of the same rows with the norms taken
        # by eigvalsh.
        sigma, eigen, root = synth3
        step = _BLOCK_ELEMS // eigen.d
        mc = step + 777
        sampler, draws = vector_sampler(root), []

        def keep(rng, m):
            draws.append(sampler(rng, m))
            return draws[-1]

        got = estimate_mtilde(keep, eigen, mc, SeedSpec(21))
        rng = SeedSpec(21).rng()
        for rows, m in zip(draws, (step, 777), strict=True):
            np.testing.assert_array_equal(rows, sampler(rng, m))
        q = eigvalsh_norms(np.vstack(draws), eigen)
        assert got.m2 == pytest.approx(np.sqrt(np.mean(q**2)), rel=1e-12)
        assert got.m4 == pytest.approx(np.mean(q**4) ** 0.25, rel=1e-12)


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


FORKED = dict(mc_samples=3000, n=60, trials=5)


class TestForkedAsymvar:
    """moments_and_trials' parts split over forked children, forced on by the probes."""

    @pytest.fixture
    def forks(self, monkeypatch):
        """Count the parent's os.fork calls; split(c, fork) sets c usable CPUs and opens or shuts the gate."""
        calls = []
        real = os.fork
        monkeypatch.setattr(os, "fork", lambda: calls.append(1) or real())

        def split(cpus, fork=True):
            monkeypatch.setattr(workers, "IMPORT_THREADS", 1 if fork else 2)
            monkeypatch.setattr(workers, "os_threads", lambda: 1)
            monkeypatch.setattr(workers, "usable_cpus", lambda: cpus)

        return calls, split

    @staticmethod
    def _run(synth5, trials=FORKED["trials"]):
        sigma, eigen, root = synth5
        eta = learning_rate(FORKED["n"], eigen.gap, 2.0)
        return moments_and_trials(vector_sampler(root), eigen, FORKED["mc_samples"], SeedSpec(31),
                                  FORKED["n"], eta, trials, SeedSpec(32))

    @staticmethod
    def _outputs(result):
        moments, emp, _ = result
        return ([moments.m2, moments.m4, moments.vstat, moments.mtilde.tolist(),
                 moments.mc_stderr.tolist()], emp and [emp.matrix.tolist(), emp.stderr.tolist()])

    @staticmethod
    def _in_child(monkeypatch, name, action):
        """Run ``action(pid)`` when asymvar.<name> starts in a forked child."""
        parent, real = os.getpid(), getattr(asymvar, name)

        def probe(*args):
            if os.getpid() != parent:
                action(os.getpid())
            return real(*args)

        monkeypatch.setattr(asymvar, name, probe)

    def test_in_process_run_is_the_two_calls(self, forks, synth5):
        calls, split = forks
        split(3, fork=False)
        moments, emp, run = self._run(synth5)
        sigma, eigen, root = synth5
        eta = learning_rate(FORKED["n"], eigen.gap, 2.0)
        ref_m = estimate_mtilde(vector_sampler(root), eigen, FORKED["mc_samples"], SeedSpec(31))
        ref_e = empirical_hajek_covariance(vector_sampler(root), eigen, FORKED["n"], eta,
                                           FORKED["trials"], SeedSpec(32))
        assert self._outputs((moments, emp, run)) == self._outputs((ref_m, ref_e, None))
        assert calls == [] and run == {"workers": 1, "reruns": []}

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_outputs_match_the_in_process_run(self, forks, synth5, cpus):
        calls, split = forks
        split(cpus, fork=False)
        want = self._outputs(self._run(synth5))
        split(cpus)
        result = self._run(synth5)
        assert self._outputs(result) == want
        assert len(calls) == cpus and result[2] == {"workers": cpus + 1, "reruns": []}

    def test_no_trials_runs_the_moments_here(self, forks, synth5):
        calls, split = forks
        split(2)
        moments, emp, run = self._run(synth5, trials=0)
        assert emp is None and calls == [] and run == {"workers": 1, "reruns": []}

    @staticmethod
    def _short_pickle(part, wfd):
        with open(wfd, "wb") as out:
            out.write(pickle.dumps(part())[:-8])

    @pytest.mark.parametrize("death", ["sigkill", "exit-3", "short-pickle"])
    @pytest.mark.parametrize("part", ["estimate_mtilde", "order1_terms"])
    def test_failed_child_is_recomputed_here(self, forks, synth5, monkeypatch, caplog, death, part):
        # Part 1 is the moment estimate, part 2 trial range 1.
        calls, split = forks
        split(2, fork=False)
        want = self._outputs(self._run(synth5))
        if death == "short-pickle":
            monkeypatch.setattr(workers, "_send", self._short_pickle)
            reruns = [1, 2]
        else:
            kill = {"sigkill": lambda pid: os.kill(pid, signal.SIGKILL), "exit-3": lambda pid: os._exit(3)}
            self._in_child(monkeypatch, part, kill[death])
            reruns = [1] if part == "estimate_mtilde" else [2]
        split(2)
        with caplog.at_level(logging.WARNING, logger="ojainfer.workers"):
            result = self._run(synth5)
        assert self._outputs(result) == want
        assert len(calls) == 2 and result[2] == {"workers": 3, "reruns": reruns}
        assert [r.getMessage() for r in caplog.records] == [
            f"part {k} of 3: its worker failed, so it runs again here" for k in reruns]
