import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ojainfer import Dataset, SeedSpec, bootstrap, bootstrap_run, oja_run, ojavarest
from ojainfer.bootstrap import _CHUNK, _multipliers
from ojainfer.oja import _block_size, gaussian_unit, learning_rate, oja_kernel
from ojainfer.synth import sample
from ojainfer.varest import batch_variance

from checks import residual_trials
from oracle import oja_loop

TOL = 1e-12
LAWS = ("constant", "exponential", "normal")


def draw_case(seed, states, n, d, law):
    rng = SeedSpec(seed).rng()
    x = rng.standard_normal((states, n, d))
    u0 = np.array([gaussian_unit(rng, d) for _ in range(states)])
    w = None if law == "constant" else np.array([_multipliers(law, rng, n) for _ in range(states)])
    return x, u0, w


@given(seed=st.integers(0, 2**32 - 1), states=st.integers(1, 4), n=st.integers(1, 400),
       d=st.integers(1, 12), eta=st.floats(1e-4, 0.3), law=st.sampled_from(LAWS))
def test_kernel_matches_oracle(seed, states, n, d, eta, law):
    # eta up to 0.3 with d up to 12 puts eta * ||x||^2 near 4 per sample, so
    # blocks must split; n ranges below and across the block size.
    x, u0, w = draw_case(seed, states, n, d, law)
    out, count = oja_kernel(x if states > 1 else x[0], eta, u0, w)
    assert count == n
    assert out.shape == (states, d)
    for i in range(states):
        ref = oja_loop(x[i], eta, u0[i], None if w is None else w[i])
        assert np.max(np.abs(out[i] - ref)) <= TOL


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3000), d=st.integers(1, 8),
       eta=st.floats(1e-4, 0.3))
def test_iterable_and_array_bit_identical(seed, n, d, eta):
    x, u0, _ = draw_case(seed, 1, n, d, "constant")
    rows = x[0]
    from_array = oja_kernel(rows, eta, u0)
    from_stream = oja_kernel((row for row in rows.tolist()), eta, u0)
    assert from_array[1] == from_stream[1] == n
    np.testing.assert_array_equal(from_array[0], from_stream[0])


@given(seed=st.integers(0, 2**32 - 1), states=st.integers(1, 3), n=st.integers(1, 120),
       eta=st.floats(1e-3, 0.3), law=st.sampled_from(LAWS))
def test_fixed_point_bit_exact(seed, states, n, eta, law):
    e1 = np.eye(3)[0]
    x = np.tile(e1, (states, n, 1))
    _, _, w = draw_case(seed, states, n, 3, law)
    if w is not None:
        w = np.abs(w)  # a negative multiplier can flip e1 to -e1
    out, _ = oja_kernel(x, eta, np.tile(e1, (states, 1)), w)
    np.testing.assert_array_equal(out, np.tile(e1, (states, 1)))


@pytest.mark.parametrize("law", LAWS)
def test_many_states_match_oracle(law):
    # 50 states of d = 2 exceed 16 * d, so every block is a single sample.
    assert _block_size(2, 50) == 1
    x, u0, w = draw_case(170, 50, 150, 2, law)
    out, _ = oja_kernel(x, 0.05, u0, w)
    for i in range(50):
        ref = oja_loop(x[i], 0.05, u0[i], None if w is None else w[i])
        assert np.max(np.abs(out[i] - ref)) <= TOL


def test_block_over_the_bound_is_halved():
    # Samples 32..63 load 0.25 each except sample 40 (load 1): their block
    # (8.75) and its halves (4.75) exceed the bound, its quarters do not.
    # Sample 40 zeroes the iterate, and the error names its quarter.
    e1, e2 = np.eye(2)
    x = np.tile(e2, (64, 1))
    x[40] = e1
    w = np.ones(64)
    w[40] = -4.0
    assert _block_size(2, 1) == 32
    with pytest.raises(ValueError, match=r"degenerated in samples 40\.\.47 "):
        oja_kernel(x, 0.25, e1, w)
    with pytest.raises(ValueError, match="at sample 40 "):
        oja_loop(x, 0.25, e1, w)


@pytest.mark.parametrize("weighted", [False, True])
def test_all_single_sample_parts(weighted):
    # Unit rows, eta = 5 and multipliers >= 1 load every sample over the
    # bound, so every block is split down to single samples.
    x, u0, _ = draw_case(171, 1, 300, 6, "constant")
    x = x[0] / np.linalg.norm(x[0], axis=1, keepdims=True)
    w = 1.0 + SeedSpec(172).rng().standard_exponential(300) if weighted else None
    out, _ = oja_kernel(x, 5.0, u0, w)
    assert np.max(np.abs(out[0] - oja_loop(x, 5.0, u0[0], w))) <= TOL
    if not weighted:
        np.testing.assert_array_equal(out, oja_kernel(iter(x.tolist()), 5.0, u0)[0])


@pytest.mark.parametrize("eta", [np.nan, np.inf, 0.0, -0.1])
def test_refuses_a_step_that_is_not_positive_and_finite(eta):
    x, u0, _ = draw_case(173, 2, 50, 3, "constant")
    with pytest.raises(ValueError, match="eta must be positive and finite"):
        oja_kernel(x, eta, u0)


def test_refuses_a_start_row_off_the_unit_sphere():
    x, u0, _ = draw_case(174, 3, 50, 3, "constant")
    u0[1] *= 2.0
    with pytest.raises(ValueError, match=r"start row 1 must be unit norm \(got norm 2\.0"):
        oja_kernel(x, 0.01, u0)


def test_block_size_is_derived():
    assert _block_size(200, 1) == 32
    assert _block_size(200, 27) == 8
    assert _block_size(5, 250) == 1
    for d in (1, 5, 200, 1000):
        for states in (1, 3, 27, 128, 600):
            k = _block_size(d, states)
            assert 1 <= k <= 32 and k & (k - 1) == 0


def test_memory_stays_per_segment():
    # 20000 x 50 floats are 8 MB; neither path may hold a copy of them all.
    x = SeedSpec(5).rng().standard_normal((20_000, 50))
    x.setflags(write=False)
    u0 = gaussian_unit(SeedSpec(6).rng(), 50)
    tracemalloc.start()
    try:
        from_array = oja_kernel(x, 1e-4, u0)[0]
        array_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        from_stream = oja_kernel(iter(x), 1e-4, u0)[0]
        stream_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert array_peak < x.nbytes / 4
    assert stream_peak < x.nbytes / 4
    np.testing.assert_array_equal(from_array, from_stream)


def test_bootstrap_reads_its_rows_through_a_view():
    # 20 replicas read 5000 x 200 rows (8 MB) through one broadcast view. The
    # multipliers (0.8 MB) and the block factors of one segment (about 1.5 MB)
    # stay under half of that; the broadcast of one 256-row segment, if
    # materialised, would be 8 MB alone.
    x = SeedSpec(7).rng().standard_normal((5_000, 200))
    data = Dataset(x)
    u0 = gaussian_unit(SeedSpec(8).rng(), 200)
    tracemalloc.start()
    try:
        bootstrap_run(data, 20, 1e-4, SeedSpec(9), u0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < data.samples.nbytes / 2


class TestCallersMatchOracle:
    def test_bootstrap_replicas(self, synth3):
        # b = 35 runs as two kernel calls, of 32 replicas and of 3.
        sigma, eigen, root = synth3
        data = sample(root, 500, rng=SeedSpec(150).rng())
        u0 = gaussian_unit(SeedSpec(151).rng(), 3)
        assert 3 < _CHUNK < 35 < 2 * _CHUNK
        for b in (3, 35):
            for law in ("exponential", "normal"):
                replicas = bootstrap_run(data, b, 0.02, SeedSpec(152), u0, law=law)
                for j in range(b):
                    w = _multipliers(law, SeedSpec(152).child(j).rng(), data.n)
                    ref = oja_loop(data.samples, 0.02, u0, w)
                    assert np.max(np.abs(replicas[j] - ref)) <= TOL

    def test_varest_batch_runs(self, synth3):
        sigma, eigen, root = synth3
        data = sample(root, 700, rng=SeedSpec(153).rng())
        result = ojavarest(data, 0.1, eigen.leading, eigen.gap, m1=3, m2=4, seed=SeedSpec(154))
        batch = result.batch_size
        refs = [oja_loop(data.samples[i * batch : (i + 1) * batch], result.eta_b,
                         gaussian_unit(SeedSpec(154).child(i).rng(), 3)) for i in range(12)]
        for ell in range(3):
            ref = batch_variance(refs[ell * 4 : (ell + 1) * 4], eigen.leading)
            assert np.max(np.abs(result.batch_sigma2[ell] - ref)) <= TOL

    def test_residual_trials_keep_their_streams(self, synth5):
        sigma, eigen, root = synth5
        n, seed = 300, SeedSpec(155)
        rows = residual_trials(root, eigen, n=n, trials=5, seed=seed)
        eta = learning_rate(n, eigen.gap, 2.0)
        v1 = eigen.leading
        for t in range(5):
            st_ = seed.child(t)
            data = sample(root, n, rng=st_.child(0).rng())
            v = oja_loop(data.samples, eta, gaussian_unit(st_.child(1).rng(), eigen.d))
            assert np.max(np.abs(rows[t] - (v - float(v1 @ v) * v1))) <= TOL


class TestDegenerateIterate:
    # A block holding such a row exceeds the load bound, so it goes one
    # sample at a time and the error names the row itself.
    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200])
    def test_oja_run_names_the_sample(self, bad):
        x = SeedSpec(160).rng().standard_normal((100, 3))
        x[57, 1] = bad
        with pytest.raises(ValueError, match=r"degenerated in samples 57\.\.57"):
            oja_run(x, 0.01, np.eye(3)[0])

    def test_bootstrap_run(self):
        # Datasets reject NaN and inf, so the iterate is made to overflow.
        x = SeedSpec(161).rng().standard_normal((100, 3))
        x[57] = 1e200
        with pytest.raises(ValueError, match=r"replica 0: .*degenerated in samples 57\.\.57"):
            bootstrap_run(Dataset(x), 2, 0.01, SeedSpec(162), np.eye(3)[0], law="exponential")

    def test_bootstrap_run_names_a_replica_past_the_first_chunk(self, monkeypatch):
        # Replica 33, state 1 of the second kernel call, alone gets an infinite
        # multiplier at sample 57.
        draw = bootstrap._multipliers

        def multipliers(law, rng, n):
            w = draw(law, rng, n)
            if rng.bit_generator.seed_seq.spawn_key[-1] == 33:
                w[57] = np.inf
            return w

        monkeypatch.setattr(bootstrap, "_multipliers", multipliers)
        x = SeedSpec(163).rng().standard_normal((100, 3))
        with pytest.raises(ValueError, match=r"^replica 33: iterate 1 degenerated in samples 57\.\.57"):
            bootstrap_run(Dataset(x), 35, 0.01, SeedSpec(164), np.eye(3)[0])
