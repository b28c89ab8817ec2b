import os

import numpy as np
import pytest
from hypothesis import settings

from ojainfer import SeedSpec, build_r0_v, build_sigma, estimate_mtilde, psd_sqrt
from ojainfer.experiments import residual_trials
from ojainfer.synth import SynthSpec, vector_sampler


def make_instance(d, beta=1.0, seed=0):
    spec = SynthSpec(d=d, beta=beta, seed=SeedSpec(seed))
    sigma, eigen = build_sigma(spec)
    return spec, sigma, eigen, psd_sqrt(sigma)


@pytest.fixture(scope="session")
def synth3():
    return make_instance(3)


@pytest.fixture(scope="session")
def synth5():
    return make_instance(5)


@pytest.fixture(scope="session")
def synth50():
    return make_instance(50)


@pytest.fixture(scope="session")
def moments3(synth3):
    spec, sigma, eigen, root = synth3
    return estimate_mtilde(vector_sampler(spec, root), eigen, 10**6, SeedSpec(11))


@pytest.fixture(scope="session")
def asym5(synth5):
    spec, sigma, eigen, root = synth5
    moments = estimate_mtilde(vector_sampler(spec, root), eigen, 400_000, SeedSpec(9))
    return moments, build_r0_v(moments, eigen)


@pytest.fixture(scope="session")
def asym50(synth50):
    spec, sigma, eigen, root = synth50
    moments = estimate_mtilde(vector_sampler(spec, root), eigen, 400_000, SeedSpec(7))
    return moments, build_r0_v(moments, eigen)


@pytest.fixture(scope="session")
def residuals5(synth5):
    # 2000 independent streaming runs at n=4000; shared by the limit-theorem
    # checks and the entrywise-bound checks.
    spec, sigma, eigen, root = synth5
    draws = residual_trials(spec, root, eigen, n=4000, trials=2000, seed=SeedSpec(77))
    return draws


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process unreaped (read_csv forks workers)."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process: {'running' if pid == 0 else f'pid {pid} unreaped'}")


def random_unit(rng, d):
    g = rng.standard_normal(d)
    return g / np.linalg.norm(g)


# Property tests draw the same examples on every run, so a rerun of the suite
# reproduces its result; no deadline, because example wall times on a shared
# machine say nothing about correctness.
settings.register_profile("ojainfer", derandomize=True, deadline=None, database=None)
settings.load_profile("ojainfer")
