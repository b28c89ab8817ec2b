import math
import os
import sys

# The suite runs with the console script's BLAS default: one BLAS thread unless the user set a
# BLAS variable, so that numpy starts no thread pool and the forked paths run. It has to be set
# before numpy loads; importing ojainfer.cli loads no numpy.
if "numpy" in sys.modules:
    raise RuntimeError("numpy was loaded before tests/conftest.py, too late to set the BLAS default")
from ojainfer.cli import _default_blas_threads  # noqa: E402

_default_blas_threads()

import numpy as np  # noqa: E402
import pytest
from hypothesis import settings

from ojainfer import SeedSpec, build_r0_v, build_sigma, estimate_mtilde
from ojainfer.synth import vector_sampler

from checks import residual_trials


@pytest.fixture(scope="session")
def synth3():
    return build_sigma(3, 1.0)


@pytest.fixture(scope="session")
def synth5():
    return build_sigma(5, 1.0)


@pytest.fixture(scope="session")
def synth50():
    return build_sigma(50, 1.0)


@pytest.fixture(scope="session")
def moments3(synth3):
    sigma, eigen, root = synth3
    return estimate_mtilde(vector_sampler(root), eigen, 10**6, SeedSpec(11))


@pytest.fixture(scope="session")
def asym5(synth5):
    sigma, eigen, root = synth5
    moments = estimate_mtilde(vector_sampler(root), eigen, 400_000, SeedSpec(9))
    return moments, build_r0_v(moments, eigen)


@pytest.fixture(scope="session")
def asym50(synth50):
    sigma, eigen, root = synth50
    moments = estimate_mtilde(vector_sampler(root), eigen, 400_000, SeedSpec(7))
    return moments, build_r0_v(moments, eigen)


@pytest.fixture(scope="session")
def residuals5(synth5):
    # 2000 independent streaming runs at n=4000; shared by the limit-theorem
    # checks and the entrywise-bound checks.
    sigma, eigen, root = synth5
    draws = residual_trials(root, eigen, n=4000, trials=2000, seed=SeedSpec(77))
    return draws


@pytest.fixture(autouse=True)
def private_cache(tmp_path_factory, monkeypatch):
    """Point the parsed-array cache of the commands that read --input at a fresh directory."""
    cache_home = tmp_path_factory.mktemp("xdg-cache")
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache_home))
    return cache_home / "ojainfer"


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process unreaped (read_csv and run_coverage_experiment fork)."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process: {'running' if pid == 0 else f'pid {pid} unreaped'}")


def random_unit(rng, d):
    g = rng.standard_normal(d)
    return g / np.linalg.norm(g)


def rank_one(lam, v):
    """Sigma = lam v v^T and a sampler whose every row is sqrt(lam) v, so that every A is Sigma."""
    v = np.asarray(v, dtype=np.float64) / np.linalg.norm(v)
    row = math.sqrt(lam) * v

    def draw(rng, m):
        return np.tile(row, (m, 1))

    return lam * np.outer(v, v), draw


# Property tests draw the same examples on every run, so a rerun of the suite
# reproduces its result; no deadline, because example wall times on a shared
# machine say nothing about correctness.
settings.register_profile("ojainfer", derandomize=True, deadline=None, database=None)
settings.load_profile("ojainfer")
