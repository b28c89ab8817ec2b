import logging
import os
import pickle
import signal
import threading

import numpy as np
import pytest

from ojainfer import (SeedLabel, SeedSpec, batch_variance, bootstrap_run, experiments, learning_rate,
                      median_of_means, workers)
from ojainfer.core import RegimeError
from ojainfer.experiments import (
    method_variance,
    parse_method,
    parse_methods,
    proxy,
    run_bench,
    run_coverage_experiment,
)
from ojainfer.oja import gaussian_unit
from ojainfer.synth import sample


class TestParseMethod:
    def test_known_specs(self):
        assert parse_method("ojavarest") == ("ojavarest", None)
        assert parse_method("bootstrap:7") == ("bootstrap", 7)
        with pytest.raises(ValueError, match="unknown method 'bootstrap'"):
            parse_method("bootstrap")

    @pytest.mark.parametrize("spec", ["bootstrap:x", "bootstrap:", "bootstrap:0", "bootstrap:-3"])
    def test_bad_count_names_the_spec(self, spec):
        with pytest.raises(ValueError, match=f"'{spec}'"):
            parse_method(spec)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown method 'magic'"):
            parse_method("magic")

    def test_list_maps_each_spec_to_its_replica_count(self):
        assert parse_methods(("ojavarest", "bootstrap:3")) == {"ojavarest": None, "bootstrap:3": 3}

    def test_record_uses_the_same_names(self):
        # Records carry the specs, and the replica counts, that parse_methods gave;
        # a spec it refuses stops the experiment before any trial.
        methods = ("ojavarest", "bootstrap:2")
        outcome = run_coverage_experiment(methods=methods, seed=SeedSpec(34), **SMALL)
        assert {(r["method"], r["b"]) for r in outcome.records} == set(parse_methods(methods).items())
        for method in ("bootstrap:x", "bootstrap:0", "ojavarest:2"):
            with pytest.raises(ValueError, match=f"'{method}'"):
                run_coverage_experiment(methods=("ojavarest", method), **SMALL)


SMALL = dict(n=300, d=6, beta=1.0, trials=3, m1=2, m2=2)


class TestCoverageExperiment:
    @pytest.mark.parametrize("coord", [0, 7, -1])
    def test_tracked_outside_range_rejected(self, coord):
        with pytest.raises(ValueError, match=f"tracked coordinate {coord} is outside 1..6"):
            run_coverage_experiment(methods=("ojavarest",), tracked=(1, coord), **SMALL)

    def test_repeated_method_rejected(self):
        with pytest.raises(ValueError, match="repeat"):
            run_coverage_experiment(methods=("ojavarest", "ojavarest"), **SMALL)

    def test_repeated_tracked_coordinate_rejected(self):
        # Records key a coordinate's hits by hit_c<k>, so a repeat would collapse into one column.
        with pytest.raises(ValueError, match=r"tracked coordinate 3 repeats: \[1, 3, 3\]"):
            run_coverage_experiment(methods=("ojavarest",), tracked=(1, 3, 3), **SMALL)

    def test_collapsed_schedule_rejected_before_the_first_trial(self, monkeypatch):
        calls = []
        monkeypatch.setattr(experiments, "proxy", lambda *a, **k: calls.append(1))
        with pytest.raises(ValueError, match=r"m1 must be at least 1 \(got 0\)"):
            run_coverage_experiment(methods=("bootstrap:2", "ojavarest"), **(SMALL | {"m1": 0}))
        assert calls == []

    def test_bench_refuses_the_schedule_before_any_pass(self, monkeypatch):
        # n = 16 leaves PAPER_M1's batches under 2 samples; no Sigma, sample or pass comes first.
        for name in ("build_sigma", "sample", "proxy", "bootstrap_run", "ojavarest"):
            monkeypatch.setattr(experiments, name, lambda *a, _name=name, **k: pytest.fail(f"{_name} ran"))
        with pytest.raises(ValueError, match="insufficient data for the schedule"):
            run_bench(n=16, d=4, methods=("bootstrap:1", "ojavarest"))

    @pytest.mark.parametrize("level", [1.5, 0.0, float("nan")])
    def test_bad_level_rejected_before_the_first_trial(self, monkeypatch, level):
        calls = []
        monkeypatch.setattr(experiments, "proxy", lambda *a, **k: calls.append(1))
        with pytest.raises(ValueError, match=rf"^level must lie in \(0, 1\) \(got {level}\)"):
            run_coverage_experiment(methods=("ojavarest",), level=level, **SMALL)
        assert calls == []

    def test_reports_and_records_share_one_scorer(self):
        methods, tracked = ("ojavarest", "bootstrap:2"), (1, 3, 6)
        outcome = run_coverage_experiment(methods=methods, tracked=tracked,
                                          seed=SeedSpec(31), **SMALL)
        assert len(outcome.records) == SMALL["trials"] * len(methods)
        for r in outcome.records:
            assert list(r) == ["trial", "method", "n", "d", "beta", "b", "hit_c1", "hit_c3", "hit_c6",
                               "sin2_error", "vtilde_ms", "estimate_ms"]
        for m in methods:
            rows = [r for r in outcome.records if r["method"] == m]
            assert outcome.reports[m].trials == SMALL["trials"]
            for c in tracked:
                assert outcome.reports[m].hits[c - 1] == sum(row[f"hit_c{c}"] for row in rows)


FORKED = dict(n=300, d=6, beta=1.0, m1=2, m2=2, methods=("ojavarest", "bootstrap:2"),
              tracked=(1, 4), seed=SeedSpec(35))


# The real sender, for the test that wraps it.
SEND = workers._send


def _outputs(outcome):
    """The coverage table and the records without their wall clocks."""
    records = [{k: v for k, v in r.items() if not k.endswith("_ms")}
               for r in outcome.records]
    return outcome.table_rows(), records


class TestForkedTrials:
    """run_coverage_experiment's trials split over forked children, forced on by the probes."""

    @pytest.fixture
    def forks(self, monkeypatch):
        """Count the parent's os.fork calls; split(w) forces w workers, split(1) the in-process loop,
        and split(w, fork=False) sets w usable CPUs and shuts the gate."""
        calls = []
        real = os.fork
        monkeypatch.setattr(os, "fork", lambda: calls.append(1) or real())

        def split(cpus, fork=True):
            monkeypatch.setattr(workers, "IMPORT_THREADS", 1 if fork else 2)
            monkeypatch.setattr(workers, "os_threads", lambda: 1)
            monkeypatch.setattr(workers, "usable_cpus", lambda: cpus)

        return calls, split

    @staticmethod
    def _at_trial(monkeypatch, trial, action):
        """Run ``action(pid)`` when the proxy pass of ``trial`` starts, in whichever process runs it."""
        real = experiments.proxy

        def proxy(data, gap, alpha, stream, *args):
            if stream.stream[-1] == trial:
                action(os.getpid())
            return real(data, gap, alpha, stream, *args)

        monkeypatch.setattr(experiments, "proxy", proxy)

    @pytest.mark.parametrize("trials", [1, 2, 5])
    @pytest.mark.parametrize("workers", [2, 3])
    def test_outputs_match_the_in_process_loop(self, forks, monkeypatch, trials, workers):
        calls, split = forks
        real, part_counts = experiments.run_parts, []
        monkeypatch.setattr(experiments, "run_parts",
                            lambda parts: part_counts.append(len(parts)) or real(parts))
        split(1)
        want = _outputs(run_coverage_experiment(trials=trials, **FORKED))
        assert calls == []
        # Where the process may not fork, the trials are one range, run here as one part.
        split(workers, fork=False)
        assert experiments.cpu_ranges(trials) == [(0, trials)]
        outcome = run_coverage_experiment(trials=trials, **FORKED)
        assert _outputs(outcome) == want
        assert (calls, outcome.config["workers"]) == ([], 1)
        split(workers)
        outcome = run_coverage_experiment(trials=trials, **FORKED)
        assert _outputs(outcome) == want
        assert len(calls) == min(workers, trials) - 1
        assert (outcome.config["workers"], outcome.config["reruns"]) == (min(workers, trials), [])
        assert part_counts == [1, 1, min(workers, trials)]

    def test_error_in_a_child_is_raised_as_in_process(self, forks, monkeypatch):
        calls, split = forks

        def degenerate(pid):
            raise RegimeError("iterate 3 degenerated")

        self._at_trial(monkeypatch, 3, degenerate)
        raised = []
        for workers in (1, 2):  # 2 workers: trials 2..4 run in the child
            split(workers)
            with pytest.raises(Exception) as info:
                run_coverage_experiment(trials=5, **FORKED)
            raised.append((info.type, str(info.value)))
        assert raised == [(RegimeError, "iterate 3 degenerated")] * 2
        assert len(calls) == 1

    @staticmethod
    def _short_pickle(part, wfd):
        with open(wfd, "wb") as out:
            out.write(pickle.dumps(part())[:-8])

    @staticmethod
    def _send_then_exit_3(part, wfd):
        SEND(part, wfd)
        os._exit(3)

    @pytest.mark.parametrize("death", ["sigkill", "exit-3", "short-pickle", "exit-3-after-sending"])
    def test_failed_child_is_recomputed_here(self, forks, monkeypatch, caplog, death):
        calls, split = forks
        split(1)
        want = _outputs(run_coverage_experiment(trials=5, **FORKED))
        parent = os.getpid()
        if death == "short-pickle":
            monkeypatch.setattr(workers, "_send", self._short_pickle)
        elif death == "exit-3-after-sending":
            # The whole pickle arrived, but a non-zero exit still voids it.
            monkeypatch.setattr(workers, "_send", self._send_then_exit_3)
        else:
            kill = {"sigkill": lambda pid: os.kill(pid, signal.SIGKILL), "exit-3": lambda pid: os._exit(3)}
            self._at_trial(monkeypatch, 3, lambda pid: pid != parent and kill[death](pid))
        split(2)
        with caplog.at_level(logging.WARNING, logger="ojainfer.workers"):
            outcome = run_coverage_experiment(trials=5, **FORKED)
        assert _outputs(outcome) == want
        assert len(calls) == 1
        # The config records the split and the range run again here, and a warning names it.
        assert (outcome.config["workers"], outcome.config["reruns"]) == (2, [1])
        assert [r.getMessage() for r in caplog.records] == [
            "part 1 of 2: its worker failed, so it runs again here"]

    def test_interrupt_in_the_parent_reaps_the_children(self, forks, monkeypatch):
        # Ctrl-C during the parent's own range; the conftest fixture checks
        # that no child is left.
        calls, split = forks
        parent = os.getpid()

        def interrupt(pid):
            if pid == parent:
                raise KeyboardInterrupt

        self._at_trial(monkeypatch, 0, interrupt)
        split(3)
        with pytest.raises(KeyboardInterrupt):
            run_coverage_experiment(trials=5, **FORKED)
        assert len(calls) == 2

    def test_no_fork_while_another_thread_runs(self, forks, monkeypatch):
        calls, _ = forks
        monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
        before = workers.os_threads()
        release = threading.Event()
        waiter = threading.Thread(target=release.wait)
        waiter.start()
        try:
            assert workers.os_threads() == before + 1
            run_coverage_experiment(trials=2, **FORKED)
        finally:
            release.set()
            waiter.join(timeout=10)
        assert not waiter.is_alive()
        assert calls == []

    def test_no_fork_after_a_fork_when_threaded_at_import(self, forks, monkeypatch):
        # A fork stops OpenBLAS's default pool in this process, and a d = 5
        # coverage makes no BLAS call large enough to restart it, so the
        # thread count reads 1; the two threads at import still rule out a fork.
        calls, _ = forks
        monkeypatch.setattr(workers, "IMPORT_THREADS", 2)
        monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
        pid = os.fork()
        if pid == 0:
            os._exit(0)
        os.waitpid(pid, 0)
        assert workers.os_threads() == 1
        outcome = run_coverage_experiment(trials=2, **(FORKED | {"d": 5}))
        assert len(calls) == 1
        assert outcome.config["workers"] == 1


class TestMethodVariance:
    def test_both_steps_follow_alpha(self, synth3):
        sigma, eigen, root = synth3
        data = sample(root, 600, rng=SeedSpec(32).rng())
        gap, stream = eigen.gap, SeedSpec(33)
        eta_n = learning_rate(data.n, gap, 3.0)
        vt, proxy_eta = proxy(data, gap, 3.0, stream)
        assert proxy_eta == eta_n
        full, result = method_variance("ojavarest", data, vt, gap, 3.0, stream, m1=2, m2=2)
        assert result.eta_b == learning_rate(result.batch_size, gap, 3.0)
        np.testing.assert_array_equal(full, median_of_means(result.batch_sigma2) * (eta_n / result.eta_b))
        boot, replicas = method_variance("bootstrap:3", data, vt, gap, 3.0, stream)
        u0 = gaussian_unit(stream.child(SeedLabel.BOOTSTRAP_START).rng(), data.d)
        np.testing.assert_array_equal(
            replicas, bootstrap_run(data, 3, eta_n, stream.child(SeedLabel.BOOTSTRAP, 3), u0))
        np.testing.assert_array_equal(boot, batch_variance(replicas, vt))
