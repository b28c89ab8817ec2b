import numpy as np
import pytest

from ojainfer import SeedLabel, SeedSpec, bootstrap_run, bootstrap_variance, learning_rate
from ojainfer.experiments import ExperimentRecord, method_variance, parse_method, proxy, run_coverage_experiment
from ojainfer.oja import gaussian_unit
from ojainfer.synth import sample


class TestParseMethod:
    def test_known_specs(self):
        assert parse_method("ojavarest") == ("ojavarest", None)
        assert parse_method("bootstrap:7") == ("bootstrap", 7)
        assert parse_method("bootstrap") == ("bootstrap", 20)

    @pytest.mark.parametrize("spec", ["bootstrap:x", "bootstrap:", "bootstrap:0", "bootstrap:-3"])
    def test_bad_count_names_the_spec(self, spec):
        with pytest.raises(ValueError, match=f"'{spec}'"):
            parse_method(spec)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown method 'magic'"):
            parse_method("magic")

    def test_record_uses_the_same_names(self):
        for method in ("bootstrap:x", "bootstrap:0", "ojavarest:2"):
            with pytest.raises(ValueError):
                ExperimentRecord(trial=0, method=method, n=1, d=1, beta=1.0, b=None,
                                 tracked=(1,), hits=(1,), sin2_error=0.0,
                                 vtilde_ms=0.0, estimate_ms=0.0)


SMALL = dict(n=300, d=6, beta=1.0, trials=3, m1=2, m2=2)


class TestCoverageExperiment:
    @pytest.mark.parametrize("coord", [0, 7, -1])
    def test_tracked_outside_range_rejected(self, coord):
        with pytest.raises(ValueError, match=f"tracked coordinate {coord} is outside 1..6"):
            run_coverage_experiment(methods=("ojavarest",), tracked=(1, coord), **SMALL)

    def test_repeated_method_rejected(self):
        with pytest.raises(ValueError, match="repeat"):
            run_coverage_experiment(methods=("ojavarest", "ojavarest"), **SMALL)

    def test_reports_and_records_share_one_scorer(self):
        methods, tracked = ("ojavarest", "bootstrap:2"), (1, 3, 6)
        outcome = run_coverage_experiment(methods=methods, tracked=tracked,
                                          seed=SeedSpec(31), **SMALL)
        assert len(outcome.records) == SMALL["trials"] * len(methods)
        for m in methods:
            rows = [r.to_row() for r in outcome.records if r.method == m]
            assert outcome.reports[m].trials == SMALL["trials"]
            for c in tracked:
                assert outcome.reports[m].hits[c - 1] == sum(row[f"hit_c{c}"] for row in rows)


class TestMethodVariance:
    def test_both_steps_follow_alpha(self, synth3):
        spec, sigma, eigen, root = synth3
        data = sample(spec, root, 600, rng=SeedSpec(32).rng())
        gap, stream = eigen.gap, SeedSpec(33)
        eta_n = learning_rate(data.n, gap, 3.0)
        vt, proxy_eta = proxy(data, gap, 3.0, stream)
        assert proxy_eta == eta_n
        full, result = method_variance("ojavarest", data, vt, gap, 3.0, stream, m1=2, m2=2)
        assert result.eta_b == learning_rate(result.batch_size, gap, 3.0)
        np.testing.assert_array_equal(full, result.batch_scale_sigma2() * (eta_n / result.eta_b))
        boot, replicas = method_variance("bootstrap:3", data, vt, gap, 3.0, stream)
        u0 = gaussian_unit(stream.child(SeedLabel.BOOTSTRAP_START).rng(), data.d)
        np.testing.assert_array_equal(
            replicas, bootstrap_run(data, 3, eta_n, stream.child(SeedLabel.BOOTSTRAP, 3), u0))
        np.testing.assert_array_equal(boot, bootstrap_variance(replicas, vt))
