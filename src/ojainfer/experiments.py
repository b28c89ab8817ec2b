"""Desk-scale experiment drivers: coverage sweeps, timing bench, limit checks.

Each trial owns a derived random stream keyed by its index, and aggregation
runs in trial order, so results are reproducible. Wall clocks are measured
around compute only and never feed back into results.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .bootstrap import BootstrapConfig, bootstrap_run, bootstrap_variance
from .core import Dataset, EigenSystem, SeedSpec, sin2
from .inference import ConfidenceBand, CoverageReport, build_ci, evaluate_coverage
from .io import ExperimentRecord
from .oja import gaussian_unit, learning_rate, oja_kernel, oja_run
from .synth import SynthSpec, build_sigma, sample
from .varest import VarEstConfig, ojavarest
from .core import psd_sqrt

DEFAULT_METHODS = ("ojavarest", "bootstrap:1", "bootstrap:20")


def parse_method(spec: str) -> tuple[str, int | None]:
    """Parse "ojavarest" or "bootstrap:<b>" into (name, replica count)."""
    if spec == "ojavarest":
        return "ojavarest", None
    if spec.startswith("bootstrap:"):
        b = int(spec.split(":", 1)[1])
        if b < 1:
            raise ValueError(f"bootstrap replica count must be >= 1 (got {b})")
        return "bootstrap", b
    if spec == "bootstrap":
        return "bootstrap", 20
    raise ValueError(f"unknown method {spec!r}; expected 'ojavarest' or 'bootstrap:<b>'")


@dataclass(frozen=True)
class CoverageOutcome:
    """Aggregated coverage per method plus the per-trial record stream."""

    reports: dict[str, CoverageReport]
    records: list[ExperimentRecord]
    truth: np.ndarray
    config: dict

    def table_rows(self, tracked: tuple[int, ...]) -> list[dict]:
        """Rows (n, d, coordinate) x method-columns, matching a coverage table."""
        cfg = self.config
        rows = []
        for coord in tracked:
            row = {"n": cfg["n"], "d": cfg["d"], "beta": cfg["beta"], "coordinate": coord}
            for method, report in self.reports.items():
                row[method] = float(report.rates[coord - 1])
            rows.append(row)
        return rows


def run_coverage_experiment(
    n: int,
    d: int,
    beta: float,
    trials: int,
    methods: tuple[str, ...] = DEFAULT_METHODS,
    level: float = 0.95,
    delta: float = 0.05,
    seed: SeedSpec = SeedSpec(0),
    varest_config: VarEstConfig | None = None,
    ci_scale: str = "full",
    tracked: tuple[int, ...] = (1, 2),
) -> CoverageOutcome:
    """Repeated-trial coverage of per-coordinate intervals on synthetic data.

    Every trial draws a fresh dataset from the family, computes one shared
    proxy vector by a full streaming pass, builds one interval per method
    around it, and scores the intervals against the known leading
    eigenvector. Reports aggregate per coordinate over all trials.

    ``ci_scale`` applies to the subsampling estimator only. The default
    "full" rescales its batch-level spread to the full-sample step size,
    which is the scale at which the proxy vector itself fluctuates; "batch"
    uses the spread as-is and empirically over-covers by a wide margin (the
    interval is wider by roughly sqrt(eta_B/eta_n)).
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    for m in methods:
        parse_method(m)
    spec = SynthSpec(d=d, beta=beta, seed=seed)
    sigma, eigen = build_sigma(spec)
    root = psd_sqrt(sigma)
    vcfg = varest_config if varest_config is not None else VarEstConfig.paper_experiments()
    tracked = tuple(tracked)
    gap = eigen.require_gap()
    eta_n = learning_rate(n, gap, vcfg.alpha)
    bands: dict[str, list[ConfidenceBand]] = {m: [] for m in methods}
    records: list[ExperimentRecord] = []
    for trial in range(trials):
        st = seed.child(trial)
        data = sample(spec, root, n, rng=st.child(0).rng())
        t0 = time.perf_counter()
        u0 = gaussian_unit(st.child(1).rng(), spec.d)
        vtilde = oja_run(data, eta_n, u0).estimate
        vtilde_ms = (time.perf_counter() - t0) * 1e3
        accuracy = sin2(vtilde, eigen.leading)
        for method_spec in methods:
            name, b = parse_method(method_spec)
            t1 = time.perf_counter()
            if name == "ojavarest":
                cfg = VarEstConfig(delta=vcfg.delta, m1=vcfg.m1, m2=vcfg.m2,
                                   alpha=vcfg.alpha, seed=st.child(2))
                result = ojavarest(data, delta, vtilde, gap, cfg)
                band = build_ci(vtilde, result.batch_scale_sigma2(), level,
                                scale_mode=ci_scale, eta_b=result.eta_b, eta_n=eta_n,
                                gap=gap, sigma_source="ojavarest")
            else:
                bcfg = BootstrapConfig(b=b, law="exponential", eta=eta_n, seed=st.child(3, b))
                u0_boot = gaussian_unit(st.child(4).rng(), spec.d)
                replicas = bootstrap_run(data, bcfg, u0_boot)
                sigma2 = bootstrap_variance(replicas, vtilde)
                band = build_ci(vtilde, sigma2, level, scale_mode="batch",
                                sigma_source="bootstrap")
            estimate_ms = (time.perf_counter() - t1) * 1e3
            bands[method_spec].append(band)
            aligned = band.center if float(band.center @ eigen.leading) >= 0 else -band.center
            hits = tuple(
                int(abs(eigen.leading[c - 1] - aligned[c - 1]) <= band.half_width[c - 1])
                for c in tracked
            )
            records.append(ExperimentRecord(
                trial=trial, method=method_spec, n=n, d=spec.d, beta=spec.beta, b=b,
                tracked=tracked, hits=hits, sin2_error=accuracy,
                vtilde_ms=vtilde_ms, estimate_ms=estimate_ms,
            ))
    config = {
        "n": n, "d": d, "beta": beta, "trials": trials, "level": level,
        "delta": delta, "methods": list(methods), "ci_scale": ci_scale,
        "m1": vcfg.m1, "m2": vcfg.m2, "alpha": vcfg.alpha,
        "seed": seed.master, "tracked": list(tracked),
    }
    reports = {m: evaluate_coverage(bands[m], eigen.leading, config={**config, "method": m})
               for m in methods}
    return CoverageOutcome(reports=reports, records=records,
                           truth=eigen.leading.copy(), config=config)


@dataclass(frozen=True)
class BenchRecord:
    """End-to-end wall clock of one method on one dataset."""

    method: str
    n: int
    d: int
    vtilde_ms: float
    estimate_ms: float
    total_ms: float

    def to_row(self) -> dict:
        return {
            "method": self.method, "n": self.n, "d": self.d,
            "vtilde_ms": self.vtilde_ms, "estimate_ms": self.estimate_ms,
            "total_ms": self.total_ms,
        }


def run_bench(
    n: int,
    d: int,
    methods: tuple[str, ...],
    beta: float = 1.0,
    delta: float = 0.05,
    seed: SeedSpec = SeedSpec(0),
    varest_config: VarEstConfig | None = None,
) -> list[BenchRecord]:
    """Time each method on one shared dataset, one phase at a time.

    The proxy-vector pass is timed separately from the variance estimation:
    the estimators take the proxy as an input, so ``estimate_ms`` is the
    apples-to-apples cost of the uncertainty step itself. An untimed warmup
    pass runs first so the earliest method is not charged for cache faults.
    """
    spec = SynthSpec(d=d, beta=beta, seed=seed)
    sigma, eigen = build_sigma(spec)
    root = psd_sqrt(sigma)
    gap = eigen.require_gap()
    data = sample(spec, root, n, rng=seed.child(0).rng())
    vcfg = varest_config if varest_config is not None else VarEstConfig.paper_experiments()
    eta_n = learning_rate(n, gap, vcfg.alpha)
    oja_run(data, eta_n, gaussian_unit(seed.child(99).rng(), d))  # warmup, untimed

    records: list[BenchRecord] = []
    for idx, method_spec in enumerate(methods):
        name, b = parse_method(method_spec)
        st = seed.child(10 + idx)
        t0 = time.perf_counter()
        u0 = gaussian_unit(st.child(1).rng(), spec.d)
        vtilde = oja_run(data, eta_n, u0).estimate
        t1 = time.perf_counter()
        if name == "ojavarest":
            cfg = VarEstConfig(delta=vcfg.delta, m1=vcfg.m1, m2=vcfg.m2,
                               alpha=vcfg.alpha, seed=st.child(2))
            result = ojavarest(data, delta, vtilde, gap, cfg)
            del result
        else:
            bcfg = BootstrapConfig(b=b, law="exponential", eta=eta_n, seed=st.child(3))
            u0_boot = gaussian_unit(st.child(4).rng(), d)
            replicas = bootstrap_run(data, bcfg, u0_boot)
            bootstrap_variance(replicas, vtilde)
        t2 = time.perf_counter()
        records.append(BenchRecord(
            method=method_spec, n=n, d=d,
            vtilde_ms=(t1 - t0) * 1e3,
            estimate_ms=(t2 - t1) * 1e3,
            total_ms=(t2 - t0) * 1e3,
        ))
    return records


# Trials per kernel call in residual_trials; its buffers hold twice this many datasets.
_TRIAL_CHUNK = 128


def residual_trials(
    spec: SynthSpec,
    root: np.ndarray,
    eigen: EigenSystem,
    n: int,
    trials: int,
    seed: SeedSpec = SeedSpec(0),
    alpha: float = 2.0,
) -> np.ndarray:
    """Draw (trials, d) residuals of fresh streaming runs against the truth.

    Each row is v_est - (v1 . v_est) v1 for one independent dataset and
    initial vector; used by the concentration and limit-distribution checks.
    """
    gap = eigen.require_gap()
    eta_n = learning_rate(n, gap, alpha)
    v1 = eigen.leading
    rows = np.empty((trials, spec.d))
    for lo in range(0, trials, _TRIAL_CHUNK):
        streams = [seed.child(t) for t in range(lo, min(lo + _TRIAL_CHUNK, trials))]
        data = np.stack([sample(spec, root, n, rng=st.child(0).rng()).samples for st in streams])
        starts = np.array([gaussian_unit(st.child(1).rng(), spec.d) for st in streams])
        v, _ = oja_kernel(data, eta_n, starts)
        rows[lo : lo + len(streams)] = v - (v @ v1)[:, None] * v1
    return rows
