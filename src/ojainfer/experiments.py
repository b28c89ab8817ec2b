"""Desk-scale experiment drivers: coverage sweeps, timing bench.

Each trial owns a derived random stream keyed by its index, and aggregation
runs in trial order, so results are reproducible. Wall clocks are measured
around compute only and never feed back into results.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from .bootstrap import bootstrap_run
from .core import Dataset, SeedLabel, SeedSpec, sin2
from .defaults import (DEFAULT_ALPHA, DEFAULT_BETA, DEFAULT_DELTA, DEFAULT_LAW, DEFAULT_LEVEL,
                       DEFAULT_METHODS, DEFAULT_TRACKED, PAPER_M1, require_at_least, require_open_unit)
from .inference import CoverageReport, band_hits, build_ci
from .oja import gaussian_unit, learning_rate, oja_boosted, oja_run, require_regime
from .synth import build_sigma, sample
from .varest import VarEstResult, batch_variance, median_of_means, ojavarest, plan_schedule
from .workers import cpu_ranges, run_parts


def parse_method(spec: str) -> tuple[str, int | None]:
    """Parse "ojavarest" or "bootstrap:<b>" into (name, replica count)."""
    if spec == "ojavarest":
        return "ojavarest", None
    if spec.startswith("bootstrap:"):
        try:
            b = int(spec.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"method {spec!r}: the replica count is not an integer") from None
        require_at_least(f"method {spec!r}: the replica count", b, 1)
        return "bootstrap", b
    raise ValueError(f"unknown method {spec!r}; expected 'ojavarest' or 'bootstrap:<b>'")


def parse_methods(specs: tuple[str, ...]) -> dict[str, int | None]:
    """Parse every spec before any work runs: {spec: replica count}, refusing repeats."""
    counts = {m: parse_method(m)[1] for m in specs}
    if len(counts) < len(specs):
        raise ValueError(f"methods repeat: {list(specs)}")
    return counts


def _plan(specs: tuple[str, ...], n: int, d: int, m1: int | None, m2: int | None) -> dict[str, int | None]:
    """:func:`parse_methods`, and ojavarest's :func:`plan_schedule`: a driver's checks before any work."""
    counts = parse_methods(specs)
    if "ojavarest" in counts:
        plan_schedule(n, d, DEFAULT_DELTA, m1, m2)
    return counts


def proxy(data: Dataset, gap: float, alpha: float, stream: SeedSpec,
          boosted_delta: float | None = None) -> tuple[np.ndarray, float]:
    """The proxy vector vtilde and the full-sample step eta_n it was run at.

    One streaming pass from a start drawn from ``stream.child(SeedLabel.START)``,
    refused by :func:`require_regime` when eta_n * lambda_1 >= 1, or with
    ``boosted_delta`` the central candidate of :func:`oja_boosted`.
    """
    eta_n = learning_rate(data.n, gap, alpha)
    start = stream.child(SeedLabel.START)
    if boosted_delta is not None:
        return oja_boosted(data, boosted_delta, gap, alpha, start), eta_n
    vtilde = oja_run(data, eta_n, gaussian_unit(start.rng(), data.d))
    require_regime(data.samples, vtilde, eta_n, gap, "eta_n")
    return vtilde, eta_n


def method_variance(method: str, data: Dataset, vtilde: np.ndarray, gap: float, alpha: float,
                    stream: SeedSpec, delta: float = DEFAULT_DELTA, m1: int | None = PAPER_M1,
                    m2: int | None = None, law: str = DEFAULT_LAW
                    ) -> tuple[np.ndarray, VarEstResult | np.ndarray]:
    """One method's per-coordinate variance around ``vtilde`` at the interval's scale.

    Returns (sigma2, the estimator's own result: a VarEstResult or the (b, d)
    bootstrap replicas), its randomness keyed by ``stream``. Both steps come
    from ``alpha``: eta_n = learning_rate(n, gap, alpha), as in :func:`proxy`,
    and ojavarest's eta_B at its batch length. ojavarest's batch-scale spread
    is rescaled by eta_n / eta_B to the full-sample step, the scale at which
    the proxy itself fluctuates; a bootstrap variance is at eta_n already.
    """
    name, b = parse_method(method)
    eta_n = learning_rate(data.n, gap, alpha)
    if name == "bootstrap":
        u0 = gaussian_unit(stream.child(SeedLabel.BOOTSTRAP_START).rng(), data.d)
        replicas = bootstrap_run(data, b, eta_n, stream.child(SeedLabel.BOOTSTRAP, b), u0, law)
        return batch_variance(replicas, vtilde), replicas
    result = ojavarest(data, delta, vtilde, gap, m1=m1, m2=m2, alpha=alpha,
                       seed=stream.child(SeedLabel.VAREST))
    return median_of_means(result.batch_sigma2) * (eta_n / result.eta_b), result


@dataclass(frozen=True)
class CoverageOutcome:
    """Aggregated coverage per method plus the per-trial records.

    Each record is one trial of one method, as the row it is written as:
    ``trial, method, n, d, beta, b``, then ``hit_c<k>`` (1 when the interval
    for coordinate k, 1-based, held the truth) for each tracked k in order,
    then ``sin2_error, vtilde_ms, estimate_ms``.
    """

    reports: dict[str, CoverageReport]
    records: list[dict]
    config: dict

    def table_rows(self) -> list[dict]:
        """Rows (n, d, coordinate) x method-columns for the tracked coordinates: the coverage table."""
        cfg = self.config
        rows = []
        for coord in cfg["tracked"]:
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
    level: float = DEFAULT_LEVEL,
    seed: SeedSpec = SeedSpec(0),
    m1: int | None = PAPER_M1,
    m2: int | None = None,
    tracked: tuple[int, ...] = DEFAULT_TRACKED,
) -> CoverageOutcome:
    """Repeated-trial coverage of per-coordinate intervals on synthetic data.

    Every trial draws a fresh dataset from the family, computes one shared
    proxy vector by a full streaming pass, builds one interval per method
    around it, and scores the intervals against the known leading
    eigenvector. Reports aggregate per coordinate over all trials. Every
    step takes ``DEFAULT_ALPHA``, as in :func:`method_variance`; ``m1``/``m2``
    fix ojavarest's schedule, which is checked, with ``level`` and
    ``tracked``, before any trial runs.

    The trials are cut by :func:`~ojainfer.workers.cpu_ranges` and run by
    :func:`~ojainfer.workers.run_parts`: range 0 runs here and each other in
    a forked child that pickles its hits and records back. Outputs are those
    of the in-process loop, bar the ``*_ms`` clocks, which time the process
    that ran the trial. The config ends with run_parts' ``workers`` and ``reruns``.
    """
    require_at_least("trials", trials, 1)
    require_open_unit("level", level)
    replica_counts = _plan(methods, n, d, m1, m2)
    tracked = tuple(tracked)
    for i, c in enumerate(tracked):
        if not 1 <= c <= d:
            raise ValueError(f"tracked coordinate {c} is outside 1..{d}")
        if c in tracked[:i]:
            raise ValueError(f"tracked coordinate {c} repeats: {list(tracked)}")
    _, eigen, root = build_sigma(d, beta)
    gap = eigen.require_gap()

    def run_trials(lo: int, hi: int) -> tuple[dict[str, np.ndarray], list[dict]]:
        """Trials lo..hi-1: their summed hits per method and their records, in order."""
        hits = {m: np.zeros(d, dtype=np.int64) for m in methods}
        records = []
        for trial in range(lo, hi):
            st = seed.child(trial)
            data = sample(root, n, st.child(SeedLabel.DATA).rng())
            t0 = time.perf_counter()
            vtilde, _ = proxy(data, gap, DEFAULT_ALPHA, st)
            vtilde_ms = (time.perf_counter() - t0) * 1e3
            accuracy = sin2(vtilde, eigen.leading)
            for method_spec in methods:
                t1 = time.perf_counter()
                sigma2, _ = method_variance(method_spec, data, vtilde, gap, DEFAULT_ALPHA, st,
                                            m1=m1, m2=m2)
                band = build_ci(vtilde, sigma2, level)
                estimate_ms = (time.perf_counter() - t1) * 1e3
                trial_hits = band_hits(band, eigen.leading)
                hits[method_spec] += trial_hits
                records.append({"trial": trial, "method": method_spec, "n": n, "d": d, "beta": beta,
                                "b": replica_counts[method_spec]}
                               | {f"hit_c{c}": int(trial_hits[c - 1]) for c in tracked}
                               | {"sin2_error": accuracy, "vtilde_ms": vtilde_ms,
                                  "estimate_ms": estimate_ms})
            del data  # else it stays alive while the next trial draws its own
        return hits, records

    parts, run = run_parts([partial(run_trials, lo, hi) for lo, hi in cpu_ranges(trials)])
    hits = {m: sum(part_hits[m] for part_hits, _ in parts) for m in methods}
    records = [record for _, part_records in parts for record in part_records]
    config = {
        "n": n, "d": d, "beta": beta, "trials": trials, "level": level,
        "methods": list(methods), "m1": m1, "m2": m2, "alpha": DEFAULT_ALPHA,
        "seed": seed.master, "tracked": list(tracked),
    } | run
    reports = {m: CoverageReport(trials=trials, hits=hits[m]) for m in methods}
    return CoverageOutcome(reports=reports, records=records, config=config)


def run_bench(
    n: int,
    d: int,
    methods: tuple[str, ...],
    beta: float = DEFAULT_BETA,
    seed: SeedSpec = SeedSpec(0),
) -> list[dict]:
    """Time each method on one shared dataset, one phase at a time.

    One row per method, keyed ``method, n, d, vtilde_ms, estimate_ms,
    total_ms`` as it is written. The proxy-vector pass is timed separately
    from the variance estimation: the estimators take the proxy as an input,
    so ``estimate_ms`` is the apples-to-apples cost of the uncertainty step
    itself. An untimed warmup pass runs first so the earliest method is not
    charged for cache faults. Every spec is parsed, a repeat refused and
    ojavarest's schedule planned before any of that runs.
    """
    _plan(methods, n, d, PAPER_M1, None)
    _, eigen, root = build_sigma(d, beta)
    gap = eigen.require_gap()
    data = sample(root, n, seed.child(SeedLabel.DATA).rng())
    proxy(data, gap, DEFAULT_ALPHA, seed.child(SeedLabel.WARMUP))  # warmup, untimed

    records = []
    for idx, method_spec in enumerate(methods):
        st = seed.child(SeedLabel.BENCH + idx)
        t0 = time.perf_counter()
        vtilde, _ = proxy(data, gap, DEFAULT_ALPHA, st)
        t1 = time.perf_counter()
        method_variance(method_spec, data, vtilde, gap, DEFAULT_ALPHA, st)
        t2 = time.perf_counter()
        records.append({"method": method_spec, "n": n, "d": d, "vtilde_ms": (t1 - t0) * 1e3,
                        "estimate_ms": (t2 - t1) * 1e3, "total_ms": (t2 - t0) * 1e3})
    return records

