"""Traced run of one CLI command, and the per-layer metrics made from it.

Run as a script, this imports ``ojainfer.cli``, wraps the public functions
listed in ``WRAPPED`` from outside the package, calls
``ojainfer.cli.cli_dispatch`` with the given argv and writes the spans as
JSON:

    PYTHONPATH=src python3 bench/traced.py SPANS.json -- ARGV...

Each wrapper replaces the function object in every ``ojainfer.*`` namespace
that holds it, because the CLI imports names (``from .oja import oja_run``).
A span is (id, parent, thread, name, start, end, cpu, counts); ``cpu`` is the
calling thread's CPU time inside the span. Every thread keeps its own parent
stack, so a span started on a pool thread has no parent.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _file_bytes(index, name):
    def count(args, kwargs, result):
        return {"bytes": os.path.getsize(_arg(args, kwargs, index, name))}
    return count


def _oja_counts(args, kwargs, result):
    n = result.samples_consumed
    return {"samples": n, "flops": 4 * result.estimate.shape[0] * n}


def _varest_counts(args, kwargs, result):
    used = result.m1 * result.m2 * result.batch_size
    return {"batch_runs": result.m1 * result.m2, "used": used,
            "n": used + result.samples_unused}


def _bootstrap_counts(args, kwargs, result):
    b = result.shape[0]
    return {"replicas": b, "replica_samples": b * _arg(args, kwargs, 0, "data").n}


# (module, function, counter). A counter reads work counts off the call's
# arguments and return value. A function missing from its module is skipped,
# so a later change that removes or fuses one reports calls = 0.
WRAPPED = (
    ("cli", "cli_dispatch", None),
    ("io", "read_csv", _file_bytes(0, "path")),
    ("io", "write_csv", _file_bytes(1, "path")),
    ("io", "content_hash_file", _file_bytes(0, "path")),
    ("core", "eigendecompose", None),
    ("core", "psd_sqrt", None),
    ("oja", "estimate_gap", None),
    ("oja", "oja_run", _oja_counts),
    ("varest", "ojavarest", _varest_counts),
    ("bootstrap", "bootstrap_run", _bootstrap_counts),
    ("synth", "sample", None),
    ("synth", "build_sigma", None),
    ("inference", "build_ci", None),
    ("inference", "evaluate_coverage", None),
    ("experiments", "run_coverage_experiment", None),
    ("asymvar", "estimate_mtilde", None),
    ("asymvar", "empirical_hajek_covariance", None),
)


class Tracer:
    """Collects spans in memory; one parent stack per thread."""

    def __init__(self):
        self.spans: list[list] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            sid = next(self._ids)
            stack.append(sid)
            cpu0 = time.thread_time()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = [sid, parent, threading.get_ident(), name, start,
                        time.perf_counter(), time.thread_time() - cpu0, {}]
                stack.pop()
                self.spans.append(span)
            if counter is not None:
                try:
                    span[7] = counter(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, OSError):
                    pass
            return result
        return wrapper

    def install(self) -> None:
        """Replace every listed function in every ojainfer.* namespace."""
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "ojainfer" or k.startswith("ojainfer."))]
        for layer, fname, counter in WRAPPED:
            home = sys.modules.get(f"ojainfer.{layer}")
            original = getattr(home, fname, None) if home is not None else None
            if original is None:
                continue
            wrapper = self.wrap(f"{layer}.{fname}", original, counter)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)


def main(argv: list[str]) -> int:
    t0 = time.perf_counter()
    out, sep, cli_argv = argv[0], argv[1], argv[2:]
    if sep != "--":
        raise SystemExit("usage: traced.py SPANS.json -- ARGV...")
    import ojainfer.cli
    tracer = Tracer()
    tracer.spans.append([-1, None, threading.get_ident(), "cli.import",
                         t0, time.perf_counter(), 0.0, {}])
    tracer.install()
    rc = ojainfer.cli.cli_dispatch(cli_argv)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans}, fh)
    return rc


# --- aggregation ---------------------------------------------------------

# (metric, unit): every per-layer metric, in report order.
LAYER_METRICS = (
    ("cli.import_s", "s"), ("cli.self_s", "s"),
    ("io.read_csv_s", "s"), ("io.read_csv_mb_per_s", "MB/s"),
    ("io.write_csv_s", "s"), ("io.write_csv_mb_per_s", "MB/s"),
    ("io.content_hash_file_calls", "count"), ("io.hash_bytes_per_input_byte", "ratio"),
    ("core.eigendecompose_calls", "count"), ("core.eigendecompose_s", "s"),
    ("core.psd_sqrt_s", "s"),
    ("oja.estimate_gap_s", "s"), ("oja.oja_run_calls", "count"),
    ("oja.oja_run_samples", "count"), ("oja.oja_run_ns_per_sample", "ns"),
    ("oja.oja_run_cpu_ns_per_sample", "ns"), ("oja.oja_run_gflops", "GFLOP/s"),
    ("varest.ojavarest_s", "s"), ("varest.ojavarest_cpu_s", "s"), ("varest.self_s", "s"),
    ("varest.batch_runs", "count"),
    ("varest.samples_used_ratio", "ratio"),
    ("bootstrap.bootstrap_run_s", "s"), ("bootstrap.replica_ms", "ms"),
    ("bootstrap.replica_ns_per_sample", "ns"),
    ("synth.sample_s", "s"), ("synth.build_sigma_s", "s"),
    ("inference.build_ci_s", "s"), ("inference.evaluate_coverage_s", "s"),
    ("experiments.run_coverage_experiment_s", "s"), ("experiments.self_s", "s"),
    ("asymvar.estimate_mtilde_s", "s"), ("asymvar.empirical_hajek_covariance_s", "s"),
    ("trace.overhead_pct", "%"), ("trace.span_coverage_pct", "%"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(traces: list[dict], rounds: int) -> dict[str, float]:
    """Per-layer metrics, averaged per round of the workload.

    ``traces`` holds one dict per traced process of ``rounds`` rounds: its
    ``spans``, its process ``wall_s`` and the ``untraced_wall_s`` of the same
    command run untraced.
    Self time is a span's duration minus its children's, which by
    construction ran in the same thread.
    """
    total: dict[str, float] = {}
    calls: dict[str, float] = {}
    selfs: dict[str, float] = {}
    cpu: dict[str, float] = {}
    counts: dict[str, float] = {}
    top = wall = untraced = 0.0
    for trace in traces:
        spans = trace["spans"]
        child_time: dict[int, float] = {}
        for sid, parent, _tid, name, start, end, _cpu, _counts in spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        main_tid = spans[0][2]
        for sid, parent, tid, name, start, end, span_cpu, span_counts in spans:
            dur = end - start
            total[name] = total.get(name, 0.0) + dur
            calls[name] = calls.get(name, 0) + 1
            selfs[name] = selfs.get(name, 0.0) + dur - child_time.get(sid, 0.0)
            cpu[name] = cpu.get(name, 0.0) + span_cpu
            for key, value in span_counts.items():
                counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + value
            if parent is None and tid == main_tid:
                top += dur
        wall += trace["wall_s"]
        untraced += trace["untraced_wall_s"]
    # Totals become means per round; ratios are unchanged by this.
    for table in (total, calls, selfs, cpu, counts):
        for key in table:
            table[key] /= rounds

    def s(name):
        return total.get(name, 0.0)

    def c(key):
        return counts.get(key, 0)

    read_bytes = c("io.read_csv.bytes")
    samples = c("oja.oja_run.samples")
    replica_samples = c("bootstrap.bootstrap_run.replica_samples")
    return {
        "cli.import_s": s("cli.import"),
        "cli.self_s": selfs.get("cli.cli_dispatch", 0.0),
        "io.read_csv_s": s("io.read_csv"),
        "io.read_csv_mb_per_s": _ratio(read_bytes / 1e6, s("io.read_csv")),
        "io.write_csv_s": s("io.write_csv"),
        "io.write_csv_mb_per_s": _ratio(c("io.write_csv.bytes") / 1e6, s("io.write_csv")),
        "io.content_hash_file_calls": calls.get("io.content_hash_file", 0),
        "io.hash_bytes_per_input_byte": _ratio(c("io.content_hash_file.bytes"), read_bytes),
        "core.eigendecompose_calls": calls.get("core.eigendecompose", 0),
        "core.eigendecompose_s": s("core.eigendecompose"),
        "core.psd_sqrt_s": s("core.psd_sqrt"),
        "oja.estimate_gap_s": s("oja.estimate_gap"),
        "oja.oja_run_calls": calls.get("oja.oja_run", 0),
        "oja.oja_run_samples": samples,
        "oja.oja_run_ns_per_sample": _ratio(s("oja.oja_run") * 1e9, samples),
        "oja.oja_run_cpu_ns_per_sample": _ratio(cpu.get("oja.oja_run", 0.0) * 1e9, samples),
        "oja.oja_run_gflops": _ratio(c("oja.oja_run.flops") / 1e9, s("oja.oja_run")),
        "varest.ojavarest_s": s("varest.ojavarest"),
        "varest.ojavarest_cpu_s": cpu.get("varest.ojavarest", 0.0),
        "varest.self_s": selfs.get("varest.ojavarest", 0.0),
        "varest.batch_runs": _ratio(c("varest.ojavarest.batch_runs"),
                                    calls.get("varest.ojavarest", 0)),
        "varest.samples_used_ratio": _ratio(c("varest.ojavarest.used"),
                                            c("varest.ojavarest.n")),
        "bootstrap.bootstrap_run_s": s("bootstrap.bootstrap_run"),
        "bootstrap.replica_ms": _ratio(s("bootstrap.bootstrap_run") * 1e3,
                                       c("bootstrap.bootstrap_run.replicas")),
        "bootstrap.replica_ns_per_sample": _ratio(s("bootstrap.bootstrap_run") * 1e9,
                                                  replica_samples),
        "synth.sample_s": s("synth.sample"),
        "synth.build_sigma_s": s("synth.build_sigma"),
        "inference.build_ci_s": s("inference.build_ci"),
        "inference.evaluate_coverage_s": s("inference.evaluate_coverage"),
        "experiments.run_coverage_experiment_s": s("experiments.run_coverage_experiment"),
        "experiments.self_s": selfs.get("experiments.run_coverage_experiment", 0.0),
        "asymvar.estimate_mtilde_s": s("asymvar.estimate_mtilde"),
        "asymvar.empirical_hajek_covariance_s": s("asymvar.empirical_hajek_covariance"),
        "trace.overhead_pct": _ratio((wall - untraced) * 100.0, untraced),
        "trace.span_coverage_pct": _ratio(top * 100.0, wall),
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
