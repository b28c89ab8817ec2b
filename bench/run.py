"""Benchmark of the ojainfer command line, end to end and layer by layer.

Run from the repository root:

    python3 bench/run.py --workload coverage_oja --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --all --seed 1 --seconds 25

One run makes the workload's inputs from ``--seed`` (set-up, timed
several times), then runs rounds of ``python -m ojainfer.cli``
processes, one process at a time, checks each output, and starts no new
round once ``--seconds`` have passed. With ``--trace 0`` it reports
end-to-end metrics: medians over the run's rounds, and the largest peak RSS
of its processes. With ``--trace 1`` it runs a fixed set of rounds, each
process untraced and then through ``bench/traced.py``, and reports
per-layer metrics. The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; a fuller record goes to
``.bench_work/results/``. ``--all`` runs every workload both ways and prints
every metric with its unit, the machine block and the baseline cross-check.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import traced
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
# Set-up runs at least SETUP_REPEATS times, and again while it has taken
# under SETUP_MIN_S in all, up to SETUP_MAX_REPEATS; setup_s is the median.
SETUP_REPEATS, SETUP_MIN_S, SETUP_MAX_REPEATS = 3, 2.0, 12
# Rounds of operations in a traced run; fixed, so counts repeat exactly.
TRACE_ROUNDS = 2

E2E_METRICS = (("setup_s", "s"), ("round_s", "s"), ("round_cpu_s", "s"), ("peak_rss_mb", "MB"))
# One BLAS thread per CLI process. The CLI already runs a pool of nproc
# threads; BLAS threads spinning beside them would put more runnable threads
# than cores on the host, and the timings would measure its scheduler.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# ROADMAP baseline rows next to the traced metric that measures them:
# (what, baseline, unit, workload, metric, scale to the baseline's unit).
BASELINE = (
    ("read_csv, 7352x561", 2.9, "s", "cli_har", "io.read_csv_s", 1.0),
    # synth's eigendecompositions share the round, so this row times the
    # whole estimate_gap, which holds varest's first (cold) eigh.
    ("first eigh in estimate_gap (cold)", 1.1, "s", "cli_har", "oja.estimate_gap_s", 1.0),
    ("hashes of the input per varest", 2.0, "count", "cli_har",
     "io.content_hash_file_calls", 1.0),
    ("oja_run, n=5000 d=200 (wall)", 5.5, "us/sample", "coverage_oja",
     "oja.oja_run_ns_per_sample", 1e-3),
    ("oja_run, n=5000 d=200 (thread CPU)", 5.5, "us/sample", "coverage_oja",
     "oja.oja_run_cpu_ns_per_sample", 1e-3),
    ("ojavarest, n=5000 d=200 (wall)", 22.0, "ms/call", "coverage_oja", "varest.ojavarest_s",
     1e3 / workloads.COVERAGE_OJA_TRIALS),
    ("ojavarest, n=5000 d=200 (thread CPU)", 22.0, "ms/call", "coverage_oja",
     "varest.ojavarest_cpu_s", 1e3 / workloads.COVERAGE_OJA_TRIALS),
    ("write_csv, 7352x561: 84 MB in 7.2 s", 84 / 7.2, "MB/s", "cli_har",
     "io.write_csv_mb_per_s", 1.0),
)


def machine_block() -> dict:
    """Host facts the numbers depend on. No bandwidth figure is measured."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    llc = None
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(caches.glob("index*")):
        try:
            if (index / "level").read_text().strip() == "3":
                size = (index / "size").read_text().strip()
                llc = int(size[:-1]) * 1024 if size.endswith("K") else int(size)
        except (OSError, ValueError):
            pass
    sets = {"har_array_bytes": workloads.HAR_N * workloads.HAR_D * 8,
            "synth_array_bytes": workloads.SYNTH_N * workloads.HAR_D * 8,
            "coverage_trial_array_bytes": workloads.COVERAGE_N * workloads.COVERAGE_D * 8}
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads_env": BLAS_ENV,
        "llc_bytes": llc,
        "working_set_bytes": sets,
        "cache_resident": {k: llc is not None and v < llc for k, v in sets.items()},
    }


class Runner:
    """Starts CLI processes one at a time, each through bench/launch.py."""

    def __init__(self, work: Path):
        self.work = work
        self.env = dict(os.environ, **BLAS_ENV)
        src = str(ROOT / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")

    def spawn(self, argv: list[str], spans: Path | None = None) -> dict:
        if spans is None:
            cmd = [sys.executable, "-m", "ojainfer.cli", *argv]
        else:
            cmd = [sys.executable, str(HERE / "traced.py"),
                   str(spans), "--", *argv]
        err_path = self.work / "stderr.txt"
        with open(err_path, "wb") as err:
            done = subprocess.run([sys.executable, str(HERE / "launch.py"), *cmd],
                                  env=self.env, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=err, check=True)
        rec = json.loads(done.stdout)
        rec["stderr"] = err_path.read_text(errors="replace")[-400:]
        return rec

    def run_op(self, op: workloads.Op, index: int, spans: Path | None = None) -> dict:
        rec = self.spawn(op.argv, spans)
        rec.update(kind=op.kind, round=index)
        if rec["rc"] != 0:
            rec["error"] = f"exit code {rec['rc']}: {rec['stderr'].strip()}"
        else:
            try:
                rec["error"] = op.check()
            except (OSError, ValueError, KeyError, TypeError) as exc:
                rec["error"] = f"output check raised {exc!r}"
        if rec["error"]:
            print(f"failed {op.kind}: {rec['error']}", file=sys.stderr)
        return rec


def set_up(wl: workloads.Workload, runner: Runner, seed: int) -> tuple[dict, list[float]]:
    """Make the inputs several times; each time ends with a warm CLI start."""
    times = []
    while len(times) < SETUP_REPEATS or (sum(times) < SETUP_MIN_S
                                         and len(times) < SETUP_MAX_REPEATS):
        start = time.perf_counter()
        ctx = wl.setup(runner.work, seed)
        warm = runner.spawn(["--help"])
        times.append(time.perf_counter() - start)
        if warm["rc"] != 0:
            raise RuntimeError(f"ojainfer CLI does not start: {warm['stderr'].strip()}")
    ctx.update(work=runner.work, seed=seed)
    return ctx, times


def measure(wl, runner, ctx, seconds: float) -> list[dict]:
    """Whole rounds of operations, starting one while ``seconds`` have not passed."""
    records = []
    deadline = time.perf_counter() + seconds
    rounds = 0
    while time.perf_counter() < deadline:
        records += [runner.run_op(op, rounds) for op in wl.ops(ctx, rounds)]
        rounds += 1
    return records


def measure_traced(wl, runner, ctx) -> tuple[list[dict], dict]:
    """TRACE_ROUNDS rounds; every process runs untraced, then traced."""
    records, traces = [], []
    for index in range(TRACE_ROUNDS):
        for k, op in enumerate(wl.ops(ctx, index)):
            spans = runner.work / f"spans-{index}-{k}.json"
            # Alternate which of the pair runs first, so order does not bias the overhead.
            if index % 2:
                rec, plain = runner.run_op(op, index, spans), runner.run_op(op, index)
            else:
                plain, rec = runner.run_op(op, index), runner.run_op(op, index, spans)
            records += [plain, rec]
            if not rec["error"]:
                trace = json.loads(spans.read_text())
                trace.update(wall_s=rec["wall_s"], untraced_wall_s=plain["wall_s"])
                traces.append(trace)
    return records, traced.layer_metrics(traces, TRACE_ROUNDS) if traces else {}


def per_round(records: list[dict]) -> list[dict]:
    """Wall and CPU time of each round whose processes all passed, summed."""
    rounds: dict[int, list[dict]] = {}
    for rec in records:
        rounds.setdefault(rec["round"], []).append(rec)
    ok = [recs for recs in rounds.values() if not any(r["error"] for r in recs)]
    return [{"wall_s": sum(r["wall_s"] for r in recs), "cpu_s": sum(r["cpu_s"] for r in recs)}
            for recs in ok or rounds.values()]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = workloads.WORKLOADS[name]
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(work)
    try:
        ctx, setup_times = set_up(wl, runner, seed)
        if trace:
            records, values = measure_traced(wl, runner, ctx)
            units = traced.LAYER_METRICS
        else:
            records = measure(wl, runner, ctx, seconds)
            rounds = per_round(records)
            values = {
                "setup_s": statistics.median(setup_times),
                "round_s": statistics.median(r["wall_s"] for r in rounds),
                "round_cpu_s": statistics.median(r["cpu_s"] for r in rounds),
                # The largest peak: with two trial threads it is bimodal per process.
                "peak_rss_mb": max(r["rss_mb"] for r in records),
            }
            units = E2E_METRICS
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = sum(1 for r in records if r["error"])
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": float(values.get(k, 0.0)), "unit": u} for k, u in units},
    }
    detail = {"workload": name, "why": wl.why, "work_per_op": wl.work, "seed": seed,
              "seconds": seconds, "trace": int(trace), "machine": machine_block(),
              "inputs": ctx["inputs"], "setup_s": setup_times,
              "ops": [{k: v for k, v in r.items() if k != "stderr"} for r in records],
              **result}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{name}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps(detail, indent=1) + "\n")
    return result


def print_all(seed: int, seconds: float) -> bool:
    """Every workload, untraced then traced; every metric with its unit."""
    layers = {}
    correct = True
    print("machine:", json.dumps(machine_block()))
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            res = run_workload(name, seed, seconds, trace)
            correct &= res["correct"]
            print(f"\n{name} (trace {int(trace)}): attempted {res['attempted']}, "
                  f"failed {res['failed']}")
            for metric, m in res["metrics"].items():
                print(f"  {metric:<40} {m['value']:>14.6g} {m['unit']}")
            if trace:
                layers[name] = res["metrics"]
    print("\nbaseline cross-check (ROADMAP table vs this traced run):")
    for what, base, unit, name, metric, scale in BASELINE:
        value = layers[name][metric]["value"] * scale
        print(f"  {what:<38} baseline {base:>8.4g}  now {value:>10.4g} {unit:<10} "
              f"({metric} on {name})")
    return correct


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    group.add_argument("--all", action="store_true", help="run and print every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "ojainfer" / "cli.py").is_file():
        print(f"error: no ojainfer sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.all:
        return 0 if print_all(args.seed, args.seconds) else 1
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
