"""Workloads of the benchmark: their inputs, the CLI operations they run, and
the checks each operation's output must pass.

Every input is made here from the benchmark seed with plain numpy, never with
``ojainfer`` itself, so a change to the package cannot change what it is
measured on. An operation is one ``python -m ojainfer.cli ...`` process.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# HAR-shaped input (UCI HAR training set: 7352 windows x 561 features).
HAR_N, HAR_D = 7352, 561
# Spectrum of the HAR-shaped covariance: a leading eigenvalue well clear of
# the second, then a slowly decaying bulk.
HAR_LEAD, HAR_SECOND = 50.0, 5.0
# Largest accepted sin^2 between the CLI's proxy vector and the true leading
# eigenvector (typical: about 0.01).
VAREST_SIN2_BOUND = 0.05
# Coverage: n=5000, d=200 is the paper's desk-scale setting.
COVERAGE_N, COVERAGE_D = 5000, 200
# Largest accepted sin2_error of a coverage record (typical: 1e-4).
COVERAGE_SIN2_BOUND = 0.01
# Synth family defaults of the CLI (beta=1, c=0.01, scale=5).
SYNTH_C, SYNTH_SCALE, SYNTH_BETA = 0.01, 5.0, 1.0
# synth writes an eighth of the HAR rows at full width: the same per-row write
# cost and the same two d=561 eigendecompositions, in a 1.3 s process instead
# of a 9 s one, so one run holds enough rounds for a steady median.
SYNTH_N = HAR_N // 8
# Relative tolerance between the CLI's synth output and the benchmark's draw.
SYNTH_RTOL = 1e-9


@dataclass
class Op:
    """One CLI process: its arguments and the check its output must pass.

    ``check`` returns None when the output is correct, else a message.
    """

    kind: str
    argv: list[str]
    check: Callable[[], str | None]


@dataclass
class Workload:
    name: str
    why: str
    setup: Callable[[Path, int], dict]
    ops: Callable[[dict, int], list[Op]]
    # Units of work in one operation, reported beside the timings.
    work: str = ""


def cli_seed(seed: int, index: int) -> int:
    """The --seed passed to the CLI for operation round ``index``."""
    return seed * 1000 + index


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def sin2(u: np.ndarray, v: np.ndarray) -> float:
    c = float(u @ v) / float(np.linalg.norm(u) * np.linalg.norm(v))
    return max(0.0, 1.0 - c * c)


def synth_root(d: int) -> np.ndarray:
    """Symmetric square root of the synth family's covariance at beta=1."""
    idx = np.arange(d)
    kernel = np.exp(-SYNTH_C * np.abs(idx[:, None] - idx[None, :]))
    scales = SYNTH_SCALE * (idx + 1.0) ** (-SYNTH_BETA)
    sigma = kernel * np.outer(scales, scales)
    vals, vecs = np.linalg.eigh((sigma + sigma.T) / 2.0)
    root = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T
    return (root + root.T) / 2.0


# --- cli_har ---------------------------------------------------------------

def har_matrix(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(data, v1): HAR-shaped rows with a known covariance Q diag(lam) Q^T."""
    rng = np.random.default_rng([seed, 1])
    q, r = np.linalg.qr(rng.standard_normal((HAR_D, HAR_D)))
    q *= np.sign(np.diag(r))
    bulk = 4.0 * np.arange(2, HAR_D, dtype=np.float64) ** -0.5
    lam = np.concatenate([[HAR_LEAD, HAR_SECOND], bulk])
    data = (rng.standard_normal((HAR_N, HAR_D)) * np.sqrt(lam)) @ q.T
    return data, q[:, 0].copy()


def setup_har(work: Path, seed: int) -> dict:
    data, v1 = har_matrix(seed)
    path = work / "har.csv"
    np.savetxt(path, data, fmt="%.17g", delimiter=",")
    root = synth_root(HAR_D)
    return {"csv": path, "v1": v1, "root": root,
            "inputs": {"csv_sha256": sha256_file(path), "csv_bytes": path.stat().st_size,
                       "shape": [HAR_N, HAR_D], "gap": HAR_LEAD - HAR_SECOND,
                       "v1": v1.tolist(), "synth_shape": [SYNTH_N, HAR_D],
                       "synth_beta": SYNTH_BETA,
                       "synth_root_sha256": hashlib.sha256(root.tobytes()).hexdigest()}}


def check_varest(out: Path, v1: np.ndarray) -> str | None:
    res = json.loads(out.read_text())
    gamma = np.asarray(res["gamma"], dtype=np.float64)
    if gamma.shape != (HAR_D,) or not np.all(np.isfinite(gamma)) or np.any(gamma < 0):
        return "gamma is not a finite nonnegative vector of length 561"
    lower = np.asarray(res["ci"]["lower"], dtype=np.float64)
    upper = np.asarray(res["ci"]["upper"], dtype=np.float64)
    if lower.shape != (HAR_D,) or upper.shape != (HAR_D,) or not np.all(lower <= upper):
        return "confidence interval has lower > upper or the wrong length"
    err = sin2(np.asarray(res["vtilde"], dtype=np.float64), v1)
    if not err < VAREST_SIN2_BOUND:
        return f"sin^2(vtilde, v1) = {err:.4g} is not below {VAREST_SIN2_BOUND}"
    return None


def check_synth(out: Path, root: np.ndarray, cli_seed_value: int) -> str | None:
    got = np.loadtxt(out, delimiter=",", ndmin=2)
    if got.shape != (SYNTH_N, HAR_D):
        return f"synth output has shape {got.shape}, expected {(SYNTH_N, HAR_D)}"
    rng = np.random.default_rng(cli_seed_value)
    ref = rng.uniform(-math.sqrt(3.0), math.sqrt(3.0), size=(SYNTH_N, HAR_D)) @ root
    err = float(np.max(np.abs(got - ref))) / float(np.max(np.abs(ref)))
    if not err <= SYNTH_RTOL:
        return f"synth output differs from the reference draw by {err:.3g} (relative)"
    return None


def ops_har(ctx: dict, index: int) -> list[Op]:
    """One round: synth writes a CSV, then varest reads the set-up CSV."""
    s = cli_seed(ctx["seed"], index)
    synth_out = ctx["work"] / "synth.csv"
    synth = ["--seed", str(s), "--quiet", "synth", "--n", str(SYNTH_N), "--d", str(HAR_D),
             "--out", str(synth_out)]
    varest_out = ctx["work"] / "varest.json"
    varest = ["--seed", str(s), "--quiet", "varest", "--input", str(ctx["csv"]), "--center",
              "--preset", "paper-experiments", "--level", "0.95", "--out", str(varest_out)]
    return [Op("synth", synth, lambda: check_synth(synth_out, ctx["root"], s)),
            Op("varest", varest, lambda: check_varest(varest_out, ctx["v1"]))]


# --- coverage_oja, coverage_boot -------------------------------------------

def setup_coverage(work: Path, seed: int) -> dict:
    root = synth_root(COVERAGE_D)
    vals, vecs = np.linalg.eigh(root @ root)
    return {"inputs": {"n": COVERAGE_N, "d": COVERAGE_D, "beta": SYNTH_BETA,
                       "gap": float(vals[-1] - vals[-2]), "v1": vecs[:, -1].tolist()}}


def _table_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _without_clocks(rows: list[dict]) -> list[dict]:
    """Records minus their wall-clock columns, which differ between reruns."""
    return [{k: v for k, v in row.items() if not k.endswith("_ms")} for row in rows]


def check_coverage(out: Path, trials: int, methods: str, rerun_of: Path | None) -> str | None:
    records = _table_rows(Path(str(out) + ".records.csv"))
    expected = trials * len(methods.split(","))
    if len(records) != expected:
        return f"{len(records)} records, expected trials x methods = {expected}"
    for row in records:
        err = float(row["sin2_error"])
        if not 0.0 <= err <= COVERAGE_SIN2_BOUND:
            return f"sin2_error {err!r} outside [0, {COVERAGE_SIN2_BOUND}]"
    if rerun_of is not None:
        if out.read_bytes() != rerun_of.read_bytes():
            return "coverage table differs from the run with the same seed"
        first = _table_rows(Path(str(rerun_of) + ".records.csv"))
        if _without_clocks(records) != _without_clocks(first):
            return "coverage records differ from the run with the same seed"
    return None


def coverage_ops(trials: int, methods: str):
    """One process per round, every round with the same --seed, so every
    round after the first checks the rerun contract against the first."""

    def ops(ctx: dict, index: int) -> list[Op]:
        first = ctx["work"] / "coverage-first.csv"
        out = first if index == 0 else ctx["work"] / "coverage.csv"
        argv = ["--seed", str(cli_seed(ctx["seed"], 0)), "--quiet", "coverage",
                "--n", str(COVERAGE_N), "--d", str(COVERAGE_D), "--beta", "1",
                "--trials", str(trials), "--methods", methods, "--out", str(out)]
        prior = first if index else None
        return [Op("coverage", argv, lambda: check_coverage(out, trials, methods, prior))]

    return ops


# --- cli_asymvar -----------------------------------------------------------

ASYM_D = 5


def setup_asymvar(work: Path, seed: int) -> dict:
    root = synth_root(ASYM_D)
    vals = np.linalg.eigvalsh(root @ root)[::-1]
    return {"inputs": {"d": ASYM_D, "beta": SYNTH_BETA, "eigenvalues": vals.tolist()}}


def _all_finite(node) -> bool:
    if isinstance(node, dict):
        return all(_all_finite(v) for v in node.values())
    if isinstance(node, list):
        return all(_all_finite(v) for v in node)
    if isinstance(node, float):
        return math.isfinite(node)
    return True


def check_asymvar(out: Path) -> str | None:
    res = json.loads(out.read_text())
    shapes = {("asymptotic", "v"): (ASYM_D, ASYM_D), ("asymptotic", "r0"): (ASYM_D - 1,) * 2,
              ("asymptotic", "rn"): (ASYM_D - 1,) * 2, ("empirical", "matrix"): (ASYM_D, ASYM_D)}
    for (part, key), shape in shapes.items():
        mat = np.asarray(res[part][key], dtype=np.float64)
        if mat.shape != shape or not np.all(np.isfinite(mat)):
            return f"{part}.{key} is not a finite {shape} matrix"
    if not _all_finite(res):
        return "asymvar output holds a non-finite number"
    return None


def ops_asymvar(ctx: dict, index: int) -> list[Op]:
    out = ctx["work"] / "asymvar.json"
    argv = ["--seed", str(cli_seed(ctx["seed"], index)), "--quiet", "asymvar",
            "--d", str(ASYM_D), "--beta", "1", "--mc-samples", "200000", "--n", "4000",
            "--trials", "2000", "--out", str(out)]
    return [Op("asymvar", argv, lambda: check_asymvar(out))]


COVERAGE_OJA_TRIALS = 10
COVERAGE_BOOT_TRIALS = 2

WORKLOADS = {w.name: w for w in (
    Workload("cli_har",
             "file to answer: varest on a 7352x561 CSV is mostly parsing and hashing, "
             "synth beside it mostly CSV writing; the estimator is under 5%",
             setup_har, ops_har, work=f"1 synth of {SYNTH_N}x561 and 1 varest on 7352x561"),
    Workload("coverage_oja",
             "streaming oja and varest passes dominate; no bootstrap, almost no I/O",
             setup_coverage, coverage_ops(COVERAGE_OJA_TRIALS, "ojavarest"),
             work=f"{COVERAGE_OJA_TRIALS} trials at n=5000, d=200"),
    Workload("coverage_boot",
             "the paper's comparison: about 85% of the time is in bootstrap_run, its only user",
             setup_coverage, coverage_ops(COVERAGE_BOOT_TRIALS, "ojavarest,bootstrap:1,bootstrap:20"),
             work=f"{COVERAGE_BOOT_TRIALS} trials at n=5000, d=200"),
    Workload("cli_asymvar",
             "the only user path through asymvar; uses none of the streaming layers",
             setup_asymvar, ops_asymvar, work="1 asymvar at d=5, 2000 trials"),
)}
