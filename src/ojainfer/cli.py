"""Command-line surface.

Exit codes: 0 success, 1 validation error (bad flags, bad inputs, violated
preconditions), 2 runtime failure. All randomness is keyed by --seed, with
the environment variable OJA_INFER_SEED as a fallback.

The arguments are parsed, and checked, before numpy loads; each subcommand then
imports the modules it uses. :func:`main`, the console script, first sets one
BLAS thread where the user set none, so that numpy starts no thread pool and
the forked workers may run (``workers.fork_allowed``).
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
from datetime import datetime, timezone
from typing import TYPE_CHECKING

from . import __version__
from .defaults import (DEFAULT_ALPHA, DEFAULT_BETA, DEFAULT_C, DEFAULT_DELTA, DEFAULT_LAW,
                       DEFAULT_LEVEL, DEFAULT_METHODS, DEFAULT_SCALE, DEFAULT_TRACKED, PAPER_M1)

if TYPE_CHECKING:
    from .core import SeedSpec

# The thread-count variables of OpenBLAS, OpenMP and MKL.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _resolve_seed(args) -> SeedSpec:
    """--seed, else $OJA_INFER_SEED, else 0; a bad value is a ValueError naming its source."""
    from .core import SeedSpec

    source, value = ("--seed", args.seed) if args.seed is not None else (
        "OJA_INFER_SEED", os.environ.get("OJA_INFER_SEED") or 0)
    try:
        return SeedSpec(int(value))
    except ValueError:
        raise ValueError(f"{source} must be an integer in [0, 2**64) (got {value!r})") from None


def _progress(args, message: str) -> None:
    if not args.quiet:
        print(message, file=sys.stderr)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ojainfer",
        description="Streaming PCA with per-coordinate uncertainty estimates.",
    )
    parser.add_argument("--seed", type=int, default=None,
                        help="master seed (default: $OJA_INFER_SEED or 0)")
    parser.add_argument("--quiet", action="store_true", help="suppress progress messages")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    # The flags of the commands that read a data file.
    on_file = argparse.ArgumentParser(add_help=False)
    on_file.add_argument("--input", required=True)
    on_file.add_argument("--center", action="store_true")
    on_file.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    on_file.add_argument("--gap", type=float, default=None)
    on_file.add_argument("--out", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset as CSV")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--beta", type=float, default=DEFAULT_BETA)
    p.add_argument("--c", type=float, default=DEFAULT_C)
    p.add_argument("--scale", type=float, default=DEFAULT_SCALE)
    p.add_argument("--out", required=True)

    sub.add_parser("oja", parents=[on_file], help="single streaming pass over a CSV dataset")

    p = sub.add_parser("varest", parents=[on_file],
                       help="per-coordinate variance estimates for a CSV dataset")
    p.add_argument("--delta", type=float, default=None,
                   help=f"failure probability (default {DEFAULT_DELTA}); sets m1 unless --m1 or --preset"
                        " does, and the --boosted proxy")
    p.add_argument("--m1", type=int, default=None)
    p.add_argument("--m2", type=int, default=None)
    p.add_argument("--preset", choices=["paper-experiments"], default=None)
    p.add_argument("--boosted", action="store_true",
                   help="compute the proxy vector by batched aggregation instead of one pass")
    p.add_argument("--level", type=float, default=None,
                   help="also emit confidence intervals at this level")

    p = sub.add_parser("bootstrap", parents=[on_file],
                       help="multiplier-bootstrap variance for a CSV dataset")
    p.add_argument("--b", type=int, default=20)
    p.add_argument("--law", choices=["exponential", "normal"], default=DEFAULT_LAW)

    p = sub.add_parser("coverage", help="repeated-trial coverage experiment on synthetic data")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--beta", type=float, default=DEFAULT_BETA)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--methods", default=",".join(DEFAULT_METHODS))
    p.add_argument("--level", type=float, default=DEFAULT_LEVEL)
    p.add_argument("--m1", type=int, default=PAPER_M1)
    p.add_argument("--m2", type=int, default=None)
    p.add_argument("--tracked", default=",".join(map(str, DEFAULT_TRACKED)),
                   help="1-based coordinates to track in records")
    p.add_argument("--out", required=True)

    p = sub.add_parser("bench", help="wall-clock comparison of the variance estimators")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--beta", type=float, default=DEFAULT_BETA)
    p.add_argument("--methods", default="ojavarest,bootstrap:1,bootstrap:10,bootstrap:20")
    p.add_argument("--out", required=True)

    p = sub.add_parser("oracle", help="exact residual decomposition on a small synthetic instance")
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--d", type=int, default=4)
    p.add_argument("--eta", type=float, default=0.05)
    p.add_argument("--beta", type=float, default=DEFAULT_BETA)
    p.add_argument("--out", required=True)

    p = sub.add_parser("asymvar", help="limit covariance of the synthetic family")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--beta", type=float, default=DEFAULT_BETA)
    p.add_argument("--mc-samples", type=int, default=200000)
    p.add_argument("--n", type=int, default=None,
                   help="also include the finite-horizon block at this length")
    p.add_argument("--alpha", type=float, default=None,
                   help=f"step-size constant at --n (default {DEFAULT_ALPHA})")
    p.add_argument("--trials", type=int, default=0,
                   help="Monte-Carlo trials for the empirical covariance check (0 to skip)")
    p.add_argument("--out", required=True)
    return parser


def _check_flags(args) -> None:
    """Refuse a flag that would change nothing in its combination, then fill defaults.

    Such flags default to None, so that a value given can be told from the default.
    A value out of its range is refused here too, before any input is read.
    """
    if getattr(args, "level", None) is not None and not 0.0 < args.level < 1.0:
        raise ValueError(f"--level must lie in (0, 1) (got {args.level})")
    if getattr(args, "gap", None) is not None and not 0.0 < args.gap < math.inf:
        raise ValueError(f"--gap must be positive and finite (got {args.gap})")
    if getattr(args, "alpha", None) is not None and not 1.0 < args.alpha < math.inf:
        raise ValueError(f"--alpha must exceed 1 and be finite (got {args.alpha})")
    if getattr(args, "delta", None) is not None and not 0.0 < args.delta < 1.0:
        raise ValueError(f"--delta must lie in (0, 1) (got {args.delta})")
    for flag in ("m1", "m2"):
        value = getattr(args, flag, None)
        if value is not None and value < 1:
            raise ValueError(f"--{flag} must be at least 1 (got {value})")
    if args.subcommand in ("coverage", "bench") and not _methods(args):
        raise ValueError(f"--methods names no method (got {args.methods!r})")
    if args.subcommand == "coverage":
        _tracked(args)
    if args.subcommand == "bootstrap" and args.b < 1:
        raise ValueError(f"--b must be at least 1 (got {args.b})")
    if args.subcommand == "oracle" and not args.eta > 0.0:
        raise ValueError(f"--eta must be positive (got {args.eta})")
    if args.subcommand == "varest":
        if args.preset and args.m1 is not None:
            raise ValueError("--m1 and --preset both set m1: give one of them")
        if args.delta is not None and (args.m1 is not None or args.preset) and not args.boosted:
            raise ValueError("--delta changes nothing once --m1 or --preset fixes m1 without --boosted")
        args.delta = DEFAULT_DELTA if args.delta is None else args.delta
    elif args.subcommand == "asymvar":
        if args.trials < 0:
            raise ValueError(f"--trials must be at least 0 (got {args.trials})")
        if args.mc_samples < 100:
            raise ValueError(f"--mc-samples must be at least 100 (got {args.mc_samples})")
        if args.n is not None and args.n < 2:
            raise ValueError(f"--n must be at least 2 (got {args.n})")
        if args.trials > 0 and args.n is None:
            raise ValueError("--trials needs --n: the empirical check runs at that horizon")
        if args.alpha is not None and args.n is None:
            raise ValueError("--alpha needs --n: the step size is used only at that horizon")
        args.alpha = DEFAULT_ALPHA if args.alpha is None else args.alpha


def _methods(args) -> tuple[str, ...]:
    return tuple(m.strip() for m in args.methods.split(",") if m.strip())


def _tracked(args) -> tuple[int, ...]:
    try:
        return tuple(int(c) for c in args.tracked.split(","))
    except ValueError:
        raise ValueError(f"--tracked must list integers (got {args.tracked!r})") from None


def _load(args):
    """The --input dataset, centred with --center; --gap or its plug-in estimate; and how the
    parsed-array cache served the file ("hit", "miss" or "off", see ``io.read_csv_cached``)."""
    from .core import Dataset
    from .io import read_csv_cached
    from .oja import estimate_gap

    arr, cache = read_csv_cached(args.input, args.input_sha256, args.input_state)
    if args.center:
        arr -= arr.mean(axis=0, keepdims=True)
    data = Dataset(arr)
    return data, estimate_gap(data) if args.gap is None else args.gap, cache


def _cmd_synth(args, seed: SeedSpec) -> dict:
    from .io import write_csv
    from .synth import build_sigma, sample

    _, eigen, root = build_sigma(args.d, args.beta, args.c, args.scale)
    write_csv(sample(root, args.n, seed.rng()), args.out)
    return {"gap": eigen.gap}


def _cmd_oja(args, seed: SeedSpec) -> dict:
    from . import experiments
    from .io import write_json

    data, gap, cache = _load(args)
    vtilde, eta = experiments.proxy(data, gap, args.alpha, seed)
    write_json(args.out, {
        "estimate": vtilde,
        "eta": eta,
        "gap": gap,
        "alpha": args.alpha,
        "samples_consumed": data.n,
    })
    return {"input_cache": cache, "gap": gap}


def _cmd_varest(args, seed: SeedSpec) -> dict:
    from . import experiments
    from .inference import build_ci
    from .io import write_json

    data, gap, cache = _load(args)
    m1 = PAPER_M1 if args.preset else args.m1
    vtilde, _ = experiments.proxy(data, gap, args.alpha, seed, args.delta if args.boosted else None)
    sigma2, result = experiments.method_variance("ojavarest", data, vtilde, gap, args.alpha, seed,
                                                 args.delta, m1, args.m2)
    payload = dataclasses.asdict(result)
    if args.level is not None:
        band = build_ci(vtilde, sigma2, args.level)
        payload["ci"] = {"level": args.level, "lower": band.lower(), "upper": band.upper()}
    write_json(args.out, payload)
    return {"input_cache": cache, "gap": gap, "m1": m1, "samples_unused": result.samples_unused}


def _cmd_bootstrap(args, seed: SeedSpec) -> dict:
    from . import experiments
    from .io import write_json

    data, gap, cache = _load(args)
    vtilde, eta = experiments.proxy(data, gap, args.alpha, seed)
    sigma2, _ = experiments.method_variance(f"bootstrap:{args.b}", data, vtilde, gap, args.alpha,
                                            seed, law=args.law)
    write_json(args.out, {"sigma2": sigma2, "b": args.b, "law": args.law, "eta": eta, "gap": gap,
                          "vtilde": vtilde})
    return {"input_cache": cache, "gap": gap}


def _cmd_coverage(args, seed: SeedSpec) -> dict:
    from . import experiments
    from .io import write_results

    outcome = experiments.run_coverage_experiment(
        n=args.n, d=args.d, beta=args.beta, trials=args.trials, methods=_methods(args),
        level=args.level, seed=seed, m1=args.m1, m2=args.m2, tracked=_tracked(args),
    )
    write_results(outcome.table_rows(), args.out)
    write_results(outcome.records, str(args.out) + ".records.csv")
    return outcome.config


def _cmd_bench(args, seed: SeedSpec) -> dict:
    from . import experiments
    from .io import write_results

    methods = _methods(args)
    records = experiments.run_bench(n=args.n, d=args.d, methods=methods,
                                    beta=args.beta, seed=seed)
    write_results(records, args.out)
    return {"methods": list(methods)}


def _cmd_oracle(args, seed: SeedSpec) -> dict:
    from .core import SeedLabel, eigendecompose, sample_covariance
    from .hoeffding import residual_decomposition
    from .io import write_json
    from .oja import gaussian_unit
    from .synth import build_sigma, sample

    sigma, eigen, root = build_sigma(args.d, args.beta)
    data = sample(root, args.n, seed.child(SeedLabel.DATA).rng())
    u0 = gaussian_unit(seed.child(SeedLabel.START).rng(), args.d)
    vtilde = eigendecompose(sample_covariance(data)).leading
    report = residual_decomposition(data.samples, sigma, eigen, args.eta, u0, vtilde)
    report.validate()
    write_json(args.out, report)
    return {}


def _cmd_asymvar(args, seed: SeedSpec) -> dict:
    from .asymvar import build_r0_v, ck_diagnostic, moments_and_trials, with_rn
    from .core import SeedLabel
    from .io import write_json
    from .oja import learning_rate
    from .synth import build_sigma, vector_sampler

    _, eigen, root = build_sigma(args.d, args.beta)
    gap = eigen.require_gap()
    eta = None if args.n is None else learning_rate(args.n, gap, args.alpha)
    moments, emp, run = moments_and_trials(
        vector_sampler(root), eigen, args.mc_samples, seed.child(SeedLabel.MOMENTS),
        args.n, eta, args.trials, seed.child(SeedLabel.EMPIRICAL))
    payload = {"moments": moments, "asymptotic": build_r0_v(moments, eigen),
               "eigenvalues": eigen.eigenvalues}
    if args.n is not None:
        payload["asymptotic"] = with_rn(payload["asymptotic"], moments, eigen, args.n, eta)
    if emp is not None:
        payload["empirical"] = emp
        payload["ck"] = ck_diagnostic(emp.matrix.diagonal(), eta, gap, moments.m2)
    write_json(args.out, payload)
    return run


_HANDLERS = {
    "synth": _cmd_synth, "oja": _cmd_oja, "varest": _cmd_varest, "bootstrap": _cmd_bootstrap,
    "coverage": _cmd_coverage, "bench": _cmd_bench, "oracle": _cmd_oracle, "asymvar": _cmd_asymvar,
}


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _blas_threads() -> str:
    """The BLAS thread variables in effect, each as ``NAME=value``; "unset" where none is set."""
    given = [f"{var}={os.environ[var]}" for var in BLAS_VARS if var in os.environ]
    return ", ".join(given) or "unset"


def _default_blas_threads() -> str | None:
    """Set every BLAS thread variable to 1 where none is set and numpy has not loaded, and
    return "1 (default)"; else change nothing and return None."""
    if "numpy" in sys.modules or any(var in os.environ for var in BLAS_VARS):
        return None
    os.environ.update(dict.fromkeys(BLAS_VARS, "1"))
    return "1 (default)"


def cli_dispatch(argv: list[str], blas_threads: str | None = None) -> int:
    """Run one subcommand; the exit code. ``blas_threads`` is the manifest's record of the BLAS
    setting, by default the variables in effect (see :func:`main`)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        _check_flags(args)
        from . import io

        seed = _resolve_seed(args)
        # The seed actually used, also when it came from the environment, so that it is hashed.
        config_echo = {k: v for k, v in vars(args).items() if k != "quiet"} | {"seed": seed.master}
        if getattr(args, "input", None):
            # The file's state before the hash: _load refuses the input if it has moved by the
            # end of the parse, so that the digest describes the bytes parsed.
            args.input_state = io.file_state(args.input)
            digest = io.content_hash_file(args.input)
            args.input_sha256 = config_echo["input_sha256"] = digest
        else:
            digest = io.content_hash_config(config_echo)
        # Recorded after the hash, as the workers' run record is: the hash covers the flags alone.
        config_echo["blas_threads"] = blas_threads or _blas_threads()
        # The provenance sidecar written beside the output; timestamps live only here.
        manifest = {"subcommand": args.subcommand, "config": config_echo, "seed": seed.master,
                    "content_hash": digest, "started_at": _now(), "finished_at": "",
                    "version": __version__}
        _progress(args, f"ojainfer {args.subcommand}: starting (seed={seed.master})")
        # A handler returns only the keys it adds or changes; a changed flag keeps its place.
        config_echo.update(_HANDLERS[args.subcommand](args, seed))
        manifest["finished_at"] = _now()
        io.write_json(f"{args.out}.manifest.json", manifest)
        _progress(args, f"ojainfer {args.subcommand}: done -> {args.out}")
        return 0
    except (ValueError, FileNotFoundError, IsADirectoryError, NotADirectoryError,
            PermissionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    """The console script: one BLAS thread unless the user set one, then :func:`cli_dispatch`.

    With one BLAS thread numpy starts no thread pool, so the process may fork its workers.
    A program that imports ``ojainfer`` as a library keeps its own setting.
    """
    sys.exit(cli_dispatch(sys.argv[1:], _default_blas_threads()))


if __name__ == "__main__":
    main()
