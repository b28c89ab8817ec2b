"""Command-line surface.

Exit codes: 0 success, 1 validation error (bad flags, bad inputs, violated
preconditions), 2 runtime failure. All randomness is keyed by --seed, with
the environment variable OJA_INFER_SEED as a fallback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import experiments
from .asymvar import build_r0_v, ck_diagnostic, empirical_hajek_covariance, estimate_mtilde, with_rn
from .core import DegenerateGapError, SeedLabel, SeedSpec, eigendecompose, psd_sqrt, sample_covariance
from .hoeffding import residual_decomposition
from .inference import build_ci
from .io import (
    RunManifest,
    content_hash_config,
    content_hash_file,
    read_csv,
    write_csv,
    write_results,
)
from .oja import DEFAULT_ALPHA, estimate_gap, gaussian_unit, learning_rate
from .synth import SynthSpec, build_sigma, mask_missing, sample, vector_sampler
from .varest import DEFAULT_DELTA, PAPER_M1

SUBCOMMANDS = ("synth", "oja", "varest", "bootstrap", "coverage", "bench", "oracle", "asymvar")


def _resolve_seed(args) -> SeedSpec:
    """--seed, else $OJA_INFER_SEED, else 0; a bad value is a ValueError naming its source."""
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

    p = sub.add_parser("synth", help="generate a synthetic dataset as CSV")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--c", type=float, default=0.01)
    p.add_argument("--scale", type=float, default=5.0)
    p.add_argument("--mask-rate", type=float, default=0.0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("oja", help="single streaming pass over a CSV dataset")
    p.add_argument("--input", required=True)
    p.add_argument("--center", action="store_true")
    p.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    p.add_argument("--gap", type=float, default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("varest", help="per-coordinate variance estimates for a CSV dataset")
    p.add_argument("--input", required=True)
    p.add_argument("--center", action="store_true")
    p.add_argument("--delta", type=float, default=None,
                   help=f"failure probability (default {DEFAULT_DELTA}); sets m1 unless --m1 or --preset"
                        " does, and the --boosted proxy")
    p.add_argument("--m1", type=int, default=None)
    p.add_argument("--m2", type=int, default=None)
    p.add_argument("--preset", choices=["paper-experiments"], default=None)
    p.add_argument("--gap", type=float, default=None)
    p.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    p.add_argument("--boosted", action="store_true",
                   help="compute the proxy vector by batched aggregation instead of one pass")
    p.add_argument("--level", type=float, default=None,
                   help="also emit confidence intervals at this level")
    p.add_argument("--ci-scale", choices=["batch", "full"], default="full",
                   help="interval width scale; 'full' matches the proxy vector's own fluctuation scale")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out", required=True)

    p = sub.add_parser("bootstrap", help="multiplier-bootstrap variance for a CSV dataset")
    p.add_argument("--input", required=True)
    p.add_argument("--center", action="store_true")
    p.add_argument("--b", type=int, default=20)
    p.add_argument("--law", choices=["exponential", "normal"], default="exponential")
    p.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    p.add_argument("--gap", type=float, default=None)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out", required=True)

    p = sub.add_parser("coverage", help="repeated-trial coverage experiment on synthetic data")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--methods", default="ojavarest,bootstrap:1,bootstrap:20")
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--m1", type=int, default=PAPER_M1)
    p.add_argument("--m2", type=int, default=None)
    p.add_argument("--ci-scale", choices=["batch", "full"], default="full",
                   help="interval width scale; 'full' matches the proxy vector's own fluctuation scale")
    p.add_argument("--tracked", default="1,2", help="1-based coordinates to track in records")
    p.add_argument("--out", required=True)

    p = sub.add_parser("bench", help="wall-clock comparison of the variance estimators")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--methods", default="ojavarest,bootstrap:1,bootstrap:10,bootstrap:20")
    p.add_argument("--out", required=True)

    p = sub.add_parser("oracle", help="exact residual decomposition on a small synthetic instance")
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--d", type=int, default=4)
    p.add_argument("--eta", type=float, default=0.05)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("asymvar", help="limit covariance of the synthetic family")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--beta", type=float, default=1.0)
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
    """
    if args.subcommand == "varest":
        if args.format == "csv" and args.level is not None:
            raise ValueError("--level needs --format json: the CSV output has no interval columns")
        if args.delta is not None and (args.m1 is not None or args.preset) and not args.boosted:
            raise ValueError("--delta changes nothing once --m1 or --preset fixes m1 without --boosted")
        args.delta = DEFAULT_DELTA if args.delta is None else args.delta
    elif args.subcommand == "asymvar":
        if args.trials > 0 and args.n is None:
            raise ValueError("--trials needs --n: the empirical check runs at that horizon")
        if args.alpha is not None and args.n is None:
            raise ValueError("--alpha needs --n: the step size is used only at that horizon")
        args.alpha = DEFAULT_ALPHA if args.alpha is None else args.alpha


def _resolve_gap(args, data) -> float:
    if args.gap is not None:
        if args.gap <= 0:
            raise ValueError(f"--gap must be positive (got {args.gap})")
        return args.gap
    return estimate_gap(data)


def _write_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _cmd_synth(args, seed: SeedSpec) -> dict:
    spec = SynthSpec(d=args.d, beta=args.beta, c=args.c, scale=args.scale, seed=seed)
    sigma, eigen = build_sigma(spec)
    root = psd_sqrt(sigma)
    data = sample(spec, root, args.n)
    if args.mask_rate > 0.0:
        data = mask_missing(data, args.mask_rate, seed.child(SeedLabel.MASK))
    write_csv(data, args.out)
    return {"n": args.n, "d": args.d, "beta": args.beta, "c": args.c,
            "scale": args.scale, "mask_rate": args.mask_rate,
            "gap": eigen.gap}


def _cmd_oja(args, seed: SeedSpec) -> dict:
    data = read_csv(args.input, center=args.center)
    gap = _resolve_gap(args, data)
    vtilde, eta = experiments.proxy(data, gap, args.alpha, seed)
    _write_json(args.out, {
        "estimate": vtilde.tolist(),
        "eta": eta,
        "gap": gap,
        "alpha": args.alpha,
        "samples_consumed": data.n,
    })
    return {"gap": gap, "alpha": args.alpha, "center": args.center}


def _cmd_varest(args, seed: SeedSpec) -> dict:
    data = read_csv(args.input, center=args.center)
    gap = _resolve_gap(args, data)
    m1 = PAPER_M1 if args.preset and args.m1 is None else args.m1
    vtilde, _ = experiments.proxy(data, gap, args.alpha, seed, args.delta if args.boosted else None)
    sigma2, result = experiments.method_variance("ojavarest", data, vtilde, gap, args.alpha, seed,
                                                 args.delta, m1, args.m2, args.ci_scale)
    if args.format == "csv":
        write_results(result.csv_rows(), args.out)
    else:
        payload = result.to_dict()
        if args.level is not None:
            band = build_ci(vtilde, sigma2, args.level)
            payload["ci"] = {
                "level": args.level,
                "scale_mode": args.ci_scale,
                "lower": band.lower().tolist(),
                "upper": band.upper().tolist(),
            }
        _write_json(args.out, payload)
    return {"gap": gap, "delta": args.delta, "m1": m1, "m2": args.m2, "alpha": args.alpha,
            "boosted": args.boosted, "ci_scale": args.ci_scale, "samples_unused": result.samples_unused}


def _cmd_bootstrap(args, seed: SeedSpec) -> dict:
    data = read_csv(args.input, center=args.center)
    gap = _resolve_gap(args, data)
    vtilde, eta = experiments.proxy(data, gap, args.alpha, seed)
    sigma2, _ = experiments.method_variance(f"bootstrap:{args.b}", data, vtilde, gap, args.alpha,
                                            seed, law=args.law)
    if args.format == "csv":
        rows = [{"coordinate": k + 1, "sigma2": float(sigma2[k])} for k in range(data.d)]
        write_results(rows, args.out)
    else:
        _write_json(args.out, {"sigma2": sigma2.tolist(), "b": args.b,
                               "law": args.law, "eta": eta, "gap": gap,
                               "vtilde": vtilde.tolist()})
    return {"b": args.b, "law": args.law, "gap": gap, "alpha": args.alpha}


def _cmd_coverage(args, seed: SeedSpec) -> dict:
    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    tracked = tuple(int(c) for c in args.tracked.split(","))
    outcome = experiments.run_coverage_experiment(
        n=args.n, d=args.d, beta=args.beta, trials=args.trials, methods=methods,
        level=args.level, seed=seed, m1=args.m1, m2=args.m2,
        ci_scale=args.ci_scale, tracked=tracked,
    )
    write_results(outcome.table_rows(tracked), args.out)
    write_results([r.to_row() for r in outcome.records], str(args.out) + ".records.csv")
    return outcome.config


def _cmd_bench(args, seed: SeedSpec) -> dict:
    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    records = experiments.run_bench(n=args.n, d=args.d, methods=methods,
                                    beta=args.beta, seed=seed)
    write_results(records, args.out)
    return {"n": args.n, "d": args.d, "beta": args.beta, "methods": list(methods)}


def _cmd_oracle(args, seed: SeedSpec) -> dict:
    spec = SynthSpec(d=args.d, beta=args.beta, seed=seed)
    sigma, eigen = build_sigma(spec)
    root = psd_sqrt(sigma)
    data = sample(spec, root, args.n, rng=seed.child(SeedLabel.DATA).rng())
    mats = data.samples[:, :, None] * data.samples[:, None, :]
    u0 = gaussian_unit(seed.child(SeedLabel.START).rng(), args.d)
    vtilde = eigendecompose(sample_covariance(data)).leading
    report = residual_decomposition(mats, sigma, eigen, args.eta, u0, vtilde)
    report.validate()
    _write_json(args.out, report.to_dict())
    return {"n": args.n, "d": args.d, "eta": args.eta, "beta": args.beta}


def _cmd_asymvar(args, seed: SeedSpec) -> dict:
    spec = SynthSpec(d=args.d, beta=args.beta, seed=seed)
    sigma, eigen = build_sigma(spec)
    root = psd_sqrt(sigma)
    sampler = vector_sampler(spec, root)
    moments = estimate_mtilde(sampler, eigen, args.mc_samples, seed.child(SeedLabel.MOMENTS))
    asym = build_r0_v(moments, eigen)
    payload = {"moments": moments.to_dict(), "asymptotic": asym.to_dict(),
               "eigenvalues": eigen.eigenvalues.tolist()}
    if args.n is not None:
        gap = eigen.require_gap()
        eta = learning_rate(args.n, gap, args.alpha)
        asym = with_rn(asym, moments, eigen, args.n, eta)
        payload["asymptotic"] = asym.to_dict()
        if args.trials > 0:
            emp = empirical_hajek_covariance(sampler, eigen, args.n, eta,
                                             args.trials, seed.child(SeedLabel.EMPIRICAL))
            payload["empirical"] = emp.to_dict()
            payload["ck"] = ck_diagnostic(np.diag(emp.matrix), eta, gap, moments.m2).tolist()
    _write_json(args.out, payload)
    return {"d": args.d, "beta": args.beta, "mc_samples": args.mc_samples,
            "n": args.n, "trials": args.trials}


def cli_dispatch(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    handlers = {
        "synth": lambda: _cmd_synth(args, seed),
        "oja": lambda: _cmd_oja(args, seed),
        "varest": lambda: _cmd_varest(args, seed),
        "bootstrap": lambda: _cmd_bootstrap(args, seed),
        "coverage": lambda: _cmd_coverage(args, seed),
        "bench": lambda: _cmd_bench(args, seed),
        "oracle": lambda: _cmd_oracle(args, seed),
        "asymvar": lambda: _cmd_asymvar(args, seed),
    }
    try:
        _check_flags(args)
        config_echo = {k: v for k, v in vars(args).items() if k != "quiet"}
        seed = _resolve_seed(args)
        if getattr(args, "input", None):
            digest = config_echo["input_sha256"] = content_hash_file(args.input)
        else:
            digest = content_hash_config(config_echo)
        manifest = RunManifest(subcommand=args.subcommand, config=config_echo,
                               seed=seed.master, content_hash=digest).start()
        _progress(args, f"ojainfer {args.subcommand}: starting (seed={seed.master})")
        extra = handlers[args.subcommand]()
        manifest.config.update(extra or {})
        manifest.finish()
        if getattr(args, "out", None):
            manifest.write_beside(args.out)
        _progress(args, f"ojainfer {args.subcommand}: done -> {getattr(args, 'out', '')}")
        return 0
    except (ValueError, DegenerateGapError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
