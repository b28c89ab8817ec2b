import csv
import inspect
import json
import os
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest

from ojainfer import (PAPER_M1, Dataset, SeedSpec, __version__, asymvar, build_sigma, cli,
                      experiments)
from ojainfer import io as oio
from ojainfer.bootstrap import bootstrap_run
from ojainfer.cli import cli_dispatch
from ojainfer.io import content_hash_config, read_csv
from ojainfer.oja import estimate_gap
from ojainfer.synth import HALF_WIDTH


def run(argv):
    return cli_dispatch([str(a) for a in argv])


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture()
def small_csv(tmp_path):
    out = tmp_path / "data.csv"
    code = run(["--quiet", "--seed", "5", "synth", "--n", "400", "--d", "4", "--beta", "1", "--out", out])
    assert code == 0
    return out


class TestSynthCommand:
    def test_writes_dataset_and_manifest(self, tmp_path):
        out = tmp_path / "data.csv"
        assert run(["--quiet", "synth", "--n", "50", "--d", "3", "--out", out]) == 0
        data = read_csv(out)
        assert (data.n, data.d) == (50, 3)
        manifest = json.loads((tmp_path / "data.csv.manifest.json").read_text())
        assert manifest["subcommand"] == "synth"
        assert manifest["version"]

    def test_deterministic_given_seed(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["--quiet", "--seed", "9", "synth", "--n", "30", "--d", "3", "--out", a]) == 0
        assert run(["--quiet", "--seed", "9", "synth", "--n", "30", "--d", "3", "--out", b]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["--quiet", "--seed", "77", "synth", "--n", "20", "--d", "3", "--out", a]) == 0
        monkeypatch.setenv("OJA_INFER_SEED", "77")
        assert run(["--quiet", "synth", "--n", "20", "--d", "3", "--out", b]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_env_seed_is_hashed(self, tmp_path, monkeypatch):
        # Without --seed the seed used comes from the environment; the config echo
        # records it, so two environment seeds give two hashes.
        hashes = []
        for env_seed in ("77", "78"):
            monkeypatch.setenv("OJA_INFER_SEED", env_seed)
            out = tmp_path / f"e{env_seed}.csv"
            assert run(["--quiet", "synth", "--n", "20", "--d", "3", "--out", out]) == 0
            manifest = json.loads((tmp_path / f"e{env_seed}.csv.manifest.json").read_text())
            assert manifest["config"]["seed"] == int(env_seed)
            hashes.append(manifest["content_hash"])
        assert hashes[0] != hashes[1]

    def test_draws_from_the_root_stream(self, tmp_path):
        # The samples are Z @ Sigma^{1/2} with Z from the --seed root stream itself.
        out = tmp_path / "data.csv"
        assert run(["--quiet", "--seed", "7", "synth", "--n", "300", "--d", "20", "--out", out]) == 0
        _, _, root = build_sigma(20, 1.0)
        expected = np.random.default_rng(7).uniform(-HALF_WIDTH, HALF_WIDTH, (300, 20)) @ root
        assert read_csv(out).samples.tobytes() == expected.tobytes()


class TestOjaCommand:
    def test_writes_unit_vector(self, tmp_path, small_csv):
        out = tmp_path / "v.json"
        assert run(["--quiet", "oja", "--input", small_csv, "--alpha", "2", "--out", out]) == 0
        payload = json.loads(out.read_text())
        vec = np.asarray(payload["estimate"])
        assert abs(np.linalg.norm(vec) - 1.0) <= 1e-10
        assert payload["samples_consumed"] == 400
        assert (tmp_path / "v.json.manifest.json").exists()

    def test_explicit_gap(self, tmp_path, small_csv):
        out = tmp_path / "v.json"
        assert run(["--quiet", "oja", "--input", small_csv, "--gap", "1.5", "--out", out]) == 0
        assert json.loads(out.read_text())["gap"] == 1.5

    def test_missing_input_is_validation_error(self, tmp_path):
        assert run(["--quiet", "oja", "--input", tmp_path / "nope.csv", "--out", tmp_path / "v.json"]) == 1

    def test_nonpositive_gap_is_refused_before_the_input_is_read(self, tmp_path, capsys):
        assert run(["--quiet", "oja", "--input", tmp_path / "nope.csv", "--gap", "0",
                    "--out", tmp_path / "v.json"]) == 1
        assert "--gap must be positive" in capsys.readouterr().err

    def test_directory_input_is_validation_error(self, tmp_path, capsys):
        out = tmp_path / "v.json"
        assert run(["--quiet", "oja", "--input", tmp_path, "--out", out]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_center_matches_a_pass_over_centred_columns(self, tmp_path, small_csv):
        # Columns with means far from zero, so that centring moves the gap and the vector.
        arr = read_csv(small_csv).samples + np.array([3.0, -1.0, 0.5, 2.0])
        path = tmp_path / "shifted.csv"
        np.savetxt(path, arr, fmt="%.17g", delimiter=",")
        for flags in (["--center"], []):
            assert run(["--quiet", "--seed", "4", "oja", "--input", path, *flags,
                        "--out", tmp_path / f"v{len(flags)}.json"]) == 0
        centred = Dataset(arr - arr.mean(axis=0, keepdims=True))
        gap = estimate_gap(centred)
        vtilde, _ = experiments.proxy(centred, gap, 2.0, SeedSpec(4))
        payload = json.loads((tmp_path / "v1.json").read_text())
        assert payload["gap"] == gap and payload["estimate"] == vtilde.tolist()
        assert json.loads((tmp_path / "v0.json").read_text())["estimate"] != payload["estimate"]


class TestVarestCommand:
    def test_json_output(self, tmp_path, small_csv):
        out = tmp_path / "varest.json"
        code = run(["--quiet", "--seed", "3", "varest", "--input", small_csv,
                    "--m1", "2", "--m2", "2", "--level", "0.95", "--out", out])
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["gamma"]) == 4
        assert len(payload["ci"]["lower"]) == 4

    def test_boosted_proxy(self, tmp_path, small_csv):
        out = tmp_path / "varest.json"
        code = run(["--quiet", "varest", "--input", small_csv, "--m1", "2", "--m2", "2",
                    "--boosted", "--out", out])
        assert code == 0

    def test_bad_delta_is_validation_error(self, tmp_path, small_csv):
        assert run(["--quiet", "varest", "--input", small_csv, "--delta", "2.0",
                    "--out", tmp_path / "x.json"]) == 1

    @pytest.mark.parametrize("level", ["1.5", "0", "1", "-0.2"])
    def test_level_outside_unit_interval_is_validation_error(self, tmp_path, capsys, level):
        # Refused before the input is read: the input here does not exist.
        out = tmp_path / "x.json"
        assert run(["--quiet", "varest", "--input", tmp_path / "nope.csv", "--level", level,
                    "--out", out]) == 1
        assert "--level must lie in (0, 1)" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("fix_m1", [["--m1", "2"], ["--preset", "paper-experiments"]])
    def test_delta_with_fixed_m1_is_validation_error(self, tmp_path, small_csv, capsys, fix_m1):
        # m1 fixed and no boosted proxy: delta would set nothing.
        out = tmp_path / "x.json"
        assert run(["--quiet", "varest", "--input", small_csv, *fix_m1, "--m2", "2",
                    "--delta", "0.2", "--out", out]) == 1
        assert "--delta" in capsys.readouterr().err
        assert not out.exists()
        assert run(["--quiet", "varest", "--input", small_csv, *fix_m1, "--m2", "2",
                    "--delta", "0.2", "--boosted", "--out", out]) == 0


class TestBootstrapCommand:
    def test_json_output(self, tmp_path, small_csv):
        out = tmp_path / "boot.json"
        assert run(["--quiet", "bootstrap", "--input", small_csv, "--b", "3", "--out", out]) == 0
        payload = json.loads(out.read_text())
        assert len(payload["sigma2"]) == 4 and payload["b"] == 3

    def test_no_replicas_is_refused_before_the_input_is_read(self, tmp_path, capsys):
        assert run(["--quiet", "bootstrap", "--input", tmp_path / "nope.csv", "--b", "0",
                    "--out", tmp_path / "boot.json"]) == 1
        assert "--b must be at least 1" in capsys.readouterr().err


# Each command's manifest config beyond the flags that the three share.
_FILE_CONFIG = {
    "oja": {},
    "varest": {"delta": 0.05, "m1": 2, "m2": 2, "preset": None, "boosted": False, "level": None,
               "samples_unused": 0},
    "bootstrap": {"b": 2, "law": "exponential"},
}


@pytest.mark.parametrize("argv", [["oja"], ["varest", "--m1", "2", "--m2", "2"], ["bootstrap", "--b", "2"]])
def test_input_hashed_once(tmp_path, small_csv, monkeypatch, argv):
    calls = []
    hash_file = oio.content_hash_file
    monkeypatch.delenv("OJA_INFER_SEED", raising=False)
    for var in cli.BLAS_VARS:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setattr(oio, "content_hash_file", lambda path: calls.append(path) or hash_file(path))
    out = tmp_path / "out.json"
    assert run(["--quiet", *argv, "--input", small_csv, "--out", out]) == 0
    assert calls == [str(small_csv)]
    manifest = json.loads((tmp_path / "out.json.manifest.json").read_text())
    assert manifest["content_hash"] == manifest["config"]["input_sha256"] == hash_file(small_csv)
    config = dict(manifest["config"])
    assert config.pop("gap") == pytest.approx(38.58385599038605, rel=1e-9)
    # No --seed and no $OJA_INFER_SEED: the config records the seed used, 0.
    assert config == {"seed": 0, "subcommand": argv[0], "input": str(small_csv), "center": False,
                      "alpha": 2.0, "out": str(out), "input_sha256": hash_file(small_csv),
                      "blas_threads": "unset", "input_cache": "miss", **_FILE_CONFIG[argv[0]]}


def test_oja_varest_bootstrap_share_one_proxy(tmp_path, small_csv):
    extra = {"oja": [], "varest": ["--m1", "2", "--m2", "2"], "bootstrap": ["--b", "2"]}
    for cmd, flags in extra.items():
        assert run(["--quiet", "--seed", "12", cmd, "--input", small_csv, *flags,
                    "--out", tmp_path / f"{cmd}.json"]) == 0
    oja = json.loads((tmp_path / "oja.json").read_text())["estimate"]
    assert json.loads((tmp_path / "varest.json").read_text())["vtilde"] == oja
    assert json.loads((tmp_path / "bootstrap.json").read_text())["vtilde"] == oja


# The top-level keys of each JSON output, in order: a result dataclass's fields are its keys.
_JSON_KEYS = {
    "oja": (["oja"], ["estimate", "eta", "gap", "alpha", "samples_consumed"]),
    "varest": (["varest", "--m1", "2", "--m2", "2", "--level", "0.9"],
               ["gamma", "batch_sigma2", "eta_b", "batch_size", "m1", "m2", "vtilde",
                "samples_unused", "ci"]),
    "bootstrap": (["bootstrap", "--b", "2"], ["sigma2", "b", "law", "eta", "gap", "vtilde"]),
    "oracle": (["oracle", "--n", "4", "--d", "3"],
               ["n", "d", "eta", "b_matrix", "terms", "e0", "e1", "e2", "e3", "e4", "v_est",
                "vtilde", "u0", "sigma"]),
    "asymvar": (["asymvar", "--d", "3", "--mc-samples", "500", "--n", "100", "--trials", "3"],
                ["moments", "asymptotic", "eigenvalues", "empirical", "ck"]),
}


@pytest.mark.parametrize("command", sorted(_JSON_KEYS))
def test_json_top_level_keys(tmp_path, small_csv, command):
    argv, keys = _JSON_KEYS[command]
    out = tmp_path / "out.json"
    on_file = ["--input", small_csv] if command in ("oja", "varest", "bootstrap") else []
    assert run(["--quiet", *argv, *on_file, "--out", out]) == 0
    assert list(json.loads(out.read_text())) == keys


def test_manifest_layout(tmp_path, small_csv):
    out = tmp_path / "v.json"
    assert run(["--quiet", "--seed", "3", "varest", "--input", small_csv, "--m1", "2", "--m2", "2",
                "--out", out]) == 0
    manifest = json.loads((tmp_path / "v.json.manifest.json").read_text())
    assert list(manifest) == ["subcommand", "config", "seed", "content_hash", "started_at",
                              "finished_at", "version"]
    assert manifest["subcommand"] == "varest" and manifest["seed"] == manifest["config"]["seed"] == 3
    assert manifest["content_hash"] == manifest["config"]["input_sha256"]
    started, finished = (datetime.fromisoformat(manifest[k]) for k in ("started_at", "finished_at"))
    assert started.tzinfo is not None and started <= finished
    assert manifest["version"] == __version__
    # coverage and asymvar end the config with the run record of their workers;
    # the hash is taken before the handler runs, so it covers the flags alone.
    for argv in (["coverage", "--n", "300", "--d", "4", "--trials", "2", "--methods", "ojavarest",
                  "--m1", "2", "--m2", "2"],
                 ["asymvar", "--d", "3", "--mc-samples", "500", "--n", "100", "--trials", "3"]):
        out = tmp_path / f"{argv[0]}.out"
        assert run(["--quiet", "--seed", "3", *argv, "--out", out]) == 0
        manifest = json.loads((tmp_path / f"{argv[0]}.out.manifest.json").read_text())
        config = manifest["config"]
        assert list(config)[-2:] == ["workers", "reruns"]
        assert config["workers"] >= 1 and config["reruns"] == []
    # asymvar's handler adds only the workers' run record, so its hash is that of the config less
    # the records added after it: the BLAS setting and the workers' run record.
    flags = {k: v for k, v in config.items() if k not in ("blas_threads", "workers", "reruns")}
    assert manifest["content_hash"] == content_hash_config(flags)


# Each command's argv and its manifest config keys in order: the parsed flags, the input's
# digest, the BLAS setting, then the keys the handler adds. A handler that changes a flag's
# value (varest's m1 under --preset) leaves the flag in its place.
_FILE_KEYS = ["seed", "subcommand", "input", "center", "alpha", "gap", "out"]
_CONFIG_KEYS = {
    "synth": (["synth", "--n", "50", "--d", "3"],
              ["seed", "subcommand", "n", "d", "beta", "c", "scale", "out", "blas_threads", "gap"]),
    "oja": (["oja"], [*_FILE_KEYS, "input_sha256", "blas_threads", "input_cache"]),
    "varest": (["varest", "--preset", "paper-experiments", "--boosted"],
               [*_FILE_KEYS, "delta", "m1", "m2", "preset", "boosted", "level", "input_sha256",
                "blas_threads", "input_cache", "samples_unused"]),
    "bootstrap": (["bootstrap", "--b", "2"],
                  [*_FILE_KEYS, "b", "law", "input_sha256", "blas_threads", "input_cache"]),
    "coverage": (["coverage", "--n", "300", "--d", "4", "--trials", "2", "--methods", "ojavarest",
                  "--m1", "2", "--m2", "2"],
                 ["seed", "subcommand", "n", "d", "beta", "trials", "methods", "level", "m1", "m2",
                  "tracked", "out", "blas_threads", "alpha", "workers", "reruns"]),
    "bench": (["bench", "--n", "300", "--d", "4", "--methods", "ojavarest,bootstrap:2"],
              ["seed", "subcommand", "n", "d", "beta", "methods", "out", "blas_threads"]),
    "oracle": (["oracle", "--n", "4", "--d", "3"],
               ["seed", "subcommand", "n", "d", "eta", "beta", "out", "blas_threads"]),
    "asymvar": (["asymvar", "--d", "3", "--mc-samples", "500", "--n", "100", "--trials", "3"],
                ["seed", "subcommand", "d", "beta", "mc_samples", "n", "alpha", "trials", "out",
                 "blas_threads", "workers", "reruns"]),
}


@pytest.mark.parametrize("command", sorted(_CONFIG_KEYS))
def test_manifest_config_key_order(tmp_path, small_csv, command):
    argv, keys = _CONFIG_KEYS[command]
    out = tmp_path / "out.json"
    on_file = ["--input", small_csv] if command in ("oja", "varest", "bootstrap") else []
    assert run(["--quiet", *argv, *on_file, "--out", out]) == 0
    config = json.loads((tmp_path / "out.json.manifest.json").read_text())["config"]
    assert list(config) == keys
    if command == "varest":
        assert config["m1"] == PAPER_M1 and config["samples_unused"] == 4
    if command in ("bench", "coverage"):
        assert isinstance(config["methods"], list)


@pytest.mark.parametrize("flag", [["varest", "--format", "json"], ["varest", "--ci-scale", "full"],
                                  ["synth", "--n", "20", "--d", "3", "--mask-rate", "0.1"]])
def test_removed_flags_are_refused(tmp_path, small_csv, flag):
    out = tmp_path / "v.json"
    on_file = ["--input", small_csv] if flag[0] == "varest" else []
    assert run(["--quiet", *flag, *on_file, "--out", out]) == 1
    assert not out.exists()


def test_pure_noise_varest_exits_1_naming_the_step(tmp_path, capsys):
    path, out = tmp_path / "noise.csv", tmp_path / "v.json"
    np.savetxt(path, SeedSpec(208).rng().standard_normal((400, 10)), delimiter=",")
    code = run(["--quiet", "varest", "--input", path, "--center", "--preset", "paper-experiments",
                "--level", "0.95", "--out", out])
    assert code == 1
    assert "eta_B * lambda_1 = " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [["oja"], ["bootstrap", "--b", "5"]], ids=" ".join)
def test_proxy_outside_the_step_regime_exits_1_naming_the_step(tmp_path, capsys, command):
    # lambda_1 is about 42 on this file, so --gap 1 sets eta_n * lambda_1 near 1.6.
    path, out = tmp_path / "data.csv", tmp_path / "o.json"
    assert run(["--quiet", "--seed", "1", "synth", "--n", "300", "--d", "6", "--out", path]) == 0
    assert run(["--quiet", *command, "--input", path, "--gap", "1.0", "--out", out]) == 1
    assert "eta_n * lambda_1 = " in capsys.readouterr().err
    assert not out.exists()


def test_parser_defaults_are_the_library_defaults():
    parser = cli._build_parser()

    def parsed(*argv):
        return parser.parse_args([*argv, "--out", "o"])

    def defaults(function, *names):
        params = inspect.signature(function).parameters
        return {name: params[name].default for name in names}

    synth = parsed("synth", "--n", "2", "--d", "2")
    assert {"c": synth.c, "scale": synth.scale} == defaults(build_sigma, "c", "scale")
    coverage = parsed("coverage", "--n", "2", "--d", "2", "--trials", "1")
    assert ({"level": coverage.level, "m1": coverage.m1, "tracked": cli._tracked(coverage),
             "methods": cli._methods(coverage)}
            == defaults(experiments.run_coverage_experiment, "level", "m1", "tracked", "methods"))
    beta = defaults(experiments.run_bench, "beta")["beta"]
    for argv in (["synth", "--n", "2", "--d", "2"], ["coverage", "--n", "2", "--d", "2", "--trials", "1"],
                 ["bench", "--n", "2", "--d", "2"], ["oracle"], ["asymvar", "--d", "2"]):
        assert parsed(*argv).beta == beta, argv
    law = parsed("bootstrap", "--input", "x").law
    assert law == defaults(experiments.method_variance, "law")["law"]
    assert law == defaults(bootstrap_run, "law")["law"]


@pytest.mark.parametrize("argv", [
    ["oja", "--gap", "nan"], ["oja", "--gap", "inf"], ["oja", "--alpha", "inf"], ["oja", "--alpha", "nan"],
    ["varest", "--alpha", "nan"], ["varest", "--alpha", "0.5"], ["bootstrap", "--alpha", "1"],
    ["varest", "--delta", "1.5"], ["varest", "--delta", "nan"], ["varest", "--delta", "0"],
    ["varest", "--m1", "0"], ["varest", "--m2", "0"],
], ids=" ".join)
def test_flag_out_of_range_is_refused_before_the_input_is_read(tmp_path, capsys, monkeypatch, argv):
    # The input does not exist, so an error naming the flag was raised before any read.
    calls = []
    monkeypatch.setattr(experiments, "proxy", lambda *a, **k: calls.append(1))
    out = tmp_path / "x.json"
    assert run(["--quiet", *argv, "--input", tmp_path / "nope.csv", "--out", out]) == 1
    assert f"error: {argv[1]} must" in capsys.readouterr().err
    assert calls == []
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["synth", "--n", "20", "--d", "3", "--beta", "nan"],
    ["synth", "--n", "20", "--d", "3", "--c", "nan"],
    ["synth", "--n", "20", "--d", "3", "--scale", "inf"],
    ["coverage", "--n", "300", "--d", "4", "--trials", "1", "--beta", "nan"],
    ["bench", "--n", "300", "--d", "4", "--beta", "nan"],
    ["oracle", "--beta", "nan"],
    ["asymvar", "--d", "4", "--mc-samples", "2000", "--beta", "nan"],
], ids=" ".join)
def test_non_finite_synth_parameter_is_refused_by_name(tmp_path, capsys, argv):
    out = tmp_path / "x.out"
    assert run(["--quiet", *argv, "--out", out]) == 1
    assert f" {argv[-2][2:]} must be" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_asymvar_nan_alpha_is_refused_before_the_moments(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(asymvar, "estimate_mtilde", lambda *a, **k: calls.append(a))
    out = tmp_path / "asym.json"
    assert run(["--quiet", "asymvar", "--d", "5", "--n", "100", "--alpha", "nan", "--out", out]) == 1
    assert "error: --alpha must" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("flag, value, message", [("--n", "1", "--n must be at least 2 (got 1)"),
                                                  ("--mc-samples", "99",
                                                   "--mc-samples must be at least 100 (got 99)")])
def test_asymvar_short_n_or_mc_samples_is_refused_before_the_moments(tmp_path, capsys, monkeypatch,
                                                                     flag, value, message):
    calls = []
    monkeypatch.setattr(asymvar, "estimate_mtilde", lambda *a, **k: calls.append(a))
    out = tmp_path / "asym.json"
    argv = {"--n": ["--n", value, "--trials", "5"], "--mc-samples": ["--mc-samples", value]}[flag]
    assert run(["--quiet", "asymvar", "--d", "5", *argv, "--out", out]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


def test_preset_with_m1_is_refused(tmp_path, small_csv, capsys):
    # --preset fixes m1 to the paper's value, so an --m1 beside it would be silently overridden or ignored.
    out = tmp_path / "x.json"
    assert run(["--quiet", "varest", "--input", small_csv, "--preset", "paper-experiments",
                "--m1", "5", "--out", out]) == 1
    err = capsys.readouterr().err
    assert "--m1" in err and "--preset" in err
    assert not out.exists()


def _cache_state(out):
    return json.loads(Path(f"{out}.manifest.json").read_text())["config"]["input_cache"]


def _entries(cache):
    return sorted(p.name for p in cache.iterdir()) if cache.exists() else []


class TestInputCache:
    """The parsed-array cache of the commands that read --input (io.read_csv_cached)."""

    @pytest.mark.parametrize("argv", [["oja"], ["varest", "--center", "--m1", "2", "--m2", "2",
                                                "--level", "0.9"], ["bootstrap", "--b", "3"]],
                             ids=lambda argv: argv[0])
    def test_hit_writes_the_bytes_of_a_miss(self, tmp_path, small_csv, private_cache, monkeypatch,
                                           argv):
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        assert run(["--quiet", "--seed", "4", *argv, "--input", small_csv, "--out", first]) == 0
        parses = []
        read_csv = oio.read_csv
        monkeypatch.setattr(oio, "read_csv", lambda path: parses.append(path) or read_csv(path))
        assert run(["--quiet", "--seed", "4", *argv, "--input", small_csv, "--out", second]) == 0
        assert parses == []
        assert first.read_bytes() == second.read_bytes()
        assert (_cache_state(first), _cache_state(second)) == ("miss", "hit")
        digest = oio.content_hash_file(small_csv)
        assert _entries(private_cache) == [f"{digest}.r{oio._PARSE_RULES}.npy"]

    def test_centred_and_plain_runs_share_one_entry(self, tmp_path, small_csv, private_cache):
        for k, flags in enumerate([["--center"], [], ["--center"]]):
            out = tmp_path / f"{k}.json"
            assert run(["--quiet", "oja", "--input", small_csv, *flags, "--out", out]) == 0
            assert _cache_state(out) == ("miss" if k == 0 else "hit")
        [name] = _entries(private_cache)
        # The cache keeps the parse, never the centred array.
        assert read_csv(small_csv).samples.tobytes() in (private_cache / name).read_bytes()

    @pytest.mark.parametrize("damage", ["truncate", "flip_array", "flip_checksum", "flip_header",
                                        "empty"])
    def test_damaged_entry_is_a_miss_and_rewritten(self, tmp_path, small_csv, private_cache,
                                                   damage):
        first = tmp_path / "first.json"
        assert run(["--quiet", "oja", "--input", small_csv, "--out", first]) == 0
        [name] = _entries(private_cache)
        entry = private_cache / name
        sound = entry.read_bytes()
        raw = bytearray(sound)
        if damage == "truncate":
            del raw[-100:]
        elif damage == "flip_array":
            raw[len(raw) // 2] ^= 0x10
        elif damage == "flip_checksum":
            raw[-1] ^= 0x01
        elif damage == "flip_header":
            # One row fewer in the header's shape, as many characters.
            lo = raw.index(b"(") + 1
            raw[lo:raw.index(b",", lo)] = b"399"
        else:
            raw.clear()
        entry.write_bytes(bytes(raw))
        second = tmp_path / "second.json"
        assert run(["--quiet", "oja", "--input", small_csv, "--out", second]) == 0
        assert _cache_state(second) == "miss"
        assert entry.read_bytes() == sound
        assert first.read_bytes() == second.read_bytes()

    def test_unusable_cache_directory_runs_uncached(self, tmp_path, small_csv, monkeypatch):
        # A regular file where the cache directory's parent should be: no user can write there.
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        for name in ("first.json", "second.json"):
            assert run(["--quiet", "varest", "--input", small_csv, "--m1", "2", "--m2", "2",
                        "--out", tmp_path / name]) == 0
            assert _cache_state(tmp_path / name) == "off"
        assert (tmp_path / "first.json").read_bytes() == (tmp_path / "second.json").read_bytes()

    def test_parse_error_is_never_cached(self, tmp_path, capsys, private_cache):
        path = tmp_path / "ragged.csv"
        path.write_text("1,2,3\n4,5\n")
        messages = []
        for _ in range(2):
            assert run(["--quiet", "oja", "--input", path, "--out", tmp_path / "o.json"]) == 1
            messages.append(capsys.readouterr().err)
        assert messages[0] == messages[1] and str(path) in messages[0]
        assert _entries(private_cache) == []
        assert not (tmp_path / "o.json").exists()

    def test_entry_of_other_parse_rules_is_a_miss(self, tmp_path, small_csv, private_cache,
                                                  monkeypatch):
        with monkeypatch.context() as patch:
            patch.setattr(oio, "_PARSE_RULES", oio._PARSE_RULES + 1)
            assert run(["--quiet", "oja", "--input", small_csv, "--out", tmp_path / "a.json"]) == 0
        assert run(["--quiet", "oja", "--input", small_csv, "--out", tmp_path / "b.json"]) == 0
        assert _cache_state(tmp_path / "b.json") == "miss"
        assert len(_entries(private_cache)) == 2

    def test_eviction_keeps_the_directory_under_its_limit(self, tmp_path, private_cache,
                                                          monkeypatch):
        rng = SeedSpec(41).rng()
        paths = {}
        for name in "abc":
            paths[name] = tmp_path / f"{name}.csv"
            np.savetxt(paths[name], rng.standard_normal((300, 4)), delimiter=",")

        def oja(name):
            out = tmp_path / f"{name}.json"
            assert run(["--quiet", "oja", "--input", paths[name], "--out", out]) == 0
            return _cache_state(out)

        def entry(name):
            return private_cache / f"{oio.content_hash_file(paths[name])}.r{oio._PARSE_RULES}.npy"

        assert oja("a") == oja("b") == "miss"
        size = entry("a").stat().st_size
        monkeypatch.setattr(oio, "_CACHE_BYTES", 2 * size + size // 2)
        # b is used after a; then a hit on a makes b the least recently used.
        os.utime(entry("a"), ns=(10**17, 10**17))
        os.utime(entry("b"), ns=(2 * 10**17, 2 * 10**17))
        assert oja("a") == "hit"
        assert oja("c") == "miss"
        assert {p.name for p in private_cache.iterdir()} == {entry("a").name, entry("c").name}
        assert sum(p.stat().st_size for p in private_cache.iterdir()) <= oio._CACHE_BYTES
        assert oja("b") == "miss"
        assert sum(p.stat().st_size for p in private_cache.iterdir()) <= oio._CACHE_BYTES

    def test_input_changed_while_read_is_refused(self, tmp_path, small_csv, private_cache, capsys,
                                                 monkeypatch):
        read_csv = oio.read_csv

        def append_then_read(path):
            with open(path, "a", encoding="utf-8") as fh:
                fh.write("1,2,3,4\n")
            return read_csv(path)

        monkeypatch.setattr(oio, "read_csv", append_then_read)
        out = tmp_path / "v.json"
        assert run(["--quiet", "varest", "--input", small_csv, "--out", out]) == 1
        assert f"error: {small_csv}: the file changed while it was read" in capsys.readouterr().err
        assert list(tmp_path.glob("v.json*")) == []
        assert _entries(private_cache) == []


class TestCoverageCommand:
    def test_writes_table_and_records(self, tmp_path):
        out = tmp_path / "coverage.csv"
        code = run(["--quiet", "--seed", "11", "coverage", "--n", "400", "--d", "8",
                    "--trials", "3", "--methods", "ojavarest,bootstrap:2", "--out", out])
        assert code == 0
        table = read_rows(out)
        assert {int(r["coordinate"]) for r in table} == {1, 2}
        assert "ojavarest" in table[0] and "bootstrap:2" in table[0]
        records = read_rows(tmp_path / "coverage.csv.records.csv")
        assert len(records) == 6  # 3 trials x 2 methods

    def test_numeric_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["--n", "300", "--d", "6", "--trials", "2", "--methods", "ojavarest"]
        assert run(["--quiet", "--seed", "4", "coverage", *args, "--out", a]) == 0
        assert run(["--quiet", "--seed", "4", "coverage", *args, "--out", b]) == 0
        assert a.read_bytes() == b.read_bytes()


    @pytest.mark.parametrize("coord", ["0", "7"])
    def test_tracked_outside_range_is_validation_error(self, tmp_path, capsys, coord):
        code = run(["--quiet", "coverage", "--n", "300", "--d", "6", "--trials", "1",
                    "--methods", "ojavarest", "--tracked", f"1,{coord}", "--out", tmp_path / "c.csv"])
        assert code == 1
        assert f"tracked coordinate {coord} is outside 1..6" in capsys.readouterr().err
        assert not (tmp_path / "c.csv").exists()

    def test_tracked_not_an_integer_names_the_flag(self, tmp_path, capsys):
        code = run(["--quiet", "coverage", "--n", "300", "--d", "6", "--trials", "1",
                    "--methods", "ojavarest", "--tracked", "1,x", "--out", tmp_path / "c.csv"])
        assert code == 1
        assert "--tracked must list integers (got '1,x')" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_level_outside_unit_interval_is_validation_error(self, tmp_path, capsys):
        code = run(["--quiet", "coverage", "--n", "300", "--d", "6", "--trials", "1",
                    "--level", "1.5", "--out", tmp_path / "c.csv"])
        assert code == 1
        assert "--level must lie in (0, 1) (got 1.5)" in capsys.readouterr().err
        assert not (tmp_path / "c.csv").exists()

    def test_bad_method_is_validation_error(self, tmp_path, capsys):
        code = run(["--quiet", "coverage", "--n", "300", "--d", "6", "--trials", "1",
                    "--methods", "bootstrap:x", "--out", tmp_path / "c.csv"])
        assert code == 1
        assert "'bootstrap:x'" in capsys.readouterr().err

    @pytest.mark.parametrize("command,methods", [("coverage", ","), ("bench", " ")])
    def test_empty_methods_is_validation_error(self, tmp_path, capsys, command, methods):
        # Refused before any trial runs: no output, no manifest.
        trials = ["--trials", "1"] if command == "coverage" else []
        code = run(["--quiet", command, "--n", "300", "--d", "6", *trials,
                    "--methods", methods, "--out", tmp_path / "c.csv"])
        assert code == 1
        assert "--methods names no method" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


    @pytest.mark.parametrize("flag", ["--m1", "--m2"])
    def test_collapsed_schedule_is_refused_before_the_first_trial(self, tmp_path, capsys,
                                                                   monkeypatch, flag):
        calls = []
        real = experiments.proxy
        monkeypatch.setattr(experiments, "proxy", lambda *a, **k: calls.append(1) or real(*a, **k))
        code = run(["--quiet", "coverage", "--n", "300", "--d", "6", "--trials", "2", flag, "0",
                    "--methods", "bootstrap:2,ojavarest", "--out", tmp_path / "c.csv"])
        assert code == 1
        assert f"error: {flag} must be at least 1 (got 0)" in capsys.readouterr().err
        assert calls == []
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag", ["--m1", "--m2"])
    def test_schedule_flag_below_one_is_refused_without_ojavarest(self, tmp_path, capsys,
                                                                  monkeypatch, flag):
        # Only ojavarest reads the schedule, but the manifest would record the value.
        calls = []
        monkeypatch.setattr(experiments, "proxy", lambda *a, **k: calls.append(1))
        code = run(["--quiet", "coverage", "--n", "300", "--d", "6", "--trials", "2", flag, "0",
                    "--methods", "bootstrap:2", "--out", tmp_path / "c.csv"])
        assert code == 1
        assert f"error: {flag} must be at least 1 (got 0)" in capsys.readouterr().err
        assert calls == []
        assert list(tmp_path.iterdir()) == []

    def test_repeated_tracked_coordinate_is_refused_before_the_first_trial(self, tmp_path, capsys,
                                                                          monkeypatch):
        calls = []
        monkeypatch.setattr(experiments, "proxy", lambda *a, **k: calls.append(1))
        code = run(["--quiet", "coverage", "--n", "300", "--d", "6", "--trials", "2", "--m1", "2",
                    "--m2", "2", "--methods", "ojavarest", "--tracked", "1,1", "--out", tmp_path / "c.csv"])
        assert code == 1
        assert "tracked coordinate 1 repeats" in capsys.readouterr().err
        assert calls == []
        assert list(tmp_path.iterdir()) == []


class TestBenchCommand:
    def test_timing_rows(self, tmp_path):
        out = tmp_path / "timing.csv"
        code = run(["--quiet", "bench", "--n", "400", "--d", "10",
                    "--methods", "ojavarest,bootstrap:2", "--out", out])
        assert code == 0
        assert out.read_text().splitlines()[0] == "method,n,d,vtilde_ms,estimate_ms,total_ms"
        rows = read_rows(out)
        assert [r["method"] for r in rows] == ["ojavarest", "bootstrap:2"]
        assert all(float(r["total_ms"]) >= 0 for r in rows)

    @pytest.mark.parametrize("methods,error", [("ojavarest,bootstrap:2,bootstrap:2", "methods repeat"),
                                               ("ojavarest,bootstrap:2,bootstrap:x", "'bootstrap:x'")])
    def test_bad_method_list_is_refused_before_any_pass(self, tmp_path, capsys, monkeypatch, methods, error):
        calls = []
        real = experiments.proxy
        monkeypatch.setattr(experiments, "proxy", lambda *a, **k: calls.append(1) or real(*a, **k))
        code = run(["--quiet", "bench", "--n", "400", "--d", "10", "--methods", methods,
                    "--out", tmp_path / "t.csv"])
        assert code == 1
        assert error in capsys.readouterr().err
        assert calls == []
        assert list(tmp_path.iterdir()) == []


class TestOracleCommand:
    def test_report_written(self, tmp_path):
        out = tmp_path / "report.json"
        assert run(["--quiet", "oracle", "--n", "6", "--d", "3", "--out", out]) == 0
        payload = json.loads(out.read_text())
        assert payload["n"] == 6 and payload["d"] == 3
        assert len(payload["terms"]) == 7

    @pytest.mark.parametrize("eta", ["-1", "0", "nan"])
    def test_nonpositive_eta_is_validation_error(self, tmp_path, capsys, eta):
        out = tmp_path / "report.json"
        assert run(["--quiet", "oracle", "--eta", eta, "--out", out]) == 1
        assert "--eta must be positive" in capsys.readouterr().err
        assert not out.exists()


class TestAsymvarCommand:
    def test_payload_shape(self, tmp_path):
        out = tmp_path / "asym.json"
        code = run(["--quiet", "asymvar", "--d", "4", "--mc-samples", "20000",
                    "--n", "500", "--trials", "50", "--out", out])
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["asymptotic"]["v"]) == 4
        assert payload["asymptotic"]["rn"] is not None
        assert "empirical" in payload and "ck" in payload

    def test_trials_without_n_is_validation_error(self, tmp_path, capsys):
        out = tmp_path / "asym.json"
        assert run(["--quiet", "asymvar", "--d", "4", "--mc-samples", "2000",
                    "--trials", "20", "--out", out]) == 1
        assert "--trials" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_trials_is_validation_error(self, tmp_path, capsys):
        out = tmp_path / "asym.json"
        assert run(["--quiet", "asymvar", "--d", "4", "--mc-samples", "2000", "--n", "100",
                    "--trials", "-1", "--out", out]) == 1
        assert "--trials must be at least 0" in capsys.readouterr().err
        assert not out.exists()

    def test_alpha_without_n_is_validation_error(self, tmp_path, capsys):
        out = tmp_path / "asym.json"
        assert run(["--quiet", "asymvar", "--d", "4", "--mc-samples", "2000",
                    "--alpha", "3", "--out", out]) == 1
        assert "--alpha" in capsys.readouterr().err
        assert not out.exists()


class TestExitCodes:
    def test_unknown_subcommand(self):
        assert run(["definitely-not-a-command"]) == 1

    def test_unknown_flag(self):
        assert run(["synth", "--n", "10", "--d", "3", "--frobnicate", "--out", "x.csv"]) == 1

    def test_help_exits_zero(self):
        assert run(["--help"]) == 0

    def test_negative_seed_is_validation_error(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert run(["--quiet", "--seed", "-1", "synth", "--n", "10", "--d", "3", "--out", out]) == 1
        assert "error: --seed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["oja", "--input", "{plain}/x.csv", "--out", "{tmp}/v.json"],
        ["synth", "--n", "10", "--d", "3", "--out", "{plain}/x.csv"],
    ], ids=["input", "out"])
    def test_path_under_a_regular_file_is_validation_error(self, tmp_path, capsys, argv):
        # A parent that is a file, not a directory, fails as a missing one does.
        plain = tmp_path / "plain"
        plain.write_text("not a directory\n")
        assert run(["--quiet"] + [a.format(plain=plain, tmp=tmp_path) for a in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Not a directory" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["plain"]

    def test_bad_env_seed_is_validation_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("OJA_INFER_SEED", "abc")
        out = tmp_path / "x.csv"
        assert run(["--quiet", "synth", "--n", "10", "--d", "3", "--out", out]) == 1
        assert "error: OJA_INFER_SEED" in capsys.readouterr().err
        assert not out.exists()
