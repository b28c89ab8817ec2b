import json

import numpy as np
import pytest

from ojainfer import SeedSpec, cli
from ojainfer.cli import cli_dispatch
from ojainfer.io import read_csv, read_results_csv


def run(argv):
    return cli_dispatch([str(a) for a in argv])


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

    def test_mask_rate(self, tmp_path):
        out = tmp_path / "masked.csv"
        assert run(["--quiet", "synth", "--n", "200", "--d", "5", "--mask-rate", "0.3", "--out", out]) == 0
        data = read_csv(out)
        assert np.mean(data.samples == 0.0) > 0.2


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


class TestVarestCommand:
    def test_json_output(self, tmp_path, small_csv):
        out = tmp_path / "varest.json"
        code = run(["--quiet", "--seed", "3", "varest", "--input", small_csv,
                    "--m1", "2", "--m2", "2", "--level", "0.95", "--out", out])
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["gamma"]) == 4
        assert len(payload["ci"]["lower"]) == 4

    def test_csv_output(self, tmp_path, small_csv):
        out = tmp_path / "varest.csv"
        code = run(["--quiet", "varest", "--input", small_csv, "--m1", "2", "--m2", "2",
                    "--format", "csv", "--out", out])
        assert code == 0
        rows = read_results_csv(out)
        assert len(rows) == 4 and "gamma" in rows[0]

    def test_boosted_proxy(self, tmp_path, small_csv):
        out = tmp_path / "varest.json"
        code = run(["--quiet", "varest", "--input", small_csv, "--m1", "2", "--m2", "2",
                    "--boosted", "--out", out])
        assert code == 0

    def test_bad_delta_is_validation_error(self, tmp_path, small_csv):
        assert run(["--quiet", "varest", "--input", small_csv, "--delta", "2.0",
                    "--out", tmp_path / "x.json"]) == 1

    def test_level_with_csv_is_validation_error(self, tmp_path, small_csv, capsys):
        out = tmp_path / "x.csv"
        assert run(["--quiet", "varest", "--input", small_csv, "--format", "csv",
                    "--level", "0.95", "--out", out]) == 1
        assert "--level" in capsys.readouterr().err
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

    def test_csv_matches_varest_shape(self, tmp_path, small_csv):
        out = tmp_path / "boot.csv"
        assert run(["--quiet", "bootstrap", "--input", small_csv, "--b", "2",
                    "--format", "csv", "--out", out]) == 0
        rows = read_results_csv(out)
        assert [r["coordinate"] for r in rows] == [1, 2, 3, 4]


@pytest.mark.parametrize("argv", [["oja"], ["varest", "--m1", "2", "--m2", "2"], ["bootstrap", "--b", "2"]])
def test_input_hashed_once(tmp_path, small_csv, monkeypatch, argv):
    calls = []
    hash_file = cli.content_hash_file
    monkeypatch.setattr(cli, "content_hash_file", lambda path: calls.append(path) or hash_file(path))
    out = tmp_path / "out.json"
    assert run(["--quiet", *argv, "--input", small_csv, "--out", out]) == 0
    assert calls == [str(small_csv)]
    manifest = json.loads((tmp_path / "out.json.manifest.json").read_text())
    assert manifest["content_hash"] == manifest["config"]["input_sha256"] == hash_file(small_csv)


def test_oja_varest_bootstrap_share_one_proxy(tmp_path, small_csv):
    extra = {"oja": [], "varest": ["--m1", "2", "--m2", "2"], "bootstrap": ["--b", "2"]}
    for cmd, flags in extra.items():
        assert run(["--quiet", "--seed", "12", cmd, "--input", small_csv, *flags,
                    "--out", tmp_path / f"{cmd}.json"]) == 0
    oja = json.loads((tmp_path / "oja.json").read_text())["estimate"]
    assert json.loads((tmp_path / "varest.json").read_text())["vtilde"] == oja
    assert json.loads((tmp_path / "bootstrap.json").read_text())["vtilde"] == oja


def test_pure_noise_varest_exits_1_naming_the_step(tmp_path, capsys):
    path, out = tmp_path / "noise.csv", tmp_path / "v.json"
    np.savetxt(path, SeedSpec(208).rng().standard_normal((400, 10)), delimiter=",")
    code = run(["--quiet", "varest", "--input", path, "--center", "--preset", "paper-experiments",
                "--level", "0.95", "--out", out])
    assert code == 1
    assert "eta_B * lambda_1 = " in capsys.readouterr().err
    assert not out.exists()


class TestCoverageCommand:
    def test_writes_table_and_records(self, tmp_path):
        out = tmp_path / "coverage.csv"
        code = run(["--quiet", "--seed", "11", "coverage", "--n", "400", "--d", "8",
                    "--trials", "3", "--methods", "ojavarest,bootstrap:2", "--out", out])
        assert code == 0
        table = read_results_csv(out)
        assert {r["coordinate"] for r in table} == {1, 2}
        assert "ojavarest" in table[0] and "bootstrap:2" in table[0]
        records = read_results_csv(tmp_path / "coverage.csv.records.csv")
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

    def test_bad_method_is_validation_error(self, tmp_path, capsys):
        code = run(["--quiet", "coverage", "--n", "300", "--d", "6", "--trials", "1",
                    "--methods", "bootstrap:x", "--out", tmp_path / "c.csv"])
        assert code == 1
        assert "'bootstrap:x'" in capsys.readouterr().err


class TestBenchCommand:
    def test_timing_rows(self, tmp_path):
        out = tmp_path / "timing.csv"
        code = run(["--quiet", "bench", "--n", "400", "--d", "10",
                    "--methods", "ojavarest,bootstrap:2", "--out", out])
        assert code == 0
        rows = read_results_csv(out)
        assert [r["method"] for r in rows] == ["ojavarest", "bootstrap:2"]
        assert all(r["total_ms"] >= 0 for r in rows)


class TestOracleCommand:
    def test_report_written(self, tmp_path):
        out = tmp_path / "report.json"
        assert run(["--quiet", "oracle", "--n", "6", "--d", "3", "--out", out]) == 0
        payload = json.loads(out.read_text())
        assert payload["n"] == 6 and payload["d"] == 3
        assert len(payload["terms"]) == 7


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

    def test_bad_env_seed_is_validation_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("OJA_INFER_SEED", "abc")
        out = tmp_path / "x.csv"
        assert run(["--quiet", "synth", "--n", "10", "--d", "3", "--out", out]) == 1
        assert "error: OJA_INFER_SEED" in capsys.readouterr().err
        assert not out.exists()
