"""End-to-end command line runs in subprocesses: artifacts and exit codes."""
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import pmpfraud
from pmpfraud import cli, training
from pmpfraud.cli import EXIT_VALIDATION, _write_json, main
from pmpfraud.layer import LayerVariant
from pmpfraud.model import PmpModel
from pmpfraud.training import TrainConfig

# The child process imports the same package as the tests, installed or not.
_PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(pmpfraud.__file__)))


def run_cli(*argv, expect=0):
    path = os.pathsep.join(p for p in (_PACKAGE_ROOT, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "pmpfraud", *argv],
        capture_output=True,
        text=True,
        timeout=300,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == expect, f"argv={argv}\nstdout={proc.stdout}\nstderr={proc.stderr}"
    return proc


def stderr_payload(proc):
    lines = [ln for ln in proc.stderr.splitlines() if ln.strip()]
    return json.loads(lines[-1])


def rejected(capsys, *argv):
    """Run the CLI in this process on input it must reject with exit 2
    before any output; returns the error message."""
    assert main([str(a) for a in argv]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    return json.loads(captured.err.splitlines()[-1])["error"]


COUNT_SETTINGS = ("batch_size", "max_epochs", "patience", "seed", "hidden_dim", "num_layers")
BAD_CONFIG_VALUES = [
    (key, value)
    for key in (*TrainConfig().to_dict(), "hidden_dim", "num_layers")
    for value in ("fast", True, *((16.5,) if key in COUNT_SETTINGS else ()))
] + [
    ("variant", "full"),
    ("variant", {}),
    ("variant", [True, True, True]),
    ("variant", {"partition_enabled": "no", "adaptive_combination_enabled": False, "root_specific_enabled": False}),
    ("variant", {"partition_enabled": 1, "adaptive_combination_enabled": 1, "root_specific_enabled": 1}),
]


# Every JSON file the program reads back, each damaged in one way. A damage
# is None (the file is deleted), the text to write, or a change to the
# parsed object.
JSON_FILES = ("meta.json", "config.json", "checkpoint/model.json", "checkpoint/manifest.json", "train --config")
DAMAGED_JSON = [
    pytest.param(name, damage, id=f"{name}-{label}")
    for name in JSON_FILES
    for label, damage in (("deleted", None), ("malformed", '{"num_nodes": 30,'), ("list", "[]"))
] + [
    pytest.param("meta.json", lambda d: d.update(num_nodes=199.5), id="meta.json-float-size"),
    pytest.param("meta.json", lambda d: d.update(num_nodes="30"), id="meta.json-string-size"),
    pytest.param("checkpoint/model.json", lambda d: d["variant"].update(partition_enabled="false"),
                 id="model.json-string-flag"),
    pytest.param("checkpoint/model.json", lambda d: d.update(hidden_dim=8.5), id="model.json-float-size"),
    pytest.param("config.json", lambda d: d.clear(), id="config.json-empty-object"),
]


@pytest.fixture(scope="module")
def bundle_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "bundle"
    run_cli(
        "synth", "--out", str(out), "--n", "80", "--m-attach", "2",
        "--fraud-fraction", "0.25", "--d", "4", "--ratios", "0.5,0.2,0.3", "--seed", "3",
    )
    return out


@pytest.fixture(scope="module")
def run_dir(bundle_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("runs") / "run0"
    run_cli(
        "train", str(bundle_dir), "--out", str(out), "--max-epochs", "3",
        "--patience", "3", "--batch-size", "32", "--hidden-dim", "8", "--seed", "0",
    )
    return out


class TestSynthAndValidate:
    def test_bundle_files_exist(self, bundle_dir):
        for name in ("meta.json", "edges_r0.csv", "features.csv", "labels.csv", "splits.csv", "synth.json"):
            assert (bundle_dir / name).exists(), name

    def test_synth_stamp(self, bundle_dir):
        stamp = json.loads((bundle_dir / "synth.json").read_text())
        assert set(stamp) >= {"config_hash", "seed", "version", "params"}
        assert stamp["seed"] == 3
        assert len(stamp["config_hash"]) == 16

    def test_validate_summary(self, bundle_dir):
        proc = run_cli("validate", str(bundle_dir))
        summary = json.loads(proc.stdout)
        assert summary["num_nodes"] == 80
        assert summary["edges"] == [2 * 78]
        assert summary["fraud_nodes"] == 20
        assert sum(summary["split_sizes"].values()) == 80

    @pytest.mark.parametrize("argv, error", [
        (["--d", "0"], "feature_dim must be a positive integer, got 0"),
        (["--d", "-1"], "feature_dim must be a positive integer, got -1"),
        (["--sigma", "-1"], "sigma must be a finite number >= 0, got -1.0"),
        (["--sigma", "nan"], "sigma must be a finite number >= 0, got nan"),
        (["--mu-fraud", "inf"], "mu_fraud must be a finite number, got inf"),
        (["--mu-benign=-inf"], "mu_benign must be a finite number, got -inf"),
    ])
    def test_bad_feature_setting_exits_2_before_writing(self, capsys, tmp_path, argv, error):
        out = tmp_path / "bundle"
        assert rejected(capsys, "synth", "--n", "50", "--m-attach", "2", *argv, "--out", out) == error
        assert not out.exists()

    def test_corrupt_bundle_exits_2_with_json_error(self, bundle_dir, tmp_path):
        import shutil

        bad = tmp_path / "bad"
        shutil.copytree(bundle_dir, bad)
        (bad / "features.csv").write_text("1.0,2.0,3.0,4.0\n")
        proc = run_cli("validate", str(bad), expect=2)
        payload = stderr_payload(proc)
        assert payload["code"] == 2
        assert "features.csv" in payload["error"]

    def test_non_integer_split_node_names_splits_csv(self, bundle_dir, tmp_path):
        import shutil

        bad = tmp_path / "bad"
        shutil.copytree(bundle_dir, bad)
        lines = (bad / "splits.csv").read_text().splitlines()
        lines[1] = "x7," + lines[1].split(",", 1)[1]
        (bad / "splits.csv").write_text("\n".join(lines) + "\n")
        proc = run_cli("validate", str(bad), expect=EXIT_VALIDATION)
        payload = stderr_payload(proc)
        assert payload["kind"] == "BundleError"
        assert "splits.csv" in payload["error"] and "'x7'" in payload["error"]

    def test_missing_bundle_exits_2(self, tmp_path):
        proc = run_cli("validate", str(tmp_path / "nope"), expect=2)
        assert stderr_payload(proc)["kind"] == "BundleError"

    def test_header_only_edge_file_is_a_relation_without_edges(self, bundle_dir, tmp_path):
        shutil.copytree(bundle_dir, tmp_path / "bundle")
        (tmp_path / "bundle" / "edges_r0.csv").write_text("src,dst\n")
        proc = run_cli("validate", str(tmp_path / "bundle"))
        assert json.loads(proc.stdout)["edges"] == [0]
        assert proc.stderr == ""

    @pytest.mark.parametrize("name", ["edges_r0.csv", "labels.csv", "splits.csv"])
    def test_file_without_a_header_line_exits_2_naming_it(self, bundle_dir, tmp_path, name):
        shutil.copytree(bundle_dir, tmp_path / "bundle")
        path = tmp_path / "bundle" / name
        path.write_bytes(b"")
        proc = run_cli("validate", str(tmp_path / "bundle"), expect=EXIT_VALIDATION)
        payload = stderr_payload(proc)
        assert payload["kind"] == "BundleError" and str(path) in payload["error"]
        assert "header" in payload["error"]
        assert len(proc.stderr.strip().splitlines()) == 1

    @pytest.mark.parametrize("name", ["labels.csv", "splits.csv"])
    def test_header_only_node_file_has_no_rows(self, bundle_dir, tmp_path, name):
        shutil.copytree(bundle_dir, tmp_path / "bundle")
        path = tmp_path / "bundle" / name
        path.write_text(path.read_text().splitlines()[0] + "\n")
        proc = run_cli("validate", str(tmp_path / "bundle"), expect=EXIT_VALIDATION)
        error = stderr_payload(proc)["error"]
        assert error == f"{path}: row-count mismatch, expected 80 rows, got 0"
        assert len(proc.stderr.strip().splitlines()) == 1

    @pytest.mark.parametrize("content", [b"", b"\n\n"], ids=["0-byte", "blank"])
    def test_empty_features_file_exits_2_with_one_stderr_line(self, bundle_dir, tmp_path, content):
        shutil.copytree(bundle_dir, tmp_path / "bundle")
        path = tmp_path / "bundle" / "features.csv"
        path.write_bytes(content)
        proc = run_cli("validate", str(tmp_path / "bundle"), expect=EXIT_VALIDATION)
        assert stderr_payload(proc)["error"] == f"{path}: row-count mismatch, expected 80 rows, got 0"
        assert len(proc.stderr.strip().splitlines()) == 1


class TestTrain:
    def test_artifacts(self, run_dir):
        for name in ("config.json", "history.csv", "metrics.json"):
            assert (run_dir / name).exists(), name
        for name in ("manifest.json", "params.bin", "model.json"):
            assert (run_dir / "checkpoint" / name).exists(), name

    def test_config_stamp_and_resolution(self, run_dir):
        config = json.loads((run_dir / "config.json").read_text())
        assert set(config) >= {"config_hash", "seed", "version", "resolved"}
        resolved = config["resolved"]
        assert resolved["max_epochs"] == 3
        assert resolved["hidden_dim"] == 8
        assert resolved["variant"]["partition_enabled"] is True

    def test_history_lines(self, run_dir):
        lines = (run_dir / "history.csv").read_text().splitlines()
        assert lines[0].startswith("# config_hash=")
        assert lines[1] == "epoch,train_loss,val_auc"
        assert len(lines) == 2 + 3

    def test_metrics_fields(self, run_dir):
        metrics = json.loads((run_dir / "metrics.json").read_text())
        assert metrics["split"] == "test"
        assert 0.0 <= metrics["auc"] <= 1.0
        assert set(metrics["confusion"]) == {"tp", "fp", "fn", "tn"}

    def test_failed_json_write_leaves_existing_artifact_intact(self, run_dir, tmp_path):
        path = tmp_path / "metrics.json"
        shutil.copy(run_dir / "metrics.json", path)
        before = path.read_bytes()
        with pytest.raises(TypeError):
            _write_json(str(path), {"auc": 0.5, "unserializable": object()})
        assert path.read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == ["metrics.json"]

    def test_deterministic_reruns_are_byte_identical(self, bundle_dir, tmp_path):
        args = (
            "train", str(bundle_dir), "--max-epochs", "2", "--patience", "2",
            "--batch-size", "32", "--hidden-dim", "8", "--seed", "1",
        )
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli(*args, "--out", str(a))
        run_cli(*args, "--out", str(b))
        for name in ("history.csv", "metrics.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
        assert (a / "checkpoint" / "params.bin").read_bytes() == (b / "checkpoint" / "params.bin").read_bytes()

    def test_ablation_flags_recorded(self, bundle_dir, tmp_path):
        out = tmp_path / "ablate"
        run_cli(
            "train", str(bundle_dir), "--out", str(out), "--max-epochs", "1",
            "--patience", "1", "--batch-size", "32", "--hidden-dim", "4", "--no-partition",
        )
        variant = json.loads((out / "config.json").read_text())["resolved"]["variant"]
        assert variant == {
            "partition_enabled": False,
            "adaptive_combination_enabled": False,
            "root_specific_enabled": False,
        }

    @pytest.mark.parametrize("flag, switched_off", [
        ("--no-partition", {"partition_enabled", "adaptive_combination_enabled", "root_specific_enabled"}),
        ("--no-adaptive-combination", {"adaptive_combination_enabled"}),
        ("--no-root-specific", {"root_specific_enabled"}),
    ], ids=["no-partition", "no-adaptive-combination", "no-root-specific"])
    def test_ablation_flag_outranks_config_variant(self, bundle_dir, tmp_path, capsys, flag, switched_off):
        # keys out of field order: config.json must keep the file's order
        full = dict(reversed(LayerVariant.full().to_dict().items()))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"variant": full}))
        out = tmp_path / "run"
        argv = ["train", str(bundle_dir), "--out", str(out), "--config", str(path), flag,
                "--max-epochs", "1", "--patience", "1", "--batch-size", "32", "--hidden-dim", "4"]
        assert main(argv) == 0
        capsys.readouterr()
        want = {name: name not in switched_off for name in full}
        variant = json.loads((out / "config.json").read_text())["resolved"]["variant"]
        assert list(variant.items()) == list(want.items())
        assert PmpModel.load(str(out / "checkpoint")).config.variant == LayerVariant(**want)

    def test_config_file_with_cli_override(self, bundle_dir, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"max_epochs": 1, "hidden_dim": 4, "learning_rate": 0.05}))
        out = tmp_path / "cfgrun"
        run_cli(
            "train", str(bundle_dir), "--out", str(out), "--config", str(cfg_path),
            "--batch-size", "32", "--hidden-dim", "6",
        )
        resolved = json.loads((out / "config.json").read_text())["resolved"]
        assert resolved["learning_rate"] == 0.05  # from file
        assert resolved["hidden_dim"] == 6  # flag outranks file
        assert resolved["max_epochs"] == 1

    @pytest.mark.parametrize("name, content", [
        ("missing.json", None),
        ("malformed.json", '{"max_epochs": 2,'),
        ("list.json", '[{"max_epochs": 2}]'),
    ])
    def test_unreadable_config_file_exits_2_naming_it(self, bundle_dir, tmp_path, name, content):
        path = tmp_path / name
        if content is not None:
            path.write_text(content)
        out = tmp_path / "run"
        proc = run_cli("train", str(bundle_dir), "--out", str(out), "--config", str(path), expect=EXIT_VALIDATION)
        assert stderr_payload(proc)["error"].startswith(f"{path}: ")
        assert not out.exists()

    @pytest.mark.parametrize("key", ["lr", "dropout", "selection_metric", "bundle"])
    def test_unknown_config_key_exits_2_naming_file_and_key(self, bundle_dir, tmp_path, capsys, key):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"max_epochs": 1, key: 0.5}))
        error = rejected(capsys, "train", bundle_dir, "--out", tmp_path / "run", "--config", path)
        assert error == f"{path}: unknown key {key!r}"

    @pytest.mark.parametrize("key, value", BAD_CONFIG_VALUES, ids=lambda v: json.dumps(v, separators=(",", ":")))
    def test_bad_config_value_exits_2_naming_key_and_value(self, bundle_dir, tmp_path, capsys, key, value):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({key: value}))
        error = rejected(capsys, "train", bundle_dir, "--out", tmp_path / "run", "--config", path)
        assert error.startswith(f"{key} must ")
        assert error.endswith(f"got {value!r}")

    def test_bad_flag_value_names_field_and_value(self, bundle_dir, tmp_path, capsys):
        error = rejected(capsys, "train", bundle_dir, "--out", tmp_path / "run", "--batch-size", "0")
        assert error == "batch_size must be a positive integer, got 0"

    @pytest.mark.parametrize("flag, rule", [
        ("--lr", "learning_rate must be a finite, non-negative number"),
        ("--weight-decay", "weight_decay must be a finite, non-negative number"),
        ("--pos-weight", "pos_weight must be a finite, positive number or null"),
    ], ids=["lr", "weight-decay", "pos-weight"])
    def test_infinite_rate_exits_2_before_reading_or_writing(self, bundle_dir, tmp_path, capsys, monkeypatch,
                                                            flag, rule):
        def unread(path):
            raise AssertionError(f"bundle {path} read before the settings were checked")

        monkeypatch.setattr(cli.bundle, "load_bundle", unread)
        out = tmp_path / "run"
        assert rejected(capsys, "train", bundle_dir, "--out", out, flag, "inf") == f"{rule}, got inf"
        assert not out.exists()

    @pytest.mark.parametrize("setting, value, via_config", [
        ("hidden_dim", 0, False), ("num_layers", 0, False), ("hidden_dim", 0, True), ("num_layers", -2, True),
    ], ids=["hidden-dim-flag", "layers-flag", "hidden_dim-config", "num_layers-config"])
    def test_bad_model_size_exits_2_before_reading_or_writing(self, bundle_dir, tmp_path, capsys, monkeypatch,
                                                             setting, value, via_config):
        def unread(path):
            raise AssertionError(f"bundle {path} read before the settings were checked")

        monkeypatch.setattr(cli.bundle, "load_bundle", unread)
        out = tmp_path / "run"
        if via_config:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({setting: value}))
            argv = ("--config", path)
        else:
            argv = ({"hidden_dim": "--hidden-dim", "num_layers": "--layers"}[setting], value)
        error = rejected(capsys, "train", bundle_dir, "--out", out, *argv)
        assert error == f"{setting} must be a positive integer, got {value}"
        assert not out.exists()

    def test_divergence_exits_3(self, bundle_dir, tmp_path):
        proc = run_cli(
            "train", str(bundle_dir), "--out", str(tmp_path / "div"), "--max-epochs", "2",
            "--patience", "2", "--batch-size", "32", "--hidden-dim", "4", "--lr", "1e200",
            expect=3,
        )
        payload = stderr_payload(proc)
        assert payload["kind"] == "TrainingDiverged"
        assert payload["code"] == 3


class TestEvalAndInfluence:
    def test_eval_writes_split_metrics(self, run_dir):
        proc = run_cli("eval", str(run_dir), "--split", "val")
        payload = json.loads(proc.stdout)
        assert payload["split"] == "val"
        on_disk = json.loads((run_dir / "metrics-val.json").read_text())
        assert on_disk == payload

    def test_influence_artifacts(self, run_dir):
        run_cli("influence", str(run_dir), "--split", "test", "--bins", "5")
        lines = (run_dir / "influence.csv").read_text().splitlines()
        assert lines[1] == "node,I_f,I_b,diff"
        payload = json.loads((run_dir / "influence.json").read_text())
        assert payload["split"] == "test"
        assert payload["reduction"] == "entry-sum"
        assert len(payload["bin_counts"]) == 5
        assert len(payload["bin_edges"]) == 6

    @pytest.mark.parametrize("bins", ["0", "-3"])
    def test_non_positive_bins_exits_2(self, run_dir, bins):
        proc = run_cli("influence", str(run_dir), "--bins", bins, expect=EXIT_VALIDATION)
        assert stderr_payload(proc)["error"] == f"num_bins must be at least 1, got {bins}"

    def test_eval_on_missing_run_exits_2(self, tmp_path):
        proc = run_cli("eval", str(tmp_path / "ghost"), expect=2)
        assert stderr_payload(proc)["code"] == 2

    def damaged_run(self, run_dir, tmp_path, name, damage):
        run = tmp_path / "run"
        shutil.copytree(run_dir, run)
        damage(run / "checkpoint" / name)
        proc = run_cli("eval", str(run), expect=EXIT_VALIDATION)
        payload = stderr_payload(proc)
        assert payload["kind"] == "ValueError"
        assert str(run / "checkpoint" / name) in payload["error"]
        return payload["error"]

    @pytest.mark.parametrize("name", ["params.bin", "manifest.json", "model.json"])
    def test_missing_checkpoint_file_exits_2_naming_it(self, run_dir, tmp_path, name):
        error = self.damaged_run(run_dir, tmp_path, name, lambda path: path.unlink())
        assert "missing" in error

    @pytest.mark.parametrize("name, damage", DAMAGED_JSON)
    def test_damaged_json_file_exits_2_naming_it(self, bundle_dir, run_dir, tmp_path, capsys, name, damage):
        if name == "meta.json":
            shutil.copytree(bundle_dir, tmp_path / "bundle")
            path, argv = tmp_path / "bundle" / name, ["validate", tmp_path / "bundle"]
        elif name == "train --config":
            path = tmp_path / "cfg.json"
            path.write_text("{}")
            argv = ["train", bundle_dir, "--out", tmp_path / "out", "--config", path]
        else:
            shutil.copytree(run_dir, tmp_path / "run")
            path, argv = tmp_path / "run" / name, ["eval", tmp_path / "run"]
        if damage is None:
            path.unlink()
        elif callable(damage):
            content = json.loads(path.read_text())
            damage(content)
            path.write_text(json.dumps(content))
        else:
            path.write_text(damage)
        assert str(path) in rejected(capsys, *argv)

    @pytest.mark.parametrize("change, message", [
        ({"hidden_dim": 9}, "parameter rel0.layer0.W_self: shape (4, 8) != (4, 9)"),
        ({"num_layers": 2}, "parameter rel0.layer1.W_self: missing"),
    ], ids=["shape", "missing"])
    def test_checkpoint_at_odds_with_model_json_exits_2_naming_it(self, run_dir, tmp_path, capsys, change,
                                                                     message):
        run = tmp_path / "run"
        shutil.copytree(run_dir, run)
        sidecar = run / "checkpoint" / "model.json"
        sidecar.write_text(json.dumps(dict(json.loads(sidecar.read_text()), **change)))
        assert rejected(capsys, "eval", run) == f"{run / 'checkpoint'}: {message}"

    @pytest.mark.parametrize("command", ["eval", "influence"])
    def test_bundle_of_another_shape_exits_2_naming_bundle_and_checkpoint(self, run_dir, tmp_path, capsys,
                                                                          command):
        other = tmp_path / "bundle-d6"
        assert main(["synth", "--out", str(other), "--n", "80", "--m-attach", "2", "--d", "6"]) == 0
        run = tmp_path / "run"
        shutil.copytree(run_dir, run)
        config = json.loads((run / "config.json").read_text())
        config["resolved"]["bundle"] = str(other)
        (run / "config.json").write_text(json.dumps(config))
        capsys.readouterr()
        error = rejected(capsys, command, run)
        assert str(other) in error and str(run / "checkpoint") in error
        assert "feature_dim 6" in error and "feature_dim 4" in error

    @pytest.mark.parametrize("argv, message", [
        (("--split", "bogus"), "unknown split 'bogus', expected one of train, val, test"),
        (("--bins", "0"), "num_bins must be at least 1, got 0"),
    ], ids=["split", "bins"])
    def test_bad_influence_setting_exits_2_before_reading(self, run_dir, capsys, monkeypatch, argv, message):
        def unread(*args):
            raise AssertionError(f"{args} read before the settings were checked")

        monkeypatch.setattr(cli.bundle, "load_bundle", unread)
        monkeypatch.setattr(cli.PmpModel, "load", unread)
        before = sorted(os.listdir(run_dir))
        assert rejected(capsys, "influence", run_dir, *argv) == message
        assert sorted(os.listdir(run_dir)) == before

    def test_truncated_blob_exits_2_naming_it(self, run_dir, tmp_path):
        def truncate(path):
            path.write_bytes(path.read_bytes()[:-8])

        error = self.damaged_run(run_dir, tmp_path, "params.bin", truncate)
        assert "manifest expects" in error

    def test_corrupted_blob_exits_2_naming_it(self, run_dir, tmp_path):
        def flip_one_bit(path):
            raw = bytearray(path.read_bytes())
            raw[len(raw) // 2] ^= 1
            path.write_bytes(bytes(raw))

        error = self.damaged_run(run_dir, tmp_path, "params.bin", flip_one_bit)
        assert "sha256" in error


# Every file a bundle or a run holds that is read as raw rows or bytes.
READ_AS_DATA = ("labels.csv", "splits.csv", "edges_r0.csv", "features.csv", "features.f32", "checkpoint/params.bin")


@pytest.mark.parametrize("name", READ_AS_DATA)
def test_directory_in_place_of_a_file_exits_2_naming_it(bundle_dir, run_dir, tmp_path, capsys, name):
    if name.startswith("checkpoint/"):
        shutil.copytree(run_dir, tmp_path / "run")
        path, argv = tmp_path / "run" / name, ["eval", tmp_path / "run"]
    else:
        shutil.copytree(bundle_dir, tmp_path / "bundle")
        path, argv = tmp_path / "bundle" / name, ["validate", tmp_path / "bundle"]
        if name == "features.f32":
            (tmp_path / "bundle" / "features.csv").unlink()
    if path.exists():
        path.unlink()
    path.mkdir()
    assert str(path) in rejected(capsys, *argv)


class TestSpectral:
    def test_synth_source(self, tmp_path):
        run_cli("synth", "--n", "40", "--m-attach", "2", "--seed", "5", "--out", str(tmp_path / "bundle"))
        out = tmp_path / "spec"
        proc = run_cli("spectral", str(tmp_path / "bundle"), "--alpha", "0.3", "--seed", "5", "--out", str(out))
        payload = json.loads(proc.stdout)
        assert payload["alpha"] == 0.3
        assert payload["spatial_identity_error"] <= 1e-10
        assert payload["reconstruction_error"] <= 1e-8
        lo, hi = payload["eigenvalue_range"]
        assert lo >= -1e-9 and hi <= 2.0 + 1e-9
        assert (out / "spectral.csv").exists()
        assert json.loads((out / "spectral.json").read_text()) == payload

    def test_bundle_source(self, bundle_dir, tmp_path):
        out = tmp_path / "spec2"
        run_cli("spectral", str(bundle_dir), "--out", str(out))
        assert (out / "spectral.csv").exists()

    def test_relation_out_of_range_exits_2(self, bundle_dir, tmp_path):
        proc = run_cli(
            "spectral", str(bundle_dir), "--relation", "3", "--out", str(tmp_path / "spec3"),
            expect=EXIT_VALIDATION,
        )
        payload = stderr_payload(proc)
        assert payload["kind"] == "ValueError"
        assert "relation index 3" in payload["error"]

    @pytest.mark.parametrize("signal_dim", [0, -1])
    def test_non_positive_signal_dim_exits_2_before_writing(self, capsys, bundle_dir, tmp_path, signal_dim):
        out = tmp_path / "spec"
        error = rejected(capsys, "spectral", bundle_dir, "--signal-dim", signal_dim, "--out", out)
        assert error == f"signal_dim must be a positive integer, got {signal_dim}"
        assert not out.exists()

    @pytest.mark.parametrize("cap", [0, -1])
    def test_non_positive_max_dense_n_exits_2_before_reading_or_writing(self, capsys, monkeypatch, bundle_dir,
                                                                        tmp_path, cap):
        def unread(path):
            raise AssertionError(f"bundle {path} read before the settings were checked")

        monkeypatch.setattr(cli.bundle, "load_bundle", unread)
        out = tmp_path / "spec"
        error = rejected(capsys, "spectral", bundle_dir, "--max-dense-n", cap, "--out", out)
        assert error == f"max_dense_n must be a positive integer, got {cap}"
        assert not out.exists()

    @pytest.mark.parametrize("alpha", ["1.5", "-0.5", "nan"])
    def test_alpha_outside_the_unit_interval_exits_2_before_reading_or_writing(self, capsys, monkeypatch,
                                                                               bundle_dir, tmp_path, alpha):
        def unread(path):
            raise AssertionError(f"bundle {path} read before the settings were checked")

        monkeypatch.setattr(cli.bundle, "load_bundle", unread)
        out = tmp_path / "spec"
        error = rejected(capsys, "spectral", bundle_dir, "--alpha", alpha, "--out", out)
        assert error == f"alpha must lie in [0, 1], got {float(alpha)}"
        assert not out.exists()

    def test_dense_cap_exits_4(self, tmp_path):
        run_cli("synth", "--n", "50", "--m-attach", "2", "--out", str(tmp_path / "bundle"))
        proc = run_cli(
            "spectral", str(tmp_path / "bundle"), "--max-dense-n", "10", "--out", str(tmp_path / "capped"), expect=4,
        )
        payload = stderr_payload(proc)
        assert payload["kind"] == "DenseCapExceeded"
        assert payload["code"] == 4


class TestGraphStats:
    def test_homophily_output(self, bundle_dir, tmp_path):
        out = tmp_path / "homophily.json"
        proc = run_cli("homophily", str(bundle_dir), "--out", str(out))
        payload = json.loads(proc.stdout)
        scores = payload["homophily"]
        assert set(scores) == {"relation_0", "union"}
        assert 0.0 <= scores["union"] <= 1.0
        assert scores["relation_0"] == scores["union"]  # single relation
        assert json.loads(out.read_text()) == payload

    def test_ratio_hist_output(self, bundle_dir, tmp_path):
        out = tmp_path / "hist.csv"
        proc = run_cli(
            "ratio-hist", str(bundle_dir), "--bin-width", "0.5", "--max-ratio", "1.0",
            "--out", str(out),
        )
        lines = proc.stdout.splitlines()
        assert lines[0].startswith("# config_hash=")
        assert lines[1] == "ratio_lo,ratio_hi,node_count"
        assert len(lines) == 2 + 2 + 1  # two finite bins plus the inf row
        assert lines[-1].startswith("inf,inf,")
        assert out.read_text() == proc.stdout

    def test_hash_covers_every_argument(self, bundle_dir):
        stamps = {run_cli("ratio-hist", str(bundle_dir), "--max-ratio", r).stdout.splitlines()[0] for r in ("2", "5")}
        assert len(stamps) == 2

    def test_ratio_hist_relation_not_an_index_exits_2_naming_it(self, bundle_dir, capsys):
        error = rejected(capsys, "ratio-hist", bundle_dir, "--relation", "foo")
        assert error == "relation must be an integer index or 'union', got 'foo'"

    @pytest.mark.parametrize("width", ["0", "-0.1"])
    def test_ratio_hist_non_positive_bin_width_exits_2(self, bundle_dir, width):
        proc = run_cli("ratio-hist", str(bundle_dir), "--bin-width", width, expect=EXIT_VALIDATION)
        payload = stderr_payload(proc)
        assert payload["kind"] == "ValueError"
        assert f"bin_width must be a positive finite number, got {float(width)}" in payload["error"]


    @pytest.mark.parametrize("max_ratio, bin_width", [("1e300", "1e-300"), ("10", "1e-5")],
                             ids=["overflowing", "million-bins"])
    def test_ratio_hist_too_many_bins_exits_2_before_reading(self, capsys, monkeypatch, bundle_dir, tmp_path,
                                                             max_ratio, bin_width):
        def unread(path):
            raise AssertionError(f"bundle {path} read before the settings were checked")

        monkeypatch.setattr(cli.bundle, "load_bundle", unread)
        out = tmp_path / "hist.csv"
        error = rejected(capsys, "ratio-hist", bundle_dir, "--max-ratio", max_ratio, "--bin-width", bin_width,
                         "--out", out)
        assert error == (f"max_ratio / bin_width must be at most 10000 bins, "
                         f"got max_ratio {float(max_ratio)} and bin_width {float(bin_width)}")
        assert not out.exists()


class TestBench:
    def test_tiny_bench_fits_line(self, tmp_path):
        out = tmp_path / "bench"
        proc = run_cli(
            "bench", "--edges", "400,800", "--m-attach", "4", "--epochs", "1",
            "--hidden-dim", "4", "--out", str(out),
        )
        payload = json.loads(proc.stdout)
        assert len(payload["entries"]) == 2
        for entry in payload["entries"]:
            assert entry["seconds_per_epoch"] > 0
        assert "r_squared" in payload
        assert (out / "bench.json").exists()

    def test_times_train_itself(self, monkeypatch):
        # bench trains only through train(): a 1-epoch warm-up call, then a
        # timed call of `epochs` epochs per graph size, and every optimizer
        # is built inside one of them.
        max_epochs, outside = [], []
        inside = [False]
        real_train, real_adam_init = cli.train, training.Adam.__init__

        def counted_train(model, graph, table, config):
            max_epochs.append(config.max_epochs)
            inside[0] = True
            try:
                return real_train(model, graph, table, config)
            finally:
                inside[0] = False

        def counted_adam_init(self, *args, **kwargs):
            outside.append(not inside[0])
            real_adam_init(self, *args, **kwargs)

        monkeypatch.setattr(cli, "train", counted_train)
        monkeypatch.setattr(training.Adam, "__init__", counted_adam_init)
        result = cli.run_bench([400, 800], hidden_dim=4, m_attach=4, epochs=2)
        assert len(result["entries"]) == 2
        assert max_epochs == [1, 2, 1, 2]
        assert outside == [False] * 4

    def test_zero_epochs_exits_2(self):
        proc = run_cli("bench", "--edges", "400", "--epochs", "0", expect=EXIT_VALIDATION)
        payload = stderr_payload(proc)
        assert payload["kind"] == "ValueError"
        assert "epochs must be at least 1, got 0" in payload["error"]
        assert proc.stdout == ""

    @pytest.mark.parametrize("edges", ["400", "400,400", "400,401"])
    def test_fewer_than_two_graph_sizes_exit_2_before_building(self, capsys, monkeypatch, edges):
        monkeypatch.setattr(cli.synth, "generate_ba_graph", lambda *a, **k: pytest.fail("built a graph"))
        error = rejected(capsys, "bench", "--edges", edges)
        assert error.endswith(f"got {[int(x) for x in edges.split(',')]}")

    @pytest.mark.parametrize("argv, name", [
        (["--edges", "2000,4000", "--m-attach", "0"], "m_attach"),
        (["--edges", "2000,4000", "--m-attach", "-2"], "m_attach"),
        (["--edges", "inf,4000"], "edge target"),
        (["--edges", "2000,4000", "--batch-size", "0"], "batch_size"),
        (["--edges", "2000,4000", "--d", "0"], "feature_dim"),
        (["--edges", "2000,4000", "--hidden-dim", "0"], "hidden_dim"),
    ])
    def test_bad_setting_exits_2_before_building(self, capsys, monkeypatch, argv, name):
        monkeypatch.setattr(cli.synth, "generate_ba_graph", lambda *a, **k: pytest.fail("built a graph"))
        assert rejected(capsys, "bench", *argv).startswith(f"{name} must be ")


class TestTopLevel:
    def test_version(self):
        proc = run_cli("--version")
        assert proc.stdout.strip().startswith("pmpfraud ")

    def test_no_subcommand_is_usage_error(self):
        run_cli(expect=2)
