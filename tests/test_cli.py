"""End-to-end command line runs in subprocesses: artifacts and exit codes."""
import inspect
import json
import os
import shutil
import subprocess
import sys

import pytest

import pmpfraud
from pmpfraud import analysis, cli, graph, synth, training
from pmpfraud.cli import EXIT_VALIDATION, _write_json, main
from pmpfraud.layer import LayerVariant
from pmpfraud.model import ModelConfig, PmpModel
from pmpfraud.training import TrainConfig

from . import refused_inputs

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

    def test_header_only_edge_file_is_a_relation_without_edges(self, bundle_dir, tmp_path):
        shutil.copytree(bundle_dir, tmp_path / "bundle")
        (tmp_path / "bundle" / "edges_r0.csv").write_text("src,dst\n")
        proc = run_cli("validate", str(tmp_path / "bundle"))
        assert json.loads(proc.stdout)["edges"] == [0]
        assert proc.stderr == ""

class TestTrain:
    def test_artifacts(self, run_dir):
        for name in ("config.json", "history.csv", "metrics.json"):
            assert (run_dir / name).exists(), name
        assert sorted(os.listdir(run_dir / "checkpoint")) == ["model.json", "params.bin"]

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
        for name in ("history.csv", "metrics.json", "checkpoint/model.json", "checkpoint/params.bin"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

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

    @pytest.mark.parametrize("key, value", BAD_CONFIG_VALUES, ids=lambda v: json.dumps(v, separators=(",", ":")))
    def test_bad_config_value_exits_2_naming_key_and_value(self, bundle_dir, tmp_path, capsys, key, value):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({key: value}))
        error = rejected(capsys, "train", bundle_dir, "--out", tmp_path / "run", "--config", path)
        assert error.startswith(f"{key} must ")
        assert error.endswith(f"got {value!r}")

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

    # the run's model (d 4, hidden 8, 1 layer, full variant) has 2032 bytes of parameters
    @pytest.mark.parametrize("change, expected", [({"hidden_dim": 9}, 2352), ({"num_layers": 2}, 4728)],
                             ids=["hidden_dim", "num_layers"])
    def test_checkpoint_at_odds_with_model_json_exits_2_naming_it(self, run_dir, tmp_path, capsys, change,
                                                                     expected):
        run = tmp_path / "run"
        shutil.copytree(run_dir, run)
        sidecar = run / "checkpoint" / "model.json"
        sidecar.write_text(json.dumps(dict(json.loads(sidecar.read_text()), **change)))
        blob = run / "checkpoint" / "params.bin"
        assert rejected(capsys, "eval", run) == f"{blob}: has 2032 bytes, {sidecar} expects {expected}"

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
        result = cli.run_bench([400, 800], d=8, hidden_dim=4, m_attach=4, batch_size=1024, epochs=2, seed=0)
        assert len(result["entries"]) == 2
        assert max_epochs == [1, 2, 1, 2]
        assert outside == [False] * 4

# Each parser default that a library function or class also sets: argv,
# the parsed argument and where the library sets it.
LIBRARY_DEFAULTS = [
    (("synth", "--out", "o"), "d", synth.generate_features, "feature_dim"),
    (("synth", "--out", "o"), "mu_benign", synth.generate_features, "mu_benign"),
    (("synth", "--out", "o"), "mu_fraud", synth.generate_features, "mu_fraud"),
    (("synth", "--out", "o"), "sigma", synth.generate_features, "sigma"),
    (("influence", "r"), "bins", analysis.influence_report, "num_bins"),
    (("ratio-hist", "b"), "bin_width", graph.neighborhood_label_ratio, "bin_width"),
    (("ratio-hist", "b"), "max_ratio", graph.neighborhood_label_ratio, "max_ratio"),
    (("spectral", "b", "--out", "o"), "relation", analysis.spatial_spectral_check, "relation"),
]


class TestTopLevel:
    @pytest.mark.parametrize("argv,dest,fn,name", LIBRARY_DEFAULTS, ids=lambda v: getattr(v, "__name__", v))
    def test_parser_default_is_the_library_default(self, argv, dest, fn, name):
        value = getattr(cli.build_parser().parse_args(argv), dest)
        default = inspect.signature(fn).parameters[name].default
        assert (value, type(value)) == (default, type(default))

    def test_train_layer_count_default_is_the_model_default(self):
        config = cli._resolved_train_config(cli.build_parser().parse_args(["train", "b", "--out", "o"]))
        assert config["num_layers"] == ModelConfig(feature_dim=1, hidden_dim=1).num_layers

    def test_version(self):
        proc = run_cli("--version")
        assert proc.stdout.strip().startswith("pmpfraud ")

    def test_no_subcommand_is_usage_error(self):
        run_cli(expect=2)


def refusal_problems(capsys, case):
    code = main(case.argv)
    captured = capsys.readouterr()
    return refused_inputs.problems(case, code, captured.out, captured.err)


# A warning would print a second line on stderr outside pytest, so it fails the case.
@pytest.mark.filterwarnings("error")
class TestRefusedInputs:
    @pytest.mark.parametrize("row", refused_inputs.SETTINGS, ids=lambda row: row.name)
    def test_refused_setting(self, bundle_dir, run_dir, tmp_path, capsys, monkeypatch, row):
        if row.before_reading:
            def unread(*args):
                raise AssertionError(f"{args} read or built before the settings were checked")

            monkeypatch.setattr(cli.bundle, "load_bundle", unread)
            monkeypatch.setattr(cli.PmpModel, "load", unread)
            monkeypatch.setattr(cli.synth, "generate_ba_graph", unread)
        case = refused_inputs.setting_case(row, str(bundle_dir), str(run_dir), str(tmp_path))
        assert refusal_problems(capsys, case) == []

    @pytest.mark.parametrize("row", refused_inputs.DAMAGED_FILES, ids=lambda row: f"{row.file}-{row.label}")
    def test_damaged_file(self, bundle_dir, run_dir, tmp_path, capsys, row):
        case = refused_inputs.damage_case(row, str(bundle_dir), str(run_dir), str(tmp_path))
        assert refusal_problems(capsys, case) == []

    def test_readme_lists_every_refused_setting(self):
        path = os.path.join(os.path.dirname(_PACKAGE_ROOT), "README.md")
        with open(path) as fh:
            section = fh.read().split("\n### Refused settings\n", 1)[1].split("\n#", 1)[0]
        listed = [line for line in section.splitlines() if line.startswith("- ")]
        table = [row.readme_entry() for row in refused_inputs.SETTINGS]
        assert [e for e in table if e not in listed] == [], "rows the README does not list"
        assert [e for e in listed if e not in table] == [], "README entries that are no row"
        assert listed == table
