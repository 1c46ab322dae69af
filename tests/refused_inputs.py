"""Every input the command line refuses, as two tables.

``SETTINGS`` has one row per bad setting: its argv, the exit code, the
setting and value the error must name, whether the setting is refused
before any input is read, and the paths that must not exist afterwards.
``DAMAGED_FILES`` has one row per damage to a file that a bundle or a run
holds: each such file missing, a directory, empty or cut off mid-row, and
text files also with a wrong column count, a bad value or an out-of-range
id where they have that column. Each case must exit 2 and name the file.

Three things read the tables: ``tests/test_cli.py`` runs every row
through ``cli.main`` in process, a test there checks that the README's
list of refused settings is ``readme_entry`` of every row, and running
this file checks every row against an installed command, each in its own
process:

    python tests/refused_inputs.py BUNDLE RUN [COMMAND ...]

BUNDLE is a bundle written by ``synth --d 4``, RUN a run trained on it,
and COMMAND defaults to ``pmpfraud`` (``python -m pmpfraud`` runs the
package from source). It exits 1 if any row fails. The module uses the
standard library only.
"""
from __future__ import annotations

import json
import os
import shutil
import struct
import subprocess
import sys
import tempfile
from collections.abc import Callable
from dataclasses import dataclass


@dataclass(frozen=True)
class Setting:
    """A bad setting. ``{bundle}``, ``{run}``, ``{out}`` and ``{config}``
    in any field stand for the bundle, a copy of the run, a path that does
    not exist yet and the file ``config`` holds (left missing when
    ``config`` is None)."""

    argv: tuple
    setting: str  # the error names this ...
    value: str  # ... and this
    before_reading: bool = False  # refused before any bundle or checkpoint is read or graph built
    config: str | None = None
    absent: tuple = ("{out}",)  # paths that must not exist afterwards
    code: int = 2

    @property
    def name(self) -> str:
        """The command line as the README shows it, with the config file's text."""
        shown = _fill(" ".join(self.argv), _SHOWN)
        return shown if self.config is None else f"{shown} {self.config}"

    def readme_entry(self) -> str:
        """The README's list entry for this row."""
        shown = f"`{_fill(' '.join(self.argv), _SHOWN)}`"
        if "{config}" in self.argv:
            shown += " with FILE missing" if self.config is None else f" with FILE holding `{self.config}`"
        before = ", before reading its input" if self.before_reading else ""
        return (f"- {shown}: exit {self.code}, naming `{_fill(self.setting, _SHOWN)}` and "
                f"`{_fill(self.value, _SHOWN)}`{before}")


_SHOWN = {"{bundle}": "BUNDLE", "{run}": "RUN", "{out}": "OUT", "{config}": "FILE"}
_INFLUENCE_FILES = ("{run}/influence.csv", "{run}/influence.json")


def _synth(*argv):
    return ("synth", "--n", "50", "--m-attach", "2", *argv, "--out", "{out}")


def _train(*argv):
    return ("train", "{bundle}", "--out", "{out}", *argv)


def _spectral(*argv):
    return ("spectral", "{bundle}", *argv, "--out", "{out}")


def _bench(*argv):
    return ("bench", "--edges", "2000,4000", *argv)


SETTINGS = [
    Setting(("synth", "--n", "0", "--out", "{out}"), "n", "0"),
    Setting(("synth", "--n", "5", "--m-attach", "5", "--out", "{out}"), "m_attach", "5"),
    Setting(_synth("--fraud-fraction", "2"), "fraud_fraction", "2.0"),
    Setting(_synth("--ratios", "a,b,c"), "ratios", "'a,b,c'"),
    Setting(_synth("--ratios", "0.5,0.5"), "ratios", "(0.5, 0.5)"),
    Setting(_synth("--d", "0"), "feature_dim", "0"),
    Setting(_synth("--d", "-1"), "feature_dim", "-1"),
    Setting(_synth("--sigma", "-1"), "sigma", "-1.0"),
    Setting(_synth("--sigma", "nan"), "sigma", "nan"),
    Setting(_synth("--mu-fraud", "inf"), "mu_fraud", "inf"),
    Setting(_synth("--mu-benign=-inf"), "mu_benign", "-inf"),
    Setting(_synth("--seed", "-1"), "seed", "-1"),
    Setting(("validate", "{out}"), "{out}/meta.json", "missing"),
    Setting(_train("--batch-size", "0"), "batch_size", "0", True),
    Setting(_train("--lr", "inf"), "learning_rate", "inf", True),
    Setting(_train("--weight-decay", "inf"), "weight_decay", "inf", True),
    Setting(_train("--pos-weight", "inf"), "pos_weight", "inf", True),
    Setting(_train("--dropout", "1"), "dropout_p", "1.0", True),
    Setting(_train("--hidden-dim", "0"), "hidden_dim", "0", True),
    Setting(_train("--layers", "0"), "num_layers", "0", True),
    Setting(_train("--config", "{config}"), "hidden_dim", "0", True, '{"hidden_dim": 0}'),
    Setting(_train("--config", "{config}"), "num_layers", "-2", True, '{"num_layers": -2}'),
    Setting(_train("--config", "{config}"), "{config}", "unknown key 'lr'", True, '{"max_epochs": 1, "lr": 0.5}'),
    Setting(_train("--config", "{config}"), "{config}", "unknown key 'dropout'", True, '{"dropout": 0.5}'),
    Setting(_train("--config", "{config}"), "{config}", "unknown key 'selection_metric'", True,
            '{"selection_metric": "auc"}'),
    Setting(_train("--config", "{config}"), "{config}", "unknown key 'bundle'", True, '{"bundle": "elsewhere"}'),
    Setting(_train("--config", "{config}"), "{config}", "missing", True),
    Setting(_train("--config", "{config}"), "{config}", "cannot read JSON", True, '{"max_epochs": 2,'),
    Setting(_train("--config", "{config}"), "{config}", "expected a JSON object", True, '[{"max_epochs": 2}]'),
    Setting(("eval", "{out}"), "{out}/config.json", "missing"),
    Setting(("influence", "{run}", "--bins", "0"), "num_bins", "0", True, absent=_INFLUENCE_FILES),
    Setting(("influence", "{run}", "--bins", "-3"), "num_bins", "-3", True, absent=_INFLUENCE_FILES),
    Setting(("influence", "{run}", "--split", "bogus"), "split", "'bogus'", True, absent=_INFLUENCE_FILES),
    Setting(_spectral("--signal-dim", "0"), "signal_dim", "0", True),
    Setting(_spectral("--signal-dim", "-1"), "signal_dim", "-1", True),
    Setting(_spectral("--max-dense-n", "0"), "max_dense_n", "0", True),
    Setting(_spectral("--max-dense-n", "-1"), "max_dense_n", "-1", True),
    Setting(_spectral("--alpha", "1.5"), "alpha", "1.5", True),
    Setting(_spectral("--alpha", "-0.5"), "alpha", "-0.5", True),
    Setting(_spectral("--alpha", "nan"), "alpha", "nan", True),
    Setting(_spectral("--seed", "-1"), "seed", "-1", True),
    Setting(_spectral("--relation", "3"), "relation index", "3"),
    Setting(_spectral("--max-dense-n", "10"), "capped at", "10 nodes", code=4),
    Setting(("ratio-hist", "{bundle}", "--bin-width", "0"), "bin_width", "0.0", True),
    Setting(("ratio-hist", "{bundle}", "--bin-width", "-0.1"), "bin_width", "-0.1", True),
    Setting(("ratio-hist", "{bundle}", "--relation", "foo"), "relation", "'foo'"),
    Setting(("ratio-hist", "{bundle}", "--max-ratio", "10", "--bin-width", "1e-5", "--out", "{out}"),
            "max_ratio / bin_width", "max_ratio 10.0 and bin_width 1e-05", True),
    Setting(("ratio-hist", "{bundle}", "--max-ratio", "1e300", "--bin-width", "1e-300", "--out", "{out}"),
            "max_ratio / bin_width", "max_ratio 1e+300 and bin_width 1e-300", True),
    Setting(("bench", "--edges", "a,b"), "edges", "'a,b'", True),
    Setting(("bench", "--edges", "400", "--epochs", "0"), "epochs", "0", True),
    Setting(("bench", "--edges", "400"), "edge targets", "[400]", True),
    Setting(("bench", "--edges", "400,400"), "edge targets", "[400, 400]", True),
    Setting(("bench", "--edges", "400,401"), "edge targets", "[400, 401]", True),
    Setting(("bench", "--edges", "inf,4000"), "edge target", "inf", True),
    Setting(_bench("--m-attach", "0"), "m_attach", "0", True),
    Setting(_bench("--m-attach", "-2"), "m_attach", "-2", True),
    Setting(_bench("--batch-size", "0"), "batch_size", "0", True),
    Setting(_bench("--d", "0"), "feature_dim", "0", True),
    Setting(_bench("--hidden-dim", "0"), "hidden_dim", "0", True),
]


@dataclass(frozen=True)
class Damage:
    """One damage to one file. ``file`` is a path in the bundle, or in the
    run when it is ``config.json`` or under ``checkpoint/``; ``how``
    changes the file in place, and the error must name the file and
    contain ``says``."""

    file: str
    label: str
    how: Callable[[str], None]
    says: str

    @property
    def in_run(self) -> bool:
        return self.file == "config.json" or self.file.startswith("checkpoint/")


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _write(path, data: bytes):
    with open(path, "wb") as fh:
        fh.write(data)


def _missing(path):
    os.remove(path)


def _directory(path):
    os.remove(path)
    os.mkdir(path)


def _empty(path):
    _write(path, b"")


def _truncated(path):
    """Cut a text file after the first comma of its middle line, a binary
    one at an odd byte count, inside a value."""
    data = _read(path)
    if path.endswith((".bin", ".f32")):
        _write(path, data[: len(data) // 2 | 1])
    else:
        start = data.rfind(b"\n", 0, len(data) // 2) + 1
        _write(path, data[: data.index(b",", start) + 1])


def _lines(edit):
    def how(path):
        lines = _read(path).decode().splitlines()
        _write(path, ("\n".join(edit(lines)) + "\n").encode())

    return how


def _field(column, text):
    """Set one field of the second line, a data row of every CSV."""

    def edit(lines):
        fields = lines[1].split(",")
        fields[column] = text
        return [lines[0], ",".join(fields), *lines[2:]]

    return _lines(edit)


def _out_of_range_id(path):
    """Set the first id of a data row to the node count."""
    with open(os.path.join(os.path.dirname(path), "meta.json")) as fh:
        _field(0, str(json.load(fh)["num_nodes"]))(path)


def _set_json(*keys_and_value):
    *keys, value = keys_and_value

    def how(path):
        with open(path) as fh:
            doc = json.load(fh)
        target = doc
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        _write(path, json.dumps(doc).encode())

    return how


def _bit_flip(path):
    data = bytearray(_read(path))
    data[len(data) // 2] ^= 1
    _write(path, bytes(data))


_extra_column = _lines(lambda lines: [line + ",0" for line in lines])
_first_line_only = _lines(lambda lines: lines[:1])
_not_an_object = _lines(lambda lines: ["[]"])
_blank = _lines(lambda lines: ["", ""])


def _damages(file, *rows):
    return [Damage(file, label, how, says) for label, how, says in rows]


def _json_file(file, *rows):
    return _damages(
        file,
        ("missing", _missing, "file is missing"),
        ("a directory", _directory, "cannot read JSON"),
        ("empty", _empty, "cannot read JSON"),
        ("truncated", _truncated, "cannot read JSON"),
        ("not an object", _not_an_object, "expected a JSON object"),
        *rows,
    )


def _node_csv(file, *rows):
    return _damages(
        file,
        ("missing", _missing, "missing file"),
        ("a directory", _directory, "cannot read"),
        ("empty", _empty, "expected a header line"),
        ("header only", _first_line_only, "rows, got 0"),
        ("truncated", _truncated, "could not convert string ''"),
        ("extra column", _extra_column, "expected 2 columns, got 3"),
        ("non-integer id", _field(0, "x7"), "'x7'"),
        ("out-of-range id", _out_of_range_id, "node column must cover"),
        *rows,
    )


DAMAGED_FILES = [
    *_json_file(
        "meta.json",
        ("num_nodes 199.5", _set_json("num_nodes", 199.5), "num_nodes must be a positive integer"),
        ('num_nodes "30"', _set_json("num_nodes", "30"), "num_nodes must be a positive integer"),
    ),
    *_damages(
        "edges_r0.csv",
        ("missing", _missing, "missing file"),
        ("a directory", _directory, "cannot read"),
        ("empty", _empty, "expected a header line"),
        ("truncated", _truncated, "could not convert string ''"),
        ("extra column", _extra_column, "expected 2 columns, got 3"),
        ("non-integer id", _field(0, "x7"), "'x7'"),
        ("out-of-range id", _out_of_range_id, "node index out of range"),
    ),
    *_damages(
        "features.csv",
        ("missing", _missing, "missing file"),
        ("a directory", _directory, "cannot read"),
        ("empty", _empty, "rows, got 0"),
        ("blank", _blank, "rows, got 0"),
        ("first row only", _first_line_only, "rows, got 1"),
        ("truncated", _truncated, "number of columns changed"),
        ("extra column", _extra_column, "expected 4 columns, got 5"),
        ("non-number", _field(0, "x7"), "'x7'"),
        ("nan", _field(0, "nan"), "non-finite feature value"),
    ),
    *_damages(
        "features.f32",
        ("missing", _missing, "missing file"),
        ("a directory", _directory, "cannot read"),
        ("empty", _empty, "values, got 0"),
        ("truncated", _truncated, "row-count mismatch"),
    ),
    *_node_csv("labels.csv", ("label 2", _field(1, "2"), "label outside {0, 1}")),
    *_node_csv("splits.csv", ("split bogus", _field(1, "bogus"), "unknown split 'bogus'")),
    *_json_file(
        "config.json",
        ("no resolved object", _lines(lambda lines: ["{}"]), 'expected a "resolved" object'),
        ("seed 1.5", _set_json("resolved", "seed", 1.5), "seed must be a non-negative integer"),
    ),
    *_damages(
        "checkpoint/params.bin",
        ("missing", _missing, "file is missing"),
        ("a directory", _directory, "cannot read"),
        ("empty", _empty, "has 0 bytes"),
        ("truncated", _truncated, "manifest expects"),
        ("one bit flipped", _bit_flip, "sha256"),
    ),
    *_json_file(
        "checkpoint/manifest.json",
        ("shape 4.5", _set_json("params", 0, "shape", [4.5, 8]), "malformed checkpoint manifest"),
    ),
    *_json_file(
        "checkpoint/model.json",
        ("hidden_dim 8.5", _set_json("hidden_dim", 8.5), "malformed model config"),
        ('partition_enabled "false"', _set_json("variant", "partition_enabled", "false"), "malformed model config"),
    ),
]


def _fill(text: str, paths: dict) -> str:
    for key, path in paths.items():
        text = text.replace(key, str(path))
    return text


@dataclass(frozen=True)
class Case:
    """A row made ready to run in a scratch directory: the argv, the exit
    code, what the error must contain and the paths that must stay absent."""

    argv: list
    code: int
    names: tuple
    absent: tuple = ()


def setting_case(row: Setting, bundle, run, scratch) -> Case:
    """``row`` with its placeholders filled in: ``{out}`` and ``{config}``
    are paths in ``scratch``, which gets the row's config file and, if the
    row names it, a copy of ``run`` without the row's absent paths."""
    paths = {"{bundle}": bundle, "{run}": run, "{out}": os.path.join(scratch, "out"),
             "{config}": os.path.join(scratch, "config.json")}
    if "{run}" in row.argv:
        paths["{run}"] = os.path.join(scratch, "run")
        shutil.copytree(run, paths["{run}"])
    if row.config is not None:
        _write(paths["{config}"], row.config.encode())
    absent = tuple(_fill(path, paths) for path in row.absent)
    for path in absent:
        if os.path.isfile(path):
            os.remove(path)  # left by an earlier command on the run
    return Case([_fill(a, paths) for a in row.argv], row.code, (_fill(row.setting, paths), _fill(row.value, paths)),
                absent)


def _to_f32(bundle):
    """Replace the bundle's features.csv with the same values as features.f32."""
    csv_path = os.path.join(bundle, "features.csv")
    with open(csv_path) as fh:
        values = [float(v) for line in fh if line.strip() for v in line.split(",")]
    _write(os.path.join(bundle, "features.f32"), struct.pack(f"<{len(values)}f", *values))
    os.remove(csv_path)


def damage_case(row: Damage, bundle, run, scratch) -> Case:
    """A copy of the bundle or run in ``scratch`` with ``row``'s damage
    done, and the command that reads it back: ``eval`` for a run,
    ``validate`` for a bundle."""
    root = os.path.join(scratch, "run" if row.in_run else "bundle")
    shutil.copytree(run if row.in_run else bundle, root)
    if row.file == "features.f32":
        _to_f32(root)
    path = os.path.join(root, row.file)
    row.how(path)
    return Case(["eval" if row.in_run else "validate", root], 2, (path, row.says))


def problems(case: Case, code: int, stdout: str, stderr: str) -> list:
    """What is wrong with an outcome of ``case``; empty when it is refused
    as it must be: its exit code, no output, one JSON line on stderr whose
    error contains every name, and no absent path made."""
    found = []
    if code != case.code:
        found.append(f"exit {code}, expected {case.code}")
    if stdout:
        found.append(f"stdout {stdout!r}")
    lines = stderr.splitlines()
    try:
        error = json.loads(lines[-1])["error"] if len(lines) == 1 else None
    except (ValueError, KeyError, TypeError):
        error = None
    if error is None:
        found.append(f"stderr is not one JSON error line: {stderr!r}")
    else:
        found += [f"error {error!r} does not name {name!r}" for name in case.names if name not in error]
    found += [f"{path} exists" for path in case.absent if os.path.exists(path)]
    return found


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) < 2:
        sys.stderr.write(__doc__)
        return 2
    bundle, run = (os.path.abspath(a) for a in args[:2])
    command = args[2:] or ["pmpfraud"]
    cases = [(row.name, setting_case, row) for row in SETTINGS]
    cases += [(f"{row.file}: {row.label}", damage_case, row) for row in DAMAGED_FILES]
    failed = 0
    with tempfile.TemporaryDirectory() as base:
        for i, (name, make, row) in enumerate(cases):
            scratch = os.path.join(base, str(i))
            os.mkdir(scratch)
            case = make(row, bundle, run, scratch)
            proc = subprocess.run([*command, *case.argv], capture_output=True, text=True, timeout=600)
            found = problems(case, proc.returncode, proc.stdout, proc.stderr)
            failed += bool(found)
            print(f"{'FAIL' if found else 'ok'}  {name}" + "".join(f"\n      {p}" for p in found))
    print(f"{len(cases) - failed} of {len(cases)} refused inputs refused as expected")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
