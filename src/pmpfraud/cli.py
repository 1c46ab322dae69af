"""Command line entry points.

One subcommand per process; outputs are machine-readable JSON/CSV files
in a run directory, each stamped with the resolved config hash, the seed,
and the code version. Exit codes: 0 success, 2 validation failure,
3 numeric failure, 4 resource cap exceeded.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import numbers
import os
import sys
import time
from dataclasses import fields

import numpy as np

from . import __version__, analysis, bundle, graph as graph_mod, synth
from . import ndiff as nd
from .layer import LayerVariant
from .model import ModelConfig, PmpModel, check_sizes
from .training import TrainConfig, TrainingDiverged, evaluate, train

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3
EXIT_RESOURCE = 4


def _config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _stamp(config: dict, seed: int) -> dict:
    return {"config_hash": _config_hash(config), "seed": seed, "version": __version__}


def _meta_line(config: dict, seed: int) -> str:
    s = _stamp(config, seed)
    return f"config_hash={s['config_hash']} seed={s['seed']} version={s['version']}"


def _args_config(args) -> dict:
    """Every parsed argument of a subcommand: what its stamp hashes."""
    return {k: v for k, v in vars(args).items() if k != "func"}


def _write_json(path: str, payload: dict):
    nd.write_file_atomic(path, (json.dumps(payload, indent=2) + "\n").encode())


def _floats(name: str, text: str) -> tuple:
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"{name} must be comma-separated numbers, got {text!r}") from None


def _ablated_by_args(args) -> dict:
    """The variant fields the ablation flags switch off: ``--no-partition``
    all three, each other flag its own."""
    off = {
        "partition_enabled": args.no_partition,
        "adaptive_combination_enabled": args.no_partition or args.no_adaptive_combination,
        "root_specific_enabled": args.no_partition or args.no_root_specific,
    }
    return {name: False for name, flag in off.items() if flag}


def cmd_validate(args) -> int:
    g, table = bundle.load_bundle(args.bundle)
    summary = {
        "num_nodes": g.num_nodes,
        "num_relations": g.num_relations,
        "feature_dim": table.feature_dim,
        "edges": [g.num_edges(r) for r in range(g.num_relations)],
        "fraud_nodes": int((table.labels == 1).sum()),
        "split_sizes": {name: int(table.split_ids(name).size) for name in graph_mod.SPLIT_NAMES},
    }
    print(json.dumps(summary, indent=2))
    return EXIT_OK


def cmd_synth(args) -> int:
    g, labels = synth.generate_ba_graph(args.n, args.m_attach, args.fraud_fraction, args.seed)
    features = synth.generate_features(
        labels, args.d, args.mu_benign, args.mu_fraud, args.sigma, seed=args.seed + 1
    )
    splits = synth.make_splits(args.n, _floats("ratios", args.ratios), seed=args.seed + 2, stratify_labels=labels)
    table = graph_mod.NodeTable(features, labels, splits)
    bundle.write_bundle(args.out, g, table, features_format=args.features_format)
    config = _args_config(args)
    _write_json(os.path.join(args.out, "synth.json"), {**_stamp(config, args.seed), "params": config})
    print(f"wrote bundle with {g.num_nodes} nodes, {g.num_edges(0)} edges to {args.out}")
    return EXIT_OK


def _resolved_train_config(args) -> dict:
    """Defaults, then the ``--config`` file, then every flag given. The file may
    set ``variant`` and the settings: ``TrainConfig``'s fields and the model sizes."""
    settings = {**TrainConfig().to_dict(), "hidden_dim": 64, "num_layers": 1}
    config = {"bundle": os.path.abspath(args.bundle), **settings, "variant": LayerVariant().to_dict()}
    if args.config:
        file_config = nd.read_json_object(args.config)
        for key in file_config:
            if key not in settings and key != "variant":
                raise ValueError(f"{args.config}: unknown key {key!r}")
        config.update(file_config)
    LayerVariant.from_dict(config["variant"])  # checked as given, so config.json keeps its key order
    config.update({key: getattr(args, key) for key in settings if getattr(args, key) is not None})
    config["variant"] = {**config["variant"], **_ablated_by_args(args)}
    return config


def cmd_train(args) -> int:
    config = _resolved_train_config(args)
    train_config = TrainConfig(**{f.name: config[f.name] for f in fields(TrainConfig)})
    check_sizes(hidden_dim=config["hidden_dim"], num_layers=config["num_layers"])
    g, table = bundle.load_bundle(config["bundle"])
    model_config = ModelConfig(
        feature_dim=table.feature_dim,
        hidden_dim=config["hidden_dim"],
        num_layers=config["num_layers"],
        num_relations=g.num_relations,
        variant=LayerVariant.from_dict(config["variant"]),
    )
    os.makedirs(args.out, exist_ok=True)
    model = PmpModel(model_config, seed=train_config.seed)
    model, history = train(model, g, table, train_config)
    stamp = _stamp(config, train_config.seed)
    _write_json(os.path.join(args.out, "config.json"), {**stamp, "resolved": config})
    history.to_csv(os.path.join(args.out, "history.csv"), meta_line=_meta_line(config, train_config.seed))
    model.save(os.path.join(args.out, "checkpoint"))
    report = evaluate(model, g, table, "test", seed=train_config.seed)
    _write_json(os.path.join(args.out, "metrics.json"), {**stamp, **report.to_dict()})
    best = history.best_val_auc
    print(f"best val AUC {best:.4f} at epoch {history.best_epoch}; test AUC {report.auc:.4f}")
    print(f"run artifacts in {args.out}")
    return EXIT_OK


def _load_run(run_dir: str):
    config_path = os.path.join(run_dir, "config.json")
    config = nd.read_json_object(config_path).get("resolved")
    if not isinstance(config, dict) or not isinstance(config.get("bundle"), str):
        raise ValueError(f'{config_path}: expected a "resolved" object naming the "bundle"')
    nd.check_setting(f"{config_path}: seed", config.get("seed"), numbers.Integral, lambda v: v >= 0,
                     "a non-negative integer")
    g, table = bundle.load_bundle(config["bundle"])
    checkpoint = os.path.join(run_dir, "checkpoint")
    model = PmpModel.load(checkpoint)
    cfg = model.config
    if (table.feature_dim, g.num_relations) != (cfg.feature_dim, cfg.num_relations):
        raise ValueError(
            f"bundle {config['bundle']} has feature_dim {table.feature_dim} and {g.num_relations} relation(s), "
            f"but checkpoint {checkpoint} expects feature_dim {cfg.feature_dim} and {cfg.num_relations} relation(s)"
        )
    return config, g, table, model


def cmd_eval(args) -> int:
    config, g, table, model = _load_run(args.run)
    report = evaluate(model, g, table, args.split, seed=config["seed"])
    payload = {**_stamp(config, config["seed"]), **report.to_dict()}
    out_path = os.path.join(args.run, f"metrics-{args.split}.json")
    _write_json(out_path, payload)
    print(json.dumps(payload, indent=2))
    return EXIT_OK


def cmd_influence(args) -> int:
    analysis.check_influence_settings(args.split, args.bins)
    config, g, table, model = _load_run(args.run)
    report = analysis.influence_report(model, g, table, split=args.split, num_bins=args.bins)
    meta = _meta_line(config, config["seed"])
    report.to_csv(os.path.join(args.run, "influence.csv"), meta_line=meta)
    payload = {
        **_stamp(config, config["seed"]),
        "split": report.split,
        "reduction": report.reduction,
        "mean_diff": report.mean_diff(),
        "bin_edges": report.bin_edges.tolist(),
        "bin_counts": report.bin_counts.tolist(),
    }
    _write_json(os.path.join(args.run, "influence.json"), payload)
    print(f"mean(I_f - I_b) over {len(report.rows)} fraud nodes: {report.mean_diff():.6g}")
    return EXIT_OK


def cmd_spectral(args) -> int:
    for name in ("signal_dim", "max_dense_n"):
        nd.check_setting(name, getattr(args, name), numbers.Integral, lambda v: v >= 1, "a positive integer")
    analysis.check_alpha(args.alpha)
    nd.check_setting("seed", args.seed, numbers.Integral, lambda v: v >= 0, "a non-negative integer")
    g, table = bundle.load_bundle(args.bundle)
    d = table.feature_dim
    rng = np.random.default_rng(args.seed)
    X = rng.normal(size=(g.num_nodes, d))
    W_fr = rng.normal(size=(d, args.signal_dim))
    W_be = rng.normal(size=(d, args.signal_dim))
    partition = graph_mod.PartitionIndex.from_table(g, table)
    report = analysis.spatial_spectral_check(g, partition, X, W_fr, W_be, args.alpha, relation=args.relation,
                                             cap=args.max_dense_n)
    config = _args_config(args)
    os.makedirs(args.out, exist_ok=True)
    report.to_csv(os.path.join(args.out, "spectral.csv"), meta_line=_meta_line(config, args.seed))
    payload = {
        **_stamp(config, args.seed),
        "alpha": report.alpha,
        "spatial_identity_error": report.spatial_identity_error,
        "reconstruction_error": report.reconstruction_error,
        "eigenvalue_range": [float(report.eigenvalues.min()), float(report.eigenvalues.max())],
    }
    _write_json(os.path.join(args.out, "spectral.json"), payload)
    print(json.dumps(payload, indent=2))
    return EXIT_OK


def cmd_homophily(args) -> int:
    g, table = bundle.load_bundle(args.bundle)
    scores = {f"relation_{r}": graph_mod.homophily_score(g, table.labels, r) for r in range(g.num_relations)}
    scores["union"] = graph_mod.homophily_score(g, table.labels, "union")
    payload = {**_stamp(_args_config(args), -1), "homophily": scores}
    print(json.dumps(payload, indent=2))
    if args.out:
        _write_json(args.out, payload)
    return EXIT_OK


def cmd_ratio_hist(args) -> int:
    graph_mod.ratio_bin_count(args.bin_width, args.max_ratio)
    g, table = bundle.load_bundle(args.bundle)
    partition = graph_mod.PartitionIndex.from_table(g, table)
    hist = graph_mod.neighborhood_label_ratio(g, partition, args.relation, bin_width=args.bin_width,
                                              max_ratio=args.max_ratio)
    lines = [f"# {_meta_line(_args_config(args), -1)}", "ratio_lo,ratio_hi,node_count"]
    for lo, hi, count in hist.rows():
        lines.append(f"{lo},{hi},{count}")
    text = "\n".join(lines) + "\n"
    if args.out:
        nd.write_file_atomic(args.out, text.encode())
    print(text, end="")
    return EXIT_OK


def run_bench(edge_targets, *, d: int, hidden_dim: int, m_attach: int, batch_size: int, epochs: int,
              seed: int) -> dict:
    """Measure per-epoch train time against edge count and fit a line.

    Node count grows proportionally with edges (fixed attachment m), so a
    near-linear fit indicates per-epoch cost O(edges) at fixed dims. Each
    graph trains through ``train``: a 1-epoch warm-up call, then one call of
    ``epochs`` epochs, timed and reported per epoch. The graphs have no
    validation split, so ``train`` scores nothing between epochs.

    Every setting is checked before the first graph is built: a bad one
    raises ValueError naming it. The ``bench`` parser holds the defaults.
    """
    if epochs < 1:
        raise ValueError(f"epochs must be at least 1, got {epochs}")
    nd.check_setting("m_attach", m_attach, numbers.Integral, lambda v: v >= 1, "a positive integer")
    for target in edge_targets:
        nd.check_setting("edge target", target, numbers.Real, lambda v: math.isfinite(v) and v >= 0,
                         "a finite, non-negative number")
    edge_targets = [int(target) for target in edge_targets]
    model_config = ModelConfig(feature_dim=d, hidden_dim=hidden_dim, num_relations=1)
    warm_up = TrainConfig(batch_size=batch_size, max_epochs=1, seed=seed)
    timed = TrainConfig(batch_size=batch_size, max_epochs=epochs, seed=seed)
    nodes = [max(int(round(target / m_attach)) + m_attach, m_attach + 2) for target in edge_targets]
    if len(set(nodes)) < 2:
        raise ValueError(f"fitting a line needs edge targets of two or more graph sizes, got {edge_targets}")
    entries = []
    for target, n in zip(edge_targets, nodes):
        g, labels = synth.generate_ba_graph(n, m_attach, 0.1, seed)
        features = synth.generate_features(labels, d, seed=seed + 1)
        splits = synth.make_splits(n, (0.6, 0.0, 0.4), seed=seed + 2, stratify_labels=labels)
        table = graph_mod.NodeTable(features, labels, splits)
        model = PmpModel(model_config, seed=seed)
        train(model, g, table, warm_up)
        start_time = time.perf_counter()
        train(model, g, table, timed)
        entries.append({
            "edges_target": target,
            "edges": g.num_edges(0),
            "nodes": n,
            "seconds_per_epoch": (time.perf_counter() - start_time) / epochs,
        })
    x = np.array([e["edges"] for e in entries], dtype=np.float64)
    y = np.array([e["seconds_per_epoch"] for e in entries], dtype=np.float64)
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(((y - fitted) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return {
        "entries": entries,
        "slope": float(slope),
        "intercept": float(intercept),
        "r_squared": float(r_squared),
    }


def cmd_bench(args) -> int:
    result = run_bench(_floats("edges", args.edges), d=args.d, hidden_dim=args.hidden_dim,
                       m_attach=args.m_attach, batch_size=args.batch_size, epochs=args.epochs, seed=args.seed)
    payload = {**_stamp(_args_config(args), args.seed), **result}
    print(json.dumps(payload, indent=2))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _write_json(os.path.join(args.out, "bench.json"), payload)
    return EXIT_OK


def _add_ablation_flags(p: argparse.ArgumentParser):
    p.add_argument("--no-partition", action="store_true", help="single shared weight over all neighbors")
    p.add_argument("--no-adaptive-combination", action="store_true",
                   help="independent shared matrix for the unlabeled bucket")
    p.add_argument("--no-root-specific", action="store_true", help="shared labeled matrices")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pmpfraud",
                                     description="Label-partitioned message passing for graph fraud detection")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a bundle directory and print a summary")
    p.add_argument("bundle")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("synth", help="generate a synthetic bundle")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, default=500)
    p.add_argument("--m-attach", type=int, default=5)
    p.add_argument("--fraud-fraction", type=float, default=0.1)
    p.add_argument("--d", type=int, default=8)
    p.add_argument("--mu-benign", type=float, default=1.0)
    p.add_argument("--mu-fraud", type=float, default=5.0)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--ratios", default="0.4,0.2,0.4")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--features-format", choices=("csv", "f32"), default="csv")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a model on a bundle")
    p.add_argument("bundle")
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="JSON file with training settings")
    p.add_argument("--lr", dest="learning_rate", type=float)
    p.add_argument("--weight-decay", type=float)
    p.add_argument("--dropout", dest="dropout_p", type=float)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--max-epochs", type=int)
    p.add_argument("--patience", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--hidden-dim", type=int)
    p.add_argument("--layers", dest="num_layers", type=int)
    p.add_argument("--pos-weight", type=float)
    _add_ablation_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a saved run on one split")
    p.add_argument("run")
    p.add_argument("--split", choices=graph_mod.SPLIT_NAMES, default="test")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("influence", help="neighbor-class sensitivity of a saved run")
    p.add_argument("run")
    p.add_argument("--split", default=None)
    p.add_argument("--bins", type=int, default=30)
    p.set_defaults(func=cmd_influence)

    p = sub.add_parser("spectral", help="mask identity and filter responses")
    p.add_argument("bundle")
    p.add_argument("--signal-dim", type=int, default=4)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--relation", type=int, default=0)
    p.add_argument("--max-dense-n", type=int, default=analysis.DEFAULT_DENSE_CAP)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_spectral)

    p = sub.add_parser("homophily", help="label homophily per relation and union")
    p.add_argument("bundle")
    p.add_argument("--out")
    p.set_defaults(func=cmd_homophily)

    p = sub.add_parser("ratio-hist", help="labeled-neighbor ratio histogram")
    p.add_argument("bundle")
    p.add_argument("--relation", default="union")
    p.add_argument("--bin-width", type=float, default=0.1)
    p.add_argument("--max-ratio", type=float, default=2.0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_ratio_hist)

    p = sub.add_parser("bench", help="per-epoch time scaling against edge count")
    p.add_argument("--edges", default="1e4,1e5,1e6")
    p.add_argument("--d", type=int, default=8)
    p.add_argument("--hidden-dim", type=int, default=16)
    p.add_argument("--m-attach", type=int, default=10)
    p.add_argument("--batch-size", type=int, default=1024)
    p.add_argument("--epochs", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_bench)

    return parser


def _fail(code: int, kind: str, err: Exception) -> int:
    sys.stderr.write(json.dumps({"error": str(err), "kind": kind, "code": code}) + "\n")
    return code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (bundle.BundleError, ValueError) as err:
        return _fail(EXIT_VALIDATION, type(err).__name__, err)
    except (TrainingDiverged, nd.NonFiniteError) as err:
        return _fail(EXIT_NUMERIC, type(err).__name__, err)
    except analysis.DenseCapExceeded as err:
        return _fail(EXIT_RESOURCE, type(err).__name__, err)


if __name__ == "__main__":
    raise SystemExit(main())
