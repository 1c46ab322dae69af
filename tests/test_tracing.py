"""The benchmark's tracer (perfbench/tracing.py) still installs over the
package: it wraps public functions by name when it enters, so a rename
under src/ would make every traced benchmark run fail."""
import importlib.util
import os

import numpy as np

from pmpfraud.graph import NodeTable
from pmpfraud.model import ModelConfig, PmpModel
from pmpfraud.synth import generate_ba_graph, generate_features, make_splits
from pmpfraud.training import TrainConfig, train

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "tracing.py")

# Targets the tracer names that the package no longer has; none may join them.
KNOWN_MISSING = {f"pmpfraud.ndiff.{op}" for op in (
    "matmul", "add", "sub", "mul", "add_rowvec", "row_scale", "affine", "relu", "segment_sum", "concat", "mean",
    "reshape")} | {"PartitionIndex.bucket_segments", "pmpfraud.layer.aggregate_segments", "pmpfraud.layer.alpha_gate"}


def _tracer_class():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def _trained(num_relations=2):
    g, labels = generate_ba_graph(80, 2, 0.3, seed=30)
    if num_relations == 2:
        from pmpfraud.graph import RelationalGraph

        g2, _ = generate_ba_graph(80, 1, 0.3, seed=31)
        g = RelationalGraph(g.num_nodes, g.row_offsets + g2.row_offsets, g.col_indices + g2.col_indices)
    x = generate_features(labels, feature_dim=4, seed=32)
    table = NodeTable(x, labels, make_splits(80, (0.5, 0.25, 0.25), seed=33, stratify_labels=labels))
    model = PmpModel(ModelConfig(feature_dim=4, hidden_dim=5, num_layers=2, num_relations=num_relations), seed=34)
    _, history = train(model, g, table, TrainConfig(batch_size=16, max_epochs=2, patience=2, dropout_p=0.2, seed=35))
    return model.flat.tobytes(), history.entries


def test_tracer_installs_and_leaves_training_bitwise_unchanged():
    Tracer = _tracer_class()
    untraced = _trained()
    with Tracer() as tracer:
        traced = _trained()
    assert set(tracer.missing) <= KNOWN_MISSING, sorted(set(tracer.missing) - KNOWN_MISSING)
    assert traced == untraced
    metrics = tracer.metrics()
    assert metrics["training.adam_steps"] == 2 * 3
    assert metrics["ndiff.bwd.binary_cross_entropy_calls"] == 2 * 3
    assert metrics["layer.layer_forward_calls"] > 0 and metrics["ndiff.fwd.gather_rows_calls"] > 0
    assert _trained() == untraced  # leaving the block restored every original
