"""Label-partitioned message passing for graph fraud detection."""

__version__ = "0.1.0"

from .graph import (
    NodeTable,
    PartitionIndex,
    RelationalGraph,
    homophily_score,
    neighborhood_label_ratio,
)
from .bundle import BundleError, load_bundle, write_bundle
from .layer import LayerVariant, PmpLayerParams
from .model import ModelConfig, PmpModel, loss, model_forward, model_logits
from .synth import generate_ba_graph, generate_features, make_splits
from .training import Adam, History, TrainConfig, TrainingDiverged, evaluate, train

__all__ = [
    "__version__",
    "NodeTable",
    "PartitionIndex",
    "RelationalGraph",
    "homophily_score",
    "neighborhood_label_ratio",
    "BundleError",
    "load_bundle",
    "write_bundle",
    "LayerVariant",
    "PmpLayerParams",
    "ModelConfig",
    "PmpModel",
    "loss",
    "model_forward",
    "model_logits",
    "generate_ba_graph",
    "generate_features",
    "make_splits",
    "Adam",
    "History",
    "TrainConfig",
    "TrainingDiverged",
    "evaluate",
    "train",
]
