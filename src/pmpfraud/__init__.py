"""Label-partitioned message passing for graph fraud detection.

Importing the package fixes glibc's malloc thresholds before any submodule
runs, so the arrays a training batch or a scoring pass frees stay in the
heap for the next one.
"""
import ctypes

__version__ = "0.1.0"

# glibc mallopt parameters (malloc.h).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_arrays():
    """Fix glibc's malloc thresholds so freed arrays stay in the heap.

    By default glibc serves large blocks with their own mmap, raises that
    threshold and the heap's trim threshold as such blocks are freed, and
    hands the heap's free top back to the OS once it passes the latter.
    Which of a batch's or a scoring pass's temporaries go back then depends
    on everything the process allocated before, and every page handed back
    faults in again when the next batch or pass touches it: on the
    benchmark's deep-ba graphs a whole-graph scoring pass took anywhere from
    0 to about 4,100 minor faults, differing from one process to the next.
    With blocks under 32 MiB always taken from the heap and up to 256 MiB
    of its free top kept, a pass takes a few dozen and a training run a few
    hundred, every time. Other C libraries are left as they are.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 256 << 20)


_keep_freed_arrays()

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
