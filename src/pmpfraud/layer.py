"""One label-partitioned message passing layer.

Neighbors are split into fraud / benign / unlabeled buckets (by training
labels) and each bucket is aggregated by sum under its own linear map.
Two refinements, each individually switchable:

  adaptive combination   the unlabeled bucket's map is a per-center convex
                         blend alpha * W_fr + (1 - alpha) * W_be, with
                         alpha = sigmoid(w_phi . h_i + b_phi) computed from
                         the center's own representation;
  root-specific weights  the labeled maps are generated per center as
                         diag(h_i) @ M + B.

The root-specific path is computed in fused form,

    S @ (diag(h) @ M + B) = (S * h) @ M + S @ B,

so no per-center weight matrix is ever materialized. A center's own label
plays no role in its forward pass; only its neighbors' buckets do.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import ndiff as nd
from .graph import BucketSegments

__all__ = [
    "LayerVariant",
    "PmpLayerParams",
    "alpha_gate",
    "aggregate_segments",
    "layer_forward",
]


@dataclass(frozen=True)
class LayerVariant:
    """Feature switches; the refinements require partitioning itself."""

    partition_enabled: bool = True
    adaptive_combination_enabled: bool = True
    root_specific_enabled: bool = True

    def __post_init__(self):
        if self.adaptive_combination_enabled and not self.partition_enabled:
            raise ValueError("adaptive combination requires partitioning")
        if self.root_specific_enabled and not self.partition_enabled:
            raise ValueError("root-specific weights require partitioning")

    @classmethod
    def full(cls) -> "LayerVariant":
        return cls(True, True, True)

    @classmethod
    def baseline(cls) -> "LayerVariant":
        """Single shared weight matrix over all neighbors."""
        return cls(False, False, False)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "LayerVariant":
        return cls(
            bool(d["partition_enabled"]),
            bool(d["adaptive_combination_enabled"]),
            bool(d["root_specific_enabled"]),
        )


class PmpLayerParams:
    """Parameter block for one layer.

    W_self/b_self       shared self transformation
    M_fr, B_fr          fraud-bucket generator (weight when not root-specific)
    M_be, B_be          benign-bucket generator
    M_un                shared unlabeled matrix, used only when adaptive
                        combination is off
    w_phi, b_phi        blend gate head

    Weight matrices start uniform with scale sqrt(6 / (d_in + d_out));
    biases and the gate start at zero, so the blend opens at 0.5.
    """

    FIELDS = ("W_self", "b_self", "M_fr", "B_fr", "M_be", "B_be", "M_un", "w_phi", "b_phi")

    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator | None = None):
        self.d_in, self.d_out = int(d_in), int(d_out)
        if rng is None:
            uniform = lambda: np.zeros((d_in, d_out))
        else:
            bound = np.sqrt(6.0 / (d_in + d_out))
            uniform = lambda: rng.uniform(-bound, bound, size=(d_in, d_out))
        self.W_self = nd.Tensor(uniform(), requires_grad=True)
        self.b_self = nd.Tensor(np.zeros(d_out), requires_grad=True)
        self.M_fr = nd.Tensor(uniform(), requires_grad=True)
        self.B_fr = nd.Tensor(np.zeros((d_in, d_out)), requires_grad=True)
        self.M_be = nd.Tensor(uniform(), requires_grad=True)
        self.B_be = nd.Tensor(np.zeros((d_in, d_out)), requires_grad=True)
        self.M_un = nd.Tensor(uniform(), requires_grad=True)
        self.w_phi = nd.Tensor(np.zeros((d_in, 1)), requires_grad=True)
        self.b_phi = nd.Tensor(np.zeros(1), requires_grad=True)

    def tensors(self, prefix: str = "") -> dict:
        return {prefix + name: getattr(self, name) for name in self.FIELDS}


def alpha_gate(params: PmpLayerParams, h: nd.Tensor) -> nd.Tensor:
    """Per-center blend coefficient in (0, 1) from an [k, d_in] batch."""
    z = nd.add_rowvec(nd.matmul(h, params.w_phi), params.b_phi)
    return nd.sigmoid(nd.reshape(z, (h.shape[0],)))


def _bucket_term(S: nd.Tensor, h_centers: nd.Tensor, M: nd.Tensor, B: nd.Tensor, root_specific: bool) -> nd.Tensor:
    if root_specific:
        return nd.add(nd.matmul(nd.mul(S, h_centers), M), nd.matmul(S, B))
    return nd.matmul(S, M)


def _segment(h_prev: nd.Tensor, members: np.ndarray, seg_ids: np.ndarray, k: int) -> nd.Tensor:
    return nd.segment_sum(nd.gather_rows(h_prev, members), seg_ids, k)


def aggregate_segments(
    params: PmpLayerParams,
    variant: LayerVariant,
    segs: BucketSegments,
    h_prev: nd.Tensor,
    h_centers: nd.Tensor,
    h_gate: nd.Tensor,
) -> nd.Tensor:
    """Bucketed neighbor aggregation over pre-built segment arrays.

    Member arrays in ``segs`` index rows of ``h_prev``. ``h_centers`` is
    the centers' representation used by the weight generators;
    ``h_gate`` is the (pre-dropout) representation feeding the blend
    gate. Empty buckets contribute exact zeros.
    """
    k = segs.num_segments
    if not variant.partition_enabled:
        # The scatter adds in array order: each center sums its fraud, benign,
        # then unlabeled run, and since a node has one bucket for every center,
        # each row's gradient still accumulates in center order.
        members = np.concatenate([segs.fr_members, segs.be_members, segs.un_members])
        seg_ids = np.concatenate([segs.fr_segments, segs.be_segments, segs.un_segments])
        return nd.matmul(_segment(h_prev, members, seg_ids, k), params.M_fr)
    rs = variant.root_specific_enabled
    S_fr = _segment(h_prev, segs.fr_members, segs.fr_segments, k)
    S_be = _segment(h_prev, segs.be_members, segs.be_segments, k)
    S_un = _segment(h_prev, segs.un_members, segs.un_segments, k)
    total = nd.add(
        _bucket_term(S_fr, h_centers, params.M_fr, params.B_fr, rs),
        _bucket_term(S_be, h_centers, params.M_be, params.B_be, rs),
    )
    if variant.adaptive_combination_enabled:
        a = alpha_gate(params, h_gate)
        un_fr = _bucket_term(S_un, h_centers, params.M_fr, params.B_fr, rs)
        un_be = _bucket_term(S_un, h_centers, params.M_be, params.B_be, rs)
        blended = nd.add(nd.row_scale(un_fr, a), nd.row_scale(un_be, nd.affine(a, -1.0, 1.0)))
        return nd.add(total, blended)
    return nd.add(total, nd.matmul(S_un, params.M_un))


def layer_forward(
    params: PmpLayerParams,
    variant: LayerVariant,
    segs: BucketSegments,
    h_prev: nd.Tensor,
    h_centers: nd.Tensor,
    h_gate: nd.Tensor,
    use_relu: bool = True,
) -> nd.Tensor:
    """Self transformation plus neighbor aggregation, then activation.

    Dropout is applied by the caller, which needs both the pre and post
    dropout outputs (the gate of the next layer reads the pre-dropout
    one).
    """
    self_term = nd.add_rowvec(nd.matmul(h_centers, params.W_self), params.b_self)
    out = nd.add(self_term, aggregate_segments(params, variant, segs, h_prev, h_centers, h_gate))
    return nd.relu(out) if use_relu else out
