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

so no per-center weight matrix is ever materialized. Each map is linear, so
the blend is applied to the unlabeled sum: (S_fr + alpha S_un) @ W_fr +
(S_be + (1 - alpha) S_un) @ W_be is the same per-center map at half the
matrix products. A center's own label plays no role; its neighbors' do.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np

from . import ndiff as nd

__all__ = [
    "LayerVariant",
    "PmpLayerParams",
    "alpha_gate",
    "bucket_sums",
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
    def from_dict(cls, d) -> "LayerVariant":
        """The variant ``d`` describes; ``d`` must map each field name to a
        bool, or ValueError names it."""
        names = sorted(f.name for f in fields(cls))
        if not isinstance(d, dict) or sorted(d) != names or {type(v) for v in d.values()} != {bool}:
            raise ValueError(f"variant must map each of {names} to true or false, got {d!r}")
        return cls(**d)


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


def bucket_sums(
    h_prev: nd.Tensor,
    members: np.ndarray,
    seg_ids: np.ndarray,
    bucket: np.ndarray,
    num_centers: int,
) -> nd.Tensor:
    """Bucket-sum table of ``num_centers`` centers' flattened neighborhoods.

    ``members`` index rows of ``h_prev`` and list each center's neighbors
    in turn, ``seg_ids`` give each member's center position, and
    ``bucket`` each member's bucket (0 fraud, 1 benign, 2 unlabeled). The
    table is [3k, d] for every variant: row b * k + c holds the sum over
    center c's bucket-b neighbors. Each row adds its members in listed
    order from 0.0, so a row depends only on its center's own neighbor
    list: a table over every node equals, bitwise, one over any batch.
    Empty buckets are exact zeros.
    """
    # Segment bucket * k + center; center-major members add in ascending id.
    return nd.gather_segment_sum(h_prev, members, bucket.astype(np.int64) * num_centers + seg_ids, 3 * num_centers)


def aggregate_segments(
    params: PmpLayerParams,
    variant: LayerVariant,
    sums: nd.Tensor,
    rows: np.ndarray,
    h_centers: nd.Tensor,
    h_gate: nd.Tensor,
) -> nd.Tensor:
    """Bucketed neighbor aggregation of the centers whose sums sit at
    ``rows`` of each bucket block of a ``bucket_sums`` table.

    ``h_centers`` is the centers' representation used by the weight
    generators; ``h_gate`` is the (pre-dropout) representation feeding the
    blend gate. The baseline maps all three blocks' sum, (S_fr + S_be) +
    S_un, with the one shared matrix M_fr.
    """
    block = sums.shape[0] // 3
    S_fr, S_be, S_un = (nd.gather_rows(sums, b * block + rows) for b in range(3))
    if not variant.partition_enabled:
        return nd.matmul(nd.add(nd.add(S_fr, S_be), S_un), params.M_fr)
    rs = variant.root_specific_enabled
    if variant.adaptive_combination_enabled:
        a = alpha_gate(params, h_gate)
        S_fr = nd.add(S_fr, nd.row_scale(S_un, a))
        S_be = nd.add(S_be, nd.row_scale(S_un, nd.affine(a, -1.0, 1.0)))
    total = nd.add(
        _bucket_term(S_fr, h_centers, params.M_fr, params.B_fr, rs),
        _bucket_term(S_be, h_centers, params.M_be, params.B_be, rs),
    )
    return total if variant.adaptive_combination_enabled else nd.add(total, nd.matmul(S_un, params.M_un))


def layer_forward(
    params: PmpLayerParams,
    variant: LayerVariant,
    sums: nd.Tensor,
    rows: np.ndarray,
    h_centers: nd.Tensor,
    h_gate: nd.Tensor,
    use_relu: bool = True,
) -> nd.Tensor:
    """Self transformation plus neighbor aggregation, then activation.

    ``sums`` and ``rows`` locate the centers' bucket sums as for
    ``aggregate_segments``. Dropout is applied by the caller, which needs
    both the pre and post dropout outputs (the gate of the next layer reads
    the pre-dropout one).
    """
    self_term = nd.add_rowvec(nd.matmul(h_centers, params.W_self), params.b_self)
    out = nd.add(self_term, aggregate_segments(params, variant, sums, rows, h_centers, h_gate))
    return nd.relu(out) if use_relu else out
