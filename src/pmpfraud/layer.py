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

``layer_forward`` computes the whole layer and, when asked, returns its
adjoint for the model's reverse pass. With S_fr, S_be, S_un
the centers' bucket sums, h the centers' representation, alpha = sigmoid(z)
with z = h_gate @ w_phi + b_phi, and b running over fr and be:

    P_fr = S_fr + alpha S_un,  P_be = S_be + (1 - alpha) S_un   (adaptive;
           otherwise P_b = S_b and the sum gains S_un @ M_un)
    pre  = h @ W_self + b_self + sum_b (P_b * h) @ M_b + P_b @ B_b
           (P_b @ M_b per bucket without root-specific weights; the
           baseline's aggregation is (S_fr + S_be + S_un) @ M_fr)
    out  = relu(pre)   (the last layer of a stack is linear)

With G the upstream gradient and G' = G * [pre > 0], the adjoint is

    dW_self = h^T G',  db_self = column sums of G',  dh = G' W_self^T + ...
    root-specific:  dM_b = (P_b * h)^T G',  dB_b = P_b^T G',
                    dP_b = G' B_b^T + (G' M_b^T) * h,  dh += (G' M_b^T) * P_b
    otherwise:      dM_b = P_b^T G',  dP_b = G' M_b^T  (and M_un, S_un alike)
    adaptive:       dS_b = dP_b,  dS_un = alpha dP_fr + (1 - alpha) dP_be,
                    dz = (rowsum(dP_fr * S_un) - rowsum(dP_be * S_un))
                         * alpha (1 - alpha),
                    dw_phi = h_gate^T dz,  db_phi = sum of dz,  dh_gate = dz w_phi^T
    baseline:       dM_fr = S^T G',  dS_b = G' M_fr^T for all three buckets,
                    with S = S_fr + S_be + S_un

and the table's adjoint stacks the three dS_b in block order. The forward
runs the arithmetic of the layer composed of small differentiable ops
(``tests/reference.py``), in its order, and the adjoint adds the terms of
a fanned-out value in the order a taped reverse pass of that composition
visits them, so both are bitwise equal to it. Two checks replace its
per-op ones: a non-finite gate logit raises, because the logistic would
hide it, and so does a non-finite pre-activation, because ReLU would hide
a NaN; every other intermediate reaches one of the two.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np

from . import ndiff as nd

# Rows of at least this many columns go to ``nd.gather_segment_sum_sliced``,
# narrower ones to ``nd.gather_segment_sum``: the row-wise kernel loses on
# narrow rows. Median ms per call, column -> sliced, one process:
#   d = 8:   a whole 50,000-node relation (1.0M members) 26 -> 50,
#            one 4,096-center chunk of it 5.3 -> 6.9
#   d = 16:  52 -> 69 and 10.6 -> 9.9
#   d = 32:  96 -> 94 and 21.7 -> 19.7
#   deep-ba (3,000 nodes): the whole graph 9.8 -> 4.4 at d = 32 and
#            12.0 -> 7.1 at h = 64; a 512-center batch at h = 64 2.5 -> 1.1
_SLICED_MIN_WIDTH = 32

__all__ = [
    "LayerVariant",
    "PmpLayerParams",
    "bucket_sums",
    "bucket_sums_adjoint",
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

    @property
    def weights(self) -> tuple:
        """Names of the blocks a layer of this variant holds and reads, in
        ``PmpLayerParams.FIELDS`` order."""
        if not self.partition_enabled:
            return ("W_self", "b_self", "M_fr")
        unread = {"M_un"} if self.adaptive_combination_enabled else {"w_phi", "b_phi"}
        if not self.root_specific_enabled:
            unread |= {"B_fr", "B_be"}
        return tuple(name for name in PmpLayerParams.FIELDS if name not in unread)

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
    """The weights of one layer of ``variant``: exactly the blocks it reads,
    named by ``variant.weights``.

    W_self/b_self       shared self transformation (every variant)
    M_fr, B_fr          fraud-bucket generator (M_fr alone is the weight
                        without root-specific weights, and the baseline's
                        one shared map)
    M_be, B_be          benign-bucket generator (partitioned variants)
    M_un                unlabeled-bucket map, without adaptive combination
    w_phi, b_phi        blend gate head, with adaptive combination

    Weight matrices start uniform with scale sqrt(6 / (d_in + d_out));
    biases and the gate start at zero, so the blend opens at 0.5.
    """

    FIELDS = ("W_self", "b_self", "M_fr", "B_fr", "M_be", "B_be", "M_un", "w_phi", "b_phi")

    def __init__(self, d_in: int, d_out: int, variant: LayerVariant, rng: np.random.Generator):
        self.d_in, self.d_out, self.variant = int(d_in), int(d_out), variant
        bound = np.sqrt(6.0 / (d_in + d_out))
        # Every variant draws all four maps, in this order, and keeps the ones
        # it reads: the generator advances alike whatever the variant, so the
        # layers (and the head drawn after them) of any two variants built from
        # one seed start equal in every block they share.
        maps = {name: rng.uniform(-bound, bound, size=(d_in, d_out)) for name in ("W_self", "M_fr", "M_be", "M_un")}
        zeros = {"b_self": d_out, "B_fr": (d_in, d_out), "B_be": (d_in, d_out), "w_phi": (d_in, 1), "b_phi": 1}
        for name in variant.weights:
            setattr(self, name, maps[name] if name in maps else np.zeros(zeros[name]))


def bucket_sums(
    h_prev: np.ndarray,
    members: np.ndarray,
    seg_ids: np.ndarray,
    bucket: np.ndarray,
    num_centers: int,
) -> np.ndarray:
    """Bucket-sum table of ``num_centers`` centers' flattened neighborhoods.

    ``members`` index rows of ``h_prev`` and list each center's neighbors
    in turn, ``seg_ids`` give each member's center position, and
    ``bucket`` each member's bucket (0 fraud, 1 benign, 2 unlabeled). The
    table is [3k, d] for every variant: row b * k + c holds the sum over
    center c's bucket-b neighbors. Each row adds its members in listed
    order from 0.0, so a row depends only on its center's own neighbor
    list: a table over every node equals, bitwise, one over any batch.
    Empty buckets are exact zeros.

    Members must be listed center by center: ``seg_ids`` nondecreasing and
    in [0, k), else ShapeError (one pass over them). Rows narrower than
    ``_SLICED_MIN_WIDTH`` are summed one column at a time
    (``ndiff.gather_segment_sum``). Wider ones are first partitioned by
    bucket, stably, in one ``np.flatnonzero`` per bucket: every
    (bucket, center) row's members then form one run, in listed order,
    and the runs follow the table's row order, which
    ``ndiff.gather_segment_sum_sliced`` sums a whole row at a time. Both
    add each cell's members in the same order, so the tables are equal
    bitwise.
    """
    seg = np.asarray(seg_ids, dtype=np.int64)
    if seg.ndim == 1 and seg.size:
        nd.check_nondecreasing(seg, "bucket_sums")
        if seg[0] < 0 or seg[-1] >= num_centers:
            raise nd.ShapeError(f"bucket_sums: segment ids must be center positions in [0, {num_centers})")
    ids = _table_rows(seg, bucket, num_centers)
    if np.ndim(h_prev) != 2 or h_prev.shape[1] < _SLICED_MIN_WIDTH:
        return nd.gather_segment_sum(h_prev, members, ids, 3 * num_centers)
    order = np.concatenate([np.flatnonzero(bucket == b) for b in range(3)])
    if order.size != ids.size:
        raise nd.ShapeError("bucket_sums: every bucket must be 0, 1 or 2")
    return nd.gather_segment_sum_sliced(h_prev, np.asarray(members)[order], ids[order], 3 * num_centers)


def bucket_sums_adjoint(g: np.ndarray, members, seg_ids, bucket, num_rows: int) -> np.ndarray:
    """The gradient of ``bucket_sums``' ``h_prev``, ``num_rows`` rows, from
    the gradient ``g`` of its table."""
    return nd.gather_segment_sum_adjoint(g, members, _table_rows(seg_ids, bucket, g.shape[0] // 3), num_rows)


def _table_rows(seg_ids, bucket, num_centers):
    # Segment bucket * k + center; center-major members add in ascending id.
    return bucket.astype(np.int64) * num_centers + seg_ids


def layer_forward(
    params: PmpLayerParams,
    sums: np.ndarray,
    h_centers: np.ndarray,
    h_gate: np.ndarray | None,
    use_relu: bool = True,
    grads: dict | None = None,
):
    """Self transformation plus bucketed neighbor aggregation, then
    activation, under ``params.variant``: the output and, given ``grads``,
    the layer's adjoint (else None).

    ``sums`` is the k centers' ``bucket_sums`` table, [3k, d_in], whose
    three blocks are read in place. ``h_centers`` is the centers'
    representation read by the self term and the weight generators,
    ``h_gate`` the (pre-dropout) one read by the blend gate, None without
    adaptive combination; they may be one array. Dropout is applied by the
    caller, which needs both the pre and post dropout outputs (the next
    layer's gate reads the pre-dropout one).

    ``grads`` maps each of the layer's block names to its view of a flat
    gradient. ``adjoint(g, inputs)`` writes every block's gradient, from
    the output's gradient ``g``, into its view and, with ``inputs``,
    returns the gradients of ``h_centers``, ``sums`` and ``h_gate`` (None
    without adaptive combination), else None.
    """
    p, T = params, sums
    if np.ndim(h_centers) != 2 or h_centers.shape[1] != p.d_in:
        raise nd.ShapeError(f"layer: h_centers must be [k, {p.d_in}], got shape {np.shape(h_centers)}")
    k = h_centers.shape[0]
    if T.shape != (3 * k, p.d_in):
        raise nd.ShapeError(f"layer: sums must be the {k} centers' [{3 * k}, {p.d_in}] table, got shape {T.shape}")
    variant = p.variant
    adaptive, rs = variant.adaptive_combination_enabled, variant.root_specific_enabled
    if adaptive and np.shape(h_gate) != (k, p.d_in):
        raise nd.ShapeError(f"layer: h_gate must be [{k}, {p.d_in}], got shape {np.shape(h_gate)}")

    hc, hg = h_centers, h_gate
    # A block the variant does not hold reads None; no branch below reads it.
    W_self, M_fr, B_fr, M_be, B_be, M_un, w_phi = (
        getattr(p, n, None) for n in ("W_self", "M_fr", "B_fr", "M_be", "B_be", "M_un", "w_phi")
    )
    S_fr, S_be, S_un = T[:k], T[k : 2 * k], T[2 * k :]
    pre = hc @ W_self
    pre += p.b_self
    a = a1 = m_fr = m_be = None
    if not variant.partition_enabled:
        S_all = S_fr + S_be
        S_all += S_un
        pre += S_all @ M_fr
        S_fr = S_be = S_un = None  # views of the table, which the adjoint does not read
    else:
        if adaptive:
            z = hg @ w_phi
            z += p.b_phi
            if not np.all(np.isfinite(z)):
                raise nd.NonFiniteError("layer: non-finite gate logit")
            a = nd._clamped_logistic(z.reshape(k))
            a1 = -1.0 * a + 1.0
            S_fr = S_fr + S_un * a[:, None]
            S_be = S_be + S_un * a1[:, None]
            if grads is not None:
                S_un = S_un.copy()  # the adjoint reads it; a copy lets the table go
        if rs:
            m_fr, m_be = S_fr * hc, S_be * hc
            agg = m_fr @ M_fr
            agg += S_fr @ B_fr
            t_be = m_be @ M_be
            t_be += S_be @ B_be
            agg += t_be
        else:
            agg = S_fr @ M_fr
            agg += S_be @ M_be
        if not adaptive:
            agg += S_un @ M_un
        pre += agg
    if not np.all(np.isfinite(pre)):
        raise nd.NonFiniteError("layer: non-finite pre-activation")
    out = nd._relu_inplace(pre) if use_relu else pre
    if grads is None:
        return out, None
    mask = out > 0 if use_relu else None

    def adjoint(g, inputs):
        # Each adjoint is the one its step of the composed layer records;
        # where a value fans out its terms add in the order that layer's
        # reverse pass visits them (h_centers: self term, fr, be).
        if use_relu:
            g = g * mask
        np.matmul(hc.T, g, out=grads["W_self"])
        np.sum(g, axis=0, out=grads["b_self"])
        need_S = inputs or adaptive  # the gate's adjoint reads dP_fr and dP_be
        g_hc = g @ W_self.T if inputs else None
        g_S, g_gate = [None, None, None], None
        if not variant.partition_enabled:
            np.matmul(S_all.T, g, out=grads["M_fr"])
            if inputs:
                g_S = [g @ M_fr.T] * 3
        else:
            for b, (S, m, M, B, key) in enumerate(((S_fr, m_fr, M_fr, B_fr, "fr"), (S_be, m_be, M_be, B_be, "be"))):
                if not rs:
                    np.matmul(S.T, g, out=grads["M_" + key])
                    if need_S:
                        g_S[b] = g @ M.T
                    continue
                np.matmul(m.T, g, out=grads["M_" + key])
                np.matmul(S.T, g, out=grads["B_" + key])
                if need_S:
                    g_m = g @ M.T
                    g_S[b] = g @ B.T + g_m * hc
                    if inputs:
                        g_hc = g_hc + g_m * S
            if not adaptive:
                np.matmul(S_un.T, g, out=grads["M_un"])
                if inputs:
                    g_S[2] = g @ M_un.T
            else:
                if inputs:
                    g_S[2] = g_S[0] * a[:, None] + g_S[1] * a1[:, None]
                g_a = (g_S[0] * S_un).sum(axis=1) + -1.0 * (g_S[1] * S_un).sum(axis=1)
                g_z = (g_a * a * (1.0 - a)).reshape(k, 1)
                np.matmul(hg.T, g_z, out=grads["w_phi"])
                np.sum(g_z, axis=0, out=grads["b_phi"])
                if inputs:
                    g_gate = g_z @ w_phi.T
        return (g_hc, np.concatenate(g_S), g_gate) if inputs else None  # each table row is read once, in order

    return out, adjoint
