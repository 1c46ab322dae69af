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

``layer_forward`` records the whole layer as one op. With S_fr, S_be, S_un
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
runs the arithmetic of the layer composed of the engine's small ops, in
its order, and the adjoint adds the terms of a fanned-out value in the
order that composition's reverse pass visits them, so both are bitwise
equal to it. Two checks replace its per-op ones: a non-finite gate logit
raises, because the logistic would hide it, and so does a non-finite
pre-activation, because ReLU would hide a NaN; every other intermediate
reaches one of the two.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np

from . import ndiff as nd

__all__ = [
    "LayerVariant",
    "PmpLayerParams",
    "bucket_sums",
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


def layer_forward(
    params: PmpLayerParams,
    variant: LayerVariant,
    sums: nd.Tensor,
    h_centers: nd.Tensor,
    h_gate: nd.Tensor,
    use_relu: bool = True,
) -> nd.Tensor:
    """Self transformation plus bucketed neighbor aggregation, then
    activation, recorded as one op named ``layer``.

    ``sums`` is the k centers' ``bucket_sums`` table, [3k, d_in], whose
    three blocks are read in place. ``h_centers`` is the centers'
    representation read by the self term and the weight generators,
    ``h_gate`` the (pre-dropout) one read by the blend gate; they may be
    one tensor. Dropout is applied by the caller, which needs both the pre
    and post dropout outputs (the next layer's gate reads the pre-dropout
    one). Gradients reach every input that requires them.
    """
    p, T = params, sums.data
    if h_centers.data.ndim != 2 or h_centers.shape[1] != p.d_in:
        raise nd.ShapeError(f"layer: h_centers must be [k, {p.d_in}], got shape {h_centers.shape}")
    k = h_centers.shape[0]
    if T.shape != (3 * k, p.d_in):
        raise nd.ShapeError(f"layer: sums must be the {k} centers' [{3 * k}, {p.d_in}] table, got shape {T.shape}")
    adaptive, rs = variant.adaptive_combination_enabled, variant.root_specific_enabled
    if adaptive and h_gate.shape != (k, p.d_in):
        raise nd.ShapeError(f"layer: h_gate must be [{k}, {p.d_in}], got shape {h_gate.shape}")

    hc, hg = h_centers.data, h_gate.data
    W_self, M_fr, B_fr, M_be, B_be, M_un, w_phi = (
        t.data for t in (p.W_self, p.M_fr, p.B_fr, p.M_be, p.B_be, p.M_un, p.w_phi)
    )
    S_fr, S_be, S_un = T[:k], T[k : 2 * k], T[2 * k :]
    pre = hc @ W_self
    pre += p.b_self.data
    a = a1 = m_fr = m_be = None
    if not variant.partition_enabled:
        S_all = S_fr + S_be
        S_all += S_un
        pre += S_all @ M_fr
        S_fr = S_be = S_un = None  # views of the table, which the adjoint does not read
    else:
        if adaptive:
            z = hg @ w_phi
            z += p.b_phi.data
            if not np.all(np.isfinite(z)):
                raise nd.NonFiniteError("layer: non-finite gate logit")
            a = nd._clamped_logistic(z.reshape(k))
            a1 = -1.0 * a + 1.0
            S_fr = S_fr + S_un * a[:, None]
            S_be = S_be + S_un * a1[:, None]
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
    mask = pre > 0 if use_relu else None
    out = np.where(mask, pre, 0.0) if use_relu else pre

    # Inputs in the order the composed layer's reverse pass reaches them, so
    # a value feeding several of them (the previous layer's output) adds
    # their adjoints in the same order. ``sums`` is listed only when it needs
    # a gradient, so a constant table is freed after the forward.
    sums_grad = sums.requires_grad
    names = ["h_centers"] + (["sums"] if sums_grad else [])
    names += ["h_gate"] if adaptive and h_gate is not h_centers else []
    names += PmpLayerParams.FIELDS  # a parameter the variant does not read gets None
    inputs = {"h_centers": h_centers, "sums": sums, "h_gate": h_gate}
    parents = tuple(inputs[n] if n in inputs else getattr(p, n) for n in names)

    def vjp(g):
        # Each adjoint is the one its step of the composed layer records;
        # where a value fans out its terms add in the order that layer's
        # reverse pass visits them (h_centers: self term, fr, be, gate).
        if use_relu:
            g = g * mask
        grads = {"W_self": hc.T @ g, "b_self": g.sum(axis=0)}
        need_S = sums_grad or adaptive  # the gate's adjoint reads dP_fr and dP_be
        g_hc = g @ W_self.T if h_centers.requires_grad else None
        g_S = [None, None, None]
        if not variant.partition_enabled:
            grads["M_fr"] = S_all.T @ g
            if need_S:
                g_S = [g @ M_fr.T] * 3
        else:
            for b, (S, m, M, B, key) in enumerate(((S_fr, m_fr, M_fr, B_fr, "fr"), (S_be, m_be, M_be, B_be, "be"))):
                if not rs:
                    grads["M_" + key] = S.T @ g
                    if need_S:
                        g_S[b] = g @ M.T
                    continue
                grads["M_" + key] = m.T @ g
                grads["B_" + key] = S.T @ g
                if need_S or g_hc is not None:
                    g_m = g @ M.T
                    if need_S:
                        g_S[b] = g @ B.T + g_m * hc
                    if g_hc is not None:
                        g_hc = g_hc + g_m * S
            if not adaptive:
                grads["M_un"] = S_un.T @ g
                if need_S:
                    g_S[2] = g @ M_un.T
            else:
                if sums_grad:
                    g_S[2] = g_S[0] * a[:, None] + g_S[1] * a1[:, None]
                g_a = (g_S[0] * S_un).sum(axis=1) + -1.0 * (g_S[1] * S_un).sum(axis=1)
                g_z = (g_a * a * (1.0 - a)).reshape(k, 1)
                grads["w_phi"] = hg.T @ g_z
                grads["b_phi"] = g_z.sum(axis=0)
                if h_gate.requires_grad:
                    grads["h_gate"] = g_z @ w_phi.T
                    if h_gate is h_centers:
                        g_hc = g_hc + grads["h_gate"]
        grads["h_centers"] = g_hc
        if sums_grad:
            grads["sums"] = np.concatenate(g_S)  # each table row is read once, in order
        return tuple(grads.get(n) for n in names)

    out = nd._make(out, "layer", parents, vjp)
    if adaptive and out.requires_grad and not sums_grad:
        S_un = S_un.copy()  # the adjoint reads it through its closure; a copy lets the table go
    return out

