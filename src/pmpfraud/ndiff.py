"""Float64 array kernels of the message passing model, and its reverse pass.

The kernels are exactly what the model's forward calls beyond plain
numpy: the clamped logistic, an in-place ReLU without a per-element
branch, row gathers and segment sums, dropout, and a
clamped cross-entropy on logits that is the batch's weighted mean. Each
takes and returns arrays, validates shapes up front and refuses to emit
NaN or Inf instead of letting it propagate silently. ``scatter_rows`` and
``gather_segment_sum_adjoint`` are the gathers' adjoints; ``dropout`` and
``binary_cross_entropy`` return theirs beside their output.

Segment sums come in two kernels that give the same bits: each output
cell adds its members in listed order from 0.0, as an unbuffered
scatter-add does. ``gather_segment_sum`` runs one bincount per column and
takes members in any order. ``gather_segment_sum_sliced`` takes members
grouped by segment and adds whole rows, one member position at a time
across every segment that long; it wins on wide rows and loses on narrow
ones, and ``layer.bucket_sums`` chooses between them by row width.

``GradientTape`` is the reverse pass, written for the model rather than
taped: a training batch, or a scored center whose feature gradient is
wanted, keeps one adjoint record per layer, dropout, readout and loss (or
logistic) call, and one walk runs them back, writing each weight block's
gradient into its view of one flat gradient array. Scoring keeps no
records. The layer and the readout head record themselves
(``layer.layer_forward``, ``model.readout``) with adjoints written from
their equations.

The cross-entropy's adjoint is taken in logit space: each example's
weighted sigma(z) - t. Scores saturated on the correct side then send back
an exact zero rather than a subnormal, and the rest of the reverse pass
runs on normal numbers.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "GradientTape",
    "ShapeError",
    "NonFiniteError",
    "check_finite",
    "check_nondecreasing",
    "sigmoid",
    "gather_segment_sum",
    "gather_segment_sum_sliced",
    "gather_segment_sum_adjoint",
    "gather_rows",
    "scatter_rows",
    "dropout",
    "binary_cross_entropy",
]

# Probabilities are clamped into this closed interval before any log.
PROB_CLAMP = 1e-12

# Member positions ``gather_segment_sum_sliced`` adds one slice at a time;
# members past it (hub segments) finish by np.add.at. On deep-ba's tables
# (d = 32 and 64, segments up to 297 members) caps of 16 and 32 were 20-60%
# slower than 64, and 128 or 400 no faster.
_SLICE_CAP = 64

_SIGMOID_LO = np.finfo(np.float64).tiny
_SIGMOID_HI = np.nextafter(1.0, 0.0)


class ShapeError(ValueError):
    """Operands have incompatible shapes for the requested operator."""


class NonFiniteError(ArithmeticError):
    """An operator produced NaN or Inf."""


def check_finite(out: np.ndarray, op: str) -> np.ndarray:
    """``out``, unless it holds a NaN or an Inf: then NonFiniteError naming ``op``."""
    if not np.all(np.isfinite(out)):
        raise NonFiniteError(f"{op}: non-finite result")
    return out


def check_nondecreasing(ids: np.ndarray, op: str) -> None:
    """ShapeError naming ``op`` unless the 1-d ``ids`` never decrease.

    Compared a block at a time: one comparison over a whole relation's
    members (1.0M on the wide-multirel benchmark) raised that run's peak
    RSS by 7 MB, and blocks of 64K members do not."""
    block = 1 << 16
    for i in range(0, ids.size, block):
        run = ids[i : i + block + 1]
        if (run[1:] < run[:-1]).any():
            raise ShapeError(f"{op}: segment ids must be nondecreasing")


def _require_2d(x: np.ndarray, op: str):
    if np.ndim(x) != 2:
        raise ShapeError(f"{op}: expected 2-d operand, got shape {np.shape(x)}")


def _fold(terms) -> np.ndarray | None:
    """The terms added left to right, the first as it is (a leading None is
    skipped): how a gradient read by several ops accumulates."""
    total = None
    for term in terms:
        total = term if total is None else total + term
    return total


class GradientTape:
    """The adjoint records of one forward through the model, and one
    reverse walk over them into one flat gradient.

    ``params`` maps each weight block's name to its array, back to back in
    one flat array (``PmpModel.parameters()``); ``grad`` is laid out the
    same way and ``blocks`` maps each name to its view of it. Each block is
    read by one recorded call, whose adjoint writes its gradient into its
    view, so a walk zeroes and joins nothing.

    A forward appends (op name, adjoint) records: to ``branches``, one list
    per relation, each layer's and its dropout's; to ``head``, the
    readout's, then the loss's or the scored logistic's. ``gradients`` runs
    the head's from the last, then each relation's from its last, relation
    0 first, as a taped reverse pass visits them (``tests/reference.py``),
    and adds the terms of a value read several times in that pass's order:

      - a layer's adjoint takes its output's gradient and returns two term
        lists for its input: its centers' rows and table, which read the
        previous output after its dropout, and its gate's rows, read before;
      - a dropout's adjoint takes the first list's sum, and the layer below
        gets the sum of what remains, left to right, the gate's term last;
      - layer 1's terms, asked for by ``wrt_features``, add into
        ``features_grad`` relation after relation.
    """

    def __init__(self, params: dict, wrt_features: bool = False):
        sizes = [p.size for p in params.values()]
        self.grad = np.empty(sum(sizes))
        parts = np.split(self.grad, np.cumsum(sizes)[:-1])
        self.blocks = {name: part.reshape(p.shape) for (name, p), part in zip(params.items(), parts)}
        self.wrt_features = wrt_features
        self.features_grad = None
        self.branches, self.head = [], []

    def gradients(self, output, trace=None) -> dict:
        """Walk the records back from ``output``, the single-element value
        the last record made, seeded with one; return ``blocks``. ``trace``,
        if a list, collects each record's op name as it runs. The records
        are dropped, so the tape serves the next forward."""
        if np.size(output) != 1:
            raise ShapeError("gradients: the output must be a single element")
        branches, head = self.branches, self.head
        self.branches, self.head = [], []

        def run(op, adjoint, g):
            if trace is not None:
                trace.append(op)
            return adjoint(g)

        g = np.ones(np.shape(output))
        for op, adjoint in reversed(head):
            g = run(op, adjoint, g)
        features = None
        for branch, g in zip(branches, g):
            terms, gate = [g], []
            for op, adjoint in reversed(branch):
                if op == "dropout":
                    terms = [run(op, adjoint, _fold(terms))]
                else:
                    terms, gate = run(op, adjoint, _fold(terms + gate))
            features = _fold([features, *terms, *gate])
        self.features_grad = features
        return self.blocks


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------


def _logistic(xd: np.ndarray) -> np.ndarray:
    """Numerically stable, unclamped logistic: exactly 0 or 1 once exp underflows."""
    out = np.empty_like(xd)
    pos = xd >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-xd[pos]))
    ex = np.exp(xd[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _clamped_logistic(xd: np.ndarray) -> np.ndarray:
    """The logistic clamped into the open interval (0, 1)."""
    out = _logistic(xd)
    return np.clip(out, _SIGMOID_LO, _SIGMOID_HI, out=out)


def _relu_inplace(x: np.ndarray) -> np.ndarray:
    """``x`` overwritten by its ReLU, bitwise ``np.where(x > 0, x, 0.0)``
    for finite ``x``: ``+ 0.0`` turns the -0.0 that ``np.maximum`` may keep
    into +0.0. No per-element branch, which stalls on random signs."""
    np.maximum(x, 0.0, out=x)
    x += 0.0
    return x


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic, clamped into the open interval (0, 1).
    Its adjoint is g * out * (1 - out)."""
    return check_finite(_clamped_logistic(x), "sigmoid")


def scatter_rows(values: np.ndarray, ids: np.ndarray, num_rows: int) -> np.ndarray:
    """Sum row i of [m, d] ``values`` into row ``ids[i]`` of a [num_rows, d]
    result: ``gather_rows``' adjoint.

    A flat bincount over cells ids[i] * d + j adds each cell's rows in input
    order from 0.0, as an unbuffered scatter-add does, so float64 results
    are bitwise equal to one. Ids must already lie in [0, num_rows).
    """
    d = values.shape[1]
    cells = (ids[:, None] * d + np.arange(d)).ravel()
    out = np.bincount(cells, weights=values.ravel(), minlength=num_rows * d)
    return out.reshape(num_rows, d)


def _summed(v: np.ndarray, into: np.ndarray, src: np.ndarray, size: int) -> np.ndarray:
    """out[s] = sum of v[src[i]] over every i with into[i] == s, one
    bincount per column of v.T."""
    out = np.empty((v.shape[1], size))
    for j, col in enumerate(np.ascontiguousarray(v.T)):
        out[j] = np.bincount(into, weights=col[src], minlength=size)
    return np.ascontiguousarray(out.T)


def gather_segment_sum(x: np.ndarray, rows: np.ndarray, segment_ids: np.ndarray, num_segments: int) -> np.ndarray:
    """out[s] = sum of x[rows[i]] over every i with segment_ids[i] == s.

    Empty segments are zero rows. One bincount per column of x.T builds no
    [m, d] gathered copy or cell index; each cell adds in input order from
    0.0, bitwise as an unbuffered scatter-add. ``gather_segment_sum_adjoint``
    is the same sum with the ids swapped.
    """
    _require_2d(x, "gather_segment_sum")
    rows, seg = np.asarray(rows, dtype=np.int64), np.asarray(segment_ids, dtype=np.int64)
    if rows.ndim != 1 or seg.shape != rows.shape:
        raise ShapeError(f"gather_segment_sum: rows shape {rows.shape} and ids shape {seg.shape} differ or are not 1-d")
    for ids, bound, what in ((rows, x.shape[0], "row index"), (seg, num_segments, "segment id")):
        if ids.size and (ids.min() < 0 or ids.max() >= bound):
            raise ShapeError(f"gather_segment_sum: {what} out of range")
    return check_finite(_summed(x, seg, rows, num_segments), "gather_segment_sum")


def gather_segment_sum_sliced(x: np.ndarray, rows: np.ndarray, segment_ids: np.ndarray, num_segments: int) -> np.ndarray:
    """``gather_segment_sum`` for members grouped by segment: the same sum,
    bitwise, when ``segment_ids`` is nondecreasing (else ShapeError).

    Segments are ranked by member count, longest first, and position p of
    every segment longer than p is added in one row-wise step into a prefix
    of the output (sliced ELL: Bell & Garland, SC'09). Members past
    ``_SLICE_CAP`` finish by an unbuffered ``np.add.at``, which continues
    each running sum in member order. So each cell still adds its members
    in listed order from 0.0. Its steps are whole rows of x, so on narrow
    rows it loses to ``gather_segment_sum`` (see ``layer.bucket_sums``).
    """
    _require_2d(x, "gather_segment_sum_sliced")
    rows, seg = np.asarray(rows, dtype=np.int64), np.asarray(segment_ids, dtype=np.int64)
    if rows.ndim != 1 or seg.shape != rows.shape:
        raise ShapeError(
            f"gather_segment_sum_sliced: rows shape {rows.shape} and ids shape {seg.shape} differ or are not 1-d"
        )
    check_nondecreasing(seg, "gather_segment_sum_sliced")
    if seg.size:
        if seg[0] < 0 or seg[-1] >= num_segments:
            raise ShapeError("gather_segment_sum_sliced: segment id out of range")
        if rows.min() < 0 or rows.max() >= x.shape[0]:
            raise ShapeError("gather_segment_sum_sliced: row index out of range")
    counts = np.bincount(seg, minlength=num_segments)
    rank = np.argsort(-counts, kind="stable")
    rank = rank[: np.count_nonzero(counts)]
    lengths = counts[rank]
    first = (np.cumsum(counts) - counts)[rank]
    depth = min(lengths[0], _SLICE_CAP) if rank.size else 0
    # wide[p]: how many segments have more than p members, a prefix of rank.
    wide = np.searchsorted(-lengths, -np.arange(depth), side="left")
    if x.flags.c_contiguous or x.shape[0] <= rows.size:
        xc = np.ascontiguousarray(x)
    else:  # a column-major table larger than the member list: copy only the members' rows
        xc, rows = np.ascontiguousarray(x[rows]), np.arange(rows.size)
    sums = np.zeros((rank.size, x.shape[1]))
    for p, c in enumerate(wide):
        sums[:c] += xc[rows[first[:c] + p]]
    hubs = np.count_nonzero(lengths > _SLICE_CAP)
    if hubs:
        extra = lengths[:hubs] - _SLICE_CAP
        owner = np.repeat(np.arange(hubs), extra)
        offset = np.arange(owner.size) - np.repeat(np.cumsum(extra) - extra, extra) + _SLICE_CAP
        np.add.at(sums, owner, xc[rows[first[owner] + offset]])
    out = np.zeros((num_segments, x.shape[1]))
    out[rank] = sums
    return check_finite(out, "gather_segment_sum_sliced")


def gather_segment_sum_adjoint(g: np.ndarray, rows: np.ndarray, segment_ids: np.ndarray, num_rows: int) -> np.ndarray:
    """The gradient of the ``num_rows`` rows of ``gather_segment_sum``'s x
    from its output's gradient ``g``: out[r] = sum of g[segment_ids[i]]
    over every i with rows[i] == r."""
    return _summed(g, np.asarray(rows, dtype=np.int64), np.asarray(segment_ids, dtype=np.int64), num_rows)


def gather_rows(x: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Select rows of a 2-d array; ``scatter_rows`` adds them back."""
    _require_2d(x, "gather_rows")
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError(f"gather_rows: indices must be 1-d, got shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[0]):
        raise ShapeError("gather_rows: index out of range")
    return check_finite(x[idx], "gather_rows")


def dropout(x: np.ndarray, p: float, key):
    """Inverted dropout with a counter-based mask: the output and its adjoint.

    The mask is a pure function of ``key``, any seed ``np.random.Philox``
    takes (an int, a sequence of ints or a SeedSequence), so replaying the
    same key reproduces the same mask and finite differencing across a
    fixed key stays valid.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout: p must be in [0, 1), got {p}")
    rng = np.random.Generator(np.random.Philox(key))
    keep = rng.random(x.shape) >= p
    factor = keep / (1.0 - p)
    return check_finite(x * factor, "dropout"), lambda g: g * factor


def binary_cross_entropy(logits: np.ndarray, targets: np.ndarray, weights: np.ndarray):
    """Weighted mean negated log likelihood of Bernoulli targets under the
    probabilities sigma(z) of ``logits`` z, as a 0-d array:
    sum_i w_i l_i / sum_i w_i with l_i the example's loss; and its adjoint.

    The value takes the clamped logistic (``sigmoid``'s output), clamps it
    to [PROB_CLAMP, 1 - PROB_CLAMP] before the logs, so it stays finite at
    0 and 1, and is computed as (n / sum w) * mean(l * w), so unit weights
    give the plain mean bitwise.

    The adjoint is taken in logit space, (n / sum w) g / n * w * (sigma(z) - t)
    with sigma the exact, unclamped logistic. A correctly saturated score
    (|z| past ~745, where exp underflows) then contributes an exact 0
    instead of the subnormal g * tiny that a clamped sigmoid's adjoint
    would emit, and a wrongly saturated one still gets the full -+1
    signal. A clip-style dead zone here would stall training the moment
    any logit passes ~|28|.
    """
    t = np.asarray(targets, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    zd = logits
    if t.shape != zd.shape or w.shape != t.shape:
        raise ShapeError(
            f"binary_cross_entropy: target shape {t.shape} and weight shape {w.shape} vs logits {zd.shape}"
        )
    if t.size == 0:
        raise ShapeError("binary_cross_entropy: empty input")
    pc = np.clip(_clamped_logistic(zd), PROB_CLAMP, 1.0 - PROB_CLAMP)
    per_example = -(t * np.log(pc) + (1.0 - t) * np.log1p(-pc))
    n, scale = t.size, float(t.size / w.sum())
    out = np.asarray(scale * np.mean(per_example * w) + 0.0)

    def adjoint(g):
        return np.full(t.shape, float(scale * g) / n) * w * (_logistic(zd) - t)

    return check_finite(out, "binary_cross_entropy"), adjoint
