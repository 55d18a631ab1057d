"""Dense float64 tensors with tape-based reverse-mode differentiation.

Every trainable computation in this package runs through this module. The
design is deliberately small: a ``Tensor`` wraps a numpy float64 array and an
optional handle into a ``Tape``; ops are plain functions that compute values
eagerly and, when any operand is tracked, append a record with the local
vector-Jacobian rules. ``backward`` replays the records in reverse and
accumulates gradients wherever a node fans out.

A tape is built during a single forward pass and consumed by a single
backward pass; reusing a consumed tape is an error rather than a silent
no-op. Broadcasting is restricted to the few shapes the model actually
needs: identical shapes, a scalar against anything, and a trailing
singleton column ``[n, 1]`` against ``[n, d]`` (the attribution-weighting
pattern).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

# Rows whose L2 norm falls below this threshold pass through l2_normalize
# unchanged (gradient treated as identity there).
NORM_EPS = 1e-12


class NumericError(RuntimeError):
    """A computation received or produced values it cannot work with."""


class Tensor:
    """A dense float64 array, optionally tracked on a tape.

    Untracked tensors behave as constants: ops on them produce untracked
    results, so the same forward code serves training and inference.
    """

    __slots__ = ("values", "tape", "node_id")

    def __init__(self, values, tape: "Tape | None" = None, node_id: int | None = None):
        self.values = np.asarray(values, dtype=np.float64)
        self.tape = tape
        self.node_id = node_id

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    def item(self) -> float:
        if self.values.size != 1:
            raise ValueError(f"item() on tensor of shape {self.shape}")
        return float(self.values.reshape(()))

    def __repr__(self) -> str:
        extra = "" if self.tape is None else f", node={self.node_id}"
        return f"Tensor(shape={self.shape}{extra})"


def const(values) -> Tensor:
    """Wrap raw values as an untracked (constant) tensor."""
    return Tensor(values)


class Tape:
    """Ordered log of one forward pass, replayed once by ``backward``."""

    def __init__(self):
        # one (output node id, ((input node id, vjp grad_out -> grad_in), ...))
        # tuple per recorded op, in forward order
        self._records: list[tuple[int, tuple]] = []
        self._next_id = 0
        self._consumed = False

    @property
    def num_records(self) -> int:
        return len(self._records)

    def leaf(self, values) -> Tensor:
        """Register an input node (typically a parameter) on this tape."""
        return self._push(values)

    def _push(self, values, inputs: tuple = ()) -> Tensor:
        """A new node holding ``values``, recorded with its ``inputs`` unless
        it is a leaf."""
        if self._consumed:
            raise RuntimeError("tape already consumed; build a fresh tape per forward pass")
        out = Tensor(values, tape=self, node_id=self._next_id)
        self._next_id += 1
        if inputs:
            self._records.append((out.node_id, inputs))
        return out


class GradientStore:
    """Gradients keyed by tape node, indexable with the tensors themselves."""

    def __init__(self, tape: Tape, grads: dict[int, np.ndarray]):
        self._tape = tape
        self._grads = grads

    def __getitem__(self, t: Tensor) -> np.ndarray:
        if t.tape is not self._tape or t.node_id is None:
            raise ValueError("tensor is not tracked on this tape")
        g = self._grads.get(t.node_id)
        if g is None:
            # Reachable-from-nothing nodes (e.g. an unused parameter) get a
            # well-defined zero gradient of the right shape.
            return np.zeros(t.shape)
        return g


def backward(tape: Tape, loss: Tensor) -> GradientStore:
    """Reverse sweep: d(loss)/d(node) for every node on the tape.

    ``loss`` must be a scalar recorded on ``tape``. Consumes the tape; a
    second call raises rather than silently recomputing.
    """
    if loss.tape is not tape or loss.node_id is None:
        raise ValueError("loss is not tracked on this tape")
    if loss.values.size != 1:
        raise ValueError(f"loss must be a scalar, got shape {loss.shape}")
    if tape._consumed:
        raise RuntimeError("tape already consumed by a previous backward")
    tape._consumed = True

    grads: dict[int, np.ndarray] = {loss.node_id: np.ones_like(loss.values)}
    for out_id, inputs in reversed(tape._records):
        g = grads.get(out_id)
        if g is None:
            continue  # node does not influence the loss
        for node_id, vjp in inputs:
            contrib = vjp(g)
            prev = grads.get(node_id)
            # accumulation at fan-in; fresh array so views are never mutated
            grads[node_id] = contrib if prev is None else prev + contrib
    return GradientStore(tape, grads)


# ---------------------------------------------------------------------------
# op plumbing


def _emit(values: np.ndarray, parents: Sequence[tuple[Tensor, Callable]]) -> Tensor:
    """Create the result tensor, recording it if any parent is tracked."""
    tracked = [(t, vjp) for t, vjp in parents if t.tape is not None]
    if not tracked:
        return Tensor(values)
    tape = tracked[0][0].tape
    if any(t.tape is not tape for t, _ in tracked):
        raise ValueError("operands are recorded on different tapes")
    return tape._push(values, tuple((t.node_id, vjp) for t, vjp in tracked))


def _check_broadcast(sa: tuple, sb: tuple) -> None:
    if sa == sb or sa == () or sb == ():
        return
    if len(sa) == 2 and len(sb) == 2 and sa[0] == sb[0] and (sa[1] == 1 or sb[1] == 1):
        return
    raise ValueError(f"unsupported broadcast between shapes {sa} and {sb}")


def _reduce_to(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    if g.shape == shape:
        return g
    if shape == ():
        return np.asarray(g.sum())
    return g.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# elementwise and linear-algebra ops


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a.shape, b.shape)
    out = a.values + b.values
    return _emit(out, [
        (a, lambda g, sa=a.shape: _reduce_to(g, sa)),
        (b, lambda g, sb=b.shape: _reduce_to(g, sb)),
    ])


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a.shape, b.shape)
    out = a.values - b.values
    return _emit(out, [
        (a, lambda g, sa=a.shape: _reduce_to(g, sa)),
        (b, lambda g, sb=b.shape: _reduce_to(-g, sb)),
    ])


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product with the restricted broadcast rules."""
    _check_broadcast(a.shape, b.shape)
    av, bv = a.values, b.values
    out = av * bv
    return _emit(out, [
        (a, lambda g, sa=a.shape: _reduce_to(g * bv, sa)),
        (b, lambda g, sb=b.shape: _reduce_to(g * av, sb)),
    ])


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)
    return _emit(a.values * s, [(a, lambda g: g * s)])


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if len(a.shape) != 2 or len(b.shape) != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    av, bv = a.values, b.values
    return _emit(av @ bv, [
        (a, lambda g: g @ bv.T),
        (b, lambda g: av.T @ g),
    ])


def transpose(a: Tensor) -> Tensor:
    if len(a.shape) != 2:
        raise ValueError(f"transpose expects a matrix, got shape {a.shape}")
    return _emit(a.values.T.copy(), [(a, lambda g: g.T)])


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """Add a length-d bias row to every row of an [n, d] matrix."""
    if len(x.shape) != 2 or b.shape != (x.shape[1],):
        raise ValueError(f"add_bias shape mismatch: {x.shape} + {b.shape}")
    return _emit(x.values + b.values, [
        (x, lambda g: g),
        (b, lambda g: g.sum(axis=0)),
    ])


def affine(x: Tensor, w: Tensor, b: Tensor, relu: bool = False) -> Tensor:
    """``x @ w`` plus the length-d bias row ``b``, then a ReLU when ``relu``,
    as one record.

    The value and the three VJPs evaluate the expressions of the
    ``matmul`` / ``add_bias`` / ``relu`` chain, so they equal it bit for bit.
    """
    if len(x.shape) != 2 or len(w.shape) != 2 or x.shape[1] != w.shape[0]:
        raise ValueError(f"matmul shape mismatch: {x.shape} @ {w.shape}")
    if b.shape != (w.shape[1],):
        raise ValueError(f"add_bias shape mismatch: {(x.shape[0], w.shape[1])} + {b.shape}")
    xv, wv = x.values, w.values
    out = xv @ wv + b.values
    mask = None
    if relu:
        mask = out > 0.0
        out = np.maximum(out, 0.0)

    def pre(g):
        """The gradient at ``x @ w + b``."""
        return g if mask is None else g * mask

    return _emit(out, [
        (x, lambda g: pre(g) @ wv.T),
        (w, lambda g: xv.T @ pre(g)),
        (b, lambda g: pre(g).sum(axis=0)),
    ])


def relu(a: Tensor) -> Tensor:
    av = a.values
    mask = av > 0.0
    # np.maximum (unlike np.where) lets NaN through, so poisoned values
    # surface as a numeric error downstream instead of vanishing
    return _emit(np.maximum(av, 0.0), [(a, lambda g: g * mask)])


def sigmoid(a: Tensor) -> Tensor:
    # Split by sign for stability at large |x|.
    av = a.values
    out = np.empty_like(av)
    pos = av >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-av[pos]))
    ex = np.exp(av[~pos])
    out[~pos] = ex / (1.0 + ex)
    return _emit(out, [(a, lambda g: g * out * (1.0 - out))])


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.values)
    return _emit(out, [(a, lambda g: g * out)])


def log(a: Tensor) -> Tensor:
    av = a.values
    return _emit(np.log(av), [(a, lambda g: g / av)])


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp into [lo, hi]; gradient passes through inside, zero outside."""
    if not lo < hi:
        raise ValueError(f"clip requires lo < hi, got [{lo}, {hi}]")
    av = a.values
    mask = (av >= lo) & (av <= hi)
    return _emit(np.clip(av, lo, hi), [(a, lambda g: g * mask)])


def softmax(a: Tensor, axis: int = 0) -> Tensor:
    """Max-subtracted softmax along ``axis``. Rejects NaN input."""
    av = a.values
    if np.isnan(av).any():
        raise NumericError("softmax received NaN input")
    shifted = av - av.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def vjp(g, out=out, axis=axis):
        return out * (g - (g * out).sum(axis=axis, keepdims=True))

    return _emit(out, [(a, vjp)])


def logsumexp(a: Tensor) -> Tensor:
    """Stable log-sum-exp over all elements, returning a scalar tensor."""
    av = a.values
    if av.size == 0:
        raise ValueError("logsumexp of an empty tensor")
    if np.isnan(av).any():
        raise NumericError("logsumexp received NaN input")
    m = av.max()
    e = np.exp(av - m)
    z = e.sum()
    out = np.asarray(m + np.log(z))

    def vjp(g, w=e / z, shape=av.shape):
        return float(g) * w.reshape(shape)

    return _emit(out, [(a, vjp)])


def _check_mask(a: Tensor, mask, op: str) -> np.ndarray:
    mask = np.asarray(mask, dtype=bool)
    if len(a.shape) != 2 or mask.shape != a.shape:
        raise ValueError(f"{op} expects an [n, m] matrix and a mask of the same shape, "
                         f"got {a.shape} and {mask.shape}")
    return mask


def logsumexp_rows(a: Tensor, mask) -> Tensor:
    """Stable log-sum-exp of each row of an [n, m] matrix over the entries
    where ``mask`` is true, returning [n, 1]. Every row needs a kept entry;
    entries left out take no part in the value and get zero gradient."""
    mask = _check_mask(a, mask, "logsumexp_rows")
    if not mask.any(axis=1).all():
        raise ValueError("logsumexp_rows needs at least one kept entry per row")
    av = a.values
    if np.isnan(av[mask]).any():
        raise NumericError("logsumexp_rows received NaN input")
    kept = np.where(mask, av, -np.inf)
    m = kept.max(axis=1, keepdims=True)
    e = np.exp(kept - m)
    z = e.sum(axis=1, keepdims=True)

    def vjp(g, w=e / z):
        return g * w

    return _emit(m + np.log(z), [(a, vjp)])


def masked_row_sum(a: Tensor, mask) -> Tensor:
    """Sum of each row of an [n, m] matrix over the entries where ``mask``
    is true, returning [n, 1] (zero for a row with no kept entry)."""
    mask = _check_mask(a, mask, "masked_row_sum")
    out = np.where(mask, a.values, 0.0).sum(axis=1, keepdims=True)
    return _emit(out, [(a, lambda g: g * mask)])


def sum_all(a: Tensor) -> Tensor:
    shape = a.shape
    return _emit(np.asarray(a.values.sum()), [
        (a, lambda g: np.broadcast_to(g, shape).astype(np.float64).copy() if shape else np.asarray(g)),
    ])


# ---------------------------------------------------------------------------
# row indexing / segment ops (message passing and pooling live on these)


def _scatter_rows(values: np.ndarray, ids: np.ndarray, num_rows: int) -> np.ndarray:
    """Row r of the [num_rows, d] result is the sum of ``values`` rows whose
    id is r. One ``bincount`` over the flat index ``ids * d + col`` adds each
    bin's terms in input order, starting from zero, so the result is
    bit-identical to a loop that adds the rows one at a time."""
    d = values.shape[1]
    flat = (ids[:, None] * d + np.arange(d)).ravel()
    out = np.bincount(flat, weights=values.ravel(), minlength=num_rows * d)
    # with no rows at all bincount returns int64 zeros
    return out.astype(np.float64, copy=False).reshape(num_rows, d)


def gather_rows(a: Tensor, index) -> Tensor:
    """Select rows of an [n, d] matrix; duplicates allowed."""
    if len(a.shape) != 2:
        raise ValueError(f"gather_rows expects a matrix, got shape {a.shape}")
    idx = np.asarray(index, dtype=np.int64).reshape(-1)
    n = a.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise ValueError(f"gather_rows index out of range for {n} rows")
    return _emit(a.values[idx], [(a, lambda g, idx=idx, n=n: _scatter_rows(g, idx, n))])


def concat_rows(parts: Sequence[Tensor]) -> Tensor:
    """Stack matrices with equal column counts along axis 0."""
    if not parts:
        raise ValueError("concat_rows of an empty sequence")
    cols = {p.shape[1] for p in parts if len(p.shape) == 2}
    if len(cols) != 1 or any(len(p.shape) != 2 for p in parts):
        raise ValueError("concat_rows requires matrices with matching column counts")
    out = np.concatenate([p.values for p in parts], axis=0)
    parents = []
    offset = 0
    for p in parts:
        lo, hi = offset, offset + p.shape[0]
        parents.append((p, lambda g, lo=lo, hi=hi: g[lo:hi]))
        offset = hi
    return _emit(out, parents)


def _check_segments(values: Tensor, segment_ids, num_segments: int) -> np.ndarray:
    if len(values.shape) != 2:
        raise ValueError(f"segment ops expect [n, d] values, got shape {values.shape}")
    ids = np.asarray(segment_ids, dtype=np.int64).reshape(-1)
    if ids.shape[0] != values.shape[0]:
        raise ValueError("segment_ids length must match the number of rows")
    if ids.size and (ids.min() < 0 or ids.max() >= num_segments):
        raise ValueError(f"segment id out of range for {num_segments} segments")
    return ids


def segment_sum(values: Tensor, segment_ids, num_segments: int) -> Tensor:
    """Row s of the result is the sum of rows with segment id s (zeros if none)."""
    ids = _check_segments(values, segment_ids, num_segments)
    out = _scatter_rows(values.values, ids, num_segments)
    return _emit(out, [(values, lambda g, ids=ids: g[ids])])


def segment_mean(values: Tensor, segment_ids, num_segments: int) -> Tensor:
    """Per-segment mean; empty segments yield zero rows."""
    ids = _check_segments(values, segment_ids, num_segments)
    counts = np.bincount(ids, minlength=num_segments).astype(np.float64)
    denom = np.maximum(counts, 1.0)[:, None]
    out = _scatter_rows(values.values, ids, num_segments)
    out /= denom

    def vjp(g, ids=ids, denom=denom):
        return g[ids] / denom[ids]

    return _emit(out, [(values, vjp)])


def gin_aggregate(h: Tensor, eps: Tensor, src: np.ndarray, dst: np.ndarray) -> Tensor:
    """GIN's aggregation ``h * (eps + 1)`` plus, for every edge (u, v), row u
    of the [n, d] matrix ``h`` added into row v, as one record.

    ``eps`` is a scalar; ``src`` / ``dst`` are int64 edge endpoints in range.
    The value and both VJPs evaluate their terms in the order of the unfused
    gather / scatter / mul / add chain, so they equal it bit for bit.
    """
    hv = h.values
    n = hv.shape[0]
    factor = eps.values + 1.0
    out = hv * factor + _scatter_rows(hv[src], dst, n)
    return _emit(out, [
        (h, lambda g: g * factor + _scatter_rows(g[dst], src, n)),
        (eps, lambda g: np.asarray((g * hv).sum())),
    ])


def gcn_propagate(
    h: Tensor, src: np.ndarray, dst: np.ndarray, edge_coef: np.ndarray, self_coef: np.ndarray
) -> Tensor:
    """GCN's normalized propagation as one record: for every edge (u, v), row u
    of ``h`` times ``edge_coef`` added into row v, plus ``h * self_coef``.

    ``edge_coef`` is an [E, 1] column over the edges and ``self_coef`` an
    [n, 1] column over the nodes. As with :func:`gin_aggregate`, the value
    and the VJP equal the unfused chain bit for bit.
    """
    hv = h.values
    n = hv.shape[0]
    out = _scatter_rows(hv[src] * edge_coef, dst, n) + hv * self_coef
    return _emit(out, [
        (h, lambda g: _scatter_rows(g[dst] * edge_coef, src, n) + g * self_coef),
    ])


def l2_normalize(a: Tensor) -> Tensor:
    """Normalize each row to unit L2 norm; rows below NORM_EPS pass through."""
    if len(a.shape) != 2:
        raise ValueError(f"l2_normalize expects a matrix, got shape {a.shape}")
    av = a.values
    norms = np.sqrt((av * av).sum(axis=1, keepdims=True))
    small = norms < NORM_EPS
    safe = np.where(small, 1.0, norms)
    out = np.where(small, av, av / safe)

    def vjp(g, out=out, safe=safe, small=small):
        dots = (g * out).sum(axis=1, keepdims=True)
        gx = (g - out * dots) / safe
        return np.where(small, g, gx)

    return _emit(out, [(a, vjp)])
