"""Reverse-mode automatic differentiation on numpy arrays.

A Tensor wraps a float64 ndarray and records the operation that produced
it; calling backward() on a scalar loss topologically sorts the graph and
accumulates gradients into every node, parameters included.  Only the
operations the classifier topologies need are provided; all of them are
exercised by finite-difference checks in the gradcheck harness.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeMismatch


class Tensor:
    __slots__ = ("data", "grad", "_parents", "_backward")

    def __init__(self, data, parents=(), backward=None, grad=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = grad
        self._parents = parents
        self._backward = backward

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"

    # -- graph traversal ------------------------------------------------

    def backward(self):
        """Accumulate d(self)/d(node) into .grad for every upstream node.

        Each node's gradient starts at zero: a new array, or, for a node that
        has one (a parameter's view of its member's gradient buffer), zeroed
        in place.  Each node's backward closure receives the node's own
        gradient and holds only its parents, never its output, so a graph
        has no reference cycles and is freed as soon as the last reference
        to its root is dropped.
        """
        if self.data.size != 1:
            raise ShapeMismatch("backward requires a scalar loss")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                stack.append((parent, False))
        for node in topo:
            if node.grad is None:
                node.grad = np.zeros_like(node.data)
            else:
                node.grad[...] = 0.0
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)

    # -- arithmetic -----------------------------------------------------

    def __mul__(self, other):
        other = _as_tensor(other)

        def bwd(g):
            self.grad += _unbroadcast(g * other.data, self.data.shape)
            other.grad += _unbroadcast(g * self.data, other.data.shape)

        return Tensor(self.data * other.data, (self, other), bwd)

    # -- shape ops ------------------------------------------------------

    def reshape(self, *shape):
        def bwd(g):
            self.grad += g.reshape(self.data.shape)

        return Tensor(self.data.reshape(*shape), (self,), bwd)

    def transpose(self):
        """Swap the last two axes: (B, M, N) -> (B, N, M)."""
        if self.data.ndim != 3:
            raise ShapeMismatch("transpose expects a 3-d tensor")

        def bwd(g):
            self.grad += g.swapaxes(-1, -2)

        return Tensor(self.data.swapaxes(-1, -2), (self,), bwd)

    # -- reductions and nonlinearities -----------------------------------

    def sum(self):
        def bwd(g):
            self.grad += g

        return Tensor(self.data.sum(), (self,), bwd)

    def relu(self):
        def bwd(g):
            self.grad += g * (self.data > 0)

        return Tensor(np.maximum(self.data, 0.0), (self,), bwd)

    def softmax(self):
        """Softmax of a vector, or of each row of a (B, C) matrix."""
        if self.data.ndim not in (1, 2):
            raise ShapeMismatch("softmax expects a vector or a (B, C) matrix")
        shifted = self.data - self.data.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        y = e / e.sum(axis=-1, keepdims=True)

        def bwd(g):
            self.grad += y * (g - (g * y).sum(axis=-1, keepdims=True))

        return Tensor(y, (self,), bwd)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def tap_products(rows: np.ndarray, taps: np.ndarray, group: int):
    """Tap by tap, the (V + 1, N) products of the V rows with the
    (C_in, W, N) tap-major `taps`, the last row zero: one GEMM per `group`
    taps.  Each yield is a view of one buffer, overwritten by the next GEMM."""
    c_in, width, n = taps.shape
    product = np.empty((len(rows) + 1, group * n))
    product[-1] = 0.0
    for w0 in range(0, width, group):
        block = taps[:, w0 : w0 + group].reshape(c_in, -1)
        np.matmul(rows, block, out=product[:-1, : block.shape[1]])
        for j in range(block.shape[1] // n):
            yield product[:, j * n : (j + 1) * n]


class IdBatch:
    """B inputs of T steps as (B, T) integer ids into (V, C_in) rows: step t
    of input b is ``rows[ids[b, t]]``, or zeros at id -1, so a row that
    many steps share is stored, and multiplied, once."""

    __slots__ = ("ids", "rows")

    def __init__(self, ids: np.ndarray, rows: np.ndarray):
        self.ids = ids
        self.rows = rows

    def __len__(self) -> int:
        return len(self.ids)

    def take(self, index) -> "IdBatch":
        """The inputs at `index`, keeping only the rows they use, numbered
        by first use in (b, t) order."""
        ids = self.ids[index]
        used, first = np.unique(ids[ids >= 0], return_index=True)
        used = used[np.argsort(first)]
        renumber = np.full(len(self.rows) + 1, -1, dtype=np.intp)  # [-1] stays -1
        renumber[used] = np.arange(len(used))
        return IdBatch(renumber[ids], self.rows[used])

    def dense(self) -> np.ndarray:
        """The (B, T, C_in) step values, zeros at the -1 steps."""
        return np.concatenate([self.rows, np.zeros((1, self.rows.shape[1]))])[self.ids]


def dense_ids(x: np.ndarray) -> IdBatch:
    """A dense (B, C_in, T) stack as an IdBatch: each nonzero column is a
    row of its own, numbered in (b, t) order, and a zero column is id -1."""
    steps = np.asarray(x, dtype=np.float64)
    if steps.ndim != 3:
        raise ShapeMismatch(f"a dense conv input is (B, C_in, T), got {steps.shape}")
    steps = steps.swapaxes(1, 2)
    live = steps.any(axis=2)
    ids = np.full(live.shape, -1, dtype=np.intp)
    ids[live] = np.arange(np.count_nonzero(live))
    return IdBatch(ids, steps[live])


def conv_ids(x: IdBatch, bias: np.ndarray, pad: int, width: int, products) -> np.ndarray:
    """The (B, T_out, N) outputs of a stride-1 cross-correlation of width
    `width` with symmetric zero padding over the (B, T) ids of `x`.

    An output step is `bias` plus, tap by tap, the product row of the input
    step that tap reads.  `products` yields, tap by tap, the (V + 1, N)
    products of x's V rows, the last row (read by id -1) zero; it is not
    advanced when no step is live, and each yield is read before the next.
    Output steps that no live step reaches keep the bias alone.
    """
    ids = x.ids
    n, t = ids.shape
    t_out = t + 2 * pad - width + 1
    y = np.empty((n, t_out, len(bias)))
    y[:] = bias
    padded = np.full((n, t + 2 * pad), -1, dtype=np.intp)
    padded[:, pad : pad + t] = ids
    live_cols = np.flatnonzero((ids >= 0).any(axis=0)) + pad
    if live_cols.size:
        # output step j reads padded column j + w through tap w; steps j0:j1
        # are those a live column reaches
        j0, j1 = max(live_cols[0] - width + 1, 0), min(live_cols[-1] + 1, t_out)
        span = y[:, j0:j1]
        for w, product in enumerate(products):
            span += product[padded[:, j0 + w : j1 + w]]
    return y


# distinct ids per product in conv1d's backward, which bounds its transients
CONV_BLOCK_ROWS = 256


def conv1d(x: IdBatch, taps: Tensor, bias: Tensor, pad: int) -> Tensor:
    """Stride-1 cross-correlation with symmetric zero padding, 0 <= pad < W,
    over a batch of constant inputs.

    x: IdBatch of (B, T) ids into (V, C_in) rows, taps: the tap-major
    filters (C_in, W, C_out), bias: (C_out,).  Output: (B, C_out, T_out),
    T_out = T + 2*pad - W + 1.  The input is a constant: it gets no graph
    node and no gradient.

    Each distinct row is multiplied once by all W taps in one GEMM
    (tap_products), and conv_ids adds up the taps.
    """
    if not isinstance(x, IdBatch) or taps.data.ndim != 3:
        raise ShapeMismatch("conv1d expects an IdBatch and (C_in, W, C_out) taps")
    ids, rows = x.ids, x.rows
    c_in, width, c_out = taps.data.shape
    n, t = ids.shape if ids.ndim == 2 else (0, 0)
    t_out = t + 2 * pad - width + 1
    if (ids.ndim != 2 or ids.dtype.kind != "i" or rows.shape[1:] != (c_in,)
            or bias.data.shape != (c_out,) or not 0 <= pad < width or t_out < 1
            or (ids.size and (ids.min() < -1 or ids.max() >= len(rows)))):
        raise ShapeMismatch(
            f"conv1d needs (B, T) ids in [-1, V) into (V, {c_in}) rows, got ids "
            f"{ids.shape} into rows {rows.shape}, and bias (C_out,), 0 <= pad < W, "
            f"T_out >= 1: taps {taps.data.shape}, bias {bias.data.shape}, pad {pad}"
        )
    y = conv_ids(x, bias.data, pad, width, tap_products(rows, taps.data, width))

    def bwd(g):
        g = g.swapaxes(1, 2)
        bias.grad += g.sum(axis=(0, 1))
        # row s + W - 1 - w of gpad[b] is the gradient that input step s of
        # input b gets through tap w (zero where that output step is cut off)
        gpad = np.zeros((n, t + width - 1, c_out))
        gpad[:, width - 1 - pad : width - 1 - pad + t_out] = g
        gflat = gpad.reshape(-1, c_out)
        # the live steps, flat in (b, t) order, sorted by id (stable): each
        # id's steps form a run, and rank is a step's place in its run
        flat = ids.reshape(-1)
        live = np.flatnonzero(flat >= 0)
        order = live[np.argsort(flat[live], kind="stable")]
        sorted_ids = flat[order]
        new_id = np.diff(sorted_ids, prepend=-1) != 0
        starts = np.flatnonzero(new_id)
        run = np.cumsum(new_id) - 1
        rank = np.arange(len(order)) - starts[run]
        at = order + (order // t + 1) * (width - 1)  # each step's gpad row at tap 0
        back = np.arange(width)
        # per block of CONV_BLOCK_ROWS ids: sum each id's shifted output
        # gradients a rank at a time, then multiply by its row once
        for r0 in range(0, len(starts), CONV_BLOCK_ROWS):
            lo, hi = np.searchsorted(run, (r0, r0 + CONV_BLOCK_ROWS))
            block_at, block_rank, block_run = at[lo:hi], rank[lo:hi], run[lo:hi] - r0
            summed = gflat[block_at[block_rank == 0, None] - back]
            for k in range(1, block_rank.max() + 1):
                sel = block_rank == k
                summed[block_run[sel]] += gflat[block_at[sel, None] - back]
            block_rows = rows[sorted_ids[starts[r0 : r0 + CONV_BLOCK_ROWS]]]
            taps.grad += (block_rows.T @ summed.reshape(len(summed), -1)).reshape(taps.shape)
            del summed

    return Tensor(y.swapaxes(1, 2), (taps, bias), bwd)


def maxpool1d(x: Tensor, rate: int) -> Tensor:
    """Non-overlapping per-channel max over windows of width `rate` along the
    last (time) axis of (C, T) or (B, C, T); a trailing remainder shorter
    than `rate` is dropped."""
    if x.data.ndim not in (2, 3):
        raise ShapeMismatch("maxpool1d expects (C, T) or (B, C, T)")
    if rate < 1:
        raise ShapeMismatch(f"pool rate must be >= 1, got {rate}")
    *lead, t = x.data.shape
    t_out = t // rate
    if t_out < 1:
        raise ShapeMismatch(f"pool rate {rate} exceeds T={t}")
    windows = x.data[..., : t_out * rate].reshape(*lead, t_out, rate)
    idx = windows.argmax(axis=-1)[..., None]

    def bwd(g):
        spread = np.zeros((*lead, t_out, rate))
        np.put_along_axis(spread, idx, g[..., None], axis=-1)
        x.grad[..., : t_out * rate] += spread.reshape(*lead, t_out * rate)

    return Tensor(windows.max(axis=-1), (x,), bwd)


def global_maxpool(x: Tensor) -> Tensor:
    """Max over the time axis: (T, H) -> (H,), or (B, T, H) -> (B, H)."""
    if x.data.ndim not in (2, 3):
        raise ShapeMismatch("global_maxpool expects (T, H) or (B, T, H)")
    idx = x.data.argmax(axis=-2)[..., None, :]

    def bwd(g):
        picked = np.take_along_axis(x.grad, idx, axis=-2)
        np.put_along_axis(x.grad, idx, picked + g[..., None, :], axis=-2)

    return Tensor(x.data.max(axis=-2), (x,), bwd)


def dropout(x: Tensor, p: float, train: bool, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: identity in eval mode, mask-and-rescale in train.

    The mask is one ``rng.random(x.shape)`` draw, so a (B, H) batch draws the
    same stream as B consecutive (H,) draws."""
    if not train or p == 0.0:
        return x
    mask = (rng.random(x.data.shape) >= p) / (1.0 - p)

    def bwd(g):
        x.grad += g * mask

    return Tensor(x.data * mask, (x,), bwd)
