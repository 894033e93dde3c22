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

    # keep numpy from consuming Tensor operands so __radd__/__rsub__ run
    __array_ufunc__ = None
    __array_priority__ = 1000

    def __init__(self, data, parents=(), backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
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

        Each node's backward closure receives the node's own gradient and
        holds only its parents, never its output, so a graph has no
        reference cycles and is freed as soon as the last reference to its
        root is dropped.
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
            node.grad = np.zeros_like(node.data)
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        other = _as_tensor(other)

        def bwd(g):
            self.grad += _unbroadcast(g, self.data.shape)
            other.grad += _unbroadcast(g, other.data.shape)

        return Tensor(self.data + other.data, (self, other), bwd)

    __radd__ = __add__

    def __mul__(self, other):
        other = _as_tensor(other)

        def bwd(g):
            self.grad += _unbroadcast(g * other.data, self.data.shape)
            other.grad += _unbroadcast(g * self.data, other.data.shape)

        return Tensor(self.data * other.data, (self, other), bwd)

    __rmul__ = __mul__

    def __neg__(self):
        def bwd(g):
            self.grad += -g

        return Tensor(-self.data, (self,), bwd)

    def __sub__(self, other):
        return self + (-_as_tensor(other))

    def __rsub__(self, other):
        return _as_tensor(other) + (-self)

    # -- shape ops ------------------------------------------------------

    def reshape(self, *shape):
        def bwd(g):
            self.grad += g.reshape(self.data.shape)

        return Tensor(self.data.reshape(*shape), (self,), bwd)

    def transpose(self):
        """Swap the last two axes: (..., M, N) -> (..., N, M)."""
        if self.data.ndim not in (2, 3):
            raise ShapeMismatch("transpose expects a 2-d or 3-d tensor")

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


def _tap_major(filters: np.ndarray) -> np.ndarray:
    """(C_out, C_in, W) filters as (C_in, W*C_out): column block w is tap w."""
    c_out, c_in, width = filters.shape
    return filters.transpose(1, 2, 0).reshape(c_in, width * c_out)


def _tap_slices(first: int, stop: int, width: int, pad: int, t_out: int):
    """For each tap w, the output steps j0:j1 that input steps first..stop-1
    reach through w (input step s feeds output step s + pad - w), and the
    offset of the input step feeding j0 within that span."""
    for w in range(width):
        shift = first + pad - w
        j0, j1 = max(shift, 0), min(stop + pad - w, t_out)
        if j1 > j0:
            yield w, j0, j1, j0 - shift


# input steps multiplied per product in conv1d, which bounds its transients
CONV_BLOCK_ROWS = 256


def _live_spans(batch: np.ndarray) -> list[tuple[int, int]]:
    """For each (C_in, T) input of a batch, the steps from its first to its
    last holding a nonzero value; (0, 0) for an all-zero input."""
    alive = batch.any(axis=1)
    t = alive.shape[1]
    first = alive.argmax(axis=1)
    stop = t - alive[:, ::-1].argmax(axis=1)
    return [
        (int(lo), int(hi)) if any_live else (0, 0)
        for lo, hi, any_live in zip(first, stop, alive.any(axis=1))
    ]


def _span_blocks(batch: np.ndarray, spans: list[tuple[int, int]]):
    """Split the inputs into runs of consecutive ones whose spans hold at
    most CONV_BLOCK_ROWS steps in all (a longer input is a run of its own).
    Yields each run as its (input, first step, stop step) triples and the
    time-major rows of those steps, concatenated (a view for one input)."""

    def rows(run):
        if len(run) == 1:
            i, j0, j1 = run[0]
            return batch[i, :, j0:j1].T
        return np.concatenate([batch[i, :, j0:j1].T for i, j0, j1 in run])

    run: list[tuple[int, int, int]] = []
    size = 0
    for b, (lo, hi) in enumerate(spans):
        if run and size + hi - lo > CONV_BLOCK_ROWS:
            yield run, rows(run)
            run, size = [], 0
        run.append((b, lo, hi))
        size += hi - lo
    if run:
        yield run, rows(run)


def conv1d(x: np.ndarray, filters: Tensor, bias: Tensor, pad: int) -> Tensor:
    """Stride-1 cross-correlation with symmetric zero padding over a batch
    of constant inputs.

    x: (B, C_in, T) plain ndarray, filters: (C_out, C_in, W), bias: (C_out,).
    Output: (B, C_out, T_out), T_out = T + 2*pad - W + 1.  The input is a
    constant: it gets no graph node and no gradient.

    Each input is read time-major, and only its live span, the steps from
    its first to its last holding a nonzero value, is multiplied: leading
    and trailing all-zero steps (post padding) add exactly nothing.  The
    live rows of consecutive inputs are concatenated, up to CONV_BLOCK_ROWS
    rows, and multiplied by the tap-major filters (C_in, W*C_out) in one
    product; each tap's slice of an input's block of that product is then
    added at its shift.
    """
    batch = np.asarray(x, dtype=np.float64)
    if batch.ndim != 3 or filters.data.ndim != 3:
        raise ShapeMismatch("conv1d expects x (B, C_in, T) and filters (C_out, C_in, W)")
    n, c_in, t = batch.shape
    c_out, f_cin, width = filters.data.shape
    if f_cin != c_in or bias.data.shape != (c_out,):
        raise ShapeMismatch(
            f"conv1d shapes disagree: x {batch.shape}, filters "
            f"{filters.data.shape}, bias {bias.data.shape}"
        )
    t_out = t + 2 * pad - width + 1
    if t_out < 1:
        raise ShapeMismatch(f"filter width {width} too wide for T={t}, pad={pad}")
    spans = _live_spans(batch)
    taps = _tap_major(filters.data)
    y = np.empty((n, t_out, c_out))
    y[:] = bias.data
    for run, rows in _span_blocks(batch, spans):
        z = (rows @ taps).reshape(-1, width, c_out)
        offset = 0
        for b, lo, hi in run:
            for w, j0, j1, i0 in _tap_slices(lo, hi, width, pad, t_out):
                y[b, j0:j1] += z[offset + i0 : offset + i0 + j1 - j0, w]
            offset += hi - lo
        del rows, z  # before the next run's are made

    def bwd(g):
        g = g.swapaxes(1, 2)
        bias.grad += g.sum(axis=(0, 1))
        d_taps = np.zeros((c_in, width * c_out))
        # row s of a run's `shifted` holds, tap by tap, the output gradients
        # its live input step s fed
        for run, rows in _span_blocks(batch, spans):
            shifted = np.zeros((len(rows), width, c_out))
            offset = 0
            for b, first, stop in run:
                for w, j0, j1, i0 in _tap_slices(first, stop, width, pad, t_out):
                    shifted[offset + i0 : offset + i0 + j1 - j0, w] = g[b, j0:j1]
                offset += stop - first
            d_taps += rows.T @ shifted.reshape(len(rows), width * c_out)
            del rows, shifted
        filters.grad += d_taps.reshape(c_in, width, c_out).transpose(2, 0, 1)

    return Tensor(y.swapaxes(1, 2), (filters, bias), bwd)


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
