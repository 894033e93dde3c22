"""The per-post forward pass and losses as they were before the layers ran
over batches: one post at a time, the losses composed from elementwise
graph nodes.  Kept as the oracle the batched layers are checked against,
with the vector nodes (add, sub, neg, matmul, sigmoid, tanh, stack) that
the step-by-step recurrent oracles and the tests' summed losses are
composed from.  Also the per-tensor Adam the library stepped before its
one-buffer optimizer, as the reference that optimizer is checked against.

Every op here builds its own graph node on ``hatenet.autograd.Tensor``, so
``backward()`` on an oracle loss fills the same parameter ``.grad`` fields
as the library's batched ops do.
"""

from __future__ import annotations

import numpy as np

from hatenet.autograd import Tensor, _as_tensor, _unbroadcast

CE_EPS = 1e-12
LOSS_EPS = 1e-12
GRU_GATES = ("z", "r", "h")
LSTM_GATES = ("i", "f", "o", "g")


# -- nodes the oracles are composed from ----------------------------------


def add(a, b) -> Tensor:
    """a + b with numpy broadcasting; either operand may be a constant."""
    a, b = _as_tensor(a), _as_tensor(b)

    def bwd(g):
        a.grad += _unbroadcast(g, a.data.shape)
        b.grad += _unbroadcast(g, b.data.shape)

    return Tensor(a.data + b.data, (a, b), bwd)


def neg(x: Tensor) -> Tensor:
    def bwd(g):
        x.grad += -g

    return Tensor(-x.data, (x,), bwd)


def sub(a, b) -> Tensor:
    return add(a, neg(_as_tensor(b)))


def transpose(x: Tensor) -> Tensor:
    """(M, N) -> (N, M)."""

    def bwd(g):
        x.grad += g.T

    return Tensor(x.data.T, (x,), bwd)


def matmul(w: Tensor, x: Tensor) -> Tensor:
    """Matrix-vector product."""

    def bwd(g):
        w.grad += np.outer(g, x.data)
        x.grad += w.data.T @ g

    return Tensor(w.data @ x.data, (w, x), bwd)


def sigmoid(x: Tensor) -> Tensor:
    y = 1.0 / (1.0 + np.exp(-x.data))

    def bwd(g):
        x.grad += g * y * (1.0 - y)

    return Tensor(y, (x,), bwd)


def tanh(x: Tensor) -> Tensor:
    y = np.tanh(x.data)

    def bwd(g):
        x.grad += g * (1.0 - y * y)

    return Tensor(y, (x,), bwd)


def stack(rows: list[Tensor]) -> Tensor:
    """Stack T vectors of identical shape into a (T, ...) tensor."""

    def bwd(g):
        for i, r in enumerate(rows):
            r.grad += g[i]

    return Tensor(np.stack([r.data for r in rows]), tuple(rows), bwd)


def pick(x: Tensor, i: int) -> Tensor:
    """Scalar element of a vector."""
    def bwd(g):
        x.grad[i] += g

    return Tensor(x.data[i], (x,), bwd)


def log(x: Tensor) -> Tensor:
    def bwd(g):
        x.grad += g / x.data

    return Tensor(np.log(x.data), (x,), bwd)


def minimum(x: Tensor, cap: float) -> Tensor:
    def bwd(g):
        x.grad += g * (x.data < cap)

    return Tensor(np.minimum(x.data, cap), (x,), bwd)


def clip_min(x: Tensor, floor: float) -> Tensor:
    def bwd(g):
        x.grad += g * (x.data > floor)

    return Tensor(np.maximum(x.data, floor), (x,), bwd)


def softmax(x: Tensor) -> Tensor:
    shifted = x.data - x.data.max()
    e = np.exp(shifted)
    y = e / e.sum()

    def bwd(g):
        x.grad += y * (g - np.dot(g, y))

    return Tensor(y, (x,), bwd)


def cross_entropy(pred: Tensor, target: int) -> Tensor:
    """-log(pred[target]) with the probability clamped to [1e-12, 1]."""
    return neg(log(minimum(clip_min(pick(pred, target), CE_EPS), 1.0)))


def weak_loss(y: Tensor, lb: np.ndarray, ub: np.ndarray, w: np.ndarray) -> Tensor:
    below = add(minimum(sub(y, lb), 0.0), 1.0)
    above = add(minimum(sub(ub, y), 0.0), 1.0)
    logs = add(log(clip_min(below, LOSS_EPS)), log(clip_min(above, LOSS_EPS)))
    return add(neg((logs * w).sum()), 0.0)


# -- layers, one post at a time -------------------------------------------


def _tap_major(filters: np.ndarray) -> np.ndarray:
    c_out, c_in, width = filters.shape
    return filters.transpose(1, 2, 0).reshape(c_in, width * c_out)


def _tap_slices(first: int, stop: int, width: int, pad: int, t_out: int):
    for w in range(width):
        shift = first + pad - w
        j0, j1 = max(shift, 0), min(stop + pad - w, t_out)
        if j1 > j0:
            yield w, j0, j1, j0 - shift


def conv1d(xd: np.ndarray, filters: Tensor, bias: Tensor, pad: int) -> Tensor:
    """(C_in, T) constant input -> (C_out, T_out) over its live span."""
    c_in, t = xd.shape
    c_out, _, width = filters.data.shape
    t_out = t + 2 * pad - width + 1
    steps = np.flatnonzero(xd.any(axis=0))
    lo, hi = (int(steps[0]), int(steps[-1]) + 1) if steps.size else (0, 0)
    live = xd.T[lo:hi]
    z = (live @ _tap_major(filters.data)).reshape(hi - lo, width, c_out)
    y = np.broadcast_to(bias.data, (t_out, c_out)).copy()
    for w, j0, j1, i0 in _tap_slices(lo, hi, width, pad, t_out):
        y[j0:j1] += z[i0 : i0 + j1 - j0, w]

    def bwd(g):
        g = g.T
        bias.grad += g.sum(axis=0)
        shifted = np.zeros((hi - lo, width, c_out))
        for w, j0, j1, i0 in _tap_slices(lo, hi, width, pad, t_out):
            shifted[i0 : i0 + j1 - j0, w] = g[j0:j1]
        d_taps = live.T @ shifted.reshape(hi - lo, width * c_out)
        filters.grad += d_taps.reshape(c_in, width, c_out).transpose(2, 0, 1)

    return Tensor(y.T, (filters, bias), bwd)


def maxpool1d(x: Tensor, rate: int) -> Tensor:
    c, t = x.data.shape
    t_out = t // rate
    windows = x.data[:, : t_out * rate].reshape(c, t_out, rate)
    idx = windows.argmax(axis=2)

    def bwd(g):
        cols = idx + np.arange(t_out)[None, :] * rate
        np.add.at(x.grad, (np.arange(c)[:, None], cols), g)

    return Tensor(windows.max(axis=2), (x,), bwd)


def global_maxpool(x: Tensor) -> Tensor:
    idx = x.data.argmax(axis=0)

    def bwd(g):
        np.add.at(x.grad, (idx, np.arange(x.data.shape[1])), g)

    return Tensor(x.data.max(axis=0), (x,), bwd)


def _sigmoid(a):
    return 1.0 / (1.0 + np.exp(-a))


def _gates(p, gates):
    return tuple([p[f"{kind}_{gate}"] for gate in gates] for kind in "wub")


def _scatter(tensors, grad):
    for tensor, part in zip(tensors, np.split(grad, len(tensors))):
        tensor.grad += part


def gru_forward(inputs: Tensor, p: dict) -> Tensor:
    ws, us, bs = _gates(p, GRU_GATES)
    w = np.concatenate([t.data for t in ws])
    xp = inputs.data @ w.T + np.concatenate([t.data for t in bs])
    u_zr = np.concatenate([us[0].data, us[1].data])
    u_h = us[2].data
    t_steps, hidden = inputs.data.shape[0], u_h.shape[0]
    h = np.zeros((t_steps + 1, hidden))
    zr = np.empty((t_steps, 2 * hidden))
    g = np.empty((t_steps, hidden))
    rh = np.empty((t_steps, hidden))
    for t in range(t_steps):
        zr[t] = _sigmoid(xp[t, : 2 * hidden] + u_zr @ h[t])
        z, r = zr[t, :hidden], zr[t, hidden:]
        rh[t] = r * h[t]
        g[t] = np.tanh(xp[t, 2 * hidden :] + u_h @ rh[t])
        h[t + 1] = (1.0 - z) * h[t] + z * g[t]

    def bwd(grad):
        d_zr = zr * (1.0 - zr)
        d_g = 1.0 - g * g
        da = np.empty((t_steps, 3 * hidden))
        dh = np.zeros(hidden)
        for t in range(t_steps - 1, -1, -1):
            dh = dh + grad[t]
            z, r = zr[t, :hidden], zr[t, hidden:]
            da[t, 2 * hidden :] = dh * z * d_g[t]
            drh = da[t, 2 * hidden :] @ u_h
            da[t, :hidden] = dh * (g[t] - h[t])
            da[t, hidden : 2 * hidden] = drh * h[t]
            da[t, : 2 * hidden] *= d_zr[t]
            dh = dh * (1.0 - z) + drh * r + da[t, : 2 * hidden] @ u_zr
        inputs.grad += da @ w
        _scatter(ws, da.T @ inputs.data)
        _scatter(bs, da.sum(axis=0))
        _scatter(us[:2], da[:, : 2 * hidden].T @ h[:-1])
        us[2].grad += da[:, 2 * hidden :].T @ rh

    return Tensor(h[1:], (inputs, *ws, *us, *bs), bwd)


def lstm_forward(inputs: Tensor, p: dict) -> Tensor:
    ws, us, bs = _gates(p, LSTM_GATES)
    w = np.concatenate([t.data for t in ws])
    xp = inputs.data @ w.T + np.concatenate([t.data for t in bs])
    u = np.concatenate([t.data for t in us])
    t_steps, hidden = inputs.data.shape[0], u.shape[1]
    h = np.zeros((t_steps + 1, hidden))
    c = np.zeros((t_steps + 1, hidden))
    act = np.empty((t_steps, 4 * hidden))
    tc = np.empty((t_steps, hidden))
    for t in range(t_steps):
        a = xp[t] + u @ h[t]
        act[t, : 3 * hidden] = _sigmoid(a[: 3 * hidden])
        act[t, 3 * hidden :] = np.tanh(a[3 * hidden :])
        i, f, o, g = act[t].reshape(4, hidden)
        c[t + 1] = f * c[t] + i * g
        tc[t] = np.tanh(c[t + 1])
        h[t + 1] = o * tc[t]

    def bwd(grad):
        d_act = np.empty_like(act)
        d_act[:, : 3 * hidden] = act[:, : 3 * hidden] * (1.0 - act[:, : 3 * hidden])
        d_act[:, 3 * hidden :] = 1.0 - act[:, 3 * hidden :] ** 2
        da = np.empty((t_steps, 4 * hidden))
        dh = np.zeros(hidden)
        dc = np.zeros(hidden)
        for t in range(t_steps - 1, -1, -1):
            dh = dh + grad[t]
            i, f, o, g = act[t].reshape(4, hidden)
            dc = dc + dh * o * (1.0 - tc[t] * tc[t])
            da[t, :hidden] = dc * g
            da[t, hidden : 2 * hidden] = dc * c[t]
            da[t, 2 * hidden : 3 * hidden] = dh * tc[t]
            da[t, 3 * hidden :] = dc * i
            da[t] *= d_act[t]
            dc = dc * f
            dh = da[t] @ u
        inputs.grad += da @ w
        _scatter(ws, da.T @ inputs.data)
        _scatter(bs, da.sum(axis=0))
        _scatter(us, da.T @ h[:-1])

    return Tensor(h[1:], (inputs, *ws, *us, *bs), bwd)


def dense(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    return add(matmul(weight, x), bias)


def dropout(x: Tensor, p: float, rng: np.random.Generator) -> Tensor:
    mask = (rng.random(x.data.shape) >= p) / (1.0 - p)

    def bwd(g):
        x.grad += g * mask

    return Tensor(x.data * mask, (x,), bwd)


def forward(params, config, values: np.ndarray, train: bool = False, rng=None) -> Tensor:
    """Class probabilities of one (seq_len, emb_dim) post."""
    planes = values.T if config.conv_axis == "sequence" else values
    fp = params.feature.params
    convolved = conv1d(planes, fp["conv_w"], fp["conv_b"], config.conv_pad)
    pooled = maxpool1d(convolved, config.pool_rate)
    if config.variant == "cnn_rnn_fc":
        rnn = gru_forward if config.rnn_kind == "gru" else lstm_forward
        features = global_maxpool(rnn(transpose(pooled), fp))
    else:
        features = pooled.reshape(-1)
    cp = params.classifier.params
    hidden = dense(features, cp["fc1_w"], cp["fc1_b"]).relu()
    if train and config.dropout_p > 0:
        hidden = dropout(hidden, config.dropout_p, rng)
    return softmax(dense(hidden, cp["fc2_w"], cp["fc2_b"]))


# -- the optimizer, one tensor at a time -----------------------------------


class Adam:
    """Adam with bias correction over parameter groups, one tensor at a
    time, its moments keyed by id(tensor); a tensor whose grad is None is
    left untouched."""

    def __init__(self, lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._state: dict[int, dict] = {}

    def step(self, groups) -> None:
        for group in groups:
            for param in group.params.values():
                if param.grad is None:
                    continue
                state = self._state.get(id(param))
                if state is None:
                    state = {
                        "m": np.zeros_like(param.data),
                        "v": np.zeros_like(param.data),
                        "t": 0,
                    }
                    self._state[id(param)] = state
                state["t"] += 1
                g = param.grad
                state["m"] = self.beta1 * state["m"] + (1 - self.beta1) * g
                state["v"] = self.beta2 * state["v"] + (1 - self.beta2) * g * g
                m_hat = state["m"] / (1 - self.beta1 ** state["t"])
                v_hat = state["v"] / (1 - self.beta2 ** state["t"])
                param.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
