"""Layer-level building blocks: parameter groups, initialization, the
dense forward pass composed from autograd primitives, and the GRU/LSTM
layers as single autograd operations with hand-written backward passes."""

from __future__ import annotations

import math

import numpy as np

from .autograd import Tensor
from .errors import ShapeMismatch

CE_EPS = 1e-12
GRU_GATES = ("z", "r", "h")
LSTM_GATES = ("i", "f", "o", "g")


class ParamGroup:
    """Named parameter tensors, saved together."""

    def __init__(self, name: str, params: dict[str, Tensor]):
        self.name = name
        self.params = params

    def n_params(self) -> int:
        return sum(v.data.size for v in self.params.values())


def init_param(rng: np.random.Generator, shape) -> np.ndarray:
    """The initial value of one parameter tensor: zeros for a 1-d bias;
    Glorot-uniform for a weight (out, in, *taps), with fan_in = in * taps
    and fan_out = out * taps."""
    if len(shape) == 1:
        return np.zeros(shape)
    taps = math.prod(shape[2:])
    limit = np.sqrt(6.0 / (shape[1] * taps + shape[0] * taps))
    return rng.uniform(-limit, limit, size=shape)


def fc_forward(x: Tensor, weight: Tensor, bias: Tensor, activation: "str | None") -> Tensor:
    """Affine map ``x @ W.T + b`` of a vector or of each row of a (B, F)
    matrix, as one node, plus an optional relu/softmax activation."""
    xd, w = x.data, weight.data
    if xd.ndim not in (1, 2) or w.ndim != 2 or xd.shape[-1] != w.shape[1]:
        raise ShapeMismatch(f"dense layer of {w.shape} cannot take input {xd.shape}")
    rows = xd.reshape(-1, w.shape[1])
    out_shape = (*xd.shape[:-1], w.shape[0])

    def bwd(g):
        g = g.reshape(-1, w.shape[0])
        x.grad += (g @ w).reshape(xd.shape)
        weight.grad += g.T @ rows
        bias.grad += g.sum(axis=0)

    y = Tensor((rows @ w.T + bias.data).reshape(out_shape), (x, weight, bias), bwd)
    if activation is None:
        return y
    if activation == "relu":
        return y.relu()
    if activation == "softmax":
        return y.softmax()
    raise ValueError(f"unknown activation {activation!r}")


def rnn_shapes(d_in: int, hidden: int, gates) -> list[tuple[str, tuple[int, ...]]]:
    """(name, shape) of W_g (hidden, d_in), U_g (hidden, hidden) and b_g
    (hidden,) for each gate g of GRU_GATES or LSTM_GATES, gate by gate."""
    return [(f"{kind}_{gate}", shape) for gate in gates
            for kind, shape in (("w", (hidden, d_in)), ("u", (hidden, hidden)), ("b", (hidden,)))]


def init_rnn(rng: np.random.Generator, d_in: int, hidden: int, gates) -> tuple[Tensor, ...]:
    """The recurrent layer's gate-major W (G*H, D), contiguous Uᵀ (H, G*H) and
    b (G*H,), with zeroed gradients; each gate's tensors drawn in rnn_shapes order."""
    drawn = {name: init_param(rng, shape) for name, shape in rnn_shapes(d_in, hidden, gates)}
    w, u, b = (np.concatenate([drawn[f"{kind}_{gate}"] for gate in gates]) for kind in "wub")
    return tuple(Tensor(block, grad=np.zeros_like(block)) for block in (w, u.T.copy(), b))


def rnn_views(w: Tensor, u_t: Tensor, b: Tensor, gates) -> dict[str, Tensor]:
    """W_g, U_g and b_g of each gate g (rnn_shapes order) as Tensors over
    the gate's rows of the gate-major w, u_t.T and b, each gradient over the
    same rows of its block's gradient (None where the block has none)."""
    hidden = len(b.data) // len(gates)
    rows = [slice(i * hidden, (i + 1) * hidden) for i in range(len(gates))]
    u = Tensor(u_t.data.T, grad=None if u_t.grad is None else u_t.grad.T)
    return {f"{kind}_{gate}": Tensor(t.data[r], grad=None if t.grad is None else t.grad[r])
            for gate, r in zip(gates, rows) for kind, t in zip("wub", (w, u, b))}


def sigmoid(a: np.ndarray, out: "np.ndarray | None" = None) -> np.ndarray:
    """1 / (1 + exp(-a)), written into `out` when given."""
    out = np.negative(a, out=out)
    np.exp(out, out=out)
    out += 1.0
    return np.reciprocal(out, out=out)


def _projected(inputs: Tensor, w: Tensor, b: Tensor) -> tuple[np.ndarray, np.ndarray]:
    """The (B, T, D) recurrent inputs as a contiguous (T, B, D) array, and
    their projection x @ W.T + b for all T steps of all B inputs in one GEMM,
    (T, B, G*H)."""
    x = inputs.data
    if x.ndim != 3 or x.shape[-1] != w.data.shape[1]:
        raise ShapeMismatch(f"recurrent input {x.shape} does not fit W {w.data.shape}")
    x = np.ascontiguousarray(x.swapaxes(0, 1))
    xp = x.reshape(-1, x.shape[-1]) @ w.data.T
    xp += b.data
    return x, xp.reshape(*x.shape[:2], -1)


def _flat(a: np.ndarray) -> np.ndarray:
    """(T, B, K) as (T*B, K)."""
    return a.reshape(-1, a.shape[-1])


def gru_forward(inputs: Tensor, w: Tensor, u_t: Tensor, b: Tensor) -> Tensor:
    """Gated recurrent unit over (B, T, D) inputs; returns all T hidden
    states, (B, T, H).  w, u_t and b are gate-major (z, r, h): W (3H, D),
    Uᵀ (H, 3H) and b (3H,).

    z_t = sigmoid(W_z x_t + U_z h + b_z)
    r_t = sigmoid(W_r x_t + U_r h + b_r)
    g_t = tanh(W_h x_t + U_h (r_t * h) + b_h)
    h_t = (1 - z_t) * h + z_t * g_t

    One autograd node with a hand-written backward pass through time that
    adds into the blocks' gradients.  The input projection of all steps and
    inputs is one GEMM against W; each step then multiplies the (B, H)
    states once by [U_z; U_r]ᵀ and once by U_hᵀ, column blocks of the stored
    Uᵀ, as model._stacked_rnn does; the backward pass reads a contiguous U.
    """
    x, xp = _projected(inputs, w, b)
    t_steps, n = x.shape[:2]
    hidden = u_t.data.shape[0]
    ut_zr, ut_h = u_t.data[:, : 2 * hidden], u_t.data[:, 2 * hidden :]
    h = np.zeros((t_steps + 1, n, hidden))  # h[t] is the state entering step t
    zr = np.empty((t_steps, n, 2 * hidden))
    g = np.empty((t_steps, n, hidden))
    rh = np.empty((t_steps, n, hidden))
    xp_zr, xp_h = xp[..., : 2 * hidden], xp[..., 2 * hidden :]
    z_steps, r_steps = zr[..., :hidden], zr[..., hidden:]
    for t in range(t_steps):
        sigmoid(xp_zr[t] + h[t] @ ut_zr, out=zr[t])
        np.multiply(r_steps[t], h[t], out=rh[t])
        np.tanh(xp_h[t] + rh[t] @ ut_h, out=g[t])
        z = z_steps[t]
        h[t + 1] = (1.0 - z) * h[t] + z * g[t]

    def bwd(grad):
        grad = grad.swapaxes(0, 1)
        u_zr, u_h = np.split(np.ascontiguousarray(u_t.data.T), [2 * hidden])
        d_zr = zr * (1.0 - zr)
        d_g = 1.0 - g * g
        da = np.empty((t_steps, n, 3 * hidden))  # gradient of the preactivations
        dh = np.zeros((n, hidden))
        for t in range(t_steps - 1, -1, -1):
            dh = dh + grad[t]
            z, r = zr[t, :, :hidden], zr[t, :, hidden:]
            da[t, :, 2 * hidden :] = dh * z * d_g[t]
            drh = da[t, :, 2 * hidden :] @ u_h
            da[t, :, :hidden] = dh * (g[t] - h[t])
            da[t, :, hidden : 2 * hidden] = drh * h[t]
            da[t, :, : 2 * hidden] *= d_zr[t]
            dh = dh * (1.0 - z) + drh * r + da[t, :, : 2 * hidden] @ u_zr
        inputs.grad += (da @ w.data).swapaxes(0, 1)
        da = _flat(da)
        w.grad += da.T @ _flat(x)
        b.grad += da.sum(axis=0)
        u_t.grad[:, : 2 * hidden] += (da[:, : 2 * hidden].T @ _flat(h[:-1])).T
        u_t.grad[:, 2 * hidden :] += (da[:, 2 * hidden :].T @ _flat(rh)).T

    return Tensor(h[1:].swapaxes(0, 1), (inputs, w, u_t, b), bwd)


def lstm_forward(inputs: Tensor, w: Tensor, u_t: Tensor, b: Tensor) -> Tensor:
    """LSTM with forget/input/output gates over (B, T, D) inputs; returns
    all T hidden states, (B, T, H).  w, u_t and b are gate-major (i, f, o, g):
    W (4H, D), Uᵀ (H, 4H) and b (4H,).

    i, f, o = sigmoid(W x_t + U h + b) per gate, g = tanh(W_g x_t + U_g h + b_g)
    c_t = f * c + i * g
    h_t = o * tanh(c_t)

    One autograd node with a hand-written backward pass through time that
    adds into the blocks' gradients: one GEMM projects all steps of all
    inputs through W, and each step multiplies the (B, H) states once by the
    stored Uᵀ, as model._stacked_rnn does; the backward pass reads a contiguous U.
    """
    x, xp = _projected(inputs, w, b)
    t_steps, n = x.shape[:2]
    hidden = u_t.data.shape[0]
    h = np.zeros((t_steps + 1, n, hidden))  # h[t], c[t] enter step t
    c = np.zeros((t_steps + 1, n, hidden))
    act = np.empty((t_steps, n, 4 * hidden))  # i, f, o, g
    tc = np.empty((t_steps, n, hidden))
    sig_steps, tanh_steps = act[..., : 3 * hidden], act[..., 3 * hidden :]
    for t in range(t_steps):
        a = xp[t] + h[t] @ u_t.data
        sigmoid(a[:, : 3 * hidden], out=sig_steps[t])
        np.tanh(a[:, 3 * hidden :], out=tanh_steps[t])
        i, f, o, g = act[t].reshape(n, 4, hidden).swapaxes(0, 1)
        c[t + 1] = f * c[t] + i * g
        np.tanh(c[t + 1], out=tc[t])
        np.multiply(o, tc[t], out=h[t + 1])

    def bwd(grad):
        grad = grad.swapaxes(0, 1)
        u = np.ascontiguousarray(u_t.data.T)
        d_act = np.empty_like(act)
        d_act[..., : 3 * hidden] = act[..., : 3 * hidden] * (1.0 - act[..., : 3 * hidden])
        d_act[..., 3 * hidden :] = 1.0 - act[..., 3 * hidden :] ** 2
        da = np.empty((t_steps, n, 4 * hidden))  # gradient of the preactivations
        dh = np.zeros((n, hidden))
        dc = np.zeros((n, hidden))
        for t in range(t_steps - 1, -1, -1):
            dh = dh + grad[t]
            i, f, o, g = act[t].reshape(n, 4, hidden).swapaxes(0, 1)
            dc = dc + dh * o * (1.0 - tc[t] * tc[t])
            da[t, :, :hidden] = dc * g
            da[t, :, hidden : 2 * hidden] = dc * c[t]
            da[t, :, 2 * hidden : 3 * hidden] = dh * tc[t]
            da[t, :, 3 * hidden :] = dc * i
            da[t] *= d_act[t]
            dc = dc * f
            dh = da[t] @ u
        inputs.grad += (da @ w.data).swapaxes(0, 1)
        da = _flat(da)
        w.grad += da.T @ _flat(x)
        b.grad += da.sum(axis=0)
        u_t.grad += (da.T @ _flat(h[:-1])).T

    return Tensor(h[1:].swapaxes(0, 1), (inputs, w, u_t, b), bwd)


def cross_entropy(probs: Tensor, targets) -> Tensor:
    """Mean over a batch of -log(p[target]), each probability clamped to
    [1e-12, 1].

    ``probs`` is a probability vector with one int target, or (B, C) rows
    with B targets.  One node with a hand-written backward pass; a clamped
    probability gets no gradient.
    """
    if probs.data.ndim not in (1, 2):
        raise ShapeMismatch("cross_entropy expects a probability vector or (B, C) rows")
    rows = probs.data.reshape(-1, probs.data.shape[-1])
    n = rows.shape[0]
    picks = (np.arange(n), np.asarray(targets, dtype=np.int64).reshape(-1))
    if picks[1].shape != (n,):
        raise ShapeMismatch(f"{picks[1].size} targets for {n} probability rows")
    picked = rows[picks]
    losses = -np.log(np.minimum(np.maximum(picked, CE_EPS), 1.0))
    scale = 1.0 / n

    def bwd(g):
        d = np.zeros_like(rows)
        unclamped = (picked > CE_EPS) & (picked < 1.0)
        d[picks] = np.divide(-(g * scale), picked, out=np.zeros(n), where=unclamped)
        probs.grad += d.reshape(probs.data.shape)

    return Tensor(losses.sum() * scale, (probs,), bwd)
