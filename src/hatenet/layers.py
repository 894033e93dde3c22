"""Layer-level building blocks: parameter groups, initialization, the
dense forward pass composed from autograd primitives, and the GRU/LSTM
layers as single autograd operations with hand-written backward passes."""

from __future__ import annotations

import numpy as np

from .autograd import Tensor
from .errors import ShapeMismatch

CE_EPS = 1e-12
GRU_GATES = ("z", "r", "h")
LSTM_GATES = ("i", "f", "o", "g")


class ParamGroup:
    """Named parameter tensors updated (or frozen) together."""

    def __init__(self, name: str, params: dict[str, Tensor], trainable: bool = True):
        self.name = name
        self.params = params
        self.trainable = trainable

    def copy(self) -> "ParamGroup":
        cloned = {k: Tensor(v.data.copy()) for k, v in self.params.items()}
        return ParamGroup(self.name, cloned, self.trainable)

    def n_params(self) -> int:
        return sum(v.data.size for v in self.params.values())


def glorot_uniform(rng: np.random.Generator, shape, fan_in: int, fan_out: int) -> Tensor:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-limit, limit, size=shape))


def zeros(shape) -> Tensor:
    return Tensor(np.zeros(shape))


def fc_forward(x: Tensor, weight: Tensor, bias: Tensor, activation: "str | None") -> Tensor:
    """Affine map plus optional relu/softmax activation."""
    y = weight @ x + bias
    if activation is None or activation == "none":
        return y
    if activation == "relu":
        return y.relu()
    if activation == "softmax":
        return y.softmax()
    raise ValueError(f"unknown activation {activation!r}")


def init_gru(rng: np.random.Generator, d_in: int, hidden: int) -> dict[str, Tensor]:
    p = {}
    for gate in GRU_GATES:
        p[f"w_{gate}"] = glorot_uniform(rng, (hidden, d_in), d_in, hidden)
        p[f"u_{gate}"] = glorot_uniform(rng, (hidden, hidden), hidden, hidden)
        p[f"b_{gate}"] = zeros(hidden)
    return p


def init_lstm(rng: np.random.Generator, d_in: int, hidden: int) -> dict[str, Tensor]:
    p = {}
    for gate in LSTM_GATES:
        p[f"w_{gate}"] = glorot_uniform(rng, (hidden, d_in), d_in, hidden)
        p[f"u_{gate}"] = glorot_uniform(rng, (hidden, hidden), hidden, hidden)
        p[f"b_{gate}"] = zeros(hidden)
    return p


def _sigmoid(a: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-a))


def _gate_params(p: dict[str, Tensor], gates) -> tuple[list, list, list]:
    """The per-gate W, U and b tensors, each list in gate order."""
    return tuple([p[f"{kind}_{gate}"] for gate in gates] for kind in "wub")


def _stacked(tensors: list[Tensor]) -> np.ndarray:
    """Per-gate arrays stacked gate-major along the output axis."""
    return np.concatenate([t.data for t in tensors])


def _scatter(tensors: list[Tensor], grad: np.ndarray) -> None:
    """Add the gate-major row blocks of a stacked gradient to each gate."""
    for tensor, part in zip(tensors, np.split(grad, len(tensors))):
        tensor.grad += part


def _input_projection(inputs: Tensor, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x @ W.T + b for all T steps at once: (T, gates * H)."""
    x = inputs.data
    if x.ndim != 2 or x.shape[1] != w.shape[1]:
        raise ShapeMismatch(f"recurrent input {x.shape} does not fit W {w.shape}")
    return x @ w.T + b


def gru_forward(inputs: Tensor, p: dict[str, Tensor]) -> Tensor:
    """Gated recurrent unit over (T, D) inputs; returns all T hidden states.

    z_t = sigmoid(W_z x_t + U_z h + b_z)
    r_t = sigmoid(W_r x_t + U_r h + b_r)
    g_t = tanh(W_h x_t + U_h (r_t * h) + b_h)
    h_t = (1 - z_t) * h + z_t * g_t

    One autograd node with a hand-written backward pass through time.  The
    input projection of all steps is one GEMM over the stacked gate
    matrices; each step then does one matvec with [U_z; U_r] and one
    with U_h.
    """
    ws, us, bs = _gate_params(p, GRU_GATES)
    w = _stacked(ws)
    xp = _input_projection(inputs, w, _stacked(bs))
    u_zr = _stacked(us[:2])
    u_h = us[2].data
    t_steps, hidden = inputs.data.shape[0], u_h.shape[0]
    h = np.zeros((t_steps + 1, hidden))  # h[t] is the state entering step t
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
        da = np.empty((t_steps, 3 * hidden))  # gradient of the preactivations
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


def lstm_forward(inputs: Tensor, p: dict[str, Tensor]) -> Tensor:
    """LSTM with forget/input/output gates over (T, D); returns hidden states.

    i, f, o = sigmoid(W x_t + U h + b) per gate, g = tanh(W_g x_t + U_g h + b_g)
    c_t = f * c + i * g
    h_t = o * tanh(c_t)

    One autograd node with a hand-written backward pass through time: one
    GEMM projects the inputs of all steps through the four stacked gate
    matrices, and each step does one matvec with the stacked U.
    """
    ws, us, bs = _gate_params(p, LSTM_GATES)
    w = _stacked(ws)
    xp = _input_projection(inputs, w, _stacked(bs))
    u = _stacked(us)
    t_steps, hidden = inputs.data.shape[0], u.shape[1]
    h = np.zeros((t_steps + 1, hidden))  # h[t], c[t] enter step t
    c = np.zeros((t_steps + 1, hidden))
    act = np.empty((t_steps, 4 * hidden))  # i, f, o, g
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
        da = np.empty((t_steps, 4 * hidden))  # gradient of the preactivations
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


def cross_entropy(pred: Tensor, target: int) -> Tensor:
    """-log(pred[target]) with the probability clamped to [1e-12, 1]."""
    if pred.data.ndim != 1:
        raise ShapeMismatch("cross_entropy expects a probability vector")
    return -(pred.pick(target).clip_min(CE_EPS).minimum(1.0).log())
