"""Layer-level building blocks: parameter groups, initialization, and the
recurrent/dense forward passes composed from autograd primitives."""

from __future__ import annotations

import numpy as np

from .autograd import Tensor, stack
from .errors import ShapeMismatch

CE_EPS = 1e-12


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
    for gate in ("z", "r", "h"):
        p[f"w_{gate}"] = glorot_uniform(rng, (hidden, d_in), d_in, hidden)
        p[f"u_{gate}"] = glorot_uniform(rng, (hidden, hidden), hidden, hidden)
        p[f"b_{gate}"] = zeros(hidden)
    return p


def init_lstm(rng: np.random.Generator, d_in: int, hidden: int) -> dict[str, Tensor]:
    p = {}
    for gate in ("i", "f", "o", "g"):
        p[f"w_{gate}"] = glorot_uniform(rng, (hidden, d_in), d_in, hidden)
        p[f"u_{gate}"] = glorot_uniform(rng, (hidden, hidden), hidden, hidden)
        p[f"b_{gate}"] = zeros(hidden)
    return p


def gru_forward(inputs: Tensor, p: dict[str, Tensor]) -> Tensor:
    """Gated recurrent unit over (T, D) inputs; returns all T hidden states.

    z_t = sigmoid(W_z x_t + U_z h + b_z)
    r_t = sigmoid(W_r x_t + U_r h + b_r)
    g_t = tanh(W_h x_t + U_h (r_t * h) + b_h)
    h_t = (1 - z_t) * h + z_t * g_t
    """
    t_steps = inputs.data.shape[0]
    hidden = p["u_z"].data.shape[0]
    h = zeros(hidden)
    states = []
    for t in range(t_steps):
        x = inputs.row(t)
        z = (p["w_z"] @ x + p["u_z"] @ h + p["b_z"]).sigmoid()
        r = (p["w_r"] @ x + p["u_r"] @ h + p["b_r"]).sigmoid()
        g = (p["w_h"] @ x + p["u_h"] @ (r * h) + p["b_h"]).tanh()
        h = (1.0 - z) * h + z * g
        states.append(h)
    return stack(states)


def lstm_forward(inputs: Tensor, p: dict[str, Tensor]) -> Tensor:
    """LSTM with forget/input/output gates over (T, D); returns hidden states."""
    t_steps = inputs.data.shape[0]
    hidden = p["u_i"].data.shape[0]
    h = zeros(hidden)
    c = zeros(hidden)
    states = []
    for t in range(t_steps):
        x = inputs.row(t)
        i = (p["w_i"] @ x + p["u_i"] @ h + p["b_i"]).sigmoid()
        f = (p["w_f"] @ x + p["u_f"] @ h + p["b_f"]).sigmoid()
        o = (p["w_o"] @ x + p["u_o"] @ h + p["b_o"]).sigmoid()
        g = (p["w_g"] @ x + p["u_g"] @ h + p["b_g"]).tanh()
        c = f * c + i * g
        h = o * c.tanh()
        states.append(h)
    return stack(states)


def cross_entropy(pred: Tensor, target: int) -> Tensor:
    """-log(pred[target]) with the probability clamped to [1e-12, 1]."""
    if pred.data.ndim != 1:
        raise ShapeMismatch("cross_entropy expects a probability vector")
    return -(pred.pick(target).clip_min(CE_EPS).minimum(1.0).log())
