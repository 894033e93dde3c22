"""Layer-level building blocks: parameter groups, initialization, the
dense forward pass composed from autograd primitives, and the GRU/LSTM
layers as single autograd operations with hand-written backward passes;
gru_cell and lstm_cell, their one step each, also run model's stacked pass."""

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


def _flat(a: np.ndarray) -> np.ndarray:
    """(T, B, K) as (T*B, K)."""
    return a.reshape(-1, a.shape[-1])


def _recurrence(steps, back, n_states: int, inputs: Tensor, w: Tensor, u_t: Tensor,
                b: Tensor, t0: int, conv_b: "Tensor | None") -> Tensor:
    """A recurrent layer over (B, T, D) inputs as one autograd node with a
    hand-written backward pass through time; returns all T hidden states,
    (B, T, H).

    The first t0 steps of every input are the conv bias `conv_b`, as a
    pooled step of the batch's common left padding is, so the op does not
    read inputs[:, :t0]: it runs those steps once, on one row projected as
    conv_b @ W.T + b, repeats that row's end states over the batch and runs
    steps t0.. from there, their inputs projected in one GEMM.  Every
    input's first t0 outputs are the row's.  The backward pass runs steps
    t0.. back, then the one-row prefix from their start-state gradients and
    the prefix outputs' gradients, each summed over the batch; the prefix's
    input gradient goes to conv_b.  With t0 = 0 it is the plain recurrence.

    The step loop is `steps(xp, u_t, states)`, which runs over (T', ..., G*H)
    projected inputs from each (T' + 1, ..., H) state history's [0], writes
    the states after step t at [t + 1] and returns its activations; and
    `back(grad, d_states, states, acts, u, u_t_grad)`, which runs back from
    d_states, the gradients on the last states, given the (T', B', H)
    outputs' gradients, adds into u_t_grad and returns the preactivations'
    gradient (T', B', G*H) and the gradients on the first states.
    """
    x = inputs.data
    if x.ndim != 3 or x.shape[-1] != w.data.shape[1]:
        raise ShapeMismatch(f"recurrent input {x.shape} does not fit W {w.data.shape}")
    n, t_steps = x.shape[:2]
    if not 0 <= t0 <= t_steps or (t0 and conv_b is None):
        raise ShapeMismatch(f"a lead of {t0} of {t_steps} steps needs 0 <= t0 <= T and conv_b")
    hidden = u_t.data.shape[0]
    x = np.ascontiguousarray(x[:, t0:].swapaxes(0, 1))
    xp = _flat(x) @ w.data.T
    xp += b.data
    prefix = tuple(np.zeros((t0 + 1, 1, hidden)) for _ in range(n_states))
    if t0:
        lead_xp = conv_b.data @ w.data.T + b.data
        prefix_acts = steps(np.broadcast_to(lead_xp, (t0, 1, len(b.data))), u_t.data, prefix)
    full = tuple(np.empty((t_steps + 1, n, hidden)) for _ in range(n_states))
    for state, row in zip(full, prefix):
        state[: t0 + 1] = row
    rest = tuple(state[t0:] for state in full)
    acts = steps(xp.reshape(*x.shape[:2], len(b.data)), u_t.data, rest)

    def bwd(grad):
        grad = grad.swapaxes(0, 1)
        u = np.ascontiguousarray(u_t.data.T)
        zeros = tuple(np.zeros((n, hidden)) for _ in range(n_states))
        da, d_start = back(grad[t0:], zeros, rest, acts, u, u_t.grad)
        inputs.grad[:, t0:] += (da @ w.data).swapaxes(0, 1)
        da = _flat(da)
        w.grad += da.T @ _flat(x)
        b.grad += da.sum(axis=0)
        if t0:
            da_lead, _ = back(grad[:t0].sum(axis=1, keepdims=True),
                              tuple(d.sum(axis=0, keepdims=True) for d in d_start),
                              prefix, prefix_acts, u, u_t.grad)
            da_lead = _flat(da_lead).sum(axis=0)
            w.grad += np.outer(da_lead, conv_b.data)
            b.grad += da_lead
            conv_b.grad += da_lead @ w.data

    parents = (inputs, w, u_t, b) if conv_b is None else (inputs, w, u_t, b, conv_b)
    return Tensor(full[0][1:].swapaxes(0, 1), parents, bwd)


def gru_cell(xp: np.ndarray, u_t: np.ndarray, h: np.ndarray,
             zr=None, g=None, rh=None) -> tuple:
    """One GRU step over any leading axes: (h', zr, g, rh) from the projected
    inputs xp (..., 3H), Uᵀ (..., H, 3H) and the states h (..., H), each
    activation written into its given array or a fresh one."""
    hidden = h.shape[-1]
    zr = sigmoid(xp[..., : 2 * hidden] + h @ u_t[..., : 2 * hidden], out=zr)
    z, r = zr[..., :hidden], zr[..., hidden:]
    rh = np.multiply(r, h, out=rh)
    g = np.tanh(xp[..., 2 * hidden :] + rh @ u_t[..., 2 * hidden :], out=g)
    return (1.0 - z) * h + z * g, zr, g, rh


def _gru_steps(xp: np.ndarray, u_t: np.ndarray, states) -> tuple:
    (h,) = states
    zr = np.empty((*xp.shape[:-1], 2 * h.shape[-1]))
    g, rh = np.empty((2, *h[1:].shape))
    for t in range(len(xp)):
        h[t + 1] = gru_cell(xp[t], u_t, h[t], zr[t], g[t], rh[t])[0]
    return zr, g, rh


def _gru_back(grad, d_states, states, acts, u, u_t_grad) -> tuple:
    (dh,), (h,), (zr, g, rh) = d_states, states, acts
    t_steps, n, hidden = grad.shape
    u_zr, u_h = u[: 2 * hidden], u[2 * hidden :]
    d_zr = zr * (1.0 - zr)
    d_g = 1.0 - g * g
    da = np.empty((t_steps, n, 3 * hidden))  # gradient of the preactivations
    for t in range(t_steps - 1, -1, -1):
        dh = dh + grad[t]
        z, r = zr[t, :, :hidden], zr[t, :, hidden:]
        da[t, :, 2 * hidden :] = dh * z * d_g[t]
        drh = da[t, :, 2 * hidden :] @ u_h
        da[t, :, :hidden] = dh * (g[t] - h[t])
        da[t, :, hidden : 2 * hidden] = drh * h[t]
        da[t, :, : 2 * hidden] *= d_zr[t]
        dh = dh * (1.0 - z) + drh * r + da[t, :, : 2 * hidden] @ u_zr
    flat = _flat(da)
    u_t_grad[:, : 2 * hidden] += (flat[:, : 2 * hidden].T @ _flat(h[:-1])).T
    u_t_grad[:, 2 * hidden :] += (flat[:, 2 * hidden :].T @ _flat(rh)).T
    return da, (dh,)


def gru_forward(inputs: Tensor, w: Tensor, u_t: Tensor, b: Tensor,
                t0: int = 0, conv_b: "Tensor | None" = None) -> Tensor:
    """Gated recurrent unit over (B, T, D) inputs; returns all T hidden
    states, (B, T, H).  w, u_t and b are gate-major (z, r, h): W (3H, D),
    Uᵀ (H, 3H) and b (3H,).

    z_t = sigmoid(W_z x_t + U_z h + b_z)
    r_t = sigmoid(W_r x_t + U_r h + b_r)
    g_t = tanh(W_h x_t + U_h (r_t * h) + b_h)
    h_t = (1 - z_t) * h + z_t * g_t

    One autograd node (_recurrence: the first t0 steps of every input are
    `conv_b`, run once on one row).  Each step is gru_cell, shared with
    model._stacked_rnn: one product of the states by [U_z; U_r]ᵀ and one by
    U_hᵀ, column blocks of the stored Uᵀ.  The backward reads a contiguous U.
    """
    return _recurrence(_gru_steps, _gru_back, 1, inputs, w, u_t, b, t0, conv_b)


def lstm_cell(xp: np.ndarray, u_t: np.ndarray, h: np.ndarray, c: np.ndarray,
              sig=None, g=None, tc=None) -> tuple:
    """One LSTM step over any leading axes: (h', c', sig, g, tc) from the
    projected inputs xp (..., 4H), Uᵀ (..., H, 4H) and the states h, c
    (..., H), each activation written into its given array or a fresh one."""
    hidden = h.shape[-1]
    a = xp + h @ u_t
    sig = sigmoid(a[..., : 3 * hidden], out=sig)  # i, f, o
    g = np.tanh(a[..., 3 * hidden :], out=g)
    c = sig[..., hidden : 2 * hidden] * c + sig[..., :hidden] * g
    tc = np.tanh(c, out=tc)
    return sig[..., 2 * hidden :] * tc, c, sig, g, tc


def _lstm_steps(xp: np.ndarray, u_t: np.ndarray, states) -> tuple:
    h, c = states
    hidden = h.shape[-1]
    act = np.empty((*xp.shape[:-1], 4 * hidden))  # i, f, o, g
    tc = np.empty(h[1:].shape)
    for t in range(len(xp)):
        h[t + 1], c[t + 1] = lstm_cell(xp[t], u_t, h[t], c[t], act[t, ..., : 3 * hidden],
                                       act[t, ..., 3 * hidden :], tc[t])[:2]
    return act, tc


def _lstm_back(grad, d_states, states, acts, u, u_t_grad) -> tuple:
    (dh, dc), (h, c), (act, tc) = d_states, states, acts
    t_steps, n, hidden = grad.shape
    d_act = np.empty_like(act)
    d_act[..., : 3 * hidden] = act[..., : 3 * hidden] * (1.0 - act[..., : 3 * hidden])
    d_act[..., 3 * hidden :] = 1.0 - act[..., 3 * hidden :] ** 2
    da = np.empty((t_steps, n, 4 * hidden))  # gradient of the preactivations
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
    u_t_grad += (_flat(da).T @ _flat(h[:-1])).T
    return da, (dh, dc)


def lstm_forward(inputs: Tensor, w: Tensor, u_t: Tensor, b: Tensor,
                 t0: int = 0, conv_b: "Tensor | None" = None) -> Tensor:
    """LSTM with forget/input/output gates over (B, T, D) inputs; returns
    all T hidden states, (B, T, H).  w, u_t and b are gate-major (i, f, o, g):
    W (4H, D), Uᵀ (H, 4H) and b (4H,).

    i, f, o = sigmoid(W x_t + U h + b) per gate, g = tanh(W_g x_t + U_g h + b_g)
    c_t = f * c + i * g
    h_t = o * tanh(c_t)

    One autograd node (_recurrence: the first t0 steps of every input are
    `conv_b`, run once on one row).  Each step is lstm_cell, shared with
    model._stacked_rnn: one product of the states by the stored Uᵀ.  The
    backward pass reads a contiguous U.
    """
    return _recurrence(_lstm_steps, _lstm_back, 2, inputs, w, u_t, b, t0, conv_b)


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
