"""Finite-difference verification of every differentiable operation and
of the full topologies.

Each registered check builds a scalarized random loss over small random
tensors, runs reverse mode, and compares against central differences
coordinate by coordinate.  Inputs near max/relu/hinge kinks are rejected
and resampled so the comparison happens where the loss is smooth;
dropout is checked in eval mode only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autograd, layers, model, weaksup
from .autograd import Tensor
from .errors import NonFiniteValue

THRESHOLD = 1e-4
DEFAULT_STEP = 1e-5


@dataclass
class GradCheckReport:
    name: str
    per_tensor: dict[str, float] = field(default_factory=dict)
    threshold: float = THRESHOLD

    @property
    def max_rel_error(self) -> float:
        return max(self.per_tensor.values()) if self.per_tensor else 0.0

    @property
    def passed(self) -> bool:
        return self.max_rel_error <= self.threshold

    def __str__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return f"{self.name:<18} max_rel_err {self.max_rel_error:.3e}  {status}"


# a component's error is taken relative to at least this share of its
# tensor's largest gradient magnitude
FLOOR_SHARE = 1e-2


def _rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Largest |analytic - numeric| over the larger magnitude of the two,
    floored at FLOOR_SHARE of the tensor's largest (and at 1e-8).  A central
    difference carries an absolute rounding error of about eps * |loss| / h,
    so a component far below its tensor's scale is judged against the scale."""
    magnitude = np.maximum(np.abs(analytic), np.abs(numeric))
    floor = max(1e-8, FLOOR_SHARE * float(magnitude.max(initial=0.0)))
    return float(np.max(np.abs(analytic - numeric) / np.maximum(magnitude, floor)))


def compare(loss_fn, tensors: dict[str, Tensor], h: float = DEFAULT_STEP) -> dict[str, float]:
    """Max relative error between reverse-mode and central-difference
    gradients, per named tensor."""
    loss = loss_fn()
    if not np.isfinite(loss.data):
        raise NonFiniteValue("loss is not finite")
    loss.backward()
    analytic = {name: t.grad.copy() for name, t in tensors.items()}
    errors = {}
    for name, tensor in tensors.items():
        data = tensor.data  # perturbed in place, whatever its memory layout
        numeric = np.zeros(data.shape)
        for i in np.ndindex(data.shape):
            saved = data[i]
            data[i] = saved + h
            up = loss_fn().data.item()
            data[i] = saved - h
            down = loss_fn().data.item()
            data[i] = saved
            numeric[i] = (up - down) / (2.0 * h)
        if not np.all(np.isfinite(numeric)):
            raise NonFiniteValue(f"non-finite finite-difference value in {name}")
        errors[name] = _rel_error(analytic[name], numeric)
    return errors


def _rand(rng, *shape) -> Tensor:
    return Tensor(rng.standard_normal(shape))


def _loss_weights(rng, n) -> np.ndarray:
    return rng.standard_normal(n)


# -- per-operation checks -------------------------------------------------


def _check_fc(seed: int, h: float, activation) -> dict[str, float]:
    rng = np.random.default_rng(seed)
    for _ in range(50):
        x, w, b = _rand(rng, 4), _rand(rng, 3, 4), _rand(rng, 3)
        pre = w.data @ x.data + b.data
        if activation != "relu" or np.all(np.abs(pre) > 1e-2):
            break
    lw = _loss_weights(rng, 3)
    tensors = {"x": x, "weight": w, "bias": b}
    return compare(
        lambda: (layers.fc_forward(x, w, b, activation) * lw).sum(), tensors, h
    )


def _check_conv1d(seed: int, h: float) -> dict[str, float]:
    """The conv input is a constant: only the filters, tap-major
    (C_in, W, C_out), and the bias get gradients.  Dense (B, C_in, T) inputs
    go through dense_ids."""
    rng = np.random.default_rng(seed)
    f, b = _rand(rng, 3, 3, 2), _rand(rng, 2)

    def check(x, suffix):
        lw = _loss_weights(rng, len(x) * 2 * x.ids.shape[1])
        return compare(
            lambda: (autograd.conv1d(x, f, b, pad=1).reshape(-1) * lw).sum(),
            {f"filters{suffix}": f, f"bias{suffix}": b},
            h,
        )

    errors = check(autograd.dense_ids(rng.standard_normal((1, 3, 7))), "")
    # an input with zero leading, interior and trailing steps, as a padded post
    const = rng.standard_normal((1, 3, 9))
    const[..., [0, 1, 5, 8]] = 0.0
    errors.update(check(autograd.dense_ids(const), "_const_x"))
    # a batch of 3 fully live inputs, and one of 3 with distinct zero steps
    errors.update(check(autograd.dense_ids(rng.standard_normal((3, 3, 9))), "_batch"))
    errors.update(check(autograd.dense_ids(_padded_batch(rng, 3, 3, 9)), "_const_batch"))
    # 4 rows shared by 3 inputs: repeated ids, -1 steps, an all -1 input
    ids = np.array([[-1, 0, 1, 0, 2, -1, 3, 3, 0],
                    [-1] * 9,
                    [2, 2, -1, 1, 0, 3, 1, 2, 0]])
    errors.update(check(autograd.IdBatch(ids, rng.standard_normal((4, 3))), "_ids"))
    return errors


def _padded_batch(rng, n: int, channels: int, steps: int) -> np.ndarray:
    """n random (channels, steps) inputs whose zero steps differ: leading in
    the first, interior and trailing in the second, leading and interior
    in the third, none in the rest."""
    batch = rng.standard_normal((n, channels, steps))
    zero_steps = (range(max(1, steps // 3)), [steps // 2, steps - 1], [0, steps // 2])
    for b, steps_b in enumerate(zero_steps[:n]):
        batch[b][:, list(steps_b)] = 0.0
    return batch


def _windows_well_separated(data: np.ndarray, rate: int, margin: float,
                            bias: "np.ndarray | None" = None) -> bool:
    """Whether the max of every pool window of the (C, T) values leads the
    runner-up by more than `margin`.  Given the conv `bias`, a window whose
    values are all its channel's bias (conv outputs that read only padding)
    passes too: its max moves exactly with the bias."""
    c, t = data.shape
    t_out = t // rate
    win = data[:, : t_out * rate].reshape(c, t_out, rate)
    top2 = np.sort(win, axis=2)[:, :, -2:]
    ok = top2[:, :, 1] - top2[:, :, 0] > margin
    if bias is not None:
        ok |= np.all(win == bias[:, None, None], axis=2)
    return bool(np.all(ok))


def _check_maxpool(seed: int, h: float) -> dict[str, float]:
    rng = np.random.default_rng(seed)
    for _ in range(100):
        x = _rand(rng, 2, 12)
        if _windows_well_separated(x.data, 3, 20 * h):
            break
    lw = _loss_weights(rng, 2 * 4)
    return compare(
        lambda: (autograd.maxpool1d(x, 3).reshape(-1) * lw).sum(), {"x": x}, h
    )


def _check_global_maxpool(seed: int, h: float) -> dict[str, float]:
    rng = np.random.default_rng(seed)
    for _ in range(100):
        x = _rand(rng, 5, 4)
        top2 = np.sort(x.data, axis=0)[-2:, :]
        if np.all(top2[1] - top2[0] > 20 * h):
            break
    lw = _loss_weights(rng, 4)
    return compare(
        lambda: (autograd.global_maxpool(x) * lw).sum(), {"x": x}, h
    )


def _check_dropout_eval(seed: int, h: float) -> dict[str, float]:
    rng = np.random.default_rng(seed)
    x = _rand(rng, 6)
    lw = _loss_weights(rng, 6)
    return compare(
        lambda: (autograd.dropout(x, 0.5, False, rng) * lw).sum(), {"x": x}, h
    )


def _check_rnn(seed: int, h: float, kind: str) -> dict[str, float]:
    rng = np.random.default_rng(seed)
    d_in, hidden, t_steps = 2, 3, 3
    gates = layers.GRU_GATES if kind == "gru" else layers.LSTM_GATES
    blocks = layers.init_rnn(rng, d_in, hidden, gates)
    params = layers.rnn_views(*blocks, gates)  # checked gate by gate
    for key, tensor in params.items():
        if key.startswith("b_"):
            tensor.data[:] = rng.standard_normal(tensor.data.shape)
    x = _rand(rng, 1, t_steps, d_in)  # one sequence, a batch of 1
    lw = _loss_weights(rng, t_steps * hidden)
    run = layers.gru_forward if kind == "gru" else layers.lstm_forward
    tensors = {"x": x, **params}
    errors = compare(lambda: (run(x, *blocks).reshape(-1) * lw).sum(), tensors, h)
    # a batch of 3 sequences with distinct zero steps
    xb = Tensor(_padded_batch(rng, 3, d_in, t_steps).transpose(0, 2, 1).copy())
    lw = _loss_weights(rng, 3 * t_steps * hidden)
    tensors = {"x_batch": xb, **{f"{k}_batch": v for k, v in params.items()}}
    errors.update(compare(lambda: (run(xb, *blocks).reshape(-1) * lw).sum(), tensors, h))
    return errors


def _check_rnn_lead(seed: int, h: float, kind: str) -> dict[str, float]:
    """The recurrent op with a lead of t0 >= 1 steps, which it runs once on
    one row from the conv bias and does not read from its input: conv_b is
    checked with the input and the gate tensors, for a lead of one step and
    one of every step."""
    rng = np.random.default_rng(seed)
    d_in, hidden, t_steps = 2, 3, 4
    gates = layers.GRU_GATES if kind == "gru" else layers.LSTM_GATES
    blocks = layers.init_rnn(rng, d_in, hidden, gates)
    params = layers.rnn_views(*blocks, gates)
    for key, tensor in params.items():
        if key.startswith("b_"):
            tensor.data[:] = rng.standard_normal(tensor.data.shape)
    conv_b = _rand(rng, d_in)
    run = layers.gru_forward if kind == "gru" else layers.lstm_forward
    errors = {}
    for t0 in (1, t_steps):
        x = _rand(rng, 3, t_steps, d_in)
        lw = _loss_weights(rng, 3 * t_steps * hidden)
        tensors = {"x": x, "conv_b": conv_b, **params}
        errors.update(compare(
            lambda: (run(x, *blocks, t0, conv_b).reshape(-1) * lw).sum(),
            {f"{name}_t0_{t0}": tensor for name, tensor in tensors.items()},
            h,
        ))
    return errors


def _check_cross_entropy(seed: int, h: float) -> dict[str, float]:
    rng = np.random.default_rng(seed)
    logits = _rand(rng, 3)
    target = int(rng.integers(0, 3))
    errors = compare(
        lambda: layers.cross_entropy(logits.softmax(), target), {"logits": logits}, h
    )
    rows = _rand(rng, 3, 3)
    targets = rng.integers(0, 3, size=3)
    errors.update(compare(
        lambda: layers.cross_entropy(rows.softmax(), targets), {"logits_batch": rows}, h
    ))
    return errors


def _weak_case(rng) -> tuple[Tensor, "weaksup.ClassBounds"]:
    """Logits and bounds whose probabilities sit away from every hinge."""
    for _ in range(200):
        logits = _rand(rng, 3)
        lo = rng.uniform(0.0, 0.6, size=3)
        hi = rng.uniform(0.0, 0.6, size=3)
        bounds = weaksup.ClassBounds(np.minimum(lo, hi), np.maximum(lo, hi) + 0.1)
        y = np.exp(logits.data - logits.data.max())
        y /= y.sum()
        margins = np.minimum(np.abs(y - bounds.lb), np.abs(y - bounds.ub))
        if np.all(margins > 1e-3):
            break
    return logits, bounds


def _check_weak_loss(seed: int, h: float) -> dict[str, float]:
    rng = np.random.default_rng(seed)
    weights = weaksup.ClassWeights(rng.uniform(0.5, 3.0, size=3))
    logits, bounds = _weak_case(rng)
    errors = compare(
        lambda: weaksup.weak_loss(logits.softmax(), bounds, weights),
        {"logits": logits},
        h,
    )
    cases = [_weak_case(rng) for _ in range(3)]
    rows = Tensor(np.stack([case[0].data for case in cases]))
    batch_bounds = [case[1] for case in cases]
    errors.update(compare(
        lambda: weaksup.weak_loss(rows.softmax(), batch_bounds, weights),
        {"logits_batch": rows},
        h,
    ))
    return errors


def _tiny_config(variant: str, rnn_kind: str = "gru") -> model.TopologyConfig:
    return model.TopologyConfig(
        variant=variant,
        rnn_kind=rnn_kind,
        seq_len=8,
        emb_dim=6,
        conv_filters=2,
        conv_width=3,
        conv_pad=1,
        pool_rate=2,
        rnn_hidden=5,
        fc_hidden=4,
    )


def _topology_margins_ok(params, config, values, h: float) -> bool:
    """Reject inputs whose pooled windows or relu preactivations sit on a
    kink; a pool window of padding alone is no kink.  Runs the model's layers
    on the post as a batch of 1, because the margins are read from
    intermediates that model.forward does not expose."""
    conv_b = params.feature.params["conv_b"]
    convolved = autograd.conv1d(model._conv_input(values, config), params.taps,
                                conv_b, config.conv_pad)
    if not _windows_well_separated(convolved.data[0], config.pool_rate, 20 * h, conv_b.data):
        return False
    pooled = autograd.maxpool1d(convolved, config.pool_rate)
    if config.variant == model.CNN_RNN_FC:
        run = layers.gru_forward if config.rnn_kind == "gru" else layers.lstm_forward
        states = run(pooled.transpose(), *params.rnn).data[0]
        top2 = np.sort(states, axis=0)[-2:, :]
        # recurrent states drift slowly, so give the pooling argmax a wide berth
        if states.shape[0] > 1 and not np.all(top2[1] - top2[0] > 50 * h):
            return False
        features = states.max(axis=0)
    else:
        features = pooled.data.reshape(-1)
    cp = params.classifier.params
    pre = cp["fc1_w"].data @ features + cp["fc1_b"].data
    return bool(np.all(np.abs(pre) > 20 * h))


def _check_topology(seed: int, h: float, variant: str, rnn_kind: str = "gru") -> dict[str, float]:
    config = _tiny_config(variant, rnn_kind)
    rng = np.random.default_rng(seed)
    params = model.build(config, seed)
    for _ in range(100):
        values = rng.standard_normal((config.seq_len, config.emb_dim))
        if _topology_margins_ok(params, config, values, h):
            break
    lw = _loss_weights(rng, config.n_classes)
    tensors = params.named_tensors()
    errors = compare(
        lambda: (model.forward(params, config, values) * lw).sum(), tensors, h
    )
    # a batch of 3 posts with distinct zero (padding) rows
    for _ in range(100):
        batch = _padded_batch(rng, 3, config.emb_dim, config.seq_len).transpose(0, 2, 1)
        if all(_topology_margins_ok(params, config, post, h) for post in batch):
            break
    lw = _loss_weights(rng, (3, config.n_classes))
    errors.update(compare(
        lambda: (model.forward(params, config, batch) * lw).sum(),
        {f"{name}_batch": tensor for name, tensor in tensors.items()},
        h,
    ))
    # a batch of 3 posts that all start with a pooled step of padding alone,
    # the common lead that the recurrent layer runs on one row, and a
    # nonzero conv bias (build's is zero), the RNN input of those steps; at
    # 0.2 sd the GRU's gradients stay well above the differences' rounding
    conv_b = params.feature.params["conv_b"].data
    conv_b[:] = 0.2 * rng.standard_normal(conv_b.shape)
    for _ in range(100):
        lead_batch = _lead_batch(rng, config)
        if all(_topology_margins_ok(params, config, post, h) for post in lead_batch):
            break
    lw = _loss_weights(rng, (3, config.n_classes))
    errors.update(compare(
        lambda: (model.forward(params, config, lead_batch) * lw).sum(),
        {f"{name}_lead_batch": tensor for name, tensor in tensors.items()},
        h,
    ))
    return errors


def _lead_batch(rng, config) -> np.ndarray:
    """3 random (seq_len, emb_dim) posts with distinct zero rows, each with
    at least one leading pooled step that reads only padding, the first
    post two."""
    # the first step that a conv window of pooled step 1 reads
    first = config.pool_rate + config.conv_width - 1 - config.conv_pad
    batch = _padded_batch(rng, 3, config.emb_dim, config.seq_len).transpose(0, 2, 1).copy()
    batch[:, :first] = 0.0
    batch[0, : first + config.pool_rate] = 0.0
    return batch


REGISTRY = {
    "fc_none": lambda seed, h: _check_fc(seed, h, None),
    "fc_relu": lambda seed, h: _check_fc(seed, h, "relu"),
    "fc_softmax": lambda seed, h: _check_fc(seed, h, "softmax"),
    "conv1d": _check_conv1d,
    "maxpool1d": _check_maxpool,
    "global_maxpool": _check_global_maxpool,
    "dropout": _check_dropout_eval,
    "gru": lambda seed, h: _check_rnn(seed, h, "gru"),
    "lstm": lambda seed, h: _check_rnn(seed, h, "lstm"),
    "gru_lead": lambda seed, h: _check_rnn_lead(seed, h, "gru"),
    "lstm_lead": lambda seed, h: _check_rnn_lead(seed, h, "lstm"),
    "cross_entropy": _check_cross_entropy,
    "weak_loss": _check_weak_loss,
    "topology_cnn_rnn_gru": lambda seed, h: _check_topology(seed, h, model.CNN_RNN_FC, "gru"),
    "topology_cnn_rnn_lstm": lambda seed, h: _check_topology(seed, h, model.CNN_RNN_FC, "lstm"),
    "topology_cnn_fc": lambda seed, h: _check_topology(seed, h, model.CNN_FC),
}

# Every differentiable operation must keep a registered check; run_all
# refuses to start if one goes missing.
REQUIRED_CHECKS = (
    "fc_none",
    "fc_relu",
    "fc_softmax",
    "conv1d",
    "maxpool1d",
    "global_maxpool",
    "dropout",
    "gru",
    "lstm",
    "gru_lead",
    "lstm_lead",
    "cross_entropy",
    "weak_loss",
    "topology_cnn_rnn_gru",
    "topology_cnn_rnn_lstm",
    "topology_cnn_fc",
)

_TOPOLOGY_TRIALS = 3


def check(name: str, seed: int = 0, h: float = DEFAULT_STEP, trials: int = 20) -> GradCheckReport:
    """Run one registered check over several random seeds; report the
    worst per-tensor relative error."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if name not in REGISTRY:
        raise KeyError(f"no gradient check registered under {name!r}")
    if name.startswith("topology_"):
        trials = min(trials, _TOPOLOGY_TRIALS)
    report = GradCheckReport(name)
    for trial in range(trials):
        errors = REGISTRY[name](seed + 1000 * trial, h)
        for tensor_name, err in errors.items():
            key = tensor_name
            report.per_tensor[key] = max(report.per_tensor.get(key, 0.0), err)
    return report


def run_all(seed: int = 0, h: float = DEFAULT_STEP, trials: int = 20) -> list[GradCheckReport]:
    missing = [name for name in REQUIRED_CHECKS if name not in REGISTRY]
    if missing:
        raise KeyError(f"missing registered gradient checks: {missing}")
    return [check(name, seed, h, trials) for name in REQUIRED_CHECKS]
