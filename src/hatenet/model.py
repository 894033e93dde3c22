"""The two classifier topologies assembled from the autograd layers.

CNN-RNN-FC: conv over the post matrix -> max pool -> recurrent layer over
the pooled sequence -> global max pool over time -> 25-unit ReLU layer
(with dropout during training) -> 3-way softmax.  CNN-FC flattens the
pooled feature map straight into the two dense layers.  Every layer runs
once over a batch of posts (token ids or post matrices, see ``forward``);
one post is a batch of 1.

``forward`` is one member's autograd pass, for training and gradient
checks.  An ensemble stores its K members stacked (``stack``), and
``stacked_forward`` scores them all in one eval-mode pass without a graph.
Parameters have one layout, ``stacked_shapes``: a training member is the
K=1 stack over one flat buffer (``flat``), which validation scores in place.
Posts are padded on the left, and a pooled step that reads only padding
gives every member its conv bias as RNN input.  So the state after a
post's lead (``_padding_steps``) depends on the members alone:
``padding_trajectory`` gives it for every lead, on one row, and a bundle
holds it and validation computes it once per call.  ``stacked_forward``
starts each post at its own lead from that state, as a packed sequence
does; ``forward`` runs the steps where every post of the batch is padding
once, on one row, through the recurrent op's lead, forward and backward,
and the batch's recurrence from there.  All three step with layers'
gru_cell or lstm_cell, the trajectory in the op's loop.

``conv_axis`` selects which input axis the convolution slides along:
"sequence" treats the embedding coordinates as channels (pooled length
seq_len // pool_rate), "embedding" slides along the embedding axis
(pooled length emb_dim // pool_rate) for the wider flattened variant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict, fields

import numpy as np

from .autograd import (
    IdBatch,
    Tensor,
    conv1d,
    conv_ids,
    dense_ids,
    dropout,
    global_maxpool,
    maxpool1d,
    tap_products,
)
from .errors import InvalidConfig, ShapeMismatch
from .layers import (
    GRU_GATES,
    LSTM_GATES,
    ParamGroup,
    _gru_steps,
    _lstm_steps,
    fc_forward,
    gru_cell,
    gru_forward,
    init_param,
    lstm_cell,
    lstm_forward,
    rnn_shapes,
    rnn_views,
)

CNN_RNN_FC = "cnn_rnn_fc"
CNN_FC = "cnn_fc"


def check_types(config) -> None:
    """Raise InvalidConfig unless each field of the dataclass `config` but one
    defaulting to None has its default's type (a real field may take an int),
    never a bool."""
    for f in fields(config):
        value, default = getattr(config, f.name), f.default
        expected = (int, float) if isinstance(default, float) else type(default)
        if default is not None and (isinstance(value, bool) or not isinstance(value, expected)):
            raise InvalidConfig(f"{type(config).__name__} field {f.name!r} must be of type "
                                f"{type(default).__name__}, got {value!r}")


@dataclass
class TopologyConfig:
    variant: str = CNN_RNN_FC
    rnn_kind: str = "gru"        # ignored for cnn_fc
    seq_len: int = 100
    emb_dim: int = 300
    conv_filters: int = 32
    conv_width: int = 17
    conv_pad: int = 8
    pool_rate: int = 4
    rnn_hidden: int = 100
    fc_hidden: int = 25
    dropout_p: float = 0.2
    n_classes: int = 3
    conv_axis: str = "sequence"  # or "embedding"

    def validate(self) -> None:
        check_types(self)
        if self.variant not in (CNN_RNN_FC, CNN_FC):
            raise InvalidConfig(f"unknown variant {self.variant!r}")
        if self.rnn_kind not in ("gru", "lstm"):
            raise InvalidConfig(f"unknown rnn kind {self.rnn_kind!r}")
        if self.conv_axis not in ("sequence", "embedding"):
            raise InvalidConfig(f"unknown conv axis {self.conv_axis!r}")
        if self.n_classes != 3:
            raise InvalidConfig("the classifier is three-class by construction")
        if 2 * self.conv_pad != self.conv_width - 1:
            raise InvalidConfig(
                f"conv_pad must be (conv_width - 1) / 2 to preserve length; "
                f"got pad={self.conv_pad}, width={self.conv_width}"
            )
        for field_name in ("seq_len", "emb_dim", "conv_filters", "conv_width",
                           "pool_rate", "rnn_hidden", "fc_hidden"):
            if getattr(self, field_name) < 1:
                raise InvalidConfig(f"{field_name} must be positive")
        if not 0.0 <= self.dropout_p < 1.0:
            raise InvalidConfig(f"dropout_p must be in [0, 1), got {self.dropout_p}")
        if self.conv_len() // self.pool_rate < 1:
            raise InvalidConfig("pool rate leaves no features")

    def conv_channels(self) -> int:
        return self.emb_dim if self.conv_axis == "sequence" else self.seq_len

    def conv_len(self) -> int:
        return self.seq_len if self.conv_axis == "sequence" else self.emb_dim

    def pooled_len(self) -> int:
        return self.conv_len() // self.pool_rate

    def feature_dim(self) -> int:
        """Input width of the first dense layer."""
        if self.variant == CNN_RNN_FC:
            return self.rnn_hidden
        return self.conv_filters * self.pooled_len()

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TopologyConfig":
        cfg = cls(**d)
        cfg.validate()
        return cfg


class ModelParams:
    """All trainable tensors of one ensemble member, partitioned into the
    convolutional/recurrent feature group and the dense classifier group.

    The tensors view the member's blocks of stacked arrays (stacked_shapes):
    for a member that trains, its K=1 stack `stacked` over one flat buffer,
    `data`, with gradients over `grad` (`flat`); for a bundle's member, its
    read-only rows of the bundle's stack.  The ops read the blocks `taps`, the
    filters tap-major, and `rnn`, W, Uᵀ and b gate-major; the named tensors view them."""

    def __init__(self, config: "TopologyConfig", blocks: dict, grads: "dict | None" = None):
        def tensor(name, view=lambda a: a) -> Tensor:
            return Tensor(view(blocks[name]), grad=None if grads is None else view(grads[name]))

        self.config, self.data, self.grad, self.stacked = config, None, None, None
        self.taps = tensor("taps")
        self.rnn = tuple(tensor(name) for name in ("rnn_w", "rnn_u_t", "rnn_b") if name in blocks)
        named = {"conv_w": tensor("taps", lambda a: a.transpose(2, 0, 1)),
                 **(rnn_views(*self.rnn, _gates(config)) if self.rnn else {})}
        groups: dict[str, dict[str, Tensor]] = {"feature": {}, "classifier": {}}
        for group, name, _ in layout(config):
            groups[group][name] = named[name] if name in named else tensor(name)
        self.feature, self.classifier = (ParamGroup(g, p) for g, p in groups.items())

    def groups(self) -> list[ParamGroup]:
        return [self.feature, self.classifier]

    def named_tensors(self) -> dict[str, Tensor]:
        return {f"{group.name}.{key}": tensor
                for group in self.groups() for key, tensor in group.params.items()}

    def copy(self) -> "ModelParams":
        """A flat member holding a copy of these values."""
        out = flat(self.config)
        for mine, theirs in zip(out.named_tensors().values(), self.named_tensors().values()):
            mine.data[...] = theirs.data
        return out

    def n_params(self) -> int:
        return self.feature.n_params() + self.classifier.n_params()


def param_count(config: TopologyConfig) -> int:
    """Trainable parameter count for a topology: the sizes of its layout."""
    return sum(math.prod(shape) for _, _, shape in layout(config))


def _gates(config: TopologyConfig) -> tuple[str, ...]:
    return GRU_GATES if config.rnn_kind == "gru" else LSTM_GATES


def layout(config: TopologyConfig) -> list[tuple[str, str, tuple[int, ...]]]:
    """(group, name, shape) of every parameter tensor of a member, in the
    order build draws them and a checkpoint stores them."""
    h, c = config.fc_hidden, config.n_classes
    feature = [("conv_w", (config.conv_filters, config.conv_channels(), config.conv_width)),
               ("conv_b", (config.conv_filters,))]
    if config.variant == CNN_RNN_FC:
        feature += rnn_shapes(config.conv_filters, config.rnn_hidden, _gates(config))
    classifier = [("fc1_w", (h, config.feature_dim())), ("fc1_b", (h,)),
                  ("fc2_w", (c, h)), ("fc2_b", (c,))]
    return [("feature", *e) for e in feature] + [("classifier", *e) for e in classifier]


def stacked_shapes(config: TopologyConfig, k: int) -> dict[str, tuple[int, ...]]:
    """Shape of each stacked array of k members, in flat's buffer order: the
    conv filters tap-major, (C_in, W, k*C_out), so that a block of taps is one
    (C_in, taps*k*C_out) matrix; the RNN's W, Uᵀ and b gate-major,
    (k, G*H, D), (k, H, G*H) and (k, G*H); every other tensor (k, *shape)."""
    c = config.conv_filters
    shapes = {"taps": (config.conv_channels(), config.conv_width, k * c), "conv_b": (k, c)}
    if config.variant == CNN_RNN_FC:
        gh, h = len(_gates(config)) * config.rnn_hidden, config.rnn_hidden
        shapes.update(rnn_w=(k, gh, c), rnn_u_t=(k, h, gh), rnn_b=(k, gh))
    for group, name, shape in layout(config):
        if group == "classifier":
            shapes[name] = (k, *shape)
    return shapes


def _stacked_blocks(config: TopologyConfig, stacked: dict, k: int) -> dict:
    """Member k's blocks, the views of `stacked` that ModelParams reads:
    its (C_in, W, C_out) taps and its row of every other array."""
    c = config.conv_filters
    blocks = {name: array[k] for name, array in stacked.items() if name != "taps"}
    blocks["taps"] = stacked["taps"][:, :, k * c : (k + 1) * c]
    return blocks


def flat(config: TopologyConfig, data: "np.ndarray | None" = None) -> ModelParams:
    """The member as the K=1 stack over one flat buffer of param_count(config)
    values: zeros with a zeroed gradient buffer of the same shape, or, for a
    finished member, the given `data` with no gradient buffer.  Each buffer
    holds the arrays of stacked_shapes(config, 1) in order, `params.stacked`
    those of the values, which stacked_forward scores in place."""
    shapes = stacked_shapes(config, 1)
    # values and gradients in one allocation: as separate arrays, with Adam's
    # four, they doubled a training call's page faults (measured on glibc)
    data, grad = np.zeros((2, param_count(config))) if data is None else (data, None)
    ends = np.cumsum([math.prod(shape) for shape in shapes.values()])[:-1]

    def split(buffer) -> dict:
        return {name: part.reshape(shape)
                for (name, shape), part in zip(shapes.items(), np.split(buffer, ends))}

    stacked = split(data)
    params = ModelParams(config, _stacked_blocks(config, stacked, 0),
                         None if grad is None else _stacked_blocks(config, split(grad), 0))
    params.data, params.grad, params.stacked = data, grad, stacked
    return params


def build(config: TopologyConfig, seed: int) -> ModelParams:
    """A flat member with each tensor drawn (layers.init_param) in layout
    order; same seed gives identical values."""
    config.validate()
    rng = np.random.default_rng(seed)
    params = flat(config)
    for (_, _, shape), tensor in zip(layout(config), params.named_tensors().values()):
        tensor.data[...] = init_param(rng, shape)
    return params


def _conv_input(batch, config: TopologyConfig) -> IdBatch:
    """The conv input of a batch: an IdBatch of (B, seq_len) token ids
    into (V, emb_dim) rows as is, a (B, seq_len, emb_dim) stack or one post
    (a TokenMatrix or a (seq_len, emb_dim) array, a stack of 1) through
    dense_ids; along the embedding axis, the columns of the post matrices."""
    if not isinstance(batch, IdBatch):
        values = batch.values if hasattr(batch, "values") else np.asarray(batch)
        stack = values[None] if values.ndim == 2 else values
        batch = dense_ids(stack.transpose(0, 2, 1) if stack.ndim == 3 else stack)
    if batch.ids.shape[1:] != (config.seq_len,) or batch.rows.shape[1:] != (config.emb_dim,):
        raise ShapeMismatch(
            f"ids {batch.ids.shape} into rows {batch.rows.shape}; the topology "
            f"expects posts of {config.seq_len} steps of {config.emb_dim} values"
        )
    return batch if config.conv_axis == "sequence" else dense_ids(batch.dense())


def features(params: ModelParams, config: TopologyConfig, batch) -> Tensor:
    """Feature-extractor output, (B, feature_dim), for a batch of posts.

    Each layer runs once over the batch.  The posts are constants: conv1d
    gives them no node and no gradient.  The first t0 = min(lead) pooled
    steps read only padding in every post, so each is the conv bias: the
    recurrent layer runs them once, on one row, and the batch's steps from
    the state they reach.
    """
    x = _conv_input(batch, config)
    fp = params.feature.params
    convolved = conv1d(x, params.taps, fp["conv_b"], config.conv_pad)
    pooled = maxpool1d(convolved, config.pool_rate)
    if config.variant == CNN_RNN_FC:
        rnn = gru_forward if config.rnn_kind == "gru" else lstm_forward
        t0 = int(_padding_steps(config, x.ids).min())
        return global_maxpool(rnn(pooled.transpose(), *params.rnn, t0, fp["conv_b"]))
    return pooled.reshape(len(x), -1)


def classify(
    params: ModelParams,
    config: TopologyConfig,
    feats: Tensor,
    train: bool = False,
    rng: "np.random.Generator | None" = None,
) -> Tensor:
    """Class probabilities, (B, 3), from (B, feature_dim) extractor
    features: ReLU dense layer, dropout in train mode, softmax layer."""
    if train and config.dropout_p > 0 and rng is None:
        raise ValueError("train-mode forward needs an rng for dropout")
    cp = params.classifier.params
    hidden = fc_forward(feats, cp["fc1_w"], cp["fc1_b"], "relu")
    hidden = dropout(hidden, config.dropout_p, train, rng)
    return fc_forward(hidden, cp["fc2_w"], cp["fc2_b"], "softmax")


def forward(
    params: ModelParams,
    config: TopologyConfig,
    batch,
    train: bool = False,
    rng: "np.random.Generator | None" = None,
) -> Tensor:
    """Class probabilities over (Hate, Offensive, Neither).

    `batch` is an IdBatch of (B, seq_len) token ids or a (B, seq_len,
    emb_dim) stack of post matrices, giving (B, 3), or one post as a
    TokenMatrix or (seq_len, emb_dim) array, a batch of 1 that gives (3,).
    Train mode draws one (B, fc_hidden) dropout mask from `rng`.
    """
    probs = classify(params, config, features(params, config, batch), train, rng)
    one_post = not isinstance(batch, IdBatch) and np.ndim(getattr(batch, "values", batch)) == 2
    return probs.reshape(config.n_classes) if one_post else probs


# -- K members stacked ---------------------------------------------------
#
# An ensemble's K members live in one array per layer with a member axis
# (stacked_shapes), laid out the way stacked_forward reads them; member k's
# tensors are views of its rows (_stacked_blocks).


def stack(config: TopologyConfig, k: int, members) -> dict[str, np.ndarray]:
    """The read-only stacked arrays (stacked_shapes) of k members, each
    given as its arrays in layout order."""
    stacked = {name: np.empty(shape) for name, shape in stacked_shapes(config, k).items()}
    for index, arrays in enumerate(members):
        views = ModelParams(config, _stacked_blocks(config, stacked, index)).named_tensors()
        for (_, name, shape), view, array in zip(layout(config), views.values(), arrays):
            if np.shape(array) != shape:
                raise ShapeMismatch(f"member {index}: {name} is {np.shape(array)}, "
                                    f"the topology has {shape}")
            view.data[...] = array
    for array in stacked.values():
        array.flags.writeable = False
    return stacked


def stacked_members(config: TopologyConfig, stacked: dict) -> list[ModelParams]:
    """The stacked members, each holding read-only views of its rows."""
    return [ModelParams(config, _stacked_blocks(config, stacked, k))
            for k in range(len(stacked["conv_b"]))]


# values per product buffer of the stacked conv (4 MiB), which bounds its
# transients: each GEMM covers as many taps as fit, at least one, since one
# wide GEMM packs its row block once where narrow ones pack it per tap
STACKED_PRODUCT_VALUES = 1 << 19


def _projected(stacked: dict, x: np.ndarray) -> np.ndarray:
    """Every member's RNN input projection x W^T + b of its (K, T, B, D)
    inputs, (K, T, B, G*H), in one batched matmul."""
    k, t_steps, n, d = x.shape
    w = stacked["rnn_w"]
    xp = np.matmul(x.reshape(k, -1, d), w.swapaxes(1, 2))
    xp += stacked["rnn_b"][:, None]
    return xp.reshape(k, t_steps, n, w.shape[1])


def padding_trajectory(config: TopologyConfig, stacked: dict, steps: int) -> "tuple | None":
    """The (h, c, best) that every member reaches after t = 0..steps pooled
    steps whose input is its conv bias, as a post's lead is: read-only
    (K, steps + 1, H) arrays indexed by t, best the running max of h (-inf
    at t = 0); None for CNN-FC, which has no recurrence.  They depend on
    the stack's feature arrays alone, so a bundle computes them once, on
    one row, through the op's step loop."""
    if config.variant != CNN_RNN_FC:
        return None
    k, c = stacked["conv_b"].shape
    u_t = stacked["rnn_u_t"]
    xp = _projected(stacked, np.broadcast_to(stacked["conv_b"][:, None, None], (k, steps, 1, c)))
    h, cell = np.zeros((2, steps + 1, k, 1, u_t.shape[1]))
    run, states = (_gru_steps, (h,)) if config.rnn_kind == "gru" else (_lstm_steps, (h, cell))
    run(xp.swapaxes(0, 1), u_t, states)
    best = np.maximum.accumulate(np.concatenate([np.full_like(h[:1], -np.inf), h[1:]]))
    trajectory = tuple(array[:, :, 0].swapaxes(0, 1) for array in (h, cell, best))
    for array in trajectory:
        array.flags.writeable = False
    return trajectory


def _stacked_rnn(config: TopologyConfig, stacked: dict, x: np.ndarray,
                 leads: np.ndarray, padding: tuple) -> np.ndarray:
    """Every member's features, the max over time of its RNN state h,
    (K, B, H), for (K, T, B, D) inputs whose rows are sorted by lead: row b
    joins at step leads[b] with `padding`'s state there (padding_trajectory)
    and its inputs before that step are never read.  Step t runs the cell
    only on the rows that have joined, as a packed sequence does; a row
    whose lead is T keeps the trajectory's end state."""
    k, t_steps, n, _ = x.shape
    start = leads[0] if n else t_steps
    xp = _projected(stacked, x[:, start:])
    joined = np.searchsorted(leads, np.arange(start, t_steps), side="right")
    cell, n_states = (gru_cell, 1) if config.rnn_kind == "gru" else (lstm_cell, 2)
    padding = padding[:n_states] + padding[2:]  # a GRU has no cell state
    *states, best = (state[:, :0] for state in padding)
    for t, m in enumerate(joined):
        if m > best.shape[1]:  # these rows join, each at the trajectory's state at its lead
            joining = leads[best.shape[1] : m]
            *states, best = (np.concatenate([mine, state[:, joining]], axis=1)
                             for mine, state in zip((*states, best), padding))
        states = cell(xp[:, t, :m], stacked["rnn_u_t"], *states)[:n_states]
        np.maximum(best, states[0], out=best)
    return np.concatenate([best, padding[-1][:, leads[best.shape[1] :]]], axis=1)


def _padding_steps(config: TopologyConfig, ids: np.ndarray) -> np.ndarray:
    """Each post's lead over (B, T) conv input ids: its leading pooled
    steps that read only padding, T_pool for a post with no live step.
    With s the first live step, pooled step p reads none iff
    (p + 1) * rate - 1 < s + pad - W + 1, the first conv output that reads
    step s (conv_ids' j0)."""
    live = ids >= 0
    lead = (live.argmax(axis=1) + config.conv_pad - config.conv_width + 1) // config.pool_rate
    return np.where(live.any(axis=1), np.clip(lead, 0, config.pooled_len()), config.pooled_len())


def _stacked_conv_pool(config: TopologyConfig, stacked: dict, x: IdBatch) -> np.ndarray:
    """Every member's max-pooled conv output, (B, T_pool, K, C_out)."""
    k, c = stacked["conv_b"].shape
    group = max(1, STACKED_PRODUCT_VALUES // ((len(x.rows) + 1) * k * c))
    y = conv_ids(x, stacked["conv_b"].reshape(-1), config.conv_pad, config.conv_width,
                 tap_products(x.rows, stacked["taps"], min(group, config.conv_width)))
    rate = config.pool_rate
    t_pool = y.shape[1] // rate
    return y[:, : t_pool * rate].reshape(len(y), t_pool, rate, k, c).max(axis=2)


def stacked_forward(config: TopologyConfig, stacked: dict, batch,
                   padding: "tuple | None" = None) -> tuple[np.ndarray, np.ndarray]:
    """Every stacked member's eval-mode features, (K, B, F), and class
    probabilities, (K, B, 3), for a batch of posts (as forward takes them).

    One graph-free pass: each layer runs once for all members, with no
    autograd node.  The conv multiplies the batch's distinct rows by all
    members' filters, a block of taps per GEMM; the RNN steps and the dense
    layers are batched matmuls over the member axis.  A post's first lead
    pooled steps (_padding_steps) read only padding, so their RNN input is
    each member's conv bias and its state there is `padding`'s, the stack's
    padding_trajectory: the recurrence orders the posts by lead and starts
    each at its own, so step t runs only the posts whose lead is at most t.
    Without `padding` it computes the stack's trajectory itself, the one a
    bundle holds; a caller scoring one stack in several passes, as
    validation does, computes it once and passes it to each.
    """
    x = _conv_input(batch, config)
    pooled = _stacked_conv_pool(config, stacked, x)
    n, _, k, _ = pooled.shape
    if config.variant == CNN_RNN_FC:
        leads = _padding_steps(config, x.ids)
        if padding is None:
            padding = padding_trajectory(config, stacked, config.pooled_len())
        order = np.argsort(leads, kind="stable")
        feats = np.empty((k, n, config.rnn_hidden))
        feats[:, order] = _stacked_rnn(config, stacked, pooled.transpose(2, 1, 0, 3)[:, :, order],
                                       leads[order], padding)
    else:  # each member's (B, C, T_pool) map, flattened
        feats = pooled.transpose(2, 0, 3, 1).reshape(k, n, -1)
    return feats, stacked_heads(stacked, feats)


def stacked_heads(stacked: dict, feats: np.ndarray) -> np.ndarray:
    """Every stacked member's eval-mode class probabilities, (K, B, 3), from
    its (K, B, F) features: each dense layer is one batched matmul."""
    hidden = np.matmul(feats, stacked["fc1_w"].swapaxes(1, 2))
    hidden += stacked["fc1_b"][:, None]
    np.maximum(hidden, 0.0, out=hidden)
    logits = np.matmul(hidden, stacked["fc2_w"].swapaxes(1, 2))
    logits += stacked["fc2_b"][:, None]
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)
