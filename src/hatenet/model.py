"""The two classifier topologies assembled from the autograd layers.

CNN-RNN-FC: conv over the post matrix -> max pool -> recurrent layer over
the pooled sequence -> global max pool over time -> 25-unit ReLU layer
(with dropout during training) -> 3-way softmax.  CNN-FC flattens the
pooled feature map straight into the two dense layers.  Every layer runs
once over a batch of posts (token ids or post matrices, see ``forward``);
one post is a batch of 1.

``conv_axis`` selects which input axis the convolution slides along:
"sequence" treats the embedding coordinates as channels (pooled length
seq_len // pool_rate), "embedding" slides along the embedding axis
(pooled length emb_dim // pool_rate) for the wider flattened variant.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .autograd import IdBatch, Tensor, conv1d, dense_ids, dropout, global_maxpool, maxpool1d
from .errors import InvalidConfig, ShapeMismatch
from .layers import (
    GRU_GATES,
    LSTM_GATES,
    ParamGroup,
    fc_forward,
    gru_forward,
    init_param,
    lstm_forward,
    rnn_shapes,
)

CNN_RNN_FC = "cnn_rnn_fc"
CNN_FC = "cnn_fc"


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
    convolutional/recurrent feature group and the dense classifier group."""

    def __init__(self, feature: ParamGroup, classifier: ParamGroup):
        self.feature = feature
        self.classifier = classifier

    def groups(self) -> list[ParamGroup]:
        return [self.feature, self.classifier]

    @classmethod
    def of(cls, config: TopologyConfig, arrays) -> "ModelParams":
        """The member holding `arrays`, one per layout(config) entry, in order."""
        groups: dict[str, dict[str, Tensor]] = {"feature": {}, "classifier": {}}
        for (group, name, _), array in zip(layout(config), arrays):
            groups[group][name] = Tensor(array)
        return cls(*(ParamGroup(group, params) for group, params in groups.items()))

    def named_tensors(self) -> dict[str, Tensor]:
        out = {}
        for group in self.groups():
            for key, tensor in group.params.items():
                out[f"{group.name}.{key}"] = tensor
        return out

    def copy(self) -> "ModelParams":
        return ModelParams(self.feature.copy(), self.classifier.copy())

    def n_params(self) -> int:
        return self.feature.n_params() + self.classifier.n_params()


def param_count(config: TopologyConfig) -> int:
    """Closed-form trainable parameter count for a topology."""
    c_in = config.conv_channels()
    n = config.conv_filters * c_in * config.conv_width + config.conv_filters
    if config.variant == CNN_RNN_FC:
        gates = 3 if config.rnn_kind == "gru" else 4
        h = config.rnn_hidden
        n += gates * (h * config.conv_filters + h * h + h)
    n += config.fc_hidden * config.feature_dim() + config.fc_hidden
    n += config.n_classes * config.fc_hidden + config.n_classes
    return n


def layout(config: TopologyConfig) -> list[tuple[str, str, tuple[int, ...]]]:
    """(group, name, shape) of every parameter tensor of a member, in the
    order build draws them and a checkpoint stores them."""
    h, c = config.fc_hidden, config.n_classes
    feature = [("conv_w", (config.conv_filters, config.conv_channels(), config.conv_width)),
               ("conv_b", (config.conv_filters,))]
    if config.variant == CNN_RNN_FC:
        gates = GRU_GATES if config.rnn_kind == "gru" else LSTM_GATES
        feature += rnn_shapes(config.conv_filters, config.rnn_hidden, gates)
    classifier = [("fc1_w", (h, config.feature_dim())), ("fc1_b", (h,)),
                  ("fc2_w", (c, h)), ("fc2_b", (c,))]
    return [("feature", *e) for e in feature] + [("classifier", *e) for e in classifier]


def build(config: TopologyConfig, seed: int) -> ModelParams:
    """Allocate and initialize parameters (layers.init_param, in layout
    order); same seed gives identical values."""
    config.validate()
    rng = np.random.default_rng(seed)
    return ModelParams.of(config, [init_param(rng, shape) for *_, shape in layout(config)])


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
    gives them no node and no gradient.
    """
    x = _conv_input(batch, config)
    fp = params.feature.params
    convolved = conv1d(x, fp["conv_w"], fp["conv_b"], config.conv_pad)
    pooled = maxpool1d(convolved, config.pool_rate)
    if config.variant == CNN_RNN_FC:
        rnn = gru_forward if config.rnn_kind == "gru" else lstm_forward
        return global_maxpool(rnn(pooled.transpose(), fp))
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
