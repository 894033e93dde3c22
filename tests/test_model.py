import gc

import numpy as np
import pytest

from conftest import tiny_topology
from hatenet.autograd import Tensor
from hatenet.errors import InvalidConfig, ShapeMismatch
from hatenet.layers import cross_entropy
from hatenet.model import (
    CNN_FC,
    CNN_RNN_FC,
    TopologyConfig,
    build,
    classify,
    features,
    forward,
    layout,
    param_count,
)
from hatenet.weaksup import ClassBounds, ClassWeights, weak_loss


class TestBuild:
    def test_default_gru_shapes(self):
        params = build(TopologyConfig(), seed=0)
        fp, cp = params.feature.params, params.classifier.params
        assert fp["conv_w"].data.shape == (32, 300, 17)
        assert fp["conv_b"].data.shape == (32,)
        assert fp["w_z"].data.shape == (100, 32)
        assert fp["u_z"].data.shape == (100, 100)
        assert cp["fc1_w"].data.shape == (25, 100)
        assert cp["fc2_w"].data.shape == (3, 25)

    def test_cnn_fc_flatten_width(self):
        cfg = TopologyConfig(variant=CNN_FC)
        params = build(cfg, seed=0)
        # sequence axis: pooled length 100 // 4 = 25, flattened 25 * 32 = 800
        assert cfg.feature_dim() == 800
        assert params.classifier.params["fc1_w"].data.shape == (25, 800)

    def test_embedding_axis_shapes(self):
        cfg = TopologyConfig(variant=CNN_FC, conv_axis="embedding")
        # embedding axis: conv slides over the 300 coordinates, 300 // 4 = 75
        assert cfg.pooled_len() == 75
        assert cfg.feature_dim() == 75 * 32 == 2400
        rnn_cfg = TopologyConfig(conv_axis="embedding")
        assert build(rnn_cfg, 0).feature.params["conv_w"].data.shape == (32, 100, 17)

    @pytest.mark.parametrize("variant,rnn_kind,conv_axis", [
        (CNN_RNN_FC, "gru", "sequence"),
        (CNN_RNN_FC, "lstm", "sequence"),
        (CNN_RNN_FC, "gru", "embedding"),
        (CNN_FC, "gru", "sequence"),
        (CNN_FC, "gru", "embedding"),
    ])
    def test_param_count_formula(self, variant, rnn_kind, conv_axis):
        cfg = TopologyConfig(variant=variant, rnn_kind=rnn_kind, conv_axis=conv_axis)
        assert build(cfg, 0).n_params() == param_count(cfg)

    @pytest.mark.parametrize("variant,rnn_kind,conv_axis", [
        (CNN_RNN_FC, "gru", "sequence"),
        (CNN_RNN_FC, "lstm", "sequence"),
        (CNN_RNN_FC, "gru", "embedding"),
        (CNN_RNN_FC, "lstm", "embedding"),
        (CNN_FC, "gru", "sequence"),
        (CNN_FC, "gru", "embedding"),
    ])
    def test_layout_sums_to_param_count_and_is_what_build_draws(self, variant, rnn_kind,
                                                                conv_axis):
        for cfg in (TopologyConfig(variant=variant, rnn_kind=rnn_kind, conv_axis=conv_axis),
                    tiny_topology(variant=variant, rnn_kind=rnn_kind, conv_axis=conv_axis)):
            entries = layout(cfg)
            assert sum(int(np.prod(shape)) for *_, shape in entries) == param_count(cfg)
            params = build(cfg, 0)
            assert [(group.name, name, tensor.data.shape) for group in params.groups()
                    for name, tensor in group.params.items()] == entries

    def test_default_counts(self):
        assert param_count(TopologyConfig()) == 205735
        assert param_count(TopologyConfig(rnn_kind="lstm")) == 219035

    def test_same_seed_identical(self):
        a = build(tiny_topology(), seed=5)
        b = build(tiny_topology(), seed=5)
        for name, tensor in a.named_tensors().items():
            np.testing.assert_array_equal(tensor.data, b.named_tensors()[name].data)

    def test_different_seed_differs(self):
        a = build(tiny_topology(), seed=5)
        b = build(tiny_topology(), seed=6)
        assert any(
            not np.array_equal(t.data, b.named_tensors()[n].data)
            for n, t in a.named_tensors().items()
        )

    def test_group_partition_census(self):
        cfg = tiny_topology()
        params = build(cfg, 0)
        feature_names = set(params.feature.params)
        classifier_names = set(params.classifier.params)
        assert feature_names.isdisjoint(classifier_names)
        assert classifier_names == {"fc1_w", "fc1_b", "fc2_w", "fc2_b"}
        assert {"conv_w", "conv_b"} <= feature_names
        assert params.feature.n_params() + params.classifier.n_params() == param_count(cfg)

    def test_invalid_configs(self):
        with pytest.raises(InvalidConfig):
            TopologyConfig(conv_width=17, conv_pad=7).validate()
        with pytest.raises(InvalidConfig):
            TopologyConfig(variant="transformer").validate()
        with pytest.raises(InvalidConfig):
            TopologyConfig(n_classes=2).validate()
        with pytest.raises(InvalidConfig):
            TopologyConfig(dropout_p=1.0).validate()
        with pytest.raises(InvalidConfig):
            TopologyConfig(seq_len=2, pool_rate=4).validate()

    @pytest.mark.parametrize("field, value", [
        ("seq_len", 8.0), ("emb_dim", True), ("fc_hidden", 1.5), ("rnn_hidden", "5"),
        ("conv_filters", None), ("dropout_p", "0.2"), ("dropout_p", False), ("variant", 1),
    ])
    def test_a_value_of_another_type_is_invalid(self, field, value):
        with pytest.raises(InvalidConfig, match=f"{field}.* must be of type"):
            TopologyConfig(**{field: value}).validate()

    def test_a_real_field_takes_an_int(self):
        TopologyConfig(dropout_p=0).validate()


def oracle_forward(params, cfg, values):
    """Layer-by-layer plain-numpy recomputation (eval mode)."""
    x = values.T if cfg.conv_axis == "sequence" else values
    fp = {k: v.data for k, v in params.feature.params.items()}
    cp = {k: v.data for k, v in params.classifier.params.items()}
    c_in, t = x.shape
    width = fp["conv_w"].shape[2]
    pad = cfg.conv_pad
    xp = np.pad(x, ((0, 0), (pad, pad)))
    t_out = t + 2 * pad - width + 1
    conv = np.zeros((cfg.conv_filters, t_out))
    for o in range(cfg.conv_filters):
        for j in range(t_out):
            conv[o, j] = fp["conv_b"][o] + np.sum(fp["conv_w"][o] * xp[:, j : j + width])
    t_pool = t_out // cfg.pool_rate
    pooled = np.array([
        [conv[o, j * cfg.pool_rate : (j + 1) * cfg.pool_rate].max() for j in range(t_pool)]
        for o in range(cfg.conv_filters)
    ])
    if cfg.variant == CNN_RNN_FC:
        sig = lambda v: 1 / (1 + np.exp(-v))
        h = np.zeros(cfg.rnn_hidden)
        states = []
        if cfg.rnn_kind == "gru":
            for step in pooled.T:
                z = sig(fp["w_z"] @ step + fp["u_z"] @ h + fp["b_z"])
                r = sig(fp["w_r"] @ step + fp["u_r"] @ h + fp["b_r"])
                g = np.tanh(fp["w_h"] @ step + fp["u_h"] @ (r * h) + fp["b_h"])
                h = (1 - z) * h + z * g
                states.append(h)
        else:
            c = np.zeros(cfg.rnn_hidden)
            for step in pooled.T:
                i = sig(fp["w_i"] @ step + fp["u_i"] @ h + fp["b_i"])
                f = sig(fp["w_f"] @ step + fp["u_f"] @ h + fp["b_f"])
                o = sig(fp["w_o"] @ step + fp["u_o"] @ h + fp["b_o"])
                g = np.tanh(fp["w_g"] @ step + fp["u_g"] @ h + fp["b_g"])
                c = f * c + i * g
                h = o * np.tanh(c)
                states.append(h)
        feat = np.max(np.stack(states), axis=0)
    else:
        feat = pooled.reshape(-1)
    hidden = np.maximum(cp["fc1_w"] @ feat + cp["fc1_b"], 0.0)
    logits = cp["fc2_w"] @ hidden + cp["fc2_b"]
    e = np.exp(logits - logits.max())
    return e / e.sum()


class TestForward:
    def test_probability_contract(self, topo, table):
        params = build(topo, 0)
        rng = np.random.default_rng(0)
        for _ in range(20):
            out = forward(params, topo, rng.standard_normal((8, 6)))
            assert out.data.shape == (3,)
            assert abs(out.data.sum() - 1.0) <= 1e-9
            assert np.all(out.data > 0)

    def test_zeroed_classifier_gives_uniform(self, topo):
        params = build(topo, 0)
        for tensor in params.classifier.params.values():
            tensor.data[:] = 0.0
        out = forward(params, topo, np.zeros((8, 6)))
        np.testing.assert_allclose(out.data, np.full(3, 1 / 3), atol=1e-15)

    @pytest.mark.parametrize("variant,rnn_kind", [
        (CNN_RNN_FC, "gru"), (CNN_RNN_FC, "lstm"), (CNN_FC, "gru"),
    ])
    def test_matches_composed_oracle(self, variant, rnn_kind):
        cfg = tiny_topology(variant=variant, rnn_kind=rnn_kind)
        params = build(cfg, seed=3)
        values = np.random.default_rng(4).standard_normal((8, 6))
        got = forward(params, cfg, values).data
        np.testing.assert_allclose(got, oracle_forward(params, cfg, values), atol=1e-12)

    def test_embedding_axis_matches_oracle(self):
        cfg = tiny_topology(conv_axis="embedding", seq_len=6, emb_dim=8)
        params = build(cfg, seed=3)
        values = np.random.default_rng(4).standard_normal((6, 8))
        got = forward(params, cfg, values).data
        np.testing.assert_allclose(got, oracle_forward(params, cfg, values), atol=1e-12)

    def test_eval_forward_bit_identical(self, topo):
        params = build(topo, 1)
        values = np.random.default_rng(2).standard_normal((8, 6))
        a = forward(params, topo, values).data
        b = forward(params, topo, values).data
        assert a.tobytes() == b.tobytes()

    def test_train_forward_reproducible_under_seed(self, topo):
        params = build(topo, 1)
        values = np.random.default_rng(2).standard_normal((8, 6))
        a = forward(params, topo, values, train=True, rng=np.random.default_rng(9)).data
        b = forward(params, topo, values, train=True, rng=np.random.default_rng(9)).data
        assert a.tobytes() == b.tobytes()

    def test_train_needs_rng(self, topo):
        params = build(topo, 1)
        with pytest.raises(ValueError):
            forward(params, topo, np.zeros((8, 6)), train=True)

    def test_input_shape_checked(self, topo):
        params = build(topo, 1)
        with pytest.raises(ShapeMismatch):
            forward(params, topo, np.zeros((6, 8)))

    @pytest.mark.parametrize("variant,rnn_kind", [
        (CNN_RNN_FC, "gru"), (CNN_RNN_FC, "lstm"), (CNN_FC, "gru"),
    ])
    def test_frozen_extractor_is_not_differentiated(self, variant, rnn_kind):
        # tune's freeze: the head trains on the extractor's features as a
        # constant, and gets the gradients of the full forward pass
        cfg = tiny_topology(variant=variant, rnn_kind=rnn_kind)
        values = np.random.default_rng(6).standard_normal((1, cfg.seq_len, cfg.emb_dim))
        values[:, :3] = 0.0  # left padding
        full, frozen = build(cfg, seed=5), build(cfg, seed=5)
        probs = forward(full, cfg, values, train=True, rng=np.random.default_rng(7))
        cross_entropy(probs, [2]).backward()
        feature_bytes = [t.data.tobytes() for t in frozen.feature.params.values()]
        feats = Tensor(features(frozen, cfg, values).data)
        probs = classify(frozen, cfg, feats, train=True, rng=np.random.default_rng(7))
        cross_entropy(probs, [2]).backward()
        assert not any(t.grad.any() for t in frozen.feature.params.values())
        assert [t.data.tobytes() for t in frozen.feature.params.values()] == feature_bytes
        for key, tensor in full.classifier.params.items():
            np.testing.assert_allclose(frozen.classifier.params[key].grad, tensor.grad,
                                       atol=1e-12, rtol=0)


def graph_size(root) -> int:
    """Nodes reachable from root through the parents each node records."""
    seen, stack = set(), [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    return len(seen)


class TestGraphLifetime:
    @pytest.mark.parametrize("rnn_kind", ["gru", "lstm"])
    def test_graphs_free_without_cycle_collector(self, rnn_kind):
        cfg = tiny_topology(rnn_kind=rnn_kind)
        params = build(cfg, seed=0)
        values = np.random.default_rng(0).standard_normal((cfg.seq_len, cfg.emb_dim))
        bounds = ClassBounds(np.array([0.6, 0.0, 0.0]), np.ones(3))
        gc.collect()
        gc.disable()
        try:
            probs = forward(params, cfg, values, train=True, rng=np.random.default_rng(1))
            cross_entropy(probs, 1).backward()
            probs = forward(params, cfg, values, train=True, rng=np.random.default_rng(2))
            weak_loss(probs, bounds, ClassWeights.uniform()).backward()
            probs = forward(params, cfg, values)
            del probs
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("rnn_kind", ["gru", "lstm"])
    def test_graph_size_independent_of_sequence_length(self, rnn_kind):
        sizes = []
        for seq_len in (12, 24):
            cfg = tiny_topology(rnn_kind=rnn_kind, seq_len=seq_len)
            params = build(cfg, seed=0)
            values = np.random.default_rng(0).standard_normal((seq_len, cfg.emb_dim))
            probs = forward(params, cfg, values, train=True, rng=np.random.default_rng(1))
            sizes.append(graph_size(cross_entropy(probs, 0)))
        assert sizes[0] == sizes[1]
