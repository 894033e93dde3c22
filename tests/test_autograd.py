import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import perpost_oracle as oracle
from conftest import tiny_topology
from hatenet import autograd, model, optim
from hatenet.autograd import (
    IdBatch,
    Tensor,
    conv1d,
    dense_ids,
    dropout,
    global_maxpool,
    maxpool1d,
)
from hatenet.errors import ShapeMismatch
from hatenet.layers import (
    GRU_GATES,
    LSTM_GATES,
    cross_entropy,
    fc_forward,
    init_rnn,
    gru_forward,
    lstm_forward,
    rnn_views,
)
from hatenet.model import CNN_FC, CNN_RNN_FC, build, forward, stacked_forward
from hatenet.optim import Adam


def brute_conv1d(x, taps, b, pad):
    """Sliding dot-product reference over (C_in, W, C_out) taps, plain loops."""
    c_in, t = x.shape
    _, width, c_out = taps.shape
    xp = np.pad(x, ((0, 0), (pad, pad)))
    t_out = t + 2 * pad - width + 1
    out = np.zeros((c_out, t_out))
    for o in range(c_out):
        for j in range(t_out):
            acc = b[o]
            for c in range(c_in):
                for w in range(width):
                    acc += taps[c, w, o] * xp[c, j + w]
            out[o, j] = acc
    return out


def conv_one(x, taps, b, pad):
    """conv1d of one (C_in, T) input, as a batch of 1."""
    return conv1d(dense_ids(x[None]), Tensor(taps), Tensor(b), pad=pad).data[0]


def id_batch_cases():
    """(name, IdBatch) cases over 4 rows of 3 channels and T = 9 steps."""
    rng = np.random.default_rng(21)
    rows = rng.standard_normal((4, 3))
    return [
        ("repeated", IdBatch(np.array([[0, 1, 0, 0, 2, 3, 1, 2, 0]]), rows)),
        ("interior_minus_one", IdBatch(np.array([[-1, -1, 0, -1, 1, 1, -1, 3, 0]]), rows)),
        ("all_minus_one_post", IdBatch(np.array([[2, 0, -1, 1, 3, 3, -1, -1, 0],
                                                 [-1] * 9]), rows)),
        ("no_rows", IdBatch(np.full((2, 9), -1), np.zeros((0, 3)))),
        ("full_post", IdBatch(np.array([[3, 2, 1, 0, 0, 1, 2, 3, 3],
                                        [-1, -1, -1, -1, -1, -1, 0, 1, 2]]), rows)),
    ]


class TestConv1d:
    def test_length_preserved_at_production_shape(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 3, 100))
        f = Tensor(rng.standard_normal((3, 17, 2)))
        b = Tensor(rng.standard_normal(2))
        assert conv1d(dense_ids(x), f, b, pad=8).data.shape == (2, 2, 100)

    def test_identity_filter(self):
        x = np.arange(5.0).reshape(1, 5)
        np.testing.assert_array_equal(conv_one(x, np.ones((1, 1, 1)), np.zeros(1), 0), x)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, 5))
        f = rng.standard_normal((1, 3, 1))
        b = rng.standard_normal(1)
        got = conv_one(x, f, b, 0)
        np.testing.assert_allclose(got, brute_conv1d(x, f, b, 0), atol=1e-12)

    @pytest.mark.parametrize("c_in,c_out,t,w,pad", [
        (3, 2, 7, 3, 1), (2, 4, 9, 5, 2), (1, 1, 4, 3, 0), (5, 3, 6, 1, 0),
    ])
    def test_matches_brute_force_shapes(self, c_in, c_out, t, w, pad):
        rng = np.random.default_rng(c_in * 100 + c_out)
        x = rng.standard_normal((c_in, t))
        f = rng.standard_normal((c_in, w, c_out))
        b = rng.standard_normal(c_out)
        got = conv_one(x, f, b, pad)
        np.testing.assert_allclose(got, brute_conv1d(x, f, b, pad), atol=1e-12)

    @pytest.mark.parametrize("zero_steps", [
        [0, 1, 2],            # leading (left padding of a short post)
        [7, 8],               # trailing
        [3, 5],               # interior (out-of-vocabulary tokens)
        [0, 1, 4, 8],         # all three
        list(range(9)),       # an all-zero input
    ])
    def test_zero_steps_match_brute_force(self, zero_steps):
        rng = np.random.default_rng(len(zero_steps))
        x = rng.standard_normal((3, 9))
        x[:, zero_steps] = 0.0
        f = rng.standard_normal((3, 5, 4))
        b = rng.standard_normal(4)
        for pad in (0, 2, 4):
            got = conv_one(x, f, b, pad)
            np.testing.assert_allclose(got, brute_conv1d(x, f, b, pad), atol=1e-12, rtol=0)

    def test_constant_input_gets_no_node(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((3, 8))
        x[:, :3] = 0.0
        f, b = Tensor(rng.standard_normal((3, 3, 2))), Tensor(rng.standard_normal(2))
        lw = rng.standard_normal((2, 8))
        out = conv1d(dense_ids(x[None]), f, b, pad=1)
        assert out._parents == (f, b)
        (out * lw).sum().backward()
        # d/dtaps[c, w, o] of sum(lw * out) is sum_j lw[o, j] * xpad[c, j + w]
        xpad = np.pad(x, ((0, 0), (1, 1)))
        want = np.einsum("oj,cjw->cwo", lw,
                         np.stack([xpad[:, w : w + 8] for w in range(3)], axis=-1))
        np.testing.assert_allclose(f.grad, want, atol=1e-12, rtol=0)
        np.testing.assert_allclose(b.grad, lw.sum(axis=1), atol=1e-12, rtol=0)

    def test_odd_width_same_pad_preserves_length(self):
        rng = np.random.default_rng(2)
        for t in (3, 10, 31):
            for w in (1, 3, 5, 7):
                x = rng.standard_normal((1, 2, t))
                f = Tensor(rng.standard_normal((2, w, 2)))
                b = Tensor(np.zeros(2))
                out = conv1d(dense_ids(x), f, b, pad=(w - 1) // 2)
                assert out.data.shape == (1, 2, t)

    def test_shape_errors(self):
        x = np.zeros((1, 2, 5))
        f = Tensor(np.zeros((3, 3, 1)))
        with pytest.raises(ShapeMismatch):
            conv1d(x, f, Tensor(np.zeros(1)), pad=0)
        with pytest.raises(ShapeMismatch):
            conv1d(x, Tensor(np.zeros((2, 9, 1))), Tensor(np.zeros(1)), pad=0)
        with pytest.raises(ShapeMismatch):  # one unbatched input
            conv1d(x[0], Tensor(np.zeros((2, 3, 1))), Tensor(np.zeros(1)), pad=1)

    @pytest.mark.parametrize("ids", [[[0, 4]], [[-2, 0]], [[0.0, 1.0]]])
    def test_ids_out_of_range_rejected(self, ids):
        batch = IdBatch(np.array(ids), np.zeros((4, 2)))
        with pytest.raises(ShapeMismatch):
            conv1d(batch, Tensor(np.zeros((2, 1, 1))), Tensor(np.zeros(1)), pad=0)

    @pytest.mark.parametrize("name,batch", id_batch_cases())
    def test_ids_match_brute_force_dense_conv(self, name, batch):
        rng = np.random.default_rng(22)
        f, b = rng.standard_normal((3, 5, 2)), rng.standard_normal(2)
        dense = batch.dense().transpose(0, 2, 1)
        for pad in (0, 2, 4):
            got = conv1d(batch, Tensor(f), Tensor(b), pad=pad).data
            want = np.stack([brute_conv1d(x, f, b, pad) for x in dense])
            np.testing.assert_allclose(got, want, atol=1e-12, rtol=0, err_msg=name)

    @pytest.mark.parametrize("name,batch", id_batch_cases())
    def test_dense_adapter_matches_id_path(self, name, batch):
        rng = np.random.default_rng(23)
        f_data, b_data = rng.standard_normal((3, 3, 2)), rng.standard_normal(2)
        lw = rng.standard_normal((len(batch), 2, 9))
        results = []
        for x in (batch, dense_ids(batch.dense().transpose(0, 2, 1))):
            f, b = Tensor(f_data.copy()), Tensor(b_data.copy())
            out = conv1d(x, f, b, pad=1)
            (out * lw).sum().backward()
            results.append((out.data, f.grad, b.grad))
        for got, want in zip(results[1], results[0]):
            np.testing.assert_allclose(got, want, atol=1e-12, rtol=0, err_msg=name)

    def test_id_filter_gradient_matches_closed_form(self):
        # repeated ids across posts, -1 steps, blocks split inside one id
        rng = np.random.default_rng(24)
        rows = rng.standard_normal((3, 2))
        ids = rng.integers(-1, 3, size=(5, 11))
        batch = IdBatch(ids, rows)
        f, b = Tensor(rng.standard_normal((2, 5, 3))), Tensor(rng.standard_normal(3))
        lw = rng.standard_normal((5, 3, 11))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(autograd, "CONV_BLOCK_ROWS", 4)
            (conv1d(batch, f, b, pad=2) * lw).sum().backward()
        xpad = np.pad(batch.dense().transpose(0, 2, 1), ((0, 0), (0, 0), (2, 2)))
        want = np.einsum("boj,bcjw->cwo", lw,
                         np.stack([xpad[..., w : w + 11] for w in range(5)], axis=-1))
        np.testing.assert_allclose(f.grad, want, atol=1e-12, rtol=0)
        np.testing.assert_allclose(b.grad, lw.sum(axis=(0, 2)), atol=1e-12, rtol=0)


@settings(max_examples=60, deadline=None)
@given(width=st.integers(1, 6), n_rows=st.integers(0, 5), c_in=st.integers(1, 4),
       k=st.sampled_from([1, 3]), seed=st.integers(0, 2**32 - 1))
def test_tap_products_yield_every_tap_for_any_group(width, n_rows, c_in, k, seed):
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n_rows, c_in))
    taps = rng.standard_normal((c_in, width, k * 2))  # k members of 2 filters
    for group in range(1, width + 1):
        # each yield is read before the next GEMM overwrites its buffer
        products = [p.copy() for p in autograd.tap_products(rows, taps, group)]
        assert len(products) == width, group
        for w, product in enumerate(products):
            assert product.shape == (n_rows + 1, k * 2)
            np.testing.assert_allclose(product[:-1], rows @ taps[:, w], rtol=0, atol=1e-12)
            assert not product[-1].any()  # the row that id -1 reads


def test_training_conv_multiplies_all_taps_in_one_product(monkeypatch):
    """conv1d asks tap_products for all W taps in one GEMM, however small
    the scoring pass's bound: a bounded group made training batches slower,
    so only stacked_forward passes one."""
    groups = []
    real = autograd.tap_products

    def recording(rows, taps, group):
        groups.append(group)
        return real(rows, taps, group)

    monkeypatch.setattr(autograd, "tap_products", recording)
    monkeypatch.setattr(model, "tap_products", recording)
    monkeypatch.setattr(model, "STACKED_PRODUCT_VALUES", 1)  # scoring: one tap per GEMM
    rng = np.random.default_rng(3)
    # 1,000 rows by 17 taps of 32 filters: over 2^19 product values, the
    # scoring pass's bound
    batch = IdBatch(rng.integers(-1, 1000, size=(4, 200)), rng.standard_normal((1000, 3)))
    conv1d(batch, Tensor(rng.standard_normal((3, 17, 32))), Tensor(np.zeros(32)), pad=8)
    assert groups == [17]
    config = tiny_topology()
    params = build(config, 0)
    batch = rng.standard_normal((4, config.seq_len, config.emb_dim))
    groups.clear()
    forward(params, config, batch, train=True, rng=rng)
    assert groups == [config.conv_width]
    groups.clear()
    stacked_forward(config, params.stacked, batch)
    assert groups == [1]


class TestMaxPool:
    def test_rate4_length(self):
        x = Tensor(np.random.default_rng(0).standard_normal((2, 100)))
        assert maxpool1d(x, 4).data.shape == (2, 25)

    def test_single_window(self):
        out = maxpool1d(Tensor(np.array([[1.0, 3.0, 2.0, 8.0]])), 4)
        np.testing.assert_array_equal(out.data, [[8.0]])

    def test_matches_window_oracle(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 12))
        got = maxpool1d(Tensor(x), 3).data
        want = np.array([
            [max(x[c, j * 3 : j * 3 + 3]) for j in range(4)] for c in range(2)
        ])
        np.testing.assert_array_equal(got, want)

    def test_remainder_dropped(self):
        x = Tensor(np.array([[1.0, 2.0, 3.0, 4.0, 99.0]]))
        np.testing.assert_array_equal(maxpool1d(x, 2).data, [[2.0, 4.0]])

    def test_global_maxpool(self):
        np.testing.assert_array_equal(
            global_maxpool(Tensor(np.array([[1.0, 5.0], [3.0, 2.0]]))).data, [3.0, 5.0]
        )
        single = np.array([[7.0, -1.0, 2.0]])
        np.testing.assert_array_equal(global_maxpool(Tensor(single)).data, single[0])
        rng = np.random.default_rng(6)
        x = rng.standard_normal((25, 100))
        np.testing.assert_array_equal(global_maxpool(Tensor(x)).data, x.max(axis=0))


def init_gru(rng, d_in, hidden):
    return rnn_views(*init_rnn(rng, d_in, hidden, GRU_GATES), GRU_GATES)


def init_lstm(rng, d_in, hidden):
    return rnn_views(*init_rnn(rng, d_in, hidden, LSTM_GATES), LSTM_GATES)


def blocks_of(p, gates):
    """Gate-major W, Uᵀ and b Tensors holding the per-gate values of p."""
    w, u, b = (np.concatenate([p[f"{kind}_{gate}"].data for gate in gates]) for kind in "wub")
    return Tensor(w), Tensor(u.T.copy()), Tensor(b)


def scalar_gru_step(x, h, p):
    z = 1 / (1 + math.exp(-(p["w_z"] * x + p["u_z"] * h + p["b_z"])))
    r = 1 / (1 + math.exp(-(p["w_r"] * x + p["u_r"] * h + p["b_r"])))
    g = math.tanh(p["w_h"] * x + p["u_h"] * (r * h) + p["b_h"])
    return (1 - z) * h + z * g


def scalar_lstm_step(x, h, c, p):
    sig = lambda v: 1 / (1 + math.exp(-v))
    i = sig(p["w_i"] * x + p["u_i"] * h + p["b_i"])
    f = sig(p["w_f"] * x + p["u_f"] * h + p["b_f"])
    o = sig(p["w_o"] * x + p["u_o"] * h + p["b_o"])
    g = math.tanh(p["w_g"] * x + p["u_g"] * h + p["b_g"])
    c = f * c + i * g
    return o * math.tanh(c), c


class TestRecurrent:
    def test_gru_zero_weights_zero_output(self):
        p = {k: Tensor(np.zeros_like(v.data))
             for k, v in init_gru(np.random.default_rng(0), 3, 4).items()}
        out = gru_forward(Tensor(np.ones((2, 5, 3))), *blocks_of(p, GRU_GATES))
        np.testing.assert_array_equal(out.data, np.zeros((2, 5, 4)))

    def test_gru_single_scalar_step(self):
        vals = {"w_z": 0.3, "u_z": -0.2, "b_z": 0.1,
                "w_r": 0.5, "u_r": 0.4, "b_r": -0.3,
                "w_h": -0.7, "u_h": 0.6, "b_h": 0.2}
        p = {k: Tensor(np.full((1, 1) if k[0] in "wu" else (1,), v))
             for k, v in vals.items()}
        x = 0.8
        got = gru_forward(Tensor(np.array([[[x]]])), *blocks_of(p, GRU_GATES)).data[0, 0, 0]
        assert got == pytest.approx(scalar_gru_step(x, 0.0, vals), abs=1e-12)

    def test_gru_three_steps_match_scalar_oracle(self):
        rng = np.random.default_rng(7)
        vals = {k: rng.uniform(-1, 1) for k in
                ("w_z", "u_z", "b_z", "w_r", "u_r", "b_r", "w_h", "u_h", "b_h")}
        p = {k: Tensor(np.full((1, 1) if k[0] in "wu" else (1,), v))
             for k, v in vals.items()}
        xs = rng.uniform(-1, 1, size=3)
        got = gru_forward(Tensor(xs.reshape(1, 3, 1)), *blocks_of(p, GRU_GATES)).data[0, :, 0]
        h = 0.0
        for t, x in enumerate(xs):
            h = scalar_gru_step(x, h, vals)
            assert got[t] == pytest.approx(h, abs=1e-12)

    def test_lstm_zero_weights_zero_output(self):
        p = {k: Tensor(np.zeros_like(v.data))
             for k, v in init_lstm(np.random.default_rng(0), 2, 3).items()}
        out = lstm_forward(Tensor(np.ones((2, 4, 2))), *blocks_of(p, LSTM_GATES))
        np.testing.assert_array_equal(out.data, np.zeros((2, 4, 3)))

    def test_lstm_single_scalar_step(self):
        rng = np.random.default_rng(8)
        vals = {k: rng.uniform(-1, 1) for k in
                ("w_i", "u_i", "b_i", "w_f", "u_f", "b_f",
                 "w_o", "u_o", "b_o", "w_g", "u_g", "b_g")}
        p = {k: Tensor(np.full((1, 1) if k[0] in "wu" else (1,), v))
             for k, v in vals.items()}
        x = -0.4
        got = lstm_forward(Tensor(np.array([[[x]]])), *blocks_of(p, LSTM_GATES)).data[0, 0, 0]
        want, _ = scalar_lstm_step(x, 0.0, 0.0, vals)
        assert got == pytest.approx(want, abs=1e-12)

    def test_lstm_two_steps_match_scalar_oracle(self):
        rng = np.random.default_rng(9)
        vals = {k: rng.uniform(-1, 1) for k in
                ("w_i", "u_i", "b_i", "w_f", "u_f", "b_f",
                 "w_o", "u_o", "b_o", "w_g", "u_g", "b_g")}
        p = {k: Tensor(np.full((1, 1) if k[0] in "wu" else (1,), v))
             for k, v in vals.items()}
        xs = rng.uniform(-1, 1, size=2)
        got = lstm_forward(Tensor(xs.reshape(1, 2, 1)), *blocks_of(p, LSTM_GATES)).data[0, :, 0]
        h = c = 0.0
        for t, x in enumerate(xs):
            h, c = scalar_lstm_step(x, h, c, vals)
            assert got[t] == pytest.approx(h, abs=1e-12)


def composed_gru(xs, p):
    """The GRU as a per-step composition of vector nodes, one node per op."""
    h = Tensor(np.zeros(p["u_z"].data.shape[0]))
    states = []
    mm, add = oracle.matmul, oracle.add
    for x in xs:
        z = oracle.sigmoid(add(add(mm(p["w_z"], x), mm(p["u_z"], h)), p["b_z"]))
        r = oracle.sigmoid(add(add(mm(p["w_r"], x), mm(p["u_r"], h)), p["b_r"]))
        g = oracle.tanh(add(add(mm(p["w_h"], x), mm(p["u_h"], r * h)), p["b_h"]))
        h = add(oracle.sub(1.0, z) * h, z * g)
        states.append(h)
    return oracle.stack(states)


def composed_lstm(xs, p):
    """The LSTM as a per-step composition of vector nodes, one node per op."""
    h = c = Tensor(np.zeros(p["u_i"].data.shape[0]))
    states = []
    mm, add = oracle.matmul, oracle.add
    for x in xs:
        i = oracle.sigmoid(add(add(mm(p["w_i"], x), mm(p["u_i"], h)), p["b_i"]))
        f = oracle.sigmoid(add(add(mm(p["w_f"], x), mm(p["u_f"], h)), p["b_f"]))
        o = oracle.sigmoid(add(add(mm(p["w_o"], x), mm(p["u_o"], h)), p["b_o"]))
        g = oracle.tanh(add(add(mm(p["w_g"], x), mm(p["u_g"], h)), p["b_g"]))
        c = add(f * c, i * g)
        h = o * oracle.tanh(c)
        states.append(h)
    return oracle.stack(states)


@pytest.mark.parametrize("gates, fused, composed", [
    (GRU_GATES, gru_forward, composed_gru),
    (LSTM_GATES, lstm_forward, composed_lstm),
], ids=["init_gru-gru_forward-composed_gru", "init_lstm-lstm_forward-composed_lstm"])
def test_fused_recurrent_op_matches_step_composition(gates, fused, composed):
    # the per-gate tensors are views of the blocks the fused op runs on
    t_steps, d_in, hidden = 6, 4, 5
    rng = np.random.default_rng(12)
    blocks = init_rnn(rng, d_in, hidden, gates)
    p = rnn_views(*blocks, gates)
    for key, tensor in p.items():
        if key.startswith("b_"):
            tensor.data[:] = rng.standard_normal(hidden)
    q = {k: Tensor(v.data.copy()) for k, v in p.items()}
    x = rng.standard_normal((t_steps, d_in))
    lw = rng.standard_normal((t_steps, hidden))

    inputs = Tensor(x[None])
    out = fused(inputs, *blocks)
    (out * lw).sum().backward()
    rows = [Tensor(x[t]) for t in range(t_steps)]
    want = composed(rows, q)
    (want * lw).sum().backward()

    np.testing.assert_allclose(out.data[0], want.data, rtol=0, atol=1e-12)
    np.testing.assert_allclose(inputs.grad[0], np.stack([r.grad for r in rows]),
                               rtol=0, atol=1e-10)
    for key in p:
        np.testing.assert_allclose(p[key].grad, q[key].grad, rtol=0, atol=1e-10,
                                   err_msg=key)


class TestFcAndLosses:
    def test_identity_affine(self):
        x = Tensor(np.array([1.0, -2.0, 3.0]))
        out = fc_forward(x, Tensor(np.eye(3)), Tensor(np.zeros(3)), None)
        np.testing.assert_array_equal(out.data, x.data)

    def test_softmax_symmetry(self):
        out = fc_forward(Tensor(np.zeros(3)), Tensor(np.eye(3)),
                         Tensor(np.zeros(3)), "softmax")
        np.testing.assert_allclose(out.data, np.full(3, 1 / 3), atol=1e-15)

    def test_relu_fixture(self):
        x = Tensor(np.array([-1.0, 2.0]))
        w = Tensor(np.array([[1.0, 1.0], [2.0, 0.0]]))
        b = Tensor(np.array([0.5, -3.0]))
        # pre-activation: [1*(-1)+1*2+0.5, 2*(-1)+0-3] = [1.5, -5]
        out = fc_forward(x, w, b, "relu")
        np.testing.assert_array_equal(out.data, [1.5, 0.0])

    def test_softmax_probability_contract(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            y = Tensor(rng.standard_normal(3) * 10).softmax()
            assert abs(y.data.sum() - 1.0) <= 1e-9
            assert np.all(y.data > 0)

    def test_cross_entropy_values(self):
        assert cross_entropy(Tensor(np.array([0.0, 1.0, 0.0])), 1).data == 0.0
        uniform = Tensor(np.full(3, 1 / 3))
        assert cross_entropy(uniform, 2).data == pytest.approx(math.log(3), abs=1e-12)
        pred = Tensor(np.array([0.2, 0.5, 0.3]))
        assert cross_entropy(pred, 0).data == pytest.approx(1.6094379124341003, abs=1e-9)

    def test_cross_entropy_clamps_zero(self):
        loss = cross_entropy(Tensor(np.array([0.0, 1.0, 0.0])), 0)
        assert loss.data == pytest.approx(-math.log(1e-12), rel=1e-9)


class TestDropout:
    def test_eval_identity(self):
        x = Tensor(np.arange(6.0))
        out = dropout(x, 0.5, False, np.random.default_rng(0))
        np.testing.assert_array_equal(out.data, x.data)

    def test_p_zero_identity(self):
        x = Tensor(np.arange(6.0))
        out = dropout(x, 0.0, True, np.random.default_rng(0))
        np.testing.assert_array_equal(out.data, x.data)

    def test_seeded_mask_reproducible(self):
        x = Tensor(np.ones(20))
        out1 = dropout(x, 0.5, True, np.random.default_rng(123)).data
        out2 = dropout(x, 0.5, True, np.random.default_rng(123)).data
        np.testing.assert_array_equal(out1, out2)
        # the documented mask rule, rebuilt independently
        want = (np.random.default_rng(123).random(20) >= 0.5) / 0.5
        np.testing.assert_array_equal(out1, want)
        assert set(np.unique(out1)) <= {0.0, 2.0}


class TestBackward:
    def test_single_fc_squared_error_gradient(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.standard_normal(4))
        w = Tensor(rng.standard_normal((1, 4)))
        b = Tensor(rng.standard_normal(1))
        target = 0.7
        pred = oracle.pick(oracle.add(oracle.matmul(w, x), b), 0)
        loss = oracle.sub(pred, target) * oracle.sub(pred, target)
        loss.backward()
        residual = 2 * (pred.data - target)
        np.testing.assert_allclose(w.grad, (residual * x.data)[None, :], atol=1e-12)
        np.testing.assert_allclose(b.grad, [residual], atol=1e-12)
        np.testing.assert_allclose(x.grad, residual * w.data[0], atol=1e-12)

    def test_grad_accumulates_over_shared_use(self):
        x = Tensor(np.array([2.0]))
        loss = (x * x).sum()
        loss.backward()
        np.testing.assert_allclose(x.grad, [4.0])

    def test_backward_requires_scalar(self):
        with pytest.raises(ShapeMismatch):
            Tensor(np.zeros(3)).backward()

    def test_stack_routes_gradients(self):
        rows = [Tensor(np.array([1.0, 2.0])), Tensor(np.array([3.0, 4.0]))]
        weights = np.array([[1.0, 10.0], [100.0, 1000.0]])
        (oracle.stack(rows) * weights).sum().backward()
        np.testing.assert_array_equal(rows[0].grad, [1.0, 10.0])
        np.testing.assert_array_equal(rows[1].grad, [100.0, 1000.0])

    def test_deterministic_bitwise(self):
        def run():
            rng = np.random.default_rng(42)
            x = rng.standard_normal((1, 3, 8))
            f = Tensor(rng.standard_normal((3, 3, 2)))
            b = Tensor(rng.standard_normal(2))
            out = maxpool1d(conv1d(dense_ids(x), f, b, pad=1), 2)
            loss = (out.reshape(-1) * rng.standard_normal(8)).sum()
            loss.backward()
            return loss.data.copy(), f.grad.copy()
        l1, g1 = run()
        l2, g2 = run()
        assert l1.tobytes() == l2.tobytes()
        assert g1.tobytes() == g2.tobytes()


def reference_adam(theta, grads, lr=0.1, b1=0.9, b2=0.999, eps=1e-8):
    """Plain-loop update rule for the hand-iterated comparison."""
    m = v = 0.0
    out = []
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        theta -= lr * m_hat / (math.sqrt(v_hat) + eps)
        out.append(theta)
    return out


class TestAdam:
    def test_zero_gradient_no_change(self):
        data = np.array([1.5, -2.0])
        Adam(data, np.zeros(2), lr=0.1).step()
        np.testing.assert_array_equal(data, [1.5, -2.0])

    def test_three_hand_iterated_steps(self):
        data, grad = np.array([1.0]), np.zeros(1)
        opt = Adam(data, grad, lr=0.1)
        grads = [0.3, -0.2, 0.5]
        want = reference_adam(1.0, grads)
        for g, expected in zip(grads, want):
            grad[0] = g
            opt.step()
            assert data[0] == pytest.approx(expected, abs=1e-15)

    def test_constant_gradient_steps_equal_lr(self):
        data, grad = np.array([0.0]), np.ones(1)
        opt = Adam(data, grad, lr=0.05)
        for t in range(1, 4):
            opt.step()
            assert data[0] == pytest.approx(-0.05 * t, rel=1e-7)

    def test_values_outside_the_buffer_untouched(self):
        # tune steps only the classifier's slice of a member's buffer
        data, grad = np.array([3.0, 3.0]), np.array([10.0, 10.0])
        Adam(data[1:], grad[1:], lr=0.1).step()
        assert data[0] == 3.0 and data[1] != 3.0

    @pytest.mark.parametrize("variant, rnn_kind", [
        (CNN_RNN_FC, "gru"), (CNN_RNN_FC, "lstm"), (CNN_FC, "gru"),
    ])
    def test_buffer_step_matches_per_tensor_reference(self, variant, rnn_kind):
        # the same member trained twice: one Adam over the member's buffer,
        # the reference one tensor at a time; their values stay bit-equal
        topo = tiny_topology(variant=variant, rnn_kind=rnn_kind)
        ours, theirs = build(topo, seed=3), build(topo, seed=3)
        opt, ref = Adam(ours.data, ours.grad, lr=1e-2), oracle.Adam(lr=1e-2)
        rng = np.random.default_rng(4)
        for _ in range(25):
            batch = IdBatch(rng.integers(-1, 6, size=(4, topo.seq_len)),
                            rng.standard_normal((6, topo.emb_dim)))
            targets = rng.integers(0, 3, size=4)
            for params, step in ((ours, opt.step), (theirs, lambda: ref.step(theirs.groups()))):
                probs = forward(params, topo, batch, train=True, rng=np.random.default_rng(5))
                cross_entropy(probs, targets).backward()
                step()
            assert ours.data.tobytes() == theirs.data.tobytes()

    def test_steps_across_blocks_match_per_tensor_reference(self):
        # two whole blocks and a part of one: each block rounds as the formula
        rng = np.random.default_rng(6)
        n = 2 * optim.ADAM_BLOCK + 5
        data, grad = rng.standard_normal(n), np.empty(n)
        param = SimpleNamespace(data=data.copy(), grad=grad)
        opt, ref = Adam(data, grad, lr=1e-2), oracle.Adam(lr=1e-2)
        for _ in range(3):
            grad[:] = rng.standard_normal(n)
            opt.step()
            ref.step([SimpleNamespace(params={"w": param})])
        assert data.tobytes() == param.data.tobytes()

    def test_rejects_nonpositive_lr(self):
        with pytest.raises(ValueError):
            Adam(np.zeros(1), np.zeros(1), lr=0.0)

    @pytest.mark.parametrize("lr", [float("nan"), float("inf")])
    def test_rejects_nonfinite_lr(self, lr):
        with pytest.raises(ValueError):
            Adam(np.zeros(1), np.zeros(1), lr=lr)
