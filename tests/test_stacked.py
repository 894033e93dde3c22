"""A bundle's K members stored stacked and scored in one graph-free pass,
against the per-member autograd forward."""

import json

import numpy as np
import pytest

import perpost_oracle as oracle
from conftest import separable_corpus, tiny_topology
from hatenet import cli, ensemble, layers, model
from hatenet.autograd import IdBatch, Tensor
from hatenet.corpus import load_unlabeled
from hatenet.embeddings import synthetic_table
from hatenet.ensemble import (
    EnsembleBundle,
    Prediction,
    TrainConfig,
    _balanced_positions,
    _batches,
    _encode,
    _step,
    evaluate,
    load_bundle,
    predict_all,
    save_bundle,
    train_ensemble,
    tune,
    vote_outcome,
)
from hatenet.errors import CheckpointIntegrityError
from hatenet.layers import (
    GRU_GATES,
    LSTM_GATES,
    cross_entropy,
    gru_forward,
    init_rnn,
    lstm_forward,
)
from hatenet.metrics import accumulate, report
from hatenet.model import (
    CNN_FC,
    CNN_RNN_FC,
    build,
    classify,
    features,
    forward,
    param_count,
    stacked_forward,
)
from hatenet.optim import Adam

TOPOLOGIES = [
    (CNN_RNN_FC, "gru", "sequence"),
    (CNN_RNN_FC, "gru", "embedding"),
    (CNN_RNN_FC, "lstm", "sequence"),
    (CNN_RNN_FC, "lstm", "embedding"),
    (CNN_FC, "gru", "sequence"),
    (CNN_FC, "gru", "embedding"),
]


def id_batch(config, seed) -> IdBatch:
    """Four posts over five rows: repeated ids, -1 steps inside and around
    the live ones, and one all-padding (empty) post."""
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, 5, size=(4, config.seq_len))
    ids[0, :3] = 2  # one id at three steps in a row
    ids[1, ::3] = -1
    ids[2] = -1
    ids[3, : config.seq_len // 2] = -1
    return IdBatch(ids, rng.standard_normal((5, config.emb_dim)))


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("taps_per_gemm", [None, 1, 2])
@pytest.mark.parametrize("variant, rnn_kind, conv_axis", TOPOLOGIES)
def test_stacked_pass_matches_per_member_forward(monkeypatch, variant, rnn_kind,
                                                 conv_axis, taps_per_gemm, k):
    config = tiny_topology(variant=variant, rnn_kind=rnn_kind, conv_axis=conv_axis)
    members = [build(config, seed) for seed in range(k)]
    bundle = EnsembleBundle(members, config, {"dim": config.emb_dim})
    batch = id_batch(config, seed=k)
    if taps_per_gemm is not None:  # 3 taps: GEMMs of 1 tap, or of 2 taps and 1
        rows = len(model._conv_input(batch, config).rows) + 1
        monkeypatch.setattr(model, "STACKED_PRODUCT_VALUES",
                            taps_per_gemm * rows * k * config.conv_filters)
    feats, probs = stacked_forward(config, bundle.stacked, batch)
    assert feats.shape == (k, 4, config.feature_dim()) and probs.shape == (k, 4, 3)
    for index, member in enumerate(members):
        np.testing.assert_allclose(feats[index], features(member, config, batch).data,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(probs[index], forward(member, config, batch).data,
                                   rtol=0, atol=1e-12)


def per_member_predictions(bundle, posts, table):
    """predict_all as one autograd forward per member and chunk."""
    _, encoded = _encode(posts, table, bundle.topology)
    out = []
    for chunk in _batches(np.arange(len(encoded)), ensemble.EVAL_CHUNK):
        batch = encoded.take(chunk)
        probs = np.stack([forward(m, bundle.topology, batch).data for m in bundle.members])
        for post in probs.swapaxes(0, 1):  # (K, 3), one post's vote at a time
            votes = [int(np.argmax(p)) for p in post]
            out.append(Prediction(vote_outcome(votes, post), votes, post.mean(axis=0), post))
    return out


@pytest.fixture(scope="module")
def trained():
    topo, table = tiny_topology(), synthetic_table(0, 6)
    cfg = TrainConfig(ensemble_size=3, epochs=2, seed=0, batch_size=8)
    bundle, _ = train_ensemble(cfg, topo, table, separable_corpus(3, seed=1),
                               separable_corpus(1, seed=2))
    return bundle, table


def test_predict_and_evaluate_match_per_member_scoring(trained, monkeypatch):
    bundle, table = trained
    corpus = separable_corpus(9, seed=5)  # 27 posts: chunks of 10, 10 and 7
    monkeypatch.setattr(ensemble, "EVAL_CHUNK", 10)
    got = list(predict_all(bundle, corpus.posts, table))
    want = per_member_predictions(bundle, corpus.posts, table)
    for g, w in zip(got, want, strict=True):
        assert (g.label, g.votes) == (w.label, w.votes)
        assert type(g.label) is int and all(type(v) is int for v in g.votes)
        np.testing.assert_allclose(g.member_probs, w.member_probs, rtol=0, atol=1e-12)
        assert g.mean_probs.tobytes() == g.member_probs.mean(axis=0).tobytes()
    assert evaluate(bundle, corpus, table) == report(accumulate(
        (post.label, w.label) for post, w in zip(corpus.posts, want)))


def test_hatenet_predict_lines_match_per_member_scoring(trained, tmp_path):
    bundle, table = trained
    save_bundle(bundle, tmp_path / "bundle")
    inputs = tmp_path / "posts.txt"
    inputs.write_text("\n".join(p.text for p in separable_corpus(4, seed=6).posts) + "\n")
    out = tmp_path / "labels.jsonl"
    assert cli.main(["predict", "--bundle", str(tmp_path / "bundle"), "--input", str(inputs),
                     "--embeddings", "synthetic:0:6", "--output", str(out)]) == 0
    posts = load_unlabeled(str(inputs))
    names = ["H", "O", "N"]
    want = [json.dumps({
        "source_id": post.source_id,
        "label": names[w.label],
        "votes": [names[v] for v in w.votes],
        "mean_probs": [round(p, 6) for p in w.mean_probs.tolist()],
    }, sort_keys=True) for post, w in zip(posts, per_member_predictions(bundle, posts, table))]
    assert out.read_text().splitlines() == want


@pytest.mark.parametrize("made_by", ["train_ensemble", "load_bundle", "tune"])
def test_members_are_read_only_views_of_one_copy(trained, tmp_path, made_by):
    bundle, table = trained
    if made_by == "load_bundle":
        save_bundle(bundle, tmp_path)
        bundle = load_bundle(tmp_path)
    elif made_by == "tune":
        bundle = tune(bundle, separable_corpus(2, seed=8), TrainConfig(tune_epochs=1), table)
    stacked = list(bundle.stacked.values())
    assert sum(a.size for a in stacked) == bundle.size() * param_count(bundle.topology)
    for member in bundle.members:
        for name, tensor in member.named_tensors().items():
            assert any(np.shares_memory(tensor.data, a) for a in stacked), name
            with pytest.raises(ValueError):
                tensor.data[...] = 0.0
            with pytest.raises(ValueError):
                tensor.data -= 1.0


def test_save_load_save_is_byte_identical(trained, tmp_path):
    bundle, _ = trained
    save_bundle(bundle, tmp_path / "a")
    save_bundle(load_bundle(tmp_path / "a"), tmp_path / "b")
    for name in [f"member_{i}.ckpt" for i in range(bundle.size())] + ["bundle.meta"]:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_a_bundle_without_members_does_not_load(trained, tmp_path):
    bundle, _ = trained
    save_bundle(bundle, tmp_path)
    meta = json.loads((tmp_path / "bundle.meta").read_text())
    meta["members"] = []
    (tmp_path / "bundle.meta").write_text(json.dumps(meta))
    with pytest.raises(CheckpointIntegrityError, match="no member"):
        load_bundle(tmp_path)


def per_member_tune(bundle, target, cfg, table, stacked_features=False):
    """The tuned heads from each member's own autograd features (or from
    the stacked pass's, as tune takes them), each stepped one tensor at a
    time by the reference Adam."""
    topo = bundle.topology
    _, encoded = _encode(target.posts, table, topo)
    labels = np.array([post.label for post in target.posts])
    heads = []
    for index, member in enumerate(bundle.members):
        if stacked_features:
            frozen = np.concatenate([
                stacked_forward(topo, bundle.stacked, encoded.take(chunk))[0][index]
                for chunk in _batches(np.arange(len(encoded)), ensemble.EVAL_CHUNK)])
        else:
            frozen = features(member, topo, encoded).data
        params = member.copy()
        rng = np.random.default_rng([cfg.seed + index, 2])
        optimizer = oracle.Adam(lr=cfg.tune_lr)
        for epoch in range(1, cfg.tune_epochs + 1):
            for batch in _batches(_balanced_positions(labels, rng), cfg.batch_size):
                probs = classify(params, topo, Tensor(frozen[batch]), train=True, rng=rng)
                cross_entropy(probs, labels[batch]).backward()
                optimizer.step([params.classifier])
        heads.append(params.classifier)
    return heads


def test_tune_heads_match_per_member_features(trained):
    bundle, table = trained
    target = separable_corpus(5, seed=9)
    cfg = TrainConfig(tune_epochs=3, seed=4, batch_size=4)
    tuned = tune(bundle, target, cfg, table)
    for member, head in zip(tuned.members, per_member_tune(bundle, target, cfg, table),
                            strict=True):
        for name, tensor in head.params.items():
            np.testing.assert_allclose(member.classifier.params[name].data, tensor.data,
                                       rtol=0, atol=1e-12, err_msg=name)
    for name, array in bundle.stacked.items():  # the feature arrays are shared
        if not name.startswith("fc"):
            assert tuned.stacked[name] is array


def test_tune_head_steps_match_per_tensor_adam(trained):
    # 7 epochs of 3 batches: 21 steps of the buffer Adam on each head
    bundle, table = trained
    target = separable_corpus(3, seed=9)
    cfg = TrainConfig(tune_epochs=7, seed=4, batch_size=3)
    tuned = tune(bundle, target, cfg, table)
    heads = per_member_tune(bundle, target, cfg, table, stacked_features=True)
    for member, head in zip(tuned.members, heads, strict=True):
        for name, tensor in head.params.items():
            assert member.classifier.params[name].data.tobytes() == tensor.data.tobytes(), name


def test_training_filters_stay_tap_major():
    for rnn_kind in ("gru", "lstm"):
        config = tiny_topology(rnn_kind=rnn_kind)
        params = build(config, 0)
        conv_w, taps, u_t = params.feature.params["conv_w"], params.taps, params.rnn[1]
        assert taps.data.shape == (config.conv_channels(), config.conv_width, config.conv_filters)
        # conv_w, the checkpoint's (C_out, C_in, W) view of the block
        assert np.shares_memory(conv_w.data, taps.data)
        assert np.array_equal(conv_w.data, taps.data.transpose(2, 0, 1))
        gates = {"gru": 3, "lstm": 4}[rnn_kind]
        assert u_t.data.shape == (config.rnn_hidden, gates * config.rnn_hidden)  # Uᵀ, not U
        rng = np.random.default_rng(0)
        batch = id_batch(config, seed=0)
        optimizer = Adam(params.data, params.grad)
        for _ in range(2):
            probs = forward(params, config, batch, train=True, rng=rng)
            _step(cross_entropy(probs, [0, 1, 2, 0]), optimizer, 1)
            assert np.array_equal(conv_w.grad, taps.grad.transpose(2, 0, 1))
            for block, buffer in ((taps.data, params.data), (taps.grad, params.grad),
                                  (u_t.data, params.data), (u_t.grad, params.grad)):
                assert block.flags.c_contiguous and np.shares_memory(block, buffer)
        copied = params.copy()
        assert copied.taps.data.flags.c_contiguous
        np.testing.assert_array_equal(copied.taps.data, taps.data)
        np.testing.assert_array_equal(copied.feature.params["conv_w"].data, conv_w.data)


@pytest.mark.parametrize("rnn_kind", ["gru", "lstm"])
def test_training_never_relays_a_member(rnn_kind, monkeypatch):
    """A training member is the K=1 stack over its buffer: validation scores
    it in place, so training never calls model.stack."""
    config = tiny_topology(rnn_kind=rnn_kind)
    params = build(config, 3)
    shapes = model.stacked_shapes(config, 1)
    assert list(params.stacked) == list(shapes)
    for name, array in params.stacked.items():
        assert array.shape == shapes[name], name
        assert np.shares_memory(array, params.data), name
    restacked = model.stack(config, 1, [[t.data for t in params.named_tensors().values()]])
    for name, array in restacked.items():
        assert array.tobytes() == params.stacked[name].tobytes(), name

    def refuse(*args, **kwargs):
        raise AssertionError("training re-laid a member with model.stack")

    monkeypatch.setattr(ensemble, "stack", refuse)
    corpus = separable_corpus(3, seed=4)
    cfg = TrainConfig(ensemble_size=1, epochs=2, seed=0, batch_size=4)
    trained, trace = ensemble.train_member(0, cfg, config, synthetic_table(0, 6),
                                           corpus, corpus, keep_snapshots=True)
    assert len(trace.epochs) == 2
    for member in (trained, *trace.snapshots):
        assert all(np.shares_memory(a, member.data) for a in member.stacked.values())
    # a finished member has no gradient buffer
    assert trained.grad is None
    assert all(t.grad is None for t in trained.named_tensors().values())


# -- the recurrence starts where the chunk's common padding ends -----------

# T_pool 4: windows of 3 conv outputs, each reading 5 steps; step 12 is
# read by no pooled step
SKIPPING = dict(seq_len=13, emb_dim=13, conv_width=5, conv_pad=2, pool_rate=3)


def first_live_batch(config, firsts, seed) -> IdBatch:
    """One post per entry of `firsts`: the first live step of its conv
    input (None: no live step), every later step live with a row of its
    own.  Along the embedding axis the posts' rows are zero before that
    coordinate."""
    rng = np.random.default_rng(seed)
    ids = np.arange(len(firsts) * config.seq_len).reshape(len(firsts), -1)
    rows = rng.standard_normal((ids.size, config.emb_dim))
    for b, first in enumerate(firsts):
        if first is None:
            ids[b] = -1
        elif config.conv_axis == "sequence":
            ids[b, :first] = -1
        else:
            rows[ids[b], :first] = 0.0
    return IdBatch(ids, rows)


def lead_by_definition(config, live) -> int:
    """Leading pooled steps of one post whose conv windows read no live
    step of its (T,) conv input mask."""
    rate, pad, width = config.pool_rate, config.conv_pad, config.conv_width
    for p in range(config.pooled_len()):
        reads = {j + w - pad for j in range(p * rate, (p + 1) * rate) for w in range(width)}
        if any(0 <= i < len(live) and live[i] for i in reads):
            return p
    return config.pooled_len()


@pytest.mark.parametrize("conv_axis", ["sequence", "embedding"])
@pytest.mark.parametrize("k", [1, 2, 5])
@pytest.mark.parametrize("rnn_kind", ["gru", "lstm"])
def test_skipping_pass_matches_the_full_recurrence(monkeypatch, rnn_kind, k, conv_axis):
    config = tiny_topology(rnn_kind=rnn_kind, conv_axis=conv_axis, **SKIPPING)
    bundle = EnsembleBundle([build(config, 10 + seed) for seed in range(k)], config,
                            {"dim": config.emb_dim})
    # every first live step, beside an empty post: each side of every pool
    # window's boundary; then empty posts and mixed chunks.  A lone post
    # runs its whole recurrence, so every chunk has two or more
    chunks = [[first, None] for first in range(config.conv_len())]
    chunks += [[None, None], [None, 9], [11, 3, None], [7, 8], [12, 12, 10], [0, 4]]
    t0s = set()
    for seed, firsts in enumerate(chunks):
        batch = first_live_batch(config, firsts, seed)
        ids = model._conv_input(batch, config).ids
        t0 = model._padding_steps(config, ids)
        assert t0 == min(lead_by_definition(config, row >= 0) for row in ids), firsts
        t0s.add(t0)
        skipped = stacked_forward(config, bundle.stacked, batch)
        with monkeypatch.context() as patch:
            patch.setattr(model, "_padding_steps", lambda config, ids: 0)
            full = stacked_forward(config, bundle.stacked, batch)
        for got, want in zip(skipped, full):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12, err_msg=str(firsts))
    assert t0s == set(range(config.pooled_len() + 1))


@pytest.mark.parametrize("rnn_kind", ["gru", "lstm"])
def test_scoring_runs_the_steps_after_the_common_padding(rnn_kind, monkeypatch):
    """Each recurrence step calls model.sigmoid once: the steps before the
    chunk's first live one on one row, the rest on the chunk's 9 posts."""
    config, table = tiny_topology(rnn_kind=rnn_kind, seq_len=24), synthetic_table(0, 6)
    bundle = EnsembleBundle([build(config, seed) for seed in (1, 2)], config, {"dim": 6})
    corpus = separable_corpus(3, seed=5)  # 9 short posts, one chunk
    _, encoded = _encode(corpus.posts, table, config)
    min_lead = min(lead_by_definition(config, row >= 0) for row in encoded.ids)
    assert 0 < min_lead < config.pooled_len()
    steps = []
    original = model.sigmoid

    def counting(x):
        steps.append(x.shape[1])  # (K, B, gates)
        return original(x)

    monkeypatch.setattr(model, "sigmoid", counting)
    evaluate(bundle, corpus, table)
    assert steps == [1] * min_lead + [len(corpus.posts)] * (config.pooled_len() - min_lead)
    # a lone post is one row already: one recurrence over every step
    steps.clear()
    calls = []
    rnn = model._stacked_rnn
    monkeypatch.setattr(model, "_stacked_rnn", lambda *args: calls.append(1) or rnn(*args))
    ensemble.predict(bundle, corpus.posts[0], table)
    assert (len(calls), steps) == (1, [1] * config.pooled_len())


# -- training's recurrence runs the batch's common padding once ------------

LEAD_CASES = {"one_post": [4], "mixed": [4, 5, 4, 6], "all_padding": [6, 6]}


@pytest.mark.parametrize("leads", LEAD_CASES.values(), ids=LEAD_CASES.keys())
@pytest.mark.parametrize("rnn_kind", ["gru", "lstm"])
def test_lead_path_matches_the_full_recurrence(rnn_kind, leads):
    """Input b's first leads[b] steps are the conv bias.  With any t0 up to
    min(leads), the op's outputs and gradients equal the t0 = 0 run's; the
    t0 = 0 run's input gradient on the prefix rows, summed over batch and
    steps, is conv_b's."""
    rng = np.random.default_rng(len(leads))
    gates = GRU_GATES if rnn_kind == "gru" else LSTM_GATES
    run = gru_forward if rnn_kind == "gru" else lstm_forward
    d_in, hidden, t_steps = 3, 4, 6
    blocks = [block.data for block in init_rnn(rng, d_in, hidden, gates)]
    blocks[2] = rng.standard_normal(blocks[2].shape)  # nonzero gate biases
    conv_b = rng.standard_normal(d_in)
    x = rng.standard_normal((len(leads), t_steps, d_in))
    for b, lead in enumerate(leads):
        x[b, :lead] = conv_b
    lw = rng.standard_normal((len(leads), t_steps, hidden))

    def lead_run(t0):
        params = [Tensor(block.copy(), grad=np.zeros_like(block)) for block in blocks]
        inputs, bias = Tensor(x.copy()), Tensor(conv_b.copy())
        out = run(inputs, *params, t0, bias)
        (out * lw).sum().backward()
        return out.data, inputs.grad, bias.grad, [p.grad for p in params]

    full_out, full_dx, full_db, full_grads = lead_run(0)
    assert not full_db.any()
    for t0 in range(min(leads) + 1):
        out, dx, db, grads = lead_run(t0)
        close = dict(rtol=0, atol=1e-12, err_msg=f"t0={t0}")
        np.testing.assert_allclose(out, full_out, **close)
        for got, want in zip(grads, full_grads):
            np.testing.assert_allclose(got, want, **close)
        np.testing.assert_allclose(dx[:, t0:], full_dx[:, t0:], **close)
        assert not dx[:, :t0].any()
        np.testing.assert_allclose(db, full_dx[:, :t0].sum(axis=(0, 1)), **close)


@pytest.mark.parametrize("conv_axis", ["sequence", "embedding"])
@pytest.mark.parametrize("rnn_kind", ["gru", "lstm"])
def test_training_forward_matches_the_full_recurrence(monkeypatch, rnn_kind, conv_axis):
    """forward's loss and every parameter's gradient, with the batch's
    common lead run on one row, against the run with no lead."""
    config = tiny_topology(rnn_kind=rnn_kind, conv_axis=conv_axis, **SKIPPING)
    params = build(config, 3)
    chunks = [[first, None] for first in range(config.conv_len())]
    chunks += [[None], [9], [11, 3, None], [7, 8], [12, 12, 10], [0, 4]]
    t0s = set()
    for seed, firsts in enumerate(chunks):
        batch = first_live_batch(config, firsts, seed)
        t0s.add(model._padding_steps(config, model._conv_input(batch, config).ids))
        lw = np.random.default_rng(seed).standard_normal((len(firsts), config.n_classes))

        def gradients():
            loss = (forward(params, config, batch) * lw).sum()
            loss.backward()
            return [loss.data] + [t.grad.copy() for t in params.named_tensors().values()]

        skipped = gradients()
        with monkeypatch.context() as patch:
            patch.setattr(model, "_padding_steps", lambda config, ids: 0)
            full = gradients()
        for got, want in zip(skipped, full):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12, err_msg=str(firsts))
    assert t0s == set(range(config.pooled_len() + 1))


@pytest.mark.parametrize("rnn_kind", ["gru", "lstm"])
def test_training_runs_the_steps_after_the_common_padding(rnn_kind, monkeypatch):
    """Each recurrence step calls layers.sigmoid once: the steps before the
    batch's first live one on one row, the rest on the batch's posts."""
    config = tiny_topology(rnn_kind=rnn_kind, **SKIPPING)
    params = build(config, 4)
    batch = first_live_batch(config, [11, 7, 9], 0)
    t0 = model._padding_steps(config, batch.ids)
    assert 0 < t0 < config.pooled_len()
    steps = []
    original = layers.sigmoid

    def counting(x, out=None):
        steps.append(x.shape[0])  # (B, gates)
        return original(x, out=out)

    monkeypatch.setattr(layers, "sigmoid", counting)
    forward(params, config, batch, train=True, rng=np.random.default_rng(0)).sum().backward()
    assert steps == [1] * t0 + [3] * (config.pooled_len() - t0)
