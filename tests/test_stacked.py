"""A bundle's K members stored stacked and scored in one graph-free pass,
against the per-member autograd forward."""

import hashlib
import json

import numpy as np
import pytest

import perpost_oracle as oracle
from conftest import separable_corpus, tiny_topology
from hatenet import cli, ensemble, layers, model
from hatenet.autograd import IdBatch, Tensor
from hatenet.corpus import LabeledCorpus, load_unlabeled
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
from hatenet.text import RawPost

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


@pytest.mark.parametrize("rnn_kind", ["gru", "lstm"])
def test_paper_shape_k5_bytes_do_not_depend_on_taps_per_gemm(monkeypatch, rnn_kind):
    """A K=5 bundle at the paper shape gives the same feature and probability
    bytes whether its conv multiplies 1, 6 or all 17 taps per GEMM."""
    config = model.TopologyConfig(rnn_kind=rnn_kind)
    bundle = EnsembleBundle([build(config, seed) for seed in range(5)], config,
                            {"dim": config.emb_dim})
    rng = np.random.default_rng(11)
    ids = rng.integers(-1, 400, size=(20, config.seq_len))
    ids[:, : 60] = -1  # leads of their own, as short posts have
    ids[3] = -1
    batch = IdBatch(ids, rng.standard_normal((400, config.emb_dim)))
    rows = len(model._conv_input(batch, config).rows) + 1
    groups, real = [], model.tap_products
    monkeypatch.setattr(model, "tap_products", lambda *args: groups.append(args[2]) or real(*args))
    runs = []
    for taps in (1, 6, 17):
        monkeypatch.setattr(model, "STACKED_PRODUCT_VALUES", taps * rows * 5 * config.conv_filters)
        runs.append([a.tobytes() for a in stacked_forward(config, bundle.stacked, batch,
                                                          bundle.padding)])
    assert groups == [1, 6, 17]
    assert runs[0] == runs[1] == runs[2]


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


# -- scoring starts each post at its own lead ------------------------------

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


def no_leads(config, ids):
    return np.zeros(len(ids), dtype=int)


@pytest.mark.parametrize("conv_axis", ["sequence", "embedding"])
@pytest.mark.parametrize("k", [1, 2, 5])
@pytest.mark.parametrize("rnn_kind", ["gru", "lstm"])
def test_skipping_pass_matches_the_full_recurrence(monkeypatch, rnn_kind, k, conv_axis):
    """With the bundle's trajectory every post starts at its own lead, and
    without one (validation) every post starts at the chunk's smallest;
    both give the run in which every lead is 0."""
    config = tiny_topology(rnn_kind=rnn_kind, conv_axis=conv_axis, **SKIPPING)
    bundle = EnsembleBundle([build(config, 10 + seed) for seed in range(k)], config,
                            {"dim": config.emb_dim})
    # a lone post at every first live step, then beside an empty post: each
    # side of every pool window's boundary; then empty posts and mixed chunks
    firsts = [*range(config.conv_len()), None]
    chunks = [[first] for first in firsts] + [[first, None] for first in firsts]
    chunks += [[None, None], [None, 9], [11, 3, None], [7, 8], [12, 12, 10], [0, 4],
               [12, 0, None, 6, 3, 9, 6]]
    leads_seen = set()
    for seed, firsts in enumerate(chunks):
        batch = first_live_batch(config, firsts, seed)
        ids = model._conv_input(batch, config).ids
        leads = model._padding_steps(config, ids)
        assert leads.tolist() == [lead_by_definition(config, row >= 0) for row in ids], firsts
        leads_seen.update(leads.tolist())
        from_leads = stacked_forward(config, bundle.stacked, batch, bundle.padding)
        from_common_lead = stacked_forward(config, bundle.stacked, batch)
        with monkeypatch.context() as patch:
            patch.setattr(model, "_padding_steps", no_leads)
            full = stacked_forward(config, bundle.stacked, batch)
        for got in (from_leads, from_common_lead):
            for array, want in zip(got, full):
                np.testing.assert_allclose(array, want, rtol=0, atol=1e-12, err_msg=str(firsts))
    assert leads_seen == set(range(config.pooled_len() + 1))


@pytest.mark.parametrize("rnn_kind", ["gru", "lstm"])
def test_the_trajectory_is_each_step_of_the_bias_input(rnn_kind):
    """State t of padding_trajectory is the recurrence after t steps whose
    input is the conv bias, run as one chunk's posts are; a bundle holds the
    one over all T_pool steps, read-only."""
    config = tiny_topology(rnn_kind=rnn_kind, **SKIPPING)
    bundle = EnsembleBundle([build(config, seed) for seed in (3, 4)], config,
                            {"dim": config.emb_dim})
    t_pool = config.pooled_len()
    h, c, best = bundle.padding
    recomputed = model.padding_trajectory(config, bundle.stacked, t_pool)
    for array, want in zip(bundle.padding, recomputed):
        assert array.shape == (2, t_pool + 1, config.rnn_hidden)
        assert not array.flags.writeable
        assert array.tobytes() == want.tobytes()
    assert not h[:, 0].any() and not c[:, 0].any() and (best[:, 0] == -np.inf).all()
    for t in range(1, t_pool + 1):
        bias = np.broadcast_to(bundle.stacked["conv_b"][:, None, None], (2, t, 1, 2))
        zero = tuple(array[:, :1] for array in bundle.padding)
        got = model._stacked_rnn(config, bundle.stacked, np.ascontiguousarray(bias),
                                 np.zeros(1, dtype=int), zero)
        np.testing.assert_allclose(best[:, t : t + 1], got, rtol=0, atol=1e-12)
    assert EnsembleBundle([build(tiny_topology(variant=CNN_FC), 0)], tiny_topology(
        variant=CNN_FC), {"dim": 6}).padding is None


@pytest.mark.parametrize("made_by", ["load_bundle", "tune"])
def test_loaded_and_tuned_bundles_score_from_the_trajectory(trained, tmp_path, made_by):
    bundle, table = trained
    if made_by == "load_bundle":
        save_bundle(bundle, tmp_path)
        copy = load_bundle(tmp_path)
        for got, want in zip(copy.padding, bundle.padding, strict=True):
            assert got.tobytes() == want.tobytes()
    else:  # the trajectory reads only the feature arrays, which the copy shares
        copy = tune(bundle, separable_corpus(2, seed=8), TrainConfig(tune_epochs=1), table)
        assert copy.padding is bundle.padding
    posts = separable_corpus(2, seed=3).posts + [RawPost("")]  # an empty post: lead T
    _, encoded = _encode(posts, table, copy.topology)
    leads = model._padding_steps(copy.topology, encoded.ids)
    assert len(set(leads.tolist())) > 1
    _, probs = stacked_forward(copy.topology, copy.stacked, encoded, copy.padding)
    for index, member in enumerate(copy.members):
        np.testing.assert_allclose(probs[index], forward(member, copy.topology, encoded).data,
                                   rtol=0, atol=1e-12)


def leads_corpus():
    """9 posts of 4 words and 9 of 7: a chunk with two or more leads."""
    short, long = separable_corpus(3, seed=5), separable_corpus(3, seed=6, words=7)
    return LabeledCorpus(short.posts + long.posts, provenance="synthetic")


@pytest.mark.parametrize("rnn_kind", ["gru", "lstm"])
def test_scoring_runs_each_post_from_its_own_lead(rnn_kind, monkeypatch):
    """Each recurrence step calls layers.sigmoid once.  A bundle's chunk
    runs no step on one row before its posts: step t runs the posts whose
    lead is at most t.  Without the bundle's trajectory (validation) the
    steps before the smallest lead run on one row, then every post.  A lone
    post runs the steps from its lead."""
    config, table = tiny_topology(rnn_kind=rnn_kind, seq_len=24), synthetic_table(0, 6)
    bundle = EnsembleBundle([build(config, seed) for seed in (1, 2)], config, {"dim": 6})
    corpus = leads_corpus()
    _, encoded = _encode(corpus.posts, table, config)
    leads = model._padding_steps(config, encoded.ids)
    t_pool, first = config.pooled_len(), int(leads.min())
    assert 0 < first < int(leads.max()) < t_pool
    steps = []
    original = layers.sigmoid

    def counting(x, out=None):
        steps.append(x.shape[1])  # (K, B, gates)
        return original(x, out=out)

    monkeypatch.setattr(layers, "sigmoid", counting)
    evaluate(bundle, corpus, table)
    assert steps == [int((leads <= t).sum()) for t in range(first, t_pool)]
    steps.clear()
    stacked_forward(config, bundle.stacked, encoded)
    assert steps == [1] * first + [len(corpus.posts)] * (t_pool - first)
    for post, lead in zip(corpus.posts, leads.tolist()):
        steps.clear()
        ensemble.predict(bundle, post, table)
        assert steps == [1] * (t_pool - lead)


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
        t0s.add(int(model._padding_steps(config, model._conv_input(batch, config).ids).min()))
        lw = np.random.default_rng(seed).standard_normal((len(firsts), config.n_classes))

        def gradients():
            loss = (forward(params, config, batch) * lw).sum()
            loss.backward()
            return [loss.data] + [t.grad.copy() for t in params.named_tensors().values()]

        skipped = gradients()
        with monkeypatch.context() as patch:
            patch.setattr(model, "_padding_steps", no_leads)
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
    t0 = int(model._padding_steps(config, batch.ids).min())
    assert 0 < t0 < config.pooled_len()
    steps = []
    original = layers.sigmoid

    def counting(x, out=None):
        steps.append(x.shape[0])  # (B, gates)
        return original(x, out=out)

    monkeypatch.setattr(layers, "sigmoid", counting)
    forward(params, config, batch, train=True, rng=np.random.default_rng(0)).sum().backward()
    assert steps == [1] * t0 + [3] * (config.pooled_len() - t0)


@pytest.mark.parametrize("rnn_kind", ["gru", "lstm"])
def test_one_cell_runs_every_recurrent_step(rnn_kind, monkeypatch):
    """layers' gru_cell or lstm_cell is the step of a training forward, of
    padding_trajectory and of a bundle's stacked_forward, each on its own
    rows: (B, ·) in training, (K, B, ·) with the member axis."""
    config = tiny_topology(rnn_kind=rnn_kind, **SKIPPING)
    bundle = EnsembleBundle([build(config, seed) for seed in (1, 2)], config,
                            {"dim": config.emb_dim})
    batch = first_live_batch(config, [11, 7, 9], 0)
    leads = model._padding_steps(config, batch.ids)
    t_pool, t0 = config.pooled_len(), int(leads.min())
    assert 0 < t0 < int(leads.max()) < t_pool
    name, calls = f"{rnn_kind}_cell", []
    original = getattr(layers, name)

    def counting(xp, *args):
        calls.append(xp.shape[:-1])
        return original(xp, *args)

    for module in (layers, model):  # model imports the cell by name
        monkeypatch.setattr(module, name, counting)
    forward(build(config, 4), config, batch, train=True, rng=np.random.default_rng(0))
    assert calls == [(1,)] * t0 + [(3,)] * (t_pool - t0)
    calls.clear()
    model.padding_trajectory(config, bundle.stacked, t_pool)
    assert calls == [(2, 1)] * t_pool
    calls.clear()
    stacked_forward(config, bundle.stacked, batch, bundle.padding)
    assert calls == [(2, int((leads <= t).sum())) for t in range(t0, t_pool)]


@pytest.mark.parametrize("members", [(), (3,)], ids=["B", "K_B"])
@pytest.mark.parametrize("rnn_kind", ["gru", "lstm"])
def test_a_cell_gives_the_same_bytes_into_given_arrays(rnn_kind, members):
    """A cell writes each activation into the strided array it is given, as
    training's history slices are, with the bytes of its fresh arrays."""
    rng = np.random.default_rng(7)
    cell, gates, n_states = {"gru": (layers.gru_cell, 3, 1),
                             "lstm": (layers.lstm_cell, 4, 2)}[rnn_kind]
    hidden, n = 4, 5
    xp = rng.standard_normal((*members, n, gates * hidden))
    u_t = rng.standard_normal((*members, hidden, gates * hidden))
    states = [rng.standard_normal((*members, n, hidden)) for _ in range(n_states)]
    fresh = cell(xp, u_t, *states)
    outs = [np.full((*a.shape[:-1], a.shape[-1] + 1), np.nan)[..., 1:] for a in fresh[n_states:]]
    given = cell(xp, u_t, *states, *outs)
    for got, want in zip(given, fresh, strict=True):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert all(got is out for got, out in zip(given[n_states:], outs, strict=True))


# sha256 of the saved bundle's files, in name order, then repr of each
# member's (epochs, best_epoch), for the CLI tests' training run
# (test_cli.make_bundle_dir) as it was before scoring started posts at their
# own leads; like every byte-identical run, they assume one BLAS build
FIXTURE_RUN_DIGESTS = {
    "gru": "9400117e070dbb145bdb65c653681b6d9beab463e2850b8c2aa28f6f4fec46e2",
    "lstm": "f385069f2dc8117f15d98a210d15d9231498914958ea15ff373216a580ae1ebe",
}


@pytest.mark.parametrize("rnn_kind", ["gru", "lstm"])
def test_validation_keeps_the_training_run_byte_identical(rnn_kind, tmp_path):
    corpus = separable_corpus(6, seed=22)
    cfg = TrainConfig(ensemble_size=2, epochs=2, seed=0, batch_size=8)
    bundle, traces = train_ensemble(cfg, tiny_topology(rnn_kind=rnn_kind),
                                    synthetic_table(0, 6), corpus, corpus)
    save_bundle(bundle, tmp_path)
    digest = hashlib.sha256(b"".join(p.read_bytes() for p in sorted(tmp_path.iterdir())))
    digest.update(repr([(trace.epochs, trace.best_epoch) for trace in traces]).encode())
    assert digest.hexdigest() == FIXTURE_RUN_DIGESTS[rnn_kind]
