"""A bundle's K members stored stacked and scored in one graph-free pass,
against the per-member autograd forward."""

import json

import numpy as np
import pytest

import perpost_oracle as oracle
from conftest import separable_corpus, tiny_topology
from hatenet import cli, ensemble, model
from hatenet.autograd import IdBatch, Tensor
from hatenet.corpus import load_unlabeled
from hatenet.embeddings import synthetic_table
from hatenet.ensemble import (
    EnsembleBundle,
    TrainConfig,
    _balanced_positions,
    _batches,
    _encode,
    _prediction,
    _step,
    evaluate,
    load_bundle,
    predict_all,
    save_bundle,
    train_ensemble,
    tune,
)
from hatenet.errors import CheckpointIntegrityError
from hatenet.layers import cross_entropy
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
        out.extend(_prediction(probs[:, i]) for i in range(len(chunk)))
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
        np.testing.assert_allclose(g.member_probs, w.member_probs, rtol=0, atol=1e-12)
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
        conv_w, u_t = params.feature.params["conv_w"], params.rnn[1]
        assert conv_w.data.transpose(1, 2, 0).flags.c_contiguous
        taps = conv_w.data.transpose(1, 2, 0).reshape(config.conv_channels(), -1)
        assert np.shares_memory(taps, conv_w.data)  # a reshape, no copy
        gates = {"gru": 3, "lstm": 4}[rnn_kind]
        assert u_t.data.shape == (config.rnn_hidden, gates * config.rnn_hidden)  # Uᵀ, not U
        rng = np.random.default_rng(0)
        batch = id_batch(config, seed=0)
        optimizer = Adam(params.data, params.grad)
        for _ in range(2):
            probs = forward(params, config, batch, train=True, rng=rng)
            _step(cross_entropy(probs, [0, 1, 2, 0]), optimizer, 1)
            assert conv_w.grad.transpose(1, 2, 0).flags.c_contiguous
            for block, buffer in ((u_t.data, params.data), (u_t.grad, params.grad)):
                assert block.flags.c_contiguous and np.shares_memory(block, buffer)
        assert conv_w.data.transpose(1, 2, 0).flags.c_contiguous
        copied = params.copy().feature.params["conv_w"].data
        assert copied.transpose(1, 2, 0).flags.c_contiguous
        np.testing.assert_array_equal(copied, conv_w.data)


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
