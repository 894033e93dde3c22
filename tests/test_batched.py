"""Batched layers and losses against the per-post oracle, and the batch
paths of the ensemble (tune's frozen-feature cache, chunked evaluation)."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import perpost_oracle as oracle
from conftest import MARKERS, separable_corpus, tiny_topology
from hatenet import ensemble
from hatenet.autograd import Tensor
from hatenet.corpus import LabeledCorpus
from hatenet.embeddings import embed, synthetic_table
from hatenet.autograd import global_maxpool
from hatenet.ensemble import (
    WEAK,
    TrainConfig,
    _mean_loss_eval,
    _TrainData,
    balanced_epoch_sample,
    evaluate,
    predict,
    train_ensemble,
    tune,
)
from hatenet.layers import cross_entropy
from hatenet.metrics import accumulate, report
from hatenet.model import CNN_FC, CNN_RNN_FC, TopologyConfig, build, forward
from hatenet.text import preprocess
from hatenet.weaksup import ClassBounds, ClassWeights, Lexicon, weak_loss

PAPER = dict(seq_len=100, emb_dim=300, conv_filters=32, conv_width=17,
             conv_pad=8, pool_rate=4, rnn_hidden=100, fc_hidden=25)
TOKENS = (0, 16, 40, 100)  # tokens per post; the 40-token one has an interior zero row
TOPOLOGIES = [
    (CNN_RNN_FC, "gru", "sequence"),
    (CNN_RNN_FC, "lstm", "sequence"),
    (CNN_RNN_FC, "gru", "embedding"),
    (CNN_RNN_FC, "lstm", "embedding"),
    (CNN_FC, "gru", "sequence"),
    (CNN_FC, "gru", "embedding"),
]


def padded_posts(config, tokens, seed) -> np.ndarray:
    """Left-padded (B, seq_len, emb_dim) post matrices with the given token
    counts; a post of 40 tokens gets a zero (out-of-vocabulary) row inside."""
    rng = np.random.default_rng(seed)
    stack = np.zeros((len(tokens), config.seq_len, config.emb_dim))
    for row, n in zip(stack, tokens):
        if n:
            row[config.seq_len - n :] = rng.standard_normal((n, config.emb_dim))
        if n == 40:
            row[config.seq_len - 20] = 0.0
    return stack


def nonzero_biases(params, seed):
    rng = np.random.default_rng(seed)
    for name, tensor in params.named_tensors().items():
        if name.split(".")[1].startswith(("b_", "conv_b", "fc1_b", "fc2_b")):
            tensor.data[:] = 0.1 * rng.standard_normal(tensor.data.shape)


def grads(params) -> dict:
    return {name: t.grad.copy() for name, t in params.named_tensors().items()}


@pytest.mark.parametrize("variant,rnn_kind,conv_axis", TOPOLOGIES)
@pytest.mark.parametrize("loss", ["ce", "weak"])
def test_batch_matches_per_post_oracle(variant, rnn_kind, conv_axis, loss):
    config = TopologyConfig(variant=variant, rnn_kind=rnn_kind, conv_axis=conv_axis, **PAPER)
    stack = padded_posts(config, TOKENS, seed=1)
    rng = np.random.default_rng(2)
    labels = rng.integers(0, 3, size=len(TOKENS))
    lo = rng.uniform(0.0, 0.5, size=(len(TOKENS), 3))
    bounds = [ClassBounds(lb, np.minimum(1.0, lb + 0.2)) for lb in lo]
    weights = ClassWeights(rng.uniform(0.5, 2.0, size=3))

    params = build(config, seed=3)
    nonzero_biases(params, seed=4)
    probs = forward(params, config, stack, train=True, rng=np.random.default_rng(5))
    if loss == "ce":
        batch_loss = cross_entropy(probs, labels)
    else:
        batch_loss = weak_loss(probs, bounds, weights)
    batch_loss.backward()
    got = grads(params)

    params = build(config, seed=3)
    nonzero_biases(params, seed=4)
    drop_rng = np.random.default_rng(5)
    total, rows = None, []
    for i, values in enumerate(stack):
        p = oracle.forward(params, config, values, train=True, rng=drop_rng)
        rows.append(p.data)
        if loss == "ce":
            post_loss = oracle.cross_entropy(p, int(labels[i]))
        else:
            post_loss = oracle.weak_loss(p, bounds[i].lb, bounds[i].ub, weights.w)
        total = post_loss if total is None else oracle.add(total, post_loss)
    want_loss = total * (1.0 / len(TOKENS))
    want_loss.backward()

    np.testing.assert_allclose(probs.data, np.stack(rows), rtol=0, atol=1e-12)
    assert abs(batch_loss.data - want_loss.data) <= 1e-12
    for name, want in grads(params).items():
        np.testing.assert_allclose(got[name], want, rtol=0, atol=1e-12, err_msg=name)


@pytest.mark.parametrize("variant,rnn_kind,conv_axis", TOPOLOGIES[:2] + TOPOLOGIES[4:5])
def test_one_post_is_a_batch_of_one(variant, rnn_kind, conv_axis):
    config = tiny_topology(variant=variant, rnn_kind=rnn_kind, conv_axis=conv_axis)
    params = build(config, seed=0)
    values = padded_posts(config, (5,), seed=6)[0]
    single = forward(params, config, values)
    batched = forward(params, config, values[None])
    assert single.data.shape == (3,) and batched.data.shape == (1, 3)
    assert single.data.tobytes() == batched.data[0].tobytes()
    single = forward(params, config, values, train=True, rng=np.random.default_rng(1))
    batched = forward(params, config, values[None], train=True, rng=np.random.default_rng(1))
    assert single.data.tobytes() == batched.data[0].tobytes()


def reachable(root) -> int:
    seen, stack = set(), [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    return len(seen)


@pytest.mark.parametrize("rnn_kind", ["gru", "lstm"])
def test_graph_size_independent_of_batch_size(rnn_kind):
    config = tiny_topology(rnn_kind=rnn_kind)
    params = build(config, seed=0)
    bounds = ClassBounds(np.array([0.6, 0.0, 0.0]), np.ones(3))
    sizes = {}
    for n in (1, 8):
        stack = padded_posts(config, [3 + i % 5 for i in range(n)], seed=n)
        rng = np.random.default_rng(0)
        probs = forward(params, config, stack, train=True, rng=rng)
        ce = reachable(cross_entropy(probs, np.zeros(n, dtype=int)))
        probs = forward(params, config, stack, train=True, rng=rng)
        weak = reachable(weak_loss(probs, [bounds] * n, ClassWeights.uniform()))
        sizes[n] = (ce, weak)
    assert sizes[1] == sizes[8]


def test_batch_losses_are_means_of_post_losses():
    rng = np.random.default_rng(3)
    rows = rng.dirichlet(np.ones(3), size=5)
    rows[0] = [0.0, 1.0, 0.0]  # clamped at both ends
    labels = np.array([0, 1, 2, 0, 1])
    got = cross_entropy(Tensor(rows), labels).data
    want = np.mean([cross_entropy(Tensor(r), int(t)).data for r, t in zip(rows, labels)])
    assert got == pytest.approx(want, abs=1e-12)
    bounds = [ClassBounds(np.full(3, 0.3), np.full(3, 0.5)) for _ in rows]
    weights = ClassWeights(np.array([1.0, 2.0, 3.0]))
    got = weak_loss(Tensor(rows), bounds, weights).data
    want = np.mean([weak_loss(Tensor(r), b, weights).data for r, b in zip(rows, bounds)])
    assert got == pytest.approx(want, abs=1e-12)


def test_global_maxpool_accumulates_into_a_shared_input():
    x = Tensor(np.random.default_rng(4).standard_normal((2, 5, 3)))
    w, v = np.arange(6.0).reshape(2, 3), np.full((2, 3), 0.5)
    oracle.add((global_maxpool(x) * w).sum(), (global_maxpool(x) * v).sum()).backward()
    want = np.zeros((2, 5, 3))
    idx = x.data.argmax(axis=1)
    for b in range(2):
        want[b, idx[b], np.arange(3)] = w[b] + v[b]
    np.testing.assert_array_equal(x.grad, want)


@pytest.mark.parametrize("mode", ["supervised", WEAK])
def test_chunked_validation_loss_is_the_mean_over_posts(mode):
    topo, table = tiny_topology(), synthetic_table(0, 6)
    posts = separable_corpus(4, seed=5).posts[:11]  # two chunks, the last one short
    lexicon = Lexicon([MARKERS[0]], [MARKERS[1]], [MARKERS[2]])
    cfg = TrainConfig(loss_mode=mode, bounds_k=5.0)
    data = _TrainData(cfg, topo, table, [], posts, lexicon)  # posts as validation
    params = build(topo, seed=2)
    mean, _ = _mean_loss_eval(params, topo, data)
    per_post = [data.loss(forward(params, topo, data.batch.take([i])), [i]).data
                for i in range(len(posts))]
    assert any(per_post)
    assert mean == pytest.approx(np.mean(per_post), rel=1e-12, abs=1e-15)


def load_tracer():
    """perfbench/tracer.py as a module; the file is only read."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_resolves_every_traced_name():
    """perfbench wraps these module attributes by name; a renamed layer
    would zero its per-layer metric without failing anything else."""
    module = load_tracer()
    tracer = module.Tracer()
    tracer.install()
    try:
        assert tracer.absent == []
    finally:
        tracer.uninstall()


def test_tracer_targets_resolve_in_the_source_tree():
    source = Path(__file__).resolve().parents[1] / "src" / "hatenet"
    module = load_tracer()
    for _, module_path, attr_path in module.TARGETS:
        owner, attr = module._resolve(module_path, attr_path)
        assert callable(getattr(owner, attr, None)), f"{module_path}.{attr_path}"
        assert Path(sys.modules[module_path].__file__).resolve().parent == source


def test_ensemble_calls_every_name_traced_there():
    """A traced name that still resolves but is no longer called through
    hatenet.ensemble's globals would read 0 in its per-layer metric."""
    module = load_tracer()
    tracer = module.Tracer()
    tracer.install()
    tracer.phase = module.RUN
    try:
        topo, table = tiny_topology(), synthetic_table(0, 6)
        lexicon = Lexicon([MARKERS[0]], [MARKERS[1]], [MARKERS[2]])
        pool = separable_corpus(3, seed=13).posts
        train_ensemble(TrainConfig(ensemble_size=1, epochs=1, loss_mode=WEAK, bounds_k=3.0),
                       topo, table, pool, pool[:3], lexicon=lexicon)
        bundle = small_bundle(topo, table)
        target = separable_corpus(2, seed=14)
        evaluate(tune(bundle, target, TrainConfig(tune_epochs=1), table), target, table)
        ensemble.predict(bundle, target.posts[0], table)  # as the tracer patched it
    finally:
        tracer.uninstall()
    recorded = {span[0] for span in tracer.spans}
    for name, module_path, attr_path in module.TARGETS:
        if module_path == "hatenet.ensemble":
            assert name in recorded, f"{module_path}.{attr_path} is never called"


# -- tune ------------------------------------------------------------------


def small_bundle(topo, table):
    cfg = TrainConfig(ensemble_size=2, epochs=1, seed=0, batch_size=8)
    bundle, _ = train_ensemble(cfg, topo, table, separable_corpus(3, seed=1),
                               separable_corpus(1, seed=2))
    return bundle


@pytest.mark.parametrize("epochs", [1, 3, 10])
def test_tune_runs_the_extractor_once_per_distinct_post(monkeypatch, epochs):
    topo, table = tiny_topology(), synthetic_table(0, 6)
    bundle = small_bundle(topo, table)
    target = separable_corpus(3, seed=9)  # 9 posts, 3 per class
    sizes = []
    original = ensemble.stacked_forward

    def counting(config, stacked, batch, *padding):
        sizes.append(len(batch))
        return original(config, stacked, batch, *padding)

    monkeypatch.setattr(ensemble, "stacked_forward", counting)
    monkeypatch.setattr(ensemble, "forward", None)  # no per-member pass
    monkeypatch.setattr(ensemble, "EVAL_CHUNK", 4)
    tune(bundle, target, TrainConfig(tune_epochs=epochs, seed=1), table)
    assert sizes == [4, 4, 1]  # one pass of both members over each post


def per_post_tune(bundle, target, cfg, table):
    """The tune loop before the feature cache: every drawn post through the
    whole per-post forward pass, one loss node per post."""
    topo = bundle.topology
    members = []
    for index, member in enumerate(bundle.members):
        params = member.copy()
        rng = np.random.default_rng([cfg.seed + index, 2])
        optimizer = oracle.Adam(lr=cfg.tune_lr)
        for _ in range(cfg.tune_epochs):
            sample = balanced_epoch_sample(target, rng)
            for start in range(0, len(sample), cfg.batch_size):
                batch = sample[start : start + cfg.batch_size]
                total = None
                for post in batch:
                    values = embed(preprocess(post), table, topo.seq_len).values
                    probs = oracle.forward(params, topo, values, train=True, rng=rng)
                    loss = oracle.cross_entropy(probs, post.label)
                    total = loss if total is None else oracle.add(total, loss)
                (total * (1.0 / len(batch))).backward()
                optimizer.step([params.classifier])
        members.append(params)
    return members


def test_tune_matches_per_post_tuning():
    topo, table = tiny_topology(), synthetic_table(0, 6)
    bundle = small_bundle(topo, table)
    target = separable_corpus(5, seed=9)
    cfg = TrainConfig(tune_epochs=3, seed=4, batch_size=4)
    tuned = tune(bundle, target, cfg, table)
    for got, want in zip(tuned.members, per_post_tune(bundle, target, cfg, table)):
        for name, tensor in want.named_tensors().items():
            np.testing.assert_allclose(got.named_tensors()[name].data, tensor.data,
                                       rtol=0, atol=1e-12, err_msg=name)


def test_evaluate_in_chunks_matches_predict(monkeypatch):
    topo, table = tiny_topology(), synthetic_table(0, 6)
    bundle = small_bundle(topo, table)
    corpus = separable_corpus(4, seed=11)
    monkeypatch.setattr(ensemble, "EVAL_CHUNK", 5)  # chunks of 5, 5 and 2
    pairs = [(post.label, predict(bundle, post, table).label) for post in corpus.posts]
    assert evaluate(bundle, corpus, table) == report(accumulate(pairs))


def test_evaluate_report_does_not_depend_on_the_chunk_size(monkeypatch):
    topo, table = tiny_topology(), synthetic_table(0, 6)
    bundle = small_bundle(topo, table)
    corpus = separable_corpus(9, seed=12)  # 27 posts: one chunk of 20 and one of 7
    reports = []
    for chunk in (6, 20):
        monkeypatch.setattr(ensemble, "EVAL_CHUNK", chunk)
        reports.append(evaluate(bundle, corpus, table))
    assert reports[0] == reports[1]
    assert ensemble.EVAL_CHUNK == 20


def always_neither(bundle):
    """A copy of the bundle whose heads answer Neither for every post."""
    stacked = dict(bundle.stacked)
    stacked["fc2_w"] = np.zeros_like(stacked["fc2_w"])
    stacked["fc2_b"] = np.broadcast_to([0.0, 0.0, 5.0], stacked["fc2_b"].shape)
    return ensemble.EnsembleBundle.of_stack(stacked, bundle.topology, bundle.fingerprint)


@pytest.mark.parametrize("chunk", [4, 20])
def test_evaluate_heads_equals_evaluate_of_each_bundle(monkeypatch, chunk):
    topo, table = tiny_topology(), synthetic_table(0, 6)
    bundle = small_bundle(topo, table)
    tuned = tune(bundle, separable_corpus(3, seed=15), TrainConfig(tune_epochs=3), table)
    bundles = [bundle, tuned, always_neither(bundle), bundle]
    monkeypatch.setattr(ensemble, "EVAL_CHUNK", chunk)
    for corpus in (separable_corpus(9, seed=12), LabeledCorpus([], "empty")):
        want = [evaluate(b, corpus, table) for b in bundles]
        assert ensemble.evaluate_heads(bundles, corpus, table) == want
        assert want[2] != want[0] or not corpus.posts  # the heads decide differently


def test_evaluate_heads_runs_one_features_pass(monkeypatch):
    topo, table = tiny_topology(), synthetic_table(0, 6)
    bundle = small_bundle(topo, table)
    corpus = separable_corpus(9, seed=12)  # 27 posts: two chunks
    calls = []
    original = ensemble.stacked_forward

    def counting(config, stacked, batch, *padding):
        calls.append(len(batch))
        return original(config, stacked, batch, *padding)

    monkeypatch.setattr(ensemble, "stacked_forward", counting)
    ensemble.evaluate_heads([bundle, always_neither(bundle), bundle], corpus, table)
    assert calls == [20, 7]


def test_evaluate_heads_refuses_other_feature_extractors(tmp_path):
    topo, table = tiny_topology(), synthetic_table(0, 6)
    bundle = small_bundle(topo, table)
    corpus = separable_corpus(2, seed=16)
    other, _ = train_ensemble(TrainConfig(ensemble_size=2, epochs=1, seed=5, batch_size=8),
                              topo, table, separable_corpus(3, seed=1),
                              separable_corpus(1, seed=2))
    wider, _ = train_ensemble(TrainConfig(ensemble_size=2, epochs=1, seed=0, batch_size=8),
                              tiny_topology(variant=CNN_FC), table,
                              separable_corpus(3, seed=1), separable_corpus(1, seed=2))
    for stranger in (other, wider):
        with pytest.raises(ValueError):
            ensemble.evaluate_heads([bundle, stranger], corpus, table)
    # a tuned copy saved and loaded again holds equal, not identical, feature arrays
    tuned = tune(bundle, separable_corpus(3, seed=15), TrainConfig(tune_epochs=2), table)
    ensemble.save_bundle(tuned, tmp_path / "tuned")
    reloaded = ensemble.load_bundle(tmp_path / "tuned")
    assert reloaded.stacked["taps"] is not bundle.stacked["taps"]
    assert ensemble.evaluate_heads([bundle, reloaded], corpus, table) == [
        evaluate(bundle, corpus, table), evaluate(tuned, corpus, table)]
