import functools
import hashlib
import json
import logging
import re
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import separable_corpus, tiny_topology
from hatenet.corpus import LabeledCorpus
from hatenet.embeddings import EmbeddingTable, embed, synthetic_table
from hatenet.ensemble import (
    EnsembleBundle,
    SUPERVISED,
    TrainConfig,
    WEAK,
    balanced_epoch_sample,
    evaluate,
    load_bundle,
    predict,
    predict_all,
    save_bundle,
    train_ensemble,
    train_member,
    tune,
    vote_outcome,
    _mean_loss_eval,
    _TrainData,
)
from hatenet.errors import (
    CheckpointIntegrityError,
    CheckpointVersionError,
    EmptyClass,
    HatenetError,
    PreprocessingMismatch,
)
from hatenet.model import build, forward
from hatenet.text import RawPost, preprocess
from hatenet.weaksup import Lexicon

from conftest import MARKERS


def make_counts_corpus(h, o, n):
    posts = []
    for label, count in ((0, h), (1, o), (2, n)):
        posts.extend(
            RawPost(f"text {label} {i}", label=label, source_id=f"{label}:{i}")
            for i in range(count)
        )
    return LabeledCorpus(posts, provenance="fix")


class TestBalancedSample:
    def test_sizes_and_counts(self):
        rng = np.random.default_rng(0)
        sample = balanced_epoch_sample(make_counts_corpus(2, 10, 10), rng)
        assert len(sample) == 6
        assert Counter(p.label for p in sample) == {0: 2, 1: 2, 2: 2}

    def test_already_balanced(self):
        rng = np.random.default_rng(0)
        sample = balanced_epoch_sample(make_counts_corpus(5, 5, 5), rng)
        assert len(sample) == 15
        assert Counter(p.label for p in sample) == {0: 5, 1: 5, 2: 5}

    def test_hate_posts_used_exactly_once(self):
        rng = np.random.default_rng(1)
        corpus = make_counts_corpus(4, 9, 9)
        for _ in range(20):
            sample = balanced_epoch_sample(corpus, rng)
            hate_ids = [p.source_id for p in sample if p.label == 0]
            assert sorted(hate_ids) == [f"0:{i}" for i in range(4)]

    def test_empty_class_rejected(self):
        with pytest.raises(EmptyClass):
            balanced_epoch_sample(make_counts_corpus(0, 5, 5), np.random.default_rng(0))

    def test_replacement_frequencies_within_3_sigma(self):
        corpus = make_counts_corpus(3, 10, 12)
        rng = np.random.default_rng(42)
        epochs = 10_000
        draws = Counter()
        for _ in range(epochs):
            for post in balanced_epoch_sample(corpus, rng):
                if post.label in (1, 2):
                    draws[post.source_id] += 1
        m = 3
        for label, pool in ((1, 10), (2, 12)):
            total = epochs * m
            p = 1.0 / pool
            sigma = np.sqrt(total * p * (1 - p))
            for i in range(pool):
                count = draws[f"{label}:{i}"]
                assert abs(count - total * p) <= 3 * sigma


class TestTrainMember:
    def test_early_stopping_returns_argmin_snapshot(self, topo, table):
        corpus = separable_corpus(4, seed=5)
        cfg = TrainConfig(ensemble_size=1, epochs=5, seed=0, batch_size=8)
        params, trace = train_member(
            0, cfg, topo, table, corpus, corpus, keep_snapshots=True
        )
        losses = [rec.valid_loss for rec in trace.epochs]
        best = int(np.argmin(losses))  # earliest minimum
        assert trace.best_epoch == best + 1
        want = trace.snapshots[best]
        for name, tensor in params.named_tensors().items():
            np.testing.assert_array_equal(
                tensor.data, want.named_tensors()[name].data
            )
        # re-evaluate every snapshot independently; none beats the returned one
        data = _TrainData(cfg, topo, table, corpus, corpus, None)
        rescored = [
            _mean_loss_eval(snap, topo, data)[0]
            for snap in trace.snapshots
        ]
        np.testing.assert_allclose(rescored, losses, atol=1e-12)
        assert min(rescored) == rescored[best]

    def test_tie_breaks_to_earliest_epoch(self, topo, table):
        # vacuous lexicon evidence makes the weak loss identically zero,
        # so every epoch ties and epoch 1 must win
        lexicon = Lexicon(["zz_nomatch"], ["qq_nomatch"], ["pp_nomatch"])
        pool = [RawPost(f"plain words {i}") for i in range(8)]
        cfg = TrainConfig(ensemble_size=1, epochs=3, seed=0, loss_mode=WEAK,
                          batch_size=4)
        params, trace = train_member(
            0, cfg, topo, table, pool, pool[:2], lexicon=lexicon
        )
        assert [rec.valid_loss for rec in trace.epochs] == [0.0, 0.0, 0.0]
        assert trace.best_epoch == 1

    def test_zero_weak_loss_warns_once_per_member(self, topo, table, caplog):
        # long posts with one lexicon hit each: at bounds_k=1 no bound binds
        # a near-uniform prediction; at bounds_k=12 the hate bound does
        lexicon = Lexicon([MARKERS[0]], [MARKERS[1]], [MARKERS[2]])
        filler = " ".join(f"word{j}" for j in range(20))
        pool = [RawPost(f"{MARKERS[0]} {filler} {i}") for i in range(8)]
        for k, warned in ((1.0, 2), (12.0, 0)):
            cfg = TrainConfig(ensemble_size=2, epochs=2, seed=0, loss_mode=WEAK,
                              batch_size=4, bounds_k=k)
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="hatenet.ensemble"):
                train_ensemble(cfg, topo, table, pool, pool[:2], lexicon=lexicon)
            records = [r.getMessage() for r in caplog.records
                       if "zero gradient" in r.getMessage()]
            assert len(records) == warned
            assert all(f"bounds_k={k:g}" in msg for msg in records)

    def test_weak_mode_learns_from_bounds(self, topo, table):
        lexicon = Lexicon([MARKERS[0]], [MARKERS[1]], [MARKERS[2]])
        pool = separable_corpus(8, seed=6).posts
        unlabeled = [RawPost(p.text, source_id=p.source_id) for p in pool]
        # bounds_k=3 makes the marker evidence bind (lb above uniform 1/3)
        cfg = TrainConfig(ensemble_size=1, epochs=15, seed=0, loss_mode=WEAK,
                          batch_size=8, base_lr=5e-3, bounds_k=3.0)
        params, trace = train_member(
            0, cfg, topo, table, unlabeled, unlabeled[:6], lexicon=lexicon
        )
        losses = [rec.valid_loss for rec in trace.epochs]
        assert losses[0] > 0.0
        assert min(losses) < 0.9 * losses[0]

    def test_empty_validation_rejected(self, topo, table):
        corpus = separable_corpus(4)
        cfg = TrainConfig(ensemble_size=1, epochs=1)
        with pytest.raises(ValueError):
            train_member(0, cfg, topo, table, corpus, LabeledCorpus([], "empty"))

    def test_nonfinite_loss_aborts_with_diagnostic(self, topo, table):
        from hatenet.errors import NumericError
        from hatenet.ensemble import _step
        from hatenet.optim import Adam

        params = build(topo, 0)
        params.classifier.params["fc1_w"].data[:] = np.nan
        cfg = TrainConfig(ensemble_size=1, epochs=1)
        post = RawPost("anything at all", label=0, source_id="x")
        data = _TrainData(cfg, topo, table, [post], [post], None)
        probs = forward(params, topo, data.batch.take([0]), train=True,
                        rng=np.random.default_rng(0))
        with pytest.raises(NumericError, match="epoch"):
            _step(data.loss(probs, [0]), Adam(params.data, params.grad), 1)


class TestEnsemble:
    def test_k1_reduces_to_single_member(self, topo, table):
        corpus = separable_corpus(4, seed=7)
        cfg = TrainConfig(ensemble_size=1, epochs=2, seed=3, batch_size=8)
        bundle, traces = train_ensemble(cfg, topo, table, corpus, corpus)
        assert bundle.size() == 1
        solo, _ = train_member(3, cfg, topo, table, corpus, corpus)
        for name, tensor in solo.named_tensors().items():
            np.testing.assert_array_equal(
                tensor.data, bundle.members[0].named_tensors()[name].data
            )

    def test_members_differ_pairwise(self, topo, table):
        corpus = separable_corpus(4, seed=8)
        cfg = TrainConfig(ensemble_size=3, epochs=2, seed=0, batch_size=8)
        bundle, _ = train_ensemble(cfg, topo, table, corpus, corpus)
        for i in range(3):
            for j in range(i + 1, 3):
                a = bundle.members[i].named_tensors()
                b = bundle.members[j].named_tensors()
                assert any(not np.array_equal(a[n].data, b[n].data) for n in a)

    def test_jobs_parallel_matches_serial(self, topo, table):
        corpus = separable_corpus(4, seed=9)
        cfg = TrainConfig(ensemble_size=2, epochs=2, seed=1, batch_size=8)
        serial, _ = train_ensemble(cfg, topo, table, corpus, corpus, jobs=1)
        parallel, _ = train_ensemble(cfg, topo, table, corpus, corpus, jobs=2)
        for ms, mp in zip(serial.members, parallel.members):
            for name, tensor in ms.named_tensors().items():
                np.testing.assert_array_equal(tensor.data, mp.named_tensors()[name].data)

    def test_seed_determinism_bitwise(self, topo, table):
        from hatenet.ensemble import _member_bytes

        corpus = separable_corpus(4, seed=10)
        cfg = TrainConfig(ensemble_size=2, epochs=2, seed=5, batch_size=8)
        a, _ = train_ensemble(cfg, topo, table, corpus, corpus)
        b, _ = train_ensemble(cfg, topo, table, corpus, corpus)
        for ma, mb in zip(a.members, b.members):
            assert _member_bytes(ma) == _member_bytes(mb)

    @pytest.mark.parametrize("mode", [SUPERVISED, WEAK])
    def test_validation_makes_no_autograd_forward(self, topo, table, monkeypatch, mode):
        # every autograd forward is a training batch: validation is graph-free
        import hatenet.ensemble as ens

        modes = []

        def counting(*args, **kwargs):
            modes.append(kwargs.get("train", False))
            return forward(*args, **kwargs)

        monkeypatch.setattr(ens, "forward", counting)
        corpus = separable_corpus(5, seed=12)  # 5 hate posts: 15 per balanced epoch
        lexicon = Lexicon([MARKERS[0]], [MARKERS[1]], [MARKERS[2]])
        cfg = TrainConfig(ensemble_size=2, epochs=3, seed=0, batch_size=4, loss_mode=mode)
        train_ensemble(cfg, topo, table, corpus.posts, corpus.posts[:7], lexicon=lexicon)
        per_epoch = 4 if mode == SUPERVISED else len(corpus.posts) // 4  # ceil(15/4), 15//4
        assert modes == [True] * (cfg.ensemble_size * cfg.epochs * per_epoch)


def brute_force_vote(votes, member_probs):
    """Mode with the documented tie-break chain, recomputed naively."""
    tally = Counter(votes)
    top = max(tally.values())
    tied = sorted(c for c, n in tally.items() if n == top)
    if len(tied) == 1:
        return tied[0]
    sums = {c: sum(p[c] for p in member_probs) for c in tied}
    best = max(sums.values())
    return min(c for c in tied if sums[c] == best)


class TestVoting:
    def test_strict_majority(self):
        probs = np.full((5, 3), 1 / 3)
        assert vote_outcome([0, 0, 0, 1, 2], probs) == 0

    def test_probability_tiebreak(self):
        votes = [0, 0, 1, 1, 2]
        probs = np.array([
            [0.5, 0.4, 0.1],
            [0.5, 0.4, 0.1],
            [0.3, 0.6, 0.1],
            [0.2, 0.6, 0.2],
            [0.4, 0.1, 0.5],
        ])  # summed: H=1.9, O=2.1, N=1.0
        assert vote_outcome(votes, probs) == 1

    def test_ordinal_tiebreak(self):
        votes = [0, 1]
        probs = np.array([[0.6, 0.3, 0.1], [0.3, 0.6, 0.1]])  # sums equal
        assert vote_outcome(votes, probs) == 0

    def test_k1_argmax(self):
        probs = np.array([[0.1, 0.2, 0.7]])
        assert vote_outcome([2], probs) == 2

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(0)
        stages = Counter()
        for _ in range(1000):
            k = int(rng.integers(1, 8))
            probs = rng.dirichlet(np.ones(3), size=k)
            if rng.random() < 0.3:
                # force exact probability ties to reach the ordinal stage
                probs = np.tile(np.array([[0.4, 0.4, 0.2]]), (k, 1))
            votes = [int(rng.integers(3)) for _ in range(k)]
            got = vote_outcome(votes, probs)
            want = brute_force_vote(votes, probs)
            assert got == want
            tally = Counter(votes)
            top = max(tally.values())
            tied = [c for c, n in tally.items() if n == top]
            if len(tied) == 1:
                stages["majority"] += 1
            else:
                sums = probs.sum(axis=0)[tied]
                stages["probability" if len(np.flatnonzero(
                    sums == sums.max())) == 1 else "ordinal"] += 1
        assert stages["majority"] > 0
        assert stages["probability"] > 0
        assert stages["ordinal"] > 0


# rows of dyadic values, whose column sums are exact: equal sums tie exactly
DYADIC_ROWS = ([0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5],
               [0.375, 0.375, 0.25], [0.25, 0.375, 0.375], [0.5, 0.0, 0.5])


@st.composite
def vote_chunks(draw):
    """(K, B) votes and (K, B, 3) member probabilities of a chunk; each post
    draws free votes or tied counts, and free probabilities, dyadic rows
    (summed ties) or one flat row for every member (every tie to the
    ordinal stage)."""
    k, b = draw(st.integers(1, 7)), draw(st.integers(1, 6))
    votes, probs = np.empty((k, b), dtype=np.int64), np.empty((k, b, 3))
    for j in range(b):
        if draw(st.booleans()):  # the first two classes get k // 2 votes each
            a, c, third = draw(st.permutations([0, 1, 2]))
            column = [a] * (k // 2) + [c] * (k // 2) + [third] * (k % 2)
            votes[:, j] = draw(st.permutations(column))
        else:
            votes[:, j] = draw(st.lists(st.integers(0, 2), min_size=k, max_size=k))
        mode = draw(st.sampled_from(["free", "dyadic", "flat"]))
        for i in range(k):
            if mode == "free":
                row = draw(st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3))
            else:
                row = [0.25] * 3 if mode == "flat" else draw(st.sampled_from(DYADIC_ROWS))
            probs[i, j] = row
    return votes, probs


@settings(max_examples=300, deadline=None)
@given(vote_chunks())
def test_chunk_vote_matches_the_per_post_rule(chunk):
    votes, probs = chunk
    labels = vote_outcome(votes, probs)
    assert labels.shape == (votes.shape[1],)
    for j, label in enumerate(labels.tolist()):
        one = vote_outcome(votes[:, j].tolist(), probs[:, j])
        assert type(one) is int
        assert label == one == brute_force_vote(votes[:, j].tolist(), probs[:, j])


@pytest.mark.parametrize("named, table_name, mismatch", [
    ("synthetic:0:6", "synthetic:0:6", False),
    ("synthetic:0:6", "synthetic:1:6", True),
    ("synthetic:0:6", "vectors.txt", True),
    ("vectors.txt", "synthetic:0:6", True),
    ("vectors.txt", "/data/vectors.txt", False),  # two files: not checked
    (None, "synthetic:1:6", False),  # the fingerprint names no table
])
def test_a_synthetic_table_is_checked_by_name(topo, named, table_name, mismatch):
    fingerprint = {"dim": 6} if named is None else {"embedding": named, "dim": 6}
    bundle = EnsembleBundle([build(topo, 0)], topo, fingerprint)
    table = EmbeddingTable(6, {}, table_name)
    corpus = LabeledCorpus([RawPost(text, label=label) for label, text in
                            enumerate(["wolfsbane in the sun", "thornbush day", "a walk"])],
                           provenance="three")
    calls = [lambda: predict_all(bundle, corpus.posts, table),
             lambda: evaluate(bundle, corpus, table),
             lambda: tune(bundle, corpus, TrainConfig(tune_epochs=1), table)]
    for call in calls:
        if mismatch:
            with pytest.raises(PreprocessingMismatch, match=f"{table_name} != .*{named}"):
                call()
        else:
            call()


# bundle.meta provenance values that are not a JSON object (nor null)
WRONG_PROVENANCE = ["x", 5, [1, 2]]


def with_provenance(raw: bytes, value) -> bytes:
    """A bundle.meta's bytes with its provenance set to `value`."""
    return json.dumps({**json.loads(raw), "provenance": value}).encode()


class TestPredictAndBundle:
    def _quick_bundle(self, topo, table, k=2):
        corpus = separable_corpus(4, seed=11)
        cfg = TrainConfig(ensemble_size=k, epochs=2, seed=0, batch_size=8)
        bundle, _ = train_ensemble(cfg, topo, table, corpus, corpus)
        return bundle

    def test_predict_shapes(self, topo, table):
        bundle = self._quick_bundle(topo, table)
        result = predict(bundle, RawPost("wolfsbane in the sun"), table)
        assert result.label in (0, 1, 2)
        assert len(result.votes) == 2
        assert result.mean_probs.shape == (3,)
        assert abs(result.mean_probs.sum() - 1.0) <= 1e-9

    def test_dim_mismatch_rejected(self, topo, table):
        bundle = self._quick_bundle(topo, table)
        with pytest.raises(PreprocessingMismatch):
            predict(bundle, RawPost("x"), synthetic_table(0, 7))

    def test_predict_all_checks_the_table_at_the_call(self, topo, table):
        bundle = self._quick_bundle(topo, table)
        with pytest.raises(PreprocessingMismatch):
            predict_all(bundle, [RawPost("x")], synthetic_table(0, 7))  # never iterated

    def test_save_load_roundtrip_bit_exact(self, topo, table, tmp_path):
        from hatenet.ensemble import _member_bytes

        bundle = self._quick_bundle(topo, table)
        save_bundle(bundle, tmp_path / "run")
        loaded = load_bundle(tmp_path / "run")
        assert loaded.size() == bundle.size()
        assert loaded.topology == bundle.topology
        assert loaded.fingerprint == bundle.fingerprint
        for a, b in zip(bundle.members, loaded.members):
            assert _member_bytes(a) == _member_bytes(b)
        # format 1 keeps a "trainable" flag per array; it is always true
        raw = (tmp_path / "run" / "member_0.ckpt").read_bytes()
        header_len = int.from_bytes(raw[8:16], "little")
        header = json.loads(raw[16 : 16 + header_len])
        assert header["arrays"] and all(e["trainable"] is True for e in header["arrays"])

    def test_corrupt_member_detected(self, topo, table, tmp_path):
        bundle = self._quick_bundle(topo, table)
        save_bundle(bundle, tmp_path / "run")
        target = tmp_path / "run" / "member_0.ckpt"
        raw = bytearray(target.read_bytes())
        raw[60] ^= 0xFF
        target.write_bytes(bytes(raw))
        with pytest.raises(CheckpointIntegrityError):
            load_bundle(tmp_path / "run")

    def test_truncated_member_detected(self, topo, table, tmp_path):
        bundle = self._quick_bundle(topo, table)
        save_bundle(bundle, tmp_path / "run")
        target = tmp_path / "run" / "member_0.ckpt"
        target.write_bytes(target.read_bytes()[:100])
        with pytest.raises(CheckpointIntegrityError):
            load_bundle(tmp_path / "run")

    def test_version_mismatch_detected(self, topo, table, tmp_path):
        import json

        bundle = self._quick_bundle(topo, table)
        save_bundle(bundle, tmp_path / "run")
        meta_path = tmp_path / "run" / "bundle.meta"
        meta = json.loads(meta_path.read_text())
        meta["format_version"] = 99
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(CheckpointVersionError):
            load_bundle(tmp_path / "run")

    def test_topology_swap_detected(self, topo, table, tmp_path):
        import json

        bundle = self._quick_bundle(topo, table)
        save_bundle(bundle, tmp_path / "run")
        meta_path = tmp_path / "run" / "bundle.meta"
        meta = json.loads(meta_path.read_text())
        meta["topology"]["rnn_hidden"] = 7  # member files disagree now
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(CheckpointIntegrityError, match="topology"):
            load_bundle(tmp_path / "run")

    def test_missing_meta_detected(self, tmp_path):
        with pytest.raises(CheckpointIntegrityError):
            load_bundle(tmp_path)

    def test_save_leaves_only_the_bundle_files(self, topo, table, tmp_path):
        from hatenet.ensemble import _member_bytes, topology_hash

        bundle = self._quick_bundle(topo, table)
        save_bundle(bundle, tmp_path / "run")
        save_bundle(bundle, tmp_path / "run")  # over an existing bundle
        names = sorted(p.name for p in (tmp_path / "run").iterdir())
        assert names == ["bundle.meta", "member_0.ckpt", "member_1.ckpt"]
        for i, member in enumerate(bundle.members):
            raw = (tmp_path / "run" / f"member_{i}.ckpt").read_bytes()
            assert raw == _member_bytes(member, topology_hash(topo))
        meta = json.loads((tmp_path / "run" / "bundle.meta").read_text(encoding="utf-8"))
        assert (tmp_path / "run" / "bundle.meta").read_bytes() == (
            json.dumps(meta, sort_keys=True, indent=2) + "\n").encode("utf-8")

    @pytest.mark.parametrize("fail_at", [0, 1, 2])  # member_0, member_1, bundle.meta
    def test_save_failing_part_way_never_loads_mixed(self, topo, table, tmp_path,
                                                     monkeypatch, fail_at):
        from pathlib import Path

        from hatenet.ensemble import _member_bytes

        old = self._quick_bundle(topo, table)
        corpus = separable_corpus(4, seed=13)
        new, _ = train_ensemble(TrainConfig(ensemble_size=2, epochs=1, seed=5, batch_size=8),
                                topo, table, corpus, corpus)
        save_bundle(old, tmp_path / "run")
        write_bytes = Path.write_bytes
        calls = []

        def failing(path, data):
            calls.append(path)
            if len(calls) == fail_at + 1:
                write_bytes(path, data[: len(data) // 2])
                raise OSError("no space left on device")
            return write_bytes(path, data)

        monkeypatch.setattr(Path, "write_bytes", failing)
        with pytest.raises(OSError):
            save_bundle(new, tmp_path / "run")
        monkeypatch.undo()
        assert not list((tmp_path / "run").glob("*.tmp"))
        if fail_at == 0:  # nothing was replaced yet: the old bundle, whole
            loaded = load_bundle(tmp_path / "run")
            assert [_member_bytes(m) for m in loaded.members] == [
                _member_bytes(m) for m in old.members]
        else:
            with pytest.raises(CheckpointIntegrityError, match="digest mismatch"):
                load_bundle(tmp_path / "run")


    @pytest.mark.parametrize("name, damage", [
        ("truncated", lambda raw: raw[: len(raw) // 2]),
        ("members key renamed", lambda raw: raw.replace(b'"members"', b'"memberz"')),
        ("unknown topology field", lambda raw: raw.replace(b'"topology": {',
                                                           b'"topology": {"extra": 1, ')),
        ("a JSON list", lambda raw: b"[" + raw + b"]"),
        ("member entry not an object", lambda raw: raw.replace(b'"members": [',
                                                               b'"members": ["x", ')),
        ("fingerprint without dim", lambda raw: raw.replace(b'"dim"', b'"dime"')),
        ("not UTF-8", lambda raw: raw + b"\xe9"),
        ("nested too deep", lambda raw: b"[" * 100_000 + b"]" * 100_000),
    ])
    def test_damaged_meta_names_the_file(self, topo, table, tmp_path, name, damage):
        save_bundle(self._quick_bundle(topo, table), tmp_path / "run")
        meta_path = tmp_path / "run" / "bundle.meta"
        damaged = damage(meta_path.read_bytes())
        assert damaged != meta_path.read_bytes()
        meta_path.write_bytes(damaged)
        with pytest.raises(HatenetError, match="bundle.meta"):
            load_bundle(tmp_path / "run")

    @pytest.mark.parametrize("name", ["../other/member_0.ckpt", "ABSOLUTE", "sub/member_0.ckpt",
                                      "sub\\member_0.ckpt", "", ".", ".."])
    def test_member_file_outside_the_bundle_is_refused_unread(self, topo, table, tmp_path,
                                                               monkeypatch, name):
        """A member file name that is not a plain name inside the bundle
        directory fails before any member file is opened, even when it names
        another bundle's member with that member's digest."""
        bundle = self._quick_bundle(topo, table, k=1)
        for directory in ("other", "run"):
            save_bundle(bundle, tmp_path / directory)
        (tmp_path / "run" / "sub").mkdir()
        other = tmp_path / "other" / "member_0.ckpt"
        name = str(other) if name == "ABSOLUTE" else name
        meta_path = tmp_path / "run" / "bundle.meta"
        meta = json.loads(meta_path.read_text())
        meta["members"][0] = {"file": name, "sha256": hashlib.sha256(other.read_bytes()).hexdigest()}
        meta_path.write_text(json.dumps(meta))
        touched = []
        for method in ("stat", "read_bytes"):
            original = getattr(Path, method)
            monkeypatch.setattr(Path, method, lambda path, *args, original=original, **kw:
                                touched.append(path) or original(path, *args, **kw))
        message = f"{re.escape(str(meta_path))}: not a bundle meta file .*not a plain file name"
        with pytest.raises(CheckpointIntegrityError, match=message):
            load_bundle(tmp_path / "run")
        assert set(touched) <= {meta_path}

    @pytest.mark.parametrize("damage, reason", [
        (lambda raw: raw.replace(b'"file": "member_1.ckpt"', b'"file": 1'),
         "a member file name is not a string"),
        (lambda raw: re.sub(rb'"dim": (\d+)', rb'"dim": "\1"', raw),
         "the fingerprint dim is not an integer"),
        (lambda raw: re.sub(rb'"embedding": "[^"]*"', b'"embedding": 5', raw),
         "the fingerprint embedding 5 is not a string"),
        *((lambda raw, value=value: with_provenance(raw, value), "the provenance is not an object")
          for value in WRONG_PROVENANCE),
    ], ids=["member file name", "fingerprint dim", "fingerprint embedding",
            *map(repr, WRONG_PROVENANCE)])
    def test_meta_field_of_wrong_type_exits_3(self, topo, table, tmp_path, capsys,
                                              damage, reason):
        from hatenet import cli

        save_bundle(self._quick_bundle(topo, table), tmp_path / "run")
        meta_path = tmp_path / "run" / "bundle.meta"
        damaged = damage(meta_path.read_bytes())
        assert damaged != meta_path.read_bytes()
        meta_path.write_bytes(damaged)
        message = f"{re.escape(str(meta_path))}: not a bundle meta file .*{reason}"
        with pytest.raises(CheckpointIntegrityError, match=message):
            load_bundle(tmp_path / "run")
        posts = Path(__file__).parent / "fixtures" / "unlabeled_lines.txt"
        assert cli.main(["predict", "--bundle", str(tmp_path / "run"), "--input", str(posts),
                         "--embeddings", f"synthetic:0:{table.dim}"]) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"error: {meta_path}: ") and reason in err, err

    @pytest.mark.parametrize("value", WRONG_PROVENANCE, ids=repr)
    def test_tune_of_a_provenance_not_an_object_exits_3(self, topo, table, tmp_path, capsys,
                                                        value):
        from hatenet import cli

        save_bundle(self._quick_bundle(topo, table), tmp_path / "run")
        meta_path = tmp_path / "run" / "bundle.meta"
        meta_path.write_bytes(with_provenance(meta_path.read_bytes(), value))
        target = Path(__file__).parent / "fixtures" / "target_lines.txt"
        assert cli.main(["tune", "--bundle", str(tmp_path / "run"), "--target", str(target),
                         "--embeddings", f"synthetic:0:{table.dim}",
                         "--out", str(tmp_path / "tuned")]) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"error: {meta_path}: ") and "provenance" in err, err

    @pytest.mark.parametrize("value", [None, "absent"])
    def test_a_null_or_absent_provenance_loads_empty(self, topo, table, tmp_path, value):
        save_bundle(self._quick_bundle(topo, table), tmp_path / "run")
        meta_path = tmp_path / "run" / "bundle.meta"
        meta = json.loads(meta_path.read_bytes())
        if value == "absent":
            del meta["provenance"]
        else:
            meta["provenance"] = value
        meta_path.write_text(json.dumps(meta))
        assert load_bundle(tmp_path / "run").provenance == {}


@functools.lru_cache(maxsize=1)
def _saved_tiny_bundle() -> tuple:
    corpus = separable_corpus(3, seed=40)
    bundle, _ = train_ensemble(TrainConfig(ensemble_size=2, epochs=1, seed=0, batch_size=8),
                               tiny_topology(), synthetic_table(0, 6), corpus, corpus)
    with tempfile.TemporaryDirectory() as scratch:
        save_bundle(bundle, scratch)
        return tuple((p.name, p.read_bytes()) for p in Path(scratch).iterdir())


def saved_tiny_bundle() -> dict:
    """The files of a saved two-member bundle of the tiny topology, by name."""
    return dict(_saved_tiny_bundle())


@st.composite
def damaged_bundles(draw):
    """The tiny bundle's files with one of them cut at an offset, or one bit flipped."""
    files = saved_tiny_bundle()
    name = draw(st.sampled_from(sorted(files)))
    raw = files[name]
    if draw(st.booleans()):
        files[name] = raw[: draw(st.integers(0, len(raw) - 1))]
    else:
        bit = draw(st.integers(0, 8 * len(raw) - 1))
        flipped = bytearray(raw)
        flipped[bit // 8] ^= 1 << (bit % 8)
        files[name] = bytes(flipped)
    return files


@settings(max_examples=200, deadline=None)
@given(damaged_bundles())
def test_damaged_bundle_raises_an_exit_3_error_or_loads_the_saved_members(files):
    from hatenet.ensemble import _member_bytes, topology_hash

    saved = saved_tiny_bundle()
    with tempfile.TemporaryDirectory() as scratch:
        for name, raw in files.items():
            (Path(scratch) / name).write_bytes(raw)
        try:
            loaded = load_bundle(scratch)
        except (HatenetError, OSError):  # what the CLI maps to exit 3
            return
    topo_hash = topology_hash(loaded.topology)
    assert [_member_bytes(m, topo_hash) for m in loaded.members] == [
        saved[f"member_{i}.ckpt"] for i in range(2)]


MEMBER_DIGESTS = {  # sha256 of _member_bytes(build(tiny topology, seed 0))
    "gru": "29cd0d8f5a6cd6b5716c45615bbef1a521168c8032a89b2a04e39dd436e4cdf6",
    "lstm": "8f1b3d49edf67b2f6db3595e2da61d84ce46c78686a52c5a8878b2baf6b451d7",
    "cnn_fc": "7201005c428c1f184932402f9fb5507cceea765e01692e80d0d4fac4b5e93a5f",
}


@pytest.mark.parametrize("variant", sorted(MEMBER_DIGESTS))
def test_member_bytes_are_pinned(variant):
    from hatenet.ensemble import _member_bytes

    topo = tiny_topology(**({"variant": "cnn_fc"} if variant == "cnn_fc"
                            else {"rnn_kind": variant}))
    raw = _member_bytes(build(topo, 0))
    assert hashlib.sha256(raw).hexdigest() == MEMBER_DIGESTS[variant]


def redigested(files: dict, name: str, edit) -> dict:
    """`files` with member `name` rebuilt from edit(header bytes, payload
    bytes), its length field, digest and bundle.meta entry made to match."""
    raw = files[name]
    end = 16 + int.from_bytes(raw[8:16], "little")
    header, payload = edit(raw[16:end], raw[end:-32])
    body = raw[:8] + len(header).to_bytes(8, "little") + header + payload
    member = body + hashlib.sha256(body).digest()
    meta = json.loads(files["bundle.meta"])
    for entry in meta["members"]:
        if entry["file"] == name:
            entry["sha256"] = hashlib.sha256(member).hexdigest()
    return {**files, name: member,
            "bundle.meta": (json.dumps(meta, sort_keys=True, indent=2) + "\n").encode("utf-8")}


def header_edit(change):
    """An edit that applies change(header dict) to the parsed header."""
    def edit(header, payload):
        parsed = json.loads(header)
        change(parsed)
        return json.dumps(parsed, sort_keys=True).encode("utf-8"), payload
    return edit


def write_files(files: dict, directory) -> None:
    for name, raw in files.items():
        (Path(directory) / name).write_bytes(raw)


DAMAGED_MEMBERS = {
    "bad header JSON": lambda header, payload: (header[:-1], payload),
    "header nested too deep": lambda header, payload: (b"[" * 100_000 + b"]" * 100_000,
                                                       payload),
    "no arrays key": header_edit(lambda h: h.pop("arrays")),
    "renamed array": header_edit(lambda h: h["arrays"][1].update(name="conv_c")),
    "transposed shape": header_edit(lambda h: h["arrays"][0]["shape"].reverse()),
    "array in the other group": header_edit(lambda h: h["arrays"][-1].update(group="feature")),
    "payload 8 bytes short": lambda header, payload: (header, payload[:-8]),
    "payload 8 bytes long": lambda header, payload: (header, payload + payload[-8:]),
}


@pytest.mark.parametrize("damage", sorted(DAMAGED_MEMBERS))
def test_damaged_member_with_fresh_digests_exits_3_naming_it(tmp_path, capsys, damage):
    from hatenet import cli

    files = redigested(saved_tiny_bundle(), "member_1.ckpt", DAMAGED_MEMBERS[damage])
    write_files(files, tmp_path)
    with pytest.raises(CheckpointIntegrityError, match="member_1.ckpt"):
        load_bundle(tmp_path)
    posts = tmp_path / "posts.txt"
    posts.write_text("wolfsbane in the sun\n")
    code = cli.main(["predict", "--bundle", str(tmp_path), "--input", str(posts),
                     "--embeddings", "synthetic:0:6"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_DATA
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "member_1.ckpt" in captured.err


@st.composite
def redigested_damage(draw):
    """A header or payload edit of one member of the tiny bundle, with its
    digests made to match: drop a header key, rename, reorder or re-group
    arrays, change one shape dimension, toggle a trainable flag, or cut or
    pad the payload by 1-16 bytes."""
    files = saved_tiny_bundle()
    name = draw(st.sampled_from(["member_0.ckpt", "member_1.ckpt"]))
    raw = files[name]
    arrays = json.loads(raw[16 : 16 + int.from_bytes(raw[8:16], "little")])["arrays"]
    i = draw(st.integers(0, len(arrays) - 1))
    kind = draw(st.sampled_from(["drop key", "drop entry key", "rename", "reorder", "regroup",
                                 "shape", "trainable", "cut", "pad"]))
    if kind in ("cut", "pad"):
        n = draw(st.integers(1, 16))
        pad = draw(st.binary(min_size=n, max_size=n))
        return redigested(files, name, lambda header, payload: (
            header, payload[:-n] if kind == "cut" else payload + pad))
    value = draw({
        "drop key": st.sampled_from(["arrays", "topology_hash"]),
        "drop entry key": st.sampled_from(sorted(arrays[i])),
        "rename": st.sampled_from(sorted({a["name"] for a in arrays} | {"conv_c"})),
        "reorder": st.permutations(range(len(arrays))),
        "regroup": st.sampled_from(["feature", "classifier", "head"]),
        "shape": st.tuples(st.integers(0, len(arrays[i]["shape"]) - 1), st.integers(-2, 2)),
        "trainable": st.just(None),
    }[kind])

    def change(header):
        entry = header["arrays"][i]
        if kind == "drop key":
            del header[value]
        elif kind == "drop entry key":
            del entry[value]
        elif kind == "rename":
            entry["name"] = value
        elif kind == "reorder":
            header["arrays"] = [header["arrays"][j] for j in value]
        elif kind == "regroup":
            entry["group"] = value
        elif kind == "shape":
            entry["shape"][value[0]] += value[1]
        else:
            entry["trainable"] = not entry["trainable"]

    return redigested(files, name, header_edit(change))


@settings(max_examples=200, deadline=None)
@given(redigested_damage())
def test_redigested_damage_raises_an_exit_3_error_or_loads_the_saved_members(files):
    from hatenet.ensemble import _member_bytes, topology_hash

    saved = saved_tiny_bundle()
    with tempfile.TemporaryDirectory() as scratch:
        write_files(files, scratch)
        try:
            loaded = load_bundle(scratch)
        except (HatenetError, OSError):  # what the CLI maps to exit 3
            return
    topo_hash = topology_hash(loaded.topology)
    assert [_member_bytes(m, topo_hash) for m in loaded.members] == [
        saved[f"member_{i}.ckpt"] for i in range(2)]


class TestTune:
    def _bundle(self, topo, table):
        corpus = separable_corpus(4, seed=12)
        cfg = TrainConfig(ensemble_size=2, epochs=2, seed=0, batch_size=8)
        bundle, _ = train_ensemble(cfg, topo, table, corpus, corpus)
        return bundle

    def test_feature_group_frozen_bytewise(self, topo, table):
        bundle = self._bundle(topo, table)
        target = separable_corpus(5, seed=13)
        before = {
            i: {k: v.data.tobytes() for k, v in m.feature.params.items()}
            for i, m in enumerate(bundle.members)
        }
        tuned = tune(bundle, target, TrainConfig(ensemble_size=2, seed=0), table)
        for i, member in enumerate(tuned.members):
            for key, tensor in member.feature.params.items():
                assert tensor.data.tobytes() == before[i][key]

    def test_table_checked_against_the_fingerprint(self, topo, table):
        with pytest.raises(PreprocessingMismatch, match="table dim 7 != bundle dim 6"):
            tune(self._bundle(topo, table), separable_corpus(3, seed=13),
                 TrainConfig(ensemble_size=2, seed=0), synthetic_table(0, 7))

    def test_classifier_changes(self, topo, table):
        bundle = self._bundle(topo, table)
        target = separable_corpus(5, seed=14)
        tuned = tune(bundle, target, TrainConfig(ensemble_size=2, seed=0), table)
        changed = False
        for original, new in zip(bundle.members, tuned.members):
            for key in original.classifier.params:
                if not np.array_equal(
                    original.classifier.params[key].data,
                    new.classifier.params[key].data,
                ):
                    changed = True
        assert changed

    def test_default_tune_lr(self):
        assert TrainConfig().tune_lr == 5e-4

    def test_unbalanced_warns(self, topo, table, caplog):
        bundle = self._bundle(topo, table)
        target = make_counts_corpus(3, 8, 5)
        with caplog.at_level(logging.WARNING, logger="hatenet.ensemble"):
            tune(bundle, target, TrainConfig(ensemble_size=2, seed=0), table)
        assert any("unbalanced" in rec.message for rec in caplog.records)

    def test_missing_class_rejected(self, topo, table):
        bundle = self._bundle(topo, table)
        posts = [RawPost("x", label=1, source_id="a"),
                 RawPost("y", label=2, source_id="b")]
        with pytest.raises(EmptyClass):
            tune(bundle, LabeledCorpus(posts, "bad"),
                 TrainConfig(ensemble_size=2, seed=0), table)

    def test_original_bundle_untouched(self, topo, table):
        bundle = self._bundle(topo, table)
        snapshot = {
            name: tensor.data.copy()
            for name, tensor in bundle.members[0].named_tensors().items()
        }
        tune(bundle, separable_corpus(5, seed=15),
             TrainConfig(ensemble_size=2, seed=0), table)
        for name, tensor in bundle.members[0].named_tensors().items():
            np.testing.assert_array_equal(tensor.data, snapshot[name])


class TestEvaluate:
    def test_memorizing_ensemble_scores_perfectly(self, table):
        topo = tiny_topology(dropout_p=0.0)
        corpus = separable_corpus(10, seed=3)
        cfg = TrainConfig(ensemble_size=1, epochs=60, seed=0,
                          base_lr=5e-3, batch_size=8)
        bundle, _ = train_ensemble(cfg, topo, table, corpus, corpus)
        rep = evaluate(bundle, corpus, table)
        assert rep["micro_f1"] >= 0.95


@pytest.fixture
def preprocess_calls(monkeypatch):
    """Counts hatenet.ensemble.preprocess calls per post object."""
    import hatenet.ensemble as ensemble_mod

    calls = Counter()
    kept = []  # holds every counted post so that no id is reused

    def counting(post):
        calls[id(post)] += 1
        kept.append(post)
        return preprocess(post)

    monkeypatch.setattr(ensemble_mod, "preprocess", counting)
    return calls


@pytest.fixture
def encode_calls(monkeypatch):
    """The number of posts in each hatenet.ensemble.embed (batch encoder) call."""
    import hatenet.ensemble as ensemble_mod

    sizes = []
    original = ensemble_mod.embed

    def counting(seqs, *args):
        sizes.append(len(seqs))
        return original(seqs, *args)

    monkeypatch.setattr(ensemble_mod, "embed", counting)
    return sizes


class TestPreprocessOnce:
    def test_ensemble_shares_one_encoding(self, topo, table, preprocess_calls,
                                          encode_calls):
        corpus = separable_corpus(4, seed=36)
        valid = separable_corpus(2, seed=37)
        cfg = TrainConfig(ensemble_size=3, epochs=2, seed=0, batch_size=4)
        train_ensemble(cfg, topo, table, corpus, valid)
        assert max(preprocess_calls.values()) == 1
        assert len(preprocess_calls) == len(corpus.posts) + len(valid.posts)
        assert encode_calls == [len(corpus.posts) + len(valid.posts)]

    def test_evaluate(self, topo, table, preprocess_calls, encode_calls):
        bundle, _ = train_ensemble(
            TrainConfig(ensemble_size=2, epochs=1, seed=0, batch_size=8),
            topo, table, separable_corpus(3, seed=38), separable_corpus(1, seed=39),
        )
        preprocess_calls.clear()
        encode_calls.clear()
        corpus = separable_corpus(9, seed=40)  # 27 posts: two chunks
        evaluate(bundle, corpus, table)
        assert max(preprocess_calls.values()) == 1
        assert len(preprocess_calls) == len(corpus.posts)
        assert encode_calls == [len(corpus.posts)]

    def test_supervised_member(self, topo, table, preprocess_calls):
        corpus = separable_corpus(4, seed=30)
        valid = separable_corpus(2, seed=31)
        cfg = TrainConfig(ensemble_size=1, epochs=4, seed=0, batch_size=4)
        train_member(0, cfg, topo, table, corpus, valid)
        assert preprocess_calls
        assert max(preprocess_calls.values()) == 1
        assert len(preprocess_calls) <= len(corpus.posts) + len(valid.posts)

    def test_weak_member(self, topo, table, preprocess_calls):
        lexicon = Lexicon([MARKERS[0]], [MARKERS[1]], [MARKERS[2]])
        pool = [RawPost(p.text) for p in separable_corpus(4, seed=32).posts]
        cfg = TrainConfig(ensemble_size=1, epochs=3, seed=0, loss_mode=WEAK,
                          batch_size=4, bounds_k=3.0)
        train_member(0, cfg, topo, table, pool, pool[:3], lexicon=lexicon)
        assert max(preprocess_calls.values()) == 1
        assert len(preprocess_calls) <= len(pool)

    def test_tune_all_members(self, topo, table, preprocess_calls):
        corpus = separable_corpus(4, seed=33)
        bundle, _ = train_ensemble(
            TrainConfig(ensemble_size=2, epochs=1, seed=0, batch_size=8),
            topo, table, corpus, corpus,
        )
        preprocess_calls.clear()
        target = separable_corpus(3, seed=34)
        tune(bundle, target, TrainConfig(ensemble_size=2, seed=0, tune_epochs=3,
                                         batch_size=4), table)
        assert max(preprocess_calls.values()) == 1
        assert len(preprocess_calls) <= len(target.posts)

    def test_tune_encodes_the_target_once(self, topo, table, encode_calls):
        corpus = separable_corpus(4, seed=41)
        bundle, _ = train_ensemble(
            TrainConfig(ensemble_size=2, epochs=1, seed=0, batch_size=8),
            topo, table, corpus, corpus,
        )
        encode_calls.clear()
        target = separable_corpus(3, seed=42)
        tune(bundle, target, TrainConfig(seed=0, tune_epochs=3, batch_size=4), table)
        assert encode_calls == [len(target.posts)]


def test_nonfinite_validation_loss_names_epoch(topo):
    from hatenet.errors import NumericError

    table = synthetic_table(0, 6)
    poison = preprocess(RawPost("poison")).tokens[0]
    table.vectors[poison] = np.full(6, np.nan)  # reached only by validation posts
    corpus = separable_corpus(4, seed=35)
    valid = LabeledCorpus(
        [RawPost(f"poison {p.text}", label=p.label) for p in corpus.posts[::4]], "valid"
    )
    cfg = TrainConfig(ensemble_size=1, epochs=2, seed=0, batch_size=8)
    with pytest.raises(NumericError, match="validation loss at epoch 1"):
        train_member(0, cfg, topo, table, corpus, valid)


@pytest.mark.parametrize("bad", [
    {"ensemble_size": 0}, {"epochs": 0}, {"tune_epochs": 0}, {"base_lr": -1.0},
    {"tune_lr": 0.0}, {"batch_size": 0}, {"loss_mode": "other"},
    {"base_lr": float("nan")}, {"tune_lr": float("inf")}, {"bounds_k": float("nan")},
    {"bounds_k": float("inf")}, {"bounds_k": -1.0}, {"bounds_k": 0.0}, {"seed": -1},
    {"seed": True}, {"epochs": 2.0}, {"batch_size": "8"}, {"base_lr": None},
    {"loss_mode": 1}, {"bounds_k": False},
])
def test_train_config_rejects_bad_values(bad):
    from hatenet.errors import InvalidConfig

    with pytest.raises(InvalidConfig):
        TrainConfig(**bad).validate()
