"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with `pytest tests/test_acceptance.py -s`).

Criteria 11 and 12 need the full public corpora and are skipped unless
the OLID_TSV / HON_CSV environment variables point at local copies.
"""

import json
import math
import os
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from conftest import MARKERS, separable_corpus, tiny_topology
from hatenet import cli
from hatenet.autograd import Tensor
from hatenet.corpus import LabeledCorpus, combine, load_hon, load_olid
from hatenet.embeddings import embed, synthetic_table
from hatenet.ensemble import (
    TrainConfig,
    _mean_loss_eval,
    _TrainData,
    balanced_epoch_sample,
    train_member,
    vote_outcome,
)
from hatenet.gradcheck import run_all
from hatenet.metrics import ConfusionMatrix, accumulate, report
from hatenet.model import forward
from hatenet.text import RawPost, preprocess
from hatenet.weaksup import (
    ClassBounds,
    ClassWeights,
    LexiconCounts,
    compute_bounds,
    weak_loss,
)


@contextmanager
def record(num: int, description: str):
    try:
        yield
    except Exception:
        print(f"\n[criterion {num:2d}] FAIL  {description}")
        raise
    print(f"\n[criterion {num:2d}] PASS  {description}")


def test_criterion_01_gradient_suite():
    with record(1, "gradcheck --all <= 1e-4 in double precision, under 2 minutes"):
        start = time.time()
        reports = run_all(seed=0, trials=20)
        elapsed = time.time() - start
        names = {r.name for r in reports}
        for required in ("conv1d", "maxpool1d", "gru", "lstm", "fc_relu",
                         "fc_softmax", "cross_entropy", "weak_loss",
                         "topology_cnn_rnn_gru", "topology_cnn_rnn_lstm"):
            assert required in names
        for r in reports:
            assert r.passed, str(r)
            assert r.max_rel_error <= 1e-4
        assert elapsed <= 120.0, f"took {elapsed:.1f}s"


def test_criterion_02_weak_loss_fixtures():
    with record(2, "weak loss: 0 inside bounds; 0.356675 and 1.426700 fixtures"):
        def value(y, lb, ub, w):
            return weak_loss(
                Tensor(np.array(y)),
                ClassBounds(np.array(lb, float), np.array(ub, float)),
                ClassWeights(np.array(w, float)),
            ).data.item()

        assert value([0.2, 0.5, 0.3], [0, 0, 0], [1, 1, 1], [1, 1, 1]) == 0.0
        assert value([0.5, 0.3, 0.2], [0.5, 0, 0], [1, 1, 1], [1, 1, 1]) == 0.0
        got = value([0.2, 0.5, 0.3], [0.5, 0, 0], [1, 1, 1], [1, 1, 1])
        assert abs(got - 0.356675) <= 1e-6
        got4 = value([0.2, 0.5, 0.3], [0.5, 0, 0], [1, 1, 1], [4, 1, 1])
        assert abs(got4 - 1.426700) <= 1e-6


def test_criterion_03_bounds_invariant():
    with record(3, "10,000 random counts keep 0 <= lb <= ub <= 1; n=0 vacuous"):
        rng = np.random.default_rng(0)
        for _ in range(10_000):
            n_h, n_o, n_p = rng.integers(0, 12, size=3)
            n = int(n_h + n_o + n_p + rng.integers(0, 12))
            k = float(rng.uniform(0, 6))
            bounds = compute_bounds(LexiconCounts(n, int(n_h), int(n_o), int(n_p)), k)
            assert np.all(bounds.lb >= 0.0)
            assert np.all(bounds.ub <= 1.0)
            assert np.all(bounds.lb <= bounds.ub)
        vacuous = compute_bounds(LexiconCounts(0, 0, 0, 0), 3.0)
        assert np.array_equal(vacuous.lb, [0.0, 0.0, 0.0])
        assert np.array_equal(vacuous.ub, [1.0, 1.0, 1.0])


def test_criterion_04_balanced_sampler():
    with record(4, "1,000 epoch samples: exact class balance, 3-sigma inclusion"):
        posts = []
        for label, count in ((0, 4), (1, 11), (2, 13)):
            posts.extend(
                RawPost(f"p{label}:{i}", label=label, source_id=f"{label}:{i}")
                for i in range(count)
            )
        corpus = LabeledCorpus(posts, "fixture")
        rng = np.random.default_rng(7)
        epochs = 1000
        inclusion = Counter()
        for _ in range(epochs):
            sample = balanced_epoch_sample(corpus, rng)
            tally = Counter(p.label for p in sample)
            assert tally == {0: 4, 1: 4, 2: 4}
            for post in sample:
                if post.label != 0:
                    inclusion[post.source_id] += 1
        m = 4
        for label, pool in ((1, 11), (2, 13)):
            total = epochs * m
            p = 1.0 / pool
            sigma = math.sqrt(total * p * (1 - p))
            for i in range(pool):
                got = inclusion[f"{label}:{i}"]
                assert abs(got - total * p) <= 3 * sigma, (label, i, got)


def test_criterion_05_majority_vote_oracle():
    with record(5, "vote equals brute-force mode/tie-break oracle, 1,000 fixtures"):
        def oracle(votes, probs):
            tally = Counter(votes)
            top = max(tally.values())
            tied = sorted(c for c, n in tally.items() if n == top)
            if len(tied) == 1:
                return tied[0]
            sums = {c: float(probs[:, c].sum()) for c in tied}
            best = max(sums.values())
            return min(c for c in tied if sums[c] == best)

        rng = np.random.default_rng(11)
        stages = Counter()
        for _ in range(1000):
            k = int(rng.integers(1, 9))
            probs = rng.dirichlet(np.ones(3), size=k)
            roll = rng.random()
            if roll < 0.25:
                probs = np.tile(np.array([[0.4, 0.4, 0.2]]), (k, 1))
            votes = [int(v) for v in rng.integers(0, 3, size=k)]
            assert vote_outcome(votes, probs) == oracle(votes, probs)
            tally = Counter(votes)
            tied = [c for c, n in tally.items() if n == max(tally.values())]
            if len(tied) == 1:
                stages["majority"] += 1
            else:
                sums = probs.sum(axis=0)[tied]
                unique_best = len(np.flatnonzero(sums == sums.max())) == 1
                stages["probability" if unique_best else "ordinal"] += 1
        assert stages["majority"] and stages["probability"] and stages["ordinal"]


def test_criterion_06_early_stopping_argmin():
    with record(6, "early stopping returns the argmin-validation snapshot"):
        topo = tiny_topology()
        table = synthetic_table(0, 6)
        corpus = separable_corpus(4, seed=17)
        cfg = TrainConfig(ensemble_size=1, epochs=6, seed=2, batch_size=8)
        params, trace = train_member(
            2, cfg, topo, table, corpus, corpus, keep_snapshots=True
        )
        data = _TrainData(cfg, topo, table, corpus, corpus, None)
        rescored = [
            _mean_loss_eval(snap, topo, data)[0]
            for snap in trace.snapshots
        ]
        best = int(np.argmin(rescored))
        assert trace.best_epoch == best + 1
        chosen = trace.snapshots[best].named_tensors()
        for name, tensor in params.named_tensors().items():
            assert tensor.data.tobytes() == chosen[name].data.tobytes()


def test_criterion_07_tuning_freeze(tmp_path):
    with record(7, "cmd_tune on a 150-post balanced set: features frozen byte-wise"):
        table = synthetic_table(0, 6)
        topo = tiny_topology()
        train_corpus = separable_corpus(6, seed=23)
        cfg = TrainConfig(ensemble_size=2, epochs=2, seed=0, batch_size=8)
        from hatenet.ensemble import load_bundle, save_bundle, train_ensemble

        bundle, _ = train_ensemble(cfg, topo, table, train_corpus, train_corpus)
        bundle_dir = tmp_path / "pretrained"
        save_bundle(bundle, bundle_dir)

        target_corpus = separable_corpus(50, seed=29)  # 150 posts, 50 per class
        assert target_corpus.class_counts == (50, 50, 50)
        target_path = tmp_path / "target.txt"
        target_path.write_text(
            "\n".join(f"{p.label}\t{p.text}" for p in target_corpus.posts) + "\n"
        )
        out = tmp_path / "tuned"
        code = cli.main([
            "tune", "--bundle", str(bundle_dir), "--target", str(target_path),
            "--embeddings", "synthetic:0:6", "--out", str(out),
        ])
        assert code == 0
        tuned = load_bundle(out)
        original = load_bundle(bundle_dir)
        changed = 0
        for a, b in zip(original.members, tuned.members):
            for key in a.feature.params:
                assert (a.feature.params[key].data.tobytes()
                        == b.feature.params[key].data.tobytes())
            for key in a.classifier.params:
                if (a.classifier.params[key].data.tobytes()
                        != b.classifier.params[key].data.tobytes()):
                    changed += 1
        assert changed > 0
        rep = json.loads((out / "report.json").read_text())
        assert "pre_tuning" in rep and "post_tuning" in rep


def test_criterion_08_overfit_check():
    with record(8, ">= 95% training accuracy on 30 separable posts, <= 60 s"):
        topo = tiny_topology()
        table = synthetic_table(0, 6)
        corpus = separable_corpus(10, seed=3)
        cfg = TrainConfig(ensemble_size=1, epochs=300, seed=0,
                          base_lr=5e-3, batch_size=8)
        start = time.time()
        params, _ = train_member(0, cfg, topo, table, corpus, corpus)
        elapsed = time.time() - start
        correct = 0
        for post in corpus.posts:
            probs = forward(params, topo, embed(preprocess(post), table, 8))
            correct += int(np.argmax(probs.data)) == post.label
        accuracy = correct / len(corpus.posts)
        assert accuracy >= 0.95, f"accuracy {accuracy:.2%}"
        assert elapsed <= 60.0, f"took {elapsed:.1f}s"


def test_criterion_09_metrics_fixtures():
    with record(9, "confusion fixture: hate_recall 0.8, macro F1 0.803828"):
        rep = report(ConfusionMatrix(np.array([[8, 2, 0], [1, 8, 1], [0, 2, 8]])))
        assert rep["hate_recall"] == pytest.approx(0.800000, abs=1e-12)
        assert rep["macro_f1"] == pytest.approx(0.803828, abs=1e-6)
        degenerate = report(accumulate([(c, 2) for c in (0, 1, 2)] * 7))
        assert degenerate["micro_f1"] == 1 / 3
        assert degenerate["hate_recall"] == 0.0


def test_criterion_10_cmd_train_determinism(tmp_path):
    with record(10, "two identical cmd_train runs are byte-identical"):
        corpus = separable_corpus(8, seed=21)
        data = tmp_path / "corpus.txt"
        data.write_text("\n".join(f"{p.label}\t{p.text}" for p in corpus.posts) + "\n")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "topology": {"seq_len": 8, "conv_filters": 2, "conv_width": 3,
                         "conv_pad": 1, "pool_rate": 2, "rnn_hidden": 5,
                         "fc_hidden": 4},
            "train": {"ensemble_size": 2, "epochs": 3, "batch_size": 8, "seed": 4},
        }))
        out = tmp_path / "run"
        args = ["train", "--config", str(config), "--labeled-lines", str(data),
                "--embeddings", "synthetic:0:6", "--out", str(out),
                "--split-seed", "1"]
        assert cli.main(args) == 0
        first = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        for p in out.iterdir():
            p.unlink()
        assert cli.main(args) == 0
        second = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert first.keys() == second.keys()
        for name, blob in first.items():
            assert blob == second[name], f"{name} differs between runs"
        assert "member_0.ckpt" in first and "report.json" in first


OLID_PATH = os.environ.get("OLID_TSV")
HON_PATH = os.environ.get("HON_CSV")


@pytest.mark.skipif(not OLID_PATH, reason="set OLID_TSV to the local OLID training file")
def test_criterion_11_olid_proportions():
    with record(11, "OLID class proportions 8.24 / 25.09 / 66.67 (+/- 0.5 pp)"):
        corpus = load_olid(OLID_PATH)
        assert 10_000 <= len(corpus) <= 14_500
        shares = [100.0 * c / len(corpus) for c in corpus.class_counts]
        for got, want in zip(shares, (8.24, 25.09, 66.67)):
            assert abs(got - want) <= 0.5, shares


@pytest.mark.skipif(not HON_PATH, reason="set HON_CSV to the local three-class corpus")
def test_criterion_12_hon_proportions():
    with record(12, "HON proportions 5.74 / 77.41 / 16.85; combined H 6.61 (+/- 0.5 pp)"):
        corpus = load_hon(HON_PATH)
        assert 22_305 <= len(corpus) <= 24_783
        shares = [100.0 * c / len(corpus) for c in corpus.class_counts]
        for got, want in zip(shares, (5.74, 77.41, 16.85)):
            assert abs(got - want) <= 0.5, shares
        if OLID_PATH:
            both = combine([corpus, load_olid(OLID_PATH)])
            h_share = 100.0 * both.class_counts[0] / len(both)
            assert abs(h_share - 6.61) <= 0.5, h_share
