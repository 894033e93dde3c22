"""One benchmark workload in its own process.

Set-up (parsing every input file; its time runs from ``--t0``, taken by
``run.py`` just before it started this process), one warm-up, whole timed
rounds (a training call, then a fixed number of prediction calls) until
``--seconds`` have passed, then the checks against ``reference``.  The last
stdout line is one JSON object with ``correct``, ``attempted``, ``failed``,
``e2e`` and, with ``--trace 1``, ``per_layer``.  With ``--setup-only`` the
process stops after set-up and prints ``setup_s``, ``attempted`` and
``failed``.  It drives the program only through the public names of the
README's library tour.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import hatenet as hn  # noqa: E402
import reference as ref  # noqa: E402
import spec  # noqa: E402
from tracer import RUN, Tracer  # noqa: E402

PROB_ATOL = 1e-10
LOSS_RTOL = 1e-9
REPORT_ATOL = 1e-12
SAMPLE = 8  # posts whose per-member probabilities are compared one by one


class RoundFailed(Exception):
    pass


class Ops:
    """Counts operations: every timed program call and every check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def call(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            traceback.print_exc()
            raise RoundFailed(getattr(fn, "__name__", str(fn)))

    def check(self, name: str, fn):
        """Runs one check; returns what ``fn`` returns, or None if it
        raised, which makes the run incorrect."""
        self.attempted += 1
        try:
            return fn()
        except Exception as exc:
            self.correct = False
            print(f"check {name} FAILED: {exc!r}", file=sys.stderr)
            if not isinstance(exc, ref.Mismatch):
                traceback.print_exc()
            return None


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise ref.Mismatch(message)


def _same_report(got: dict, want: dict) -> None:
    _expect(set(got) == set(want), f"report keys {sorted(got)} != {sorted(want)}")
    for key, value in want.items():
        _expect(abs(got[key] - value) <= REPORT_ATOL,
                f"report {key}: program {got[key]} != reference {value}")


class Workload:
    """Shared set-up and reference machinery; subclasses define rounds."""

    rnn_kind = "gru"
    distinct_posts = 1  # set by prepare()

    def __init__(self, inputs: Path, shape: str, seed: int, workdir: Path):
        self.inputs = inputs
        self.seed = seed
        self.workdir = workdir
        self.topo = spec.topology(hn, shape, self.rnn_kind)
        self.dim = self.topo.emb_dim
        self._ref_vectors = None
        self._ref_matrix: dict[int, np.ndarray] = {}

    def path(self, key: str) -> str:
        return str(self.inputs / spec.FILES[key])

    def load_table(self):
        return hn.load_table(self.path("vectors"), self.dim)

    def setup(self):
        self.load()
        self.prepare()

    # -- reference side -----------------------------------------------------

    def ref_matrix(self, post) -> np.ndarray:
        key = id(post)
        if key not in self._ref_matrix:
            seq = hn.preprocess(post)
            self._ref_matrix[key] = ref.embed(seq, self._ref_vectors,
                                              self.topo.seq_len, self.dim)
        return self._ref_matrix[key]

    def read_ref_vectors(self, ops, posts) -> None:
        def read():
            wanted = set()
            for post in posts:
                seq = hn.preprocess(post)
                wanted.update(seq.tokens)
                wanted.update(seq.surfaces)
            self._ref_vectors = ref.read_vectors(Path(self.path("vectors")), self.dim,
                                                 wanted)
        ops.check("reference_vectors", read)

    def ref_probs(self, members, post) -> np.ndarray:
        matrix = self.ref_matrix(post)
        return np.stack([ref.forward(arrays, self.topo, matrix) for arrays in members])

    # -- shared checks ------------------------------------------------------

    def check_member_probs(self, ops, members, predictions, posts) -> None:
        for i, arrays in enumerate(members):
            def compare(i=i, arrays=arrays):
                for pred, post in zip(predictions, posts):
                    want = ref.forward(arrays, self.topo, self.ref_matrix(post))
                    got = np.asarray(pred.member_probs[i])
                    err = float(np.max(np.abs(got - want)))
                    _expect(err <= PROB_ATOL,
                            f"member {i} probabilities differ by {err:.3e}")
            ops.check(f"reference_forward_member_{i}", compare)

    def check_votes(self, ops, predictions) -> None:
        def compare():
            for pred in predictions:
                probs = np.asarray(pred.member_probs)
                _expect(list(pred.votes) == [int(np.argmax(p)) for p in probs],
                        f"votes {pred.votes} are not the members' argmax")
                _expect(pred.label == ref.vote(probs),
                        f"label {pred.label} != majority {ref.vote(probs)}")
        ops.check("majority_vote", compare)

    def check_report(self, ops, name, report, members, corpus) -> None:
        def compare():
            pairs = [(post.label, ref.vote(self.ref_probs(members, post)))
                     for post in corpus.posts]
            _same_report(report, ref.report(pairs))
        ops.check(name, compare)

    def check_best_epochs(self, ops, traces, members, valid_loss) -> None:
        for i, (trace, arrays) in enumerate(zip(traces, members)):
            def compare(trace=trace, arrays=arrays):
                losses = [rec.valid_loss for rec in trace.epochs]
                _expect(trace.best_epoch == 1 + int(np.argmin(losses)),
                        f"best epoch {trace.best_epoch} is not argmin of {losses}")
                want = valid_loss(arrays)
                got = trace.epochs[trace.best_epoch - 1].valid_loss
                _expect(abs(got - want) <= LOSS_RTOL * max(1.0, abs(want)),
                        f"validation loss {got} != reference {want}")
            ops.check(f"best_epoch_member_{i}", compare)

    def saved_members(self, ops, bundle, name):
        """save_bundle, then every digest against bundle.meta; returns the
        members read back through the documented checkpoint layout."""
        out = self.workdir / name

        def save_and_read():
            hn.save_bundle(bundle, out)
            return ref.verify_bundle_digests(out)
        return ops.check(f"{name}_digests", save_and_read) or []

    def sample_predictions(self, ops, bundle, posts):
        """One untimed predict call per post, for the per-post checks."""
        return ops.check("predict_sample",
                         lambda: [hn.predict(bundle, post, self.table) for post in posts])


class HonGru(Workload):
    """Supervised CNN-GRU ensemble on the HON-like CSV, then evaluate."""

    def load(self):
        self.table = self.load_table()
        self.corpus = hn.corpus.load_hon(self.path("hon"))

    def prepare(self):
        self.train, self.valid, self.test = hn.split(self.corpus, hn.SplitSpec(seed=self.seed))
        self.cfg = hn.TrainConfig(ensemble_size=spec.HON_K, epochs=spec.HON_EPOCHS,
                                  seed=self.seed)
        self.distinct_posts = len(self.corpus)

    def warmup(self):
        few = [post for bucket in self.train.by_class() for post in bucket[:2]]
        cfg = hn.TrainConfig(ensemble_size=1, epochs=1, seed=self.seed)
        bundle, _ = hn.train_ensemble(cfg, self.topo, self.table,
                                      hn.LabeledCorpus(few, "warmup"), self.valid.posts[:2])
        hn.evaluate(bundle, hn.LabeledCorpus(self.test.posts[:2], "warmup"), self.table)

    def train_round(self, ops):
        t0 = time.perf_counter()
        self.trained = ops.call(hn.train_ensemble, self.cfg, self.topo, self.table,
                                self.train, self.valid)
        seconds = time.perf_counter() - t0
        # each member-epoch trains on all m hate posts plus m of each other class
        posts = self.cfg.ensemble_size * self.cfg.epochs * 3 * self.train.class_counts[0]
        return posts, seconds, self.trained

    def predict_round(self, ops):
        t0 = time.perf_counter()
        report = ops.call(hn.evaluate, self.trained[0], self.test, self.table)
        return len(self.test), time.perf_counter() - t0, report

    def check(self, ops, train, predict):
        bundle, traces = train[-1][2]
        report = predict[-1][2]
        ops.check("rounds_agree", lambda: _expect(
            all(r[2] == report for r in predict), "reports differ between rounds"))
        self.read_ref_vectors(ops, self.valid.posts + self.test.posts)
        members = self.saved_members(ops, bundle, "hon_bundle")
        if not members:
            return

        def valid_ce(arrays):
            return float(np.mean([
                ref.cross_entropy(ref.forward(arrays, self.topo, self.ref_matrix(p)), p.label)
                for p in self.valid.posts]))

        self.check_best_epochs(ops, traces, members, valid_ce)
        sample = self.test.posts[:SAMPLE]
        predictions = self.sample_predictions(ops, bundle, sample)
        if predictions is not None:
            self.check_member_probs(ops, members, predictions, sample)
            self.check_votes(ops, predictions)
        self.check_report(ops, "evaluate_report", report, members, self.test)


class GabWeakLstm(Workload):
    """Weak-supervised CNN-LSTM ensemble on the Gab-like pool, then one
    predict call per held-out post."""

    rnn_kind = "lstm"

    def load(self):
        self.table = self.load_table()
        self.pool = hn.corpus.load_unlabeled(self.path("gab_pool"))
        self.lexicon = hn.load_lexicon(self.path("lex_hate"), self.path("lex_offensive"),
                                       self.path("lex_positive"))

    def prepare(self):
        n_train, n_valid = spec.GAB_TRAIN, spec.GAB_VALID
        self.train = self.pool[:n_train]
        self.valid = self.pool[n_train:n_train + n_valid]
        self.stream = self.pool[n_train + n_valid:]
        self.cfg = hn.TrainConfig(ensemble_size=spec.GAB_K, epochs=spec.GAB_EPOCHS,
                                  batch_size=spec.GAB_BATCH, bounds_k=spec.GAB_BOUNDS_K,
                                  seed=self.seed, loss_mode=hn.ensemble.WEAK)
        self.distinct_posts = len(self.pool)

    def warmup(self):
        cfg = hn.TrainConfig(ensemble_size=1, epochs=1, bounds_k=spec.GAB_BOUNDS_K,
                             seed=self.seed, loss_mode=hn.ensemble.WEAK)
        bundle, _ = hn.train_ensemble(cfg, self.topo, self.table, self.train[:4],
                                      self.valid[:2], lexicon=self.lexicon)
        hn.predict(bundle, self.stream[0], self.table)

    def train_round(self, ops):
        t0 = time.perf_counter()
        self.trained = ops.call(hn.train_ensemble, self.cfg, self.topo, self.table,
                                self.train, self.valid, lexicon=self.lexicon)
        seconds = time.perf_counter() - t0
        # each weak epoch draws len(pool) // batch batches of batch posts
        n, batch = len(self.train), self.cfg.batch_size
        posts = (self.cfg.ensemble_size * self.cfg.epochs
                 * max(1, n // batch) * min(batch, n))
        return posts, seconds, self.trained

    def predict_round(self, ops):
        bundle = self.trained[0]
        t0 = time.perf_counter()
        predictions = [ops.call(hn.predict, bundle, post, self.table) for post in self.stream]
        return len(self.stream), time.perf_counter() - t0, predictions

    def check(self, ops, train, predict):
        bundle, traces = train[-1][2]
        predictions = predict[-1][2]
        labels = [p.label for p in predictions]
        ops.check("rounds_agree", lambda: _expect(
            all([p.label for p in r[2]] == labels for r in predict),
            "predicted labels differ between rounds"))
        self.read_ref_vectors(ops, self.valid + self.stream)
        members = self.saved_members(ops, bundle, "weak_bundle")
        if not members:
            return
        lexicon = ops.check("reference_lexicon", lambda: ref.read_lexicon(
            [self.path(k) for k in ("lex_hate", "lex_offensive", "lex_positive")], hn.stem))

        def valid_weak_loss(arrays):
            return float(np.mean([
                ref.weak_loss(ref.forward(arrays, self.topo, self.ref_matrix(p)),
                              hn.preprocess(p).tokens, lexicon, spec.GAB_BOUNDS_K)
                for p in self.valid]))

        self.check_best_epochs(ops, traces, members, valid_weak_loss)
        self.check_member_probs(ops, members, predictions, self.stream)
        self.check_votes(ops, predictions)


class GabTransferK5(Workload):
    """load_bundle of the K=5 source bundle, then evaluate, tune, evaluate."""

    def load(self):
        self.table = self.load_table()
        self.target = hn.corpus.load_labeled_lines(self.path("target"))
        self.test = hn.corpus.load_labeled_lines(self.path("gab_test"))
        self.bundle = hn.load_bundle(self.path("bundle"))

    def prepare(self):
        self.cfg = hn.TrainConfig(tune_epochs=spec.TUNE_EPOCHS, seed=self.seed)
        self.distinct_posts = len(self.target) + len(self.test)

    def warmup(self):
        one_each = [bucket[0] for bucket in self.target.by_class()]
        hn.tune(self.bundle, hn.LabeledCorpus(one_each, "warmup"), self.cfg, self.table)
        hn.predict(self.bundle, self.test.posts[0], self.table)

    def train_round(self, ops):
        t0 = time.perf_counter()
        self.tuned = ops.call(hn.tune, self.bundle, self.target, self.cfg, self.table)
        seconds = time.perf_counter() - t0
        # K members x tune epochs x balanced sample (m posts of each class)
        posts = (len(self.bundle.members) * self.cfg.tune_epochs
                 * 3 * min(self.target.class_counts))
        return posts, seconds, self.tuned

    def predict_round(self, ops):
        t0 = time.perf_counter()
        before = ops.call(hn.evaluate, self.bundle, self.test, self.table)
        after = ops.call(hn.evaluate, self.tuned, self.test, self.table)
        return 2 * len(self.test), time.perf_counter() - t0, (before, after)

    def check(self, ops, train, predict):
        tuned = train[-1][2]
        before, after = predict[-1][2]
        ops.check("rounds_agree", lambda: _expect(
            all(r[2] == (before, after) for r in predict), "reports differ between rounds"))
        self.read_ref_vectors(ops, self.test.posts)
        source = ops.check("source_bundle_digests", lambda: ref.verify_bundle_digests(
            Path(self.path("bundle")))) or []
        members = self.saved_members(ops, tuned, "tuned_bundle")
        if not (source and members):
            return
        for i, (old, new) in enumerate(zip(source, members)):
            def frozen(old=old, new=new):
                for name, (group, array) in old.items():
                    same = array.tobytes() == new[name][1].tobytes()
                    if group == "feature":
                        _expect(same, f"feature array {name} changed")
                _expect(any(array.tobytes() != new[name][1].tobytes()
                            for name, (group, array) in old.items()
                            if group == "classifier"), "classifier arrays unchanged")
            ops.check(f"tune_freezes_features_member_{i}", frozen)
        sample = self.test.posts[:SAMPLE]
        predictions = self.sample_predictions(ops, tuned, sample)
        if predictions is not None:
            self.check_member_probs(ops, members, predictions, sample)
            self.check_votes(ops, predictions)
        self.check_report(ops, "evaluate_report_before_tune", before, source, self.test)
        self.check_report(ops, "evaluate_report_after_tune", after, members, self.test)


WORKLOADS = {"hon_gru": HonGru, "gab_weak_lstm": GabWeakLstm,
             "gab_transfer_k5": GabTransferK5}


def _rounds(ops, work, repeats: int, deadline: float):
    """Whole rounds until ``deadline``, at least one: a training call, then
    ``repeats`` prediction calls.  Returns the (posts, seconds, output)
    samples of each kind; only the last training output is kept.  A round
    whose program call raised is counted by ``ops`` and left out."""
    train, predict = [], []
    while True:
        try:
            sample = work.train_round(ops)
            if train:
                train[-1] = train[-1][:2] + (None,)
            train.append(sample)
            for _ in range(repeats):
                predict.append(work.predict_round(ops))
        except RoundFailed as exc:
            print(f"round failed in {exc}", file=sys.stderr)
        if time.perf_counter() >= deadline:
            return train, predict


def _median_rate(samples):
    return median(posts / seconds for posts, seconds, _ in samples) if samples else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="run one benchmark workload")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--shape", choices=sorted(spec.SHAPES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() just before this process was started")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    inputs = Path(args.inputs)
    work = WORKLOADS[args.workload](inputs, args.shape, args.seed, inputs.parent)
    ops = Ops()
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
        tracer.phase = "setup"
    e2e = dict.fromkeys(("setup_s", "train_posts_per_s", "predict_posts_per_s",
                         "peak_rss_mb"))
    train, predict = [], []
    try:
        ops.call(work.setup)
        e2e["setup_s"] = time.monotonic() - args.t0
        if not args.setup_only:
            if tracer:
                tracer.phase = None
            ops.call(work.warmup)
            if tracer:
                tracer.phase = RUN
            repeats = spec.PREDICT_REPEATS[args.workload]
            train, predict = _rounds(ops, work, repeats, time.perf_counter() + args.seconds)
    except RoundFailed as exc:
        print(f"set-up failed in {exc}", file=sys.stderr)
    if args.setup_only:
        print(json.dumps({"setup_s": e2e["setup_s"], "attempted": ops.attempted,
                          "failed": ops.failed}))
        return 0
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.phase = None
    e2e["train_posts_per_s"] = _median_rate(train)
    e2e["predict_posts_per_s"] = _median_rate(predict)
    print("rates " + json.dumps({name: [posts / seconds for posts, seconds, _ in samples]
                                 for name, samples in (("train", train),
                                                       ("predict", predict))}),
          file=sys.stderr)

    if train and predict:
        try:
            work.check(ops, train, predict)
        except Exception:
            ops.correct = False
            traceback.print_exc()
    else:
        ops.correct = False  # no complete round, so no output could be checked
        print("no round completed", file=sys.stderr)
    result = {"correct": ops.correct, "attempted": ops.attempted, "failed": ops.failed,
              "rounds": len(train), "e2e": e2e}
    if tracer:
        tracer.uninstall()
        result["per_layer"] = tracer.metrics(max(1, len(train)), work.distinct_posts)
        result["absent"] = tracer.absent
        if args.trace_out:
            tracer.write(args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
