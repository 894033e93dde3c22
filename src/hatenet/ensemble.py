"""Ensemble training, majority-vote prediction, classifier-head tuning,
and bundle (de)serialization.

Each member is built and trained independently: member i uses seed
``run_seed + i`` for initialization and a derived stream for sampling
and dropout.  Every supervised epoch trains on a fresh class-balanced
resample (all hate posts once, equally many offensive and neither posts
drawn with replacement); the returned parameters are the snapshot from
the epoch with the lowest validation loss (earliest on ties).
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import struct
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .autograd import IdBatch, Tensor
from .corpus import ClassLabel, LabeledCorpus, N_CLASSES, open_utf8, write_whole
from .embeddings import EmbeddingTable, encode as embed  # perfbench's embeddings.embed
from .errors import (
    CheckpointIntegrityError,
    CheckpointVersionError,
    EmptyClass,
    InvalidConfig,
    NumericError,
    PreprocessingMismatch,
)
from .layers import cross_entropy
from .metrics import accumulate, report
from .model import (
    CNN_RNN_FC,
    ModelParams,
    TopologyConfig,
    build,
    check_types,
    classify,
    flat,
    forward,
    layout,
    padding_trajectory,
    param_count,
    stack,
    stacked_forward,
    stacked_heads,
    stacked_members,
)
from .optim import Adam
from .text import RawPost, preprocess
from .weaksup import (
    ClassWeights,
    Lexicon,
    compute_bounds,
    count_lexicon,
    weak_loss,
)

log = logging.getLogger(__name__)

CKPT_MAGIC = b"HNET"
CKPT_VERSION = 1
META_NAME = "bundle.meta"

SUPERVISED = "supervised"
WEAK = "weak"

# posts per forward call when scoring validation posts and in evaluate
EVAL_CHUNK = 20


@dataclass
class TrainConfig:
    ensemble_size: int = 5
    epochs: int = 20
    tune_epochs: int = 10
    base_lr: float = 1e-3
    tune_lr: float = 5e-4
    seed: int = 0
    loss_mode: str = SUPERVISED
    batch_size: int = 32
    bounds_k: float = 1.0
    class_weights: "ClassWeights | None" = None

    def validate(self) -> None:
        check_types(self)
        if self.ensemble_size < 1:
            raise InvalidConfig("ensemble size must be >= 1")
        if self.epochs < 1 or self.tune_epochs < 1:
            raise InvalidConfig("epochs and tune epochs must be >= 1")
        for name in ("base_lr", "tune_lr", "bounds_k"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise InvalidConfig(f"{name} must be finite and positive, got {value}")
        if self.loss_mode not in (SUPERVISED, WEAK):
            raise InvalidConfig(f"unknown loss mode {self.loss_mode!r}")
        if self.batch_size < 1:
            raise InvalidConfig("batch size must be >= 1")
        if self.seed < 0:
            raise InvalidConfig(f"seed must be >= 0, got {self.seed}")

    def weights(self) -> ClassWeights:
        return self.class_weights or ClassWeights.uniform()


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    valid_loss: float
    valid_hate_recall: "float | None"


@dataclass
class TrainTrace:
    epochs: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = 0  # 1-indexed
    snapshots: "list[ModelParams] | None" = None


class EnsembleBundle:
    """K members whose parameters the bundle holds once, stacked
    (model.stack): `stacked` maps each layer to one read-only array with a
    member axis, and each of `members` is a ModelParams of views of its
    rows.  Built from members, the bundle copies their arrays.  `padding`
    is the state each member reaches over a post's lead, from which scoring
    starts the post (model.padding_trajectory; None for CNN-FC): computed
    once when the bundle is built or loaded, never saved."""

    def __init__(self, members: list[ModelParams], topology: TopologyConfig,
                 fingerprint: dict, provenance: "dict | None" = None):
        arrays = ([t.data for t in member.named_tensors().values()] for member in members)
        self._hold(stack(topology, len(members), arrays), topology, fingerprint, provenance)

    @classmethod
    def of_stack(cls, stacked: dict, topology: TopologyConfig, fingerprint: dict,
                 provenance: "dict | None" = None, padding: "tuple | None" = None,
                 ) -> "EnsembleBundle":
        """The bundle holding `stacked`, read-only arrays of model.stack, and
        `padding`, their padding trajectory if it is known already."""
        bundle = cls.__new__(cls)
        bundle._hold(stacked, topology, fingerprint, provenance, padding)
        return bundle

    def _hold(self, stacked, topology, fingerprint, provenance, padding=None) -> None:
        self.stacked = stacked
        if padding is None and topology.variant == CNN_RNN_FC:
            padding = padding_trajectory(topology, stacked, topology.pooled_len())
        self.padding = padding
        self.members = stacked_members(topology, stacked)
        self.topology = topology
        self.fingerprint = fingerprint
        self.provenance = {} if provenance is None else provenance

    def size(self) -> int:
        return len(self.members)


def _balanced_positions(labels, rng: np.random.Generator) -> np.ndarray:
    """Equal-class epoch sample of positions into `labels`: all m hate
    positions exactly once, plus m drawn with replacement from each
    majority class; shuffled."""
    labels = np.asarray(labels)
    classes = [np.flatnonzero(labels == label) for label in ClassLabel]
    for label, bucket in zip(ClassLabel, classes):
        if not len(bucket):
            raise EmptyClass(f"training corpus has no {label.name} posts")
    m = len(classes[ClassLabel.H])
    draws = [bucket[rng.integers(0, len(bucket), size=m)] for bucket in classes[1:]]
    sample = np.concatenate([classes[ClassLabel.H], *draws])
    return sample[rng.permutation(len(sample))]


def balanced_epoch_sample(train: LabeledCorpus, rng: np.random.Generator) -> list[RawPost]:
    """Equal-class epoch sample: all m hate posts exactly once, plus m
    posts drawn with replacement from each majority class; shuffled."""
    return [train.posts[i] for i in _balanced_positions([p.label for p in train.posts], rng)]


def _batches(items, size: int):
    for start in range(0, len(items), size):
        yield items[start : start + size]


def _scored(topo: TopologyConfig, stacked: dict, batch: IdBatch, positions=None,
            padding=None):
    """(chunk, feats, probs) for each EVAL_CHUNK of the posts of `batch` at
    `positions` (all of them by default): one stacked_forward pass of the
    stack's members per chunk, (K, B, F) features and (K, B, 3) probabilities,
    from the stack's padding trajectory if given (a bundle's)."""
    if positions is None:
        positions = np.arange(len(batch))
    for chunk in _batches(positions, EVAL_CHUNK):
        yield chunk, *stacked_forward(topo, stacked, batch.take(chunk), padding)


def _encode(posts, table: EmbeddingTable, topo: TopologyConfig):
    """The posts' token sequences, each text preprocessed once, and all of
    them as one IdBatch."""
    distinct = {post.text: post for post in posts}
    by_text = {text: preprocess(post) for text, post in distinct.items()}
    seqs = [by_text[post.text] for post in posts]
    return seqs, embed(seqs, table, topo.seq_len)


class _TrainData:
    """The train posts, then the validation posts, preprocessed and encoded
    once per training call, each with its target: its label, or its lexicon
    bounds in weak mode.  Every member takes its batches by position."""

    def __init__(self, cfg, topo, table, train_posts, valid_posts, lexicon):
        cfg.validate()
        if cfg.loss_mode == WEAK and lexicon is None:
            raise ValueError("weak-supervised training requires a lexicon")
        train, valid = (part.posts if isinstance(part, LabeledCorpus) else list(part)
                        for part in (train_posts, valid_posts))
        if not valid:
            raise ValueError("validation set must be non-empty")
        seqs, self.batch = _encode(train + valid, table, topo)
        self.n_train = len(train)
        self.weights = cfg.weights() if cfg.loss_mode == WEAK else None  # None: CE
        if self.weights is None:
            self.targets = [post.label for post in train + valid]
        else:
            self.targets = [compute_bounds(count_lexicon(seq, lexicon), cfg.bounds_k)
                            for seq in seqs]

    def loss(self, probs: Tensor, index) -> Tensor:
        """The batch-mean loss of `probs`, the (B, 3) rows of the posts at `index`."""
        targets = [self.targets[i] for i in index]
        if self.weights is None:
            return cross_entropy(probs, targets)
        return weak_loss(probs, targets, self.weights)


def _mean_loss_eval(params, topo, data: _TrainData) -> tuple[float, "float | None"]:
    """Mean eval-mode loss over the validation posts, plus hate recall when
    the targets are labels: the member's own K=1 stack (model.flat) scored
    in place, one stacked_forward pass per EVAL_CHUNK posts."""
    valid = np.arange(data.n_train, len(data.batch))
    total = 0.0
    pairs = []
    for chunk, _, (probs,) in _scored(topo, params.stacked, data.batch, valid):
        total += data.loss(Tensor(probs), chunk).data.item() * len(chunk)
        if data.weights is None:
            pairs.extend((data.targets[i], int(np.argmax(row))) for i, row in zip(chunk, probs))
    recall = report(accumulate(pairs))["hate_recall"] if pairs else None
    return total / max(len(valid), 1), recall


def _step(loss: Tensor, optimizer: Adam, epoch_no) -> float:
    """One optimizer step on a batch loss; returns the loss value."""
    value = loss.data.item()
    if not np.isfinite(value):
        raise NumericError(f"non-finite training loss at epoch {epoch_no}")
    loss.backward()
    optimizer.step()
    return value


def _train_member(member_seed, cfg, topo, data: _TrainData,
                  keep_snapshots=False) -> tuple[ModelParams, TrainTrace]:
    params = build(topo, member_seed)
    rng = np.random.default_rng([member_seed, 1])
    optimizer = Adam(params.data, params.grad, lr=cfg.base_lr)
    trace = TrainTrace(snapshots=[] if keep_snapshots else None)
    best: "np.ndarray | None" = None
    best_loss = np.inf
    for epoch in range(1, cfg.epochs + 1):
        if cfg.loss_mode == SUPERVISED:
            sample = _balanced_positions(data.targets[: data.n_train], rng)
            batches = list(_batches(sample, cfg.batch_size))
        else:
            size = min(cfg.batch_size, data.n_train)
            n_iter = max(1, data.n_train // cfg.batch_size)
            batches = [rng.choice(data.n_train, size=size, replace=False)
                       for _ in range(n_iter)]
        epoch_losses = [
            _step(data.loss(forward(params, topo, data.batch.take(batch), train=True, rng=rng),
                            batch), optimizer, epoch)
            for batch in batches
        ]
        if epoch == 1 and cfg.loss_mode == WEAK and not any(epoch_losses):
            log.warning(
                "member seed %d: every weak training batch of epoch 1 has loss "
                "0, so the member trains on a zero gradient; no lexicon bound "
                "binds its predictions at bounds_k=%g (a larger bounds_k "
                "tightens the bounds)", member_seed, cfg.bounds_k,
            )
        valid_loss, valid_recall = _mean_loss_eval(params, topo, data)
        if not np.isfinite(valid_loss):
            raise NumericError(
                f"non-finite validation loss at epoch {epoch} (member seed {member_seed})"
            )
        trace.epochs.append(EpochRecord(
            epoch=epoch,
            train_loss=float(np.mean(epoch_losses)),
            valid_loss=valid_loss,
            valid_hate_recall=valid_recall,
        ))
        if keep_snapshots:
            trace.snapshots.append(params.copy())
        if valid_loss < best_loss:
            best_loss = valid_loss
            best = params.data.copy()
            trace.best_epoch = epoch
    return flat(topo, best), trace


def train_member(
    member_seed: int,
    cfg: TrainConfig,
    topo: TopologyConfig,
    table: EmbeddingTable,
    train_posts,
    valid_posts,
    lexicon: "Lexicon | None" = None,
    keep_snapshots: bool = False,
) -> tuple[ModelParams, TrainTrace]:
    """Train one member with per-epoch early-stopping snapshots.

    Supervised mode expects labeled train/valid posts; weak mode expects
    plain post lists and a lexicon.  Returns the parameters from the
    epoch with minimum validation loss (earliest such epoch on ties).
    """
    data = _TrainData(cfg, topo, table, train_posts, valid_posts, lexicon)
    return _train_member(member_seed, cfg, topo, data, keep_snapshots)


def train_ensemble(
    cfg: TrainConfig,
    topo: TopologyConfig,
    table: EmbeddingTable,
    train_posts,
    valid_posts,
    lexicon: "Lexicon | None" = None,
    jobs: int = 1,
) -> tuple[EnsembleBundle, list[TrainTrace]]:
    """K independent members with seeds seed+0 .. seed+K-1, all trained on
    one encoding of the posts."""
    data = _TrainData(cfg, topo, table, train_posts, valid_posts, lexicon)
    seeds = [cfg.seed + i for i in range(cfg.ensemble_size)]

    def run(seed: int):
        return _train_member(seed, cfg, topo, data)

    if jobs > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(run, seeds))
    else:
        results = [run(s) for s in seeds]
    members = [r[0] for r in results]
    traces = [r[1] for r in results]
    bundle = EnsembleBundle(
        members=members,
        topology=topo,
        fingerprint={
            "embedding": table.name,
            "dim": table.dim,
            "seq_len": topo.seq_len,
        },
        provenance={
            "loss_mode": cfg.loss_mode,
            "seed": cfg.seed,
            "epochs": cfg.epochs,
            "ensemble_size": cfg.ensemble_size,
        },
    )
    return bundle, traces


@dataclass
class Prediction:
    label: int
    votes: list[int]
    mean_probs: np.ndarray
    member_probs: np.ndarray


def vote_outcome(votes: "np.ndarray | list[int]",
                 member_probs: np.ndarray) -> "int | np.ndarray":
    """Majority decision with the documented tie-break chain: most votes,
    then highest summed probability across members, then lowest ordinal.
    Votes (K,) and probabilities (K, 3) give one label, an int; votes
    (K, B) and probabilities (K, B, 3) give the B posts' labels, (B,)."""
    votes = np.asarray(votes, dtype=np.int64)
    counts = (votes[..., None] == np.arange(N_CLASSES)).sum(axis=0)
    tied = counts == counts.max(axis=-1, keepdims=True)
    # argmax takes the first of equal sums: the lowest ordinal
    labels = np.where(tied, member_probs.sum(axis=0), -np.inf).argmax(axis=-1)
    return int(labels) if votes.ndim == 1 else labels


def _check_table(bundle: EnsembleBundle, table: EmbeddingTable) -> None:
    """Raise PreprocessingMismatch unless the table fits the bundle's fingerprint:
    its dim, and its name where the fingerprint's or the table's is synthetic."""
    if table.dim != bundle.fingerprint["dim"]:
        raise PreprocessingMismatch(
            f"table dim {table.dim} != bundle dim {bundle.fingerprint['dim']}"
        )
    named = bundle.fingerprint.get("embedding", table.name)
    if named != table.name and any(str(n).startswith("synthetic:") for n in (named, table.name)):
        raise PreprocessingMismatch(f"table {table.name} != bundle table {named}")


def predict_all(bundle: EnsembleBundle, posts, table: EmbeddingTable) -> Iterator[Prediction]:
    """Each post's Prediction, in order.  The call checks the table and encodes
    the posts (each text preprocessed once); the iterator scores them in chunks
    of EVAL_CHUNK posts, one stacked_forward pass of all members per chunk."""
    _check_table(bundle, table)
    _, encoded = _encode(posts, table, bundle.topology)

    def predictions():
        for _, _, probs in _scored(bundle.topology, bundle.stacked, encoded,
                                   padding=bundle.padding):
            votes = probs.argmax(axis=-1)  # (K, B), ties to the lowest class ordinal
            means = probs.mean(axis=0)
            for i, label in enumerate(vote_outcome(votes, probs).tolist()):
                yield Prediction(label=label, votes=votes[:, i].tolist(),
                                 mean_probs=means[i], member_probs=probs[:, i])

    return predictions()


def predict(bundle: EnsembleBundle, post: RawPost, table: EmbeddingTable) -> Prediction:
    """Per-member argmax votes (ties to the lowest class ordinal), then
    the majority decision."""
    return next(predict_all(bundle, [post], table))


def evaluate_heads(bundles: "list[EnsembleBundle]", corpus: LabeledCorpus,
                   table: EmbeddingTable) -> list[dict]:
    """Each bundle's evaluate report on the corpus, from one encoding and one
    features pass: the first bundle's stack gives each chunk's features, which
    every bundle's heads (model.stacked_heads) classify.  So the bundles must
    share its topology and feature arrays, by value, as tune's copies do."""
    first = bundles[0]
    heads = {name for group, name, _ in layout(first.topology) if group == "classifier"}
    for bundle in bundles:
        _check_table(bundle, table)
        theirs = bundle.stacked  # tune's copy holds the source's arrays themselves
        if bundle.topology != first.topology or any(
                array is not theirs[name] and not np.array_equal(array, theirs[name])
                for name, array in first.stacked.items() if name not in heads):
            raise ValueError("evaluate_heads needs bundles that differ only in their heads")
    _, encoded = _encode(corpus.posts, table, first.topology)
    pairs: list[list] = [[] for _ in bundles]
    for chunk, feats, probs in _scored(first.topology, first.stacked, encoded,
                                       padding=first.padding):
        labels = [corpus.posts[i].label for i in chunk]
        for bundle, out in zip(bundles, pairs):
            scores = probs if bundle is first else stacked_heads(bundle.stacked, feats)
            out.extend(zip(labels, vote_outcome(scores.argmax(axis=-1), scores).tolist()))
    return [report(accumulate(out)) for out in pairs]


def evaluate(bundle: EnsembleBundle, corpus: LabeledCorpus, table: EmbeddingTable) -> dict:
    """The report of the bundle's decisions on the corpus (evaluate_heads)."""
    return evaluate_heads([bundle], corpus, table)[0]


def check_tuning(bundle: EnsembleBundle, target_train: LabeledCorpus,
                 table: EmbeddingTable) -> None:
    """What tune checks before it trains: PreprocessingMismatch, EmptyClass."""
    _check_table(bundle, table)
    if min(target_train.class_counts) == 0:
        raise EmptyClass(f"tuning set is missing a class: counts {target_train.class_counts}")


def tune(
    bundle: EnsembleBundle,
    target_train: LabeledCorpus,
    cfg: TrainConfig,
    table: EmbeddingTable,
) -> EnsembleBundle:
    """Freeze the feature extractor, retrain the dense head on the target.

    Runs tune_epochs of balanced epochs at tune_lr.  The target is encoded
    once and one stacked_forward pass per EVAL_CHUNK posts gives every
    member's frozen features of every target post.  Each member's head is
    then copied into one flat buffer's classifier group and trained there on
    its (N, F) slice.  The tuned bundle shares the source's feature arrays,
    so they are untouched byte for byte.
    """
    cfg.validate()
    check_tuning(bundle, target_train, table)
    if len(set(target_train.class_counts)) != 1:
        log.warning("tuning set is unbalanced: H/O/N counts %s", target_train.class_counts)
    topo = bundle.topology
    _, encoded = _encode(target_train.posts, table, topo)
    labels = np.array([post.label for post in target_train.posts])
    frozen = np.concatenate([feats for _, feats, _ in _scored(topo, bundle.stacked, encoded,
                                                              padding=bundle.padding)],
                            axis=1)  # (K, N, F)
    params = flat(topo)  # every member's head in turn; classify reads no feature block
    head = params.classifier.params
    span = slice(-params.classifier.n_params(), None)  # the head's part of the buffer
    tuned = {name: np.empty_like(array) if name in head else array  # feature arrays shared
             for name, array in bundle.stacked.items()}
    for index, member in enumerate(bundle.members):
        for name, tensor in head.items():
            tensor.data[...] = member.classifier.params[name].data
        rng = np.random.default_rng([cfg.seed + index, 2])
        optimizer = Adam(params.data[span], params.grad[span], lr=cfg.tune_lr)
        for epoch in range(1, cfg.tune_epochs + 1):
            for batch in _batches(_balanced_positions(labels, rng), cfg.batch_size):
                probs = classify(params, topo, Tensor(frozen[index, batch]), train=True, rng=rng)
                _step(cross_entropy(probs, labels[batch]), optimizer, epoch)
        for name, tensor in head.items():
            tuned[name][index] = tensor.data
    for array in tuned.values():
        array.flags.writeable = False
    provenance = dict(bundle.provenance)
    provenance["tuned_on"] = target_train.provenance
    provenance["tune_epochs"] = cfg.tune_epochs
    provenance["tune_lr"] = cfg.tune_lr
    return EnsembleBundle.of_stack(
        tuned,
        topology=topo,
        fingerprint=dict(bundle.fingerprint),
        provenance=provenance,
        padding=bundle.padding,  # the trajectory reads only the shared feature arrays
    )


# -- checkpoint container ------------------------------------------------
#
# member_<i>.ckpt layout (all integers little endian):
#   4 bytes  magic "HNET"
#   4 bytes  format version (uint32)
#   8 bytes  header length (uint64)
#   header   JSON: {"arrays": [{"name", "group", "trainable", "shape"}],
#                   "topology_hash": sha256 of the canonical topology JSON}
#            "trainable" is always true, kept so format 1 does not change;
#            the reader ignores it and requires the rest of "arrays" to be
#            layout(topology) of the bundle's topology, in order
#   payload  raw float64 little-endian C-order array bytes, header order,
#            ending exactly at the digest
#   32 bytes sha256 of everything above
#
# bundle.meta is JSON with the topology, preprocessing fingerprint,
# provenance, and each member file's digest.


def topology_hash(topo: TopologyConfig) -> str:
    canonical = json.dumps(topo.to_dict(), sort_keys=True).encode("utf-8")
    return hashlib.sha256(canonical).hexdigest()


def _header_arrays(entries) -> list[dict]:
    """The header's "arrays" list of (group, name, shape) layout entries."""
    return [{"group": group, "name": name, "shape": list(shape), "trainable": True}
            for group, name, shape in entries]


def _member_bytes(params: ModelParams, topo_hash: str = "") -> bytes:
    tensors = [(group.name, name, tensor.data)
               for group in params.groups() for name, tensor in group.params.items()]
    header = json.dumps({
        "arrays": _header_arrays((group, name, data.shape) for group, name, data in tensors),
        "topology_hash": topo_hash,
    }, sort_keys=True).encode("utf-8")
    body = b"".join([
        CKPT_MAGIC, struct.pack("<IQ", CKPT_VERSION, len(header)), header,
        *(np.ascontiguousarray(data, dtype="<f8").tobytes() for *_, data in tensors),
    ])
    return body + hashlib.sha256(body).digest()


def _member_arrays(raw: bytes, path: str, topology: TopologyConfig) -> list[np.ndarray]:
    """The arrays of the member in `raw`, in layout order, as views of
    `raw`; its header must list exactly layout(topology) and its payload
    must end at the digest."""
    if len(raw) < 48 or raw[:4] != CKPT_MAGIC:
        raise CheckpointIntegrityError(f"{path}: not a checkpoint file")
    version = struct.unpack("<I", raw[4:8])[0]
    if version != CKPT_VERSION:
        raise CheckpointVersionError(
            f"{path}: format version {version}, supported {CKPT_VERSION}"
        )
    if hashlib.sha256(raw[:-32]).digest() != raw[-32:]:
        raise CheckpointIntegrityError(f"{path}: checksum mismatch")
    payload_start = 16 + struct.unpack("<Q", raw[8:16])[0]
    entries = layout(topology)
    try:
        header = json.loads(raw[16:payload_start].decode("utf-8"))
        arrays = [{**entry, "trainable": True} for entry in header["arrays"]]
        fits = (header["topology_hash"] == topology_hash(topology)
                and arrays == _header_arrays(entries))
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        raise CheckpointIntegrityError(
            f"{path}: not a checkpoint header ({type(exc).__name__}: {exc})"
        ) from None
    if not fits:
        raise CheckpointIntegrityError(f"{path}: member was written for a different topology")
    sizes = [math.prod(shape) for *_, shape in entries]
    if len(raw) - 32 - payload_start != 8 * sum(sizes):
        raise CheckpointIntegrityError(f"{path}: payload of {len(raw) - 32 - payload_start} "
                                       f"bytes, the topology has {8 * sum(sizes)}")
    block = np.frombuffer(raw, dtype="<f8", count=sum(sizes), offset=payload_start)
    return [part.reshape(shape) for part, (*_, shape)
            in zip(np.split(block, np.cumsum(sizes)[:-1]), entries)]


def save_bundle(bundle: EnsembleBundle, dirpath) -> None:
    """Write each member, then bundle.meta with their digests, each file
    whole: a save cut short never leaves a mixed bundle that loads."""
    out = Path(dirpath)
    out.mkdir(parents=True, exist_ok=True)
    topo_hash = topology_hash(bundle.topology)
    members_meta = []
    for i, member in enumerate(bundle.members):
        raw = _member_bytes(member, topo_hash)
        name = f"member_{i}.ckpt"
        write_whole(out / name, raw)
        members_meta.append({"file": name, "sha256": hashlib.sha256(raw).hexdigest()})
    meta = {
        "format_version": CKPT_VERSION,
        "topology": bundle.topology.to_dict(),
        "fingerprint": bundle.fingerprint,
        "provenance": bundle.provenance,
        "members": members_meta,
    }
    write_whole(out / META_NAME, json.dumps(meta, sort_keys=True, indent=2) + "\n")


def load_bundle(dirpath) -> EnsembleBundle:
    """The bundle in `dirpath`.  A bundle.meta that is not UTF-8 JSON of the
    documented shape, or a member whose digest differs from the one listed
    there, raises a CheckpointIntegrityError naming the file."""
    src = Path(dirpath)
    meta_path = src / META_NAME
    if not meta_path.exists():
        raise CheckpointIntegrityError(f"{meta_path} not found")
    try:
        with open_utf8(meta_path) as fh:
            meta = json.load(fh)
        version = meta.get("format_version")
        if type(version) is not int:  # a bool is not a version
            raise TypeError(f"format_version {version!r} is not an integer")
        if version != CKPT_VERSION:
            raise CheckpointVersionError(f"{meta_path}: format version {version}, "
                                         f"supported {CKPT_VERSION}")
        topology = TopologyConfig.from_dict(meta["topology"])
        entries = [(entry["file"], entry["sha256"]) for entry in meta["members"]]
        fingerprint = meta["fingerprint"]
        if not entries:
            raise ValueError("the bundle lists no member")
        if not all(isinstance(name, str) for name, _ in entries):
            raise TypeError("a member file name is not a string")
        if type(fingerprint["dim"]) is not int:
            raise TypeError("the fingerprint dim is not an integer")
        if type(fingerprint["seq_len"]) is not int or fingerprint["seq_len"] != topology.seq_len:
            raise ValueError(f"the fingerprint seq_len {fingerprint['seq_len']!r} is not "
                             f"the topology's {topology.seq_len}")
        provenance = meta.get("provenance")
        if not isinstance(provenance, (dict, type(None))):
            raise TypeError("the provenance is not an object")
        least = 48 + 8 * param_count(topology)  # prefix, payload and digest, before stack allocates
        for name, _ in entries:
            if (size := (src / name).stat().st_size) < least:
                raise CheckpointIntegrityError(f"{name}: {size} bytes, its topology needs {least}")
    except (ValueError, KeyError, TypeError, AttributeError, RecursionError, InvalidConfig) as exc:
        raise CheckpointIntegrityError(
            f"{meta_path}: not a bundle meta file ({type(exc).__name__}: {exc})"
        ) from None

    def member_arrays():
        for name, digest in entries:
            raw = (src / name).read_bytes()
            if hashlib.sha256(raw).hexdigest() != digest:
                raise CheckpointIntegrityError(f"{name}: digest mismatch")
            yield _member_arrays(raw, name, topology)

    return EnsembleBundle.of_stack(
        stack(topology, len(entries), member_arrays()),  # each file read into the stack
        topology=topology,
        fingerprint=fingerprint,
        provenance=provenance,
    )
