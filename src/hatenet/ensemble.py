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
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .autograd import IdBatch, Tensor
from .corpus import ClassLabel, LabeledCorpus, N_CLASSES
from .embeddings import EmbeddingTable, encode as embed  # perfbench's embeddings.embed
from .errors import (
    CheckpointIntegrityError,
    CheckpointVersionError,
    EmptyClass,
    InvalidConfig,
    NumericError,
    PreprocessingMismatch,
)
from .layers import ParamGroup, cross_entropy
from .metrics import accumulate, report
from .model import ModelParams, TopologyConfig, build, classify, features, forward
from .optim import Adam
from .text import RawPost, TokenSequence, preprocess
from .weaksup import (
    ClassBounds,
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


@dataclass
class EnsembleBundle:
    members: list[ModelParams]
    topology: TopologyConfig
    fingerprint: dict
    provenance: dict = field(default_factory=dict)

    def size(self) -> int:
        return len(self.members)


def balanced_epoch_sample(train: LabeledCorpus, rng: np.random.Generator) -> list[RawPost]:
    """Equal-class epoch sample: all m hate posts exactly once, plus m
    posts drawn with replacement from each majority class; shuffled."""
    buckets = train.by_class()
    for label, bucket in zip(ClassLabel, buckets):
        if not bucket:
            raise EmptyClass(f"training corpus has no {label.name} posts")
    m = len(buckets[ClassLabel.H])
    sample = list(buckets[ClassLabel.H])
    for c in (ClassLabel.O, ClassLabel.N):
        draws = rng.integers(0, len(buckets[c]), size=m)
        sample.extend(buckets[c][i] for i in draws)
    order = rng.permutation(len(sample))
    return [sample[i] for i in order]


def _batches(items: list, size: int):
    for start in range(0, len(items), size):
        yield items[start : start + size]


class _PostLoss:
    """The one path from a batch of posts to its class probabilities and
    loss, for one member's training call (or one ``tune`` call) and loss
    mode.

    A post is preprocessed, and its target (the label, or the lexicon
    bounds in weak mode) computed, the first time it is seen; every later
    epoch and validation pass reuses both.  The cache is keyed by
    ``id(post)`` and each entry keeps the post itself, so no id can be
    reused while the cache lives.
    """

    def __init__(self, topo, table, cfg, lexicon):
        self.topo = topo
        self.table = table
        self.cfg = cfg
        self.lexicon = lexicon
        self.weights = cfg.weights()
        self._encoded: dict[int, tuple[RawPost, TokenSequence, "int | ClassBounds"]] = {}

    def _encode(self, post: RawPost) -> tuple[TokenSequence, "int | ClassBounds"]:
        entry = self._encoded.get(id(post))
        if entry is None:
            seq = preprocess(post)
            if self.cfg.loss_mode == SUPERVISED:
                target = post.label
            else:
                target = compute_bounds(count_lexicon(seq, self.lexicon), self.cfg.bounds_k)
            entry = self._encoded[id(post)] = (post, seq, target)
        return entry[1], entry[2]

    def encode_batch(self, posts: list[RawPost]) -> IdBatch:
        """The posts' token ids into the vector rows they use."""
        seqs = [self._encode(post)[0] for post in posts]
        return embed(seqs, self.table, self.topo.seq_len)

    def criterion(self, probs: Tensor, posts: list[RawPost]) -> Tensor:
        """The batch-mean loss of (B, 3) probabilities of the posts."""
        targets = [self._encode(post)[1] for post in posts]
        if self.cfg.loss_mode == SUPERVISED:
            return cross_entropy(probs, targets)
        return weak_loss(probs, targets, self.weights)

    def loss(self, params, posts: list[RawPost], train: bool = False,
             rng=None) -> tuple[Tensor, Tensor]:
        """(B, 3) class probabilities of the posts and their batch-mean loss."""
        probs = forward(params, self.topo, self.encode_batch(posts), train=train, rng=rng)
        return probs, self.criterion(probs, posts)


def _mean_loss_eval(params, posts, post_loss: _PostLoss) -> tuple[float, "float | None"]:
    """Mean eval-mode loss over posts, plus hate recall when labels exist."""
    total = 0.0
    pairs = []
    for chunk in _batches(posts, EVAL_CHUNK):
        probs, loss = post_loss.loss(params, chunk)
        total += loss.data.item() * len(chunk)
        if post_loss.cfg.loss_mode == SUPERVISED:
            pairs.extend(
                (post.label, int(np.argmax(row))) for post, row in zip(chunk, probs.data)
            )
    mean = total / max(len(posts), 1)
    recall = None
    if pairs:
        recall = report(accumulate(pairs))["hate_recall"]
    return mean, recall


def _step(params, loss: Tensor, optimizer, epoch_no) -> float:
    """One optimizer step on a batch loss; returns the loss value."""
    value = loss.data.item()
    if not np.isfinite(value):
        raise NumericError(f"non-finite training loss at epoch {epoch_no}")
    loss.backward()
    optimizer.step(params.groups())
    return value


def _train_batch(params, batch, post_loss, optimizer, rng, epoch_no) -> float:
    _, loss = post_loss.loss(params, batch, train=True, rng=rng)
    return _step(params, loss, optimizer, epoch_no)


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

    Supervised mode expects LabeledCorpus train/valid; weak mode expects
    plain post lists and a lexicon.  Returns the parameters from the
    epoch with minimum validation loss (earliest such epoch on ties).
    """
    cfg.validate()
    if cfg.loss_mode == WEAK and lexicon is None:
        raise ValueError("weak-supervised training requires a lexicon")
    params = build(topo, member_seed)
    rng = np.random.default_rng([member_seed, 1])
    optimizer = Adam(lr=cfg.base_lr)
    post_loss = _PostLoss(topo, table, cfg, lexicon)
    valid_list = valid_posts.posts if isinstance(valid_posts, LabeledCorpus) else list(valid_posts)
    if not valid_list:
        raise ValueError("validation set must be non-empty")

    trace = TrainTrace(snapshots=[] if keep_snapshots else None)
    best: "ModelParams | None" = None
    best_loss = np.inf
    for epoch in range(1, cfg.epochs + 1):
        if cfg.loss_mode == SUPERVISED:
            sample = balanced_epoch_sample(train_posts, rng)
            batches = list(_batches(sample, cfg.batch_size))
        else:
            pool = list(train_posts)
            size = min(cfg.batch_size, len(pool))
            n_iter = max(1, len(pool) // cfg.batch_size)
            batches = [
                [pool[i] for i in rng.choice(len(pool), size=size, replace=False)]
                for _ in range(n_iter)
            ]
        epoch_losses = [
            _train_batch(params, batch, post_loss, optimizer, rng, epoch)
            for batch in batches
        ]
        if epoch == 1 and cfg.loss_mode == WEAK and not any(epoch_losses):
            log.warning(
                "member seed %d: every weak training batch of epoch 1 has loss "
                "0, so the member trains on a zero gradient; no lexicon bound "
                "binds its predictions at bounds_k=%g (a larger bounds_k "
                "tightens the bounds)", member_seed, cfg.bounds_k,
            )
        valid_loss, valid_recall = _mean_loss_eval(params, valid_list, post_loss)
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
            best = params.copy()
            trace.best_epoch = epoch
    return best, trace


def train_ensemble(
    cfg: TrainConfig,
    topo: TopologyConfig,
    table: EmbeddingTable,
    train_posts,
    valid_posts,
    lexicon: "Lexicon | None" = None,
    jobs: int = 1,
) -> tuple[EnsembleBundle, list[TrainTrace]]:
    """K independent members with seeds seed+0 .. seed+K-1."""
    cfg.validate()
    seeds = [cfg.seed + i for i in range(cfg.ensemble_size)]

    def run(seed: int):
        return train_member(seed, cfg, topo, table, train_posts, valid_posts, lexicon)

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


def vote_outcome(votes: "np.ndarray | list[int]", member_probs: np.ndarray) -> int:
    """Majority decision with the documented tie-break chain: most votes,
    then highest summed probability across members, then lowest ordinal."""
    counts = np.bincount(np.asarray(votes, dtype=np.int64), minlength=N_CLASSES)
    tied = np.flatnonzero(counts == counts.max())
    if len(tied) == 1:
        return int(tied[0])
    sums = member_probs.sum(axis=0)[tied]
    tied = tied[sums == sums.max()]
    return int(tied[0])


def _member_probs(bundle: EnsembleBundle, posts, table: EmbeddingTable) -> np.ndarray:
    """(K, B, 3): every member's class probabilities for each post, one
    forward call per member on the posts encoded once."""
    if table.dim != bundle.fingerprint["dim"]:
        raise PreprocessingMismatch(
            f"table dim {table.dim} != bundle dim {bundle.fingerprint['dim']}"
        )
    batch = embed([preprocess(post) for post in posts], table, bundle.topology.seq_len)
    return np.stack([forward(member, bundle.topology, batch).data
                     for member in bundle.members])


def _prediction(member_probs: np.ndarray) -> Prediction:
    """Per-member argmax votes (ties to the lowest class ordinal), then the
    majority decision, from one post's (K, 3) member probabilities."""
    votes = [int(np.argmax(p)) for p in member_probs]
    return Prediction(
        label=vote_outcome(votes, member_probs),
        votes=votes,
        mean_probs=member_probs.mean(axis=0),
        member_probs=member_probs,
    )


def predict(bundle: EnsembleBundle, post: RawPost, table: EmbeddingTable) -> Prediction:
    """Per-member argmax votes (ties to the lowest class ordinal), then
    the majority decision."""
    return _prediction(_member_probs(bundle, [post], table)[:, 0])


def evaluate(bundle: EnsembleBundle, corpus: LabeledCorpus, table: EmbeddingTable) -> dict:
    """The report of the bundle's decisions on the corpus, which is scored
    in chunks of EVAL_CHUNK posts."""
    pairs = []
    for chunk in _batches(corpus.posts, EVAL_CHUNK):
        probs = _member_probs(bundle, chunk, table)
        pairs.extend(
            (post.label, _prediction(probs[:, i]).label) for i, post in enumerate(chunk)
        )
    return report(accumulate(pairs))


def tune(
    bundle: EnsembleBundle,
    target_train: LabeledCorpus,
    cfg: TrainConfig,
    table: EmbeddingTable,
) -> EnsembleBundle:
    """Freeze the feature extractor, retrain the dense head on the target.

    Runs tune_epochs of balanced epochs at tune_lr; feature tensors are
    untouched byte for byte.  Each member runs its extractor once per
    distinct post, on the post's first draw, and trains the head on the
    kept features.
    """
    cfg.validate()
    counts = target_train.class_counts
    if len(set(counts)) != 1:
        log.warning("tuning set is unbalanced: H/O/N counts %s", counts)
    if min(counts) == 0:
        raise EmptyClass(f"tuning set is missing a class: counts {counts}")
    sup_cfg = TrainConfig(**{**cfg.__dict__, "loss_mode": SUPERVISED})
    topo = bundle.topology
    post_loss = _PostLoss(topo, table, sup_cfg, None)
    tuned_members = []
    for index, member in enumerate(bundle.members):
        params = member.copy()
        rng = np.random.default_rng([cfg.seed + index, 2])
        optimizer = Adam(lr=cfg.tune_lr)
        # id(post) -> the frozen extractor's features of the post; the
        # posts live in target_train for the whole call, so ids are stable
        frozen: dict[int, np.ndarray] = {}
        for epoch in range(1, cfg.tune_epochs + 1):
            sample = balanced_epoch_sample(target_train, rng)
            for batch in _batches(sample, cfg.batch_size):
                new = list({id(p): p for p in batch if id(p) not in frozen}.values())
                for chunk in _batches(new, EVAL_CHUNK):
                    computed = features(params, topo, post_loss.encode_batch(chunk)).data
                    frozen.update(zip(map(id, chunk), computed))
                feats = Tensor(np.stack([frozen[id(p)] for p in batch]))
                probs = classify(params, topo, feats, train=True, rng=rng)
                _step(params, post_loss.criterion(probs, batch), optimizer, epoch)
        tuned_members.append(params)
    provenance = dict(bundle.provenance)
    provenance["tuned_on"] = target_train.provenance
    provenance["tune_epochs"] = cfg.tune_epochs
    provenance["tune_lr"] = cfg.tune_lr
    return EnsembleBundle(
        members=tuned_members,
        topology=bundle.topology,
        fingerprint=dict(bundle.fingerprint),
        provenance=provenance,
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
#            the reader ignores it
#   payload  raw float64 little-endian C-order array bytes, header order
#   32 bytes sha256 of everything above
#
# bundle.meta is JSON with the topology, preprocessing fingerprint,
# provenance, and each member file's digest.


def topology_hash(topo: TopologyConfig) -> str:
    canonical = json.dumps(topo.to_dict(), sort_keys=True).encode("utf-8")
    return hashlib.sha256(canonical).hexdigest()


def _member_bytes(params: ModelParams, topo_hash: str = "") -> bytes:
    arrays = []
    blobs = []
    for group in params.groups():
        for name, tensor in group.params.items():
            arrays.append({
                "name": name,
                "group": group.name,
                "trainable": True,
                "shape": list(tensor.data.shape),
            })
            blobs.append(np.ascontiguousarray(tensor.data, dtype="<f8").tobytes())
    header = json.dumps(
        {"arrays": arrays, "topology_hash": topo_hash}, sort_keys=True
    ).encode("utf-8")
    out = bytearray()
    out += CKPT_MAGIC
    out += struct.pack("<I", CKPT_VERSION)
    out += struct.pack("<Q", len(header))
    out += header
    for blob in blobs:
        out += blob
    out += hashlib.sha256(bytes(out)).digest()
    return bytes(out)


def _member_from_bytes(raw: bytes, path: str, expect_hash: str = "") -> ModelParams:
    if len(raw) < 48 or raw[:4] != CKPT_MAGIC:
        raise CheckpointIntegrityError(f"{path}: not a checkpoint file")
    version = struct.unpack("<I", raw[4:8])[0]
    if version != CKPT_VERSION:
        raise CheckpointVersionError(
            f"{path}: format version {version}, supported {CKPT_VERSION}"
        )
    digest = raw[-32:]
    if hashlib.sha256(raw[:-32]).digest() != digest:
        raise CheckpointIntegrityError(f"{path}: checksum mismatch")
    header_len = struct.unpack("<Q", raw[8:16])[0]
    header = json.loads(raw[16 : 16 + header_len].decode("utf-8"))
    if expect_hash and header.get("topology_hash") != expect_hash:
        raise CheckpointIntegrityError(
            f"{path}: member was written for a different topology"
        )
    offset = 16 + header_len
    groups: dict[str, ParamGroup] = {}
    for entry in header["arrays"]:
        size = int(np.prod(entry["shape"])) if entry["shape"] else 1
        blob = raw[offset : offset + 8 * size]
        if len(blob) != 8 * size:
            raise CheckpointIntegrityError(f"{path}: truncated payload")
        offset += 8 * size
        data = np.frombuffer(blob, dtype="<f8").reshape(entry["shape"]).copy()
        group = groups.setdefault(entry["group"], ParamGroup(entry["group"], {}))
        group.params[entry["name"]] = Tensor(data)
    if set(groups) != {"feature", "classifier"}:
        raise CheckpointIntegrityError(f"{path}: unexpected groups {sorted(groups)}")
    return ModelParams(groups["feature"], groups["classifier"])


def _replace_with(path, data: bytes) -> None:
    """Write `path` whole: a temporary sibling first, then a rename."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def save_bundle(bundle: EnsembleBundle, dirpath) -> None:
    """Write each member, then bundle.meta with their digests, each file
    whole: a save cut short never leaves a mixed bundle that loads."""
    from pathlib import Path

    out = Path(dirpath)
    out.mkdir(parents=True, exist_ok=True)
    topo_hash = topology_hash(bundle.topology)
    members_meta = []
    for i, member in enumerate(bundle.members):
        raw = _member_bytes(member, topo_hash)
        name = f"member_{i}.ckpt"
        _replace_with(out / name, raw)
        members_meta.append({
            "file": name,
            "sha256": hashlib.sha256(raw).hexdigest(),
        })
    meta = {
        "format_version": CKPT_VERSION,
        "topology": bundle.topology.to_dict(),
        "fingerprint": bundle.fingerprint,
        "provenance": bundle.provenance,
        "members": members_meta,
    }
    _replace_with(out / META_NAME,
                  (json.dumps(meta, sort_keys=True, indent=2) + "\n").encode("utf-8"))


def load_bundle(dirpath) -> EnsembleBundle:
    from pathlib import Path

    src = Path(dirpath)
    meta_path = src / META_NAME
    if not meta_path.exists():
        raise CheckpointIntegrityError(f"{meta_path} not found")
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    if meta.get("format_version") != CKPT_VERSION:
        raise CheckpointVersionError(
            f"{meta_path}: format version {meta.get('format_version')}, "
            f"supported {CKPT_VERSION}"
        )
    topology = TopologyConfig.from_dict(meta["topology"])
    expect_hash = topology_hash(topology)
    members = []
    for entry in meta["members"]:
        raw = (src / entry["file"]).read_bytes()
        if hashlib.sha256(raw).hexdigest() != entry["sha256"]:
            raise CheckpointIntegrityError(f"{entry['file']}: digest mismatch")
        members.append(_member_from_bytes(raw, entry["file"], expect_hash))
    return EnsembleBundle(
        members=members,
        topology=topology,
        fingerprint=meta["fingerprint"],
        provenance=meta.get("provenance", {}),
    )
