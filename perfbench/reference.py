"""Plain-numpy reference computations the benchmark checks the program against.

Everything here follows the README's documented contracts and reads the
program's outputs only through their documented on-disk layouts: the
checkpoint container, ``bundle.meta`` and the text vector file.  Token
sequences come from the program's ``preprocess``, whose rules are pinned by
the repository's own frozen fixtures.
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import numpy as np

CE_EPS = 1e-12
LOSS_EPS = 1e-12
N_CLASSES = 3


class Mismatch(Exception):
    """A program output disagrees with its reference."""


# -- on-disk layouts -------------------------------------------------------

def read_checkpoint(path: Path) -> dict[str, tuple[str, np.ndarray]]:
    """``name -> (group, array)`` from a ``member_<i>.ckpt`` file.

    Layout: magic ``HNET``, uint32 version 1, uint64 header length, header
    JSON, float64 little-endian C-order payloads in header order, SHA-256 of
    everything before it.
    """
    raw = Path(path).read_bytes()
    if raw[:4] != b"HNET":
        raise Mismatch(f"{path}: bad magic {raw[:4]!r}")
    (version,) = struct.unpack("<I", raw[4:8])
    if version != 1:
        raise Mismatch(f"{path}: version {version}")
    if hashlib.sha256(raw[:-32]).digest() != raw[-32:]:
        raise Mismatch(f"{path}: trailing SHA-256 does not match")
    (header_len,) = struct.unpack("<Q", raw[8:16])
    header = json.loads(raw[16:16 + header_len])
    offset = 16 + header_len
    arrays = {}
    for entry in header["arrays"]:
        count = int(np.prod(entry["shape"], dtype=np.int64))
        data = np.frombuffer(raw, dtype="<f8", count=count, offset=offset)
        arrays[entry["name"]] = (entry["group"], data.reshape(entry["shape"]))
        offset += 8 * count
    if offset != len(raw) - 32:
        raise Mismatch(f"{path}: payload ends at {offset}, digest at {len(raw) - 32}")
    return arrays


def verify_bundle_digests(dirpath: Path) -> list[dict[str, np.ndarray]]:
    """Check every member file against ``bundle.meta`` and return the
    members' arrays (``name -> array``) in meta order."""
    meta = json.loads((Path(dirpath) / "bundle.meta").read_text(encoding="utf-8"))
    members = []
    for entry in meta["members"]:
        path = Path(dirpath) / entry["file"]
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        if digest != entry["sha256"]:
            raise Mismatch(f"{path}: digest {digest} != bundle.meta {entry['sha256']}")
        members.append(read_checkpoint(path))
    return members


def read_vectors(path: Path, dim: int, wanted: set[str]) -> dict[str, np.ndarray]:
    """The vectors of ``wanted`` tokens; lines without exactly ``dim``
    numeric components are skipped, duplicates keep the first occurrence."""
    out: dict[str, np.ndarray] = {}
    with open(path, encoding="utf-8", errors="replace") as fh:
        for line in fh:
            parts = line.split(None, 1)
            if len(parts) != 2 or parts[0] not in wanted or parts[0] in out:
                continue
            values = parts[1].split()
            if len(values) != dim:
                continue
            try:
                out[parts[0]] = np.array([float(v) for v in values])
            except ValueError:
                continue
    return out


# -- model ---------------------------------------------------------------

def embed(seq, vectors: dict[str, np.ndarray], L: int, dim: int) -> np.ndarray:
    """First L tokens, stem then surface lookup, zero rows padded on the left."""
    tokens, surfaces = seq.tokens[:L], seq.surfaces[:L]
    matrix = np.zeros((L, dim))
    offset = L - len(tokens)
    for i, (token, surface) in enumerate(zip(tokens, surfaces)):
        vec = vectors.get(token)
        if vec is None:
            vec = vectors.get(surface)
        if vec is not None:
            matrix[offset + i] = vec
    return matrix


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _gru(seq, a):
    h = np.zeros(a["u_z"].shape[0])
    states = []
    for x in seq:
        z = _sigmoid(a["w_z"] @ x + a["u_z"] @ h + a["b_z"])
        r = _sigmoid(a["w_r"] @ x + a["u_r"] @ h + a["b_r"])
        g = np.tanh(a["w_h"] @ x + a["u_h"] @ (r * h) + a["b_h"])
        h = (1.0 - z) * h + z * g
        states.append(h)
    return np.array(states)


def _lstm(seq, a):
    h = np.zeros(a["u_i"].shape[0])
    c = np.zeros_like(h)
    states = []
    for x in seq:
        i = _sigmoid(a["w_i"] @ x + a["u_i"] @ h + a["b_i"])
        f = _sigmoid(a["w_f"] @ x + a["u_f"] @ h + a["b_f"])
        o = _sigmoid(a["w_o"] @ x + a["u_o"] @ h + a["b_o"])
        g = np.tanh(a["w_g"] @ x + a["u_g"] @ h + a["b_g"])
        c = f * c + i * g
        h = o * np.tanh(c)
        states.append(h)
    return np.array(states)


def forward(arrays: dict, topo, matrix: np.ndarray) -> np.ndarray:
    """Eval-mode class probabilities of a CNN-RNN-FC member whose conv
    slides along the sequence: conv (as one tensor contraction over
    sliding windows) -> max pool -> GRU/LSTM -> max over time -> ReLU
    dense -> softmax."""
    a = {name: value[1] if isinstance(value, tuple) else value
         for name, value in arrays.items()}
    pad = topo.conv_pad
    planes = np.pad(matrix.T, ((0, 0), (pad, pad)))
    windows = np.lib.stride_tricks.sliding_window_view(planes, topo.conv_width, axis=1)
    conv = np.tensordot(a["conv_w"], windows, axes=([1, 2], [0, 2])) + a["conv_b"][:, None]
    steps = conv.shape[1] // topo.pool_rate
    pooled = conv[:, :steps * topo.pool_rate].reshape(conv.shape[0], steps, topo.pool_rate)
    seq = pooled.max(axis=2).T
    states = _gru(seq, a) if topo.rnn_kind == "gru" else _lstm(seq, a)
    hidden = np.maximum(a["fc1_w"] @ states.max(axis=0) + a["fc1_b"], 0.0)
    logits = a["fc2_w"] @ hidden + a["fc2_b"]
    e = np.exp(logits - logits.max())
    return e / e.sum()


# -- decisions, metrics and losses ----------------------------------------

def vote(member_probs: np.ndarray) -> int:
    """Each member votes its argmax (lowest class on ties); most votes wins,
    then the highest probability summed over members, then the lowest class."""
    votes = [int(np.argmax(p)) for p in member_probs]
    counts = [votes.count(c) for c in range(N_CLASSES)]
    tied = [c for c in range(N_CLASSES) if counts[c] == max(counts)]
    sums = member_probs.sum(axis=0)
    best = max(sums[c] for c in tied)
    return min(c for c in tied if sums[c] == best)


def report(pairs) -> dict:
    """The README's report fields from (true, predicted) pairs."""
    counts = np.zeros((N_CLASSES, N_CLASSES), dtype=np.int64)
    for true, pred in pairs:
        counts[true, pred] += 1
    out, f1s = {}, []
    for c, name in enumerate("HON"):
        tp = counts[c, c]
        col, row = counts[:, c].sum(), counts[c, :].sum()
        precision = tp / col if col else 0.0
        recall = tp / row if row else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        out.update({f"precision_{name}": precision, f"recall_{name}": recall,
                    f"f1_{name}": f1})
        f1s.append(f1)
    out["macro_f1"] = sum(f1s) / N_CLASSES
    out["micro_f1"] = np.trace(counts) / counts.sum() if counts.sum() else 0.0
    out["hate_recall"] = out["recall_H"]
    out["n_posts"] = int(counts.sum())
    return out


def cross_entropy(probs: np.ndarray, label: int) -> float:
    return float(-np.log(min(1.0, max(CE_EPS, probs[label]))))


def read_lexicon(paths, stem) -> tuple[set, set, set]:
    """Stemmed hate/offensive/positive sets; a term in two lists stays in
    the higher-priority one (hate > offensive > positive)."""
    sets = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            terms = (line.strip().lower() for line in fh)
            sets.append({stem(t) for t in terms if t and not t.startswith("#")})
    hate, offensive, positive = sets
    return hate, offensive - hate, positive - hate - offensive


def weak_loss(probs: np.ndarray, tokens, lexicon, k: float = 1.0) -> float:
    """The README's bound-violation loss with uniform class weights."""
    unique = set(tokens)
    n = len(unique)
    lb, ub = np.zeros(N_CLASSES), np.ones(N_CLASSES)
    if n:
        r_h, r_o, r_p = (len(unique & terms) / n for terms in lexicon)
        lb = np.array([min(1.0, k * r_h), min(1.0, k * r_o), min(1.0, k * r_p)])
        ub = np.array([1.0 - min(1.0, k * r_p), 1.0 - min(1.0, k * r_p),
                       1.0 - min(1.0, k * (r_h + r_o))])
        ub = np.maximum(ub, lb)
    below = np.maximum(np.minimum(1.0, 1.0 + probs - lb), LOSS_EPS)
    above = np.maximum(np.minimum(1.0, 1.0 + ub - probs), LOSS_EPS)
    return float(-(np.log(below) + np.log(above)).sum())
