"""Corpus loaders, Hate/Offensive/Neither label mapping, and splits.

Supported inputs:
  * comma-separated files with a header naming a ``class`` column
    (0 = hate, 1 = offensive, 2 = neither) and a ``tweet`` text column;
  * tab-separated files with hierarchical offense labels
    (``subtask_a`` OFF/NOT, ``subtask_b`` TIN/UNT, ``subtask_c``
    IND/GRP/OTH), remapped so that group-targeted offensive posts
    become Hate, other offensive posts Offensive, the rest Neither;
  * plain text files, one post per line, optionally with a leading
    tab-separated numeric class code (0/1/2).

Loaders never mutate post text; normalization happens later in the
text pipeline.
"""

from __future__ import annotations

import csv
import enum
import logging
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import CorpusTooSmall, InputEncodingError, MissingColumn
from .text import RawPost

log = logging.getLogger(__name__)


class ClassLabel(enum.IntEnum):
    H = 0  # hate
    O = 1  # offensive
    N = 2  # neither


LABEL_NAMES = ("H", "O", "N")
N_CLASSES = 3


@dataclass
class LabeledCorpus:
    posts: list[RawPost]
    provenance: str
    skipped: int = 0
    class_counts: tuple[int, int, int] = field(init=False)

    def __post_init__(self):
        counts = [0, 0, 0]
        for post in self.posts:
            if post.label is None:
                raise ValueError(f"unlabeled post {post.source_id!r} in labeled corpus")
            counts[post.label] += 1
        self.class_counts = tuple(counts)

    def __len__(self) -> int:
        return len(self.posts)

    def by_class(self) -> list[list[RawPost]]:
        buckets: list[list[RawPost]] = [[], [], []]
        for post in self.posts:
            buckets[post.label].append(post)
        return buckets


# train/valid/test shares of each class in split
SPLIT_FRACTIONS = (0.8, 0.1, 0.1)


@dataclass
class SplitSpec:
    seed: int = 0


@contextmanager
def open_utf8(path: str, newline: "str | None" = None):
    """Open an input file for reading as UTF-8 text; bytes that do not
    decode raise InputEncodingError naming the file."""
    with open(path, encoding="utf-8", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise InputEncodingError.of(path, exc) from None


def _find_column(header: list[str], *candidates: str) -> int:
    lowered = [h.strip().lower() for h in header]
    for cand in candidates:
        if cand in lowered:
            return lowered.index(cand)
    raise MissingColumn(f"none of {candidates} found in header {header}")


def load_hon(path: str) -> LabeledCorpus:
    """Load a comma-separated corpus with numeric three-class codes."""
    posts: list[RawPost] = []
    skipped = 0
    with open_utf8(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise MissingColumn(f"{path} is empty")
        class_col = _find_column(header, "class")
        text_col = _find_column(header, "tweet", "text")
        for row_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) <= max(class_col, text_col):
                log.warning("%s:%d: too few fields; row skipped", path, row_no)
                skipped += 1
                continue
            code = row[class_col].strip()
            if code not in ("0", "1", "2"):
                log.warning("%s:%d: bad class code %r; row skipped", path, row_no, code)
                skipped += 1
                continue
            posts.append(RawPost(
                text=row[text_col],
                label=int(code),
                source_id=f"hon:{row_no}",
            ))
    return LabeledCorpus(posts, provenance="hon", skipped=skipped)


def load_olid(path: str) -> LabeledCorpus:
    """Load a tab-separated hierarchical corpus and fold it to H/O/N.

    H when subtask_a = OFF and subtask_c = GRP; O for all other OFF
    rows (including missing subtask_c); N when subtask_a = NOT.
    """
    posts: list[RawPost] = []
    skipped = 0
    with open_utf8(path, newline="") as fh:
        reader = csv.reader(fh, delimiter="\t")
        try:
            header = next(reader)
        except StopIteration:
            raise MissingColumn(f"{path} is empty")
        a_col = _find_column(header, "subtask_a")
        c_col = _find_column(header, "subtask_c")
        text_col = _find_column(header, "tweet", "text")
        for row_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) <= max(a_col, c_col, text_col):
                log.warning("%s:%d: too few fields; row skipped", path, row_no)
                skipped += 1
                continue
            subtask_a = row[a_col].strip().upper()
            subtask_c = row[c_col].strip().upper()
            if subtask_a == "NOT":
                label = ClassLabel.N
            elif subtask_a == "OFF":
                label = ClassLabel.H if subtask_c == "GRP" else ClassLabel.O
            else:
                log.warning("%s:%d: bad subtask_a %r; row skipped",
                            path, row_no, subtask_a)
                skipped += 1
                continue
            posts.append(RawPost(
                text=row[text_col],
                label=int(label),
                source_id=f"olid:{row_no}",
            ))
    return LabeledCorpus(posts, provenance="olid", skipped=skipped)


def load_labeled_lines(path: str) -> LabeledCorpus:
    """Load `code<TAB>text` lines using the numeric class codes."""
    posts: list[RawPost] = []
    skipped = 0
    with open_utf8(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            code, _, text = line.partition("\t")
            if code.strip() not in ("0", "1", "2"):
                log.warning("%s:%d: bad class code %r; line skipped",
                            path, line_no, code)
                skipped += 1
                continue
            posts.append(RawPost(
                text=text,
                label=int(code.strip()),
                source_id=f"lines:{line_no}",
            ))
    return LabeledCorpus(posts, provenance="lines", skipped=skipped)


def load_unlabeled(path: str) -> list[RawPost]:
    """One post per non-blank line, no labels."""
    posts: list[RawPost] = []
    with open_utf8(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            text = line.rstrip("\n")
            if text.strip():
                posts.append(RawPost(text=text, source_id=f"unlabeled:{line_no}"))
    return posts


def combine(corpora: list[LabeledCorpus]) -> LabeledCorpus:
    """Concatenate corpora; no deduplication is performed."""
    posts: list[RawPost] = []
    tags = []
    skipped = 0
    for corpus in corpora:
        posts.extend(corpus.posts)
        tags.append(corpus.provenance)
        skipped += corpus.skipped
    return LabeledCorpus(posts, provenance="+".join(tags), skipped=skipped)


def _apportion(n: int) -> list[int]:
    """Split n into integer parts proportional to SPLIT_FRACTIONS (largest
    remainder; ties resolved in declaration order)."""
    ideal = [f * n for f in SPLIT_FRACTIONS]
    base = [int(np.floor(x)) for x in ideal]
    leftover = n - sum(base)
    order = sorted(range(len(ideal)),
                   key=lambda i: (-(ideal[i] - base[i]), i))
    for i in order[:leftover]:
        base[i] += 1
    return base


def split(
    corpus: LabeledCorpus, spec: SplitSpec
) -> tuple[LabeledCorpus, LabeledCorpus, LabeledCorpus]:
    """Deterministic, disjoint, exhaustive train/valid/test partition,
    stratified: each class is split 80/10/10 (SPLIT_FRACTIONS)."""
    rng = np.random.default_rng(spec.seed)
    parts: list[list[RawPost]] = [[], [], []]
    for bucket in corpus.by_class():
        if len(bucket) < 3:
            raise CorpusTooSmall(
                f"stratified split needs >= 3 posts per class; "
                f"got {len(bucket)} in one class"
            )
        order = rng.permutation(len(bucket))
        sizes = _apportion(len(bucket))
        start = 0
        for part, size in zip(parts, sizes):
            part.extend(bucket[i] for i in order[start : start + size])
            start += size
    tag = corpus.provenance
    return (
        LabeledCorpus(parts[0], provenance=f"{tag}/train"),
        LabeledCorpus(parts[1], provenance=f"{tag}/valid"),
        LabeledCorpus(parts[2], provenance=f"{tag}/test"),
    )
