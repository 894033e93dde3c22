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

Every input opens through ``open_utf8``: UTF-8, a leading byte-order
mark ignored; every file the package writes goes through ``write_whole``.
One row rule holds for every reader: blank rows and lines are passed
over and keep their numbers; a malformed row is warned as ``file:row``,
counted in ``LabeledCorpus.skipped`` and gives no post.
Loaders never mutate post text; normalization happens later in the
text pipeline.
"""

from __future__ import annotations

import csv
import enum
import logging
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path

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
    """Open an input file for reading as UTF-8 text, a leading byte-order
    mark dropped; bytes that do not decode raise InputEncodingError naming
    the file."""
    with open(path, encoding="utf-8-sig", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise InputEncodingError.of(path, exc) from None


def write_whole(path, data: "str | bytes") -> None:
    """Write `path` whole, text as UTF-8: a temporary sibling, then a rename
    over `path`, so a write cut short leaves the previous file or none."""
    tmp = Path(f"{path}.tmp")
    try:
        tmp.write_bytes(data.encode("utf-8") if isinstance(data, str) else data)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def nonblank_lines(path: str):
    """(line number, line without its line end) for each line of a text
    file that holds more than whitespace."""
    with open_utf8(path) as fh:
        for number, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if line.strip():
                yield number, line


def _labeled(path: str, prefix: str, unit: str, rows, parse) -> LabeledCorpus:
    """The corpus of numbered rows; ``parse(row)`` gives ``(label, text)``,
    or the reason the row is malformed: such a row is warned as
    ``path:number``, counted in ``skipped`` and gives no post."""
    posts: list[RawPost] = []
    skipped = 0
    for number, row in rows:
        parsed = parse(row)
        if isinstance(parsed, str):
            log.warning("%s:%d: %s; %s skipped", path, number, parsed, unit)
            skipped += 1
        else:
            label, text = parsed
            posts.append(RawPost(text=text, label=label, source_id=f"{prefix}:{number}"))
    return LabeledCorpus(posts, provenance=prefix, skipped=skipped)


def _find_column(header: list[str], *candidates: str) -> int:
    lowered = [h.strip().lower() for h in header]
    for cand in candidates:
        if cand in lowered:
            return lowered.index(cand)
    raise MissingColumn(f"none of {candidates} found in header {header}")


def _delimited(path: str, prefix: str, delimiter: str, columns, label) -> LabeledCorpus:
    """A header-led delimited file: ``columns`` names each field that
    ``label`` takes, by its candidate header names; blank rows are passed
    over.  A row is numbered by the line it starts on, so a quoted field
    that spans lines does not shift the rows after it."""
    with open_utf8(path, newline="") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise MissingColumn(f"{path} is empty")
        cols = [_find_column(header, *names) for names in columns]
        fields = itemgetter(*cols)  # a tuple: every format names two or more columns
        needed = max(cols) + 1

        def parse(row):
            if len(row) < needed:
                return "too few fields"
            return label(*fields(row))

        def rows():
            start = reader.line_num + 1
            for row in reader:
                if row:
                    yield start, row
                start = reader.line_num + 1

        return _labeled(path, prefix, "row", rows(), parse)


def _class_code(code: str, text: str):
    """A numeric class code: 0 hate, 1 offensive, 2 neither."""
    code = code.strip()
    if code not in ("0", "1", "2"):
        return f"bad class code {code!r}"
    return int(code), text


def _coded_line(line: str):
    """A ``code<TAB>text`` line."""
    code, _, text = line.partition("\t")
    return _class_code(code, text)


def _olid_label(subtask_a: str, subtask_c: str, text: str):
    subtask_a = subtask_a.strip().upper()
    if subtask_a == "NOT":
        return int(ClassLabel.N), text
    if subtask_a == "OFF":
        return int(ClassLabel.H if subtask_c.strip().upper() == "GRP" else ClassLabel.O), text
    return f"bad subtask_a {subtask_a!r}"


def load_hon(path: str) -> LabeledCorpus:
    """Load a comma-separated corpus with numeric three-class codes."""
    return _delimited(path, "hon", ",", [("class",), ("tweet", "text")], _class_code)


def load_olid(path: str) -> LabeledCorpus:
    """Load a tab-separated hierarchical corpus and fold it to H/O/N.

    H when subtask_a = OFF and subtask_c = GRP; O for all other OFF
    rows (including missing subtask_c); N when subtask_a = NOT.
    """
    return _delimited(path, "olid", "\t", [("subtask_a",), ("subtask_c",), ("tweet", "text")],
                      _olid_label)


def load_labeled_lines(path: str) -> LabeledCorpus:
    """Load `code<TAB>text` lines using the numeric class codes."""
    return _labeled(path, "lines", "line", nonblank_lines(path), _coded_line)


def load_unlabeled(path: str) -> list[RawPost]:
    """One post per non-blank line, no labels."""
    return [RawPost(text=line, source_id=f"unlabeled:{number}")
            for number, line in nonblank_lines(path)]


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
