"""Pretrained word-vector tables and fixed-size post matrices.

Vector files use the standard text layout: one token per line followed by
its coordinates, whitespace separated; an optional leading ``count dim``
header line is tolerated.  A loaded file is indexed by token, and each row
is parsed when a post first looks its token up.  A deterministic
synthetic table is provided for tests and demos so no multi-gigabyte
downloads are needed.
"""

from __future__ import annotations

import hashlib
import logging
import threading

import numpy as np

from .autograd import IdBatch
from .corpus import open_utf8
from .errors import EmptyTableError
from .text import TokenSequence

log = logging.getLogger(__name__)


class EmbeddingTable:
    """Immutable token -> vector map with a fixed dimension."""

    def __init__(self, dim: int, vectors: dict[str, np.ndarray], name: str):
        self.dim = int(dim)
        self.vectors = vectors
        self.name = name

    def get(self, token: str) -> "np.ndarray | None":
        return self.vectors.get(token)

    def __len__(self) -> int:
        return len(self.vectors)

    def __contains__(self, token: str) -> bool:
        return token in self.vectors


class SyntheticTable(EmbeddingTable):
    """Deterministic pseudo-random unit vectors for any queried token.

    The vector depends only on (seed, token) via a stable digest, so the
    same token maps to the same vector across runs and platforms.
    """

    def __init__(self, seed: int, dim: int):
        super().__init__(dim, {}, f"synthetic:{seed}:{dim}")
        self.seed = int(seed)

    def get(self, token: str) -> np.ndarray:
        vec = self.vectors.get(token)
        if vec is None:
            digest = hashlib.sha256(token.encode("utf-8")).digest()
            entropy = [self.seed] + [
                int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)
            ]
            rng = np.random.default_rng(entropy)
            vec = rng.standard_normal(self.dim)
            vec /= np.linalg.norm(vec)
            self.vectors[token] = vec
        return vec

    def __contains__(self, token: str) -> bool:
        return True


def synthetic_table(seed: int, dim: int) -> SyntheticTable:
    if dim < 1:
        raise ValueError(f"embedding dim must be >= 1, got {dim}")
    return SyntheticTable(seed, dim)


class _IndexedTable(EmbeddingTable):
    """A text vector file indexed by token; each row is parsed on first lookup.

    ``vectors`` holds the rows parsed so far.  ``_rows`` maps each token
    not yet resolved to its ``(lineno, line)``, or to a list of them in
    file order when the token is listed more than once.  Resolving a
    token parses its rows until one is well formed, stores that one in
    ``vectors`` and drops the token from ``_rows``; a token without a
    well-formed row stays absent.  Rows after a token's resolved row wait
    in ``_later``, which only ``skipped`` reads.
    """

    def __init__(self, path: str, dim: int, rows: dict):
        super().__init__(dim, {}, name=path)
        self._rows = rows
        self._later: list[tuple[int, str]] = []
        self._skipped = 0
        self._all_read = False
        # --jobs threads share one table: a row is resolved under the lock,
        # and stored in ``vectors`` before its token leaves ``_rows``.
        self._lock = threading.Lock()

    def get(self, token: str) -> "np.ndarray | None":
        if token in self._rows:
            with self._lock:
                if token in self._rows:
                    self._resolve(token)
        return self.vectors.get(token)

    def __len__(self) -> int:
        self._read_all()
        return len(self.vectors)

    def __contains__(self, token: str) -> bool:
        return self.get(token) is not None

    @property
    def skipped(self) -> int:
        """Malformed rows in the file; parses every row not yet read."""
        self._read_all()
        return self._skipped

    def _resolve(self, token: str) -> None:
        entry = self._rows[token]
        entries = entry if isinstance(entry, list) else [entry]
        for i, (lineno, line) in enumerate(entries):
            vec = self._parse(lineno, line)
            if vec is not None:  # duplicates keep the first well-formed row
                self.vectors[token] = vec
                self._later.extend(entries[i + 1 :])
                break
        del self._rows[token]

    def _parse(self, lineno: int, line: str) -> "np.ndarray | None":
        parts = line.split()
        if len(parts) != self.dim + 1:
            log.warning("%s:%d: expected %d values, got %d; line skipped",
                        self.name, lineno, self.dim, len(parts) - 1)
            self._skipped += 1
            return None
        try:
            return np.array([float(p) for p in parts[1:]], dtype=np.float64)
        except ValueError:
            log.warning("%s:%d: non-numeric vector component; line skipped",
                        self.name, lineno)
            self._skipped += 1
            return None

    def _read_all(self) -> None:
        with self._lock:
            if self._all_read:
                return
            for token in list(self._rows):
                self._resolve(token)
            for lineno, line in self._later:
                self._parse(lineno, line)
            self._later = []
            self._all_read = True
            if self._skipped:
                log.warning("%s: skipped %d malformed line(s)", self.name, self._skipped)


def load_table(path: str, dim: int) -> EmbeddingTable:
    """Index a text vector file by token; rows are parsed on first lookup.

    One pass stores each line under its token and parses no number; a
    ``count dim`` header on line 1 and blank lines are passed over.
    ``get`` parses a token's row the first time it is asked for and keeps
    the result.  Malformed rows (wrong arity, a non-numeric component) are
    skipped with a warning naming their line when they are first parsed;
    duplicates keep the first well-formed row.  ``len()`` and ``skipped``
    parse every row not yet read, so they give the counts of a full parse.

    Raises EmptyTableError when no usable vector remains.
    """
    rows: dict[str, "tuple[int, str] | list[tuple[int, str]]"] = {}
    with open_utf8(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            head = line.split(None, 1)
            if not head:
                continue
            if lineno == 1:
                parts = line.split()
                if len(parts) <= 2:
                    try:
                        [int(p) for p in parts]
                        continue  # header line: vocabulary size / dimension
                    except ValueError:
                        pass
            token = head[0]
            entry = rows.get(token)
            if entry is None:
                rows[token] = (lineno, line)
            elif isinstance(entry, list):
                entry.append((lineno, line))
            else:
                rows[token] = [entry, (lineno, line)]
    table = _IndexedTable(path, dim, rows)
    # in file order until one row is usable: one row unless none is
    if not any(table.get(token) is not None for token in list(rows)):
        raise EmptyTableError(f"no usable vectors in {path}")
    return table


class TokenMatrix:
    """L x dim matrix for one post, zero rows on the left as padding."""

    def __init__(self, values: np.ndarray, n_real: int):
        self.values = values
        self.n_real = n_real

    @property
    def shape(self):
        return self.values.shape


def embed(seq: TokenSequence, table: EmbeddingTable, L: int = 100) -> TokenMatrix:
    """Map a token sequence to an L x dim matrix, zero left padding, by
    the rules of ``encode``: the one-post batch, gathered."""
    return TokenMatrix(encode([seq], table, L).dense()[0], min(len(seq.tokens), L))


def encode(seqs: "list[TokenSequence]", table: EmbeddingTable, L: int = 100) -> IdBatch:
    """A batch of token sequences as (B, L) ids into (V, dim) rows, one row
    per distinct vector the batch uses, in order of first use.

    Posts longer than L keep their first L tokens, and shorter ones are
    padded with -1 (zero) steps on the left.  Lookup tries the stemmed
    token, then the pre-stem surface form, then falls back to -1, the zero
    vector (inert under downstream max pooling).  Rows are read through
    ``table.get``; gathering them by the ids gives each ``embed`` matrix.
    """
    if L < 1:
        raise ValueError(f"sequence length must be >= 1, got {L}")
    ids = np.full((len(seqs), L), -1, dtype=np.intp)
    index: dict[str, int] = {}  # looked-up string -> its row, -1 for no vector
    rows: list[np.ndarray] = []
    for out, seq in zip(ids, seqs):
        tokens = seq.tokens[:L]
        for i, token in enumerate(tokens):
            for key in (token, *seq.surfaces[i : i + 1]):
                if key not in index:
                    vec = table.get(key)
                    index[key] = -1 if vec is None else len(rows)
                    rows += [] if vec is None else [vec]
                if index[key] >= 0:
                    break
            out[L - len(tokens) + i] = index[key]
    return IdBatch(ids, np.array(rows, dtype=np.float64).reshape(len(rows), table.dim))
