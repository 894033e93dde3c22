"""Pretrained word-vector tables and fixed-size post matrices.

Vector files use the standard text layout: one token per line followed by
its coordinates, whitespace separated; an optional leading ``count dim``
header line is tolerated.  A loaded file is indexed by the byte span of
each token's lines, and each row is read and parsed when a post first
looks its token up.  A deterministic
synthetic table is provided for tests and demos so no multi-gigabyte
downloads are needed.
"""

from __future__ import annotations

import codecs
import hashlib
import logging
import re
import threading
import weakref
from array import array

import numpy as np

from .autograd import IdBatch
from .errors import EmptyTableError, HatenetError, InputEncodingError
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


_CHUNK = 1 << 16  # bytes per read while a file is indexed; small enough to stay in cache
# leading blanks, then the first field: the bytes up to ASCII whitespace
_FIRST_FIELD = re.compile(rb"[ \t\v\f]*([^ \t\n\r\v\f]*)")


class _IndexedTable(EmbeddingTable):
    """A text vector file indexed by token; each row is read and parsed on
    first lookup.

    The table keeps the file open (closed when the table is collected) and
    holds no line text: ``_spans`` keeps three numbers per row, its line
    number, the byte offset of the line and its length without the line
    end.  ``_rows`` maps each token not yet resolved to its row, or to a
    list of them in file order when the token is listed more than once.
    Resolving a token reads and parses its rows until one is well formed,
    stores that one in ``vectors`` and drops the token from ``_rows``; a
    token without a well-formed row stays absent.  Rows after a token's
    resolved row wait in ``_later``, which only ``skipped`` reads.  A row
    that no longer reads back as its token's line, because the file was
    rewritten in place after loading, is a HatenetError naming the line.
    """

    def __init__(self, fh, dim: int, rows: dict, spans: array):
        super().__init__(dim, {}, name=fh.name)
        self._fh = fh
        self._close = weakref.finalize(self, fh.close)
        self._rows = rows
        self._spans = spans
        self._later: list[tuple[int, str]] = []
        self._skipped = 0
        self._all_read = False
        # --jobs threads share one table: the file is read and a row resolved
        # under the lock, and a vector is stored in ``vectors`` before its
        # token leaves ``_rows``, which ``get`` reads without the lock.
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
        for i, row in enumerate(entries):
            vec = self._parse(row, token)
            if vec is not None:  # duplicates keep the first well-formed row
                self.vectors[token] = vec
                self._later.extend((later, token) for later in entries[i + 1 :])
                break
        del self._rows[token]

    def _fields(self, row: int, token: str) -> "tuple[int, list[str]]":
        """The line number and the fields of ``token``'s row, read from the file."""
        lineno, offset, length = self._spans[3 * row : 3 * row + 3]
        self._fh.seek(offset)  # under the lock
        data = self._fh.read(length + 1)
        body = data[:length]
        try:
            parts = body.decode("utf-8").split()
        except UnicodeDecodeError:
            parts = []
        # still one line of the same length, ended where it was, of this token
        if (len(body) < length or data[length:] not in (b"", b"\n", b"\r")
                or b"\n" in body or b"\r" in body or parts[:1] != [token]):
            raise HatenetError(f"{self.name}:{lineno}: the line no longer holds the row "
                               f"of {token!r}; the file changed after it was loaded")
        return lineno, parts

    def _parse(self, row: int, token: str) -> "np.ndarray | None":
        lineno, parts = self._fields(row, token)
        if len(parts) != self.dim + 1:
            log.warning("%s:%d: expected %d values, got %d; line skipped",
                        self.name, lineno, self.dim, len(parts) - 1)
            self._skipped += 1
            return None
        try:
            vec = np.array([float(p) for p in parts[1:]], dtype=np.float64)
        except ValueError:
            vec = None
        if vec is not None and np.isfinite(vec).all():
            return vec
        log.warning("%s:%d: %s vector component; line skipped", self.name, lineno,
                    "non-numeric" if vec is None else "non-finite")  # nan, inf, 1e999
        self._skipped += 1
        return None

    def _read_all(self) -> None:
        with self._lock:
            if self._all_read:
                return
            pending = self._later + [
                (row, token) for token, entry in self._rows.items()
                for row in (entry if isinstance(entry, list) else [entry])]
            for row, token in sorted(pending):  # in file order, front to back
                vec = self._parse(row, token)
                if vec is not None:
                    self.vectors.setdefault(token, vec)
            self._rows.clear()
            self._later = []
            self._all_read = True
            if self._skipped:
                log.warning("%s: skipped %d malformed line(s)", self.name, self._skipped)


def _blocks(fh):
    """The file's bytes as (offset, block) pairs, each block whole lines."""
    offset, rest = 0, b""
    while True:
        chunk = fh.read(_CHUNK)
        buf = rest + chunk
        # cut after the last line end that is known whole: a \r that ends
        # the buffer may be the first half of a \r\n
        cut = max(buf.rfind(b"\n"), buf.rfind(b"\r", 0, len(buf) - 1)) + 1 if chunk else len(buf)
        if cut:
            yield offset, buf[:cut]
            offset += cut
        rest = buf[cut:]
        if not chunk:
            return


def _index(fh) -> "tuple[dict, array]":
    """One pass over the file: each token's rows, and each row's span."""
    rows: dict[str, "int | list[int]"] = {}
    spans = array("q")
    lineno = 0
    for offset, block in _blocks(fh):
        try:
            block.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise InputEncodingError.of(fh.name, exc) from None
        # line 1 starts after a UTF-8 byte-order mark
        pos = len(codecs.BOM_UTF8) if offset == 0 and block.startswith(codecs.BOM_UTF8) else 0
        size = len(block)
        while pos < size:  # one line: \n, \r\n or a lone \r ends it
            lineno += 1
            field = _FIRST_FIELD.match(block, pos)
            start = pos
            nl = block.find(b"\n", field.end())
            nl = size if nl < 0 else nl
            end = block.find(b"\r", field.end(), nl)
            end = nl if end < 0 else end
            # past the \n of \n or \r\n, or past a lone \r
            pos = nl + 1 if end >= nl - 1 else end + 1
            token = field.group(1).decode("utf-8")
            # str.split also cuts at Unicode whitespace, which is never printable
            if lineno == 1 or not token.isprintable():
                parts = block[start:end].decode("utf-8").split()
                if lineno == 1 and len(parts) <= 2:
                    try:
                        [int(p) for p in parts]
                        continue  # header line: vocabulary size / dimension
                    except ValueError:
                        pass
                token = parts[0] if parts else ""
            if not token:
                continue  # blank line
            row = len(spans) // 3
            spans.extend((lineno, offset + start, end - start))
            entry = rows.get(token)
            if entry is None:
                rows[token] = row
            elif isinstance(entry, list):
                entry.append(row)
            else:
                rows[token] = [entry, row]
    return rows, spans


def load_table(path: str, dim: int) -> EmbeddingTable:
    """Index a text vector file by token; rows are parsed on first lookup.

    One pass reads the file's bytes in bounded chunks, checks that they
    are UTF-8, and notes where each token's lines are; it keeps no line
    text and parses no number.  A leading UTF-8 byte-order mark, a
    ``count dim`` header on line 1 and blank lines are passed over; LF,
    CR LF and a lone CR end a line, and a line's token is its first field
    by ``str.split``.  The table keeps the file open; ``get`` reads and
    parses a token's row the first time it is asked for and keeps the
    result.  Malformed rows (wrong arity, a non-numeric or non-finite
    component) are skipped with a warning naming their line when they are
    first parsed; duplicates keep the first well-formed row.  ``len()``
    and ``skipped`` parse every row not yet read, so they give the counts
    of a full parse.

    Raises HatenetError when the file is not seekable (a pipe),
    InputEncodingError when it is not UTF-8, and EmptyTableError when no
    usable vector remains.
    """
    fh = open(path, "rb", buffering=0)
    try:
        if not fh.seekable():  # rows are read back by offset after the scan
            raise HatenetError(f"{path} is not a regular file; word vectors "
                               "must be read from a seekable file, not a pipe")
        rows, spans = _index(fh)
    except BaseException:
        fh.close()
        raise
    table = _IndexedTable(fh, dim, rows, spans)
    # in file order until one row is usable: one row unless none is
    if not any(table.get(token) is not None for token in list(rows)):
        table._close()
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

    def lookup(key: str) -> int:  # a string not looked up before
        vec = table.get(key)
        index[key] = -1 if vec is None else len(rows)
        if vec is not None:
            rows.append(vec)
        return index[key]

    get = index.get
    for out, seq in zip(ids, seqs):
        surfaces = seq.surfaces
        post = []
        for i, token in enumerate(seq.tokens[:L]):
            found = get(token)
            if found is None:
                found = lookup(token)
            if found < 0 and i < len(surfaces):  # the surface, only when the token has no row
                found = get(surfaces[i])
                if found is None:
                    found = lookup(surfaces[i])
            post.append(found)
        out[L - len(post) :] = post
    return IdBatch(ids, np.array(rows, dtype=np.float64).reshape(len(rows), table.dim))
