import gc
import json
import logging
import math
import os
import sys
import tempfile
import threading
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hatenet import cli, embeddings
from hatenet.autograd import IdBatch
from hatenet.embeddings import EmbeddingTable, embed, encode, load_table, synthetic_table
from hatenet.errors import EmptyTableError, HatenetError, InputEncodingError
from hatenet.text import TokenSequence

from conftest import separable_corpus


def write_vectors(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


class TestLoadTable:
    def test_basic_readback(self, tmp_path):
        path = write_vectors(tmp_path / "v.txt", [
            "cat 1 2 3 4",
            "dog 5 6 7 8",
            "eel -1 0 0.5 2e-1",
        ])
        table = load_table(path, dim=4)
        assert len(table) == 3
        np.testing.assert_array_equal(table.get("cat"), [1, 2, 3, 4])
        np.testing.assert_array_equal(table.get("eel"), [-1, 0, 0.5, 0.2])

    def test_wrong_arity_line_skipped(self, tmp_path):
        lines = [f"tok{i} 1 2 3 4" for i in range(9)]
        lines.insert(4, "bad 1 2 3")
        path = write_vectors(tmp_path / "v.txt", lines)
        table = load_table(path, dim=4)
        assert len(table) == 9
        assert table.skipped == 1
        assert table.get("bad") is None

    def test_non_numeric_line_skipped(self, tmp_path):
        path = write_vectors(tmp_path / "v.txt", ["ok 1 2", "bad x y"])
        table = load_table(path, dim=2)
        assert len(table) == 1
        assert table.skipped == 1

    def test_empty_file_fatal(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("", encoding="utf-8")
        with pytest.raises(EmptyTableError):
            load_table(str(path), dim=4)

    def test_header_line_tolerated(self, tmp_path):
        path = write_vectors(tmp_path / "v.txt", ["2 3", "cat 1 2 3", "dog 4 5 6"])
        table = load_table(path, dim=3)
        assert len(table) == 2

    def test_duplicates_keep_first(self, tmp_path):
        path = write_vectors(tmp_path / "v.txt", ["cat 1 2", "cat 9 9"])
        table = load_table(path, dim=2)
        np.testing.assert_array_equal(table.get("cat"), [1, 2])

    @pytest.mark.parametrize("header", [[], ["2 2"]])
    def test_byte_order_mark_is_ignored(self, tmp_path, header):
        path = tmp_path / "v.txt"
        path.write_bytes(b"\xef\xbb\xbf" + "\n".join([*header, "hello 1 2", "bye 3 4"]).encode())
        table = load_table(str(path), dim=2)
        np.testing.assert_array_equal(table.get("hello"), [1, 2])
        assert "\ufeffhello" not in table
        assert (len(table), table.skipped) == (2, 0)


def eager_load(path, dim):
    """The loader before rows were parsed lazily: every row parsed at load.

    Returns (vectors, skipped), where skipped lists the line numbers of
    malformed rows; the reference for the lazy table's contract.
    """
    vectors = {}
    skipped = []
    with open(path, encoding="utf-8", errors="replace") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.rstrip("\n").split()
            if not parts:
                continue
            if lineno == 1 and len(parts) <= 2:
                try:
                    [int(p) for p in parts]
                    continue
                except ValueError:
                    pass
            if len(parts) != dim + 1:
                skipped.append(lineno)
                continue
            token = parts[0]
            try:
                vec = np.array([float(p) for p in parts[1:]], dtype=np.float64)
            except ValueError:
                skipped.append(lineno)
                continue
            if not np.isfinite(vec).all():
                skipped.append(lineno)
                continue
            if token not in vectors:
                vectors[token] = vec
    if not vectors:
        raise EmptyTableError(f"no usable vectors in {path}")
    return vectors, skipped


class RowWarnings(logging.Handler):
    """Collects the line numbers of the "<file>:<line>: ..." row warnings."""

    def __init__(self):
        super().__init__()
        self.lines = []

    def emit(self, record):
        if record.msg.startswith("%s:%d:"):
            self.lines.append(record.args[1])


class TestLazyTable:
    def test_good_lookup_does_not_parse_bad_row(self, tmp_path, caplog):
        path = write_vectors(tmp_path / "v.txt", ["ok 1 2", "bad x y", "fine 3 4"])
        with caplog.at_level(logging.WARNING, logger="hatenet.embeddings"):
            table = load_table(path, dim=2)
            np.testing.assert_array_equal(table.get("fine"), [3, 4])
        assert caplog.records == []

    def test_row_warning_fires_once_when_resolved(self, tmp_path, caplog):
        path = write_vectors(tmp_path / "v.txt", ["ok 1 2", "bad x y"])
        table = load_table(path, dim=2)
        with caplog.at_level(logging.WARNING, logger="hatenet.embeddings"):
            assert table.get("bad") is None
            assert table.get("bad") is None
            assert "bad" not in table
        messages = [r.getMessage() for r in caplog.records]
        assert messages == [f"{path}:2: non-numeric vector component; line skipped"]

    def test_non_finite_rows_are_malformed(self, tmp_path, caplog):
        path = write_vectors(tmp_path / "v.txt", [
            "hello 1 2 3 4", "world nan 0 0 0", "low 0 -inf 0 0", "high 0 0 inf 0",
            "big 1e999 0 0 0", "world 5 6 7 8"])
        with caplog.at_level(logging.WARNING, logger="hatenet.embeddings"):
            table = load_table(path, dim=4)
            np.testing.assert_array_equal(table.get("world"), [5, 6, 7, 8])  # a later row
            for token in ("low", "high", "big"):
                assert table.get(token) is None
            assert len(table) == 2
            assert table.skipped == 4
        messages = [r.getMessage() for r in caplog.records]
        assert messages == [f"{path}:{n}: non-finite vector component; line skipped"
                            for n in (2, 3, 4, 5)] + [f"{path}: skipped 4 malformed line(s)"]

    def test_predict_with_non_finite_rows_prints_json(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("".join(f"{p.label}\t{p.text}\n" for p in separable_corpus(8).posts))
        clean = write_vectors(tmp_path / "clean.txt", ["the 1 2 3 4", "sun 0 1 0 0"])
        assert cli.main(["train", "--labeled-lines", str(corpus), "--seq-len", "8", "-k", "2",
                         "--epochs", "1", "--embeddings", clean, "--emb-dim", "4",
                         "--out", str(tmp_path / "run")]) == cli.EXIT_OK
        bad = write_vectors(tmp_path / "bad.txt", [
            "the 1 2 3 4", "sun nan 0 0 0", "day 0 -inf 0 0", "we 0 0 inf 0", "saw 1e999 0 0 0"])
        posts = tmp_path / "posts.txt"
        posts.write_text("the sun\nday we saw\nsaw\n")
        capsys.readouterr()
        assert cli.main(["predict", "--bundle", str(tmp_path / "run"), "--input", str(posts),
                         "--embeddings", bad, "--emb-dim", "4"]) == cli.EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        for line in lines:
            record = json.loads(line, parse_constant=refuse)
            assert all(math.isfinite(p) for p in record["mean_probs"]), line

    def test_malformed_first_duplicate_falls_through(self, tmp_path):
        path = write_vectors(tmp_path / "v.txt", ["cat 1", "dog 3 4", "cat 5 6"])
        table = load_table(path, dim=2)
        np.testing.assert_array_equal(table.get("cat"), [5, 6])
        assert table.skipped == 1
        assert len(table) == 2

    def test_malformed_later_duplicate_counts(self, tmp_path):
        path = write_vectors(tmp_path / "v.txt", ["cat 1 2", "cat x y"])
        table = load_table(path, dim=2)
        np.testing.assert_array_equal(table.get("cat"), [1, 2])
        assert table.skipped == 1
        assert len(table) == 1

    def test_all_malformed_fatal_at_load(self, tmp_path):
        path = write_vectors(tmp_path / "v.txt", ["a 1", "b x y", "c 1 2 3", "a 1 2 3"])
        with pytest.raises(EmptyTableError):
            load_table(path, dim=2)

    def test_crlf_with_header(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_bytes(b"2 2\r\ncat 1 2\r\ndog 3 4\r\n")
        table = load_table(str(path), dim=2)
        np.testing.assert_array_equal(table.get("dog"), [3, 4])
        assert "2" not in table
        assert len(table) == 2
        assert table.skipped == 0

    def test_repeated_get_same_array(self, tmp_path):
        path = write_vectors(tmp_path / "v.txt", ["cat 1 2", "dog 3 4"])
        table = load_table(path, dim=2)
        assert table.get("dog") is table.get("dog")

    def test_threads_share_lazy_rows(self, tmp_path):
        dim = 300
        lines = []
        for i in range(300):
            values = " ".join(str(i + k / 8) for k in range(dim))
            lines.append(f"t{i % 200} {values}" if i % 7 else f"t{i % 200} x {values}")
        path = write_vectors(tmp_path / "v.txt", lines)
        want, want_skipped = eager_load(path, dim)
        table = load_table(path, dim=dim)
        tokens = [f"t{i}" for i in range(210)]
        start = threading.Barrier(8)
        failures = []

        def worker():
            start.wait(timeout=30)
            for token in tokens:
                got = table.get(token)
                if (got is None) != (token not in want) or (
                        got is not None and not np.array_equal(got, want[token])):
                    failures.append(token)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert table.skipped == len(want_skipped)
        assert len(table) == len(want)

    @given(
        dim=st.integers(1, 3),
        rows=st.lists(
            st.tuples(
                st.sampled_from(["blank", "header", "good", "arity", "text"]),
                st.sampled_from(["a", "b", "c", "7", "x"]),
                st.lists(st.sampled_from(["0", "1.5", "-2", "3e-1", "4", "nan", "1e999"]),
                         min_size=3, max_size=3),
                st.sampled_from([" ", "\t", "  ", "\x1f", "\u3000 "]),  # str.split whitespace
                st.sampled_from(["\n", "\r\n", "\r"]),
            ),
            max_size=12,
        ),
        count_first=st.booleans(),
        open_last=st.booleans(),
        chunk=st.sampled_from([1, 2, 3, 7, embeddings._CHUNK]),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_eager_loader(self, dim, rows, count_first, open_last, chunk):
        lines = []
        for kind, token, values, sep, end in rows:
            if kind == "blank":
                fields = ["", ""]
            elif kind == "header":
                fields = ["3", str(dim)] if sep != "\t" else ["12"]
            elif kind == "good":
                fields = [token] + values[:dim]
            elif kind == "arity":
                fields = [token] + values[: dim + 1 if sep == " " else dim - 1]
            else:
                fields = [token] + values[: dim - 1] + ["x1"]
            lines.append(sep.join(fields) + end)
        if open_last and lines:  # a last line with no line end
            lines[-1] = lines[-1].rstrip("\r\n")
        handler = RowWarnings()
        logger = logging.getLogger("hatenet.embeddings")
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(embeddings, "_CHUNK", chunk):  # line ends cut by reads
            path = Path(tmp) / "v.txt"
            path.write_bytes("".join(lines).encode("utf-8"))
            try:
                want, want_skipped = eager_load(str(path), dim)
            except EmptyTableError:
                with pytest.raises(EmptyTableError):
                    load_table(str(path), dim)
                return
            logger.addHandler(handler)
            try:
                table = load_table(str(path), dim)
                if count_first:
                    assert len(table) == len(want)
                    assert table.skipped == len(want_skipped)
                for token in ["a", "b", "c", "7", "x", "3", "12", ""]:
                    got = table.get(token)
                    assert (got is None) == (token not in want)
                    if got is not None:
                        np.testing.assert_array_equal(got, want[token])
                    assert (token in table) == (token in want)
                assert len(table) == len(want)
                assert table.skipped == len(want_skipped)
            finally:
                logger.removeHandler(handler)
        # each malformed row warned once, under its line number
        assert sorted(handler.lines) == want_skipped


class TestFileBackedRows:
    """The table keeps the file open and reads each row's bytes on first
    lookup; these pin what that means for the file and the process."""

    def test_bad_utf8_in_unread_row_fails_at_load(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_bytes(b"cat 1 2\ndog 3 4\ncaf\xe9 5 6\n")
        with pytest.raises(InputEncodingError, match=f"{path} is not UTF-8 text"):
            load_table(str(path), dim=2)

    def test_train_with_bad_utf8_row_exits_3_naming_the_file(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("".join(f"{p.label}\t{p.text}\n" for p in separable_corpus(8).posts))
        vectors = tmp_path / "vectors.txt"
        vectors.write_bytes(b"the 1 2 3 4\n" * 3 + b"zz\xe9 1 2 3 4\n")
        code = cli.main(["train", "--labeled-lines", str(corpus), "--seq-len", "8", "-k", "1",
                         "--epochs", "1", "--embeddings", str(vectors), "--emb-dim", "4",
                         "--out", str(tmp_path / "run")])
        assert code == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert f"{vectors} is not UTF-8 text" in err, err
        assert not (tmp_path / "run").exists()

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_pipe_exits_3_naming_the_file(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("".join(f"{p.label}\t{p.text}\n" for p in separable_corpus(8).posts))
        r, w = os.pipe()
        os.write(w, b"the 1 2 3 4\n")
        os.close(w)  # at end of data, so a loader that reads the pipe cannot block
        try:
            vectors = f"/dev/fd/{r}"
            with pytest.raises(HatenetError, match=f"{vectors} is not a regular file"):
                load_table(vectors, dim=4)
            code = cli.main(["train", "--labeled-lines", str(corpus), "--seq-len", "8",
                             "-k", "1", "--epochs", "1", "--embeddings", vectors,
                             "--emb-dim", "4", "--out", str(tmp_path / "run")])
        finally:
            os.close(r)
        assert code == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert f"{vectors} is not a regular file" in err, err

    def test_rows_served_after_unlink(self, tmp_path):
        path = write_vectors(tmp_path / "v.txt", ["cat 1 2", "dog 3 4", "eel 5 6"])
        table = load_table(path, dim=2)
        os.unlink(path)
        np.testing.assert_array_equal(table.get("eel"), [5, 6])
        assert len(table) == 3 and table.skipped == 0

    def test_rows_served_after_replace_by_rename(self, tmp_path):
        path = write_vectors(tmp_path / "v.txt", ["cat 1 2", "dog 3 4", "eel 5 6"])
        table = load_table(path, dim=2)
        other = write_vectors(tmp_path / "new.txt", ["dog 9 9", "eel 8 8", "cat 7 7"])
        os.replace(other, path)
        np.testing.assert_array_equal(table.get("dog"), [3, 4])
        np.testing.assert_array_equal(table.get("eel"), [5, 6])
        assert len(table) == 3

    @pytest.mark.parametrize("new, line", [
        (b"cat 1 2\ncow 3 4\neel 5 6\n", 2),   # another token on the line
        (b"cat 1 2\ndog 3\n4\neel 5 6\n", 2),  # the line end moved
        (b"cat 1 2\ndog 3 45\neel 5 6\n", 2),  # the line grew
        (b"cat 1 2\ndog 3 4\n", 3),             # the file was cut short
    ])
    def test_row_rewritten_in_place_is_an_error(self, tmp_path, new, line):
        path = write_vectors(tmp_path / "v.txt", ["cat 1 2", "dog 3 4", "eel 5 6"])
        table = load_table(path, dim=2)
        with open(path, "r+b") as fh:
            fh.write(new)
            fh.truncate()
        token = {2: "dog", 3: "eel"}[line]
        with pytest.raises(HatenetError, match=f"{path}:{line}: "):
            table.get(token)
        with pytest.raises(HatenetError, match=f"{path}:{line}: "):
            len(table)

    def test_dropped_tables_close_their_files(self, tmp_path):
        fds = Path("/proc/self/fd")
        if not fds.is_dir():
            pytest.skip("no /proc/self/fd to count descriptors in")
        path = write_vectors(tmp_path / "v.txt", ["cat 1 2", "dog 3 4"])
        gc.collect()
        before = len(os.listdir(fds))
        for _ in range(50):
            table = load_table(path, dim=2)
            assert table.get("dog") is not None
            del table
        with pytest.raises(EmptyTableError):
            load_table(write_vectors(tmp_path / "bad.txt", ["cat 1"]), dim=2)
        gc.collect()
        assert len(os.listdir(fds)) == before

    def test_table_holds_far_less_than_the_file(self, tmp_path):
        rng = np.random.default_rng(0)
        path = tmp_path / "v.txt"
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(2000):
                values = " ".join(f"{x:.4f}" for x in rng.standard_normal(300))
                fh.write(f"tok{i} {values}\n")
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            table = load_table(str(path), dim=300)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert table.get("tok1999") is not None
        assert held < path.stat().st_size / 5, (held, path.stat().st_size)


class TestSyntheticTable:
    def test_deterministic(self):
        a = synthetic_table(7, 16)
        b = synthetic_table(7, 16)
        np.testing.assert_array_equal(a.get("token"), b.get("token"))
        np.testing.assert_array_equal(a.get("token"), a.get("token"))

    def test_distinct_tokens_differ(self):
        table = synthetic_table(0, 8)
        fixture = ["alpha", "beta", "gamma", "delta", "run", "MENTIONHERE"]
        vecs = [table.get(t) for t in fixture]
        for i in range(len(vecs)):
            for j in range(i + 1, len(vecs)):
                assert np.max(np.abs(vecs[i] - vecs[j])) > 1e-6

    def test_seed_changes_vectors(self):
        a = synthetic_table(0, 8)
        b = synthetic_table(1, 8)
        assert np.max(np.abs(a.get("tok") - b.get("tok"))) > 1e-6

    def test_unit_norm(self):
        table = synthetic_table(3, 32)
        for token in ["a", "bb", "ccc", "kind", "of", "words"]:
            assert abs(np.linalg.norm(table.get(token)) - 1.0) <= 1e-6

    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError):
            synthetic_table(0, 0)


class TestEmbed:
    def test_empty_sequence_all_zero(self):
        table = synthetic_table(0, 4)
        matrix = embed(TokenSequence(), table, L=6)
        assert matrix.values.shape == (6, 4)
        assert matrix.n_real == 0
        assert np.abs(matrix.values).sum() == 0.0

    def test_left_padding_and_order(self):
        table = synthetic_table(0, 4)
        seq = TokenSequence(tokens=["a", "b", "c"], surfaces=["a", "b", "c"])
        matrix = embed(seq, table, L=5)
        assert matrix.n_real == 3
        assert np.abs(matrix.values[:2]).sum() == 0.0
        for i, token in enumerate(["a", "b", "c"]):
            np.testing.assert_array_equal(matrix.values[2 + i], table.get(token))

    def test_truncation_keeps_first_tokens(self):
        table = synthetic_table(0, 4)
        tokens = [f"t{i}" for i in range(120)]
        seq = TokenSequence(tokens=tokens, surfaces=tokens)
        matrix = embed(seq, table, L=100)
        assert matrix.n_real == 100
        np.testing.assert_array_equal(matrix.values[0], table.get("t0"))
        np.testing.assert_array_equal(matrix.values[99], table.get("t99"))

    def test_shape_invariant(self):
        table = synthetic_table(0, 3)
        for n in (0, 1, 5, 10, 23):
            tokens = [f"t{i}" for i in range(n)]
            matrix = embed(TokenSequence(tokens, tokens), table, L=10)
            assert matrix.values.shape == (10, 3)
            pad = 10 - matrix.n_real
            assert np.abs(matrix.values[:pad]).sum() == 0.0

    def test_oov_fallback_chain(self):
        table = EmbeddingTable(2, {"running": np.array([1.0, 2.0])}, "mini")
        seq = TokenSequence(tokens=["run", "gone"], surfaces=["running", "goneish"])
        matrix = embed(seq, table, L=2)
        # stem "run" missing, surface "running" present -> surface vector
        np.testing.assert_array_equal(matrix.values[0], [1.0, 2.0])
        # both forms missing -> zero vector
        np.testing.assert_array_equal(matrix.values[1], [0.0, 0.0])

    def test_stemmed_lookup_preferred(self):
        table = EmbeddingTable(
            2, {"run": np.array([3.0, 0.0]), "running": np.array([1.0, 2.0])}, "mini"
        )
        seq = TokenSequence(tokens=["run"], surfaces=["running"])
        matrix = embed(seq, table, L=1)
        np.testing.assert_array_equal(matrix.values[0], [3.0, 0.0])

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            embed(TokenSequence(), synthetic_table(0, 4), L=0)


def reference_encode(seqs, table, L):
    """encode as one loop over (token, surface) keys, one store per token."""
    ids = np.full((len(seqs), L), -1, dtype=np.intp)
    index, rows = {}, []
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


class AskedTable(EmbeddingTable):
    """A dict table that records every key `get` is asked for."""

    def __init__(self, vectors):
        super().__init__(2, vectors, "asked")
        self.asked = []

    def get(self, token):
        self.asked.append(token)
        return super().get(token)


VOCAB = ["run", "running", "cat", "cats", "dog", "dogs", "gone", "zz", "MENTIONHERE"]
HALF = {w: np.array([float(i), -float(i) / 3]) for i, w in enumerate(VOCAB) if i % 2 == 0}
words = st.lists(st.sampled_from(VOCAB), max_size=12)


class TestEncodeAgainstReference:
    """ids, rows and the table lookups, in order, equal the reference's;
    posts run past L, and a post may have fewer surfaces than tokens (its
    extra tokens get a token-only lookup) or more."""

    @given(posts=st.lists(st.tuples(words, words), max_size=6), L=st.integers(1, 8))
    @settings(max_examples=400, deadline=None)
    def test_encode_matches_reference(self, posts, L):
        seqs = [TokenSequence(tokens, surfaces) for tokens, surfaces in posts]
        got_table, want_table = AskedTable(HALF), AskedTable(HALF)
        got, want = encode(seqs, got_table, L), reference_encode(seqs, want_table, L)
        assert got.ids.dtype == want.ids.dtype
        np.testing.assert_array_equal(got.ids, want.ids)
        assert got.rows.shape == want.rows.shape and got.rows.tobytes() == want.rows.tobytes()
        assert got_table.asked == want_table.asked

    def test_fewer_surfaces_than_tokens(self):
        seqs = [TokenSequence(["run", "walk", "cat", "runn", "dogs"], ["running", "walking"]),
                TokenSequence(["gone", "running"], [])]
        got_table, want_table = AskedTable(HALF), AskedTable(HALF)
        got, want = encode(seqs, got_table, 4), reference_encode(seqs, want_table, 4)
        np.testing.assert_array_equal(got.ids, want.ids)
        assert got.rows.tobytes() == want.rows.tobytes()
        assert got_table.asked == want_table.asked == ["run", "walk", "walking", "cat",
                                                       "runn", "gone", "running"]


class TestEncode:
    TABLE = EmbeddingTable(2, {
        "run": np.array([3.0, 0.0]),
        "running": np.array([1.0, 2.0]),
        "cat": np.array([0.5, -1.0]),
        "dogs": np.array([-2.0, 4.0]),
    }, "mini")
    SEQS = [
        # stem hit, surface fallback, no vector, repeated tokens
        TokenSequence(["run", "walk", "gone", "cat", "run"],
                      ["running", "walking", "goneish", "cat", "runs"]),
        TokenSequence(["dog", "runn"], ["dogs", "running"]),  # two fallbacks
        TokenSequence(),                                      # all padding
        TokenSequence(["cat"] * 9, ["cat"] * 9),              # truncated at L
        TokenSequence(["gone", "zzz"], ["goneish", "zz"]),    # only zero vectors
    ]

    @pytest.mark.parametrize("L", [1, 3, 6, 9])
    def test_rows_gathered_by_ids_equal_embed(self, L):
        batch = encode(self.SEQS, self.TABLE, L)
        assert batch.ids.shape == (len(self.SEQS), L)
        assert len(batch) == len(self.SEQS)
        for seq, values in zip(self.SEQS, batch.dense()):
            np.testing.assert_array_equal(values, embed(seq, self.TABLE, L).values)

    def test_one_row_per_distinct_vector(self):
        batch = encode(self.SEQS, self.TABLE, 6)
        # run, cat, dogs, running, in order of first use
        np.testing.assert_array_equal(batch.rows, [[3.0, 0.0], [0.5, -1.0],
                                                   [-2.0, 4.0], [1.0, 2.0]])
        np.testing.assert_array_equal(batch.ids[0], [-1, 0, -1, -1, 1, 0])
        np.testing.assert_array_equal(batch.ids[1], [-1, -1, -1, -1, 2, 3])
        np.testing.assert_array_equal(batch.ids[2], [-1] * 6)
        np.testing.assert_array_equal(batch.ids[4], [-1] * 6)

    def test_no_vectors_gives_no_rows(self):
        batch = encode([TokenSequence(["zzz"], ["zz"]), TokenSequence()], self.TABLE, 3)
        assert batch.rows.shape == (0, 2)
        assert (batch.ids == -1).all()

    def test_reads_only_the_rows_it_uses(self, tmp_path):
        path = write_vectors(tmp_path / "v.txt", ["cat 1 2", "dog 3 4", "eel 5 6"])
        table = load_table(path, dim=2)
        encode([TokenSequence(["dog"], ["dog"])], table, 2)
        assert set(table.vectors) <= {"cat", "dog"}  # "cat" may be the probe row

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            encode([TokenSequence()], synthetic_table(0, 4), L=0)

    @staticmethod
    def assert_same_batch(got, want):
        assert got.ids.dtype == want.ids.dtype and got.ids.shape == want.ids.shape
        np.testing.assert_array_equal(got.ids, want.ids)
        assert got.rows.shape == want.rows.shape
        assert got.rows.tobytes() == want.rows.tobytes()

    @pytest.mark.parametrize("L", [1, 3, 6, 9])
    @pytest.mark.parametrize("index", [[0], [3, 1], [2, 4], [1, 1, 0, 3], [4, 3, 2, 1, 0],
                                       [2, 2], []])
    def test_take_equals_encoding_the_posts_alone(self, L, index):
        whole = encode(self.SEQS, self.TABLE, L)
        self.assert_same_batch(whole.take(index),
                               encode([self.SEQS[i] for i in index], self.TABLE, L))

    def test_take_equals_encode_on_random_batches(self):
        rng = np.random.default_rng(5)
        table = synthetic_table(0, 3)
        vocab = [f"w{i}" for i in range(12)]
        missing = EmbeddingTable(3, {w: table.get(w) for w in vocab[::2]}, "half")
        for _ in range(200):
            seqs = []
            for _ in range(int(rng.integers(1, 7))):
                n = int(rng.integers(0, 10))  # empty posts, and posts cut at L
                tokens = [str(t) for t in rng.choice(vocab, size=n)]
                surfaces = [str(t) for t in rng.choice(vocab, size=n)]
                seqs.append(TokenSequence(tokens, surfaces))
            L = int(rng.integers(1, 8))
            index = rng.integers(0, len(seqs), size=int(rng.integers(0, 9)))  # repeats
            whole = encode(seqs, missing, L)
            self.assert_same_batch(whole.take(index),
                                   encode([seqs[i] for i in index], missing, L))

