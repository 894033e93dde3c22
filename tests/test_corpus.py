import codecs
import logging
from pathlib import Path

import numpy as np
import pytest

from hatenet.corpus import (
    ClassLabel,
    LabeledCorpus,
    SplitSpec,
    combine,
    load_hon,
    load_labeled_lines,
    load_olid,
    load_unlabeled,
    split,
)
from hatenet.errors import CorpusTooSmall, MissingColumn
from hatenet.text import RawPost

FIXTURES = Path(__file__).parent / "fixtures"


def make_corpus(counts, provenance="fix"):
    posts = []
    for label, n in zip(ClassLabel, counts):
        posts.extend(
            RawPost(f"post {label.name} {i}", label=int(label), source_id=f"{label.name}{i}")
            for i in range(n)
        )
    return LabeledCorpus(posts, provenance=provenance)


class TestLoadHon:
    def test_three_row_fixture(self, tmp_path):
        p = tmp_path / "h.csv"
        p.write_text('id,class,tweet\n1,0,"a b"\n2,1,c d\n3,2,e f\n')
        corpus = load_hon(str(p))
        assert corpus.class_counts == (1, 1, 1)
        assert corpus.posts[0].text == "a b"
        assert corpus.provenance == "hon"

    def test_bad_class_code_skipped(self, tmp_path):
        p = tmp_path / "h.csv"
        p.write_text("class,tweet\n7,bad row\n0,fine\n")
        corpus = load_hon(str(p))
        assert len(corpus) == 1
        assert corpus.skipped == 1

    def test_missing_column(self, tmp_path):
        p = tmp_path / "h.csv"
        p.write_text("klass,tweet\n0,x\n")
        with pytest.raises(MissingColumn):
            load_hon(str(p))
        p.write_text("")
        with pytest.raises(MissingColumn):
            load_hon(str(p))

    def test_text_not_mutated(self, tmp_path):
        import csv

        p = tmp_path / "h.csv"
        raw = '@User SHOUTING http://x.y #tag, "quoted" bit'
        with open(p, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["class", "tweet"])
            writer.writerow(["0", raw])
        corpus = load_hon(str(p))
        assert corpus.posts[0].text == raw

    def test_sample_fixture(self):
        corpus = load_hon(str(FIXTURES / "hon_sample.csv"))
        assert corpus.class_counts == (8, 30, 22)
        assert corpus.skipped == 0


class TestLoadOlid:
    def test_mapping_rules(self, tmp_path):
        p = tmp_path / "o.tsv"
        rows = [
            "id\ttweet\tsubtask_a\tsubtask_b\tsubtask_c",
            "1\tgroup targeted\tOFF\tTIN\tGRP",
            "2\tclean\tNOT\tNULL\tNULL",
            "3\tindividual\tOFF\tTIN\tIND",
            "4\tuntargeted\tOFF\tUNT\tNULL",
            "5\tother target\tOFF\tTIN\tOTH",
        ]
        p.write_text("\n".join(rows) + "\n")
        corpus = load_olid(str(p))
        labels = [post.label for post in corpus.posts]
        assert labels == [int(ClassLabel.H), int(ClassLabel.N), int(ClassLabel.O),
                          int(ClassLabel.O), int(ClassLabel.O)]

    def test_mapping_total_over_fixture(self):
        corpus = load_olid(str(FIXTURES / "olid_sample.tsv"))
        assert corpus.skipped == 0
        assert len(corpus) == 10
        assert corpus.class_counts == (3, 3, 4)

    def test_bad_subtask_a_skipped(self, tmp_path):
        p = tmp_path / "o.tsv"
        p.write_text("id\ttweet\tsubtask_a\tsubtask_b\tsubtask_c\n"
                     "1\tx\tMAYBE\tNULL\tNULL\n2\ty\tNOT\tNULL\tNULL\n")
        corpus = load_olid(str(p))
        assert len(corpus) == 1
        assert corpus.skipped == 1

    def test_missing_column(self, tmp_path):
        p = tmp_path / "o.tsv"
        p.write_text("id\ttweet\tsubtask_a\tsubtask_b\n1\tx\tNOT\tNULL\n")
        with pytest.raises(MissingColumn):
            load_olid(str(p))
        p.write_text("")
        with pytest.raises(MissingColumn, match="empty"):
            load_olid(str(p))


class TestCombineAndLines:
    def test_identity_with_single(self):
        a = make_corpus((2, 3, 4))
        out = combine([a])
        assert out.class_counts == (2, 3, 4)
        assert [p.source_id for p in out.posts] == [p.source_id for p in a.posts]

    def test_counts_additive(self):
        a = make_corpus((2, 3, 4), "a")
        b = make_corpus((1, 1, 1), "b")
        out = combine([a, b])
        assert out.class_counts == (3, 4, 5)
        assert out.provenance == "a+b"
        assert len(out) == len(a) + len(b)

    def test_labeled_lines(self, tmp_path):
        p = tmp_path / "lines.txt"
        p.write_text("0\thate text\n1\toffensive text\n\n2\tneither text\nx\tbad\n")
        corpus = load_labeled_lines(str(p))
        assert corpus.class_counts == (1, 1, 1)
        assert corpus.skipped == 1

    def test_load_unlabeled(self, tmp_path):
        p = tmp_path / "u.txt"
        p.write_text("")
        assert load_unlabeled(str(p)) == []
        p.write_text("one\ntwo\nthree\n")
        assert len(load_unlabeled(str(p))) == 3
        p.write_text("one\n\n  \ntwo\n")
        posts = load_unlabeled(str(p))
        assert [x.text for x in posts] == ["one", "two"]
        assert all(x.label is None for x in posts)


def warnings_of(caplog) -> list[tuple[str, str, str]]:
    return [(r.name, r.levelname, r.getMessage()) for r in caplog.records]


def posts_of(posts) -> list[tuple]:
    return [(p.source_id, p.label, p.text) for p in posts]


class TestRowRule:
    """Blank rows and lines pass silently and keep their numbers; a
    malformed row is warned as file:row, counted in ``skipped`` and
    gives no post."""

    def test_hon_rows(self, tmp_path, caplog):
        caplog.set_level(logging.WARNING, logger="hatenet")
        p = tmp_path / "h.csv"
        p.write_text("id,class,tweet\n1,0,a\n\n2,1\n3,7,b\n4, 2 ,c\n")
        corpus = load_hon(str(p))
        assert posts_of(corpus.posts) == [("hon:2", 0, "a"), ("hon:6", 2, "c")]
        assert (corpus.provenance, corpus.skipped) == ("hon", 2)
        assert warnings_of(caplog) == [
            ("hatenet.corpus", "WARNING", f"{p}:4: too few fields; row skipped"),
            ("hatenet.corpus", "WARNING", f"{p}:5: bad class code '7'; row skipped"),
        ]

    @pytest.mark.parametrize("line_end", ["\n", "\r\n"])
    def test_rows_are_numbered_by_the_line_they_start_on(self, tmp_path, caplog, line_end):
        # the record on lines 7-8 holds a quoted line break
        caplog.set_level(logging.WARNING, logger="hatenet")
        p = tmp_path / "h.csv"
        lines = ["id,class,tweet", "1,0,a", "2,1,b", "", "3,2,c", "4,0,d",
                 '5,1,"multi', 'line"', "6,2,e", "7,9,f", "", "8,0,g"]
        p.write_bytes(line_end.join(lines).encode() + b"\n")
        corpus = load_hon(str(p))
        assert [post.source_id for post in corpus.posts] == [
            "hon:2", "hon:3", "hon:5", "hon:6", "hon:7", "hon:9", "hon:12"]
        assert corpus.posts[4].text == f"multi{line_end}line"
        assert warnings_of(caplog) == [
            ("hatenet.corpus", "WARNING", f"{p}:10: bad class code '9'; row skipped")]

    def test_olid_rows(self, tmp_path, caplog):
        caplog.set_level(logging.WARNING, logger="hatenet")
        p = tmp_path / "o.tsv"
        p.write_text("id\ttweet\tsubtask_a\tsubtask_b\tsubtask_c\n"
                     "1\tx\tOFF\tTIN\tGRP\n\n2\ty\tNOT\n3\tz\tmaybe\tNULL\tNULL\n"
                     "4\tw\t off \tUNT\tNULL\n5\tv\tNOT\tNULL\t\n")
        corpus = load_olid(str(p))
        assert posts_of(corpus.posts) == [("olid:2", 0, "x"), ("olid:6", 1, "w"),
                                          ("olid:7", 2, "v")]
        assert all(type(post.label) is int for post in corpus.posts)
        assert (corpus.provenance, corpus.skipped) == ("olid", 2)
        assert warnings_of(caplog) == [
            ("hatenet.corpus", "WARNING", f"{p}:4: too few fields; row skipped"),
            ("hatenet.corpus", "WARNING", f"{p}:5: bad subtask_a 'MAYBE'; row skipped"),
        ]

    def test_labeled_lines(self, tmp_path, caplog):
        caplog.set_level(logging.WARNING, logger="hatenet")
        p = tmp_path / "lines.txt"
        p.write_text("0\ta\n\n  \n9\tb\n1\tc\td\nno tab\n2\t\r\n")
        corpus = load_labeled_lines(str(p))
        assert posts_of(corpus.posts) == [("lines:1", 0, "a"), ("lines:5", 1, "c\td"),
                                          ("lines:7", 2, "")]
        assert (corpus.provenance, corpus.skipped) == ("lines", 2)
        assert warnings_of(caplog) == [
            ("hatenet.corpus", "WARNING", f"{p}:4: bad class code '9'; line skipped"),
            ("hatenet.corpus", "WARNING", f"{p}:6: bad class code 'no tab'; line skipped"),
        ]

    def test_unlabeled_lines(self, tmp_path, caplog):
        caplog.set_level(logging.WARNING, logger="hatenet")
        p = tmp_path / "u.txt"
        p.write_text("one\n\n  \ntwo \r\n\tthree")
        assert posts_of(load_unlabeled(str(p))) == [
            ("unlabeled:1", None, "one"), ("unlabeled:4", None, "two "),
            ("unlabeled:5", None, "\tthree")]
        assert caplog.records == []


@pytest.mark.parametrize("load, content", [
    (load_hon, "class,tweet\n0,a\n1,b\n2,c\n"),
    (load_olid, "subtask_a\tsubtask_c\ttweet\nOFF\tGRP\tx\nNOT\tNULL\ty\n"),
    (load_labeled_lines, "0\ta\n1\tb\n"),
    (load_unlabeled, "hello there\nsecond\n"),
], ids=["hon", "olid", "lines", "unlabeled"])
def test_byte_order_mark_is_ignored(tmp_path, load, content):
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.write_bytes(content.encode("utf-8"))
    marked.write_bytes(codecs.BOM_UTF8 + content.encode("utf-8"))

    def read(path):
        out = load(str(path))
        if isinstance(out, LabeledCorpus):
            return posts_of(out.posts), out.provenance, out.skipped
        return posts_of(out)

    assert read(marked) == read(plain)


class TestSplit:
    def test_exact_sizes_on_multiples_of_ten(self):
        corpus = make_corpus((40, 30, 30))
        train, valid, test = split(corpus, SplitSpec(seed=1))
        assert (len(train), len(valid), len(test)) == (80, 10, 10)

    def test_deterministic_under_seed(self):
        corpus = make_corpus((40, 30, 30))
        a = split(corpus, SplitSpec(seed=7))
        b = split(corpus, SplitSpec(seed=7))
        for part_a, part_b in zip(a, b):
            assert [p.source_id for p in part_a.posts] == [p.source_id for p in part_b.posts]
        c = split(corpus, SplitSpec(seed=8))
        assert any(
            [p.source_id for p in x.posts] != [p.source_id for p in y.posts]
            for x, y in zip(a, c)
        )

    def test_disjoint_exhaustive(self):
        corpus = make_corpus((13, 17, 23))
        parts = split(corpus, SplitSpec(seed=3))
        ids = [frozenset(p.source_id for p in part.posts) for part in parts]
        assert not (ids[0] & ids[1] or ids[0] & ids[2] or ids[1] & ids[2])
        assert ids[0] | ids[1] | ids[2] == {p.source_id for p in corpus.posts}

    def test_stratified_proportions(self):
        corpus = make_corpus((100, 500, 400))
        train, valid, test = split(corpus, SplitSpec(seed=5))
        for part, frac in ((train, 0.8), (valid, 0.1), (test, 0.1)):
            for cls, total in zip(ClassLabel, (100, 500, 400)):
                got = part.class_counts[cls]
                assert abs(got - frac * total) <= 1.0

    def test_too_small_class_rejected(self):
        corpus = make_corpus((2, 5, 5))
        with pytest.raises(CorpusTooSmall):
            split(corpus, SplitSpec(seed=0))
