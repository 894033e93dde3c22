import re
import unicodedata
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hatenet.text import (
    _EMOJI_RANGES,
    _strip_emoji,
    HASHTAG_SENTINEL,
    MENTION_SENTINEL,
    RawPost,
    normalize,
    preprocess,
    stem,
    tokenize,
)

FIXTURES = Path(__file__).parent / "fixtures"


class TestNormalize:
    def test_empty(self):
        assert normalize("") == ""

    def test_full_example(self):
        # URL deleted, mention and hashtag replaced, lowercased except
        # the sentinel tokens
        out = normalize("@bob check https://t.co/abc #MAGA now")
        assert out == "MENTIONHERE check HASHTAGHERE maga now"

    def test_plain_text_unchanged(self):
        assert normalize("plain words only") == "plain words only"

    def test_url_variants_deleted(self):
        assert normalize("see http://a.b/c.d?x=1 ok") == "see ok"
        assert normalize("go www.example.com now") == "go now"
        assert normalize("HTTPS://SHOUTY.example") == ""

    def test_url_must_start_token(self):
        assert normalize("awww.cool stuff") == "awww.cool stuff"

    def test_emoji_stripped(self):
        assert normalize("nice \U0001F600 day ❤️") == "nice day"

    def test_emoji_regex_matches_range_predicate(self):
        # every code point up to U+1FFFF, each kept or dropped exactly as
        # the per-character range test decides
        every = "".join(map(chr, range(0x20000)))
        kept = "".join(
            ch for ch in every
            if not any(lo <= ord(ch) <= hi for lo, hi in _EMOJI_RANGES)
        )
        assert _strip_emoji(every) == kept

    def test_non_ascii_letters_kept(self):
        assert normalize("café blüht") == "café blüht"

    def test_mention_and_hashtag_sentinels(self):
        assert normalize("@A_1 hi") == f"{MENTION_SENTINEL} hi"
        assert normalize("#Tag_2 hi") == f"{HASHTAG_SENTINEL} tag_2 hi"

    @given(st.text(max_size=200))
    @settings(max_examples=300, deadline=None)
    def test_idempotent(self, text):
        once = normalize(text)
        assert normalize(once) == once

    @given(st.lists(
        st.sampled_from(list("ab @#:/.\U0001F600") + ["http", "www.", "HTTPS://x"]),
        max_size=40,
    ))
    @settings(max_examples=300, deadline=None)
    def test_idempotent_adversarial(self, parts):
        text = "".join(parts)
        once = normalize(text)
        assert normalize(once) == once


class TestTokenize:
    def test_whitespace_split(self):
        assert tokenize("MENTIONHERE check now") == ["MENTIONHERE", "check", "now"]

    def test_clitic_split(self):
        assert tokenize("don't stop") == ["don", "t", "stop"]

    def test_empty(self):
        assert tokenize("") == []

    def test_edge_punctuation_stripped(self):
        assert tokenize("wait... (really?) yes!") == ["wait", "really", "yes"]

    def test_pure_punctuation_dropped(self):
        assert tokenize("a ... b !!") == ["a", "b"]

    def test_internal_hyphen_kept(self):
        assert tokenize("well-known fact") == ["well-known", "fact"]

    @staticmethod
    def char_by_char(word):
        """The rule without shortcuts: strip P*/S* characters from both
        edges one at a time, then split on apostrophes."""
        def edge(ch):
            return unicodedata.category(ch)[0] in ("P", "S")
        start, end = 0, len(word)
        while start < end and edge(word[start]):
            start += 1
        while end > start and edge(word[end - 1]):
            end -= 1
        return [p for p in re.split(r"['’]", word[start:end]) if p]

    @given(st.lists(st.text(alphabet=st.one_of(st.characters(), st.sampled_from("'’a7.!$")),
                            min_size=1, max_size=8), max_size=6))
    @settings(max_examples=500, deadline=None)
    def test_fast_paths_match_char_by_char_rule(self, words):
        text = " ".join(words)
        want = [tok for raw in text.split()
                for tok in ([raw] if raw in (MENTION_SENTINEL, HASHTAG_SENTINEL)
                            else self.char_by_char(raw))]
        assert tokenize(text) == want


class TestStem:
    def test_examples(self):
        assert stem("running") == "run"
        assert stem("caresses") == "caress"

    def test_sentinel_passthrough(self):
        assert stem(MENTION_SENTINEL) == MENTION_SENTINEL
        assert stem(HASHTAG_SENTINEL) == HASHTAG_SENTINEL

    def test_porter_fixture_vocabulary(self):
        pairs = []
        for line in (FIXTURES / "porter_pairs.txt").read_text().splitlines():
            if line.startswith("#") or not line.strip():
                continue
            word, expected = line.split()
            pairs.append((word, expected))
        assert len(pairs) >= 100
        failures = [(w, e, stem(w)) for w, e in pairs if stem(w) != e]
        assert not failures, failures[:10]


class TestPreprocess:
    def test_empty(self):
        assert preprocess(RawPost("")).tokens == []

    def test_mention_and_stemming(self):
        assert preprocess(RawPost("@a RUNNING fast!")).tokens == [
            MENTION_SENTINEL, "run", "fast",
        ]

    def test_hashtag_expansion(self):
        assert preprocess(RawPost("#hats off")).tokens == [
            HASHTAG_SENTINEL, "hat", "off",
        ]

    def test_surfaces_align_with_tokens(self):
        seq = preprocess(RawPost("@a RUNNING fast!"))
        assert seq.surfaces == [MENTION_SENTINEL, "running", "fast"]
        assert len(seq.surfaces) == len(seq.tokens)

    def test_bare_s_token_dropped(self):
        # "boss's" -> [boss, s]; the bare "s" stems to "" and is dropped
        assert preprocess(RawPost("the boss's car")).tokens == ["the", "boss", "car"]

    @given(st.text(max_size=200))
    @settings(max_examples=300, deadline=None)
    def test_no_special_remnants(self, text):
        seq = preprocess(RawPost(text))
        for token in seq.tokens:
            assert token
            assert "#" not in token
            if token != MENTION_SENTINEL:
                assert not re.match(r"@\w", token)
            assert not re.search(r"https?://|www\.", token, re.IGNORECASE)

    def test_deterministic(self):
        post = RawPost("@x some #Tagged http://u.rl running tests \U0001F600")
        first = preprocess(post)
        for _ in range(3):
            again = preprocess(post)
            assert again.tokens == first.tokens
            assert again.surfaces == first.surfaces
