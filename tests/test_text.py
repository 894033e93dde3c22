import re
import unicodedata
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hatenet.text import (
    _EMOJI_RANGES,
    _split_clitics,
    _strip_edges,
    _strip_emoji,
    HASHTAG_RE,
    HASHTAG_SENTINEL,
    MENTION_RE,
    MENTION_SENTINEL,
    RawPost,
    URL_RE,
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


# -- the earlier step-by-step normalize and tokenize, as references ------

_SENTINELS = (MENTION_SENTINEL, HASHTAG_SENTINEL)


def reference_normalize(text: str) -> str:
    """normalize with URL_RE on every text and a regex whitespace split."""
    text = _strip_emoji(text)
    text = URL_RE.sub(" ", text)
    text = MENTION_RE.sub(f" {MENTION_SENTINEL} ", text)
    text = HASHTAG_RE.sub(lambda m: f" {HASHTAG_SENTINEL} {m.group(1)} ", text)
    text = text.replace("@", " ").replace("#", " ")
    words = re.split(r"\s+", text.strip())
    return " ".join(w if w in _SENTINELS else w.lower() for w in words if w)


def reference_tokenize(text: str) -> list[str]:
    """tokenize that strips and splits every word but a sentinel."""
    out = []
    for raw in text.split():
        if raw in _SENTINELS:
            out.append(raw)
            continue
        stripped = _strip_edges(raw)
        if stripped:
            out.extend(_split_clitics(stripped))
    return out


# pieces the shortcuts could get wrong: Unicode whitespace (str.split and
# \s), URL prefixes in mixed case and in fullwidth letters (which URL_RE
# does not match), apostrophe clitics, sentinels, markers and emoji
PIECES = [
    " ", "\t", "\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85",
    "\u00a0", "\u2028", "\u3000",
    "http://", "https://", "HtTp://", "HTTPS://", "www.", "WwW.", "wWw", "http", "ftp://",
    "\uff48\uff54\uff54\uff50://", "\uff37\uff37\uff37.", "\uff48ttp://", "htt\uff50s://",
    "don't", "can’t", "’", "'", "s’", MENTION_SENTINEL, HASHTAG_SENTINEL, "mentionhere",
    "@", "#", "@Bob", "#MAGA", "a", "B", "7", "é", "İ", "ſ", "-", ".", "!", "?!", "…",
    "\U0001F600", "\u2764\ufe0f", "\u200d", "\U0001F1FA\U0001F1F8", "\u20e3",
]
texts = st.lists(st.one_of(st.sampled_from(PIECES), st.text(max_size=3)),
                 max_size=30).map("".join)


class TestAgainstReference:
    @given(texts)
    @settings(max_examples=500, deadline=None)
    def test_normalize_matches_reference(self, text):
        assert normalize(text) == reference_normalize(text)

    @given(texts)
    @settings(max_examples=500, deadline=None)
    def test_tokenize_matches_reference(self, text):
        assert tokenize(text) == reference_tokenize(text)
        normalized = reference_normalize(text)
        assert tokenize(normalized) == reference_tokenize(normalized)

    @pytest.mark.parametrize("text", [
        "a\x1cb\x1dc\x1ed\x1fe", "x\u00a0y\u3000z", " \u3000 ", "\x1c",
        "HTTP://A.B c", "see Www.X.y", "\uff48\uff54\uff54\uff50://x.y ok",
        "WWW\uff0ex", "\U0001F600https://x.y", "it’s @A_1 #Tag_2 \u2764\ufe0f",
        "MENTIONHERE HASHTAGHERE", "İstanbul ſtraße",
    ])
    def test_edge_cases_match_reference(self, text):
        assert normalize(text) == reference_normalize(text)
        assert tokenize(text) == reference_tokenize(text)
