"""Normalization, tokenization and stemming for short social-media posts.

The tokenizer rule set is frozen here and in tests/fixtures so behavior
is self-contained: whitespace split, strip leading/trailing punctuation
and symbol characters, split internal apostrophe clitics ("don't" ->
["don", "t"]), drop tokens that become empty.  The two sentinel tokens
MENTIONHERE and HASHTAGHERE are case-preserved and exempt from stemming.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass, field

from . import porter

MENTION_SENTINEL = "MENTIONHERE"
HASHTAG_SENTINEL = "HASHTAGHERE"
_SENTINELS = frozenset({MENTION_SENTINEL, HASHTAG_SENTINEL})

URL_RE = re.compile(r"(?:^|(?<=\s))(?:https?://|www\.)\S*", re.IGNORECASE)
MENTION_RE = re.compile(r"@\w+")
HASHTAG_RE = re.compile(r"#(\w+)")

# Emoji and other pictographic blocks stripped during normalization.
# Non-ASCII letters outside these ranges are kept.
_EMOJI_RANGES = (
    (0x1F000, 0x1FAFF),  # mahjong/domino/cards, pictographs, emoticons,
    #                      transport, supplemental symbols, extended-A
    (0x2600, 0x27BF),    # misc symbols and dingbats
    (0x2B00, 0x2BFF),    # misc symbols and arrows (incl. colored shapes)
    (0xFE00, 0xFE0F),    # variation selectors
    (0x1F1E6, 0x1F1FF),  # regional indicators (flag pairs)
    (0x200D, 0x200D),    # zero-width joiner
    (0x20E3, 0x20E3),    # combining enclosing keycap
    (0x2190, 0x21FF),    # arrows
    (0x2139, 0x2139),    # information source
)


_EMOJI_RE = re.compile(
    "[" + "".join(f"\\U{lo:08x}-\\U{hi:08x}" for lo, hi in _EMOJI_RANGES) + "]"
)


def _strip_emoji(text: str) -> str:
    return _EMOJI_RE.sub("", text)


def normalize(text: str) -> str:
    """Delete URLs and emoji, replace mentions and hashtags by sentinel
    tokens, lowercase everything except the sentinels, collapse whitespace.

    Idempotent: running normalize on its own output is the identity.
    """
    # emoji go first: deleting them later could splice a bare URL together
    text = _strip_emoji(text)
    lowered = text.lower()
    if "http" in lowered or "www." in lowered:  # else URL_RE cannot match
        text = URL_RE.sub(" ", text)
    text = MENTION_RE.sub(f" {MENTION_SENTINEL} ", text)
    text = HASHTAG_RE.sub(lambda m: f" {HASHTAG_SENTINEL} {m.group(1)} ", text)
    # stray markers not followed by word characters are deleted outright
    text = text.replace("@", " ").replace("#", " ")
    # str.split cuts at all Unicode whitespace: \x1c-\x1f, U+00A0, U+3000, ...
    return " ".join([w if w in _SENTINELS else w.lower() for w in text.split()])


@dataclass
class RawPost:
    """One raw post: text, optional class label, opaque source id."""

    text: str
    label: "int | None" = None
    source_id: str = ""


@dataclass
class TokenSequence:
    """Normalized, tokenized, stemmed post.

    ``tokens`` are the stemmed forms; ``surfaces`` the pre-stem forms at
    the same positions (used for embedding-table fallback lookups).
    """

    tokens: list[str] = field(default_factory=list)
    surfaces: list[str] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.tokens)


def _split_clitics(token: str) -> list[str]:
    if "'" not in token and "’" not in token:
        return [token] if token else []
    parts = re.split(r"['’]", token)
    return [p for p in parts if p]


def _is_punct_or_symbol(ch: str) -> bool:
    return unicodedata.category(ch)[0] in ("P", "S")


def _strip_edges(token: str) -> str:
    # a letter or digit (category L* or N*) is never punctuation or a symbol
    if token[:1].isalnum() and token[-1:].isalnum():
        return token
    start, end = 0, len(token)
    while start < end and _is_punct_or_symbol(token[start]):
        start += 1
    while end > start and _is_punct_or_symbol(token[end - 1]):
        end -= 1
    return token[start:end]


def tokenize(text: str) -> list[str]:
    """Split normalized text into word tokens.

    Sentinel tokens pass through untouched; everything else is
    edge-stripped of punctuation/symbols and split on internal
    apostrophes; emptied tokens are dropped.
    """
    out: list[str] = []
    for raw in text.split():
        if raw.isalnum():  # nothing to strip or split; the sentinels are alnum
            out.append(raw)
            continue
        stripped = _strip_edges(raw)
        if not stripped:
            continue
        out.extend(_split_clitics(stripped))
    return out


def stem(token: str) -> str:
    """Porter stem of a lowercase token; sentinels pass through unchanged."""
    if token in _SENTINELS:
        return token
    return porter.stem(token)


def preprocess(post: RawPost) -> TokenSequence:
    """normalize -> tokenize -> stem.  Tokens whose stem is empty (bare
    "s") are dropped to keep every token non-empty."""
    surfaces = tokenize(normalize(post.text))
    tokens, kept = [], []
    for surface in surfaces:
        stemmed = stem(surface)
        if stemmed:
            tokens.append(stemmed)
            kept.append(surface)
    return TokenSequence(tokens=tokens, surfaces=kept)
