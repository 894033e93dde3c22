"""Porter stemmer, following the original 1980 algorithm definition.

The implementation applies the five classic suffix-stripping steps with
longest-match rule selection inside each step.  Later revisions of the
algorithm (the "don't stem words shorter than 3 letters" guard and the
bli/logi rule changes) are intentionally not applied; this module
reproduces the algorithm as first published.  Expected outputs for a
broad word list are frozen in tests/fixtures/porter_pairs.txt.
"""

import functools

# Stems memoised by ``stem``; a post's vocabulary repeats across posts,
# epochs and members, so a warm cache skips nearly every stemming pass.
STEM_CACHE_SIZE = 1 << 16

_VOWELS = frozenset("aeiou")


def _is_consonant(word: str, i: int) -> bool:
    c = word[i]
    if c in _VOWELS:
        return False
    if c == "y":
        # y is a vowel only when preceded by a consonant
        return True if i == 0 else not _is_consonant(word, i - 1)
    return True


def _measure(stem: str) -> int:
    """Count VC alternations: stem has the form [C](VC)^m[V]."""
    m = 0
    prev_vowel = False
    for i in range(len(stem)):
        if _is_consonant(stem, i):
            if prev_vowel:
                m += 1
            prev_vowel = False
        else:
            prev_vowel = True
    return m


def _contains_vowel(stem: str) -> bool:
    return any(not _is_consonant(stem, i) for i in range(len(stem)))


def _ends_double_consonant(word: str) -> bool:
    return (
        len(word) >= 2
        and word[-1] == word[-2]
        and _is_consonant(word, len(word) - 1)
    )


def _ends_cvc(word: str) -> bool:
    """consonant-vowel-consonant ending where the final consonant is not w, x or y."""
    if len(word) < 3:
        return False
    return (
        _is_consonant(word, len(word) - 3)
        and not _is_consonant(word, len(word) - 2)
        and _is_consonant(word, len(word) - 1)
        and word[-1] not in "wxy"
    )


def _replace_longest(word: str, rules, condition) -> str:
    """Apply the first (longest) matching suffix rule whose condition holds.

    Per the original definition, only the longest matching suffix is
    considered; if its condition fails, no other rule in the step fires.
    Rule lists below are ordered so that any suffix appears before every
    proper suffix of itself.
    """
    for suffix, replacement in rules:
        if word.endswith(suffix):
            stem = word[: -len(suffix)]
            if condition(stem):
                return stem + replacement
            return word
    return word


_STEP2_RULES = [
    ("ational", "ate"),
    ("ization", "ize"),
    ("iveness", "ive"),
    ("fulness", "ful"),
    ("ousness", "ous"),
    ("tional", "tion"),
    ("biliti", "ble"),
    ("entli", "ent"),
    ("ousli", "ous"),
    ("ation", "ate"),
    ("aliti", "al"),
    ("iviti", "ive"),
    ("alism", "al"),
    ("enci", "ence"),
    ("anci", "ance"),
    ("izer", "ize"),
    ("abli", "able"),
    ("alli", "al"),
    ("ator", "ate"),
    ("eli", "e"),
]

_STEP3_RULES = [
    ("icate", "ic"),
    ("ative", ""),
    ("alize", "al"),
    ("iciti", "ic"),
    ("ical", "ic"),
    ("ness", ""),
    ("ful", ""),
]

_STEP4_SUFFIXES = [
    "ement",
    "ance",
    "ence",
    "able",
    "ible",
    "ment",
    "ant",
    "ent",
    "ism",
    "ate",
    "iti",
    "ous",
    "ive",
    "ize",
    "ion",
    "al",
    "er",
    "ic",
    "ou",
]


def _step1a(word: str) -> str:
    if word.endswith("sses"):
        return word[:-2]
    if word.endswith("ies"):
        return word[:-2]
    if word.endswith("ss"):
        return word
    if word.endswith("s"):
        return word[:-1]
    return word


def _step1b(word: str) -> str:
    if word.endswith("eed"):
        if _measure(word[:-3]) > 0:
            return word[:-1]
        return word
    fired = False
    if word.endswith("ed") and _contains_vowel(word[:-2]):
        word = word[:-2]
        fired = True
    elif word.endswith("ing") and _contains_vowel(word[:-3]):
        word = word[:-3]
        fired = True
    if not fired:
        return word
    if word.endswith(("at", "bl", "iz")):
        return word + "e"
    if _ends_double_consonant(word) and word[-1] not in "lsz":
        return word[:-1]
    if _measure(word) == 1 and _ends_cvc(word):
        return word + "e"
    return word


def _step1c(word: str) -> str:
    if word.endswith("y") and _contains_vowel(word[:-1]):
        return word[:-1] + "i"
    return word


def _step2(word: str) -> str:
    return _replace_longest(word, _STEP2_RULES, lambda stem: _measure(stem) > 0)


def _step3(word: str) -> str:
    return _replace_longest(word, _STEP3_RULES, lambda stem: _measure(stem) > 0)


def _step4(word: str) -> str:
    for suffix in _STEP4_SUFFIXES:
        if word.endswith(suffix):
            stem = word[: -len(suffix)]
            if _measure(stem) <= 1:
                return word
            if suffix == "ion" and not stem.endswith(("s", "t")):
                return word
            return stem
    return word


def _step5a(word: str) -> str:
    if word.endswith("e"):
        stem = word[:-1]
        m = _measure(stem)
        if m > 1 or (m == 1 and not _ends_cvc(stem)):
            return stem
    return word


def _step5b(word: str) -> str:
    if _measure(word) > 1 and _ends_double_consonant(word) and word.endswith("l"):
        return word[:-1]
    return word


@functools.lru_cache(maxsize=STEM_CACHE_SIZE)
def stem(word: str) -> str:
    """Return the Porter stem of a lowercase word."""
    if not word:
        return word
    word = _step1a(word)
    word = _step1b(word)
    word = _step1c(word)
    word = _step2(word)
    word = _step3(word)
    word = _step4(word)
    word = _step5a(word)
    word = _step5b(word)
    return word
