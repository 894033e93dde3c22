"""Input generator: writes every benchmark input from a seed.

Outputs (file names in ``spec.FILES``): a text word-vector file, a HON-like
labeled CSV with short tweet-length posts, a Gab-like unlabeled pool of
long posts, labeled Gab-like test lines, a balanced target sample, the
three lexicon files and a K=5 CNN-GRU source bundle.  The same seed and
shape give byte-identical files for a given program version: which forms
of a word the vector file holds follows the program's ``stem`` (pinned by
the repository's frozen fixtures), and the source bundle is written by its
``build`` and ``save_bundle``.  Every size and rate below is an assumption
of this benchmark unless its comment cites a source.

Run alone to write the inputs and print what they are made of:

    python3 perfbench/gen.py --seed 0 --out /tmp/inputs [--shape tiny]
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

import spec

CONSONANTS = "bcdfghjklmnprstvwz"
VOWELS = "aeiou"
SUFFIXES = ("", "s", "ing", "ed", "er", "ly", "ness")
SUFFIX_P = (0.55, 0.15, 0.10, 0.08, 0.05, 0.04, 0.03)
FUNCTION_WORDS = ("the", "a", "you", "to", "and", "is", "i", "my", "that",
                  "this", "so", "lol", "like", "we", "they", "all", "don't",
                  "it's", "can't", "rt")
EMOJI = ("\U0001F602", "\U0001F525", "\U0001F621", "\U0001F44D",
         "❤️", "\U0001F1FA\U0001F1F8", "\U0001F92C")
PUNCT = ("!", "?", ",", "...", "!!", ".", ":")

# root index ranges: HON draws from [0, 1800), Gab from [800, 4800);
# lexicon terms come from the shared [800, 1800)
HON_ROOTS = (0, 1800)
GAB_ROOTS = (800, 4800)
LEX_ROOTS = (800, 1800)
LEX_SIZES = (40, 80, 120)  # hate, offensive, positive
# per-root table coverage: (stem present, only surface forms present, absent)
HON_COVERAGE = (0.95, 0.03, 0.02)
GAB_COVERAGE = (0.55, 0.15, 0.30)
UNLABELED_MIX = (0.2, 0.3, 0.5)


def _words(rng: np.random.Generator, n: int, taken: set) -> list[str]:
    """n new pronounceable lowercase words of 2 or 3 syllables."""
    out: list[str] = []
    while len(out) < n:
        batch = 2 * (n - len(out)) + 16
        sylls = rng.integers(2, 4, size=batch)
        cons = rng.integers(0, len(CONSONANTS), size=(batch, 3, 2))
        vows = rng.integers(0, len(VOWELS), size=(batch, 3))
        coda = rng.random((batch, 3)) < 0.4
        for b in range(batch):
            word = "".join(
                CONSONANTS[cons[b, s, 0]] + VOWELS[vows[b, s]]
                + (CONSONANTS[cons[b, s, 1]] if coda[b, s] else "")
                for s in range(sylls[b])
            )
            if word not in taken:
                taken.add(word)
                out.append(word)
                if len(out) == n:
                    break
    return out


def _zipf(n: int) -> np.ndarray:
    p = 1.0 / (np.arange(n) + 10.0)
    return p / p.sum()


class _Text:
    """Draws post texts from a root range with lexicon terms per class."""

    def __init__(self, rng, roots, lo, hi, lexicon_roots):
        self.rng = rng
        self.roots = [roots[i] for i in rng.permutation(np.arange(lo, hi))]
        self.p = _zipf(hi - lo)
        self.lex = lexicon_roots  # hate, offensive, positive root lists

    def word(self) -> str:
        rng = self.rng
        if rng.random() < 0.25:
            return FUNCTION_WORDS[rng.integers(len(FUNCTION_WORDS))]
        root = self.roots[rng.choice(len(self.roots), p=self.p)]
        return root + SUFFIXES[rng.choice(len(SUFFIXES), p=SUFFIX_P)]

    def lexicon_terms(self, label: int, n_words: int) -> list[str]:
        rng = self.rng
        rate = max(1, int(round(n_words * 0.04)))
        if label == 0:
            terms = [self._term(0) for _ in range(rng.integers(1, rate + 2))]
            terms += [self._term(1) for _ in range(rng.integers(0, 2))]
        elif label == 1:
            terms = [self._term(1) for _ in range(rng.integers(1, rate + 1))]
        else:
            terms = [self._term(2) for _ in range(rng.integers(0, rate + 1))]
            if rng.random() < 0.1:
                terms.append(self._term(1))
        return terms

    def _term(self, c: int) -> str:
        roots = self.lex[c]
        return roots[self.rng.integers(len(roots))] + ("s" if self.rng.random() < 0.2 else "")

    def handle(self) -> str:
        return self.roots[self.rng.integers(len(self.roots))] + str(self.rng.integers(100))

    def url(self, host: str) -> str:
        tail = "".join(CONSONANTS[i] for i in self.rng.integers(0, len(CONSONANTS), 10))
        return f"{host}{tail}"

    def post(self, label: int, n_words: int, long_form: bool) -> str:
        rng = self.rng
        words = [self.word() for _ in range(n_words)]
        for term in self.lexicon_terms(label, n_words):
            words.insert(int(rng.integers(len(words) + 1)), term)
        for i in range(len(words)):
            r = rng.random()
            if r < 0.12:
                words[i] += PUNCT[rng.integers(len(PUNCT))]
            elif r < 0.17:
                words[i] = words[i].capitalize()
            elif r < 0.18:
                words[i] = words[i].upper()
        extras = []
        if long_form:
            for _ in range(rng.integers(0, 4) if rng.random() < 0.5 else 0):
                extras.append("@" + self.handle())
            for _ in range(rng.integers(1, 4) if rng.random() < 0.4 else 0):
                extras.append("#" + self.roots[rng.integers(len(self.roots))])
            for _ in range(rng.integers(1, 3) if rng.random() < 0.4 else 0):
                extras.append(self.url("https://gab.com/" if rng.random() < 0.5 else "www.example.com/"))
            for _ in range(rng.integers(1, 5) if rng.random() < 0.4 else 0):
                extras.append(EMOJI[rng.integers(len(EMOJI))])
        else:
            if rng.random() < 0.2:
                extras.append("@" + self.handle())
            if rng.random() < 0.1:
                extras.append("#" + self.roots[rng.integers(len(self.roots))])
            if rng.random() < 0.15:
                extras.append(self.url("http://t.co/"))
            if rng.random() < 0.1:
                extras.append('"' + EMOJI[rng.integers(len(EMOJI))] + '"')
        for extra in extras:
            pos = int(rng.integers(len(words) + 1))
            if extra in EMOJI and words and rng.random() < 0.5:
                words[min(pos, len(words) - 1)] += extra  # emoji glued to a word
            else:
                words.insert(pos, extra)
        text = " ".join(words)
        if not long_form and rng.random() < 0.3:
            text = f"RT @{self.handle()}: {text}"
        return text


def _exact_labels(rng, n: int, mix) -> list[int]:
    counts = [int(round(n * f)) for f in mix]
    counts[int(np.argmax(mix))] += n - sum(counts)
    labels = [c for c, k in enumerate(counts) for _ in range(k)]
    return [labels[i] for i in rng.permutation(n)]


def _write_vectors(path: Path, rng, tokens: list[str], dim: int) -> None:
    """Text vector file with a ``count dim`` header, 4-decimal components."""
    lut = np.array([f"{k / 10000:.4f}" for k in range(-9999, 10000)], dtype=object)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(tokens)} {dim}\n")
        for start in range(0, len(tokens), 2000):
            chunk = tokens[start:start + 2000]
            ints = np.clip(np.rint(rng.standard_normal((len(chunk), dim)) * 2500),
                           -9999, 9999).astype(np.int64) + 9999
            cells = lut[ints]
            fh.write("".join(
                tok + " " + " ".join(row) + "\n" for tok, row in zip(chunk, cells.tolist())
            ))


def generate(hn, seed: int, shape: str, out: Path) -> None:
    """Write every input for ``seed`` and ``shape`` into ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 2011])
    dim = spec.SHAPES[shape]["emb_dim"]
    taken = set(FUNCTION_WORDS)
    roots = _words(rng, GAB_ROOTS[1], taken)

    lex_pool = [roots[i] for i in rng.permutation(np.arange(*LEX_ROOTS))]
    lexicon_roots, start = [], 0
    for size in LEX_SIZES:
        lexicon_roots.append(lex_pool[start:start + size])
        start += size
    for name, terms in zip(("lex_hate", "lex_offensive", "lex_positive"), lexicon_roots):
        (out / spec.FILES[name]).write_text(
            "# generated lexicon, one term per line\n" + "\n".join(terms) + "\n",
            encoding="utf-8")

    # table: per-root coverage class, then filler words no corpus uses
    table: dict[str, None] = {}
    for token in hn.preprocess(hn.RawPost(" ".join(FUNCTION_WORDS))).tokens:
        table[token] = None
    table["MENTIONHERE"] = table["HASHTAGHERE"] = None
    for i, root in enumerate(roots):
        coverage = HON_COVERAGE if i < HON_ROOTS[1] else GAB_COVERAGE
        kind = rng.choice(3, p=coverage)
        for form in (root + s for s in SUFFIXES):
            stemmed = hn.stem(form)
            if kind == 0:
                table[stemmed] = None
            elif kind == 1 and form != stemmed:
                table[form] = None
    filler = max(0, spec.TABLE_ROWS[shape] - len(table))
    for word in _words(rng, filler, taken | set(table)):
        table[word] = None
    tokens = list(table)
    tokens = [tokens[i] for i in rng.permutation(len(tokens))]
    _write_vectors(out / spec.FILES["vectors"], rng, tokens, dim)

    hon = _Text(rng, roots, *HON_ROOTS, lexicon_roots)
    with open(out / spec.FILES["hon"], "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["", "count", "hate_speech", "offensive_language", "neither",
                         "class", "tweet"])
        for i, label in enumerate(_exact_labels(rng, spec.HON_POSTS, spec.HON_MIX)):
            votes = [0, 0, 0]
            votes[label] = 3
            n_words = int(np.clip(3 + rng.poisson(11), 3, 33))
            writer.writerow([i, 3, *votes, label, hon.post(label, n_words, False)])

    gab = _Text(rng, roots, *GAB_ROOTS, lexicon_roots)

    def gab_post(label):
        n_words = int(np.clip(rng.lognormal(np.log(70), 0.6), 5, 260))
        return gab.post(label, n_words, True)

    n_pool = spec.GAB_TRAIN + spec.GAB_VALID + spec.GAB_STREAM
    with open(out / spec.FILES["gab_pool"], "w", encoding="utf-8") as fh:
        for label in _exact_labels(rng, n_pool, UNLABELED_MIX):
            fh.write(gab_post(label) + "\n")
    with open(out / spec.FILES["gab_test"], "w", encoding="utf-8") as fh:
        for label in _exact_labels(rng, spec.GAB_TEST, spec.GAB_TEST_MIX):
            fh.write(f"{label}\t{gab_post(label)}\n")
    with open(out / spec.FILES["target"], "w", encoding="utf-8") as fh:
        for label in _exact_labels(rng, 3 * spec.TARGET_PER_CLASS, (1 / 3, 1 / 3, 1 / 3)):
            fh.write(f"{label}\t{gab_post(label)}\n")

    topo = spec.topology(hn, shape, "gru")
    members = [hn.build(topo, 1000 * seed + i) for i in range(spec.TRANSFER_K)]
    bundle = hn.EnsembleBundle(
        members=members,
        topology=topo,
        fingerprint={"embedding": spec.FILES["vectors"], "dim": dim,
                     "seq_len": topo.seq_len},
        provenance={"loss_mode": "supervised", "seed": seed, "epochs": 0,
                    "ensemble_size": spec.TRANSFER_K},
    )
    hn.save_bundle(bundle, out / spec.FILES["bundle"])


def describe(hn, out: Path, shape: str) -> dict:
    """What the inputs are made of, measured through the text pipeline."""
    L = spec.SHAPES[shape]["seq_len"]
    with open(out / spec.FILES["vectors"], encoding="utf-8") as fh:
        next(fh)
        vocab = {line.split(" ", 1)[0] for line in fh}
    lex = hn.load_lexicon(*(str(out / spec.FILES[k])
                            for k in ("lex_hate", "lex_offensive", "lex_positive")))

    def stats(posts):
        hits = {"stem": 0, "surface": 0, "zero": 0}
        lengths, evidence = [], 0
        for post in posts:
            seq = hn.preprocess(post)
            lengths.append(len(seq))
            for tok, surf in zip(seq.tokens[:L], seq.surfaces[:L]):
                hits["stem" if tok in vocab else "surface" if surf in vocab else "zero"] += 1
            if not hn.compute_bounds(hn.count_lexicon(seq, lex)).is_vacuous():
                evidence += 1
        total = sum(hits.values())
        return {
            "posts": len(posts),
            "tokens_median": float(np.median(lengths)),
            "tokens_max": int(max(lengths)),
            "truncated_share": float(np.mean([n > L for n in lengths])),
            "stem_hit": hits["stem"] / total,
            "surface_fallback": hits["surface"] / total,
            "zero_vector": hits["zero"] / total,
            "lexicon_evidence_share": evidence / len(posts),
        }

    hon = hn.corpus.load_hon(str(out / spec.FILES["hon"]))
    return {
        "table_rows": len(vocab),
        "hon": {**stats(hon.posts), "class_counts": hon.class_counts},
        "gab_pool": stats(hn.corpus.load_unlabeled(str(out / spec.FILES["gab_pool"]))),
        "gab_test": stats(hn.corpus.load_labeled_lines(str(out / spec.FILES["gab_test"])).posts),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--shape", choices=sorted(spec.SHAPES), default="paper")
    args = parser.parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    import hatenet as hn

    generate(hn, args.seed, args.shape, Path(args.out))
    print(json.dumps(describe(hn, Path(args.out), args.shape), indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
