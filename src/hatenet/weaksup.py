"""Lexicon-driven weak supervision: per-post class probability bounds and
the bound-violation loss.

Each post gets a lower and an upper admissible probability per class from
the fraction of its unique tokens found in the hate / offensive / positive
lexicons.  A prediction inside every [lb, ub] interval incurs zero loss;
violations are penalized logarithmically, scaled by tunable per-class
weights.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .autograd import Tensor
from .corpus import N_CLASSES, nonblank_lines
from .errors import ShapeMismatch
from .text import TokenSequence, preprocess, stem

log = logging.getLogger(__name__)

LOSS_EPS = 1e-12


class Lexicon:
    """Three disjoint sets of stemmed single-token terms.

    Terms appearing in more than one input list are kept in the highest-
    priority set only (hate > offensive > positive), with a warning.
    """

    def __init__(self, hate_terms, offensive_terms, positive_terms):
        hate = {stem(t) for t in hate_terms}
        offensive = {stem(t) for t in offensive_terms}
        positive = {stem(t) for t in positive_terms}
        for name, lower in (("offensive", offensive), ("positive", positive)):
            clash = hate & lower
            if clash:
                log.warning("%d %s term(s) also in hate lexicon; kept as hate: %s",
                            len(clash), name, sorted(clash)[:5])
                lower -= clash
        clash = offensive & positive
        if clash:
            log.warning("%d positive term(s) also in offensive lexicon; "
                        "kept as offensive: %s", len(clash), sorted(clash)[:5])
            positive -= clash
        self.hate_terms = frozenset(hate)
        self.offensive_terms = frozenset(offensive)
        self.positive_terms = frozenset(positive)


def _read_terms(path: str) -> list[str]:
    """The lower-cased terms of a one-term-per-line file; ``#`` lines are
    comments.  A line of more than one word, which no token can match, is
    warned as ``path:line`` and skipped."""
    terms = []
    for number, line in nonblank_lines(path):
        term = line.strip().lower()
        if term.startswith("#"):
            continue
        if len(term.split()) > 1:
            log.warning("%s:%d: a term is one word, not %r; line skipped", path, number, term)
            continue
        terms.append(term)
    return terms


def load_lexicon(hate_path: str, offensive_path: str, positive_path: str) -> Lexicon:
    """Read three one-term-per-line files (``#`` comments ignored)."""
    return Lexicon(
        _read_terms(hate_path),
        _read_terms(offensive_path),
        _read_terms(positive_path),
    )


@dataclass
class LexiconCounts:
    n: int    # unique tokens in the post
    n_h: int  # of those, hate terms
    n_o: int  # offensive terms
    n_p: int  # positive terms


def count_lexicon(seq: TokenSequence, lex: Lexicon) -> LexiconCounts:
    """Count over the set of unique stemmed tokens."""
    unique = set(seq.tokens)
    return LexiconCounts(
        n=len(unique),
        n_h=len(unique & lex.hate_terms),
        n_o=len(unique & lex.offensive_terms),
        n_p=len(unique & lex.positive_terms),
    )


@dataclass
class ClassBounds:
    lb: np.ndarray  # shape (3,), order H, O, N
    ub: np.ndarray

    def is_vacuous(self) -> bool:
        return bool(np.all(self.lb == 0.0) and np.all(self.ub == 1.0))


def compute_bounds(counts: LexiconCounts, k: float = 1.0) -> ClassBounds:
    """Per-class probability bounds from lexicon evidence.

    Indicative tokens raise a class's lower bound in proportion to their
    share of the post's unique tokens (scaled by k); counter-indicative
    tokens push the upper bound down.  A post with no tokens gets the
    vacuous bounds [0, 1] everywhere.
    """
    lb = np.zeros(N_CLASSES)
    ub = np.ones(N_CLASSES)
    if counts.n == 0:
        return ClassBounds(lb, ub)
    r_h = counts.n_h / counts.n
    r_o = counts.n_o / counts.n
    r_p = counts.n_p / counts.n
    lb[0] = min(1.0, k * r_h)
    lb[1] = min(1.0, k * r_o)
    lb[2] = min(1.0, k * r_p)
    ub[0] = 1.0 - min(1.0, k * r_p)
    ub[1] = 1.0 - min(1.0, k * r_p)
    ub[2] = 1.0 - min(1.0, k * (r_h + r_o))
    ub = np.maximum(ub, lb)
    return ClassBounds(lb, ub)


@dataclass
class ClassWeights:
    w: np.ndarray

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=np.float64)
        if self.w.shape != (N_CLASSES,) or not np.all(np.isfinite(self.w) & (self.w > 0)):
            raise ValueError(f"class weights must be 3 positive reals, got {self.w}")

    @classmethod
    def uniform(cls) -> "ClassWeights":
        return cls(np.ones(N_CLASSES))


def weak_loss(y: Tensor, bounds, weights: ClassWeights) -> Tensor:
    """Bound-violation loss, averaged over a batch.

    sum_c w_c * (-log(min(1, 1 + y_c - lb_c)) - log(min(1, 1 + ub_c - y_c)))

    ``y`` is a probability vector with one ClassBounds, or (B, 3) rows with
    a sequence of B ClassBounds.  Zero exactly when lb <= y <= ub
    componentwise; log arguments are clamped below at 1e-12.  One node with
    a hand-written backward pass, exact away from the hinge points; a
    clamped or satisfied side gets no gradient.
    """
    if y.data.ndim not in (1, 2):
        raise ShapeMismatch("weak_loss expects a probability vector or (B, 3) rows")
    rows = y.data.reshape(-1, N_CLASSES)
    if isinstance(bounds, ClassBounds):
        bounds = [bounds]
    lb = np.array([b.lb for b in bounds], dtype=np.float64)
    ub = np.array([b.ub for b in bounds], dtype=np.float64)
    if lb.shape != rows.shape or ub.shape != rows.shape:
        raise ShapeMismatch(f"{len(bounds)} bounds for probabilities of shape {y.data.shape}")
    below = np.minimum(rows - lb, 0.0) + 1.0   # min(1, 1 + y - lb)
    above = np.minimum(ub - rows, 0.0) + 1.0   # min(1, 1 + ub - y)
    logs = np.log(np.maximum(below, LOSS_EPS)) + np.log(np.maximum(above, LOSS_EPS))
    scale = 1.0 / len(rows)

    def bwd(g):
        coef = (g * scale) * weights.w
        d_below = np.divide(-coef, below, out=np.zeros_like(rows),
                            where=(rows < lb) & (below > LOSS_EPS))
        d_above = np.divide(coef, above, out=np.zeros_like(rows),
                            where=(ub < rows) & (above > LOSS_EPS))
        y.grad += (d_below + d_above).reshape(y.data.shape)

    losses = -((logs * weights.w).sum(axis=1))
    return Tensor(losses.sum() * scale + 0.0, (y,), bwd)  # + 0.0 turns -0.0 into 0.0


@dataclass
class WeakLabelStats:
    """How often each class's bounds carry actual evidence."""

    n_posts: int
    lower_active: np.ndarray   # posts with lb_c > 0, per class
    upper_active: np.ndarray   # posts with ub_c < 1, per class

    def any_evidence(self) -> bool:
        return bool(self.lower_active.sum() + self.upper_active.sum() > 0)


def weak_label_stats(posts, lex: Lexicon, k: float = 1.0) -> WeakLabelStats:
    lower = np.zeros(N_CLASSES, dtype=np.int64)
    upper = np.zeros(N_CLASSES, dtype=np.int64)
    for post in posts:
        bounds = compute_bounds(count_lexicon(preprocess(post), lex), k)
        lower += bounds.lb > 0.0
        upper += bounds.ub < 1.0
    return WeakLabelStats(len(posts), lower, upper)


def imbalance_weights(stats: WeakLabelStats) -> ClassWeights:
    """Weights inversely proportional to each class's weak-positive rate
    (share of posts with a raised lower bound), normalized to mean 1."""
    if stats.n_posts == 0:
        return ClassWeights.uniform()
    rates = np.maximum(stats.lower_active / stats.n_posts, 1.0 / stats.n_posts)
    w = 1.0 / rates
    return ClassWeights(w * (N_CLASSES / w.sum()))
