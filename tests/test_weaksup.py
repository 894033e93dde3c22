import logging
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hatenet.autograd import Tensor
from hatenet.text import RawPost, TokenSequence, preprocess
from hatenet.weaksup import (
    ClassBounds,
    ClassWeights,
    Lexicon,
    LexiconCounts,
    compute_bounds,
    count_lexicon,
    imbalance_weights,
    load_lexicon,
    weak_label_stats,
    weak_loss,
)

FIXTURES = Path(__file__).parent / "fixtures"


def seq_of(*tokens):
    return TokenSequence(tokens=list(tokens), surfaces=list(tokens))


def loss_value(y, lb, ub, w=(1.0, 1.0, 1.0)):
    bounds = ClassBounds(np.array(lb, dtype=float), np.array(ub, dtype=float))
    return weak_loss(Tensor(np.array(y, dtype=float)), bounds,
                     ClassWeights(np.array(w))).data.item()


class TestLexicon:
    def test_terms_are_stemmed_at_load(self):
        lex = Lexicon(["running"], ["insults"], ["lovely"])
        assert lex.hate_terms == {"run"}
        assert lex.offensive_terms == {"insult"}
        assert lex.positive_terms == {"love"}

    def test_conflicts_resolved_by_priority(self):
        lex = Lexicon(["slur"], ["slur", "rude"], ["slur", "rude", "nice"])
        assert "slur" in lex.hate_terms
        assert lex.offensive_terms == {"rude"}
        assert lex.positive_terms == {"nice"}

    def test_load_from_files(self):
        lex = load_lexicon(
            str(FIXTURES / "lex_hate.txt"),
            str(FIXTURES / "lex_offensive.txt"),
            str(FIXTURES / "lex_positive.txt"),
        )
        assert "wolfsban" in lex.hate_terms  # stem of wolfsbane
        assert not lex.hate_terms & lex.offensive_terms
        assert not lex.hate_terms & lex.positive_terms

    def test_comment_lines_ignored(self, tmp_path):
        for name in ("h", "o", "p"):
            (tmp_path / f"{name}.txt").write_text(
                "# comment\n\n  # indented comment\n Term_" + name + "\t\r\n  \n")
        lex = load_lexicon(*(str(tmp_path / f"{n}.txt") for n in ("h", "o", "p")))
        assert lex.hate_terms == {"term_h"}

    def test_multi_word_lines_are_warned_and_skipped(self, tmp_path, caplog):
        caplog.set_level(logging.WARNING, logger="hatenet")
        path = tmp_path / "hate.txt"
        path.write_text("wolfsbane\n# kill all, a comment\n\nKill  All\nthorn\tbush\nslur \n")
        lex = load_lexicon(str(path), str(FIXTURES / "lex_offensive.txt"),
                           str(FIXTURES / "lex_positive.txt"))
        assert lex.hate_terms == {"wolfsban", "slur"}
        assert count_lexicon(preprocess(RawPost("we kill all of them wolfsbane")), lex).n_h == 1
        assert [(r.name, r.getMessage()) for r in caplog.records] == [
            ("hatenet.weaksup", f"{path}:4: a term is one word, not 'kill  all'; line skipped"),
            ("hatenet.weaksup", f"{path}:5: a term is one word, not 'thorn\\tbush'; line skipped"),
        ]

    def test_byte_order_mark_is_ignored(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_bytes(b"\xef\xbb\xbfwolfsbane\n")
        lex = load_lexicon(str(path), str(path), str(path))
        assert lex.hate_terms == {"wolfsban"}


class TestCountLexicon:
    LEX = Lexicon(["wolfsbane"], ["thornbush"], ["meadowlark", "brook", "sunni"])

    def test_empty(self):
        counts = count_lexicon(seq_of(), self.LEX)
        assert (counts.n, counts.n_h, counts.n_o, counts.n_p) == (0, 0, 0, 0)

    def test_unique_tokens_only(self):
        counts = count_lexicon(seq_of("wolfsban", "b", "wolfsban"), self.LEX)
        assert counts.n == 2
        assert counts.n_h == 1

    def test_ten_token_fixture_matches_set_oracle(self):
        lex = Lexicon(
            ["h1", "h2"], ["o1"], ["p1", "p2", "p3"],
        )
        tokens = ["h1", "h2", "o1", "p1", "p2", "p3", "x1", "x2", "x3", "x4"]
        counts = count_lexicon(seq_of(*tokens), lex)
        unique = set(tokens)
        assert counts.n == len(unique)
        assert counts.n_h == len(unique & lex.hate_terms) == 2
        assert counts.n_o == len(unique & lex.offensive_terms) == 1
        assert counts.n_p == len(unique & lex.positive_terms) == 3


class TestComputeBounds:
    def test_no_evidence_vacuous(self):
        for k in (0.5, 1.0, 4.0):
            bounds = compute_bounds(LexiconCounts(4, 0, 0, 0), k)
            np.testing.assert_array_equal(bounds.lb, [0, 0, 0])
            np.testing.assert_array_equal(bounds.ub, [1, 1, 1])
            assert bounds.is_vacuous()

    def test_empty_post_vacuous(self):
        bounds = compute_bounds(LexiconCounts(0, 0, 0, 0), 1.0)
        np.testing.assert_array_equal(bounds.lb, [0, 0, 0])
        np.testing.assert_array_equal(bounds.ub, [1, 1, 1])

    def test_hate_evidence_fixture(self):
        bounds = compute_bounds(LexiconCounts(4, 2, 0, 0), 1.0)
        assert bounds.lb[0] == 0.5
        assert bounds.ub[0] == 1.0
        assert bounds.lb[2] == 0.0
        assert bounds.ub[2] == 0.5

    def test_scale_clamps(self):
        bounds = compute_bounds(LexiconCounts(2, 2, 0, 0), 2.0)
        assert bounds.lb[0] == 1.0
        assert bounds.ub[0] == 1.0

    def test_mixed_evidence_keeps_order(self):
        # strong hate and strong positive evidence with a large k would
        # cross lb > ub; the invariant forces ub up to lb
        bounds = compute_bounds(LexiconCounts(2, 1, 0, 1), 2.0)
        assert np.all(bounds.lb <= bounds.ub)

    @given(
        n=st.integers(0, 60),
        n_h=st.integers(0, 20),
        n_o=st.integers(0, 20),
        n_p=st.integers(0, 20),
        k=st.floats(0.0, 8.0),
    )
    @settings(max_examples=500, deadline=None)
    def test_invariant_property(self, n, n_h, n_o, n_p, k):
        used = n_h + n_o + n_p
        n = max(n, used)
        bounds = compute_bounds(LexiconCounts(n, n_h, n_o, n_p), k)
        assert np.all(bounds.lb >= 0.0)
        assert np.all(bounds.ub <= 1.0)
        assert np.all(bounds.lb <= bounds.ub)


class TestWeakLoss:
    def test_zero_inside_bounds(self):
        assert loss_value([0.2, 0.5, 0.3], [0, 0, 0], [1, 1, 1]) == 0.0
        assert loss_value([0.5, 0.25, 0.25], [0.5, 0, 0], [1, 1, 0.25]) == 0.0

    def test_violated_lower_bound_fixture(self):
        got = loss_value([0.2, 0.5, 0.3], [0.5, 0, 0], [1, 1, 1])
        assert got == pytest.approx(0.356675, abs=1e-6)
        assert got == pytest.approx(-math.log(0.7), abs=1e-12)

    def test_class_weight_scaling_fixture(self):
        got = loss_value([0.2, 0.5, 0.3], [0.5, 0, 0], [1, 1, 1], w=(4, 1, 1))
        assert got == pytest.approx(1.426700, abs=1e-6)

    def test_upper_bound_violation(self):
        got = loss_value([0.6, 0.2, 0.2], [0, 0, 0], [0.5, 1, 1])
        assert got == pytest.approx(-math.log(0.9), abs=1e-12)

    def test_zero_iff_inside(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            y = rng.dirichlet(np.ones(3))
            lo = rng.uniform(0, 1, 3)
            hi = rng.uniform(0, 1, 3)
            lb, ub = np.minimum(lo, hi), np.maximum(lo, hi)
            inside = bool(np.all(y >= lb) and np.all(y <= ub))
            value = loss_value(y, lb, ub)
            assert (value == 0.0) == inside

    def test_linear_in_weights(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            y = rng.dirichlet(np.ones(3))
            lb = rng.uniform(0, 1, 3)
            ub = np.maximum(rng.uniform(0, 1, 3), lb)
            base = loss_value(y, lb, ub)
            alpha = rng.uniform(0.1, 5.0)
            scaled = loss_value(y, lb, ub, w=(alpha, alpha, alpha))
            assert scaled == pytest.approx(alpha * base, rel=1e-12, abs=1e-15)

    def test_monotone_in_violation_direction(self):
        # below the lower bound the loss falls as y_c rises; above the
        # upper bound it rises with y_c (finite differences)
        lb, ub = [0.5, 0, 0], [1, 1, 0.4]
        h = 1e-6
        for y0 in (0.1, 0.3, 0.45):
            down = loss_value([y0 - h, 0.5, 0.5 - y0 + h], lb, ub)
            up = loss_value([y0 + h, 0.5, 0.5 - y0 - h], lb, ub)
            assert up < down
        for y2 in (0.45, 0.6, 0.9):
            down = loss_value([0.95 - y2 + h, 0.05, y2 - h], lb, ub)
            up = loss_value([0.95 - y2 - h, 0.05, y2 + h], lb, ub)
            assert up > down

    def test_gradient_matches_finite_difference_off_kink(self):
        rng = np.random.default_rng(2)
        checked = 0
        while checked < 25:
            logits = rng.standard_normal(3)
            lo = rng.uniform(0, 0.7, 3)
            hi = rng.uniform(0, 0.7, 3)
            lb, ub = np.minimum(lo, hi), np.maximum(lo, hi) + 0.05
            ub = np.minimum(ub, 1.0)
            e = np.exp(logits - logits.max())
            y = e / e.sum()
            if np.min(np.abs(y - lb)) <= 1e-3 or np.min(np.abs(y - ub)) <= 1e-3:
                continue
            bounds = ClassBounds(lb, ub)
            weights = ClassWeights(rng.uniform(0.5, 2.0, 3))
            t = Tensor(logits)
            weak_loss(t.softmax(), bounds, weights).backward()
            numeric = np.zeros(3)
            h = 1e-6
            for i in range(3):
                for sign, slot in ((1, 0), (-1, 1)):
                    shifted = logits.copy()
                    shifted[i] += sign * h
                    value = weak_loss(
                        Tensor(shifted).softmax(), bounds, weights
                    ).data.item()
                    numeric[i] += sign * value / (2 * h)
            np.testing.assert_allclose(t.grad, numeric, rtol=1e-4, atol=1e-7)
            checked += 1


class TestWeakLabelStats:
    LEX = Lexicon(["wolfsbane"], ["thornbush"], ["meadowlark"])

    def test_empty_corpus(self):
        stats = weak_label_stats([], self.LEX)
        assert stats.n_posts == 0
        assert not stats.any_evidence()

    def test_all_oov_vacuous(self):
        posts = [RawPost("nothing matches here"), RawPost("still nothing")]
        stats = weak_label_stats(posts, self.LEX)
        assert stats.n_posts == 2
        assert not stats.any_evidence()

    def test_fixture_matches_brute_recount(self):
        posts = [
            RawPost("wolfsbane grows here"),
            RawPost("thornbush and wolfsbane"),
            RawPost("a meadowlark sang"),
            RawPost("plain words"),
        ]
        stats = weak_label_stats(posts, self.LEX, k=1.0)
        lower = np.zeros(3, dtype=int)
        upper = np.zeros(3, dtype=int)
        for post in posts:
            bounds = compute_bounds(count_lexicon(preprocess(post), self.LEX), 1.0)
            lower += bounds.lb > 0
            upper += bounds.ub < 1
        np.testing.assert_array_equal(stats.lower_active, lower)
        np.testing.assert_array_equal(stats.upper_active, upper)
        assert stats.any_evidence()

    def test_imbalance_weights(self):
        posts = [RawPost("wolfsbane here")] + [RawPost("a meadowlark sang")] * 9
        stats = weak_label_stats(posts, self.LEX)
        weights = imbalance_weights(stats)
        assert np.all(weights.w > 0)
        assert weights.w.mean() == pytest.approx(1.0)
        assert weights.w[0] > weights.w[2]  # rare hate evidence upweighted


class TestClassWeights:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ClassWeights(np.array([1.0, 0.0, 1.0]))

    def test_uniform_default(self):
        np.testing.assert_array_equal(ClassWeights.uniform().w, [1, 1, 1])
