from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synoie import evaluation as ev


def tt(texts, conf=1.0):
    return ev.TupleTexts(texts=texts, confidence=conf)


SVO = {"ARG0": "Mary", "REL": "likes", "ARG1": "plush toys"}


class TestExactMatch:
    def test_identical(self):
        r = ev.exact_match_score([[tt(SVO)]], [[tt(SVO)]])
        assert (r.precision, r.recall, r.f1) == (1.0, 1.0, 1.0)

    def test_one_token_difference_fails(self):
        wrong = dict(SVO, ARG1="plush toy")
        r = ev.exact_match_score([[tt(wrong)]], [[tt(SVO)]])
        assert r.f1 == 0.0

    def test_case_folded(self):
        upper = {k: v.upper() for k, v in SVO.items()}
        r = ev.exact_match_score([[tt(upper)]], [[tt(SVO)]])
        assert r.f1 == 1.0

    def test_role_sets_must_agree(self):
        extra = dict(SVO, ARG2="in the room")
        r = ev.exact_match_score([[tt(extra)]], [[tt(SVO)]])
        assert r.f1 == 0.0

    def test_two_gold_one_correct(self):
        other = dict(SVO, ARG1="the room")
        r = ev.exact_match_score([[tt(SVO)]], [[tt(SVO), tt(other)]])
        assert r.precision == 1.0
        assert r.recall == 0.5
        assert r.f1 == pytest.approx(2 / 3)

    def test_swap_pred_gold_swaps_p_and_r(self):
        pred = [[tt(SVO, 0.9)], [tt(dict(SVO, ARG0="Bob"), 0.7),
                                 tt(dict(SVO, ARG0="Eve"), 0.6)]]
        gold = [[tt(SVO), tt(dict(SVO, REL="sees"))], [tt(dict(SVO, ARG0="Bob"))]]
        a = ev.exact_match_score(pred, gold)
        b = ev.exact_match_score(gold, pred)
        assert a.precision == b.recall
        assert a.recall == b.precision

    def test_order_invariance(self):
        s1 = [tt(SVO, 0.9), tt(dict(SVO, ARG0="Bob"), 0.8)]
        s2 = [tt(dict(SVO, REL="sees"), 0.7)]
        gold1 = [tt(SVO)]
        gold2 = [tt(dict(SVO, REL="sees"))]
        a = ev.exact_match_score([s1, s2], [gold1, gold2])
        b = ev.exact_match_score([s2, s1], [gold2, gold1])
        c = ev.exact_match_score([list(reversed(s1)), s2], [gold1, gold2])
        for x, y in ((a, b), (a, c)):
            assert x.precision == y.precision
            assert x.recall == y.recall
            assert x.auc == y.auc

    def test_unaligned(self):
        with pytest.raises(ev.UnalignedIds):
            ev.exact_match_score([[]], [[], []])

    def test_headline_equals_last_curve_point(self):
        pred = [[tt(SVO, 0.9), tt(dict(SVO, ARG0="X"), 0.3)]]
        gold = [[tt(SVO), tt(dict(SVO, ARG0="Y"))]]
        r = ev.exact_match_score(pred, gold)
        assert r.curve[-1] == (r.recall, r.precision)


class TestPrCurve:
    def test_all_correct_rectangle(self):
        scored = [(0.9, True), (0.8, True), (0.5, True)]
        curve, auc = ev.pr_curve_auc(scored, n_gold=5)
        assert curve[-1] == (3 / 5, 1.0)
        assert auc == pytest.approx(3 / 5)

    def test_single_correct_point(self):
        curve, auc = ev.pr_curve_auc([(0.7, True)], n_gold=4)
        assert curve == [(0.25, 1.0)]
        assert auc == pytest.approx(0.25)

    def test_three_predictions_hand_trapezoid(self):
        # confs 0.9 T, 0.8 F, 0.7 T against 2 gold:
        # points (1/2,1), (1/2,1/2), (1,2/3); area = 1/2 + (1/2+2/3)/2 * 1/2
        curve, auc = ev.pr_curve_auc([(0.9, True), (0.8, False), (0.7, True)], 2)
        assert curve == [(0.5, 1.0), (0.5, 0.5), (1.0, pytest.approx(2 / 3))]
        assert auc == pytest.approx(float(Fraction(1, 2) + Fraction(7, 24)))

    def test_recall_non_decreasing(self):
        rng = np.random.default_rng(0)
        scored = [(float(c), bool(h)) for c, h in
                  zip(rng.random(40), rng.random(40) > 0.5)]
        curve, _ = ev.pr_curve_auc(scored, n_gold=25)
        recalls = [r for r, _ in curve]
        assert recalls == sorted(recalls)

    def test_tied_confidences_grouped(self):
        curve, _ = ev.pr_curve_auc([(0.5, True), (0.5, False)], n_gold=2)
        assert curve == [(0.5, 0.5)]


class TestLexicalMatch:
    def test_identical(self):
        r = ev.lexical_match_score([[tt(SVO)]], [[tt(SVO)]])
        assert (r.precision, r.recall, r.f1) == (1.0, 1.0, 1.0)

    def test_partial_rel_overlap(self):
        pred = {"REL": "likes playing"}
        gold = {"REL": "likes"}
        r = ev.lexical_match_score([[tt(pred)]], [[tt(gold)]])
        assert r.precision == pytest.approx(0.5)
        assert r.recall == pytest.approx(1.0)

    def test_empty_pred(self):
        r = ev.lexical_match_score([[]], [[tt(SVO)]])
        assert (r.precision, r.recall) == (0.0, 0.0)

    def test_args_matched_in_order(self):
        pred = {"REL": "likes", "ARG0": "Mary", "ARG2": "toys"}
        gold = {"REL": "likes", "ARG0": "Mary", "ARG1": "toys"}
        # pred's arg list (ARG0, ARG2) zips against gold's (ARG0, ARG1)
        r = ev.lexical_match_score([[tt(pred)]], [[tt(gold)]])
        assert r.precision == 1.0 and r.recall == 1.0

    def test_greedy_pairs_by_f1(self):
        good = {"REL": "likes", "ARG0": "Mary"}
        ok = {"REL": "likes", "ARG0": "Bob"}
        r = ev.lexical_match_score([[tt(good, 0.9), tt(ok, 0.8)]],
                                   [[tt(good)]])
        # the exact pair wins the single gold; the other pred scores zero
        assert r.recall == 1.0
        assert r.precision == pytest.approx(0.5)

    def test_lexical_not_below_exact_on_same_data(self):
        pred = [[tt(SVO, 0.9)], [tt(dict(SVO, ARG1="plush toy"), 0.8)]]
        gold = [[tt(SVO)], [tt(SVO)]]
        exact = ev.exact_match_score(pred, gold)
        lex = ev.lexical_match_score(pred, gold)
        assert lex.f1 >= exact.f1


class TestBinaryCollapse:
    def test_nary_collapses(self):
        nary = tt({"ARG0": "Mary", "REL": "likes", "ARG1": "toys",
                   "ARG2": "in the room"})
        b = ev.to_binary(nary)
        assert b.texts == {"ARG0": "Mary", "REL": "likes",
                           "ARG1": "toys in the room"}

    def test_binary_mode_scoring(self):
        pred = tt({"ARG0": "Mary", "REL": "likes", "ARG1": "toys",
                   "ARG2": "in the room"})
        gold = tt({"ARG0": "Mary", "REL": "likes",
                   "ARG1": "toys in the room"})
        r = ev.score_tuples([[pred]], [[gold]], mode="exact", binary=True)
        assert r.f1 == 1.0


class TestScoreReportInvariants:
    def test_f1_consistency(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            pred = [[tt(dict(SVO, ARG0=f"p{rng.integers(3)}"),
                        float(rng.random())) for _ in range(rng.integers(0, 3))]
                    for _ in range(n)]
            gold = [[tt(dict(SVO, ARG0=f"p{rng.integers(3)}"))
                     for _ in range(rng.integers(0, 3))] for _ in range(n)]
            r = ev.exact_match_score(pred, gold)
            if r.precision + r.recall > 0:
                assert r.f1 == pytest.approx(
                    2 * r.precision * r.recall / (r.precision + r.recall))
            else:
                assert r.f1 == 0.0


# Random tuple sets over a small vocabulary, so that pred and gold overlap.
_texts = st.dictionaries(
    st.sampled_from(["REL", "ARG0", "ARG1", "ARG2"]),
    st.lists(st.sampled_from(["a", "b", "c", "A"]), min_size=1, max_size=3)
    .map(" ".join), min_size=1, max_size=4)
_tuples = st.builds(ev.TupleTexts, texts=_texts,
                    confidence=st.sampled_from([0.2, 0.5, 0.9, 1.0])
                    | st.floats(0.01, 1.0))
_sentences = st.lists(_tuples, max_size=3)
_modes = st.sampled_from(["exact", "lexical"])


@st.composite
def aligned_sets(draw):
    n = draw(st.integers(1, 4))
    return (draw(st.lists(_sentences, min_size=n, max_size=n)),
            draw(st.lists(_sentences, min_size=n, max_size=n)))


class TestScorerProperties:
    # the trapezoid sum telescopes recall steps, so it may pass 1 by rounding
    SLACK = 1e-12

    @settings(deadline=None, max_examples=150)
    @given(sets=aligned_sets(), mode=_modes, binary=st.booleans())
    def test_scores_are_ratios_and_recall_never_falls(self, sets, mode, binary):
        pred, gold = sets
        r = ev.score_tuples(pred, gold, mode=mode, binary=binary)
        for value in (r.precision, r.recall, r.f1, r.auc):
            assert 0.0 <= value <= 1.0 + self.SLACK
        recalls = [rec for rec, _ in r.curve]
        assert recalls == sorted(recalls)
        assert all(0.0 <= p <= 1.0 for _, p in r.curve)

    @settings(deadline=None, max_examples=150)
    @given(gold=st.lists(_sentences, min_size=1, max_size=4), mode=_modes,
           binary=st.booleans())
    def test_pred_equal_to_gold_scores_one(self, gold, mode, binary):
        if not any(gold):
            gold[0] = [ev.TupleTexts({"REL": "a"})]
        r = ev.score_tuples(gold, gold, mode=mode, binary=binary)
        assert (r.precision, r.recall) == (1.0, 1.0)
