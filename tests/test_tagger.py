import math

import numpy as np
import pytest

from synoie import autodiff as ad
from synoie import tagger
from synoie.corpus import spans_to_bio, tag_inventory

import worked_example as wx


def uniform_probs(tags, p=0.9):
    return [p] * len(tags)


class TestTagLogits:
    def test_zero_weights_give_uniform_distribution(self):
        n_tags = len(tag_inventory(5))
        w = ad.parameter(np.zeros((n_tags, 12)))
        b = ad.parameter(np.zeros(n_tags))
        h = ad.constant(np.random.default_rng(0).normal(size=(1, 12)))
        (lg,) = tagger.tag_logits(h, w, b).data
        ex = np.exp(lg - lg.max())
        np.testing.assert_allclose(ex / ex.sum(), np.full(n_tags, 1 / n_tags))

    def test_tag_set_size(self):
        # O + B/I-REL + B/I per argument role
        assert len(tag_inventory(5)) == 2 + 2 * (5 + 1) + 1

    def test_seeded_reproducibility(self):
        def run():
            rng = np.random.default_rng(4)
            w = ad.parameter(rng.uniform(-0.1, 0.1, (5, 6)))
            b = ad.parameter(np.zeros(5))
            h = ad.constant(rng.normal(size=(3, 6)))
            return tagger.tag_logits(h, w, b).data

        np.testing.assert_array_equal(run(), run())


class TestDecodeBio:
    def test_all_o_gives_none(self):
        tags = ["O"] * 5
        assert tagger.decode_bio(tags, uniform_probs(tags), 1) is None

    def test_plain_sequence(self):
        tags = ["B-ARG0", "I-ARG0", "B-REL", "I-REL", "B-ARG1"]
        t = tagger.decode_bio(tags, uniform_probs(tags), 2)
        assert t.spans == {"ARG0": (0, 1), "REL": (2, 3), "ARG1": (4, 4)}

    def test_stray_i_repaired_to_b(self):
        tags = ["I-REL", "O", "O"]
        t = tagger.decode_bio(tags, uniform_probs(tags), 0)
        assert t.spans == {"REL": (0, 0)}

    def test_mid_sequence_role_switch_repaired(self):
        tags = ["B-ARG0", "I-ARG1", "B-REL"]
        t = tagger.decode_bio(tags, uniform_probs(tags), 2)
        assert t.spans == {"ARG0": (0, 0), "ARG1": (1, 1), "REL": (2, 2)}

    def test_multiple_spans_keep_first(self):
        tags = ["B-REL", "O", "B-REL", "I-REL"]
        t = tagger.decode_bio(tags, uniform_probs(tags), 0)
        assert t.spans == {"REL": (0, 0)}

    def test_no_rel_gives_none(self):
        tags = ["B-ARG0", "I-ARG0", "O"]
        assert tagger.decode_bio(tags, uniform_probs(tags), 0) is None

    def test_confidence_geometric_mean(self):
        tags = ["B-REL", "O", "B-ARG0"]
        probs = [0.9, 0.2, 0.4]  # the O token does not count
        t = tagger.decode_bio(tags, probs, 0)
        assert t.confidence == pytest.approx(math.sqrt(0.9 * 0.4))

    def test_confidence_monotone(self):
        tags = ["B-REL", "I-REL", "B-ARG0", "O"]
        lo = tagger.decode_bio(tags, [0.5, 0.6, 0.7, 0.1], 0).confidence
        hi = tagger.decode_bio(tags, [0.6, 0.7, 0.8, 0.05], 0).confidence
        assert hi > lo

    def test_round_trip_on_well_formed_spans(self):
        rng = np.random.default_rng(0)
        roles = ["ARG0", "REL", "ARG1", "ARG2"]
        for _ in range(50):
            n = int(rng.integers(3, 12))
            chosen = ["REL"] + [r for r in roles if r != "REL"
                                and rng.random() < 0.7]
            chosen = sorted(chosen[:n], key=roles.index)
            starts = sorted(rng.choice(n, size=len(chosen), replace=False).tolist())
            bounds = starts[1:] + [n]
            spans = {}
            for role, s, nxt in zip(chosen, starts, bounds):
                spans[role] = (s, min(nxt - 1, s + int(rng.integers(0, 3))))
            labels = spans_to_bio(spans, n)
            verb = spans["REL"][0]
            decoded = tagger.decode_bio(labels, [0.8] * n, verb)
            assert decoded.spans == spans


class FakeModel:
    """Returns canned tag sequences keyed by indicator verb."""

    def __init__(self, by_verb, n):
        self.by_verb = by_verb
        self.n = n

    def predict(self, sentence, verb, graphs, sentence_id=None):
        tags = self.by_verb.get(verb, ["O"] * self.n)
        return tags, [0.9] * self.n


class TestExtract:
    def test_no_verbs(self, example_sentence):
        import dataclasses

        bare = dataclasses.replace(example_sentence, verbs=[])
        model = FakeModel({}, len(bare.tokens))
        assert tagger.extract(bare, model, graphs=object()) == []

    def test_at_most_one_tuple_per_verb(self, example_sentence):
        n = len(example_sentence.tokens)
        model = FakeModel({3: wx.EXPECTED_BIO_LIKES}, n)
        out = tagger.extract(example_sentence, model, graphs=object())
        assert len(out) == 1
        assert out[0].indicator_verb == 3
        assert out[0].spans["REL"] == (3, 4)

    def test_all_o_verb_contributes_nothing(self, example_sentence):
        model = FakeModel({}, len(example_sentence.tokens))
        assert tagger.extract(example_sentence, model, graphs=object()) == []
