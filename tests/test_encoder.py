import json

import numpy as np
import pytest

from synoie import autodiff as ad
from synoie import encoder as enc

from tree_strategies import flat_sentence



@pytest.fixture
def params():
    return enc.EncoderParams.init(vocab_size=6, d_h=4,
                                  rng=np.random.default_rng(0))


@pytest.fixture
def vocab():
    return enc.Vocabulary(["<unk>", "cat", "likes", "toys"])


class TestVocabulary:
    def test_oov_maps_to_unk(self, vocab):
        assert vocab.lookup("zebra") == vocab.unk_id
        assert vocab.lookup("CAT") == vocab.lookup("cat")

    def test_dense_ids(self, vocab):
        assert sorted(vocab.ids.values()) == list(range(len(vocab)))

    def test_from_sentences_lowercases(self, example_sentence):
        v = enc.Vocabulary.from_sentences([example_sentence])
        assert "mary" in v.ids and "Mary" not in v.ids


class TestEmbed:
    def test_indicator_shifts_by_verb_row_difference(self, params, vocab):
        ws = enc.embed(params, enc.word_rows(params, vocab, ["cat", "cat"]),
                       indicator_verb=1)
        diff = ws.data[1] - ws.data[0]
        expected = params.w_verb.data[1] - params.w_verb.data[0]
        np.testing.assert_allclose(diff, expected)

    def test_tied_verb_rows_remove_indicator_effect(self, vocab):
        params = enc.EncoderParams.init(6, 4, np.random.default_rng(1))
        params.w_verb.data[1] = params.w_verb.data[0]
        a = enc.embed(params, enc.word_rows(params, vocab, ["cat", "likes", "toys"]), 1)
        b = enc.embed(params, enc.word_rows(params, vocab, ["cat", "likes", "toys"]), 2)
        for x, y in zip(a.data, b.data):
            np.testing.assert_array_equal(x, y)

    def test_only_indicator_position_gets_row_one(self, params, vocab, example_sentence):
        surfaces = [t.surface for t in example_sentence.tokens]
        ws = enc.embed(params, enc.word_rows(params, vocab, surfaces), indicator_verb=3)
        for i, w in enumerate(ws.data):
            row = 1 if i == 3 else 0
            base = params.w_word.data[vocab.lookup(surfaces[i])]
            np.testing.assert_allclose(w, base + params.w_verb.data[row])


class TestToyEncoder:
    def test_identity_configuration(self, vocab):
        d = 4
        params = enc.EncoderParams.init(6, d, np.random.default_rng(2))
        w_mix = np.zeros((d, 3 * d))
        w_mix[:, d:2 * d] = np.eye(d)
        params.w_mix.data = w_mix
        params.b_mix.data = np.zeros(d)
        params.w_word.data = np.abs(params.w_word.data)  # non-negative inputs
        params.w_verb.data = np.abs(params.w_verb.data)
        te = enc.ToyEncoder(params, vocab)
        ws = enc.embed(params, enc.word_rows(params, vocab, ["cat", "likes"]), 1)
        hs = te.encode(te.base(flat_sentence(["cat", "likes"])), 1)
        for w, h in zip(ws.data, hs.data):
            np.testing.assert_allclose(h, w)

    def test_single_token_uses_zero_padding(self, params, vocab):
        te = enc.ToyEncoder(params, vocab)
        ws = enc.embed(params, enc.word_rows(params, vocab, ["cat"]), 0)
        hs = te.encode(te.base(flat_sentence(["cat"])), 0)
        window = np.concatenate([np.zeros(4), ws.data[0], np.zeros(4)])
        expected = np.maximum(params.w_mix.data @ window + params.b_mix.data, 0)
        np.testing.assert_allclose(hs.data[0], expected)

    def test_output_widths(self, params, vocab, example_sentence):
        te = enc.ToyEncoder(params, vocab)
        hs = te.encode(te.base(example_sentence), 3)
        assert len(hs.data) == len(example_sentence.tokens)
        assert all(h.shape == (4,) for h in hs.data)

    def test_bitwise_reproducible(self, vocab, example_sentence):
        def run():
            params = enc.EncoderParams.init(6, 4, np.random.default_rng(5))
            te = enc.ToyEncoder(params, vocab)
            return te.encode(te.base(example_sentence), 3).data

        np.testing.assert_array_equal(run(), run())

    def test_gradient_flows_to_tables(self, params, vocab):
        te = enc.ToyEncoder(params, vocab)
        hs = te.encode(te.base(flat_sentence(["cat", "likes"])), 0)
        # h_0 . h_1
        ad.masked_sum(ad.matmul(hs, hs, transpose_b=True), [[0, 1], [0, 0]]).backward()
        assert params.w_word.grad is not None
        assert params.w_mix.grad is not None
        assert params.w_verb.grad is not None


class TestPrecomputedEncoder:
    def test_replays_stored_vectors(self, tmp_path, example_sentence):
        n, d = len(example_sentence.tokens), 4
        arr = np.arange(n * d, dtype=float).reshape(n, d)
        p = tmp_path / "vecs.jsonl"
        p.write_text(json.dumps({"sentence_id": 0, "vectors": arr.tolist()}) + "\n")
        pe = enc.PrecomputedEncoder.load(p, 4)
        hs = pe.encode(pe.base(example_sentence, 0), 3)
        np.testing.assert_array_equal(hs.data, arr)

    def test_unknown_sentence(self, tmp_path, example_sentence):
        p = tmp_path / "vecs.jsonl"
        p.write_text(json.dumps({"sentence_id": 0,
                                 "vectors": [[0.0] * 4] * 11}) + "\n")
        pe = enc.PrecomputedEncoder.load(p, 4)
        with pytest.raises(KeyError):
            pe.base(example_sentence, 7)


class TestPrecomputedEncoderRejects:
    @pytest.fixture
    def write(self, tmp_path):
        def write(*records):
            p = tmp_path / "vecs.jsonl"
            p.write_text("".join(json.dumps(r) + "\n" for r in records))
            return p
        return write

    def test_non_finite_vectors(self, write):
        p = write({"sentence_id": 0, "vectors": [[0.0, float("nan")]]})
        with pytest.raises(ValueError, match="finite"):
            enc.PrecomputedEncoder.load(p, 2)

    def test_vectors_not_2d(self, write):
        p = write({"sentence_id": 0, "vectors": [0.0, 1.0]})
        with pytest.raises(ValueError, match="2-D"):
            enc.PrecomputedEncoder.load(p, 2)

    @pytest.mark.parametrize("sid", [1.5, 1.0, True, "1"])
    def test_sentence_id_not_an_integer(self, write, sid):
        p = write({"sentence_id": sid, "vectors": [[0.0, 1.0]]})
        with pytest.raises(ValueError, match="not an integer"):
            enc.PrecomputedEncoder.load(p, 2)

    @pytest.mark.parametrize("line", [[0, [[0.0]]], 5, None])
    def test_line_not_an_object(self, write, line):
        with pytest.raises(ValueError, match="not a JSON object"):
            enc.PrecomputedEncoder.load(write(line), 1)

    def test_vectors_not_numbers(self, write):
        p = write({"sentence_id": 0, "vectors": [[{}]]})
        with pytest.raises(ValueError, match="sentence 0"):
            enc.PrecomputedEncoder.load(p, 2)

    def test_duplicate_sentence_id(self, write):
        p = write({"sentence_id": 0, "vectors": [[0.0, 1.0]]},
                  {"sentence_id": 0, "vectors": [[2.0, 3.0]]})
        with pytest.raises(ValueError, match="duplicate"):
            enc.PrecomputedEncoder.load(p, 2)
