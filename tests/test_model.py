import numpy as np
import pytest

from synoie import autodiff as ad
from synoie.config import TrainConfig
from synoie.corpus import expand_instances
from synoie.encoder import Vocabulary

from synoie.model import Model
from synoie.synthetic import generate_corpus
from synoie.training import _label_inventories, build_graph_cache


@pytest.fixture(scope="module")
def setup():
    sentences = generate_corpus(8, seed=1)
    cfg = TrainConfig(seed=0, d_h=8, d_l=4)
    cache = build_graph_cache(sentences, cfg.flatten)
    vocab = Vocabulary.from_sentences(sentences)
    dl, cl = _label_inventories(cache, range(len(sentences)))
    return sentences, cfg, cache, vocab, dl, cl


def build(setup, **overrides):
    sentences, cfg, cache, vocab, dl, cl = setup
    cfg = cfg.with_overrides(**overrides) if overrides else cfg
    model = Model(cfg, vocab, dl, cl, np.random.default_rng(0))
    return sentences, cache, model


class TestForward:
    def test_logit_shapes(self, setup):
        sentences, cache, model = build(setup)
        s = sentences[0]
        fwd = model.forward(s, s.verbs[0], cache[0])
        assert fwd.logits.shape == (len(s.tokens), len(model.tags))

    def test_head_width_tracks_views(self, setup):
        _, _, full = build(setup)
        _, _, ctx_only = build(setup, use_dep=False, use_const=False)
        assert full.w_tag.shape[1] == 3 * full.cfg.d_h
        assert ctx_only.w_tag.shape[1] == ctx_only.cfg.d_h

    def test_no_gcn_skips_attention(self, setup):
        sentences, cache, model = build(setup, use_gcn=False)
        s = sentences[0]
        fwd = model.forward(s, s.verbs[0], cache[0])
        assert fwd.alphas_con is None and fwd.alphas_dep is None
        assert fwd.h_con is not None and fwd.h_dep is not None

    def test_context_only_baseline_runs(self, setup):
        # ctx encoder + head only: no graphs, no multi-view terms
        sentences, cache, model = build(
            setup, use_dep=False, use_const=False, use_gcn=False)
        s = sentences[0]
        inst = expand_instances(s)[0]
        parts = model.instance_losses(inst, cache[0], 0)
        assert parts["r1"] is None and parts["r2"] is None and parts["r3"] is None
        assert parts["total"].data.tobytes() == parts["ce"].data.tobytes()

    def test_tied_verb_rows_make_instances_identical(self, setup):
        sentences, cache, model = build(setup)
        model.enc_params.w_verb.data[1] = model.enc_params.w_verb.data[0]
        s = next(s for s in sentences if len(s.verbs) >= 2)
        i = sentences.index(s)
        a = model.forward(s, s.verbs[0], cache[i])
        b = model.forward(s, s.verbs[1], cache[i])
        np.testing.assert_array_equal(a.logits.data, b.logits.data)


class TestInstanceLosses:
    def test_disabled_r_terms_none_and_total_is_ce(self, setup):
        sentences, cache, model = build(setup, use_r1=False, use_r2=False,
                                        use_r3=False)
        inst = expand_instances(sentences[0])[0]
        parts = model.instance_losses(inst, cache[0], 0)
        assert parts["r1"] is None and parts["r2"] is None and parts["r3"] is None
        assert parts["total"].data.tobytes() == parts["ce"].data.tobytes()

    def test_all_terms_present_and_nonnegative(self, setup):
        sentences, cache, model = build(setup)
        inst = expand_instances(sentences[0])[0]
        parts = model.instance_losses(inst, cache[0], 0)
        for key in ("ce", "r1", "r2", "r3"):
            assert parts[key] is not None
            assert float(parts[key].data) >= 0.0
        expected = (float(parts["ce"].data)
                    + 0.024 * float(parts["r1"].data)
                    + 0.012 * float(parts["r2"].data)
                    + 0.012 * float(parts["r3"].data))
        assert float(parts["total"].data) == pytest.approx(expected, rel=1e-12)

    def test_full_loss_gradient_check(self, setup):
        sentences, cache, model = build(setup, d_h=6, d_l=3)
        inst = expand_instances(sentences[1])[0]

        def f(*params):
            return model.instance_losses(inst, cache[1], 1)["total"]

        err = ad.grad_check(f, model.param_tensors(), eps=1e-5)
        assert err < 1e-4


class TestPredict:
    def test_predict_returns_valid_tags(self, setup):
        sentences, cache, model = build(setup)
        s = sentences[0]
        tags, probs = model.predict(s, s.verbs[0], cache[0])
        assert len(tags) == len(probs) == len(s.tokens)
        assert all(t in model.tag_ids for t in tags)
        assert all(0 < p <= 1 for p in probs)

    def test_predict_records_no_graph(self, setup):
        sentences, cache, model = build(setup)
        s = sentences[0]
        model.predict(s, s.verbs[0], cache[0])
        assert all(t.grad is None for t in model.param_tensors())


class TestArraysRoundTrip:
    def test_export_load_identical_forward(self, setup):
        sentences, cache, model = build(setup)
        arrays = model.export_arrays()
        other = Model(model.cfg, model.vocab, model.dep_labels,
                      model.con_labels, np.random.default_rng(99))
        other.load_arrays(arrays)
        s = sentences[0]
        a = model.forward(s, s.verbs[0], cache[0])
        b = other.forward(s, s.verbs[0], cache[0])
        assert a.logits.data.tobytes() == b.logits.data.tobytes()

    def test_missing_tensor_rejected(self, setup):
        _, _, model = build(setup)
        arrays = model.export_arrays()
        arrays.pop("head.w")
        with pytest.raises(KeyError):
            model.load_arrays(arrays)
