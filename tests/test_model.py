import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from synoie import autodiff as ad
from synoie import corpus as c
from synoie import gcn, losses, tagger
from synoie import model as model_mod
from synoie.config import TrainConfig
from synoie.corpus import expand_instances, load_corpus
from synoie.encoder import Vocabulary

from synoie.model import Model, SentenceGraphs
from synoie.synthetic import generate_corpus
from synoie.training import _label_inventories, build_graph_cache

from tree_strategies import bracketed_trees, root_is_preterminal

SAMPLE_CORPUS = Path(__file__).resolve().parent.parent / "data" / "sample_corpus.jsonl"


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


class TestTapeSize:
    @staticmethod
    def default_instance_losses():
        sentences = load_corpus(SAMPLE_CORPUS)
        cfg = TrainConfig()
        cache = build_graph_cache(sentences, cfg.flatten)
        dl, cl = _label_inventories(cache, range(len(sentences)))
        model = Model(cfg, Vocabulary.from_sentences(sentences), dl, cl)
        return model.instance_losses(expand_instances(sentences[0])[0], cache[0], 0)

    def test_default_instance_records_45_nodes(self):
        # Guards the op count of one training instance: the encoder (two
        # gathers, the indicator add, the window mix and the marked ReLU),
        # two GCN views of one node each, the head and CE + R1/R2/R3.
        # A change that adds primitives to the per-instance path must update
        # this count on purpose.
        parts = self.default_instance_losses()
        assert len(ad.Tape(parts["total"]).order) == 45

    def test_r2_and_r3_share_their_log_prob_matrices(self, monkeypatch):
        # R1 builds one matrix per view; R2 and R3 read one inter-view pair
        calls = []
        inner = losses.log_prob_matrix

        def counted(h_z, h_other):
            calls.append(h_z.shape)
            return inner(h_z, h_other)

        monkeypatch.setattr(losses, "log_prob_matrix", counted)
        self.default_instance_losses()
        assert len(calls) == 4


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
        other = Model.from_arrays(model.cfg, model.vocab, model.dep_labels,
                                  model.con_labels, arrays)
        s = sentences[0]
        a = model.forward(s, s.verbs[0], cache[0])
        b = other.forward(s, s.verbs[0], cache[0])
        assert a.logits.data.tobytes() == b.logits.data.tobytes()
        # the model holds copies: updating it leaves the arrays alone
        other.w_tag.data += 1.0
        np.testing.assert_array_equal(arrays["head.w"], model.w_tag.data)

    def test_missing_tensor_rejected(self, setup):
        _, _, model = build(setup)
        arrays = model.export_arrays()
        arrays.pop("head.w")
        with pytest.raises(KeyError, match="head.w"):
            Model.from_arrays(model.cfg, model.vocab, model.dep_labels,
                              model.con_labels, arrays)

    @pytest.mark.parametrize("name", ["enc.w_word", "gcn.con.w1", "head.b"])
    def test_wrong_shape_rejected(self, setup, name):
        _, _, model = build(setup)
        arrays = model.export_arrays()
        arrays[name] = arrays[name][:-1]
        with pytest.raises(ValueError, match=name):
            Model.from_arrays(model.cfg, model.vocab, model.dep_labels,
                              model.con_labels, arrays)

    def test_from_arrays_draws_nothing(self, setup, monkeypatch):
        _, _, model = build(setup)
        arrays = model.export_arrays()

        def no_draw(*args, **kwargs):
            raise AssertionError("from_arrays drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        Model.from_arrays(model.cfg, model.vocab, model.dep_labels,
                          model.con_labels, arrays)


class TestMemoryCheck:
    def test_need_is_every_parameter_four_times(self, setup, monkeypatch):
        _, _, model = build(setup)
        need = 4 * 8 * sum(t.data.size for t in model.param_tensors())
        monkeypatch.setattr(model_mod, "physical_memory", lambda: need)
        build(setup)
        monkeypatch.setattr(model_mod, "physical_memory", lambda: need - 1)
        with pytest.raises(ValueError, match="MiB of parameters"):
            build(setup)

    def test_unknown_memory_checks_nothing(self, setup, monkeypatch):
        monkeypatch.setattr(model_mod, "physical_memory", lambda: None)
        build(setup)

    def test_checkpoint_tensors_are_not_checked(self, setup, monkeypatch):
        _, _, model = build(setup)
        monkeypatch.setattr(model_mod, "physical_memory", lambda: 0)
        Model.from_arrays(model.cfg, model.vocab, model.dep_labels,
                          model.con_labels, model.export_arrays())

    @pytest.mark.parametrize("d_h", [1536, 3072, 4096])
    def test_wide_replayed_vectors_are_a_valid_config(self, d_h):
        cfg = TrainConfig(d_h=d_h, encoder_vectors="vectors.jsonl")
        assert TrainConfig.from_dict(cfg.to_dict()) == cfg


SHARED_STATE_CONFIGS = ["default", "no-gcn", "no-dep", "no-const", "vectors"]
DRAWN_ID = 10_000  # the sentence id a drawn sentence's vectors are stored under


@pytest.fixture(scope="module")
def sample_models(tmp_path_factory):
    """The sample corpus, its graphs, and one model per shared-state config."""
    sentences = load_corpus(SAMPLE_CORPUS)
    cfg = TrainConfig(seed=4, d_h=8, d_l=4)
    cache = build_graph_cache(sentences, cfg.flatten)
    vocab = Vocabulary.from_sentences(sentences)
    dl, cl = _label_inventories(cache, range(len(sentences)))
    rng = np.random.default_rng(4)
    vec_path = tmp_path_factory.mktemp("vectors") / "vectors.jsonl"
    vec_path.write_text("".join(
        json.dumps({"sentence_id": i,
                    "vectors": rng.normal(size=(len(s.tokens), 8)).tolist()}) + "\n"
        for i, s in enumerate(sentences)))
    overrides = {"default": {}, "no-gcn": {"use_gcn": False},
                 "no-dep": {"use_dep": False}, "no-const": {"use_const": False},
                 "vectors": {"encoder_vectors": str(vec_path)}}
    models = {name: Model(cfg.with_overrides(**kw), vocab, dl, cl,
                          np.random.default_rng(5))
              for name, kw in overrides.items()}
    return sentences, cache, models


def assert_shared_state_changes_nothing(model, s, graphs, sid):
    """Every verb's predict over one shared state equals, bit for bit, the
    predict that builds its own state."""
    with ad.no_grad():
        state = model.sentence_state(s, graphs, sid)
    for verb in s.verbs:
        tags, probs = model.predict(s, verb, graphs, sid)
        shared_tags, shared_probs = model.predict(s, verb, graphs, sid, state)
        assert shared_tags == tags
        assert np.array(shared_probs).tobytes() == np.array(probs).tobytes()


class TestSentenceState:
    @pytest.mark.parametrize("config", SHARED_STATE_CONFIGS)
    def test_sample_corpus_every_verb(self, sample_models, config):
        sentences, cache, models = sample_models
        for i, s in enumerate(sentences):
            assert_shared_state_changes_nothing(models[config], s, cache[i], i)

    @settings(deadline=None, max_examples=60)
    @given(text=bracketed_trees, config=st.sampled_from(SHARED_STATE_CONFIGS),
           data=st.data())
    def test_drawn_trees_every_token_a_verb(self, sample_models, text, config,
                                            data):
        assume(not root_is_preterminal(text))
        _, _, models = sample_models
        model = models[config]
        tokens = c.tree_leaf_surfaces(text)
        n = len(tokens)
        heads = [-1] + [data.draw(st.integers(0, i - 1)) for i in range(1, n)]
        rels = data.draw(st.lists(st.sampled_from(model.dep_labels.labels + ["new"]),
                                  min_size=n, max_size=n))
        s = c._build_sentence({"tokens": tokens, "const_ptb": text,
                               "dep_conllu": [list(p) for p in zip(heads, rels)],
                               "verbs": list(range(n))}, 1, model.cfg.max_arg)
        if config == "vectors":
            model.encoder.vectors[DRAWN_ID] = np.random.default_rng(n).normal(
                size=(n, model.cfg.d_h))
        assert_shared_state_changes_nothing(
            model, s, SentenceGraphs.build(s, model.cfg.flatten), DRAWN_ID)

    def test_extract_builds_the_shared_half_once(self, sample_models, monkeypatch):
        sentences, cache, models = sample_models
        calls = {"node_label_embed_const": 0, "node_label_embed_dep": 0,
                 "label_projection": 0}
        for name in calls:
            def counted(*args, _inner=getattr(gcn, name), _name=name):
                calls[_name] += 1
                return _inner(*args)
            monkeypatch.setattr(gcn, name, counted)
        i, s = next((i, s) for i, s in enumerate(sentences) if len(s.verbs) >= 2)
        tagger.extract(s, models["default"], cache[i], i)
        assert calls == {"node_label_embed_const": 1, "node_label_embed_dep": 1,
                         "label_projection": 2}

    def test_state_for_other_graphs_rejected(self, sample_models):
        sentences, cache, models = sample_models
        model = models["default"]
        state = model.sentence_state(sentences[0], cache[0], 0)
        with pytest.raises(ValueError, match="other graphs"):
            model.forward(sentences[1], sentences[1].verbs[0], cache[1], 1, state)
        rebuilt = SentenceGraphs.build(sentences[0], model.cfg.flatten)
        with pytest.raises(ValueError, match="other graphs"):
            model.predict(sentences[0], sentences[0].verbs[0], rebuilt, 0, state)
        with pytest.raises(ValueError, match="another sentence id"):
            model.predict(sentences[0], sentences[0].verbs[0], cache[0], 1, state)
