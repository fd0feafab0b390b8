import dataclasses
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from synoie import autodiff as ad
from synoie import corpus as c
from synoie import gcn, losses, tagger
from synoie import model as model_mod
from synoie.cli import ablation_grid
from synoie.config import TrainConfig
from synoie.corpus import expand_instances, load_corpus
from synoie.encoder import Vocabulary
from synoie.gcn import LabelVocab

from synoie import training as training_mod
from synoie.model import Model, SentenceGraphs, chunk_batch
from synoie.synthetic import generate_corpus
from synoie.training import _label_inventories, build_graph_cache, train

from tree_strategies import (bracketed_trees, flat_sentence, root_is_preterminal,
                             tree_leaf_surfaces)

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
        assert fwd.logits.shape == (len(s.tokens), len(c.TAGS))

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
        assert parts["total"].data.tobytes() == np.float64(parts["ce"]).tobytes()

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
        assert parts["total"].data.tobytes() == np.float64(parts["ce"]).tobytes()

    def test_zero_weights_run_no_r_loss(self, setup, monkeypatch):
        # the model decides which R losses run: none with a zero weight, so
        # no Gram of the view states either
        sentences, cache, model = build(setup, weights=losses.LossWeights(0.0, 0.0, 0.0))
        monkeypatch.setattr(losses, "view_gram",
                            lambda states: pytest.fail("a Gram that no loss reads"))
        inst = expand_instances(sentences[0])[0]
        parts = model.instance_losses(inst, cache[0], 0)
        assert parts["r1"] is None and parts["r2"] is None and parts["r3"] is None
        assert parts["total"].data.tobytes() == np.float64(parts["ce"]).tobytes()

    def test_all_terms_present_and_nonnegative(self, setup):
        sentences, cache, model = build(setup)
        inst = expand_instances(sentences[0])[0]
        parts = model.instance_losses(inst, cache[0], 0)
        for key in ("ce", "r1", "r2", "r3"):
            assert parts[key] is not None
            assert parts[key] >= 0.0
        expected = (parts["ce"] + 0.024 * parts["r1"] + 0.012 * parts["r2"]
                    + 0.012 * parts["r3"])
        assert float(parts["total"].data) == pytest.approx(expected, rel=1e-12)

    def test_full_loss_gradient_check(self, setup):
        sentences, cache, model = build(setup, d_h=6, d_l=3)
        inst = expand_instances(sentences[1])[0]

        def f(*params):
            return model.instance_losses(inst, cache[1], 1)["total"]

        err = ad.grad_check(f, list(model.params.values()), eps=1e-5)
        assert err < 1e-4

    def test_given_target_changes_nothing(self, setup):
        sentences, cache, model = build(setup)
        for inst in expand_instances(sentences[0]):
            target = model.ce_target(inst)
            own = model.instance_losses(inst, cache[0], 0)
            given = model.instance_losses(inst, cache[0], 0, target=target)
            assert given.terms[0][1] is target[1]
            assert given["gold_ids"] == own["gold_ids"] == target[0]
            assert given["total"].data.tobytes() == own["total"].data.tobytes()

    def test_given_state_changes_nothing(self, setup):
        sentences, cache, model = build(setup)
        i, s = next((i, s) for i, s in enumerate(sentences) if len(s.verbs) >= 2)
        state = model.sentence_states([s], [cache[i]], [i])[0]
        for inst in expand_instances(s):
            own = model.instance_losses(inst, cache[i], i)
            shared = model.instance_losses(inst, cache[i], i, state=state)
            assert shared["total"].data.tobytes() == own["total"].data.tobytes()
            for key in ("ce", "r1", "r2", "r3"):
                assert np.float64(shared[key]).tobytes() == np.float64(own[key]).tobytes()


def default_instance_losses():
    """The loss parts of the first instance of the sample corpus under the
    default config."""
    sentences = load_corpus(SAMPLE_CORPUS)
    cfg = TrainConfig()
    cache = build_graph_cache(sentences, cfg.flatten)
    dl, cl = _label_inventories(cache, range(len(sentences)))
    model = Model(cfg, Vocabulary.from_sentences(sentences), dl, cl)
    return model.instance_losses(expand_instances(sentences[0])[0], cache[0], 0)


class TestTapeSize:
    def test_default_instance_records_24_nodes(self):
        # Guards the op count of one training instance: 12 parameter leaves,
        # then the encoder (the unmarked window mix over the gathered word
        # rows, and the marked ReLU), the label embeddings and projections of
        # both views, two GCN views of one node each, their concatenation,
        # the head, the row stack of the two view states that R1-R3 read,
        # and one ``masked_nll`` node for CE and the weighted R1, R2 and R3
        # together.  A change that adds primitives to the per-instance
        # path must update this count on purpose.
        parts = default_instance_losses()
        assert len(ad.Tape(parts["total"]).order) == 24

    def test_every_recorded_node_is_on_the_tape(self, monkeypatch):
        # the losses record no node of their own: the instance makes one
        # ``masked_nll`` node, over CE's mask and one R mask built once
        recorded, calls = [], []
        record = ad._record

        def recording(out, parents, backward):
            recorded.append(record(out, parents, backward))
            return recorded[-1]

        monkeypatch.setattr(ad, "_record", recording)
        for owner, name in ((ad, "masked_nll"), (losses, "r_mask")):
            def counted(*args, _inner=getattr(owner, name), _name=name):
                calls.append(_name)
                return _inner(*args)
            monkeypatch.setattr(owner, name, counted)
        parts = default_instance_losses()
        on_tape = {id(t) for t in ad.Tape(parts["total"]).order}
        assert [t for t in recorded if t.requires_grad and id(t) not in on_tape] == []
        assert sorted(calls) == ["masked_nll", "r_mask"]

    def test_every_node_a_batch_records_is_on_its_tape(self, monkeypatch):
        # one training batch: its sentences' states record one encoder base
        # node and, per view, one label embedding and one projection node;
        # each chunk of its instances records one forward over their row
        # stack, with one attention node per view, and row blocks of its
        # logits and view states per instance; the batch records one
        # ``masked_nll`` node over all of the instances' masks, the node
        # that ``train`` walks backward
        recorded, nll_nodes, walked, chunked = [], [], [], []
        record, nll, backward = ad._record, ad.masked_nll, ad.Tensor.backward
        built = {"window_linear": 0, "node_label_embed_const": 0,
                 "node_label_embed_dep": 0, "label_projection": 0}
        for owner, name in ((ad, "window_linear"), (gcn, "node_label_embed_const"),
                            (gcn, "node_label_embed_dep"), (gcn, "label_projection")):
            def counted_build(*args, _inner=getattr(owner, name), _name=name,
                              **kwargs):
                out = _inner(*args, **kwargs)
                built[_name] += out.requires_grad  # the dev eval's record nothing
                return out
            monkeypatch.setattr(owner, name, counted_build)

        def recording(out, parents, backward):
            recorded.append(record(out, parents, backward))
            return recorded[-1]

        def counted(terms):
            nll_nodes.append(nll(terms))
            return nll_nodes[-1]

        def walking(self):
            walked.append(self)
            backward(self)

        def chunking(members):
            chunks = chunk_batch(members)
            chunked.append([len(chunk.members) for chunk in chunks])
            return chunks

        monkeypatch.setattr(ad, "_record", recording)
        monkeypatch.setattr(ad, "masked_nll", counted)
        monkeypatch.setattr(ad.Tensor, "backward", walking)
        monkeypatch.setattr(training_mod, "chunk_batch", chunking)
        sentences = load_corpus(SAMPLE_CORPUS)
        train(sentences, TrainConfig(d_h=8, d_l=4, epochs=1, batch_size=1000,
                                     dev_fraction=0.0, early_stop_train_acc=None))
        assert len(nll_nodes) == 1 and walked == nll_nodes
        on_tape = {id(t) for t in ad.Tape(walked[0]).order}
        assert [t for t in recorded if t.requires_grad and id(t) not in on_tape] == []
        # its parents: each instance's tag logits and row stack of view states
        instances = sum(len(s.verbs) for s in sentences)
        assert len(walked[0]._parents) == 2 * instances
        assert built == {"window_linear": 1, "node_label_embed_const": 1,
                         "node_label_embed_dep": 1, "label_projection": 2}
        [sizes] = chunked
        assert sum(sizes) == instances and 1 < len(sizes) < instances
        attention = [t for t in recorded if t.requires_grad
                     and t._backward is not None
                     and t._backward.__qualname__.startswith("attention_layer")]
        assert len(attention) == 2 * len(sizes)
        # each chunk stacks its rows of the five state nodes, and keeps
        # three row blocks per instance (logits, con and dep states) when
        # it holds several
        stacks = [t for t in recorded if t.requires_grad
                  and t._backward is not None
                  and t._backward.__qualname__.startswith("stack_rows")]
        assert len(stacks) == 5 * len(sizes)
        blocks = [t for t in recorded if t.requires_grad and t._backward is None]
        assert len(blocks) == 3 * sum(m for m in sizes if m > 1)

    def test_r1_to_r3_read_one_record_from_one_product(self, monkeypatch):
        # one row softmax for R1, R2 and R3: the block softmax of G = H Hᵀ
        # over the row stack H = [H_con; H_dep], read through the one mask
        # ``losses.r_mask`` builds from the two graphs; the only other is CE's
        records, masks = [], []
        inner, inner_mask = ad.row_softmax, losses.r_mask

        def counted(a, b=None, block=None):
            records.append(inner(a, b, block))
            return records[-1]

        def building(graphs, *args):
            masks.append((graphs, inner_mask(graphs, *args)))
            return masks[-1][1]

        monkeypatch.setattr(ad, "row_softmax", counted)
        monkeypatch.setattr(losses, "r_mask", building)
        parts = default_instance_losses()
        assert len(records) == 2
        ce, gram = records
        assert ce.b is None
        [(graphs, mask)] = masks
        assert [g.view for g in graphs] == ["const", "dep"]
        assert parts.terms[1][0] is gram and parts.terms[1][1] is mask
        n = len(parts["gold_ids"])
        assert gram.a is gram.b and gram.shape == mask.shape == (2 * n, 2 * n)
        assert gram.block == n


def per_instance_r_mask(model, inst, graphs, sentence_id):
    """The weighted sum of the ``loss_r1``-``loss_r3`` masks over the
    instance's own Gram, or None when no R loss runs."""
    cfg, w = model.cfg, model.cfg.weights
    fwd = model.forward(inst.sentence, inst.indicator_verb, graphs, sentence_id)
    views = [(h, g) for h, g in ((fwd.h_con, graphs.const), (fwd.h_dep, graphs.dep))
             if h is not None]
    run_r1 = cfg.use_r1 and w.alpha != 0.0 and bool(views)
    run_r2 = cfg.use_r2 and w.beta != 0.0 and len(views) == 2
    run_r3 = cfg.use_r3 and w.gamma != 0.0 and len(views) == 2
    if not (run_r1 or run_r2 or run_r3):
        return None
    gram = losses.view_gram([h for h, _ in views])
    mask = np.zeros(gram.shape)
    if run_r1:
        mask += w.alpha * losses.loss_r1(gram, [g for _, g in views])
    if run_r2:
        mask += w.beta * losses.loss_r2(gram)
    if run_r3:
        mask += w.gamma * losses.loss_r3(gram, graphs.const, graphs.dep)
    return mask


R_MASK_CONFIGS = ([("default", {})]
                  + [(f"losses:{name}", o) for name, o in ablation_grid("losses")]
                  + [("w/o const", {"use_const": False}),
                     ("w/o dep", {"use_dep": False}),
                     ("zero weights", {"weights": losses.LossWeights(0.0, 0.0, 0.0)})])


class TestRMask:
    @pytest.mark.parametrize("overrides", [o for _, o in R_MASK_CONFIGS],
                             ids=[name for name, _ in R_MASK_CONFIGS])
    def test_sentence_mask_is_every_instance_mask(self, overrides):
        # the mask a run builds once per sentence is byte for byte the one
        # each of its instances built, and the one an instance builds when
        # given none; with no R loss there is no mask and no Gram
        sentences = load_corpus(SAMPLE_CORPUS)
        cfg = TrainConfig(d_h=8, d_l=4).with_overrides(**overrides)
        cache = build_graph_cache(sentences, cfg.flatten)
        dl, cl = _label_inventories(cache, range(len(sentences)))
        model = Model(cfg, Vocabulary.from_sentences(sentences), dl, cl)
        for i, s in enumerate(sentences):
            mask = model.r_mask(cache[i])
            for inst in expand_instances(s):
                want = per_instance_r_mask(model, inst, cache[i], i)
                terms = model.instance_losses(inst, cache[i], i).terms
                if want is None:
                    assert mask is None and len(terms) == 1
                else:
                    for got in (mask, terms[1][1]):
                        assert got.shape == want.shape
                        assert got.tobytes() == want.tobytes()


class TestPredict:
    def test_predict_returns_valid_tags(self, setup):
        sentences, cache, model = build(setup)
        s = sentences[0]
        tags, probs = model.predict(s, s.verbs[0], cache[0])
        assert len(tags) == len(probs) == len(s.tokens)
        assert all(t in c.TAGS for t in tags)
        assert all(0 < p <= 1 for p in probs)

    def test_predict_records_no_graph(self, setup):
        sentences, cache, model = build(setup)
        s = sentences[0]
        model.predict(s, s.verbs[0], cache[0])
        assert all(t.grad is None for t in model.params.values())


def assert_views_of_theta(model):
    """Every parameter is the next stretch of ``model.theta``, in
    ``param_shapes`` order, and shares its memory."""
    start = 0
    for name, t in model.params.items():
        assert t.shape == model.shapes[name]
        assert np.shares_memory(t.data, model.theta)
        assert t.data.ravel().tobytes() == \
            model.theta[start:start + t.data.size].tobytes()
        start += t.data.size
    assert start == model.theta.size


class TestParameterVector:
    def test_new_model_params_are_views_of_theta(self, setup):
        _, _, model = build(setup)
        assert_views_of_theta(model)
        model.theta += 1.0
        assert_views_of_theta(model)

    def test_loaded_model_params_are_views_of_theta(self, setup):
        _, _, model = build(setup)
        other = Model.from_arrays(model.cfg, model.vocab, model.dep_labels,
                                  model.con_labels, model.export_arrays())
        assert_views_of_theta(other)
        assert other.theta.tobytes() == model.theta.tobytes()

    def test_export_arrays_are_copies(self, setup):
        _, _, model = build(setup)
        arrays = model.export_arrays()
        assert not any(np.shares_memory(a, model.theta) for a in arrays.values())
        before = {name: a.copy() for name, a in arrays.items()}
        model.theta -= 1.0
        for name, a in arrays.items():
            assert a.tobytes() == before[name].tobytes()

    def test_split_names_and_shapes_a_vector(self, setup):
        _, _, model = build(setup)
        vec = np.arange(model.theta.size, dtype=np.float64)
        views = model.split(vec)
        assert list(views) == list(model.params)
        assert all(v.shape == t.shape and np.shares_memory(v, vec)
                   for v, t in zip(views.values(), model.params.values()))
        with pytest.raises(ValueError, match="a vector of"):
            model.split(vec[:-1])


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

    def test_unknown_tensor_rejected(self, setup):
        # before: a tensor ``param_shapes`` does not name was ignored
        _, _, model = build(setup)
        arrays = model.export_arrays()
        arrays["gcn.extra.w"] = np.zeros((2, 2))
        with pytest.raises(ValueError, match="tensor 'gcn.extra.w'"):
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
    def test_need_is_every_parameter_six_times(self, setup, monkeypatch):
        # values, gradient, Adam's two moments and its two scratch vectors
        _, _, model = build(setup)
        need = 6 * 8 * sum(t.data.size for t in model.params.values())
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


def shared_state_models(tmp_path_factory, cfg):
    """The sample corpus, its graphs, and one model per shared-state config
    at the widths of ``cfg``."""
    sentences = load_corpus(SAMPLE_CORPUS)
    cache = build_graph_cache(sentences, cfg.flatten)
    vocab = Vocabulary.from_sentences(sentences)
    dl, cl = _label_inventories(cache, range(len(sentences)))
    rng = np.random.default_rng(4)
    vec_path = tmp_path_factory.mktemp("vectors") / "vectors.jsonl"
    vec_path.write_text("".join(
        json.dumps({"sentence_id": i,
                    "vectors": rng.normal(size=(len(s.tokens), cfg.d_h)).tolist()})
        + "\n" for i, s in enumerate(sentences)))
    overrides = {"default": {}, "no-gcn": {"use_gcn": False},
                 "no-dep": {"use_dep": False}, "no-const": {"use_const": False},
                 "no-views": {"use_dep": False, "use_const": False},
                 "vectors": {"encoder_vectors": str(vec_path)}}
    models = {name: Model(cfg.with_overrides(**kw), vocab, dl, cl,
                          np.random.default_rng(5))
              for name, kw in overrides.items()}
    return sentences, cache, models


@pytest.fixture(scope="module")
def sample_models(tmp_path_factory):
    return shared_state_models(tmp_path_factory, TrainConfig(seed=4, d_h=8, d_l=4))


@pytest.fixture(scope="module")
def default_width_models(tmp_path_factory):
    return shared_state_models(tmp_path_factory, TrainConfig(seed=4))


def assert_shared_state_changes_nothing(model, s, graphs, sid):
    """Every verb's predict over one shared state (its row of the state's
    stacked forward) equals, bit for bit, the predict that builds its own
    state (the k = 1 forward)."""
    with ad.no_grad():
        state = model.sentence_states([s], [graphs], [sid])[0]
    for verb in s.verbs:
        tags, probs = model.predict(s, verb, graphs, sid)
        shared_tags, shared_probs = model.predict(s, verb, graphs, sid, state)
        assert shared_tags == tags
        assert np.array(shared_probs).tobytes() == np.array(probs).tobytes()


def drawn_sentence(model, text, data, verbs):
    """A sentence over the drawn tree ``text`` with drawn dep rows, the
    verbs ``verbs(n)``, and (for the replayed encoder) vectors of its own."""
    tokens = tree_leaf_surfaces(text)
    n = len(tokens)
    heads = [-1] + [data.draw(st.integers(0, i - 1)) for i in range(1, n)]
    rels = data.draw(st.lists(st.sampled_from(model.dep_labels.labels + ["new"]),
                              min_size=n, max_size=n))
    s = c._build_sentence({"tokens": tokens, "const_ptb": text,
                           "dep_conllu": [list(p) for p in zip(heads, rels)],
                           "verbs": verbs(n)})
    if model.cfg.encoder_vectors is not None:
        model.encoder.vectors[DRAWN_ID] = np.random.default_rng(n).normal(
            size=(n, model.cfg.d_h))
    return s, SentenceGraphs.build(s, model.cfg.flatten)


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
        model = sample_models[2][config]
        s, graphs = drawn_sentence(model, text, data, lambda n: list(range(n)))
        assert_shared_state_changes_nothing(model, s, graphs, DRAWN_ID)

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
        state = model.sentence_states([sentences[0]], [cache[0]], [0])[0]
        with pytest.raises(ValueError, match="other graphs"):
            model.forward(sentences[1], sentences[1].verbs[0], cache[1], 1, state)
        rebuilt = SentenceGraphs.build(sentences[0], model.cfg.flatten)
        with pytest.raises(ValueError, match="other graphs"):
            model.predict(sentences[0], sentences[0].verbs[0], rebuilt, 0, state)
        with pytest.raises(ValueError, match="another sentence id"):
            model.predict(sentences[0], sentences[0].verbs[0], cache[0], 1, state)


FORWARD_FIELDS = ("logits", "h_ctx", "h_con", "h_dep", "alphas_con", "alphas_dep")


def assert_stack_is_each_verbs_forward(model, s, graphs, sid):
    """Slice i of the stacked forward over every verb of ``s`` equals the 2-D
    forward of verb i over the same state, to 1e-12."""
    with ad.no_grad():
        [state] = model.sentence_states([s], [graphs], [sid])
        stacked = model.forward(s, s.verbs, graphs, sid, state)
        for i, verb in enumerate(s.verbs):
            own = model.forward(s, verb, graphs, sid, state)
            for name in FORWARD_FIELDS:
                got, want = getattr(stacked, name), getattr(own, name)
                assert (got is None) == (want is None), name
                if want is not None:
                    assert got.shape == (len(s.verbs), *want.shape), name
                    np.testing.assert_allclose(got.data[i], want.data, rtol=0,
                                               atol=1e-12, err_msg=name)


class TestStackedForward:
    """Extraction's one forward per sentence: a sentence's k verbs stacked
    as (k, n, ·), read only, kept in the sentence state."""

    @pytest.mark.parametrize("widths", ["sample_models", "default_width_models"])
    @pytest.mark.parametrize("config", SHARED_STATE_CONFIGS)
    def test_each_slice_is_its_verbs_forward(self, request, widths, config):
        sentences, cache, models = request.getfixturevalue(widths)
        for i, s in enumerate(sentences):
            assert_stack_is_each_verbs_forward(models[config], s, cache[i], i)

    @settings(deadline=None, max_examples=60)
    @given(text=bracketed_trees, config=st.sampled_from(SHARED_STATE_CONFIGS),
           data=st.data())
    def test_drawn_trees_every_token_a_verb(self, sample_models, text, config,
                                            data):
        assume(not root_is_preterminal(text))
        model = sample_models[2][config]
        s, graphs = drawn_sentence(model, text, data, lambda n: list(range(n)))
        assert_stack_is_each_verbs_forward(model, s, graphs, DRAWN_ID)

    @pytest.mark.parametrize("config", SHARED_STATE_CONFIGS)
    def test_predict_reads_its_row_of_the_state_stack(self, sample_models, config):
        sentences, cache, models = sample_models
        model = models[config]
        i, s = next((i, s) for i, s in enumerate(sentences) if len(s.verbs) >= 2)
        with ad.no_grad():
            [state] = model.sentence_states([s], [cache[i]], [i])
            stacked = model.forward(s, s.verbs, cache[i], i, state).logits.data
        assert state.tags is None
        model.predict(s, s.verbs[-1], cache[i], i, state)
        tagged = state.tags  # the first call tags every verb, and the rest read it
        assert list(tagged) == s.verbs
        assert all(ids.shape == probs.shape == (len(s.tokens),)
                   for ids, probs in tagged.values())
        for row, verb in enumerate(s.verbs):
            tags, probs = model.predict(s, verb, cache[i], i, state)
            assert state.tags is tagged
            ids, kept = tagged[verb]
            assert ids.tolist() == stacked[row].argmax(axis=1).tolist()
            assert tags == [c.TAGS[t] for t in ids]
            assert np.array(probs).tobytes() == kept.tobytes()
            # each call returns fresh lists
            tags.clear()
            probs.clear()
            again = model.predict(s, verb, cache[i], i, state)
            assert again[0] == [c.TAGS[t] for t in ids]
            assert np.array(again[1]).tobytes() == kept.tobytes()

    @settings(deadline=None, max_examples=40)
    @given(text=bracketed_trees, config=st.sampled_from(SHARED_STATE_CONFIGS),
           data=st.data())
    def test_a_token_outside_the_verbs_runs_alone(self, sample_models, text,
                                                  config, data):
        # k = 1: a token that is not one of the sentence's verbs, with or
        # without the state, gets its row of a stack over every token, and
        # tags nothing in the state
        assume(not root_is_preterminal(text))
        model = sample_models[2][config]
        s, graphs = drawn_sentence(model, text, data,
                                   lambda n: list(range(0, n, 2)))
        every = dataclasses.replace(s, verbs=list(range(len(s.tokens))))
        with ad.no_grad():
            [state] = model.sentence_states([s], [graphs], [DRAWN_ID])
            [every_state] = model.sentence_states([every], [graphs], [DRAWN_ID])
        for token in range(1, len(s.tokens), 2):
            want = model.predict(every, token, graphs, DRAWN_ID, every_state)
            for got in (model.predict(s, token, graphs, DRAWN_ID),
                        model.predict(s, token, graphs, DRAWN_ID, state)):
                assert got[0] == want[0]
                assert np.array(got[1]).tobytes() == np.array(want[1]).tobytes()
        assert state.tags is None

    @pytest.mark.parametrize("config", SHARED_STATE_CONFIGS)
    def test_stacked_forward_needing_a_gradient_raises(self, sample_models, config):
        sentences, cache, models = sample_models
        s = sentences[0]
        with pytest.raises(ad.ShapeMismatch, match="stacked verbs are read only"):
            models[config].forward(s, s.verbs, cache[0], 0)

    def test_state_mismatch_still_raises_once_stacked(self, sample_models):
        sentences, cache, models = sample_models
        model = models["default"]
        s = sentences[0]
        with ad.no_grad():
            [state] = model.sentence_states([s], [cache[0]], [0])
        model.predict(s, s.verbs[0], cache[0], 0, state)
        assert state.tags is not None
        rebuilt = SentenceGraphs.build(s, model.cfg.flatten)
        with pytest.raises(ValueError, match="other graphs"):
            model.predict(s, s.verbs[0], rebuilt, 0, state)
        with pytest.raises(ValueError, match="another sentence id"):
            model.predict(s, s.verbs[0], cache[0], 1, state)

    def test_extract_runs_one_forward_per_sentence(self, sample_models, monkeypatch):
        sentences, cache, models = sample_models
        model = models["default"]
        calls = {"encode": 0, "gcn_layer": 0, "aggregate": 0, "tag_logits": 0,
                 "predict": 0}
        for owner, name in ((type(model.encoder), "encode"), (gcn, "gcn_layer"),
                            (gcn, "aggregate"), (tagger, "tag_logits"),
                            (Model, "predict")):
            def counted(*args, _inner=getattr(owner, name), _name=name):
                calls[_name] += 1
                return _inner(*args)
            monkeypatch.setattr(owner, name, counted)
        i, s = max(enumerate(sentences), key=lambda p: len(p[1].verbs))
        assert len(s.verbs) >= 2
        tagger.extract(s, model, cache[i], i)
        assert calls == {"encode": 1, "gcn_layer": 2, "aggregate": 1,
                         "tag_logits": 1, "predict": len(s.verbs)}

    def test_a_long_sentences_stack_is_bounded(self, monkeypatch):
        # 300 tokens and 50 verbs: stacked whole, each (k, n, n) array of
        # the forward would take 34 MiB
        n = 300
        s = flat_sentence([f"w{i % 7}" for i in range(n)])
        s = dataclasses.replace(s, verbs=list(range(0, n, 6)))
        cfg = TrainConfig(seed=0)
        graphs = SentenceGraphs.build(s, cfg.flatten)
        model = Model(cfg, Vocabulary.from_sentences([s]), LabelVocab.collect(["dep"]),
                      LabelVocab.collect(["S", "NN"]))
        tracemalloc.start()
        try:
            tagger.extract(s, model, graphs, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        with ad.no_grad():
            [state] = model.sentence_states([s], [graphs], [0])
        stacked = []
        forward = model.forward

        def counted(sentence, verbs, *args):
            stacked.append(verbs)
            return forward(sentence, verbs, *args)

        assert model_mod.STACK_ENTRIES // n**2 == 2
        # asked in interleaved order, v0, v49, v1, v48, ..., the first call
        # tags every verb over 25 chunks of 2, and the rest look theirs up
        order = [v for pair in zip(s.verbs, reversed(s.verbs)) for v in pair]
        order = list(dict.fromkeys(order))
        assert sorted(order) == s.verbs
        with monkeypatch.context() as patch:
            patch.setattr(model, "forward", counted)
            got = {verb: model.predict(s, verb, graphs, 0, state) for verb in order}
        assert stacked == [s.verbs[k:k + 2] for k in range(0, len(s.verbs), 2)]
        assert list(state.tags) == s.verbs
        for verb in s.verbs:
            tags, probs = got[verb]
            want_tags, want_probs = model.predict(s, verb, graphs, 0)
            assert tags == want_tags
            assert np.array(probs).tobytes() == np.array(want_probs).tobytes()

    def test_training_builds_no_stack(self, sample_models):
        sentences, cache, models = sample_models
        model = models["default"]
        [state] = model.sentence_states([sentences[0]], [cache[0]], [0])
        for inst in expand_instances(sentences[0]):
            model.instance_losses(inst, cache[0], 0, state)
        assert state.tags is None


def state_tensors(state) -> dict[str, ad.Tensor]:
    """A state's tensors by name: the base, then each active view's label
    embedding and projection."""
    out = {"base": state.base}
    for view in ("con", "dep"):
        if getattr(state, view) is not None:
            out[f"{view}.l"], out[f"{view}.proj"] = getattr(state, view)
    return out


def batch_terms(model, sentences, cache, ids):
    """The loss terms of every instance of sentences ``ids``, over states
    built as one batch."""
    states = model.sentence_states([sentences[i] for i in ids],
                                   [cache[i] for i in ids], ids)
    return [term for i, state in zip(ids, states)
            for inst in expand_instances(sentences[i])
            for term in model.instance_losses(inst, cache[i], i, state).terms]


class TestModelHoldsWhatItReads:
    """``param_shapes`` names exactly the tensors the config's forward reads."""

    @pytest.mark.parametrize("config, groups", [
        ("default", ["enc", "gcn.dep", "gcn.con", "head"]),
        ("no-gcn", ["enc", "gcn.dep", "gcn.con", "head"]),
        ("no-dep", ["enc", "gcn.con", "head"]),
        ("no-const", ["enc", "gcn.dep", "head"]),
        ("no-views", ["enc", "head"]),
        ("vectors", ["gcn.dep", "gcn.con", "head"])])
    def test_groups_follow_the_config(self, sample_models, config, groups):
        model = sample_models[2][config]
        assert list(dict.fromkeys(name.rsplit(".", 1)[0]
                                  for name in model.params)) == groups
        assert (model.enc_params is None) == ("enc" not in groups)
        assert (model.dep_params is None) == ("gcn.dep" not in groups)
        assert (model.con_params is None) == ("gcn.con" not in groups)

    @pytest.mark.parametrize("config", SHARED_STATE_CONFIGS + ["no-views"])
    def test_every_tensor_gets_a_gradient(self, sample_models, config):
        # before: a view that is off kept its gcn.* tensors, and replayed
        # vectors kept enc.*, each with a zero gradient
        sentences, cache, models = sample_models
        seed = models[config]
        model = Model.from_arrays(seed.cfg, seed.vocab, seed.dep_labels,
                                  seed.con_labels, seed.export_arrays())
        ad.masked_nll(batch_terms(model, sentences, cache, [0, 1, 2, 3])).backward()
        unread = [name for name, t in model.params.items()
                  if t.grad is None or not t.grad.any()]
        assert unread == []


class TestBatchStates:
    """One ``sentence_states`` call over several sentences: one node per kind
    over their row stack, and each state its sentence's row block."""

    @pytest.mark.parametrize("config", SHARED_STATE_CONFIGS)
    def test_each_state_is_its_sentences_own(self, default_width_models, config):
        # the blocks of a batch of every sample sentence, last first, against
        # each sentence's batch of one.  Copied rows (the replayed vectors, the
        # dep label gather) are equal byte for byte; a product through BLAS
        # to its rounding, since this machine's BLAS may round a row
        # differently for another row count (at the default widths, the
        # window mix of 4-8 rows and of the 115-row stack differ by up to
        # 2.2e-16)
        sentences, cache, models = default_width_models
        model = models[config]
        ids = list(range(len(sentences)))[::-1]
        batch = model.sentence_states([sentences[i] for i in ids],
                                      [cache[i] for i in ids], ids)
        exact = {"dep.l"} | ({"base"} if config == "vectors" else set())
        for i, state in zip(ids, batch, strict=True):
            [own] = model.sentence_states([sentences[i]], [cache[i]], [i])
            assert state.graphs is cache[i] and state.sentence_id == i
            got, want = state_tensors(state), state_tensors(own)
            assert got.keys() == want.keys()
            for name, t in got.items():
                assert t.shape == (len(sentences[i].tokens), want[name].shape[1])
                if name in exact:
                    assert t.data.tobytes() == want[name].data.tobytes(), name
                else:
                    np.testing.assert_allclose(t.data, want[name].data, rtol=0,
                                               atol=1e-14, err_msg=name)

    def test_batch_gradient_is_the_sum_of_each_sentences(self, default_width_models):
        # the row blocks send each sentence's gradient back into the batch's
        # nodes: a batch loss's parameter gradient is the sum of the same
        # loss's over each sentence's batch of one, to rounding
        sentences, cache, models = default_width_models
        model = models["default"]
        ids = [3, 0, 5, 1]

        def gradient(groups):
            for p in model.params.values():
                p.grad = None
            ad.masked_nll([t for group in groups
                           for t in batch_terms(model, sentences, cache, group)]
                          ).backward()
            return {name: p.grad.copy() for name, p in model.params.items()}

        batch, apart = gradient([ids]), gradient([[i] for i in ids])
        for name in batch:
            np.testing.assert_allclose(batch[name], apart[name], rtol=0,
                                       atol=1e-12, err_msg=name)

    def test_batch_loss_gradient_check(self, setup):
        sentences, cache, model = build(setup, d_h=6, d_l=3)
        ids = [i for i, s in enumerate(sentences) if s.verbs][:3]

        def f(*params):
            return ad.masked_nll(batch_terms(model, sentences, cache, ids))

        assert len(ids) == 3
        assert ad.grad_check(f, list(model.params.values()), eps=1e-5) < 1e-4


BATCH_CONFIGS = SHARED_STATE_CONFIGS + ["no-views"]


def batch_loss(model, sentences, cache, batch, chunked=True):
    """The loss of ``batch`` (sentence index, instance) as ``train`` takes it,
    one ``masked_nll`` node scaled by 1/B, and its parameter vector's
    gradient: over one state build and ``chunk_batch``'s chunks, or with
    ``chunked`` False each instance's own forward over its own state."""
    grad = np.zeros_like(model.theta)
    for p, view in zip(model.params.values(), model.split(grad).values()):
        p.grad = view
    ids = list(dict.fromkeys(i for i, _ in batch))
    states = dict(zip(ids, model.sentence_states([sentences[i] for i in ids],
                                                 [cache[i] for i in ids], ids)))
    if chunked:
        model_mod.chunk_batch([(states[i], inst.indicator_verb)
                               for i, inst in batch])
    terms = [term for i, inst in batch
             for term in model.instance_losses(
                 inst, cache[i], i, states[i] if chunked else None).terms]
    loss = ad.masked_nll([(rows, mask / len(batch)) for rows, mask in terms])
    loss.backward()
    return float(loss.data), grad


class TestBatchForm:
    """A training batch's instances as the rows of one recorded forward per
    chunk: losses and gradients are each instance's own forward's."""

    @pytest.mark.parametrize("config", BATCH_CONFIGS)
    def test_chunked_whole_and_per_instance_agree(self, sample_models, config,
                                                  monkeypatch):
        sentences, cache, models = sample_models
        model = models[config]
        instances = [(i, inst) for i, s in enumerate(sentences)
                     for inst in expand_instances(s)]
        order = np.random.default_rng(6).permutation(len(instances))
        batch = [instances[k] for k in order[:12]]
        own = batch_loss(model, sentences, cache, batch, chunked=False)
        for rows in (20, 10**9):  # several chunks, then one
            monkeypatch.setattr(model_mod, "CHUNK_ROWS", rows)
            got = batch_loss(model, sentences, cache, batch)
            assert got[0] == pytest.approx(own[0], rel=0, abs=1e-12)
            for name, g in model.split(got[1]).items():
                np.testing.assert_allclose(g, model.split(own[1])[name], rtol=0,
                                           atol=1e-12, err_msg=name)

    @pytest.mark.parametrize("config", BATCH_CONFIGS)
    def test_edge_verbs_keep_to_their_own_rows(self, sample_models, config):
        # verbs on a first and a last token, and a 1-token sentence, between
        # neighbours: each block's rows are its instance's own forward
        sentences, cache, models = sample_models
        model = models[config]
        words = [["the", "car", "smiles"], ["smiles"], ["a", "car", "the", "car"]]
        flat = [flat_sentence(w) for w in words]
        ids = [DRAWN_ID + k for k in range(len(flat))]
        if model.cfg.encoder_vectors is not None:
            for k, s in zip(ids, flat):
                model.encoder.vectors[k] = np.random.default_rng(k).normal(
                    size=(len(s.tokens), model.cfg.d_h))
        graphs = [SentenceGraphs.build(s, model.cfg.flatten) for s in flat]
        states = model.sentence_states(flat, graphs, ids)
        members = [(states[0], 2), (states[1], 0), (states[2], 0), (states[0], 0)]
        fwd = model.rows_forward(members)
        start = 0
        for (state, verb), k in zip(members, [0, 1, 2, 0]):
            rows = slice(start, start + len(flat[k].tokens))
            own = model.forward(flat[k], verb, graphs[k], ids[k])
            for name in ("logits", "h_ctx", "h_con", "h_dep"):
                if getattr(own, name) is None:
                    assert getattr(fwd, name) is None
                    continue
                np.testing.assert_allclose(getattr(fwd, name).data[rows],
                                           getattr(own, name).data, rtol=0,
                                           atol=1e-13, err_msg=name)
            start = rows.stop
        assert start == fwd.logits.shape[0] == 11

    def test_an_instance_longer_than_the_bound_runs_alone(self, sample_models,
                                                          monkeypatch):
        sentences, cache, models = sample_models
        model = models["default"]
        flat = [flat_sentence([f"w{i}" for i in range(n)]) for n in (4, 8, 2, 3, 7)]
        graphs = [SentenceGraphs.build(s, model.cfg.flatten) for s in flat]
        states = model.sentence_states(flat, graphs, list(range(len(flat))))
        monkeypatch.setattr(model_mod, "CHUNK_ROWS", 6)
        chunks = model_mod.chunk_batch([(state, 0) for state in states])
        place = {id(state): k for k, state in enumerate(states)}
        assert [[place[id(state)] for state, _ in chunk.members]
                for chunk in chunks] == [[0], [1], [2, 3], [4]]
        for state in states:
            chunk, j = state.chunks[0]
            assert chunk.members[j] == (state, 0)
        inst = expand_instances(flat[1])[0]
        alone = model.instance_losses(inst, graphs[1], 1, states[1])
        own = model.instance_losses(inst, graphs[1], 1)
        assert alone.logits.shape == (8, len(c.TAGS))
        assert alone["total"].data.tobytes() == own["total"].data.tobytes()

    def test_batch_loss_gradient_check(self, setup):
        # three instances in one chunk, marked at a first token, at the one
        # token of a 1-token sentence, and at a last token
        sentences, cache, model = build(setup, d_h=6, d_l=3)
        flat = [flat_sentence(w) for w in (["the", "car"], ["smiles"],
                                           ["a", "car", "smiles"])]
        graphs = [SentenceGraphs.build(s, model.cfg.flatten) for s in flat]
        batch = [(0, expand_instances(flat[0])[0]), (1, expand_instances(flat[1])[0]),
                 (2, expand_instances(flat[2])[2])]
        chunks = []

        def f(*params):
            states = model.sentence_states(flat, graphs, [0, 1, 2])
            chunks.append(model_mod.chunk_batch(
                [(states[i], inst.indicator_verb) for i, inst in batch]))
            return ad.masked_nll([
                term for i, inst in batch
                for term in model.instance_losses(inst, graphs[i], i,
                                                  states[i]).terms])

        assert ad.grad_check(f, list(model.params.values()), eps=1e-5) < 1e-4
        assert all(len(run) == 1 for run in chunks)
