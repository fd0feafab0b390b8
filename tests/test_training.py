import gc
import json
import multiprocessing
import os
import pickle
import tracemalloc
import warnings
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest


from synoie import autodiff as ad
from synoie import training as tr
from synoie.config import TrainConfig
from synoie.corpus import load_corpus
from synoie.model import Model, SentenceGraphs
from synoie.synthetic import generate_corpus

FAST = dict(d_h=8, d_l=4, epochs=6, batch_size=4, early_stop_train_acc=None)


@pytest.fixture(scope="module")
def corpus12():
    return generate_corpus(12, seed=3)


class TestTrainLoop:
    def test_empty_corpus(self):
        with pytest.raises(tr.EmptyCorpus):
            tr.train([], TrainConfig())

    def test_same_seed_identical_trajectory(self, corpus12):
        cfg = TrainConfig(seed=11, **FAST)
        h1 = tr.train(corpus12, cfg).history
        h2 = tr.train(corpus12, cfg).history
        assert [r["loss"] for r in h1] == [r["loss"] for r in h2]
        assert [r.get("dev_f1") for r in h1] == [r.get("dev_f1") for r in h2]

    def test_loss_finite_throughout_on_bundled_sample_corpus(self):
        sample = Path(__file__).resolve().parent.parent / "data" / "sample_corpus.jsonl"
        ckpt = tr.train(load_corpus(sample), TrainConfig(seed=0, **FAST))
        assert all(np.isfinite(r["loss"]) for r in ckpt.history)

    def test_loss_decreases(self, corpus12):
        ckpt = tr.train(corpus12, TrainConfig(seed=0, **FAST))
        assert ckpt.history[-1]["loss"] < ckpt.history[0]["loss"]

    def test_ce_only_equals_disabled_losses(self, corpus12):
        # zero weights and disabled flags must produce the same trajectory
        base = TrainConfig(seed=5, **FAST)
        by_flags = base.with_overrides(use_r1=False, use_r2=False, use_r3=False)
        by_weights = base.with_overrides(
            weights=type(base.weights)(0.0, 0.0, 0.0))
        h1 = tr.train(corpus12, by_flags).history
        h2 = tr.train(corpus12, by_weights).history
        assert [r["loss"] for r in h1] == [r["loss"] for r in h2]

    def test_non_finite_loss_aborts_with_diagnostics(self, corpus12, monkeypatch):
        real_init = Model.__init__

        def sabotage(self, *args, **kwargs):
            real_init(self, *args, **kwargs)
            self.b_tag.data[:] = np.nan

        monkeypatch.setattr(Model, "__init__", sabotage)
        with pytest.raises(tr.NonFiniteLoss, match="epoch 1"):
            tr.train(corpus12, TrainConfig(seed=0, **FAST))

    def test_overfit_small_corpus(self, corpus12):
        cfg = TrainConfig(seed=0, d_h=32, d_l=16, epochs=100, batch_size=4,
                          dev_fraction=0.0, early_stop_train_acc=0.999)
        ckpt = tr.train(corpus12, cfg)
        assert ckpt.history[-1]["train_acc"] >= 0.99

    def test_dev_fraction_zero_uses_train_as_dev(self, corpus12):
        cfg = TrainConfig(seed=0, dev_fraction=0.0, **FAST)
        ckpt = tr.train(corpus12, cfg)
        assert "dev_f1" in ckpt.history[-1]

    def test_same_seed_byte_identical_checkpoints(self, corpus12):
        cfg = TrainConfig(seed=9, d_h=8, d_l=4, epochs=2, batch_size=4,
                          early_stop_train_acc=None)
        a = tr.train(corpus12, cfg)
        b = tr.train(corpus12, cfg)
        assert a.arrays.keys() == b.arrays.keys()
        for name in a.arrays:
            assert a.arrays[name].tobytes() == b.arrays[name].tobytes()

    def test_sentence_state_built_once_per_sentence_per_batch(self, corpus12,
                                                             monkeypatch):
        # with one batch per epoch, one ``sentence_states`` call per epoch
        # builds the states of the batch's distinct sentences, in the order
        # they first appear; a sentence's verbs share its state within an
        # epoch and get a new one in the next
        calls = []  # (sentence ids, states) per recording call
        seen = []  # (sentence id, state) per instance, in call order
        inner_states, inner = Model.sentence_states, Model.instance_losses

        def building(self, sentences, graphs, sentence_ids):
            states = inner_states(self, sentences, graphs, sentence_ids)
            if states[0].base.requires_grad:  # not a dev eval's
                calls.append((list(sentence_ids), states))
            return states

        def recorded(self, inst, graphs, sentence_id=None, state=None, **kwargs):
            seen.append((sentence_id, state))
            return inner(self, inst, graphs, sentence_id, state, **kwargs)

        monkeypatch.setattr(Model, "sentence_states", building)
        monkeypatch.setattr(Model, "instance_losses", recorded)
        cfg = TrainConfig(seed=1, d_h=8, d_l=4, epochs=2, batch_size=1000,
                          early_stop_train_acc=None)
        tr.train(corpus12, cfg)
        per_epoch = len(seen) // 2
        assert len(calls) == 2
        for epoch, (ids, built) in enumerate(calls):
            batch = seen[epoch * per_epoch:(epoch + 1) * per_epoch]
            assert ids == list(dict.fromkeys(sid for sid, _ in batch))
            assert all(state is dict(zip(ids, built))[sid] for sid, state in batch)
        states = {}  # (epoch, sentence id) -> the states its verbs got
        for k, (sid, state) in enumerate(seen):
            assert state is not None and state.sentence_id == sid
            states.setdefault((k // per_epoch, sid), set()).add(id(state))
        assert all(len(ids) == 1 for ids in states.values())
        assert len(seen) > len(states)  # some sentence has two verbs or more
        assert all(states[(0, sid)] != states[(1, sid)] for _, sid in states)

    def test_one_loss_call_per_instance_and_one_attention_per_view_per_chunk(
            self, corpus12, monkeypatch):
        # the benchmark's traced round counts one ``Model.instance_losses``
        # call per instance per epoch; the recorded forward runs once per
        # chunk of a batch's instances, with one attention node per view
        calls, attention, chunked = [], [], []
        inner, inner_attention, inner_chunks = (Model.instance_losses,
                                                ad.attention_layer,
                                                tr.chunk_batch)

        def counted(self, inst, *args, **kwargs):
            calls.append(inst)
            return inner(self, inst, *args, **kwargs)

        def attending(*args):
            out = inner_attention(*args)
            if out[0].requires_grad:  # not a dev eval's
                attention.append(out[0])
            return out

        def chunking(members):
            chunks = inner_chunks(members)
            chunked.append(len(chunks))
            return chunks

        monkeypatch.setattr(Model, "instance_losses", counted)
        monkeypatch.setattr(ad, "attention_layer", attending)
        monkeypatch.setattr(tr, "chunk_batch", chunking)
        cfg = TrainConfig(seed=1, d_h=8, d_l=4, epochs=3, batch_size=8,
                          dev_fraction=0.0, early_stop_train_acc=None)
        tr.train(corpus12, cfg)
        instances = sum(len(s.verbs) for s in corpus12)
        assert len(calls) == cfg.epochs * instances
        batches = -(-instances // cfg.batch_size)
        assert len(chunked) == cfg.epochs * batches
        assert len(attention) == 2 * sum(chunked) < 2 * len(calls)

    def test_ce_target_built_once_per_instance_per_run(self, corpus12, monkeypatch):
        # an instance's gold ids and CE pick mask depend only on its gold
        # tags: over two epochs of several batches each is built once and
        # every forward of that instance reads it
        built, read = [], []
        inner_target, inner_losses = Model.ce_target, Model.instance_losses

        def building(self, inst):
            built.append((inst, inner_target(self, inst)))
            return built[-1][1]

        def reading(self, inst, graphs, *args, target=None, **kwargs):
            read.append((inst, target))
            return inner_losses(self, inst, graphs, *args, target=target, **kwargs)

        monkeypatch.setattr(Model, "ce_target", building)
        monkeypatch.setattr(Model, "instance_losses", reading)
        cfg = TrainConfig(seed=1, d_h=8, d_l=4, epochs=2, batch_size=4,
                          early_stop_train_acc=None)
        tr.train(corpus12, cfg)
        targets = {id(inst): target for inst, target in built}
        assert len(targets) == len(built) and len(read) == 2 * len(built)
        assert all(targets[id(inst)] is target for inst, target in read)

    def test_r_mask_built_once_per_sentence_per_run(self, corpus12, monkeypatch):
        # the weighted R mask depends only on a sentence's graphs: over two
        # epochs of several batches, each training sentence's is built once
        # and every one of its instances reads that mask
        built, read = [], []
        inner_mask, inner_losses = Model.r_mask, Model.instance_losses

        def building(self, graphs):
            built.append((graphs, inner_mask(self, graphs)))
            return built[-1][1]

        def reading(self, inst, graphs, sentence_id=None, state=None, r_mask=None,
                    **kwargs):
            read.append((graphs, r_mask))
            return inner_losses(self, inst, graphs, sentence_id, state, r_mask,
                                **kwargs)

        monkeypatch.setattr(Model, "r_mask", building)
        monkeypatch.setattr(Model, "instance_losses", reading)
        cfg = TrainConfig(seed=1, d_h=8, d_l=4, epochs=2, batch_size=4,
                          early_stop_train_acc=None)
        tr.train(corpus12, cfg)
        masks = {id(g): m for g, m in built}
        dev_n = round(cfg.dev_fraction * len(corpus12))
        assert len(masks) == len(built) == len(corpus12) - dev_n
        assert {id(g) for g, _ in read} == set(masks)
        assert all(m is not None and masks[id(g)] is m for g, m in read)

    def test_bundled_sample_corpus_overfits(self):
        sample = Path(__file__).resolve().parent.parent / "data" / "sample_corpus.jsonl"
        corpus = load_corpus(sample)
        cfg = TrainConfig(seed=0, epochs=200, dev_fraction=0.0)
        ckpt = tr.train(corpus, cfg)
        assert ckpt.history[-1]["train_acc"] >= 0.99


class TestRepeatedTraining:
    def test_keeps_no_memory_between_runs(self, corpus12):
        # the per-graph and per-instance state a run builds (graphs and their
        # cached masks, tapes, row softmaxes) must die with the run
        cfg = TrainConfig(seed=2, **FAST)
        tr.train(corpus12, cfg)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(10):
                tr.train(corpus12, cfg)
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown < 50 * 1024


class TestNoNumpyWarnings:
    def test_train_and_extract_emit_none(self):
        # any numpy RuntimeWarning from the kernels or Adam fails this test
        sample = Path(__file__).resolve().parent.parent / "data" / "sample_corpus.jsonl"
        sentences = load_corpus(sample)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ckpt = tr.train(sentences, TrainConfig(seed=0, epochs=1))
            tuples = tr.extract_corpus(ckpt, sentences)
        assert len(tuples) == len(sentences)


class TestOverfitWorkedExample:
    def test_extracts_the_gold_tuple(self, example_sentence):
        # distant tokens ("the room") are outside every window and 1-hop
        # path from the verbs, so perfect token accuracy is unreachable
        # here; the extracted tuple must still be exactly the gold one,
        # with the tuple-less verb contributing nothing
        cfg = TrainConfig(seed=0, d_h=32, d_l=16, epochs=400, lr=3e-3,
                          batch_size=2, dev_fraction=0.0,
                          early_stop_train_acc=None)
        ckpt = tr.train([example_sentence], cfg)
        (tuples,) = tr.extract_corpus(ckpt, [example_sentence])
        assert len(tuples) == 1
        gold = example_sentence.gold_tuples[0]
        assert tuples[0].spans == gold.spans
        assert tuples[0].indicator_verb == gold.indicator_verb


class TestCheckpoint:
    def test_round_trip_identical_extractions(self, corpus12, tmp_path):
        ckpt = tr.train(corpus12, TrainConfig(seed=2, **FAST))
        path = tmp_path / "model.npz"
        ckpt.save(path)
        again = tr.Checkpoint.load(path)
        assert again.config == ckpt.config
        assert again.vocab_tokens == ckpt.vocab_tokens
        a = tr.extract_corpus(ckpt, corpus12)
        b = tr.extract_corpus(again, corpus12)
        assert a == b
        for name, arr in ckpt.arrays.items():
            assert arr.tobytes() == again.arrays[name].tobytes()

    def test_bad_version_rejected(self, corpus12, tmp_path):
        ckpt = tr.train(corpus12, TrainConfig(seed=2, **FAST))
        path = tmp_path / "model.npz"
        # format 2 also saved a config key that format 3 dropped, and format 1
        # three more that format 2 dropped
        config_2 = dict(ckpt.config.to_dict(), max_arg=5)
        config_1 = dict(ckpt.config.to_dict(), max_arg=5, encoder_kind="toy",
                        mv_exclude_self_loops=True)
        config_1["flatten"]["punct_tags"] = [".", ","]
        for version, config in ((1, config_1), (2, config_2),
                                (99, ckpt.config.to_dict())):
            meta = {"format_version": version, "config": config,
                    "vocab_tokens": [], "dep_labels": [], "con_labels": [],
                    "epoch": 0, "history": []}
            np.savez(path, __meta__=np.frombuffer(
                json.dumps(meta).encode(), dtype=np.uint8))
            with pytest.raises(tr.TrainingError, match=f"version {version}"):
                tr.Checkpoint.load(path)

    def test_model_checks_every_tensor(self, corpus12):
        ckpt = tr.train(corpus12, TrainConfig(seed=2, **FAST))
        missing = dict(ckpt.arrays)
        missing.pop("gcn.dep.w2")
        with pytest.raises(KeyError, match="missing tensor 'gcn.dep.w2'"):
            replace(ckpt, arrays=missing).model
        wide = dict(ckpt.arrays)
        wide["enc.w_mix"] = np.zeros((wide["enc.w_mix"].shape[0], 1))
        with pytest.raises(ValueError, match="'enc.w_mix': checkpoint shape"):
            replace(ckpt, arrays=wide).model


class TestCheckpointModel:
    """A checkpoint builds its model once, on first use, and keeps it."""

    @pytest.fixture
    def ckpt(self, corpus12):
        return tr.train(corpus12, TrainConfig(seed=2, **FAST))

    def test_two_extractions_build_one_model(self, ckpt, corpus12, monkeypatch):
        built = []
        inner = Model.from_arrays

        def spy(*args):
            built.append(args)
            return inner(*args)

        monkeypatch.setattr(Model, "from_arrays", spy)
        first = tr.extract_corpus(ckpt, corpus12[:3])
        second = tr.extract_corpus(ckpt, corpus12[:3])
        assert first == second
        assert len(built) == 1

    def test_replace_builds_its_own_model(self, ckpt):
        other = replace(ckpt, epoch=ckpt.epoch + 1)
        assert other.model is not ckpt.model
        assert other.model is other.model
        assert other.model.theta.tobytes() == ckpt.model.theta.tobytes()

    def test_fields_and_arrays_are_frozen(self, ckpt):
        with pytest.raises(FrozenInstanceError):
            ckpt.epoch = 0
        with pytest.raises(FrozenInstanceError):
            ckpt.arrays = {}
        with pytest.raises(TypeError):
            ckpt.arrays["head.b"] = np.zeros(1)
        assert all(not a.flags.writeable for a in ckpt.arrays.values())
        with pytest.raises(ValueError, match="read-only"):
            ckpt.arrays["head.b"][0] = 1.0
        assert isinstance(ckpt.vocab_tokens, tuple)
        with pytest.raises(ValueError, match="read-only"):
            ckpt.model.params["head.b"].data[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            ckpt.model.theta[0] = 1.0

    def test_arrays_are_copies(self, ckpt):
        mine = {name: a.copy() for name, a in ckpt.arrays.items()}
        copy = replace(ckpt, arrays=mine)
        mine["head.b"] += 1.0  # the caller's array stays writeable, and apart
        assert copy.arrays["head.b"].tobytes() == ckpt.arrays["head.b"].tobytes()

    def test_pickle_carries_no_model(self, ckpt):
        unbuilt = pickle.dumps(ckpt)
        ckpt.model
        data = pickle.dumps(ckpt)
        assert data == unbuilt
        again = pickle.loads(data)
        assert "model" not in vars(again)
        assert again.model.theta.tobytes() == ckpt.model.theta.tobytes()


@pytest.fixture(scope="module")
def trained(corpus12):
    cfg = TrainConfig(seed=0, d_h=32, d_l=16, epochs=100, batch_size=4,
                      dev_fraction=0.0, early_stop_train_acc=0.999)
    return tr.train(corpus12, cfg)


class TestEvaluateCheckpoint:
    def test_overfit_perfect_exact_f1(self, trained, corpus12):
        report = tr.evaluate_checkpoint(trained, corpus12, mode="exact")
        assert report.f1 >= 0.95

    def test_lexical_is_a_relaxation(self, trained, corpus12):
        exact = tr.evaluate_checkpoint(trained, corpus12, mode="exact")
        lex = tr.evaluate_checkpoint(trained, corpus12, mode="lexical")
        assert lex.f1 >= exact.f1 - 1e-12

    def test_empty_eval_corpus(self, trained):
        with pytest.raises(tr.EmptyCorpus):
            tr.evaluate_checkpoint(trained, [], mode="exact")

    def test_parallel_extraction_matches_serial(self, trained, corpus12):
        # the serial call builds the checkpoint's model and keeps it; the
        # pool after it must give the same tuples
        serial = tr.extract_corpus(trained, corpus12, workers=1)
        parallel = tr.extract_corpus(trained, corpus12, workers=2)
        assert serial == parallel

    @pytest.mark.parametrize("fault", ["duplicate-label", "tensor-shape"])
    def test_unbuildable_model_raises_before_any_pool(self, trained, corpus12,
                                                      monkeypatch, fault):
        # before: every worker's initializer raised, and the pool replaced
        # its dead workers forever
        if fault == "duplicate-label":
            bad = replace(trained, dep_labels=trained.dep_labels[:-1]
                          + trained.dep_labels[-2:-1])
        else:
            arrays = dict(trained.arrays)
            arrays["gcn.dep.w1"] = arrays["gcn.dep.w1"][:-1]
            bad = replace(trained, arrays=arrays)
        pools = []
        monkeypatch.setattr(multiprocessing, "Pool",
                            lambda *args, **kwargs: pools.append(args))
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        with pytest.raises(ValueError):
            tr.extract_corpus(bad, corpus12, workers=2)
        assert pools == []


class TestPrecomputedEncoderPath:
    @pytest.fixture
    def vectors(self, corpus12, tmp_path):
        """Width-8 random vectors for every sentence, and the file holding them."""
        rng = np.random.default_rng(0)
        arrays = [rng.normal(size=(len(s.tokens), 8)) for s in corpus12]
        vec_path = tmp_path / "vectors.jsonl"
        vec_path.write_text("".join(
            json.dumps({"sentence_id": i, "vectors": arr.tolist()}) + "\n"
            for i, arr in enumerate(arrays)))
        return arrays, str(vec_path)

    def test_training_with_external_vectors(self, corpus12, vectors):
        # naming the vectors file is all it takes to replace the toy encoder
        arrays, vec_path = vectors
        cfg = TrainConfig(seed=0, d_h=8, d_l=4, epochs=3, batch_size=4,
                          encoder_vectors=vec_path, early_stop_train_acc=None)
        ckpt = tr.train(corpus12, cfg)
        assert all(np.isfinite(r["loss"]) for r in ckpt.history)
        model = ckpt.model
        for i in (0, 5):
            s = corpus12[i]
            fwd = model.forward(s, s.verbs[0], SentenceGraphs.build(s, cfg.flatten),
                                sentence_id=i)
            np.testing.assert_array_equal(fwd.h_ctx.data, arrays[i])

    def test_vector_width_must_match_d_h(self, corpus12, vectors):
        cfg = TrainConfig(seed=0, d_h=6, d_l=4, epochs=1,
                          encoder_vectors=vectors[1])
        with pytest.raises(ValueError, match="width 6"):
            tr.train(corpus12, cfg)
