import json
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest


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

    def test_bundled_sample_corpus_overfits(self):
        sample = Path(__file__).resolve().parent.parent / "data" / "sample_corpus.jsonl"
        corpus = load_corpus(sample)
        cfg = TrainConfig(seed=0, epochs=200, dev_fraction=0.0)
        ckpt = tr.train(corpus, cfg)
        assert ckpt.history[-1]["train_acc"] >= 0.99


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
        # format 1 also saved three config keys that format 2 dropped
        config_1 = ckpt.config.to_dict()
        config_1.update(encoder_kind="toy", mv_exclude_self_loops=True)
        config_1["flatten"]["punct_tags"] = [".", ","]
        for version, config in ((1, config_1), (99, ckpt.config.to_dict())):
            meta = {"format_version": version, "config": config,
                    "vocab_tokens": [], "dep_labels": [], "con_labels": [],
                    "epoch": 0, "history": []}
            np.savez(path, __meta__=np.frombuffer(
                json.dumps(meta).encode(), dtype=np.uint8))
            with pytest.raises(tr.TrainingError, match=f"version {version}"):
                tr.Checkpoint.load(path)

    def test_to_model_checks_every_tensor(self, corpus12):
        ckpt = tr.train(corpus12, TrainConfig(seed=2, **FAST))
        missing = dict(ckpt.arrays)
        missing.pop("gcn.dep.w2")
        with pytest.raises(KeyError, match="missing tensor 'gcn.dep.w2'"):
            replace(ckpt, arrays=missing).to_model()
        wide = dict(ckpt.arrays)
        wide["enc.w_mix"] = np.zeros((wide["enc.w_mix"].shape[0], 1))
        with pytest.raises(ValueError, match="'enc.w_mix': checkpoint shape"):
            replace(ckpt, arrays=wide).to_model()


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
        serial = tr.extract_corpus(trained, corpus12, workers=1)
        parallel = tr.extract_corpus(trained, corpus12, workers=2)
        assert serial == parallel


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
        model = ckpt.to_model()
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
