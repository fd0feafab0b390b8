"""Regression fixture: training losses and predictions on the bundled corpus.

``tests/data/kernel_regression.json`` was written by running this module as
a script (``PYTHONPATH=src python tests/test_kernel_regression.py``) on the
per-token list kernel that preceded the matrix kernel.  It holds the
per-epoch loss history of a model trained on ``data/sample_corpus.jsonl``
(seed 0, ``d_h=16``, ``d_l=8``, learning rate 0.05, 3 epochs, R1-R3 on,
early stop off, the default dev fraction) and, for every sentence and
candidate verb, the tags and probabilities that ``Model.predict`` of the
returned checkpoint gives.  Any rewrite of the kernel must reproduce the
tags exactly and the losses and probabilities to 1e-9.  Running the script
again overwrites the fixture; do so only to record an intended change of
behaviour.
"""

import json
import sys
from pathlib import Path

import pytest

from synoie import training
from synoie.config import TrainConfig
from synoie.corpus import load_corpus
from synoie.model import SentenceGraphs

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "data" / "sample_corpus.jsonl"
FIXTURE = Path(__file__).resolve().parent / "data" / "kernel_regression.json"
CONFIG = dict(seed=0, d_h=16, d_l=8, lr=0.05, epochs=3, use_r1=True,
              use_r2=True, use_r3=True, early_stop_train_acc=None)


def capture() -> dict:
    sentences = load_corpus(CORPUS)
    ckpt = training.train(sentences, TrainConfig(**CONFIG))
    model = ckpt.to_model()
    predictions = []
    for i, s in enumerate(sentences):
        graphs = SentenceGraphs.build(s, model.cfg.flatten)
        for verb in s.verbs:
            tags, probs = model.predict(s, verb, graphs, sentence_id=i)
            predictions.append({"sentence": i, "verb": verb, "tags": tags,
                                "probs": probs})
    return {"config": CONFIG,
            "losses": [rec["loss"] for rec in ckpt.history],
            "predictions": predictions}


@pytest.fixture(scope="module")
def runs():
    return json.loads(FIXTURE.read_text(encoding="utf-8")), capture()


def test_loss_history_matches_fixture(runs):
    want, got = runs
    assert got["config"] == want["config"]
    assert got["losses"] == pytest.approx(want["losses"], rel=0, abs=1e-9)


def test_predictions_match_fixture(runs):
    want, got = runs
    assert len(got["predictions"]) == len(want["predictions"])
    for g, w in zip(got["predictions"], want["predictions"]):
        assert (g["sentence"], g["verb"]) == (w["sentence"], w["verb"])
        assert g["tags"] == w["tags"]
        assert g["probs"] == pytest.approx(w["probs"], rel=0, abs=1e-9)


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(capture(), indent=1) + "\n", encoding="utf-8")
    sys.exit(0)
