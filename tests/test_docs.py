import json
import re
from pathlib import Path

import numpy as np
import pytest

from synoie import autodiff as ad
from synoie import model as model_mod
from synoie import training
from synoie.config import TrainConfig
from synoie.model import Model
from synoie.synthetic import generate_corpus
from synoie.training import train

from test_model import default_instance_losses

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_readme_config_block_is_the_default_config():
    """README's configuration block lists every key with its default."""
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(encoding="utf-8"),
                        flags=re.DOTALL)
    configs = [json.loads(b) for b in blocks if b.lstrip().startswith('{\n  "seed"')]
    assert configs == [TrainConfig().to_dict()]


def test_readme_tape_count_is_the_default_instance_tape():
    """The tape size README states is what the default training instance
    records."""
    stated = re.findall(r"records a tape of (\d+) nodes",
                        " ".join(README.read_text(encoding="utf-8").split()))
    parts = default_instance_losses()
    assert [int(k) for k in stated] == [len(ad.Tape(parts["total"]).order)]


def test_readme_batch_statement_is_the_training_loop(monkeypatch):
    """README says training makes one ``masked_nll`` node per batch, walks
    it backward, and builds each sentence's R mask once per run."""
    text = " ".join(README.read_text(encoding="utf-8").split())
    assert "Training makes one `masked_nll` node per batch" in text
    assert "builds it once per sentence per run" in text
    nodes, walked, masks = [], [], []
    nll, backward, r_mask = ad.masked_nll, ad.Tensor.backward, Model.r_mask
    monkeypatch.setattr(ad, "masked_nll", lambda terms: nodes.append(nll(terms)) or nodes[-1])
    monkeypatch.setattr(ad.Tensor, "backward",
                        lambda self: walked.append(self) or backward(self))
    monkeypatch.setattr(Model, "r_mask",
                        lambda self, graphs: masks.append(graphs) or r_mask(self, graphs))
    sentences = generate_corpus(6, seed=2)
    cfg = TrainConfig(d_h=8, d_l=4, epochs=2, batch_size=3, dev_fraction=0.0,
                      early_stop_train_acc=None)
    train(sentences, cfg)
    batches = -(-sum(len(s.verbs) for s in sentences) // cfg.batch_size)
    assert walked == nodes and len(nodes) == cfg.epochs * batches
    assert len(masks) == len(sentences)


def test_readme_batch_state_statement_is_the_training_loop(monkeypatch):
    """README says training builds the shared half once per batch, one node
    per kind over the row stack of the batch's distinct sentences."""
    text = " ".join(README.read_text(encoding="utf-8").split())
    assert ("Training builds that shared half once per batch, as one node per "
            "kind over the row stack of the batch's distinct sentences") in text
    calls = []
    inner = Model.sentence_states

    def building(self, sentences, graphs, sentence_ids):
        states = inner(self, sentences, graphs, sentence_ids)
        if states[0].base.requires_grad:  # not a dev eval's
            calls.append(list(sentence_ids))
        return states

    monkeypatch.setattr(Model, "sentence_states", building)
    sentences = generate_corpus(6, seed=2)
    cfg = TrainConfig(d_h=8, d_l=4, epochs=2, batch_size=3, dev_fraction=0.0,
                      early_stop_train_acc=None)
    train(sentences, cfg)
    batches = -(-sum(len(s.verbs) for s in sentences) // cfg.batch_size)
    assert len(calls) == cfg.epochs * batches
    assert all(len(ids) == len(set(ids)) for ids in calls)
    assert any(len(ids) > 1 for ids in calls)


def test_readme_chunk_statement_is_the_training_loop(monkeypatch):
    """README says training stacks a batch's instances in consecutive chunks
    of at most ``model.CHUNK_ROWS`` rows, in batch order, an instance longer
    than that alone."""
    text = " ".join(README.read_text(encoding="utf-8").split())
    [bound] = re.findall(r"Training stacks a batch's instances in consecutive "
                         r"chunks of at most (\d+) rows, in batch order", text)
    assert int(bound) == model_mod.CHUNK_ROWS
    chunked = []
    inner = training.chunk_batch

    def chunking(members):
        chunks = inner(members)
        chunked.append(([state.n for state, _ in members],
                        [[state.n for state, _ in c.members] for c in chunks]))
        return chunks

    monkeypatch.setattr(training, "chunk_batch", chunking)
    sentences = generate_corpus(12, seed=2)
    train(sentences, TrainConfig(d_h=8, d_l=4, epochs=2, batch_size=16,
                                 dev_fraction=0.0, early_stop_train_acc=None))
    for sizes, chunks in chunked:
        assert [n for chunk in chunks for n in chunk] == sizes
        assert all(sum(chunk) <= int(bound) or len(chunk) == 1 for chunk in chunks)
        # a chunk closes only when the next instance would not fit
        assert all(sum(a) + b[0] > int(bound) for a, b in zip(chunks, chunks[1:]))
    assert any(len(chunks) > 1 for _, chunks in chunked)


def _is_tree_id(value) -> bool:
    return isinstance(value, str) and re.fullmatch(r"[0-9a-f]{40}", value) is not None


@pytest.mark.parametrize("path", BENCH_FILES, ids=[p.name for p in BENCH_FILES])
def test_bench_file_follows_the_readme_schema(path):
    """Every committed ``BENCH_<PR>.json`` holds what README's benchmark
    trajectory schema lists, and its summary is its pairs' quartiles."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert set(doc) == {"pr", "title", "claim", "parent", "change", "host",
                        "seconds", "command", "workloads", "tier1"}
    assert path.name == f"BENCH_{doc['pr']}.json"
    assert isinstance(doc["title"], str) and isinstance(doc["host"], str)
    assert doc["claim"] is None or doc["claim"] in better
    assert _is_tree_id(doc["parent"]["commit"]) and doc["change"]["commit"] is None
    assert all(_is_tree_id(doc[side]["src_tree"]) for side in ("parent", "change"))
    assert doc["seconds"] > 0 and {"{workload}", "{seed}"} <= set(
        re.findall(r"\{\w+\}", doc["command"]))
    assert sorted(doc["workloads"]) == sorted(w["name"] for w in spec["workloads"])
    for runs in doc["workloads"].values():
        pairs, summary = runs["pairs"], runs["summary"]
        assert len(pairs) >= 10
        assert len({p["seed"] for p in pairs}) == len(pairs)
        firsts = [p["first"] for p in pairs]
        assert set(firsts) <= {"parent", "change"}
        assert all(a != b for a, b in zip(firsts, firsts[1:]))
        for pair in pairs:
            for side in ("parent", "change"):
                run = pair[side]
                assert set(run) == {"correct", "attempted", "failed", *better}
                assert run["correct"] is True and 0 <= run["failed"] <= run["attempted"]
        assert set(summary) == set(better)
        for name, sign in better.items():
            values = {side: np.array([p[side][name] for p in pairs])
                      for side in ("parent", "change")}
            for side, v in values.items():
                np.testing.assert_allclose(summary[name][side],
                                           np.percentile(v, [25, 50, 75]), rtol=1e-12)
            won = (values["change"] < values["parent"] if sign == "lower"
                   else values["change"] > values["parent"])
            assert summary[name]["change_better"] == int(won.sum())
    for side in ("parent", "change"):
        t = doc["tier1"][side]
        assert t["passed"] > 0 and t["failed"] >= 0 and t["wall_s"] > 0


def test_a_bench_file_is_committed():
    assert BENCH_FILES


def test_readme_latest_bench_file_is_the_highest_numbered():
    """The file README calls the latest benchmark reading is the committed
    ``BENCH_<PR>.json`` with the highest number."""
    text = " ".join(README.read_text(encoding="utf-8").split())
    named = re.findall(r"The latest, `(BENCH_\d+\.json)`", text)
    newest = max(BENCH_FILES, key=lambda p: int(p.stem.removeprefix("BENCH_")))
    assert named == [newest.name]
