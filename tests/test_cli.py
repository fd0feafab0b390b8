import ast
import importlib
import inspect
import json
import math
import multiprocessing
import os
import pkgutil
import signal
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import synoie
from synoie import autodiff as ad
from synoie import cli
from synoie import model as model_mod
from synoie import training
from synoie.corpus import load_corpus, save_corpus
from synoie.graphs import FlattenConfig
from synoie.model import SentenceGraphs
from synoie.synthetic import generate_corpus

DATA = Path(__file__).resolve().parent.parent / "data"


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "small.jsonl"
    save_corpus(generate_corpus(8, seed=2), path)
    return path


FAST_FLAGS = ["--d-h", "8", "--d-l", "4", "--epochs", "3", "--seed", "0",
              "--dev-fraction", "0.0"]


class Overrun(BaseException):
    """Raised by ``time_limit``.  Not an ``Exception``, so no handler in the
    CLI can turn a hang into an exit code (``TimeoutError`` is an ``OSError``,
    which ``cli.main`` maps to exit 2)."""


@contextmanager
def time_limit(seconds: int):
    """Fail the block with ``Overrun`` once it has run ``seconds`` seconds."""
    def expire(signum, frame):
        raise Overrun(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


DEEP_TREES = {
    # 2,000 nested clauses around a two-word sentence
    "nested-2000": ({"tokens": ["dogs", "bark"],
                     "const_ptb": "(S " * 1999 + "(S (NP (NNS dogs)) (VP (VBP bark)))"
                                  + ")" * 1999,
                     "dep_conllu": [[1, "nsubj"], [-1, "ROOT"]], "verbs": [1]},
                    {(0, 1, "S")}, ["S"] * 2000 + ["VP"]),
    # one word under a chain of 40 phrase nodes
    "unary-40": ({"tokens": ["go"], "const_ptb": "(S " * 39 + "(VP (VB go))" + ")" * 39,
                  "dep_conllu": [[-1, "ROOT"]], "verbs": [0]},
                 set(), ["S"] * 39 + ["VP"]),
}


class TestBuildGraphs:
    def test_json_both_views(self, example_corpus_path, tmp_path, capsys):
        rc = cli.main(["build-graphs", "--corpus", str(example_corpus_path),
                       "--out", str(tmp_path), "--format", "json"])
        assert rc == 0
        files = sorted(p.name for p in tmp_path.iterdir())
        assert files == ["s0000.const.json", "s0000.dep.json"]
        payload = json.loads((tmp_path / "s0000.const.json").read_text())
        assert len(payload["edges"]) == 9

    def test_dot_const_has_nine_edges(self, example_corpus_path, tmp_path):
        rc = cli.main(["build-graphs", "--corpus", str(example_corpus_path),
                       "--view", "const", "--out", str(tmp_path),
                       "--format", "dot"])
        assert rc == 0
        dot = (tmp_path / "s0000.const.dot").read_text()
        assert dot.count(" -- ") == 9

    def test_dep_view_has_n_minus_1_edges(self, example_corpus_path, tmp_path):
        rc = cli.main(["build-graphs", "--corpus", str(example_corpus_path),
                       "--view", "dep", "--out", str(tmp_path)])
        assert rc == 0
        payload = json.loads((tmp_path / "s0000.dep.json").read_text())
        assert len(payload["edges"]) == len(payload["nodes"]) - 1

    def test_bad_format_is_usage_error(self, example_corpus_path, tmp_path):
        rc = cli.main(["build-graphs", "--corpus", str(example_corpus_path),
                       "--out", str(tmp_path), "--format", "xml"])
        assert rc == 1

    def test_missing_corpus_is_data_error(self, tmp_path):
        rc = cli.main(["build-graphs", "--corpus", str(tmp_path / "nope.jsonl"),
                       "--out", str(tmp_path)])
        assert rc == 2

    def test_bad_tree_names_its_line(self, example_corpus_path, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        good = example_corpus_path.read_text()
        bad.write_text(good + json.dumps(dict(json.loads(good), tokens=["x"],
                                              const_ptb="(S (NN x)")) + "\n")
        rc = cli.main(["build-graphs", "--corpus", str(bad), "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == "data error: line 2: missing ')'\n"

    def test_variant_flag(self, example_corpus_path, tmp_path):
        rc = cli.main(["build-graphs", "--corpus", str(example_corpus_path),
                       "--view", "const", "--out", str(tmp_path),
                       "--const-variant", "v3"])
        assert rc == 0
        payload = json.loads((tmp_path / "s0000.const.json").read_text())
        assert len(payload["edges"]) == 10

    @pytest.mark.parametrize("name", sorted(DEEP_TREES))
    def test_deep_tree_loads_and_builds(self, tmp_path, name):
        record, const_edges, last_path = DEEP_TREES[name]
        path = tmp_path / "deep.jsonl"
        path.write_text(json.dumps(record) + "\n")
        with time_limit(10):
            [sentence] = load_corpus(path)
            graphs = SentenceGraphs.build(sentence, FlattenConfig())
            assert graphs.const.edges == const_edges
            assert graphs.const.node_labels[-1] == last_path
            assert cli.main(["build-graphs", "--corpus", str(path),
                             "--out", str(tmp_path / "graphs")]) == 0


class TestUsage:
    def test_unknown_flag(self, small_corpus):
        rc = cli.main(["train", "--corpus", str(small_corpus), "--bogus"])
        assert rc == 1

    def test_unknown_command(self):
        rc = cli.main(["frobnicate"])
        assert rc == 1


@pytest.fixture(scope="module")
def ckpt_path(small_corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("ck") / "model.npz"
    rc = cli.main(["train", "--corpus", str(small_corpus),
                   "--out-ckpt", str(out)] + FAST_FLAGS)
    assert rc == 0
    return out


class TestTrainExtractScore:
    def test_extract_writes_jsonl(self, ckpt_path, small_corpus, tmp_path):
        out = tmp_path / "pred.jsonl"
        rc = cli.main(["extract", "--ckpt", str(ckpt_path),
                       "--corpus", str(small_corpus), "--out", str(out)])
        assert rc == 0
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(lines) == 8
        assert all("sentence_id" in r and "tuples" in r for r in lines)
        for rec in lines:
            for t in rec["tuples"]:
                assert set(t) == {"confidence", "spans", "texts"}
                assert "REL" in t["spans"]

    def test_score_text_report(self, ckpt_path, small_corpus, tmp_path, capsys):
        pred = tmp_path / "pred.jsonl"
        cli.main(["extract", "--ckpt", str(ckpt_path),
                  "--corpus", str(small_corpus), "--out", str(pred)])
        rc = cli.main(["score", "--pred", str(pred),
                       "--gold", str(small_corpus), "--mode", "exact"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "F1=" in out and "AUC=" in out

    def test_config_file_with_flag_override(self, small_corpus, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"d_h": 8, "d_l": 4, "epochs": 50,
                                        "dev_fraction": 0.0}))
        out = tmp_path / "m.npz"
        # the flag wins over the config file's epochs
        rc = cli.main(["train", "--corpus", str(small_corpus),
                       "--config", str(cfg_path), "--epochs", "2",
                       "--out-ckpt", str(out), "--seed", "0"])
        assert rc == 0
        from synoie.training import Checkpoint

        ckpt = Checkpoint.load(out)
        assert ckpt.config.epochs == 2
        assert ckpt.config.d_h == 8

    def test_env_seed_fallback(self, small_corpus, tmp_path, monkeypatch):
        monkeypatch.setenv("SMILE_SEED", "123")
        out = tmp_path / "m.npz"
        rc = cli.main(["train", "--corpus", str(small_corpus),
                       "--out-ckpt", str(out), "--d-h", "8", "--d-l", "4",
                       "--epochs", "1", "--dev-fraction", "0.0"])
        assert rc == 0
        from synoie.training import Checkpoint

        assert Checkpoint.load(out).config.seed == 123

    def test_config_file_seed_beats_env(self, small_corpus, tmp_path, monkeypatch):
        monkeypatch.setenv("SMILE_SEED", "123")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seed": 7, "d_h": 8, "d_l": 4,
                                        "epochs": 1, "dev_fraction": 0.0}))
        out = tmp_path / "m.npz"
        rc = cli.main(["train", "--corpus", str(small_corpus),
                       "--config", str(cfg_path), "--out-ckpt", str(out)])
        assert rc == 0
        from synoie.training import Checkpoint

        assert Checkpoint.load(out).config.seed == 7


class TestScoreErrors:
    def test_pred_sentence_id_out_of_range(self, tmp_path):
        bad = tmp_path / "pred.jsonl"
        bad.write_text(json.dumps({"sentence_id": 99, "tuples": []}) + "\n")
        rc = cli.main(["score", "--pred", str(bad),
                       "--gold", str(DATA / "score_fixture_gold.jsonl")])
        assert rc == 2

    @pytest.mark.parametrize("sid", ["0", True, None])
    def test_pred_sentence_id_not_an_integer(self, tmp_path, sid):
        bad = tmp_path / "pred.jsonl"
        bad.write_text(json.dumps({"sentence_id": sid, "tuples": []}) + "\n")
        rc = cli.main(["score", "--pred", str(bad),
                       "--gold", str(DATA / "score_fixture_gold.jsonl")])
        assert rc == 2

    def test_pred_sentence_id_float(self, tmp_path):
        bad = tmp_path / "pred.jsonl"
        bad.write_text(json.dumps({"sentence_id": 1.0, "tuples": []}) + "\n")
        rc = cli.main(["score", "--pred", str(bad),
                       "--gold", str(DATA / "score_fixture_gold.jsonl")])
        assert rc == 2

    def test_pred_sentence_id_duplicate(self, tmp_path, capsys):
        bad = tmp_path / "pred.jsonl"
        bad.write_text("".join(json.dumps({"sentence_id": 0, "tuples": []}) + "\n"
                               for _ in range(2)))
        rc = cli.main(["score", "--pred", str(bad),
                       "--gold", str(DATA / "score_fixture_gold.jsonl")])
        assert rc == 2
        assert "duplicate sentence_id 0" in capsys.readouterr().err

    @pytest.mark.parametrize("line", [
        [0, []],
        {"sentence_id": 0, "tuples": [{"spans": {"REL": [1, 5]}}]},
        {"sentence_id": 0, "tuples": [{"spans": {"REL": 1}}]},
        {"sentence_id": 0, "tuples": [5]},
        {"sentence_id": 0, "tuples": {"REL": [1, 1]}},
        {"sentence_id": 0, "tuples": [{"spans": [[1, 1]]}]},
        {"sentence_id": 0, "tuples": [{"texts": "likes"}]},
        {"sentence_id": 0, "tuples": [{"confidence": None, "spans": {"REL": [1, 1]}}]},
        {"sentence_id": 0, "tuples": [{"confidence": [0.5], "spans": {"REL": [1, 1]}}]},
        {"sentence_id": 0, "tuples": [{"confidence": True, "spans": {"REL": [1, 1]}}]},
        {"sentence_id": 0, "tuples": [{"confidence": float("nan"),
                                       "spans": {"REL": [1, 1]}}]},
        {"sentence_id": 0, "tuples": [{"confidence": float("inf"),
                                       "texts": {"REL": "likes"}}]},
        {"sentence_id": 0, "tuples": [{"texts": {"REL": "likes", "foo": "Ann"}}]},
        {"sentence_id": 0, "tuples": [{"spans": {"REL": [1, 1], "ARG": [0, 0]}}]},
    ], ids=["not-an-object", "span-past-the-end", "span-not-a-pair",
            "tuple-not-an-object", "tuples-not-a-list", "spans-not-an-object",
            "texts-not-an-object", "confidence-null", "confidence-list",
            "confidence-bool", "confidence-nan", "confidence-inf",
            "role-unknown", "role-without-index"])
    def test_pred_line_malformed(self, tmp_path, capsys, request, line):
        bad = tmp_path / "pred.jsonl"
        bad.write_text(json.dumps(line) + "\n")
        with time_limit(10):
            rc = cli.main(["score", "--pred", str(bad),
                           "--gold", str(DATA / "score_fixture_gold.jsonl")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: line 1:")
        if request.node.callspec.id.startswith("role-"):
            role = "foo" if "foo" in json.dumps(line) else "ARG"
            assert f"unknown role {role!r}" in err

    def test_missing_vectors_file_is_data_error(self, small_corpus, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"d_h": 8, "d_l": 4, "epochs": 1,
                                   "encoder_vectors": str(tmp_path / "nope.jsonl")}))
        rc = cli.main(["train", "--corpus", str(small_corpus),
                       "--config", str(cfg), "--out-ckpt", str(tmp_path / "m")])
        assert rc == 2

    def test_unknown_config_key_is_data_error(self, small_corpus, tmp_path):
        cfg = tmp_path / "cfg.json"
        # the last three were config keys before checkpoint formats 2 and 3
        for raw in ({"d_h": 8, "mystery_knob": 3}, {"weights": {"delta": 1.0}},
                    {"flatten": {"punct_tags": ["."]}}, {"encoder_kind": "toy"},
                    {"max_arg": 5}):
            cfg.write_text(json.dumps(raw))
            rc = cli.main(["train", "--corpus", str(small_corpus),
                           "--config", str(cfg), "--out-ckpt", str(tmp_path / "m")])
            assert rc == 2

    @pytest.mark.parametrize("raw, named", [
        ({"d_h": "8"}, "'d_h'"),
        ([1], "config must be a JSON object"),
        ("d_h", "config must be a JSON object"),
        ({"flatten": {"clause_tags": 5}}, "flatten.clause_tags"),
        ({"flatten": {"clause_tags": ["S", 1]}}, "flatten.clause_tags"),
        ({"flatten": [8]}, "flatten must be a JSON object"),
        ({"weights": {"alpha": "0.1"}}, "'alpha'"),
        ({"use_r1": 0}, "'use_r1'"),
        ({"encoder_vectors": 3}, "'encoder_vectors'"),
    ], ids=["int-as-string", "list", "string", "clause-tags-int",
            "clause-tag-not-a-string", "flatten-list", "weight-as-string",
            "bool-as-int", "path-as-int"])
    def test_config_value_of_wrong_type_is_data_error(self, small_corpus, tmp_path,
                                                      capsys, raw, named):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        rc = cli.main(["train", "--corpus", str(small_corpus),
                       "--config", str(cfg), "--out-ckpt", str(tmp_path / "m")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and named in err

    @pytest.mark.parametrize("text, message", [
        ("[" * 100_000 + "]" * 100_000, "bad JSON: nested too deeply"),
        ('{"d_h": 8,\n "lr": oops}', "bad JSON: Expecting value at line 2 column 8"),
    ], ids=["nested-too-deeply", "bad-json-on-line-2"])
    def test_config_that_is_not_json_is_data_error(self, small_corpus, tmp_path,
                                                   capsys, text, message):
        # before: json's RecursionError ended train in a traceback (exit 1),
        # and bad JSON read json's own message
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        rc = cli.main(["train", "--corpus", str(small_corpus),
                       "--config", str(cfg), "--out-ckpt", str(tmp_path / "m")])
        assert rc == 2
        assert capsys.readouterr().err == f"data error: {message}\n"


# any JSON value, including NaN and the infinities that json.loads accepts
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda kids: (st.lists(kids, max_size=3)
                  | st.dictionaries(st.text(max_size=6), kids, max_size=3)),
    max_leaves=6)

GOLD_RECORD = json.loads((DATA / "score_fixture_gold.jsonl").read_text().splitlines()[0])
CORPUS_FIELDS = [(), ("tokens",), ("tokens", 0), ("const_ptb",), ("dep_conllu",),
                 ("dep_conllu", 0), ("dep_conllu", 0, 0), ("dep_conllu", 0, 1),
                 ("verbs",), ("verbs", 0), ("tuples",), ("tuples", 0),
                 ("tuples", 0, "verb"), ("tuples", 0, "spans"),
                 ("tuples", 0, "spans", "REL"), ("tuples", 0, "spans", "ARG1", 1)]

PRED_RECORD = {"sentence_id": 0, "tuples": [
    {"confidence": 0.9, "spans": {"ARG0": [0, 0], "REL": [1, 1]}},
    {"confidence": 0.5, "texts": {"REL": "likes", "ARG1": "the apple"}}]}
PRED_FIELDS = [(), ("sentence_id",), ("tuples",), ("tuples", 0),
               ("tuples", 0, "confidence"), ("tuples", 0, "spans"),
               ("tuples", 0, "spans", "REL"), ("tuples", 0, "spans", "REL", 0),
               ("tuples", 1, "confidence"), ("tuples", 1, "texts"),
               ("tuples", 1, "texts", "ARG1")]


def replaced(record, path, value):
    """A copy of ``record`` with the item at ``path`` set to ``value``."""
    if not path:
        return value
    out = json.loads(json.dumps(record))
    inner = out
    for key in path[:-1]:
        inner = inner[key]
    inner[path[-1]] = value
    return out


# every TrainConfig key; training stops after its first epoch (accuracy >= 0),
# so a replaced ``epochs`` asks for no long run
CONFIG_RECORD = {
    "seed": 0, "d_h": 4, "d_l": 3, "lr": 0.01, "epochs": 2, "batch_size": 8,
    "dev_fraction": 0.0,
    "weights": {"alpha": 0.024, "beta": 0.012, "gamma": 0.012},
    "flatten": {"max_distance": 8, "variant": "paper", "clause_tags": ["S", "SBAR"]},
    "use_dep": True, "use_const": True, "use_gcn": True, "use_r1": True,
    "use_r2": True, "use_r3": True, "encoder_vectors": None,
    "early_stop_train_acc": 0.0, "eval_every": 1}
CONFIG_FIELDS = [(), *((k,) for k in CONFIG_RECORD),
                 ("weights", "alpha"), ("weights", "beta"), ("weights", "gamma"),
                 ("flatten", "max_distance"), ("flatten", "variant"),
                 ("flatten", "clause_tags"), ("flatten", "clause_tags", 0)]
VECTORS_FIELDS = [(), ("sentence_id",), ("vectors",), ("vectors", 0),
                  ("vectors", 0, 0)]


def vectors_record(n_tokens, d_h=4):
    return {"sentence_id": 0,
            "vectors": [[0.1 * (i - j) for j in range(d_h)] for i in range(n_tokens)]}


def overflows_training(path, value):
    """Whether exit 3, the numeric failure, is a right answer: only for a
    finite ``lr`` or replayed vector entry so large that training overflows
    float64.  The states grow as lr**4 and the message grams as an entry's
    square, which pass 1.8e308 from about 1e77 and 1e154; 1e50 leaves margin.
    """
    return (path in {("lr",), ("vectors", 0, 0)}
            and isinstance(value, (int, float)) and not isinstance(value, bool)
            and 1e50 <= abs(value) < math.inf)


CKPT_META_FIELDS = [(), ("format_version",), ("config",), ("config", "d_h"),
                    ("config", "encoder_vectors"), ("vocab_tokens",),
                    ("vocab_tokens", 0), ("dep_labels",), ("dep_labels", 0),
                    ("con_labels",), ("epoch",), ("history",), ("history", 0)]


def read_checkpoint(path):
    """A checkpoint's meta object and its tensors."""
    with np.load(path) as z:
        arrays = {k: z[k] for k in z.files}
    return json.loads(bytes(arrays.pop("__meta__")).decode()), arrays


def write_checkpoint(path, meta, arrays):
    """A checkpoint file holding ``meta``, which may be any JSON value."""
    with open(path, "wb") as f:
        np.savez(f, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
                 **arrays)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def small_memory():
    """Lets a fresh model ask for 64 MiB at most, so that a drawn width is
    rejected before anything large is allocated."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model_mod, "physical_memory", lambda: 64 << 20)
        yield


class TestMalformedInputFuzz:
    """One field of a valid record replaced by any JSON value: exit 0 or 2."""

    @settings(max_examples=60, deadline=None)
    @given(path=st.sampled_from(CORPUS_FIELDS), value=json_values)
    def test_corpus_record(self, fuzz_dir, path, value):
        corpus = fuzz_dir / "corpus.jsonl"
        corpus.write_text(json.dumps(replaced(GOLD_RECORD, path, value)) + "\n")
        with time_limit(10):
            rc = cli.main(["build-graphs", "--corpus", str(corpus),
                           "--out", str(fuzz_dir / "graphs")])
        assert rc in (0, 2)

    @settings(max_examples=60, deadline=None)
    @given(path=st.sampled_from(PRED_FIELDS), value=json_values,
           mode=st.sampled_from(["exact", "lexical"]), binary=st.booleans())
    @example(path=("tuples", 0, "confidence"), value=float("nan"),
             mode="exact", binary=False)
    def test_pred_record(self, fuzz_dir, path, value, mode, binary):
        pred = fuzz_dir / "pred.jsonl"
        pred.write_text(json.dumps(replaced(PRED_RECORD, path, value)) + "\n")
        with time_limit(10):
            rc = cli.main(["score", "--pred", str(pred), "--mode", mode,
                           "--gold", str(DATA / "score_fixture_gold.jsonl")]
                          + ["--binary"] * binary)
        assert rc in (0, 2)

    def train(self, fuzz_dir, corpus, config):
        cfg = fuzz_dir / "config.json"
        cfg.write_text(json.dumps(config))
        with time_limit(10):
            return cli.main(["train", "--corpus", str(corpus), "--config", str(cfg),
                             "--out-ckpt", str(fuzz_dir / "model")])

    @pytest.mark.usefixtures("small_memory")
    @settings(max_examples=60, deadline=None)
    @given(path=st.sampled_from(CONFIG_FIELDS), value=json_values)
    @example(path=("weights", "alpha"), value=2 ** 100)  # was a TypeError
    @example(path=("d_h",), value=2000)  # 384 MiB with its training copies
    @example(path=("lr",), value=1e300)
    def test_train_config(self, fuzz_dir, example_corpus_path, path, value):
        rc = self.train(fuzz_dir, example_corpus_path,
                        replaced(CONFIG_RECORD, path, value))
        assert rc in ((0, 2, 3) if overflows_training(path, value) else (0, 2))

    @settings(max_examples=60, deadline=None)
    @given(path=st.sampled_from(VECTORS_FIELDS), value=json_values)
    @example(path=("vectors", 0, 0), value=1e300)
    def test_encoder_vectors(self, fuzz_dir, example_corpus_path, path, value):
        n = len(load_corpus(example_corpus_path)[0].tokens)
        vectors = fuzz_dir / "vectors.jsonl"
        vectors.write_text(json.dumps(replaced(vectors_record(n), path, value)) + "\n")
        rc = self.train(fuzz_dir, example_corpus_path,
                        dict(CONFIG_RECORD, encoder_vectors=str(vectors)))
        assert rc in ((0, 2, 3) if overflows_training(path, value) else (0, 2))

    @settings(max_examples=60, deadline=None)
    @given(change=st.one_of(st.tuples(st.sampled_from(CKPT_META_FIELDS), json_values),
                            st.integers(min_value=0)))
    @example(change=((), [1]))
    @example(change=(("vocab_tokens",), None))
    def test_checkpoint(self, fuzz_dir, ckpt_path, small_corpus, change):
        ckpt = fuzz_dir / "model.npz"
        if isinstance(change, int):
            data = ckpt_path.read_bytes()
            ckpt.write_bytes(data[:change % len(data)])
        else:
            meta, arrays = read_checkpoint(ckpt_path)
            write_checkpoint(ckpt, replaced(meta, *change), arrays)
        with time_limit(10):
            rc = cli.main(["extract", "--ckpt", str(ckpt), "--corpus", str(small_corpus),
                           "--out", str(fuzz_dir / "pred.jsonl")])
        assert rc in (0, 2)

    def test_valid_records_train(self, fuzz_dir, example_corpus_path):
        n = len(load_corpus(example_corpus_path)[0].tokens)
        vectors = fuzz_dir / "vectors.jsonl"
        vectors.write_text(json.dumps(vectors_record(n)) + "\n")
        assert self.train(fuzz_dir, example_corpus_path, CONFIG_RECORD) == 0
        assert self.train(fuzz_dir, example_corpus_path,
                          dict(CONFIG_RECORD, encoder_vectors=str(vectors))) == 0

    @pytest.mark.usefixtures("small_memory")
    @pytest.mark.parametrize("path, value", [
        (("lr",), float("nan")), (("lr",), float("inf")), (("lr",), 0),
        (("lr",), -0.01), (("eval_every",), 0), (("d_h",), 10 ** 5),
        (("d_l",), 10 ** 9), (("lr",), 2 ** 1100),
    ], ids=["lr-nan", "lr-inf", "lr-zero", "lr-negative", "eval-every-zero",
            "d-h-huge", "d-l-huge", "lr-beyond-float"])
    def test_out_of_range_config_is_data_error(self, fuzz_dir, example_corpus_path,
                                               capsys, path, value):
        # before: exit 3, or a ZeroDivisionError or MemoryError traceback
        rc = self.train(fuzz_dir, example_corpus_path,
                        replaced(CONFIG_RECORD, path, value))
        assert rc == 2
        assert capsys.readouterr().err.startswith("data error: ")

    def test_memory_error_is_data_error(self, fuzz_dir, example_corpus_path, capsys,
                                        monkeypatch):
        class NoMemory:
            """A generator whose draws of the model's weights fail."""

            def __init__(self, rng):
                self.rng = rng

            def __getattr__(self, name):
                return getattr(self.rng, name)

            def uniform(self, *args):
                raise MemoryError("Unable to allocate 9.0 GiB")

        real = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda *a: NoMemory(real(*a)))
        assert self.train(fuzz_dir, example_corpus_path, CONFIG_RECORD) == 2
        assert capsys.readouterr().err.startswith("data error: Unable to allocate")


class TestInputLines:
    """The corpus, a ``score --pred`` file and an ``encoder_vectors`` file
    are read by one reader, so an error in any names its 1-based line."""

    GOOD_LINE = {
        "corpus": lambda i: GOLD_RECORD,
        "pred": lambda i: {"tuples": []},
        "vectors": lambda i: dict(vectors_record(5), sentence_id=i),
    }

    def run(self, tmp_path, kind, lines):
        """The command reading ``lines`` (text, or raw bytes) as a ``kind``
        file."""
        path = tmp_path / f"{kind}.jsonl"
        path.write_bytes(b"".join(
            (line if isinstance(line, bytes) else line.encode("utf-8")) + b"\n"
            for line in lines))
        gold = str(DATA / "score_fixture_gold.jsonl")
        if kind == "corpus":
            argv = ["build-graphs", "--corpus", str(path), "--out", str(tmp_path / "g")]
        elif kind == "pred":
            argv = ["score", "--pred", str(path), "--gold", gold]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(dict(CONFIG_RECORD, encoder_vectors=str(path))))
            argv = ["train", "--corpus", gold, "--config", str(cfg),
                    "--out-ckpt", str(tmp_path / "m")]
        return cli.main(argv)

    def good_lines(self, kind, n):
        return [json.dumps(self.GOOD_LINE[kind](i)) for i in range(n)]

    @pytest.mark.parametrize("kind", ["corpus", "pred", "vectors"])
    def test_bad_json_names_its_line(self, tmp_path, capsys, kind):
        # before: json's own "line 1 column 31" for pred and vectors files
        assert self.run(tmp_path, kind, self.good_lines(kind, 2) + ['{"a": oops}']) == 2
        assert capsys.readouterr().err == (
            "data error: line 3: bad JSON: Expecting value at column 7\n")

    @pytest.mark.parametrize("kind", ["corpus", "pred", "vectors"])
    @pytest.mark.parametrize("good, bad, error", [
        (0, b"\xff\xfe", "invalid start byte at byte 1"),
        (2, b'{"a": "\xe9"}', "invalid continuation byte at byte 8"),
    ], ids=["utf-16-bom", "latin-1"])
    def test_non_utf8_names_its_line(self, tmp_path, capsys, kind, good, bad,
                                     error):
        # before: exit 2 with the codec's message and no line
        assert self.run(tmp_path, kind, self.good_lines(kind, good) + [bad]) == 2
        assert capsys.readouterr().err == (
            f"data error: line {good + 1}: not UTF-8: {error}\n")

    @pytest.mark.parametrize("kind, key", [
        ("corpus", "tokens"), ("vectors", "sentence_id"), ("vectors", "vectors")])
    def test_missing_key_names_key_and_line(self, tmp_path, capsys, kind, key):
        # before: "data error: 'sentence_id'" for a vectors line
        record = dict(self.GOOD_LINE[kind](1))
        del record[key]
        assert self.run(tmp_path, kind,
                        self.good_lines(kind, 1) + [json.dumps(record)]) == 2
        assert capsys.readouterr().err == f"data error: line 2: missing key {key!r}\n"

    def test_pred_sentence_id_outside_gold_names_its_line(self, tmp_path, capsys):
        # before: no line named
        lines = self.good_lines("pred", 1) + [json.dumps({"sentence_id": 10})]
        assert self.run(tmp_path, "pred", lines) == 2
        assert capsys.readouterr().err == (
            "data error: line 2: sentence_id 10 outside the gold corpus\n")

    def test_pred_default_id_is_the_zero_based_line(self, tmp_path, capsys):
        lines = self.good_lines("pred", 2) + [json.dumps({"sentence_id": 1})]
        assert self.run(tmp_path, "pred", lines) == 2
        assert capsys.readouterr().err == "data error: line 3: duplicate sentence_id 1\n"


class TestDivergedTraining:
    def test_huge_lr_names_epoch_batch_and_group(self, tmp_path, capsys):
        # lr 1e300 leaves every parameter near 1e300 after the first Adam
        # step: finite, but squared in the message grams.  Before: exit 3 from
        # dev eval naming neither epoch nor group, after numpy's
        # "invalid value encountered in multiply" warning.
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"lr": 1e300}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["train", "--corpus", str(DATA / "example_corpus.jsonl"),
                           "--config", str(cfg), "--out-ckpt", str(tmp_path / "m")])
        assert rc == 3
        assert capsys.readouterr().err == (
            "numeric failure: epoch 1, batch at instance 0: parameter group enc "
            "has a non-finite squared L2 norm after the Adam update\n")

    def test_infinite_batch_loss_prints_a_float(self, tmp_path, capsys):
        # alpha 1e308 overflows the weighted R1 sum of the first batch.
        # Before: the message ended in the ndarray repr "loss=array(inf)".
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["train", "--corpus", str(DATA / "example_corpus.jsonl"),
                           "--alpha", "1e308", "--out-ckpt", str(tmp_path / "m")])
        assert rc == 3
        assert capsys.readouterr().err == (
            "numeric failure: epoch 1, batch at instance 0: loss=inf\n")

    def test_overflow_in_dev_eval_names_epoch(self, tmp_path, capsys):
        # lr 1e80 keeps the parameters' squares finite, but the forward of the
        # dev evaluation overflows
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"lr": 1e80}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["train", "--corpus", str(DATA / "example_corpus.jsonl"),
                           "--config", str(cfg), "--out-ckpt", str(tmp_path / "m")])
        assert rc == 3
        assert capsys.readouterr().err == (
            "numeric failure: epoch 1, dev eval: non-finite value produced by "
            "masked softmax logits\n")


class TestScoreFixture:
    def test_bundled_fixture_headline(self, capsys):
        rc = cli.main(["score", "--pred", str(DATA / "score_fixture_pred.jsonl"),
                       "--gold", str(DATA / "score_fixture_gold.jsonl"),
                       "--report", "json"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["precision"] == pytest.approx(6 / 8)
        assert report["recall"] == pytest.approx(6 / 12)
        assert report["f1"] == pytest.approx(0.6)


class TestGradcheckCommand:
    def test_default_passes(self, capsys):
        rc = cli.main(["gradcheck", "--seed", "0", "--instances", "2",
                       "--size", "5", "--d-h", "6", "--d-l", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "max relative error" in out

    @pytest.mark.parametrize("flag, value, rule", [
        ("--instances", "0", "must be at least 1, got 0"),
        ("--instances", "-2", "must be at least 1, got -2"),
        ("--eps", "0", "must lie in (0, 1e-2], got 0.0"),
        ("--eps", "-0.001", "must lie in (0, 1e-2], got -0.001"),
        ("--eps", "0.1", "must lie in (0, 1e-2], got 0.1"),
        ("--eps", "nan", "must lie in (0, 1e-2], got nan"),
        ("--d-h", "0", "must be at least 1, got 0"),
        ("--d-l", "-1", "must be at least 1, got -1"),
    ], ids=["0", "-2", "eps-0", "eps-negative", "eps-above-1e-2", "eps-nan",
            "d-h-0", "d-l-negative"])
    def test_instances_below_one_is_usage_error(self, monkeypatch, capsys, flag,
                                                value, rule):
        # each flag is checked before any sentence is drawn
        monkeypatch.setattr(cli.synthetic, "generate_corpus", None)
        rc = cli.main(["gradcheck", "--seed", "0", flag, value])
        assert rc == 1
        assert capsys.readouterr().err == f"usage error: {flag} {rule}\n"

    def test_numeric_failure_exit_code(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "gradcheck_run",
                            lambda *a, **kw: 1.0)
        rc = cli.main(["gradcheck", "--seed", "0"])
        assert rc == 3
        assert "FAIL" in capsys.readouterr().err


class TestCheckpointErrors:
    """A malformed checkpoint: exit 2 naming the field or tensor."""

    @pytest.mark.parametrize("field", ["vocab_tokens", "dep_labels", "con_labels"])
    @pytest.mark.parametrize("value", [5, None, [["a"]]], ids=["int", "null", "nested"])
    def test_label_list_of_wrong_type(self, ckpt_path, small_corpus, tmp_path,
                                      capsys, field, value):
        meta, arrays = read_checkpoint(ckpt_path)
        meta[field] = value
        assert self.extract(small_corpus, tmp_path, meta, arrays) == 2
        assert f"checkpoint field {field!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [("epoch", "3"), ("epoch", 1.5),
                                              ("history", [1]), ("history", {})])
    def test_epoch_and_history_of_wrong_type(self, ckpt_path, small_corpus, tmp_path,
                                             capsys, field, value):
        meta, arrays = read_checkpoint(ckpt_path)
        meta[field] = value
        assert self.extract(small_corpus, tmp_path, meta, arrays) == 2
        assert f"checkpoint field {field!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["vocab_tokens", "dep_labels", "con_labels"])
    def test_duplicate_labels(self, ckpt_path, small_corpus, tmp_path, capsys, field):
        # before: a dep_labels or con_labels list with a repeat, of the
        # trained length, loaded and left a W1 row unused
        meta, arrays = read_checkpoint(ckpt_path)
        meta[field][-1] = meta[field][-2]
        assert self.extract(small_corpus, tmp_path, meta, arrays) == 2
        assert "duplicate" in capsys.readouterr().err

    def test_meta_list(self, ckpt_path, small_corpus, tmp_path, capsys):
        _, arrays = read_checkpoint(ckpt_path)
        assert self.extract(small_corpus, tmp_path, [1], arrays) == 2
        assert "meta is not a JSON object" in capsys.readouterr().err

    def test_meta_nested_too_deeply(self, ckpt_path, small_corpus, tmp_path,
                                    capsys):
        # before: json's RecursionError ended extract in a traceback
        _, arrays = read_checkpoint(ckpt_path)
        bad = tmp_path / "bad.npz"
        meta = ("[" * 100_000 + "]" * 100_000).encode()
        with open(bad, "wb") as f:
            np.savez(f, __meta__=np.frombuffer(meta, dtype=np.uint8), **arrays)
        rc = cli.main(["extract", "--ckpt", str(bad), "--corpus", str(small_corpus),
                       "--out", str(tmp_path / "pred.jsonl")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"data error: {bad} is not a checkpoint: bad JSON meta: "
            f"nested too deeply\n")

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_tensor(self, ckpt_path, small_corpus, tmp_path, capsys,
                               value):
        # before: a NaN head.w loaded, and extract exited 0 with no tuples
        meta, arrays = read_checkpoint(ckpt_path)
        arrays["head.w"][0, 0] = value
        assert self.extract(small_corpus, tmp_path, meta, arrays) == 2
        assert "tensor 'head.w' is not a finite real array" in capsys.readouterr().err

    def test_unknown_tensor(self, ckpt_path, small_corpus, tmp_path, capsys):
        # before: extract ignored the tensor and exited 0
        meta, arrays = read_checkpoint(ckpt_path)
        arrays["head.extra"] = np.zeros(3)
        assert self.extract(small_corpus, tmp_path, meta, arrays) == 2
        assert "tensor 'head.extra'" in capsys.readouterr().err
        # an ablated model holds no tensors of its view that is off, so a
        # checkpoint that still holds them, as older ones did, is refused
        meta, arrays = read_checkpoint(ckpt_path)
        meta["config"]["use_const"] = False
        arrays["head.w"] = arrays["head.w"][:, :2 * meta["config"]["d_h"]]
        assert self.extract(small_corpus, tmp_path, meta, arrays) == 2
        assert capsys.readouterr().err == (
            "data error: checkpoint holds tensor 'gcn.con.b', which the model "
            "does not have\n")

    def test_jsonl_checkpoint_says_not_an_npz_archive(self, small_corpus, tmp_path,
                                                      capsys):
        # before: the message passed on numpy's advice to unpickle the file
        rc = cli.main(["extract", "--ckpt", str(small_corpus), "--corpus",
                       str(small_corpus), "--out", str(tmp_path / "pred.jsonl")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == f"data error: {small_corpus} is not a checkpoint: not an .npz archive\n"
        assert "pickle" not in err

    @pytest.mark.parametrize("kind", ["truncated", "npy", "empty", "text"])
    def test_not_an_npz_archive(self, ckpt_path, small_corpus, tmp_path, capsys,
                                kind):
        bad = tmp_path / "bad.npz"
        if kind == "truncated":
            bad.write_bytes(ckpt_path.read_bytes()[:-100])
        elif kind == "npy":
            with open(bad, "wb") as f:
                np.save(f, np.zeros(3))
        else:
            bad.write_text("" if kind == "empty" else "not a checkpoint\n")
        rc = cli.main(["extract", "--ckpt", str(bad), "--corpus", str(small_corpus),
                       "--out", str(tmp_path / "pred.jsonl")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"data error: {bad} is not a checkpoint")

    @staticmethod
    def extract(corpus, tmp_path, meta, arrays):
        bad = tmp_path / "bad.npz"
        write_checkpoint(bad, meta, arrays)
        return cli.main(["extract", "--ckpt", str(bad), "--corpus", str(corpus),
                         "--out", str(tmp_path / "pred.jsonl")])


class TestFileSystemErrors:
    @pytest.mark.parametrize("case", ["build-graphs-out-is-a-file",
                                      "train-corpus-is-a-directory",
                                      "train-out-ckpt-is-a-directory",
                                      "extract-out-is-a-directory"])
    def test_os_error_is_data_error(self, ckpt_path, small_corpus, tmp_path,
                                    capsys, case):
        # before: FileExistsError and IsADirectoryError tracebacks
        a_file = tmp_path / "file"
        a_file.write_text("x")
        argv = {
            "build-graphs-out-is-a-file": ["build-graphs", "--corpus", str(small_corpus),
                                           "--out", str(a_file)],
            "train-corpus-is-a-directory": ["train", "--corpus", str(tmp_path),
                                            "--out-ckpt", str(tmp_path / "m.npz")],
            "train-out-ckpt-is-a-directory": ["train", "--corpus", str(small_corpus),
                                              "--out-ckpt", str(tmp_path)],
            "extract-out-is-a-directory": ["extract", "--ckpt", str(ckpt_path),
                                           "--corpus", str(small_corpus),
                                           "--out", str(tmp_path)],
        }[case]
        assert cli.main(argv + FAST_FLAGS * argv[0].startswith("train")) == 2
        assert capsys.readouterr().err.startswith("data error: ")

    def test_extract_out_directory_fails_before_extracting(
            self, ckpt_path, small_corpus, tmp_path, monkeypatch, capsys):
        # before: exit 2 only once the whole extraction had run
        def extract_corpus(*args, **kwargs):
            raise AssertionError("extraction ran")

        monkeypatch.setattr(training, "extract_corpus", extract_corpus)
        assert cli.main(["extract", "--ckpt", str(ckpt_path), "--corpus",
                         str(small_corpus), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            f"data error: --out {tmp_path} is a directory\n")

    def test_time_limit_still_fails_a_hang_inside_main(self, monkeypatch):
        # mapping OSError to exit 2 must not swallow the fuzz tests' hang guard
        def hang(args):
            signal.pause()

        monkeypatch.setattr(cli, "_cmd_score", hang)
        with pytest.raises(Overrun):
            with time_limit(1):
                cli.main(["score", "--pred", "p", "--gold", "g"])


class TestFixedTagSet:
    @pytest.mark.parametrize("command", ["train", "extract", "score", "build-graphs"])
    def test_role_beyond_arg5_is_data_error(self, ckpt_path, small_corpus,
                                            example_corpus_path, tmp_path, capsys,
                                            command):
        # before: train and extract took ARG6 under {"max_arg": 7}
        rec = json.loads(example_corpus_path.read_text())
        spans = rec["tuples"][0]["spans"]
        spans["ARG6"] = spans.pop("ARG2")
        corpus = tmp_path / "arg6.jsonl"
        corpus.write_text(small_corpus.read_text().splitlines()[0] + "\n"
                          + json.dumps(rec) + "\n")
        pred = tmp_path / "pred.jsonl"
        pred.write_text("")
        argv = {
            "train": ["train", "--corpus", str(corpus),
                      "--out-ckpt", str(tmp_path / "m.npz")] + FAST_FLAGS,
            "extract": ["extract", "--ckpt", str(ckpt_path), "--corpus", str(corpus),
                        "--out", str(pred)],
            "score": ["score", "--pred", str(pred), "--gold", str(corpus)],
            "build-graphs": ["build-graphs", "--corpus", str(corpus),
                             "--out", str(tmp_path / "graphs")],
        }[command]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == (
            "data error: line 2: role 'ARG6' beyond ARG5\n")


class FakePool:
    """Stands in for ``multiprocessing.Pool``: records its size and maps in
    this process."""

    sizes: list[int] = []

    def __init__(self, size, initializer, initargs):
        FakePool.sizes.append(size)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return list(map(fn, items))


class TestExtractWorkers:
    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_is_usage_error(self, ckpt_path, small_corpus,
                                              tmp_path, capsys, workers):
        # before: silently serial
        rc = cli.main(["extract", "--ckpt", str(ckpt_path), "--corpus",
                       str(small_corpus), "--out", str(tmp_path / "p.jsonl"),
                       "--workers", workers])
        assert rc == 1
        assert "--workers must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("workers, cpus, size", [
        (100_000, 4, 4), (100_000, 64, 8), (3, 64, 3), (100_000, 1, None),
        (100_000, None, None), (1, 64, None)])
    def test_pool_size_is_bounded(self, ckpt_path, small_corpus, tmp_path,
                                  monkeypatch, workers, cpus, size):
        # before: --workers 100000 asked the OS for 100,000 processes
        serial = tmp_path / "serial.jsonl"
        assert cli.main(["extract", "--ckpt", str(ckpt_path), "--corpus",
                         str(small_corpus), "--out", str(serial)]) == 0
        monkeypatch.setattr(multiprocessing, "Pool", FakePool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(FakePool, "sizes", [])
        out = tmp_path / "pooled.jsonl"
        assert cli.main(["extract", "--ckpt", str(ckpt_path), "--corpus",
                         str(small_corpus), "--out", str(out),
                         "--workers", str(workers)]) == 0
        assert FakePool.sizes == ([] if size is None else [size])
        assert out.read_text() == serial.read_text()

    @pytest.mark.parametrize("fault", ["duplicate-label", "tensor-shape",
                                       "missing-vectors"])
    def test_unbuildable_model_is_data_error_before_any_pool(
            self, ckpt_path, small_corpus, tmp_path, monkeypatch, capsys, fault):
        # before: --workers 2 hung, the pool replacing its failed workers
        meta, arrays = read_checkpoint(ckpt_path)
        if fault == "duplicate-label":
            meta["dep_labels"][-1] = meta["dep_labels"][-2]
        elif fault == "tensor-shape":
            arrays["gcn.dep.w1"] = arrays["gcn.dep.w1"][:-1]
        else:
            meta["config"]["encoder_vectors"] = str(tmp_path / "absent.npz")
        bad = tmp_path / "bad.npz"
        write_checkpoint(bad, meta, arrays)
        monkeypatch.setattr(multiprocessing, "Pool", FakePool)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(FakePool, "sizes", [])
        assert cli.main(["extract", "--ckpt", str(bad), "--corpus",
                         str(small_corpus), "--out", str(tmp_path / "p.jsonl"),
                         "--workers", "2"]) == 2
        assert capsys.readouterr().err.startswith("data error: ")
        assert FakePool.sizes == []

    def test_parallel_matches_serial(self, ckpt_path, small_corpus, tmp_path):
        serial = tmp_path / "p1.jsonl"
        parallel = tmp_path / "p2.jsonl"
        assert cli.main(["extract", "--ckpt", str(ckpt_path),
                         "--corpus", str(small_corpus),
                         "--out", str(serial)]) == 0
        assert cli.main(["extract", "--ckpt", str(ckpt_path),
                         "--corpus", str(small_corpus),
                         "--out", str(parallel), "--workers", "2"]) == 0
        assert serial.read_text() == parallel.read_text()


class TestAblateCommand:
    def test_grid_emits_eight_rows(self, small_corpus, capsys):
        rc = cli.main(["ablate", "--corpus", str(small_corpus),
                       "--report", "json"] + FAST_FLAGS)
        assert rc == 0
        out = capsys.readouterr().out
        assert "desk-scale" in out
        rows = json.loads(out.splitlines()[-1])
        assert len(rows) == 8
        names = [r["name"] for r in rows]
        assert names[0] == "full" and "w/o GCN -R3" in names


# Exceptions cli.main lets through: each signals a bug, not bad input.
INTERNAL_INVARIANTS = {
    ad.NumericsError: "base class of the kernel's errors; never raised itself",
    ad.ShapeMismatch: "kernel operands of the wrong shape; inputs are checked "
                      "before they reach the kernel",
    ad.EmptyMask: "a softmax over no entries; every graph view has self-loops",
}


def caught_by_main() -> tuple[type, ...]:
    """The exception classes named by the except clauses of cli.main."""
    caught = []
    for node in ast.walk(ast.parse(inspect.getsource(cli.main))):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            named = eval(compile(ast.Expression(node.type), "except", "eval"),
                         vars(cli))
            caught.extend(named if isinstance(named, tuple) else [named])
    return tuple(caught)


def package_exceptions() -> set[type]:
    """Every Exception subclass defined in a synoie module."""
    found = set()
    for info in pkgutil.iter_modules(synoie.__path__):
        module = importlib.import_module(f"synoie.{info.name}")
        found.update(obj for obj in vars(module).values()
                     if isinstance(obj, type) and issubclass(obj, Exception)
                     and obj.__module__ == module.__name__)
    return found


class TestExitCodes:
    def test_every_exception_maps_to_an_exit_code(self):
        exceptions = package_exceptions()
        assert len(exceptions) > len(INTERNAL_INVARIANTS)
        uncaught = {e for e in exceptions if not issubclass(e, caught_by_main())}
        assert uncaught == set(INTERNAL_INVARIANTS)

    def test_bare_preterminal_root_is_data_error(self, tmp_path, capsys):
        corpus = tmp_path / "go.jsonl"
        corpus.write_text(json.dumps({"tokens": ["Go"], "const_ptb": "(VB Go)",
                                      "dep_conllu": [[-1, "ROOT"]],
                                      "verbs": [0]}) + "\n")
        rc = cli.main(["train", "--corpus", str(corpus),
                       "--out-ckpt", str(tmp_path / "m.npz")] + FAST_FLAGS)
        assert rc == 2
        assert "line 1" in capsys.readouterr().err


class JsonParseCalls(ast.NodeVisitor):
    """``module.Class.function`` of every ``json.load`` or ``json.loads``
    call in one module; any other way to reach them (``from json import``,
    an alias) counts under ``<import>``."""

    def __init__(self, module: str):
        self.scope = [module]
        self.found = set()

    def visit_scope(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = visit_scope

    def visit_Call(self, node):
        f = node.func
        if (isinstance(f, ast.Attribute) and f.attr in ("load", "loads")
                and isinstance(f.value, ast.Name) and f.value.id == "json"):
            self.found.add(".".join(self.scope))
        self.generic_visit(node)

    def visit_Import(self, node):
        if any(a.name == "json" and a.asname for a in node.names):
            self.found.add("<import>")

    def visit_ImportFrom(self, node):
        if node.module == "json":
            self.found.add("<import>")


def test_json_lines_are_read_in_one_place():
    # corpus.parse_json parses every JSON text: each line corpus.read_jsonl
    # reads (corpus, score --pred, encoder_vectors), the checkpoint's meta
    # and the --config file
    callers = set()
    for info in pkgutil.iter_modules(synoie.__path__):
        module = importlib.import_module(f"synoie.{info.name}")
        visitor = JsonParseCalls(info.name)
        visitor.visit(ast.parse(inspect.getsource(module)))
        callers |= visitor.found
    assert callers == {"corpus.parse_json"}
