import ast
import importlib
import inspect
import json
import math
import pkgutil
import signal
import warnings
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import synoie
from synoie import autodiff as ad
from synoie import cli
from synoie import model as model_mod
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


@contextmanager
def time_limit(seconds: int):
    """Fail the block with TimeoutError once it has run ``seconds`` seconds."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

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
        # the last two were config keys before checkpoint format 2
        for raw in ({"d_h": 8, "mystery_knob": 3}, {"weights": {"delta": 1.0}},
                    {"flatten": {"punct_tags": ["."]}}, {"encoder_kind": "toy"}):
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
    "max_arg": 5, "dev_fraction": 0.0,
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


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def small_memory():
    """Lets a fresh model ask for 64 MiB at most, so that a drawn width or
    max_arg is rejected before anything large is allocated."""
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
        (("d_l",), 10 ** 9), (("max_arg",), 10 ** 9), (("lr",), 2 ** 1100),
    ], ids=["lr-nan", "lr-inf", "lr-zero", "lr-negative", "eval-every-zero",
            "d-h-huge", "d-l-huge", "max-arg-huge", "lr-beyond-float"])
    def test_out_of_range_config_is_data_error(self, fuzz_dir, example_corpus_path,
                                               capsys, path, value):
        # before: exit 3, a ZeroDivisionError or MemoryError traceback, or a
        # run building 2e9 tags
        rc = self.train(fuzz_dir, example_corpus_path,
                        replaced(CONFIG_RECORD, path, value))
        assert rc == 2
        assert capsys.readouterr().err.startswith("data error: ")

    def test_memory_error_is_data_error(self, fuzz_dir, example_corpus_path, capsys,
                                        monkeypatch):
        def no_memory(*args):
            raise MemoryError("Unable to allocate 9.0 GiB")

        monkeypatch.setattr(model_mod.EncoderParams, "init", no_memory)
        assert self.train(fuzz_dir, example_corpus_path, CONFIG_RECORD) == 2
        assert capsys.readouterr().err.startswith("data error: Unable to allocate")


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

    def test_numeric_failure_exit_code(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "gradcheck_run",
                            lambda *a, **kw: 1.0)
        rc = cli.main(["gradcheck", "--seed", "0"])
        assert rc == 3
        assert "FAIL" in capsys.readouterr().err


class TestExtractWorkers:
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
