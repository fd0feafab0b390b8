import json
from pathlib import Path

import pytest

from synoie import cli
from synoie.synthetic import write_corpus

DATA = Path(__file__).resolve().parent.parent / "data"


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "small.jsonl"
    write_corpus(path, 8, seed=2)
    return path


FAST_FLAGS = ["--d-h", "8", "--d-l", "4", "--epochs", "3", "--seed", "0",
              "--dev-fraction", "0.0"]


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

    def test_variant_flag(self, example_corpus_path, tmp_path):
        rc = cli.main(["build-graphs", "--corpus", str(example_corpus_path),
                       "--view", "const", "--out", str(tmp_path),
                       "--const-variant", "v3"])
        assert rc == 0
        payload = json.loads((tmp_path / "s0000.const.json").read_text())
        assert len(payload["edges"]) == 10


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

    def test_unknown_config_key_is_data_error(self, small_corpus, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"d_h": 8, "mystery_knob": 3}))
        rc = cli.main(["train", "--corpus", str(small_corpus),
                       "--config", str(cfg), "--out-ckpt", str(tmp_path / "m")])
        assert rc != 0


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
