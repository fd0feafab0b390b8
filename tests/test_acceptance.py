"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  The slow criteria (gradients, learnability, ablation grid) run
whole training or finite-difference loops and take a few minutes combined.
"""

import json
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import numpy as np

from synoie import autodiff as ad
from synoie import cli
from synoie import evaluation as ev
from synoie import gcn as gcn_mod
from synoie import graphs as g
from synoie import losses as L
from synoie.config import TrainConfig
from synoie.corpus import expand_instances, load_corpus, save_corpus
from synoie.encoder import Vocabulary
from synoie.model import Model
from synoie.synthetic import generate_corpus
from synoie.training import (_label_inventories, build_graph_cache,
                             evaluate_checkpoint, train)

import test_losses as oracles
import worked_example as wx

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data"
GOLDEN = Path(__file__).resolve().parent / "data" / "golden"


@contextmanager
def criterion(num, title):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"\n[criterion {num}] FAIL  {title}")
        raise
    print(f"\n[criterion {num}] PASS  {title} "
          f"({time.monotonic() - start:.1f}s)")


def test_criterion_1_worked_example(example_sentence, tmp_path, example_corpus_path):
    with criterion(1, "worked-example paths and edge set (zero tolerance)"):
        t0 = time.monotonic()
        paths = g.build_const_paths(example_sentence.const_tree)
        edges = g.flatten_const_relations(example_sentence.const_tree)
        elapsed = time.monotonic() - t0
        # the ten reference paths cover the ten words; punctuation is extra
        assert paths[:10] == wx.EXPECTED_PATHS[:10]
        assert set(edges) == wx.EXPECTED_EDGES
        assert (0, 10, "S") not in edges  # root clause edge pruned at distance 10
        assert elapsed < 1.0

        t0 = time.monotonic()
        rc = cli.main(["build-graphs", "--corpus", str(example_corpus_path),
                       "--view", "const", "--out", str(tmp_path)])
        assert rc == 0 and time.monotonic() - t0 < 1.0
        payload = json.loads((tmp_path / "s0000.const.json").read_text())
        got_edges = {(e["i"], e["j"], e["type"]) for e in payload["edges"]}
        assert got_edges == wx.EXPECTED_EDGES


def test_criterion_2_const_graph_variants(example_sentence):
    with criterion(2, "variant v1/v2/v3 behavior against golden files"):
        for variant in ("paper", "v1", "v2", "v3"):
            cfg = g.FlattenConfig(variant=variant)
            graph = g.build_const_graph(example_sentence, cfg)
            got = json.loads(g.export_graph(graph, "json"))
            want = json.loads((GOLDEN / f"const_{variant}.json").read_text())
            assert got == want, f"variant {variant} diverges from golden file"
        v1 = g.build_const_graph(example_sentence, g.FlattenConfig(variant="v1"))
        assert all(len(p) == 1 for p in v1.node_labels)


def test_criterion_3_gradient_correctness():
    with criterion(3, "analytic gradients vs central differences (20 instances)"):
        t0 = time.monotonic()
        err = cli.gradcheck_run(seed=0, size=8, n_instances=20, d_h=6, d_l=3)
        elapsed = time.monotonic() - t0
        assert err < 1e-4, f"max relative error {err:.3e}"
        assert elapsed < 120.0, f"took {elapsed:.0f}s"


def test_criterion_4_loss_oracles():
    with criterion(4, "multi-view losses equal brute force; zero weights = CE"):
        sentences = [s for s in generate_corpus(16, seed=5)
                     if len(s.tokens) <= 6]
        cfg = TrainConfig(seed=1, d_h=6, d_l=3, dev_fraction=0.0)
        cache = build_graph_cache(sentences, cfg.flatten)
        vocab = Vocabulary.from_sentences(sentences)
        dl, cl = _label_inventories(cache, range(len(sentences)))
        model = Model(cfg, vocab, dl, cl, np.random.default_rng(1))
        checked = 0
        for i, s in enumerate(sentences):
            for inst in expand_instances(s):
                parts = model.instance_losses(inst, cache[i], i)
                # the forward is deterministic, so a rerun reproduces the
                # states the losses were computed from
                fwd = model.forward(s, inst.indicator_verb, cache[i], i)
                h_con, h_dep = fwd.h_con.data, fwd.h_dep.data
                adj_c, adj_d = cache[i].const.adjacency, cache[i].dep.adjacency
                want_r1 = oracles.brute_r1({"con": h_con, "dep": h_dep},
                                           {"con": adj_c, "dep": adj_d})
                want_r2 = oracles.brute_r2(h_con, h_dep)
                want_r3 = oracles.brute_r3(h_con, h_dep, adj_c, adj_d)
                assert abs(parts["r1"] - want_r1) < 1e-10
                assert abs(parts["r2"] - want_r2) < 1e-10
                assert abs(parts["r3"] - want_r3) < 1e-10
                ce = L.tagging_loss(fwd.logits, parts["gold_ids"])
                gram = L.view_gram([fwd.h_con, fwd.h_dep])
                combined = L.combined_loss(
                    ce, gram, L.loss_r1(gram, [cache[i].const, cache[i].dep]),
                    L.loss_r2(gram), L.loss_r3(gram, cache[i].const, cache[i].dep),
                    L.LossWeights(0.0, 0.0, 0.0))
                assert combined.data.tobytes() == np.float64(parts["ce"]).tobytes()
                checked += 1
        assert checked >= 10


def test_criterion_5_normalization_invariants():
    with criterion(5, "softmax normalization on 1,000 random graphs"):
        rng = np.random.default_rng(17)
        from test_gcn import draw_params, make_graph

        params = draw_params(n_labels=4, d_h=5, d_l=3, rng=rng)

        for _ in range(1000):
            n = int(rng.integers(1, 9))
            edges = [(int(a), int(b))
                     for a, b in rng.integers(0, n, size=(n + 1, 2)) if a != b]
            graph = make_graph("dep", n, edges)
            h_ctx = ad.constant(rng.normal(size=(n, 5)))
            l = ad.constant(rng.normal(size=(n, 3)))
            _, alphas = gcn_mod.gcn_layer(graph, h_ctx, l,
                                           gcn_mod.label_projection(l, params))
            for i, alpha in enumerate(alphas.data):
                assert abs(alpha.sum() - 1.0) <= 1e-9
                assert (alpha[~graph.adjacency[i]] == 0.0).all()
            # pairwise-probability softmax over the full candidate set
            k = int(rng.integers(n))
            anchor = ad.constant(h_ctx.data[k:k + 1])
            row = ad.masked_softmax(ad.matmul(anchor, h_ctx, transpose_b=True),
                                    np.ones((1, n), dtype=bool))
            assert abs(row.data.sum() - 1.0) <= 1e-9


def test_criterion_6_learnability():
    with criterion(6, "50-sentence synthetic corpus learnability"):
        t0 = time.monotonic()
        corpus = generate_corpus(50, seed=0)
        full_cfg = TrainConfig(seed=0, epochs=300)
        full = train(corpus, full_cfg)
        assert full.history[-1]["train_acc"] >= 0.99
        full_f1 = evaluate_checkpoint(full, corpus, mode="exact").f1
        assert full_f1 >= 0.95

        ce_cfg = full_cfg.with_overrides(use_r1=False, use_r2=False,
                                         use_r3=False)
        ce_only = train(corpus, ce_cfg)
        ce_f1 = evaluate_checkpoint(ce_only, corpus, mode="exact").f1
        assert full_f1 >= ce_f1 - 0.02, (
            f"multi-view run (F1={full_f1:.4f}) trails CE-only "
            f"(F1={ce_f1:.4f}) by more than 0.02")
        assert time.monotonic() - t0 < 600.0


def test_criterion_7_scorer_correctness():
    with criterion(7, "scorer fixture: exact P/R/F1 and trapezoidal AUC"):
        gold_sentences = load_corpus(DATA / "score_fixture_gold.jsonl")
        gold = ev.gold_tuple_texts(gold_sentences)
        pred = cli._load_pred_file(DATA / "score_fixture_pred.jsonl",
                                   gold_sentences)
        report = ev.exact_match_score(pred, gold)

        # hand-computed: 8 predictions at distinct confidences, 6 correct,
        # 12 gold tuples; cumulative hits by rank: 1,2,2,3,4,4,5,6
        assert abs(report.precision - 6 / 8) < 1e-9
        assert abs(report.recall - 6 / 12) < 1e-9
        assert abs(report.f1 - Fraction(3, 5)) < 1e-9
        hits = [1, 2, 2, 3, 4, 4, 5, 6]
        want_curve = [(h / 12, h / (k + 1)) for k, h in enumerate(hits)]
        assert len(report.curve) == 8
        for (gr, gp), (wr, wp) in zip(report.curve, want_curve):
            assert abs(gr - wr) < 1e-9 and abs(gp - wp) < 1e-9
        want_auc = (Fraction(1, 12) + Fraction(1, 12) + Fraction(17, 288)
                    + Fraction(31, 480) + Fraction(29, 504) + Fraction(41, 672))
        assert abs(report.auc - float(want_auc)) < 1e-9

        swapped = ev.exact_match_score(gold, pred)
        assert swapped.precision == report.recall
        assert swapped.recall == report.precision


def test_criterion_8_ablation_grid_runs(tmp_path, capsys):
    with criterion(8, "desk-scale statement and full ablation grid"):
        readme = (ROOT / "README.md").read_text(encoding="utf-8").lower()
        assert "not reproducible" in readme

        corpus_path = tmp_path / "ablate.jsonl"
        save_corpus(generate_corpus(12, seed=4), corpus_path)
        rc = cli.main(["ablate", "--corpus", str(corpus_path),
                       "--report", "json", "--d-h", "8", "--d-l", "4",
                       "--epochs", "4", "--seed", "0",
                       "--dev-fraction", "0.0"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "desk-scale" in out
        rows = json.loads(out.splitlines()[-1])
        assert len(rows) == 8
        names = {r["name"] for r in rows}
        assert names == {"full", "full -R1", "full -R2", "full -R3",
                         "w/o GCN", "w/o GCN -R1", "w/o GCN -R2",
                         "w/o GCN -R3"}
        assert all(np.isfinite(r["f1"]) and np.isfinite(r["auc"])
                   for r in rows)
