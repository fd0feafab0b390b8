"""Command-line interface.

Subcommands: build-graphs, train, extract, score, gradcheck, ablate.
Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
The seed falls back to the SMILE_SEED environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import corpus as corpus_mod
from . import evaluation as ev
from . import graphs as graphs_mod
from . import synthetic, training
from .config import TrainConfig
from .losses import LossWeights
from .model import Model

GRADCHECK_TOLERANCE = 1e-4

DESK_SCALE_NOTE = (
    "note: absolute benchmark scores reported for large-scale trained systems "
    "require a pretrained contextual encoder and the full datasets; this "
    "desk-scale harness supports relative comparisons only.")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _seed_default(value: int | None) -> int:
    if value is not None:
        return value
    return int(os.environ.get("SMILE_SEED", "0"))


def _flatten_from_args(args, base: graphs_mod.FlattenConfig = graphs_mod.FlattenConfig()):
    kwargs = {}
    if getattr(args, "max_distance", None) is not None:
        kwargs["max_distance"] = args.max_distance
    if getattr(args, "const_variant", None) is not None:
        kwargs["variant"] = args.const_variant
    if getattr(args, "clause_tags", None) is not None:
        kwargs["clause_tags"] = frozenset(args.clause_tags.split(","))
    return replace(base, **kwargs) if kwargs else base


def _add_flatten_flags(p):
    p.add_argument("--max-distance", type=int, default=None,
                   help="prune edges longer than this many token positions")
    p.add_argument("--const-variant", choices=graphs_mod.VARIANTS, default=None)
    p.add_argument("--clause-tags", default=None,
                   help="comma-separated clause tags for boundary edges")


def _config_from_args(args) -> TrainConfig:
    file_has_seed = False
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8") as f:
            raw = corpus_mod.parse_json(f.read())
        cfg = TrainConfig.from_dict(raw)
        file_has_seed = "seed" in raw
    else:
        cfg = TrainConfig()
    overrides = {}
    for flag, key in [("seed", "seed"), ("epochs", "epochs"), ("lr", "lr"),
                      ("batch_size", "batch_size"), ("d_h", "d_h"),
                      ("d_l", "d_l"), ("dev_fraction", "dev_fraction")]:
        val = getattr(args, flag, None)
        if val is not None:
            overrides[key] = val
    w = {k: getattr(args, k) for k in ("alpha", "beta", "gamma")
         if getattr(args, k, None) is not None}
    if w:
        old = cfg.weights
        overrides["weights"] = LossWeights(
            alpha=w.get("alpha", old.alpha), beta=w.get("beta", old.beta),
            gamma=w.get("gamma", old.gamma))
    for flag, key in [("no_gcn", "use_gcn"), ("no_dep", "use_dep"),
                      ("no_const", "use_const"), ("no_r1", "use_r1"),
                      ("no_r2", "use_r2"), ("no_r3", "use_r3")]:
        if getattr(args, flag, False):
            overrides[key] = False
    flatten = _flatten_from_args(args, cfg.flatten)
    if flatten != cfg.flatten:
        overrides["flatten"] = flatten
    cfg = cfg.with_overrides(**overrides) if overrides else cfg
    # seed precedence: flag > config file > SMILE_SEED env > 0
    if getattr(args, "seed", None) is None and not file_has_seed:
        cfg = cfg.with_overrides(seed=_seed_default(None))
    return cfg


def _add_train_flags(p):
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--d-h", type=int, default=None)
    p.add_argument("--d-l", type=int, default=None)
    p.add_argument("--dev-fraction", type=float, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--gamma", type=float, default=None)
    for name in ("gcn", "dep", "const", "r1", "r2", "r3"):
        p.add_argument(f"--no-{name}", action="store_true")
    _add_flatten_flags(p)


def build_parser() -> _Parser:
    parser = _Parser(prog="synoie",
                     description="Tuple extraction over word-level syntactic graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-graphs", parents=[], help="dump per-sentence graphs")
    p.add_argument("--corpus", required=True)
    p.add_argument("--view", choices=["const", "dep", "both"], default="both")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--format", choices=["json", "dot"], default="json")
    _add_flatten_flags(p)

    p = sub.add_parser("train", help="train a model and write a checkpoint")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out-ckpt", required=True)
    p.add_argument("--verbose", action="store_true")
    _add_train_flags(p)

    p = sub.add_parser("extract", help="extract tuples with a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--workers", type=int, default=1)

    p = sub.add_parser("score", help="score predictions against gold tuples")
    p.add_argument("--pred", required=True, help="extraction JSONL")
    p.add_argument("--gold", required=True, help="gold corpus JSONL")
    p.add_argument("--mode", choices=["exact", "lexical"], default="exact")
    p.add_argument("--binary", action="store_true",
                   help="collapse n-ary tuples to binary before scoring")
    p.add_argument("--report", choices=["json", "text"], default="text")

    p = sub.add_parser("gradcheck", help="verify analytic gradients")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--size", type=int, default=6,
                   help="max sentence length of the probe instances")
    p.add_argument("--instances", type=int, default=5)
    p.add_argument("--d-h", type=int, default=8)
    p.add_argument("--d-l", type=int, default=4)
    p.add_argument("--eps", type=float, default=1e-6)

    p = sub.add_parser("ablate", help="run the loss/GCN ablation grid")
    p.add_argument("--corpus", required=True)
    p.add_argument("--grid", choices=["table", "losses"], default="table")
    p.add_argument("--eval-corpus", default=None)
    p.add_argument("--report", choices=["json", "text"], default="text")
    _add_train_flags(p)

    return parser


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_build_graphs(args) -> int:
    sentences = corpus_mod.load_corpus(args.corpus)
    flatten = _flatten_from_args(args)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    views = ["const", "dep"] if args.view == "both" else [args.view]
    ext = args.format
    count = 0
    for i, s in enumerate(sentences):
        for view in views:
            if view == "const":
                g = graphs_mod.build_const_graph(s, flatten)
            else:
                g = graphs_mod.build_dep_graph(s)
            text = graphs_mod.export_graph(g, args.format, tokens=s.tokens)
            (outdir / f"s{i:04d}.{view}.{ext}").write_text(text, encoding="utf-8")
            count += 1
    print(f"wrote {count} graph files to {outdir}")
    return 0


def _cmd_train(args) -> int:
    cfg = _config_from_args(args)
    if Path(args.out_ckpt).is_dir():
        # fail now rather than after the whole training run
        raise IsADirectoryError(f"--out-ckpt {args.out_ckpt} is a directory")
    sentences = corpus_mod.load_corpus(args.corpus)
    log = print if args.verbose else None
    ckpt = training.train(sentences, cfg, log=log)
    ckpt.save(args.out_ckpt)
    last = ckpt.history[-1] if ckpt.history else {}
    print(f"saved checkpoint to {args.out_ckpt} "
          f"(best epoch {ckpt.epoch}, final train_acc="
          f"{last.get('train_acc', float('nan')):.4f})")
    return 0


def _write_extractions(path, sentences, extractions):
    with open(path, "w", encoding="utf-8") as f:
        for i, (s, tuples) in enumerate(zip(sentences, extractions)):
            rec = {
                "sentence_id": i,
                "tuples": [
                    {"confidence": t.confidence,
                     "spans": {r: list(sp) for r, sp in sorted(t.spans.items())},
                     "texts": t.texts(s.tokens)}
                    for t in tuples
                ],
            }
            f.write(json.dumps(rec) + "\n")


def _cmd_extract(args) -> int:
    if args.workers < 1:
        raise UsageError(f"--workers must be at least 1, got {args.workers}")
    if Path(args.out).is_dir():
        # fail now rather than after the whole extraction
        raise IsADirectoryError(f"--out {args.out} is a directory")
    ckpt = training.Checkpoint.load(args.ckpt)
    sentences = corpus_mod.load_corpus(args.corpus)
    extractions = training.extract_corpus(ckpt, sentences, workers=args.workers)
    _write_extractions(args.out, sentences, extractions)
    n = sum(len(ts) for ts in extractions)
    print(f"extracted {n} tuples from {len(sentences)} sentences into {args.out}")
    return 0


def _load_pred_file(path, gold_sentences):
    by_id = {}

    def add(rec, line):
        if not isinstance(rec, dict):
            raise ValueError("not a JSON object")
        sid = rec.get("sentence_id", line - 1)
        if not corpus_mod.is_json_int(sid):
            raise ValueError(f"sentence_id {sid!r} is not an integer")
        if not 0 <= sid < len(gold_sentences):
            raise ValueError(f"sentence_id {sid} outside the gold corpus")
        if sid in by_id:
            raise ValueError(f"duplicate sentence_id {sid}")
        toks = gold_sentences[sid].tokens
        tuples = []
        recs = rec.get("tuples", [])
        if not isinstance(recs, list):
            raise ValueError("tuples must be a list")
        for t in recs:
            if not isinstance(t, dict):
                raise ValueError(f"tuple {t!r} is not an object")
            conf = t.get("confidence", 1.0)
            # the bound is false for NaN and, unlike float(), cannot overflow
            if (isinstance(conf, bool) or not isinstance(conf, (int, float))
                    or not abs(conf) <= sys.float_info.max):
                raise ValueError(f"confidence {conf!r} is not a finite number")
            field = "texts" if "texts" in t else "spans"
            if not isinstance(t.get(field), dict):
                raise ValueError(f"tuple {field} must be an object")
            for role in t[field]:
                if not corpus_mod.is_role(role):
                    raise ValueError(f"unknown role {role!r} (not REL or ARG<k>)")
            if field == "texts":
                texts = {r: str(x) for r, x in t["texts"].items()}
            else:
                texts = {}
                for r, sp in t["spans"].items():
                    if not (isinstance(sp, list) and len(sp) == 2
                            and all(map(corpus_mod.is_json_int, sp))
                            and 0 <= sp[0] <= sp[1] < len(toks)):
                        raise ValueError(f"{r} span {sp!r} is not a [first, last] "
                                         f"pair within {len(toks)} tokens")
                    texts[r] = " ".join(toks[sp[0]:sp[1] + 1])
            tuples.append(ev.TupleTexts(texts=texts, confidence=float(conf)))
        by_id[sid] = tuples

    corpus_mod.read_jsonl(path, add)
    return [by_id.get(i, []) for i in range(len(gold_sentences))]


def _cmd_score(args) -> int:
    gold_sentences = corpus_mod.load_corpus(args.gold)
    pred = _load_pred_file(args.pred, gold_sentences)
    gold = ev.gold_tuple_texts(gold_sentences)
    report = ev.score_tuples(pred, gold, mode=args.mode, binary=args.binary)
    if args.report == "json":
        print(json.dumps(report.to_dict()))
    else:
        print(f"mode={args.mode} P={report.precision:.4f} R={report.recall:.4f} "
              f"F1={report.f1:.4f} AUC={report.auc:.4f}")
    return 0


def gradcheck_run(seed: int, size: int, n_instances: int,
                  d_h: int, d_l: int, eps: float = 1e-6) -> float:
    """Max relative gradient error of the full combined loss over all params.

    The default probe step is 1e-6: large enough for clean central
    differences at float64, small enough that ReLU pre-activations of a
    random init rarely sit within a step of the kink (which would invalidate
    the numeric probe, not the analytic gradient).
    """
    from .corpus import expand_instances
    from .encoder import Vocabulary
    from .training import _label_inventories, build_graph_cache

    sentences = [s for s in synthetic.generate_corpus(4 * n_instances, seed=seed)
                 if len(s.tokens) <= size]
    if not sentences:
        raise UsageError(f"--size {size} leaves no probe sentences")
    cfg = TrainConfig(seed=seed, d_h=d_h, d_l=d_l, dev_fraction=0.0)
    cache = build_graph_cache(sentences, cfg.flatten)
    vocab = Vocabulary.from_sentences(sentences)
    dep_labels, con_labels = _label_inventories(cache, range(len(sentences)))
    rng = np.random.default_rng(seed)
    model = Model(cfg, vocab, dep_labels, con_labels, rng)
    params = list(model.params.values())

    instances = []
    for i, s in enumerate(sentences):
        for inst in expand_instances(s):
            instances.append((i, inst))
    order = rng.permutation(len(instances))
    instances = [instances[int(k)] for k in order[:n_instances]]

    worst = 0.0
    for i, inst in instances:
        def loss_fn(*_params):
            return model.instance_losses(inst, cache[i], sentence_id=i)["total"]

        err = ad.grad_check(loss_fn, params, eps=eps)
        worst = max(worst, err)
    return worst


def _cmd_gradcheck(args) -> int:
    if args.instances < 1:
        raise UsageError(f"--instances must be at least 1, got {args.instances}")
    if not 0.0 < args.eps <= 1e-2:
        raise UsageError(f"--eps must lie in (0, 1e-2], got {args.eps}")
    for flag, width in (("--d-h", args.d_h), ("--d-l", args.d_l)):
        if width < 1:
            raise UsageError(f"{flag} must be at least 1, got {width}")
    seed = _seed_default(args.seed)
    t0 = time.time()
    err = gradcheck_run(seed, args.size, args.instances, args.d_h, args.d_l,
                        eps=args.eps)
    print(f"gradcheck: max relative error {err:.3e} over {args.instances} "
          f"instances ({time.time() - t0:.1f}s)")
    if err >= GRADCHECK_TOLERANCE:
        print(f"FAIL: error above {GRADCHECK_TOLERANCE:.0e}", file=sys.stderr)
        return 3
    return 0


def ablation_grid(kind: str) -> list[tuple[str, dict]]:
    if kind == "table":
        rows = []
        for gcn in (True, False):
            prefix = "full" if gcn else "w/o GCN"
            base = {"use_gcn": gcn}
            rows.append((prefix, dict(base)))
            rows.append((f"{prefix} -R1", dict(base, use_r1=False)))
            rows.append((f"{prefix} -R2", dict(base, use_r2=False)))
            rows.append((f"{prefix} -R3", dict(base, use_r3=False)))
        return rows
    rows = []
    for r1 in (True, False):
        for r2 in (True, False):
            for r3 in (True, False):
                name = "+".join(n for n, on in (("R1", r1), ("R2", r2), ("R3", r3))
                                if on) or "CE-only"
                rows.append((name, {"use_r1": r1, "use_r2": r2, "use_r3": r3}))
    return rows


def _cmd_ablate(args) -> int:
    cfg = _config_from_args(args)
    sentences = corpus_mod.load_corpus(args.corpus)
    eval_sentences = sentences
    if args.eval_corpus:
        eval_sentences = corpus_mod.load_corpus(args.eval_corpus)
    print(DESK_SCALE_NOTE)
    rows = []
    for name, overrides in ablation_grid(args.grid):
        variant = cfg.with_overrides(**overrides)
        ckpt = training.train(sentences, variant)
        report = training.evaluate_checkpoint(ckpt, eval_sentences, mode="exact")
        rows.append({"name": name, **overrides,
                     "f1": report.f1, "auc": report.auc})
    if args.report == "json":
        print(json.dumps(rows))
    else:
        print(f"{'variant':<14} {'F1':>8} {'AUC':>8}")
        for r in rows:
            print(f"{r['name']:<14} {r['f1']:>8.4f} {r['auc']:>8.4f}")
    return 0


# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {
            "build-graphs": _cmd_build_graphs,
            "train": _cmd_train,
            "extract": _cmd_extract,
            "score": _cmd_score,
            "gradcheck": _cmd_gradcheck,
            "ablate": _cmd_ablate,
        }[args.command]
        return handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (training.NonFiniteLoss, ad.NonFiniteValue) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (corpus_mod.CorpusError, ev.UnalignedIds, training.TrainingError,
            OSError, KeyError, MemoryError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
