"""The workloads: train-short and extract-long.

Each workload prepares its inputs from the seed in ``setup`` and then runs
rounds of a fixed amount of work.  A round is a fixed list of operations and
returns its measured seconds, each operation's ``(seconds, items, tokens)``
(None when it raised), a digest of its outputs, the calls a traced round must
count to confirm the item count, and quality figures.  An operation that
raises is counted as failed by ``Run.attempt`` and the round goes on.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
import sys
import traceback
from dataclasses import dataclass
from time import perf_counter

import numpy as np

import compose
from synoie import corpus, evaluation, synthetic, training
from synoie.config import TrainConfig
from synoie.encoder import Vocabulary
from synoie.model import Model

# The extraction checkpoint is the model under test, so it does not vary
# with --seed; only the sentences it reads do.  bench/README.md (Output
# checks) gives the lexical F1 it reads on extract-long.
MODEL_SEED = 1
MODEL_LR = 0.05


@dataclass(frozen=True)
class Sizes:
    """How much work each workload does; "tiny" is for the smoke test."""

    train_sentences: int = 12
    train_epochs: int = 6
    train_widths: tuple = (64, 32)
    clause_counts: tuple = tuple(range(1, 7)) * 2
    model_clauses: tuple = (1, 2, 3, 4) * 2  # every template, 20 clauses
    model_epochs: int = 8
    # a trained checkpoint reads well above this, a one-epoch model far below
    min_lexical_f1: float = 0.5
    probe_reps: int = 5


SIZES = {
    "full": Sizes(),
    "tiny": Sizes(train_sentences=8, train_epochs=1, train_widths=(8, 4),
                  clause_counts=(1, 2, 3), model_clauses=(1, 2), model_epochs=1,
                  min_lexical_f1=0.0, probe_reps=1),
}


class Run:
    """Attempted and failed operations, and output checks that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: dict[str, int] = {}
        self.problems: list[str] = []

    def attempt(self, fn, *args):
        """``fn(*args)``, or None when it raises (counted as a failure)."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:
            self.failed += 1
            self.errors[type(exc).__name__] = self.errors.get(type(exc).__name__, 0) + 1
            traceback.print_exc(file=sys.stderr)
            return None

    def check(self, ok: bool, message: str):
        if not ok:
            self.problems.append(message)


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def checkpoint_digest(ckpt: training.Checkpoint) -> str:
    h = hashlib.sha256(json.dumps(ckpt.history, sort_keys=True).encode())
    for name in sorted(ckpt.arrays):
        h.update(name.encode())
        h.update(np.ascontiguousarray(ckpt.arrays[name]).tobytes())
    return h.hexdigest()[:16]


class TrainShort:
    """training.train on the four synthetic templates at the default widths."""

    name = "train-short"
    setup_repeats = 25  # a set-up takes about 4 ms
    warmup_rounds = 1  # the first run of train is about 15 % slower

    def __init__(self, seed: int, sizes: Sizes, workdir):
        d_h, d_l = sizes.train_widths
        self.cfg = TrainConfig(seed=seed, d_h=d_h, d_l=d_l,
                               epochs=sizes.train_epochs,
                               early_stop_train_acc=None, eval_every=1)
        self.seed, self.sizes, self.workdir = seed, sizes, workdir

    def setup(self) -> str:
        generated = synthetic.generate_corpus(self.sizes.train_sentences, seed=self.seed)
        # The dev split as training.train draws it.  The templates cycle, so
        # placing generated sentence k at position order[k] gives the dev
        # split the first templates of the cycle on every seed, and the
        # training split the same template mix: the seed changes the words,
        # not the amount of work.
        order = np.random.default_rng(self.cfg.seed).permutation(len(generated))
        dev_n = int(round(self.cfg.dev_fraction * len(generated)))
        placed = [None] * len(generated)
        for k, pos in enumerate(order):
            placed[int(pos)] = generated[k]
        path = self.workdir / "train-short.jsonl"
        corpus.save_corpus(placed, path)
        self.sentences = corpus.load_corpus(path)
        train_split = [self.sentences[int(i)] for i in order[dev_n:]]
        self.epoch_instances = sum(len(s.verbs) for s in train_split)
        self.epoch_tokens = sum(len(s.verbs) * len(s.tokens) for s in train_split)
        return digest([corpus.sentence_to_record(s) for s in self.sentences])

    def round(self, run: Run) -> dict | None:
        """One train call; its operations are the epochs, ended by train's log."""
        marks = [perf_counter()]
        ckpt = run.attempt(training.train, self.sentences, self.cfg,
                           lambda line: marks.append(perf_counter()))
        seconds = perf_counter() - marks[0]
        if ckpt is None:
            return None
        losses = [rec["loss"] for rec in ckpt.history]
        run.check(all(math.isfinite(x) for x in losses), f"non-finite loss {losses}")
        run.check(losses[-1] < losses[0] or len(losses) == 1,
                  f"training loss did not fall: {losses}")
        run.check(len(marks) == self.cfg.epochs + 1, f"{len(marks) - 1} epochs logged")
        return {"seconds": seconds,
                "ops": [(b - a, self.epoch_instances, self.epoch_tokens)
                        for a, b in zip(marks, marks[1:])],
                "digest": checkpoint_digest(ckpt),
                "calls": {"model.instance_losses":
                          self.epoch_instances * self.cfg.epochs},
                "quality": {"training.loss_final": losses[-1]}}


class ExtractLong:
    """Serial extract_corpus over seeded sentences of 1-6 joined clauses."""

    name = "extract-long"
    setup_repeats = 3  # a set-up takes about 3.5 s
    warmup_rounds = 0  # set-up has trained a model on the same code paths

    def __init__(self, seed: int, sizes: Sizes, workdir):
        self.seed, self.sizes, self.workdir = seed, sizes, workdir

    def setup(self) -> str:
        counts = list(self.sizes.clause_counts)
        np.random.default_rng([self.seed, 1]).shuffle(counts)
        self.sentences = compose.write_and_load(
            compose.compose(counts, self.seed), self.workdir / "extract-long.jsonl")
        model_sentences = compose.write_and_load(
            compose.compose(list(self.sizes.model_clauses), MODEL_SEED),
            self.workdir / "model-train.jsonl")
        epochs = self.sizes.model_epochs
        cfg = TrainConfig(seed=MODEL_SEED, lr=MODEL_LR, epochs=epochs,
                          dev_fraction=0.0, early_stop_train_acc=None,
                          eval_every=epochs, use_r1=False, use_r2=False,
                          use_r3=False)
        path = self.workdir / "model.npz"
        training.train(model_sentences, cfg).save(path)
        self.ckpt = training.Checkpoint.load(path)
        return digest([[corpus.sentence_to_record(s) for s in self.sentences],
                       checkpoint_digest(self.ckpt)])

    def round(self, run: Run) -> dict | None:
        """One pass over the sentences; each sentence is one operation."""
        done, ops = [], []
        for s in self.sentences:
            t0 = perf_counter()
            out = run.attempt(training.extract_corpus, self.ckpt, [s])
            dt = perf_counter() - t0
            ops.append(None if out is None else (dt, 1, len(s.tokens)))
            if out is not None:
                done.append((s, out[0]))
        if not done:
            return None
        for s, tuples in done:
            verbs = [t.indicator_verb for t in tuples]
            run.check(len(set(verbs)) == len(verbs) and set(verbs) <= set(s.verbs),
                      f"tuples for verbs {verbs}, candidates {s.verbs}")
            run.check(all(0 <= a <= b < len(s.tokens)
                          for t in tuples for a, b in t.spans.values()),
                      "tuple span outside its sentence")
        pred = [[evaluation.TupleTexts.from_extraction(t, s.tokens) for t in tuples]
                for s, tuples in done]
        gold = evaluation.gold_tuple_texts([s for s, _ in done])
        lexical = evaluation.score_tuples(pred, gold, mode="lexical").f1
        exact = evaluation.score_tuples(pred, gold, mode="exact").f1
        run.check(lexical >= self.sizes.min_lexical_f1,
                  f"lexical F1 {lexical:.3f} below {self.sizes.min_lexical_f1}")
        outputs = [[sorted(t.spans.items()) for t in tuples] for _, tuples in done]
        return {"seconds": sum(op[0] for op in ops if op), "ops": ops,
                "digest": digest(outputs),
                "calls": {"training.extract_corpus": len(done),
                          "model.predict": sum(len(s.verbs) for s, _ in done)},
                "quality": {"evaluation.lexical_f1": lexical,
                            "evaluation.exact_f1": exact}}


WORKLOADS = {w.name: w for w in (TrainShort, ExtractLong)}


def predict_probe(seed: int, reps: int, workdir) -> dict[int, float]:
    """Median ms of one Model.predict at n = 10, 40 and 160 tokens."""
    shapes = {10: ["sv", "modal"], 40: ["svo_pp"] * 5, 160: ["svo_pp"] * 20}
    sentences = compose.write_and_load(
        [compose.fixed_clauses(names, seed) for names in shapes.values()],
        workdir / "probe.jsonl")
    cfg = TrainConfig(seed=seed)
    cache = training.build_graph_cache(sentences, cfg.flatten)
    dep_labels, con_labels = training._label_inventories(cache, range(len(sentences)))
    model = Model(cfg, Vocabulary.from_sentences(sentences), dep_labels, con_labels)
    out = {}
    for n, s, graphs in zip(shapes, sentences, cache):
        if len(s.tokens) != n:
            raise ValueError(f"probe sentence has {len(s.tokens)} tokens, not {n}")
        times = []
        for _ in range(reps + 1):  # the first call warms caches and is dropped
            t0 = perf_counter()
            model.predict(s, s.verbs[0], graphs)
            times.append(perf_counter() - t0)
        out[n] = statistics.median(times[1:]) * 1e3
    return out
