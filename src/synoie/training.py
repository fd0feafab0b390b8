"""Training loop, checkpointing, and checkpoint evaluation.

Batches are sets of per-verb instances; graphs are cached per sentence across
epochs.  The best checkpoint (by dev exact-match F1, latest on ties) is
returned.  With a zero dev fraction the dev set falls back to the training
sentences themselves, which is the intended setup for overfit experiments.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import evaluation as ev
from . import tagger
from .autodiff import AdamState
from .config import TrainConfig
from .corpus import ParsedSentence, expand_instances
from .encoder import Vocabulary
from .gcn import LabelVocab
from .model import Model, SentenceGraphs

CHECKPOINT_FORMAT_VERSION = 2


class TrainingError(Exception):
    pass


class EmptyCorpus(TrainingError):
    pass


class NonFiniteLoss(TrainingError):
    pass


@dataclass
class Checkpoint:
    config: TrainConfig
    vocab_tokens: list[str]
    dep_labels: list[str]
    con_labels: list[str]
    arrays: dict[str, np.ndarray]
    epoch: int
    history: list[dict] = field(default_factory=list)

    def to_model(self) -> Model:
        return Model.from_arrays(self.config, Vocabulary(self.vocab_tokens),
                                 LabelVocab(self.dep_labels),
                                 LabelVocab(self.con_labels), self.arrays)

    def save(self, path: str | Path):
        meta = {
            "format_version": CHECKPOINT_FORMAT_VERSION,
            "config": self.config.to_dict(),
            "vocab_tokens": self.vocab_tokens,
            "dep_labels": self.dep_labels,
            "con_labels": self.con_labels,
            "epoch": self.epoch,
            "history": self.history,
        }
        # write through a handle so numpy does not append ".npz" to the name
        with open(path, "wb") as f:
            np.savez(f, __meta__=np.frombuffer(
                json.dumps(meta).encode("utf-8"), dtype=np.uint8), **self.arrays)

    @classmethod
    def load(cls, path: str | Path) -> "Checkpoint":
        with np.load(path) as z:
            meta = json.loads(bytes(z["__meta__"]).decode("utf-8"))
            if meta.get("format_version") != CHECKPOINT_FORMAT_VERSION:
                raise TrainingError(
                    f"unsupported checkpoint version {meta.get('format_version')}")
            arrays = {k: z[k] for k in z.files if k != "__meta__"}
        return cls(config=TrainConfig.from_dict(meta["config"]),
                   vocab_tokens=meta["vocab_tokens"],
                   dep_labels=meta["dep_labels"],
                   con_labels=meta["con_labels"],
                   arrays=arrays, epoch=meta["epoch"], history=meta["history"])


def build_graph_cache(sentences: list[ParsedSentence], flatten_cfg) -> list[SentenceGraphs]:
    return [SentenceGraphs.build(s, flatten_cfg) for s in sentences]


def _label_inventories(graph_cache, idxs):
    dep, con = set(), set()
    for i in idxs:
        dep.update(graph_cache[i].dep.node_labels)
        for path in graph_cache[i].const.node_labels:
            con.update(path)
    return LabelVocab.collect(dep), LabelVocab.collect(con)


def _diverged_group(model: Model) -> str | None:
    """The first parameter group (``enc``, ``gcn.dep``, ``gcn.con``, ``head``)
    whose squared L2 norm is not a finite float64, or None.

    A group with entries past about 1e154 is still finite but counts: the
    forward squares it in the message grams, so it cannot give a finite loss.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        for name, t in model.named_params():
            flat = t.data.ravel()
            if not np.isfinite(flat @ flat):
                return name.rsplit(".", 1)[0]
    return None


def _exact_f1(model: Model, sentences, graph_cache, idxs) -> float:
    pred = []
    for i in idxs:
        s = sentences[i]
        tuples = tagger.extract(s, model, graph_cache[i], sentence_id=i)
        pred.append([ev.TupleTexts.from_extraction(t, s.tokens) for t in tuples])
    gold = ev.gold_tuple_texts([sentences[i] for i in idxs])
    return ev.exact_match_score(pred, gold).f1


def train(sentences: list[ParsedSentence], cfg: TrainConfig,
          log=None) -> Checkpoint:
    """Train on shuffled instance batches; return the best-dev checkpoint."""
    if not sentences:
        raise EmptyCorpus("no sentences to train on")
    rng = np.random.default_rng(cfg.seed)

    order = rng.permutation(len(sentences))
    dev_n = int(round(cfg.dev_fraction * len(sentences)))
    dev_idx = [int(i) for i in order[:dev_n]]
    train_idx = [int(i) for i in order[dev_n:]]
    if not train_idx:
        raise EmptyCorpus("dev split consumed the whole corpus")
    if not dev_idx:
        dev_idx = list(train_idx)

    graph_cache = build_graph_cache(sentences, cfg.flatten)
    vocab = Vocabulary.from_sentences([sentences[i] for i in train_idx])
    dep_labels, con_labels = _label_inventories(graph_cache, train_idx)
    model = Model(cfg, vocab, dep_labels, con_labels, rng)

    instances = []
    for i in train_idx:
        for inst in expand_instances(sentences[i]):
            instances.append((i, inst))
    if not instances:
        raise EmptyCorpus("no verbs anywhere in the training split")

    params = model.param_tensors()
    adam = AdamState.for_params(params)
    best_f1, best_arrays, best_epoch = -1.0, model.export_arrays(), 0
    history = []

    for epoch in range(1, cfg.epochs + 1):
        perm = rng.permutation(len(instances))
        epoch_loss = 0.0
        correct = total = 0
        for start in range(0, len(perm), cfg.batch_size):
            batch = perm[start:start + cfg.batch_size]
            per_instance = []
            try:
                for k in batch:
                    sent_i, inst = instances[int(k)]
                    parts = model.instance_losses(inst, graph_cache[sent_i],
                                                  sentence_id=sent_i)
                    per_instance.append(parts["total"])
                    correct += sum(int(p == g) for p, g in
                                   zip(parts["pred_ids"], parts["gold_ids"]))
                    total += len(parts["gold_ids"])
            except ad.NonFiniteValue as exc:
                raise NonFiniteLoss(
                    f"epoch {epoch}, batch at instance {start}: {exc}") from exc
            batch_loss = ad.combine(per_instance,
                                    [1.0 / len(per_instance)] * len(per_instance))
            if not np.isfinite(batch_loss.data):
                raise NonFiniteLoss(
                    f"epoch {epoch}, batch at instance {start}: "
                    f"loss={batch_loss.data!r}")
            for p in params:
                p.zero_grad()
            batch_loss.backward()
            grads = [p.grad if p.grad is not None else np.zeros_like(p.data)
                     for p in params]
            ad.adam_step(params, grads, adam, lr=cfg.lr)
            group = _diverged_group(model)
            if group is not None:
                raise NonFiniteLoss(
                    f"epoch {epoch}, batch at instance {start}: parameter group "
                    f"{group} has a non-finite squared L2 norm after the Adam update")
            epoch_loss += float(batch_loss.data) * len(batch)
        epoch_loss /= len(instances)
        train_acc = correct / total if total else 0.0

        stop = (cfg.early_stop_train_acc is not None
                and train_acc >= cfg.early_stop_train_acc)
        record = {"epoch": epoch, "loss": epoch_loss, "train_acc": train_acc}
        if stop or epoch % cfg.eval_every == 0 or epoch == cfg.epochs:
            try:
                dev_f1 = _exact_f1(model, sentences, graph_cache, dev_idx)
            except ad.NonFiniteValue as exc:
                raise NonFiniteLoss(f"epoch {epoch}, dev eval: {exc}") from exc
            record["dev_f1"] = dev_f1
            if dev_f1 >= best_f1:
                best_f1, best_arrays, best_epoch = dev_f1, model.export_arrays(), epoch
        history.append(record)
        if log:
            log(f"epoch {epoch}: loss={epoch_loss:.4f} acc={train_acc:.4f}"
                + (f" dev_f1={record['dev_f1']:.4f}" if "dev_f1" in record else ""))
        if stop:
            break

    return Checkpoint(config=cfg, vocab_tokens=vocab.tokens,
                      dep_labels=dep_labels.labels, con_labels=con_labels.labels,
                      arrays=best_arrays, epoch=best_epoch, history=history)


# ---------------------------------------------------------------------------
# Extraction over a corpus (optionally data-parallel) and evaluation
# ---------------------------------------------------------------------------

_POOL_MODEL = None


def _pool_init(ckpt: Checkpoint):
    global _POOL_MODEL
    _POOL_MODEL = ckpt.to_model()


def _pool_extract(args):
    i, rec_sentence = args
    graphs = SentenceGraphs.build(rec_sentence, _POOL_MODEL.cfg.flatten)
    return i, tagger.extract(rec_sentence, _POOL_MODEL, graphs, sentence_id=i)


def extract_corpus(ckpt: Checkpoint, sentences: list[ParsedSentence],
                   workers: int = 1) -> list[list]:
    """Per-sentence tuple lists, in corpus order."""
    if workers <= 1:
        model = ckpt.to_model()
        out = []
        for i, s in enumerate(sentences):
            graphs = SentenceGraphs.build(s, model.cfg.flatten)
            out.append(tagger.extract(s, model, graphs, sentence_id=i))
        return out
    import multiprocessing as mp

    with mp.Pool(workers, initializer=_pool_init, initargs=(ckpt,)) as pool:
        results = pool.map(_pool_extract, list(enumerate(sentences)))
    results.sort(key=lambda r: r[0])
    return [tuples for _, tuples in results]


def evaluate_checkpoint(ckpt: Checkpoint, sentences: list[ParsedSentence],
                        mode: str = "exact") -> ev.ScoreReport:
    if not sentences:
        raise EmptyCorpus("no sentences to evaluate on")
    extractions = extract_corpus(ckpt, sentences)
    pred = [[ev.TupleTexts.from_extraction(t, s.tokens) for t in ts]
            for s, ts in zip(sentences, extractions)]
    gold = ev.gold_tuple_texts(sentences)
    return ev.score_tuples(pred, gold, mode=mode)
