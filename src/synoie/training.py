"""Training loop, checkpointing, and checkpoint evaluation.

Batches are sets of per-verb instances.  Graphs and the weighted R mask are
cached per sentence, and each instance's CE target per instance, across
epochs.  A batch builds the states of its distinct sentences with one
``Model.sentence_states`` call, one node per kind over their row stack, and
the verbs of one sentence share its state.  ``chunk_batch`` then splits the
batch's instances, in batch order, into chunks of at most
``model.CHUNK_ROWS`` rows, and each chunk records one forward over the row
stack of its instances; ``Model.instance_losses`` still runs once per
instance and reads that instance's rows.  A batch's loss is one
``ad.masked_nll`` node over every instance's masks, each scaled by 1/B.
The best checkpoint (by dev exact-match F1, latest on ties) is returned.
With a zero dev fraction the dev set falls back to the training sentences
themselves, which is the intended setup for overfit experiments.
"""

from __future__ import annotations

import json
import os
import zipfile
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from types import MappingProxyType

import numpy as np

from . import autodiff as ad
from . import evaluation as ev
from . import tagger
from .autodiff import AdamState
from .config import TrainConfig
from .corpus import (Extraction, ParsedSentence, SchemaViolation,
                     expand_instances, is_json_int, parse_json)
from .encoder import Vocabulary
from .gcn import LabelVocab
from .model import Model, SentenceGraphs, chunk_batch

CHECKPOINT_FORMAT_VERSION = 3


def _is_str_list(v) -> bool:
    return isinstance(v, list) and all(isinstance(x, str) for x in v)


# the JSON type of each checkpoint meta field past the format and the config
_META_FIELDS = {
    "vocab_tokens": (_is_str_list, "a list of strings"),
    "dep_labels": (_is_str_list, "a list of strings"),
    "con_labels": (_is_str_list, "a list of strings"),
    "epoch": (is_json_int, "an integer"),
    "history": (lambda v: isinstance(v, list) and all(isinstance(r, dict) for r in v),
                "a list of objects"),
}


class TrainingError(Exception):
    pass


class EmptyCorpus(TrainingError):
    pass


class NonFiniteLoss(TrainingError):
    pass


@dataclass(frozen=True)
class Checkpoint:
    """A trained model's config, vocabularies and parameter arrays.

    It is frozen, its label lists are tuples and its arrays read-only copies,
    so ``model``, built on first use and then kept, never goes stale; a
    ``dataclasses.replace`` copy builds its own.  Pickling (the ``--workers``
    pool) sends the arrays and leaves the built model behind.
    """

    config: TrainConfig
    vocab_tokens: tuple[str, ...]
    dep_labels: tuple[str, ...]
    con_labels: tuple[str, ...]
    arrays: Mapping[str, np.ndarray]
    epoch: int
    history: list[dict] = field(default_factory=list)

    def __post_init__(self):
        for name in ("vocab_tokens", "dep_labels", "con_labels"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        arrays = {}
        for name, a in self.arrays.items():
            arrays[name] = a = np.array(a)
            a.flags.writeable = False
        object.__setattr__(self, "arrays", MappingProxyType(arrays))

    def __reduce__(self):
        return (type(self), (self.config, self.vocab_tokens, self.dep_labels,
                             self.con_labels, dict(self.arrays), self.epoch,
                             self.history))

    @cached_property
    def model(self) -> Model:
        """The model of these arrays, its parameters read-only too."""
        model = Model.from_arrays(self.config, Vocabulary(self.vocab_tokens),
                                  LabelVocab(self.dep_labels),
                                  LabelVocab(self.con_labels), self.arrays)
        for a in (model.theta, *(p.data for p in model.params.values())):
            a.flags.writeable = False
        return model

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
        """Read a checkpoint written by ``save``.

        Raises TrainingError, naming the field or tensor, for a file that is
        not an ``.npz`` archive, another format version, a meta field of the
        wrong JSON type, or a tensor that is not a finite real array.
        """
        try:
            try:
                z = np.load(path)
            except ValueError:
                # numpy reads any other file as a pickle, and says how to unpickle it
                raise ValueError("not an .npz archive") from None
            if not isinstance(z, np.lib.npyio.NpzFile):
                raise ValueError("an .npy array, not an .npz archive")
            with z:
                meta = parse_json(bytes(z["__meta__"]).decode("utf-8"),
                                  "JSON meta")
                arrays = {k: z[k] for k in z.files if k != "__meta__"}
        except (EOFError, KeyError, ValueError, zipfile.BadZipFile,
                SchemaViolation) as exc:
            raise TrainingError(f"{path} is not a checkpoint: {exc}") from exc
        if not isinstance(meta, dict):
            raise TrainingError("checkpoint meta is not a JSON object")
        if meta.get("format_version") != CHECKPOINT_FORMAT_VERSION:
            raise TrainingError(
                f"unsupported checkpoint version {meta.get('format_version')}")
        for key, (ok, what) in _META_FIELDS.items():
            if not ok(meta.get(key)):
                raise TrainingError(f"checkpoint field {key!r} is missing or "
                                    f"not {what}")
        for name, a in arrays.items():
            if a.dtype.kind not in "fiu" or not np.isfinite(a).all():
                raise TrainingError(f"checkpoint tensor {name!r} is not a "
                                    f"finite real array")
        return cls(config=TrainConfig.from_dict(meta.get("config")),
                   vocab_tokens=meta["vocab_tokens"],
                   dep_labels=meta["dep_labels"],
                   con_labels=meta["con_labels"],
                   arrays=arrays, epoch=meta["epoch"], history=meta["history"])


def build_graph_cache(sentences: list[ParsedSentence], flatten_cfg) -> list[SentenceGraphs]:
    return [SentenceGraphs.build(s, flatten_cfg) for s in sentences]


def _label_inventories(graph_cache, idxs):
    dep, con = set(), set()
    for i in idxs:
        dep.update(graph_cache[i].dep.label_rows[0])
        con.update(graph_cache[i].const.label_rows[0])
    return LabelVocab.collect(dep), LabelVocab.collect(con)


def _diverged_group(model: Model) -> str | None:
    """The first parameter group (``enc``, ``gcn.dep``, ``gcn.con``, ``head``)
    whose squared L2 norm is not a finite float64, or None.  Training asks
    only when the whole parameter vector's squared norm is not finite.

    A group with entries past about 1e154 is still finite but counts: the
    forward squares it in the message grams, so it cannot give a finite loss.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        for name, t in model.params.items():
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

    # constants of the run: a sentence's R mask depends only on its graphs,
    # and an instance's CE target only on its gold tags
    r_masks = {i: model.r_mask(graph_cache[i]) for i in train_idx}
    instances = []
    for i in train_idx:
        for inst in expand_instances(sentences[i]):
            instances.append((i, inst, model.ce_target(inst)))
    if not instances:
        raise EmptyCorpus("no verbs anywhere in the training split")

    # one gradient vector, zeroed once per batch, whose views are the
    # parameters' gradients, so the backward accumulates straight into it
    theta, grad = model.theta, np.zeros_like(model.theta)
    for p, view in zip(model.params.values(), model.split(grad).values()):
        p.grad = view
    adam = AdamState.for_vector(theta)
    best_f1, best_arrays, best_epoch = -1.0, model.export_arrays(), 0
    history = []

    for epoch in range(1, cfg.epochs + 1):
        perm = rng.permutation(len(instances))
        epoch_loss = 0.0
        correct = total = 0
        for start in range(0, len(perm), cfg.batch_size):
            batch = [instances[int(k)] for k in perm[start:start + cfg.batch_size]]
            terms = []
            # the parameters hold still within a batch, so its distinct
            # sentences, in first-appearance order, share one state build
            sent_ids = list(dict.fromkeys(i for i, _, _ in batch))
            try:
                states = dict(zip(sent_ids, model.sentence_states(
                    [sentences[i] for i in sent_ids],
                    [graph_cache[i] for i in sent_ids], sent_ids)))
                chunk_batch([(states[i], inst.indicator_verb) for i, inst, _ in batch])
                for sent_i, inst, target in batch:
                    parts = model.instance_losses(inst, graph_cache[sent_i],
                                                  sentence_id=sent_i,
                                                  state=states[sent_i],
                                                  r_mask=r_masks[sent_i],
                                                  target=target)
                    terms += parts.terms
                    correct += int((parts.logits.data.argmax(axis=1)
                                    == parts.gold_ids).sum())
                    total += len(parts.gold_ids)
            except ad.NonFiniteValue as exc:
                raise NonFiniteLoss(
                    f"epoch {epoch}, batch at instance {start}: {exc}") from exc
            scale = 1.0 / len(batch)
            batch_loss = ad.masked_nll([(rows, mask * scale) for rows, mask in terms])
            loss = float(batch_loss.data)
            if not np.isfinite(loss):
                raise NonFiniteLoss(
                    f"epoch {epoch}, batch at instance {start}: loss={loss}")
            grad.fill(0.0)
            batch_loss.backward()
            ad.adam_step(theta, grad, adam, lr=cfg.lr)
            with np.errstate(over="ignore", invalid="ignore"):
                finite = np.isfinite(theta @ theta)
            if not finite and (group := _diverged_group(model)) is not None:
                raise NonFiniteLoss(
                    f"epoch {epoch}, batch at instance {start}: parameter group "
                    f"{group} has a non-finite squared L2 norm after the Adam update")
            epoch_loss += loss * len(batch)
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
    _POOL_MODEL = ckpt.model


def _extract_one(model: Model, i: int, sentence: ParsedSentence) -> list[Extraction]:
    graphs = SentenceGraphs.build(sentence, model.cfg.flatten)
    return tagger.extract(sentence, model, graphs, sentence_id=i)


def _pool_extract(args) -> list[Extraction]:
    return _extract_one(_POOL_MODEL, *args)


def extract_corpus(ckpt: Checkpoint, sentences: list[ParsedSentence],
                   workers: int = 1) -> list[list[Extraction]]:
    """Per-sentence tuple lists, in corpus order, from a pool of ``workers``
    processes at most: no more than the sentences or the CPUs, and serial
    for one.  The serial path runs ``ckpt.model``, which every call on the
    checkpoint shares.  The model is built before any pool starts, so a
    checkpoint it cannot be built from raises here, as it does serially,
    and never in workers that the pool would replace forever."""
    model = ckpt.model
    if workers <= 1 or (size := min(workers, len(sentences),
                                     os.cpu_count() or 1)) <= 1:
        return [_extract_one(model, i, s) for i, s in enumerate(sentences)]
    import multiprocessing as mp

    with mp.Pool(size, initializer=_pool_init, initargs=(ckpt,)) as pool:
        return pool.map(_pool_extract, list(enumerate(sentences)))


def evaluate_checkpoint(ckpt: Checkpoint, sentences: list[ParsedSentence],
                        mode: str = "exact") -> ev.ScoreReport:
    if not sentences:
        raise EmptyCorpus("no sentences to evaluate on")
    extractions = extract_corpus(ckpt, sentences)
    pred = [[ev.TupleTexts.from_extraction(t, s.tokens) for t in ts]
            for s, ts in zip(sentences, extractions)]
    gold = ev.gold_tuple_texts(sentences)
    return ev.score_tuples(pred, gold, mode=mode)
