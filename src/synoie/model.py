"""Full tagging model: contextual encoder, per-view GCNs, linear tag head.

A ``SentenceState`` holds the verb-independent half of the forward pass (the
encoder's ``base``: for the window encoder its pre-activation with no verb
marked; and each view's label embedding L and projection L W2ᵀ + b), so a
sentence builds it once and all of its verbs share it.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import gcn as gcn_mod
from . import losses as losses_mod
from . import tagger
from .autodiff import Tensor
from .config import TrainConfig
from .corpus import ParsedSentence, TaggedInstance, tag_count, tag_inventory
from .encoder import EncoderParams, PrecomputedEncoder, ToyEncoder, Vocabulary
from .gcn import GcnParams, LabelVocab
from .graphs import build_const_graph, build_dep_graph, SyntacticGraph


# float64 arrays a trained parameter holds: its value, its gradient and
# Adam's two moments
TRAINING_COPIES = 4


def physical_memory() -> int | None:
    """This machine's physical memory in bytes, or None where the OS does not
    say."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, OSError, ValueError):
        return None


def param_shapes(cfg: TrainConfig, n_words: int, n_dep_labels: int,
                 n_con_labels: int) -> dict[str, tuple[int, ...]]:
    """Every tensor's shape, keyed by the names ``Model.named_params`` gives."""
    d_h, d_l, n_tags = cfg.d_h, cfg.d_l, tag_count(cfg.max_arg)
    return {
        "enc.w_word": (n_words, d_h), "enc.w_verb": (2, d_h),
        "enc.w_mix": (d_h, 3 * d_h), "enc.b_mix": (d_h,),
        "gcn.dep.w1": (n_dep_labels, d_l), "gcn.dep.w2": (d_h, d_l),
        "gcn.dep.b": (d_h,),
        "gcn.con.w1": (n_con_labels, d_l), "gcn.con.w2": (d_h, d_l),
        "gcn.con.b": (d_h,),
        "head.w": (n_tags, d_h * cfg.n_views()), "head.b": (n_tags,),
    }


@dataclass
class SentenceGraphs:
    const: SyntacticGraph
    dep: SyntacticGraph

    @classmethod
    def build(cls, sentence: ParsedSentence, flatten_cfg) -> "SentenceGraphs":
        return cls(const=build_const_graph(sentence, flatten_cfg),
                   dep=build_dep_graph(sentence))


@dataclass
class SentenceState:
    """``con`` and ``dep`` are a view's (L, L W2ᵀ + b) pair, or None when
    the view is off; ``graphs`` and ``sentence_id`` name what the state was
    built for."""

    graphs: SentenceGraphs
    sentence_id: int | None
    base: Tensor
    con: tuple[Tensor, Tensor] | None
    dep: tuple[Tensor, Tensor] | None


@dataclass
class ForwardResult:
    """(n, n_tags) logits, (n, d_h) states and (n, n) attention matrices."""

    logits: Tensor
    h_ctx: Tensor
    h_con: Tensor | None
    h_dep: Tensor | None
    alphas_con: Tensor | None
    alphas_dep: Tensor | None


class Model:
    """Owns all trainable tensors and runs one instance at a time."""

    def __init__(self, cfg: TrainConfig, vocab: Vocabulary,
                 dep_labels: LabelVocab, con_labels: LabelVocab,
                 rng: np.random.Generator | None = None):
        """A model with parameters drawn from ``rng`` (default: ``cfg.seed``).

        Raises ValueError, before drawing anything, when the parameters and
        their training copies would not fit in this machine's memory.
        """
        shapes = param_shapes(cfg, len(vocab), len(dep_labels), len(con_labels))
        need = TRAINING_COPIES * 8 * sum(math.prod(s) for s in shapes.values())
        limit = physical_memory()
        if limit is not None and need > limit:
            raise ValueError(
                f"d_h={cfg.d_h}, d_l={cfg.d_l} and max_arg={cfg.max_arg} ask for "
                f"{need / 2**20:,.0f} MiB of parameters, gradients and Adam "
                f"moments; this machine has {limit / 2**20:,.0f} MiB")
        rng = rng if rng is not None else np.random.default_rng(cfg.seed)
        n_tags = shapes["head.b"][0]
        self._assemble(
            cfg, vocab, dep_labels, con_labels,
            EncoderParams.init(len(vocab), cfg.d_h, rng),
            GcnParams.init(len(dep_labels), cfg.d_h, cfg.d_l, rng),
            GcnParams.init(len(con_labels), cfg.d_h, cfg.d_l, rng),
            ad.parameter(rng.uniform(-0.1, 0.1, (n_tags, cfg.d_h * cfg.n_views()))),
            ad.parameter(np.zeros(n_tags)))

    @classmethod
    def from_arrays(cls, cfg: TrainConfig, vocab: Vocabulary,
                    dep_labels: LabelVocab, con_labels: LabelVocab,
                    arrays: dict[str, np.ndarray]) -> "Model":
        """A model holding copies of ``arrays``, keyed by the names
        ``named_params`` gives, with nothing drawn at random.

        Raises KeyError for a missing tensor and ValueError for a tensor whose
        shape does not follow from the config and the vocabularies.
        """
        shapes = param_shapes(cfg, len(vocab), len(dep_labels), len(con_labels))
        p = {}
        for name, shape in shapes.items():
            if name not in arrays:
                raise KeyError(f"checkpoint is missing tensor {name!r}")
            if arrays[name].shape != shape:
                raise ValueError(f"tensor {name!r}: checkpoint shape "
                                 f"{arrays[name].shape} vs model {shape}")
            p[name] = ad.parameter(np.array(arrays[name], dtype=np.float64))
        model = cls.__new__(cls)
        model._assemble(
            cfg, vocab, dep_labels, con_labels,
            EncoderParams(p["enc.w_word"], p["enc.w_verb"], p["enc.w_mix"],
                          p["enc.b_mix"]),
            GcnParams(p["gcn.dep.w1"], p["gcn.dep.w2"], p["gcn.dep.b"]),
            GcnParams(p["gcn.con.w1"], p["gcn.con.w2"], p["gcn.con.b"]),
            p["head.w"], p["head.b"])
        return model

    def _assemble(self, cfg, vocab, dep_labels, con_labels, enc_params,
                  dep_params, con_params, w_tag, b_tag):
        self.cfg = cfg
        self.vocab = vocab
        self.dep_labels = dep_labels
        self.con_labels = con_labels
        self.tags = tag_inventory(cfg.max_arg)
        self.tag_ids = {t: i for i, t in enumerate(self.tags)}
        self.enc_params = enc_params
        self.dep_params = dep_params
        self.con_params = con_params
        self.w_tag = w_tag
        self.b_tag = b_tag
        if cfg.encoder_vectors is not None:
            self.encoder = PrecomputedEncoder.load(cfg.encoder_vectors, cfg.d_h)
        else:
            self.encoder = ToyEncoder(enc_params, vocab)

    # -- parameters ---------------------------------------------------------

    def named_params(self) -> list[tuple[str, Tensor]]:
        named = list(self.enc_params.named())
        named += self.dep_params.named("dep")
        named += self.con_params.named("con")
        named += [("head.w", self.w_tag), ("head.b", self.b_tag)]
        return named

    def param_tensors(self) -> list[Tensor]:
        return [t for _, t in self.named_params()]

    def export_arrays(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.named_params()}

    # -- forward ------------------------------------------------------------

    def sentence_state(self, sentence: ParsedSentence, graphs: SentenceGraphs,
                       sentence_id: int | None = None) -> SentenceState:
        """The part of ``forward`` that every verb of ``sentence`` shares."""
        con = dep = None
        if self.cfg.use_const:
            l_con = gcn_mod.node_label_embed_const(graphs.const, self.con_params,
                                                   self.con_labels)
            con = l_con, gcn_mod.label_projection(l_con, self.con_params)
        if self.cfg.use_dep:
            l_dep = gcn_mod.node_label_embed_dep(graphs.dep, self.dep_params,
                                                 self.dep_labels)
            dep = l_dep, gcn_mod.label_projection(l_dep, self.dep_params)
        return SentenceState(graphs, sentence_id,
                             self.encoder.base(sentence, sentence_id), con, dep)

    def forward(self, sentence: ParsedSentence, indicator_verb: int,
                graphs: SentenceGraphs, sentence_id: int | None = None,
                state: SentenceState | None = None) -> ForwardResult:
        """One verb's forward pass over ``state``, built here when not given.

        Raises ValueError for a state built for other graphs or another
        sentence id.
        """
        if state is None:
            state = self.sentence_state(sentence, graphs, sentence_id)
        elif state.graphs is not graphs or state.sentence_id != sentence_id:
            raise ValueError("sentence state was built for other graphs "
                             "or another sentence id")
        h_ctx = self.encoder.encode(state.base, indicator_verb)
        h_con, alphas_con = self._view(graphs.const, h_ctx, state.con)
        h_dep, alphas_dep = self._view(graphs.dep, h_ctx, state.dep)
        h_final = gcn_mod.aggregate(h_ctx, h_con, h_dep)
        logits = tagger.tag_logits(h_final, self.w_tag, self.b_tag)
        return ForwardResult(logits=logits, h_ctx=h_ctx, h_con=h_con,
                             h_dep=h_dep, alphas_con=alphas_con,
                             alphas_dep=alphas_dep)

    def _view(self, g: SyntacticGraph, h_ctx: Tensor, labels):
        """A view's states and attention from its (L, L W2ᵀ + b) pair."""
        if labels is None:
            return None, None
        l, proj = labels
        if not self.cfg.use_gcn:
            return proj, None
        return gcn_mod.gcn_layer(g, h_ctx, l, proj)

    def instance_losses(self, inst: TaggedInstance, graphs: SentenceGraphs,
                        sentence_id: int | None = None) -> dict:
        """Forward one instance and return its loss components.

        Keys: total, ce, r1, r2, r3 (r* are None when disabled), pred_ids.
        """
        cfg = self.cfg
        fwd = self.forward(inst.sentence, inst.indicator_verb, graphs, sentence_id)
        gold_ids = [self.tag_ids[l] for l in inst.labels]
        l_ce = losses_mod.tagging_loss(fwd.logits, gold_ids)

        h_by_view = {view: h for view, h in (("con", fwd.h_con), ("dep", fwd.h_dep))
                     if h is not None}
        adj_by_view = {"con": graphs.const.adjacency, "dep": graphs.dep.adjacency}

        both = fwd.h_con is not None and fwd.h_dep is not None
        w = cfg.weights
        l_r1 = l_r2 = l_r3 = None
        if cfg.use_r1 and w.alpha != 0.0 and h_by_view:
            l_r1 = losses_mod.loss_r1(h_by_view, adj_by_view)
        run_r2 = cfg.use_r2 and w.beta != 0.0 and both
        run_r3 = cfg.use_r3 and w.gamma != 0.0 and both
        if run_r2 or run_r3:
            inter = losses_mod.inter_view_log_probs(fwd.h_con, fwd.h_dep)
            if run_r2:
                l_r2 = losses_mod.loss_r2(inter)
            if run_r3:
                l_r3 = losses_mod.loss_r3(inter, graphs.const.adjacency,
                                          graphs.dep.adjacency)
        total = losses_mod.combined_loss(l_ce, l_r1, l_r2, l_r3, w)
        pred_ids = np.argmax(fwd.logits.data, axis=1).tolist()
        return {"total": total, "ce": l_ce, "r1": l_r1, "r2": l_r2, "r3": l_r3,
                "pred_ids": pred_ids, "gold_ids": gold_ids}

    def predict(self, sentence: ParsedSentence, indicator_verb: int,
                graphs: SentenceGraphs, sentence_id: int | None = None,
                state: SentenceState | None = None):
        """Argmax tags and their probabilities, without recording gradients."""
        with ad.no_grad():
            fwd = self.forward(sentence, indicator_verb, graphs, sentence_id,
                               state)
        x = fwd.logits.data
        ex = np.exp(x - x.max(axis=1, keepdims=True))
        # the best tag's exp is exp(0) = 1, so its probability is 1 / row sum
        best = ex.argmax(axis=1).tolist()
        return [self.tags[k] for k in best], (1.0 / ex.sum(axis=1)).tolist()
