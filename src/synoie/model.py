"""Full tagging model: contextual encoder, per-view GCNs, linear tag head."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import gcn as gcn_mod
from . import losses as losses_mod
from . import tagger
from .autodiff import Tensor
from .config import TrainConfig
from .corpus import ParsedSentence, TaggedInstance, tag_inventory
from .encoder import (EncoderParams, PrecomputedEncoder, ToyEncoder,
                      Vocabulary, PRECOMPUTED)
from .gcn import GcnParams, LabelVocab
from .graphs import build_const_graph, build_dep_graph, SyntacticGraph


@dataclass
class SentenceGraphs:
    const: SyntacticGraph
    dep: SyntacticGraph

    @classmethod
    def build(cls, sentence: ParsedSentence, flatten_cfg) -> "SentenceGraphs":
        return cls(const=build_const_graph(sentence, flatten_cfg),
                   dep=build_dep_graph(sentence))


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
        rng = rng if rng is not None else np.random.default_rng(cfg.seed)
        self.cfg = cfg
        self.vocab = vocab
        self.dep_labels = dep_labels
        self.con_labels = con_labels
        self.tags = tag_inventory(cfg.max_arg)
        self.tag_ids = {t: i for i, t in enumerate(self.tags)}

        self.enc_params = EncoderParams.init(len(vocab), cfg.d_h, rng)
        self.dep_params = GcnParams.init(len(dep_labels), cfg.d_h, cfg.d_l, rng)
        self.con_params = GcnParams.init(len(con_labels), cfg.d_h, cfg.d_l, rng)
        head_width = cfg.d_h * cfg.n_views()
        self.w_tag = ad.parameter(rng.uniform(-0.1, 0.1, (len(self.tags), head_width)))
        self.b_tag = ad.parameter(np.zeros(len(self.tags)))

        if cfg.encoder_kind == PRECOMPUTED:
            if cfg.encoder_vectors is None:
                raise ValueError("external-precomputed encoder needs encoder_vectors")
            self.encoder = PrecomputedEncoder.load(cfg.encoder_vectors)
            if self.encoder.d_h != cfg.d_h:
                raise ValueError(
                    f"precomputed vectors have width {self.encoder.d_h}, "
                    f"config says d_h={cfg.d_h}")
        else:
            self.encoder = ToyEncoder(self.enc_params, vocab)

    # -- parameters ---------------------------------------------------------

    def named_params(self) -> list[tuple[str, Tensor]]:
        named = list(self.enc_params.named())
        named += self.dep_params.named("dep")
        named += self.con_params.named("con")
        named += [("head.w", self.w_tag), ("head.b", self.b_tag)]
        return named

    def param_tensors(self) -> list[Tensor]:
        return [t for _, t in self.named_params()]

    def load_arrays(self, arrays: dict[str, np.ndarray]):
        for name, t in self.named_params():
            if name not in arrays:
                raise KeyError(f"checkpoint is missing tensor {name!r}")
            if arrays[name].shape != t.data.shape:
                raise ValueError(f"tensor {name!r}: checkpoint shape "
                                 f"{arrays[name].shape} vs model {t.data.shape}")
            t.data = arrays[name].astype(np.float64).copy()

    def export_arrays(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.named_params()}

    # -- forward ------------------------------------------------------------

    def forward(self, sentence: ParsedSentence, indicator_verb: int,
                graphs: SentenceGraphs, sentence_id: int | None = None) -> ForwardResult:
        cfg = self.cfg
        h_ctx = self.encoder.encode(sentence, indicator_verb, sentence_id)

        h_con = h_dep = alphas_con = alphas_dep = None
        if cfg.use_const:
            l_con = gcn_mod.node_label_embed_const(graphs.const, self.con_params,
                                                   self.con_labels)
            if cfg.use_gcn:
                h_con, alphas_con = gcn_mod.gcn_layer(graphs.const, h_ctx, l_con,
                                                      self.con_params)
            else:
                h_con = gcn_mod.label_projection(l_con, self.con_params)
        if cfg.use_dep:
            l_dep = gcn_mod.node_label_embed_dep(graphs.dep, self.dep_params,
                                                 self.dep_labels)
            if cfg.use_gcn:
                h_dep, alphas_dep = gcn_mod.gcn_layer(graphs.dep, h_ctx, l_dep,
                                                      self.dep_params)
            else:
                h_dep = gcn_mod.label_projection(l_dep, self.dep_params)

        h_final = gcn_mod.aggregate(h_ctx, h_con, h_dep)
        logits = tagger.tag_logits(h_final, self.w_tag, self.b_tag)
        return ForwardResult(logits=logits, h_ctx=h_ctx, h_con=h_con,
                             h_dep=h_dep, alphas_con=alphas_con,
                             alphas_dep=alphas_dep)

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
            l_r1 = losses_mod.loss_r1(h_by_view, adj_by_view,
                                      cfg.mv_exclude_self_loops)
        if cfg.use_r2 and w.beta != 0.0 and both:
            l_r2 = losses_mod.loss_r2(fwd.h_con, fwd.h_dep)
        if cfg.use_r3 and w.gamma != 0.0 and both:
            l_r3 = losses_mod.loss_r3(fwd.h_con, fwd.h_dep,
                                      graphs.const.adjacency,
                                      graphs.dep.adjacency,
                                      cfg.mv_exclude_self_loops)
        total = losses_mod.combined_loss(l_ce, l_r1, l_r2, l_r3, w)
        pred_ids = np.argmax(fwd.logits.data, axis=1).tolist()
        return {"total": total, "ce": l_ce, "r1": l_r1, "r2": l_r2, "r3": l_r3,
                "pred_ids": pred_ids, "gold_ids": gold_ids}

    def predict(self, sentence: ParsedSentence, indicator_verb: int,
                graphs: SentenceGraphs, sentence_id: int | None = None):
        """Argmax tags and their probabilities, without recording gradients."""
        with ad.no_grad():
            fwd = self.forward(sentence, indicator_verb, graphs, sentence_id)
        x = fwd.logits.data
        ex = np.exp(x - x.max(axis=1, keepdims=True))
        p = ex / ex.sum(axis=1, keepdims=True)
        best = np.argmax(p, axis=1)
        return ([self.tags[k] for k in best],
                p[np.arange(len(best)), best].tolist())
