"""Full tagging model: contextual encoder, per-view GCNs, linear tag head.

A ``SentenceState`` holds the verb-independent half of the forward pass (the
encoder's ``base``: for the window encoder its pre-activation with no verb
marked; and each view's label embedding L and projection L W2ᵀ + b), so all
of a sentence's verbs share it.  ``sentence_states`` builds the states of a
list of sentences as one node per kind over their row stack, and each state
is its sentence's row block of those nodes; a list of one sentence records
no block node.

``forward`` is one body for one verb or for a sequence of k verbs, and so
is each kernel it calls.  One verb gives 2-D results, which training
records; k verbs give their ``(k, n, ·)`` stack, read only.  ``predict``
reads its verb's row of one stacked forward over a chunk of the sentence's
verbs, at most ``STACK_ENTRIES`` entries in each (k, n, n) array, which a
``predict`` over a state builds and keeps in it (``SentenceState.stack``),
so extraction runs one forward per sentence (per chunk, for a long sentence
with many verbs) and training never builds one.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from . import autodiff as ad
from . import gcn as gcn_mod
from . import losses as losses_mod
from . import tagger
from .autodiff import Tensor
from .config import TrainConfig
from .corpus import TAG_IDS, TAGS, ParsedSentence, TaggedInstance
from .encoder import EncoderParams, PrecomputedEncoder, ToyEncoder, Vocabulary
from .gcn import GcnParams, LabelVocab
from .graphs import build_const_graph, build_dep_graph, SyntacticGraph


# float64 vectors training keeps the length of the parameter vector: the
# values, the gradient, Adam's two moments and the two scratch vectors of
# Adam's update
TRAINING_COPIES = 6

# the most entries of each (k, n, n) array one stacked forward holds: 2 MiB of
# float64, so a long sentence's k verbs do not cost k n² memory at once
STACK_ENTRIES = 2**18


def physical_memory() -> int | None:
    """This machine's physical memory in bytes, or None where the OS does not
    say."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, OSError, ValueError):
        return None


def param_shapes(cfg: TrainConfig, n_words: int, n_dep_labels: int,
                 n_con_labels: int) -> dict[str, tuple[int, ...]]:
    """Every tensor's name and shape, in the order ``Model`` draws them: each
    2-D weight from U(-0.1, 0.1), each 1-D bias zero."""
    d_h, d_l, n_tags = cfg.d_h, cfg.d_l, len(TAGS)
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
    built for.  ``stack`` is None until the first ``Model.predict`` over
    the state builds the stacked forward over a chunk of the sentence's
    verbs, and holds the last chunk built."""

    graphs: SentenceGraphs
    sentence_id: int | None
    base: Tensor
    con: tuple[Tensor, Tensor] | None
    dep: tuple[Tensor, Tensor] | None
    stack: VerbStack | None = None


@dataclass
class ForwardResult:
    """(n, n_tags) logits, (n, d_h) states and (n, n) attention matrices for
    one verb; for k stacked verbs, (k, n, n_tags), (k, n, d_h) and
    (k, n, n), slice i being the bytes of verb i's own results."""

    logits: Tensor
    h_ctx: Tensor
    h_con: Tensor | None
    h_dep: Tensor | None
    alphas_con: Tensor | None
    alphas_dep: Tensor | None


@dataclass
class VerbStack:
    """One read-only forward over ``verbs``, stacked: ``forward``'s results
    are (k, n, ·), and ``tags`` and ``probs`` are (k, n), each token's
    argmax tag id and its probability, row i for verbs[i]."""

    verbs: tuple[int, ...]
    forward: ForwardResult
    tags: np.ndarray
    probs: np.ndarray


@dataclass(eq=False)
class InstanceLosses:
    """One instance's loss as the (row softmax, constant mask) ``terms`` of
    one ``ad.masked_nll``: CE's, then the Gram's when an R loss runs.

    ``parts[key]`` reads total, the recorded loss; ce, r1, r2, r3, the
    values of its parts, each the ``losses.nll`` of its own mask (r* None
    for a loss that does not run); pred_ids; and gold_ids.  Each value is
    computed when first read and then kept; ``train`` reads the terms and
    the ids alone.
    """

    terms: list[tuple[ad.RowSoftmax, np.ndarray]]
    logits: Tensor
    gold_ids: list[int]
    views: list[SyntacticGraph]
    runs: tuple[bool, bool, bool]

    def __getitem__(self, key: str):
        return getattr(self, key)

    @cached_property
    def total(self) -> Tensor:
        return ad.masked_nll(self.terms)

    @cached_property
    def ce(self) -> float:
        return losses_mod.nll(*self.terms[0])

    def _r(self, k: int, mask_of) -> float | None:
        """The value of R(k + 1) from its mask ``mask_of`` the Gram, or None
        when it does not run."""
        if not self.runs[k]:
            return None
        gram = self.terms[1][0]
        return losses_mod.nll(gram, mask_of(gram))

    @cached_property
    def r1(self) -> float | None:
        return self._r(0, lambda gram: losses_mod.loss_r1(gram, self.views))

    @cached_property
    def r2(self) -> float | None:
        return self._r(1, losses_mod.loss_r2)

    @cached_property
    def r3(self) -> float | None:
        return self._r(2, lambda gram: losses_mod.loss_r3(gram, *self.views))

    @cached_property
    def pred_ids(self) -> list[int]:
        return np.argmax(self.logits.data, axis=1).tolist()


class Model:
    """Owns all trainable tensors, as views of one float64 vector ``theta``,
    and runs one instance at a time."""

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
                f"d_h={cfg.d_h} and d_l={cfg.d_l} ask for "
                f"{need / 2**20:,.0f} MiB of parameters, gradients and Adam "
                f"state; this machine has {limit / 2**20:,.0f} MiB")
        rng = rng if rng is not None else np.random.default_rng(cfg.seed)
        self._assemble(cfg, vocab, dep_labels, con_labels, shapes,
                       np.zeros(sum(math.prod(s) for s in shapes.values())))
        for name, shape in shapes.items():
            if len(shape) == 2:
                self.params[name].data[...] = rng.uniform(-0.1, 0.1, shape)

    @classmethod
    def from_arrays(cls, cfg: TrainConfig, vocab: Vocabulary,
                    dep_labels: LabelVocab, con_labels: LabelVocab,
                    arrays: dict[str, np.ndarray]) -> "Model":
        """A model holding a copy of ``arrays``, keyed by the names
        ``param_shapes`` gives, with nothing drawn at random.

        Raises KeyError for a missing tensor, and ValueError for a tensor
        ``param_shapes`` does not name or whose shape does not follow from the
        config and the vocabularies.
        """
        shapes = param_shapes(cfg, len(vocab), len(dep_labels), len(con_labels))
        if extra := sorted(arrays.keys() - shapes.keys()):
            raise ValueError(f"checkpoint holds tensor {extra[0]!r}, which the "
                             f"model does not have")
        for name, shape in shapes.items():
            if name not in arrays:
                raise KeyError(f"checkpoint is missing tensor {name!r}")
            if arrays[name].shape != shape:
                raise ValueError(f"tensor {name!r}: checkpoint shape "
                                 f"{arrays[name].shape} vs model {shape}")
        model = cls.__new__(cls)
        theta = np.concatenate([arrays[name].ravel() for name in shapes])
        model._assemble(cfg, vocab, dep_labels, con_labels, shapes,
                        theta.astype(np.float64, copy=False))
        return model

    def _assemble(self, cfg, vocab, dep_labels, con_labels, shapes, theta):
        """The parameters of ``shapes`` as views, in ``param_shapes`` order,
        of the float64 vector ``theta``."""
        self.cfg = cfg
        self.vocab = vocab
        self.dep_labels = dep_labels
        self.con_labels = con_labels
        self.shapes = shapes
        self.theta = theta
        self.params = {name: ad.parameter(a)
                       for name, a in self.split(self.theta).items()}
        self.enc_params = self._group(EncoderParams, "enc")
        self.dep_params = self._group(GcnParams, "gcn.dep")
        self.con_params = self._group(GcnParams, "gcn.con")
        self.w_tag = self.params["head.w"]
        self.b_tag = self.params["head.b"]
        if cfg.encoder_vectors is not None:
            self.encoder = PrecomputedEncoder.load(cfg.encoder_vectors, cfg.d_h)
        else:
            self.encoder = ToyEncoder(self.enc_params, vocab)

    def _group(self, cls, prefix: str):
        """The typed view ``cls`` over the parameters named ``prefix.<field>``."""
        return cls(**{f.name: self.params[f"{prefix}.{f.name}"] for f in fields(cls)})

    # -- parameters ---------------------------------------------------------

    def split(self, vec: np.ndarray) -> dict[str, np.ndarray]:
        """Views of ``vec``, a vector as long as ``theta``, shaped and named
        as the parameters it packs."""
        if vec.shape != self.theta.shape:
            raise ValueError(f"a vector of {vec.shape} for parameters of "
                             f"{self.theta.shape}")
        out, start = {}, 0
        for name, shape in self.shapes.items():
            end = start + math.prod(shape)
            out[name] = vec[start:end].reshape(shape)
            start = end
        return out

    def export_arrays(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.params.items()}

    # -- forward ------------------------------------------------------------

    def sentence_states(self, sentences: list[ParsedSentence],
                        graphs: list[SentenceGraphs],
                        sentence_ids: list[int | None]) -> list[SentenceState]:
        """The part of ``forward`` that every verb of each of ``sentences``
        shares: the encoder base and, for each active view, its label
        embedding and projection, each one node over the row stack of the
        sentences, and each state its sentence's row block of them."""
        sizes = [len(s.tokens) for s in sentences]
        base = ad.row_blocks(self.encoder.base(sentences, sentence_ids), sizes)
        con = self._label_blocks(self.cfg.use_const, gcn_mod.node_label_embed_const,
                                 [g.const for g in graphs], self.con_params,
                                 self.con_labels, sizes)
        dep = self._label_blocks(self.cfg.use_dep, gcn_mod.node_label_embed_dep,
                                 [g.dep for g in graphs], self.dep_params,
                                 self.dep_labels, sizes)
        return [SentenceState(*state) for state in
                zip(graphs, sentence_ids, base, con, dep, strict=True)]

    @staticmethod
    def _label_blocks(on: bool, embed, view_graphs: list[SyntacticGraph],
                      params: GcnParams, labels: LabelVocab, sizes: list[int]):
        """Each sentence's (L, L W2ᵀ + b) row blocks of one view, or None for
        each when the view is off."""
        if not on:
            return [None] * len(sizes)
        l = embed(view_graphs, params, labels)
        return list(zip(ad.row_blocks(l, sizes),
                        ad.row_blocks(gcn_mod.label_projection(l, params), sizes)))

    def forward(self, sentence: ParsedSentence, indicator_verb,
                graphs: SentenceGraphs, sentence_id: int | None = None,
                state: SentenceState | None = None) -> ForwardResult:
        """The forward pass over ``state``, built here when not given, of one
        verb (an int: 2-D results) or of a sequence of k verbs (their
        (k, n, ·) stack, which raises ``ad.ShapeMismatch`` unless gradients
        are off).  Both run the same kernels, each one numpy body for
        either rank under its own ``np.errstate``.

        Raises ValueError for a state built for other graphs or another
        sentence id.
        """
        if state is None:
            [state] = self.sentence_states([sentence], [graphs], [sentence_id])
        else:
            _check_state(state, graphs, sentence_id)
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
            if h_ctx.data.ndim == 3:
                proj = ad.broadcast_verbs(proj, h_ctx.shape[0])
            return proj, None
        return gcn_mod.gcn_layer(g, h_ctx, l, proj)

    def _r_losses(self) -> tuple[bool, bool, bool]:
        """Whether R1, R2 and R3 run: each needs its switch on, a nonzero
        weight and its views, one for R1 and both for R2 and R3."""
        cfg, w = self.cfg, self.cfg.weights
        views = int(cfg.use_const) + int(cfg.use_dep)
        return (cfg.use_r1 and w.alpha != 0.0 and views >= 1,
                cfg.use_r2 and w.beta != 0.0 and views == 2,
                cfg.use_r3 and w.gamma != 0.0 and views == 2)

    def _views(self, graphs: SentenceGraphs) -> list[SyntacticGraph]:
        """The graphs of the views that are on, con before dep."""
        return [g for g, on in ((graphs.const, self.cfg.use_const),
                                (graphs.dep, self.cfg.use_dep)) if on]

    def r_mask(self, graphs: SentenceGraphs) -> np.ndarray | None:
        """The weighted R1-R3 mask over the Gram of a sentence's view states,
        or None when no R loss runs.  It depends only on ``graphs`` and the
        config, so ``train`` builds it once per sentence."""
        runs = self._r_losses()
        if not any(runs):
            return None
        return losses_mod.r_mask(self._views(graphs), self.cfg.weights, *runs)

    def ce_target(self, inst: TaggedInstance) -> tuple[list[int], np.ndarray]:
        """An instance's gold tag ids and CE's ``losses.gold_pick`` mask for
        them, which are fixed for a run, so ``train`` builds them once."""
        gold_ids = [TAG_IDS[l] for l in inst.labels]
        return gold_ids, losses_mod.gold_pick(gold_ids, len(TAGS))

    def instance_losses(self, inst: TaggedInstance, graphs: SentenceGraphs,
                        sentence_id: int | None = None,
                        state: SentenceState | None = None,
                        r_mask: np.ndarray | None = None,
                        target: tuple[list[int], np.ndarray] | None = None
                        ) -> InstanceLosses:
        """Forward one instance over ``state`` and return its loss terms:
        CE's for its ``ce_target`` and, when an R loss runs, the Gram's under
        ``r_mask``.  Each of ``state``, ``r_mask`` and ``target`` is built
        here when not given."""
        fwd = self.forward(inst.sentence, inst.indicator_verb, graphs, sentence_id,
                           state)
        gold_ids, pick = self.ce_target(inst) if target is None else target
        terms = [losses_mod.tagging_loss(fwd.logits, gold_ids, pick)]
        runs = self._r_losses()
        if any(runs):
            gram = losses_mod.view_gram([h for h in (fwd.h_con, fwd.h_dep)
                                         if h is not None])
            terms.append((gram, self.r_mask(graphs) if r_mask is None else r_mask))
        return InstanceLosses(terms, fwd.logits, gold_ids, self._views(graphs), runs)

    def predict(self, sentence: ParsedSentence, indicator_verb: int,
                graphs: SentenceGraphs, sentence_id: int | None = None,
                state: SentenceState | None = None):
        """Argmax tags and their probabilities for one verb, without
        recording gradients.

        Over a ``state``, a call for one of ``sentence.verbs`` reads its row
        of one stacked forward over the chunk of max(1, STACK_ENTRIES // n²)
        consecutive verbs that holds it, and the state keeps the last chunk
        built.  A verb outside ``sentence.verbs``, or a call with no state,
        runs the same forward over that verb alone (k = 1).  Raises
        ValueError for a state built for other graphs or another sentence id.
        """
        if state is None or indicator_verb not in sentence.verbs:
            stack = self._verb_stack(sentence, [indicator_verb], graphs,
                                     sentence_id, state)
        else:
            _check_state(state, graphs, sentence_id)
            if state.stack is None or indicator_verb not in state.stack.verbs:
                size = max(1, STACK_ENTRIES // len(sentence.tokens) ** 2)
                start = sentence.verbs.index(indicator_verb) // size * size
                state.stack = None  # the kept chunk goes before the next is built
                state.stack = self._verb_stack(
                    sentence, sentence.verbs[start:start + size], graphs,
                    sentence_id, state)
            stack = state.stack
        row = stack.verbs.index(indicator_verb)
        return [TAGS[k] for k in stack.tags[row].tolist()], stack.probs[row].tolist()

    def _verb_stack(self, sentence, verbs, graphs, sentence_id, state) -> VerbStack:
        """The read-only forward over ``verbs`` stacked, and each token's
        argmax tag and probability for each verb."""
        with ad.no_grad():
            fwd = self.forward(sentence, verbs, graphs, sentence_id, state)
        x = fwd.logits.data
        ex = np.exp(x - x.max(axis=2, keepdims=True))
        # the best tag's exp is exp(0) = 1, so its probability is 1 / row sum
        return VerbStack(tuple(verbs), fwd, ex.argmax(axis=2), 1.0 / ex.sum(axis=2))


def _check_state(state: SentenceState, graphs: SentenceGraphs,
                 sentence_id: int | None):
    """Raise ValueError for a state built for other graphs or another
    sentence id."""
    if state.graphs is not graphs or state.sentence_id != sentence_id:
        raise ValueError("sentence state was built for other graphs "
                         "or another sentence id")
