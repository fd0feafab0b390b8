"""Full tagging model: contextual encoder, per-view GCNs, linear tag head.

A ``SentenceState`` holds the verb-independent half of the forward pass (the
encoder's ``base``: for the window encoder its pre-activation with no verb
marked; and each view's label embedding L and projection L W2ᵀ + b), so all
of a sentence's verbs share it.  ``sentence_states`` builds the states of a
list of sentences as one node per kind over their row stack, and each state
names its sentence's rows of those nodes; a training chunk stacks its
instances' rows of them with one node per kind, and a state built alone
reads the nodes themselves.

``forward`` is one body for the recorded row stack of instances, one verb
of a sentence each (``rows_forward``), and for a sentence's k verbs, and so
is each kernel it calls.  Training records one forward per chunk of a
batch: ``chunk_batch`` splits the batch's instances into consecutive chunks
of at most ``CHUNK_ROWS`` rows, and the first ``instance_losses`` call for
an instance of a chunk runs the chunk's forward, whose row blocks each
instance's loss reads.  One instance with no chunk is a chunk of one, the
2-D forward of one verb.  k verbs give their ``(k, n, ·)`` stack, read
only.  The first ``predict`` over a state tags all of the sentence's verbs
with stacked forwards over chunks of them, at most ``STACK_ENTRIES``
entries in each (k, n, n) array, and keeps only each verb's tag ids and
probabilities (``SentenceState.tags``), so extraction runs one forward per
sentence (per chunk, for a long sentence with many verbs) and training
never builds one.

A model holds only the tensors its config's forward reads (``param_shapes``):
no encoder tensors when ``encoder_vectors`` replays vectors, and no tensors
of a view that is off.
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

# the most rows one recorded training forward stacks (``chunk_batch``): its
# attention works on (N, N) arrays over N stacked rows, so its cost grows as
# N², and measured, a bound of 64 gains most on short sentences while no
# length runs more than about 10 % slower than one instance at a time
CHUNK_ROWS = 64


def physical_memory() -> int | None:
    """This machine's physical memory in bytes, or None where the OS does not
    say."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, OSError, ValueError):
        return None


def param_shapes(cfg: TrainConfig, n_words: int, n_dep_labels: int,
                 n_con_labels: int) -> dict[str, tuple[int, ...]]:
    """The name and shape of every tensor the config's forward reads, in the
    order ``Model`` draws them: the window encoder's unless ``encoder_vectors``
    replays vectors, each view's that is on, and the tag head's, whose width
    counts the views.  Each 2-D weight is drawn from U(-0.1, 0.1), each 1-D
    bias is zero."""
    d_h, d_l = cfg.d_h, cfg.d_l
    shapes = {}
    if cfg.encoder_vectors is None:
        shapes |= {"enc.w_word": (n_words, d_h), "enc.w_verb": (2, d_h),
                   "enc.w_mix": (d_h, 3 * d_h), "enc.b_mix": (d_h,)}
    views = 1
    for view, on, n_labels in (("dep", cfg.use_dep, n_dep_labels),
                               ("con", cfg.use_const, n_con_labels)):
        if on:
            views += 1
            shapes |= {f"gcn.{view}.w1": (n_labels, d_l),
                       f"gcn.{view}.w2": (d_h, d_l), f"gcn.{view}.b": (d_h,)}
    return shapes | {"head.w": (len(TAGS), d_h * views), "head.b": (len(TAGS),)}


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
    """One sentence's rows ``rows`` (a slice) of ``stack``: the encoder base
    and each view's (L, L W2ᵀ + b) pair, or None for a view that is off,
    each one node over the row stack of the sentences that
    ``Model.sentence_states`` built together.  ``base``, ``con`` and ``dep``
    are the sentence's row blocks of them, built when first read (the nodes
    themselves for a state built alone); a training forward gathers its
    rows from ``stack`` and reads no block.  ``graphs`` and ``sentence_id``
    name what the state was built for.  ``tags`` is None until the first
    ``Model.predict`` over the state tags every one of the sentence's verbs,
    and then maps each verb to its (n,) argmax tag ids and their
    probabilities.  ``chunks`` is None until ``chunk_batch`` places the
    sentence's training instances, and then maps each of their verbs to its
    chunk and its place in it."""

    graphs: SentenceGraphs
    sentence_id: int | None
    stack: tuple
    rows: slice
    tags: dict[int, tuple[np.ndarray, np.ndarray]] | None = None
    chunks: dict[int, tuple["Chunk", int]] | None = None

    @property
    def n(self) -> int:
        return self.rows.stop - self.rows.start

    @cached_property
    def base(self) -> Tensor:
        return ad.row_block(self.stack[0], self.rows)

    @cached_property
    def con(self) -> tuple[Tensor, Tensor] | None:
        return self._pair(self.stack[1])

    @cached_property
    def dep(self) -> tuple[Tensor, Tensor] | None:
        return self._pair(self.stack[2])

    def _pair(self, pair):
        return None if pair is None else tuple(ad.row_block(t, self.rows)
                                               for t in pair)


@dataclass
class ForwardResult:
    """(n, n_tags) logits, (n, d_h) states and (n, n) attention matrices for
    one verb, or for a row stack of N rows of instances, whose attention is
    block-diagonal; for k stacked verbs, (k, n, n_tags), (k, n, d_h) and
    (k, n, n), slice i being the bytes of verb i's own results."""

    logits: Tensor
    h_ctx: Tensor
    h_con: Tensor | None
    h_dep: Tensor | None
    alphas_con: Tensor | None
    alphas_dep: Tensor | None


@dataclass(eq=False)
class InstanceLosses:
    """One instance's loss as the (row softmax, constant mask) ``terms`` of
    one ``ad.masked_nll``: CE's, then the Gram's when an R loss runs.

    ``parts[key]`` reads total, the recorded loss; ce, r1, r2, r3, the
    values of its parts, each the ``losses.nll`` of its own mask (r* None
    for a loss that does not run); and gold_ids.  Each value is computed
    when first read and then kept; ``train`` reads the terms, the logits
    and the gold ids alone.  ``logits`` and CE's row softmax are the
    instance's row blocks of its chunk's.
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


class Model:
    """Owns all trainable tensors, as views of one float64 vector ``theta``,
    and runs the forward of one instance, of a chunk of a batch's instances
    or of a sentence's verbs."""

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
        """The typed view ``cls`` over the parameters named ``prefix.<field>``,
        or None when the model has none of them."""
        names = [f"{prefix}.{f.name}" for f in fields(cls)]
        if names[0] not in self.params:  # ``param_shapes`` lists whole groups
            return None
        return cls(*(self.params[name] for name in names))

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
        sentences, and each state its sentence's rows of them."""
        stack = (self.encoder.base(sentences, sentence_ids),
                 self._labels(gcn_mod.node_label_embed_const,
                              [g.const for g in graphs], self.con_params,
                              self.con_labels),
                 self._labels(gcn_mod.node_label_embed_dep,
                              [g.dep for g in graphs], self.dep_params,
                              self.dep_labels))
        states, start = [], 0
        for sentence, g, sentence_id in zip(sentences, graphs, sentence_ids,
                                            strict=True):
            end = start + len(sentence.tokens)
            states.append(SentenceState(g, sentence_id, stack, slice(start, end)))
            start = end
        return states

    @staticmethod
    def _labels(embed, view_graphs: list[SyntacticGraph],
                params: GcnParams | None, labels: LabelVocab):
        """One view's (L, L W2ᵀ + b) over the row stack of ``view_graphs``,
        or None when the view is off (the model has no ``params`` for it)."""
        if params is None:
            return None
        l = embed(view_graphs, params, labels)
        return l, gcn_mod.label_projection(l, params)

    def _state(self, sentence, graphs, sentence_id, state) -> SentenceState:
        """``state``, checked against ``graphs`` and ``sentence_id``, or the
        sentence's own state when not given."""
        if state is None:
            [state] = self.sentence_states([sentence], [graphs], [sentence_id])
        else:
            _check_state(state, graphs, sentence_id)
        return state

    def forward(self, sentence: ParsedSentence, indicator_verb,
                graphs: SentenceGraphs, sentence_id: int | None = None,
                state: SentenceState | None = None) -> ForwardResult:
        """The forward pass over ``state``, built here when not given, of one
        verb (an int: 2-D results, the ``rows_forward`` of one instance) or
        of a sequence of k verbs (their (k, n, ·) stack, which raises
        ``ad.ShapeMismatch`` unless gradients are off).  Every form runs the
        same kernels, each one numpy body under its own ``np.errstate``.

        Raises ValueError for a state built for other graphs or another
        sentence id.
        """
        state = self._state(sentence, graphs, sentence_id, state)
        if isinstance(indicator_verb, (int, np.integer)):
            return self.rows_forward([(state, indicator_verb)])
        return self._run(state.base, indicator_verb, None, [graphs.const],
                         state.con, [graphs.dep], state.dep)

    def rows_forward(self, members: list[tuple[SentenceState, int]]
                     ) -> ForwardResult:
        """The recorded forward of each (state, verb) of ``members`` over the
        row stack of their sentences: 2-D results of N = Σ nᵢ rows, each
        view's attention under the block-diagonal mask of the members'
        graphs, so member i's rows are its own forward's.  The members'
        states come from one ``sentence_states`` call, or this raises
        ValueError, and their rows of its nodes are stacked with one node
        per kind (``ad.stack_rows``), or none for one state of all of its
        rows: a state built alone gives one verb's forward."""
        states = [state for state, _ in members]
        base, con, dep = stack = states[0].stack
        if any(state.stack is not stack for state in states):
            raise ValueError("the instances of one forward come from states "
                             "of one sentence_states call")
        blocks = [state.rows for state in states]
        if blocks == [slice(0, base.shape[0])]:
            def rows(t):
                return t
        else:
            def rows(t):
                return ad.stack_rows(t, blocks)

        return self._run(rows(base), [verb for _, verb in members],
                         [state.n for state in states],
                         [state.graphs.const for state in states],
                         None if con is None else tuple(map(rows, con)),
                         [state.graphs.dep for state in states],
                         None if dep is None else tuple(map(rows, dep)))

    def _run(self, base, verbs, lengths, con_graphs, con, dep_graphs, dep
             ) -> ForwardResult:
        """The kernels of ``forward`` over ``base``, ``encode``'s ``verbs``
        and ``lengths``, and each view's graphs and (L, L W2ᵀ + b) pair."""
        h_ctx = self.encoder.encode(base, verbs, lengths)
        h_con, alphas_con = self._view(con_graphs, h_ctx, con)
        h_dep, alphas_dep = self._view(dep_graphs, h_ctx, dep)
        h_final = gcn_mod.aggregate(h_ctx, h_con, h_dep)
        logits = tagger.tag_logits(h_final, self.w_tag, self.b_tag)
        return ForwardResult(logits=logits, h_ctx=h_ctx, h_con=h_con,
                             h_dep=h_dep, alphas_con=alphas_con,
                             alphas_dep=alphas_dep)

    def _view(self, graphs: list[SyntacticGraph], h_ctx: Tensor, labels):
        """A view's states and attention over the row stack of ``graphs``
        from its (L, L W2ᵀ + b) pair."""
        if labels is None:
            return None, None
        l, proj = labels
        if not self.cfg.use_gcn:
            if h_ctx.data.ndim == 3:
                proj = ad.broadcast_verbs(proj, h_ctx.shape[0])
            return proj, None
        return gcn_mod.gcn_layer(gcn_mod.stack_graphs(graphs), h_ctx, l, proj)

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
        """One instance's loss terms over ``state``: CE's for its
        ``ce_target`` and, when an R loss runs, its Gram's under ``r_mask``.
        Each of ``state``, ``r_mask`` and ``target`` is built here when not
        given.

        An instance that ``chunk_batch`` placed in a chunk reads its row
        blocks of the chunk's one recorded forward, which the first call for
        any of the chunk's instances runs; any other instance is a chunk of
        one, whose blocks are its whole forward.  Raises ValueError for a
        state built for other graphs or another sentence id.
        """
        state = self._state(inst.sentence, graphs, sentence_id, state)
        verb = inst.indicator_verb
        chunk, j = (state.chunks or {}).get(verb) or (Chunk([(state, verb)]), 0)
        if chunk.blocks is None:
            self._run_chunk(chunk)
        ce, h_con, h_dep = chunk.blocks[j]
        gold_ids, pick = self.ce_target(inst) if target is None else target
        terms = [losses_mod.tagging_loss(ce, gold_ids, pick)]
        runs = self._r_losses()
        if any(runs):
            gram = losses_mod.view_gram([h for h in (h_con, h_dep) if h is not None])
            terms.append((gram, self.r_mask(graphs) if r_mask is None else r_mask))
        return InstanceLosses(terms, ce.a, gold_ids, self._views(graphs), runs)

    def _run_chunk(self, chunk: "Chunk"):
        """Run the chunk's ``rows_forward`` and CE's row softmax over its
        logits, and keep each instance's row blocks of both and, when an R
        loss reads them, of each view's states."""
        # the states hold the chunk, so it lets go of them: no cycle keeps
        # the recorded forward alive after the batch
        members, chunk.members = chunk.members, None
        fwd = self.rows_forward(members)
        sizes = [state.n for state, _ in members]
        views = [ad.row_blocks(h, sizes) if h is not None and any(self._r_losses())
                 else [None] * len(sizes) for h in (fwd.h_con, fwd.h_dep)]
        chunk.blocks = list(zip(ad.row_softmax(fwd.logits).row_blocks(sizes),
                                *views))

    def predict(self, sentence: ParsedSentence, indicator_verb: int,
                graphs: SentenceGraphs, sentence_id: int | None = None,
                state: SentenceState | None = None):
        """Argmax tags and their probabilities for one verb, without
        recording gradients.

        Over a ``state``, the first call for one of ``sentence.verbs`` tags
        all of them, with one stacked forward over each chunk of max(1,
        STACK_ENTRIES // n²) consecutive verbs, and keeps only each verb's
        tag ids and probabilities (``state.tags``); later calls look their
        verb up.  A verb outside ``sentence.verbs``, or a call with no
        state, runs the same forward over that verb alone (k = 1).  Raises
        ValueError for a state built for other graphs or another sentence id.
        """
        if state is None or indicator_verb not in sentence.verbs:
            [(tags, probs)] = self._verb_tags(sentence, [indicator_verb], graphs,
                                              sentence_id, state)
        else:
            _check_state(state, graphs, sentence_id)
            if state.tags is None:
                size = max(1, STACK_ENTRIES // len(sentence.tokens) ** 2)
                kept = {}
                for start in range(0, len(sentence.verbs), size):
                    verbs = sentence.verbs[start:start + size]
                    kept.update(zip(verbs, self._verb_tags(
                        sentence, verbs, graphs, sentence_id, state)))
                state.tags = kept
            tags, probs = state.tags[indicator_verb]
        return [TAGS[k] for k in tags.tolist()], probs.tolist()

    def _verb_tags(self, sentence, verbs, graphs, sentence_id, state):
        """Each of ``verbs``' (n,) argmax tag ids and their probabilities,
        from one read-only forward over them stacked, which is freed on
        return."""
        with ad.no_grad():
            x = self.forward(sentence, verbs, graphs, sentence_id, state).logits.data
        ex = np.exp(x - x.max(axis=2, keepdims=True))
        # the best tag's exp is exp(0) = 1, so its probability is 1 / row sum
        return list(zip(ex.argmax(axis=2), 1.0 / ex.sum(axis=2)))


@dataclass(eq=False)
class Chunk:
    """Consecutive instances of a training batch, as (state, verb) members,
    whose recorded forward runs once over the row stack of their
    sentences.  ``blocks`` is None until the first ``instance_losses`` call
    for a member runs it, which sets ``members`` to None, and then holds
    member i's row blocks: of CE's row softmax, and of the con and dep
    states (None for a view that is off, or when no R loss reads them)."""

    members: list[tuple[SentenceState, int]] | None
    blocks: list[tuple] | None = None


def chunk_batch(members: list[tuple[SentenceState, int]]) -> list[Chunk]:
    """Split a training batch's (state, verb) instances, in batch order,
    into consecutive chunks of at most ``CHUNK_ROWS`` rows, an instance
    longer than that alone, and record each instance's chunk and place in
    its state (``state.chunks``)."""
    chunks, rows = [], 0
    for state, verb in members:
        if not chunks or rows + state.n > CHUNK_ROWS:
            chunks.append(Chunk([]))
            rows = 0
        if state.chunks is None:
            state.chunks = {}
        state.chunks[verb] = (chunks[-1], len(chunks[-1].members))
        chunks[-1].members.append((state, verb))
        rows += state.n
    return chunks


def _check_state(state: SentenceState, graphs: SentenceGraphs,
                 sentence_id: int | None):
    """Raise ValueError for a state built for other graphs or another
    sentence id."""
    if state.graphs is not graphs or state.sentence_id != sentence_id:
        raise ValueError("sentence state was built for other graphs "
                         "or another sentence id")
