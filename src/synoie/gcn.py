"""Syntactic graph encoders: label embeddings, one-layer GCN, aggregation.

One GCN per view.  A node's message vector is its contextual state
concatenated with its label embedding; attention over neighbours (self-loop
included) is the masked softmax of raw message dot products, and the layer
output is the ReLU of the attention-weighted neighbour sum.  Both views
embed labels one way: a graph's constant label matrix, whose row i spreads
node i's labels over the vocabulary (a dep row is one-hot, a const row
averages the tags on the node's path), times the view's W1.  A view's label
embedding L and its projection L W2ᵀ + b do not depend on the verb, so a
batch builds them once, each as one node over the row stack of its
sentences (``Model.sentence_states``), and each verb's layer takes its
sentence's rows of both as inputs.  On the read path a layer runs a
sentence's k verbs at once, over ``(k, n, d_h)`` stacked states.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .graphs import SyntacticGraph

UNK_LABEL = "<unk>"


class LabelVocab:
    """Label-id map with an UNK fallback row for unseen labels."""

    def __init__(self, labels: list[str]):
        if UNK_LABEL not in labels:
            labels = [UNK_LABEL] + list(labels)
        self.labels = list(labels)
        self.ids = {l: i for i, l in enumerate(self.labels)}
        if len(self.ids) != len(self.labels):
            raise ValueError("duplicate label entries")
        self.unk_id = self.ids[UNK_LABEL]
        # each graph's label matrix, dropped with the graph
        self._label_matrices = weakref.WeakKeyDictionary()

    def __len__(self):
        return len(self.labels)

    def lookup(self, label: str) -> int:
        return self.ids.get(label, self.unk_id)

    @classmethod
    def collect(cls, labels) -> "LabelVocab":
        return cls([UNK_LABEL] + sorted(set(labels)))

    def label_matrix(self, g: SyntacticGraph) -> np.ndarray:
        """(n, len(self)): the graph's label rows spread over the label ids,
        with the labels this vocabulary lacks sharing the UNK column.  Built
        on the first call for ``g`` and kept until ``g`` is dropped."""
        m = self._label_matrices.get(g)
        if m is None:
            label_set, rows = g.label_rows
            cols = [self.lookup(t) for t in label_set]
            m = np.zeros((g.n, len(self)))
            if cols.count(self.unk_id) > 1:
                np.add.at(m, (slice(None), cols), rows)
            else:
                # distinct columns: a write into zeros is the add
                m[:, cols] = rows
            self._label_matrices[g] = m
        return m


@dataclass
class GcnParams:
    """Per-view tensors: label table W1, projection W2 and bias."""

    w1: Tensor  # (N_labels, d_l)
    w2: Tensor  # (d_h, d_l)
    b: Tensor   # (d_h,)


def node_label_embed(graphs: list[SyntacticGraph], params: GcnParams,
                     labels: LabelVocab) -> Tensor:
    """(N, d_l): each node's label embedding, over the row stack of
    ``graphs``: the row stack of their constant ``labels.label_matrix``
    matrices times W1, as one node.  A dep node's row is its label's W1 row,
    a const node's the mean of the tag rows along its constituency path."""
    mats = [labels.label_matrix(g) for g in graphs]
    return ad.matmul(ad.constant(mats[0] if len(mats) == 1 else np.vstack(mats)),
                     params.w1)


# one body, two names: the benchmark's tracer patches each view's own name
node_label_embed_const = node_label_embed_dep = node_label_embed


def gcn_layer(g: SyntacticGraph, h_ctx: Tensor, l: Tensor,
              proj: Tensor) -> tuple[Tensor, Tensor]:
    """One graph convolution over label embeddings ``l`` and their
    ``label_projection`` ``proj``; returns the (n, d_h) node states and the
    (n, n) attention matrix, a constant, or their (k, ·) stacks for
    (k, n, d_h) stacked ``h_ctx``.

    Attention row i is a masked softmax of the message dot products over the
    adjacency row (self-loop included), so isolated nodes cannot occur.  The
    whole layer is one autodiff node (``ad.attention_layer``).
    """
    return ad.attention_layer(h_ctx, l, proj, g.adjacency)


def label_projection(l: Tensor, params: GcnParams) -> Tensor:
    """(n, d_h) L W2ᵀ + b: the GCN's message term, and the whole view state
    when the GCN is ablated."""
    return ad.linear(l, params.w2, params.b)


def aggregate(h_ctx: Tensor, h_con: Tensor | None = None,
              h_dep: Tensor | None = None) -> Tensor:
    """Per-token concatenation in the fixed order ctx, con, dep (of
    matrices, or of (k, n, ·) stacked verbs)."""
    return ad.hstack([v for v in (h_ctx, h_con, h_dep) if v is not None])
