"""Syntactic graph encoders: label embeddings, one-layer GCN, aggregation.

One GCN per view.  A node's message vector is its contextual state
concatenated with its label embedding; attention over neighbours (self-loop
included) is the masked softmax of raw message dot products, and the layer
output is the ReLU of the attention-weighted neighbour sum.  A view's label
embedding L and its projection L W2ᵀ + b do not depend on the verb, so a
batch builds them once, each as one node over the row stack of its
sentences (``Model.sentence_states``), and each verb's layer takes its
sentence's rows of both as inputs.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .graphs import SyntacticGraph, CONST_VIEW, DEP_VIEW

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
        # each const graph's path-averaging matrix and each dep graph's
        # label ids, dropped with the graph
        self._path_averages = weakref.WeakKeyDictionary()
        self._label_ids = weakref.WeakKeyDictionary()

    def __len__(self):
        return len(self.labels)

    def lookup(self, label: str) -> int:
        return self.ids.get(label, self.unk_id)

    @classmethod
    def collect(cls, labels) -> "LabelVocab":
        return cls([UNK_LABEL] + sorted(set(labels)))

    def path_average(self, g: SyntacticGraph, width: int) -> np.ndarray:
        """(n, width): the graph's cached label rows spread over the label
        ids, with the tags this vocabulary lacks sharing the UNK column.
        Built on the first call for ``g`` and kept until ``g`` is dropped."""
        avg = self._path_averages.get(g)
        if avg is None or avg.shape[1] != width:
            label_set, rows = g.label_rows
            avg = np.zeros((g.n, width))
            np.add.at(avg, (slice(None), [self.lookup(t) for t in label_set]),
                      rows)
            self._path_averages[g] = avg
        return avg

    def label_ids(self, g: SyntacticGraph) -> np.ndarray:
        """(n,) the id of each node's one label, UNK for a label this
        vocabulary lacks.  Built on the first call for ``g`` and kept until
        ``g`` is dropped."""
        ids = self._label_ids.get(g)
        if ids is None:
            label_set, rows = g.label_rows
            ids = np.array([self.lookup(l) for l in label_set],
                           dtype=np.intp)[rows.argmax(axis=1)]
            self._label_ids[g] = ids
        return ids


@dataclass
class GcnParams:
    """Per-view tensors: label table W1, projection W2 and bias."""

    w1: Tensor  # (N_labels, d_l)
    w2: Tensor  # (d_h, d_l)
    b: Tensor   # (d_h,)


def node_label_embed_dep(graphs: list[SyntacticGraph], params: GcnParams,
                         labels: LabelVocab) -> Tensor:
    """(N, d_l): the W1 row of each node's dependency label, over the row
    stack of ``graphs``, as one gather."""
    assert all(g.view == DEP_VIEW for g in graphs)
    return ad.gather_rows(params.w1,
                          np.concatenate([labels.label_ids(g) for g in graphs]))


def node_label_embed_const(graphs: list[SyntacticGraph], params: GcnParams,
                           labels: LabelVocab) -> Tensor:
    """(N, d_l): mean of the tag embeddings along each node's constituency
    path, over the row stack of ``graphs``: the row stack of their constant
    ``labels.path_average`` matrices times W1, as one node."""
    assert all(g.view == CONST_VIEW for g in graphs)
    width = params.w1.shape[0]
    avgs = [labels.path_average(g, width) for g in graphs]
    return ad.matmul(ad.constant(avgs[0] if len(avgs) == 1 else np.vstack(avgs)),
                     params.w1)


def gcn_layer(g: SyntacticGraph, h_ctx: Tensor, l: Tensor,
              proj: Tensor) -> tuple[Tensor, Tensor]:
    """One graph convolution over label embeddings ``l`` and their
    ``label_projection`` ``proj``; returns the (n, d_h) node states and the
    (n, n) attention matrix, a constant.

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
    """Per-token concatenation in the fixed order ctx, con, dep."""
    return ad.hstack([v for v in (h_ctx, h_con, h_dep) if v is not None])
