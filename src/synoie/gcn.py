"""Syntactic graph encoders: label embeddings, one-layer GCN, aggregation.

One GCN per view.  A node's message vector is its contextual state
concatenated with its label embedding; attention over neighbours (self-loop
included) is the masked softmax of raw message dot products, and the layer
output is the ReLU of the attention-weighted neighbour sum.  A view's label
embedding L and its projection L W2ᵀ + b do not depend on the verb, so a
sentence builds them once (``Model.sentence_state``) and each verb's layer
takes both as inputs.
"""

from __future__ import annotations

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
        self.unk_id = self.ids[UNK_LABEL]

    def __len__(self):
        return len(self.labels)

    def lookup(self, label: str) -> int:
        return self.ids.get(label, self.unk_id)

    @classmethod
    def collect(cls, labels) -> "LabelVocab":
        return cls([UNK_LABEL] + sorted(set(labels)))


@dataclass
class GcnParams:
    """Per-view tensors: label table W1, projection W2 and bias."""

    w1: Tensor  # (N_labels, d_l)
    w2: Tensor  # (d_h, d_l)
    b: Tensor   # (d_h,)

    @classmethod
    def init(cls, n_labels: int, d_h: int, d_l: int,
             rng: np.random.Generator) -> "GcnParams":
        u = lambda *shape: rng.uniform(-0.1, 0.1, size=shape)
        return cls(w1=ad.parameter(u(n_labels, d_l)),
                   w2=ad.parameter(u(d_h, d_l)),
                   b=ad.parameter(np.zeros(d_h)))

    def named(self, view: str) -> list[tuple[str, Tensor]]:
        return [(f"gcn.{view}.w1", self.w1), (f"gcn.{view}.w2", self.w2),
                (f"gcn.{view}.b", self.b)]


def node_label_embed_dep(g: SyntacticGraph, params: GcnParams,
                         labels: LabelVocab) -> Tensor:
    """(n, d_l): the W1 row of each node's dependency label."""
    assert g.view == DEP_VIEW
    label_set, rows = g.label_rows
    ids = np.array([labels.lookup(l) for l in label_set], dtype=np.intp)
    return ad.gather_rows(params.w1, ids[rows.argmax(axis=1)])


def node_label_embed_const(g: SyntacticGraph, params: GcnParams,
                           labels: LabelVocab) -> Tensor:
    """(n, d_l): mean of the tag embeddings along each node's constituency
    path, as one constant path-averaging matrix times W1.

    The matrix spreads the graph's cached label rows over the label ids;
    tags the vocabulary lacks share the UNK column.
    """
    assert g.view == CONST_VIEW
    label_set, rows = g.label_rows
    avg = np.zeros((g.n, params.w1.shape[0]))
    np.add.at(avg, (slice(None), [labels.lookup(t) for t in label_set]), rows)
    return ad.matmul(ad.constant(avg), params.w1)


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
