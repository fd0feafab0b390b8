"""Tagging loss, the three multi-view relationship losses, and their sum.

All four losses share one form: the negated sum of the entries constant
selection masks pick from row log-softmaxes, and each is one ``ad.masked_nll``
value.  For the tagging loss the rows are the tag logits and the mask picks
each token's gold tag at weight 1/n.  For R1-R3 the rows are pairwise
probabilities over one sentence's node set (the candidate set is the view
supplying the target vector): the row log-softmax of ``H_z H_otherᵀ``, masked
by a graph's ``selection`` (its edges without self-loops) or the identity.
So every loss is non-negative; batch-level normalization is the trainer's
concern.  Their weighted sum is one ``ad.weighted_nll`` node over the same
terms, so an instance's losses record one node between them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .graphs import SyntacticGraph


@dataclass(frozen=True)
class LossWeights:
    alpha: float = 0.024
    beta: float = 0.012
    gamma: float = 0.012

    def __post_init__(self):
        for name, w in (("alpha", self.alpha), ("beta", self.beta),
                        ("gamma", self.gamma)):
            if not (math.isfinite(w) and w >= 0):
                raise ValueError(f"{name} must be a non-negative finite real")


def loss_r1(h_by_view: dict[str, Tensor],
            graph_by_view: dict[str, SyntacticGraph]) -> ad.NllTensor:
    """Inter-node intra-view: connected nodes score high under their own view."""
    return ad.masked_nll([(ad.row_softmax(h, h), graph_by_view[view].selection)
                          for view, h in h_by_view.items()])


def inter_view_log_probs(h_con: Tensor,
                         h_dep: Tensor) -> tuple[ad.RowSoftmax, ad.RowSoftmax]:
    """The pair R2 and R3 both read, from one product S = H_dep H_conᵀ: dep
    anchors over con candidates (S), and con anchors over dep candidates
    (Sᵀ)."""
    return ad.row_softmax_pair(h_dep, h_con)


def loss_r2(inter: tuple[ad.RowSoftmax, ad.RowSoftmax]) -> ad.NllTensor:
    """Intra-node inter-view: each node close to its own other-view state."""
    eye = np.eye(inter[0].shape[0])
    return ad.masked_nll([(inter[0], eye), (inter[1], eye)])


def loss_r3(inter: tuple[ad.RowSoftmax, ad.RowSoftmax],
            g_con: SyntacticGraph, g_dep: SyntacticGraph) -> ad.NllTensor:
    """Inter-node inter-view: view-z edges pull in other-view neighbours."""
    return ad.masked_nll([(inter[0], g_dep.selection),
                          (inter[1], g_con.selection)])


def tagging_loss(logits: Tensor, gold_ids: list[int]) -> ad.NllTensor:
    """Mean token-level cross entropy for one instance."""
    rows = ad.row_softmax(logits)
    n, n_tags = rows.shape
    gold = np.asarray(gold_ids, dtype=np.intp)
    if n == 0 or gold.shape != (n,):
        raise ad.ShapeMismatch(f"tagging loss: logits {logits.shape}, "
                               f"gold {gold.shape}")
    if min(gold_ids) < 0 or max(gold_ids) >= n_tags:
        raise ad.ShapeMismatch(f"gold index outside {n_tags} tags")
    pick = np.zeros((n, n_tags))
    pick[np.arange(n), gold] = 1.0 / n
    return ad.masked_nll([(rows, pick)])


def combined_loss(l_ce: ad.NllTensor, l_r1: ad.NllTensor | None,
                  l_r2: ad.NllTensor | None, l_r3: ad.NllTensor | None,
                  weights: LossWeights) -> ad.NllTensor:
    """L_CE + alpha*L_R1 + beta*L_R2 + gamma*L_R3 as one node; zero weights
    drop out."""
    terms, coefs = [l_ce], [1.0]
    for w, term in ((weights.alpha, l_r1), (weights.beta, l_r2),
                    (weights.gamma, l_r3)):
        if w != 0.0 and term is not None:
            terms.append(term)
            coefs.append(w)
    return ad.weighted_nll(terms, coefs)
