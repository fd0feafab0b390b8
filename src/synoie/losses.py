"""Tagging loss, the three multi-view relationship losses, and their sum.

All four losses share one form: the negated sum of the entries constant
selection masks pick from row log-softmaxes, and each is one ``ad.masked_nll``
value.  For the tagging loss the rows are the tag logits and the mask picks
each token's gold tag at weight 1/n.  R1-R3 score pairs over one sentence's
node set, and under the two views every pair score is an entry of one
similarity matrix G = H Hᵀ, for H = [H_con; H_dep] the row stack of the view
states.  Its four n x n blocks are the four (anchor view, candidate view)
products, so the losses read one block row log-softmax of G (each row
normalised within each view's n columns) through three constant masks: R1
the block diagonal of the views' ``selection`` masks (their edges without
self-loops), R2 the identities of the off-diagonal blocks, and R3 the
``selection`` masks in the off-diagonal blocks.  With one view on, G is that
view's own n x n Gram.  So every loss is non-negative; batch-level
normalization is the trainer's concern.  Their weighted sum is one
``ad.weighted_nll`` node over the same terms, so an instance's losses record
one node between them.
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


def view_gram(states: list[Tensor]) -> ad.RowSoftmax:
    """The block row softmax of G = H Hᵀ, for H the row stack of the active
    views' (n, d) ``states`` (con before dep), with one column block per
    view."""
    if any(s.shape[0] != states[0].shape[0] for s in states):
        raise ad.ShapeMismatch(f"view states of {[s.shape for s in states]}")
    h = states[0] if len(states) == 1 else ad.vstack(states)
    return ad.row_softmax(h, h, block=states[0].shape[0])


def _blocks(gram: ad.RowSoftmax, placed) -> np.ndarray:
    """The mask over ``gram`` with ``mask`` at block (row k, column l), for
    each (k, l, mask) in ``placed``, and zeros elsewhere."""
    n = gram.block
    views = gram.shape[1] // n
    out = np.zeros((views, n, views, n))
    for k, l, mask in placed:
        if max(k, l) >= views or np.shape(mask) != (n, n):
            raise ad.ShapeMismatch(f"a mask of {np.shape(mask)} at block "
                                   f"({k}, {l}) of {gram.shape} in blocks of {n}")
        out[k, :, l] = mask
    return out.reshape(gram.shape)


def loss_r1(gram: ad.RowSoftmax, graphs: list[SyntacticGraph]) -> ad.NllTensor:
    """Inter-node intra-view: connected nodes score high under their own
    view.  ``graphs`` are the views of ``gram``'s blocks, in its order."""
    return ad.masked_nll([(gram, _blocks(gram, [(k, k, g.selection)
                                                for k, g in enumerate(graphs)]))])


def loss_r2(gram: ad.RowSoftmax) -> ad.NllTensor:
    """Intra-node inter-view: each node close to its own other-view state."""
    eye = np.eye(gram.block)
    return ad.masked_nll([(gram, _blocks(gram, [(0, 1, eye), (1, 0, eye)]))])


def loss_r3(gram: ad.RowSoftmax, g_con: SyntacticGraph,
            g_dep: SyntacticGraph) -> ad.NllTensor:
    """Inter-node inter-view: view-z edges pull in other-view neighbours."""
    return ad.masked_nll([(gram, _blocks(gram, [(0, 1, g_con.selection),
                                                (1, 0, g_dep.selection)]))])


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
