"""Tagging loss, the three multi-view relationship losses, and their sum.

A loss is a constant mask over a row log-softmax, and its value is the
negated sum of the entries the mask picks.  For the tagging loss the rows
are the tag logits and the mask picks each token's gold tag at weight 1/n.
R1-R3 score pairs over one sentence's node set, and under the two views
every pair score is an entry of one similarity matrix G = H Hᵀ, for
H = [H_con; H_dep] the row stack of the view states.  Its four n x n blocks
are the four (anchor view, candidate view) products, so each R loss is one
(2n, 2n) mask over the block row log-softmax of G (each row normalised
within each view's n columns): R1 holds the views' ``selection`` masks
(their edges without self-loops) in the diagonal blocks, R2 the identities
in the off-diagonal ones, and R3 the ``selection`` masks there.  With one
view on, G is that view's own n x n Gram and R1 is that view's
``selection``.  So every loss is non-negative.  No loss records a node:
``r_mask`` sums the weighted R masks into one mask over G, which depends
only on the sentence's graphs, so a training run builds it once per
sentence.  One instance's loss is one ``ad.masked_nll`` node over CE's
mask and that R mask (``combined_loss``); training makes one such node per
batch, over every instance's masks, each scaled by 1/B.
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


def _placed(n: int, views: int, blocks) -> np.ndarray:
    """The (views n, views n) mask holding each (row block k, column block
    l, n x n mask) of ``blocks`` at its place, and zero elsewhere."""
    out = np.zeros((views * n, views * n))
    by_block = out.reshape(views, n, views, n)
    for k, l, mask in blocks:
        if np.shape(mask) != (n, n):
            raise ad.ShapeMismatch(f"a mask of {np.shape(mask)} at block "
                                   f"({k}, {l}) of {out.shape}")
        by_block[k, :, l] = mask
    return out


def _r1(graphs: list[SyntacticGraph]) -> np.ndarray:
    return _placed(graphs[0].n, len(graphs),
                   [(k, k, g.selection) for k, g in enumerate(graphs)])


def _r2(n: int) -> np.ndarray:
    eye = np.eye(n)
    return _placed(n, 2, [(0, 1, eye), (1, 0, eye)])


def _r3(g_con: SyntacticGraph, g_dep: SyntacticGraph) -> np.ndarray:
    return _placed(g_con.n, 2, [(0, 1, g_con.selection), (1, 0, g_dep.selection)])


def _over(rows: ad.RowSoftmax, mask: np.ndarray) -> np.ndarray:
    """``mask``, checked to be a mask over ``rows``."""
    if np.shape(mask) != rows.shape:
        raise ad.ShapeMismatch(f"a mask of {np.shape(mask)} over rows of "
                               f"{rows.shape}")
    return mask


def nll(rows: ad.RowSoftmax, mask: np.ndarray) -> float:
    """The value of the loss whose mask over ``rows`` is ``mask``."""
    return -float(np.vdot(rows.log_probs, _over(rows, mask)))


def loss_r1(gram: ad.RowSoftmax, graphs: list[SyntacticGraph]) -> np.ndarray:
    """Inter-node intra-view: connected nodes score high under their own
    view.  ``graphs`` are the views of ``gram``'s blocks, in its order."""
    return _over(gram, _r1(graphs))


def loss_r2(gram: ad.RowSoftmax) -> np.ndarray:
    """Intra-node inter-view: each node close to its own other-view state."""
    return _over(gram, _r2(gram.block))


def loss_r3(gram: ad.RowSoftmax, g_con: SyntacticGraph,
            g_dep: SyntacticGraph) -> np.ndarray:
    """Inter-node inter-view: view-z edges pull in other-view neighbours."""
    return _over(gram, _r3(g_con, g_dep))


def _weighted(weights: LossWeights, r1: np.ndarray | None, r2: np.ndarray | None,
              r3: np.ndarray | None) -> np.ndarray | None:
    """alpha R1 + beta R2 + gamma R3 over the R masks given, added in that
    order into zeros, or None when none is given."""
    scaled = [w * mask for w, mask in ((weights.alpha, r1), (weights.beta, r2),
                                       (weights.gamma, r3)) if mask is not None]
    return sum(scaled, np.zeros(scaled[0].shape)) if scaled else None


def r_mask(graphs: list[SyntacticGraph], weights: LossWeights, r1: bool,
           r2: bool, r3: bool) -> np.ndarray | None:
    """The mask that ``combined_loss`` writes over the Gram of the views
    ``graphs`` (con before dep) for the R losses switched on, built from the
    graphs alone, or None when none is on.  R2 and R3 need both views."""
    return _weighted(weights, _r1(graphs) if r1 else None,
                     _r2(graphs[0].n) if r2 else None,
                     _r3(*graphs) if r3 else None)


def gold_pick(gold_ids: list[int], n_tags: int) -> np.ndarray:
    """CE's (n, n_tags) mask over an instance's tag logits, which picks each
    token's gold tag at weight 1/n."""
    n = len(gold_ids)
    if n == 0 or min(gold_ids) < 0 or max(gold_ids) >= n_tags:
        raise ad.ShapeMismatch(f"gold indices {gold_ids} outside {n_tags} tags")
    pick = np.zeros((n, n_tags))
    pick[np.arange(n), gold_ids] = 1.0 / n
    return pick


def tagging_loss(logits: Tensor | ad.RowSoftmax, gold_ids: list[int],
                 pick: np.ndarray | None = None
                 ) -> tuple[ad.RowSoftmax, np.ndarray]:
    """Mean token-level cross entropy for one instance: the row softmax of
    ``logits`` (taken here unless ``logits`` is one already) and its
    ``gold_pick`` mask for ``gold_ids``, built here when ``pick`` is not
    given."""
    rows = logits if isinstance(logits, ad.RowSoftmax) else ad.row_softmax(logits)
    if len(gold_ids) != rows.shape[0]:
        raise ad.ShapeMismatch(f"tagging loss: logits {logits.shape}, "
                               f"{len(gold_ids)} gold tags")
    if pick is None:
        pick = gold_pick(gold_ids, rows.shape[1])
    elif pick.shape != rows.shape:
        raise ad.ShapeMismatch(f"tagging loss: logits {logits.shape}, "
                               f"pick mask {pick.shape}")
    return rows, pick


def combined_loss(ce: tuple[ad.RowSoftmax, np.ndarray], gram: ad.RowSoftmax | None,
                  r1: np.ndarray | None, r2: np.ndarray | None,
                  r3: np.ndarray | None, weights: LossWeights) -> Tensor:
    """L_CE + alpha*L_R1 + beta*L_R2 + gamma*L_R3 as one ``ad.masked_nll``
    node, over CE's mask and, when an R loss is given, the weighted sum of
    the given R masks over ``gram``."""
    mask = _weighted(weights, r1, r2, r3)
    return ad.masked_nll([ce] if mask is None else [ce, (gram, mask)])
