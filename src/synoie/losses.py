"""Tagging loss, the three multi-view relationship losses, and their sum.

A loss is a constant mask over a row log-softmax, and its value is the
negated sum of the entries the mask picks.  For the tagging loss the rows
are the tag logits and the mask picks each token's gold tag at weight 1/n.
R1-R3 score pairs over one sentence's node set, and under the two views
every pair score is an entry of one similarity matrix G = H Hᵀ, for
H = [H_con; H_dep] the row stack of the view states.  Its four n x n blocks
are the four (anchor view, candidate view) products, so the losses read one
block row log-softmax of G (each row normalised within each view's n
columns), each through its (row block, column block, n x n mask) blocks:
R1 the views' ``selection`` masks (their edges without self-loops) on the
diagonal, R2 the identities off it, and R3 the ``selection`` masks off it.
With one view on, G is that view's own n x n Gram.  So every loss is
non-negative.  No loss records a node: ``r_mask`` writes the weighted R
blocks into one mask over G, which depends only on the sentence's graphs,
so a training run builds it once per sentence.  One instance's loss is one
``ad.masked_nll`` node over CE's mask and that R mask (``combined_loss``);
training makes one such node per batch, over every instance's masks, each
scaled by 1/B.
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


Blocks = list[tuple[int, int, np.ndarray]]


def _check(gram: ad.RowSoftmax, blocks: Blocks) -> Blocks:
    """``blocks``, each (row block k, column block l, mask) of ``gram``."""
    n = gram.block
    views = gram.shape[1] // n
    for k, l, mask in blocks:
        if max(k, l) >= views or np.shape(mask) != (n, n):
            raise ad.ShapeMismatch(f"a mask of {np.shape(mask)} at block "
                                   f"({k}, {l}) of {gram.shape} in blocks of {n}")
    return blocks


def _by_block(rows: ad.RowSoftmax, arr: np.ndarray) -> np.ndarray:
    """``arr``, of ``rows``' shape, indexed [row block, row, column block,
    column]; a row softmax has as many row blocks as column blocks."""
    views = rows.shape[1] // rows.block
    return arr.reshape(views, rows.shape[0] // views, views, rows.block)


def _mask(views: int, n: int, blocks: Blocks) -> np.ndarray:
    """The (views n, views n) mask that sums the ``blocks``' masks at their
    places, and is zero elsewhere."""
    out = np.zeros((views * n, views * n))
    by_block = out.reshape(views, n, views, n)
    for k, l, mask in blocks:
        by_block[k, :, l] += mask
    return out


def _blocks(gram: ad.RowSoftmax, blocks: Blocks) -> np.ndarray:
    """The mask over ``gram`` that sums the ``blocks``' masks at their
    places, and is zero elsewhere."""
    return _mask(gram.shape[1] // gram.block, gram.block, blocks)


def nll(rows: ad.RowSoftmax, blocks: Blocks) -> float:
    """The value of the loss whose mask over ``rows`` is ``blocks``."""
    log_probs = _by_block(rows, rows.log_probs)
    total = 0.0
    for k, l, mask in blocks:
        total += np.vdot(log_probs[k, :, l], mask)
    return -float(total)


def _r1(graphs: list[SyntacticGraph]) -> Blocks:
    return [(k, k, g.selection) for k, g in enumerate(graphs)]


def _r2(n: int) -> Blocks:
    eye = np.eye(n)
    return [(0, 1, eye), (1, 0, eye)]


def _r3(g_con: SyntacticGraph, g_dep: SyntacticGraph) -> Blocks:
    return [(0, 1, g_con.selection), (1, 0, g_dep.selection)]


def loss_r1(gram: ad.RowSoftmax, graphs: list[SyntacticGraph]) -> Blocks:
    """Inter-node intra-view: connected nodes score high under their own
    view.  ``graphs`` are the views of ``gram``'s blocks, in its order."""
    return _check(gram, _r1(graphs))


def loss_r2(gram: ad.RowSoftmax) -> Blocks:
    """Intra-node inter-view: each node close to its own other-view state."""
    return _check(gram, _r2(gram.block))


def loss_r3(gram: ad.RowSoftmax, g_con: SyntacticGraph,
            g_dep: SyntacticGraph) -> Blocks:
    """Inter-node inter-view: view-z edges pull in other-view neighbours."""
    return _check(gram, _r3(g_con, g_dep))


def _weighted(weights: LossWeights, r1: Blocks | None, r2: Blocks | None,
              r3: Blocks | None) -> Blocks:
    """The given R losses' blocks, each scaled by its weight, R1's first."""
    return [(k, l, w * mask)
            for w, blocks in ((weights.alpha, r1), (weights.beta, r2),
                              (weights.gamma, r3)) if blocks is not None
            for k, l, mask in blocks]


def r_mask(graphs: list[SyntacticGraph], weights: LossWeights, r1: bool,
           r2: bool, r3: bool) -> np.ndarray:
    """The mask that ``combined_loss`` writes over the Gram of the views
    ``graphs`` (con before dep) for the R losses switched on, built from the
    graphs alone: alpha R1 + beta R2 + gamma R3.  R2 and R3 need both
    views."""
    n = graphs[0].n
    return _mask(len(graphs), n, _weighted(
        weights, _r1(graphs) if r1 else None, _r2(n) if r2 else None,
        _r3(*graphs) if r3 else None))


def gold_pick(gold_ids: list[int], n_tags: int) -> np.ndarray:
    """CE's (n, n_tags) mask over an instance's tag logits, which picks each
    token's gold tag at weight 1/n."""
    n = len(gold_ids)
    if n == 0 or min(gold_ids) < 0 or max(gold_ids) >= n_tags:
        raise ad.ShapeMismatch(f"gold indices {gold_ids} outside {n_tags} tags")
    pick = np.zeros((n, n_tags))
    pick[np.arange(n), gold_ids] = 1.0 / n
    return pick


def tagging_loss(logits: Tensor, gold_ids: list[int],
                 pick: np.ndarray | None = None
                 ) -> tuple[ad.RowSoftmax, np.ndarray]:
    """Mean token-level cross entropy for one instance: the row softmax of
    ``logits`` and its ``gold_pick`` mask for ``gold_ids``, built here when
    ``pick`` is not given."""
    rows = ad.row_softmax(logits)
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
                  r1: Blocks | None, r2: Blocks | None, r3: Blocks | None,
                  weights: LossWeights) -> Tensor:
    """L_CE + alpha*L_R1 + beta*L_R2 + gamma*L_R3 as one ``ad.masked_nll``
    node, over CE's mask and, when an R loss is given, one mask over
    ``gram`` that sums the given R losses' weighted blocks."""
    placed = _weighted(weights, r1, r2, r3)
    return ad.masked_nll([ce, (gram, _blocks(gram, placed))] if placed else [ce])
