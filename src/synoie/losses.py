"""Tagging loss, the three multi-view relationship losses, and their sum.

All pairwise probabilities are softmaxes of raw dot products over one
sentence's node set (the candidate set is the view supplying the target
vector): the row log-softmax of ``H_z H_other^T``.  Each loss is the
negated sum of the entries a constant selection mask picks from such a
matrix, so every loss is non-negative; batch-level normalization is the
trainer's concern.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


class EmptyCandidates(Exception):
    pass


@dataclass(frozen=True)
class LossWeights:
    alpha: float = 0.024
    beta: float = 0.012
    gamma: float = 0.012

    def __post_init__(self):
        for name, w in (("alpha", self.alpha), ("beta", self.beta),
                        ("gamma", self.gamma)):
            if not (np.isfinite(w) and w >= 0):
                raise ValueError(f"{name} must be a non-negative finite real")


def log_prob_matrix(h_z: Tensor, h_other: Tensor) -> Tensor:
    """(n_z, n_other) log P(h_other[j] | h_z[i]): the row log-softmax of
    H_z H_other^T, so each row is a distribution over the candidate set."""
    if h_other.shape[0] == 0:
        raise EmptyCandidates("no candidate vectors")
    return ad.log_softmax_rows(ad.matmul(h_z, h_other, transpose_b=True))


def _selection(adj: np.ndarray) -> np.ndarray:
    """The graph's edges without its self-loops: a node never selects itself."""
    sel = adj.astype(float)
    np.fill_diagonal(sel, 0.0)
    return sel


def loss_r1(h_by_view: dict[str, Tensor],
            adj_by_view: dict[str, np.ndarray]) -> Tensor:
    """Inter-node intra-view: connected nodes score high under their own view."""
    terms = [ad.masked_sum(log_prob_matrix(h, h), -_selection(adj_by_view[view]))
             for view, h in h_by_view.items()]
    return ad.combine(terms, [1.0] * len(terms))


def _inter_view(h_con: Tensor, h_dep: Tensor, sel_dep: np.ndarray,
                sel_con: np.ndarray) -> Tensor:
    """Both directions: dep anchors over con candidates picked by sel_dep,
    con anchors over dep candidates picked by sel_con."""
    if h_con.shape[0] != h_dep.shape[0]:
        raise ad.ShapeMismatch("views disagree on node count")
    return ad.add(ad.masked_sum(log_prob_matrix(h_dep, h_con), -sel_dep),
                  ad.masked_sum(log_prob_matrix(h_con, h_dep), -sel_con))


def loss_r2(h_con: Tensor, h_dep: Tensor) -> Tensor:
    """Intra-node inter-view: each node close to its own other-view state."""
    eye = np.eye(h_con.shape[0])
    return _inter_view(h_con, h_dep, eye, eye)


def loss_r3(h_con: Tensor, h_dep: Tensor,
            adj_con: np.ndarray, adj_dep: np.ndarray) -> Tensor:
    """Inter-node inter-view: view-z edges pull in other-view neighbours."""
    return _inter_view(h_con, h_dep, _selection(adj_dep), _selection(adj_con))


def tagging_loss(logits: Tensor, gold_ids: list[int]) -> Tensor:
    """Mean token-level cross entropy for one instance."""
    return ad.cross_entropy_rows(logits, gold_ids)


def combined_loss(l_ce: Tensor, l_r1: Tensor | None, l_r2: Tensor | None,
                  l_r3: Tensor | None, weights: LossWeights) -> Tensor:
    """L_CE + alpha*L_R1 + beta*L_R2 + gamma*L_R3; zero weights drop out."""
    terms, coefs = [l_ce], [1.0]
    for w, term in ((weights.alpha, l_r1), (weights.beta, l_r2),
                    (weights.gamma, l_r3)):
        if w != 0.0 and term is not None:
            terms.append(term)
            coefs.append(w)
    return ad.combine(terms, coefs)
