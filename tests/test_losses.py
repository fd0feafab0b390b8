import math

import numpy as np
import pytest

from synoie import autodiff as ad
from synoie import losses as L


# ---------------------------------------------------------------------------
# Brute-force oracles: plain float math, no autodiff, no shared code paths
# ---------------------------------------------------------------------------

def naive_prob(target, anchor, candidates):
    exps = [math.exp(float(c @ anchor)) for c in candidates]
    return exps[target] / sum(exps)


def brute_r1(h_by_view, adj_by_view, exclude_self=True):
    total = 0.0
    for z, h in h_by_view.items():
        adj = adj_by_view[z]
        n = len(h)
        for i in range(n):
            for j in range(n):
                if exclude_self and i == j:
                    continue
                if adj[i][j]:
                    total -= math.log(naive_prob(j, h[i], h))
    return total


def brute_r2(h_con, h_dep):
    total = 0.0
    n = len(h_con)
    for h_z, h_other in ((h_dep, h_con), (h_con, h_dep)):
        for i in range(n):
            total -= math.log(naive_prob(i, h_z[i], h_other))
    return total


def brute_r3(h_con, h_dep, adj_con, adj_dep, exclude_self=True):
    total = 0.0
    n = len(h_con)
    for h_z, h_other, adj in ((h_dep, h_con, adj_dep), (h_con, h_dep, adj_con)):
        for j in range(n):
            for i in range(n):
                if exclude_self and i == j:
                    continue
                if adj[i][j]:
                    total -= math.log(naive_prob(i, h_z[j], h_other))
    return total


def random_views(rng, n, d=4):
    h_con = [rng.normal(size=d) * 0.8 for _ in range(n)]
    h_dep = [rng.normal(size=d) * 0.8 for _ in range(n)]
    adj_con = np.eye(n, dtype=bool)
    adj_dep = np.eye(n, dtype=bool)
    for adj in (adj_con, adj_dep):
        for _ in range(n):
            a, b = rng.integers(0, n, size=2)
            adj[a, b] = adj[b, a] = True
    return h_con, h_dep, adj_con, adj_dep


def as_tensors(vectors):
    """One (n, d) matrix holding the given per-node vectors as rows."""
    return ad.constant(np.stack(vectors))


def pairwise_prob(target, anchor, candidates):
    """P(candidates[target] | anchor) read off the loss's log-prob matrix."""
    log_probs = L.log_prob_matrix(ad.constant([anchor]), candidates)
    return math.exp(log_probs.data[0, target])


class TestPairwiseProb:
    def test_single_candidate(self):
        p = pairwise_prob(0, [1.0, 2.0], as_tensors([[0.5, 0.5]]))
        assert p == pytest.approx(1.0)

    def test_identical_candidates_uniform(self):
        cands = as_tensors([[1.0, 0.0]] * 4)
        p = pairwise_prob(2, [3.0, -1.0], cands)
        assert p == pytest.approx(0.25)

    def test_three_vector_hand_case(self):
        anchor = np.array([1.0, 0.0, 2.0])
        cands = [np.array([0.5, 1.0, 0.0]), np.array([0.0, 0.0, 1.0]),
                 np.array([1.0, 1.0, 1.0])]
        got = pairwise_prob(1, anchor, as_tensors(cands))
        assert got == pytest.approx(naive_prob(1, anchor, cands), abs=1e-12)

    def test_empty_candidates(self):
        with pytest.raises(L.EmptyCandidates):
            pairwise_prob(0, [1.0], ad.constant(np.zeros((0, 1))))


class TestLossR1:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for n in (2, 3, 4, 6):
            h_con, h_dep, adj_con, adj_dep = random_views(rng, n)
            got = L.loss_r1({"con": as_tensors(h_con), "dep": as_tensors(h_dep)},
                            {"con": adj_con, "dep": adj_dep})
            want = brute_r1({"con": h_con, "dep": h_dep},
                            {"con": adj_con, "dep": adj_dep})
            assert abs(float(got.data) - want) < 1e-10

    def test_self_loops_only_when_included(self):
        # with self-loops counted, each term is -log P(h_i | h_i)
        rng = np.random.default_rng(1)
        h = [rng.normal(size=3) for _ in range(3)]
        adj = np.eye(3, dtype=bool)
        got = L.loss_r1({"dep": as_tensors(h)}, {"dep": adj},
                        exclude_self_loops=False)
        want = -sum(math.log(naive_prob(i, h[i], h)) for i in range(3))
        assert abs(float(got.data) - want) < 1e-12

    def test_self_loops_excluded_by_default(self):
        rng = np.random.default_rng(2)
        h = [rng.normal(size=3) for _ in range(2)]
        got = L.loss_r1({"dep": as_tensors(h)}, {"dep": np.eye(2, dtype=bool)})
        assert float(got.data) == 0.0

    def test_single_node_contributes_nothing_beyond_self(self):
        h = [np.array([1.0, 2.0])]
        adj = np.eye(1, dtype=bool)
        incl = L.loss_r1({"dep": as_tensors(h)}, {"dep": adj},
                         exclude_self_loops=False)
        # softmax over one candidate is 1, so -log 1 = 0
        assert float(incl.data) == pytest.approx(0.0)


class TestLossR2:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        for n in (2, 4, 6):
            h_con, h_dep, _, _ = random_views(rng, n)
            got = L.loss_r2(as_tensors(h_con), as_tensors(h_dep))
            assert abs(float(got.data) - brute_r2(h_con, h_dep)) < 1e-10

    def test_identical_vectors_give_uniform(self):
        n = 5
        v = np.array([0.3, -0.7])
        h = [v.copy() for _ in range(n)]
        got = L.loss_r2(as_tensors(h), as_tensors(h))
        assert float(got.data) == pytest.approx(2 * n * math.log(n))

    def test_single_node_is_zero(self):
        h = [np.array([1.0, -1.0])]
        got = L.loss_r2(as_tensors(h), as_tensors(h))
        assert float(got.data) == pytest.approx(0.0)


class TestLossR3:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(4)
        for n in (2, 3, 5, 6):
            h_con, h_dep, adj_con, adj_dep = random_views(rng, n)
            got = L.loss_r3(as_tensors(h_con), as_tensors(h_dep),
                            adj_con, adj_dep)
            want = brute_r3(h_con, h_dep, adj_con, adj_dep)
            assert abs(float(got.data) - want) < 1e-10

    def test_self_loops_only_reduces_to_r2_like_sum(self):
        rng = np.random.default_rng(5)
        h_con, h_dep, _, _ = random_views(rng, 4)
        eye = np.eye(4, dtype=bool)
        got = L.loss_r3(as_tensors(h_con), as_tensors(h_dep), eye, eye,
                        exclude_self_loops=False)
        want = brute_r2(h_con, h_dep)
        assert abs(float(got.data) - want) < 1e-10

    def test_disjoint_edge_sets_finite(self):
        rng = np.random.default_rng(6)
        h_con, h_dep, _, _ = random_views(rng, 4)
        adj_con = np.eye(4, dtype=bool)
        adj_con[0, 1] = adj_con[1, 0] = True
        adj_dep = np.eye(4, dtype=bool)
        adj_dep[2, 3] = adj_dep[3, 2] = True
        got = L.loss_r3(as_tensors(h_con), as_tensors(h_dep), adj_con, adj_dep)
        assert np.isfinite(got.data)


class TestTaggingLoss:
    def test_perfect_logits_approach_zero(self):
        logits = ad.constant([[30.0, 0.0], [0.0, 30.0]])
        out = L.tagging_loss(logits, [0, 1])
        assert float(out.data) < 1e-12

    def test_uniform_logits_log_t(self):
        t = 7
        logits = ad.constant(np.zeros((3, t)))
        out = L.tagging_loss(logits, [0, 3, 6])
        assert float(out.data) == pytest.approx(math.log(t))

    def test_two_token_hand_case(self):
        logits = ad.constant([[2.0, 0.0], [0.0, 1.0]])
        out = L.tagging_loss(logits, [0, 1])
        want = (math.log(math.exp(2) + 1) - 2 + math.log(1 + math.e) - 1) / 2
        assert float(out.data) == pytest.approx(want, abs=1e-12)


class TestCombinedLoss:
    def test_zero_weights_bit_equal_to_ce(self):
        ce = ad.constant(np.array(0.731))
        r = ad.constant(np.array(9.9))
        out = L.combined_loss(ce, r, r, r, L.LossWeights(0.0, 0.0, 0.0))
        assert out.data.tobytes() == ce.data.tobytes()

    def test_default_weights(self):
        ce, r1, r2, r3 = (ad.constant(np.array(v)) for v in (1.0, 2.0, 3.0, 4.0))
        out = L.combined_loss(ce, r1, r2, r3, L.LossWeights())
        assert float(out.data) == pytest.approx(1 + 0.024 * 2 + 0.012 * 3 + 0.012 * 4)

    def test_all_zero_sub_losses(self):
        z = ad.constant(np.array(0.0))
        out = L.combined_loss(z, z, z, z, L.LossWeights())
        assert float(out.data) == 0.0

    def test_zeroed_weight_removes_gradient(self):
        rng = np.random.default_rng(7)
        h_con = ad.parameter(rng.normal(size=(3, 3)))
        h_dep = ad.parameter(rng.normal(size=(3, 3)))

        def grads(beta):
            for t in (h_con, h_dep):
                t.zero_grad()
            ce = ad.constant(np.array(1.0))
            r2 = L.loss_r2(h_con, h_dep)
            out = L.combined_loss(ce, None, r2, None,
                                  L.LossWeights(0.0, beta, 0.0))
            out.backward()
            return [None if t.grad is None else t.grad.copy()
                    for t in (h_con, h_dep)]

        with_beta = grads(0.5)
        without = grads(0.0)
        assert any(g is not None and np.abs(g).max() > 0 for g in with_beta)
        assert all(g is None for g in without)

    def test_losses_nonnegative(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            h_con, h_dep, adj_con, adj_dep = random_views(rng, 4)
            hb = {"con": as_tensors(h_con), "dep": as_tensors(h_dep)}
            ab = {"con": adj_con, "dep": adj_dep}
            assert float(L.loss_r1(hb, ab).data) >= 0.0
            assert float(L.loss_r2(hb["con"], hb["dep"]).data) >= 0.0
            assert float(L.loss_r3(hb["con"], hb["dep"], adj_con,
                                   adj_dep).data) >= 0.0


def test_loss_weights_validate():
    with pytest.raises(ValueError):
        L.LossWeights(alpha=-0.1)
    with pytest.raises(ValueError):
        L.LossWeights(beta=float("nan"))
