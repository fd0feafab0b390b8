import math

import numpy as np
import pytest

from synoie import autodiff as ad
from synoie import losses as L
from synoie.graphs import SyntacticGraph


# ---------------------------------------------------------------------------
# Brute-force oracles: plain float math, no autodiff, no shared code paths
# ---------------------------------------------------------------------------

def naive_prob(target, anchor, candidates):
    exps = [math.exp(float(c @ anchor)) for c in candidates]
    return exps[target] / sum(exps)


def brute_r1(h_by_view, adj_by_view):
    total = 0.0
    for z, h in h_by_view.items():
        adj = adj_by_view[z]
        n = len(h)
        for i in range(n):
            for j in range(n):
                if i != j and adj[i][j]:
                    total -= math.log(naive_prob(j, h[i], h))
    return total


def brute_r2(h_con, h_dep):
    total = 0.0
    n = len(h_con)
    for h_z, h_other in ((h_dep, h_con), (h_con, h_dep)):
        for i in range(n):
            total -= math.log(naive_prob(i, h_z[i], h_other))
    return total


def brute_r3(h_con, h_dep, adj_con, adj_dep):
    total = 0.0
    n = len(h_con)
    for h_z, h_other, adj in ((h_dep, h_con, adj_dep), (h_con, h_dep, adj_con)):
        for j in range(n):
            for i in range(n):
                if i != j and adj[i][j]:
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


def graph(adj):
    """A graph whose adjacency is ``adj``, for the losses that read its
    edges."""
    return SyntacticGraph(view="dep", n=len(adj), node_labels=[], edges=frozenset(),
                          adjacency=np.asarray(adj, dtype=bool))


UNIFORM = L.view_gram([ad.constant(np.zeros((2, 1)))] * 2)


def picks(value):
    """A (4, 4) mask over ``UNIFORM``, whose log-probabilities are -log 2
    each, that makes a loss of ``value``."""
    mask = np.zeros((4, 4))
    mask[0, 0] = value / math.log(2.0)
    return mask


def ce_value(logits, gold_ids):
    """The value of the tagging loss of ``logits`` against ``gold_ids``."""
    rows, pick = L.tagging_loss(logits, gold_ids)
    return L.nll(rows, pick)


def two_view_gram(h_con, h_dep):
    """The block row softmax R1-R3 read over both views, from per-node
    vectors."""
    return L.view_gram([as_tensors(h_con), as_tensors(h_dep)])


def pairwise_prob(target, anchor, candidates):
    """P(candidates[target] | anchor) read off the losses' row softmax of
    anchor · candidatesᵀ."""
    rows = ad.row_softmax(ad.constant([anchor]), candidates)
    assert math.exp(rows.log_probs[0, target]) == pytest.approx(
        rows.probs[0, target], rel=1e-15)
    return math.exp(rows.log_probs[0, target])


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
        with pytest.raises(ad.ShapeMismatch):
            pairwise_prob(0, [1.0], ad.constant(np.zeros((0, 1))))


class TestLossR1:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for n in (2, 3, 4, 6):
            h_con, h_dep, adj_con, adj_dep = random_views(rng, n)
            gram = two_view_gram(h_con, h_dep)
            got = L.nll(gram, L.loss_r1(gram, [graph(adj_con), graph(adj_dep)]))
            want = brute_r1({"con": h_con, "dep": h_dep},
                            {"con": adj_con, "dep": adj_dep})
            assert abs(got - want) < 1e-10

    def test_self_loops_excluded_by_default(self):
        rng = np.random.default_rng(2)
        h = [rng.normal(size=3) for _ in range(2)]
        gram = L.view_gram([as_tensors(h)])
        got = L.nll(gram, L.loss_r1(gram, [graph(np.eye(2, dtype=bool))]))
        assert got == 0.0


class TestLossR2:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        for n in (2, 4, 6):
            h_con, h_dep, _, _ = random_views(rng, n)
            gram = two_view_gram(h_con, h_dep)
            got = L.nll(gram, L.loss_r2(gram))
            assert abs(got - brute_r2(h_con, h_dep)) < 1e-10

    def test_identical_vectors_give_uniform(self):
        n = 5
        v = np.array([0.3, -0.7])
        h = [v.copy() for _ in range(n)]
        gram = two_view_gram(h, h)
        got = L.nll(gram, L.loss_r2(gram))
        assert got == pytest.approx(2 * n * math.log(n))

    def test_single_node_is_zero(self):
        h = [np.array([1.0, -1.0])]
        gram = two_view_gram(h, h)
        got = L.nll(gram, L.loss_r2(gram))
        assert got == pytest.approx(0.0)


class TestLossR3:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(4)
        for n in (2, 3, 5, 6):
            h_con, h_dep, adj_con, adj_dep = random_views(rng, n)
            gram = two_view_gram(h_con, h_dep)
            got = L.nll(gram, L.loss_r3(gram, graph(adj_con), graph(adj_dep)))
            want = brute_r3(h_con, h_dep, adj_con, adj_dep)
            assert abs(got - want) < 1e-10

    def test_disjoint_edge_sets_finite(self):
        rng = np.random.default_rng(6)
        h_con, h_dep, _, _ = random_views(rng, 4)
        adj_con = np.eye(4, dtype=bool)
        adj_con[0, 1] = adj_con[1, 0] = True
        adj_dep = np.eye(4, dtype=bool)
        adj_dep[2, 3] = adj_dep[3, 2] = True
        gram = two_view_gram(h_con, h_dep)
        got = L.nll(gram, L.loss_r3(gram, graph(adj_con), graph(adj_dep)))
        assert np.isfinite(got)


class TestInterViewPair:
    def test_node_count_mismatch(self):
        rng = np.random.default_rng(5)
        h_con, h_dep, adj_con, _ = random_views(rng, 3)
        _, h_other, _, adj_dep = random_views(rng, 4)
        for n_con, n_dep in ((h_con, h_other), (h_con[:2], h_other)):
            with pytest.raises(ad.ShapeMismatch):
                two_view_gram(n_con, n_dep)
        gram = two_view_gram(h_con, h_dep)
        with pytest.raises(ad.ShapeMismatch):
            L.loss_r3(gram, graph(adj_con), graph(adj_dep))
        with pytest.raises(ad.ShapeMismatch):
            L.loss_r1(gram, [graph(adj_con), graph(adj_dep)])
        # R2 and R3 need both views
        with pytest.raises(ad.ShapeMismatch):
            L.loss_r2(L.view_gram([as_tensors(h_con)]))


class TestMaskForm:
    """Each R loss is its own mask over the Gram, and ``r_mask`` is their
    weighted sum."""

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_each_loss_is_r_mask_with_only_it_on(self, n):
        h_con, h_dep, adj_con, adj_dep = random_views(np.random.default_rng(20 + n), n)
        gram = two_view_gram(h_con, h_dep)
        views = [graph(adj_con), graph(adj_dep)]
        ones = L.LossWeights(1.0, 1.0, 1.0)
        for got, on in ((L.loss_r1(gram, views), (True, False, False)),
                        (L.loss_r2(gram), (False, True, False)),
                        (L.loss_r3(gram, *views), (False, False, True))):
            assert got.shape == gram.shape == (2 * n, 2 * n)
            assert got.tobytes() == L.r_mask(views, ones, *on).tobytes()

    def test_one_view_r1_is_its_selection(self):
        h_con, _, adj_con, _ = random_views(np.random.default_rng(24), 4)
        g = graph(adj_con)
        gram = L.view_gram([as_tensors(h_con)])
        assert L.loss_r1(gram, [g]).tobytes() == g.selection.tobytes()

    def test_no_loss_on_is_no_mask(self):
        views = [graph(np.eye(3, dtype=bool))] * 2
        assert L.r_mask(views, L.LossWeights(), False, False, False) is None

    @pytest.mark.parametrize("shape", [(4, 3), (2, 2), (4,), (8, 8)])
    def test_nll_rejects_a_mask_of_another_shape(self, shape):
        with pytest.raises(ad.ShapeMismatch):
            L.nll(UNIFORM, np.zeros(shape))
        rows, _ = L.tagging_loss(ad.constant(np.zeros((2, 3))), [0, 1])
        with pytest.raises(ad.ShapeMismatch):
            L.nll(rows, np.zeros(shape))

    @pytest.mark.parametrize("shape", [(3, 3), (2, 3), (2,)])
    def test_placer_rejects_a_block_of_another_shape(self, shape):
        with pytest.raises(ad.ShapeMismatch):
            L._placed(2, 2, [(0, 0, np.eye(2)), (0, 1, np.zeros(shape))])


class TestTaggingLoss:
    def test_perfect_logits_approach_zero(self):
        logits = ad.constant([[30.0, 0.0], [0.0, 30.0]])
        assert ce_value(logits, [0, 1]) < 1e-12

    def test_uniform_logits_log_t(self):
        t = 7
        logits = ad.constant(np.zeros((3, t)))
        assert ce_value(logits, [0, 3, 6]) == pytest.approx(math.log(t))

    def test_two_token_hand_case(self):
        logits = ad.constant([[2.0, 0.0], [0.0, 1.0]])
        want = (math.log(math.exp(2) + 1) - 2 + math.log(1 + math.e) - 1) / 2
        assert ce_value(logits, [0, 1]) == pytest.approx(want, abs=1e-12)

    def test_gradient_is_softmax_minus_gold_over_n(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(4, 5))
        gold = [0, 4, 2, 2]
        logits = ad.parameter(x)
        ad.masked_nll([L.tagging_loss(logits, gold)]).backward()
        probs = np.exp(x) / np.exp(x).sum(axis=1, keepdims=True)
        probs[np.arange(4), gold] -= 1.0
        np.testing.assert_allclose(logits.grad, probs / 4, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("gold", [[0], [0, 1, 1], [0, 2], [-1, 0]])
    def test_bad_gold_ids(self, gold):
        with pytest.raises(ad.ShapeMismatch):
            L.tagging_loss(ad.constant(np.zeros((2, 2))), gold)

    def test_given_pick_is_the_one_built_here(self):
        logits = ad.constant(np.random.default_rng(11).normal(size=(3, 4)))
        rows, pick = L.tagging_loss(logits, [1, 3, 1])
        given = L.gold_pick([1, 3, 1], 4)
        assert given.tobytes() == pick.tobytes()
        assert L.tagging_loss(logits, [1, 3, 1], given)[1] is given
        with pytest.raises(ad.ShapeMismatch):
            L.tagging_loss(logits, [1, 3, 1], L.gold_pick([1, 3, 1], 5))


class TestCombinedLoss:
    def test_zero_weights_bit_equal_to_ce(self):
        ce = (UNIFORM, picks(0.731))
        r = picks(9.9)
        out = L.combined_loss(ce, UNIFORM, r, r, r, L.LossWeights(0.0, 0.0, 0.0))
        assert out.data.tobytes() == np.float64(L.nll(UNIFORM, picks(0.731))).tobytes()

    def test_default_weights(self):
        ce, r1, r2, r3 = (picks(v) for v in (1.0, 2.0, 3.0, 4.0))
        out = L.combined_loss((UNIFORM, ce), UNIFORM, r1, r2, r3, L.LossWeights())
        assert float(out.data) == pytest.approx(1 + 0.024 * 2 + 0.012 * 3 + 0.012 * 4)

    def test_all_zero_sub_losses(self):
        z = picks(0.0)
        out = L.combined_loss((UNIFORM, z), UNIFORM, z, z, z, L.LossWeights())
        assert float(out.data) == 0.0

    def test_zeroed_weight_removes_gradient(self):
        # the caller runs no R loss whose weight is zero (``Model.instance_losses``
        # decides which run), and a loss that does not run adds no gradient
        rng = np.random.default_rng(7)
        h_con = ad.parameter(rng.normal(size=(3, 3)))
        h_dep = ad.parameter(rng.normal(size=(3, 3)))

        def grads(beta):
            for t in (h_con, h_dep):
                t.grad = None
            gram = L.view_gram([h_con, h_dep])
            r2 = L.loss_r2(gram) if beta else None
            out = L.combined_loss((UNIFORM, picks(1.0)), gram,
                                  None, r2, None, L.LossWeights(0.0, beta, 0.0))
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
            ab = {"con": graph(adj_con), "dep": graph(adj_dep)}
            gram = L.view_gram([hb["con"], hb["dep"]])
            assert L.nll(gram, L.loss_r1(gram, [ab["con"], ab["dep"]])) >= 0.0
            assert L.nll(gram, L.loss_r2(gram)) >= 0.0
            assert L.nll(gram, L.loss_r3(gram, ab["con"], ab["dep"])) >= 0.0


def test_loss_weights_validate():
    with pytest.raises(ValueError):
        L.LossWeights(alpha=-0.1)
    with pytest.raises(ValueError):
        L.LossWeights(beta=float("nan"))
