import numpy as np
import pytest

from synoie import autodiff as ad
from synoie import gcn
from synoie.graphs import SyntacticGraph, CONST_VIEW, DEP_VIEW


def make_graph(view, n, edges, labels=None):
    adj = np.eye(n, dtype=bool)
    for i, j in edges:
        adj[i, j] = adj[j, i] = True
    if labels is None:
        labels = ["dep"] * n if view == DEP_VIEW else [["S"]] * n
    return SyntacticGraph(view=view, n=n, node_labels=labels,
                          edges=frozenset((min(i, j), max(i, j), "t")
                                          for i, j in edges),
                          adjacency=adj)


def naive_gcn(adj, h_ctx, l, w2, b):
    """Straight-line reimplementation of the layer equations (oracle)."""
    n, d_h = h_ctx.shape
    m = np.concatenate([h_ctx, l], axis=1)
    h_out = np.zeros((n, d_h))
    alphas = np.zeros((n, n))
    for i in range(n):
        scores = {}
        for j in range(n):
            if adj[i, j]:
                scores[j] = np.exp(m[i] @ m[j])
        z = sum(scores.values())
        acc = np.zeros(d_h)
        for j, s in scores.items():
            alphas[i, j] = s / z
            acc += (s / z) * (h_ctx[j] + w2 @ l[j] + b)
        h_out[i] = np.maximum(acc, 0.0)
    return h_out, alphas


@pytest.fixture
def small_params():
    return gcn.GcnParams.init(n_labels=5, d_h=4, d_l=3,
                              rng=np.random.default_rng(0))


class TestLabelEmbeddings:
    def test_dep_lookup(self, small_params):
        labels = gcn.LabelVocab(["<unk>", "ROOT", "nsubj"])
        g = make_graph(DEP_VIEW, 3, [(0, 1)], ["nsubj", "ROOT", "nsubj"])
        out = gcn.node_label_embed_dep(g, small_params, labels)
        np.testing.assert_array_equal(out.data[1],
                                      small_params.w1.data[labels.lookup("ROOT")])
        np.testing.assert_array_equal(out.data[0], out.data[2])

    def test_dep_unseen_label_hits_unk(self, small_params):
        labels = gcn.LabelVocab(["<unk>", "ROOT"])
        g = make_graph(DEP_VIEW, 1, [], ["weird-rel"])
        out = gcn.node_label_embed_dep(g, small_params, labels)
        np.testing.assert_array_equal(out.data[0],
                                      small_params.w1.data[labels.unk_id])

    def test_const_singleton_path(self, small_params):
        labels = gcn.LabelVocab(["<unk>", "S", "NP"])
        g = make_graph(CONST_VIEW, 1, [], [["S"]])
        out = gcn.node_label_embed_const(g, small_params, labels)
        np.testing.assert_array_equal(out.data[0],
                                      small_params.w1.data[labels.lookup("S")])

    def test_const_path_mean(self, small_params):
        # path [S, NP, NP] averages to (W1[S] + 2*W1[NP]) / 3
        labels = gcn.LabelVocab(["<unk>", "S", "NP"])
        g = make_graph(CONST_VIEW, 1, [], [["S", "NP", "NP"]])
        out = gcn.node_label_embed_const(g, small_params, labels)
        w1 = small_params.w1.data
        expected = (w1[labels.lookup("S")] + 2 * w1[labels.lookup("NP")]) / 3
        np.testing.assert_allclose(out.data[0], expected)

    def test_const_equal_rows_collapse(self, small_params):
        labels = gcn.LabelVocab(["<unk>", "S", "NP"])
        small_params.w1.data[:] = 0.25
        g = make_graph(CONST_VIEW, 2, [], [["S", "NP"], ["S", "NP", "NP", "S"]])
        out = gcn.node_label_embed_const(g, small_params, labels)
        np.testing.assert_allclose(out.data[0], out.data[1])

    def test_empty_path(self, small_params):
        labels = gcn.LabelVocab(["<unk>"])
        g = make_graph(CONST_VIEW, 1, [], [[]])
        with pytest.raises(gcn.EmptyPath):
            gcn.node_label_embed_const(g, small_params, labels)


class TestGcnLayer:
    def _inputs(self, rng, n, d_h=4, d_l=3):
        h_ctx = ad.constant(rng.normal(size=(n, d_h)))
        l = ad.constant(rng.normal(size=(n, d_l)))
        return h_ctx, l

    def test_self_loop_only(self, small_params):
        rng = np.random.default_rng(1)
        g = make_graph(DEP_VIEW, 2, [])
        h_ctx, l = self._inputs(rng, 2)
        out, alphas = gcn.gcn_layer(g, h_ctx, l, small_params)
        np.testing.assert_allclose(alphas.data[0], [1.0, 0.0])
        expected = np.maximum(
            h_ctx.data[0] + small_params.w2.data @ l.data[0]
            + small_params.b.data, 0.0)
        np.testing.assert_allclose(out.data[0], expected)

    def test_equal_messages_give_uniform_attention(self, small_params):
        g = make_graph(DEP_VIEW, 3, [(0, 1), (0, 2)])
        h_ctx = ad.constant(np.ones((3, 4)))
        l = ad.constant(np.ones((3, 3)))
        _, alphas = gcn.gcn_layer(g, h_ctx, l, small_params)
        np.testing.assert_allclose(alphas.data[0], [1 / 3] * 3)
        np.testing.assert_allclose(alphas.data[1], [0.5, 0.5, 0.0])

    def test_against_naive_oracle(self, small_params):
        rng = np.random.default_rng(2)
        g = make_graph(DEP_VIEW, 3, [(0, 1), (1, 2)])  # path graph
        h_ctx, l = self._inputs(rng, 3)
        out, alphas = gcn.gcn_layer(g, h_ctx, l, small_params)
        exp_h, exp_a = naive_gcn(g.adjacency, h_ctx.data, l.data,
                                 small_params.w2.data, small_params.b.data)
        np.testing.assert_allclose(out.data, exp_h, atol=1e-12)
        np.testing.assert_allclose(alphas.data, exp_a, atol=1e-12)

    def test_attention_rows_normalized_and_masked(self, small_params):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            edges = [(int(a), int(b))
                     for a, b in rng.integers(0, n, size=(n, 2)) if a != b]
            g = make_graph(DEP_VIEW, n, edges)
            h_ctx, l = self._inputs(rng, n)
            _, alphas = gcn.gcn_layer(g, h_ctx, l, small_params)
            for i, alpha in enumerate(alphas.data):
                assert abs(alpha.sum() - 1.0) < 1e-9
                assert (alpha[~g.adjacency[i]] == 0.0).all()

    def test_outputs_nonnegative(self, small_params):
        rng = np.random.default_rng(4)
        g = make_graph(DEP_VIEW, 4, [(0, 1), (2, 3), (1, 2)])
        h_ctx, l = self._inputs(rng, 4)
        out, _ = gcn.gcn_layer(g, h_ctx, l, small_params)
        assert (out.data >= 0).all()

    def test_permutation_equivariance(self, small_params):
        rng = np.random.default_rng(5)
        n = 5
        edges = [(0, 1), (1, 2), (2, 4), (3, 4)]
        g = make_graph(DEP_VIEW, n, edges)
        h_ctx, l = self._inputs(rng, n)
        out, _ = gcn.gcn_layer(g, h_ctx, l, small_params)

        perm = list(rng.permutation(n))  # new index -> old index
        perm_inv = {old: new for new, old in enumerate(perm)}
        pedges = [(perm_inv[i], perm_inv[j]) for i, j in edges]
        pg = make_graph(DEP_VIEW, n, pedges)
        ph = ad.constant(h_ctx.data[perm])
        pl = ad.constant(l.data[perm])
        pout, _ = gcn.gcn_layer(pg, ph, pl, small_params)
        for new, old in enumerate(perm):
            np.testing.assert_allclose(pout.data[new], out.data[old], atol=1e-12)

    def test_gradient_check(self, small_params):
        rng = np.random.default_rng(6)
        g = make_graph(DEP_VIEW, 3, [(0, 1), (1, 2)])
        h_ctx = ad.parameter(rng.normal(size=(3, 4)))
        l = ad.parameter(rng.normal(size=(3, 3)))
        readout = rng.normal(size=4)

        def f(*params):
            out, _ = gcn.gcn_layer(g, h_ctx, l, small_params)
            # mean over nodes, dotted with the readout
            return ad.masked_sum(out, np.tile(readout, (3, 1)) / 3)

        err = ad.grad_check(f, [small_params.w1, small_params.w2,
                                small_params.b, h_ctx, l])
        assert err < 1e-4


class TestAggregate:
    def test_widths(self):
        h = [ad.constant(np.ones((1, 4))) for _ in range(3)]
        out = gcn.aggregate(h[0], h[1], h[2])
        assert out.data[0].shape == (12,)

    def test_zero_side_views_project_ctx(self):
        ctx = ad.constant([np.arange(4.0)])
        zero = ad.constant(np.zeros((1, 4)))
        out = gcn.aggregate(ctx, zero, zero)
        np.testing.assert_array_equal(out.data[0, :4], ctx.data[0])
        assert (out.data[0, 4:] == 0).all()

    def test_missing_views_shrink_width(self):
        ctx = ad.constant(np.ones((1, 4)))
        assert gcn.aggregate(ctx).data[0].shape == (4,)
        assert gcn.aggregate(ctx, None,
                             ad.constant(np.ones((1, 4)))).data[0].shape == (8,)

    def test_label_projection_matches_formula(self, small_params):
        l = ad.constant([np.arange(3.0)])
        out = gcn.label_projection(l, small_params)
        np.testing.assert_allclose(
            out.data[0], small_params.w2.data @ l.data[0] + small_params.b.data)
