import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synoie import autodiff as ad
from synoie import corpus as c
from synoie import gcn
from synoie import graphs
from synoie.graphs import SyntacticGraph, CONST_VIEW, DEP_VIEW

from graph_reference import label_rows_loop
from primitives import gather_rows, masked_sum
from tree_strategies import (PHRASE_TAGS, bracketed_trees, root_is_preterminal,
                             tree_leaf_surfaces)

DEPRELS = ["nsubj", "obj", "det", "punct", "ROOT"]


def make_graph(view, n, edges, labels=None):
    adj = np.eye(n, dtype=bool)
    for i, j in edges:
        adj[i, j] = adj[j, i] = True
    if labels is None:
        labels = ["dep"] * n if view == DEP_VIEW else [["S"]] * n
    return SyntacticGraph(view=view, n=n, node_labels=labels,
                          edges=frozenset((min(i, j), max(i, j), "t")
                                          for i, j in edges),
                          adjacency=adj,
                          label_rows=label_rows_loop(view, n, labels))


def draw_params(n_labels, d_h, d_l, rng):
    """View tensors drawn as ``Model`` draws them: U(-0.1, 0.1), zero bias."""
    return gcn.GcnParams(w1=ad.parameter(rng.uniform(-0.1, 0.1, (n_labels, d_l))),
                         w2=ad.parameter(rng.uniform(-0.1, 0.1, (d_h, d_l))),
                         b=ad.parameter(np.zeros(d_h)))


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
    return draw_params(n_labels=5, d_h=4, d_l=3, rng=np.random.default_rng(0))


def vocab_params(labels):
    """View tensors whose W1 has one row per label of ``labels``, as
    ``param_shapes`` sizes it."""
    return draw_params(len(labels), d_h=4, d_l=3, rng=np.random.default_rng(0))


class TestLabelEmbeddings:
    def test_dep_lookup(self):
        labels = gcn.LabelVocab(["<unk>", "ROOT", "nsubj"])
        params = vocab_params(labels)
        g = make_graph(DEP_VIEW, 3, [(0, 1)], ["nsubj", "ROOT", "nsubj"])
        out = gcn.node_label_embed_dep([g], params, labels)
        np.testing.assert_array_equal(out.data[1],
                                      params.w1.data[labels.lookup("ROOT")])
        np.testing.assert_array_equal(out.data[0],
                                      params.w1.data[labels.lookup("nsubj")])
        np.testing.assert_array_equal(out.data[0], out.data[2])

    def test_dep_unseen_label_hits_unk(self):
        labels = gcn.LabelVocab(["<unk>", "ROOT"])
        params = vocab_params(labels)
        g = make_graph(DEP_VIEW, 1, [], ["weird-rel"])
        out = gcn.node_label_embed_dep([g], params, labels)
        np.testing.assert_array_equal(out.data[0], params.w1.data[labels.unk_id])

    def test_const_singleton_path(self):
        labels = gcn.LabelVocab(["<unk>", "S", "NP"])
        params = vocab_params(labels)
        g = make_graph(CONST_VIEW, 1, [], [["S"]])
        out = gcn.node_label_embed_const([g], params, labels)
        np.testing.assert_array_equal(out.data[0],
                                      params.w1.data[labels.lookup("S")])

    def test_const_path_mean(self):
        # path [S, NP, NP] averages to (W1[S] + 2*W1[NP]) / 3
        labels = gcn.LabelVocab(["<unk>", "S", "NP"])
        params = vocab_params(labels)
        g = make_graph(CONST_VIEW, 1, [], [["S", "NP", "NP"]])
        out = gcn.node_label_embed_const([g], params, labels)
        w1 = params.w1.data
        expected = (w1[labels.lookup("S")] + 2 * w1[labels.lookup("NP")]) / 3
        np.testing.assert_allclose(out.data[0], expected)

    def test_const_equal_rows_collapse(self):
        labels = gcn.LabelVocab(["<unk>", "S", "NP"])
        params = vocab_params(labels)
        params.w1.data[:] = 0.25
        g = make_graph(CONST_VIEW, 2, [], [["S", "NP"], ["S", "NP", "NP", "S"]])
        out = gcn.node_label_embed_const([g], params, labels)
        np.testing.assert_allclose(out.data[0], out.data[1])

    @pytest.mark.parametrize("view, embed, node_labels", [
        (CONST_VIEW, gcn.node_label_embed_const, [["S", "NP"], ["S"]]),
        (DEP_VIEW, gcn.node_label_embed_dep, ["NP", "S"])],
        ids=[CONST_VIEW, DEP_VIEW])
    def test_label_matrix_built_once_per_graph(self, view, embed, node_labels,
                                               monkeypatch):
        labels = gcn.LabelVocab(["<unk>", "S", "NP"])
        params = vocab_params(labels)
        g = make_graph(view, 2, [], node_labels)
        built = []
        inner = ad.constant

        def spy(data):
            built.append(data)
            return inner(data)

        monkeypatch.setattr(ad, "constant", spy)
        first = embed([g], params, labels)
        second = embed([g], params, labels)
        np.testing.assert_array_equal(first.data, second.data)
        assert len(built) == 2 and built[1] is built[0]
        # the vocabulary keeps no graph, and no matrix, alive
        kept = weakref.ref(built.pop())
        built.clear()
        del g, first, second
        gc.collect()
        assert kept() is None


def old_embed_const(g, params, labels) -> ad.Tensor:
    """The per-path loop the graph's cached label rows replace (oracle):
    the averaging matrix is built one tag of one path at a time, per verb."""
    avg = np.zeros((g.n, len(labels)))
    for i, path in enumerate(g.node_labels):
        for tag in path:
            avg[i, labels.lookup(tag)] += 1.0 / len(path)
    return ad.matmul(ad.constant(avg), params.w1)


def old_embed_dep(g, params, labels) -> ad.Tensor:
    """One label lookup per node, per verb (oracle)."""
    return gather_rows(params.w1, [labels.lookup(l) for l in g.node_labels])


class TestLabelRowsProperty:
    """The cached label rows give what the per-node loops gave, in value and
    in W1's gradient, for random trees, both views and the v1 variant.

    The value is bit-identical unless one const path holds two distinct tags
    the vocabulary lacks: both fall back to UNK, whose weight the loop summed
    tag by tag and the rows sum label by label, so it may differ in the last
    bit.  The dep gradient may differ in the last bit too: the matrix form's
    ``P.T @ g`` sums a label's node gradients in BLAS order, the gather's
    scatter-add in node order.
    """

    @settings(deadline=None, max_examples=150)
    @given(text=bracketed_trees, variant=st.sampled_from(["paper", "v1"]),
           known_tags=st.sets(st.sampled_from(PHRASE_TAGS)),
           known_rels=st.sets(st.sampled_from(DEPRELS)), data=st.data())
    def test_matches_per_node_loops(self, text, variant, known_tags, known_rels,
                                    data):
        tokens = tree_leaf_surfaces(text)
        rels = data.draw(st.lists(st.sampled_from(DEPRELS[:-1]),
                                  min_size=len(tokens) - 1,
                                  max_size=len(tokens) - 1))
        record = {"tokens": tokens, "const_ptb": text,
                  "dep_conllu": [[-1, "ROOT"]] + [[0, r] for r in rels],
                  "verbs": []}
        if root_is_preterminal(text):
            # its word would have no path: the corpus rejects the tree
            with pytest.raises(c.MalformedTree):
                c._build_sentence(record)
            return
        s = c._build_sentence(record)
        views = [(graphs.build_const_graph(s, graphs.FlattenConfig(variant=variant)),
                  gcn.node_label_embed_const, old_embed_const,
                  gcn.LabelVocab.collect(known_tags)),
                 (graphs.build_dep_graph(s), gcn.node_label_embed_dep,
                  old_embed_dep, gcn.LabelVocab.collect(known_rels))]
        rng = np.random.default_rng(len(tokens))
        for g, embed, oracle, labels in views:
            params = draw_params(len(labels), d_h=4, d_l=3, rng=rng)
            readout = rng.normal(size=(g.n, 3))
            want = oracle(g, params, labels)
            masked_sum(want, readout).backward()
            want_grad, params.w1.grad = params.w1.grad, None
            exact = g.view == DEP_VIEW or all(
                len({t for t in path if t not in labels.ids}) < 2
                for path in g.node_labels)
            close = lambda a, b: np.testing.assert_allclose(a, b, rtol=1e-14,
                                                            atol=1e-15)
            same = np.testing.assert_array_equal if exact else close
            same_grad = close if g.view == DEP_VIEW else same
            for _ in range(2):  # the second call reads the cached rows
                got = embed([g], params, labels)
                same(got.data, want.data)
                masked_sum(got, readout).backward()
                same_grad(params.w1.grad, want_grad)
                params.w1.grad = None


def add_at_label_matrix(g, labels) -> np.ndarray:
    """The label matrix as one ``np.add.at`` over the label columns builds
    it, whether or not two labels share the UNK column (oracle)."""
    label_set, rows = g.label_rows
    m = np.zeros((g.n, len(labels)))
    np.add.at(m, (slice(None), [labels.lookup(t) for t in label_set]), rows)
    return m


class TestLabelMatrixWrite:
    """A label matrix whose labels fall in distinct columns is written, not
    added, and equals the ``np.add.at`` form byte for byte either way."""

    @pytest.mark.parametrize("view, node_labels", [
        (DEP_VIEW, ["nsubj", "ROOT", "nsubj"]),
        (DEP_VIEW, ["nsubj", "new", "ROOT"]),
        (DEP_VIEW, ["new", "ROOT", "other"]),
        (CONST_VIEW, [["S", "NP"], ["S", "NP", "NP"]]),
        (CONST_VIEW, [["S", "X"], ["S", "NP"]]),
        (CONST_VIEW, [["S", "X", "Y"], ["S", "NP"]]),
        (CONST_VIEW, [["S", "X"], ["S", "Y", "NP"]]),
    ], ids=["dep-known", "dep-one-unseen", "dep-two-unseen", "const-known",
            "const-one-unseen", "const-two-unseen-one-row",
            "const-two-unseen-two-rows"])
    def test_equals_the_add_at_form(self, view, node_labels):
        labels = gcn.LabelVocab(["<unk>", "S", "NP", "ROOT", "nsubj"])
        g = make_graph(view, len(node_labels), [], node_labels)
        assert labels.label_matrix(g).tobytes() == \
            add_at_label_matrix(g, labels).tobytes()

    @settings(deadline=None, max_examples=100)
    @given(text=bracketed_trees, known_tags=st.sets(st.sampled_from(PHRASE_TAGS)))
    def test_drawn_trees_equal_the_add_at_form(self, text, known_tags):
        if root_is_preterminal(text):
            return
        tokens = tree_leaf_surfaces(text)
        heads = [[-1, "ROOT"]] + [[0, "det"]] * (len(tokens) - 1)
        s = c._build_sentence({"tokens": tokens, "const_ptb": text,
                               "dep_conllu": heads, "verbs": []})
        g = graphs.build_const_graph(s, graphs.FlattenConfig())
        labels = gcn.LabelVocab.collect(known_tags)
        assert labels.label_matrix(g).tobytes() == \
            add_at_label_matrix(g, labels).tobytes()


class TestGcnLayer:
    def _inputs(self, rng, n, d_h=4, d_l=3):
        h_ctx = ad.constant(rng.normal(size=(n, d_h)))
        l = ad.constant(rng.normal(size=(n, d_l)))
        return h_ctx, l

    def test_self_loop_only(self, small_params):
        rng = np.random.default_rng(1)
        g = make_graph(DEP_VIEW, 2, [])
        h_ctx, l = self._inputs(rng, 2)
        out, alphas = gcn.gcn_layer(g, h_ctx, l,
                                    gcn.label_projection(l, small_params))
        np.testing.assert_allclose(alphas.data[0], [1.0, 0.0])
        expected = np.maximum(
            h_ctx.data[0] + small_params.w2.data @ l.data[0]
            + small_params.b.data, 0.0)
        np.testing.assert_allclose(out.data[0], expected)

    def test_equal_messages_give_uniform_attention(self, small_params):
        g = make_graph(DEP_VIEW, 3, [(0, 1), (0, 2)])
        h_ctx = ad.constant(np.ones((3, 4)))
        l = ad.constant(np.ones((3, 3)))
        _, alphas = gcn.gcn_layer(g, h_ctx, l,
                                  gcn.label_projection(l, small_params))
        np.testing.assert_allclose(alphas.data[0], [1 / 3] * 3)
        np.testing.assert_allclose(alphas.data[1], [0.5, 0.5, 0.0])

    def test_against_naive_oracle(self, small_params):
        rng = np.random.default_rng(2)
        g = make_graph(DEP_VIEW, 3, [(0, 1), (1, 2)])  # path graph
        h_ctx, l = self._inputs(rng, 3)
        out, alphas = gcn.gcn_layer(g, h_ctx, l,
                                    gcn.label_projection(l, small_params))
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
            _, alphas = gcn.gcn_layer(g, h_ctx, l,
                                      gcn.label_projection(l, small_params))
            for i, alpha in enumerate(alphas.data):
                assert abs(alpha.sum() - 1.0) < 1e-9
                assert (alpha[~g.adjacency[i]] == 0.0).all()

    def test_outputs_nonnegative(self, small_params):
        rng = np.random.default_rng(4)
        g = make_graph(DEP_VIEW, 4, [(0, 1), (2, 3), (1, 2)])
        h_ctx, l = self._inputs(rng, 4)
        out, _ = gcn.gcn_layer(g, h_ctx, l,
                               gcn.label_projection(l, small_params))
        assert (out.data >= 0).all()

    def test_permutation_equivariance(self, small_params):
        rng = np.random.default_rng(5)
        n = 5
        edges = [(0, 1), (1, 2), (2, 4), (3, 4)]
        g = make_graph(DEP_VIEW, n, edges)
        h_ctx, l = self._inputs(rng, n)
        out, _ = gcn.gcn_layer(g, h_ctx, l,
                               gcn.label_projection(l, small_params))

        perm = list(rng.permutation(n))  # new index -> old index
        perm_inv = {old: new for new, old in enumerate(perm)}
        pedges = [(perm_inv[i], perm_inv[j]) for i, j in edges]
        pg = make_graph(DEP_VIEW, n, pedges)
        ph = ad.constant(h_ctx.data[perm])
        pl = ad.constant(l.data[perm])
        pout, _ = gcn.gcn_layer(pg, ph, pl,
                                gcn.label_projection(pl, small_params))
        for new, old in enumerate(perm):
            np.testing.assert_allclose(pout.data[new], out.data[old], atol=1e-12)

    def test_gradient_check(self, small_params):
        rng = np.random.default_rng(6)
        g = make_graph(DEP_VIEW, 3, [(0, 1), (1, 2)])
        h_ctx = ad.parameter(rng.normal(size=(3, 4)))
        l = ad.parameter(rng.normal(size=(3, 3)))
        readout = rng.normal(size=4)

        def f(*params):
            out, _ = gcn.gcn_layer(g, h_ctx, l,
                                   gcn.label_projection(l, small_params))
            # mean over nodes, dotted with the readout
            return masked_sum(out, np.tile(readout, (3, 1)) / 3)

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
