import numpy as np
import pytest

from synoie import autodiff as ad
from synoie.config import TrainConfig
from synoie.encoder import Vocabulary
from synoie.model import Model
from synoie.synthetic import generate_corpus
from synoie.training import _label_inventories, build_graph_cache

from primitives import add, gather_rows, masked_sum


def sq_norm(x):
    """x . x for a (1, d) row, through the matrix primitives."""
    return masked_sum(ad.matmul(x, x, transpose_b=True), [[1.0]])


class TestForwardValues:
    def test_masked_softmax_symmetry(self):
        logits = ad.constant([[0.0, 0.0]])
        out = ad.masked_softmax(logits, [[True, True]])
        np.testing.assert_allclose(out.data[0], [0.5, 0.5])

    def test_masked_softmax_zeros_at_masked(self):
        # a masked logit is ignored even when it is not finite
        logits = ad.constant([[3.0, np.inf, 1.0]])
        out = ad.masked_softmax(logits, [[True, False, True]])
        assert out.data[0, 1] == 0.0
        assert abs(out.data.sum() - 1.0) < 1e-12

    def test_empty_mask(self):
        with pytest.raises(ad.EmptyMask):
            ad.masked_softmax(ad.constant([[0.0]]), [[False]])

    def test_marked_window_relu_zeroes_negatives(self):
        # with no row marked the kernel is the ReLU of its pre-activation
        x = ad.parameter([[-1.0, 2.0]])
        y = ad.marked_window_relu(x, ad.constant(np.ones((2, 2))),
                                  ad.constant(np.ones((2, 6))), row=-1)
        np.testing.assert_allclose(y.data, [[0.0, 2.0]])
        masked_sum(y, [[1.0, 1.0]]).backward()
        np.testing.assert_allclose(x.grad, [[0.0, 1.0]])

    def test_log_softmax_matches_log_of_softmax(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(1, 5))
        mask = np.array([[True, True, False, True, True]])
        soft = ad.masked_softmax(ad.constant(logits), mask).data
        # the masked softmax equals the softmax of the active entries alone
        lsoft = ad.row_softmax(ad.constant(logits[:, mask[0]])).log_probs
        active = mask
        np.testing.assert_allclose(lsoft[0], np.log(soft[active]), atol=1e-12)
        assert (soft[~active] == 0.0).all()
        full = ad.row_softmax(ad.constant(logits)).log_probs
        np.testing.assert_allclose(
            full, np.log(ad.masked_softmax(ad.constant(logits),
                                           np.ones((1, 5), bool)).data),
            atol=1e-12)

    def test_window_linear_pads_with_zeros(self):
        x = ad.constant(np.arange(6.0).reshape(3, 2))
        rows, marks = np.arange(3), ad.constant(np.zeros((2, 2)))
        pick = np.zeros((2, 6))
        pick[:, :2] = np.eye(2)  # the row above
        np.testing.assert_array_equal(
            ad.window_linear(x, rows, marks, ad.constant(pick),
                             ad.constant(np.zeros(2))).data,
            [[0, 0], [0, 1], [2, 3]])
        pick = np.roll(pick, 4, axis=1)  # the row below
        np.testing.assert_array_equal(
            ad.window_linear(x, rows, marks, ad.constant(pick),
                             ad.constant(np.zeros(2))).data,
            [[2, 3], [4, 5], [0, 0]])

    def test_cross_entropy_uniform(self):
        # cross entropy is the negated gold entry of the row log-softmax
        logits = ad.constant(np.zeros((1, 7)))
        loss = ad.masked_nll([(ad.row_softmax(logits), np.eye(7)[[3]])])
        np.testing.assert_allclose(loss.data, np.log(7.0))


class TestGradients:
    def test_dot_self_gradient(self):
        x = ad.parameter([[1.0, 2.0]])
        sq_norm(x).backward()
        np.testing.assert_allclose(x.grad[0], [2.0, 4.0])

    def test_diamond_graph_counted_once(self):
        x = ad.parameter(np.array(3.0))
        y = add(x, x)
        z = add(y, y)
        z.backward()
        np.testing.assert_allclose(x.grad, 4.0)

    def test_tape_holds_each_reached_node_once_parents_first(self):
        x = ad.parameter(np.ones((2, 2)))
        y = add(x, ad.constant(np.ones((2, 2))))
        add(x, x)  # not reached from the output
        inner = add(y, x)
        z = add(inner, y)
        assert ad.Tape(z).order == [x, y, inner, z]

    def test_concat_splits_gradient_exactly(self):
        a = ad.parameter([[1.0, 2.0]])
        b = ad.parameter([[3.0, 4.0, 5.0]])
        cat = ad.hstack([a, b])
        g = np.array([1.0, -2.0, 0.5, 3.0, -1.0])
        masked_sum(cat, g[None, :]).backward()
        np.testing.assert_array_equal(np.concatenate([a.grad[0], b.grad[0]]), g)
        assert np.linalg.norm(a.grad) ** 2 + np.linalg.norm(b.grad) ** 2 == \
            pytest.approx(np.linalg.norm(g) ** 2)

    def test_row_blocks_send_their_gradients_to_the_parent_rows(self):
        # each block is the parent's rows, with no backward of its own: its
        # consumers add into a view of the parent's gradient, and a block
        # read twice, or read with the parent, adds up
        x = ad.parameter(np.arange(12.0).reshape(6, 2))
        top, one, rest = ad.row_blocks(x, [2, 1, 3])
        np.testing.assert_array_equal(rest.data, x.data[3:])
        assert all(b._backward is None and b._parents == (x,) for b in (top, one, rest))
        g_top, g_rest = np.full((2, 2), 0.5), np.arange(6.0).reshape(3, 2)
        out = ad.vstack([top, rest, rest, x])
        masked_sum(out, np.vstack([g_top, g_rest, g_rest, np.ones((6, 2))])).backward()
        np.testing.assert_array_equal(x.grad, 1 + np.vstack([g_top, np.zeros((1, 2)),
                                                             2 * g_rest]))
        assert ad.Tape(out).order.count(one) == 0

    def test_one_row_block_is_the_tensor_itself(self):
        x = ad.parameter(np.ones((3, 2)))
        assert ad.row_blocks(x, [3])[0] is x
        assert x.grad is None

    def test_row_blocks_record_nothing_under_no_grad(self):
        x = ad.parameter(np.ones((3, 2)))
        with ad.no_grad():
            blocks = ad.row_blocks(x, [1, 2])
        assert not any(b.requires_grad for b in blocks) and x.grad is None

    @pytest.mark.parametrize("sizes", [[2, 2], [4, 1], [-1, 4]])
    def test_row_blocks_must_cover_the_rows(self, sizes):
        with pytest.raises(ad.ShapeMismatch):
            ad.row_blocks(ad.constant(np.zeros((3, 2))), sizes)

    def test_embedding_lookup_accumulates_rows(self):
        table = ad.parameter(np.zeros((4, 3)))
        rows = gather_rows(table, [1, 1])
        masked_sum(rows, np.ones((2, 3))).backward()
        expected = np.zeros((4, 3))
        expected[1] = 2.0
        np.testing.assert_array_equal(table.grad, expected)

    def test_row_broadcast_add_sums_gradient_over_rows(self):
        # linear's bias is one row added to every row of x @ w.T
        x = ad.parameter(np.zeros((3, 2)))
        w = ad.parameter(np.eye(2))
        b = ad.parameter([1.0, 2.0])
        out = ad.linear(x, w, b)
        np.testing.assert_array_equal(out.data, [[1, 2]] * 3)
        masked_sum(out, np.ones((3, 2))).backward()
        np.testing.assert_array_equal(b.grad, [3.0, 3.0])
        np.testing.assert_array_equal(x.grad, np.ones((3, 2)))

    def test_linear_gradient(self):
        rng = np.random.default_rng(12)
        readout = rng.normal(size=(4, 3))
        err = ad.grad_check(
            lambda x, w, b: masked_sum(ad.linear(x, w, b), readout),
            [ad.parameter(rng.normal(size=(4, 5))),
             ad.parameter(rng.normal(size=(3, 5))),
             ad.parameter(rng.normal(size=3))])
        assert err < 1e-8

    def test_linear_equals_matmul_plus_bias(self):
        rng = np.random.default_rng(13)
        x, w, b = rng.normal(size=(4, 5)), rng.normal(size=(3, 5)), rng.normal(size=3)
        out = ad.linear(ad.constant(x), ad.constant(w), ad.constant(b))
        assert out.data.tobytes() == (x @ w.T + b).tobytes()

    def test_matmul_vector_and_matrix(self):
        readout = np.array([[1.0, 2.0, 3.0]]).T
        err = ad.grad_check(
            lambda A, x: masked_sum(ad.matmul(A, x), readout),
            [ad.parameter(np.arange(12, dtype=float).reshape(3, 4) / 10),
             ad.parameter(np.array([[0.1, -0.2, 0.3, 0.4]]).T)])
        assert err < 1e-8
        err = ad.grad_check(
            lambda A, x: masked_sum(ad.matmul(x, A, transpose_b=True),
                                       readout.T),
            [ad.parameter(np.arange(12, dtype=float).reshape(3, 4) / 10),
             ad.parameter(np.array([[0.1, -0.2, 0.3, 0.4]]))])
        assert err < 1e-8


class TestGradCheck:
    def test_sum_of_squares(self):
        err = ad.grad_check(sq_norm, ad.parameter([[0.3, -1.2, 2.0, 0.7]]))
        assert err < 1e-8

    def test_constant_function(self):
        err = ad.grad_check(lambda x: ad.constant(5.0), ad.parameter([1.0, 2.0]))
        assert err == 0.0

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            ad.grad_check(sq_norm, ad.parameter([[1.0]]), eps=0.5)

    def test_rejects_vector_output(self):
        with pytest.raises(ad.ShapeMismatch):
            ad.grad_check(lambda x: add(x, x), ad.parameter([1.0, 2.0]))


def _random_composition(rng, xs, table, mix, bias):
    """Random expression over the kernel's primitives, scalar-valued.

    ``xs`` are (n, d) matrices, ``table`` a (4, d) parameter table and
    ``mix``, ``bias`` a (d, 3d) window weight and its (d,) bias.
    """
    mats = list(xs)
    n, d = xs[0].shape
    mats.append(gather_rows(table, rng.integers(table.shape[0], size=n)))
    for _ in range(int(rng.integers(1, 5))):  # depth <= 4
        op = rng.integers(5)
        a = mats[int(rng.integers(len(mats)))]
        b = mats[int(rng.integers(len(mats)))]
        mask = rng.random((n, n)) < 0.5
        mask[np.arange(n), rng.integers(n, size=n)] = True
        if op == 0:
            mats.append(add(a, b))
        elif op == 1:
            marks = gather_rows(table, rng.integers(table.shape[0], size=2))
            pre = ad.window_linear(a, np.arange(n), marks, mix, bias)
            mats.append(ad.marked_window_relu(pre, marks, mix,
                                              int(rng.integers(-1, n + 1))))
        elif op == 2:
            mats.append(ad.matmul(ad.matmul(a, table, transpose_b=True), table))
        elif op == 3:
            w = ad.masked_softmax(ad.matmul(a, b, transpose_b=True), mask)
            mats.append(ad.matmul(w, mats[0]))
        else:
            mats.append(ad.attention_layer(a, mats[-1], b, mask)[0])
    picked = (ad.row_softmax(mats[-1], mats[1]), 0.3 * rng.normal(size=(n, n)))
    gold = np.eye(2 * d)[rng.integers(2 * d, size=n)] / n
    return ad.masked_nll([picked, (ad.row_softmax(ad.hstack(mats[:2])), gold)])


class TestRandomCompositions:
    def test_primitive_compositions_below_1e6(self):
        rng = np.random.default_rng(42)
        worst = 0.0
        for trial in range(25):
            dim = int(rng.integers(2, 7))  # dims <= 6
            xs = [ad.parameter(rng.normal(size=(3, dim)) * 0.7) for _ in range(3)]
            table = ad.parameter(rng.normal(size=(4, dim)) * 0.5)
            mix = ad.parameter(rng.normal(size=(dim, 3 * dim)) * 0.5)
            bias = ad.parameter(rng.normal(size=dim) * 0.5)
            seed_state = rng.integers(1 << 30)

            def f(*params):
                local = np.random.default_rng(int(seed_state))
                return _random_composition(local, params[:3], *params[3:])

            err = ad.grad_check(f, xs + [table, mix, bias])
            worst = max(worst, err)
        assert worst < 1e-6


class TestFusedRowOps:
    """Row-at-a-time products and log-softmax, as whole-matrix primitives."""

    def test_dots_with_matches_individual_dots(self):
        rng = np.random.default_rng(9)
        anchor = ad.constant(rng.normal(size=(1, 4)))
        items = ad.constant(rng.normal(size=(3, 4)))
        fused = ad.matmul(items, anchor, transpose_b=True)
        singles = [float(row @ anchor.data[0]) for row in items.data]
        np.testing.assert_allclose(fused.data[:, 0], singles, atol=1e-15)

    def test_dots_with_gradient(self):
        rng = np.random.default_rng(10)
        weights = rng.normal(size=(3, 1))

        def f(anchor, items):
            return masked_sum(ad.matmul(items, anchor, transpose_b=True),
                                 weights)

        xs = [ad.parameter(rng.normal(size=(1, 4))),
              ad.parameter(rng.normal(size=(3, 4)))]
        assert ad.grad_check(f, xs) < 1e-8

    def test_log_softmax_vector_values_and_grad(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(2, 5))
        out = ad.row_softmax(ad.constant(x)).log_probs
        for row, got in zip(x, out):
            ex = np.exp(row - row.max())
            np.testing.assert_allclose(got, np.log(ex / ex.sum()), atol=1e-12)
            assert abs(np.exp(got).sum() - 1.0) < 1e-12

        sel = rng.normal(size=(2, 5))
        err = ad.grad_check(
            lambda t: ad.masked_nll([(ad.row_softmax(t), sel)]),
            ad.parameter(rng.normal(size=(2, 5))))
        assert err < 1e-8


class TestNonFinite:
    def test_dot_overflow(self):
        big = ad.constant([[1e200, 1e200]])
        dots = ad.matmul(big, big, transpose_b=True)
        with pytest.raises(ad.NonFiniteValue):
            ad.row_softmax(dots)
        with pytest.raises(ad.NonFiniteValue):
            ad.row_softmax(big, big)
        with pytest.raises(ad.NonFiniteValue):
            ad.masked_softmax(dots, [[True]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_masked_softmax_active_non_finite(self, bad):
        # a non-finite logit at an active entry raises, even next to a
        # masked one that alone would be ignored
        logits = ad.constant([[0.5, bad, np.nan, 1.0]])
        with pytest.raises(ad.NonFiniteValue):
            ad.masked_softmax(logits, [[True, True, False, True]])


class TestShapeErrors:
    def test_add_mismatch(self):
        with pytest.raises(ad.ShapeMismatch):
            add(ad.constant([1.0]), ad.constant([1.0, 2.0]))
        with pytest.raises(ad.ShapeMismatch):  # a row is added through linear
            add(ad.constant(np.zeros((3, 2))), ad.constant([1.0, 2.0]))

    @pytest.mark.parametrize("x, w, b", [
        ((3, 2), (4, 3), (4,)),   # x width vs w width
        ((3, 2), (4, 2), (3,)),   # bias vs output width
        ((3, 2), (4, 2), (1, 4)),  # bias not a vector
        ((2,), (4, 2), (4,)),      # x not a matrix
    ])
    def test_linear_mismatch(self, x, w, b):
        with pytest.raises(ad.ShapeMismatch):
            ad.linear(ad.constant(np.zeros(x)), ad.constant(np.zeros(w)),
                      ad.constant(np.zeros(b)))

    def test_gather_row_outside_table(self):
        with pytest.raises(ad.ShapeMismatch):
            gather_rows(ad.constant(np.zeros((2, 3))), [0, 2])

    def test_matmul_mismatch(self):
        with pytest.raises(ad.ShapeMismatch):
            ad.matmul(ad.constant(np.eye(2)), ad.constant([1.0, 2.0, 3.0]))


def per_tensor_adam(params, grads, state, lr, betas=(0.9, 0.999), eps=1e-8):
    """The per-tensor update the flat ``adam_step`` replaces, as the
    reference: ``state`` is [t, moments m, moments v]."""
    b1, b2 = betas
    state[0] += 1
    t = state[0]
    for p, g, m, v in zip(params, grads, state[1], state[2]):
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        mhat = m / (1 - b1 ** t)
        vhat = v / (1 - b2 ** t)
        p -= lr * mhat / (np.sqrt(vhat) + eps)


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        theta = np.array([1.0, -2.0])
        state = ad.AdamState.for_vector(theta)
        ad.adam_step(theta, np.zeros(2), state, lr=0.1)
        np.testing.assert_array_equal(theta, [1.0, -2.0])

    def test_quadratic_descends(self):
        # gradient of x^2 at x=1 is 2
        theta = np.array([1.0])
        state = ad.AdamState.for_vector(theta)
        ad.adam_step(theta, np.array([2.0]), state, lr=0.1)
        assert theta[0] < 1.0

    def test_deterministic_trajectories(self):
        def run():
            rng = np.random.default_rng(3)
            theta = rng.normal(size=4)
            state = ad.AdamState.for_vector(theta)
            trace = []
            for _ in range(5):
                g = 2 * theta
                ad.adam_step(theta, g, state, lr=0.05)
                trace.append(theta.copy())
            return np.stack(trace)

        np.testing.assert_array_equal(run(), run())

    def test_flat_update_matches_per_tensor_bit_for_bit(self):
        # the tensors of a model at train-short's widths and corpus size,
        # 20 steps of gradients whose scale spans several decades
        sentences = generate_corpus(12, seed=1)
        cfg = TrainConfig(d_h=64, d_l=32)
        cache = build_graph_cache(sentences, cfg.flatten)
        dl, cl = _label_inventories(cache, range(len(sentences)))
        model = Model(cfg, Vocabulary.from_sentences(sentences), dl, cl)
        theta = model.theta
        tensors = [a.copy() for a in model.split(theta).values()]
        flat_state = ad.AdamState.for_vector(theta)
        ref_state = [0, [np.zeros_like(a) for a in tensors],
                     [np.zeros_like(a) for a in tensors]]
        rng = np.random.default_rng(20)
        for _ in range(20):
            grad = rng.normal(size=theta.size) * 10.0 ** rng.integers(-6, 3, theta.size)
            ad.adam_step(theta, grad, flat_state, lr=0.05)
            per_tensor_adam(tensors, list(model.split(grad).values()), ref_state, 0.05)
        assert theta.tobytes() == np.concatenate([a.ravel() for a in tensors]).tobytes()
        assert flat_state.t == 20

    @pytest.mark.parametrize("theta, grad, moments", [
        (np.zeros(3), np.zeros(2), np.zeros(3)),
        (np.zeros(3), np.zeros(3), np.zeros(2)),
        (np.zeros((3, 1)), np.zeros((3, 1)), np.zeros((3, 1))),
    ], ids=["grad", "moments", "2-d"])
    def test_rejects_mismatched_vectors(self, theta, grad, moments):
        with pytest.raises(ad.ShapeMismatch):
            ad.adam_step(theta, grad, ad.AdamState.for_vector(moments))


class TestNoGrad:
    def test_no_graph_recorded(self):
        x = ad.parameter([[1.0, 2.0]])
        with ad.no_grad():
            y = sq_norm(x)
        assert not y.requires_grad
        y.backward()  # no-op
        assert x.grad is None

    def test_restores_the_previous_setting(self):
        # nested blocks, and a block left by an exception, restore what was
        # there before them
        x = ad.parameter([[1.0, 2.0]])
        with ad.no_grad():
            with ad.no_grad():
                pass
            assert not sq_norm(x).requires_grad
        with pytest.raises(ValueError), ad.no_grad():
            raise ValueError
        assert sq_norm(x).requires_grad
