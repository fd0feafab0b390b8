"""The fused kernels against the primitive chains they replace.

The encoder is ``ad.window_linear`` over the gathered, unmarked rows, once
over a batch's row stack of sentences, then ``ad.marked_window_relu`` per
verb; one GCN view is
``ad.attention_layer``; each loss is a constant mask over an
``ad.row_softmax`` record (R1-R3 over one block row softmax of the view
states' Gram, ``losses.view_gram``), and an instance's weighted sum of them
is one ``ad.masked_nll`` node over CE's mask and one R mask.  Each is
checked against a numpy reference
of the old chain and by gradcheck, the attention kernel against
``masked_softmax``'s errors and the loss kernel against the errors the old
chain raised.  Any numpy warning fails these tests.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from synoie import autodiff as ad
from synoie import cli
from synoie import corpus as c
from synoie import encoder as enc
from synoie import losses as L
from synoie.config import TrainConfig
from synoie.graphs import SyntacticGraph

from primitives import masked_sum
from tree_strategies import (bracketed_trees, flat_sentence, root_is_preterminal,
                             tree_leaf_surfaces)

pytestmark = pytest.mark.filterwarnings("error")

D = 3


def shift(x, k):
    """out[i] = x[i - k], with zero rows where i - k falls outside x."""
    out = np.zeros_like(x)
    n = len(x)
    if k >= 0:
        out[k:] = x[:max(n - k, 0)]
    else:
        out[:max(n + k, 0)] = x[-k:]
    return out


def old_encoder(words, w_verb, w_mix, b_mix, verb):
    """relu(hstack(shift(x, 1), x, shift(x, -1)) @ w_mixᵀ + b_mix) over the
    marked rows x: the old encoder chain, in numpy."""
    x = words + w_verb[(np.arange(len(words)) == verb).astype(int)]
    window = np.concatenate([shift(x, 1), x, shift(x, -1)], axis=1)
    return np.maximum(window @ w_mix.T + b_mix, 0.0)


def old_attention(h, l, proj, mask):
    """relu(masked_softmax(M Mᵀ) @ (h + proj)) for M = [h l]: the old GCN
    view chain, in numpy; returns the states and the attention."""
    msgs = np.concatenate([h, l], axis=1)
    z = np.where(mask, msgs @ msgs.T, -np.inf)
    ex = np.exp(z - z.max(axis=1, keepdims=True))
    alpha = ex / ex.sum(axis=1, keepdims=True)
    return np.maximum(alpha @ (h + proj), 0.0), alpha


def toy_encoder(words, seed):
    """A ToyEncoder over ``words`` with standard-normal parameters."""
    rng = np.random.default_rng(seed)
    vocab = enc.Vocabulary(sorted(set(words)))
    params = enc.EncoderParams(
        w_word=ad.parameter(rng.normal(size=(len(vocab), D))),
        w_verb=ad.parameter(rng.normal(size=(2, D))),
        w_mix=ad.parameter(rng.normal(size=(D, 3 * D))),
        b_mix=ad.parameter(rng.normal(size=D)))
    return enc.ToyEncoder(params, vocab)


def graph_mask(rng, n):
    mask = rng.random((n, n)) < 0.4
    mask |= mask.T
    mask[np.arange(n), np.arange(n)] = True
    return mask


def verb_cases():
    """(n, verb): the verb at 0, in the middle, at n - 1 and outside [0, n)."""
    return [(n, v) for n in (1, 2, 5) for v in sorted({0, n // 2, n - 1, -1, n})]


class TestEncoderKernels:
    @pytest.mark.parametrize("n, verb", verb_cases())
    def test_matches_old_chain(self, n, verb):
        words = [f"w{i % 3}" for i in range(n)]
        te = toy_encoder(words, seed=n)
        p = te.params
        ids = [te.vocab.lookup(w) for w in words]
        want = old_encoder(p.w_word.data[ids], p.w_verb.data, p.w_mix.data,
                           p.b_mix.data, verb)
        got = te.encode(te.base([flat_sentence(words)]), verb)
        np.testing.assert_allclose(got.data, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n, verb", verb_cases())
    def test_gradcheck(self, n, verb):
        words = [f"w{i % 3}" for i in range(n)]
        te = toy_encoder(words, seed=10 + n)
        s = flat_sentence(words)
        readout = np.random.default_rng(n).normal(size=(n, D))
        p = te.params

        def f(*params):
            return masked_sum(te.encode(te.base([s]), verb), readout)

        assert ad.grad_check(f, [p.w_word, p.w_verb, p.w_mix, p.b_mix]) < 1e-6

    def test_verb_outside_marks_nothing(self):
        te = toy_encoder(["a", "b", "c"], seed=3)
        base = te.base([flat_sentence(["a", "b", "c"])])
        unmarked = np.maximum(base.data, 0.0)
        for verb in (-1, 3, 50):
            np.testing.assert_array_equal(te.encode(base, verb).data, unmarked)

    def test_encode_leaves_the_shared_base(self):
        te = toy_encoder(["a", "b"], seed=4)
        base = te.base([flat_sentence(["a", "b"])])
        before = base.data.copy()
        te.encode(base, 0)
        np.testing.assert_array_equal(base.data, before)

    @settings(deadline=None, max_examples=80)
    @given(text=bracketed_trees, seed=st.integers(0, 2 ** 16))
    def test_hoisted_equals_direct_window_every_verb(self, text, seed):
        assume(not root_is_preterminal(text))
        tokens = tree_leaf_surfaces(text)
        n = len(tokens)
        s = c._build_sentence({"tokens": tokens, "const_ptb": text,
                               "dep_conllu": [[-1, "ROOT"]] + [[0, "dep"]] * (n - 1),
                               "verbs": list(range(n))})
        te = toy_encoder(tokens, seed)
        p = te.params
        base = te.base([s])
        words = p.w_word.data[[te.vocab.lookup(t) for t in tokens]]
        for verb in s.verbs:
            direct = old_encoder(words, p.w_verb.data, p.w_mix.data,
                                 p.b_mix.data, verb)
            np.testing.assert_allclose(te.encode(base, verb).data, direct,
                                       rtol=0, atol=1e-12)


def old_encoder_input(table, ids, marks, w, b, readout):
    """The gather, indicator add and window mix of the unmarked rows, in
    numpy: window(table[ids] + marks[0]) @ wᵀ + b, and the gradients of
    sum(readout * out) for table, marks, w and b."""
    x = table[ids] + marks[0]
    window = np.concatenate([shift(x, 1), x, shift(x, -1)], axis=1)
    g_window = readout @ w
    g_x = (g_window[:, D:2 * D] + shift(g_window[:, :D], -1)
           + shift(g_window[:, 2 * D:], 1))
    g_table = np.zeros_like(table)
    np.add.at(g_table, ids, g_x)
    g_marks = np.zeros_like(marks)
    g_marks[0] = g_x.sum(axis=0)
    return (window @ w.T + b,
            [g_table, g_marks, readout.T @ window, readout.sum(axis=0)])


def encoder_input_case(n, rng):
    """A 4-row table, n row ids with repeats, the indicator table, the window
    weight and bias, and a readout."""
    xs = [ad.parameter(rng.normal(size=shape))
          for shape in ((4, D), (2, D), (D, 3 * D), (D,))]
    return xs, rng.integers(4, size=n), rng.normal(size=(n, D))


class TestEncoderInputKernel:
    """``ad.window_linear`` against the two gathers, the add and the window
    mix it replaces."""

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_matches_old_chain(self, n):
        xs, ids, readout = encoder_input_case(n, np.random.default_rng(50 + n))
        out = ad.window_linear(xs[0], ids, *xs[1:])
        masked_sum(out, readout).backward()
        table, marks, w, b = (x.data for x in xs)
        want, want_grads = old_encoder_input(table, ids, marks, w, b, readout)
        np.testing.assert_allclose(out.data, want, rtol=0, atol=1e-12)
        for x, gx in zip(xs, want_grads):
            np.testing.assert_allclose(x.grad, gx, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_gradcheck(self, n):
        xs, ids, readout = encoder_input_case(n, np.random.default_rng(60 + n))

        def f(table, marks, w, b):
            return masked_sum(ad.window_linear(table, ids, marks, w, b), readout)

        assert ad.grad_check(f, xs) < 1e-6

    @pytest.mark.parametrize("lengths", [[1, 1], [3, 1, 4], [1, 5, 1, 2], [2, 6]])
    def test_row_stack_is_the_sentences_stacked(self, lengths):
        # over a row stack of sentences no window reaches past its own
        # sentence, so the one node is each sentence's own node stacked, and
        # its gradients are their sums.  Not byte for byte: BLAS may round a
        # row of a product differently for another row count (a 1-row
        # product runs as a matrix-vector product)
        rng = np.random.default_rng(sum(lengths))
        xs, ids, readout = encoder_input_case(sum(lengths), rng)
        stacked = ad.window_linear(xs[0], ids, *xs[1:], lengths=lengths)
        masked_sum(stacked, readout).backward()
        got_grads = [x.grad for x in xs]
        want, want_grads, start = [], [np.zeros_like(x.data) for x in xs], 0
        for n in lengths:
            for x in xs:
                x.grad = None
            own = ad.window_linear(xs[0], ids[start:start + n], *xs[1:])
            masked_sum(own, readout[start:start + n]).backward()
            want.append(own.data)
            for acc, x in zip(want_grads, xs):
                acc += x.grad
            start += n
        np.testing.assert_allclose(stacked.data, np.vstack(want), rtol=0, atol=1e-13)
        for got, expected in zip(got_grads, want_grads):
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("lengths", [[1, 1], [2, 0, 1], [4]])
    def test_rejects_lengths_that_are_not_the_rows(self, lengths):
        xs, ids, _ = encoder_input_case(3, np.random.default_rng(8))
        with pytest.raises(ad.ShapeMismatch):
            ad.window_linear(xs[0], ids, *xs[1:], lengths=lengths)

    def test_records_one_node(self):
        xs, ids, _ = encoder_input_case(3, np.random.default_rng(7))
        out = ad.window_linear(xs[0], ids, *xs[1:])
        assert ad.Tape(out).order[-1] is out and len(ad.Tape(out).order) == 5

    @pytest.mark.parametrize("ids, shapes", [
        ([0, 4], ((4, D), (2, D), (D, 3 * D), (D,))),
        ([-1], ((4, D), (2, D), (D, 3 * D), (D,))),
        ([[0]], ((4, D), (2, D), (D, 3 * D), (D,))),
        ([0], ((4, D), (3, D), (D, 3 * D), (D,))),
        ([0], ((4, D), (2, D), (D, 2 * D), (D,))),
        ([0], ((4, D), (2, D), (D, 3 * D), (D + 1,))),
    ], ids=["id-past-end", "negative-id", "2-d-ids", "marks-rows", "weight-width",
            "bias-width"])
    def test_rejects_bad_shapes(self, ids, shapes):
        xs = [ad.constant(np.zeros(shape)) for shape in shapes]
        with pytest.raises(ad.ShapeMismatch):
            ad.window_linear(xs[0], ids, *xs[1:])


class TestAttentionKernel:
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_matches_old_chain(self, n):
        rng = np.random.default_rng(n)
        h, l, proj = (rng.normal(size=(n, w)) for w in (D, 2, D))
        mask = graph_mask(rng, n)
        states, alpha = ad.attention_layer(ad.constant(h), ad.constant(l),
                                           ad.constant(proj), mask)
        want_states, want_alpha = old_attention(h, l, proj, mask)
        np.testing.assert_allclose(states.data, want_states, rtol=0, atol=1e-12)
        np.testing.assert_allclose(alpha.data, want_alpha, rtol=0, atol=1e-12)
        assert not alpha.requires_grad

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_gradcheck(self, n):
        rng = np.random.default_rng(20 + n)
        xs = [ad.parameter(rng.normal(size=(n, w))) for w in (D, 2, D)]
        mask = graph_mask(rng, n)
        readout = rng.normal(size=(n, D))

        def f(h, l, proj):
            return masked_sum(ad.attention_layer(h, l, proj, mask)[0], readout)

        assert ad.grad_check(f, xs) < 1e-6

    @pytest.mark.parametrize("h, mask, error", [
        ([[1.0], [2.0]], [[True, False], [False, False]], ad.EmptyMask),
        ([[1.0], [np.nan]], [[True, False], [False, True]], ad.NonFiniteValue),
        ([[1e200], [1.0]], [[True, True], [True, True]], ad.NonFiniteValue),
        ([[1e200], [1.0]], [[False, True], [True, True]], None),
        ([[1.0], [2.0]], [[True, True]], ad.ShapeMismatch),
    ], ids=["empty-row", "nan-active", "overflow-active", "overflow-masked",
            "mask-shape"])
    def test_raises_what_masked_softmax_raises(self, h, mask, error):
        h = np.array(h)
        with np.errstate(over="ignore"):
            logits = ad.constant(h @ h.T)  # the messages are h alone (l is empty)
        args = (ad.constant(h), ad.constant(np.zeros((2, 0))),
                ad.constant(np.zeros_like(h)), mask)
        if error is None:
            ad.masked_softmax(logits, mask)
            states, _ = ad.attention_layer(*args)
            assert np.isfinite(states.data).all()
            return
        with pytest.raises(error):
            ad.masked_softmax(logits, mask)
        with pytest.raises(error):
            ad.attention_layer(*args)


def stacked_cases():
    """(name, call): one stacked call of each kernel whose first input needs
    a gradient."""
    rng = np.random.default_rng(7)
    n, k = 4, 3
    mask = graph_mask(rng, n)
    param, const = ad.parameter, ad.constant

    def encoder():
        te = toy_encoder(["a", "b", "c", "d"], seed=7)
        base = te.base([flat_sentence(["a", "b", "c", "d"])])
        return ad.marked_window_relu(base, te.params.w_verb, te.params.w_mix,
                                     [0, 2])

    return [
        ("marked_window_relu", encoder),
        ("attention_layer-h", lambda: ad.attention_layer(
            param(rng.normal(size=(k, n, D))), const(rng.normal(size=(n, 2))),
            const(rng.normal(size=(n, D))), mask)),
        ("attention_layer-l", lambda: ad.attention_layer(
            const(rng.normal(size=(k, n, D))), param(rng.normal(size=(n, 2))),
            const(rng.normal(size=(n, D))), mask)),
        ("hstack", lambda: ad.hstack([param(rng.normal(size=(k, n, D))),
                                      const(rng.normal(size=(k, n, 2)))])),
        ("linear", lambda: ad.linear(const(rng.normal(size=(k, n, D))),
                                     param(rng.normal(size=(2, D))),
                                     const(np.zeros(2)))),
        ("broadcast_verbs", lambda: ad.broadcast_verbs(
            param(rng.normal(size=(n, D))), k)),
    ]


STACKED_CASES = stacked_cases()


class TestStackedKernels:
    """A sentence's k verbs stacked as (k, n, ·): slice i is the 2-D call
    for verb i, byte for byte, and a stacked call records nothing."""

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_marked_rows_are_each_rows_call(self, n):
        words = [f"w{i % 3}" for i in range(n)]
        te = toy_encoder(words, seed=30 + n)
        p = te.params
        rows = [v for m, v in verb_cases() if m == n]  # and rows outside [0, n)
        with ad.no_grad():
            base = te.base([flat_sentence(words)])
            got = te.encode(base, rows)
            assert got.shape == (len(rows), n, D) and not got.requires_grad
            for i, row in enumerate(rows):
                want = ad.marked_window_relu(base, p.w_verb, p.w_mix, row)
                assert got.data[i].tobytes() == want.data.tobytes()
                # k = 1
                one = te.encode(base, [row])
                assert one.shape == (1, n, D)
                assert one.data[0].tobytes() == want.data.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_attention_is_each_verbs_call(self, n):
        rng = np.random.default_rng(40 + n)
        hs = rng.normal(size=(3, n, D))
        l = ad.constant(rng.normal(size=(n, 2)))
        proj = ad.constant(rng.normal(size=(n, D)))
        mask = graph_mask(rng, n)
        for stack in (hs, hs[:1]):  # k = 3 and k = 1
            k = len(stack)
            states, alpha = ad.attention_layer(ad.constant(stack), l, proj, mask)
            assert states.shape == (k, n, D) and alpha.shape == (k, n, n)
            for i, h in enumerate(stack):
                want_states, want_alpha = ad.attention_layer(ad.constant(h), l,
                                                             proj, mask)
                assert states.data[i].tobytes() == want_states.data.tobytes()
                assert alpha.data[i].tobytes() == want_alpha.data.tobytes()

    @pytest.mark.parametrize("h, mask, error", [
        ([[1.0], [2.0]], [[True, False], [False, False]], ad.EmptyMask),
        ([[1.0], [np.nan]], [[True, False], [False, True]], ad.NonFiniteValue),
        ([[1e200], [1.0]], [[True, True], [True, True]], ad.NonFiniteValue),
        ([[1e200], [1.0]], [[False, True], [True, True]], None),
        ([[1.0], [2.0]], [[True, True]], ad.ShapeMismatch),
    ], ids=["empty-row", "nan-active", "overflow-active", "overflow-masked",
            "mask-shape"])
    def test_attention_raises_what_the_2d_call_raises(self, h, mask, error):
        # with no errstate of the caller's: the kernel opens its own
        h = np.array(h)
        args = (ad.constant(np.stack([h, h])), ad.constant(np.zeros((2, 0))),
                ad.constant(np.zeros_like(h)), mask)
        if error is None:
            states, _ = ad.attention_layer(*args)
            assert np.isfinite(states.data).all()
            return
        with pytest.raises(error):
            ad.attention_layer(*args)

    @pytest.mark.parametrize("kernel", ["linear", "marked_window_relu",
                                        "attention_layer"])
    def test_overflowing_products_warn_at_neither_rank(self, kernel):
        # entries of 1e200 overflow the kernel's products; with no errstate
        # of the caller's, nothing warns and slice i is verb i's 2-D call
        big, const = np.full((2, D), 1e200), ad.constant
        if kernel == "linear":
            verbs, stacked = [big, -big], np.stack([big, -big])

            def call(x):
                return ad.linear(const(x), const(big), const(np.zeros(2)))
        elif kernel == "marked_window_relu":
            verbs = stacked = [0, 1, 2]

            def call(row):
                return ad.marked_window_relu(
                    const(np.zeros((3, D))), const([np.zeros(D), big[0]]),
                    const(np.full((D, 3 * D), 1e200)), row)
        else:
            # the overflowing logit is masked, as in "overflow-masked"
            h = big * [[1.0], [1e-200]]
            verbs, stacked = [h, -h], np.stack([h, -h])

            def call(h):
                return ad.attention_layer(const(h), const(np.zeros((2, 0))),
                                          const(np.zeros((2, D))),
                                          [[False, True], [True, True]])[0]
        got = call(stacked)
        assert got.shape[0] == len(verbs)
        for slice_, verb in zip(got.data, verbs):
            assert slice_.tobytes() == call(verb).data.tobytes()

    def test_hstack_and_linear_are_each_verbs_call(self):
        rng = np.random.default_rng(50)
        w = ad.constant(rng.normal(size=(5, D + 2)))
        b = ad.constant(rng.normal(size=5))
        for k in (3, 1):
            parts = [rng.normal(size=(k, 4, width)) for width in (D, 2)]
            x = ad.hstack([ad.constant(p) for p in parts])
            out = ad.linear(x, w, b)
            assert x.shape == (k, 4, D + 2) and out.shape == (k, 4, 5)
            for i in range(k):
                x2 = ad.hstack([ad.constant(p[i]) for p in parts])
                assert x.data[i].tobytes() == x2.data.tobytes()
                assert out.data[i].tobytes() == ad.linear(x2, w, b).data.tobytes()

    def test_hstack_rejects_mixed_ranks(self):
        with pytest.raises(ad.ShapeMismatch):
            ad.hstack([ad.constant(np.zeros((2, 3, D))),
                       ad.constant(np.zeros((3, D)))])

    def test_broadcast_verbs_repeats_a_matrix(self):
        t = ad.constant(np.arange(6.0).reshape(3, 2))
        out = ad.broadcast_verbs(t, 4)
        assert out.shape == (4, 3, 2) and not out.requires_grad
        for slice_ in out.data:
            np.testing.assert_array_equal(slice_, t.data)

    @pytest.mark.parametrize("name, call", STACKED_CASES,
                             ids=[name for name, _ in STACKED_CASES])
    def test_stacked_input_needing_a_gradient_raises(self, name, call):
        with pytest.raises(ad.ShapeMismatch, match="stacked verbs are read only"):
            call()
        with ad.no_grad():
            out = call()
        assert not (out[0] if isinstance(out, tuple) else out).requires_grad


def old_loss(logits, masks, g=1.0):
    """The old chain, in numpy: the sum over terms of masked_sum(
    log_softmax_rows(x), -M), and each logits matrix's gradient through
    log_softmax_rows' and masked_sum's backward for the seed ``g``."""
    value, grads = 0.0, []
    for x, mask in zip(logits, masks):
        m = x.max(axis=1, keepdims=True)
        ex = np.exp(x - m)
        z = ex.sum(axis=1, keepdims=True)
        value = value + np.sum((x - (m + np.log(z))) * -mask)
        g_log = g * -mask
        grads.append(g_log - ex / z * g_log.sum(axis=1, keepdims=True))
    return value, grads


def loss_case(case, n, rng):
    """(inputs, terms builder, per-term (a, b) operands, masks) for one of the
    three ways the losses use the kernel: tag logits (CE), a product of a
    view with itself (R1) and the two products of two views (R2, R3)."""
    if case == "logits":
        xs = [ad.parameter(rng.normal(size=(n, 4)))]
        operands = [(0, None), (0, None)]

        def terms(x):
            rows = ad.row_softmax(x)
            return [rows, rows]
    elif case == "a-is-b":
        xs = [ad.parameter(rng.normal(size=(n, D))) for _ in range(2)]
        operands = [(0, 0), (1, 1)]

        def terms(a, b):
            return [ad.row_softmax(a, a), ad.row_softmax(b, b)]
    else:
        xs = [ad.parameter(rng.normal(size=(n, D))) for _ in range(2)]
        operands = [(1, 0), (0, 1), (1, 0)]

        def terms(a, b):
            return [ad.row_softmax(b, a), ad.row_softmax(a, b),
                    ad.row_softmax(b, a)]
    masks = [rng.normal(size=(n, 4 if case == "logits" else n))
             for _ in operands]
    return xs, terms, operands, masks


LOSS_CASES = ["logits", "a-is-b", "a-not-b"]


class TestLossKernel:
    """``ad.masked_nll`` over ``ad.row_softmax`` records against the
    ``log_softmax_rows`` + ``masked_sum`` chain it replaces."""

    @pytest.mark.parametrize("case", LOSS_CASES)
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_matches_old_chain(self, case, n):
        rng = np.random.default_rng(30 + n)
        xs, terms, operands, masks = loss_case(case, n, rng)
        out = ad.masked_nll(list(zip(terms(*xs), masks)))
        out.backward()
        logits = [xs[i].data if j is None else xs[i].data @ xs[j].data.T
                  for i, j in operands]
        want, g_logits = old_loss(logits, masks)
        assert abs(float(out.data) - want) < 1e-12
        want_grads = [np.zeros_like(x.data) for x in xs]
        for (i, j), gl in zip(operands, g_logits):
            if j is None:
                want_grads[i] += gl
            else:
                want_grads[i] += gl @ xs[j].data
                want_grads[j] += gl.T @ xs[i].data
        for x, gx in zip(xs, want_grads):
            np.testing.assert_allclose(x.grad, gx, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("case", LOSS_CASES)
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_gradcheck(self, case, n):
        rng = np.random.default_rng(40 + n)
        xs, terms, _, masks = loss_case(case, n, rng)

        def f(*params):
            return ad.masked_nll(list(zip(terms(*params), masks)))

        assert ad.grad_check(f, xs) < 1e-6

    def test_records_no_node_of_its_own(self):
        a = ad.parameter(np.ones((2, D)))
        out = ad.masked_nll([(ad.row_softmax(a, a), np.eye(2))])
        assert [t is a for t in ad.Tape(out).order] == [True, False]

    @pytest.mark.parametrize("build, error", [
        (lambda: ad.row_softmax(ad.constant([[0.0, np.nan]])), ad.NonFiniteValue),
        (lambda: ad.row_softmax(ad.constant([[0.0, -np.inf]])), ad.NonFiniteValue),
        (lambda: ad.row_softmax(ad.constant([[1e200]]), ad.constant([[1e200]])),
         ad.NonFiniteValue),
        (lambda: L.view_gram([ad.constant([[1e200]]), ad.constant([[1.0]])]),
         ad.NonFiniteValue),
        (lambda: ad.row_softmax(ad.constant(np.zeros((2, 0)))), ad.ShapeMismatch),
        (lambda: ad.row_softmax(ad.constant(np.zeros(3))), ad.ShapeMismatch),
        (lambda: ad.row_softmax(ad.constant(np.zeros((2, 3))),
                                ad.constant(np.zeros((2, 2)))), ad.ShapeMismatch),
        (lambda: L.view_gram([ad.constant(np.zeros((0, 2))),
                              ad.constant(np.zeros((3, 2)))]), ad.ShapeMismatch),
        (lambda: ad.row_softmax(ad.constant(np.zeros((2, 3))), block=2),
         ad.ShapeMismatch),
        (lambda: ad.row_softmax(ad.constant(np.zeros((2, 3))), block=0),
         ad.ShapeMismatch),
        (lambda: ad.masked_nll([(ad.row_softmax(ad.constant(np.zeros((2, 3)))),
                                 np.zeros((3, 2)))]), ad.ShapeMismatch),
        (lambda: ad.masked_nll([]), ad.ShapeMismatch),
    ], ids=["nan", "neg-inf", "product-overflow", "pair-overflow", "no-columns",
            "1-d", "inner-mismatch", "pair-no-rows", "block-not-dividing",
            "zero-block", "mask-shape", "no-terms"])
    def test_raises_what_the_old_chain_raised(self, build, error):
        match = "log-softmax logits" if error is ad.NonFiniteValue else None
        with pytest.raises(error, match=match):
            build()


def block_case(k, n, rng):
    """k view states of n rows each, as parameters, and a random real mask
    over their (k n, k n) Gram."""
    return ([ad.parameter(rng.normal(size=(n, D))) for _ in range(k)],
            rng.normal(size=(k * n, k * n)))


VIEW_COUNTS = pytest.mark.parametrize("k", [1, 2], ids=["one-view", "two-views"])


class TestBlockSoftmax:
    """``losses.view_gram``, the row softmax of G = H Hᵀ for the row stack H
    of the view states within each view's n columns, against the old chain
    over each block's own product H_k H_lᵀ."""

    @VIEW_COUNTS
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_matches_per_block_chain(self, k, n):
        xs, mask = block_case(k, n, np.random.default_rng(90 + n))
        gram = L.view_gram(xs)
        block_sums = gram.probs.reshape(k * n, k, n).sum(axis=2)
        np.testing.assert_allclose(block_sums, 1.0, rtol=0, atol=1e-12)
        out = ad.masked_nll([(gram, mask)])
        out.backward()
        want, want_grads = 0.0, [np.zeros_like(x.data) for x in xs]
        for i in range(k):
            for j in range(k):
                block = mask[i * n:(i + 1) * n, j * n:(j + 1) * n]
                value, (gl,) = old_loss([xs[i].data @ xs[j].data.T], [block])
                want = want + value
                want_grads[i] += gl @ xs[j].data
                want_grads[j] += gl.T @ xs[i].data
        assert abs(float(out.data) - want) < 1e-12
        for x, gx in zip(xs, want_grads):
            np.testing.assert_allclose(x.grad, gx, rtol=0, atol=1e-12)

    @VIEW_COUNTS
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_gradcheck(self, k, n):
        xs, mask = block_case(k, n, np.random.default_rng(100 + n))

        def f(*states):
            return ad.masked_nll([(L.view_gram(list(states)), mask)])

        assert ad.grad_check(f, xs) < 1e-6


def ablation_rows():
    """(name, views, (alpha, beta, gamma)) for every ``cli.ablation_grid`` row,
    each view off and each loss weight zero, as the loss node sees them: a
    disabled R loss has weight 0, R2 and R3 need both views, and switching
    the GCN off changes the states, not the node."""
    rows = [(f"{kind}:{name}", overrides) for kind in ("table", "losses")
            for name, overrides in cli.ablation_grid(kind)]
    rows += [("w/o const", {"use_const": False}), ("w/o dep", {"use_dep": False})]
    w = L.LossWeights()
    rows += [("alpha=0", {"weights": L.LossWeights(0.0, w.beta, w.gamma)}),
             ("beta=0", {"weights": L.LossWeights(w.alpha, 0.0, w.gamma)}),
             ("gamma=0", {"weights": L.LossWeights(w.alpha, w.beta, 0.0)}),
             ("all R off", {"weights": L.LossWeights(0.0, 0.0, 0.0)})]
    out = []
    for name, overrides in rows:
        cfg = TrainConfig().with_overrides(**overrides)
        views = tuple(v for v, on in (("con", cfg.use_const), ("dep", cfg.use_dep))
                      if on)
        both = len(views) == 2
        weights = (cfg.weights.alpha if cfg.use_r1 else 0.0,
                   cfg.weights.beta if cfg.use_r2 and both else 0.0,
                   cfg.weights.gamma if cfg.use_r3 and both else 0.0)
        out.append(pytest.param(views, weights, id=name))
    return out


ABLATION_ROWS = ablation_rows()


def merged_case(views, weights, n, rng):
    """The tag logits, H_con and H_dep as parameters; a builder of the
    instance's combined loss from them, as ``Model.instance_losses`` calls the
    losses; and its old chain as (weight, operand i, operand j, mask) terms
    over xs, with j None for the logits."""
    xs = [ad.parameter(rng.normal(size=(n, w))) for w in (5, D, D)]
    gold = rng.integers(5, size=n)
    masks = {"con": graph_mask(rng, n), "dep": graph_mask(rng, n)}
    graphs = {v: SyntacticGraph(view=v, n=n, node_labels=[], edges=frozenset(),
                                adjacency=masks[v]) for v in masks}
    alpha, beta, gamma = weights

    def build(logits, h_con, h_dep):
        h = {"con": h_con, "dep": h_dep}
        gram = r1 = r2 = r3 = None
        if views and (alpha or beta or gamma):
            gram = L.view_gram([h[v] for v in views])
            r1 = L.loss_r1(gram, [graphs[v] for v in views]) if alpha else None
            r2 = L.loss_r2(gram) if beta else None
            r3 = L.loss_r3(gram, graphs["con"], graphs["dep"]) if gamma else None
        return L.combined_loss(L.tagging_loss(logits, gold.tolist()), gram,
                               r1, r2, r3, L.LossWeights(*weights))

    pick = np.eye(5)[gold] / n
    terms = [(1.0, 0, None, pick)]
    sel = {v: masks[v] & ~np.eye(n, dtype=bool) for v in masks}
    index = {"con": 1, "dep": 2}
    if alpha:
        terms += [(alpha, index[v], index[v], sel[v]) for v in views]
    if beta:
        terms += [(beta, 2, 1, np.eye(n)), (beta, 1, 2, np.eye(n))]
    if gamma:
        terms += [(gamma, 2, 1, sel["dep"]), (gamma, 1, 2, sel["con"])]
    return xs, build, terms


class TestMergedLossKernel:
    """``losses.combined_loss``, one ``ad.masked_nll`` node, against the
    old chain: each loss its own ``log_softmax_rows`` + ``masked_sum`` chain,
    then their weighted sum."""

    @pytest.mark.parametrize("views, weights", ABLATION_ROWS)
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_matches_old_chain(self, views, weights, n):
        xs, build, terms = merged_case(views, weights, n,
                                       np.random.default_rng(70 + n))
        out = build(*xs)
        out.backward()
        want, want_grads = 0.0, [np.zeros_like(x.data) for x in xs]
        for w, i, j, mask in terms:
            logits = xs[i].data if j is None else xs[i].data @ xs[j].data.T
            value, (gl,) = old_loss([logits], [mask.astype(float)], g=w)
            want = want + w * value
            if j is None:
                want_grads[i] += gl
            else:
                want_grads[i] += gl @ xs[j].data
                want_grads[j] += gl.T @ xs[i].data
        assert abs(float(out.data) - want) < 1e-12
        for x, gx in zip(xs, want_grads):
            got = np.zeros_like(x.data) if x.grad is None else x.grad
            np.testing.assert_allclose(got, gx, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("views, weights", ABLATION_ROWS)
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_gradcheck(self, views, weights, n):
        xs, build, _ = merged_case(views, weights, n, np.random.default_rng(80 + n))
        assert ad.grad_check(build, xs) < 1e-6

    @pytest.mark.parametrize("views, weights", ABLATION_ROWS)
    def test_records_one_node_over_the_inputs(self, views, weights):
        xs, build, _ = merged_case(views, weights, 3, np.random.default_rng(9))
        out = build(*xs)
        order = ad.Tape(out).order
        assert order[-1] is out
        # besides the inputs, at most the row stack of the two view states
        others = [t for t in order[:-1] if not any(t is x for x in xs)]
        assert len(others) <= 1
        assert all([p is x for p, x in zip(t._parents, xs[1:])] == [True, True]
                   for t in others)
