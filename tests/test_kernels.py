"""The fused kernels against the primitive chains they replace.

The encoder is ``ad.window_linear`` over the unmarked rows, once per
sentence, then ``ad.marked_window_relu`` per verb; one GCN view is
``ad.attention_layer``.  Each is checked against a numpy reference of the old
chain, by gradcheck, and the attention kernel against ``masked_softmax``'s
errors.  Any numpy warning fails these tests.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from synoie import autodiff as ad
from synoie import corpus as c
from synoie import encoder as enc

from tree_strategies import bracketed_trees, flat_sentence, root_is_preterminal

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
        got = te.encode(te.base(flat_sentence(words)), verb)
        np.testing.assert_allclose(got.data, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n, verb", verb_cases())
    def test_gradcheck(self, n, verb):
        words = [f"w{i % 3}" for i in range(n)]
        te = toy_encoder(words, seed=10 + n)
        s = flat_sentence(words)
        readout = np.random.default_rng(n).normal(size=(n, D))
        p = te.params

        def f(*params):
            return ad.masked_sum(te.encode(te.base(s), verb), readout)

        assert ad.grad_check(f, [p.w_word, p.w_verb, p.w_mix, p.b_mix]) < 1e-6

    def test_verb_outside_marks_nothing(self):
        te = toy_encoder(["a", "b", "c"], seed=3)
        base = te.base(flat_sentence(["a", "b", "c"]))
        unmarked = np.maximum(base.data, 0.0)
        for verb in (-1, 3, 50):
            np.testing.assert_array_equal(te.encode(base, verb).data, unmarked)

    def test_encode_leaves_the_shared_base(self):
        te = toy_encoder(["a", "b"], seed=4)
        base = te.base(flat_sentence(["a", "b"]))
        before = base.data.copy()
        te.encode(base, 0)
        np.testing.assert_array_equal(base.data, before)

    @settings(deadline=None, max_examples=80)
    @given(text=bracketed_trees, seed=st.integers(0, 2 ** 16))
    def test_hoisted_equals_direct_window_every_verb(self, text, seed):
        assume(not root_is_preterminal(text))
        tokens = c.tree_leaf_surfaces(text)
        n = len(tokens)
        s = c._build_sentence({"tokens": tokens, "const_ptb": text,
                               "dep_conllu": [[-1, "ROOT"]] + [[0, "dep"]] * (n - 1),
                               "verbs": list(range(n))}, 0, 5)
        te = toy_encoder(tokens, seed)
        p = te.params
        base = te.base(s)
        words = enc.word_rows(p, te.vocab, tokens)
        for verb in s.verbs:
            direct = ad.window_linear(enc.embed(p, words, verb), p.w_mix, p.b_mix)
            np.testing.assert_allclose(te.encode(base, verb).data,
                                       np.maximum(direct.data, 0.0),
                                       rtol=0, atol=1e-12)


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
            return ad.masked_sum(ad.attention_layer(h, l, proj, mask)[0], readout)

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
