"""Minimal dense-tensor kernel with reverse-mode automatic differentiation.

Covers exactly the operations the model needs, on float64 numpy storage.
A sentence is an ``(n, d)`` matrix with one row per token and a graph view
is a boolean ``(n, n)`` mask, so every primitive works on whole matrices.
Every primitive records its parents and a backward closure; ``Tape`` walks
the recorded graph once, in topological order, to accumulate gradients.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np


class NumericsError(Exception):
    pass


class ShapeMismatch(NumericsError):
    pass


class EmptyMask(NumericsError):
    pass


class NonFiniteValue(NumericsError):
    pass


_grad_enabled = True


@contextmanager
def no_grad():
    """Disable graph recording (inference / finite differences)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def zero_grad(self):
        self.grad = None

    def backward(self):
        Tape(self).backward()

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


def parameter(data) -> Tensor:
    return Tensor(data, requires_grad=True)


def _result(data, parents, backward) -> Tensor:
    """Build an op result; record the graph only when a parent needs grads."""
    track = _grad_enabled and any(p.requires_grad for p in parents)
    out = Tensor(data, requires_grad=track)
    if track:
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _accumulate(t: Tensor, g: np.ndarray):
    if t.requires_grad:
        if t.grad is None:
            # a copy, since g may be a view of another node's gradient
            t.grad = np.array(g, dtype=np.float64)
        else:
            t.grad += g


class Tape:
    """Topologically ordered record of the ops reachable from an output."""

    def __init__(self, output: Tensor):
        order: list[Tensor] = []
        seen = set()
        stack: list[tuple[Tensor, bool]] = [(output, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen or not node.requires_grad:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                stack.append((p, False))
        self.output = output
        self.order = order  # parents precede consumers

    def backward(self, seed: np.ndarray | None = None):
        if seed is None:
            seed = np.ones_like(self.output.data)
        _accumulate(self.output, seed)
        for node in reversed(self.order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


def _check_finite(arr: np.ndarray, op: str):
    if not np.all(np.isfinite(arr)):
        raise NonFiniteValue(f"non-finite value produced by {op}")


# ---------------------------------------------------------------------------
# Primitives: a sentence is an (n, d) matrix, one row per token
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    """a + b for two tensors of one shape."""
    if a.shape != b.shape:
        raise ShapeMismatch(f"add: {a.shape} vs {b.shape}")

    def backward(g):
        _accumulate(a, g)
        _accumulate(b, g)

    return _result(a.data + b.data, (a, b), backward)


def matmul(a: Tensor, b: Tensor, transpose_b: bool = False) -> Tensor:
    """a @ b, or a @ b.T with ``transpose_b``; both operands 2-D."""
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeMismatch(f"matmul: {a.shape} @ {b.shape}")
    ad, bd = a.data, (b.data.T if transpose_b else b.data)
    if ad.shape[1] != bd.shape[0]:
        raise ShapeMismatch(f"matmul: {a.shape} @ {bd.shape}")

    def backward(g):
        if a.requires_grad:
            _accumulate(a, g @ bd.T)
        if b.requires_grad:
            _accumulate(b, g.T @ ad if transpose_b else ad.T @ g)

    # overflow is left to the consumer: a masked softmax ignores masked logits
    with np.errstate(over="ignore", invalid="ignore"):
        out = ad @ bd
    return _result(out, (a, b), backward)


def gather_rows(table: Tensor, index) -> Tensor:
    """Rows ``table[index]``; the gradient scatter-adds back onto the table."""
    idx = np.asarray(index, dtype=np.intp)
    if table.data.ndim != 2 or idx.ndim != 1:
        raise ShapeMismatch(f"gather_rows: table {table.shape}, index {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise ShapeMismatch(f"row index outside table of {table.shape[0]} rows")

    def backward(g):
        if table.requires_grad:
            if table.grad is None:
                table.grad = np.zeros_like(table.data)
            np.add.at(table.grad, idx, g)

    return _result(table.data[idx], (table,), backward)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w.T + b: an (n, d_in) matrix through a (d_out, d_in) weight and a
    (d_out,) bias added to every row."""
    if x.data.ndim != 2 or w.data.ndim != 2 or b.data.ndim != 1:
        raise ShapeMismatch(f"linear: {x.shape}, {w.shape}, {b.shape}")
    if x.shape[1] != w.shape[1] or w.shape[0] != b.shape[0]:
        raise ShapeMismatch(f"linear: {x.shape} @ {w.shape}.T + {b.shape}")
    xd, wd = x.data, w.data

    def backward(g):
        if x.requires_grad:
            _accumulate(x, g @ wd)
        if w.requires_grad:
            _accumulate(w, g.T @ xd)
        if b.requires_grad:
            _accumulate(b, g.sum(axis=0))

    # as in matmul, overflow is left to the consumer
    with np.errstate(over="ignore", invalid="ignore"):
        out = xd @ wd.T + b.data
    return _result(out, (x, w, b), backward)


def hstack(parts: list[Tensor]) -> Tensor:
    """Column-wise concatenation of matrices with one row count."""
    if not parts:
        raise ShapeMismatch("hstack of zero tensors")
    if any(p.data.ndim != 2 or p.shape[0] != parts[0].shape[0] for p in parts):
        raise ShapeMismatch(f"hstack: {[p.shape for p in parts]}")

    def backward(g):
        start = 0
        for p in parts:
            end = start + p.shape[1]
            _accumulate(p, g[:, start:end])
            start = end

    return _result(np.concatenate([p.data for p in parts], axis=1), tuple(parts),
                   backward)


def _masked_softmax_probs(x: np.ndarray, mask) -> np.ndarray:
    """The checked forward of ``masked_softmax``, shared with
    ``attention_layer``."""
    mask = np.asarray(mask, dtype=bool)
    if x.ndim != 2 or mask.shape != x.shape:
        raise ShapeMismatch(f"masked_softmax: logits {x.shape}, mask {mask.shape}")
    z = np.where(mask, x, -np.inf)
    top = z.max(axis=1, keepdims=True)
    # an empty row leaves its maximum at -inf, so finite maxima and logits
    # need neither check
    if not (np.isfinite(top).all() and np.isfinite(x).all()):
        if not mask.any(axis=1).all():
            raise EmptyMask("softmax over an empty active set")
        _check_finite(x[mask], "masked softmax logits")
    ex = np.exp(z - top)
    return ex / ex.sum(axis=1, keepdims=True)


def masked_softmax(logits: Tensor, mask) -> Tensor:
    """Softmax of each row over its active (mask-true) entries; exact zeros
    elsewhere.  Logits at masked entries are ignored, even if not finite."""
    probs = _masked_softmax_probs(logits.data, mask)

    def backward(g):
        _accumulate(logits, probs * (g - (probs * g).sum(axis=1, keepdims=True)))

    return _result(probs, (logits,), backward)


def log_softmax_rows(logits: Tensor) -> Tensor:
    """Log-softmax of each row of a 2-D tensor over all of its entries."""
    x = logits.data
    if x.ndim != 2 or x.shape[1] == 0:
        raise ShapeMismatch(f"log_softmax_rows: {x.shape}")
    _check_finite(x, "log-softmax logits")
    m = x.max(axis=1, keepdims=True)
    ex = np.exp(x - m)
    z = ex.sum(axis=1, keepdims=True)
    probs = ex / z

    def backward(g):
        _accumulate(logits, g - probs * g.sum(axis=1, keepdims=True))

    return _result(x - (m + np.log(z)), (logits,), backward)


def masked_sum(a: Tensor, mask) -> Tensor:
    """Sum of ``a * mask`` for a constant ``mask`` of a's shape."""
    mask = np.asarray(mask, dtype=np.float64)
    if mask.shape != a.shape:
        raise ShapeMismatch(f"masked_sum: {a.shape} vs mask {mask.shape}")

    def backward(g):
        _accumulate(a, g * mask)

    return _result(np.sum(a.data * mask), (a,), backward)


def combine(terms: list[Tensor], weights: list[float]) -> Tensor:
    """weights[0] * terms[0] + weights[1] * terms[1] + ..., left to right."""
    if not terms or len(terms) != len(weights):
        raise ShapeMismatch(f"{len(terms)} terms vs {len(weights)} weights")
    if any(t.shape != terms[0].shape for t in terms):
        raise ShapeMismatch("combine over mixed shapes")
    ws = [float(w) for w in weights]
    out = ws[0] * terms[0].data
    for w, t in zip(ws[1:], terms[1:]):
        out = out + w * t.data

    def backward(g):
        for w, t in zip(ws, terms):
            _accumulate(t, w * g)

    return _result(out, tuple(terms), backward)


# ---------------------------------------------------------------------------
# Fused layers: the encoder's window mix and one attention graph convolution,
# each a single node with a hand-written backward
# ---------------------------------------------------------------------------

def window_linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Row i is [x_{i-1}; x_i; x_{i+1}] @ w.T + b, for an (n, d) matrix x
    zero-padded at both ends, a (d_out, 3d) weight and a (d_out,) bias."""
    if x.data.ndim != 2 or w.data.ndim != 2 or b.data.ndim != 1:
        raise ShapeMismatch(f"window_linear: {x.shape}, {w.shape}, {b.shape}")
    d = x.shape[1]
    if w.shape[1] != 3 * d or w.shape[0] != b.shape[0]:
        raise ShapeMismatch(f"window_linear: window of {x.shape} @ {w.shape}.T "
                            f"+ {b.shape}")
    xd, wd = x.data, w.data
    win = np.zeros((xd.shape[0], 3 * d))
    win[1:, :d] = xd[:-1]
    win[:, d:2 * d] = xd
    win[:-1, 2 * d:] = xd[1:]

    def backward(g):
        if x.requires_grad:
            gwin = g @ wd
            gx = gwin[:, d:2 * d].copy()
            gx[:-1] += gwin[1:, :d]
            gx[1:] += gwin[:-1, 2 * d:]
            _accumulate(x, gx)
        if w.requires_grad:
            _accumulate(w, g.T @ win)
        if b.requires_grad:
            _accumulate(b, g.sum(axis=0))

    # as in matmul, overflow is left to the consumer
    with np.errstate(over="ignore", invalid="ignore"):
        out = win @ wd.T + b.data
    return _result(out, (x, w, b), backward)


def marked_window_relu(pre: Tensor, marks: Tensor, w: Tensor, row: int) -> Tensor:
    """ReLU of ``window_linear``'s output ``pre`` after input row ``row``
    moves from ``marks[0]`` to ``marks[1]``.

    The window mix is linear, so the move changes only output rows row - 1,
    row and row + 1 (those inside the matrix), by the last, middle and first
    (d_out, d) block of ``w`` times marks[1] - marks[0].  A ``row`` outside
    [0, n) moves nothing.
    """
    if pre.data.ndim != 2 or marks.data.ndim != 2 or marks.shape[0] != 2 \
            or w.shape != (pre.shape[1], 3 * marks.shape[1]):
        raise ShapeMismatch(f"marked_window_relu: {pre.shape}, marks "
                            f"{marks.shape}, weight {w.shape}")
    n, d_out = pre.shape
    d = marks.shape[1]
    marked = 0 <= row < n
    # output rows lo..hi-1 change; change row j of the 3 belongs to row - 1 + j
    lo, hi = max(row - 1, 0), min(row + 2, n)
    # row o * 3 + k of w_rows is block k's row o
    w_rows = w.data.reshape(3 * d_out, d)
    delta = marks.data[1] - marks.data[0]
    z = pre.data.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        if marked:
            change = (w_rows @ delta).reshape(d_out, 3)[:, ::-1].T
            z[lo:hi] += change[lo - row + 1:hi - row + 1]
        out = np.maximum(z, 0.0)

    def backward(g):
        gz = g * (out > 0)
        _accumulate(pre, gz)
        if marked and (marks.requires_grad or w.requires_grad):
            per_row = np.zeros((3, d_out))
            per_row[lo - row + 1:hi - row + 1] = gz[lo:hi]
            per_block = per_row[::-1].T.reshape(-1)  # index o * 3 + k, as w_rows
            if marks.requires_grad:
                g_delta = per_block @ w_rows
                _accumulate(marks, np.stack([-g_delta, g_delta]))
            if w.requires_grad:
                _accumulate(w, np.outer(per_block, delta).reshape(d_out, 3 * d))

    return _result(out, (pre, marks, w), backward)


def attention_layer(h: Tensor, l: Tensor, proj: Tensor,
                    mask) -> tuple[Tensor, Tensor]:
    """One attention graph convolution: ReLU(A (h + proj)), where A is the
    ``masked_softmax`` of M Mᵀ over ``mask`` for the messages M = [h l].

    Returns the (n, d) states and A as a constant.  A raises what
    ``masked_softmax`` raises on the same logits and mask.
    """
    hd, ld, pd = h.data, l.data, proj.data
    if hd.ndim != 2 or ld.ndim != 2 or pd.shape != hd.shape \
            or ld.shape[0] != hd.shape[0]:
        raise ShapeMismatch(f"attention_layer: h {h.shape}, l {l.shape}, "
                            f"proj {proj.shape}")
    d = hd.shape[1]
    msgs = np.concatenate([hd, ld], axis=1)
    # overflow in the logits is left to the masked softmax's check
    with np.errstate(over="ignore", invalid="ignore"):
        alpha = _masked_softmax_probs(msgs @ msgs.T, mask)
        values = hd + pd
        out = np.maximum(alpha @ values, 0.0)

    def backward(g):
        gz = g * (out > 0)
        g_values = alpha.T @ gz
        _accumulate(proj, g_values)
        if h.requires_grad or l.requires_grad:
            g_alpha = gz @ values.T
            g_logits = alpha * (g_alpha - (alpha * g_alpha).sum(axis=1, keepdims=True))
            g_msgs = (g_logits + g_logits.T) @ msgs
            _accumulate(h, g_msgs[:, :d] + g_values)
            _accumulate(l, g_msgs[:, d:])

    return _result(out, (h, l, proj), backward), constant(alpha)


# ---------------------------------------------------------------------------
# Verification and optimization
# ---------------------------------------------------------------------------

def grad_check(f, xs, eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f`` must be scalar-valued; relative error per coordinate is
    |analytic - numeric| / max(1, |analytic|).
    """
    if not 0 < eps <= 1e-2:
        raise ValueError("eps must lie in (0, 1e-2]")
    if isinstance(xs, Tensor):
        xs = [xs]
    for x in xs:
        x.requires_grad = True
        x.grad = None
    out = f(*xs)
    if out.data.shape != ():
        raise ShapeMismatch("grad_check needs a scalar-valued function")
    out.backward()
    analytic = [np.zeros_like(x.data) if x.grad is None else x.grad.copy()
                for x in xs]

    max_err = 0.0
    with no_grad():
        for x, ga in zip(xs, analytic):
            flat = x.data.reshape(-1)
            gflat = ga.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                fp = float(f(*xs).data)
                flat[i] = orig - eps
                fm = float(f(*xs).data)
                flat[i] = orig
                numeric = (fp - fm) / (2.0 * eps)
                if not np.isfinite(numeric):
                    raise NonFiniteValue("non-finite finite-difference probe")
                err = abs(gflat[i] - numeric) / max(1.0, abs(gflat[i]))
                if err > max_err:
                    max_err = err
    return max_err


@dataclass
class AdamState:
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)
    t: int = 0

    @classmethod
    def for_params(cls, params: list[Tensor]) -> "AdamState":
        return cls(m=[np.zeros_like(p.data) for p in params],
                   v=[np.zeros_like(p.data) for p in params], t=0)


def adam_step(params: list[Tensor], grads: list[np.ndarray], state: AdamState,
              lr: float = 1e-3, betas: tuple[float, float] = (0.9, 0.999),
              eps: float = 1e-8):
    """One bias-corrected Adam update, in place."""
    b1, b2 = betas
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ShapeMismatch("params / grads / state length mismatch")
    state.t += 1
    t = state.t
    # an update that overflows is left to the caller's check
    with np.errstate(over="ignore", invalid="ignore"):
        for p, g, m, v in zip(params, grads, state.m, state.v):
            if g.shape != p.data.shape:
                raise ShapeMismatch(f"grad {g.shape} vs param {p.data.shape}")
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            mhat = m / (1 - b1 ** t)
            vhat = v / (1 - b2 ** t)
            p.data -= lr * mhat / (np.sqrt(vhat) + eps)
