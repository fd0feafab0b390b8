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


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0

    def backward(g):
        _accumulate(a, g * mask)

    return _result(a.data * mask, (a,), backward)


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


def _shift(x: np.ndarray, k: int) -> np.ndarray:
    out = np.zeros_like(x)
    n = x.shape[0]
    if k >= 0:
        out[k:] = x[:max(n - k, 0)]
    else:
        out[:max(n + k, 0)] = x[-k:]
    return out


def shift_rows(a: Tensor, k: int) -> Tensor:
    """out[i] = a[i - k], with zero rows where i - k falls outside a."""
    if a.data.ndim != 2:
        raise ShapeMismatch("shift_rows expects a 2-D tensor")

    def backward(g):
        _accumulate(a, _shift(g, -k))

    return _result(_shift(a.data, k), (a,), backward)


def masked_softmax(logits: Tensor, mask) -> Tensor:
    """Softmax of each row over its active (mask-true) entries; exact zeros
    elsewhere.  Logits at masked entries are ignored, even if not finite."""
    x = logits.data
    mask = np.asarray(mask, dtype=bool)
    if x.ndim != 2 or mask.shape != x.shape:
        raise ShapeMismatch(f"masked_softmax: logits {x.shape}, mask {mask.shape}")
    if not mask.any(axis=1).all():
        raise EmptyMask("softmax over an empty active set")
    if not np.isfinite(x).all():
        _check_finite(x[mask], "masked softmax logits")
    z = np.where(mask, x, -np.inf)
    ex = np.exp(z - z.max(axis=1, keepdims=True))
    probs = ex / ex.sum(axis=1, keepdims=True)

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
