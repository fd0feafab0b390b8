"""Minimal dense-tensor kernel with reverse-mode automatic differentiation.

Covers exactly the operations the model needs, on float64 numpy storage.
A sentence is an ``(n, d)`` matrix with one row per token and a graph view
is a boolean ``(n, n)`` mask, so every primitive works on whole matrices.
Every primitive records its parents and a backward closure; ``Tape`` walks
the recorded graph once, in topological order, to accumulate gradients.

A training chunk's instances are one row stack of N = Σ nᵢ rows: the 2-D
kernels run over it unchanged, a graph view being the block-diagonal
(N, N) mask of the instances' adjacencies, and ``marked_window_relu``
marks one row per instance, each move clipped at its own instance's ends.

The kernels of one verb's forward (``marked_window_relu``,
``attention_layer``, ``hstack`` and ``linear``) also take a sentence's k
verbs stacked as ``(k, n, d)``, with the verb-independent ``(n, ·)``
operands broadcast over them.  Each kernel has one numpy body for both
ranks, written over the last two axes, so a verb's slice is the bytes of
its 2-D call.  Every op returns through ``_result``, which records only when
a parent needs a gradient: a 2-D result records its backward, fed from the
body's intermediates, and a stacked one has none, so a stacked call whose
inputs need a gradient raises ``ShapeMismatch``.  Each kernel whose
products can overflow runs under its own ``np.errstate``
(``_overflow_ignored``), whatever the rank, and leaves overflow to its
consumer's check; none relies on its caller's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter

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


class no_grad:
    """Context manager that disables graph recording (inference / finite
    differences) and restores the previous setting on exit."""

    __slots__ = ("_prev",)

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward",
                 "_depth")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None
        self._depth = 0  # a recorded op sits one above its deepest parent

    @property
    def shape(self):
        return self.data.shape

    def backward(self):
        Tape(self).backward()

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


def parameter(data) -> Tensor:
    return Tensor(data, requires_grad=True)


def _record(out: Tensor, parents, backward) -> Tensor:
    """Record ``out``'s graph only when a parent needs grads."""
    if _grad_enabled:
        parents = tuple(parents)
        if any([p.requires_grad for p in parents]):
            out.requires_grad = True
            out._parents = parents
            out._backward = backward
            out._depth = 1 + max([p._depth for p in parents])
    return out


def _result(data, parents, backward, op: str) -> Tensor:
    """Build op ``op``'s result and record its graph.  A stacked result (more
    than two axes) has no backward, so one that would record raises."""
    out = _record(Tensor(data), parents, backward)
    if out.requires_grad and out.data.ndim > 2:
        raise ShapeMismatch(f"{op}: stacked verbs are read only")
    return out


def broadcast_verbs(t: Tensor, k: int) -> Tensor:
    """The 2-D ``t`` repeated over a leading axis of k verbs, as a read-only
    view: the result of a verb-independent layer for each stacked verb."""
    if t.data.ndim != 2 or k < 0:
        raise ShapeMismatch(f"broadcast_verbs: {t.shape} over {k} verbs")
    return _result(np.broadcast_to(t.data, (k, *t.shape)), (t,), None,
                   "broadcast_verbs")


def _accumulate(t: Tensor, g: np.ndarray):
    if t.requires_grad:
        if t.grad is None:
            # a copy, since g may be a view of another node's gradient
            t.grad = np.array(g, dtype=np.float64)
        else:
            t.grad += g


_depth = attrgetter("_depth")


class Tape:
    """Topologically ordered record of the ops reachable from an output."""

    def __init__(self, output: Tensor):
        reached, seen = [], set()
        stack = [output]
        while stack:
            node = stack.pop()
            if node.requires_grad and id(node) not in seen:
                seen.add(id(node))
                reached.append(node)
                stack.extend(node._parents)
        self.output = output
        self.order = sorted(reached, key=_depth)  # parents precede consumers

    def backward(self, seed: np.ndarray | None = None):
        if seed is None:
            seed = np.ones_like(self.output.data)
        _accumulate(self.output, seed)
        for node in reversed(self.order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


# a kernel whose products can overflow runs under this, at either rank, and
# leaves overflow to its consumer's check: a masked softmax ignores masked
# logits, and the losses and the optimiser check their own values.  No such
# kernel calls another, so the one context never nests (numpy < 2's is not
# reentrant)
_overflow_ignored = np.errstate(over="ignore", invalid="ignore")


def _check_finite(arr: np.ndarray, op: str):
    if not np.isfinite(arr).all():
        raise NonFiniteValue(f"non-finite value produced by {op}")


# ---------------------------------------------------------------------------
# Primitives: a sentence is an (n, d) matrix, one row per token
# ---------------------------------------------------------------------------

@_overflow_ignored
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

    return _result(ad @ bd, (a, b), backward, "matmul")


def _row_index(op: str, table: Tensor, index) -> np.ndarray:
    """``index`` as a checked 1-D array of rows of the 2-D ``table``."""
    idx = np.asarray(index, dtype=np.intp)
    if table.data.ndim != 2 or idx.ndim != 1:
        raise ShapeMismatch(f"{op}: table {table.shape}, index {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise ShapeMismatch(f"row index outside table of {table.shape[0]} rows")
    return idx


def _scatter_rows(table: Tensor, idx: np.ndarray, g: np.ndarray):
    """Add row k of ``g`` to the gradient of row idx[k] of ``table``."""
    if table.requires_grad:
        if table.grad is None:
            table.grad = np.zeros_like(table.data)
        np.add.at(table.grad, idx, g)


@_overflow_ignored
def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w.T + b: an (n, d_in) matrix, or (k, n, d_in) stacked verbs,
    through a (d_out, d_in) weight and a (d_out,) bias added to every row."""
    if x.data.ndim not in (2, 3) or w.data.ndim != 2 or b.data.ndim != 1:
        raise ShapeMismatch(f"linear: {x.shape}, {w.shape}, {b.shape}")
    if x.shape[-1] != w.shape[1] or w.shape[0] != b.shape[0]:
        raise ShapeMismatch(f"linear: {x.shape} @ {w.shape}.T + {b.shape}")
    xd, wd = x.data, w.data

    def backward(g):
        if x.requires_grad:
            _accumulate(x, g @ wd)
        if w.requires_grad:
            _accumulate(w, g.T @ xd)
        if b.requires_grad:
            _accumulate(b, g.sum(axis=0))

    return _result(xd @ wd.T + b.data, (x, w, b), backward, "linear")


def _concat(op: str, parts: list[Tensor], axis: int) -> Tensor:
    """Concatenation along the negative ``axis`` of matrices, or of (k, n, ·)
    stacked verbs, alike in every other axis; the gradient splits back."""
    if not parts or parts[0].data.ndim not in (2, 3):
        raise ShapeMismatch(f"{op}: {[p.shape for p in parts]}")
    try:
        out = np.concatenate([p.data for p in parts], axis=axis)
    except ValueError:
        raise ShapeMismatch(f"{op}: {[p.shape for p in parts]}") from None
    # the index of columns (axis -1) or rows (axis -2) start..end
    tail = (slice(None),) * (-1 - axis)

    def backward(g):
        start = 0
        for p in parts:
            end = start + p.shape[axis]
            _accumulate(p, g[(..., slice(start, end), *tail)])
            start = end

    return _result(out, tuple(parts), backward, op)


def hstack(parts: list[Tensor]) -> Tensor:
    """Column-wise concatenation of matrices with one row count, or of
    (k, n, ·) stacked verbs along their last axis."""
    return _concat("hstack", parts, -1)


def vstack(parts: list[Tensor]) -> Tensor:
    """Row-wise concatenation of matrices with one column count."""
    return _concat("vstack", parts, -2)


def row_block(a: Tensor, rows: slice) -> Tensor:
    """Rows ``rows`` (a slice with a start and a stop) of the 2-D ``a``, as a
    node whose gradient is a view of ``a``'s, so its consumers accumulate
    straight into ``a``'s and the block has no backward of its own.  All of
    ``a``'s rows are ``a`` itself."""
    if a.data.ndim != 2 or not 0 <= rows.start <= rows.stop <= a.shape[0]:
        raise ShapeMismatch(f"rows {rows.start}:{rows.stop} of {a.shape}")
    if rows.start == 0 and rows.stop == a.shape[0]:
        return a
    block = Tensor(a.data[rows])
    if _grad_enabled and a.requires_grad:
        if a.grad is None:
            a.grad = np.zeros_like(a.data)
        block.grad = a.grad[rows]
        _record(block, (a,), None)
    return block


def row_blocks(a: Tensor, sizes) -> list[Tensor]:
    """``a`` split into consecutive ``row_block`` blocks of ``sizes`` rows;
    one block is ``a`` itself."""
    if a.data.ndim != 2 or sum(sizes) != a.shape[0] or min(sizes) < 0:
        raise ShapeMismatch(f"row blocks of {list(sizes)} rows from {a.shape}")
    out, start = [], 0
    for size in sizes:
        out.append(row_block(a, slice(start, start + size)))
        start += size
    return out


def stack_rows(a: Tensor, rows: list[slice]) -> Tensor:
    """The row stack of the blocks ``rows`` (slices with a start and a
    stop, a block taken as often as it is named) of the 2-D ``a``, as one
    node; the gradient of each block adds back onto its rows of ``a``."""
    if a.data.ndim != 2 or not all(0 <= r.start <= r.stop <= a.shape[0]
                                   for r in rows):
        raise ShapeMismatch(f"rows {[(r.start, r.stop) for r in rows]} of {a.shape}")

    def backward(g):
        if a.grad is None:
            a.grad = np.zeros_like(a.data)
        start = 0
        for r in rows:
            end = start + r.stop - r.start
            a.grad[r] += g[start:end]
            start = end

    return _result(np.concatenate([a.data[r] for r in rows]), (a,), backward,
                   "stack_rows")


def _masked_softmax_probs(x: np.ndarray, mask) -> np.ndarray:
    """The checked forward of ``masked_softmax``, shared with
    ``attention_layer``: over (n, n) logits, or (k, n, n) stacked verbs
    under one (n, n) mask."""
    mask = np.asarray(mask, dtype=bool)
    if x.ndim not in (2, 3) or mask.shape != x.shape[-2:]:
        raise ShapeMismatch(f"masked_softmax: logits {x.shape}, mask {mask.shape}")
    z = np.where(mask, x, -np.inf)
    top = z.max(axis=-1, keepdims=True)
    # an empty row leaves its maximum at -inf, so finite maxima and logits
    # need neither check
    if not (np.isfinite(top).all() and np.isfinite(x).all()):
        if not mask.any(axis=1).all():
            raise EmptyMask("softmax over an empty active set")
        _check_finite(x[..., mask], "masked softmax logits")
    ex = np.exp(z - top)
    return ex / ex.sum(axis=-1, keepdims=True)


def masked_softmax(logits: Tensor, mask) -> Tensor:
    """Softmax of each row over its active (mask-true) entries; exact zeros
    elsewhere.  Logits at masked entries are ignored, even if not finite."""
    if logits.data.ndim != 2:
        raise ShapeMismatch(f"masked_softmax: logits {logits.shape}")
    probs = _masked_softmax_probs(logits.data, mask)

    def backward(g):
        _accumulate(logits, probs * (g - (probs * g).sum(axis=1, keepdims=True)))

    return _result(probs, (logits,), backward, "masked_softmax")


@dataclass(frozen=True, eq=False, slots=True)
class RowSoftmax:
    """The row softmax of a logits tensor ``a`` (``b`` None), or of the
    product a bᵀ, as constant arrays, with each row normalised within each
    of its column blocks of width ``block``.  Building it records no tape
    node; ``masked_nll`` reads it and sends its gradient to ``a`` and ``b``."""

    a: Tensor
    b: Tensor | None
    block: int
    probs: np.ndarray
    log_probs: np.ndarray

    @property
    def shape(self):
        return self.log_probs.shape

    def row_blocks(self, sizes) -> list["RowSoftmax"]:
        """The row softmax of each ``row_blocks`` block of ``a`` (``b``
        None), which is its rows of this one."""
        if self.b is not None:
            raise ShapeMismatch("row blocks of the row softmax of a product")
        out, start = [], 0
        for a, size in zip(row_blocks(self.a, sizes), sizes):
            end = start + size
            out.append(RowSoftmax(a, None, self.block, self.probs[start:end],
                                  self.log_probs[start:end]))
            start = end
        return out


@_overflow_ignored
def row_softmax(a: Tensor, b: Tensor | None = None,
                block: int | None = None) -> RowSoftmax:
    """The softmax of each row of the 2-D tensor ``a``, or of a bᵀ, within
    each column block of width ``block`` (default: the whole row)."""
    if b is None:
        x = a.data
    else:
        if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[1]:
            raise ShapeMismatch(f"row softmax of {a.shape} @ {b.shape}ᵀ")
        x = a.data @ b.data.T  # overflow is left to the finiteness check below
    if x.ndim != 2 or x.shape[1] == 0 \
            or (block is not None and (block <= 0 or x.shape[1] % block)):
        raise ShapeMismatch(f"row softmax: {x.shape} in column blocks of {block}")
    _check_finite(x, "log-softmax logits")
    r, c = x.shape
    block = c if block is None else block
    xb = x.reshape(r, c // block, block)
    m = xb.max(axis=2, keepdims=True)
    ex = np.exp(xb - m)
    z = ex.sum(axis=2, keepdims=True)
    return RowSoftmax(a, b, block, (ex / z).reshape(r, c),
                      (xb - (m + np.log(z))).reshape(r, c))


def masked_nll(terms: list[tuple[RowSoftmax, np.ndarray]]) -> Tensor:
    """-Σₖ sum(Mₖ * log_probsₖ) over (row softmax, constant mask Mₖ) terms,
    as one node.

    The gradient reaching term k's logits is rowsum(Mₖ) Pₖ - Mₖ, with the
    row sums taken within each column block.  It reaches a and b through one
    matmul each, or ``a`` through one (G + Gᵀ) a when a is b.
    """
    if not terms:
        raise ShapeMismatch("masked_nll of zero terms")
    checked = []
    total = 0.0
    for rows, mask in terms:
        mask = np.asarray(mask, dtype=np.float64)
        if mask.shape != rows.log_probs.shape:
            raise ShapeMismatch(f"masked_nll: log-probs {rows.shape} vs "
                                f"mask {mask.shape}")
        total += np.vdot(rows.log_probs, mask)
        checked.append((rows, mask))
    parents = {id(t): t for rows, _ in checked for t in (rows.a, rows.b)
               if t is not None}

    def backward(g):
        for rows, mask in checked:
            # each block's rows sum their own mask entries
            r, c = rows.shape
            shape = (r, c // rows.block, rows.block)
            mb = mask.reshape(shape)
            gl = (g * (mb.sum(axis=2, keepdims=True) * rows.probs.reshape(shape)
                       - mb)).reshape(r, c)
            a, b = rows.a, rows.b
            if b is None:
                _accumulate(a, gl)
            elif a is b:
                _accumulate(a, (gl + gl.T) @ a.data)
            else:
                if a.requires_grad:
                    _accumulate(a, gl @ b.data)
                if b.requires_grad:
                    _accumulate(b, gl.T @ a.data)

    return _result(-total, parents.values(), backward, "masked_nll")


# ---------------------------------------------------------------------------
# Fused layers: the encoder's window mix and one attention graph convolution,
# each a single node with a hand-written backward
# ---------------------------------------------------------------------------

def _cut_windows(win: np.ndarray, starts, d: int):
    """Zero the slots of the (n, 3d) windows ``win`` that reach across the
    sentence boundaries before rows ``starts``."""
    if len(starts):
        win[starts, :d] = 0.0
        win[starts - 1, 2 * d:] = 0.0


@_overflow_ignored
def window_linear(table: Tensor, index, marks: Tensor, w: Tensor,
                  b: Tensor, lengths=None) -> Tensor:
    """Row i is [x_{i-1}; x_i; x_{i+1}] @ w.T + b over the rows
    x = table[index] + marks[0], zero-padded at both ends of each sentence:
    the window mix of embedded rows with no verb marked, for a (V, d) table,
    an (n,) index, a (2, d) indicator table, a (d_out, 3d) weight and a
    (d_out,) bias.  ``index`` is the row stack of sentences of ``lengths``
    tokens (default: one sentence), and no window reaches past its own."""
    idx = _row_index("window_linear", table, index)
    d = table.shape[1]
    if marks.shape != (2, d) or w.data.ndim != 2 or w.shape[1] != 3 * d \
            or b.shape != (w.shape[0],):
        raise ShapeMismatch(f"window_linear: window of {table.shape} rows and "
                            f"marks {marks.shape} @ {w.shape}.T + {b.shape}")
    if lengths and (min(lengths) < 1 or sum(lengths) != idx.size):
        raise ShapeMismatch(f"window_linear: {idx.size} rows in sentences of "
                            f"{list(lengths)}")
    # the first row of every sentence after the first
    starts = np.cumsum(lengths[:-1], dtype=np.intp) if len(lengths or ()) > 1 else ()
    xd, wd = table.data[idx] + marks.data[0], w.data
    win = np.zeros((xd.shape[0], 3 * d))
    win[1:, :d] = xd[:-1]
    win[:, d:2 * d] = xd
    win[:-1, 2 * d:] = xd[1:]
    _cut_windows(win, starts, d)

    def backward(g):
        if table.requires_grad or marks.requires_grad:
            gwin = g @ wd
            _cut_windows(gwin, starts, d)
            gx = gwin[:, d:2 * d].copy()
            gx[:-1] += gwin[1:, :d]
            gx[1:] += gwin[:-1, 2 * d:]
            _scatter_rows(table, idx, gx)
            if marks.requires_grad:
                g_marks = np.zeros_like(marks.data)
                g_marks[0] = gx.sum(axis=0)
                _accumulate(marks, g_marks)
        if w.requires_grad:
            _accumulate(w, g.T @ win)
        if b.requires_grad:
            _accumulate(b, g.sum(axis=0))

    return _result(win @ wd.T + b.data, (table, marks, w, b), backward,
                   "window_linear")


@_overflow_ignored
def marked_window_relu(pre: Tensor, marks: Tensor, w: Tensor, row,
                       lengths=None) -> Tensor:
    """ReLU of ``window_linear``'s output ``pre`` after input row ``row``
    moves from ``marks[0]`` to ``marks[1]``.

    The window mix is linear, so the move changes only output rows row - 1,
    row and row + 1 (those inside the sentence), by the last, middle and
    first (d_out, d) block of ``w`` times marks[1] - marks[0].  A ``row``
    outside its sentence moves nothing.  A sequence of k rows gives the
    (k, n, d_out) stack of each row's result.  With ``lengths``, ``pre`` is
    the row stack of sentences of those lengths, ``row`` holds one row per
    sentence, counted from its first, and the result is 2-D: each
    sentence's rows are the bytes of its own call.
    """
    if pre.data.ndim != 2 or marks.data.ndim != 2 or marks.shape[0] != 2 \
            or w.shape != (pre.shape[1], 3 * marks.shape[1]):
        raise ShapeMismatch(f"marked_window_relu: {pre.shape}, marks "
                            f"{marks.shape}, weight {w.shape}")
    n, d_out = pre.shape
    d = marks.shape[1]
    single = isinstance(row, (int, np.integer))
    stacked = lengths is None and not single
    rows = [int(row)] if single else [int(r) for r in row]
    sizes = [n] * len(rows) if stacked else list(lengths or [n])
    if not stacked and (len(sizes) != len(rows) or sum(sizes) != n
                        or min(sizes) < 1):
        raise ShapeMismatch(f"marked_window_relu: rows {rows} of sentences "
                            f"of {sizes} in {n} rows")
    # (result slice, first and last + 1 changed row, marked row) of each
    # marked row inside its sentence: output rows r - 1 to r + 1 of a row
    # r, clipped at the sentence's ends
    spots, start = [], 0
    for k, (r, size) in enumerate(zip(rows, sizes)):
        if 0 <= r < size:
            at = start + r
            spots.append((k if stacked else 0, max(at - 1, start),
                          min(at + 2, start + size), at))
        start += 0 if stacked else size
    # row o * 3 + k of w_rows is block k's row o
    w_rows = w.data.reshape(3 * d_out, d)
    delta = marks.data[1] - marks.data[0]
    # change row j of the 3 belongs to output row r - 1 + j
    change = (w_rows @ delta).reshape(d_out, 3)[:, ::-1].T
    z = np.empty((len(rows), n, d_out) if stacked else (n, d_out))
    z[...] = pre.data
    z3 = z if stacked else z[None]
    for k, lo, hi, at in spots:
        z3[k, lo:hi] += change[lo - at + 1:hi - at + 1]
    out = np.maximum(z, 0.0, out=z)

    def backward(g):
        # a recorded call is 2-D, so every spot lies in the one slice
        gz = g * (out > 0)
        _accumulate(pre, gz)
        if spots and (marks.requires_grad or w.requires_grad):
            # row j sums gz over output row r - 1 + j of every marked row r
            per_row = np.zeros((3, d_out))
            for _, lo, hi, at in spots:
                per_row[lo - at + 1:hi - at + 1] += gz[lo:hi]
            if marks.requires_grad:
                per_block = per_row[::-1].T.reshape(-1)  # index o * 3 + k, as w_rows
                g_delta = per_block @ w_rows
                _accumulate(marks, np.stack([-g_delta, g_delta]))
            if w.requires_grad:
                # row j is the move as output row r - 1 + j sees it in its
                # window: marks[1] - marks[0] in block 2 - j
                moved = np.zeros((3, 3 * d))
                for j in range(3):
                    moved[j, (2 - j) * d:(3 - j) * d] = delta
                _accumulate(w, per_row.T @ moved)

    return _result(out, (pre, marks, w), backward, "marked_window_relu")


@_overflow_ignored
def attention_layer(h: Tensor, l: Tensor, proj: Tensor,
                    mask) -> tuple[Tensor, Tensor]:
    """One attention graph convolution: ReLU(A (h + proj)), where A is the
    ``masked_softmax`` of M Mᵀ over ``mask`` for the messages M = [h l].

    Returns the (n, d) states and A as a constant.  A raises what
    ``masked_softmax`` raises on the same logits and mask.  For (k, n, d)
    stacked verbs ``h``, the (n, ·) ``l``, ``proj`` and ``mask`` serve every
    verb, and both results are stacked.
    """
    hd, ld, pd = h.data, l.data, proj.data
    if hd.ndim not in (2, 3) or ld.ndim != 2 or pd.shape != hd.shape[-2:] \
            or ld.shape[0] != hd.shape[-2]:
        raise ShapeMismatch(f"attention_layer: h {h.shape}, l {l.shape}, "
                            f"proj {proj.shape}")
    d = hd.shape[-1]
    # overflow in the logits is left to the masked softmax's check
    msgs = np.empty((*hd.shape[:-1], d + ld.shape[1]))
    msgs[..., :d] = hd
    msgs[..., d:] = ld
    alpha = _masked_softmax_probs(msgs @ msgs.swapaxes(-1, -2), mask)
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

    return _result(out, (h, l, proj), backward, "attention_layer"), constant(alpha)


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
    """Adam's two moment vectors and step count, and the two scratch vectors
    each update reuses for its numerator and denominator."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    num: np.ndarray = field(init=False, repr=False)
    den: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.num = np.empty_like(self.m)
        self.den = np.empty_like(self.m)

    @classmethod
    def for_vector(cls, theta: np.ndarray) -> "AdamState":
        return cls(m=np.zeros_like(theta), v=np.zeros_like(theta))


@_overflow_ignored
def adam_step(theta: np.ndarray, grad: np.ndarray, state: AdamState,
              lr: float = 1e-3, betas: tuple[float, float] = (0.9, 0.999),
              eps: float = 1e-8):
    """One bias-corrected Adam update of the parameter vector ``theta`` for
    its gradient vector ``grad``, in place and with no array allocated.

    Each entry takes the arithmetic of the textbook update in its order:
    m = b1 m + (1 - b1) g, v = b2 v + ((1 - b2) g) g, then
    theta -= (lr (m / (1 - b1ᵗ))) / (sqrt(v / (1 - b2ᵗ)) + eps).
    """
    b1, b2 = betas
    if theta.ndim != 1 or grad.shape != theta.shape or state.m.shape != theta.shape:
        raise ShapeMismatch(f"adam_step: theta {theta.shape}, grad {grad.shape}, "
                            f"moments {state.m.shape}")
    state.t += 1
    t = state.t
    m, v, num, den = state.m, state.v, state.num, state.den
    # an update that overflows is left to the caller's check
    m *= b1
    np.multiply(grad, 1 - b1, out=num)
    m += num
    v *= b2
    np.multiply(grad, 1 - b2, out=num)
    num *= grad
    v += num
    np.divide(v, 1 - b2 ** t, out=den)
    np.sqrt(den, out=den)
    den += eps
    np.divide(m, 1 - b1 ** t, out=num)
    num *= lr
    num /= den
    theta -= num
