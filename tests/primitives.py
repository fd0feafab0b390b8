"""Autodiff primitives that only the tests compose: the program never runs
them, but the gradchecks and the oracles of the fused kernels are written in
them.  Each records its node as ``synoie.autodiff``'s own primitives do."""

from __future__ import annotations

import numpy as np

from synoie.autodiff import (ShapeMismatch, Tensor, _accumulate, _result,
                             _row_index, _scatter_rows)


def add(a: Tensor, b: Tensor) -> Tensor:
    """a + b for two tensors of one shape."""
    if a.shape != b.shape:
        raise ShapeMismatch(f"add: {a.shape} vs {b.shape}")

    def backward(g):
        _accumulate(a, g)
        _accumulate(b, g)

    return _result(a.data + b.data, (a, b), backward)


def masked_sum(a: Tensor, mask) -> Tensor:
    """Sum of ``a * mask`` for a constant ``mask`` of a's shape."""
    mask = np.asarray(mask, dtype=np.float64)
    if mask.shape != a.shape:
        raise ShapeMismatch(f"masked_sum: {a.shape} vs mask {mask.shape}")

    def backward(g):
        _accumulate(a, g * mask)

    return _result(np.sum(a.data * mask), (a,), backward)


def gather_rows(table: Tensor, index) -> Tensor:
    """Rows ``table[index]``; the gradient scatter-adds back onto the table."""
    idx = _row_index("gather_rows", table, index)
    return _result(table.data[idx], (table,),
                   lambda g: _scatter_rows(table, idx, g))
