"""Minimal reverse-mode automatic differentiation over float64 numpy arrays.

A Tensor records its parents and a backward closure; backward() runs the
tape in reverse topological order. Built for desk-scale models where
gradient checkability matters more than speed.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidValue, ShapeMismatch


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, parents=(), backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)
        self._parents = parents if self.requires_grad else ()
        self._backward = backward if self.requires_grad else None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # --- graph plumbing ---

    def _accumulate(self, g):
        if self.grad is None:
            # a C-order copy: one g may reach several parents (x + y hands it
            # to both), and some backward passes hand over a transposed view
            self.grad = np.array(g, dtype=np.float64, order="C")
        else:
            self.grad += g

    def backward(self):
        """Backpropagate from this scalar through the recorded tape."""
        if not self.requires_grad:
            raise InvalidValue("backward() called on a tensor with no recorded graph")
        if self.data.ndim != 0 and self.data.size != 1:
            raise ShapeMismatch("backward() requires a scalar root")
        topo: list[Tensor] = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in seen or not node.requires_grad:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)

    # --- operators ---

    def __add__(self, other):
        other = _as_tensor(other)
        out_data = self.data + other.data

        def bwd(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g, other.data.shape))

        return Tensor(out_data, parents=(self, other), backward=bwd)

    __radd__ = __add__

    def __mul__(self, other):
        other = _as_tensor(other)
        out_data = self.data * other.data

        def bwd(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g * other.data, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g * self.data, other.data.shape))

        return Tensor(out_data, parents=(self, other), backward=bwd)

    __rmul__ = __mul__

    def __matmul__(self, other):
        other = _as_tensor(other)
        a, b = self.data, other.data
        if (a.ndim, b.ndim) not in ((1, 2), (2, 2), (2, 1)):
            raise ShapeMismatch(f"unsupported matmul arity: {a.ndim}-D @ {b.ndim}-D")
        try:
            out_data = a @ b
        except ValueError as e:
            raise ShapeMismatch(str(e)) from None

        def bwd(g):
            if self.requires_grad:
                self._accumulate(np.outer(g, b) if b.ndim == 1 else g @ b.T)
            if other.requires_grad:
                other._accumulate(np.outer(a, g) if a.ndim == 1 else a.T @ g)

        return Tensor(out_data, parents=(self, other), backward=bwd)

    def sum(self):
        def bwd(g):
            self._accumulate(np.full_like(self.data, float(g)))

        return Tensor(self.data.sum(), parents=(self,), backward=bwd)

    @property
    def T(self):
        def bwd(g):
            self._accumulate(g.T)

        return Tensor(self.data.T, parents=(self,), backward=bwd)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(g, shape):
    """Reduce a broadcast gradient back to the original operand shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, s in enumerate(shape):
        if s == 1 and g.shape[i] != 1:
            g = g.sum(axis=i, keepdims=True)
    return g


def relu(x: Tensor) -> Tensor:
    out_data = np.maximum(x.data, 0.0)

    def bwd(g):
        x._accumulate(g * (x.data > 0))

    return Tensor(out_data, parents=(x,), backward=bwd)


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(lo, hi)
                t._accumulate(g[tuple(sl)])

    return Tensor(out_data, parents=tuple(tensors), backward=bwd)


def stack_rows(rows: list[Tensor]) -> Tensor:
    """Stack 1-D tensors into a 2-D matrix, differentiable row-wise."""
    out_data = np.stack([r.data for r in rows])

    def bwd(g):
        for i, r in enumerate(rows):
            if r.requires_grad:
                r._accumulate(g[i])

    return Tensor(out_data, parents=tuple(rows), backward=bwd)


def softmax(x: Tensor) -> Tensor:
    """Stable softmax of a 1-D tensor."""
    shifted = x.data - x.data.max()
    e = np.exp(shifted)
    out_data = e / e.sum()

    def bwd(g):
        x._accumulate(out_data * (g - np.dot(g, out_data)))

    return Tensor(out_data, parents=(x,), backward=bwd)


def masked_row_softmax(x: Tensor, col_mask: np.ndarray) -> Tensor:
    """Row-wise softmax of a 2-D tensor, normalizing over unmasked columns only.

    Masked columns get probability 0; rows therefore sum to 1 over real
    positions. col_mask must have at least one True entry.
    """
    if not col_mask.any():
        raise InvalidValue("softmax over an empty mask")
    data = np.where(col_mask[None, :], x.data, -np.inf)
    shifted = data - data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=1, keepdims=True)

    def bwd(g):
        dot = (g * out_data).sum(axis=1, keepdims=True)
        x._accumulate(out_data * (g - dot))

    return Tensor(out_data, parents=(x,), backward=bwd)


def maxpool_time(x: Tensor, mask: np.ndarray) -> Tensor:
    """Per-dimension max over the unmasked (real) rows of a (T, E) tensor."""
    if not mask.any():
        raise InvalidValue("maxpool over an empty mask")
    rows = np.flatnonzero(mask)
    sub = x.data[rows]
    arg = rows[sub.argmax(axis=0)]
    out_data = x.data[arg, np.arange(x.data.shape[1])]

    def bwd(g):
        gx = np.zeros_like(x.data)
        gx[arg, np.arange(x.data.shape[1])] = g
        x._accumulate(gx)

    return Tensor(out_data, parents=(x,), backward=bwd)


def dropout(x: Tensor, rate: float, training: bool, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: identity in eval mode, 1/(1-rate) scaling in training."""
    if not training or rate == 0.0:
        return x
    keep = (rng.uniform(size=x.data.shape) >= rate) / (1.0 - rate)
    out_data = x.data * keep

    def bwd(g):
        x._accumulate(g * keep)

    return Tensor(out_data, parents=(x,), backward=bwd)


def embedding_lookup(E: Tensor, indices: np.ndarray, values: np.ndarray) -> Tensor:
    """Sparse-weighted row sum of the embedding matrix: sum_k v_k * E[i_k]."""
    if indices.size == 0:
        out_data = np.zeros(E.data.shape[1])

        def bwd_empty(g):
            pass

        return Tensor(out_data, parents=(E,), backward=bwd_empty)
    out_data = values @ E.data[indices]

    def bwd(g):
        gE = np.zeros_like(E.data)
        np.add.at(gE, indices, np.outer(values, g))
        E._accumulate(gE)

    return Tensor(out_data, parents=(E,), backward=bwd)
