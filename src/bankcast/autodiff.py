"""Minimal reverse-mode autodiff over float64 numpy arrays.

Each `Var` records its parents and a backward closure; `backward()` walks the
implicit tape in reverse topological order and accumulates gradients into
`Var.grad`. Only the operations the forecasting model actually needs are
implemented. Learnable arrays live in a `ParamStore`, a flat name -> leaf Var
registry that the optimizer and the finite-difference checker both iterate.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from . import numerics
from .errors import DegenerateEmbedding


class Var:
    """A node in the computation graph holding a float64 ndarray."""

    __slots__ = ("value", "grad", "_parents", "_backward")

    def __init__(self, value, _parents: tuple = (), _backward=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Var(shape={self.value.shape})"

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)


def constant(x) -> Var:
    """Wrap raw data as a leaf with no parents (gradients stop here)."""
    return Var(x)


def _to_var(x) -> Var:
    return x if isinstance(x, Var) else Var(x)


def _accum(var: Var, g: np.ndarray) -> None:
    # grads are never mutated in place, so aliasing the incoming array is safe
    if var.grad is None:
        var.grad = g if isinstance(g, np.ndarray) else np.asarray(g, dtype=np.float64)
    else:
        var.grad = var.grad + g


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum g back down to `shape` after numpy broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g.reshape(shape)


def backward(root: Var) -> None:
    """Accumulate d(root)/d(leaf) into every reachable Var's .grad."""
    if root.value.size != 1:
        raise ValueError(f"backward() expects a scalar root, got shape {root.value.shape}")
    topo: list[Var] = []
    visited: set[int] = set()
    stack: list[tuple[Var, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    root.grad = np.ones_like(root.value)
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


# ---------------------------------------------------------------------------
# arithmetic


def add(a, b) -> Var:
    a, b = _to_var(a), _to_var(b)
    out = Var(a.value + b.value, (a, b))

    def _bw(g):
        _accum(a, _unbroadcast(g, a.value.shape))
        _accum(b, _unbroadcast(g, b.value.shape))

    out._backward = _bw
    return out


def sub(a, b) -> Var:
    a, b = _to_var(a), _to_var(b)
    out = Var(a.value - b.value, (a, b))

    def _bw(g):
        _accum(a, _unbroadcast(g, a.value.shape))
        _accum(b, _unbroadcast(-g, b.value.shape))

    out._backward = _bw
    return out


def mul(a, b) -> Var:
    a, b = _to_var(a), _to_var(b)
    out = Var(a.value * b.value, (a, b))

    def _bw(g):
        _accum(a, _unbroadcast(g * b.value, a.value.shape))
        _accum(b, _unbroadcast(g * a.value, b.value.shape))

    out._backward = _bw
    return out


def matmul(a: Var, b: Var) -> Var:
    a, b = _to_var(a), _to_var(b)
    out = Var(a.value @ b.value, (a, b))

    def _bw(g):
        _accum(a, g @ b.value.T)
        _accum(b, a.value.T @ g)

    out._backward = _bw
    return out


def transpose(a: Var) -> Var:
    a = _to_var(a)
    out = Var(a.value.T, (a,))

    def _bw(g):
        _accum(a, g.T)

    out._backward = _bw
    return out


def concat(parts: Sequence[Var], axis: int = 1) -> Var:
    parts = [_to_var(p) for p in parts]
    out = Var(np.concatenate([p.value for p in parts], axis=axis), tuple(parts))
    sizes = [p.value.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def _bw(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            _accum(p, g[tuple(sl)])

    out._backward = _bw
    return out


def reshape(a: Var, shape: tuple) -> Var:
    a = _to_var(a)
    out = Var(a.value.reshape(shape), (a,))

    def _bw(g):
        _accum(a, g.reshape(a.value.shape))

    out._backward = _bw
    return out


def take_rows(a: Var, idx) -> Var:
    """Gather rows of a 2D Var; repeated indices accumulate in the backward pass."""
    a = _to_var(a)
    idx = np.asarray(idx, dtype=np.intp)
    out = Var(a.value[idx], (a,))

    def _bw(g):
        full = np.zeros_like(a.value)
        np.add.at(full, idx, g)
        _accum(a, full)

    out._backward = _bw
    return out


# ---------------------------------------------------------------------------
# elementwise nonlinearities


def relu(a: Var) -> Var:
    a = _to_var(a)
    out = Var(np.maximum(a.value, 0.0), (a,))
    mask = (a.value > 0).astype(np.float64)

    def _bw(g):
        _accum(a, g * mask)

    out._backward = _bw
    return out


def gelu(a: Var) -> Var:
    a = _to_var(a)
    out = Var(numerics.gelu(a.value), (a,))
    da = numerics.gelu_grad(a.value)

    def _bw(g):
        _accum(a, g * da)

    out._backward = _bw
    return out


def sigmoid(a: Var) -> Var:
    a = _to_var(a)
    s = numerics.sigmoid(a.value)
    out = Var(s, (a,))

    def _bw(g):
        _accum(a, g * s * (1.0 - s))

    out._backward = _bw
    return out


def absolute(a: Var) -> Var:
    a = _to_var(a)
    out = Var(np.abs(a.value), (a,))
    sgn = np.sign(a.value)

    def _bw(g):
        _accum(a, g * sgn)

    out._backward = _bw
    return out


# ---------------------------------------------------------------------------
# reductions and normalizations


def reduce_sum(a: Var, axis=None, keepdims: bool = False) -> Var:
    a = _to_var(a)
    out = Var(a.value.sum(axis=axis, keepdims=keepdims), (a,))

    def _bw(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accum(a, np.broadcast_to(g, a.value.shape).astype(np.float64))

    out._backward = _bw
    return out


def mean(a: Var, axis=None, keepdims: bool = False) -> Var:
    a = _to_var(a)
    n = a.value.size if axis is None else a.value.shape[axis]
    return mul(reduce_sum(a, axis=axis, keepdims=keepdims), 1.0 / n)


def row_softmax(a: Var, temperature: float = 1.0) -> Var:
    """softmax(a / temperature) along axis 1."""
    a = _to_var(a)
    y = numerics.row_softmax(a.value, temperature)
    out = Var(y, (a,))

    def _bw(g):
        dot = (g * y).sum(axis=1, keepdims=True)
        _accum(a, (g - dot) * y / temperature)

    out._backward = _bw
    return out


def l2_normalize_rows(a: Var, eps: float = numerics.NORM_EPS) -> Var:
    """Scale each row of a 2D Var to unit L2 norm; rejects degenerate rows."""
    a = _to_var(a)
    norms = np.linalg.norm(a.value, axis=1, keepdims=True)
    if np.any(norms <= eps):
        bad = int(np.argmin(norms))
        raise DegenerateEmbedding(f"row {bad} has L2 norm {norms[bad, 0]!r}")
    y = a.value / norms
    out = Var(y, (a,))

    def _bw(g):
        dot = (g * y).sum(axis=1, keepdims=True)
        _accum(a, (g - dot * y) / norms)

    out._backward = _bw
    return out


# ---------------------------------------------------------------------------
# parameter registry


class ParamStore:
    """Flat name -> leaf Var registry for every learnable array of a model."""

    def __init__(self):
        self._params: dict[str, Var] = {}

    def register(self, name: str, array) -> Var:
        if name in self._params:
            raise ValueError(f"parameter {name!r} already registered")
        v = Var(np.array(array, dtype=np.float64))
        self._params[name] = v
        return v

    def __getitem__(self, name: str) -> Var:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def items(self) -> Iterable[tuple[str, Var]]:
        return self._params.items()

    def n_coords(self) -> int:
        return sum(v.value.size for v in self._params.values())

    def zero_grad(self) -> None:
        for v in self._params.values():
            v.grad = None

    def grads(self) -> dict[str, np.ndarray]:
        """Current gradients; unused parameters report zeros."""
        return {
            k: (v.grad if v.grad is not None else np.zeros_like(v.value))
            for k, v in self._params.items()
        }

    def state_dict(self) -> dict[str, np.ndarray]:
        return {k: v.value.copy() for k, v in self._params.items()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        for k, v in self._params.items():
            arr = np.asarray(state[k], dtype=np.float64)
            if arr.shape != v.value.shape:
                raise ValueError(f"shape mismatch for {k!r}: {arr.shape} vs {v.value.shape}")
            v.value = arr.copy()
