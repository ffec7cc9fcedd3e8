"""Minimal reverse-mode autodiff over float64 numpy arrays.

Each `Var` records its parents and, when it needs gradients, a backward
closure; `backward()` walks the implicit tape in reverse topological order and
accumulates gradients into `Var.grad`. A `Var` needs gradients when it is a
leaf made as `Var(x)` (a parameter, or a test's input), or when grad mode is on
and some parent of the op that made it needs them. `constant()` and the raw
arrays an op wraps never do. A result that needs none records no closure and
skips the arrays only a backward pass reads, and closures and `backward()`
skip the parents that need none, so no gradient is computed for data. Inside
`no_grad()` nothing needs gradients: forwards that are never differentiated
(evaluation, key encoding) compute the same values and keep no backward
state. Only the operations the forecasting model actually needs are
implemented. Learnable arrays live in a `ParamStore`, a flat name -> leaf Var
registry that the optimizer and the finite-difference checker both iterate.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterable, Sequence

import numpy as np

from . import numerics
from .errors import DegenerateEmbedding


class Var:
    """A node in the computation graph holding a float64 ndarray.

    Made directly, it is a leaf that needs gradients; see `constant`.
    """

    __slots__ = ("value", "grad", "needs_grad", "_parents", "_backward")

    def __init__(self, value, _parents: tuple = (), needs_grad: bool = True):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self.needs_grad = needs_grad
        self._parents = _parents
        self._backward = None

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Var(shape={self.value.shape})"


_grad_enabled = True


@contextmanager
def no_grad():
    """Evaluate without a tape: no result made inside needs gradients, so
    none records a backward closure.

    Results keep their parent links, so the graph's shape stays inspectable,
    but `backward` from them reaches no leaf. The values are the taped ops'
    bit for bit. The previous mode is restored on exit, also on an
    exception, so the context nests.
    """
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


def constant(x) -> Var:
    """Wrap raw data as a leaf that needs no gradient."""
    return Var(x, needs_grad=False)


def _to_var(x) -> Var:
    return x if isinstance(x, Var) else constant(x)


def _result(value, parents: tuple) -> Var:
    """An op's output: it needs gradients when grad mode is on and a parent
    does (so a one-parent op's closure always feeds its parent)."""
    return Var(value, parents, _grad_enabled and any(p.needs_grad for p in parents))


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
            if p.needs_grad and id(p) not in visited:
                stack.append((p, False))
    root.grad = np.ones_like(root.value)
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


# ---------------------------------------------------------------------------
# arithmetic


def add(a, b) -> Var:
    a, b = _to_var(a), _to_var(b)
    out = _result(a.value + b.value, (a, b))
    if not out.needs_grad:
        return out

    def _bw(g):
        if a.needs_grad:
            _accum(a, _unbroadcast(g, a.value.shape))
        if b.needs_grad:
            _accum(b, _unbroadcast(g, b.value.shape))

    out._backward = _bw
    return out


def sub(a, b) -> Var:
    a, b = _to_var(a), _to_var(b)
    out = _result(a.value - b.value, (a, b))
    if not out.needs_grad:
        return out

    def _bw(g):
        if a.needs_grad:
            _accum(a, _unbroadcast(g, a.value.shape))
        if b.needs_grad:
            _accum(b, _unbroadcast(-g, b.value.shape))

    out._backward = _bw
    return out


def mul(a, b) -> Var:
    a, b = _to_var(a), _to_var(b)
    out = _result(a.value * b.value, (a, b))
    if not out.needs_grad:
        return out

    def _bw(g):
        if a.needs_grad:
            _accum(a, _unbroadcast(g * b.value, a.value.shape))
        if b.needs_grad:
            _accum(b, _unbroadcast(g * a.value, b.value.shape))

    out._backward = _bw
    return out


def matmul(a: Var, b: Var) -> Var:
    a, b = _to_var(a), _to_var(b)
    out = _result(a.value @ b.value, (a, b))
    if not out.needs_grad:
        return out

    def _bw(g):
        if a.needs_grad:
            _accum(a, g @ b.value.T)
        if b.needs_grad:
            _accum(b, a.value.T @ g)

    out._backward = _bw
    return out


def linear(x: Var, w: Var, b: Var | None = None) -> Var:
    """x @ w.T (+ b), one node for a dense layer whose weight is stored (out, in)."""
    x, w = _to_var(x), _to_var(w)
    value = x.value @ w.value.T
    if b is not None:
        b = _to_var(b)
        value = value + b.value
    out = _result(value, (x, w) if b is None else (x, w, b))
    if not out.needs_grad:
        return out

    def _bw(g):
        if x.needs_grad:
            _accum(x, g @ w.value)
        if w.needs_grad:
            _accum(w, (x.value.T @ g).T)
        if b is not None and b.needs_grad:
            _accum(b, _unbroadcast(g, b.value.shape))

    out._backward = _bw
    return out


def concat(parts: Sequence[Var], axis: int = 1) -> Var:
    parts = [_to_var(p) for p in parts]
    out = _result(np.concatenate([p.value for p in parts], axis=axis), tuple(parts))
    if not out.needs_grad:
        return out
    sizes = [p.value.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def _bw(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if not p.needs_grad:
                continue
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            _accum(p, g[tuple(sl)])

    out._backward = _bw
    return out


def reshape(a: Var, shape: tuple) -> Var:
    a = _to_var(a)
    out = _result(a.value.reshape(shape), (a,))
    if not out.needs_grad:
        return out

    def _bw(g):
        _accum(a, g.reshape(a.value.shape))

    out._backward = _bw
    return out


def take_rows(a: Var, idx) -> Var:
    """Gather rows of a 2D Var; repeated indices accumulate in the backward pass."""
    a = _to_var(a)
    idx = np.asarray(idx, dtype=np.intp)
    out = _result(a.value[idx], (a,))
    if not out.needs_grad:
        return out

    def _bw(g):
        # a stable sort groups each target row's gradient rows, in gather
        # order, into one run; one reduceat sums every run
        order = np.argsort(idx, kind="stable")
        runs = np.flatnonzero(np.diff(idx[order], prepend=-1))
        full = np.zeros_like(a.value)
        full[idx[order[runs]]] = np.add.reduceat(g[order], runs, axis=0)
        _accum(a, full)

    out._backward = _bw
    return out


def picked_dots(q: Var, table: np.ndarray, picks: np.ndarray, value: np.ndarray) -> Var:
    """(n, K) dot products q[i] · table[picks[i, j]], given as `value`.

    The caller has already computed the dot products (top-K selection scores
    them with one GEMM), so the forward reads no row of `table`; only the
    backward gathers the picked rows, once. A -1 in `picks` marks padding:
    its `value` is a constant and passes no gradient.
    """
    q = _to_var(q)
    out = _result(value, (q,))
    if not out.needs_grad:
        return out

    def _bw(g):
        # padding gathers the last row, weighted by an exact 0
        _accum(q, np.einsum("nk,nkd->nd", np.where(picks < 0, 0.0, g), table[picks]))

    out._backward = _bw
    return out


# ---------------------------------------------------------------------------
# elementwise nonlinearities


def relu(a: Var) -> Var:
    a = _to_var(a)
    out = _result(np.maximum(a.value, 0.0), (a,))
    if not out.needs_grad:
        return out
    mask = a.value > 0

    def _bw(g):
        _accum(a, g * mask)

    out._backward = _bw
    return out


def gelu(a: Var) -> Var:
    a = _to_var(a)
    out = _result(numerics.gelu(a.value), (a,))
    if not out.needs_grad:
        return out
    da = numerics.gelu_grad(a.value)

    def _bw(g):
        _accum(a, g * da)

    out._backward = _bw
    return out


def sigmoid(a: Var) -> Var:
    a = _to_var(a)
    s = numerics.sigmoid(a.value)
    out = _result(s, (a,))
    if not out.needs_grad:
        return out

    def _bw(g):
        _accum(a, g * s * (1.0 - s))

    out._backward = _bw
    return out


def absolute(a: Var) -> Var:
    a = _to_var(a)
    out = _result(np.abs(a.value), (a,))
    if not out.needs_grad:
        return out
    sgn = np.sign(a.value)

    def _bw(g):
        _accum(a, g * sgn)

    out._backward = _bw
    return out


# ---------------------------------------------------------------------------
# reductions and normalizations


def reduce_sum(a: Var, axis=None, keepdims: bool = False) -> Var:
    a = _to_var(a)
    out = _result(a.value.sum(axis=axis, keepdims=keepdims), (a,))
    if not out.needs_grad:
        return out

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
    out = _result(y, (a,))
    if not out.needs_grad:
        return out

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
    out = _result(y, (a,))
    if not out.needs_grad:
        return out

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
        unknown = sorted(set(state) - set(self._params))
        if unknown:
            raise ValueError(f"unknown parameters {unknown}")
        for k, v in self._params.items():
            arr = np.asarray(state[k], dtype=np.float64)
            if arr.shape != v.value.shape:
                raise ValueError(f"shape mismatch for {k!r}: {arr.shape} vs {v.value.shape}")
            v.value = arr.copy()
