"""Minimal reverse-mode autodiff over float64 numpy arrays.

Each `Var` records its parents and, when it needs gradients, a backward
closure; `backward()` walks the implicit tape in reverse topological order and
accumulates gradients into `Var.grad`. A `Var` needs gradients when it is a
leaf made as `Var(x)` (a parameter, or a test's input), or when grad mode is on
and some parent of the op that made it needs them. `constant()` and the raw
arrays an op wraps never do. Inside `no_grad()` nothing needs gradients:
forwards that are never differentiated (evaluation, key encoding) compute the
same values and keep no backward state.

Every op is `_op(value, [(parent, vjp), ...])`: its forward value and, per
parent, a function from the result's gradient to that parent's. `_op` alone
applies the rule above; it records a closure only for a result that needs
gradients, and that closure calls only the vjps of parents that need them.
Arrays that only a backward pass reads are computed inside a vjp, so a
forward that needs no gradients never computes them. To add an op, compute
its value and return `_op` with one vjp per parent. Only the operations the
forecasting model actually needs are implemented. Learnable arrays live in a
`ParamStore`, a flat name -> leaf Var registry that the optimizer and the
finite-difference checker both iterate.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterable, Sequence

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


def _op(value, grads: Sequence[tuple[Var, Callable]]) -> Var:
    """An op's result. `grads` holds one `(parent, vjp)` pair per parent,
    `vjp(g)` mapping the result's gradient `g` to that parent's.

    The result needs gradients when grad mode is on and some parent does;
    only then does it record a closure, which accumulates `vjp(g)` into each
    parent that needs gradients, in `grads` order, and skips the others.
    """
    out = Var(value, tuple([p for p, _ in grads]), False)
    live = _grad_enabled and [(p, vjp) for p, vjp in grads if p.needs_grad]
    if live:
        out.needs_grad = True

        def _bw(g):
            for p, vjp in live:
                _accum(p, vjp(g))

        out._backward = _bw
    return out


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
    return _op(a.value + b.value, [
        (a, lambda g: _unbroadcast(g, a.value.shape)),
        (b, lambda g: _unbroadcast(g, b.value.shape)),
    ])


def sub(a, b) -> Var:
    a, b = _to_var(a), _to_var(b)
    return _op(a.value - b.value, [
        (a, lambda g: _unbroadcast(g, a.value.shape)),
        (b, lambda g: _unbroadcast(-g, b.value.shape)),
    ])


def mul(a, b) -> Var:
    a, b = _to_var(a), _to_var(b)
    return _op(a.value * b.value, [
        (a, lambda g: _unbroadcast(g * b.value, a.value.shape)),
        (b, lambda g: _unbroadcast(g * a.value, b.value.shape)),
    ])


def matmul(a: Var, b: Var) -> Var:
    a, b = _to_var(a), _to_var(b)
    return _op(a.value @ b.value, [(a, lambda g: g @ b.value.T), (b, lambda g: a.value.T @ g)])


def linear(x: Var, w: Var, b: Var | None = None) -> Var:
    """x @ w.T (+ b), one node for a dense layer whose weight is stored (out, in)."""
    x, w = _to_var(x), _to_var(w)
    value = x.value @ w.value.T
    grads = [(x, lambda g: g @ w.value), (w, lambda g: (x.value.T @ g).T)]
    if b is not None:
        b = _to_var(b)
        value = value + b.value
        grads.append((b, lambda g: _unbroadcast(g, b.value.shape)))
    return _op(value, grads)


def concat(parts: Sequence[Var], axis: int = 1) -> Var:
    parts = [_to_var(p) for p in parts]

    def piece(i):
        def vjp(g):
            sl = [slice(None)] * g.ndim
            lo = sum(p.value.shape[axis] for p in parts[:i])
            sl[axis] = slice(lo, lo + parts[i].value.shape[axis])
            return g[tuple(sl)]

        return vjp

    value = np.concatenate([p.value for p in parts], axis=axis)
    return _op(value, [(p, piece(i)) for i, p in enumerate(parts)])


def reshape(a: Var, shape: tuple) -> Var:
    a = _to_var(a)
    return _op(a.value.reshape(shape), [(a, lambda g: g.reshape(a.value.shape))])


def take_rows(a: Var, idx) -> Var:
    """Gather rows of a 2D Var; repeated indices accumulate in the backward pass."""
    a = _to_var(a)
    idx = np.asarray(idx, dtype=np.intp)

    def vjp(g):
        # a stable sort groups each target row's gradient rows, in gather
        # order, into one run; one reduceat sums every run
        order = np.argsort(idx, kind="stable")
        runs = np.flatnonzero(np.diff(idx[order], prepend=-1))
        full = np.zeros_like(a.value)
        full[idx[order[runs]]] = np.add.reduceat(g[order], runs, axis=0)
        return full

    return _op(a.value[idx], [(a, vjp)])


def picked_dots(q: Var, table: np.ndarray, picks: np.ndarray, value: np.ndarray) -> Var:
    """(n, K) dot products q[i] · table[picks[i, j]], given as `value`.

    The caller has already computed the dot products (top-K selection scores
    them with one GEMM), so the forward reads no row of `table`; only the
    backward gathers the picked rows, once. A -1 in `picks` marks padding:
    its `value` is a constant and passes no gradient.
    """
    q = _to_var(q)

    def vjp(g):
        # padding gathers the last row, weighted by an exact 0
        return np.einsum("nk,nkd->nd", np.where(picks < 0, 0.0, g), table[picks])

    return _op(value, [(q, vjp)])


# ---------------------------------------------------------------------------
# elementwise nonlinearities


def relu(a: Var) -> Var:
    a = _to_var(a)
    return _op(np.maximum(a.value, 0.0), [(a, lambda g: g * (a.value > 0))])


def gelu(a: Var) -> Var:
    a = _to_var(a)
    cdf = numerics.ndtr(a.value)
    return _op(a.value * cdf, [(a, lambda g: g * numerics.gelu_grad(a.value, cdf))])


def sigmoid(a: Var) -> Var:
    a = _to_var(a)
    s = numerics.sigmoid(a.value)
    return _op(s, [(a, lambda g: g * s * (1.0 - s))])


def absolute(a: Var) -> Var:
    a = _to_var(a)
    return _op(np.abs(a.value), [(a, lambda g: g * np.sign(a.value))])


# ---------------------------------------------------------------------------
# reductions and normalizations


def reduce_sum(a: Var, axis=None, keepdims: bool = False) -> Var:
    a = _to_var(a)

    def vjp(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return np.broadcast_to(g, a.value.shape).astype(np.float64)

    return _op(a.value.sum(axis=axis, keepdims=keepdims), [(a, vjp)])


def mean(a: Var, axis=None, keepdims: bool = False) -> Var:
    a = _to_var(a)
    n = a.value.size if axis is None else a.value.shape[axis]
    return mul(reduce_sum(a, axis=axis, keepdims=keepdims), 1.0 / n)


def row_softmax(a: Var, temperature: float = 1.0) -> Var:
    """softmax(a / temperature) along axis 1."""
    a = _to_var(a)
    y = numerics.row_softmax(a.value, temperature)

    def vjp(g):
        dot = (g * y).sum(axis=1, keepdims=True)
        return (g - dot) * y / temperature

    return _op(y, [(a, vjp)])


def l2_normalize_rows(a: Var, eps: float = numerics.NORM_EPS) -> Var:
    """Scale each row of a 2D Var to unit L2 norm; rejects degenerate rows."""
    a = _to_var(a)
    norms = np.linalg.norm(a.value, axis=1, keepdims=True)
    if np.any(norms <= eps):
        bad = int(np.argmin(norms))
        raise DegenerateEmbedding(f"row {bad} has L2 norm {norms[bad, 0]!r}")
    y = a.value / norms

    def vjp(g):
        dot = (g * y).sum(axis=1, keepdims=True)
        return (g - dot * y) / norms

    return _op(y, [(a, vjp)])


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
