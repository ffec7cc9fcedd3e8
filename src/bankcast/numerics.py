"""Scalar/elementwise numeric kernels used throughout the model.

All kernels operate on float64 and are shared between plain numpy call sites
and the autodiff layer (which also needs the closed-form derivatives defined
here). GeLU uses the exact Gaussian-CDF definition, not the tanh
approximation, so finite-difference gradient checks stay tight.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr

NORM_EPS = 1e-12

_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def _as_f64(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def gelu(x):
    """x * Phi(x) with Phi the standard normal CDF; elementwise."""
    x = _as_f64(x)
    return x * ndtr(x)


def gelu_grad(x):
    """d/dx gelu(x) = Phi(x) + x * phi(x)."""
    x = _as_f64(x)
    return ndtr(x) + x * _INV_SQRT_2PI * np.exp(-0.5 * x * x)


def sigmoid(x):
    """Numerically stable logistic function, output in (0, 1)."""
    x = _as_f64(x)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def row_softmax(m, temperature: float = 1.0):
    """Row-wise softmax of m / temperature, stabilized by per-row max subtraction."""
    if temperature <= 0:
        raise ValueError(f"softmax temperature must be positive, got {temperature}")
    m = _as_f64(m)
    z = (m - m.max(axis=1, keepdims=True)) / temperature
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)

