"""Scalar/elementwise numeric kernels used throughout the model.

All kernels operate on float64 and are shared between plain numpy call sites
and the autodiff layer (which also needs the closed-form derivatives defined
here). GeLU uses the exact Gaussian-CDF definition, not the tanh
approximation, so finite-difference gradient checks stay tight.

The Gaussian CDF `ndtr` is Cephes' `ndtr` (the code behind
`scipy.special.ndtr`) in numpy: the same coefficient tables, Horner order and
branch thresholds, with the C library's `exp` through `math.exp`, so its
values are scipy's bit for bit. numpy's own `np.exp` differs from the C
library's in the last bit on about 1 % of inputs, and `0.5 * erfc(-x/√2)`
on far more; either would move every trained parameter.
"""

from __future__ import annotations

import math

import numpy as np

NORM_EPS = 1e-12

_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)

# Cephes ndtr.c: erf on |x| <= 1 is x·T(x²)/U(x²); erfc on 1 <= x < 8 is
# exp(-x²)·P(x)/Q(x), and on x >= 8 exp(-x²)·R(x)/S(x). U, Q and S have an
# implicit leading 1 (`p1evl`).
_T = (
    9.60497373987051638749e0,
    9.00260197203842689217e1,
    2.23200534594684319226e3,
    7.00332514112805075473e3,
    5.55923013010394962768e4,
)
_U = (
    3.35617141647503099647e1,
    5.21357949780152679795e2,
    4.59432382970980127987e3,
    2.26290000613890934246e4,
    4.92673942608635921086e4,
)
_P = (
    2.46196981473530512524e-10,
    5.64189564831068821977e-1,
    7.46321056442269912687e0,
    4.86371970985681366614e1,
    1.96520832956077098242e2,
    5.26445194995477358631e2,
    9.34528527171957607540e2,
    1.02755188689515710272e3,
    5.57535335369399327526e2,
)
_Q = (
    1.32281951154744992508e1,
    8.67072140885989742329e1,
    3.54937778887819891062e2,
    9.75708501743205489753e2,
    1.82390916687909736289e3,
    2.24633760818710981792e3,
    1.65666309194161350182e3,
    5.57535340817727675546e2,
)
_R = (
    5.64189583547755073984e-1,
    1.27536670759978104416e0,
    5.01905042251180477414e0,
    6.16021097993053585195e0,
    7.40974269950448939160e0,
    2.97886665372100240670e0,
)
_S = (
    2.26052863220117276590e0,
    9.39603524938001434673e0,
    1.20489539808096656605e1,
    1.70814450747565897222e1,
    9.60896809063285878198e0,
    3.36907645100081516050e0,
)
# ln(DBL_MAX): erfc(x) underflows to 0 once -x² is below -MAXLOG
_MAXLOG = 7.09782712893383996843e2
_SQRT1_2 = 7.07106781186547524401e-1


def _as_f64(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def _polevl(x: np.ndarray, coef: tuple) -> np.ndarray:
    """coef[0]·x^N + ... + coef[N], in Horner order."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x: np.ndarray, coef: tuple) -> np.ndarray:
    """x^N + coef[0]·x^(N-1) + ... + coef[N-1], in Horner order."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _erf_small(x: np.ndarray) -> np.ndarray:
    """erf(x) for |x| <= 1."""
    z = x * x
    return x * _polevl(z, _T) / _p1evl(z, _U)


def _erfc_tail(z: np.ndarray) -> np.ndarray:
    """erfc(z) for z >= 1, 0 where it underflows (NaN-free input)."""
    with np.errstate(over="ignore"):  # z² of a huge z is inf, past the underflow
        neg_sq = -z * z
    out = np.zeros_like(z)
    live = np.flatnonzero(neg_sq >= -_MAXLOG)
    e = np.fromiter(map(math.exp, neg_sq[live].tolist()), dtype=np.float64, count=live.size)
    z = z[live]
    near = z < 8.0
    out[live[near]] = e[near] * _polevl(z[near], _P) / _p1evl(z[near], _Q)
    if not near.all():
        out[live[~near]] = e[~near] * _polevl(z[~near], _R) / _p1evl(z[~near], _S)
    return out


def ndtr(a) -> np.ndarray:
    """Phi(a), the standard normal CDF, elementwise; bit for bit Cephes'
    (and so `scipy.special.ndtr`'s) on glibc.

    With x = a/√2: |x| < 1/√2 gives 0.5 + 0.5·erf(x); otherwise
    h = 0.5·erfc(|x|), and Phi = 1 - h for x > 0, h for x < 0. erfc(|x|)
    is 1 - erf(|x|) below |x| = 1, so erf is evaluated once for every
    |x| < 1: erf is odd, and its polynomial form is odd bit for bit.
    """
    a = _as_f64(a)
    x = (a * _SQRT1_2).ravel()
    z = np.abs(x)
    inner = z < 1.0
    erf = _erf_small(x[inner])
    erfc = np.zeros_like(x)
    erfc[inner] = 1.0 - np.abs(erf)
    tail = z >= 1.0
    erfc[tail] = _erfc_tail(z[tail])
    half = 0.5 * erfc
    y = np.where(x > 0, 1.0 - half, half)
    y[z < _SQRT1_2] = 0.5 + 0.5 * erf[z[inner] < _SQRT1_2]
    y[np.isnan(x)] = np.nan
    return y.reshape(a.shape)


def gelu(x):
    """x * Phi(x) with Phi the standard normal CDF; elementwise."""
    x = _as_f64(x)
    return x * ndtr(x)


def gelu_grad(x, cdf):
    """d/dx gelu(x) = Phi(x) + x * phi(x), given `cdf` = Phi(x)."""
    x = _as_f64(x)
    return cdf + x * _INV_SQRT_2PI * np.exp(-0.5 * x * x)


def sigmoid(x):
    """Numerically stable logistic function, elementwise, output in [0, 1].

    With e = exp(-|x|), it is 1/(1+e) for x >= 0 and e/(1+e) below, so exp
    never overflows. In float64 it saturates: it is exactly 1.0 from about
    x = 36.737 up (1 + e rounds to 1; sigmoid(36.0) is 1 - 2**-52), and
    exactly 0.0 from about x = -745.133 down, where e underflows to 0. NaN
    stays NaN.
    """
    x = _as_f64(x)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def row_softmax(m, temperature: float = 1.0):
    """Row-wise softmax of m / temperature, stabilized by per-row max subtraction."""
    if temperature <= 0:
        raise ValueError(f"softmax temperature must be positive, got {temperature}")
    m = _as_f64(m)
    z = (m - m.max(axis=1, keepdims=True)) / temperature
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)
