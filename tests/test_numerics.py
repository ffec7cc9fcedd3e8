import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bankcast import numerics


def normal_cdf_quadrature(x: float) -> float:
    # independent oracle: integrate the standard normal pdf directly
    quad = pytest.importorskip("scipy.integrate").quad
    val, _ = quad(lambda t: math.exp(-0.5 * t * t) / math.sqrt(2 * math.pi), -12.0, x)
    return val


def ndtr_branch_edges() -> np.ndarray:
    """Inputs at and beside every branch threshold of Cephes' ndtr, both signs:
    |a| = 1 and √2 (erf / 1 - erf / exp tail), 8√2 (P/Q to R/S), about 37.5
    to 37.7 (the MAXLOG underflow), far past it, and ±0, ±inf and NaN."""
    edges = [1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0), 37.5, 37.6, 37.67, 37.68, 37.7, 40.0, 1e300]
    near = [np.nextafter(a, toward) for a in edges for toward in (0.0, np.inf)]
    magnitudes = np.array(edges + near + [0.0, np.inf, np.nan])
    return np.concatenate([magnitudes, -magnitudes])


class TestNdtr:
    def test_matches_scipy_bit_for_bit(self):
        scipy_ndtr = pytest.importorskip("scipy.special").ndtr
        rng = np.random.default_rng(20)
        sample = np.concatenate([rng.normal(0.0, 3.0, 500_000), rng.uniform(-45.0, 45.0, 500_000)])
        points = np.concatenate([sample, ndtr_branch_edges()])
        for x in (points, points.reshape(2, -1)):
            got = numerics.ndtr(x)
            assert got.shape == x.shape
            assert got.tobytes() == scipy_ndtr(x).tobytes()
        for a in np.concatenate([ndtr_branch_edges(), sample[:2000]]):
            got = numerics.ndtr(np.float64(a))
            assert got.shape == ()
            assert got.tobytes() == scipy_ndtr(np.float64(a)).tobytes(), a

    def test_tails_symmetry_and_nan(self):
        assert numerics.ndtr(0.0) == 0.5
        assert numerics.ndtr(-40.0) == 0.0 and numerics.ndtr(40.0) == 1.0
        assert numerics.ndtr(-np.inf) == 0.0 and numerics.ndtr(np.inf) == 1.0
        assert np.isnan(numerics.ndtr(np.nan))
        xs = np.linspace(-8.0, 8.0, 1601)
        assert np.allclose(numerics.ndtr(xs) + numerics.ndtr(-xs), 1.0, rtol=0.0, atol=1e-15)
        assert np.all(np.diff(numerics.ndtr(xs)) >= 0.0)


def test_the_runtime_imports_no_scipy():
    # a fresh interpreter: import the command line and run one forward pass
    script = """
import sys
import numpy as np
import bankcast.cli
from bankcast.model import Model, ModelConfig
rng = np.random.default_rng(0)
model = Model(ModelConfig(d_c=4, window=6, horizon=3), seed=0)
res = model.forward_batch(rng.normal(size=(5, 4)), rng.normal(size=(2, 6, 5)), np.ones((2, 5)), [3, 4])
assert res.y_hat.value.shape == (10, 3)
assert "scipy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("scipy"))
"""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


class TestGelu:
    def test_zero(self):
        assert numerics.gelu(0.0) == 0.0

    def test_large_positive_is_identity(self):
        assert abs(numerics.gelu(10.0) - 10.0) < 1e-6

    def test_at_one_matches_quadrature(self):
        expected = 1.0 * normal_cdf_quadrature(1.0)
        assert abs(numerics.gelu(1.0) - expected) < 1e-5
        assert abs(numerics.gelu(1.0) - 0.841345) < 1e-5

    def test_elementwise_on_matrix(self):
        m = np.array([[0.0, 1.0], [-1.0, 10.0]])
        out = numerics.gelu(m)
        assert out.shape == (2, 2)
        assert out[0, 0] == 0.0
        assert abs(out[0, 1] - numerics.gelu(1.0)) == 0.0

    def test_monotone_on_grid(self):
        # exact x*Phi(x) has a single minimum near x = -0.7518 (value ~ -0.17),
        # so monotonicity only holds to the right of it
        xs = np.linspace(-0.75, 6.0, 2001)
        ys = numerics.gelu(xs)
        assert np.all(np.diff(ys) >= 0.0)

    def test_negative_tail_bounded(self):
        xs = np.linspace(-6.0, 0.0, 601)
        ys = numerics.gelu(xs)
        assert np.all(ys <= 0.0)
        assert ys.min() > -0.18


class TestRowSoftmax:
    def test_constant_row(self):
        for c in (-3.0, 0.0, 7.5):
            out = numerics.row_softmax(np.full((1, 3), c))
            assert np.allclose(out, 1.0 / 3.0, atol=1e-12)

    def test_single_column(self):
        out = numerics.row_softmax(np.array([[4.0], [-2.0]]))
        assert np.allclose(out, 1.0)

    def test_log_two_row(self):
        out = numerics.row_softmax(np.array([[0.0, math.log(2.0)]]), temperature=1.0)
        assert np.allclose(out, [1.0 / 3.0, 2.0 / 3.0], atol=1e-12)

    def test_rows_sum_to_one_random(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            m = rng.uniform(-50.0, 50.0, size=(5, 7))
            out = numerics.row_softmax(m)
            assert np.all(out >= 0.0)
            assert np.allclose(out.sum(axis=1), 1.0, atol=1e-9)

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        m = rng.uniform(-50.0, 50.0, size=(4, 6))
        shift = rng.uniform(-10.0, 10.0, size=(4, 1))
        a = numerics.row_softmax(m, temperature=2.5)
        b = numerics.row_softmax(m + shift, temperature=2.5)
        assert np.allclose(a, b, atol=1e-9)

    @pytest.mark.parametrize("temp", [0.0, -1.0])
    def test_rejects_nonpositive_temperature(self, temp):
        with pytest.raises(ValueError):
            numerics.row_softmax(np.ones((2, 2)), temperature=temp)


class TestSigmoid:
    def test_at_zero(self):
        assert numerics.sigmoid(0.0) == 0.5

    def test_symmetry(self):
        xs = np.array([-30.0, -3.3, -0.1, 0.7, 12.0])
        assert np.allclose(numerics.sigmoid(xs) + numerics.sigmoid(-xs), 1.0, atol=1e-12)

    def test_log_three(self):
        assert abs(numerics.sigmoid(math.log(3.0)) - 0.75) < 1e-12

    def test_range(self):
        # float64 rounds the output to exactly 1 from x ~ 36.74 (and to 0 only below x ~ -745.13)
        xs = np.linspace(-35, 35, 101)
        s = numerics.sigmoid(xs)
        assert np.all(s > 0.0) and np.all(s < 1.0)

    def test_equals_the_two_branch_formula_bit_for_bit(self):
        def two_branch(x):
            # the reference: exp(-x) on x >= 0, exp(x) below, each on its own gathered half
            out = np.empty_like(x)
            pos = x >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
            ex = np.exp(x[~pos])
            out[~pos] = ex / (1.0 + ex)
            return out

        edges = np.array([0.0, 1e-300, 36.0, 37.0, 745.0, 746.0, np.inf])
        rng = np.random.default_rng(23)
        xs = np.concatenate([edges, -edges, rng.normal(0.0, 20.0, 50_000), rng.uniform(-800.0, 800.0, 50_000)])
        assert numerics.sigmoid(xs).tobytes() == two_branch(xs).tobytes()
        assert numerics.sigmoid(37.0) == 1.0 and numerics.sigmoid(-746.0) == 0.0
        assert np.isnan(numerics.sigmoid(np.array([np.nan, -np.nan]))).all()
