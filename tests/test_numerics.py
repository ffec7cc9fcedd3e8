import math

import numpy as np
import pytest
from scipy.integrate import quad

from bankcast import numerics


def normal_cdf_quadrature(x: float) -> float:
    # independent oracle: integrate the standard normal pdf directly
    val, _ = quad(lambda t: math.exp(-0.5 * t * t) / math.sqrt(2 * math.pi), -12.0, x)
    return val


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
        # beyond |x| ~ 36 float64 rounds the output to exactly 0 or 1
        xs = np.linspace(-35, 35, 101)
        s = numerics.sigmoid(xs)
        assert np.all(s > 0.0) and np.all(s < 1.0)

