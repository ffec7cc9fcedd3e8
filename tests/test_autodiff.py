import numpy as np
import pytest

from bankcast import autodiff as ad
from bankcast.errors import DegenerateEmbedding, NondeterministicLoss
from bankcast.gradcheck import grad_check


def matmul_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # naive triple loop, independent of BLAS
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            s = 0.0
            for l in range(k):
                s += a[i, l] * b[l, j]
            out[i, j] = s
    return out


def test_matmul_matches_loop_oracle():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 5))
    b = rng.normal(size=(5, 4))
    out = ad.matmul(ad.Var(a), ad.Var(b))
    assert np.allclose(out.value, matmul_oracle(a, b), atol=1e-12)


def numeric_grad(fn, store, eps=1e-6):
    """Central differences of a scalar graph builder over every ParamStore coordinate."""
    grads = {}
    for name, var in store.items():
        flat = var.value.reshape(-1)
        g = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            fp = float(fn().value)
            flat[i] = orig - eps
            fm = float(fn().value)
            flat[i] = orig
            g[i] = (fp - fm) / (2 * eps)
        grads[name] = g.reshape(var.value.shape)
    return grads


def assert_grads_close(fn, store, rtol=1e-5):
    store.zero_grad()
    out = fn()
    ad.backward(out)
    analytic = store.grads()
    numeric = numeric_grad(fn, store)
    for name in store.names():
        a, n = analytic[name], numeric[name]
        err = np.abs(a - n) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(n)))
        assert err.max() < rtol, f"{name}: max rel err {err.max():.2e}"


@pytest.mark.parametrize(
    "name",
    [
        "add_broadcast",
        "sub",
        "mul_broadcast",
        "matmul",
        "transpose",
        "concat",
        "take_rows",
        "relu",
        "gelu",
        "sigmoid",
        "absolute",
        "sum_axis",
        "mean",
        "row_softmax",
        "l2_normalize_rows",
    ],
)
def test_op_gradients_match_central_differences(name):
    rng = np.random.default_rng(hash(name) % 2**32)
    store = ad.ParamStore()
    a = store.register("a", rng.normal(size=(3, 4)) + 0.1 * np.sign(rng.normal(size=(3, 4))))
    if name == "add_broadcast":
        b = store.register("b", rng.normal(size=(1, 4)))
        fn = lambda: ad.reduce_sum(ad.mul(ad.add(a, b), ad.add(a, b)))
    elif name == "sub":
        b = store.register("b", rng.normal(size=(3, 4)))
        fn = lambda: ad.reduce_sum(ad.mul(ad.sub(a, b), ad.sub(a, b)))
    elif name == "mul_broadcast":
        b = store.register("b", rng.normal(size=(3, 1)))
        fn = lambda: ad.reduce_sum(ad.mul(a, b))
    elif name == "matmul":
        b = store.register("b", rng.normal(size=(4, 2)))
        fn = lambda: ad.reduce_sum(ad.mul(ad.matmul(a, b), ad.matmul(a, b)))
    elif name == "transpose":
        fn = lambda: ad.reduce_sum(ad.mul(ad.transpose(a), ad.transpose(a)))
    elif name == "concat":
        b = store.register("b", rng.normal(size=(3, 2)))
        fn = lambda: ad.reduce_sum(ad.mul(ad.concat([a, b], axis=1), ad.concat([a, b], axis=1)))
    elif name == "take_rows":
        idx = np.array([0, 2, 2, 1])
        fn = lambda: ad.reduce_sum(ad.mul(ad.take_rows(a, idx), ad.take_rows(a, idx)))
    elif name == "relu":
        fn = lambda: ad.reduce_sum(ad.relu(a))
    elif name == "gelu":
        fn = lambda: ad.reduce_sum(ad.gelu(a))
    elif name == "sigmoid":
        fn = lambda: ad.reduce_sum(ad.sigmoid(a))
    elif name == "absolute":
        fn = lambda: ad.reduce_sum(ad.absolute(a))
    elif name == "sum_axis":
        fn = lambda: ad.reduce_sum(ad.mul(ad.reduce_sum(a, axis=1, keepdims=True), a))
    elif name == "mean":
        fn = lambda: ad.mean(ad.mul(a, a))
    elif name == "row_softmax":
        fn = lambda: ad.reduce_sum(ad.mul(ad.row_softmax(a, 0.7), ad.constant(np.arange(12.0).reshape(3, 4))))
    elif name == "l2_normalize_rows":
        fn = lambda: ad.reduce_sum(
            ad.mul(ad.l2_normalize_rows(a), ad.constant(np.arange(12.0).reshape(3, 4)))
        )
    assert_grads_close(fn, store)


def test_diamond_graph_accumulates():
    store = ad.ParamStore()
    x = store.register("x", np.array([[2.0]]))
    # y = x*x + x*x -> dy/dx = 4x
    y = ad.add(ad.mul(x, x), ad.mul(x, x))
    ad.backward(ad.reduce_sum(y))
    assert np.allclose(x.grad, [[8.0]])


def test_backward_rejects_nonscalar():
    v = ad.Var(np.ones((2, 2)))
    with pytest.raises(ValueError):
        ad.backward(v)


def test_l2_normalize_rows_degenerate():
    v = ad.Var(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(DegenerateEmbedding):
        ad.l2_normalize_rows(v)


def test_param_store_roundtrip():
    store = ad.ParamStore()
    store.register("w", np.arange(6.0).reshape(2, 3))
    store.register("b", np.zeros((1, 3)))
    state = store.state_dict()
    store["w"].value[:] = 0.0
    store.load_state_dict(state)
    assert np.array_equal(store["w"].value, np.arange(6.0).reshape(2, 3))
    with pytest.raises(ValueError):
        store.register("w", np.zeros((2, 3)))


class TestGradCheck:
    def test_quadratic(self):
        store = ad.ParamStore()
        theta = store.register("theta", np.linspace(-1.0, 2.0, 8).reshape(2, 4))
        report = grad_check(lambda: ad.reduce_sum(ad.mul(theta, theta)), store, eps=1e-5, tol=1e-8)
        assert report.passed
        assert report.max_rel_err < 1e-8

    def test_constant_loss(self):
        store = ad.ParamStore()
        store.register("theta", np.ones((3, 3)))
        report = grad_check(lambda: ad.constant(np.array(5.0)), store, eps=1e-5, tol=1e-9)
        assert report.max_rel_err == 0.0

    def test_nondeterministic_loss_detected(self):
        store = ad.ParamStore()
        theta = store.register("theta", np.ones((1, 1)))
        state = {"n": 0.0}

        def loss():
            state["n"] += 1.0
            return ad.mul(theta, state["n"])

        with pytest.raises(NondeterministicLoss):
            grad_check(loss, store)

    def test_eps_bounds(self):
        store = ad.ParamStore()
        theta = store.register("theta", np.ones((1, 1)))
        with pytest.raises(ValueError):
            grad_check(lambda: ad.reduce_sum(theta), store, eps=1e-2)

    def test_subsampling_is_seeded(self):
        store = ad.ParamStore()
        theta = store.register("theta", np.random.default_rng(0).normal(size=(40, 40)))
        fn = lambda: ad.reduce_sum(ad.mul(theta, theta))
        r1 = grad_check(fn, store, max_coords=50, seed=7)
        r2 = grad_check(fn, store, max_coords=50, seed=7)
        assert r1.n_checked == 50
        assert r1.per_param == r2.per_param
