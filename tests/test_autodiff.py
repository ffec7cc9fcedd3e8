import inspect

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
        "linear",
        "linear_bias",
        "linear_shared",
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
    elif name == "linear":
        w = store.register("w", rng.normal(size=(2, 4)))
        fn = lambda: ad.reduce_sum(ad.mul(ad.linear(a, w), ad.linear(a, w)))
    elif name == "linear_bias":
        w = store.register("w", rng.normal(size=(2, 4)))
        b = store.register("b", rng.normal(size=(1, 2)))
        fn = lambda: ad.reduce_sum(ad.mul(ad.linear(a, w, b), ad.linear(a, w, b)))
    elif name == "linear_shared":
        # both gradient sides of a @ a.T reach the one leaf
        fn = lambda: ad.reduce_sum(ad.mul(ad.linear(a, a), ad.linear(a, a)))
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


@pytest.mark.parametrize(
    "idx",
    [[4, 0, 2, 0, 4, 4, 1], [3], []],
    ids=["unsorted-repeated", "single", "empty"],
)
def test_take_rows_backward_matches_add_at(idx):
    rng = np.random.default_rng(len(idx))
    a = ad.Var(rng.normal(size=(5, 3)))
    out = ad.take_rows(a, idx)
    assert out.value.shape == (len(idx), 3)
    g = rng.normal(size=out.value.shape)
    ad.backward(ad.reduce_sum(ad.mul(out, ad.constant(g))))
    expected = np.zeros((5, 3))
    np.add.at(expected, np.asarray(idx, dtype=np.intp), g)
    assert np.array_equal(a.grad, expected)


# (3, 2) picks into a 3-row table: a repeated row, padding, and a row of padding alone
PICKS = np.array([[2, 0], [1, -1], [-1, -1]])


def picked_values(q: np.ndarray, table: np.ndarray, picks: np.ndarray) -> np.ndarray:
    """q[i] · table[picks[i, j]], one dot product at a time, 0.0 at padding."""
    out = np.zeros(picks.shape)
    for i, j in zip(*np.nonzero(picks >= 0)):
        out[i, j] = q[i] @ table[picks[i, j]]
    return out


def test_picked_dots_gradient_matches_central_differences():
    rng = np.random.default_rng(21)
    store = ad.ParamStore()
    q = store.register("q", rng.normal(size=(3, 4)))
    table = rng.normal(size=(3, 4))
    weights = ad.constant(rng.normal(size=PICKS.shape))
    # the value is recomputed from q on each call, as selection does for a new query
    fn = lambda: ad.reduce_sum(
        ad.mul(ad.gelu(ad.picked_dots(q, table, PICKS, picked_values(q.value, table, PICKS))), weights)
    )
    assert_grads_close(fn, store)


def test_picked_dots_padding_passes_exactly_zero_gradient():
    rng = np.random.default_rng(22)
    q = ad.Var(rng.normal(size=(3, 4)))
    table = rng.normal(size=(3, 4))
    g = rng.normal(size=PICKS.shape)  # a nonzero upstream gradient at every slot, padding too
    out = ad.picked_dots(q, table, PICKS, picked_values(q.value, table, PICKS))
    ad.backward(ad.reduce_sum(ad.mul(out, ad.constant(g))))
    assert np.all(np.isfinite(q.grad))
    assert np.array_equal(q.grad[2], np.zeros(4))  # a row of padding alone
    assert np.array_equal(q.grad[1], g[1, 0] * table[1])  # its padded slot adds nothing
    assert np.allclose(q.grad[0], g[0, 0] * table[2] + g[0, 1] * table[0], rtol=1e-15, atol=0.0)


# every op on inputs whose values make each branch of it matter (negative
# entries for relu/absolute, repeated rows for take_rows, ...)
NO_GRAD_CASES = {
    "add": lambda a, b: ad.add(a, ad.take_rows(b, [0])),
    "sub": lambda a, b: ad.sub(a, b),
    "mul": lambda a, b: ad.mul(a, b),
    "matmul": lambda a, b: ad.matmul(a, ad.reshape(b, (4, 3))),
    "linear": lambda a, b: ad.linear(a, b, ad.constant([[0.5, -1.0, 2.0]])),
    "concat": lambda a, b: ad.concat([a, b, a], axis=1),
    "reshape": lambda a, b: ad.reshape(a, (4, 3)),
    "take_rows": lambda a, b: ad.take_rows(a, [2, 0, 2]),
    "relu": lambda a, b: ad.relu(a),
    "gelu": lambda a, b: ad.gelu(a),
    "sigmoid": lambda a, b: ad.sigmoid(a),
    "absolute": lambda a, b: ad.absolute(a),
    "reduce_sum": lambda a, b: ad.reduce_sum(a, axis=0, keepdims=True),
    "mean": lambda a, b: ad.mean(a, axis=1),
    "row_softmax": lambda a, b: ad.row_softmax(a, 0.3),
    "l2_normalize_rows": lambda a, b: ad.l2_normalize_rows(a),
    "picked_dots": lambda a, b: ad.picked_dots(a, b.value, PICKS, picked_values(a.value, b.value, PICKS)),
}


def no_grad_inputs():
    rng = np.random.default_rng(11)
    return ad.Var(rng.normal(size=(3, 4))), ad.Var(rng.normal(size=(3, 4)))


def test_no_grad_cases_cover_every_op():
    ops = {
        name for name, fn in vars(ad).items()
        if inspect.isfunction(fn) and fn.__module__ == ad.__name__ and not name.startswith("_")
    }
    assert ops - {"backward", "constant", "no_grad"} == set(NO_GRAD_CASES)


@pytest.mark.parametrize("name", sorted(NO_GRAD_CASES))
def test_no_grad_values_are_the_taped_values(name):
    a, b = no_grad_inputs()
    taped = NO_GRAD_CASES[name](a, b)
    with ad.no_grad():
        untaped = NO_GRAD_CASES[name](a, b)
    assert taped._backward is not None
    assert untaped._backward is None
    assert untaped.value.dtype == taped.value.dtype and untaped.value.shape == taped.value.shape
    assert untaped.value.tobytes() == taped.value.tobytes()


def graph_nodes(root: ad.Var) -> list[ad.Var]:
    """Every node reachable from `root` through parent links, `root` included."""
    seen, nodes, stack = set(), [], [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack += node._parents
    return nodes


def test_no_grad_graph_reaches_no_leaf():
    store = ad.ParamStore()
    rng = np.random.default_rng(12)
    w = store.register("w", rng.normal(size=(2, 4)))
    b = store.register("b", rng.normal(size=(1, 2)))
    x = ad.constant(rng.normal(size=(3, 4)))
    with ad.no_grad():
        loss = ad.mean(ad.absolute(ad.gelu(ad.linear(ad.relu(x), w, b))))
    assert all(node._backward is None for node in graph_nodes(loss))
    ad.backward(loss)
    assert store["w"].grad is None and store["b"].grad is None


@pytest.mark.parametrize("name", sorted(NO_GRAD_CASES))
def test_constants_get_no_gradient_and_constant_results_no_closure(name):
    a, b = no_grad_inputs()
    data_only = NO_GRAD_CASES[name](ad.constant(a.value), ad.constant(b.value))  # grad mode is on
    assert not data_only.needs_grad and data_only._backward is None
    # one side a leaf, the other data; an op that reads only `a` sees data alone on the second pass
    for x, y in [(a, ad.constant(b.value)), (ad.constant(a.value), b)]:
        out = NO_GRAD_CASES[name](x, y)
        weights = ad.constant(np.random.default_rng(14).normal(size=out.shape))
        ad.backward(ad.reduce_sum(ad.mul(out, weights)))
        nodes = graph_nodes(out)
        assert all(n.grad is None for n in nodes if not n.needs_grad)
        assert all(n.grad is not None for n in nodes if n.needs_grad)
    assert a.grad is not None


def test_no_grad_restores_the_mode_after_an_exception_and_nests():
    a, _ = no_grad_inputs()
    with pytest.raises(RuntimeError):
        with ad.no_grad():
            raise RuntimeError("inside")
    assert ad.relu(a)._backward is not None
    with ad.no_grad():
        with pytest.raises(RuntimeError):
            with ad.no_grad():
                raise RuntimeError("inner")
        assert ad.relu(a)._backward is None  # the outer context still holds
        with ad.no_grad():
            assert ad.relu(a)._backward is None
        assert ad.relu(a)._backward is None
    assert ad.relu(a)._backward is not None


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
    with pytest.raises(ValueError, match="unknown parameters"):
        store.load_state_dict({**state, "extra": np.zeros(1)})


class TestGradCheck:
    def test_quadratic(self):
        store = ad.ParamStore()
        theta = store.register("theta", np.linspace(-1.0, 2.0, 8).reshape(2, 4))
        report = grad_check(lambda: ad.reduce_sum(ad.mul(theta, theta)), store, eps=1e-5, tol=1e-8)
        assert report.passed
        assert report.max_rel_err < 1e-8
        assert report.n_checked == 8  # every coordinate

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
