import numpy as np
import pytest

from bankcast import autodiff as ad
from bankcast import backbone, numerics
from bankcast.gradcheck import grad_check
from bankcast.model import Model, ModelConfig


def small_config(**kw) -> ModelConfig:
    defaults = dict(
        d_c=5, window=6, horizon=4, d_g=4, d_z=3, hidden=8, head_blocks=3,
        gcn_layers=1, d_r=12, d_h=4, d_ec=6, d_ex=6, psi_hidden=10,
    )
    defaults.update(kw)
    return ModelConfig(**defaults)


def matmul_oracle(a, b):
    n, k = a.shape
    _, m = b.shape
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            for l in range(k):
                out[i, j] += a[i, l] * b[l, j]
    return out


class TestProjectContext:
    def test_identity(self):
        c = np.random.default_rng(0).normal(size=(3, 4))
        g = backbone.project_context(ad.constant(c), ad.constant(np.eye(4)))
        assert np.allclose(g.value, c, atol=1e-12)

    def test_zero_context(self):
        w = np.random.default_rng(1).normal(size=(4, 5))
        g = backbone.project_context(ad.constant(np.zeros((3, 5))), ad.constant(w))
        assert np.all(g.value == 0.0)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(2)
        c, w = rng.normal(size=(3, 5)), rng.normal(size=(4, 5))
        g = backbone.project_context(ad.constant(c), ad.constant(w))
        assert np.allclose(g.value, matmul_oracle(c, w.T), atol=1e-12)


class TestAdjacency:
    def test_single_region(self):
        a = backbone.build_adjacency(ad.constant(np.array([[2.0, -1.0]])))
        assert np.allclose(a.value, [[1.0]])

    def test_identity_embeddings(self):
        # rows [gelu(1), gelu(0)] -> softmax gives ~[0.6987, 0.3013]
        a = backbone.build_adjacency(ad.constant(np.eye(2)))
        g1 = numerics.gelu(1.0)
        expected = np.exp(g1) / (np.exp(g1) + 1.0)
        assert np.allclose(a.value, [[expected, 1 - expected], [1 - expected, expected]], atol=1e-12)
        assert abs(a.value[0, 0] - 0.6987) < 1e-4
        assert abs(a.value[0, 1] - 0.3013) < 1e-4

    def test_rows_stochastic(self):
        g = np.random.default_rng(3).normal(size=(7, 4))
        a = backbone.build_adjacency(ad.constant(g)).value
        assert np.all(a >= 0)
        assert np.allclose(a.sum(axis=1), 1.0, atol=1e-9)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(4)
        g = rng.normal(size=(5, 3))
        perm = rng.permutation(5)
        a = backbone.build_adjacency(ad.constant(g)).value
        ap = backbone.build_adjacency(ad.constant(g[perm])).value
        assert np.allclose(ap, a[np.ix_(perm, perm)], atol=1e-12)

    def test_subset_consistency(self):
        # the graph is defined per region set: projecting all contexts and
        # slicing equals running the whole pipeline on the subset from scratch
        rng = np.random.default_rng(5)
        contexts = rng.normal(size=(6, 5))
        proj = rng.normal(size=(4, 5))
        subset = [0, 2, 5]
        g_full = backbone.project_context(ad.constant(contexts), ad.constant(proj)).value
        a_sliced = backbone.build_adjacency(ad.constant(g_full[subset])).value
        g_sub = backbone.project_context(ad.constant(contexts[subset]), ad.constant(proj)).value
        a_scratch = backbone.build_adjacency(ad.constant(g_sub)).value
        assert np.array_equal(g_full[subset], g_sub)
        assert np.array_equal(a_sliced, a_scratch)


class TestEncodeHistory:
    def test_zero_history_zero_encoding(self):
        p = np.random.default_rng(6).normal(size=(3, 6))
        z = backbone.encode_history(ad.constant(np.zeros((4, 6))), ad.constant(p))
        assert np.all(z.value == 0.0)

    def test_row_of_ones_gives_window_sum(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(4, 6))
        z = backbone.encode_history(ad.constant(x), ad.constant(np.ones((1, 6))))
        assert np.allclose(z.value[:, 0], x.sum(axis=1), atol=1e-12)

    def test_matches_oracle(self):
        rng = np.random.default_rng(8)
        x, p = rng.normal(size=(5, 7)), rng.normal(size=(3, 7))
        z = backbone.encode_history(ad.constant(x), ad.constant(p))
        assert np.allclose(z.value, matmul_oracle(x, p.T), atol=1e-12)


class TestMessagePass:
    def test_zero_weights_pure_residual(self):
        rng = np.random.default_rng(9)
        h0 = rng.normal(size=(4, 5))
        a = numerics.row_softmax(rng.normal(size=(4, 4)))
        out = backbone.message_pass(ad.constant(h0), ad.constant(a), [ad.constant(np.zeros((5, 5)))])
        assert np.array_equal(out.value, h0)

    def test_single_node_self_loop(self):
        rng = np.random.default_rng(10)
        h0 = rng.normal(size=(1, 3))
        w = rng.normal(size=(3, 3))
        out = backbone.message_pass(ad.constant(h0), ad.constant([[1.0]]), [ad.constant(w)])
        assert np.allclose(out.value, np.maximum(h0 @ w, 0.0) + h0, atol=1e-12)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(11)
        n, d = 4, 3
        h0 = rng.normal(size=(n, d))
        a = numerics.row_softmax(rng.normal(size=(n, n)))
        w = rng.normal(size=(d, d))
        out = backbone.message_pass(ad.constant(h0), ad.constant(a), [ad.constant(w)])
        agg = matmul_oracle(matmul_oracle(a, h0), w)
        assert np.allclose(out.value, np.maximum(agg, 0.0) + h0, atol=1e-12)

    def test_stacked_instances_match_per_instance_calls(self):
        # three instances over 4 regions, stacked region-major: row i*3 + b
        rng = np.random.default_rng(12)
        n, n_inst, d = 4, 3, 5
        per_instance = rng.normal(size=(n_inst, n, d))
        a = numerics.row_softmax(rng.normal(size=(n, n)))
        weights = [ad.constant(rng.normal(size=(d, d))) for _ in range(2)]
        stacked = per_instance.transpose(1, 0, 2).reshape(n * n_inst, d)
        out = backbone.message_pass(ad.constant(stacked), ad.constant(a), weights)
        for b in range(n_inst):
            single = backbone.message_pass(ad.constant(per_instance[b]), ad.constant(a), weights)
            assert np.allclose(out.value[b::n_inst], single.value, rtol=1e-13, atol=1e-13)

    def test_rejects_rows_that_do_not_stack(self):
        with pytest.raises(ValueError, match="do not stack"):
            backbone.message_pass(ad.constant(np.ones((5, 3))), ad.constant(np.eye(2)), [])

    def test_rejects_nonsquare_weight(self):
        with pytest.raises(ValueError):
            backbone.message_pass(
                ad.constant(np.ones((2, 3))), ad.constant(np.eye(2)), [ad.constant(np.ones((3, 4)))]
            )


class TestForecastHead:
    def test_all_zero_head(self):
        model = Model(small_config(), seed=0)
        for name, var in model.store.items():
            if name.startswith("backbone.head"):
                var.value[:] = 0.0
        h = np.random.default_rng(12).normal(size=(3, 7))
        out = backbone.forecast_head(ad.constant(h), model.backbone)
        assert np.all(out.value == 0.0)

    def test_hand_worked_tiny_head(self):
        # 1 region, node dim 2, hidden 2, one block, horizon 2, hand-set weights
        cfg = small_config(d_z=1, d_g=1, hidden=2, head_blocks=1, horizon=2)
        model = Model(cfg, seed=0)
        p = model.backbone
        p.head_in_w.value = np.array([[1.0, 0.0], [0.0, 1.0]])
        p.head_in_b.value = np.array([[0.5, -0.5]])
        p.blocks[0][0].value = np.array([[1.0, 1.0], [0.0, 1.0]])
        p.blocks[0][1].value = np.zeros((1, 2))
        p.head_out_w.value = np.array([[1.0, 0.0], [1.0, 1.0]])
        p.head_out_b.value = np.array([[0.0, 1.0]])
        h = np.array([[2.0, 1.0]])
        # in: [2.5, 0.5]; block: relu([3.0, 0.5]) + [2.5, 0.5] = [5.5, 1.0]
        # out: [5.5, 5.5 + 1.0] + [0, 1] = [5.5, 7.5]
        out = backbone.forecast_head(ad.constant(h), p)
        assert np.allclose(out.value, [[5.5, 7.5]], atol=1e-12)

    def test_head_gradients(self):
        model = Model(small_config(), seed=3)
        h = np.random.default_rng(13).normal(size=(2, 7))

        def loss():
            return ad.mean(backbone.forecast_head(ad.constant(h), model.backbone))

        head_store = ad.ParamStore()
        for name, var in model.store.items():
            if name.startswith("backbone.head"):
                head_store._params[name] = var
        report = grad_check(loss, head_store, eps=1e-5, tol=1e-4)
        assert report.passed, report.summary()


class TestPipelineProperties:
    def forward_values(self, model, contexts, history, mask, hour):
        res = model.forward(contexts, history, mask, hour)
        return res.y_hat.value

    def test_permutation_equivariance_full(self):
        cfg = small_config()
        model = Model(cfg, seed=5)
        rng = np.random.default_rng(14)
        n = 6
        contexts = rng.normal(size=(n, cfg.d_c))
        history = rng.uniform(0, 5, size=(cfg.window, n))
        mask = np.array([1.0, 1.0, 0.0, 1.0, 0.0, 1.0])
        perm = rng.permutation(n)
        base = self.forward_values(model, contexts, history, mask, 7)
        permuted = self.forward_values(model, contexts[perm], history[:, perm], mask[perm], 7)
        assert np.allclose(permuted, base[perm], atol=1e-10)

    def test_coldstart_regions_get_nonzero_predictions(self):
        cfg = small_config()
        model = Model(cfg, seed=6)
        rng = np.random.default_rng(15)
        contexts = rng.normal(size=(4, cfg.d_c))
        history = rng.uniform(0, 5, size=(cfg.window, 4))
        mask = np.array([1.0, 1.0, 1.0, 0.0])
        out = self.forward_values(model, contexts, history, mask, 3)
        assert np.any(out[3] != 0.0)

    def test_backbone_gradients_full(self):
        cfg = small_config()
        model = Model(cfg, seed=7)
        rng = np.random.default_rng(16)
        contexts = rng.normal(size=(4, cfg.d_c))
        history = rng.uniform(0, 5, size=(cfg.window, 4))
        mask = np.ones(4)

        def loss():
            res = model.forward(contexts, history, mask, 2)
            return ad.mean(ad.mul(res.y_hat, res.y_hat))

        report = grad_check(loss, model.store, eps=1e-5, tol=1e-4)
        assert report.passed, report.summary()
