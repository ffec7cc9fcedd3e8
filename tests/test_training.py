import numpy as np
import pytest

from bankcast import autodiff as ad
from bankcast.data import SyntheticSpec, generate_synthetic_city, make_windows, split_windows
from bankcast.errors import DataError
from bankcast.model import Model, ModelConfig
from bankcast.training import (
    TrainConfig,
    combine_losses,
    instance_loss,
    masked_l1,
    sample_active,
    train,
)


def toy_city():
    spec = SyntheticSpec(
        n_regions=6, d_c=6, n_archetypes=2, t_total=24 * 10 + 1, noise_scale=0.15, seed=4
    )
    return generate_synthetic_city(spec)


def toy_model(**kw) -> Model:
    defaults = dict(
        d_c=6, window=24, horizon=24, d_g=6, d_z=5, hidden=12, head_blocks=2,
        gcn_layers=1, d_r=10, d_h=4, d_ec=6, d_ex=6, psi_hidden=12,
    )
    defaults.update(kw)
    return Model(ModelConfig(**defaults), seed=kw.get("seed", 0))


def toy_train_config(**kw) -> TrainConfig:
    defaults = dict(
        epochs=2, batch_size=8, learning_rate=1e-3, lambda_ret=0.2, k=3,
        temperature=0.1, n_inactive_per_batch=2, seed=7, patience=0,
    )
    defaults.update(kw)
    return TrainConfig(**defaults)


class TestSampleActive:
    def test_zero_inactive(self):
        rng = np.random.default_rng(0)
        active, inactive = sample_active([3, 1, 5], 0, rng)
        assert active == [1, 3, 5] and inactive == []

    def test_partition(self):
        rng = np.random.default_rng(1)
        observable = list(range(20))
        for _ in range(50):
            active, inactive = sample_active(observable, 6, rng)
            assert sorted(active + inactive) == observable
            assert not set(active) & set(inactive)
            assert len(inactive) == 6

    def test_rejects_too_many(self):
        rng = np.random.default_rng(2)
        with pytest.raises(DataError):
            sample_active(list(range(5)), 5, rng)

    def test_montecarlo_matches_hypergeometric(self):
        # each of 20 regions should be inactive with rate 6/20 = 0.3
        rng = np.random.default_rng(3)
        observable = list(range(20))
        counts = np.zeros(20)
        n_draws = 10_000
        for _ in range(n_draws):
            _, inactive = sample_active(observable, 6, rng)
            counts[inactive] += 1
        rates = counts / n_draws
        assert np.all(np.abs(rates - 0.3) <= 0.015)  # within 5% of 0.3

    def test_deterministic_under_rng_state(self):
        a = sample_active(list(range(10)), 3, np.random.default_rng(9))
        b = sample_active(list(range(10)), 3, np.random.default_rng(9))
        assert a == b


class TestMaskedL1:
    def test_perfect_prediction(self):
        pred = ad.constant(np.ones((3, 4)))
        assert float(masked_l1(pred, np.ones((3, 4)), [0, 1, 2]).value) == 0.0

    def test_off_by_one(self):
        pred = ad.constant(np.ones((3, 4)) + 1.0)
        assert abs(float(masked_l1(pred, np.ones((3, 4)), [0, 1, 2]).value) - 1.0) < 1e-15

    def test_hand_sum(self):
        pred = ad.constant(np.array([[1.0, 3.0], [0.0, 0.0]]))
        target = np.zeros((2, 2))
        assert abs(float(masked_l1(pred, target, [0, 1]).value) - 1.0) < 1e-15

    def test_only_supervised_rows_count(self):
        pred = ad.constant(np.array([[5.0, 5.0], [1.0, 1.0]]))
        target = np.zeros((2, 2))
        assert abs(float(masked_l1(pred, target, [1]).value) - 1.0) < 1e-15

    def test_empty_supervision_rejected(self):
        with pytest.raises(DataError):
            masked_l1(ad.constant(np.ones((2, 2))), np.ones((2, 2)), [])


class TestCombineLosses:
    def test_lambda_zero(self):
        l_pred = ad.constant(np.array(2.0))
        l_ret = ad.constant(np.array(1.0))
        assert combine_losses(l_pred, l_ret, 0.0) is l_pred

    def test_components_sum(self):
        l_pred = ad.constant(np.array(2.0))
        l_ret = ad.constant(np.array(0.5))
        total = combine_losses(l_pred, l_ret, 0.2)
        assert abs(float(total.value) - (2.0 + 0.2 * 0.5)) < 1e-12

    def test_perfect_alignment_and_prediction(self):
        total = combine_losses(ad.constant(np.array(0.0)), ad.constant(np.array(0.0)), 0.2)
        assert float(total.value) == 0.0

    def test_total_recomposes_from_components(self):
        # total on a real instance equals lambda-weighted sum of its parts
        city = toy_city()
        windows = make_windows(city)
        tr, _, _ = split_windows(windows)
        model = toy_model()
        contexts = city.contexts()
        observable = list(range(city.n_regions))
        from bankcast.retrieval import build_bank

        bank = build_bank(tr[:5], observable, contexts, model.encode_entries, "v")
        cfg = toy_train_config(lambda_ret=0.2)
        total, l_pred, l_ret = instance_loss(model, tr[0], contexts, observable, [1], bank, cfg)
        recomposed = float(l_pred.value) + 0.2 * float(l_ret.value)
        assert abs(float(total.value) - recomposed) < 1e-12


class TestTrainLoop:
    def run_toy(self, **kw):
        city = toy_city()
        windows = make_windows(city)
        tr, va, _ = split_windows(windows)
        model = toy_model()
        cfg = toy_train_config(**kw)
        result = train(model, city, list(range(city.n_regions)), tr, va, cfg)
        return model, result

    def test_zero_lr_leaves_params_unchanged(self):
        city = toy_city()
        windows = make_windows(city)
        tr, va, _ = split_windows(windows)
        model = toy_model()
        before = model.store.state_dict()
        cfg = toy_train_config(learning_rate=0.0, epochs=1)
        train(model, city, list(range(city.n_regions)), tr, va, cfg)
        after = model.store.state_dict()
        for name in before:
            assert np.array_equal(before[name], after[name]), name
        assert model.fusion.scale.value.item() == 0.0

    def test_determinism(self):
        _, r1 = self.run_toy()
        _, r2 = self.run_toy()
        for a, b in zip(r1.log_rows, r2.log_rows):
            for col in ("train_loss", "train_pred_loss", "train_ret_loss", "val_mae", "val_rmse"):
                assert a[col] == b[col], col

    def test_loss_decreases_early(self):
        _, result = self.run_toy(epochs=5, learning_rate=3e-3)
        losses = [row["train_loss"] for row in result.log_rows]
        assert len(losses) == 5
        assert all(losses[i + 1] < losses[i] for i in range(4)), losses

    def test_log_grad_norm_and_fusion_scale(self):
        city = toy_city()
        tr, va, _ = split_windows(make_windows(city))
        for retrieval_enabled in (False, True):
            model = toy_model(retrieval_enabled=retrieval_enabled)
            result = train(model, city, list(range(city.n_regions)), tr, va, toy_train_config(epochs=1))
            [row] = result.log_rows
            assert np.isfinite(row["grad_norm"]) and row["grad_norm"] > 0
            assert (row["fusion_scale"] != 0.0) == retrieval_enabled

    def test_bank_entries_come_from_train_split_only(self):
        city = toy_city()
        windows = make_windows(city)
        tr, va, _ = split_windows(windows)
        model = toy_model()
        result = train(model, city, list(range(city.n_regions)), tr, va, toy_train_config(epochs=1))
        max_train_anchor = max(i.t for i in tr)
        assert all(e.anchor <= max_train_anchor for e in result.bank.entries)

    def test_supervision_scoping(self):
        # perturbing futures of unsupervised regions leaves the loss unchanged
        city = toy_city()
        windows = make_windows(city)
        tr, _, _ = split_windows(windows)
        model = toy_model()
        model.set_norm(10.0, 5.0)
        contexts = city.contexts()
        observable = list(range(city.n_regions))
        cfg = toy_train_config(supervise_inactive=False, lambda_ret=0.0)
        inst = tr[0]
        inactive = [1, 4]
        base, _, _ = instance_loss(model, inst, contexts, observable, inactive, None, cfg)
        perturbed = tr[0]
        perturbed.future[:, inactive] += 123.0
        after, _, _ = instance_loss(model, perturbed, contexts, observable, inactive, None, cfg)
        assert float(base.value) == float(after.value)

    def test_lambda_zero_retriever_grads_come_only_from_fused_path(self):
        city = toy_city()
        windows = make_windows(city)
        tr, va, _ = split_windows(windows)
        model = toy_model()
        contexts = city.contexts()
        observable = list(range(city.n_regions))
        result = train(model, city, observable, tr[:4], va[:2], toy_train_config(epochs=1))
        bank = result.bank
        inst = tr[0]

        def grads_for(lam):
            cfg = toy_train_config(lambda_ret=lam)
            total, _, _ = instance_loss(model, inst, contexts, observable, [2], bank, cfg)
            model.store.zero_grad()
            ad.backward(total)
            return model.store.grads()

        g0 = grads_for(0.0)
        cfg = toy_train_config(lambda_ret=0.0)
        total, l_pred, l_ret = instance_loss(model, inst, contexts, observable, [2], bank, cfg)
        assert l_ret is not None  # still computed for logging
        model.store.zero_grad()
        ad.backward(l_pred)
        g_pred_only = model.store.grads()
        for name in model.store.names():
            assert np.array_equal(g0[name], g_pred_only[name]), name

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_divergence_detection(self):
        city = toy_city()
        windows = make_windows(city)
        tr, va, _ = split_windows(windows)
        model = toy_model()
        model.backbone.head_out_w.value[:] = np.inf
        from bankcast.errors import DivergenceError

        with pytest.raises(DivergenceError):
            train(model, city, list(range(city.n_regions)), tr[:4], va[:2], toy_train_config(epochs=1))
