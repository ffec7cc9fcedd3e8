import numpy as np
import pytest

from bankcast import autodiff as ad
from bankcast.data import (
    SyntheticSpec,
    generate_synthetic_city,
    make_windows,
    masked_view,
    split_windows,
)
from bankcast.errors import DataError
from bankcast.gradcheck import grad_check
from bankcast.model import Model, ModelConfig
from bankcast.retrieval import MemoryBank, bank_entries, build_bank, retrieve
from bankcast.training import (
    TrainConfig,
    batch_loss,
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


# ---------------------------------------------------------------------------
# one tape per batch


def live_model(**kw) -> Model:
    """A toy model with every parameter perturbed, so fusion and retrieval matter."""
    model = toy_model(**kw)
    rng = np.random.default_rng(31)
    for _, var in model.store.items():
        var.value = var.value + rng.normal(0.0, 0.1, size=var.value.shape)
    return model


def batch_setup(retrieval_enabled=True, bank_windows=40, bank_regions=None):
    city = toy_city()
    tr, _, _ = split_windows(make_windows(city))
    model = live_model(retrieval_enabled=retrieval_enabled)
    model.set_norm(float(city.demand.mean()), float(city.demand.std()))
    contexts = city.contexts()
    observable = list(range(city.n_regions))
    bank = None
    if retrieval_enabled:
        bank = build_bank(
            tr[:bank_windows], bank_regions or observable, contexts,
            model.encode_entries, model.encoder_version(),
        )
    # anchors 24 apart share an hour: two instances at each of two hours
    instances = [tr[0], tr[7], tr[24], tr[31]]
    return model, instances, contexts, observable, bank


def losses_and_grads(model, fn):
    total, l_pred, l_ret = fn()
    model.store.zero_grad()
    ad.backward(total)
    return total, l_pred, l_ret, model.store.grads()


def assert_close(a, b, what):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    scale = max(np.abs(b).max(initial=0.0), 1e-300)
    assert np.abs(a - b).max(initial=0.0) <= 1e-12 * scale, what


BATCH_CASES = {
    "retrieval": (dict(), dict()),
    "graph-only": (dict(retrieval_enabled=False), dict()),
    "lambda-zero": (dict(), dict(lambda_ret=0.0)),
    "observed-supervision": (dict(), dict(supervise_inactive=False)),
    # hour buckets of one entry, and no entries at the hour of two of the
    # instances: rows and whole instances without candidates, every row short of k
    "ragged": (dict(bank_windows=7, bank_regions=[0]), dict(k=3)),
}


class TestBatchLoss:
    @pytest.mark.parametrize("case", list(BATCH_CASES))
    def test_equals_mean_of_instance_losses(self, case):
        setup_kw, cfg_kw = BATCH_CASES[case]
        model, instances, contexts, observable, bank = batch_setup(**setup_kw)
        cfg = toy_train_config(**cfg_kw)
        inactive = [1, 4]
        total, l_pred, l_ret, grads = losses_and_grads(
            model, lambda: batch_loss(model, instances, contexts, observable, inactive, bank, cfg)
        )
        singles = [
            losses_and_grads(
                model, lambda inst=inst: instance_loss(model, inst, contexts, observable, inactive, bank, cfg)
            )
            for inst in instances
        ]
        n = len(instances)
        assert_close(total.value, sum(float(s[0].value) for s in singles) / n, "total")
        assert_close(l_pred.value, sum(float(s[1].value) for s in singles) / n, "l_pred")
        rets = [float(s[2].value) for s in singles if s[2] is not None]
        assert (l_ret is None) == (not rets)
        if rets:
            assert_close(l_ret.value, sum(rets) / n, "l_ret")
        for name in model.store.names():
            assert_close(grads[name], sum(s[3][name] for s in singles) / n, name)
        if case == "ragged":
            assert 0 < len(rets) < n  # some instances have no candidate at all

    def test_grad_check_three_instances(self):
        model, windows, contexts = grad_toy()
        # every hour has bank entries, so each row retrieves and aligns
        bank = build_bank(windows[:30], [0, 1, 2], contexts, model.encode_entries, "v")
        batch = [windows[31], windows[40], windows[44]]
        tc = TrainConfig(k=2, lambda_ret=0.2, temperature=0.1)
        _, _, l_ret = batch_loss(model, batch, contexts, [0, 1, 2, 3], [1], bank, tc)
        assert l_ret is not None and float(model.fusion.scale.value.item()) != 0.0

        def loss():
            return batch_loss(model, batch, contexts, [0, 1, 2, 3], [1], bank, tc)[0]

        report = grad_check(loss, model.store, eps=1e-5, tol=1e-4)
        assert report.passed, report.summary()


def grad_toy() -> tuple[Model, list, np.ndarray]:
    """A live model on a 4-region toy city with W = H = 4, for gradient checks."""
    spec = SyntheticSpec(
        n_regions=4, d_c=6, n_archetypes=2, t_total=60, noise_scale=0.2, seed=3,
        scale_range=(8.0, 20.0),
    )
    city = generate_synthetic_city(spec, name="toy")
    cfg = ModelConfig(
        d_c=6, window=4, horizon=4, d_g=6, d_z=5, hidden=16, head_blocks=3,
        gcn_layers=1, d_r=12, d_h=4, d_ec=8, d_ex=8, psi_hidden=16,
    )
    model = Model(cfg, seed=1)
    model.set_norm(float(city.demand.mean()), float(city.demand.std()))
    rng = np.random.default_rng(7)
    for _, var in model.store.items():
        var.value = rng.normal(0.0, 0.3, size=var.value.shape)
    return model, make_windows(city, 4, 4), city.contexts()


class TestForwardBatch:
    def test_rows_match_per_instance_forward(self):
        model, instances, contexts, observable, bank = batch_setup()
        obs = np.asarray(observable)
        views = [masked_view(inst, [2, 5]) for inst in instances]
        res = model.forward_batch(
            contexts[obs],
            np.stack([v.history[:, obs] for v in views]),
            np.stack([v.mask[obs] for v in views]),
            [v.hour for v in views],
            bank=bank, k=3, temperature=0.1, region_ids=obs,
            exclude_anchors=[inst.t for inst in instances],
        )
        n_inst = len(instances)
        for b, (inst, view) in enumerate(zip(instances, views)):
            single = model.forward(
                contexts[obs], view.history[:, obs], view.mask[obs], view.hour,
                bank=bank, k=3, temperature=0.1, region_ids=obs, exclude_anchor=inst.t,
            )
            rows = slice(b, None, n_inst)  # region-major: row i * B + b
            for name in ("y_hat", "y_tilde", "queries"):
                got, want = getattr(res, name).value[rows], getattr(single, name).value
                assert np.allclose(got, want, rtol=1e-12, atol=1e-12), name
            for i, row in enumerate(single.rows):
                # padded (rows, k) arrays: the row's picks, then -1 indices and 0 weights
                sel, w, m = res.selected[i * n_inst + b], res.weights[i * n_inst + b], row.indices.size
                assert sel.shape == w.shape == (3,)
                assert np.array_equal(sel[:m], row.indices) and np.all(sel[m:] == -1)
                assert np.allclose(w[:m], row.weights, rtol=1e-12, atol=1e-12) and np.all(w[m:] == 0.0)
                # no row retrieves its own (anchor, region) entry
                sel = sel[:m]
                assert not np.any((bank.anchors[sel] == inst.t) & (bank.region_ids[sel] == obs[i]))

    def test_partly_filled_and_empty_rows(self):
        """k = 3 over hand-made hour buckets, rows excluding their own
        (anchor, region id) entries: one row keeps 2 candidates, one keeps
        none, every other row keeps 3."""
        model, windows, contexts = grad_toy()
        batch = [windows[31], windows[40], windows[44]]  # anchors 34, 43, 47; hours 10, 19, 23
        # (region id, anchor, hour): at hour 10 region 2 of anchor 34 excludes
        # one of three entries; at hour 19 all three hold region 0 of anchor 43
        pairs = [(2, 34, 10), (0, 5, 10), (1, 6, 10)] + [(0, 43, 19)] * 3 + [(r, 7, 23) for r in range(4)]
        rids, anchors, hours = map(list, zip(*pairs))
        src = [(windows[j], rid) for j, rid in enumerate(rids)]
        bank = MemoryBank(bank_entries(
            rids, anchors, hours, contexts[rids],
            np.stack([w.history[:, rid] for w, rid in src]), np.stack([w.future[:, rid] for w, rid in src]),
        ))
        model.refresh_bank(bank)
        observable, inactive, k, temperature = [0, 1, 2, 3], [1], 3, 0.1
        obs = np.asarray(observable)
        views = [masked_view(inst, inactive) for inst in batch]
        res = model.forward_batch(
            contexts[obs], np.stack([v.history[:, obs] for v in views]),
            np.stack([v.mask[obs] for v in views]), [v.hour for v in views],
            bank=bank, k=k, temperature=temperature, region_ids=obs,
            exclude_anchors=[inst.t for inst in batch],
            true_futures=np.stack([inst.future[:, obs] for inst in batch]),
        )
        n_inst = len(batch)
        counts = (res.selected >= 0).sum(axis=1)
        # row i·B + b: region 2 of instance 0 keeps 2, region 0 of instance 1 keeps none
        assert counts[2 * n_inst + 0] == 2 and counts[0 * n_inst + 1] == 0
        assert np.sum(counts == k) == len(counts) - 2
        for b, inst in enumerate(batch):
            single = model.forward(
                contexts[obs], views[b].history[:, obs], views[b].mask[obs], views[b].hour,
                bank=bank, k=k, temperature=temperature, region_ids=obs, exclude_anchor=inst.t,
            )
            for i, rid in enumerate(observable):
                r = i * n_inst + b
                want = retrieve(res.queries.value[r], bank, inst.hour, k, temperature, exclude=(inst.t, rid))
                m = want.indices.size
                assert m == counts[r] and res.valid[r, 0] == float(want.valid)
                assert np.array_equal(res.selected[r, :m], want.indices) and np.all(res.selected[r, m:] == -1)
                assert np.allclose(res.weights[r, :m], want.weights, rtol=0.0, atol=1e-12)
                assert np.all(res.weights[r, m:] == 0.0)
                prior = model.denormalize(res.prior.value[r]) if want.valid else res.prior.value[r]
                assert np.allclose(prior, want.prior, rtol=1e-12, atol=1e-12)
                # `Model.forward` reports the prior the fusion consumed, 0 without candidates
                assert np.allclose(single.rows[i].prior, want.prior, rtol=1e-12, atol=1e-12)
                assert single.rows[i].valid == want.valid
        for v in (res.y_hat.value, res.prior.value, res.weights):
            assert np.all(np.isfinite(v))

        tc = TrainConfig(k=k, lambda_ret=0.2, temperature=temperature)

        def loss():
            return batch_loss(model, batch, contexts, observable, inactive, bank, tc)[0]

        total, _, l_ret, grads = losses_and_grads(
            model, lambda: batch_loss(model, batch, contexts, observable, inactive, bank, tc)
        )
        assert l_ret is not None and np.isfinite(total.value)
        assert all(np.all(np.isfinite(g)) for g in grads.values())
        report = grad_check(loss, model.store, eps=1e-5, tol=1e-4)
        assert report.passed, report.summary()
