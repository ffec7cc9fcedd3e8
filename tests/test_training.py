import dataclasses

import numpy as np
import pytest

from bankcast import autodiff as ad
from bankcast import model as model_module
from bankcast import numerics, training
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
from bankcast.retrieval import MemoryBank, bank_entries, build_bank
from bankcast.training import (
    Adam,
    TrainConfig,
    batch_loss,
    combine_losses,
    instance_loss,
    masked_l1,
    sample_active,
    train,
    validation_metrics,
)
from retrieval_oracle import brute_force


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


def test_adam_matches_an_all_parameter_adam_bit_for_bit():
    # "late" has no gradient for two steps, then one; "gap" has one, then
    # none; "never" has none at all
    rng = np.random.default_rng(21)
    shapes = {"always": (3, 2), "late": (2, 2), "gap": (1, 4), "never": (2, 3)}
    has_grad = {
        "always": [True] * 5,
        "late": [False, False, True, True, False],
        "gap": [True, False, False, True, True],
        "never": [False] * 5,
    }
    store = ad.ParamStore()
    for name, shape in shapes.items():
        store.register(name, rng.normal(size=shape))
    values = store.state_dict()
    m = {name: np.zeros(shape) for name, shape in shapes.items()}
    v = {name: np.zeros(shape) for name, shape in shapes.items()}
    lr, b1, b2, eps = 1e-2, training.BETA1, training.BETA2, training.EPS
    optimizer = Adam(store, lr)
    for t in range(1, 6):
        grads = {
            name: rng.normal(size=shape) if has_grad[name][t - 1] else None
            for name, shape in shapes.items()
        }
        for name, var in store.items():
            var.grad = grads[name]
        optimizer.step()
        for name in shapes:  # every parameter moves, a missing gradient counting as zeros
            g = grads[name] if grads[name] is not None else np.zeros(shapes[name])
            m[name] = b1 * m[name] + (1.0 - b1) * g
            v[name] = b2 * v[name] + (1.0 - b2) * (g * g)
            m_hat, v_hat = m[name] / (1.0 - b1**t), v[name] / (1.0 - b2**t)
            values[name] = values[name] - lr * m_hat / (np.sqrt(v_hat) + eps)
            assert store[name].value.tobytes() == values[name].tobytes(), (t, name)
    assert "never" not in optimizer.m


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
        assert float(masked_l1(pred, np.ones((3, 4))).value) == 0.0

    def test_off_by_one(self):
        pred = ad.constant(np.ones((3, 4)) + 1.0)
        assert abs(float(masked_l1(pred, np.ones((3, 4))).value) - 1.0) < 1e-15

    def test_hand_sum(self):
        pred = ad.constant(np.array([[1.0, 3.0], [0.0, 0.0]]))
        target = np.zeros((2, 2))
        assert abs(float(masked_l1(pred, target).value) - 1.0) < 1e-15

    def test_empty_supervision_rejected(self):
        with pytest.raises(DataError):
            masked_l1(ad.constant(np.ones((0, 2))), np.ones((0, 2)))


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

    def test_graph_only_leaves_retriever_and_fusion_untouched(self):
        city = toy_city()
        tr, va, _ = split_windows(make_windows(city))
        model = toy_model(retrieval_enabled=False)
        before = model.store.state_dict()
        train(model, city, list(range(city.n_regions)), tr, va, toy_train_config(epochs=2))
        after = model.store.state_dict()
        idle = [name for name in before if name.startswith(("retriever.", "fusion."))]
        assert idle and all(after[name].tobytes() == before[name].tobytes() for name in idle)
        assert not np.array_equal(after["backbone.head.out.w"], before["backbone.head.out.w"])

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
    spec = SyntheticSpec(n_regions=4, d_c=6, n_archetypes=2, t_total=60, noise_scale=0.2, seed=3)
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

    def test_weights_are_the_softmax_of_the_selection_scores(self, monkeypatch):
        """The prior's softmax reads the scores that `select_top_batch`
        returned: each row's weights are their softmax bit for bit, full and
        padded rows alike."""
        # 30 bank windows: one of the two hours holds fewer than k entries
        model, instances, contexts, observable, bank = batch_setup(bank_windows=30)
        select, calls = model_module.select_top_batch, []

        def recording_select(*args):
            calls.append((args[2], select(*args)))
            return calls[-1][1]

        monkeypatch.setattr(model_module, "select_top_batch", recording_select)
        hours, k, temperature = [inst.hour for inst in instances], 8, 0.1
        res = model.forward_batch(
            contexts, np.stack([inst.history for inst in instances]), np.ones((len(instances), len(contexts))),
            hours, bank=bank, k=k, temperature=temperature, exclude_anchors=[inst.t for inst in instances],
        )
        row_hours = np.tile(hours, len(observable))
        assert sorted(hour for hour, _ in calls) == sorted(set(hours))
        sizes = []
        for hour, picks in calls:
            rows = np.flatnonzero(row_hours == hour)
            # the returned scores as padded (rows, k) logits, -inf at padding
            logits = np.full((rows.size, k), -np.inf)
            for i, (r, (idx, scores)) in enumerate(zip(rows, picks)):
                assert np.array_equal(res.selected[r, :idx.size], idx)
                logits[i, :idx.size] = scores
                sizes.append(idx.size)
            assert res.weights[rows].tobytes() == numerics.row_softmax(logits, temperature).tobytes()
        assert len(sizes) == len(row_hours) and min(sizes) < k == max(sizes)

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
                q = res.queries.value[r]
                idxs, w, want_prior = brute_force(bank, q, inst.hour, k, temperature, exclude=(inst.t, rid))
                m = len(idxs)
                assert m == counts[r] and res.valid[r, 0] == float(m > 0)
                assert np.array_equal(res.selected[r, :m], idxs) and np.all(res.selected[r, m:] == -1)
                assert np.allclose(res.weights[r, :m], w, rtol=0.0, atol=1e-12)
                assert np.all(res.weights[r, m:] == 0.0)
                prior = model.denormalize(res.prior.value[r]) if m else res.prior.value[r]
                assert np.allclose(prior, want_prior, rtol=1e-12, atol=1e-12)
                # `Model.forward` reports the prior the fusion consumed, 0 without candidates
                assert np.allclose(single.rows[i].prior, want_prior, rtol=1e-12, atol=1e-12)
                assert single.rows[i].valid == (m > 0)
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


    def test_masked_rows_share_one_query_and_selection(self, monkeypatch):
        """16 same-hour instances over n regions, m of them masked, no
        exclusion: selection runs once, on 16·(n − m) + m distinct rows, and
        every row's selection, weights and prior match a one-instance forward."""
        city = generate_synthetic_city(
            SyntheticSpec(n_regions=6, d_c=6, n_archetypes=2, t_total=24 * 19 + 1, noise_scale=0.15, seed=4)
        )
        windows = make_windows(city)
        model = live_model()
        model.set_norm(float(city.demand.mean()), float(city.demand.std()))
        contexts, masked, k, temperature = city.contexts(), [1, 4], 3, 0.1
        bank = build_bank(windows[:120], [0, 2, 3, 5], contexts, model.encode_entries, model.encoder_version())
        chunk = [w for w in windows if w.hour == windows[130].hour][-16:]
        assert len(chunk) == 16
        views = [masked_view(inst, masked) for inst in chunk]
        select, calls = model_module.select_top_batch, []

        def recording_select(*args):
            calls.append(args[1].shape[0])
            return select(*args)

        monkeypatch.setattr(model_module, "select_top_batch", recording_select)
        with ad.no_grad():
            res = model.forward_batch(
                contexts, np.stack([v.history for v in views]), np.stack([v.mask for v in views]),
                [v.hour for v in views], bank=bank, k=k, temperature=temperature,
            )
        n, m, n_inst = city.n_regions, len(masked), len(chunk)
        assert calls == [n_inst * (n - m) + m]
        for b, view in enumerate(views):
            single = model.forward(
                contexts, view.history, view.mask, view.hour, bank=bank, k=k, temperature=temperature
            )
            rows = slice(b, None, n_inst)  # region-major: row i * B + b
            assert np.array_equal(res.selected[rows], single.selected)
            assert np.allclose(res.weights[rows], single.weights, rtol=0.0, atol=1e-12)
            assert np.allclose(res.prior.value[rows], single.prior.value, rtol=1e-12, atol=1e-12)
            assert np.allclose(res.y_hat.value[rows], single.y_hat.value, rtol=1e-12, atol=1e-12)
        for i in masked:  # one query, selection and prior per masked region, gathered to each of its rows
            rows = slice(i * n_inst, (i + 1) * n_inst)
            for shared in (res.queries.value, res.selected, res.weights, res.prior.value):
                block = shared[rows]
                assert block.tobytes() == np.broadcast_to(block[0], block.shape).tobytes()

    def test_training_selects_every_row_once(self, monkeypatch):
        """With exclusion anchors every row is its own key, masked or not:
        the selected query rows sum to the batch's rows."""
        model, instances, contexts, observable, bank = batch_setup()
        select, rows = model_module.select_top_batch, []

        def recording_select(*args):
            rows.append(args[1].shape[0])
            return select(*args)

        monkeypatch.setattr(model_module, "select_top_batch", recording_select)
        batch_loss(model, instances, contexts, observable, [1, 4], bank, toy_train_config())
        assert sum(rows) == len(instances) * len(observable)

    def test_shared_queries_pass_gradients(self):
        """A taped forward whose masked rows share queries (no exclusion)
        sends each shared query the sum of its rows' gradients."""
        model, windows, contexts = grad_toy()
        bank = build_bank(windows[:30], [0, 2, 3], contexts, model.encode_entries, "v")
        batch = [windows[31], windows[7]]  # anchors 24 apart: one hour
        assert batch[0].hour == batch[1].hour
        views = [masked_view(inst, [1]) for inst in batch]

        def loss():
            res = model.forward_batch(
                contexts, np.stack([v.history for v in views]), np.stack([v.mask for v in views]),
                [v.hour for v in views], bank=bank, k=2, temperature=0.1,
                true_futures=np.stack([inst.future for inst in batch]),
            )
            return ad.add(ad.mean(ad.absolute(res.y_hat)), res.l_ret)

        report = grad_check(loss, model.store, eps=1e-5, tol=1e-4)
        assert report.passed, report.summary()


# ---------------------------------------------------------------------------
# validation


def validation_setup(retrieval_enabled=True):
    """A live model, its bank over regions 0-4, and 11 validation windows
    (chunks of 4, 4 and 3): region 5 is held out, and regions 1 and 3 are
    the masked validation regions."""
    city = toy_city()
    tr, va, _ = split_windows(make_windows(city))
    model = live_model(retrieval_enabled=retrieval_enabled)
    model.set_norm(float(city.demand.mean()), float(city.demand.std()))
    observable = [0, 1, 2, 3, 4]
    bank = None
    if retrieval_enabled:
        bank = build_bank(tr[:40], observable, city.contexts(), model.encode_entries, model.encoder_version())
    cfg = toy_train_config(batch_size=4)
    return model, city, va[:11], observable, [1, 3], bank, cfg


class TestValidationMetrics:
    @pytest.mark.parametrize("retrieval_enabled", [True, False])
    def test_equals_one_instance_forwards(self, retrieval_enabled):
        model, city, val, observable, val_inactive, bank, cfg = validation_setup(retrieval_enabled)
        contexts, obs = city.contexts(), np.asarray(observable)
        mae, rmse = validation_metrics(model, val, contexts, observable, bank, cfg, val_inactive)
        errors = []
        for inst in val:
            view = masked_view(inst, val_inactive)
            res = model.forward(
                contexts[obs], view.history[:, obs], view.mask[obs], view.hour,
                bank=bank, k=cfg.k, temperature=cfg.temperature, region_ids=obs,
            )
            errors.append(model.denormalize(res.y_hat.value) - inst.future[:, obs].T)
        err = np.concatenate(errors)
        assert abs(mae - np.abs(err).mean()) <= 1e-12 * mae
        assert abs(rmse - np.sqrt((err * err).mean())) <= 1e-12 * rmse

    def test_any_instance_order_gives_the_same_metrics(self):
        model, city, val, observable, val_inactive, bank, cfg = validation_setup()
        ordered = validation_metrics(model, val, city.contexts(), observable, bank, cfg, val_inactive)
        shuffled = [val[i] for i in np.random.default_rng(1).permutation(len(val))]
        got = validation_metrics(model, shuffled, city.contexts(), observable, bank, cfg, val_inactive)
        for a, b in zip(got, ordered):
            assert abs(a - b) <= 1e-12 * b

    @pytest.mark.parametrize("pass_name", ["validation_metrics", "predict_city"])
    def test_one_region_graph_per_pass(self, monkeypatch, pass_name):
        # 11 windows forecast as 3 chunks over one region set
        from bankcast.evaluation import predict_city

        model, city, val, observable, val_inactive, bank, cfg = validation_setup()
        built = []

        def counting_build_adjacency(node_embed):
            built.append(node_embed.value.shape[0])
            return build_adjacency(node_embed)

        build_adjacency = model_module.build_adjacency
        monkeypatch.setattr(model_module, "build_adjacency", counting_build_adjacency)
        if pass_name == "validation_metrics":
            validation_metrics(model, val, city.contexts(), observable, bank, cfg, val_inactive)
            assert built == [len(observable)]
        else:
            predict_city(model, city, val, [5], bank, cfg)
            assert built == [city.n_regions]

    def test_blind_to_regions_outside_the_observable_set(self):
        model, city, val, observable, val_inactive, bank, cfg = validation_setup()
        before = validation_metrics(model, val, city.contexts(), observable, bank, cfg, val_inactive)
        demand = city.demand.copy()
        demand[:, 5] = np.random.default_rng(3).uniform(0.0, 500.0, size=demand.shape[0])
        rewritten = dataclasses.replace(city, demand=demand)
        _, va, _ = split_windows(make_windows(rewritten))
        after = validation_metrics(model, va[:11], city.contexts(), observable, bank, cfg, val_inactive)
        assert after == before
