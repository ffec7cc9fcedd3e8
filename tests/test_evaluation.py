import numpy as np
import pytest

from bankcast.data import (
    SyntheticSpec,
    generate_synthetic_city,
    make_transfer_pair,
    make_windows,
    split_windows,
)
from bankcast.data import masked_view
from bankcast.errors import DataError
from bankcast.evaluation import (
    choose_holdout,
    metrics,
    predict_city,
    run_coldstart,
    run_transfer,
    split_metrics,
)
from bankcast.model import Model, ModelConfig
from bankcast.retrieval import build_bank
from bankcast import model as model_module
from bankcast import training
from bankcast.training import TrainConfig


def small_city(seed=0, name="synthetic"):
    spec = SyntheticSpec(
        n_regions=14, d_c=8, n_archetypes=3, t_total=24 * 12 + 1, noise_scale=0.2, seed=seed
    )
    return generate_synthetic_city(spec, name=name)


def small_model_config(retrieval=True, **kw) -> ModelConfig:
    defaults = dict(
        d_c=8, window=24, horizon=24, d_g=6, d_z=5, hidden=12, head_blocks=2,
        gcn_layers=1, d_r=10, d_h=4, d_ec=6, d_ex=6, psi_hidden=12,
        retrieval_enabled=retrieval,
    )
    defaults.update(kw)
    return ModelConfig(**defaults)


def quick_train_config(seed=1, **kw) -> TrainConfig:
    defaults = dict(
        epochs=2, batch_size=16, learning_rate=1e-3, lambda_ret=0.2, k=3,
        temperature=0.1, n_inactive_per_batch=2, seed=seed, patience=0,
    )
    defaults.update(kw)
    return TrainConfig(**defaults)


class TestMetrics:
    def test_perfect(self):
        y = np.arange(12.0).reshape(3, 4)
        m = metrics(y, y)
        assert m.mae == 0.0 and m.rmse == 0.0 and m.r2 == 1.0

    def test_mean_predictor_r2_zero(self):
        y = np.array([1.0, 2.0, 3.0, 6.0])
        m = metrics(np.full_like(y, y.mean()), y)
        assert abs(m.r2) < 1e-12

    def test_hand_values(self):
        m = metrics(np.array([3.0, -4.0]), np.zeros(2))
        assert abs(m.mae - 3.5) < 1e-12
        assert abs(m.rmse - np.sqrt(12.5)) < 1e-12
        assert abs(m.rmse - 3.5355) < 1e-4

    def test_constant_target_r2_undefined(self):
        m = metrics(np.array([1.0, 2.0]), np.array([5.0, 5.0]))
        assert m.r2 is None
        assert m.mae > 0 and m.rmse >= m.mae

    def test_rmse_at_least_mae(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            p, t = rng.normal(size=50), rng.normal(size=50)
            m = metrics(p, t)
            assert m.rmse >= m.mae >= 0.0
            assert m.r2 <= 1.0

    def test_shape_mismatch(self):
        with pytest.raises(DataError):
            metrics(np.zeros(3), np.zeros(4))


class TestChooseHoldout:
    def test_seeded_and_sorted(self):
        a = choose_holdout(30, 10, seed=5)
        b = choose_holdout(30, 10, seed=5)
        assert a == b == sorted(a)
        assert len(set(a)) == 10

    def test_different_seeds_differ(self):
        assert choose_holdout(30, 10, 1) != choose_holdout(30, 10, 2)

    def test_too_few_regions(self):
        with pytest.raises(DataError):
            choose_holdout(10, 10, 1)


class TestColdstartProtocol:
    def run(self, retrieval=True, seed=1, **kw):
        city = small_city()
        return run_coldstart(
            city,
            quick_train_config(seed=seed, **kw),
            small_model_config(retrieval),
            n_holdout=3,
        ) + (city,)

    def test_holdout_not_in_bank(self):
        report, run, _, _, _ = self.run()
        holdout = set(run.model.holdout)
        assert run.bank is not None
        assert all(e.region_id not in holdout for e in run.bank.entries)

    def test_bank_anchors_from_train_only(self):
        report, run, _, _, city = self.run()
        windows = make_windows(city)
        tr, _, _ = split_windows(windows)
        max_anchor = max(i.t for i in tr)
        assert all(e.anchor <= max_anchor for e in run.bank.entries)

    def test_report_structure(self):
        report, run, preds, targets, city = self.run()
        assert report.protocol == "coldstart"
        assert len(report.holdout) == 3
        assert report.overall.rmse >= report.overall.mae
        assert set(report.per_region) == set(range(city.n_regions))
        assert preds.shape == targets.shape
        assert report.extras["prior_future_l2"] is not None
        # the within-run attribution: backbone-only minus fused MAE, same forward
        extras = report.extras
        assert extras["fusion_gain_coldstart_mae"] == extras["backbone_masked_mae"] - report.coldstart_only.mae
        assert extras["fusion_gain_observed_mae"] == extras["backbone_observed_mae"] - report.observed_only.mae

    def test_retrieval_disabled_equals_graph_only_everywhere(self):
        # beta frozen at 0 and no bank: the two ablation framings coincide
        r1, run1, p1, t1, _ = self.run(retrieval=False)
        city = small_city()
        cfg = quick_train_config(seed=1, lambda_ret=0.0)
        r2, run2, p2, t2 = run_coldstart(city, cfg, small_model_config(False), n_holdout=3)
        assert np.array_equal(p1, p2)
        assert r1.overall.mae == r2.overall.mae
        assert r1.extras["fusion_gain_coldstart_mae"] == r1.extras["fusion_gain_observed_mae"] == 0.0

    def test_r2_beats_train_mean_predictor(self):
        report, run, preds, targets, city = self.run(epochs=12, learning_rate=3e-3)
        assert report.overall.r2 is not None
        windows = make_windows(city)
        tr, _, _ = split_windows(windows)
        train_mean = float(np.mean([i.future for i in tr]))
        baseline = metrics(np.full_like(targets, train_mean), targets)
        assert report.overall.r2 >= baseline.r2

    def test_mask_honesty(self):
        # perturbing held-out region histories in the raw dataset changes nothing
        report, run, preds, _, city = self.run()
        city2 = small_city()
        city2.demand[:, run.model.holdout] += 77.0  # corrupt masked regions everywhere
        windows = make_windows(city2)
        _, _, test_inst = split_windows(windows)
        from bankcast.evaluation import predict_city

        preds2, _, _ = predict_city(
            run.model, city2, test_inst, run.model.holdout, run.bank, quick_train_config(seed=1)
        )
        # contexts identical, histories of masked regions zeroed before use
        assert np.array_equal(preds, preds2)

    def test_window_and_horizon_come_from_the_model_config(self):
        # a 12-step model on default 24-step windows used to fail inside a matmul
        city = small_city()
        report, run, preds, _ = run_coldstart(
            city, quick_train_config(epochs=1), small_model_config(window=12, horizon=12), n_holdout=3
        )
        train, _, test = split_windows(make_windows(city, 12, 12))
        assert preds.shape == (len(test), city.n_regions, 12)
        assert run.bank.anchors.max() <= train[-1].t
        assert report.config_echo["model"]["window"] == 12


def serving_setup(retrieval=True, bank_windows=None, bank_regions=None, n_test=21):
    """An untrained model whose fusion is switched on, a bank, and the
    first `n_test` test windows (of 49)."""
    city = small_city(seed=4)
    train, _, test = split_windows(make_windows(city))
    model = Model(small_model_config(retrieval), seed=3)
    model.set_norm(float(city.demand.mean()), float(city.demand.std()))
    rng = np.random.default_rng(5)
    model.fusion.scale.value = np.full((1, 1), 0.8)
    model.fusion.gate.value = rng.normal(0.0, 0.3, size=model.fusion.gate.value.shape)
    bank = None
    if retrieval:
        bank = build_bank(
            train[: bank_windows or len(train)], bank_regions or list(range(10)), city.contexts(),
            model.encode_entries, model.encoder_version(),
        )
    return model, city, test[:n_test], bank


SERVING_CASES = {
    "retrieval": dict(),
    "graph-only": dict(retrieval=False),
    # one region's entries from 7 windows: 7 hour buckets of one entry (fewer
    # than k = 3) and 17 empty ones
    "ragged": dict(bank_windows=7, bank_regions=[0]),
}


class TestPredictCity:
    masked = [1, 6, 11]

    @pytest.mark.parametrize("case", list(SERVING_CASES))
    def test_matches_per_instance_forward(self, case):
        model, city, instances, bank = serving_setup(**SERVING_CASES[case])
        tc = quick_train_config(batch_size=8)  # 21 windows: chunks of 8, 8 and 5
        preds, targets, extras = predict_city(
            model, city, instances, self.masked, bank, tc, collect_priors=True
        )
        assert preds.shape == targets.shape == (21, city.n_regions, 24)
        l2 = []
        for i, inst in enumerate(instances):
            view = masked_view(inst, self.masked)
            res = model.forward(
                city.contexts(), view.history, view.mask, view.hour, bank=bank, k=tc.k,
                temperature=tc.temperature,
            )
            want = model.denormalize(res.y_hat.value)
            assert np.abs(preds[i] - want).max() <= 1e-12 * np.abs(want).max(), i
            assert np.array_equal(targets[i], inst.future.T)
            l2 += [np.linalg.norm(r.prior - inst.future[:, j]) for j, r in enumerate(res.rows or []) if r.valid]
        assert extras["prior_count"] == len(l2)
        if l2:
            assert extras["prior_future_l2"] == pytest.approx(np.mean(l2), rel=1e-12)
        else:
            assert extras["prior_future_l2"] is None
        if case == "retrieval":
            assert len(l2) == 21 * city.n_regions
        if case == "ragged":
            assert 0 < len(l2) < 21 * city.n_regions

    def test_prefix_of_whole_chunks_reproduces_the_full_run(self):
        model, city, instances, bank = serving_setup()
        tc = quick_train_config(batch_size=8)
        full, _, _ = predict_city(model, city, instances, self.masked, bank, tc)
        prefix, _, _ = predict_city(model, city, instances[:16], self.masked, bank, tc)
        assert prefix.tobytes() == full[:16].tobytes()

    def test_subset_chunked_apart_from_the_full_run_gives_the_same_bytes(self, monkeypatch):
        """The benchmark's mask-honesty check compares a run over the first
        test windows with the first rows of the run over all of them. Hour
        order chunks the two apart: of 49 windows, hour 0 comes thrice and
        every other hour twice; the first 16 give each of hours 0-15 once.
        So no chunk is shared, and the stacked and the distinct-encoded rows
        differ; that a forecast's bytes still agree holds by test, not by
        construction."""
        model, city, instances, bank = serving_setup(n_test=49)
        tc = quick_train_config(batch_size=8)
        chunks, selected_rows = [], []
        forward_views, select = training._forward_views, model_module.select_top_batch

        def recording_forward(model, views, *args, **kwargs):
            chunks[-1].append(tuple(v.t for v in views))
            return forward_views(model, views, *args, **kwargs)

        def recording_select(bank, queries, *args):
            selected_rows[-1] += len(queries)
            return select(bank, queries, *args)

        monkeypatch.setattr(training, "_forward_views", recording_forward)
        monkeypatch.setattr(model_module, "select_top_batch", recording_select)
        runs = []
        for subset in (instances, instances[:16]):
            chunks.append([])
            selected_rows.append(0)
            runs.append(predict_city(model, city, subset, self.masked, bank, tc)[0])
        full, prefix = runs
        assert not set(chunks[0]) & set(chunks[1])
        assert selected_rows[1] == 16 * city.n_regions  # each window's hour once: nothing shared
        assert selected_rows[0] < 49 * city.n_regions
        assert prefix.tobytes() == full[:16].tobytes()

    def test_any_instance_order_gives_the_same_forecasts(self):
        """Chunks are drawn in (hour, anchor) order whatever the caller's
        order, and results come back in the caller's order."""
        model, city, instances, bank = serving_setup()
        tc = quick_train_config(batch_size=8)
        ordered, targets, extras = predict_city(
            model, city, instances, self.masked, bank, tc, collect_priors=True
        )
        perm = np.random.default_rng(0).permutation(len(instances))
        shuffled, shuffled_targets, shuffled_extras = predict_city(
            model, city, [instances[i] for i in perm], self.masked, bank, tc, collect_priors=True
        )
        for i, j in enumerate(perm):
            assert shuffled[i].tobytes() == ordered[j].tobytes(), i
        assert np.array_equal(shuffled_targets, targets[perm])
        assert shuffled_extras == extras

    @pytest.mark.parametrize("retrieval", [True, False])
    def test_backbone_mae_extras(self, retrieval):
        model, city, instances, bank = serving_setup(retrieval)
        tc = quick_train_config()
        preds, targets, extras = predict_city(
            model, city, instances, self.masked, bank, tc, collect_priors=True
        )
        observed = [i for i in range(city.n_regions) if i not in self.masked]
        backbone = []
        for inst in instances:
            view = masked_view(inst, self.masked)
            res = model.forward(city.contexts(), view.history, view.mask, view.hour)
            backbone.append(model.denormalize(res.y_tilde.value))
        backbone = np.stack(backbone)
        for name, regions in (("masked", self.masked), ("observed", observed)):
            want = np.abs(backbone[:, regions] - targets[:, regions]).mean()
            assert extras[f"backbone_{name}_mae"] == pytest.approx(want, rel=1e-12)
            fused = metrics(preds[:, regions], targets[:, regions]).mae
            if retrieval:
                assert fused != extras[f"backbone_{name}_mae"]  # the fusion moved the forecast
            else:
                assert fused == extras[f"backbone_{name}_mae"]


class TestTransferProtocol:
    def pair(self):
        spec = SyntheticSpec(
            n_regions=14, d_c=8, n_archetypes=3, t_total=24 * 12 + 1, noise_scale=0.2, seed=3
        )
        return make_transfer_pair(spec, target_seed=33)

    def test_bank_is_source_only(self):
        source, target = self.pair()
        report, run, _, _ = run_transfer(
            source, target, quick_train_config(), small_model_config(), n_holdout=3
        )
        src_windows = make_windows(source)
        tr, _, _ = split_windows(src_windows)
        valid_anchors = {i.t for i in tr}
        assert all(e.anchor in valid_anchors for e in run.bank.entries)
        assert report.extras["source_city"] == "source"
        assert report.extras["target_city"] == "target"
        assert report.extras["fusion_gain_coldstart_mae"] == (
            report.extras["backbone_masked_mae"] - report.coldstart_only.mae
        )

    def test_degenerate_transfer_matches_coldstart(self):
        source, _ = self.pair()
        cfg = quick_train_config(seed=2)
        rep_cold, _, preds_cold, _ = run_coldstart(
            source, cfg, small_model_config(), n_holdout=3
        )
        rep_tr, _, preds_tr, _ = run_transfer(
            source, source, cfg, small_model_config(), n_holdout=3
        )
        assert np.array_equal(preds_cold, preds_tr)
        assert rep_cold.overall.mae == rep_tr.overall.mae
        assert rep_cold.holdout == rep_tr.holdout
        # one report body: the same extras, down to the names of both cities
        assert rep_cold.extras == rep_tr.extras
        assert rep_cold.extras["source_city"] == rep_cold.extras["target_city"] == "source"

    def test_context_dim_mismatch_rejected(self):
        source, _ = self.pair()
        other = generate_synthetic_city(
            SyntheticSpec(n_regions=14, d_c=10, n_archetypes=3, t_total=24 * 12 + 1, seed=9)
        )
        with pytest.raises(DataError):
            run_transfer(source, other, quick_train_config(), small_model_config())


def test_split_metrics_partitions():
    rng = np.random.default_rng(1)
    preds = rng.normal(size=(5, 6, 4))
    targets = rng.normal(size=(5, 6, 4))
    overall, cold, obs, per_region = split_metrics(preds, targets, [1, 4], 6)
    assert set(per_region) == set(range(6))
    assert overall.mae == pytest.approx(np.abs(preds - targets).mean())
    assert cold.mae == pytest.approx(np.abs(preds[:, [1, 4]] - targets[:, [1, 4]]).mean())
