"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The heavy protocol runs (cold-start benefit, transfer benefit, retrieval-loss
ablation) share session-scoped fixtures so the whole suite stays inside the
stated wall-clock budgets. Everything is seeded; results are bit-reproducible
on a fixed build.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from bankcast.data import (
    ForecastInstance,
    SyntheticSpec,
    generate_synthetic_city,
    make_transfer_pair,
    make_windows,
    split_windows,
)
from bankcast.evaluation import predict_city, run_coldstart, run_transfer
from bankcast.gradcheck import grad_check
from bankcast.model import Model, ModelConfig
from bankcast.retrieval import MemoryBank, bank_entries, build_bank, retrieve
from bankcast.training import TrainConfig, instance_loss

SEEDS = (1, 2, 3)

# The benchmark city pinned by the cold-start criterion: 30 regions, 4
# archetypes, noise 0.3. The series length is sized for desk-scale runtime.
BENCH_SPEC = SyntheticSpec(
    n_regions=30, d_c=16, n_archetypes=4, t_total=24 * 50 + 47, noise_scale=0.3, seed=0
)
BENCH_EPOCHS = 16


def bench_train_config(seed: int, **kw) -> TrainConfig:
    defaults = dict(epochs=BENCH_EPOCHS, batch_size=16, seed=seed, patience=0)
    defaults.update(kw)
    return TrainConfig(**defaults)


def report_line(criterion: str, passed: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    if not passed:
        pytest.fail(f"{criterion}: {detail}")


# ---------------------------------------------------------------------------
# 1. gradient correctness on the full objective


def test_criterion_1_gradient_correctness():
    t0 = time.perf_counter()
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
        var.value = rng.normal(0.0, 0.3, size=var.value.shape)  # every path live
    windows = make_windows(city, 4, 4)
    contexts = city.contexts()
    # 6-entry bank: 2 train windows x 3 observable regions; keys fixed for the check
    bank = build_bank(windows[:2], [0, 1, 2], contexts, model.encode_entries, model.encoder_version())
    inst = windows[3]
    tc = TrainConfig(k=2, lambda_ret=0.2, temperature=0.1)

    def loss():
        total, _, _ = instance_loss(model, inst, contexts, [0, 1, 2, 3], [1], bank, tc)
        return total

    report = grad_check(loss, model.store, eps=1e-5, tol=1e-4)
    elapsed = time.perf_counter() - t0
    ok = report.passed and elapsed < 60.0
    report_line(
        "1 (gradient correctness)",
        ok,
        f"max rel err {report.max_rel_err:.2e} over {report.n_checked} coords "
        f"({len(model.store)} params) in {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 2. zero-init identity


def test_criterion_2_zero_init_identity():
    cfg = ModelConfig(
        d_c=8, window=12, horizon=8, d_g=6, d_z=5, hidden=12, head_blocks=2,
        gcn_layers=1, d_r=10, d_h=4, d_ec=6, d_ex=6, psi_hidden=12,
    )
    rng = np.random.default_rng(0)
    worst = 0.0
    for trial in range(100):
        model = Model(cfg, seed=trial)
        rows = [
            (
                rng.normal(size=cfg.d_c),
                rng.uniform(0, 10, size=cfg.window),
                rng.uniform(0, 10, size=cfg.horizon),
                int(rng.integers(0, 24)),
            )
            for _ in range(30)
        ]
        contexts, histories, futures, hours = map(np.array, zip(*rows))
        bank = MemoryBank(
            bank_entries(np.zeros(30), 100 + np.arange(30), hours, contexts, histories, futures)
        )
        model.refresh_bank(bank)
        n = int(rng.integers(2, 7))
        res = model.forward(
            rng.normal(size=(n, cfg.d_c)),
            rng.uniform(0, 10, size=(cfg.window, n)),
            (rng.uniform(size=n) > 0.4).astype(float),
            int(rng.integers(0, 24)),
            bank=bank,
            k=4,
            temperature=0.1,
        )
        worst = max(worst, float(np.abs(res.y_hat.value - res.y_tilde.value).max()))
    report_line(
        "2 (zero-init identity)", worst <= 1e-12,
        f"max |fused - backbone| = {worst:.2e} over 100 random instances",
    )


# ---------------------------------------------------------------------------
# 3. retrieval oracle equivalence at 5k entries


def brute_force(bank, query, hour, k, temperature, exclude):
    scored = []
    for idx, e in enumerate(bank.entries):
        if e.hour != hour:
            continue
        if exclude is not None and (e.anchor, e.region_id) == exclude:
            continue
        scored.append((-float(np.dot(bank.keys[idx], query)), idx))
    scored.sort()
    top = scored[:k]
    if not top:
        return [], np.empty(0), np.zeros(bank.horizon)
    scores = np.array([-s for s, _ in top])
    idxs = [i for _, i in top]
    z = (scores - scores.max()) / temperature
    w = np.exp(z)
    w /= w.sum()
    prior = np.zeros(bank.horizon)
    for wi, i in zip(w, idxs):
        prior += wi * bank.futures[i]
    return idxs, w, prior


def test_criterion_3_retrieval_oracle_equivalence():
    rng = np.random.default_rng(42)
    n_entries, d_r, horizon, k = 5000, 16, 6, 8
    rows = [(rng.uniform(0, 5, size=horizon), int(rng.integers(0, 24))) for _ in range(n_entries)]
    futures, hours = map(np.array, zip(*rows))
    i = np.arange(n_entries)
    bank = MemoryBank(
        bank_entries(
            i % 25, i // 25, hours, np.zeros((n_entries, 2)), np.zeros((n_entries, 3)), futures
        )
    )
    keys = rng.normal(size=(n_entries, d_r))
    keys /= np.linalg.norm(keys, axis=1, keepdims=True)
    # force exact score ties: clusters of identical keys
    for c in range(50):
        src = int(rng.integers(0, n_entries))
        for _ in range(3):
            keys[int(rng.integers(0, n_entries))] = keys[src]
    bank.install_keys(keys, "acceptance")

    worst_w, worst_p = 0.0, 0.0
    for trial in range(200):
        q = rng.normal(size=d_r)
        q /= np.linalg.norm(q)
        hour = int(rng.integers(0, 24))
        exclude = None
        if trial % 4 == 0:
            e = bank.entries[int(rng.integers(0, n_entries))]
            exclude = (e.anchor, e.region_id)
        row = retrieve(q, bank, hour, k, 0.1, exclude)
        idxs, w, prior = brute_force(bank, q, hour, k, 0.1, exclude)
        assert row.indices.tolist() == idxs, f"top-K set mismatch at trial {trial}"
        if row.valid:
            assert abs(row.weights.sum() - 1.0) < 1e-9
            assert all(bank.entries[i].hour == hour for i in row.indices)
            worst_w = max(worst_w, float(np.abs(row.weights - w).max()))
            worst_p = max(worst_p, float(np.abs(row.prior - prior).max()))
    report_line(
        "3 (retrieval oracle equivalence)", worst_w < 1e-12 and worst_p < 1e-12,
        f"200 queries vs 5k-entry scan: sets identical, max weight dev {worst_w:.1e}, "
        f"max prior dev {worst_p:.1e}",
    )


# ---------------------------------------------------------------------------
# 4. split fidelity (reference table counts)


def test_criterion_4_split_fidelity():
    def counts(n):
        z = np.zeros((1, 1))
        inst = [ForecastInstance(t=i, history=z, future=z, mask=np.ones(1), hour=0) for i in range(n)]
        tr, va, te = split_windows(inst, (0.6, 0.2, 0.2))
        return len(tr), len(va), len(te)

    ok = counts(4234) == (2540, 847, 847) and counts(4361) == (2617, 872, 872)
    report_line(
        "4 (split fidelity)", ok,
        f"4234 -> {counts(4234)}, 4361 -> {counts(4361)}",
    )


# ---------------------------------------------------------------------------
# 5-7. protocol benefit runs (shared fixtures)


@pytest.fixture(scope="session")
def bench_city():
    return generate_synthetic_city(BENCH_SPEC, name="bench")


@pytest.fixture(scope="session")
def coldstart_runs(bench_city):
    out = {}
    t0 = time.perf_counter()
    for seed in SEEDS:
        tc = bench_train_config(seed)
        full, _, _, _ = run_coldstart(bench_city, tc)
        graph_only, _, _, _ = run_coldstart(
            bench_city, tc, model_config=ModelConfig(d_c=bench_city.d_c, retrieval_enabled=False)
        )
        out[seed] = (full, graph_only)
    out["elapsed"] = time.perf_counter() - t0
    return out


def test_criterion_5_coldstart_benefit(coldstart_runs):
    full = np.mean([coldstart_runs[s][0].coldstart_only.mae for s in SEEDS])
    graph = np.mean([coldstart_runs[s][1].coldstart_only.mae for s in SEEDS])
    gap = (graph - full) / graph
    elapsed = coldstart_runs["elapsed"]
    ok = gap >= 0.02 and elapsed < 600.0
    report_line(
        "5 (single-city cold-start benefit)", ok,
        f"cold-start MAE {full:.4f} (retrieval) vs {graph:.4f} (graph-only), "
        f"gap {100 * gap:.2f}% (need >= 2%), {elapsed:.0f}s (budget 600s)",
    )


@pytest.fixture(scope="session")
def transfer_city_pair():
    return make_transfer_pair(BENCH_SPEC, target_seed=1000, names=("bench-src", "bench-tgt"))


@pytest.fixture(scope="session")
def transfer_runs(transfer_city_pair):
    """Transfer arms per seed: retrieval (lambda=0.2), no-ret-loss (lambda=0), graph-only.

    The lambda arms double as the retrieval-loss ablation; validation-split
    prior quality is collected for criterion 7.
    """
    source, target = transfer_city_pair
    out = {}
    t0 = time.perf_counter()
    for seed in SEEDS:
        tc = bench_train_config(seed)
        arms = {}
        rep, run, _, _ = run_transfer(source, target, tc)
        val_rep, _, _, _ = run_transfer(source, target, tc, run=run, eval_split="val")
        arms["ret"] = {"test": rep, "val_prior_l2": val_rep.extras["prior_future_l2"]}
        rep0, run0, _, _ = run_transfer(source, target, replace(tc, lambda_ret=0.0))
        val_rep0, _, _, _ = run_transfer(
            source, target, replace(tc, lambda_ret=0.0), run=run0, eval_split="val"
        )
        arms["no_ret_loss"] = {"test": rep0, "val_prior_l2": val_rep0.extras["prior_future_l2"]}
        rep_g, _, _, _ = run_transfer(
            source, target, tc, model_config=ModelConfig(d_c=source.d_c, retrieval_enabled=False)
        )
        arms["graph_only"] = {"test": rep_g}
        out[seed] = arms
    out["elapsed"] = time.perf_counter() - t0
    return out


def test_criterion_6_transfer_benefit(transfer_runs):
    full = np.mean([transfer_runs[s]["ret"]["test"].overall.rmse for s in SEEDS])
    graph = np.mean([transfer_runs[s]["graph_only"]["test"].overall.rmse for s in SEEDS])
    elapsed = transfer_runs["elapsed"]
    ok = full < graph and elapsed < 900.0
    report_line(
        "6 (cross-city transfer benefit)", ok,
        f"transfer RMSE {full:.4f} (retrieval) vs {graph:.4f} (graph-only), "
        f"{elapsed:.0f}s (budget 900s)",
    )


def test_criterion_7_retrieval_loss_ablation(transfer_runs):
    with_l = np.mean([transfer_runs[s]["ret"]["val_prior_l2"] for s in SEEDS])
    without = np.mean([transfer_runs[s]["no_ret_loss"]["val_prior_l2"] for s in SEEDS])
    ok = with_l < without
    report_line(
        "7 (retrieval-loss ablation)", ok,
        f"val prior-to-future L2 {with_l:.4f} (lambda=0.2) vs {without:.4f} (lambda=0)",
    )


# ---------------------------------------------------------------------------
# 8. end-to-end reproducibility


def test_criterion_8_reproducibility(tmp_path):
    import json
    import shutil

    from bankcast.cli import main as cli_main

    base = tmp_path / "run"
    cfg = {
        "protocol": "coldstart",
        "seeds": [1],
        "n_holdout": 3,
        "paths": {
            "dataset": str(base / "source.json"),
            "dataset_target": str(base / "target.json"),
            "checkpoint": str(base / "checkpoint.json"),
            "bank": str(base / "bank.bin"),
            "report_dir": str(base / "runs"),
        },
        "synthetic": {
            "n_regions": 10, "d_c": 8, "n_archetypes": 3,
            "t_total": 24 * 8 + 1, "noise_scale": 0.2, "seed": 5,
        },
        "model": {
            "d_g": 6, "d_z": 5, "hidden": 12, "head_blocks": 2,
            "d_r": 10, "d_h": 4, "d_ec": 6, "d_ex": 6, "psi_hidden": 12,
        },
        "train": {"epochs": 2, "k": 3, "n_inactive_per_batch": 2, "patience": 0},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))

    def one_round() -> tuple[bytes, bytes, str]:
        if base.exists():
            shutil.rmtree(base)
        assert cli_main(["--config", str(cfg_path), "generate"]) == 0
        assert cli_main(["--config", str(cfg_path), "train"]) == 0
        assert cli_main(["--config", str(cfg_path), "eval"]) == 0
        report = (base / "runs" / "seed_1" / "report.json").read_bytes()
        checkpoint = (base / "checkpoint.json").read_bytes()
        log_lines = (base / "runs" / "training_log.csv").read_text().splitlines()
        # the seconds column is wall-clock by definition; all other columns
        # must reproduce bit for bit
        det = "\n".join(",".join(line.split(",")[:-1]) for line in log_lines)
        return report, checkpoint, det

    r1, c1, l1 = one_round()
    r2, c2, l2 = one_round()
    ok = (r1 == r2) and (c1 == c2) and (l1 == l2)
    report_line(
        "8 (reproducibility)", ok,
        "two identical-config rounds: eval reports and checkpoints byte-identical; "
        "training logs identical in all deterministic columns",
    )


# ---------------------------------------------------------------------------
# 9. mask honesty


def test_criterion_9_mask_honesty(bench_city):
    tc = bench_train_config(1, epochs=1)
    report, run, _, _ = run_coldstart(bench_city, tc)
    windows = make_windows(bench_city)
    _, _, test_inst = split_windows(windows)
    rng = np.random.default_rng(3)
    pick = rng.choice(len(test_inst), size=20, replace=False)
    instances = [test_inst[i] for i in pick]
    base_preds, _, _ = predict_city(run.model, bench_city, instances, run.holdout, run.bank, tc)

    tampered = generate_synthetic_city(BENCH_SPEC, name="bench")
    tampered.demand[:, run.holdout] = rng.uniform(0, 500, size=tampered.demand[:, run.holdout].shape)
    windows_t = make_windows(tampered)
    _, _, test_t = split_windows(windows_t)
    instances_t = [test_t[i] for i in pick]
    tampered_preds, _, _ = predict_city(
        run.model, tampered, instances_t, run.holdout, run.bank, tc
    )
    ok = np.array_equal(base_preds, tampered_preds)
    report_line(
        "9 (mask honesty)", ok,
        "predictions bit-identical after rewriting masked regions' raw histories "
        f"on {len(instances)} instances",
    )
