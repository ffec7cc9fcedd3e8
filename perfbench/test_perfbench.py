"""Tests of the benchmark itself: tiny runs of every workload, and checks that bite.

Run from the repository root with `python -m pytest perfbench -q`.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import workloads
from bankcast import autodiff, evaluation, model
from checks import CheckFailed

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_declared_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)


# ---------------------------------------------------------------------------
# tiny end-to-end runs through the command line


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_run_prints_every_metric(workload, trace, tmp_path):
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
        "--seconds", "0.2", "--trace", str(trace), "--size", "tiny", "--out", str(tmp_path),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(np.isfinite(m["value"]) for m in result["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    # the temporary artifacts are gone, the result file stays
    assert [p.name for p in tmp_path.iterdir() if p.name.startswith("tmp-")] == []
    assert (tmp_path / f"result-{workload}-seed3-trace{trace}.json").is_file()


def test_same_seed_same_inputs():
    a = workloads.coldstart_setup(5, workloads.TINY, retrieval_enabled=True)
    b = workloads.coldstart_setup(5, workloads.TINY, retrieval_enabled=True)
    c = workloads.coldstart_setup(6, workloads.TINY, retrieval_enabled=True)
    assert np.array_equal(a.city.demand, b.city.demand) and a.holdout == b.holdout
    assert not np.array_equal(a.city.demand, c.city.demand)


# ---------------------------------------------------------------------------
# injected program faults make the matching workload check fail


def run_tiny(workload, tmp_path):
    return workloads.run_workload(workload, 4, 0.0, workloads.TINY, tmp_path, None)


def test_reordered_topk_fails_the_oracle(tmp_path, monkeypatch):
    select = model.select_top_batch

    def reversed_topk(*args, **kwargs):
        return [(idx[::-1], scores[::-1]) for idx, scores in select(*args, **kwargs)]

    monkeypatch.setattr(model, "select_top_batch", reversed_topk)
    outcome = run_tiny("transfer-serve", tmp_path)
    assert outcome.checks["topk_oracle"] != "ok"
    assert not outcome.correct


def test_leaky_mask_fails_mask_honesty(tmp_path, monkeypatch):
    monkeypatch.setattr(evaluation, "masked_view", lambda instance, inactive: instance)
    outcome = run_tiny("coldstart-graph", tmp_path)
    assert outcome.checks["mask_honesty"] != "ok"


def test_wrong_backward_fails_the_gradient_check(tmp_path, monkeypatch):
    relu = autodiff.relu

    def relu_with_wrong_gradient(a):
        out = relu(a)
        parent = out._parents[0]
        out._backward = lambda g: autodiff._accum(parent, g)  # ignores the mask
        return out

    monkeypatch.setattr(autodiff, "relu", relu_with_wrong_gradient)
    outcome = run_tiny("coldstart-graph", tmp_path)
    assert outcome.checks["gradient"] != "ok"


# ---------------------------------------------------------------------------
# each check rejects a deliberately wrong result


@pytest.fixture
def bucket():
    rng = np.random.default_rng(0)
    keys = rng.normal(size=(40, 5))
    keys /= np.linalg.norm(keys, axis=1, keepdims=True)
    hours = np.arange(40) % 4
    futures = rng.normal(size=(40, 3))
    query = keys[6] + 0.1 * rng.normal(size=5)
    return keys, hours, futures, query


def row_for(idx, scores, futures, temperature=0.1):
    z = (scores - scores.max()) / temperature
    w = np.exp(z) / np.exp(z).sum()
    return idx, w, w @ futures[idx]


def test_topk_check_accepts_the_scan_and_rejects_changes(bucket):
    keys, hours, futures, query = bucket
    idx, scores = checks.brute_force_topk(keys, hours, query, hour=2, k=4)
    assert np.all(hours[idx] == 2) and np.all(np.diff(scores) <= 0)
    good = row_for(idx, scores, futures)
    checks.check_retrieval_row(*good, idx, scores, futures, 0.1)

    reordered = (idx[[1, 0, 2, 3]], good[1], good[2])
    with pytest.raises(CheckFailed, match="top-K"):
        checks.check_retrieval_row(*reordered, idx, scores, futures, 0.1)
    wrong_weights = (idx, good[1] * 1.001, good[2])
    with pytest.raises(CheckFailed, match="weights"):
        checks.check_retrieval_row(*wrong_weights, idx, scores, futures, 0.1)
    wrong_prior = (idx, good[1], good[2] + 1e-6)
    with pytest.raises(CheckFailed, match="prior"):
        checks.check_retrieval_row(*wrong_prior, idx, scores, futures, 0.1)


def test_topk_scan_breaks_ties_to_the_smaller_index_and_honours_exclusion(bucket):
    keys, hours, futures, query = bucket
    tied = keys.copy()
    tied[[10, 30]] = tied[2]  # three identical keys in hour bucket 2
    idx, _ = checks.brute_force_topk(tied, hours, tied[2], hour=2, k=3)
    assert list(idx) == [2, 10, 30]
    idx, _ = checks.brute_force_topk(tied, hours, tied[2], hour=2, k=3, excluded=10)
    assert list(idx[:2]) == [2, 30]
    with pytest.raises(CheckFailed):
        checks.check_retrieval_row(*row_for(np.array([10, 2, 30]), np.ones(3), futures),
                                   np.array([2, 10, 30]), np.ones(3), futures, 0.1)


def test_metrics_check_rejects_perturbed_predictions_and_wrong_targets():
    rng = np.random.default_rng(1)
    demand = rng.uniform(0, 10, size=(60, 4))
    anchors = [20, 21, 22]
    targets = checks.expected_targets(demand, anchors, 5)
    assert np.array_equal(targets[1, 2], demand[22:27, 2])
    preds = targets + rng.normal(size=targets.shape)
    m = evaluation.metrics(preds[:, [1, 3]], targets[:, [1, 3]])
    checks.check_metrics(preds, targets, targets, [1, 3], m.mae, m.rmse)

    perturbed = preds.copy()
    perturbed[0, 1, 0] += 0.5
    with pytest.raises(CheckFailed, match="MAE"):
        checks.check_metrics(perturbed, targets, targets, [1, 3], m.mae, m.rmse)
    shifted = checks.expected_targets(demand, [a + 1 for a in anchors], 5)
    with pytest.raises(CheckFailed, match="targets"):
        checks.check_metrics(preds, shifted, targets, [1, 3], m.mae, m.rmse)


def test_bit_identity_checks_reject_one_ulp():
    a = np.linspace(0.0, 1.0, 7)
    b = a.copy()
    b[3] = np.nextafter(b[3], 2.0)
    checks.check_bit_identical(a, a.copy(), "same")
    with pytest.raises(CheckFailed):
        checks.check_bit_identical(a, b, "mask honesty")
    with pytest.raises(CheckFailed):
        checks.check_fused_is_backbone(b, a)
    with pytest.raises(CheckFailed):
        checks.check_round_trip({"w": a}, {"w": b}, "checkpoint")
    with pytest.raises(CheckFailed):
        checks.check_round_trip({"w": a}, {"v": a}, "checkpoint")


def test_hour_of_day_baseline_and_its_check():
    hours = np.arange(96) % 24
    demand = np.tile(np.arange(24.0), 4)[:, None] * np.array([1.0, 3.0])[None, :]
    fc = checks.hour_of_day_forecast(demand, hours, [0, 1], 48, [50], 4)
    assert np.allclose(fc[0], 2.0 * hours[51:55])
    checks.check_beats_baseline(1.0, 1.5)
    with pytest.raises(CheckFailed):
        checks.check_beats_baseline(1.5, 1.5)


def test_bank_contents_check_rejects_leaks_and_gaps():
    train_anchors, observable, holdout = [23, 24, 25], [0, 2], [1]
    pairs = [(t, r) for t in train_anchors for r in observable]
    anchors = np.array([t for t, _ in pairs])
    regions = np.array([r for _, r in pairs])
    checks.check_bank_contents(regions, anchors, train_anchors, observable, holdout)
    with pytest.raises(CheckFailed, match="held-out"):
        checks.check_bank_contents(np.where(regions == 2, 1, regions), anchors, train_anchors, observable, holdout)
    with pytest.raises(CheckFailed, match="past the train split"):
        checks.check_bank_contents(regions, anchors + 1, train_anchors, observable, holdout)
    with pytest.raises(CheckFailed, match="entries"):
        checks.check_bank_contents(regions[:-1], anchors[:-1], train_anchors, observable, holdout)
    duplicated = anchors.copy()
    duplicated[0] = duplicated[2]
    with pytest.raises(CheckFailed, match="pairs"):
        checks.check_bank_contents(regions, duplicated, train_anchors, observable, holdout)


def test_keys_check_rejects_stale_and_unnormalised_keys():
    rng = np.random.default_rng(2)
    keys = rng.normal(size=(6, 4))
    keys /= np.linalg.norm(keys, axis=1, keepdims=True)
    checks.check_keys(keys, keys.copy())
    stale = keys.copy()
    stale[2] = keys[3]
    with pytest.raises(CheckFailed, match="re-encoding"):
        checks.check_keys(stale, keys)
    with pytest.raises(CheckFailed, match="unit-norm"):
        checks.check_keys(2.0 * keys, 2.0 * keys)


def test_gradient_and_loss_checks_reject_wrong_values():
    checks.check_gradients([("w[0]", 0.5, 0.5 + 1e-9), ("w[1]", 1e-6, 1e-6 + 1e-12)])
    with pytest.raises(CheckFailed, match="gradient"):
        checks.check_gradients([("w[0]", 0.5, 0.5), ("w[1]", 1e-6, 2e-6)])
    with pytest.raises(CheckFailed):
        checks.check_gradients([])
    checks.check_loss_curve([0.9, 0.7], [3.0, 2.9])
    with pytest.raises(CheckFailed, match="did not fall"):
        checks.check_loss_curve([0.7, 0.9], [3.0, 2.9])
    with pytest.raises(CheckFailed, match="finite"):
        checks.check_loss_curve([0.9, 0.7], [3.0, float("nan")])
