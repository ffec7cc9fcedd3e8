"""Correctness checks on what a workload produced.

Each check takes plain arrays, compares them against a computation of its own
or against a property the method must have, and raises `CheckFailed` with a
one-line reason when they disagree. The workloads gather the arrays; the
benchmark's tests feed the same checks deliberately wrong arrays.
"""

from __future__ import annotations

import numpy as np


class CheckFailed(Exception):
    """A workload produced a result the method does not allow."""


def _fail_unless(ok: bool, reason: str) -> None:
    if not ok:
        raise CheckFailed(reason)


def _close(a, b, rtol: float, atol: float) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and bool(np.allclose(a, b, rtol=rtol, atol=atol))


# ---------------------------------------------------------------------------
# retrieval


def brute_force_topk(
    keys: np.ndarray,
    entry_hours: np.ndarray,
    query: np.ndarray,
    hour: int,
    k: int,
    excluded: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Scan every entry of the query's hour bucket; ties go to the smaller index."""
    cand = np.flatnonzero(entry_hours == hour)
    if excluded is not None:
        cand = cand[cand != excluded]
    scores = np.array([float(keys[i] @ query) for i in cand])
    order = np.lexsort((cand, -scores))[:k]
    return cand[order], scores[order]


def check_retrieval_row(
    indices: np.ndarray,
    weights: np.ndarray,
    prior: np.ndarray,
    expected_indices: np.ndarray,
    expected_scores: np.ndarray,
    futures: np.ndarray,
    temperature: float,
) -> None:
    """Top-K indices match the scan; weights are softmax(score/T); prior is weights x futures."""
    _fail_unless(
        np.array_equal(np.asarray(indices), expected_indices),
        f"top-K {list(indices)} differs from the brute-force scan {list(expected_indices)}",
    )
    z = (expected_scores - expected_scores.max()) / temperature
    expected_weights = np.exp(z) / np.exp(z).sum()
    _fail_unless(
        _close(weights, expected_weights, rtol=1e-9, atol=1e-12),
        "retrieval weights differ from softmax(score / T)",
    )
    _fail_unless(
        _close(prior, expected_weights @ futures[expected_indices], rtol=1e-9, atol=1e-9),
        "retrieval prior differs from the weighted stored futures",
    )


# ---------------------------------------------------------------------------
# evaluation


def expected_targets(demand: np.ndarray, anchors: list[int], horizon: int) -> np.ndarray:
    """(instances, regions, H) futures sliced straight from the demand matrix."""
    return np.stack([demand[t + 1 : t + 1 + horizon].T for t in anchors])


def check_metrics(
    preds: np.ndarray,
    targets: np.ndarray,
    sliced_targets: np.ndarray,
    regions: list[int],
    reported_mae: float,
    reported_rmse: float,
) -> None:
    """Targets equal the demand slices; MAE and RMSE equal a recomputation from raw values."""
    _fail_unless(
        targets.shape == sliced_targets.shape and np.array_equal(targets, sliced_targets),
        "forecast targets differ from the demand matrix",
    )
    err = preds[:, regions] - sliced_targets[:, regions]
    mae = float(np.mean(np.abs(err)))
    rmse = float(np.sqrt(np.mean(err * err)))
    _fail_unless(
        np.isclose(reported_mae, mae, rtol=1e-12, atol=0.0),
        f"reported MAE {reported_mae!r} differs from the recomputed {mae!r}",
    )
    _fail_unless(
        np.isclose(reported_rmse, rmse, rtol=1e-12, atol=0.0),
        f"reported RMSE {reported_rmse!r} differs from the recomputed {rmse!r}",
    )


def check_bit_identical(a: np.ndarray, b: np.ndarray, what: str) -> None:
    _fail_unless(
        a.shape == b.shape and a.tobytes() == b.tobytes(), f"{what}: arrays are not bit-identical"
    )


def hour_of_day_forecast(
    demand: np.ndarray,
    hour_of_interval: np.ndarray,
    observable: list[int],
    train_end: int,
    anchors: list[int],
    horizon: int,
) -> np.ndarray:
    """(instances, H) forecast: the mean observable train demand at each hour of day."""
    block = demand[:train_end][:, observable]
    hours = hour_of_interval[:train_end]
    by_hour = np.array([block[hours == h].mean() for h in range(24)])
    return np.stack([by_hour[hour_of_interval[t + 1 : t + 1 + horizon]] for t in anchors])


def check_beats_baseline(model_mae: float, baseline_mae: float) -> None:
    _fail_unless(
        model_mae < baseline_mae,
        f"cold-start MAE {model_mae:.4f} is not below the hour-of-day mean's {baseline_mae:.4f}",
    )


def check_fused_is_backbone(fused: np.ndarray, backbone: np.ndarray) -> None:
    check_bit_identical(fused, backbone, "graph-only fused forecast vs backbone forecast")


# ---------------------------------------------------------------------------
# bank and artifacts


def check_bank_contents(
    region_ids: np.ndarray,
    anchors: np.ndarray,
    train_anchors: list[int],
    observable: list[int],
    holdout: list[int],
) -> None:
    """Exactly one entry per (train window, observable region), nothing else."""
    expected = len(train_anchors) * len(observable)
    _fail_unless(len(region_ids) == expected, f"bank holds {len(region_ids)} entries, expected {expected}")
    held = set(holdout) & set(np.asarray(region_ids).tolist())
    _fail_unless(not held, f"bank holds entries of held-out regions {sorted(held)}")
    _fail_unless(
        int(np.max(anchors)) <= max(train_anchors),
        f"bank holds anchor {int(np.max(anchors))} past the train split",
    )
    got = sorted(zip(np.asarray(anchors).tolist(), np.asarray(region_ids).tolist()))
    want = sorted((t, r) for t in train_anchors for r in observable)
    _fail_unless(got == want, "bank entries are not the (train window, observable region) pairs")


def check_keys(keys: np.ndarray, fresh: np.ndarray) -> None:
    """Installed keys equal a fresh re-encoding and have unit norm."""
    check_bit_identical(keys, fresh, "bank keys vs a fresh re-encoding")
    norms = np.linalg.norm(keys, axis=1)
    _fail_unless(bool(np.all(np.abs(norms - 1.0) <= 1e-12)), "bank keys are not unit-norm")


def check_round_trip(saved: dict[str, np.ndarray], loaded: dict[str, np.ndarray], what: str) -> None:
    """Every array survives save + load bit for bit."""
    _fail_unless(saved.keys() == loaded.keys(), f"{what}: loaded names differ from saved ones")
    for name in saved:
        a, b = np.asarray(saved[name]), np.asarray(loaded[name])
        _fail_unless(
            a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes(),
            f"{what}: {name} changed in the round trip",
        )


# ---------------------------------------------------------------------------
# training


def gradient_error(analytic: float, numeric: float) -> float:
    return abs(analytic - numeric) / max(1e-3, abs(analytic), abs(numeric))


GRADIENT_TOL = 1e-5


def check_gradients(pairs: list[tuple[str, float, float]]) -> None:
    """(coordinate, analytic, central difference) triples agree to GRADIENT_TOL."""
    _fail_unless(bool(pairs), "no gradient coordinate was checked")
    worst = max(pairs, key=lambda p: gradient_error(p[1], p[2]))
    err = gradient_error(worst[1], worst[2])
    _fail_unless(
        err <= GRADIENT_TOL,
        f"gradient of {worst[0]} is {worst[1]!r}, central difference {worst[2]!r} (error {err:.2e})",
    )


def check_loss_curve(train_losses: list[float], val_maes: list[float]) -> None:
    values = np.asarray(list(train_losses) + list(val_maes), dtype=np.float64)
    _fail_unless(bool(np.all(np.isfinite(values))), "a training loss or validation MAE is not finite")
    _fail_unless(
        len(train_losses) >= 2 and train_losses[-1] < train_losses[0],
        f"training loss did not fall: {list(train_losses)}",
    )
