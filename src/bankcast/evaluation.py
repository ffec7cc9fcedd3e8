"""Metrics and the two evaluation protocols.

Single-city cold-start: 10 seeded regions are held out of training entirely
(no histories, no supervision, no bank entries); at test time the graph covers
all regions with held-out histories zero-masked. Cross-city transfer: the same
training recipe runs on a source city, then the model and its source-built
bank are evaluated unchanged on a target city with 10 seeded target regions
masked. Metrics are computed on raw (de-normalized) demand, flattened over
instances, regions, and horizon steps.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .data import (
    CityDataset,
    ForecastInstance,
    make_windows,
    masked_view,
    split_windows,
)
from .errors import DataError
from .model import Model, ModelConfig
from .retrieval import MemoryBank
from .training import TrainConfig, TrainResult, train


@dataclass
class Metrics:
    mae: float
    rmse: float
    r2: float | None  # None marks undefined (zero-variance targets)

    def as_dict(self) -> dict:
        return {"mae": self.mae, "rmse": self.rmse, "r2": self.r2}


def metrics(pred: np.ndarray, target: np.ndarray) -> Metrics:
    """MAE, RMSE, R^2 over flattened raw values; R^2 undefined for constant targets."""
    pred = np.asarray(pred, dtype=np.float64).reshape(-1)
    target = np.asarray(target, dtype=np.float64).reshape(-1)
    if pred.shape != target.shape:
        raise DataError(f"metrics shape mismatch: {pred.shape} vs {target.shape}")
    err = pred - target
    mae = float(np.abs(err).mean())
    rmse = float(np.sqrt((err * err).mean()))
    ss_tot = float(((target - target.mean()) ** 2).sum())
    if ss_tot == 0.0:
        return Metrics(mae=mae, rmse=rmse, r2=None)
    r2 = 1.0 - float((err * err).sum()) / ss_tot
    return Metrics(mae=mae, rmse=rmse, r2=r2)


@dataclass
class EvalReport:
    protocol: str
    seed: int
    holdout: list[int]
    overall: Metrics
    coldstart_only: Metrics
    observed_only: Metrics
    per_region: dict[int, Metrics]
    extras: dict
    config_echo: dict

    def as_dict(self) -> dict:
        return {
            "protocol": self.protocol,
            "seed": self.seed,
            "holdout": self.holdout,
            "overall": self.overall.as_dict(),
            "coldstart_only": self.coldstart_only.as_dict(),
            "observed_only": self.observed_only.as_dict(),
            "per_region": {str(k): v.as_dict() for k, v in self.per_region.items()},
            "extras": self.extras,
            "config_echo": self.config_echo,
        }


def choose_holdout(n_regions: int, n_holdout: int, seed: int) -> list[int]:
    """Seeded cold-start region choice, fixed across train and test of one experiment."""
    if n_regions <= n_holdout:
        raise DataError(f"need more than {n_holdout} regions, got {n_regions}")
    rng = np.random.default_rng(seed)
    return sorted(rng.choice(n_regions, size=n_holdout, replace=False).tolist())


def default_model_config(city: CityDataset, window: int, horizon: int, **overrides) -> ModelConfig:
    return ModelConfig(d_c=city.d_c, window=window, horizon=horizon, **overrides)


@dataclass
class ProtocolRun:
    model: Model
    bank: MemoryBank | None
    train_result: TrainResult
    holdout: list[int]
    observable: list[int]


def train_for_protocol(
    city: CityDataset,
    train_config: TrainConfig,
    model_config: ModelConfig,
    n_holdout: int = 10,
    ratios: tuple[float, float, float] = (0.6, 0.2, 0.2),
    window: int = 24,
    horizon: int = 24,
) -> ProtocolRun:
    """The shared single-city training phase: hold out cold-start regions, train the rest."""
    holdout = choose_holdout(city.n_regions, n_holdout, train_config.seed)
    observable = [i for i in range(city.n_regions) if i not in set(holdout)]
    windows = make_windows(city, window, horizon)
    train_inst, val_inst, _ = split_windows(windows, ratios)
    model = Model(model_config, seed=train_config.seed)
    model.holdout = holdout
    result = train(model, city, observable, train_inst, val_inst, train_config)
    return ProtocolRun(
        model=model,
        bank=result.bank,
        train_result=result,
        holdout=holdout,
        observable=observable,
    )


def predict_city(
    model: Model,
    city: CityDataset,
    instances: list[ForecastInstance],
    masked_regions: list[int],
    bank: MemoryBank | None,
    train_config: TrainConfig,
    collect_priors: bool = False,
) -> tuple[np.ndarray, np.ndarray, dict]:
    """Raw predictions/targets of shape (n_instances, N, H) over the full region graph."""
    contexts = city.contexts()
    preds, targets = [], []
    prior_l2_sum, prior_count = 0.0, 0
    for inst in instances:
        masked = masked_view(inst, masked_regions)
        res = model.forward(
            contexts,
            masked.history,
            masked.mask,
            masked.hour,
            bank=bank,
            k=train_config.k,
            temperature=train_config.temperature,
        )
        preds.append(model.denormalize(res.y_hat.value))
        targets.append(inst.future.T)
        if collect_priors and res.rows is not None:
            for i, row in enumerate(res.rows):
                if row.valid:
                    prior_l2_sum += float(np.linalg.norm(row.prior - inst.future[:, i]))
                    prior_count += 1
    extras = {}
    if collect_priors:
        extras["prior_future_l2"] = prior_l2_sum / prior_count if prior_count else None
        extras["prior_count"] = prior_count
    return np.stack(preds), np.stack(targets), extras


def split_metrics(
    preds: np.ndarray, targets: np.ndarray, holdout: list[int], n_regions: int
) -> tuple[Metrics, Metrics, Metrics, dict[int, Metrics]]:
    observed = [i for i in range(n_regions) if i not in set(holdout)]
    overall = metrics(preds, targets)
    cold = metrics(preds[:, holdout], targets[:, holdout])
    obs = metrics(preds[:, observed], targets[:, observed])
    per_region = {i: metrics(preds[:, i], targets[:, i]) for i in range(n_regions)}
    return overall, cold, obs, per_region


def run_coldstart(
    city: CityDataset,
    train_config: TrainConfig,
    model_config: ModelConfig | None = None,
    n_holdout: int = 10,
    ratios: tuple[float, float, float] = (0.6, 0.2, 0.2),
    window: int = 24,
    horizon: int = 24,
    run: ProtocolRun | None = None,
) -> tuple[EvalReport, ProtocolRun, np.ndarray, np.ndarray]:
    """Train with held-out cold-start regions, evaluate on the full graph at test time."""
    if model_config is None:
        model_config = default_model_config(city, window, horizon)
    if run is None:
        run = train_for_protocol(
            city, train_config, model_config, n_holdout, ratios, window, horizon
        )
    _assert_bank_from_train_split(run.bank, city, ratios, window, horizon)
    windows = make_windows(city, window, horizon)
    _, _, test_inst = split_windows(windows, ratios)
    preds, targets, extras = predict_city(
        run.model, city, test_inst, run.holdout, run.bank, train_config, collect_priors=True
    )
    overall, cold, obs, per_region = split_metrics(
        preds, targets, run.holdout, city.n_regions
    )
    report = EvalReport(
        protocol="coldstart",
        seed=train_config.seed,
        holdout=run.holdout,
        overall=overall,
        coldstart_only=cold,
        observed_only=obs,
        per_region=per_region,
        extras={
            **extras,
            "best_epoch": run.train_result.best_epoch,
            "best_val_mae": run.train_result.best_val_mae,
            "retrieval_enabled": run.model.config.retrieval_enabled,
        },
        config_echo={"train": asdict(train_config), "model": asdict(run.model.config)},
    )
    return report, run, preds, targets


def run_transfer(
    source_city: CityDataset,
    target_city: CityDataset,
    train_config: TrainConfig,
    model_config: ModelConfig | None = None,
    n_holdout: int = 10,
    ratios: tuple[float, float, float] = (0.6, 0.2, 0.2),
    window: int = 24,
    horizon: int = 24,
    run: ProtocolRun | None = None,
    eval_split: str = "test",
) -> tuple[EvalReport, ProtocolRun, np.ndarray, np.ndarray]:
    """Pretrain on the source city, evaluate unchanged on the target city.

    Retrieval candidates all come from the source-city bank; no target
    fine-tuning happens. `eval_split` selects the target windows ("test" or
    "val" for ablation diagnostics).
    """
    if source_city.d_c != target_city.d_c:
        raise DataError(
            f"context dimensions differ: source {source_city.d_c}, target {target_city.d_c}"
        )
    if model_config is None:
        model_config = default_model_config(source_city, window, horizon)
    if run is None:
        run = train_for_protocol(
            source_city, train_config, model_config, n_holdout, ratios, window, horizon
        )
    _assert_bank_from_train_split(run.bank, source_city, ratios, window, horizon)
    holdout_target = choose_holdout(target_city.n_regions, n_holdout, train_config.seed)
    windows = make_windows(target_city, window, horizon)
    train_w, val_w, test_w = split_windows(windows, ratios)
    eval_inst = {"train": train_w, "val": val_w, "test": test_w}[eval_split]
    preds, targets, extras = predict_city(
        run.model, target_city, eval_inst, holdout_target, run.bank, train_config,
        collect_priors=True,
    )
    overall, cold, obs, per_region = split_metrics(
        preds, targets, holdout_target, target_city.n_regions
    )
    report = EvalReport(
        protocol="transfer",
        seed=train_config.seed,
        holdout=holdout_target,
        overall=overall,
        coldstart_only=cold,
        observed_only=obs,
        per_region=per_region,
        extras={
            **extras,
            "source_city": source_city.name,
            "target_city": target_city.name,
            "source_holdout": run.holdout,
            "eval_split": eval_split,
            "best_epoch": run.train_result.best_epoch,
            "retrieval_enabled": run.model.config.retrieval_enabled,
        },
        config_echo={"train": asdict(train_config), "model": asdict(run.model.config)},
    )
    return report, run, preds, targets


def run_ablation_lret(
    source_city: CityDataset,
    target_city: CityDataset,
    train_config: TrainConfig,
    model_config: ModelConfig | None = None,
    n_holdout: int = 10,
    ratios: tuple[float, float, float] = (0.6, 0.2, 0.2),
    window: int = 24,
    horizon: int = 24,
) -> dict:
    """Paired transfer runs differing only in the retrieval-loss weight (vs 0).

    Reports per-arm metrics plus the mean L2 between retrieved prior and true
    future on the target validation split, the quantity the retrieval loss is
    supposed to improve.
    """
    arms = {}
    for label, lam in (("with_ret_loss", train_config.lambda_ret), ("no_ret_loss", 0.0)):
        cfg = replace(train_config, lambda_ret=lam)
        report, run, _, _ = run_transfer(
            source_city, target_city, cfg, model_config, n_holdout, ratios, window, horizon
        )
        val_report, _, _, _ = run_transfer(
            source_city, target_city, cfg, model_config, n_holdout, ratios, window, horizon,
            run=run, eval_split="val",
        )
        arms[label] = {
            "lambda_ret": lam,
            "test": report,
            "val_prior_future_l2": val_report.extras["prior_future_l2"],
        }
    return {
        "arms": arms,
        "rmse_delta": arms["with_ret_loss"]["test"].overall.rmse
        - arms["no_ret_loss"]["test"].overall.rmse,
        "prior_l2_delta": (arms["with_ret_loss"]["val_prior_future_l2"] or 0.0)
        - (arms["no_ret_loss"]["val_prior_future_l2"] or 0.0),
    }


def _assert_bank_from_train_split(
    bank: MemoryBank | None,
    city: CityDataset,
    ratios: tuple[float, float, float],
    window: int,
    horizon: int,
) -> None:
    """Protocol isolation: no val/test anchor may ever enter a memory bank."""
    if bank is None:
        return
    windows = make_windows(city, window, horizon)
    train_inst, _, _ = split_windows(windows, ratios)
    max_train_anchor = max(i.t for i in train_inst)
    bad = bank.anchors[bank.anchors > max_train_anchor]
    if bad.size:
        raise DataError(f"bank contains non-train anchors (first: {bad[0]})")


def write_curves_csv(
    path: str | Path,
    preds: np.ndarray,
    targets: np.ndarray,
    config_hash: str | None = None,
) -> None:
    """Plot-ready per-region curves: mean prediction and truth per horizon step."""
    n_inst, n_regions, horizon = preds.shape
    lines = []
    if config_hash is not None:
        lines.append(f"# config_hash={config_hash}")
    lines.append("region_id,step,mean_pred,mean_true")
    mean_pred = preds.mean(axis=0)
    mean_true = targets.mean(axis=0)
    for r in range(n_regions):
        for s in range(horizon):
            lines.append(f"{r},{s},{mean_pred[r, s]!r},{mean_true[r, s]!r}")
    Path(path).write_text("\n".join(lines) + "\n")
