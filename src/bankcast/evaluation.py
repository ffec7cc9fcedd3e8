"""Metrics and the two evaluation protocols.

Single-city cold-start: 10 seeded regions are held out of training entirely
(no histories, no supervision, no bank entries); at test time the graph covers
all regions with held-out histories zero-masked. Cross-city transfer: the same
training recipe runs on a source city, then the model and its source-built
bank are evaluated unchanged on a target city with 10 seeded target regions
masked. Both build their report in one body, and both window the cities at
the model config's window and horizon. Metrics are computed on raw
(de-normalized) demand, flattened over instances, regions, and horizon steps.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .artifacts import write_text
from .data import (
    DEFAULT_SPLIT_RATIOS,
    CityDataset,
    ForecastInstance,
    make_windows,
    masked_view,
    split_windows,
)
from .errors import DataError
from .model import ForwardResult, Model, ModelConfig, region_major
from .retrieval import MemoryBank
from .training import TrainConfig, TrainResult, forecast_chunks, train

DEFAULT_N_HOLDOUT = 10  # cold-start regions per protocol run


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


_SPLITS = ("train", "val", "test")


@dataclass
class ProtocolRun:
    model: Model
    bank: MemoryBank | None
    train_result: TrainResult | None  # None when the model was loaded from a checkpoint


def _windows(
    city: CityDataset, config: ModelConfig, ratios: tuple[float, float, float]
) -> dict[str, list[ForecastInstance]]:
    """The city's train/val/test windows at the model's window and horizon."""
    windows = make_windows(city, config.window, config.horizon)
    return dict(zip(_SPLITS, split_windows(windows, ratios)))


def train_for_protocol(
    city: CityDataset,
    train_config: TrainConfig,
    model_config: ModelConfig,
    n_holdout: int = DEFAULT_N_HOLDOUT,
    ratios: tuple[float, float, float] = DEFAULT_SPLIT_RATIOS,
) -> ProtocolRun:
    """The shared single-city training phase: hold out cold-start regions, train the rest."""
    holdout = choose_holdout(city.n_regions, n_holdout, train_config.seed)
    observable = [i for i in range(city.n_regions) if i not in set(holdout)]
    windows = _windows(city, model_config, ratios)
    model = Model(model_config, seed=train_config.seed)
    model.holdout = holdout
    result = train(model, city, observable, windows["train"], windows["val"], train_config)
    return ProtocolRun(model=model, bank=result.bank, train_result=result)


def predict_city(
    model: Model,
    city: CityDataset,
    instances: list[ForecastInstance],
    masked_regions: list[int],
    bank: MemoryBank | None,
    train_config: TrainConfig,
    collect_priors: bool = False,
) -> tuple[np.ndarray, np.ndarray, dict]:
    """Raw predictions/targets of shape (n_instances, N, H) over the full region graph.

    Forecasts by `forecast_chunks`, as `validation_metrics` does, writing
    each chunk into its instances' positions of arrays allocated up front.
    With `collect_priors`, extras hold the mean L2 between each retrieving
    region's prior and its true future, and the MAE of the backbone
    forecast (`y_tilde`, from the same forward) over the masked and over
    the observed regions.
    """
    preds = np.empty((len(instances), city.n_regions, model.config.horizon))
    backbone = np.empty_like(preds) if collect_priors else None

    def write(positions: np.ndarray, chunk: list[ForecastInstance], res: ForwardResult) -> np.ndarray | None:
        preds[positions] = _instance_major(model.denormalize(res.y_hat.value), len(chunk))
        if not collect_priors:
            return None
        backbone[positions] = _instance_major(model.denormalize(res.y_tilde.value), len(chunk))
        if res.prior is None:
            return None
        # the fused prior, back on the raw scale: each retrieving row's
        # weights over its selected entries' stored futures
        rows = np.flatnonzero(res.valid[:, 0])
        prior = model.denormalize(res.prior.value[rows])
        futures = region_major(np.stack([inst.future for inst in chunk]))[rows]
        return np.linalg.norm(prior - futures, axis=1)

    def view(inst: ForecastInstance) -> ForecastInstance:
        return masked_view(inst, masked_regions)

    regions = np.arange(city.n_regions)
    prior_l2 = forecast_chunks(model, instances, view, city.contexts(), regions, bank, train_config, write)
    targets = np.stack([inst.future.T for inst in instances])
    extras = {}
    if collect_priors:
        l2 = np.concatenate([np.empty(0), *(d for d in prior_l2 if d is not None)])
        extras["prior_future_l2"] = float(l2.mean()) if l2.size else None
        extras["prior_count"] = int(l2.size)
        masked = list(masked_regions)
        observed = [i for i in range(city.n_regions) if i not in masked]
        for name, regions in (("masked", masked), ("observed", observed)):
            mae = metrics(backbone[:, regions], targets[:, regions]).mae if regions else None
            extras[f"backbone_{name}_mae"] = mae
    return preds, targets, extras


def _instance_major(rows: np.ndarray, n_inst: int) -> np.ndarray:
    """(n·B, H) region-major rows -> (B, n, H)."""
    return rows.reshape(-1, n_inst, rows.shape[1]).transpose(1, 0, 2)


def split_metrics(
    preds: np.ndarray, targets: np.ndarray, holdout: list[int], n_regions: int
) -> tuple[Metrics, Metrics, Metrics, dict[int, Metrics]]:
    observed = [i for i in range(n_regions) if i not in set(holdout)]
    overall = metrics(preds, targets)
    cold = metrics(preds[:, holdout], targets[:, holdout])
    obs = metrics(preds[:, observed], targets[:, observed])
    per_region = {i: metrics(preds[:, i], targets[:, i]) for i in range(n_regions)}
    return overall, cold, obs, per_region


def _fusion_gain(extras: dict, cold: Metrics, observed: Metrics) -> dict:
    """Backbone-only MAE minus fused MAE, on the cold-start and the observed
    regions, both from the same forward: how much error the retrieval
    fusion removed within this run (negative when it added error)."""
    pairs = (
        ("coldstart", extras["backbone_masked_mae"], cold),
        ("observed", extras["backbone_observed_mae"], observed),
    )
    return {
        f"fusion_gain_{name}_mae": None if backbone is None else backbone - fused.mae
        for name, backbone, fused in pairs
    }


def _source_run(
    source: CityDataset,
    train_config: TrainConfig,
    model_config: ModelConfig | None,
    n_holdout: int,
    ratios: tuple[float, float, float],
    run: ProtocolRun | None,
) -> ProtocolRun:
    """`run`, or a new run trained on `source`; either way, its bank holds
    train-split anchors of `source` only (protocol isolation: no val/test
    anchor may ever enter a memory bank)."""
    if run is None:
        if model_config is None:
            model_config = ModelConfig(d_c=source.d_c)
        run = train_for_protocol(source, train_config, model_config, n_holdout, ratios)
    if run.bank is not None:
        max_train_anchor = _windows(source, run.model.config, ratios)["train"][-1].t
        bad = run.bank.anchors[run.bank.anchors > max_train_anchor]
        if bad.size:
            raise DataError(f"bank contains non-train anchors (first: {bad[0]})")
    return run


def _protocol_report(
    protocol: str,
    run: ProtocolRun,
    source_name: str,
    city: CityDataset,
    masked: list[int],
    instances: list[ForecastInstance],
    train_config: TrainConfig,
) -> tuple[EvalReport, ProtocolRun, np.ndarray, np.ndarray]:
    """Forecast the test `instances` of `city` with `masked` zero-masked and
    report on them: the one body of both protocols."""
    preds, targets, extras = predict_city(
        run.model, city, instances, masked, run.bank, train_config, collect_priors=True
    )
    overall, cold, obs, per_region = split_metrics(preds, targets, masked, city.n_regions)
    result = run.train_result
    report = EvalReport(
        protocol=protocol,
        seed=train_config.seed,
        holdout=masked,
        overall=overall,
        coldstart_only=cold,
        observed_only=obs,
        per_region=per_region,
        extras={
            **extras,
            **_fusion_gain(extras, cold, obs),
            "source_city": source_name,
            "target_city": city.name,
            "source_holdout": run.model.holdout,
            "best_epoch": None if result is None else result.best_epoch,
            "best_val_mae": None if result is None else result.best_val_mae,
            "retrieval_enabled": run.model.config.retrieval_enabled,
        },
        config_echo={"train": asdict(train_config), "model": asdict(run.model.config)},
    )
    return report, run, preds, targets


def run_coldstart(
    city: CityDataset,
    train_config: TrainConfig,
    model_config: ModelConfig | None = None,
    n_holdout: int = DEFAULT_N_HOLDOUT,
    ratios: tuple[float, float, float] = DEFAULT_SPLIT_RATIOS,
    run: ProtocolRun | None = None,
) -> tuple[EvalReport, ProtocolRun, np.ndarray, np.ndarray]:
    """Train with held-out cold-start regions, evaluate on the full graph at test time.

    Without `model_config`, the model takes `ModelConfig`'s defaults and the
    city's context width; window and horizon always come from the model's
    config.
    """
    run = _source_run(city, train_config, model_config, n_holdout, ratios, run)
    test = _windows(city, run.model.config, ratios)["test"]
    return _protocol_report("coldstart", run, city.name, city, run.model.holdout, test, train_config)


def run_transfer(
    source_city: CityDataset,
    target_city: CityDataset,
    train_config: TrainConfig,
    model_config: ModelConfig | None = None,
    n_holdout: int = DEFAULT_N_HOLDOUT,
    ratios: tuple[float, float, float] = DEFAULT_SPLIT_RATIOS,
    run: ProtocolRun | None = None,
) -> tuple[EvalReport, ProtocolRun, np.ndarray, np.ndarray]:
    """Pretrain on the source city, evaluate unchanged on the target city's
    test windows.

    Retrieval candidates all come from the source-city bank; no target
    fine-tuning happens.
    """
    if source_city.d_c != target_city.d_c:
        raise DataError(
            f"context dimensions differ: source {source_city.d_c}, target {target_city.d_c}"
        )
    run = _source_run(source_city, train_config, model_config, n_holdout, ratios, run)
    masked = choose_holdout(target_city.n_regions, n_holdout, train_config.seed)
    test = _windows(target_city, run.model.config, ratios)["test"]
    return _protocol_report("transfer", run, source_city.name, target_city, masked, test, train_config)


def run_ablation_lret(
    source_city: CityDataset,
    target_city: CityDataset,
    train_config: TrainConfig,
    model_config: ModelConfig | None = None,
    n_holdout: int = DEFAULT_N_HOLDOUT,
    ratios: tuple[float, float, float] = DEFAULT_SPLIT_RATIOS,
) -> dict:
    """Paired transfer runs differing only in the retrieval-loss weight (vs 0),
    as a JSON-ready document.

    Each arm holds its weight, its test report (`EvalReport.as_dict()`) and
    the mean L2 between retrieved prior and true future on the target's
    validation windows, masked as its test report masks them: the quantity
    the retrieval loss is supposed to improve. The L2 is None when no
    validation row retrieves, and so is `prior_l2_delta` when either arm's is.
    """
    arms = {}
    for label, lam in (("with_ret_loss", train_config.lambda_ret), ("no_ret_loss", 0.0)):
        cfg = replace(train_config, lambda_ret=lam)
        report, run, _, _ = run_transfer(source_city, target_city, cfg, model_config, n_holdout, ratios)
        val = _windows(target_city, run.model.config, ratios)["val"]
        _, _, extras = predict_city(
            run.model, target_city, val, report.holdout, run.bank, cfg, collect_priors=True
        )
        arms[label] = {
            "lambda_ret": lam,
            "test": report.as_dict(),
            "val_prior_future_l2": extras["prior_future_l2"],
        }
    with_l2, without_l2 = (arms[a]["val_prior_future_l2"] for a in ("with_ret_loss", "no_ret_loss"))
    return {
        "arms": arms,
        "rmse_delta": arms["with_ret_loss"]["test"]["overall"]["rmse"]
        - arms["no_ret_loss"]["test"]["overall"]["rmse"],
        "prior_l2_delta": None if with_l2 is None or without_l2 is None else with_l2 - without_l2,
    }


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
    write_text(path, "\n".join(lines) + "\n")
