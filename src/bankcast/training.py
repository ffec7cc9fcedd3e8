"""Training loop: inactive-region sampling, masked L1 objective, Adam updates.

One batch is a set of anchor instances sharing a freshly sampled inactive
region set; histories of inactive regions are zeroed to rehearse cold-start
conditions while their futures still supervise the forecast. A batch runs as
one forward pass over region-major stacked rows and one backward pass over
its tape. Bank keys are re-encoded once per epoch since retriever parameters
drift. Everything is driven by a single seeded Generator, so a fixed (config,
seed) reproduces the parameter trajectory bit for bit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ParamStore, Var
from .data import CityDataset, ForecastInstance, masked_view
from .errors import ConfigError, DataError, DivergenceError
from .model import ForwardResult, Model, region_major
from .retrieval import MemoryBank, build_bank

LOG_COLUMNS = (
    "epoch",
    "train_loss",
    "train_pred_loss",
    "train_ret_loss",
    "val_mae",
    "val_rmse",
    "grad_norm",
    "fusion_scale",
    "seconds",
)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    batch_size: int = 16
    learning_rate: float = 1e-3
    lambda_ret: float = 0.2
    k: int = 8
    temperature: float = 0.1
    n_inactive_per_batch: int = 6
    seed: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    clip_norm: float = 5.0
    patience: int = 10
    supervise_inactive: bool = True

    def validate(self) -> None:
        if self.lambda_ret < 0:
            raise ConfigError("lambda_ret must be nonnegative")
        if self.epochs < 1 or self.batch_size < 1 or self.k < 1:
            raise ConfigError("epochs, batch_size, and k must be positive")
        if self.temperature <= 0 or self.learning_rate < 0:
            raise ConfigError("temperature must be positive and learning_rate nonnegative")


class Adam:
    """First/second-moment adaptive update over a ParamStore."""

    def __init__(
        self,
        store: ParamStore,
        lr: float,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.store = store
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(v.value) for k, v in store.items()}
        self.v = {k: np.zeros_like(v.value) for k, v in store.items()}

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for name, var in self.store.items():
            g = var.grad if var.grad is not None else np.zeros_like(var.value)
            self.m[name] = self.beta1 * self.m[name] + (1.0 - self.beta1) * g
            self.v[name] = self.beta2 * self.v[name] + (1.0 - self.beta2) * (g * g)
            m_hat = self.m[name] / bc1
            v_hat = self.v[name] / bc2
            var.value = var.value - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def clip_gradients(store: ParamStore, max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most max_norm."""
    total = 0.0
    for _, var in store.items():
        if var.grad is not None:
            total += float((var.grad * var.grad).sum())
    norm = float(np.sqrt(total))
    if max_norm > 0 and norm > max_norm:
        factor = max_norm / norm
        for _, var in store.items():
            if var.grad is not None:
                var.grad = var.grad * factor
    return norm


def sample_active(
    observable: list[int], n_inactive: int, rng: np.random.Generator
) -> tuple[list[int], list[int]]:
    """Uniform without-replacement split of the observable set into active/inactive."""
    observable = sorted(observable)
    if n_inactive >= len(observable):
        raise DataError(
            f"n_inactive={n_inactive} must be smaller than the observable set ({len(observable)})"
        )
    if n_inactive == 0:
        return observable, []
    pick = rng.choice(len(observable), size=n_inactive, replace=False)
    inactive_ids = sorted(observable[i] for i in pick)
    inactive_set = set(inactive_ids)
    active_ids = [r for r in observable if r not in inactive_set]
    return active_ids, inactive_ids


def masked_l1(pred: Var, target: np.ndarray, supervise_rows: list[int]) -> Var:
    """Mean absolute error over the supervised rows of (n, H) prediction/target."""
    if len(supervise_rows) == 0:
        raise DataError("supervised region set is empty")
    diff = ad.sub(ad.take_rows(pred, supervise_rows), ad.constant(target[supervise_rows]))
    return ad.mean(ad.absolute(diff))


def combine_losses(l_pred: Var, l_ret: Var | None, lambda_ret: float) -> Var:
    """Total objective; the retrieval term joins the graph only when weighted."""
    if l_ret is None or lambda_ret == 0.0:
        return l_pred
    return ad.add(l_pred, ad.mul(l_ret, lambda_ret))


def _forward_views(
    model: Model,
    views: list[ForecastInstance],
    contexts: np.ndarray,
    obs: np.ndarray,
    bank: MemoryBank | None,
    config: TrainConfig,
    **kwargs,
) -> ForwardResult:
    """`Model.forward_batch` over the observable regions of several instances."""
    return model.forward_batch(
        contexts[obs],
        np.stack([v.history[:, obs] for v in views]),
        np.stack([v.mask[obs] for v in views]),
        [v.hour for v in views],
        bank=bank,
        k=config.k,
        temperature=config.temperature,
        region_ids=obs,
        **kwargs,
    )


def batch_loss(
    model: Model,
    instances: list[ForecastInstance],
    contexts: np.ndarray,
    observable: list[int],
    inactive: list[int],
    bank: MemoryBank | None,
    config: TrainConfig,
) -> tuple[Var, Var, Var | None]:
    """Total, prediction, and retrieval losses of a batch of masked training
    instances that share the observable and inactive region sets, on one tape.

    Each equals the mean of the instances' own losses. The retrieval loss is
    computed whenever a bank is present (the lambda=0 ablation still logs it);
    it only joins the optimized objective when lambda_ret > 0.
    """
    views = [masked_view(inst, inactive) for inst in instances]
    obs = np.asarray(observable)
    futures_raw = np.stack([inst.future[:, obs] for inst in instances])
    res = _forward_views(
        model, views, contexts, obs, bank, config,
        exclude_anchors=[inst.t for inst in instances],
        true_futures=futures_raw if bank is not None else None,
    )
    if config.supervise_inactive:
        supervise = np.arange(len(observable))
    else:
        inactive_set = set(inactive)
        supervise = np.array(
            [i for i, rid in enumerate(observable) if rid not in inactive_set], dtype=np.intp
        )
    rows = (supervise[:, None] * len(instances) + np.arange(len(instances))).reshape(-1)
    l_pred = masked_l1(res.y_hat, model.normalize(region_major(futures_raw)), rows)
    total = combine_losses(l_pred, res.l_ret, config.lambda_ret)
    return total, l_pred, res.l_ret


def instance_loss(
    model: Model,
    instance: ForecastInstance,
    contexts: np.ndarray,
    observable: list[int],
    inactive: list[int],
    bank: MemoryBank | None,
    config: TrainConfig,
) -> tuple[Var, Var, Var | None]:
    """`batch_loss` of a single masked training instance."""
    return batch_loss(model, [instance], contexts, observable, inactive, bank, config)


def validation_metrics(
    model: Model,
    val_instances: list[ForecastInstance],
    contexts: np.ndarray,
    observable: list[int],
    bank: MemoryBank | None,
    config: TrainConfig,
    val_inactive: list[int] | None = None,
) -> tuple[float, float]:
    """Raw-scale MAE/RMSE over observable regions, forwarding `batch_size`
    instances at a time without a tape.

    When `val_inactive` is given, those regions' histories are zero-masked so
    the score (and therefore checkpoint selection) rewards cold-start skill,
    not just autoregression on fully observed regions.
    """
    obs = np.asarray(observable)
    abs_sum, sq_sum, count = 0.0, 0.0, 0
    with ad.no_grad():
        for start in range(0, len(val_instances), config.batch_size):
            chunk = val_instances[start : start + config.batch_size]
            views = [masked_view(inst, val_inactive) if val_inactive else inst for inst in chunk]
            res = _forward_views(model, views, contexts, obs, bank, config)
            err = model.denormalize(res.y_hat.value) - region_major(
                np.stack([inst.future[:, obs] for inst in chunk])
            )
            abs_sum += float(np.abs(err).sum())
            sq_sum += float((err * err).sum())
            count += err.size
    return abs_sum / count, float(np.sqrt(sq_sum / count))


@dataclass
class TrainResult:
    log_rows: list[dict]
    best_epoch: int
    best_val_mae: float
    bank: MemoryBank | None
    norm_stats: tuple[float, float]


def train(
    model: Model,
    city: CityDataset,
    observable: list[int],
    train_instances: list[ForecastInstance],
    val_instances: list[ForecastInstance],
    config: TrainConfig,
) -> TrainResult:
    """Optimize the model on the train split; keeps the best-validation-MAE parameters.

    Normalization statistics come from the train time range of observable
    regions only, so held-out cold-start regions leak nothing. The bank is
    built from train windows of observable regions and its keys are refreshed
    at every epoch start and once more after the best parameters are restored.
    """
    config.validate()
    if not train_instances:
        raise DataError("train split is empty")
    observable = sorted(observable)
    contexts = city.contexts()

    train_end = train_instances[-1].t + 1
    stats_block = city.demand[:train_end][:, observable]
    model.set_norm(float(stats_block.mean()), float(stats_block.std()))

    bank = None
    if model.config.retrieval_enabled:
        bank = build_bank(train_instances, observable, contexts)

    rng = np.random.default_rng(config.seed)
    # fixed masked subset for validation: checkpoint selection should reward
    # inductive (cold-start) performance, mirroring the training-time masking
    val_inactive: list[int] = []
    if config.n_inactive_per_batch > 0:
        _, val_inactive = sample_active(
            observable, config.n_inactive_per_batch, np.random.default_rng((config.seed, 0x5EED))
        )
    optimizer = Adam(model.store, config.learning_rate, config.beta1, config.beta2, config.eps)
    log_rows: list[dict] = []
    best_val = np.inf
    best_epoch = -1
    best_state = model.store.state_dict()
    since_best = 0

    for epoch in range(config.epochs):
        t0 = time.perf_counter()
        if bank is not None:
            model.refresh_bank(bank)
        order = rng.permutation(len(train_instances))
        loss_sum = pred_sum = ret_sum = norm_sum = 0.0
        n_batches = 0
        for start in range(0, len(order), config.batch_size):
            batch = [train_instances[bi] for bi in order[start : start + config.batch_size]]
            _, inactive = sample_active(observable, config.n_inactive_per_batch, rng)
            total, l_pred, l_ret = batch_loss(
                model, batch, contexts, observable, inactive, bank, config
            )
            if not np.isfinite(total.value):
                raise DivergenceError(
                    f"non-finite training loss at epoch {epoch}, batch {n_batches}"
                )
            model.store.zero_grad()
            ad.backward(total)
            norm_sum += clip_gradients(model.store, config.clip_norm)
            optimizer.step()
            loss_sum += float(total.value)
            pred_sum += float(l_pred.value)
            ret_sum += float(l_ret.value) if l_ret is not None else 0.0
            n_batches += 1

        val_mae, val_rmse = validation_metrics(
            model, val_instances, contexts, observable, bank, config, val_inactive
        )
        if not np.isfinite(val_mae):
            raise DivergenceError(f"non-finite validation MAE at epoch {epoch}")
        log_rows.append(
            {
                "epoch": epoch,
                "train_loss": loss_sum / n_batches,
                "train_pred_loss": pred_sum / n_batches,
                "train_ret_loss": ret_sum / n_batches,
                "val_mae": val_mae,
                "val_rmse": val_rmse,
                "grad_norm": norm_sum / n_batches,
                "fusion_scale": model.fusion.scale.value.item(),
                "seconds": time.perf_counter() - t0,
            }
        )
        if val_mae < best_val:
            best_val = val_mae
            best_epoch = epoch
            best_state = model.store.state_dict()
            since_best = 0
        else:
            since_best += 1
            if config.patience > 0 and since_best > config.patience:
                break

    model.store.load_state_dict(best_state)
    if bank is not None:
        model.refresh_bank(bank)  # keys must match the restored parameters
    return TrainResult(
        log_rows=log_rows,
        best_epoch=best_epoch,
        best_val_mae=float(best_val),
        bank=bank,
        norm_stats=(model.norm_mean, model.norm_std),
    )


def write_log_csv(log_rows: list[dict], path, config_hash: str | None = None) -> None:
    lines = []
    if config_hash is not None:
        lines.append(f"# config_hash={config_hash}")
    lines.append(",".join(LOG_COLUMNS))
    for row in log_rows:
        lines.append(
            ",".join(
                repr(row[c]) if isinstance(row[c], float) else str(row[c]) for c in LOG_COLUMNS
            )
        )
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
