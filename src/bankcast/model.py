"""Full forecaster: backbone + memory-bank retrieval + gated fusion.

One Model owns the parameter store, the normalization statistics (z-score over
the source train split, stored in checkpoints), and the forward pass: a
batch of forecasting instances over one arbitrary region set, stacked as
region-major rows on one tape (a single instance is a batch of one). Scoring
against the bank uses cached keys as constants; the alignment loss re-encodes
its selected entries so both encoder sides receive gradients.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .artifacts import read_artifact, write_artifact
from .autodiff import ParamStore, Var
from .backbone import (
    BackboneParams,
    build_adjacency,
    encode_history,
    forecast_head,
    message_pass,
    project_context,
)
from .errors import ConfigError, DataError, VersionMismatchError
from .fusion import FusionParams, fuse
from .retrieval import (
    MemoryBank,
    RetrievalRow,
    RetrieverParams,
    alignment_loss,
    encode_retrieval,
    future_nearest_batch,
    select_top_batch,
)


@dataclass(frozen=True)
class ModelConfig:
    d_c: int
    window: int = 24
    horizon: int = 24
    d_g: int = 32
    d_z: int = 32
    hidden: int = 64
    head_blocks: int = 3
    gcn_layers: int = 1
    d_r: int = 128
    d_h: int = 8
    d_ec: int = 64
    d_ex: int = 64
    psi_hidden: int = 128
    retrieval_enabled: bool = True
    stop_key_grad: bool = False

    def validate(self) -> None:
        for field in fields(self):
            value = getattr(self, field.name)
            # layer counts may be 0: no message passing, no residual head block
            least = 0 if field.name in ("gcn_layers", "head_blocks") else 1
            if type(value) is int and value < least:
                raise ConfigError(f"model {field.name} must be at least {least}, got {value}")


def region_major(per_instance: np.ndarray) -> np.ndarray:
    """(B, H, n) per-instance columns -> (n·B, H) rows, row i·B + b being
    region i of instance b: the row order of `Model.forward_batch`."""
    return per_instance.transpose(2, 0, 1).reshape(-1, per_instance.shape[1])


@dataclass
class ForwardResult:
    """One row per (region, instance), region-major; see `Model.forward_batch`."""

    y_hat: Var  # (rows, H) fused prediction, normalized space
    y_tilde: Var  # (rows, H) backbone prediction, normalized space
    queries: Var | None  # (rows, d_r) unit rows
    l_ret: Var | None  # scalar alignment loss (training mode only)
    valid: np.ndarray  # (rows, 1) 0/1 retrieval-validity flags
    selected: np.ndarray | None = None  # (rows, K) top-K bank entry indices, -1 as padding
    weights: np.ndarray | None = None  # (rows, K) softmax weights of those entries, 0 at padding
    prior: Var | None = None  # (rows, H) fused prior, normalized space; zero rows without candidates
    rows: list[RetrievalRow] | None = None  # per-region retrieval diagnostics (`forward` only)


class Model:
    def __init__(self, config: ModelConfig, seed: int = 0):
        config.validate()
        self.config = config
        self.store = ParamStore()
        rng = np.random.default_rng(seed)
        self.backbone = BackboneParams.init(config, rng, self.store)
        self.retriever = RetrieverParams.init(config, rng, self.store)
        self.fusion = FusionParams.init(config, self.store)
        self.norm_mean = 0.0
        self.norm_std = 1.0
        # cold-start regions kept out of training and the bank, when known
        self.holdout: list[int] | None = None

    # -- normalization ------------------------------------------------------

    def set_norm(self, mean: float, std: float) -> None:
        self.norm_mean = float(mean)
        self.norm_std = float(std) if std > 1e-8 else 1.0

    def normalize(self, x: np.ndarray) -> np.ndarray:
        return (x - self.norm_mean) / self.norm_std

    def denormalize(self, x: np.ndarray) -> np.ndarray:
        return x * self.norm_std + self.norm_mean

    # -- retriever plumbing -------------------------------------------------

    def encoder_version(self) -> str:
        """Hash of the retriever parameters that key embeddings depend on."""
        h = hashlib.sha256()
        h.update(np.float64(self.norm_mean).tobytes())
        h.update(np.float64(self.norm_std).tobytes())
        for name in sorted(self.store.names()):
            if name.startswith("retriever."):
                h.update(name.encode())
                h.update(self.store[name].value.tobytes())
        return h.hexdigest()

    def encode_entries(
        self, contexts: np.ndarray, histories_raw: np.ndarray, hours: np.ndarray
    ) -> np.ndarray:
        """Key embeddings for bank entries (true histories, normalized).

        Encodes one hour's entries at a time and without a tape, so the peak
        memory is one hour bucket's intermediates. Keys come back in the
        given row order; on the 14,400- and 57,600-entry banks each matched
        a whole-bank encoding bit for bit.
        """
        hours = np.asarray(hours)
        keys = np.empty((len(hours), self.config.d_r))
        with ad.no_grad():
            for hour in np.unique(hours):
                rows = np.flatnonzero(hours == hour)
                keys[rows] = encode_retrieval(
                    ad.constant(contexts[rows]),
                    ad.constant(self.normalize(histories_raw[rows])),
                    hours[rows],
                    self.retriever,
                ).value
        return keys

    def refresh_bank(self, bank: MemoryBank) -> None:
        bank.refresh_keys(self.encode_entries, self.encoder_version())

    # -- forward ------------------------------------------------------------

    def forward(
        self,
        contexts: np.ndarray,
        history: np.ndarray,
        mask: np.ndarray,
        hour: int,
        bank: MemoryBank | None = None,
        k: int = 8,
        temperature: float = 0.1,
        region_ids: np.ndarray | None = None,
        exclude_anchor: int | None = None,
        true_futures: np.ndarray | None = None,
    ) -> ForwardResult:
        """Run one forecasting instance over a region set: `forward_batch` with
        B = 1, plus one `RetrievalRow` per region.

        history: (W, n) raw demand; mask: (n,); true_futures: (H, n) raw.
        """
        res = self.forward_batch(
            contexts,
            history[None],
            mask[None],
            [hour],
            bank=bank,
            k=k,
            temperature=temperature,
            region_ids=region_ids,
            exclude_anchors=None if exclude_anchor is None else [exclude_anchor],
            true_futures=None if true_futures is None else true_futures[None],
        )
        if res.selected is not None:
            priors = np.where(res.valid > 0, self.denormalize(res.prior.value), 0.0)
            res.rows = [
                RetrievalRow(indices=idx[idx >= 0], weights=w[idx >= 0], prior=p, valid=bool(v))
                for idx, w, p, v in zip(res.selected, res.weights, priors, res.valid[:, 0])
            ]
        return res

    def forward_batch(
        self,
        contexts: np.ndarray,
        histories: np.ndarray,
        masks: np.ndarray,
        hours: Sequence[int],
        bank: MemoryBank | None = None,
        k: int = 8,
        temperature: float = 0.1,
        region_ids: np.ndarray | None = None,
        exclude_anchors: Sequence[int] | None = None,
        true_futures: np.ndarray | None = None,
    ) -> ForwardResult:
        """Run B forecasting instances over one shared region set, on one tape.

        contexts: (n, d_c); histories: (B, W, n) raw demand; masks: (B, n)
        0/1 history availability; hours: (B,). Every output row is region-major:
        row i·B + b is region i of instance b, so the context projection and
        the adjacency run once and message passing aggregates all instances
        with one product. Masked columns are re-zeroed after normalization so
        an unobserved region contributes exactly zero temporal signal whatever
        its raw history holds. `exclude_anchors` (B,) drops each row's own
        (anchor, region id) bank entry from its candidates. Passing
        `true_futures` (B, H, n, raw) enables the retrieval alignment loss:
        the rows of instance b with candidates, c_b of them, each weigh
        1/(B·c_b), so it is the mean of the per-instance losses.
        """
        hours = np.asarray(hours)
        n_inst, n = len(hours), contexts.shape[0]
        n_rows = n * n_inst
        if region_ids is None:
            region_ids = np.arange(n)
        region_of_row = np.repeat(np.arange(n), n_inst)
        hist_norm = self.normalize(np.asarray(histories)) * np.asarray(masks)[:, None, :]
        hist_rows = ad.constant(hist_norm.transpose(2, 0, 1).reshape(n_rows, -1))

        node_embed = project_context(ad.constant(contexts), self.backbone.context_proj)
        adjacency = build_adjacency(node_embed)
        temporal = encode_history(hist_rows, self.backbone.temporal_proj)
        # each region's node embedding, once per instance (a batch of one needs no gather)
        node_rows = node_embed if n_inst == 1 else ad.take_rows(node_embed, region_of_row)
        h0 = ad.concat([temporal, node_rows], axis=1)
        hl = message_pass(h0, adjacency, self.backbone.gcn)
        y_tilde = forecast_head(hl, self.backbone)

        if not self.config.retrieval_enabled or bank is None:
            return ForwardResult(
                y_hat=y_tilde, y_tilde=y_tilde, queries=None, l_ret=None, valid=np.zeros((n_rows, 1))
            )

        row_hours = np.tile(hours, n)
        queries = encode_retrieval(
            ad.constant(contexts[region_of_row]), hist_rows, row_hours, self.retriever
        )
        excludes = None
        if exclude_anchors is not None:
            anchors = np.tile(exclude_anchors, n).tolist()
            excludes = list(zip(anchors, np.asarray(region_ids)[region_of_row].tolist()))
        selected = np.full((n_rows, k), -1)
        for hour in np.unique(hours):
            rows = np.flatnonzero(row_hours == hour)
            picks = select_top_batch(
                bank, queries.value[rows], int(hour), k,
                None if excludes is None else [excludes[r] for r in rows],
            )
            # each row fills from its first slot; read row by row, the filled cells take the picks in order
            filled = np.zeros_like(selected, dtype=bool)
            filled[rows] = np.arange(k) < np.array([idx.size for idx, _ in picks])[:, None]
            selected[filled] = np.concatenate([idx for idx, _ in picks])
        prior, valid, weights = self._dense_priors(queries, bank, selected, temperature)
        y_hat = fuse(y_tilde, prior, self.fusion, valid)

        l_ret = None
        with_cand = np.flatnonzero(valid[:, 0])
        if true_futures is not None and with_cand.size:
            best = future_nearest_batch(bank, selected[with_cand], region_major(true_futures)[with_cand])
            keys_live = encode_retrieval(
                ad.constant(bank.contexts[best]),
                ad.constant(self.normalize(bank.histories[best])),
                bank.hours[best],
                self.retriever,
            )
            if self.config.stop_key_grad:
                keys_live = ad.constant(keys_live.value)
            inst = with_cand % n_inst
            row_weight = 1.0 / (n_inst * np.bincount(inst, minlength=n_inst)[inst])
            l_ret = alignment_loss(ad.take_rows(queries, with_cand), keys_live, row_weight[:, None])
        return ForwardResult(
            y_hat=y_hat, y_tilde=y_tilde, queries=queries, l_ret=l_ret, valid=valid,
            selected=selected, weights=weights, prior=prior,
        )

    def _dense_priors(
        self, queries: Var, bank: MemoryBank, selected: np.ndarray, temperature: float
    ) -> tuple[Var, np.ndarray, np.ndarray]:
        """Priors, validity flags and (rows, k) weights of the (rows, k)
        `selected` entries (-1 as padding), by one masked softmax.

        A padded slot scores -inf, so its weight is exactly 0. A row without
        candidates keeps finite scores (all -inf would give NaN) over zero
        futures, so its prior is 0 and passes no gradient. Rebuilding the
        selected scores on the tape keeps gradients flowing into the queries.
        """
        n, k = selected.shape
        pad = selected < 0
        valid = ~pad[:, :1]  # selection fills a row from its first slot
        flat_idx = selected.ravel()  # padding reads the last entry, then is masked
        keys = ad.constant(bank.keys[flat_idx].reshape(n, k, -1))
        scores = ad.reduce_sum(ad.mul(ad.reshape(queries, (n, 1, -1)), keys), axis=2)
        scores = ad.add(scores, ad.constant(np.where(pad & valid, -np.inf, 0.0)))
        futures = self.normalize(bank.futures[flat_idx]).reshape(n, k, -1) * valid[:, :, None]
        alpha = ad.row_softmax(scores, temperature)
        prior = ad.reduce_sum(ad.mul(ad.reshape(alpha, (n, k, 1)), ad.constant(futures)), axis=1)
        return prior, valid.astype(float), np.where(pad, 0.0, alpha.value)

    # perfbench's tracer wraps `Model._ragged_priors` by name; the alias keeps
    # that lookup working now that `_dense_priors` builds every prior
    _ragged_priors = _dense_priors


# ---------------------------------------------------------------------------
# checkpoints: one JSON header line (config, norm, holdout, the (name, shape)
# list of parameters and the SHA-256 of their values), then every parameter
# concatenated into one 1-D float64 array as one .npy body.

CHECKPOINT_FORMAT = "bankcast-checkpoint-v2"


def save_checkpoint(model: Model, path: str | Path, config_hash: str | None = None) -> None:
    names = model.store.names()
    body = np.concatenate([model.store[name].value.reshape(-1) for name in names])
    header = {
        "format": CHECKPOINT_FORMAT,
        "model_config": asdict(model.config),
        "norm": {"mean": model.norm_mean, "std": model.norm_std},
        "encoder_version": model.encoder_version(),
        "holdout": model.holdout,
        "params": [[name, list(model.store[name].value.shape)] for name in names],
        "params_checksum": hashlib.sha256(body.tobytes()).hexdigest(),
    }
    if config_hash is not None:
        header["config_hash"] = config_hash
    write_artifact(path, header, body)


def load_checkpoint(path: str | Path) -> Model:
    header, body = read_artifact(path, CHECKPOINT_FORMAT, "checkpoint")
    if body.dtype != np.float64 or body.ndim != 1:
        raise DataError(f"checkpoint file {path} body is a {body.dtype} array of rank {body.ndim}")
    try:
        model = Model(ModelConfig(**header["model_config"]))
        model.set_norm(header["norm"]["mean"], header["norm"]["std"])
        params = header["params"]
        offsets = np.cumsum([0] + [int(np.prod(shape)) for _, shape in params]).tolist()
        if len({name for name, _ in params}) != len(params) or offsets[-1] != body.size:
            raise ValueError(f"the body's {body.size} values do not fit the header's parameter list")
        if hashlib.sha256(body.tobytes()).hexdigest() != header.get("params_checksum"):
            raise VersionMismatchError(f"checkpoint file {path} parameters do not match their checksum")
        model.store.load_state_dict({
            name: body[lo:hi].reshape(shape)
            for (name, shape), lo, hi in zip(params, offsets[:-1], offsets[1:])
        })
        model.holdout = header.get("holdout")
    except (KeyError, TypeError, ValueError, ConfigError) as e:
        raise DataError(f"checkpoint file {path} is malformed: {type(e).__name__}: {e}")
    return model
