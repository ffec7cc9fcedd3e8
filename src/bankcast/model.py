"""Full forecaster: backbone + memory-bank retrieval + gated fusion.

One Model owns the parameter store, the normalization statistics (z-score over
the source train split, stored in checkpoints), and the forward pass for a
single forecasting instance over an arbitrary region set. Scoring against the
bank uses cached keys as constants; the alignment loss re-encodes its selected
entries so both encoder sides receive gradients.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import ParamStore, Var
from .backbone import (
    BackboneParams,
    build_adjacency,
    encode_history,
    forecast_head,
    message_pass,
    project_context,
)
from .errors import DataError
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


@dataclass
class ForwardResult:
    y_hat: Var  # (n, H) fused prediction, normalized space
    y_tilde: Var  # (n, H) backbone prediction, normalized space
    queries: Var | None  # (n, d_r) unit rows
    l_ret: Var | None  # scalar alignment loss (training mode only)
    rows: list[RetrievalRow] | None  # per-region retrieval diagnostics, raw scale
    valid: np.ndarray  # (n, 1) 0/1 retrieval-validity flags


class Model:
    def __init__(self, config: ModelConfig, seed: int = 0):
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
        """Key embeddings for bank entries (true histories, normalized)."""
        out = encode_retrieval(
            ad.constant(contexts),
            ad.constant(self.normalize(histories_raw)),
            hours,
            self.retriever,
        )
        return out.value

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
        """Run one forecasting instance over a region set.

        contexts: (n, d_c); history: (W, n) raw demand; mask: (n,) 0/1 history
        availability. Masked columns are re-zeroed after normalization so an
        unobserved region contributes exactly zero temporal signal regardless
        of what its raw history column holds. Passing `true_futures` (H, n,
        raw) enables the retrieval alignment loss; `exclude_anchor` drops each
        region's own (anchor, region) bank entry from its candidates.
        """
        n = contexts.shape[0]
        if region_ids is None:
            region_ids = np.arange(n)
        hist_norm = self.normalize(history) * mask[None, :]
        ctx = ad.constant(contexts)
        hist_rows = ad.constant(hist_norm.T)

        node_embed = project_context(ctx, self.backbone.context_proj)
        adjacency = build_adjacency(node_embed)
        temporal = encode_history(hist_rows, self.backbone.temporal_proj)
        h0 = ad.concat([temporal, node_embed], axis=1)
        hl = message_pass(h0, adjacency, self.backbone.gcn)
        y_tilde = forecast_head(hl, self.backbone)

        if not self.config.retrieval_enabled or bank is None:
            return ForwardResult(
                y_hat=y_tilde,
                y_tilde=y_tilde,
                queries=None,
                l_ret=None,
                rows=None,
                valid=np.zeros((n, 1)),
            )

        queries = encode_retrieval(ctx, hist_rows, np.full(n, hour), self.retriever)
        excludes = None
        if exclude_anchor is not None:
            excludes = [(exclude_anchor, int(rid)) for rid in region_ids]
        selections = select_top_batch(bank, queries.value, hour, k, excludes)
        selected = [idx for idx, _ in selections]
        if all(idx.size == k for idx in selected):
            prior, valid, rows = self._dense_priors(queries, bank, selected, k, temperature)
        else:
            prior, valid, rows = self._ragged_priors(queries, bank, selected, temperature)
        y_hat = fuse(y_tilde, prior, self.fusion, valid)

        l_ret = None
        if true_futures is not None:
            with_cand = [i for i in range(n) if selected[i].size > 0]
            if with_cand:
                best = future_nearest_batch(bank, selected, with_cand, true_futures)
                keys_live = encode_retrieval(
                    ad.constant(bank.contexts[best]),
                    ad.constant(self.normalize(bank.histories[best])),
                    bank.hours[best],
                    self.retriever,
                )
                if self.config.stop_key_grad:
                    keys_live = ad.constant(keys_live.value)
                l_ret = alignment_loss(ad.take_rows(queries, with_cand), keys_live)
        return ForwardResult(
            y_hat=y_hat, y_tilde=y_tilde, queries=queries, l_ret=l_ret, rows=rows, valid=valid
        )

    def _dense_priors(
        self, queries: Var, bank: MemoryBank, selected: list[np.ndarray], k: int, temperature: float
    ) -> tuple[Var, np.ndarray, list[RetrievalRow]]:
        """Priors for the common case of exactly k candidates per region, batched.

        Rebuilding the selected scores on the tape (rather than reusing the
        selection-time GEMM) keeps the graph self-contained so gradients flow
        into the query side of every score.
        """
        n = queries.value.shape[0]
        flat_idx = np.concatenate(selected)
        rep = np.repeat(np.arange(n), k)
        scores_flat = ad.reduce_sum(
            ad.mul(ad.take_rows(queries, rep), ad.constant(bank.keys[flat_idx])),
            axis=1,
            keepdims=True,
        )
        alpha = ad.row_softmax(ad.reshape(scores_flat, (n, k)), temperature)
        weighted = ad.mul(ad.reshape(alpha, (n * k, 1)), ad.constant(self.normalize(bank.futures[flat_idx])))
        prior = ad.reduce_sum(ad.reshape(weighted, (n, k, -1)), axis=1)
        rows = [
            RetrievalRow(
                indices=selected[i],
                weights=alpha.value[i].copy(),
                prior=alpha.value[i] @ bank.futures[selected[i]],
                valid=True,
            )
            for i in range(n)
        ]
        return prior, np.ones((n, 1)), rows

    def _ragged_priors(
        self, queries: Var, bank: MemoryBank, selected: list[np.ndarray], temperature: float
    ) -> tuple[Var, np.ndarray, list[RetrievalRow]]:
        """Per-region priors when candidate counts differ (small buckets, exclusions)."""
        n = queries.value.shape[0]
        valid = np.zeros((n, 1))
        prior_parts: list[Var] = []
        rows: list[RetrievalRow] = []
        zero_prior = ad.constant(np.zeros((1, self.config.horizon)))
        for i, idx in enumerate(selected):
            if idx.size == 0:
                prior_parts.append(zero_prior)
                rows.append(
                    RetrievalRow(
                        indices=idx,
                        weights=np.empty(0),
                        prior=np.zeros(self.config.horizon),
                        valid=False,
                    )
                )
                continue
            valid[i, 0] = 1.0
            scores = ad.matmul(ad.take_rows(queries, [i]), ad.constant(bank.keys[idx].T))
            alpha = ad.row_softmax(scores, temperature)
            prior_parts.append(ad.matmul(alpha, ad.constant(self.normalize(bank.futures[idx]))))
            rows.append(
                RetrievalRow(
                    indices=idx,
                    weights=alpha.value[0].copy(),
                    prior=alpha.value[0] @ bank.futures[idx],
                    valid=True,
                )
            )
        prior = prior_parts[0] if n == 1 else ad.concat(prior_parts, axis=0)
        return prior, valid, rows


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(model: Model, path: str | Path, config_hash: str | None = None) -> None:
    doc = {
        "format": "bankcast-checkpoint-v1",
        "model_config": asdict(model.config),
        "norm": {"mean": model.norm_mean, "std": model.norm_std},
        "params": {
            name: {"shape": list(var.value.shape), "values": var.value.reshape(-1).tolist()}
            for name, var in model.store.items()
        },
        "encoder_version": model.encoder_version(),
        "holdout": model.holdout,
    }
    if config_hash is not None:
        doc["config_hash"] = config_hash
    Path(path).write_text(json.dumps(doc, sort_keys=True))


def load_checkpoint(path: str | Path) -> Model:
    try:
        doc = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise DataError(f"checkpoint file not found: {path}")
    except json.JSONDecodeError as e:
        raise DataError(f"checkpoint file {path} is not valid JSON: {e}")
    if not isinstance(doc, dict) or doc.get("format") != "bankcast-checkpoint-v1":
        raise DataError(f"unrecognized checkpoint format in {path}")
    try:
        model = Model(ModelConfig(**doc["model_config"]))
        model.set_norm(doc["norm"]["mean"], doc["norm"]["std"])
        state = {
            name: np.array(p["values"], dtype=np.float64).reshape(p["shape"])
            for name, p in doc["params"].items()
        }
        model.store.load_state_dict(state)
        model.holdout = doc.get("holdout")
    except (KeyError, TypeError, ValueError) as e:
        raise DataError(f"checkpoint file {path} is malformed: {type(e).__name__}: {e}")
    return model
