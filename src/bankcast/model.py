"""Full forecaster: backbone + memory-bank retrieval + gated fusion.

One Model owns the parameter store, the normalization statistics (z-score over
the source train split, stored in checkpoints), and the forward pass: a
batch of forecasting instances over one arbitrary region set, stacked as
region-major rows on one tape (a single instance is a batch of one). The
prior's softmax reads the scores that top-K selection computed against the
bank's cached keys, which are constants: only the backward gathers the
selected keys, to send gradients into the queries. The alignment loss
re-encodes its selected entries so both encoder sides receive gradients.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .artifacts import read_artifact, sha256_hex, write_artifact
from .autodiff import ParamStore, Var
from .backbone import (
    BackboneParams,
    ParamSpec,
    build_adjacency,
    encode_history,
    forecast_head,
    message_pass,
    project_context,
)
from .data import DEFAULT_HORIZON, DEFAULT_WINDOW
from .errors import ConfigError, DataError, VersionMismatchError
from .fusion import FusionParams, fuse
from .retrieval import (
    MemoryBank,
    RetrieverParams,
    alignment_loss,
    encode_retrieval,
    future_nearest_batch,
    select_top_batch,
)


@dataclass(frozen=True)
class ModelConfig:
    d_c: int
    window: int = DEFAULT_WINDOW
    horizon: int = DEFAULT_HORIZON
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


def distinct_query_rows(
    masks: np.ndarray, hours: np.ndarray, exclude_anchors: Sequence[int] | None
) -> tuple[np.ndarray, np.ndarray]:
    """The rows of `Model.forward_batch` whose queries it computes, in
    first-occurrence order, and each row's index among them.

    A row whose mask is 0 holds its region's context, an all-zero history
    and its instance's hour, and its selection reads its exclusion pair
    (the instance's anchor, the region's id): so its key is (region, hour,
    exclusion anchor), and masked rows of one key share one query and one
    selection. Every other row is its own key. The key is one integer, in
    mixed radix over the ranges that occur.
    """
    masks = np.asarray(masks)
    n_inst, n = masks.shape
    inst_of_row = np.tile(np.arange(n_inst), n)
    hour = hours - hours.min()
    anchor = np.zeros(n_inst, dtype=np.int64) if exclude_anchors is None else np.asarray(exclude_anchors)
    anchor = anchor - anchor.min()
    key = (np.repeat(np.arange(n), n_inst) * (hour.max() + 1) + hour[inst_of_row]) * (anchor.max() + 1)
    key = key + anchor[inst_of_row]
    key = np.where(masks.T.ravel() == 0, key, -1 - np.arange(key.size))
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return first[order], rank[inverse]


@dataclass
class RetrievalRow:
    """Selected entries for one region: indices, normalized weights, future prior."""

    indices: np.ndarray  # entry indices into the bank, <= K of them
    weights: np.ndarray  # same length, nonnegative, sums to 1
    prior: np.ndarray  # (H,) weighted average of stored futures, raw scale
    valid: bool  # False when the hour bucket had no candidates


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


def param_specs(config: ModelConfig) -> list[ParamSpec]:
    """Every parameter's (name, shape, initializer), in the order they are drawn."""
    return BackboneParams.specs(config) + RetrieverParams.specs(config) + FusionParams.specs(config)


class Model:
    def __init__(self, config: ModelConfig, seed: int = 0, store: ParamStore | None = None):
        """A model with freshly drawn parameters, or with those of `store`,
        which must hold `param_specs(config)`'s names and shapes."""
        config.validate()
        self.config = config
        if store is None:
            store = ParamStore()
            rng = np.random.default_rng(seed)
            for name, shape, init in param_specs(config):
                store.register(name, init(rng, shape))
        self.store = store
        self.backbone = BackboneParams.from_store(config, store)
        self.retriever = RetrieverParams.from_store(store)
        self.fusion = FusionParams.from_store(store)
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
        """Key embeddings for bank entries (true histories, normalized), in
        the given row order.

        Encodes each run of equal hours as one contiguous slice, without a
        tape: on the hour-major bank that is one slice per hour, so the peak
        memory is one hour bucket's intermediates. On the 14,400- and
        57,600-entry banks the keys matched a whole-bank encoding bit for bit.
        """
        hours = np.asarray(hours)
        keys = np.empty((len(hours), self.config.d_r))
        starts = np.flatnonzero(np.diff(hours, prepend=-1)).tolist()
        with ad.no_grad():
            for lo, hi in zip(starts, starts[1:] + [len(hours)]):
                keys[lo:hi] = encode_retrieval(
                    ad.constant(contexts[lo:hi]),
                    ad.constant(self.normalize(histories_raw[lo:hi])),
                    hours[lo:hi],
                    self.retriever,
                ).value
        return keys

    def refresh_bank(self, bank: MemoryBank) -> None:
        bank.refresh_keys(self.encode_entries, self.encoder_version())

    # -- forward ------------------------------------------------------------

    def region_graph(self, contexts: np.ndarray) -> tuple[Var, Var]:
        """The node embeddings and the adjacency of a region set. They
        depend only on its (n, d_c) contexts and the parameters, so a pass
        that forwards many batches over one region set can build them once."""
        node_embed = project_context(ad.constant(contexts), self.backbone.context_proj)
        return node_embed, build_adjacency(node_embed)

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
        graph: tuple[Var, Var] | None = None,
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
        1/(B·c_b), so it is the mean of the per-instance losses. `graph`,
        `region_graph(contexts)` built by the caller, stands in for
        building it here.

        Rows that share a query and a selection are encoded, selected and
        given their prior once (see `distinct_query_rows`); the queries,
        picks, weights and priors are then gathered back to every row, and
        the fusion and the alignment loss stay per row. In training every
        row's exclusion pair differs, so every row is its own distinct row,
        in row order, and the tape holds no gather.
        """
        hours = np.asarray(hours)
        n_inst, n = len(hours), contexts.shape[0]
        n_rows = n * n_inst
        if region_ids is None:
            region_ids = np.arange(n)
        region_of_row = np.repeat(np.arange(n), n_inst)
        hist_norm = self.normalize(np.asarray(histories)) * np.asarray(masks)[:, None, :]
        hist_rows = ad.constant(hist_norm.transpose(2, 0, 1).reshape(n_rows, -1))

        node_embed, adjacency = self.region_graph(contexts) if graph is None else graph
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

        # encode, select and build the prior of each distinct query once,
        # then hand every row its own
        distinct, inverse = distinct_query_rows(masks, hours, exclude_anchors)
        row_hours = np.tile(hours, n)[distinct]
        queries = encode_retrieval(
            ad.constant(contexts[region_of_row[distinct]]),
            ad.constant(hist_rows.value[distinct]),
            row_hours,
            self.retriever,
        )
        excludes = None
        if exclude_anchors is not None:
            excludes = np.stack([np.tile(exclude_anchors, n), np.asarray(region_ids)[region_of_row]], 1)
            excludes = excludes[distinct]
        selected, scores = np.full((distinct.size, k), -1), np.zeros((distinct.size, k))
        for hour in np.unique(hours):
            rows = np.flatnonzero(row_hours == hour)
            picks = select_top_batch(
                bank, queries.value[rows], int(hour), k, None if excludes is None else excludes[rows]
            )
            # each row fills from its first slot; read row by row, the filled cells take the picks in order
            filled = np.zeros_like(selected, dtype=bool)
            filled[rows] = np.arange(k) < np.array([idx.size for idx, _ in picks])[:, None]
            selected[filled] = np.concatenate([idx for idx, _ in picks])
            scores[filled] = np.concatenate([top for _, top in picks])
        prior, valid, weights = self._dense_priors(queries, bank, selected, temperature, scores)
        if distinct.size < n_rows:
            queries, prior = ad.take_rows(queries, inverse), ad.take_rows(prior, inverse)
            selected, valid, weights = selected[inverse], valid[inverse], weights[inverse]
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
            inst = with_cand % n_inst
            row_weight = 1.0 / (n_inst * np.bincount(inst, minlength=n_inst)[inst])
            l_ret = alignment_loss(ad.take_rows(queries, with_cand), keys_live, row_weight[:, None])
        return ForwardResult(
            y_hat=y_hat, y_tilde=y_tilde, queries=queries, l_ret=l_ret, valid=valid,
            selected=selected, weights=weights, prior=prior,
        )

    def _dense_priors(
        self, queries: Var, bank: MemoryBank, selected: np.ndarray, temperature: float, scores: np.ndarray
    ) -> tuple[Var, np.ndarray, np.ndarray]:
        """Priors, validity flags and (rows, k) weights of the (rows, k)
        `selected` entries (-1 as padding), by one masked softmax over their
        (rows, k) selection `scores` (0.0 at padding).

        The softmax reads the scores that selection computed: the forward
        gathers no key, and `ad.picked_dots` gathers the selected keys only
        in the backward, so gradients still flow into the queries. A padded
        slot scores -inf, so its weight is exactly 0. A row without
        candidates keeps finite scores (all -inf would give NaN) over zero
        futures, so its prior is 0 and passes no gradient.
        """
        n, k = selected.shape
        pad = selected < 0
        valid = ~pad[:, :1]  # selection fills a row from its first slot
        scores = ad.picked_dots(queries, bank.keys, selected, np.where(pad & valid, -np.inf, scores))
        # padding reads the last entry's future, then is masked
        futures = self.normalize(bank.futures[selected.ravel()]).reshape(n, k, -1) * valid[:, :, None]
        alpha = ad.row_softmax(scores, temperature)
        prior = ad.reduce_sum(ad.mul(ad.reshape(alpha, (n, k, 1)), ad.constant(futures)), axis=1)
        return prior, valid.astype(float), np.where(pad, 0.0, alpha.value)

    # perfbench's tracer wraps `Model._ragged_priors` by name; the alias keeps
    # that lookup working now that `_dense_priors` builds every prior
    _ragged_priors = _dense_priors


# ---------------------------------------------------------------------------
# checkpoints: one JSON header line (config, norm, holdout, the (name, shape)
# list of parameters and the SHA-256 of their values followed by the norm's
# mean and std as float64), then every parameter concatenated into one 1-D
# float64 array as one .npy body.

CHECKPOINT_FORMAT = "bankcast-checkpoint-v3"


def save_checkpoint(model: Model, path: str | Path, config_hash: str | None = None) -> None:
    names = model.store.names()
    body = np.concatenate([model.store[name].value.reshape(-1) for name in names])
    header = {
        "format": CHECKPOINT_FORMAT,
        "model_config": asdict(model.config),
        "norm": {"mean": model.norm_mean, "std": model.norm_std},
        "holdout": model.holdout,
        "params": [[name, list(model.store[name].value.shape)] for name in names],
        "params_checksum": sha256_hex(body, np.array([model.norm_mean, model.norm_std])),
    }
    if config_hash is not None:
        header["config_hash"] = config_hash
    write_artifact(path, header, body)


def load_checkpoint(path: str | Path) -> Model:
    header, body = read_artifact(path, CHECKPOINT_FORMAT, "checkpoint")
    if body.dtype != np.float64 or body.ndim != 1:
        raise DataError(f"checkpoint file {path} body is a {body.dtype} array of rank {body.ndim}")
    try:
        config = ModelConfig(**header["model_config"])
        params = header["params"]
        offsets = np.cumsum([0] + [int(np.prod(shape)) for _, shape in params]).tolist()
        if len({name for name, _ in params}) != len(params) or offsets[-1] != body.size:
            raise ValueError(f"the body's {body.size} values do not fit the header's parameter list")
        norm = np.array([header["norm"]["mean"], header["norm"]["std"]], dtype=np.float64)
        if sha256_hex(body, norm) != header.get("params_checksum"):
            raise VersionMismatchError(
                f"checkpoint file {path} parameters and normalization do not match their checksum"
            )
        values = {
            name: body[lo:hi].reshape(shape)
            for (name, shape), lo, hi in zip(params, offsets[:-1], offsets[1:])
        }
        # the store is built from the stored values, in the model's own
        # order, with no initialisation drawn
        expected = {name: shape for name, shape, _ in param_specs(config)}
        stored = {name: v.shape for name, v in values.items()}
        if stored != expected:
            differ = sorted(set(stored.items()) ^ set(expected.items()))
            raise ValueError(f"(name, shape) pairs {differ} differ from the model config's")
        store = ParamStore()
        for name in expected:
            store.register(name, values[name])
        model = Model(config, store=store)
        model.set_norm(*norm)
        model.holdout = header.get("holdout")
    except (KeyError, TypeError, ValueError, ConfigError) as e:
        raise DataError(f"checkpoint file {path} is malformed: {type(e).__name__}: {e}")
    return model
