"""Time-aware memory bank and retrieval.

Bank entries are (region, anchor, hour, context, true history, future)
windows from a source train split, held once, as one NumPy record array in
(hour, anchor, region id) order: each hour's entries, and their rows of the
cached key matrix, form one contiguous slice, and the bank's column arrays
are views of the records. Queries and keys share one encoder that fuses a
context branch with a temporal branch (history concatenated with an hour
embedding) and normalizes the output to the unit sphere.

One routine, `select_top_batch`, does all top-K selection: it takes the
query hour's slice of the keys, scores every query row against it with one
GEMM, masks out the entries holding each row's excluded (anchor, region id)
pair, and ranks the top K per row with K first-max passes over the score
buffer (ties to the smaller entry index). The model turns its picks into
softmax weights and a future prior, once per distinct query row. Only the
alignment loss re-encodes its selected entries so gradients can reach the
key-side encoder.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .artifacts import read_artifact, sha256_hex, write_artifact
from .autodiff import ParamStore, Var
from .backbone import ParamSpec, glorot, zeros
from .data import ForecastInstance
from .errors import DataError, VersionMismatchError


@dataclass
class RetrieverParams:
    context_proj: Var  # (d_ec, d_c)
    temporal_proj: Var  # (d_ex, W + d_h)
    hour_table: Var  # (24, d_h)
    psi_w1: Var  # (psi_hidden, d_ec + d_ex)
    psi_b1: Var
    psi_w2: Var  # (d_r, psi_hidden)
    psi_b2: Var

    @staticmethod
    def specs(cfg) -> list[ParamSpec]:
        """Every parameter, in the order a new model draws them."""
        return [
            ("retriever.context_proj", (cfg.d_ec, cfg.d_c), glorot),
            ("retriever.temporal_proj", (cfg.d_ex, cfg.window + cfg.d_h), glorot),
            ("retriever.hour_table", (24, cfg.d_h), lambda rng, shape: rng.normal(0.0, 0.1, size=shape)),
            ("retriever.psi.w1", (cfg.psi_hidden, cfg.d_ec + cfg.d_ex), glorot),
            ("retriever.psi.b1", (1, cfg.psi_hidden), zeros),
            ("retriever.psi.w2", (cfg.d_r, cfg.psi_hidden), glorot),
            # nonzero output bias: a dead ReLU row must not reach the
            # normalizer with an exactly-zero embedding
            ("retriever.psi.b2", (1, cfg.d_r), lambda rng, shape: rng.normal(0.0, 0.05, size=shape)),
        ]

    @classmethod
    def from_store(cls, store: ParamStore) -> "RetrieverParams":
        return cls(
            context_proj=store["retriever.context_proj"],
            temporal_proj=store["retriever.temporal_proj"],
            hour_table=store["retriever.hour_table"],
            psi_w1=store["retriever.psi.w1"],
            psi_b1=store["retriever.psi.b1"],
            psi_w2=store["retriever.psi.w2"],
            psi_b2=store["retriever.psi.b2"],
        )


def encode_retrieval(contexts: Var, histories: Var, hours, params: RetrieverParams) -> Var:
    """Joint context-and-dynamics embedding, one unit-norm row per input row.

    The same map serves queries (masked histories allowed, including all-zero)
    and keys (true histories).
    """
    hours = np.asarray(hours, dtype=np.intp)
    if np.any(hours < 0) or np.any(hours >= 24):
        raise ValueError("hour indices must lie in [0, 24)")
    e_ctx = ad.linear(contexts, params.context_proj)
    e_hour = ad.take_rows(params.hour_table, hours)
    e_dyn = ad.linear(ad.concat([histories, e_hour], axis=1), params.temporal_proj)
    z = ad.concat([e_ctx, e_dyn], axis=1)
    h = ad.relu(ad.linear(z, params.psi_w1, params.psi_b1))
    out = ad.linear(h, params.psi_w2, params.psi_b2)
    return ad.l2_normalize_rows(out)


# ---------------------------------------------------------------------------
# the bank


def entry_dtype(d_c: int, window: int, horizon: int) -> np.dtype:
    """A bank entry: int64 ids and hour, then raw-scale float64 context, true
    (unmasked) history and future."""
    i8, f8 = np.int64, np.float64
    return np.dtype([("region_id", i8), ("anchor", i8), ("hour", i8), ("context", f8, (d_c,)),
                     ("history", f8, (window,)), ("future", f8, (horizon,))])


def bank_entries(region_ids, anchors, hours, contexts, histories, futures) -> np.recarray:
    """The bank's record array from its six columns, one row per entry."""
    cols = [np.asarray(c) for c in (region_ids, anchors, hours, contexts, histories, futures)]
    return np.rec.fromarrays(cols, dtype=entry_dtype(*(c.shape[1] for c in cols[3:])))


class MemoryBank:
    """One record array of entries plus cached unit-norm keys, grouped by hour.

    Entries are stored hour-major, so each hour's entries and keys are one
    contiguous slice; the column attributes are views of `entries`, not copies.
    """

    def __init__(self, entries: np.ndarray):
        if len(entries) == 0:
            raise DataError("memory bank must contain at least one entry")
        hours = entries["hour"]
        if hours.min() < 0 or hours.max() >= 24:
            raise DataError(f"bank entry hours must lie in [0, 24), got {hours.min()}..{hours.max()}")
        if np.any(hours[1:] < hours[:-1]):
            # stable, so each hour keeps its entries' given order (and tie rules)
            entries = entries[np.argsort(hours, kind="stable")]
        self.entries = entries.view(np.recarray)
        self.contexts = self.entries["context"]
        self.histories = self.entries["history"]
        self.futures = self.entries["future"]
        self.hours = self.entries["hour"]
        self.anchors = self.entries["anchor"]
        self.region_ids = self.entries["region_id"]
        bounds = np.searchsorted(self.hours, np.arange(25))
        self.hour_index: dict[int, np.ndarray] = {
            h: np.arange(bounds[h], bounds[h + 1]) for h in range(24)
        }
        self.keys: np.ndarray | None = None
        self.encoder_version: str | None = None

    def __len__(self) -> int:
        return len(self.entries)

    def refresh_keys(self, encode_fn, encoder_version: str) -> None:
        """Recompute all key embeddings (retriever parameters drift during training)."""
        self.install_keys(encode_fn(self.contexts, self.histories, self.hours), encoder_version)

    def install_keys(self, keys: np.ndarray, encoder_version: str) -> None:
        keys = np.asarray(keys)
        if keys.ndim != 2 or keys.shape[0] != len(self.entries):
            raise DataError(
                f"bank needs one key row per entry ({len(self.entries)}), got shape {keys.shape}"
            )
        # row norms without a key-sized temporary
        norms = np.sqrt(np.einsum("ij,ij->i", keys, keys))
        if not np.allclose(norms, 1.0, atol=1e-9):
            raise DataError("bank keys must be unit-norm")
        self.keys = keys
        self.encoder_version = encoder_version

    def entry_checksum(self) -> str:
        return sha256_hex(self.entries)


def build_bank(
    instances: list[ForecastInstance],
    region_ids: list[int],
    contexts: np.ndarray,
    encode_fn=None,
    encoder_version: str = "",
) -> MemoryBank:
    """One entry per (train window, observable region), ordered by (hour, anchor, region id).

    `contexts` is the full (N, d_c) context matrix indexed by region id;
    `region_ids` restricts entries to regions observable in the source split.
    """
    ids = sorted(region_ids)
    insts = sorted(instances, key=lambda fi: (fi.hour, fi.t))
    if not ids or not insts:
        raise DataError("memory bank must contain at least one entry")
    bank = MemoryBank(
        bank_entries(
            region_ids=np.tile(ids, len(insts)),
            anchors=np.repeat([fi.t for fi in insts], len(ids)),
            hours=np.repeat([fi.hour for fi in insts], len(ids)),
            contexts=np.tile(contexts[ids], (len(insts), 1)),
            histories=np.concatenate([fi.history[:, ids].T for fi in insts]),
            futures=np.concatenate([fi.future[:, ids].T for fi in insts]),
        )
    )
    if encode_fn is not None:
        bank.refresh_keys(encode_fn, encoder_version)
    return bank


# ---------------------------------------------------------------------------
# retrieval


def select_top_batch(
    bank: MemoryBank,
    queries: np.ndarray,
    hour: int,
    k: int,
    excludes: np.ndarray | None = None,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Top-k entry indices and scores for each query row of one hour.

    `excludes`, an (n, 2) int array with one (anchor, region id) pair per
    query row, drops every entry of the bucket holding row i's pair from row
    i's candidates: one mask compares the pairs with the bucket's anchor and
    region-id columns, so a pair that no entry holds drops nothing. Each
    row is ranked by min(k, bucket) first-max passes over the scores, so
    ties go to the smaller entry index; a row is shorter than k when its
    hour bucket, after exclusion, holds fewer entries. Each returned score
    is the GEMM's value, bit for bit.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    n = queries.shape[0]
    if excludes is not None:
        excludes = np.asarray(excludes)
        if excludes.shape != (n, 2):
            raise ValueError(f"excludes has shape {excludes.shape}, not ({n}, 2) (anchor, region id) pairs")
    if bank.keys is None:
        raise DataError("bank has no keys; call refresh_keys first")
    cand = bank.hour_index.get(hour, np.empty(0, dtype=np.intp))
    if cand.size == 0:
        return [(cand, np.empty(0))] * n
    bucket = slice(cand[0], cand[-1] + 1)
    scores = queries @ bank.keys[bucket].T
    if excludes is not None:
        held = (bank.anchors[bucket] == excludes[:, :1]) & (bank.region_ids[bucket] == excludes[:, 1:])
        scores[held] = -np.inf
    # rank by first-max passes over the GEMM's own buffer: each pass takes
    # every row's largest remaining score (argmax returns the first of equal
    # maxima, so ties go to the smaller entry index), reads it and sets its
    # cell to -inf; a row's finite picks come first, and its -inf picks,
    # once exclusion has emptied it, are dropped. `scores` is a fresh
    # C-contiguous array, so `flat` is a view of it.
    flat = scores.ravel()
    row_start = np.arange(n) * cand.size
    cols = np.empty((n, min(k, cand.size)), dtype=np.intp)
    top = np.empty(cols.shape)
    for j in range(cols.shape[1]):
        cols[:, j] = scores.argmax(axis=1)
        at = row_start + cols[:, j]
        top[:, j] = flat[at]
        flat[at] = -np.inf
    idx = bucket.start + cols
    counts = (top > -np.inf).sum(axis=1).tolist()
    return [(idx[i, :c], top[i, :c]) for i, c in enumerate(counts)]


def future_nearest_batch(bank: MemoryBank, selected: np.ndarray, true_futures: np.ndarray) -> np.ndarray:
    """For each row of the (m, K) `selected` entry indices, -1 marking
    padding, the entry whose stored future is L2-closest to that row's true
    future; true_futures is (m, H) raw. Returns (m,) entry indices.

    Ties break to the smaller entry index; a row of padding alone gives -1.
    """
    # padding reads the last entry, then scores +inf
    diff = bank.futures[selected.ravel()] - np.repeat(true_futures, selected.shape[1], axis=0)
    d2 = np.where(selected < 0, np.inf, np.einsum("ij,ij->i", diff, diff).reshape(selected.shape))
    # among each row's nearest entries, the smallest index
    nearest = d2 == d2.min(axis=1, keepdims=True)
    return np.where(nearest, selected, np.iinfo(selected.dtype).max).min(axis=1)


def alignment_loss(queries: Var, keys: Var, weights: np.ndarray | None = None) -> Var:
    """Weighted sum of (1 - q . k) over matched rows of unit-norm queries and
    keys; `weights` is (rows, 1), by default 1/rows, which gives the mean."""
    cos = ad.reduce_sum(ad.mul(queries, keys), axis=1, keepdims=True)
    if weights is None:
        weights = np.full_like(cos.value, 1.0 / cos.value.shape[0])
    gap = ad.sub(ad.constant(np.ones_like(cos.value)), cos)
    return ad.reduce_sum(ad.mul(gap, ad.constant(weights)))


# ---------------------------------------------------------------------------
# persistence: one JSON header line, then the entry record array as one .npy
# body. Keys are never stored; they are recomputed from the checkpoint.

BANK_FORMAT = "bankcast-bank-v2"


def save_bank(bank: MemoryBank, path: str | Path, config_hash: str | None = None) -> None:
    header = {
        "format": BANK_FORMAT,
        "encoder_version": bank.encoder_version,
        "entry_checksum": bank.entry_checksum(),
        "n_entries": len(bank),
    }
    if config_hash is not None:
        header["config_hash"] = config_hash
    write_artifact(path, header, bank.entries)


def load_bank(path: str | Path, expected_encoder_version: str | None = None) -> tuple[MemoryBank, dict]:
    header, entries = read_artifact(path, BANK_FORMAT, "bank")
    try:
        want = entry_dtype(*(entries.dtype[f].shape[0] for f in ("context", "history", "future")))
    except (KeyError, IndexError):
        want = None
    if want is None or entries.dtype != want or entries.ndim != 1:
        raise DataError(f"bank file {path} holds {entries.dtype} records, not bank entries")
    if header.get("n_entries") != len(entries):
        raise DataError(f"bank file {path} header disagrees with entry count")
    # the header's checksum covers the records in file order, before
    # MemoryBank groups them by hour
    checksum = sha256_hex(entries)
    bank = MemoryBank(entries)
    if checksum != header.get("entry_checksum"):
        raise VersionMismatchError(f"bank file {path} content does not match its checksum")
    if (
        expected_encoder_version is not None
        and header.get("encoder_version") != expected_encoder_version
    ):
        raise VersionMismatchError(
            "bank was built with different retriever parameters than the checkpoint"
        )
    return bank, header
