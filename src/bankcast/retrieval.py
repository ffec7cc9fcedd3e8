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
GEMM, drops excluded entries, and keeps the top K per row (ties to the
smaller entry index). The model runs it on a whole region set; `retrieve`
runs it on one query and turns the selection into softmax weights and a
future prior. Only the alignment loss re-encodes its selected entries so
gradients can reach the key-side encoder.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import numerics
from .artifacts import read_artifact, write_artifact
from .autodiff import ParamStore, Var
from .backbone import glorot
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

    @classmethod
    def init(cls, cfg, rng: np.random.Generator, store: ParamStore) -> "RetrieverParams":
        return cls(
            context_proj=store.register("retriever.context_proj", glorot(rng, cfg.d_ec, cfg.d_c)),
            temporal_proj=store.register(
                "retriever.temporal_proj", glorot(rng, cfg.d_ex, cfg.window + cfg.d_h)
            ),
            hour_table=store.register(
                "retriever.hour_table", rng.normal(0.0, 0.1, size=(24, cfg.d_h))
            ),
            psi_w1=store.register(
                "retriever.psi.w1", glorot(rng, cfg.psi_hidden, cfg.d_ec + cfg.d_ex)
            ),
            psi_b1=store.register("retriever.psi.b1", np.zeros((1, cfg.psi_hidden))),
            psi_w2=store.register("retriever.psi.w2", glorot(rng, cfg.d_r, cfg.psi_hidden)),
            # nonzero output bias: a dead ReLU row must not reach the
            # normalizer with an exactly-zero embedding
            psi_b2=store.register("retriever.psi.b2", rng.normal(0.0, 0.05, size=(1, cfg.d_r))),
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

    @property
    def horizon(self) -> int:
        return self.futures.shape[1]

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
        return _records_checksum(self.entries)

    @cached_property
    def _pair_index(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The bank's distinct anchors and region ids, and its entries ordered
        by (hour, pair code) with their codes: a pair's code is its anchor's
        rank times the number of distinct region ids plus its region id's rank,
        so each hour's slice of the codes is sorted."""
        anchor_values, anchor_rank = np.unique(self.anchors, return_inverse=True)
        rid_values, rid_rank = np.unique(self.region_ids, return_inverse=True)
        codes = anchor_rank * len(rid_values) + rid_rank
        order = np.lexsort((codes, self.hours))
        return anchor_values, rid_values, order, codes[order]

    def find_pairs(self, bucket: slice, pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every entry of one hour's `bucket` that holds one of the (m, 2)
        (anchor, region id) `pairs`: (pair index, entry index) arrays, one
        item per match, so a pair stored twice matches twice."""
        anchor_values, rid_values, order, codes = self._pair_index
        a = np.searchsorted(anchor_values, pairs[:, 0]).clip(max=len(anchor_values) - 1)
        r = np.searchsorted(rid_values, pairs[:, 1]).clip(max=len(rid_values) - 1)
        known = (anchor_values[a] == pairs[:, 0]) & (rid_values[r] == pairs[:, 1])
        # -1 is no entry's code
        query = np.where(known, a * len(rid_values) + r, -1)
        lo = np.searchsorted(codes[bucket], query, "left")
        counts = np.searchsorted(codes[bucket], query, "right") - lo
        which = np.repeat(np.arange(len(pairs)), counts)
        pos = np.arange(counts.sum()) + np.repeat(lo - np.cumsum(counts) + counts, counts)
        return which, order[bucket][pos]


def _records_checksum(entries: np.ndarray) -> str:
    return hashlib.sha256(entries.tobytes()).hexdigest()


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


@dataclass
class RetrievalRow:
    """Selected entries for one region: indices, normalized weights, future prior."""

    indices: np.ndarray  # entry indices into the bank, <= K of them
    weights: np.ndarray  # same length, nonnegative, sums to 1
    prior: np.ndarray  # (H,) weighted average of stored futures, raw scale
    valid: bool  # False when the hour bucket had no candidates


def select_top_batch(
    bank: MemoryBank,
    queries: np.ndarray,
    hour: int,
    k: int,
    excludes: list[tuple[int, int] | None] | None = None,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Top-k entry indices and scores for each query row of one hour.

    `excludes[i]`, an (anchor, region id) pair or None, drops every entry
    holding that pair from row i's candidates; given, it has one item per
    query row. Ties go to the smaller entry index; a row is shorter than k
    when its hour bucket, after exclusion, holds fewer entries.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    n = queries.shape[0]
    if excludes is not None and len(excludes) != n:
        raise ValueError(f"excludes has {len(excludes)} items for {n} query rows")
    if bank.keys is None:
        raise DataError("bank has no keys; call refresh_keys first")
    cand = bank.hour_index.get(hour, np.empty(0, dtype=np.intp))
    if cand.size == 0:
        return [(cand, np.empty(0))] * n
    bucket = slice(cand[0], cand[-1] + 1)
    scores = queries @ bank.keys[bucket].T
    rows = [i for i, ex in enumerate(excludes or []) if ex is not None]
    if rows:
        which, entry = bank.find_pairs(bucket, np.array([excludes[i] for i in rows], dtype=np.int64))
        scores[np.asarray(rows)[which], entry - cand[0]] = -np.inf
    # every candidate scoring at least its row's k-th largest score survives;
    # sorting the survivors by (row, -score, entry index) ranks each row with
    # the smaller-index tie rule, then each row keeps its first k finite ones
    pivot = cand.size - min(k, cand.size)
    kth = np.partition(scores, pivot, axis=1)[:, pivot]
    row, col = np.nonzero(scores >= kth[:, None])
    top = scores[row, col]
    order = np.lexsort((col, -top, row))
    row, col, top = row[order], col[order], top[order]
    counts = np.bincount(row, minlength=n)
    rank = np.arange(row.size) - np.repeat(np.cumsum(counts) - counts, counts)
    keep = (rank < k) & (top > -np.inf)
    ends = np.cumsum(np.bincount(row[keep], minlength=n)).tolist()
    idx, top = cand[col[keep]], top[keep]
    return [(idx[lo:hi], top[lo:hi]) for lo, hi in zip([0] + ends[:-1], ends)]


def retrieve(
    query: np.ndarray,
    bank: MemoryBank,
    hour: int,
    k: int,
    temperature: float,
    exclude: tuple[int, int] | None = None,
) -> RetrievalRow:
    """Hour-filtered top-k retrieval with temperature-softmax weights and future prior."""
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    [(idx, scores)] = select_top_batch(bank, query[None, :], hour, k, [exclude])
    if idx.size == 0:
        return RetrievalRow(
            indices=idx, weights=np.empty(0), prior=np.zeros(bank.horizon), valid=False
        )
    weights = numerics.row_softmax(scores[None, :], temperature)[0]
    prior = weights @ bank.futures[idx]
    return RetrievalRow(indices=idx, weights=weights, prior=prior, valid=True)


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
    checksum = _records_checksum(entries)
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
