"""Time-aware memory bank and retrieval.

Bank entries are (region, anchor, hour, context, true history, future)
windows from a source train split, held as one NumPy record array. Queries
and keys share one encoder that fuses a context branch with a temporal branch
(history concatenated with an hour embedding) and normalizes the output to
the unit sphere.

One routine, `select_top_batch`, does all top-K selection: it filters
candidates to the query hour, scores every query row against the bank's
cached key matrix with one GEMM, drops excluded entries, and keeps the top K
per row (ties to the smaller entry index). The model runs it on a whole
region set; `retrieve` runs it on one query and turns the selection into
softmax weights and a future prior. Only the alignment loss re-encodes its
selected entries so gradients can reach the key-side encoder.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import numerics
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
    e_ctx = ad.matmul(contexts, ad.transpose(params.context_proj))
    e_hour = ad.take_rows(params.hour_table, hours)
    e_dyn = ad.matmul(ad.concat([histories, e_hour], axis=1), ad.transpose(params.temporal_proj))
    z = ad.concat([e_ctx, e_dyn], axis=1)
    h = ad.relu(ad.add(ad.matmul(z, ad.transpose(params.psi_w1)), params.psi_b1))
    out = ad.add(ad.matmul(h, ad.transpose(params.psi_w2)), params.psi_b2)
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
    """One record array of entries plus cached unit-norm keys, partitioned by hour."""

    def __init__(self, entries: np.ndarray):
        if len(entries) == 0:
            raise DataError("memory bank must contain at least one entry")
        self.entries = entries.view(np.recarray)
        self.contexts = np.ascontiguousarray(self.entries["context"])
        self.histories = np.ascontiguousarray(self.entries["history"])
        self.futures = np.ascontiguousarray(self.entries["future"])
        self.hours = np.ascontiguousarray(self.entries["hour"])
        self.anchors = np.ascontiguousarray(self.entries["anchor"])
        self.region_ids = np.ascontiguousarray(self.entries["region_id"])
        self.hour_index: dict[int, np.ndarray] = {
            h: np.flatnonzero(self.hours == h) for h in range(24)
        }
        self.keys: np.ndarray | None = None
        self.hour_keys: dict[int, np.ndarray] = {}
        self.encoder_version: str | None = None

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def horizon(self) -> int:
        return self.futures.shape[1]

    def refresh_keys(self, encode_fn, encoder_version: str) -> None:
        """Recompute all key embeddings (retriever parameters drift during training)."""
        keys = np.asarray(encode_fn(self.contexts, self.histories, self.hours))
        if keys.shape[0] != len(self.entries):
            raise DataError("encoder returned wrong number of keys")
        self.install_keys(keys, encoder_version)

    def install_keys(self, keys: np.ndarray, encoder_version: str) -> None:
        norms = np.linalg.norm(keys, axis=1)
        if not np.allclose(norms, 1.0, atol=1e-9):
            raise DataError("bank keys must be unit-norm")
        self.keys = keys
        self.hour_keys = {h: keys[idx] for h, idx in self.hour_index.items() if idx.size}
        self.encoder_version = encoder_version

    def entry_checksum(self) -> str:
        return hashlib.sha256(self.entries.tobytes()).hexdigest()


def build_bank(
    instances: list[ForecastInstance],
    region_ids: list[int],
    contexts: np.ndarray,
    encode_fn=None,
    encoder_version: str = "",
) -> MemoryBank:
    """One entry per (train window, observable region), ordered by (anchor, region id).

    `contexts` is the full (N, d_c) context matrix indexed by region id;
    `region_ids` restricts entries to regions observable in the source split.
    """
    ids = sorted(region_ids)
    insts = sorted(instances, key=lambda fi: fi.t)
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

    `excludes[i]`, an (anchor, region id) pair or None, drops that entry from
    row i's candidates. Ties go to the smaller entry index; a row is shorter
    than k when its hour bucket, after exclusion, holds fewer entries.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if bank.keys is None:
        raise DataError("bank has no keys; call refresh_keys first")
    n = queries.shape[0]
    cand = bank.hour_index.get(hour, np.empty(0, dtype=np.intp))
    if cand.size == 0:
        return [(cand, np.empty(0))] * n
    scores = queries @ bank.hour_keys[hour].T
    rows = [i for i, ex in enumerate(excludes or []) if ex is not None]
    if rows:
        ex = np.array([excludes[i] for i in rows], dtype=np.int64)
        hit = (bank.anchors[cand] == ex[:, :1]) & (bank.region_ids[cand] == ex[:, 1:])
        scores[rows] = np.where(hit, -np.inf, scores[rows])
    # every candidate scoring at least the k-th largest score survives, so a
    # stable sort of the survivors by -score keeps the smaller-index tie rule
    pivot = cand.size - min(k, cand.size)
    kth = np.partition(scores, pivot, axis=1)[:, pivot]
    out = []
    for i in range(n):
        top = np.flatnonzero(scores[i] >= kth[i])
        top = top[np.argsort(-scores[i, top], kind="stable")[:k]]
        top = top[scores[i, top] > -np.inf]
        out.append((cand[top], scores[i, top]))
    return out


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


def future_nearest_batch(
    bank: MemoryBank, selected: list[np.ndarray], rows: list[int], true_futures: np.ndarray
) -> list[int]:
    """For each listed row, the selected entry whose stored future is L2-closest
    to that row's true future; true_futures is (H, n) raw.

    Ties break to the smaller entry index.
    """
    counts = [selected[i].size for i in rows]
    flat = np.concatenate([selected[i] for i in rows])
    rep = np.repeat(np.arange(len(rows)), counts)
    diff = bank.futures[flat] - true_futures.T[np.asarray(rows)[rep]]
    d2 = np.einsum("ij,ij->i", diff, diff)
    # sorted by (row, distance, entry index), each row's run starts with its winner
    order = np.lexsort((flat, d2, rep))
    return flat[order[np.cumsum([0] + counts[:-1])]].tolist()


def alignment_loss(queries: Var, keys: Var) -> Var:
    """Mean (1 - q . k) over matched rows of unit-norm queries and keys."""
    cos = ad.reduce_sum(ad.mul(queries, keys), axis=1, keepdims=True)
    return ad.mean(ad.sub(ad.constant(np.ones_like(cos.value)), cos))


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
    with open(path, "wb") as f:
        f.write((json.dumps(header, sort_keys=True) + "\n").encode())
        np.save(f, bank.entries, allow_pickle=False)


def load_bank(path: str | Path, expected_encoder_version: str | None = None) -> tuple[MemoryBank, dict]:
    try:
        with open(path, "rb") as f:
            header = json.loads(f.readline())
            if not isinstance(header, dict):
                raise DataError(f"bank file {path} header is not a JSON object")
            if header.get("format") != BANK_FORMAT:
                raise DataError(f"unrecognized bank format {header.get('format')!r} in {path}")
            entries = np.lib.format.read_array(f, allow_pickle=False)
    except FileNotFoundError:
        raise DataError(f"bank file not found: {path}")
    except ValueError as e:
        raise DataError(f"bank file {path} is malformed: {type(e).__name__}: {e}")
    try:
        want = entry_dtype(*(entries.dtype[f].shape[0] for f in ("context", "history", "future")))
    except (KeyError, IndexError):
        want = None
    if want is None or entries.dtype != want or entries.ndim != 1:
        raise DataError(f"bank file {path} holds {entries.dtype} records, not bank entries")
    if header.get("n_entries") != len(entries):
        raise DataError(f"bank file {path} header disagrees with entry count")
    bank = MemoryBank(entries)
    if bank.entry_checksum() != header.get("entry_checksum"):
        raise VersionMismatchError(f"bank file {path} content does not match its checksum")
    if (
        expected_encoder_version is not None
        and header.get("encoder_version") != expected_encoder_version
    ):
        raise VersionMismatchError(
            "bank was built with different retriever parameters than the checkpoint"
        )
    return bank, header
