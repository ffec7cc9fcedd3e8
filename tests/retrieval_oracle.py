"""The retrieval the model runs, for query rows of one hour, and the linear
scan that tests compare it with."""

import numpy as np

from bankcast import autodiff as ad
from bankcast.model import RetrievalRow
from bankcast.retrieval import select_top_batch


def brute_force(bank, query, hour, k, temperature, exclude=None):
    """Independent linear scan with explicit tie-breaking, python loops only:
    the top-k entry indices of `hour` (ties to the smaller index) without the
    entries holding the (anchor, region id) pair `exclude`, their softmax
    weights at `temperature`, and their weighted future, raw scale."""
    scored = []
    for idx, e in enumerate(bank.entries):
        if e.hour != hour:
            continue
        if exclude is not None and (e.anchor, e.region_id) == exclude:
            continue
        scored.append((-float(np.dot(bank.keys[idx], query)), idx))
    scored.sort()
    top = scored[:k]
    horizon = bank.futures.shape[1]
    if not top:
        return [], np.empty(0), np.zeros(horizon)
    scores = np.array([-s for s, _ in top])
    idxs = [i for _, i in top]
    z = (scores - scores.max()) / temperature
    w = np.exp(z)
    w = w / w.sum()
    prior = np.zeros(horizon)
    for wi, i in zip(w, idxs):
        prior += wi * bank.futures[i]
    return idxs, w, prior


def model_rows(model, bank, queries, hour, k, temperature, excludes=None) -> list[RetrievalRow]:
    """The two retrieval steps of `Model.forward_batch` on (rows, d_r) unit
    queries of one hour: `select_top_batch`'s picks, padded into (rows, k)
    arrays as `forward_batch` pads them (-1 entries, 0.0 scores), then
    `Model._dense_priors`' weights and prior. One row per query, as
    `Model.forward` reports it: padding dropped, the prior denormalized and
    zero without candidates."""
    queries = np.atleast_2d(queries)
    picks = select_top_batch(bank, queries, hour, k, excludes)
    selected, scores = np.full((len(picks), k), -1), np.zeros((len(picks), k))
    for r, (idx, top) in enumerate(picks):
        selected[r, : idx.size], scores[r, : idx.size] = idx, top
    prior, valid, weights = model._dense_priors(ad.constant(queries), bank, selected, temperature, scores)
    priors = np.where(valid > 0, model.denormalize(prior.value), 0.0)
    return [
        RetrievalRow(indices=s[s >= 0], weights=w[s >= 0], prior=p, valid=bool(v))
        for s, w, p, v in zip(selected, weights, priors, valid[:, 0])
    ]
