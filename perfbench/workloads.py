"""The benchmark's workloads: inputs from a seed, one timed protocol round, checks.

Each workload drives bankcast only through its public functions, in the order
`bankcast train` and `bankcast eval` use them: train, save the checkpoint and
the bank, load both back (re-encoding the keys), forecast the test split with
the held-out regions masked. The seed given to the benchmark makes every
input: the synthetic cities, the held-out regions and the training seed.

- coldstart-train: the paper's main protocol on the acceptance city, with
  retrieval. A training step spends its time in the per-instance tape and the
  per-query top-K, so retrieval and autodiff changes show here.
- coldstart-graph: the same run with retrieval off. Retrieval changes must
  not move it; backbone, autodiff and Adam changes show undiluted, and its
  epoch time is the denominator of the retrieval-to-graph-only epoch ratio.
- transfer-serve: no backward pass. A model fine-tuned briefly in set-up (so
  the fusion scale is not zero) serves a source-city bank four times the
  acceptance bank; the timed part writes and reads the artifacts and
  forecasts a target city, so selection, encoding and artifact I/O dominate.
"""

from __future__ import annotations

import dataclasses
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import numpy as np

from bankcast import autodiff, data, evaluation, model, retrieval, training
from bankcast.data import DEFAULT_HORIZON, DEFAULT_WINDOW, SyntheticSpec
from bankcast.model import ModelConfig
from bankcast.training import TrainConfig

import checks
from tracing import Tracer, phase

TARGET_SEED_OFFSET = 1000  # the transfer target city is generated from seed + this
NOISE_SCALE = 0.3


@dataclass(frozen=True)
class Sizes:
    """Input sizes; FULL is what the benchmark measures, TINY keeps its tests fast."""

    n_regions: int
    d_c: int
    n_archetypes: int
    city_windows: int  # acceptance city and transfer target
    source_windows: int  # transfer source city, whose train split fills the bank
    n_holdout: int
    epochs: int  # per coldstart round, no early stop
    serve_repeats: int  # save/load/forecast passes after each coldstart training
    finetune_windows: int  # transfer set-up training windows (one epoch)
    finetune_val: int
    model: tuple = ()  # ModelConfig overrides, (name, value) pairs
    train: tuple = ()  # TrainConfig overrides
    grad_coords: int = 12
    honesty_windows: int = 48
    probe_windows: int = 3
    check_baseline: bool = True


FULL = Sizes(
    n_regions=30, d_c=16, n_archetypes=4, city_windows=1200, source_windows=4800,
    n_holdout=10, epochs=2, serve_repeats=3, finetune_windows=64, finetune_val=16,
)
# Too small to learn anything in two epochs, so the hour-of-day comparison
# is left to the full size; the checks' own tests cover it.
TINY = Sizes(
    n_regions=8, d_c=6, n_archetypes=2, city_windows=96, source_windows=192,
    n_holdout=2, epochs=2, serve_repeats=2, finetune_windows=16, finetune_val=8,
    model=(("d_g", 6), ("d_z", 5), ("hidden", 16), ("d_r", 12), ("d_h", 4),
           ("d_ec", 8), ("d_ex", 8), ("psi_hidden", 16)),
    train=(("batch_size", 8), ("n_inactive_per_batch", 2)),
    grad_coords=4, honesty_windows=8, probe_windows=2, check_baseline=False,
)
SIZES = {"full": FULL, "tiny": TINY}


def city_spec(sizes: Sizes, n_windows: int, seed: int) -> SyntheticSpec:
    return SyntheticSpec(
        n_regions=sizes.n_regions,
        d_c=sizes.d_c,
        n_archetypes=sizes.n_archetypes,
        t_total=n_windows + DEFAULT_WINDOW + DEFAULT_HORIZON - 1,
        noise_scale=NOISE_SCALE,
        seed=seed,
    )


def split_regions(n_regions: int, n_holdout: int, seed: int) -> tuple[list[int], list[int]]:
    holdout = evaluation.choose_holdout(n_regions, n_holdout, seed)
    return holdout, [i for i in range(n_regions) if i not in set(holdout)]


@dataclass
class Round:
    """One timed protocol run: its timings and what the checks need."""

    timings: dict[str, float]
    forecasts: int
    loaded: model.Model
    loaded_bank: retrieval.MemoryBank | None
    preds: np.ndarray
    targets: np.ndarray
    cold: evaluation.Metrics
    overall: evaluation.Metrics
    trained: model.Model | None = None
    bank: retrieval.MemoryBank | None = None
    log_rows: list[dict] = field(default_factory=list)


def save_and_load(trained, bank, workdir: Path, tracer: Tracer | None):
    """Write the checkpoint and bank, then read them back as `bankcast eval` does."""
    ckpt, bank_path = workdir / "checkpoint.json", workdir / "bank.jsonl"
    t0 = time.perf_counter()
    with phase(tracer, "bench.save"):
        model.save_checkpoint(trained, ckpt)
        if bank is not None:
            retrieval.save_bank(bank, bank_path)
    t1 = time.perf_counter()
    with phase(tracer, "bench.load"):
        loaded = model.load_checkpoint(ckpt)
        loaded_bank = None
        if bank is not None:
            loaded_bank, _ = retrieval.load_bank(
                bank_path, expected_encoder_version=loaded.encoder_version()
            )
            loaded.refresh_bank(loaded_bank)
    t2 = time.perf_counter()
    return loaded, loaded_bank, t1 - t0, t2 - t1


def forecast(loaded, loaded_bank, city, instances, masked, train_config, tracer):
    """predict_city plus the report's cold-start and overall metrics."""
    t0 = time.perf_counter()
    with phase(tracer, "bench.predict"):
        preds, targets, _ = evaluation.predict_city(
            loaded, city, instances, masked, loaded_bank, train_config, collect_priors=True
        )
        cold = evaluation.metrics(preds[:, masked], targets[:, masked])
        overall = evaluation.metrics(preds, targets)
    return preds, targets, cold, overall, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# coldstart-train and coldstart-graph


@dataclass
class ColdstartInputs:
    city: data.CityDataset
    train: list
    val: list
    test: list
    holdout: list[int]
    observable: list[int]
    model_config: ModelConfig
    train_config: TrainConfig
    serve_repeats: int

    def attempted_per_round(self) -> int:
        batches = -(-len(self.train) // self.train_config.batch_size)
        artifacts = 4 if self.model_config.retrieval_enabled else 2
        return self.train_config.epochs * batches + self.serve_repeats * (len(self.test) + artifacts)


def coldstart_setup(seed: int, sizes: Sizes, retrieval_enabled: bool) -> ColdstartInputs:
    city = data.generate_synthetic_city(city_spec(sizes, sizes.city_windows, seed), name="bench")
    train, val, test = data.split_windows(data.make_windows(city))
    holdout, observable = split_regions(city.n_regions, sizes.n_holdout, seed)
    return ColdstartInputs(
        city=city,
        train=train,
        val=val,
        test=test,
        holdout=holdout,
        observable=observable,
        model_config=ModelConfig(d_c=city.d_c, retrieval_enabled=retrieval_enabled, **dict(sizes.model)),
        train_config=TrainConfig(seed=seed, epochs=sizes.epochs, patience=0, **dict(sizes.train)),
        serve_repeats=sizes.serve_repeats,
    )


def coldstart_round(inp: ColdstartInputs, workdir: Path, tracer: Tracer | None) -> Round:
    """Train once, then save, load and forecast `serve_repeats` times.

    The protocol is the training plus the first pass; the further passes only
    add samples of the short artifact and forecast timings.
    """
    t0 = time.perf_counter()
    with phase(tracer, "bench.train"):
        trained = model.Model(inp.model_config, seed=inp.train_config.seed)
        result = training.train(trained, inp.city, inp.observable, inp.train, inp.val, inp.train_config)
    # per-epoch times from the program's own epoch timer (key refresh, batches, validation)
    timings = {"train_epoch_s": [row["seconds"] for row in result.log_rows], "save_s": [], "load_s": [], "predict_s": []}
    for _ in range(inp.serve_repeats):
        loaded, loaded_bank, save_s, load_s = save_and_load(trained, result.bank, workdir, tracer)
        preds, targets, cold, overall, predict_s = forecast(
            loaded, loaded_bank, inp.city, inp.test, inp.holdout, inp.train_config, tracer
        )
        timings["save_s"].append(save_s)
        timings["load_s"].append(load_s)
        timings["predict_s"].append(predict_s)
        timings.setdefault("protocol_s", time.perf_counter() - t0)
    return Round(
        timings=timings,
        forecasts=len(inp.test) * inp.city.n_regions,
        loaded=loaded,
        loaded_bank=loaded_bank,
        preds=preds,
        targets=targets,
        cold=cold,
        overall=overall,
        trained=trained,
        bank=result.bank,
        log_rows=result.log_rows,
    )


# ---------------------------------------------------------------------------
# transfer-serve


@dataclass
class TransferInputs:
    target: data.CityDataset
    source_train: list
    target_test: list
    holdout: list[int]  # source regions left out of the bank
    observable: list[int]
    target_holdout: list[int]
    trained: model.Model
    bank: retrieval.MemoryBank
    train_config: TrainConfig
    finetune_s: float

    def attempted_per_round(self) -> int:
        return len(self.target_test) + 4


def transfer_setup(seed: int, sizes: Sizes) -> TransferInputs:
    source = data.generate_synthetic_city(city_spec(sizes, sizes.source_windows, seed), name="source")
    target = data.generate_synthetic_city(
        city_spec(sizes, sizes.city_windows, seed + TARGET_SEED_OFFSET), name="target"
    )
    train, val, _ = data.split_windows(data.make_windows(source))
    _, _, target_test = data.split_windows(data.make_windows(target))
    holdout, observable = split_regions(source.n_regions, sizes.n_holdout, seed)
    tc = TrainConfig(seed=seed, epochs=1, patience=0, **dict(sizes.train))
    trained = model.Model(ModelConfig(d_c=source.d_c, **dict(sizes.model)), seed=seed)
    t0 = time.perf_counter()
    training.train(
        trained, source, observable, train[: sizes.finetune_windows], val[: sizes.finetune_val], tc
    )
    finetune_s = time.perf_counter() - t0
    bank = retrieval.build_bank(
        train, observable, source.contexts(), trained.encode_entries, trained.encoder_version()
    )
    return TransferInputs(
        target=target,
        source_train=train,
        target_test=target_test,
        holdout=holdout,
        observable=observable,
        target_holdout=evaluation.choose_holdout(target.n_regions, sizes.n_holdout, seed),
        trained=trained,
        bank=bank,
        train_config=tc,
        finetune_s=finetune_s,
    )


def transfer_round(inp: TransferInputs, workdir: Path, tracer: Tracer | None) -> Round:
    t0 = time.perf_counter()
    loaded, loaded_bank, save_s, load_s = save_and_load(inp.trained, inp.bank, workdir, tracer)
    preds, targets, cold, overall, predict_s = forecast(
        loaded, loaded_bank, inp.target, inp.target_test, inp.target_holdout, inp.train_config, tracer
    )
    return Round(
        timings={
            "protocol_s": time.perf_counter() - t0,
            "save_s": [save_s],
            "load_s": [load_s],
            "predict_s": [predict_s],
        },
        forecasts=len(inp.target_test) * inp.target.n_regions,
        loaded=loaded,
        loaded_bank=loaded_bank,
        preds=preds,
        targets=targets,
        cold=cold,
        overall=overall,
    )


# ---------------------------------------------------------------------------
# gathering what the checks compare


def model_arrays(m: model.Model) -> dict[str, np.ndarray]:
    return {**m.store.state_dict(), "norm": np.array([m.norm_mean, m.norm_std])}


def bank_arrays(bank: retrieval.MemoryBank) -> dict[str, np.ndarray]:
    return {
        "region_ids": np.array([e.region_id for e in bank.entries]),
        "anchors": np.array([e.anchor for e in bank.entries]),
        "hours": bank.hours,
        "contexts": bank.contexts,
        "histories": bank.histories,
        "futures": bank.futures,
        "encoder_version": np.frombuffer(bank.encoder_version.encode(), dtype=np.uint8),
    }


def check_bank(bank, train_windows, observable, holdout) -> None:
    arrays = bank_arrays(bank)
    checks.check_bank_contents(
        arrays["region_ids"], arrays["anchors"], [w.t for w in train_windows], observable, holdout
    )


def check_fresh_keys(m: model.Model, bank: retrieval.MemoryBank) -> None:
    checks.check_keys(bank.keys, m.encode_entries(bank.contexts, bank.histories, bank.hours))


def check_topk_rows(m, bank, contexts, instance, masked, k, temperature, observable=None) -> None:
    """Forward one masked instance and compare every region's retrieval with a scan.

    With `observable`, the call is the training one: only observable regions,
    each excluding its own (anchor, region) entry.
    """
    view = data.masked_view(instance, masked)
    if observable is None:
        ids = np.arange(len(contexts))
        res = m.forward(contexts, view.history, view.mask, view.hour, bank=bank, k=k, temperature=temperature)
    else:
        ids = np.asarray(observable)
        res = m.forward(
            contexts[ids], view.history[:, ids], view.mask[ids], view.hour, bank=bank, k=k,
            temperature=temperature, region_ids=ids, exclude_anchor=instance.t,
        )
    arrays = bank_arrays(bank)
    for i, rid in enumerate(ids):
        excluded = None
        if observable is not None:
            own = np.flatnonzero((arrays["anchors"] == instance.t) & (arrays["region_ids"] == rid))
            excluded = int(own[0]) if own.size else None
        idx, scores = checks.brute_force_topk(
            bank.keys, bank.hours, res.queries.value[i], view.hour, k, excluded
        )
        row = res.rows[i]
        checks.check_retrieval_row(row.indices, row.weights, row.prior, idx, scores, bank.futures, temperature)


def check_mask_honesty(m, bank, city, instances, masked, train_config, preds, seed) -> None:
    """Rewrite the raw demand of the masked regions; the forecasts must not move a bit."""
    demand = city.demand.copy()
    rng = np.random.default_rng((seed, 0xBAD))
    demand[:, masked] = rng.uniform(0.0, 3.0 * city.demand.max(), size=(city.t_total, len(masked)))
    rewritten = dataclasses.replace(city, demand=demand)
    by_anchor = {w.t: w for w in data.make_windows(rewritten)}
    again, _, _ = evaluation.predict_city(
        m, rewritten, [by_anchor[w.t] for w in instances], masked, bank, train_config
    )
    checks.check_bit_identical(again, preds[: len(instances)], "forecasts after rewriting masked demand")


def gradient_pairs(m, bank, inp: ColdstartInputs, n_coords: int, seed: int) -> list[tuple[str, float, float]]:
    """Analytic gradient of one training batch loss vs the benchmark's central differences.

    Coordinates are drawn among those with a nonzero gradient. A coordinate
    whose perturbation changes a top-K selection sits on a boundary of the
    piecewise-smooth loss, where a difference quotient is not a derivative;
    it is skipped and another is drawn.
    """
    tc = inp.train_config
    rng = np.random.default_rng((seed, 0x6AD))
    contexts = inp.city.contexts()
    pick = rng.choice(len(inp.train), size=min(tc.batch_size, len(inp.train)), replace=False)
    batch = [inp.train[i] for i in sorted(pick)]
    _, inactive = training.sample_active(inp.observable, tc.n_inactive_per_batch, rng)

    selections: list[bytes] = []
    select = model.select_top_batch

    def recording_select(*args, **kwargs):
        out = select(*args, **kwargs)
        selections.extend(idx.tobytes() for idx, _ in out)
        return out

    def batch_loss():
        selections.clear()
        totals = [
            training.instance_loss(m, inst, contexts, inp.observable, inactive, bank, tc)[0]
            for inst in batch
        ]
        total = totals[0]
        for t in totals[1:]:
            total = autodiff.add(total, t)
        return autodiff.mul(total, 1.0 / len(totals))

    eps = 1e-6
    model.select_top_batch = recording_select
    try:
        m.store.zero_grad()
        root = batch_loss()
        base = list(selections)
        autodiff.backward(root)
        grads = m.store.grads()
        m.store.zero_grad()
        names = sorted(grads)
        flat = np.concatenate([grads[n].reshape(-1) for n in names])
        offsets = np.cumsum([0] + [grads[n].size for n in names])
        pairs = []
        for j in rng.permutation(np.flatnonzero(flat))[: 4 * n_coords]:
            which = int(np.searchsorted(offsets, j, side="right") - 1)
            name, i = names[which], int(j - offsets[which])
            var = m.store[name]
            pos = np.unravel_index(i, var.value.shape)
            orig = var.value[pos]
            var.value[pos] = orig + eps
            plus = float(batch_loss().value)
            moved = selections != base
            var.value[pos] = orig - eps
            minus = float(batch_loss().value)
            moved = moved or selections != base
            var.value[pos] = orig
            if moved:
                continue
            pairs.append((f"{name}[{i}]", float(flat[j]), (plus - minus) / (2.0 * eps)))
            if len(pairs) == n_coords:
                break
    finally:
        model.select_top_batch = select
    return pairs


# ---------------------------------------------------------------------------
# per-workload check lists: (name, callable) pairs, run after the timed part


def coldstart_checks(inp: ColdstartInputs, first_preds: np.ndarray, last: Round, sizes: Sizes, seed: int):
    tc = inp.train_config
    anchors = [w.t for w in inp.test]
    contexts = inp.city.contexts()
    retrieval_on = inp.model_config.retrieval_enabled
    sliced = checks.expected_targets(inp.city.demand, anchors, DEFAULT_HORIZON)
    everyone = list(range(inp.city.n_regions))

    def loss_curve():
        checks.check_loss_curve(
            [r["train_loss"] for r in last.log_rows], [r["val_mae"] for r in last.log_rows]
        )

    def metrics():
        checks.check_metrics(last.preds, last.targets, sliced, inp.holdout, last.cold.mae, last.cold.rmse)
        checks.check_metrics(last.preds, last.targets, sliced, everyone, last.overall.mae, last.overall.rmse)

    def baseline():
        hod = checks.hour_of_day_forecast(
            inp.city.demand, inp.city.hour_of_interval, inp.observable, inp.train[-1].t + 1,
            anchors, DEFAULT_HORIZON,
        )
        base_mae = float(np.mean(np.abs(hod[:, None, :] - sliced[:, inp.holdout])))
        checks.check_beats_baseline(last.cold.mae, base_mae)

    def round_trip():
        checks.check_round_trip(model_arrays(last.trained), model_arrays(last.loaded), "checkpoint")
        if retrieval_on:
            checks.check_round_trip(bank_arrays(last.bank), bank_arrays(last.loaded_bank), "bank")

    def bank_contents():
        for b in (last.bank, last.loaded_bank):
            check_bank(b, inp.train, inp.observable, inp.holdout)

    def keys():
        check_fresh_keys(last.trained, last.bank)
        check_fresh_keys(last.loaded, last.loaded_bank)

    def topk():
        for w in inp.test[: sizes.probe_windows]:
            check_topk_rows(last.loaded, last.loaded_bank, contexts, w, inp.holdout, tc.k, tc.temperature)
        _, inactive = training.sample_active(inp.observable, tc.n_inactive_per_batch, np.random.default_rng(seed))
        check_topk_rows(
            last.loaded, last.loaded_bank, contexts, inp.train[len(inp.train) // 2], inactive,
            tc.k, tc.temperature, observable=inp.observable,
        )

    def fused_is_backbone():
        for w in inp.test[: sizes.probe_windows]:
            view = data.masked_view(w, inp.holdout)
            res = last.loaded.forward(contexts, view.history, view.mask, view.hour)
            checks.check_fused_is_backbone(res.y_hat.value, res.y_tilde.value)

    def mask_honesty():
        check_mask_honesty(
            last.loaded, last.loaded_bank, inp.city, inp.test[: sizes.honesty_windows],
            inp.holdout, tc, last.preds, seed,
        )

    def gradient():
        checks.check_gradients(gradient_pairs(last.loaded, last.loaded_bank, inp, sizes.grad_coords, seed))

    def reproducible():
        checks.check_bit_identical(first_preds, last.preds, "forecasts of the first and last rounds")

    out = [("loss_curve", loss_curve), ("metrics", metrics)]
    if sizes.check_baseline:
        out.append(("beats_hour_of_day_mean", baseline))
    out.append(("round_trip", round_trip))
    if retrieval_on:
        out += [("bank_contents", bank_contents), ("keys", keys), ("topk_oracle", topk)]
    else:
        out.append(("fused_is_backbone", fused_is_backbone))
    out += [("mask_honesty", mask_honesty), ("gradient", gradient), ("rounds_reproduce", reproducible)]
    return out


def transfer_checks(inp: TransferInputs, first_preds: np.ndarray, last: Round, sizes: Sizes, seed: int):
    tc = inp.train_config
    anchors = [w.t for w in inp.target_test]
    sliced = checks.expected_targets(inp.target.demand, anchors, DEFAULT_HORIZON)
    everyone = list(range(inp.target.n_regions))

    def fusion_scale():
        scale = float(inp.trained.fusion.scale.value.reshape(-1)[0])
        if scale == 0.0:
            raise checks.CheckFailed("fusion.scale is still 0 after the set-up training")

    def metrics():
        checks.check_metrics(last.preds, last.targets, sliced, inp.target_holdout, last.cold.mae, last.cold.rmse)
        checks.check_metrics(last.preds, last.targets, sliced, everyone, last.overall.mae, last.overall.rmse)

    def round_trip():
        checks.check_round_trip(model_arrays(inp.trained), model_arrays(last.loaded), "checkpoint")
        checks.check_round_trip(bank_arrays(inp.bank), bank_arrays(last.loaded_bank), "bank")

    def bank_contents():
        check_bank(last.loaded_bank, inp.source_train, inp.observable, inp.holdout)

    def keys():
        check_fresh_keys(last.loaded, last.loaded_bank)

    def topk():
        contexts = inp.target.contexts()
        for w in inp.target_test[: sizes.probe_windows]:
            check_topk_rows(
                last.loaded, last.loaded_bank, contexts, w, inp.target_holdout, tc.k, tc.temperature
            )

    def mask_honesty():
        check_mask_honesty(
            last.loaded, last.loaded_bank, inp.target, inp.target_test[: sizes.honesty_windows],
            inp.target_holdout, tc, last.preds, seed,
        )

    def reproducible():
        checks.check_bit_identical(first_preds, last.preds, "forecasts of the first and last rounds")

    return [
        ("fusion_scale_nonzero", fusion_scale),
        ("metrics", metrics),
        ("round_trip", round_trip),
        ("bank_contents", bank_contents),
        ("keys", keys),
        ("topk_oracle", topk),
        ("mask_honesty", mask_honesty),
        ("rounds_reproduce", reproducible),
    ]


# ---------------------------------------------------------------------------
# the runner


@dataclass(frozen=True)
class Workload:
    setup: object  # (seed, sizes) -> inputs
    round: object  # (inputs, workdir, tracer) -> Round
    checks: object  # (inputs, first round's preds, last round, sizes, seed) -> [(name, callable)]
    setups_per_round: int  # more samples of a set-up that takes milliseconds


WORKLOADS = {
    "coldstart-train": Workload(
        lambda seed, sizes: coldstart_setup(seed, sizes, retrieval_enabled=True),
        coldstart_round, coldstart_checks, setups_per_round=20,
    ),
    "coldstart-graph": Workload(
        lambda seed, sizes: coldstart_setup(seed, sizes, retrieval_enabled=False),
        coldstart_round, coldstart_checks, setups_per_round=20,
    ),
    "transfer-serve": Workload(transfer_setup, transfer_round, transfer_checks, setups_per_round=1),
}


@dataclass
class Outcome:
    rounds: list[dict]  # per round: train_epoch_s, protocol_s, and lists of setup_s, save_s, load_s, predict_s
    forecasts: int
    attempted: int
    peak_rss_mb: float
    checks: dict[str, str]  # name -> "ok" or the failure reason
    reference_protocol_s: list[float] = field(default_factory=list)  # untraced rounds of a traced run

    @property
    def correct(self) -> bool:
        return all(v == "ok" for v in self.checks.values())


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(name: str, seed: int, seconds: float, sizes: Sizes, workdir: Path, tracer: Tracer | None) -> Outcome:
    """Run whole (set-up, round) pairs for `seconds`, then check the last round.

    Every round starts from a fresh set-up, so the set-up samples are spread
    over the run like the round samples. With a tracer, each traced pair
    follows an untraced one, so that the tracing overhead can be reported.
    """
    wl = WORKLOADS[name]

    def setup_and_round(tr: Tracer | None) -> tuple[object, Round]:
        setup_s = []
        for _ in range(wl.setups_per_round):
            inputs = None  # free the previous set-up before building the next
            with phase(tr, "bench.setup"):
                t0 = time.perf_counter()
                inputs = wl.setup(seed, sizes)
                setup_s.append(time.perf_counter() - t0)
        with phase(tr, "bench.round"):
            r = wl.round(inputs, workdir, tr)
        r.timings["setup_s"] = setup_s
        if isinstance(inputs, TransferInputs):
            # transfer-serve trains only in set-up: its epoch is the one-epoch fine-tune
            r.timings["train_epoch_s"] = [inputs.finetune_s]
        return inputs, r

    timings, reference, first_preds, inputs, last = [], [], None, None, None
    start = time.perf_counter()
    # a pair starts only if one of the mean length so far would end nearer to
    # `seconds` than the run ends now, so that runs last `seconds` on average
    spent = 0.0
    while not timings or time.perf_counter() - start + spent / len(timings) / 2 <= seconds:
        t_pair = time.perf_counter()
        inputs, last = None, None  # free the previous pair before building the next
        if tracer is not None:
            reference.append(setup_and_round(None)[1].timings["protocol_s"])
            tracer.install_layers()
        try:
            inputs, last = setup_and_round(tracer)
        finally:
            if tracer is not None:
                tracer.restore()
        timings.append(last.timings)
        spent += time.perf_counter() - t_pair
        if first_preds is None:
            first_preds = last.preds
    peak = peak_rss_mb()

    results = {}
    for check_name, fn in wl.checks(inputs, first_preds, last, sizes, seed):
        try:
            fn()
            results[check_name] = "ok"
        except checks.CheckFailed as e:
            results[check_name] = str(e)
    return Outcome(
        rounds=timings,
        forecasts=last.forecasts,
        attempted=(len(timings) + len(reference)) * inputs.attempted_per_round(),
        peak_rss_mb=peak,
        checks=results,
        reference_protocol_s=reference,
    )


def end_to_end(outcome: Outcome) -> dict[str, dict]:
    """Every timing as the median over all of the run's samples of it.

    On a shared 2-vCPU machine the same operation ran at two speeds up to 60%
    apart, switching every few seconds, so a run's fastest sample depends on
    whether it caught a fast moment; the median over samples spread across
    the whole run follows the machine's typical speed in that run instead.
    """
    r = outcome.rounds

    def med(key: str) -> float:
        return float(median(v for t in r for v in t[key]))

    values = {
        "setup_s": (med("setup_s"), "s"),
        "train_epoch_s": (med("train_epoch_s"), "s"),
        "eval_forecasts_per_s": (outcome.forecasts / med("predict_s"), "1/s"),
        "artifact_save_s": (med("save_s"), "s"),
        "artifact_load_s": (med("load_s"), "s"),
        "protocol_s": (float(median(t["protocol_s"] for t in r)), "s"),
        "peak_rss_mb": (outcome.peak_rss_mb, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
