"""Spans recorded from outside the program, around calls into each layer.

`Tracer.install_layers` replaces the public functions of each bankcast layer
with timing wrappers, at the module attribute where the caller looks them up
(for example `bankcast.model.select_top_batch`, since `model.py` imports the
name). `Tracer.restore` puts the originals back. Spans live in memory as
`[name, start, end, parent]` lists and are written out once, at the end of
the run.

Every span belongs to the top-level span that encloses it: `bench.setup` for
input generation, `bench.round` for the timed protocol. Per-layer metrics are
taken from the spans under `bench.round` and reported per round, except
`data.windows.s`, which is a set-up cost and is reported per set-up.
"""

from __future__ import annotations

import json
import os
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np

from bankcast import autodiff, data, evaluation, model, retrieval, training

BACKBONE_FUNCTIONS = (
    "project_context",
    "build_adjacency",
    "encode_history",
    "message_pass",
    "forecast_head",
)


def phase(tracer: "Tracer | None", name: str):
    """A span when tracing, nothing otherwise."""
    return nullcontext() if tracer is None else tracer.span(name)


def count_tape_nodes(root) -> int:
    """Nodes reachable from `root` through the autodiff parent links."""
    seen = {id(root)}
    stack = [root]
    while stack:
        node = stack.pop()
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


class Tracer:
    """In-memory span recorder plus the per-layer wrappers that feed it."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.peaks: dict[tuple[str, str], float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, 0.0, 0.0, parent]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def phase_name(self) -> str:
        """Name of the open top-level span, which the counts are filed under."""
        return self.spans[self._stack[0]][0] if self._stack else ""

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    def add(self, key: str, value: float) -> None:
        self.counts[(self.phase_name(), key)] += value

    # -- wrapping -----------------------------------------------------------

    def wrap(self, owner, attr: str, name, count=None, peak_key: str | None = None) -> None:
        """Replace `owner.attr` by a wrapper that records one span per call.

        `name` is a span name or a function of the tracer giving one;
        `count(tracer, result, *args, **kwargs)` runs after the span closes;
        with `peak_key`, the call's peak traced allocation (MB) is kept too.
        """
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if peak_key is not None:
                tracemalloc.start()
            rec = tracer._open(name(tracer) if callable(name) else name)
            try:
                out = original(*args, **kwargs)
            finally:
                tracer._close(rec)
                if peak_key is not None:
                    _, peak = tracemalloc.get_traced_memory()
                    tracemalloc.stop()
                    key = (tracer.phase_name(), peak_key)
                    tracer.peaks[key] = max(tracer.peaks[key], peak / 2**20)
            if count is not None:
                count(tracer, out, *args, **kwargs)
            return out

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install_layers(self) -> None:
        """Wrap the public entry points of every layer the benchmark reports on."""
        w = self.wrap
        # retrieval
        w(model, "select_top_batch", "retrieval.select", count=_count_select)
        w(
            model,
            "encode_retrieval",
            lambda t: "retrieval.encode.refresh"
            if t.inside("retrieval.refresh_keys")
            else "retrieval.encode",
            count=_count_encode,
        )
        w(
            retrieval.MemoryBank,
            "refresh_keys",
            "retrieval.refresh_keys",
            count=lambda t, out, bank, *a, **k: t.add("retrieval.refresh_keys.entries", len(bank)),
            peak_key="retrieval.refresh_keys.peak_mb",
        )
        w(model, "future_nearest_batch", "retrieval.future_nearest")
        w(retrieval, "save_bank", "retrieval.save_bank", count=_count_bytes("retrieval.save_bank.bytes"))
        w(retrieval, "load_bank", "retrieval.load_bank")
        # model
        w(model.Model, "forward", "model.forward", count=lambda t, *a, **k: t.add("model.forward.calls", 1))
        w(model.Model, "_dense_priors", "model.prior.dense")
        w(model.Model, "_ragged_priors", "model.prior.ragged")
        w(model, "save_checkpoint", "model.checkpoint_save", count=_count_bytes("model.checkpoint_save.bytes"))
        w(model, "load_checkpoint", "model.checkpoint_load")
        # backbone and fusion, as the forward pass calls them
        for fn in BACKBONE_FUNCTIONS:
            w(model, fn, f"backbone.{fn}")
        w(model, "fuse", "fusion.fuse")
        # autodiff: training calls `ad.backward`, looked up on the module
        w(autodiff, "backward", "autodiff.backward", count=_count_backward)
        # training
        w(training, "train", "training.train")
        w(training, "instance_loss", "training.instance_loss",
          count=lambda t, *a, **k: t.add("training.instances", 1))
        w(training.Adam, "step", "training.adam")
        w(training, "clip_gradients", "training.clip")
        w(training, "validation_metrics", "training.validation")
        # evaluation
        w(evaluation, "predict_city", "evaluation.predict", count=_count_predict)
        # data
        w(data, "make_windows", "data.windows")
        w(training, "masked_view", "data.masked_view")
        w(evaluation, "masked_view", "data.masked_view")

    # -- reduction ----------------------------------------------------------

    def aggregate(self) -> dict[tuple[str, str], dict]:
        """(top-level span name, span name) -> calls, total and self seconds."""
        n = len(self.spans)
        child = np.zeros(n)
        top = [0] * n
        for i, (name, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += end - start
                top[i] = top[parent]
            else:
                top[i] = i
        out: dict[tuple[str, str], dict] = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            key = (self.spans[top[i]][0], name)
            agg = out.setdefault(key, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += end - start - child[i]
        return out

    def write(self, path: Path, meta: dict) -> None:
        doc = {
            "meta": meta,
            "fields": ["name", "start", "end", "parent"],
            "spans": self.spans,
            "aggregate": [
                {"phase": phase_name, "name": name, **agg}
                for (phase_name, name), agg in sorted(self.aggregate().items())
            ],
        }
        path.write_text(json.dumps(doc))


def _count_select(t: Tracer, out, bank, queries, hour, k, excludes=None) -> None:
    n = queries.shape[0]
    t.add("retrieval.select.queries", n)
    t.add("retrieval.select.candidates", n * bank.hour_index[hour].size)
    t.add("retrieval.select.kept", sum(idx.size for idx, _ in out))


def _count_encode(t: Tracer, out, *args, **kwargs) -> None:
    if not t.inside("retrieval.refresh_keys"):
        t.add("retrieval.encode.rows", out.value.shape[0])


def _count_bytes(key: str):
    def count(t: Tracer, out, obj, path, *args, **kwargs) -> None:
        t.add(key, os.path.getsize(path))

    return count


def _count_backward(t: Tracer, out, root) -> None:
    t.add("autodiff.tape_nodes", count_tape_nodes(root))
    t.add("autodiff.backward.calls", 1)


def _count_predict(t: Tracer, out, model_, city, instances, *args, **kwargs) -> None:
    t.add("evaluation.predict.forecasts", len(instances) * city.n_regions)


# (metric name, unit, better); the order is the order of BENCHMARK.json
PER_LAYER = (
    ("retrieval.select.s", "s", "lower"),
    ("retrieval.select.queries", "count", "higher"),
    ("retrieval.select.candidates", "count", "lower"),
    ("retrieval.select.kept_ratio", "ratio", "higher"),
    ("retrieval.encode.s", "s", "lower"),
    ("retrieval.encode.rows", "count", "lower"),
    ("retrieval.refresh_keys.s", "s", "lower"),
    ("retrieval.refresh_keys.entries", "count", "lower"),
    ("retrieval.refresh_keys.peak_mb", "MB", "lower"),
    ("retrieval.future_nearest.s", "s", "lower"),
    ("retrieval.save_bank.s", "s", "lower"),
    ("retrieval.save_bank.bytes", "bytes", "lower"),
    ("retrieval.load_bank.s", "s", "lower"),
    ("model.forward.self_s", "s", "lower"),
    ("model.forward.calls", "count", "lower"),
    ("model.prior.s", "s", "lower"),
    ("model.prior.dense_share", "ratio", "higher"),
    ("model.checkpoint_save.s", "s", "lower"),
    ("model.checkpoint_save.bytes", "bytes", "lower"),
    ("model.checkpoint_load.s", "s", "lower"),
    ("backbone.s", "s", "lower"),
    ("fusion.fuse.s", "s", "lower"),
    ("autodiff.backward.s", "s", "lower"),
    ("autodiff.backward.calls", "count", "lower"),
    ("autodiff.tape_nodes", "count", "lower"),
    ("training.adam.s", "s", "lower"),
    ("training.clip.s", "s", "lower"),
    ("training.validation.s", "s", "lower"),
    ("training.instances", "count", "higher"),
    ("evaluation.predict.s", "s", "lower"),
    ("evaluation.predict.forecasts", "count", "higher"),
    ("data.windows.s", "s", "lower"),
    ("data.masked_view.s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
)


def layer_metrics(tracer: Tracer, n_rounds: int, overhead_s: float, untraced_s: float) -> dict:
    """Per-layer values per round, except `data.windows.s`, which is per set-up."""
    agg = tracer.aggregate()

    def total(name: str, phase_name: str = "bench.round") -> float:
        return agg.get((phase_name, name), {}).get("total_s", 0.0)

    def count(key: str) -> float:
        return tracer.counts.get(("bench.round", key), 0.0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    dense = agg.get(("bench.round", "model.prior.dense"), {}).get("calls", 0)
    ragged = agg.get(("bench.round", "model.prior.ragged"), {}).get("calls", 0)
    per_round = {
        "retrieval.select.s": total("retrieval.select"),
        "retrieval.select.queries": count("retrieval.select.queries"),
        "retrieval.select.candidates": count("retrieval.select.candidates"),
        "retrieval.encode.s": total("retrieval.encode"),
        "retrieval.encode.rows": count("retrieval.encode.rows"),
        "retrieval.refresh_keys.s": total("retrieval.refresh_keys"),
        "retrieval.refresh_keys.entries": count("retrieval.refresh_keys.entries"),
        "retrieval.future_nearest.s": total("retrieval.future_nearest"),
        "retrieval.save_bank.s": total("retrieval.save_bank"),
        "retrieval.save_bank.bytes": count("retrieval.save_bank.bytes"),
        "retrieval.load_bank.s": total("retrieval.load_bank"),
        "model.forward.self_s": agg.get(("bench.round", "model.forward"), {}).get("self_s", 0.0),
        "model.forward.calls": count("model.forward.calls"),
        "model.prior.s": total("model.prior.dense") + total("model.prior.ragged"),
        "model.checkpoint_save.s": total("model.checkpoint_save"),
        "model.checkpoint_save.bytes": count("model.checkpoint_save.bytes"),
        "model.checkpoint_load.s": total("model.checkpoint_load"),
        "backbone.s": sum(total(f"backbone.{fn}") for fn in BACKBONE_FUNCTIONS),
        "fusion.fuse.s": total("fusion.fuse"),
        "autodiff.backward.s": total("autodiff.backward"),
        "autodiff.backward.calls": count("autodiff.backward.calls"),
        "training.adam.s": total("training.adam"),
        "training.clip.s": total("training.clip"),
        "training.validation.s": total("training.validation"),
        "training.instances": count("training.instances"),
        "evaluation.predict.s": total("evaluation.predict"),
        "evaluation.predict.forecasts": count("evaluation.predict.forecasts"),
        "data.masked_view.s": total("data.masked_view"),
    }
    values = {name: v / n_rounds for name, v in per_round.items()}
    values["retrieval.select.kept_ratio"] = ratio(
        count("retrieval.select.kept"), count("retrieval.select.candidates")
    )
    values["retrieval.refresh_keys.peak_mb"] = tracer.peaks.get(
        ("bench.round", "retrieval.refresh_keys.peak_mb"), 0.0
    )
    values["model.prior.dense_share"] = ratio(dense, dense + ragged)
    values["autodiff.tape_nodes"] = ratio(
        count("autodiff.tape_nodes"), count("autodiff.backward.calls")
    )
    n_setups = agg.get(("bench.setup", "bench.setup"), {}).get("calls", 0)
    values["data.windows.s"] = ratio(total("data.windows", "bench.setup"), n_setups)
    values["trace.overhead_s"] = overhead_s
    values["trace.overhead_share"] = ratio(overhead_s, untraced_s)
    values["trace.spans"] = len(tracer.spans) / n_rounds  # set-up spans included
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
