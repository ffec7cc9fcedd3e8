"""Region/demand data structures, windowing, and the seeded synthetic city generator.

The generator replaces external demand datasets and metadata embeddings with a
controllable stand-in: regions belong to demand archetypes with distinct daily
profiles, and each region's context vector encodes its archetype (one-hot block
plus jitter) together with two spatial coordinates. Same-archetype regions
therefore have nearby contexts and similar dynamics, which is the premise that
makes context-based retrieval meaningful.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import DataError

DEFAULT_WINDOW = 24
DEFAULT_HORIZON = 24
DEFAULT_SPLIT_RATIOS = (0.6, 0.2, 0.2)

CONTEXT_JITTER = 0.1
LOCATION_SPREAD = 0.15
WEEKEND_FACTOR = 0.85
PROFILE_FLOOR = 0.1
PROFILE_WIDTH_HOURS = 1.5
SCALE_JITTER = 0.05  # per-region volume spread, in powers of high/low


@dataclass(frozen=True)
class Region:
    id: int
    context: np.ndarray  # (d_c,) float64, time-invariant descriptor


@dataclass
class CityDataset:
    name: str
    regions: list[Region]
    demand: np.ndarray  # (T_total, N) nonnegative order counts per interval
    hour_of_interval: np.ndarray  # (T_total,) ints in [0, 24)
    split_boundaries: tuple[int, int]  # (train_end, val_end) anchor-time indices
    archetypes: np.ndarray | None = None  # generator ground truth, kept for analysis

    @property
    def n_regions(self) -> int:
        return len(self.regions)

    @property
    def t_total(self) -> int:
        return self.demand.shape[0]

    @property
    def d_c(self) -> int:
        return self.regions[0].context.shape[0]

    def contexts(self) -> np.ndarray:
        """All region contexts stacked as an (N, d_c) matrix, aligned by id."""
        return np.stack([r.context for r in self.regions])

    def validate(self) -> None:
        if self.demand.shape[1] != self.n_regions:
            raise DataError("demand column count does not match region count")
        if [r.id for r in self.regions] != list(range(self.n_regions)):
            raise DataError("region ids must be 0..N-1 in order")
        if len({r.context.shape[0] for r in self.regions}) != 1:
            raise DataError("context dimension differs across regions")
        if not np.all(np.isfinite(self.demand)):
            raise DataError("demand contains non-finite values")
        if self.hour_of_interval.shape[0] != self.t_total:
            raise DataError("hour_of_interval length does not match demand")
        diffs = np.diff(self.hour_of_interval) % 24
        if self.t_total > 1 and not np.all(diffs == 1):
            raise DataError("hour_of_interval must increment by 1 mod 24")
        train_end, val_end = self.split_boundaries
        if not (0 <= train_end < val_end <= self.t_total):
            raise DataError(f"bad split boundaries {self.split_boundaries}")


@dataclass
class ForecastInstance:
    t: int  # anchor: last observed time index
    history: np.ndarray  # (W, N)
    future: np.ndarray  # (H, N)
    mask: np.ndarray  # (N,) of {0.0, 1.0}
    hour: int

    @property
    def window(self) -> int:
        return self.history.shape[0]

    @property
    def horizon(self) -> int:
        return self.future.shape[0]


@dataclass(frozen=True)
class SyntheticSpec:
    n_regions: int = 30
    d_c: int = 16
    n_archetypes: int = 4
    t_total: int = 4281  # 4234 windows at W=H=24 -> 2540/847/847 split
    noise_scale: float = 0.3
    seed: int = 0
    scale_range: tuple[float, float] = (8.0, 20.0)

    def validate(self) -> None:
        if self.n_archetypes < 2:
            raise DataError("need at least 2 archetypes")
        if self.d_c < self.n_archetypes + 2:
            raise DataError("d_c must cover the archetype one-hot block plus 2 location dims")
        if self.t_total < DEFAULT_WINDOW + DEFAULT_HORIZON + 1:
            raise DataError(
                f"t_total={self.t_total} too small for a {DEFAULT_WINDOW}+{DEFAULT_HORIZON} window"
            )
        if self.noise_scale < 0:
            raise DataError("noise_scale must be nonnegative")
        if not (0 < self.scale_range[0] <= self.scale_range[1]):
            raise DataError(f"bad scale_range {self.scale_range}")


def archetype_scale_base(archetype: int, n_archetypes: int, scale_range: tuple[float, float]) -> float:
    """Geometric per-archetype demand volume inside scale_range.

    Volume correlates with archetype (so with context), mirroring how a
    region's function predicts its order volume; a degenerate range collapses
    every archetype to the same scale.
    """
    low, high = scale_range
    ratio = high / low
    return low * ratio ** ((archetype + 0.5) / n_archetypes)


def archetype_profile(archetype: int, n_archetypes: int) -> np.ndarray:
    """Smooth 24-point daily demand curve with an archetype-specific peak hour.

    Deterministic in (archetype, n_archetypes) only, so two cities generated
    with different seeds share the same underlying dynamics per archetype.
    """
    peak = (7 + round(archetype * 24.0 / n_archetypes)) % 24
    hours = np.arange(24)
    circ = np.minimum(np.abs(hours - peak), 24 - np.abs(hours - peak))
    main = np.exp(-0.5 * (circ / PROFILE_WIDTH_HOURS) ** 2)
    echo_peak = (peak + 9) % 24
    circ2 = np.minimum(np.abs(hours - echo_peak), 24 - np.abs(hours - echo_peak))
    echo = 0.35 * np.exp(-0.5 * (circ2 / (1.5 * PROFILE_WIDTH_HOURS)) ** 2)
    return PROFILE_FLOOR + main + echo


def weekday_factor(t: int) -> float:
    return 1.0 if (t // 24) % 7 < 5 else WEEKEND_FACTOR


def generate_synthetic_city(spec: SyntheticSpec, name: str = "synthetic") -> CityDataset:
    """Deterministically build a CityDataset from a SyntheticSpec."""
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    n, d_c, n_arch = spec.n_regions, spec.d_c, spec.n_archetypes

    archetypes = np.arange(n) % n_arch
    bases = np.array([archetype_scale_base(a, n_arch, spec.scale_range) for a in range(n_arch)])
    ratio = spec.scale_range[1] / spec.scale_range[0]
    scales = bases[archetypes] * ratio ** rng.normal(0.0, SCALE_JITTER, size=n)
    cluster_centers = rng.uniform(0.0, 1.0, size=(n_arch, 2))
    locations = cluster_centers[archetypes] + rng.normal(0.0, LOCATION_SPREAD, size=(n, 2))

    contexts = np.zeros((n, d_c))
    contexts[np.arange(n), archetypes] = 1.0
    contexts[:, -2:] = locations
    contexts += rng.normal(0.0, CONTEXT_JITTER, size=(n, d_c))

    hour_of_interval = np.arange(spec.t_total) % 24
    profiles = np.stack([archetype_profile(a, n_arch) for a in range(n_arch)])
    wf = np.array([weekday_factor(t) for t in range(spec.t_total)])
    base = profiles[archetypes][:, hour_of_interval].T * wf[:, None] * scales[None, :]
    noise = spec.noise_scale * scales[None, :] * rng.normal(size=(spec.t_total, n))
    demand = np.maximum(base + noise, 0.0)

    regions = [Region(id=i, context=contexts[i].copy()) for i in range(n)]
    n_windows = spec.t_total - DEFAULT_WINDOW - DEFAULT_HORIZON + 1
    # ratio-derived anchor boundaries, clamped so tiny datasets stay valid
    n_train = max(1, round(n_windows * DEFAULT_SPLIT_RATIOS[0]))
    n_val = round(n_windows * DEFAULT_SPLIT_RATIOS[1])
    first_anchor = DEFAULT_WINDOW - 1
    train_end = first_anchor + n_train
    val_end = min(max(train_end + n_val, train_end + 1), spec.t_total)

    city = CityDataset(
        name=name,
        regions=regions,
        demand=demand,
        hour_of_interval=hour_of_interval,
        split_boundaries=(train_end, val_end),
        archetypes=archetypes,
    )
    city.validate()
    return city


# ---------------------------------------------------------------------------
# windowing and splits


def make_windows(
    city: CityDataset,
    window: int = DEFAULT_WINDOW,
    horizon: int = DEFAULT_HORIZON,
    stride: int = 1,
) -> list[ForecastInstance]:
    """One instance per anchor, full-ones masks, ordered by anchor ascending."""
    if stride < 1:
        raise DataError(f"stride must be >= 1, got {stride}")
    if window + horizon > city.t_total:
        raise DataError("window + horizon exceeds dataset length")
    instances = []
    for t in range(window - 1, city.t_total - horizon, stride):
        instances.append(
            ForecastInstance(
                t=t,
                history=city.demand[t - window + 1 : t + 1].copy(),
                future=city.demand[t + 1 : t + horizon + 1].copy(),
                mask=np.ones(city.n_regions),
                hour=int(city.hour_of_interval[t]),
            )
        )
    if not instances:
        raise DataError("windowing produced no instances")
    return instances


def split_counts(n: int, ratios: tuple[float, float, float]) -> tuple[int, int, int]:
    if any(r <= 0 for r in ratios) or abs(sum(ratios) - 1.0) > 1e-9:
        raise DataError(f"split ratios must be positive and sum to 1, got {ratios}")
    n_train = round(n * ratios[0])
    n_val = round(n * ratios[1])
    n_test = n - n_train - n_val
    if min(n_train, n_val, n_test) <= 0:
        raise DataError(f"split of {n} instances by {ratios} leaves an empty part")
    return n_train, n_val, n_test


def split_windows(
    instances: list[ForecastInstance], ratios: tuple[float, float, float] = DEFAULT_SPLIT_RATIOS
) -> tuple[list[ForecastInstance], list[ForecastInstance], list[ForecastInstance]]:
    """Chronological train/val/test split; sizes round(n*train), round(n*val), remainder."""
    n_train, n_val, _ = split_counts(len(instances), ratios)
    return (
        instances[:n_train],
        instances[n_train : n_train + n_val],
        instances[n_train + n_val :],
    )


def masked_view(instance: ForecastInstance, inactive: set[int] | list[int]) -> ForecastInstance:
    """Copy with history columns of inactive regions zeroed and mask bits cleared.

    Futures are untouched: supervision may still use them for regions whose
    futures are known during training.
    """
    inactive = sorted(set(inactive))
    history = instance.history.copy()
    mask = instance.mask.copy()
    if inactive:
        history[:, inactive] = 0.0
        mask[inactive] = 0.0
    return ForecastInstance(
        t=instance.t,
        history=history,
        future=instance.future.copy(),
        mask=mask,
        hour=instance.hour,
    )


# ---------------------------------------------------------------------------
# persistence


def save_city(city: CityDataset, path: str | Path, config_hash: str | None = None) -> None:
    doc = {
        "name": city.name,
        "d_c": city.d_c,
        "regions": [{"id": r.id, "context": r.context.tolist()} for r in city.regions],
        "demand": {
            "rows": city.demand.shape[0],
            "cols": city.demand.shape[1],
            "values": city.demand.reshape(-1).tolist(),
        },
        "hour0": int(city.hour_of_interval[0]),
        "split_boundaries": list(city.split_boundaries),
    }
    if city.archetypes is not None:
        doc["archetypes"] = city.archetypes.tolist()
    if config_hash is not None:
        doc["config_hash"] = config_hash
    Path(path).write_text(json.dumps(doc, sort_keys=True))


def load_city(path: str | Path) -> CityDataset:
    try:
        doc = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise DataError(f"dataset file not found: {path}")
    except json.JSONDecodeError as e:
        raise DataError(f"dataset file {path} is not valid JSON: {e}")
    try:
        rows, cols = doc["demand"]["rows"], doc["demand"]["cols"]
        demand = np.array(doc["demand"]["values"], dtype=np.float64).reshape(rows, cols)
        regions = [
            Region(id=r["id"], context=np.array(r["context"], dtype=np.float64))
            for r in doc["regions"]
        ]
        hour_of_interval = (int(doc["hour0"]) + np.arange(rows)) % 24
        archetypes = np.array(doc["archetypes"]) if "archetypes" in doc else None
        city = CityDataset(
            name=doc["name"],
            regions=regions,
            demand=demand,
            hour_of_interval=hour_of_interval,
            split_boundaries=tuple(doc["split_boundaries"]),
            archetypes=archetypes,
        )
    except (KeyError, TypeError, ValueError) as e:
        raise DataError(f"dataset file {path} is malformed: {type(e).__name__}: {e}")
    city.validate()
    return city


def make_transfer_pair(
    spec: SyntheticSpec, target_seed: int, names: tuple[str, str] = ("source", "target")
) -> tuple[CityDataset, CityDataset]:
    """Two cities sharing archetype dynamics but with resampled regions/scales."""
    source = generate_synthetic_city(spec, name=names[0])
    target = generate_synthetic_city(replace(spec, seed=target_seed), name=names[1])
    return source, target
