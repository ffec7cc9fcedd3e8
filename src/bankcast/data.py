"""The city dataset, windowing, and the seeded synthetic city generator.

A city holds what its dataset file holds: an (N, d_c) context matrix, a (T, N)
demand matrix and the hour of day of its first interval.

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

from .artifacts import write_text
from .errors import DataError

DEFAULT_WINDOW = 24
DEFAULT_HORIZON = 24
SPLIT_RATIOS = (0.6, 0.2, 0.2)  # the paper's chronological train/val/test split

CONTEXT_JITTER = 0.1
LOCATION_SPREAD = 0.15
WEEKEND_FACTOR = 0.85
PROFILE_FLOOR = 0.1
PROFILE_WIDTH_HOURS = 1.5
SCALE_RANGE = (8.0, 20.0)  # (low, high) archetype demand volume
SCALE_JITTER = 0.05  # per-region volume spread, in powers of high/low


@dataclass
class CityDataset:
    name: str
    region_contexts: np.ndarray  # (N, d_c) float64, read-only; row i describes region i
    demand: np.ndarray  # (T_total, N) nonnegative order counts per interval
    hour0: int  # hour of day of interval 0, in [0, 24)
    archetypes: np.ndarray | None = None  # generator ground truth, kept for analysis

    def __post_init__(self) -> None:
        self.region_contexts = self.region_contexts.view()
        self.region_contexts.flags.writeable = False

    @property
    def n_regions(self) -> int:
        return self.region_contexts.shape[0]

    @property
    def t_total(self) -> int:
        return self.demand.shape[0]

    @property
    def d_c(self) -> int:
        return self.region_contexts.shape[1]

    @property
    def hour_of_interval(self) -> np.ndarray:
        """(T_total,) hour of day of each interval."""
        return (self.hour0 + np.arange(self.t_total)) % 24

    def contexts(self) -> np.ndarray:
        """The read-only (N, d_c) context matrix, aligned by region id."""
        return self.region_contexts

    def validate(self) -> None:
        """Every check on a city; `load_city` adds the rule on region ids,
        since only a file carries ids."""
        if self.region_contexts.ndim != 2:
            raise DataError(f"region contexts form a {self.region_contexts.shape} array, not (n_regions, d_c)")
        if not np.all(np.isfinite(self.region_contexts)):
            raise DataError("region contexts contain non-finite values")
        if self.demand.ndim != 2 or self.demand.shape[1] != self.n_regions:
            raise DataError(f"demand has shape {self.demand.shape}, not (t_total, {self.n_regions})")
        if not np.all(np.isfinite(self.demand)):
            raise DataError("demand contains non-finite values")
        if not 0 <= self.hour0 < 24:
            raise DataError(f"hour0 must lie in [0, 24), got {self.hour0}")


@dataclass
class ForecastInstance:
    t: int  # anchor: last observed time index
    history: np.ndarray  # (W, N)
    future: np.ndarray  # (H, N)
    mask: np.ndarray  # (N,) of {0.0, 1.0}
    hour: int


@dataclass(frozen=True)
class SyntheticSpec:
    n_regions: int = 30
    d_c: int = 16
    n_archetypes: int = 4
    t_total: int = 4281  # 4234 windows at W=H=24 -> 2540/847/847 split
    noise_scale: float = 0.3
    seed: int = 0

    def validate(self) -> None:
        if self.n_regions < 1:
            raise DataError(f"n_regions must be at least 1, got {self.n_regions}")
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


def archetype_scale_base(archetype: int, n_archetypes: int) -> float:
    """Geometric per-archetype demand volume inside SCALE_RANGE.

    Volume correlates with archetype (so with context), mirroring how a
    region's function predicts its order volume.
    """
    low, high = SCALE_RANGE
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
    bases = np.array([archetype_scale_base(a, n_arch) for a in range(n_arch)])
    low, high = SCALE_RANGE
    scales = bases[archetypes] * (high / low) ** rng.normal(0.0, SCALE_JITTER, size=n)
    cluster_centers = rng.uniform(0.0, 1.0, size=(n_arch, 2))
    locations = cluster_centers[archetypes] + rng.normal(0.0, LOCATION_SPREAD, size=(n, 2))

    contexts = np.zeros((n, d_c))
    contexts[np.arange(n), archetypes] = 1.0
    contexts[:, -2:] = locations
    contexts += rng.normal(0.0, CONTEXT_JITTER, size=(n, d_c))

    profiles = np.stack([archetype_profile(a, n_arch) for a in range(n_arch)])
    wf = np.array([weekday_factor(t) for t in range(spec.t_total)])
    base = profiles[archetypes][:, np.arange(spec.t_total) % 24].T * wf[:, None] * scales[None, :]
    noise = spec.noise_scale * scales[None, :] * rng.normal(size=(spec.t_total, n))
    demand = np.maximum(base + noise, 0.0)

    city = CityDataset(name=name, region_contexts=contexts, demand=demand, hour0=0, archetypes=archetypes)
    city.validate()
    return city


# ---------------------------------------------------------------------------
# windowing and splits


def make_windows(
    city: CityDataset,
    window: int = DEFAULT_WINDOW,
    horizon: int = DEFAULT_HORIZON,
) -> list[ForecastInstance]:
    """One instance per anchor, full-ones masks, ordered by anchor ascending.

    Windowing copies nothing: each history and future is a slice of one
    read-only view of `city.demand`, and every instance shares one read-only
    ones mask. Writing to a window raises; the windows alias the demand, so
    it must not be written after windowing.
    """
    if window + horizon > city.t_total:
        raise DataError("window + horizon exceeds dataset length")
    demand = city.demand.view()
    demand.flags.writeable = False
    mask = np.ones(city.n_regions)
    mask.flags.writeable = False
    instances = [
        ForecastInstance(
            t=t,
            history=demand[t - window + 1 : t + 1],
            future=demand[t + 1 : t + horizon + 1],
            mask=mask,
            hour=(city.hour0 + t) % 24,
        )
        for t in range(window - 1, city.t_total - horizon)
    ]
    if not instances:
        raise DataError("windowing produced no instances")
    return instances


def split_windows(
    instances: list[ForecastInstance],
) -> tuple[list[ForecastInstance], list[ForecastInstance], list[ForecastInstance]]:
    """Chronological train/val/test split by SPLIT_RATIOS; sizes
    round(n*train), round(n*val), remainder."""
    n = len(instances)
    n_train = round(n * SPLIT_RATIOS[0])
    n_val = round(n * SPLIT_RATIOS[1])
    if min(n_train, n_val, n - n_train - n_val) <= 0:
        raise DataError(f"split of {n} instances by {SPLIT_RATIOS} leaves an empty part")
    return (
        instances[:n_train],
        instances[n_train : n_train + n_val],
        instances[n_train + n_val :],
    )


def masked_view(instance: ForecastInstance, inactive: set[int] | list[int]) -> ForecastInstance:
    """The instance with history columns of inactive regions zeroed and mask
    bits cleared; the source is left untouched.

    Only the history and the mask are copied, and only when some region is
    inactive (with none, the instance itself comes back). The future passes
    through: supervision may still use it for regions whose futures are
    known during training.
    """
    inactive = sorted(set(inactive))
    if not inactive:
        return instance
    history = instance.history.copy()
    history[:, inactive] = 0.0
    mask = instance.mask.copy()
    mask[inactive] = 0.0
    return replace(instance, history=history, mask=mask)


# ---------------------------------------------------------------------------
# persistence


def save_city(city: CityDataset, path: str | Path, config_hash: str | None = None) -> None:
    doc = {
        "name": city.name,
        "d_c": city.d_c,
        "regions": [{"id": i, "context": c} for i, c in enumerate(city.region_contexts.tolist())],
        "demand": {
            "rows": city.demand.shape[0],
            "cols": city.demand.shape[1],
            "values": city.demand.reshape(-1).tolist(),
        },
        "hour0": city.hour0,
    }
    if city.archetypes is not None:
        doc["archetypes"] = city.archetypes.tolist()
    if config_hash is not None:
        doc["config_hash"] = config_hash
    write_text(path, json.dumps(doc, sort_keys=True))


def load_city(path: str | Path) -> CityDataset:
    try:
        doc = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise DataError(f"dataset file not found: {path}")
    except OSError as e:  # a directory, no permission
        raise DataError(f"dataset file {path} cannot be read: {type(e).__name__}: {e.strerror}")
    except ValueError as e:  # not JSON, or not UTF-8 text
        raise DataError(f"dataset file {path} is not valid JSON: {e}")
    try:
        rows, cols = doc["demand"]["rows"], doc["demand"]["cols"]
        demand = np.array(doc["demand"]["values"], dtype=np.float64).reshape(rows, cols)
        # one float64 array for all contexts: a ragged set fails here, and
        # `validate` rejects any other shape than (n_regions, d_c)
        contexts = np.array([r["context"] for r in doc["regions"]], dtype=np.float64)
        if [r["id"] for r in doc["regions"]] != list(range(len(contexts))):
            raise DataError("region ids must be 0..N-1 in order")
        archetypes = np.array(doc["archetypes"]) if "archetypes" in doc else None
        city = CityDataset(
            name=doc["name"],
            region_contexts=contexts,
            demand=demand,
            hour0=int(doc["hour0"]) % 24,
            archetypes=archetypes,
        )
        city.validate()
    except DataError as e:
        raise DataError(f"dataset file {path} is malformed: {e}")
    except (KeyError, TypeError, ValueError) as e:
        raise DataError(f"dataset file {path} is malformed: {type(e).__name__}: {e}")
    return city


def make_transfer_pair(spec: SyntheticSpec, target_seed: int) -> tuple[CityDataset, CityDataset]:
    """Two cities sharing archetype dynamics but with resampled regions/scales."""
    source = generate_synthetic_city(spec, name="source")
    target = generate_synthetic_city(replace(spec, seed=target_seed), name="target")
    return source, target
