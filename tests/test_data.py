import json
from dataclasses import replace

import numpy as np
import pytest

from bankcast import data
from bankcast.data import (
    CityDataset,
    ForecastInstance,
    SyntheticSpec,
    generate_synthetic_city,
    load_city,
    make_transfer_pair,
    make_windows,
    masked_view,
    save_city,
    split_windows,
)
from bankcast.errors import DataError


def small_spec(**kw) -> SyntheticSpec:
    defaults = dict(n_regions=8, d_c=8, n_archetypes=3, t_total=240, noise_scale=0.2, seed=5)
    defaults.update(kw)
    return SyntheticSpec(**defaults)


class TestGenerator:
    def test_deterministic_bitwise(self):
        a = generate_synthetic_city(small_spec())
        b = generate_synthetic_city(small_spec())
        assert np.array_equal(a.demand, b.demand)
        assert np.array_equal(a.contexts(), b.contexts())

    def test_different_seeds_differ(self):
        a = generate_synthetic_city(small_spec(seed=1))
        b = generate_synthetic_city(small_spec(seed=2))
        assert not np.array_equal(a.demand, b.demand)

    def test_noise_free_shared_archetype_and_scale(self):
        # round-robin archetypes: regions 0 and 3 share archetype 0, so
        # without noise their demand differs only by each region's scale
        city = generate_synthetic_city(small_spec(n_regions=6, noise_scale=0.0))
        same = city.demand[:, 3] / city.demand[:, 0]
        assert np.abs(same - same[0]).max() < 1e-12
        other = city.demand[:, 1] / city.demand[:, 0]
        assert np.abs(other - other[0]).max() > 1e-3

    def test_demand_nonnegative_and_finite(self):
        city = generate_synthetic_city(small_spec(noise_scale=1.0))
        assert np.all(city.demand >= 0.0)
        assert np.all(np.isfinite(city.demand))

    def test_hour_labels(self):
        city = generate_synthetic_city(small_spec())
        assert city.hour_of_interval[0] == 0
        assert np.all(np.diff(city.hour_of_interval) % 24 == 1)

    def test_contexts_read_only(self):
        # `contexts()` hands out the city's own matrix, not a copy
        city = generate_synthetic_city(small_spec())
        with pytest.raises(ValueError, match="read-only"):
            city.contexts()[0, 0] = 1.0
        assert city.contexts() is city.contexts()

    def test_rejects_short_series(self):
        with pytest.raises(DataError):
            generate_synthetic_city(small_spec(t_total=48))

    def test_rejects_narrow_context(self):
        with pytest.raises(DataError):
            generate_synthetic_city(small_spec(d_c=4, n_archetypes=3))

    def test_context_separation(self):
        # same-archetype contexts closer in L2 than cross-archetype, almost surely
        city = generate_synthetic_city(SyntheticSpec(seed=3))
        ctx, arch = city.contexts(), city.archetypes
        same, cross = [], []
        n = city.n_regions
        for i in range(n):
            for j in range(i + 1, n):
                d = np.linalg.norm(ctx[i] - ctx[j])
                (same if arch[i] == arch[j] else cross).append(d)
        pairs = [(s, c) for s in same for c in cross]
        frac = np.mean([s < c for s, c in pairs])
        assert frac >= 0.99

    def test_nearest_centroid_recovers_archetypes(self):
        city = generate_synthetic_city(SyntheticSpec(seed=11))
        ctx, arch = city.contexts(), city.archetypes
        centroids = np.stack([ctx[arch == a].mean(axis=0) for a in range(4)])
        pred = np.argmin(
            np.linalg.norm(ctx[:, None, :] - centroids[None, :, :], axis=2), axis=1
        )
        assert (pred == arch).mean() >= 0.95

    def test_default_spec_window_count(self):
        spec = SyntheticSpec()
        n_windows = spec.t_total - 47
        assert n_windows == 4234


@pytest.mark.parametrize("field,value", [
    ("region_contexts", lambda c: np.where(np.arange(c.d_c) == 0, np.nan, c.region_contexts)),
    ("region_contexts", lambda c: c.region_contexts[:, 0]),
    ("demand", lambda c: c.demand[:, 1:]),
    ("demand", lambda c: np.where(np.arange(c.t_total)[:, None] == 3, np.inf, c.demand)),
    ("hour0", lambda c: 24),
], ids=["nan-context", "flat-contexts", "missing-column", "inf-demand", "hour0-24"])
def test_validate_rejects(field, value):
    city = generate_synthetic_city(small_spec())
    with pytest.raises(DataError):
        replace(city, **{field: value(city)}).validate()


class TestWindows:
    def test_boundary_single_instance(self):
        city = generate_synthetic_city(small_spec(t_total=49))
        inst = make_windows(city, window=24, horizon=24)
        # t_total = W + H + 1 -> 2 anchors
        assert len(inst) == 2
        city2 = CityDataset(
            name=city.name, region_contexts=city.contexts(), demand=city.demand[:48], hour0=city.hour0
        )
        assert len(make_windows(city2)) == 1

    def test_counting(self):
        k = 13
        city = generate_synthetic_city(small_spec(t_total=48 + k))
        assert len(make_windows(city)) == k + 1

    def test_instances_cover_demand(self):
        city = generate_synthetic_city(small_spec(t_total=100))
        inst = make_windows(city)
        w, h = 24, 24
        rebuilt = np.full_like(city.demand, np.nan)
        for fi in inst:
            rebuilt[fi.t + 1 : fi.t + h + 1] = fi.future
            assert fi.hour == city.hour_of_interval[fi.t]
            assert np.array_equal(fi.history, city.demand[fi.t - w + 1 : fi.t + 1])
        assert np.array_equal(rebuilt[w:], city.demand[w:])

    def test_masks_start_full(self):
        city = generate_synthetic_city(small_spec())
        inst = make_windows(city)
        assert all(np.all(fi.mask == 1.0) for fi in inst)

    def test_windows_are_read_only_views_of_the_demand(self):
        city = generate_synthetic_city(small_spec())
        inst = make_windows(city)
        for fi in (inst[0], inst[-1]):
            assert np.shares_memory(fi.history, city.demand)
            assert np.shares_memory(fi.future, city.demand)
            for array in (fi.history, fi.future, fi.mask):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 1.0
        assert all(fi.mask is inst[0].mask for fi in inst)
        assert city.demand.flags.writeable  # only the windows' view is read-only


class TestSplits:
    def make_instances(self, n):
        z = np.zeros((2, 1))
        return [ForecastInstance(t=i, history=z, future=z, mask=np.ones(1), hour=0) for i in range(n)]

    def test_table_counts_shanghai(self):
        tr, va, te = split_windows(self.make_instances(4234))
        assert (len(tr), len(va), len(te)) == (2540, 847, 847)

    def test_table_counts_hangzhou(self):
        tr, va, te = split_windows(self.make_instances(4361))
        assert (len(tr), len(va), len(te)) == (2617, 872, 872)

    def test_rounding(self):
        # round(4.2), round(1.4), remainder
        tr, va, te = split_windows(self.make_instances(7))
        assert (len(tr), len(va), len(te)) == (4, 1, 2)

    def test_chronological_and_disjoint(self):
        tr, va, te = split_windows(self.make_instances(50))
        anchors = [i.t for i in tr] + [i.t for i in va] + [i.t for i in te]
        assert anchors == list(range(50))

    def test_empty_split_rejected(self):
        # 3 windows split 2/1/0
        with pytest.raises(DataError, match="leaves an empty part"):
            split_windows(self.make_instances(3))


class TestMaskedView:
    def instance(self):
        city = generate_synthetic_city(small_spec())
        return make_windows(city)[0]

    def test_identity_on_empty_set(self):
        fi = self.instance()
        out = masked_view(fi, set())
        assert np.array_equal(out.history, fi.history)
        assert np.array_equal(out.mask, fi.mask)

    def test_all_masked(self):
        fi = self.instance()
        out = masked_view(fi, set(range(fi.history.shape[1])))
        assert np.all(out.history == 0.0)
        assert np.all(out.mask == 0.0)

    def test_idempotent(self):
        fi = self.instance()
        once = masked_view(fi, {1, 3})
        twice = masked_view(once, {1, 3})
        assert np.array_equal(once.history, twice.history)
        assert np.array_equal(once.mask, twice.mask)

    @pytest.mark.parametrize("writeable", [False, True])
    def test_source_untouched(self, writeable):
        fi = self.instance()
        if writeable:
            fi = ForecastInstance(fi.t, fi.history.copy(), fi.future.copy(), fi.mask.copy(), fi.hour)
        history, mask = fi.history.copy(), fi.mask.copy()
        out = masked_view(fi, {0, 2})
        assert np.array_equal(fi.history, history) and np.array_equal(fi.mask, mask)
        assert not np.shares_memory(out.history, fi.history)
        assert not np.shares_memory(out.mask, fi.mask)
        assert out.future is fi.future

    def test_future_untouched(self):
        fi = self.instance()
        out = masked_view(fi, {0, 2})
        assert np.array_equal(out.future, fi.future)
        assert np.all(out.history[:, [0, 2]] == 0.0)
        assert np.array_equal(out.history[:, 1], fi.history[:, 1])


class TestPersistence:
    def test_roundtrip_bitwise(self, tmp_path):
        city = generate_synthetic_city(small_spec())
        p = tmp_path / "city.json"
        save_city(city, p, config_hash="abc123")
        loaded = load_city(p)
        assert loaded.name == city.name
        assert np.array_equal(loaded.demand, city.demand)
        assert np.array_equal(loaded.contexts(), city.contexts())
        assert np.array_equal(loaded.hour_of_interval, city.hour_of_interval)
        assert np.array_equal(loaded.archetypes, city.archetypes)

    def test_older_file_with_split_boundaries_loads(self, tmp_path):
        # files written by older versions carry a "split_boundaries" key,
        # which nothing reads
        city = generate_synthetic_city(small_spec())
        p = tmp_path / "city.json"
        save_city(city, p)
        doc = json.loads(p.read_text())
        doc["split_boundaries"] = [139, 178]  # what the generator wrote for this spec
        p.write_text(json.dumps(doc, sort_keys=True))
        loaded = load_city(p)
        assert np.array_equal(loaded.demand, city.demand)
        assert np.array_equal(loaded.contexts(), city.contexts())

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_city(tmp_path / "nope.json")

    def test_malformed_file(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{\"name\": \"x\"}")
        with pytest.raises(DataError):
            load_city(p)


def test_transfer_pair_shares_dynamics():
    spec = small_spec()
    src, tgt = make_transfer_pair(spec, target_seed=99)
    assert src.name == "source" and tgt.name == "target"
    assert not np.array_equal(src.demand, tgt.demand)
    # archetype profiles are seed-independent
    p0 = data.archetype_profile(0, 3)
    assert p0.shape == (24,)
    assert np.array_equal(p0, data.archetype_profile(0, 3))


def test_archetype_profiles_distinct_peaks():
    peaks = [int(np.argmax(data.archetype_profile(a, 4))) for a in range(4)]
    assert len(set(peaks)) == 4
