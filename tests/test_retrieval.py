import hashlib
import json
import math

import numpy as np
import pytest

from bankcast import autodiff as ad
from bankcast import numerics, retrieval
from bankcast.data import SyntheticSpec, generate_synthetic_city, make_windows
from bankcast.errors import DataError, VersionMismatchError
from bankcast.model import Model, ModelConfig
from bankcast.retrieval import (
    MemoryBank,
    bank_entries,
    build_bank,
    encode_retrieval,
    future_nearest_batch,
    select_top_batch,
    save_bank,
    load_bank,
)
from retrieval_oracle import brute_force, model_rows


def tiny_config(**kw) -> ModelConfig:
    defaults = dict(
        d_c=4, window=5, horizon=3, d_g=4, d_z=3, hidden=8, head_blocks=2,
        gcn_layers=1, d_r=8, d_h=3, d_ec=5, d_ex=5, psi_hidden=9,
    )
    defaults.update(kw)
    return ModelConfig(**defaults)


def make_entries(n, horizon=3, window=5, d_c=4, hours=None, seed=0):
    rng = np.random.default_rng(seed)
    hours = hours if hours is not None else (rng.integers(0, 24, size=n)).tolist()
    rows = [
        (rng.normal(size=d_c), rng.uniform(0, 5, size=window), rng.uniform(0, 5, size=horizon))
        for _ in range(n)
    ]
    contexts, histories, futures = map(np.array, zip(*rows))
    return bank_entries(np.arange(n) % 4, 10 + np.arange(n), hours, contexts, histories, futures)


def unit_keys(n, d, seed=0):
    rng = np.random.default_rng(seed)
    k = rng.normal(size=(n, d))
    return k / np.linalg.norm(k, axis=1, keepdims=True)


def bank_with_keys(entries, keys):
    bank = MemoryBank(entries)
    bank.install_keys(keys, "test")
    return bank


class TestBuildBank:
    def city_windows(self):
        spec = SyntheticSpec(n_regions=5, d_c=6, n_archetypes=2, t_total=120, noise_scale=0.1, seed=8)
        city = generate_synthetic_city(spec)
        return city, make_windows(city)

    def test_one_window_three_regions(self):
        city, windows = self.city_windows()
        bank = build_bank(windows[:1], [0, 2, 4], city.contexts())
        assert len(bank) == 3
        assert [e.region_id for e in bank.entries] == [0, 2, 4]

    def test_hour_partition(self):
        city, windows = self.city_windows()
        bank = build_bank(windows, [0, 1, 2, 3, 4], city.contexts())
        all_idx = np.concatenate([bank.hour_index[h] for h in range(24)])
        assert sorted(all_idx.tolist()) == list(range(len(bank)))
        for h in range(24):
            for i in bank.hour_index[h]:
                assert bank.entries[i].hour == h

    def test_ordered_by_hour_then_anchor_then_region(self):
        city, windows = self.city_windows()
        # anchors 23..49 cover hours 23, 0..23, 0, 1: two anchors share hours 0, 1 and 23
        bank = build_bank(windows[26::-1], [3, 1], city.contexts())
        keys = [(e.hour, e.anchor, e.region_id) for e in bank.entries]
        assert keys == sorted(keys)
        assert [k[0] for k in keys[:4]] == [0, 0, 0, 0] and keys[0][1] < keys[2][1]

    def test_columns_are_views_of_entries(self):
        city, windows = self.city_windows()
        bank = build_bank(windows[:30], [0, 2], city.contexts())
        for col in (bank.contexts, bank.histories, bank.futures, bank.hours, bank.anchors, bank.region_ids):
            assert np.shares_memory(col, bank.entries)

    def test_hour_major_input_kept_other_input_stable_sorted(self):
        hours = [5, 2, 5, 0, 2, 5]
        entries = make_entries(6, hours=hours)
        bank = MemoryBank(entries)
        # within an hour, entries keep their given order (anchors 10 + input position)
        assert bank.anchors.tolist() == [13, 11, 14, 10, 12, 15]
        assert [bank.hour_index[h].tolist() for h in (0, 2, 5, 7)] == [[0], [1, 2], [3, 4, 5], []]
        big = MemoryBank(make_entries(300, seed=1))
        assert all(np.all(np.diff(big.anchors[big.hour_index[h]]) > 0) for h in range(24))
        again = MemoryBank(bank.entries)
        assert np.shares_memory(again.entries, bank.entries)

    @pytest.mark.parametrize("hour", [-1, 24])
    def test_hour_out_of_range_rejected(self, hour):
        with pytest.raises(DataError, match="hours must lie in"):
            MemoryBank(make_entries(3, hours=[0, hour, 1]))

    def test_every_entry_matches_its_window(self):
        city, windows = self.city_windows()
        bank = build_bank(windows[4:1:-1], [3, 0, 4], city.contexts())
        by_anchor = {w.t: w for w in windows}
        assert len(bank) == 9 and len({(e.anchor, e.region_id) for e in bank.entries}) == 9
        for e in bank.entries:
            w = by_anchor[e.anchor]
            assert e.hour == w.hour
            assert np.array_equal(e.context, city.contexts()[e.region_id])
            assert np.array_equal(e.history, w.history[:, e.region_id])
            assert np.array_equal(e.future, w.future[:, e.region_id])

    def test_rebuild_reproduces_keys_bitwise(self):
        city, windows = self.city_windows()
        model = Model(tiny_config(d_c=6, window=24, horizon=24), seed=1)
        b1 = build_bank(windows, [0, 1, 2], city.contexts(), model.encode_entries, "v")
        b2 = build_bank(windows, [0, 1, 2], city.contexts(), model.encode_entries, "v")
        assert np.array_equal(b1.keys, b2.keys)

    def test_empty_bank_rejected(self):
        with pytest.raises(DataError):
            MemoryBank([])

    def test_true_histories_stored(self):
        city, windows = self.city_windows()
        bank = build_bank(windows[:2], [1], city.contexts())
        for w in windows[:2]:
            [i] = np.flatnonzero(bank.anchors == w.t)
            assert np.array_equal(bank.entries[i].history, w.history[:, 1])
            assert np.array_equal(bank.entries[i].future, w.future[:, 1])

    @pytest.mark.parametrize("shape", [(7, 8), (5, 8), (6,)], ids=["too-many-rows", "too-few-rows", "1-d"])
    def test_install_keys_needs_one_row_per_entry(self, shape):
        bank = MemoryBank(make_entries(6))
        keys = np.zeros(shape)
        keys[..., 0] = 1.0
        with pytest.raises(DataError, match="one key row per entry"):
            bank.install_keys(keys, "test")
        assert bank.keys is None


class TestEncodeRetrieval:
    def test_unit_norm(self):
        cfg = tiny_config()
        model = Model(cfg, seed=2)
        rng = np.random.default_rng(0)
        out = encode_retrieval(
            ad.constant(rng.normal(size=(6, cfg.d_c))),
            ad.constant(rng.normal(size=(6, cfg.window))),
            rng.integers(0, 24, size=6),
            model.retriever,
        )
        assert np.allclose(np.linalg.norm(out.value, axis=1), 1.0, atol=1e-9)

    def test_hour_changes_embedding(self):
        cfg = tiny_config()
        model = Model(cfg, seed=3)
        rng = np.random.default_rng(1)
        c = rng.normal(size=(1, cfg.d_c))
        x = rng.normal(size=(1, cfg.window))
        e9 = encode_retrieval(ad.constant(c), ad.constant(x), [9], model.retriever).value
        e10 = encode_retrieval(ad.constant(c), ad.constant(x), [10], model.retriever).value
        assert not np.allclose(e9, e10)

    def test_zero_history_coldstart_query_valid(self):
        cfg = tiny_config()
        model = Model(cfg, seed=4)
        c = np.random.default_rng(2).normal(size=(1, cfg.d_c))
        out = encode_retrieval(
            ad.constant(c), ad.constant(np.zeros((1, cfg.window))), [0], model.retriever
        ).value
        assert abs(np.linalg.norm(out) - 1.0) < 1e-9

    def test_rejects_bad_hour(self):
        cfg = tiny_config()
        model = Model(cfg, seed=5)
        with pytest.raises(ValueError):
            encode_retrieval(
                ad.constant(np.zeros((1, cfg.d_c))),
                ad.constant(np.zeros((1, cfg.window))),
                [24],
                model.retriever,
            )


    def test_entry_keys_match_one_taped_encoding_in_input_order(self):
        # encode_entries groups the rows by hour; the keys come back in the
        # given (unsorted) order and match one taped pass over all rows
        cfg = tiny_config()
        model = Model(cfg, seed=6)
        model.set_norm(2.0, 1.5)
        e = make_entries(60, seed=7, hours=np.random.default_rng(8).integers(0, 5, size=60).tolist())
        keys = model.encode_entries(e.context, e.history, e.hour)
        taped = encode_retrieval(
            ad.constant(e.context), ad.constant(model.normalize(e.history)), e.hour, model.retriever
        ).value
        assert keys.shape == taped.shape
        assert np.abs(keys - taped).max() <= 1e-13


class TestRetrieve:
    """One query at a time through the selection and the prior that
    `Model.forward_batch` runs."""

    def retrieve(self, query, bank, hour, k, temperature, exclude=None):
        excludes = None if exclude is None else [exclude]
        [row] = model_rows(Model(tiny_config()), bank, query, hour, k, temperature, excludes)
        return row

    def test_hand_evaluated_two_entry_bank(self):
        entries = make_entries(2, hours=[9, 9])
        keys = np.zeros((2, 8))
        keys[0, 0] = 1.0
        keys[1, 1] = 1.0
        bank = bank_with_keys(entries, keys)
        row = self.retrieve(keys[0], bank, 9, k=2, temperature=0.1)
        # scores (1, 0) at T=0.1 -> softmax([10, 0])
        w0 = math.exp(10.0) / (math.exp(10.0) + 1.0)
        assert row.valid
        assert row.indices.tolist() == [0, 1]
        assert abs(row.weights[0] - w0) < 1e-12
        assert abs(row.weights[0] - 0.99995) < 1e-5
        assert np.allclose(row.prior, w0 * entries[0].future + (1 - w0) * entries[1].future)

    def test_k_exceeding_candidates(self):
        entries = make_entries(3, hours=[4, 4, 4])
        bank = bank_with_keys(entries, unit_keys(3, 8))
        row = self.retrieve(unit_keys(1, 8, seed=9)[0], bank, 4, k=10, temperature=0.5)
        assert row.indices.size == 3
        assert abs(row.weights.sum() - 1.0) < 1e-9

    def test_hour_filter_never_violated(self):
        entries = make_entries(40, seed=3)
        bank = bank_with_keys(entries, unit_keys(40, 8, seed=3))
        q = unit_keys(1, 8, seed=5)[0]
        for h in range(24):
            row = self.retrieve(q, bank, h, k=5, temperature=0.2)
            for i in row.indices:
                assert bank.entries[i].hour == h

    def test_empty_candidates_flagged(self):
        entries = make_entries(3, hours=[1, 1, 1])
        bank = bank_with_keys(entries, unit_keys(3, 8))
        row = self.retrieve(unit_keys(1, 8)[0], bank, 7, k=3, temperature=0.1)
        assert not row.valid
        assert row.indices.size == 0
        assert np.all(row.prior == 0.0)

    def test_self_exclusion(self):
        entries = make_entries(4, hours=[6, 6, 6, 6])
        bank = bank_with_keys(entries, unit_keys(4, 8, seed=7))
        target = (entries[2].anchor, entries[2].region_id)
        row = self.retrieve(bank.keys[2], bank, 6, k=4, temperature=0.1, exclude=target)
        assert 2 not in row.indices.tolist()

    def test_oracle_equivalence_with_ties(self):
        # duplicate keys force exact tie-breaking by entry index
        entries = make_entries(12, hours=[3] * 12, seed=11)
        keys = unit_keys(4, 8, seed=11)[np.array([0, 1, 1, 2, 0, 3, 3, 2, 1, 0, 2, 3])]
        bank = bank_with_keys(entries, keys)
        q = unit_keys(1, 8, seed=13)[0]
        row = self.retrieve(q, bank, 3, k=5, temperature=0.3)
        idxs, w, prior = brute_force(bank, q, 3, 5, 0.3)
        assert row.indices.tolist() == idxs
        assert np.allclose(row.weights, w, atol=1e-12)
        assert np.allclose(row.prior, prior, atol=1e-12)

    def test_oracle_equivalence_random(self):
        rng = np.random.default_rng(17)
        entries = make_entries(300, seed=17)
        bank = bank_with_keys(entries, unit_keys(300, 8, seed=17))
        for trial in range(25):
            q = unit_keys(1, 8, seed=100 + trial)[0]
            h = int(rng.integers(0, 24))
            excl = None
            if trial % 3 == 0:
                e = bank.entries[int(rng.integers(0, 300))]
                excl = (e.anchor, e.region_id)
            row = self.retrieve(q, bank, h, k=8, temperature=0.25, exclude=excl)
            idxs, w, prior = brute_force(bank, q, h, 8, 0.25, exclude=excl)
            assert row.indices.tolist() == idxs
            if row.valid:
                assert np.allclose(row.weights, w, atol=1e-12)
                assert np.allclose(row.prior, prior, atol=1e-12)
                assert abs(row.weights.sum() - 1.0) < 1e-9

    def test_weights_shift_invariant_and_ordered(self):
        entries = make_entries(6, hours=[2] * 6)
        bank = bank_with_keys(entries, unit_keys(6, 8, seed=19))
        q = unit_keys(1, 8, seed=23)[0]
        row = self.retrieve(q, bank, 2, k=4, temperature=0.5)
        scores = bank.keys[row.indices] @ q
        # weights strictly ordered consistently with scores
        assert np.all(np.argsort(-row.weights, kind="stable") == np.argsort(-scores, kind="stable"))

    def test_low_temperature_converges_to_best(self):
        entries = make_entries(50, hours=[5] * 50, seed=29)
        bank = bank_with_keys(entries, unit_keys(50, 8, seed=29))
        q = unit_keys(1, 8, seed=31)[0]
        row = self.retrieve(q, bank, 5, k=8, temperature=1e-4)
        assert row.weights.max() >= 1.0 - 1e-3
        best = row.indices[np.argmax(row.weights)]
        scores = bank.keys[bank.hour_index[5]] @ q
        assert best == bank.hour_index[5][np.argmax(scores)]

    def test_rejects_bad_args(self):
        entries = make_entries(2, hours=[0, 0])
        bank = bank_with_keys(entries, unit_keys(2, 8))
        with pytest.raises(ValueError, match="k must be >= 1"):  # the selection's
            self.retrieve(unit_keys(1, 8)[0], bank, 0, k=0, temperature=0.1)
        with pytest.raises(ValueError, match="softmax temperature must be positive"):  # the prior's
            self.retrieve(unit_keys(1, 8)[0], bank, 0, k=2, temperature=0.0)
        bank.keys = None
        with pytest.raises(DataError, match="bank has no keys"):
            self.retrieve(unit_keys(1, 8)[0], bank, 0, k=2, temperature=0.1)


E0, E1 = np.eye(8)[:2]
KEY_A, KEY_B, KEY_C = E0, (E0 + E1) / np.sqrt(2.0), E1


# an (anchor, region id) pair that no test bank holds: its row excludes nothing
NO_PAIR = (-1, -1)


def excl(bank, i):
    return NO_PAIR if i is None else (bank.entries[i].anchor, bank.entries[i].region_id)


class TestSelectTopBatch:
    """The selection Model.forward runs, checked row by row against the linear scan."""

    def bank(self):
        # stored hour-major, as laid out: hour 3: one key A (entry 3), five
        # equal keys B (0, 2, 4, 6, 8) and three keys C (1, 5, 7); hour 5: four
        # random keys (9-12); hour 7: no entries
        layout = [(3, KEY_B), (3, KEY_C), (3, KEY_B), (3, KEY_A), (3, KEY_B), (3, KEY_C),
                  (3, KEY_B), (3, KEY_C), (3, KEY_B), (5, None), (5, None), (5, None),
                  (5, None)]
        rand = unit_keys(len(layout), 8, seed=3)
        keys = np.array([rand[i] if key is None else key for i, (_, key) in enumerate(layout)])
        entries = make_entries(len(layout), hours=[h for h, _ in layout], seed=3)
        return bank_with_keys(entries, keys)

    def queries(self):
        return np.vstack([KEY_A, KEY_B, unit_keys(2, 8, seed=5)])

    @pytest.mark.parametrize(
        "hour,k,excluded",
        [
            (3, 3, [None, 2, 0, 3]),  # five B keys tie at the 3rd score
            (3, 1, [3, None, 1, None]),
            (3, 30, [None, 8, None, 5]),
            (5, 4, [10, None, 9, None]),  # k = bucket size, one excluded
            (5, 8, [None, 12, 11, 9]),
            (7, 2, [None, 0, None, None]),  # empty bucket
        ],
    )
    def test_rows_match_linear_scan(self, hour, k, excluded):
        bank, queries = self.bank(), self.queries()
        if hour != 7:  # each excluded entry sits in the queried bucket
            assert all(bank.entries[i].hour == hour for i in excluded if i is not None)
        excludes = [excl(bank, i) for i in excluded]
        out = select_top_batch(bank, queries, hour, k, excludes)
        assert len(out) == queries.shape[0]
        for q, ex, (idx, scores) in zip(queries, excludes, out):
            expect, w, _ = brute_force(bank, q, hour, k, 0.3, exclude=ex)
            assert idx.tolist() == expect
            assert np.allclose(scores, bank.keys[idx] @ q, atol=1e-12)
            if idx.size:
                assert np.allclose(numerics.row_softmax(scores[None], 0.3)[0], w, atol=1e-12)

    def test_ties_beyond_free_slots_go_to_smaller_index(self):
        bank = self.bank()
        out = select_top_batch(bank, np.vstack([KEY_A, KEY_A]), 3, 3, [NO_PAIR, excl(bank, 0)])
        # A first, then two of the five tied B entries
        assert [idx.tolist() for idx, _ in out] == [[3, 0, 2], [3, 2, 4]]
        assert out[0][1][1] == out[0][1][2]

    # four query rows need a (4, 2) array of pairs
    @pytest.mark.parametrize("shape", [(0, 2), (3, 2), (5, 2), (4, 3)], ids=["0", "3", "5", "4x3"])
    def test_excludes_need_one_item_per_row(self, shape):
        with pytest.raises(ValueError, match="excludes has"):
            select_top_batch(self.bank(), self.queries(), 3, 2, np.full(shape, -1))

    def test_one_call_mixes_ties_exclusion_and_short_bucket(self):
        # row 0 ties five B keys at the 3rd score; row 1's excluded entry (A,
        # entry 3) would otherwise rank first; row 2 asks for more than the
        # 9-entry bucket holds and excludes one of them
        bank = self.bank()
        queries = np.vstack([KEY_A, KEY_A, KEY_C])
        ks_and_excludes = [
            (3, [NO_PAIR, excl(bank, 3), NO_PAIR]), (12, [NO_PAIR, excl(bank, 3), excl(bank, 5)]),
        ]
        for k, excludes in ks_and_excludes:
            out = select_top_batch(bank, queries, 3, k, excludes)
            for q, ex, (idx, scores) in zip(queries, excludes, out):
                assert idx.tolist() == brute_force(bank, q, 3, k, 0.3, exclude=ex)[0]
                assert np.allclose(scores, bank.keys[idx] @ q, atol=1e-12)
        assert [idx.tolist() for idx, _ in out] == [
            [3, 0, 2, 4, 6, 8, 1, 5, 7], [0, 2, 4, 6, 8, 1, 5, 7], [1, 7, 0, 2, 4, 6, 8, 3],
        ]

    @pytest.mark.parametrize("k", [4, 12])
    def test_scores_are_the_gemm_bits_and_inputs_stay_unwritten(self, k):
        # hour 0 holds entries 0-3, so hour 2's bucket starts at entry 4:
        # key A twice (4, 9), key B four times (5, 7, 10, 12) and key C four
        # times (6, 8, 11, 13). With k = 4, row 0's four tied B entries
        # straddle the 4th slot. Entries 4-11 all hold the pair (20, 0), so
        # row 1, which excludes it, keeps 2 entries, fewer than k.
        layout = [None] * 4 + [KEY_A, KEY_B, KEY_C, KEY_B, KEY_C, KEY_A, KEY_B, KEY_C, KEY_B, KEY_C]
        rand = unit_keys(len(layout), 8, seed=21)
        keys = np.array([rand[i] if key is None else key for i, key in enumerate(layout)])
        entries = make_entries(len(layout), hours=[0] * 4 + [2] * 10, seed=21)
        entries["anchor"][4:12], entries["region_id"][4:12] = 20, 0
        bank = bank_with_keys(entries, keys)
        bucket = slice(4, 14)
        queries = np.vstack([KEY_A, KEY_B, unit_keys(1, 8, seed=22), KEY_C])
        excludes = [NO_PAIR, (20, 0), excl(bank, 12), NO_PAIR]
        keys_before, queries_before = bank.keys.tobytes(), queries.tobytes()
        out = select_top_batch(bank, queries, 2, k, excludes)
        assert bank.keys.tobytes() == keys_before and queries.tobytes() == queries_before
        gemm = queries @ bank.keys[bucket].T
        for i, (q, ex, (idx, scores)) in enumerate(zip(queries, excludes, out)):
            assert idx.tolist() == brute_force(bank, q, 2, k, 0.3, exclude=ex)[0]
            assert scores.tobytes() == gemm[i, idx - bucket.start].tobytes()
        assert out[0][0].tolist()[:4] == [4, 9, 5, 7]
        assert out[1][0].tolist() == [12, 13]

    def test_every_copy_of_an_excluded_pair_is_dropped(self):
        # region id = hour, so each (anchor, region) pair of hour 0 is stored
        # four times; the later rows exclude pairs hour 0 does not hold
        n = 24
        entries = make_entries(n, hours=[i % 2 for i in range(n)], seed=11)
        entries["anchor"] = 10 + np.arange(n) // 4 % 3
        entries["region_id"] = np.arange(n) % 2
        bank = bank_with_keys(entries, unit_keys(n, 8, seed=11))
        excludes = [(10, 0), (11, 0), (11, 1), (99, 0), (10, 7), NO_PAIR]
        out = select_top_batch(bank, unit_keys(len(excludes), 8, seed=12), 0, n, excludes)
        assert [idx.size for idx, _ in out] == [8, 8, 12, 12, 12, 12]
        for ex, (idx, _) in zip(excludes, out):
            held = [(e.anchor, e.region_id) for e in bank.entries[idx]]
            assert ex not in held

    def test_random_rows_match_linear_scan(self):
        rng = np.random.default_rng(47)
        entries = make_entries(300, seed=47)
        keys = unit_keys(300, 8, seed=47)
        keys[rng.integers(0, 300, size=60)] = keys[rng.integers(0, 300, size=60)]
        bank = bank_with_keys(entries, keys)
        for trial in range(30):
            hour, k = int(rng.integers(0, 24)), [1, 8, 30][trial % 3]
            bucket = bank.hour_index[hour]
            # odd rows exclude an entry of their own bucket; row 0 queries a stored key
            queries = unit_keys(6, 8, seed=200 + trial)
            excludes = [NO_PAIR] * 6
            if bucket.size:
                queries[0] = keys[bucket[0]]
                excludes[1::2] = [excl(bank, int(i)) for i in rng.choice(bucket, size=3)]
            out = select_top_batch(bank, queries, hour, k, excludes)
            for q, ex, (idx, _) in zip(queries, excludes, out):
                assert idx.tolist() == brute_force(bank, q, hour, k, 0.3, exclude=ex)[0]


class TestFutureNearest:
    def test_matches_linear_scan(self):
        rng = np.random.default_rng(37)
        entries = make_entries(20, hours=[0] * 20, seed=37)
        bank = bank_with_keys(entries, unit_keys(20, 8, seed=37))
        cand = np.array([3, 7, 1, 15, 9])
        target = rng.uniform(0, 5, size=3)
        best = future_nearest_batch(bank, cand[None], target[None])[0]
        dists = {i: np.linalg.norm(bank.futures[i] - target) for i in cand}
        expect = min(sorted(dists), key=lambda i: (dists[i], i))
        assert best == expect

    def test_tie_breaks_to_smaller_index(self):
        entries = make_entries(4, hours=[0] * 4)
        bank = bank_with_keys(entries, unit_keys(4, 8))
        bank.futures[1] = bank.futures[3] = np.array([1.0, 2.0, 3.0])
        best = future_nearest_batch(bank, np.array([[3, 1]]), np.array([[1.0, 2.0, 3.0]]))
        assert best.tolist() == [1]

    def test_rows_pick_their_own_targets(self):
        entries = make_entries(6, hours=[0] * 6, seed=39)
        bank = bank_with_keys(entries, unit_keys(6, 8, seed=39))
        # row 1 is padding alone; rows 2 and 3 are padded after two entries and
        # aim at the futures of entries 0 and 5, the first and last, which no
        # padding slot may reach
        selected = np.array([[0, 1, 2], [-1, -1, -1], [3, 4, -1], [3, 4, -1]])
        targets = np.stack([bank.futures[2], np.zeros(3), bank.futures[0], bank.futures[5]])

        def nearest(target):
            return min([3, 4], key=lambda i: (np.linalg.norm(bank.futures[i] - target), i))

        want = [2, -1, nearest(bank.futures[0]), nearest(bank.futures[5])]
        assert future_nearest_batch(bank, selected, targets).tolist() == want


class TestAlignmentLoss:
    def test_aligned_is_zero(self):
        q = unit_keys(4, 8, seed=41)
        loss = retrieval.alignment_loss(ad.constant(q), ad.constant(q.copy()))
        assert abs(float(loss.value)) < 1e-12

    def test_orthogonal_is_one(self):
        q = np.zeros((2, 8))
        k = np.zeros((2, 8))
        q[:, 0] = 1.0
        k[:, 1] = 1.0
        loss = retrieval.alignment_loss(ad.constant(q), ad.constant(k))
        assert abs(float(loss.value) - 1.0) < 1e-12

    def test_range_bounds(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            q = unit_keys(5, 8, seed=int(rng.integers(1e6)))
            k = unit_keys(5, 8, seed=int(rng.integers(1e6)))
            val = float(retrieval.alignment_loss(ad.constant(q), ad.constant(k)).value)
            assert 0.0 <= val <= 2.0


class TestBankPersistence:
    def build(self, tmp_path):
        spec = SyntheticSpec(n_regions=4, d_c=6, n_archetypes=2, t_total=100, seed=21)
        city = generate_synthetic_city(spec)
        windows = make_windows(city)
        model = Model(tiny_config(d_c=6, window=24, horizon=24), seed=9)
        bank = build_bank(
            windows[:10], [0, 1, 2], city.contexts(), model.encode_entries, model.encoder_version()
        )
        path = tmp_path / "bank.bin"
        save_bank(bank, path, config_hash="h")
        return bank, path, model

    def test_roundtrip(self, tmp_path):
        bank, path, model = self.build(tmp_path)
        loaded, header = load_bank(path, expected_encoder_version=model.encoder_version())
        assert len(loaded) == len(bank)
        assert header["config_hash"] == "h"
        loaded.refresh_keys(model.encode_entries, model.encoder_version())
        assert np.allclose(loaded.keys, bank.keys, atol=0)

    def test_tampered_entry_detected(self, tmp_path):
        bank, path, model = self.build(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[-8] ^= 1  # lowest mantissa byte of the last entry's last future value
        path.write_bytes(bytes(raw))
        with pytest.raises(VersionMismatchError):
            load_bank(path)

    def test_v1_json_lines_bank_rejected(self, tmp_path):
        bank, path, model = self.build(tmp_path)
        header = {"format": "bankcast-bank-v1", "entry_checksum": bank.entry_checksum(),
                  "encoder_version": bank.encoder_version, "n_entries": 1}
        entry = {"region_id": 0, "anchor": 0, "hour": 0, "context": [0.0] * 6,
                 "history": [0.0] * 24, "future": [0.0] * 24}
        path.write_text(json.dumps(header) + "\n" + json.dumps(entry) + "\n")
        with pytest.raises(DataError, match="unrecognized bank format"):
            load_bank(path)

    def test_save_is_byte_stable(self, tmp_path):
        bank, path, model = self.build(tmp_path)
        again = tmp_path / "again.bin"
        save_bank(bank, again, config_hash="h")
        assert again.read_bytes() == path.read_bytes()

    def test_checksum_matches_per_entry_hash(self, tmp_path):
        bank, path, model = self.build(tmp_path)
        h = hashlib.sha256()
        for e in bank.entries:
            h.update(np.int64(e.region_id).tobytes())
            h.update(np.int64(e.anchor).tobytes())
            h.update(np.int64(e.hour).tobytes())
            h.update(e.context.tobytes())
            h.update(e.history.tobytes())
            h.update(e.future.tobytes())
        assert bank.entry_checksum() == h.hexdigest()
        loaded, header = load_bank(path)
        assert header["entry_checksum"] == loaded.entry_checksum() == h.hexdigest()

    def test_anchor_major_v2_file_loads(self, tmp_path):
        # an older writer saved v2 banks in (anchor, region id) order
        spec = SyntheticSpec(n_regions=4, d_c=6, n_archetypes=2, t_total=100, seed=21)
        city = generate_synthetic_city(spec)
        model, path = Model(tiny_config(d_c=6, window=24, horizon=24), seed=9), tmp_path / "bank.bin"
        bank = build_bank(make_windows(city)[:30], [0, 1, 2], city.contexts(), model.encode_entries, "v")
        old = np.asarray(bank.entries)[np.lexsort((bank.region_ids, bank.anchors))]
        assert old.tobytes() != bank.entries.tobytes()
        header = {"format": "bankcast-bank-v2", "encoder_version": "v", "n_entries": len(old),
                  "entry_checksum": hashlib.sha256(old.tobytes()).hexdigest()}
        with open(path, "wb") as f:
            f.write((json.dumps(header) + "\n").encode())
            np.save(f, old, allow_pickle=False)
        loaded, _ = load_bank(path, expected_encoder_version="v")
        assert loaded.entries.tobytes() == bank.entries.tobytes()
        loaded.refresh_keys(model.encode_entries, "v")
        queries = unit_keys(3, 8, seed=53)
        for hour in range(24):
            got = select_top_batch(loaded, queries, hour, 4)
            want = select_top_batch(bank, queries, hour, 4)
            assert [i.tolist() for i, _ in got] == [i.tolist() for i, _ in want]

    def test_version_mismatch_detected(self, tmp_path):
        bank, path, model = self.build(tmp_path)
        with pytest.raises(VersionMismatchError):
            load_bank(path, expected_encoder_version="different")
