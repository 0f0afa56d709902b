import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import scalar_reference
from builders import log_of, parts, split_of
from drrl import dataio
from drrl.synthetic import make_block_log


def write_log(tmp_path, rows, name="log.tsv"):
    path = tmp_path / name
    path.write_text("\n".join(rows) + "\n")
    return path


def rows_of(log):
    return list(zip(log.users.tolist(), log.items.tolist(), log.timestamps.tolist()))


# A fixed log of five users (user 3 has no interaction) over 16 items, with
# a timestamp tie (user 2) and test items nobody trains on. The expected
# partitions below are pinned literals, so a change to the RNG stream, the
# rounding or the tie order shows.
GOLDEN_LOG = [(0, 3, 5), (0, 1, 3), (0, 4, 9), (0, 15, 1), (0, 9, 0), (0, 2, 7), (0, 6, 2),
              (0, 5, 8), (0, 8, 4), (0, 7, 6), (1, 0, 0), (2, 11, 2), (2, 12, 2), (2, 13, 1),
              (4, 2, 10), (4, 4, 11), (4, 6, 12), (4, 8, 13), (4, 10, 14)]


class TestRowBlocks:
    def test_no_rows_give_no_block(self):
        assert dataio.row_blocks(0, 8) == []

    def test_row_over_the_budget_gets_a_block_of_one(self):
        assert dataio.row_blocks(3, 2 * dataio.BLOCK_BYTES) == [
            slice(0, 1), slice(1, 2), slice(2, 3)]

    @pytest.mark.parametrize("count, bytes_per_row",
                             [(1, 1), (10, 1), (10, 3), (12, 3), (7, 100)])
    def test_blocks_cover_the_rows_in_order(self, count, bytes_per_row, monkeypatch):
        monkeypatch.setattr(dataio, "BLOCK_BYTES", 10)
        blocks = dataio.row_blocks(count, bytes_per_row)
        size = max(1, 10 // bytes_per_row)
        assert [i for b in blocks for i in range(count)[b]] == list(range(count))
        assert all(b.stop - b.start == size for b in blocks[:-1])
        assert 1 <= blocks[-1].stop - blocks[-1].start <= size

    def test_a_budget_argument_replaces_the_default(self):
        # the cache-block callers count elements, not bytes
        assert dataio.row_blocks(5, 3, 7) == [slice(0, 2), slice(2, 4), slice(4, 5)]
        assert dataio.row_blocks(4, 1024, dataio.CACHE_BLOCK) == [slice(0, 4)]


class TestLoadInteractions:
    def test_basic_parse_and_remap(self, tmp_path):
        path = write_log(tmp_path, ["# comment", "9\t7", "9\t3", "2\t7"])
        log = dataio.load_interactions(path)
        assert log.num_users == 2
        assert log.num_items == 2
        assert not log.has_timestamps
        # raw user 9 -> 0, 2 -> 1; raw item 7 -> 0, 3 -> 1
        assert rows_of(log) == [(0, 0, 0), (0, 1, 0), (1, 0, 0)]

    def test_first_appearance_remap_golden(self, tmp_path):
        path = write_log(tmp_path, ["# c", "9\t7\t4", "9\t3\t2", "2\t7\t8", "",
                                    "5\t3\t1", "2\t7\t6", "9\t7\t5", "5\t11\t3"])
        log = dataio.load_interactions(path)
        assert (log.num_users, log.num_items, log.has_timestamps) == (3, 3, True)
        # pairs in order of their first row, each at its earliest timestamp
        assert rows_of(log) == [(0, 0, 4), (0, 1, 2), (1, 0, 6), (2, 1, 1), (2, 2, 3)]

    def test_duplicate_keeps_earliest_timestamp(self, tmp_path):
        path = write_log(tmp_path, ["5\t1\t5", "5\t1\t2", "5\t2\t9"])
        log = dataio.load_interactions(path)
        ts = {(u, i): t for u, i, t in rows_of(log)}
        assert ts == {(0, 0): 2, (0, 1): 9}

    def test_malformed_line_reports_number(self, tmp_path):
        path = write_log(tmp_path, ["1\t2", "only-one-field"])
        with pytest.raises(dataio.ParseError) as exc:
            dataio.load_interactions(path)
        assert exc.value.line_number == 2

    @pytest.mark.parametrize("field", ["2.5", "1e3", "inf", "1_0", "\u0663"])
    def test_non_integer_field_reports_number(self, tmp_path, field):
        path = write_log(tmp_path, ["1\t2", f"3\t{field}"])
        with pytest.raises(dataio.ParseError, match="non-integer field") as exc:
            dataio.load_interactions(path)
        assert exc.value.line_number == 2

    def test_field_outside_int64_rejected(self, tmp_path):
        path = write_log(tmp_path, ["1\t2", "3\t99999999999999999999"])
        with pytest.raises(ValueError, match="does not fit in 64 bits"):
            dataio.load_interactions(path)

    def test_empty_log_rejected(self, tmp_path):
        path = write_log(tmp_path, ["# nothing here"])
        with pytest.raises(dataio.EmptyLogError):
            dataio.load_interactions(path)

    @pytest.mark.parametrize("timestamps", [True, False])
    def test_numpy_parse_matches_the_line_parse(self, tmp_path, timestamps):
        # rows of integers only are read by one numpy call; a leading comment
        # sends the same rows through the line parser
        rows = [f"{7 * u + 10**12}\t{i - 5}" + (f"\t{t}" if timestamps else "")
                for u, i, t in GOLDEN_LOG + GOLDEN_LOG[::-3]]
        fast = dataio.load_interactions(write_log(tmp_path, rows))
        slow = dataio.load_interactions(write_log(tmp_path, ["# c"] + rows, "slow.tsv"))
        assert fast.has_timestamps == slow.has_timestamps == timestamps
        assert (fast.num_users, fast.num_items) == (slow.num_users, slow.num_items)
        for name in ("users", "items", "timestamps"):
            np.testing.assert_array_equal(getattr(fast, name), getattr(slow, name))

    def test_mixed_rows_read_without_timestamps(self, tmp_path):
        # one row without a timestamp leaves the log without timestamps; that
        # row reads 0 and, as the earliest, wins its duplicate pair
        path = write_log(tmp_path, ["9\t7\t4", "9\t3", "2\t7\t8", "9\t3\t1"])
        log = dataio.load_interactions(path)
        assert not log.has_timestamps
        assert rows_of(log) == [(0, 0, 4), (0, 1, 0), (1, 0, 8)]


def test_k_core_filter_reaches_fixpoint(tmp_path):
    # item 12 has a single interaction; dropping it leaves user 1 below core
    rows = ["0\t10", "0\t11", "1\t11", "1\t12", "2\t10", "2\t11"]
    path = write_log(tmp_path, rows)
    log = dataio.load_interactions(path)
    filtered = dataio.k_core_filter(log, 2, 2)
    pairs = {(u, i) for u, i, _ in rows_of(filtered)}
    assert len(pairs) == 4  # users 0 and 2 keep items 10 and 11
    assert filtered.num_users == 2
    assert filtered.num_items == 2


def test_k_core_filter_dense_id_order_golden(tmp_path):
    # raw item 40 and then raw user 5 fall below the core; the rest keeps its
    # rows in (user, item) order, items renumbered by first appearance there
    rows = ["1\t10\t5", "2\t20\t4", "2\t30\t3", "3\t20\t2", "3\t30\t1", "1\t30\t0",
            "4\t10\t9", "4\t20\t8", "5\t40\t7", "5\t10\t6"]
    filtered = dataio.k_core_filter(dataio.load_interactions(write_log(tmp_path, rows)), 2, 2)
    assert (filtered.num_users, filtered.num_items) == (4, 3)
    assert rows_of(filtered) == [(0, 0, 5), (0, 1, 0), (1, 2, 4), (1, 1, 3), (2, 2, 2),
                                 (2, 1, 1), (3, 0, 9), (3, 2, 8)]


class TestSplitIid:
    def test_ten_interactions_rounds_to_7_1_2(self):
        log = _uniform_log(1, 10)
        split = dataio.split_iid(log, 0.8, 0.1, seed=0)
        assert len(split.train[0]) == 7
        assert len(split.validation[0]) == 1
        assert len(split.test[0]) == 2

    def test_single_interaction_stays_in_train(self):
        log = _uniform_log(1, 1)
        split = dataio.split_iid(log, 0.8, 0.1, seed=0)
        assert len(split.train[0]) == 1
        assert not split.validation[0] and not split.test[0]

    @given(st.integers(1, 30), st.integers(0, 5))
    @settings(max_examples=60, deadline=None)
    def test_partitions_are_disjoint_and_exhaustive(self, n_items, seed):
        log = _uniform_log(1, n_items)
        split = dataio.split_iid(log, 0.8, 0.1, seed=seed)
        train, val, test = split.train[0], split.validation[0], split.test[0]
        assert not (train & val) and not (train & test) and not (val & test)
        assert train | val | test == set(range(n_items))
        assert len(train) >= 1

    @pytest.mark.parametrize("seed, want", [
        (0, ([[3, 4, 5, 6, 7, 8, 15], [0], [11, 13], [], [2, 4, 6, 8]],
             [[1], [], [], [], []],
             [[2, 9], [], [12], [], [10]])),
        (1, ([[1, 2, 3, 5, 6, 8, 9], [0], [12, 13], [], [2, 4, 8, 10]],
             [[15], [], [], [], []],
             [[4, 7], [], [11], [], [6]])),
    ])
    def test_partitions_golden(self, seed, want):
        split = dataio.split_iid(log_of(GOLDEN_LOG, 5, 16), 0.8, 0.1, seed=seed)
        assert parts(split) == want
        assert (split.split_kind, split.seed) == ("iid", seed)

    def test_negative_seed_rejected(self):
        # unchecked, numpy's default_rng raised an unnamed "expected
        # non-negative integer"
        with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
            dataio.split_iid(_uniform_log(2, 5), 0.8, 0.1, seed=-1)


class TestSplitTemporal:
    def test_latest_interaction_goes_to_test(self):
        log = _uniform_log(3, 5, timestamps=True)
        split = dataio.split_temporal(log, 0.2, 0.1)
        # ceil(0.2 * 5) = 1 test item per user: the one with the latest stamp
        for user in range(3):
            assert len(split.test[user]) <= 1

    def test_unseen_test_items_dropped(self):
        # item 9 appears only as user 0's latest interaction
        rows = [(0, i, t) for t, i in enumerate([0, 1, 2, 3, 9])]
        rows += [(1, i, t) for t, i in enumerate([0, 1, 2, 3, 4])]
        split = dataio.split_temporal(log_of(rows, 2, 10), 0.2, 0.1)
        assert 9 not in split.test[0]

    @pytest.mark.parametrize("fracs, want", [
        ((0.2, 0.1), ([[1, 3, 6, 7, 8, 9, 15], [0], [11, 13], [], [2, 4, 6, 8]],
                      [[2], [], [], [], []],
                      [[4], [], [], [], []])),
        ((0.4, 0.3), ([[1, 6, 9, 15], [0], [13], [], [2, 4]],
                      [[3, 8], [], [], [], [6]],
                      [[2, 4], [], [], [], []])),
    ])
    def test_partitions_golden(self, fracs, want):
        split = dataio.split_temporal(log_of(GOLDEN_LOG, 5, 16), *fracs)
        assert parts(split) == want
        assert split.split_kind == "temporal_ood"

    def test_untimestamped_log_rejected(self):
        log = _uniform_log(1, 5, timestamps=False)
        with pytest.raises(ValueError):
            dataio.split_temporal(log, 0.2, 0.1)

    @pytest.mark.parametrize("val_frac", [-0.5, 0.0, 1.0, 1.5])
    def test_validation_fraction_outside_0_1_rejected(self, val_frac):
        # unchecked, -0.5 turns every test interaction into validation, and
        # 1.5 most of train
        log = make_block_log(50, 40)
        with pytest.raises(ValueError, match="val_frac_of_train must lie strictly between"):
            dataio.split_temporal(log, 0.2, val_frac)

    def test_zero_test_frac_empty_test(self):
        log = _uniform_log(2, 5, timestamps=True)
        split = dataio.split_temporal(log, 0.0, 0.1)
        assert all(not s for s in split.test)


def _overlapping_split():
    """Validation and test parts that share items with each other and repeat
    train items; user 3 holds every item but one in train."""
    return split_of(train=[{0, 1, 2}, {3}, {4, 5}, {0, 1, 2, 3, 4, 5, 6, 7}],
                    validation=[{2, 6}, {3, 7, 8}, set(), {1}],
                    test=[{0, 6, 7}, {7}, {5}, {1, 8}], num_items=9)


class TestHeldoutItems:
    def test_each_users_validation_and_test_items_ascending_once(self, tmp_path):
        split = _overlapping_split()
        part = split.heldout_items
        assert len(part) == split.num_users
        for user in range(split.num_users):
            items = part.items[part.indptr[user]:part.indptr[user + 1]].tolist()
            assert items == sorted(split.validation[user] | split.test[user])
        # a split read back from its files derives the same part
        dataio.write_split(split, tmp_path / "s")
        again = dataio.read_split(tmp_path / "s").heldout_items
        np.testing.assert_array_equal(again.indptr, part.indptr)
        np.testing.assert_array_equal(again.items, part.items)

    @pytest.mark.parametrize("p", [0.3, 1.0])
    def test_every_heldout_flip_lies_in_the_part(self, p):
        split = _overlapping_split()
        for seed in range(3):
            batch = dataio.sample_batch(split, 300, 8, dataio.NoiseConfig(p),
                                        np.random.default_rng(seed))
            mask = batch.false_negative_mask
            assert mask.any()
            for (user, _), negs, flagged in zip(batch.pairs, batch.negatives, mask):
                assert set(negs[flagged].tolist()) <= split.heldout_items[user]
            # the reference draws each pool from per-user set unions
            want = scalar_reference.sample_batch(split, 300, 8, dataio.NoiseConfig(p),
                                                 np.random.default_rng(seed))
            np.testing.assert_array_equal(batch.negatives, want.negatives)
            np.testing.assert_array_equal(mask, want.false_negative_mask)


class TestSampleBatch:
    def test_clean_batch_avoids_train_positives(self):
        split = _toy_split()
        # the default train pairs come in key order; a caller's may not
        for train_pairs in (None, split.train_pairs()[::-1]):
            rng = np.random.default_rng(0)
            batch = dataio.sample_batch(split, 64, 8, None, rng, train_pairs=train_pairs)
            assert not batch.false_negative_mask.any()
            for (user, pos), negs in zip(batch.pairs, batch.negatives):
                assert pos in split.train[user]
                assert not (set(negs.tolist()) & split.train[user])

    def test_noise_flips_draw_from_heldout(self):
        split = _toy_split()
        rng = np.random.default_rng(1)
        batch = dataio.sample_batch(split, 128, 8, dataio.NoiseConfig(0.5), rng)
        assert batch.false_negative_mask.any()
        for (user, _), negs, mask in zip(
            batch.pairs, batch.negatives, batch.false_negative_mask
        ):
            for item, flagged in zip(negs.tolist(), mask.tolist()):
                if flagged:
                    assert item in split.heldout(user)

    def test_noise_flips_draw_from_train_pool(self):
        split = _toy_split()
        rng = np.random.default_rng(2)
        noise = dataio.NoiseConfig(0.5, pool="train")
        batch = dataio.sample_batch(split, 128, 8, noise, rng)
        for (user, _), negs, mask in zip(
            batch.pairs, batch.negatives, batch.false_negative_mask
        ):
            for item, flagged in zip(negs.tolist(), mask.tolist()):
                if flagged:
                    assert item in split.train[user]

    def test_same_seed_gives_same_batch(self):
        split = _toy_split()
        noise = dataio.NoiseConfig(0.3)
        a = dataio.sample_batch(split, 64, 8, noise, np.random.default_rng(5))
        b = dataio.sample_batch(split, 64, 8, noise, np.random.default_rng(5))
        np.testing.assert_array_equal(a.pairs, b.pairs)
        np.testing.assert_array_equal(a.negatives, b.negatives)
        np.testing.assert_array_equal(a.false_negative_mask, b.false_negative_mask)

    def test_clean_negatives_uniform_over_non_train_items(self, monkeypatch):
        # chi-square goodness of fit per user at a fixed seed: the statistic
        # stays below the 1 - 1e-6 quantile of chi2 with (candidates - 1) dof;
        # once in one train-mask block, once in blocks of 3 rows, each
        # redrawn until clean before the next
        split = _toy_split()
        for block_bytes, blocks in ((dataio.BLOCK_BYTES, 1), (3 * split.num_items, 1334)):
            monkeypatch.setattr(dataio, "BLOCK_BYTES", block_bytes)
            assert len(dataio.row_blocks(4000, split.num_items)) == blocks
            batch = dataio.sample_batch(split, 4000, 16, None, np.random.default_rng(0))
            for user in range(split.num_users):
                negs = batch.negatives[batch.pairs[:, 0] == user].ravel()
                counts = np.bincount(negs, minlength=split.num_items)
                assert counts[sorted(split.train[user])].sum() == 0
                candidates = sorted(set(range(split.num_items)) - split.train[user])
                expected = negs.size / len(candidates)
                chi2 = np.sum((counts[candidates] - expected) ** 2 / expected)
                assert chi2 < stats.chi2.ppf(1 - 1e-6, len(candidates) - 1)

    @pytest.mark.parametrize("pool", ["heldout", "train"])
    def test_flips_occur_at_rate_p_from_the_pool(self, pool):
        split = _toy_split()
        p = 0.3
        batch = dataio.sample_batch(split, 2000, 16, dataio.NoiseConfig(p, pool),
                                    np.random.default_rng(3))
        mask = batch.false_negative_mask
        # Binomial(slots, p) flip count, within 5 standard deviations
        slots = mask.size
        assert abs(mask.sum() - slots * p) <= 5 * np.sqrt(slots * p * (1 - p))
        for user in range(split.num_users):
            rows = batch.pairs[:, 0] == user
            allowed = split.train[user] if pool == "train" else split.heldout(user)
            assert set(batch.negatives[rows][mask[rows]].tolist()) <= allowed

    def test_user_with_empty_pool_gets_no_flips(self):
        split = split_of(train=[{0, 1}, {2}], validation=[{3}, set()], test=[{4}, set()],
                         num_items=8)
        batch = dataio.sample_batch(split, 200, 8, dataio.NoiseConfig(0.9),
                                    np.random.default_rng(4))
        empty_pool = batch.pairs[:, 0] == 1
        assert empty_pool.any() and not batch.false_negative_mask[empty_pool].any()
        assert batch.false_negative_mask[~empty_pool].any()

    def test_user_covering_every_item_is_skipped_with_one_warning(self):
        split = split_of(train=[{0, 1, 2, 3}, {0}], validation=[set(), {1}],
                         test=[set(), {2}], num_items=4)
        with pytest.warns(UserWarning) as record:
            batch = dataio.sample_batch(split, 100, 4, None, np.random.default_rng(0))
        assert len(record) == 1
        skipped = 100 - len(batch.pairs)
        assert skipped > 0 and f"skipped {skipped} of 100" in str(record[0].message)
        assert (batch.pairs[:, 0] == 1).all()
        assert not (batch.negatives == 0).any()

    @pytest.mark.parametrize("block_bytes", [dataio.BLOCK_BYTES, 3 * 40])
    @pytest.mark.parametrize("noise", [None, dataio.NoiseConfig(0.3),
                                       dataio.NoiseConfig(0.3, pool="train")])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_sorted_key_reference_bit_for_bit(self, seed, noise, block_bytes,
                                                      monkeypatch):
        # 3 * 40 bytes gives train-mask blocks of 3 rows; the busiest users
        # hold 36 of the 40 items, so most first draws are redrawn
        monkeypatch.setattr(dataio, "BLOCK_BYTES", block_bytes)
        split = _busy_split(seed, num_items=40)
        for train_pairs in (None, split.train_pairs()[::-1]):
            batch = dataio.sample_batch(split, 50, 16, noise, np.random.default_rng(seed),
                                        train_pairs=train_pairs)
            ref = scalar_reference.sample_batch(split, 50, 16, noise,
                                                np.random.default_rng(seed),
                                                train_pairs=train_pairs)
            np.testing.assert_array_equal(batch.pairs, ref.pairs)
            np.testing.assert_array_equal(batch.negatives, ref.negatives)
            np.testing.assert_array_equal(batch.false_negative_mask, ref.false_negative_mask)
        # the same RNG calls without the redraws: most slots hit a train item
        rng = np.random.default_rng(seed)
        rows = split.train_pairs()[rng.integers(0, len(split.train_pairs()), 50)]
        first = rng.integers(0, 40, size=(50, 16))
        hit = [[j in split.train[u] for j in negs] for (u, _), negs in zip(rows, first)]
        assert np.mean(hit) > 0.5

    @pytest.mark.parametrize("block_bytes, slots", [(dataio.BLOCK_BYTES, [7]), (50 * 40, [2] * 4)])
    @pytest.mark.parametrize("noise", [None, dataio.NoiseConfig(0.3)])
    def test_slot_blocks_match_the_sorted_key_reference_bit_for_bit(self, noise, block_bytes,
                                                                    slots, monkeypatch):
        # 1000 slots a row make slot blocks of 32 rows: 200 rows are 7 of
        # them in one train-mask block, or 4 mask blocks of 50 rows (32 and
        # 18) at 50 * 40 bytes
        monkeypatch.setattr(dataio, "BLOCK_BYTES", block_bytes)
        for seed in range(3):
            split = _busy_split(seed, num_items=40)
            batch = dataio.sample_batch(split, 200, 1000, noise, np.random.default_rng(seed))
            ref = scalar_reference.sample_batch(split, 200, 1000, noise,
                                                np.random.default_rng(seed))
            np.testing.assert_array_equal(batch.pairs, ref.pairs)
            np.testing.assert_array_equal(batch.negatives, ref.negatives)
            np.testing.assert_array_equal(batch.false_negative_mask, ref.false_negative_mask)
        assert [len(list(dataio.slot_blocks(batch.negatives, 40, block)))
                for block in dataio.row_blocks(200, 40)] == slots

    def test_memory_stays_within_the_batch_and_a_few_slot_blocks(self):
        # the negatives, the flags and one train-mask block, plus a few
        # cache-sized int64 blocks: no (B, n_neg) index temporary
        split = dataio.split_iid(make_block_log(2000, 1000, interactions_per_user=20, seed=0),
                                 seed=0)
        train_pairs = split.train_pairs()
        tracemalloc.start()
        try:
            batch = dataio.sample_batch(split, 1024, 1024, None, np.random.default_rng(0),
                                        train_pairs=train_pairs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        arrays = batch.negatives.nbytes + batch.false_negative_mask.nbytes + 1024 * 1000
        assert peak < arrays + 4 * 8 * dataio.CACHE_BLOCK

    @pytest.mark.parametrize("pool", ["heldout", "train"])
    @pytest.mark.parametrize("p", [0.2, 1.0])
    def test_flips_drawn_in_slot_blocks_match_the_whole_draw_bit_for_bit(self, p, pool):
        # 200 rows of 1000 slots are 7 slot blocks of flip and pool draws
        for seed in range(3):
            split = _busy_split(seed, num_items=40)
            noise = dataio.NoiseConfig(p, pool)
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            batch = dataio.sample_batch(split, 200, 1000, noise, rng)
            ref = scalar_reference.sample_batch(split, 200, 1000, noise, ref_rng)
            np.testing.assert_array_equal(batch.negatives, ref.negatives)
            np.testing.assert_array_equal(batch.false_negative_mask, ref.false_negative_mask)
            assert batch.false_negative_mask.any()
            assert rng.random() == ref_rng.random()

    @pytest.mark.parametrize("p", [0.2, 1.0])
    def test_noisy_memory_stays_within_the_batch_and_a_few_slot_blocks(self, p):
        # the batch's arrays plus five cache-sized int64 blocks: the flips
        # and their pool draws take one slot block at a time (9.7 MiB at
        # p = 0.2, 10.1 MiB at p = 1), not a float64 (B, n_neg) draw and
        # batch-sized index arrays (19.0 and 50.0 MiB when drawn whole), and
        # the last (B x items) train mask block is released before them
        # (11.0 MiB at p = 1 when it is held)
        split = dataio.split_iid(make_block_log(2000, 1000, interactions_per_user=20, seed=0),
                                 seed=0)
        train_pairs = split.train_pairs()
        for pool in ("heldout", "train"):
            tracemalloc.start()
            try:
                batch = dataio.sample_batch(split, 1024, 1024, dataio.NoiseConfig(p, pool),
                                            np.random.default_rng(0), train_pairs=train_pairs)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert batch.false_negative_mask.mean() >= 0.9 * p
            arrays = batch.pairs.nbytes + batch.negatives.nbytes + batch.false_negative_mask.nbytes
            assert peak < arrays + 5 * 8 * dataio.CACHE_BLOCK, pool

    def test_bad_noise_config_rejected(self):
        with pytest.raises(ValueError):
            dataio.NoiseConfig(1.5)
        with pytest.raises(ValueError):
            dataio.NoiseConfig(0.1, pool="elsewhere")


def test_split_roundtrip(tmp_path):
    split = _toy_split()
    dataio.write_split(split, tmp_path / "s")
    loaded = dataio.read_split(tmp_path / "s")
    assert loaded.num_users == split.num_users
    assert loaded.num_items == split.num_items
    for name in dataio.PARTS:
        got, want = getattr(loaded, name), getattr(split, name)
        np.testing.assert_array_equal(got.indptr, want.indptr)
        np.testing.assert_array_equal(got.items, want.items)


def test_write_split_whose_manifest_fails_leaves_the_previous_split(tmp_path, monkeypatch):
    dataio.write_split(_toy_split(), tmp_path)
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    assert sorted(before) == ["manifest.json", "test.tsv", "train.tsv", "validation.tsv"]

    def refuse(*args, **kwargs):
        raise TypeError("not JSON serializable")

    monkeypatch.setattr(json, "dump", refuse)
    monkeypatch.setattr(json, "dumps", refuse)
    other = dataio.split_iid(make_block_log(num_users=6, num_items=8, seed=1), seed=1)
    with pytest.raises(TypeError, match="not JSON serializable"):
        dataio.write_split(other, tmp_path)
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


def test_replace_file_writes_whole_payloads_or_leaves_the_file(tmp_path, monkeypatch):
    path = tmp_path / "new" / "a.txt"
    dataio.replace_file(path, "text\n")  # makes the directory
    assert path.read_text() == "text\n"
    dataio.replace_file(path, b"\x00bytes")
    assert path.read_bytes() == b"\x00bytes"

    def interrupted(src, dst):
        raise KeyboardInterrupt

    monkeypatch.setattr(dataio.os, "replace", interrupted)
    with pytest.raises(KeyboardInterrupt):
        dataio.replace_file(path, "lost")
    assert path.read_bytes() == b"\x00bytes"
    assert [p.name for p in path.parent.iterdir()] == ["a.txt"]


def test_read_split_parses_written_parts_without_the_line_parser(tmp_path, monkeypatch):
    split = _toy_split()
    dataio.write_split(split, tmp_path)
    monkeypatch.setattr(dataio, "_parse_lines", None)
    loaded = dataio.read_split(tmp_path)
    for name in dataio.PARTS:
        np.testing.assert_array_equal(getattr(loaded, name).items, getattr(split, name).items)


def test_read_split_collapses_repeated_and_unordered_rows(tmp_path):
    dataio.write_split(_toy_split(), tmp_path)
    (tmp_path / "train.tsv").write_text("1\t4\n0\t2\n\n1\t3\n0\t0\n0\t2\n0\t1\n")
    loaded = dataio.read_split(tmp_path)
    assert parts(loaded)[0] == [[0, 1, 2], [3, 4]]
    np.testing.assert_array_equal(loaded.train.indptr, [0, 3, 5])


def test_read_split_skips_comment_and_blank_lines_in_parts(tmp_path):
    # a leading `#` line sends a part through the line parser, which must
    # read the rows the one numpy call reads from the part as written
    for name in ("fast", "lines"):
        dataio.write_split(_toy_split(), tmp_path / name)
    train, validation = tmp_path / "lines" / "train.tsv", tmp_path / "lines" / "validation.tsv"
    rows = train.read_text().splitlines()
    train.write_text("\n".join(["# user\titem", rows[0], "", "  # note", *rows[1:], ""]))
    validation.write_text("# user\titem\n" + validation.read_text())
    fast, lines = dataio.read_split(tmp_path / "fast"), dataio.read_split(tmp_path / "lines")
    for name in dataio.PARTS:
        np.testing.assert_array_equal(getattr(lines, name).indptr, getattr(fast, name).indptr)
        np.testing.assert_array_equal(getattr(lines, name).items, getattr(fast, name).items)


@pytest.mark.parametrize("row, message", [
    ("1\t2\t3", "expected two integer fields"),
    ("1\tx", "expected two integer fields"),
    ("1\t2.5", "expected two integer fields"),
    ("1_0\t1", "expected two integer fields"),
    ("\u0663\t1", "expected two integer fields"),
    ("2\t1", r"user id 2 outside the manifest's range \[0, 2\)"),
    ("-1\t1", r"user id -1 outside"),
    ("1\t8", r"item id 8 outside the manifest's range \[0, 8\)"),
    ("0\t-3", r"item id -3 outside"),
])
def test_read_split_names_bad_rows_with_file_and_line(tmp_path, row, message):
    dataio.write_split(_toy_split(), tmp_path)
    path = tmp_path / "validation.tsv"
    path.write_text(path.read_text() + row + "\n")
    with pytest.raises(dataio.ParseError, match=message) as exc:
        dataio.read_split(tmp_path)
    assert exc.value.line_number == 3
    assert str(exc.value).startswith(f"{path}, line 3: ")


def test_read_split_names_a_bad_row_after_a_blank_line_at_its_own_line(tmp_path):
    dataio.write_split(_toy_split(), tmp_path)
    path = tmp_path / "validation.tsv"
    path.write_text(path.read_text() + "\n1\t8\n")
    with pytest.raises(dataio.ParseError, match=f"^{re.escape(str(path))}, line 4: item id 8"):
        dataio.read_split(tmp_path)


def test_importing_one_module_loads_no_other_drrl_or_scipy_module():
    # the package's __init__ imports nothing, so a narrow import stays narrow
    path = [str(Path(dataio.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    code = ("import sys, drrl.dataio; print(sorted(name for name in sys.modules "
            "if name.partition('.')[0] in ('drrl', 'scipy')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env=env)
    assert out.stdout.strip() == "['drrl', 'drrl.dataio']"


@pytest.mark.parametrize("edit, message", [
    (lambda m: m.pop("split_kind"), "has no split_kind"),
    (lambda m: m.pop("num_items"), "has no num_items"),
    (lambda m: m.update(num_users="2"), "num_users must be a non-negative integer, got '2'"),
    (lambda m: m.update(num_items=-1), "num_items must be a non-negative integer, got -1"),
    (lambda m: m.update(num_users=True), "num_users must be a non-negative integer, got True"),
    (lambda m: m.update(num_items=8.0), "num_items must be a non-negative integer, got 8.0"),
    (lambda m: m.update(split_kind=1), "split_kind must be a string, got 1"),
])
def test_read_split_names_bad_manifest_keys(tmp_path, edit, message):
    dataio.write_split(_toy_split(), tmp_path)
    path = tmp_path / "manifest.json"
    manifest = json.loads(path.read_text())
    edit(manifest)
    path.write_text(json.dumps(manifest))
    pattern = f"^manifest {re.escape(str(path))}.*{re.escape(message)}"
    with pytest.raises(ValueError, match=pattern):
        dataio.read_split(tmp_path)


@pytest.mark.parametrize("text", ["", "not json", "[1, 2]"])
def test_read_split_names_a_manifest_that_is_not_a_json_object(tmp_path, text):
    dataio.write_split(_toy_split(), tmp_path)
    path = tmp_path / "manifest.json"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"^manifest {re.escape(str(path))} is not"):
        dataio.read_split(tmp_path)


def _uniform_log(num_users, items_per_user, timestamps=False):
    rows = [(u, t, t if timestamps else 0)
            for u in range(num_users) for t in range(items_per_user)]
    return log_of(rows, num_users, items_per_user, timestamps)


def _busy_split(seed, num_items):
    """Twelve users, each with 1 to 0.9 * num_items train items and a few
    held-out ones."""
    rng = np.random.default_rng(seed)
    train, val, test = [], [], []
    for degree in np.linspace(1, 0.9 * num_items, 12).astype(int):
        items = rng.permutation(num_items)
        train.append(set(items[:degree].tolist()))
        val.append(set(items[degree:degree + 1].tolist()))
        test.append(set(items[degree + 1:degree + 3].tolist()))
    return split_of(train, val, test, num_items)


def _toy_split():
    return split_of(
        train=[{0, 1, 2}, {3, 4}],
        validation=[{3}, {0}],
        test=[{4}, {1}],
        num_items=8,
    )
