import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from drrl import dataio


def write_log(tmp_path, rows, name="log.tsv"):
    path = tmp_path / name
    path.write_text("\n".join(rows) + "\n")
    return path


class TestLoadInteractions:
    def test_basic_parse_and_remap(self, tmp_path):
        path = write_log(tmp_path, ["# comment", "9\t7", "9\t3", "2\t7"])
        log = dataio.load_interactions(path)
        assert log.num_users == 2
        assert log.num_items == 2
        assert not log.has_timestamps
        assert log.user_id_map[9] == 0
        assert log.item_id_map[7] == 0

    def test_duplicate_keeps_earliest_timestamp(self, tmp_path):
        path = write_log(tmp_path, ["5\t1\t5", "5\t1\t2", "5\t2\t9"])
        log = dataio.load_interactions(path)
        ts = {(it.user_id, it.item_id): it.timestamp for it in log.interactions}
        assert ts[(0, 0)] == 2

    def test_malformed_line_reports_number(self, tmp_path):
        path = write_log(tmp_path, ["1\t2", "only-one-field"])
        with pytest.raises(dataio.ParseError) as exc:
            dataio.load_interactions(path)
        assert exc.value.line_number == 2

    def test_empty_log_rejected(self, tmp_path):
        path = write_log(tmp_path, ["# nothing here"])
        with pytest.raises(dataio.EmptyLogError):
            dataio.load_interactions(path)


def test_k_core_filter_reaches_fixpoint(tmp_path):
    # item 12 has a single interaction; dropping it leaves user 1 below core
    rows = ["0\t10", "0\t11", "1\t11", "1\t12", "2\t10", "2\t11"]
    path = write_log(tmp_path, rows)
    log = dataio.load_interactions(path)
    filtered = dataio.k_core_filter(log, 2, 2)
    pairs = {(it.user_id, it.item_id) for it in filtered.interactions}
    assert len(pairs) == 4  # users 0 and 2 keep items 10 and 11
    assert filtered.num_users == 2
    assert filtered.num_items == 2


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


class TestSplitTemporal:
    def test_latest_interaction_goes_to_test(self):
        log = _uniform_log(3, 5, timestamps=True)
        split = dataio.split_temporal(log, 0.2, 0.1)
        # ceil(0.2 * 5) = 1 test item per user: the one with the latest stamp
        for user in range(3):
            assert len(split.test[user]) <= 1

    def test_unseen_test_items_dropped(self):
        # item 9 appears only as user 0's latest interaction
        inter = [dataio.Interaction(0, i, t) for t, i in enumerate([0, 1, 2, 3, 9])]
        inter += [dataio.Interaction(1, i, t) for t, i in enumerate([0, 1, 2, 3, 4])]
        log = dataio.InteractionLog(inter, 2, 10, True, {}, {})
        split = dataio.split_temporal(log, 0.2, 0.1)
        assert 9 not in split.test[0]

    def test_untimestamped_log_rejected(self):
        log = _uniform_log(1, 5, timestamps=False)
        with pytest.raises(ValueError):
            dataio.split_temporal(log, 0.2, 0.1)

    def test_zero_test_frac_empty_test(self):
        log = _uniform_log(2, 5, timestamps=True)
        split = dataio.split_temporal(log, 0.0, 0.1)
        assert all(not s for s in split.test)


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

    def test_clean_negatives_uniform_over_non_train_items(self):
        # chi-square goodness of fit per user at a fixed seed: the statistic
        # stays below the 1 - 1e-6 quantile of chi2 with (candidates - 1) dof
        split = _toy_split()
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
        split = dataio.DatasetSplit(
            train=[{0, 1}, {2}], validation=[{3}, set()], test=[{4}, set()],
            split_kind="iid", num_users=2, num_items=8,
        )
        batch = dataio.sample_batch(split, 200, 8, dataio.NoiseConfig(0.9),
                                    np.random.default_rng(4))
        empty_pool = batch.pairs[:, 0] == 1
        assert empty_pool.any() and not batch.false_negative_mask[empty_pool].any()
        assert batch.false_negative_mask[~empty_pool].any()

    def test_user_covering_every_item_is_skipped_with_one_warning(self):
        split = dataio.DatasetSplit(
            train=[{0, 1, 2, 3}, {0}], validation=[set(), {1}], test=[set(), {2}],
            split_kind="iid", num_users=2, num_items=4,
        )
        with pytest.warns(UserWarning) as record:
            batch = dataio.sample_batch(split, 100, 4, None, np.random.default_rng(0))
        assert len(record) == 1
        skipped = 100 - len(batch.pairs)
        assert skipped > 0 and f"skipped {skipped} of 100" in str(record[0].message)
        assert (batch.pairs[:, 0] == 1).all()
        assert not (batch.negatives == 0).any()

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
    assert loaded.train == split.train
    assert loaded.validation == split.validation
    assert loaded.test == split.test


def _uniform_log(num_users, items_per_user, timestamps=False):
    inter = []
    for u in range(num_users):
        for t in range(items_per_user):
            inter.append(dataio.Interaction(u, t, t if timestamps else None))
    return dataio.InteractionLog(
        inter, num_users, items_per_user, timestamps, {}, {}
    )


def _toy_split():
    return dataio.DatasetSplit(
        train=[{0, 1, 2}, {3, 4}],
        validation=[{3}, {0}],
        test=[{4}, {1}],
        split_kind="iid",
        num_users=2,
        num_items=8,
    )
