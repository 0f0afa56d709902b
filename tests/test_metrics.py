import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from builders import cosine_scores_peak, one_user_metric, split_of, user_items
from drrl import dataio, losses, metrics
from drrl.diagnostics import user_diagnostics


def brute_recall(scores, exclude, truth, k):
    ranked = sorted(
        (i for i in range(len(scores)) if i not in exclude),
        key=lambda i: (-scores[i], i),
    )[:k]
    return sum(1 for i in ranked if i in truth) / len(truth)


def brute_ndcg(scores, exclude, truth, k):
    ranked = sorted(
        (i for i in range(len(scores)) if i not in exclude),
        key=lambda i: (-scores[i], i),
    )[:k]
    dcg = sum(1 / math.log2(r + 2) for r, i in enumerate(ranked) if i in truth)
    idcg = sum(1 / math.log2(r + 2) for r in range(min(k, len(truth))))
    return dcg / idcg


def test_top_k_excludes_and_breaks_ties_by_id():
    scores = np.array([0.5, 0.9, 0.5, 0.1])
    top = metrics.top_k_items(scores, {1}, 2)
    assert top.tolist() == [0, 2]


def test_top_k_names_k_below_one():
    with pytest.raises(ValueError, match="K must be at least 1, got 0"):
        metrics.top_k_items(np.array([0.5, 0.9]), set(), 0)


def test_single_hit_at_rank_two():
    # one relevant item at rank 2: NDCG = 1 / log2(3)
    scores = np.array([0.9, 0.8, 0.1])
    assert one_user_metric("ndcg", scores, set(), {1}, 3) == pytest.approx(
        1 / math.log2(3), abs=1e-9
    )
    assert one_user_metric("ndcg", scores, set(), {1}, 3) == pytest.approx(0.63093, abs=1e-5)


def test_perfect_ranking_scores_one():
    scores = np.array([0.9, 0.8, 0.1, 0.0])
    assert one_user_metric("recall", scores, set(), {0, 1}, 2) == 1.0
    assert one_user_metric("ndcg", scores, set(), {0, 1}, 2) == pytest.approx(1.0)


@given(st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_matches_bruteforce_reference(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 51))
    k = int(rng.integers(1, 11))
    scores = rng.normal(size=n)
    exclude = set(rng.choice(n, size=int(rng.integers(0, n // 2)), replace=False).tolist())
    pool = [i for i in range(n) if i not in exclude]
    truth = set(rng.choice(pool, size=int(rng.integers(1, len(pool) + 1)), replace=False).tolist())
    assert one_user_metric("recall", scores, exclude, truth, k) == pytest.approx(
        brute_recall(scores, exclude, truth, k), abs=0
    )
    assert one_user_metric("ndcg", scores, exclude, truth, k) == pytest.approx(
        brute_ndcg(scores, exclude, truth, k), abs=1e-12
    )


def test_evaluate_ranking_skips_empty_truth():
    score_matrix = np.array([[0.9, 0.1, 0.2], [0.3, 0.8, 0.1]])
    res = metrics.evaluate_ranking(score_matrix, user_items([set(), set()]),
                                   user_items([{0}, set()]), [1])
    assert res[("recall", 1)] == 1.0


def test_evaluate_ranking_of_no_ks_is_empty():
    score_matrix = np.array([[0.9, 0.1, 0.2]])
    assert metrics.evaluate_ranking(score_matrix, user_items([set()]), user_items([{0}]), []) == {}


@given(st.integers(0, 10_000))
@settings(max_examples=150, deadline=None)
def test_evaluate_ranking_matches_bruteforce_with_ties(seed):
    # integer scores force ties, also across the K-th position; many
    # exclusions leave rows with fewer candidates than max K; small blocks
    # split the users over several kernel calls
    rng = np.random.default_rng(seed)
    n_users, n_items = int(rng.integers(1, 9)), int(rng.integers(0, 31))
    scores = rng.integers(0, 4, size=(n_users, n_items)).astype(float)
    excludes, truths = [], []
    for _ in range(n_users):
        exclude = set(rng.choice(n_items, size=int(rng.integers(0, n_items + 1)),
                                 replace=False).tolist())
        pool = [i for i in range(n_items) if i not in exclude]
        size = int(rng.integers(0, len(pool) + 1))
        excludes.append(exclude)
        truths.append(set(rng.choice(pool, size=size, replace=False).tolist()) if size else set())
    scored = [u for u in range(n_users) if truths[u]]
    ks = sorted(set(rng.integers(1, n_items + 4, size=int(rng.integers(1, 4))).tolist()))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataio, "BLOCK_BYTES", 20 * n_items * int(rng.integers(1, 4)))
        for u in range(n_users):
            want = sorted((i for i in range(n_items) if i not in excludes[u]),
                          key=lambda i: (-scores[u, i], i))[:max(ks)]
            assert metrics.top_k_items(scores[u], excludes[u], max(ks)).tolist() == want
        if not scored:
            with pytest.raises(ValueError, match="no user has ground-truth"):
                metrics.evaluate_ranking(scores, user_items(excludes), user_items(truths), ks)
            return
        got = metrics.evaluate_ranking(scores, user_items(excludes), user_items(truths), ks)
    assert list(got) == [(m, k) for m in ("recall", "ndcg") for k in ks]
    for k in ks:
        for name, brute in (("recall", brute_recall), ("ndcg", brute_ndcg)):
            want = np.mean([brute(scores[u], excludes[u], truths[u], k) for u in scored])
            assert got[(name, k)] == pytest.approx(want, abs=1e-12)


# a few values, so that rows tie, also at the K-th and (K+1)-th positions,
# beside non-finite scores, which never rank
_SCORE_POOL = [np.nan, np.inf, -np.inf, -1.0, -0.0, 0.0, 0.25, 0.5, 1.0, 3.0]


def _brute_top(scores, exclude, k):
    """The first k of the ranked items, sorted by (-score, id)."""
    ranked = (i for i in range(len(scores)) if i not in exclude and math.isfinite(scores[i]))
    return sorted(ranked, key=lambda i: (-scores[i], i))[:k]


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_ranking_with_non_finite_scores_matches_the_sorted_reference(data):
    n_users, n_items = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 25))
    dtype = data.draw(st.sampled_from([np.float32, np.float64]))
    scores = np.array(data.draw(st.lists(
        st.one_of(st.sampled_from(_SCORE_POOL), st.floats(-4, 4, width=32)),
        min_size=n_users * n_items, max_size=n_users * n_items)), dtype=dtype)
    scores = scores.reshape(n_users, n_items)
    items = st.sets(st.integers(0, n_items - 1))
    excludes = [data.draw(items) for _ in range(n_users)]
    truths = [data.draw(items) - excludes[u] for u in range(n_users)]
    ks = data.draw(st.lists(st.integers(1, n_items + 2), min_size=1, max_size=3, unique=True))
    rows = [scores[u].tolist() for u in range(n_users)]
    for u in range(n_users):
        assert metrics.top_k_items(scores[u], excludes[u], max(ks)).tolist() == _brute_top(
            rows[u], excludes[u], max(ks))
    scored = [u for u in range(n_users) if truths[u]]
    if not scored:
        return
    got = metrics.evaluate_ranking(scores, user_items(excludes), user_items(truths), ks)
    for k in ks:
        recall = ndcg = 0.0
        for u in scored:
            hits = [i in truths[u] for i in _brute_top(rows[u], excludes[u], k)]
            recall += sum(hits) / len(truths[u])
            ndcg += (sum(1 / math.log2(r + 2) for r, hit in enumerate(hits) if hit)
                     / sum(1 / math.log2(r + 2) for r in range(min(k, len(truths[u])))))
        assert got[("recall", k)] == pytest.approx(recall / len(scored), abs=1e-12)
        assert got[("ndcg", k)] == pytest.approx(ndcg / len(scored), abs=1e-12)


def test_evaluate_ranking_rejects_mismatched_set_lengths():
    scores = np.zeros((2, 3))
    with pytest.raises(ValueError, match="exclude_sets has 1 entries for 2 score rows"):
        metrics.evaluate_ranking(scores, user_items([set()]), user_items([{0}, {1}]), [1])
    with pytest.raises(ValueError, match="truth_sets has 3 entries for 2 score rows"):
        metrics.evaluate_ranking(scores, user_items([set(), set()]),
                                 user_items([{0}, {1}, {2}]), [1])


def test_evaluate_ranking_rejects_k_below_one():
    with pytest.raises(ValueError, match="every K must be at least 1"):
        metrics.evaluate_ranking(np.zeros((1, 3)), user_items([set()]), user_items([{0}]),
                                 [5, 0])


def test_evaluate_ranking_rejects_truth_outside_items():
    for bad in (3, -1):
        with pytest.raises(ValueError, match=r"truth item ids must lie in \[0, 3\)"):
            metrics.evaluate_ranking(np.zeros((2, 3)), user_items([set(), set()]),
                                     user_items([{0}, {1, bad}]), [1])


def _evaluator_peak(n_users, n_items):
    rng = np.random.default_rng(0)
    scores = rng.normal(size=(n_users, n_items))
    excludes = user_items([set(rng.choice(n_items, size=20, replace=False).tolist())
                           for _ in range(n_users)])
    truths = user_items([{int(i)} for i in rng.integers(0, n_items, size=n_users)])
    tracemalloc.start()
    try:
        metrics.evaluate_ranking(scores, excludes, truths, [10, 20, 50])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_evaluator_memory_bounded_by_block_budget():
    n_items = 2000
    # one float64 copy of the score matrix would exceed the budget
    assert 8 * 1200 * n_items > dataio.BLOCK_BYTES
    small, large = _evaluator_peak(1200, n_items), _evaluator_peak(2400, n_items)
    assert small < dataio.BLOCK_BYTES
    assert large < 1.05 * small


def test_evaluator_on_cosine_scores_stays_within_the_block_budget():
    n_items = 4000
    # one float32 users x items score matrix would exceed the budget
    assert 4 * 1200 * n_items > dataio.BLOCK_BYTES

    def rank(scores, split):
        metrics.evaluate_ranking(scores, split.train, split.test, [10, 20, 50])

    small, large = (cosine_scores_peak(rank, n, n_items) for n in (1200, 2400))
    assert small < dataio.BLOCK_BYTES
    assert large < 1.05 * small


@pytest.mark.parametrize("dtype, want", [(np.float32, np.float32), (np.float64, np.float64),
                                         (np.int64, np.float64)])
def test_visit_score_blocks_cover_the_rows_in_the_matrix_float_dtype(dtype, want, monkeypatch):
    scores = np.arange(7 * 5, dtype=dtype).reshape(7, 5)
    rows = np.array([6, 0, 3, 4, 1])
    # products of 2 rows at float64, 4 at float32, walked in blocks of 1 row
    monkeypatch.setattr(dataio, "BLOCK_BYTES", 2 * 8 * 5 * 2)
    seen = []
    metrics.visit_score_blocks(scores, rows, 16, lambda r, b: seen.append((r.copy(), b)))
    assert all(len(r) == 1 and b.dtype == want and b.flags.writeable for r, b in seen)
    np.testing.assert_array_equal(np.concatenate([r for r, _ in seen]), rows)
    np.testing.assert_array_equal(np.concatenate([b for _, b in seen]), scores[rows])


def test_evaluate_ranking_all_empty_rejected():
    with pytest.raises(ValueError):
        metrics.evaluate_ranking(np.zeros((1, 3)), user_items([set()]), user_items([set()]), [1])


def test_empty_truth_rejected():
    with pytest.raises(ValueError):
        one_user_metric("recall", np.array([1.0]), set(), set(), 1)


def everything(weights):
    """The all-candidates mask of a (B, n) block."""
    return np.ones(np.shape(weights), dtype=bool)


class TestWeightStats:
    def test_hand_values(self):
        w = [[3.0, 1.0, 0.0], [1.0, 0.0, 0.0]]
        # row 1's third item is not a candidate
        candidates = [[True, True, True], [True, True, False]]
        k1, k2 = metrics.weight_stats(w, np.count_nonzero(candidates, axis=1),
                                      [[False, True, True], [True, False, False]])
        assert k1.tolist() == pytest.approx([3.0 / (4 / 3), 2.0])
        assert k2.tolist() == pytest.approx([0.5 / (4 / 3), 2.0])

    def test_empty_mask_gives_no_k2(self):
        w = [[1.0, 2.0]]
        _, k2 = metrics.weight_stats(w, np.count_nonzero(everything(w), axis=1), [[False, False]])
        assert np.isnan(k2[0])

    def test_zero_weights_flagged_degenerate(self):
        w = [[0.0, 0.0]]
        k1, k2 = metrics.weight_stats(w, np.count_nonzero(everything(w), axis=1), [[True, False]])
        assert np.isnan(k1[0]) and np.isnan(k2[0])

    def test_negative_weights_rejected(self):
        w = [[-1.0, 2.0]]
        with pytest.raises(ValueError):
            metrics.weight_stats(w, np.count_nonzero(everything(w), axis=1), [[False, False]])

    @pytest.mark.parametrize("value", [0.1, 0.3, 1e-300, 7.0])
    @pytest.mark.parametrize("n", [3, 10, 997])
    def test_k1_of_uniform_weights_is_exactly_one(self, value, n):
        # max / mean reads 0.9999999999999999 on [0.1] * 3
        w = np.full((2, n), value)
        k1, _ = metrics.weight_stats(w, np.count_nonzero(everything(w), axis=1), ~everything(w))
        assert k1.tolist() == [1.0, 1.0]

    def test_counts_beyond_the_blocks_width_take_the_means_over_every_candidate(self):
        # a packed block of 2 columns for rows of 6 and 4 candidates: the
        # left-out candidates weigh 0 and count only in the means
        w = [[3.0, 1.0], [2.0, 0.0]]
        k1, k2 = metrics.weight_stats(w, np.array([6, 4]), [[False, True], [True, False]])
        assert k1.tolist() == pytest.approx([3.0 / (4 / 6), 2.0 / (2 / 4)])
        assert k2.tolist() == pytest.approx([1.0 / (4 / 6), 2.0 / (2 / 4)])


def test_truncation_ratio():
    # the fraction of each user's candidates at or below their margin: user
    # 0's candidates are every item, user 1's item 0 only
    scores = np.array([[0.5, 0.1, -0.3, 0.0], [1.0, -np.inf, 3.0, -1.0]])
    split = split_of([set(), {1, 2, 3}], [set(), set()], [set(), set()], 4)
    margins = losses.MarginState(np.array([0.0, 2.0]))
    got = user_diagnostics(scores, split, losses.LossSpec(kind="ccl"), margins=margins)
    assert got.truncation.tolist() == [0.5, 1.0]
