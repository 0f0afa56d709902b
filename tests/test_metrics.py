import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from builders import user_items
from drrl import metrics


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


def test_single_hit_at_rank_two():
    # one relevant item at rank 2: NDCG = 1 / log2(3)
    scores = np.array([0.9, 0.8, 0.1])
    assert metrics.ndcg_at_k(scores, set(), {1}, 3) == pytest.approx(
        1 / math.log2(3), abs=1e-9
    )
    assert metrics.ndcg_at_k(scores, set(), {1}, 3) == pytest.approx(0.63093, abs=1e-5)


def test_perfect_ranking_scores_one():
    scores = np.array([0.9, 0.8, 0.1, 0.0])
    assert metrics.recall_at_k(scores, set(), {0, 1}, 2) == 1.0
    assert metrics.ndcg_at_k(scores, set(), {0, 1}, 2) == pytest.approx(1.0)


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
    assert metrics.recall_at_k(scores, exclude, truth, k) == pytest.approx(
        brute_recall(scores, exclude, truth, k), abs=0
    )
    assert metrics.ndcg_at_k(scores, exclude, truth, k) == pytest.approx(
        brute_ndcg(scores, exclude, truth, k), abs=1e-12
    )


def test_evaluate_ranking_skips_empty_truth():
    score_matrix = np.array([[0.9, 0.1, 0.2], [0.3, 0.8, 0.1]])
    res = metrics.evaluate_ranking(score_matrix, user_items([set(), set()]),
                                   user_items([{0}, set()]), [1])
    assert res[("recall", 1)] == 1.0


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
        mp.setattr(metrics, "BLOCK_BYTES", 20 * n_items * int(rng.integers(1, 4)))
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
    assert 8 * 1200 * n_items > metrics.BLOCK_BYTES
    small, large = _evaluator_peak(1200, n_items), _evaluator_peak(2400, n_items)
    assert small < metrics.BLOCK_BYTES
    assert large < 1.05 * small


def test_evaluate_ranking_all_empty_rejected():
    with pytest.raises(ValueError):
        metrics.evaluate_ranking(np.zeros((1, 3)), user_items([set()]), user_items([set()]), [1])


def test_empty_truth_rejected():
    with pytest.raises(ValueError):
        metrics.recall_at_k(np.array([1.0]), set(), set(), 1)


class TestWeightStats:
    def test_hand_values(self):
        stats = metrics.weight_stats([3.0, 1.0, 0.0], [False, True, True])
        assert stats.k1 == pytest.approx(3.0 / (4 / 3))
        assert stats.k2 == pytest.approx(0.5 / (4 / 3))

    def test_empty_mask_gives_no_k2(self):
        stats = metrics.weight_stats([1.0, 2.0], [False, False])
        assert stats.k2 is None

    def test_zero_weights_flagged_degenerate(self):
        stats = metrics.weight_stats([0.0, 0.0])
        assert stats.degenerate

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            metrics.weight_stats([-1.0, 2.0])


def test_truncation_ratio():
    assert metrics.truncation_ratio([0.5, 0.1, -0.3, 0.0], 0.0) == pytest.approx(0.5)
    assert metrics.truncation_ratio([1.0], 2.0) == 1.0
