"""Top-K ranking metrics plus the diagnostic weight and truncation
statistics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Working-memory budget of one block of score rows. The ranking kernel holds
# a float64 copy of the block, argpartition's int64 index block and boolean
# masks: at most 20 bytes per score.
BLOCK_BYTES = 16 << 20


@dataclass
class WeightStats:
    k1: float          # max weight / mean weight
    k2: float | None   # mean weight over false negatives / mean weight
    degenerate: bool = False


def block_rows(num_items):
    """Rows per block of a (users x num_items) score matrix."""
    return max(1, BLOCK_BYTES // (20 * max(1, num_items)))


def _top_lists(masked, exclude, k):
    """Top-k item ids of every row of the float block `masked`, which is
    overwritten: the (row, item) index arrays `exclude` and non-finite
    scores never rank. Items are ordered by score descending, then item id
    ascending; a row with fewer than k ranked items is padded with -1."""
    if k < 1:
        raise ValueError(f"K must be at least 1, got {k}")
    masked[exclude] = -np.inf
    masked[~np.isfinite(masked)] = -np.inf
    num_items = masked.shape[1]
    k = min(k, num_items)
    if k == 0:
        return np.empty((masked.shape[0], 0), dtype=np.intp)
    # (a copy: a view would keep the whole index block alive)
    top = np.argpartition(masked, num_items - k, axis=1)[:, num_items - k:].copy()
    scores = np.take_along_axis(masked, top, axis=1)
    kth = scores.min(axis=1, keepdims=True)
    # argpartition picks arbitrary items among those tied with a row's k-th
    # best score: swap in the lowest ids of each such tie group
    picked = scores == kth
    need = np.count_nonzero(picked, axis=1)
    ties = np.flatnonzero(np.count_nonzero(masked == kth, axis=1) > need)
    if ties.size:
        rows, items = np.nonzero(masked[ties] == kth[ties])  # ids ascend per row
        rank = np.arange(rows.size) - np.searchsorted(rows, rows)
        slot_rows, slot_cols = np.nonzero(picked[ties])
        top[ties[slot_rows], slot_cols] = items[rank < need[ties][rows]]
    order = np.lexsort((top, -scores), axis=1)
    top = np.take_along_axis(top, order, axis=1)
    top[np.take_along_axis(scores, order, axis=1) == -np.inf] = -1
    return top


def top_k_items(scores, exclude, k):
    """Indices of the top-k items by score, excluding `exclude`; ties broken
    by ascending item id."""
    top = _top_lists(np.array(scores, dtype=float)[None], (0, list(exclude)), k)[0]
    return top[top >= 0]


def recall_at_k(scores, exclude, truth, k):
    """|top-k hits| / |truth| over the candidate items outside `exclude`."""
    if not truth:
        raise ValueError("ground truth must be nonempty")
    top = top_k_items(scores, exclude, k)
    hits = sum(1 for item in top if item in truth)
    return hits / len(truth)


def ndcg_at_k(scores, exclude, truth, k):
    """Binary-relevance NDCG with log2 position discount."""
    if not truth:
        raise ValueError("ground truth must be nonempty")
    top = top_k_items(scores, exclude, k)
    dcg = sum(
        1.0 / np.log2(rank + 2) for rank, item in enumerate(top) if item in truth
    )
    ideal = min(k, len(truth))
    idcg = sum(1.0 / np.log2(rank + 2) for rank in range(ideal))
    return float(dcg / idcg)


def evaluate_ranking(score_matrix, exclude_sets, truth_sets, ks):
    """Average Recall@K / NDCG@K over users with nonempty ground truth.

    `exclude_sets` and `truth_sets` are split parts (`dataio.UserItems`),
    one user per score row. Ranks blocks of `block_rows` users at a time,
    once to max(ks), and reads every K off that one top list. Returns
    {(metric, K): value}; users with empty truth are skipped.
    """
    score_matrix = np.asarray(score_matrix)
    num_users, num_items = score_matrix.shape
    for name, sets in (("exclude_sets", exclude_sets), ("truth_sets", truth_sets)):
        if len(sets) != num_users:
            raise ValueError(
                f"{name} has {len(sets)} entries for {num_users} score rows"
            )
    ks = list(dict.fromkeys(ks))
    if any(k < 1 for k in ks):
        raise ValueError(f"every K must be at least 1, got {ks}")
    scored = np.flatnonzero(np.diff(truth_sets.indptr))
    if scored.size == 0:
        raise ValueError("no user has ground-truth items")
    sums = {("recall", k): 0.0 for k in ks}
    sums.update({("ndcg", k): 0.0 for k in ks})
    if not ks:
        return sums
    discount = 1.0 / np.log2(np.arange(2, min(max(ks), num_items) + 2))
    ideal_dcg = np.cumsum(discount)
    step = block_rows(num_items)
    for lo in range(0, scored.size, step):
        users = scored[lo:lo + step]
        rows, items = truth_sets.gather(users)
        if items.min() < 0 or items.max() >= num_items:
            raise ValueError(
                f"truth item ids must lie in [0, {num_items}), "
                f"got {items.min()}..{items.max()}"
            )
        top = _top_lists(np.asarray(score_matrix[users], dtype=float),
                         exclude_sets.gather(users), max(ks))
        is_truth = np.zeros((users.size, num_items), dtype=bool)
        is_truth[rows, items] = True
        hits = is_truth[np.arange(users.size)[:, None], top] & (top >= 0)
        n_truth = np.bincount(rows, minlength=users.size)
        hit_count = np.cumsum(hits, axis=1)
        dcg = np.cumsum(hits * discount, axis=1)
        for k in ks:
            col = min(k, top.shape[1]) - 1
            sums[("recall", k)] += float(np.sum(hit_count[:, col] / n_truth))
            sums[("ndcg", k)] += float(np.sum(
                dcg[:, col] / ideal_dcg[np.minimum(k, n_truth) - 1]))
    return {key: val / scored.size for key, val in sums.items()}


def weight_stats(weights, false_negative_mask=None) -> WeightStats:
    """k1 = max/mean weight; k2 = mean weight over flagged false negatives
    relative to the overall mean (absent when the mask is empty)."""
    w = np.asarray(weights, dtype=float)
    if w.size == 0:
        raise ValueError("weights must be nonempty")
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    mean = w.mean()
    if mean == 0.0:
        return WeightStats(k1=float("nan"), k2=None, degenerate=True)
    k1 = float(w.max() / mean)
    k2 = None
    if false_negative_mask is not None:
        mask = np.asarray(false_negative_mask, dtype=bool)
        if mask.shape != w.shape:
            raise ValueError("mask length must equal weights length")
        if mask.any():
            k2 = float(w[mask].mean() / mean)
    return WeightStats(k1=k1, k2=k2)


def truncation_ratio(neg_scores, beta):
    """Fraction of negatives with score <= beta (zero-gradient region)."""
    f = np.asarray(neg_scores, dtype=float)
    if f.size == 0:
        raise ValueError("scores must be nonempty")
    return float(np.mean(f <= beta))
