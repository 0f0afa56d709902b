"""Top-K ranking metrics plus the diagnostic weight and truncation
statistics."""

from __future__ import annotations

import numpy as np

from .dataio import row_blocks

# Working memory per score of a ranking block: a float64 copy of the block,
# argpartition's int64 index block and boolean masks
BYTES_PER_SCORE = 20


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


def evaluate_ranking(score_matrix, exclude_sets, truth_sets, ks):
    """Average Recall@K / NDCG@K over users with nonempty ground truth.

    `score_matrix` (an array, or a `graphmodel.CosineScores`) is read by
    row blocks; `exclude_sets` and `truth_sets` are split parts
    (`dataio.UserItems`), one user per score row. Ranks the users in
    `dataio.row_blocks`, once to max(ks), and reads every K off that one top
    list. Returns {(metric, K): value}; users with empty truth are skipped.
    """
    num_users, num_items = score_matrix.shape
    for name, sets in (("exclude_sets", exclude_sets), ("truth_sets", truth_sets)):
        if (rows := len(sets.indptr) - 1) != num_users:
            raise ValueError(f"{name} has {rows} entries for {num_users} score rows")
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
    for block in row_blocks(scored.size, BYTES_PER_SCORE * num_items):
        users = scored[block]
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


def weight_stats(weights, candidates, flagged):
    """Row-wise k1 = max / mean and k2 = mean over the flagged items / mean
    of nonnegative weights (B, n), which are 0 outside each row's
    `candidates`; the means are over the candidates and `flagged` is a
    subset of them (both boolean (B, n) masks). Returns k1 and k2, each
    (B,): both nan on a degenerate row (every weight 0), k2 nan on a row
    with nothing flagged. k1 is taken as count / sum(w / max w), a sum of
    terms at most 1, so that rounding never puts it below 1."""
    w = np.asarray(weights, dtype=float)
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    with np.errstate(invalid="ignore"):  # 0 / 0 on degenerate rows
        scaled = w / w.max(axis=1, keepdims=True)
        k1 = np.count_nonzero(candidates, axis=1) / scaled.sum(axis=1)
        k2 = k1 * scaled.sum(axis=1, where=flagged) / np.count_nonzero(flagged, axis=1)
    return k1, k2


def truncation_ratio(scores, beta, candidates):
    """Row-wise fraction of each row's candidate scores (a boolean (B, n)
    mask) at or below its margin beta (B,): the zero-gradient region."""
    below = np.count_nonzero((scores <= np.asarray(beta)[:, None]) & candidates, axis=1)
    return below / np.count_nonzero(candidates, axis=1)
