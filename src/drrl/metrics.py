"""Top-K ranking metrics plus the diagnostic weight statistics."""

from __future__ import annotations

import numpy as np

from . import dataio

# Working memory per score of a ranking block, which is ranked in place:
# argpartition's int64 index block, or on rows tied at their k-th score or
# holding NaN or +inf, a copy of those rows and its int64 argsort or index
# block. Measured with tracemalloc: 8.3 bytes on distinct scores, 12.5 on a
# float32 block whose rows all tie and 16.5 on a float64 one (16.4 where
# every row holds a NaN)
BYTES_PER_SCORE = 17


def visit_score_blocks(score_matrix, rows, bytes_per_score, visit):
    """Call `visit(rows, scores)` on blocks covering the index array `rows`
    in order: each scores block is `score_matrix[rows]` in the matrix's
    float dtype (an integer matrix's in float64), free to overwrite. The
    blocks are `dataio.row_blocks` slices of products of many rows, each one
    `graphmodel.CosineScores` product or one gather from an array. The
    products take half of `dataio.BLOCK_BYTES` and a block's own working
    memory, `bytes_per_score` per score, the other half."""
    num_items = score_matrix.shape[1]
    dtype = np.result_type(score_matrix.dtype, np.float32)
    budget = dataio.BLOCK_BYTES // 2
    for chunk in dataio.row_blocks(rows.size, dtype.itemsize * num_items, budget):
        product = None  # freed before the next one is scored
        product = np.asarray(score_matrix[rows[chunk]], dtype=dtype)
        for part in dataio.row_blocks(len(product), bytes_per_score * num_items, budget):
            visit(rows[chunk][part], product[part])


def _pick(block, picks):
    """Ids of the `picks` largest entries of each row of `block`, in no order
    (a copy: a view would keep the whole index block alive)."""
    num_items = block.shape[1]
    return np.argpartition(block, num_items - picks, axis=1)[:, num_items - picks:].copy()


def _mask_non_finite(block, rows):
    """Set the non-finite scores in the given rows of `block` to -inf."""
    part = block[rows]
    part[~np.isfinite(part)] = -np.inf
    block[rows] = part


def _top_lists(masked, exclude, k):
    """Top-k item ids of every row of the float block `masked`, which is
    overwritten: the (row, item) index arrays `exclude` and non-finite
    scores never rank. Items are ordered by score descending, then item id
    ascending; a row with fewer than k ranked items is padded with -1."""
    if k < 1:
        raise ValueError(f"K must be at least 1, got {k}")
    masked[exclude] = -np.inf
    num_items = masked.shape[1]
    k = min(k, num_items)
    if k == 0:
        return np.empty((masked.shape[0], 0), dtype=np.intp)
    # the k + 1 best of each row: the (k+1)-th tells whether the k-th is tied
    picks = min(k + 1, num_items)
    top = _pick(masked, picks)
    scores = np.take_along_axis(masked, top, axis=1)
    # NaN and +inf partition above every number, so a row holding either has
    # one among its picks: only such rows are masked (by a helper, whose row
    # copy is freed before any tie sort) and picked again
    bad = np.flatnonzero(~(scores.max(axis=1) < np.inf))
    if bad.size:
        _mask_non_finite(masked, bad)
        top[bad] = _pick(masked[bad], picks)
        scores = np.take_along_axis(masked, top, axis=1)
    # by score descending, then id ascending: an id sort, then a stable one
    order = np.argsort(top, axis=1)
    top, scores = (np.take_along_axis(a, order, axis=1) for a in (top, scores))
    order = np.argsort(-scores, axis=1, kind="stable")
    top, scores = (np.take_along_axis(a, order, axis=1) for a in (top, scores))
    # an unpicked item can outrank a pick, by id, only where the k-th and
    # (k+1)-th picks tie above -inf: rank such rows whole by one stable sort,
    # which keeps ids ascending within a tie, and re-read their scores
    kth = scores[:, k - 1]
    ties = np.flatnonzero((kth == scores[:, picks - 1]) & (kth > -np.inf) & (picks > k))
    top, scores = top[:, :k], scores[:, :k]
    if ties.size:
        tied = masked[ties]
        np.negative(tied, out=tied)  # the one copy, negated in place
        top[ties] = np.argsort(tied, axis=1, kind="stable")[:, :k]
        scores[ties] = -np.take_along_axis(tied, top[ties], axis=1)
    top[scores == -np.inf] = -1
    return top


def top_k_items(scores, exclude, k):
    """Indices of the top-k items by score, excluding `exclude`; ties broken
    by ascending item id."""
    top = _top_lists(np.array(scores, dtype=float)[None], (0, list(exclude)), k)[0]
    return top[top >= 0]


def evaluate_ranking(score_matrix, exclude_sets, truth_sets, ks):
    """Average Recall@K / NDCG@K over users with nonempty ground truth.

    `score_matrix` (an array, or a `graphmodel.CosineScores`) is read by
    `visit_score_blocks` and each block ranked in its own float dtype;
    `exclude_sets` and `truth_sets` are split parts (`dataio.UserItems`),
    one user per score row. Ranks each block once to max(ks) and reads
    every K off that one top list. Returns {(metric, K): value}; users with
    empty truth are skipped.
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

    def rank(users, block):
        rows, items = truth_sets.gather(users)
        if items.min() < 0 or items.max() >= num_items:
            raise ValueError(
                f"truth item ids must lie in [0, {num_items}), "
                f"got {items.min()}..{items.max()}"
            )
        top = _top_lists(block, exclude_sets.gather(users), max(ks))
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

    visit_score_blocks(score_matrix, scored, BYTES_PER_SCORE, rank)
    return {key: val / scored.size for key, val in sums.items()}


def weight_stats(weights, counts, flagged):
    """Row-wise k1 = max / mean and k2 = mean over the flagged items / mean
    of nonnegative weights (B, n). The means are over each row's `counts`
    candidates, which may exceed n: `weights` may leave out candidates that
    weigh 0, and weighs 0 wherever it holds no candidate. `flagged`, a
    boolean (B, n) mask over `weights`, marks candidates. Returns k1 and k2,
    each (B,): both nan on a degenerate row (every weight 0), k2 nan on a row
    with nothing flagged. k1 is taken as count / sum(w / max w), a sum of
    terms at most 1, so that rounding never puts it below 1."""
    w = np.asarray(weights, dtype=float)
    if w.size and np.fmin.reduce(w, axis=None) < 0:  # fmin skips nan, as w < 0 does
        raise ValueError("weights must be nonnegative")
    with np.errstate(invalid="ignore"):  # 0 / 0 on degenerate rows
        scaled = w / w.max(axis=1, keepdims=True)
        k1 = counts / scaled.sum(axis=1)
        k2 = k1 * scaled.sum(axis=1, where=flagged) / np.count_nonzero(flagged, axis=1)
    return k1, k2
