"""Per-user worst-case weight and truncation diagnostics at a checkpoint.

For every user, the candidate negatives are all items outside the training
set; held-out positives among them are flagged so the k2 statistic (mean
weight on flagged items relative to the overall mean) can be reported.
Users are diagnosed a block of score rows at a time, in its own dtype, with
every score outside a user's candidates set to -inf, which the kernels weigh
0. Where a margin truncates some candidate, only each row's untruncated and
flagged candidates are weighed, packed to the left of a narrower block.

`user_diagnostics` returns one record (`RECORD`) per user with a candidate,
in user order; a value a user has none of is nan, and `aggregate` reads a
mean over no users as None, so `drrl stats` prints strict JSON. A resolved
margin minimizes the eps-free objective, whose optimum `worst_case_weights`
weighs as a mean-one density. Truncation is each row's count of candidates
at or below the margin over its candidate count. Under the held-out pool
the flagged items are `heldout_items` less the user's train items.
"""

from __future__ import annotations

import numpy as np

from . import losses as L
# cosine_matrix, forward and minimize_beta_objective are unused here: perfbench's
# tracer wraps them in this module
from .dro_core import minimize_beta_objective, solve_margins  # noqa: F401
from .graphmodel import CosineScores, cosine_matrix, forward  # noqa: F401
from .metrics import visit_score_blocks, weight_stats

# Working memory per score of a diagnostics block, beside the product it is
# sliced from: the flag and margin masks, the packed scores and the weights
# with the kernels' own float64 temporaries. Measured with tracemalloc on one
# 300 x 4000 block: CCL sets it, at 34.2 bytes (DrRL 34.1) on a block that
# packs all but one candidate per row, whose live entries and their dense
# weights sit beside the packed scores; SL reads 33.1 on a float32 block,
# whose float64 cast its kernel makes (25.1 on a float64 one), and CCL and
# DrRL 26.2 on a block that packs none
BYTES_PER_SCORE = 36

# One record per diagnosed user. A value a user does not have is nan: k1 and
# k2 on a degenerate user, k2 on a user with no flagged candidate, and the
# margin and truncation ratio under SL, which has no margin.
RECORD = np.dtype([("user", np.int64), ("k1", np.float64), ("k2", np.float64),
                   ("truncation", np.float64), ("beta", np.float64), ("degenerate", bool)])


def _margins(scores, users, spec, margins, resolve_margin):
    """Each row's margin (None under SL, which has none)."""
    if spec.kind == "sl":
        return None
    if resolve_margin:
        # one solve for the block, whose -inf scores are absent, at eps = 0:
        # the objective whose optimum `worst_case_weights` weighs, and CCL's
        # hinge, the DrRL term at g* = 1 with c = alpha
        objective = (1.0, spec.alpha) if spec.kind == "ccl" else (spec.gamma_star, spec.c)
        return solve_margins(scores, *objective)[0]
    if margins is not None:
        return margins.beta[users]
    # the margin the loss trains with: CCL's is fixed, DrRL's starts at beta0
    return np.full(users.size, spec.margin if spec.kind == "ccl" else spec.beta0)


def _packed(keep, scores, flagged):
    """Each row's `keep` entries of `scores` and of `flagged`, left-aligned
    in order in blocks as wide as the most any row keeps (at least 1): the
    scores in float64 padded with -inf, which weighs 0, the flags with False."""
    counts = np.count_nonzero(keep, axis=1)
    slots = np.arange(max(counts.max(), 1)) < counts[:, None]
    packed = np.full(slots.shape, -np.inf), np.zeros(slots.shape, bool)
    packed[0][slots], packed[1][slots] = scores[keep], flagged[keep]
    return packed


def user_diagnostics(
    score_matrix,
    split,
    spec: L.LossSpec,
    margins: L.MarginState | None = None,
    resolve_margin=False,
    noise_pool="heldout",
):
    """A `numpy.recarray` of `RECORD`s, one per user in user order: k1, k2,
    truncation ratio and the margin used. A user with no candidate item has
    no record.

    `score_matrix` (an array, or a `graphmodel.CosineScores`) is read one
    block of users at a time through `metrics.visit_score_blocks`, so that
    the working memory stays within `dataio.BLOCK_BYTES`. Each block is read
    in its own dtype and weighed in float64, which holds a float32 exactly.
    `resolve_margin` recomputes each user's margin by minimizing the
    truncated-moment objective at eps = 0 on that user's candidate scores
    (`dro_core.solve_margins`, once per block), the objective whose optimum
    `worst_case_weights` weighs as a mean-one density, instead of reading
    it from the given or trained margin state; a nan given margin raises
    ValueError. At c = 1 (alpha = 1 under CCL), the radius 0, the worst
    case is P itself: the margin reads -inf, every candidate weighs 1, k1
    and k2 read 1 and truncation reads 0.
    `noise_pool` selects the part whose items count as false negatives for
    k2, as it selects the sampler's flip pool: `split.heldout_items`
    (default) or `split.train` (in which case train positives also join the
    candidate sweep, mirroring the train-pool noise protocol).
    """
    if spec.kind not in L.WORST_CASE_KINDS:
        raise ValueError(f"no worst-case weight notion for loss {spec.kind!r}; "
                         f"diagnostics support {L.WORST_CASE_KINDS}")
    if noise_pool not in ("heldout", "train"):
        raise ValueError(f"noise pool must be 'heldout' or 'train', got {noise_pool!r}")
    if margins is not None and spec.kind != "sl" and not resolve_margin:
        nan = np.flatnonzero(np.isnan(margins.beta))
        if nan.size:
            raise ValueError(f"given margins must not be nan: user {nan[0]}'s is")
    num_users, num_items = score_matrix.shape
    # the flagged part, and each user's candidate count: the items outside
    # their train set, or every item under the train pool
    pool, candidate_counts = (
        (split.train, np.full(num_users, num_items)) if noise_pool == "train"
        else (split.heldout_items, num_items - np.diff(split.train.indptr)))
    blocks = [np.empty(0, RECORD)]

    def diagnose(users, block):
        live = candidate_counts[users] > 0
        if not live.all():
            users, block = users[live], block[live]
        if not users.size:
            return
        counts = candidate_counts[users]
        flagged = np.zeros(block.shape, bool)
        flagged[pool.gather(users)] = True
        if noise_pool == "heldout":
            # train items are no candidates: -inf, which the kernels weigh 0
            train = split.train.gather(users)
            block[train], flagged[train] = -np.inf, False
        beta = _margins(block, users, spec, margins, resolve_margin)
        records = np.empty(users.size, RECORD)
        records["user"] = users
        records["beta"] = np.nan if beta is None else beta
        records["truncation"] = np.nan
        if beta is not None:
            # above the margin, NaN too; the non-candidates (-inf) are not
            keep = np.less_equal(block, beta[:, None])
            np.logical_not(keep, out=keep)
            truncated = counts - np.count_nonzero(keep, axis=1)
            records["truncation"] = truncated / counts
            if truncated.any():
                # a truncated candidate weighs 0 and counts only through the
                # candidate counts weight_stats reads: weigh only the others
                # and the flagged ones
                keep |= flagged
                block, flagged = _packed(keep, block, flagged)
        records["k1"], records["k2"] = weight_stats(L.worst_case_weights(block, spec, beta),
                                                    counts, flagged)
        records["degenerate"] = np.isnan(records["k1"])
        blocks.append(records)

    visit_score_blocks(score_matrix, np.arange(num_users), BYTES_PER_SCORE, diagnose)
    return np.concatenate(blocks).view(np.recarray)


def aggregate(rows):
    """Mean k1 and k2 over non-degenerate users, and mean truncation over
    every user with a margin: a degenerate user (every candidate truncated)
    counts with truncation 1. A mean over no users is None."""
    live = ~rows.degenerate
    k2 = rows.k2[~np.isnan(rows.k2)]  # nan on every degenerate user
    truncation = rows.truncation[~np.isnan(rows.truncation)]
    return {
        "users": len(rows),
        "degenerate_users": int(np.count_nonzero(rows.degenerate)),
        "k1_mean": float(np.mean(rows.k1[live])) if live.any() else None,
        "k2_mean": float(np.mean(k2)) if k2.size else None,
        "truncation_mean": float(np.mean(truncation)) if truncation.size else None,
    }


def checkpoint_scores(table, graph, backbone_cfg):
    """Noise-free cosine score matrix at a checkpoint: `CosineScores` read
    whole, as one dense users x items array in the tables' dtype (float32
    for a loaded checkpoint)."""
    return CosineScores(table, graph, backbone_cfg)[:]
