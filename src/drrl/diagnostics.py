"""Per-user worst-case weight and truncation diagnostics at a checkpoint.

For every user, the candidate negatives are all items outside the training
set; held-out positives among them are flagged so the k2 statistic (mean
weight on flagged items relative to the overall mean) can be reported.
Users are diagnosed a block of score rows at a time, with every score
outside a user's candidates set to -inf, which the kernels weigh 0.
"""

from __future__ import annotations

import numpy as np

from . import losses as L
from .dro_core import minimize_beta_objective
# cosine_matrix and forward are unused here: perfbench's tracer wraps them in this module
from .graphmodel import CosineScores, cosine_matrix, forward  # noqa: F401
from .dataio import row_blocks
from .metrics import truncation_ratio, weight_stats

# Working memory per score of a diagnostics block: the padded scores, the
# masks, and the weights with the kernel's own float64 temporaries (34 bytes
# per score measured under SL and DrRL)
BYTES_PER_SCORE = 40

# One record per diagnosed user. A value a user does not have is nan: k1 and
# k2 on a degenerate user, k2 on a user with no flagged candidate, and the
# margin and truncation ratio under SL, which has no margin.
RECORD = np.dtype([("user", np.int64), ("k1", np.float64), ("k2", np.float64),
                   ("truncation", np.float64), ("beta", np.float64), ("degenerate", bool)])


def _candidate_masks(split, users, num_items, noise_pool):
    """Boolean (len(users), num_items) masks of each user's candidate items
    and of the flagged false negatives among them."""
    in_train = np.zeros((users.size, num_items), dtype=bool)
    in_train[split.train.gather(users)] = True
    if noise_pool == "train":
        return np.ones_like(in_train), in_train
    candidates = ~in_train
    flagged = np.zeros_like(in_train)
    flagged[split.validation.gather(users)] = True
    flagged[split.test.gather(users)] = True
    return candidates, flagged & candidates


def _margins(scores, users, spec, margins, resolve_margin):
    """Each row's margin (None under SL, which has none)."""
    if spec.kind == "sl":
        return None
    if resolve_margin:
        # one solve for the block, whose -inf scores are absent; CCL's hinge
        # is the DrRL term at g* = 1 with c = alpha and eps = 0
        objective = (1.0, spec.alpha, 0.0) if spec.kind == "ccl" else (
            spec.gamma_star, spec.c, spec.eps)
        return minimize_beta_objective(scores, *objective)[0]
    if margins is not None:
        return margins.beta[users]
    # the margin the loss trains with: CCL's is fixed, DrRL's starts at beta0
    return np.full(users.size, spec.margin if spec.kind == "ccl" else spec.beta0)


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
    block of users at a time, sized so that the block's working memory stays
    within `dataio.BLOCK_BYTES`.
    `resolve_margin` recomputes each user's margin by minimizing the
    truncated-moment objective on that user's candidate scores
    (`dro_core.minimize_beta_objective`, once per block) instead of reading
    it from the trained margin state. At c = 1 (alpha = 1 under CCL), the
    radius 0, the worst case is P itself: the margin reads -inf, every
    candidate weighs 1, k1 and k2 read 1 and truncation reads 0.
    `noise_pool` selects which items count as false negatives for k2: the
    user's held-out positives (default) or their train positives (in which
    case train positives also join the candidate sweep, mirroring the
    train-pool noise protocol).
    """
    if spec.kind not in L.WORST_CASE_KINDS:
        raise ValueError(f"no worst-case weight notion for loss {spec.kind!r}; "
                         f"diagnostics support {L.WORST_CASE_KINDS}")
    if noise_pool not in ("heldout", "train"):
        raise ValueError(f"noise pool must be 'heldout' or 'train', got {noise_pool!r}")
    num_users, num_items = score_matrix.shape
    blocks = [np.empty(0, RECORD)]
    for block in row_blocks(num_users, BYTES_PER_SCORE * num_items):
        users = np.arange(block.start, block.stop)
        candidates, flagged = _candidate_masks(split, users, num_items, noise_pool)
        live = candidates.any(axis=1)
        if not live.any():
            continue
        users, candidates, flagged = users[live], candidates[live], flagged[live]
        scores = np.where(candidates, score_matrix[users], -np.inf)
        beta = _margins(scores, users, spec, margins, resolve_margin)
        block = np.empty(users.size, RECORD)
        block["user"] = users
        block["k1"], block["k2"] = weight_stats(L.worst_case_weights(scores, spec, beta),
                                                candidates, flagged)
        block["degenerate"] = np.isnan(block["k1"])
        block["beta"] = np.nan if beta is None else beta
        block["truncation"] = (np.nan if beta is None
                               else truncation_ratio(scores, beta, candidates))
        blocks.append(block)
    return np.concatenate(blocks).view(np.recarray)


def aggregate(rows):
    """Mean k1 and k2 over non-degenerate users, and mean truncation over
    every user with a margin: a degenerate user (every candidate truncated)
    counts with truncation 1."""
    live = ~rows.degenerate
    k2 = rows.k2[~np.isnan(rows.k2)]  # nan on every degenerate user
    truncation = rows.truncation[~np.isnan(rows.truncation)]
    return {
        "users": len(rows),
        "degenerate_users": int(np.count_nonzero(rows.degenerate)),
        "k1_mean": float(np.mean(rows.k1[live])) if live.any() else float("nan"),
        "k2_mean": float(np.mean(k2)) if k2.size else None,
        "truncation_mean": float(np.mean(truncation)) if truncation.size else None,
    }


def checkpoint_scores(table, graph, backbone_cfg):
    """Noise-free cosine score matrix at a checkpoint: `CosineScores` read
    whole, as one dense users x items array."""
    return CosineScores(table, graph, backbone_cfg)[:]
