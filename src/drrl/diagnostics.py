"""Per-user worst-case weight and truncation diagnostics at a checkpoint.

For every user, the candidate negatives are all items outside the training
set; held-out positives among them are flagged so the k2 statistic (mean
weight on flagged items relative to the overall mean) can be reported.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import losses as L
from .dro_core import minimize_beta_objective
# cosine_matrix and forward are unused here: perfbench's tracer wraps them in this module
from .graphmodel import CosineScores, cosine_matrix, forward  # noqa: F401
from .metrics import block_rows, truncation_ratio, weight_stats

DIAGNOSABLE = ("sl", "ccl", "drrl")


@dataclass
class UserDiagnostics:
    user: int
    k1: float
    k2: float | None
    truncation: float | None
    beta: float | None
    degenerate: bool


def user_diagnostics(
    score_matrix,
    split,
    spec: L.LossSpec,
    margins: L.MarginState | None = None,
    resolve_margin=False,
    noise_pool="heldout",
):
    """Per-user rows of k1, k2, truncation ratio and the margin used.

    `score_matrix` (an array, or a `graphmodel.CosineScores`) is read one
    block of `block_rows` users at a time.
    `resolve_margin` recomputes each user's margin by minimizing the
    truncated-moment objective on that user's negative scores instead of
    reading it from the trained margin state. `noise_pool` selects which
    items count as false negatives for k2: the user's held-out positives
    (default) or their train positives (in which case train positives also
    join the candidate sweep, mirroring the train-pool noise protocol).
    """
    if spec.kind not in DIAGNOSABLE:
        raise ValueError(
            f"no worst-case weight notion for loss {spec.kind!r}; "
            f"diagnostics support {DIAGNOSABLE}"
        )
    num_users, num_items = score_matrix.shape
    positive = np.zeros((1, 1))  # the kernels' d_neg does not depend on it
    rows = []
    step = block_rows(num_items)
    for user in range(num_users):
        slot = user % step  # the user's row in the block's scores and masks
        if slot == 0:
            stop = min(user + step, num_users)
            block = np.arange(user, stop)
            scores = score_matrix[user:stop]
            in_train = np.zeros((block.size, num_items), dtype=bool)
            in_train[split.train.gather(block)] = True
            if noise_pool != "train":
                in_heldout = np.zeros_like(in_train)
                in_heldout[split.validation.gather(block)] = True
                in_heldout[split.test.gather(block)] = True
        if noise_pool == "train":
            candidates, flagged = np.arange(num_items), in_train[slot]
        else:
            candidates = np.flatnonzero(~in_train[slot])
            flagged = in_heldout[slot, candidates]
        if candidates.size == 0:
            continue
        f = scores[slot, candidates]

        beta = None
        if spec.kind != "sl":
            if resolve_margin:
                if spec.kind == "ccl":
                    beta, _ = minimize_beta_objective(f, 1.0, spec.alpha, 0.0)
                else:
                    beta, _ = minimize_beta_objective(f, spec.gamma_star, spec.c, spec.eps)
            elif margins is not None:
                beta = float(margins.beta[user])
            else:
                # the margin the loss trains with: CCL's is fixed, DrRL's starts at beta0
                beta = spec.margin if spec.kind == "ccl" else spec.beta0
        # The worst-case weights are the kernel's negative-score gradient up
        # to a constant factor, which k1 and k2 (ratios to the mean) ignore;
        # DrRL's are taken at eps = 0, the Renyi ball's own distribution.
        if spec.kind == "sl":
            _, _, d_neg = L.softmax_loss(positive, f[None], spec.tau)
        elif spec.kind == "ccl":
            _, _, d_neg = L.ccl_loss(positive, f[None], spec.alpha, beta)
        else:
            _, _, d_neg = L.drrl_loss(positive, f[None], spec.gamma_star, spec.c, 0.0, beta)
        stats = weight_stats(d_neg[0], flagged)
        rows.append(
            UserDiagnostics(
                user, stats.k1, stats.k2,
                None if beta is None else truncation_ratio(f, beta),
                beta, stats.degenerate,
            )
        )
    return rows


def aggregate(rows):
    """Mean k1 / k2 / truncation over non-degenerate users."""
    live = [r for r in rows if not r.degenerate]
    k2s = [r.k2 for r in live if r.k2 is not None]
    truncs = [r.truncation for r in rows if r.truncation is not None]
    return {
        "users": len(rows),
        "degenerate_users": sum(r.degenerate for r in rows),
        "k1_mean": float(np.mean([r.k1 for r in live])) if live else float("nan"),
        "k2_mean": float(np.mean(k2s)) if k2s else None,
        "truncation_mean": float(np.mean(truncs)) if truncs else None,
    }


def checkpoint_scores(table, graph, backbone_cfg):
    """Noise-free cosine score matrix at a checkpoint: `CosineScores` read
    whole, as one dense users x items array."""
    return CosineScores(table, graph, backbone_cfg)[:]
