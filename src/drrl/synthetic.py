"""Seed-fixed synthetic block dataset for smoke experiments: users and items
fall into preference blocks, with a small ratio of cross-block interactions."""

from __future__ import annotations

import numpy as np

from .dataio import InteractionLog


def make_block_log(
    num_users=100,
    num_items=60,
    blocks=2,
    cross_ratio=0.05,
    interactions_per_user=12,
    seed=0,
) -> InteractionLog:
    rng = np.random.default_rng(seed)
    user_block = np.arange(num_users) % blocks
    item_block = np.arange(num_items) % blocks
    block_items = [np.flatnonzero(item_block == b) for b in range(blocks)]
    rows = []  # (user, item, timestamp): each user's items stamped 0, 1, ... as drawn
    for user in range(num_users):
        own = block_items[user_block[user]]
        other = np.concatenate(
            [block_items[b] for b in range(blocks) if b != user_block[user]]
        )
        chosen: set = set()
        while len(chosen) < min(interactions_per_user, num_items):
            pool = other if (rng.random() < cross_ratio and other.size) else own
            item = int(pool[rng.integers(0, pool.size)])
            if item not in chosen:
                rows.append((user, item, len(chosen)))
                chosen.add(item)
    return InteractionLog(
        *np.array(rows, dtype=np.int64).reshape(-1, 3).T.copy(),
        num_users=num_users,
        num_items=num_items,
        has_timestamps=True,
    )
