"""Split parts, splits and interaction logs built from per-user Python sets
and (user, item, timestamp) rows, for tests that state their data that way,
and the traced peak memory of a read of a block log's cosine scores."""

import tracemalloc

import numpy as np

from drrl import dataio, metrics
from drrl.graphmodel import BackboneConfig, CosineScores, EmbeddingTable
from drrl.synthetic import make_block_log


def user_items(sets):
    """The UserItems part holding each user's set of item ids."""
    indptr = np.cumsum([0] + [len(s) for s in sets])
    return dataio.UserItems(indptr, np.array([i for s in sets for i in sorted(s)],
                                             dtype=np.int64))


def one_user_metric(metric, scores, exclude, truth, k):
    """`metric`@k ("recall" or "ndcg") of one score row, through
    `metrics.evaluate_ranking` on one-row parts of `exclude` and `truth`."""
    results = metrics.evaluate_ranking(np.asarray(scores, dtype=float)[None],
                                       user_items([exclude]), user_items([truth]), [k])
    return results[(metric, k)]


def split_of(train, validation, test, num_items, split_kind="iid"):
    """A DatasetSplit of per-user train, validation and test item sets."""
    return dataio.DatasetSplit(user_items(train), user_items(validation), user_items(test),
                               split_kind, len(train), num_items)


def log_of(rows, num_users, num_items, has_timestamps=True):
    """An InteractionLog of (user, item, timestamp) rows."""
    users, items, timestamps = np.array(rows, dtype=np.int64).reshape(-1, 3).T.copy()
    return dataio.InteractionLog(users, items, timestamps, num_users, num_items,
                                 has_timestamps)


def parts(split):
    """(train, validation, test) as lists of each user's ascending item ids."""
    return tuple([sorted(items) for items in getattr(split, name)] for name in dataio.PARTS)


def cosine_scores_peak(read, num_users, num_items):
    """Peak traced bytes of `read(scores, split)` on the float32 MF
    `CosineScores` of a seeded block log's iid split. The tables and their
    unit copies are made before tracing starts."""
    split = dataio.split_iid(make_block_log(num_users, num_items, interactions_per_user=20,
                                            seed=0), seed=0)
    table = EmbeddingTable.init_normal(split.num_users, split.num_items, 16, dtype=np.float32)
    scores = CosineScores(table, None, BackboneConfig(kind="mf"))
    tracemalloc.start()
    try:
        read(scores, split)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
