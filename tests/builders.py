"""Split parts, splits and interaction logs built from per-user Python sets
and (user, item, timestamp) rows, for tests that state their data that way."""

import numpy as np

from drrl import dataio, metrics


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
