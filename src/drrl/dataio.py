"""Interaction-log ingestion and IID / temporal / noise-injected splits
with uniform negative sampling."""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Byte budget of one block of the boolean (rows x items) train mask that
# `sample_batch` tests its draws against, so the sampler's memory does not
# grow with batch size x catalogue size.
MASK_BYTES = 16 << 20


class ParseError(ValueError):
    """Malformed interaction file; carries the offending line number."""

    def __init__(self, line_number, message):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class EmptyLogError(ValueError):
    pass


@dataclass(frozen=True)
class Interaction:
    user_id: int
    item_id: int
    timestamp: int = 0


@dataclass
class InteractionLog:
    interactions: list
    num_users: int
    num_items: int
    has_timestamps: bool = False
    user_id_map: dict = field(default_factory=dict)  # original -> dense id
    item_id_map: dict = field(default_factory=dict)

    def items_by_user(self):
        out = [[] for _ in range(self.num_users)]
        for it in self.interactions:
            out[it.user_id].append(it)
        return out


@dataclass(frozen=True)
class NoiseConfig:
    p: float = 0.0
    pool: str = "heldout"  # heldout | train: where flipped negatives come from

    def __post_init__(self):
        if not (0.0 <= self.p <= 1.0):
            raise ValueError("noise ratio must lie in [0, 1]")
        if self.pool not in ("heldout", "train"):
            raise ValueError("noise pool must be 'heldout' or 'train'")


@dataclass
class DatasetSplit:
    train: list  # per-user set of item ids
    validation: list
    test: list
    split_kind: str
    num_users: int
    num_items: int
    seed: int | None = None

    def train_pairs(self):
        pairs = [
            (u, i) for u, items in enumerate(self.train) for i in sorted(items)
        ]
        return np.asarray(pairs, dtype=np.int64).reshape(-1, 2)

    def heldout(self, user):
        return self.validation[user] | self.test[user]


@dataclass
class BatchSample:
    pairs: np.ndarray              # (B, 2) user, positive item
    negatives: np.ndarray          # (B, n_neg)
    false_negative_mask: np.ndarray  # (B, n_neg) bool


def load_interactions(path) -> InteractionLog:
    """Parse `user<TAB>item[<TAB>timestamp]` rows; `#` lines are comments.

    Ids are remapped to dense 0-based indices in first-appearance order;
    duplicate (user, item) pairs collapse keeping the earliest timestamp.
    """
    path = Path(path)
    user_map: dict = {}
    item_map: dict = {}
    seen: dict = {}
    has_ts = None
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) not in (2, 3):
                raise ParseError(lineno, f"expected 2 or 3 fields, got {len(parts)}")
            try:
                user_raw, item_raw = int(parts[0]), int(parts[1])
                ts = int(parts[2]) if len(parts) == 3 else 0
            except ValueError:
                raise ParseError(lineno, f"non-integer field in {line!r}") from None
            row_has_ts = len(parts) == 3
            has_ts = row_has_ts if has_ts is None else (has_ts and row_has_ts)
            u = user_map.setdefault(user_raw, len(user_map))
            i = item_map.setdefault(item_raw, len(item_map))
            key = (u, i)
            if key not in seen or ts < seen[key]:
                seen[key] = ts
    if not seen:
        raise EmptyLogError(f"no interactions found in {path}")
    interactions = [Interaction(u, i, ts) for (u, i), ts in seen.items()]
    return InteractionLog(
        interactions,
        num_users=len(user_map),
        num_items=len(item_map),
        has_timestamps=bool(has_ts),
        user_id_map=user_map,
        item_id_map=item_map,
    )


def k_core_filter(log: InteractionLog, user_core, item_core) -> InteractionLog:
    """Iteratively drop users/items below the core thresholds (to fixpoint),
    then re-densify the id spaces."""
    pairs = {(it.user_id, it.item_id): it.timestamp for it in log.interactions}
    while True:
        u_deg: dict = {}
        i_deg: dict = {}
        for u, i in pairs:
            u_deg[u] = u_deg.get(u, 0) + 1
            i_deg[i] = i_deg.get(i, 0) + 1
        keep = {
            (u, i): ts
            for (u, i), ts in pairs.items()
            if u_deg[u] >= user_core and i_deg[i] >= item_core
        }
        if len(keep) == len(pairs):
            break
        pairs = keep
    if not pairs:
        raise EmptyLogError("k-core filtering removed every interaction")
    user_map: dict = {}
    item_map: dict = {}
    interactions = []
    for (u, i), ts in sorted(pairs.items()):
        du = user_map.setdefault(u, len(user_map))
        di = item_map.setdefault(i, len(item_map))
        interactions.append(Interaction(du, di, ts))
    return InteractionLog(
        interactions,
        num_users=len(user_map),
        num_items=len(item_map),
        has_timestamps=log.has_timestamps,
        user_id_map=user_map,
        item_id_map=item_map,
    )


def _round_nearest(x):
    # plain nearest-integer rounding (half away from zero), not banker's
    return int(np.floor(x + 0.5))


def _split_counts(n, train_frac, val_frac_of_train):
    """Per-user sizes: nearest-integer rounding with a floor of 1 train item."""
    n_train_total = _round_nearest(n * train_frac)
    n_train_total = min(max(n_train_total, 1), n)
    n_test = n - n_train_total
    n_val = _round_nearest(n_train_total * val_frac_of_train)
    n_val = min(n_val, n_train_total - 1)  # keep at least 1 train item
    n_train = n_train_total - n_val
    return n_train, n_val, n_test


def split_iid(log: InteractionLog, train_frac=0.8, val_frac_of_train=0.1, seed=0):
    """Per-user random partition into train/validation/test."""
    if not (0 < train_frac < 1) or not (0 < val_frac_of_train < 1):
        raise ValueError("fractions must lie strictly between 0 and 1")
    rng = np.random.default_rng(seed)
    train = [set() for _ in range(log.num_users)]
    val = [set() for _ in range(log.num_users)]
    test = [set() for _ in range(log.num_users)]
    for user, inters in enumerate(log.items_by_user()):
        items = sorted(it.item_id for it in inters)
        n = len(items)
        if n == 0:
            continue
        n_train, n_val, n_test = _split_counts(n, train_frac, val_frac_of_train)
        perm = rng.permutation(n)
        shuffled = [items[j] for j in perm]
        train[user] = set(shuffled[:n_train])
        val[user] = set(shuffled[n_train:n_train + n_val])
        test[user] = set(shuffled[n_train + n_val:])
    return DatasetSplit(train, val, test, "iid", log.num_users, log.num_items, seed)


def split_temporal(log: InteractionLog, test_frac=0.2, val_frac_of_train=0.1):
    """Per-user split by recency: the latest ceil(test_frac * n) interactions
    form the test set; the latest slice of the remainder is validation.

    Test items never seen in any user's train set are dropped.
    """
    if not log.has_timestamps:
        raise ValueError(
            "temporal split needs timestamps on every interaction; use the IID split"
        )
    if not (0 <= test_frac < 1):
        raise ValueError("test_frac must lie in [0, 1)")
    train = [set() for _ in range(log.num_users)]
    val = [set() for _ in range(log.num_users)]
    test = [set() for _ in range(log.num_users)]
    for user, inters in enumerate(log.items_by_user()):
        # ties broken by ascending item id
        ordered = sorted(inters, key=lambda it: (it.timestamp, it.item_id))
        n = len(ordered)
        if n == 0:
            continue
        n_test = int(np.ceil(test_frac * n))
        n_test = min(n_test, n - 1) if n > 1 else 0
        pool = ordered[: n - n_test] if n_test else ordered
        test[user] = {it.item_id for it in ordered[n - n_test:]} if n_test else set()
        n_pool = len(pool)
        n_val = _round_nearest(n_pool * val_frac_of_train)
        n_val = min(n_val, n_pool - 1)
        train[user] = {it.item_id for it in pool[: n_pool - n_val]}
        val[user] = {it.item_id for it in pool[n_pool - n_val:]} if n_val else set()
    trained_items = set().union(*train) if train else set()
    for user in range(log.num_users):
        test[user] = {i for i in test[user] if i in trained_items}
    return DatasetSplit(train, val, test, "temporal_ood", log.num_users, log.num_items)


def _train_mask(train_keys, start, degree, num_items):
    """Boolean (rows, num_items) mask of each row's train items, the keys
    train_keys[start:start + degree] (key = user * num_items + item)."""
    ends = np.cumsum(degree)
    at = np.arange(ends[-1]) + np.repeat(start - ends + degree, degree)
    mask = np.zeros((len(start), num_items), dtype=bool)
    mask[np.repeat(np.arange(len(start)), degree), train_keys[at] % num_items] = True
    return mask


class _TrainMask:
    """Train-item membership for the rows of a batch, read off boolean
    `_train_mask` blocks of at most MASK_BYTES. The last block built is
    kept, so a batch that fits one block builds it once."""

    def __init__(self, train_keys, start, degree, num_items):
        self.train_keys, self.start, self.degree = train_keys, start, degree
        self.num_items = num_items
        self.rows = max(1, MASK_BYTES // num_items)
        self.built = (None, None)

    def _block(self, first):
        if self.built[0] != first:
            rows = slice(first, first + self.rows)
            self.built = (first, _train_mask(self.train_keys, self.start[rows],
                                             self.degree[rows], self.num_items))
        return self.built[1]

    def hits(self, rows, items):
        """Whether each item is a train item of its batch row; `rows` is
        ascending, an (n,) vector or an (n, 1) column against (n, k) items."""
        out = np.empty(items.shape, dtype=bool)
        for first in range(0, len(self.start), self.rows):
            lo, hi = np.searchsorted(rows.ravel(), (first, first + self.rows))
            if lo < hi:
                keys = items[lo:hi] + self.num_items * (rows[lo:hi] - first)
                out[lo:hi] = np.take(self._block(first), keys)
        return out


def _heldout_pools(split, users):
    """Each row's held-out pool as CSR arrays (starts, sizes, items) over
    the sorted held-out items of the distinct users."""
    distinct, row_user = np.unique(users, return_inverse=True)
    pools = [sorted(split.heldout(int(u))) for u in distinct]
    sizes = np.array([len(p) for p in pools], dtype=np.int64)
    items = np.fromiter((i for p in pools for i in p), dtype=np.int64, count=sizes.sum())
    return (np.cumsum(sizes) - sizes)[row_user], sizes[row_user], items


def sample_batch(
    split: DatasetSplit,
    batch_size,
    n_neg,
    noise: NoiseConfig | None = None,
    rng=None,
    train_pairs=None,
) -> BatchSample:
    """Uniform positive pairs with per-pair uniform negatives.

    Under a noise config with p > 0 each negative slot is, with probability
    p, drawn from the configured pool of the user's positives (held-out by
    default, or their train positives) and flagged as a false negative;
    otherwise it is drawn outside the user's train positives. Users with
    an empty pool get no flips. Rows whose user has no item outside the
    train set are skipped, with one warning per call.

    All slots are drawn at once; a draw that hits one of the user's train
    positives (read off a boolean train mask of the batch rows, built in
    blocks of at most MASK_BYTES) is redrawn.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    noise = noise or NoiseConfig()
    if train_pairs is None:
        train_pairs = split.train_pairs()
    if len(train_pairs) == 0:
        raise ValueError("split has no train interactions")
    num_items = split.num_items
    train_keys = train_pairs[:, 0] * num_items + train_pairs[:, 1]
    if np.any(train_keys[1:] < train_keys[:-1]):  # split.train_pairs() is in order
        train_keys = np.sort(train_keys)
    pairs = train_pairs[rng.integers(0, len(train_pairs), size=batch_size)]
    # each row's train items are train_keys[start:start + degree]
    start = np.searchsorted(train_keys, pairs[:, 0] * num_items)
    degree = np.searchsorted(train_keys, (pairs[:, 0] + 1) * num_items) - start
    full = degree >= num_items
    if full.any():
        warnings.warn(f"skipped {int(full.sum())} of {batch_size} sampled rows: "
                      "their users have no negative pool")
        pairs, start, degree = pairs[~full], start[~full], degree[~full]
    users = pairs[:, 0]

    negatives = rng.integers(0, num_items, size=(len(pairs), n_neg))
    flat = negatives.reshape(-1)
    train_mask = _TrainMask(train_keys, start, degree, num_items)
    redraw = np.flatnonzero(train_mask.hits(np.arange(len(pairs))[:, None], negatives))
    while redraw.size:
        flat[redraw] = rng.integers(0, num_items, size=redraw.size)
        redraw = redraw[train_mask.hits(redraw // n_neg, flat[redraw])]

    flips = np.zeros(negatives.shape, dtype=bool)
    if noise.p > 0 and len(pairs):
        if noise.pool == "train":
            starts, sizes, items = start, degree, train_keys % num_items
        else:
            starts, sizes, items = _heldout_pools(split, users)
        flips = (rng.random(negatives.shape) < noise.p) & (sizes > 0)[:, None]
        rows = np.nonzero(flips)[0]
        negatives[flips] = items[starts[rows] + rng.integers(0, sizes[rows])]
    return BatchSample(pairs, negatives, flips)


def write_split(split: DatasetSplit, outdir):
    """Three `user<TAB>item` text files plus a JSON summary manifest."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    counts = {}
    for name, sets in (("train", split.train), ("validation", split.validation), ("test", split.test)):
        n = 0
        tmp = outdir / f".{name}.tmp"
        with open(tmp, "w") as fh:
            for user, items in enumerate(sets):
                for item in sorted(items):
                    fh.write(f"{user}\t{item}\n")
                    n += 1
        tmp.rename(outdir / f"{name}.tsv")
        counts[name] = n
    manifest = {
        "num_users": split.num_users,
        "num_items": split.num_items,
        "counts": counts,
        "split_kind": split.split_kind,
        "seed": split.seed,
    }
    tmp = outdir / ".manifest.tmp"
    with open(tmp, "w") as fh:
        json.dump(manifest, fh, indent=2)
    tmp.rename(outdir / "manifest.json")
    return manifest


def read_split(indir) -> DatasetSplit:
    indir = Path(indir)
    with open(indir / "manifest.json") as fh:
        manifest = json.load(fh)
    num_users = manifest["num_users"]
    num_items = manifest["num_items"]
    parts = {}
    for name in ("train", "validation", "test"):
        sets = [set() for _ in range(num_users)]
        with open(indir / f"{name}.tsv") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                u, i = (int(x) for x in line.split())
                sets[u].add(i)
        parts[name] = sets
    return DatasetSplit(
        parts["train"],
        parts["validation"],
        parts["test"],
        manifest["split_kind"],
        num_users,
        num_items,
        manifest.get("seed"),
    )
