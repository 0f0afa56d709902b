"""Interaction-log ingestion and IID / temporal / noise-injected splits
with uniform negative sampling."""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Working-memory budget of one block of rows in every kernel whose arrays
# would otherwise grow with batch size x catalogue size or users x items:
# the sampler's train mask, the training step's score chunks, the ranking
# kernel and the diagnostics. Each kernel counts its own bytes per row.
BLOCK_BYTES = 16 << 20

# Elements in one cache-sized block (256 KiB of float64), walked by the
# element-wise kernels that make several passes over each block: the DrRL
# loss kernel and Adam.
CACHE_BLOCK = 1 << 15

PARTS = ("train", "validation", "test")


def row_blocks(count, row_size, budget=None):
    """Slices covering range(count) in order, each of as many rows of
    `row_size` as fit `budget` (in the same unit; BLOCK_BYTES bytes by
    default), and at least one."""
    rows = (BLOCK_BYTES if budget is None else budget) // (row_size or 1) or 1
    if 0 < count <= rows:  # kernels called on a few scores at a time skip the loop
        return [slice(0, count)]
    return [slice(start, min(start + rows, count)) for start in range(0, count, rows)]


def replace_file(path, data):
    """Write a str or bytes payload to `path` whole, through a hidden sibling
    temporary file renamed onto it, creating the directory. On any failure
    the temporary file is removed and `path` is left as it was."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb" if isinstance(data, bytes) else "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class ParseError(ValueError):
    """Malformed input file; names the file and carries the offending line
    number."""

    def __init__(self, line_number, message, path):
        super().__init__(f"{path}, line {line_number}: {message}")
        self.line_number = line_number


class EmptyLogError(ValueError):
    pass


@dataclass
class InteractionLog:
    """Interactions as aligned int64 arrays: user `users[k]` interacted with
    item `items[k]` at `timestamps[k]` (0 in a log without timestamps)."""

    users: np.ndarray
    items: np.ndarray
    timestamps: np.ndarray
    num_users: int
    num_items: int
    has_timestamps: bool = False


class UserItems:
    """One split part as CSR: user u's item ids, ascending, are
    `items[indptr[u]:indptr[u + 1]]`."""

    def __init__(self, indptr, items):
        self.indptr = indptr
        self.items = items

    def gather(self, users):
        """(row, item) arrays of every item of `users[row]`, row by row with
        items ascending."""
        start = self.indptr[users]
        size = self.indptr[users + 1] - start
        rows = np.repeat(np.arange(len(start)), size)
        at = np.arange(rows.size) + np.repeat(start - np.cumsum(size) + size, size)
        return rows, self.items[at]

    # A read-only per-user view, `part[u]` a frozenset, and its length, kept
    # for callers outside the package (the benchmark's counters and reference
    # ranking read parts this way); the package itself reads only the arrays.
    def __len__(self):
        return len(self.indptr) - 1

    def __getitem__(self, user):
        return frozenset(self.items[self.indptr[user]:self.indptr[user + 1]].tolist())

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))


def _user_items(users, items, num_users, num_items):
    """UserItems of (user, item) pairs in any order; repeated pairs collapse."""
    keys = np.sort(users * num_items + items)  # nonnegative
    users, items = np.divmod(keys[np.diff(keys, prepend=-1) > 0], max(num_items, 1))
    return UserItems(np.searchsorted(users, np.arange(num_users + 1)), items)


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
    train: UserItems
    validation: UserItems
    test: UserItems
    split_kind: str
    num_users: int
    num_items: int
    seed: int | None = None

    def train_pairs(self):
        """(user, item) rows of every train interaction, in that order."""
        return np.column_stack(self.train.gather(np.arange(self.num_users)))

    def heldout(self, user):
        """The user's validation and test items as a frozenset, a per-user
        view kept for callers outside the package."""
        return self.validation[user] | self.test[user]


@dataclass
class BatchSample:
    pairs: np.ndarray              # (B, 2) user, positive item
    negatives: np.ndarray          # (B, n_neg)
    false_negative_mask: np.ndarray  # (B, n_neg) bool


def _first_appearance_ids(ids):
    """Dense 0-based ids numbered in order of first appearance, and how many."""
    distinct, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
    dense = np.empty(distinct.size, dtype=np.int64)
    dense[np.argsort(first)] = np.arange(distinct.size)
    return dense[inverse], distinct.size


def load_interactions(path) -> InteractionLog:
    """Parse `user<TAB>item[<TAB>timestamp]` rows; `#` lines are comments.

    Ids are remapped to dense 0-based indices in first-appearance order;
    duplicate (user, item) pairs collapse to their first row, keeping the
    earliest timestamp.
    """
    path = Path(path)
    rows = _int_rows(path)
    if rows is not None and rows.shape[1] in (2, 3):
        has_ts = rows.shape[1] == 3
        users, items = rows[:, 0], rows[:, 1]
        timestamps = rows[:, 2] if has_ts else np.zeros(len(rows), dtype=np.int64)
    else:
        users, items, timestamps, has_ts = _parse_log_lines(path)
    users, num_users = _first_appearance_ids(users)
    items, num_items = _first_appearance_ids(items)
    _, first, pair = np.unique(users * num_items + items, return_index=True,
                               return_inverse=True)
    earliest = np.full(first.size, np.iinfo(np.int64).max)
    np.minimum.at(earliest, pair, timestamps)
    order = np.argsort(first)
    return InteractionLog(users[first[order]], items[first[order]], earliest[order],
                          num_users, num_items, has_timestamps=has_ts)


def _int_rows(path):
    """A text file's whitespace-separated int64 fields as one (rows, fields)
    array, by one numpy call; None when a field is no int64 (a `#` comment
    included), the rows differ in length or there are none. Callers then
    reparse the file line by line, which names the bad line."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a file without rows
            # numpy releases that parse a float field into an int column
            # only warn of it; such a field is no int64 here
            warnings.simplefilter("error", DeprecationWarning)
            rows = np.loadtxt(path, dtype=np.int64, ndmin=2, comments=None)
    except (ValueError, DeprecationWarning):
        return None
    return rows if rows.size else None


def _parse_log_lines(path):
    """`load_interactions`' parse, one line at a time: (users, items,
    timestamps, has_timestamps); a bad line raises ParseError naming it."""
    rows = []
    has_ts = True
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            fields = raw.split()
            if not fields or fields[0].startswith("#"):
                continue
            if len(fields) not in (2, 3):
                raise ParseError(lineno, f"expected 2 or 3 fields, got {len(fields)}", path)
            try:
                rows.append((int(fields[0]), int(fields[1]),
                             int(fields[2]) if len(fields) == 3 else 0))
            except ValueError:
                raise ParseError(lineno, f"non-integer field in {raw.strip()!r}",
                                 path) from None
            has_ts = has_ts and len(fields) == 3
    if not rows:
        raise EmptyLogError(f"no interactions found in {path}")
    try:
        users, items, timestamps = np.array(rows, dtype=np.int64).T.copy()
    except OverflowError:
        raise ValueError(f"{path}: an id or timestamp does not fit in 64 bits") from None
    return users, items, timestamps, has_ts


def k_core_filter(log: InteractionLog, user_core, item_core) -> InteractionLog:
    """Iteratively drop users/items below the core thresholds (to fixpoint),
    then re-densify the id spaces: the rows in (user, item) order, each id
    space numbered in order of first appearance along them."""
    users, items, timestamps = log.users, log.items, log.timestamps
    while True:
        keep = ((np.bincount(users)[users] >= user_core)
                & (np.bincount(items)[items] >= item_core))
        if keep.all():
            break
        users, items, timestamps = users[keep], items[keep], timestamps[keep]
    if not users.size:
        raise EmptyLogError("k-core filtering removed every interaction")
    order = np.lexsort((items, users))
    users, num_users = _first_appearance_ids(users[order])
    items, num_items = _first_appearance_ids(items[order])
    return InteractionLog(users, items, timestamps[order], num_users, num_items,
                          has_timestamps=log.has_timestamps)


def _round_nearest(x):
    # plain nearest-integer rounding (half away from zero), not banker's
    return np.floor(x + 0.5).astype(np.int64)


def _user_runs(log, *keys):
    """The log's (users, items) sorted by user, then by `keys` (most
    significant first), then by item, plus each row's position in its
    user's run and the run lengths."""
    order = np.lexsort((log.items, *keys[::-1], log.users))
    users, items = log.users[order], log.items[order]
    size = np.bincount(users, minlength=log.num_users)
    return users, items, np.arange(users.size) - np.repeat(np.cumsum(size) - size, size), size


def _pool_parts(users, at, n_pool, val_frac_of_train):
    """Each row's part, 0 train, 1 validation or 2 test, by its position `at`
    in its user's run: a user's first n_pool rows are the train pool, whose
    last round(n_pool * val_frac_of_train) rows (leaving at least 1 train
    row) are validation."""
    n_val = np.minimum(_round_nearest(n_pool * val_frac_of_train), n_pool - 1)
    return (at >= (n_pool - n_val)[users]).astype(np.int64) + (at >= n_pool[users])


def _split_of(log, users, items, part, kind, seed=None):
    """The split that puts row k in part[k]; other values drop the row."""
    return DatasetSplit(*(_user_items(users[part == p], items[part == p], log.num_users,
                                      log.num_items) for p in range(3)),
                        kind, log.num_users, log.num_items, seed)


def split_iid(log: InteractionLog, train_frac=0.8, val_frac_of_train=0.1, seed=0):
    """Per-user random partition into train/validation/test: one
    `rng.permutation` of each non-empty user's ascending items, in user order,
    sized by nearest-integer rounding with a floor of 1 train item."""
    if not (0 < train_frac < 1) or not (0 < val_frac_of_train < 1):
        raise ValueError("fractions must lie strictly between 0 and 1")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    rng = np.random.default_rng(seed)
    users, items, at, size = _user_runs(log)
    # row j of a user's shuffled run holds the perm[j]-th of its items
    perm = np.concatenate([np.empty(0, dtype=np.int64)]
                          + [rng.permutation(n) for n in size[size > 0]])
    part = _pool_parts(users, at, np.clip(_round_nearest(size * train_frac), 1, size),
                       val_frac_of_train)
    return _split_of(log, users, items[np.arange(users.size) - at + perm], part, "iid", seed)


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
    if not (0 < val_frac_of_train < 1):
        raise ValueError("val_frac_of_train must lie strictly between 0 and 1")
    # ties broken by ascending item id
    users, items, at, size = _user_runs(log, log.timestamps)
    n_test = np.where(size > 1, np.minimum(np.ceil(test_frac * size).astype(np.int64),
                                           size - 1), 0)
    part = _pool_parts(users, at, size - n_test, val_frac_of_train)
    trained = np.zeros(log.num_items, dtype=bool)
    trained[items[part == 0]] = True
    part[(part == 2) & ~trained[items]] = 3
    return _split_of(log, users, items, part, "temporal_ood")


def _heldout_pools(split, users):
    """The held-out (validation and test) items of the distinct users, as
    UserItems, and each row's index among those users."""
    distinct, row_user = np.unique(users, return_inverse=True)
    (rv, iv), (rt, it) = split.validation.gather(distinct), split.test.gather(distinct)
    return _user_items(np.concatenate([rv, rt]), np.concatenate([iv, it]), distinct.size,
                       split.num_items), row_user


def sample_batch(
    split: DatasetSplit,
    batch_size,
    n_neg,
    noise: NoiseConfig | None,
    rng,
    train_pairs=None,
) -> BatchSample:
    """Uniform positive pairs with per-pair uniform negatives.

    Under a noise config with p > 0 each negative slot is, with probability
    p, drawn from the configured pool of the user's positives (held-out by
    default, or their train positives) and flagged as a false negative;
    otherwise it is drawn outside the user's train positives. Users with
    an empty pool get no flips. Rows whose user has no item outside the
    train set are skipped, with one warning per call.

    All slots are drawn at once. The batch rows are then walked in
    `row_blocks` of at most BLOCK_BYTES: each block's boolean (rows x items)
    train mask is made once, and the block's draws that hit one of the
    user's train positives are redrawn until none does.
    """
    noise = noise or NoiseConfig()
    if train_pairs is None:
        train_pairs = split.train_pairs()
    if len(train_pairs) == 0:
        raise ValueError("split has no train interactions")
    num_items = split.num_items
    pairs = train_pairs[rng.integers(0, len(train_pairs), size=batch_size)]
    full = np.diff(split.train.indptr)[pairs[:, 0]] >= num_items
    if full.any():
        warnings.warn(f"skipped {int(full.sum())} of {batch_size} sampled rows: "
                      "their users have no negative pool")
        pairs = pairs[~full]
    users = pairs[:, 0]

    negatives = rng.integers(0, num_items, size=(len(pairs), n_neg))
    for block in row_blocks(len(pairs), num_items):
        mask = np.zeros((block.stop - block.start, num_items), dtype=bool)
        mask[split.train.gather(users[block])] = True
        flat = negatives[block].reshape(-1)  # a view: the block's rows are contiguous
        offsets = num_items * np.arange(len(mask))
        redraw = np.flatnonzero(np.take(mask, negatives[block] + offsets[:, None]))
        while redraw.size:
            flat[redraw] = rng.integers(0, num_items, size=redraw.size)
            redraw = redraw[np.take(mask, flat[redraw] + offsets[redraw // n_neg])]

    flips = np.zeros(negatives.shape, dtype=bool)
    if noise.p > 0 and len(pairs):
        pools, row = ((split.train, users) if noise.pool == "train"
                      else _heldout_pools(split, users))
        starts = pools.indptr[row]
        sizes = pools.indptr[row + 1] - starts
        flips = (rng.random(negatives.shape) < noise.p) & (sizes > 0)[:, None]
        rows = np.nonzero(flips)[0]
        negatives[flips] = pools.items[starts[rows] + rng.integers(0, sizes[rows])]
    return BatchSample(pairs, negatives, flips)


def write_split(split: DatasetSplit, outdir):
    """Three `user<TAB>item` text files plus a JSON summary manifest, written
    last. Every payload is built before the first file is replaced."""
    outdir = Path(outdir)
    payloads, counts = {}, {}
    for name in PARTS:
        users, items = getattr(split, name).gather(np.arange(split.num_users))
        payloads[f"{name}.tsv"] = "".join(map("{}\t{}\n".format, users.tolist(), items.tolist()))
        counts[name] = items.size
    manifest = {
        "num_users": split.num_users,
        "num_items": split.num_items,
        "counts": counts,
        "split_kind": split.split_kind,
        "seed": split.seed,
    }
    payloads["manifest.json"] = json.dumps(manifest, indent=2)
    for name, text in payloads.items():
        replace_file(outdir / name, text)
    return manifest


def _read_part(path, num_users, num_items):
    """One `user<TAB>item` part file; a malformed row or an id outside
    [0, num_users) x [0, num_items) raises ParseError naming file and line.
    The machine-written rows are parsed by one numpy call (`_int_rows`);
    only an empty part or one that call or the id check rejects is read
    line by line."""
    rows = _int_rows(path)
    if (rows is None or rows.shape[1] != 2
            or not ((rows >= 0) & (rows < [num_users, num_items])).all()):
        return _parse_part_lines(path, num_users, num_items)
    return _user_items(rows[:, 0], rows[:, 1], num_users, num_items)


def _parse_part_lines(path, num_users, num_items):
    """`_read_part` one line at a time, naming the first bad line."""
    users, items = [], []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            fields = raw.split()
            if not fields:
                continue
            try:
                user, item = map(int, fields)
            except ValueError:
                raise ParseError(lineno, f"expected two integer fields, got {raw.strip()!r}",
                                 path) from None
            for name, value, bound in (("user", user, num_users), ("item", item, num_items)):
                if not 0 <= value < bound:
                    raise ParseError(lineno, f"{name} id {value} outside the manifest's "
                                     f"range [0, {bound})", path)
            users.append(user)
            items.append(item)
    return _user_items(np.array(users, dtype=np.int64), np.array(items, dtype=np.int64),
                       num_users, num_items)


def _read_manifest(path):
    """A split's manifest, whose user and item counts must be non-negative
    integers and whose split_kind a string; anything else raises a
    ValueError naming the manifest and the key."""
    try:
        with open(path) as fh:
            manifest = json.load(fh)
    except ValueError as exc:  # not JSON, or not text
        raise ValueError(f"manifest {path} is not JSON: {exc}") from None
    if not isinstance(manifest, dict):
        raise ValueError(f"manifest {path} is not a JSON object")
    for key, want in (("num_users", "a non-negative integer"),
                      ("num_items", "a non-negative integer"), ("split_kind", "a string")):
        if key not in manifest:
            raise ValueError(f"manifest {path} has no {key}")
        value = manifest[key]
        if not (isinstance(value, str) if key == "split_kind"
                else type(value) is int and value >= 0):
            raise ValueError(f"manifest {path}: {key} must be {want}, got {value!r}")
    return manifest


def read_split(indir) -> DatasetSplit:
    """A split directory written by `write_split`; any other path raises a
    ValueError naming it."""
    indir = Path(indir)
    if not (indir / "manifest.json").is_file():
        raise ValueError(f"{indir} is not a split directory: it has no manifest.json "
                         "(make one from an interaction log with drrl split)")
    manifest = _read_manifest(indir / "manifest.json")
    num_users = manifest["num_users"]
    num_items = manifest["num_items"]
    return DatasetSplit(
        *(_read_part(indir / f"{name}.tsv", num_users, num_items) for name in PARTS),
        manifest["split_kind"],
        num_users,
        num_items,
        manifest.get("seed"),
    )
