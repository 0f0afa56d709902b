"""Interaction-log ingestion and IID / temporal / noise-injected splits
with uniform negative sampling.

A log is three aligned int64 arrays (users, items, timestamps). A split's
parts (`train`, `validation`, `test`) are `UserItems` CSR arrays, each
user's items ascending, read by one `gather` for any list of users, plus
`heldout_items`, each user's validation and test items, built once: the
pool that held-out flips draw from and the diagnostics flag. Logs and split
parts are read by one reader of integer-row text (`_int_rows`), which skips
blank and `#` lines and names the first bad line with its file.

`sample_batch` draws all `(B, n_neg)` negatives at once and redraws those
that hit a train positive, walking the rows in `row_blocks`, so no
batch-sized index array is formed; the optional false-negative flips are
drawn last, from `heldout_items` or `train` through one path.
`BLOCK_BYTES` is the one working-memory budget of every bounded kernel and
`row_blocks` the row slices they all walk; `CACHE_BLOCK` is the cache-sized
block of the element-wise kernels. Every file is written through
`replace_file`, whole or not at all."""

from __future__ import annotations

import json
import os
import re
import warnings
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

# Working-memory budget of one block of rows in every kernel whose arrays
# would otherwise grow with batch size x catalogue size or users x items:
# the sampler's train mask, the training step's score chunks, the ranking
# kernel and the diagnostics. Each kernel counts its own bytes per row.
BLOCK_BYTES = 16 << 20

# Elements in one cache-sized block (256 KiB of float64), walked by the
# element-wise kernels that make several passes over each block (the DrRL
# loss kernel and Adam) and by `slot_blocks`' index blocks.
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


def slot_blocks(negatives, num_items, chunk):
    """Row sub-blocks of a row chunk of `negatives` (B, n_neg), of at most
    CACHE_BLOCK slots each: yields each sub-block's rows of the batch and
    its slots' flat indices into the chunk's (rows x items) block."""
    for rows in row_blocks(chunk.stop - chunk.start, negatives.shape[1], CACHE_BLOCK):
        at = negatives[chunk][rows] + num_items * np.arange(rows.start, rows.stop)[:, None]
        yield slice(chunk.start + rows.start, chunk.start + rows.stop), at


def non_finite_fields(config, section):
    """An error naming `section.key` for each float field of the dataclass
    `config` that holds nan or an infinity."""
    return [f"{section}.{f.name} must be finite" for f in fields(config)
            if isinstance(f.default, float) and not np.isfinite(getattr(config, f.name))]


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
    # each user's validation and test items, ascending, repeats collapsed:
    # the held-out pool of the sampler's flips and of the diagnostics' flags
    heldout_items: UserItems = field(init=False, repr=False)

    def __post_init__(self):
        everyone = np.arange(self.num_users)
        rows, items = np.hstack([self.validation.gather(everyone), self.test.gather(everyone)])
        self.heldout_items = _user_items(rows, items, self.num_users, self.num_items)

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
    """Parse `user<TAB>item[<TAB>timestamp]` rows under `_int_rows`' rules.

    Ids are remapped to dense 0-based indices in first-appearance order;
    duplicate (user, item) pairs collapse to their first row, keeping the
    earliest timestamp. A row without a timestamp reads 0 and leaves the
    log without timestamps.
    """
    rows, fewest = _int_rows(path, (2, 3))
    if not len(rows):
        raise EmptyLogError(f"no interactions found in {path}")
    users, items, timestamps = rows.T
    users, num_users = _first_appearance_ids(users)
    items, num_items = _first_appearance_ids(items)
    _, first, pair = np.unique(users * num_items + items, return_index=True,
                               return_inverse=True)
    earliest = np.full(first.size, np.iinfo(np.int64).max)
    np.minimum.at(earliest, pair, timestamps)
    order = np.argsort(first)
    return InteractionLog(users[first[order]], items[first[order]], earliest[order],
                          num_users, num_items, has_timestamps=fewest == 3)


def _int_rows(path, widths, bounds=None):
    """A text file's whitespace-separated int64 rows as one (rows,
    max(widths)) array, short rows padded with 0, and the fewest fields of
    any row. Blank lines and lines whose first field starts with `#` are
    skipped; each row has one of `widths` fields, its leading user and item
    ids within [0, bound) of `bounds`. One numpy call parses a machine-written
    file; `_parse_lines` reads one it rejects and names the first bad line."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a file without rows
            # numpy releases that parse a float field into an int column
            # only warn of it; such a field is no int64 here
            warnings.simplefilter("error", DeprecationWarning)
            rows = np.loadtxt(path, dtype=np.int64, ndmin=2, comments=None)
    except (ValueError, DeprecationWarning):
        return _parse_lines(path, widths, bounds)
    fields, pad = rows.shape[1], max(widths) - rows.shape[1]
    lead = rows[:, :len(bounds or ())]
    if not (rows.size and fields in widths
            and (bounds is None or ((lead >= 0) & (lead < bounds)).all())):
        return _parse_lines(path, widths, bounds)
    return (np.pad(rows, ((0, 0), (0, pad))) if pad else rows), fields


_NUMBER_WORDS = {2: "two", 3: "three"}
# the fields numpy's parser reads as int64, which `int` alone does not
# check: it also reads `1_0` and non-ASCII digits
_INT_FIELD = re.compile(r"[+-]?[0-9]+")


def _parse_lines(path, widths, bounds):
    """`_int_rows` one line at a time; the first bad line raises ParseError."""
    width = max(widths)
    expected = f"expected {' or '.join(map(_NUMBER_WORDS.get, widths))} integer fields, got"
    flat, fewest = [], width
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            fields = raw.split()
            if not fields or fields[0][0] == "#":
                continue
            n = len(fields)
            if n not in widths:
                raise ParseError(lineno, f"{expected} {n} field{'s' * (n > 1)} in "
                                 f"{raw.strip()!r}", path)
            if not all(map(_INT_FIELD.fullmatch, fields)):
                raise ParseError(lineno, f"{expected} a non-integer field in {raw.strip()!r}",
                                 path)
            flat += map(int, fields)
            if bounds:
                for name, value, bound in zip(("user", "item"), flat[-n:], bounds):
                    if not 0 <= value < bound:
                        raise ParseError(lineno, f"{name} id {value} outside the manifest's "
                                         f"range [0, {bound})", path)
            if n < width:
                fewest = min(fewest, n)
                flat += [0] * (width - n)
    try:
        return np.array(flat, dtype=np.int64).reshape(-1, width), fewest
    except OverflowError:
        raise ValueError(f"{path}: an id or timestamp does not fit in 64 bits") from None


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
    p, drawn from the configured part of the user's positives (by default
    `heldout_items`, or `train`) and flagged as a false negative;
    otherwise it is drawn outside the user's train positives. Users with
    an empty pool get no flips. Rows whose user has no item outside the
    train set are skipped, with one warning per call.

    All slots are drawn at once. The batch rows are then walked in
    `row_blocks` of at most BLOCK_BYTES: each block's boolean (rows x items)
    train mask is made once, the block's draws that hit one of the user's
    train positives are found in `slot_blocks` of at most CACHE_BLOCK
    slots, and they are redrawn until none does. The flips, and then their
    pool items, are drawn last, each in order in row blocks of at most
    CACHE_BLOCK slots: the values of one whole-batch draw, without its
    batch-sized temporaries.
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
        # the first draws' hits in ascending slot order, the order they are redrawn in
        redraw = np.concatenate([
            np.flatnonzero(np.take(mask, at)) + (rows.start - block.start) * n_neg
            for rows, at in slot_blocks(negatives, num_items, block)])
        while redraw.size:
            flat[redraw] = rng.integers(0, num_items, size=redraw.size)
            redraw = redraw[np.take(mask, flat[redraw] + offsets[redraw // n_neg])]
        del mask  # before the next block's mask, and the flips

    flips = np.zeros(negatives.shape, dtype=bool)
    if noise.p > 0 and len(pairs):
        pool = split.train if noise.pool == "train" else split.heldout_items
        starts = pool.indptr[users]
        sizes = pool.indptr[users + 1] - starts
        blocks = row_blocks(len(pairs), n_neg, CACHE_BLOCK)
        for rows in blocks:
            np.less(rng.random((rows.stop - rows.start, n_neg)), noise.p, out=flips[rows])
        flips &= (sizes > 0)[:, None]
        for rows in blocks:
            hit = flips[rows]
            at = np.flatnonzero(hit) // n_neg + rows.start
            negatives[rows][hit] = pool.items[starts[at] + rng.integers(0, sizes[at])]
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
    """One `user<TAB>item` part file under `_int_rows`' rules, its ids within
    the manifest's [0, num_users) x [0, num_items)."""
    rows, _ = _int_rows(path, (2,), (num_users, num_items))
    return _user_items(rows[:, 0], rows[:, 1], num_users, num_items)


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
