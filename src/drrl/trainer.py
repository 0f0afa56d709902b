"""Mini-batch training: Adam on embeddings, SGD on per-user margins,
weight decay, validation-based early stopping."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np
import scipy.sparse as sp

from . import losses as L
from .dataio import (CACHE_BLOCK, DatasetSplit, NoiseConfig, replace_file, row_blocks,
                     sample_batch, slot_blocks)
from .graphmodel import (
    BackboneConfig,
    CosineScores,
    EmbeddingTable,
    InteractionGraph,
    backward,
    cosine_matrix,  # noqa: F401 - unused; perfbench's tracer wraps this name
    forward,
    infonce_auxiliary,
    normalization_pullback,
    unit_rows,
)
from .metrics import evaluate_ranking

# The step pulls its score gradients back through the scorer's (rows x
# items) block when the catalogue has at most this many items per live slot
# of a row on average, items x B <= 8 (B + live entries), and through one
# sparse (B x items) matrix of the live entries alone above it. A truncating
# loss (CCL, DrRL) hands over its live entries; every slot of the others is
# live. The block is held through the loss only if the catalogue has at most
# 8 items per scored slot (n_neg + 1), the most a row can have live.
# Measured while the sparse matrix held every slot, float32 MF DrRL
# `loss_and_gradients` at B = 1024, d = 64 on a 2000 x 1000 log (2 vCPUs,
# medians of 20-60 calls alternating the two pullbacks in one process, five
# processes): at n_neg = 1024, 1000 items below the threshold, dense
# 29-41 ms against 51-74 ms sparse; at n_neg = 64, 1000 items above it,
# sparse 4.7-7.2 ms against 5.3-7.1 ms dense, faster in three processes of
# five. With every negative truncated the sparse matrix holds B entries: at
# n_neg = 1024 in float64 its pullback took 0.8 ms against 6.1-20.9 ms
# through the block.
DENSE_ITEMS_PER_SLOT = 8


@dataclass
class TrainConfig:
    batch_size: int = 1024
    n_neg: int = 64
    lr: float = 1e-2
    weight_decay: float = 0.0
    max_epochs: int = 100
    patience: int = 25
    seed: int = 0
    embed_dim: int = 64
    init_std: float = 0.1
    metric_k: int = 20
    noise: float = 0.0
    noise_pool: str = "heldout"  # heldout | train

    def validate(self):
        errors = []
        for name in ("batch_size", "n_neg", "max_epochs", "patience", "embed_dim",
                     "metric_k", "lr", "init_std"):
            if getattr(self, name) <= 0:
                errors.append(f"train.{name} must be positive")
        for name in ("weight_decay", "seed"):
            if getattr(self, name) < 0:
                errors.append(f"train.{name} must be nonnegative")
        if not (0 <= self.noise <= 1):
            errors.append("train.noise must lie in [0, 1]")
        if self.noise_pool not in ("heldout", "train"):
            errors.append("train.noise_pool must be 'heldout' or 'train'")
        if errors:
            raise ValueError("; ".join(errors))
        return self


# Adam walks the shared cache block: a Gowalla-shape step (30k x 64 plus
# 40k x 64, 2 vCPUs, medians of 15 interleaved steps in two runs) took
# 27-34 ms in blocks of 1 << 15 elements against 42-55 ms in blocks of
# 1 << 13 in float32, and 68-69 ms against 72-83 ms in float64.
class Adam:
    """Bias-corrected adaptive update over named parameter arrays, in place;
    the moments and scratch arrays are in the parameters' `dtype`.

    Each parameter is updated in row blocks of at most `CACHE_BLOCK`
    elements (or one row), through scratch arrays of that size: the
    optimizer allocates nothing per step and holds no parameter-sized array
    besides the two moments."""

    beta1 = 0.9
    beta2 = 0.999
    floor = 1e-8

    def __init__(self, shapes, dtype=np.float64):
        self.step_count = 0
        self.m = {k: np.zeros(s, dtype) for k, s in shapes.items()}
        self.v = {k: np.zeros(s, dtype) for k, s in shapes.items()}
        size = max([CACHE_BLOCK] + [math.prod(s[1:]) for s in shapes.values()])
        self._scratch = (np.empty(size, dtype), np.empty(size, dtype),
                         np.empty(size, dtype=bool))

    def _blocks(self, shape):
        """Row slices of an array of `shape`, each with views of the scratch
        arrays in the block's shape."""
        row = math.prod(shape[1:])
        for rows in row_blocks(shape[0], row, len(self._scratch[0])):
            n = rows.stop - rows.start
            yield rows, [a[:n * row].reshape((n,) + shape[1:]) for a in self._scratch]

    def step(self, params, grads, lr):
        for grad in grads.values():
            for rows, (_, _, finite) in self._blocks(grad.shape):
                if not np.isfinite(grad[rows], out=finite).all():
                    raise FloatingPointError("non-finite gradient")
        self.step_count += 1
        t = self.step_count
        for key, grad in grads.items():
            for rows, (step, denom, _) in self._blocks(grad.shape):
                m, v, g, p = self.m[key][rows], self.v[key][rows], grad[rows], params[key][rows]
                # the operations, in order, of m = b1 m + (1 - b1) g,
                # v = b2 v + (1 - b2) g**2 and
                # p -= lr (m / (1 - b1**t)) / (sqrt(v / (1 - b2**t)) + floor)
                m *= self.beta1
                m += np.multiply(g, 1 - self.beta1, out=step)
                v *= self.beta2
                np.square(g, out=denom)
                v += np.multiply(denom, 1 - self.beta2, out=denom)
                np.divide(m, 1 - self.beta1**t, out=step)
                step *= lr
                np.divide(v, 1 - self.beta2**t, out=denom)
                np.sqrt(denom, out=denom)
                denom += self.floor
                step /= denom
                p -= step
        return params


def apply_weight_decay(table: EmbeddingTable, grad_user, grad_item, batch_users, batch_items, wd):
    """Add 2 * wd * e to the gradient of every embedding touched by the batch,
    once per row however often the id arrays repeat it. `batch_items` is a
    tuple of item id arrays (say the positives and the negatives)."""
    for ids, emb, grad in (((batch_users,), table.user, grad_user),
                           (batch_items, table.item, grad_item)):
        rows = _touched(len(emb), *ids)
        grad[rows] += 2.0 * wd * emb[rows]


def finite_or_none(value):
    """`value`, or None (JSON's null) where it is not finite."""
    return value if math.isfinite(value) else None


@dataclass
class TrainReport:
    epoch_loss: list = field(default_factory=list)
    val_ndcg: list = field(default_factory=list)
    val_recall: list = field(default_factory=list)
    best_epoch: int = -1
    best_metric: float = -math.inf
    stop_reason: str = ""

    def to_json(self, path):
        """Write the report as strict JSON: a non-finite epoch loss, and the
        best metric of a run that validated no epoch, read null."""
        record = asdict(self)
        record.update(epoch_loss=[finite_or_none(v) for v in self.epoch_loss],
                      best_metric=finite_or_none(self.best_metric))
        replace_file(path, json.dumps(record, indent=2, allow_nan=False))


def _touched(size, *ids):
    """Sorted distinct ids (as np.unique) of id arrays over range(size)."""
    return np.flatnonzero(sum(np.bincount(np.ravel(a), minlength=size) for a in ids))


def _negative_scores(user_rows, item_unit, negatives, chunks, block):
    """Cosine scores (B, n_neg) of each row's user against its negatives in
    float64, read off one BLAS product per row chunk, the chunk's users
    against every item, written into `block`."""
    f_neg = np.empty(negatives.shape)
    for chunk in chunks:
        scores = np.matmul(user_rows[chunk], item_unit.T, out=block[:chunk.stop - chunk.start])
        for rows, at in slot_blocks(negatives, len(item_unit), chunk):
            f_neg[rows] = np.take(scores, at)
    return f_neg


def _sparse_score_pullback(user_rows, item_unit, pos_items, negatives, d_pos, d_neg):
    """Score gradients pulled back to the batch's unit user rows (B, d) and
    to every unit item row, through one sparse (B x items) matrix of the
    live entries of `d_neg`, in the form `losses.batch_loss` returns it:
    the `LiveEntries` of a truncating loss, or a (B, n_neg) array whose
    every slot is live. Row b holds d_pos at its positive, then d_neg at
    each of its live negatives, in slot order (repeats add up). Only those
    entries are cast to the tables' dtype."""
    rows, n_neg = negatives.shape
    starts = n_neg * np.arange(rows + 1)  # of each row's live run
    index, value = slice(None), d_neg  # every slot of an all-live d_neg
    if isinstance(d_neg, L.LiveEntries):
        index, value = d_neg.index, d_neg.value
        starts = np.searchsorted(index, starts)
    coeff = sp.csr_matrix(
        (
            np.insert(value.ravel().astype(item_unit.dtype), starts[:-1], d_pos.ravel()),
            np.insert(negatives.ravel()[index], starts[:-1], pos_items),
            starts + np.arange(rows + 1),
        ),
        shape=(rows, len(item_unit)),
    )
    return coeff @ item_unit, coeff.T @ user_rows


def _dense_score_pullback(user_rows, item_unit, pos_items, negatives, d_pos, d_neg, chunks,
                          block):
    """`_sparse_score_pullback` through the scorer's (rows x items) `block`,
    reused per row chunk: zeroed, given each row's d_pos and then its d_neg
    (repeats add up in the sparse matrix's entry order; `np.add.at` is fast
    on 1-D indices only) and applied by two BLAS products. `LiveEntries` are
    densified once and every slot is added, zeros too: picking out the
    nonzero slots of a dense d_neg first made the scatter slower (1024 x
    1024 slots into 1000 items, 2 vCPUs: 5.0-8.1 ms at 5-20% nonzero against
    2.9-3.1 ms over every slot)."""
    num_items = len(item_unit)
    d_neg = L.dense(d_neg)
    grad_rows = np.empty(user_rows.shape, item_unit.dtype)
    grad_items = np.zeros_like(item_unit)
    for chunk in chunks:
        coeff = block[:chunk.stop - chunk.start]
        coeff.fill(0)
        coeff[np.arange(len(coeff)), pos_items[chunk]] = d_pos[chunk, 0]
        for rows, at in slot_blocks(negatives, num_items, chunk):
            np.add.at(coeff.reshape(-1), at.ravel(),
                      d_neg[rows].ravel().astype(coeff.dtype, copy=False))
        np.matmul(coeff, item_unit, out=grad_rows[chunk])
        grad_items += coeff.T @ user_rows[chunk]
    return grad_rows, grad_items


def _row_sums(rows, values, like):
    """Zeros like `like`, with each `values[b]` added to row `rows[b]` in
    order: the sums of a 2-D `np.add.at`, bit for bit, made by one on flat
    indices (`np.add.at` is fast on 1-D indices only)."""
    out = np.zeros(like.shape, like.dtype)
    d = out.shape[1]
    np.add.at(out.reshape(-1), (rows[:, None] * d + np.arange(d)).ravel(), values.ravel())
    return out


def loss_and_gradients(
    table, graph, backbone_cfg, spec, margins, batch, noise_rng=None, margin_update=False
):
    """Batch loss plus full-chain embedding-table gradients.

    With `margin_update`, a DrRL loss first takes one SGD step on the
    batch users' margins (before the loss is evaluated); without it the
    margins stay as they are.
    """
    out = forward(table, graph, backbone_cfg, noise_rng)
    users = batch.pairs[:, 0]
    pos_items = batch.pairs[:, 1]
    # only the batch's distinct users are normalized, scored and pulled back:
    # a user outside the batch has a zero gradient
    user_ids, user_row = np.unique(users, return_inverse=True)
    user_unit, user_norms = unit_rows(out.final_user[user_ids])
    item_unit, item_norms = unit_rows(out.final_item)
    batch_users = user_unit[user_row]
    f_pos = np.einsum("bd,bd->b", batch_users, item_unit[pos_items])
    # every row chunk is scored in one (rows x items) block of at most half
    # of BLOCK_BYTES: at the preset shape (1024 x 1000 float64) one chunk
    # holds the whole batch, as narrow products that reread the item table
    # are memory-bound. A catalogue at most DENSE_ITEMS_PER_SLOT times the
    # scored slots of a row is nearly all touched by each chunk, and the
    # block is held for the pullback
    num_items, n_neg = item_unit.shape[0], batch.negatives.shape[1]
    dense = num_items <= DENSE_ITEMS_PER_SLOT * (n_neg + 1)
    chunks = row_blocks(len(batch_users), 2 * item_unit.itemsize * num_items)
    block = np.empty((chunks[0].stop if chunks else 0, num_items), item_unit.dtype)
    f_neg = _negative_scores(batch_users, item_unit, batch.negatives, chunks, block)
    if not dense:
        del block

    # margin update precedes the embedding step (DrRL only)
    beta = None
    if spec.kind == "drrl":
        if margin_update:
            grad = L.drrl_beta_gradient(f_neg, spec.gamma_star, spec.c, spec.eps,
                                        margins.beta[users])
            L.beta_step(margins, np.bincount(users, weights=grad, minlength=len(margins.beta)),
                        spec.lr_beta)
        beta = margins.beta[users]
    # the loss kernels compute in float64, where DrRL's M^{1-g*} (about
    # 1e125 at eps = 1e-10, g* = 13.5) cannot overflow; the score gradients
    # they return are bounded, and the pullbacks cast the ones they scatter
    # to the tables' dtype
    value, d_pos, d_neg = L.batch_loss(f_pos[:, None], f_neg, spec, beta)
    del f_neg
    # the live slots of a row are its positive and each negative that CCL or
    # DrRL hands over as a live entry (a truncated one has exactly 0); an
    # all-live loss keeps the verdict above
    if dense and isinstance(d_neg, L.LiveEntries) and num_items * len(d_pos) > (
            DENSE_ITEMS_PER_SLOT * (len(d_pos) + len(d_neg.index))):
        dense = False
        del block
    if dense:
        grad_rows, grad_item_unit = _dense_score_pullback(
            batch_users, item_unit, pos_items, batch.negatives, d_pos, d_neg, chunks, block)
    else:
        grad_rows, grad_item_unit = _sparse_score_pullback(
            batch_users, item_unit, pos_items, batch.negatives, d_pos, d_neg)
    grad_user_unit = _row_sums(user_row, grad_rows, user_unit)
    grad_final_u = np.zeros_like(out.final_user)
    grad_final_u[user_ids] = normalization_pullback(grad_user_unit, user_unit, user_norms)
    grad_final_i = normalization_pullback(grad_item_unit, item_unit, item_norms)

    grad_contrast = None
    if backbone_cfg.kind == "xsimgcl" and backbone_cfg.infonce_weight > 0:
        grad_contrast = (np.zeros_like(grad_final_u), np.zeros_like(grad_final_i))
        for idx, final, contrast, grad_final, grad_c in (
            (user_ids, out.final_user, out.contrast_user, grad_final_u, grad_contrast[0]),
            (_touched(len(grad_final_i), pos_items), out.final_item, out.contrast_item,
             grad_final_i, grad_contrast[1]),
        ):
            aux, d_final, d_contrast = infonce_auxiliary(
                final[idx],
                contrast[idx],
                backbone_cfg.infonce_temperature,
                backbone_cfg.infonce_weight,
            )
            value += aux
            grad_final[idx] += d_final
            grad_c[idx] = d_contrast

    grad_user, grad_item = backward(grad_final_u, grad_final_i, graph, backbone_cfg,
                                    grad_contrast)
    return value, grad_user, grad_item


def train_step(
    table, graph, backbone_cfg, spec, margins, split, train_cfg, sample_rng, noise_rng,
    train_pairs, adam,
):
    """One optimization step; returns the batch loss."""
    batch = sample_batch(
        split,
        train_cfg.batch_size,
        train_cfg.n_neg,
        NoiseConfig(train_cfg.noise, train_cfg.noise_pool),
        sample_rng,
        train_pairs=train_pairs,
    )
    if len(batch.pairs) == 0:
        raise ValueError("empty batch (all sampled users lack negatives)")
    value, grad_user, grad_item = loss_and_gradients(
        table, graph, backbone_cfg, spec, margins, batch,
        noise_rng=noise_rng, margin_update=True,
    )
    if train_cfg.weight_decay:
        apply_weight_decay(
            table, grad_user, grad_item, batch.pairs[:, 0],
            (batch.pairs[:, 1], batch.negatives), train_cfg.weight_decay,
        )
    params = {"user": table.user, "item": table.item}
    adam.step(params, {"user": grad_user, "item": grad_item}, train_cfg.lr)
    return value


def evaluate_split(table, graph, backbone_cfg, split, ks):
    """Full-ranking validation metrics of the noise-free model, scored in
    the ranking kernel's row blocks."""
    scores = CosineScores(table, graph, backbone_cfg)
    return evaluate_ranking(scores, split.train, split.validation, ks)


def train(
    split: DatasetSplit,
    backbone_cfg: BackboneConfig,
    spec: L.LossSpec,
    train_cfg: TrainConfig,
):
    """Sample, update margins (DrRL), update embeddings, evaluate,
    early-stop. Returns (best table, best margins, report).

    The embedding tables and Adam's moments are float32, so propagation,
    scoring, InfoNCE, the pullbacks and Adam move float32 arrays; the loss
    kernels and the margins stay float64. Checkpoints store float32, so
    saving loses nothing of the tables; DrRL's margins are rounded to
    float32."""
    backbone_cfg.validate()
    spec.validate()
    train_cfg.validate()
    if not split.validation.items.size:
        raise ValueError("split has no validation interactions to validate each epoch on")
    seeds = np.random.SeedSequence(train_cfg.seed).spawn(3)
    init_seed = seeds[0].generate_state(1)[0]
    sample_rng = np.random.default_rng(seeds[1])
    noise_rng = np.random.default_rng(seeds[2])

    table = EmbeddingTable.init_normal(
        split.num_users, split.num_items, train_cfg.embed_dim,
        std=train_cfg.init_std, seed=init_seed, dtype=np.float32,
    )
    graph = None
    train_pairs = split.train_pairs()
    if backbone_cfg.kind != "mf":
        graph = InteractionGraph(train_pairs, split.num_users, split.num_items)
    margins = L.MarginState.initialize(split.num_users, spec.beta0)
    adam = Adam({"user": table.user.shape, "item": table.item.shape}, dtype=table.user.dtype)

    steps_per_epoch = max(1, math.ceil(len(train_pairs) / train_cfg.batch_size))
    report = TrainReport()
    bad_evals = 0
    k = train_cfg.metric_k

    for epoch in range(train_cfg.max_epochs):
        epoch_losses = []
        try:
            for _ in range(steps_per_epoch):
                epoch_losses.append(
                    train_step(
                        table, graph, backbone_cfg, spec, margins, split,
                        train_cfg, sample_rng, noise_rng, train_pairs, adam,
                    )
                )
        except FloatingPointError:
            report.stop_reason = "non-finite gradient; kept last good checkpoint"
            break
        mean_loss = float(np.mean(epoch_losses))
        report.epoch_loss.append(mean_loss)
        if not math.isfinite(mean_loss):
            report.stop_reason = "non-finite loss; kept last good checkpoint"
            break
        scores = evaluate_split(table, graph, backbone_cfg, split, [k])
        ndcg = scores[("ndcg", k)]
        report.val_ndcg.append(ndcg)
        report.val_recall.append(scores[("recall", k)])
        if ndcg > report.best_metric:
            report.best_metric = ndcg
            report.best_epoch = epoch
            best_table = table.copy()
            best_margins = margins.copy()
            bad_evals = 0
        else:
            bad_evals += 1
            if bad_evals >= train_cfg.patience:
                report.stop_reason = "early stop: validation patience exhausted"
                break
    if not report.stop_reason:
        report.stop_reason = "max epochs reached"
    if report.best_epoch < 0:
        best_table = table.copy()
        best_margins = margins.copy()
    return best_table, best_margins, report
