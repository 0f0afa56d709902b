"""Mini-batch training: Adam on embeddings, SGD on per-user margins,
weight decay, validation-based early stopping."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np
import scipy.sparse as sp

from . import losses as L
from .dataio import CACHE_BLOCK, DatasetSplit, NoiseConfig, replace_file, row_blocks, sample_batch
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

# The step pulls its score gradients back through a dense (rows x items)
# block per row chunk when the catalogue has at most this many items per
# scored (positive or negative) slot of a row, and through one sparse
# (B x items) matrix above it; the rule also picks the scorer's row chunks.
# On 2 vCPUs at B = 1024, d = 64, against a scorer that gathered the
# negatives' rows, the dense step won up to 12k items and lost from 16k at
# n_neg = 1024, and won at 250 items but lost at 500 at n_neg = 64.
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
    once per row however often the id arrays repeat it."""
    for ids, emb, grad in ((batch_users, table.user, grad_user),
                           (batch_items, table.item, grad_item)):
        rows = _touched(ids, len(emb))
        grad[rows] += 2.0 * wd * emb[rows]


@dataclass
class TrainReport:
    epoch_loss: list = field(default_factory=list)
    val_ndcg: list = field(default_factory=list)
    val_recall: list = field(default_factory=list)
    best_epoch: int = -1
    best_metric: float = -math.inf
    stop_reason: str = ""

    def to_json(self, path):
        replace_file(path, json.dumps(asdict(self), indent=2))


def _touched(ids, size):
    """Sorted distinct ids (as np.unique) of an id array over range(size)."""
    return np.flatnonzero(np.bincount(np.ravel(ids), minlength=size))


def _negative_scores(user_rows, item_unit, negatives, chunks):
    """Cosine scores (B, n_neg) of each row's user against its negatives,
    read off one BLAS product per row chunk, the chunk's users against
    every item."""
    num_items = len(item_unit)
    f_neg = np.empty(negatives.shape, item_unit.dtype)
    for chunk in chunks:
        at = negatives[chunk] + num_items * np.arange(len(negatives[chunk]))[:, None]
        np.take(user_rows[chunk] @ item_unit.T, at, out=f_neg[chunk])
    return f_neg


def _sparse_score_pullback(user_rows, item_unit, pos_items, negatives, d_pos, d_neg):
    """Score gradients pulled back to the batch's unit user rows (B, d) and
    to every unit item row, through one sparse (B x items) matrix: row b
    holds d_pos at its positive and d_neg at each of its negatives (repeats
    add up)."""
    items = np.hstack([pos_items[:, None], negatives])
    coeff = sp.csr_matrix(
        (
            np.hstack([d_pos, d_neg]).ravel(),
            items.ravel(),
            np.arange(0, items.size + 1, items.shape[1]),
        ),
        shape=(len(items), len(item_unit)),
    )
    return coeff @ item_unit, coeff.T @ user_rows


def _dense_blocks(num_items, negatives):
    """Row chunks of the catalogue-dense regime: a chunk's (rows, items)
    score and gradient blocks and its (rows, n_neg + 1) index and weight
    arrays together take at most half of BLOCK_BYTES. (At the preset shape
    that is a 2 MiB block, which fits a core's L2 cache; 4 MiB blocks made
    both chunk loops twice as slow on 2 vCPUs.)"""
    return row_blocks(len(negatives), 2 * 8 * 2 * (num_items + negatives.shape[1] + 1))


def _dense_score_pullback(user_rows, item_unit, pos_items, negatives, d_pos, d_neg):
    """`_sparse_score_pullback` through a dense (rows x items) block per row
    chunk, filled by one (float64) bincount and applied, in the item
    table's dtype, by two BLAS products."""
    num_items = len(item_unit)
    grad_rows = np.empty(user_rows.shape, item_unit.dtype)
    grad_items = np.zeros_like(item_unit)
    for chunk in _dense_blocks(num_items, negatives):
        n = chunk.stop - chunk.start
        at = np.hstack([pos_items[chunk, None], negatives[chunk]])
        at += num_items * np.arange(n)[:, None]
        block = np.bincount(at.ravel(), np.hstack([d_pos[chunk], d_neg[chunk]]).ravel(),
                            n * num_items).reshape(n, num_items)
        block = block.astype(item_unit.dtype, copy=False)
        np.matmul(block, item_unit, out=grad_rows[chunk])
        grad_items += block.T @ user_rows[chunk]
    return grad_rows, grad_items


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
    # a catalogue at most DENSE_ITEMS_PER_SLOT times the scored slots of a
    # row is nearly all touched by each chunk: pull back densely, and score
    # in the pullback's L2-sized chunks. A larger one scores in chunks of
    # half of BLOCK_BYTES (scores plus flat indices): narrow products that
    # reread the item table are memory-bound
    num_items, n_neg = item_unit.shape[0], batch.negatives.shape[1]
    dense = num_items <= DENSE_ITEMS_PER_SLOT * (n_neg + 1)
    chunks = (_dense_blocks(num_items, batch.negatives) if dense else
              row_blocks(len(batch_users), 2 * (item_unit.itemsize * num_items + 8 * n_neg)))
    f_neg = _negative_scores(batch_users, item_unit, batch.negatives, chunks)

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
    # 1e125 at eps = 1e-10, g* = 13.5) cannot overflow: batch_loss upcasts
    # the scores, and the DrRL kernel, which the margin gradient above hands
    # the scores in the tables' dtype, upcasts one cache block at a time; the
    # score gradients they return are bounded and go back to the tables' dtype
    value, d_pos, d_neg = L.batch_loss(f_pos[:, None], f_neg, spec, beta)
    d_pos, d_neg = (d.astype(item_unit.dtype, copy=False) for d in (d_pos, d_neg))

    pullback = _dense_score_pullback if dense else _sparse_score_pullback
    grad_rows, grad_item_unit = pullback(batch_users, item_unit, pos_items, batch.negatives,
                                         d_pos, d_neg)
    grad_user_unit = np.zeros_like(user_unit)
    np.add.at(grad_user_unit, user_row, grad_rows)
    grad_final_u = np.zeros_like(out.final_user)
    grad_final_u[user_ids] = normalization_pullback(grad_user_unit, user_unit, user_norms)
    grad_final_i = normalization_pullback(grad_item_unit, item_unit, item_norms)

    grad_contrast = None
    if backbone_cfg.kind == "xsimgcl" and backbone_cfg.infonce_weight > 0:
        grad_contrast = (np.zeros_like(grad_final_u), np.zeros_like(grad_final_i))
        for idx, final, contrast, grad_final, grad_c in (
            (user_ids, out.final_user, out.contrast_user, grad_final_u, grad_contrast[0]),
            (_touched(pos_items, len(grad_final_i)), out.final_item, out.contrast_item,
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
            np.hstack([batch.pairs[:, 1:], batch.negatives]), train_cfg.weight_decay,
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
