"""Mini-batch training: Adam on embeddings, SGD on per-user margins,
weight decay, validation-based early stopping."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from . import losses as L
from .dataio import DatasetSplit, NoiseConfig, sample_batch
from .graphmodel import (
    BackboneConfig,
    EmbeddingTable,
    InteractionGraph,
    backward,
    cosine_matrix,
    forward,
    infonce_auxiliary,
)
from .metrics import evaluate_ranking

MARGIN_MODES = ("per_user", "shared", "fixed")

# Byte budget of the negative-scoring chunks in `loss_and_gradients`: the
# gathered (rows, n_neg, d) item rows of one chunk take at most half of it,
# so the step's memory is set by this constant, not by B * n_neg * d.
CHUNK_BYTES = 16 << 20


@dataclass
class TrainConfig:
    batch_size: int = 1024
    n_neg: int = 64
    lr: float = 1e-2
    weight_decay: float = 0.0
    max_epochs: int = 100
    patience: int = 25
    eval_every: int = 1
    seed: int = 0
    embed_dim: int = 64
    init_std: float = 0.1
    metric_k: int = 20
    noise: float = 0.0
    noise_pool: str = "heldout"  # heldout | train
    margin_mode: str = "per_user"  # per_user | shared | fixed (ablations)

    def validate(self):
        errors = []
        for name in ("batch_size", "n_neg", "max_epochs", "patience", "eval_every", "embed_dim"):
            if getattr(self, name) < 1:
                errors.append(f"train.{name} must be positive")
        if self.lr <= 0:
            errors.append("train.lr must be positive")
        if self.weight_decay < 0:
            errors.append("train.weight_decay must be nonnegative")
        if not (0 <= self.noise <= 1):
            errors.append("train.noise must lie in [0, 1]")
        if self.noise_pool not in ("heldout", "train"):
            errors.append("train.noise_pool must be 'heldout' or 'train'")
        if self.margin_mode not in MARGIN_MODES:
            errors.append(f"train.margin_mode must be one of {MARGIN_MODES}")
        if errors:
            raise ValueError("; ".join(errors))
        return self


class Adam:
    """Bias-corrected adaptive update over named parameter arrays."""

    def __init__(self, shapes, beta1=0.9, beta2=0.999, floor=1e-8):
        self.beta1 = beta1
        self.beta2 = beta2
        self.floor = floor
        self.step_count = 0
        self.m = {k: np.zeros(s) for k, s in shapes.items()}
        self.v = {k: np.zeros(s) for k, s in shapes.items()}

    def step(self, params, grads, lr):
        for g in grads.values():
            if not np.all(np.isfinite(g)):
                raise FloatingPointError("non-finite gradient")
        self.step_count += 1
        t = self.step_count
        for key, grad in grads.items():
            self.m[key] = self.beta1 * self.m[key] + (1 - self.beta1) * grad
            self.v[key] = self.beta2 * self.v[key] + (1 - self.beta2) * grad**2
            m_hat = self.m[key] / (1 - self.beta1**t)
            v_hat = self.v[key] / (1 - self.beta2**t)
            params[key] -= lr * m_hat / (np.sqrt(v_hat) + self.floor)
        return params


def apply_weight_decay(table: EmbeddingTable, grad_user, grad_item, batch_users, batch_items, wd):
    """Add 2 * wd * e to the gradient of every embedding touched by the batch,
    once per row however often the id arrays repeat it."""
    if wd == 0.0:
        return
    for ids, emb, grad in ((batch_users, table.user, grad_user),
                           (batch_items, table.item, grad_item)):
        rows = _touched(ids, len(emb))
        grad[rows] += 2.0 * wd * emb[rows]


@dataclass
class TrainReport:
    epoch_loss: list = field(default_factory=list)
    val_ndcg: list = field(default_factory=list)     # None on non-eval epochs
    val_recall: list = field(default_factory=list)
    best_epoch: int = -1
    best_metric: float = -math.inf
    stop_reason: str = ""

    def to_json(self, path):
        with open(path, "w") as fh:
            json.dump(
                {
                    "epoch_loss": self.epoch_loss,
                    "val_ndcg": self.val_ndcg,
                    "val_recall": self.val_recall,
                    "best_epoch": self.best_epoch,
                    "best_metric": self.best_metric,
                    "stop_reason": self.stop_reason,
                },
                fh,
                indent=2,
            )

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "train_loss", "val_ndcg", "val_recall"])
            for epoch, loss in enumerate(self.epoch_loss):
                writer.writerow(
                    [epoch, loss, self.val_ndcg[epoch], self.val_recall[epoch]]
                )


def _unit_rows(emb):
    """Row-normalized copy of an embedding matrix, and the row norms."""
    norms = np.linalg.norm(emb, axis=1)
    return emb / norms[:, None], norms


def _normalization_pullback(grad_hat, unit, norms):
    """Gradient with respect to e from the gradient with respect to
    e / ||e||, row by row: (g - (g . e_hat) e_hat) / ||e||."""
    radial = np.einsum("rd,rd->r", grad_hat, unit)
    return (grad_hat - radial[:, None] * unit) / norms[:, None]


def _touched(ids, size):
    """Sorted distinct ids (as np.unique) of an id array over range(size)."""
    return np.flatnonzero(np.bincount(np.ravel(ids), minlength=size))


def _pullback_layer(grad_u, grad_i, graph, layer):
    """Adjoint of `layer` propagation steps (the operator is self-adjoint)."""
    for _ in range(layer):
        grad_u, grad_i = graph.propagate(grad_u, grad_i)
    return grad_u, grad_i


def _negative_scores(user_rows, item_unit, negatives):
    """Cosine scores (B, n_neg) of each row's user against its negatives,
    gathered in row chunks of at most CHUNK_BYTES / 2 bytes."""
    n_neg, d = negatives.shape[1], item_unit.shape[1]
    rows = max(1, CHUNK_BYTES // (2 * 8 * n_neg * d))
    f_neg = np.empty(negatives.shape)
    for start in range(0, len(negatives), rows):
        chunk = slice(start, start + rows)
        np.einsum("bd,bjd->bj", user_rows[chunk], item_unit[negatives[chunk]],
                  out=f_neg[chunk])
    return f_neg


def loss_and_gradients(
    table, graph, backbone_cfg, spec, margins, batch, noise_rng=None, margin_update=None
):
    """Batch loss plus full-chain embedding-table gradients.

    `margin_update` of "per_user" or "shared" applies one SGD step on the
    margins (before the loss is evaluated); None leaves them alone.
    """
    out = forward(table, graph, backbone_cfg, noise_rng)
    users = batch.pairs[:, 0]
    pos_items = batch.pairs[:, 1]
    user_unit, user_norms = _unit_rows(out.final_user)
    item_unit, item_norms = _unit_rows(out.final_item)
    batch_users = user_unit[users]
    f_pos = np.einsum("bd,bd->b", batch_users, item_unit[pos_items])
    f_neg = _negative_scores(batch_users, item_unit, batch.negatives)

    # margin update precedes the embedding step (DrRL only)
    beta = None
    if spec.kind == "drrl":
        if margin_update in ("per_user", "shared"):
            grad = L.drrl_beta_gradient(f_neg, spec.gamma_star, spec.c, spec.eps,
                                        margins.beta[users])
            if margin_update == "shared":
                grad = grad.sum()
            else:
                grad = np.bincount(users, weights=grad, minlength=len(margins.beta))
            L.beta_step(margins, grad, spec.lr_beta)
        beta = margins.beta[users]
    value, d_pos, d_neg = L.batch_loss(f_pos[:, None], f_neg, spec, beta)

    # score gradients as a (B x items) matrix: row b holds d_pos at its
    # positive and d_neg at each of its negatives (repeats add up)
    items = np.hstack([pos_items[:, None], batch.negatives])
    coeff = sp.csr_matrix(
        (
            np.hstack([d_pos, d_neg]).ravel(),
            items.ravel(),
            np.arange(0, items.size + 1, items.shape[1]),
        ),
        shape=(len(users), len(item_unit)),
    )
    grad_user_unit = np.zeros_like(user_unit)
    np.add.at(grad_user_unit, users, coeff @ item_unit)
    grad_final_u = _normalization_pullback(grad_user_unit, user_unit, user_norms)
    grad_final_i = _normalization_pullback(coeff.T @ batch_users, item_unit, item_norms)

    if backbone_cfg.kind == "xsimgcl" and backbone_cfg.infonce_weight > 0:
        grad_contrast_u = np.zeros_like(grad_final_u)
        grad_contrast_i = np.zeros_like(grad_final_i)
        uu = _touched(users, len(grad_final_u))
        ii = _touched(items, len(grad_final_i))
        for idx, final, contrast, grad_final, grad_contrast in (
            (uu, out.final_user, out.contrast_user, grad_final_u, grad_contrast_u),
            (ii, out.final_item, out.contrast_item, grad_final_i, grad_contrast_i),
        ):
            aux, d_final, d_contrast = infonce_auxiliary(
                final[idx],
                contrast[idx],
                backbone_cfg.infonce_temperature,
                backbone_cfg.infonce_weight,
            )
            value += aux
            grad_final[idx] += d_final
            grad_contrast[idx] = d_contrast
        grad_user, grad_item = backward(grad_final_u, grad_final_i, graph, backbone_cfg)
        cu, ci = _pullback_layer(grad_contrast_u, grad_contrast_i, graph,
                                 backbone_cfg.contrast_layer)
        return value, grad_user + cu, grad_item + ci

    grad_user, grad_item = backward(grad_final_u, grad_final_i, graph, backbone_cfg)
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
        noise_rng=noise_rng, margin_update=train_cfg.margin_mode,
    )
    apply_weight_decay(
        table, grad_user, grad_item, batch.pairs[:, 0],
        np.hstack([batch.pairs[:, 1:], batch.negatives]), train_cfg.weight_decay,
    )
    params = {"user": table.user, "item": table.item}
    adam.step(params, {"user": grad_user, "item": grad_item}, train_cfg.lr)
    return value


def evaluate_split(table, graph, backbone_cfg, split, ks, target="validation"):
    """Full-ranking metrics on an immutable noise-free snapshot."""
    eval_cfg = replace(backbone_cfg, noise_modulus=0.0)
    out = forward(table, graph, eval_cfg)
    scores = cosine_matrix(out.final_user, out.final_item)
    truth = split.validation if target == "validation" else split.test
    return evaluate_ranking(scores, split.train, truth, ks)


def train(
    split: DatasetSplit,
    backbone_cfg: BackboneConfig,
    spec: L.LossSpec,
    train_cfg: TrainConfig,
):
    """Sample, update margins (DrRL), update embeddings, evaluate,
    early-stop. Returns (best table, best margins, report)."""
    backbone_cfg.validate()
    spec.validate()
    train_cfg.validate()
    seeds = np.random.SeedSequence(train_cfg.seed).spawn(3)
    init_seed = seeds[0].generate_state(1)[0]
    sample_rng = np.random.default_rng(seeds[1])
    noise_rng = np.random.default_rng(seeds[2])

    table = EmbeddingTable.init_normal(
        split.num_users, split.num_items, train_cfg.embed_dim,
        std=train_cfg.init_std, seed=init_seed,
    )
    graph = None
    train_pairs = split.train_pairs()
    if backbone_cfg.kind != "mf":
        graph = InteractionGraph(train_pairs, split.num_users, split.num_items)
    margins = L.MarginState.initialize(split.num_users, spec.beta0)
    adam = Adam({"user": table.user.shape, "item": table.item.shape})

    steps_per_epoch = max(1, math.ceil(len(train_pairs) / train_cfg.batch_size))
    report = TrainReport()
    best_table = table.copy()
    best_margins = margins.copy()
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
        if (epoch + 1) % train_cfg.eval_every == 0:
            scores = evaluate_split(table, graph, backbone_cfg, split, [k])
            ndcg = scores[("ndcg", k)]
            recall = scores[("recall", k)]
            report.val_ndcg.append(ndcg)
            report.val_recall.append(recall)
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
        else:
            report.val_ndcg.append(None)
            report.val_recall.append(None)
    if not report.stop_reason:
        report.stop_reason = "max epochs reached"
    if report.best_epoch < 0:
        best_table = table.copy()
        best_margins = margins.copy()
    return best_table, best_margins, report
