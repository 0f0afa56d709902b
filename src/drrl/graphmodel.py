"""Embedding tables, backbone propagation (MF / LightGCN / XSimGCL),
cosine scoring, the XSimGCL InfoNCE term, and binary checkpoints."""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .dataio import replace_file

BACKBONES = ("mf", "lightgcn", "xsimgcl")

_MAGIC = b"DRRL"
_MARGIN_TAG = b"MARG"
_VERSION = 1


@dataclass
class EmbeddingTable:
    user: np.ndarray  # (num_users, d)
    item: np.ndarray  # (num_items, d)

    def __post_init__(self):
        if self.user.ndim != 2 or self.item.ndim != 2:
            raise ValueError("embedding matrices must be 2-d")
        if self.user.shape[1] != self.item.shape[1]:
            raise ValueError("user and item dimensions differ")
        if self.user.shape[1] < 1:
            raise ValueError("embedding dimension must be at least 1")
        if not (np.all(np.isfinite(self.user)) and np.all(np.isfinite(self.item))):
            raise ValueError("embeddings must be finite")

    @property
    def d(self):
        return self.user.shape[1]

    @classmethod
    def init_normal(cls, num_users, num_items, d, std=0.1, seed=0, dtype=np.float64):
        """N(0, std^2) tables in `dtype`: the same float64 draws for every
        dtype, cast once. Every training kernel then computes in this dtype."""
        rng = np.random.default_rng(seed)
        return cls(
            rng.normal(0.0, std, size=(num_users, d)).astype(dtype, copy=False),
            rng.normal(0.0, std, size=(num_items, d)).astype(dtype, copy=False),
        )

    def copy(self):
        return EmbeddingTable(self.user.copy(), self.item.copy())


class InteractionGraph:
    """Bipartite train-interaction graph with symmetric degree normalization;
    edge (u, i) carries coefficient 1 / sqrt(deg_u * deg_i). The operator
    and its transpose are both stored as CSR, in float64 and, once the first
    float32 embeddings are propagated, in float32."""

    def __init__(self, train_pairs, num_users, num_items):
        pairs = np.asarray(train_pairs, dtype=np.int64).reshape(-1, 2)
        data = np.ones(len(pairs))
        adj = sp.csr_matrix(
            (data, (pairs[:, 0], pairs[:, 1])), shape=(num_users, num_items)
        )
        deg_u = np.asarray(adj.sum(axis=1)).ravel()
        deg_i = np.asarray(adj.sum(axis=0)).ravel()
        inv_u = np.where(deg_u > 0, 1.0 / np.sqrt(np.maximum(deg_u, 1)), 0.0)
        inv_i = np.where(deg_i > 0, 1.0 / np.sqrt(np.maximum(deg_i, 1)), 0.0)
        # normalized user-item operator; isolated nodes propagate nothing
        norm_adj = (sp.diags(inv_u) @ adj @ sp.diags(inv_i)).tocsr()
        self._by_dtype = {np.dtype(np.float64): (norm_adj, norm_adj.T.tocsr())}

    def operators(self, dtype):
        """The normalized (users x items) operator and its transpose in the
        float type `dtype` computes in (float32, or else float64)."""
        key = np.result_type(dtype, np.float32)
        if key not in self._by_dtype:
            self._by_dtype[key] = tuple(a.astype(key)
                                        for a in self._by_dtype[np.dtype(np.float64)])
        return self._by_dtype[key]

    def propagate(self, user_emb, item_emb):
        """One symmetric-normalized convolution step (self-adjoint), in the
        embeddings' dtype."""
        return (self.operators(item_emb.dtype)[0] @ item_emb,
                self.operators(user_emb.dtype)[1] @ user_emb)


@dataclass
class BackboneConfig:
    kind: str = "mf"
    layers: int = 2
    noise_modulus: float = 0.2
    contrast_layer: int = 1
    infonce_weight: float = 0.001
    infonce_temperature: float = 0.2

    def validate(self):
        errors = []
        if self.kind not in BACKBONES:
            errors.append(f"backbone.kind must be one of {BACKBONES}, got {self.kind!r}")
        if self.kind != "mf" and self.layers < 1:
            errors.append("backbone.layers must be at least 1 for graph backbones")
        if self.noise_modulus < 0:
            errors.append("backbone.noise_modulus must be nonnegative")
        if not (0 <= self.contrast_layer <= self.layers):
            errors.append("backbone.contrast_layer must lie in [0, layers]")
        if self.infonce_weight < 0:
            errors.append("backbone.infonce_weight must be nonnegative")
        if self.infonce_temperature <= 0:
            errors.append("backbone.infonce_temperature must be positive")
        if errors:
            raise ValueError("; ".join(errors))
        return self


@dataclass
class ForwardOutput:
    final_user: np.ndarray
    final_item: np.ndarray
    contrast_user: np.ndarray | None = None
    contrast_item: np.ndarray | None = None


def _add_noise(layer, modulus, rng):
    """Add XSimGCL's perturbation to `layer` in place, in its dtype: each
    row's uniform [0, 1)^d draw, scaled to L2 norm `modulus` and signed
    entrywise by the layer, so a zero entry gets no noise."""
    v = rng.random(layer.shape, dtype=layer.dtype)
    norms = np.sqrt(np.einsum("ij,ij->i", v, v))[:, None]
    norms[norms == 0] = 1.0  # an all-zero draw adds nothing
    v *= np.sign(layer)
    v *= modulus / norms
    layer += v


def forward(table: EmbeddingTable, graph: InteractionGraph | None, cfg: BackboneConfig, rng=None):
    """Run the configured backbone.

    MF is the identity; LightGCN averages L+1 propagation layers; XSimGCL
    additionally perturbs each propagated layer with sign-aligned noise of
    L2 norm at most `noise_modulus` and exposes the contrast-layer
    representations.
    """
    if cfg.kind == "mf":
        return ForwardOutput(table.user, table.item)
    if graph is None:
        raise ValueError("graph backbones need an interaction graph")
    noisy = cfg.kind == "xsimgcl" and cfg.noise_modulus > 0
    if noisy and rng is None:
        raise ValueError("xsimgcl forward needs an rng for the noise draws")
    # a running sum of the layers, added in layer order: the same sums as
    # stacking every layer and taking np.mean over them
    user, item = table.user, table.item
    total_u, total_i = user.copy(), item.copy()
    out = ForwardOutput(total_u, total_i)
    if cfg.kind == "xsimgcl" and cfg.contrast_layer == 0:
        out.contrast_user, out.contrast_item = user, item
    for layer in range(1, cfg.layers + 1):
        user, item = graph.propagate(user, item)
        if noisy:
            _add_noise(user, cfg.noise_modulus, rng)
            _add_noise(item, cfg.noise_modulus, rng)
        total_u += user
        total_i += item
        if cfg.kind == "xsimgcl" and layer == cfg.contrast_layer:
            out.contrast_user, out.contrast_item = user, item
    total_u /= cfg.layers + 1
    total_i /= cfg.layers + 1
    return out


def backward(grad_user, grad_item, graph: InteractionGraph | None, cfg: BackboneConfig,
             grad_contrast=None):
    """Pull final-representation gradients, plus XSimGCL's optional
    (user, item) gradients of the contrast-layer view, back to the table.

    Layer k is A^k of the table for the linear, self-adjoint propagation A,
    so the table gradient is sum_k A^k g / (L + 1) + A^l c. It is taken in
    Horner form, one chain of L propagations: h = g / (L + 1) at layer L,
    then h = g / (L + 1) + A h down to layer 0, with c added at layer l.
    XSimGCL noise is constant under backward: its draw is fixed and its
    sign(e) factor has zero derivative almost everywhere.
    """
    if cfg.kind == "mf":
        return grad_user, grad_item
    if graph is None:
        raise ValueError("graph backbones need an interaction graph")
    gu, gi = grad_user / (cfg.layers + 1), grad_item / (cfg.layers + 1)
    hu, hi = gu.copy(), gi.copy()
    for layer in range(cfg.layers, -1, -1):
        if layer < cfg.layers:
            hu, hi = graph.propagate(hu, hi)
            hu += gu
            hi += gi
        if grad_contrast is not None and layer == cfg.contrast_layer:
            hu += grad_contrast[0]
            hi += grad_contrast[1]
    return hu, hi


def unit_rows(emb):
    """Row-normalized copy of an embedding matrix, and the row norms."""
    norms = np.linalg.norm(emb, axis=1)
    return emb / norms[:, None], norms


def normalization_pullback(grad_hat, unit, norms):
    """Gradient with respect to e from the gradient with respect to
    e / ||e||, row by row: (g - (g . e_hat) e_hat) / ||e||."""
    radial = np.einsum("rd,rd->r", grad_hat, unit)
    # the operations of (g - radial * e_hat) / ||e||, in one temporary
    out = np.multiply(radial[:, None], unit)
    np.subtract(grad_hat, out, out=out)
    out /= norms[:, None]
    return out


def cosine_matrix(user_emb, item_emb):
    """All-pairs cosine scores; rows are users."""
    return unit_rows(user_emb)[0] @ unit_rows(item_emb)[0].T


class CosineScores:
    """Noise-free cosine scores, read in row blocks: `scores[rows]` is the
    (len(rows), items) block of users `rows`, in the tables' dtype. Both
    final tables are normalized once; no users x items array is held."""

    def __init__(self, table: EmbeddingTable, graph: InteractionGraph | None,
                 cfg: BackboneConfig):
        out = forward(table, graph, replace(cfg, noise_modulus=0.0))
        self.user, _ = unit_rows(out.final_user)
        self.item, _ = unit_rows(out.final_item)
        self.shape = (len(self.user), len(self.item))
        self.dtype = self.user.dtype

    def __getitem__(self, rows):
        return self.user[rows] @ self.item.T


# The largest 1/temperature + log(n) at which `infonce_auxiliary` takes the
# exp of its logits unshifted, per dtype (86.7 in float32, 707.8 in
# float64): a logit is a cosine over the temperature, so at most
# 1/temperature, and a row's sum of n exps then stays below the dtype's
# largest float by a factor e^2, room for the rounding of the cosines and
# of the sums. Above it, and in any other dtype, each row is shifted by its
# max first.
_UNSHIFTED_EXP = {np.dtype(t): float(np.log(np.finfo(t).max)) - 2.0
                  for t in (np.float32, np.float64)}


def infonce_auxiliary(layer_final, layer_lstar, temperature, weight):
    """In-batch InfoNCE between two layer views of one contrast set: the
    batch's distinct users, or its distinct positive items (XSimGCL's set,
    so n <= B). Node a's positive is its own view in the other layer; the
    set's other nodes are its negatives. A node whose row is zero in either
    view (an isolated node's propagated layer, without noise) has no
    direction and is left out, with zero gradients. Returns (scaled loss,
    d_final, d_lstar).

    Forms one (n x n) array in the views' dtype, the logits and then their
    exps, and makes three BLAS products: the logits; the exps, their
    diagonal moved out (`E`), times [l_hat | 1], whose last column is each
    row's off-diagonal sum `off`; and E^T times f_hat. The softmax gradient
    d loss / d cos = scale (softmax - I), scale = weight / (n temperature),
    is then r E - diag(r off) with r = scale / row sum, and its row factor
    and diagonal act on the (n x d) operands and results only:
    g l_hat = r (E l_hat - off l_hat) and g^T f_hat = E^T (r f_hat) -
    r off f_hat, exact where a row's softmax is one-hot to rounding. Each
    view's gradient is their `normalization_pullback` (the scoring step's).
    """
    zf = np.asarray(layer_final)
    zl = np.asarray(layer_lstar)
    if zf.shape != zl.shape:
        raise ValueError("both layers must cover the same node set")
    n, d = zf.shape
    if n < 2 or weight == 0.0:
        return 0.0, np.zeros_like(zf), np.zeros_like(zl)
    nf = np.linalg.norm(zf, axis=1)
    nl = np.linalg.norm(zl, axis=1)
    live = (nf > 0) & (nl > 0)
    if not live.all():
        d_final, d_lstar = np.zeros_like(zf), np.zeros_like(zl)
        loss, d_final[live], d_lstar[live] = infonce_auxiliary(zf[live], zl[live],
                                                               temperature, weight)
        return loss, d_final, d_lstar
    fhat = zf / nf[:, None]
    lhat_ones = np.empty((n, d + 1), nl.dtype)
    lhat = np.divide(zl, nl[:, None], out=lhat_ones[:, :d])
    lhat_ones[:, d] = 1
    s = (fhat / temperature) @ lhat.T
    s_diag = s.diagonal().copy()
    shifted = 1 / temperature + math.log(n) > _UNSHIFTED_EXP.get(s.dtype, -np.inf)
    if shifted:
        smax = s.max(axis=1)
        s -= smax[:, None]
    e = np.exp(s, out=s)
    diag = e.reshape(-1)[::n + 1]
    total = diag.copy()
    diag[:] = 0
    e_lhat = e @ lhat_ones
    off = e_lhat[:, d]
    total += off
    terms = np.log(total) - s_diag
    if shifted:
        terms += smax
    loss = float(np.mean(terms))
    r = weight / (n * temperature) / total
    g_lhat = e_lhat[:, :d]
    g_lhat -= off[:, None] * lhat
    g_lhat *= r[:, None]
    g_fhat = e.T @ (fhat * r[:, None])
    g_fhat -= (r * off)[:, None] * fhat
    d_final = normalization_pullback(g_lhat, fhat, nf)
    d_lstar = normalization_pullback(g_fhat, lhat, nl)
    return weight * loss, d_final, d_lstar


def save_checkpoint(path, table: EmbeddingTable, margins=None):
    """Binary container: magic, version, |U|, |I|, d header; row-major
    little-endian float32 users then items; optional tagged margin section.
    The file is replaced whole or left as it was."""
    n_users, d = table.user.shape
    beta = None if margins is None else np.asarray(margins, dtype="<f4")
    if beta is not None and beta.size != n_users:
        raise ValueError("margin vector length must equal num_users")
    replace_file(path, b"".join([
        _MAGIC, struct.pack("<IIII", _VERSION, n_users, table.item.shape[0], d),
        table.user.astype("<f4").tobytes(), table.item.astype("<f4").tobytes(),
        *([] if beta is None else [_MARGIN_TAG, beta.tobytes()]),
    ]))


def _read_part(fh, size, path, part):
    """The next `size` bytes, checked against what the file has left before
    reading, so that a header's oversized block fails by name."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if size > left:
        raise ValueError(
            f"truncated checkpoint {path}: the {part} needs {size} bytes, found {left}"
        )
    return fh.read(size)


def load_checkpoint(path):
    """Read a checkpoint; returns (EmbeddingTable, margins-or-None): the
    tables in float32, as stored, and the margins in float64."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _MAGIC:
            raise ValueError(f"{path} is not a checkpoint file: bad magic {magic!r}")
        version, n_users, n_items, d = struct.unpack(
            "<IIII", _read_part(fh, 16, path, "header"))
        if version != _VERSION:
            raise ValueError(f"unsupported checkpoint version {version} in {path}")
        user = np.frombuffer(_read_part(fh, n_users * d * 4, path, "user block"),
                             dtype="<f4").reshape(n_users, d)
        item = np.frombuffer(_read_part(fh, n_items * d * 4, path, "item block"),
                             dtype="<f4").reshape(n_items, d)
        margins = None
        tag = fh.read(4)
        if tag == _MARGIN_TAG:
            margins = np.frombuffer(_read_part(fh, n_users * 4, path, "margin section"),
                                    dtype="<f4").astype(float)
            if not np.isfinite(margins).all():
                raise ValueError(f"checkpoint {path}: margins must be finite")
            if fh.read(1):
                raise ValueError(f"checkpoint {path} has bytes after its margin section")
        elif tag:
            raise ValueError(f"unknown checkpoint section {tag!r} in {path}")
    try:
        return EmbeddingTable(user.astype(np.float32), item.astype(np.float32)), margins
    except ValueError as exc:
        raise ValueError(f"checkpoint {path}: {exc}") from None
