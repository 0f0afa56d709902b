"""Embedding tables, backbone propagation (MF / LightGCN / XSimGCL),
cosine scoring, the XSimGCL InfoNCE term, and binary checkpoints."""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

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
    def init_normal(cls, num_users, num_items, d, std=0.1, seed=0):
        rng = np.random.default_rng(seed)
        return cls(
            rng.normal(0.0, std, size=(num_users, d)),
            rng.normal(0.0, std, size=(num_items, d)),
        )

    def copy(self):
        return EmbeddingTable(self.user.copy(), self.item.copy())


class InteractionGraph:
    """Bipartite train-interaction graph with symmetric degree normalization;
    edge (u, i) carries coefficient 1 / sqrt(deg_u * deg_i)."""

    def __init__(self, train_pairs, num_users, num_items):
        pairs = np.asarray(train_pairs, dtype=np.int64).reshape(-1, 2)
        self.num_users = num_users
        self.num_items = num_items
        data = np.ones(len(pairs))
        adj = sp.csr_matrix(
            (data, (pairs[:, 0], pairs[:, 1])), shape=(num_users, num_items)
        )
        deg_u = np.asarray(adj.sum(axis=1)).ravel()
        deg_i = np.asarray(adj.sum(axis=0)).ravel()
        inv_u = np.where(deg_u > 0, 1.0 / np.sqrt(np.maximum(deg_u, 1)), 0.0)
        inv_i = np.where(deg_i > 0, 1.0 / np.sqrt(np.maximum(deg_i, 1)), 0.0)
        # normalized user-item operator; isolated nodes propagate nothing
        self.norm_adj = sp.diags(inv_u) @ adj @ sp.diags(inv_i)
        self.norm_adj = self.norm_adj.tocsr()

    def propagate(self, user_emb, item_emb):
        """One symmetric-normalized convolution step (self-adjoint)."""
        return self.norm_adj @ item_emb, self.norm_adj.T @ user_emb


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
        if errors:
            raise ValueError("; ".join(errors))
        return self


@dataclass
class ForwardOutput:
    final_user: np.ndarray
    final_item: np.ndarray
    contrast_user: np.ndarray | None = None
    contrast_item: np.ndarray | None = None


def _noise_with_norm(shape, modulus, rng):
    v = rng.normal(size=shape)
    norms = np.linalg.norm(v, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return v / norms * modulus


def forward(table: EmbeddingTable, graph: InteractionGraph | None, cfg: BackboneConfig, rng=None):
    """Run the configured backbone.

    MF is the identity; LightGCN averages L+1 propagation layers; XSimGCL
    additionally perturbs each propagated layer with noise of fixed L2 norm
    and exposes the contrast-layer representations.
    """
    if cfg.kind == "mf":
        return ForwardOutput(table.user, table.item)
    if graph is None:
        raise ValueError("graph backbones need an interaction graph")
    noisy = cfg.kind == "xsimgcl" and cfg.noise_modulus > 0
    if noisy and rng is None:
        raise ValueError("xsimgcl forward needs an rng for the noise draws")
    u_layers = [table.user]
    i_layers = [table.item]
    for _ in range(cfg.layers):
        u_next, i_next = graph.propagate(u_layers[-1], i_layers[-1])
        if noisy:
            u_next = u_next + _noise_with_norm(u_next.shape, cfg.noise_modulus, rng)
            i_next = i_next + _noise_with_norm(i_next.shape, cfg.noise_modulus, rng)
        u_layers.append(u_next)
        i_layers.append(i_next)
    final_u = np.mean(u_layers, axis=0)
    final_i = np.mean(i_layers, axis=0)
    out = ForwardOutput(final_u, final_i)
    if cfg.kind == "xsimgcl":
        out.contrast_user = u_layers[cfg.contrast_layer]
        out.contrast_item = i_layers[cfg.contrast_layer]
    return out


def backward(grad_user, grad_item, graph: InteractionGraph | None, cfg: BackboneConfig):
    """Pull final-representation gradients back to the embedding table.

    The propagation is linear and self-adjoint, so the backward pass reuses
    the same normalized adjacency; XSimGCL noise is constant under backward.
    """
    if cfg.kind == "mf":
        return grad_user, grad_item
    if graph is None:
        raise ValueError("graph backbones need an interaction graph")
    gu, gi = grad_user, grad_item
    acc_u = gu.copy()
    acc_i = gi.copy()
    for _ in range(cfg.layers):
        gu, gi = graph.propagate(gu, gi)
        acc_u += gu
        acc_i += gi
    return acc_u / (cfg.layers + 1), acc_i / (cfg.layers + 1)


def cosine_matrix(user_emb, item_emb):
    """All-pairs cosine scores; rows are users."""
    un = user_emb / np.linalg.norm(user_emb, axis=1, keepdims=True)
    im = item_emb / np.linalg.norm(item_emb, axis=1, keepdims=True)
    return un @ im.T


def infonce_auxiliary(layer_final, layer_lstar, temperature, weight):
    """In-batch InfoNCE between two layer views of the same nodes.

    Node a's positive is its own view in the other layer; all other in-batch
    nodes are negatives. A node whose row is zero in either view (an
    isolated node's propagated layer, without noise) has no direction and is
    left out of the contrast set, with zero gradients. Returns (scaled loss,
    d_final, d_lstar).
    """
    zf = np.asarray(layer_final, dtype=float)
    zl = np.asarray(layer_lstar, dtype=float)
    if zf.shape != zl.shape:
        raise ValueError("both layers must cover the same node set")
    n = zf.shape[0]
    if n < 2 or weight == 0.0:
        return 0.0, np.zeros_like(zf), np.zeros_like(zl)
    nf = np.linalg.norm(zf, axis=1, keepdims=True)
    nl = np.linalg.norm(zl, axis=1, keepdims=True)
    live = (nf[:, 0] > 0) & (nl[:, 0] > 0)
    if not live.all():
        d_final, d_lstar = np.zeros_like(zf), np.zeros_like(zl)
        loss, d_final[live], d_lstar[live] = infonce_auxiliary(zf[live], zl[live],
                                                               temperature, weight)
        return loss, d_final, d_lstar
    fhat = zf / nf
    lhat = zl / nl
    cos = fhat @ lhat.T
    s = cos / temperature
    diag = np.diag_indices(n)
    smax = s.max(axis=1, keepdims=True)
    s_diag = s[diag]
    # g_cos = weight * (softmax(s) - I) / (n * temperature), built in s's buffer
    g_cos = np.exp(np.subtract(s, smax, out=s), out=s)
    total = g_cos.sum(axis=1, keepdims=True)
    loss = float(np.mean(-s_diag + smax.ravel() + np.log(total.ravel())))
    g_cos /= total
    g_cos[diag] -= 1.0
    g_cos *= weight
    g_cos /= n * temperature
    weighted = g_cos * cos
    row = weighted.sum(axis=1, keepdims=True)
    col = weighted.sum(axis=0)[:, None]
    d_final = (g_cos @ lhat - row * fhat) / nf
    d_lstar = (g_cos.T @ fhat - col * lhat) / nl
    return weight * loss, d_final, d_lstar


def save_checkpoint(path, table: EmbeddingTable, margins=None):
    """Binary container: magic, version, |U|, |I|, d header; row-major
    little-endian float32 users then items; optional tagged margin section."""
    n_users, d = table.user.shape
    n_items = table.item.shape[0]
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<IIII", _VERSION, n_users, n_items, d))
        fh.write(table.user.astype("<f4").tobytes())
        fh.write(table.item.astype("<f4").tobytes())
        if margins is not None:
            beta = np.asarray(margins, dtype="<f4")
            if beta.size != n_users:
                raise ValueError("margin vector length must equal num_users")
            fh.write(_MARGIN_TAG)
            fh.write(beta.tobytes())


def _read_part(fh, size, path, part):
    data = fh.read(size)
    if len(data) != size:
        raise ValueError(
            f"truncated checkpoint {path}: the {part} needs {size} bytes, "
            f"found {len(data)}"
        )
    return data


def load_checkpoint(path):
    """Read a checkpoint; returns (EmbeddingTable, margins-or-None)."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _MAGIC:
            raise ValueError(f"not a checkpoint file: bad magic {magic!r}")
        version, n_users, n_items, d = struct.unpack(
            "<IIII", _read_part(fh, 16, path, "header"))
        if version != _VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        user = np.frombuffer(_read_part(fh, n_users * d * 4, path, "user block"),
                             dtype="<f4").reshape(n_users, d)
        item = np.frombuffer(_read_part(fh, n_items * d * 4, path, "item block"),
                             dtype="<f4").reshape(n_items, d)
        margins = None
        tag = fh.read(4)
        if tag == _MARGIN_TAG:
            margins = np.frombuffer(_read_part(fh, n_users * 4, path, "margin section"),
                                    dtype="<f4").astype(float)
        elif tag:
            raise ValueError(f"unknown checkpoint section {tag!r} in {path}")
    return EmbeddingTable(user.astype(float), item.astype(float)), margins
