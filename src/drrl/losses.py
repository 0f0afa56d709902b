"""Loss values and analytic gradients with respect to prediction scores,
plus the learnable per-user margin machinery for the robust Renyi loss."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LOSS_KINDS = ("mse", "bce", "bpr", "sl", "ccl", "drrl")


@dataclass
class LossSpec:
    kind: str = "drrl"
    tau: float = 0.2            # softmax temperature
    alpha: float = 1.0          # ccl negative rescale
    margin: float = 0.0         # ccl fixed margin
    gamma_star: float = 2.0     # conjugate Renyi exponent, >= 1
    c: float = 1.0              # radius scalar c_gamma(eta), tuned directly
    eps: float = 1e-10          # hinge stabilizer
    beta0: float = 0.5          # margin init
    lr_beta: float = 1e-4       # margin learning rate

    def validate(self):
        errors = []
        if self.kind not in LOSS_KINDS:
            errors.append(f"loss.kind must be one of {LOSS_KINDS}, got {self.kind!r}")
        if self.tau <= 0:
            errors.append("loss.tau must be positive")
        if self.alpha < 0:
            errors.append("loss.alpha must be nonnegative")
        if self.gamma_star < 1:
            errors.append("loss.gamma_star must be at least 1")
        if self.c <= 0:
            errors.append("loss.c must be positive")
        elif self.kind == "drrl" and self.c < 1:
            # c = c_gamma(eta) >= 1 for every radius eta >= 0; below 1 the
            # margin objective beta + M(beta) is unbounded below
            errors.append("loss.c must be at least 1 for drrl")
        if self.eps < 0:
            errors.append("loss.eps must be nonnegative")
        if errors:
            raise ValueError("; ".join(errors))
        return self

    @property
    def gamma(self):
        """Renyi order recovered from the configured conjugate exponent;
        gamma_star = 1 maps to the truncated (CCL) limit gamma -> inf."""
        if self.gamma_star == 1.0:
            return math.inf
        return self.gamma_star / (self.gamma_star - 1.0)


@dataclass
class MarginState:
    beta: np.ndarray

    @classmethod
    def initialize(cls, num_users, beta0):
        return cls(np.full(num_users, float(beta0)))

    def copy(self):
        return MarginState(self.beta.copy())


def _check_scores(f_pos, f_neg, need_negatives=None):
    if f_pos.shape[1] == 0:
        raise ValueError("loss needs at least one positive score")
    if need_negatives and f_neg.shape[1] == 0:
        raise ValueError(f"{need_negatives} needs at least one negative score")


def _column(x):
    """A per-row vector (B,) as a (B, 1) column; a scalar passes through."""
    return np.asarray(x, dtype=float)[:, None] if np.ndim(x) else x


def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


# Loss kernels. Each takes positive scores f_pos (B, P) and negative scores
# f_neg (B, n) and returns per-row values (B,) and the gradients of each
# row's value with respect to its scores, d_pos (B, P) and d_neg (B, n).


def mse_loss(f_pos, f_neg):
    """Squared error against targets 1 (positives) and 0 (negatives)."""
    _check_scores(f_pos, f_neg)
    value = ((f_pos - 1.0) ** 2).sum(axis=1) / f_pos.shape[1]
    d_pos = 2.0 * (f_pos - 1.0) / f_pos.shape[1]
    if f_neg.shape[1]:
        value = value + (f_neg**2).sum(axis=1) / f_neg.shape[1]
        d_neg = 2.0 * f_neg / f_neg.shape[1]
    else:
        d_neg = np.zeros_like(f_neg)
    return value, d_pos, d_neg


def bce_loss(f_pos, f_neg):
    _check_scores(f_pos, f_neg)
    value = -np.log(_sigmoid(f_pos)).sum(axis=1) / f_pos.shape[1]
    d_pos = -(1.0 - _sigmoid(f_pos)) / f_pos.shape[1]
    if f_neg.shape[1]:
        value = value - np.log(1.0 - _sigmoid(f_neg)).sum(axis=1) / f_neg.shape[1]
        d_neg = _sigmoid(f_neg) / f_neg.shape[1]
    else:
        d_neg = np.zeros_like(f_neg)
    return value, d_pos, d_neg


def bpr_loss(f_pos, f_neg):
    """Mean over all (positive, negative) pairs of -log sigmoid(f+ - f-)."""
    _check_scores(f_pos, f_neg, "pairwise loss")
    sig = _sigmoid(f_pos[:, :, None] - f_neg[:, None, :])
    n_pairs = f_pos.shape[1] * f_neg.shape[1]
    value = (-np.log(sig)).sum(axis=(1, 2)) / n_pairs
    d_pos = (sig - 1.0).sum(axis=2) / n_pairs
    d_neg = (1.0 - sig).sum(axis=1) / n_pairs
    return value, d_pos, d_neg


def softmax_loss(f_pos, f_neg, tau):
    """Negatives-only softmax form: -mean(f+)/tau + log sum_j exp(f-/tau)."""
    _check_scores(f_pos, f_neg, "softmax loss")
    if tau <= 0:
        raise ValueError("tau must be positive")
    z = f_neg / tau
    zmax = z.max(axis=1, keepdims=True)
    expz = np.exp(z - zmax)
    total = expz.sum(axis=1, keepdims=True)
    value = -(f_pos.sum(axis=1) / f_pos.shape[1]) / tau + (zmax + np.log(total))[:, 0]
    d_pos = np.full(f_pos.shape, -1.0 / (tau * f_pos.shape[1]))
    d_neg = expz / total / tau
    return value, d_pos, d_neg


def sl_worst_case_weights(neg_scores, tau):
    """Mean-one exponential weights  w_j = exp(f_j/tau) / mean_k exp(f_k/tau),
    read off the softmax kernel as n tau d_neg."""
    f = np.asarray(neg_scores, dtype=float)[None, :]
    _, _, d_neg = softmax_loss(np.zeros((1, 1)), f, tau)
    return f.size * tau * d_neg[0]


def ccl_loss(f_pos, f_neg, alpha, margin):
    """Truncated point-wise loss: -mean(f+) + (alpha/n) sum (f- - margin)_+;
    `margin` is a scalar or one value per row."""
    _check_scores(f_pos, f_neg)
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    margin = _column(margin)
    value = -f_pos.sum(axis=1) / f_pos.shape[1]
    d_pos = np.full(f_pos.shape, -1.0 / f_pos.shape[1])
    if f_neg.shape[1]:
        hinge = np.maximum(f_neg - margin, 0.0)
        value = value + alpha * (hinge.sum(axis=1) / f_neg.shape[1])
        # subgradient 0 at the kink f = margin
        d_neg = np.where(f_neg > margin, alpha / f_neg.shape[1], 0.0)
    else:
        d_neg = np.zeros_like(f_neg)
    return value, d_pos, d_neg


def _drrl_negative_term(f_neg, gamma_star, c, eps, beta):
    """Per-row M = (mean [c (f - beta)_+ + eps]^{g*})^{1/g*} as a (B, 1)
    column, with the (B, n) inner terms; `beta` is a scalar or a (B, 1) column."""
    inner = c * np.maximum(f_neg - beta, 0.0) + eps
    m = ((inner**gamma_star).sum(axis=1, keepdims=True) / f_neg.shape[1]) ** (1.0 / gamma_star)
    return m, inner


def _drrl_negative_weights(f_neg, gamma_star, c, eps, beta):
    """M per row and dM/df (B, n) = M^{1-g*}/n [c (f-beta)_+ + eps]^{g*-1} c 1[f > beta];
    a fully truncated row with eps = 0 (M = 0) takes its one-sided limit 0.
    At g* = 1 the factor M^0 is 1, also where M underflows to 0."""
    m, inner = _drrl_negative_term(f_neg, gamma_star, c, eps, beta)
    scale = np.power(m, 1.0 - gamma_star, where=(m > 0.0) | (gamma_star == 1.0),
                     out=np.zeros_like(m)) / f_neg.shape[1]
    return m[:, 0], scale * inner ** (gamma_star - 1.0) * c * (f_neg > beta)


def drrl_loss(f_pos, f_neg, gamma_star, c, eps, beta):
    """Robust Renyi loss with per-row margins `beta` (scalar or (B,)):
    -mean(f+) + (mean [c (f- - beta)_+ + eps]^{g*})^{1/g*}."""
    _check_scores(f_pos, f_neg)
    if gamma_star < 1 or c <= 0 or eps < 0:
        raise ValueError("need gamma_star >= 1, c > 0, eps >= 0")
    value = -f_pos.sum(axis=1) / f_pos.shape[1]
    d_pos = np.full(f_pos.shape, -1.0 / f_pos.shape[1])
    if f_neg.shape[1] == 0:
        return value, d_pos, np.zeros_like(f_neg)
    m, d_neg = _drrl_negative_weights(f_neg, gamma_star, c, eps, _column(beta))
    return value + m, d_pos, d_neg


def drrl_beta_objective(neg_scores, gamma_star, c, eps, beta):
    """One user's margin objective beta + M(beta); convex in beta."""
    f_neg = np.asarray(neg_scores, dtype=float)[None, :]
    m, _ = _drrl_negative_term(f_neg, gamma_star, c, eps, beta)
    return float(beta + m[0, 0])


def drrl_beta_gradient(f_neg, gamma_star, c, eps, beta):
    """d/d beta of each row's margin objective, (B,):
    1 - (M^{1-g*}/n) sum [c (f-beta)_+ + eps]^{g*-1} c 1[f > beta];
    a fully truncated row (M = 0) has gradient 1."""
    _, d_neg = _drrl_negative_weights(f_neg, gamma_star, c, eps, _column(beta))
    return 1.0 - d_neg.sum(axis=1)


def beta_step(state: MarginState, grad, lr_beta) -> MarginState:
    """SGD descent step on the margins: `grad` holds one gradient per user
    (zero leaves a user untouched) or one scalar for a shared margin."""
    if lr_beta <= 0:
        raise ValueError("lr_beta must be positive")
    state.beta -= lr_beta * grad
    return state


def drrl_worst_case_weights(neg_scores, gamma, c, beta):
    """Polynomial worst-case weights
    w_j = c (f_j - beta)_+^{1/(g-1)} / (mean (f - beta)_+^{g*})^{1/g},
    read off the DrRL kernel at eps = 0 as n d_neg.

    Returns (weights, degenerate_flag); the flag is set when every score is
    truncated and the weights are identically zero.
    """
    if gamma <= 1:
        raise ValueError("gamma must exceed 1")
    f = np.asarray(neg_scores, dtype=float)[None, :]
    # at a zero positive score the row's value is M itself
    m, _, d_neg = drrl_loss(np.zeros((1, 1)), f, gamma / (gamma - 1.0), c, 0.0, beta)
    return f.size * d_neg[0], bool(m[0] == 0.0)


def batch_loss(f_pos, f_neg, spec: LossSpec, beta=None):
    """Mean loss over a batch of B rows: positive scores f_pos (B, P),
    negative scores f_neg (B, n) and, for DrRL, each row's margin beta (B,).

    Returns the scalar batch loss and the gradients d_pos (B, P) and
    d_neg (B, n) of that mean.
    """
    f_pos = np.asarray(f_pos, dtype=float)
    f_neg = np.asarray(f_neg, dtype=float)
    if len(f_pos) == 0:
        raise ValueError("empty batch")
    kind = spec.kind
    if kind == "mse":
        out = mse_loss(f_pos, f_neg)
    elif kind == "bce":
        out = bce_loss(f_pos, f_neg)
    elif kind == "bpr":
        out = bpr_loss(f_pos, f_neg)
    elif kind == "sl":
        out = softmax_loss(f_pos, f_neg, spec.tau)
    elif kind == "ccl":
        out = ccl_loss(f_pos, f_neg, spec.alpha, spec.margin)
    elif kind == "drrl":
        if beta is None:
            raise ValueError("drrl loss needs the rows' margins")
        out = drrl_loss(f_pos, f_neg, spec.gamma_star, spec.c, spec.eps, beta)
    else:
        raise ValueError(f"unknown loss kind {kind!r}")
    value, d_pos, d_neg = out
    n = len(f_pos)
    return float(np.mean(value)), d_pos / n, d_neg / n
