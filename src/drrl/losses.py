"""Loss values and analytic gradients with respect to prediction scores,
plus the learnable per-user margin machinery for the robust Renyi loss.

One array kernel per loss kind maps positive and negative scores `(B, P)`,
`(B, n)` to per-row values and score gradients. Every kernel takes P, n >= 1
and raises a `ValueError` that names an empty block, unequal row counts, or
a margin that is neither a scalar nor one value per row. The truncating
kernels (CCL, DrRL), whose every negative at or below its margin weighs exactly 0,
return their negative-score gradient as `LiveEntries` (the ascending flat
slot indices of the nonzero entries, and their values); the other four
return a dense `(B, n)` array; `dense` scatters live entries into zeros.

The one DrRL formula, M = (mean [c (f - beta)_+ + eps]^{g*})^{1/g*}, and its
score weights are one kernel (`_drrl_negative_weights`) that the loss, the
margin objective, the margin gradient and the worst-case weights all call.
It computes in float64 in `dataio.CACHE_BLOCK` blocks, so neither the loss
nor the margin gradient forms a `(B, n)` array, and it scales a row whose
largest term's g*-th power would leave float64's range by that term, so no
power over- or underflows. `batch_loss` dispatches on the loss kind and
averages over the batch; `worst_case_weights` is the one worst-case weight
function, with a score of -inf weighing exactly 0."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import CACHE_BLOCK, non_finite_fields, row_blocks

LOSS_KINDS = ("mse", "bce", "bpr", "sl", "ccl", "drrl")
WORST_CASE_KINDS = ("sl", "ccl", "drrl")  # the kinds with worst-case weights


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
        errors = non_finite_fields(self, "loss")
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
        if self.lr_beta <= 0:
            errors.append("loss.lr_beta must be positive")
        if errors:
            raise ValueError("; ".join(errors))
        return self


@dataclass
class MarginState:
    beta: np.ndarray

    @classmethod
    def initialize(cls, num_users, beta0):
        return cls(np.full(num_users, float(beta0)))

    def copy(self):
        return MarginState(self.beta.copy())


def _check_scores(f_pos, f_neg):
    if f_pos.shape[1] == 0 or f_neg.shape[1] == 0:
        raise ValueError("a loss kernel needs at least one positive and one negative "
                         f"score per row, got {f_pos.shape[1]} and {f_neg.shape[1]}")
    if len(f_pos) != len(f_neg):
        raise ValueError(f"f_pos has {len(f_pos)} rows and f_neg {len(f_neg)}; "
                         "a loss kernel needs one row of each per pair")


def _column(x, rows, name):
    """A per-row vector (rows,) as a (rows, 1) float column; a scalar as a
    float scalar. Anything else raises a ValueError naming `name`."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        return x
    if x.shape != (rows,):
        raise ValueError(f"{name} must be a scalar or one value per row ({rows}), "
                         f"got shape {x.shape}")
    return x[:, None]


@dataclass
class LiveEntries:
    """The score gradient (rows, n) of a truncating loss (CCL, DrRL) as its
    live entries, every other entry being exactly 0: the ascending flat slot
    indices `index` and their `value`s, those of `np.flatnonzero(d != 0)`
    and `d.ravel()[index]` for the dense array d."""
    index: np.ndarray
    value: np.ndarray
    shape: tuple


def dense(d_neg):
    """A negative-score gradient as a (rows, n) array: live entries
    scattered into float64 zeros, a dense array as it is."""
    if not isinstance(d_neg, LiveEntries):
        return d_neg
    out = np.zeros(d_neg.shape)
    out.ravel()[d_neg.index] = d_neg.value
    return out


def _joined(parts, dtype=float):
    """One array of the blocks' `parts`, in order; the part itself if one."""
    return parts[0] if len(parts) == 1 else np.concatenate([np.empty(0, dtype)] + parts)


def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


# Loss kernels. Each takes positive scores f_pos (B, P) and negative scores
# f_neg (B, n), with P >= 1 and n >= 1, and returns per-row values (B,) and
# the gradients of each row's value with respect to its scores, d_pos (B, P)
# and d_neg: a (B, n) array, or for the truncating losses (CCL, DrRL) its
# `LiveEntries`.


def mse_loss(f_pos, f_neg):
    """Squared error against targets 1 (positives) and 0 (negatives)."""
    _check_scores(f_pos, f_neg)
    value = ((f_pos - 1.0) ** 2).sum(axis=1) / f_pos.shape[1]
    value = value + (f_neg**2).sum(axis=1) / f_neg.shape[1]
    d_pos = 2.0 * (f_pos - 1.0) / f_pos.shape[1]
    d_neg = 2.0 * f_neg / f_neg.shape[1]
    return value, d_pos, d_neg


def bce_loss(f_pos, f_neg):
    _check_scores(f_pos, f_neg)
    value = -np.log(_sigmoid(f_pos)).sum(axis=1) / f_pos.shape[1]
    value = value - np.log(1.0 - _sigmoid(f_neg)).sum(axis=1) / f_neg.shape[1]
    d_pos = -(1.0 - _sigmoid(f_pos)) / f_pos.shape[1]
    d_neg = _sigmoid(f_neg) / f_neg.shape[1]
    return value, d_pos, d_neg


def bpr_loss(f_pos, f_neg):
    """Mean over all (positive, negative) pairs of -log sigmoid(f+ - f-)."""
    _check_scores(f_pos, f_neg)
    sig = _sigmoid(f_pos[:, :, None] - f_neg[:, None, :])
    n_pairs = f_pos.shape[1] * f_neg.shape[1]
    value = (-np.log(sig)).sum(axis=(1, 2)) / n_pairs
    d_pos = (sig - 1.0).sum(axis=2) / n_pairs
    d_neg = (1.0 - sig).sum(axis=1) / n_pairs
    return value, d_pos, d_neg


def softmax_loss(f_pos, f_neg, tau):
    """Negatives-only softmax form: -mean(f+)/tau + log sum_j exp(f-/tau)."""
    _check_scores(f_pos, f_neg)
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


def ccl_loss(f_pos, f_neg, alpha, margin):
    """Truncated point-wise loss: -mean(f+) + (alpha/n) sum (f- - margin)_+;
    `margin` is a scalar or one value per row."""
    _check_scores(f_pos, f_neg)
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    rows, n = f_neg.shape
    margin = _column(margin, rows, "margin")
    sums, index, hinge = np.empty(rows), [], None
    # cache-sized blocks through one float64 scratch block: each row's hinge
    # sum runs over the same n contiguous terms as over the whole array
    for block in row_blocks(rows, n, CACHE_BLOCK):
        f, b = f_neg[block], margin[block] if margin.ndim else margin
        hinge = np.subtract(f, b, out=None if hinge is None else hinge[:len(f)])
        np.maximum(hinge, 0.0, out=hinge)
        np.add.reduce(hinge, 1, out=sums[block])
        if alpha:  # subgradient 0 at the kink f = margin
            hit = (f > b).ravel().nonzero()[0]
            if block.start:
                hit += block.start * n
            index.append(hit)
    value = -f_pos.sum(axis=1) / f_pos.shape[1] + alpha * (sums / n)
    d_pos = np.full(f_pos.shape, -1.0 / f_pos.shape[1])
    live = _joined(index, np.intp)  # every live entry weighs alpha / n
    return value, d_pos, LiveEntries(live, np.full(live.size, alpha / n), f_neg.shape)


def _power_mean(x, gamma_star, eps, low=None):
    """The scale, power and mean passes of `_drrl_negative_weights` over a
    block of terms x (rows, n), each at least eps: divides the rows that
    need it by their largest term, writes x^{g*-1} into `low` (or a new
    array) and x^{g*} into x, and returns M / scale, M and `low`."""
    low_top, high_top = 2.0 ** (-900.0 / gamma_star), 2.0 ** (900.0 / gamma_star)
    scale = None
    # every term is at least eps, and at g* = 1 the kernel takes no power
    if gamma_star != 1.0 and (eps < low_top or x.max() > high_top):
        top = x.max(axis=1, keepdims=True)
        # a row of zero terms (fully truncated at eps = 0) needs no scale
        kept = (top == 0.0) | ((top >= low_top) & (top <= high_top))
        if not kept.all():
            scale = np.where(kept, 1.0, top)
            x /= scale
    low = np.power(x, gamma_star - 1.0, out=low)
    x *= low
    mean = (np.add.reduce(x, 1) / x.shape[1]) ** (1.0 / gamma_star)
    return mean, mean if scale is None else mean * scale[:, 0], low


def _drrl_negative_weights(f_neg, gamma_star, c, eps, beta, weights="live"):
    """Per-row M = (mean [c (f - beta)_+ + eps]^{g*})^{1/g*} (B,) and its
    weights dM/df = M^{1-g*}/n [c (f-beta)_+ + eps]^{g*-1} c 1[f > beta]:
    their `LiveEntries` for `weights="live"`, each row's sum (B,) for "sum"
    and None for None. `beta` is a scalar or one margin per row. A fully
    truncated row with eps = 0 (M = 0) takes its one-sided limit 0; at
    g* = 1 the factor M^0 is 1, also where M underflows to 0.

    The one DrRL formula: the loss, the margin objective, the margin
    gradient and the worst-case weights all call it. It walks cache-sized
    `row_blocks` in float64, whatever the scores' dtype, and every pass over
    a block writes in place into the same scratch blocks; a block's live
    entries are picked from its weights while they are in cache.
    A block of several rows whose every score lies at or below its row's
    margin (no nan) is fully truncated: each of its terms is eps, so it
    forms no terms and takes no power. Its rows' M is that of one row of
    n terms eps, formed once per call by the same passes (`_power_mean`),
    and it adds no live entries and sums 0. One-row blocks skip that test.
    A row whose largest term T = c (max f - beta)_+ + eps has a g*-th power
    outside [2^-900, 2^900], where a power of the terms or of M would over-
    or underflow, has its terms divided by T before any power (one row max
    per block, taken where eps and the block's largest term allow it, and
    never at g* = 1), as
    `dro_core._bisect_margin` does: with s = terms / T in [0, 1] and
    S = (mean s^{g*})^{1/g*} >= n^{-1/g*}, M = T S and the weights are
    S^{1-g*}/n s^{g*-1} c 1[f > beta]. Every other row keeps scale 1, and
    with it the bits of the unscaled formula. The g*-th power is formed as
    the (g* - 1)-th times the base, so the kernel takes one non-integer
    power per element."""
    rows, n = f_neg.shape
    beta = _column(beta, rows, "beta")
    m, index, value = [], [], []
    sums = np.zeros(rows) if weights == "sum" else None
    x = low = truncated = None  # the scratch blocks and the truncated rows' M
    for block in row_blocks(rows, n, CACHE_BLOCK):
        f, b = f_neg[block], beta[block] if beta.ndim else beta
        # fully truncated: every row's max f - beta is at most 0; it is nan,
        # and the block live, where a score is nan or f = beta = +-inf makes
        # a term nan
        if len(f) > 1 and (f.max(axis=1, keepdims=True) - b <= 0.0).all():
            if truncated is None:
                truncated = _power_mean(np.full((1, n), float(eps)), gamma_star, eps)[1][0]
            m.append(np.full(len(f), truncated))
            continue
        x = np.subtract(f, b, out=None if x is None else x[:len(f)])
        np.maximum(x, 0.0, out=x)
        x *= c
        x += eps
        low = None if low is None else low[:len(f)]
        mean, block_m, low = _power_mean(x, gamma_star, eps, low)  # mean = M / scale
        m.append(block_m)
        if weights is None:
            continue
        mb = mean[:, None]
        low *= np.power(mb, 1.0 - gamma_star, where=(mb > 0.0) | (gamma_star == 1.0),
                        out=np.zeros_like(mb)) / n
        low *= c
        low *= np.greater(f, b, out=x)
        if weights == "sum":
            np.add.reduce(low, 1, out=sums[block])
        else:
            # nonzero on the != 0 mask, not on the floats: 31 against 190 us
            # per 32 x 1000 block at 26% live. Array methods, not np.flatnonzero
            # or np.take: the verify suites' calls of a few terms are bound by
            # call overhead
            hit = (low != 0.0).ravel().nonzero()[0]
            value.append(low.ravel()[hit])
            if block.start:
                hit += block.start * n
            index.append(hit)
    del x, low  # the scratch blocks, before the live entries are joined
    m = _joined(m)  # no rows, or several blocks
    if weights == "live":
        index = _joined(index, np.intp)  # its parts go before the values are joined
        return m, LiveEntries(index, _joined(value), (rows, n))
    return m, sums


def drrl_loss(f_pos, f_neg, gamma_star, c, eps, beta):
    """Robust Renyi loss with per-row margins `beta` (scalar or (B,)):
    -mean(f+) + (mean [c (f- - beta)_+ + eps]^{g*})^{1/g*}."""
    _check_scores(f_pos, f_neg)
    if gamma_star < 1 or c <= 0 or eps < 0:
        raise ValueError("need gamma_star >= 1, c > 0, eps >= 0")
    m, d_neg = _drrl_negative_weights(f_neg, gamma_star, c, eps, beta)
    value = -f_pos.sum(axis=1) / f_pos.shape[1] + m
    return value, np.full(f_pos.shape, -1.0 / f_pos.shape[1]), d_neg


def drrl_beta_objective(neg_scores, gamma_star, c, eps, beta):
    """One user's margin objective beta + M(beta); convex in beta."""
    f_neg = np.asarray(neg_scores, dtype=float)[None, :]
    m, _ = _drrl_negative_weights(f_neg, gamma_star, c, eps, beta, weights=None)
    return float(beta + m[0])


def drrl_beta_gradient(f_neg, gamma_star, c, eps, beta):
    """d/d beta of each row's margin objective, (B,):
    1 - (M^{1-g*}/n) sum [c (f-beta)_+ + eps]^{g*-1} c 1[f > beta];
    a fully truncated row (M = 0) has gradient 1. No (B, n) array is formed."""
    _, sums = _drrl_negative_weights(f_neg, gamma_star, c, eps, beta, weights="sum")
    return 1.0 - sums


def beta_step(state: MarginState, grad, lr_beta) -> MarginState:
    """SGD descent step on the margins: `grad` holds one gradient per user
    (zero leaves a user untouched)."""
    if lr_beta <= 0:
        raise ValueError("lr_beta must be positive")
    state.beta -= lr_beta * grad
    return state


def worst_case_weights(f_neg, spec: LossSpec, beta=None):
    """Worst-case weights (B, n) of each row's negative scores under an SL,
    CCL or DrRL spec, read off its kernel as n d_neg (n tau d_neg for SL);
    `beta` is CCL's or DrRL's margin, a scalar or one value per row. DrRL's
    are taken at eps = 0, the Renyi ball's own distribution:
    w_j = c (f_j - beta)_+^{1/(g-1)} / (mean (f - beta)_+^{g*})^{1/g}, a
    mean-one density at the optimal margin. SL's are the mean-one
    exponential weights exp(f_j/tau) / mean_k exp(f_k/tau). A score of
    -inf weighs exactly 0 under all three. A margin of -inf, the resolved
    margin at radius 0 for every row, weighs each finite score 1: the worst
    case is the uniform P itself.
    """
    if spec.kind in ("ccl", "drrl") and beta is None:
        raise ValueError(f"{spec.kind} worst-case weights need the rows' margin beta, got None")
    if spec.kind != "sl" and np.all(np.asarray(beta) == -np.inf):
        return np.isfinite(f_neg).astype(float)
    positive = np.zeros((len(f_neg), 1))  # d_neg does not depend on it
    n = f_neg.shape[1]
    if spec.kind == "sl":
        # float32 / tau stays float32; CCL and DrRL form their terms in float64
        return n * spec.tau * softmax_loss(positive, f_neg.astype(float, copy=False), spec.tau)[2]
    if spec.kind == "ccl":
        d_neg = ccl_loss(positive, f_neg, spec.alpha, beta)[2]
    elif spec.kind == "drrl":
        d_neg = drrl_loss(positive, f_neg, spec.gamma_star, spec.c, 0.0, beta)[2]
    else:
        raise ValueError(f"no worst-case weight notion for loss {spec.kind!r}; "
                         f"worst-case weights exist for {WORST_CASE_KINDS}")
    d_neg.value *= n
    return dense(d_neg)


def batch_loss(f_pos, f_neg, spec: LossSpec, beta=None):
    """Mean loss over a batch of B rows: positive scores f_pos (B, P),
    negative scores f_neg (B, n) and, for DrRL, each row's margin beta (B,).

    Returns the scalar batch loss and the gradients d_pos (B, P) and
    d_neg of that mean, d_neg in its kernel's form: `LiveEntries` for CCL
    and DrRL, whose truncated negatives weigh exactly 0, and a (B, n) array
    for the others.
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
    d_pos /= len(f_pos)
    live = d_neg.value if isinstance(d_neg, LiveEntries) else d_neg
    live /= len(f_pos)
    return float(np.mean(value)), d_pos, d_neg
