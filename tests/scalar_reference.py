"""Scalar references for the vectorized code: cosine scores and their
Jacobians for one (user, item) pair, the closed-form worst-case weights, a
loss-and-gradients pass that loops over pairs and negatives one at a time,
the brute-force inner maximization with one start and one bisection step at
a time, the negative sampler with a sorted-key membership test and per-user
set unions for its held-out pools, and Adam with a fresh array per
intermediate."""

import math

import numpy as np

from drrl import dataio
from drrl import dro_core as dc
from drrl import losses as L
from drrl.graphmodel import backward, forward, infonce_auxiliary


def score(e_u, e_i):
    """Cosine similarity between one user and one item vector."""
    e_u = np.asarray(e_u, dtype=float)
    e_i = np.asarray(e_i, dtype=float)
    nu = np.linalg.norm(e_u)
    ni = np.linalg.norm(e_i)
    if nu == 0 or ni == 0:
        raise ValueError("cosine similarity undefined for zero vectors")
    return float(e_u @ e_i / (nu * ni))


def score_gradient(e_u, e_i):
    """Analytic cosine Jacobians: d f / d e_u = (i_hat - f u_hat) / ||e_u||."""
    e_u = np.asarray(e_u, dtype=float)
    e_i = np.asarray(e_i, dtype=float)
    nu = np.linalg.norm(e_u)
    ni = np.linalg.norm(e_i)
    if nu == 0 or ni == 0:
        raise ValueError("cosine similarity undefined for zero vectors")
    u_hat = e_u / nu
    i_hat = e_i / ni
    f = float(u_hat @ i_hat)
    return (i_hat - f * u_hat) / nu, (u_hat - f * i_hat) / ni


def sl_worst_case_weights(neg_scores, tau):
    """Closed-form mean-one exponential weights exp(f_j/tau) / mean_k exp(f_k/tau)."""
    z = np.asarray(neg_scores, dtype=float) / tau
    expz = np.exp(z - z.max())
    return expz / expz.mean()


def drrl_worst_case_weights(neg_scores, gamma, c, beta):
    """Closed-form polynomial worst-case weights
    w_j = c (f_j - beta)_+^{1/(g-1)} / (mean (f - beta)_+^{g*})^{1/g},
    with the flag set when every score is truncated."""
    f = np.asarray(neg_scores, dtype=float)
    gstar = gamma / (gamma - 1.0)
    hinge = np.maximum(f - beta, 0.0)
    denom_power = np.mean(hinge**gstar)
    if denom_power == 0.0:
        return np.zeros(f.size), True
    return c * hinge ** (1.0 / (gamma - 1.0)) / denom_power ** (1.0 / gamma), False


def _beta_gradient(neg, spec, beta):
    """One user's margin-objective gradient, written out in scalar form."""
    inner = [spec.c * max(f - beta, 0.0) + spec.eps for f in neg]
    m = (sum(x**spec.gamma_star for x in inner) / len(neg)) ** (1.0 / spec.gamma_star)
    if m == 0.0:
        return 1.0
    s = sum(x ** (spec.gamma_star - 1.0) * spec.c for x, f in zip(inner, neg) if f > beta)
    return 1.0 - m ** (1.0 - spec.gamma_star) / len(neg) * s


def loss_and_gradients(table, graph, backbone_cfg, spec, margins, batch, margin_update=None):
    """Per-pair reference of `trainer.loss_and_gradients` (no forward noise):
    each pair's loss is one B=1 kernel call, each score's chain rule a
    `score_gradient` call, and XSimGCL's two InfoNCE views run their own
    backward and layer pullback."""
    out = forward(table, graph, backbone_cfg)
    fu, fi = out.final_user, out.final_item
    pairs = [(int(u), int(i), [int(j) for j in negs])
             for (u, i), negs in zip(batch.pairs, batch.negatives)]
    f_pos = [score(fu[u], fi[i]) for u, i, _ in pairs]
    f_neg = [[score(fu[u], fi[j]) for j in negs] for u, _, negs in pairs]

    if spec.kind == "drrl" and margin_update in ("per_user", "shared"):
        grads = {}
        for (u, _, _), neg in zip(pairs, f_neg):
            grads[u] = grads.get(u, 0.0) + _beta_gradient(neg, spec, margins.beta[u])
        if margin_update == "shared":
            margins.beta -= spec.lr_beta * sum(grads.values())
        else:
            for u, g in grads.items():
                margins.beta[u] -= spec.lr_beta * g

    n = len(pairs)
    value = 0.0
    grad_u = np.zeros_like(fu)
    grad_i = np.zeros_like(fi)
    for (u, i, negs), fp, fn in zip(pairs, f_pos, f_neg):
        beta = None if spec.kind != "drrl" else np.array([margins.beta[u]])
        v, d_pos, d_neg = L.batch_loss(np.array([[fp]]), np.array([fn]), spec, beta)
        value += v / n
        for item, coeff in [(i, d_pos[0, 0] / n)] + list(zip(negs, d_neg[0] / n)):
            gu, gi = score_gradient(fu[u], fi[item])
            grad_u[u] += coeff * gu
            grad_i[item] += coeff * gi
    grad_user, grad_item = backward(grad_u, grad_i, graph, backbone_cfg)

    if backbone_cfg.kind == "xsimgcl" and backbone_cfg.infonce_weight > 0:
        users = sorted({u for u, _, _ in pairs})
        items = sorted({j for _, i, negs in pairs for j in [i, *negs]})
        for idx, final, contrast, side in ((users, fu, out.contrast_user, 0),
                                           (items, fi, out.contrast_item, 1)):
            aux, d_final, d_contrast = infonce_auxiliary(
                final[idx], contrast[idx], backbone_cfg.infonce_temperature,
                backbone_cfg.infonce_weight)
            value += aux
            gf = [np.zeros_like(fu), np.zeros_like(fi)]
            gc = [np.zeros_like(fu), np.zeros_like(fi)]
            gf[side][idx] = d_final
            gc[side][idx] = d_contrast
            bu, bi = backward(gf[0], gf[1], graph, backbone_cfg)
            cu, ci = gc
            for _ in range(backbone_cfg.contrast_layer):
                cu, ci = graph.propagate(cu, ci)
            grad_user += bu + cu
            grad_item += bi + ci
    return value, grad_user, grad_item


def _div_fast(q, p, kind):
    """Divergence from uniform P of one vector, without validation."""
    if kind.kind == dc.KL:
        support = q > 0
        return float(np.sum(q[support] * np.log(q[support] * q.size)))
    g = kind.gamma
    t = q * q.size
    return float(np.mean(t**g - g * t + g - 1.0)) / (g * (g - 1.0))


def _feasible_toward(p, q, kind, eta, iters=60):
    """Largest point on the segment P -> Q with divergence <= eta, by bisection."""
    if _div_fast(q, kind=kind, p=p) <= eta:
        return q
    lo, hi = 0.0, 1.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if _div_fast((1 - mid) * p + mid * q, p, kind) <= eta:
            lo = mid
        else:
            hi = mid
    return (1 - lo) * p + lo * q


def _segment_step(q, target, p, kind, eta, iters=50):
    """Largest point on the feasible segment from Q toward `target`."""
    if _div_fast(target, p, kind) <= eta:
        return target
    lo, hi = 0.0, 1.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        cand = (1 - mid) * q + mid * target
        if _div_fast(cand, p, kind) <= eta:
            lo = mid
        else:
            hi = mid
    return (1 - lo) * q + lo * target


def _ascend(q, f, p, kind, eta, max_iters=80):
    """Feasible-direction ascent of f . Q from one start."""
    value = float(f @ q)
    step = 1.0
    for _ in range(max_iters):
        target = dc.project_simplex(q + step * f)
        cand = _segment_step(q, target, p, kind, eta)
        cand_value = float(f @ cand)
        if cand_value > value + 1e-14:
            q, value = cand, cand_value
        else:
            step *= 0.5
            if step < 1e-10:
                break
    return q, value


def inner_max_bruteforce(inst, kind, seed=0, restarts=4, max_iters=40):
    """`dro_core.inner_max_bruteforce` for the KL and Cressie-Read balls at
    eta > 0, one start and one bisection step at a time; the SLSQP polish
    is `dro_core`'s. Returns (value, q)."""
    f, p, n, eta = inst.scores, inst.base, inst.n, inst.eta
    rng = np.random.default_rng(seed)
    starts = [p.copy()]
    for draw in rng.dirichlet(np.ones(n), size=restarts):
        starts.append(_feasible_toward(p, draw, kind, eta))
    if n <= 5:
        pushed = [_feasible_toward(p, draw, kind, eta, iters=30)
                  for draw in rng.dirichlet(np.ones(n), size=500)]
        best = np.argsort([f @ q for q in pushed])[-4:]
        starts.extend(pushed[i] for i in best)

    best_q, best_v = None, -math.inf
    for q0 in starts:
        q, v = _ascend(q0, f, p, kind, eta, max_iters=max_iters)
        if v > best_v:
            best_q, best_v = q, v
    polished = dc._slsqp_polish(best_q, f, p, kind, eta)
    if polished is not None and float(f @ polished) > best_v:
        best_q, best_v = polished, float(f @ polished)
    if dc.divergence(best_q, p, kind) > eta + 1e-6:
        best_q = _feasible_toward(p, best_q, kind, eta)
        best_v = float(f @ best_q)
    return best_v, best_q


def _member(sorted_keys, keys):
    """Elementwise membership of `keys` in the sorted key array."""
    at = np.searchsorted(sorted_keys, keys)
    return sorted_keys[np.minimum(at, len(sorted_keys) - 1)] == keys


def _heldout_pools(split, users):
    """Each row's held-out pool as CSR arrays (starts, sizes, items), from
    the sorted union of each distinct user's validation and test sets."""
    distinct, row_user = np.unique(users, return_inverse=True)
    pools = [sorted(split.heldout(int(u))) for u in distinct]
    sizes = np.array([len(p) for p in pools], dtype=np.int64)
    items = np.fromiter((i for p in pools for i in p), dtype=np.int64, count=sizes.sum())
    return (np.cumsum(sizes) - sizes)[row_user], sizes[row_user], items


def sample_batch(split, batch_size, n_neg, noise=None, rng=None, train_pairs=None):
    """`dataio.sample_batch` testing each draw by a binary search for its
    `user * num_items + item` key among the sorted train keys; same RNG calls."""
    if rng is None:
        rng = np.random.default_rng(0)
    noise = noise or dataio.NoiseConfig()
    if train_pairs is None:
        train_pairs = split.train_pairs()
    num_items = split.num_items
    train_keys = np.sort(train_pairs[:, 0] * num_items + train_pairs[:, 1])
    pairs = train_pairs[rng.integers(0, len(train_pairs), size=batch_size)]
    start = np.searchsorted(train_keys, pairs[:, 0] * num_items)
    degree = np.searchsorted(train_keys, (pairs[:, 0] + 1) * num_items) - start
    full = degree >= num_items
    pairs, start, degree = pairs[~full], start[~full], degree[~full]
    users = pairs[:, 0]

    negatives = rng.integers(0, num_items, size=(len(pairs), n_neg))
    flat = negatives.reshape(-1)
    base = np.repeat(users * num_items, n_neg)
    redraw = np.flatnonzero(_member(train_keys, base + flat))
    while redraw.size:
        flat[redraw] = rng.integers(0, num_items, size=redraw.size)
        redraw = redraw[_member(train_keys, base[redraw] + flat[redraw])]

    flips = np.zeros(negatives.shape, dtype=bool)
    if noise.p > 0 and len(pairs):
        if noise.pool == "train":
            starts, sizes, items = start, degree, train_keys % num_items
        else:
            starts, sizes, items = _heldout_pools(split, users)
        flips = (rng.random(negatives.shape) < noise.p) & (sizes > 0)[:, None]
        rows = np.nonzero(flips)[0]
        negatives[flips] = items[starts[rows] + rng.integers(0, sizes[rows])]
    return dataio.BatchSample(pairs, negatives, flips)


class Adam:
    """`trainer.Adam` computing each moment and the step as new arrays."""

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
