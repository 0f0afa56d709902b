"""Scalar references for the vectorized code: the backbone forward that
keeps every layer, the dense InfoNCE kernel that forms its cosine,
gradient and weighted-cosine (n x n) arrays one by one, cosine scores and
their Jacobians for one (user, item) pair, the closed-form worst-case
weights, the whole-array DrRL kernel with a fresh array per pass and the
whole-array CCL weights,
checkpoint diagnostics with one kernel call per user, a
loss-and-gradients pass that loops over pairs and negatives one at a time,
the earlier projected-ascent inner maximization (simplex projection,
bisection boundary search and SLSQP polish, all kept here) with one start
and one bisection step at a time, the margin solver's bisection on the
unscaled kernel gradient, the negative sampler with a sorted-key membership
test and per-user set unions for its held-out pools, and Adam with a fresh
array per intermediate."""

import math

import numpy as np
from scipy.optimize import minimize

from drrl import dataio
from drrl import dro_core as dc
from drrl import losses as L
from drrl.diagnostics import RECORD
from drrl.graphmodel import ForwardOutput, backward, forward


def _sign_aligned_noise(layer, modulus, rng):
    """XSimGCL's perturbation of one propagated layer: sign(e) * x / |x| *
    modulus for a uniform [0, 1)^d row x. The row norms are summed in
    einsum's order, the forward's, so the two match bit for bit."""
    x = rng.random(layer.shape)
    norm = np.sqrt(np.einsum("ij,ij->i", x, x)).reshape(-1, 1)
    return np.sign(layer) * x * (modulus / norm)


def stacked_forward(table, graph, cfg, rng=None):
    """Graph-backbone forward that keeps every layer and averages the stack."""
    u_layers, i_layers = [table.user], [table.item]
    for _ in range(cfg.layers):
        u_next, i_next = graph.propagate(u_layers[-1], i_layers[-1])
        if cfg.kind == "xsimgcl" and cfg.noise_modulus > 0:
            u_next = u_next + _sign_aligned_noise(u_next, cfg.noise_modulus, rng)
            i_next = i_next + _sign_aligned_noise(i_next, cfg.noise_modulus, rng)
        u_layers.append(u_next)
        i_layers.append(i_next)
    out = ForwardOutput(np.mean(u_layers, axis=0), np.mean(i_layers, axis=0))
    if cfg.kind == "xsimgcl":
        out.contrast_user = u_layers[cfg.contrast_layer]
        out.contrast_item = i_layers[cfg.contrast_layer]
    return out


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
    # p_ii - 1 is minus the row's off-diagonal mass, summed as such: on a row
    # whose softmax is one-hot to rounding, p_ii - 1 itself rounds to 0
    off = g_cos.copy()
    off[diag] = 0.0
    g_cos[diag] = -off.sum(axis=1)
    g_cos *= weight
    g_cos /= n * temperature
    weighted = g_cos * cos
    row = weighted.sum(axis=1, keepdims=True)
    col = weighted.sum(axis=0)[:, None]
    d_final = (g_cos @ lhat - row * fhat) / nf
    d_lstar = (g_cos.T @ fhat - col * lhat) / nl
    return weight * loss, d_final, d_lstar


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


def drrl_negative_term(f_neg, gamma_star, c, eps, beta):
    """Whole-array reference of the DrRL kernel's M: per-row
    M = (mean [c (f - beta)_+ + eps]^{g*})^{1/g*} as a (B, 1) column, with
    the (B, n) terms [c (f - beta)_+ + eps]^{g*-1}; `beta` is a scalar or a
    (B, 1) column. The g*-th power is formed as the (g* - 1)-th times the
    base, so the kernel takes one non-integer power per element."""
    inner = c * np.maximum(f_neg - beta, 0.0) + eps
    lowered = inner ** (gamma_star - 1.0)
    m = ((lowered * inner).sum(axis=1, keepdims=True) / f_neg.shape[1]) ** (1.0 / gamma_star)
    return m, lowered


def drrl_negative_weights(f_neg, gamma_star, c, eps, beta):
    """Whole-array reference of the blocked DrRL kernel, one fresh (B, n)
    array per pass: M per row and
    dM/df (B, n) = M^{1-g*}/n [c (f-beta)_+ + eps]^{g*-1} c 1[f > beta];
    a fully truncated row with eps = 0 (M = 0) takes its one-sided limit 0.
    At g* = 1 the factor M^0 is 1, also where M underflows to 0."""
    m, lowered = drrl_negative_term(f_neg, gamma_star, c, eps, beta)
    scale = np.power(m, 1.0 - gamma_star, where=(m > 0.0) | (gamma_star == 1.0),
                     out=np.zeros_like(m)) / f_neg.shape[1]
    return m[:, 0], scale * lowered * c * (f_neg > beta)


def ccl_negative_weights(f_neg, alpha, margin):
    """Whole-array CCL score weights (B, n): alpha / n above the margin (a
    scalar or a (B, 1) column), 0 at or below it and at a nan score."""
    return np.where(f_neg > margin, alpha / f_neg.shape[1], 0.0)


def user_diagnostics(score_matrix, split, spec, margins=None, resolve_margin=False,
                     noise_pool="heldout"):
    """Per-user reference of `diagnostics.user_diagnostics`: each user's
    candidate scores go through their own (1, n) kernel call, and k1, k2
    and truncation are taken from that one row, nan where the user has
    none."""
    num_items = score_matrix.shape[1]
    positive = np.zeros((1, 1))
    rows = []
    for user in range(score_matrix.shape[0]):
        train = set(split.train[user])
        if noise_pool == "train":
            candidates = np.arange(num_items)
            flagged = np.isin(candidates, list(train))
        else:
            candidates = np.array([i for i in range(num_items) if i not in train], dtype=int)
            flagged = np.isin(candidates, list(split.validation[user] | split.test[user]))
        if candidates.size == 0:
            continue
        f = np.asarray(score_matrix[user:user + 1], dtype=float)[0, candidates]
        beta = math.nan
        if spec.kind != "sl":
            if resolve_margin and spec.kind == "ccl":
                # the (floor(n / alpha) + 1)-th largest score, -inf past the
                # last, one float below the largest if it is that
                rank = int(f.size // spec.alpha)
                ranked = np.sort(f)[::-1]
                beta = -math.inf if rank >= f.size else float(ranked[rank])
                if beta == ranked[0]:
                    beta = float(np.nextafter(beta, -math.inf))
            elif resolve_margin:
                # at eps = 0, the objective whose optimum the weights are taken at
                beta, _ = dc.minimize_beta_objective(f, spec.gamma_star, spec.c)
            elif margins is not None:
                beta = float(margins.beta[user])
            else:
                beta = spec.margin if spec.kind == "ccl" else spec.beta0
        if spec.kind == "sl":
            _, _, d_neg = L.softmax_loss(positive, f[None], spec.tau)
        elif spec.kind == "ccl":
            _, _, d_neg = L.ccl_loss(positive, f[None], spec.alpha, beta)
        else:
            _, _, d_neg = L.drrl_loss(positive, f[None], spec.gamma_star, spec.c, 0.0, beta)
        w = L.dense(d_neg)[0]
        mean = w.mean()
        degenerate = bool(mean == 0.0)
        k1 = float("nan") if degenerate else float(w.max() / mean)
        k2 = math.nan if degenerate or not flagged.any() else float(w[flagged].mean() / mean)
        truncation = math.nan if spec.kind == "sl" else float(np.mean(f <= beta))
        rows.append((user, k1, k2, truncation, beta, degenerate))
    return np.array(rows, dtype=RECORD).view(np.recarray)


def minimize_beta_objective(neg_scores, gamma_star, c, eps=0.0, tol=1e-8):
    """`dro_core.minimize_beta_objective`'s bisection on one row of finite
    scores, inside the same bracket [min(min f, (c mean f - max f) / (c - 1)),
    max f], on the sign of the training kernel's unscaled
    `losses.drrl_beta_gradient`, and with the same look one float below the
    score nearest the final midpoint. Returns (beta*, objective value)."""
    scores = np.asarray(neg_scores, dtype=float)
    top = float(scores.max())
    lo, hi = min(float(scores.min()), (c * float(scores.mean()) - top) / (c - 1.0)), top
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if L.drrl_beta_gradient(scores[None, :], gamma_star, c, eps, mid)[0] > 0.0:
            hi = mid
        else:
            lo = mid
    mid = 0.5 * (lo + hi)
    nearest = scores[np.abs(scores - mid).argmin()]
    points = [min(mid, float(np.nextafter(top, -np.inf))), float(np.nextafter(nearest, -np.inf))]
    values = [L.drrl_beta_objective(scores, gamma_star, c, eps, b) for b in points]
    best = int(np.argmin(values))
    return points[best], values[best]


def _beta_gradient(neg, spec, beta):
    """One user's margin-objective gradient, written out in scalar form."""
    inner = [spec.c * max(f - beta, 0.0) + spec.eps for f in neg]
    m = (sum(x**spec.gamma_star for x in inner) / len(neg)) ** (1.0 / spec.gamma_star)
    if m == 0.0:
        return 1.0
    s = sum(x ** (spec.gamma_star - 1.0) * spec.c for x, f in zip(inner, neg) if f > beta)
    return 1.0 - m ** (1.0 - spec.gamma_star) / len(neg) * s


def loss_and_gradients(table, graph, backbone_cfg, spec, margins, batch, margin_update=False):
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

    if spec.kind == "drrl" and margin_update:
        grads = {}
        for (u, _, _), neg in zip(pairs, f_neg):
            grads[u] = grads.get(u, 0.0) + _beta_gradient(neg, spec, margins.beta[u])
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
        for item, coeff in [(i, d_pos[0, 0] / n)] + list(zip(negs, L.dense(d_neg)[0] / n)):
            gu, gi = score_gradient(fu[u], fi[item])
            grad_u[u] += coeff * gu
            grad_i[item] += coeff * gi
    grad_user, grad_item = backward(grad_u, grad_i, graph, backbone_cfg)

    if backbone_cfg.kind == "xsimgcl" and backbone_cfg.infonce_weight > 0:
        users = sorted({u for u, _, _ in pairs})
        items = sorted({i for _, i, _ in pairs})
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


def project_simplex(v):
    """Euclidean projection onto the probability simplex, of a vector `(n,)`
    or of each row of an `(m, n)` array."""
    v = np.asarray(v, dtype=float)
    u = np.sort(v, axis=-1)[..., ::-1]
    css = np.cumsum(u, axis=-1) - 1.0
    ind = np.arange(1, v.shape[-1] + 1)
    rho = np.count_nonzero(u - css / ind > 0, axis=-1)[..., None]
    theta = np.take_along_axis(css, rho - 1, axis=-1) / rho
    return np.maximum(v - theta, 0.0)


def _div_grad(q, p, kind):
    q = np.maximum(q, 1e-15)
    ratio = q / p
    if kind.kind == dc.KL:
        return np.log(ratio) + 1.0
    g = kind.gamma
    return (ratio ** (g - 1.0) - 1.0) / (g - 1.0)


def _slsqp_polish(q0, f, p, kind, eta):
    n = f.size
    cons = [
        {"type": "eq", "fun": lambda q: q.sum() - 1.0,
         "jac": lambda q: np.ones(n)},
        {"type": "ineq", "fun": lambda q: eta - dc.divergence(q, p, kind),
         "jac": lambda q: -_div_grad(q, p, kind)},
    ]
    res = minimize(
        lambda q: -f @ q,
        q0,
        jac=lambda q: -f,
        bounds=[(0.0, 1.0)] * n,
        constraints=cons,
        method="SLSQP",
        options={"maxiter": 200, "ftol": 1e-14},
    )
    q = np.maximum(res.x, 0.0)
    s = q.sum()
    if s <= 0:
        return None
    return _feasible_toward(p, q / s, kind, eta)


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
        target = project_simplex(q + step * f)
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
    """The brute-force inner max for the KL and Cressie-Read balls at
    eta > 0 as it was before the barrier method: projected ascent from P and
    Dirichlet starts, one start and one bisection step at a time, then the
    SLSQP polish. Returns (value, q)."""
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
    polished = _slsqp_polish(best_q, f, p, kind, eta)
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


def sample_batch(split, batch_size, n_neg, noise, rng, train_pairs=None):
    """`dataio.sample_batch` testing each draw by a binary search for its
    `user * num_items + item` key among the sorted train keys; same RNG calls,
    redrawing the rows of each `row_blocks` block in turn."""
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
    for block in dataio.row_blocks(len(pairs), num_items):
        flat = negatives[block].reshape(-1)
        base = np.repeat(users[block] * num_items, n_neg)
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
