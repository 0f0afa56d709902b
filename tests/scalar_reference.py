"""Scalar references for the vectorized training path: cosine scores and
their Jacobians for one (user, item) pair, and a loss-and-gradients pass
that loops over pairs and negatives one at a time."""

import numpy as np

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
