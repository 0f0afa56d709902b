"""Numerical certification suites: duality gaps, multiplier certificates,
degeneracies, gradient checks, convexity, and worst-case weight laws.

Each suite returns a list of check dicts {name, passed, ...detail}; the CLI
turns them into a JSON report and a nonzero exit on any failure.
"""

from __future__ import annotations

import numpy as np

from . import dro_core as dc
from . import losses as L
from .dataio import BatchSample
from .graphmodel import BackboneConfig, EmbeddingTable, InteractionGraph, infonce_auxiliary
from .trainer import loss_and_gradients

SUITES = (
    "duality",
    "lambda",
    "ccl",
    "kl-limit",
    "degeneracy",
    "gradients",
    "convexity",
    "weights",
)


def central_difference(fn, x, h=1e-5):
    """Central finite-difference gradient of a scalar function of a vector."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        grad[i] = (fn(x + e) - fn(x - e)) / (2 * h)
    return grad


def relative_error(got, want):
    scale = max(np.max(np.abs(want)), 1e-8)
    return float(np.max(np.abs(got - want)) / scale)


def _random_instances(rng, count, n_range=(4, 10), etas=(0.01, 0.1, 0.5), gammas=(1.5, 2.0, 3.0)):
    out = []
    for _ in range(count):
        n = int(rng.integers(n_range[0], n_range[1] + 1))
        scores = rng.uniform(-1.0, 1.0, n)
        gamma = float(rng.choice(gammas))
        eta = float(rng.choice(etas))
        out.append((dc.DroInstance(scores, eta), gamma))
    return out


def suite_duality(seed=0, count=200, tol=1e-3, n_range=(4, 10), etas=(0.01, 0.1, 0.5),
                  gammas=(1.5, 2.0, 3.0)):
    """Brute-force inner max vs. the margin-form dual minimum."""
    rng = np.random.default_rng(seed)
    checks = []
    worst = 0.0
    instances = _random_instances(rng, count, n_range, etas, gammas)
    for idx, (inst, gamma) in enumerate(instances):
        cert = dc.solve_beta(inst, gamma)
        worst = max(worst, cert.gap)
        if cert.gap > tol:
            checks.append(
                {"name": f"duality[{idx}]", "passed": False, "gap": cert.gap,
                 "gamma": gamma, "eta": inst.eta, "n": inst.n}
            )
    checks.append(
        {"name": "duality", "passed": worst <= tol, "instances": count,
         "worst_gap": worst, "tolerance": tol}
    )
    return checks


def suite_lambda(seed=0, count=200, tol=1e-6, n_range=(4, 10), etas=(0.01, 0.1, 0.5),
                 gammas=(1.5, 2.0, 3.0)):
    """The two-multiplier dual at (lambda*, rho* = beta* + lambda*/(g-1))
    must reproduce the golden-section minimum."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for inst, gamma in _random_instances(rng, count, n_range, etas, gammas):
        cert = dc.solve_beta(inst, gamma)
        rho = cert.beta_star + cert.lambda_star / (gamma - 1.0)
        two_mult = dc.dual_lagrangian(inst, gamma, cert.lambda_star, rho)
        worst = max(worst, abs(two_mult - cert.dual_value))
    return [
        {"name": "lambda-certificate", "passed": worst <= tol, "instances": count,
         "worst_gap": worst, "tolerance": tol}
    ]


def suite_ccl_equivalence(seed=0, count=100, tol=1e-3, exact_tol=1e-6):
    """Worst-case-regret ball vs. the truncated margin dual."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    worst_exact = 0.0
    for _ in range(count):
        n = int(rng.integers(4, 9))
        scores = rng.uniform(-1.0, 1.0, n)
        inst = dc.DroInstance(scores, 0.0)
        for alpha in (1.0, 2.0, float(n)):
            rep = dc.verify_ccl_ball_equivalence(inst, alpha)
            worst = max(worst, rep["gap"])
            if alpha == 1.0:
                worst_exact = max(worst_exact, abs(rep["primal"] - scores.mean()),
                                  abs(rep["dual"] - scores.mean()))
            if alpha == float(n):
                worst_exact = max(worst_exact, abs(rep["primal"] - scores.max()),
                                  abs(rep["dual"] - scores.max()))
    return [
        {"name": "ccl-equivalence", "passed": worst <= tol and worst_exact <= exact_tol,
         "instances": count, "worst_gap": worst, "worst_boundary_gap": worst_exact,
         "tolerance": tol}
    ]


def suite_kl_limit(seed=0, count=50, tol=1e-2):
    """Cressie-Read values approach the KL value as gamma -> 1, and the gap
    shrinks monotonically over gamma in {1.1, 1.01, 1.001}."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    monotone = True
    for _ in range(count):
        n = int(rng.integers(4, 9))
        scores = rng.uniform(-1.0, 1.0, n)
        inst = dc.DroInstance(scores, 0.1)
        kl = dc.inner_max_bruteforce(inst, dc.DivergenceKind.kl())
        gaps = []
        for gamma in (1.1, 1.01, 1.001):
            cr = dc.inner_max_bruteforce(inst, dc.DivergenceKind.cressie_read(gamma))
            gaps.append(abs(cr.value - kl.value) / max(abs(kl.value), 1e-12))
        worst = max(worst, gaps[-1])
        if not (gaps[0] >= gaps[1] >= gaps[2]):
            monotone = False
    return [
        {"name": "kl-limit", "passed": worst <= tol and monotone, "instances": count,
         "worst_gap_at_1.001": worst, "monotone": monotone, "tolerance": tol}
    ]


def suite_degeneracy(seed=0, count=1000, tol=1e-12):
    """DrRL with gamma* = 1, eps = 0, c = alpha coincides with CCL."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(count):
        n_pos = int(rng.integers(1, 4))
        n_neg = int(rng.integers(1, 16))
        pos = rng.uniform(-1, 1, (1, n_pos))
        neg = rng.uniform(-1, 1, (1, n_neg))
        alpha = float(rng.uniform(0.5, 4.0))
        beta = float(rng.uniform(-1, 1))
        a_value, a_pos, a_neg = L.drrl_loss(pos, neg, gamma_star=1.0, c=alpha, eps=0.0, beta=beta)
        b_value, b_pos, b_neg = L.ccl_loss(pos, neg, alpha, beta)
        worst = max(
            worst,
            abs(a_value[0] - b_value[0]),
            float(np.max(np.abs(a_neg - b_neg), initial=0.0)),
            float(np.max(np.abs(a_pos - b_pos), initial=0.0)),
        )
    return [
        {"name": "drrl-ccl-degeneracy", "passed": worst <= tol, "instances": count,
         "worst_gap": worst, "tolerance": tol}
    ]


def _loss_closures(rng):
    """(name, kernel) pairs for FD checks; kernel(f_pos, f_neg) as in `losses`."""
    beta = float(rng.uniform(-0.4, 0.4))
    return [
        ("mse", L.mse_loss),
        ("bce", L.bce_loss),
        ("bpr", L.bpr_loss),
        ("sl", lambda fp, fn: L.softmax_loss(fp, fn, 0.2)),
        ("ccl", lambda fp, fn: L.ccl_loss(fp, fn, 2.0, beta)),
        ("drrl", lambda fp, fn: L.drrl_loss(fp, fn, 2.0, 1.5, 1e-10, beta)),
        ("drrl-eps", lambda fp, fn: L.drrl_loss(fp, fn, 1.5, 1.0, 0.1, beta)),
    ], beta


def _fd_check_loss(builder, n_pos, n_neg, rng, beta, h=1e-5, kink_gap=1e-3):
    pos = rng.uniform(-1, 1, n_pos)
    neg = rng.uniform(-1, 1, n_neg)
    # keep scores away from the truncation kink
    neg = np.where(np.abs(neg - beta) < kink_gap, beta + 2 * kink_gap, neg)
    _, d_pos, d_neg = builder(pos[None], neg[None])

    def value_of(scores):
        return builder(scores[None, :n_pos], scores[None, n_pos:])[0][0]

    fd = central_difference(value_of, np.concatenate([pos, neg]), h)
    analytic = np.concatenate([d_pos[0], d_neg[0]])
    return relative_error(analytic, fd)


def _toy_batch(rng, n_users=4, n_items=4, n_neg=2):
    users = rng.integers(0, n_users, size=3)
    pos = rng.integers(0, n_items, size=3)
    negs = rng.integers(0, n_items, size=(3, n_neg))
    return BatchSample(
        np.stack([users, pos], axis=1).astype(np.int64),
        negs.astype(np.int64),
        np.zeros((3, n_neg), dtype=bool),
    )


def _fd_check_chain(cfg, spec, rng, h=1e-5):
    n_users = n_items = 4
    d = 3
    table = EmbeddingTable.init_normal(n_users, n_items, d, seed=int(rng.integers(1 << 30)))
    pairs = [(u, i) for u in range(n_users) for i in range(n_items) if (u + i) % 2 == 0]
    graph = InteractionGraph(np.asarray(pairs), n_users, n_items)
    batch = _toy_batch(rng)
    margins = L.MarginState.initialize(n_users, 0.0)
    _, gu, gi = loss_and_gradients(table, graph, cfg, spec, margins, batch)

    def value_of(flat):
        t = EmbeddingTable(
            flat[: n_users * d].reshape(n_users, d).copy(),
            flat[n_users * d:].reshape(n_items, d).copy(),
        )
        v, _, _ = loss_and_gradients(t, graph, cfg, spec, margins, batch)
        return v

    flat = np.concatenate([table.user.ravel(), table.item.ravel()])
    fd = central_difference(value_of, flat, h)
    analytic = np.concatenate([gu.ravel(), gi.ravel()])
    return relative_error(analytic, fd)


def suite_gradients(seed=0, tol=1e-4, h=1e-5):
    """Finite-difference certification of every analytic gradient."""
    rng = np.random.default_rng(seed)
    checks = []

    closures, beta = _loss_closures(rng)
    worst_scores = 0.0
    for name, builder in closures:
        for _ in range(5):
            err = _fd_check_loss(builder, int(rng.integers(1, 4)), int(rng.integers(2, 10)), rng, beta, h)
            worst_scores = max(worst_scores, err)
    checks.append({"name": "score-gradients", "passed": worst_scores <= tol,
                   "worst_rel_error": worst_scores, "tolerance": tol})

    worst_beta = 0.0
    for _ in range(20):
        neg = rng.uniform(-1, 1, int(rng.integers(3, 12)))
        beta0 = float(rng.uniform(-1, 1))
        if np.min(np.abs(neg - beta0)) < 1e-3:
            continue
        gstar = float(rng.uniform(1.2, 3.0))
        c = float(rng.uniform(0.5, 2.0))
        eps = float(rng.choice([0.0, 1e-3]))
        analytic = L.drrl_beta_gradient(neg[None], gstar, c, eps, beta0)[0]
        fd = central_difference(
            lambda b: L.drrl_beta_objective(neg, gstar, c, eps, b[0]), np.array([beta0]), h
        )[0]
        worst_beta = max(worst_beta, abs(analytic - fd) / max(abs(fd), 1e-8))
    checks.append({"name": "margin-gradient", "passed": worst_beta <= 1e-4,
                   "worst_rel_error": worst_beta, "tolerance": 1e-4})

    sl_spec = L.LossSpec(kind="sl", tau=0.2)
    drrl_spec = L.LossSpec(kind="drrl", gamma_star=2.0, c=1.0, eps=1e-3, beta0=0.0)
    worst_chain = 0.0
    backbones = (
        BackboneConfig(kind="mf"),
        BackboneConfig(kind="lightgcn", layers=2),
        BackboneConfig(kind="xsimgcl", layers=2, noise_modulus=0.0),
    )
    for cfg in backbones:
        for spec in (sl_spec, drrl_spec):
            worst_chain = max(worst_chain, _fd_check_chain(cfg, spec, rng, h))
    checks.append({"name": "full-chain-gradients", "passed": worst_chain <= tol,
                   "worst_rel_error": worst_chain, "tolerance": tol})

    worst_nce = 0.0
    z1 = rng.normal(size=(5, 3))
    z2 = rng.normal(size=(5, 3))
    _, d1, d2 = infonce_auxiliary(z1, z2, 0.2, 0.5)

    def nce_value(flat):
        a = flat[:15].reshape(5, 3)
        b = flat[15:].reshape(5, 3)
        return infonce_auxiliary(a, b, 0.2, 0.5)[0]

    fd = central_difference(nce_value, np.concatenate([z1.ravel(), z2.ravel()]), h)
    worst_nce = relative_error(np.concatenate([d1.ravel(), d2.ravel()]), fd)
    checks.append({"name": "infonce-gradients", "passed": worst_nce <= tol,
                   "worst_rel_error": worst_nce, "tolerance": tol})
    return checks


def suite_convexity(seed=0, count=1000, tol=1e-10):
    """Midpoint convexity of the margin objective."""
    rng = np.random.default_rng(seed)
    worst = -np.inf
    for _ in range(count):
        neg = rng.uniform(-1, 1, int(rng.integers(3, 12)))
        gstar = float(rng.uniform(1.0, 4.0))
        c = float(rng.uniform(0.5, 3.0))
        eps = float(rng.choice([0.0, 1e-2]))
        a, b = rng.uniform(-2, 2, 2)
        ha = L.drrl_beta_objective(neg, gstar, c, eps, a)
        hb = L.drrl_beta_objective(neg, gstar, c, eps, b)
        hm = L.drrl_beta_objective(neg, gstar, c, eps, 0.5 * (a + b))
        worst = max(worst, hm - 0.5 * (ha + hb))
    return [
        {"name": "margin-convexity", "passed": worst <= tol, "instances": count,
         "worst_violation": worst, "tolerance": tol}
    ]


def suite_weights(seed=0, count=200, tol=1e-3, sl_tol=1e-12):
    """Worst-case weights at beta* are a mean-one density whose
    expectation of the scores reproduces the primal value; SL weights are
    mean-one by construction."""
    rng = np.random.default_rng(seed)
    worst_mass = 0.0
    worst_val = 0.0
    for inst, gamma in _random_instances(rng, count):
        cert = dc.solve_beta(inst, gamma, tol=1e-8)
        c = dc.c_gamma(inst.eta, gamma)
        w, degenerate = L.drrl_worst_case_weights(inst.scores, gamma, c, cert.beta_star)
        if degenerate:
            continue
        q = w / inst.n
        worst_mass = max(worst_mass, abs(q.sum() - 1.0))
        worst_val = max(worst_val, abs(float(q @ inst.scores) - cert.primal_value))
    worst_sl = 0.0
    for _ in range(50):
        w = L.sl_worst_case_weights(rng.uniform(-1, 1, int(rng.integers(2, 20))), 0.2)
        worst_sl = max(worst_sl, abs(w.mean() - 1.0))
    return [
        {"name": "weight-normalization", "passed": worst_mass <= tol and worst_val <= tol,
         "worst_mass_gap": worst_mass, "worst_value_gap": worst_val, "tolerance": tol},
        {"name": "sl-weights-mean-one", "passed": worst_sl <= sl_tol,
         "worst_gap": worst_sl, "tolerance": sl_tol},
    ]


def run_suites(names=None, seed=0, tolerances=None, instance_options=None):
    """Run the selected suites; returns {"passed": bool, "checks": [...]}.

    `instance_options` (n_range / etas / gammas) constrain the random
    instance set of the duality and lambda suites.
    """
    names = list(names) if names else list(SUITES)
    tolerances = tolerances or {}
    runners = {
        "duality": suite_duality,
        "lambda": suite_lambda,
        "ccl": suite_ccl_equivalence,
        "kl-limit": suite_kl_limit,
        "degeneracy": suite_degeneracy,
        "gradients": suite_gradients,
        "convexity": suite_convexity,
        "weights": suite_weights,
    }
    checks = []
    for name in names:
        if name not in runners:
            raise ValueError(f"unknown suite {name!r}; choose from {SUITES}")
        kwargs = {"seed": seed}
        if name in tolerances:
            kwargs["tol"] = tolerances[name]
        if instance_options and name in ("duality", "lambda"):
            kwargs.update(instance_options)
        checks.extend(runners[name](**kwargs))
    for check in checks:
        check["passed"] = bool(check["passed"])  # numpy bools do not serialize to JSON
    return {"passed": all(c["passed"] for c in checks), "checks": checks}
