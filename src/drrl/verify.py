"""Numerical certification suites: duality gaps, multiplier certificates,
degeneracies, gradient checks, convexity, and worst-case weight laws.

Each suite runs at its own fixed tolerance and instance set, drawn from its
`seed`; the oracle-backed `duality`, `lambda`, `kl-limit` and `weights`
also take `count`, and run the first `count` instances of that set. Each
returns a list of check dicts, built by `_check` as {name, passed,
...detail, tolerance}, where "tolerance" records the bound the check was
held to; the duality suites add a tolerance-free record for each instance
over it. Every gradient check compares against one central difference
(`_fd_error`) by one relative error. `SUITES` names the nine suites; the CLI
turns them into a JSON report and a nonzero exit on any failure.
"""

from __future__ import annotations

import numpy as np

from . import dro_core as dc
from . import losses as L
from .dataio import BatchSample
from .graphmodel import BackboneConfig, EmbeddingTable, InteractionGraph, infonce_auxiliary
from .trainer import loss_and_gradients


def _fd_error(value_of, x, analytic):
    """Relative error of an analytic gradient against the central difference
    (step 1e-5) of `value_of` at `x`, scaled by the difference's largest
    entry."""
    h = 1e-5
    x = np.asarray(x, dtype=float)
    fd = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        fd[i] = (value_of(x + e) - value_of(x - e)) / (2 * h)
    return float(np.max(np.abs(analytic - fd)) / max(np.max(np.abs(fd)), 1e-8))


def _check(name, passed, tol, **detail):
    """One summary check record: name, passed, the detail fields in order,
    then the tolerance it was held to."""
    return {"name": name, "passed": bool(passed), **detail, "tolerance": tol}


def _random_instances(rng, count):
    """`count` (instance, gamma) pairs: 4 to 10 scores uniform on [-1, 1],
    gamma from {1.5, 2, 3} and eta from {0.01, 0.1, 0.5}."""
    out = []
    for _ in range(count):
        n = int(rng.integers(4, 11))
        scores = rng.uniform(-1.0, 1.0, n)
        gamma = float(rng.choice((1.5, 2.0, 3.0)))
        eta = float(rng.choice((0.01, 0.1, 0.5)))
        out.append((dc.DroInstance(scores, eta), gamma))
    return out


def _preset_instances(rng, count):
    """`count` (instance, gamma) pairs where the DrRL presets train: 4 to 64
    scores uniform on [-1, 1], and (gamma, eta) from gamma in {1.08, 1.09,
    1.16, 1.2, 1.27} by eta in {0.01, 0.1, 0.5, 1.59}, or (2.5, 14.6), the
    radius of the two c > 1 presets."""
    pairs = [(g, e) for g in (1.08, 1.09, 1.16, 1.2, 1.27) for e in (0.01, 0.1, 0.5, 1.59)]
    pairs.append((2.5, 14.6))
    out = []
    for _ in range(count):
        n = int(rng.integers(4, 65))
        gamma, eta = pairs[int(rng.integers(len(pairs)))]
        out.append((dc.DroInstance(rng.uniform(-1.0, 1.0, n), eta), gamma))
    return out


def _duality_checks(name, instances, tol):
    """Brute-force inner max vs. the margin-form dual minimum on each
    (instance, gamma): one failing check per instance over `tol`, then the
    summary check."""
    checks = []
    worst = 0.0
    for idx, (inst, gamma) in enumerate(instances):
        cert = dc.solve_beta(inst, gamma)
        worst = max(worst, cert.gap)
        if cert.gap > tol:
            checks.append(
                {"name": f"{name}[{idx}]", "passed": False, "gap": cert.gap,
                 "gamma": gamma, "eta": inst.eta, "n": inst.n}
            )
    checks.append(_check(name, worst <= tol, tol, instances=len(instances), worst_gap=worst))
    return checks


def suite_duality(seed=0, count=200):
    """Brute-force inner max vs. the margin-form dual minimum."""
    return _duality_checks("duality", _random_instances(np.random.default_rng(seed), count), 1e-3)


def suite_preset_range(seed=0):
    """`suite_duality` at the presets' divergence orders and radii, up to 64
    negatives: 200 instances."""
    return _duality_checks("preset-range", _preset_instances(np.random.default_rng(seed), 200),
                           1e-3)


def suite_lambda(seed=0, count=200):
    """The two-multiplier dual at (lambda*, rho* = beta* + lambda*/(g-1))
    must reproduce the margin solver's minimum. Runs the margin solver as
    `solve_beta` does, without its brute-force primal."""
    tol = 1e-6
    rng = np.random.default_rng(seed)
    worst = 0.0
    for inst, gamma in _random_instances(rng, count):
        beta_star, dual_value = dc.minimize_beta_objective(
            inst.scores, dc.gamma_conjugate(gamma), dc.c_gamma(inst.eta, gamma))
        lam = dc.lambda_star(inst, gamma, beta_star)
        two_mult = dc.dual_lagrangian(inst, gamma, lam, beta_star + lam / (gamma - 1.0))
        worst = max(worst, abs(two_mult - dual_value))
    return [_check("lambda-certificate", worst <= tol, tol, instances=count, worst_gap=worst)]


def suite_ccl_equivalence(seed=0):
    """Worst-case-regret ball vs. the truncated margin dual, with the
    alpha = 1 and alpha = n boundary values exact to 1e-6."""
    count, tol = 100, 1e-3
    rng = np.random.default_rng(seed)
    worst = 0.0
    worst_exact = 0.0
    for _ in range(count):
        n = int(rng.integers(4, 9))
        scores = rng.uniform(-1.0, 1.0, n)
        inst = dc.DroInstance(scores, 0.0)
        boundary = {1.0: scores.mean(), float(n): scores.max()}
        for alpha in (1.0, 2.0, float(n)):
            rep = dc.verify_ccl_ball_equivalence(inst, alpha)
            worst = max(worst, rep["gap"])
            if alpha in boundary:
                worst_exact = max(worst_exact, abs(rep["primal"] - boundary[alpha]),
                                  abs(rep["dual"] - boundary[alpha]))
    return [
        _check("ccl-equivalence", worst <= tol and worst_exact <= 1e-6, tol,
               instances=count, worst_gap=worst, worst_boundary_gap=worst_exact)
    ]


def suite_kl_limit(seed=0, count=50):
    """Cressie-Read values approach the KL value as gamma -> 1, and the gap
    shrinks monotonically over gamma in {1.1, 1.01, 1.001}."""
    tol = 1e-2
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
        monotone = monotone and gaps[0] >= gaps[1] >= gaps[2]
    return [
        _check("kl-limit", worst <= tol and monotone, tol, instances=count,
               **{"worst_gap_at_1.001": worst}, monotone=monotone)
    ]


def suite_degeneracy(seed=0):
    """DrRL with gamma* = 1, eps = 0, c = alpha coincides with CCL."""
    count, tol = 1000, 1e-12
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
        # the array methods: 1000 calls of a few terms are bound by call overhead
        worst = max(
            worst,
            abs(a_value[0] - b_value[0]),
            float(np.abs(L.dense(a_neg) - L.dense(b_neg)).max(initial=0.0)),
            float(np.abs(a_pos - b_pos).max(initial=0.0)),
        )
    return [_check("drrl-ccl-degeneracy", worst <= tol, tol, instances=count, worst_gap=worst)]


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


def _fd_check_loss(builder, n_pos, n_neg, rng, beta):
    pos = rng.uniform(-1, 1, n_pos)
    neg = rng.uniform(-1, 1, n_neg)
    # keep scores at least 1e-3 away from the truncation kink
    neg = np.where(np.abs(neg - beta) < 1e-3, beta + 2e-3, neg)
    _, d_pos, d_neg = builder(pos[None], neg[None])

    def value_of(scores):
        return builder(scores[None, :n_pos], scores[None, n_pos:])[0][0]

    return _fd_error(value_of, np.concatenate([pos, neg]),
                     np.concatenate([d_pos[0], L.dense(d_neg)[0]]))


def _toy_batch(rng, n_users=4, n_items=4, n_neg=2):
    users = rng.integers(0, n_users, size=3)
    pos = rng.integers(0, n_items, size=3)
    negs = rng.integers(0, n_items, size=(3, n_neg))
    return BatchSample(
        np.stack([users, pos], axis=1).astype(np.int64),
        negs.astype(np.int64),
        np.zeros((3, n_neg), dtype=bool),
    )


def _fd_check_chain(cfg, spec, rng):
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
    return _fd_error(value_of, flat, np.concatenate([gu.ravel(), gi.ravel()]))


def suite_gradients(seed=0):
    """Finite-difference certification of every analytic gradient."""
    tol = 1e-4
    rng = np.random.default_rng(seed)
    checks = []

    closures, beta = _loss_closures(rng)
    worst_scores = 0.0
    for name, builder in closures:
        for _ in range(5):
            err = _fd_check_loss(builder, int(rng.integers(1, 4)), int(rng.integers(2, 10)), rng, beta)
            worst_scores = max(worst_scores, err)
    checks.append(_check("score-gradients", worst_scores <= tol, tol, worst_rel_error=worst_scores))

    worst_beta = 0.0
    for _ in range(20):
        neg = rng.uniform(-1, 1, int(rng.integers(3, 12)))
        beta0 = float(rng.uniform(-1, 1))
        if np.min(np.abs(neg - beta0)) < 1e-3:
            continue
        gstar = float(rng.uniform(1.2, 3.0))
        c = float(rng.uniform(0.5, 2.0))
        eps = float(rng.choice([0.0, 1e-3]))
        err = _fd_error(lambda b: L.drrl_beta_objective(neg, gstar, c, eps, b[0]),
                        np.array([beta0]), L.drrl_beta_gradient(neg[None], gstar, c, eps, beta0))
        worst_beta = max(worst_beta, err)
    checks.append(_check("margin-gradient", worst_beta <= 1e-4, 1e-4, worst_rel_error=worst_beta))

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
            worst_chain = max(worst_chain, _fd_check_chain(cfg, spec, rng))
    checks.append(_check("full-chain-gradients", worst_chain <= tol, tol,
                         worst_rel_error=worst_chain))

    z1 = rng.normal(size=(5, 3))
    z2 = rng.normal(size=(5, 3))
    _, d1, d2 = infonce_auxiliary(z1, z2, 0.2, 0.5)

    def nce_value(flat):
        a = flat[:15].reshape(5, 3)
        b = flat[15:].reshape(5, 3)
        return infonce_auxiliary(a, b, 0.2, 0.5)[0]

    worst_nce = _fd_error(nce_value, np.concatenate([z1.ravel(), z2.ravel()]),
                          np.concatenate([d1.ravel(), d2.ravel()]))
    checks.append(_check("infonce-gradients", worst_nce <= tol, tol, worst_rel_error=worst_nce))
    return checks


def suite_convexity(seed=0):
    """Midpoint convexity of the margin objective."""
    count, tol = 1000, 1e-10
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
    return [_check("margin-convexity", worst <= tol, tol, instances=count, worst_violation=worst)]


def suite_weights(seed=0, count=200):
    """Worst-case weights at beta* (n times the DrRL kernel's negative-score
    gradient) are a mean-one density whose expectation of the scores
    reproduces the brute-force primal value to 1e-3; SL weights (n tau times
    the softmax kernel's) are mean-one to 1e-12 by construction."""
    tol = 1e-3
    rng = np.random.default_rng(seed)
    worst_mass = 0.0
    worst_val = 0.0
    for inst, gamma in _random_instances(rng, count):
        cert = dc.solve_beta(inst, gamma)
        spec = L.LossSpec(gamma_star=gamma / (gamma - 1.0), c=dc.c_gamma(inst.eta, gamma))
        w = L.worst_case_weights(inst.scores[None], spec, cert.beta_star)[0]
        if not w.any():  # every score truncated
            continue
        q = w / inst.n
        worst_mass = max(worst_mass, abs(q.sum() - 1.0))
        worst_val = max(worst_val, abs(float(q @ inst.scores) - cert.primal_value))
    worst_sl = 0.0
    sl = L.LossSpec(kind="sl", tau=0.2)
    for _ in range(50):
        w = L.worst_case_weights(rng.uniform(-1, 1, (1, int(rng.integers(2, 20)))), sl)
        worst_sl = max(worst_sl, abs(w.mean() - 1.0))
    return [
        _check("weight-normalization", worst_mass <= tol and worst_val <= tol, tol,
               worst_mass_gap=worst_mass, worst_value_gap=worst_val),
        _check("sl-weights-mean-one", worst_sl <= 1e-12, 1e-12, worst_gap=worst_sl),
    ]


SUITES = {
    "duality": suite_duality,
    "lambda": suite_lambda,
    "ccl": suite_ccl_equivalence,
    "kl-limit": suite_kl_limit,
    "degeneracy": suite_degeneracy,
    "gradients": suite_gradients,
    "convexity": suite_convexity,
    "weights": suite_weights,
    "preset-range": suite_preset_range,
}


def run_suites(names=None, seed=0):
    """Run the selected suites (default all) from `seed`, each at its own
    fixed tolerance and instance set; returns {"passed": bool, "checks":
    [...]}. A suite name outside SUITES, or a negative seed, raises
    ValueError before any runs.
    """
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    names = list(names) if names else list(SUITES)
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; choose from {tuple(SUITES)}")
    checks = []
    for name in names:
        checks.extend(SUITES[name](seed=seed))
    return {"passed": all(c["passed"] for c in checks), "checks": checks}
