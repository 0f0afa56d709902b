"""Acceptance gate: numerical certificates at pinned tolerances plus
synthetic-scale end-to-end properties. One test per criterion."""

import math
import time

import numpy as np
import pytest

from drrl import dro_core as dc
from drrl import losses as L
from drrl import verify
from drrl.dataio import split_iid
from drrl.diagnostics import aggregate, checkpoint_scores, user_diagnostics
from drrl.graphmodel import BackboneConfig
from drrl.metrics import evaluate_ranking, ndcg_at_k, recall_at_k
from drrl.synthetic import make_block_log, random_ranking_baseline
from drrl.trainer import TrainConfig, train

N_INSTANCES = 200
GAMMAS = (1.5, 2.0, 3.0)
ETAS = (0.01, 0.1, 0.5)

SMOKE_SPECS = {
    "bpr": L.LossSpec(kind="bpr"),
    "sl": L.LossSpec(kind="sl", tau=0.2),
    "ccl": L.LossSpec(kind="ccl", alpha=2.0, margin=0.4),
    "drrl": L.LossSpec(kind="drrl", gamma_star=2.0, c=1.2, eps=0.1,
                       beta0=0.3, lr_beta=1e-3),
}


@pytest.fixture(scope="module")
def certificates():
    """200 random instances solved once; criteria 1, 2 and 8 share them."""
    rng = np.random.default_rng(0)
    solved = []
    start = time.monotonic()
    for _ in range(N_INSTANCES):
        n = int(rng.integers(4, 11))
        inst = dc.DroInstance(rng.uniform(-1.0, 1.0, n), float(rng.choice(ETAS)))
        gamma = float(rng.choice(GAMMAS))
        solved.append((inst, gamma, dc.solve_beta(inst, gamma, tol=1e-8)))
    return solved, time.monotonic() - start


@pytest.fixture(scope="module")
def smoke_runs():
    """MF d=16 runs of each loss on the synthetic block dataset."""
    log = make_block_log(seed=0)
    split = split_iid(log, seed=0)
    backbone = BackboneConfig(kind="mf")
    runs = {}
    for name, spec in SMOKE_SPECS.items():
        cfg = TrainConfig(batch_size=256, n_neg=16, lr=0.05, max_epochs=50,
                          patience=100, embed_dim=16, metric_k=10, seed=0)
        start = time.monotonic()
        table, margins, report = train(split, backbone, spec, cfg)
        runs[name] = (table, margins, report, time.monotonic() - start)
    return log, split, backbone, runs


@pytest.fixture(scope="module")
def noisy_runs():
    """SL and DrRL trained with a 0.25 false-negative rate."""
    log = make_block_log(seed=0)
    split = split_iid(log, seed=0)
    backbone = BackboneConfig(kind="mf")
    specs = {
        "sl": L.LossSpec(kind="sl", tau=0.2),
        "drrl": L.LossSpec(kind="drrl", gamma_star=2.0, c=1.2, eps=0.1,
                           beta0=0.3, lr_beta=1e-2),
    }
    runs = {}
    for name, spec in specs.items():
        cfg = TrainConfig(batch_size=256, n_neg=16, lr=0.05, max_epochs=40,
                          embed_dim=16, metric_k=10, seed=0,
                          noise=0.25, noise_pool="train")
        runs[name] = (spec, *train(split, backbone, spec, cfg))
    return split, backbone, runs


def test_01_duality_gap(certificates):
    solved, elapsed = certificates
    worst = max(cert.gap for _, _, cert in solved)
    assert worst <= 1e-3, f"worst duality gap {worst:.2e}"
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_02_lambda_star_certificate(certificates):
    solved, _ = certificates
    worst = 0.0
    for inst, gamma, cert in solved:
        rho = cert.beta_star + cert.lambda_star / (gamma - 1.0)
        two_mult = dc.dual_lagrangian(inst, gamma, cert.lambda_star, rho)
        worst = max(worst, abs(two_mult - cert.dual_value))
    assert worst <= 1e-6, f"worst two-multiplier gap {worst:.2e}"


def test_03_ccl_equivalence():
    rng = np.random.default_rng(1)
    worst = 0.0
    worst_exact = 0.0
    for _ in range(100):
        n = int(rng.integers(4, 9))
        scores = rng.uniform(-1.0, 1.0, n)
        inst = dc.DroInstance(scores, 0.0)
        for alpha in (1.0, 2.0, float(n)):
            rep = dc.verify_ccl_ball_equivalence(inst, alpha)
            worst = max(worst, rep["gap"])
            if alpha == 1.0:
                worst_exact = max(worst_exact, abs(rep["primal"] - scores.mean()),
                                  abs(rep["dual"] - scores.mean()))
            elif alpha == float(n):
                worst_exact = max(worst_exact, abs(rep["primal"] - scores.max()),
                                  abs(rep["dual"] - scores.max()))
    assert worst <= 1e-3, f"worst ball-vs-dual gap {worst:.2e}"
    assert worst_exact <= 1e-6, f"worst boundary-case gap {worst_exact:.2e}"


def test_04_kl_limit():
    checks = verify.suite_kl_limit(seed=2, count=50)
    (check,) = checks
    assert check["monotone"], "gap did not shrink monotonically toward the KL value"
    assert check["worst_gap_at_1.001"] <= 1e-2, check


def test_05_ccl_degeneracy():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(1000):
        pos = rng.uniform(-1, 1, (1, int(rng.integers(1, 4))))
        neg = rng.uniform(-1, 1, (1, int(rng.integers(1, 16))))
        alpha = float(rng.uniform(0.5, 4.0))
        beta = float(rng.uniform(-1, 1))
        a_value, _, a_neg = L.drrl_loss(pos, neg, 1.0, alpha, 0.0, beta)
        b_value, _, b_neg = L.ccl_loss(pos, neg, alpha, beta)
        worst = max(worst, abs(a_value[0] - b_value[0]),
                    float(np.max(np.abs(a_neg - b_neg), initial=0.0)))
    assert worst <= 1e-12, f"worst degeneracy gap {worst:.2e}"


def test_06_gradient_suite():
    start = time.monotonic()
    checks = verify.suite_gradients(seed=4, tol=1e-4, h=1e-5)
    elapsed = time.monotonic() - start
    failures = [c for c in checks if not c["passed"]]
    assert not failures, failures
    assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_07_margin_convexity():
    rng = np.random.default_rng(5)
    worst = -math.inf
    for _ in range(1000):
        neg = rng.uniform(-1, 1, int(rng.integers(3, 12)))
        gstar = float(rng.uniform(1.0, 4.0))
        c = float(rng.uniform(0.5, 3.0))
        eps = float(rng.choice([0.0, 1e-2]))
        a, b = rng.uniform(-2, 2, 2)
        mid = L.drrl_beta_objective(neg, gstar, c, eps, 0.5 * (a + b))
        chord = 0.5 * (L.drrl_beta_objective(neg, gstar, c, eps, a)
                       + L.drrl_beta_objective(neg, gstar, c, eps, b))
        worst = max(worst, mid - chord)
    assert worst <= 1e-10, f"worst midpoint violation {worst:.2e}"


def test_08_worst_case_normalization(certificates):
    solved, _ = certificates
    worst_mass = 0.0
    worst_val = 0.0
    for inst, gamma, cert in solved:
        c = dc.c_gamma(inst.eta, gamma)
        w, degenerate = L.drrl_worst_case_weights(
            inst.scores, gamma, c, cert.beta_star
        )
        if degenerate:
            continue
        q = w / inst.n
        worst_mass = max(worst_mass, abs(q.sum() - 1.0))
        worst_val = max(worst_val, abs(float(q @ inst.scores) - cert.primal_value))
    assert worst_mass <= 1e-3, f"worst mass defect {worst_mass:.2e}"
    assert worst_val <= 1e-3, f"worst value mismatch {worst_val:.2e}"
    rng = np.random.default_rng(6)
    worst_sl = max(
        abs(L.sl_worst_case_weights(
            rng.uniform(-1, 1, int(rng.integers(2, 20))), 0.2).mean() - 1.0)
        for _ in range(100)
    )
    assert worst_sl <= 1e-12, f"worst exponential-weight mean defect {worst_sl:.2e}"


def test_09_metric_oracle():
    def brute_topk(scores, exclude, k):
        return sorted((i for i in range(len(scores)) if i not in exclude),
                      key=lambda i: (-scores[i], i))[:k]

    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(5, 51))
        k = int(rng.integers(1, 11))
        scores = rng.normal(size=n)
        exclude = set(rng.choice(n, size=int(rng.integers(0, n // 3)),
                                 replace=False).tolist())
        pool = [i for i in range(n) if i not in exclude]
        truth = set(rng.choice(pool, size=int(rng.integers(1, min(6, len(pool)) + 1)),
                               replace=False).tolist())
        top = brute_topk(scores, exclude, k)
        want_recall = sum(1 for i in top if i in truth) / len(truth)
        want_dcg = sum(1 / math.log2(r + 2) for r, i in enumerate(top) if i in truth)
        want_idcg = sum(1 / math.log2(r + 2) for r in range(min(k, len(truth))))
        assert recall_at_k(scores, exclude, truth, k) == want_recall
        assert ndcg_at_k(scores, exclude, truth, k) == pytest.approx(
            want_dcg / want_idcg, abs=1e-12
        )
    assert ndcg_at_k(np.array([0.9, 0.8, 0.1]), set(), {1}, 3) == pytest.approx(
        1 / math.log2(3), abs=1e-9
    )


def test_10_end_to_end_smoke(smoke_runs):
    log, split, backbone, runs = smoke_runs
    floor = 2 * random_ranking_baseline(10, log.num_items)
    for name, (table, _, report, elapsed) in runs.items():
        assert elapsed < 300.0, f"{name} took {elapsed:.0f}s"
        scores = checkpoint_scores(table, None, backbone)
        recall = evaluate_ranking(scores, split.train, split.test, [10])[("recall", 10)]
        assert recall >= floor, f"{name}: Recall@10 {recall:.3f} < {floor:.3f}"
        el = report.epoch_loss
        assert len(el) >= 50
        assert np.mean(el[40:50]) < np.mean(el[:10]), f"{name}: loss did not decrease"
        assert el[49] < el[0], f"{name}: no net loss decrease over 50 epochs"


def test_11_noise_weight_direction(noisy_runs):
    split, backbone, runs = noisy_runs
    k2 = {}
    for name, (spec, table, margins, _) in runs.items():
        scores = checkpoint_scores(table, None, backbone)
        rows = user_diagnostics(
            scores, split, spec,
            margins=margins if name == "drrl" else None,
            noise_pool="train",
        )
        k2[name] = aggregate(rows)["k2_mean"]
    assert k2["drrl"] <= k2["sl"], (
        f"false-negative weight ratio: drrl {k2['drrl']:.3f} vs sl {k2['sl']:.3f}"
    )


def test_12_truncation_trend(smoke_runs):
    _, split, backbone, runs = smoke_runs
    table, _, _, _ = runs["drrl"]
    scores = checkpoint_scores(table, None, backbone)
    trunc = {}
    for gamma_star in (1.0, 2.0, 4.0):
        spec = L.LossSpec(kind="drrl", gamma_star=gamma_star, c=2.0, eps=0.0)
        rows = user_diagnostics(scores, split, spec, resolve_margin=True)
        trunc[gamma_star] = aggregate(rows)["truncation_mean"]
    # truncation shrinks as the divergence order gamma grows, i.e. it is
    # nonincreasing along gamma* = 4 -> 2 -> 1
    assert trunc[4.0] >= trunc[2.0] >= trunc[1.0], trunc
