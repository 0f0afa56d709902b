import tracemalloc
import warnings
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_reference as ref
from drrl import losses as L
from drrl.config import load_config
from drrl.dataio import CACHE_BLOCK

scores = st.floats(-1.0, 1.0, allow_nan=False)
pos_arrays = st.lists(scores, min_size=1, max_size=4).map(np.asarray)
neg_arrays = st.lists(scores, min_size=1, max_size=12).map(np.asarray)


def row(values):
    """One batch row (1, n) of scores."""
    return np.asarray(values, dtype=float).reshape(1, -1)


def test_spec_validation():
    with pytest.raises(ValueError):
        L.LossSpec(kind="nope").validate()
    with pytest.raises(ValueError):
        L.LossSpec(kind="sl", tau=0.0).validate()
    with pytest.raises(ValueError):
        L.LossSpec(kind="drrl", gamma_star=0.5).validate()
    # no radius eta >= 0 gives c_gamma(eta) < 1, and below 1 the margin
    # objective is unbounded below
    with pytest.raises(ValueError, match="loss.c must be at least 1 for drrl"):
        L.LossSpec(kind="drrl", c=0.9).validate()
    L.LossSpec(kind="drrl", c=1.0).validate()


def test_mse_hand_values():
    value, d_pos, d_neg = L.mse_loss(row([0.5]), row([0.25, -0.5]))
    assert value[0] == pytest.approx(0.25 + (0.0625 + 0.25) / 2)
    assert d_pos[0] == pytest.approx([-1.0])
    assert d_neg[0] == pytest.approx([0.25, -0.5])


def test_bce_symmetric_point():
    # f = 0 scores log(2) per side
    value, d_pos, d_neg = L.bce_loss(row([0.0]), row([0.0]))
    assert value[0] == pytest.approx(2 * np.log(2))
    assert d_pos[0] == pytest.approx([-0.5])
    assert d_neg[0] == pytest.approx([0.5])


def test_bpr_pairwise_mean():
    value, _, d_neg = L.bpr_loss(row([0.3, 0.1]), row([0.2]))
    sig = 1 / (1 + np.exp(-np.array([0.1, -0.1])))
    assert value[0] == pytest.approx(float(np.mean(-np.log(sig))))
    # pair gradients average over the 2 pairs
    assert d_neg[0] == pytest.approx([np.sum(1 - sig) / 2])


def test_bpr_requires_negatives():
    # every kernel, not only the pairwise one, rejects a row without negatives
    kernels = {
        "mse": L.mse_loss,
        "bce": L.bce_loss,
        "bpr": L.bpr_loss,
        "sl": lambda fp, fn: L.softmax_loss(fp, fn, 0.2),
        "ccl": lambda fp, fn: L.ccl_loss(fp, fn, 2.0, 0.1),
        "drrl": lambda fp, fn: L.drrl_loss(fp, fn, 2.0, 1.5, 1e-10, 0.1),
    }
    assert set(kernels) == set(L.LOSS_KINDS)
    for kernel in kernels.values():
        with pytest.raises(ValueError, match="at least one positive and one negative"):
            kernel(row([0.3]), row([]))


def test_softmax_loss_matches_direct_form():
    neg = np.array([0.2, -0.1, 0.5])
    tau = 0.2
    value, _, d_neg = L.softmax_loss(row([0.4]), row(neg), tau)
    direct = -0.4 / tau + np.log(np.sum(np.exp(neg / tau)))
    assert value[0] == pytest.approx(direct)
    softmax = np.exp(neg / tau) / np.sum(np.exp(neg / tau))
    assert d_neg[0] == pytest.approx(softmax / tau)


def drrl_at(gamma, c=1.0):
    """The DrRL spec of divergence order gamma (g* = gamma / (gamma - 1))."""
    return L.LossSpec(kind="drrl", gamma_star=gamma / (gamma - 1.0), c=c)


def test_sl_weights_hand_values():
    w = L.worst_case_weights(row([0.5, 0.3]), L.LossSpec(kind="sl", tau=0.2))[0]
    assert w == pytest.approx([1.46211, 0.53789], abs=1e-5)


@given(neg_arrays, st.floats(0.05, 0.5))
@settings(max_examples=200)
def test_sl_weights_mean_one(neg, tau):
    w = L.worst_case_weights(row(neg), L.LossSpec(kind="sl", tau=tau))
    assert w.mean() == pytest.approx(1.0, abs=1e-12)


def test_ccl_truncation_zeroes_gradient():
    value, _, d_neg = L.ccl_loss(row([0.8]), row([0.5, 0.1, -0.3]), 2.0, 0.2)
    assert value[0] == pytest.approx(-0.8 + 2.0 * 0.3 / 3)
    assert L.dense(d_neg)[0] == pytest.approx([2.0 / 3, 0.0, 0.0])


def test_drrl_hand_values():
    # hinges [0.5, 0.1, 0], g*=2, c=1, eps=0: M = sqrt(0.26/3)
    value, _, d_neg = L.drrl_loss(row([0.8]), row([0.5, 0.1, -0.3]), 2.0, 1.0, 0.0, 0.0)
    m = np.sqrt(0.26 / 3)
    assert value[0] == pytest.approx(-0.8 + m)
    assert L.dense(d_neg)[0] == pytest.approx(np.array([0.5, 0.1, 0.0]) / m / 3)


def test_drrl_worst_case_weights_hand_values():
    w = L.worst_case_weights(row([0.5, 0.1, -0.3]), drrl_at(2.0), 0.0)[0]
    assert w == pytest.approx([1.69842, 0.33968, 0.0], abs=1e-5)


@pytest.mark.parametrize("gamma", [1.2, 1.5, 2.0, 3.0, 6.0])
def test_worst_case_weights_match_closed_forms(gamma):
    # the kernel-derived weights against the closed forms at equal margins
    rng = np.random.default_rng(11)
    for _ in range(200):
        neg = rng.uniform(-1, 1, int(rng.integers(2, 40)))
        beta = float(rng.uniform(-1.5, 0.8))
        c = float(rng.uniform(1.0, 3.0))
        w = L.worst_case_weights(row(neg), drrl_at(gamma, c), beta)[0]
        w_ref, degenerate_ref = ref.drrl_worst_case_weights(neg, gamma, c, beta)
        assert (not w.any()) == degenerate_ref
        np.testing.assert_allclose(w, w_ref, rtol=1e-12, atol=0.0)
        tau = float(rng.uniform(0.05, 1.0))
        w = L.worst_case_weights(row(neg), L.LossSpec(kind="sl", tau=tau))[0]
        np.testing.assert_allclose(w, ref.sl_worst_case_weights(neg, tau), rtol=1e-12, atol=0.0)


def test_drrl_fully_truncated_degenerates():
    assert not L.worst_case_weights(row([-0.5, -0.2]), drrl_at(2.0), 0.5).any()
    _, _, d_neg = L.drrl_loss(row([0.3]), row([-0.5, -0.2]), 2.0, 1.0, 0.0, 0.5)
    assert L.dense(d_neg)[0] == pytest.approx([0.0, 0.0])
    assert L.drrl_beta_gradient(row([-0.5, -0.2]), 2.0, 1.0, 0.0, 0.5) == pytest.approx([1.0])


@pytest.mark.parametrize("spec", [
    L.LossSpec(kind="sl", tau=0.05), L.LossSpec(kind="sl", tau=2.0),
    L.LossSpec(kind="ccl", alpha=2.0), drrl_at(1.5, 1.3), drrl_at(3.0),
    L.LossSpec(kind="drrl", gamma_star=1.0, c=1.2)])
def test_minus_inf_scores_weigh_exactly_zero(spec):
    # a row padded with -inf weighs its padding 0 and its own scores in the
    # same proportions as the unpadded row, so ratios to the mean are kept
    neg = np.array([[0.4, -0.2, 0.7, 0.1], [0.3, 0.9, -0.5, 0.2]])
    padded = np.full((2, 7), -np.inf)
    padded[:, [0, 2, 3, 6]] = neg
    beta = np.array([0.0, 0.25])
    with np.errstate(all="raise"):
        w = L.worst_case_weights(padded, spec, beta)
    assert (w[:, [1, 4, 5]] == 0.0).all()
    want = L.worst_case_weights(neg, spec, beta)
    np.testing.assert_allclose(w[:, [0, 2, 3, 6]] / w.sum(axis=1, keepdims=True),
                               want / want.sum(axis=1, keepdims=True), rtol=1e-12)


@pytest.mark.parametrize("spec", [L.LossSpec(kind="ccl", alpha=1.0), drrl_at(2.0, 1.0)])
def test_minus_inf_margin_weighs_every_finite_score_one(spec):
    # a margin of -inf is the radius 0, whose worst case is P itself: finite
    # scores weigh 1 and -inf padding 0, with no inf - inf taken
    block = np.array([[0.4, -np.inf, 0.7, 0.1], [0.3, 0.9, -0.5, 0.2]])
    with np.errstate(all="raise"):
        for beta in (-np.inf, np.full(2, -np.inf)):
            w = L.worst_case_weights(block, spec, beta)
            assert w.tolist() == [[1.0, 0.0, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0]]


def test_ccl_weights_are_alpha_above_the_margin():
    w = L.worst_case_weights(row([0.5, 0.1, -0.3]), L.LossSpec(kind="ccl", alpha=2.0), 0.2)
    assert w[0].tolist() == [2.0, 0.0, 0.0]


def test_worst_case_weights_reject_kinds_without_them():
    with pytest.raises(ValueError, match="no worst-case weight notion"):
        L.worst_case_weights(row([0.5]), L.LossSpec(kind="bpr"))


def two_power_drrl(f_neg, gamma_star, c, eps, beta):
    """M and dM/df with inner^{g*} and inner^{g*-1} taken as two separate
    powers, as the kernel first computed them."""
    inner = c * np.maximum(f_neg - beta, 0.0) + eps
    m = ((inner**gamma_star).sum(axis=1, keepdims=True) / f_neg.shape[1]) ** (1.0 / gamma_star)
    scale = np.power(m, 1.0 - gamma_star, where=(m > 0.0) | (gamma_star == 1.0),
                     out=np.zeros_like(m)) / f_neg.shape[1]
    return m[:, 0], scale * inner ** (gamma_star - 1.0) * c * (f_neg > beta)


@pytest.mark.parametrize("eps", [0.0, 0.1])
@pytest.mark.parametrize("gamma_star", [1.0, 1.5, 2.0, 4.7, 13.5])
def test_drrl_kernel_matches_two_power_formulas(gamma_star, eps):
    rng = np.random.default_rng(5)
    f_neg = rng.uniform(-1, 1, (8, 50))
    beta = rng.uniform(-0.6, 0.6, 8)
    beta[:2] = 1.0  # rows 0 and 1 are fully truncated
    c = 1.3
    m, d_ref = two_power_drrl(f_neg, gamma_star, c, eps, beta[:, None])
    # at zero positive scores each row's value is M itself
    value, _, d_neg = L.drrl_loss(np.zeros((8, 1)), f_neg, gamma_star, c, eps, beta)
    d_neg = L.dense(d_neg)
    np.testing.assert_allclose(value, m, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(d_neg, d_ref, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(L.drrl_beta_gradient(f_neg, gamma_star, c, eps, beta),
                               1.0 - d_ref.sum(axis=1), rtol=1e-12, atol=0.0)
    objective = [L.drrl_beta_objective(f, gamma_star, c, eps, b) for f, b in zip(f_neg, beta)]
    np.testing.assert_allclose(objective, beta + m, rtol=1e-12, atol=0.0)
    assert np.all(d_neg[:2] == 0.0)


# (rows, n, gamma_star, eps, scores' dtype): 70 rows of 1000 are blocks of
# 32, 32 and 6 rows; rows longer than the block are walked one per block
BLOCKED_CASES = [(70, 1000, 7.25, 0.1, np.float64), (3, CACHE_BLOCK + 5, 2.0, 1e-10, np.float64),
                 (1, 9, 13.5, 0.1, np.float64), (70, 1000, 2.0, 0.0, np.float64),
                 (70, 1000, 1.0, 0.0, np.float64), (70, 1000, 4.7, 1e-10, np.float32)]


@pytest.mark.parametrize("rows, n, gamma_star, eps, dtype", BLOCKED_CASES)
@pytest.mark.parametrize("shared", [False, True], ids=["per-row-beta", "scalar-beta"])
def test_blocked_drrl_kernel_equals_the_whole_array_reference(rows, n, gamma_star, eps, dtype,
                                                              shared):
    rng = np.random.default_rng(17)
    f_neg = rng.uniform(-1, 1, (rows, n)).astype(dtype)
    beta = np.float64(0.2) if shared else rng.uniform(-0.6, 0.6, rows)
    if not shared and rows > 2:
        beta[[1, -1]] = 1.0  # fully truncated rows, in the first and the last block
    c = 1.25
    m_ref, d_ref = ref.drrl_negative_weights(f_neg, gamma_star, c, eps,
                                             beta if shared else beta[:, None])
    m, d_neg = L._drrl_negative_weights(f_neg, gamma_star, c, eps, beta)
    np.testing.assert_array_equal(m, m_ref)
    np.testing.assert_array_equal(L.dense(d_neg), d_ref)
    np.testing.assert_array_equal(L._drrl_negative_weights(f_neg, gamma_star, c, eps, beta,
                                                           weights=None)[0], m_ref)
    np.testing.assert_array_equal(L.drrl_beta_gradient(f_neg, gamma_star, c, eps, beta),
                                  1.0 - d_ref.sum(axis=1))
    spec = L.LossSpec(kind="drrl", gamma_star=gamma_star, c=c, eps=eps)
    _, _, d_batch = L.batch_loss(np.zeros((rows, 1)), f_neg, spec, beta)
    np.testing.assert_array_equal(L.dense(d_batch), d_ref / rows)
    objective = [L.drrl_beta_objective(f, gamma_star, c, eps, b)
                 for f, b in zip(f_neg[:3], np.broadcast_to(beta, rows)[:3])]
    np.testing.assert_array_equal(objective, np.broadcast_to(beta, rows)[:3] + m_ref[:3])


def test_margin_gradient_memory_stays_within_a_few_blocks():
    rows, n = 1024, 1024
    rng = np.random.default_rng(3)
    f_neg, beta = rng.uniform(-1, 1, (rows, n)), rng.uniform(-0.5, 0.5, rows)
    tracemalloc.start()
    try:
        L.drrl_beta_gradient(f_neg, 13.5, 1.2, 1e-10, beta)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # two float64 scratch blocks and per-row vectors, not one (rows, n) array
    assert peak < 4 * 8 * CACHE_BLOCK < 8 * rows * n


PRESET_GAMMA_STARS = sorted({
    load_config(path, with_env=False).loss.gamma_star
    for path in (Path(__file__).resolve().parent.parent / "presets").glob("*drrl*.cfg")})


@pytest.mark.parametrize("gamma_star", PRESET_GAMMA_STARS)
def test_drrl_kernel_scales_only_rows_whose_powers_leave_the_float_range(gamma_star):
    # cosine-range scores keep scale 1 and the unscaled formula's bits; rows
    # of terms near 1e-200 or 1e200, whose g*-th powers under- or overflow,
    # are divided by their largest term and match a 40-digit reference
    rng = np.random.default_rng(23)
    f_neg = rng.uniform(-1, 1, (40, 300))
    beta = rng.uniform(-0.8, 0.8, 40)
    beta[:2] = 1.0  # fully truncated rows
    for c in (1.0, 1.25, 5.0):
        for eps in (0.0, 1e-10, 0.1):
            m_ref, d_ref = ref.drrl_negative_weights(f_neg, gamma_star, c, eps, beta[:, None])
            m, d_neg = L._drrl_negative_weights(f_neg, gamma_star, c, eps, beta)
            np.testing.assert_array_equal(m, m_ref)
            np.testing.assert_array_equal(L.dense(d_neg), d_ref)
    extreme = np.abs(f_neg[:4, :60]) * np.array([1e-200, 1e-200, 1e200, 1e200])[:, None]
    extreme_beta = np.array([0.0, 0.5e-200, 0.0, 0.5e200])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        m, d_neg = L._drrl_negative_weights(extreme, gamma_star, 1.25, 0.0, extreme_beta)
    d_neg = L.dense(d_neg)
    for i in range(4):
        m_ref, d_ref = decimal_drrl(extreme[i], gamma_star, 1.25, 0.0, extreme_beta[i])
        assert m[i] == pytest.approx(m_ref, rel=1e-12)
        np.testing.assert_allclose(d_neg[i], d_ref, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("gamma_star", sorted({1.0, 1.5, 400.0, *PRESET_GAMMA_STARS}))
@pytest.mark.parametrize("shared", [False, True], ids=["per-row-beta", "scalar-beta"])
@pytest.mark.parametrize("low", [-1.0, -20.0], ids=["half-truncated", "mostly-truncated"])
def test_drrl_kernel_at_eps_zero_equals_the_whole_array_power_bit_for_bit(gamma_star, shared,
                                                                           low):
    # at eps = 0 a live block, half or mostly truncated, takes the power of
    # every term, its truncated terms' 0 included, and a fully truncated
    # block none; the bytes of both, signed zeros included, equal those of
    # the whole-array reference's power of every term
    rng = np.random.default_rng(31)
    f_neg = rng.uniform(low, 1, (70, 1000))  # three cache blocks
    f_neg[rng.random(f_neg.shape) < 0.2] = -np.inf
    f_neg[rng.random(f_neg.shape) < 0.05] = -0.0
    f_neg[rng.random(f_neg.shape) < 0.05] = 0.0
    f_neg[5] = -np.inf  # a row of -inf scores
    # every row's largest term c (max f - beta) lies in [0.5, 1.8] or is 0, where
    # even g* = 400 keeps the kernel's scale 1
    beta = np.float64(0.0) if shared else rng.uniform(-0.5, 0.5, 70)
    if not shared:
        beta[[1, 40, -1]] = 1.0  # fully truncated rows, in the first and the last block
        beta[[2, 41]] = 0.0  # f = -0.0 > beta = 0.0 is False
    for c in (1.0, 1.2):
        m_ref, d_ref = ref.drrl_negative_weights(f_neg, gamma_star, c, 0.0,
                                                 beta if shared else beta[:, None])
        for weights, want in (("live", d_ref), ("sum", d_ref.sum(axis=1)), (None, None)):
            m, got = L._drrl_negative_weights(f_neg, gamma_star, c, 0.0, beta, weights)
            got = L.dense(got)
            assert m.tobytes() == m_ref.tobytes()
            assert (got is None) if want is None else got.tobytes() == want.tobytes()


def truncated_reference(f_neg, gamma_star, c, eps, beta, truncated):
    """`ref.drrl_negative_weights`, except that each fully truncated row (its
    terms all eps) whose eps^{g*} lies outside [2^-900, 2^900] has M = eps:
    there the kernel divides the terms by eps before any power, so that
    S = 1 and M = eps S, where the unscaled reference under- or overflows."""
    m_ref, d_ref = ref.drrl_negative_weights(f_neg, gamma_star, c, eps, beta)
    if gamma_star != 1.0 and eps != 0.0 and not (
            2.0 ** (-900.0 / gamma_star) <= eps <= 2.0 ** (900.0 / gamma_star)):
        m_ref[truncated] = eps
    return m_ref, d_ref


@pytest.mark.parametrize("gamma_star", sorted({1.0, 1.5, 400.0, *PRESET_GAMMA_STARS}))
@pytest.mark.parametrize("eps", [0.0, 1e-300, 1e-10, 0.1])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("shared", [False, True], ids=["per-row-beta", "scalar-beta"])
def test_fully_truncated_blocks_equal_the_whole_array_reference(gamma_star, eps, dtype, shared):
    # 134 rows of 1000 scores are cache blocks of 32, 32, 32, 32 and 6 rows.
    # With per-row margins blocks 0, 3 and 4 are fully truncated (block 3
    # holds a row of -inf and rows whose largest score equals the margin),
    # block 1 is live and block 2 is truncated but for one nan, which keeps
    # it live; at the scalar margin 1.0 block 1 is truncated too. The blocks
    # that form no terms give the bytes, signed zeros included, of the
    # whole-array formula
    rng = np.random.default_rng(37)
    f_neg = rng.uniform(-1, 1, (134, 1000)).astype(dtype)
    f_neg[100] = -np.inf
    f_neg[70, 500] = np.nan
    beta = np.full(134, 1.0)
    # every live row's largest term c (max f - beta) + eps lies in [0.5, 2],
    # where even g* = 400 keeps the kernel's scale 1
    beta[32:64] = rng.uniform(-0.5, 0.5, 32)
    beta[101:128] = f_neg[101:128].max(axis=1)
    if shared:
        beta = np.float64(1.0)
    truncated = np.ones(134, bool)
    truncated[70] = False  # the nan row's M is nan
    if not shared:
        truncated[32:64] = False
    for c in (1.0, 1.25):
        m_ref, d_ref = truncated_reference(f_neg, gamma_star, c, eps,
                                           beta if shared else beta[:, None], truncated)
        for weights, want in (("live", d_ref), ("sum", d_ref.sum(axis=1)), (None, None)):
            m, got = L._drrl_negative_weights(f_neg, gamma_star, c, eps, beta, weights)
            got = L.dense(got)
            assert np.isnan(m[70])
            # the nan row's largest term is nan, so wherever the kernel
            # scales rows it scales that one by nan and every weight of the
            # row is nan, where the reference has a nan at the nan score only
            rest = np.arange(134) != 70
            assert m[rest].tobytes() == m_ref[rest].tobytes()
            assert (got is None) if want is None else got[rest].tobytes() == want[rest].tobytes()
            if weights is not None:
                assert not np.any(got[truncated])  # +0.0: the bytes above are the reference's


def test_fully_truncated_blocks_form_no_terms():
    # at a margin above every score no block forms its terms: the margin
    # gradient's peak is below one float64 scratch block, and the loss's
    # score gradients are +0.0
    rows, n = 1024, 1024
    rng = np.random.default_rng(41)
    f_neg, beta = rng.uniform(-1, 0.85, (rows, n)), np.full(rows, 0.85)
    tracemalloc.start()
    try:
        grad = L.drrl_beta_gradient(f_neg, 13.5, 1.0, 1e-10, beta)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert grad.tobytes() == np.ones(rows).tobytes()
    assert peak < 8 * CACHE_BLOCK
    spec = L.LossSpec(kind="drrl", gamma_star=13.5, c=1.0, eps=1e-10)
    _, _, d_neg = L.batch_loss(np.zeros((rows, 1)), f_neg, spec, beta)
    assert L.dense(d_neg).tobytes() == np.zeros((rows, n)).tobytes()


def test_ccl_memory_stays_below_one_batch_array():
    # CCL walks cache-sized blocks: a fully truncated batch forms neither a
    # (rows, n) float64 hinge nor a (rows, n) mask
    rows, n = 1024, 1024
    f_neg = np.random.default_rng(41).uniform(-1, 0.85, (rows, n))
    tracemalloc.start()
    try:
        value, _, d_neg = L.ccl_loss(np.zeros((rows, 1)), f_neg, 2.0, 0.85)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert d_neg.index.size == 0 and value.tobytes() == np.zeros(rows).tobytes()
    assert peak < 8 * rows * n


def live_scores(case, rng):
    """Three cache blocks of scores (70, 1000) and per-row margins, in which
    every block is fully truncated ("truncated"), the first block is and the
    others are partly live ("partly"), or every score is live ("all");
    "partly" holds nan, -inf and -0.0 scores and rows whose margin equals
    their largest score."""
    f_neg = rng.uniform(-1, 1, (70, 1000))
    if case == "truncated":
        return f_neg, np.full(70, 1.0)
    if case == "all":
        return f_neg, np.full(70, -1.5)
    f_neg[rng.random(f_neg.shape) < 0.1] = -np.inf
    f_neg[rng.random(f_neg.shape) < 0.05] = -0.0
    f_neg[40:, 3] = np.nan
    beta = rng.uniform(-0.5, 0.5, 70)
    beta[:32] = 1.0  # block 0 is fully truncated
    beta[[33, 66]] = f_neg[[33, 66]].max(axis=1)
    beta[[34, 67]] = 0.0  # f = -0.0 > beta = 0.0 is False
    return f_neg, beta


def assert_live_entries(got, d_ref, case):
    """`got` holds the flat indices and values of d_ref's nonzeros, bytes
    and index dtype included: none if `case` is "truncated", all if "all",
    and some otherwise."""
    index = np.flatnonzero(d_ref != 0)
    assert got.shape == d_ref.shape
    assert got.index.dtype == index.dtype and got.index.tobytes() == index.tobytes()
    assert got.value.tobytes() == d_ref.ravel()[index].tobytes()
    if case == "partly":
        assert 0 < len(index) < d_ref.size
    else:
        assert len(index) == (0 if case == "truncated" else d_ref.size)


@pytest.mark.parametrize("gamma_star, eps", [(1.0, 0.0), (400.0, 0.25)])
@pytest.mark.parametrize("shared", [False, True], ids=["per-row-beta", "scalar-beta"])
@pytest.mark.parametrize("case", ["truncated", "partly", "all"])
def test_live_entries_are_the_nonzeros_of_the_whole_array_weights(case, shared, gamma_star,
                                                                  eps):
    # DrRL's and CCL's live entries are the nonzero weights of the
    # whole-array references, nan included. At g* = 400 every row's largest
    # term lies in [0.25, 3.3], where the kernel scales no row (g* = 1 never
    # does): a nan row max would scale the row's every term to nan
    rng = np.random.default_rng(43)
    f_neg, beta = live_scores(case, rng)
    if shared:
        beta = np.float64(beta[-1])
    column = beta if shared else beta[:, None]
    for c in (1.0, 1.2):
        assert_live_entries(L._drrl_negative_weights(f_neg, gamma_star, c, eps, beta)[1],
                            ref.drrl_negative_weights(f_neg, gamma_star, c, eps, column)[1],
                            case)
    assert_live_entries(L.ccl_loss(np.zeros((70, 1)), f_neg, 2.0, beta)[2],
                        ref.ccl_negative_weights(f_neg, 2.0, column), case)
    # at alpha = 0 every weight is 0, so no entry is live
    assert_live_entries(L.ccl_loss(np.zeros((70, 1)), f_neg, 0.0, beta)[2],
                        ref.ccl_negative_weights(f_neg, 0.0, column), "truncated")


def decimal_drrl(f, gamma_star, c, eps, beta):
    """M and dM/df_j = c/n (t_j / M)^{g*-1} 1[f_j > beta] of one row, in
    40-digit decimal arithmetic, which neither over- nor underflows here."""
    with localcontext() as ctx:
        ctx.prec = 40
        g, c, n = Decimal(gamma_star), Decimal(c), len(f)
        terms = [c * max(Decimal(x) - Decimal(beta), Decimal(0)) + Decimal(eps) for x in f]
        m = (sum(t ** g for t in terms) / n) ** (1 / g)
        weights = [c / n * (t / m) ** (g - 1) if x > beta else Decimal(0)
                   for t, x in zip(terms, f)]
        return float(m), np.array([float(w) for w in weights])


def test_drrl_kernel_stays_finite_at_large_gamma_star():
    # at g* = 400 the unscaled t^{g*} underflows for terms below 0.17 and
    # overflows above 5.9, which zeroes row 0's weights and makes row 1's
    # nan; the weights c/n (t/M)^{g*-1} themselves stay bounded
    rng = np.random.default_rng(29)
    f_neg = rng.uniform(-1, 1, (4, 50))
    beta = np.array([0.9, -6.0, 0.2, 2.0])  # small terms, large terms, both; none
    with np.errstate(over="ignore", invalid="ignore"):
        unscaled = ref.drrl_negative_weights(f_neg, 400.0, 1.2, 0.0, beta[:, None])[1]
    assert np.all(unscaled[0] == 0.0) and np.all(np.isnan(unscaled[1]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        m, d_neg = L._drrl_negative_weights(f_neg, 400.0, 1.2, 0.0, beta)
        d_neg = L.dense(d_neg)
        grad = L.drrl_beta_gradient(f_neg, 400.0, 1.2, 0.0, beta)
        weights = L.worst_case_weights(f_neg, L.LossSpec(kind="drrl", gamma_star=400.0,
                                                         c=1.2), beta)
    for i in range(3):
        m_ref, d_ref = decimal_drrl(f_neg[i], 400.0, 1.2, 0.0, beta[i])
        assert m[i] == pytest.approx(m_ref, rel=1e-12)
        # weights below 1e-300 are taken as 0 where float64 underflows
        np.testing.assert_allclose(d_neg[i], d_ref, rtol=1e-12, atol=1e-300)
        assert grad[i] == pytest.approx(1.0 - d_ref.sum(), rel=1e-12, abs=1e-12)
    np.testing.assert_array_equal(weights, 50 * d_neg)
    # the fully truncated row at eps = 0 keeps its one-sided limit 0
    assert m[3] == 0.0 and np.all(d_neg[3] == 0.0) and grad[3] == 1.0


def test_drrl_kernel_rejects_a_margin_per_other_rows():
    spec = L.LossSpec(kind="drrl")
    with pytest.raises(ValueError, match="beta must be a scalar or one value per row"):
        L.batch_loss(row([0.5]), row([0.5, 0.1, -0.3]), spec, beta=np.array([0.1, 0.2]))
    with pytest.raises(ValueError, match="beta"):
        L.drrl_beta_gradient(np.zeros((3, 2)), 2.0, 1.0, 0.0, np.zeros((3, 1)))


@pytest.mark.parametrize("kind", L.LOSS_KINDS)
def test_kernels_reject_unequal_row_counts(kind):
    spec = L.LossSpec(kind=kind)
    with pytest.raises(ValueError, match="f_pos has 2 rows and f_neg 1"):
        L.batch_loss(np.array([[0.5], [0.1]]), row([0.2, -0.1]), spec, beta=np.zeros(2))


@pytest.mark.parametrize("spec", [L.LossSpec(kind="ccl", alpha=2.0), drrl_at(2.0)])
def test_worst_case_weights_name_a_missing_margin(spec):
    with pytest.raises(ValueError, match="margin beta"):
        L.worst_case_weights(row([0.5, 0.1]), spec)


@given(pos_arrays, neg_arrays, st.floats(0.5, 3.0), st.floats(-0.5, 0.5))
@settings(max_examples=200)
def test_drrl_gamma_star_one_equals_ccl(pos, neg, alpha, beta):
    a_value, _, a_neg = L.drrl_loss(row(pos), row(neg), 1.0, alpha, 0.0, beta)
    b_value, _, b_neg = L.ccl_loss(row(pos), row(neg), alpha, beta)
    assert a_value[0] == pytest.approx(b_value[0], abs=1e-12)
    np.testing.assert_allclose(L.dense(a_neg), L.dense(b_neg), atol=1e-12)


@given(neg_arrays, st.floats(1.0, 3.0), st.floats(0.5, 2.0),
       st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))
@settings(max_examples=300)
def test_beta_objective_midpoint_convex(neg, gamma_star, c, a, b):
    h = lambda t: L.drrl_beta_objective(neg, gamma_star, c, 0.01, t)
    mid = h(0.5 * (a + b))
    assert mid <= 0.5 * (h(a) + h(b)) + 1e-10


def test_beta_step_applies_per_user_updates():
    state = L.MarginState.initialize(3, 0.5)
    L.beta_step(state, np.array([2.0, 0.0, -1.0]), 0.1)
    assert state.beta == pytest.approx([0.3, 0.5, 0.6])
    L.beta_step(state, 1.0, 0.1)  # one shared gradient moves every margin
    assert state.beta == pytest.approx([0.2, 0.4, 0.5])


def test_batch_loss_dispatch_and_margin_requirement():
    spec = L.LossSpec(kind="drrl")
    with pytest.raises(ValueError):
        L.batch_loss(row([0.5]), row([0.2]), spec)
    value, _, _ = L.batch_loss(row([0.5]), row([0.2]), spec, beta=np.array([0.0]))
    assert np.isfinite(value)
    with pytest.raises(ValueError):
        L.batch_loss(row([0.5]), row([0.2]), L.LossSpec(kind="nope"))


def test_batch_loss_scales_per_pair():
    pos = np.array([[0.5], [0.1]])
    neg = np.array([[0.2, -0.1], [0.4, 0.3]])
    value, _, d_neg = L.batch_loss(pos, neg, L.LossSpec(kind="sl", tau=0.2))
    v1, _, d1 = L.softmax_loss(pos[:1], neg[:1], 0.2)
    v2, _, _ = L.softmax_loss(pos[1:], neg[1:], 0.2)
    assert value == pytest.approx((v1[0] + v2[0]) / 2)
    assert d_neg[0] == pytest.approx(d1[0] / 2)


@pytest.mark.parametrize("kind", L.LOSS_KINDS)
def test_kernels_match_row_by_row_calls(kind):
    # each row of a batched call equals the same row computed alone
    rng = np.random.default_rng(8)
    pos = rng.uniform(-1, 1, (5, 2))
    neg = rng.uniform(-1, 1, (5, 7))
    beta = rng.uniform(-0.5, 0.5, 5)
    spec = L.LossSpec(kind=kind, tau=0.2, alpha=2.0, margin=0.1, c=1.2, eps=0.1)
    _, d_pos, d_neg = L.batch_loss(pos, neg, spec, beta)
    for b in range(5):
        _, p, n = L.batch_loss(pos[b:b + 1], neg[b:b + 1], spec, beta[b:b + 1])
        np.testing.assert_allclose(d_pos[b] * 5, p[0], rtol=1e-14, atol=1e-15)
        np.testing.assert_allclose(L.dense(d_neg)[b] * 5, L.dense(n)[0], rtol=1e-14,
                                   atol=1e-15)
    grads = L.drrl_beta_gradient(neg, spec.gamma_star, spec.c, spec.eps, beta)
    for b in range(5):
        assert grads[b] == pytest.approx(
            L.drrl_beta_gradient(neg[b:b + 1], spec.gamma_star, spec.c, spec.eps, beta[b])[0],
            rel=1e-14)


def test_empty_positives_rejected():
    with pytest.raises(ValueError):
        L.mse_loss(row([]), row([0.1]))


def test_kernels_name_out_of_range_parameters():
    pos, neg = row([0.5]), row([0.2, -0.1])
    with pytest.raises(ValueError, match="tau must be positive"):
        L.softmax_loss(pos, neg, 0.0)
    with pytest.raises(ValueError, match="alpha must be nonnegative"):
        L.ccl_loss(pos, neg, -1.0, 0.0)
    for gamma_star, c, eps in ((0.5, 1.2, 0.0), (2.0, 0.0, 0.0), (2.0, 1.2, -0.1)):
        with pytest.raises(ValueError, match=r"need gamma_star >= 1, c > 0, eps >= 0"):
            L.drrl_loss(pos, neg, gamma_star, c, eps, 0.0)
    with pytest.raises(ValueError, match="lr_beta must be positive"):
        L.beta_step(L.MarginState.initialize(2, 0.0), 1.0, 0.0)


def test_batch_loss_names_a_batch_of_zero_rows():
    with pytest.raises(ValueError, match="empty batch"):
        L.batch_loss(np.empty((0, 1)), np.empty((0, 4)), L.LossSpec(kind="sl"))
