import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drrl import losses as L

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
    assert L.LossSpec(kind="drrl", gamma_star=1.0).gamma == np.inf
    assert L.LossSpec(kind="drrl", gamma_star=2.0).gamma == pytest.approx(2.0)


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
    with pytest.raises(ValueError):
        L.bpr_loss(row([0.3]), row([]))


def test_softmax_loss_matches_direct_form():
    neg = np.array([0.2, -0.1, 0.5])
    tau = 0.2
    value, _, d_neg = L.softmax_loss(row([0.4]), row(neg), tau)
    direct = -0.4 / tau + np.log(np.sum(np.exp(neg / tau)))
    assert value[0] == pytest.approx(direct)
    softmax = np.exp(neg / tau) / np.sum(np.exp(neg / tau))
    assert d_neg[0] == pytest.approx(softmax / tau)


def test_sl_weights_hand_values():
    w = L.sl_worst_case_weights(np.array([0.5, 0.3]), 0.2)
    assert w == pytest.approx([1.46211, 0.53789], abs=1e-5)


@given(neg_arrays, st.floats(0.05, 0.5))
@settings(max_examples=200)
def test_sl_weights_mean_one(neg, tau):
    assert L.sl_worst_case_weights(neg, tau).mean() == pytest.approx(1.0, abs=1e-12)


def test_ccl_truncation_zeroes_gradient():
    value, _, d_neg = L.ccl_loss(row([0.8]), row([0.5, 0.1, -0.3]), 2.0, 0.2)
    assert value[0] == pytest.approx(-0.8 + 2.0 * 0.3 / 3)
    assert d_neg[0] == pytest.approx([2.0 / 3, 0.0, 0.0])


def test_drrl_hand_values():
    # hinges [0.5, 0.1, 0], g*=2, c=1, eps=0: M = sqrt(0.26/3)
    value, _, d_neg = L.drrl_loss(row([0.8]), row([0.5, 0.1, -0.3]), 2.0, 1.0, 0.0, 0.0)
    m = np.sqrt(0.26 / 3)
    assert value[0] == pytest.approx(-0.8 + m)
    assert d_neg[0] == pytest.approx(np.array([0.5, 0.1, 0.0]) / m / 3)


def test_drrl_worst_case_weights_hand_values():
    w, degenerate = L.drrl_worst_case_weights(
        np.array([0.5, 0.1, -0.3]), 2.0, 1.0, 0.0
    )
    assert not degenerate
    assert w == pytest.approx([1.69842, 0.33968, 0.0], abs=1e-5)


def test_drrl_fully_truncated_degenerates():
    w, degenerate = L.drrl_worst_case_weights(np.array([-0.5, -0.2]), 2.0, 1.0, 0.5)
    assert degenerate
    _, _, d_neg = L.drrl_loss(row([0.3]), row([-0.5, -0.2]), 2.0, 1.0, 0.0, 0.5)
    assert d_neg[0] == pytest.approx([0.0, 0.0])
    assert L.drrl_beta_gradient(row([-0.5, -0.2]), 2.0, 1.0, 0.0, 0.5) == pytest.approx([1.0])


@given(pos_arrays, neg_arrays, st.floats(0.5, 3.0), st.floats(-0.5, 0.5))
@settings(max_examples=200)
def test_drrl_gamma_star_one_equals_ccl(pos, neg, alpha, beta):
    a_value, _, a_neg = L.drrl_loss(row(pos), row(neg), 1.0, alpha, 0.0, beta)
    b_value, _, b_neg = L.ccl_loss(row(pos), row(neg), alpha, beta)
    assert a_value[0] == pytest.approx(b_value[0], abs=1e-12)
    np.testing.assert_allclose(a_neg, b_neg, atol=1e-12)


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
        np.testing.assert_allclose(d_neg[b] * 5, n[0], rtol=1e-14, atol=1e-15)
    grads = L.drrl_beta_gradient(neg, spec.gamma_star, spec.c, spec.eps, beta)
    for b in range(5):
        assert grads[b] == pytest.approx(
            L.drrl_beta_gradient(neg[b:b + 1], spec.gamma_star, spec.c, spec.eps, beta[b])[0],
            rel=1e-14)


def test_empty_positives_rejected():
    with pytest.raises(ValueError):
        L.mse_loss(row([]), row([0.1]))
