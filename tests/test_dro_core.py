import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_reference as ref
from drrl import dro_core as dc
from drrl import losses as L

finite_floats = st.floats(-1.0, 1.0, allow_nan=False)
score_arrays = st.lists(finite_floats, min_size=2, max_size=10).map(np.asarray)


def test_gamma_conjugate_known_values():
    assert dc.gamma_conjugate(2.0) == 2.0
    assert dc.gamma_conjugate(3.0) == pytest.approx(1.5)
    assert dc.gamma_conjugate(1.5) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        dc.gamma_conjugate(1.0)


def test_phi_gamma_hand_values():
    # (t^g - g t + g - 1) / (g (g - 1)); at g=2, t=3: (9 - 6 + 1) / 2 = 2
    assert dc.phi_gamma(3.0, 2.0) == pytest.approx(2.0)
    assert dc.phi_gamma(1.0, 2.0) == pytest.approx(0.0)
    assert dc.phi_gamma(0.0, 2.0) == pytest.approx(0.5)


def test_divergence_near_gamma_one_matches_kl_without_warnings():
    # near-uniform Q (the power form cancels to a few digits there) and a
    # Q with a zero coordinate, at gamma = 1 + 1e-6
    p = np.full(6, 1.0 / 6)
    near = p * (1.0 + 1e-3 * np.array([1.0, -2.0, 0.5, 0.5, -1.0, 1.0]))
    sparse = np.array([0.0, 0.1, 0.2, 0.3, 0.25, 0.15])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for q in (near, sparse):
            cr = dc.divergence(q, p, dc.DivergenceKind.cressie_read(1.0 + 1e-6))
            kl = dc.divergence(q, p, dc.DivergenceKind.kl())
            assert cr == pytest.approx(kl, rel=1e-6)
        assert dc.phi_gamma(np.zeros(3), 1.5) == pytest.approx(np.full(3, 1.0 / 1.5))


def test_phi_conjugate_hand_values():
    # ((g-1)x + 1)_+^{g*} / g - 1/g; at g=2, x=1: 4/2 - 1/2 = 1.5
    assert dc.phi_conjugate(1.0, 2.0) == pytest.approx(1.5)
    assert dc.phi_conjugate(0.0, 2.0) == pytest.approx(0.0)
    # below the kink the positive part vanishes
    assert dc.phi_conjugate(-5.0, 2.0) == pytest.approx(-0.5)


@given(st.floats(1.01, 5.0), st.floats(-3.0, 3.0))
@settings(max_examples=200)
def test_phi_conjugate_fenchel_inequality(gamma, x):
    # phi*(x) >= x t - phi(t) for any t >= 0
    for t in (0.0, 0.5, 1.0, 2.0):
        assert dc.phi_conjugate(x, gamma) >= x * t - dc.phi_gamma(t, gamma) - 1e-9


def test_c_gamma_known_value():
    # (1 + g(g-1) eta)^{1/g}; g=2, eta=1.5 -> 4^{1/2} = 2
    assert dc.c_gamma(1.5, 2.0) == pytest.approx(2.0)
    assert dc.c_gamma(0.0, 2.0) == pytest.approx(1.0)


@given(st.floats(1.1, 4.0))
@settings(max_examples=50)
def test_divergence_zero_at_base(gamma):
    p = np.full(5, 0.2)
    for kind in (dc.DivergenceKind.kl(), dc.DivergenceKind.worst_regret(),
                 dc.DivergenceKind.cressie_read(gamma)):
        assert dc.divergence(p, p, kind) == pytest.approx(0.0, abs=1e-12)


def test_divergence_infinite_off_support():
    p = np.array([0.5, 0.5, 0.0])
    q = np.array([0.25, 0.25, 0.5])
    assert dc.divergence(q, p, dc.DivergenceKind.kl()) == np.inf
    # a Q without support lies in no worst-case-regret ball
    assert dc.divergence(np.zeros(3), p, dc.DivergenceKind.worst_regret()) == np.inf


def test_divergence_kinds_name_bad_arguments():
    with pytest.raises(ValueError, match="unknown divergence kind: 'tv'"):
        dc.DivergenceKind("tv")
    with pytest.raises(ValueError, match="Cressie-Read divergence needs gamma > 1"):
        dc.DivergenceKind.cressie_read(1.0)
    with pytest.raises(ValueError, match="Q and P must have the same length"):
        dc.divergence(np.full(2, 0.5), np.full(3, 1 / 3), dc.DivergenceKind.kl())


@pytest.mark.parametrize("scores, eta, message", [
    (np.array([]), 0.1, "scores must be a nonempty 1-d array"),
    (np.zeros((2, 2)), 0.1, "scores must be a nonempty 1-d array"),
    (np.array([0.1, np.nan]), 0.1, "scores must be finite"),
    (np.array([0.1, 0.2]), -0.1, "eta must be nonnegative"),
], ids=["empty", "2-d", "nan", "negative-eta"])
def test_dro_instance_names_bad_scores_and_radius(scores, eta, message):
    with pytest.raises(ValueError, match=message):
        dc.DroInstance(scores, eta)


def test_generator_conjugate_and_radius_name_arguments_out_of_range():
    with pytest.raises(ValueError, match="phi_gamma is defined for t >= 0 only"):
        dc.phi_gamma(np.array([1.0, -0.1]), 2.0)
    for call in (lambda: dc.phi_gamma(1.0, 1.0), lambda: dc.phi_conjugate(0.0, 1.0),
                 lambda: dc.c_gamma(0.1, 1.0)):
        with pytest.raises(ValueError, match="gamma must exceed 1"):
            call()
    with pytest.raises(ValueError, match="eta must be nonnegative"):
        dc.c_gamma(-0.1, 2.0)


@given(st.lists(st.floats(-5, 5, allow_nan=False), min_size=2, max_size=8))
@settings(max_examples=200)
def test_project_simplex_is_a_distribution(v):
    q = ref.project_simplex(np.asarray(v))
    assert np.all(q >= -1e-12)
    assert np.sum(q) == pytest.approx(1.0, abs=1e-9)


@given(st.integers(1, 6), st.integers(1, 8), st.integers(0, 2**32 - 1))
@settings(max_examples=100)
def test_project_simplex_rows_match_vector_calls(m, n, seed):
    rows = np.random.default_rng(seed).uniform(-5, 5, (m, n))
    expected = np.array([ref.project_simplex(row) for row in rows])
    np.testing.assert_array_equal(ref.project_simplex(rows), expected)


def test_project_simplex_fixpoint():
    q = np.array([0.1, 0.2, 0.7])
    assert ref.project_simplex(q) == pytest.approx(q, abs=1e-12)


class TestInnerMax:
    def test_eta_zero_returns_base_expectation(self):
        inst = dc.DroInstance(np.array([0.5, -0.2, 0.1]), 0.0)
        res = dc.inner_max_bruteforce(inst, dc.DivergenceKind.kl())
        assert res.value == pytest.approx(inst.scores.mean(), abs=1e-6)

    def test_large_eta_approaches_max(self):
        scores = np.array([0.9, -0.5, 0.1, 0.3])
        inst = dc.DroInstance(scores, 50.0)
        res = dc.inner_max_bruteforce(inst, dc.DivergenceKind.cressie_read(2.0))
        assert res.value == pytest.approx(scores.max(), abs=1e-3)

    def test_solution_is_feasible(self):
        rng = np.random.default_rng(3)
        inst = dc.DroInstance(rng.uniform(-1, 1, 6), 0.2)
        kind = dc.DivergenceKind.cressie_read(2.0)
        res = dc.inner_max_bruteforce(inst, kind)
        assert np.sum(res.q) == pytest.approx(1.0, abs=1e-8)
        assert dc.divergence(res.q, inst.base, kind) <= inst.eta + 1e-6

    @pytest.mark.parametrize("kind, reach", [
        (dc.DivergenceKind.kl(), np.log(4.0)),
        # (1/4) [phi(4) + 3 phi(0)] = (4.5 + 1.5) / 4 at gamma = 2
        (dc.DivergenceKind.cressie_read(2.0), 1.5),
    ])
    def test_best_vertex_inside_the_ball_is_returned_exactly(self, kind, reach):
        scores = np.array([0.3, -0.7, 0.9, 0.1])
        for eta in (reach, 2.0 * reach):
            res = dc.inner_max_bruteforce(dc.DroInstance(scores, eta), kind)
            assert res.value == scores.max()
            np.testing.assert_array_equal(res.q, [0.0, 0.0, 1.0, 0.0])
            assert res.converged

    @pytest.mark.parametrize("scores", [[0.0, 5e-324], [1e-300, 0.0, 2e-300], [2e300, -2e300, 0.0]])
    def test_extreme_score_spreads_solve_without_warnings(self, scores):
        # the barrier works on the scores over their spread, so a subnormal
        # or huge spread neither overflows t nor leaves the ball
        inst = dc.DroInstance(np.array(scores), 0.01)
        kind = dc.DivergenceKind.cressie_read(1.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = dc.inner_max_bruteforce(inst, kind)
        assert res.converged
        assert np.mean(scores) <= res.value <= np.max(scores)
        assert dc.divergence(res.q, inst.base, kind) <= inst.eta + 1e-9

    def test_wr_ball_exact_greedy(self):
        # caps alpha * P_j filled in descending score order
        scores = np.array([0.8, 0.2, -0.4, 0.6])
        inst = dc.DroInstance(scores, np.log(2.0))
        res = dc.inner_max_bruteforce(inst, dc.DivergenceKind.worst_regret())
        expected = 0.5 * 0.8 + 0.5 * 0.6  # two caps of 2/4 exhaust the mass
        assert res.value == pytest.approx(expected, abs=1e-9)


class TestDual:
    def test_certificate_is_tight(self):
        rng = np.random.default_rng(0)
        inst = dc.DroInstance(rng.uniform(-1, 1, 7), 0.1)
        cert = dc.solve_beta(inst, 2.0)
        assert cert.gap <= 1e-3

    def test_two_multiplier_matches_single(self):
        rng = np.random.default_rng(1)
        inst = dc.DroInstance(rng.uniform(-1, 1, 5), 0.3)
        cert = dc.solve_beta(inst, 1.5)
        rho = cert.beta_star + cert.lambda_star / 0.5
        assert dc.dual_lagrangian(inst, 1.5, cert.lambda_star, rho) == pytest.approx(
            cert.dual_value, abs=1e-9
        )

    @pytest.mark.parametrize("lam", [0.0, -0.5, float("nan")])
    def test_two_multiplier_dual_names_a_nonpositive_multiplier(self, lam):
        inst = dc.DroInstance(np.array([-0.2, 0.1, 0.4]), 0.1)
        with pytest.raises(ValueError, match=f"dual multiplier lam must be positive, got {lam}"):
            dc.dual_lagrangian(inst, 2.0, lam, 0.0)

    @given(score_arrays, st.floats(1.2, 3.0), st.floats(0.01, 0.5))
    @settings(max_examples=30, deadline=None)
    def test_dual_upper_bounds_primal(self, scores, gamma, eta):
        inst = dc.DroInstance(scores, eta)
        cert = dc.solve_beta(inst, gamma)
        # weak duality: every dual value sits above the inner max
        assert cert.dual_value >= cert.primal_value - 1e-6

    @pytest.mark.parametrize("gamma", [1.08, 2.0, 3.0])
    def test_radius_zero_certificate_is_the_mean(self, gamma):
        # eta = 0 holds only P: the margin runs off to -inf, its multiplier
        # to inf, and dual and primal are both the mean score
        f = np.random.default_rng(2).uniform(-1, 1, 7)
        cert = dc.solve_beta(dc.DroInstance(f, 0.0), gamma)
        assert cert.beta_star == -np.inf and cert.lambda_star == np.inf
        assert cert.dual_value == pytest.approx(f.mean(), rel=1e-15)
        assert cert.primal_value == pytest.approx(f.mean(), rel=1e-12)

    def test_bracket_expansion_finds_far_minimizer(self):
        # small eta pushes the minimizer far below min(scores) - 1
        inst = dc.DroInstance(np.array([0.9, -0.9, 0.5, -0.5]), 0.01)
        cert = dc.solve_beta(inst, 2.0)
        assert cert.gap <= 1e-3


def test_minimize_beta_objective_gamma_star_one():
    # beta + c * mean hinge; with c=2 the minimizer is the upper median
    scores = np.array([0.0, 1.0])
    beta, value = dc.minimize_beta_objective(scores, 1.0, 2.0)
    assert value == pytest.approx(1.0, abs=1e-6)


def test_minimize_beta_objective_rejects_c_below_one():
    scores = np.array([0.2, -0.4, 0.7])
    with pytest.raises(ValueError, match="needs c >= 1"):
        dc.minimize_beta_objective(scores, 2.0, 0.99, 0.1)
    # c = 1 still runs: no minimizer, beta* is exactly -inf and the value is
    # the infimum mean(f) + eps itself
    beta, value = dc.minimize_beta_objective(scores, 2.0, 1.0, 0.1)
    assert beta < scores.min()
    assert 0.0 <= value - (scores.mean() + 0.1) <= 1e-4


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "plus-inf"])
def test_minimize_beta_objective_names_a_score_neither_finite_nor_minus_inf(bad):
    with pytest.raises(ValueError, match="scores must be finite or -inf, with a finite score"):
        dc.minimize_beta_objective(np.array([[0.2, -0.4], [0.1, bad]]), 2.0, 1.2)


def test_minimize_beta_objective_names_a_row_without_a_finite_score():
    with pytest.raises(ValueError, match="with a finite score in every row"):
        dc.minimize_beta_objective(np.array([[0.2, -np.inf], [-np.inf, -np.inf]]), 2.0, 1.2)


@pytest.mark.parametrize("scores", [np.empty((2, 0)), np.array([])],
                         ids=["zero-columns", "empty-row"])
@pytest.mark.parametrize("gamma_star, c", [(2.0, 1.2), (1.0, 1.5), (2.0, 1.0)])
def test_minimize_beta_objective_names_a_block_without_columns(scores, gamma_star, c):
    # the row maxima that validate a block start from -inf, which a row
    # without columns keeps
    with pytest.raises(ValueError, match="with a finite score in every row"):
        dc.minimize_beta_objective(scores, gamma_star, c)


def test_margin_solver_and_training_gradient_agree():
    # the training kernel's margin gradient changes sign across the solver's beta*
    rng = np.random.default_rng(12)
    for _ in range(300):
        row = rng.uniform(-1, 1, (1, int(rng.integers(2, 30))))
        gamma_star = float(rng.uniform(1.0, 4.0))
        c = float(rng.uniform(1.05, 3.0))
        eps = float(rng.choice([0.0, 1e-2]))
        beta, _ = dc.minimize_beta_objective(row[0], gamma_star, c, eps)
        below, above = L.drrl_beta_gradient(np.vstack([row, row]), gamma_star, c, eps,
                                            np.array([beta - 1e-6, beta + 1e-6]))
        assert below <= 0.0 <= above, (gamma_star, c, eps, beta)


def _ccl_objective(f, c, eps, beta):
    return beta + c * np.maximum(f - beta, 0.0).mean() + eps


def test_ccl_margin_is_exact_on_ties_and_flat_segments():
    # CCL's objective is piecewise linear with its kinks at the scores, so
    # its minimum is the least value at a score. Rows with ties (scores on a
    # grid of quarters) and with n / c an integer (a flat segment), solved
    # as one -inf-padded block of ragged rows
    rng = np.random.default_rng(5)
    for c in (1.5, 1.7, 2.0, 2.5, 3.0, 4.0):
        rows = []
        for _ in range(30):
            n = int(rng.choice([8, 12, 24]))
            f = rng.uniform(-1.0, 1.0, n)
            rows.append(np.round(4.0 * f) / 4.0 if rng.random() < 0.5 else f)
        block = np.full((len(rows), 24), -np.inf)
        for i, f in enumerate(rows):
            block[i, rng.permutation(24)[:f.size]] = f
        eps = float(rng.choice([0.0, 0.1]))
        betas, values = dc.minimize_beta_objective(block, 1.0, c, eps)
        for f, beta, value in zip(rows, betas, values):
            least = min(_ccl_objective(f, c, eps, k) for k in f)
            assert abs(value - least) <= 1e-15, (c, f.size)
            assert abs(_ccl_objective(f, c, eps, beta) - least) <= 1e-15
            assert beta < f.max()  # some score lies above the margin


@pytest.mark.parametrize("gamma_star", [1.0, 2.0, 13.5])
@pytest.mark.parametrize("eps", [0.0, 0.1])
def test_radius_zero_margin_is_minus_infinity(gamma_star, eps):
    # c = 1 holds only P: the objective only falls toward mean(f) + eps as
    # beta -> -inf, and that infimum is what the solver returns
    f = np.random.default_rng(6).uniform(-1.0, 1.0, 9)
    beta, value = dc.minimize_beta_objective(f, gamma_star, 1.0, eps)
    assert beta == -np.inf
    assert value == pytest.approx(f.mean() + eps, rel=1e-15)
    assert all(value <= L.drrl_beta_objective(f, gamma_star, 1.0, eps, b) + 1e-14
               for b in (-10.0, -2.0, 0.0, 1.0))


@pytest.mark.parametrize("gamma_star, c, eps", [
    (1.0, 1.0, 0.1), (1.0, 2.0, 0.0), (1.5, 1.3, 0.0), (2.0, 1.3, 0.05), (7.25, 1.25, 0.1),
    (13.5, 1.05, 0.1), (1.6666666666666667, 5.0, 0.1)])
def test_padded_block_matches_its_row_solves(gamma_star, c, eps):
    # each row of a -inf-padded block solves as its own scores do: the
    # padding adds nothing to the means, eps^{g*} included
    rng = np.random.default_rng(7)
    block = rng.uniform(-1.0, 1.0, (12, 40))
    block[rng.random(block.shape) < 0.4] = -np.inf
    block[:, 0] = rng.uniform(-1.0, 1.0, 12)
    betas, values = dc.minimize_beta_objective(block, gamma_star, c, eps)
    for row, beta, value in zip(block, betas, values):
        f = row[np.isfinite(row)]
        want_beta, want_value = dc.minimize_beta_objective(f, gamma_star, c, eps)
        assert value == pytest.approx(want_value, rel=1e-12)
        if c > 1.0:
            assert value == pytest.approx(L.drrl_beta_objective(f, gamma_star, c, eps, beta),
                                          rel=1e-12)
        assert beta == want_beta


@pytest.mark.parametrize("gamma_star, c, eps", [
    (2.0, 1.0, 0.1), (1.0, 2.0, 0.0), (2.0, 1.3, 0.05), (13.5, 1.05, 0.1)])
def test_float32_block_solves_as_its_float64_cast(gamma_star, c, eps):
    # the row maxima are taken in float32, exactly; the margins and minima
    # are formed in float64, bit for bit as on the cast block
    rng = np.random.default_rng(8)
    block = rng.uniform(-1.0, 1.0, (12, 40)).astype(np.float32)
    block[rng.random(block.shape) < 0.4] = -np.inf
    block[:, 0] = rng.uniform(-1.0, 1.0, 12)
    beta, minimum = dc.solve_margins(block, gamma_star, c, eps)
    want_beta, want_minimum = dc.solve_margins(block.astype(float), gamma_star, c, eps)
    assert beta.dtype == np.float64 and beta.tobytes() == want_beta.tobytes()
    assert minimum().tobytes() == want_minimum().tobytes()


def _preset_shaped_rows(rng):
    """(scores, g*, c, eps): the dual's rows as the verify suites draw them
    (4 to 64 uniform scores, gamma in 1.08 to 3, eps = 0), and 1024
    cosine-like scores under the two presets with c > 1 (eps = 0.1)."""
    out = []
    for _ in range(60):
        gamma = float(rng.choice([1.08, 1.16, 1.27, 1.5, 2.0, 2.5, 3.0]))
        eta = float(rng.choice([0.01, 0.1, 0.5, 1.59]))
        out.append((rng.uniform(-1.0, 1.0, int(rng.integers(4, 65))), gamma / (gamma - 1.0),
                    dc.c_gamma(eta, gamma), 0.0))
    for gamma_star, c in ((7.2500000000000036, 1.25), (1.6666666666666667, 5.0)):
        for _ in range(10):
            out.append((np.clip(rng.normal(0.2, 0.3, 1024), -1.0, 1.0), gamma_star, c, 0.1))
    return out


def test_scaled_margin_objective_matches_the_unscaled_search():
    # the solver divides each term by the largest before its power; at the
    # suites' and presets' g* that moves its minimum only by rounding: at
    # most the unscaled search's + 1e-12 relative, and beta* within 1e-6,
    # as far as the two gradients' signs agree near a flat minimum
    for f, gamma_star, c, eps in _preset_shaped_rows(np.random.default_rng(8)):
        beta, value = dc.minimize_beta_objective(f, gamma_star, c, eps)
        ref_beta, ref_value = ref.minimize_beta_objective(f, gamma_star, c, eps)
        scale = max(abs(ref_value), abs(ref_beta))
        assert value <= ref_value + 1e-12 * scale, (gamma_star, c, f.size)
        assert L.drrl_beta_objective(f, gamma_star, c, eps, beta) <= ref_value + 1e-12 * scale
        assert abs(beta - ref_beta) <= 1e-6 * (1.0 + abs(ref_beta))


@pytest.mark.parametrize("c", [1.0 + 1e-6, 1.05, 1.25, 5.0])
@pytest.mark.parametrize("gamma_star", [1.11, 1.67, 7.25, 13.5])
@pytest.mark.parametrize("eps", [0.0, 0.1])
def test_resolved_margin_is_globally_optimal(c, gamma_star, eps):
    # independent of any reference search: the solver's value is at most the
    # kernel's objective at every point of a 400-point grid over the bracket
    # [min(min f, (c mean f - max f) / (c - 1)), max f] that holds beta*.
    # At c near 1 the minimizer lies far below min f; at eps > 0 and g* near
    # 1 it sits on a score
    rng = np.random.default_rng(9)
    for n in (2, 5, 8, 64):
        f = rng.uniform(-1.0, 1.0, n)
        beta, value = dc.minimize_beta_objective(f, gamma_star, c, eps)
        lo = min(f.min(), (c * f.mean() - f.max()) / (c - 1.0))
        assert lo <= beta < f.max()
        scale = max(abs(value), abs(beta))
        grid = [L.drrl_beta_objective(f, gamma_star, c, eps, b)
                for b in np.linspace(lo, f.max(), 400)]
        assert value <= min(grid) + 1e-9 * scale, (n, beta, value, min(grid))


@pytest.mark.parametrize("offset", [1e9, 1e12])
def test_margin_bisection_stops_between_adjacent_floats(offset):
    # scores this large lie further apart than the bisection's final bracket
    # width, so it stops where no float lies between its ends: below the top
    # score, at a value no worse than a 400-point grid's
    f = offset + np.random.default_rng(10).uniform(-1.0, 1.0, 20)
    for gamma_star, c, eps in ((2.0, 1.2, 0.1), (7.25, 1.25, 0.0)):
        beta, value = dc.minimize_beta_objective(f, gamma_star, c, eps)
        assert beta < f.max()
        lo = min(f.min(), (c * f.mean() - f.max()) / (c - 1.0))
        grid = [L.drrl_beta_objective(f, gamma_star, c, eps, b)
                for b in np.linspace(lo, f.max(), 400)]
        assert value <= min(grid) + 4 * np.spacing(value), (gamma_star, beta, value)


def test_ccl_ball_equivalence_boundary_cases():
    inst = dc.DroInstance(np.array([0.4, -0.2, 0.6]), 0.0)
    rep1 = dc.verify_ccl_ball_equivalence(inst, 1.0)
    assert rep1["primal"] == pytest.approx(inst.scores.mean(), abs=1e-6)
    assert rep1["dual"] == pytest.approx(inst.scores.mean(), abs=1e-6)
    repn = dc.verify_ccl_ball_equivalence(inst, 3.0)
    assert repn["primal"] == pytest.approx(inst.scores.max(), abs=1e-6)
    assert repn["dual"] == pytest.approx(inst.scores.max(), abs=1e-6)


def test_ccl_ball_equivalence_names_alpha_below_one():
    with pytest.raises(ValueError, match="alpha must be at least 1"):
        dc.verify_ccl_ball_equivalence(dc.DroInstance(np.array([0.4, -0.2]), 0.0), 0.5)


# (gamma, n, eta) cases for the oracle against the scalar reference;
# gamma None is KL. They cover the divergences KL and CR gamma in {1.001,
# 1.1, 1.5, 2, 3}, n in {1, 2, 4, 5, 6, 10} and eta in {0.01, 0.1, 0.5, 50},
# each divergence with two n and two radii: the full 144-case product takes
# about half a minute in the scalar reference.
REFERENCE_CASES = [
    (None, 10, 0.01), (None, 2, 0.5),
    (1.001, 5, 0.1), (1.001, 6, 50.0),
    (1.1, 4, 0.01), (1.1, 1, 0.5),
    (1.5, 6, 0.1), (1.5, 2, 50.0),
    (2.0, 1, 0.01), (2.0, 10, 0.5),
    (3.0, 5, 0.5), (3.0, 4, 50.0),
]


@pytest.mark.parametrize("case", range(len(REFERENCE_CASES)))
def test_batched_oracle_matches_scalar_reference(case):
    gamma, n, eta = REFERENCE_CASES[case]
    kind = dc.DivergenceKind.kl() if gamma is None else dc.DivergenceKind.cressie_read(gamma)
    inst = dc.DroInstance(np.random.default_rng(case).uniform(-1, 1, n), eta)
    res = dc.inner_max_bruteforce(inst, kind)
    value, _ = ref.inner_max_bruteforce(inst, kind, seed=case)
    assert np.all(res.q >= 0.0)
    assert res.q.sum() == pytest.approx(1.0, abs=1e-12)
    assert dc.divergence(res.q, inst.base, kind) <= eta + 1e-9
    # the barrier method and the reference's polished ascent reach the same
    # maximum by unrelated routes
    assert abs(res.value - value) <= 1e-9


@pytest.mark.parametrize("case", [k for k, (gamma, _, _) in enumerate(REFERENCE_CASES)
                                  if gamma is not None])
def test_oracle_never_above_the_dual(case):
    # weak duality: the margin-form dual at any beta bounds the ball's maximum.
    # KL has no margin-form dual here. At gamma = 1.001 (g* = 1001) the solver
    # holds because it scales each power sum by its largest term.
    gamma, n, eta = REFERENCE_CASES[case]
    inst = dc.DroInstance(np.random.default_rng(case).uniform(-1, 1, n), eta)
    res = dc.inner_max_bruteforce(inst, dc.DivergenceKind.cressie_read(gamma))
    _, dual = dc.minimize_beta_objective(inst.scores, dc.gamma_conjugate(gamma),
                                         dc.c_gamma(eta, gamma))
    assert res.value <= dual + 1e-12


def test_import_leaves_scipy_optimize_out():
    # scipy.optimize alone adds about a third of a second to every start-up
    path = [str(Path(dc.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    code = "import sys, drrl; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env=env)
    assert out.stdout.strip() == "False"
