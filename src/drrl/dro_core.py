"""Divergences, Fenchel conjugates, and a brute-force solver for the
constrained inner maximization  max_Q E_Q[f]  s.t.  D(Q, P) <= eta,
with P uniform over the sampled negatives.

The brute-force route is deliberately independent of the closed-form dual:
it climbs the feasible set directly (projected ascent from all starts in
lockstep, a grid-bracketed search for the ball's boundary, Dirichlet
restarts, and an SLSQP polish) so that the dual formulas can be certified
numerically against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .losses import drrl_beta_objective

KL = "kl"
WORST_REGRET = "worst_regret"
CRESSIE_READ = "cressie_read"

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0


@dataclass(frozen=True)
class DivergenceKind:
    kind: str
    gamma: float | None = None

    def __post_init__(self):
        if self.kind not in (KL, WORST_REGRET, CRESSIE_READ):
            raise ValueError(f"unknown divergence kind: {self.kind!r}")
        if self.kind == CRESSIE_READ:
            if self.gamma is None or self.gamma <= 1.0:
                raise ValueError("Cressie-Read divergence needs gamma > 1")

    @classmethod
    def kl(cls):
        return cls(KL)

    @classmethod
    def worst_regret(cls):
        return cls(WORST_REGRET)

    @classmethod
    def cressie_read(cls, gamma):
        return cls(CRESSIE_READ, gamma)


@dataclass(frozen=True)
class DroInstance:
    """Scores of sampled negatives with a uniform base distribution and
    a robustness radius eta."""

    scores: np.ndarray
    eta: float

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=float)
        if scores.ndim != 1 or scores.size == 0:
            raise ValueError("scores must be a nonempty 1-d array")
        if not np.all(np.isfinite(scores)):
            raise ValueError("scores must be finite")
        if self.eta < 0:
            raise ValueError("eta must be nonnegative")
        object.__setattr__(self, "scores", scores)

    @property
    def n(self):
        return self.scores.size

    @property
    def base(self):
        return np.full(self.n, 1.0 / self.n)


@dataclass
class InnerMaxResult:
    value: float
    q: np.ndarray
    divergence: float
    converged: bool


@dataclass
class DualCertificate:
    beta_star: float
    lambda_star: float
    dual_value: float
    primal_value: float

    @property
    def gap(self):
        return abs(self.dual_value - self.primal_value)


def gamma_conjugate(gamma):
    """gamma* = gamma / (gamma - 1)."""
    if gamma <= 1.0:
        raise ValueError("gamma must exceed 1")
    return gamma / (gamma - 1.0)


def phi_gamma(t, gamma):
    """Cressie-Read generator phi_gamma(t) = (t^g - g t + g - 1) / (g (g-1))."""
    if gamma <= 1.0:
        raise ValueError("gamma must exceed 1")
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("phi_gamma is defined for t >= 0 only")
    out = (t**gamma - gamma * t + gamma - 1.0) / (gamma * (gamma - 1.0))
    return float(out) if out.ndim == 0 else out


def phi_conjugate(x, gamma):
    """Fenchel conjugate of phi_gamma:
    phi*(x) = ((g-1) x + 1)_+^{g*} / g - 1/g."""
    if gamma <= 1.0:
        raise ValueError("gamma must exceed 1")
    gstar = gamma_conjugate(gamma)
    x = np.asarray(x, dtype=float)
    inner = np.maximum((gamma - 1.0) * x + 1.0, 0.0)
    out = inner**gstar / gamma - 1.0 / gamma
    return float(out) if out.ndim == 0 else out


def c_gamma(eta, gamma):
    """Scalar radius reparameterization (1 + g (g-1) eta)^{1/g}."""
    if eta < 0:
        raise ValueError("eta must be nonnegative")
    if gamma <= 1.0:
        raise ValueError("gamma must exceed 1")
    return (1.0 + gamma * (gamma - 1.0) * eta) ** (1.0 / gamma)


def divergence(q, p, kind: DivergenceKind):
    """D(Q, P) for the three supported divergences.

    Returns math.inf (never clipped) when Q puts mass where P has none.
    """
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    if q.shape != p.shape:
        raise ValueError("Q and P must have the same length")
    if np.any((q > 0) & (p == 0)):
        return math.inf
    support = q > 0
    if kind.kind == KL:
        return float(np.sum(q[support] * np.log(q[support] / p[support])))
    if kind.kind == WORST_REGRET:
        if not np.any(support):
            return math.inf
        return float(np.max(np.log(q[support] / p[support])))
    ratio = np.zeros_like(q)
    pos = p > 0
    ratio[pos] = q[pos] / p[pos]
    return float(np.sum(p[pos] * phi_gamma(ratio[pos], kind.gamma)))


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


def golden_section(fn, a, b, tol=1e-8):
    """Golden-section minimization of a unimodal function on [a, b].

    Returns (x_min, f_min) with bracket width below tol.
    """
    a, b = min(a, b), max(a, b)
    h = b - a
    if h <= tol:
        x = 0.5 * (a + b)
        return x, fn(x)
    n = int(math.ceil(math.log(tol / h) / math.log(_INV_PHI)))
    c = a + _INV_PHI2 * h
    d = a + _INV_PHI * h
    yc = fn(c)
    yd = fn(d)
    for _ in range(n - 1):
        h *= _INV_PHI
        if yc < yd:
            b, d, yd = d, c, yc
            c = a + _INV_PHI2 * h
            yc = fn(c)
        else:
            a, c, yc = c, d, yd
            d = a + _INV_PHI * h
            yd = fn(d)
    if yc < yd:
        return c, yc
    return d, yd


def _div_rows(q, kind):
    """Divergence from uniform of each row of `q` (`(..., n)` -> `(...)`),
    without validation, for the oracle's hot path. Rows are nonnegative;
    zero coordinates add nothing to KL."""
    n = q.shape[-1]
    if kind.kind == KL:
        return np.sum(q * np.log(np.where(q > 0, q * n, 1.0)), axis=-1)
    g = kind.gamma
    t = q * n
    return np.sum(t**g - g * t + g - 1.0, axis=-1) / n / (g * (g - 1.0))


_GRID = 32  # grid intervals per round of the boundary search
_ROUNDS = 10  # 32^10 = 2^50: the resolution of a 50-step bisection


def _boundary_rows(a, b, kind, eta):
    """Row-wise largest feasible point on the segment from a feasible `a`
    (`(n,)` or `(m, n)`) toward a target `b` (`(m, n)`).

    D is convex, so the feasible t in [0, 1] form an interval [0, t*]. Rows
    whose target is feasible return it; the others bracket t* on a grid of
    `_GRID` intervals per round, moving to the grid point before the first
    infeasible one, for `_ROUNDS` rounds. Points are (1 - t) a + t b, which
    stays nonnegative in floating point (a + t (b - a) can round a zero
    coordinate below zero, and a fractional power of that is NaN).
    """
    a = np.broadcast_to(a, b.shape)
    out = b.copy()
    rows = np.flatnonzero(_div_rows(b, kind) > eta)
    if rows.size == 0:
        return out
    a, b = a[rows, None, :], b[rows, None, :]
    steps = np.arange(1, _GRID)
    lo = np.zeros(rows.size)
    width = 1.0
    for _ in range(_ROUNDS):
        width /= _GRID
        t = (lo[:, None] + width * steps)[..., None]
        feasible = _div_rows((1 - t) * a + t * b, kind) <= eta
        # move to the last grid point before the first infeasible one
        lo = lo + width * np.logical_and.accumulate(feasible, axis=1).sum(axis=1)
    t = lo[:, None]
    out[rows] = (1 - t) * a[:, 0] + t * b[:, 0]
    return out


def _ascend(q, f, kind, eta):
    """Feasible-direction ascent of the linear objective f . Q from every
    row of `q` in lockstep, for at most 40 rounds; returns the final rows
    and their values.

    Each row keeps its own step, halved when a move does not improve it,
    and stops once the step drops below 1e-10. The objective is linear and
    the feasible set convex, so any local maximum found this way is global;
    restarts are insurance only.
    """
    q = q.copy()
    value = q @ f
    step = np.ones(len(q))
    active = np.ones(len(q), dtype=bool)
    for _ in range(40):
        rows = np.flatnonzero(active)
        if rows.size == 0:
            break
        target = project_simplex(q[rows] + step[rows, None] * f)
        cand = _boundary_rows(q[rows], target, kind, eta)
        cand_value = cand @ f
        up = cand_value > value[rows] + 1e-14
        q[rows[up]] = cand[up]
        value[rows[up]] = cand_value[up]
        stay = rows[~up]
        step[stay] *= 0.5
        active[stay[step[stay] < 1e-10]] = False
    return q, value


def _wr_greedy(scores, p, alpha_cap):
    """Exact maximizer under the worst-case-regret ball: each coordinate is
    capped at alpha * P_j; fill the caps in descending score order."""
    n = scores.size
    cap = alpha_cap * p
    order = np.argsort(-scores, kind="stable")
    q = np.zeros(n)
    mass = 1.0
    for j in order:
        take = min(cap[j], mass)
        q[j] = take
        mass -= take
        if mass <= 0:
            break
    return q


def _div_grad(q, p, kind):
    q = np.maximum(q, 1e-15)
    ratio = q / p
    if kind.kind == KL:
        return np.log(ratio) + 1.0
    g = kind.gamma
    return (ratio ** (g - 1.0) - 1.0) / (g - 1.0)


def _slsqp_polish(q0, f, p, kind, eta):
    n = f.size
    cons = [
        {"type": "eq", "fun": lambda q: q.sum() - 1.0,
         "jac": lambda q: np.ones(n)},
        {"type": "ineq", "fun": lambda q: eta - divergence(q, p, kind),
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
    return _boundary_rows(p, (q / s)[None], kind, eta)[0]


def inner_max_bruteforce(inst: DroInstance, kind: DivergenceKind, seed=0) -> InnerMaxResult:
    """Numerically maximize E_Q[f] over the divergence ball around uniform P.

    Projected ascent on the simplex with a boundary search for feasibility,
    from P and four Dirichlet draws of the `seed` stream (dense grid
    refinement for very small n), all starts climbing in lockstep, then an
    SLSQP polish from the best point found.
    """
    f = inst.scores
    p = inst.base
    n = inst.n
    eta = inst.eta
    if eta == 0.0:
        return InnerMaxResult(float(f @ p), p.copy(), 0.0, True)
    if kind.kind == WORST_REGRET:
        q = _wr_greedy(f, p, math.exp(eta))
        return InnerMaxResult(float(f @ q), q, divergence(q, p, kind), True)

    rng = np.random.default_rng(seed)
    draws = rng.dirichlet(np.ones(n), size=4)
    starts = [p[None], _boundary_rows(p, draws, kind, eta)]
    if n <= 5:
        # dense refinement: push random directions to the ball boundary
        pushed = _boundary_rows(p, rng.dirichlet(np.ones(n), size=500), kind, eta)
        starts.append(pushed[np.argsort(pushed @ f)[-4:]])

    q, values = _ascend(np.vstack(starts), f, kind, eta)
    best = int(np.argmax(values))
    best_q, best_v = q[best], float(values[best])

    converged = True
    polished = _slsqp_polish(best_q, f, p, kind, eta)
    if polished is not None and float(f @ polished) > best_v:
        best_q, best_v = polished, float(f @ polished)
    achieved = divergence(best_q, p, kind)
    if achieved > eta + 1e-6:
        best_q = _boundary_rows(p, best_q[None], kind, eta)[0]
        best_v = float(f @ best_q)
        achieved = divergence(best_q, p, kind)
        converged = False
    return InnerMaxResult(best_v, best_q, achieved, converged)


def dual_lagrangian(inst: DroInstance, gamma, lam, rho):
    """Two-multiplier dual  lam * eta + rho + lam * E[phi*((f - rho)/lam)]."""
    if lam <= 0.0:
        # limit lam -> 0: lam * phi*((f - rho)/lam) -> (f - rho)_+ * inf unless
        # all scores are below rho; only that branch is meaningful here
        hinge = np.maximum(inst.scores - rho, 0.0)
        if np.all(hinge == 0.0):
            return float(rho)
        return math.inf
    x = (inst.scores - rho) / lam
    return float(lam * inst.eta + rho + lam * np.mean(phi_conjugate(x, gamma)))


def lambda_star(inst: DroInstance, gamma, beta):
    """Optimal multiplier for a fixed margin:
    lam* = (g-1) (g (g-1) eta + 1)^{-1/g*} E[(f - beta)_+^{g*}]^{1/g*}."""
    gstar = gamma_conjugate(gamma)
    hinge = np.maximum(inst.scores - beta, 0.0)
    moment = np.mean(hinge**gstar) ** (1.0 / gstar)
    scale = (gamma * (gamma - 1.0) * inst.eta + 1.0) ** (-1.0 / gstar)
    return float((gamma - 1.0) * scale * moment)


def _expand_bracket(fn, lo, hi, max_doublings=40):
    """Push the lower bracket edge down while the function is still strictly
    decreasing there; for small radii the margin minimizer sits far below
    min(scores)."""
    width = hi - lo
    probe = max(width * 1e-3, 1e-9)
    for _ in range(max_doublings):
        if fn(lo) >= fn(lo + probe) - 1e-14:
            break
        lo -= width
        width *= 2.0
    return lo


def minimize_beta_objective(neg_scores, gamma_star, c, eps=0.0, tol=1e-8):
    """Minimize the margin objective  beta + M(beta),
    M(beta) = (mean [c (f - beta)_+ + eps]^{g*})^{1/g*}  (`losses`), over beta.

    This is the one margin solver: (g*, c_gamma(eta), 0) gives the Renyi
    dual of `solve_beta`, (1, alpha, 0) the truncated CCL dual, and
    gamma_star = 1 is allowed throughout. Returns (beta*, objective value).

    For c < 1 the objective is unbounded below (its slope tends to 1 - c > 0
    as beta -> -inf), so it is rejected. At c = 1 it decreases toward its
    infimum mean(f) + eps as beta -> -inf without reaching it, except at
    g* = 1, eps = 0, where it is flat below min(scores). beta* is then near
    the lower bracket edge, where two probes first came out level to 1e-14:
    a point on the flat tail, not a minimizer, and its location is
    arbitrary (tens of thousands below the scores on long rows).
    """
    if c < 1:
        raise ValueError(
            f"margin objective needs c >= 1, got c = {c}: for c < 1 it is unbounded below"
        )
    if tol <= 0:
        raise ValueError("tol must be positive")
    scores = np.asarray(neg_scores, dtype=float)
    fn = lambda beta: drrl_beta_objective(scores, gamma_star, c, eps, beta)
    hi = float(scores.max())
    lo = _expand_bracket(fn, float(scores.min()) - 1.0, hi)
    return golden_section(fn, lo, hi, tol)


def solve_beta(inst: DroInstance, gamma) -> DualCertificate:
    """Minimize the Renyi dual  beta + c_gamma(eta) ||(f - beta)_+||_{g*}
    (norm under the empirical uniform distribution) over the margin to
    1e-8, plus the multiplier certificate and a brute-force primal value."""
    beta_star, value = minimize_beta_objective(
        inst.scores, gamma_conjugate(gamma), c_gamma(inst.eta, gamma), 0.0, 1e-8)
    lam = lambda_star(inst, gamma, beta_star)
    primal = inner_max_bruteforce(inst, DivergenceKind.cressie_read(gamma))
    return DualCertificate(beta_star, lam, value, primal.value)


def verify_ccl_ball_equivalence(inst: DroInstance, alpha):
    """Compare the worst-case-regret ball value (radius log alpha) against the
    margin-form dual  min_beta { beta + alpha * mean (f - beta)_+ }, solved
    to 1e-10."""
    if alpha < 1:
        raise ValueError("alpha must be at least 1")
    wr_inst = DroInstance(inst.scores, math.log(alpha))
    primal = inner_max_bruteforce(wr_inst, DivergenceKind.worst_regret())
    beta, dual = minimize_beta_objective(inst.scores, 1.0, alpha, 0.0, 1e-10)
    return {
        "alpha": float(alpha),
        "primal": primal.value,
        "dual": float(dual),
        "beta": float(beta),
        "gap": abs(primal.value - dual),
    }

