"""Divergences, Fenchel conjugates, and a brute-force solver for the
constrained inner maximization  max_Q E_Q[f]  s.t.  D(Q, P) <= eta,
with P uniform over the sampled negatives.

The brute-force route is deliberately independent of the closed-form dual:
it solves the primal directly, by a log-barrier interior-point method with
Newton steps that uses only the divergence and its first two derivatives,
starts from P and never sees a margin or a worst-case weight, so that the
dual formulas can be certified numerically against it.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

KL = "kl"
WORST_REGRET = "worst_regret"
CRESSIE_READ = "cressie_read"


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


def _phi_slope(x, g):
    """phi'(t) = (t^(g-1) - 1) / (g - 1) of the Cressie-Read generator at
    t = 1 + x, and ln t at its KL limit g = 1, formed as
    expm1((g-1) log1p(x)) / (g-1): the power form cancels as g -> 1, and x
    keeps the digits of t near 1. At t = 0 (x = -1) it reads 0, which
    `phi_gamma` multiplies by t = 0; the barrier's iterates are positive."""
    lt = np.log1p(np.where(x > -1.0, x, 0.0))
    return lt if g == 1.0 else np.expm1((g - 1.0) * lt) / (g - 1.0)


def phi_gamma(t, gamma):
    """Cressie-Read generator phi_gamma(t) = (t^g - g t + g - 1) / (g (g-1)),
    evaluated as [t expm1((g-1) ln t) / (g-1) - (t - 1)] / g, which keeps its
    digits as g -> 1; phi_gamma(0) = 1/g."""
    if gamma <= 1.0:
        raise ValueError("gamma must exceed 1")
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("phi_gamma is defined for t >= 0 only")
    out = (t * _phi_slope(t - 1.0, gamma) - (t - 1.0)) / gamma
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


def _wr_greedy(scores, cap):
    """Exact maximizer under the worst-case-regret ball around uniform P:
    each coordinate is capped at `cap` = alpha / n; fill the caps in
    descending score order."""
    order = np.argsort(-scores, kind="stable")
    q = np.zeros(scores.size)
    mass = 1.0
    for j in order:
        take = min(cap, mass)
        q[j] = take
        mass -= take
        if mass <= 0:
            break
    return q


_T_FACTOR = 8.0  # barrier weight growth per centering
_GAP = 1e-12  # the last centering's duality-gap bound (n + 1) / t, in units of the scores' spread
_NEWTON_TOL = 1e-10  # a centering ends once half the squared Newton decrement is below this
_NEWTON_STEPS = 100  # Newton steps per centering before the solve counts as not converged
_EPS = float(np.finfo(float).eps)


def _barrier_max(f, g, eta):
    """Maximize f . q over {q > 0, sum q = 1, D(q) < eta}, D the divergence
    from uniform with generator phi_g (g = 1 for KL), by the primal
    log-barrier method (Boyd & Vandenberghe, ch. 11). Returns (q, converged).

    From uniform P, each centering takes Newton steps on
    -t f.q - log(eta - D(q)) - sum log q subject to sum q = 1, then t grows by
    `_T_FACTOR` until the gap bound (n + 1) / t is `_GAP` (f scaled to unit
    spread), or until the slack is below the rounding error of D. On the simplex
    D(q) = mean phi(n q) = sum q phi'(n q) / g, and the slack s = eta - D is
    formed from the second sum, whose terms do not cancel near q = P. The
    Hessian is diagonal plus the rank one D' D'^T / s^2, so Sherman-Morrison
    solves the equality-constrained step in O(n). A ratio test and a
    backtracking line search keep every iterate strictly feasible. The solve
    counts as not converged if a centering runs out of Newton steps or its
    line search finds no decrease.
    """
    n = f.size
    # the same problem on sum q = 1, in units of the spread, and without
    # t max f in every gradient
    f = (f - f.max()) / np.ptp(f)
    # q and x = n q - 1 take the same steps: q keeps the digits of small
    # coordinates, x those of coordinates near P, where D is formed from it
    q = np.full(n, 1.0 / n)
    x = np.zeros(n)
    t = n + 1.0  # max f - f . P, the gap at P, is at most the spread, 1
    converged = True
    while True:
        for _ in range(_NEWTON_STEPS):
            slope = _phi_slope(x, g)
            s = eta - (q @ slope) / g
            resolution = n * _EPS * (q @ np.abs(slope)) / g  # rounding error of D(q)
            if s <= resolution:
                return q, converged  # on the ball's boundary as far as float64 can tell
            inv_q = 1.0 / q
            u = slope / s
            grad = u - inv_q - t * f
            # D'' = n phi''(n q) = (1 + (g-1) phi'(n q)) / q
            inv_diag = 1.0 / ((1.0 + (g - 1.0) * slope) * inv_q / s + inv_q * inv_q)
            # (diag + u u^T)^{-1} applied to grad and to ones
            w = u * inv_diag
            k = 1.0 + u @ w
            h_grad = grad * inv_diag
            h_grad -= (h_grad @ u / k) * w
            h_ones = inv_diag - (inv_diag @ u / k) * w
            # the Newton step on sum q = 1, -H^{-1} (grad - m), and its decrement
            m = h_grad.sum() / h_ones.sum()
            step = m * h_ones - h_grad
            step -= step.sum() / n
            decrement = (m - grad) @ step
            # centered once half the decrement is below _NEWTON_TOL, or once the
            # line search could not see the decrease it tests for, a quarter
            # of the decrement, above the rounding of log s, resolution / s
            if decrement <= max(2.0 * _NEWTON_TOL, 4.0 * resolution / s):
                break
            # ratio tests: q keeps 1% of each coordinate, and the slack's
            # first-order model s - alpha D'.step keeps half of s. D is
            # convex, so the slack itself falls faster; the line search
            # keeps a tenth of it, which holds the iterate off the boundary
            rel = step * inv_q
            lowest = rel.min()
            alpha = 1.0 if lowest >= -0.99 else -0.99 / lowest
            fall = (slope @ step) / s
            if alpha * fall > 0.5:
                alpha = 0.5 / fall
            gain = t * (f @ step)
            while alpha > 1e-12:
                cand_q = q + alpha * step
                cand_x = x + alpha * n * step
                s_new = eta - (cand_q @ _phi_slope(cand_x, g)) / g
                if s_new > 0.1 * s and (
                    -alpha * gain - np.log(s_new / s) - np.sum(np.log1p(alpha * rel))
                    <= -0.25 * alpha * decrement
                ):
                    break
                alpha *= 0.5
            else:
                converged = False
                break
            q, x = cand_q, cand_x
        else:
            converged = False
        if (n + 1) / t <= _GAP:
            return q, converged
        t *= _T_FACTOR


def inner_max_bruteforce(inst: DroInstance, kind: DivergenceKind) -> InnerMaxResult:
    """Maximize E_Q[f] over the divergence ball D(Q, P) <= eta around uniform P.

    Exact when P is optimal (eta = 0 or constant scores), on the
    worst-case-regret ball (its caps filled greedily), and when the best
    vertex lies in the ball (the simplex's own maximizer). Otherwise the
    primal barrier method `_barrier_max` from P, to a duality-gap bound of
    1e-12 times the scores' spread.
    """
    f = inst.scores
    p = inst.base
    eta = inst.eta
    if eta == 0.0 or np.ptp(f) == 0.0:
        return InnerMaxResult(float(f @ p), p.copy(), True)
    if kind.kind == WORST_REGRET:
        q = _wr_greedy(f, math.exp(eta) * p[0])
        return InnerMaxResult(float(f @ q), q, True)
    vertex = np.zeros(inst.n)
    vertex[np.argmax(f)] = 1.0
    if divergence(vertex, p, kind) <= eta:
        return InnerMaxResult(float(f.max()), vertex, True)
    q, converged = _barrier_max(f, 1.0 if kind.kind == KL else kind.gamma, eta)
    return InnerMaxResult(float(f @ q), q, converged)


def dual_lagrangian(inst: DroInstance, gamma, lam, rho):
    """Two-multiplier dual  lam * eta + rho + lam * E[phi*((f - rho)/lam)]
    at a multiplier lam > 0, as `lambda_star` gives at the margin solver's
    beta* (which lies below the largest score, so the hinge moment is
    positive). Any other lam raises ValueError."""
    if not lam > 0.0:
        raise ValueError(f"dual multiplier lam must be positive, got {lam}")
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


_BISECT_TOL = 1e-8  # the margin bisection's final bracket width


def _bisect_margin(f, top, gamma_star, c, eps):
    """(beta*, h(beta*)) for h(beta) = beta + M(beta) on one row of finite
    scores f with largest `top`, at g* > 1 and c > 1.

    h is convex, so beta* is where its slope
    1 - c T^{1-g*} mean(t^{g*-1} 1[f > beta]) changes sign. Here t are the
    terms c (f - beta)_+ + eps divided by their largest,
    m = c (top - beta) + eps, and T = (mean t^{g*})^{1/g*}, so M = m T and
    no g* over- or underflows. Below min f the power-mean inequality gives
    h(beta) >= c mean f + eps - (c - 1) beta, which exceeds h(top) = top + eps
    below (c mean f - top) / (c - 1), and above top h rises: bisection on
    the slope's sign halves [min(min f, (c mean f - top) / (c - 1)), top]
    down to `_BISECT_TOL`."""
    f = np.sort(f)
    ascending = f.tolist()  # bisect_right on a list costs less than a searchsorted call

    def slope_and_value(b):
        m = c * (top - b) + eps
        below = bisect.bisect_right(ascending, b)  # truncated terms, each t = eps / m
        t = ((f[below:] - b) * c + eps) / m
        low = t ** (gamma_star - 1.0)
        power_mean = ((float(low @ t) + below * (eps / m) ** gamma_star) / f.size) ** (
            1.0 / gamma_star)
        slope = 1.0 - c * power_mean ** (1.0 - gamma_star) * float(np.add.reduce(low)) / f.size
        return slope, b + m * power_mean

    lo, hi = min(float(f[0]), (c * float(f.mean()) - top) / (c - 1.0)), top
    while hi - lo > _BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # adjacent floats, at scores of magnitude 1e7 and up
            break
        if slope_and_value(mid)[0] > 0.0:
            hi = mid
        else:
            lo = mid
    # h has a kink at each score when eps > 0, and at the top score where its
    # term is the only one: a minimum on a kink is that score, taken one
    # float below it, as the top is, so that the score keeps its weight
    mid = 0.5 * (lo + hi)
    nearest = f[np.abs(f - mid).argmin()]
    points = {min(mid, float(np.nextafter(top, -np.inf))), float(np.nextafter(nearest, -np.inf))}
    value, beta = min((slope_and_value(b)[1], b) for b in points)
    return beta, value


def solve_margins(scores, gamma_star, c, eps=0.0):
    """The margins of `minimize_beta_objective` on a block `(B, n)`, checked
    as it checks them: a `(B,)` array, and a function that forms the rows'
    minima. The bisection at g* > 1 finds the minima on its way; at c = 1
    and g* = 1 they take passes over the whole block of their own, which a
    caller that reads only the margins never makes."""
    if c < 1:
        raise ValueError(
            f"margin objective needs c >= 1, got c = {c}: for c < 1 it is unbounded below"
        )
    f = np.atleast_2d(np.asarray(scores))
    if f.dtype != np.float32:
        f = f.astype(float, copy=False)
    # a row's max, exact in the block's dtype, is nan or +inf where it holds
    # either, and -inf where it holds no finite score (the initial value,
    # also on a zero-column block); a float32 block is cast to float64 only
    # where the margins or minima need it
    top = f.max(axis=1, initial=-np.inf)
    if not np.isfinite(top).all():
        raise ValueError("scores must be finite or -inf, with a finite score in every row")
    if c == 1.0:
        def minimum():
            g = f.astype(float, copy=False)
            present = g > -np.inf
            return np.add.reduce(g, 1, where=present) / np.count_nonzero(present, axis=1) + eps
        return np.full(len(f), -np.inf), minimum
    top = top.astype(float)
    if gamma_star == 1.0:
        f = f.astype(float, copy=False)
        count = np.count_nonzero(f > -np.inf, axis=1)
        at = f.shape[1] - 1 - (count // c).astype(np.intp)  # ascending position
        beta = np.take_along_axis(np.partition(f, np.unique(at), axis=1), at[:, None], axis=1)[:, 0]

        def minimum():
            return beta + c * np.maximum(f - beta[:, None], 0.0).sum(axis=1) / count + eps
    else:
        beta, value = np.empty((2, len(f)))
        for i, (row, hi) in enumerate(zip(f, top.tolist())):
            beta[i], value[i] = _bisect_margin(row[row > -np.inf].astype(float, copy=False), hi,
                                               gamma_star, c, eps)

        def minimum():
            return value
    return np.where(beta < top, beta, np.nextafter(top, -np.inf)), minimum


def minimize_beta_objective(scores, gamma_star, c, eps=0.0):
    """Minimize the margin objective  beta + M(beta),
    M(beta) = (mean [c (f - beta)_+ + eps]^{g*})^{1/g*}  (`losses`), over beta
    for one row of scores `(n,)` or each row of `(B, n)`, where -inf marks an
    absent score and means run over the row's own scores. Returns (beta*,
    minimum): floats for one row, `(B,)` arrays for a block, both from one
    `solve_margins` call.

    The one margin solver: (g*, c_gamma(eta), 0) gives the Renyi dual of
    `solve_beta` and (1, alpha, 0) the truncated CCL dual. Below c = 1 the
    objective is unbounded below. At c = 1, the radius 0, the ball holds
    only P: the objective is nondecreasing (power-mean inequality) toward
    its infimum mean(f) + eps, and beta* is -inf. At g* = 1 the slope
    1 - c #{f > beta} / n changes sign at the (floor(n / c) + 1)-th largest
    score, an exact minimizer (the lower end of a flat segment when n / c is
    an integer), one `np.partition` per block. At g* > 1 each row runs
    `_bisect_margin`, a bisection on the sign of the margin gradient inside a
    bracket that the row's scores give. A minimum at a row's largest score
    is reported one float below it, where the kernels weigh the top scores,
    which carry the worst case, rather than none.
    """
    beta, minimum = solve_margins(scores, gamma_star, c, eps)
    value = minimum()
    return (float(beta[0]), float(value[0])) if np.ndim(scores) == 1 else (beta, value)


def solve_beta(inst: DroInstance, gamma) -> DualCertificate:
    """Minimize the Renyi dual  beta + c_gamma(eta) ||(f - beta)_+||_{g*}
    (norm under the empirical uniform distribution) over the margin, plus
    the multiplier certificate and a brute-force primal value. At eta = 0
    the ball holds only P: beta* = -inf, lambda* = inf and the dual is mean f."""
    beta_star, value = minimize_beta_objective(
        inst.scores, gamma_conjugate(gamma), c_gamma(inst.eta, gamma))
    lam = lambda_star(inst, gamma, beta_star)
    primal = inner_max_bruteforce(inst, DivergenceKind.cressie_read(gamma))
    return DualCertificate(beta_star, lam, value, primal.value)


def verify_ccl_ball_equivalence(inst: DroInstance, alpha):
    """Compare the worst-case-regret ball value (radius log alpha) against the
    margin-form dual  min_beta { beta + alpha * mean (f - beta)_+ }, whose
    minimizer is a quantile of the scores. Returns the primal and dual
    values and their gap."""
    if alpha < 1:
        raise ValueError("alpha must be at least 1")
    wr_inst = DroInstance(inst.scores, math.log(alpha))
    primal = inner_max_bruteforce(wr_inst, DivergenceKind.worst_regret())
    dual = minimize_beta_objective(inst.scores, 1.0, alpha)[1]
    return {"primal": primal.value, "dual": dual, "gap": abs(primal.value - dual)}

