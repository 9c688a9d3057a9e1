"""Closed-form convergence rates for Bernoulli-minibatch SGD near an exact fit.

The sampling scheme picks each sample independently with probability m/n per
iteration, so batch sizes are Binomial with mean m.  For that scheme the
expected squared-update operator E[M^T M] has one exact closed form for any
rows, and on unit-norm rows its per-eigenvalue contraction

    g(m, eta, lam) = (1 - eta*lam)^2 + (eta^2 * lam / m) * (1 - m/n)

can be minimized in eta exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .problem import Dataset, hessian
from .solvers import _check_eta_m

_TIE_TOL = 1e-9

@dataclass(frozen=True)
class RatePrediction:
    """Optimal learning rate and expected squared-error contraction at mean batch size m.

    `branch` records which minimizer produced the value:
      two-parabola    -- contractions at lambda_max and lambda_min intersect at the optimum
      single-parabola -- the lambda_min parabola's own vertex is the minimax
      gd-limit        -- m = n, deterministic full-gradient descent
    """

    m: float
    eta_opt: float
    g_opt: float
    branch: str


@dataclass(frozen=True)
class CostModel:
    """Iterations and arithmetic cost to reach a target relative error."""

    epsilon: float
    t_eps: float
    total_cost: float
    cost_scaling: float | None  # m / log(n / (n - c m)); None when c m >= n or c is None


def expected_mm(ds: Dataset, eta: float, m: float) -> np.ndarray:
    """Exact E[M^T M] for one Bernoulli-minibatch step, for any rows:

        (I - eta H)^2 + (eta^2 / (m n))(1 - m/n) sum_i |x_i|^2 x_i x_i^T

    The sum is n H for unit-norm rows and n^2 H^2 for orthogonal rows.  The
    result is symmetrized bitwise, as hessian() is.
    """
    _check_eta_m(eta, m, ds.n)
    n = ds.n
    A = np.eye(ds.d) - eta * hessian(ds)
    weighted = (ds.X.T * ds.row_norms_sq()) @ ds.X
    E = A @ A + (eta * eta / (m * n)) * (1.0 - m / n) * weighted
    return (E + E.T) / 2.0


@np.errstate(over="ignore", invalid="ignore")
def g_eigen(m: float, n: int, eta: float, lam):
    """Per-eigenvalue expected squared-error contraction (broadcasts over lam);
    inf or NaN where eta is too large for its square to be a float."""
    lam = np.asarray(lam, dtype=float)
    val = (1.0 - eta * lam) ** 2 + (eta * eta * lam / m) * (1.0 - m / n)
    return float(val) if val.ndim == 0 else val


def optimal_rate(m: float, n: int, lambda1: float, lambdan: float) -> RatePrediction:
    """Minimize max(g at lambda1, g at lambdan) over the learning rate.

    With q = 1/m - 1/n, the minimax sits at the intersection of the two
    parabolas when lambda1 - lambdan >= q:

        eta* = 2 / (lambda1 + lambdan + q)
        g*   = 1 - 4 lambda1 lambdan / (lambda1 + lambdan + q)^2

    otherwise the lambdan parabola dominates everywhere left of the crossing
    and its own vertex is the minimax:

        eta* = 1 / (lambdan + q),   g* = q / (lambdan + q).

    Both formulas coincide on the boundary; _TIE_TOL only breaks near-ties in
    favor of the intersection branch.  At m = n (q = 0) the intersection
    reduces to the deterministic-GD value ((lambda1-lambdan)/(lambda1+lambdan))^2.
    """
    if not 0 < lambdan <= lambda1 < math.inf:
        raise ValueError(f"invalid spectrum: need 0 < lambdan <= lambda1 < inf, "
                         f"got lambda1={lambda1}, lambdan={lambdan}")
    _check_eta_m(None, m, n)
    q = 1.0 / m - 1.0 / n
    # the formulas run on lambda1, lambdan and q times s, the power of two
    # that brings lambda1 into [0.5, 1): the scaling is exact, so the results
    # keep the plain formulas' bits wherever those stay in the normal range,
    # and denom * denom, which leaves that range for a lambda1 beyond about
    # 1e+-154, stays near 1
    s = 2.0 ** -max(math.frexp(lambda1)[1], -1023)
    l1, ln, qs = lambda1 * s, lambdan * s, q * s
    if (l1 - ln) + _TIE_TOL * l1 >= qs:
        denom = l1 + ln + qs
        eta_opt = 2.0 / denom * s
        g_opt = 1.0 - 4.0 * l1 * ln / (denom * denom)
        branch = "two-parabola"
    else:
        eta_opt = 1.0 / (ln + qs) * s
        g_opt = qs / (ln + qs)
        branch = "single-parabola"
    if q == 0.0:
        branch = "gd-limit"
    g_opt = max(g_opt, 0.0)
    if not (0.0 <= g_opt < 1.0 and 0.0 < eta_opt < math.inf):
        raise ValueError(f"rate prediction out of range at m={m}, lambda1={lambda1}, "
                         f"lambdan={lambdan}: eta={eta_opt}, g={g_opt}")
    return RatePrediction(m=float(m), eta_opt=eta_opt, g_opt=g_opt, branch=branch)


def gm_am_factor(x_min_sq: float, x_max_sq: float) -> float:
    """Squared geometric-to-arithmetic mean ratio of the extreme row norms,
    a b / ((a + b)/2)^2 with a = x_min_sq and b = x_max_sq, computed as
    1 - ((b - a)/(a + b))^2: that form stays at most 1 in floating point,
    as AM-GM holds it exactly."""
    if not 0 < x_min_sq <= x_max_sq:
        raise ValueError(f"need 0 < x_min_sq <= x_max_sq, got {x_min_sq}, {x_max_sq}")
    return 1.0 - ((x_max_sq - x_min_sq) / (x_min_sq + x_max_sq)) ** 2


def orthogonal_rate(m: float, n: int, x_min_sq: float, x_max_sq: float) -> float:
    """Contraction bound 1 - c m/n for mutually orthogonal samples.

    c is the squared GM/AM ratio of the extreme squared row norms (c = 1 for
    equal norms).  For non-uniform norms this is a bound evaluated at the
    extremes, not the exact rate.
    """
    _check_eta_m(None, m, n)
    c = gm_am_factor(x_min_sq, x_max_sq)
    return 1.0 - c * m / n


def cost_model(m: float, n: int, d: int, epsilon: float, g: float,
               c: float | None = 1.0) -> CostModel:
    """Iterations to reach relative error epsilon and the induced cost scaling.

    t_eps = log(1/epsilon) / log(1/g) with a floor of one iteration (g -> 0
    solves in a single step); total_cost = m d t_eps.  cost_scaling =
    m / log(n / (n - c m)) is omitted (None) when c m >= n or c is None
    (a zero row, whose norm factor is undefined).
    """
    if not 0 < epsilon < 1:
        raise ValueError(f"target error must lie in (0, 1): epsilon={epsilon}")
    if d < 1:
        raise ValueError(f"dimension must be >= 1: d={d}")
    if g >= 1.0:
        raise ValueError(f"no convergence for contraction g={g} >= 1")
    if g < 0.0:
        raise ValueError(f"contraction must be nonnegative: g={g}")
    if g == 0.0:
        t_eps = 1.0
    else:
        t_eps = max(1.0, math.log(1.0 / epsilon) / math.log(1.0 / g))
    total_cost = m * d * t_eps
    if c is not None and c * m < n:
        cost_scaling = m / math.log(n / (n - c * m))
    else:
        cost_scaling = None
    return CostModel(epsilon=epsilon, t_eps=t_eps, total_cost=total_cost,
                     cost_scaling=cost_scaling)
