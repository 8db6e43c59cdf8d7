"""Closed-form privacy amplification for the six subsampling schemes.

For a base mechanism with profile delta(eps), subsampling maps eps to
eps' = log(1 + eta*(e^eps - 1)) where eta is the probability that a fixed
element appears in the final subsample. delta maps to the sum of the group
profiles delta_u(eps) weighted by the distribution of the element's
multiplicity u in the subsample handed to the mechanism. `_thinned` states
that law for each scheme, as WR's or MUSTww's thinned by the chance that the
element reaches the last stage. For the set-output schemes (Poisson, WOR) it
is the single weight P[u = 1] = eta, so delta' = eta*delta; the multiset
schemes (WR and the two-stage variants) can repeat an element, and their
weights run to u = m.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np
from scipy.special import logsumexp

from .mechanisms import MechanismSpec, group_profile, profile
from .numerics import _epsilon, _real, _reals, log_binom_pmf, stable_sum
from .schemes import MUSTow, MUSTwo, MUSTww, Poisson, SamplingScheme, WOR, WR

__all__ = [
    "PAClass",
    "AlignedPoint",
    "eta",
    "multiplicity_weights",
    "amplify_epsilon",
    "deamplify_epsilon",
    "amplify_delta",
    "classify_pa",
    "pa_on_boundary",
    "aligned_profile",
]

# |delta_gap| or |eps_ratio - 1| at or below this is treated as "on the
# boundary" and resolved toward the favorable side (strong preferred).
BOUNDARY_TOL = 1e-15

# Stage-I weights whose log falls this far below the maximum are dropped;
# the discarded mass is < 1e-60 of the total, far below any tolerance here.
_LOG_WEIGHT_CUTOFF = 150.0


class PAClass(str, Enum):
    STRONG = "strong"
    WEAK_I = "weak_type_i"
    WEAK_II = "weak_type_ii"
    DILUTION = "dilution"


def _stage1_log_weights(n: int, b: int) -> tuple[np.ndarray, np.ndarray]:
    """Significant Binomial(b, 1/n) log-weights over j = 1..b.

    These are the probabilities that the distinguished element was drawn
    exactly j times by a WR(n, b) first stage.
    """
    j = np.arange(1, b + 1, dtype=float)
    logw = log_binom_pmf(j, float(b), 1.0 / n)
    keep = logw >= logw.max() - _LOG_WEIGHT_CUTOFF
    return j[keep], logw[keep]


def _log_none_of(draws: int, p: float) -> float:
    """log (1 - p)^draws: the chance that draws >= 1 independent picks, each
    hitting an element with probability p, all miss it.

    -inf at p = 1, where a stage draws from a single element.
    """
    return draws * math.log1p(-p) if p < 1.0 else -math.inf


def _thinned(scheme: SamplingScheme) -> tuple[float, int, int, int | None]:
    """A record's multiplicity law, as (thin, n, m, b).

    The record reaches the last stage with probability thin; its count there
    follows WR(n, m)'s law, or MUSTww(n, b, m)'s when b is not None. A set
    holds a record at most once, as WR(1, 1) does.
    """
    match scheme:
        case Poisson(gamma=g):
            return g, 1, 1, None
        case WOR(n=n, m=m):
            return m / n, 1, 1, None
        case WR(n=n, m=m) | MUSTwo(n=n, m=m):
            # MUSTwo keeps m of the b draws without looking at them: the m
            # kept are i.i.d. uniform over n, the law of WR(n, m).
            return 1.0, n, m, None
        case MUSTow(n=n, b=b, m=m):
            # In stage I with probability b/n, then WR(b, m) over the b picks.
            return b / n, b, m, None
        case MUSTww(n=n, b=b, m=m):
            return 1.0, n, m, b
    raise TypeError(f"not a sampling scheme: {scheme!r}")


def eta(scheme: SamplingScheme) -> float:
    """Probability that a fixed element appears in the final subsample."""
    thin, n, m, b = _thinned(scheme)
    if b is None:
        hit = -math.expm1(_log_none_of(m, 1.0 / n))
    else:
        j, logw = _stage1_log_weights(n, b)
        with np.errstate(divide="ignore", invalid="ignore"):
            hit_j = -np.expm1(m * np.log1p(-j / b))
        hit = min(stable_sum(np.exp(logw) * hit_j), 1.0)
    return thin * hit


def log_miss_probability(scheme: SamplingScheme) -> float:
    """log P[element absent from the subsample], computed without 1 - eta."""
    thin, n, m, b = _thinned(scheme)
    if b is None:
        core = _log_none_of(m, 1.0 / n)
    else:
        # Missed by stage II after j stage-I picks, or never picked in stage I.
        j, logw = _stage1_log_weights(n, b)
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = logw + m * np.log1p(-j / b)
        core = float(np.logaddexp(logsumexp(terms), _log_none_of(b, 1.0 / n)))
    if thin == 1.0:
        return core
    # Missed in the last stage, or never reached it.
    return float(np.logaddexp(math.log(thin) + core, math.log1p(-thin)))


def multiplicity_weights(scheme: SamplingScheme) -> np.ndarray:
    """P[element appears exactly u times in the subsample], u = 1, 2, ...

    Poisson and WOR never repeat an element, so their distribution is the
    single weight P[u = 1] = eta; the multiset schemes run to u = m. The
    weights sum to eta(scheme).
    """
    thin, n, m, b = _thinned(scheme)
    u = np.arange(1, m + 1, dtype=float)
    if b is None:
        w = np.exp(log_binom_pmf(u, float(m), 1.0 / n))
    else:
        j, logw = _stage1_log_weights(n, b)
        log_terms = logw[:, None] + log_binom_pmf(u[None, :], float(m), (j / b)[:, None])
        w = np.exp(log_terms).sum(axis=0)
    return thin * w


def _check_eta(eta_value: float) -> float:
    return _real("eta", eta_value, "lie in (0, 1]", lambda x: 0.0 < x <= 1.0)


def amplify_epsilon(eta_value: float, epsilon: float) -> float:
    """eps' = log(1 + eta*(e^eps - 1)), with e^eps factored out where it overflows."""
    eta_value = _check_eta(eta_value)
    epsilon = _epsilon("epsilon", epsilon)
    with contextlib.suppress(OverflowError):
        return math.log1p(eta_value * math.expm1(epsilon))
    return epsilon + math.log(eta_value + (1 - eta_value) * math.exp(-epsilon))


def deamplify_epsilon(eta_value: float, eps_prime: float) -> float:
    """Inverse of amplify_epsilon, with e^eps' factored out where it overflows."""
    eta_value = _check_eta(eta_value)
    eps_prime = _epsilon("eps_prime", eps_prime)
    with contextlib.suppress(OverflowError):
        if math.isfinite(scaled := math.expm1(eps_prime) / eta_value):
            return math.log1p(scaled)
    return eps_prime - math.log(eta_value) + math.log1p((eta_value - 1) * math.exp(-eps_prime))


def amplify_delta(
    scheme: SamplingScheme, mech: MechanismSpec, epsilon: float
) -> float:
    """delta' of the subsampled mechanism, at base-mechanism epsilon.

    The group profiles delta_u(eps) weighted by the multiplicity
    probabilities; for Poisson and WOR that is the one term eta * delta(eps).
    """
    return _weighted_delta(multiplicity_weights(scheme), mech, epsilon)


def _weighted_delta(weights: np.ndarray, mech: MechanismSpec, epsilon: float) -> float:
    """sum_u weights[u-1] delta_u(eps), clamped to [0, 1]."""
    deltas = group_profile(mech, np.arange(1, weights.size + 1), epsilon)
    return min(max(stable_sum(weights * deltas), 0.0), 1.0)


def pa_on_boundary(eps_ratio: float, delta_gap: float) -> bool:
    return abs(eps_ratio - 1.0) <= BOUNDARY_TOL or abs(delta_gap) <= BOUNDARY_TOL


def classify_pa(eps_ratio: float, delta_gap: float) -> PAClass:
    """Quadrant classification of an amplification outcome.

    Boundary cases (within BOUNDARY_TOL of eps_ratio = 1 or delta_gap = 0)
    resolve toward the favorable side, so exact ties classify as strong.
    """
    shrinks_eps = eps_ratio < 1.0 or abs(eps_ratio - 1.0) <= BOUNDARY_TOL
    shrinks_delta = delta_gap < 0.0 or abs(delta_gap) <= BOUNDARY_TOL
    if shrinks_eps and shrinks_delta:
        return PAClass.STRONG
    if shrinks_eps:
        return PAClass.WEAK_I
    if shrinks_delta:
        return PAClass.WEAK_II
    return PAClass.DILUTION


@dataclass(frozen=True)
class AlignedPoint:
    """One point of an aligned profile: amplification relative to baseline."""

    epsilon: float
    eps_prime: float
    delta: float
    delta_prime: float
    eps_ratio: float
    delta_gap: float
    pa_class: PAClass
    on_boundary: bool
    neighboring: str


def _eps_grid(name: str, values) -> np.ndarray:
    """values as a float array, if they are a non-empty increasing 1-d grid of
    positive, finite epsilons."""
    grid = _reals(name, values, "be positive and finite", lambda x: (x > 0) & (x < np.inf))
    if grid.ndim != 1 or grid.size == 0 or np.any(np.diff(grid) <= 0.0):
        raise ValueError(f"{name} must be a non-empty increasing 1-d grid, got {values!r}")
    return grid


def aligned_profile(
    scheme: SamplingScheme, mech: MechanismSpec, eps_grid: Sequence[float]
) -> list[AlignedPoint]:
    """Aligned privacy profile (eps'/eps, delta' - delta) over an eps grid."""
    grid = _eps_grid("eps_grid", eps_grid)

    eta_value = eta(scheme)
    # The multiplicity weights do not depend on eps: one evaluation per profile.
    weights = multiplicity_weights(scheme)
    points = []
    for eps in grid:
        eps = float(eps)
        eps_prime = amplify_epsilon(eta_value, eps)
        delta = profile(mech, eps)
        delta_prime = _weighted_delta(weights, mech, eps)
        ratio = eps_prime / eps
        gap = delta_prime - delta
        points.append(
            AlignedPoint(
                epsilon=eps,
                eps_prime=eps_prime,
                delta=delta,
                delta_prime=delta_prime,
                eps_ratio=ratio,
                delta_gap=gap,
                pa_class=classify_pa(ratio, gap),
                on_boundary=pa_on_boundary(ratio, gap),
                neighboring=scheme.neighboring,
            )
        )
    return points
