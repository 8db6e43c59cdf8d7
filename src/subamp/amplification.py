"""Closed-form privacy amplification for the six subsampling schemes.

For a base mechanism with profile delta(eps), subsampling maps eps to
eps' = log(1 + eta*(e^eps - 1)) where eta is the probability that a fixed
element appears in the final subsample. delta maps to the sum of the group
profiles delta_u(eps) weighted by the distribution of the element's
multiplicity u in the subsample handed to the mechanism. For the set-output
schemes (Poisson, WOR) that distribution is the single weight P[u = 1] =
eta, so delta' = eta*delta; the multiset-output schemes (WR and the
two-stage variants) can repeat an element, and their weights run to u = m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np
from scipy.special import logsumexp

from .mechanisms import MechanismSpec, group_profile, profile
from .numerics import log_binom, log_binom_pmf, stable_sum
from .schemes import (
    MUSTow,
    MUSTwo,
    MUSTww,
    Poisson,
    SamplingScheme,
    WOR,
    WR,
)

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


def eta(scheme: SamplingScheme) -> float:
    """Probability that a fixed element appears in the final subsample."""
    match scheme:
        case Poisson(gamma=g):
            return g
        case WOR(n=n, m=m):
            return m / n
        case WR(n=n, m=m) | MUSTwo(n=n, m=m):
            # MUSTwo collapses to WR's eta exactly.
            return -math.expm1(_log_none_of(m, 1.0 / n))
        case MUSTow(n=n, b=b, m=m):
            with np.errstate(divide="ignore"):
                inner = -np.expm1(m * np.log1p(-1.0 / b))
            return (b / n) * float(inner)
        case MUSTww(n=n, b=b, m=m):
            j, logw = _stage1_log_weights(n, b)
            with np.errstate(divide="ignore", invalid="ignore"):
                hit = -np.expm1(m * np.log1p(-j / b))
            hit[j == b] = 1.0
            return min(stable_sum(np.exp(logw) * hit), 1.0)
    raise TypeError(f"not a sampling scheme: {scheme!r}")


def log_miss_probability(scheme: SamplingScheme) -> float:
    """log P[element absent from the subsample], computed without 1 - eta."""
    match scheme:
        case Poisson(gamma=g):
            return math.log1p(-g)
        case WOR(n=n, m=m):
            if m == n:
                return -math.inf
            return math.log1p(-m / n)
        case WR(n=n, m=m) | MUSTwo(n=n, m=m):
            return _log_none_of(m, 1.0 / n)
        case MUSTow(n=n, b=b, m=m):
            if b == n:
                return _log_none_of(m, 1.0 / b)
            in_stage1 = math.log(b / n) + _log_none_of(m, 1.0 / b)
            return float(np.logaddexp(in_stage1, math.log1p(-b / n)))
        case MUSTww(n=n, b=b, m=m):
            j, logw = _stage1_log_weights(n, b)
            with np.errstate(divide="ignore", invalid="ignore"):
                terms = logw + m * np.log1p(-j / b)
            terms[j == b] = -math.inf
            selected = logsumexp(terms)
            return float(np.logaddexp(selected, _log_none_of(b, 1.0 / n)))
    raise TypeError(f"not a sampling scheme: {scheme!r}")


def multiplicity_weights(scheme: SamplingScheme) -> np.ndarray:
    """P[element appears exactly u times in the subsample], u = 1, 2, ...

    Poisson and WOR never repeat an element, so their distribution is the
    single weight P[u = 1] = eta; the multiset schemes run to u = m. The
    weights sum to eta(scheme).
    """
    match scheme:
        case Poisson() | WOR():
            return np.array([eta(scheme)])
        case WR(n=n, m=m):
            u = np.arange(1, m + 1, dtype=float)
            return np.exp(log_binom_pmf(u, float(m), 1.0 / n))
        case MUSTow(n=n, b=b, m=m):
            u = np.arange(1, m + 1, dtype=float)
            return (b / n) * np.exp(log_binom_pmf(u, float(m), 1.0 / b))
        case MUSTww(n=n, b=b, m=m):
            u = np.arange(1, m + 1, dtype=float)
            j, logw = _stage1_log_weights(n, b)
            log_terms = logw[:, None] + log_binom_pmf(
                u[None, :], float(m), (j / b)[:, None]
            )
            return np.exp(log_terms).sum(axis=0)
        case MUSTwo(n=n, b=b, m=m):
            u = np.arange(1, m + 1, dtype=float)
            # Hypergeometric second stage: C(j,u) C(b-j,m-u) / C(b,m), zero
            # when b-j < m-u. Evaluated through the draws/successes symmetry
            # C(m,u) C(b-m,j-u) / C(b,j), whose C(b,j) cancels the stage-I
            # binomial coefficient exactly; this keeps every log-gamma
            # magnitude O(m log b) and the result accurate to ~1e-14.
            j, _ = _stage1_log_weights(n, b)
            with np.errstate(divide="ignore"):
                log_terms = (
                    log_binom(float(m), u)[None, :]
                    + log_binom(float(b - m), j[:, None] - u[None, :])
                    + j[:, None] * math.log(1.0 / n)
                    # n = 1 keeps only j = b, where this factor is 1.
                    + ((b - j[:, None]) * math.log1p(-1.0 / n) if n > 1 else 0.0)
                )
            return np.exp(log_terms).sum(axis=0)
    raise TypeError(f"not a sampling scheme: {scheme!r}")


def _check_eta(eta_value: float) -> float:
    eta_value = float(eta_value)
    if not (0.0 < eta_value <= 1.0):
        raise ValueError(f"eta must lie in (0, 1], got {eta_value!r}")
    return eta_value


def amplify_epsilon(eta_value: float, epsilon: float) -> float:
    """eps' = log(1 + eta*(e^eps - 1))."""
    eta_value = _check_eta(eta_value)
    if not (math.isfinite(epsilon) and epsilon >= 0.0):
        raise ValueError(f"epsilon must be finite and >= 0, got {epsilon!r}")
    return math.log1p(eta_value * math.expm1(epsilon))


def deamplify_epsilon(eta_value: float, eps_prime: float) -> float:
    """Inverse of amplify_epsilon: the base eps giving eps' after subsampling."""
    eta_value = _check_eta(eta_value)
    if not (math.isfinite(eps_prime) and eps_prime >= 0.0):
        raise ValueError(f"eps_prime must be finite and >= 0, got {eps_prime!r}")
    return math.log1p(math.expm1(eps_prime) / eta_value)


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


def aligned_profile(
    scheme: SamplingScheme, mech: MechanismSpec, eps_grid: Sequence[float]
) -> list[AlignedPoint]:
    """Aligned privacy profile (eps'/eps, delta' - delta) over an eps grid."""
    grid = np.asarray(eps_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("eps_grid must be a non-empty 1-d sequence")
    if np.any(grid <= 0.0) or np.any(np.diff(grid) <= 0.0):
        raise ValueError("eps_grid must be strictly positive and increasing")

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
