"""Exact privacy profiles of the Laplace and Gaussian base mechanisms.

The profile delta(eps) is the tight delta for a given eps. Group profiles
(datasets differing in j elements) follow from the white-box substitution
theta -> j*theta. A quadrature oracle recomputes any profile from the raw
output densities so the closed forms never have to be trusted blindly.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import log_ndtr, ndtr

from .numerics import _NumericalFailure, _epsilon, _epsilons, _integer, _positive, _probability

__all__ = [
    "Family",
    "MechanismSpec",
    "profile",
    "group_profile",
    "profile_numeric_oracle",
    "calibrate_sigma",
    "QuadratureError",
]

# Beyond mean +- 40 standardized units both densities are < 1e-300.
_ORACLE_TAIL = 40.0
# Largest error estimate _quad accepts, for this module's oracle and
# accountant.delta_direct.
_QUAD_TOL = 1e-9


class Family(str, Enum):
    LAPLACE = "laplace"
    GAUSSIAN = "gaussian"


class QuadratureError(_NumericalFailure):
    """Adaptive quadrature did not reach the requested accuracy."""


@dataclass(frozen=True)
class MechanismSpec:
    """Base mechanism family plus the dimensionless ratio theta.

    theta is sensitivity over noise scale: l1 sensitivity / scale for
    Laplace, l2 sensitivity / sigma for Gaussian.
    """

    family: Family
    theta: float

    def __post_init__(self):
        object.__setattr__(self, "family", Family(self.family))
        object.__setattr__(self, "theta", _positive("theta", self.theta))


def _laplace_profile(theta, eps):
    with np.errstate(over="ignore"):
        raw = -np.expm1((eps - theta) / 2.0)
    return np.where(eps >= theta, 0.0, raw)


def _gaussian_profile(theta, eps):
    # The second term is exp(eps) * Phi(-theta/2 - eps/theta); assembling it
    # as exp(eps + logPhi) keeps full relative precision when both factors
    # are extreme (delta values down to 1e-70 appear in the far profile).
    a = theta / 2.0 - eps / theta
    b = -theta / 2.0 - eps / theta
    return ndtr(a) - np.exp(eps + log_ndtr(b))


def _profile_values(family: Family, theta, epsilon) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    eps = np.asarray(epsilon, dtype=float)
    if family is Family.LAPLACE:
        out = _laplace_profile(theta, eps)
    else:
        out = _gaussian_profile(theta, eps)
    # Rounding in the analytic forms can produce ~ -1e-17; clamp to [0, 1].
    return np.clip(out, 0.0, 1.0)


def profile(mech: MechanismSpec, epsilon):
    """Tight delta(eps) of the base mechanism. Accepts scalars or arrays."""
    return group_profile(mech, 1, epsilon)


def group_profile(mech: MechanismSpec, j, epsilon):
    """delta(eps) for dataset pairs differing in j elements.

    White-box analysis: for Laplace/Gaussian this is the profile with the
    sensitivity scaled by j, i.e. theta -> j*theta. j is a positive integer
    or an integer array of them; the result is a float when j and epsilon
    are both scalars.
    """
    j_arr = np.asarray(j)
    if j_arr.dtype.kind not in "iu" or (j_arr < 1).any():
        raise ValueError(f"group size j must be a positive integer, got {j!r}")
    eps = _epsilons("epsilon", epsilon)
    out = _profile_values(mech.family, j_arr * mech.theta, eps)
    return float(out) if np.ndim(j) == 0 and np.ndim(epsilon) == 0 else out


def _log_output_density(family: Family, shift: float, t: np.ndarray) -> np.ndarray:
    if family is Family.LAPLACE:
        return -np.abs(t - shift) - math.log(2.0)
    return -0.5 * (t - shift) ** 2 - 0.5 * math.log(2.0 * math.pi)


def _quad(integrand, lo: float, hi: float, what: str, points=None) -> tuple[float, float]:
    """(value, error estimate) of integrate.quad over [lo, hi], accepted only
    if the estimate is at most _QUAD_TOL; otherwise QuadratureError names
    `what`. The one rule for every quadrature oracle of the package.
    scipy.integrate is imported on first use, so that `import subamp` does
    not load it."""
    from scipy import integrate

    value, err = integrate.quad(
        integrand, lo, hi, points=points, limit=300, epsabs=_QUAD_TOL * 1e-3, epsrel=1e-12
    )
    if err > _QUAD_TOL:
        raise QuadratureError(
            f"{what} quadrature achieved error {err:.3e} > tol {_QUAD_TOL:.3e}"
        )
    return value, err


def profile_numeric_oracle(mech: MechanismSpec, j: int, epsilon: float) -> float:
    """delta(eps) by adaptive quadrature of the hockey-stick integrand.

    Integrates [f_X(t) - e^eps f_X'(t)]_+ over standardized output space,
    where the two densities are the mechanism's noise density shifted by
    j*theta and 0. Entirely independent of the closed forms in profile().
    """
    j = _integer("group size j", j)
    eps = _epsilon("epsilon", epsilon)
    shift = j * mech.theta
    family = mech.family

    def integrand(t):
        t = np.asarray(t, dtype=float)
        fx = np.exp(_log_output_density(family, shift, t))
        fxp = np.exp(eps + _log_output_density(family, 0.0, t))
        return np.maximum(fx - fxp, 0.0)

    lo, hi = -shift - _ORACLE_TAIL, shift + _ORACLE_TAIL
    # The integrand has a kink where the log-ratio crosses eps; hand the
    # crossing (and the Laplace corner at t = shift) to quad as breakpoints.
    if family is Family.GAUSSIAN:
        breaks = [eps / shift + shift / 2.0]
    else:
        breaks = [(eps + shift) / 2.0, shift]
    breaks = sorted(b for b in breaks if lo < b < hi)

    value, _ = _quad(
        integrand, lo, hi, f"profile (family={family.value}, j={j}, theta={mech.theta}, "
        f"eps={eps})", points=breaks,
    )
    return min(max(value, 0.0), 1.0)


def calibrate_sigma(delta_target: float, epsilon: float, sensitivity: float) -> float:
    """Gaussian noise scale for (epsilon, delta_target)-DP by the classical
    sqrt(2 log(1.25/delta)) bound; warns outside its nominal 0 < eps < 1."""
    delta_target = _probability("delta_target", delta_target)
    epsilon = _positive("epsilon", epsilon)
    sensitivity = _positive("sensitivity", sensitivity)
    if epsilon >= 1.0:
        warnings.warn(
            f"classical Gaussian calibration is stated for 0 < eps < 1; got eps={epsilon}",
            RuntimeWarning,
            stacklevel=2,
        )
    return sensitivity * math.sqrt(2.0 * math.log(1.25 / delta_target)) / epsilon
