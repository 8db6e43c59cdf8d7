"""k-fold privacy loss composition via FFT convolution (Fourier accountant).

The discretized loss masses are half-swapped, transformed, raised to the
k-th power coefficientwise, transformed back, half-swapped again, and tail
summed against (1 - e^{eps - s}). Only frequencies with |spectrum| above
exp(-750/k) are powered; the others are set to exactly 0. Their k-th power
is at most e^-750, under 1% of the smallest subnormal 2^-1074, which pow
rounds to +0, so the skip changes no output bit. Running the same pipeline
on the interval lower/upper masses gives delta_lower and delta_upper around
the approximation. They are not proven bounds: the interval masses come from
endpoint and midpoint values of omega, and an under-resolved grid puts the
true delta outside them. The additive residual term that appears for base
mechanisms with delta(inf) > 0 is identically zero here: loss models only
exist for the Gaussian base, so it is omitted.

delta_direct is the independent verification route: the same delta(eps) as
a one-dimensional adaptive quadrature over output space, touching neither
the grid, the FFT, nor the Newton inversion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import integrate, optimize

from .pld import DiscretizedPLD, PrivacyLossModel, log_output_density, loss_at
from .schemes import Poisson

__all__ = [
    "AccountantResult",
    "SweepCell",
    "EpsilonBeyondGridError",
    "NonFiniteError",
    "compose",
    "compose_many",
    "delta_direct",
]

class EpsilonBeyondGridError(ValueError):
    """epsilon at or beyond the last grid point; the tail sum is empty."""


class NonFiniteError(RuntimeError):
    """NaN/Inf appeared in the composition pipeline.

    Carries structured diagnostics so under-resolved configurations (spiky
    loss densities, overflowing upper-bound spectra) stay analyzable instead
    of being silently clamped.
    """

    def __init__(self, message: str, diagnostics: dict):
        super().__init__(message)
        self.diagnostics = diagnostics


@dataclass(frozen=True)
class Diagnostics:
    grid_r: int
    trunc_L: float
    mass_defect: float
    nonfinite_flag: bool
    floored_mass: float


@dataclass(frozen=True)
class AccountantResult:
    epsilon: float
    k: int
    delta_lower: float
    delta_approx: float
    delta_upper: float
    diagnostics: Diagnostics

    def __post_init__(self):
        if not (self.delta_lower <= self.delta_approx <= self.delta_upper):
            raise ValueError("delta bounds must bracket the approximation")


@dataclass(frozen=True)
class SweepCell:
    k: int
    epsilon: float
    result: AccountantResult | None = None
    error: str | None = None


def _half_swap(vec: np.ndarray) -> np.ndarray:
    # Exchange of the front and back halves; self-inverse for even length.
    return np.roll(vec, vec.size // 2)


def _check_finite(name: str, arr: np.ndarray, context: dict, size: int | None = None) -> None:
    # size: the full array length when arr holds only some of its entries.
    bad = ~np.isfinite(arr)
    if bad.any():
        raise NonFiniteError(
            f"non-finite values in {name} ({int(bad.sum())} of {size or arr.size} entries)",
            diagnostics={**context, "stage": name, "count": int(bad.sum())},
        )


def _survives(mag: np.ndarray, k: int) -> np.ndarray:
    # Entries whose k-th power can be nonzero: |z| <= exp(-750/k) gives
    # |z|^k <= e^-750 < 2^-1075. Written as ~(<=) so that NaN is kept.
    return ~(mag <= math.exp(-750.0 / k))


def _spectrum(vec: np.ndarray, k_min: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Indices, magnitudes and angles of the frequencies kept at k_min."""
    spec = np.fft.fft(_half_swap(vec))
    mag = np.abs(spec)
    idx = np.flatnonzero(_survives(mag, k_min))
    return idx, mag[idx], np.angle(spec[idx])


def _power_convolve(
    polar: tuple[np.ndarray, np.ndarray, np.ndarray], k: int, name: str, context: dict
) -> tuple[np.ndarray, float]:
    """Inverse transform of spectrum^k with the half-swap undone.

    The elementwise power runs in polar form (magnitude^k, angle*k) to limit
    error growth at large k, on the frequencies with magnitude above
    exp(-750/k) only; every other entry of spectrum^k is set to +0, the
    value pow gives it. Returns floored intensities and floored mass.
    """
    idx, mag, ang = polar
    keep = _survives(mag, k)
    with np.errstate(over="ignore", invalid="ignore"):
        kept = mag[keep] ** k * np.exp(1j * k * ang[keep])
    _check_finite(f"{name} spectrum^k", kept, context, context["grid_r"])
    powered = np.zeros(context["grid_r"], dtype=complex)
    powered[idx[keep]] = kept
    u = _half_swap(np.real(np.fft.ifft(powered)))
    _check_finite(f"{name} intensities", u, context)
    negative = u < 0.0
    floored = float(-u[negative].sum()) if negative.any() else 0.0
    u = np.where(negative, 0.0, u)
    return u, floored


def _tail_weights(pld: DiscretizedPLD, epsilon: float) -> tuple[int, np.ndarray]:
    s = pld.s
    last = s[-1]
    if epsilon >= last:
        raise EpsilonBeyondGridError(
            f"epsilon={epsilon:g} must lie below the last grid point "
            f"L - dx = {last:g}; enlarge trunc_L or grid_r"
        )
    i_eps = int(np.searchsorted(s, epsilon, side="right"))
    return i_eps, -np.expm1(epsilon - s[i_eps:])


def compose(pld: DiscretizedPLD, k: int, epsilon: float) -> AccountantResult:
    """delta(eps) after k-fold composition, with lower/upper values.

    The lower/upper values compose the endpoint-and-midpoint interval masses
    of the grid and can miss the true delta on an under-resolved grid.
    """
    cells = compose_many(pld, [k], [epsilon])
    cell = cells[0]
    if cell.error is not None:
        raise EpsilonBeyondGridError(cell.error)
    return cell.result


def compose_many(
    pld: DiscretizedPLD, k_list: Sequence[int], eps_grid: Sequence[float]
) -> list[SweepCell]:
    """compose over the k x epsilon grid, sharing spectra per k.

    Per-cell epsilon validation failures are collected into the returned
    cells; numerical (non-finite) failures abort, as the whole composition
    for that k is meaningless.
    """
    k_values = [int(k) for k in k_list]
    if any(k < 1 for k in k_values):
        raise ValueError(f"all k must be >= 1, got {k_list!r}")
    eps_values = [float(e) for e in eps_grid]
    if any(not math.isfinite(e) or e < 0.0 for e in eps_values):
        raise ValueError(f"all epsilon must be finite and >= 0, got {eps_grid!r}")

    context = {"grid_r": pld.grid_r, "trunc_L": pld.trunc_L, "scheme": pld.scheme.label}
    for name, arr in (("c", pld.c), ("c_minus", pld.c_minus), ("c_plus", pld.c_plus)):
        _check_finite(name, arr, context)

    mass_defect = 1.0 - pld.total_mass
    k_min = min(k_values, default=1)
    spec_c = _spectrum(pld.c, k_min)
    spec_lo = _spectrum(pld.c_minus, k_min)
    spec_hi = _spectrum(pld.c_plus, k_min)

    cells: list[SweepCell] = []
    for k in k_values:
        u, fl_c = _power_convolve(spec_c, k, "approx", context)
        u_lo, fl_lo = _power_convolve(spec_lo, k, "lower", context)
        u_hi, fl_hi = _power_convolve(spec_hi, k, "upper", context)
        floored = max(fl_c, fl_lo, fl_hi)
        diag = Diagnostics(
            grid_r=pld.grid_r,
            trunc_L=pld.trunc_L,
            mass_defect=mass_defect,
            nonfinite_flag=False,
            floored_mass=floored,
        )
        for eps in eps_values:
            try:
                i_eps, w = _tail_weights(pld, eps)
            except EpsilonBeyondGridError as exc:
                cells.append(SweepCell(k=k, epsilon=eps, error=str(exc)))
                continue
            da = float(w @ u[i_eps:])
            dl = float(w @ u_lo[i_eps:])
            du = float(w @ u_hi[i_eps:])
            da = min(max(da, 0.0), 1.0)
            dl = min(max(dl, 0.0), 1.0)
            du = min(max(du, 0.0), 1.0)
            # Pointwise ordering of the intensities survives convolution in
            # exact arithmetic; absorb FFT round-off crossings if tiny.
            if dl > da or da > du:
                if dl - da > 1e-9 or da - du > 1e-9:
                    raise NonFiniteError(
                        "bound ordering violated beyond round-off",
                        diagnostics={**context, "k": k, "epsilon": eps,
                                     "delta_lower": dl, "delta_approx": da,
                                     "delta_upper": du},
                    )
                dl = min(dl, da)
                du = max(du, da)
            cells.append(
                SweepCell(
                    k=k,
                    epsilon=eps,
                    result=AccountantResult(
                        epsilon=eps,
                        k=k,
                        delta_lower=dl,
                        delta_approx=da,
                        delta_upper=du,
                        diagnostics=diag,
                    ),
                )
            )
    return cells


def delta_direct(model: PrivacyLossModel, epsilon: float, tol: float = 1e-9) -> float:
    """Tight delta(eps) at k = 1 by adaptive quadrature over output space.

    Change of variables turns the tail integral of (1 - e^{eps - s}) against
    omega into the integral of max(0, 1 - e^{eps - L(t)}) f_X(t) dt, so no
    density inversion is needed. The crossing L(t) = eps is located by plain
    bracketed root finding, independent of the production Newton path.
    """
    epsilon = float(epsilon)
    if not (math.isfinite(epsilon) and epsilon >= 0.0):
        raise ValueError(f"epsilon must be finite and >= 0, got {epsilon!r}")
    if epsilon <= model.loss_domain_low:
        raise ValueError("epsilon lies below the loss image; delta would be ill-defined")

    sigma = model.sigma
    if isinstance(model.scheme, Poisson):
        l_max = 1.0
    else:
        l_vals, _ = model._mixture
        l_max = float(l_vals.max())
    lo = -l_max - 40.0 * sigma
    hi = l_max + 40.0 * sigma

    def resid(t: float) -> float:
        return loss_at(model, t) - epsilon

    left = lo
    while resid(hi) < 0.0:
        hi *= 2.0
    while resid(left) > 0.0:
        left *= 2.0
    t_cross = optimize.brentq(resid, left, hi, xtol=1e-13, rtol=1e-14)

    def integrand(t):
        t = np.asarray(t, dtype=float)
        gain = -np.expm1(epsilon - loss_at(model, t))
        return np.maximum(gain, 0.0) * np.exp(log_output_density(model, t))

    upper = max(hi, t_cross + 40.0 * sigma)
    value, err = integrate.quad(
        integrand, t_cross, upper, limit=300, epsabs=tol * 1e-3, epsrel=1e-12
    )
    if err > max(tol, 1e-12):
        raise RuntimeError(
            f"delta quadrature achieved error {err:.3e} > tol {tol:.3e}"
        )
    return min(max(value, 0.0), 1.0)
