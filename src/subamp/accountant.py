"""k-fold privacy loss composition via FFT convolution (Fourier accountant).

The exact cell masses of the discretized loss are real, so their spectrum
is Hermitian: they are transformed once with a real FFT, each of the r/2+1
frequencies of the half-spectrum is raised to the k-th power, and one real
inverse FFT per k gives the composed masses, which are tail summed against
(1 - e^{eps - s}). Only frequencies with |spectrum| above exp(-750/k) are
powered; the others are set to exactly 0. Their k-th power is at most
e^-750, under 1% of the smallest subnormal 2^-1074, which pow rounds to
+0, so the skip changes no output bit. The per-k work (power, inverse,
floor, tails) runs on one thread per CPU in the process's affinity mask,
one k per task, and reduces with numpy's own sums, never BLAS, so the
output bits do not depend on the number of CPUs or of BLAS threads.

The composed array places each loss at its cell's left edge. Placing the
same masses at the right edges shifts the composed array by k dx, so the
three deltas are tails of one array: delta_lower at eps, delta_approx
(centres) at eps - k dx/2 and delta_upper at eps - k dx, plus a union
bound over the mass outside the grid. They are ordered by construction.
The bounds hold for the exact masses up to FFT round-off and wrap-around
of the composed loss past +-L, neither of which is bounded yet. The
additive residual term that appears for base mechanisms with
delta(inf) > 0 is identically zero here: loss models only exist for the
Gaussian base, so it is omitted.

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

from .numerics import _map_blocks
from .pld import DiscretizedPLD, PrivacyLossModel, log_output_density, loss_at

__all__ = [
    "AccountantResult",
    "SweepCell",
    "EpsilonBeyondGridError",
    "NonFiniteError",
    "compose",
    "compose_many",
    "delta_direct",
]

# Largest error estimate delta_direct's quadrature accepts.
_QUAD_TOL = 1e-9


class EpsilonBeyondGridError(ValueError):
    """epsilon at or beyond the last grid point; the tail sum is empty."""


class NonFiniteError(RuntimeError):
    """NaN/Inf appeared in the composed intensities.

    The cell masses are finite and sum to at most 1, so every power of
    their spectrum is bounded by 1; this is a guard, with structured
    diagnostics, not an expected outcome.
    """

    def __init__(self, message: str, diagnostics: dict):
        super().__init__(message)
        self.diagnostics = diagnostics


@dataclass(frozen=True)
class Diagnostics:
    grid_r: int
    trunc_L: float
    mass_defect: float  # mass_outside: P[L < -L]
    max_cell_mass: float  # the largest c_i; near 1 when one cell holds the loss
    occupied_cells: int  # the number of c_i > 0; a handful when a few cells hold it
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


def _check_finite(name: str, arr: np.ndarray, context: dict) -> None:
    bad = ~np.isfinite(arr)
    if bad.any():
        raise NonFiniteError(
            f"non-finite values in {name} ({int(bad.sum())} of {arr.size} entries)",
            diagnostics={**context, "stage": name, "count": int(bad.sum())},
        )


def _survives(mag: np.ndarray, k: int) -> np.ndarray:
    # Entries whose k-th power can be nonzero: |z| <= exp(-750/k) gives
    # |z|^k <= e^-750 < 2^-1075. Written as ~(<=) so that NaN is kept.
    return ~(mag <= math.exp(-750.0 / k))


def _spectrum(vec: np.ndarray, k_min: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Indices, magnitudes and angles of the half-spectrum kept at k_min.

    The masses are half-swapped first, so that index 0 holds the loss 0:
    the spectrum of a loss centred near 0 has small angles, which k * angle
    magnifies less than angles near pi (at k = 1000 the unswapped transform
    gave 1.4x the absolute error of the composed masses).
    """
    spec = np.fft.rfft(np.roll(vec, vec.size // 2))
    mag = np.abs(spec)
    idx = np.flatnonzero(_survives(mag, k_min))
    return idx, mag[idx], np.angle(spec[idx])


def _powered(
    polar: tuple[np.ndarray, np.ndarray, np.ndarray], k: int, grid_r: int
) -> np.ndarray:
    """The half-spectrum of the k-fold composed masses, half-swapped back.

    The elementwise power runs in polar form (magnitude^k, angle*k) to limit
    error growth at large k, on the frequencies with magnitude above
    exp(-750/k) only; every other entry is set to +0, the value pow gives
    it. Half-swapping the inverse transform multiplies frequency f by
    (-1)^f, which is applied to the powered entries instead.
    """
    idx, mag, ang = polar
    keep = _survives(mag, k)
    freq = idx[keep]
    values = mag[keep] ** k * np.exp(1j * k * ang[keep])
    np.negative(values, out=values, where=freq % 2 == 1)
    out = np.zeros(grid_r // 2 + 1, dtype=complex)
    out[freq] = values
    return out


def _tail(s: np.ndarray, u: np.ndarray, epsilons: tuple[float, ...]) -> list[float]:
    """sum over s_i > eps of (1 - e^{eps - s_i}) u_i, for each eps.

    Every sum runs over the same slice of u in the same order, with weights
    that are 0 below their eps, so a larger eps never gives a larger sum.
    numpy sums the weighted terms: a BLAS dot product splits its sum by the
    BLAS thread count, so its bits would depend on the CPUs.
    """
    start = int(np.searchsorted(s, min(epsilons), side="right"))
    tail, mass = s[start:], u[start:]
    return [float((np.maximum(-np.expm1(eps - tail), 0.0) * mass).sum()) for eps in epsilons]


def compose(pld: DiscretizedPLD, k: int, epsilon: float) -> AccountantResult:
    """delta(eps) after k-fold composition, with lower and upper bounds.

    The bounds hold for the exact cell masses of the grid, up to FFT
    round-off and wrap-around of the composed loss past +-L.
    """
    cells = compose_many(pld, [k], [epsilon])
    cell = cells[0]
    if cell.error is not None:
        raise EpsilonBeyondGridError(cell.error)
    return cell.result


def compose_many(
    pld: DiscretizedPLD, k_list: Sequence[int], eps_grid: Sequence[float]
) -> list[SweepCell]:
    """compose over the k x epsilon grid: one forward rfft, one irfft per k.

    The composed masses u place each loss at the sum of its cells' left
    edges, so the true sum lies in [s_i, s_i + k dx). The tail at eps is
    delta_lower (left edges), at eps - k dx/2 delta_approx (centres) and at
    eps - k dx delta_upper (right edges). delta_upper adds what the grid
    does not dominate, by a union bound over the k terms: mass_outside for
    a loss below -L, and for a loss above L (held in the last cell, at L)
    its excess over placing it at L, at most c[-1] e^{eps - L} M^{k-1} with
    M = sum_i c_i e^{-(s_i + dx)}. Per-cell epsilon validation failures are
    collected into the returned cells; numerical (non-finite) failures
    abort, as the whole composition for that k is meaningless.

    The values of k run on one thread per CPU in the affinity mask, each
    writing its own slot, and the cells come back in k-list order. Memory
    is the kept half-spectrum plus threads x one k's arrays: the powered
    half-spectrum (8 (r + 2) bytes), the composed masses (8 r) and the
    tail sums' temporaries, 16 MB per thread at r = 2^20 (a tracemalloc
    peak of 24 MB at one thread and 41 MB at two).
    """
    k_values = [int(k) for k in k_list]
    if any(k < 1 for k in k_values):
        raise ValueError(f"all k must be >= 1, got {k_list!r}")
    eps_values = [float(e) for e in eps_grid]
    if any(not math.isfinite(e) or e < 0.0 for e in eps_values):
        raise ValueError(f"all epsilon must be finite and >= 0, got {eps_grid!r}")

    context = {"grid_r": pld.grid_r, "trunc_L": pld.trunc_L, "scheme": pld.scheme.label}
    s, dx, c = pld.s, pld.dx, pld.c
    last, c_last = s[-1], float(c[-1])
    # As e^(log c - s - dx): e^-(s+dx) alone overflows for L above 709.
    with np.errstate(divide="ignore"):
        m_right = float(np.exp(np.log(c) - (s + dx)).sum())
    spectrum = _spectrum(c, min(k_values, default=1))
    per_k: list = [None] * len(k_values)  # (floored mass, tails per eps) of each k

    def compose_k(items: slice) -> None:
        for i in range(len(k_values))[items]:
            k = k_values[i]
            u = np.fft.irfft(_powered(spectrum, k, pld.grid_r), n=pld.grid_r)
            _check_finite("intensities", u, context)
            negative = u < 0.0
            floored = float(-u[negative].sum()) if negative.any() else 0.0
            u[negative] = 0.0
            tails = [
                _tail(s, u, (eps, eps - k * dx / 2.0, eps - k * dx)) if eps < last else None
                for eps in eps_values
            ]
            per_k[i] = floored, tails

    _map_blocks(compose_k, len(k_values), 1)

    max_cell_mass = float(c.max())
    occupied_cells = int(np.count_nonzero(c))
    cells: list[SweepCell] = []
    for k, (floored, tails) in zip(k_values, per_k):
        diag = Diagnostics(
            grid_r=pld.grid_r,
            trunc_L=pld.trunc_L,
            mass_defect=pld.mass_outside,
            max_cell_mass=max_cell_mass,
            occupied_cells=occupied_cells,
            floored_mass=floored,
        )
        for eps, sums in zip(eps_values, tails):
            if sums is None:
                cells.append(SweepCell(k=k, epsilon=eps, error=(
                    f"epsilon={eps:g} must lie below the last grid point "
                    f"L - dx = {last:g}; enlarge trunc_L or grid_r"
                )))
                continue
            dl, da, du = sums
            outside = pld.mass_outside + c_last * math.exp(eps - pld.trunc_L) * m_right ** (k - 1)
            cells.append(
                SweepCell(
                    k=k,
                    epsilon=eps,
                    result=AccountantResult(
                        epsilon=eps,
                        k=k,
                        delta_lower=min(dl, 1.0),
                        delta_approx=min(da, 1.0),
                        delta_upper=min(du + k * outside, 1.0),
                        diagnostics=diag,
                    ),
                )
            )
    return cells


def delta_direct(model: PrivacyLossModel, epsilon: float) -> float:
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
    l_max = float(model._mixture[0].max())
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
        integrand, t_cross, upper, limit=300, epsabs=_QUAD_TOL * 1e-3, epsrel=1e-12
    )
    if err > _QUAD_TOL:
        raise RuntimeError(
            f"delta quadrature achieved error {err:.3e} > tol {_QUAD_TOL:.3e}"
        )
    return min(max(value, 0.0), 1.0)
