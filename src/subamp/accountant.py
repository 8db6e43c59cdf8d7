"""k-fold privacy loss composition via FFT convolution (Fourier accountant).

The 1-fold composition is the exact cell masses themselves, so k = 1 reads
them with no transform. For k >= 2 the masses, being real, have a Hermitian
spectrum: they are transformed once with a real FFT, each of the r/2+1
frequencies of the half-spectrum is raised to the k-th power, and one real
inverse FFT per k >= 2 gives the composed masses. Only frequencies with
|spectrum| above exp(-750/k) are powered; the others are set to exactly
0. Their k-th power is at most e^-750, under 1% of the smallest subnormal
2^-1074, which pow rounds to +0, so the skip changes no output bit. The
powered array stops at the last kept frequency, and the inverse pads the
rest with zeros: on the curve grids (r = 2^20) it holds at most 7,281 of
the 524,289 frequencies. Either array is tail summed against
(1 - e^{eps - s}) by _tail: one expm1 pass over the cells above eps, and
a segment of about k/2 cells for each of the cell's two lower
thresholds. The per-k work (power, inverse, floor, tails) runs on one
thread per CPU in the process's affinity mask, the calling thread among
them, one k per task, and reduces with numpy's own sums, never BLAS, so
the output bits do not depend on the number of CPUs or of BLAS threads.
Each cell's tails are read on their own, so its bits depend on
(pld, k, eps) alone, not on the other k or eps of the call.

The composed array places each loss at its cell's left edge. Placing the
same masses at the right edges shifts the composed array by k dx, so the
three deltas are tails of one array: delta_lower at eps, delta_approx
(centres) at eps - k dx/2 and delta_upper at eps - k dx, plus a union
bound over the mass outside the grid. They are ordered by construction.
_cell builds each (k, eps) cell inside its k's task; a new bracket term
(wrap-around, pair bounds, the larger Poisson direction) goes there alone.
The bounds hold for the exact masses up to FFT round-off (none at k = 1)
and wrap-around of the composed loss past +-L, neither of which is
bounded yet; where a k's delta_upper falls below a smaller k's
delta_lower, which no true delta does, compose_many returns an error
cell. The additive residual term that appears for base mechanisms with
delta(inf) > 0 is identically zero here: loss models only exist for the
Gaussian base, so it is omitted.

delta_direct is the independent verification route: the same delta(eps) as
a one-dimensional adaptive quadrature over output space, touching neither
the grid, the FFT, nor the Newton inversion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from .mechanisms import _quad
from .numerics import _NumericalFailure, _epsilon, _integer, _map_blocks
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

class EpsilonBeyondGridError(ValueError):
    """epsilon at or beyond the last grid point; the tail sum is empty."""


class NonFiniteError(_NumericalFailure):
    """NaN/Inf appeared in the composed intensities.

    The cell masses are finite and sum to at most 1, so every power of
    their spectrum is bounded by 1; this is a guard, whose message names
    the grid and the scheme, not an expected outcome.
    """


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


def _check_finite(name: str, arr: np.ndarray, context: str) -> None:
    bad = ~np.isfinite(arr)
    if bad.any():
        raise NonFiniteError(
            f"non-finite values in {name} ({int(bad.sum())} of {arr.size} entries; {context})"
        )


def _survives(log_mag: np.ndarray, k: int) -> np.ndarray:
    # Entries whose k-th power can be nonzero: k log|z| <= -750 gives
    # |z|^k <= e^-750 < 2^-1075. Written as ~(<=) so that NaN is kept. The
    # test is on k log|z|, not on |z| <= exp(-750/k), which rounds to 1 for
    # k above ~1.4e19 and would drop |z| = 1, the total mass.
    return ~(k * log_mag <= -750.0)


def _spectrum(vec: np.ndarray, k_min: int) -> tuple[np.ndarray, ...]:
    """Indices, magnitudes, log magnitudes and angles of the half-spectrum
    kept at k_min.

    The masses are half-swapped first, so that index 0 holds the loss 0:
    the spectrum of a loss centred near 0 has small angles, which k * angle
    magnifies less than angles near pi (at k = 1000 the unswapped transform
    gave 1.4x the absolute error of the composed masses).
    """
    spec = np.fft.rfft(np.roll(vec, vec.size // 2))
    mag = np.abs(spec)
    with np.errstate(divide="ignore"):
        log_mag = np.log(mag)
    idx = np.flatnonzero(_survives(log_mag, k_min))
    return idx, mag[idx], log_mag[idx], np.angle(spec[idx])


def _powered(polar: tuple[np.ndarray, ...], k: int) -> np.ndarray:
    """The half-spectrum of the k-fold composed masses, half-swapped back,
    up to its last kept frequency.

    The elementwise power runs in polar form (magnitude^k, angle*k) to limit
    error growth at large k, on the frequencies with magnitude above
    exp(-750/k) only; every other entry is set to +0, the value pow gives
    it. The array stops at the last kept frequency (one +0 entry when none
    is kept), and irfft(..., n=r) pads the rest of the r/2 + 1 with zeros,
    so the inverse is that of the full half-spectrum. Half-swapping the
    inverse transform multiplies frequency f by (-1)^f, which is applied
    to the powered entries instead.
    """
    idx, mag, log_mag, ang = polar
    keep = _survives(log_mag, k)
    freq = idx[keep]
    values = mag[keep] ** k * np.exp(1j * k * ang[keep])
    np.negative(values, out=values, where=freq % 2 == 1)
    out = np.zeros(freq[-1] + 1 if freq.size else 1, dtype=complex)
    out[freq] = values
    return out


def _tail(s: np.ndarray, u: np.ndarray, thresholds: tuple[float, ...]) -> list[float]:
    """T(theta) = sum over s_i > theta of (1 - e^{theta - s_i}) u_i, for each
    theta of a descending tuple, in one chained read.

    One expm1 pass over the slice above the first theta gives its tail T and
    W(theta) = sum over s_i > theta of e^{theta - s_i} u_i. Each next theta'
    reads only its segment theta' < s_i <= theta and rolls the rest down:

        T(theta') = T(theta) + segment tail + (1 - e^{theta' - theta}) W(theta)
        W(theta') = e^{theta' - theta} W(theta) + segment W

    Every increment is >= 0, so a lower theta never gives a smaller sum, and
    the rounding is that of sums of nonnegative terms. Only differences of
    thresholds are exponentiated, never a threshold: at huge k the lower
    thresholds lie near -k dx, where e^{theta} is 0 and e^{-theta} inf, so
    a product of the two would be NaN. numpy sums the weighted terms: a
    BLAS dot product splits its sum by the BLAS thread count, so its bits
    would depend on the CPUs.
    """
    tails: list[float] = []
    stop, prev, tail, weight = s.size, thresholds[0], 0.0, 0.0
    for theta in thresholds:
        start = int(np.searchsorted(s, theta, side="right"))
        step = theta - prev  # 0 at the first theta, where W is still 0
        tail -= math.expm1(step) * weight
        weight *= math.exp(step)
        terms = np.subtract(theta, s[start:stop])
        np.expm1(terms, out=terms)
        np.multiply(terms, u[start:stop], out=terms)  # -(1 - e^{theta - s_i}) u_i <= 0
        tail -= float(terms.sum())
        terms += u[start:stop]  # e^{theta - s_i} u_i >= 0
        weight += float(terms.sum())
        tails.append(tail)
        stop, prev = start, theta
    return tails


def compose(pld: DiscretizedPLD, k: int, epsilon: float) -> AccountantResult:
    """delta(eps) after k-fold composition, with lower and upper bounds.

    The bounds hold for the exact cell masses of the grid, up to FFT
    round-off (none at k = 1) and wrap-around of the composed loss past +-L.
    """
    (cell,) = compose_many(pld, [k], [epsilon])
    if cell.error is not None:
        raise EpsilonBeyondGridError(cell.error)
    return cell.result


def _cell(
    pld: DiscretizedPLD, s: np.ndarray, u: np.ndarray, k: int, eps: float, m_right: float,
    diagnostics: Diagnostics,
) -> SweepCell:
    """The (k, eps) cell from the k-fold composed masses u on the grid s.

    The composed masses u place each loss at the sum of its cells' left
    edges, so the true sum lies in [s_i, s_i + k dx). The tail at eps is
    delta_lower (left edges), at eps - k dx/2 delta_approx (centres) and at
    eps - k dx delta_upper (right edges), read by one chained _tail call per
    cell, never shared with another eps. delta_upper adds what the grid
    does not dominate, by a union bound over the k terms: mass_outside for
    a loss below -L, and for a loss above L (held in the last cell, at L)
    its excess over placing it at L, at most c[-1] e^{eps - L} M^{k-1} with
    M = sum_i c_i e^{-(s_i + dx)} = m_right. An eps at or beyond the last
    grid point gives an error cell, as its tail sum is empty.
    """
    if eps >= s[-1]:
        return SweepCell(k=k, epsilon=eps, error=(
            f"epsilon={eps:g} must lie below the last grid point "
            f"L - dx = {s[-1]:g}; enlarge trunc_L or grid_r"
        ))
    dx, c_last = pld.dx, float(pld.c[-1])
    dl, da, du = _tail(s, u, (eps, eps - k * dx / 2.0, eps - k * dx))
    outside = pld.mass_outside + c_last * math.exp(eps - pld.trunc_L) * m_right ** (k - 1)
    return SweepCell(k=k, epsilon=eps, result=AccountantResult(
        delta_lower=min(dl, 1.0),
        delta_approx=min(da, 1.0),
        delta_upper=min(du + k * outside, 1.0),
        diagnostics=diagnostics,
    ))


# delta_k(eps) never falls as k grows. A fall of up to this much from one
# bracket to the next is taken as round-off, as long as that is not bounded.
_ROUND_OFF = 1e-12


def _rising_in_k(per_k: list[list[SweepCell]], k_values: list[int]) -> None:
    """Make each cell of per_k whose delta_upper lies more than _ROUND_OFF
    below the largest delta_lower of a smaller k at its eps an error cell.

    The two brackets cannot both hold, and the larger k's is the one that
    wrap-around of the composed loss past +-L bends down. The cells of a
    repeated k are equal, and a bracket's delta_lower is at most its
    delta_upper, so a floor of the same k never makes an error cell.
    """
    order = sorted(range(len(k_values)), key=k_values.__getitem__)
    for j in range(len(per_k[0]) if per_k else 0):
        floor = None  # the cell of a smaller k with the largest delta_lower
        for i in order:
            cell = per_k[i][j]
            if cell.result is None:
                continue
            upper = cell.result.delta_upper
            if floor is not None and upper < floor.result.delta_lower - _ROUND_OFF:
                per_k[i][j] = SweepCell(k=cell.k, epsilon=cell.epsilon, error=(
                    f"delta_upper={upper:.6g} lies below delta_lower="
                    f"{floor.result.delta_lower:.6g} at k={floor.k}, but delta never "
                    "falls as k grows; enlarge trunc_L"
                ))
            elif floor is None or cell.result.delta_lower > floor.result.delta_lower:
                floor = cell


def compose_many(
    pld: DiscretizedPLD, k_list: Sequence[int], eps_grid: Sequence[float]
) -> list[SweepCell]:
    """compose over the k x epsilon grid: one forward rfft, one irfft per k >= 2.

    Each k's task composes and floors the masses, then builds its cells
    with _cell. At k = 1 the composed masses are c itself, read with no
    transform and nothing floored; the forward rfft runs only when some
    k >= 2, keeping the frequencies that survive the smallest such k.
    Per-cell epsilon validation failures are collected into the returned
    cells, and so is a delta that falls with k (_rising_in_k); numerical
    (non-finite) failures abort, as the whole composition for that k is
    meaningless.

    The values of k run on one thread per CPU in the affinity mask, the
    calling thread among them, each writing its own slot, and the cells
    come back in k-list order. Memory is the kept half-spectrum plus
    threads x one k's arrays: the powered half-spectrum up to its last
    kept frequency (16 bytes a frequency, at most 114 KiB on the curve
    grids) and the composed masses (8 r), 8 MiB per thread at r = 2^20;
    the tail read's one temporary, 8 bytes per cell above eps, stays below
    that. On curve_poisson (r = 2^20) the tracemalloc peak is 28.5 MiB at
    one thread, set by the forward transform, and 32.6 MiB at two.
    """
    k_values = [_integer("k", k) for k in k_list]
    eps_values = [_epsilon("epsilon", e) for e in eps_grid]

    context = f"grid_r={pld.grid_r}, trunc_L={pld.trunc_L:g}, scheme={pld.scheme.label}"
    s, dx, c = pld.s, pld.dx, pld.c
    # e^-(s+dx) <= e^L is finite: DiscretizedPLD caps trunc_L at 350. The
    # terms c e^-(s+dx) are built in one r-length buffer by the ops of that
    # expression in its order, so the sum has its bits, and the buffer is
    # freed before the per-k work.
    terms = np.add(s, dx)
    np.negative(terms, out=terms)
    np.exp(terms, out=terms)
    np.multiply(c, terms, out=terms)
    m_right = float(terms.sum())
    del terms
    diagnostics = partial(
        Diagnostics, grid_r=pld.grid_r, trunc_L=pld.trunc_L, mass_defect=pld.mass_outside,
        max_cell_mass=float(c.max()), occupied_cells=int(np.count_nonzero(c)),
    )
    k_transformed = [k for k in k_values if k > 1]
    spectrum = _spectrum(c, min(k_transformed)) if k_transformed else None
    per_k: list[list[SweepCell]] = [[] for _ in k_values]

    def compose_k(items: slice) -> None:
        for i in range(len(k_values))[items]:
            k = k_values[i]
            if k == 1:  # the 1-fold composition is the masses themselves
                u, floored = c, 0.0
            else:
                u = np.fft.irfft(_powered(spectrum, k), n=pld.grid_r)
                _check_finite("intensities", u, context)
                negative = u < 0.0
                floored = float(-u[negative].sum()) if negative.any() else 0.0
                u[negative] = 0.0
            diag = diagnostics(floored_mass=floored)
            per_k[i] = [_cell(pld, s, u, k, eps, m_right, diag) for eps in eps_values]

    _map_blocks(compose_k, len(k_values), 1)
    _rising_in_k(per_k, k_values)
    return [cell for cells in per_k for cell in cells]


def delta_direct(model: PrivacyLossModel, epsilon: float) -> float:
    """Tight delta(eps) at k = 1 by adaptive quadrature over output space."""
    return _delta_direct(model, epsilon)[0]


def _delta_direct(model: PrivacyLossModel, epsilon: float) -> tuple[float, float]:
    """delta_direct's value and the quadrature's error estimate.

    Change of variables turns the tail integral of (1 - e^{eps - s}) against
    omega into the integral of max(0, 1 - e^{eps - L(t)}) f_X(t) dt, so no
    density inversion is needed. The crossing L(t) = eps is located by plain
    bracketed root finding, independent of the production Newton path.
    scipy.optimize is imported here, not with the module, as it and the
    scipy.linalg it loads are most of `import subamp`'s cost.
    """
    from scipy import optimize

    epsilon = _epsilon("epsilon", epsilon)

    sigma = model.sigma
    l_max = float(model._mixture[0].max())
    lo = -l_max - 40.0 * sigma
    hi = l_max + 40.0 * sigma

    def resid(t: float) -> float:
        return loss_at(model, t) - epsilon

    # L(lo) < 0 <= eps: L is odd and increasing, and Poisson's L is < 0 below t = 1/2.
    while resid(hi) < 0.0:
        hi *= 2.0
    t_cross = optimize.brentq(resid, lo, hi, xtol=1e-13, rtol=1e-14)

    def integrand(t):
        t = np.asarray(t, dtype=float)
        gain = -np.expm1(epsilon - loss_at(model, t))
        return np.maximum(gain, 0.0) * np.exp(log_output_density(model, t))

    upper = max(hi, t_cross + 40.0 * sigma)
    value, err = _quad(integrand, t_cross, upper, "delta")
    return min(max(value, 0.0), 1.0), err
