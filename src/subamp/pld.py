"""Privacy loss random variables of subsampled Gaussian mechanisms.

One application of scheme-then-Gaussian induces a log-likelihood-ratio
random variable s = L(t) of the output t. Every scheme's output density
under X is a normal mixture f_X(t) = sum_l w_l N(t; l, sigma^2) over the
multiplicities l of the record (Poisson and WOR: l in {0, 1}). For Poisson
the reference density is the plain Gaussian and L has a closed-form
inverse; for WOR the loss is the two-sided single-shift mixture ratio, also
invertible in closed form. The multiset schemes (WR, MUSTwo, MUSTow,
MUSTww) give binomial-mixture exponential sums whose inverse is found by
safeguarded Newton. For every scheme but Poisson L is odd (exactly, in
floating point too), so _inverse inverts |s| and negates t where s < 0: the
WOR closed form and Newton only ever see s >= 0. The density omega(s) =
f_X(t) dL^{-1}/ds takes the inverse derivative in closed form for Poisson
and as 1/L'(t) at t = L^{-1}(s) for every symmetric scheme; the density with
X and X' exchanged is omega itself.

The Newton kernel writes L = log N - log D over the K mixture components
and takes one exponential per side. It and the CDF pass work in blocks of
_CELLS // K rows, which run on one thread per CPU in the process's
affinity mask. Their temporaries hold a few blocks of _CELLS cells per
thread, so memory is bounded for any K, and the outputs are bit-identical
to one CPU (`taskset -c 0` gives the serial path). Each block sums only
the components that can reach its rows, chosen from every component's
term at the block's smallest and largest t: a kernel term is linear in t,
so one more than 40 nats below the largest of the terms' smaller end values
is under e^-40 of the peak on every row; a CDF term is monotone in t within
one half of the grid, so one whose larger end value is at most 2^-60 / K of
the smaller end total is under 2^-60 of every row's probability. The
loss_at, log_output_density and quadrature routes keep full sums.

Discretization follows the accountant's grid contract: c_i is the exact
mass P[L in [s_i, s_i + dx)], a difference of mixture CDFs at the inverted
cell edges (survival functions right of s = 0, where CDF differences would
cancel). The last cell also holds the mass above L; the mass below -L is
kept as one scalar, so the masses and that scalar sum to 1. For the
symmetric schemes only the non-negative edges are inverted and t(-s) = -t(s)
fills the other half.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import ndtr

from .amplification import log_miss_probability, multiplicity_weights
from .numerics import _map_blocks
from .schemes import Poisson, SamplingScheme, WOR

__all__ = [
    "PrivacyLossModel",
    "DiscretizedPLD",
    "OutOfDomainError",
    "NoConvergenceError",
    "loss_at",
    "invert_loss",
    "pld_density",
    "pld_density_swapped",
    "log_output_density",
    "discretize",
]

# Mixture weights whose log falls this far below the largest are dropped.
# Each is below 8e-53 of the largest, so together they move any probability
# by less than m * 8e-53. A cutoff of 60 moved the WR(1000, 200), sigma=4
# loss mass on [5, 7), 2.2e-40, by 2.9e-7 of itself: in the far tail the
# largest multiplicities dominate the mixture despite their weights.
# Poisson and WOR lose their l = 1 term to it only when eta < 7.7e-53.
_LOG_WEIGHT_CUTOFF = 120.0

_NEWTON_TOL = 1e-12
_NEWTON_MAX_ITER = 200
# Rows x components in one block of the Newton kernel (one exponential per
# side) and of the CDF pass, which bounds every temporary of bracketing,
# presolve, Newton and the cell masses for any mixture size: threads x one
# block's temporaries, one thread per CPU in the affinity mask. 1 MB of
# float64 stays in a core's L2 cache across the kernel's passes; 8 MB made
# it 1.5x slower. The block boundaries fix the BLAS calls and so the output
# bits: changing _CELLS can change them (doubling the block did). Blocks
# are sized from the full K, though each sums only the components its rows
# can reach, so the windows below leave the boundaries where they were.
_CELLS = 1 << 17
# A kernel term more than _WINDOW_NATS below a floor under its block's peak
# is dropped: each sum moves by at most K e^-40 of itself, 2e-15 at K = 501,
# far under _NEWTON_TOL. A CDF term at most _CDF_WINDOW / K of its block's
# smallest edge probability is dropped: under one ulp of every edge. On the
# benchmark grids the kernel keeps 41-65% of its terms on the multiset
# configs and 10% on MUSTww(1000, 10, 500), the CDF pass 43-67% and 39%.
_WINDOW_NATS = 40.0
_CDF_WINDOW = 2.0**-60
# Shifted kernel terms are raised to this before exp: e^-700 ~ 1e-304 adds
# nothing to a sum of at least 1, and exp stays off its slow underflow path.
_EXP_FLOOR = -700.0


class OutOfDomainError(ValueError):
    """Requested loss value lies outside the image of L."""


class NoConvergenceError(RuntimeError):
    """Root finder exhausted its iteration budget."""

    def __init__(self, message: str, iterations: int, worst_residual: float):
        super().__init__(message)
        self.iterations = iterations
        self.worst_residual = worst_residual


@dataclass(frozen=True)
class PrivacyLossModel:
    """Subsampling scheme composed with a Gaussian of scale sigma.

    sigma is expressed in units of the per-copy sensitivity, matching the
    unit shifts of the mixture components.
    """

    scheme: SamplingScheme
    sigma: float

    def __post_init__(self):
        if not (math.isfinite(self.sigma) and self.sigma > 0.0):
            raise ValueError(f"sigma must be positive and finite, got {self.sigma!r}")

    @property
    def is_symmetric(self) -> bool:
        """True when f_X'(t) = f_X(-t) (every scheme except Poisson)."""
        return not isinstance(self.scheme, Poisson)

    @property
    def loss_domain_low(self) -> float:
        """Infimum of the image of L (open end)."""
        if isinstance(self.scheme, Poisson):
            return math.log1p(-self.scheme.gamma)
        return -math.inf

    @cached_property
    def _mixture(self) -> tuple[np.ndarray, np.ndarray]:
        """(multiplicities l, log mixture weights) of f_X, l = 0 included.

        The weights are the miss probability and the multiplicity
        distribution, which for Poisson and WOR is the single weight eta
        at l = 1.
        """
        log_w0 = log_miss_probability(self.scheme)
        with np.errstate(divide="ignore"):
            log_w = np.log(multiplicity_weights(self.scheme))
        l_vals = np.arange(1, log_w.size + 1, dtype=float)
        keep = log_w >= max(log_w.max(), log_w0) - _LOG_WEIGHT_CUTOFF
        l_vals = np.concatenate(([0.0], l_vals[keep]))
        log_w = np.concatenate(([log_w0], log_w[keep]))
        return l_vals, log_w

    @cached_property
    def _log_a(self) -> np.ndarray:
        """log(w_l * exp(-l^2 / (2 sigma^2))) over the kept multiplicities."""
        l_vals, log_w = self._mixture
        return log_w - l_vals**2 / (2.0 * self.sigma**2)


def _lse(terms: np.ndarray) -> np.ndarray:
    """Row-wise log-sum-exp of a 2-d array."""
    peak = terms.max(axis=1)
    with np.errstate(over="ignore"):
        out = peak + np.log(np.exp(terms - peak[:, None]).sum(axis=1))
    return out


def _sym_loss(model: PrivacyLossModel, t: np.ndarray) -> np.ndarray:
    l_vals, _ = model._mixture
    slopes = l_vals / model.sigma**2
    arg = t[:, None] * slopes[None, :]
    log_a = model._log_a[None, :]
    return _lse(log_a + arg) - _lse(log_a - arg)


def _kernel_window(
    log_a: np.ndarray, slopes: np.ndarray, log_slopes: np.ndarray, ends: np.ndarray
) -> np.ndarray:
    """Indices of the components one side of a kernel block must sum.

    Each log term log a_l + x l / sigma^2 is linear in x, so over x in
    [ends.min(), ends.max()] it lies between its two end values, and the
    largest of the terms' smaller end values is a floor under the row's
    peak. A term more than _WINDOW_NATS below that floor at both ends is
    below e^-_WINDOW_NATS of the peak on every row; the same test on the
    slope-weighted terms (log slope_l added) covers the slope sum. So the
    dropped terms move each of the two sums by at most K e^-_WINDOW_NATS
    of itself.
    """
    lo, hi = np.sort(log_a + np.multiply.outer(ends, slopes), axis=0)
    keep = (hi >= lo.max() - _WINDOW_NATS) | (
        hi + log_slopes >= (lo + log_slopes).max() - _WINDOW_NATS
    )
    return np.flatnonzero(keep)


def _sym_loss_and_slope(model: PrivacyLossModel, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(L(t), L'(t)): the Newton kernel.

    L = log N - log D with N(t) = sum_l a_l e^{t l / sigma^2}, D(t) = N(-t).
    One product with [1, l / sigma^2] gives each side's plain and slope-
    weighted sums, so L' = N'/N - D'/D. Each block and side sums only the
    components that _kernel_window keeps.
    """
    l_vals, _ = model._mixture
    slopes = l_vals / model.sigma**2
    with np.errstate(divide="ignore"):
        log_slopes = np.log(slopes)  # -inf at l = 0
    weights = np.stack([np.ones_like(slopes), slopes])
    log_a = model._log_a
    loss = np.zeros(t.size)
    slope = np.zeros(t.size)

    def block(rows: slice) -> None:
        # K x rows, so the max and the shift run along contiguous rows; one
        # buffer serves both sides.
        t_rows = t[rows]
        buffer = np.empty((slopes.size, t_rows.size))
        t_ends = np.array([t_rows.min(), t_rows.max()])
        for sign in (1.0, -1.0):
            keep = _kernel_window(log_a, slopes, log_slopes, sign * t_ends)
            terms = buffer[: keep.size]
            np.multiply.outer(slopes[keep], sign * t_rows, out=terms)
            terms += log_a[keep, None]
            peak = terms.max(axis=0)
            terms -= peak
            np.maximum(terms, _EXP_FLOOR, out=terms)
            np.exp(terms, out=terms)
            sums = weights[:, keep] @ terms
            loss[rows] += sign * (peak + np.log(sums[0]))
            slope[rows] += sums[1] / sums[0]

    _map_blocks(block, t.size, max(1, _CELLS // slopes.size))
    return loss, slope


def loss_at(model: PrivacyLossModel, t):
    """The privacy loss L(t) of outputting t. Accepts scalars or arrays."""
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if not np.all(np.isfinite(t_arr)):
        raise ValueError("t must be finite")
    if isinstance(model.scheme, Poisson):
        q = model.scheme.gamma
        arg = (2.0 * t_arr - 1.0) / (2.0 * model.sigma**2)
        out = np.logaddexp(math.log(q) + arg, math.log1p(-q))
    else:
        out = _sym_loss(model, t_arr)
    return float(out[0]) if np.ndim(t) == 0 else out


def log_output_density(model: PrivacyLossModel, t):
    """log f_X(t): the subsampled-mechanism output density under X."""
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    sig = model.sigma
    l_vals, log_w = model._mixture
    terms = log_w[None, :] - (t_arr[:, None] - l_vals[None, :]) ** 2 / (2.0 * sig**2)
    out = _lse(terms) - math.log(sig) - 0.5 * math.log(2.0 * math.pi)
    return float(out[0]) if np.ndim(t) == 0 else out


# -- closed-form inverses (Poisson and WOR) ---------------------------------


def _poisson_inverse(model: PrivacyLossModel, s: np.ndarray) -> np.ndarray:
    q = model.scheme.gamma
    # e^s - (1 - q) written as expm1(s) + q to survive s near log(1 - q).
    return model.sigma**2 * (np.log(np.expm1(s) + q) - math.log(q)) + 0.5


def _poisson_inverse_derivative(model: PrivacyLossModel, s: np.ndarray) -> np.ndarray:
    return model.sigma**2 * np.exp(s) / (np.expm1(s) + model.scheme.gamma)


def _wor_inverse(model: PrivacyLossModel, s: np.ndarray) -> np.ndarray:
    """Closed-form inverse of the WOR loss at s >= 0.

    With q = m/n, a = q e^{-1/(2 sigma^2)}, P = (1-q)(1-e^s) and
    Q = 4 a^2 e^s: e^{t / sigma^2} = (-P + sqrt(P^2 + Q)) / (2a). P <= 0 for
    s >= 0, so the sum does not cancel.
    """
    q = model.scheme.m / model.scheme.n
    a = q * math.exp(-1.0 / (2.0 * model.sigma**2))
    p = (1.0 - q) * (-np.expm1(s))
    root = np.sqrt(p * p + 4.0 * a * a * np.exp(s))
    return model.sigma**2 * (np.log(root - p) - math.log(2.0 * a))


# -- safeguarded Newton for the multiset schemes ----------------------------


def _loss_ceiling(model: PrivacyLossModel, s_max: float) -> float:
    """t with L(t) >= s_max (or L(t) NaN): 10 sigma^2 doubled at most 200 times."""
    bound = 10.0 * model.sigma**2
    for _ in range(200):
        if not _sym_loss_and_slope(model, np.array([bound]))[0][0] - s_max < 0.0:
            return bound
        bound *= 2.0
    raise NoConvergenceError("loss ceiling search failed", 200, math.inf)


def _invert_newton(model: PrivacyLossModel, s: np.ndarray) -> np.ndarray:
    """t with |L(t) - s| <= _NEWTON_TOL at s >= 0, started from the presolve."""
    if s.size == 0:  # the presolve spans [s.min(), s.max()]
        return np.empty(0)
    t, lo, hi = _presolve_starts(model, s)
    active = np.arange(s.size)
    for _ in range(_NEWTON_MAX_ITER):
        loss, slope = _sym_loss_and_slope(model, t[active])
        resid = loss - s[active]
        below = resid < 0.0
        lo[active[below]] = t[active[below]]
        above = resid > 0.0
        hi[active[above]] = t[active[above]]

        live = np.abs(resid) > _NEWTON_TOL
        active = active[live]
        if active.size == 0:
            return t
        with np.errstate(divide="ignore", invalid="ignore"):
            t_new = t[active] - resid[live] / slope[live]
        fallback = ~np.isfinite(t_new) | (t_new <= lo[active]) | (t_new >= hi[active])
        t_new = np.where(fallback, 0.5 * (lo[active] + hi[active]), t_new)
        t[active] = t_new
    worst = float(np.abs(_sym_loss_and_slope(model, t[active])[0] - s[active]).max())
    raise NoConvergenceError(
        f"Newton inversion did not reach |L(t)-s| <= {_NEWTON_TOL:g} after "
        f"{_NEWTON_MAX_ITER} iterations ({active.size} points open, worst residual {worst:.3e})",
        iterations=_NEWTON_MAX_ITER,
        worst_residual=worst,
    )


# Coarse nodes of the presolve. On the r = 3e5 grids 16384 nodes start
# Newton close enough that one step meets the tolerance almost everywhere:
# two kernel passes over the grid where 4096 nodes needed three.
_PRESOLVE_GRID = 16384


def _presolve_starts(model: PrivacyLossModel, s: np.ndarray):
    """Tight starting points/brackets by interpolating L on a coarse t-grid.

    L is strictly increasing, so the two coarse nodes around each target s
    bracket the root and linear interpolation lands within a few Newton
    steps of it. The span starts at -10 sigma^2, where L < 0 <= s.
    """
    span = (-10.0 * model.sigma**2, _loss_ceiling(model, s.max()))
    t_coarse = np.linspace(*span, _PRESOLVE_GRID + 1)
    s_coarse = _sym_loss_and_slope(model, t_coarse)[0]
    t0 = np.interp(s, s_coarse, t_coarse)
    idx = np.clip(np.searchsorted(s_coarse, s, side="right"), 1, _PRESOLVE_GRID)
    # One spare cell on each side absorbs ulp-level wiggles in s_coarse.
    return t0, t_coarse[np.maximum(idx - 2, 0)], t_coarse[np.minimum(idx + 1, _PRESOLVE_GRID)]


def _inverse(model: PrivacyLossModel, s: np.ndarray) -> np.ndarray:
    """t = L^{-1}(s) at loss values s inside the image of L.

    The one scheme dispatch of the inversion: closed forms for Poisson and
    WOR, safeguarded Newton otherwise. L is odd for every scheme but
    Poisson, so those invert |s| and negate t where s < 0: the WOR closed
    form and Newton see s >= 0 only.
    """
    if isinstance(model.scheme, Poisson):
        return _poisson_inverse(model, s)
    invert = _wor_inverse if isinstance(model.scheme, WOR) else _invert_newton
    t = invert(model, np.abs(s))
    np.negative(t, out=t, where=s < 0.0)
    return t


def invert_loss(model: PrivacyLossModel, s):
    """t with L(t) = s.

    Poisson and WOR use the closed-form inverses; the multiset schemes use
    bracketed Newton to |L(t) - s| <= _NEWTON_TOL.
    """
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    if not np.all(np.isfinite(s_arr)):
        raise ValueError("s must be finite")
    low = model.loss_domain_low
    if np.any(s_arr <= low):
        raise OutOfDomainError(
            f"loss values must exceed log(1-q) = {low:.6g} for Poisson"
        )
    out = _inverse(model, s_arr)
    return float(out[0]) if np.ndim(s) == 0 else out


def _omega(model: PrivacyLossModel, s: np.ndarray) -> np.ndarray:
    """omega(s) = f_X(L^{-1}(s)) dL^{-1}/ds, zero below the image of L."""
    ok = s > model.loss_domain_low
    t = _inverse(model, s[ok])
    if model.is_symmetric:
        dinv = 1.0 / _sym_loss_and_slope(model, t)[1]
    else:
        dinv = _poisson_inverse_derivative(model, s[ok])
    out = np.zeros_like(s)
    out[ok] = np.exp(log_output_density(model, t)) * dinv
    return out


def pld_density(model: PrivacyLossModel, s):
    """Density omega(s) of the privacy loss random variable.

    omega(s) = f_X(L^{-1}(s)) * d L^{-1}/ds. The derivative is closed-form
    for Poisson and 1/L'(t) at t = L^{-1}(s) for the symmetric schemes.
    """
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    out = _omega(model, s_arr)
    return float(out[0]) if np.ndim(s) == 0 else out


def pld_density_swapped(model: PrivacyLossModel, s):
    """Density of the loss with X and X' exchanged (omega_{X'/X}).

    For the symmetric schemes f_X'(t) = f_X(-t), so the swapped loss
    log f_X'(T) - log f_X(T) = L(-T) of T ~ f_X' is L(T') with T' = -T ~ f_X:
    the swapped density is pld_density itself. Used by the Lemma-style
    identity checks; undefined for Poisson.
    """
    if not model.is_symmetric:
        raise TypeError("swapped density implemented for symmetric schemes only")
    return pld_density(model, s)


def _check_grid(trunc_L: float, grid_r: int) -> None:
    if not (math.isfinite(trunc_L) and trunc_L > 0.0):
        raise ValueError(f"trunc_L must be positive and finite, got {trunc_L!r}")
    if grid_r < 2 or grid_r % 2 != 0:
        raise ValueError(f"grid_r must be a positive even integer, got {grid_r!r}")


@dataclass(frozen=True)
class DiscretizedPLD:
    """Exact masses of a PLD on the grid s_i = -L + i*dx, i = 0..r-1.

    c[i] = P[L in [s_i, s_i + dx)], except that the last cell also holds
    P[L >= L]; mass_outside = P[L < -L], so c.sum() + mass_outside = 1.
    """

    trunc_L: float
    grid_r: int
    c: np.ndarray
    mass_outside: float
    scheme: SamplingScheme
    sigma: float

    def __post_init__(self):
        _check_grid(self.trunc_L, self.grid_r)
        if self.c.shape != (self.grid_r,):
            raise ValueError("c must have length grid_r")
        if not np.all(np.isfinite(self.c)):
            raise ValueError("non-finite mass in c")
        if np.any(self.c < 0.0) or not 0.0 <= self.mass_outside <= 1.0:
            raise ValueError("negative mass in c or mass_outside outside [0, 1]")

    @property
    def dx(self) -> float:
        """Cell width 2L / r."""
        return 2.0 * self.trunc_L / self.grid_r

    @property
    def c_minus(self) -> np.ndarray:
        """The masses c; kept for readers of the former three-array layout."""
        return self.c

    @property
    def c_plus(self) -> np.ndarray:
        """The masses c; kept for readers of the former three-array layout."""
        return self.c

    @property
    def s(self) -> np.ndarray:
        """Grid points s_i = -L + i*dx, i = 0..r-1."""
        return -self.trunc_L + self.dx * np.arange(self.grid_r)

    @property
    def total_mass(self) -> float:
        return float(self.c.sum())

    def to_csv(self, path) -> None:
        """Flat debug dump: one row (s, c) per grid cell."""
        np.savetxt(
            path, np.column_stack([self.s, self.c]), delimiter=",", header="s,c",
            comments="", fmt="%.12g",
        )


def _edge_probabilities(model: PrivacyLossModel, t: np.ndarray, split: int) -> np.ndarray:
    """P[L < s_j] for j < split and P[L >= s_j] from split on, at t_j = L^{-1}(s_j).

    The mixture CDF (survival function) of f_X at t_j: ndtr per component
    and one product with the weights, in blocks of _CELLS // K rows.

    Within one half every term w_l ndtr(+-(t - l) / sigma) is monotone in
    t, so over a block it lies between its values at the block's smallest
    and largest t, and the edge probability is at least the smaller of the
    two end totals. A block drops each component whose larger end value is
    at most 2^-60 / K of that smaller total: at most 2^-60 of any edge's
    probability, under one ulp, goes. Where that total is 0 (Poisson's -inf
    edges) only terms that are 0 at both ends, and so on every row, go. The
    block that straddles the split keeps every component.
    """
    l_vals, log_w = model._mixture
    weights = np.exp(log_w)
    sign = np.where(np.arange(t.size) < split, 1.0, -1.0) / model.sigma
    out = np.empty(t.size)

    def block(rows: slice) -> None:
        t_rows = t[rows]
        keep = slice(None)
        if rows.stop <= split or rows.start >= split:
            ends = np.subtract.outer(np.array([t_rows.min(), t_rows.max()]), l_vals)
            ends *= sign[rows.start]
            ends = ndtr(ends, out=ends) * weights
            floor = ends.sum(axis=1).min() * _CDF_WINDOW / l_vals.size
            keep = np.flatnonzero(ends.max(axis=0) > floor)
        z = np.subtract.outer(t_rows, l_vals[keep])
        z *= sign[rows, None]
        out[rows] = ndtr(z, out=z) @ weights[keep]

    _map_blocks(block, t.size, max(1, _CELLS // l_vals.size))
    return out


def discretize(model: PrivacyLossModel, trunc_L: float, grid_r: int) -> DiscretizedPLD:
    """Exact cell masses of the PLD on the accountant grid.

    The left cell edges s_j = -L + j*dx are inverted once, t_j =
    L^{-1}(s_j) (-inf below Poisson's loss floor log(1-q)), and each cell's
    mass is a difference of mixture CDFs at its two edges left of s = 0 and
    of survival functions right of it, so no tail mass cancels against 1.
    The last cell's mass is the survival function at its left edge. L is
    odd for the symmetric schemes, so they invert only the r/2 + 1 edges
    s = 0, dx, ..., L and take t_{-j} = -t_j: half the inversions, where
    _inverse's own mirror would invert every edge's magnitude. Poisson
    inverts every edge above its floor.
    """
    _check_grid(trunc_L, grid_r)
    dx = 2.0 * trunc_L / grid_r
    half = grid_r // 2
    if model.is_symmetric:
        # L is odd: t(-s) = -t(s). dx * j is bit-equal to -(dx * -j), so the
        # mirrored edges are the grid's own.
        t_pos = _inverse(model, dx * np.arange(half + 1))
        t = np.empty(grid_r)
        t[half:] = t_pos[:half]
        np.negative(t_pos[half:0:-1], out=t[:half])
    else:
        edges = dx * (np.arange(grid_r) - half)  # s_half = 0 exactly
        inside = edges > model.loss_domain_low
        t = np.full(grid_r, -math.inf)
        t[inside] = _inverse(model, edges[inside])
    prob = _edge_probabilities(model, t, half)
    cdf = prob[: half + 1].copy()
    cdf[half] = 1.0 - prob[half]
    survival = prob[half:]
    c = np.concatenate((np.diff(cdf), -np.diff(survival), survival[-1:]))
    return DiscretizedPLD(
        trunc_L=float(trunc_L),
        grid_r=int(grid_r),
        # Round-off and the Newton tolerance can leave a difference of two
        # nearly equal probabilities a few ulps below 0.
        c=np.maximum(c, 0.0),
        mass_outside=float(cdf[0]),
        scheme=model.scheme,
        sigma=model.sigma,
    )
