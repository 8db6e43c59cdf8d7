"""Desk-scale utility experiments: subsampling bootstrap and DP-SGD.

Both experiments pin the post-amplification per-query loss eps' and back out
the base-mechanism eps per scheme, then calibrate the Gaussian scale. The
protocol quirks are reproduced as stated, not corrected: the classical
calibration divides by the full data size n (not the subsample size m), and
the bootstrap sensitivities are (U-L)/n for the mean and (U-L)^2/n for the
variance.

Each run draws all its subsamples from one generator, as rows of per-record
multiplicities in blocks of at most 4e6 counts, so memory is bounded at any n.
A DP-SGD step adds N(0, sigma^2 I) to the mean clipped gradient: the stated
noise (|Y|/m) N(0, (m sigma)^2 I), divided by |Y|, with m cancelled.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .amplification import deamplify_epsilon, eta
from .mechanisms import calibrate_sigma
from .numerics import _NumericalFailure, _epsilon, _integer, _positive, _probability, _real
from .sampling import _count_blocks
from .schemes import SamplingScheme, population_size

__all__ = [
    "SGDConfig",
    "BootstrapConfig",
    "DivergenceError",
    "DegenerateSampleError",
    "run_dpsgd_linear",
    "run_dpsgd_logistic",
    "run_bootstrap",
    "make_synthetic",
]

_DIVERGENCE_LIMIT = 1e6


class DivergenceError(_NumericalFailure):
    """Training loss blew past the divergence threshold."""


class DegenerateSampleError(_NumericalFailure):
    """No bootstrap subsample held the two records a variance needs."""


@dataclass(frozen=True)
class SGDConfig:
    scheme: SamplingScheme
    eps_prime_per_iter: float
    delta_base: float
    clip_c: float
    learning_rate: float
    iterations: int
    seed: int
    sigma_override: float | None = None  # force a noise scale (0 disables noise)

    def __post_init__(self):
        for name in ("eps_prime_per_iter", "clip_c", "learning_rate"):
            object.__setattr__(self, name, _positive(name, getattr(self, name)))
        object.__setattr__(self, "delta_base", _probability("delta_base", self.delta_base))
        object.__setattr__(self, "iterations", _integer("iterations", self.iterations))
        object.__setattr__(self, "seed", _integer("seed", self.seed, low=0))
        if self.sigma_override is not None:
            _epsilon("sigma_override", self.sigma_override)


@dataclass(frozen=True)
class BootstrapConfig:
    """One run of `run_bootstrap`; repeats is validated but never read (the
    experiment driver repeats runs). It stays because perfbench's drivers
    workload passes it by keyword; its deletion waits for ROADMAP item 22."""

    scheme: SamplingScheme
    t_boot: int
    bounds: tuple[float, float]
    eps_prime: float
    delta_base: float
    repeats: int
    seed: int

    def __post_init__(self):
        try:
            ends = tuple(self.bounds)
        except TypeError:
            ends = ()
        if len(ends) != 2:
            raise ValueError(f"bounds must be a pair (L_clip, U_clip), got {self.bounds!r}")
        rule = "be finite with L_clip < U_clip"
        lo, hi = (_real("bounds", end, rule, math.isfinite) for end in ends)
        if not lo < hi:
            raise ValueError(f"bounds must {rule}, got {self.bounds!r}")
        object.__setattr__(self, "bounds", (lo, hi))
        for name in ("t_boot", "repeats"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        object.__setattr__(self, "eps_prime", _positive("eps_prime", self.eps_prime))
        object.__setattr__(self, "delta_base", _probability("delta_base", self.delta_base))
        object.__setattr__(self, "seed", _integer("seed", self.seed, low=0))


def calibrate_for_scheme(
    scheme: SamplingScheme,
    eps_prime: float,
    delta_base: float,
    sensitivity: float,
    calibration: str,
) -> tuple[float, float]:
    """(sigma, base eps) for a target post-amplification eps'.

    Deamplifies eps' through eta(scheme), then calibrates the Gaussian scale
    for (eps, delta_base) at the given sensitivity by the classical bound.
    calibration must be "classical", the one method there is.
    """
    if calibration != "classical":
        raise ValueError(f"calibration must be 'classical', got {calibration!r}")
    eps = deamplify_epsilon(eta(scheme), eps_prime)
    # Deamplified eps routinely exceeds 1 here; the protocol applies the
    # classical formula there regardless, so the range warning is noise.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        sigma = calibrate_sigma(delta_base, eps, sensitivity)
    return sigma, eps


def run_bootstrap(config: BootstrapConfig, data: np.ndarray) -> dict:
    """Privacy-preserving mean/variance via subsampling bootstrap.

    Clamps the data and draws t_boot subsamples from one generator as count
    rows, in blocks of at most 4e6 counts. Each row of two or more records
    gives a mean and a ddof=1 variance; the Gaussian mechanism sanitizes
    each, and the across-subsample averages are released.
    """
    data = np.asarray(data, dtype=float)
    n = population_size(config.scheme)
    if data.shape != (n,):
        raise ValueError(f"data must have length n={n}, got shape {data.shape}")
    lo, hi = config.bounds
    clamped = np.clip(data, lo, hi)

    width = hi - lo
    sigma_mean, _ = calibrate_for_scheme(
        config.scheme, config.eps_prime, config.delta_base, width / n, "classical"
    )
    sigma_var, _ = calibrate_for_scheme(
        config.scheme, config.eps_prime, config.delta_base, width**2 / n, "classical"
    )

    rng = np.random.default_rng([config.seed, 1])
    stats = []
    for counts in _count_blocks(config.scheme, rng, config.t_boot):
        counts = counts[counts.sum(axis=1) >= 2]  # drop empty/singleton Poisson draws
        total = counts.sum(axis=1)
        mean = counts @ clamped / total
        var = (counts * (clamped - mean[:, None]) ** 2).sum(axis=1) / (total - 1)
        stats.append((mean, var))
    means, variances = map(np.concatenate, zip(*stats))
    if means.size == 0:
        raise DegenerateSampleError("all bootstrap subsamples were degenerate")
    return {
        "pp_mean": float((means + rng.normal(0.0, sigma_mean, means.size)).mean()),
        "pp_var": float((variances + rng.normal(0.0, sigma_var, means.size)).mean()),
        "sigma_mean": sigma_mean,
        "sigma_var": sigma_var,
    }


def _clip_rows(grads: np.ndarray, clip_c: float) -> np.ndarray:
    norms = np.linalg.norm(grads, axis=1)
    scale = np.maximum(1.0, norms / clip_c)
    return grads / scale[:, None]


def _dpsgd_loop(
    config: SGDConfig,
    design: np.ndarray,
    response: np.ndarray,
    grad_fn: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    loss_fn: Callable[[np.ndarray, np.ndarray, np.ndarray], float],
) -> dict:
    n, p = design.shape
    if population_size(config.scheme) != n:
        raise ValueError("scheme population size must match the data size")

    scheme = config.scheme
    if config.sigma_override is not None:
        sigma = float(config.sigma_override)
    else:
        sigma, _ = calibrate_for_scheme(
            scheme, config.eps_prime_per_iter, config.delta_base,
            config.clip_c / n, "classical",
        )

    rng = np.random.default_rng([config.seed, 2])
    rows = (row for block in _count_blocks(scheme, rng, config.iterations) for row in block)
    beta = np.zeros(p)
    loss_trace = np.empty(config.iterations)

    for t, row in enumerate(rows):
        total = int(row.sum())
        if total == 0:
            loss_trace[t] = loss_trace[t - 1] if t else math.nan
            continue
        elements = np.flatnonzero(row)
        x = design[elements]
        y = response[elements]
        counts = row[elements]

        loss = loss_fn(beta, np.repeat(x, counts, axis=0), np.repeat(y, counts))
        loss_trace[t] = loss
        if not math.isfinite(loss) or loss > _DIVERGENCE_LIMIT:
            raise DivergenceError(
                f"loss {loss:.3e} exceeded {_DIVERGENCE_LIMIT:.0e} at iteration {t}"
            )

        grads = grad_fn(beta, x, y)
        clipped = _clip_rows(grads, config.clip_c)
        assert np.all(
            np.linalg.norm(clipped, axis=1) <= config.clip_c * (1.0 + 1e-12)
        ), "clipped gradient exceeded the sensitivity bound"
        grad_sum = (counts[:, None] * clipped).sum(axis=0)
        noise = rng.normal(0.0, total * sigma, size=p)
        beta = beta - config.learning_rate * (grad_sum + noise) / total

    return {"beta_hat": beta, "loss_trace": loss_trace, "sigma_used": sigma}


def _linear_grads(beta: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    resid = y - x @ beta
    return -2.0 * resid[:, None] * x


def _linear_loss(beta: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    resid = y - x @ beta
    return float(np.mean(resid**2))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _logistic_grads(beta: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return (_sigmoid(x @ beta) - y)[:, None] * x


def _logistic_loss(beta: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    z = x @ beta
    # Cross-entropy via the stable log(1 + e^z) - y*z form.
    return float(np.mean(np.logaddexp(0.0, z) - y * z))


def run_dpsgd_linear(config: SGDConfig, design: np.ndarray, response: np.ndarray) -> dict:
    """DP-SGD on squared loss with per-example clipping.

    Gradients of distinct elements are clipped first and then weighted by
    their multiplicity. The stated protocol
    g~ = |Y|^{-1} (sum g-bar + (|Y|/m) N(0, (m sigma)^2 I)) is drawn with m
    cancelled, as g~ = |Y|^{-1} sum g-bar + N(0, sigma^2 I).
    """
    return _dpsgd_loop(config, design, response, _linear_grads, _linear_loss)


def run_dpsgd_logistic(config: SGDConfig, design: np.ndarray, response: np.ndarray) -> dict:
    """DP-SGD on cross-entropy loss; desk-scale classification smoke path."""
    return _dpsgd_loop(config, design, response, _logistic_grads, _logistic_loss)


def make_synthetic(kind: str, n: int, seed: int):
    """Deterministic synthetic datasets for the utility experiments.

    gaussian_univariate: n draws from N(0, 1).
    linear_regression: design [1, x1, x2] with y = 1 + 0.5 x1 + 0.2 x2 + N(0,1).
    logistic_2class: design [1, x1, x2], labels Bernoulli(sigmoid(0.8 x1 - 0.6 x2 + 0.3)).
    """
    kinds = {"gaussian_univariate": 11, "linear_regression": 12, "logistic_2class": 13}
    if kind not in kinds:
        raise ValueError(f"unknown synthetic kind {kind!r}")
    n = _integer("n", n)
    rng = np.random.default_rng([seed, kinds[kind]])
    if kind == "gaussian_univariate":
        return rng.normal(0.0, 1.0, size=n)
    design = np.column_stack([np.ones(n), rng.normal(0.0, 1.0, size=(n, 2))])
    if kind == "linear_regression":
        return design, design @ np.array([1.0, 0.5, 0.2]) + rng.normal(0.0, 1.0, size=n)
    probs = _sigmoid(design @ np.array([0.3, 0.8, -0.6]))
    return design, (rng.random(n) < probs).astype(float)
