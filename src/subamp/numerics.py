"""Log-space combinatorial helpers shared across the package.

Binomial and hypergeometric coefficients are always accumulated through
log-gamma: the configurations this package targets (b up to a few thousand,
m up to a couple thousand) overflow direct factorials long before the
probabilities themselves underflow.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln

__all__ = [
    "log_binom",
    "log_binom_pmf",
    "stable_sum",
]


def log_binom(n, k):
    """log C(n, k), elementwise; -inf outside the support 0 <= k <= n."""
    n = np.asarray(n, dtype=float)
    k = np.asarray(k, dtype=float)
    valid = (k >= 0) & (k <= n)
    kk = np.where(valid, k, 0.0)
    out = gammaln(n + 1) - gammaln(kk + 1) - gammaln(n - kk + 1)
    return np.where(valid, out, -np.inf)


def log_binom_pmf(k, n, p):
    """log of the Binomial(n, p) pmf at k, elementwise.

    Handles the degenerate edges p = 0 and p = 1 (point masses at 0 and n)
    without emitting 0 * (-inf) artifacts.
    """
    k = np.asarray(k, dtype=float)
    n = np.asarray(n, dtype=float)
    p = np.asarray(p, dtype=float)
    k, n, p = np.broadcast_arrays(k, n, p)
    out = np.full(k.shape, -np.inf)

    interior = (p > 0) & (p < 1)
    if np.any(interior):
        ki, ni, pi = k[interior], n[interior], p[interior]
        out[interior] = (
            log_binom(ni, ki) + ki * np.log(pi) + (ni - ki) * np.log1p(-pi)
        )
    out[(p == 0) & (k == 0)] = 0.0
    out[(p == 1) & (k == n)] = 0.0
    return out if out.ndim else float(out)


def stable_sum(values) -> float:
    """Exactly rounded float sum (math.fsum) of an iterable/array."""
    return math.fsum(np.asarray(values, dtype=float).ravel().tolist())
