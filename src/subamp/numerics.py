"""Input rules, log-space combinatorics and the one parallel helper.

_integer, _epsilon, _positive and _probability check every scalar input: an
int but bool (not 2.0), or a numbers.Real but bool (not "0.5") finite and
>= 0, finite and > 0, or in (0, 1); _reals (and _epsilons) each element of
an array of int or float dtype (not bool or str) by a test; else ValueError.

Binomial coefficients are always accumulated through log-gamma: the
configurations this package targets (b up to a few thousand, m up to a
couple thousand) overflow direct factorials long before the probabilities
themselves underflow.

_map_blocks runs independent slices of a loop on one thread per CPU, the
calling thread among them: the row blocks of `pld`'s Newton kernel and CDF
pass, the per-k transforms of `accountant.compose_many`, and the trial
blocks of `sampling.mc_stats`.

_NumericalFailure is the base of every numerical failure of the package
(the CLI's exit 3); each subclass states its numbers in its message.
"""

from __future__ import annotations

import contextvars
import math
import operator
import os
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from numbers import Real

import numpy as np
from scipy.special import gammaln

__all__ = [
    "log_binom",
    "log_binom_pmf",
    "stable_sum",
]


class _NumericalFailure(RuntimeError):
    """A numerical method failed on valid input: no convergence, an
    inaccurate quadrature, a non-finite composition or a diverged loss."""


def _integer(name: str, value, low: int = 1) -> int:
    """value as a plain int, if it is an integer >= low (by default a count)."""
    try:
        number = operator.index(value)
    except TypeError:
        number = None
    if number is None or isinstance(value, bool) or number < low:
        what = "a positive integer" if low == 1 else f"an integer >= {low}"
        raise ValueError(f"{name} must be {what}, got {value!r}")
    return number


def _real(name: str, value, what: str, ok: Callable[[float], bool]) -> float:
    """value as a float, if it is a real other than bool for which ok holds."""
    if type(value) is float or isinstance(value, Real) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an int too large for a float fails every rule
            number = math.inf
        if ok(number):
            return number
    raise ValueError(f"{name} must {what}, got {value!r}")


def _epsilon(name: str, value) -> float:
    """value as a float, if it is finite and >= 0."""
    return _real(name, value, "be finite and >= 0", lambda x: 0.0 <= x < math.inf)


def _positive(name: str, value) -> float:
    """value as a float, if it is finite and > 0."""
    return _real(name, value, "be positive and finite", lambda x: 0.0 < x < math.inf)


def _probability(name: str, value) -> float:
    """value as a float, if it lies strictly between 0 and 1."""
    return _real(name, value, "lie in (0, 1)", lambda x: 0.0 < x < 1.0)


def _reals(name: str, values, what: str, ok: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """values as a float array of any shape, if its dtype is int or float and ok holds."""
    array = np.asarray(values)
    if array.dtype.kind not in "iuf" or not ok(array).all():
        raise ValueError(f"{name} must {what}, got {values!r}")
    return array.astype(float, copy=False)


def _epsilons(name: str, values) -> np.ndarray:
    """values as a float array, if each is finite and >= 0."""
    return _reals(name, values, "be finite and >= 0", lambda x: (x >= 0) & (x < math.inf))


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

    log C(n, k) is evaluated on the broadcast of k and n alone, so a row of
    k against a column of p costs one row of log-gammas. The degenerate
    edges p = 0 and p = 1 are point masses at 0 and n; any other p outside
    (0, 1), NaN included, gives -inf.
    """
    k = np.asarray(k, dtype=float)
    n = np.asarray(n, dtype=float)
    p = np.asarray(p, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = log_binom(n, k) + k * np.log(p) + (n - k) * np.log1p(-p)
    point_mass = ((p == 0) & (k == 0)) | ((p == 1) & (k == n))
    out = np.where((p > 0) & (p < 1), out, np.where(point_mass, 0.0, -np.inf))
    return out if out.ndim else float(out)


def stable_sum(values) -> float:
    """Exactly rounded float sum (math.fsum) of an iterable/array."""
    return math.fsum(np.asarray(values, dtype=float).ravel().tolist())


def _map_blocks(block: Callable[[slice], None], n_rows: int, step: int) -> None:
    """Call block(rows) for each slice of step rows of range(n_rows).

    The blocks run on one thread per CPU in the process's affinity mask, at
    most one per block, and inline when that is one thread (as under
    `taskset -c 0`). Thread i runs blocks i, i + threads, ... as one share:
    the calling thread runs share 0 itself and a pool of threads - 1
    workers the others, so the caller waits on one future per worker, not
    one per block. The arrays a block allocates on the calling thread
    reuse the memory of the main heap; on a pool thread they come from
    that thread's own malloc arena, which the next call's pool maps and
    faults in again. Each call writes only its own rows of preallocated
    outputs (`compose_many` passes step 1, one k per block), and the slices
    are those of the serial loop, so the outputs are bit-identical for any
    number of threads. Workers run their shares in a copy of the caller's
    context, so the caller's np.errstate holds in them, and an exception
    raised in a block reaches the caller once every worker has finished.
    The pool lives for one call: a pool kept between calls would leave a
    child made by fork waiting on threads that were not copied into it.
    """
    blocks = [slice(begin, begin + step) for begin in range(0, n_rows, step)]
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        cpus = os.cpu_count() or 1
    threads = min(cpus, len(blocks))

    def run(share: list[slice]) -> None:
        for rows in share:
            block(rows)

    if threads <= 1:
        run(blocks)
        return
    with ThreadPoolExecutor(threads - 1) as pool:
        futures = [
            pool.submit(contextvars.copy_context().run, run, blocks[i::threads])
            for i in range(1, threads)
        ]
        run(blocks[::threads])
        for future in futures:
            future.result()
