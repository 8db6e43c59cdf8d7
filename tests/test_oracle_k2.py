"""The grid-free delta at k = 2 (oracles.delta_k2) and the accountant's brackets.

delta_2(eps) = int f_X(t) g(eps - L(t)) dt needs no grid and no FFT: g, the
k = 1 delta at every real e, is closed form given the root tau(e) of L. The
oracle is pinned to delta_direct at k = 1, to the Gaussian mechanism at
k = 2, and to ROADMAP item 15's table; the k = 2 brackets must contain it.
"""

import functools
import math

import numpy as np
import pytest

from subamp.accountant import compose_many, delta_direct
from subamp.pld import PrivacyLossModel, discretize
from subamp.schemes import MUSTow, MUSTwo, MUSTww, Poisson, WOR, WR

from oracles import delta_k1, delta_k2, gaussian_delta

# ROADMAP item 15's table: (scheme, sigma, eps, delta_2(eps) to 7 digits).
TABLE = [
    (Poisson(0.1, 1000), 1.0, 0.5, 4.605896e-3),
    (Poisson(0.1, 1000), 1.0, 1.0, 5.141604e-4),
    (Poisson(0.1, 1000), 1.0, 2.0, 6.944861e-6),
    (WOR(1000, 100), 0.8, 0.5, 2.185555e-2),
    (WOR(1000, 100), 0.8, 2.0, 3.652367e-4),
    (WOR(1000, 100), 0.8, 4.0, 9.553461e-7),
    (WR(1000, 50), 1.0, 1.0, 1.106098e-4),
    (MUSTwo(1000, 200, 50), 1.0, 1.0, 1.106098e-4),
    (MUSTow(1000, 100, 50), 2.0, 1.0, 1.370708e-6),
    (MUSTow(1000, 100, 50), 1.0, 0.5, 4.044622e-3),
    (MUSTow(1000, 100, 50), 1.0, 1.0, 1.741145e-3),
    (MUSTow(1000, 100, 50), 1.0, 2.0, 6.057052e-4),
    (MUSTww(1000, 100, 50), 1.0, 1.0, 1.995612e-3),
]
CONFIGS = list(dict.fromkeys((scheme, sigma) for scheme, sigma, _, _ in TABLE))
# The k = 2 brackets at L = 10 that miss the oracle, all from wrap-around.
MISSES_AT_L10 = {(MUSTow(1000, 100, 50), 1.0), (MUSTww(1000, 100, 50), 1.0)}


def _name(scheme, sigma, *rest) -> str:
    values = [getattr(scheme, f, None) for f in ("gamma", "n", "b", "m")]
    fields = [str(v) for v in values if v is not None]
    return "-".join([scheme.label, *fields, f"sigma{sigma:g}", *rest])


@functools.cache
def _oracle(scheme, sigma: float, eps: float) -> float:
    return delta_k2(scheme, sigma, eps)


@functools.cache
def _brackets(scheme, sigma: float, trunc_L: float) -> dict:
    """{eps: SweepCell} at k = 2 on the default grid (r = 2^17), one
    discretization per config and L."""
    pld = discretize(PrivacyLossModel(scheme, sigma), trunc_L, 1 << 17)
    eps_values = [eps for s, sig, eps, _ in TABLE if (s, sig) == (scheme, sigma)]
    return {cell.epsilon: cell for cell in compose_many(pld, [2], eps_values)}


@pytest.mark.parametrize("scheme, sigma", CONFIGS, ids=[_name(*c) for c in CONFIGS])
def test_inner_delta_is_delta_direct_at_k1(scheme, sigma):
    # g(eps) is the k = 1 delta: the quadrature over output space that
    # delta_direct takes with production's loss_at.
    model = PrivacyLossModel(scheme, sigma)
    eps = np.array([0.0, 0.5, 1.0, 2.0])
    expected = [delta_direct(model, e) for e in eps]
    assert delta_k1(scheme, sigma, eps) == pytest.approx(expected, rel=1e-6, abs=1e-12)


def test_inner_delta_below_poisson_floor():
    # Every loss exceeds log(1 - gamma): there and below, g(e) = 1 - e^e.
    e = np.array([-3.0, math.log1p(-0.1), -0.11])
    assert delta_k1(Poisson(0.1), 1.0, e) == pytest.approx(-np.expm1(e), rel=1e-15)


@pytest.mark.parametrize("sigma", [0.5, 1.0, 3.0])
@pytest.mark.parametrize("eps", [0.0, 1.0, 3.0])
def test_gaussian_mechanism_at_k2(sigma, eps):
    # WOR(n, n) keeps the record: two compositions of the Gaussian mechanism.
    assert delta_k2(WOR(10, 10), sigma, eps) == pytest.approx(
        gaussian_delta(sigma, 2, eps), rel=1e-12
    )


@pytest.mark.parametrize("scheme, sigma, eps, value", TABLE,
                         ids=[_name(s, sig, f"eps{e:g}") for s, sig, e, _ in TABLE])
def test_item_15_table(scheme, sigma, eps, value):
    assert _oracle(scheme, sigma, eps) == pytest.approx(value, rel=1e-6)


def _bracket_cases():
    for scheme, sigma, eps, _ in TABLE:
        for trunc_L in (10.0, 20.0):
            marks = ()
            if trunc_L == 10.0 and (scheme, sigma) in MISSES_AT_L10:
                marks = pytest.mark.xfail(strict=True, reason=(
                    "ROADMAP item 9: wrap-around at L = 10 moves the k = 2 bracket "
                    "below the grid-free delta"))
            yield pytest.param(scheme, sigma, eps, trunc_L, marks=marks,
                               id=_name(scheme, sigma, f"eps{eps:g}", f"L{trunc_L:g}"))


@pytest.mark.parametrize("scheme, sigma, eps, trunc_L", _bracket_cases())
def test_k2_bracket_contains_oracle(scheme, sigma, eps, trunc_L):
    cell = _brackets(scheme, sigma, trunc_L)[eps]
    if cell.error is not None:  # an error cell is an honest outcome
        return
    result = cell.result
    assert result.delta_lower <= _oracle(scheme, sigma, eps) <= result.delta_upper
