"""The input rules of `numerics`, and every real or array input that calls one."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from subamp.amplification import aligned_profile, amplify_epsilon
from subamp.harness import BootstrapConfig, SGDConfig
from subamp.mechanisms import MechanismSpec, calibrate_sigma, group_profile, profile
from subamp.numerics import _epsilon, _epsilons, _positive, _probability, _reals
from subamp.pld import (
    DiscretizedPLD,
    PrivacyLossModel,
    discretize,
    invert_loss,
    log_output_density,
    loss_at,
    pld_density,
)
from subamp.schemes import MUSTow, MUSTwo, MUSTww, Poisson, WOR, WR

# Not real numbers, whatever their value: each rule rejects all of them.
NOT_REAL = [True, False, np.True_, "0.5", "2", None, [0.5], np.array(0.5), 1j]
NOT_FINITE = [math.nan, math.inf, -math.inf, 10**400]


@pytest.mark.parametrize("rule, message, good, bad", [
    (_epsilon, "must be finite and >= 0",
     [0, -0.0, 2, 1e300, np.float64(0.5), np.float32(0.5), np.int64(3), Fraction(1, 2)],
     [-1e-300, -1]),
    (_positive, "must be positive and finite",
     [1e-300, 2, 1e300, np.float64(0.5), np.float32(0.5), np.int64(3), Fraction(1, 2)],
     [0, 0.0, -1]),
    (_probability, "must lie in (0, 1)",
     [1e-300, 0.5, 1 - 1e-16, np.float64(0.5), np.float32(0.5), Fraction(1, 2)],
     [0, 1, 1.0, -0.5, 2, np.int64(1)]),
], ids=["epsilon", "positive", "probability"])
def test_real_rules(rule, message, good, bad):
    for value in good:
        out = rule("x", value)
        assert type(out) is float and out == value
    for value in [*bad, *NOT_FINITE, *NOT_REAL]:
        with pytest.raises(ValueError) as info:
            rule("x", value)
        assert str(info.value) == f"x {message}, got {value!r}"


def test_reals_rule():
    # Any shape, empty included; ints and floats come back as float.
    for good, shape in [(2, ()), ([1, 2.5], (2,)), (np.arange(6).reshape(2, 3), (2, 3)),
                        (np.array([], dtype=np.int64), (0,)), ([], (0,)),
                        (np.float32([0.5]), (1,)), (np.uint8([3]), (1,)), ([True, 0.5], (2,))]:
        out = _reals("x", good, "be finite", np.isfinite)
        assert (out.dtype, out.shape) == (np.float64, shape)
        assert out.tolist() == np.asarray(good, dtype=float).tolist()
    # The dtype decides: bool, string, object and complex arrays fail whole,
    # whatever their values; so does any element where the test fails.
    for bad in (True, [True, False], np.array([True]), "0.5", ["0.5", "1"], [1, None],
                10**400, 1j, [0.5, math.nan], [[1.0], [math.inf]], -math.inf):
        with pytest.raises(ValueError) as info:
            _reals("x", bad, "be finite", np.isfinite)
        assert str(info.value) == f"x must be finite, got {bad!r}"

    assert _epsilons("e", [0, 1.5]).tolist() == [0.0, 1.5]
    assert _epsilons("e", 2).dtype == float and _epsilons("e", 2).ndim == 0
    for bad in (True, "1", [True, False], ["1"], [0.5, math.nan], [[1.0], [math.inf]], -1.0):
        with pytest.raises(ValueError, match="^e must be finite and >= 0"):
            _epsilons("e", bad)


MECH = MechanismSpec("gaussian", 1.0)
SGD = dict(scheme=WOR(100, 10), eps_prime_per_iter=0.5, delta_base=1e-3, clip_c=3.0,
           learning_rate=0.04, iterations=5, seed=0)
BOOT = dict(scheme=WOR(100, 10), t_boot=5, bounds=(-4.0, 4.0), eps_prime=0.1,
            delta_base=1e-3, repeats=1, seed=0)
# (input name, a call that passes a value for that input, a value out of its range)
SITES = [
    ("sigma", lambda v: PrivacyLossModel(WOR(10, 3), v), 0.0),
    ("trunc_L", lambda v: discretize(PrivacyLossModel(WOR(10, 3), 1.0), v, 64), 0.0),
    ("theta", lambda v: MechanismSpec("gaussian", v), 0.0),
    ("delta_target", lambda v: calibrate_sigma(v, 1.0, 1.0), 1.0),
    ("epsilon", lambda v: calibrate_sigma(1e-5, v, 1.0), 0.0),
    ("sensitivity", lambda v: calibrate_sigma(1e-5, 1.0, v), 0.0),
    ("epsilon", lambda v: profile(MECH, v), -1.0),
    ("epsilon", lambda v: group_profile(MECH, 2, v), -1.0),
    *[(name, lambda v, name=name: SGDConfig(**{**SGD, name: v}), bad)
      for name, bad in [("eps_prime_per_iter", 0.0), ("delta_base", 1.0), ("clip_c", 0.0),
                        ("learning_rate", -1.0)]],
    ("eps_prime", lambda v: BootstrapConfig(**{**BOOT, "eps_prime": v}), 0.0),
    ("delta_base", lambda v: BootstrapConfig(**{**BOOT, "delta_base": v}), 0.0),
    ("gamma", lambda v: Poisson(v), 1.0),
    ("eta", lambda v: amplify_epsilon(v, 1.0), 0.0),
]


@pytest.mark.parametrize("name, call, bad", SITES, ids=[site[0] for site in SITES])
@pytest.mark.parametrize("value", [None, True, "2", math.nan], ids=repr)
def test_every_real_input_names_itself(name, call, bad, value):
    # None stands for the site's own out-of-range value.
    value = bad if value is None else value
    with pytest.raises(ValueError, match=f"^{name} must .*, got {re.escape(repr(value))}$"):
        call(value)


# (input name, a call that passes an array for that input): every public array input.
_MODELS = [PrivacyLossModel(scheme, 2.0) for scheme in (
    Poisson(0.1), WOR(100, 10), WR(100, 10), MUSTwo(100, 10, 5), MUSTow(100, 10, 5),
    MUSTww(100, 10, 5),
)]
ARRAY_SITES = [
    *[(name, lambda v, f=f, model=model: f(model, v), f"{f.__name__}-{model.scheme.label}")
      for f, name in [(loss_at, "t"), (log_output_density, "t"), (invert_loss, "s"),
                      (pld_density, "s")]
      for model in _MODELS],
    ("c", lambda v: DiscretizedPLD(1.0, 4, v, 0.0, WOR(10, 3)), "DiscretizedPLD"),
    ("eps_grid", lambda v: aligned_profile(WOR(100, 10), MECH, v), "aligned_profile"),
    ("epsilon", lambda v: profile(MECH, v), "profile"),
    ("epsilon", lambda v: group_profile(MECH, 2, v), "group_profile"),
]


@pytest.mark.parametrize("name, call", [site[:2] for site in ARRAY_SITES],
                         ids=[site[2] for site in ARRAY_SITES])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, "0.5", np.array([True]),
                                   [0.5, math.nan]], ids=repr)
def test_every_array_input_names_itself(name, call, value):
    # pld_density once returned 0.0 at NaN, and failed at inf in a way of its
    # scheme's: a numpy-internal error (WOR), NaN with warnings (Poisson) and
    # NoConvergenceError (WR).
    with pytest.raises(ValueError, match=f"^{name} must .*, got {re.escape(repr(value))}$"):
        call(value)


@pytest.mark.parametrize("bounds, shown", [
    ((False, True), "False"), (("-4", 4.0), "'-4'"), ((-4.0, None), "None"),
], ids=["bool", "str", "None"])
def test_bootstrap_bounds_are_reals(bounds, shown):
    # Each end is a real: bools clipped to (0, 1), and a string was a TypeError.
    message = f"^bounds must be finite with L_clip < U_clip, got {re.escape(shown)}$"
    with pytest.raises(ValueError, match=message):
        BootstrapConfig(**{**BOOT, "bounds": bounds})


@pytest.mark.parametrize("bounds", [[1, 2, 3], 4, (-4.0,), None], ids=repr)
def test_bootstrap_bounds_are_a_pair(bounds):
    # Formerly "too many values to unpack" and "'int' object is not iterable".
    message = f"^bounds must be a pair \\(L_clip, U_clip\\), got {re.escape(repr(bounds))}$"
    with pytest.raises(ValueError, match=message):
        BootstrapConfig(**{**BOOT, "bounds": bounds})


@pytest.mark.parametrize("c", [
    np.array([True, False, False, False]), np.full(4, "0.25"), [True, False, False, False],
], ids=["bool", "str", "list"])
def test_masses_are_reals(c):
    # Formerly the bool array was kept, the strings raised numpy's TypeError
    # and the list an AttributeError. c is stored as a float array.
    with pytest.raises(ValueError, match=f"^c must be finite and >= 0, got {re.escape(repr(c))}$"):
        DiscretizedPLD(1.0, 4, c, 0.0, WOR(10, 3))
    pld = DiscretizedPLD(1.0, 4, [1, 0, 0, 0], 0.0, WOR(10, 3))
    assert pld.c.dtype == np.float64 and pld.c.tolist() == [1.0, 0.0, 0.0, 0.0]


@pytest.mark.parametrize("config, fields", [(SGDConfig, SGD), (BootstrapConfig, BOOT)],
                         ids=["SGDConfig", "BootstrapConfig"])
@pytest.mark.parametrize("seed", [-1, True, 2.0, "3"], ids=repr)
def test_configs_reject_a_bad_seed(config, fields, seed):
    message = f"^seed must be an integer >= 0, got {re.escape(repr(seed))}$"
    with pytest.raises(ValueError, match=message):
        config(**{**fields, "seed": seed})


def test_configs_store_the_rules_values():
    sgd = SGDConfig(**{**SGD, "iterations": np.int64(5), "seed": np.int64(7)})
    assert (type(sgd.iterations), type(sgd.seed)) == (int, int)
    boot = BootstrapConfig(**{**BOOT, "t_boot": np.int64(10), "repeats": np.int64(2),
                              "seed": np.uint32(3), "bounds": [-4, np.float32(4)]})
    assert [type(boot.t_boot), type(boot.repeats), type(boot.seed)] == [int, int, int]
    assert boot.bounds == (-4.0, 4.0) and [type(end) for end in boot.bounds] == [float, float]


def test_configs_store_the_rules_floats():
    sgd = SGDConfig(**{**SGD, "clip_c": 3, "learning_rate": np.float32(0.5)})
    assert (type(sgd.clip_c), type(sgd.learning_rate)) == (float, float)
    assert type(BootstrapConfig(**{**BOOT, "eps_prime": 1}).eps_prime) is float
    assert type(PrivacyLossModel(WOR(10, 3), 2).sigma) is float
    assert type(MechanismSpec("laplace", np.int64(2)).theta) is float
    assert type(Poisson(Fraction(1, 4)).gamma) is float
