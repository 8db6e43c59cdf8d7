"""The scalar input rules of `numerics`, and every real input that calls one."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from subamp.amplification import amplify_epsilon
from subamp.harness import BootstrapConfig, SGDConfig
from subamp.mechanisms import MechanismSpec, calibrate_sigma, group_profile, profile
from subamp.numerics import _epsilon, _epsilons, _positive, _probability
from subamp.pld import PrivacyLossModel, discretize
from subamp.schemes import Poisson, WOR

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


def test_epsilons_is_the_epsilon_rule_on_arrays():
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
    ("delta_target", lambda v: calibrate_sigma("gaussian", v, 1.0, 1.0), 1.0),
    ("epsilon", lambda v: calibrate_sigma("gaussian", 1e-5, v, 1.0), 0.0),
    ("sensitivity", lambda v: calibrate_sigma("gaussian", 1e-5, 1.0, v), 0.0),
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


def test_configs_store_the_rules_floats():
    sgd = SGDConfig(**{**SGD, "clip_c": 3, "learning_rate": np.float32(0.5)})
    assert (type(sgd.clip_c), type(sgd.learning_rate)) == (float, float)
    assert type(BootstrapConfig(**{**BOOT, "eps_prime": 1}).eps_prime) is float
    assert type(PrivacyLossModel(WOR(10, 3), 2).sigma) is float
    assert type(MechanismSpec("laplace", np.int64(2)).theta) is float
    assert type(Poisson(Fraction(1, 4)).gamma) is float
