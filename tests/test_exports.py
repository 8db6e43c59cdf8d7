"""The package namespace: `import subamp` exports each module's `__all__`."""

import importlib
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import subamp
from subamp.numerics import _NumericalFailure

MODULES = ("accountant", "amplification", "harness", "mechanisms", "pld", "sampling", "schemes")


def test_all_is_the_union_of_module_lists():
    lists = [importlib.import_module(f"subamp.{name}").__all__ for name in MODULES]
    assert set(subamp.__all__) == {name for names in lists for name in names}
    assert len(subamp.__all__) == len(set(subamp.__all__))
    assert all(hasattr(subamp, name) for name in subamp.__all__)


def test_formerly_missing_names_import():
    from subamp import QuadratureError, population_size, scheme_from_dict

    assert QuadratureError is subamp.mechanisms.QuadratureError
    assert population_size is subamp.schemes.population_size
    assert scheme_from_dict is subamp.schemes.scheme_from_dict


def test_removed_names_are_gone():
    # pld_density_swapped returned pld_density; PrivacyPoint had no user.
    for name in ("pld_density_swapped", "PrivacyPoint"):
        assert name not in subamp.__all__
        assert not hasattr(subamp, name)


def test_removed_attributes_are_gone():
    # Each had no reader outside the tests; the replacements are
    # counts.sum(), elements.size, dict(zip(elements, counts)),
    # population_size(scheme) and SweepCell.k / .epsilon.
    ms = subamp.draw(subamp.WOR(5, 2), 0)
    for name in ("total", "unique_count", "entries", "count_of"):
        assert not hasattr(ms, name)
    config = subamp.BootstrapConfig(
        scheme=subamp.WOR(300, 30), t_boot=10, bounds=(-4.0, 4.0), eps_prime=0.1,
        delta_base=1 / 300, repeats=1, seed=0,
    )
    assert not hasattr(config, "n") and not hasattr(config, "m")
    assert {"k", "epsilon"}.isdisjoint(f.name for f in fields(subamp.AccountantResult))
    data = subamp.make_synthetic("gaussian_univariate", 300, seed=0)
    assert "calibration" not in subamp.run_bootstrap(config, data)
    design, response = subamp.make_synthetic("linear_regression", 100, seed=0)
    sgd = subamp.SGDConfig(
        scheme=subamp.WOR(100, 10), eps_prime_per_iter=0.01, delta_base=0.01, clip_c=3.0,
        learning_rate=0.04, iterations=2, seed=0,
    )
    assert "calibration" not in subamp.run_dpsgd_linear(sgd, design, response)


def test_import_leaves_optimize_and_integrate_unloaded():
    # Only delta_direct and the quadrature oracles use them, and they
    # import them on first use.
    code = (
        "import sys, subamp; "
        "print(sorted(m for m in ('scipy.optimize', 'scipy.integrate') if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(subamp.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True,
        timeout=120,
    )
    assert out.stdout == "[]\n"


def test_numerical_failures_share_one_base():
    # The CLI maps this one base to exit 3; each failure carries its
    # numbers in its message, not in fields.
    failures = (
        subamp.NoConvergenceError, subamp.QuadratureError, subamp.NonFiniteError,
        subamp.DivergenceError, subamp.DegenerateSampleError,
    )
    for cls in failures:
        assert issubclass(cls, _NumericalFailure) and issubclass(cls, RuntimeError)
        assert "__init__" not in vars(cls)
    assert "_NumericalFailure" not in subamp.__all__
    assert "sigma" not in {f.name for f in fields(subamp.DiscretizedPLD)}
