"""The package namespace: `import subamp` exports each module's `__all__`."""

import importlib

import subamp

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
