"""Scheme descriptors: validation of every field and of every stage."""

import dataclasses

import numpy as np
import pytest

from subamp.schemes import MUSTow, MUSTwo, MUSTww, Poisson, WOR, WR, scheme_from_dict

# One valid construction per scheme, as keyword arguments.
VALID = {
    Poisson: {"gamma": 0.5, "n": 10},
    WOR: {"n": 10, "m": 3},
    WR: {"n": 10, "m": 3},
    MUSTwo: {"n": 10, "b": 5, "m": 3},
    MUSTow: {"n": 10, "b": 5, "m": 3},
    MUSTww: {"n": 10, "b": 5, "m": 3},
}
BAD_VALUES = [0, -1, True, 2.0, "3"]


@pytest.mark.parametrize(
    "cls, field",
    [(cls, name) for cls, kwargs in VALID.items() for name in kwargs],
    ids=lambda v: v if isinstance(v, str) else v.label,
)
@pytest.mark.parametrize("bad", BAD_VALUES, ids=repr)
def test_each_field_rejects(cls, field, bad):
    cls(**VALID[cls])
    with pytest.raises(ValueError, match=f"^{field} must"):
        cls(**{**VALID[cls], field: bad})


@pytest.mark.parametrize(
    "cls, field",
    [(cls, name) for cls, kwargs in VALID.items() for name in kwargs if name != "gamma"],
    ids=lambda v: v if isinstance(v, str) else v.label,
)
@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint16])
def test_each_count_field_takes_numpy_integers_as_int(cls, field, dtype):
    scheme = cls(**{**VALID[cls], field: dtype(VALID[cls][field])})
    assert type(getattr(scheme, field)) is int
    assert scheme == cls(**VALID[cls])


@pytest.mark.parametrize("cls, args", [
    (WOR, (5, 6)),
    (MUSTow, (5, 6, 9)),
    (MUSTwo, (9, 5, 6)),
])
def test_stage_without_replacement_rejects_more_draws_than_population(cls, args):
    with pytest.raises(ValueError, match="without replacement"):
        cls(*args)


@pytest.mark.parametrize("scheme", [
    WOR(5, 5), MUSTow(5, 5, 9), MUSTwo(9, 5, 5),  # draws == population, without replacement
    WR(3, 10), MUSTww(3, 10, 20),  # draws > population, with replacement
], ids=repr)
def test_accepts(scheme):
    assert all(getattr(scheme, f.name) >= 1 for f in dataclasses.fields(scheme))


def test_stages_name_fields_and_are_class_constants():
    for cls in (WOR, WR, MUSTwo, MUSTow, MUSTww):
        names = [f.name for f in dataclasses.fields(cls)]
        assert "stages" not in names
        assert cls.stages[0][0] == "n" and cls.stages[-1][1] == "m"
        # Each later stage draws from the draws of the one before it.
        for before, after in zip(cls.stages, cls.stages[1:]):
            assert after[0] == before[1]
        assert {name for stage in cls.stages for name in stage[:2]} == set(names)
    assert Poisson.stages == ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        MUSTow(5, 5, 9).stages = ()


def test_scheme_from_dict_names_an_unknown_field():
    assert scheme_from_dict({"scheme": "WOR", "n": 10, "m": 3}) == WOR(10, 3)
    with pytest.raises(ValueError, match="^bad parameters for scheme 'wor': .*'b'"):
        scheme_from_dict({"scheme": "wor", "n": 10, "b": 5, "m": 3})
