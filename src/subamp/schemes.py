"""Subsampling scheme descriptors.

Six schemes are supported: Poisson sampling, sampling without replacement
(WOR), sampling with replacement (WR), and the three two-stage variants
MUSTwo (WR then WOR), MUSTow (WOR then WR), and MUSTww (WR then WR). Each
descriptor is an immutable dataclass that validates its own parameters;
everything downstream (amplification formulas, samplers, loss models)
dispatches on the concrete type.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Union, get_args

__all__ = [
    "Poisson",
    "WOR",
    "WR",
    "MUSTwo",
    "MUSTow",
    "MUSTww",
    "SamplingScheme",
    "population_size",
    "scheme_from_dict",
]


def _check_positive_int(name: str, value: int) -> None:
    if not isinstance(value, (int,)) or isinstance(value, bool) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")


@dataclass(frozen=True)
class Poisson:
    """Independent Bernoulli(gamma) inclusion per element.

    Analyzed under the remove/add neighboring relation.
    """

    label: ClassVar[str] = "poisson"
    neighboring: ClassVar[str] = "R"

    gamma: float
    n: int | None = None  # population size; only needed to draw samples

    def __post_init__(self):
        if not (0.0 < self.gamma < 1.0):
            raise ValueError(f"gamma must lie in (0, 1), got {self.gamma!r}")
        if self.n is not None:
            _check_positive_int("n", self.n)


@dataclass(frozen=True)
class WOR:
    """Uniform m-subset of n elements, no replacement."""

    label: ClassVar[str] = "wor"
    neighboring: ClassVar[str] = "S"

    n: int
    m: int

    def __post_init__(self):
        _check_positive_int("n", self.n)
        _check_positive_int("m", self.m)
        if self.m > self.n:
            raise ValueError(f"WOR requires m <= n, got m={self.m}, n={self.n}")


@dataclass(frozen=True)
class WR:
    """m i.i.d. uniform draws from n elements (a multiset)."""

    label: ClassVar[str] = "wr"
    neighboring: ClassVar[str] = "S"

    n: int
    m: int

    def __post_init__(self):
        _check_positive_int("n", self.n)
        _check_positive_int("m", self.m)


@dataclass(frozen=True)
class MUSTwo:
    """Stage I: WR(n, b). Stage II: WOR(b, m) over the stage-I multiset."""

    label: ClassVar[str] = "mustwo"
    neighboring: ClassVar[str] = "S"

    n: int
    b: int
    m: int

    def __post_init__(self):
        _check_positive_int("n", self.n)
        _check_positive_int("b", self.b)
        _check_positive_int("m", self.m)
        if self.m > self.b:
            raise ValueError(
                f"MUSTwo requires m <= b (stage II is without replacement), "
                f"got m={self.m}, b={self.b}"
            )


@dataclass(frozen=True)
class MUSTow:
    """Stage I: WOR(n, b). Stage II: m multinomial draws over the b picks."""

    label: ClassVar[str] = "mustow"
    neighboring: ClassVar[str] = "S"

    n: int
    b: int
    m: int

    def __post_init__(self):
        _check_positive_int("n", self.n)
        _check_positive_int("b", self.b)
        _check_positive_int("m", self.m)
        if self.b > self.n:
            raise ValueError(
                f"MUSTow requires b <= n, got b={self.b}, n={self.n}"
            )


@dataclass(frozen=True)
class MUSTww:
    """Stage I: WR(n, b). Stage II: WR(b, m) over the stage-I multiset."""

    label: ClassVar[str] = "mustww"
    neighboring: ClassVar[str] = "S"

    n: int
    b: int
    m: int

    def __post_init__(self):
        _check_positive_int("n", self.n)
        _check_positive_int("b", self.b)
        _check_positive_int("m", self.m)


SamplingScheme = Union[Poisson, WOR, WR, MUSTwo, MUSTow, MUSTww]

_SCHEME_TAGS = {cls.label: cls for cls in get_args(SamplingScheme)}


def population_size(scheme: SamplingScheme) -> int:
    """Population size n; a Poisson scheme carries it only to draw samples."""
    if scheme.n is None:
        raise ValueError("Poisson scheme needs n, the population size")
    return scheme.n


def scheme_from_dict(spec: dict) -> SamplingScheme:
    """Build a scheme from a {"scheme": tag, ...params} mapping (CLI/JSON)."""
    spec = dict(spec)
    tag = str(spec.pop("scheme", "")).lower()
    if tag not in _SCHEME_TAGS:
        raise ValueError(
            f"unknown scheme {tag!r}; expected one of {sorted(_SCHEME_TAGS)}"
        )
    cls = _SCHEME_TAGS[tag]
    try:
        return cls(**spec)
    except TypeError as exc:
        raise ValueError(f"bad parameters for scheme {tag!r}: {exc}") from None
