"""Subsampling scheme descriptors.

Six schemes are supported: Poisson sampling, sampling without replacement
(WOR), sampling with replacement (WR), and the three two-stage variants
MUSTwo (WR then WOR), MUSTow (WOR then WR), and MUSTww (WR then WR). Each
descriptor is an immutable dataclass that validates its own parameters and
stores each count as a plain int, so WOR(np.int64(10), 3) == WOR(10, 3).

A fixed-size scheme states its stage structure once, in the class constant
`stages`: one (population, draws, with_replacement) triple of field names
per stage. Stage I draws from the n records; each later stage draws
positions into the stage before it. Validation and the samplers read
`stages`, the CLI the dataclass fields. The amplification formulas, which
the loss models read, state each scheme's multiplicity law once, in
`amplification._thinned`: MUSTwo hands the mechanism WR(n, m)'s law, and
MUSTow WR(b, m)'s thinned by b/n. Poisson has no stages.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import ClassVar, Union, get_args

from .numerics import _integer, _probability

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


# (population, draws, with_replacement) per stage, as field names.
_Stages = tuple[tuple[str, str, bool], ...]


@dataclass(frozen=True)
class Poisson:
    """Independent Bernoulli(gamma) inclusion per element.

    Analyzed under the remove/add neighboring relation.
    """

    label: ClassVar[str] = "poisson"
    neighboring: ClassVar[str] = "R"
    stages: ClassVar[_Stages] = ()

    gamma: float
    n: int | None = None  # population size; only needed to draw samples

    def __post_init__(self):
        object.__setattr__(self, "gamma", _probability("gamma", self.gamma))
        if self.n is not None:
            object.__setattr__(self, "n", _integer("n", self.n))


class _FixedSize:
    """Validation shared by the fixed-size schemes, read from their stages."""

    neighboring: ClassVar[str] = "S"

    def __post_init__(self):
        for field in fields(self):
            object.__setattr__(self, field.name, _integer(field.name, getattr(self, field.name)))
        for stage, (population, draws, with_replacement) in enumerate(self.stages, 1):
            size, k = getattr(self, population), getattr(self, draws)
            if not with_replacement and k > size:
                raise ValueError(
                    f"{type(self).__name__} requires {draws} <= {population} (stage "
                    f"{'I' * stage} is without replacement), got {draws}={k}, {population}={size}"
                )


@dataclass(frozen=True)
class WOR(_FixedSize):
    """Uniform m-subset of n elements, no replacement."""

    label: ClassVar[str] = "wor"
    stages: ClassVar[_Stages] = (("n", "m", False),)

    n: int
    m: int


@dataclass(frozen=True)
class WR(_FixedSize):
    """m i.i.d. uniform draws from n elements (a multiset)."""

    label: ClassVar[str] = "wr"
    stages: ClassVar[_Stages] = (("n", "m", True),)

    n: int
    m: int


@dataclass(frozen=True)
class MUSTwo(_FixedSize):
    """Stage I: WR(n, b). Stage II: WOR(b, m) over the stage-I multiset."""

    label: ClassVar[str] = "mustwo"
    stages: ClassVar[_Stages] = (("n", "b", True), ("b", "m", False))

    n: int
    b: int
    m: int


@dataclass(frozen=True)
class MUSTow(_FixedSize):
    """Stage I: WOR(n, b). Stage II: m multinomial draws over the b picks."""

    label: ClassVar[str] = "mustow"
    stages: ClassVar[_Stages] = (("n", "b", False), ("b", "m", True))

    n: int
    b: int
    m: int


@dataclass(frozen=True)
class MUSTww(_FixedSize):
    """Stage I: WR(n, b). Stage II: WR(b, m) over the stage-I multiset."""

    label: ClassVar[str] = "mustww"
    stages: ClassVar[_Stages] = (("n", "b", True), ("b", "m", True))

    n: int
    b: int
    m: int


SamplingScheme = Union[Poisson, WOR, WR, MUSTwo, MUSTow, MUSTww]

_SCHEME_TAGS = {cls.label: cls for cls in get_args(SamplingScheme)}


def population_size(scheme: SamplingScheme) -> int:
    """Population size n; a Poisson scheme carries it only to draw samples."""
    if scheme.n is None:
        raise ValueError("Poisson scheme needs n, the population size")
    return scheme.n


def _scheme_class(tag: str) -> type:
    """The scheme class labelled `tag`; an unknown tag raises ValueError."""
    if tag not in _SCHEME_TAGS:
        raise ValueError(f"unknown scheme {tag!r}; expected one of {sorted(_SCHEME_TAGS)}")
    return _SCHEME_TAGS[tag]


def scheme_from_dict(spec: dict) -> SamplingScheme:
    """Build a scheme from a {"scheme": tag, ...params} mapping (CLI/JSON)."""
    spec = dict(spec)
    tag = str(spec.pop("scheme", "")).lower()
    cls = _scheme_class(tag)
    try:
        return cls(**spec)
    except TypeError as exc:
        raise ValueError(f"bad parameters for scheme {tag!r}: {exc}") from None
