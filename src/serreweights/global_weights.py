"""Assembly of per-prime weight sets into global weight tuples.

A global datum is a finite family of local data, all at the same ell but with
their own inertial degrees.  The conjectural global set is the Cartesian
product of the local sets, so its size is the product of the local sizes.
When some reducible entry has an unknown extension class the result splits
into a certain part (product of the certain local sets) and a possible part
(everything else in the product of the upper local sets).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence, Union

from .errors import ParamError, ParamMismatch
from .weights import SerreWeight, det_exponent, weight_sort_key

from . import irreducible as irred
from . import reducible as red

__all__ = [
    "LocalDatum",
    "GlobalDatum",
    "GlobalWeightSets",
    "global_weight_set",
    "LocalTable",
    "local_tables",
    "twist_global",
    "DetReport",
    "check_det_compatibility",
    "global_sort_key",
    "MAX_GLOBAL_ROWS",
]

# Refused before any product is built: five entries of 11 weights each
# (161 051 rows) pass, six do not.
MAX_GLOBAL_ROWS = 2**18

LocalDatum = Union[irred.NiveauTwoDatum, red.ReducibleDatum]

GlobalWeight = tuple[SerreWeight, ...]


@dataclass(frozen=True)
class GlobalDatum:
    ell: int
    primes: tuple[LocalDatum, ...]

    def __post_init__(self) -> None:
        if not self.primes:
            raise ParamError("global datum needs at least one prime")
        for d in self.primes:
            if d.params.ell != self.ell:
                raise ParamMismatch(
                    f"local datum at ell = {d.params.ell} inside a global datum at ell = {self.ell}"
                )


@dataclass(frozen=True)
class GlobalWeightSets:
    """certain x possible split of the global product; possible is empty when
    every local entry is decided."""

    certain: frozenset[GlobalWeight]
    possible: frozenset[GlobalWeight]


def _local_sets(d: LocalDatum) -> tuple[frozenset[SerreWeight], frozenset[SerreWeight]]:
    """(certain, upper) for one local entry."""
    if isinstance(d, irred.NiveauTwoDatum):
        ws = irred.weight_set(d)
        return ws, ws
    if d.ext is red.ExtClass.SPLIT:
        ws = red.weight_set_split(d)
        return ws, ws
    certain, possible = red.weight_sets_partial(d)
    return certain, certain | possible


class LocalTable(NamedTuple):
    """One entry's upper set in `weight_sort_key` order, and whether each
    of its weights is certain."""

    weights: list[SerreWeight]
    certain: list[bool]


def local_tables(g: GlobalDatum) -> list[LocalTable]:
    """The `LocalTable` of every entry of g.  Their product, in
    `itertools.product` order, is the global product in `global_sort_key`
    order; a row is certain when each of its weights is.

    Raises ParamError when the rows, certain plus possible, exceed
    MAX_GLOBAL_ROWS.  Each certain set lies in its upper set, so they
    number the product of the upper set sizes.
    """
    locals_ = [_local_sets(d) for d in g.primes]
    rows = math.prod(len(u) for _, u in locals_)
    if rows > MAX_GLOBAL_ROWS:
        raise ParamError(
            f"the global weight set has {rows} rows, over the bound of {MAX_GLOBAL_ROWS}"
        )
    tables = []
    for c, u in locals_:
        ws = sorted(u, key=weight_sort_key)
        tables.append(LocalTable(ws, [V in c for V in ws]))
    return tables


def global_weight_set(g: GlobalDatum) -> GlobalWeightSets:
    """Certain and possible global weights: the products of the local
    certain sets and of the local upper sets, minus the former.  Raises
    as `local_tables` does, before building either product."""
    tables = local_tables(g)
    certain = frozenset(
        itertools.product(*([V for V, c in zip(t.weights, t.certain) if c] for t in tables))
    )
    upper = frozenset(itertools.product(*(t.weights for t in tables)))
    return GlobalWeightSets(certain=certain, possible=upper - certain)


def twist_global(g: GlobalDatum, cs: Sequence[int]) -> GlobalDatum:
    """Twist every local entry by a niveau 1 exponent, one per prime.

    Irreducible entries shift by c (q+1) mod q^2-1; reducible entries shift
    both exponents by c mod q-1.
    """
    if len(cs) != len(g.primes):
        raise ParamMismatch(
            f"got {len(cs)} twist exponents for {len(g.primes)} primes"
        )
    new = []
    for d, c in zip(g.primes, cs):
        if isinstance(d, irred.NiveauTwoDatum):
            new.append(irred.twist_datum(d, c))
        else:
            new.append(red.twist_datum(d, c))
    return GlobalDatum(g.ell, tuple(new))


@dataclass(frozen=True)
class DetReport:
    passed: bool
    failures: tuple[dict, ...]


def _expected_det(d: LocalDatum) -> int:
    m = d.params.m_minus
    if isinstance(d, irred.NiveauTwoDatum):
        return d.n % m
    return (d.n1 + d.n2) % m


def check_det_compatibility(g: GlobalDatum) -> DetReport:
    """Every weight in every local set must have det exponent matching the
    determinant of its local datum."""
    failures = []
    for slot, d in enumerate(g.primes):
        expected = _expected_det(d)
        _, upper = _local_sets(d)
        for V in sorted(upper, key=weight_sort_key):
            got = det_exponent(V)
            if got != expected:
                failures.append(
                    {"prime_index": slot, "weight": str(V), "expected": expected, "got": got}
                )
    return DetReport(passed=not failures, failures=tuple(failures))


def global_sort_key(gw: GlobalWeight):
    return tuple(weight_sort_key(V) for V in gw)
