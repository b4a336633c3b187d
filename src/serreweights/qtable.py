"""Hard-coded weight sets for two-dimensional mod ell data over Q (f = 1).

Over Q every local shape at ell is pinned down by one digit b in {1..ell-1}
(the inertia exponent, or the fundamental-character exponent in niveau 2)
plus, in the reducible case, what the extension class does.  The weight sets
below are transcribed branch by branch as an independent oracle against the
general f = 1 recipes; the cross-check functions compare the two routes.

Reducible shapes:
  SPLIT              split extension
  NONSPLIT_GENERIC   non-split, character ratio not cyclotomic
  PEU / TRES         non-split with cyclotomic ratio (b = 1): the class is
                     peu ramifiee resp. tres ramifiee

TRES and PEU are only legal when the ratio is cyclotomic, which for
b in {1..ell-1} means b = 1.  NONSPLIT_GENERIC requires the ratio to be
non-cyclotomic, so b > 1 (and is never legal at ell = 2, where b = 1 is the
only digit and the ratio is always cyclotomic).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import IllegalShape, ParamError
from .modarith import FieldParams
from .weights import SerreWeight, canonical_weight

from . import irreducible as irred
from . import reducible as red

__all__ = [
    "RationalShapeKind",
    "RationalShape",
    "weights_over_Q",
    "crosscheck_niveau2",
    "crosscheck_split",
    "all_legal_shapes",
    "MAX_QTABLE_ROWS",
]

# Refused before any shape is built: the table of ell has 3 ell - 2 rows,
# so this admits ell <= 10 923.
MAX_QTABLE_ROWS = 2**15


class RationalShapeKind(Enum):
    NIVEAU2 = "niveau2"
    SPLIT = "split"
    NONSPLIT_GENERIC = "nonsplit-generic"
    PEU = "peu"
    TRES = "tres"


@dataclass(frozen=True)
class RationalShape:
    ell: int
    b: int
    kind: RationalShapeKind

    def __post_init__(self) -> None:
        params = FieldParams(self.ell, 1)  # validates ell
        if not 1 <= self.b <= self.ell - 1:
            raise IllegalShape(f"b = {self.b} outside 1..ell-1 for ell = {self.ell}")
        if self.kind in (RationalShapeKind.PEU, RationalShapeKind.TRES) and self.b != 1:
            raise IllegalShape(
                "peu/tres ramifiee require a cyclotomic ratio, i.e. b = 1"
            )
        if self.kind is RationalShapeKind.NONSPLIT_GENERIC and (
            self.b == 1 or self.ell == 2
        ):
            raise IllegalShape(
                "nonsplit-generic requires a non-cyclotomic ratio, i.e. b > 1"
            )
        del params


def _V(ell: int, a: int, b: int) -> SerreWeight:
    # b may arrive as ell + 1 - something outside 1..ell only through bugs;
    # canonical_weight validates the digit.
    return canonical_weight(a, (b,), FieldParams(ell, 1))


def weights_over_Q(shape: RationalShape) -> frozenset[SerreWeight]:
    """The weight set of the shape, straight from the f = 1 table."""
    ell, b = shape.ell, shape.b
    if shape.kind is RationalShapeKind.NIVEAU2:
        return frozenset({_V(ell, 0, b), _V(ell, b - 1, ell + 1 - b)})

    split = shape.kind is RationalShapeKind.SPLIT
    if 1 < b < ell - 1 and not split:
        return frozenset({_V(ell, 0, b)})
    if 1 < b < ell - 2 and split:
        return frozenset({_V(ell, 0, b), _V(ell, b, ell - 1 - b)})
    if b == ell - 2 and ell > 3 and split:
        return frozenset({_V(ell, 0, ell - 2), _V(ell, ell - 2, ell), _V(ell, ell - 2, 1)})
    if b == ell - 1 and ell > 2:
        return frozenset({_V(ell, 0, ell - 1)})
    if b == 1 and shape.kind is RationalShapeKind.TRES:
        return frozenset({_V(ell, 0, ell)})
    if b == 1 and ell > 3 and split:
        return frozenset({_V(ell, 0, ell), _V(ell, 0, 1), _V(ell, 1, ell - 2)})
    if b == 1 and ell <= 3 and split:
        # canonicalization collapses this to two weights at ell = 2
        return frozenset(
            {_V(ell, 0, ell), _V(ell, 0, 1), _V(ell, 1, ell), _V(ell, 1, 1)}
        )
    return frozenset({_V(ell, 0, ell), _V(ell, 0, 1)})


def crosscheck_niveau2(ell: int, b: int) -> bool:
    """Table row vs the general irreducible recipe at f = 1, n = b."""
    table = weights_over_Q(RationalShape(ell, b, RationalShapeKind.NIVEAU2))
    params = FieldParams(ell, 1)
    recipe = irred.weight_set(irred.niveau_two(params, b))
    return table == recipe


def crosscheck_split(ell: int, b: int) -> bool:
    """Split table row vs the general reducible recipe at f = 1, (n1, n2) = (b, 0)."""
    table = weights_over_Q(RationalShape(ell, b, RationalShapeKind.SPLIT))
    params = FieldParams(ell, 1)
    d = red.niveau_one(params, b, 0, red.ExtClass.SPLIT)
    return table == red.weight_set_split(d)


def all_legal_shapes(ell: int) -> list[RationalShape]:
    """Every legal shape for the prime, in a fixed deterministic order.

    Raises ParamError when its 3 ell - 2 rows exceed MAX_QTABLE_ROWS: each
    b in 1..ell-1 has a niveau2 and a split row, each b > 1 a
    nonsplit-generic row (none at ell = 2), and b = 1 a peu and a tres row.
    """
    FieldParams(ell, 1)  # validates ell, also where range(1, ell) is empty
    rows = 3 * ell - 2
    if rows > MAX_QTABLE_ROWS:
        raise ParamError(
            f"the table of ell = {ell} has {rows} rows, over the bound of {MAX_QTABLE_ROWS}"
        )
    kinds = [
        RationalShapeKind.NIVEAU2,
        RationalShapeKind.SPLIT,
        RationalShapeKind.NONSPLIT_GENERIC,
        RationalShapeKind.PEU,
        RationalShapeKind.TRES,
    ]
    out = []
    for b in range(1, ell):
        for kind in kinds:
            try:
                out.append(RationalShape(ell, b, kind))
            except IllegalShape:
                continue
    return out
