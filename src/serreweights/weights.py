"""Serre weights for GL_2 over a finite field of size q = ell^f.

A weight is an irreducible representation over an algebraic closure of F_ell,

    V_{a,b} = tensor over the f embeddings of det^(a_i) (x) Sym^(b_i - 1),

with digits b_i in {1..ell} and a determinant twist recorded as a single
exponent a mod q-1 (the digit vector a_i is just the base-ell expansion of a).
Two parameter choices give the same representation exactly when the b vectors
agree and the a exponents agree mod q-1, so (a mod q-1, b) is a faithful key.
There are exactly (q-1) * q distinct weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, NamedTuple

import numpy as np

from .errors import BadWeightDigits
from .modarith import FieldParams, code_digits, digits_base_ell, subset_indices

__all__ = [
    "SerreWeight",
    "LabeledWeight",
    "canonical_weight",
    "LabeledRows",
    "labeled_rows",
    "row_weights",
    "labeled_weights",
    "twist_weight",
    "central_character_exponent",
    "det_exponent",
    "weight_sort_key",
    "weight_to_dict",
    "format_weight_set",
]


@dataclass(frozen=True, order=True)
class SerreWeight:
    """Immutable weight key: params, twist exponent a (canonical mod q-1),
    and digit vector b in {1..ell}^f."""

    params: FieldParams
    a: int
    b: tuple[int, ...]

    def __post_init__(self) -> None:
        m = self.params.m_minus
        if not 0 <= self.a < m:
            raise BadWeightDigits(f"a = {self.a} not canonical mod {m}")
        if len(self.b) != self.params.f:
            raise BadWeightDigits(
                f"b has length {len(self.b)}, expected f = {self.params.f}"
            )
        if self.b and (min(self.b) < 1 or max(self.b) > self.params.ell):
            bad = next(bi for bi in self.b if not 1 <= bi <= self.params.ell)
            raise BadWeightDigits(f"digit {bad} outside 1..{self.params.ell}")

    def __str__(self) -> str:
        a_digits = digits_base_ell(self.a, self.params)
        return (
            "V["
            + ",".join(str(d) for d in a_digits)
            + " ; "
            + ",".join(str(d) for d in self.b)
            + "]"
        )


@dataclass(frozen=True, order=True)
class LabeledWeight:
    """A weight together with the subset label produced by a recipe."""

    weight: SerreWeight
    B: int

    def __str__(self) -> str:
        idx = subset_indices(self.B, self.weight.params.f)
        return f"({self.weight}, B={{{','.join(str(i) for i in idx)}}})"


def canonical_weight(a: int, b: tuple[int, ...], params: FieldParams) -> SerreWeight:
    """Build a weight, reducing the twist exponent to its canonical residue."""
    return SerreWeight(params, int(a) % params.m_minus, tuple(b))


class LabeledRows(NamedTuple):
    """Labeled triples as checked parallel arrays, in output order: by b
    (lexicographic on b_0, b_1, ..), then a, then B.  Equal weights are
    adjacent, and first marks the first row of each distinct weight."""

    a: np.ndarray
    bcode: np.ndarray
    b: np.ndarray  # digit vectors, shape (rows, f)
    B: np.ndarray
    first: np.ndarray


def labeled_rows(a, bcode, B, params: FieldParams) -> LabeledRows:
    """Order and check labeled triples given as parallel integer arrays:
    twist exponents a, digit codes sum (b_i - 1) ell^i and subset masks B.

    Each a must be canonical mod q-1 and each code must stand for digits
    in 1..ell, as `SerreWeight` requires of one weight.  The recipes
    produce each labeled weight once, so the triples must be pairwise
    distinct.  Every check raises, under python -O too.
    """
    m = params.m_minus
    a, bcode, B = (np.asarray(x, dtype=np.int64) for x in (a, bcode, B))
    if a.size and (a.min() < 0 or a.max() >= m):
        bad = a[(a < 0) | (a >= m)][0]
        raise BadWeightDigits(f"a = {bad} not canonical mod {m}")
    if bcode.size and (bcode.min() < 0 or bcode.max() >= params.q):
        bad = bcode[(bcode < 0) | (bcode >= params.q)][0]
        raise BadWeightDigits(
            f"digit code {bad} outside 0..{params.q - 1}: digits leave 1..{params.ell}"
        )
    b = code_digits(bcode, params.ell, params.f)
    order = np.lexsort((B, a, *b.T[::-1]))
    a, bcode, b, B = a[order], bcode[order], b[order], B[order]
    same = (bcode[1:] == bcode[:-1]) & (a[1:] == a[:-1])
    if (same & (B[1:] == B[:-1])).any():
        raise AssertionError("labeled elements must be pairwise distinct")
    return LabeledRows(a, bcode, b, B, np.concatenate(([True], ~same))[: len(a)])


def row_weights(a: np.ndarray, b: np.ndarray, params: FieldParams) -> list[SerreWeight]:
    """One `SerreWeight` per row of twist exponents a and digit vectors b."""
    return [SerreWeight(params, ai, tuple(bi)) for ai, bi in zip(a.tolist(), b.tolist())]


def labeled_weights(a, bcode, B, params: FieldParams) -> frozenset[LabeledWeight]:
    """Labeled weights from parallel integer arrays, checked by `labeled_rows`."""
    rows = labeled_rows(a, bcode, B, params)
    return frozenset(map(LabeledWeight, row_weights(rows.a, rows.b, params), rows.B.tolist()))


def twist_weight(V: SerreWeight, c: int) -> SerreWeight:
    """Twist by det^c: adds c to the twist exponent, b unchanged."""
    return canonical_weight(V.a + int(c), V.b, V.params)


def _b_exponent(V: SerreWeight) -> int:
    return sum(bi * V.params.ell**i for i, bi in enumerate(V.b))


def central_character_exponent(V: SerreWeight) -> int:
    """Exponent of the central character: sum (2 a_i + b_i - 1) ell^i mod q-1."""
    m = V.params.m_minus
    return (2 * V.a + _b_exponent(V) - V.params.cyclotomic_exponent) % m


def det_exponent(V: SerreWeight) -> int:
    """Exponent sum (2 a_i + b_i) ell^i mod q-1; the recipes match it with the
    determinant of the input datum."""
    m = V.params.m_minus
    return (2 * V.a + _b_exponent(V)) % m


def weight_sort_key(V: SerreWeight) -> tuple[tuple[int, ...], int]:
    """Canonical output order: lexicographic on (b, a)."""
    return (V.b, V.a)


def weight_to_dict(V: SerreWeight) -> dict[str, Any]:
    return {"ell": V.params.ell, "f": V.params.f, "a": V.a, "b": list(V.b)}


def format_weight_set(weights) -> str:
    """Brace-delimited weight list in canonical order."""
    ordered = sorted(weights, key=weight_sort_key)
    return "{" + ", ".join(str(V) for V in ordered) + "}"
