"""Weight recipe for irreducible local data (niveau 2 characters).

The datum is a character of the unramified quadratic extension whose inertia
restriction is the n-th power of a niveau 2 fundamental character, with
n taken mod m_big = ell^(2f) - 1 and not divisible by m_plus = ell^f + 1
(otherwise the character would descend to niveau 1).

A triple (a, b, B) with a mod q-1, b in {1..ell}^f and B a subset of
S = {0..f-1} belongs to the labeled weight set of n exactly when

    n = a (q+1) + sum_{i in B} b_i ell^i + sum_{i not in B} b_i ell^(f+i)
                                                        (mod ell^(2f) - 1).

Reducing mod q+1 turns the b-part into the signed digit window for B, so for
each B the congruence has a solution iff n avoids a single excluded class mod
q+1, and then the solution is unique.  The B-label corresponds to a choice of
embeddings; the weight itself is (a, b).

Writing n = k (q+1) + r, the window decode depends on r alone, and
a = (k + C_B[r]) mod (q-1) exactly.  `class_tables` decodes any set of
classes r for all subsets at once: one row serves a single datum, every row
serves the verification sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidNiveauTwo
from .modarith import (
    FieldParams,
    alternating_classes,
    check_subset_limit,
    small_residue_witness,
    subsets,
    window_decode,
    window_top,
)
from .weights import LabeledWeight, SerreWeight, canonical_weight, labeled_weights

__all__ = [
    "NiveauTwoDatum",
    "niveau_two",
    "missing_class",
    "class_tables",
    "labeled_triples",
    "labeled_weight_set",
    "weight_set",
    "labeled_count_formula",
    "injectivity_witness",
    "projection_is_injective",
    "frobenius_datum",
    "twist_datum",
    "frobenius_subset",
    "frobenius_labeled",
]


@dataclass(frozen=True)
class NiveauTwoDatum:
    """Exponent n of a niveau 2 character, canonical mod ell^(2f) - 1."""

    params: FieldParams
    n: int

    def __post_init__(self) -> None:
        if not 0 <= self.n < self.params.m_big:
            raise InvalidNiveauTwo(f"n = {self.n} not canonical mod {self.params.m_big}")
        if self.n % self.params.m_plus == 0:
            raise InvalidNiveauTwo(
                f"n = {self.n} is divisible by q+1 = {self.params.m_plus}; "
                "the character has niveau 1"
            )


def niveau_two(params: FieldParams, n: int) -> NiveauTwoDatum:
    """Construct a datum, reducing n mod ell^(2f) - 1 first."""
    return NiveauTwoDatum(params, int(n) % params.m_big)


def missing_class(B: "int | np.ndarray", params: FieldParams) -> "int | np.ndarray":
    """The unique class mod q+1 with no solution for the subset B (or for
    each mask of an array B).

    Equals window_top(B) + 1: the window covers ell^f consecutive integers,
    one short of a full period mod q+1, and the value just above the top is
    the class it misses.
    """
    return window_top(B, params) + 1


def class_tables(params: FieldParams, r) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Window decode of the classes r mod q+1 (an integer array), for every subset B.

    Per class and subset: solve the window congruence v = r mod q+1 and
    decode the digit vector; the remaining term of n = k (q+1) + r is then
    (q+1) (k + C) mod q^2 - 1.  Returns (admissible, C, bcode), each of
    shape (len(r), 2^f), with bcode the digit code sum (b_i - 1) ell^i.
    """
    q, P, M = params.q, params.m_plus, params.m_big
    B = np.arange(len(subsets(params.f)), dtype=np.int64)  # every subset mask
    R = np.asarray(r, dtype=np.int64)[:, np.newaxis]
    low = missing_class(B, params) - q  # the bottom of the window
    off = (R - low) % P
    admissible = off != q  # off = q is the missing class, just above the top
    v = low + off
    bcode, _, s_out, ok = window_decode(v, B, params.ell, params.f)
    if not ok[admissible].all():
        raise AssertionError("admissible class failed to decode in window")
    # (q+1) s_out < 2 (q^2 - 1) < 2^63, so this stays exact in int64
    rem = (R - v - P * s_out) % M
    if (rem[admissible] % P).any():
        raise AssertionError("remaining term not divisible by q+1")
    return admissible, rem // P, bcode


def labeled_triples(d: NiveauTwoDatum) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The labeled weights of the datum as parallel arrays (a, bcode, B):
    one row of `class_tables`, with a = (k + C_B[r]) mod (q-1) for
    n = k (q+1) + r, and bcode the digit code sum (b_i - 1) ell^i."""
    p = d.params
    check_subset_limit(p)
    k, r = divmod(d.n, p.m_plus)
    admissible, C, bcode = (t[0] for t in class_tables(p, [r]))
    (Bs,) = np.nonzero(admissible)
    return (k + C[Bs]) % p.m_minus, bcode[Bs], Bs


def labeled_weight_set(d: NiveauTwoDatum) -> frozenset[LabeledWeight]:
    """All labeled weights (V_{a,b}, B) attached to the datum."""
    return labeled_weights(*labeled_triples(d), d.params)


def weight_set(d: NiveauTwoDatum) -> frozenset[SerreWeight]:
    """The conjectural weight set: forget the labels."""
    return frozenset(lw.weight for lw in labeled_weight_set(d))


# ---------------------------------------------------------------------------
# closed-form count


@lru_cache(maxsize=None)
def _ambiguous_classes_irred(ell: int, f: int) -> frozenset[int]:
    """Classes mod q+1 that a valid n can share with an excluded class.

    For odd ell these are built from alternating digit sums over auxiliary
    subsets: every subset for even f, the proper nonempty ones for odd f.
    The builders assert the distinctness and nonvanishing that the counting
    argument relies on.
    """
    A = alternating_classes(ell, f, ell**f + 1, every=f % 2 == 0)
    if 0 in A:
        raise AssertionError("ambiguous classes must be nonzero")
    return A


def labeled_count_formula(d: NiveauTwoDatum) -> int:
    """Size of the labeled weight set without enumerating it."""
    p = d.params
    if p.ell == 2:
        if p.f % 2 == 0:
            return 2**p.f - 1
        # for odd f, 3 divides q+1, so n mod 3 is well defined on the datum
        return 2**p.f - 3 if d.n % 3 == 0 else 2**p.f
    A = _ambiguous_classes_irred(p.ell, p.f)
    return 2**p.f - (1 if d.n % p.m_plus in A else 0)


# ---------------------------------------------------------------------------
# injectivity of the projection to plain weights


def injectivity_witness(d: NiveauTwoDatum) -> tuple[int, int] | None:
    """A pair (r, m) with ell^r n = m mod q+1 and |m| small, if one exists.

    The projection from labeled weights to weights is injective exactly when
    no such pair exists; |m| ranges over 0..ell + .. + ell^(f-2), which is
    {0} for f <= 2 (and m = 0 is unreachable since q+1 never divides n).
    One O(f) pass over r = 0..2f-1, shared with the reducible recipe.
    """
    p = d.params
    return small_residue_witness(d.n, p.ell, p.f, p.m_plus, 2 * p.f)


def projection_is_injective(d: NiveauTwoDatum) -> bool:
    return injectivity_witness(d) is None


# ---------------------------------------------------------------------------
# symmetries


def frobenius_datum(d: NiveauTwoDatum) -> NiveauTwoDatum:
    """Base change along Frobenius: n -> ell n."""
    return niveau_two(d.params, d.params.ell * d.n)


def twist_datum(d: NiveauTwoDatum, c: int) -> NiveauTwoDatum:
    """Twist by an unramified-to-niveau-1 character of exponent c:
    n -> n + c (q+1)."""
    return niveau_two(d.params, d.n + c * d.params.m_plus)


def frobenius_subset(B: "int | np.ndarray", f: int) -> "int | np.ndarray":
    """Label of the Frobenius image: B shifts cyclically up one slot, and the
    wrapped top digit crosses ell^(2f) = 1, which flips its side of the
    subset.  B may be an array of masks."""
    return ((B << 1) & ((1 << f) - 1)) | (1 - (B >> (f - 1) & 1))


def frobenius_labeled(lw: LabeledWeight) -> LabeledWeight:
    """Image of a labeled weight under n -> ell n.

    The digits shift cyclically up one slot, the label moves by
    `frobenius_subset`, and a picks up a factor ell.
    """
    p = lw.weight.params
    b = lw.weight.b
    new_b = (b[-1],) + b[:-1]
    new_a = (p.ell * lw.weight.a) % p.m_minus
    return LabeledWeight(canonical_weight(new_a, new_b, p), frobenius_subset(lw.B, p.f))
