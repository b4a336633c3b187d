"""Weight recipe for reducible local data (pairs of niveau 1 characters).

The datum is an ordered pair of characters with inertia exponents n1, n2 mod
q-1, together with what is known about the extension class: split, or
non-split with unknown class.  A triple (a, b, B) belongs to the labeled
weight set exactly when

    n1 = a + sum_{i in B} b_i ell^i        (mod q - 1)
    n2 = a + sum_{i not in B} b_i ell^i    (mod q - 1).

Subtracting, the difference n = n1 - n2 must equal the signed digit window
value for B mod q-1; the window has q = (q-1) + 1 consecutive integers, so
every class has one solution and the class of the window top has two.  Then
a = n1 - (B-part) is forced.  `class_tables` decodes any set of ratio
classes for all subsets at once: one row serves a single datum, every row
serves the verification sweeps.

For a non-split datum the weight set depends on where the extension class
lands inside H^1; each labeled weight carves out a subspace L whose dimension
is |J| with small corrections (J is the embedding subset matching B).
`dimension_rule` gives the correction and whether it is decided by the
datum alone, and `dim_bounds` reads it for arrays of labeled weights: for
`dim_report`, for the certain part of `partial_rows` and for the nonempty
sweep.  The one open situation is a trivial character ratio with J proper
and b not identically ell, where the answer depends on whether the
unramified line sits inside the peu-ramifiee subspace L'.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import NotInLabeledSet, ParamError, WrongExtClass
from .modarith import (
    FieldParams,
    alternating_classes,
    check_subset_limit,
    digits_base_ell,
    small_residue_witness,
    subsets,
    window_decode,
    window_top,
)
from .weights import (
    LabeledRows,
    LabeledWeight,
    SerreWeight,
    canonical_weight,
    labeled_rows,
    labeled_weights,
    row_weights,
)

__all__ = [
    "ExtClass",
    "ReducibleDatum",
    "niveau_one",
    "doubled_class",
    "class_tables",
    "labeled_triples",
    "labeled_weight_set",
    "labeled_count_formula",
    "injectivity_witness",
    "projection_is_injective",
    "h1_excess",
    "h1_dim",
    "dimension_rule",
    "dim_bounds",
    "DimReport",
    "dim_report",
    "weight_set_split",
    "partial_rows",
    "weight_sets_partial",
    "is_generic",
    "frobenius_datum",
    "twist_datum",
    "frobenius_subset",
    "frobenius_labeled",
]


class ExtClass(Enum):
    SPLIT = "split"
    NONSPLIT_UNKNOWN = "unknown"


@dataclass(frozen=True)
class ReducibleDatum:
    """Ordered pair of niveau 1 inertia exponents plus extension knowledge."""

    params: FieldParams
    n1: int
    n2: int
    ext: ExtClass

    def __post_init__(self) -> None:
        m = self.params.m_minus
        if not (0 <= self.n1 < m and 0 <= self.n2 < m):
            raise ParamError(f"exponents ({self.n1}, {self.n2}) not canonical mod {m}")

    @property
    def n(self) -> int:
        """Inertia exponent of the character ratio."""
        return (self.n1 - self.n2) % self.params.m_minus


def niveau_one(params: FieldParams, n1: int, n2: int, ext: ExtClass) -> ReducibleDatum:
    m = params.m_minus
    return ReducibleDatum(params, int(n1) % m, int(n2) % m, ext)


def doubled_class(B: "int | np.ndarray", params: FieldParams) -> "int | np.ndarray":
    """Window top for B: the one class mod q-1 with two window solutions
    (for each mask of an array B)."""
    return window_top(B, params)


def class_tables(params: FieldParams, n) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Both window solutions of the ratio classes n mod q-1 (an integer
    array), for every subset B.

    Returns (valid, s_in, bcode), each of shape (len(n), 2^f, 2): slot 0
    holds the solution every class has, slot 1 the second one of a class
    that lands on the doubled class of B; valid marks the slots that hold a
    solution (slot 1 exactly where the class is doubled).  s_in is the
    B-part digit sum and bcode the digit code sum (b_i - 1) ell^i.
    """
    D = params.m_minus
    B = np.arange(len(subsets(params.f)), dtype=np.int64)  # every subset mask
    low = doubled_class(B, params) + 1 - params.q
    off = (np.asarray(n, dtype=np.int64)[:, np.newaxis] - low) % D
    # the window holds a full period plus one value
    v = (low + off)[:, :, np.newaxis] + np.array([0, D])
    bcode, s_in, _, ok = window_decode(v, B[:, np.newaxis], params.ell, params.f)
    valid = np.ones_like(ok)
    valid[:, :, 1] = off == 0
    if not ok[valid].all():
        raise AssertionError("window solution failed to decode")
    return valid, s_in, bcode


def labeled_triples(d: ReducibleDatum) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The labeled weights of the datum as parallel arrays (a, bcode, B);
    every subset B contributes one weight, or two when n lands on the
    doubled class of B.  One row of `class_tables`, with
    a = n1 - (B-part) mod (q-1) and bcode the digit code sum (b_i - 1) ell^i."""
    p = d.params
    check_subset_limit(p)
    valid, s_in, bcode = (t[0] for t in class_tables(p, [d.n]))
    Bs, slots = np.nonzero(valid)
    a = (d.n1 - s_in[Bs, slots]) % p.m_minus
    return a, bcode[Bs, slots], Bs


def labeled_weight_set(d: ReducibleDatum) -> frozenset[LabeledWeight]:
    """All labeled weights of the datum."""
    return labeled_weights(*labeled_triples(d), d.params)


# ---------------------------------------------------------------------------
# closed-form count


@lru_cache(maxsize=None)
def _ambiguous_classes_red(ell: int, f: int) -> frozenset[int]:
    """Classes mod q-1 hit by exactly one window top, for odd ell.

    Built from alternating digit sums as in the irreducible case, but with
    the parity roles swapped, and for ell = 3 without the two alternating
    subsets {0, 2, ..} and {1, 3, ..}, which share the class (q-1)/2.
    """
    D = ell**f - 1
    skip = frozenset({tuple(range(0, f, 2)), tuple(range(1, f, 2))} if ell == 3 else ())
    A = alternating_classes(ell, f, D, every=f % 2 == 1, skip=skip)
    if 0 in A or (ell == 3 and D // 2 in A):
        raise AssertionError("ambiguous classes must avoid 0, and (q-1)/2 for ell = 3")
    return A


def labeled_count_formula(d: ReducibleDatum) -> int:
    """Size of the labeled weight set: 2^f plus the number of subsets whose
    doubled class the ratio exponent hits."""
    p = d.params
    f = p.f
    n = d.n
    if p.ell == 2:
        if f % 2 == 0:
            if n == 0:
                return 2**f + 4
            return 2**f + 3 if n % 3 == 0 else 2**f
        return 2**f + 2 if n == 0 else 2**f + 1
    if (n == 0 and f % 2 == 0) or (p.ell == 3 and n == p.m_minus // 2):
        return 2**f + 2
    return 2**f + 1 if n in _ambiguous_classes_red(p.ell, f) else 2**f


# ---------------------------------------------------------------------------
# injectivity of the projection to plain weights


def injectivity_witness(d: ReducibleDatum) -> tuple[int, int] | None:
    """A pair (r, m) with ell^r n = m mod q-1 and |m| small, if one exists.

    m = 0 is always allowed, so a trivial character ratio (n = 0) always
    fails injectivity; the witness there is (0, 0).  One O(f) pass over
    r = 0..f-1, shared with the irreducible recipe.
    """
    p = d.params
    return small_residue_witness(d.n, p.ell, p.f, p.m_minus, p.f)


def projection_is_injective(d: ReducibleDatum) -> bool:
    return injectivity_witness(d) is None


# ---------------------------------------------------------------------------
# cohomology bookkeeping for the non-split case


def h1_excess(trivial, cyclotomic):
    """dim H^1 - f for the ratio character: one for a trivial ratio plus one
    for a cyclotomic ratio (bools, or bool arrays broadcast together)."""
    return np.add(trivial, cyclotomic, dtype=np.int64)


def h1_dim(d: ReducibleDatum) -> int:
    """Dimension of H^1 for the ratio character: f plus `h1_excess`.  For
    ell = 2 the cyclotomic exponent vanishes mod q-1, so both corrections
    apply at n = 0."""
    p = d.params
    return p.f + int(h1_excess(d.n == 0, d.n == p.cyclotomic_exponent))


@dataclass(frozen=True)
class DimReport:
    """Dimension of the subspace L attached to a labeled weight.

    dim L = j_size + delta when decidable.  When not decidable the true delta
    is 1 or 2 (the stored delta is the guaranteed lower value) and the answer
    depends on whether the unramified line lies in the peu-ramifiee subspace.
    """

    j_size: int
    delta: int
    decidable: bool

    @property
    def dim(self) -> int:
        if not self.decidable:
            raise ValueError("dimension undecided for this labeled weight")
        return self.j_size + self.delta

    @property
    def dim_bounds(self) -> tuple[int, int]:
        if self.decidable:
            return (self.j_size + self.delta, self.j_size + self.delta)
        return (self.j_size + 1, self.j_size + 2)


def _membership_check(d: ReducibleDatum, a, b, B) -> None:
    """Raise unless every triple solves the datum's two congruences: twist
    exponents a, digit vectors b (one per row, or one) and subset masks B."""
    p = d.params
    m = p.m_minus
    a, B, b = np.atleast_1d(a), np.atleast_1d(B), np.atleast_2d(b)
    terms = b * np.array([p.ell**i for i in range(p.f)])
    s_in = np.where(B[:, np.newaxis] >> np.arange(p.f) & 1, terms, 0).sum(axis=1)
    s_out = terms.sum(axis=1) - s_in
    bad = ((a + s_in - d.n1) % m != 0) | ((a + s_out - d.n2) % m != 0)
    if bad.any():
        i = np.argmax(bad)
        lw = f"(a={a[i]}, b={tuple(b[i].tolist())}, B={B[i]})"
        raise NotInLabeledSet(f"{lw} is not a labeled weight of {d}")


def dimension_rule(trivial: bool, cyclotomic: bool, all_ell: bool, full: bool) -> tuple[int, bool]:
    """(delta, decidable) of the subspace L of a labeled weight, from whether
    the ratio is trivial or cyclotomic, whether b = (ell..ell) and whether
    J is full.

    Generic answer delta = 0.  Corrections: a cyclotomic ratio with
    b = (ell..ell) and J full gets +1 (the subspace is everything); a
    trivial ratio gets +1, upgraded to +2 when b = (ell..ell) (forcing
    ell = 2) or when J is proper and the unramified line escapes the
    peu-ramifiee subspace, which is the one case the datum does not decide.
    """
    if trivial:
        # ell = 2 included here: its cyclotomic ratio is the trivial one, as
        # the cyclotomic exponent vanishes mod q-1
        if all_ell:
            return 2, True
        if full:
            # b must be (ell-1 .. ell-1); the unramified line is inside L'
            return 1, True
        return 1, False
    if cyclotomic and all_ell and full:
        return 1, True
    return 0, True


def dim_bounds(params: FieldParams, n, bcode, B) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lo, hi, fills) for labeled weights given as integer arrays broadcast
    together: ratio exponents n, digit codes bcode = sum (b_i - 1) ell^i
    and subset masks B.

    lo <= dim L <= hi, with lo = |J| + delta and hi = lo exactly where
    `dimension_rule` decides the dimension; fills marks a decided L of
    dimension dim H^1.  The 16 cases of the rule are tabulated once per
    call, so the single weight of `dim_report`, one datum's labeled rows
    and the nonempty sweep's ratio line all read the same rule.
    """
    delta, decided = np.array(
        [dimension_rule(*case) for case in itertools.product((False, True), repeat=4)]
    ).T  # the 16 cases in the order of the case index below
    f = params.f
    n, bcode, B = np.asarray(n), np.asarray(bcode), np.asarray(B)
    trivial, cyclotomic = n == 0, n == params.cyclotomic_exponent
    case = 8 * trivial + 4 * cyclotomic + 2 * (bcode == params.q - 1) + (B == (1 << f) - 1)
    decidable = decided[case].astype(bool)
    lo = sum(B >> i & 1 for i in range(f)) + delta[case]
    hi = lo + ~decidable
    return lo, hi, decidable & (lo == f + h1_excess(trivial, cyclotomic))


def dim_report(lw: LabeledWeight, d: ReducibleDatum) -> DimReport:
    """Dimension report for the subspace attached to one labeled weight:
    `dim_bounds` of that weight."""
    p = d.params
    _membership_check(d, lw.weight.a, lw.weight.b, lw.B)
    bcode = sum((bi - 1) * p.ell**i for i, bi in enumerate(lw.weight.b))
    lo, hi, _ = dim_bounds(p, d.n, bcode, lw.B)
    j_size = bin(lw.B).count("1")
    return DimReport(j_size, int(lo) - j_size, bool(lo == hi))


# ---------------------------------------------------------------------------
# weight sets


def weight_set_split(d: ReducibleDatum) -> frozenset[SerreWeight]:
    """Weight set for a split datum: every labeled weight contributes."""
    if d.ext is not ExtClass.SPLIT:
        raise WrongExtClass("weight_set_split requires a split datum")
    return frozenset(lw.weight for lw in labeled_weight_set(d))


def partial_rows(d: ReducibleDatum) -> tuple[LabeledRows, np.ndarray, np.ndarray, np.ndarray]:
    """(rows, lo, hi, certain) for a non-split datum with unknown class:
    its checked `labeled_rows`, the `dim_bounds` of each row, and for each
    distinct weight, in row order, whether it is certain.

    A weight is certain when some labeled representative has a decided
    subspace equal to all of H^1, so it contains every extension class.
    Everything else in the projection stays possible.  The certain part is
    never empty: the full-label representative always has a full subspace.
    """
    if d.ext is not ExtClass.NONSPLIT_UNKNOWN:
        raise WrongExtClass("partial_rows requires a non-split datum")
    p = d.params
    rows = labeled_rows(*labeled_triples(d), p)
    _membership_check(d, rows.a, rows.b, rows.B)
    lo, hi, fills = dim_bounds(p, d.n, rows.bcode, rows.B)
    certain = np.logical_or.reduceat(fills, np.flatnonzero(rows.first))
    if not certain.any():
        raise AssertionError("the full-label weight always contributes")
    return rows, lo, hi, certain


def weight_sets_partial(d: ReducibleDatum) -> tuple[frozenset[SerreWeight], frozenset[SerreWeight]]:
    """(certain, possible) for a non-split datum with unknown class; see
    `partial_rows`."""
    rows, _, _, certain = partial_rows(d)
    weights = row_weights(rows.a[rows.first], rows.b[rows.first], d.params)
    certain_set = frozenset(w for w, c in zip(weights, certain.tolist()) if c)
    return certain_set, frozenset(weights) - certain_set


def is_generic(d: ReducibleDatum) -> bool:
    """Whether the ratio exponent is generic: hit by some digit vector with
    every digit in {1..ell-2}, other than the two constant vectors (1..1)
    and (ell-2..ell-2).  Vacuously false for ell <= 3.

    Such a digit sum is below q-1, so it is the canonical residue and its
    digits are the base-ell digits of n: an O(f) digit test.
    """
    p = d.params
    b = digits_base_ell(d.n, p)
    interior = all(1 <= bi <= p.ell - 2 for bi in b)
    return interior and b != (1,) * p.f and b != (p.ell - 2,) * p.f


# ---------------------------------------------------------------------------
# symmetries


def frobenius_datum(d: ReducibleDatum) -> ReducibleDatum:
    """Base change along Frobenius: both exponents multiply by ell."""
    m = d.params.m_minus
    return ReducibleDatum(d.params, (d.params.ell * d.n1) % m, (d.params.ell * d.n2) % m, d.ext)


def twist_datum(d: ReducibleDatum, c: int) -> ReducibleDatum:
    """Twist by a niveau 1 character of exponent c: both exponents shift by c."""
    m = d.params.m_minus
    return ReducibleDatum(d.params, (d.n1 + c) % m, (d.n2 + c) % m, d.ext)


def frobenius_subset(B: "int | np.ndarray", f: int) -> "int | np.ndarray":
    """Label of the Frobenius image: B shifts cyclically up one slot (no wrap
    complement here: ell^f = 1 mod q-1).  B may be an array of masks."""
    return ((B << 1) & ((1 << f) - 1)) | (B >> (f - 1) & 1)


def frobenius_labeled(lw: LabeledWeight) -> LabeledWeight:
    """Image of a labeled weight under Frobenius base change: digits shift
    cyclically, the label moves by `frobenius_subset`, and a picks up a
    factor ell."""
    p = lw.weight.params
    b = lw.weight.b
    new_b = (b[-1],) + b[:-1]
    new_a = (p.ell * lw.weight.a) % p.m_minus
    return LabeledWeight(canonical_weight(new_a, new_b, p), frobenius_subset(lw.B, p.f))
