"""Brute-force oracles: definitional triple loops, no recipe cleverness.

The labeled weight sets are defined by congruences on (a, b, B); these
functions test every candidate directly.  They are deliberately slow and
obviously correct, and the test modules compare the package's recipe
functions (which the sweep engine's tables are built from) against them.
The forced_* oracles skip only the loop over a, which the first congruence
fixes, and still test the full definition on every triple they keep.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterator

from serreweights.errors import ParamError
from serreweights.irreducible import NiveauTwoDatum, niveau_two
from serreweights.modarith import (
    FieldParams,
    code_digits,
    subset_complement,
    subset_indices,
    window_decode,
)
from serreweights.reducible import ReducibleDatum
from serreweights.weights import LabeledWeight, SerreWeight, canonical_weight


def brute_labeled_irred(ell: int, f: int, n: int) -> set[tuple[int, tuple[int, ...], int]]:
    """All (a, b, B) with

    n = a (q+1) + sum_{i in B} b_i ell^i + sum_{i not in B} b_i ell^{f+i}  (mod q^2 - 1)
    """
    q = ell**f
    big = q * q - 1
    out = set()
    for B in range(1 << f):
        inside = set(subset_indices(B, f))
        for b in itertools.product(range(1, ell + 1), repeat=f):
            s = sum(b[i] * ell**i for i in inside)
            s += sum(b[i] * ell ** (f + i) for i in range(f) if i not in inside)
            for a in range(max(q - 1, 1)):
                if (a * (q + 1) + s - n) % big == 0:
                    out.add((a, b, B))
    return out


def brute_labeled_red(
    ell: int, f: int, n1: int, n2: int
) -> set[tuple[int, tuple[int, ...], int]]:
    """All (a, b, B) with

    a + sum_{i in B} b_i ell^i = n1  and  a + sum_{i not in B} b_i ell^i = n2
    (both mod q - 1)
    """
    q = ell**f
    m = max(q - 1, 1)
    out = set()
    for B in range(1 << f):
        inside = set(subset_indices(B, f))
        for b in itertools.product(range(1, ell + 1), repeat=f):
            s_in = sum(b[i] * ell**i for i in inside)
            s_out = sum(b[i] * ell**i for i in range(f) if i not in inside)
            for a in range(m):
                if (a + s_in - n1) % m == 0 and (a + s_out - n2) % m == 0:
                    out.add((a, b, B))
    return out


@lru_cache(maxsize=None)
def _digit_sums(ell: int, f: int) -> tuple[tuple[int, tuple[int, ...], int, int], ...]:
    """(B, b, sum_{i in B} b_i ell^i, sum_{i not in B} b_i ell^i) for every
    subset B and digit vector b in {1..ell}^f."""
    out = []
    for B in range(1 << f):
        inside = set(subset_indices(B, f))
        for b in itertools.product(range(1, ell + 1), repeat=f):
            s_in = sum(b[i] * ell**i for i in inside)
            s_out = sum(b[i] * ell**i for i in range(f) if i not in inside)
            out.append((B, b, s_in, s_out))
    return tuple(out)


def forced_labeled_irred(ell: int, f: int, n: int) -> set[tuple[int, tuple[int, ...], int]]:
    """brute_labeled_irred with a read off instead of looped over.

    With s the b-part, a (q+1) = n - s (mod (q+1)(q-1)) holds for some a
    exactly when q+1 divides x = (n - s) mod q^2 - 1, and then a = x/(q+1).
    """
    q = ell**f
    big = q * q - 1
    out = set()
    for B, b, s_in, s_out in _digit_sums(ell, f):
        s = s_in + q * s_out  # sum_{i not in B} b_i ell^(f+i) = q s_out
        x = (n - s) % big
        if x % (q + 1):
            continue
        a = x // (q + 1)
        if (a * (q + 1) + s - n) % big == 0:
            out.add((a, b, B))
    return out


def forced_labeled_red(
    ell: int, f: int, n1: int, n2: int
) -> set[tuple[int, tuple[int, ...], int]]:
    """brute_labeled_red with a read off instead of looped over: the first
    congruence forces a = n1 - s_in (mod q - 1)."""
    m = max(ell**f - 1, 1)
    out = set()
    for B, b, s_in, s_out in _digit_sums(ell, f):
        a = (n1 - s_in) % m
        if (a + s_in - n1) % m == 0 and (a + s_out - n2) % m == 0:
            out.add((a, b, B))
    return out


def as_labeled_set(raw, params: FieldParams) -> frozenset[LabeledWeight]:
    """Convert oracle triples into the package's labeled weight objects."""
    return frozenset(
        LabeledWeight(canonical_weight(a, b, params), B) for a, b, B in raw
    )


def project_weights(raw) -> set[tuple[int, tuple[int, ...]]]:
    return {(a, b) for a, b, _ in raw}


def window_values(B: int, params: FieldParams) -> Iterator[int]:
    """All window values for B (ell^f items)."""
    for b in itertools.product(range(1, params.ell + 1), repeat=params.f):
        yield signed_digit_sum(b, B, params)


def brute_injectivity_witness(
    n: int, ell: int, f: int, modulus: int, rounds: int
) -> tuple[int, int] | None:
    """First (r, m), r-major and m ascending, with ell^r n = m mod modulus
    and |m| <= ell + .. + ell^(f-2): every candidate m is tried."""
    bound = sum(ell**i for i in range(1, f - 1))
    for r in range(rounds):
        c = pow(ell, r, modulus) * n % modulus
        for m in range(-bound, bound + 1):
            if c == m % modulus:
                return (r, m)
    return None


@lru_cache(maxsize=None)
def _generic_classes(ell: int, f: int) -> frozenset[int]:
    D = max(ell**f - 1, 1)
    lo, hi = 1, ell - 2
    banned = {(lo,) * f, (hi,) * f}
    return frozenset(
        sum(bi * ell**i for i, bi in enumerate(b)) % D
        for b in itertools.product(range(lo, hi + 1), repeat=f)
        if b not in banned
    )


def brute_is_generic(ell: int, f: int, n: int) -> bool:
    """Whether n mod q-1 is hit by a digit vector in {1..ell-2}^f other
    than (1..1) and (ell-2..ell-2): all (ell-2)^f vectors are enumerated."""
    return n % max(ell**f - 1, 1) in _generic_classes(ell, f)


# ---------------------------------------------------------------------------
# helpers the tests use to state round trips and symmetries


def signed_digit_sum(b, B: int, params: FieldParams) -> int:
    """Forward window map: sum_{i in B} b_i ell^i - sum_{i not in B} b_i ell^i."""
    ell, f = params.ell, params.f
    if len(b) != f:
        raise ParamError(f"digit vector has length {len(b)}, expected {f}")
    return sum(bi * ell**i if B >> i & 1 else -bi * ell**i for i, bi in enumerate(b))


def signed_digit_solve(v: int, B: int, params: FieldParams) -> tuple[int, ...] | None:
    """The package's window decode on one cell: the digits mapping to v, or
    None when v is outside the window of B."""
    ell, f = params.ell, params.f
    if not 0 <= B < (1 << f):
        raise ParamError(f"subset mask {B} out of range for f={f}")
    bcode, _, _, ok = window_decode(v, B, ell, f)
    return tuple(code_digits(bcode, ell, f).tolist()) if ok else None


def frobenius_shift(r: int, k: int, ell: int, modulus: int) -> int:
    """Multiply r by ell^k modulo modulus (k may be negative; ell is
    invertible mod q +- 1), returning the canonical residue."""
    return r * pow(ell, k, modulus) % modulus


def subset_from_indices(indices, f: int) -> int:
    """Bitmask from an index collection, validating the range."""
    B = 0
    for i in indices:
        if not 0 <= i < f:
            raise ParamError(f"index {i} out of range for f={f}")
        B |= 1 << i
    return B


def weight_from_dict(d) -> SerreWeight:
    return canonical_weight(d["a"], tuple(d["b"]), FieldParams(d["ell"], d["f"]))


def conjugate_datum(d: NiveauTwoDatum) -> NiveauTwoDatum:
    """Replace the character by its Galois conjugate: n -> q n."""
    return niveau_two(d.params, d.params.q * d.n)


def swap_datum(d: ReducibleDatum) -> ReducibleDatum:
    """Interchange the two characters."""
    return ReducibleDatum(d.params, d.n2, d.n1, d.ext)


def complement_label(lw: LabeledWeight) -> LabeledWeight:
    """Image of a labeled weight under conjugation (irreducible) or the swap
    (reducible): the same weight, with the complemented label."""
    return LabeledWeight(lw.weight, subset_complement(lw.B, lw.weight.params.f))
