"""Exact modular arithmetic for the weight recipes.

Everything here is plain integer arithmetic with the three moduli attached to
an unramified extension of degree f of Q_ell with residue field of size
q = ell^f:

    m_minus = q - 1     (exponents of niveau 1 characters, weight twists)
    m_plus  = q + 1     (the quotient modulus in the niveau 2 recipe)
    m_big   = q^2 - 1   (exponents of niveau 2 characters)

The signed digit window is the combinatorial heart of both recipes.  Fix a
subset B of S = {0, .., f-1} and let each digit b_i range over {1, .., ell}.
The map

    b  |->  sum_{i in B} b_i ell^i  -  sum_{i not in B} b_i ell^i

is a bijection from {1..ell}^f onto a run of ell^f consecutive integers whose
top value is window_top(B) = sum_{i in B} ell^(i+1) - sum_{i not in B} ell^i.
`window_decode` inverts the map digit by digit, for any array of values and
subsets at once; both recipes and the sweep tables decode through it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ParamError

__all__ = [
    "FieldParams",
    "digits_base_ell",
    "window_decode",
    "code_digits",
    "window_top",
    "witness_bound",
    "small_residue_witness",
    "alternating_classes",
    "MAX_SUBSET_F",
    "check_subset_limit",
    "subsets",
    "subset_indices",
    "subset_complement",
    "is_prime",
]

# Hard cap on m_big; keeps every datum at desk scale by construction.
_MODULUS_CAP = 2**62


def is_prime(n: int) -> bool:
    """Deterministic trial division, adequate for desk-scale primes."""
    if n < 2:
        return False
    for p in (2, 3):
        if n % p == 0:
            return n == p
    d = 5
    while d * d <= n:
        if n % d == 0 or n % (d + 2) == 0:
            return False
        d += 6
    return True


@dataclass(frozen=True)
class FieldParams:
    """Residue field parameters: prime ell and inertial degree f."""

    ell: int
    f: int

    def __post_init__(self) -> None:
        if not isinstance(self.ell, int) or not isinstance(self.f, int):
            raise ParamError(f"ell and f must be integers, got {self.ell!r}, {self.f!r}")
        if self.f < 1:
            raise ParamError(f"f = {self.f} must be at least 1")
        # ell^(2f) >= 2^(2f (bit_length - 1)): a bound past 2^62 refuses a
        # huge ell or f before the power is built, and the exact cap then
        # bounds ell below 2^31, so the trial division runs last
        if (
            2 * self.f * (self.ell.bit_length() - 1) > 62
            or self.ell ** (2 * self.f) - 1 >= _MODULUS_CAP
        ):
            raise ParamError(f"ell^(2f) - 1 exceeds the 2^62 cap at ell = {self.ell}, f = {self.f}")
        if not is_prime(self.ell):
            raise ParamError(f"ell = {self.ell} is not prime")

    @cached_property
    def q(self) -> int:
        return self.ell**self.f

    @cached_property
    def m_plus(self) -> int:
        return self.q + 1

    @cached_property
    def m_minus(self) -> int:
        # Degenerate but legal: ell=2, f=1 gives modulus 1.
        return self.q - 1

    @cached_property
    def m_big(self) -> int:
        return self.q * self.q - 1

    @cached_property
    def cyclotomic_exponent(self) -> int:
        """Exponent of the mod-ell cyclotomic character: sum of ell^i, i < f."""
        return sum(self.ell**i for i in range(self.f)) % self.m_minus

    def __repr__(self) -> str:  # noqa: D105
        return f"FieldParams(ell={self.ell}, f={self.f})"


def digits_base_ell(a: int, params: FieldParams) -> tuple[int, ...]:
    """Base-ell digits (d_0, .., d_{f-1}) of the canonical residue of a mod q-1.

    The canonical representative lies in [0, q-1), so the digit vector is never
    all ell-1 (that value equals q-1 itself).
    """
    v = int(a) % params.m_minus
    out = []
    for _ in range(params.f):
        out.append(v % params.ell)
        v //= params.ell
    return tuple(out)


# ---------------------------------------------------------------------------
# subsets of S = {0..f-1} as bitmasks


def subsets(f: int) -> range:
    """All subsets of {0..f-1} as bitmasks 0 .. 2^f - 1."""
    return range(1 << f)


# A single-datum weight set decodes and builds all 2^f subsets: about 1 s per
# labeled set at (2, 16), doubling with each further f.
MAX_SUBSET_F = 16


def check_subset_limit(params: FieldParams) -> None:
    """Refuse, before any work, a datum whose 2^f subset loop is too long."""
    if params.f > MAX_SUBSET_F:
        raise ParamError(
            f"f = {params.f} is past the limit f <= {MAX_SUBSET_F}: "
            f"a weight set enumerates all 2^f subsets"
        )


def subset_indices(B: int, f: int) -> tuple[int, ...]:
    """Sorted member indices of the bitmask B."""
    if not 0 <= B < (1 << f):
        raise ParamError(f"subset mask {B} out of range for f={f}")
    return tuple(i for i in range(f) if B >> i & 1)


def subset_complement(B: int, f: int) -> int:
    return B ^ ((1 << f) - 1)


# ---------------------------------------------------------------------------
# the signed digit window


def window_top(B: "int | np.ndarray", params: FieldParams) -> "int | np.ndarray":
    """Largest value of the window map for B; the window is the ell^f
    consecutive integers [window_top - ell^f + 1, window_top].

    B may be an array of masks, giving an array of tops.
    """
    ell, f = params.ell, params.f
    masks = np.asarray(B, dtype=np.int64)
    if masks.size and (masks.min() < 0 or masks.max() >= 1 << f):
        raise ParamError(f"subset mask {B} out of range for f={f}")
    # sum_{i in B} ell^(i+1) - sum_{i not in B} ell^i
    #   = (ell + 1) sum_{i in B} ell^i - (1 + ell + .. + ell^(f-1))
    in_sum = _bits(masks, f) @ _powers(ell, f)
    top = (ell + 1) * in_sum - (params.q - 1) // (ell - 1)
    return top if top.ndim else int(top)


def window_decode(v, B, ell: int, f: int):
    """Invert the window map at every cell of v and B, broadcast together.

    Greedy digit-by-digit: the residue of v mod ell forces b_0 in {1..ell}
    with the sign dictated by membership of 0 in B; subtract and divide.
    Exactly the values in the window decode to zero remainder.  Returns
    (bcode, s_in, s_out, ok): bcode encodes the digits as
    sum (b_i - 1) ell^i, s_in / s_out are the digit sums sum b_i ell^i over
    B / its complement, and ok marks the cells whose value lies in the window.
    """
    signs = 2 * _bits(np.asarray(B, dtype=np.int64), f) - 1
    t = np.zeros(np.broadcast_shapes(np.shape(v), signs.shape[:-1]), dtype=np.int64)
    t += v
    total = np.zeros(t.shape, dtype=np.int64)
    pw = 1
    for i in range(f):
        sign = signs[..., i]
        d = sign * t
        d -= 1
        d %= ell
        d += 1
        t -= sign * d
        t //= ell
        total += d * pw
        pw *= ell
    # v = sum_i sign_i b_i ell^i + q t exactly, so the B-part digit sum is
    # (total + v - q t) / 2, and bcode = total - (1 + ell + .. + ell^(f-1))
    s_in = (total + v - pw * t) // 2
    return total - (pw - 1) // (ell - 1), s_in, total - s_in, t == 0


def _bits(masks: np.ndarray, f: int) -> np.ndarray:
    """Membership bits of i in each mask, along a new last axis of length f."""
    return masks[..., np.newaxis] >> np.arange(f) & 1


def _powers(ell: int, f: int) -> np.ndarray:
    return np.array([ell**i for i in range(f)], dtype=np.int64)


def code_digits(bcode, ell: int, f: int) -> np.ndarray:
    """Digit vectors (b_0, .., b_{f-1}) of digit codes, along a new last axis."""
    return np.asarray(bcode, dtype=np.int64)[..., np.newaxis] // _powers(ell, f) % ell + 1


# ---------------------------------------------------------------------------
# the alternating digit sums of the closed-form counts


def alternating_classes(
    ell: int, f: int, modulus: int, every: bool, skip: frozenset[tuple[int, ...]] = frozenset()
) -> frozenset[int]:
    """The classes c + (ell + 1) sum_{i in B} (-1)^i ell^i mod modulus.

    With every, B runs over every subset of {0..f-1} and c = -1; otherwise
    over the proper nonempty ones, and c = 0.  B is a sorted tuple of
    indices, and the subsets in skip are left out.  The builder asserts
    that the classes are distinct, as the counting argument needs.
    """
    sizes = range(f + 1) if every else range(1, f)
    subs = [B for k in sizes for B in itertools.combinations(range(f), k) if B not in skip]
    c = -1 if every else 0
    classes = frozenset((c + (ell + 1) * sum((-ell) ** i for i in B)) % modulus for B in subs)
    if len(classes) != len(subs):
        raise AssertionError("alternating classes must be distinct")
    return classes


# ---------------------------------------------------------------------------
# the injectivity witness search


def witness_bound(ell: int, f: int) -> int:
    """ell + ell^2 + .. + ell^(f-2): the largest |m| a witness may use (0 for f < 3)."""
    return (ell ** (f - 1) - ell) // (ell - 1) if f >= 2 else 0


def small_residue_witness(
    n: int, ell: int, f: int, modulus: int, rounds: int
) -> tuple[int, int] | None:
    """First (r, m) with r < rounds, ell^r n = m mod modulus and |m| <= witness_bound.

    The modulus (q+1 or q-1) exceeds twice the bound, so only the centred
    residue of ell^r n can qualify: O(rounds) work, no scan over m.
    """
    bound = witness_bound(ell, f)
    if 2 * bound >= modulus:
        raise AssertionError("small residues must be distinct")
    c = n % modulus
    for r in range(rounds):
        if c <= bound:
            return (r, c)
        if c >= modulus - bound:
            return (r, c - modulus)
        c = c * ell % modulus
    return None
