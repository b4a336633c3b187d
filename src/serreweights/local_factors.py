"""Classifier for the mod ell local factor at a prime where the quaternion
algebra ramifies.

The input records the residue class of q mod ell (q is the size of the
residue field at the prime, prime to ell), and the shape of the local Galois
datum: irreducible, a twist of an extension of the trivial character by the
inverse cyclotomic character (the only reducible shape with a non-zero
factor), or any other reducible shape.

The output describes the factor as a representation of the unit group of the
quaternion order, up to the stated equivalences:

  Irreducible        -> reduction of the Jacquet-Langlands transfer
  OtherReducible     -> zero
  CycTwistExt, q = -1 -> an extension of two characters, split exactly when
                         the Galois extension class vanishes; for ell = 2 the
                         class is carried over along a Kummer-theory
                         identification (the factor is otherwise the same
                         shape)
  CycTwistExt, q = +1 -> one character, doubling to a direct sum when the
                         datum is split (the cyclotomic character is then
                         unramified trivial, so the datum is scalar)
  CycTwistExt, other q -> one character

When ell is 2 or 3 the classes q = 1 and q = -1 overlap; the q = -1 branch
is checked first and wins.  The extension space in the q = -1 branch is one
dimensional for odd ell and two dimensional for ell = 2, so for ell = 2 the
descriptor does not pin down the class beyond split vs non-split.

A caveat applies to the branches with a non-trivial extension: the factor is
defined directly from the Galois datum, and is finer than (not determined by)
the collection of factors of lifts.  The classifier returns the direct
definition and flags the caveat in its notes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import InvalidFactorInput
from .modarith import _MODULUS_CAP, is_prime

__all__ = [
    "GaloisShape",
    "LocalFactorInput",
    "FactorDescriptor",
    "Zero",
    "Character",
    "DirectSumTwo",
    "Extension",
    "JLReduction",
    "classify_local_factor",
    "classification_notes",
    "ext_space_dim",
    "CHAR_INV_DET",
    "CHAR_INV_OMEGA_INV_DET",
]

# symbolic character descriptors
CHAR_INV_DET = "chi_inv_det"
CHAR_INV_OMEGA_INV_DET = "chi_inv_omega_inv_det"


class GaloisShape(Enum):
    IRREDUCIBLE = "irreducible"
    CYC_TWIST_EXT = "cyc_twist_ext"
    OTHER_REDUCIBLE = "other_reducible"


def _check_ell(ell: int) -> None:
    # FieldParams's cap at f = 1 first, so the trial division only sees
    # ell < 2^31
    if ell * ell - 1 >= _MODULUS_CAP:
        raise InvalidFactorInput(f"ell = {ell}: ell^2 - 1 exceeds the 2^62 cap")
    if not is_prime(ell):
        raise InvalidFactorInput(f"ell = {ell} is not prime")


@dataclass(frozen=True)
class LocalFactorInput:
    """ell, the class of q mod ell, the shape, and the extension data.

    `split` matters for CYC_TWIST_EXT with q = 1 mod ell; `ext_nonzero`
    matters for CYC_TWIST_EXT with q = -1 mod ell.  They describe the same
    class from two sides, so split implies not ext_nonzero.
    """

    ell: int
    q_mod_ell: int
    shape: GaloisShape
    split: bool = False
    ext_nonzero: bool = False

    def __post_init__(self) -> None:
        _check_ell(self.ell)
        if not 1 <= self.q_mod_ell <= self.ell - 1 and not (self.ell == 2 and self.q_mod_ell == 1):
            raise InvalidFactorInput(
                f"q = {self.q_mod_ell} mod {self.ell} must be a nonzero class "
                "(the prime is prime to ell)"
            )
        if self.split and self.ext_nonzero:
            raise InvalidFactorInput("a split datum cannot have a nonzero class")


class FactorDescriptor:
    """Base class for the symbolic factor descriptions."""


@dataclass(frozen=True)
class Zero(FactorDescriptor):
    kind: str = "zero"


@dataclass(frozen=True)
class Character(FactorDescriptor):
    value: str
    kind: str = "character"


@dataclass(frozen=True)
class DirectSumTwo(FactorDescriptor):
    summand: str
    kind: str = "direct_sum_two"


@dataclass(frozen=True)
class Extension(FactorDescriptor):
    split: bool
    sub: str
    quot: str
    kind: str = "extension"


@dataclass(frozen=True)
class JLReduction(FactorDescriptor):
    kind: str = "jl_reduction"


def classify_local_factor(inp: LocalFactorInput) -> FactorDescriptor:
    """Decision table for the ramified-algebra local factor."""
    if inp.shape is GaloisShape.IRREDUCIBLE:
        return JLReduction()
    if inp.shape is GaloisShape.OTHER_REDUCIBLE:
        return Zero()
    # the q = -1 branch must win the overlaps at ell = 2 and ell = 3
    if (inp.q_mod_ell + 1) % inp.ell == 0:
        return Extension(
            split=not inp.ext_nonzero,
            sub=CHAR_INV_DET,
            quot=CHAR_INV_OMEGA_INV_DET,
        )
    if inp.q_mod_ell % inp.ell == 1 and inp.split:
        return DirectSumTwo(summand=CHAR_INV_DET)
    return Character(value=CHAR_INV_DET)


def classification_notes(inp: LocalFactorInput) -> tuple[str, ...]:
    """Caveats attached to the classification."""
    if inp.shape is not GaloisShape.CYC_TWIST_EXT:
        return ()
    minus = (inp.q_mod_ell + 1) % inp.ell == 0
    notes = []
    if minus and inp.ell == 2:
        notes.append(
            "ell = 2: the extension space is two dimensional and the class is "
            "carried along a Kummer-theory identification; the descriptor only "
            "records split vs non-split"
        )
    # the branches with a non-trivial extension: q = -1, or q = 1 and not split
    if minus or (inp.q_mod_ell % inp.ell == 1 and not inp.split):
        notes.append(
            "the factor is defined directly from the Galois datum and is not "
            "determined by the factors of its lifts"
        )
    return tuple(notes)


def ext_space_dim(ell: int, q_mod_ell: int) -> int:
    """Dimension of the relevant extension space in the q = -1 branch."""
    _check_ell(ell)
    if (q_mod_ell + 1) % ell != 0 or q_mod_ell % ell == 0:
        raise InvalidFactorInput(
            f"q = {q_mod_ell} mod {ell}: the extension space is only set up for q = -1"
        )
    return 2 if ell == 2 else 1
