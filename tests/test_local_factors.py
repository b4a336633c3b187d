import itertools

import pytest

from serreweights import local_factors
from serreweights.errors import InvalidFactorInput
from serreweights.local_factors import (
    CHAR_INV_DET,
    CHAR_INV_OMEGA_INV_DET,
    Character,
    DirectSumTwo,
    Extension,
    GaloisShape,
    JLReduction,
    LocalFactorInput,
    Zero,
    classification_notes,
    classify_local_factor,
    ext_space_dim,
)


def test_input_validation():
    with pytest.raises(InvalidFactorInput):
        LocalFactorInput(4, 1, GaloisShape.IRREDUCIBLE)  # not prime
    with pytest.raises(InvalidFactorInput):
        LocalFactorInput(5, 0, GaloisShape.IRREDUCIBLE)  # q class out of range
    with pytest.raises(InvalidFactorInput):
        LocalFactorInput(5, 5, GaloisShape.IRREDUCIBLE)
    with pytest.raises(InvalidFactorInput):
        LocalFactorInput(5, 4, GaloisShape.CYC_TWIST_EXT, split=True, ext_nonzero=True)


def _expected(ell, q_mod, shape, split, ext_nonzero):
    """Hand-built truth table, written independently of the implementation."""
    if shape is GaloisShape.IRREDUCIBLE:
        return JLReduction()
    if shape is GaloisShape.OTHER_REDUCIBLE:
        return Zero()
    # cyclotomic-twist extension line: residue of q decides everything,
    # with q = -1 taking precedence over q = +1 where both hold
    if (q_mod + 1) % ell == 0:
        return Extension(
            split=not ext_nonzero, sub=CHAR_INV_DET, quot=CHAR_INV_OMEGA_INV_DET
        )
    if q_mod % ell == 1:
        return DirectSumTwo(CHAR_INV_DET) if split else Character(CHAR_INV_DET)
    return Character(CHAR_INV_DET)


def test_decision_table_exhaustive():
    for ell in (2, 3, 5):
        for q_mod in range(1, ell):
            for shape in GaloisShape:
                for split, ext_nonzero in itertools.product((False, True), repeat=2):
                    if split and ext_nonzero:
                        continue
                    inp = LocalFactorInput(ell, q_mod, shape, split, ext_nonzero)
                    got = classify_local_factor(inp)
                    want = _expected(ell, q_mod, shape, split, ext_nonzero)
                    assert got == want, (ell, q_mod, shape, split, ext_nonzero)


def test_precedence_at_small_ell():
    """q = 1 = -1 mod 2 and q = 2 = -1 mod 3: the extension branch must win."""
    got = classify_local_factor(LocalFactorInput(2, 1, GaloisShape.CYC_TWIST_EXT))
    assert isinstance(got, Extension)
    assert got.split  # ext class zero by default
    got = classify_local_factor(
        LocalFactorInput(3, 2, GaloisShape.CYC_TWIST_EXT, ext_nonzero=True)
    )
    assert isinstance(got, Extension)
    assert not got.split
    assert (got.sub, got.quot) == (CHAR_INV_DET, CHAR_INV_OMEGA_INV_DET)
    # while q = 1 mod 3 with a split class is an honest direct sum
    got = classify_local_factor(
        LocalFactorInput(3, 1, GaloisShape.CYC_TWIST_EXT, split=True)
    )
    assert got == DirectSumTwo(CHAR_INV_DET)


def test_huge_ell_refused_before_the_primality_test(monkeypatch):
    # ell^2 - 1 past FieldParams's 2^62 cap is refused first, so a trial
    # division of a huge ell fails this test instead of spinning
    def no_trial_division(n):
        raise RuntimeError("is_prime ran")

    monkeypatch.setattr(local_factors, "is_prime", no_trial_division)
    huge = 2**61 - 1
    for build in (
        lambda: LocalFactorInput(huge, 1, GaloisShape.IRREDUCIBLE),
        lambda: ext_space_dim(huge, huge - 1),
    ):
        with pytest.raises(InvalidFactorInput, match="ell\\^2 - 1 exceeds the 2\\^62 cap"):
            build()


def test_ext_space_dim():
    assert ext_space_dim(2, 1) == 2
    assert ext_space_dim(3, 2) == 1
    assert ext_space_dim(5, 4) == 1
    assert ext_space_dim(13, 12) == 1
    with pytest.raises(InvalidFactorInput):
        ext_space_dim(5, 1)
    with pytest.raises(InvalidFactorInput):
        ext_space_dim(5, 2)


def test_notes():
    notes = classification_notes(LocalFactorInput(2, 1, GaloisShape.CYC_TWIST_EXT))
    assert any("Kummer" in n or "kummer" in n for n in notes)
    notes = classification_notes(
        LocalFactorInput(3, 2, GaloisShape.CYC_TWIST_EXT, ext_nonzero=True)
    )
    assert any("lift" in n for n in notes)
    assert classification_notes(LocalFactorInput(5, 2, GaloisShape.IRREDUCIBLE)) == ()


KUMMER_NOTE = (
    "ell = 2: the extension space is two dimensional and the class is "
    "carried along a Kummer-theory identification; the descriptor only "
    "records split vs non-split"
)
LIFTS_NOTE = (
    "the factor is defined directly from the Galois datum and is not "
    "determined by the factors of its lifts"
)


def test_every_notes_tuple():
    flags = ((False, False), (True, False), (False, True))
    # only the cyclotomic-twist line has notes: q = -1 for every flag pair,
    # q = 1 (not also -1) unless split, and the Kummer note first at ell = 2
    want = {
        **{(2, 1, *fl): (KUMMER_NOTE, LIFTS_NOTE) for fl in flags},
        **{(ell, ell - 1, *fl): (LIFTS_NOTE,) for ell in (3, 5, 7) for fl in flags},
        **{(ell, 1, False, ext): (LIFTS_NOTE,) for ell in (3, 5, 7) for ext in (False, True)},
    }
    for ell in (2, 3, 5, 7):
        for q_mod in range(1, ell):
            for shape in GaloisShape:
                for split, ext_nonzero in flags:
                    notes = classification_notes(
                        LocalFactorInput(ell, q_mod, shape, split, ext_nonzero)
                    )
                    key = (ell, q_mod, split, ext_nonzero)
                    expected = want.get(key, ()) if shape is GaloisShape.CYC_TWIST_EXT else ()
                    assert notes == expected, (key, shape)
