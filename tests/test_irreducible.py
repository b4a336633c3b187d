import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from serreweights.errors import InvalidNiveauTwo
from serreweights.irreducible import (
    NiveauTwoDatum,
    frobenius_datum,
    frobenius_labeled,
    injectivity_witness,
    labeled_count_formula,
    labeled_weight_set,
    missing_class,
    niveau_two,
    projection_is_injective,
    twist_datum,
    weight_set,
)
from serreweights.modarith import FieldParams, subsets, window_top
from serreweights.weights import LabeledWeight, canonical_weight, twist_weight

from oracles import (
    as_labeled_set,
    brute_injectivity_witness,
    brute_labeled_irred,
    complement_label,
    conjugate_datum,
    forced_labeled_irred,
    project_weights,
    window_values,
)

FULL_RANGES = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1)]
FAST_RANGES = FULL_RANGES + [(2, 4), (5, 2), (11, 1), (13, 1)]


def _valid_ns(p: FieldParams):
    return (n for n in range(p.m_big) if n % p.m_plus != 0)


def test_datum_validation():
    p = FieldParams(3, 1)
    with pytest.raises(InvalidNiveauTwo):
        niveau_two(p, 4)  # divisible by q+1 = 4
    with pytest.raises(InvalidNiveauTwo):
        niveau_two(p, 0)
    with pytest.raises(InvalidNiveauTwo):
        NiveauTwoDatum(p, 9)  # non-canonical: 9 >= m_big = 8
    assert niveau_two(p, 9).n == 1  # the constructor reduces first


def test_frozen_examples():
    p3 = FieldParams(3, 1)
    d = niveau_two(p3, 2)
    expected = {
        LabeledWeight(canonical_weight(0, (2,), p3), 0b1),
        LabeledWeight(canonical_weight(1, (2,), p3), 0b0),
    }
    assert labeled_weight_set(d) == expected

    p2 = FieldParams(2, 1)
    d = niveau_two(p2, 1)
    expected = {
        LabeledWeight(canonical_weight(0, (1,), p2), 0b1),
        LabeledWeight(canonical_weight(0, (2,), p2), 0b0),
    }
    assert labeled_weight_set(d) == expected

    d = niveau_two(p3, 1)
    assert {str(V) for V in weight_set(d)} == {"V[0 ; 1]", "V[0 ; 3]"}


def test_missing_class_is_the_unique_gap():
    """Window values hit every class mod q+1 except one, the window top + 1."""
    for ell, f in [(2, 2), (3, 1), (3, 2), (5, 1)]:
        p = FieldParams(ell, f)
        for B in subsets(f):
            classes = {v % p.m_plus for v in window_values(B, p)}
            assert len(classes) == p.q  # all distinct, window has q = m_plus - 1 values
            gap = missing_class(B, p) % p.m_plus
            assert gap not in classes
            assert gap == (window_top(B, p) + 1) % p.m_plus


@pytest.mark.parametrize("ell,f", FULL_RANGES)
def test_labeled_set_matches_oracle(ell, f):
    p = FieldParams(ell, f)
    for n in _valid_ns(p):
        got = labeled_weight_set(niveau_two(p, n))
        want = as_labeled_set(brute_labeled_irred(ell, f, n), p)
        assert got == want, (ell, f, n)


@pytest.mark.parametrize("ell,f", FULL_RANGES)
def test_forced_oracle_matches_brute_oracle(ell, f):
    p = FieldParams(ell, f)
    for n in _valid_ns(p):
        assert forced_labeled_irred(ell, f, n) == brute_labeled_irred(ell, f, n), (ell, f, n)


# q^2 - 1 is 0.9997 * 2^62 for both: the top of the accepted range
@pytest.mark.parametrize("ell,f", [(2**31 - 1, 1), (46337, 2)])
def test_labeled_set_exact_at_top_of_range(ell, f):
    """Data built from extreme triples (digits all 1 or all ell, a = 0 or
    q-2) on every subset; every returned triple is checked against the
    defining congruence in Python ints."""
    p = FieldParams(ell, f)
    q, big = p.q, p.m_big
    for B in subsets(f):
        for b in [(1,) * f, (ell,) * f, (ell,) + (1,) * (f - 1)]:
            s = sum(bi * ell ** (i if B >> i & 1 else f + i) for i, bi in enumerate(b))
            for a in (0, q - 2):
                n = (a * (q + 1) + s) % big
                if n % p.m_plus == 0:
                    continue
                d = niveau_two(p, n)
                triples = [(lw.weight.a, lw.weight.b, lw.B) for lw in labeled_weight_set(d)]
                assert (a, b, B) in triples
                assert len(set(triples)) == len(triples) == labeled_count_formula(d)
                for ta, tb, tB in triples:
                    ts = sum(bi * ell ** (i if tB >> i & 1 else f + i) for i, bi in enumerate(tb))
                    assert (ta * (q + 1) + ts - n) % big == 0, (n, ta, tb, tB)


def test_labeled_set_matches_oracle_sampled_5_2():
    p = FieldParams(5, 2)
    for n in range(1, p.m_big, 7):
        if n % p.m_plus == 0:
            continue
        got = labeled_weight_set(niveau_two(p, n))
        want = as_labeled_set(brute_labeled_irred(5, 2, n), p)
        assert got == want, n


@pytest.mark.parametrize("ell,f", FAST_RANGES)
def test_count_formula_matches_enumeration(ell, f):
    p = FieldParams(ell, f)
    for n in _valid_ns(p):
        d = niveau_two(p, n)
        assert len(labeled_weight_set(d)) == labeled_count_formula(d), (ell, f, n)


@pytest.mark.parametrize("ell,f", FAST_RANGES)
def test_injectivity_criterion_matches_enumeration(ell, f):
    p = FieldParams(ell, f)
    for n in _valid_ns(p):
        d = niveau_two(p, n)
        lab = labeled_weight_set(d)
        enum_injective = len(weight_set(d)) == len(lab)
        assert projection_is_injective(d) == enum_injective, (ell, f, n)
        w = injectivity_witness(d)
        if w is not None:
            r, m = w
            assert 0 <= r < 2 * f
            assert (pow(ell, r, p.m_plus) * n - m) % p.m_plus == 0
            bound = ell * (ell ** (f - 2) - 1) // (ell - 1) if f >= 2 else -1
            assert abs(m) <= bound


# f = 1 and f = 2 (where the witness bound is 0), ell = 2, and wider bounds
WITNESS_FIELDS = [(2, 1), (3, 1), (13, 1), (2, 2), (5, 2), (11, 2), (2, 5), (7, 3), (13, 3)]


@pytest.mark.parametrize("ell,f", WITNESS_FIELDS)
def test_injectivity_witness_matches_oracle(ell, f):
    """The O(f) centred-residue search returns the double loop's exact (r, m)
    on every class mod q+1, and on a lift of each class."""
    p = FieldParams(ell, f)
    for r in range(1, p.m_plus):
        for n in (r, r + p.m_plus * (r % p.q)):
            want = brute_injectivity_witness(n, ell, f, p.m_plus, 2 * f)
            assert injectivity_witness(niveau_two(p, n)) == want, (ell, f, n)


def test_injectivity_vacuous_for_f_at_most_2():
    # f = 1: no small classes at all; f = 2: only m = 0
    for ell in (2, 3, 5, 7, 11, 13):
        p = FieldParams(ell, 1)
        assert all(projection_is_injective(niveau_two(p, n)) for n in _valid_ns(p))
    # f = 2: the only small class is 0, so failures are n with q+1 | ell^r n
    p = FieldParams(3, 2)
    fails = {n for n in _valid_ns(p) if not projection_is_injective(niveau_two(p, n))}
    want = set()
    for n in _valid_ns(p):
        d = niveau_two(p, n)
        if len(weight_set(d)) < len(labeled_weight_set(d)):
            want.add(n)
    assert fails == want


def test_worked_example_f3():
    """f = 3, n = 1: eight labeled weights, six distinct, two stated triples."""
    ell = 3
    p = FieldParams(ell, 3)
    d = niveau_two(p, 1)
    lab = labeled_weight_set(d)
    assert len(lab) == 8
    assert len(weight_set(d)) == 6
    a = (-(ell**2)) % p.m_minus
    b = (1, ell, 1)
    hits = {lw.B for lw in lab if lw.weight.a == a and lw.weight.b == b}
    assert {0b011, 0b101} <= hits


@pytest.mark.parametrize("ell,f", [(3, 2), (5, 1), (2, 3)])
def test_symmetries_exhaustive(ell, f):
    p = FieldParams(ell, f)
    for n in _valid_ns(p):
        d = niveau_two(p, n)
        lab = labeled_weight_set(d)
        # conjugation: n -> q n, labels complemented, same weights
        dc = conjugate_datum(d)
        assert dc.n == (p.q * n) % p.m_big
        assert labeled_weight_set(dc) == {complement_label(lw) for lw in lab}
        assert weight_set(dc) == weight_set(d)
        # frobenius: n -> ell n, weights shifted
        df = frobenius_datum(d)
        assert labeled_weight_set(df) == {frobenius_labeled(lw) for lw in lab}
        # twist: n -> n + c (q+1), weights twisted by c
        dt = twist_datum(d, 1)
        assert labeled_weight_set(dt) == {
            LabeledWeight(twist_weight(lw.weight, 1), lw.B) for lw in lab
        }


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from([(2, 2), (2, 3), (3, 2), (5, 1), (7, 1), (13, 1)]),
    st.integers(min_value=1, max_value=10**9),
    st.integers(min_value=-50, max_value=50),
)
def test_twist_and_frobenius_composition(params, seed, c):
    ell, f = params
    p = FieldParams(ell, f)
    n = seed % p.m_big
    if n % p.m_plus == 0:
        n = (n + 1) % p.m_big
    d = niveau_two(p, n)
    # 2f frobenius shifts return to the start (ell^2f = 1 mod q^2 - 1)
    e = d
    for _ in range(2 * f):
        e = frobenius_datum(e)
    assert e == d
    # twisting by c then -c is the identity
    assert twist_datum(twist_datum(d, c), -c) == d
    # conjugation is an involution
    assert conjugate_datum(conjugate_datum(d)) == d
