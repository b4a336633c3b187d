import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from serreweights.errors import ParamError
from serreweights.modarith import (
    MAX_SUBSET_F,
    FieldParams,
    check_subset_limit,
    digits_base_ell,
    is_prime,
    subset_complement,
    subset_indices,
    subsets,
    window_top,
    witness_bound,
)

from oracles import (
    frobenius_shift,
    signed_digit_solve,
    signed_digit_sum,
    subset_from_indices,
    window_values,
)

SMALL_PARAMS = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (5, 2), (7, 1)]


def test_is_prime():
    def slow(n):
        return n >= 2 and all(n % k for k in range(2, n))

    for n in range(-2, 300):
        assert is_prime(n) == slow(n), n


def test_field_params_validation():
    for ell in (0, 1, 4, 6, -3, 9):
        with pytest.raises(ParamError):
            FieldParams(ell, 1)
    for f in (0, -1):
        with pytest.raises(ParamError):
            FieldParams(3, f)
    # 3^40 - 1 exceeds the 2^62 cap
    with pytest.raises(ParamError):
        FieldParams(3, 20)
    FieldParams(13, 3)  # fine
    # 2^62 - 1 is the top of the accepted range, on the bit-length bound
    assert FieldParams(2, 31).m_big == 2**62 - 1
    with pytest.raises(ParamError, match="exceeds the 2\\^62 cap at ell = 2, f = 32$"):
        FieldParams(2, 32)


def test_subset_limit_edge():
    check_subset_limit(FieldParams(2, MAX_SUBSET_F))
    with pytest.raises(ParamError, match=f"f <= {MAX_SUBSET_F}"):
        check_subset_limit(FieldParams(2, MAX_SUBSET_F + 1))


def test_moduli_frozen_values():
    p = FieldParams(3, 2)
    assert (p.q, p.m_plus, p.m_minus, p.m_big) == (9, 10, 8, 80)
    assert p.cyclotomic_exponent == 4  # 1 + 3 mod 8
    p = FieldParams(2, 1)
    assert (p.q, p.m_plus, p.m_minus, p.m_big) == (2, 3, 1, 3)
    assert p.cyclotomic_exponent == 0
    p = FieldParams(2, 3)
    assert p.cyclotomic_exponent == 0  # 1+2+4 = 7 = 0 mod 7
    p = FieldParams(5, 1)
    assert p.cyclotomic_exponent == 1


def test_frobenius_shift():
    assert frobenius_shift(3, 1, 3, 8) == 1  # 9 mod 8
    assert frobenius_shift(frobenius_shift(3, 1, 3, 8), -1, 3, 8) == 3
    # shifting f times multiplies by q = 1 mod q-1
    p = FieldParams(5, 2)
    assert frobenius_shift(7, 2, 5, p.m_minus) == 7


@pytest.mark.parametrize("ell,f", SMALL_PARAMS)
def test_digits_base_ell_round_trip(ell, f):
    p = FieldParams(ell, f)
    m = max(p.m_minus, 1)
    for a in range(m):
        d = digits_base_ell(a, p)
        assert len(d) == f
        assert all(0 <= x < ell for x in d)
        assert sum(x * ell**i for i, x in enumerate(d)) % m == a


def test_subset_helpers():
    assert list(subsets(2)) == [0, 1, 2, 3]
    assert subset_indices(0b101, 3) == (0, 2)
    assert subset_from_indices((0, 2), 3) == 0b101
    assert subset_complement(0b101, 3) == 0b010
    for f in range(1, 5):
        for B in subsets(f):
            assert subset_from_indices(subset_indices(B, f), f) == B
            assert subset_complement(subset_complement(B, f), f) == B


@pytest.mark.parametrize("ell,f", SMALL_PARAMS)
def test_window_bijection_exhaustive(ell, f):
    """The signed digit sum maps {1..ell}^f bijectively onto a q-window."""
    import itertools

    p = FieldParams(ell, f)
    for B in subsets(f):
        top = window_top(B, p)
        values = {}
        for b in itertools.product(range(1, ell + 1), repeat=f):
            v = signed_digit_sum(b, B, p)
            assert v not in values, (B, b)
            values[v] = b
        assert len(values) == p.q
        assert max(values) == top
        assert min(values) == top - p.q + 1
        for v, b in values.items():
            assert signed_digit_solve(v, B, p) == b
        assert signed_digit_solve(top + 1, B, p) is None
        assert signed_digit_solve(top - p.q, B, p) is None
        assert sorted(window_values(B, p)) == sorted(values)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([(2, 3), (3, 2), (5, 2), (7, 1), (11, 1), (13, 1)]),
    st.integers(min_value=0),
    st.integers(min_value=-400, max_value=400),
)
def test_window_solve_consistency(params, B_seed, v):
    ell, f = params
    p = FieldParams(ell, f)
    B = B_seed % (1 << f)
    top = window_top(B, p)
    b = signed_digit_solve(v, B, p)
    inside = top - p.q + 1 <= v <= top
    assert (b is not None) == inside
    if b is not None:
        assert signed_digit_sum(b, B, p) == v


def test_witness_bound_below_half_of_both_moduli():
    """2 * bound < q - 1 <= q + 1, so -bound..bound are distinct residues and
    only the centred residue can be a witness; pure arithmetic, no search."""
    for ell in (2, 3, 5, 7, 11, 13):
        for f in range(1, 13):
            bound = witness_bound(ell, f)
            assert bound == sum(ell**i for i in range(1, f - 1))
            q = ell**f
            assert 2 * bound < max(q - 1, 1) < q + 1, (ell, f)
