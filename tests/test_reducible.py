import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from serreweights.errors import NotInLabeledSet, ParamError, WrongExtClass
from serreweights.modarith import FieldParams, subsets
from serreweights.reducible import (
    DimReport,
    ExtClass,
    ReducibleDatum,
    dim_report,
    doubled_class,
    frobenius_datum,
    frobenius_labeled,
    h1_dim,
    injectivity_witness,
    is_generic,
    labeled_count_formula,
    labeled_weight_set,
    niveau_one,
    projection_is_injective,
    twist_datum,
    weight_set_split,
    weight_sets_partial,
)
from serreweights.weights import LabeledWeight, canonical_weight, twist_weight

from oracles import (
    as_labeled_set,
    brute_injectivity_witness,
    brute_is_generic,
    brute_labeled_red,
    complement_label,
    forced_labeled_red,
    swap_datum,
    window_values,
)

FULL_RANGES = [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1), (7, 1)]


def _pairs(p: FieldParams):
    m = max(p.m_minus, 1)
    return itertools.product(range(m), range(m))


def test_datum_validation():
    p = FieldParams(3, 1)
    with pytest.raises(ParamError):
        ReducibleDatum(p, 2, 0, ExtClass.SPLIT)  # 2 not canonical mod 2
    d = niveau_one(p, 5, -1, ExtClass.SPLIT)  # constructor reduces
    assert (d.n1, d.n2) == (1, 1)
    assert d.n == 0


def test_frozen_labeled_sizes():
    assert len(labeled_weight_set(niveau_one(FieldParams(3, 1), 1, 0, ExtClass.SPLIT))) == 4
    assert len(labeled_weight_set(niveau_one(FieldParams(5, 1), 2, 0, ExtClass.SPLIT))) == 2
    assert len(labeled_weight_set(niveau_one(FieldParams(2, 2), 0, 0, ExtClass.SPLIT))) == 8


def test_frozen_split_sets():
    d = niveau_one(FieldParams(3, 1), 0, 0, ExtClass.SPLIT)
    assert {str(V) for V in weight_set_split(d)} == {"V[0 ; 2]"}
    d = niveau_one(FieldParams(5, 1), 1, 0, ExtClass.SPLIT)
    assert {str(V) for V in weight_set_split(d)} == {"V[0 ; 1]", "V[0 ; 5]", "V[1 ; 3]"}


def test_frozen_partial_sets():
    d = niveau_one(FieldParams(5, 1), 2, 0, ExtClass.NONSPLIT_UNKNOWN)
    certain, possible = weight_sets_partial(d)
    assert {str(V) for V in certain} == {"V[0 ; 2]"}
    assert {str(V) for V in possible} == {"V[2 ; 2]"}

    # cyclotomic ratio at ell = 5: only the top-digit weight is certain
    d = niveau_one(FieldParams(5, 1), 1, 0, ExtClass.NONSPLIT_UNKNOWN)
    certain, possible = weight_sets_partial(d)
    assert {str(V) for V in certain} == {"V[0 ; 5]"}
    assert {str(V) for V in possible} == {"V[0 ; 1]", "V[1 ; 3]"}

    # trivial ratio: certain nonempty even though one label is undecidable
    d = niveau_one(FieldParams(5, 1), 0, 0, ExtClass.NONSPLIT_UNKNOWN)
    certain, possible = weight_sets_partial(d)
    assert {str(V) for V in certain} == {"V[0 ; 4]"}
    assert possible == frozenset()


def test_ext_class_gating():
    split = niveau_one(FieldParams(3, 1), 1, 0, ExtClass.SPLIT)
    unknown = niveau_one(FieldParams(3, 1), 1, 0, ExtClass.NONSPLIT_UNKNOWN)
    with pytest.raises(WrongExtClass):
        weight_set_split(unknown)
    with pytest.raises(WrongExtClass, match="partial_rows requires a non-split datum"):
        weight_sets_partial(split)


def test_h1_dim_frozen():
    assert h1_dim(niveau_one(FieldParams(2, 1), 0, 0, ExtClass.NONSPLIT_UNKNOWN)) == 3
    p5 = FieldParams(5, 1)
    dims = [h1_dim(niveau_one(p5, n, 0, ExtClass.NONSPLIT_UNKNOWN)) for n in range(4)]
    assert dims == [2, 2, 1, 1]  # n = 0 trivial, n = 1 cyclotomic
    p22 = FieldParams(2, 2)
    assert h1_dim(niveau_one(p22, 0, 0, ExtClass.NONSPLIT_UNKNOWN)) == 4


def test_dim_report_branches():
    p = FieldParams(2, 2)
    d = niveau_one(p, 0, 0, ExtClass.NONSPLIT_UNKNOWN)
    reps = {}
    for lw in labeled_weight_set(d):
        reps[(str(lw.weight), lw.B)] = dim_report(lw, d)
    full = 0b11
    # all-ell digits: decided, one extra dimension over the trivial +1
    r = reps[("V[0,0 ; 2,2]", 0)]
    assert (r.j_size, r.delta, r.decidable, r.dim) == (0, 2, True, 2)
    r = reps[("V[0,0 ; 2,2]", full)]
    assert (r.j_size, r.delta, r.decidable, r.dim) == (2, 2, True, 4)
    # full label, plain digits: decided
    r = reps[("V[0,0 ; 1,1]", full)]
    assert (r.j_size, r.delta, r.decidable, r.dim) == (2, 1, True, 3)
    # proper label, plain digits: genuinely undecided
    r = reps[("V[0,0 ; 1,1]", 0)]
    assert not r.decidable
    assert r.dim_bounds == (1, 2)
    with pytest.raises(ValueError):
        r.dim

    # cyclotomic ratio, odd ell: the all-ell full-label weight is decided
    p5 = FieldParams(5, 1)
    d5 = niveau_one(p5, 1, 0, ExtClass.NONSPLIT_UNKNOWN)
    lw = next(
        x for x in labeled_weight_set(d5) if str(x.weight) == "V[0 ; 5]" and x.B == 0b1
    )
    r = dim_report(lw, d5)
    assert (r.delta, r.decidable, r.dim) == (1, True, 2)


def test_dim_report_membership_guard():
    p = FieldParams(5, 1)
    d = niveau_one(p, 2, 0, ExtClass.NONSPLIT_UNKNOWN)
    stranger = LabeledWeight(canonical_weight(1, (1,), p), 0b1)
    with pytest.raises(NotInLabeledSet):
        dim_report(stranger, d)


@pytest.mark.parametrize("ell,f", FULL_RANGES)
def test_labeled_set_matches_oracle(ell, f):
    p = FieldParams(ell, f)
    for n1, n2 in _pairs(p):
        d = niveau_one(p, n1, n2, ExtClass.SPLIT)
        got = labeled_weight_set(d)
        want = as_labeled_set(brute_labeled_red(ell, f, n1, n2), p)
        assert got == want, (ell, f, n1, n2)


@pytest.mark.parametrize("ell,f", FULL_RANGES)
def test_forced_oracle_matches_brute_oracle(ell, f):
    for n1, n2 in _pairs(FieldParams(ell, f)):
        assert forced_labeled_red(ell, f, n1, n2) == brute_labeled_red(ell, f, n1, n2), (ell, f, n1, n2)


# q^2 - 1 is 0.9997 * 2^62 for both: the top of the accepted range
@pytest.mark.parametrize("ell,f", [(2**31 - 1, 1), (46337, 2)])
def test_labeled_set_exact_at_top_of_range(ell, f):
    """Split data built from extreme triples (digits all 1 or all ell,
    a = 0 or q-2) on every subset; every returned triple is checked against
    both defining congruences in Python ints."""
    p = FieldParams(ell, f)
    m = p.m_minus

    def parts(b, B):
        s_in = sum(bi * ell**i for i, bi in enumerate(b) if B >> i & 1)
        return s_in, sum(bi * ell**i for i, bi in enumerate(b)) - s_in

    for B in subsets(f):
        for b in [(1,) * f, (ell,) * f, (ell,) + (1,) * (f - 1)]:
            s_in, s_out = parts(b, B)
            for a in (0, p.q - 2):
                d = niveau_one(p, a + s_in, a + s_out, ExtClass.SPLIT)
                triples = [(lw.weight.a, lw.weight.b, lw.B) for lw in labeled_weight_set(d)]
                assert (a, b, B) in triples
                assert len(set(triples)) == len(triples) == labeled_count_formula(d)
                for ta, tb, tB in triples:
                    t_in, t_out = parts(tb, tB)
                    assert (ta + t_in - d.n1) % m == 0 and (ta + t_out - d.n2) % m == 0


@pytest.mark.parametrize("ell,f", FULL_RANGES + [(2, 3), (5, 2), (11, 1), (13, 1)])
def test_count_formula_matches_enumeration(ell, f):
    p = FieldParams(ell, f)
    m = max(p.m_minus, 1)
    for n in range(m):
        d = niveau_one(p, n, 0, ExtClass.SPLIT)
        assert len(labeled_weight_set(d)) == labeled_count_formula(d), (ell, f, n)


def test_count_depends_only_on_ratio():
    p = FieldParams(5, 2)
    for n1, n2 in itertools.product(range(0, 24, 5), repeat=2):
        d = niveau_one(p, n1, n2, ExtClass.SPLIT)
        ref = niveau_one(p, d.n, 0, ExtClass.SPLIT)
        assert labeled_count_formula(d) == len(labeled_weight_set(ref))


@pytest.mark.parametrize("ell,f", FULL_RANGES + [(2, 3), (5, 2), (11, 1), (13, 1)])
def test_injectivity_criterion_matches_enumeration(ell, f):
    p = FieldParams(ell, f)
    m = max(p.m_minus, 1)
    for n in range(m):
        d = niveau_one(p, n, 0, ExtClass.SPLIT)
        lab = labeled_weight_set(d)
        distinct = {lw.weight for lw in lab}
        assert projection_is_injective(d) == (len(distinct) == len(lab)), (ell, f, n)
        w = injectivity_witness(d)
        if w is not None:
            r, mm = w
            assert 0 <= r < f
            assert (pow(ell, r, m) * n - mm) % m == 0


# f = 1 and f = 2 (where the witness bound is 0), ell = 2, and wider bounds
WITNESS_FIELDS = [(2, 1), (3, 1), (13, 1), (2, 2), (5, 2), (11, 2), (2, 5), (7, 3), (13, 3)]


@pytest.mark.parametrize("ell,f", WITNESS_FIELDS)
def test_injectivity_witness_matches_oracle(ell, f):
    """The O(f) centred-residue search returns the double loop's exact (r, m)
    on every ratio class (for ell = 2, f = 1 the modulus q-1 is 1)."""
    p = FieldParams(ell, f)
    m = max(p.m_minus, 1)
    for n in range(m):
        want = brute_injectivity_witness(n, ell, f, m, f)
        assert injectivity_witness(niveau_one(p, n, 0, ExtClass.SPLIT)) == want, (ell, f, n)


def test_trivial_ratio_always_collides():
    """n = 0 is never injective: the witness (0, 0) always applies."""
    for ell, f in FULL_RANGES:
        d = niveau_one(FieldParams(ell, f), 0, 0, ExtClass.SPLIT)
        assert injectivity_witness(d) == (0, 0)
        assert not projection_is_injective(d)


def test_doubled_class_counts_two_window_solutions():
    for ell, f in [(2, 2), (3, 1), (3, 2), (5, 1)]:
        p = FieldParams(ell, f)
        m = max(p.m_minus, 1)
        for B in subsets(f):
            per_class = {}
            for v in window_values(B, p):
                per_class[v % m] = per_class.get(v % m, 0) + 1
            dbl = doubled_class(B, p) % m
            for c, k in per_class.items():
                assert k == (2 if c == dbl else 1), (ell, f, B, c)


def test_is_generic():
    assert is_generic(niveau_one(FieldParams(5, 1), 2, 0, ExtClass.SPLIT))
    assert not is_generic(niveau_one(FieldParams(5, 1), 1, 0, ExtClass.SPLIT))
    assert not is_generic(niveau_one(FieldParams(5, 1), 3, 0, ExtClass.SPLIT))
    assert not is_generic(niveau_one(FieldParams(3, 2), 5, 0, ExtClass.SPLIT))
    assert is_generic(niveau_one(FieldParams(7, 1), 2, 0, ExtClass.SPLIT))
    # ell = 7, f = 2: digits (2, 5) are interior and not constant
    assert is_generic(niveau_one(FieldParams(7, 2), 2 + 5 * 7, 0, ExtClass.SPLIT))
    assert not is_generic(niveau_one(FieldParams(7, 2), 1 + 1 * 7, 0, ExtClass.SPLIT))


@pytest.mark.parametrize(
    "ell,f",
    [(2, 1), (2, 4), (3, 1), (3, 3), (5, 1), (5, 3), (7, 1), (7, 3), (11, 2), (13, 2), (13, 3)],
)
def test_is_generic_matches_oracle(ell, f):
    """The digit test agrees with enumerating every interior digit vector,
    on every ratio class; for ell = 2 and ell = 3 it is always False."""
    p = FieldParams(ell, f)
    for n in range(max(p.m_minus, 1)):
        want = brute_is_generic(ell, f, n)
        assert is_generic(niveau_one(p, n, 0, ExtClass.SPLIT)) == want, (ell, f, n)
        if ell <= 3:
            assert not want


@pytest.mark.parametrize("ell,f", [(3, 2), (5, 1), (2, 2)])
def test_symmetries_exhaustive(ell, f):
    p = FieldParams(ell, f)
    for n1, n2 in _pairs(p):
        d = niveau_one(p, n1, n2, ExtClass.SPLIT)
        lab = labeled_weight_set(d)
        ds = swap_datum(d)
        assert (ds.n1, ds.n2) == (d.n2, d.n1)
        assert labeled_weight_set(ds) == {complement_label(lw) for lw in lab}
        assert weight_set_split(ds) == weight_set_split(d)
        df = frobenius_datum(d)
        assert labeled_weight_set(df) == {frobenius_labeled(lw) for lw in lab}
        dt = twist_datum(d, 1)
        assert labeled_weight_set(dt) == {
            LabeledWeight(twist_weight(lw.weight, 1), lw.B) for lw in lab
        }


def test_certain_lies_inside_split_set():
    for ell, f in [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1), (7, 1)]:
        p = FieldParams(ell, f)
        for n1, n2 in _pairs(p):
            du = niveau_one(p, n1, n2, ExtClass.NONSPLIT_UNKNOWN)
            ds = niveau_one(p, n1, n2, ExtClass.SPLIT)
            certain, possible = weight_sets_partial(du)
            split_set = weight_set_split(ds)
            assert certain, (ell, f, n1, n2)
            assert certain <= split_set
            assert certain | possible == split_set


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from([(2, 2), (3, 1), (3, 2), (5, 1), (5, 2), (7, 1)]),
    st.integers(min_value=0, max_value=10**9),
    st.integers(min_value=0, max_value=10**9),
    st.integers(min_value=-30, max_value=30),
)
def test_symmetry_composition(params, s1, s2, c):
    ell, f = params
    p = FieldParams(ell, f)
    m = max(p.m_minus, 1)
    d = niveau_one(p, s1 % m, s2 % m, ExtClass.SPLIT)
    assert swap_datum(swap_datum(d)) == d
    assert twist_datum(twist_datum(d, c), -c) == d
    e = d
    for _ in range(f):
        e = frobenius_datum(e)
    assert e == d
    # DimReport bounds are consistent
    du = niveau_one(p, d.n1, d.n2, ExtClass.NONSPLIT_UNKNOWN)
    for lw in labeled_weight_set(du):
        rep = dim_report(lw, du)
        lo, hi = rep.dim_bounds
        assert lo <= hi
        if rep.decidable:
            assert (lo, hi) == (rep.dim, rep.dim)
        assert isinstance(rep, DimReport)
