import itertools

import pytest

from serreweights import global_weights
from serreweights.errors import ParamError, ParamMismatch
from serreweights.global_weights import (
    GlobalDatum,
    check_det_compatibility,
    global_sort_key,
    global_weight_set,
    twist_global,
)
from serreweights.irreducible import niveau_two, weight_set
from serreweights.modarith import FieldParams
from serreweights.reducible import (
    ExtClass,
    niveau_one,
    weight_set_split,
    weight_sets_partial,
)
from serreweights.weights import twist_weight


def _g3():
    p = FieldParams(3, 1)
    return GlobalDatum(
        3,
        (
            niveau_two(p, 1),
            niveau_one(p, 1, 0, ExtClass.NONSPLIT_UNKNOWN),
        ),
    )


def test_validation():
    with pytest.raises(ParamError):
        GlobalDatum(3, ())
    with pytest.raises(ParamMismatch):
        GlobalDatum(3, (niveau_two(FieldParams(5, 1), 1),))
    g = _g3()
    with pytest.raises(ParamMismatch):
        twist_global(g, (1,))  # two primes, one exponent


def test_row_bound_boundary(monkeypatch):
    # _g3 has 2 certain and 6 possible rows: 8 in all, passed at a bound of 8
    monkeypatch.setattr(global_weights, "MAX_GLOBAL_ROWS", 8)
    sets = global_weight_set(_g3())
    assert len(sets.certain) + len(sets.possible) == 8
    monkeypatch.setattr(global_weights, "MAX_GLOBAL_ROWS", 7)
    with pytest.raises(ParamError, match="has 8 rows, over the bound of 7"):
        global_weight_set(_g3())


def test_product_structure():
    g = _g3()
    sets = global_weight_set(g)
    irred_ws = weight_set(g.primes[0])
    certain2, possible2 = weight_sets_partial(g.primes[1])
    assert len(sets.certain) == len(irred_ws) * len(certain2)
    assert len(sets.certain) + len(sets.possible) == len(irred_ws) * (
        len(certain2) + len(possible2)
    )
    assert len(sets.certain) == 2
    assert len(sets.possible) == 6
    for gw in sets.certain | sets.possible:
        assert len(gw) == 2
        assert gw[0] in irred_ws
        assert gw[1] in certain2 | possible2
    assert not sets.certain & sets.possible


def test_split_entries_have_no_possible_part():
    p = FieldParams(5, 1)
    g = GlobalDatum(
        5, (niveau_two(p, 2), niveau_one(p, 2, 0, ExtClass.SPLIT))
    )
    sets = global_weight_set(g)
    assert sets.possible == frozenset()
    assert len(sets.certain) == len(weight_set(g.primes[0])) * len(
        weight_set_split(g.primes[1])
    )


def test_twist_naturality_exhaustive_small():
    """Twisting the datum twists every product weight coordinatewise."""
    p = FieldParams(3, 1)
    m = max(p.m_minus, 1)
    data1 = [niveau_two(p, n) for n in range(1, p.m_big) if n % p.m_plus]
    data2 = [
        niveau_one(p, n1, n2, ext)
        for n1 in range(m)
        for n2 in range(m)
        for ext in (ExtClass.SPLIT, ExtClass.NONSPLIT_UNKNOWN)
    ]
    for d1, d2 in itertools.product(data1, data2):
        g = GlobalDatum(3, (d1, d2))
        base = global_weight_set(g)
        for cs in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1)]:
            tw = global_weight_set(twist_global(g, cs))
            want_certain = {
                tuple(twist_weight(V, c) for V, c in zip(gw, cs)) for gw in base.certain
            }
            want_possible = {
                tuple(twist_weight(V, c) for V, c in zip(gw, cs)) for gw in base.possible
            }
            assert tw.certain == want_certain, (d1, d2, cs)
            assert tw.possible == want_possible, (d1, d2, cs)


def test_det_compatibility_over_family():
    p2 = FieldParams(2, 2)
    p3 = FieldParams(3, 2)
    for g in [
        _g3(),
        GlobalDatum(2, (niveau_two(p2, 1), niveau_one(p2, 2, 1, ExtClass.SPLIT))),
        GlobalDatum(3, (niveau_two(p3, 7),)),
    ]:
        rep = check_det_compatibility(g)
        assert rep.passed
        assert rep.failures == ()


def test_global_sort_key_orders_products():
    g = _g3()
    sets = global_weight_set(g)
    ordered = sorted(sets.certain | sets.possible, key=global_sort_key)
    assert ordered == sorted(ordered, key=global_sort_key)
    assert len(set(map(global_sort_key, ordered))) == len(ordered)
