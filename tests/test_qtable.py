import pytest

from serreweights.errors import IllegalShape
from serreweights.modarith import FieldParams
from serreweights.qtable import (
    RationalShape,
    RationalShapeKind,
    all_legal_shapes,
    crosscheck_niveau2,
    crosscheck_split,
    weights_over_Q,
)
from serreweights.reducible import ExtClass, niveau_one, weight_set_split, weight_sets_partial

ELLS = [2, 3, 5, 7, 11, 13]


def _strs(ws):
    return {str(V) for V in ws}


def test_shape_legality():
    RationalShape(5, 2, RationalShapeKind.NONSPLIT_GENERIC)
    for bad in (
        (5, 0, RationalShapeKind.SPLIT),
        (5, 5, RationalShapeKind.SPLIT),
        (5, 2, RationalShapeKind.PEU),
        (5, 2, RationalShapeKind.TRES),
        (5, 1, RationalShapeKind.NONSPLIT_GENERIC),
        (2, 1, RationalShapeKind.NONSPLIT_GENERIC),
    ):
        with pytest.raises(IllegalShape):
            RationalShape(*bad)
    with pytest.raises(Exception):
        RationalShape(4, 1, RationalShapeKind.SPLIT)  # 4 is not prime


def test_frozen_rows():
    assert _strs(weights_over_Q(RationalShape(5, 3, RationalShapeKind.SPLIT))) == {
        "V[0 ; 3]",
        "V[3 ; 5]",
        "V[3 ; 1]",
    }
    assert _strs(weights_over_Q(RationalShape(5, 1, RationalShapeKind.TRES))) == {"V[0 ; 5]"}
    assert _strs(weights_over_Q(RationalShape(5, 1, RationalShapeKind.PEU))) == {
        "V[0 ; 5]",
        "V[0 ; 1]",
    }
    assert _strs(weights_over_Q(RationalShape(3, 1, RationalShapeKind.SPLIT))) == {
        "V[0 ; 3]",
        "V[0 ; 1]",
        "V[1 ; 3]",
        "V[1 ; 1]",
    }
    # at ell = 2 the split b = 1 row collapses to two weights (a is mod 1)
    assert _strs(weights_over_Q(RationalShape(2, 1, RationalShapeKind.SPLIT))) == {
        "V[0 ; 2]",
        "V[0 ; 1]",
    }
    assert _strs(weights_over_Q(RationalShape(7, 4, RationalShapeKind.NONSPLIT_GENERIC))) == {
        "V[0 ; 4]"
    }
    assert _strs(weights_over_Q(RationalShape(7, 6, RationalShapeKind.SPLIT))) == {"V[0 ; 6]"}


@pytest.mark.parametrize("ell", ELLS)
def test_crosschecks_all_legal_b(ell):
    for b in range(1, ell):
        assert crosscheck_niveau2(ell, b), (ell, b)
        assert crosscheck_split(ell, b), (ell, b)


@pytest.mark.parametrize("ell", ELLS)
def test_table_sandwiched_by_partial_computation(ell):
    """Non-split rows sit between the certain part and the split set."""
    p = FieldParams(ell, 1)
    for shape in all_legal_shapes(ell):
        if shape.kind in (RationalShapeKind.NIVEAU2, RationalShapeKind.SPLIT):
            continue
        table = weights_over_Q(shape)
        certain, _ = weight_sets_partial(
            niveau_one(p, shape.b, 0, ExtClass.NONSPLIT_UNKNOWN)
        )
        split_set = weight_set_split(niveau_one(p, shape.b, 0, ExtClass.SPLIT))
        assert certain <= table <= split_set, (ell, shape)


@pytest.mark.parametrize("ell", ELLS)
def test_tres_inside_peu(ell):
    tres = weights_over_Q(RationalShape(ell, 1, RationalShapeKind.TRES))
    peu = weights_over_Q(RationalShape(ell, 1, RationalShapeKind.PEU))
    assert tres < peu


def test_all_legal_shapes_counts_and_order():
    counts = {ell: len(all_legal_shapes(ell)) for ell in ELLS}
    assert counts == {2: 4, 3: 7, 5: 13, 7: 19, 11: 31, 13: 37}
    # the row count the size bound is checked against
    assert all(count == 3 * ell - 2 for ell, count in counts.items())
    shapes = all_legal_shapes(5)
    assert [s.b for s in shapes] == sorted(s.b for s in shapes)
    # kinds appear in a fixed order within each b
    first_b1 = [s.kind for s in shapes if s.b == 1]
    assert first_b1 == [
        RationalShapeKind.NIVEAU2,
        RationalShapeKind.SPLIT,
        RationalShapeKind.PEU,
        RationalShapeKind.TRES,
    ]
