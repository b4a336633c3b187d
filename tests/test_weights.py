import ast
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import serreweights
from serreweights.errors import BadWeightDigits
from serreweights.modarith import FieldParams
from serreweights.weights import (
    LabeledWeight,
    SerreWeight,
    canonical_weight,
    central_character_exponent,
    det_exponent,
    format_weight_set,
    labeled_rows,
    twist_weight,
    weight_sort_key,
    weight_to_dict,
)

from oracles import weight_from_dict


@pytest.mark.parametrize("ell,f", [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1)])
def test_weight_count(ell, f):
    """Exactly (q-1) q distinct weights (one residue a, one digit vector b)."""
    p = FieldParams(ell, f)
    m = max(p.m_minus, 1)
    all_weights = {
        canonical_weight(a, b, p)
        for a in range(m)
        for b in itertools.product(range(1, ell + 1), repeat=f)
    }
    assert len(all_weights) == m * p.q


def test_digit_validation():
    p = FieldParams(3, 2)
    with pytest.raises(BadWeightDigits):
        canonical_weight(0, (0, 1), p)
    with pytest.raises(BadWeightDigits):
        canonical_weight(0, (4, 1), p)
    with pytest.raises(BadWeightDigits):
        canonical_weight(0, (1,), p)  # wrong length


def test_display_format():
    V = canonical_weight(7, (1, 3), FieldParams(3, 2))
    assert str(V) == "V[1,2 ; 1,3]"  # 7 = 1 + 2*3 in base 3
    W = canonical_weight(0, (2,), FieldParams(3, 1))
    assert str(W) == "V[0 ; 2]"
    lw = LabeledWeight(W, 0b1)
    assert "V[0 ; 2]" in str(lw)


def test_twist_group_action():
    p = FieldParams(5, 2)
    V = canonical_weight(3, (2, 5), p)
    m = p.m_minus
    assert twist_weight(V, 0) == V
    assert twist_weight(twist_weight(V, 7), 9) == twist_weight(V, 16 % m)
    assert twist_weight(V, m) == V
    assert twist_weight(V, 1).a == 4
    assert twist_weight(V, 1).b == V.b


def test_character_exponents_frozen():
    p = FieldParams(3, 1)
    V = canonical_weight(0, (2,), p)
    # det: 2a + sum b_i ell^i = 2 = 0 mod 2; central: subtract cyclotomic 1
    assert det_exponent(V) == 0
    assert central_character_exponent(V) == 1
    p2 = FieldParams(5, 1)
    W = canonical_weight(1, (3,), p2)
    assert det_exponent(W) == (2 + 3) % 4
    assert central_character_exponent(W) == (2 + 3 - 1) % 4


def test_sort_key_and_set_format():
    p = FieldParams(5, 1)
    vs = [
        canonical_weight(3, (1,), p),
        canonical_weight(0, (3,), p),
        canonical_weight(3, (5,), p),
    ]
    assert sorted(vs, key=weight_sort_key) == vs
    assert format_weight_set(vs) == "{V[3 ; 1], V[0 ; 3], V[3 ; 5]}"
    assert format_weight_set([]) == "{}"


def test_json_round_trip():
    p = FieldParams(7, 2)
    V = canonical_weight(11, (4, 7), p)
    d = weight_to_dict(V)
    assert d == {"ell": 7, "f": 2, "a": 11, "b": [4, 7]}
    assert weight_from_dict(d) == V
    with pytest.raises(BadWeightDigits):
        weight_from_dict({"ell": 7, "f": 2, "a": 11, "b": [0, 7]})


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([(2, 2), (3, 1), (3, 2), (5, 1), (7, 1)]),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=-100, max_value=100),
    st.data(),
)
def test_twist_shifts_det_exponent(params, a, c, data):
    ell, f = params
    p = FieldParams(ell, f)
    b = tuple(data.draw(st.integers(min_value=1, max_value=ell)) for _ in range(f))
    V = canonical_weight(a, b, p)
    m = max(p.m_minus, 1)
    W = twist_weight(V, c)
    assert det_exponent(W) == (det_exponent(V) + 2 * c) % m
    assert central_character_exponent(W) == (central_character_exponent(V) + 2 * c) % m
    assert weight_from_dict(weight_to_dict(W)) == W


def test_digit_errors_name_the_first_offending_digit():
    p = FieldParams(3, 3)
    with pytest.raises(BadWeightDigits, match=r"^digit 0 outside 1\.\.3$"):
        canonical_weight(0, (2, 0, 5), p)
    with pytest.raises(BadWeightDigits, match=r"^digit 4 outside 1\.\.3$"):
        canonical_weight(0, (3, 4, 0), p)


def test_labeled_rows_checks_and_orders_triples():
    p = FieldParams(3, 2)  # q - 1 = 8, digit codes 0..8
    rows = labeled_rows(np.array([5, 1, 1, 5]), np.array([3, 3, 0, 3]), np.array([2, 1, 0, 0]), p)
    # output order is by b (b_0 first), then a, then B; codes 0 -> (1,1), 3 -> (1,2)
    assert rows.a.tolist() == [1, 1, 5, 5]
    assert rows.b.tolist() == [[1, 1], [1, 2], [1, 2], [1, 2]]
    assert rows.B.tolist() == [0, 1, 0, 2]
    assert rows.first.tolist() == [True, True, True, False]
    with pytest.raises(BadWeightDigits, match="a = 8 not canonical mod 8"):
        labeled_rows(np.array([8]), np.array([0]), np.array([0]), p)
    with pytest.raises(BadWeightDigits, match="digit code 9"):
        labeled_rows(np.array([0]), np.array([9]), np.array([0]), p)
    with pytest.raises(AssertionError, match="pairwise distinct"):
        labeled_rows(np.array([1, 1]), np.array([4, 4]), np.array([3, 3]), p)


def test_recipe_checks_survive_python_O():
    # python -O strips assert statements; these checks are explicit raises
    script = """
import numpy as np
from serreweights import reducible as red
from serreweights.modarith import FieldParams, small_residue_witness
from serreweights.weights import labeled_weights

p = FieldParams(3, 1)
try:
    labeled_weights(np.array([0, 0]), np.array([1, 1]), np.array([0, 0]), p)
except AssertionError as exc:
    print("duplicate:", exc)
red.dimension_rule = lambda *case: (0, False)  # nothing decided, nothing certain
try:
    red.weight_sets_partial(red.niveau_one(p, 1, 0, red.ExtClass.NONSPLIT_UNKNOWN))
except AssertionError as exc:
    print("certain:", exc)
try:
    small_residue_witness(1, 3, 4, 24, 1)  # modulus 24 is twice the bound 3 + 9
except AssertionError as exc:
    print("witness:", exc)
"""
    src = str(Path(serreweights.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out == (
        "duplicate: labeled elements must be pairwise distinct\n"
        "certain: the full-label weight always contributes\n"
        "witness: small residues must be distinct\n"
    )


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so the package raises AssertionError
    root = Path(serreweights.__file__).resolve().parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(root.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
