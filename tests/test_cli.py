"""End-to-end tests of the command line surface.

Every test but the broken-pipe ones drives ``cli.main(argv)`` directly
and checks stdout, stderr, exit codes, and file output.  Expected payloads
are frozen from hand-checked runs so formatting regressions are caught byte
for byte.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from serreweights import cli, global_weights, local_factors, modarith, qtable, sweeps
from serreweights import irreducible as irred
from serreweights import reducible as red
from serreweights.global_weights import global_sort_key, global_weight_set
from serreweights.modarith import MAX_SUBSET_F, FieldParams, subset_indices
from serreweights.weights import format_weight_set, weight_sort_key, weight_to_dict

GOLDEN = Path(__file__).parent / "golden"

QTABLE_PRIMES = [2, 3, 5, 7, 11, 13]


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# irred


def test_irred_json_default(capsys):
    code, out, err = run_cli(capsys, ["irred", "--ell", "3", "--f", "1", "--n", "2"])
    assert code == 0
    assert err == ""
    payload = json.loads(out)
    assert payload == [
        {"ell": 3, "f": 1, "a": 0, "b": [2]},
        {"ell": 3, "f": 1, "a": 1, "b": [2]},
    ]
    # the serializer is pinned to two-space indentation
    assert out.startswith("[\n  {\n    \"ell\": 3,")


def test_irred_labels_json(capsys):
    code, out, _ = run_cli(
        capsys, ["irred", "--ell", "3", "--f", "1", "--n", "2", "--labels"]
    )
    assert code == 0
    assert json.loads(out) == [
        {"weight": {"ell": 3, "f": 1, "a": 0, "b": [2]}, "B": [0]},
        {"weight": {"ell": 3, "f": 1, "a": 1, "b": [2]}, "B": []},
    ]


def test_irred_tsv(capsys):
    code, out, _ = run_cli(
        capsys,
        ["irred", "--ell", "3", "--f", "1", "--n", "2", "--format", "tsv", "--labels"],
    )
    assert code == 0
    assert out == "a\tb\tweight\tB\n0\t2\tV[0 ; 2]\t0\n1\t2\tV[1 ; 2]\t\n"


def test_irred_pretty(capsys):
    code, out, _ = run_cli(
        capsys, ["irred", "--ell", "3", "--f", "1", "--n", "2", "--format", "pretty"]
    )
    assert code == 0
    assert out == (
        "ell=3 f=1 n=2  labeled=2 weights=2 injective=yes\n"
        "  B={0}  V[0 ; 2]\n"
        "  B={}  V[1 ; 2]\n"
        "weights: {V[0 ; 2], V[1 ; 2]}\n"
    )


def test_irred_rejects_niveau_one_exponent(capsys):
    # n = 4 is divisible by q + 1 = 4 at ell = 3, f = 1
    code, out, err = run_cli(capsys, ["irred", "--ell", "3", "--f", "1", "--n", "4"])
    assert code == 1
    assert out == ""
    assert err.startswith("error: InvalidNiveauTwo")


def test_irred_rejects_bad_field(capsys):
    code, _, err = run_cli(capsys, ["irred", "--ell", "4", "--f", "1", "--n", "1"])
    assert code == 1
    assert "error:" in err


# ---------------------------------------------------------------------------
# red


def test_red_unknown_json(capsys):
    code, out, _ = run_cli(
        capsys,
        ["red", "--ell", "5", "--f", "1", "--n1", "2", "--n2", "0", "--ext", "unknown"],
    )
    assert code == 0
    assert json.loads(out) == {
        "certain": [{"ell": 5, "f": 1, "a": 0, "b": [2]}],
        "possible": [{"ell": 5, "f": 1, "a": 2, "b": [2]}],
    }


def _count_decodes(monkeypatch, recipe) -> list:
    calls = []
    real = recipe.class_tables

    def counting(params, classes):
        calls.append(classes)
        return real(params, classes)

    monkeypatch.setattr(recipe, "class_tables", counting)
    return calls


@pytest.mark.parametrize("fmt", ["json", "tsv", "pretty"])
def test_red_unknown_builds_labeled_set_once(capsys, monkeypatch, fmt):
    # one window decode of the datum's class serves the labeled rows, the
    # certain / possible split and the dimension column
    calls = _count_decodes(monkeypatch, red)
    argv = ["red", "--ell", "3", "--f", "2", "--n1", "5", "--n2", "0", "--ext", "unknown"]
    code, _, _ = run_cli(capsys, argv + ["--format", fmt, "--labels"])
    assert code == 0
    assert calls == [[5]]


@pytest.mark.parametrize("fmt", ["json", "tsv", "pretty"])
def test_irred_builds_labeled_set_once(capsys, monkeypatch, fmt):
    calls = _count_decodes(monkeypatch, irred)
    argv = ["irred", "--ell", "3", "--f", "2", "--n", "7"]
    code, _, _ = run_cli(capsys, argv + ["--format", fmt, "--labels"])
    assert code == 0
    assert calls == [[7]]


def test_red_unknown_refuses_triples_off_the_congruences(capsys, monkeypatch):
    # every rendered triple must solve the datum's two congruences
    real = red.labeled_triples

    def shifted(d):
        a, bcode, B = real(d)
        return (a + 1) % d.params.m_minus, bcode, B

    monkeypatch.setattr(red, "labeled_triples", shifted)
    argv = ["red", "--ell", "5", "--f", "2", "--n1", "3", "--n2", "1", "--ext", "unknown"]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: NotInLabeledSet")


def test_red_unknown_pretty_shows_dims(capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "red",
            "--ell", "5", "--f", "1", "--n1", "1", "--n2", "0",
            "--ext", "unknown", "--format", "pretty",
        ],
    )
    assert code == 0
    assert out == (
        "ell=5 f=1 n1=1 n2=0 ext=unknown  labeled=3 h1_dim=2\n"
        "  B={0}  V[0 ; 1]  dim=1\n"
        "  B={}  V[1 ; 3]  dim=0\n"
        "  B={0}  V[0 ; 5]  dim=2\n"
        "certain: {V[0 ; 5]}\n"
        "possible: {V[0 ; 1], V[1 ; 3]}\n"
    )


def test_red_split_pretty(capsys):
    code, out, _ = run_cli(
        capsys,
        ["red", "--ell", "3", "--f", "1", "--n1", "0", "--n2", "0", "--format", "pretty"],
    )
    assert code == 0
    assert out == (
        "ell=3 f=1 n1=0 n2=0 ext=split  labeled=2 weights=1 injective=no\n"
        "  B={}  V[0 ; 2]\n"
        "  B={0}  V[0 ; 2]\n"
        "weights: {V[0 ; 2]}\n"
    )


def test_red_unknown_tsv(capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "red",
            "--ell", "5", "--f", "1", "--n1", "1", "--n2", "0",
            "--ext", "unknown", "--format", "tsv",
        ],
    )
    assert code == 0
    assert out == (
        "part\ta\tb\tweight\n"
        "certain\t0\t5\tV[0 ; 5]\n"
        "possible\t0\t1\tV[0 ; 1]\n"
        "possible\t1\t3\tV[1 ; 3]\n"
    )


def test_red_undecidable_dim_renders_bounds(capsys):
    # (2, 2) with n1 = n2 = 0 has an undecidable slot rendered as a range
    code, out, _ = run_cli(
        capsys,
        [
            "red",
            "--ell", "2", "--f", "2", "--n1", "0", "--n2", "0",
            "--ext", "unknown", "--format", "pretty",
        ],
    )
    assert code == 0
    assert "dim=1..2" in out


def test_single_datum_output_matches_golden_digests(capsys):
    # exit code and stdout sha256 of every argv in the corpus that
    # scripts/single_datum_golden.py writes
    rows = json.loads((GOLDEN / "single_datum.json").read_text(encoding="utf-8"))
    assert len(rows) > 400
    changed = []
    for row in rows:
        code, out, _ = run_cli(capsys, row["argv"])
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        if (code, digest) != (row["exit"], row["sha256"]):
            changed.append(" ".join(row["argv"]))
    assert changed == []


# ---------------------------------------------------------------------------
# an independent oracle for the irred / red renderer

_ORACLE_FIELDS = [(ell, f) for ell in (2, 3, 5, 7, 11, 13) for f in range(1, 5) if ell**f <= 200]


def _cli_stdout(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


def _members(B: int, f: int) -> str:
    return ",".join(map(str, subset_indices(B, f)))


def _oracle_answers(case: str, p: FieldParams, x: int) -> tuple[list[str], dict]:
    """(argv, {(format, labels): stdout}) for one datum, built from the
    library's weight sets with json.dumps and str(SerreWeight)."""
    q, m = p.q, max(p.m_minus, 1)
    if case == "irred":
        n = x % (q * q - 1)
        n += n % (q + 1) == 0  # niveau 2 needs n != 0 mod q+1
        d, recipe = irred.niveau_two(p, n), irred
        argv = ["irred", "--ell", str(p.ell), "--f", str(p.f), "--n", str(n)]
        head = f"ell={p.ell} f={p.f} n={d.n}"
    else:
        ext = red.ExtClass.SPLIT if case == "split" else red.ExtClass.NONSPLIT_UNKNOWN
        d, recipe = red.niveau_one(p, x % m, x // m % m, ext), red
        argv = ["red", "--ell", str(p.ell), "--f", str(p.f), "--n1", str(d.n1), "--n2", str(d.n2)]
        argv += ["--ext", ext.value]
        head = f"ell={p.ell} f={p.f} n1={d.n1} n2={d.n2} ext={ext.value}"
    labeled = sorted(recipe.labeled_weight_set(d), key=lambda lw: (lw.weight.b, lw.weight.a, lw.B))
    labeled_tree = [
        {"weight": weight_to_dict(lw.weight), "B": list(subset_indices(lw.B, p.f))} for lw in labeled
    ]

    def cells(V):
        return f"{V.a}\t{','.join(map(str, V.b))}\t{V}"

    def lines(*parts):
        return "\n".join(parts) + "\n"

    if case == "unknown":
        certain, possible = (sorted(s, key=weight_sort_key) for s in red.weight_sets_partial(d))
        tree = {"certain": list(map(weight_to_dict, certain)), "possible": list(map(weight_to_dict, possible))}
        tsv = lines(
            "part\ta\tb\tweight",
            *(f"certain\t{cells(V)}" for V in certain),
            *(f"possible\t{cells(V)}" for V in possible),
        )
        dims = (red.dim_report(lw, d).dim_bounds for lw in labeled)
        pretty = lines(
            f"{head}  labeled={len(labeled)} h1_dim={red.h1_dim(d)}",
            *(
                f"  B={{{_members(lw.B, p.f)}}}  {lw.weight}  dim={lo}" + (f"..{hi}" if hi != lo else "")
                for lw, (lo, hi) in zip(labeled, dims)
            ),
            f"certain: {format_weight_set(certain)}",
            f"possible: {format_weight_set(possible)}",
        )
        return argv, {
            ("json", False): json.dumps(tree, indent=2) + "\n",
            ("json", True): json.dumps({**tree, "labeled": labeled_tree}, indent=2) + "\n",
            ("tsv", False): tsv,
            ("tsv", True): tsv,
            ("pretty", False): pretty,
            ("pretty", True): pretty,
        }
    weights = sorted({lw.weight for lw in labeled}, key=weight_sort_key)
    injective = "yes" if recipe.projection_is_injective(d) else "no"
    pretty = lines(
        f"{head}  labeled={len(labeled)} weights={len(weights)} injective={injective}",
        *(f"  B={{{_members(lw.B, p.f)}}}  {lw.weight}" for lw in labeled),
        f"weights: {format_weight_set(weights)}",
    )
    return argv, {
        ("json", False): json.dumps(list(map(weight_to_dict, weights)), indent=2) + "\n",
        ("json", True): json.dumps(labeled_tree, indent=2) + "\n",
        ("tsv", False): lines("a\tb\tweight", *map(cells, weights)),
        ("tsv", True): lines(
            "a\tb\tweight\tB", *(f"{cells(lw.weight)}\t{_members(lw.B, p.f)}" for lw in labeled)
        ),
        ("pretty", False): pretty,
        ("pretty", True): pretty,
    }


@settings(max_examples=60, deadline=None)
@given(
    case=st.sampled_from(("irred", "split", "unknown")),
    field=st.sampled_from(_ORACLE_FIELDS),
    x=st.integers(min_value=0, max_value=2**40),
)
@example(case="irred", field=(2, 1), x=1)  # q - 1 = 1: every a is 0
@example(case="split", field=(2, 1), x=0)
@example(case="unknown", field=(2, 1), x=0)
@example(case="unknown", field=(5, 1), x=1)  # a labeled weight with the empty subset
@example(case="unknown", field=(3, 1), x=0)  # no possible weight
@example(case="unknown", field=(2, 2), x=0)  # an undecided dimension, dim=1..2
def test_renderer_matches_library_oracle(case, field, x):
    argv, answers = _oracle_answers(case, FieldParams(*field), x)
    for (fmt, labels), expected in answers.items():
        got = _cli_stdout(argv + ["--format", fmt] + ["--labels"] * labels)
        assert got == expected, (argv, fmt, labels)


def test_renderer_oracle_covers_the_edge_cases():
    # the explicit examples above do reach an empty subset and an empty
    # possible list
    _, answers = _oracle_answers("unknown", FieldParams(5, 1), 1)
    assert "  B={}  " in answers["pretty", False]
    _, answers = _oracle_answers("unknown", FieldParams(3, 1), 0)
    assert json.loads(answers["json", False])["possible"] == []


# ---------------------------------------------------------------------------
# qtable


@pytest.mark.parametrize("ell", QTABLE_PRIMES)
def test_qtable_pretty_matches_golden(capsys, ell):
    golden = (GOLDEN / f"qtable_ell{ell}.txt").read_text(encoding="utf-8")
    code, out, _ = run_cli(capsys, ["qtable", "--ell", str(ell), "--format", "pretty"])
    assert code == 0
    assert out == golden


def test_qtable_spotlight_rows(capsys):
    _, out, _ = run_cli(capsys, ["qtable", "--ell", "5", "--format", "pretty"])
    assert "ell=5 b=3 shape=split weights={V[3 ; 1], V[0 ; 3], V[3 ; 5]}" in out
    assert "ell=5 b=1 shape=tres weights={V[0 ; 5]}" in out


def test_qtable_json_row_count(capsys):
    expected_rows = {2: 4, 3: 7, 5: 13, 7: 19, 11: 31, 13: 37}
    for ell, count in expected_rows.items():
        _, out, _ = run_cli(capsys, ["qtable", "--ell", str(ell)])
        payload = json.loads(out)
        assert len(payload) == count
        assert all(row["ell"] == ell for row in payload)


def test_qtable_rejects_composite(capsys):
    # and every ell below 2, which has no b in range(1, ell) to list
    for ell in ("9", "1", "0", "-7"):
        code, out, err = run_cli(capsys, ["qtable", "--ell", ell])
        assert code == 1
        assert out == ""
        assert f"ell = {ell} is not prime" in err


def test_qtable_refuses_a_huge_ell_before_any_row(capsys, monkeypatch):
    # building a row fails the test instead of spinning through 2^31 of them
    def no_row(*args):
        raise RuntimeError("a qtable row was built")

    monkeypatch.setattr(qtable, "RationalShape", no_row)
    code, out, err = run_cli(capsys, ["qtable", "--ell", "2147483647"])
    assert (code, out) == (1, "")
    assert f"{3 * 2147483647 - 2} rows, over the bound of {qtable.MAX_QTABLE_ROWS}" in err


_HUGE_ELL = "2305843009213693951"  # the Mersenne prime 2^61 - 1


@pytest.mark.parametrize(
    "argv,message",
    [
        (["irred", "--ell", _HUGE_ELL, "--f", "1", "--n", "1"], "ParamError: ell^(2f) - 1 exceeds the 2^62 cap"),
        (["qtable", "--ell", _HUGE_ELL], "ParamError: ell^(2f) - 1 exceeds the 2^62 cap"),
        (["verify", "counts-irred", "--ell", _HUGE_ELL, "--f-max", "1"], "ParamError: ell^(2f) - 1 exceeds"),
        (["irred", "--ell", "2", "--f", "1000000000", "--n", "1"], "ParamError: ell^(2f) - 1 exceeds"),
        (["red", "--ell", "3", "--f", "100000000", "--n1", "1", "--n2", "0"], "ParamError: ell^(2f) - 1 exceeds"),
        (
            ["factor", "--ell", _HUGE_ELL, "--q-mod-ell", "1", "--shape", "irreducible"],
            "InvalidFactorInput: ell = 2305843009213693951: ell^2 - 1 exceeds the 2^62 cap",
        ),
    ],
)
def test_huge_ell_or_f_refused_before_the_primality_test(capsys, monkeypatch, argv, message):
    # the caps come first: a trial division of a huge ell fails the test
    # instead of spinning, and no message formats a huge ell^(2f)
    def no_trial_division(n):
        raise RuntimeError("is_prime ran")

    monkeypatch.setattr(modarith, "is_prime", no_trial_division)
    monkeypatch.setattr(local_factors, "is_prime", no_trial_division)
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (1, "")
    assert message in err
    assert len(err) < 200


# ---------------------------------------------------------------------------
# global


GLOBAL_DATUM = {
    "ell": 3,
    "primes": [
        {"f": 1, "case": "irreducible", "n": 1},
        {"f": 1, "case": "reducible", "n1": 1, "n2": 0, "ext": "unknown"},
    ],
}


def test_global_from_file(capsys, tmp_path):
    src = tmp_path / "datum.json"
    src.write_text(json.dumps(GLOBAL_DATUM), encoding="utf-8")
    code, out, _ = run_cli(capsys, ["global", "--input", str(src)])
    assert code == 0
    payload = json.loads(out)
    assert payload["ell"] == 3
    assert len(payload["certain"]) == 2
    assert len(payload["possible"]) == 6
    assert payload["certain"][0] == [
        {"ell": 3, "f": 1, "a": 0, "b": [1]},
        {"ell": 3, "f": 1, "a": 0, "b": [3]},
    ]


def test_global_refuses_six_entries_before_the_product(capsys, monkeypatch):
    # six (7, 4) entries of 11 weights each: 11^6 rows, about 12 GB of output
    def no_product(*args):
        raise RuntimeError("a global product was built")

    monkeypatch.setattr(global_weights, "itertools", SimpleNamespace(product=no_product))
    monkeypatch.setattr(np, "indices", no_product)  # the CLI's row index
    entry = {"f": 4, "case": "reducible", "n1": 1, "n2": 0, "ext": "unknown"}
    datum = {"ell": 7, "primes": [entry] * 6}
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(datum)))
    code, out, err = run_cli(capsys, ["global", "--stdin"])
    assert (code, out) == (1, "")
    assert f"{11**6} rows, over the bound of {global_weights.MAX_GLOBAL_ROWS}" in err


def test_global_stdin_matches_file(capsys, tmp_path, monkeypatch):
    src = tmp_path / "datum.json"
    src.write_text(json.dumps(GLOBAL_DATUM), encoding="utf-8")
    _, from_file, _ = run_cli(capsys, ["global", "--input", str(src)])
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(GLOBAL_DATUM)))
    code, from_stdin, _ = run_cli(capsys, ["global", "--stdin"])
    assert code == 0
    assert from_stdin == from_file


def test_global_pretty(capsys, tmp_path):
    src = tmp_path / "datum.json"
    src.write_text(json.dumps(GLOBAL_DATUM), encoding="utf-8")
    code, out, _ = run_cli(capsys, ["global", "--input", str(src), "--format", "pretty"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "ell=3 primes=2 certain=2 possible=6"
    assert lines[1] == "  certain  (V[0 ; 1], V[0 ; 3])"
    assert lines[2] == "  certain  (V[0 ; 3], V[0 ; 3])"
    assert sum(1 for ln in lines if ln.startswith("  possible")) == 6


def _global_answers(datum: dict) -> dict[str, str]:
    """{format: stdout} of `global` on datum, built from the library's
    global_weight_set, sorted by global_sort_key, with json.dumps and
    str(SerreWeight)."""
    g = cli.parse_global_datum(datum)
    sets = global_weight_set(g)
    certain = sorted(sets.certain, key=global_sort_key)
    possible = sorted(sets.possible, key=global_sort_key)
    tree = {
        "ell": g.ell,
        "certain": [list(map(weight_to_dict, gw)) for gw in certain],
        "possible": [list(map(weight_to_dict, gw)) for gw in possible],
    }
    tsv = ["\t".join(["part"] + [f"prime{i}" for i in range(len(g.primes))])]
    tsv += ["\t".join(["certain", *map(str, gw)]) for gw in certain]
    tsv += ["\t".join(["possible", *map(str, gw)]) for gw in possible]
    pretty = [f"ell={g.ell} primes={len(g.primes)} certain={len(certain)} possible={len(possible)}"]
    pretty += ["  certain  (" + ", ".join(map(str, gw)) + ")" for gw in certain]
    pretty += ["  possible (" + ", ".join(map(str, gw)) + ")" for gw in possible]
    return {
        "json": json.dumps(tree, indent=2) + "\n",
        "tsv": "\n".join(tsv) + "\n",
        "pretty": "\n".join(pretty) + "\n",
    }


@st.composite
def _global_data(draw) -> dict:
    """A global datum at ell in {2, 3, 5, 7}: one to three entries with
    f <= 2, each irreducible, split or of unknown extension."""
    ell = draw(st.sampled_from((2, 3, 5, 7)))
    primes = []
    for _ in range(draw(st.integers(1, 3))):
        f = draw(st.integers(1, 2))
        q = ell**f
        case = draw(st.sampled_from(("irreducible", "split", "unknown")))
        if case == "irreducible":
            n = draw(st.integers(0, q * q - 2).filter(lambda n: n % (q + 1)))
            primes.append({"f": f, "case": case, "n": n})
        else:
            n1, n2 = draw(st.integers(0, max(q - 2, 0))), draw(st.integers(0, max(q - 2, 0)))
            primes.append({"f": f, "case": "reducible", "n1": n1, "n2": n2, "ext": case})
    return {"ell": ell, "primes": primes}


ONE_ENTRY_GLOBAL = {
    "ell": 3,
    "primes": [{"f": 2, "case": "reducible", "n1": 1, "n2": 0, "ext": "unknown"}],
}
ALL_SPLIT_GLOBAL = {
    "ell": 5,
    "primes": [
        {"f": 1, "case": "reducible", "n1": 2, "n2": 0, "ext": "split"},
        {"f": 2, "case": "irreducible", "n": 1},
    ],
}


@settings(max_examples=60, deadline=None)
@given(datum=_global_data())
@example(datum=ONE_ENTRY_GLOBAL)
@example(datum=ALL_SPLIT_GLOBAL)
def test_global_matches_library_oracle(datum):
    saved = sys.stdin
    try:
        for fmt, expected in _global_answers(datum).items():
            sys.stdin = io.StringIO(json.dumps(datum))
            assert _cli_stdout(["global", "--stdin", "--format", fmt]) == expected, (datum, fmt)
    finally:
        sys.stdin = saved


def test_global_oracle_covers_the_edge_cases():
    # the explicit examples above reach a single entry with possible rows
    # and a datum with no possible row
    assert json.loads(_global_answers(ONE_ENTRY_GLOBAL)["json"])["possible"]
    assert json.loads(_global_answers(ALL_SPLIT_GLOBAL)["json"])["possible"] == []


def test_global_requires_source(capsys):
    code, _, err = run_cli(capsys, ["global"])
    assert code == 1
    assert "provide --stdin or --input" in err


def test_global_bad_json(capsys, tmp_path):
    src = tmp_path / "broken.json"
    src.write_text("{not json", encoding="utf-8")
    code, _, err = run_cli(capsys, ["global", "--input", str(src)])
    assert code == 1
    assert "error:" in err


def test_global_bad_case(capsys, tmp_path):
    src = tmp_path / "datum.json"
    src.write_text(
        json.dumps({"ell": 3, "primes": [{"f": 1, "case": "mystery", "n": 1}]}),
        encoding="utf-8",
    )
    code, _, err = run_cli(capsys, ["global", "--input", str(src)])
    assert code == 1
    assert "error:" in err


def test_global_missing_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, ["global", "--input", str(tmp_path / "absent.json")])
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize(
    "datum, field",
    [
        # every number of the datum a float: once read as ell = 3, f = 1, n = 2
        ({"ell": 3.9, "primes": [{"f": 1.7, "case": "irreducible", "n": 2.5}]}, "'ell'"),
        ({"ell": 3, "primes": [{"f": 1.7, "case": "irreducible", "n": 1}]}, "'f'"),
        ({"ell": 3, "primes": [{"f": 1, "case": "irreducible", "n": 2.5}]}, "'n'"),
        # a bool, once read as 1
        ({"ell": 3, "primes": [{"f": 1, "case": "irreducible", "n": True}]}, "'n'"),
        ({"ell": 3, "primes": [{"f": 1, "case": "reducible", "n1": 1, "n2": False}]}, "'n2'"),
        # a string, once read by int()
        ({"ell": "3", "primes": [{"f": 1, "case": "irreducible", "n": 1}]}, "'ell'"),
        ({"ell": 3, "primes": 5}, "'primes'"),
    ],
)
def test_global_refuses_coerced_numbers(capsys, monkeypatch, datum, field):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(datum)))
    code, out, err = run_cli(capsys, ["global", "--stdin"])
    assert (code, out) == (1, "")
    assert field in err


@pytest.mark.parametrize(
    "argv",
    [
        ["irred", "--ell", "2", "--f", "30", "--n", "1"],
        ["red", "--ell", "2", "--f", "30", "--n1", "1", "--n2", "0"],
        ["red", "--ell", "2", "--f", "30", "--n1", "1", "--n2", "0", "--ext", "unknown"],
        ["global", "--stdin"],
    ],
)
def test_subset_limit_refuses_before_any_work(capsys, monkeypatch, argv):
    # reaching the 2^f subset loop fails the test instead of hanging it
    def no_loop(f):
        raise RuntimeError(f"2^{f} subset loop reached")

    monkeypatch.setattr(irred, "subsets", no_loop)
    monkeypatch.setattr(red, "subsets", no_loop)
    datum = {"ell": 2, "primes": [{"f": 30, "case": "irreducible", "n": 1}]}
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(datum)))
    code, out, err = run_cli(capsys, argv)
    assert code == 1
    assert out == ""
    assert f"f <= {MAX_SUBSET_F}" in err


# ---------------------------------------------------------------------------
# factor


def test_factor_json_frozen(capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "factor",
            "--ell", "3", "--q-mod-ell", "2",
            "--shape", "cyc_twist_ext", "--ext-nonzero",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "extension"
    assert payload["split"] is False
    assert payload["sub"] == "chi_inv_det"
    assert payload["quot"] == "chi_inv_omega_inv_det"
    assert payload["ext_space_dim"] == 1
    assert len(payload["notes"]) == 1


def test_factor_stdin_matches_flags(capsys, monkeypatch):
    _, from_flags, _ = run_cli(
        capsys,
        [
            "factor",
            "--ell", "3", "--q-mod-ell", "2",
            "--shape", "cyc_twist_ext", "--ext-nonzero",
        ],
    )
    blob = json.dumps(
        {"ell": 3, "q_mod_ell": 2, "shape": "cyc_twist_ext", "ext_nonzero": True}
    )
    monkeypatch.setattr(sys, "stdin", io.StringIO(blob))
    code, from_stdin, _ = run_cli(capsys, ["factor", "--stdin"])
    assert code == 0
    assert from_stdin == from_flags


def test_factor_jl_pretty(capsys):
    code, out, _ = run_cli(
        capsys,
        ["factor", "--ell", "5", "--q-mod-ell", "3", "--shape", "irreducible",
         "--format", "pretty"],
    )
    assert code == 0
    assert out == "kind=jl_reduction\n"


def test_factor_requires_shape_flags(capsys):
    code, _, err = run_cli(capsys, ["factor", "--ell", "3"])
    assert code == 1
    assert "factor needs --shape and --q-mod-ell" in err


def test_factor_requires_ell_flag(capsys):
    # without --ell the classifier once compared None with an int and
    # left through a traceback
    code, out, err = run_cli(capsys, ["factor", "--q-mod-ell", "2", "--shape", "irreducible"])
    assert (code, out) == (1, "")
    assert "factor needs --ell" in err


@pytest.mark.parametrize(
    "blob, field",
    [
        # once read as q_mod_ell = 2
        ({"ell": 3, "q_mod_ell": 2.9, "shape": "cyc_twist_ext"}, "'q_mod_ell'"),
        # once read as ell = 1
        ({"ell": True, "q_mod_ell": 2, "shape": "cyc_twist_ext"}, "'ell'"),
        ({"ell": "3", "q_mod_ell": 2, "shape": "cyc_twist_ext"}, "'ell'"),
        # once read as split = True
        ({"ell": 3, "q_mod_ell": 2, "shape": "cyc_twist_ext", "split": "false"}, "'split'"),
        ({"ell": 3, "q_mod_ell": 2, "shape": "cyc_twist_ext", "ext_nonzero": 1}, "'ext_nonzero'"),
    ],
)
def test_factor_refuses_coerced_fields(capsys, monkeypatch, blob, field):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(blob)))
    code, out, err = run_cli(capsys, ["factor", "--stdin"])
    assert (code, out) == (1, "")
    assert field in err


def test_factor_invalid_combination(capsys):
    # a split extension class cannot simultaneously be nonzero
    code, _, err = run_cli(
        capsys,
        ["factor", "--ell", "3", "--q-mod-ell", "2",
         "--shape", "cyc_twist_ext", "--split", "--ext-nonzero"],
    )
    assert code == 1
    assert err.startswith("error: InvalidFactorInput")


# ---------------------------------------------------------------------------
# verify


def test_verify_pass_exit_zero(capsys):
    code, out, err = run_cli(
        capsys, ["verify", "counts-irred", "--ell", "3", "--f-max", "1"]
    )
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 1
    assert reports[0]["kind"] == "counts-irred"
    assert reports[0]["mismatch_count"] == 0
    assert reports[0]["checked"] == 6
    assert "elapsed_s" not in reports[0]
    assert "[counts-irred] elapsed" in err


def test_verify_alias_expands_in_order(capsys):
    code, out, _ = run_cli(capsys, ["verify", "counts", "--ell", "3", "--f-max", "1"])
    assert code == 0
    reports = json.loads(out)
    assert [r["kind"] for r in reports] == ["counts-irred", "counts-red"]


def test_verify_pretty_line(capsys):
    code, out, _ = run_cli(
        capsys,
        ["verify", "injectivity-red", "--ell", "3", "--f-max", "1",
         "--format", "pretty"],
    )
    assert code == 0
    assert out == "kind=injectivity-red tasks=1 checked=2 mismatches=0 PASS\n"


def test_verify_budget_exceeded_exit_one(capsys):
    # a NaN budget compares False against every cost, so it must refuse too;
    # either way no scan starts
    for budget in ("100", "nan"):
        held = list(sweeps._scans)
        code, out, err = run_cli(
            capsys,
            ["verify", "counts-irred", "--ell", "13", "--f-max", "3", "--budget", budget],
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: BudgetExceeded")
        assert list(sweeps._scans) == held


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "all", "--f-max", "0"],
        ["verify", "symmetry", "--ell", "2", "--f-max", "2", "--space-cap", "1"],
    ],
)
def test_verify_with_no_field_exit_one(capsys, argv):
    # a plan with no (ell, f) is refused before any scan, not reported green
    held = list(sweeps._scans)
    code, out, err = run_cli(capsys, argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ParamError: no field to verify")
    assert "--f-max" in err and "--space-cap" in err
    assert list(sweeps._scans) == held


def test_verify_space_cap_skips_fields_past_the_modulus_cap(capsys):
    # (2, f >= 31) are over the 2^62 cap, but the space cap stops the plan
    # at (2, 4), long before them
    code, out, err = run_cli(
        capsys, ["verify", "counts-irred", "--ell", "2", "--f-max", "40", "--space-cap", "1000"]
    )
    assert (code, err.startswith("error")) == (0, False)
    (report,) = json.loads(out)
    assert report["tasks"] == [{"ell": 2, "f": f} for f in range(1, 5)]
    assert report["passed"]


def test_verify_empty_check_over_a_field_passes(capsys):
    # ell = 2 has no generic split datum: a real plan that checks nothing
    code, out, _ = run_cli(capsys, ["verify", "generic-split", "--ell", "2", "--f-max", "2"])
    assert code == 0
    (report,) = json.loads(out)
    assert (len(report["tasks"]), report["checked"], report["passed"]) == (2, 0, True)


def test_verify_mismatch_exit_two(capsys, monkeypatch):
    fake = sweeps.VerificationReport(
        kind="counts-irred",
        tasks=[(3, 1)],
        checked=6,
        mismatch_count=1,
        mismatches=[{"ell": 3, "f": 1, "n": 1}],
        elapsed_s=0.0,
    )
    monkeypatch.setattr(sweeps, "verify_sweep", lambda *a, **kw: fake)
    code, out, _ = run_cli(
        capsys,
        ["verify", "counts-irred", "--ell", "3", "--f-max", "1", "--format", "pretty"],
    )
    assert code == 2
    assert "FAIL" in out
    assert '  witness: {"ell": 3, "f": 1, "n": 1}' in out


def test_verify_unknown_kind(capsys):
    code, _, err = run_cli(capsys, ["verify", "sorcery", "--ell", "3"])
    assert code == 1
    assert "unknown verification kind" in err


def test_verify_bad_ell_list(capsys):
    for bad in ["3;5", ""]:
        code, _, err = run_cli(capsys, ["verify", "counts-irred", "--ell", bad])
        assert code == 1
        assert "error:" in err


def test_verify_rejects_nonpositive_jobs(capsys):
    for bad in ["0", "-3"]:
        code, out, err = run_cli(
            capsys, ["verify", "counts-irred", "--ell", "3", "--f-max", "1", "--jobs", bad]
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ParamError: jobs must be at least 1")


# ---------------------------------------------------------------------------
# shared plumbing


def test_out_writes_file_and_silences_stdout(capsys, tmp_path):
    dest = tmp_path / "weights.json"
    code, out, _ = run_cli(
        capsys,
        ["irred", "--ell", "3", "--f", "1", "--n", "2", "--out", str(dest)],
    )
    assert code == 0
    assert out == ""
    text = dest.read_text(encoding="utf-8")
    assert text.endswith("\n")
    assert json.loads(text) == [
        {"ell": 3, "f": 1, "a": 0, "b": [2]},
        {"ell": 3, "f": 1, "a": 1, "b": [2]},
    ]


def test_repeated_runs_byte_identical(capsys):
    argvs = [
        ["irred", "--ell", "5", "--f", "2", "--n", "7", "--labels"],
        ["verify", "counts", "--ell", "2,3", "--f-max", "2"],
        ["qtable", "--ell", "7", "--format", "tsv"],
    ]
    for argv in argvs:
        _, first, _ = run_cli(capsys, argv)
        _, second, _ = run_cli(capsys, argv)
        assert first == second


def test_usage_errors_exit_one_not_two(capsys):
    # argparse would normally exit with status 2 on usage problems; the
    # contract reserves 2 for verification mismatches
    bad_argvs = [
        ["irred", "--ell", "3", "--f", "1"],  # missing --n
        ["irred", "--ell", "3", "--f", "1", "--n", "1", "--format", "yaml"],
        ["nonsense"],
        [],
    ]
    for argv in bad_argvs:
        code, _, err = run_cli(capsys, argv)
        assert code == 1, argv
        assert "error:" in err


@pytest.mark.parametrize(
    "argv,lines_read",
    [
        # 389 KB, more than a pipe holds: print itself meets the closed pipe
        (["irred", "--ell", "2", "--f", "12", "--n", "1", "--labels", "--format", "tsv"], 1),
        # a few bytes, closed before any is read: the flush meets it
        (["irred", "--ell", "3", "--f", "1", "--n", "2"], 0),
    ],
)
def test_reader_closing_the_pipe_early_exits_quietly(argv, lines_read):
    # as `serreweights ... | head -1`: no traceback and no "Exception
    # ignored" line at interpreter exit, and exit 141
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "serreweights", *argv],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    lines = [proc.stdout.readline() for _ in range(lines_read)]
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == cli.EXIT_BROKEN_PIPE == 141
    assert err == b""
    assert all(line.endswith(b"\n") for line in lines)


def test_interrupt_exits_130_with_one_line(capsys, monkeypatch):
    # Ctrl-C during a sweep: one stderr line, no traceback and nothing on
    # stdout; the sweep raises here, so no process is signalled
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(sweeps, "verify_sweep", interrupted)
    code, out, err = run_cli(capsys, ["verify", "counts", "--ell", "2", "--f-max", "1", "--jobs", "2"])
    assert code == cli.EXIT_INTERRUPTED == 130
    assert (out, err) == ("", "error: interrupted\n")


def test_one_parser_serves_every_call_like_a_fresh_one(capsys, monkeypatch):
    # main builds its parser on the first call and reuses it; a run of calls,
    # usage errors among them, must read exactly as with a new parser each time
    argvs = [
        ["irred", "--ell", "3", "--f", "2", "--n", "7", "--labels"],
        ["red", "--ell", "5", "--f", "1"],  # missing --n1 and --n2
        ["red", "--ell", "5", "--f", "1", "--n1", "2", "--n2", "1", "--ext", "unknown",
         "--format", "tsv"],
        ["irred", "--ell", "3", "--f", "1", "--n", "2", "--format", "yaml"],
        ["verify", "counts", "--ell", "2,3", "--f-max", "2", "--format", "pretty"],
        ["irred", "--ell", "3", "--f", "1", "--n", "2"],
    ]

    def calls():
        # stderr carries the sweeps' wall times, which differ run to run
        return [
            (code, out, re.sub(r"elapsed \d+\.\d+s", "elapsed", err))
            for code, out, err in (run_cli(capsys, argv) for argv in argvs)
        ]

    cli._shared_parser.cache_clear()
    shared = calls()
    assert cli._shared_parser.cache_info().misses == 1
    assert [code for code, _, _ in shared] == [0, 1, 0, 1, 0, 0]
    monkeypatch.setattr(cli, "_shared_parser", cli.build_parser)
    assert calls() == shared


# ---------------------------------------------------------------------------
# one JSON path: row tables write their own text, the rest is json.dumps

THREE_ENTRY_GLOBAL = {
    "ell": 7,
    "primes": [{"f": 4, "case": "reducible", "n1": 1, "n2": 0, "ext": "unknown"}] * 3,
}


@pytest.mark.parametrize(
    "argv",
    [
        ["irred", "--ell", "3", "--f", "2", "--n", "7"],
        ["irred", "--ell", "3", "--f", "2", "--n", "7", "--labels"],
        ["red", "--ell", "3", "--f", "2", "--n1", "5", "--n2", "0", "--labels"],
        ["red", "--ell", "2", "--f", "2", "--n1", "0", "--n2", "0", "--ext", "unknown", "--labels"],
        ["qtable", "--ell", "5"],
        (["global", "--stdin"], GLOBAL_DATUM),
        ["factor", "--ell", "3", "--q-mod-ell", "2", "--shape", "cyc_twist_ext", "--ext-nonzero"],
        ["verify", "counts", "nonempty", "--ell", "2,3", "--f-max", "2"],
        ["red", "--ell", "13", "--f", "4", "--n1", "1", "--n2", "0", "--ext", "unknown"],
        (["global", "--stdin"], THREE_ENTRY_GLOBAL),
    ],
)
def test_json_writer_matches_stdlib_on_every_payload(capsys, monkeypatch, argv):
    # a global call is (argv, the datum it reads on stdin)
    argv, datum = argv if isinstance(argv, tuple) else (argv, None)
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(datum)))
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
