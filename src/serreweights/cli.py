"""Command line surface.

Subcommands:

  irred    weight set of an irreducible (niveau 2) inertia datum
  red      weight set(s) of a reducible datum (split or unknown extension)
  qtable   the rational (f = 1) weight table for one prime
  global   product weight sets for a multi-prime datum (JSON in)
  factor   quaternionic local factor classification (flags or JSON in)
  verify   exhaustive verification sweeps

Output formats: json (default), tsv, pretty.  All output is deterministic;
wall-clock timing goes to stderr only.  Exit codes: 0 success, 1 input
error, 2 verification mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Any

import numpy as np

from . import irreducible as irred
from . import local_factors as lf
from . import qtable
from . import reducible as red
from . import sweeps
from .errors import SerreWeightError
from .global_weights import GlobalDatum, local_tables
from .modarith import FieldParams, code_digits
from .weights import (
    LabeledRows,
    format_weight_set,
    labeled_rows,
    weight_sort_key,
    weight_to_dict,
)

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_MISMATCH = 2
# 128 + SIGPIPE, what a shell reports for a tool that SIGPIPE ends
EXIT_BROKEN_PIPE = 141
# 128 + SIGINT, what a shell reports for a tool that Ctrl-C ends
EXIT_INTERRUPTED = 130

_VERIFY_ALIASES = {
    "counts": ("counts-irred", "counts-red"),
    "injectivity": ("injectivity-irred", "injectivity-red"),
    "all": sweeps.ALL_KINDS,
}


class UsageError(Exception):
    """Bad flags or malformed input; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; the contract reserves 2
    # for verification mismatches, so route errors through an exception.
    def error(self, message: str):  # noqa: D102
        raise UsageError(message)


# ---------------------------------------------------------------------------
# rendering helpers

def _weights_json(ws) -> list[dict]:
    return [weight_to_dict(V) for V in sorted(ws, key=weight_sort_key)]


def _tsv(header: list[str], rows: list[list[str]]) -> str:
    lines = ["\t".join(header)]
    lines.extend("\t".join(r) for r in rows)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# columnar rendering of labeled rows


def _texts(x: np.ndarray, fmt=str) -> np.ndarray:
    """fmt(v) of each entry v of the integer array x, as an object array of
    x's shape; each distinct value is formatted once."""
    values, inverse = np.unique(x, return_inverse=True)
    return np.array(list(map(fmt, values.tolist())), dtype=object)[inverse.reshape(x.shape)]


def _spaced(block: np.ndarray, sep: str) -> list:
    """The columns of block, with the constant sep between neighbours."""
    cols = [block[:, 0]]
    for j in range(1, block.shape[1]):
        cols += [sep, block[:, j]]
    return cols


@lru_cache(maxsize=64)  # f <= MAX_SUBSET_F, times the three subset styles
def _subset_texts(f: int, sep: str, head: str, tail: str, empty: str) -> np.ndarray:
    """Text of every subset of range(f), indexed by its mask: the members in
    increasing order, sep between them and head and tail around them, or
    empty for the empty subset."""
    members = [""]
    for i in range(f):  # the masks with top bit i are those below it plus i
        members += [m + sep + str(i) if m else str(i) for m in members]
    table = np.array([head + m + tail if m else empty for m in members], dtype=object)
    table.flags.writeable = False
    return table


def _joined(cols: list, sep: str = "", head: str = "", tail: str = "") -> str:
    """head, the rows of cols with sep between rows, then tail.

    A column is a constant string or an object array with one string per
    row.  The columns go into one (rows, columns) object grid, adjacent
    constants merged, and the grid is joined once.
    """
    merged: list = []
    for c in (sep, *cols):
        if not isinstance(c, str):
            merged.append(c)
        elif merged and isinstance(merged[-1], str):
            merged[-1] += c
        elif c:
            merged.append(c)
    n = len(next(c for c in merged if not isinstance(c, str)))
    if not n:
        return head + tail
    grid = np.empty((n, len(merged)), dtype=object)
    for j, c in enumerate(merged):
        grid[:, j] = c
    grid[0, 0] = head + grid[0, 0][len(sep) :]
    grid[-1, -1] += tail
    return "".join(grid.ravel().tolist())


class _RowCols:
    """Text columns of labeled rows (`weights.labeled_rows`) for one output
    format.  Each format is a fixed list of columns over some rows idx:
    constant strings, and per-row strings gathered from small tables (the
    digit strings, str(a) of each row, the text of each subset mask), which
    `_joined` renders in one join."""

    def __init__(self, rows: LabeledRows, p: FieldParams, fmt: str) -> None:
        self.rows, self.p = rows, p
        self.every, self.firsts = slice(None), np.flatnonzero(rows.first)
        # tsv and pretty spell each weight out, with the base-ell digits of a
        spelled = fmt != "json"
        digits = np.hstack((rows.b, code_digits(rows.a, p.ell, p.f) - 1)) if spelled else rows.b
        texts = _texts(digits)
        self.b, self.a_digits = texts[:, : p.f], texts[:, p.f :]

    @cached_property
    def a(self) -> np.ndarray:
        return np.array(list(map(str, self.rows.a.tolist())), dtype=object)

    def subsets(self, idx, sep=",", head="", tail="", empty="") -> np.ndarray:
        return _subset_texts(self.p.f, sep, head, tail, empty)[self.rows.B[idx]]

    def weight(self, idx) -> list:
        """str(SerreWeight) of the rows idx: base-ell digits of a, then b."""
        return ["V[", *_spaced(self.a_digits[idx], ","), " ; ", *_spaced(self.b[idx], ","), "]"]

    def weight_cells(self, idx) -> list:
        """The tsv cells a, b and weight of the rows idx."""
        return [self.a[idx], "\t", *_spaced(self.b[idx], ","), "\t", *self.weight(idx)]

    def weight_json(self, idx, indent: str) -> list:
        """`json.dumps(weight_to_dict(V), indent=2)` of the weights of the
        rows idx, each opened at indent (a newline and spaces)."""
        inner, digit = indent + "  ", indent + "    "
        return [
            "{" + inner + f'"ell": {self.p.ell},' + inner + f'"f": {self.p.f},' + inner + '"a": ',
            self.a[idx],
            "," + inner + '"b": [' + digit,
            *_spaced(self.b[idx], "," + digit),
            inner + "]" + indent + "}",
        ]

    def labeled_json(self, idx, indent: str) -> list:
        """The rows idx as `{"weight": .., "B": [members]}`, opened at indent."""
        inner, member = indent + "  ", indent + "    "
        return [
            "{" + inner + '"weight": ',
            *self.weight_json(idx, inner),
            "," + inner + '"B": ',
            self.subsets(idx, "," + member, "[" + member, inner + "]", "[]"),
            indent + "}",
        ]

    def json_list(self, idx, labeled: bool, newline: str) -> str:
        """The JSON list of the rows idx, each item `labeled_json` or
        `weight_json`, opened at newline (a newline and spaces)."""
        if not self.rows.B[idx].size:  # no rows
            return "[]"
        inner = newline + "  "
        item = self.labeled_json if labeled else self.weight_json
        return _joined(item(idx, inner), "," + inner, "[" + inner, newline + "]")


# ---------------------------------------------------------------------------
# subcommands


def _render_labeled(args, recipe, d, header: str) -> tuple[str, int]:
    """json / tsv / pretty output of the labeled set of d and the weights it
    projects to; recipe is the irreducible or the reducible module."""
    t = _RowCols(labeled_rows(*recipe.labeled_triples(d), d.params), d.params, args.format)
    if args.format == "json":
        return t.json_list(t.every if args.labels else t.firsts, args.labels, "\n"), EXIT_OK
    if args.format == "tsv":
        if args.labels:
            cells = ["\n", *t.weight_cells(t.every), "\t", t.subsets(t.every)]
            return _joined(cells, head="a\tb\tweight\tB"), EXIT_OK
        return _joined(["\n", *t.weight_cells(t.firsts)], head="a\tb\tweight"), EXIT_OK
    injective = "yes" if recipe.projection_is_injective(d) else "no"
    head = f"{header}  labeled={len(t.rows.a)} weights={len(t.firsts)} injective={injective}\n"
    lines = _joined(["  B={", t.subsets(t.every), "}  ", *t.weight(t.every), "\n"], head=head)
    return lines + _joined(t.weight(t.firsts), ", ", "weights: {", "}"), EXIT_OK


def _cmd_irred(args) -> tuple[str, int]:
    d = irred.niveau_two(FieldParams(args.ell, args.f), args.n)
    return _render_labeled(args, irred, d, f"ell={args.ell} f={args.f} n={d.n}")


def _dim_text(lo: int, hi: int) -> str:
    return f"dim={lo}" if lo == hi else f"dim={lo}..{hi}"


def _cmd_red(args) -> tuple[str, int]:
    p = FieldParams(args.ell, args.f)
    ext = red.ExtClass(args.ext)
    d = red.niveau_one(p, args.n1, args.n2, ext)
    if ext is red.ExtClass.SPLIT:
        return _render_labeled(args, red, d, f"ell={p.ell} f={p.f} n1={d.n1} n2={d.n2} ext=split")

    rows, lo, hi, certain = red.partial_rows(d)
    t = _RowCols(rows, p, args.format)
    sure, maybe = t.firsts[certain], t.firsts[~certain]
    if args.format == "json":
        text = '{\n  "certain": ' + t.json_list(sure, False, "\n  ")
        text += ',\n  "possible": ' + t.json_list(maybe, False, "\n  ")
        if args.labels:
            text += ',\n  "labeled": ' + t.json_list(t.every, True, "\n  ")
        return text + "\n}", EXIT_OK
    if args.format == "tsv":
        text = _joined(["\ncertain\t", *t.weight_cells(sure)], head="part\ta\tb\tweight")
        return text + _joined(["\npossible\t", *t.weight_cells(maybe)]), EXIT_OK
    span = int(hi.max(initial=0)) + 1  # (lo, hi) as one code lo * span + hi
    dims = _texts(lo * span + hi, lambda c: _dim_text(*divmod(c, span)))
    head = (
        f"ell={p.ell} f={p.f} n1={d.n1} n2={d.n2} ext=unknown"
        f"  labeled={len(rows.a)} h1_dim={red.h1_dim(d)}\n"
    )
    lines = ["  B={", t.subsets(t.every), "}  ", *t.weight(t.every), "  ", dims, "\n"]
    text = _joined(lines, head=head)
    text += _joined(t.weight(sure), ", ", "certain: {", "}\n")
    return text + _joined(t.weight(maybe), ", ", "possible: {", "}"), EXIT_OK


def _cmd_qtable(args) -> tuple[str, int]:
    shapes = qtable.all_legal_shapes(args.ell)
    rows = [(s, sorted(qtable.weights_over_Q(s), key=weight_sort_key)) for s in shapes]
    if args.format == "json":
        payload = [
            {
                "ell": s.ell,
                "b": s.b,
                "shape": s.kind.value,
                "weights": _weights_json(ws),
            }
            for s, ws in rows
        ]
        return json.dumps(payload, indent=2), EXIT_OK
    if args.format == "tsv":
        body = [
            [str(s.ell), str(s.b), s.kind.value, ", ".join(str(V) for V in ws)]
            for s, ws in rows
        ]
        return _tsv(["ell", "b", "shape", "weights"], body), EXIT_OK
    lines = [
        f"ell={s.ell} b={s.b} shape={s.kind.value} weights={format_weight_set(ws)}"
        for s, ws in rows
    ]
    return "\n".join(lines), EXIT_OK


def _read_json_input(args) -> Any:
    if getattr(args, "stdin", False):
        return json.load(sys.stdin)
    if getattr(args, "input", None):
        with open(args.input, "r", encoding="utf-8") as fh:
            return json.load(fh)
    raise UsageError("provide --stdin or --input FILE")


def _json_int(obj: dict, key: str) -> int:
    """obj[key], which must be a JSON integer: a float, a bool or a string
    is refused, not rounded or read."""
    v = obj[key]
    if type(v) is not int:
        raise UsageError(f"{key!r} must be an integer, got {json.dumps(v)}")
    return v


def _json_flag(obj: dict, key: str) -> bool:
    """obj[key], false when absent, which must be a JSON true or false."""
    v = obj.get(key, False)
    if type(v) is not bool:
        raise UsageError(f"{key!r} must be true or false, got {json.dumps(v)}")
    return v


def parse_global_datum(obj: Any) -> GlobalDatum:
    """Build a multi-prime datum from its JSON form."""
    try:
        ell = _json_int(obj, "ell")
        entries = obj["primes"]
    except (KeyError, TypeError) as exc:
        raise UsageError(f"global datum JSON needs 'ell' and 'primes': {exc}") from exc
    if type(entries) is not list:
        raise UsageError(f"'primes' must be a list, got {json.dumps(entries)}")
    primes = []
    for entry in entries:
        try:
            p = FieldParams(ell, _json_int(entry, "f"))
            case = entry["case"]
            if case == "irreducible":
                primes.append(irred.niveau_two(p, _json_int(entry, "n")))
            elif case == "reducible":
                ext = red.ExtClass(entry.get("ext", "unknown"))
                n1, n2 = _json_int(entry, "n1"), _json_int(entry, "n2")
                primes.append(red.niveau_one(p, n1, n2, ext))
            else:
                raise UsageError(f"unknown case {case!r}")
        except (KeyError, TypeError, ValueError, UsageError) as exc:
            raise UsageError(f"bad prime entry {entry!r}: {exc}") from exc
    return GlobalDatum(ell, tuple(primes))


def _cmd_global(args) -> tuple[str, int]:
    g = parse_global_datum(_read_json_input(args))
    tables = local_tables(g)
    shape = [len(t.weights) for t in tables]
    # row r of the sorted product is the mixed-radix number idx[:, r] over
    # the sorted local lists, the last entry counting fastest
    idx = np.indices(shape).reshape(len(shape), -1)
    certain = np.logical_and.reduce([np.array(t.certain)[i] for t, i in zip(tables, idx)])
    parts = (("certain", idx[:, certain]), ("possible", idx[:, ~certain]))

    def text(V) -> str:
        if args.format != "json":
            return str(V)
        return json.dumps(weight_to_dict(V), indent=2).replace("\n", "\n      ")

    texts = [np.array(list(map(text, t.weights)), dtype=object) for t in tables]

    def weights(rows: np.ndarray, sep: str) -> list:
        """The texts of the weights of the rows, entry by entry, sep between."""
        cols = [texts[0][rows[0]]]
        for table, i in zip(texts[1:], rows[1:]):
            cols += [sep, table[i]]
        return cols

    if args.format == "json":
        lists = [
            "[]" if not rows.shape[1] else _joined(
                ["[\n      ", *weights(rows, ",\n      "), "\n    ]"], ",\n    ", "[\n    ", "\n  ]"
            )
            for _, rows in parts
        ]
        return '{\n  "ell": %d,\n  "certain": %s,\n  "possible": %s\n}' % (g.ell, *lists), EXIT_OK
    if args.format == "tsv":
        head = "\t".join(["part"] + [f"prime{i}" for i in range(len(shape))])
        lines = [_joined([f"\n{part}\t", *weights(rows, "\t")]) for part, rows in parts]
    else:
        head = f"ell={g.ell} primes={len(shape)} certain={certain.sum()} possible={(~certain).sum()}"
        lines = [_joined([f"\n  {part:<8} (", *weights(rows, ", "), ")"]) for part, rows in parts]
    return head + "".join(lines), EXIT_OK


def parse_factor_input(obj: Any) -> lf.LocalFactorInput:
    """Build a classifier input from its JSON form."""
    try:
        return lf.LocalFactorInput(
            ell=_json_int(obj, "ell"),
            q_mod_ell=_json_int(obj, "q_mod_ell"),
            shape=lf.GaloisShape(obj["shape"]),
            split=_json_flag(obj, "split"),
            ext_nonzero=_json_flag(obj, "ext_nonzero"),
        )
    except (KeyError, TypeError, ValueError, UsageError) as exc:
        raise UsageError(f"bad factor input: {exc}") from exc


def _factor_payload(inp: lf.LocalFactorInput) -> dict:
    desc = lf.classify_local_factor(inp)
    payload: dict[str, Any] = {"kind": desc.kind}
    for field_name in ("value", "summand", "split", "sub", "quot"):
        if hasattr(desc, field_name):
            payload[field_name] = getattr(desc, field_name)
    if (inp.q_mod_ell + 1) % inp.ell == 0:
        payload["ext_space_dim"] = lf.ext_space_dim(inp.ell, inp.q_mod_ell)
    payload["notes"] = list(lf.classification_notes(inp))
    return payload


def _cmd_factor(args) -> tuple[str, int]:
    if args.stdin or args.input:
        inp = parse_factor_input(_read_json_input(args))
    else:
        if args.shape is None or args.q_mod_ell is None:
            raise UsageError("factor needs --shape and --q-mod-ell (or --stdin)")
        if args.ell is None:
            raise UsageError("factor needs --ell (or --stdin)")
        inp = lf.LocalFactorInput(
            ell=args.ell,
            q_mod_ell=args.q_mod_ell,
            shape=lf.GaloisShape(args.shape),
            split=args.split,
            ext_nonzero=args.ext_nonzero,
        )
    payload = _factor_payload(inp)
    if args.format == "json":
        return json.dumps(payload, indent=2), EXIT_OK
    if args.format == "tsv":
        rows = [[k, json.dumps(v) if isinstance(v, list) else str(v)] for k, v in payload.items()]
        return _tsv(["field", "value"], rows), EXIT_OK
    lines = [f"kind={payload['kind']}"]
    for k, v in payload.items():
        if k in ("kind", "notes"):
            continue
        lines.append(f"{k}={v}")
    for note in payload["notes"]:
        lines.append(f"note: {note}")
    return "\n".join(lines), EXIT_OK


def _expand_kinds(kinds: list[str]) -> list[str]:
    out: list[str] = []
    for k in kinds:
        expansion = _VERIFY_ALIASES.get(k, (k,))
        for kk in expansion:
            if kk not in sweeps.ALL_KINDS:
                raise UsageError(f"unknown verification kind {kk!r}")
            if kk not in out:
                out.append(kk)
    return out


def _cmd_verify(args) -> tuple[str, int]:
    try:
        ells = [int(x) for x in args.ell.split(",") if x.strip()]
    except ValueError as exc:
        raise UsageError(f"--ell wants a comma-separated list of primes: {exc}") from exc
    if not ells:
        raise UsageError("--ell list is empty")
    kinds = _expand_kinds(args.kinds)
    reports = []
    for kind in kinds:
        r = sweeps.verify_sweep(
            kind,
            ells,
            args.f_max,
            budget=args.budget,
            space_cap=args.space_cap,
            jobs=args.jobs,
        )
        print(f"[{kind}] elapsed {r.elapsed_s:.2f}s", file=sys.stderr)
        reports.append(r)
    code = EXIT_OK if all(r.passed for r in reports) else EXIT_MISMATCH
    if args.format == "json":
        return json.dumps([r.to_dict() for r in reports], indent=2), code
    if args.format == "tsv":
        rows = [
            [r.kind, str(len(r.tasks)), str(r.checked), str(r.mismatch_count), str(r.passed).lower()]
            for r in reports
        ]
        return _tsv(["kind", "tasks", "checked", "mismatches", "passed"], rows), code
    lines = []
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        lines.append(
            f"kind={r.kind} tasks={len(r.tasks)} checked={r.checked}"
            f" mismatches={r.mismatch_count} {status}"
        )
        for w in r.mismatches:
            lines.append(f"  witness: {json.dumps(w)}")
    return "\n".join(lines), code


# ---------------------------------------------------------------------------
# parser assembly


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="serreweights",
        description="Conjectural Serre weight sets over unramified extensions, with exhaustive verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_common(sp):
        sp.add_argument(
            "--format",
            choices=("json", "tsv", "pretty"),
            default="json",
            help="output format (default json)",
        )
        sp.add_argument("--out", metavar="FILE", default=None, help="write output to FILE")

    sp = sub.add_parser("irred", help="irreducible (niveau 2) weight set")
    sp.add_argument("--ell", type=int, required=True)
    sp.add_argument("--f", type=int, required=True)
    sp.add_argument("--n", type=int, required=True, help="exponent of the niveau 2 character")
    sp.add_argument("--labels", action="store_true", help="include subset labels")
    add_common(sp)
    sp.set_defaults(run=_cmd_irred)

    sp = sub.add_parser("red", help="reducible weight set(s)")
    sp.add_argument("--ell", type=int, required=True)
    sp.add_argument("--f", type=int, required=True)
    sp.add_argument("--n1", type=int, required=True)
    sp.add_argument("--n2", type=int, required=True)
    sp.add_argument(
        "--ext",
        choices=("split", "unknown"),
        default="split",
        help="extension class (default split)",
    )
    sp.add_argument("--labels", action="store_true", help="include subset labels")
    add_common(sp)
    sp.set_defaults(run=_cmd_red)

    sp = sub.add_parser("qtable", help="rational (f = 1) weight table")
    sp.add_argument("--ell", type=int, required=True)
    add_common(sp)
    sp.set_defaults(run=_cmd_qtable)

    sp = sub.add_parser("global", help="multi-prime product weight sets (JSON input)")
    sp.add_argument("--stdin", action="store_true", help="read the datum as JSON from stdin")
    sp.add_argument("--input", metavar="FILE", default=None, help="read the datum from a JSON file")
    add_common(sp)
    sp.set_defaults(run=_cmd_global)

    sp = sub.add_parser("factor", help="quaternionic local factor classification")
    sp.add_argument("--stdin", action="store_true", help="read the input as JSON from stdin")
    sp.add_argument("--input", metavar="FILE", default=None, help="read the input from a JSON file")
    sp.add_argument("--ell", type=int, default=None)
    sp.add_argument("--q-mod-ell", type=int, default=None, dest="q_mod_ell")
    sp.add_argument(
        "--shape",
        choices=tuple(s.value for s in lf.GaloisShape),
        default=None,
    )
    sp.add_argument("--split", action="store_true", help="extension class is split")
    sp.add_argument("--ext-nonzero", action="store_true", help="extension class is non-zero")
    add_common(sp)
    sp.set_defaults(run=_cmd_factor)

    sp = sub.add_parser("verify", help="exhaustive verification sweeps")
    sp.add_argument(
        "kinds",
        nargs="+",
        metavar="KIND",
        help="one of %s or aliases counts, injectivity, all" % ", ".join(sweeps.ALL_KINDS),
    )
    sp.add_argument("--ell", default="2,3,5,7,11,13", help="comma-separated primes")
    sp.add_argument("--f-max", type=int, default=3, dest="f_max")
    sp.add_argument("--budget", type=float, default=1e7, help="max residue classes to enumerate")
    sp.add_argument(
        "--space-cap",
        type=int,
        default=None,
        dest="space_cap",
        help="skip (ell, f) with ell^(2f) above this",
    )
    sp.add_argument("--jobs", type=int, default=1, help="worker processes")
    add_common(sp)
    sp.set_defaults(run=_cmd_verify)

    return parser


@lru_cache(maxsize=None)
def _shared_parser() -> argparse.ArgumentParser:
    # built on the first call, not at import; parse_args leaves it unchanged
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        return _main(argv)
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


def _main(argv: list[str] | None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
        text, code = args.run(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (SerreWeightError, json.JSONDecodeError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
        return code
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe early: stop quietly, with stdout on
        # devnull so that the flush at interpreter exit raises nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return code


if __name__ == "__main__":
    sys.exit(main())
