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
from .global_weights import (
    GlobalDatum,
    global_sort_key,
    global_weight_set,
)
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

_json_str = json.encoder.encode_basestring_ascii


def _json(payload: Any) -> str:
    """`json.dumps(payload, indent=2)`, byte for byte, for acyclic trees of
    dict with str keys, list, tuple, str, int, float, bool and None.

    The stdlib encodes indented output in pure Python; here only the tree
    walk is Python.  Strings go through the C-level ASCII escaper, ints
    through int.__repr__ (a list of plain ints in one join), and other
    leaves through the C encoder of `json.dumps`.
    """
    parts: list[str] = []
    _json_walk(payload, "\n", parts.append)
    return "".join(parts)


def _json_walk(x: Any, newline: str, put) -> None:
    if isinstance(x, (list, tuple)):
        if not x:
            put("[]")
            return
        inner = newline + "  "
        if set(map(type, x)) == {int}:  # not bool: int.__repr__(True) is "1"
            put("[" + inner + ("," + inner).join(map(int.__repr__, x)) + newline + "]")
            return
        sep, comma = "[" + inner, "," + inner
        for v in x:
            put(sep)
            _json_walk(v, inner, put)
            sep = comma
        put(newline + "]")
    elif isinstance(x, dict):
        if not x:
            put("{}")
            return
        inner = newline + "  "
        sep, comma = "{" + inner, "," + inner
        for k, v in x.items():
            head = sep + _json_str(k) + ": "
            t = type(v)  # str and plain int values inline, without a recursive call
            if t is int:
                put(head + int.__repr__(v))
            elif t is str:
                put(head + _json_str(v))
            else:
                put(head)
                _json_walk(v, inner, put)
            sep = comma
        put(newline + "}")
    elif isinstance(x, str):
        put(_json_str(x))
    elif type(x) is int:
        put(int.__repr__(x))
    else:
        put(json.dumps(x))


def _weights_json(ws) -> list[dict]:
    return [weight_to_dict(V) for V in sorted(ws, key=weight_sort_key)]


def _tsv(header: list[str], rows: list[list[str]]) -> str:
    lines = ["\t".join(header)]
    lines.extend("\t".join(r) for r in rows)
    return "\n".join(lines)


class _RowText:
    """Output cells of labeled rows (`weights.labeled_rows`), each built at
    most once per row and only when a format asks for it."""

    def __init__(self, rows: LabeledRows, p: FieldParams) -> None:
        self.rows, self.p = rows, p
        self.a = rows.a.tolist()
        self.b = rows.b.tolist()
        self.firsts = np.flatnonzero(rows.first)

    @cached_property
    def b_cells(self) -> list[str]:
        return [",".join(map(str, b)) for b in self.b]

    @cached_property
    def weights(self) -> list[str]:
        """str(SerreWeight) of each row: base-ell digits of a, then b."""
        a_digits = (code_digits(self.rows.a, self.p.ell, self.p.f) - 1).tolist()
        return [f"V[{','.join(map(str, x))} ; {y}]" for x, y in zip(a_digits, self.b_cells)]

    @cached_property
    def subsets(self) -> list[list[int]]:
        f = self.p.f
        return [[i for i in range(f) if B >> i & 1] for B in self.rows.B.tolist()]

    def weight_json(self, i: int) -> dict:
        return {"ell": self.p.ell, "f": self.p.f, "a": self.a[i], "b": self.b[i]}

    def labeled_json(self) -> list[dict]:
        return [{"weight": self.weight_json(i), "B": B} for i, B in enumerate(self.subsets)]

    def weight_cells(self, i: int) -> list[str]:
        return [str(self.a[i]), self.b_cells[i], self.weights[i]]

    def weight_set(self, idx) -> str:
        """Brace-delimited weights of the rows idx, as `format_weight_set`."""
        return "{" + ", ".join(self.weights[i] for i in idx) + "}"

    def labeled_lines(self) -> list[str]:
        return [
            "  B={" + ",".join(map(str, B)) + "}  " + w for B, w in zip(self.subsets, self.weights)
        ]


# ---------------------------------------------------------------------------
# subcommands


def _render_labeled(args, recipe, d, header: str) -> tuple[str, int]:
    """json / tsv / pretty output of the labeled set of d and the weights it
    projects to; recipe is the irreducible or the reducible module."""
    t = _RowText(labeled_rows(*recipe.labeled_triples(d), d.params), d.params)
    firsts = t.firsts.tolist()
    if args.format == "json":
        payload = t.labeled_json() if args.labels else [t.weight_json(i) for i in firsts]
        return _json(payload), EXIT_OK
    if args.format == "tsv":
        if args.labels:
            rows = [t.weight_cells(i) + [",".join(map(str, B))] for i, B in enumerate(t.subsets)]
            return _tsv(["a", "b", "weight", "B"], rows), EXIT_OK
        return _tsv(["a", "b", "weight"], [t.weight_cells(i) for i in firsts]), EXIT_OK
    lines = [
        f"{header}  labeled={len(t.a)} weights={len(firsts)}"
        f" injective={'yes' if recipe.projection_is_injective(d) else 'no'}",
        *t.labeled_lines(),
        f"weights: {t.weight_set(firsts)}",
    ]
    return "\n".join(lines), EXIT_OK


def _cmd_irred(args) -> tuple[str, int]:
    d = irred.niveau_two(FieldParams(args.ell, args.f), args.n)
    return _render_labeled(args, irred, d, f"ell={args.ell} f={args.f} n={d.n}")


def _cmd_red(args) -> tuple[str, int]:
    p = FieldParams(args.ell, args.f)
    ext = red.ExtClass(args.ext)
    d = red.niveau_one(p, args.n1, args.n2, ext)
    if ext is red.ExtClass.SPLIT:
        return _render_labeled(args, red, d, f"ell={p.ell} f={p.f} n1={d.n1} n2={d.n2} ext=split")

    rows, lo, hi, certain = red.partial_rows(d)
    t = _RowText(rows, p)
    sure, maybe = t.firsts[certain].tolist(), t.firsts[~certain].tolist()
    if args.format == "json":
        payload = {
            "certain": [t.weight_json(i) for i in sure],
            "possible": [t.weight_json(i) for i in maybe],
        }
        if args.labels:
            payload["labeled"] = t.labeled_json()
        return _json(payload), EXIT_OK
    if args.format == "tsv":
        body = [["certain"] + t.weight_cells(i) for i in sure]
        body += [["possible"] + t.weight_cells(i) for i in maybe]
        return _tsv(["part", "a", "b", "weight"], body), EXIT_OK
    dims = [f"dim={x}" if x == y else f"dim={x}..{y}" for x, y in zip(lo.tolist(), hi.tolist())]
    lines = [
        f"ell={p.ell} f={p.f} n1={d.n1} n2={d.n2} ext=unknown"
        f"  labeled={len(t.a)} h1_dim={red.h1_dim(d)}",
        *(f"{line}  {dim}" for line, dim in zip(t.labeled_lines(), dims)),
        f"certain: {t.weight_set(sure)}",
        f"possible: {t.weight_set(maybe)}",
    ]
    return "\n".join(lines), EXIT_OK


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
        return _json(payload), EXIT_OK
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


def parse_global_datum(obj: Any) -> GlobalDatum:
    """Build a multi-prime datum from its JSON form."""
    try:
        ell = int(obj["ell"])
        entries = obj["primes"]
    except (KeyError, TypeError) as exc:
        raise UsageError(f"global datum JSON needs 'ell' and 'primes': {exc}") from exc
    primes = []
    for entry in entries:
        try:
            p = FieldParams(ell, int(entry["f"]))
            case = entry["case"]
            if case == "irreducible":
                primes.append(irred.niveau_two(p, int(entry["n"])))
            elif case == "reducible":
                ext = red.ExtClass(entry.get("ext", "unknown"))
                primes.append(red.niveau_one(p, int(entry["n1"]), int(entry["n2"]), ext))
            else:
                raise UsageError(f"unknown case {case!r}")
        except (KeyError, TypeError, ValueError) as exc:
            raise UsageError(f"bad prime entry {entry!r}: {exc}") from exc
    return GlobalDatum(ell, tuple(primes))


def _cmd_global(args) -> tuple[str, int]:
    g = parse_global_datum(_read_json_input(args))
    sets = global_weight_set(g)
    certain = sorted(sets.certain, key=global_sort_key)
    possible = sorted(sets.possible, key=global_sort_key)
    if args.format == "json":
        payload = {
            "ell": g.ell,
            "certain": [[weight_to_dict(V) for V in gw] for gw in certain],
            "possible": [[weight_to_dict(V) for V in gw] for gw in possible],
        }
        return _json(payload), EXIT_OK
    if args.format == "tsv":
        header = ["part"] + [f"prime{i}" for i in range(len(g.primes))]
        rows = [["certain"] + [str(V) for V in gw] for gw in certain]
        rows += [["possible"] + [str(V) for V in gw] for gw in possible]
        return _tsv(header, rows), EXIT_OK
    lines = [
        f"ell={g.ell} primes={len(g.primes)}"
        f" certain={len(certain)} possible={len(possible)}"
    ]
    for gw in certain:
        lines.append("  certain  (" + ", ".join(str(V) for V in gw) + ")")
    for gw in possible:
        lines.append("  possible (" + ", ".join(str(V) for V in gw) + ")")
    return "\n".join(lines), EXIT_OK


def parse_factor_input(obj: Any) -> lf.LocalFactorInput:
    """Build a classifier input from its JSON form."""
    try:
        return lf.LocalFactorInput(
            ell=int(obj["ell"]),
            q_mod_ell=int(obj["q_mod_ell"]),
            shape=lf.GaloisShape(obj["shape"]),
            split=bool(obj.get("split", False)),
            ext_nonzero=bool(obj.get("ext_nonzero", False)),
        )
    except (KeyError, TypeError, ValueError) as exc:
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
        inp = lf.LocalFactorInput(
            ell=args.ell,
            q_mod_ell=args.q_mod_ell,
            shape=lf.GaloisShape(args.shape),
            split=args.split,
            ext_nonzero=args.ext_nonzero,
        )
    payload = _factor_payload(inp)
    if args.format == "json":
        return _json(payload), EXIT_OK
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
        return _json([r.to_dict() for r in reports]), code
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
    else:
        print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
