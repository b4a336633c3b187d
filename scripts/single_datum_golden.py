#!/usr/bin/env python3
"""Write tests/golden/single_datum.json: the exit code and the sha256 of
stdout of `serreweights irred` and `serreweights red` over a fixed corpus of
argument vectors.

The corpus crosses every output format, with and without --labels, with
irred, red --ext split and red --ext unknown, on the fields (2,1) (where
q-1 = 1), (3,2), (5,2), (7,3), (13,4), (3,9) and (2,10).  Its reducible
data include a trivial ratio (n1 = n2), a ratio equal to the cyclotomic
exponent, a doubled class, and for ell = 2 the ratio 0, where the trivial
and the cyclotomic corrections both apply.  A few rejected inputs pin the
exit code of the error path.

tests/test_cli.py replays the corpus through cli.main and compares.  Run
this only when a change to the output bytes is intended, and review the
diff of the golden file:

    PYTHONPATH=src python3 scripts/single_datum_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from pathlib import Path

from serreweights import cli
from serreweights.modarith import FieldParams

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden" / "single_datum.json"

FIELDS = ((2, 1), (3, 2), (5, 2), (7, 3), (13, 4), (3, 9), (2, 10))
FORMATS = ("json", "tsv", "pretty")


def _irred_exponents(p: FieldParams, rng: random.Random) -> list[int]:
    """n = 1, n = -1, the missing class of the empty subset (one labeled
    weight short of 2^f) and one seeded draw; all prime to q+1."""
    q, P, M = p.q, p.m_plus, p.m_big
    missing = (1 - (q - 1) // (p.ell - 1)) % P  # window_top(0) + 1
    ns = [1, M - 1, missing + P * rng.randrange(q - 1 or 1), rng.randrange(M)]
    return sorted({n for n in ns if n % P})


def _red_pairs(p: FieldParams, rng: random.Random) -> list[tuple[int, int]]:
    """Trivial ratio, cyclotomic ratio, the doubled class of the empty
    subset, and one seeded draw."""
    D = max(p.m_minus, 1)
    doubled = -((p.q - 1) // (p.ell - 1)) % D  # window_top(0)
    n2 = rng.randrange(D)
    pairs = [
        (0, 0),
        (n2, n2),
        ((p.cyclotomic_exponent + n2) % D, n2),
        ((doubled + n2) % D, n2),
        (rng.randrange(D), rng.randrange(D)),
    ]
    return list(dict.fromkeys(pairs))


def corpus() -> list[list[str]]:
    rng = random.Random(20081)
    argvs: list[list[str]] = []
    for ell, f in FIELDS:
        p = FieldParams(ell, f)
        field = ["--ell", str(ell), "--f", str(f)]
        tails = [["--format", fmt] + labels for fmt in FORMATS for labels in ([], ["--labels"])]
        for n in _irred_exponents(p, rng):
            argvs += [["irred", *field, "--n", str(n), *t] for t in tails]
        for n1, n2 in _red_pairs(p, rng):
            for ext in ("split", "unknown"):
                head = ["red", *field, "--n1", str(n1), "--n2", str(n2), "--ext", ext]
                argvs += [head + t for t in tails]
        # rejected: n divisible by q+1
        argvs.append(["irred", *field, "--n", str(p.m_plus)])
    argvs.append(["red", "--ell", "4", "--f", "1", "--n1", "0", "--n2", "0"])
    return argvs


def run(argv: list[str]) -> tuple[int, str]:
    """(exit code, sha256 of stdout) of one cli.main call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def main() -> int:
    rows = []
    for argv in corpus():
        code, digest = run(argv)
        rows.append({"argv": argv, "exit": code, "sha256": digest})
    # one entry per line, so a change shows up as a one-line diff per argv
    GOLDEN.write_text("[\n" + ",\n".join(map(json.dumps, rows)) + "\n]\n", encoding="utf-8")
    print(f"wrote {len(rows)} entries to {GOLDEN}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
