"""The four workloads: the inputs they give the package, how one pass is
timed, and the correctness gates its outputs must pass.

Each pass runs in a fresh interpreter (see child.py), so the package's
per-process scan caches start cold in every pass, as they do for a user who
calls the CLI.  Gates run after the timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import resource
import sys
import time
import traceback
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from benchstats import min_samples_for
from layers import KINDS

ROOT = Path(__file__).resolve().parent.parent


def peak_rss_mb() -> float:
    """Highest resident set size of this process and of any child it waited
    for (pool workers included), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


# ---------------------------------------------------------------------------
# verify workloads


@dataclass(frozen=True)
class VerifyRange:
    ells: tuple[int, ...]
    f_max: int
    space_cap: int | None
    checked: dict[str, int]  # pinned `checked` per kind at this range

    def tasks(self, kind: str) -> list[tuple[int, int]]:
        if kind == "qtable-crosscheck":
            return [(ell, 1) for ell in self.ells]
        return [
            (ell, f)
            for ell in self.ells
            for f in range(1, self.f_max + 1)
            if self.space_cap is None or ell ** (2 * f) <= self.space_cap
        ]

    def expected_payload(self, kind: str) -> str:
        """The exact `to_dict()` JSON a passing report over this range gives."""
        return json.dumps(
            {
                "kind": kind,
                "tasks": [{"ell": ell, "f": f} for ell, f in self.tasks(kind)],
                "checked": self.checked[kind],
                "mismatch_count": 0,
                "mismatches": [],
                "passed": True,
            }
        )


# ell^(2f) <= 2e6 keeps the shape of the acceptance range (f = 4 fields with
# 16 subsets, one field holding about two thirds of the kernel cells) at a
# seventh of its run time.
ACCEPTANCE_SCALE = VerifyRange(
    ells=(2, 3, 5, 7, 11, 13),
    f_max=4,
    space_cap=2 * 10**6,
    checked={
        "counts-irred": 2346798,
        "counts-red": 2346798,
        "injectivity-irred": 2346798,
        "injectivity-red": 2954,
        "det-law": 2349752,
        "symmetry": 2358614,
        "nonempty": 2349752,
        "generic-split": 1202,
        "qtable-crosscheck": 146,
    },
)
# few classes but up to 256 subsets per row: per-subset loop overhead, wide
# sorts, and memory that grows with 2^f
WIDE = VerifyRange(
    ells=(2,),
    f_max=8,
    space_cap=None,
    checked={
        "counts-irred": 86870,
        "counts-red": 86870,
        "injectivity-irred": 86870,
        "injectivity-red": 502,
        "det-law": 87372,
        "symmetry": 88878,
        "nonempty": 87372,
        "generic-split": 0,
        "qtable-crosscheck": 5,
    },
)
VERIFY = {
    "verify-serial": (ACCEPTANCE_SCALE, 1),
    "verify-jobs2": (ACCEPTANCE_SCALE, 2),
    "verify-wide": (WIDE, 1),
}


def check_report(rng: VerifyRange, kind: str, report) -> str | None:
    """None when the report is the pinned passing payload, else why not."""
    if isinstance(report, BaseException):
        return f"raised {report!r}"
    got = json.dumps(report.to_dict())
    if got == rng.expected_payload(kind):
        return None
    return (
        f"payload differs from the pinned one: checked {report.checked}"
        f" (pinned {rng.checked[kind]}), mismatches {report.mismatch_count}"
    )


def run_verify(name: str) -> dict:
    """`verify all` over the workload's range: one pass, every kind in the
    CLI's order.  Operations are the nine kind reports."""
    from serreweights import sweeps

    rng, jobs = VERIFY[name]
    reports = []
    t0 = time.perf_counter()
    for kind in KINDS:
        try:
            reports.append(
                sweeps.verify_sweep(kind, list(rng.ells), rng.f_max, space_cap=rng.space_cap, jobs=jobs)
            )
        except Exception as exc:  # counted as a failed operation below
            traceback.print_exc()
            reports.append(exc)
    wall = time.perf_counter() - t0
    rss = peak_rss_mb()
    failures = []
    for kind, report in zip(KINDS, reports):
        why = check_report(rng, kind, report)
        if why:
            failures.append(f"{kind}: {why}")
    return {
        "wall_s": wall,
        "latencies_s": [wall],
        "attempted": len(KINDS),
        "failed": len(failures),
        "failures": failures,
        "peak_rss_mb": rss,
    }


# ---------------------------------------------------------------------------
# datum-mix workload

ELLS = (2, 3, 5, 7, 11, 13)
FORMATS = ("json", "tsv", "pretty")
# (ell, f) with 2^f <= 1024 and ell^(f-2) <= 3e4: 47 fields.  Larger ones are
# left out because nothing in the package bounds them yet (--f 30 loops over
# 2^30 subsets, (13, 8) spends 17 s in the witness search), so a harness
# timeout rather than the program would set their run time.
PAIRS = tuple(
    (ell, f) for ell in ELLS for f in range(1, 11) if f <= 2 or ell ** (f - 2) <= 3 * 10**4
)
SHAPES = ("irreducible", "cyc_twist_ext", "other_reducible")
# a datum-mix run answers at least this many requests, so that its 99th
# percentile has ten samples beyond it
MIN_REQUESTS = min_samples_for(99.0)


@dataclass(frozen=True)
class Request:
    argv: tuple[str, ...]
    stdin: str | None = None
    # ("irred", ell, f, n) or ("red", ell, f, n1, n2) when the request asks
    # for JSON with labels, so the gate can check every labeled triple
    labeled: tuple | None = None


def _niveau2_n(rng: random.Random, q: int) -> int:
    while True:
        n = rng.randrange(q * q - 1)
        if n % (q + 1):
            return n


def _global_request(rng: random.Random, ell: int, fmt: str) -> Request:
    primes = []
    for _ in range(rng.choice((2, 3))):
        f = rng.randint(1, 3)
        q = ell**f
        if rng.random() < 0.5:
            primes.append({"f": f, "case": "irreducible", "n": _niveau2_n(rng, q)})
        else:
            m = max(q - 1, 1)
            ext = rng.choice(("split", "unknown"))
            primes.append({"f": f, "case": "reducible", "n1": rng.randrange(m), "n2": rng.randrange(m), "ext": ext})
    return Request(("global", "--stdin", "--format", fmt), stdin=json.dumps({"ell": ell, "primes": primes}))


def _factor_request(rng: random.Random, ell: int, fmt: str) -> Request:
    q_mod = 1 if ell == 2 else rng.randint(1, ell - 1)
    flags = rng.choice(((), ("--split",), ("--ext-nonzero",)))
    argv = ("factor", "--ell", str(ell), "--q-mod-ell", str(q_mod), "--shape", rng.choice(SHAPES), *flags)
    return Request(argv + ("--format", fmt))


def make_deck(seed: int) -> list[Request]:
    """The seeded requests of one pass, in the order they are sent.

    Every field gets one irred, one split and one unknown request in each
    format, so passes for different seeds differ in the data (n, n1, n2,
    which tsv requests carry --labels, the global and factor inputs) and in
    order, but not in how many requests of each kind hit each field.
    """
    rng = random.Random(seed)
    deck = []
    for ell, f in PAIRS:
        q = ell**f
        m = max(q - 1, 1)
        for fmt in FORMATS:
            labels = fmt == "json" or (fmt == "tsv" and rng.random() < 0.5)
            tail = ("--format", fmt) + (("--labels",) if labels else ())
            n = _niveau2_n(rng, q)
            deck.append(
                Request(
                    ("irred", "--ell", str(ell), "--f", str(f), "--n", str(n)) + tail,
                    labeled=("irred", ell, f, n) if fmt == "json" else None,
                )
            )
            for ext in ("split", "unknown"):
                n1, n2 = rng.randrange(m), rng.randrange(m)
                argv = ("red", "--ell", str(ell), "--f", str(f), "--n1", str(n1), "--n2", str(n2), "--ext", ext)
                deck.append(Request(argv + tail, labeled=("red", ell, f, n1, n2) if fmt == "json" else None))
    for ell in ELLS:
        for fmt in FORMATS:
            deck.append(Request(("qtable", "--ell", str(ell), "--format", fmt)))
            deck.append(_global_request(rng, ell, fmt))
            deck.append(_factor_request(rng, ell, fmt))
    rng.shuffle(deck)
    return deck


def _serve(main, req: Request) -> tuple[int, str, float]:
    """One CLI call in this process: (exit code, stdout, seconds)."""
    out = io.StringIO()
    saved_stdin = sys.stdin
    if req.stdin is not None:
        sys.stdin = io.StringIO(req.stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            t0 = time.perf_counter()
            try:
                code = main(list(req.argv))
            except Exception:  # counted as a failed request by the gate
                code = -1
                out.write(traceback.format_exc())
            dt = time.perf_counter() - t0
    finally:
        sys.stdin = saved_stdin
    return code, out.getvalue(), dt


def _congruence_holds(labeled: tuple, a: int, b: tuple[int, ...], B: int) -> bool:
    """The defining congruence of a labeled triple, as tests/oracles.py
    enumerates it."""
    kind, ell, f, *ns = labeled
    q = ell**f
    s_in = sum(b[i] * ell**i for i in range(f) if B >> i & 1)
    s_out = sum(b[i] * ell**i for i in range(f) if not B >> i & 1)
    if kind == "irred":
        return (a * (q + 1) + s_in + q * s_out - ns[0]) % (q * q - 1) == 0
    m = max(q - 1, 1)
    return (a + s_in - ns[0]) % m == 0 and (a + s_out - ns[1]) % m == 0


@lru_cache(maxsize=None)
def _brute(labeled: tuple) -> frozenset:
    if str(ROOT / "tests") not in sys.path:
        sys.path.insert(0, str(ROOT / "tests"))
    from oracles import brute_labeled_irred, brute_labeled_red

    kind, ell, f, *ns = labeled
    brute = brute_labeled_irred if kind == "irred" else brute_labeled_red
    return frozenset(brute(ell, f, *ns))


def check_labeled(labeled: tuple, text: str) -> str | None:
    """None when every labeled (a, b, B) in the JSON output is a solution of
    the defining congruence (and, for ell^f <= 50, the output is the whole
    solution set); else why not."""
    _kind, ell, f, *_ = labeled
    try:
        payload = json.loads(text)
        rows = payload["labeled"] if isinstance(payload, dict) else payload
        triples = set()
        for row in rows:
            w = row["weight"]
            a, b = w["a"], tuple(w["b"])
            B = sum(1 << i for i in row["B"])
            if (w["ell"], w["f"]) != (ell, f) or len(b) != f or not all(1 <= x <= ell for x in b):
                return f"malformed weight {w}"
            if not 0 <= a < max(ell**f - 1, 1) or not _congruence_holds(labeled, a, b, B):
                return f"{row} does not satisfy the defining congruence"
            triples.add((a, b, B))
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable labeled output: {exc!r}"
    if len(triples) != len(rows):
        return "repeated labeled weights"
    if ell**f <= 50 and triples != _brute(labeled):
        return "labeled set differs from the brute-force enumeration"
    return None


def run_datum_mix(seed: int) -> dict:
    """Closed loop, one client: every request of the deck, each sent to
    cli.main once the previous one has returned."""
    from serreweights import cli

    deck = make_deck(seed)
    latencies: list[float] = []
    answers: list[tuple[int, str]] = []
    t0 = time.perf_counter()
    for req in deck:
        code, text, dt = _serve(cli.main, req)
        latencies.append(dt)
        answers.append((code, text))
    wall = time.perf_counter() - t0
    rss = peak_rss_mb()

    failures = []
    for req, (code, text) in zip(deck, answers):
        if code != 0:
            why = f"exit {code}: {text[-300:]}"
        elif req.labeled is not None:
            why = check_labeled(req.labeled, text)
        else:
            continue
        if why:
            failures.append(f"{' '.join(req.argv)}: {why}")
    return {
        "wall_s": wall,
        "latencies_s": latencies,
        "attempted": len(latencies),
        "failed": len(failures),
        "failures": failures,
        "peak_rss_mb": rss,
    }


# ---------------------------------------------------------------------------

WORKLOADS = (*VERIFY, "datum-mix")


def make_inputs(name: str, seed: int):
    """Input generation alone (timed as part of set-up)."""
    if name == "datum-mix":
        return make_deck(seed)
    rng, _ = VERIFY[name]
    return [rng.expected_payload(kind) for kind in KINDS]


def run(name: str, seed: int) -> dict:
    """One timed pass of a workload.  The verify ranges are exhaustive, so
    there is nothing to draw, and their inputs do not depend on the seed."""
    if name == "datum-mix":
        return run_datum_mix(seed)
    return run_verify(name)
