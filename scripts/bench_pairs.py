#!/usr/bin/env python3
"""Benchmark two git revisions in alternating pairs and write a BENCH_*.json.

    python3 scripts/bench_pairs.py PARENT CHANGE --out BENCH_name.json --what TEXT \\
        [--traced NAME ...]

Each revision is exported with `git archive` into a temporary directory
(under $TMPDIR), and the perfbench/run.py of that export runs there, as
`python3 perfbench/run.py --workload W --seed S --seconds T --trace 0`, with
T the run_seconds of BENCHMARK.json.  Every workload of BENCHMARK.json, in
its order, gets ten pairs: pair i runs both sides on seed i + 1, the parent
first in odd pairs and the change first in even ones.  Each --traced
workload then gets one traced pass (--trace 1, seed 1) per side, for its
per-layer metrics.

The file holds what, machine, command, method, parent, change, a summary
per workload (for every end-to-end metric, each side's quartiles, the
relative change of the medians, the number of pairs the change won,
whether that shows a gain: at least ten pairs, nine in ten of them won,
and the medians apart by more than the parent's quartile spread, and two
no-regression flags against the metric's bound in BENCHMARK.json:
worse_than_bound, the change's median worse than the parent's by more than
bound x |parent median|, and unresolved, the parent's quartile spread wider
than that unless every change run beats every parent run), the traced
passes and every run.  It is rewritten after each run, so an
interrupted session keeps what it measured.  Run it from the root of a
checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
PAIRS = 10  # pairs per workload; an interrupted run with fewer shows no gain
FIRST_SEED = 2
COMMAND = "python3 perfbench/run.py --workload <workload> --seed <seed> --seconds {seconds} --trace <0|1>"


def quartiles(values: list[float]) -> dict[str, float]:
    """Inclusive quartiles; min, median and max for fewer than four values."""
    xs = sorted(values)
    if len(xs) < 4:
        return {"q1": xs[0], "median": statistics.median(xs), "q3": xs[-1]}
    q1, median, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def compare(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """One metric over the complete pairs, parent[i] against change[i]; bound
    is the metric's allowed relative regression."""
    sign = 1 if better == "higher" else -1
    stats = {"parent": quartiles(parent), "change": quartiles(change)}
    p_med, c_med = stats["parent"]["median"], stats["change"]["median"]
    won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))  # ties count for neither
    spread = stats["parent"]["q3"] - stats["parent"]["q1"]
    allowed = bound * abs(p_med)
    every_run_better = min(sign * c for c in change) > max(sign * p for p in parent)
    return {
        **{side: {k: round(v, 4) for k, v in s.items()} for side, s in stats.items()},
        "change_vs_parent_median": round((c_med - p_med) / p_med, 4) if p_med else 0.0,
        "pairs_change_better": won,
        "gain_shown": len(parent) >= PAIRS and 10 * won >= 9 * len(parent)
        and sign * (c_med - p_med) > spread,
        "worse_than_bound": -sign * (c_med - p_med) > allowed,
        "unresolved": spread > allowed and not every_run_better,
    }


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per workload, in order of first appearance: the number of complete
    pairs, whether every run was correct, the failed operations, and
    compare() of each end-to-end metric over the complete pairs."""
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        by_pair: dict[int, dict] = {}
        for r in mine:
            by_pair.setdefault(r["pair"], {})[r["side"]] = r["result"]
        pairs = [p for _, p in sorted(by_pair.items()) if len(p) == len(SIDES)]
        entry = {
            "pairs": len(pairs),
            "correct_all": all(r["result"]["correct"] for r in mine),
            "failed_total": sum(r["result"]["failed"] for r in mine),
        }
        for metric in end_to_end:
            name = metric["name"]
            values = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
            if pairs:
                entry[name] = compare(values["parent"], values["change"], metric["better"], metric["bound"])
        summary[workload] = entry
    return summary


def export(rev: str, into: Path) -> None:
    archive = subprocess.run(["git", "archive", rev], check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)


def run_bench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run in an exported tree: its result line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, check=True, stdout=subprocess.PIPE, text=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine() -> str:
    import numpy

    ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30
    return (f"{os.cpu_count()} cores, {ram:.0f} GB RAM, Python {platform.python_version()},"
            f" numpy {numpy.__version__}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--what", required=True, help="what the change does")
    ap.add_argument("--traced", action="append", default=[], help="workload for one traced pass per side")
    args = ap.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    revs = {side: subprocess.run(["git", "rev-parse", "--short", rev], check=True, capture_output=True,
                                 text=True).stdout.strip()
            for side, rev in zip(SIDES, (args.parent, args.change))}
    doc = {
        "what": args.what,
        "machine": machine(),
        "command": COMMAND.format(seconds=seconds),
        "method": (f"scripts/bench_pairs.py: each side runs in a fresh git archive export of its revision;"
                   f" pair i uses seed {FIRST_SEED} + i - 1 and alternates which side runs first; traced"
                   " passes use seed 1; quartiles are inclusive quartiles over a side's runs"
                   f" (min/median/max when fewer than four); gain_shown means at least {PAIRS} pairs, the change"
                   " won 9 in 10 of them, and its median is better by more than the parent's q3 - q1;"
                   " worse_than_bound means the change's median is worse than the parent's by more than"
                   " bound x |parent median|, with the metric's bound from BENCHMARK.json; unresolved means"
                   " the parent's q3 - q1 exceeds that, unless every change run beats every parent run"),
        "parent": revs["parent"],
        "change": revs["change"],
        "summary": {},
        "traced": {},
        "runs": [],
    }

    def save() -> None:
        doc["summary"] = summarize(doc["runs"], spec["end_to_end"])
        args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        for side, tree in trees.items():
            tree.mkdir()
            export(revs[side], tree)
        for workload in (w["name"] for w in spec["workloads"]):
            for pair in range(1, PAIRS + 1):
                seed = FIRST_SEED + pair - 1
                for side in SIDES if pair % 2 else SIDES[::-1]:
                    print(f"[bench_pairs] {workload} pair {pair} {side}", file=sys.stderr, flush=True)
                    result = run_bench(trees[side], workload, seed, seconds, 0)
                    doc["runs"].append({"side": side, "workload": workload, "seed": seed, "trace": 0,
                                        "pair": pair, "result": result})
                    save()
        for workload in args.traced:
            for side, tree in trees.items():
                result = run_bench(tree, workload, 1, seconds, 1)
                trace = json.loads((tree / "perfbench" / "out" / f"trace-{workload}-seed1.json").read_text())
                metrics = {name: m["value"] for name, m in result["metrics"].items()}
                doc["traced"].setdefault(workload, {})[side] = {
                    "correct": result["correct"], "absent": trace["absent"], "metrics": metrics,
                }
                save()
    save()
    return 0


if __name__ == "__main__":
    sys.exit(main())
