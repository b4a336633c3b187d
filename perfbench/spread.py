"""Run the benchmark over several seeds and report how steady each metric is.

    python3 perfbench/spread.py --workload datum-mix --seeds 1-10 [--out FILE]

For each end-to-end metric it prints the median of the runs and the distance
between their first and third quartiles as a share of the median, next to
the metric's bound in BENCHMARK.json.  A benchmark is steady enough when
every spread except that of setup_s is below a third of its bound.  With
--out the per-run results are also written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from benchstats import quartile_spread  # noqa: E402


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    runs = []
    for seed in args.seeds:
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed)]
        cmd += ["--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} {values}", flush=True)

    ok = True
    print(f"{'metric':16} {'median':>12} {'spread':>8} {'bound':>6}")
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        spread = quartile_spread(values)
        steady = m["name"] == "setup_s" or spread < m["bound"] / 3
        ok &= steady and all(r["correct"] for r in runs)
        flag = "" if steady else "  <-- not below a third of the bound"
        print(f"{m['name']:16} {statistics.median(values):12.4f} {spread:8.4f} {m['bound']:6.2f}{flag}")
    if args.out:
        args.out.write_text(json.dumps({"workload": args.workload, "runs": runs}, indent=1), encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
