"""Benchmark entry point: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it needs no build, only the package
source under src/.  Progress goes to stderr; the last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.  With
--trace 0 the metrics are the end-to-end metrics of BENCHMARK.json; with
--trace 1 they are its per-layer metrics, taken from a traced run, plus the
tracing overhead measured against an untraced run of the same inputs.

Every workload run is a fresh interpreter (child.py), started in its own
session so that it and its pool workers can be stopped together.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from benchstats import failed_share, tail_percentile  # noqa: E402
from workloads import MIN_REQUESTS, VERIFY, WORKLOADS  # noqa: E402

OUT = HERE / "out"
SETUP_PROBES = 7
# every run must end within 180 s; leave room for set-up and reporting
DEADLINE_S = 165.0


def log(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


class ChildFailed(RuntimeError):
    pass


def _stop_group(pgid: int) -> None:
    """Kill what is left of a child's session and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(200):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def _child(args: list[str], timeout: float) -> float:
    """Run child.py with args; returns its wall time from spawn to exit.

    The wait blocks in waitpid (a timed wait would poll, and round the
    set-up times to its polling step); a timer stops the child's session if
    it runs out of time.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # a fixed string-hash seed gives every interpreter the same dict layouts,
    # one source less of run-to-run variation
    env["PYTHONHASHSEED"] = "0"
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), *args],
        cwd=ROOT,
        env=env,
        stdout=subprocess.DEVNULL,
        start_new_session=True,
    )
    watchdog = threading.Timer(max(timeout, 1.0), _stop_group, [proc.pid])
    watchdog.start()
    try:
        code = proc.wait()
        elapsed = time.perf_counter() - t0
    finally:
        watchdog.cancel()
        _stop_group(proc.pid)
    if code != 0:
        raise ChildFailed(f"child.py {' '.join(args)} exited {code}")
    return elapsed


def one_pass(workload: str, seed: int, trace: bool, deadline: float) -> dict:
    """One pass of the workload, in a fresh interpreter."""
    out = OUT / f"result-{os.getpid()}.json"
    args = ["--workload", workload, "--seed", str(seed), "--out", str(out)] + (["--trace"] if trace else [])
    _child(args, deadline - time.monotonic())
    try:
        return json.loads(out.read_text(encoding="utf-8"))
    finally:
        out.unlink()


def setup_seconds(workload: str, seed: int, deadline: float) -> float:
    """Median, over SETUP_PROBES fresh interpreters, of the time to start,
    import serreweights.cli and build the workload's inputs."""
    args = ["--workload", workload, "--seed", str(seed), "--setup-only"]
    return statistics.median(_child(args, deadline - time.monotonic()) for _ in range(SETUP_PROBES))


def end_to_end(runs: list[dict], setup_s: float, attempted: int, failed: int) -> dict[str, float]:
    latencies = [x for r in runs for x in r["latencies_s"]]
    p99, beyond = tail_percentile(latencies, 99.0)
    log(f"{len(latencies)} requests, {beyond} beyond the reported tail")
    return {
        "setup_s": setup_s,
        # the mean, not the median of a few passes: it averages the host's
        # speed drift over the whole run (see README.md)
        "wall_s": statistics.fmean(r["wall_s"] for r in runs),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
        "latency_p50_ms": 1000.0 * statistics.median(latencies),
        "latency_p99_ms": 1000.0 * p99,
        "requests_per_s": len(latencies) / sum(r["wall_s"] for r in runs),
        "ok_share": 1.0 - failed_share(attempted, failed),
    }


def untraced_runs(workload: str, seed: int, seconds: float, deadline: float) -> list[dict]:
    """As many passes as fit in `seconds`, and at least one; for datum-mix,
    at least enough for MIN_REQUESTS requests.

    Every pass runs in a fresh interpreter, so the package's per-process
    caches start cold in each, as they do for a user who calls the CLI.
    """
    runs = []
    start = time.monotonic()
    while True:
        runs.append(one_pass(workload, seed, False, deadline))
        spent = time.monotonic() - start
        answered = sum(len(r["latencies_s"]) for r in runs)
        enough = workload in VERIFY or answered >= MIN_REQUESTS
        if enough and spent + spent / len(runs) > seconds:
            return runs


def traced_runs(workload: str, seed: int, deadline: float) -> tuple[list[dict], dict[str, float]]:
    """An untraced and a traced pass, each whole in one interpreter; the
    per-layer metrics of the traced one, plus the tracing overhead.  Writes
    the trace summary, with one row per (kind, ell, f) task, under out/."""
    base = one_pass(workload, seed, False, deadline)
    traced = one_pass(workload, seed, True, deadline)
    metrics = dict(traced["layers"])
    metrics["trace.overhead_s"] = traced["wall_s"] - base["wall_s"]
    summary = {
        "workload": workload,
        "seed": seed,
        "untraced_wall_s": base["wall_s"],
        "traced_wall_s": traced["wall_s"],
        "spans": traced["spans"],
        "absent": traced["absent"],
        "metrics": metrics,
        "tasks": traced["tasks"],
    }
    trace_file = OUT / f"trace-{workload}-seed{seed}.json"
    trace_file.write_text(json.dumps(summary, indent=1), encoding="utf-8")
    log(f"trace: {traced['spans']} spans, overhead {metrics['trace.overhead_s']:.3f} s, summary in {trace_file}")
    if traced["absent"]:
        log(f"absent from the package (their metrics read 0): {', '.join(traced['absent'])}")
    return [base, traced], metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "serreweights" / "__init__.py").is_file():
        log(f"no package source at {ROOT / 'src' / 'serreweights'}; run from a full checkout")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    OUT.mkdir(exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S

    try:
        if args.trace:
            runs, metrics = traced_runs(args.workload, args.seed, deadline)
        else:
            setup_s = setup_seconds(args.workload, args.seed, deadline)
            runs = untraced_runs(args.workload, args.seed, args.seconds, deadline)
    except ChildFailed as exc:
        log(str(exc))
        return 1

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    for r in runs:
        for why in r["failures"][:10]:
            log(f"FAILED {why}")
    if not args.trace:
        metrics = end_to_end(runs, setup_s, attempted, failed)
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        log(f"metrics declared in BENCHMARK.json but not produced: {missing}")
        return 1
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
