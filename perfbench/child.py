"""One pass of a workload in a fresh interpreter; run.py starts it.

    python3 perfbench/child.py --workload NAME --seed N --out FILE [--trace]
    python3 perfbench/child.py --workload NAME --seed N --setup-only

With --setup-only it imports serreweights.cli, builds the workload's inputs
and exits: the work every CLI call pays before it starts, which run.py times
from outside.  Otherwise it makes one pass of the workload and writes the
result as JSON to FILE; with --trace the package's layer boundaries are
wrapped first, and the result also carries the per-layer metrics and one row
per task.
"""

from __future__ import annotations

import argparse
import json
import os
from pathlib import Path

import workloads


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import serreweights.cli  # noqa: F401

    if args.setup_only:
        workloads.make_inputs(args.workload, args.seed)
        return 0

    tracer = None
    if args.trace:
        import layers
        from tracing import Tracer

        tracer = Tracer(args.out.parent / f"spans-{os.getpid()}", "serreweights")
        layers.install(tracer)
    result = workloads.run(args.workload, args.seed)
    if tracer is not None:
        spans = tracer.collect()
        tracer.span_dir.rmdir()
        result["layers"] = layers.layer_metrics(spans, tracer.main_pid)
        result["tasks"] = layers.task_rows(spans)
        result["absent"] = tracer.absent
        result["spans"] = len(spans)
    args.out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
