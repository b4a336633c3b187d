"""Which package functions the traced run wraps, and how their spans become
the per-layer metrics named in BENCHMARK.json.

Every `.s` metric is self time (span duration minus the time its child spans
cover), summed over all processes, except `sweeps.kind.<kind>.s` and
`sweeps.task.max_s`, which are whole-call durations, and the pool metrics.
"""

from __future__ import annotations

import inspect
from collections import defaultdict

from benchstats import children_index, descendants, self_times
from tracing import Tracer

KINDS = (
    "counts-irred",
    "counts-red",
    "injectivity-irred",
    "injectivity-red",
    "det-law",
    "symmetry",
    "nonempty",
    "generic-split",
    "qtable-crosscheck",
)

# Bytes the kernels allocate per (row, subset) cell for their outputs: a bool
# admissibility / doubling flag plus int64 a and digit codes, one slot on the
# irreducible side and two on the reducible side.
IRRED_CELL_BYTES = 1 + 8 + 8
RED_CELL_BYTES = 1 + 2 * 8 + 2 * 8


def _verify_attrs(fn):
    sig = inspect.signature(fn)

    def attrs(args, kwargs, result):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return {"kind": bound.arguments["kind"], "jobs": bound.arguments["jobs"]}

    return attrs


def _task_attrs(args, kwargs, result):
    kind, ell, f = args[0]
    return {"kind": kind, "ell": ell, "f": f}


def _kernel_attrs(args, kwargs, result):
    return {"rows": len(args[1]), "cols": 1 << args[0].f}


def _decode_attrs(args, kwargs, result):
    return {"values": int(args[0].size)}


# (module, attribute, span name); the sweep engine internals are wrapped by
# name, and a name missing from the package is reported as absent.
SIMPLE = (
    ("sweeps", "_irred_kernel", "sweeps.kernel_irred", _kernel_attrs),
    ("sweeps", "_red_kernel", "sweeps.kernel_red", _kernel_attrs),
    ("sweeps", "_decode", "sweeps.decode", _decode_attrs),
    ("sweeps", "_distinct_counts", "sweeps.distinct", None),
    ("sweeps", "_run_one", "sweeps.task", _task_attrs),
    ("irreducible", "labeled_weight_set", "irreducible.labeled_weight_set", None),
    ("irreducible", "injectivity_witness", "irreducible.injectivity_witness", None),
    ("reducible", "labeled_weight_set", "reducible.labeled_weight_set", None),
    ("reducible", "injectivity_witness", "reducible.injectivity_witness", None),
    ("reducible", "weight_sets_partial", "reducible.weight_sets_partial", None),
    ("reducible", "dim_report", "reducible.dim_report", None),
    ("modarith", "signed_digit_solve", "modarith.signed_digit_solve", None),
    ("qtable", "weights_over_Q", "qtable.weights_over_Q", None),
    ("global_weights", "global_weight_set", "global_weights.global_weight_set", None),
    ("local_factors", "classify_local_factor", "local_factors.classify_local_factor", None),
    ("cli", "main", "cli.main", None),
)
CACHED = (
    ("sweeps", "_irred_scan", "sweeps.scan_irred"),
    ("sweeps", "_red_scan", "sweeps.scan_red"),
    ("sweeps", "_closed_irred_lut", "sweeps.closed_form"),
    ("sweeps", "_inj_irred_lut", "sweeps.closed_form"),
    ("sweeps", "_closed_red_lut", "sweeps.closed_form"),
    ("sweeps", "_inj_red_lut", "sweeps.closed_form"),
    ("sweeps", "_generic_lut", "sweeps.closed_form"),
)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary of the (already imported) package."""
    import serreweights.cli  # noqa: F401  (loads every module of the package)
    from serreweights import sweeps

    tracer.patch("sweeps", "verify_sweep", "sweeps.verify_sweep", _verify_attrs(sweeps.verify_sweep))
    for module, attr, name, attrs in SIMPLE:
        tracer.patch(module, attr, name, attrs)
    for module, attr, name in CACHED:
        tracer.patch(module, attr, name, cached=True)
    # the per-kind runners are the compare step: their self time is what is
    # left once scans, kernels and closed-form tables are taken out
    runners = getattr(sweeps, "_KIND_RUNNERS", None)
    if runners is None:
        tracer.absent.append("sweeps._KIND_RUNNERS")
        return
    for fn in {id(fn): fn for fn in runners.values()}.values():
        tracer.patch("sweeps", fn.__name__, "sweeps.runner")


# span name -> metric name for self time
SELF_METRICS = {
    "sweeps.kernel_irred": "sweeps.kernel_irred.s",
    "sweeps.decode": "sweeps.decode.s",
    "sweeps.kernel_red": "sweeps.kernel_red.s",
    "sweeps.distinct": "sweeps.distinct.s",
    "sweeps.scan_irred": "sweeps.scan_irred.s",
    "sweeps.scan_red": "sweeps.scan_red.s",
    "sweeps.closed_form": "sweeps.closed_form.s",
    "sweeps.runner": "sweeps.compare.s",
    "irreducible.injectivity_witness": "irreducible.injectivity_witness.s",
    "reducible.injectivity_witness": "reducible.injectivity_witness.s",
    "reducible.weight_sets_partial": "reducible.weight_sets_partial.s",
    "cli.main": "cli.self.s",
    "irreducible.labeled_weight_set": "irreducible.labeled_weight_set.s",
    "reducible.labeled_weight_set": "reducible.labeled_weight_set.s",
    "modarith.signed_digit_solve": "modarith.signed_digit_solve.s",
    "qtable.weights_over_Q": "qtable.weights_over_Q.s",
    "global_weights.global_weight_set": "global_weights.global_weight_set.s",
    "local_factors.classify_local_factor": "local_factors.classify_local_factor.s",
}
# span name -> metric name for the number of calls
CALL_METRICS = {
    "reducible.dim_report": "reducible.dim_report.calls",
    "irreducible.labeled_weight_set": "irreducible.labeled_weight_set.calls",
    "modarith.signed_digit_solve": "modarith.signed_digit_solve.calls",
}


def layer_metrics(spans: list[tuple], main_pid: int) -> dict[str, float]:
    """Per-layer metrics from the merged spans of one traced pass.  Task
    spans outside main_pid ran in pool workers."""
    selft = self_times(spans)
    by_name: dict[str, list[tuple]] = defaultdict(list)
    for sp in spans:
        by_name[sp[3]].append(sp)

    def dur(sp):
        return sp[5] - sp[4]

    m: dict[str, float] = {}
    for span_name, metric in SELF_METRICS.items():
        m[metric] = sum(selft[(sp[0], sp[1])] for sp in by_name[span_name])
    for span_name, metric in CALL_METRICS.items():
        m[metric] = len(by_name[span_name])

    kernels = (("sweeps.kernel_irred", IRRED_CELL_BYTES), ("sweeps.kernel_red", RED_CELL_BYTES))
    for name, _ in kernels:
        m[f"{name}.cells"] = sum(sp[6]["rows"] * sp[6]["cols"] for sp in by_name[name] if sp[6])
    # computed from the kernels' output shapes, not measured
    m["sweeps.kernel.max_chunk_bytes"] = max(
        (sp[6]["rows"] * sp[6]["cols"] * per_cell for name, per_cell in kernels for sp in by_name[name] if sp[6]),
        default=0,
    )
    m["sweeps.decode.values"] = sum(sp[6]["values"] for sp in by_name["sweeps.decode"] if sp[6])

    sweeps_by_kind: dict[str, float] = defaultdict(float)
    pool_wall = 0.0
    for sp in by_name["sweeps.verify_sweep"]:
        if sp[6]:
            sweeps_by_kind[sp[6]["kind"]] += dur(sp)
            if sp[6]["jobs"] > 1:
                pool_wall += sp[6]["jobs"] * dur(sp)
    for kind in KINDS:
        m[f"sweeps.kind.{kind}.s"] = sweeps_by_kind.get(kind, 0.0)

    scans = by_name["sweeps.scan_irred"] + by_name["sweeps.scan_red"]
    builds = sum(1 for sp in scans if sp[6] and sp[6]["miss"])
    m["sweeps.scan.builds"] = builds
    m["sweeps.scan.reuse_ratio"] = (len(scans) - builds) / len(scans) if scans else 0.0

    tasks = by_name["sweeps.task"]
    busy = sum(dur(sp) for sp in tasks if sp[0] != main_pid)
    m["sweeps.pool.busy_s"] = busy
    m["sweeps.pool.idle_s"] = pool_wall - busy if pool_wall else 0.0
    m["sweeps.task.max_s"] = max((dur(sp) for sp in tasks), default=0.0)
    return m


def task_rows(spans: list[tuple]) -> list[dict]:
    """One row per (kind, ell, f) task: its wall time and the self time of
    each layer below it."""
    selft = self_times(spans)
    kids = children_index(spans)
    rows = []
    for sp in spans:
        if sp[3] != "sweeps.task" or not sp[6]:
            continue
        layers: dict[str, float] = defaultdict(float)
        for d in descendants(kids, (sp[0], sp[1])):
            layers[d[3]] += selft[(d[0], d[1])]
        rows.append(
            {
                **sp[6],
                "pid": sp[0],
                "start_s": sp[4],
                "wall_s": sp[5] - sp[4],
                "self_s": selft[(sp[0], sp[1])],
                "layers_s": dict(sorted(layers.items())),
            }
        )
    rows.sort(key=lambda r: r["start_s"])
    return rows
