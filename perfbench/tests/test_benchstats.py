"""Fast tests of the benchmark's own arithmetic, on synthetic inputs.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from benchstats import (  # noqa: E402
    children_index,
    descendants,
    failed_share,
    min_samples_for,
    quartile_spread,
    self_times,
    tail_percentile,
    tail_rank,
)
from layers import layer_metrics  # noqa: E402
from workloads import MIN_REQUESTS, PAIRS, make_deck  # noqa: E402


# --- percentile rule --------------------------------------------------------


def test_p99_needs_ten_samples_beyond():
    assert tail_rank(1000, 99) == (990, 10)
    assert tail_rank(999, 99) == (990, 9)
    assert min_samples_for(99) == 1000 == MIN_REQUESTS


def test_tail_percentile_at_1000_samples():
    samples = [float(i) for i in range(1, 1001)]
    value, beyond = tail_percentile(samples[::-1], 99)
    assert (value, beyond) == (990.0, 10)
    assert sum(1 for s in samples if s > value) == 10


def test_tail_percentile_falls_back_to_max_when_too_few():
    value, beyond = tail_percentile([3.0, 1.0, 2.0], 99)
    assert (value, beyond) == (3.0, 0)
    value, beyond = tail_percentile([float(i) for i in range(999)], 99)
    assert (value, beyond) == (998.0, 0)


def test_tail_percentile_rejects_no_samples():
    with pytest.raises(ValueError):
        tail_percentile([], 99)


def test_quartile_spread():
    assert quartile_spread([10.0] * 10) == 0.0
    assert quartile_spread([9.0, 10.0, 10.0, 11.0]) == pytest.approx(
        (10.75 - 9.25) / 10.0
    )


# --- self time --------------------------------------------------------------


def span(pid, sid, parent, name, t0, t1, attrs=None):
    return (pid, sid, parent, name, t0, t1, attrs)


def test_self_time_subtracts_nested_children_once():
    spans = [
        span(1, 0, None, "root", 0.0, 10.0),
        span(1, 1, 0, "a", 1.0, 4.0),
        span(1, 2, 1, "a.leaf", 2.0, 3.0),  # grandchild: charged to a, not root
        span(1, 3, 0, "b", 5.0, 6.5),
    ]
    st = self_times(spans)
    assert st[(1, 0)] == pytest.approx(10.0 - 3.0 - 1.5)
    assert st[(1, 1)] == pytest.approx(3.0 - 1.0)
    assert st[(1, 2)] == pytest.approx(1.0)
    assert st[(1, 3)] == pytest.approx(1.5)
    assert sum(st.values()) == pytest.approx(10.0)


def test_self_time_counts_overlap_and_overhang_once():
    spans = [
        span(1, 0, None, "root", 0.0, 10.0),
        span(1, 1, 0, "x", 2.0, 6.0),
        span(1, 2, 0, "y", 4.0, 8.0),  # overlaps x by 2
        span(1, 3, 0, "z", 9.0, 12.0),  # runs past the parent's end
    ]
    assert self_times(spans)[(1, 0)] == pytest.approx(10.0 - 6.0 - 1.0)


def test_self_time_keeps_processes_apart():
    spans = [
        span(1, 0, None, "sweep", 0.0, 10.0),
        span(2, 0, None, "task", 1.0, 9.0),  # same sid, other process
        span(2, 1, 0, "kernel", 2.0, 5.0),
    ]
    st = self_times(spans)
    assert st[(1, 0)] == pytest.approx(10.0)
    assert st[(2, 0)] == pytest.approx(5.0)
    kids = children_index(spans)
    assert descendants(kids, (2, 0)) == [spans[2]]
    assert descendants(kids, (1, 0)) == []


def test_layer_metrics_from_synthetic_pool_run():
    verify = {"kind": "symmetry", "jobs": 2}
    spans = [
        span(1, 0, None, "sweeps.verify_sweep", 0.0, 10.0, verify),
        span(2, 0, None, "sweeps.task", 0.0, 6.0, {"kind": "symmetry", "ell": 7, "f": 3}),
        span(2, 1, 0, "sweeps.kernel_irred", 1.0, 5.0, {"rows": 100, "cols": 8}),
        span(2, 2, 1, "sweeps.decode", 1.5, 4.5, {"values": 100}),
        span(3, 0, None, "sweeps.task", 0.0, 9.0, {"kind": "symmetry", "ell": 5, "f": 4}),
        span(3, 1, 0, "sweeps.scan_irred", 1.0, 2.0, {"miss": True}),
        span(3, 2, 0, "sweeps.scan_irred", 2.0, 2.5, {"miss": False}),
        span(3, 3, 0, "sweeps.scan_red", 3.0, 3.5, {"miss": False}),
    ]
    m = layer_metrics(spans, main_pid=1)
    assert m["sweeps.kernel_irred.s"] == pytest.approx(1.0)
    assert m["sweeps.decode.s"] == pytest.approx(3.0)
    assert m["sweeps.kernel_irred.cells"] == 800
    assert m["sweeps.kernel.max_chunk_bytes"] == 800 * 17
    assert m["sweeps.kind.symmetry.s"] == pytest.approx(10.0)
    assert m["sweeps.pool.busy_s"] == pytest.approx(15.0)
    assert m["sweeps.pool.idle_s"] == pytest.approx(2 * 10.0 - 15.0)
    assert m["sweeps.task.max_s"] == pytest.approx(9.0)
    assert m["sweeps.scan.builds"] == 1
    assert m["sweeps.scan.reuse_ratio"] == pytest.approx(2 / 3)


# --- failure accounting -----------------------------------------------------


def test_failed_share_counts():
    assert failed_share(9, 0) == 0.0
    assert failed_share(9, 3) == pytest.approx(1 / 3)
    assert failed_share(1431, 1431) == 1.0


@pytest.mark.parametrize("attempted, failed", [(0, 0), (5, 6), (5, -1)])
def test_failed_share_rejects_impossible_counts(attempted, failed):
    with pytest.raises(ValueError):
        failed_share(attempted, failed)


# --- inputs -----------------------------------------------------------------


def test_deck_is_seeded_and_balanced():
    assert len(PAIRS) == 47
    a, b, c = make_deck(7), make_deck(7), make_deck(8)
    assert a == b and a != c
    # the same requests of each command, field and format, whatever the seed
    def shape(deck):
        return sorted(
            r.argv[:5] + (r.argv[r.argv.index("--format") + 1],)
            for r in deck
            if r.argv[0] in ("irred", "red")
        )

    assert shape(a) == shape(c)


# --- gates ------------------------------------------------------------------


ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def oracles():
    for p in (ROOT / "src", ROOT / "tests"):
        if str(p) not in sys.path:
            sys.path.insert(0, str(p))
    import oracles

    return oracles


def _labeled_json(rows, ell, f):
    import json

    return json.dumps(
        [
            {"weight": {"ell": ell, "f": f, "a": a, "b": list(b)}, "B": [i for i in range(f) if B >> i & 1]}
            for a, b, B in sorted(rows)
        ]
    )


def test_labeled_gate_accepts_the_brute_force_set(oracles):
    from workloads import check_labeled

    req = ("irred", 3, 2, 5)
    rows = oracles.brute_labeled_irred(3, 2, 5)
    assert check_labeled(req, _labeled_json(rows, 3, 2)) is None
    req = ("red", 2, 3, 4, 1)
    rows = oracles.brute_labeled_red(2, 3, 4, 1)
    payload = '{"certain": [], "possible": [], "labeled": %s}' % _labeled_json(rows, 2, 3)
    assert check_labeled(req, payload) is None


def test_labeled_gate_rejects_wrong_missing_and_repeated_triples(oracles):
    from workloads import check_labeled

    req = ("irred", 3, 2, 5)
    rows = sorted(oracles.brute_labeled_irred(3, 2, 5))
    a, b, B = rows[0]
    bad_a = [((a + 1) % 8, b, B)] + rows[1:]
    assert "congruence" in check_labeled(req, _labeled_json(bad_a, 3, 2))
    assert "brute-force" in check_labeled(req, _labeled_json(rows[1:], 3, 2))
    assert "repeated" in check_labeled(req, _labeled_json(rows + rows[:1], 3, 2))


class _Report:
    def __init__(self, payload):
        self.payload = payload
        self.checked = payload["checked"]
        self.mismatch_count = payload["mismatch_count"]

    def to_dict(self):
        return self.payload


def test_verify_gate_pins_checked_and_payload():
    import json

    from workloads import ACCEPTANCE_SCALE, check_report

    good = json.loads(ACCEPTANCE_SCALE.expected_payload("symmetry"))
    assert check_report(ACCEPTANCE_SCALE, "symmetry", _Report(good)) is None
    assert check_report(ACCEPTANCE_SCALE, "symmetry", _Report(dict(good, checked=1))) is not None
    assert check_report(ACCEPTANCE_SCALE, "symmetry", RuntimeError("boom")) is not None
    assert len(good["tasks"]) == 20


# --- tracer -----------------------------------------------------------------


def test_tracer_patches_importers_and_registries(tmp_path, monkeypatch):
    import types

    from tracing import Tracer

    mod = types.ModuleType("fakepkg.mod")
    user = types.ModuleType("fakepkg.user")

    def leaf(x):
        return x + 1

    def outer(x):
        return mod.leaf(x) * 2

    mod.leaf, mod.outer, mod.REGISTRY = leaf, outer, {"k": leaf}
    user.leaf = leaf  # as after `from .mod import leaf`
    for name, m in (("fakepkg", types.ModuleType("fakepkg")), ("fakepkg.mod", mod), ("fakepkg.user", user)):
        monkeypatch.setitem(sys.modules, name, m)

    tracer = Tracer(tmp_path / "spans", "fakepkg")
    assert tracer.patch("mod", "leaf", "leaf", attrs=lambda a, k, r: {"x": a[0]})
    assert tracer.patch("mod", "outer", "outer")
    assert not tracer.patch("mod", "gone", "gone")
    assert tracer.absent == ["mod.gone"]
    assert user.leaf is mod.leaf is mod.REGISTRY["k"] is not leaf

    assert mod.outer(1) == 4 and user.leaf(5) == 6
    spans = tracer.collect()
    assert [(sp[3], sp[6]) for sp in spans] == [("leaf", {"x": 1}), ("outer", None), ("leaf", {"x": 5})]
    pid = spans[0][0]
    assert spans[0][2] == spans[1][1] and spans[1][2] is None and spans[2][2] is None
    st = self_times(spans)
    outer_dur = spans[1][5] - spans[1][4]
    leaf_dur = spans[0][5] - spans[0][4]
    assert st[(pid, spans[1][1])] == pytest.approx(outer_dur - leaf_dur)
