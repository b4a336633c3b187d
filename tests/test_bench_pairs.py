"""The summary arithmetic of scripts/bench_pairs.py, on canned run results
(no benchmark is run)."""

import importlib.util
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.24},
    {"name": "requests_per_s", "unit": "1/s", "better": "higher", "bound": 0.24},
]


def _run(side, pair, wall, rate, workload="verify-jobs2", correct=True, failed=0):
    metrics = {"wall_s": {"value": wall, "unit": "s"}, "requests_per_s": {"value": rate, "unit": "1/s"}}
    result = {"correct": correct, "attempted": 10, "failed": failed, "metrics": metrics}
    return {"side": side, "workload": workload, "seed": pair + 1, "trace": 0, "pair": pair, "result": result}


def test_quartiles_inclusive_and_short_lists():
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == {"q1": 2.0, "median": 3.0, "q3": 4.0}
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == {"q1": 1.75, "median": 2.5, "q3": 3.25}
    assert bench_pairs.quartiles([3.0, 1.0, 2.0]) == {"q1": 1.0, "median": 2.0, "q3": 3.0}
    assert bench_pairs.quartiles([7.0]) == {"q1": 7.0, "median": 7.0, "q3": 7.0}


def test_summary_of_ten_pairs_shows_a_gain():
    # the change is faster in 9 of 10 pairs and ties the tenth
    parent = [1.0, 1.1, 1.2, 1.0, 1.1, 1.2, 1.0, 1.1, 1.2, 1.0]
    change = [0.8, 0.9, 0.8, 0.9, 0.8, 0.9, 0.8, 0.9, 0.8, 1.0]
    runs = []
    for pair, (p, c) in enumerate(zip(parent, change), 1):
        # the parent runs first in odd pairs
        sides = [("parent", p), ("change", c)] if pair % 2 else [("change", c), ("parent", p)]
        runs += [_run(side, pair, wall, 2.0 / wall) for side, wall in sides]
    summary = bench_pairs.summarize(runs, END_TO_END)["verify-jobs2"]
    assert (summary["pairs"], summary["correct_all"], summary["failed_total"]) == (10, True, 0)
    wall = summary["wall_s"]
    assert wall["parent"] == {"q1": 1.0, "median": 1.1, "q3": 1.175}
    assert wall["change"] == {"q1": 0.8, "median": 0.85, "q3": 0.9}
    assert wall["change_vs_parent_median"] == round((0.85 - 1.1) / 1.1, 4) == -0.2273
    assert wall["pairs_change_better"] == 9
    assert wall["gain_shown"] is True
    # a rate is better when higher, and the same pairs win
    assert summary["requests_per_s"]["pairs_change_better"] == 9
    assert summary["requests_per_s"]["gain_shown"] is True


def test_summary_needs_ten_pairs_nine_wins_in_ten_and_a_gap_beyond_the_spread():
    def wall(parent, change):
        runs = []
        for pair, (p, c) in enumerate(zip(parent, change), 1):
            runs += [_run("parent", pair, p, 1.0), _run("change", pair, c, 1.0)]
        return bench_pairs.summarize(runs, END_TO_END)["verify-jobs2"]["wall_s"]

    # 8 wins in 10: no gain, however large
    eight = wall([1.0] * 10, [0.5] * 8 + [1.5] * 2)
    assert (eight["pairs_change_better"], eight["gain_shown"]) == (8, False)
    # every pair won, but the medians lie within the parent's quartile spread
    narrow = wall([1.0, 2.0, 3.0, 4.0, 5.0], [0.9, 1.9, 2.9, 3.9, 4.9])
    assert (narrow["pairs_change_better"], narrow["gain_shown"]) == (5, False)
    # every pair won by far, but there are only five of them
    few = wall([1.0, 1.1, 1.0, 1.1, 1.0], [0.5] * 5)
    assert (few["pairs_change_better"], few["gain_shown"]) == (5, False)


def test_summary_counts_only_complete_pairs_and_every_failure():
    runs = [
        _run("parent", 1, 1.0, 1.0), _run("change", 1, 0.9, 1.0, failed=2),
        _run("parent", 2, 1.0, 1.0), _run("change", 2, 1.1, 1.0, correct=False),
        _run("parent", 3, 5.0, 1.0),  # interrupted before its change run
        _run("parent", 1, 0.3, 3.0, workload="datum-mix"),
    ]
    summary = bench_pairs.summarize(runs, END_TO_END)
    assert list(summary) == ["verify-jobs2", "datum-mix"]
    jobs2 = summary["verify-jobs2"]
    assert (jobs2["pairs"], jobs2["correct_all"], jobs2["failed_total"]) == (2, False, 2)
    assert jobs2["wall_s"]["parent"]["median"] == 1.0
    assert jobs2["wall_s"]["pairs_change_better"] == 1
    assert jobs2["requests_per_s"]["pairs_change_better"] == 0  # ties count for neither
    assert summary["datum-mix"] == {"pairs": 0, "correct_all": True, "failed_total": 0}



def test_summary_flags_a_regression_beyond_the_bound_and_noise_wider_than_it():
    def wall(parent, change):
        runs = []
        for pair, (p, c) in enumerate(zip(parent, change), 1):
            runs += [_run("parent", pair, p, 1.0), _run("change", pair, c, 1.0)]
        return bench_pairs.summarize(runs, END_TO_END)["verify-jobs2"]["wall_s"]

    steady = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
    # 0.24 x 1.0 allowed: a median 1.2 is within it, 1.3 beyond it
    within = wall(steady, [x + 0.2 for x in steady])
    assert (within["worse_than_bound"], within["unresolved"]) == (False, False)
    beyond = wall(steady, [x + 0.3 for x in steady])
    assert (beyond["worse_than_bound"], beyond["unresolved"]) == (True, False)
    # a parent spread of 0.5 against an allowed 0.24: unresolved, whatever the medians
    noisy = [0.6, 1.4, 0.7, 1.3, 1.0, 1.0, 0.6, 1.4, 0.7, 1.3]
    same = wall(noisy, noisy[::-1])
    assert (same["worse_than_bound"], same["unresolved"]) == (False, True)
    # unless every change run beats every parent run
    faster = wall(noisy, [0.5] * 10)
    assert (faster["worse_than_bound"], faster["unresolved"]) == (False, False)
    # a rate is worse when lower: 3.0 against a median of 4.0 is 25 % down
    runs = []
    for pair in range(1, 11):
        runs += [_run("parent", pair, 1.0, 4.0), _run("change", pair, 1.0, 3.0)]
    rate = bench_pairs.summarize(runs, END_TO_END)["verify-jobs2"]["requests_per_s"]
    assert (rate["worse_than_bound"], rate["unresolved"]) == (True, False)
