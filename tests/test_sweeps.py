import contextlib
import itertools
from collections import Counter
from types import SimpleNamespace

import pytest

from serreweights import qtable, sweeps
from serreweights.errors import BudgetExceeded, ParamError
from serreweights.irreducible import labeled_weight_set as irred_labeled
from serreweights.irreducible import niveau_two
from serreweights.modarith import FieldParams
from serreweights.reducible import ExtClass, niveau_one
from serreweights.reducible import labeled_weight_set as red_labeled
from serreweights.sweeps import (
    ALL_KINDS,
    estimate_cost,
    plan_tasks,
    verify_sweep,
)

from oracles import as_labeled_set, forced_labeled_irred, forced_labeled_red

SMALL = [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1)]
# every class mod q+1 (or ratio class mod q-1) has many lifts here, so these
# pin a = (k + C[r]) mod (q-1) and the ratio-line tables of the class decode.
# The engine's class decode is the only recipe implementation: these tests
# compare it, through labeled_weight_set, with the definitional oracles.
MANY_PERIODS = [(2, 3), (2, 4), (3, 3)]


@pytest.mark.parametrize("ell,f", SMALL + MANY_PERIODS)
def test_engine_matches_object_level_irred_exhaustive(ell, f):
    p = FieldParams(ell, f)
    for n in range(p.m_big):
        if n % p.m_plus == 0:
            continue
        want = as_labeled_set(forced_labeled_irred(ell, f, n), p)
        assert irred_labeled(niveau_two(p, n)) == want, (ell, f, n)


@pytest.mark.parametrize("ell,f", SMALL + MANY_PERIODS)
def test_engine_matches_object_level_red_exhaustive(ell, f):
    p = FieldParams(ell, f)
    m = max(p.m_minus, 1)
    for n1, n2 in itertools.product(range(m), repeat=2):
        want = as_labeled_set(forced_labeled_red(ell, f, n1, n2), p)
        assert red_labeled(niveau_one(p, n1, n2, ExtClass.SPLIT)) == want, (ell, f, n1, n2)


@pytest.mark.parametrize("ell,f", [(7, 3), (11, 2), (13, 2), (2, 4), (3, 4)])
def test_engine_matches_object_level_sampled_large(ell, f):
    p = FieldParams(ell, f)
    step = max(1, p.m_big // 60)
    for n in range(1, p.m_big, step):
        if n % p.m_plus == 0:
            continue
        want = as_labeled_set(forced_labeled_irred(ell, f, n), p)
        assert irred_labeled(niveau_two(p, n)) == want, (ell, f, n)
    m = max(p.m_minus, 1)
    step = max(1, m // 12)
    for n1 in range(0, m, step):
        for n2 in range(0, m, step):
            want = as_labeled_set(forced_labeled_red(ell, f, n1, n2), p)
            assert red_labeled(niveau_one(p, n1, n2, ExtClass.SPLIT)) == want, (ell, f, n1, n2)


def test_plan_tasks_and_cost():
    tasks = plan_tasks([3, 2], 2)
    assert tasks == [(2, 1), (2, 2), (3, 1), (3, 2)]
    assert estimate_cost(tasks) == 4 + 16 + 9 + 81
    capped = plan_tasks([2, 3, 5, 7, 11, 13], 4, space_cap=10**7)
    assert (7, 4) in capped and (11, 4) not in capped and (13, 4) not in capped
    assert (11, 3) in capped and (13, 3) in capped
    assert len(capped) == 22


def test_budget_guard():
    with pytest.raises(BudgetExceeded):
        verify_sweep("counts-irred", [13], 3, budget=100)
    # a passing run right at the edge is fine
    r = verify_sweep("counts-irred", [2], 1, budget=4)
    assert r.passed


def test_engine_size_guard():
    with pytest.raises(ParamError):
        verify_sweep("counts-irred", [13], 6, budget=10**30)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_all_kinds_pass_on_small_range(kind):
    r = verify_sweep(kind, [2, 3, 5], 2, budget=10**6)
    assert r.passed, r.to_dict()
    assert r.mismatches == []
    assert r.checked > 0
    d = r.to_dict()
    assert d["kind"] == kind
    assert "elapsed_s" not in d  # timing kept out of the deterministic payload


def test_reports_deterministic_and_parallel_identical():
    a = verify_sweep("counts-irred", [2, 3, 5], 2, budget=10**6, jobs=1)
    b = verify_sweep("counts-irred", [5, 3, 2], 2, budget=10**6, jobs=2)
    assert a.to_dict() == b.to_dict()
    c = verify_sweep("symmetry", [2, 3], 2, budget=10**6, jobs=2)
    d = verify_sweep("symmetry", [2, 3], 2, budget=10**6, jobs=1)
    assert c.to_dict() == d.to_dict()


def test_unknown_kind_rejected():
    with pytest.raises(ParamError):
        verify_sweep("counts-bogus", [3], 1, budget=10**6)


def test_irred_chunks_cover_valid_n_with_capped_cells():
    p = FieldParams(2, 8)
    chunks = list(sweeps._valid_irred_chunks(p))
    assert max(len(N) for N in chunks) << p.f <= sweeps._CHUNK << 4
    covered = [int(n) for N in chunks for n in N]
    assert covered == [n for n in range(p.m_big) if n % p.m_plus]


@pytest.mark.parametrize(
    "jobs,cpus,expected",
    [(5000, 2, [2]), (5000, 64, [3]), (2, 64, [2]), (3, 1, []), (1, 64, [])],
)
def test_worker_pool_bounded_by_tasks_and_cpus(monkeypatch, jobs, cpus, expected):
    sizes = []

    def recording_pool(max_workers):
        # records the pool size, then maps serially: no process is started
        sizes.append(max_workers)
        return contextlib.nullcontext(SimpleNamespace(map=map))

    monkeypatch.setattr(sweeps, "ProcessPoolExecutor", recording_pool)
    monkeypatch.setattr(sweeps.os, "cpu_count", lambda: cpus)
    r = verify_sweep("counts-irred", [2, 3, 5], 1, budget=10**6, jobs=jobs)
    assert sizes == expected
    assert r.to_dict() == verify_sweep("counts-irred", [2, 3, 5], 1, budget=10**6).to_dict()


def test_qtable_crosscheck_surfaces_unexpected_errors(monkeypatch):
    # only an illegal shape may be skipped; any other error is a bug to report
    def broken(*args, **kwargs):
        raise RuntimeError("broken shape constructor")

    monkeypatch.setattr(qtable, "RationalShape", broken)
    with pytest.raises(RuntimeError):
        verify_sweep("qtable-crosscheck", [5], 1, budget=10**6)


def _clear_table_caches():
    for fn in vars(sweeps).values():
        if hasattr(fn, "cache_clear"):
            fn.cache_clear()


@pytest.fixture
def fresh_tables():
    # a corrupted table must never stay cached for later tests
    _clear_table_caches()
    yield
    _clear_table_caches()


def _corrupt_irred(which):
    admissible, C, bcode = (t.copy() for t in sweeps._irred_tables(3, 3))
    if which == "C":
        C[5, 3] = (C[5, 3] + 1) % 26
    elif which == "bcode":
        bcode[5, 3] += 1
    else:
        admissible[5, 3] = not admissible[5, 3]
    return admissible, C, bcode


@pytest.mark.parametrize("which", ["C", "bcode", "admissible"])
def test_symmetry_catches_corrupted_irred_table(monkeypatch, fresh_tables, which):
    tables = _corrupt_irred(which)
    _clear_table_caches()
    monkeypatch.setattr(sweeps, "_irred_tables", lambda ell, f: tables)
    checked, mism, bad = sweeps._run_symmetry(3, 3)
    assert checked == 702 + 4 * 26
    assert bad == 104
    assert len(mism) == 25
    assert all(w["check"] == "conjugation-irred" for w in mism)
    assert [w["n"] for w in mism[:3]] == [5, 23, 33]
    # 52 conjugation and 52 frobenius failures; twist is an identity of the tables
    monkeypatch.setattr(sweeps, "_MAX_WITNESSES", 10**6)
    failing = Counter(w["check"] for w in sweeps._run_symmetry(3, 3)[1])
    assert failing == {"conjugation-irred": 52, "frobenius-irred": 52}


def test_symmetry_catches_corrupted_red_table(monkeypatch, fresh_tables):
    doubled, s_in, bcode = (t.copy() for t in sweeps._red_tables(3, 3))
    s_in[4, 2, 0] += 1
    _clear_table_caches()
    monkeypatch.setattr(sweeps, "_red_tables", lambda ell, f: (doubled, s_in, bcode))
    checked, mism, bad = sweeps._run_symmetry(3, 3)
    assert checked == 702 + 4 * 26
    assert bad == 4
    assert [(w["check"], w["n"]) for w in mism] == [
        ("swap-red", 4),
        ("swap-red", 22),
        ("frobenius-red", 4),
        ("frobenius-red", 10),
    ]
