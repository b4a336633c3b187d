import contextlib
import itertools
import json
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from serreweights import irreducible, qtable, reducible, sweeps
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
from serreweights.weights import canonical_weight, weight_sort_key

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
    # the first field over the cap ends each ell's run, before (2, 31) would
    # pass the 2^62 modulus cap and before a huge f_max could spin
    assert plan_tasks([2], 40, space_cap=1000) == [(2, 1), (2, 2), (2, 3), (2, 4)]
    assert plan_tasks([3, 2], 10**18, space_cap=100) == [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]
    # with no cap, a field past the modulus cap is still refused
    with pytest.raises(ParamError, match="exceeds the 2\\^62 cap"):
        plan_tasks([2], 40)
    # ell is validated even where no field would be planned
    with pytest.raises(ParamError, match="ell = 4 is not prime"):
        plan_tasks([4], 40, space_cap=1)


def test_budget_guard():
    with pytest.raises(BudgetExceeded):
        verify_sweep("counts-irred", [13], 3, budget=100)
    # a passing run right at the edge is fine
    r = verify_sweep("counts-irred", [2], 1, budget=4)
    assert r.passed
    assert verify_sweep("counts-irred", [2], 1, budget=float("inf")).passed
    with pytest.raises(BudgetExceeded):
        verify_sweep("counts-irred", [2], 1, budget=float("nan"))


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


def _grid(side, p):
    """(rows, width, cells) of the grid that side's scans cut into blocks:
    n = k (q+1) + r at (k, r) with 2^f cells, or (n1, n2) with 2^(f+1)."""
    if side == "irred":
        return p.m_minus, p.m_plus, 1 << p.f
    return p.m_minus, p.m_minus, 2 << p.f


# data per chunk as a function of the grid's width, or None for _CHUNK as is
_PER_CHUNK = {
    "chunk": None,
    "pieces": lambda w: w // 4,  # a row cut into about four pieces
    "uneven-pieces": lambda w: w // 3 + 1,  # into pieces of a row, the last one shorter
    "just-wider": lambda w: w - 1,  # each row just wider than a chunk, as at (2, 9)
    "just-narrower": lambda w: w + 1,
    "rows": lambda w: 5 * w // 2,  # blocks of whole rows, the last cut short
    "datum": lambda w: 1,  # a chunk of one datum's cells
}


@pytest.mark.parametrize("side", ["irred", "red"])
@pytest.mark.parametrize(
    "ell,f,per_chunk",
    [(ell, f, key) for ell, f in ((3, 3), (2, 6)) for key in _PER_CHUNK] + [(2, 9, "chunk")],
)
def test_blocks_tile_the_grid_within_the_bound(monkeypatch, side, ell, f, per_chunk):
    # both sides' blocks and shards come from one rule: the blocks of the
    # shards, in order, are every datum of the grid once, row by row, and
    # each holds fewer than 1.5 chunks of data plus one; a row that is less
    # than 1.5 chunks wide is never cut, so (2, 9), whose 513-wide k rows
    # are just wider than its 512-n chunks, runs one block per k row
    p = FieldParams(ell, f)
    height, width, cells = _grid(side, p)
    if _PER_CHUNK[per_chunk]:
        monkeypatch.setattr(sweeps, "_CHUNK", _PER_CHUNK[per_chunk](width) * cells)
    data = max(1, sweeps._CHUNK // cells)
    blocks = [b for shard in sweeps._shards(height, width, cells) for b in sweeps._blocks(shard, width, cells)]
    covered = [(i, j) for rows, cols in blocks for i in rows for j in cols]
    assert covered == list(itertools.product(range(height), range(width)))
    assert all(len(rows) * len(cols) < 1.5 * data + 1 for rows, cols in blocks)
    if 2 * width < 3 * data:
        assert all(len(cols) == width for _, cols in blocks)
    if (ell, f) == (2, 9) and side == "irred":
        assert len(blocks) == height == 511
    if side == "irred" and p.m_big < 10**4:
        # each block's n, and only those of class 0 are not valid
        for ks, rs in blocks:
            _, n, valid, distinct, _, _ = sweeps._irred_block(p, ks, rs)
            assert n.tolist() == [[k * p.m_plus + r for r in rs] for k in ks]
            assert valid.tolist() == [[r != 0 for r in rs] for _ in ks]
            assert distinct.shape == n.shape
    if side == "red" and p.m_big < 10**4:
        # each block's pairs (n1, n1 - c mod q-1), with what one whole-grid
        # evaluation holds at them: valid, a, bcode, n2, labeled, closed and
        # the det law, per cell, per class or per pair
        n1 = np.arange(height)[:, np.newaxis]
        whole = sweeps._pairs(p, n1, slice(None))
        assert whole[3].tolist() == [[(i - c) % width for c in range(width)] for i in range(height)]

        def per_pair(x, shape):
            return np.broadcast_to(x, x.shape[:-2] + shape)

        for n1s, cs in blocks:
            block = sweeps._pairs(p, n1[n1s.start : n1s.stop], slice(cs.start, cs.stop))
            for got, want in zip(block, whole):
                want = per_pair(want, (height, width))[..., n1s.start : n1s.stop, cs.start : cs.stop]
                assert np.array_equal(per_pair(got, (len(n1s), len(cs))), want)


def _record_pools(monkeypatch, cpus):
    """The sizes of the pools verify_sweep asks for on cpus CPUs; each pool
    then maps serially, so no process is started."""
    sizes = []

    def recording_pool(max_workers):
        sizes.append(max_workers)
        return contextlib.nullcontext(SimpleNamespace(map=map))

    monkeypatch.setattr(sweeps, "ProcessPoolExecutor", recording_pool)
    monkeypatch.setattr(sweeps.os, "cpu_count", lambda: cpus)
    return sizes


@pytest.mark.parametrize(
    "jobs,cpus,expected",
    [(5000, 2, [2]), (5000, 64, [3]), (2, 64, [2]), (3, 1, []), (1, 64, [])],
)
def test_worker_pool_bounded_by_tasks_and_cpus(monkeypatch, fresh_tables, jobs, cpus, expected):
    # cold caches: a task whose scan this process holds is a lookup, and no
    # pool is sized for it
    sizes = _record_pools(monkeypatch, cpus)
    r = verify_sweep("counts-irred", [2, 3, 5], 1, budget=10**6, jobs=jobs)
    assert sizes == expected
    assert r.to_dict() == verify_sweep("counts-irred", [2, 3, 5], 1, budget=10**6).to_dict()


# the builders of each kind's scans, in the order its witnesses come
_SCAN_ORDER = {
    "counts-irred": ["_build_irred_scan"],
    "injectivity-irred": ["_build_irred_scan"],
    "counts-red": ["_build_red_scan", "_build_grid_scan"],
    "injectivity-red": ["_build_red_scan"],
    "generic-split": ["_build_red_scan"],
    "det-law": ["_build_irred_scan", "_build_red_scan"],
    "nonempty": ["_build_irred_scan", "_build_red_scan"],
    "symmetry": ["_build_irred_scan", "_build_red_scan"],
    "qtable-crosscheck": ["_build_qtable_scan"],
}


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_scan_keys_in_witness_order(monkeypatch, fresh_tables, kind):
    # small chunks (8 n, 4 pairs) and shards cut (3, 2) into eight shards of
    # one k row and eight of one n1 row; the ratio line comes first for
    # counts-red and last for det-law, nonempty and symmetry
    monkeypatch.setattr(sweeps, "_CHUNK", 8 << 2)
    monkeypatch.setattr(sweeps, "_SHARD_CELLS", 64)
    p = FieldParams(3, 2)
    keys = sweeps._scan_keys(kind, 3, 2)
    assert [b for b, _ in itertools.groupby(key[0] for key in keys)] == _SCAN_ORDER[kind]
    assert all(kind in sweeps._scan(key) for key in keys)
    for builder, stop, count in (("_build_irred_scan", p.m_minus, 8), ("_build_grid_scan", p.m_minus, 8)):
        runs = [key[-1] for key in keys if key[0] == builder]
        if builder in _SCAN_ORDER[kind]:
            # increasing, and together the whole range
            assert len(runs) == count
            assert [r.start for r in runs] == [0] + [r.stop for r in runs[:-1]]
            assert runs[-1].stop == stop


def test_held_scans_run_without_a_pool(monkeypatch, fresh_tables):
    # (7, 1) in six shards of one k row: counts-irred builds their scans in
    # a pool; the next kinds only read them (and build one ratio line), so
    # they run in this process, with the serial reports
    sizes = _record_pools(monkeypatch, 2)
    monkeypatch.setattr(sweeps, "_CHUNK", 8 << 1)  # chunks of 8 n, one k row
    monkeypatch.setattr(sweeps, "_SHARD_CELLS", 16)
    assert len(sweeps._shards(*_grid("irred", FieldParams(7, 1)))) == 6
    assert verify_sweep("counts-irred", [7], 1, jobs=2).passed
    assert sizes == [2]
    for kind in ("injectivity-irred", "det-law", "symmetry", "nonempty"):
        report = verify_sweep(kind, [7], 1, jobs=2)
        assert report.to_dict() == verify_sweep(kind, [7], 1).to_dict()
    assert sizes == [2]
    _clear_table_caches()
    assert verify_sweep("det-law", [7], 1, jobs=2).passed
    assert sizes == [2, 2]


def test_only_kinds_with_work_of_their_own_fork_a_pool(monkeypatch, fresh_tables):
    # under `verify all --jobs 2` every kind but these reads the scans that
    # counts-irred and counts-red built, and qtable-crosscheck's scans cost
    # less than a fork, so those kinds run in this process
    sizes = _record_pools(monkeypatch, 2)
    forked = []
    for kind in ALL_KINDS:
        pools = len(sizes)
        report = verify_sweep(kind, [2, 3], 2, jobs=2)
        assert report.passed
        if len(sizes) > pools:
            forked.append(kind)
    assert forked == ["counts-irred", "counts-red"]
    assert sizes == [2, 2]


def test_qtable_crosscheck_surfaces_unexpected_errors(monkeypatch, fresh_tables):
    # only an illegal shape may be skipped; any other error is a bug to report
    # (on cold caches: a cached qtable scan would not build the shapes again)
    def broken(*args, **kwargs):
        raise RuntimeError("broken shape constructor")

    monkeypatch.setattr(qtable, "RationalShape", broken)
    with pytest.raises(RuntimeError):
        verify_sweep("qtable-crosscheck", [5], 1, budget=10**6)


def _V5(a, b):
    return canonical_weight(a, (b,), FieldParams(5, 1))


@pytest.mark.parametrize(
    "check, b, kind, mutate",
    [
        ("niveau2", 2, "NIVEAU2", lambda ws: set(sorted(ws, key=weight_sort_key)[1:])),
        ("split", 2, "SPLIT", lambda ws: set(sorted(ws, key=weight_sort_key)[1:])),
        ("sandwich-nonsplit-generic", 2, "NONSPLIT_GENERIC", lambda ws: set()),
        ("sandwich-peu", 1, "PEU", lambda ws: ws | {_V5(2, 2)}),
        ("sandwich-tres", 1, "TRES", lambda ws: set()),
        ("tres-subset-peu", 1, "TRES", lambda ws: ws | {_V5(1, 3)}),
    ],
)
def test_every_qtable_crosscheck_label_can_fail(monkeypatch, fresh_tables, check, b, kind, mutate):
    # one wrong row of the ell = 5 table trips its own check and no other
    table = qtable.weights_over_Q

    def mutated(shape):
        ws = table(shape)
        return frozenset(mutate(ws)) if (shape.b, shape.kind.name) == (b, kind) else ws

    monkeypatch.setattr(qtable, "weights_over_Q", mutated)
    r = verify_sweep("qtable-crosscheck", [5], 1, budget=10**6)
    assert (r.mismatch_count, r.mismatches) == (1, [{"ell": 5, "b": b, "check": check}])


def _run_all(kind, ell, f):
    """(checked, witnesses, mismatch count) of one kind on one field: the
    collectors of all its scans, merged in order as verify_sweep merges
    them."""
    merged = sweeps._Mismatches()
    for key in sweeps._scan_keys(kind, ell, f):
        merged.merge(sweeps._scan(key)[kind])
    return merged.checked, merged.witnesses, merged.count


def _clear_table_caches():
    sweeps._scans.clear()
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
    checked, mism, bad = _run_all("symmetry", 3, 3)
    assert checked == 702 + 4 * 26
    assert bad == 104
    assert len(mism) == 25
    assert all(w["check"] == "conjugation-irred" for w in mism)
    assert [w["n"] for w in mism[:3]] == [5, 23, 33]
    # 52 conjugation and 52 frobenius failures; the cached scans keep only
    # 25 witnesses, so they are built again
    monkeypatch.setattr(sweeps, "_MAX_WITNESSES", 10**6)
    _clear_table_caches()
    failing = Counter(w["check"] for w in _run_all("symmetry", 3, 3)[1])
    assert failing == {"conjugation-irred": 52, "frobenius-irred": 52}


def test_symmetry_one_sided_admissible_flip_fails_every_lift(monkeypatch, fresh_tables):
    # (3, 3): subset 3 of class 5 stops being admissible, while its images
    # under conjugation (class 23, subset 4) and Frobenius (class 15, subset
    # 7) stay admissible.  The codes differ, so both laws fail at all q - 1
    # lifts of class 5: "codes differ" is tested before "not admissible at
    # n, so it holds"
    tables = _corrupt_irred("admissible")
    admissible = tables[0]
    assert sweeps._irred_tables(3, 3)[0][5, 3] and not admissible[5, 3]
    assert admissible[23, 4] and admissible[15, 7]
    _clear_table_caches()
    monkeypatch.setattr(sweeps, "_irred_tables", lambda ell, f: tables)
    monkeypatch.setattr(sweeps, "_MAX_WITNESSES", 10**6)
    mism = _run_all("symmetry", 3, 3)[1]
    lifts = set(range(5, 728, 28))
    for law in ("conjugation-irred", "frobenius-irred"):
        assert lifts <= {w["n"] for w in mism if w["check"] == law}


@pytest.mark.parametrize(
    "shard,check,n", [(range(0, 1), "frobenius-irred", 11), (range(0, 1), "conjugation-irred", 23)]
)
def test_symmetry_finds_the_one_failing_row_of_a_chunk(monkeypatch, fresh_tables, shard, check, n):
    # chunks of 7 n cut k row 0 into four blocks of seven classes; the
    # corrupted C[5, 3] fails both laws at r = 5, Frobenius alone at r = 11
    # and conjugation alone at r = 23, so the block of n holds one failing
    # n under one law, and the per-n reduction must still name it
    tables = _corrupt_irred("C")
    _clear_table_caches()
    monkeypatch.setattr(sweeps, "_irred_tables", lambda ell, f: tables)
    monkeypatch.setattr(sweeps, "_CHUNK", 7 << 3)
    ((ks, rs),) = [block for block in sweeps._blocks(shard, 28, 8) if n in block[1]]
    assert (len(ks), len(rs)) == (1, 7)
    _, ns, _, _, _, laws = sweeps._irred_block(FieldParams(3, 3), ks, rs)
    assert {kind: ns[broken].tolist() for kind, broken in laws} == {
        kind: [n] if kind == check else [] for kind in ("conjugation-irred", "frobenius-irred")
    }
    # the scan of the row names it among the row's four failures, block by block
    mm = sweeps._scan(("_build_irred_scan", 3, 3, shard))["symmetry"]
    assert (mm.checked, mm.count) == (27, 4)
    conj, frob = "conjugation-irred", "frobenius-irred"
    want = [(conj, 5), (frob, 5), (frob, 11), (conj, 23)]
    assert mm.witnesses == [{"ell": 3, "f": 3, "check": c, "n": m} for c, m in want]


def test_symmetry_witnesses_across_chunks(monkeypatch, fresh_tables):
    # chunks of 64 n, blocks of two k rows: the 104 failures of the
    # corrupted C[5, 3] (r = 5 and 23 under conjugation, r = 5 and 11 under
    # Frobenius, at every k) spread over blocks, and the first 25 come in
    # block order, conjugation before frobenius within a block
    tables = _corrupt_irred("C")
    _clear_table_caches()
    monkeypatch.setattr(sweeps, "_irred_tables", lambda ell, f: tables)
    monkeypatch.setattr(sweeps, "_CHUNK", 64 << 3)
    assert sweeps._block_shape(28, 8) == (2, 28)
    conj, frob = "conjugation-irred", "frobenius-irred"
    want = [(conj, n) for n in (5, 23, 33, 51)] + [(frob, n) for n in (5, 11, 33, 39)]
    want += [(conj, n) for n in (61, 79, 89, 107)] + [(frob, n) for n in (61, 67, 89, 95)]
    want += [(conj, n) for n in (117, 135, 145, 163)] + [(frob, n) for n in (117, 123, 145, 151)]
    want += [(conj, 173)]
    checked, mism, bad = _run_all("symmetry", 3, 3)
    assert (checked, bad) == (702 + 4 * 26, 104)
    assert mism == [{"ell": 3, "f": 3, "check": check, "n": n} for check, n in want]


def test_symmetry_catches_corrupted_red_table(monkeypatch, fresh_tables):
    doubled, s_in, bcode = (t.copy() for t in sweeps._red_tables(3, 3))
    s_in[4, 2, 0] += 1
    _clear_table_caches()
    monkeypatch.setattr(sweeps, "_red_tables", lambda ell, f: (doubled, s_in, bcode))
    checked, mism, bad = _run_all("symmetry", 3, 3)
    assert checked == 702 + 4 * 26
    assert bad == 4
    assert [(w["check"], w["n"]) for w in mism] == [
        ("swap-red", 4),
        ("swap-red", 22),
        ("frobenius-red", 4),
        ("frobenius-red", 10),
    ]


def test_symmetry_twist_red_catches_unreduced_s_in(monkeypatch, fresh_tables):
    # one s_in cell moved up by q - 1 keeps its residue but leaves [0, q - 1),
    # so the kernel's one conditional add leaves some a unreduced
    valid, s_in, bcode = (t.copy() for t in sweeps._red_tables(3, 3))
    s_in[4, 2, 0] += 26
    _clear_table_caches()
    monkeypatch.setattr(sweeps, "_red_tables", lambda ell, f: (valid, s_in, bcode))
    checked, mism, bad = _run_all("symmetry", 3, 3)
    assert checked == 702 + 4 * 26
    assert bad == 4
    assert [(w["check"], w["n"]) for w in mism] == [
        ("swap-red", 4),
        ("swap-red", 22),
        ("frobenius-red", 10),
        ("twist-red", 4),
    ]


def _irred_per_n(ell, f):
    """(n, labeled, distinct, det_bad) of every valid n, from the blocks
    the irreducible scan compares."""
    p = FieldParams(ell, f)
    height, width, cells = _grid("irred", p)
    rows = []
    for ks, rs in sweeps._blocks(range(height), width, cells):
        cols, n, valid, distinct, det_bad, _ = sweeps._irred_block(p, ks, rs)
        labeled = np.broadcast_to(cols.labeled, valid.shape)
        rows += zip(*(x[valid].tolist() for x in (n, labeled, distinct, det_bad)))
    return rows


@pytest.mark.parametrize(
    "ell,f,per_chunk",
    [pytest.param(3, 3, n, id=str(n)) for n in (8, 10, 27, 29, 64)]
    + [(2, 5, 16), (2, 5, 32), (2, 5, 33), (2, 5, 50)],
)
def test_irred_block_per_n_matches_oracle(monkeypatch, ell, f, per_chunk):
    # chunks of per_chunk n, per_chunk 2^f cells: (3, 3) has k rows of
    # q + 1 = 28 n, so chunks of 8 and 10 n cut a row into four pieces of 7
    # and into pieces of 10, 10 and 8, ones of 27 and 29 n leave each row
    # whole and one of 64 n takes two rows; (2, 5) has 32 planes, past the
    # sorting network, and its rows of 33 n are cut in two, kept whole
    # (chunks just shorter than a row, and as long) and taken two at a time
    monkeypatch.setattr(sweeps, "_CHUNK", per_chunk << f)
    p = FieldParams(ell, f)
    want = []
    for n in range(p.m_big):
        if n % p.m_plus == 0:
            continue
        triples = forced_labeled_irred(ell, f, n)
        # the determinant law: 2a + sum b_i ell^i = n mod q-1
        det_bad = any(
            (2 * a + sum(bi * ell**i for i, bi in enumerate(b)) - n) % p.m_minus for a, b, _ in triples
        )
        want.append((n, len(triples), len({(a, b) for a, b, _ in triples}), det_bad))
    assert _irred_per_n(ell, f) == want


def _red_oracle(ell, f, n1, n2):
    """(labeled, distinct, det_bad) of the pair (n1, n2) from the oracle
    triples; the determinant law is 2a + sum b_i ell^i = n1 + n2 mod q-1."""
    triples = forced_labeled_red(ell, f, n1, n2)
    m = max(ell**f - 1, 1)
    det_bad = any(
        (2 * a + sum(bi * ell**i for i, bi in enumerate(b)) - n1 - n2) % m for a, b, _ in triples
    )
    return len(triples), len({(a, b) for a, b, _ in triples}), det_bad


@pytest.mark.parametrize("ell,f", [(2, 1), (3, 2), (3, 3), (5, 2), (2, 4)])
def test_red_line_per_n_matches_oracle(ell, f):
    # the ratio line, the pairs (n, 0), per n; (2, 1) has the one ratio 0
    line = sweeps._red_counts(FieldParams(ell, f))
    got = list(zip(line.labeled.tolist(), line.distinct.tolist(), line.det_bad.tolist()))
    assert got == [_red_oracle(ell, f, n, 0) for n in range(len(got))]


def test_red_pairs_det_law_matches_oracle():
    # every pair of (3, 2), as _pairs returns the whole grid of n1 rows by
    # ratio-class columns: each carries its own a = n1 + D - s_in and
    # t = n1 + n2 - cyc_sum, with n2 = n1 - c
    p = FieldParams(3, 2)
    n2, labeled, _, det_bad = sweeps._pairs(p, np.arange(8)[:, np.newaxis], slice(None))[3:]
    assert n2.shape == det_bad.shape == (8, 8)
    got = {
        (n1, int(n2[n1, c])): (int(labeled[0, c]), bool(det_bad[n1, c]))
        for n1, c in itertools.product(range(8), repeat=2)
    }
    assert sorted(got) == list(itertools.product(range(8), repeat=2))
    for (n1, n2), value in got.items():
        want_labeled, _, want_bad = _red_oracle(3, 2, n1, n2)
        assert value == (want_labeled, want_bad), (n1, n2)


@pytest.mark.parametrize("which", ["C", "bcode", "admissible"])
def test_counts_catch_corrupted_irred_table(monkeypatch, fresh_tables, which):
    # one cell (r = 5, B = 3) of one table at (3, 3); q + 1 = 28, q - 1 = 26
    tables = _corrupt_irred(which)
    _clear_table_caches()
    monkeypatch.setattr(sweeps, "_irred_tables", lambda ell, f: tables)
    lifts = list(range(5, 728, 28))  # every n = k (q+1) + 5
    per_n = _irred_per_n(3, 3)
    det_bad = [n for n, _, _, bad in per_n if bad]
    checked, mism, bad = _run_all("counts-irred", 3, 3)
    det_checked, det_mism, det_bad_count = _run_all("det-law", 3, 3)
    assert checked == len(per_n) == 702
    assert det_checked == 702 + 26
    if which == "admissible":
        # the labeled count drops at every lift; no triple breaks the det law
        assert det_bad == [] and det_bad_count == 0
        assert [labeled for n, labeled, _, _ in per_n if n % 28 == 5] == [7] * 26
        assert bad == 26
        assert [(w["n"], w["enumerated"], w["closed_form"]) for w in mism[:3]] == [
            (5, 7, 8), (33, 7, 8), (61, 7, 8),
        ]
    else:
        # a or bcode of one subset moves: counts hold, the det law fails at
        # every lift, each with its own k in a = k + C[r]
        assert bad == 0 and mism == []
        assert det_bad == lifts
        assert det_bad_count == 26
        assert [w["n"] for w in det_mism] == lifts[:25]
        assert all(w["case"] == "irreducible" for w in det_mism)


@pytest.mark.parametrize("chunk", [sweeps._CHUNK, 64, 1600])
def test_counts_red_grid_catches_corrupted_red_table(monkeypatch, fresh_tables, chunk):
    # one s_in cell of ratio class 4 at (3, 3); small chunks split the
    # (n1, n2) grid into pieces of a row (64) and blocks of rows (1600)
    valid, s_in, bcode = (t.copy() for t in sweeps._red_tables(3, 3))
    s_in[4, 2, 0] += 1
    _clear_table_caches()
    monkeypatch.setattr(sweeps, "_red_tables", lambda ell, f: (valid, s_in, bcode))
    monkeypatch.setattr(sweeps, "_CHUNK", chunk)
    checked, mism, bad = _run_all("counts-red", 3, 3)
    assert checked == 26 + 26 * 26
    # the counts hold; the det law fails at every pair of ratio 4
    assert bad == 26
    assert [(w["n1"], w["n2"], w.get("check")) for w in mism] == [
        (n1, (n1 - 4) % 26, "det-law") for n1 in range(25)
    ]
    assert np.flatnonzero(sweeps._red_counts(FieldParams(3, 3)).det_bad).tolist() == [4]


def _patch_tables(monkeypatch, name, ell, f, corrupt):
    # corrupt a copy of one field's cached class tables and serve it instead
    tables = tuple(t.copy() for t in getattr(sweeps, name)(ell, f))
    corrupt(*tables)
    _clear_table_caches()
    monkeypatch.setattr(sweeps, name, lambda e, g: tables)


def _copy_subset(row, src, dst):
    # subset dst of class row decodes like subset src: one weight twice
    def corrupt(*tables):
        for t in tables:
            t[row, dst] = t[row, src]

    return corrupt


# The witness payloads below pin each kind's keys, key order and int/bool
# types, through json.dumps of the runner's whole (checked, witnesses, count)


def test_injectivity_irred_witness_payload(monkeypatch, fresh_tables):
    # (3, 2): q + 1 = 10; subsets 0 and 3 of class r = 2 collide at every lift
    _patch_tables(monkeypatch, "_irred_tables", 3, 2, _copy_subset(2, 3, 0))
    witnesses = [
        {"ell": 3, "f": 2, "n": n, "enumerated_failure": True, "criterion": False}
        for n in range(2, 80, 10)
    ]
    assert json.dumps(_run_all("injectivity-irred", 3, 2)) == json.dumps([72, witnesses, 8])


def test_injectivity_red_witness_payload(monkeypatch, fresh_tables):
    _patch_tables(monkeypatch, "_red_tables", 3, 2, _copy_subset(1, 1, 0))
    witness = {"ell": 3, "f": 2, "n1": 1, "n2": 0, "enumerated_failure": True, "criterion": False}
    assert json.dumps(_run_all("injectivity-red", 3, 2)) == json.dumps([8, [witness], 1])


def test_generic_split_witness_payload(monkeypatch, fresh_tables):
    # (5, 2): ratio 7 (digits (2, 1)) is generic; two subsets now share a weight
    _patch_tables(monkeypatch, "_red_tables", 5, 2, _copy_subset(7, 1, 0))
    witness = {"ell": 5, "f": 2, "n1": 7, "n2": 0, "weights": 3, "expected": 4}
    assert json.dumps(_run_all("generic-split", 5, 2)) == json.dumps([7, [witness], 1])


def test_nonempty_witness_payload(monkeypatch, fresh_tables):
    # (2, 2): class r = 1 mod 5 admits nothing, ratio 1 holds no valid slot

    def no_admissible(admissible, C, bcode):
        admissible[1] = False

    def no_slot(valid, s_in, bcode):
        valid[1] = False

    _patch_tables(monkeypatch, "_irred_tables", 2, 2, no_admissible)
    _patch_tables(monkeypatch, "_red_tables", 2, 2, no_slot)
    witnesses = [{"ell": 2, "f": 2, "case": "irreducible", "n": n} for n in (1, 6, 11)]
    witnesses.append({"ell": 2, "f": 2, "case": "reducible-certain", "n1": 1, "n2": 0})
    assert json.dumps(_run_all("nonempty", 2, 2)) == json.dumps([15, witnesses, 4])


def test_det_law_reducible_witness_payload(monkeypatch, fresh_tables):
    def shift_s_in(valid, s_in, bcode):
        s_in[4, 2, 0] += 1

    _patch_tables(monkeypatch, "_red_tables", 3, 2, shift_s_in)
    witness = {"ell": 3, "f": 2, "case": "reducible", "n1": 4, "n2": 0}
    assert json.dumps(_run_all("det-law", 3, 2)) == json.dumps([80, [witness], 1])


def test_counts_red_count_witness_payload(monkeypatch, fresh_tables):
    # (3, 2): an extra valid slot on ratio 1 raises its count from 4 to 5, and
    # the slot's triple breaks the det law; the grid reports a chunk's count
    # mismatches before its det-law ones
    def extra_slot(valid, s_in, bcode):
        valid[1, 0, 1] = True

    _patch_tables(monkeypatch, "_red_tables", 3, 2, extra_slot)
    pairs = [(n1, (n1 - 1) % 8) for n1 in range(8)]  # ratio 1, in grid order
    witnesses = [{"ell": 3, "f": 2, "n1": 1, "n2": 0, "enumerated": 5, "closed_form": 4}]
    witnesses += [
        {"ell": 3, "f": 2, "n1": n1, "n2": n2, "enumerated": 5, "closed_form": 4} for n1, n2 in pairs
    ]
    witnesses += [{"ell": 3, "f": 2, "n1": n1, "n2": n2, "check": "det-law"} for n1, n2 in pairs]
    assert json.dumps(_run_all("counts-red", 3, 2)) == json.dumps([8 + 64, witnesses, 17])


@pytest.mark.parametrize("chunk", [sweeps._CHUNK, 2 * 8])
def test_counts_red_grid_witnesses_in_class_order_within_a_row(monkeypatch, fresh_tables, chunk):
    # (3, 2): one s_in cell each of ratio classes 1 and 3 breaks the det law
    # at their 16 grid pairs.  The grid is one block, or (chunks of two
    # pairs) each n1 row in four pieces; either way the witnesses come
    # n1-major and by ratio class within a row, so row 0 lists (0, 7), of
    # class 1, before (0, 5), of class 3
    def shift_s_in(valid, s_in, bcode):
        s_in[[1, 3], 2, 0] += 1

    _patch_tables(monkeypatch, "_red_tables", 3, 2, shift_s_in)
    monkeypatch.setattr(sweeps, "_CHUNK", chunk)
    pairs = [(n1, (n1 - c) % 8) for n1 in range(8) for c in (1, 3)]
    witnesses = [{"ell": 3, "f": 2, "n1": n1, "n2": n2, "check": "det-law"} for n1, n2 in pairs]
    assert pairs[:2] == [(0, 7), (0, 5)]
    assert _run_all("counts-red", 3, 2) == (8 + 64, witnesses, 16)


def _flip_witness(w):
    return None if w else (1, 1)


# (5, 2): q + 1 = 26 and q - 1 = 24.  Each case makes one exported closed
# form wrong on one class: irreducible class r = 3, whose 24 lifts are
# n = 3 mod 26, or ratio class 3 or 6, which holds the line's (n, 0) and
# the 24 grid pairs (n1, n1 - n mod 24)
_IRRED_LIFTS = range(3, 624, 26)
_RATIO_3 = [(3, 0)] + [(n1, (n1 - 3) % 24) for n1 in range(24)]


@pytest.mark.parametrize(
    "module,name,cls,wrong,kind,want",
    [
        (irreducible, "labeled_count_formula", 3, lambda v: v + 1, "counts-irred",
         [{"n": n, "enumerated": 4, "closed_form": 5} for n in _IRRED_LIFTS]),
        (irreducible, "injectivity_witness", 3, _flip_witness, "injectivity-irred",
         [{"n": n, "enumerated_failure": False, "criterion": True} for n in _IRRED_LIFTS]),
        (reducible, "labeled_count_formula", 3, lambda v: v + 1, "counts-red",
         [{"n1": n1, "n2": n2, "enumerated": 4, "closed_form": 5} for n1, n2 in _RATIO_3]),
        (reducible, "injectivity_witness", 3, _flip_witness, "injectivity-red",
         [{"n1": 3, "n2": 0, "enumerated_failure": False, "criterion": True}]),
        # ratio 6 is not generic and has 5 weights
        (reducible, "is_generic", 6, lambda v: not v, "generic-split",
         [{"n1": 6, "n2": 0, "weights": 5, "expected": 4}]),
    ],
    ids=["irred-count", "irred-criterion", "red-count", "red-criterion", "red-generic"],
)
def test_sweeps_read_the_exported_closed_forms(monkeypatch, fresh_tables, module, name, cls, wrong, kind, want):
    # the sweeps compare with the exported function itself, looked up when
    # a field's tables are built: wrong on one class, it is reported there
    # and nowhere else
    real = getattr(module, name)
    modulus = 26 if module is irreducible else 24

    def patched(d):
        value = real(d)
        return wrong(value) if d.n % modulus == cls else value

    monkeypatch.setattr(module, name, patched)
    _clear_table_caches()
    _, mism, bad = _run_all(kind, 5, 2)
    assert bad == len(want)
    assert mism == [{"ell": 5, "f": 2, **w} for w in want]


def test_nonempty_reads_the_recipe_dimension_rule(monkeypatch, fresh_tables):
    # with trivial-ratio slots undecidable, no weight of ratio 0 is certain
    rule = reducible.dimension_rule

    def trivial_undecided(trivial, cyclotomic, all_ell, full):
        delta, decidable = rule(trivial, cyclotomic, all_ell, full)
        return delta, decidable and not trivial

    monkeypatch.setattr(reducible, "dimension_rule", trivial_undecided)
    witness = {"ell": 5, "f": 2, "case": "reducible-certain", "n1": 0, "n2": 0}
    assert json.dumps(_run_all("nonempty", 5, 2)) == json.dumps([600 + 24, [witness], 1])


def test_verify_sweep_merges_witnesses_in_task_order(monkeypatch):
    def failing(key):
        # (2, 1) finds 30 mismatches and (3, 1) 12, each listing up to 20
        _, ell, f, _ = key
        mm = sweeps._Mismatches(ell=ell, f=f)
        mm.add(30 if ell == 2 else 12, i=np.arange(20 if ell == 2 else 10))
        mm.checked = 100 * ell
        return {"counts-irred": mm}

    monkeypatch.setattr(sweeps, "_scan", failing)
    report = verify_sweep("counts-irred", [3, 2], 1, budget=10**6).to_dict()
    merged = [{"ell": 2, "f": 1, "i": i} for i in range(20)]
    merged += [{"ell": 3, "f": 1, "i": i} for i in range(5)]
    assert report["checked"] == 500
    assert report["mismatch_count"] == 42
    assert report["mismatches"] == merged
    assert report["passed"] is False


def test_key_dtype_boundary():
    # int32 exactly when D (D + 2) < 2^31: the keys a + D bcode <= D^2 + D - 1
    # and the sums 2a + bcode < 3 D then fit
    assert 46339 * (46339 + 2) < 2**31 <= 46340 * (46340 + 2)
    for D in (1, 2, 26, 2400, 46338, 46339):
        assert sweeps._key_dtype(D) == np.int32
        assert D * D + D - 1 <= np.iinfo(np.int32).max and 3 * D <= np.iinfo(np.int32).max
    for D in (46340, 46341, 2**20):
        assert sweeps._key_dtype(D) == np.int64
    # int16 sums exactly when 3 D < 2^15: a < D and 2a + bcode - t in (-D, 3 D)
    assert [sweeps._sum_dtype(D) for D in (1, 2400, 10922, 10923, 46340)] == [
        np.int16, np.int16, np.int16, np.int32, np.int64,
    ]


@pytest.mark.parametrize("ncols", [2, 16, 256])
def test_distinct_counts_same_on_int32_and_int64(ncols):
    rng = np.random.default_rng(ncols)
    keys = rng.integers(0, 2 * ncols, size=(300, ncols))
    valid = rng.random((300, ncols)) < rng.random((300, 1))  # rows from empty to full
    want = [len(set(row[ok].tolist())) for row, ok in zip(keys, valid)]
    for dtype in (np.int32, np.int64):
        cells = np.ascontiguousarray(np.where(valid, keys, -1).T, dtype=dtype)  # subset-major
        assert sweeps._distinct_counts(cells).tolist() == want


@pytest.mark.parametrize("width", [2, 4, 8, 16, 17, 32, 256, 512, 1024])
def test_distinct_counts_against_unique(width):
    # every width the scans sort: by the network up to _NETWORK_WIDTH
    # (2^f on the irreducible side, 2^(f+1) on the ratio line), cell-major
    # above; -1 marks a cell with no key.  The data axes are powers of two,
    # as in a block of W < q+1 columns, so the planes have a power-of-two
    # stride
    assert (width <= sweeps._NETWORK_WIDTH) == (width <= 16)
    rng = np.random.default_rng(width)
    rows = rng.integers(-1, width, size=(512, width))
    want = [len(np.unique(row[row >= 0])) for row in rows]
    keys = np.ascontiguousarray(rows.T, dtype=np.int32).reshape(width, 16, 32)
    assert sweeps._distinct_counts(keys).ravel().tolist() == want


@pytest.mark.parametrize("n,size", [(2, 1), (4, 5), (8, 19), (16, 63)])
def test_merge_exchange_sorts_every_zero_one_input(n, size):
    # by the 0-1 principle (Knuth 5.3.4) a network that sorts every 0-1
    # input sorts every input; here all 2^n of them at once
    network = sweeps._merge_exchange(n)
    assert len(network) == size and all(i < j for i, j in network)
    planes = [(np.arange(1 << n) >> i) & 1 for i in range(n)]
    for i, j in network:
        planes[i], planes[j] = np.minimum(planes[i], planes[j]), np.maximum(planes[i], planes[j])
    assert all((lo <= hi).all() for lo, hi in zip(planes, planes[1:]))


def test_int64_fallback_matches_int32(monkeypatch, fresh_tables):
    # fields past 3 D >= 2^15 (int32 sums) or D (D + 2) >= 2^31 (int64 keys
    # and sums) are too large for a test to sweep, so those paths run here
    # on small fields and must agree with the narrow one
    fields = [(2, 4), (3, 3), (5, 2)]

    def results():
        _clear_table_caches()
        out = []
        for ell, f in fields:
            red = sweeps._red_counts(FieldParams(ell, f))
            out.append((
                _irred_per_n(ell, f), [x.tolist() for x in red], _run_all("det-law", ell, f),
                _run_all("counts-red", ell, f), _run_all("symmetry", ell, f),
            ))
        return out

    narrow = results()
    monkeypatch.setattr(sweeps, "_sum_dtype", sweeps._key_dtype)
    assert results() == narrow
    assert sweeps._irred_cols(3, 3).C.dtype == np.int32
    monkeypatch.setattr(sweeps, "_key_dtype", lambda D: np.int64)
    monkeypatch.setattr(sweeps, "_sum_dtype", lambda D: np.int64)
    assert results() == narrow
    assert sweeps._irred_cols(3, 3).C.dtype == np.int64
    assert sweeps._grid_tables(3, 3).C.dtype == np.int64
    assert sweeps._red_counts(FieldParams(3, 3)).a.dtype == np.int64  # the ratio line's a


def _serve_for(monkeypatch, name, ell, f, tables):
    # serve corrupted tables for one field and the real ones for the others
    real = getattr(sweeps, name)
    monkeypatch.setattr(sweeps, name, lambda e, g: tables if (e, g) == (ell, f) else real(e, g))


@pytest.mark.parametrize("corrupt", ["clean", "C", "admissible", "red"])
def test_parallel_matches_serial_across_shards(monkeypatch, fresh_tables, corrupt):
    # small chunks and shards split (3, 3) and (5, 2) into several tasks per
    # kind; corrupted (3, 3) tables give witness lists that cross shard
    # boundaries and pass the cap of 25
    def sweep(jobs):
        _clear_table_caches()
        return [
            verify_sweep(kind, [3, 5], 3, budget=10**6, space_cap=729, jobs=jobs).to_dict()
            for kind in ALL_KINDS
        ]

    if corrupt == "red":
        tables = tuple(t.copy() for t in sweeps._red_tables(3, 3))
        tables[1][4, 2, 0] += 1
        _serve_for(monkeypatch, "_red_tables", 3, 3, tables)
    elif corrupt != "clean":
        _serve_for(monkeypatch, "_irred_tables", 3, 3, _corrupt_irred(corrupt))
    # symmetry's witness order follows the blocks, so fix those first:
    # chunks of 32 n at (3, 3) and 64 at (5, 2)
    monkeypatch.setattr(sweeps, "_CHUNK", 256)
    whole = sweep(1)
    monkeypatch.setattr(sweeps, "_SHARD_CELLS", 1024)
    monkeypatch.setattr(sweeps.os, "cpu_count", lambda: 2)
    p33, p52 = FieldParams(3, 3), FieldParams(5, 2)
    assert [len(sweeps._shards(*_grid("irred", p))) for p in (p33, p52)] == [7, 3]
    assert [len(sweeps._shards(*_grid("red", p))) for p in (p33, p52)] == [13, 5]
    serial = sweep(1)
    assert serial == whole
    assert sweep(2) == serial
    counts = {d["kind"]: d["mismatch_count"] for d in serial}
    if corrupt == "clean":
        assert all(d["passed"] for d in serial)
    else:
        capped = {"C": "det-law", "admissible": "counts-irred", "red": "counts-red"}[corrupt]
        assert counts[capped] == 26
        assert len(next(d for d in serial if d["kind"] == capped)["mismatches"]) == 25


def test_parallel_scans_are_adopted(monkeypatch, fresh_tables):
    # the scans a pool's workers build come back to this process: the next
    # kinds read them from its store, without calling the kernel (or, for
    # the counts-red grid, _pairs) here; chunks of 64 n at (3, 2) and (5, 2)
    monkeypatch.setattr(sweeps, "_CHUNK", 256)
    monkeypatch.setattr(sweeps, "_SHARD_CELLS", 1024)
    monkeypatch.setattr(sweeps.os, "cpu_count", lambda: 2)
    calls = []
    block = sweeps._irred_block

    def counting(p, ks, rs):
        calls.append((ks, rs))  # a worker appends to its own copy of the list
        return block(p, ks, rs)

    monkeypatch.setattr(sweeps, "_irred_block", counting)
    fields = plan_tasks([3, 5], 2)
    shards = [(ell, f, s) for ell, f in fields for s in sweeps._shards(*_grid("irred", FieldParams(ell, f)))]
    assert len(shards) == 6  # (5, 2) in three
    assert verify_sweep("counts-irred", [3, 5], 2, budget=10**6, jobs=2).passed
    assert calls == []

    def held(builder):
        return {key[1:]: scan for key, scan in sweeps._scans.items() if key[0] == builder}

    runs = held("_build_irred_scan")
    assert list(runs) == shards
    read = []
    scan = sweeps._scan
    monkeypatch.setattr(sweeps, "_scan", lambda key: read.append(key[1:]) or scan(key))
    for kind in ("injectivity-irred", "det-law", "nonempty"):
        assert verify_sweep(kind, [3, 5], 2, budget=10**6).passed
    monkeypatch.setattr(sweeps, "_scan", scan)  # a pool pickles it by name
    assert calls == []
    # each kind read every k-row shard, and the same scan objects stay held
    assert Counter(key for key in read if key in runs) == {key: 3 for key in shards}
    assert all(held("_build_irred_scan")[key] is run for key, run in runs.items())
    pairs = sweeps._pairs
    monkeypatch.setattr(sweeps, "_pairs", lambda *args: calls.append(args) or pairs(*args))
    grid = [(ell, f, s) for ell, f in fields for s in sweeps._shards(*_grid("red", FieldParams(ell, f)))]
    assert verify_sweep("counts-red", [3, 5], 2, budget=10**6, jobs=2).passed
    assert list(held("_build_grid_scan")) == grid
    assert verify_sweep("counts-red", [3, 5], 2, budget=10**6, jobs=2).passed
    assert calls == []


@pytest.mark.parametrize("libc", [SimpleNamespace(), None])
def test_heap_setting_skipped_without_glibc(monkeypatch, libc):
    # off glibc there is no mallopt (or no C library to load): sweeps run as is
    def load(name):
        if libc is None:
            raise OSError("no C library")
        return libc

    monkeypatch.setattr(sweeps.ctypes, "CDLL", load)
    assert sweeps._keep_freed_memory.__wrapped__() is None
