"""Exhaustive verification sweeps over whole residue rings.

Each sweep kind re-derives a proposition two independent ways and compares
them at every datum in range:

  counts-irred        enumerated labeled-set size vs the closed-form count
  counts-red          same, over the ratio line and over the full (n1, n2) grid
  injectivity-irred   enumerated |weights| < |labeled| vs the witness criterion
  injectivity-red     same, including the always-failing trivial-ratio case
  det-law             every enumerated triple satisfies the determinant law
  symmetry            conjugation, swap, Frobenius shift, and split twist naturality
  nonempty            weight sets are never empty (certain part included)
  generic-split       generic split data have exactly 2^f weights
  qtable-crosscheck   the f = 1 tables vs the general recipes

The closed-form side is the exported labeled_count_formula,
injectivity_witness and is_generic themselves, not copies.  Each depends on
n mod q+1 or on the ratio n1 - n2 mod q-1 only, so it is called on one
datum per class, into a table indexed by that class.  nonempty's certain
part reads reducible.dim_bounds.

A task is one kind on one shard of one field, and returns one collector,
_Mismatches: its mismatch count, first witnesses and number of data
checked.  A shard is a run of n or a block of whole n1 rows of the
counts-red (n1, n2) grid, each of whole chunks and at most _SHARD_CELLS
(row, subset) cells, or None, the ratio line.  _shards lists a kind's
shards in its witness order: the ratio line comes first for counts-red,
last for det-law, nonempty and symmetry, and is the only shard of
injectivity-red, generic-split and qtable-crosscheck.  The list depends on
the field alone and the collectors merge in task order, so the report
never depends on jobs.  The scans hold collectors, not per-n arrays:
_irred_scan compares each chunk of a run of n with the per-class tables at
its k, r = divmod(n, q+1) and runs the symmetry laws on it while the chunk
is in hand, and _red_scan does the same for the ratio line, each keeping
one collector per kind that reads it.  Those kinds' tasks are a lookup,
and _scan_key names the scan each one reads; only the counts-red grid and
qtable-crosscheck have runners.  With jobs > 1 each pool worker returns
the scans its tasks built with their results; the parent adopts them into
its caches, so the next kind's pool forks with them in place, and no
worker outlives its verify_sweep call.  The pool is sized by the pending
tasks, those that are not a lookup of a scan the parent holds: the
counts-red grid and qtable-crosscheck always fork one, as does the first
kind to read a scan, while a kind whose scans are all held (under
`verify all`, injectivity-irred, injectivity-red, det-law, symmetry,
nonempty and generic-split) runs in-process, as in a serial run.

The enumeration side runs on a table-driven engine.  For each subset B the
recipe's greedy window decode depends only on n mod q+1 (irreducible side)
or on the ratio n1 - n2 mod q-1 (reducible side).  So each field takes the
recipe modules' class_tables of all those q±1 classes once, for all 2^f
subsets, built on first use; the same builders give the single-datum
labeled sets one row at a time, so the recipe has one implementation.
With n = k (q+1) + r, the irreducible solution is then
a = (k + C_B[r]) mod (q-1) with the digit code of r; on the reducible side
a = n1 - (B-part digit sum) mod (q-1).  The kernels evaluate every n in
range by one divmod (or one subtraction) plus gathers from the tables,
chunk by chunk, with chunks capped at a fixed number of (row, subset)
cells.  The test suite pins the labeled sets against the definitional
oracles of tests/oracles.py exhaustively on small parameters, including
fields where each class mod q+1 has many lifts, and by sampling on large
ones.

The count kernels work in narrow ints.  With D = q-1, every a lies in
[0, D) and every digit code in [0, D], so the distinct-count keys
a + D bcode stay below D (D+1) and the sums 2a + bcode below 3D: int32
holds both whenever D (D+2) < 2^31, which covers every field a default
budget admits, and int64 is used only above that.  The cached class
tables hold that dtype, and the kernels bring a into [0, D) by one
conditional add (or subtraction) of D, not by a modulo over cells.  The
determinant law 2a + bcode + cyc_sum = n mod D is tested the same way:
with t = (n - cyc_sum) mod D taken once per row, a cell passes iff
2a + bcode - t is 0, D or 2D.  Every cell is still tested, on the a the
counts and keys use.  The (n1, n2) grid of counts-red runs in blocks of
whole n1 rows.

On a run of n the symmetry laws need no kernel call.  Per chunk they take
the scan's divmod of n by q+1 and one divmod for each image (q n and
ell n, mod q^2-1), then gather rows of narrow-int tables: the digit codes,
-1 where a class is not admissible, must be equal, and the a values must
agree, compared as a difference of C entries against the difference of
the k's.
Each law tests its (rows x 2^f) block of cells with one flat all() and
reduces it per row, to name the failing n, only when that fails.
No irreducible twist law is checked: n + (q+1) has the same r and k + 1,
so it holds by the factorization, and the labeled-set-vs-oracle tests on
those many-lift fields pin it.  On the ratio line, swap, Frobenius and
twist compare the kernel arrays that the counts hold with kernel calls at
the images.

Budget: a sweep over (ell, f) is charged ell^(2f), the number of residue
classes enumerated (each one gathered and compared across all 2^f subsets),
and `verify_sweep` refuses to start when the planned total exceeds the
budget, or when the plan holds no field at all.
"""

from __future__ import annotations

import ctypes
import itertools
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache, wraps
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from .errors import BudgetExceeded, IllegalShape, ParamError
from .modarith import FieldParams, subset_complement

from . import irreducible as irred
from . import qtable
from . import reducible as red

__all__ = [
    "VerificationReport",
    "ALL_KINDS",
    "plan_tasks",
    "estimate_cost",
    "verify_sweep",
]

_CHUNK = 1 << 18
# (row, subset) cells per shard, the unit of work of a parallel sweep
_SHARD_CELLS = 1 << 23
_MAX_WITNESSES = 25
# keeps D < 2^20, so int64 exponents and the int64 fallback of the narrow
# count kernels stay exact; the budget keeps real runs far below
_ENGINE_CAP = 2**40


# ---------------------------------------------------------------------------
# planning


def plan_tasks(
    ells: Sequence[int], f_max: int, space_cap: int | None = None
) -> list[tuple[int, int]]:
    """(ell, f) pairs in deterministic order, optionally capped by ell^(2f)."""
    tasks = []
    for ell in sorted(set(ells)):
        for f in range(1, f_max + 1):
            FieldParams(ell, f)  # validates
            if space_cap is not None and ell ** (2 * f) > space_cap:
                continue
            tasks.append((ell, f))
    return tasks


def estimate_cost(tasks: Iterable[tuple[int, int]]) -> int:
    return sum(ell ** (2 * f) for ell, f in tasks)


# ---------------------------------------------------------------------------
# engine helpers


def _read_only(*tables: np.ndarray) -> tuple[np.ndarray, ...]:
    # the table caches hand the same arrays to every caller
    for t in tables:
        t.setflags(write=False)
    return tables


@lru_cache(maxsize=None)
def _keep_freed_memory() -> None:
    """Keep memory that chunks free in the heap, for the next task to reuse.

    A chunk's temporaries take tens of MiB.  By default glibc gives the top
    of the heap back to the OS whenever that much lies free there, which is
    at the end of every task, and the next task faults it all back in (about
    14 000 page faults for each (11, 3) shard).  Setting the mmap threshold
    to its 32 MiB maximum and the trim threshold above any chunk's working
    set stops that; peak RSS is unchanged.  Does nothing off glibc.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD


def _check_params(p: FieldParams) -> None:
    if p.m_big >= _ENGINE_CAP:
        raise ParamError(f"vectorized engine capped at m_big < 2^40, got {p.m_big}")


class _Mismatches:
    """A mismatch count and the first _MAX_WITNESSES witnesses, in the order
    they were found, and the number of data checked.  Every task returns
    one, and the report merges them in task order; a witness is its context
    (ell, f) followed by the fields of the mismatch."""

    def __init__(self, **context: int) -> None:
        self.context = context
        self.checked = 0
        self.count = 0
        self.witnesses: list[dict] = []

    def add(self, count: int, **fields) -> None:
        """Count count mismatches.  Each field is a sequence with one value per
        mismatch (numpy values become Python ints and bools) or one value for
        all of them."""
        columns = [
            np.asarray(v).tolist() if np.ndim(v) else itertools.repeat(v) for v in fields.values()
        ]
        rows = ({**self.context, **dict(zip(fields, row))} for row in zip(*columns))
        self.witnesses += itertools.islice(rows, min(count, _MAX_WITNESSES - len(self.witnesses)))
        self.count += count

    def merge(self, other: _Mismatches) -> None:
        """Append other's mismatches, witnesses and checked data to these."""
        self.witnesses += other.witnesses[: _MAX_WITNESSES - len(self.witnesses)]
        self.count += other.count
        self.checked += other.checked


# Scans built in pool workers come home: a worker returns the scans that
# each task built (_built is a list only while a pool task runs), and the
# parent hands each to its cache through _adopted, so that the next kind's
# pool forks with them in place.  _held has the key of every scan in this
# process's caches, built or adopted, so verify_sweep can tell which tasks
# are lookups here.
_built: list | None = None
_adopted: dict[tuple, Any] = {}
_held: set[tuple] = set()


def _scan_cache(build):
    """A scan builder under lru_cache.  A miss takes the scan waiting in
    _adopted, if there is one, and otherwise builds it, recording it for
    the parent when running in a pool task; either way its key joins
    _held.  The cache's cache_clear takes its keys out of _held again."""

    @wraps(build)
    def scan(*args):
        key = (build.__name__, *args)
        if key in _adopted:
            result = _adopted.pop(key)
        else:
            result = build(*args)
            if _built is not None:
                _built.append((key, result))
        _held.add(key)
        return result

    cached = lru_cache(maxsize=None)(scan)
    clear = cached.cache_clear

    def cache_clear() -> None:
        clear()
        _held.difference_update([key for key in _held if key[0] == build.__name__])

    cached.cache_clear = cache_clear
    return cached


def _adopt(built: list) -> None:
    """Put scans that a pool worker built into this process's caches."""
    for key, scan in built:
        _adopted[key] = scan
        globals()[key[0]](*key[1:])
        # already cached here (the pool ran in this process): drop it
        _adopted.pop(key, None)


# ---------------------------------------------------------------------------
# irreducible engine


def _key_dtype(D: int):
    """int32 when every key a + D bcode and every sum 2a + bcode fits in it.

    With 0 <= a < D and 0 <= bcode <= D, keys stay below D (D + 1) and the
    sums below 3 D, so D (D + 2) < 2^31 covers both; int64 above that.
    """
    return np.int32 if D * (D + 2) < 2**31 else np.int64


def _wrap_once(a: np.ndarray, shift: int) -> None:
    """Reduce a mod D in place, for a in [0, 2D) with shift -D or a in
    (-D, D) with shift D: one conditional add of shift, with no per-cell
    modulo.

    Of a and a + shift, the one in [0, D) is the smaller as an unsigned int:
    the other is larger, or negative, and a negative int reads as unsigned
    above every value in [0, D).
    """
    u = np.dtype(f"u{a.itemsize}")
    np.minimum(a.view(u), (a + shift).view(u), out=a.view(u))


def _row_counts(cells: np.ndarray) -> np.ndarray:
    """Number of True cells in each row (first index), as int32."""
    # einsum beats sum(axis=1) two- to threefold on rows this short
    return np.einsum("ij->i", cells.reshape(len(cells), -1), dtype=np.int32)


@lru_cache(maxsize=None)
def _irred_tables(ell: int, f: int):
    """`irred.class_tables` of every class r mod q+1: (admissible, C, bcode),
    each of shape (q+1, 2^f), with C and bcode in the field's key dtype.

    Writing n = k (q+1) + r, admissibility and the digit code of n depend on
    r alone, and a = (k + C[r]) mod (q-1) exactly.
    """
    p = FieldParams(ell, f)
    dtype = _key_dtype(max(p.m_minus, 1))
    admissible, C, bcode = irred.class_tables(p, np.arange(p.m_plus))
    return _read_only(admissible, C.astype(dtype), bcode.astype(dtype))


def _irred_kernel(p: FieldParams, N: np.ndarray):
    """Per-subset solve for every n in N (all assumed valid).

    Returns (admis, a_mat, bcode_mat), each of shape (len(N), 2^f): admis
    is bool, a_mat and bcode_mat have the field's key dtype (int32 unless
    D (D + 2) >= 2^31), with 0 <= a < D.
    """
    admissible, C, bcode = _irred_tables(p.ell, p.f)
    D = max(p.m_minus, 1)
    k, r = np.divmod(N, p.m_plus)
    a_mat = np.take(C, r, axis=0)
    a_mat += (k % D).astype(a_mat.dtype)[:, np.newaxis]
    _wrap_once(a_mat, -D)
    return np.take(admissible, r, axis=0), a_mat, np.take(bcode, r, axis=0)


def _distinct_counts(keys: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Number of distinct key values per row, counting only valid entries.

    Keys are non-negative.  Invalid entries become the sentinel -1, in the
    keys' dtype so the sort stays narrow, and sort to the front of the row;
    a row then has one distinct value per change of value along it, plus
    one for its first entry unless that is the sentinel.
    """
    masked = np.where(valid, keys, keys.dtype.type(-1))
    masked.sort(axis=1)
    changes = _row_counts(masked[:, 1:] != masked[:, :-1])
    return changes + (masked[:, 0] >= 0)


def _det_bad(p: FieldParams, n: np.ndarray, valid, a_mat, bcode_mat) -> np.ndarray:
    """Rows with a valid cell that breaks the determinant law.

    Row i holds the triples (a, b, B) of a datum with exponent sum n[i]
    (n, or n1 + n2); each must satisfy 2a + bcode + cyc_sum = n mod D.  With
    t = (n - cyc_sum) mod D per row and 0 <= 2a + bcode < 3 D, a cell passes
    iff 2a + bcode is t, t + D or t + 2 D, so no cell is reduced mod D.
    """
    D = max(p.m_minus, 1)
    cyc_sum = (p.q - 1) // (p.ell - 1)  # sum of ell^i as an integer
    shape = (len(n),) + (1,) * (a_mat.ndim - 1)
    t = ((n - cyc_sum) % D).astype(a_mat.dtype).reshape(shape)
    s = a_mat * 2
    s += bcode_mat
    s -= t
    bad = s != 0
    bad &= s != D
    bad &= s != 2 * D
    bad &= valid
    bad = bad.reshape(len(n), -1)
    # one flat test first: a passing chunk skips the per-row reduction
    return bad.any(axis=1) if bad.any() else np.zeros(len(n), dtype=bool)


def _irred_chunk_rows(p: FieldParams) -> int:
    # cap the cells (rows x 2^f), not the rows, so wide fields stay small
    return min(_CHUNK, (_CHUNK << 4) >> p.f)


def _irred_shards(p: FieldParams) -> list[range]:
    """The field's n range cut into shards of whole chunks, at most
    _SHARD_CELLS (row, subset) cells each (one chunk where a chunk is
    larger), in increasing n."""
    rows = _irred_chunk_rows(p)
    step = rows * max(1, _SHARD_CELLS // (rows << p.f))
    return [range(s, min(s + step, p.m_big)) for s in range(0, p.m_big, step)]


def _valid_irred_chunks(p: FieldParams, shard: range | None = None):
    """The valid n (not divisible by q+1) of the shard, or of the whole
    field, chunk by chunk on the field's chunk grid."""
    shard = range(p.m_big) if shard is None else shard
    rows = _irred_chunk_rows(p)
    for start in range(shard.start, shard.stop, rows):
        N = np.arange(start, min(start + rows, shard.stop), dtype=np.int64)
        N = N[N % p.m_plus != 0]
        if len(N):
            yield N


def _irred_counts(p: FieldParams, N: np.ndarray):
    """(labeled, distinct, det_bad) per n of a chunk: the labeled-set and
    weight-set sizes, and whether a triple breaks the determinant law."""
    D = max(p.m_minus, 1)
    admis, a_mat, bcode_mat = _irred_kernel(p, N)
    keys = bcode_mat * D
    keys += a_mat
    det_bad = _det_bad(p, N, admis, a_mat, bcode_mat)
    return _row_counts(admis), _distinct_counts(keys, admis), det_bad


# the kinds whose tasks read their collector off a scan
_IRRED_SCAN_KINDS = ("counts-irred", "injectivity-irred", "nonempty", "det-law", "symmetry")
_RED_SCAN_KINDS = ("counts-red", "injectivity-red", "generic-split", "nonempty", "det-law", "symmetry")


@_scan_cache
def _irred_scan(ell: int, f: int, shard: range) -> dict[str, _Mismatches]:
    """One run of n of the irreducible side, compared chunk by chunk with the
    closed forms and run through the symmetry laws: the mismatches of each
    kind that reads it, each with the number of valid n."""
    p = FieldParams(ell, f)
    _check_params(p)
    closed, crit = _closed_irred_lut(ell, f), _inj_irred_lut(ell, f)
    scan = {kind: _Mismatches(ell=ell, f=f) for kind in _IRRED_SCAN_KINDS}
    for N in _valid_irred_chunks(p, shard):
        labeled, distinct, det_bad = _irred_counts(p, N)
        # every closed form depends on n mod q+1 alone
        k, r = np.divmod(N, p.m_plus)
        bad = np.flatnonzero(labeled != closed[r])
        scan["counts-irred"].add(
            len(bad), n=N[bad], enumerated=labeled[bad], closed_form=closed[r[bad]]
        )
        fails = distinct < labeled
        bad = np.flatnonzero(fails != crit[r])
        scan["injectivity-irred"].add(
            len(bad), n=N[bad], enumerated_failure=fails[bad], criterion=crit[r[bad]]
        )
        ns = N[labeled == 0]
        scan["nonempty"].add(len(ns), case="irreducible", n=ns)
        ns = N[det_bad]
        scan["det-law"].add(len(ns), case="irreducible", n=ns)
        _irred_symmetry(p, N, k, r, scan["symmetry"])
        for mm in scan.values():
            mm.checked += len(N)
    return scan


def _per_irred_class(ell: int, f: int, closed_form, dtype) -> np.ndarray:
    # every closed form of an irreducible datum depends on n mod q+1 only
    p = FieldParams(ell, f)
    lut = np.zeros(p.m_plus, dtype=dtype)
    for r in range(1, p.m_plus):
        lut[r] = closed_form(irred.niveau_two(p, r))
    return lut


@lru_cache(maxsize=None)
def _closed_irred_lut(ell: int, f: int) -> np.ndarray:
    """Exported closed-form labeled count per class n mod q+1 (index 0 unused)."""
    return _per_irred_class(ell, f, irred.labeled_count_formula, np.int16)


@lru_cache(maxsize=None)
def _inj_irred_lut(ell: int, f: int) -> np.ndarray:
    """Exported witness criterion per class n mod q+1 (index 0 unused)."""
    return _per_irred_class(ell, f, lambda d: irred.injectivity_witness(d) is not None, bool)


# ---------------------------------------------------------------------------
# reducible engine


@lru_cache(maxsize=None)
def _red_tables(ell: int, f: int):
    """`red.class_tables` of every ratio class n mod q-1: (valid, s_in,
    bcode), each of shape (q-1, 2^f, 2), where valid marks the slots that
    hold a window solution (slot 1 only on a doubled class).  s_in is
    reduced mod q-1, and s_in and bcode have the field's key dtype."""
    p = FieldParams(ell, f)
    D = max(p.m_minus, 1)
    dtype = _key_dtype(D)
    valid, s_in, bcode = red.class_tables(p, np.arange(D))
    return _read_only(valid, (s_in % D).astype(dtype), bcode.astype(dtype))


def _red_kernel(p: FieldParams, N1: np.ndarray, N2: np.ndarray):
    """Per-subset solve for every pair; two solution slots per subset.

    Returns (valid, a_mat, bcode_mat), each of shape (len, 2^f, 2): valid
    is bool, a_mat and bcode_mat have the field's key dtype (int32 unless
    D (D + 2) >= 2^31), with 0 <= a < D.  A slot is only meaningful where
    valid is set.
    """
    valid, s_in, bcode = _red_tables(p.ell, p.f)
    D = max(p.m_minus, 1)
    n = (N1 - N2) % D
    a_mat = np.take(s_in, n, axis=0)
    np.subtract(N1.astype(a_mat.dtype)[:, np.newaxis, np.newaxis], a_mat, out=a_mat)
    _wrap_once(a_mat, D)
    return np.take(valid, n, axis=0), a_mat, np.take(bcode, n, axis=0)


def _red_counts(p: FieldParams):
    """(labeled, distinct, det_bad, certain) per n of the ratio line, the
    pairs (n, 0): the labeled-set and weight-set sizes, whether a triple
    breaks the determinant law, and whether some labeled weight provably
    fills H^1 (the certain part is nonempty); then the line's kernel
    arrays (valid, a_mat, bcode_mat), which the symmetry laws read."""
    D = max(p.m_minus, 1)
    nB = 1 << p.f
    N = np.arange(D, dtype=np.int64)
    valid, a_mat, bcode_mat = _red_kernel(p, N, np.zeros_like(N))
    keys = (a_mat + D * bcode_mat).reshape(D, 2 * nB)
    distinct = _distinct_counts(keys, valid.reshape(D, 2 * nB))
    det_bad = _det_bad(p, N, valid, a_mat, bcode_mat)

    # certain part: some valid slot whose subspace, decided by the recipe's
    # dimension rule, is all of H^1
    _, _, fills = red.dim_bounds(
        p, N[:, np.newaxis, np.newaxis], bcode_mat, np.arange(nB)[np.newaxis, :, np.newaxis]
    )
    fills &= valid
    return _row_counts(valid), distinct, det_bad, fills.any(axis=(1, 2)), valid, a_mat, bcode_mat


@_scan_cache
def _red_scan(ell: int, f: int) -> dict[str, _Mismatches]:
    """The ratio line, compared with the closed forms and run through the
    symmetry laws: the mismatches of each kind that reads it, each with the
    number of ratio exponents (of generic ones for generic-split, and of
    the line and its three images for symmetry)."""
    p = FieldParams(ell, f)
    _check_params(p)
    labeled, distinct, det_bad, certain, *line = _red_counts(p)
    closed, crit, gen = _closed_red_lut(ell, f), _inj_red_lut(ell, f), _generic_lut(ell, f)
    scan = {kind: _Mismatches(ell=ell, f=f) for kind in _RED_SCAN_KINDS}
    ns = np.flatnonzero(labeled != closed)
    scan["counts-red"].add(len(ns), n1=ns, n2=0, enumerated=labeled[ns], closed_form=closed[ns])
    fails = distinct < labeled
    ns = np.flatnonzero(fails != crit)
    scan["injectivity-red"].add(
        len(ns), n1=ns, n2=0, enumerated_failure=fails[ns], criterion=crit[ns]
    )
    ns = np.flatnonzero(gen & (distinct != 2**f))
    scan["generic-split"].add(len(ns), n1=ns, n2=0, weights=distinct[ns], expected=2**f)
    ns = np.flatnonzero(~certain)
    scan["nonempty"].add(len(ns), case="reducible-certain", n1=ns, n2=0)
    ns = np.flatnonzero(det_bad)
    scan["det-law"].add(len(ns), case="reducible", n1=ns, n2=0)
    _red_symmetry(p, *line, scan["symmetry"])
    for mm in scan.values():
        mm.checked = len(labeled)
    scan["generic-split"].checked = int(gen.sum())
    scan["symmetry"].checked = 4 * len(labeled)
    return scan


def _per_ratio_class(ell: int, f: int, closed_form, dtype) -> np.ndarray:
    # every closed form of a split datum depends on the ratio n1 - n2 only
    p = FieldParams(ell, f)
    lut = np.zeros(max(p.m_minus, 1), dtype=dtype)
    for n in range(len(lut)):
        lut[n] = closed_form(red.niveau_one(p, n, 0, red.ExtClass.SPLIT))
    return lut


@lru_cache(maxsize=None)
def _closed_red_lut(ell: int, f: int) -> np.ndarray:
    """Exported closed-form labeled count per ratio exponent."""
    return _per_ratio_class(ell, f, red.labeled_count_formula, np.int16)


@lru_cache(maxsize=None)
def _inj_red_lut(ell: int, f: int) -> np.ndarray:
    """Exported witness criterion per ratio exponent."""
    return _per_ratio_class(ell, f, lambda d: red.injectivity_witness(d) is not None, bool)


@lru_cache(maxsize=None)
def _generic_lut(ell: int, f: int) -> np.ndarray:
    """Exported genericity test per ratio exponent."""
    return _per_ratio_class(ell, f, red.is_generic, bool)


# ---------------------------------------------------------------------------
# symmetry laws, run by both scans on the data they hold


def _shift_bcode(bcode: np.ndarray, ell: int, f: int) -> np.ndarray:
    """Digit code of the cyclically shifted digit vector (top digit wraps)."""
    top_pow = ell ** (f - 1)
    top = bcode // top_pow
    return (bcode - top * top_pow) * ell + top


@lru_cache(maxsize=None)
def _symmetry_tables(ell: int, f: int):
    """The irreducible tables laid out for the symmetry laws, in narrow ints.

    Returns (code, shifted, C, ellC, code_conj, C_conj, code_frob, C_frob),
    each of shape (q+1, 2^f).  code is the digit code, -1 where the class is
    not admissible, so comparing codes also compares admissibility; shifted
    is the code of the cyclically shifted digits with the same -1 marking;
    ellC is ell C mod q-1.  The *_conj and *_frob tables have their columns
    already permuted by the subset maps of conjugation and Frobenius.
    """
    p = FieldParams(ell, f)
    cols = np.arange(1 << f)
    dtype = np.int16 if p.q < 1 << 14 else np.int32
    admissible, C, bcode = _irred_tables(ell, f)
    code = np.where(admissible, bcode, -1).astype(dtype)
    shifted = np.where(admissible, _shift_bcode(bcode, ell, f), -1).astype(dtype)
    ellC = (ell * C) % max(p.m_minus, 1)
    C = C.astype(dtype)
    conj_cols = subset_complement(cols, f)
    frob_cols = irred.frobenius_subset(cols, f)
    return _read_only(
        code, shifted, C, ellC.astype(dtype),
        code[:, conj_cols], C[:, conj_cols], code[:, frob_cols], C[:, frob_cols],
    )


def _irred_symmetry(p: FieldParams, N, k, r, mm: _Mismatches) -> None:
    """Conjugation and Frobenius on a chunk of valid n, with k, r =
    divmod(N, q+1): each n that breaks a law is a witness of it."""
    ell, q, P, M = p.ell, p.q, p.m_plus, p.m_big
    D = max(p.m_minus, 1)
    code_t, shifted_t, C_t, ellC_t, code_conj, C_conj, code_frob, C_frob = _symmetry_tables(ell, p.f)
    code = np.take(code_t, r, axis=0)
    C = np.take(C_t, r, axis=0)
    free = code < 0  # not admissible at n: only the code has to match

    # With n = k (q+1) + r, a = (k + C[r]) mod q-1.  A law that maps n to
    # an image with a(image) = t(a(n)) then reads, per subset,
    # C_img[r_img] - want_C[r] = t(k) - k_img mod q-1.  Each law's side
    # of n is gathered only while that law runs.
    def laws():
        # conjugation: same weights at q n, labels complemented
        yield "conjugation-irred", q * N, code_conj, C_conj, code, C, k
        # frobenius: shifted everything at ell n
        yield ("frobenius-irred", ell * N, code_frob, C_frob,
               np.take(shifted_t, r, axis=0), np.take(ellC_t, r, axis=0), ell * k)

    for kind, image, code_img, C_img, want_code, want_C, want_k in laws():
        k_img, r_img = np.divmod(image % M, P)
        diff = np.take(C_img, r_img, axis=0)
        diff -= want_C
        # diff lies in (-(q-1), q-1), so it is want mod q-1 iff it is
        # want or want - (q-1)
        want = ((want_k - k_img) % D).astype(diff.dtype)[:, np.newaxis]
        ok = diff == want
        want -= D
        ok |= diff == want
        ok |= free
        del diff, want_C
        ok &= np.take(code_img, r_img, axis=0) == want_code
        del want_code
        # one flat test first: a passing chunk skips the per-row reduction
        if not ok.all():
            ns = N[~ok.all(axis=1)]
            mm.add(len(ns), check=kind, n=ns)


def _red_symmetry(p: FieldParams, valid, a_mat, bcode_mat, mm: _Mismatches) -> None:
    """Swap, Frobenius and twist along the ratio line, from the line's
    kernel arrays: each n that breaks a law is a witness of it."""
    ell, f = p.ell, p.f
    D = max(p.m_minus, 1)
    cols = np.arange(1 << f)
    N = np.arange(D, dtype=np.int64)
    Z = np.zeros_like(N)

    def slot_keys(valid, a_mat, bcode_mat):
        # the two slots' keys per subset as (lo, hi), collapsing an unused slot
        keys = a_mat + D * bcode_mat
        k2 = np.where(valid[:, :, 1], keys[:, :, 1], keys[:, :, 0])
        return np.minimum(keys[:, :, 0], k2), np.maximum(keys[:, :, 0], k2)

    lo, hi = slot_keys(valid, a_mat, bcode_mat)
    valid_s, a_s, bcode_s = _red_kernel(p, Z, N)
    lo_s, hi_s = slot_keys(valid_s, a_s, bcode_s)
    conj_cols = subset_complement(cols, f)
    swap_ok = (
        (valid_s[:, conj_cols] == valid).all(axis=2)
        & (lo_s[:, conj_cols] == lo)
        & (hi_s[:, conj_cols] == hi)
    ).all(axis=1)

    frob_cols = red.frobenius_subset(cols, f)
    valid_f, a_f, bcode_f = _red_kernel(p, (ell * N) % D, Z)
    frob_ok = (
        (valid_f[:, frob_cols] == valid).all(axis=2)
        & ((a_f[:, frob_cols] == (ell * a_mat) % D) | ~valid).all(axis=2)
        & ((bcode_f[:, frob_cols] == _shift_bcode(bcode_mat, ell, f)) | ~valid).all(axis=2)
    ).all(axis=1)

    # twist naturality at c = 1 (composition generates every twist)
    valid_t, a_t, bcode_t = _red_kernel(p, (N + 1) % D, (Z + 1) % D)
    twist_ok = (
        (valid_t == valid).all(axis=2)
        & ((a_t == (a_mat + 1) % D) | ~valid).all(axis=2)
        & ((bcode_t == bcode_mat) | ~valid).all(axis=2)
    ).all(axis=1)
    for kind, ok in (("swap-red", swap_ok), ("frobenius-red", frob_ok), ("twist-red", twist_ok)):
        ns = N[~ok]
        mm.add(len(ns), check=kind, n=ns)


# ---------------------------------------------------------------------------
# tasks: one kind on one shard of one field, each returning one _Mismatches.
# A shard is a run of n, a block of n1 rows of the counts-red grid, or None,
# the ratio line.


def _grid_block(p: FieldParams) -> tuple[int, int]:
    """(n1 rows, n2 columns) of one block of the counts-red (n1, n2) grid:
    whole n1 rows, or pieces of one row when a row alone exceeds the chunk."""
    D = max(p.m_minus, 1)
    pair_chunk = max(1, _CHUNK // (2 << p.f))
    return max(1, pair_chunk // D), min(D, pair_chunk)


def _grid_shards(p: FieldParams) -> list[range]:
    """The grid's n1 range cut into shards of whole blocks, at most
    _SHARD_CELLS (pair, slot) cells each (one block of rows where that is
    larger)."""
    D = max(p.m_minus, 1)
    rows, _ = _grid_block(p)
    step = rows * max(1, _SHARD_CELLS // ((rows * D) << (p.f + 1)))
    return [range(s, min(s + step, D)) for s in range(0, D, step)]


def _shards(kind: str, p: FieldParams) -> list:
    """The shards of one kind on one field, in the order of its witnesses."""
    if kind in ("counts-irred", "injectivity-irred"):
        return _irred_shards(p)
    if kind in ("det-law", "nonempty", "symmetry"):
        return _irred_shards(p) + [None]
    if kind == "counts-red":
        return [None] + _grid_shards(p)
    return [None]


def _run_counts_red(ell: int, f: int, shard: range) -> _Mismatches:
    """The grid's n1 rows in shard, re-enumerated block by block with the
    determinant law on every pair (the ratio line's counts are a lookup of
    its scan)."""
    p = FieldParams(ell, f)
    D = max(p.m_minus, 1)
    lut = _closed_red_lut(ell, f)
    mm = _Mismatches(ell=ell, f=f)
    rows, cols = _grid_block(p)
    for n1_start in range(shard.start, shard.stop, rows):
        n1s = np.arange(n1_start, min(n1_start + rows, shard.stop), dtype=np.int64)
        for n2_start in range(0, D, cols):
            n2s = np.arange(n2_start, min(n2_start + cols, D), dtype=np.int64)
            N1, N2 = np.repeat(n1s, len(n2s)), np.tile(n2s, len(n1s))
            valid, a_mat, bcode_mat = _red_kernel(p, N1, N2)
            counts = _row_counts(valid)
            closed = lut[(N1 - N2) % D]
            js = np.flatnonzero(counts != closed)
            mm.add(len(js), n1=N1[js], n2=N2[js], enumerated=counts[js], closed_form=closed[js])
            # determinant law across the grid, while the triples are in hand
            js = np.flatnonzero(_det_bad(p, N1 + N2, valid, a_mat, bcode_mat))
            mm.add(len(js), n1=N1[js], n2=N2[js], check="det-law")
            mm.checked += len(N1)
    return mm


def _run_qtable(ell: int, f: int, shard: None) -> _Mismatches:
    # f is ignored; the tables live at f = 1
    checks: list[tuple[int, str, bool]] = []  # (b, check, passed)
    for b in range(1, ell):
        checks.append((b, "niveau2", qtable.crosscheck_niveau2(ell, b)))
        checks.append((b, "split", qtable.crosscheck_split(ell, b)))
        # subset relations for the non-split rows
        params = FieldParams(ell, 1)
        d_unknown = red.niveau_one(params, b, 0, red.ExtClass.NONSPLIT_UNKNOWN)
        certain, possible = red.weight_sets_partial(d_unknown)
        split_set = red.weight_set_split(red.niveau_one(params, b, 0, red.ExtClass.SPLIT))
        for kind in (
            qtable.RationalShapeKind.NONSPLIT_GENERIC,
            qtable.RationalShapeKind.PEU,
            qtable.RationalShapeKind.TRES,
        ):
            try:
                shape = qtable.RationalShape(ell, b, kind)
            except IllegalShape:
                continue
            table = qtable.weights_over_Q(shape)
            checks.append((b, f"sandwich-{kind.value}", certain <= table <= split_set))
        tres_ok = True
        if b == 1:
            tres = qtable.weights_over_Q(qtable.RationalShape(ell, 1, qtable.RationalShapeKind.TRES))
            peu = qtable.weights_over_Q(qtable.RationalShape(ell, 1, qtable.RationalShapeKind.PEU))
            tres_ok = tres <= peu
        # counted for every b, though only b = 1 compares anything
        checks.append((b, "tres-subset-peu", tres_ok))
    mm = _Mismatches(ell=ell)
    for b, check, passed in checks:
        mm.add(int(not passed), b=b, check=check)
    mm.checked = len(checks)
    return mm


ALL_KINDS = (
    "counts-irred", "counts-red", "injectivity-irred", "injectivity-red", "det-law",
    "symmetry", "nonempty", "generic-split", "qtable-crosscheck",
)

# the runners of the tasks that _scan_key finds no scan for
_KIND_RUNNERS: dict[str, Callable[..., _Mismatches]] = {
    "counts-red": _run_counts_red,
    "qtable-crosscheck": _run_qtable,
}


# ---------------------------------------------------------------------------
# the public sweep


@dataclass
class VerificationReport:
    kind: str
    tasks: list[tuple[int, int]]
    checked: int
    mismatch_count: int
    mismatches: list[dict]
    elapsed_s: float = field(default=0.0, compare=False)

    @property
    def passed(self) -> bool:
        return self.mismatch_count == 0

    def to_dict(self) -> dict[str, Any]:
        """Deterministic payload; wall time deliberately excluded."""
        return {
            "kind": self.kind,
            "tasks": [{"ell": ell, "f": f} for ell, f in self.tasks],
            "checked": self.checked,
            "mismatch_count": self.mismatch_count,
            "mismatches": self.mismatches,
            "passed": self.passed,
        }


def _scan_key(task: tuple[str, int, int], shard: range | None) -> tuple | None:
    """The cache key of the scan whose collector is the task's result (the
    ratio line's for shard None), or None for a task with work of its own
    (the counts-red grid, qtable-crosscheck)."""
    kind, ell, f = task
    if shard is None:
        return ("_red_scan", ell, f) if kind in _RED_SCAN_KINDS else None
    return ("_irred_scan", ell, f, shard) if kind in _IRRED_SCAN_KINDS else None


def _run_one(task: tuple[str, int, int], shard: range | None) -> _Mismatches:
    """One kind on one shard of one field: its collector in the scan that
    _scan_key names, or else the kind's own runner."""
    key = _scan_key(task, shard)
    if key is not None:
        return globals()[key[0]](*key[1:])[task[0]]
    kind, ell, f = task
    return _KIND_RUNNERS[kind](ell, f, shard)


def _pool_task(task: tuple[str, int, int], shard: range | None):
    """_run_one in a pool worker: its result, and the scans it built."""
    global _built
    _built = []
    try:
        return _run_one(task, shard), _built
    finally:
        _built = None


def verify_sweep(
    kind: str,
    ells: Sequence[int],
    f_max: int,
    budget: float = 1e7,
    space_cap: int | None = None,
    jobs: int = 1,
) -> VerificationReport:
    """Run one verification kind over every (ell, f) in range.

    Raises BudgetExceeded before doing any work when the planned cost
    (sum of ell^(2f) residue classes) exceeds the budget.  The work is one
    task per shard of each field (see the module docstring), the same
    tasks for any jobs.  With jobs > 1 they are distributed over a process
    pool of at most min(jobs, pending tasks, CPUs) workers, where a task is
    pending unless it only reads a scan this process already holds; with
    one pending task or none, every task runs here, as in a serial run.
    The scans the workers build are adopted into this process's caches for
    the next kind; results merge in task order, so the report is identical
    to a serial run.  Raises ParamError when the plan holds no field.
    """
    if jobs < 1:
        raise ParamError(f"jobs must be at least 1, got {jobs}")
    if kind not in ALL_KINDS:
        raise ParamError(f"unknown verification kind {kind!r}")
    if kind == "qtable-crosscheck":
        tasks = [(ell, 1) for ell in sorted(set(ells))]
    else:
        tasks = plan_tasks(ells, f_max, space_cap)
        if not tasks:
            cap = "" if space_cap is None else f" and ell^(2f) <= {space_cap}"
            raise ParamError(
                f"no field to verify: no (ell, f) with 1 <= f <= {f_max}{cap};"
                " raise --f-max or --space-cap"
            )
    for ell, f in tasks:
        _check_params(FieldParams(ell, f))
    cost = estimate_cost(tasks)
    if cost > budget:
        raise BudgetExceeded(
            f"planned sweep enumerates {cost} residue classes, budget is {budget:g}"
        )
    _keep_freed_memory()
    t0 = time.monotonic()
    work = [((kind, ell, f), s) for ell, f in tasks for s in _shards(kind, FieldParams(ell, f))]
    # the pool forks all its workers on the first submit, so never ask for
    # more than there are tasks or CPUs to run them; a task whose scan is
    # held here is a lookup, not worth a process
    pending = sum(_scan_key(*w) not in _held for w in work)
    workers = min(jobs, pending, os.cpu_count() or 1)
    if workers > 1:
        results = []
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for result, built in pool.map(_pool_task, *zip(*work)):
                _adopt(built)
                results.append(result)
    else:
        results = [_run_one(*w) for w in work]
    merged = _Mismatches()
    for result in results:
        merged.merge(result)
    return VerificationReport(
        kind=kind,
        tasks=tasks,
        checked=merged.checked,
        mismatch_count=merged.count,
        mismatches=merged.witnesses,
        elapsed_s=time.monotonic() - t0,
    )
