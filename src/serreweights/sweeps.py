"""Exhaustive verification sweeps over whole residue rings.

Each sweep kind re-derives a proposition two independent ways and compares
them at every datum in range:

  counts-irred        enumerated labeled-set size vs the closed-form count
  counts-red          same, over the ratio line and over the full (n1, n2) grid
  injectivity-irred   enumerated |weights| < |labeled| vs the witness criterion
  injectivity-red     same, including the always-failing trivial-ratio case
  det-law             every enumerated triple satisfies the determinant law
  symmetry            conjugation, swap, Frobenius shift, and twist naturality
  nonempty            weight sets are never empty (certain part included)
  generic-split       generic split data have exactly 2^f weights
  qtable-crosscheck   the f = 1 tables vs the general recipes

The closed-form side is the exported labeled_count_formula,
injectivity_witness and is_generic themselves, not copies.  Each depends on
n mod q+1 or on the ratio n1 - n2 mod q-1 only, so it is called on one
datum per class, into a table that the irreducible kinds spread over rows
k and columns r of n = k (q+1) + r.  nonempty's certain part reads
reducible.dimension_rule and h1_excess.  One collector, _Mismatches, keeps
every runner's and the merged report's mismatch count and witnesses.

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

The symmetry sweep needs no kernel call.  Per chunk it runs one divmod by
q+1 for n and one for each image (q n, ell n and n + (q+1), mod q^2-1),
then gathers rows of narrow-int tables: the digit codes, -1 where a class
is not admissible, must be equal, and the a values must agree, compared as
a difference of C entries against the difference of the k's.  The twist
law is an identity of the factorization (n + (q+1) has the same r and
k + 1), so the labeled-set-vs-oracle tests on those many-lift fields are
what pin it.

Budget: a sweep over (ell, f) is charged ell^(2f), the number of residue
classes enumerated (each one gathered and compared across all 2^f subsets),
and `verify_sweep` refuses to start when the planned total exceeds the
budget.
"""

from __future__ import annotations

import itertools
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache
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


def _check_params(p: FieldParams) -> None:
    if p.m_big >= _ENGINE_CAP:
        raise ParamError(f"vectorized engine capped at m_big < 2^40, got {p.m_big}")


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


@dataclass
class _IrredScan:
    labeled: np.ndarray  # int16, labeled-set size per n (0 at invalid n)
    distinct: np.ndarray  # int16, weight-set size per n
    det_bad: list  # ns with a determinant-law violation
    checked: int


def _valid_irred_chunks(p: FieldParams):
    # cap the cells (rows x 2^f), not the rows, so wide fields stay small
    rows = min(_CHUNK, (_CHUNK << 4) >> p.f)
    for start in range(0, p.m_big, rows):
        N = np.arange(start, min(start + rows, p.m_big), dtype=np.int64)
        N = N[N % p.m_plus != 0]
        if len(N):
            yield N


@lru_cache(maxsize=None)
def _irred_scan(ell: int, f: int) -> _IrredScan:
    p = FieldParams(ell, f)
    _check_params(p)
    D = max(p.m_minus, 1)
    labeled = np.zeros(p.m_big, dtype=np.int16)
    distinct = np.zeros(p.m_big, dtype=np.int16)
    det_bad: list[int] = []
    checked = 0
    for N in _valid_irred_chunks(p):
        admis, a_mat, bcode_mat = _irred_kernel(p, N)
        labeled[N] = _row_counts(admis)
        keys = bcode_mat * D
        keys += a_mat
        distinct[N] = _distinct_counts(keys, admis)
        det_bad.extend(int(x) for x in N[_det_bad(p, N, admis, a_mat, bcode_mat)])
        checked += len(N)
    return _IrredScan(labeled, distinct, det_bad, checked)


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


@dataclass
class _RedScan:
    labeled: np.ndarray  # int16 per n (pair (n, 0))
    distinct: np.ndarray
    det_bad: list
    certain_missing: list  # ns where no labeled weight provably fills H^1
    checked: int


@lru_cache(maxsize=None)
def _red_scan(ell: int, f: int) -> _RedScan:
    p = FieldParams(ell, f)
    _check_params(p)
    D = max(p.m_minus, 1)
    nB = 1 << f
    N = np.arange(D, dtype=np.int64)
    Z = np.zeros_like(N)
    valid, a_mat, bcode_mat = _red_kernel(p, N, Z)
    labeled = _row_counts(valid).astype(np.int16)

    keys = (a_mat + D * bcode_mat).reshape(D, 2 * nB)
    distinct = _distinct_counts(keys, valid.reshape(D, 2 * nB)).astype(np.int16)

    det_bad = [int(x) for x in N[_det_bad(p, N, valid, a_mat, bcode_mat)]]

    # certain part: some valid slot whose subspace, decided by the recipe's
    # dimension rule, is all of H^1.  fill_j holds the |J| that fills H^1 in
    # each of the rule's 16 cases, -1 where it leaves the dimension undecided.
    fill_j = np.full((2, 2, 2, 2), -1)
    for case in itertools.product((0, 1), repeat=4):
        delta, decidable = red.dimension_rule(*map(bool, case))
        if decidable:
            fill_j[case] = f + red.h1_excess(*map(bool, case[:2])) - delta
    flags = (  # trivial ratio, cyclotomic ratio, b = (ell..ell), J full
        (N == 0)[:, np.newaxis, np.newaxis],
        (N == p.cyclotomic_exponent)[:, np.newaxis, np.newaxis],
        bcode_mat == p.q - 1,
        (np.arange(nB) == nB - 1)[np.newaxis, :, np.newaxis],
    )
    j_sizes = np.array([bin(B).count("1") for B in range(nB)])[np.newaxis, :, np.newaxis]
    fills = valid & (j_sizes == fill_j[tuple(x.astype(np.intp) for x in flags)])
    certain_missing = [int(x) for x in N[~fills.any(axis=(1, 2))]]

    return _RedScan(labeled, distinct, det_bad, certain_missing, checked=D)


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
# per-kind task runners: return (checked, witnesses, mismatch count)


class _Mismatches:
    """A mismatch count and the first _MAX_WITNESSES witnesses, in the order
    they were found.  Every runner and the merge of task results keep their
    witnesses here; a runner's witness is its context (ell, f) followed by
    the fields of the mismatch."""

    def __init__(self, **context: int) -> None:
        self.context = context
        self.count = 0
        self.witnesses: list[dict] = []

    def merge(self, count: int, witnesses: Iterable[dict]) -> None:
        """Count count mismatches and keep their witnesses while there is room."""
        room = min(count, _MAX_WITNESSES - len(self.witnesses))
        self.witnesses += itertools.islice(witnesses, room)
        self.count += count

    def add(self, count: int, **fields) -> None:
        """Count count mismatches.  Each field is a sequence with one value per
        mismatch (numpy values become Python ints and bools) or one value for
        all of them."""
        columns = [
            np.asarray(v).tolist() if np.ndim(v) else itertools.repeat(v) for v in fields.values()
        ]
        self.merge(count, ({**self.context, **dict(zip(fields, row))} for row in zip(*columns)))


def _irred_bad(p: FieldParams, per_n: np.ndarray, per_class: np.ndarray):
    """(n, r) of every valid n where per_n[n] differs from per_class[r], in
    increasing n: per_n is laid out as rows k and columns r of
    n = k (q+1) + r, less the column r = 0 where no n is valid."""
    k, r = np.nonzero(per_n.reshape(-1, p.m_plus)[:, 1:] != per_class[1:])
    r += 1
    return k * p.m_plus + r, r


def _run_counts_irred(ell: int, f: int):
    scan = _irred_scan(ell, f)
    p = FieldParams(ell, f)
    closed = _closed_irred_lut(ell, f)
    ns, rs = _irred_bad(p, scan.labeled, closed)
    mm = _Mismatches(ell=ell, f=f)
    mm.add(len(ns), n=ns, enumerated=scan.labeled[ns], closed_form=closed[rs])
    return scan.checked, mm.witnesses, mm.count


def _run_counts_red(ell: int, f: int):
    scan = _red_scan(ell, f)
    p = FieldParams(ell, f)
    D = max(p.m_minus, 1)
    lut = _closed_red_lut(ell, f)
    mm = _Mismatches(ell=ell, f=f)
    # ratio-line form
    ns = np.flatnonzero(scan.labeled != lut)
    mm.add(len(ns), n1=ns, n2=0, enumerated=scan.labeled[ns], closed_form=lut[ns])
    checked = scan.checked
    # full pair grid, honestly re-enumerated: blocks of whole n1 rows, or
    # pieces of one row when a row alone exceeds the chunk
    nB = 1 << f
    pair_chunk = max(1, _CHUNK // (2 * nB))
    rows, cols = max(1, pair_chunk // D), min(D, pair_chunk)
    for n1_start in range(0, D, rows):
        n1s = np.arange(n1_start, min(n1_start + rows, D), dtype=np.int64)
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
            checked += len(N1)
    return checked, mm.witnesses, mm.count


def _run_injectivity_irred(ell: int, f: int):
    scan = _irred_scan(ell, f)
    p = FieldParams(ell, f)
    enum_fails = scan.distinct < scan.labeled
    crit = _inj_irred_lut(ell, f)
    ns, rs = _irred_bad(p, enum_fails, crit)
    mm = _Mismatches(ell=ell, f=f)
    mm.add(len(ns), n=ns, enumerated_failure=enum_fails[ns], criterion=crit[rs])
    return scan.checked, mm.witnesses, mm.count


def _run_injectivity_red(ell: int, f: int):
    scan = _red_scan(ell, f)
    enum_fails = scan.distinct < scan.labeled
    crit = _inj_red_lut(ell, f)
    ns = np.flatnonzero(enum_fails != crit)
    mm = _Mismatches(ell=ell, f=f)
    mm.add(len(ns), n1=ns, n2=0, enumerated_failure=enum_fails[ns], criterion=crit[ns])
    return scan.checked, mm.witnesses, mm.count


def _run_det_law(ell: int, f: int):
    si = _irred_scan(ell, f)
    sr = _red_scan(ell, f)
    mm = _Mismatches(ell=ell, f=f)
    mm.add(len(si.det_bad), case="irreducible", n=si.det_bad)
    mm.add(len(sr.det_bad), case="reducible", n1=sr.det_bad, n2=0)
    return si.checked + sr.checked, mm.witnesses, mm.count


def _run_nonempty(ell: int, f: int):
    si = _irred_scan(ell, f)
    sr = _red_scan(ell, f)
    p = FieldParams(ell, f)
    # every valid n has a nonempty labeled set
    ns, _ = _irred_bad(p, si.labeled > 0, np.ones(p.m_plus, dtype=bool))
    mm = _Mismatches(ell=ell, f=f)
    mm.add(len(ns), case="irreducible", n=ns)
    mm.add(len(sr.certain_missing), case="reducible-certain", n1=sr.certain_missing, n2=0)
    return si.checked + sr.checked, mm.witnesses, mm.count


def _run_generic_split(ell: int, f: int):
    sr = _red_scan(ell, f)
    gen = _generic_lut(ell, f)
    ns = np.flatnonzero(gen & (sr.distinct != 2**f))
    mm = _Mismatches(ell=ell, f=f)
    mm.add(len(ns), n1=ns, n2=0, weights=sr.distinct[ns], expected=2**f)
    return int(gen.sum()), mm.witnesses, mm.count


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


def _run_symmetry(ell: int, f: int):
    p = FieldParams(ell, f)
    _check_params(p)
    D = max(p.m_minus, 1)
    q, P, M = p.q, p.m_plus, p.m_big
    nB = 1 << f
    mm = _Mismatches(ell=ell, f=f)
    checked = 0
    code_t, shifted_t, C_t, ellC_t, code_conj, C_conj, code_frob, C_frob = _symmetry_tables(ell, f)
    for N in _valid_irred_chunks(p):
        k, r = np.divmod(N, P)
        code = np.take(code_t, r, axis=0)
        C = np.take(C_t, r, axis=0)
        free = code < 0  # not admissible at n: only the code has to match
        # With n = k (q+1) + r, a = (k + C[r]) mod q-1.  A law that maps n to
        # an image with a(image) = t(a(n)) then reads, per subset,
        # C_img[r_img] - want_C[r] = t(k) - k_img mod q-1.
        laws = (
            # conjugation: same weights at q n, labels complemented
            ("conjugation-irred", q * N, code_conj, C_conj, code, C, k),
            # frobenius: shifted everything at ell n
            ("frobenius-irred", ell * N, code_frob, C_frob,
             np.take(shifted_t, r, axis=0), np.take(ellC_t, r, axis=0), ell * k),
            # twist naturality at c = 1 (composition generates every twist)
            ("twist-irred", N + P, code_t, C_t, code, C, k + 1),
        )
        for kind, image, code_img, C_img, want_code, want_C, want_k in laws:
            k_img, r_img = np.divmod(image % M, P)
            diff = np.take(C_img, r_img, axis=0)
            diff -= want_C
            # diff lies in (-(q-1), q-1), so it is want mod q-1 iff it is
            # want or want - (q-1)
            want = ((want_k - k_img) % D).astype(diff.dtype)
            a_ok = (diff == want[:, np.newaxis]) | (diff == (want - D)[:, np.newaxis]) | free
            ok = (np.take(code_img, r_img, axis=0) == want_code) & a_ok
            ns = N[~ok.all(axis=1)]
            mm.add(len(ns), check=kind, n=ns)
        checked += len(N)

    # reducible symmetries along the ratio line
    cols = np.arange(nB)
    N = np.arange(D, dtype=np.int64)
    Z = np.zeros_like(N)

    def slot_keys(valid, a_mat, bcode_mat):
        # the two slots' keys per subset as (lo, hi), collapsing an unused slot
        keys = a_mat + D * bcode_mat
        k2 = np.where(valid[:, :, 1], keys[:, :, 1], keys[:, :, 0])
        return np.minimum(keys[:, :, 0], k2), np.maximum(keys[:, :, 0], k2)

    valid, a_mat, bcode_mat = _red_kernel(p, N, Z)
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

    valid_t, a_t, bcode_t = _red_kernel(p, (N + 1) % D, (Z + 1) % D)
    twist_ok = (
        (valid_t == valid).all(axis=2)
        & ((a_t == (a_mat + 1) % D) | ~valid).all(axis=2)
        & ((bcode_t == bcode_mat) | ~valid).all(axis=2)
    ).all(axis=1)
    for kind, ok in (("swap-red", swap_ok), ("frobenius-red", frob_ok), ("twist-red", twist_ok)):
        ns = N[~ok]
        mm.add(len(ns), check=kind, n=ns)
    return checked + 4 * D, mm.witnesses, mm.count


def _run_qtable(ell: int, f: int):
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
    return len(checks), mm.witnesses, mm.count


_KIND_RUNNERS: dict[str, Callable[[int, int], tuple]] = {
    "counts-irred": _run_counts_irred,
    "counts-red": _run_counts_red,
    "injectivity-irred": _run_injectivity_irred,
    "injectivity-red": _run_injectivity_red,
    "det-law": _run_det_law,
    "symmetry": _run_symmetry,
    "nonempty": _run_nonempty,
    "generic-split": _run_generic_split,
    "qtable-crosscheck": _run_qtable,
}

ALL_KINDS = tuple(_KIND_RUNNERS)


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


def _run_one(args: tuple[str, int, int]):
    kind, ell, f = args
    return _KIND_RUNNERS[kind](ell, f)


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
    (sum of ell^(2f) residue classes) exceeds the budget.  With jobs > 1 the
    tasks are distributed over a process pool of at most min(jobs, tasks,
    CPUs) workers; reports merge in task order, so the result is identical
    to a serial run.
    """
    if jobs < 1:
        raise ParamError(f"jobs must be at least 1, got {jobs}")
    if kind not in _KIND_RUNNERS:
        raise ParamError(f"unknown verification kind {kind!r}")
    if kind == "qtable-crosscheck":
        tasks = [(ell, 1) for ell in sorted(set(ells))]
    else:
        tasks = plan_tasks(ells, f_max, space_cap)
    for ell, f in tasks:
        _check_params(FieldParams(ell, f))
    cost = estimate_cost(tasks)
    if cost > budget:
        raise BudgetExceeded(
            f"planned sweep enumerates {cost} residue classes, budget is {budget:g}"
        )
    t0 = time.monotonic()
    args = [(kind, ell, f) for ell, f in tasks]
    # the pool forks all its workers on the first submit, so never ask for
    # more than there are tasks or CPUs to run them
    workers = min(jobs, len(args), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_one, args))
    else:
        results = [_run_one(a) for a in args]
    mm = _Mismatches()
    for _, witnesses, count in results:
        mm.merge(count, witnesses)
    return VerificationReport(
        kind=kind,
        tasks=tasks,
        checked=sum(r[0] for r in results),
        mismatch_count=mm.count,
        mismatches=mm.witnesses,
        elapsed_s=time.monotonic() - t0,
    )
