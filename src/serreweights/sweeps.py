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
n mod q+1 or on the ratio n1 - n2 mod q-1 only, so the builder of a field's
class layout (_irred_cols, _grid_tables) calls it on one datum per class
and lays the results out as columns beside the labeled counts, which the
scans read.  nonempty's certain part reads reducible.dim_bounds.

A sweep reads every result off scans.  A scan keeps one collector,
_Mismatches (a mismatch count, the first witnesses and the number of data
checked), per kind that reads its data, not per-n arrays:
_build_irred_scan compares each block of a shard of k rows of the
irreducible (k, r) grid with the per-class tables and runs the symmetry
laws on it while the block is in hand, _build_red_scan does the same for
the ratio line, _build_grid_scan re-enumerates a shard of n1 rows of the
counts-red (n1, n2) grid, and _build_qtable_scan compares the f = 1
tables of one ell with the general recipes.  _blocks cuts a shard into
blocks of about _CHUNK (row, subset) cells, and _shards cuts a grid into
shards of whole blocks, at most _SHARD_CELLS cells each (one block where
a block is larger).  _IRRED_SCAN_KINDS and _RED_SCAN_KINDS name the kinds
that k-row shards and the ratio line serve.  _scan_keys lists the scans
of one kind on one field in its witness order: shards in increasing
order, and the ratio line first for counts-red and last for det-law,
nonempty and symmetry.  The list depends on the field alone and the
collectors merge in its order, so the report never depends on jobs.

Every scan this process holds is in _scans, under its builder's name and
arguments, and _scan builds one only on a miss.  With jobs > 1,
verify_sweep builds the scans missing from _scans in a pool sized by
their number and stores what the workers return; so the next kind's pool
forks with them in place, and no worker outlives its verify_sweep call.
qtable scans take a few ms each, less than a fork, so they are always
built in-process.  Under `verify all`, only counts-irred and counts-red
fork a pool; the other kinds read held scans and run in-process.

The enumeration side runs on a table-driven engine.  For each subset B the
recipe's greedy window decode depends only on n mod q+1 (irreducible side)
or on the ratio n1 - n2 mod q-1 (reducible side).  So each field takes the
recipe modules' class_tables of all those q±1 classes once, for all 2^f
subsets, built on first use; the same builders give the single-datum
labeled sets one row at a time, so the recipe has one implementation.
The layouts are held one field at a time: a sweep reads the fields in
order, so each is still built once per field and process.
With n = k (q+1) + r, the irreducible solution is then
a = (k + C_B[r]) mod (q-1) with the digit code of r; on the reducible side
a = (n1 + C_B[c]) mod (q-1), with C = q-1 - (B-part digit sum) of the
ratio class c.  The test suite pins the labeled sets against the
definitional oracles of tests/oracles.py exhaustively on small
parameters, including fields where each class mod q+1 has many lifts, and
by sampling on large ones.

The sweeps evaluate every datum in range, block by block, and nothing is
gathered per n.  Both sides are grids of rows x width data, a row
coordinate by a class.  The irreducible side puts n = k (q+1) + r at row
k in [0, q-1) and column r in [0, q+1), with 2^f (subset) cells per n;
counts-red puts (n1, n2) at row n1 and column c = n1 - n2 mod q-1, its
ratio class, both in [0, q-1), with 2^(f+1) (subset, slot) cells per
pair.  _block_shape cuts both by one rule: the whole number of
rows nearest to _CHUNK = 2^18 cells, or, where one row holds more, the
whole number of equal pieces of a row nearest to it.  So a block holds
fewer than 1.5 _CHUNK cells plus one datum's, and its temporaries take a
few MiB, about a core's L2 cache, however wide the field.
A block is a (cells, K, W) array, one plane per subset (and slot): K rows
by W columns of classes.  The class tables are laid out (cells, classes),
column c holding class c, so a block's tables are a slice of columns, a
view that broadcasts over its rows.  Each datum takes its row (k, or n1)
from the block's row, with no divmod, and one helper, _solve, computes
its own a = row + C[class] on every cell and the determinant law for
both sides.  On the irreducible side class 0 holds no datum.  On the
counts-red side _pairs reads the tables so for every block of pairs, the
ratio line and its symmetry images included, each pair with its
n2 = (n1 - c) mod q-1.  Distinct counts sort each datum's keys, by a
sorting network of the contiguous subset planes' minima and maxima up to
16 planes, and above that in a contiguous cell-major copy along its last
axis, and count the changes between adjacent keys.

The blocks work in narrow ints.  With D = q-1, every a lies in [0, D)
and every digit code in [0, D], so the distinct-count keys a + D bcode
stay below D (D+1): int32 holds them whenever D (D+2) < 2^31, which
covers every field a default budget admits, and int64 is used only above
that.  Everything else per cell lies in (-D, 3D) and is int16 whenever
3D < 2^15.  Both tables C lie in [0, D], so a = row + C is brought into
[0, D) by one conditional subtraction of D, not by a modulo over cells.
The determinant law 2a + bcode + cyc_sum = n mod D (n1 + n2 for a pair)
is tested the same way: with t = (n - cyc_sum) mod D taken once per
datum, a cell passes iff 2a + bcode - t is 0, D or 2D.  Every cell is still tested, on the a the
counts and keys use.

On an irreducible block the symmetry laws need no a.  Each law has one
narrow table per class and subset, Delta = C[r', pi(B)] - want_C[r, B]
mod q-1 for the image class r' and the law's subset map pi, or a
sentinel: the law fails where the digit codes of the cell and its image
differ (admissibility included), and holds where neither side is
admissible.  Each n computes its image's k' in narrow ints from closed
forms in (k, r), k + r - 1 under conjugation and ell k +
floor(ell r / (q+1)) under Frobenius (mod q-1), and a cell holds the law
iff its Delta is the pass sentinel or want_k - k' mod q-1.  Each law tests its block with one flat any() and
reduces it per n, to name the failing n, only when that fails.
No irreducible twist law is checked: n + (q+1) has the same r and k + 1,
so it holds by the factorization, and the labeled-set-vs-oracle tests on
those many-lift fields pin it.  On the ratio line, swap, Frobenius and
twist compare the arrays that the counts hold with those that _pairs
reads at the images: the line (n, 0) is class n with n1 = n, its twist
(n + 1, 1) class n with n1 = n + 1, and its swap (0, n) class -n with
n1 = 0.

Budget: a sweep over (ell, f) is charged ell^(2f), the number of residue
classes enumerated (each one evaluated and compared across all 2^f subsets),
and `verify_sweep` refuses to start when the planned total exceeds the
budget, or when the plan holds no field at all.
"""

from __future__ import annotations

import ctypes
import itertools
import os
import time
from collections import namedtuple
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Iterable, NamedTuple, Sequence

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
        FieldParams(ell, 1)  # validates ell
        for f in range(1, f_max + 1):
            # ell^(2f) grows with f: the first field over the cap ends the run
            if space_cap is not None and ell ** (2 * f) > space_cap:
                break
            FieldParams(ell, f)  # validates f
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
    """Keep memory that blocks free in the heap, for the next block and task
    to reuse.

    A block's temporaries take a few MiB.  By default glibc maps arrays that
    large on their own and gives them back to the OS when freed, with the
    free top of the heap, and the next block faults them back in: the sweeps
    of `verify all --ell 2 --f-max 8` take 10 855 minor page faults without
    this setting against 3 270 with it, and those of the acceptance range
    8 143 against 1 540.  Setting the mmap threshold to its 32 MiB maximum
    and the trim threshold above any block's working set stops that; peak
    RSS moves by under 1 MiB.  Does nothing off glibc.
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
    they were found, and the number of data checked.  A scan holds one per
    kind that reads it, and the report merges a kind's in scan order; a
    witness is its context (ell, f) followed by the fields of the mismatch."""

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


# Every scan this process holds, built here or in a pool's worker: its
# builder's name and arguments -> one collector per kind that reads it.
_scans: dict[tuple, dict[str, _Mismatches]] = {}


def _scan(key: tuple) -> dict[str, _Mismatches]:
    """The scan that key names, built and held on a miss."""
    if key not in _scans:
        _scans[key] = globals()[key[0]](*key[1:])
    return _scans[key]


# ---------------------------------------------------------------------------
# irreducible engine


def _key_dtype(D: int):
    """int32 when every key a + D bcode and every sum 2a + bcode fits in it.

    With 0 <= a < D and 0 <= bcode <= D, keys stay below D (D + 1) and the
    sums below 3 D, so D (D + 2) < 2^31 covers both; int64 above that.
    """
    return np.int32 if D * (D + 2) < 2**31 else np.int64


def _sum_dtype(D: int):
    """The dtype of the per-cell arithmetic other than the keys: int16 when
    every a (in [0, D)) and every determinant-law sum 2a + bcode - t (in
    (-D, 3 D)) fits in it, as in every field a default budget admits with
    ell > 2, and the key dtype above that."""
    return np.int16 if 3 * D < 2**15 else _key_dtype(D)


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


def _irred_tables(ell: int, f: int):
    """`irred.class_tables` of every class r mod q+1: (admissible, C, bcode),
    each of shape (q+1, 2^f), with C and bcode in the field's key dtype;
    uncached, as only the cached _irred_cols reads them.

    Writing n = k (q+1) + r, admissibility and the digit code of n depend on
    r alone, and a = (k + C[r]) mod (q-1) exactly.
    """
    p = FieldParams(ell, f)
    dtype = _key_dtype(p.m_minus)
    admissible, C, bcode = irred.class_tables(p, np.arange(p.m_plus))
    return admissible, C.astype(dtype), bcode.astype(dtype)


def _per_datum(bad: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Whether each datum (a position of every axis but the first, the
    cell axis) has a bad cell, into out, zeros of the data's shape.  One
    flat test first: a passing block skips the per-datum reduction.  out is
    made before bad: made after, it could split the heap hole that bad
    leaves, and the next large array (keys) would grow the heap instead.
    """
    if bad.any():
        bad.any(axis=0, out=out)
    return out


@lru_cache(maxsize=None)
def _merge_exchange(n: int) -> tuple[tuple[int, int], ...]:
    """Batcher's merge exchange sorting network for n keys, as its
    compare-exchanges (i, j), i < j, in order: 1, 5, 19 and 63 of them for
    n = 2, 4, 8 and 16 (Batcher 1968; Knuth, TAOCP vol. 3, 5.2.2 Algorithm
    M and 5.3.4)."""
    t = (n - 1).bit_length()
    pairs: list[tuple[int, int]] = []
    p = 1 << t >> 1
    while p:
        q, r, d = 1 << t >> 1, 0, p
        while True:
            pairs += [(i, i + d) for i in range(n - d) if i & p == r]
            if q == p:
                break
            q, r, d = q >> 1, p, q - p
        p >>= 1
    return tuple(pairs)


# the widest rows that _distinct_counts sorts by a network of plane minima
# and maxima; wider ones are sorted cell-major
_NETWORK_WIDTH = 16


def _distinct_counts(keys: np.ndarray) -> np.ndarray:
    """Number of distinct keys along the first axis, the cell axis, for each
    datum (position of the other axes), counting only keys >= 0: -1 marks
    a cell with no key.  Clobbers keys of up to _NETWORK_WIDTH planes.

    Each subset plane keys[i] is contiguous.  Up to _NETWORK_WIDTH planes
    are sorted by _merge_exchange, one np.minimum and one np.maximum of two
    planes per compare-exchange.  Wider rows are sorted cell-major: a
    contiguous (data, planes) copy of keys, sorted along its last axis, so
    that each datum's keys are one contiguous run.  The copy reads down the
    planes, so a plane stride off a power of two keeps it fast (see
    _irred_block).  Sorted, -1 comes first, and a datum has one distinct
    key per change between adjacent keys, plus one if its first key is
    >= 0.
    """
    if len(keys) > _NETWORK_WIDTH:
        width = len(keys)
        rows = np.ascontiguousarray(keys.reshape(width, -1).T)
        rows.sort(axis=1)
        # one pass over the sorted keys as one run: the changes between
        # adjacent keys, and in each row's first column, which would compare
        # it with the row before, whether its first key is >= 0
        flat = rows.reshape(-1)
        change = np.empty(flat.shape, dtype=bool)
        np.not_equal(flat[1:], flat[:-1], out=change[1:])
        np.greater_equal(flat[::width], 0, out=change[::width])
        return _row_counts(change.reshape(-1, width)).reshape(keys.shape[1:])
    planes = list(keys)
    spare = np.empty_like(planes[0])
    for i, j in _merge_exchange(len(planes)):
        np.minimum(planes[i], planes[j], out=spare)
        np.maximum(planes[i], planes[j], out=planes[j])
        planes[i], spare = spare, planes[i]
    count = (planes[0] >= 0).astype(np.int32)
    for lo, hi in zip(planes, planes[1:]):
        count += lo != hi
    return count


def _solve(p: FieldParams, row, C, bcode, valid, n) -> tuple[np.ndarray, np.ndarray]:
    """(a, det_bad): a = (row + C) mod q-1 on every cell, by one wrap, and
    whether each datum has a valid cell that breaks the determinant law.

    Cells run along the first axis of C, in [0, 2D) with D = q-1, data along
    the others; bcode and valid broadcast against C, and the row (k or n1,
    in [0, D)) and the exponent sum n (n, or n1 + n2) against a datum.  Each
    triple (a, b, B) must satisfy 2a + bcode + cyc_sum = n mod D.  With
    t = (n - cyc_sum) mod D from n itself, not from the row, so that the law
    also checks each datum's row, and 0 <= 2a + bcode < 3 D, a cell passes
    iff 2a + bcode - t is 0, D or 2 D: no cell is reduced mod D.
    """
    D = p.m_minus
    a = C + row.astype(C.dtype)
    _wrap_once(a, -D)
    t = ((n - p.cyclotomic_exponent) % D).astype(a.dtype)
    out = np.zeros(a.shape[1:], dtype=bool)
    s = a * 2
    s += bcode
    s -= t
    bad = s != 0
    bad &= s != D
    bad &= s != 2 * D
    bad &= valid
    return a, _per_datum(bad, out)


# Sentinels of the symmetry laws' tables: the digit codes of a cell and of
# its image differ (the law fails), or neither is admissible (it holds).
_FAIL, _PASS = -1, -2


class _IrredCols(NamedTuple):
    """The irreducible class tables laid out for the blocks.

    Every table is subset-major, (2^f, q+1), and every vector (q+1,):
    column r holds class r, so the classes of a block's columns rs are the
    slice [rs] (`window`).  C, bcode, the symmetry tables and the shifts
    have the field's sum dtype.  Class 0 holds no datum: nothing is
    admissible there, both laws pass and its closed forms are 0.  conj and
    frob are the symmetry laws' tables Delta[r, B] = C[r', pi(B)] -
    want_C[r, B] mod q-1, with r' the image class, pi the law's subset map
    and want_C C or ell C; a cell whose code differs from its image's is
    _FAIL, and one where both are not admissible _PASS.  An n of class r
    with k' its image's k then holds a law at B iff Delta[r, B] is _PASS or
    equals want_k - k' mod q-1, with want_k k or ell k.
    """

    admissible: np.ndarray
    C: np.ndarray
    bcode: np.ndarray
    bcode_D: np.ndarray  # D bcode, the digit part of the distinct-count key
    conj: np.ndarray
    frob: np.ndarray
    labeled: np.ndarray  # admissible subsets per class
    closed: np.ndarray  # irred.labeled_count_formula on one datum per class
    crit: np.ndarray  # whether irred.injectivity_witness finds a witness there
    conj_shift: np.ndarray  # (r - 1) mod D: conjugation's k' = k + this
    frob_shift: np.ndarray  # floor(ell r / (q+1)) mod D: Frobenius's k' = ell k + this

    def window(self, rs: range) -> _IrredCols:
        return _IrredCols._make(t[..., rs.start : rs.stop] for t in self)


# one field at a time: a sweep reads the fields in order
@lru_cache(maxsize=1)
def _irred_cols(ell: int, f: int) -> _IrredCols:
    """The field's class layout for the blocks (see _IrredCols)."""
    p = FieldParams(ell, f)
    P, D = p.m_plus, p.m_minus
    narrow = _sum_dtype(D)
    admissible, C, bcode = _irred_tables(ell, f)
    admissible = admissible.copy()
    admissible[0] = False
    r = np.arange(P)
    cols = np.arange(1 << f)
    code = np.where(admissible, bcode, -1)
    C64 = C.astype(np.int64)
    data = [irred.niveau_two(p, n) for n in range(1, P)]
    closed = np.array([0] + [irred.labeled_count_formula(d) for d in data], dtype=np.int32)
    crit = np.array([False] + [irred.injectivity_witness(d) is not None for d in data])

    def delta(r_img, cols_img, want_code, want_C):
        img = np.ix_(r_img, cols_img)
        diff = (C64[img] - want_C) % D
        # the sentinels in this order: codes that differ fail, even where n
        # is not admissible
        table = np.where(code[img] == want_code, np.where(want_code < 0, _PASS, diff), _FAIL)
        return table.astype(narrow)

    conj = delta((P - r) % P, subset_complement(cols, f), code, C64)
    shifted = np.where(admissible, _shift_bcode(bcode, ell, f), -1)
    frob = delta(ell * r % P, irred.frobenius_subset(cols, f), shifted, ell * C64)

    def lay(t):
        # class axis last: column r holds class r
        return np.ascontiguousarray(t.T)

    def lay_narrow(t):
        return lay(t.astype(narrow))

    laid = _IrredCols(
        admissible=lay(admissible), C=lay_narrow(C), bcode=lay_narrow(bcode),
        bcode_D=lay(bcode * D), conj=lay(conj), frob=lay(frob),
        labeled=lay(_row_counts(admissible)), closed=lay(closed), crit=lay(crit),
        conj_shift=lay_narrow((r - 1) % D), frob_shift=lay_narrow(ell * r // P % D),
    )
    return _IrredCols._make(_read_only(*laid))


def _block_shape(width: int, cells: int) -> tuple[int, int]:
    """(rows, columns) of a block of a grid of data width to a row, with
    cells (row, subset) cells each: the whole number of rows nearest to
    _CHUNK cells, or, where one row holds more, one row cut into the whole
    number of equal pieces nearest to _CHUNK cells each.  So a block holds
    fewer than 1.5 _CHUNK cells plus one datum's."""
    per_chunk = max(1, _CHUNK // cells)
    if per_chunk >= width:
        return round(per_chunk / width), width
    return 1, -(-width // round(width / per_chunk))


def _shards(height: int, width: int, cells: int) -> list[range]:
    """The rows [0, height) of a grid (see _block_shape) cut into shards of
    whole blocks, at most _SHARD_CELLS cells each (one block where a block
    is larger), in increasing order."""
    rows = _block_shape(width, cells)[0]
    step = rows * max(1, _SHARD_CELLS // (rows * width * cells))
    return [range(s, min(s + step, height)) for s in range(0, height, step)]


def _blocks(shard: range, width: int, cells: int) -> Iterable[tuple[range, range]]:
    """The blocks (rows, columns) of the shard's rows of a grid (see
    _block_shape), in increasing order: row by row, and along a row."""
    rows, cols = _block_shape(width, cells)
    for r in range(shard.start, shard.stop, rows):
        for c in range(0, width, cols):
            yield range(r, min(r + rows, shard.stop)), range(c, min(c + cols, width))


def _irred_block(p: FieldParams, ks: range, rs: range):
    """Every n = k (q+1) + r of ks x rs on every subset, as a (2^f, K, W)
    block with K = len(ks) and W = len(rs).

    n sits at (B, i, j) with k = ks[i] and r = rs[j], so its class is
    column j of the window of _irred_cols at rs, and the tables broadcast
    over i.  _solve gives each n its a = (k + C[r]) mod (q-1) and its
    determinant law; each n computes its images' k', in narrow ints, with
    no divmod of n; the n of class 0 are not valid.  Returns (cols, n, valid, distinct, det_bad, laws): the
    window, and per n (K, W) arrays of n, validity, weight-set sizes and
    determinant-law failures; laws pairs each symmetry check with the n
    that break it.
    """
    ell, D = p.ell, p.m_minus
    cols = _irred_cols(ell, p.f).window(rs)
    k = np.arange(ks.start, ks.stop, dtype=cols.C.dtype)[:, np.newaxis]
    r = np.arange(rs.start, rs.stop)
    n = k.astype(np.int64) * p.m_plus + r
    valid = np.broadcast_to(r != 0, n.shape)
    per_class = (slice(None), np.newaxis)

    a, det_bad = _solve(p, k, cols.C[per_class], cols.bcode[per_class], cols.admissible[per_class], n)
    # the keys in the key dtype, each plane one key longer than the K W it
    # holds: a power-of-two plane stride would make the cell-major copy of
    # _distinct_counts read one cache set
    keys = np.empty((len(a), n.size + 1), cols.bcode_D.dtype)[:, :-1].reshape(a.shape)
    np.add(a, cols.bcode_D[per_class], out=keys)
    del a
    np.copyto(keys, -1, where=~cols.admissible[per_class])
    distinct = _distinct_counts(keys)
    del keys

    laws = []
    ell_k = ((ell % D) * k.astype(np.int64) % D).astype(k.dtype)
    for kind, delta, want_k, shift in (
        ("conjugation-irred", cols.conj, k, cols.conj_shift),
        ("frobenius-irred", cols.frob, ell_k, cols.frob_shift),
    ):
        k_img = want_k + shift
        _wrap_once(k_img, -D)
        want = want_k - k_img
        _wrap_once(want, D)
        out = np.zeros(want.shape, dtype=bool)
        bad = delta[per_class] != want
        bad &= (delta != _PASS)[per_class]
        laws.append((kind, _per_datum(bad, out)))
    return cols, n, valid, distinct, det_bad, laws


# the kinds that the scans of k rows and of the ratio line serve
_IRRED_SCAN_KINDS = ("counts-irred", "injectivity-irred", "nonempty", "det-law", "symmetry")
_RED_SCAN_KINDS = ("counts-red", "injectivity-red", "generic-split", "nonempty", "det-law", "symmetry")


def _build_irred_scan(ell: int, f: int, shard: range) -> dict[str, _Mismatches]:
    """The shard's k rows of the irreducible (k, r) grid, compared block by
    block with the closed forms and run through the symmetry laws: the
    mismatches of each kind that reads it, each with the number of valid n."""
    p = FieldParams(ell, f)
    scan = {kind: _Mismatches(ell=ell, f=f) for kind in _IRRED_SCAN_KINDS}
    for ks, rs in _blocks(shard, p.m_plus, 1 << f):
        cols, n, valid, distinct, det_bad, laws = _irred_block(p, ks, rs)
        n, W = n.ravel(), len(rs)

        def found(fails):
            # the valid n of the block where fails (per n, or per class)
            return np.flatnonzero(valid & fails)

        # every closed form depends on n mod q+1 alone
        bad = found(cols.labeled != cols.closed)
        scan["counts-irred"].add(
            len(bad), n=n[bad], enumerated=cols.labeled[bad % W], closed_form=cols.closed[bad % W]
        )
        fails = distinct < cols.labeled
        bad = found(fails != cols.crit)
        scan["injectivity-irred"].add(
            len(bad), n=n[bad], enumerated_failure=fails.ravel()[bad], criterion=cols.crit[bad % W]
        )
        ns = n[found(cols.labeled == 0)]
        scan["nonempty"].add(len(ns), case="irreducible", n=ns)
        ns = n[found(det_bad)]
        scan["det-law"].add(len(ns), case="irreducible", n=ns)
        for kind, broken in laws:
            ns = n[found(broken)]
            scan["symmetry"].add(len(ns), check=kind, n=ns)
        checked = int(np.count_nonzero(valid))
        for mm in scan.values():
            mm.checked += checked
    return scan


# ---------------------------------------------------------------------------
# reducible engine


def _red_tables(ell: int, f: int):
    """`red.class_tables` of every ratio class n mod q-1: (valid, s_in,
    bcode), each of shape (q-1, 2^f, 2), where valid marks the slots that
    hold a window solution (slot 1 only on a doubled class).  s_in is
    reduced mod q-1, and s_in and bcode have the field's key dtype;
    uncached, as only the cached _grid_tables reads them."""
    p = FieldParams(ell, f)
    D = p.m_minus
    dtype = _key_dtype(D)
    valid, s_in, bcode = red.class_tables(p, np.arange(D))
    return valid, (s_in % D).astype(dtype), bcode.astype(dtype)


_RedLine = namedtuple("_RedLine", "labeled closed crit generic distinct det_bad certain valid a bcode")


def _red_counts(p: FieldParams) -> _RedLine:
    """The ratio line, the pairs (n, 0), per n: the labeled-set size and the
    closed forms of the _grid_tables layout (closed, crit, generic), the
    weight-set size, whether a triple breaks the determinant law, and
    whether some labeled weight provably fills H^1 (the certain part is
    nonempty); then the line's (valid, a, bcode) from _pairs, each
    (cells, q-1), which the symmetry laws read.  The pair (n, 0) has ratio
    class n, so the line reads the whole tables, with n1 = n."""
    D = p.m_minus
    line = _pairs(p, np.arange(D)[np.newaxis], slice(None))  # one row of pairs
    valid, a, bcode, _, labeled, closed, det_bad = (x[..., 0, :] for x in line)
    tables = _grid_tables(p.ell, p.f)
    crit, generic = tables.crit[0], tables.generic[0]
    keys = bcode.astype(_key_dtype(D)) * D
    keys += a
    np.copyto(keys, -1, where=~valid)
    distinct = _distinct_counts(keys)

    # certain part: some valid slot whose subspace, decided by the recipe's
    # dimension rule, is all of H^1
    subset = np.arange(len(valid))[:, np.newaxis] >> 1
    _, _, fills = red.dim_bounds(p, np.arange(D), bcode, subset)
    fills &= valid
    return _RedLine(labeled, closed, crit, generic, distinct, det_bad, fills.any(axis=0), valid, a, bcode)


def _build_red_scan(ell: int, f: int) -> dict[str, _Mismatches]:
    """The ratio line, compared with the closed forms and run through the
    symmetry laws: the mismatches of each kind that reads it, each with the
    number of ratio exponents (of generic ones for generic-split, and of
    the line and its three images for symmetry)."""
    p = FieldParams(ell, f)
    labeled, closed, crit, generic, distinct, det_bad, certain, *cells = _red_counts(p)
    scan = {kind: _Mismatches(ell=ell, f=f) for kind in _RED_SCAN_KINDS}
    ns = np.flatnonzero(labeled != closed)
    scan["counts-red"].add(len(ns), n1=ns, n2=0, enumerated=labeled[ns], closed_form=closed[ns])
    fails = distinct < labeled
    ns = np.flatnonzero(fails != crit)
    scan["injectivity-red"].add(
        len(ns), n1=ns, n2=0, enumerated_failure=fails[ns], criterion=crit[ns]
    )
    ns = np.flatnonzero(generic & (distinct != 2**f))
    scan["generic-split"].add(len(ns), n1=ns, n2=0, weights=distinct[ns], expected=2**f)
    ns = np.flatnonzero(~certain)
    scan["nonempty"].add(len(ns), case="reducible-certain", n1=ns, n2=0)
    ns = np.flatnonzero(det_bad)
    scan["det-law"].add(len(ns), case="reducible", n1=ns, n2=0)
    _red_symmetry(p, *cells, scan["symmetry"])
    for mm in scan.values():
        mm.checked = len(labeled)
    scan["generic-split"].checked = int(generic.sum())
    scan["symmetry"].checked = 4 * len(labeled)
    return scan


# ---------------------------------------------------------------------------
# symmetry laws, run by both scans on the data they hold


def _shift_bcode(bcode: np.ndarray, ell: int, f: int) -> np.ndarray:
    """Digit code of the cyclically shifted digit vector (top digit wraps)."""
    top_pow = ell ** (f - 1)
    top = bcode // top_pow
    return (bcode - top * top_pow) * ell + top


def _red_symmetry(p: FieldParams, valid, a, bcode, mm: _Mismatches) -> None:
    """Swap, Frobenius and twist along the ratio line, from the line's
    arrays and those of its images, all read by _pairs: each n that breaks
    a law is a witness of it."""
    ell, f = p.ell, p.f
    D = p.m_minus
    dtype = _key_dtype(D)
    cols = np.arange(1 << f)
    N = np.arange(D)

    def by_subset(valid, a, bcode):
        # (subset, slot, n), with a and bcode in the key dtype
        return [x.reshape(1 << f, 2, D) for x in (valid, a.astype(dtype), bcode.astype(dtype))]

    def slot_keys(valid, a, bcode):
        # the two slots' keys per subset as (lo, hi), collapsing an unused slot
        keys = a + D * bcode
        k2 = np.where(valid[:, 1], keys[:, 1], keys[:, 0])
        return np.minimum(keys[:, 0], k2), np.maximum(keys[:, 0], k2)

    valid, a, bcode = by_subset(valid, a, bcode)
    lo, hi = slot_keys(valid, a, bcode)
    # the swap of (n, 0) is (0, n), of ratio class -n
    valid_s, a_s, bcode_s = by_subset(*_pairs(p, np.zeros_like(N), -N % D)[:3])
    lo_s, hi_s = slot_keys(valid_s, a_s, bcode_s)
    conj_cols = subset_complement(cols, f)
    swap_ok = (
        (valid_s[conj_cols] == valid).all(axis=1)
        & (lo_s[conj_cols] == lo)
        & (hi_s[conj_cols] == hi)
    ).all(axis=0)

    def law_holds(valid_i, a_i, bcode_i, want_a, want_bcode):
        # the image has the line's slots, and on them the wanted triples
        return ((valid_i == valid) & ((a_i == want_a) & (bcode_i == want_bcode) | ~valid)).all(axis=(0, 1))

    # the Frobenius image of (n, 0) is (ell n, 0), on the line itself
    frob_cols = red.frobenius_subset(cols, f)
    frob = (x[frob_cols][..., ell * N % D] for x in (valid, a, bcode))
    frob_ok = law_holds(*frob, (ell * a) % D, _shift_bcode(bcode, ell, f))
    # twist naturality at c = 1 (composition generates every twist): the
    # image of (n, 0) is (n + 1, 1), of ratio class n, whose a comes from its
    # own n1
    twist = by_subset(*_pairs(p, (N + 1) % D, slice(None))[:3])
    twist_ok = law_holds(*twist, (a + 1) % D, bcode)
    for kind, ok in (("swap-red", swap_ok), ("frobenius-red", frob_ok), ("twist-red", twist_ok)):
        ns = N[~ok]
        mm.add(len(ns), check=kind, n=ns)


# ---------------------------------------------------------------------------
# the counts-red grid, and the scans that each kind reads


def _scan_keys(kind: str, ell: int, f: int) -> list[tuple]:
    """The keys of the scans that hold kind's collectors on the field
    (ell, f), in the order of its witnesses: the shards of the irreducible
    (k, r) grid or of the counts-red (n1, n2) grid in increasing order, and
    the ratio line first for counts-red and last for the kinds that also
    read k rows."""
    if kind == "qtable-crosscheck":
        return [("_build_qtable_scan", ell)]
    p = FieldParams(ell, f)
    D = p.m_minus
    line = [("_build_red_scan", ell, f)] if kind in _RED_SCAN_KINDS else []
    if kind == "counts-red":
        return line + [("_build_grid_scan", ell, f, s) for s in _shards(D, D, 2 << f)]
    rows = [("_build_irred_scan", ell, f, s) for s in _shards(D, p.m_plus, 1 << f)]
    return (rows if kind in _IRRED_SCAN_KINDS else []) + line


class _GridTables(NamedTuple):
    """`_red_tables` and the per-class vectors laid out for the counts-red
    grid, each (cells, q-1): one (subset, slot) cell per row of a table, one
    row for a vector, and column c holding ratio class c, as _irred_cols
    lays out its classes.  C and bcode have the field's sum dtype."""

    valid: np.ndarray
    C: np.ndarray  # D - s_in, in [1, D]: a = (n1 + C) mod D by one wrap
    bcode: np.ndarray
    labeled: np.ndarray  # valid slots per class
    closed: np.ndarray  # red.labeled_count_formula on one split datum per class
    crit: np.ndarray  # whether red.injectivity_witness finds a witness there
    generic: np.ndarray  # red.is_generic there


# one field at a time: a sweep reads the fields in order
@lru_cache(maxsize=1)
def _grid_tables(ell: int, f: int) -> _GridTables:
    """The field's class layout for the counts-red grid (see _GridTables)."""
    p = FieldParams(ell, f)
    D = p.m_minus
    narrow = _sum_dtype(D)
    valid, s_in, bcode = _red_tables(ell, f)
    data = [red.niveau_one(p, n, 0, red.ExtClass.SPLIT) for n in range(D)]

    def lay(t):
        return np.ascontiguousarray(t.reshape(D, -1).T)

    tables = _GridTables(
        # not reduced mod D: an s_in out of [0, D) must leave a unreduced
        valid=valid, C=(D - s_in).astype(narrow), bcode=bcode.astype(narrow), labeled=_row_counts(valid),
        closed=np.array([red.labeled_count_formula(d) for d in data], dtype=np.int32),
        crit=np.array([red.injectivity_witness(d) is not None for d in data]),
        generic=np.array([red.is_generic(d) for d in data]),
    )
    return _GridTables._make(_read_only(*map(lay, tables)))


def _pairs(p: FieldParams, n1: np.ndarray, c):
    """(valid, a, bcode, n2, labeled, closed, det_bad) of the pairs (n1, n2)
    of ratio classes c, n2 = (n1 - c) mod q-1: c indexes the class axis of
    the `_grid_tables` (a slice is read as a view, an array gathered), and
    n1 broadcasts against its classes to the pairs' shape (K, W).  valid and
    bcode are (cells, 1, W), a (cells, K, W), labeled and closed (1, W) and
    n2 and det_bad (K, W)."""
    D = p.m_minus
    tables = _grid_tables(p.ell, p.f)
    valid, C, bcode, labeled, closed = (t[:, np.newaxis, c] for t in tables[:5])
    # per pair in the sum dtype: n1 - c lies in (-D, D) and n1 + n2 in [0, 2D)
    n1 = n1.astype(C.dtype)
    n2 = n1 - np.arange(D, dtype=C.dtype)[c]
    _wrap_once(n2, D)
    a, det_bad = _solve(p, n1, C, bcode, valid, n1 + n2)
    return valid, a, bcode, n2, labeled[0], closed[0], det_bad


def _build_grid_scan(ell: int, f: int, shard: range) -> dict[str, _Mismatches]:
    """The grid's n1 rows in shard, re-enumerated block by block (n1 rows
    by ratio-class columns) by _pairs, with the determinant law on every
    pair: the counts-red mismatches (the ratio line's are in its scan), in
    n1-major and then class order within a block."""
    p = FieldParams(ell, f)
    mm = _Mismatches(ell=ell, f=f)
    for n1s, cs in _blocks(shard, p.m_minus, 2 << f):
        n1 = np.arange(n1s.start, n1s.stop)[:, np.newaxis]
        n2, labeled, closed, det_bad = _pairs(p, n1, slice(cs.start, cs.stop))[3:]
        i, j = np.nonzero(np.broadcast_to(labeled != closed, n2.shape))
        mm.add(
            len(i), n1=n1s.start + i, n2=n2[i, j], enumerated=labeled[0, j], closed_form=closed[0, j]
        )
        i, j = np.nonzero(det_bad)
        mm.add(len(i), n1=n1s.start + i, n2=n2[i, j], check="det-law")
        mm.checked += n2.size
    return {"counts-red": mm}


def _build_qtable_scan(ell: int) -> dict[str, _Mismatches]:
    """The f = 1 tables of ell against the general recipes: the
    qtable-crosscheck mismatches."""
    params = FieldParams(ell, 1)
    checks: list[tuple[int, str, bool]] = []  # (b, check, passed)
    for b in range(1, ell):
        checks.append((b, "niveau2", qtable.crosscheck_niveau2(ell, b)))
        checks.append((b, "split", qtable.crosscheck_split(ell, b)))
        # subset relations for the non-split rows
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
    return {"qtable-crosscheck": mm}


ALL_KINDS = (
    "counts-irred", "counts-red", "injectivity-irred", "injectivity-red", "det-law",
    "symmetry", "nonempty", "generic-split", "qtable-crosscheck",
)


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
    (sum of ell^(2f) residue classes) exceeds the budget, or the budget is
    NaN.  The report merges the kind's collectors off the scans that
    _scan_keys lists for each field, in that order, the same scans for any
    jobs.  With jobs > 1 the scans missing from _scans, other than qtable
    scans, are built in a process pool of at most min(jobs, missing scans,
    CPUs) workers and stored in _scans, for this kind and the next; with
    one missing scan or none, no pool is made and _scan builds them here.
    So the report is identical to a serial run.  Raises ParamError when
    the plan holds no field.
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
    # not cost > budget: a NaN budget would admit every plan
    if not cost <= budget:
        raise BudgetExceeded(
            f"planned sweep enumerates {cost} residue classes, budget is {budget:g}"
        )
    _keep_freed_memory()
    t0 = time.monotonic()
    keys = [key for ell, f in tasks for key in _scan_keys(kind, ell, f)]
    # the pool forks all its workers on the first submit, so never ask for
    # more than there are scans to build or CPUs to build them
    missing = [key for key in keys if key not in _scans and key[0] != "_build_qtable_scan"]
    workers = min(jobs, len(missing), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            _scans.update(zip(missing, pool.map(_scan, missing)))
    merged = _Mismatches()
    for key in keys:
        merged.merge(_scan(key)[kind])
    return VerificationReport(
        kind=kind,
        tasks=tasks,
        checked=merged.checked,
        mismatch_count=merged.count,
        mismatches=merged.witnesses,
        elapsed_s=time.monotonic() - t0,
    )
