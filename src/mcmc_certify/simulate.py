"""Monte Carlo cross-check of the exact error formulas.

Replicates the burn-in estimator R times and reports the empirical MSE with
its standard error.  Reproducibility is taken seriously: all randomness comes
from one counter-based generator (Philox) keyed by the user seed.  Replication
i consumes row i of the (R x (n+n0)) uniform block, one uniform per
inverse-CDF transition step, whichever thread simulates it.

The R replications are split into k contiguous chunks, one per worker
thread, with k at most the usable cores.  Philox is counter-based, so each
chunk's generator is positioned at the chunk's first row of the block
without drawing what precedes it (Salmon et al., SC'11).  A worker draws its
rows row-major in pieces of at most 128 KiB and transposes each piece into
a column buffer of whole replications, one time step per contiguous row;
the column buffers and their walk words take 16 MiB shared by the k
workers.  The buffers hold each uniform u = j 2**-53 as its integer j,
and the CDF rows are scaled by 2**53 to match, which changes no comparison.
Memory is therefore O(budget + R), and the result is a pure function of
(chain, nu, f, config), independent of the worker count, batch size,
evaluation order, BLAS threading or platform, which is what lets tests pin
it to exact values.

Every step, the start draw included, is one inverse-CDF rule, the indexed
search of Chen and Asau (AIIE Trans. 6, 1974; Devroye 1986, III.2.4): the
CDF thresholds lie over each row's support, nu's as one more row, and a
guide of 2**bits buckets a row gives the position from which
ceil(log2(w+1)) branchless compares end the search, w being the most
breakpoints a bucket holds.  The table takes O(nnz(P) + d 2**bits) words.
A step is a fixed handful of numpy calls over the batch, which release the
GIL as Philox's fills do, so the workers run side by side.  Its gathers are
bound ``ndarray.take`` calls, not ``np.take``: that wrapper's Python-level
dispatch adds about 0.55 microseconds a call, run under the GIL, and the two
workers wait in turn for it.
"""

from __future__ import annotations

import bisect
import functools
import os
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .chain import ReversibleChain
from .errors import BudgetOverflow, _check_int, _shown
from .exact_error import _WALK_CAP, EstimatorSpec, _inputs

__all__ = ["SimulationConfig", "EmpiricalErrorReport", "estimate_error"]

# Column-buffer and walk words of all workers together (16 MiB), rounded
# down to whole replications.
_BUFFER_ELEMS = 1 << 21
# Uniforms drawn per piece before the transpose (128 KiB).
_STAGE_ELEMS = 1 << 14
# Philox's uniform is (raw >> 11) 2**-53: the walk runs on the integer
# j = raw >> 11 in [0, 2**53) against CDF rows scaled by 2**53.
_UNIFORM_BITS = 53
_ONE = 1 << _UNIFORM_BITS
# Most bytes of guide, 8 a bucket: it sets the buckets a row, the most that
# fit or fewer where fewer take no more bisection rounds.
_TABLE_BYTES = 1 << 21
# Fewest replications per worker, in its chunk and in its batch.  Numpy calls
# on fewer rows hand the GIL back and forth more than they run apart: on two
# cores, with the guide step on birth-death chains of d = 5, 10 and 50 and
# windows of 100, two workers were 15-17% slower than one at 4096 rows each,
# 1-3% slower at 6144 (winning 0 to 2 of 10 pairs), and 17-19% faster in all
# 30 pairs at 8192 and at 16384.
_MIN_ROWS = 8192
# Most replications (one double of sums each): 1 GiB of doubles.  The longest
# replication is exact_error's _WALK_CAP (a column buffer holds one).
_REPLICATION_CAP = 1 << 27


@dataclass(frozen=True)
class SimulationConfig:
    """Replication count, seed, and the estimator window to replicate."""

    replications: int
    seed: int
    spec: EstimatorSpec

    def __post_init__(self) -> None:
        R = _check_int(self.replications, 2, "replications must be an integer >= 2")
        object.__setattr__(self, "replications", R)
        seed = _check_int(self.seed, 0, "seed must be an integer in [0, 2**128)", 2**128 - 1)
        object.__setattr__(self, "seed", seed)
        if not isinstance(self.spec, EstimatorSpec):
            raise ValueError("spec must be an EstimatorSpec")


@dataclass(frozen=True)
class EmpiricalErrorReport:
    """Empirical MSE over replications, with the standard error of that mean."""

    mse_hat: float
    std_error: float
    replications: int
    seed: int


class _Guide(NamedTuple):
    """The step's tables: see :func:`_guide`."""

    thresholds: np.ndarray
    keys: np.ndarray
    guide: np.ndarray
    values: np.ndarray
    bits: int
    probes: list  # of a search in a row of P, and of one in the start row
    start_probes: list
    row_keys: np.ndarray


def _thresholds(cdf: np.ndarray) -> np.ndarray:
    """CDF values as integers, unrounded: ceil(c 2**53) <= j exactly when c <= j 2**-53."""
    return np.ceil(cdf * 2.0**_UNIFORM_BITS).astype(np.int64)


def _rounds(thresholds: np.ndarray, rows: np.ndarray, bits: int) -> int:
    """Bisection rounds that end every search: the bit length of the most
    thresholds strictly inside one (row, bucket), in rows sorted as laid out."""
    shift = _UNIFORM_BITS - bits
    inside = (thresholds & ((1 << shift) - 1) != 0) & (thresholds < _ONE)
    buckets = rows[inside] << bits
    buckets += thresholds[inside] >> shift
    firsts = np.nonzero(buckets[1:] != buckets[:-1])[0] + 1  # of each run but the first
    return int(np.diff(firsts, prepend=0, append=buckets.size).max()).bit_length()


def _guide(P: np.ndarray, nu: np.ndarray, g: np.ndarray) -> _Guide:
    """The guide table of the rows of ``P`` and, as row ``len(P)``, of ``nu``.

    Row x's entries are its positive entries in order, each with its
    saturated CDF value's threshold and the key of the state it selects;
    ``values`` holds g at each key.  j selects the entry past every
    threshold <= j, a prefix of the row: running sums never decrease, an
    excursion above 1 stays above j, and the last positive entry's value is
    1.  ``guide[key + (j >> (53 - bits))]`` is where bucket j's search
    starts in the key's row, fewer than 2**rounds entries (one a probe)
    before the entry it selects and the row's end, which thresholds of
    2**53 pad.  With ``bits`` = 0 a key is its row's first position and the
    guide goes unread.  ``bits`` is the fewest that give the rows of P the
    fewest rounds a guide of ``_TABLE_BYTES`` allows.
    """
    n_rows = P.shape[0] + 1
    rows, cols = np.nonzero(P)
    start = np.nonzero(nu)[0]
    cdf = np.concatenate([P[rows, cols], nu[start]])
    rows = np.concatenate([rows, np.full(start.size, n_rows - 1)])
    cols = np.concatenate([cols, start])
    sizes = np.bincount(rows, minlength=n_rows)
    starts = np.cumsum(sizes) - sizes
    # Running sums in row order, one rank at a time: the same sums as over
    # the whole row, as adding a zero rounds nothing.
    for k in range(1, sizes.max()):
        at = starts[sizes > k] + k
        cdf[at] += cdf[at - 1]
    cdf[starts + sizes - 1] = 1.0
    thresholds = _thresholds(cdf)
    del cdf  # each array here is a word per entry: hold few at once

    # Finer buckets never take more rounds: the fewest bits that take the
    # rounds of the budget's finest.
    inner = rows.size - start.size  # the entries of P's rows
    top = max(0, (_TABLE_BYTES // 8 // n_rows).bit_length() - 1)
    rounds = _rounds(thresholds[:inner], rows[:inner], top)
    bits = bisect.bisect(
        range(top), False, key=lambda b: _rounds(thresholds[:inner], rows[:inner], b) == rounds
    )
    start_rounds = _rounds(thresholds[inner:], rows[inner:], bits)
    reach = (1 << np.repeat([rounds, start_rounds], [n_rows - 1, 1])) - 1
    # Per row and bucket b, the thresholds <= its first j, b << shift.
    shift = _UNIFORM_BITS - bits
    column = thresholds + ((1 << shift) - 1)
    column >>= shift
    np.minimum(column, 1 << bits, out=column)
    column += rows * ((1 << bits) + 1)
    found = np.bincount(column, minlength=n_rows * ((1 << bits) + 1)).reshape(n_rows, -1)
    del rows, column
    span = np.maximum(sizes, reach)
    base = np.cumsum(span) - span
    guide = np.cumsum(found[:, :-1], axis=1) + base[:, None]
    np.minimum(guide, (base + span - reach)[:, None], out=guide)
    at = np.repeat(base - starts, sizes)
    at += np.arange(at.size)
    padded = np.full(span.sum(), _ONE)
    padded[at] = thresholds
    del thresholds
    key = np.arange(n_rows) << bits if bits else base
    cols = key[cols]
    keys = np.zeros(padded.size, dtype=np.int64)
    keys[at] = cols
    values = np.zeros(guide.size if bits else padded.size)
    values[key[:-1]] = g
    # Round r advances a search at p by 2**r where the threshold at
    # p + 2**r - 1 is <= j, so the rounds end it among 2**rounds positions.
    probes = [[(padded[(1 << r) - 1 :], r) for r in reversed(range(n))]
              for n in (rounds, start_rounds)]
    return _Guide(padded, keys, guide.ravel(), values, bits, *probes, key)


def _advance(table: _Guide, j, cur, pos, scratch, hit, probes):
    """One step of each walk from the key ``cur``: returns ``(cur, pos)``, the new key first.

    The search starts at the guide's position (at ``cur`` if ``bits`` = 0);
    the table's ``probes`` end it.
    """
    if table.bits:
        np.right_shift(j, _UNIFORM_BITS - table.bits, scratch)
        np.add(scratch, cur, scratch)
        table.guide.take(scratch, None, pos, "clip")
    else:
        cur, pos = pos, cur
    for view, r in probes:
        view.take(pos, None, scratch, "clip")
        np.less_equal(scratch, j, hit)
        if r:
            np.left_shift(hit, r, scratch)
            np.add(pos, scratch, pos)
        else:
            np.add(pos, hit, pos)
    table.keys.take(pos, None, cur, "clip")
    return cur, pos


def _usable_cores() -> int:
    """Cores this process may run on: its affinity set where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _positioned(seed: int, offset: int) -> np.random.Philox:
    """The seed's Philox, positioned so that its next raw output is number ``offset``."""
    philox = np.random.Philox(key=seed)
    philox.advance(offset // 4)  # one counter step yields four outputs
    philox.random_raw(offset % 4)
    return philox


def _draw(philox, columns) -> None:
    # Integer uniforms j = raw >> 11, drawn row-major up to ``_STAGE_ELEMS``
    # at a time (whole replications, or one in segments) and each piece
    # transposed into place, so the draws follow the chunk's rows.
    length, count = columns.shape
    rows = max(1, _STAGE_ELEMS // length)
    segment = min(length, _STAGE_ELEMS)  # < length only when rows == 1
    for r in range(0, count, rows):
        m = min(rows, count - r)
        for t in range(0, length, segment):
            piece = philox.random_raw(m * min(segment, length - t))
            piece = piece.reshape(m, -1).T
            np.right_shift(piece, 64 - _UNIFORM_BITS, out=columns[t : t + len(piece), r : r + m])


def _chunk_sums(philox, buffer, table, n0, sums, failed) -> None:
    """Window sums of one chunk of replications, written into ``sums``.

    ``buffer`` holds a batch of whole replications as integer uniforms,
    one time step per contiguous row, then four walk rows of int64: each
    walk's key, starting at the start row's, its search position, scratch
    that also takes each state's g, and the compares' bytes.  Stops early
    once another chunk has put an exception in ``failed``.
    """
    batch = buffer.shape[1]
    for lo in range(0, sums.size, batch):
        if failed:
            return
        out = sums[lo : lo + batch]
        count = out.size
        j = buffer[:-4, :count]
        _draw(philox, j)
        cur, pos, scratch, hit = buffer[-4:, :count]
        value, hit = scratch.view(np.float64), hit.view(bool)[:count]
        cur.fill(table.row_keys[-1])
        for t in range(len(j)):
            probes = table.probes if t else table.start_probes
            cur, pos = _advance(table, j[t], cur, pos, scratch, hit, probes)
            if t >= n0:
                table.values.take(cur, None, value, "clip")
                np.add(out, value, out)


def _guarded(task, failed) -> None:
    try:
        task()
    except BaseException as exc:  # re-raised by the calling thread after the join
        failed.append(exc)


def _window_sums(seed: int, table: _Guide, n0: int, length: int, R: int) -> np.ndarray:
    """Each replication's sum of g over its window, on k worker threads.

    k is at most the usable cores and small enough that every worker has
    ``_MIN_ROWS`` replications and room for as many in its share of the
    ``_BUFFER_ELEMS`` budget, which holds each replication's uniforms and
    its walk words.  Chunk i, rows ``[i R // k, (i+1) R // k)``, gets its
    own generator positioned at its first row, so the split changes no
    draw.  The caller allocates each worker's one buffer of uniform and
    walk rows, runs chunk 0 itself, and joins every thread before it
    returns or re-raises the first exception a chunk raised; with k = 1 no
    thread starts.
    """
    words = length + 4  # a replication's uniforms and walk
    k = max(1, min(_usable_cores(), R // _MIN_ROWS, _BUFFER_ELEMS // (_MIN_ROWS * words)))
    batch = min(-(-R // k), max(1, _BUFFER_ELEMS // (k * words)))
    window_sums = np.zeros(R)
    failed: list[BaseException] = []
    tasks = []
    for i in range(k):
        lo, hi = i * R // k, (i + 1) * R // k
        tasks.append(functools.partial(
            _chunk_sums, _positioned(seed, lo * length), np.empty((words, batch), dtype=np.int64),
            table, n0, window_sums[lo:hi], failed,
        ))
    threads = [threading.Thread(target=_guarded, args=(task, failed)) for task in tasks[1:]]
    try:
        for thread in threads:
            thread.start()
        tasks[0]()
    except BaseException as exc:  # stops the workers; re-raised after the join
        failed.append(exc)
    for thread in threads:
        while thread.is_alive():
            try:
                thread.join()
            except BaseException as exc:  # an interrupt while waiting stops them too
                failed.append(exc)
    if failed:
        raise failed[0]
    return window_sums


def estimate_error(chain: ReversibleChain, nu, f, config: SimulationConfig) -> EmpiricalErrorReport:
    """Empirical MSE of the burn-in estimator over R seeded replications.

    Replication i consumes row i of the Philox uniform block.  The R
    replications run as contiguous chunks on k worker threads, each chunk from
    its own generator positioned at its first row, and within a chunk in
    lock-step, a batch of whole replications at a time, vectorized across the
    batch one time step at a time.  k is at most the usable cores, and k workers
    need k <= R/8192 and n+n0 <= 256/k - 4 (124 on two cores): longer windows
    run on one core.  The result is bit-identical for every worker count and
    batch size.  Each step, the start draw included, is a guide-table lookup and
    a few branchless compares.  Memory is at most 16 MiB of column and walk
    buffers shared by the k workers (or one replication, if longer), 128 KiB
    of drawn uniforms per worker, a few doubles per replication, two words per
    positive entry of P and nu (three with one bucket a row, and per padding
    entry), and at most 4 MiB of guide with g at each row's key.  ``std_error``
    is the sample standard deviation of the squared errors divided by sqrt(R);
    both are computed on the g of :func:`~mcmc_certify.exact_error._inputs`.
    Raises ``ValueError`` unless config is a :class:`SimulationConfig`, and
    :class:`BudgetOverflow` before anything is allocated if one replication
    takes more than 2**27 uniforms or R exceeds 2**27, or if the MSE exceeds float64.
    """
    if not isinstance(config, SimulationConfig):
        raise ValueError("config must be a SimulationConfig")
    spec = config.spec
    n, n0, length, R = spec.n, spec.n0, spec.total, config.replications
    if length > _WALK_CAP:
        raise BudgetOverflow(f"one replication takes {length} uniforms, cap is {_WALK_CAP}")
    if R > _REPLICATION_CAP:
        raise BudgetOverflow(f"replications must be at most {_REPLICATION_CAP}, got {_shown(R)}")
    nu, _, s, g = _inputs(chain, f, nu, spec)

    deviations = _window_sums(config.seed, _guide(chain.P, nu, g), n0, length, R)
    deviations /= n  # in place: a window's mean of g is its deviation
    squared = deviations * deviations
    mse_hat = float(squared.mean()) * s * s
    if not np.isfinite(mse_hat):
        raise BudgetOverflow(f"the simulated MSE overflows float64 (it comes out {mse_hat!r})")
    return EmpiricalErrorReport(
        mse_hat=mse_hat,
        std_error=float(squared.std(ddof=1) / np.sqrt(R)) * s * s,
        replications=R,
        seed=config.seed,
    )
