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
the column buffers share a budget of 2**21 uniforms (16 MiB), at most 2**20
per worker.  The buffers hold each uniform u = j 2**-53 as its integer j,
and the CDF rows are scaled by 2**53 to match, which changes no comparison.
Memory is therefore O(budget + R), and the result is a pure function of
(chain, nu, f, config), independent of the worker count, batch size,
evaluation order, BLAS threading or platform, which is what lets tests pin
it to exact values.

A step is an inverse-CDF draw.  For 4 <= d <= 64 it is one lookup in a
table of (state, bucket of j) -> next state, of 16 d 2**bits bytes with
2**bits >= 32 (d-1) buckets a row (2 MiB at d = 64), the indexed search of
Chen and Asau (AIIE Trans. 6, 1974; Devroye 1986, III.2.4): seven numpy
calls over the batch whatever d is, with a bisection for the few uniforms
whose bucket straddles a CDF breakpoint.  Otherwise it is a branchless
bisection over the CDF rows, O(R log d).  numpy releases the GIL inside
these calls and inside Philox's fills, so the workers run side by side.
"""

from __future__ import annotations

import functools
import os
import threading
from dataclasses import dataclass

import numpy as np

from .chain import ReversibleChain, _check_length, as_distribution, mean_value
from .errors import BudgetOverflow, _check_int, _shown
from .exact_error import _WALK_CAP, EstimatorSpec

__all__ = [
    "SimulationConfig",
    "EmpiricalErrorReport",
    "estimate_error",
]

# Column-buffer uniforms of all workers together (16 MiB), and of one worker
# (8 MiB), rounded down to whole replications.
_BUFFER_ELEMS = 1 << 21
_BATCH_ELEMS = 1 << 20
# Uniforms drawn per piece before the transpose (128 KiB).
_STAGE_ELEMS = 1 << 14
# Philox's uniform is (raw >> 11) 2**-53: the walk runs on the integer
# j = raw >> 11 in [0, 2**53) against CDF rows scaled by 2**53.
_UNIFORM_BITS = 53
# Most bytes of bucket table, 16 a bucket: d <= 64.  At d = 128 the 8 MiB
# table took 22-32 ms to build, and on a dense chain it gained 4% on
# 30000-row batches and lost 4% on 953-row ones.
_TABLE_BYTES = 1 << 21
# Fewest replications per worker, in its chunk and in its batch.  Numpy calls
# on fewer rows hand the GIL back and forth more than they run apart: on two
# cores, with the table step at d = 5, 10 and 50, two workers were 3-56%
# slower than one at 2000-6000 rows each, won 9 of 10 pairs at 8000 for
# d = 5 and 50 but 2 of 10 for d = 10, and were 14-22% faster at 12000.
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
        _check_int(self.replications, 2, "replications must be an integer >= 2")
        _check_int(self.seed, 0, "seed must be an integer in [0, 2**128)", 2**128 - 1)
        if not isinstance(self.spec, EstimatorSpec):
            raise ValueError("spec must be an EstimatorSpec")


@dataclass(frozen=True)
class EmpiricalErrorReport:
    """Empirical MSE over replications, with the standard error of that mean."""

    mse_hat: float
    std_error: float
    replications: int
    seed: int


def _cdf(weights: np.ndarray) -> np.ndarray:
    # CDFs along the last axis.  Rows sum to 1 only within ROW_TOL: saturating
    # from each row's last positive entry on keeps a deficit off the
    # zero-probability states.
    cdf = np.cumsum(weights, axis=-1)
    d = weights.shape[-1]
    last = d - 1 - np.argmax(weights[..., ::-1] > 0.0, axis=-1)
    cdf[np.arange(d) >= last[..., None]] = 1.0
    return cdf


def _thresholds(cdf: np.ndarray) -> np.ndarray:
    """CDF rows scaled to integers: ceil(c 2**53) <= j exactly when c <= j 2**-53.

    Scaling by a power of two and ``ceil`` round nothing, so the integer
    j selects the state that the uniform j 2**-53 selects.
    """
    return np.ceil(cdf * 2.0**_UNIFORM_BITS).astype(np.int64)


def _start_row(cdf: np.ndarray) -> np.ndarray:
    """The start's threshold row, sorted for ``np.searchsorted``.

    Clipping at 2**53 lowers only an excursion above 1 before the saturated
    tail, which no j < 2**53 reaches, so a search for j selects the state
    that :func:`_step` does, with one index array as its only temporary.
    """
    return np.minimum(_thresholds(cdf), 2**_UNIFORM_BITS)


def _step(u: np.ndarray, cdf: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Inverse-CDF draw: the state that uniform ``u[i]`` selects from row ``states[i]``.

    ``cdf`` holds saturated CDF rows, C-contiguous (a 1-D ``cdf`` is its one
    row): those of :func:`_cdf` against uniforms u in [0, 1), or the integer
    rows of :func:`_thresholds` against the integers j = u 2**53, which
    select the same states.  The state is the number of entries of the row
    at or below ``u[i]``.  That predicate holds on a prefix of each row:
    running sums never decrease, an excursion above 1 before the last
    positive entry stays above u, and the saturated tail is 1.  So a
    branchless bisection finds the prefix end, in ceil(log2(d-1)) rounds
    and one last compare.  It is the simulation's step for d <= 3 and
    d > 64, and otherwise resolves the uniforms that fall in an impure
    bucket of :func:`_bucket_table`.
    """
    d = cdf.shape[-1]
    flat = cdf.ravel()
    row = states * d
    base = row.copy()
    span = d - 1  # the last entry is 1 and never counts
    while span > 1:
        half = span // 2
        base += (flat[half:][base] <= u) * half  # a view, not an index sum
        span -= half
    base += flat[base] <= u
    return base - row


def _usable_cores() -> int:
    """Cores this process may run on: its affinity set where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _positioned(seed: int, offset: int) -> np.random.Generator:
    """The seed's generator, positioned so that its next uniform is number ``offset``."""
    bit_generator = np.random.Philox(key=seed)
    bit_generator.advance(offset // 4)  # one counter step yields four uniforms
    generator = np.random.Generator(bit_generator)
    generator.random(offset % 4)
    return generator


def _bucket_table(cdf: np.ndarray, f: np.ndarray):
    """Each (row, bucket of j)'s next state, or None where bisection stays.

    ``cdf`` holds the integer rows of :func:`_thresholds`.  Row x's bucket b
    is the j in [b 2**s, (b+1) 2**s), s = 53 - bits, with 2**bits >=
    32 (d-1) buckets a row.  It is pure when :func:`_step` selects one
    state for all of them, which holds when its first and last j do, as
    the state never decreases in j.  Returns ``(nxt, fnext, bits)``:
    ``nxt[x 2**bits + b]`` is that state times 2**bits, or -1 where the
    bucket straddles a breakpoint, and ``fnext`` holds f of that state.  At
    most d-1 of a row's buckets are impure, so at most 1/32 of the uniforms
    fall in one.  The table takes 16 bytes a bucket, 16 d 2**bits for the d
    rows of P, and is built for d >= 4 (where bisection takes two or more
    rounds) while that is at most ``_TABLE_BYTES``, up to d = 64.
    """
    n_rows, d = cdf.shape
    bits = (32 * (d - 1) - 1).bit_length()
    if d < 4 or 16 * n_rows << bits > _TABLE_BYTES:
        return None
    # The state j selects is the number of leading thresholds <= j, found by
    # searchsorted in the running maxima of all rows at once, each row's
    # keys and queries lifted 2**54 above the previous row's.
    shift = _UNIFORM_BITS - bits
    rows = np.arange(n_rows, dtype=np.int64)[:, None]
    lift = rows << (_UNIFORM_BITS + 1)
    keys = (np.maximum.accumulate(cdf[:, :-1], axis=1) + lift).ravel()
    first = (np.arange(1 << bits, dtype=np.int64) << shift) + lift
    above = rows * (d - 1)  # keys of the rows above
    state = np.searchsorted(keys, first, "right") - above
    pure = np.searchsorted(keys, first + ((1 << shift) - 1), "right") - above == state
    nxt = state << bits
    nxt[~pure] = -1
    return nxt.ravel(), f[state].ravel(), bits


def _draw(generator, columns, stage: int) -> None:
    # Integer uniforms j = raw >> 11, drawn row-major up to ``stage`` at a
    # time (whole replications, or one in segments) and each piece
    # transposed into place, so the draws follow the chunk's rows.
    length, count = columns.shape
    rows = max(1, stage // length)
    segment = min(length, stage)  # < length only when rows == 1
    for r in range(0, count, rows):
        m = min(rows, count - r)
        for t in range(0, length, segment):
            piece = generator.bit_generator.random_raw(m * min(segment, length - t))
            piece = piece.reshape(m, -1).T
            np.right_shift(piece, 64 - _UNIFORM_BITS, out=columns[t : t + len(piece), r : r + m])


def _chunk_sums(
    generator, columns, walk, fv, stage, row_cdf, nu_cdf, f, table, n0, sums, failed
) -> None:
    """Window sums of one chunk of replications, written into ``sums``.

    ``columns`` holds a batch of whole replications as integer uniforms,
    one time step per contiguous row.  The first step searches the start's
    row ``nu_cdf`` from :func:`_start_row`.  With a ``table`` from
    :func:`_bucket_table`, a step is one lookup: the spent row of
    uniforms ``j[t-1]`` takes the index of (state, bucket of j), ``walk``
    the next state times 2**bits and ``fv`` its f, and :func:`_step`
    resolves the impure buckets from ``j[t]``.  Without one, each step is
    a bisection.  Stops early once another chunk has put an exception in
    ``failed``.
    """
    length, batch = columns.shape
    for lo in range(0, sums.size, batch):
        if failed:
            return
        out = sums[lo : lo + batch]
        count = out.size
        j = columns[:, :count]
        _draw(generator, j, stage)
        states = np.searchsorted(nu_cdf, j[0], side="right")
        if n0 == 0:
            out += f[states]
        if table is None:
            for t in range(1, length):
                states = _step(j[t], row_cdf, states)
                if t >= n0:
                    out += f[states]
            continue
        nxt, fnext, bits = table
        cur, value = walk[:count], fv[:count]
        np.left_shift(states, bits, out=cur)
        for t in range(1, length):
            ix = j[t - 1]
            np.right_shift(j[t], _UNIFORM_BITS - bits, out=ix)
            ix += cur
            np.take(nxt, ix, out=cur, mode="clip")
            if t >= n0:
                np.take(fnext, ix, out=value, mode="clip")
            miss = np.flatnonzero(cur < 0)
            if miss.size:
                states = _step(j[t, miss], row_cdf, ix[miss] >> bits)
                cur[miss] = states << bits
                value[miss] = f[states]
            if t >= n0:
                out += value


def _guarded(task, failed) -> None:
    try:
        task()
    except BaseException as exc:  # re-raised by the calling thread after the join
        failed.append(exc)


def _window_sums(seed: int, row_cdf, nu_cdf, f, n0: int, length: int, R: int) -> np.ndarray:
    """Each replication's sum of f over its window, on k worker threads.

    k is at most the usable cores and small enough that every worker has
    ``_MIN_ROWS`` replications and room for as many in its share of the
    ``_BUFFER_ELEMS`` budget, which holds each replication's uniforms and,
    on the table path, its two walk words.  Chunk i, rows
    ``[i R // k, (i+1) R // k)``, gets its own generator positioned at its
    first row, so the split changes no draw.  The caller builds the bucket
    table, allocates every buffer but the drawn pieces, runs chunk 0
    itself, and joins every thread before it returns or re-raises the first
    exception a chunk raised; with k = 1 no thread starts.
    """
    table = _bucket_table(row_cdf, f)
    words = length + 2 * (table is not None)  # a replication's uniforms and walk
    k = max(1, min(_usable_cores(), R // _MIN_ROWS, _BUFFER_ELEMS // (_MIN_ROWS * words)))
    batch = min(-(-R // k), max(1, min(_BATCH_ELEMS, _BUFFER_ELEMS // k) // words))
    stage = min(_STAGE_ELEMS, batch * length)
    window_sums = np.zeros(R)
    failed: list[BaseException] = []
    tasks = []
    for i in range(k):
        lo, hi = i * R // k, (i + 1) * R // k
        walk = fv = None
        if table is not None:
            walk, fv = np.empty(batch, dtype=np.int64), np.empty(batch)
        tasks.append(functools.partial(
            _chunk_sums, _positioned(seed, lo * length),
            np.empty((length, batch), dtype=np.int64), walk, fv, stage,
            row_cdf, nu_cdf, f, table, n0, window_sums[lo:hi], failed,
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
    replications run as contiguous chunks on up to one worker thread per
    usable core, each chunk from its own generator positioned at its first
    row, and within a chunk in lock-step, a batch of whole replications at a
    time, vectorized across the batch one time step at a time.  The result
    is bit-identical for every worker count and batch size.  A step costs
    seven numpy calls over the batch for 4 <= d <= 64, whatever d is, and
    a bisection of ceil(log2(d-1)) rounds otherwise.  Memory is at most
    16 MiB of column and walk buffers (or one replication, if longer),
    128 KiB of drawn uniforms per worker, a few doubles per replication,
    the d x d CDF and threshold rows (16 d**2 bytes) and, for
    4 <= d <= 64, a bucket table of at most 2 MiB.  ``std_error``
    is the sample standard deviation of the squared errors divided by
    sqrt(R).  Raises :class:`BudgetOverflow` before anything is allocated
    if one replication takes more than 2**27 uniforms or R exceeds 2**27.
    """
    spec = config.spec
    n, n0 = int(spec.n), int(spec.n0)
    length = spec.total
    R = int(config.replications)
    if length > _WALK_CAP:
        raise BudgetOverflow(
            f"one replication takes {length} uniforms, cap is {_WALK_CAP}"
        )
    if R > _REPLICATION_CAP:
        raise BudgetOverflow(
            f"replications must be at most {_REPLICATION_CAP}, got {_shown(R)}"
        )
    nu = _check_length(chain, nu, "start distribution", as_distribution)
    f = _check_length(chain, f, "function")

    deviations = _window_sums(
        int(config.seed), _thresholds(_cdf(chain.P)), _start_row(_cdf(nu)), f, n0, length, R
    )
    deviations /= n  # in place: window averages, then their deviations
    deviations -= mean_value(f, chain.pi)
    squared = deviations * deviations
    return EmpiricalErrorReport(
        mse_hat=float(squared.mean()),
        std_error=float(squared.std(ddof=1) / np.sqrt(R)),
        replications=R,
        seed=int(config.seed),
    )
