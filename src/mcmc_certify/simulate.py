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
rows row-major into a small staging buffer and transposes each piece into a
column buffer of whole replications, one time step per contiguous row; the
column buffers share a budget of 2**21 doubles (16 MiB), at most 2**20 per
worker.  Memory is therefore O(budget + R), and the result is a pure
function of (chain, nu, f, config), independent of the worker count, batch
size, evaluation order, BLAS threading or platform, which is what lets
tests pin it to exact values.  Each step is a branchless bisection over the
saturated CDF rows, O(R log d); numpy releases the GIL inside it and inside
Philox's fills, so the workers run side by side.
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

# Column-buffer doubles of all workers together (16 MiB), and of one worker
# (8 MiB), rounded down to whole replications.
_BUFFER_ELEMS = 1 << 21
_BATCH_ELEMS = 1 << 20
# Uniforms staged per draw before the transpose (128 KiB).
_STAGE_ELEMS = 1 << 14
# Fewest replications per worker, in its chunk and in its batch.  Numpy calls
# on fewer rows hand the GIL back and forth more than they run apart: on two
# cores, two workers were 5-35% slower than one at 4000-6000 rows each, and
# 15-30% faster at 12000.
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


def _step(u: np.ndarray, cdf: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Inverse-CDF draw: the state that uniform ``u[i]`` selects from row ``states[i]``.

    ``cdf`` holds saturated CDF rows from :func:`_cdf`, C-contiguous (a 1-D
    ``cdf`` is its one row).  The state is the number of entries of the row
    at or below ``u[i]``.  For u in [0, 1) that predicate holds on a prefix of
    each row: running sums never decrease, an excursion above 1 before the
    last positive entry stays above u, and the saturated tail is 1.  So a
    branchless bisection finds the prefix end, in ceil(log2(d-1)) rounds and
    one last compare.
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


def _chunk_sums(generator, columns, staging, row_cdf, nu_cdf, f, n0, sums, failed) -> None:
    """Window sums of one chunk of replications, written into ``sums``.

    ``columns`` holds a batch of whole replications, one time step per
    contiguous row.  Its uniforms are drawn row-major into ``staging``, whole
    replications at a time or one replication in segments, and each piece is
    transposed into place, so the draws follow the chunk's rows of the block.
    Stops early once another chunk has put an exception in ``failed``.
    """
    length, batch = columns.shape
    rows = max(1, staging.size // length)
    segment = min(length, staging.size)  # < length only when rows == 1
    for lo in range(0, sums.size, batch):
        if failed:
            return
        out = sums[lo : lo + batch]
        count = out.size
        u = columns[:, :count]
        for j in range(0, count, rows):
            m = min(rows, count - j)
            for t in range(0, length, segment):
                piece = staging[: m * min(segment, length - t)].reshape(m, -1)
                generator.random(out=piece)
                u[t : t + piece.shape[1], j : j + m] = piece.T
        states = _step(u[0], nu_cdf, np.zeros(count, dtype=np.intp))
        if n0 == 0:
            out += f[states]
        for t in range(1, length):
            states = _step(u[t], row_cdf, states)
            if t >= n0:
                out += f[states]


def _guarded(task, failed) -> None:
    try:
        task()
    except BaseException as exc:  # re-raised by the calling thread after the join
        failed.append(exc)


def _window_sums(seed: int, row_cdf, nu_cdf, f, n0: int, length: int, R: int) -> np.ndarray:
    """Each replication's sum of f over its window, on k worker threads.

    k is at most the usable cores and small enough that every worker has
    ``_MIN_ROWS`` replications and room for as many in its share of the
    ``_BUFFER_ELEMS`` budget.  Chunk i, rows ``[i R // k, (i+1) R // k)``,
    gets its own generator positioned at its first row, so the split
    changes no draw.  The caller allocates every buffer, runs chunk 0
    itself, and joins every thread before it returns or re-raises the first
    exception a chunk raised; with k = 1 no thread starts.
    """
    k = max(1, min(_usable_cores(), R // _MIN_ROWS, _BUFFER_ELEMS // (_MIN_ROWS * length)))
    batch = min(-(-R // k), max(1, min(_BATCH_ELEMS, _BUFFER_ELEMS // k) // length))
    stage = min(_STAGE_ELEMS, batch * length)
    window_sums = np.zeros(R)
    failed: list[BaseException] = []
    tasks = []
    for i in range(k):
        lo, hi = i * R // k, (i + 1) * R // k
        tasks.append(functools.partial(
            _chunk_sums, _positioned(seed, lo * length), np.empty((length, batch)),
            np.empty(stage), row_cdf, nu_cdf, f, n0, window_sums[lo:hi], failed,
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
    is bit-identical for every worker count and batch size.  Memory is at
    most 16 MiB of column buffers (or one replication, if longer), 128 KiB
    of staging per worker and a few doubles per replication.  ``std_error``
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

    deviations = _window_sums(int(config.seed), _cdf(chain.P), _cdf(nu), f, n0, length, R)
    deviations /= n  # in place: window averages, then their deviations
    deviations -= mean_value(f, chain.pi)
    squared = deviations * deviations
    return EmpiricalErrorReport(
        mse_hat=float(squared.mean()),
        std_error=float(squared.std(ddof=1) / np.sqrt(R)),
        replications=R,
        seed=int(config.seed),
    )
