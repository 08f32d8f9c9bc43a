"""Monte Carlo cross-check of the exact error formulas.

Replicates the burn-in estimator R times and reports the empirical MSE with
its standard error.  Reproducibility is taken seriously: all randomness comes
from one counter-based generator (Philox) keyed by the user seed.  Replication
i consumes row i of the (R x (n+n0)) uniform block, one uniform per
inverse-CDF transition step.  The block is drawn in batches of whole rows,
about 2**20 doubles each; row-major draws from one generator make the batches
equal to the single block, so memory is O(batch + R) while the result stays a
pure function of (chain, nu, f, config) — independent of evaluation order,
BLAS threading, or platform — which is what lets tests pin it to exact values.
Each step is a branchless bisection over the saturated CDF rows, O(R log d).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import ReversibleChain, _check_length, as_distribution, mean_value
from .errors import BudgetOverflow, _check_int
from .exact_error import EstimatorSpec

__all__ = [
    "SimulationConfig",
    "EmpiricalErrorReport",
    "estimate_error",
]

# Uniforms drawn at once (8 MiB of doubles), rounded to whole replications.
_BATCH_ELEMS = 1 << 20
# Longest replication: a batch holds at least one whole row (1 GiB of doubles).
_ROW_CAP = 1 << 27


@dataclass(frozen=True)
class SimulationConfig:
    """Replication count, seed, and the estimator window to replicate."""

    replications: int
    seed: int
    spec: EstimatorSpec

    def __post_init__(self) -> None:
        _check_int(self.replications, 2, "replications must be an integer >= 2")
        _check_int(self.seed, 0, "seed must be a nonnegative integer")
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
        base += (flat[base + half] <= u) * half
        span -= half
    base += flat[base] <= u
    return base - row


def _window_sums(generator, row_cdf, nu_cdf, f, n0: int, length: int, R: int) -> np.ndarray:
    """Each replication's sum of f over its window, drawn batch by batch.

    Row-major draws, so consecutive batches of whole rows equal the single
    (R, length) block; one transpose per batch makes each time step a
    contiguous column.
    """
    batch = min(R, max(1, _BATCH_ELEMS // length))
    block = np.empty((batch, length))
    columns = np.empty((length, batch))
    window_sums = np.zeros(R)
    for lo in range(0, R, batch):
        sums = window_sums[lo : lo + batch]
        count = sums.size
        generator.random(out=block[:count])
        u = columns[:, :count]
        u[...] = block[:count].T
        states = _step(u[0], nu_cdf, np.zeros(count, dtype=np.intp))
        if n0 == 0:
            sums += f[states]
        for t in range(1, length):
            states = _step(u[t], row_cdf, states)
            if t >= n0:
                sums += f[states]
    return window_sums


def estimate_error(chain: ReversibleChain, nu, f, config: SimulationConfig) -> EmpiricalErrorReport:
    """Empirical MSE of the burn-in estimator over R seeded replications.

    Replications advance in lock-step, a batch of whole rows of the Philox
    uniform block at a time, vectorized across the batch one time step at a
    time; replication i consumes row i.  ``std_error`` is the sample standard
    deviation of the squared errors divided by sqrt(R).  Raises
    :class:`BudgetOverflow` if one replication takes more than 2**27
    uniforms.
    """
    nu = _check_length(chain, nu, "start distribution", as_distribution)
    f = _check_length(chain, f, "function")

    spec = config.spec
    n, n0 = int(spec.n), int(spec.n0)
    length = spec.total
    R = int(config.replications)
    if length > _ROW_CAP:
        raise BudgetOverflow(
            f"one replication takes {length} uniforms, cap is {_ROW_CAP}"
        )

    generator = np.random.Generator(np.random.Philox(key=int(config.seed)))
    deviations = _window_sums(generator, _cdf(chain.P), _cdf(nu), f, n0, length, R)
    deviations /= n  # in place: window averages, then their deviations
    deviations -= mean_value(f, chain.pi)
    squared = deviations * deviations
    return EmpiricalErrorReport(
        mse_hat=float(squared.mean()),
        std_error=float(squared.std(ddof=1) / np.sqrt(R)),
        replications=R,
        seed=int(config.seed),
    )
