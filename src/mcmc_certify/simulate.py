"""Monte Carlo cross-check of the exact error formulas.

Replicates the burn-in estimator R times and reports the empirical MSE with
its standard error.  Reproducibility is taken seriously: all randomness comes
from one counter-based generator (Philox) keyed by the user seed, drawn as a
single (R x (n+n0)) uniform block in which row i drives replication i through
inverse-CDF transition steps.  The result is a pure function of
(chain, nu, f, config) — independent of evaluation order, BLAS threading, or
platform — which is what lets tests pin it to exact values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import ReversibleChain, _check_length, as_distribution, mean_value
from .errors import BudgetOverflow
from .exact_error import EstimatorSpec

__all__ = [
    "SimulationConfig",
    "EmpiricalErrorReport",
    "estimate_error",
]

# Upper limit on the uniform block (R * (n+n0) doubles, ~1 GiB).
_BLOCK_ELEMS_CAP = 1 << 27


@dataclass(frozen=True)
class SimulationConfig:
    """Replication count, seed, and the estimator window to replicate."""

    replications: int
    seed: int
    spec: EstimatorSpec

    def __post_init__(self) -> None:
        if not isinstance(self.replications, (int, np.integer)) or self.replications < 2:
            raise ValueError(
                f"replications must be an integer >= 2, got {self.replications!r}"
            )
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")
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


def _step(u: np.ndarray, cdf_rows: np.ndarray) -> np.ndarray:
    """Inverse-CDF draw: the state that uniform ``u[i]`` selects from CDF row i.

    ``cdf_rows`` holds one row per uniform, or one row shared by all.  The
    state is the number of CDF entries at or below ``u[i]``.
    """
    return (u[:, None] >= cdf_rows).sum(axis=1)


def estimate_error(chain: ReversibleChain, nu, f, config: SimulationConfig) -> EmpiricalErrorReport:
    """Empirical MSE of the burn-in estimator over R seeded replications.

    All replications advance in lock-step, vectorized across the batch one
    time step at a time; replication i consumes row i of the Philox uniform
    block.  ``std_error`` is the sample standard deviation of the squared
    errors divided by sqrt(R).
    """
    nu = _check_length(chain, nu, "start distribution", as_distribution)
    f = _check_length(chain, f, "function")

    spec = config.spec
    n, n0 = int(spec.n), int(spec.n0)
    length = spec.total
    R = int(config.replications)
    if R * length > _BLOCK_ELEMS_CAP:
        raise BudgetOverflow(
            f"uniform block would hold {R * length} doubles, cap is {_BLOCK_ELEMS_CAP}"
        )

    uniforms = np.random.Generator(np.random.Philox(key=int(config.seed))).random(
        (R, length)
    )
    row_cdf = _cdf(chain.P)
    nu_cdf = _cdf(nu)

    # state of every replication after the first draw
    states = _step(uniforms[:, 0], nu_cdf)
    window_sums = f[states] if n0 == 0 else np.zeros(R)
    for t in range(1, length):
        states = _step(uniforms[:, t], row_cdf[states])
        if t >= n0:
            window_sums += f[states]

    averages = window_sums / n
    deviations = averages - mean_value(f, chain.pi)
    squared = deviations * deviations
    return EmpiricalErrorReport(
        mse_hat=float(squared.mean()),
        std_error=float(squared.std(ddof=1) / np.sqrt(R)),
        replications=R,
        seed=int(config.seed),
    )
