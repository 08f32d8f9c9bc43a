"""Exception hierarchy for chain validation and resource limits.

Everything raised on purpose by this package derives from :class:`ChainError`,
so callers can catch one type at API boundaries.  Plain ``ValueError`` is
reserved for malformed *parameters* (wrong shapes, out-of-range scalars);
the subclasses below signal that the mathematical object itself is unusable.
"""

__all__ = [
    "ChainError",
    "NotStochastic",
    "NotReversible",
    "NotErgodic",
    "ZeroMass",
    "SpectralFailure",
    "BudgetOverflow",
    "TooLarge",
]


class ChainError(Exception):
    """Base class for domain errors raised by this package."""


class NotStochastic(ChainError):
    """A transition matrix has a negative entry or a row that does not sum to 1."""


class NotReversible(ChainError):
    """Detailed balance fails; the message names the worst offending pair."""


class NotErgodic(ChainError):
    """The chain is reducible, periodic, or numerically indistinguishable from it."""


class ZeroMass(ChainError):
    """A distribution entry required to be positive is zero (or denormal)."""


class SpectralFailure(ChainError):
    """The symmetric eigensolver failed or returned an inconsistent spectrum."""


class BudgetOverflow(ChainError):
    """A computation would exceed a fixed resource guard.

    Raised by :func:`~mcmc_certify.simulate.estimate_error` when one
    replication would take more than 2**27 uniforms (a batch of the uniform
    block holds at least one whole replication), and by
    :func:`~mcmc_certify.exact_error.exact_error` when the start is still
    concentrated on states of small pi after 4096 exact steps.
    """


class TooLarge(ChainError):
    """An input exceeds a hard size cap.

    Raised by :func:`~mcmc_certify.chain.as_transition_matrix` (and so by
    :func:`~mcmc_certify.chain.build_chain`) and by
    :func:`~mcmc_certify.chainfile.load_chain_file` for a chain of more than
    4096 states, before the dense matrix is built.
    """
