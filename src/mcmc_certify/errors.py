"""Exception hierarchy for chain validation and resource limits.

Everything raised on purpose by this package derives from :class:`ChainError`,
so callers can catch one type at API boundaries.  Plain ``ValueError`` is
reserved for malformed *parameters* (wrong shapes, out-of-range scalars);
the subclasses below signal that the mathematical object itself is unusable.
The one rule for scalar parameters lives here too: counts, real numbers and
names, where a numpy scalar is the Python value it holds and a ``bool`` is
no number.  So every module words its refusal, and shows an int beyond
float64 by its bit length, the same way; so does the one ceiling of counts
used as floats, 2**53.
"""

import math
import sys

import numpy as np

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
    """A distribution entry required to be positive is below 1e-300, zero or not."""


class SpectralFailure(ChainError):
    """The symmetric eigensolver failed or returned an inconsistent spectrum."""


class BudgetOverflow(ChainError):
    """A computation would exceed a fixed resource guard.

    Raised by :func:`~mcmc_certify.simulate.estimate_error` when one
    replication would take more than 2**27 uniforms (a column buffer holds
    at least one whole replication), when more than 2**27 replications are
    asked for (one double each) or for a simulated MSE that overflows
    float64, and by :func:`~mcmc_certify.exact_error.exact_error` when the
    start is still concentrated on states of small pi after 4096 exact steps
    or when the MSE overflows float64.
    """


class TooLarge(ChainError):
    """An input exceeds a hard size cap.

    Raised by :func:`~mcmc_certify.chain.as_transition_matrix` alone, and so
    by :func:`~mcmc_certify.chain.build_chain` and
    :func:`~mcmc_certify.chainfile.load_chain_file`, for a chain of more than
    4096 states, before the dense matrix is built.
    """


# The upper end of every count the code goes on to use as a float (window,
# burn-in, budget, exponent): float64 holds every integer up to 2**53, and
# n**2 <= 2**106 stays finite.
_COUNT_MAX = 2**53


def _shown(x) -> str:
    """``repr(x)``, or the bit length of an int beyond float64 (thousands of digits)."""
    huge = isinstance(x, int) and abs(x) > sys.float_info.max
    return f"an integer of {abs(x).bit_length()} bits" if huge else repr(x)


def _check_int(value, low: int, message: str, high: float = math.inf) -> int:
    """``int(value)`` for an int or numpy integer in [low, high], else
    ``ValueError``; a ``bool`` is not a count."""
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not (integer and low <= value <= high):
        raise ValueError(f"{message}, got {_shown(value)}")
    return int(value)


def _check_count(value, low: int, what: str) -> int:
    """``_check_int`` for a count used as a float: an integer in [low, 2**53]."""
    if type(value) is int and low <= value <= _COUNT_MAX:
        return value  # a Python int, without building the message
    return _check_int(value, low, f"{what} must be an integer in [{low}, 2**53]", _COUNT_MAX)


# The closed ends that stand for the open ends of [0, 1) and (0, 1), and the
# types of Python's own numbers and names, which skip the numpy scalar test.
_BELOW_ONE = math.nextafter(1.0, 0.0)
_ABOVE_ZERO = math.ulp(0.0)
_REAL, _NAMED = (int, float), (str, int, float)


def _check_real(value, low: float, high: float, message: str):
    """``value`` for a real number in [low, high], a numpy scalar as the
    Python number it holds, else ``ValueError``; a ``bool`` is not a number."""
    if type(value) in _REAL and low <= value <= high:
        return value
    number = value.item() if isinstance(value, np.generic) else None
    if type(number) not in _REAL or not low <= number <= high:
        raise ValueError(f"{message}, got {_shown(value)}")
    return number


def _check_name(value, names: tuple, what: str):
    """The one of ``names`` that ``value`` is, a numpy scalar as the Python
    value it holds, else ``ValueError``; a ``bool`` is none of them."""
    if type(value) in _NAMED and value in names:
        return value
    plain = value.item() if isinstance(value, np.generic) else None
    if type(plain) not in _NAMED or plain not in names:
        raise ValueError(f"{what} must be one of {names}, got {_shown(value)}")
    return plain
