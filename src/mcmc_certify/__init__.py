"""Exact errors and certified bounds for MCMC averages on finite state spaces.

Workflow: build a validated reversible chain, decompose its spectrum, then
either compute the exact mean-square error of a burn-in time average, certify
it from above with closed-form bounds, plan the burn-in under a fixed budget,
or cross-check it by naive summation and by simulation.

The public API is the union of the ``__all__`` lists of the submodules
imported below; ``cli`` is not re-exported.
"""

import sys as _sys

from .errors import *  # noqa: F403
from .chain import *  # noqa: F403
from .exact_error import *  # noqa: F403  (binds the function ``exact_error``)
from .bounds import *  # noqa: F403
from .burnin import *  # noqa: F403
from .simulate import *  # noqa: F403
from .suite import *  # noqa: F403
from .chainfile import *  # noqa: F403

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in (
        "errors",
        "chain",
        "exact_error",
        "bounds",
        "burnin",
        "simulate",
        "suite",
        "chainfile",
    )
    for name in _sys.modules[f"{__name__}.{module}"].__all__
]
