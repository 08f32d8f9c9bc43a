"""Loading chain descriptions from JSON files.

Schema: an object with a required ``"P"`` (list of rows) and optional
``"pi"``, ``"nu"``, ``"f"`` (vectors of matching length) and ``"labels"``
(distinct state names).  Schema violations raise ValueError with the
offending key; the matrix/vector contents are then validated by the chain
constructors, which report row/column indices themselves.  The chain size
cap is one of those checks: :func:`~mcmc_certify.chain.as_transition_matrix`
makes it before any array is built.  The chain comes back with pi re-derived by
detailed balance where :func:`build_chain` admits that pi (``_with_balanced_pi``), so
every verb reports on the chain ``exact_error`` works on, and decomposes it once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .chain import ReversibleChain, _check_length, _with_balanced_pi, as_distribution, build_chain

__all__ = ["ChainInput", "load_chain_file"]

_KNOWN_KEYS = {"P", "pi", "nu", "f", "labels"}


@dataclass(frozen=True, eq=False)
class ChainInput:
    """Parsed contents of a chain description file."""

    chain: ReversibleChain
    nu: np.ndarray | None
    f: np.ndarray | None
    labels: list[str] | None


def load_chain_file(path) -> ChainInput:
    """Read and validate a JSON chain description.

    OS-level read failures propagate as OSError; everything else (malformed
    JSON, schema problems, invalid chain data) is a validation error.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: top level must be a JSON object")
    unknown = set(doc) - _KNOWN_KEYS
    if unknown:
        raise ValueError(f"{path}: unknown keys {sorted(unknown)}")
    if not isinstance(doc.get("P"), list):
        raise ValueError(f'{path}: required key "P" must be a list of rows')

    # Popped, so the parsed rows are freed once build_chain holds its array.
    chain = _with_balanced_pi(build_chain(doc.pop("P"), doc.get("pi")))
    d = chain.size

    labels = doc.get("labels")
    if labels is not None:
        if (
            not isinstance(labels, list)
            or len(labels) != d
            or not all(isinstance(s, str) for s in labels)
        ):
            raise ValueError(f'{path}: "labels" must be a list of {d} strings')
        if len(set(labels)) != d:
            raise ValueError(f'{path}: "labels" must be distinct')

    nu = doc.get("nu")
    if nu is not None:
        nu = _check_length(d, nu, f'{path}: "nu"', as_distribution)

    f = doc.get("f")
    if f is not None:
        f = _check_length(d, f, f'{path}: "f"')

    return ChainInput(chain=chain, nu=nu, f=f, labels=labels)
