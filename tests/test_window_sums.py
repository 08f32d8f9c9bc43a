"""Window sums W, V and U against 80-digit references over their whole range.

The references are the textbook closed forms, whose cancellation as b -> 1
is harmless at 80 digits.  The grid spans windows from 1 to 1e9 and gaps
``1 - b`` from 1e-12 up to (but excluding) 2, where W is taken to b -> -1.
"""

import mpmath
import numpy as np

import mcmc_certify as mc
from mcmc_certify._geometric import pair_sums

WINDOWS = sorted({int(round(x)) for x in np.logspace(0, 9, 19)})
GAPS = np.logspace(-12, 0, 25)
BASES = [float(b) for b in 1.0 - GAPS]                  # [0, 1 - 1e-12]
NEGATIVE = [float(b) for b in GAPS[:-1] - 1.0]          # (-1, 0)


def w_reference(n, b):
    x = mpmath.mpf(b)
    return (n * (1 - x**2) - 2 * x * (1 - x**n)) / (1 - x) ** 2


def v_reference(b, n):
    x = mpmath.mpf(b)
    xn = x**n
    geo = x * (1 - xn) / (1 - x)
    arith = x * (1 - (n + 1) * xn + n * xn * x) / (1 - x) ** 2
    return 2 * arith - geo


def u_reference(b, n):
    # sum_{j<k<=n} s^{j+k} = [s G(s^2, n-1) - s^{n+1} G(s, n-1)] / (1 - s),
    # with G(x, m) = sum_{k=1..m} x^k.
    x = mpmath.mpf(b)
    s = mpmath.sqrt(x)
    geo_s = s * (1 - s ** (n - 1)) / (1 - s)
    geo_s2 = x * (1 - x ** (n - 1)) / (1 - x)
    cross = (s * geo_s2 - s ** (n + 1) * geo_s) / (1 - s)
    return x * (1 - x**n) / (1 - x) + 4 * mpmath.sqrt(2) * cross


def relative_error(got, ref):
    if ref == 0:
        return abs(got)
    return float(abs((mpmath.mpf(got) - ref) / ref))


def test_window_sums_match_80_digits_on_log_grid():
    worst = {}
    with mpmath.workdps(80):
        for n in WINDOWS:
            cases = [("W", mc.w_factor(n, b), w_reference(n, b), b) for b in BASES + NEGATIVE]
            cases += [("V", mc.v_aggregate(b, n), v_reference(b, n), b) for b in BASES if b > 0]
            cases += [("U", mc.u_aggregate(b, n), u_reference(b, n), b) for b in BASES if b > 0]
            for name, got, ref, b in cases:
                worst[name] = max(worst.get(name, (0.0,)), (relative_error(got, ref), n, b))
    assert mc.v_aggregate(0.0, 7) == 0.0 and mc.u_aggregate(0.0, 7) == 0.0
    assert all(err <= 1e-13 for err, _, _ in worst.values()), worst


# The two-rate sums E and D of the exact MSE's start correction, from
# pair_sums, against 60-digit closed forms.  Each error is taken relative
# to the same sum on |x| and |y|, which bounds every partial sum, or to the
# smallest normal double where that sum underflows.
PAIR_RATES = [-1.0 + 1e-8, -0.5, 0.0, 0.5, 0.9, 1.0 - 1e-3, 1.0 - 1e-6, 1.0 - 1e-8]
PAIR_WINDOWS = [1, 2, 7, 10**3, 10**6, 10**9]


def pair_reference(n, x, y):
    """E = sum_{i<n} x^i y^(n-1-i) and D = sum_{i<n} x^i sum_{r=1..n-1-i} y^r."""
    x, y = mpmath.mpf(x), mpmath.mpf(y)
    e = n * x ** (n - 1) if x == y else (x**n - y**n) / (x - y)
    geometric = n if x == 1 else (1 - x**n) / (1 - x)
    if y == 1:  # sum_{i<n} (n-1-i) x^i
        d = n * (n - 1) / 2 if x == 1 else (n - 1 - n * x + x**n) / (1 - x) ** 2
    else:
        d = y * (geometric - e) / (1 - y)
    return e, d


def test_pair_sums_match_60_digits():
    x = np.array(PAIR_RATES)[:, None]
    y = np.array(PAIR_RATES + [1.0])[None, :]
    worst = (0.0,)
    floor = mpmath.mpf(np.finfo(float).tiny)
    with mpmath.workdps(60):
        for n in PAIR_WINDOWS:
            e, d = pair_sums(n, x, y)
            for i, xi in enumerate(x[:, 0]):
                for j, yj in enumerate(y[0]):
                    ref = pair_reference(n, xi, yj)
                    scale = pair_reference(n, abs(xi), abs(yj))
                    for name, got, r, s in zip("ED", (e[i, j], d[i, j]), ref, scale):
                        err = float(abs(mpmath.mpf(got) - r) / max(s, floor))
                        worst = max(worst, (err, name, n, xi, yj))
    assert worst[0] <= 2e-15, worst
