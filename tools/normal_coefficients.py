"""Power-series coefficients of the normal tail used by ``phara.normal.cdf``.

Shepherd & Laframboise (1981, Math. Comp. 36:249) expand
f(y) = (1 + 2y) exp(y^2) erfc(y), which is smooth and bounded on [0, inf),
in t = (y - K)/(y + K).  ``cdf`` splits the live range of y = |x|/sqrt(2)
in two at |x| = X_ONE: a near piece for |x| < X_ONE and a far piece for
X_ONE <= -x < -X_ZERO.  On each piece this script maps the piece's t range
onto s in [-1, 1], interpolates f at Chebyshev nodes in 50-digit arithmetic
(mpmath), truncates the Chebyshev series at the piece's degree (the first
dropped coefficient is below 1e-17, a twentieth of a unit in the last place
of f >= 1.13), converts it to the power basis in s, still in 50 digits, and
prints the coefficients as the ``_ERFC_NEAR`` and ``_ERFC_FAR`` literals of
``src/phara/normal.py``, lowest degree first::

    python tools/normal_coefficients.py

The sum of the coefficients' magnitudes is 1.65 (near) and 1.21 (far), so
summing them by Horner in double precision loses nothing to cancellation.
``tests/test_normal.py`` checks that the committed tables equal its output.
"""

from __future__ import annotations

import mpmath as mp

K = 3.75        # the map's centre; Shepherd & Laframboise's choice
X_ZERO = -37.5  # Phi(x) is returned as 0 at and below; as in normal.py
X_ONE = 8.3     # Phi(x) is returned as 1 at and above; as in normal.py
NODES = 64      # interpolation nodes, well past either degree
# table name -> (|x| range of the piece, degree)
PIECES = {"_ERFC_NEAR": ((0.0, X_ONE), 18), "_ERFC_FAR": ((X_ONE, -X_ZERO), 13)}


def _chebyshev_to_power(c):
    """Power-basis coefficients of sum_k c_k T_k(s), lowest degree first."""
    # T_0 = 1, T_1 = s, T_{k+1} = 2 s T_k - T_{k-1}
    prev, cur = [mp.mpf(1)], [mp.mpf(0), mp.mpf(1)]
    out = [c[0]] + [mp.mpf(0)] * (len(c) - 1)
    for k in range(1, len(c)):
        for j, v in enumerate(cur):
            out[j] += c[k] * v
        prev, cur = cur, [-v for v in prev] + [mp.mpf(0)] * 2
        for j, v in enumerate(prev):
            cur[j + 1] += 2 * v
    return out


def coefficients(x_range, degree: int) -> tuple[float, ...]:
    """a_0 .. a_degree with f(y) = sum_j a_j s^j on one piece, rounded to
    doubles; s runs over [-1, 1] as |x| runs over x_range."""
    with mp.workdps(50):
        k = mp.mpf(K)
        t_lo, t_hi = ((y - k) / (y + k) for y in (mp.mpf(x) / mp.sqrt(2)
                                                   for x in x_range))

        def f(s):
            t = (t_lo + t_hi) / 2 + (t_hi - t_lo) / 2 * s
            y = k * (1 + t) / (1 - t)
            return (1 + 2 * y) * mp.exp(y * y) * mp.erfc(y)

        theta = [mp.pi * (j + mp.mpf(1) / 2) / NODES for j in range(NODES)]
        vals = [f(mp.cos(th)) for th in theta]
        c = [2 * mp.fsum(v * mp.cos(n * th) for v, th in zip(vals, theta)) / NODES
             for n in range(degree + 1)]
        c[0] /= 2
        return tuple(float(a) for a in _chebyshev_to_power(c))


def tables() -> dict[str, tuple[float, ...]]:
    """Every committed table, by its name in ``phara.normal``."""
    return {name: coefficients(x_range, degree)
            for name, (x_range, degree) in PIECES.items()}


def main() -> None:
    for name, table in tables().items():
        print(f"{name} = (")
        for i in range(0, len(table), 3):
            print("    " + " ".join(f"{a!r}," for a in table[i:i + 3]))
        print(")")


if __name__ == "__main__":
    main()
