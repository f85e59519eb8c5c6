"""Chebyshev coefficients of the normal tail used by ``phara.normal.cdf``.

Shepherd & Laframboise (1981, Math. Comp. 36:249) expand
f(y) = (1 + 2y) exp(y^2) erfc(y), which is smooth and bounded on [0, inf),
in the Chebyshev polynomials T_k(t) of t = (y - K)/(y + K).  This script
interpolates f at Chebyshev nodes in 50-digit arithmetic (mpmath), keeps the
coefficients down to 1e-17 (the dropped tail sums to under 5e-18, a
fiftieth of a unit in the last place of f >= 1.13) and prints them as the
``_ERFC_CHEB`` literal of ``src/phara/normal.py``::

    python tools/normal_coefficients.py

``tests/test_normal.py`` checks that the committed table equals its output.
"""

from __future__ import annotations

import mpmath as mp

K = 3.75       # the map's centre; Shepherd & Laframboise's choice
NODES = 64     # interpolation nodes; coefficients past ~28 are below 1e-19
CUTOFF = 1e-17


def coefficients() -> tuple[float, ...]:
    """c_0 .. c_n with f(y) = sum_k c_k T_k(t), rounded to doubles."""
    with mp.workdps(50):
        k = mp.mpf(K)

        def f(t):
            if t == 1:  # y = inf: (1 + 2y) exp(y^2) erfc(y) -> 2 / sqrt(pi)
                return 2 / mp.sqrt(mp.pi)
            y = k * (1 + t) / (1 - t)
            return (1 + 2 * y) * mp.exp(y * y) * mp.erfc(y)

        theta = [mp.pi * (j + mp.mpf(1) / 2) / NODES for j in range(NODES)]
        vals = [f(mp.cos(th)) for th in theta]
        c = [2 * mp.fsum(v * mp.cos(n * th) for v, th in zip(vals, theta)) / NODES
             for n in range(NODES)]
        c[0] /= 2
        degree = max(n for n in range(NODES) if abs(c[n]) >= CUTOFF)
        return tuple(float(cn) for cn in c[:degree + 1])


def main() -> None:
    print("_ERFC_CHEB = (")
    for cn in coefficients():
        print(f"    {cn!r},")
    print(")")


if __name__ == "__main__":
    main()
