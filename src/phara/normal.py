"""The standard normal density, CDF and quantile in numpy alone.

``cdf`` follows Shepherd & Laframboise (1981, Math. Comp. 36:249): with
y = |x|/sqrt(2), Phi(-|x|) = erfc(y)/2 and (1 + 2y) exp(y^2) erfc(y) is a
smooth bounded function of t = (y - K)/(y + K) in [-1, 1), summed here as a
Chebyshev series by Clenshaw's recurrence.  ``ppf`` is Wichura's AS241
(1988, Appl. Stat. 37:477), the rational approximations that also serve
the standard library's ``statistics.NormalDist.inv_cdf``.  Both agree with
``scipy.special.ndtr`` and ``ndtri`` to about 2e-15 relative.
"""

from __future__ import annotations

import math

import numpy as np

_SQRT1_2 = math.sqrt(0.5)
_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Chebyshev coefficients of (1 + 2y) exp(y^2) erfc(y) in t = (y - _K)/(y + _K),
# printed by tools/normal_coefficients.py
_K = 3.75
_ERFC_CHEB = (
    1.1775789345674017,
    -0.004590054580646478,
    -0.08424913336651792,
    0.05920993999819189,
    -0.026658668435305753,
    0.009074997670705265,
    -0.002413163540417608,
    0.0004907758365258086,
    -6.916973302501207e-05,
    4.13902798607301e-06,
    7.74038306619849e-07,
    -2.1886401049234397e-07,
    1.076499946567091e-08,
    4.521959811218287e-09,
    -7.754400208831351e-10,
    -6.318088340886684e-11,
    2.86879501093067e-11,
    1.9455868545777347e-13,
    -9.65469674843344e-13,
    3.25254814814874e-14,
    3.3478119482868056e-14,
    -1.864562880419313e-15,
    -1.2507950530688648e-15,
    7.418235256624044e-17,
    5.068148904796111e-17,
)
# Phi(x) is 0 below _X_ZERO, where it would be subnormal (< 2.3e-308), and
# 1 above _X_ONE, where 1 - Phi(-x) < 2^-54 rounds to 1: the series runs
# only in between, so no step computes with subnormal numbers (tens of
# times slower) and saturated arguments cost one comparison.
_X_ZERO = -37.5
_X_ONE = 8.3
_X_MID, _X_HALF = 0.5 * (_X_ONE + _X_ZERO), 0.5 * (_X_ONE - _X_ZERO)

# AS241 numerators and denominators, lowest degree first: the central
# region |p - 1/2| <= 0.425 in r = 0.180625 - (p - 1/2)^2, then the tails
# in r = sqrt(-log(min(p, 1 - p))) - 1.6 (r <= 5) and - 5 (beyond)
_CENTRAL = ((3.3871328727963666080e0, 1.3314166789178437745e2,
             1.9715909503065514427e3, 1.3731693765509461125e4,
             4.5921953931549871457e4, 6.7265770927008700853e4,
             3.3430575583588128105e4, 2.5090809287301226727e3),
            (1.0, 4.2313330701600911252e1, 6.8718700749205790830e2,
             5.3941960214247511077e3, 2.1213794301586595867e4,
             3.9307895800092710610e4, 2.8729085735721942674e4,
             5.2264952788528545610e3))
_NEAR_TAIL = ((1.42343711074968357734e0, 4.63033784615654529590e0,
               5.76949722146069140550e0, 3.64784832476320460504e0,
               1.27045825245236838258e0, 2.41780725177450611770e-1,
               2.27238449892691845833e-2, 7.74545014278341407640e-4),
              (1.0, 2.05319162663775882187e0, 1.67638483018380384940e0,
               6.89767334985100004550e-1, 1.48103976427480074590e-1,
               1.51986665636164571966e-2, 5.47593808499534494600e-4,
               1.05075007164441684324e-9))
_FAR_TAIL = ((6.65790464350110377720e0, 5.46378491116411436990e0,
              1.78482653991729133580e0, 2.96560571828504891230e-1,
              2.65321895265761230930e-2, 1.24266094738807843860e-3,
              2.71155556874348757815e-5, 2.01033439929228813265e-7),
             (1.0, 5.99832206555887937690e-1, 1.36929880922735805310e-1,
              1.48753612908506148525e-2, 7.86869131145613259100e-4,
              1.84631831751005468180e-5, 1.42151175831644588870e-7,
              2.04426310338993978564e-15))


def pdf(x):
    """Standard normal density; 0 at -+inf."""
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):
        return np.exp(-0.5 * x * x) / _SQRT_2PI


def cdf(x):
    """Standard normal CDF; exact 0 at and below -37.5, exact 1 from 8.3 on,
    NaN for NaN."""
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1)
    # (1 + sign x)/2: the saturated values, and NaN for NaN
    out = np.sign(flat)
    out += 1.0
    out *= 0.5
    live = np.flatnonzero(np.abs(flat - _X_MID) < _X_HALF)
    if live.size:
        h = _lower_tail(np.abs(flat[live]) * _SQRT1_2)  # ndtr's rounding of y
        # h below zero, 1 - h from zero on, without a data-dependent branch
        step = out[live]
        out[live] = step + (1.0 - 2.0 * step) * h
    return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)


def _lower_tail(y):
    """Phi(-sqrt(2) y) = erfc(y) / 2 for 0 <= y < -_X_ZERO / sqrt(2)."""
    t = (y - _K) / (y + _K)
    # Clenshaw: b_k = 2t b_{k+1} - b_{k+2} + c_k, in place
    two_t = t + t
    b1, b2, tmp = np.full_like(t, _ERFC_CHEB[-1]), np.zeros_like(t), np.empty_like(t)
    for c in _ERFC_CHEB[-2:0:-1]:
        np.multiply(two_t, b1, out=tmp)
        np.subtract(tmp, b2, out=b2)
        b2 += c
        b1, b2 = b2, b1
    np.multiply(t, b1, out=tmp)
    tmp -= b2
    tmp += _ERFC_CHEB[0]
    # erfc(y) / 2 = exp(-y^2) f(y) / (2 (1 + 2y))
    np.multiply(y, y, out=b1)
    np.negative(b1, out=b1)
    tmp *= np.exp(b1, out=b1)
    np.multiply(y, 4.0, out=b2)
    b2 += 2.0
    tmp /= b2
    return tmp


def _ratio(coeffs, r):
    """num(r) / den(r) by Horner, for one (num, den) pair of AS241."""
    num, den = (np.full_like(r, c[-1]) for c in coeffs)
    for a, b in zip(coeffs[0][-2::-1], coeffs[1][-2::-1]):
        num *= r
        num += a
        den *= r
        den += b
    return num / den


def ppf(p):
    """Standard normal quantile Phi^{-1}(p); -+inf at p = 0, 1, NaN outside
    [0, 1]."""
    p = np.asarray(p, dtype=float)
    flat = p.reshape(-1)
    q = flat - 0.5
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = _ratio(_CENTRAL, 0.180625 - q * q) * q
        tail = np.flatnonzero(~(np.abs(q) <= 0.425))
        if tail.size:
            pt, qt = flat[tail], q[tail]
            r = np.sqrt(-np.log(np.where(qt < 0.0, pt, 1.0 - pt)))
            z = np.where(r <= 5.0, _ratio(_NEAR_TAIL, r - 1.6),
                         _ratio(_FAR_TAIL, r - 5.0))
            z[r == np.inf] = np.inf
            out[tail] = np.where(qt < 0.0, -z, z)
    return float(out[0]) if p.ndim == 0 else out.reshape(p.shape)
