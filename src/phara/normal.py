"""The standard normal density and CDF in numpy alone.

``cdf`` follows Shepherd & Laframboise (1981, Math. Comp. 36:249): with
y = |x|/sqrt(2), Phi(-|x|) = erfc(y)/2 and (1 + 2y) exp(y^2) erfc(y) is a
smooth bounded function of t = (y - K)/(y + K) in [-1, 1).  It is summed
here as one of two power series, each in its own rescaling of t to
[-1, 1], by Horner's rule: a near piece of degree 18 for |x| < 8.3 and a
far piece of degree 13 for -37.5 < x <= -8.3.  It agrees with
``scipy.special.ndtr`` to about 2e-15 relative.
"""

from __future__ import annotations

import math

import numpy as np

_SQRT1_2 = math.sqrt(0.5)
_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Phi(x) is 0 at and below _X_ZERO, where it is under 5e-308, at the edge of
# the subnormal range (< 2.3e-308), and 1 from _X_ONE on, where
# 1 - Phi(-x) < 2^-54 rounds to 1: the series run only in between, so no
# step computes with subnormal numbers (tens of times slower) and
# saturated arguments cost one comparison.
_X_ZERO = -37.5
_X_ONE = 8.3

# Power series of (1 + 2y) exp(y^2) erfc(y) in s, the image on [-1, 1] of
# t = (y - _K)/(y + _K) over |x| < _X_ONE (_ERFC_NEAR) and over
# _X_ZERO < x <= -_X_ONE (_ERFC_FAR), printed by tools/normal_coefficients.py
_K = 3.75
_ERFC_NEAR = (
    1.2842608117827132, -0.03971446383949079, -0.10173984850254567,
    0.11131870713292626, -0.06912262004148068, 0.030137154604837586,
    -0.00947162278974241, 0.002010913154518316, -0.0002080266481542059,
    -2.2909347156628633e-05, 1.0606710739741e-05, -4.834599640063628e-07,
    -3.537825415152402e-07, 4.259005270869783e-08, 1.264266633327897e-08,
    -2.053876137165387e-09, -5.391185708144827e-10, 7.250497721891311e-11,
    2.1815957908983164e-11,
)
_ERFC_FAR = (
    1.1754333931948064, -0.029262237552768227, 0.002770325283530817,
    -6.315006885921564e-05, -5.130800891769736e-05, 1.605416879961865e-05,
    -3.237744806303396e-06, 5.144053095281803e-07, -6.666760678922595e-08,
    6.878913269581045e-09, -5.059083938494002e-10, 1.4010048109625066e-11,
    2.5925974660686545e-12, -4.189823743114366e-13,
)


def _piece(x_lo: float, x_hi: float, coeffs):
    """(alpha, beta, coeffs) of the series over x_lo <= |x| <= x_hi, where
    s = (alpha y - beta)/(y + _K) maps its t range onto [-1, 1]."""
    t_lo, t_hi = ((x * _SQRT1_2 - _K) / (x * _SQRT1_2 + _K) for x in (x_lo, x_hi))
    width, mid = t_hi - t_lo, t_hi + t_lo
    return (2.0 - mid) / width, _K * (2.0 + mid) / width, coeffs


_NEAR_PIECE = _piece(0.0, _X_ONE, _ERFC_NEAR)
_FAR_PIECE = _piece(_X_ONE, -_X_ZERO, _ERFC_FAR)

def pdf(x):
    """Standard normal density; 0 at -+inf."""
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):
        return np.exp(-0.5 * x * x) / _SQRT_2PI


def cdf(x):
    """Standard normal CDF, in place: x, a C-contiguous float array, is
    overwritten and returned, so that only the series' own arguments are
    copied.  Exact 0 at and below -37.5, exact 1 from 8.3 on, NaN for NaN."""
    if not (isinstance(x, np.ndarray) and x.dtype == float and x.flags.c_contiguous):
        raise ValueError("normal.cdf: x must be a C-contiguous float array")
    v = x.reshape(-1)  # the arguments, each overwritten by its Phi in [0, 1]
    idx = np.flatnonzero(np.abs(v) < _X_ONE)
    if idx.size:
        y = v[idx]
        sign = np.sign(y)
        h = _lower_tail(np.multiply(np.abs(y, out=y), _SQRT1_2, out=y), _NEAR_PIECE)
        # (1 + sign x)/2 - sign x h: h below zero, 1 - h above it, 1/2 at zero,
        # without a data-dependent branch
        h *= sign
        sign += 1.0
        sign *= 0.5
        v[idx] = np.subtract(sign, h, out=h)
        del y, h, sign  # before the far series
    idx = np.flatnonzero((v > _X_ZERO) & (v <= -_X_ONE))  # no Phi written is in range
    if idx.size:
        v[idx] = _lower_tail(v[idx] * -_SQRT1_2, _FAR_PIECE)
    # the rest: exact 0 below, exact 1 above, NaN for NaN; Phi in [0, 1] stays
    np.clip(v, 0.0, 1.0, out=v)
    return x


def _lower_tail(y, piece):
    """Phi(-sqrt(2) y) = erfc(y) / 2 on one piece's range of y >= 0."""
    alpha, beta, coeffs = piece
    s = y * alpha
    s -= beta
    acc = y + _K
    s /= acc
    # Horner, in place
    np.multiply(s, coeffs[-1], out=acc)
    acc += coeffs[-2]
    for c in coeffs[-3::-1]:
        acc *= s
        acc += c
    # erfc(y) / 2 = exp(-y^2) f(y) / (2 (1 + 2y)), each factor formed in s
    acc *= np.exp(np.negative(np.multiply(y, y, out=s), out=s), out=s)
    acc /= np.add(np.multiply(y, 4.0, out=s), 2.0, out=s)
    return acc
