"""Black-Scholes market parameters, the pricing kernel, and kernel sampling."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadDimension, BadTime, DriftBelowRate, SingularVolatility

# Smallest acceptable eigenvalue ratio of sigma @ sigma.T before the market
# is declared singular (double-precision conditioning limit).
_EIG_RATIO_FLOOR = 1e-12
_THETA_RESIDUAL_TOL = 1e-12
# Largest exponent whose exponential is a finite double: bounds r T and
# |theta|^2 T, so that e^{rT} and e^{|theta|^2 T} are finite.
_LOG_MAX = math.log(np.finfo(float).max)


@dataclass(frozen=True, eq=False)
class MarketParams:
    """Validated constant-coefficient market.

    Attributes
    ----------
    r : riskless rate (per year)
    mu : (m,) drift vector (per year)
    sigma : (m, m) volatility matrix (per sqrt-year)
    T : horizon in years
    theta : (m,) market price of risk, the solution of sigma @ theta = mu - r
    theta_norm : Euclidean norm of theta
    risk_direction : (m,) (sigma^T)^{-1} theta, the common direction of every
        portfolio term
    """

    r: float
    mu: np.ndarray
    sigma: np.ndarray
    T: float
    theta: np.ndarray
    theta_norm: float
    risk_direction: np.ndarray

    @property
    def m(self) -> int:
        return self.mu.shape[0]

    def tau(self, t: float) -> float:
        """Time to horizon, rejecting t outside [0, T)."""
        if not 0.0 <= t < self.T:
            raise BadTime(f"t={t} outside [0, {self.T})")
        return self.T - t

    def discount(self, t: float) -> float:
        """e^{-r (T - t)}, the time-t price of one unit paid at T; BadTime
        outside [0, T)."""
        return math.exp(-self.r * self.tau(t))

    def kernel(self, t: float, theta_w) -> np.ndarray:
        """Pricing kernel xi_t = exp{-(r + |theta|^2/2) t - theta.W_t} from
        theta.W_t; xi_0 = 1.  Over a step dt with increment theta.dW it is
        the step's factor of xi."""
        return np.exp(-(self.r + 0.5 * self.theta_norm**2) * t - theta_w)


def build_market(r: float, mu, sigma, T: float) -> MarketParams:
    """Validate raw inputs and derive the market price of risk.

    Raises
    ------
    BadDimension : shape mismatch, non-finite entries, non-positive
        horizon/rate, or r T or |theta|^2 T beyond the log of the largest
        double
    DriftBelowRate : some mu_i <= r
    SingularVolatility : sigma @ sigma.T numerically singular
    """
    try:
        mu = np.atleast_1d(np.asarray(mu, dtype=float))
        sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    except ValueError:  # ragged rows
        raise BadDimension("sigma rows must have one length, got lengths "
                           f"{[len(row) for row in sigma]}") from None
    if mu.ndim != 1 or mu.size < 1:
        raise BadDimension(f"mu must be a vector, got shape {mu.shape}")
    m = mu.shape[0]
    if sigma.shape != (m, m):
        raise BadDimension(f"sigma must be {m}x{m}, got shape {sigma.shape}")
    for name, value in (("mu", mu), ("sigma", sigma)):
        if not np.all(np.isfinite(value)):
            raise BadDimension(f"{name} entries must be finite, got {value.tolist()}")
    if not (np.isfinite(T) and T > 0.0):
        raise BadDimension(f"horizon T must be positive, got {T}")
    if not (np.isfinite(r) and r > 0.0):
        raise BadDimension(f"riskless rate must be positive, got {r}")
    if not r * T <= _LOG_MAX:
        raise BadDimension(f"r T must be at most {_LOG_MAX:.6g} so that e^(rT) "
                           f"is finite, got r={r}, T={T}")
    if np.any(mu <= r):
        raise DriftBelowRate(f"every drift must exceed r={r}, got mu={mu}")

    with np.errstate(over="ignore"):
        gram = sigma @ sigma.T
    if not np.all(np.isfinite(gram)):
        raise BadDimension(f"sigma entries too large: sigma sigma^T overflows, "
                           f"got sigma={sigma.tolist()}")
    eig = np.linalg.eigvalsh(gram)
    if eig[0] <= _EIG_RATIO_FLOOR * eig[-1]:
        raise SingularVolatility(
            f"smallest eigenvalue of sigma sigma^T is {eig[0]:.3e} "
            f"(largest {eig[-1]:.3e})"
        )

    excess = mu - r
    with np.errstate(over="ignore"):
        theta = np.linalg.solve(sigma, excess)
        theta_norm = float(np.linalg.norm(theta))
    if not theta_norm * theta_norm * T <= _LOG_MAX:
        raise BadDimension(f"|theta|^2 T must be at most {_LOG_MAX:.6g} so that "
                           f"e^(|theta|^2 T) is finite, got |theta|={theta_norm} "
                           f"from mu, sigma and r, and T={T}")
    resid = np.linalg.norm(sigma @ theta - excess)
    if resid > _THETA_RESIDUAL_TOL * max(1.0, np.linalg.norm(excess)):
        raise SingularVolatility(f"market price of risk residual {resid:.3e}")

    direction = np.linalg.solve(sigma.T, theta)
    for array in (mu, sigma, theta, direction):
        array.setflags(write=False)
    return MarketParams(
        r=float(r), mu=mu, sigma=sigma, T=float(T),
        theta=theta, theta_norm=theta_norm, risk_direction=direction,
    )


def standard_normals(seed: int, n: int, stream: int = 0, start: int = 0) -> np.ndarray:
    """Normals start, ..., start + n - 1 of the stream (seed, stream), pure functions
    of (seed, stream, index), by Box-Muller on Philox's words: Philox keyed by
    (seed, stream), from counter start // 4, gives four 64-bit words per counter;
    word k shifted right by 11, as in ``Generator.integers(0, 2**53)``, is a count
    c_k, read as the uniform u_k = (c_k + 1/2) 2^-53 in (0, 1] so that no log sees
    0, and normals 2j and 2j + 1 are sqrt(-2 log u_2j) times cos and sin of
    2 pi u_2j+1."""
    first = start - start % 2  # the first normal of start's pair
    pairs = (start + n + 1) // 2 - first // 2
    key = np.array([seed, stream], dtype=np.uint64)
    raw = np.random.Philox(key=key, counter=[start // 4, 0, 0, 0]).random_raw(
        first % 4 + 2 * pairs)
    raw >>= np.uint64(11)
    u = raw[first % 4:].reshape(pairs, 2).T + 0.5  # rows: radius words, angle words
    u *= 2.0**-53
    radius = np.sqrt(-2.0 * np.log(u[0]))
    angle = u[1] * (2.0 * math.pi)
    z = np.empty((pairs, 2))
    np.multiply(radius, np.cos(angle), out=z[:, 0])
    np.multiply(radius, np.sin(angle), out=z[:, 1])
    return z.reshape(-1)[start % 2:start % 2 + n]


def sample_kernel_at(market: MarketParams, t: float, n_paths: int,
                     seed: int, start: int = 0) -> np.ndarray:
    """xi_t from time zero (xi_0 = 1) on paths start, ..., start + n_paths - 1
    of stream 0 of ``standard_normals``: deterministic per seed and path."""
    if not 0.0 < t <= market.T:
        raise BadTime(f"t={t} outside (0, {market.T}]")
    # theta.W_t = |theta| sqrt(t) z for a standard normal z
    return market.kernel(t, market.theta_norm * math.sqrt(t)
                         * standard_normals(seed, n_paths, start=start))
