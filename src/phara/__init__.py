"""Closed-form optimal portfolios for piecewise-HARA utilities.

The pipeline: describe a (possibly non-concave) piecewise-HARA utility or
build one by composing a preference with a piecewise-linear payoff, take its
concave envelope, solve the dual budget equation, and evaluate the optimal
wealth process and portfolio in closed form, with Monte-Carlo and
finite-difference oracles for every formula.
"""

from .errors import (  # noqa: F401
    BadDimension, BadTime, DriftBelowRate, IllegalCase, InfeasibleBudget,
    NoConvergence, NotConcave, NotPhara, OutOfDomain, PharaError,
    SingularVolatility, StepTooCoarse, UnboundedDemand, UnboundedEnvelope,
)
from .market import MarketParams, build_market  # noqa: F401
from .utility import (  # noqa: F401
    PharaPiece, PharaUtility, PiecewiseLinearPayoff, compose, crra_utility,
    cara_utility, hedge_fund_utility, participating_contract_utility,
    s_shaped_utility,
)
from .concavify import EnvelopeResult, concave_envelope  # noqa: F401
from .solver import (  # noqa: F401
    DualSolution, PortfolioDecomposition, WealthDecomposition, WeightVector,
    optimal_terminal_wealth, portfolio_general, portfolio_unified,
    sahara_portfolio, solve_multiplier, wealth_process, weights,
)

__version__ = "0.1.0"
