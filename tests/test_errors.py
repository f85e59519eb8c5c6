"""The library's typed rejections, one row each: a call, the exact type of the
error it raises and its whole message.  The rows reach every ``raise`` of
``utility.py`` and ``market.py``; the command line's input errors are the
``ERRORS`` table of ``test_cli.py``."""

import numpy as np
import pytest

from conftest import bundled, d1, same, scale_shift, template
from corpora import cara_utility, crra_utility
from phara.cli import _parse_utility
from phara.concavify import concave_envelope
from phara.errors import (BadDimension, BadTime, DriftBelowRate, IllegalCase, InfeasibleBudget,
                          NoConvergence, NotConcave, NotPhara, OutOfDomain, SingularVolatility,
                          StepTooCoarse, UnboundedDemand, UnboundedEnvelope)
from phara.market import build_market, sample_kernel_at
from phara.solver import (_newton_root, _tables, budget, optimal_terminal_wealth,
                          portfolio_general, portfolio_unified, solve_multiplier,
                          state_price_for_wealth, wealth_total)
from phara.utility import (INF, NEG_INF, PharaPiece, PharaUtility, _verify_composition,
                           compose, piecewise_linear_payoff, s_shaped_utility)
from phara.verify import (argmax_oracle, mc_budget_check, mc_martingale_check,
                          simulate_order_check, simulate_strategy)

nan = float("nan")
# the bundled demo: its market (one asset, r = 5 %, T = 10), raw utility on
# [4, inf), envelope and multiplier at x0 = 25; CRRA R = 0.5's envelope
DEMO = bundled("multi_kink_demo")
MARKET, RAW = DEMO.market, DEMO.utility
ENV = concave_envelope(RAW).envelope
Y = solve_multiplier(ENV, MARKET, 25.0).y_star
CRRA = concave_envelope(crra_utility(0.5)).envelope


def _utility(*pieces: PharaPiece) -> PharaUtility:
    return PharaUtility(a0=pieces[0].a_lo, pieces=pieces)


def _linear(a_lo, a_hi, u, slope) -> PharaPiece:
    return PharaPiece(a_lo=a_lo, a_hi=a_hi, R=0.0, anchor_x=a_lo, anchor_u=u, anchor_slope=slope)


def _market(**kwargs):
    return build_market(**{"r": 0.05, "mu": [0.086], "sigma": [[0.3]], "T": 10.0, **kwargs})


def _payoff(*slopes, a0=0.0, value_lo=0.0, breakpoints=()):
    return piecewise_linear_payoff(a0, value_lo, breakpoints, slopes)


def _s_shaped(**kwargs):
    return s_shaped_utility(**{"reference": 0.0, "gain_exponent": 0.5, "a0": -1.0, **kwargs})


# a square-root head on [0, 4), then a line of slope 0.5: U(x) - w x has no
# maximum for w < 0.5; U(x) = x, whose demand is infinite wherever y xi < 1;
# and a square-root head on [0, 1), then a line at half its end slope
HEAD = template(0.5, -1.0, None, 0.0, 0.0, 2.0, 0.0, 4.0)
RISING_TAIL = _utility(HEAD, _linear(4.0, INF, HEAD.value_hi, 0.5))
LINE = _utility(_linear(0.0, INF, 0.0, 1.0))
SHORT = template(0.5, -0.5, None, 0.0, 0.0, 2.0, 0.0, 1.0)
KINKED_TAIL = _utility(SHORT, _linear(1.0, INF, SHORT.value_hi, 0.5 * SHORT.slope_hi))
# state prices that are not positive, each as its message shows it, and the
# evaluators that read one
STATE_PRICES = {"nan": (nan, "nan"), "nan_vector": (np.array([1.0, nan]), "nan"),
                "negative": (-1.0, "-1"), "zero_vector": (np.array([2.0, 0.0]), "0")}
EVALUATORS = {"wealth_total": lambda xi: wealth_total(ENV, MARKET, 1.0, 5.0, xi),
              "portfolio_general": lambda xi: portfolio_general(ENV, MARKET, 1.0, 5.0, xi),
              "portfolio_unified": lambda xi: portfolio_unified(ENV, MARKET, 1.0, 5.0, xi),
              "terminal_wealth": lambda xi: optimal_terminal_wealth(ENV, 1.0, xi)}
# every evaluator of an envelope whose linear tail rises
TAIL_EVALUATORS = {
    "terminal_wealth": lambda e: optimal_terminal_wealth(e, 1.0, np.array([0.1, 0.4, 1.0, 10.0])),
    "wealth_total": lambda e: wealth_total(e, MARKET, 0.5, 1.0, 1.0),
    "budget": lambda e: budget(e, MARKET, 0.5),
    "portfolio_unified": lambda e: portfolio_unified(e, MARKET, 0.5, 1.0, 1.0),
    "portfolio_general": lambda e: portfolio_general(e, MARKET, 0.5, 1.0, 1.0),
    "state_price": lambda e: state_price_for_wealth(e, MARKET, 0.5, 1.0, 1.0),
    "solve": lambda e: solve_multiplier(e, MARKET, 1.0)}
# a power piece on [0, inf) whose inverse marginal utility leaves the doubles
INVERSE = {"C_over": (0.5, -1.0, None, 1e308, "C = inf, K = 0.0"),
           "C_under": (0.5, -1.0, None, 1e-300, "C = 0.0, K = 0.0"),
           "K_over": (INF, NEG_INF, 1e-308, 1e-300, "C = 0.0, K = -inf")}
UNIT = _payoff(1.0, a0=1.0, value_lo=1.0)
STEEP_TAIL = concave_envelope(_parse_utility(same.BRANCHES["steep_tail"])).envelope
PAYOFF_PIECE = "payoff piece {} on [{}, inf) is not linear"
TAIL = "envelope has a linear tail of slope {!r} > 0: demand is infinite"
SLOPE = "non-linear piece needs a finite positive anchor slope, got {}"

# case id: (call, the exact type of its error, the error's whole message)
RAISES = {
    # -- PharaPiece: template(R, A, alpha, ...) on [1, inf) through (2, 7) at slope 1.5
    "piece_anchor_at_the_benchmark_below": (
        lambda: template(0.5, 2.0, None, a_lo=2.0), IllegalCase,
        "anchor must sit strictly above the benchmark, got anchor 2.0 and benchmark 2.0"),
    "piece_anchor_at_the_benchmark_above": (
        lambda: template(0.5, 4.0, None, x_hat=4.0, a_hi=4.0), IllegalCase,
        "anchor must sit strictly below the benchmark, got anchor 4.0 and benchmark 4.0"),
    "piece_exponential_finite_A": (lambda: template(INF, 1.0, 0.5), IllegalCase,
                                   "exponential case needs A = -inf, got 1.0"),
    **{f"piece_exponential_alpha_{alpha}": (
        lambda alpha=alpha: template(INF, NEG_INF, alpha), IllegalCase,
        f"exponential case needs alpha in (0, inf), got {alpha}")
       for alpha in (None, 0.0, INF, nan)},
    "piece_exponential_scale": (
        lambda: template(INF, NEG_INF, 1e-310, gamma=1.0), IllegalCase,
        "exponential case needs anchor_slope / alpha in the doubles, got 1.0 / 1e-310"),
    **{f"piece_power_slope_{g}": (lambda g=g: template(0.5, 0.0, None, gamma=g), IllegalCase,
                                  SLOPE.format(g)) for g in (-1.0, 0.0, nan, INF)},
    **{f"piece_linear_slope_{g}": (
        lambda g=g: template(0.0, NEG_INF, None, gamma=g), IllegalCase,
        f"linear piece needs a finite slope >= 0, got {g}") for g in (-1.0, nan)},
    **{f"piece_R_{R}": (lambda R=R: template(R, 0.0, None), IllegalCase,
                        f"risk aversion R must be >= 0, got {R}") for R in (-0.5, nan)},
    **{f"piece_power_A_{A}": (lambda A=A: template(0.5, A, None), IllegalCase,
                              f"power/log piece needs a finite benchmark, got {A}")
       for A in (NEG_INF, nan)},
    "piece_linear_A": (lambda: template(0.0, 3.0, None), IllegalCase,
                       "linear piece needs A = -inf, got 3.0"),
    **{f"piece_{kind}_alpha": (lambda R=R, A=A: template(R, A, 2.0), IllegalCase,
                               f"a piece with R = {R} takes no alpha, got 2.0")
       for kind, R, A in (("linear", 0.0, NEG_INF), ("log", 1.0, 0.0), ("power", 0.5, 0.0))},
    # a line with both an A and an alpha: the alpha is named first
    "piece_linear_A_and_alpha": (lambda: PharaPiece(
        a_lo=0.0, a_hi=INF, R=0.0, A=3.0, alpha=2.0, anchor_x=0.0, anchor_u=0.0,
        anchor_slope=1.0), IllegalCase, "a piece with R = 0.0 takes no alpha, got 2.0"),
    "piece_A_inside_the_cell": (
        lambda: template(0.5, 1.5, None, a_hi=3.0), IllegalCase,
        "benchmark 1.5 inside (1.0, 3.0) would put a singularity in the piece"),
    **{f"piece_anchor_value_{u}": (
        lambda u=u: template(0.0, NEG_INF, None, u=u), IllegalCase,
        f"anchor point and value must be finite, got (2.0, {u})") for u in (nan, INF)},
    "piece_anchor_point_inf": (lambda: template(0.0, NEG_INF, None, x_hat=INF), IllegalCase,
                               "anchor point and value must be finite, got (inf, 7.0)"),
    "piece_anchor_outside": (lambda: template(0.0, NEG_INF, None, x_hat=0.5), IllegalCase,
                             "anchor must lie inside the piece, got 0.5 outside [1.0, inf]"),
    "piece_empty": (lambda: template(0.0, NEG_INF, None, a_hi=1.0), IllegalCase,
                    "empty piece [1.0, 1.0)"),
    "piece_from_-inf": (lambda: template(0.0, NEG_INF, None, a_lo=NEG_INF), IllegalCase,
                        "piece must start at a finite point, got -inf"),
    # -- PharaUtility
    "utility_no_pieces": (lambda: PharaUtility(a0=0.0, pieces=()), IllegalCase,
                          "utility needs at least one piece"),
    "utility_a0_off_the_first_piece": (
        lambda: PharaUtility(a0=-1.0, pieces=LINE.pieces), IllegalCase,
        "first piece must start at a0=-1.0, got 0.0"),
    "utility_bounded_last_piece": (lambda: _utility(_linear(0.0, 1.0, 0.0, 1.0)), IllegalCase,
                                   "last piece must extend to +inf, got 1.0"),
    "utility_partition_gap": (
        lambda: _utility(_linear(0.0, 1.0, 0.0, 1.0), template(0.5, 0.0, None, a_lo=1.5)),
        IllegalCase, "partition gap between 1.0 and 1.5"),
    "utility_decreasing_jump": (
        lambda: _utility(_linear(0.0, 1.0, 0.0, 1.0), template(0.5, 0.0, None, 1.0, -1.0, 0.5)),
        IllegalCase, "utility decreases across the junction at 1.0: 1.0 -> -1.0"),
    # a convex log branch whose benchmark is its right end: +inf there
    "utility_infinite_junction": (
        lambda: _utility(template(1.0, 1.0, None, 0.0, 0.0, 1.0, 0.0, 1.0),
                         template(0.5, 0.0, None, 1.0, 1.0, 0.5)),
        IllegalCase, "interior junction values must be finite at 1.0: inf -> 1.0"),
    "utility_below_the_domain": (lambda: RAW.value(3.9), OutOfDomain, "domain starts at 4.0"),
    "utility_below_the_domain_by_a_subnormal": (
        lambda: crra_utility(0.5).value(-1e-300), OutOfDomain, "domain starts at 0.0"),
    # -- s_shaped_utility, reference 0 from a0 = -1
    **{f"s_shaped_gain_{g}": (lambda g=g: _s_shaped(gain_exponent=g), IllegalCase,
                              f"gain exponent must be in (0, 1), got {g}")
       for g in (0.0, 1.0, 1.5, nan)},
    **{f"s_shaped_loss_{q}": (lambda q=q: _s_shaped(loss_exponent=q), IllegalCase,
                              f"loss exponent must be in (0, 1), got {q}") for q in (0.0, 1.2)},
    **{f"s_shaped_weight_{w}": (lambda w=w: _s_shaped(loss_weight=w), IllegalCase,
                                f"loss weight must be positive, got {w}") for w in (0.0, -1.0)},
    "s_shaped_loss_slope_overflows": (
        lambda: s_shaped_utility(reference=5e-324, gain_exponent=0.5, a0=0.0, loss_exponent=0.01),
        IllegalCase, "loss piece's anchor slope overflows at 0.0: |0.0 - reference| = 5e-324, "
        "exponent 0.01"),
    "s_shaped_gain_slope_overflows": (
        lambda: s_shaped_utility(reference=0.0, gain_exponent=0.01, a0=5e-324), IllegalCase,
        "gain piece's anchor slope overflows at 5e-324: |5e-324 - reference| = 5e-324, "
        "exponent 0.01"),
    # -- piecewise_linear_payoff: its pieces validate the partition, the floor value and
    # the slopes; a second segment of slope 1e308 overflows its value 10 later
    "payoff_breakpoints_decrease": (lambda: _payoff(1, 1, 1, breakpoints=(2.0, 1.0)),
                                    IllegalCase, "empty piece [2.0, 1.0)"),
    "payoff_breakpoint_twice": (lambda: _payoff(1, 1, 1, breakpoints=(1.0, 1.0)),
                                IllegalCase, "empty piece [1.0, 1.0)"),
    "payoff_breakpoint_at_the_floor": (lambda: _payoff(1, 1, a0=1.0, breakpoints=(1.0,)),
                                       IllegalCase, "empty piece [1.0, 1.0)"),
    "payoff_breakpoint_below_the_floor": (lambda: _payoff(1, 1, a0=1.0, breakpoints=(0.5,)),
                                          IllegalCase, "empty piece [1.0, 0.5)"),
    "payoff_breakpoint_nan": (lambda: _payoff(1, 1, breakpoints=(nan,)), IllegalCase,
                              "empty piece [0.0, nan)"),
    "payoff_breakpoints_nan": (lambda: _payoff(0.0, 1.0, 0.88, breakpoints=(nan, nan)),
                               IllegalCase, "empty piece [0.0, nan)"),
    "payoff_breakpoint_inf": (lambda: _payoff(1, 1, breakpoints=(INF,)), IllegalCase,
                              "empty piece [inf, inf)"),
    "payoff_floor_nan": (lambda: _payoff(1, 1, a0=nan, breakpoints=(1.0,)), IllegalCase,
                         "empty piece [nan, 1.0)"),
    "payoff_floor_inf": (lambda: _payoff(1, a0=INF), IllegalCase, "empty piece [inf, inf)"),
    "payoff_floor_-inf": (lambda: _payoff(1, a0=NEG_INF), IllegalCase,
                          "piece must start at a finite point, got -inf"),
    **{f"payoff_floor_value_{v}": (lambda v=v: _payoff(1, value_lo=v), IllegalCase,
                                   f"anchor point and value must be finite, got (0.0, {v})")
       for v in (nan, INF)},
    "payoff_falling": (lambda: _payoff(1.0, -0.2, breakpoints=(1.0,)), IllegalCase,
                       "linear piece needs a finite slope >= 0, got -0.2"),
    "payoff_slope_nan": (lambda: _payoff(nan, 1.0, breakpoints=(1.0,)), IllegalCase,
                         "linear piece needs a finite slope >= 0, got nan"),
    "payoff_slope_inf": (lambda: _payoff(INF), IllegalCase,
                         "linear piece needs a finite slope >= 0, got inf"),
    "payoff_value_overflows": (lambda: _payoff(1e308, 1.0, breakpoints=(10.0,)), IllegalCase,
                               "anchor point and value must be finite, got (10.0, inf)"),
    "payoff_one_slope_short": (lambda: _payoff(1.0, breakpoints=(1.0,)), IllegalCase,
                               "need 2 slopes, got 1"),
    # -- compose
    "compose_payoff_below_the_domain": (
        lambda: compose(crra_utility(0.5), _payoff(1.0, value_lo=-1.0)), OutOfDomain,
        "payoff floor value -1.0 below preference domain"),
    "compose_payoff_from_below_the_domain": (
        lambda: compose(crra_utility(0.5), _payoff(1.0, a0=-1.0, value_lo=-1.0)), OutOfDomain,
        "payoff floor value -1.0 below preference domain"),
    # log x: U(0) = -inf, so a payoff flat at 0 has no finite utility
    "compose_flat_at_an_infinite_value": (
        lambda: compose(crra_utility(1.0), _payoff(0.0, 1.0, breakpoints=(1.0,))), NotPhara,
        "flat payoff value 0.0 maps outside the preference"),
    # from payoff value 4.7e10 the CARA slope e^(-2.4 w) underflows to 0
    "compose_cell_that_cannot_be_built": (
        lambda: compose(cara_utility(2.4, -10.0),
                        _payoff(1.0, 4.7e10, 1.0, value_lo=-1.0, breakpoints=(1.0, 2.0))),
        IllegalCase, "composed cell [2.0, inf), payoff value 47000000000.0 at its left end: "
        + SLOPE.format(0.0)),
    "compose_curved_payoff": (lambda: compose(crra_utility(0.5), crra_utility(0.5, a0=1.0)),
                              NotPhara, PAYOFF_PIECE.format(0, 1.0)),
    "compose_payoff_bent_at_1": (
        lambda: compose(crra_utility(0.5), _utility(
            _linear(0.0, 1.0, 0.0, 1.0), crra_utility(0.5).pieces[0].restrict(1.0, INF))),
        NotPhara, PAYOFF_PIECE.format(1, 1.0)),
    # the pointwise check behind compose: a cell off by 1e-6 fails it
    "compose_wrong_branch": (
        lambda: _verify_composition(compose(crra_utility(0.5), UNIT), scale_shift(
            crra_utility(0.5), 1.0, 1e-6), UNIT), NotPhara,
        "cell [1.0, inf) does not reduce to HARA form (gap -1.000e-06 at x=2.3)"),
    # -- build_market from r = 5 %, mu = 8.6 %, sigma = 30 % and T = 10
    "market_drift_below_rate": (lambda: _market(mu=[0.04]), DriftBelowRate,
                                "every drift must exceed r=0.05, got mu=[0.04]"),
    "market_singular": (lambda: _market(mu=[0.09, 0.09], sigma=[[0.3, 0.3], [0.3, 0.3]]),
                        SingularVolatility, "smallest eigenvalue of sigma sigma^T is 0.000e+00 "
                        "(largest 3.600e-01)"),
    "market_sigma_too_small": (lambda: _market(mu=[0.09, 0.10]), BadDimension,
                               "sigma must be 2x2, got shape (1, 1)"),
    "market_sigma_ragged": (lambda: _market(mu=[0.086, 0.09], sigma=[[0.3, 0.0], [0.2]]),
                            BadDimension, "sigma rows must have one length, got lengths [2, 1]"),
    "market_T_negative": (lambda: _market(T=-1.0), BadDimension,
                          "horizon T must be positive, got -1.0"),
    "market_mu_empty": (lambda: _market(mu=[]), BadDimension,
                        "mu must be a vector, got shape (0,)"),
    "market_mu_matrix": (lambda: _market(mu=[[0.09]]), BadDimension,
                         "mu must be a vector, got shape (1, 1)"),
    **{f"market_r_{r}": (lambda r=r: _market(r=r), BadDimension,
                         f"riskless rate must be positive, got {r}") for r in (0.0, -0.01)},
    # e^(rT) and e^(|theta|^2 T) stay finite doubles; a non-finite entry or an
    # overflow in sigma sigma^T is named, never computed with
    **{f"market_mu_{v}": (lambda v=v: _market(mu=[v]), BadDimension,
                          f"mu entries must be finite, got [{v}]") for v in (INF, nan)},
    "market_sigma_inf": (lambda: _market(sigma=[[INF]]), BadDimension,
                         "sigma entries must be finite, got [[inf]]"),
    "market_sigma_1e308": (lambda: _market(sigma=[[1e308]]), BadDimension, "sigma entries too "
                           "large: sigma sigma^T overflows, got sigma=[[1e+308]]"),
    "market_T_1e308": (lambda: _market(T=1e308), BadDimension, "r T must be at most 709.783 so "
                       "that e^(rT) is finite, got r=0.05, T=1e+308"),
    **{f"market_{case}": (lambda kwargs=kwargs: _market(**kwargs), BadDimension,
                          "|theta|^2 T must be at most 709.783 so that e^(|theta|^2 T) is finite, "
                          f"got |theta|={theta} from mu, sigma and r, and T={T}")
       for case, kwargs, theta, T in (("mu_1e308", dict(mu=[1e308]), "inf", 10.0),
                                      ("sigma_1e-160", dict(sigma=[[1e-160]]), "inf", 10.0),
                                      ("theta_squared_T_1e4", dict(mu=[0.05 + 3.0], T=100.0),
                                       "10.0", 100.0))},
    # eigenvalue ratio 1e-11 passes the singularity test, but theta ~ 1e6
    # (allowed by the short horizon) misses mu - r by ~1e-10
    "market_theta_residual": (lambda: _market(mu=[0.976, 0.472], T=1e-10, sigma=[
        [0.369804988317233, 0.264464562608578], [-0.724478883365859, -0.518105311011219]]),
        SingularVolatility, "market price of risk residual 1.006e-10"),
    "market_discount_at_T": (lambda: MARKET.discount(10.0), BadTime, "t=10.0 outside [0, 10.0)"),
    **{f"market_kernel_at_{t}": (lambda t=t: sample_kernel_at(MARKET, t, 10, seed=0), BadTime,
                                 f"t={t} outside (0, 10.0]") for t in (10.1, 0.0, -1.0)},
    # -- solver
    "d1_at_T": (lambda: d1(1.0, MARKET, 10.0), BadTime, "t=10.0 outside [0, 10.0)"),
    "portfolio_at_T": (lambda: portfolio_general(CRRA, MARKET, 0.4, 10.0, 1.0), BadTime,
                       "t=10.0 outside [0, 10.0)"),
    "solve_at_the_floor": (lambda: solve_multiplier(ENV, MARKET, MARKET.discount(0.0) * 4.0),
                           InfeasibleBudget, "wealth 2.4261226388505337 at t = 0 must exceed "
                           "the floor e^(-r(T-t)) a0 = 2.4261226388505337"),
    "solve_steep_linear_tail": (lambda: solve_multiplier(STEEP_TAIL, MARKET, 1.0),
                                UnboundedDemand, TAIL.format(0.9)),
    "solve_linear_tail_after_a_kink": (lambda: solve_multiplier(KINKED_TAIL, MARKET, 5.0),
                                       UnboundedDemand, TAIL.format(0.5773502691896257)),
    # the first junction where the slope rises, and both slopes
    "wealth_of_a_non_concave_utility": (lambda: wealth_total(RAW, MARKET, 1.0, 0.0, 1.0),
                                        NotConcave, "utility is not concave: slope 0.0 at 8.96 "
                                        "rises to 0.28963736401158424 at 8.96; build its envelope "
                                        "first"),
    # X_0 = C (y xi)^(-1/20) grows so slowly that wealth 1e12 lies beyond the
    # 200 rungs log xi = -2, -4, ..., -400
    "solve_no_bracket_within_the_rungs": (
        lambda: solve_multiplier(crra_utility(20.0), MARKET, 1e12), UnboundedDemand,
        "wealth inversion found no bracket: X_t is 3.00687e+08 at xi = e^-400"),
    "root_find_nan": (lambda: _newton_root(
        lambda act, u: (np.full(u.size, nan), np.ones(u.size)),
        np.array([-1.0]), np.array([1.0]), 1.0, -1.0), NoConvergence, "root-find met a NaN value"),
    # X_0 = C (y xi)^(-2) overflows on the rungs before it reaches 1e308
    "solve_wealth_beyond_the_doubles": (
        lambda: solve_multiplier(crra_utility(0.5), MARKET, 1e308), UnboundedDemand,
        "optimal wealth at state price xi = 2.4613e-155 does not fit a double"),
    **{f"inverse_marginal_utility_{case}": (
        lambda R=R, A=A, alpha=alpha, g=g: _tables(_utility(PharaPiece(
            a_lo=0.0, a_hi=INF, R=R, A=A, alpha=alpha, anchor_x=0.0, anchor_u=0.0,
            anchor_slope=g))), IllegalCase,
        f"piece on [0.0, inf) with R = {R}: its inverse marginal utility does not fit a double "
        f"({scale})")
       for case, (R, A, alpha, g, scale) in INVERSE.items()},
    # at xi = 1e-200 the wealth leaves the doubles, and so does the hedge of
    # the Euler step's form, which computes no wealth
    **{f"{name}_at_xi_1e-200": (
        lambda form=form: form(ENV, MARKET, Y, 5.0, 1e-200), UnboundedDemand,
        f"optimal {what} at state price xi = 1e-200 does not fit a double")
       for name, form, what in (("wealth", wealth_total, "wealth"),
                                ("portfolio_unified", portfolio_unified, "wealth"),
                                ("portfolio_general", portfolio_general, "portfolio"))},
    # an input error, not a result beyond the doubles: a negative xi gave a
    # terminal wealth, and the others "does not fit a double"
    **{f"{name}_state_price_{case}": (
        lambda call=call, xi=xi: call(xi), BadDimension,
        f"state price xi = {shown} is not positive")
       for name, call in EVALUATORS.items() for case, (xi, shown) in STATE_PRICES.items()},
    # R = 0.01 on the demo market: the growth exponent is about 762
    **{f"growth_factor_R_{R}": (lambda R=R: solve_multiplier(crra_utility(R), MARKET, 10.0),
                                IllegalCase, f"power piece with R = {R}: its wealth growth "
                                "factor overflows at T - t = 10.0") for R in (0.01, 1e-300)},
    # a rising linear tail: U(x) - w x has no maximum for w below its slope,
    # where the terminal wealth read its start, and X_t is infinite at every xi
    **{f"{env_name}_{name}": (lambda call=call, env=env: call(env), UnboundedDemand,
                              TAIL.format(slope))
       for env_name, env, slope in (("rising_tail", RISING_TAIL, 0.5), ("line", LINE, 1.0))
       for name, call in TAIL_EVALUATORS.items()},
    # -- concave_envelope
    # log x on (0, 1) and a jump to 1e20 at 1: the bridging chord would touch
    # the log branch 1e-20 above its open end, closer than the sweep resolves
    "envelope_contact_below_resolution_of_open_end": (
        lambda: concave_envelope(_utility(template(1.0, 0.0, None, 1.0, 0.0, 1.0, 0.0, 1.0),
                                          template(0.5, 0.0, None, 1.0, 1e20, 1.0))),
        UnboundedEnvelope, "support requested left of an open domain"),
    # a jump of 1 after a flat 1e-130 wide needs a chord of slope 1e130, beyond
    # the 4^200 range of the upward bracket search
    "envelope_chord_steeper_than_the_bracket_search": (
        lambda: concave_envelope(_utility(_linear(0.0, 1e-130, 0.0, 0.0),
                                          template(0.5, 0.0, None, 1e-130, 1.0, 1.0, 1e-130))),
        NoConvergence, "no steep supporting slope found"),
    # 1e-150 (x - 1)^(1/2) after a flat: the tangent from the flat's start has
    # slope 5e-151, beyond the 4^-201 range of the downward search
    "envelope_tangency_shallower_than_the_bracket_search": (
        lambda: concave_envelope(_utility(_linear(0.0, 1.0, 0.0, 0.0),
                                          template(0.5, 1.0, None, 2.0, 1e-150, 0.5e-150))),
        NoConvergence, "no shallow supporting slope found: the piece on [1.0, inf) with "
        "R = 0.5 rises above the hull by rounding only"),
    # -- verify's oracles: a sample too small for a standard error or a step
    "argmax_of_a_line_steeper_than_w": (
        lambda: argmax_oracle(LINE, 1.0, 0.5), UnboundedDemand,
        "linear tail steeper than w = 0.5: no argmax"),
    **{f"{name}_{n}_paths": (lambda check=check, n=n: check(n), BadDimension,
                             f"a standard error needs at least 2 paths, got {n}")
       for name, check in (("mc_budget", lambda n: mc_budget_check(CRRA, MARKET, 1.0, n, 0)),
                           ("mc_martingale",
                            lambda n: mc_martingale_check(CRRA, MARKET, 1.0, 5.0, n, 0)))
       for n in (0, 1)},
    "simulate_order_0_paths": (lambda: simulate_order_check(CRRA, MARKET, 1.0, 10.0, 0, 10, 0),
                               BadDimension, "need at least 1 path, got 0"),
    "simulate_5_steps": (lambda: simulate_strategy(CRRA, MARKET, 1.0, 10.0, 100, 5, seed=0),
                         StepTooCoarse, "need at least 10 steps, got 5"),
}


@pytest.mark.parametrize("case", list(RAISES))
def test_raises(case):
    call, error, message = RAISES[case]
    with pytest.raises(Exception) as exc:
        call()
    assert (type(exc.value), str(exc.value)) == (error, message)
