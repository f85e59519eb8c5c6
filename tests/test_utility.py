import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import CONTRACT, bundled, deriv, scale_shift
from corpora import cara_utility, crra_utility, random_concave_envelope, random_raw_utility
from phara.errors import IllegalCase, NotPhara, OutOfDomain
from phara.utility import (INF, NEG_INF, PharaPiece, PharaUtility, _verify_composition,
                           compose, piecewise_linear_payoff, s_shaped_utility)


def _s_shape(w, reference, g, q=None, lam=1.0):
    """The S-shaped preference by its direct formula."""
    q = g if q is None else q
    w = np.asarray(w, dtype=float)
    gain = np.abs(w - reference) ** g
    loss = -lam * np.abs(reference - w) ** q
    return np.where(w >= reference, gain, loss)


def _template(R, A, alpha, x_hat=2.0, u=7.0, gamma=1.5, a_lo=1.0, a_hi=INF):
    return PharaPiece(a_lo=a_lo, a_hi=a_hi, R=R, A=A, alpha=alpha,
                      anchor_x=x_hat, anchor_u=u, anchor_slope=gamma)


_ALL_CASES = [(0.0, NEG_INF, None), (1.0, 0.5, None), (0.7, 0.5, None),
              (3.0, 0.5, None), (INF, NEG_INF, 0.8)]


class TestTemplate:
    def test_linear_case(self):
        assert _template(0.0, NEG_INF, None, x_hat=1.0, u=5.0, gamma=2.0,
                         a_lo=0.0).value(3.0) == 9.0

    def test_log_case(self):
        got = _template(1.0, 0.0, None, x_hat=1.0, u=0.0, gamma=3.0,
                        a_lo=0.5).value(math.e)
        assert got == pytest.approx(3.0, rel=1e-14)

    def test_anchoring_all_cases(self):
        # the template returns u at the anchor in every branch
        for R, A, alpha in _ALL_CASES:
            assert _template(R, A, alpha).value(2.0) == 7.0

    def test_anchor_slope_all_cases(self):
        for R, A, alpha in _ALL_CASES:
            got = _template(R, A, alpha).slope(2.0)
            assert got == pytest.approx(1.5, rel=1e-14)

    def test_illegal_cases(self):
        nan = float("nan")
        cases = [
            dict(R=0.5, A=2.0, alpha=None, a_lo=2.0),        # anchor == A
            dict(R=INF, A=1.0, alpha=0.5),                   # finite A
            dict(R=INF, A=NEG_INF, alpha=None),              # no alpha
            dict(R=INF, A=NEG_INF, alpha=0.0),
            dict(R=INF, A=NEG_INF, alpha=INF),
            dict(R=INF, A=NEG_INF, alpha=nan),
            dict(R=0.5, A=0.0, alpha=None, gamma=-1.0),      # bad slope
            dict(R=0.5, A=0.0, alpha=None, gamma=0.0),       # flat only if linear
            dict(R=0.5, A=0.0, alpha=None, gamma=nan),
            dict(R=0.5, A=0.0, alpha=None, gamma=INF),       # value inf * 0 at the anchor
            dict(R=0.0, A=NEG_INF, alpha=None, gamma=-1.0),
            dict(R=0.0, A=NEG_INF, alpha=None, gamma=nan),
            dict(R=-0.5, A=0.0, alpha=None),                 # R < 0
            dict(R=nan, A=0.0, alpha=None),
            dict(R=0.5, A=NEG_INF, alpha=None),              # power needs finite A
            dict(R=0.5, A=nan, alpha=None),
            dict(R=0.5, A=1.5, alpha=None, a_hi=3.0),        # A inside the cell
            dict(R=0.5, A=4.0, alpha=None, x_hat=4.0, a_hi=4.0),  # anchor at A
            dict(R=0.0, A=NEG_INF, alpha=None, u=nan),       # anchor value
            dict(R=0.0, A=NEG_INF, alpha=None, u=INF),
            dict(R=0.0, A=NEG_INF, alpha=None, x_hat=INF),   # anchor point
            dict(R=0.0, A=NEG_INF, alpha=None, x_hat=0.5),   # anchor outside
            dict(R=0.0, A=NEG_INF, alpha=None, a_hi=1.0),    # empty cell
            dict(R=0.0, A=NEG_INF, alpha=None, a_lo=NEG_INF),
        ]
        for kwargs in cases:
            with pytest.raises(IllegalCase):
                _template(**kwargs)

    def test_linear_piece_contact(self):
        # a line of the piece's slope, or shallower, touches it at its right
        # end; a steeper one at its left end
        line = _template(0.0, NEG_INF, None, a_hi=4.0)
        assert line.contact(1.5) == line.contact(0.1) == 4.0
        assert line.contact(1.5 + 1e-12) == line.contact(9.0) == 1.0

    def test_rounding_bound(self, demo_utility):
        # 4 eps (|anchor_u| + |value(x)| + |x slope(x)|): 2 sqrt(x) at x = 4 has
        # value 4 and slope 1/2; at the benchmark, where the slope is infinite,
        # the last term reads 0.  On the demo's junctions it stays below 5e-15
        # of the value, far below the value rule's 1e-10 floor
        power = _template(0.5, 0.0, None, x_hat=1.0, u=2.0, gamma=1.0, a_lo=0.0)
        assert power.rounding(4.0) == 4.0 * np.finfo(float).eps * (2.0 + 4.0 + 2.0)
        assert power.rounding(0.0) == 4.0 * np.finfo(float).eps * (2.0 + 0.0)
        for left, right in zip(demo_utility.pieces, demo_utility.pieces[1:]):
            x, v = right.a_lo, right.value_lo
            assert left.rounding(x) + right.rounding(x) <= 5e-15 * max(1.0, abs(v))

    def test_restrict_keeps_branch(self, demo_utility):
        for piece in demo_utility.pieces + crra_utility(0.5).pieces:
            hi = piece.a_hi if math.isfinite(piece.a_hi) else piece.a_lo + 9.0
            mid = 0.5 * (piece.a_lo + hi)
            for lo in (piece.a_lo, piece.a_lo + 0.25 * (hi - piece.a_lo)):
                part = piece.restrict(lo, piece.a_hi)
                assert (part.a_lo, part.a_hi, part.R, part.A, part.alpha) == \
                    (lo, piece.a_hi, piece.R, piece.A, piece.alpha)
                assert part.value(mid) == pytest.approx(piece.value(mid), rel=1e-13)
                assert part.slope(mid) == pytest.approx(piece.slope(mid), rel=1e-13)


class TestEval:
    def test_demo_plateau_value(self, demo_utility):
        # at the second plateau start the right branch value (zero) wins
        assert demo_utility.value(12.0) == 0.0
        assert demo_utility.value(11.999999) < 0.0

    def test_contract_at_guarantee(self, contract_utility):
        assert contract_utility.value(1.0) == pytest.approx(0.0, abs=1e-15)

    def test_crra_derivative_both_sides(self):
        u = crra_utility(0.5)
        for x in (0.3, 1.0, 7.7):
            assert deriv(u, x, "left") == pytest.approx(x**-0.5, rel=1e-14)
            assert deriv(u, x, "right") == pytest.approx(x**-0.5, rel=1e-14)

    def test_right_derivative_matches_finite_difference(self, demo_utility):
        for a_k in demo_utility.partition[1:-1]:
            got = deriv(demo_utility, float(a_k), "right")
            if not math.isfinite(got):
                continue  # square-root branch rooted exactly at a_k
            h = 1e-7 * max(1.0, a_k)
            fd = (demo_utility.value(a_k + h) - demo_utility.value(a_k)) / h
            assert got == pytest.approx(fd, rel=5e-6, abs=1e-9)

    def test_kinks(self, demo_utility):
        # a slope jump, or an infinite slope on one side only, is a kink; the
        # S-shape's reference point has infinite slope on both sides
        assert demo_utility.kinks() == [4.0, 4.4, 8.96, 12.0, 20.0, 40.0]
        u = s_shaped_utility(reference=1.0, gain_exponent=0.5, a0=0.0)
        assert (u.pieces[0].slope_hi, u.pieces[1].slope_lo) == (INF, INF)
        assert u.kinks() == [0.0]

    def test_monotone_on_grid(self, demo_utility, contract_utility):
        for u in (demo_utility, contract_utility):
            span = u.pieces[-1].a_lo - u.a0
            xs = np.linspace(u.a0, u.pieces[-1].a_lo + 10 * span, 1000)
            vals = u.value(xs)
            assert np.all(np.diff(vals) >= -1e-12)

    def test_out_of_domain(self, demo_utility):
        with pytest.raises(OutOfDomain):
            demo_utility.value(3.9)
        with pytest.raises(OutOfDomain):
            crra_utility(0.5).value(-1e-300)

    def test_value_at_a0(self, demo_utility):
        # U(a0) is the first piece's limit, finite or -inf: a0 is in the
        # domain exactly when it is finite
        assert demo_utility.value(4.0) == demo_utility.pieces[0].value_lo
        assert crra_utility(0.5).value(0.0) == 0.0
        assert crra_utility(2.0).value(0.0) == NEG_INF
        assert crra_utility(1.0).value(0.0) == NEG_INF


def _ara(piece: PharaPiece, x: float) -> float:
    """-U''/U' at x, by a central difference of log slope."""
    h = 1e-6 * max(1.0, abs(x))
    return -(math.log(piece.slope(x + h)) - math.log(piece.slope(x - h))) / (2.0 * h)


class TestAra:
    """The HARA property the template rests on: on each branch the absolute
    risk aversion -U''/U' is R/(x - A), alpha, or 0."""

    def test_linear_zero(self):
        assert _ara(_template(0.0, NEG_INF, None), 5.0) == 0.0

    def test_cara_constant(self):
        (piece,) = cara_utility(2.0).pieces
        for x in (3.0, -10.0):
            assert _ara(piece, x) == pytest.approx(2.0, rel=1e-8)

    def test_hyperbolic(self):
        for R in (0.5, 1.0, 3.0):
            piece = PharaPiece(a_lo=5.0, a_hi=INF, R=R, A=4.0, anchor_x=5.0,
                               anchor_u=0.0, anchor_slope=1.0)
            assert _ara(piece, 6.0) == pytest.approx(R / 2.0, rel=1e-8)

    def test_crra_exact(self):
        (piece,) = crra_utility(0.5).pieces
        for x in (0.5, 2.0, 9.0):
            assert _ara(piece, x) == pytest.approx(0.5 / x, rel=1e-8)

    def test_at_kink(self, contract_utility):
        # at the kink L/alpha the two branches meeting there disagree, so
        # the risk aversion is one-sided: R/(x - A) of each branch
        _, mid, top = contract_utility.pieces
        x = mid.a_hi
        assert x == top.a_lo == 2.5
        left, right = _ara(mid, x), _ara(top, x)
        assert left == pytest.approx(0.5 / (x - mid.A), rel=1e-8)
        assert right == pytest.approx(0.5 / (x - top.A), rel=1e-8)
        assert right < left


class TestCompose:
    def test_contract_branch_parameters(self, contract_utility):
        gamma, alpha, delta, L = CONTRACT.gamma, CONTRACT.alpha, CONTRACT.delta, CONTRACT.L
        assert [p.a_lo for p in contract_utility.pieces] == [0.0, L, L / alpha]
        flat, mid, top = contract_utility.pieces
        assert (flat.R, flat.anchor_slope) == (0.0, 0.0)
        assert mid.R == pytest.approx(1.0 - gamma)
        assert mid.A == pytest.approx(CONTRACT.A1)
        assert top.R == pytest.approx(1.0 - gamma)
        assert top.A == pytest.approx(CONTRACT.A2, rel=1e-14)
        # branch values against the direct composition formula
        assert contract_utility.value(2.0) == pytest.approx(1.0, rel=1e-12)
        x = 4.0
        expect = ((1 - delta * alpha) * x - (1 - delta) * L) ** gamma
        assert contract_utility.value(x) == pytest.approx(expect, rel=1e-12)

    def test_identity_payoff_returns_preference(self, demo_utility):
        payoff = piecewise_linear_payoff(a0=4.0, value_lo=4.0,
                                         breakpoints=(), slopes=(1.0,))
        assert compose(demo_utility, payoff) is demo_utility

    def test_hedge_fund_kinks(self):
        u = bundled("hedge_fund").utility
        floor = 0.7 * math.exp(0.05 * 10.0)
        benchmark = 2.0 * math.exp(0.05 * 10.0)
        assert u.a0 == pytest.approx(floor, rel=1e-14)
        assert u.kinks() == pytest.approx([floor, benchmark], rel=1e-12)

    def test_compose_matches_pointwise(self, contract_utility):
        payoff = piecewise_linear_payoff(a0=0.0, value_lo=0.0,
                                         breakpoints=(1.0, 2.5),
                                         slopes=(0.0, 1.0, 0.88))
        xs = np.linspace(0.0, 12.0, 1000)
        direct = _s_shape(payoff.value(xs), 0.0, 0.5)
        built = contract_utility.value(xs)
        assert np.allclose(built, direct, rtol=1e-12, atol=1e-12)

    def test_phara_preference_compose(self):
        pref = crra_utility(0.5)
        payoff = piecewise_linear_payoff(a0=0.0, value_lo=0.1,
                                         breakpoints=(2.0,), slopes=(0.5, 2.0))
        u = compose(pref, payoff)
        xs = np.linspace(0.0, 8.0, 400)
        direct = pref.value(payoff.value(xs))
        assert np.allclose(u.value(xs), direct, rtol=1e-12)

    @pytest.mark.parametrize("slope", [1e9, 1e12])
    def test_steep_payoff_compose(self, slope):
        # the second cell's benchmark 1 - 1.5/slope sits within 1/slope of the
        # cell start 1, where the anchor is: its rounding must not reach the
        # template.  Points from 1 + 1e-6 on: nearer the start one ulp of x
        # moves the payoff by slope ulp(1), and the value by more than the bound
        pref = crra_utility(0.5)
        payoff = piecewise_linear_payoff(a0=0.0, value_lo=1.0,
                                         breakpoints=(1.0,), slopes=(0.5, slope))
        u = compose(pref, payoff)
        xs = np.r_[np.linspace(0.0, 0.999, 40), 1.0 + np.geomspace(1e-6, 1e3, 46)]
        direct = pref.value(payoff.value(xs))
        assert np.all(np.abs(u.value(xs) - direct)
                      <= 1e-10 * np.maximum(1.0, np.abs(direct)))

    def test_loss_branch_is_convex(self):
        pref = s_shaped_utility(reference=1.0, gain_exponent=0.5, a0=0.0,
                                loss_weight=2.25)
        payoff = piecewise_linear_payoff(a0=0.0, value_lo=0.0,
                                         breakpoints=(), slopes=(1.0,))
        u = compose(pref, payoff)
        assert [p.a_lo for p in u.pieces] == [0.0, 1.0]
        assert u.pieces[0].convex
        xs = np.linspace(0.0, 3.0, 300)
        direct = _s_shape(xs, 1.0, 0.5, lam=2.25)
        assert np.allclose(u.value(xs), direct, rtol=1e-12, atol=1e-12)

    def test_payoff_values_property(self):
        payoff = piecewise_linear_payoff(a0=0.0, value_lo=0.0,
                                         breakpoints=(1.0, 2.5),
                                         slopes=(0.0, 1.0, 0.88))
        # one linear piece per cell, valued at each breakpoint by the one before
        assert [p.R for p in payoff.pieces] == [0.0] * 3
        assert [p.value_lo for p in payoff.pieces] == pytest.approx((0.0, 0.0, 1.5))

    def test_payoff_below_preference_domain(self):
        pref = crra_utility(0.5)  # domain [0, inf)
        payoff = piecewise_linear_payoff(a0=0.0, value_lo=-1.0,
                                         breakpoints=(), slopes=(1.0,))
        with pytest.raises(OutOfDomain):
            compose(pref, payoff)
        with pytest.raises(OutOfDomain):
            compose(pref, piecewise_linear_payoff(a0=-1.0, value_lo=-1.0,
                                                  breakpoints=(), slopes=(1.0,)))

    @pytest.mark.parametrize("R, floor_value", [(0.5, 0.0), (2.0, NEG_INF)])
    def test_payoff_floor_at_the_preference_floor(self, R, floor_value):
        # a payoff whose floor value is the preference's a0 composes, with
        # U(floor) the preference's value there, finite or -inf
        pref = crra_utility(R)
        payoff = piecewise_linear_payoff(a0=1.0, value_lo=0.0,
                                         breakpoints=(2.0,), slopes=(1.0, 0.5))
        u = compose(pref, payoff)
        assert u.a0 == 1.0 and u.value(1.0) == floor_value
        xs = np.linspace(1.0, 12.0, 111)[1:]
        direct = pref.value(payoff.value(xs))
        assert np.all(np.abs(u.value(xs) - direct)
                      <= 1e-12 * np.maximum(1.0, np.abs(direct)))

    def test_preference_branch_anchored_at_cell_end(self, demo_utility):
        # the cell [20, 40) has its benchmark at its left end, so it is
        # anchored at 40, where the preference's next piece has another slope
        payoff = piecewise_linear_payoff(a0=5.0, value_lo=5.0,
                                         breakpoints=(), slopes=(1.0,))
        u = compose(demo_utility, payoff)
        assert u.a0 == 5.0
        assert [p.a_lo for p in u.pieces] == [5.0, 8.96, 12.0, 20.0, 40.0]
        xs = np.linspace(5.0, 80.0, 751)
        direct = demo_utility.value(xs)
        assert np.all(np.abs(u.value(xs) - direct)
                      <= 1e-12 * np.maximum(1.0, np.abs(direct)))

    def test_flat_payoff_at_an_infinite_preference_value(self):
        # log x on [0, inf): U(0) = -inf, so a payoff flat at 0 has no
        # finite utility
        log = PharaPiece(a_lo=0.0, a_hi=INF, R=1.0, A=0.0, anchor_x=1.0,
                         anchor_u=0.0, anchor_slope=1.0)
        pref = PharaUtility(a0=0.0, pieces=(log,))
        payoff = piecewise_linear_payoff(a0=0.0, value_lo=0.0,
                                         breakpoints=(1.0,), slopes=(0.0, 1.0))
        with pytest.raises(NotPhara, match="flat payoff"):
            compose(pref, payoff)

    def test_cell_that_cannot_be_built_names_itself(self):
        # from payoff value 4.7e10 the CARA slope e^(-2.4 w) underflows to 0,
        # which no exponential piece admits: the error names the cell
        payoff = piecewise_linear_payoff(0.0, -1.0, (1.0,), (1.0, 4.7e10))
        with pytest.raises(IllegalCase, match=r"composed cell \[2\.0, inf\), payoff value "
                           r"47000000000\.0 at its left end: non-linear piece needs"):
            compose(cara_utility(2.4, -10.0), piecewise_linear_payoff(
                0.0, -1.0, (1.0, 2.0), (1.0, 4.7e10, 1.0)))
        assert compose(cara_utility(2.4, -10.0), payoff).pieces[-1].value_lo < 0.0

    def test_composition_check_rejects_a_wrong_branch(self):
        # the pointwise check behind compose: a cell off by 1e-6 fails it
        pref = crra_utility(0.5)
        payoff = piecewise_linear_payoff(a0=1.0, value_lo=1.0,
                                         breakpoints=(), slopes=(1.0,))
        u = compose(pref, payoff)
        _verify_composition(u, pref, payoff)
        with pytest.raises(NotPhara, match="does not reduce"):
            _verify_composition(u, scale_shift(pref, 1.0, 1e-6), payoff)

    def test_payoff_validation(self):
        # the pieces validate the partition, the floor value and the slopes
        nan = float("nan")
        for a0, value_lo, breakpoints, slopes in (
                (0.0, 0.0, (2.0, 1.0), (1, 1, 1)),     # breakpoints decrease
                (0.0, 0.0, (1.0, 1.0), (1, 1, 1)),     # a breakpoint twice
                (1.0, 0.0, (1.0,), (1, 1)),            # a breakpoint at the floor
                (1.0, 0.0, (0.5,), (1, 1)),            # a breakpoint below the floor
                (0.0, 0.0, (nan,), (1, 1)), (0.0, 0.0, (INF,), (1, 1)),
                (nan, 0.0, (1.0,), (1, 1)), (INF, 0.0, (), (1,)), (NEG_INF, 0.0, (), (1,)),
                (0.0, nan, (), (1,)), (0.0, INF, (), (1,)),
                (0.0, 0.0, (1.0,), (1.0, -0.2)), (0.0, 0.0, (1.0,), (nan, 1.0)),
                (0.0, 0.0, (), (INF,)), (0.0, 0.0, (10.0,), (1e308, 1.0))):
            with pytest.raises(IllegalCase):
                piecewise_linear_payoff(a0, value_lo, breakpoints, slopes)
        with pytest.raises(IllegalCase, match="need 2 slopes, got 1"):
            piecewise_linear_payoff(a0=0.0, value_lo=0.0,
                                    breakpoints=(1.0,), slopes=(1.0,))

    def test_curved_payoff_rejected(self):
        # a payoff is composed piece by piece as an affine map: a power piece is not
        with pytest.raises(NotPhara, match="payoff piece 0 .* not linear"):
            compose(crra_utility(0.5), crra_utility(0.5, a0=1.0))
        line = piecewise_linear_payoff(a0=0.0, value_lo=0.0, breakpoints=(), slopes=(1.0,))
        bent = PharaUtility(a0=0.0, pieces=(line.pieces[0].restrict(0.0, 1.0),
                                            crra_utility(0.5).pieces[0].restrict(1.0, INF)))
        with pytest.raises(NotPhara, match="payoff piece 1 on \\[1.0, inf\\)"):
            compose(crra_utility(0.5), bent)


class TestValidation:
    def test_benchmark_inside_cell_rejected(self):
        with pytest.raises(IllegalCase):
            PharaPiece(a_lo=0.0, a_hi=2.0, R=0.5, A=1.0, anchor_x=0.0,
                       anchor_u=0.0, anchor_slope=1.0)

    def test_partition_gap_rejected(self):
        p1 = PharaPiece(a_lo=0.0, a_hi=1.0, R=0.0, anchor_x=0.0,
                        anchor_u=0.0, anchor_slope=1.0)
        p2 = PharaPiece(a_lo=1.5, a_hi=INF, R=0.5, A=0.0, anchor_x=2.0,
                        anchor_u=2.0, anchor_slope=0.5)
        with pytest.raises(IllegalCase):
            PharaUtility(a0=0.0, pieces=(p1, p2))

    def test_decreasing_jump_rejected(self):
        p1 = PharaPiece(a_lo=0.0, a_hi=1.0, R=0.0, anchor_x=0.0,
                        anchor_u=0.0, anchor_slope=1.0)
        p2 = PharaPiece(a_lo=1.0, a_hi=INF, R=0.5, A=0.0, anchor_x=1.0,
                        anchor_u=-1.0, anchor_slope=0.5)
        with pytest.raises(IllegalCase):
            PharaUtility(a0=0.0, pieces=(p1, p2))

    def test_structure_rejected(self):
        line = PharaPiece(a_lo=0.0, a_hi=1.0, R=0.0, anchor_x=0.0,
                          anchor_u=0.0, anchor_slope=1.0)
        tail = PharaPiece(a_lo=1.0, a_hi=INF, R=0.5, A=0.0, anchor_x=1.0,
                          anchor_u=1.0, anchor_slope=0.5)
        # a convex log branch whose benchmark is its right end: +inf there
        spike = PharaPiece(a_lo=0.0, a_hi=1.0, R=1.0, A=1.0, anchor_x=0.0,
                           anchor_u=0.0, anchor_slope=1.0)
        assert spike.value_hi == INF
        for a0, pieces in ((0.0, ()), (-1.0, (line, tail)), (0.0, (line,)),
                           (0.0, (spike, tail))):
            with pytest.raises(IllegalCase):
                PharaUtility(a0=a0, pieces=pieces)

    def test_single_piece_accepted(self):
        # one global cell is fine: every kink weight downstream vanishes
        u = crra_utility(0.8)
        assert len(u.pieces) == 1


class TestSShaped:
    def test_matches_formula(self):
        # a0 below, at and above the reference point
        for a0 in (-2.0, 1.0, 3.5):
            for q, lam in ((None, 1.0), (0.3, 2.25)):
                u = s_shaped_utility(reference=1.0, gain_exponent=0.6, a0=a0,
                                     loss_exponent=q, loss_weight=lam)
                assert u.a0 == a0 and np.isfinite(u.value(a0))
                assert len(u.pieces) == (2 if a0 < 1.0 else 1)
                xs = a0 + np.linspace(0.0, 10.0, 501)
                direct = _s_shape(xs, 1.0, 0.6, q, lam)
                assert np.all(np.abs(u.value(xs) - direct)
                              <= 1e-12 * np.maximum(1.0, np.abs(direct)))

    def test_illegal_parameters(self):
        for kwargs in (dict(gain_exponent=0.0), dict(gain_exponent=1.0),
                       dict(gain_exponent=1.5), dict(gain_exponent=float("nan")),
                       dict(loss_exponent=0.0), dict(loss_exponent=1.2),
                       dict(loss_weight=0.0), dict(loss_weight=-1.0)):
            args = {**dict(reference=0.0, gain_exponent=0.5, a0=-1.0), **kwargs}
            with pytest.raises(IllegalCase):
                s_shaped_utility(**args)


@st.composite
def _payoffs(draw, a0: float) -> PharaUtility:
    """0-2 breakpoints, flat or rising slopes, floor value at or above a0."""
    n = draw(st.integers(0, 2))
    lo = draw(st.floats(-3.0, 3.0))
    gaps = draw(st.lists(st.floats(0.1, 5.0), min_size=n, max_size=n))
    lift = draw(st.one_of(st.just(0.0), st.floats(0.0, 5.0)))
    slopes = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.05, 3.0)),
                           min_size=n + 1, max_size=n + 1))
    return piecewise_linear_payoff(a0=lo, value_lo=a0 + lift,
                                   breakpoints=tuple(lo + np.cumsum(gaps)),
                                   slopes=tuple(slopes))


@given(st.integers(0, 2**32 - 1), st.booleans(), st.data())
def test_compose_properties(seed, raw, data):
    pref = random_raw_utility(seed) if raw else random_concave_envelope(seed)
    payoff = data.draw(_payoffs(pref.a0))
    u = compose(pref, payoff)
    for piece in u.pieces:
        hi = piece.a_hi if math.isfinite(piece.a_hi) else piece.a_lo + 20.0
        xs = piece.a_lo + (hi - piece.a_lo) * np.array([0.05, 0.3, 0.5, 0.7, 0.95])
        built = u.value(xs)
        direct = pref.value(payoff.value(xs))
        assert np.all(np.abs(built - direct)
                      <= 1e-10 * np.maximum(1.0, np.abs(built)))
