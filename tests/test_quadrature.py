"""Quadrature module tests.

Closed antiderivatives worked out by hand serve as oracles; scipy's
QUADPACK provides an independent second route for spot checks.
"""

import dataclasses
import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from mrlai import quadrature
from mrlai.ageing import mrl
from mrlai.distributions import (
    Convolution,
    Exponential,
    MrlPiecewise,
    PieceLinear,
    Uniform,
    build,
)
from mrlai.errors import Divergence, DomainError, GridError, NonConvergence
from mrlai.quadrature import (
    QuadConfig,
    cheb_sweep,
    cumulative_on_grid,
    integrate_finite,
    integrate_tail,
)

CFG = QuadConfig()


class TestFinite:
    def test_polynomial(self):
        assert integrate_finite(lambda x: x, 0.0, 1.0) == pytest.approx(0.5, abs=1e-12)

    def test_empty_interval(self):
        assert integrate_finite(lambda x: 1 / (x - 2), 2.0, 2.0) == 0.0

    def test_reversed_interval_rejected(self):
        with pytest.raises(ValueError):
            integrate_finite(lambda x: x, 1.0, 0.0)

    def test_rational_integrand(self):
        # antiderivative t/2 + ln(2t+1)/4, evaluated by hand
        got = integrate_finite(lambda u: (u + 1) / (2 * u + 1), 0.0, 0.5)
        assert got == pytest.approx(0.25 + math.log(2.0) / 4.0, rel=1e-10)
        assert got == pytest.approx(0.4232867951, abs=5e-11)

    def test_endpoint_singularity(self):
        # 1/sqrt(x) on (0, 1] integrates to 2; endpoints are never sampled
        got = integrate_finite(lambda x: 1.0 / math.sqrt(x), 0.0, 1.0)
        assert got == pytest.approx(2.0, rel=1e-8)

    def test_against_quadpack(self):
        funcs = [
            (lambda x: math.exp(-x) * math.sin(3 * x), 0.0, 5.0),
            (lambda x: 1.0 / (1.0 + x * x), -2.0, 7.0),
            (lambda x: x**3 - 2 * x + 1, -1.0, 2.5),
        ]
        for f, a, b in funcs:
            want, _ = quad(f, a, b, epsabs=1e-13, epsrel=1e-13)
            assert integrate_finite(f, a, b) == pytest.approx(want, rel=1e-9, abs=1e-11)

    def test_nan_is_hard_error(self):
        def bad(x):
            return math.nan if 0.4 < x < 0.6 else x

        with pytest.raises(DomainError):
            integrate_finite(bad, 0.0, 1.0)

    def test_max_depth_exhaustion(self):
        cfg = QuadConfig(abs_tol=1e-16, rel_tol=1e-16, max_depth=10)
        with pytest.raises(NonConvergence):
            integrate_finite(lambda x: 1.0 / math.sqrt(abs(x - 0.3)), 0.0, 1.0, cfg)

    def test_divergent_finite(self):
        with pytest.raises((Divergence, NonConvergence)):
            integrate_finite(lambda x: 1.0 / x, 0.0, 1.0)


class TestPoints:
    # float.hex of integrate_finite(f, a, b) from the single-panel start
    # that predates ``points``; an empty or all-ignored ``points`` must
    # reproduce them bit for bit
    GOLDEN = [
        (lambda x: math.exp(-x) * math.sin(3 * x), 0.0, 5.0, "0x1.3452e48830051p-2"),
        (lambda x: abs(x - 0.3), 0.0, 1.0, "0x1.28f5c29163524p-2"),
        (lambda x: 1.0 if x < 0.37 else 0.25, 0.0, 1.0, "0x1.0e147ae096cdbp-1"),
        (lambda x: math.sqrt(x), 0.0, 2.0, "0x1.e2b7dde1129fcp+0"),
    ]

    @pytest.mark.parametrize("case", range(len(GOLDEN)))
    def test_no_points_is_bit_identical(self, case):
        f, a, b, want = self.GOLDEN[case]
        assert integrate_finite(f, a, b).hex() == want
        assert integrate_finite(f, a, b, points=()).hex() == want

    @pytest.mark.parametrize(
        "points", [(-1.0, 7.5), (0.0, 1.0), (1.0, 0.0, 1.0, 0.0), (2.0, 0.0, -3.0, 1.0)]
    )
    def test_points_outside_or_at_the_ends_are_ignored(self, points):
        for f, a, b, want in self.GOLDEN[1:3]:
            assert integrate_finite(f, a, b, points=points).hex() == want

    def test_repeated_points_count_once(self):
        f = lambda x: abs(x - 0.3)
        once = integrate_finite(f, 0.0, 1.0, points=(0.3,))
        assert integrate_finite(f, 0.0, 1.0, points=(0.3, 0.3, 0.3)) == once
        assert integrate_finite(f, 0.0, 1.0, points=[0.3, 1.5, 0.3]) == once

    @pytest.mark.parametrize("c", [0.37, 1.0 / 3.0, 0.9, 2.2])
    def test_kinks_and_steps_match_quadpack(self, c):
        for f in (lambda x: abs(x - c), lambda x: 1.0 if x < c else 0.25 * x):
            want, _ = quad(f, 0.0, 2.5, points=[c], epsabs=1e-13, epsrel=1e-12)
            got = integrate_finite(f, 0.0, 2.5, points=(c,))
            assert got == pytest.approx(want, rel=1e-12, abs=1e-13)

    def test_several_points_match_quadpack(self):
        cs = (0.2, 0.55, 1.3)
        f = lambda x: abs(x - 0.2) + (1.0 if x < 0.55 else -0.5) * abs(x - 1.3)
        want, _ = quad(f, 0.0, 2.0, points=list(cs), epsabs=1e-13, epsrel=1e-12)
        assert integrate_finite(f, 0.0, 2.0, points=cs[::-1]) == pytest.approx(want, rel=1e-12)

    def test_a_known_step_needs_no_bisection(self):
        calls = [0]

        def step(x):
            calls[0] += 1
            return 1.0 if x < 0.37 else 0.25

        integrate_finite(step, 0.0, 1.0, points=(0.37,))
        # two seeded panels of 31 Fejer nodes each, both accepted at once
        assert calls[0] == 2 * 31
        calls[0] = 0
        integrate_finite(step, 0.0, 1.0)
        assert calls[0] > 10 * 90

    def test_interior_cusp(self):
        # an infinite slope at 0.3 becomes an endpoint feature of two panels
        f = lambda x: math.sqrt(abs(x - 0.3))
        got = integrate_finite(f, 0.0, 1.0, points=(0.3,))
        assert got == pytest.approx((0.3**1.5 + 0.7**1.5) / 1.5, rel=1e-9)

    def test_checks_still_apply(self):
        with pytest.raises(DomainError):
            integrate_finite(lambda x: math.nan if x > 0.6 else x, 0.0, 1.0, points=(0.5,))
        cfg = QuadConfig(abs_tol=1e-16, rel_tol=1e-16, max_depth=10)
        with pytest.raises(NonConvergence, match="max_depth 10"):
            integrate_finite(lambda x: 1.0 / math.sqrt(abs(x - 0.3)), 0.0, 1.0, cfg, (0.5,))
        with pytest.raises((Divergence, NonConvergence)):
            integrate_finite(lambda x: 1.0 / x, 0.0, 1.0, points=(0.5,))


class TestTail:
    def test_unit_exponential(self):
        assert integrate_tail(lambda u: math.exp(-u), 0.0) == pytest.approx(1.0, rel=1e-10)

    def test_power_law(self):
        assert integrate_tail(lambda u: u**-2.0, 1.0) == pytest.approx(1.0, rel=1e-10)

    def test_shifted_exponential(self):
        got = integrate_tail(lambda u: math.exp(-2 * u), 1.0)
        assert got == pytest.approx(math.exp(-2.0) / 2.0, rel=1e-10)

    # x^-3 from 0 grows past the divergence bound before a float overflows
    @pytest.mark.parametrize("f, a", [(lambda u: 1.0 / u, 1.0), (lambda u: u**-3.0, 0.0)])
    def test_divergent_tail_flagged(self, f, a):
        with pytest.raises(Divergence):
            integrate_tail(f, a)

    @pytest.mark.parametrize("T", [0.5, 2.0, 7.3])
    def test_tail_consistency(self, T):
        f = lambda u: (1.0 + u) * math.exp(-u)
        whole = integrate_tail(f, 0.0)
        split = integrate_finite(f, 0.0, T) + integrate_tail(f, T)
        assert whole == pytest.approx(split, rel=1e-9)


def _within_tolerance(got, want):
    return abs(got - want) <= max(CFG.abs_tol, CFG.rel_tol * abs(want))


def _count_evals(monkeypatch):
    """A list whose length counts every integrand evaluation from here on."""
    calls = []
    real = quadrature._eval
    monkeypatch.setattr(quadrature, "_eval", lambda f, x: calls.append(x) or real(f, x))
    return calls


class TestExpSinhRule:
    """The exp-sinh rule against closed forms and mpmath, and its cost."""

    @pytest.mark.parametrize("rate", [1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 1e3])
    @pytest.mark.parametrize("offset", [0.0, 1.0, 30.0])
    def test_exponential_rates(self, rate, offset):
        a = offset / rate
        got = integrate_tail(lambda x: math.exp(-rate * x), a)
        assert _within_tolerance(got, math.exp(-offset) / rate)

    @pytest.mark.parametrize("shape", [1.2, 1.5, 2.0, 3.0, 5.0])
    @pytest.mark.parametrize("t", [1.0, 4.0])
    def test_pareto_shapes(self, shape, t):
        # int_t^inf (1/x)^shape dx = t^(1 - shape) / (shape - 1)
        got = integrate_tail(lambda x: (1.0 / x) ** shape, t)
        assert _within_tolerance(got, t ** (1.0 - shape) / (shape - 1.0))

    @pytest.mark.parametrize("shape", [0.3, 0.6, 1.2, 2.4, 4.5, 6.0])
    @pytest.mark.parametrize("t", [0.0, 0.5, 2.0, 5.0])
    def test_weibull_shapes(self, shape, t):
        # int_t^inf exp(-(x/b)^k) dx = (b/k) Gamma(1/k, (t/b)^k), b = 2
        with mpmath.workdps(30):
            k = mpmath.mpf(shape)
            want = float(2 / k * mpmath.gammainc(1 / k, (mpmath.mpf(t) / 2) ** k))
        got = integrate_tail(lambda x: math.exp(-((x / 2.0) ** shape)), t)
        assert _within_tolerance(got, want)

    def test_mass_next_to_the_lower_limit(self):
        # S = exp(-x^5) from 3.6 is 1e-263 and gone within 1e-3 of a: the
        # sweeps must find the mass left of every zero term at a + 1
        s = math.exp(-(3.6**5))
        cfg = QuadConfig(abs_tol=1e-10 * s)
        with mpmath.workdps(30):
            want = float(mpmath.gammainc(mpmath.mpf(1) / 5, mpmath.mpf("3.6") ** 5) / 5)
        got = integrate_tail(lambda x: math.exp(-(x**5)), 3.6, cfg)
        assert got == pytest.approx(want, rel=1e-9)

    def test_slow_power_tail_settles_through_the_fallback(self):
        f = lambda x: x**-1.05
        with pytest.raises(NonConvergence, match="do not decay"):
            quadrature._exp_sinh(f, 1.0, CFG)
        assert integrate_tail(f, 1.0) == pytest.approx(20.0, rel=1e-9)

    @pytest.mark.parametrize("t", [0.0, 0.3, 2.0, 7.0, 20.0])
    def test_divergence_is_found_before_the_fallback(self, t, monkeypatch):
        # mu = t - 0.5 from 1 on: T decays like 1/t, so D diverges, and the
        # decay probe says so before the stretched Fejer pass can spend its
        # panel budget; from below the kink at 1 the finite part up to it
        # costs 31 of the 38 evaluations
        d = build(MrlPiecewise((1.0,), (PieceLinear(0.5, 0.0), PieceLinear(-0.5, 1.0))))
        calls = _count_evals(monkeypatch)
        with pytest.raises(Divergence, match="double tail"):
            d._quadrature_view.double_tail(t)
        assert len(calls) <= 40

    # exact evaluation counts; the u/(1-u) Fejer substitution that the rule
    # replaced spent 217, 465, 31, 1,395 and 403 on the tails, and 3,007,
    # 2,015, 14,725 and 13,733 on the sums
    TAILS = {
        "exp(-x) from 0": (lambda x: math.exp(-x), 0.0, CFG, 94),
        "exp(-1000x) from 0": (lambda x: math.exp(-1e3 * x), 0.0, CFG, 110),
        "x^-2 from 1": (lambda x: x**-2.0, 1.0, CFG, 63),
        "exp(-x^0.3) from 0": (lambda x: math.exp(-(x**0.3)), 0.0, CFG, 219),
        "exp(-x^5) from 3.6": (
            lambda x: math.exp(-(x**5)), 3.6, QuadConfig(abs_tol=1e-10 * math.exp(-(3.6**5))), 84
        ),
    }

    @pytest.mark.parametrize("name", sorted(TAILS))
    def test_tail_evaluation_counts(self, name, monkeypatch):
        f, a, cfg, want = self.TAILS[name]
        calls = _count_evals(monkeypatch)
        integrate_tail(f, a, cfg)
        assert len(calls) == want

    # the mrl counts read S(t) once, for both the quotient and the
    # tolerance of the tail integral
    U01 = Uniform(0.0, 1.0)
    SUMS = {
        "U+U mrl(0.37)": (Convolution((U01, U01)), "mrl", 0.37, 2015),
        "U+U tail(1.71)": (Convolution((U01, U01)), "tail", 1.71, 1023),
        "E+U mrl(0.61)": (Convolution((Exponential(1.0), U01)), "mrl", 0.61, 3935),
        "E+U tail(1.13)": (Convolution((Exponential(1.0), U01)), "tail", 1.13, 2943),
    }

    @pytest.mark.parametrize("name", sorted(SUMS))
    def test_kinked_sum_evaluation_counts(self, name, monkeypatch):
        spec, what, t, want = self.SUMS[name]
        d = build(spec)
        calls = _count_evals(monkeypatch)
        mrl(d, t) if what == "mrl" else d.tail(t)
        assert len(calls) == want


class TestProperties:
    @given(
        st.floats(-3, 3),
        st.floats(-3, 3),
        st.floats(0.1, 4.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_additivity(self, a, span1, span2):
        b = a + abs(span1)
        c = b + abs(span2)
        f = lambda x: math.cos(x) + 0.3 * x
        whole = integrate_finite(f, a, c)
        parts = integrate_finite(f, a, b) + integrate_finite(f, b, c)
        assert abs(whole - parts) <= 3 * CFG.abs_tol + 1e-9 * abs(whole)

    @given(st.floats(-5, 5), st.floats(-5, 5))
    @settings(max_examples=40, deadline=None)
    def test_linearity(self, alpha, beta):
        f = lambda x: math.exp(-x)
        g = lambda x: x * x
        combo = integrate_finite(lambda x: alpha * f(x) + beta * g(x), 0.0, 2.0)
        i_f = integrate_finite(f, 0.0, 2.0)
        i_g = integrate_finite(g, 0.0, 2.0)
        assert combo == pytest.approx(alpha * i_f + beta * i_g, abs=1e-8, rel=1e-9)


class TestCumulative:
    def test_constant(self):
        table = cumulative_on_grid(lambda u: 1.0, [1.0, 2.0, 3.0])
        assert list(table.values) == pytest.approx([1.0, 2.0, 3.0], abs=1e-12)

    def test_identity(self):
        table = cumulative_on_grid(lambda u: u, [1.0, 2.0])
        assert list(table.values) == pytest.approx([0.5, 2.0], abs=1e-11)

    def test_rational(self):
        anti = lambda t: t / 2.0 + math.log(2 * t + 1) / 4.0
        table = cumulative_on_grid(lambda u: (u + 1) / (2 * u + 1), [0.5, 2.0])
        assert table.values[0] == pytest.approx(anti(0.5), rel=1e-10)
        assert table.values[1] == pytest.approx(anti(2.0), rel=1e-10)
        assert table.values[1] == pytest.approx(1.4023595, abs=5e-8)

    def test_additivity_of_table(self):
        grid = [0.5, 1.0, 1.7, 2.4]
        f = lambda u: math.exp(-u) * (1 + u)
        table = cumulative_on_grid(f, grid)
        for i in range(len(grid) - 1):
            panel = integrate_finite(f, grid[i], grid[i + 1])
            assert table.values[i + 1] - table.values[i] == pytest.approx(
                panel, abs=2 * CFG.abs_tol
            )

    def test_bad_grid_rejected(self):
        # repeated, decreasing, empty and below the origin: a GridError,
        # which is also a ValueError
        for grid in ([1.0, 1.0], [1.0, 0.5], [], [-1.0, 1.0]):
            with pytest.raises(ValueError) as excinfo:
                cumulative_on_grid(lambda u: 1.0, grid)
            assert excinfo.type is GridError

    def test_error_carries_panel_index(self):
        def bad(u):
            return math.nan if u > 1.5 else 1.0

        with pytest.raises(DomainError, match="panel 1"):
            cumulative_on_grid(bad, [1.0, 2.0])


class TestChebSweep:
    def test_nodes_tails_and_integrals(self):
        knots = [0.0, 0.5, 1.3, 2.0]
        panels = list(cheb_sweep(math.exp, knots))
        assert panels[0].b == 2.0 and panels[-1].a == 0.0
        assert all(p.a >= q.b for p, q in zip(panels[:-1], panels[1:]))  # right to left
        for p in panels:
            assert p.xs[0] == p.b and p.xs[-1] == p.a
            for x, tail in zip(p.xs, p.tails):
                assert tail == pytest.approx(math.exp(2.0) - math.exp(x), rel=1e-14, abs=1e-14)
        assert sum(p.integral for p in panels) == pytest.approx(math.exp(2.0) - 1.0, rel=1e-14)

    def test_polynomial_in_one_panel(self):
        (panel,) = cheb_sweep(lambda x: 3 * x * x, [1.0, 2.0])
        assert panel.integral == pytest.approx(7.0, rel=1e-15)

    @pytest.mark.parametrize(
        "f, exact",
        [
            (lambda x: abs(x - 0.3), 0.045 + 0.245),  # a kink
            (lambda x: x**0.6, 1.0 / 1.6),  # an endpoint singularity of f'
            (lambda x: 1.0 if x < 0.3 else 1.0 + 2e-6, 1.0 + 1.4e-6),  # a tiny jump
        ],
        ids=["kink", "root", "jump"],
    )
    def test_width_weighted_estimate_terminates(self, f, exact):
        total = sum(p.integral for p in cheb_sweep(f, [0.0, 1.0]))
        assert total == pytest.approx(exact, abs=1e-9)

    def test_resolve_hook_is_refined_too(self):
        # f is a constant, but the derived values have a kink at 0.5
        kinked = lambda p: [abs(x - 0.5) for x in p.xs]
        panels = list(cheb_sweep(lambda x: 1.0, [0.0, 1.0], resolve=kinked))
        assert len(panels) > 1
        assert sum(p.g_integral for p in panels) == pytest.approx(0.25, abs=1e-9)

    def test_nan_is_hard_error(self):
        with pytest.raises(DomainError):
            list(cheb_sweep(lambda x: math.nan if x > 0.7 else 1.0, [0.0, 1.0]))

    def test_max_depth_exhaustion(self):
        with pytest.raises(NonConvergence):
            step = lambda x: 0.0 if x < 1.0 / 3.0 else 1.0
            list(cheb_sweep(step, [0.0, 1.0], QuadConfig(max_depth=10)))

    def test_splits_at_points_do_not_spend_max_depth(self):
        # a ripple of 1e-12 meets the integral test but never the chopping
        # test, so the panels split at the points down to one per interval:
        # about 11 halvings of 1,200 intervals, under a max_depth of 10
        f = lambda x: 1.0 + 1e-12 * math.sin(1e5 * x)
        pts = [i / 1200 for i in range(1201)]
        vals, seg = quadrature._integrate_knots(f, [0.0, 1.0], QuadConfig(max_depth=10), points=pts)
        assert vals == list(map(f, pts))
        assert math.fsum(seg) == pytest.approx(1.0, rel=1e-12)


class TestConfig:
    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            QuadConfig(abs_tol=0.0)
        with pytest.raises(ValueError):
            QuadConfig(rel_tol=-1.0)
        with pytest.raises(ValueError):
            QuadConfig(max_depth=5)

    def test_settable_fields(self):
        assert [f.name for f in dataclasses.fields(QuadConfig)] == [
            "abs_tol", "rel_tol", "max_depth",
        ]

    def test_divergence_bound_is_fixed(self):
        with pytest.raises(Divergence, match=r"exceeded divergence bound 1e\+15"):
            integrate_finite(lambda x: 1.0 / (x * x), 0.0, 1.0)
