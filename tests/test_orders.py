"""Stochastic-order checks: examples, axioms, and the ratio equivalence."""

import math
import random
from dataclasses import replace

import pytest

from mrlai.ageing import Convention, mrl, profile
from mrlai.classify import Grid
from mrlai.distributions import (
    Erlang,
    Exponential,
    MrlExponential,
    MrlLinear,
    MrlPiecewise,
    MrlReciprocalLinear,
    Pareto,
    PieceSqrtAffine,
    Uniform,
    Weibull,
    build,
)
from mrlai.errors import BeyondSupport, GridError, UnsupportedCapability
from mrlai.ops import convolution, order_statistic, parallel, scale
from mrlai.orders import (
    Relation,
    check_scale_preservation,
    icx_order,
    linear_mrl_order,
    lr_order,
    mrl_order,
    mrlai_order,
    ratio_test,
    sufficient_conditions,
    vrl_order,
    weibull_rule,
)

ZERO = Convention.ZERO
FORMAL = Convention.FORMAL


def ts(lo, hi, n=64):
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def scale_preservation(X, Y, grid):
    return check_scale_preservation(X, Y, 2.0, grid)


# every check that takes a grid: those that read profiles, then the rest
PROFILE_ORDERS = (mrlai_order, ratio_test, mrl_order, sufficient_conditions, scale_preservation)
GRID_ORDERS = PROFILE_ORDERS + (lr_order, icx_order, vrl_order)


class TestMrlaiOrder:
    def test_exponential_below_pareto(self):
        X, Y = build(Exponential(0.5)), build(Pareto(2.0, 1.0))
        v = mrlai_order(X, Y, ts(0.1, 30.0), FORMAL)
        assert v.relation is Relation.HOLDS

    def test_reflexive(self):
        X = build(Erlang(2, 2.0))
        assert mrlai_order(X, X, ts(0.1, 10.0)).relation is Relation.HOLDS

    def test_erlang_pair_fails_with_witness(self):
        X, Y = build(Erlang(2, 3.0)), build(Erlang(2, 2.0))
        v = mrlai_order(X, Y, ts(0.05, 8.0, 100))
        assert v.relation is Relation.FAILS
        assert v.witness is not None
        assert v.witness.lhs > v.witness.rhs

    def test_inconclusive_on_degenerate_grid(self):
        X = build(Exponential(1.0))
        assert mrlai_order(X, X, [1.0]).relation is Relation.INCONCLUSIVE


class TestRatioTest:
    def test_printed_ratio_values(self):
        X, Y = build(Erlang(2, 3.0)), build(Erlang(2, 2.0))
        gx = [v * t for v, t in zip(profile(X, [0.1, 1.5, 5.0]).mu_avg, [0.1, 1.5, 5.0])]
        gy = [v * t for v, t in zip(profile(Y, [0.1, 1.5, 5.0]).mu_avg, [0.1, 1.5, 5.0])]
        got = [a / b for a, b in zip(gx, gy)]
        assert got[0] == pytest.approx(0.6537420, abs=5e-7)
        assert got[1] == pytest.approx(0.6287006, abs=5e-7)
        assert got[2] == pytest.approx(0.6371185, abs=5e-7)
        assert ratio_test(X, Y, ts(0.05, 8.0, 100)).relation is Relation.FAILS

    def test_self_ratio_holds(self):
        X = build(Erlang(2, 2.0))
        assert ratio_test(X, X, ts(0.1, 10.0)).relation is Relation.HOLDS

    def test_exponential_vs_pareto_holds(self):
        X, Y = build(Exponential(0.5)), build(Pareto(2.0, 1.0))
        assert ratio_test(X, Y, ts(0.1, 30.0), FORMAL).relation is Relation.HOLDS


class TestEquivalence:
    """The pointwise-intensity check and the running-integral ratio check
    must return identical relations."""

    CORPUS_PAIRS = [
        (Exponential(0.5), Pareto(2.0, 1.0), FORMAL, (0.1, 30.0)),
        (Exponential(2.0), Pareto(3.0, 1.0), FORMAL, (0.1, 20.0)),
        (Erlang(2, 3.0), Erlang(2, 2.0), ZERO, (0.05, 8.0)),
        (Erlang(2, 1.0), Exponential(2.0), ZERO, (0.05, 20.0)),
        (MrlPiecewise((), (PieceSqrtAffine(2.0, 2.0),)), Pareto(2.0, 1.0), FORMAL, (0.1, 50.0)),
    ]

    @pytest.mark.parametrize("i", range(len(CORPUS_PAIRS)))
    def test_on_corpus_pairs(self, i):
        sx, sy, conv, (lo, hi) = self.CORPUS_PAIRS[i]
        X, Y = build(sx), build(sy)
        grid = ts(lo, hi, 96)
        assert mrlai_order(X, Y, grid, conv).relation == ratio_test(X, Y, grid, conv).relation

    def _random_spec(self, rng):
        kind = rng.randrange(7)
        if kind == 0:
            return Exponential(rng.uniform(0.3, 3.0))
        if kind == 1:
            return Erlang(rng.randint(1, 3), rng.uniform(0.5, 3.0))
        if kind == 2:
            return Weibull(rng.uniform(0.7, 2.5), rng.uniform(0.5, 2.0))
        if kind == 3:
            return MrlLinear(rng.uniform(0.5, 2.0), rng.uniform(0.0, 3.0))
        if kind == 4:
            a = rng.uniform(0.8, 1.5)
            return MrlReciprocalLinear(a, rng.uniform(0.2, 0.9) * a * a)
        if kind == 5:
            return MrlExponential(rng.uniform(-0.3, 0.4), -rng.uniform(0.05, 0.3))
        return Pareto(rng.uniform(2.2, 4.0), rng.uniform(0.5, 1.5))

    def test_on_fifty_random_pairs(self):
        rng = random.Random(20240812)
        agreements = 0
        while agreements < 50:
            sx, sy = self._random_spec(rng), self._random_spec(rng)
            X, Y = build(sx), build(sy)
            lo = max(0.08, X.support[0] * 1.05, Y.support[0] * 1.05)
            hi = lo + 10.0
            grid = ts(lo, hi, 64)
            a = mrlai_order(X, Y, grid)
            b = ratio_test(X, Y, grid)
            assert a.relation == b.relation, f"{sx} vs {sy}: {a} != {b}"
            agreements += 1


class TestAxioms:
    def test_reflexivity_across_families(self):
        for spec in (Exponential(1.0), Erlang(2, 2.0), MrlLinear(1, 1)):
            X = build(spec)
            assert mrlai_order(X, X, ts(0.1, 9.0)).relation is Relation.HOLDS

    def test_transitivity(self):
        X, Y, Z = build(Erlang(2, 2.0)), build(Exponential(1.0)), build(MrlLinear(1, 1))
        grid = ts(0.05, 12.0, 96)
        assert mrlai_order(X, Y, grid).relation is Relation.HOLDS
        assert mrlai_order(Y, Z, grid).relation is Relation.HOLDS
        assert mrlai_order(X, Z, grid).relation is Relation.HOLDS

    def test_antisymmetry_gives_proportional_mrl(self):
        X, Y = build(Exponential(1.0)), build(Exponential(2.0))
        grid = ts(0.1, 10.0, 64)
        assert mrlai_order(X, Y, grid).relation is Relation.HOLDS
        assert mrlai_order(Y, X, grid).relation is Relation.HOLDS
        ratios = [mrl(X, t) / mrl(Y, t) for t in grid]
        assert max(ratios) - min(ratios) <= 1e-6 * abs(ratios[0])


class TestComparisonOrders:
    def test_lr_erlang_pair_holds(self):
        X, Y = build(Erlang(2, 3.0)), build(Erlang(2, 2.0))
        assert lr_order(X, Y, ts(0.05, 20.0, 100)).relation is Relation.HOLDS

    def test_lr_self_holds(self):
        X = build(Erlang(2, 2.0))
        assert lr_order(X, X, ts(0.1, 8.0)).relation is Relation.HOLDS

    def test_lr_exponentials_fails(self):
        X, Y = build(Exponential(1.0)), build(Exponential(2.0))
        # f_X/f_Y grows like e^t
        assert lr_order(X, Y, ts(0.1, 8.0)).relation is Relation.FAILS

    def test_lr_needs_densities(self):
        from mrlai.ops import convolution

        x = build(Weibull(1.5, 1.0))
        c = convolution(x, x, closed_forms=False)
        bare = type(c)(c.spec, c._survival, c.support)
        with pytest.raises(UnsupportedCapability):
            lr_order(bare, bare, ts(0.1, 2.0))

    def test_lr_one_usable_point_is_inconclusive(self):
        # f_X = 0 past 1, so only t = 0.5 has both densities positive
        X, Y = build(Uniform(0.0, 1.0)), build(Uniform(0.0, 2.0))
        assert lr_order(X, Y, [0.5, 1.5]).relation is Relation.INCONCLUSIVE

    @pytest.mark.parametrize(
        "x,grid,first",
        [(Uniform(0.0, 2.0), [0.5, 1.0, 1.5], 1.0), (Exponential(1.0), [0.5, 0.9, 1.5], 1.5)],
        ids=["uniform", "exponential"],
    )
    def test_vrl_where_the_second_double_tail_is_zero(self, x, grid, first):
        # D_Y = 0 from Y's support end on: the ratio is undefined, not a ZeroDivisionError
        with pytest.raises(BeyondSupport, match=rf"^uniform: double tail is 0 at t={first}, "):
            vrl_order(build(x), build(Uniform(0.0, 1.0)), grid)

    def test_icx_printed_counterexample(self):
        X, Y = build(Exponential(0.5)), build(Pareto(2.0, 1.0))
        v = icx_order(X, Y, ts(0.1, 30.0, 100), FORMAL)
        assert v.relation is Relation.FAILS
        assert 0.5 < v.witness.t < 3.0
        # the printed comparison point
        assert X.tail(1.5) == pytest.approx(0.9447331, abs=5e-8)
        assert Y.formal.tail(1.5) == pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_icx_self_and_dominated(self):
        X, Y = build(Exponential(2.0)), build(Exponential(1.0))
        assert icx_order(X, X, ts(0.1, 10.0)).relation is Relation.HOLDS
        assert icx_order(X, Y, ts(0.1, 10.0)).relation is Relation.HOLDS

    def test_icx_below_the_support_start(self):
        # S = 1 below 0, so the tails there are mean - t: 2 and 2.2 at t = -1
        X, Y = build(Exponential(1.0)), build(Weibull(1.0, 1.2))
        assert icx_order(X, Y, [-1.0, 0.5, 1.0]).relation is Relation.HOLDS

    def test_vrl_printed_counterexample(self):
        X, Y = build(Exponential(2.0)), build(Pareto(3.0, 1.0))
        v = vrl_order(X, Y, ts(0.05, 5.0), FORMAL)
        assert v.relation is Relation.FAILS

    def test_vrl_self_and_dominated(self):
        X, Y = build(Exponential(2.0)), build(Exponential(1.0))
        assert vrl_order(X, X, ts(0.1, 6.0, 32)).relation is Relation.HOLDS
        assert vrl_order(X, Y, ts(0.1, 6.0, 32)).relation is Relation.HOLDS

    def test_mrl_order_cases(self):
        X, Y = build(Exponential(2.0)), build(Exponential(1.0))
        assert mrl_order(X, X, ts(0.1, 10.0)).relation is Relation.HOLDS
        assert mrl_order(X, Y, ts(0.1, 10.0)).relation is Relation.HOLDS
        A, B = build(Exponential(0.5)), build(Pareto(2.0, 1.0))
        v = mrl_order(A, B, ts(0.1, 10.0, 100), FORMAL)
        assert v.relation is Relation.FAILS
        assert v.witness.t < 2.0  # constant 2 exceeds t below the crossing


class TestLinearMrlDeterminant:
    def test_ordered_pair_holds(self):
        assert linear_mrl_order(1.0, 0.1, 1.0, 8.0).relation is Relation.HOLDS

    def test_reversed_pair_fails(self):
        v = linear_mrl_order(1.0, 8.0, 1.0, 0.1)
        assert v.relation is Relation.FAILS
        assert v.witness is not None

    def test_equal_pair_holds(self):
        assert linear_mrl_order(1.0, 2.0, 1.0, 2.0).relation is Relation.HOLDS

    def test_agrees_with_grid_check(self):
        for (a, b, c, d) in [(1, 0.1, 1, 8), (1, 8, 1, 0.1), (2, 1, 1, 1), (1, 1, 2, 1)]:
            det = linear_mrl_order(a, b, c, d)
            X, Y = build(MrlLinear(a, b)), build(MrlLinear(c, d))
            grid_v = mrlai_order(X, Y, ts(0.05, 25.0, 96))
            assert det.relation == grid_v.relation


class TestSufficientConditions:
    def test_decreasing_vs_increasing_mrl(self):
        X, Y = build(Erlang(2, 2.0)), build(MrlLinear(1, 1))
        v = sufficient_conditions(X, Y, Grid(0.05, 12.0, 64))
        assert v is not None
        assert v.relation is Relation.HOLDS
        assert v.decided_by == "thm_4_3"
        assert mrlai_order(X, Y, ts(0.05, 12.0, 96)).relation is Relation.HOLDS

    def test_mrla_route(self):
        # mixture example: MRL of the gamma is decreasing, so is its average;
        # pick a pair where the MRL is non-monotone but the average is clean
        X = build(Erlang(3, 1.0))
        Y = build(MrlLinear(1.0, 2.0))
        v = sufficient_conditions(X, Y, Grid(0.05, 12.0, 64))
        assert v is not None and v.relation is Relation.HOLDS

    def test_no_shortcut_when_both_averages_increase(self):
        X = build(MrlPiecewise((), (PieceSqrtAffine(2.0, 2.0),)))
        Y = build(Pareto(2.0, 1.0))
        assert sufficient_conditions(X, Y, Grid(0.1, 50.0, 64), FORMAL) is None
        # ... and yet the order holds on the grid
        assert mrlai_order(X, Y, ts(0.1, 50.0, 96), FORMAL).relation is Relation.HOLDS

    def test_no_verdict_for_constants(self):
        X = build(Exponential(1.0))
        assert sufficient_conditions(X, X, Grid(0.1, 10.0, 64)) is None


class TestWeibullRule:
    def test_rule_is_one_directional(self):
        assert weibull_rule(1.0, 2.0).relation is Relation.HOLDS
        assert weibull_rule(2.0, 1.0) is None
        assert weibull_rule(1.5, 1.5).relation is Relation.HOLDS

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            weibull_rule(0.0, 1.0)


class TestParallelNonClosure:
    def test_componentwise_holds_systems_fail(self):
        x1, y1 = build(Erlang(2, 1.0)), build(Exponential(2.0))
        assert mrlai_order(x1, y1, ts(0.05, 20.0, 80)).relation is Relation.HOLDS
        xp, yp = parallel(x1, 2), parallel(y1, 2)
        grid = [math.exp(v) for v in ts(math.log(0.005), math.log(30.0), 90)]
        v = mrlai_order(xp, yp, grid)
        assert v.relation is Relation.FAILS
        assert v.witness.t < 1.0


class TestScalePreservation:
    def test_preserved_up_and_down(self):
        X, Y = build(Exponential(0.5)), build(Pareto(2.0, 1.0))
        for a in (3.0, 0.25):
            rep = check_scale_preservation(X, Y, a, ts(0.1, 30.0), FORMAL)
            assert rep.preserved
            assert rep.max_margin <= 1e-9

    def test_trivial_factor(self):
        X, Y = build(Erlang(2, 2.0)), build(Exponential(1.0))
        rep = check_scale_preservation(X, Y, 1.0, ts(0.05, 15.0))
        assert rep.preserved

    def test_four_profiles_and_the_same_report(self, monkeypatch):
        from mrlai import ageing
        from mrlai.ops import scale
        from mrlai.orders import ScaleReport

        # the order fails, so the report carries witnesses
        X, Y = build(Exponential(1.0)), build(Erlang(2, 2.0))
        a, grid = 2.5, ts(0.05, 15.0, 40)
        scaled_grid = [a * t for t in grid]
        lx = profile(scale(X, a), scaled_grid).L
        ly = profile(scale(Y, a), scaled_grid).L
        want = ScaleReport(
            a,
            mrlai_order(X, Y, grid),
            mrlai_order(scale(X, a), scale(Y, a), scaled_grid),
            max(u - v for u, v in zip(lx, ly)),
        )
        calls = []
        real = ageing._evaluate
        monkeypatch.setattr(
            ageing, "_evaluate", lambda *args, **kw: calls.append(1) or real(*args, **kw)
        )
        rep = check_scale_preservation(X, Y, a, grid)
        assert rep == want
        assert rep.scaled.relation is Relation.FAILS and rep.scaled.witness is not None
        assert len(calls) == 4

    def test_a_dist_and_its_profiles_give_the_same_report(self):
        from mrlai.ageing import _Profiles

        X, Y = build(Exponential(1.0)), build(Erlang(2, 2.0))
        grid = Grid(0.1, 5.0, 16)
        want = check_scale_preservation(X, Y, 2.0, grid)
        assert check_scale_preservation(_Profiles(X), _Profiles(Y), 2.0, grid) == want
        assert check_scale_preservation(X, _Profiles(Y), 2.0, grid) == want


# ---------------------------------------------------------------------------
# double tails D(t) = int_t^inf int_u^inf S, one sweep per grid
# ---------------------------------------------------------------------------


def _double_tails(d, grid, conv=ZERO):
    from mrlai.ageing import _resolve
    from mrlai.quadrature import DEFAULT_CONFIG

    return _resolve(d, conv=conv)._column("double_tail", grid, DEFAULT_CONFIG)


def _pareto_double_tail(a, b, t, formal):
    on_support = b**a * t ** (2.0 - a) / ((a - 1.0) * (a - 2.0))
    if formal or t >= b:
        return on_support
    # below the support start T(u) = mean - u
    mean = a * b / (a - 1.0)
    return b * b / ((a - 1.0) * (a - 2.0)) + (b - t) * (mean - 0.5 * (b + t))


def _weibull_double_tail(k, t):
    """D(t) = (Gamma(2/k, t^k) - t Gamma(1/k, t^k)) / k for Weibull(k, 1), by mpmath."""
    import mpmath

    with mpmath.workdps(30):
        z = mpmath.mpf(t) ** k
        s = mpmath.mpf(k)
        return float((mpmath.gammainc(2 / s, z) - t * mpmath.gammainc(1 / s, z)) / s)


# (label, spec, convention, grid range, closed D(t))
DOUBLE_TAIL_ORACLES = [
    ("exponential", Exponential(1.3), ZERO, (0.05, 11.0),
     lambda t: math.exp(-1.3 * t) / 1.3**2),
    ("erlang2", Erlang(2, 0.8), ZERO, (0.1, 15.0),
     lambda t: math.exp(-0.8 * t) * (3.0 + 0.8 * t) / 0.8**2),
    ("mrl_linear", MrlLinear(1.0, 0.4), ZERO, (0.0, 20.0),
     lambda t: (1.0 + 0.4 * t) ** (1.0 - 1.0 / 0.4) / (1.0 - 0.4)),
    ("uniform", Uniform(1.0, 3.0), ZERO, (1.0, 2.9),
     lambda t: (3.0 - t) ** 3 / (6.0 * 2.0)),
    ("pareto-zero", Pareto(2.5, 1.0), ZERO, (0.1, 10.0),
     lambda t: _pareto_double_tail(2.5, 1.0, t, formal=False)),
    ("pareto-formal", Pareto(2.5, 1.0), FORMAL, (0.1, 10.0),
     lambda t: _pareto_double_tail(2.5, 1.0, t, formal=True)),
]


class TestDoubleTail:
    @pytest.mark.parametrize("n", [16, 512])
    @pytest.mark.parametrize(
        "label,spec,conv,span,exact", DOUBLE_TAIL_ORACLES, ids=[c[0] for c in DOUBLE_TAIL_ORACLES]
    )
    def test_closed_forms(self, label, spec, conv, span, exact, n):
        grid = ts(*span, n)
        got = _double_tails(build(spec), grid, conv)
        for t, v in zip(grid, got):
            assert v == pytest.approx(exact(t), rel=1e-9, abs=0.0), t

    @pytest.mark.parametrize("n", [16, 128])
    @pytest.mark.parametrize("shape,hi", [(0.65, 20.0), (1.5, 5.0), (2.4, 3.0), (4.5, 1.8)])
    def test_weibull_against_mpmath(self, shape, hi, n):
        grid = ts(0.05, hi, n)
        got = _double_tails(build(Weibull(shape, 1.0)), grid)
        for t, v in zip(grid, got):
            assert v == pytest.approx(_weibull_double_tail(shape, t), rel=1e-9, abs=0.0), t

    def test_pareto_double_tail_closure_needs_shape_above_two(self):
        # the continuation's closure at 0.5, below the support start
        pareto = build(Pareto(2.5, 1.0))
        assert pareto.formal.double_tail(0.5) == pytest.approx(4.0 / 3.0 * 0.5**-0.5, rel=1e-15)
        slow = build(Pareto(2.0, 1.0))
        assert slow._double_tail is None and slow.formal.double_tail is None
        assert build(Weibull(1.5, 1.0))._double_tail is None
        # ZERO below the support start: 11/24 from the linear T plus D(1) = 4/3
        assert _double_tails(pareto, [0.5])[0] == pytest.approx(43.0 / 24.0, rel=1e-15)

    def test_formal_sweep_below_the_support_start(self):
        # a continuation without a closed D: the formal view integrates its
        # closed T from the top point, across s0, where it equals the true T
        d = build(Pareto(2.5, 1.0))
        d = d._with(formal=replace(d.formal, double_tail=None))
        grid = [0.2, 0.5, 0.8]
        for t, v in zip(grid, _double_tails(d, grid, FORMAL)):
            assert v == pytest.approx(_pareto_double_tail(2.5, 1.0, t, formal=True), rel=1e-9), t

    @pytest.mark.parametrize(
        "spec", [Weibull(1.5, 1.0), Uniform(1.0, 3.0), Pareto(2.5, 1.0), Exponential(0.7)],
        ids=["weibull", "uniform", "pareto", "exponential"],
    )
    def test_any_grid_order_gives_the_sorted_values(self, spec):
        # the tails take increasing points; the checks refuse any other order
        d = build(spec)
        s0, s1 = d.support
        base = sorted({0.25, 0.5 * s0, s0, s0 + 0.3, s0 + 1.1, min(s0 + 1.9, 0.5 * (s0 + s1))})
        past = [s1, s1 + 1.0] if math.isfinite(s1) else []
        got = _double_tails(d, base + past)
        assert got[: len(base)] == _double_tails(d, base)
        assert got[len(base):] == [0.0] * len(past)
        messy = list(base) * 2
        random.Random(7).shuffle(messy)
        for order in (icx_order, vrl_order):
            with pytest.raises(GridError, match="strictly increasing"):
                order(d, d, messy)

    def test_one_point_grid_gives_the_corpus_value(self):
        from mrlai.corpus import run_case

        X, Y = build(Exponential(2.0)), build(Pareto(3.0, 1.0))
        grid = ts(0.05, 5.0, 100) + [0.2, 0.6, 1.0]
        ratios = dict(
            zip(grid, (a / b for a, b in zip(_double_tails(X, grid, FORMAL),
                                              _double_tails(Y, grid, FORMAL))))
        )
        checks = [r for r in run_case("ex4.2").results if r.label.startswith("ratio")]
        assert len(checks) == 3
        for r, t in zip(checks, (0.2, 0.6, 1.0)):
            assert r.computed == pytest.approx(ratios[t], rel=1e-12)
            assert _double_tails(X, [t], FORMAL)[0] / _double_tails(Y, [t], FORMAL)[0] == r.computed

    def test_numeric_tail_values_for_icx(self):
        from scipy.special import gamma as gamma_fn
        from scipy.special import gammaincc

        from mrlai.quadrature import DEFAULT_CONFIG

        grid = ts(0.05, 5.0, 64)
        T = build(Weibull(1.5, 1.0))._column("tail", grid, DEFAULT_CONFIG)
        for t, v in zip(grid, T):
            want = gamma_fn(1 / 1.5) * gammaincc(1 / 1.5, t**1.5) / 1.5
            assert v == pytest.approx(want, rel=1e-9, abs=0.0), t

    def test_closed_tails_for_icx_are_sampled_exactly(self):
        from mrlai.ageing import _resolve
        from mrlai.quadrature import DEFAULT_CONFIG

        grid = ts(0.1, 30.0, 100)
        X, Y = build(Exponential(0.5)), build(Pareto(2.0, 1.0))

        def column(name, d, conv):
            return _resolve(d, conv=conv)._column(name, grid, DEFAULT_CONFIG)

        assert column("tail", X, FORMAL) == [X.tail(t) for t in grid]
        assert column("tail", Y, FORMAL) == [Y.formal.tail(t) for t in grid]
        # and a closed double tail is sampled the same way
        assert column("double_tail", X, ZERO) == [X.double_tail(t) for t in grid]

    def test_divergent_double_tail_names_the_distribution_and_t(self):
        from mrlai.errors import Divergence

        X, Y = build(Pareto(1.5, 1.0)), build(Exponential(1.0))
        for conv in (ZERO, FORMAL):
            with pytest.raises(Divergence, match=r"pareto: .*t=3\.0"):
                vrl_order(X, Y, ts(0.1, 3.0, 16), conv)

    def test_vrl_makes_no_tail_integral_per_point(self, monkeypatch):
        import sys

        from mrlai import distributions, quadrature

        counts = {"tail": 0, "survival": 0}
        real_tail = quadrature.integrate_tail
        real_survival = distributions.Dist.survival

        def counted_tail(*args, **kwargs):
            counts["tail"] += 1
            return real_tail(*args, **kwargs)

        def counted_survival(d, t):
            counts["survival"] += 1
            return real_survival(d, t)

        for name, mod in list(sys.modules.items()):
            if name.startswith("mrlai") and getattr(mod, "integrate_tail", None) is real_tail:
                monkeypatch.setattr(mod, "integrate_tail", counted_tail)
        monkeypatch.setattr(distributions.Dist, "survival", counted_survival)
        X, Y = build(Weibull(1.5, 1.0)), build(Erlang(3, 1.5))
        vrl_order(X, Y, Grid(0.05, 5.0, 16))
        assert counts["tail"] <= 8
        assert counts["survival"] <= 3000


def _mp_double_tail(spec, t):
    """D(t) = E[(X - t)_+^2] / 2 by mpmath at 30 digits, from the moments
    of X rather than the families' closed double tails."""
    import mpmath

    with mpmath.workdps(30):
        t = mpmath.mpf(t)
        if isinstance(spec, (Exponential, Erlang)):
            k = spec.k if isinstance(spec, Erlang) else 1
            lam = mpmath.mpf(spec.rate)
            # int_t^inf x^j f(x) dx = Gamma(k + j, lam t) / (Gamma(k) lam^j)
            m = [mpmath.gammainc(k + j, lam * t) / (mpmath.gamma(k) * lam**j) for j in range(3)]
            return float((m[2] - 2 * t * m[1] + t * t * m[0]) / 2)
        if isinstance(spec, Uniform):
            lo, hi = mpmath.mpf(spec.lo), mpmath.mpf(spec.hi)
            if t >= lo:
                return float((hi - t) ** 3 / (6 * (hi - lo)))
            # all of X lies above t: (Var X + (E X - t)^2) / 2
            return float(((hi - lo) ** 2 / 12 + ((lo + hi) / 2 - t) ** 2) / 2)
        # linear MRL a + b u: X + a/b is Pareto(1 + 1/b, a/b), whose
        # double tail past its start is s^c z^(2-c) / ((c-1)(c-2))
        a, b = mpmath.mpf(spec.a), mpmath.mpf(spec.b)
        if b == 0:
            return float(a * a * mpmath.exp(-t / a))
        c, s = 1 + 1 / b, a / b
        return float(s**c * (t + s) ** (2 - c) / ((c - 1) * (c - 2)))


# (label, spec, grid range); each grid crosses the support start where there is one
NEW_CLOSED_DOUBLE_TAILS = [
    ("exponential", Exponential(1.3), (0.05, 11.0)),
    ("erlang2", Erlang(2, 0.8), (0.1, 15.0)),
    ("erlang4", Erlang(4, 1.7), (0.02, 12.0)),
    ("uniform", Uniform(1.0, 3.0), (0.2, 2.95)),
    ("mrl_linear", MrlLinear(1.0, 0.4), (0.0, 20.0)),
    ("mrl_linear-b0", MrlLinear(1.5, 0.0), (0.1, 20.0)),
    ("mrl_linear-witness", MrlLinear(2.8900856797231236, 0.4291309948237398), (0.14, 41.65)),
]


class TestClosedDoubleTails:
    @pytest.mark.parametrize("n", [16, 512])
    @pytest.mark.parametrize(
        "label,spec,span", NEW_CLOSED_DOUBLE_TAILS, ids=[c[0] for c in NEW_CLOSED_DOUBLE_TAILS]
    )
    def test_against_mpmath(self, label, spec, span, n):
        grid = ts(*span, n)
        got = _double_tails(build(spec), grid)
        for t, v in zip(grid, got):
            assert v == pytest.approx(_mp_double_tail(spec, t), rel=1e-12, abs=0.0), t

    def test_linear_mrl_oracle_against_quadrature(self):
        import mpmath

        spec = MrlLinear(1.0, 0.4)
        with mpmath.workdps(30):
            for t in (0.0, 1.5, 12.0):
                want = mpmath.quad(
                    lambda v: (v - t) * (1 / (1 + 0.4 * v)) ** (1 + 1 / mpmath.mpf(0.4)),
                    [t, mpmath.inf],
                )
                assert _mp_double_tail(spec, t) == pytest.approx(float(want), rel=1e-14)

    def test_grid_evaluates_the_closed_form_per_point(self, monkeypatch):
        from mrlai import quadrature

        def no_sweep(*args, **kwargs):
            raise AssertionError("a closed double tail needs no sweep")

        monkeypatch.setattr(quadrature, "cheb_sweep", no_sweep)
        for _, spec, span in NEW_CLOSED_DOUBLE_TAILS:
            _double_tails(build(spec), ts(*span, 32))

    @pytest.mark.parametrize(
        "landed,family",
        [
            (lambda: scale(build(Exponential(1.0)), 2.0), Exponential(0.5)),
            (lambda: order_statistic(build(Exponential(0.25)), 1, 2), Exponential(0.5)),
            (lambda: build(MrlLinear(2.0, 0.0)), Exponential(0.5)),
            (lambda: convolution(build(Exponential(1.0)), build(Exponential(1.0))), Erlang(2, 1.0)),
        ],
        ids=["scaled", "series", "mrl_linear-b0", "exp-sum"],
    )
    def test_a_dist_landing_in_a_closed_family_keeps_its_column(self, landed, family, monkeypatch):
        from mrlai import quadrature

        def no_sweep(*args, **kwargs):
            raise AssertionError("a closed double tail needs no sweep")

        monkeypatch.setattr(quadrature, "cheb_sweep", no_sweep)
        grid = ts(0.05, 10.0, 512)
        assert _double_tails(landed(), grid) == _double_tails(build(family), grid)

    def test_slow_linear_mrl_tail_still_diverges(self):
        from mrlai.errors import Divergence

        assert build(MrlLinear(1.0, 1.0))._double_tail is None
        with pytest.raises(Divergence, match=r"mrl_linear: .*t=3\.0"):
            vrl_order(build(MrlLinear(1.0, 1.5)), build(Exponential(1.0)), ts(0.1, 3.0, 16))

    def test_past_the_uniform_end_is_zero(self):
        d = build(Uniform(1.0, 3.0))
        assert _double_tails(d, [0.5, 2.0, 3.0, 4.0])[2:] == [0.0, 0.0]
        assert build(Uniform(1.0, 3.0)).double_tail(3.5) == 0.0


class TestMrlOrderFromProfiles:
    def test_numeric_tail_costs_one_integral_per_side(self, monkeypatch):
        import sys

        from mrlai import quadrature

        calls = []
        real = quadrature.integrate_tail

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if name.startswith("mrlai") and getattr(mod, "integrate_tail", None) is real:
                monkeypatch.setattr(mod, "integrate_tail", counted)
        X, Y = build(Weibull(1.5, 1.0)), build(Erlang(3, 1.5))
        grid = Grid(0.05, 5.0, 16)
        v = mrl_order(X, Y, grid)
        assert len(calls) <= 2  # was one per grid point
        mx = profile(X, grid.points()).mu
        for t, m in zip(grid.points(), mx):
            assert m == pytest.approx(mrl(X, t), rel=1e-9)
        assert v == mrl_order(X, Y, grid.points())

    def test_below_the_support_start(self):
        # ZERO reads mean - t below Pareto's start, FORMAL its continuation t/(a-1)
        X, Y = build(Pareto(2.5, 1.0)), build(Exponential(1.0))
        grid = ts(0.2, 1.4, 20)
        zero = mrl_order(X, Y, grid)
        assert zero.relation is Relation.FAILS and zero.witness.t == 0.2
        assert zero.witness.lhs == pytest.approx(2.5 / 1.5 - 0.2, rel=1e-15)
        assert mrl_order(X, Y, grid, FORMAL).relation is Relation.HOLDS

    @pytest.mark.parametrize(
        "order,grid",
        # every grid check refuses an empty, duplicate or reversed grid; the
        # profile-based ones also one that does not start above the origin
        [
            pytest.param(order, grid, id=f"{order.__name__}-{name}")
            for order in GRID_ORDERS
            for name, grid in (
                ("empty", []), ("duplicate", [1.0, 2.0, 2.0]), ("reversed", [2.0, 1.0]),
                ("at-origin", [0.0, 1.0, 2.0]), ("below-origin", [-1.0, 1.0]),
            )
            if order in PROFILE_ORDERS or "origin" not in name
        ],
    )
    def test_bad_grids_raise_grid_error(self, order, grid):
        X, Y = build(Exponential(1.0)), build(Erlang(2, 1.0))
        with pytest.raises(GridError):
            order(X, Y, grid)
