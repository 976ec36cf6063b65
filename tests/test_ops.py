"""Reliability operations: composites and their invariants."""

import math
import random

import pytest

from mrlai.ageing import mrl, mrlai
from mrlai.classify import Grid, Kind, classify_mrlai
from mrlai.distributions import (
    Erlang,
    Exponential,
    MrlExponential,
    MrlLinear,
    MrlPiecewise,
    MrlReciprocalLinear,
    Pareto,
    PieceExpAffine,
    PieceLinear,
    PieceRecipLinear,
    PieceSqrtAffine,
    Uniform,
    Weibull,
    build,
)
from mrlai.errors import SpecError
from mrlai.ops import convolution, mixture, order_statistic, parallel, scale
from mrlai.quadrature import QuadConfig


class TestMixture:
    def test_printed_intensity_values(self):
        m = mixture([0.2, 0.8], [build(MrlLinear(1, 8)), build(MrlLinear(1, 0.1))])
        assert mrlai(m, 6.0) == pytest.approx(3.18404390537899, rel=1e-6)
        assert mrlai(m, 8.0) == pytest.approx(3.44726388676388, rel=1e-6)
        assert mrlai(m, 20.0) == pytest.approx(2.37496470241032, rel=1e-6)

    def test_reciprocal_linear_pair(self):
        m = mixture(
            [0.2, 0.8],
            [build(MrlReciprocalLinear(1, 1)), build(MrlReciprocalLinear(1, 2))],
        )
        assert mrlai(m, 0.3) == pytest.approx(0.8129797, rel=1e-5)
        assert mrlai(m, 2.0) == pytest.approx(0.6127436, rel=1e-5)
        assert mrlai(m, 3.0) == pytest.approx(0.6381471, rel=1e-5)

    def test_two_copies_equal_component(self):
        d = build(Exponential(1.5))
        m = mixture([0.5, 0.5], [d, build(Exponential(1.5))])
        for t in (0.2, 1.0, 4.0):
            assert m.survival(t) == pytest.approx(d.survival(t), rel=1e-12)

    def test_single_component_rejected(self):
        with pytest.raises(SpecError):
            mixture([1.0], [build(Exponential(1.0))])

    def test_bad_weights_rejected(self):
        with pytest.raises(SpecError):
            mixture([0.5, 0.6], [build(Exponential(1.0)), build(Exponential(2.0))])

    def test_mean_linearity(self):
        comps = [build(Exponential(2.0)), build(Erlang(2, 1.0)), build(Uniform(0, 3))]
        w = [0.2, 0.5, 0.3]
        m = mixture(w, comps)
        want = sum(wi * c.mean for wi, c in zip(w, comps))
        assert m.mean == pytest.approx(want, rel=1e-8)
        assert m.tail(0.0) == pytest.approx(want, rel=1e-8)


class TestConvolution:
    def test_two_unit_exponentials_closed(self):
        c = convolution(build(Exponential(1.0)), build(Exponential(1.0)))
        assert isinstance(c.spec.components[0], Exponential)
        for t in (0.2, 3.0, 10.0):
            assert c.survival(t) == pytest.approx((1 + t) * math.exp(-t), rel=1e-12)
        assert mrlai(c, 0.2) == pytest.approx(0.9590531, rel=1e-5)
        assert mrlai(c, 3.0) == pytest.approx(0.8549358, rel=1e-5)
        assert mrlai(c, 10.0) == pytest.approx(0.8799147, rel=1e-5)

    def test_numeric_path_matches_closed_form(self):
        x, y = build(Exponential(1.0)), build(Exponential(1.0))
        numeric = convolution(x, y, closed_forms=False)
        for t in (0.3, 1.0, 2.5, 6.0):
            assert numeric.survival(t) == pytest.approx(
                (1 + t) * math.exp(-t), rel=1e-7
            )

    def test_erlang_merge(self):
        c = convolution(build(Erlang(2, 2.0)), build(Exponential(2.0)))
        want = build(Erlang(3, 2.0))
        for t in (0.4, 1.5, 4.0):
            assert c.survival(t) == pytest.approx(want.survival(t), rel=1e-12)

    def test_numeric_matches_erlang_merge(self):
        numeric = convolution(
            build(Erlang(2, 2.0)), build(Exponential(2.0)), closed_forms=False
        )
        want = build(Erlang(3, 2.0))
        for t in (0.4, 1.5, 4.0):
            assert numeric.survival(t) == pytest.approx(want.survival(t), rel=1e-7)

    def test_mean_additivity_numeric(self):
        x, y = build(Erlang(2, 2.0)), build(Weibull(1.6, 0.8))
        c = convolution(x, y, closed_forms=False)
        cfg = QuadConfig(abs_tol=1e-12, rel_tol=1e-10)
        assert c.mean == pytest.approx(x.mean + y.mean, rel=1e-9)
        from mrlai.quadrature import integrate_tail

        direct = integrate_tail(lambda t: c.survival(t), 0.0, cfg)
        assert direct == pytest.approx(x.mean + y.mean, rel=1e-6)

    def test_density_synthesised(self):
        c = convolution(build(Exponential(1.0)), build(Exponential(1.0)), closed_forms=False)
        for t in (0.5, 2.0):
            assert c.density(t) == pytest.approx(t * math.exp(-t), rel=1e-7)


class TestOrderStatistic:
    def test_printed_closed_forms(self):
        os23 = order_statistic(build(MrlLinear(1, 1)), 2, 3)
        for t in (0.11, 0.5, 1.3, 3.0):
            surv = (3 * t * t + 6 * t + 1) / (t + 1) ** 6
            mu = (t + 1) * (5 * t * t + 10 * t + 3) / (5 * (3 * t * t + 6 * t + 1))
            assert os23.survival(t) == pytest.approx(surv, rel=1e-8)
            assert mrl(os23, t) == pytest.approx(mu, rel=1e-8)

    def test_identity_when_n_is_one(self):
        d = build(Erlang(2, 2.0))
        assert order_statistic(d, 1, 1) is d

    def test_series_of_exponentials(self):
        d = order_statistic(build(Exponential(0.7)), 1, 5)
        want = build(Exponential(3.5))
        for t in (0.3, 1.4):
            assert d.survival(t) == pytest.approx(want.survival(t), rel=1e-12)

    def test_k_out_of_range(self):
        with pytest.raises(SpecError):
            order_statistic(build(Exponential(1.0)), 4, 3)

    def test_sandwich(self):
        base = build(Erlang(2, 1.0))
        lo = order_statistic(base, 1, 3)
        mid = order_statistic(base, 2, 3)
        hi = order_statistic(base, 3, 3)
        for t in (0.1, 0.7, 2.0, 5.0):
            assert lo.survival(t) <= mid.survival(t) + 1e-12
            assert mid.survival(t) <= hi.survival(t) + 1e-12

    def test_parallel_alias(self):
        base = build(Exponential(2.0))
        p = parallel(base, 2)
        for t in (0.1, 1.0):
            want = 2 * math.exp(-2 * t) - math.exp(-4 * t)
            assert p.survival(t) == pytest.approx(want, rel=1e-12)
        assert parallel(base, 1) is base

    def test_parallel_intensities_from_printed_example(self):
        x = parallel(build(Erlang(2, 1.0)), 2)
        y = parallel(build(Exponential(2.0)), 2)
        assert mrlai(x, 0.01) == pytest.approx(0.9981785, rel=1e-5)
        assert mrlai(y, 0.01) == pytest.approx(0.9935494, rel=1e-5)


class TestScale:
    def test_identity(self):
        d = build(Erlang(2, 2.0))
        assert scale(d, 1.0) is d

    def test_exponential_rescales_rate(self):
        d = scale(build(Exponential(2.0)), 4.0)
        assert isinstance(d.spec.base, Exponential)
        for t in (0.5, 2.0):
            assert d.survival(t) == pytest.approx(math.exp(-0.5 * t), rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(SpecError):
            scale(build(Exponential(1.0)), 0.0)

    @pytest.mark.parametrize("rewrite", [True, False])
    def test_change_of_variables(self, rewrite):
        rng = random.Random(11)
        specs = [
            Erlang(2, 2.0),
            Weibull(1.3, 1.0),
            MrlLinear(1.0, 0.5),
            Pareto(3.0, 1.0),
            Exponential(0.7),
            Uniform(0.5, 3.0),
            MrlReciprocalLinear(1.0, 2.0),
            MrlExponential(0.5, -0.2),
            MrlExponential(0.2, 0.5),
            # one piece of every kind, each probed below
            MrlPiecewise(
                (1.0, 2.0, 3.0),
                (
                    PieceLinear(1.0, 0.5),
                    PieceExpAffine(1.0, 0.5 / math.e, 1.0),
                    PieceSqrtAffine(1.0, 1.0),
                    PieceRecipLinear(0.1, 0.1),
                ),
            ),
        ]
        for spec in specs:
            a = rng.uniform(0.3, 3.0)
            d = build(spec)
            s = scale(d, a, rewrite=rewrite)
            assert (spec.rescaled(a) is not None) or not rewrite
            assert s.mean == pytest.approx(a * d.mean, rel=1e-9)
            for t in (0.5, 1.7, 2.5, 4.0):
                tt = max(t, d.support[0] * 1.1 + 0.01)
                assert s.survival(a * tt) == pytest.approx(d.survival(tt), rel=1e-10)


class TestNonClosureRegressions:
    """Monotone-intensity inputs, non-monotone composite outputs."""

    def test_mixture_of_increasing(self):
        m = mixture([0.2, 0.8], [build(MrlLinear(1, 8)), build(MrlLinear(1, 0.1))])
        assert classify_mrlai(build(MrlLinear(1, 8)), Grid(0.1, 40, 96)).kind is Kind.INCREASING
        assert classify_mrlai(m, Grid(0.5, 40, 140)).kind is Kind.NON_MONOTONE

    def test_mixture_of_decreasing(self):
        m = mixture(
            [0.2, 0.8],
            [build(MrlReciprocalLinear(1, 1)), build(MrlReciprocalLinear(1, 2))],
        )
        assert (
            classify_mrlai(build(MrlReciprocalLinear(1, 1)), Grid(0.05, 6, 96)).kind
            is Kind.DECREASING
        )
        assert classify_mrlai(m, Grid(0.05, 6, 140)).kind is Kind.NON_MONOTONE

    def test_convolution_of_constant(self):
        c = convolution(build(Exponential(1.0)), build(Exponential(1.0)))
        assert classify_mrlai(build(Exponential(1.0)), Grid(0.1, 20, 64)).kind is Kind.CONSTANT
        assert classify_mrlai(c, Grid(0.05, 20, 140)).kind is Kind.NON_MONOTONE

    def test_order_statistic_of_increasing(self):
        os23 = order_statistic(build(MrlLinear(1, 1)), 2, 3)
        assert classify_mrlai(build(MrlLinear(1, 1)), Grid(0.1, 20, 96)).kind is Kind.INCREASING
        v = classify_mrlai(os23, Grid(0.01, 1.0, 100))
        assert v.kind is Kind.NON_MONOTONE
        assert 0.09 <= v.witness[1][0] <= 0.16
