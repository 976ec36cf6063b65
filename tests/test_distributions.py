"""Spec grammar, validation, JSON round trips, and family realisations."""

import json
import math
import random
from pathlib import Path

import pytest
from scipy.special import gammaincc
from scipy.special import gamma as gamma_fn

from mrlai.ageing import mrl, mrl_average, mrlai, profile
from mrlai.distributions import (
    Convolution,
    Dist,
    Erlang,
    Exponential,
    Mixture,
    MrlExponential,
    MrlLinear,
    MrlPiecewise,
    MrlReciprocalLinear,
    OrderStatistic,
    Pareto,
    PieceExpAffine,
    PieceLinear,
    PieceRecipLinear,
    PieceSqrtAffine,
    Scaled,
    Uniform,
    Weibull,
    build,
    dump_spec,
    load_spec,
    spec_from_dict,
    validate,
)
from mrlai.errors import BeyondSupport, Divergence, SpecError, UnsupportedCapability
from mrlai.quadrature import QuadConfig, integrate_finite, integrate_tail

E = math.e

# families wholly inside the probability axioms (no quasi-survival corner)
VALID_SPECS = [
    Exponential(2.0),
    Exponential(0.4),
    Weibull(0.7, 1.3),
    Weibull(2.5, 0.8),
    Pareto(2.5, 1.0),
    Pareto(4.0, 0.5),
    Erlang(2, 2.0),
    Erlang(3, 1.0),
    Erlang(5, 0.7),
    Uniform(0.0, 2.0),
    Uniform(0.5, 3.0),
    MrlLinear(1.0, 8.0),
    MrlLinear(1.0, 0.0),
    MrlReciprocalLinear(1.0, 1.0),
    MrlExponential(0.0, 1.0),
    MrlExponential(0.5, -0.2),
    MrlPiecewise((1.0,), (PieceLinear(0.5, 0.0), PieceLinear(-0.5, 1.0))),
    MrlPiecewise(
        (1.0, 2.0),
        (PieceExpAffine(1.0, -0.4 / E, 1.0), PieceLinear(0.0, 0.6), PieceLinear(1.2, 0.0)),
    ),
    MrlPiecewise((), (PieceSqrtAffine(2.0, 2.0),)),
]


class TestSurvivalExamples:
    def test_exponential(self):
        d = build(Exponential(2.0))
        assert d.survival(1.0) == pytest.approx(math.exp(-2.0), abs=1e-15)
        assert d.survival(1.0) == pytest.approx(0.1353353, abs=5e-8)

    def test_pareto(self):
        d = build(Pareto(2.0, 1.0))
        assert d.survival(2.0) == pytest.approx(0.25, abs=1e-15)
        assert d.survival(0.5) == 1.0

    def test_mrl_linear_matches_inversion_formula(self):
        d = build(MrlLinear(1.0, 8.0))
        assert d.survival(1.0) == pytest.approx((1.0 / 9.0) ** (9.0 / 8.0), rel=1e-14)

    def test_convolution_of_unit_exponentials(self):
        d = build(Convolution((Exponential(1.0), Exponential(1.0))))
        for t in (0.2, 1.0, 3.7):
            assert d.survival(t) == pytest.approx((1 + t) * math.exp(-t), rel=1e-13)

    def test_uniform_edges(self):
        d = build(Uniform(0.0, 2.0))
        assert d.survival(2.0) == 0.0
        assert d.survival(0.0) == 1.0

    def test_erlang_survival(self):
        d = build(Erlang(2, 2.0))
        assert d.survival(1.0) == pytest.approx(3 * math.exp(-2.0), rel=1e-14)


class TestMeans:
    def test_exponential(self):
        assert build(Exponential(2.0)).mean == pytest.approx(0.5, abs=1e-14)

    def test_erlang(self):
        assert build(Erlang(2, 2.0)).mean == pytest.approx(1.0, abs=1e-14)

    def test_pareto(self):
        # a b / (a - 1)
        assert build(Pareto(2.0, 1.0)).mean == pytest.approx(2.0, abs=1e-12)

    def test_weibull(self):
        d = build(Weibull(0.5, 1.0))
        assert d.mean == pytest.approx(gamma_fn(3.0), rel=1e-12)

    def test_unstated_mean_on_a_support_above_zero(self):
        # the median of three Uniform(1, 2) lifetimes: S = 1 below 1
        d = build(OrderStatistic(Uniform(1.0, 2.0), 2, 3))
        assert d._mean is None
        assert d.mean == 1.5

    def test_constant_mrl_keeps_its_exact_mean(self):
        # 1/(1/a) != a in the last bit for this a, so the mean must not come
        # from the exponential that the b = 0 case is built on
        a = 12.953248347145237
        assert build(MrlLinear(a, 0.0)).mean == a

    @pytest.mark.parametrize("spec", VALID_SPECS, ids=lambda s: s.family + repr(s)[:24])
    def test_mean_equals_tail_from_zero(self, spec):
        d = build(spec)
        cfg = QuadConfig(abs_tol=1e-14, rel_tol=1e-11)
        direct = integrate_tail(d.survival, 0.0, cfg) if math.isinf(d.support[1]) else (
            integrate_finite(d.survival, 0.0, d.support[1], cfg)
        )
        assert d.mean == pytest.approx(direct, rel=1e-8)


class TestWeibullDensityNearZero:
    # alpha / beta * (t / beta)^(alpha - 1) * exp(-(t / beta)^alpha) by mpmath
    # at 30 digits, beta = 0.8; at 5e-324 alpha / t overflows
    @pytest.mark.parametrize(
        "shape, t, want",
        [
            (0.5, 5e-324, 2.5149692673775275e161),
            (0.5, 1e-300, 5.590169943749474e149),
            (1.0, 5e-324, 1.25),
            (1.0, 1e-300, 1.25),
            (2.5, 5e-324, 0.0),
            (2.5, 1e-300, 0.0),
        ],
    )
    def test_subnormal_and_tiny_t(self, shape, t, want):
        assert build(Weibull(shape, 0.8)).density(t) == pytest.approx(want, rel=1e-15)


class TestDensity:
    def test_erlang_density(self):
        d = build(Erlang(2, 2.0))
        assert d.density(1.0) == pytest.approx(4 * math.exp(-2.0), rel=1e-14)
        assert d.density(1.0) == pytest.approx(0.5413411, abs=5e-8)

    def test_order_statistic_density(self):
        d = build(OrderStatistic(MrlLinear(1.0, 1.0), 2, 3))
        for t in (0.3, 1.0, 2.2):
            want = 12 * t * (t + 2) / (t + 1) ** 7
            assert d.density(t) == pytest.approx(want, rel=1e-12)

    def test_below_support_is_zero(self):
        d = build(Pareto(2.0, 1.0))
        assert d.density(0.5) == 0.0

    def test_numeric_survival_has_no_density(self):
        x = build(Weibull(1.7, 1.0))
        y = build(MrlPiecewise((), (PieceSqrtAffine(2.0, 2.0),)))
        from mrlai.ops import convolution

        c = convolution(x, y, closed_forms=False)
        # x carries a density so the convolution synthesises one; dropping
        # both densities must raise
        assert c.has_density
        bare = object.__new__(type(y))
        bare.__dict__.update(y.__dict__)
        bare._density = None
        with pytest.raises(UnsupportedCapability):
            convolution(bare, bare, closed_forms=False)

    @pytest.mark.parametrize(
        "spec",
        [s for s in VALID_SPECS if not isinstance(s, (Weibull,))],
        ids=lambda s: s.family + repr(s)[:24],
    )
    def test_density_integrates_to_one(self, spec):
        d = build(spec)
        if not d.has_density:
            pytest.skip("no density")
        s0, s1 = d.support
        if math.isinf(s1):
            total = integrate_tail(d.density, s0)
        else:
            total = integrate_finite(d.density, s0, s1)
        assert total == pytest.approx(1.0, rel=1e-8)

    @pytest.mark.parametrize(
        "spec", [Erlang(2, 2.0), MrlLinear(1.0, 8.0), MrlReciprocalLinear(1.0, 1.0)]
    )
    def test_density_matches_survival_slope(self, spec):
        d = build(spec)
        h = 1e-6
        for t in (0.4, 1.1, 2.3):
            slope = (d.survival(t - h) - d.survival(t + h)) / (2 * h)
            assert d.density(t) == pytest.approx(slope, rel=1e-5)


class TestMonotoneSurvival:
    @pytest.mark.parametrize("spec", VALID_SPECS, ids=lambda s: s.family + repr(s)[:24])
    def test_survival_non_increasing(self, spec):
        d = build(spec)
        rng = random.Random(20240811)
        hi = d.support[1]
        span = min(hi, d.mean * 12.0)
        for _ in range(10_000):
            t1 = rng.uniform(0.0, span)
            t2 = rng.uniform(0.0, span)
            if t1 > t2:
                t1, t2 = t2, t1
            assert d.survival(t1) >= d.survival(t2) - 1e-12
            assert -1e-12 <= d.survival(t1) <= 1.0 + 1e-12


class TestWeibullTailOracle:
    def test_tail_matches_incomplete_gamma(self):
        # int_t^inf exp(-(x/b)^a) dx = (b/a) * Gamma(1/a) * gammaincc(1/a, (t/b)^a)
        rng = random.Random(7)
        for _ in range(20):
            a = rng.uniform(0.6, 3.0)
            b = rng.uniform(0.5, 2.0)
            t = rng.uniform(0.0, 3.0 * b)
            d = build(Weibull(a, b))
            want = (b / a) * gamma_fn(1 / a) * gammaincc(1 / a, (t / b) ** a)
            assert d.tail(t) == pytest.approx(want, rel=1e-8)

    @pytest.mark.parametrize("t", [3.0, 4.0, 5.0, 6.0, 6.5, 7.0, 7.5])
    def test_small_numeric_tails_meet_rel_tol(self, t):
        # callers divide the tail by S(t), so a tail small enough that
        # abs_tol exceeds rel_tol * T must still be relatively accurate
        a, b = 1.5, 1.3
        want = (b / a) * gamma_fn(1 / a) * gammaincc(1 / a, (t / b) ** a)
        assert 1e-7 < want < 0.1
        assert build(Weibull(a, b)).tail(t) == pytest.approx(want, rel=1e-9, abs=0)


def _mp_erlang_excess(k, x):
    """Q(x)/P(x) - 1 by mpmath, P = sum_(i<k) x^i/i!, Q = sum_(i<k) (k-i) x^i/i!:
    lam times the Erlang(k, lam) MRL at lam t = x, less 1."""
    import mpmath

    P = mpmath.fsum(x**i / mpmath.factorial(i) for i in range(k))
    return mpmath.fsum((k - 1 - i) * x**i / mpmath.factorial(i) for i in range(k)) / P


def _mp_erlang_g(k, s):
    """lam^2 int_0^t mu at lam t = s by mpmath quadrature: s plus the
    integral of the excess, over log x past 100."""
    import mpmath

    s = mpmath.mpf(s)
    split = min(s, 100)
    rest = mpmath.quad(lambda x: _mp_erlang_excess(k, x), [0, 1, 10, split])
    if s > split:
        rest += mpmath.quad(
            lambda y: _mp_erlang_excess(k, mpmath.exp(y)) * mpmath.exp(y),
            mpmath.linspace(mpmath.log(split), mpmath.log(s), 8),
        )
    return s + rest


class TestErlangFarTail:
    """Where e^(-lam t) is subnormal or 0 the closed MRL is Q/(lam P) with
    every term taken relative to the largest, and the k = 3 MRL integral
    takes log(s^2 + 2s + 2) by log s past s^2's overflow.  Both used to fail there: a bare
    ZeroDivisionError and inf."""

    S_VALUES = (700.0, 720.0, 800.0, 1e5, 1e160, 1e200)

    @pytest.mark.parametrize("k", [2, 3, 5])
    @pytest.mark.parametrize("lam", [1.0, 0.25])
    def test_mrl_matches_mpmath(self, k, lam):
        import mpmath

        d = build(Erlang(k, lam))
        for s in self.S_VALUES:
            with mpmath.workdps(30):
                want = (1 + _mp_erlang_excess(k, mpmath.mpf(s))) / lam
            assert mrl(d, s / lam) == pytest.approx(float(want), rel=1e-12, abs=0), s

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("lam", [1.0, 0.25])
    def test_closed_average_matches_mpmath(self, k, lam):
        import mpmath

        d = build(Erlang(k, lam))
        for s in self.S_VALUES:
            with mpmath.workdps(30):
                want = _mp_erlang_g(k, s) / (lam * s)
            assert mrl_average(d, s / lam) == pytest.approx(float(want), rel=1e-12, abs=0), s

    def test_profile_past_the_underflow(self):
        p = profile(build(Erlang(3, 1.0)), [1.0, 800.0])
        assert p.mu[1] == mrl(build(Erlang(3, 1.0)), 800.0) == pytest.approx(1.0025, rel=1e-5)
        assert all(math.isfinite(v) for v in p.L)

    def test_normal_range_keeps_the_term_ratio(self):
        # e^(-700) is a normal float: the one term list is read as before
        d = build(Erlang(3, 1.0))
        terms = [math.exp(-700.0)]
        for i in (1, 2):
            terms.append(terms[-1] * (700.0 / i))
        want = math.fsum((3 - i) * p for i, p in enumerate(terms)) / math.fsum(terms)
        assert mrl(d, 700.0) == want


class TestClosedTails:
    @pytest.mark.parametrize("spec", VALID_SPECS, ids=lambda s: s.family + repr(s)[:24])
    def test_tail_matches_direct_quadrature(self, spec):
        # relative accuracy on small tails needs a tight absolute floor
        cfg = QuadConfig(abs_tol=1e-15, rel_tol=1e-11)
        d = build(spec)
        rng = random.Random(sum(spec.family.encode()))
        s0, s1 = d.support
        span = s1 * 0.95 if math.isfinite(s1) else 4.0 * d.mean
        for _ in range(20):
            t = rng.uniform(0.0, span)
            if math.isfinite(s1):
                want = integrate_finite(d.survival, t, s1, cfg)
            else:
                want = integrate_tail(d.survival, t, cfg)
            assert d.tail(t) == pytest.approx(want, rel=1e-8, abs=1e-13)


class TestBelowTheSupport:
    """S = 1 below the support start, so T(t) = mean - t there, whether or
    not the family has a closed tail."""

    SPECS = VALID_SPECS + [
        Convolution((Exponential(1.0), Exponential(2.0))),  # partial fractions
        Convolution((Exponential(1.0), Exponential(1.0))),  # lands in Erlang
        Mixture((0.3, 0.7), (Exponential(1.0), Uniform(0.5, 2.0))),
        OrderStatistic(Weibull(1.5, 1.0), 2, 3),
    ]

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.family + repr(s)[:24])
    def test_tail_is_mean_minus_t(self, spec):
        d = build(spec)
        for t in (d.support[0] - 1.0, 0.5 * d.support[0]):
            if t < d.support[0]:
                assert d.tail(t) == d.mean - t, f"T at t={t}"

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.family + repr(s)[:24])
    def test_mrl_and_closed_double_tail_follow(self, spec):
        d = build(spec)
        s0 = d.support[0]
        t = s0 - 1.0
        assert d.mrl(t) == d.mean - t
        if d._double_tail is not None:
            assert d.double_tail(t) == d.double_tail(s0) + (s0 - t) * (d.mean - 0.5 * (s0 + t))

    def test_generic_scaling(self):
        from mrlai.ops import scale

        d = scale(build(Exponential(1.0)), 2.0, rewrite=False)
        assert d._tail is not None
        assert d.tail(-1.0) == d.mean + 1.0 == 3.0


class TestDoubleTailMethod:
    def test_zero_and_undefined_from_the_support_end_on(self):
        d = build(Uniform(1.0, 3.0))
        assert d.double_tail(3.0) == d.double_tail(3.5) == 0.0
        assert d._quadrature_view.double_tail(3.0) == 0.0
        for t in (3.0, 3.5):
            with pytest.raises(BeyondSupport, match=rf"^uniform: mrl undefined at t={t}"):
                d.mrl(t)

    @pytest.mark.parametrize(
        "spec", [Uniform(1.0, 3.0), Exponential(0.7), MrlReciprocalLinear(1.0, 0.9)],
        ids=lambda s: s.family,
    )
    def test_numeric_branches_agree_with_the_closure(self, spec):
        # the quadrature view integrates (u - t) S(u); a closed T without a
        # closed D (mrl_reciprocal_linear) integrates T
        d = build(spec)
        assert d._quadrature_view._double_tail is None
        for t in (0.2, 1.5, 2.5):
            assert d._quadrature_view.double_tail(t) == pytest.approx(d.double_tail(t), rel=1e-9)


class TestScaledSpec:
    def test_builds_the_rescaled_family(self):
        from mrlai.ops import scale

        want = scale(build(Weibull(1.5, 1.0)), 2.0)
        text = '{"family":"scaled","base":{"family":"weibull","shape":1.5,"scale":1},"factor":2}'
        for d in (build(Scaled(Weibull(1.5, 1.0), 2.0)), build(load_spec(text))):
            assert d.spec == Scaled(Weibull(1.5, 1.0), 2.0)
            for t in (0.3, 1.0, 2.5, 6.0):
                assert (d.survival(t), d.tail(t), mrl(d, t)) == (
                    want.survival(t), want.tail(t), mrl(want, t))


class TestNoCallState:
    def test_tail_ignores_an_earlier_config(self):
        from mrlai.distributions import Dist
        from mrlai.errors import NonConvergence

        def jumping():
            # an undeclared jump at 1.2345 halves the survival
            return Dist(
                None,
                lambda t: math.exp(-t) if t < 1.2345 else 0.5 * math.exp(-t),
                (0.0, math.inf),
            )

        shallow = QuadConfig(max_depth=10)
        with pytest.raises(NonConvergence):
            jumping().tail(0.5, shallow)
        d = jumping()
        assert d.tail(0.5) == pytest.approx(0.4610405515101336, rel=1e-9)
        with pytest.raises(NonConvergence):
            d.tail(0.5, shallow)


class TestValidation:
    def test_mixture_weights_accepted(self):
        spec = Mixture((0.2, 0.8), (MrlLinear(1, 8), MrlLinear(1, 0.1)))
        validate(spec)

    def test_mixture_weights_rejected(self):
        with pytest.raises(SpecError, match="weights"):
            validate(Mixture((0.5, 0.6), (Exponential(1), Exponential(2))))

    def test_pareto_infinite_mean_rejected(self):
        with pytest.raises(SpecError, match="shape"):
            validate(Pareto(1.0, 1.0))

    def test_exponential_rate(self):
        with pytest.raises(SpecError, match="rate"):
            validate(Exponential(0.0))

    def test_erlang_k(self):
        with pytest.raises(SpecError, match="k"):
            validate(Erlang(0, 1.0))

    def test_uniform_bounds(self):
        with pytest.raises(SpecError):
            validate(Uniform(2.0, 1.0))
        with pytest.raises(SpecError):
            validate(Uniform(-1.0, 1.0))

    def test_order_statistic_k_range(self):
        with pytest.raises(SpecError, match="k"):
            validate(OrderStatistic(Exponential(1.0), 4, 3))

    def test_piecewise_needs_positive_mrl(self):
        with pytest.raises(SpecError, match="positive"):
            validate(MrlPiecewise((1.0,), (PieceLinear(0.5, 0.0), PieceLinear(0.5, -1.0))))

    def test_exp_affine_piece_may_decay_to_zero(self):
        # mu = e^(0.4 - 0.3 t) tends to 0 and never reaches it
        validate(MrlPiecewise((), (PieceExpAffine(0.0, math.exp(0.4), -0.3),)))
        # mu = -0.1 + 1.5 e^(-0.3 t) starts at 1.4 and crosses 0
        with pytest.raises(SpecError, match="must stay positive"):
            validate(MrlPiecewise((), (PieceExpAffine(-0.1, 1.5, -0.3),)))

    @pytest.mark.parametrize(
        "pieces, breakpoints",
        [
            # 1/(1 - t) on [0, inf): a pole at t = 1, then mu < 0
            ('[{"kind":"recip_linear","a":1,"b":-1}]', "[]"),
            # 1/(0 + 3.7 t) at t = 0 is 1/0
            ('[{"kind":"recip_linear","a":0,"b":3.7},{"kind":"linear","a":1,"b":0}]', "[1.0]"),
            # the pole sits exactly on the breakpoint
            ('[{"kind":"recip_linear","a":1,"b":-1},{"kind":"linear","a":1,"b":0}]', "[1.0]"),
        ],
    )
    def test_reciprocal_piece_with_a_pole_rejected(self, pieces, breakpoints):
        text = f'{{"family":"mrl_piecewise","breakpoints":{breakpoints},"pieces":{pieces}}}'
        with pytest.raises(SpecError) as info:
            load_spec(text)
        assert info.value.path == "spec.pieces[0]"
        assert "must stay positive" in info.value.message

    def test_reciprocal_piece_without_a_pole_accepted(self):
        spec = load_spec(
            '{"family":"mrl_piecewise","breakpoints":[],'
            '"pieces":[{"kind":"recip_linear","a":1,"b":0.5}]}'
        )
        d = build(spec)
        assert d.mrl(2.0) == pytest.approx(0.5, rel=1e-15)
        assert 0.0 < d.survival(2.0) < 1.0

    def test_nested_scaled_flattened(self):
        spec = validate(Scaled(Scaled(Exponential(1.0), 2.0), 3.0))
        assert isinstance(spec.base, Exponential)
        assert spec.factor == pytest.approx(6.0)

    def test_mixture_order_is_deterministic(self):
        a = Mixture((0.2, 0.8), (MrlLinear(1, 8), MrlLinear(1, 0.1)))
        b = Mixture((0.8, 0.2), (MrlLinear(1, 0.1), MrlLinear(1, 8)))
        assert validate(a) == validate(b)


class TestOnePieceTwins:
    """A one-piece MrlPiecewise against the closed family with its MRL."""

    @pytest.mark.parametrize(
        "piece, family, rel",
        [
            (PieceRecipLinear(1.0, 0.5), MrlReciprocalLinear(1.0, 0.5), 1e-15),
            (PieceSqrtAffine(2.0, 0.0), Exponential(0.5), 0.0),
            (PieceLinear(2.0, 3.0), MrlLinear(2.0, 3.0), 1e-15),
            (PieceExpAffine(0.0, math.exp(0.4), -0.3), MrlExponential(0.4, -0.3), 1e-15),
        ],
        ids=["recip_linear", "sqrt_affine", "linear", "exp_affine"],
    )
    def test_matches_the_family(self, piece, family, rel):
        d, want = build(MrlPiecewise((), (piece,))), build(family)
        for t in (0.1, 0.7, 2.0, 5.0):
            for quantity in (
                lambda x: x.survival(t),
                lambda x: x.density(t),
                lambda x: x.tail(t),
                lambda x: mrl(x, t),
                lambda x: mrl_average(x, t),
                lambda x: mrlai(x, t),
            ):
                assert quantity(d) == pytest.approx(quantity(want), rel=rel, abs=0.0), t


_EXP1 = '{"family":"exponential","rate":1}'


class TestJsonGrammar:
    def test_documented_example(self):
        text = (
            '{"family":"mixture","weights":[0.2,0.8],"components":'
            '[{"family":"mrl_linear","a":1,"b":8},{"family":"mrl_linear","a":1,"b":0.1}]}'
        )
        spec = load_spec(text)
        assert isinstance(spec, Mixture)
        assert sum(spec.weights) == pytest.approx(1.0)

    def test_unknown_keys_rejected(self):
        with pytest.raises(SpecError, match="unknown keys"):
            load_spec('{"family":"exponential","rate":1,"shape":3}')

    def test_unknown_family_rejected(self):
        with pytest.raises(SpecError, match="family"):
            load_spec('{"family":"zeta","s":2}')

    def test_missing_keys_rejected(self):
        with pytest.raises(SpecError, match="missing"):
            load_spec('{"family":"weibull","shape":2}')

    @pytest.mark.parametrize(
        "text, path, message",
        [
            # a missing composite key
            ('{"family":"order_statistic","base":{"family":"exponential","rate":1},"k":1}',
             "spec", "missing keys ['n']"),
            ('{"family":"scaled","factor":2}', "spec", "missing keys ['base']"),
            ('{"family":"mixture","components":[' + _EXP1 + "," + _EXP1 + "]}",
             "spec.weights", "at least two components"),
            # a non-object component or base
            ('{"family":"convolution","components":[1,' + _EXP1 + "]}",
             "spec.components[0]", "expected a JSON object"),
            ('{"family":"scaled","base":3,"factor":2}', "spec.base", "expected a JSON object"),
            ('{"family":"convolution","components":' + _EXP1 + "}",
             "spec.components", "expected a JSON array"),
            # an unknown piece kind, an unknown piece key
            ('{"family":"mrl_piecewise","breakpoints":[],"pieces":[{"kind":"cubic","a":1}]}',
             "spec.pieces[0].kind", "unknown piece kind 'cubic'"),
            ('{"family":"mrl_piecewise","breakpoints":[],"pieces":'
             '[{"kind":"linear","a":1,"b":0,"c":2}]}',
             "spec.pieces[0]", "unknown keys ['c'] for piece kind 'linear'"),
            # a piece where a spec is expected, and the other way round
            ('{"family":"convolution","components":[{"kind":"linear","a":1,"b":1},' + _EXP1 + "]}",
             "spec.components[0].family", "unknown family None"),
            ('{"family":"mrl_piecewise","breakpoints":[],"pieces":[' + _EXP1 + "]}",
             "spec.pieces[0].kind", "unknown piece kind None"),
            # errors deep in a tree name the whole path
            ('{"family":"mixture","weights":[0.5,0.5],"components":'
             '[{"family":"scaled","base":{"family":"zeta"},"factor":2},' + _EXP1 + "]}",
             "spec.components[0].base.family", "unknown family 'zeta'"),
            ('{"family":[1]}', "spec.family", "unknown family [1]"),
        ],
    )
    def test_malformed_nodes_name_their_path(self, text, path, message):
        with pytest.raises(SpecError) as info:
            load_spec(text)
        assert info.value.path == path
        assert message in info.value.message

    def test_single_piece_needs_no_breakpoints(self):
        spec = load_spec('{"family":"mrl_piecewise","pieces":[{"kind":"linear","a":1,"b":1}]}')
        assert spec == MrlPiecewise((), (PieceLinear(1.0, 1.0),))

    @pytest.mark.parametrize("spec", VALID_SPECS, ids=lambda s: s.family + repr(s)[:24])
    def test_round_trip(self, spec):
        normalised = validate(spec)
        again = validate(spec_from_dict(json.loads(dump_spec(normalised))))
        assert again == normalised

    def test_composite_round_trip(self):
        spec = validate(
            Mixture(
                (0.3, 0.7),
                (OrderStatistic(Uniform(0.0, 1.0), 2, 3), Scaled(Erlang(2, 2.0), 1.5)),
            )
        )
        again = load_spec(dump_spec(spec))
        assert again == spec


class TestOnGrid:
    """``Dist._column`` gives the per-point methods' values bit for bit,
    but for a numeric T or D at two or more points below s1, which is a
    sweep (``TestTailColumns``)."""

    SPECS = VALID_SPECS + [
        Mixture((0.3, 0.7), (Exponential(1.0), Uniform(0.5, 2.0))),
        Mixture((0.5, 0.5), (Weibull(2.5, 0.8), Erlang(2, 1.0))),
    ]
    # straddles Uniform(0.5, 2)'s start and end and Pareto's start; 1e300
    # overflows the raw Weibull, Pareto and MRL formulas
    POINTS = (-1.0, 0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0, 7.0, 40.0, 1e300)
    QUANTITIES = ("survival", "density", "tail", "double_tail", "mrl")

    @staticmethod
    def _bits(values):
        return [float(v).hex() for v in values]

    def _check(self, d, name, ts):
        got = d._column(name, ts)
        assert self._bits(got) == self._bits(map(getattr(d, name), ts))

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.family + repr(s)[:24])
    def test_survival_density_and_closed_tail(self, spec):
        d = build(spec)
        for ts in (self.POINTS, list(self.POINTS[3:9]), (0.75,), ()):
            self._check(d, "survival", ts)
            if d.has_density:
                self._check(d, "density", ts)
            if d._tail is not None:
                self._check(d, "tail", ts)

    @pytest.mark.parametrize(
        "spec, method",
        [(Weibull(2.5, 0.8), "survival"), (Weibull(2.5, 0.8), "density"),
         (Pareto(2.5, 1.0), "density")],
    )
    def test_a_closure_that_overflows_falls_back_to_the_method(self, spec, method):
        d = build(spec)
        with pytest.raises(OverflowError):
            getattr(d, "_" + method)(1e300)
        ts = (0.5, 1.5, 3.0, 1e300)
        self._check(d, method, ts)
        assert d._column(method, ts)[-1] == 0.0

    def test_a_pole_of_a_continued_formula_is_a_divergence(self):
        # Pareto's formal view continues T and D down to 0, where both diverge
        view = build(Pareto(2.5, 1.0))._formal_view
        for name in ("tail", "double_tail"):
            for call in (lambda: getattr(view, name)(0.0), lambda: view._column(name, (0.0, 1.0))):
                with pytest.raises(Divergence, match=r"^pareto: .* diverges at t=0\.0$"):
                    call()

    @pytest.mark.parametrize(
        "spec", [OrderStatistic(Weibull(1.5, 1.0), 2, 3), MrlReciprocalLinear(1.0, 0.5)],
        ids=["numeric-T", "closed-T-numeric-D"],
    )
    def test_tails_at_one_point(self, spec):
        # one point leaves no interval to sweep: T and D are the scalar calls
        d = build(spec)
        assert d._column("tail", [1.0]) == [d.tail(1.0)]
        assert d._column("double_tail", [1.0]) == [d.double_tail(1.0)]

    def test_uniform_edges(self):
        d = build(Uniform(0.5, 2.0))
        ts = (0.1, 0.5, 1.25, 2.0, 2.5)
        assert d._column("survival", ts) == [1.0, 1.0, 0.5, 0.0, 0.0]
        assert d._column("density", ts) == [0.0, 2 / 3, 2 / 3, 0.0, 0.0]

    def test_closure_runs_once_per_inside_point(self):
        d = build(Uniform(0.5, 2.0))
        calls = []
        closure = d._survival
        d._survival = lambda t: calls.append(t) or closure(t)
        got = d._column("survival", self.POINTS)
        assert calls == [0.5, 0.75, 1.0, 1.5]
        assert self._bits(got) == self._bits(map(d.survival, self.POINTS))

    @pytest.mark.parametrize("name", QUANTITIES)
    @pytest.mark.parametrize(
        "spec",
        [Uniform(0.5, 2.0), Pareto(2.5, 1.0), Weibull(2.5, 0.8), MrlLinear(1.0, 0.5),
         Mixture((0.3, 0.7), (Exponential(1.0), Uniform(0.5, 2.0)))],
        ids=lambda s: s.family,
    )
    def test_each_quantity_at_the_support_edges(self, spec, name):
        # each finite edge and one ulp either side of it
        d = build(spec)
        s1 = d.support[1]
        ts = sorted(
            {u for e in d.support if math.isfinite(e)
             for u in (math.nextafter(e, -math.inf), e, math.nextafter(e, math.inf))}
        )
        if name == "mrl":  # undefined from the support end on
            for t in [t for t in ts if t >= s1]:
                with pytest.raises(BeyondSupport):
                    d.mrl(t)
                with pytest.raises(BeyondSupport):
                    d._column("mrl", [t])
            ts = [t for t in ts if t < s1]
        if name in ("tail", "double_tail") and getattr(d, "_" + name) is None:
            # one sweep down the points: the methods' values to rounding
            want = [getattr(d, name)(t) for t in ts]
            assert d._column(name, ts) == pytest.approx(want, rel=1e-15, abs=0.0)
            return
        # bits, not floats: Weibull's density is NaN one ulp above 0
        self._check(d, name, ts)

    def test_a_dist_without_a_density_has_no_density_column(self):
        u = build(Uniform(0.5, 2.0))
        bare = Dist(u.spec, u._survival, u.support, lineage="bare")
        for ts in ((0.1, 1.0), (0.1, 3.0)):
            with pytest.raises(UnsupportedCapability, match="bare: no density"):
                bare._column("density", ts)

    def test_mrl_at_a_finite_support_end_raises(self):
        d = build(Uniform(0.5, 2.0))
        assert d._column("mrl", (0.25, 1.0)) == [d.mrl(0.25), d.mrl(1.0)]
        with pytest.raises(BeyondSupport, match="past support end"):
            d._column("mrl", (0.25, 1.0, 2.0))


# T and D columns of a closed family, of numeric tails (Weibull and an
# order statistic of it), across a finite support (Uniform(1, 3), closed
# and under method="quadrature") and at one point, as float.hex strings.
# Recorded when T and D had a grid reader of their own beside ``_column``;
# every column keeps those bits.
TAIL_COLUMNS = json.loads((Path(__file__).parent / "data" / "tail_columns.json").read_text())


class TestTailColumns:
    @pytest.mark.parametrize("name", sorted(TAIL_COLUMNS))
    def test_pinned_columns(self, name):
        from mrlai.ageing import _resolve

        case = TAIL_COLUMNS[name]
        d = _resolve(build(spec_from_dict(case["spec"])), case["method"])
        for grid in case["grids"]:
            ts = [float.fromhex(t) for t in grid["ts"]]
            for q in ("tail", "double_tail"):
                assert [v.hex() for v in d._column(q, ts)] == grid[q], (q, len(ts))

    # closed T, numeric D: (spec, D by mpmath)
    CLOSED_T = {
        "exp-mixture": (Mixture((0.5, 0.5), (Exponential(1.0), Exponential(2.0))),
                        lambda mp, t: mp.exp(-t) / 2 + mp.exp(-2 * t) / 8),
        "exp+exp": (Convolution((Exponential(1.0), Exponential(2.0))),
                    lambda mp, t: 2 * mp.exp(-t) - mp.exp(-2 * t) / 4),
        # T = exp(-(t + t^2/4)), so D = e sqrt(pi) erfc((t + 2) / 2)
        "reciprocal-linear": (MrlReciprocalLinear(1.0, 0.5),
                              lambda mp, t: mp.e * mp.sqrt(mp.pi) * mp.erfc((t + 2) / 2)),
    }

    @pytest.mark.parametrize("name", sorted(CLOSED_T))
    def test_closed_tail_double_tail_column(self, name, monkeypatch):
        import mpmath

        from mrlai import quadrature
        from mrlai.ageing import Grid

        spec, exact = self.CLOSED_T[name]
        d = build(spec)
        assert d._tail is not None and d._double_tail is None
        ts = Grid(0.1, 10.0, 4096).points()
        calls = []
        real = quadrature._eval
        monkeypatch.setattr(quadrature, "_eval", lambda f, x: calls.append(x) or real(f, x))
        column = d._column("double_tail", ts)
        # panels placed by T, not a knot per point (135,225 evaluations)
        assert len(calls) <= 2000
        with mpmath.workdps(30):
            for t, v in zip(ts, column):
                assert v == pytest.approx(float(exact(mpmath, mpmath.mpf(t))), rel=1e-13, abs=0.0), t


# mu and G from ``Dist._mrl_on_grid`` as float.hex strings, with G from
# the convention origin: closed-mu mixtures (one with a uniform part whose
# breakpoint 1 lies between grid points), chained sweeps of os(2:3) of
# U(0, 1) (one grid ends at s1, where only G is read) and of Weibull(1.5, 1),
# and the method="quadrature" view of Pareto(3, 1) from 0 under FORMAL,
# across s0, and from s0 under SUPPORT_START.  Recorded when the closed
# and the chained sweeps were still apart; every column keeps those bits.
MRL_COLUMNS = json.loads((Path(__file__).parent / "data" / "mrl_columns.json").read_text())


class TestMrlColumns:
    @pytest.mark.parametrize("name", sorted(MRL_COLUMNS))
    def test_pinned_columns(self, name):
        from mrlai.ageing import Convention, _origin, _resolve

        case = MRL_COLUMNS[name]
        conv = Convention(case["conv"])
        d = _resolve(build(spec_from_dict(case["spec"])), case["method"], conv)
        for grid in case["grids"]:
            ts = [float.fromhex(t) for t in grid["ts"]]
            mu, g = d._mrl_on_grid(ts, _origin(d, conv), need_mu=grid["mu"] is not None)
            assert [v.hex() for v in g] == grid["g"], len(ts)
            assert mu is None or [v.hex() for v in mu] == grid["mu"], len(ts)
