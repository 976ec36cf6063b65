"""Mean residual life, running average, intensity, and inversion tests."""

import math
import random
import sys

import pytest

from mrlai.ageing import (
    Convention,
    hazard,
    hazard_ai,
    mrl,
    mrl_average,
    mrlai,
    mrlai_closed_form,
    profile,
    survival_from_mrl,
)
from mrlai.distributions import (
    Convolution,
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
    Uniform,
    Weibull,
    build,
)
from mrlai.errors import (
    BeyondSupport,
    GridError,
    NonPositiveMrl,
    ToolkitError,
    UnsupportedCapability,
)
from mrlai.ops import scale
from mrlai.quadrature import QuadConfig

E = math.e
ZERO = Convention.ZERO
FORMAL = Convention.FORMAL
SUPPORT = Convention.SUPPORT_START


class TestMrl:
    def test_exponential_constant(self):
        d = build(Exponential(0.8))
        for t in (0.0, 0.5, 3.0, 12.0):
            assert mrl(d, t) == pytest.approx(1.25, abs=1e-12)

    def test_erlang(self):
        d = build(Erlang(2, 2.0))
        assert mrl(d, 1.0) == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_convolution_of_exponentials(self):
        d = build(Convolution((Exponential(1.0), Exponential(1.0))))
        assert mrl(d, 2.0) == pytest.approx(4.0 / 3.0, rel=1e-12)

    def test_below_support_is_true_conditional_mean(self):
        d = build(Pareto(2.0, 1.0))
        assert mrl(d, 0.5) == pytest.approx(d.mean - 0.5, abs=1e-12)

    def test_beyond_support(self):
        d = build(Uniform(0.0, 2.0))
        with pytest.raises(BeyondSupport):
            mrl(d, 2.0)

    def test_quadrature_matches_closed(self):
        for spec in (Erlang(3, 1.0), MrlLinear(1.0, 1.0), MrlReciprocalLinear(1.0, 1.0)):
            d = build(spec)
            for t in (0.2, 1.0, 3.5):
                closed = mrl(d, t)
                numeric = mrl(d, t, method="quadrature")
                assert numeric == pytest.approx(closed, rel=1e-9)

    def test_closed_profile_on_the_support_calls_no_mrl(self, monkeypatch):
        import mrlai.ageing as ageing_mod

        calls = []
        real = ageing_mod.mrl
        monkeypatch.setattr(ageing_mod, "mrl", lambda *a, **k: calls.append(a) or real(*a, **k))
        for spec, ts in ((Exponential(0.7), _linspace(0.1, 5.0, 64)),
                         (Uniform(0.5, 3.0), _linspace(0.6, 2.9, 64)),
                         (Pareto(3.0, 1.0), _linspace(1.1, 9.0, 64))):
            profile(build(spec), ts)
        assert calls == []


class TestMrlAverage:
    def test_erlang_value(self):
        # (t/2 + ln(2t+1)/4)/t at t = 0.5
        d = build(Erlang(2, 2.0))
        assert mrl_average(d, 0.5) == pytest.approx(0.8465736, abs=5e-8)
        assert mrl_average(d, 0.5) == pytest.approx(0.5 + math.log(2.0) / 2.0, rel=1e-12)

    def test_exponential_constant(self):
        d = build(Exponential(2.0))
        for t in (0.1, 1.0, 9.0):
            assert mrl_average(d, t) == pytest.approx(0.5, abs=1e-12)

    def test_linear_mrl(self):
        d = build(MrlLinear(2.0, 3.0))
        for t in (0.5, 2.0):
            assert mrl_average(d, t) == pytest.approx(2.0 + 1.5 * t, rel=1e-12)

    def test_needs_t_above_origin(self):
        d = build(Exponential(1.0))
        with pytest.raises(ValueError):
            mrl_average(d, 0.0)

    def test_support_start_window_on_shifted_support(self):
        # Pareto(3, 1): mu = t/2 on support, so int_1^2 mu = 3/4 and the
        # support-start average still divides by t
        d = build(Pareto(3.0, 1.0))
        want = 0.75 / 2.0
        assert mrl_average(d, 2.0, SUPPORT) == pytest.approx(want, rel=1e-12)
        assert mrl_average(d, 2.0, SUPPORT, method="quadrature") == pytest.approx(
            want, rel=1e-9
        )

    def test_an_atom_at_zero_is_a_one_point_profile(self):
        from mrlai.distributions import Dist

        # an atom at zero: survival drops from 1 to 0.5 immediately, so the
        # MRL is 0.5 at the origin and 1 after it, and G(t) = t
        atom = Dist(
            None,
            lambda t: 1.0 if t == 0.0 else 0.5 * math.exp(-t),
            (0.0, math.inf),
            lineage="atom",
        )
        t = 1e-7
        avg = mrl_average(atom, t)
        assert avg == profile(atom, [t]).mu_avg[0]
        assert abs(avg * t - t) <= QuadConfig().abs_tol


class TestMrlai:
    def test_erlang_printed_values(self):
        d = build(Erlang(2, 2.0))
        assert mrlai(d, 0.5) == pytest.approx(0.885924163724462, rel=1e-12)
        assert mrlai(d, 2.0) == pytest.approx(0.855700709220817, rel=1e-12)
        assert mrlai(d, 4.5) == pytest.approx(0.875905814337691, rel=1e-12)

    def test_exponential_is_one(self):
        d = build(Exponential(3.0))
        for t in (0.01, 1.0, 20.0):
            assert mrlai(d, t) == pytest.approx(1.0, abs=1e-12)

    def test_pareto_formal_is_two(self):
        d = build(Pareto(3.0, 1.0))
        for t in (0.5, 2.0, 30.0):
            assert mrlai(d, t, FORMAL) == pytest.approx(2.0, abs=1e-12)

    def test_formal_requires_continuation(self):
        d = build(Uniform(0.5, 2.0))
        with pytest.raises(UnsupportedCapability):
            mrlai(d, 1.0, FORMAL)

    def test_support_start_below_origin_rejected(self):
        d = build(Pareto(2.0, 1.0))
        with pytest.raises(BeyondSupport):
            mrlai(d, 0.5, SUPPORT)

    def test_conventions_coincide_at_zero_support_start(self):
        d = build(Erlang(2, 2.0))
        for t in (0.4, 2.0):
            z = mrlai(d, t, ZERO)
            f = mrlai(d, t, FORMAL)
            s = mrlai(d, t, SUPPORT)
            assert z == pytest.approx(f, rel=1e-12)
            assert z == pytest.approx(s, rel=1e-12)


class TestMethod:
    d = build(Erlang(2, 1.0))
    # (Dist, convention, t, grid, small t): closed and numeric families,
    # points below a support start, relabelled closed forms (a rescaled
    # and a merged Erlang), and an order statistic with no stated mean;
    # the small t is a one-point profile next to the origin, as every t is
    INPUTS = {
        "erlang": (d, ZERO, 0.5, [0.5, 2.0], 1e-5),
        "pareto-formal": (build(Pareto(2.5, 1.0)), FORMAL, 0.5, [0.5, 2.0], 1e-5),
        "pareto-support": (build(Pareto(2.5, 1.0)), SUPPORT, 2.0, [1.5, 3.0], 1.00001),
        "uniform": (build(Uniform(0.5, 2.0)), ZERO, 1.0, [0.25, 1.0, 1.9], 1e-5),
        "os-weibull": (build(OrderStatistic(Weibull(1.5, 1.0), 2, 3)), ZERO, 0.5, [0.5, 2.0], 1e-5),
        "scaled-erlang": (scale(d, 2.0), ZERO, 0.5, [0.5, 2.0], 1e-5),
        "merged-erlang": (
            build(Convolution((Erlang(2, 1.0), Exponential(1.0)))), ZERO, 0.5, [0.5, 2.0], 1e-5
        ),
    }
    # the values each method gave before it was resolved once per call:
    # (mrl, mrl_average, mrlai, profile L, mrl_average at the small t).
    # The small-t averages are one-point profiles: quadrature erlang and
    # scaled-erlang lie within 1e-15 of the exact 1 + ln(1 + t)/t and
    # 2 + 4 ln(1 + t/2)/t.
    # auto's pareto-support reads G from the family's closed integral from
    # the support start, so it lies within 1 ulp of the exact 0.5, 8/3, 3.6
    # and 2.25.
    PINNED = {
        "auto": {
            "erlang": (1.6666666666666665, 1.8109302162163288, 0.9203373226324095,
                       (0.9203373226324095, 0.8606003004696311), 1.999995000033333),
            "pareto-formal": (1.1666666666666667, 0.16666666666666666, 2.0, (2.0, 2.0),
                              3.3333333333333337e-06),
            "pareto-support": (1.3333333333333333, 0.5, 2.6666666666666665,
                               (3.5999999999999996, 2.25), 6.666633333713095e-06),
            "uniform": (0.5, 0.8125, 0.6153846153846154,
                        (0.8888888888888888, 0.6153846153846154, 0.08962264150943403), 1.249995),
            "os-weibull": (0.4693664356094636, 0.6278939472900165, 0.7475250201650201,
                           (0.7475250201650201, 0.5861972529251803), 0.8380873553532484),
            "scaled-erlang": (3.5999999999999996, 3.785148410513678, 0.9510855611369404,
                              (0.9510855611369404, 0.8859241637244618), 3.9999950000166664),
            "merged-erlang": (2.5384615384615383, 2.7605978709629246, 0.9195332522574529,
                              (0.9195332522574529, 0.793522540668874), 2.9999950000192395),
        },
        "quadrature": {
            "erlang": (1.6666666666666672, 1.8109302162163292, 0.9203373226324096,
                       (0.9203373226324096, 0.8606003004696309), 1.9999950000333335),
            "pareto-formal": (1.1666666666666667, 0.16666666666666666, 2.0,
                              (2.0, 2.0000000001344733), 3.3333333333333337e-06),
            "pareto-support": (1.3333333335204618, 0.5000000000487397, 2.6666666667809786,
                               (3.600000000025556, 2.2500000000760707), 6.666633334645979e-06),
            "uniform": (0.5000000000000002, 0.8125, 0.6153846153846156,
                        (0.8888888888888888, 0.6153846153846156, 0.08962264150943404), 1.249995),
            "os-weibull": (0.4693664356094636, 0.6278939472900165, 0.7475250201650201,
                           (0.7475250201650201, 0.5861972529251803), 0.8380873553532484),
            "scaled-erlang": (3.6000000000000005, 3.7851484105136786, 0.9510855611369405,
                              (0.9510855611369405, 0.8859241637244617), 3.9999950000166673),
            "merged-erlang": (2.538461538461539, 2.7605978709629255, 0.9195332522574529,
                              (0.9195332522574527, 0.7935225406688735), 2.9999950000000006),
        },
    }

    @pytest.mark.parametrize("method", sorted(PINNED))
    def test_valid_methods_give_the_pinned_values(self, method):
        got = {
            name: (
                mrl(d, t, method=method),
                mrl_average(d, t, conv, method=method),
                mrlai(d, t, conv, method=method),
                profile(d, grid, conv, method=method).L,
                mrl_average(d, small, conv, method=method),
            )
            for name, (d, conv, t, grid, small) in self.INPUTS.items()
        }
        assert got == self.PINNED[method]

    def test_every_entry_point_refuses_an_unknown_method(self):
        d = self.d
        calls = (
            lambda: mrl(d, 0.5, method="quad"),
            lambda: mrl(d, 5.0, method="closed"),
            lambda: mrl_average(d, 0.5, method="quad"),
            lambda: mrl_average(d, 1e-5, method="quad"),
            lambda: mrlai(d, 0.5, method="quad"),
            lambda: mrlai(d, 1e-5, method="quad"),
            lambda: profile(d, [0.5, 2.0], method="quad"),
            lambda: profile(d, [0.5, 2.0], FORMAL, method=None),
        )
        for call in calls:
            with pytest.raises(ValueError, match="'auto' or 'quadrature'"):
                call()

    def test_quadrature_view_works_its_mean_out_once(self, monkeypatch):
        # os(2:3) states no mean, so the view integrates S from 0 for it
        from mrlai import ageing, distributions

        origins = []
        real = distributions.integrate_tail
        monkeypatch.setattr(
            distributions, "integrate_tail", lambda f, a, *r: origins.append(a) or real(f, a, *r)
        )
        d = build(OrderStatistic(Weibull(1.5, 1.0), 2, 3))
        mrl(d, 0.5, method="quadrature")
        profile(d, [0.5, 2.0], method="quadrature")
        first = mrlai(d, 0.5, method="quadrature")
        assert mrlai(d, 0.5, method="quadrature") == first
        mrlai(d, 1e-9, method="quadrature")
        assert 0.0 not in origins  # no scalar call or profile reads the mean
        for _ in range(2):
            assert ageing._resolve(d, "quadrature").mean == pytest.approx(0.8380923553532482)
        assert origins.count(0.0) == 1

    def test_checked_once_per_call_not_per_point(self, monkeypatch):
        from mrlai import ageing

        checked = []
        real = ageing._resolve
        monkeypatch.setattr(ageing, "_resolve", lambda d, m: checked.append(m) or real(d, m))
        for method in ("auto", "quadrature"):
            checked.clear()
            profile(build(Pareto(2.5, 1.0)), _linspace(0.5, 6.0, 64), method=method)
            assert checked == [method]
            checked.clear()
            mrlai(build(Weibull(1.5, 1.0)), 2.0, method=method)
            assert checked == [method]


class TestOnePoint:
    """Scalar ``mrlai`` and ``mrl_average`` are one-point profiles at every
    t above the convention origin, bit for bit, next to it included."""

    NUMERIC = {
        "weibull": Weibull(1.5, 1.0),
        "os": OrderStatistic(Weibull(1.5, 1.0), 2, 3),
        "mixture": Mixture((0.2, 0.8), (MrlLinear(1.0, 8.0), MrlLinear(1.0, 0.1))),
        "erlang5": Erlang(5, 1.0),
        "u+exp": Convolution((Uniform(0.0, 1.0), Exponential(1.0))),
    }
    CLOSED = {
        "pareto": Pareto(2.5, 1.0),
        "uniform": Uniform(0.5, 2.0),
        "mrl-linear": MrlLinear(2.0, 3.0),
        "exp+exp": Convolution((Exponential(1.0), Exponential(2.0))),
    }

    @staticmethod
    def _outcome(call):
        try:
            return call()
        except ToolkitError as exc:  # the same error type on both paths
            return type(exc)

    @pytest.mark.parametrize("method", ["auto", "quadrature"])
    @pytest.mark.parametrize("conv", [ZERO, SUPPORT, FORMAL], ids=lambda c: c.value)
    @pytest.mark.parametrize("name", sorted({**NUMERIC, **CLOSED}))
    def test_scalar_calls_equal_the_one_point_profile(self, name, conv, method):
        d = build({**self.NUMERIC, **self.CLOSED}[name])
        offset = d.support[0] if conv is SUPPORT else 0.0
        for frac in (1e-9, 1e-7, 1e-5, 9e-5, 1e-3, 0.3, 1.0):
            t = offset + frac * d.mean
            prof = self._outcome(lambda: profile(d, [t], conv, method=method))
            L = self._outcome(lambda: mrlai(d, t, conv, method=method))
            avg = self._outcome(lambda: mrl_average(d, t, conv, method=method))
            if isinstance(prof, type):
                assert L is prof and avg is prof, (name, t)
                continue
            assert (L, avg) == (prof.L[0], prof.mu_avg[0]), (name, t)

    @pytest.mark.parametrize("shape, scale_", [(0.6, 1.0), (0.7, 2.0)])
    def test_weibull_next_to_the_origin_matches_mpmath(self, shape, scale_):
        import mpmath

        # G(t) meets max(abs_tol, rel_tol * G), so next to the origin the
        # default config bounds G's error by abs_tol; with a smaller
        # abs_tol, L and the average are within 1e-9 relative
        default, tight = QuadConfig(), QuadConfig(abs_tol=1e-14)
        d = build(Weibull(shape, scale_))
        with mpmath.workdps(30):
            k, lam = mpmath.mpf(shape), mpmath.mpf(scale_)

            def mu(u):
                z = (u / lam) ** k
                return lam / k * mpmath.gammainc(1 / k, z) / mpmath.exp(-z)

            for frac in (0.9, 0.2, 0.01):
                t = frac * 1e-4 * d.mean
                avg = mpmath.quad(mu, [0, t]) / t
                assert abs(mrl_average(d, t) - float(avg)) * t <= default.abs_tol, t
                assert mrl_average(d, t, cfg=tight) == pytest.approx(float(avg), rel=1e-9), t
                L = float(mu(t) / avg)
                assert mrlai(d, t, cfg=tight) == pytest.approx(L, rel=1e-9), t


class TestUnusablePoints:
    """A NaN, an infinite and a nonzero subnormal point raise GridError in
    the one grid reader, which the scalar calls read their t through."""

    def test_nan_point_in_a_profile(self):
        with pytest.raises(GridError, match="unusable grid point"):
            profile(build(Exponential(1.0)), [math.nan])
        with pytest.raises(GridError, match="no NaN point"):
            profile(build(Exponential(1.0)), [0.5, math.nan, 2.0])

    def test_infinite_point_in_the_average(self):
        with pytest.raises(GridError, match="unusable grid point"):
            mrl_average(build(Exponential(1.0)), math.inf)

    def test_subnormal_point_on_a_closed_profile(self):
        # the closed G at 5e-324 gave L = 0.8333; the exact value is 1
        with pytest.raises(GridError, match="unusable grid point"):
            profile(build(Pareto(2.5, 1.0)), [5e-324, 1.0])

    def test_subnormal_point_on_a_numeric_profile(self):
        d = build(Weibull(1.5, 1.0))
        for call in (lambda: profile(d, [5e-324, 1.0]), lambda: mrlai(d, 5e-324)):
            with pytest.raises(GridError, match="unusable grid point"):
                call()
        # the smallest normal point is usable
        tiny = sys.float_info.min
        assert mrlai(d, tiny) == profile(d, [tiny]).L[0]

    def test_nan_point_in_hazard_ai(self):
        with pytest.raises(GridError, match="unusable grid point"):
            hazard_ai(build(Exponential(1.0)), math.nan)


class TestCoxInversion:
    def test_linear_closed_form(self):
        a, b = 1.0, 8.0
        got = survival_from_mrl(lambda t: a + b * t, 1.0)
        assert got == pytest.approx((a / (a + b)) ** (1.0 / b + 1.0), rel=1e-10)

    def test_reciprocal_linear_closed_form(self):
        a, b = 1.0, 1.0
        got = survival_from_mrl(lambda t: 1.0 / (a + b * t), 1.0)
        want = (a + b) / a * math.exp(-(a + b / 2.0))
        assert got == pytest.approx(want, rel=1e-10)

    def test_constant_mrl_gives_exponential(self):
        lam = 2.5
        for t in (0.3, 1.0, 4.0):
            assert survival_from_mrl(lambda u: lam, t) == pytest.approx(
                math.exp(-t / lam), rel=1e-10
            )

    def test_nonpositive_mrl_rejected(self):
        with pytest.raises(NonPositiveMrl):
            survival_from_mrl(lambda t: 1.0 - t, 2.0)

    @pytest.mark.parametrize(
        "spec",
        [
            MrlLinear(1.0, 1.0),
            MrlReciprocalLinear(1.0, 0.8),
            MrlExponential(0.5, -0.2),
            MrlPiecewise(
                (1.0, 2.0),
                (
                    PieceExpAffine(1.0, -0.4 / E, 1.0),
                    PieceLinear(0.0, 0.6),
                    PieceLinear(1.2, 0.0),
                ),
            ),
        ],
        ids=lambda s: s.family,
    )
    def test_round_trip_mu_to_survival_to_mu(self, spec):
        """The family survival comes from the inversion; quadrature on that
        survival must hand back the specified MRL."""
        d = build(spec)
        cfg = QuadConfig(abs_tol=1e-13, rel_tol=1e-11)
        for i in range(100):
            t = 0.03 + i * 0.06
            want = d.mrl_closed(t)
            got = mrl(d, t, cfg, method="quadrature")
            assert got == pytest.approx(want, rel=1e-6), f"t={t}"

    @pytest.mark.parametrize(
        "spec",
        [MrlLinear(1.0, 0.6), MrlReciprocalLinear(1.0, 0.9), MrlExponential(0.2, -0.3)],
        ids=lambda s: s.family,
    )
    def test_family_survival_equals_generic_inversion(self, spec):
        d = build(spec)
        for t in (0.3, 1.1, 2.7):
            want = survival_from_mrl(d.mrl_closed, t)
            assert d.survival(t) == pytest.approx(want, rel=1e-9)


class TestCharacterisations:
    def test_exponential_unit_intensity_on_grid(self):
        d = build(Exponential(1.3))
        ts = [0.02 + 19.98 * i / 511 for i in range(512)]
        prof = profile(d, ts, ZERO, method="quadrature")
        assert max(abs(v - 1.0) for v in prof.L) < 1e-8

    def test_pareto_formal_two_on_support(self):
        d = build(Pareto(3.0, 1.0))
        ts = [1.0 + 39.0 * i / 255 for i in range(256)]
        prof = profile(d, ts, FORMAL, method="quadrature")
        assert max(abs(v - 2.0) for v in prof.L) < 1e-6

    def test_linear_mrl_closed_intensity_random_params(self):
        rng = random.Random(20240809)
        for _ in range(10):
            a = rng.uniform(0.2, 3.0)
            b = rng.uniform(0.0, 2.0)
            d = build(MrlLinear(a, b))
            for t in (0.3, 1.0, 4.0):
                want = (a + b * t) / (a + 0.5 * b * t)
                assert mrlai(d, t) == pytest.approx(want, rel=1e-8)
                assert mrlai(d, t, method="quadrature") == pytest.approx(want, rel=1e-8)

    def test_monotone_mrl_bounds(self):
        # increasing MRL forces L >= 1, decreasing forces L <= 1
        ts = [0.05 + i * 0.08 for i in range(120)]
        increasing = profile(build(MrlLinear(1.0, 1.0)), ts).L
        assert min(increasing) >= 1.0 - 1e-9
        decreasing = profile(build(Erlang(2, 2.0)), ts).L
        assert max(decreasing) <= 1.0 + 1e-9
        weib = profile(build(Weibull(2.0, 1.0)), ts, method="quadrature").L
        assert max(weib) <= 1.0 + 1e-9

    def test_origin_limit(self):
        for spec in (Erlang(2, 2.0), MrlLinear(1.0, 2.0), Weibull(1.5, 1.0)):
            d = build(spec)
            assert abs(mrlai(d, 1e-6, method="quadrature") - 1.0) < 1e-4


class TestClosedFormAgreement:
    @pytest.mark.parametrize(
        "spec",
        [
            Exponential(1.7),
            Pareto(2.5, 1.0),
            MrlLinear(1.0, 8.0),
            MrlReciprocalLinear(1.0, 1.0),
            MrlExponential(0.5, -0.2),
            Erlang(2, 2.0),
        ],
        ids=lambda s: s.family,
    )
    def test_published_forms_match_pipeline(self, spec):
        d = build(spec)
        conv = FORMAL if isinstance(spec, Pareto) else ZERO
        for t in (0.35, 1.2, 3.1):
            want = mrlai_closed_form(spec, t)
            assert want is not None
            got = mrlai(d, t, conv, method="quadrature")
            assert got == pytest.approx(want, rel=1e-7)

    def test_absent_for_other_families(self):
        assert mrlai_closed_form(Weibull(2.0, 1.0), 1.0) is None
        assert mrlai_closed_form(Erlang(3, 1.0), 1.0) is None

    def test_published_values(self):
        assert mrlai_closed_form(MrlLinear(1, 8), 1.0) == pytest.approx(1.8)
        assert mrlai_closed_form(MrlReciprocalLinear(1, 1), 1.0) == pytest.approx(
            0.7213475, abs=5e-8
        )
        assert mrlai_closed_form(MrlExponential(0, 1), 1.0) == pytest.approx(
            1.5819767, abs=5e-8
        )


class TestHazard:
    def test_erlang(self):
        d = build(Erlang(2, 2.0))
        assert hazard(d, 1.0) == pytest.approx(4.0 / 3.0, rel=1e-12)

    def test_exponential(self):
        d = build(Exponential(0.7))
        for t in (0.2, 2.0):
            assert hazard(d, t) == pytest.approx(0.7, rel=1e-12)

    def test_uniform(self):
        d = build(Uniform(0.0, 2.0))
        assert hazard(d, 0.5) == pytest.approx(1.0 / 1.5, rel=1e-12)

    def test_no_density(self):
        from mrlai.ops import convolution

        x = build(Weibull(1.5, 1.0))
        c = convolution(x, x, closed_forms=False)
        d = type(c)(c.spec, c._survival, c.support)  # strip the density
        with pytest.raises(UnsupportedCapability):
            hazard(d, 1.0)


class TestHazardAi:
    def test_exponential_is_one(self):
        d = build(Exponential(2.0))
        for t in (0.3, 5.0):
            assert hazard_ai(d, t) == pytest.approx(1.0, abs=1e-12)

    def test_weibull_is_shape(self):
        for alpha in (0.7, 1.0, 2.5):
            d = build(Weibull(alpha, 1.4))
            for t in (0.4, 1.7, 6.0):
                assert hazard_ai(d, t) == pytest.approx(alpha, rel=1e-12)

    def test_erlang_value_and_quadrature_cross_check(self):
        from mrlai.quadrature import integrate_finite

        d = build(Erlang(2, 2.0))
        want = 4.0 / (3.0 * (2.0 - math.log(3.0)))
        assert hazard_ai(d, 1.0) == pytest.approx(want, rel=1e-12)
        direct = hazard(d, 1.0) / integrate_finite(lambda u: hazard(d, u), 0.0, 1.0)
        assert hazard_ai(d, 1.0) == pytest.approx(direct, rel=1e-9)

    def test_one_survival_call_per_point(self):
        dists = [build(s) for s in (Erlang(3, 1.3), Weibull(1.7, 0.9), MrlLinear(1.0, 0.5),
                                    Uniform(0.0, 2.0))]
        points = (0.05, 0.7, 1.9)
        # r(t) t / (-ln S(t)) from the separate calls, bit for bit
        want = [hazard(d, t) * t / -math.log(d.survival(t)) for d in dists for t in points]
        # the grid path calls the family formula, not the Dist.survival wrapper
        calls = []
        for d in dists:
            d._survival = (lambda f: lambda t: calls.append(t) or f(t))(d._survival)
        assert [hazard_ai(d, t) for d in dists for t in points] == want
        assert len(calls) == len(want)

    def test_pareto_value(self):
        # r = a/t and the cumulative hazard is a ln(t/b), so AI = 1/ln(t/b)
        d = build(Pareto(3.0, 1.0))
        assert hazard_ai(d, math.e) == pytest.approx(1.0, rel=1e-12)
        with pytest.raises(BeyondSupport):
            hazard_ai(d, 0.5)

    def test_profile_column_equals_the_scalar_calls(self):
        # nan holes below Pareto's support start, as in `mrlai eval`
        d = build(Pareto(3.0, 1.0))
        ts = (0.5, 0.9, 1.5, math.e, 6.0)
        prof = profile(d, ts, with_hazard_ai=True)
        assert prof.hazard_ai[:2] == pytest.approx((math.nan, math.nan), nan_ok=True)
        assert prof.hazard_ai[2:] == tuple(hazard_ai(d, t) for t in ts[2:])
        assert profile(d, ts).hazard_ai is None


class TestScalingIdentity:
    SPECS = [
        Exponential(1.0),
        Erlang(2, 2.0),
        Erlang(3, 1.0),
        Weibull(1.7, 0.9),
        MrlLinear(1.0, 1.0),
        MrlReciprocalLinear(1.0, 1.0),
        MrlExponential(0.3, -0.25),
        Uniform(0.0, 2.0),
        Pareto(2.5, 1.0),
        MrlPiecewise((1.0,), (PieceLinear(0.5, 0.0), PieceLinear(-0.5, 1.0))),
    ]

    def test_intensity_invariant_under_scaling(self):
        # L_{aX}(a t) = L_X(t); 20 random (family, factor) pairs
        rng = random.Random(77)
        conv = ZERO
        for _ in range(20):
            spec = rng.choice(self.SPECS)
            a = rng.uniform(0.25, 4.0)
            d = build(spec)
            scaled = scale(d, a)
            conv = FORMAL if isinstance(spec, Pareto) else ZERO
            t = rng.uniform(0.2, 0.8) * min(d.mean * 3, d.support[1] * 0.9)
            if t <= d.support[0] and conv is ZERO:
                t = d.support[0] + 0.5 * d.mean
            assert mrlai(scaled, a * t, conv) == pytest.approx(
                mrlai(d, t, conv), rel=1e-8
            )

    def test_identity_through_generic_wrapper(self):
        d = build(Erlang(2, 2.0))
        scaled = scale(d, 3.0, rewrite=False)
        for t in (0.4, 1.1, 2.6):
            assert mrlai(scaled, 3.0 * t) == pytest.approx(mrlai(d, t), rel=1e-8)


def _weibull_mu(shape, scale):
    from scipy.special import gamma as gamma_fn
    from scipy.special import gammaincc

    def mu(t):
        z = (t / scale) ** shape
        tail = scale / shape * gamma_fn(1.0 / shape) * gammaincc(1.0 / shape, z)
        return tail / math.exp(-z)

    return mu


def _os23_weibull_mu(t):
    # X_(2:3) of Weibull(2, 1): S = 3 s^2 - 2 s^3 with s = exp(-t^2), and
    # int_t^inf exp(-a u^2) du = sqrt(pi/a) erfc(sqrt(a) t) / 2
    from scipy.special import erfc

    s = math.exp(-t * t)
    tail = 1.5 * math.sqrt(math.pi / 2) * erfc(math.sqrt(2) * t) - math.sqrt(
        math.pi / 3
    ) * erfc(math.sqrt(3) * t)
    return tail / (3 * s * s - 2 * s**3)


def _hypo_mu(t):
    # Exp(1) + Exp(2): S = 2e^-t - e^-2t, so mu = 1 + e^-t / (2 (2 - e^-t))
    return 1.0 + 0.5 * math.exp(-t) / (2.0 - math.exp(-t))


def _hypo_g(t):
    return t + 0.5 * math.log(2.0 - math.exp(-t))


def _linspace(lo, hi, n):
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _counted(d):
    """Count the survival calls made on ``d`` itself."""
    calls = [0]
    survival = d.survival

    def counted(t):
        calls[0] += 1
        return survival(t)

    d.survival = counted
    return calls


def _hypoexponential_numeric(closed_forms=False):
    from mrlai.ops import convolution

    return convolution(build(Exponential(1.0)), build(Exponential(2.0)), closed_forms=closed_forms)


def _os23_weibull():
    from mrlai.ops import order_statistic

    return order_statistic(build(Weibull(2.0, 1.0)), 2, 3)


class TestSweep:
    """The one-pass Clenshaw-Curtis sweep behind numeric profiles and scalar L."""

    def _agrees(self, prof, mu_oracle, g_oracle):
        for t, mu, avg, L in zip(prof.grid, prof.mu, prof.mu_avg, prof.L):
            want_mu, want_g = mu_oracle(t), g_oracle(t)
            assert mu == pytest.approx(want_mu, rel=1e-9), f"mu at t={t}"
            assert avg * t == pytest.approx(want_g, rel=1e-9), f"G at t={t}"
            assert L == pytest.approx(want_mu * t / want_g, rel=1e-9), f"L at t={t}"

    @pytest.mark.parametrize("shape, hi", [(0.6, 20.0), (1.5, 6.0), (4.5, 2.0)])
    def test_weibull_against_incomplete_gamma(self, shape, hi):
        from scipy.integrate import quad

        mu = _weibull_mu(shape, 1.3)
        g = lambda t: quad(mu, 0.0, t, epsabs=1e-14, epsrel=1e-13, limit=200)[0]
        prof = profile(build(Weibull(shape, 1.3)), _linspace(0.1, 1.3 * hi, 32))
        self._agrees(prof, mu, g)

    def test_order_statistic_against_erfc(self):
        from scipy.integrate import quad

        g = lambda t: quad(_os23_weibull_mu, 0.0, t, epsabs=1e-14, epsrel=1e-13)[0]
        prof = profile(_os23_weibull(), _linspace(0.05, 2.5, 24))
        self._agrees(prof, _os23_weibull_mu, g)

    def test_numeric_convolution_against_hypoexponential(self):
        prof = profile(_hypoexponential_numeric(), _linspace(0.1, 8.0, 16))
        self._agrees(prof, _hypo_mu, _hypo_g)

    def test_closed_convolution_against_hypoexponential(self):
        # partial fractions give a closed mu, which the sweep integrates
        prof = profile(_hypoexponential_numeric(closed_forms=True), _linspace(0.1, 8.0, 16))
        self._agrees(prof, _hypo_mu, _hypo_g)

    @pytest.mark.parametrize("conv", [ZERO, SUPPORT, FORMAL])
    def test_shifted_support_matches_closed_forms(self, conv):
        # grid points below, at and above the support start of Pareto(3, 1)
        d = build(Pareto(3.0, 1.0))
        ts = [0.4, 0.7, 1.0, 1.6, 3.0, 7.5] if conv is not SUPPORT else [1.2, 2.0, 7.5]
        closed = profile(d, ts, conv)
        numeric = profile(d, ts, conv, method="quadrature")
        for name in ("mu", "mu_avg", "L"):
            assert getattr(numeric, name) == pytest.approx(getattr(closed, name), rel=1e-9)

    def test_scalar_calls_are_one_point_profiles(self):
        for d, ts in (
            (_os23_weibull(), _linspace(0.05, 2.5, 8)),
            (build(Weibull(1.5, 1.3)), _linspace(0.1, 6.0, 8)),
            (build(Erlang(5, 1.0)), _linspace(0.2, 9.0, 8)),
        ):
            prof = profile(d, ts)
            for t, avg, L in zip(ts, prof.mu_avg, prof.L):
                assert mrl_average(d, t) == pytest.approx(avg, rel=1e-11)
                assert mrlai(d, t) == pytest.approx(L, rel=1e-11)

    def test_erlang_quadrature_path_within_1e9(self):
        d = build(Erlang(2, 2.0))
        printed = ((0.5, 0.885924163724462), (2.0, 0.855700709220817), (4.5, 0.875905814337691))
        for t, want in printed:
            assert mrlai(d, t, method="quadrature") == pytest.approx(want, rel=1e-9)
        ts = _linspace(0.05, 12.0, 40)
        closed = profile(d, ts)
        numeric = profile(d, ts, method="quadrature")
        assert numeric.L == pytest.approx(closed.L, rel=1e-9)

    def test_non_finite_survival_is_a_domain_error(self):
        from mrlai.distributions import Dist
        from mrlai.errors import DomainError

        bad = Dist(None, lambda t: math.nan if 1.0 < t < 1.5 else math.exp(-t), (0.0, math.inf))
        with pytest.raises(DomainError):
            profile(bad, [0.5, 2.0, 3.0])

    def test_beyond_support(self):
        for method in ("auto", "quadrature"):
            with pytest.raises(BeyondSupport):
                profile(build(Uniform(0.0, 2.0)), [0.5, 1.0, 2.5], method=method)
        # survival of Weibull(4.5, 1) underflows to zero long before t = 20
        with pytest.raises(BeyondSupport):
            profile(build(Weibull(4.5, 1.0)), [0.5, 1.0, 20.0])
        with pytest.raises(BeyondSupport):
            mrlai(build(Weibull(4.5, 1.0)), 20.0)

    def test_average_up_to_the_support_end(self):
        # mu(2) is undefined, but G(2) = int_0^2 (2 - u)/2 du = 1 is not
        d = build(Uniform(0.0, 2.0))
        assert mrl_average(d, 2.0, method="quadrature") == pytest.approx(0.5, rel=1e-12)
        with pytest.raises(BeyondSupport):
            mrlai(d, 2.0, method="quadrature")

    def test_average_past_the_support_end(self):
        # one rule for both methods: G stops at the support end
        u = build(Uniform(0.0, 1.0))
        uu = build(Convolution((Uniform(0.0, 1.0), Uniform(0.0, 1.0))))
        for method in ("auto", "quadrature"):
            for d, t in ((u, 1.5), (uu, 2.5)):
                with pytest.raises(BeyondSupport, match="past support end"):
                    mrl_average(d, t, method=method)
        at_end = mrl_average(u, 1.0)
        assert at_end == pytest.approx(mrl_average(u, 1.0, method="quadrature"), rel=1e-12)
        assert at_end == 0.25  # int_0^1 (1 - u)/2 du

    def test_jump_in_survival_exhausts_max_depth(self):
        from mrlai.distributions import Dist
        from mrlai.errors import NonConvergence

        # an atom at t = 1/3 drops the survival by a quarter
        jump = Dist(
            None,
            lambda t: math.exp(-t) * (1.0 if t < 1.0 / 3.0 else 0.75),
            (0.0, math.inf),
            mean=1.0 - 0.25 * math.exp(-1.0 / 3.0),
        )
        with pytest.raises(NonConvergence):
            profile(jump, [0.5, 1.0, 2.0], cfg=QuadConfig(max_depth=10))

    def test_sweeps_split_at_breakpoints(self, monkeypatch):
        import mpmath

        from mrlai import ageing
        from mrlai.ageing import _tails_on_grid
        from mrlai.classify import Grid
        from mrlai.ops import mixture

        # the survival kinks at the interior breakpoint 1, between grid points
        d = mixture([0.5, 0.5], [build(Uniform(0.0, 1.0)), build(Uniform(0.0, 3.0))])
        assert d.breakpoints == (0.0, 1.0, 3.0)
        ts = Grid(0.05, 2.5, 64).points()
        assert 1.0 not in ts and ts[0] < 1.0 < ts[-1]
        swept = []
        real = ageing.cheb_sweep
        monkeypatch.setattr(
            ageing, "cheb_sweep", lambda f, knots, *a: swept.append(knots) or real(f, knots, *a)
        )
        prof = profile(d, ts, method="quadrature")
        dd = _tails_on_grid(d, ts, ZERO, QuadConfig())[1]
        assert len(swept) == 2 and all(1.0 in knots for knots in swept)

        with mpmath.workdps(30):
            # U(0, h) has S = 1 - u/h and T = (h - u)^2 / (2h) on [0, h]
            S = lambda u: sum(0.5 * max(h - u, 0) / h for h in (1, 3))
            T = lambda u: sum(0.5 * max(h - u, 0) ** 2 / (2 * h) for h in (1, 3))
            mu = lambda u: T(u) / S(u)
            for t, m, avg, D in zip(ts, prof.mu, prof.mu_avg, dd):
                t_mp = mpmath.mpf(t)
                cuts = [0, 1, t_mp] if t > 1 else [0, t_mp]
                assert m == pytest.approx(float(mu(t_mp)), rel=1e-9), t
                assert avg * t == pytest.approx(float(mpmath.quad(mu, cuts)), rel=1e-9), t
                cuts = [t_mp, 1, 3] if t < 1 else [t_mp, 3]
                assert D == pytest.approx(float(mpmath.quad(T, cuts)), rel=1e-9), t

    def test_grid_must_increase(self):
        from mrlai.errors import GridError

        with pytest.raises(GridError):
            profile(build(Weibull(1.5, 1.0)), [0.5, 2.0, 1.0])

    @pytest.mark.parametrize(
        "spec", [Exponential(1.0), Erlang(2, 1.0), Uniform(0.0, 3.0), Weibull(1.5, 1.0)]
    )
    @pytest.mark.parametrize("ts", [[2.0, 1.0], [1.0, 1.0]])
    def test_grid_must_increase_on_every_path(self, spec, ts):
        from mrlai.errors import GridError

        # closed-form families raise like the numeric sweep does
        with pytest.raises(GridError, match="strictly increasing"):
            profile(build(spec), ts)

    @pytest.mark.parametrize(
        "make, ts",
        [
            (lambda: build(Weibull(1.5, 2.0)), _linspace(0.1, 10.0, 32)),
            (_hypoexponential_numeric, _linspace(0.1, 8.0, 16)),
        ],
        ids=["weibull", "exp+exp"],
    )
    def test_survival_calls_per_point_stay_flat(self, make, ts):
        # nested quadrature (a fresh tail integral per outer node) costs
        # 2,100-6,500 survival calls per grid point on these profiles
        d = make()
        calls = _counted(d)
        profile(d, ts)
        assert calls[0] <= 150 * len(ts)
