"""Reliability operations: composites and their invariants."""

import json
import math
import random
import sys

import pytest

from mrlai.ageing import mrl, mrlai, profile
from mrlai.classify import Grid, Kind, classify_mrlai
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
    spec_from_dict,
    spec_to_dict,
    validate,
)
from mrlai.errors import NonConvergence, SpecError
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

    def test_only_the_right_summand_has_a_density(self):
        # the summands swap, so the integral runs over Exp(1)'s density
        u, e = build(Uniform(0.0, 1.0)), build(Exponential(1.0))
        bare = Dist(u.spec, u._survival, u.support, lineage="bare")
        swapped = convolution(bare, e)
        assert swapped.lineage == "convolution(exponential, bare)"
        assert not swapped.has_density
        want = convolution(u, e, closed_forms=False)
        for t in (0.3, 1.0, 2.5):
            assert swapped.survival(t) == pytest.approx(want.survival(t), rel=1e-15)


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

    @pytest.mark.parametrize(
        "spec, rescaled",
        [
            (
                Mixture((0.3, 0.7), (Exponential(1.0), Weibull(1.5, 1.0))),
                Mixture((0.3, 0.7), (Exponential(0.5), Weibull(1.5, 2.0))),
            ),
            (OrderStatistic(Weibull(1.5, 1.0), 2, 3), OrderStatistic(Weibull(1.5, 2.0), 2, 3)),
        ],
        ids=["mixture", "os23"],
    )
    def test_composites_rewrite_into_their_family(self, spec, rescaled):
        d = build(spec)
        assert d.spec.rescaled(2.0) == validate(rescaled)
        s, want = scale(d, 2.0), build(rescaled)
        for t in (0.3, 1.0, 2.5):
            assert s.survival(t) == want.survival(t)
            assert s.survival(t) == pytest.approx(d.survival(t / 2.0), rel=1e-15)

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


# ---------------------------------------------------------------------------
# kinks: Dist.breakpoints and the pre-split quadrature of composites
# ---------------------------------------------------------------------------

_PIECEWISE = MrlPiecewise(
    (1.0, 3.0), (PieceLinear(1.0, 0.0), PieceLinear(0.5, 0.5), PieceLinear(2.0, 0.0))
)


class TestBreakpoints:
    def test_families_contribute_finite_support_edges(self):
        assert build(Exponential(1.0)).breakpoints == (0.0,)
        assert build(Weibull(1.5, 2.0)).breakpoints == (0.0,)
        assert build(Uniform(0.5, 2.0)).breakpoints == (0.5, 2.0)
        assert build(Pareto(2.5, 1.5)).breakpoints == (1.5,)

    def test_piecewise_mrl_adds_its_breakpoints(self):
        assert build(_PIECEWISE).breakpoints == (0.0, 1.0, 3.0)

    def test_mixture_takes_the_union(self):
        m = mixture([0.5, 0.5], [build(Uniform(0.0, 1.0)), build(Uniform(0.5, 2.0))])
        assert m.breakpoints == (0.0, 0.5, 1.0, 2.0)
        m = mixture([0.3, 0.7], [build(_PIECEWISE), build(Pareto(2.5, 1.5))])
        assert m.breakpoints == (0.0, 1.0, 1.5, 3.0)

    def test_convolution_takes_pairwise_sums(self):
        u1, u2 = build(Uniform(0.0, 1.0)), build(Uniform(0.0, 2.0))
        assert convolution(u1, u2).breakpoints == (0.0, 1.0, 2.0, 3.0)
        assert convolution(build(Exponential(1.0)), u1).breakpoints == (0.0, 1.0)
        assert convolution(convolution(u1, u1), u1).breakpoints == (0.0, 1.0, 2.0, 3.0)
        shifted = convolution(build(Uniform(0.5, 1.0)), build(_PIECEWISE))
        assert shifted.breakpoints == (0.5, 1.0, 1.5, 2.0, 3.5, 4.0)
        # the closed Erlang merge keeps the merged family's edge
        assert convolution(build(Exponential(1.0)), build(Exponential(1.0))).breakpoints == (0.0,)

    def test_order_statistic_keeps_the_base(self):
        base = build(Uniform(0.5, 2.0))
        assert order_statistic(base, 2, 3).breakpoints == (0.5, 2.0)
        assert parallel(build(_PIECEWISE), 2).breakpoints == (0.0, 1.0, 3.0)

    def test_scale_multiplies(self):
        uu = convolution(build(Uniform(0.0, 1.0)), build(Uniform(0.0, 2.0)))
        assert scale(uu, 2.0).breakpoints == (0.0, 2.0, 4.0, 6.0)
        d = build(_PIECEWISE)
        assert scale(d, 1.5, rewrite=False).breakpoints == (0.0, 1.5, 4.5)
        assert scale(d, 1.5).breakpoints == (0.0, 1.5, 4.5)

    def test_relabel_carries_them_over(self):
        d = build(_PIECEWISE)
        again = d.relabel(Scaled(_PIECEWISE, 1.0), "renamed")
        assert again.breakpoints == d.breakpoints

    def test_derived_and_never_serialised(self):
        import mrlai.distributions as dist_mod
        import mrlai.ops as ops_mod
        import mrlai.quadrature as quad_mod

        spec = Convolution((Uniform(0.0, 1.0), OrderStatistic(_PIECEWISE, 2, 3)))
        assert spec_to_dict(spec) == {
            "family": "convolution",
            "components": [
                {"family": "uniform", "lo": 0.0, "hi": 1.0},
                {
                    "family": "order_statistic",
                    "base": {
                        "family": "mrl_piecewise",
                        "breakpoints": [1.0, 3.0],
                        "pieces": [
                            {"kind": "linear", "a": 1.0, "b": 0.0},
                            {"kind": "linear", "a": 0.5, "b": 0.5},
                            {"kind": "linear", "a": 2.0, "b": 0.0},
                        ],
                    },
                    "k": 2,
                    "n": 3,
                },
            ],
        }
        assert spec_from_dict(json.loads(json.dumps(spec_to_dict(spec)))) == spec
        assert ops_mod.__all__ == ["mixture", "convolution", "order_statistic", "parallel", "scale"]
        assert quad_mod.__all__ == [
            "QuadConfig", "CumulativeTable", "integrate_finite", "integrate_tail",
            "cumulative_on_grid", "ChebPanel", "cheb_sweep",
        ]
        assert dist_mod.__all__ == [
            "Exponential", "Weibull", "Pareto", "Erlang", "Uniform", "MrlLinear",
            "MrlReciprocalLinear", "MrlExponential", "MrlPiecewise", "PieceLinear",
            "PieceExpAffine", "PieceSqrtAffine", "PieceRecipLinear", "Mixture", "Convolution",
            "OrderStatistic", "Scaled", "Dist", "FormalExtension", "validate", "build",
            "spec_to_dict", "spec_from_dict", "dump_spec", "load_spec", "load_spec_file",
        ]


def _uu_survival(t):
    if t <= 1.0:
        return 1.0 - 0.5 * t * t
    return 0.5 * (2.0 - t) ** 2


def _uu_tail(t):
    if t <= 1.0:
        return 1.0 - t + t**3 / 6.0
    return (2.0 - t) ** 3 / 6.0


def _eu_survival(t):
    # Exp(1) + U(0, 1)
    if t <= 1.0:
        return 2.0 - t - math.exp(-t)
    return (math.e - 1.0) * math.exp(-t)


def _eu_tail(t):
    if t <= 1.0:
        return 2.5 - 2.0 * t + 0.5 * t * t - math.exp(-t)
    return (math.e - 1.0) * math.exp(-t)


def _irwin_hall3_survival(t):
    cdf = sum((-1) ** k * math.comb(3, k) * (t - k) ** 3 for k in range(4) if k <= t) / 6.0
    return 1.0 - cdf


def _irwin_hall3_tail(t):
    # 3 - t - int_t^3 F, with int F = sum (-1)^k C(3,k) (x-k)^4 / 24
    anti = sum((-1) ** k * math.comb(3, k) * (t - k) ** 4 for k in range(4) if k <= t) / 24.0
    return 1.5 - t + anti


def _mp_G(mu, ts, kinks):
    """int_0^t mu at every t of the increasing ``ts``, by mpmath, split at the kinks."""
    import mpmath

    mpmath.mp.dps = 25
    out, acc, lo = [], mpmath.mpf(0), 0.0
    for t in ts:
        pts = [lo] + [k for k in kinks if lo < k < t] + [t]
        acc += mpmath.quad(lambda u: mu(float(u)), pts)
        out.append(float(acc))
        lo = t
    return out


class TestKinkedComposites:
    """Convolutions with a uniform summand against their closed forms."""

    @staticmethod
    def uu():
        return convolution(build(Uniform(0.0, 1.0)), build(Uniform(0.0, 1.0)))

    @staticmethod
    def eu():
        return convolution(build(Exponential(1.0)), build(Uniform(0.0, 1.0)))

    @pytest.mark.parametrize("t", [0.05, 0.37, 0.999, 1.0, 1.29, 1.71, 1.97])
    def test_triangular_survival_tail_mrl(self, t):
        d = self.uu()
        assert d.survival(t) == pytest.approx(_uu_survival(t), rel=1e-9, abs=1e-12)
        assert d.tail(t) == pytest.approx(_uu_tail(t), rel=1e-9, abs=1e-12)
        assert mrl(d, t) == pytest.approx(_uu_tail(t) / _uu_survival(t), rel=1e-9)

    def test_triangular_mrlai(self):
        ts = [0.2, 0.37, 1.0, 1.29, 1.8]
        mu = lambda u: _uu_tail(u) / _uu_survival(u)
        for t, g in zip(ts, _mp_G(mu, ts, (1.0,))):
            assert mrlai(self.uu(), t) == pytest.approx(mu(t) * t / g, rel=1e-9)

    @pytest.mark.parametrize("order", ["eu", "ue"])
    def test_exp_plus_uniform_scalar_mrlai(self, order):
        e, u = build(Exponential(1.0)), build(Uniform(0.0, 1.0))
        d = convolution(e, u) if order == "eu" else convolution(u, e)
        for t in (0.61, 1.13):
            assert d.tail(t) == pytest.approx(_eu_tail(t), rel=1e-9)
            assert d.survival(t) == pytest.approx(_eu_survival(t), rel=1e-9)
        mu = lambda x: _eu_tail(x) / _eu_survival(x)
        (g,) = _mp_G(mu, [2.0], (1.0,))
        assert mrlai(d, 2.0) == pytest.approx(mu(2.0) * 2.0 / g, rel=1e-9)

    def test_exp_plus_uniform_profile(self):
        ts = [0.1 + 1.8 * i / 63 for i in range(64)]
        p = profile(self.eu(), ts)
        mu = lambda x: _eu_tail(x) / _eu_survival(x)
        for t, g, m, avg, L in zip(ts, _mp_G(mu, ts, (1.0,)), p.mu, p.mu_avg, p.L):
            assert m == pytest.approx(mu(t), rel=1e-9)
            assert avg == pytest.approx(g / t, rel=1e-9)
            assert L == pytest.approx(mu(t) * t / g, rel=1e-9)

    @pytest.mark.parametrize("t", [0.9, 1.4, 2.9])
    def test_nested_sum_of_three_uniforms(self, t):
        u = build(Uniform(0.0, 1.0))
        d = convolution(convolution(u, u), u)
        assert d.survival(t) == pytest.approx(_irwin_hall3_survival(t), rel=1e-9)
        assert d.tail(t) == pytest.approx(_irwin_hall3_tail(t), rel=1e-9)
        assert mrl(d, t) == pytest.approx(
            _irwin_hall3_tail(t) / _irwin_hall3_survival(t), rel=1e-9
        )

    @pytest.mark.parametrize("t", [0.4, 1.0, 1.3, 1.8])
    def test_order_statistic_of_a_sum(self, t):
        import mpmath

        d = order_statistic(self.uu(), 2, 3)
        s_os = lambda x: 3 * _uu_survival(x) ** 2 - 2 * _uu_survival(x) ** 3
        mpmath.mp.dps = 25
        pts = [t] + ([1.0] if t < 1.0 else []) + [2.0]
        tail = float(mpmath.quad(lambda x: s_os(float(x)), pts))
        assert d.survival(t) == pytest.approx(s_os(t), rel=1e-9)
        assert d.tail(t) == pytest.approx(tail, rel=1e-9)
        assert mrl(d, t) == pytest.approx(tail / s_os(t), rel=1e-9)

    def test_survival_calls_stay_bounded(self, monkeypatch):
        # blind bisection towards the kinks made 1,316,282 and 222,855 calls,
        # counted over every Dist, summands included
        calls = [0]
        survival = Dist.survival

        def counted(self, t):
            calls[0] += 1
            return survival(self, t)

        monkeypatch.setattr(Dist, "survival", counted)
        mrl(self.uu(), 0.37)
        assert calls[0] <= 20_000
        calls[0] = 0
        self.eu().tail(1.13)
        assert calls[0] <= 60_000
        calls[0] = 0
        mrl(convolution(self.uu(), build(Uniform(0.0, 1.0))), 0.9)
        assert calls[0] <= 12_000


def _weibull_tail(shape, scale_, t):
    from scipy.special import gamma as gamma_fn
    from scipy.special import gammaincc

    return scale_ / shape * gamma_fn(1.0 / shape) * gammaincc(1.0 / shape, (t / scale_) ** shape)


class TestNumericTails:
    """A composite tail counts as closed only when every part's tail is."""

    @pytest.mark.parametrize("which", ["mixture", "scaled"])
    def test_profile_chains_one_tail(self, which, monkeypatch):
        from scipy.integrate import quad

        import mrlai.distributions as dist_mod

        w = build(Weibull(1.5, 1.0))
        if which == "mixture":
            d = mixture([0.5, 0.5], [w, build(Exponential(1.0))])
            surv = lambda t: 0.5 * math.exp(-(t**1.5)) + 0.5 * math.exp(-t)
            tail = lambda t: 0.5 * _weibull_tail(1.5, 1.0, t) + 0.5 * math.exp(-t)
        else:
            d = scale(w, 2.0, rewrite=False)
            surv = lambda t: math.exp(-((t / 2.0) ** 1.5))
            tail = lambda t: _weibull_tail(1.5, 2.0, t)
        calls = [0]
        integrate_tail = dist_mod.integrate_tail

        def counted(*args, **kwargs):
            calls[0] += 1
            return integrate_tail(*args, **kwargs)

        monkeypatch.setattr(dist_mod, "integrate_tail", counted)
        ts = [0.2 + 0.2 * i for i in range(16)]
        p = profile(d, ts)
        # a closed-mu sweep paid one improper integral per Chebyshev node (600+)
        assert calls[0] <= 2
        mu = lambda t: tail(t) / surv(t)
        for t, m, avg, L in zip(ts, p.mu, p.mu_avg, p.L):
            g, _ = quad(mu, 0.0, t, epsabs=1e-14, epsrel=1e-13)
            assert m == pytest.approx(mu(t), rel=1e-9)
            assert avg == pytest.approx(g / t, rel=1e-9)
            assert L == pytest.approx(mu(t) * t / g, rel=1e-9)

    def test_closed_parts_keep_a_closed_tail(self):
        m = mixture([0.4, 0.6], [build(Exponential(1.0)), build(Uniform(0.0, 2.0))])
        assert m._tail is not None
        assert m.tail(0.5) == pytest.approx(0.4 * math.exp(-0.5) + 0.6 * 1.5**2 / 4.0, rel=1e-14)
        assert scale(build(Erlang(2, 1.0)), 2.0, rewrite=False)._tail is not None
        assert mixture([0.5, 0.5], [build(Weibull(1.5, 1.0)), m])._tail is None


def _exp_weibull_survival(shape, t):
    """P(E + W > t) for E ~ Exp(1) and W ~ Weibull(shape, 1), by mpmath:
    S_W(t) + int_0^t f_W(y) e^{-(t - y)} dy, split near t where the
    exponential factor lives."""
    import mpmath

    with mpmath.workdps(30):
        t = mpmath.mpf(t)
        f = lambda y: shape * y ** (shape - 1) * mpmath.exp(-(y**shape))
        cuts = sorted({mpmath.mpf(0), *(max(t - w, 0) for w in (200, 50, 10)), t})
        return float(mpmath.exp(-(t**shape)) + mpmath.quad(lambda y: f(y) * mpmath.exp(y - t), cuts))


class TestHeavyTailedConvolution:
    """Known defects of the numeric convolution, with a Weibull summand of
    shape below 1 or an inner integrand concentrated near u = t, pinned so
    that a fix shows up as an unexpected pass."""

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the far tail of Exp(1) + Weibull(0.2) is lost: 7.09e-107")
    def test_far_tail_of_exponential_plus_weibull(self):
        c = convolution(build(Exponential(1.0)), build(Weibull(0.2, 1.0)), closed_forms=False)
        assert c.survival(1e5) == pytest.approx(_exp_weibull_survival(0.2, 1e5), rel=1e-6)

    @pytest.mark.xfail(strict=True, raises=NonConvergence,
                       reason="the inner integral meets the infinite Weibull(0.4) density at 0")
    def test_weibull_plus_exponential_near_the_origin(self):
        c = convolution(build(Weibull(0.4, 1.0)), build(Exponential(1.0)), closed_forms=False)
        assert c.survival(0.5) == pytest.approx(_exp_weibull_survival(0.4, 0.5), rel=1e-6)

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the inner integrand's peak near u = t is missed: S off by -8.2e-4")
    def test_concentrated_inner_integrand(self):
        # the closed sum is checked against mpmath in TestExponentialSums
        x, y = build(Erlang(100, 0.01)), build(Exponential(1.0))
        numeric, closed = convolution(x, y, closed_forms=False), convolution(x, y)
        assert numeric.survival(1e4) == pytest.approx(closed.survival(1e4), rel=1e-5)
        assert numeric.density(5000.0) == pytest.approx(closed.density(5000.0), rel=1e-5)


# ---------------------------------------------------------------------------
# closed sums of exponential lifetimes: partial fractions, no nested quadrature
# ---------------------------------------------------------------------------


def _mp_distinct(rates):
    """S, f and T of a sum of exponentials of distinct rates, by mpmath:
    S = sum_i C_i e^(-l_i t) with C_i = prod_(j != i) l_j / (l_j - l_i)."""
    import mpmath

    ls = [mpmath.mpf(r) for r in rates]
    cs = [mpmath.fprod(lj / (lj - li) for lj in ls if lj != li) for li in ls]

    def parts(t):
        es = [c * mpmath.exp(-li * t) for c, li in zip(cs, ls)]
        return (mpmath.fsum(es), mpmath.fsum(e * li for e, li in zip(es, ls)),
                mpmath.fsum(e / li for e, li in zip(es, ls)))

    return parts


def _mp_erlang2_exp(lam, mu):
    """S, f and T of Erlang(2, lam) + Exp(mu), lam != mu, by mpmath, from
    S = S_X(t) + int_0^t lam^2 u e^(-lam u) e^(-mu (t - u)) du."""
    import mpmath

    lam, mu = mpmath.mpf(lam), mpmath.mpf(mu)
    d = lam - mu

    def parts(t):
        inner = (1 - mpmath.exp(-d * t) * (1 + d * t)) / d**2  # int_0^t u e^(-d u) du
        S = mpmath.exp(-lam * t) * (1 + lam * t) + lam**2 * mpmath.exp(-mu * t) * inner
        f = lam**2 * mu * mpmath.exp(-mu * t) * inner
        T = (mpmath.exp(-lam * t) * (2 + lam * t) / lam
             + lam**2 / d**2 * (mpmath.exp(-mu * t) / mu
                                - mpmath.exp(-lam * t) * (1 / lam + d * t / lam + d / lam**2)))
        return S, f, T

    return parts


def _mp_erlang_exp(k, lam, mu, t):
    """(S, f, T, T/S) of Erlang(k, lam) + Exp(mu) at t as floats, by mpmath
    at 60 digits: f = mu e^(-mu t) lam^k/(k-1)! int_0^t u^(k-1) e^((mu-lam) u) du
    with the integral t^k/k 1F1(k; k+1; (mu - lam) t), S = S_E + f/mu and
    T = T_E + S/mu for the Erlang's own S_E and T_E."""
    import mpmath

    with mpmath.workdps(60):
        lam, mu, t = mpmath.mpf(lam), mpmath.mpf(mu), mpmath.mpf(t)
        f = (mu * mpmath.exp(-mu * t) * lam**k / mpmath.factorial(k - 1)
             * t**k / k * mpmath.hyp1f1(k, k + 1, (mu - lam) * t))
        Q = lambda a: mpmath.gammainc(a, lam * t, mpmath.inf, regularized=True)
        S = Q(k) + f / mu
        T = k / lam * Q(k + 1) - t * Q(k) + S / mu
        return float(S), float(f), float(T), float(T / S)


_SUMS = {
    "exp1+exp2": ((Exponential(1.0), Exponential(2.0)), _mp_distinct([1, 2])),
    "exp2+exp1": ((Exponential(2.0), Exponential(1.0)), _mp_distinct([2, 1])),
    "exp1+exp2+exp3": ((Exponential(1.0), Exponential(2.0), Exponential(3.0)),
                       _mp_distinct([1, 2, 3])),
    "erlang2+exp3": ((Erlang(2, 1.0), Exponential(3.0)), _mp_erlang2_exp(1, 3)),
}


def _summed(specs, closed_forms=True):
    out = build(specs[0])
    for s in specs[1:]:
        out = convolution(out, build(s), closed_forms=closed_forms)
    return out


def _mp_values(parts, t, dps=30):
    """(S, f, T) at t as floats, at ``dps`` digits."""
    import mpmath

    with mpmath.workdps(dps):
        return tuple(float(v) for v in parts(mpmath.mpf(t)))


def _mp_L(parts, ts):
    import mpmath

    with mpmath.workdps(30):
        mu = lambda u: parts(u)[2] / parts(u)[0]
        return [float(mu(t) * t / mpmath.quad(mu, [0, t])) for t in ts]


class TestExponentialSums:
    TS = [0.01, 0.05, 0.3, 1.0, 2.5, 6.0, 15.0]

    @pytest.mark.parametrize("name", sorted(_SUMS))
    def test_against_mpmath(self, name):
        specs, parts = _SUMS[name]
        d = _summed(specs)
        assert d._tail is not None and d.has_closed_mrl
        for t in self.TS:
            S, f, T = _mp_values(parts, t)
            assert d.survival(t) == pytest.approx(S, rel=1e-12, abs=0.0), f"S at t={t}"
            assert d.density(t) == pytest.approx(f, rel=1e-12, abs=0.0), f"f at t={t}"
            assert d.tail(t) == pytest.approx(T, rel=1e-12, abs=0.0), f"T at t={t}"
            assert mrl(d, t) == pytest.approx(T / S, rel=1e-12, abs=0.0), f"mu at t={t}"
        assert profile(d, self.TS).L == pytest.approx(_mp_L(parts, self.TS), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("name", sorted(_SUMS))
    def test_against_the_numeric_path(self, name):
        # to the inner quadrature's own relative tolerance
        specs, _ = _SUMS[name]
        d, numeric = _summed(specs), _summed(specs, closed_forms=False)
        ts = [0.3, 2.5] if len(specs) > 2 else self.TS
        for t in ts:
            assert d.survival(t) == pytest.approx(numeric.survival(t), rel=1e-9, abs=0.0)
            assert d.density(t) == pytest.approx(numeric.density(t), rel=1e-9, abs=0.0)
            assert d.tail(t) == pytest.approx(numeric.tail(t), rel=1e-9, abs=0.0)
        if len(specs) == 2:  # a profile of a doubly nested sum takes seconds
            closed, swept = profile(d, ts), profile(numeric, ts)
            assert closed.mu == pytest.approx(swept.mu, rel=1e-9, abs=0.0)
            assert closed.L == pytest.approx(swept.L, rel=1e-9, abs=0.0)

    def test_mean_is_exact(self):
        assert _summed(_SUMS["exp1+exp2+exp3"][0]).mean == math.fsum([1.0, 0.5, 1.0 / 3.0])
        assert _summed(_SUMS["erlang2+exp3"][0]).mean == math.fsum([2.0, 1.0 / 3.0])

    @pytest.mark.parametrize("name", sorted(_SUMS))
    def test_near_the_origin(self, name):
        specs, parts = _SUMS[name]
        d = _summed(specs)
        assert d.density(0.0) == 0.0 and d.survival(0.0) == 1.0
        for t in (1e-12, 1e-6):
            assert d.density(t) >= 0.0 and d.survival(t) <= 1.0
            # the partial fractions cancel here, so the oracle needs more digits
            S, f, T = _mp_values(parts, t, dps=60)
            assert d.survival(t) == pytest.approx(S, rel=1e-12, abs=0.0)
            assert d.density(t) == pytest.approx(f, rel=1e-12, abs=0.0)

    def test_high_multiplicity_density(self):
        # Erlang(4, 1) + Erlang(3, 2) + Erlang(2, 5): the partial fractions
        # lose up to 1e-7 of the density for lam_max t up to about 4, where
        # the power series at 0 still holds every digit
        import mpmath

        d = _summed((Erlang(4, 1.0), Erlang(3, 2.0), Erlang(2, 5.0)))
        assert d._tail is not None
        rates = [1] * 4 + [2] * 3 + [5] * 2
        with mpmath.workdps(60):
            n = len(rates)
            Q = mpmath.zeros(n, n)  # the phase-type generator: one phase per exponential
            for i, r in enumerate(rates):
                Q[i, i] = -r
                if i + 1 < n:
                    Q[i, i + 1] = r
            exit_rates = -Q * mpmath.matrix([1] * n)
            for x in (0.5, 1.5, 3.0, 4.5, 6.0, 9.0, 14.0):
                t = x / 5.0
                want = float((mpmath.expm(Q * mpmath.mpf(t)) * exit_rates)[0])
                assert d.density(t) == pytest.approx(want, rel=1e-12, abs=0.0), f"f at t={t}"

    def test_far_tail_mrl_is_the_smallest_rate(self):
        for specs, lam_min in (((Exponential(1.0), Exponential(2.0)), 1.0),
                               ((Exponential(3.0), Exponential(2.0)), 2.0)):
            d = _summed(specs)
            assert d.survival(800.0) == 0.0
            assert mrl(d, 800.0) == pytest.approx(1.0 / lam_min, rel=1e-12, abs=0.0)

    def test_far_tail_mrl_of_an_erlang_summand(self):
        # S = e^(-t) (t^2 + 2) - e^(-2t) and T = e^(-t) (t^2 + 2t + 4) - e^(-2t)/2,
        # whose t^2 overflows at t = 1e200
        d = _summed((Erlang(3, 1.0), Exponential(2.0)))
        for t in (40.0, 1e5, 1e200):
            u = 1.0 / t
            want = (1.0 + 2.0 * u + 4.0 * u * u) / (1.0 + 2.0 * u * u)
            assert mrl(d, t) == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("k, lam, mu", [(100, 0.01, 1.0), (100, 1.0, 0.01), (60, 1.0, 1e3)])
    def test_high_shape_against_the_exact_oracle(self, k, lam, mu):
        # Erlang(k, lam) + Exp(mu): the partial fractions' coefficients in t
        # under- or overflow for these rates; in lam_min t they do not
        d, mean = _summed((Erlang(k, lam), Exponential(mu))), k / lam + 1.0 / mu
        assert d._tail is not None and d.mean == mean
        for i in range(40):
            t = mean * 2e-4 * 1.3**i
            want = _mp_erlang_exp(k, lam, mu, t)
            got = (d.survival(t), d.density(t), d.tail(t), mrl(d, t))
            for name, value, exact in zip("SfTm", got, want):
                if abs(exact) >= sys.float_info.min:  # a normal float
                    assert value == pytest.approx(exact, rel=1e-12, abs=0.0), f"{name} at t={t}"

    @pytest.mark.parametrize("c", [1e-60, 1e-200, 1e-300, 1e200, 1e300])
    def test_rates_scale_out(self, c):
        # X / c for X = Erlang(5, 1) + Exp(2): S(t) = S_1(c t), f = c f_1(c t),
        # T = T_1(c t) / c; at c = 1e-60 the product of the rates underflows
        d, unit = _summed((Erlang(5, c), Exponential(2 * c))), _summed((Erlang(5, 1.0), Exponential(2.0)))
        assert d._tail is not None
        for u in (1e-6, 0.01, 0.5, 3.0, 20.0, 80.0):
            t = u / c
            assert d.survival(t) == pytest.approx(unit.survival(u), rel=1e-12, abs=0.0)
            if c * unit.density(u) >= sys.float_info.min:
                assert d.density(t) == pytest.approx(c * unit.density(u), rel=1e-12, abs=0.0)
            assert d.tail(t) == pytest.approx(unit.tail(u) / c, rel=1e-12, abs=0.0)
            assert mrl(d, t) == pytest.approx(mrl(unit, u) / c, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("closed, numeric", [
        ((Exponential(1.0), Exponential(1.002)), (Exponential(1.0), Exponential(1.0005))),
        ((Erlang(2, 1.0), Exponential(1.05)), (Erlang(2, 1.0), Exponential(1.03))),
    ])
    def test_cancellation_switch(self, closed, numeric):
        # amplification (max rate / rate gap)^(k_i + k_j - 1): 501 and 441
        # stay closed, 2001 and 1179 pass the 1e3 bound
        d = _summed(closed)
        assert d._tail is not None
        oracle = (_mp_distinct([s.rate for s in closed]) if isinstance(closed[0], Exponential)
                  else _mp_erlang2_exp(closed[0].rate, closed[1].rate))
        for t in (0.05, 1.0, 4.0, 20.0):
            S, f, T = _mp_values(oracle, t)
            assert d.survival(t) == pytest.approx(S, rel=1e-12, abs=0.0)
            assert d.density(t) == pytest.approx(f, rel=1e-12, abs=0.0)
            assert mrl(d, t) == pytest.approx(T / S, rel=1e-12, abs=0.0)
        d, numeric_path = _summed(numeric), _summed(numeric, closed_forms=False)
        assert d._tail is None
        for t in (0.5, 3.0):
            assert d.survival(t) == numeric_path.survival(t)

    def test_rates_out_of_float_range_stay_numeric(self):
        # the rate ratio 1e200 squared overflows, so the sum is synthesised
        d = _summed((Erlang(2, 1e200), Exponential(1.0)))
        assert d._tail is None and d.lineage == "convolution(erlang, exponential)"

    @pytest.mark.parametrize("specs", [
        # the tail's coefficient 1/(1e200)^2 underflows
        (Exponential(1.0), Exponential(1e200)),
        # the partial fractions cancel up to 1e5 t of about 5e3, past the series' reach
        (Exponential(1.0), Erlang(2, 10.0), Erlang(2, 1e5)),
    ])
    def test_out_of_reach_sums_stay_numeric(self, specs):
        d = _summed(specs)
        assert d._tail is None and not d.has_closed_mrl

    def test_one_rate_lands_in_the_erlang_family(self):
        d = build(Convolution((Exponential(1.0), Exponential(1.0), Exponential(1.0))))
        want = build(Erlang(3, 1.0))
        assert d.lineage == (
            "convolution[erlang](convolution[erlang](exponential, exponential), exponential)"
        )
        assert d._mrl_integral is not None
        for t in (0.2, 1.5, 7.0):
            assert d.survival(t) == want.survival(t)
            assert mrl(d, t) == mrl(want, t)
            assert mrlai(d, t) == mrlai(want, t)

    def test_profile_makes_no_inner_integral(self, monkeypatch):
        import mrlai.distributions as dist_mod
        import mrlai.ops as ops_mod

        calls = []
        for mod, name in ((ops_mod, "integrate_finite"), (dist_mod, "integrate_finite"),
                          (dist_mod, "integrate_tail")):
            real = getattr(mod, name)
            monkeypatch.setattr(mod, name, lambda *a, _real=real, **k: calls.append(a) or _real(*a, **k))
        d = convolution(build(Exponential(1.0)), build(Exponential(2.0)))
        prof = profile(d, Grid(0.05, 10.0, 512))
        assert calls == []
        assert prof.mu[-1] == pytest.approx(1.0 + 0.5 * math.exp(-10.0) / (2.0 - math.exp(-10.0)),
                                            rel=1e-12, abs=0.0)
