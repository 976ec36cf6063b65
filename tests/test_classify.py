"""Monotonicity scanning and ageing-class verdicts."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrlai.ageing import Convention
from mrlai.classify import (
    Grid,
    Kind,
    MonotonicityVerdict,
    classify_hazard_ai,
    classify_mrl,
    classify_mrla,
    classify_mrlai,
    _best_witness,
    scan_monotonicity,
)
from mrlai.distributions import (
    Erlang,
    Exponential,
    MrlLinear,
    MrlPiecewise,
    Pareto,
    PieceExpAffine,
    PieceLinear,
    PieceSqrtAffine,
    build,
)
from mrlai.errors import GridError

E = math.e


class TestGrid:
    def test_linear_points(self):
        g = Grid(1.0, 2.0, 21)
        pts = g.points()
        assert pts[0] == 1.0 and pts[-1] == 2.0 and len(pts) == 21

    def test_log_points(self):
        g = Grid(0.01, 100.0, 41, "log")
        pts = g.points()
        ratios = [b / a for a, b in zip(pts, pts[1:])]
        assert max(ratios) == pytest.approx(min(ratios), rel=1e-9)

    def test_invariants(self):
        with pytest.raises(ValueError):
            Grid(2.0, 1.0)
        with pytest.raises(GridError):
            Grid(1.0, 2.0, 1)
        assert Grid(1.0, 2.0, 2).points() == [1.0, 2.0]
        with pytest.raises(ValueError):
            Grid(0.0, 1.0, 32, "log")


@pytest.mark.parametrize(
    "classify", [classify_mrl, classify_mrla, classify_mrlai, classify_hazard_ai]
)
def test_verdicts_need_sixteen_points(classify):
    # a Grid and its points alike
    d = build(Exponential(1.0))
    for grid in (Grid(0.1, 2.0, 8), Grid(0.1, 2.0, 8).points()):
        with pytest.raises(GridError, match="at least 16 grid points, got 8"):
            classify(d, grid)
    for grid in (Grid(0.1, 2.0, 16), Grid(0.1, 2.0, 16).points()):
        assert classify(d, grid).kind is Kind.CONSTANT


class TestScan:
    def test_increasing(self):
        ts = list(range(10))
        v = scan_monotonicity(ts, [0.1 * t for t in ts])
        assert v.kind is Kind.INCREASING

    def test_decreasing(self):
        ts = list(range(10))
        v = scan_monotonicity(ts, [1.0 / (1 + t) for t in ts])
        assert v.kind is Kind.DECREASING

    def test_constant_with_noise(self):
        ts = list(range(32))
        vals = [1.0 + 1e-12 * ((-1) ** t) for t in ts]
        v = scan_monotonicity(ts, vals)
        assert v.kind is Kind.CONSTANT
        assert v.level == pytest.approx(1.0, abs=1e-9)

    def test_valley_witness(self):
        ts = [0.0, 1.0, 2.0, 3.0, 4.0]
        vals = [5.0, 3.0, 1.0, 2.0, 4.0]
        v = scan_monotonicity(ts, vals)
        assert v.kind is Kind.NON_MONOTONE
        (t1, f1), (t2, f2), (t3, f3) = v.witness
        assert f1 > f2 < f3
        assert t1 < t2 < t3
        assert v.margin == pytest.approx(3.0)  # min(5-1, 4-1) at the bottom

    def test_peak_witness(self):
        ts = [0.0, 1.0, 2.0, 3.0]
        vals = [0.0, 2.0, 1.0, 0.5]
        v = scan_monotonicity(ts, vals)
        assert v.kind is Kind.NON_MONOTONE
        (t1, f1), (t2, f2), (t3, f3) = v.witness
        assert f1 < f2 > f3

    def test_witness_exceeds_tolerance(self):
        ts = list(range(8))
        vals = [1.0, 1.0 + 5e-7, 1.0 - 5e-7, 1.0, 1.0, 1.0, 1.0, 1.0 + 2e-6]
        v = scan_monotonicity(ts, vals, tol=1e-7)
        if v.kind is Kind.NON_MONOTONE:
            assert v.margin > 1e-7

    def test_drift_inside_the_noise_band(self):
        # each step of 4e-8 is inside tol 1e-7, the total of 1.2e-7 is not
        ts = [0.0, 1.0, 2.0, 3.0]
        vals = [1.0, 1.0 + 4e-8, 1.0 + 8e-8, 1.0 + 1.2e-7]
        assert scan_monotonicity(ts, vals, tol=1e-7).kind is Kind.INCREASING
        assert scan_monotonicity(ts, vals[::-1], tol=1e-7).kind is Kind.DECREASING

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            scan_monotonicity([0.0], [1.0])
        with pytest.raises(ValueError):
            scan_monotonicity([0.0, 1.0], [1.0, math.nan])

    @given(
        st.lists(st.floats(-100, 100), min_size=4, max_size=40),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_input_gets_a_verdict(self, vals):
        ts = list(range(len(vals)))
        v = scan_monotonicity(ts, vals)
        assert v.kind in Kind
        if v.kind is Kind.NON_MONOTONE:
            (t1, f1), (t2, f2), (t3, f3) = v.witness
            assert (f1 > f2 < f3) or (f1 < f2 > f3)

    @given(st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.0, -1.0, 0.5]), min_size=3, max_size=24))
    @settings(max_examples=300, deadline=None)
    def test_witness_matches_the_three_pass_search(self, vals):
        # ties everywhere, signed zeros included: the same triple and margin
        ts = [0.1 * i for i in range(len(vals))]
        assert repr(_best_witness(ts, vals)) == repr(_three_pass_witness(ts, vals))

    @given(st.integers(1, 1000))
    @settings(max_examples=30, deadline=None)
    def test_monotone_stays_monotone_under_scaling(self, k):
        ts = [0.1 * i for i in range(24)]
        vals = [k * (1 + 0.05 * i) for i in range(24)]
        assert scan_monotonicity(ts, vals).kind is Kind.INCREASING


def _three_pass_witness(ts, vals):
    """Reference witness search: index-tracking prefix and suffix extrema,
    then one scan over j, valley before peak."""
    n = len(vals)
    pre_max, pre_min = [0] * n, [0] * n
    for j in range(1, n):
        pre_max[j] = j - 1 if vals[j - 1] > vals[pre_max[j - 1]] else pre_max[j - 1]
        pre_min[j] = j - 1 if vals[j - 1] < vals[pre_min[j - 1]] else pre_min[j - 1]
    pre_max[0] = pre_min[0] = 0
    suf_max, suf_min = [n - 1] * n, [n - 1] * n
    for j in range(n - 2, -1, -1):
        suf_max[j] = j + 1 if vals[j + 1] > vals[suf_max[j + 1]] else suf_max[j + 1]
        suf_min[j] = j + 1 if vals[j + 1] < vals[suf_min[j + 1]] else suf_min[j + 1]
    best, best_margin = None, -math.inf
    for j in range(1, n - 1):
        i, k = pre_max[j], suf_max[j]
        valley = min(vals[i] - vals[j], vals[k] - vals[j])
        if valley > best_margin:
            best_margin, best = valley, (i, j, k)
        i, k = pre_min[j], suf_min[j]
        peak = min(vals[j] - vals[i], vals[j] - vals[k])
        if peak > best_margin:
            best_margin, best = peak, (i, j, k)
    i, j, k = best
    return ((ts[i], vals[i]), (ts[j], vals[j]), (ts[k], vals[k])), best_margin


class TestVerdicts:
    def test_erlang_intensity_non_monotone(self):
        d = build(Erlang(2, 2.0))
        v = classify_mrlai(d, Grid(0.1, 10.0, 128))
        assert v.kind is Kind.NON_MONOTONE
        mid_t = v.witness[1][0]
        assert 1.4 < mid_t < 2.6  # the dip the printed values straddle

    def test_exponential_constant_one(self):
        d = build(Exponential(1.0))
        v = classify_mrlai(d, Grid(0.1, 10.0, 128))
        assert v.kind is Kind.CONSTANT
        assert abs(v.level - 1.0) < 1e-6

    def test_linear_mrl_increasing(self):
        d = build(MrlLinear(1.0, 8.0))
        assert classify_mrlai(d, Grid(0.05, 30.0, 128)).kind is Kind.INCREASING

    def test_gamma_intensity_non_monotone(self):
        d = build(Erlang(3, 1.0))
        assert classify_mrlai(d, Grid(0.1, 12.0, 128)).kind is Kind.NON_MONOTONE

    def test_flat_then_linear_piecewise(self):
        d = build(MrlPiecewise((1.0,), (PieceLinear(0.5, 0.0), PieceLinear(-0.5, 1.0))))
        v = classify_mrlai(d, Grid(0.05, 12.0, 160))
        assert v.kind is Kind.NON_MONOTONE

    def test_pareto_formal_constant_two(self):
        d = build(Pareto(3.0, 1.0))
        v = classify_mrlai(d, Grid(1.0, 40.0, 128), Convention.FORMAL)
        assert v.kind is Kind.CONSTANT
        assert abs(v.level - 2.0) < 1e-6

    def test_mrl_verdicts(self):
        assert classify_mrl(build(Erlang(2, 2.0)), Grid(0.1, 10.0, 64)).kind is Kind.DECREASING
        assert classify_mrl(build(MrlLinear(1.0, 1.0)), Grid(0.1, 10.0, 64)).kind is Kind.INCREASING
        bumpy = build(
            MrlPiecewise(
                (1.0, 2.0),
                (
                    PieceExpAffine(1.0, -0.4 / E, 1.0),
                    PieceLinear(0.0, 0.6),
                    PieceLinear(1.2, 0.0),
                ),
            )
        )
        assert classify_mrl(bumpy, Grid(0.05, 6.0, 160)).kind is Kind.NON_MONOTONE

    def test_mrla_verdicts(self):
        assert (
            classify_mrla(build(Exponential(2.0)), Grid(0.1, 10.0, 64)).kind
            is Kind.CONSTANT
        )
        assert (
            classify_mrla(build(MrlLinear(1.0, 2.0)), Grid(0.1, 10.0, 64)).kind
            is Kind.INCREASING
        )
        sqrt_mrl = build(MrlPiecewise((), (PieceSqrtAffine(2.0, 2.0),)))
        v = classify_mrla(sqrt_mrl, Grid(0.1, 50.0, 64))
        assert v.kind is Kind.INCREASING

    def test_implication_increasing_mrl_means_L_at_least_one(self):
        from mrlai.ageing import profile

        for spec in (MrlLinear(1.0, 1.0), MrlPiecewise((), (PieceSqrtAffine(2.0, 2.0),))):
            d = build(spec)
            grid = Grid(0.05, 25.0, 96)
            assert classify_mrl(d, grid).kind is Kind.INCREASING
            assert min(profile(d, grid.points()).L) >= 1.0 - 1e-9

    def test_implication_decreasing_mrl_means_L_at_most_one(self):
        from mrlai.ageing import profile

        for spec in (Erlang(2, 2.0), Erlang(3, 1.0)):
            d = build(spec)
            grid = Grid(0.05, 25.0, 96)
            assert classify_mrl(d, grid).kind is Kind.DECREASING
            assert max(profile(d, grid.points()).L) <= 1.0 + 1e-9

    def test_refinement_never_flips_direction(self):
        cases = [
            (Erlang(2, 2.0), "mrl"),
            (MrlLinear(1.0, 8.0), "mrlai"),
            (Exponential(1.0), "mrlai"),
            (Erlang(3, 1.0), "mrlai"),
        ]
        classify = {"mrl": classify_mrl, "mrlai": classify_mrlai}
        for spec, what in cases:
            d = build(spec)
            coarse = classify[what](d, Grid(0.1, 10.0, 64))
            fine = classify[what](d, Grid(0.1, 10.0, 128))
            monotone = {Kind.INCREASING, Kind.DECREASING}
            if coarse.kind in monotone and fine.kind in monotone:
                assert coarse.kind == fine.kind

    def test_str_rendering(self):
        assert "constant" in str(MonotonicityVerdict(Kind.CONSTANT, level=2.0))
        assert "increasing" == str(MonotonicityVerdict(Kind.INCREASING))
