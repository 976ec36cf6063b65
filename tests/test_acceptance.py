"""Acceptance suite: one test per exit criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS line per
criterion.
"""

import math
import random

from mrlai.ageing import Convention, mrl, mrlai, profile
from mrlai.classify import Grid, Kind, classify_mrl, classify_mrlai
from mrlai.cli import main as cli_main
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
    PieceSqrtAffine,
    Uniform,
    Weibull,
    build,
)
from mrlai.ops import convolution, mixture, order_statistic, parallel, scale
from mrlai.orders import Relation, mrlai_order, ratio_test
from mrlai.quadrature import QuadConfig, integrate_finite, integrate_tail

ZERO = Convention.ZERO
FORMAL = Convention.FORMAL
E = math.e


def _rel(a, b):
    return abs(a - b) / abs(b)


def _linspace(lo, hi, n):
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def test_criterion_1_erlang_intensity_both_paths():
    d = build(Erlang(2, 2.0))
    expected = {0.5: 0.885924163724462, 2.0: 0.855700709220817, 4.5: 0.875905814337691}
    for t, want in expected.items():
        assert _rel(mrlai(d, t, method="auto"), want) < 1e-9
        assert _rel(mrlai(d, t, method="quadrature"), want) < 1e-9
    print("ACCEPTANCE 1 PASS: Erlang intensity values on closed and quadrature paths (1e-9)")


def test_criterion_2_gamma_intensity():
    d = build(Erlang(3, 1.0))
    for t, want in [(2.5, 0.7767024), (5.0, 0.7525321), (10.0, 0.7720608)]:
        assert _rel(mrlai(d, t), want) < 1e-5
    verdict = classify_mrlai(d, Grid(0.1, 12.0, 128))
    assert verdict.kind is Kind.NON_MONOTONE
    print("ACCEPTANCE 2 PASS: gamma intensity values (1e-5) and non-monotone verdict")


def test_criterion_3_characterisations():
    exp_prof = profile(build(Exponential(1.3)), _linspace(0.02, 20.0, 512))
    assert max(abs(v - 1.0) for v in exp_prof.L) < 1e-8

    par_prof = profile(build(Pareto(3.0, 1.0)), _linspace(1.0, 40.0, 256), FORMAL)
    assert max(abs(v - 2.0) for v in par_prof.L) < 1e-6

    rng = random.Random(20240809)
    for _ in range(10):
        a, b = rng.uniform(0.2, 3.0), rng.uniform(0.0, 2.0)
        d = build(MrlLinear(a, b))
        for t in (0.4, 1.3, 5.0):
            want = (a + b * t) / (a + 0.5 * b * t)
            assert _rel(mrlai(d, t), want) < 1e-8
    print("ACCEPTANCE 3 PASS: unit/two/linear intensity characterisations")


def test_criterion_4_inversion_round_trip():
    specs = [
        MrlLinear(1.0, 1.0),
        MrlReciprocalLinear(1.0, 0.8),
        MrlExponential(0.5, -0.2),
        MrlPiecewise(
            (1.0, 2.0),
            (PieceExpAffine(1.0, -0.4 / E, 1.0), PieceLinear(0.0, 0.6), PieceLinear(1.2, 0.0)),
        ),
    ]
    cfg = QuadConfig(abs_tol=1e-13, rel_tol=1e-11)
    for spec in specs:
        d = build(spec)
        for i in range(100):
            t = 0.03 + i * 0.06
            want = d.mrl(t)
            got = mrl(d, t, cfg, method="quadrature")
            assert _rel(got, want) < 1e-6, (spec.family, t)
    print("ACCEPTANCE 4 PASS: MRL -> survival -> MRL round trip on 100 points per family")


def test_criterion_5_mixture_non_closure():
    m = mixture([0.2, 0.8], [build(MrlLinear(1, 8)), build(MrlLinear(1, 0.1))])
    for t, want in [(6.0, 3.18404390537899), (8.0, 3.44726388676388), (20.0, 2.37496470241032)]:
        assert _rel(mrlai(m, t), want) < 1e-6
    assert classify_mrlai(m, Grid(0.5, 40.0, 140)).kind is Kind.NON_MONOTONE

    m2 = mixture(
        [0.2, 0.8], [build(MrlReciprocalLinear(1, 1)), build(MrlReciprocalLinear(1, 2))]
    )
    for t, want in [(0.3, 0.8129797), (2.0, 0.6127436), (3.0, 0.6381471)]:
        assert _rel(mrlai(m2, t), want) < 1e-5
    print("ACCEPTANCE 5 PASS: mixture intensities (1e-6 / 1e-5) and non-monotone verdict")


def test_criterion_6_convolution():
    c = convolution(build(Exponential(1.0)), build(Exponential(1.0)))
    for t, want in [(0.2, 0.9590531), (3.0, 0.8549358), (10.0, 0.8799147)]:
        assert _rel(mrlai(c, t), want) < 1e-5
    numeric = convolution(build(Exponential(1.0)), build(Exponential(1.0)), closed_forms=False)
    for t in (0.25, 1.0, 2.5, 5.0, 9.0):
        assert _rel(numeric.survival(t), (1 + t) * math.exp(-t)) < 1e-7
    print("ACCEPTANCE 6 PASS: convolution intensities (1e-5), numeric matches closed (1e-7)")


def test_criterion_7_order_statistics():
    os23 = order_statistic(build(MrlLinear(1, 1)), 2, 3)
    for t in (0.11, 0.5, 1.3, 3.0):
        surv = (3 * t * t + 6 * t + 1) / (t + 1) ** 6
        mu = (t + 1) * (5 * t * t + 10 * t + 3) / (5 * (3 * t * t + 6 * t + 1))
        assert _rel(os23.survival(t), surv) < 1e-8
        assert _rel(mrl(os23, t), mu) < 1e-8
    printed = {0.11: 0.0001189386, 0.12: 0.0001189296, 0.13: 0.0001189584}
    for t, src in printed.items():
        assert _rel(mrlai(os23, t), src * 8100.0) < 1e-4
    verdict = classify_mrlai(os23, Grid(0.01, 1.0, 100))
    assert verdict.kind is Kind.NON_MONOTONE
    assert 0.09 <= verdict.witness[1][0] <= 0.16
    print("ACCEPTANCE 7 PASS: order-statistic forms (1e-8), disputed values x8100 (1e-4), dip near 0.12")


def test_criterion_8_order_theory():
    # ratio-criterion equivalence on the worked pairs ...
    pairs = [
        (build(Exponential(0.5)), build(Pareto(2.0, 1.0)), FORMAL, (0.1, 30.0)),
        (build(Exponential(2.0)), build(Pareto(3.0, 1.0)), FORMAL, (0.1, 20.0)),
        (build(Erlang(2, 3.0)), build(Erlang(2, 2.0)), ZERO, (0.05, 8.0)),
        (build(Erlang(2, 1.0)), build(Exponential(2.0)), ZERO, (0.05, 20.0)),
    ]
    for X, Y, conv, (lo, hi) in pairs:
        grid = _linspace(lo, hi, 96)
        assert mrlai_order(X, Y, grid, conv).relation == ratio_test(X, Y, grid, conv).relation

    # ... and on 50 random pairs
    rng = random.Random(20240812)

    def random_spec():
        kind = rng.randrange(6)
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
        return Pareto(rng.uniform(2.2, 4.0), rng.uniform(0.5, 1.5))

    for _ in range(50):
        X, Y = build(random_spec()), build(random_spec())
        lo = max(0.08, X.support[0] * 1.05, Y.support[0] * 1.05)
        grid = _linspace(lo, lo + 10.0, 64)
        assert mrlai_order(X, Y, grid).relation == ratio_test(X, Y, grid).relation

    # example 4.1: intensity order holds, increasing-convex order fails
    X, Y = build(Exponential(0.5)), build(Pareto(2.0, 1.0))
    from mrlai.orders import icx_order, lr_order, vrl_order

    grid = _linspace(0.1, 30.0, 100)
    assert mrlai_order(X, Y, grid, FORMAL).relation is Relation.HOLDS
    assert icx_order(X, Y, grid, FORMAL).relation is Relation.FAILS
    assert _rel(X.tail(1.5), 0.9447331) < 1e-5
    assert _rel(Y.formal.tail(1.5), 2.0 / 3.0) < 1e-5

    # example 4.2: variance-residual-life order fails, ratio values reproduce
    X, Y = build(Exponential(2.0)), build(Pareto(3.0, 1.0))
    from mrlai.ageing import _resolve

    for t, want in [(0.2, 0.067032), (0.6, 0.09035826), (1.0, 0.06766764)]:
        dx = _resolve(X, conv=FORMAL)._column("double_tail", [t], QuadConfig())[0]
        got = dx / _resolve(Y, conv=FORMAL)._column("double_tail", [t], QuadConfig())[0]
        assert _rel(got, want) < 1e-5
    assert vrl_order(X, Y, _linspace(0.05, 5.0, 64), FORMAL).relation is Relation.FAILS
    assert mrlai_order(X, Y, _linspace(0.1, 20.0, 80), FORMAL).relation is Relation.HOLDS

    # example 4.3: likelihood-ratio order holds, intensity order fails
    X, Y = build(Erlang(2, 3.0)), build(Erlang(2, 2.0))
    assert lr_order(X, Y, _linspace(0.05, 20.0, 100)).relation is Relation.HOLDS
    assert mrlai_order(X, Y, _linspace(0.05, 8.0, 100)).relation is Relation.FAILS
    for t, want in [(0.1, 0.6537420), (1.5, 0.6287006), (5.0, 0.6371185)]:
        gx = profile(X, [t]).mu_avg[0] * t
        gy = profile(Y, [t]).mu_avg[0] * t
        assert _rel(gx / gy, want) < 1e-5

    # example 4.5: parallel systems break the component-wise order
    xp, yp = parallel(build(Erlang(2, 1.0)), 2), parallel(build(Exponential(2.0)), 2)
    assert _rel(mrlai(xp, 0.01), 0.9981785) < 1e-5
    assert _rel(mrlai(yp, 0.01), 0.9935494) < 1e-5
    log_grid = [math.exp(v) for v in _linspace(math.log(0.005), math.log(30.0), 90)]
    assert mrlai_order(xp, yp, log_grid).relation is Relation.FAILS
    print("ACCEPTANCE 8 PASS: ratio equivalence (corpus + 50 random), non-implications, parallel break")


def test_criterion_9_property_suites():
    # monotone-MRL implications across families
    grid = Grid(0.05, 20.0, 96)
    increasing = [MrlLinear(1.0, 1.0), MrlPiecewise((), (PieceSqrtAffine(2.0, 2.0),))]
    decreasing = [Erlang(2, 2.0), Erlang(3, 1.0), Weibull(2.0, 1.0)]
    for spec in increasing:
        d = build(spec)
        assert classify_mrl(d, grid).kind is Kind.INCREASING
        assert min(profile(d, grid.points()).L) >= 1.0 - 1e-9
    for spec in decreasing:
        d = build(spec)
        assert classify_mrl(d, grid).kind is Kind.DECREASING
        assert max(profile(d, grid.points()).L) <= 1.0 + 1e-9

    # order axioms on computed verdicts
    X, Y, Z = build(Erlang(2, 2.0)), build(Exponential(1.0)), build(MrlLinear(1, 1))
    pts = _linspace(0.05, 12.0, 96)
    assert mrlai_order(X, X, pts).relation is Relation.HOLDS
    assert mrlai_order(X, Y, pts).relation is Relation.HOLDS
    assert mrlai_order(Y, Z, pts).relation is Relation.HOLDS
    assert mrlai_order(X, Z, pts).relation is Relation.HOLDS
    A, B = build(Exponential(1.0)), build(Exponential(2.0))
    assert mrlai_order(A, B, pts).relation is Relation.HOLDS
    assert mrlai_order(B, A, pts).relation is Relation.HOLDS
    ratios = [mrl(A, t) / mrl(B, t) for t in pts]
    assert max(ratios) - min(ratios) <= 1e-6 * ratios[0]

    # scaling identity on 20 random (family, factor) pairs
    rng = random.Random(77)
    specs = [
        Exponential(1.0),
        Erlang(2, 2.0),
        Erlang(3, 1.0),
        Weibull(1.7, 0.9),
        MrlLinear(1.0, 1.0),
        MrlReciprocalLinear(1.0, 1.0),
        Uniform(0.0, 2.0),
        Pareto(2.5, 1.0),
    ]
    for _ in range(20):
        spec = rng.choice(specs)
        a = rng.uniform(0.25, 4.0)
        d = build(spec)
        conv = FORMAL if isinstance(spec, Pareto) else ZERO
        t = max(rng.uniform(0.2, 0.8) * min(d.mean * 3, d.support[1] * 0.9), d.support[0] + 0.1)
        assert _rel(mrlai(scale(d, a), a * t, conv), mrlai(d, t, conv)) < 1e-8

    # quadrature backstops
    f = lambda x: math.exp(-x) * (1 + x)
    whole = integrate_finite(f, 0.0, 3.0)
    assert abs(whole - integrate_finite(f, 0.0, 1.2) - integrate_finite(f, 1.2, 3.0)) < 3e-10
    i_f = integrate_finite(lambda x: math.exp(-x), 0.0, 2.0)
    i_g = integrate_finite(lambda x: x * x, 0.0, 2.0)
    combo = integrate_finite(lambda x: 2.0 * math.exp(-x) - 3.0 * x * x, 0.0, 2.0)
    assert abs(combo - (2.0 * i_f - 3.0 * i_g)) < 1e-9
    assert abs(
        integrate_tail(f, 0.0) - integrate_finite(f, 0.0, 4.0) - integrate_tail(f, 4.0)
    ) < 1e-9
    print("ACCEPTANCE 9 PASS: implication, axiom, scaling, and quadrature property suites")


def test_criterion_10_reproduce_full_corpus(capsys):
    code = cli_main(["reproduce"])
    out = capsys.readouterr().out
    assert code == 0
    assert "0 mismatches" in out
    disputed_lines = [l for l in out.splitlines() if "disputed-as-expected" in l and not l.startswith("#")]
    disputed_cases = {l.split()[0] for l in disputed_lines}
    assert disputed_cases == {"ex2.3", "ex2.6", "ex3.3", "ex3.5"}
    with capsys.disabled():
        print("\nACCEPTANCE 10 PASS: full corpus reproduces with 0 mismatches, 4 documented disputes")
