"""Shared profiles: one ``ageing._Profiles`` per distribution builds each
MrlProfile once and serves every classify verdict and profile-based order."""

import contextlib
import csv
import io

import pytest

from mrlai import ageing, cli
from mrlai.ageing import Convention, _Profiles, _profile_for, mrl_average, mrlai, profile
from mrlai.classify import (
    Grid,
    classify_hazard_ai,
    classify_mrl,
    classify_mrla,
    classify_mrlai,
)
from mrlai.cli import _fmt
from mrlai.distributions import (
    Erlang,
    Exponential,
    MrlExponential,
    MrlLinear,
    MrlPiecewise,
    MrlReciprocalLinear,
    Pareto,
    PieceLinear,
    Uniform,
    Weibull,
    build,
)
from mrlai.errors import ToolkitError, UnsupportedCapability
from mrlai.orders import (
    icx_order,
    lr_order,
    mrl_order,
    mrlai_order,
    ratio_test,
    sufficient_conditions,
    vrl_order,
)
from mrlai.quadrature import DEFAULT_CONFIG, QuadConfig

ZERO, SUPPORT, FORMAL = Convention.ZERO, Convention.SUPPORT_START, Convention.FORMAL
CONVENTIONS = (ZERO, SUPPORT, FORMAL)

# every closed family; the grid starts above each support start
CLOSED = {
    "exponential": Exponential(0.8),
    "erlang2": Erlang(2, 1.5),
    "uniform": Uniform(0.0, 7.0),
    "uniform-shifted": Uniform(0.5, 7.0),
    "pareto": Pareto(2.5, 1.0),
    "mrl_linear": MrlLinear(1.2, 0.3),
    "mrl_reciprocal_linear": MrlReciprocalLinear(1.0, 0.5),
    "mrl_exponential": MrlExponential(0.2, -0.15),
    "mrl_piecewise": MrlPiecewise((2.0,), (PieceLinear(1.0, 0.0), PieceLinear(0.6, 0.2))),
}
GRID = Grid(1.2, 6.5, 24)


@pytest.fixture
def evaluations(monkeypatch):
    """Record (grid size, convention) of every profile evaluation."""
    calls = []
    real = ageing._evaluate
    monkeypatch.setattr(
        ageing,
        "_evaluate",
        lambda d, ts, conv, *a, **kw: calls.append((len(ts), conv)) or real(d, ts, conv, *a, **kw),
    )
    return calls


def _verdicts(X, Y, conv, grid=GRID):
    """Every order's verdict on the pair over ``grid``, or the error it raises."""
    out = []
    for order in ORDERS:
        args = (grid,) if order is lr_order else (grid, conv)
        try:
            out.append(order(X, Y, *args))
        except ToolkitError as exc:
            out.append(type(exc))
    return out


def _coincide(d, conv):
    """The ``conv`` profile of ``d`` is its ZERO profile relabelled: the
    resolver gives ``d`` itself with G from 0 under both."""
    return ageing._resolve(d, conv=conv) is d and ageing._origin(d, conv) == 0.0


@pytest.mark.parametrize("conv", CONVENTIONS, ids=lambda c: c.value)
@pytest.mark.parametrize("name", sorted(CLOSED))
def test_shared_profiles_equal_built_ones(name, conv, evaluations):
    d = build(CLOSED[name])
    ts = GRID.points()
    src = _Profiles(d)
    assert _profile_for(src, ts, ZERO) == profile(d, ts)
    try:
        want = profile(d, ts, conv)
    except ToolkitError as exc:
        for _ in range(2):  # a failed build is not kept
            with pytest.raises(type(exc)):
                _profile_for(src, ts, conv)
        with pytest.raises(type(exc)):
            classify_mrla(src, GRID, conv)
        return
    evaluations.clear()
    got = _profile_for(src, ts, conv)
    assert got == want
    assert _profile_for(src, ts, conv) is got
    # built only where the conventions differ: a support start above 0 or a
    # formal continuation; else the ZERO profile is relabelled
    built = 0 if _coincide(d, conv) else 1
    assert len(evaluations) == built
    # the verdicts read the same profiles through the shared source
    assert classify_mrl(src, GRID) == classify_mrl(d, GRID)
    assert classify_mrla(src, GRID, conv) == classify_mrla(d, GRID, conv)
    assert classify_mrlai(src, GRID, conv) == classify_mrlai(d, GRID, conv)
    assert len(evaluations) == built + 3


@pytest.mark.parametrize("conv", CONVENTIONS, ids=lambda c: c.value)
@pytest.mark.parametrize("name", sorted(CLOSED))
def test_classify_verdicts_equal_from_a_profile(name, conv):
    # a fresh source, read by the verdicts alone and in the reverse of the
    # order above: the conv profile is asked for before the ZERO one
    d = build(CLOSED[name])
    src = _Profiles(d)
    try:
        profile(d, GRID.points(), conv)
    except ToolkitError as exc:
        with pytest.raises(type(exc)):
            classify_mrlai(src, GRID, conv)
        with pytest.raises(type(exc)):
            classify_mrla(d, GRID, conv)
        return
    verdicts = (
        (classify_mrlai, (GRID, conv)),
        (classify_mrla, (GRID, conv)),
        (classify_mrl, (GRID,)),
    )
    # and the same from the Grid's points as from the Grid
    points = tuple(GRID.points())
    for _ in range(2):
        for f, args in verdicts:
            assert f(src, *args) == f(d, *args) == f(d, points, *args[1:])
    try:
        want = classify_hazard_ai(d, GRID)
    except ToolkitError as exc:
        for grid in (GRID, points):
            with pytest.raises(type(exc)):
                classify_hazard_ai(src, grid)
    else:
        assert classify_hazard_ai(src, GRID) == classify_hazard_ai(d, points) == want


PAIRS = [
    ("exponential", "pareto"),
    ("erlang2", "mrl_linear"),
    ("pareto", "mrl_piecewise"),
    ("uniform-shifted", "exponential"),
    ("mrl_reciprocal_linear", "mrl_exponential"),
    ("uniform", "erlang2"),
]
ORDERS = (mrlai_order, ratio_test, mrl_order, sufficient_conditions, lr_order, icx_order,
          vrl_order)


@pytest.mark.parametrize("conv", CONVENTIONS, ids=lambda c: c.value)
@pytest.mark.parametrize("nx,ny", PAIRS)
def test_orders_equal_from_profiles(nx, ny, conv, evaluations):
    X, Y = build(CLOSED[nx]), build(CLOSED[ny])
    evaluations.clear()
    shared = _verdicts(_Profiles(X), _Profiles(Y), conv)
    if not any(isinstance(v, type) for v in shared):
        # each profile the checks read is built once: the ZERO one, and the
        # ``conv`` one unless that is the ZERO one relabelled
        assert len(evaluations) == sum(1 if _coincide(d, conv) else 2 for d in (X, Y))
    # the same from the bare Dists, and from the Grid's points
    assert shared == _verdicts(X, Y, conv) == _verdicts(X, Y, conv, tuple(GRID.points()))


@pytest.mark.parametrize("conv", CONVENTIONS, ids=lambda c: c.value)
def test_shared_profiles_follow_method_and_cfg(conv):
    # Weibull's profile depends on the QuadConfig, Pareto's on the method:
    # a source that has built the default ones must not serve them for these
    X, Y = build(Weibull(1.5, 1.0)), build(Pareto(2.5, 1.0))
    sx, sy = _Profiles(X), _Profiles(Y)
    ts = GRID.points()
    for d, src in ((X, sx), (Y, sy)):
        assert _profile_for(src, ts, conv) == profile(d, ts, conv)
    tight = QuadConfig(abs_tol=1e-12, rel_tol=1e-11)
    for cfg, method in ((tight, "auto"), (DEFAULT_CONFIG, "quadrature"), (tight, "quadrature")):
        for d, src in ((X, sx), (Y, sy)):
            assert _profile_for(src, ts, conv, cfg, method) == profile(d, ts, conv, cfg, method)
            assert classify_mrl(src, GRID, cfg=cfg, method=method) == classify_mrl(
                d, GRID, cfg=cfg, method=method
            )
            for f in (classify_mrla, classify_mrlai):
                assert f(src, GRID, conv, cfg=cfg, method=method) == f(
                    d, GRID, conv, cfg=cfg, method=method
                )
    assert _profile_for(sx, ts, conv, tight) != _profile_for(sx, ts, conv)
    assert _profile_for(sy, ts, conv, method="quadrature") != _profile_for(sy, ts, conv)
    for order in ORDERS:
        if order is not lr_order:
            assert order(sx, sy, GRID, conv, cfg=tight) == order(X, Y, GRID, conv, cfg=tight)


def test_given_profiles_are_never_recomputed(evaluations):
    X, Y = build(Erlang(3, 1.0)), build(Pareto(2.5, 1.0))
    sx, sy = _Profiles(X), _Profiles(Y)
    ts = GRID.points()
    for src in (sx, sy):
        for conv in (ZERO, FORMAL):
            _profile_for(src, ts, conv)
    evaluations.clear()
    classify_mrl(sx, GRID)
    classify_mrla(sx, GRID, FORMAL)
    classify_mrlai(sx, GRID, FORMAL)
    for order in (mrlai_order, ratio_test, mrl_order, sufficient_conditions):
        order(sx, sy, GRID, FORMAL)
    assert evaluations == []


# every reader under FORMAL for a support above 0 and no formal
# continuation: the profile readers raise, while classify_mrl (a ZERO
# reader) and icx, vrl and mrl read the true mu, T and D, as under ZERO
# (README "Integration conventions").  The grid starts below s0 = 0.5.
NO_CONTINUATION, EXP = build(Uniform(0.5, 2.0)), build(Exponential(1.0))
BELOW = Grid(0.1, 1.9, 16)
FORMAL_READERS = [
    ("profile", lambda c: profile(NO_CONTINUATION, BELOW, c), UnsupportedCapability),
    ("mrlai", lambda c: mrlai(NO_CONTINUATION, 1.0, c), UnsupportedCapability),
    ("mrlai-at-0", lambda c: mrlai(NO_CONTINUATION, 0.0, c), UnsupportedCapability),
    ("mrl_average", lambda c: mrl_average(NO_CONTINUATION, 1.0, c), UnsupportedCapability),
    ("classify_mrl", lambda c: classify_mrl(NO_CONTINUATION, BELOW), None),
    ("classify_mrla", lambda c: classify_mrla(NO_CONTINUATION, BELOW, c), UnsupportedCapability),
    ("classify_mrlai", lambda c: classify_mrlai(NO_CONTINUATION, BELOW, c), UnsupportedCapability),
    ("mrlai_order", lambda c: mrlai_order(NO_CONTINUATION, EXP, BELOW, c), UnsupportedCapability),
    ("ratio_test", lambda c: ratio_test(EXP, NO_CONTINUATION, BELOW, c), UnsupportedCapability),
    ("mrl_order", lambda c: mrl_order(NO_CONTINUATION, EXP, BELOW, c), None),
    ("icx_order", lambda c: icx_order(EXP, NO_CONTINUATION, BELOW, c), None),
    ("vrl_order", lambda c: vrl_order(EXP, NO_CONTINUATION, BELOW, c), None),
]


@pytest.mark.parametrize("read,raises", [r[1:] for r in FORMAL_READERS],
                         ids=[r[0] for r in FORMAL_READERS])
def test_formal_without_a_continuation(read, raises):
    if raises is not None:
        with pytest.raises(raises, match="no formal continuation"):
            read(FORMAL)
    else:
        assert read(FORMAL) == read(ZERO)


def test_a_profile_is_not_a_source():
    d = build(Erlang(2, 1.5))
    prof = profile(d, GRID.points())
    for source in (prof, (prof,)):
        with pytest.raises(TypeError, match="a Dist or its _Profiles"):
            classify_mrl(source, GRID)
        with pytest.raises(TypeError, match="a Dist or its _Profiles"):
            mrlai_order(d, source, GRID)


ERLANG3 = '{"family":"erlang","k":3,"rate":1}'
WEIBULL = '{"family":"weibull","shape":1.5,"scale":1}'
PARETO = '{"family":"pareto","shape":2.5,"scale":1}'


def _run(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main(argv) == 0
    return out.getvalue()


class TestCommandsShareProfiles:
    # without sharing, the default compare made 8 profile evaluations and
    # classify 3, whatever the convention; supported from 0 and with no
    # formal continuation, Erlang and Weibull reuse the ZERO profile under
    # every convention, and Pareto does under none
    @pytest.mark.parametrize("conv,want", [("zero", 2), ("formal", 2), ("support", 2)])
    def test_compare(self, evaluations, conv, want):
        _run(["compare", ERLANG3, WEIBULL, "--grid", "0.1:8/64", "--conv", conv])
        assert len(evaluations) == want

    @pytest.mark.parametrize("spec,conv,want", [
        (ERLANG3, "zero", 1), (ERLANG3, "formal", 1), (ERLANG3, "support", 1),
        (PARETO, "formal", 2), (PARETO, "support", 2),
    ])
    def test_classify(self, evaluations, spec, conv, want):
        grid = "1.1:8/64" if spec == PARETO else "0.1:8/64"
        _run(["classify", spec, "--grid", grid, "--conv", conv])
        assert len(evaluations) == want

    def test_compare_all_orders(self, evaluations):
        orders = "mrlai,ratio,lr,icx,vrl,mrl"
        _run(["compare", ERLANG3, PARETO, "--grid", "0.1:8/64", "--orders", orders])
        assert len(evaluations) == 2
        evaluations.clear()
        _run(["compare", ERLANG3, PARETO, "--grid", "0.1:8/64", "--orders", orders,
              "--conv", "formal"])
        assert len(evaluations) == 3

    def test_coarse_grid_adds_the_shortcut_grid(self, evaluations):
        # the shortcut scans 16 points, the orders the 8 asked for
        _run(["compare", ERLANG3, WEIBULL, "--grid", "0.1:8/8"])
        assert sorted(evaluations) == [(8, ZERO), (8, ZERO), (16, ZERO), (16, ZERO)]

    @pytest.mark.parametrize("conv", CONVENTIONS, ids=lambda c: c.value)
    def test_rows_equal_the_unshared_verdicts(self, conv):
        X, Y = build(Erlang(3, 1.0)), build(Pareto(2.5, 1.0))
        grid = Grid(1.1, 8.0, 64)
        verdicts = [(name, order(X, Y, grid, conv)) for name, order in
                    (("mrlai", mrlai_order), ("ratio", ratio_test), ("mrl", mrl_order))]
        want = []
        for name, v in verdicts:
            w = v.witness
            witness = "" if w is None else f"t={_fmt(w.t)}: {_fmt(w.lhs)} vs {_fmt(w.rhs)}"
            want.append([name, v.relation.value, v.decided_by, witness])
        shortcut = sufficient_conditions(X, Y, grid, conv)
        if shortcut is not None:
            want.append(["shortcut", shortcut.relation.value, shortcut.decided_by, shortcut.note])
        out = _run(["compare", ERLANG3, PARETO, "--grid", "1.1:8/64", "--conv", conv.value,
                    "--orders", "mrlai,ratio,mrl", "--format", "csv"])
        # the shortcut's note holds a comma, so its cell is quoted
        assert list(csv.reader(out.splitlines()[1:])) == want

    def test_a_profile_that_cannot_be_built_fails_where_it_did(self, capsys):
        # no formal continuation below Uniform(0.5, 2)'s support start: the
        # FORMAL profile fails, yet the shortcut settles the pair from the
        # ZERO profiles alone, as it did without sharing
        uniform = '{"family":"uniform","lo":0.5,"hi":2}'
        linear = '{"family":"mrl_linear","a":1,"b":0.2}'
        argv = ["compare", uniform, linear, "--conv", "formal", "--orders", "lr,icx,mrl",
                "--grid", "0.1:1.9/32"]
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        assert "thm_4_3" in out
        assert cli.main(argv[:-3] + ["mrlai", "--grid", "0.1:1.9/32"]) == 2
        assert "no formal continuation" in capsys.readouterr().err

