"""Profile-taking verdicts: one MrlProfile per (distribution, convention)
serves every classify verdict and profile-based order."""

import contextlib
import csv
import io

import pytest

from mrlai import ageing, cli
from mrlai.ageing import Convention, _Profiles, _profile_for, profile
from mrlai.classify import Grid, classify_mrl, classify_mrla, classify_mrlai
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
    build,
)
from mrlai.errors import ToolkitError
from mrlai.orders import (
    icx_order,
    lr_order,
    mrl_order,
    mrlai_order,
    ratio_test,
    sufficient_conditions,
    vrl_order,
)

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


def _profiles(d, grid, conv):
    """(ZERO profile, conv profile) on the grid's points."""
    ts = grid.points()
    return profile(d, ts), profile(d, ts, conv)


def _same(dist_call, prof_call):
    """Both calls give the same verdict, or both raise the same error."""
    try:
        want = dist_call()
    except ToolkitError as exc:
        with pytest.raises(type(exc)):
            prof_call()
        return
    assert prof_call() == want


@pytest.mark.parametrize("conv", CONVENTIONS, ids=lambda c: c.value)
@pytest.mark.parametrize("name", sorted(CLOSED))
def test_classify_verdicts_equal_from_a_profile(name, conv):
    d = build(CLOSED[name])
    try:
        zero, prof = _profiles(d, GRID, conv)
    except ToolkitError:
        # the Dist forms raise too; nothing to share
        with pytest.raises(ToolkitError):
            classify_mrla(d, GRID, conv)
        return
    assert classify_mrl(zero, GRID) == classify_mrl(d, GRID)
    assert classify_mrla(prof, GRID, conv) == classify_mrla(d, GRID, conv)
    assert classify_mrlai(prof, GRID, conv) == classify_mrlai(d, GRID, conv)
    for f in (classify_mrla, classify_mrlai):
        assert f((zero, prof), GRID, conv) == f(d, GRID, conv)
    assert classify_mrl((prof, zero), GRID) == classify_mrl(d, GRID)


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
        return
    evaluations.clear()
    got = _profile_for(src, ts, conv)
    assert got == want
    assert _profile_for(src, ts, conv) is got
    # built only where the conventions differ: a support start above 0 or a
    # formal continuation; else the ZERO profile is relabelled
    coincide = conv is ZERO or (d.support[0] == 0.0 and d.formal is None)
    assert len(evaluations) == (0 if coincide else 1)
    # the verdicts read the same profiles through the shared source
    assert classify_mrl(src, GRID) == classify_mrl(d, GRID)
    assert classify_mrlai(src, GRID, conv) == classify_mrlai(d, GRID, conv)
    assert len(evaluations) == (0 if coincide else 1) + 2


PAIRS = [
    ("exponential", "pareto"),
    ("erlang2", "mrl_linear"),
    ("pareto", "mrl_piecewise"),
    ("uniform-shifted", "exponential"),
    ("mrl_reciprocal_linear", "mrl_exponential"),
    ("uniform", "erlang2"),
]


@pytest.mark.parametrize("conv", CONVENTIONS, ids=lambda c: c.value)
@pytest.mark.parametrize("nx,ny", PAIRS)
def test_orders_equal_from_profiles(nx, ny, conv):
    X, Y = build(CLOSED[nx]), build(CLOSED[ny])
    try:
        px, py = _profiles(X, GRID, conv), _profiles(Y, GRID, conv)
    except ToolkitError:
        with pytest.raises(ToolkitError):
            mrlai_order(X, Y, GRID, conv)
        return
    for order in (mrlai_order, ratio_test, mrl_order, sufficient_conditions, lr_order):
        args = (GRID,) if order is lr_order else (GRID, conv)
        _same(lambda: order(X, Y, *args), lambda: order(px, py, *args))
    for order in (icx_order, vrl_order):
        _same(lambda: order(X, Y, GRID, conv), lambda: order(px, py, GRID, conv))
    # a single profile is enough where the check reads one convention
    assert mrlai_order(px[1], py[1], GRID, conv) == mrlai_order(X, Y, GRID, conv)


def test_given_profiles_are_never_recomputed(evaluations):
    X, Y = build(Erlang(3, 1.0)), build(Pareto(2.5, 1.0))
    px, py = _profiles(X, GRID, FORMAL), _profiles(Y, GRID, FORMAL)
    evaluations.clear()
    classify_mrl(px, GRID)
    classify_mrla(px, GRID, FORMAL)
    classify_mrlai(px, GRID, FORMAL)
    for order in (mrlai_order, ratio_test, mrl_order, sufficient_conditions):
        order(px, py, GRID, FORMAL)
    assert evaluations == []


class TestMismatch:
    d = build(Erlang(2, 1.5))

    def test_profile_on_another_grid(self):
        other = profile(self.d, Grid(1.2, 6.5, 25).points())
        with pytest.raises(ValueError, match="zero profile on its 24 grid points"):
            classify_mrl(other, GRID)
        with pytest.raises(ValueError):
            mrlai_order(other, other, GRID)

    def test_profile_under_another_convention(self):
        zero, formal = _profiles(self.d, GRID, FORMAL)
        with pytest.raises(ValueError, match="formal profile"):
            classify_mrla(zero, GRID, FORMAL)
        with pytest.raises(ValueError, match="zero profile"):
            classify_mrl(formal, GRID)
        with pytest.raises(ValueError, match="support profile"):
            ratio_test((zero, formal), (zero, formal), GRID, SUPPORT)

    def test_shortcut_needs_both_conventions(self):
        zero, formal = _profiles(self.d, GRID, FORMAL)
        with pytest.raises(ValueError, match="formal profile"):
            # the MRL verdicts pass on ZERO alone; the averages need FORMAL
            sufficient_conditions(zero, zero, GRID, FORMAL)

    def test_mismatch_is_a_value_error_not_a_toolkit_error(self):
        with pytest.raises(ValueError) as info:
            classify_mrlai(profile(self.d, GRID.points()), GRID, FORMAL)
        assert not isinstance(info.value, ToolkitError)


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

