"""Exact cost counts of the corpus cases and of a fixed query list.

``tests/data/costs.json`` holds, for each of the 21 corpus cases
(``run_case`` with the ``Dist`` cache cleared) and for each query below
(the rows of the ROADMAP Baseline table), the number of
``quadrature._eval`` calls ("evals") and of ``Dist.survival`` calls
("survival", nested ones included), and the error a query raises.  Counts
are exact on every machine, unlike wall time, so they are the noise-free
half of a performance claim.

A change that moves a count re-records the table and lists each move in
CHANGES.md, as a change of output bytes re-records ``DIGESTS``.  Record it
with ``PYTHONPATH=src python tests/test_costs.py``.
"""

import json
from pathlib import Path

import pytest

from mrlai import (
    Convolution,
    Dist,
    Erlang,
    Exponential,
    Grid,
    Mixture,
    OrderStatistic,
    ToolkitError,
    Uniform,
    Weibull,
    build,
    convolution,
    corpus,
    mrl,
    mrlai,
    profile,
    quadrature,
)

COSTS = Path(__file__).parent / "data" / "costs.json"
U01 = Uniform(0.0, 1.0)
EXP_MIX = Mixture((0.5, 0.5), (Exponential(1.0), Exponential(2.0)))
GRID = Grid(0.1, 10.0, 512)


def _profile(make, grid=GRID, **kw):
    return lambda: profile(make(), grid.points(), **kw)


# Every Dist is built inside the counted call, so the closures a
# composite takes from its parts are counted too.  The order-statistic
# profiles are the survival counts of numeric-T sweeps whose panels end
# at the support edges, the breakpoints and the points that grade them
# toward s0 by quarters; with every grid point a knot they were 395 ->
# 3,992 and 751 -> 3,061.  os(2:2) of Erlang(2, 1) spans S from 1 to 6e-12,
# and resolving a panel's S and mu to machine precision there needs
# narrow panels.
QUERIES = {
    "profile Weibull(1.5, 2)": _profile(lambda: build(Weibull(1.5, 2.0))),
    "profile Exp(1)+Exp(2)": _profile(
        lambda: build(Convolution((Exponential(1.0), Exponential(2.0))))
    ),
    "profile Exp(1)+Exp(2), closed_forms=False": _profile(
        lambda: convolution(build(Exponential(1.0)), build(Exponential(2.0)), closed_forms=False)
    ),
    "profile Exp(1)/Exp(2) mixture": _profile(lambda: build(EXP_MIX)),
    "profile Exp(1)/Exp(2) mixture, method=quadrature": _profile(
        lambda: build(EXP_MIX), method="quadrature"
    ),
    "profile Erlang(4, 1.458), 128 points on [0.034, 9.6]": _profile(
        lambda: build(Erlang(4, 1.458)), Grid(0.034, 9.6, 128)
    ),
    "profile Exp(1)+U(0, 1), 64 points on [0.1, 1.9]": _profile(
        lambda: build(Convolution((Exponential(1.0), U01))), Grid(0.1, 1.9, 64)
    ),
    "profile Erlang(3, 1)+U(0, 1), 64 points on [0.1, 5]": _profile(
        lambda: build(Convolution((Erlang(3, 1.0), U01))), Grid(0.1, 5.0, 64)
    ),
    "profile os(2:2) of Erlang(2, 1), 90 log points on [0.005, 30]": _profile(
        lambda: build(OrderStatistic(Erlang(2, 1.0), 2, 2)), Grid(0.005, 30.0, 90, "log")
    ),
    "profile os(2:3) of U(0, 1), 120 points on [0.02, 0.98]": _profile(
        lambda: build(OrderStatistic(U01, 2, 3)), Grid(0.02, 0.98, 120)
    ),
    "mrl U+U at 0.37": lambda: mrl(build(Convolution((U01, U01))), 0.37),
    "mrlai U+U at 0.37": lambda: mrlai(build(Convolution((U01, U01))), 0.37),
    "mrl (U+U)+U at 0.9": lambda: mrl(build(Convolution((Convolution((U01, U01)), U01))), 0.9),
    "mrl Weibull(1.5, 1)+Exp(1) at 0.5": lambda: mrl(
        build(Convolution((Weibull(1.5, 1.0), Exponential(1.0)))), 0.5
    ),
    "mrl Weibull(5, 1) at 3.6": lambda: mrl(build(Weibull(5.0, 1.0)), 3.6),
    "mrl Weibull(5, 1) at 3.65": lambda: mrl(build(Weibull(5.0, 1.0)), 3.65),
    "mrl Weibull(5, 1) at 5": lambda: mrl(build(Weibull(5.0, 1.0)), 5.0),
    "mrl Exp(1) at 800, method=quadrature": lambda: mrl(
        build(Exponential(1.0)), 800.0, method="quadrature"
    ),
    "profile Weibull(5, 1) on 0.1:4/64": _profile(
        lambda: build(Weibull(5.0, 1.0)), Grid(0.1, 4.0, 64)
    ),
    "survival(0.5) of Weibull(0.4)+Exp(1), closed_forms=False": lambda: convolution(
        build(Weibull(0.4, 1.0)), build(Exponential(1.0)), closed_forms=False
    ).survival(0.5),
}


def _case(case_id):
    def run():
        corpus._DIST_CACHE.clear()
        corpus.run_case(case_id)

    return run


RUNS = {**{case_id: _case(case_id) for case_id in corpus.list_cases()}, **QUERIES}


def _costs(run) -> dict:
    """The evals and survival calls ``run()`` makes, and the name of the
    ToolkitError it raises, if any."""
    counts = {"evals": 0, "survival": 0}
    real_eval, real_survival = quadrature._eval, Dist.survival

    def counted_eval(f, x):
        counts["evals"] += 1
        return real_eval(f, x)

    def counted_survival(self, t):
        counts["survival"] += 1
        return real_survival(self, t)

    quadrature._eval, Dist.survival = counted_eval, counted_survival
    try:
        run()
    except ToolkitError as exc:
        counts["raises"] = type(exc).__name__
    finally:
        quadrature._eval, Dist.survival = real_eval, real_survival
    return counts


@pytest.fixture(scope="module")
def table():
    return json.loads(COSTS.read_text())


def test_the_table_covers_every_run(table):
    assert sorted(table) == sorted(RUNS)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_cost_counts(name, table):
    assert _costs(RUNS[name]) == table[name]


if __name__ == "__main__":
    table = {name: _costs(RUNS[name]) for name in sorted(RUNS)}
    COSTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
