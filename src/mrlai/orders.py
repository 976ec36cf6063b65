"""Pairwise stochastic-order checks.

The central one is the MRLAI order: X is below Y when L_X(t) <= L_Y(t)
for all t > 0.  An equivalent test scans the ratio of the running MRL
integrals G_X/G_Y for monotone decrease.  The likelihood-ratio,
increasing-convex, variance-residual-life and mean-residual-life orders
are provided as comparison baselines, plus the proven sufficiency
shortcuts (monotone MRL, monotone MRL average, linear-MRL determinant)
and the scale-transform preservation check.

``mrlai_order``, ``ratio_test``, ``mrl_order`` and
``sufficient_conditions`` read ``ageing.MrlProfile`` columns: under
``conv`` for L and mu_avg, under ZERO for mu (``mrl_order`` under
``conv`` where it resolves to a formal view), and for the shortcut on at
least 16 points.  Each side of every check is a ``Dist``, or the
``ageing._Profiles`` of one, through which the CLI and the corpus share
each profile among the checks that read it.

``icx_order`` and ``vrl_order`` read the tails and double tails of the
``Dist`` that ``conv`` resolves to (``ageing._resolve``).

A grid, a ``Grid`` or a sequence of numbers, is read once into strictly
increasing points (``ageing._grid_points``); any other raises GridError.
A Holds verdict is grid evidence, not a proof; the verdict records the
grid and which rule decided it so a consumer can demand refinement.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from operator import mul, sub, truediv

from .ageing import Convention, _grid_points, _profile_for, _resolve, _source_dist, profile
from .classify import Grid, Kind, classify_mrl, classify_mrla, scan_monotonicity
from .distributions import Dist
from .errors import BeyondSupport, UnsupportedCapability
from .quadrature import DEFAULT_CONFIG, QuadConfig

__all__ = [
    "Relation",
    "Witness",
    "OrderVerdict",
    "mrlai_order",
    "ratio_test",
    "lr_order",
    "icx_order",
    "vrl_order",
    "mrl_order",
    "linear_mrl_order",
    "sufficient_conditions",
    "weibull_rule",
    "check_scale_preservation",
    "ScaleReport",
]

DEFAULT_ORDER_TOL = 1e-9


class Relation(enum.Enum):
    HOLDS = "holds"
    FAILS = "fails"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Witness:
    """Location of the largest violation: lhs > rhs at t by ``margin``."""

    t: float
    lhs: float
    rhs: float

    @property
    def margin(self) -> float:
        return self.lhs - self.rhs


@dataclass(frozen=True)
class OrderVerdict:
    relation: Relation
    decided_by: str
    witness: Witness | None = None
    grid: tuple = ()
    note: str = ""

    @property
    def holds(self) -> bool:
        return self.relation is Relation.HOLDS

    def __str__(self):
        s = f"{self.relation.value} (by {self.decided_by})"
        if self.witness is not None:
            w = self.witness
            s += f" witness t={w.t:.6g}: {w.lhs:.9g} vs {w.rhs:.9g}"
        return s


def _pointwise_leq(ts, lhs, rhs, tol, decided_by) -> OrderVerdict:
    if len(ts) < 2:
        return OrderVerdict(Relation.INCONCLUSIVE, decided_by, grid=tuple(ts))
    excess = list(map(sub, lhs, rhs))
    worst = excess.index(max(excess))
    if excess[worst] <= tol:
        return OrderVerdict(Relation.HOLDS, decided_by, grid=tuple(ts))
    return OrderVerdict(
        Relation.FAILS,
        decided_by,
        witness=Witness(ts[worst], lhs[worst], rhs[worst]),
        grid=tuple(ts),
    )


def _ratio_nonincreasing(ts, ratios, tol, decided_by) -> OrderVerdict:
    if len(ts) < 2:
        return OrderVerdict(Relation.INCONCLUSIVE, decided_by, grid=tuple(ts))
    verdict = scan_monotonicity(ts, ratios, tol)
    if verdict.kind in (Kind.DECREASING, Kind.CONSTANT):
        return OrderVerdict(Relation.HOLDS, decided_by, grid=tuple(ts))
    # report the largest single increase
    steps = list(map(sub, ratios[1:], ratios))
    worst = steps.index(max(steps))
    return OrderVerdict(
        Relation.FAILS,
        decided_by,
        witness=Witness(ts[worst + 1], ratios[worst + 1], ratios[worst]),
        grid=tuple(ts),
    )


def mrlai_order(
    X: Dist,
    Y: Dist,
    grid,
    conv: Convention = Convention.ZERO,
    tol: float = DEFAULT_ORDER_TOL,
    cfg: QuadConfig = DEFAULT_CONFIG,
) -> OrderVerdict:
    """X below Y in ageing intensity: L_X <= L_Y at every grid point."""
    ts = _grid_points(grid)
    lx = _profile_for(X, ts, conv, cfg).L
    ly = _profile_for(Y, ts, conv, cfg).L
    return _pointwise_leq(ts, lx, ly, tol, "grid")


def ratio_test(
    X: Dist,
    Y: Dist,
    grid,
    conv: Convention = Convention.ZERO,
    tol: float = DEFAULT_ORDER_TOL,
    cfg: QuadConfig = DEFAULT_CONFIG,
) -> OrderVerdict:
    """Equivalent criterion: int_0^t mu_X / int_0^t mu_Y non-increasing."""
    ts = _grid_points(grid)
    gx = map(mul, _profile_for(X, ts, conv, cfg).mu_avg, ts)
    gy = map(mul, _profile_for(Y, ts, conv, cfg).mu_avg, ts)
    ratios = list(map(truediv, gx, gy))
    return _ratio_nonincreasing(ts, ratios, tol, "ratio_test")


def lr_order(
    X: Dist, Y: Dist, grid, tol: float = DEFAULT_ORDER_TOL
) -> OrderVerdict:
    """Likelihood-ratio order: f_X/f_Y non-increasing where both are positive."""
    X, Y = _source_dist(X), _source_dist(Y)
    if not (X.has_density and Y.has_density):
        raise UnsupportedCapability("lr order needs densities on both sides")
    points = _grid_points(grid)
    fxs = X._column("density", points)
    fys = Y._column("density", points)
    ts, ratios = [], []
    for t, fx, fy in zip(points, fxs, fys):
        if fy > 0.0 and fx > 0.0:
            ts.append(t)
            ratios.append(fx / fy)
    return _ratio_nonincreasing(ts, ratios, tol, "grid")


def icx_order(
    X: Dist,
    Y: Dist,
    grid,
    conv: Convention = Convention.ZERO,
    tol: float = DEFAULT_ORDER_TOL,
    cfg: QuadConfig = DEFAULT_CONFIG,
) -> OrderVerdict:
    """Increasing-convex order: int_t^inf surv_X <= int_t^inf surv_Y for all t.

    Each T is a column (``Dist._column``): a closed tail evaluated at each
    grid point, a numeric one one tail integral at the top point and one
    survival sweep down the grid.
    """
    ts = _grid_points(grid)
    sx = _resolve(_source_dist(X), conv=conv)._column("tail", ts, cfg)
    sy = _resolve(_source_dist(Y), conv=conv)._column("tail", ts, cfg)
    return _pointwise_leq(ts, sx, sy, tol, "grid")


def vrl_order(
    X: Dist,
    Y: Dist,
    grid,
    conv: Convention = Convention.ZERO,
    tol: float = DEFAULT_ORDER_TOL,
    cfg: QuadConfig = DEFAULT_CONFIG,
) -> OrderVerdict:
    """Variance-residual-life order via the ratio of double tail integrals.

    The ratio of int_t^inf int_u^inf surv_X over the same for Y must be
    non-increasing.  Each D is a column (``Dist._column``): a closed
    double tail read at each grid point, any other one integral at the top
    grid point and one Chebyshev sweep of T down the grid, not an improper
    integral per point.  Where Y's double tail is 0, from its support end
    on or where it underflows, the ratio is undefined: BeyondSupport names
    Y and the first such point.
    """
    ts = _grid_points(grid)
    Y = _resolve(_source_dist(Y), conv=conv)
    dx = _resolve(_source_dist(X), conv=conv)._column("double_tail", ts, cfg)
    dy = Y._column("double_tail", ts, cfg)
    for t, v in zip(ts, dy):
        if v <= 0.0:
            raise BeyondSupport(f"{Y.lineage}: double tail is 0 at t={t!r}, vrl ratio undefined")
    return _ratio_nonincreasing(ts, list(map(truediv, dx, dy)), tol, "grid")


def mrl_order(
    X: Dist,
    Y: Dist,
    grid,
    conv: Convention = Convention.ZERO,
    tol: float = DEFAULT_ORDER_TOL,
    cfg: QuadConfig = DEFAULT_CONFIG,
) -> OrderVerdict:
    """Mean-residual-life order: mu_X <= mu_Y pointwise.

    mu is the profile's under ``conv`` where that resolves the ``Dist`` to
    its formal view (``ageing._resolve``), else the ZERO one's, whose mu is
    mean - t below the support start.
    """
    ts = _grid_points(grid)

    def mu(src):
        d = _source_dist(src)
        view = _resolve(d, conv=conv) is not d
        return _profile_for(src, ts, conv if view else Convention.ZERO, cfg).mu

    return _pointwise_leq(ts, mu(X), mu(Y), tol, "grid")


def linear_mrl_order(a: float, b: float, c: float, d: float) -> OrderVerdict:
    """Order between linear-MRL lifetimes mu_X = a + b t and mu_Y = c + d t.

    L_X <= L_Y everywhere exactly when the determinant a*d - b*c is
    non-negative.
    """
    for name, v in (("a", a), ("c", c)):
        if not v > 0:
            raise ValueError(f"{name} must be positive")
    for name, v in (("b", b), ("d", d)):
        if v < 0:
            raise ValueError(f"{name} must be non-negative")
    det = a * d - b * c
    if det >= 0.0:
        return OrderVerdict(Relation.HOLDS, "thm_4_4", note=f"determinant {det:g}")
    # any positive t witnesses the reversal; quote t = 1
    lx = (a + b) / (a + 0.5 * b)
    ly = (c + d) / (c + 0.5 * d)
    return OrderVerdict(
        Relation.FAILS,
        "thm_4_4",
        witness=Witness(1.0, lx, ly),
        note=f"determinant {det:g}",
    )


def sufficient_conditions(
    X: Dist,
    Y: Dist,
    grid,
    conv: Convention = Convention.ZERO,
    tol: float = DEFAULT_ORDER_TOL,
    cfg: QuadConfig = DEFAULT_CONFIG,
):
    """Shortcut verdicts from proven sufficiency theorems, or None.

    X decreasing in MRL with Y increasing settles the order outright; so
    does X decreasing in MRL average with Y increasing.  Hypotheses are
    verified on the grid's points, or on 16 evenly spaced between its ends
    where it has fewer (a grid too coarse is refined, not refused), from
    the ZERO profiles for the MRL and the ``conv`` profiles for its
    average, and the stricter pair is preferred when both apply.
    """
    ts = _grid_points(grid)
    g = ts if len(ts) >= 16 else _grid_points(Grid(ts[0], ts[-1], 16))
    vx = classify_mrl(X, g, cfg=cfg)
    vy = classify_mrl(Y, g, cfg=cfg)
    if vx.kind is Kind.DECREASING and vy.kind is Kind.INCREASING:
        return OrderVerdict(
            Relation.HOLDS,
            "thm_4_3",
            grid=g,
            note="X decreasing in MRL, Y increasing in MRL",
        )
    ax = classify_mrla(X, g, conv, cfg=cfg)
    ay = classify_mrla(Y, g, conv, cfg=cfg)
    if ax.kind is Kind.DECREASING and ay.kind is Kind.INCREASING:
        return OrderVerdict(
            Relation.HOLDS,
            "thm_4_2",
            grid=g,
            note="X decreasing in MRL average, Y increasing in MRL average",
        )
    return None


# order name -> check, as the corpus and the CLI spell it; every entry is
# called as (X, Y, grid, conv, cfg)
BY_NAME = {
    "mrlai": lambda X, Y, g, conv, cfg: mrlai_order(X, Y, g, conv, cfg=cfg),
    "ratio": lambda X, Y, g, conv, cfg: ratio_test(X, Y, g, conv, cfg=cfg),
    "lr": lambda X, Y, g, conv, cfg: lr_order(X, Y, g),
    "icx": lambda X, Y, g, conv, cfg: icx_order(X, Y, g, conv, cfg=cfg),
    "vrl": lambda X, Y, g, conv, cfg: vrl_order(X, Y, g, conv, cfg=cfg),
    "mrl": lambda X, Y, g, conv, cfg: mrl_order(X, Y, g, conv, cfg=cfg),
}


def weibull_rule(shape_x: float, shape_y: float):
    """Published shape-ordering rule for two Weibull lifetimes, or None.

    The rule asserts the order from shape_x <= shape_y alone and is
    one-directional; a larger first shape yields no verdict.  It is kept
    as a standalone advisory and never used as a shortcut, because the
    grid check is the arbiter.
    """
    if not (shape_x > 0 and shape_y > 0):
        raise ValueError("shapes must be positive")
    if shape_x <= shape_y:
        return OrderVerdict(
            Relation.HOLDS,
            "weibull_rule",
            note=f"shape {shape_x:g} <= {shape_y:g}",
        )
    return None


@dataclass(frozen=True)
class ScaleReport:
    """Outcome of checking that rescaling both sides preserves the order."""

    factor: float
    base: OrderVerdict
    scaled: OrderVerdict
    max_margin: float

    @property
    def preserved(self) -> bool:
        return self.base.holds and self.scaled.holds


def check_scale_preservation(
    X: Dist,
    Y: Dist,
    factor: float,
    grid,
    conv: Convention = Convention.ZERO,
    tol: float = DEFAULT_ORDER_TOL,
    cfg: QuadConfig = DEFAULT_CONFIG,
) -> ScaleReport:
    """Verify that X below Y implies factor*X below factor*Y.

    The scaled pair is compared on the correspondingly scaled grid, where
    the identity L_{aX}(a t) = L_X(t) makes preservation exact.
    """
    from .ops import scale

    ts = _grid_points(grid)
    base = mrlai_order(X, Y, ts, conv, tol, cfg)
    scaled_ts = [factor * t for t in ts]
    # the scaled verdict and the margin come from the same two profiles
    lx = profile(scale(_source_dist(X), factor), scaled_ts, conv, cfg).L
    ly = profile(scale(_source_dist(Y), factor), scaled_ts, conv, cfg).L
    scaled = _pointwise_leq(scaled_ts, lx, ly, tol, "grid")
    max_margin = max(a - b for a, b in zip(lx, ly))
    return ScaleReport(factor, base, scaled, max_margin)
