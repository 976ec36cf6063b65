"""Mean residual life and ageing-intensity evaluation.

The central quantity is the MRL-based ageing intensity

    L(t) = mu(t) / ( (1/t) * int_0^t mu(u) du ),   t > 0,

where mu(t) = E[X - t | X > t] is the mean residual life.  Values above 1
indicate a weaker ageing tendency at t, values below 1 a stronger one.

The source material is not consistent about what the denominator integral
means for distributions whose support starts above zero, so the choice is
made explicit here as a ``Convention``:

* ``ZERO``          -- integrate the true MRL from 0 (below the support
                       start the MRL of a lifetime is mean - t);
* ``SUPPORT_START`` -- integrate from the support start but still divide
                       by t (how the uniform order-statistic example is
                       worked in the source);
* ``FORMAL``        -- integrate the on-support formula analytically
                       continued down to 0 (how the Pareto
                       characterisation L = 2 is obtained).

For distributions supported from 0 the three conventions coincide.

Each public evaluation takes ``method``: "auto" reads the closed tail, MRL
and MRL integral where the family has them, and "quadrature" integrates
the survival function instead, the library's own check of its closed
forms.  The method is resolved once per call into the ``Dist`` that is
evaluated (``_resolve``), so the code below it follows the ``Dist`` alone.

Scalar ``mrlai`` and ``mrl_average`` are one-point profiles, bit for bit,
at every t above the convention origin.  Next to it G(t) meets
max(abs_tol, rel_tol * G), so the average's error is of order abs_tol / t.
Their t is read as a grid point (``_grid_points``): NaN, infinite and
nonzero subnormal points raise GridError.

The increasing-convex and variance-residual-life orders read the tail
T(t) = int_t^inf S and the double tail D(t) = int_t^inf T on a grid
(``_tails_on_grid``).  Without closed forms they run on the chain of the
mu sweep: one integral at the top point, then one Chebyshev sweep down
the points and the breakpoints between them, where D adds the interval
integrals of T to D(top) from the right as G adds those of mu from the
left.
"""

from __future__ import annotations

import enum
import math
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import accumulate
from operator import lt, truediv

from .distributions import Dist
from .errors import (
    BeyondSupport,
    Divergence,
    GridError,
    NonPositiveMrl,
    UnsupportedCapability,
)
from .quadrature import DEFAULT_CONFIG, QuadConfig, cheb_sweep, integrate_finite

__all__ = [
    "Convention",
    "Grid",
    "MrlProfile",
    "mrl",
    "mrl_average",
    "mrlai",
    "survival_from_mrl",
    "hazard",
    "hazard_ai",
    "mrlai_closed_form",
    "profile",
]

class Convention(enum.Enum):
    ZERO = "zero"
    SUPPORT_START = "support"
    FORMAL = "formal"


def _origin(d: Dist, conv: Convention) -> float:
    return d.support[0] if conv is Convention.SUPPORT_START else 0.0


def _resolve(d: Dist, method) -> Dist:
    """The ``Dist`` that ``method`` evaluates: ``d`` for "auto", and for
    "quadrature" its view without closed tail, MRL and MRL integral
    (``Dist._quadrature_view``, built once per ``Dist``).  Any other
    method raises ValueError."""
    if method == "auto":
        return d
    if method != "quadrature":
        raise ValueError(f"method must be 'auto' or 'quadrature', got {method!r}")
    return d._quadrature_view


def mrl(d: Dist, t: float, cfg: QuadConfig = DEFAULT_CONFIG, method: str = "auto") -> float:
    """Mean residual life mu(t) = int_t^inf survival / survival(t).

    Below the support start this is the true conditional mean, mean - t.
    Raises BeyondSupport where the survival function has reached zero.
    ``method="quadrature"`` integrates the survival function in place of
    the closed MRL and tail (``_resolve``).
    """
    return _mrl(_resolve(d, method), t, cfg)


def _mrl(d, t, cfg):
    s0, s1 = d.support
    if t >= s1:
        raise BeyondSupport(f"{d.lineage}: mrl undefined at t={t!r} (past support end)")
    if t < s0:
        return d.tail(t, cfg)  # S = 1 there, so mu = T
    if d.has_closed_mrl:
        return d.mrl_closed(t)
    sv = d.survival(t)
    if sv <= 0.0:
        raise BeyondSupport(f"{d.lineage}: survival underflowed to zero at t={t!r}")
    return d.tail(t, cfg) / sv


def _formal_parts(d: Dist):
    if d.formal is not None:
        return d.formal.mrl, d.formal.mrl_integral
    if d.support[0] == 0.0:
        return None, None  # formal coincides with zero convention
    raise UnsupportedCapability(
        f"{d.lineage}: no formal continuation below the support start is defined"
    )


def _mrl_point(d, t, conv, cfg):
    """MRL value entering the MRLAI numerator under the given convention."""
    if conv is Convention.FORMAL:
        fm, _ = _formal_parts(d)
        if fm is not None and t < d.support[0]:
            return fm(t)
    if conv is Convention.SUPPORT_START and t < d.support[0]:
        raise BeyondSupport(
            f"{d.lineage}: t={t!r} lies below the support start under the "
            "support-start convention"
        )
    return _mrl(d, t, cfg)


def mrl_average(
    d: Dist,
    t: float,
    conv: Convention = Convention.ZERO,
    cfg: QuadConfig = DEFAULT_CONFIG,
    method: str = "auto",
) -> float:
    """Running average (1/t) * int mu over [origin, t] for the convention:
    a one-point ``profile`` (see the module docstring).  A t at or below
    the origin raises GridError."""
    d = _resolve(d, method)
    ts = _grid_points((t,))
    origin = _origin(d, conv)
    if ts[0] <= origin:
        raise GridError(f"mrl_average needs t above the convention origin {origin!r}")
    return _evaluate(d, ts, conv, cfg, need_mu=False)[1][0] / ts[0]


def mrlai(
    d: Dist,
    t: float,
    conv: Convention = Convention.ZERO,
    cfg: QuadConfig = DEFAULT_CONFIG,
    method: str = "auto",
) -> float:
    """Ageing intensity L(t) = mu(t) / mrl_average(t) under the convention.

    A one-point ``profile`` (see the module docstring).  At or below the
    origin the numerator raises where it is undefined, else the average.
    """
    d = _resolve(d, method)
    ts = _grid_points((t,))
    if ts[0] <= _origin(d, conv):
        return _mrl_point(d, ts[0], conv, cfg) / mrl_average(d, ts[0], conv, cfg)
    mu, g = _evaluate(d, ts, conv, cfg)
    return mu[0] / (g[0] / ts[0])


def survival_from_mrl(mu, t: float, cfg: QuadConfig = DEFAULT_CONFIG) -> float:
    """Reconstruct the survival function from an MRL function.

    Implements F(t) = (mu(0)/mu(t)) * exp(-int_0^t du/mu(u)) for a strictly
    positive, piecewise-continuous mu.
    """
    mu0 = mu(0.0)
    if not (math.isfinite(mu0) and mu0 > 0.0):
        raise NonPositiveMrl(f"mu(0) = {mu0!r} must be strictly positive")
    if t == 0.0:
        return 1.0
    mut = mu(t)
    if not (math.isfinite(mut) and mut > 0.0):
        raise NonPositiveMrl(f"mu({t!r}) = {mut!r} must be strictly positive")

    def inv(u):
        v = mu(u)
        if not (math.isfinite(v) and v > 0.0):
            raise NonPositiveMrl(f"mu({u!r}) = {v!r} must be strictly positive")
        return 1.0 / v

    return mu0 / mut * math.exp(-integrate_finite(inv, 0.0, t, cfg))


def hazard(d: Dist, t: float) -> float:
    """Failure rate f(t)/survival(t)."""
    sv = d.survival(t)
    if sv <= 0.0:
        raise BeyondSupport(f"{d.lineage}: hazard undefined at t={t!r}")
    return d.density(t) / sv


def hazard_ai(d: Dist, t: float) -> float:
    """Classic hazard-based ageing intensity r(t) / ((1/t) int_0^t r).

    The cumulative hazard equals -ln(survival), so no quadrature is needed
    when the density is available.  Evaluated as a one-point grid
    (``_hazard_ai_on_grid``); raises BeyondSupport where it is undefined.
    """
    (ai,), why = _hazard_ai_on_grid(d, _grid_points((t,)))
    if why is not None:
        raise BeyondSupport(why)
    return ai


def _hazard_ai_on_grid(d: Dist, ts, survival=None):
    """Hazard AI at each of the points ``ts``, and why it is undefined at the
    first point where it is (None where it is defined everywhere).

    Such a point holds nan: below the support start no hazard has
    accumulated, and where the survival function is 0 there is no hazard.
    S and f are read once per point, as columns (``Dist._on_grid``); a
    caller that has S at ``ts`` passes it as ``survival``.  A point t <= 0
    raises GridError.
    """
    if ts[0] <= 0.0:
        raise GridError("hazard_ai needs t > 0")
    if survival is None:
        survival = d._on_grid(ts, d.survival, d._survival, 1.0, 0.0)
    density = d._on_grid(ts, d.density, d._density, 0.0, 0.0)
    vals, why = [], None
    for t, sv, f in zip(ts, survival, density):
        if sv <= 0.0:
            vals.append(math.nan)
            why = why or f"{d.lineage}: hazard undefined at t={t!r}"
            continue
        r = f / sv
        cumulative = -math.log(sv)
        if cumulative <= 0.0:
            vals.append(math.nan)
            why = why or f"{d.lineage}: no hazard has accumulated by t={t!r}"
            continue
        vals.append(r * t / cumulative)
    return vals, why


def mrlai_closed_form(spec, t: float):
    """Published closed-form ageing intensity for the families that have one.

    Returns None for every other spec.  The Pareto value applies under the
    formal integration convention.
    """
    return spec.closed_L(t)


@dataclass(frozen=True)
class Grid:
    """Evaluation grid on [t_min, t_max], linear or logarithmic spacing."""

    t_min: float
    t_max: float
    n_points: int = 512
    spacing: str = "linear"

    def __post_init__(self):
        if not (self.t_min < self.t_max):
            raise GridError("t_min must be below t_max")
        if self.n_points < 2:
            raise GridError("n_points must be at least 2")
        if self.spacing not in ("linear", "log"):
            raise GridError("spacing must be 'linear' or 'log'")
        if self.spacing == "log" and self.t_min <= 0:
            raise GridError("log spacing needs t_min > 0")

    def points(self):
        return list(self._points)

    @cached_property
    def _points(self):
        # worked out and read on the first call; the grid is frozen
        n, lo, hi = self.n_points, self.t_min, self.t_max
        if self.spacing == "log":
            la, lb = math.log(lo), math.log(hi)
            return _grid_points([math.exp(la + (lb - la) * i / (n - 1)) for i in range(n)])
        return _grid_points([lo + (hi - lo) * i / (n - 1) for i in range(n)])


class _Points(tuple):
    """Strictly increasing floats that ``_grid_points`` has read."""


def _grid_points(grid) -> tuple:
    """A grid argument, a ``Grid`` or a sequence of numbers, read into
    strictly increasing floats (``_Points``, returned as they are when read
    again).  An empty or not strictly increasing grid raises GridError, as
    does a NaN, an infinite or a nonzero subnormal point (too few bits for
    G(t)/t)."""
    ts = grid._points if isinstance(grid, Grid) else grid
    if type(ts) is _Points:
        return ts
    ts = tuple(map(float, ts))
    if not ts:
        raise GridError("empty grid")
    if not all(map(lt, ts, ts[1:])):  # a NaN point fails every comparison
        raise GridError("grid must be strictly increasing, with no NaN point")
    # so only an end can be infinite or NaN, and the subnormals lie around 0
    tiny = sys.float_info.min
    for t in (ts[0], ts[-1], *ts[bisect_right(ts, -tiny) : bisect_left(ts, tiny)]):
        if not (t == 0.0 or tiny <= abs(t) < math.inf):
            raise GridError(f"unusable grid point {t!r}: NaN, infinite or subnormal")
    return _Points(ts)


@dataclass(frozen=True)
class MrlProfile:
    """Grid evaluation of mu, its running average, L, and optionally the
    hazard-based ageing intensity.  By construction L[j] = mu[j]/mu_avg[j].

    The verdicts in ``classify`` and ``orders`` read its columns; they take
    the ``Dist``, not a profile (see ``_profile_for``).
    """

    grid: tuple
    mu: tuple
    mu_avg: tuple
    L: tuple
    hazard_ai: tuple | None
    convention: Convention


def profile(
    d: Dist,
    grid,
    conv: Convention = Convention.ZERO,
    cfg: QuadConfig = DEFAULT_CONFIG,
    method: str = "auto",
    with_hazard_ai: bool = False,
) -> MrlProfile:
    """Evaluate the ageing quantities along a grid (``_grid_points``).

    Closed forms are used where the ``Dist`` that ``method`` resolves to
    has them (``_resolve``): "quadrature" drops them.  Otherwise one sweep
    from the top of the grid down to the convention origin produces mu and
    G(t) = int mu together: it starts from a single tail integral at the
    top grid point and covers each grid panel with adaptive 33-point
    Chebyshev-Lobatto panels (``quadrature.cheb_sweep``).  On each panel
    the tail T(x) = T(b) + int_x^b S is chained through the survival
    samples, mu = T/S at the same nodes, and their Clenshaw-Curtis sum
    gives the panel's share of G.  A panel is refined until both the
    survival and the mu integrals meet the tolerance, so a profile costs
    about one panel of survival samples per grid point for smooth
    families.  Where the MRL or the tail is closed, the sweep integrates
    the closed mu instead.  Scalar ``mrlai`` and ``mrl_average`` are
    one-point profiles, bit for bit, at every t above the origin.
    """
    d = _resolve(d, method)
    ts = _grid_points(grid)
    origin = _origin(d, conv)
    if ts[0] <= origin:
        raise GridError(f"grid must start above the convention origin {origin!r}")

    mu_vals, g_vals = _evaluate(d, ts, conv, cfg)
    mu_vals = tuple(mu_vals)
    mu_avg = tuple(map(truediv, g_vals, ts))
    L = tuple(map(truediv, mu_vals, mu_avg))

    ai = None
    if with_hazard_ai and d.has_density:
        ai = tuple(_hazard_ai_on_grid(d, ts)[0])
    return MrlProfile(ts, mu_vals, mu_avg, L, ai, conv)


class _Profiles:
    """The profiles of one ``Dist``, each built on a verdict's first request
    for it (``_profile_for``) and kept while this object lives: one command,
    or one corpus case.

    A convention that coincides with ZERO, support from 0 and no formal
    continuation (as in ``_formal_parts``), gets the ZERO profile
    relabelled, not computed again.  A build that fails is not kept, so
    each verdict raises the error it would raise alone.
    """

    def __init__(self, d: Dist):
        self.dist = d
        self._built = {}

    def get(self, ts, conv, cfg, method) -> MrlProfile:
        key = (ts, conv, cfg, method)
        p = self._built.get(key)
        if p is None:
            d = self.dist
            if conv is not Convention.ZERO and d.support[0] == 0.0 and d.formal is None:
                p = replace(self.get(ts, Convention.ZERO, cfg, method), convention=conv)
            else:
                p = profile(d, ts, conv, cfg, method)
            self._built[key] = p
        return p


def _profile_for(source, grid, conv, cfg=DEFAULT_CONFIG, method="auto") -> MrlProfile:
    """The profile a verdict reads on ``grid`` under ``conv``: built here
    from a ``Dist``, or asked of a ``_Profiles``, which builds it once for
    all the verdicts that read it."""
    if isinstance(source, _Profiles):
        return source.get(_grid_points(grid), conv, cfg, method)
    return profile(_source_dist(source), grid, conv, cfg, method)


def _source_dist(source) -> Dist:
    """The ``Dist`` behind a verdict's ``source``: a ``Dist`` or its ``_Profiles``."""
    if isinstance(source, _Profiles):
        return source.dist
    if isinstance(source, Dist):
        return source
    raise TypeError(f"a verdict takes a Dist or its _Profiles, not {type(source).__name__}")


def _evaluate(d, ts, conv, cfg, need_mu=True):
    """(mu, G) at the grid points, G(t) = int mu from the convention origin.

    ``mu`` is None when ``need_mu`` is false.  G is defined up to the
    support end, mu below it; a point past the end raises BeyondSupport.
    """
    g_closed = _closed_integral(d, conv)
    if ts[-1] > d.support[1]:
        raise BeyondSupport(f"{d.lineage}: mrl undefined at t={ts[-1]!r} (past support end)")
    if g_closed is None:
        return _sweep(d, ts, conv, cfg, need_mu)
    mu = _closed_mu(d, ts, conv, cfg) if need_mu else None
    return mu, list(map(g_closed, ts))


def _closed_mu(d, ts, conv, cfg):
    """mu at the increasing points ``ts`` of a closed-G profile: the closed
    mu mapped over the points on the support, ``_mrl_point`` elsewhere."""
    return d._on_grid(ts, lambda t: _mrl_point(d, t, conv, cfg), d._mrl)


def _closed_integral(d, conv):
    """t -> G(t) in closed form, or None where the family has none.

    The family's MRL integral runs from the support start s0 (see
    ``Dist``), which is G itself under SUPPORT_START.  Under ZERO, G below
    s0 is the true continuation (``_true_integral``), and above it that
    continuation's value at s0 plus the family's integral.  FORMAL reads
    the formal continuation's integral, which runs from 0.
    """
    if conv is Convention.FORMAL:
        _, fint = _formal_parts(d)
        if fint is not None:
            return fint
    closed, s0 = d._mrl_integral, d.support[0]
    if closed is None or s0 == 0.0 or conv is Convention.SUPPORT_START:
        return closed
    below = _true_integral(d, s0)
    return lambda t: below + closed(t) if t >= s0 else _true_integral(d, t)


def _true_integral(d, x):
    """int_0^x of the true MRL below the support start (0 <= x <= s0),
    where mu = mean - u: the ZERO convention's G there.  0 at x = 0, where
    the mean is not read."""
    return d.mean * x - 0.5 * x * x if x > 0 else 0.0


def _sweep(d, ts, conv, cfg, need_mu):
    """mu and G at the grid points without a closed G (see ``profile``)."""
    s0, s1 = d.support
    fm = _formal_parts(d)[0] if conv is Convention.FORMAL else None
    lo = max(s0, _origin(d, conv))
    pts = [t for t in ts if t > lo]

    # on the support: mu and G from lo.  At a finite support end mu takes
    # its limit 0 (0 <= mu(x) <= s1 - x), so G(s1) is defined although
    # mu(s1) is not.
    mu_at, g_at = {}, {lo: 0.0}
    if pts:
        knots = _knots(d, lo, pts)
        top = knots[-1]
        if d.has_closed_mrl or d._tail is not None:
            mu_closed = lambda u: _mrl(d, u, cfg) if u < s1 else 0.0
            mu_on, seg = _integrate_knots(mu_closed, knots, cfg)
        else:
            if top < s1 and d.survival(top) <= 0.0:
                raise BeyondSupport(f"{d.lineage}: survival underflowed to zero at t={top!r}")
            hook = _chained_tail(d, d.tail(top, cfg), over_survival=True)
            mu_on, seg = _integrate_knots(d.survival, knots, cfg, hook)
        mu_at = {k: m for k, m in zip(knots, mu_on) if k < s1}
        g_at = dict(zip(knots, accumulate(seg, initial=0.0)))

    # below the support start: the formal continuation or the true MRL
    if fm is not None:
        below = [0.0] + sorted({min(t, s0) for t in ts if min(t, s0) > 0.0})
        g_fm = dict(zip(below, accumulate(_integrate_knots(fm, below, cfg)[1], initial=0.0)))
        g_below = lambda x: g_fm[x]
    elif conv is Convention.SUPPORT_START:
        g_below = lambda x: 0.0
    else:
        g_below = lambda x: _true_integral(d, x)

    g = [g_below(min(t, s0)) + g_at.get(t, 0.0) for t in ts]
    mu = None
    if need_mu:
        mu = [mu_at[t] if t in mu_at else _mrl_point(d, t, conv, cfg) for t in ts]
    return mu, g


def _knots(d, lo, pts):
    """The knots of a sweep from ``lo`` to the last of the increasing
    points ``pts``: lo, the points above it and the breakpoints of ``d``
    between them, so no panel straddles a kink of the survival function."""
    top = pts[-1]
    return sorted({lo, *(t for t in pts if t > lo), *(b for b in d.breakpoints if lo < b < top)})


def _integrate_knots(f, knots, cfg, resolve=None):
    """Values at the knots and the integral over each knot interval of f,
    or of the node values ``resolve`` derives from it, in one sweep."""
    vals = [0.0] * len(knots)
    seg = [0.0] * (len(knots) - 1)
    last = None
    for p in cheb_sweep(f, knots, cfg, resolve):
        g, integral = (p.fs, p.integral) if resolve is None else (p.g, p.g_integral)
        if p.interval != last:  # the rightmost panel of its knot interval
            vals[p.interval + 1] = g[0]
            last = p.interval
        seg[p.interval] += integral
        vals[0] = g[-1]
    return vals, seg


def _chained_tail(d, tail_top, over_survival=False):
    """A ``cheb_sweep`` hook that turns survival panels into the tail
    T(x) = T(top) + int_x^top S, chained down from T(top) = ``tail_top``,
    or with ``over_survival`` into mu = T/S (0 at a finite support end)."""
    s1 = d.support[1]

    def nodes(p):
        tails = [tail_top + tail for tail in p.tails]
        if not over_survival:
            return tails
        for x, sv in zip(p.xs, p.fs):
            if x < s1 and sv <= 0.0:
                raise BeyondSupport(f"{d.lineage}: survival underflowed to zero at t={x!r}")
        return [tail / sv if x < s1 else 0.0 for x, sv, tail in zip(p.xs, p.fs, tails)]

    return nodes


def _tails_on_grid(d, ts, conv, cfg, double=True):
    """T(t) = int_t^inf S at each of the increasing points ``ts`` and, with
    ``double``, the double tail D(t) = int_t^inf T; D is None without it.

    Under the formal convention T is the formal continuation's tail.  A
    closed T, and a closed double tail (``_closed_double_tail``), are
    sampled at the points.  Otherwise one sweep runs over the ``_knots``
    of the points below a finite support end: a closed T is swept
    directly, a numeric one is chained from T(top) (``_chained_tail``),
    and D adds each knot interval's integral of T to D(top)
    (``_top_double_tail``) from the top down.  Without ``double`` a
    numeric T adds the survival's interval integrals to T(top) and needs
    no hook.  Points at or past a finite support end get T = D = 0.
    """
    formal = conv is Convention.FORMAL and d.formal is not None
    tail = d.formal.tail if formal else (lambda u: d.tail(u, cfg))
    closed = formal or d._tail is not None
    if closed and not double:
        return _closed_tails(d, ts, formal), None
    s1 = d.support[1]
    if closed and _closed_double_tail(d, ts[0], formal) is not None:
        dd = [_closed_double_tail(d, t, formal) if t < s1 else 0.0 for t in ts]
        return _closed_tails(d, ts, formal), dd
    pts = [t for t in ts if t < s1]
    t_at, d_at = {}, {}
    if pts:
        knots = _knots(d, pts[0], pts)
        top = knots[-1]
        t_top = tail(top)
        d_top = _top_double_tail(d, tail, top, closed, cfg) if double else None
        hook = _chained_tail(d, t_top) if double and not closed else None
        t_on, seg = _integrate_knots(tail if closed else d.survival, knots, cfg, hook)
        if double:
            t_at = dict(zip(knots, t_on))
            d_at = dict(zip(reversed(knots), accumulate(reversed(seg), initial=d_top)))
        else:
            above = accumulate(reversed(seg), initial=0.0)
            t_at = {k: t_top + c for k, c in zip(reversed(knots), above)}
    values = [t_at.get(t, 0.0) for t in ts]
    return values, ([d_at.get(t, 0.0) for t in ts] if double else None)


def _closed_tails(d, ts, formal):
    """The closed T at each of the increasing points ``ts``: the formal
    continuation's tail, or ``Dist.tail``, whose closed form is read on
    the support and which gives mean - t below it and 0 past it."""
    if formal:
        return list(map(d.formal.tail, ts))
    return d._on_grid(ts, d.tail, d._tail, None, 0.0)


def _closed_double_tail(d, t, formal):
    """D(t) from the spec's closed double tail, or None where it has none.

    On the support the true double tail is the formal one; below it,
    unless ``formal``, T = mean - u.
    """
    if d.spec is None:
        return None
    s0 = d.support[0]
    at = d.spec.closed_double_tail(t if formal else max(t, s0))
    if at is None or formal or t >= s0:
        return at
    return at + (s0 - t) * (d.mean - 0.5 * (s0 + t))


def _top_double_tail(d, tail, top, closed, cfg):
    """D(top) for ``_tails_on_grid``, to the tolerance ``Dist.tail`` meets."""
    f = tail if closed else (lambda u: (u - top) * d.survival(u))
    try:
        return d._integral_above(f, top, d._tail_config(top, cfg))
    except Divergence as exc:
        raise Divergence(
            f"{d.lineage}: the double tail integral from t={top!r} diverges "
            "(the tail integral decays too slowly)"
        ) from exc
