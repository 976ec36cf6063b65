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
forms.  Both switches are resolved once per call into the ``Dist`` that
is evaluated (``_resolve``), FORMAL into its formal view, so the code
below follows the ``Dist`` and the origin of G (``_origin``) alone.

Scalar ``mrlai`` and ``mrl_average`` are one-point profiles, bit for bit,
at every t above the convention origin.  Next to it G(t) meets
max(abs_tol, rel_tol * G), so the average's error is of order abs_tol / t.
Their t, and that of ``mrl``, ``hazard`` and ``hazard_ai``, is read as a
grid point (``_grid_points``): NaN, infinite and nonzero subnormal points
raise GridError.

The grid columns (S, f, T, the double tail D, and mu with G from the
convention origin) are the resolved ``Dist``'s, which also decides the
support edges.
"""

from __future__ import annotations

import enum
import math
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from functools import cached_property
from operator import lt, truediv

from .distributions import Dist
from .errors import (
    BeyondSupport,
    GridError,
    NonPositiveMrl,
    UnsupportedCapability,
)
from .quadrature import DEFAULT_CONFIG, QuadConfig, integrate_finite

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


def _resolve(d: Dist, method="auto", conv: Convention = Convention.ZERO) -> Dist:
    """The ``Dist`` that ``method`` and ``conv`` evaluate: for "quadrature"
    the view without closed T, D, mu and G (``Dist._quadrature_view``),
    then under FORMAL its formal view (``Dist._formal_view``), each built
    once per ``Dist``.  Without a formal view it stays itself: its true T,
    D and mu are read, and G from 0 is undefined (``_origin``).  Any other
    method raises ValueError.  Only these two functions branch on FORMAL.
    """
    if method == "quadrature":
        d = d._quadrature_view
    elif method != "auto":
        raise ValueError(f"method must be 'auto' or 'quadrature', got {method!r}")
    if conv is Convention.FORMAL:
        return d._formal_view or d
    return d


def _origin(d: Dist, conv: Convention) -> float:
    """Where G starts under ``conv``: s0 under SUPPORT_START, else 0, but
    FORMAL raises UnsupportedCapability where ``d`` has no formal view."""
    if conv is Convention.SUPPORT_START:
        return d.support[0]
    if conv is Convention.FORMAL and d._formal_view is None:
        raise UnsupportedCapability(
            f"{d.lineage}: no formal continuation below the support start is defined"
        )
    return 0.0


def mrl(d: Dist, t: float, cfg: QuadConfig = DEFAULT_CONFIG, method: str = "auto") -> float:
    """Mean residual life mu(t) = int_t^inf survival / survival(t)
    (``Dist.mrl``).

    Below the support start this is the true conditional mean, mean - t.
    Raises BeyondSupport where the survival function has reached zero, or
    lies below what a quadrature tail resolves.
    ``method="quadrature"`` integrates the survival function in place of
    the closed MRL and tail (``_resolve``).  t is read as a grid point
    (``_grid_points``): NaN, infinite and nonzero subnormal t raise
    GridError.
    """
    return _resolve(d, method).mrl(_grid_points((t,))[0], cfg)


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
    r = _resolve(d, method, conv)
    ts = _grid_points((t,))
    return _evaluate(r, ts, conv, cfg, need_mu=False)[1][0] / ts[0]


def mrlai(
    d: Dist,
    t: float,
    conv: Convention = Convention.ZERO,
    cfg: QuadConfig = DEFAULT_CONFIG,
    method: str = "auto",
) -> float:
    """Ageing intensity L(t) = mu(t) / mrl_average(t) under the convention.

    A one-point ``profile`` (see the module docstring).  A t at or below
    the origin raises GridError, but BeyondSupport below the support start
    under SUPPORT_START.
    """
    r = _resolve(d, method, conv)
    (t,) = ts = _grid_points((t,))
    if conv is Convention.SUPPORT_START and t < d.support[0]:
        raise BeyondSupport(
            f"{d.lineage}: t={t!r} lies below the support start under the "
            "support-start convention"
        )
    mu, g = _evaluate(r, ts, conv, cfg)
    return mu[0] / (g[0] / t)


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
    """Failure rate f(t)/survival(t).  t is read as a grid point
    (``_grid_points``): NaN, infinite and nonzero subnormal t raise
    GridError."""
    (t,) = _grid_points((t,))
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
    S and f are read once per point, as columns (``Dist._column``); a
    caller that has S at ``ts`` passes it as ``survival``.  A point t <= 0
    raises GridError.
    """
    if ts[0] <= 0.0:
        raise GridError("hazard_ai needs t > 0")
    if survival is None:
        survival = d._column("survival", ts)
    density = d._column("density", ts)
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

    Closed forms are used where the ``Dist`` that ``method`` and ``conv``
    resolve to has them (``_resolve``): "quadrature" drops them.
    Otherwise mu and G(t) = int mu from the convention origin come from
    one sweep, and below the support start from mu there
    (``Dist._mrl_on_grid``, through ``_evaluate``).  Scalar ``mrlai`` and
    ``mrl_average`` are one-point profiles, bit for bit, at every t above
    the origin.  The hazard AI is ``d``'s, whatever the convention.
    """
    r = _resolve(d, method, conv)
    ts = _grid_points(grid)
    mu_vals, g_vals = _evaluate(r, ts, conv, cfg)
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

    Requests that resolve to one ``Dist`` and one origin of G (``_resolve``,
    ``_origin``) share a profile, relabelled with each one's convention:
    for a support from 0 all three conventions do.  A build that fails is
    not kept, so each verdict raises the error it would raise alone.
    """

    def __init__(self, d: Dist):
        self.dist = d
        self._built = {}  # (points, convention, cfg, method) -> profile
        self._same = {}  # (points, resolved Dist, origin, cfg) -> profile

    def get(self, ts, conv, cfg, method) -> MrlProfile:
        key = (ts, conv, cfg, method)
        p = self._built.get(key)
        if p is None:
            d = self.dist
            same = (ts, _resolve(d, method, conv), _origin(d, conv), cfg)
            p = self._same.get(same)
            if p is None:
                p = self._same[same] = profile(d, ts, conv, cfg, method)
            self._built[key] = p = p if p.convention is conv else replace(p, convention=conv)
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
    """(mu, G) at the grid points of the resolved ``Dist`` ``d``
    (``_resolve``), G(t) = int mu from the convention origin (``_origin``),
    from one ``Dist._mrl_on_grid`` read.  ``mu`` is None when ``need_mu``
    is false.  A first point at or below the origin raises GridError.
    """
    origin = _origin(d, conv)
    if ts[0] <= origin:
        raise GridError(f"t must lie above the convention origin {origin!r}")
    return d._mrl_on_grid(ts, origin, cfg, need_mu)
