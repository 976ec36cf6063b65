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
"""

from __future__ import annotations

import bisect
import enum
import math
from dataclasses import dataclass

from .distributions import Dist
from .errors import (
    BeyondSupport,
    GridError,
    NonPositiveMrl,
    OriginSingularity,
    UnsupportedCapability,
)
from .quadrature import DEFAULT_CONFIG, QuadConfig, cumulative_on_grid, integrate_finite

__all__ = [
    "Convention",
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

# below this fraction of the mean, the running average switches to a
# first-order expansion to dodge 0/0 noise at the origin
_SMALL_T_FRACTION = 1e-4


class Convention(enum.Enum):
    ZERO = "zero"
    SUPPORT_START = "support"
    FORMAL = "formal"


def _origin(d: Dist, conv: Convention) -> float:
    return d.support[0] if conv is Convention.SUPPORT_START else 0.0


def mrl(d: Dist, t: float, cfg: QuadConfig = DEFAULT_CONFIG, method: str = "auto") -> float:
    """Mean residual life mu(t) = int_t^inf survival / survival(t).

    Below the support start this is the true conditional mean, mean - t.
    Raises BeyondSupport where the survival function has reached zero.
    """
    s0, s1 = d.support
    if t >= s1:
        raise BeyondSupport(f"{d.lineage}: mrl undefined at t={t!r} (past support end)")
    if t < s0:
        return d.mean - t
    if method != "quadrature" and d.has_closed_mrl:
        return d.mrl_closed(t)
    sv = d.survival(t)
    if sv <= 0.0:
        raise BeyondSupport(f"{d.lineage}: survival underflowed to zero at t={t!r}")
    return d.tail(t, cfg, numeric=method == "quadrature") / sv


def _formal_parts(d: Dist):
    if d.formal is not None:
        return d.formal.mrl, d.formal.mrl_integral
    if d.support[0] == 0.0:
        return None, None  # formal coincides with zero convention
    raise UnsupportedCapability(
        f"{d.lineage}: no formal continuation below the support start is defined"
    )


def _mrl_point(d, t, conv, cfg, method, mu_support=None):
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
    if mu_support is not None and t >= d.support[0]:
        return mu_support(t)
    return mrl(d, t, cfg, method)


def _mrl_integral(d, t, conv, cfg, method):
    """G(t) = integral of the conventioned MRL from the convention's origin."""
    s0 = d.support[0]
    if conv is Convention.FORMAL:
        fm, fint = _formal_parts(d)
        if fm is not None:
            if method != "quadrature":
                return fint(t)
            lo = min(t, s0)
            below = integrate_finite(fm, 0.0, lo, cfg) if lo > 0 else 0.0
            if t <= s0:
                return below
            return below + integrate_finite(
                lambda u: mrl(d, u, cfg, method), s0, t, cfg
            )
        conv = Convention.ZERO
    if conv is Convention.SUPPORT_START:
        if t <= s0:
            raise BeyondSupport(
                f"{d.lineage}: support-start average needs t > {s0!r}"
            )
        closed = None if method == "quadrature" else d.mrl_integral_closed(t)
        if closed is not None:
            return closed - d.mrl_integral_closed(s0)
        return integrate_finite(lambda u: mrl(d, u, cfg, method), s0, t, cfg)
    # zero convention, true MRL below the support start
    closed = None if method == "quadrature" else d.mrl_integral_closed(t)
    if closed is not None:
        return closed
    below_end = min(t, s0)
    acc = d.mean * below_end - 0.5 * below_end * below_end if below_end > 0 else 0.0
    if t > s0:
        acc += integrate_finite(lambda u: mrl(d, u, cfg, method), s0, t, cfg)
    return acc


def mrl_average(
    d: Dist,
    t: float,
    conv: Convention = Convention.ZERO,
    cfg: QuadConfig = DEFAULT_CONFIG,
    method: str = "auto",
) -> float:
    """Running average (1/t) * int mu over [origin, t] for the convention."""
    origin = _origin(d, conv)
    if t <= origin:
        raise GridError(f"mrl_average needs t above the convention origin {origin!r}")
    if (
        conv is not Convention.SUPPORT_START
        and d.support[0] == 0.0
        and t < _SMALL_T_FRACTION * d.mean
        and (method == "quadrature" or d.mrl_integral_closed(t) is None)
    ):
        return _small_t_average(d, t, cfg, method)
    return _mrl_integral(d, t, conv, cfg, method) / t


def _small_t_average(d, t, cfg, method):
    # (mu(0) + mu(t))/2 = mu(0) + mu'(0) t/2 + O(t^2)
    mu0 = mrl(d, 0.0, cfg, method)
    if not (math.isfinite(mu0) and mu0 > 0.0):
        raise OriginSingularity(f"{d.lineage}: MRL at the origin is {mu0!r}")
    mut = mrl(d, t, cfg, method)
    if abs(mut - mu0) > 0.5 * mu0:
        raise OriginSingularity(
            f"{d.lineage}: MRL jumps from {mu0!r} to {mut!r} across [0, {t!r}]"
        )
    return 0.5 * (mu0 + mut)


def mrlai(
    d: Dist,
    t: float,
    conv: Convention = Convention.ZERO,
    cfg: QuadConfig = DEFAULT_CONFIG,
    method: str = "auto",
) -> float:
    """Ageing intensity L(t) = mu(t) / mrl_average(t) under the convention."""
    return _mrl_point(d, t, conv, cfg, method) / mrl_average(d, t, conv, cfg, method)


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
    when the density is available.
    """
    if t <= 0.0:
        raise GridError("hazard_ai needs t > 0")
    r = hazard(d, t)
    cumulative = -math.log(d.survival(t))
    if cumulative <= 0.0:
        raise BeyondSupport(
            f"{d.lineage}: no hazard has accumulated by t={t!r}"
        )
    return r * t / cumulative


def mrlai_closed_form(spec, t: float):
    """Published closed-form ageing intensity for the families that have one.

    Returns None for every other spec.  The Pareto value applies under the
    formal integration convention.
    """
    return spec.closed_L(t)


@dataclass(frozen=True)
class MrlProfile:
    """Grid evaluation of mu, its running average, L, and optionally the
    hazard-based ageing intensity.  By construction L[j] = mu[j]/mu_avg[j]."""

    dist: Dist
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
    """Evaluate the ageing quantities along a strictly increasing grid.

    The denominator integrals are accumulated panel by panel and, when the
    MRL has no closed form, its tail integrals are anchored to the grid,
    so a whole profile costs a single pass.
    """
    ts = tuple(float(t) for t in grid)
    if not ts:
        raise GridError("empty grid")
    origin = _origin(d, conv)
    if ts[0] <= origin:
        raise GridError(f"grid must start above the convention origin {origin!r}")

    mu_support = _mu_on_support(d, ts, cfg, method)
    mu_vals = tuple(_mrl_point(d, t, conv, cfg, method, mu_support) for t in ts)
    g_vals = _integral_on_grid(d, ts, conv, cfg, method, mu_support)
    mu_avg = tuple(g / t for g, t in zip(g_vals, ts))
    L = tuple(m / avg for m, avg in zip(mu_vals, mu_avg))

    ai = None
    if with_hazard_ai and d.has_density:
        ai = tuple(_hazard_ai_or_nan(d, t) for t in ts)
    return MrlProfile(d, ts, mu_vals, mu_avg, L, ai, conv)


def _mu_on_support(d, ts, cfg, method):
    """On-support MRL evaluator for one grid pass.

    Uses the closed form when allowed; otherwise anchors tail integrals to
    the grid so each evaluation costs one short panel instead of a fresh
    improper integral.
    """
    if method != "quadrature" and d.has_closed_mrl:
        return d.mrl_closed
    if method != "quadrature" and d._tail is not None:
        return lambda u: mrl(d, u, cfg, method)

    s0, s1 = d.support
    anchors = [max(s0, 0.0)] + [t for t in ts if t > max(s0, 0.0)]
    vals = [0.0] * len(anchors)
    top = anchors[-1]
    vals[-1] = d.tail(top, cfg, numeric=True) if top < s1 else 0.0
    for j in range(len(anchors) - 2, -1, -1):
        vals[j] = vals[j + 1] + integrate_finite(d.survival, anchors[j], anchors[j + 1], cfg)

    def mu(u):
        sv = d.survival(u)
        if sv <= 0.0:
            raise BeyondSupport(f"{d.lineage}: survival underflowed to zero at t={u!r}")
        k = bisect.bisect_left(anchors, u)
        if k >= len(anchors):
            return d.tail(u, cfg, numeric=True) / sv
        tail = vals[k]
        if u < anchors[k]:
            tail += integrate_finite(d.survival, u, anchors[k], cfg)
        return tail / sv

    return mu


def _hazard_ai_or_nan(d, t):
    # below the support start no hazard has accumulated; show a hole, not an error
    try:
        return hazard_ai(d, t)
    except BeyondSupport:
        return math.nan


def _integral_on_grid(d, ts, conv, cfg, method, mu_support):
    closed_ok = method != "quadrature"
    s0 = d.support[0]
    if conv is Convention.FORMAL and d.formal is not None:
        if closed_ok:
            return [d.formal.mrl_integral(t) for t in ts]
        mu_formal = lambda u: d.formal.mrl(u) if u < s0 else mu_support(u)
        return list(cumulative_on_grid(mu_formal, ts, cfg, origin=0.0).values)
    if closed_ok and d.mrl_integral_closed(ts[-1]) is not None:
        if conv is Convention.SUPPORT_START and s0 > 0.0:
            base = d.mrl_integral_closed(s0)
            return [d.mrl_integral_closed(t) - base for t in ts]
        return [d.mrl_integral_closed(t) for t in ts]

    def mu_true(u):
        return d.mean - u if u < s0 else mu_support(u)

    origin = _origin(d, conv)
    table = cumulative_on_grid(mu_true, ts, cfg, origin=origin)
    return list(table.values)
