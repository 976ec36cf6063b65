"""Reliability operations that build composite distributions.

Finite mixtures, convolutions of independent summands, k-out-of-n order
statistics of iid components (series and parallel systems as the k = 1
and k = n cases), and positive rescaling.  Closed forms are used where
an operation lands back inside a known family (sums of same-rate
exponential/Erlang variables, minima of iid exponentials, rescalings of
every built-in family); everything else synthesises the survival
function and lets quadrature do the rest.
"""

from __future__ import annotations

import math

from .distributions import (
    Convolution,
    Dist,
    Erlang,
    Exponential,
    Mixture,
    OrderStatistic,
    Scaled,
)
from .errors import SpecError, UnsupportedCapability
from .quadrature import integrate_finite

__all__ = ["mixture", "convolution", "order_statistic", "parallel", "scale"]


def mixture(weights, components) -> Dist:
    """Finite mixture: survival is the weighted sum of component survivals."""
    ws = [float(w) for w in weights]
    if len(ws) < 2:
        raise SpecError("mixture.weights", "a mixture needs at least two components")
    if len(ws) != len(components):
        raise SpecError("mixture.components", "weights and components must have equal length")
    if any(w <= 0 for w in ws):
        raise SpecError("mixture.weights", "must be positive")
    if abs(sum(ws) - 1.0) > 1e-12:
        raise SpecError("mixture.weights", f"must sum to 1 (got {sum(ws)!r})")

    comps = list(components)
    spec = Mixture(tuple(ws), tuple(c.spec for c in comps))
    s0 = min(c.support[0] for c in comps)
    s1 = max(c.support[1] for c in comps)
    density = tail = None
    if all(c.has_density for c in comps):
        density = lambda t: sum(w * c.density(t) for w, c in zip(ws, comps))
    if all(c._tail is not None for c in comps):
        # closed only when every component tail is
        tail = lambda t: sum(w * c.tail(t) for w, c in zip(ws, comps))
    return Dist(
        spec,
        lambda t: sum(w * c.survival(t) for w, c in zip(ws, comps)),
        (s0, s1),
        density=density,
        tail=tail,
        mean=sum(w * c.mean for w, c in zip(ws, comps)),
        lineage="mixture(" + ", ".join(c.lineage for c in comps) + ")",
        breakpoints=[b for c in comps for b in c.breakpoints],
    )


def convolution(x: Dist, y: Dist, closed_forms: bool = True) -> Dist:
    """Distribution of the sum of two independent lifetimes.

    Same-rate exponential/Erlang summands merge into a closed-form
    Erlang.  Otherwise the survival is synthesised as

        S_c(t) = S_x(t) + int_0^t f_x(u) S_y(t - u) du

    with the roles swapped if only y carries a density.  The integrand
    can only kink at the breakpoints of x and at t minus those of y, so
    the quadrature splits there first; the sum's own breakpoints are
    the pairwise sums of its summands'.  The inner integrals meet the
    default ``QuadConfig``.  ``closed_forms=False`` skips the merge.
    """
    if closed_forms:
        merged = _erlang_merge(x.spec, y.spec)
        if merged is not None:
            d = merged._build()
            return d.relabel(
                Convolution((x.spec, y.spec)),
                f"convolution[{d.lineage}]({x.lineage}, {y.lineage})",
            )
    if not x.has_density and not y.has_density:
        raise UnsupportedCapability(
            "convolution needs a density on at least one summand "
            f"({x.lineage}, {y.lineage})"
        )
    if not x.has_density:
        x, y = y, x

    spec = Convolution((x.spec, y.spec))

    def kinks(t):
        return x.breakpoints + tuple(t - b for b in y.breakpoints)

    def survival(t):
        lo = x.support[0]
        hi = min(t, x.support[1])
        inner = 0.0
        if hi > lo:
            inner = integrate_finite(
                lambda u: x.density(u) * y.survival(t - u), lo, hi, points=kinks(t)
            )
        return x.survival(t) + inner

    density = None
    if y.has_density:

        def density(t):
            lo = max(x.support[0], t - y.support[1])
            hi = min(t - y.support[0], x.support[1])
            if hi <= lo:
                return 0.0
            return integrate_finite(
                lambda u: x.density(u) * y.density(t - u), lo, hi, points=kinks(t)
            )

    return Dist(
        spec,
        survival,
        (x.support[0] + y.support[0], x.support[1] + y.support[1]),
        density=density,
        mean=x.mean + y.mean,
        lineage=f"convolution({x.lineage}, {y.lineage})",
        breakpoints=[a + b for a in x.breakpoints for b in y.breakpoints],
    )


def _erlang_merge(a, b):
    def as_erlang(s):
        if isinstance(s, Exponential):
            return 1, s.rate
        if isinstance(s, Erlang):
            return s.k, s.rate
        return None

    ea, eb = as_erlang(a), as_erlang(b)
    if ea and eb and math.isclose(ea[1], eb[1], rel_tol=1e-12):
        return Erlang(ea[0] + eb[0], ea[1])
    return None


def order_statistic(base: Dist, k: int, n: int) -> Dist:
    """k-th smallest of n iid copies; the lifetime of an (n-k+1)-out-of-n system."""
    if not (isinstance(k, int) and isinstance(n, int)) or n < 1 or not 1 <= k <= n:
        raise SpecError("order_statistic.k", f"k must lie in [1, n], got k={k!r} n={n!r}")
    if n == 1:
        return base
    if k == 1 and isinstance(base.spec, Exponential):
        # minimum of iid exponentials is exponential with n times the rate
        d = Exponential(base.spec.rate * n)._build()
        return d.relabel(
            OrderStatistic(base.spec, k, n), f"series[{d.lineage}]({base.lineage} x{n})"
        )

    spec = OrderStatistic(base.spec, k, n)

    def survival(t):
        # at least n-k+1 of the n components still alive
        sv = base.survival(t)
        q = 1.0 - sv
        return sum(
            math.comb(n, j) * sv**j * q ** (n - j) for j in range(n - k + 1, n + 1)
        )

    density = None
    if base.has_density:
        coeff = math.factorial(n) / (math.factorial(k - 1) * math.factorial(n - k))

        def density(t):
            sv = base.survival(t)
            return coeff * (1.0 - sv) ** (k - 1) * sv ** (n - k) * base.density(t)

    return Dist(
        spec,
        survival,
        base.support,
        density=density,
        lineage=f"os({k}:{n})({base.lineage})",
        breakpoints=base.breakpoints,
    )


def parallel(base: Dist, n: int) -> Dist:
    """Parallel system of n iid components: the maximum, i.e. k = n."""
    return order_statistic(base, n, n)


def scale(base: Dist, factor: float, rewrite: bool = True) -> Dist:
    """Distribution of factor * X for factor > 0.

    Every built-in family is closed under positive rescaling, so by
    default the spec is rewritten into the same family with adjusted
    parameters.  ``rewrite=False`` forces the generic change-of-variables
    wrapper instead (useful for exercising the scaling identity through
    the numeric pipeline).
    """
    a = float(factor)
    if not (a > 0) or not math.isfinite(a):
        raise SpecError("scaled.factor", f"must be positive and finite, got {factor!r}")
    if a == 1.0:
        return base
    rewritten = base.spec.rescaled(a) if rewrite and base.spec is not None else None
    if rewritten is not None:
        d = rewritten._build()
        return d.relabel(Scaled(base.spec, a), f"scaled[{a:g}]({base.lineage})")

    s0, s1 = base.support
    density = tail = None
    if base.has_density:
        density = lambda t: base.density(t / a) / a
    if base._tail is not None:
        tail = lambda t: a * base.tail(t / a)
    return Dist(
        Scaled(base.spec, a),
        lambda t: base.survival(t / a),
        (a * s0, a * s1),
        density=density,
        tail=tail,
        mean=a * base.mean,
        lineage=f"scaled[{a:g}]({base.lineage})",
        breakpoints=[a * b for b in base.breakpoints],
    )
