"""Reliability operations that build composite distributions.

Finite mixtures, convolutions of independent summands, k-out-of-n order
statistics of iid components (series and parallel systems as the k = 1
and k = n cases), and positive rescaling.  Closed forms are used where
an operation lands back inside a known family (sums of same-rate
exponential/Erlang variables, minima of iid exponentials, rescalings of
every built-in family) and for sums of exponential/Erlang variables of
distinct rates (partial fractions); everything else synthesises the
survival function and lets quadrature do the rest.

A mixture reads each component whose support is its own, and an order
statistic its base, through the family closures, not the ``Dist``
methods, so a sweep node costs one edge test, the composite's own; an
OverflowError still reads as 0, as in the methods.  A mixture whose
components all have closed tails has a closed MRL, sum w T / sum w S, read
in one pass.  Convolution and the generic ``scale`` wrapper keep the
``Dist`` methods: t - u and t / a can round across a part's edge.
"""

from __future__ import annotations

import math
import sys

from .distributions import (
    Convolution,
    Dist,
    Erlang,
    Exponential,
    Mixture,
    OrderStatistic,
    Scaled,
)
from .errors import BeyondSupport, SpecError, UnsupportedCapability
from .quadrature import integrate_finite

__all__ = ["mixture", "convolution", "order_statistic", "parallel", "scale"]


def mixture(weights, components) -> Dist:
    """Finite mixture: survival is the weighted sum of component survivals;
    tail and MRL are closed where every component tail is."""
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
    support = (min(c.support[0] for c in comps), max(c.support[1] for c in comps))
    lineage = "mixture(" + ", ".join(c.lineage for c in comps) + ")"

    def weighted(name):
        """t -> sum w * (each component's method ``name``)(t).  A component
        on the mixture's support is read through its family closure: the
        mixture's own method has decided the edges at the same t."""
        slow = [(w, getattr(c, name)) for w, c in zip(ws, comps)]
        fast = [(w, getattr(c, "_" + name) if c.support == support else method)
                for (w, method), c in zip(slow, comps)]

        def value(t):
            try:
                return sum([w * f(t) for w, f in fast])
            except OverflowError:  # which the methods read as 0
                return sum([w * f(t) for w, f in slow])

        return value

    survival = weighted("survival")
    density = tail = mrl = None
    if all(c.has_density for c in comps):
        density = weighted("density")
    if all(c._tail is not None for c in comps):
        tail = weighted("tail")

        def mrl(t):
            sv = survival(t)
            if sv <= 0.0:
                raise BeyondSupport(f"{lineage}: survival underflowed to zero at t={t!r}")
            return tail(t) / sv

    return Dist(
        spec,
        survival,
        support,
        density=density,
        tail=tail,
        mean=sum(w * c.mean for w, c in zip(ws, comps)),
        mrl=mrl,
        lineage=lineage,
        breakpoints=[b for c in comps for b in c.breakpoints],
    )


def convolution(x: Dist, y: Dist, closed_forms: bool = True) -> Dist:
    """Distribution of the sum of two independent lifetimes.

    A sum whose summands, those of nested sums included, are all
    Exponential or Erlang is built in closed form (``_exponential_sum``):
    one rate lands in the Erlang family, distinct rates in partial
    fractions.  Otherwise the survival is synthesised as

        S_c(t) = S_x(t) + int_0^t f_x(u) S_y(t - u) du

    with the roles swapped if only y carries a density.  The integrand
    can only kink at the breakpoints of x and at t minus those of y, so
    the quadrature splits there first; the sum's own breakpoints are
    the pairwise sums of its summands'.  The inner integrals meet the
    default ``QuadConfig``.  ``closed_forms=False`` always synthesises.
    """
    if closed_forms:
        closed = _exponential_sum(x, y)
        if closed is not None:
            return closed
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
        # S_y(t - u) is 0 for u below t - y.support[1]
        lo = max(x.support[0], t - y.support[1])
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


# Partial fractions of rates a and b, of multiplicities i and j, round
# with an error that grows like (max(a, b) / |a - b|)^(i + j - 1); where
# that factor, multiplied over the other rates, passes this bound for
# some rate, a sum of exponential lifetimes is convolved numerically.
# Near 0 the density's partial fractions are used only where their
# terms sum to at most this factor times their value.
_MAX_AMPLIFICATION = 1e3

# Near 0 the partial fractions cancel down to the density's zero of
# order K - 1 (K exponentials in all).  There the density is summed from
# its power series at 0 instead (``_series_at_zero``); a sum whose series
# would need more terms is convolved numerically.
_MAX_SERIES_TERMS = 512

# The polynomial of every term p(t) e^(-lam t) of a closed sum stays
# below _TERM_CEILING up to lam t = _EXP_REACH, so no evaluation
# overflows; past it the term is below e^(690 - 1490), which underflows.
_TERM_CEILING = 1e300
_EXP_REACH = 1490.0


def _erlang_summands(spec):
    """(rate, shape) of each summand of an Exponential, an Erlang or a
    convolution of them, nested ones included; None for any other spec."""
    if isinstance(spec, Exponential):
        return [(spec.rate, 1)]
    if isinstance(spec, Erlang):
        return [(spec.rate, spec.k)]
    if isinstance(spec, Convolution):
        parts = [_erlang_summands(c) for c in spec.components]
        if None not in parts:
            return [s for part in parts for s in part]
    return None


def _exponential_sum(x: Dist, y: Dist):
    """x + y in closed form when every summand is Exponential or Erlang.

    Rates within 1e-12 of each other are one rate.  A single rate lands
    in the Erlang family at the first summand's rate.  Distinct rates
    give the density as sum_r p_r(x) e^(-r x) in x = lam_min t and the
    rates r = lam / lam_min, built by folding in one Exp(r) at a time
    (``_fold_exponential``), so no coefficient depends on the rates'
    scale; survival and tail are sums of the same form, and the MRL is
    their ratio scaled by e^x, so it does not underflow.  Near 0, where
    these terms cancel, the density and S = 1 - F come from their power
    series (``_series_at_zero``).  Returns None where a summand is of
    another family, where the partial fractions would cancel
    (``_MAX_AMPLIFICATION``), where a coefficient overflows or a product
    underflows it (``_normal``), where a term could overflow
    (``_in_range``), or where the series cannot reach the partial
    fractions.
    """
    sx, sy = _erlang_summands(x.spec), _erlang_summands(y.spec)
    if sx is None or sy is None:
        return None
    groups = []  # [rate, shape]
    for rate, k in sx + sy:
        for g in groups:
            if math.isclose(g[0], rate, rel_tol=1e-12):
                g[1] += k
                break
        else:
            groups.append([rate, k])
    spec = Convolution((x.spec, y.spec))
    if len(groups) == 1:
        d = Erlang(groups[0][1], groups[0][0])._build()
        return d.relabel(spec, f"convolution[{d.lineage}]({x.lineage}, {y.lineage})")
    groups.sort()
    (lam_min, k0), lam_max = groups[0], groups[-1][0]
    for a, i in groups:
        amplification = 1.0
        for b, j in groups:
            if b != a:
                amplification *= (max(a, b) / abs(a - b)) ** (i + j - 1)
        if amplification > _MAX_AMPLIFICATION:
            return None
    try:
        density = {1.0: [0.0] * (k0 - 1) + [1.0 / math.factorial(k0 - 1)]}
        for lam, k in groups[1:]:
            for _ in range(k):
                density = _fold_exponential(density, lam / lam_min)
        survival = _upper_integral(density)
        tail = _upper_integral(survival)
        if not all(_in_range(*terms) for terms in
                   ((density,), (survival,), (tail,), (survival, 1.0), (tail, 1.0))):
            return None
        f_sum, s_sum, t_sum = _exp_poly(density), _exp_poly(survival), _exp_poly(tail)
        # the same sum over |c|, which bounds its rounding
        f_abs = _exp_poly({r: [abs(c) for c in cs] for r, cs in density.items()})
        to_x = lam_min / lam_max
        series = _series_at_zero(groups, lambda xs: (
            f_abs(xs * to_x) <= _MAX_AMPLIFICATION * abs(f_sum(xs * to_x))))
    except ArithmeticError:
        return None  # a coefficient overflows, or a product underflows it
    if series is None:
        return None
    f_series, cdf_series, reach = series  # in x' = lam_max t
    scaled_mrl = _scaled_ratio(tail, survival)

    def density_at(t):
        if lam_max * t < reach:
            return lam_max * f_series(lam_max * t)
        return lam_min * f_sum(lam_min * t)

    def survival_at(t):
        # 1 - F keeps S <= 1
        if lam_max * t <= 1.0:
            return 1.0 - cdf_series(lam_max * t)
        return s_sum(lam_min * t)

    return Dist(
        spec,
        survival_at,
        (0.0, math.inf),
        density=density_at,
        tail=lambda t: t_sum(lam_min * t) / lam_min,
        mean=math.fsum(k / rate for rate, k in groups),
        mrl=lambda t: scaled_mrl(lam_min * t) / lam_min,
        lineage=f"convolution({x.lineage}, {y.lineage})",
    )


def _fold_exponential(density, mu):
    """Density terms {rate: [c_0, c_1, ...]} of X + Exp(mu) from those of X.

    t^m e^(-a t) convolved with mu e^(-mu t) is mu t^(m+1)/(m+1) e^(-mu t)
    for a = mu, and otherwise, with d = a - mu,
    mu m!/d^(m+1) [e^(-mu t) - e^(-a t) sum_(r<=m) (d t)^r/r!].
    """
    own = density.get(mu, [])
    at_mu = [0.0] * (len(own) + 1)
    for m, c in enumerate(own):
        at_mu[m + 1] = _normal(c * mu / (m + 1)) if c else 0.0
    out = {mu: at_mu}
    for a, cs in density.items():
        if a == mu:
            continue
        d = a - mu
        poly = [0.0] * len(cs)
        for m, c in enumerate(cs):
            if not c:
                continue
            coef = c * mu * math.factorial(m) / d ** (m + 1)
            at_mu[0] += coef
            for r in range(m + 1):
                poly[r] -= _normal(coef)
                coef *= d / (r + 1)
        out[a] = poly
    return out


def _upper_integral(terms):
    """Terms of int_t^inf of the exp-polynomial ``terms``:
    int_t^inf u^m e^(-lam u) du = m!/lam^(m+1) e^(-lam t) sum_(r<=m) (lam t)^r/r!."""
    out = {}
    for lam, cs in terms.items():
        poly = [0.0] * len(cs)
        for m, c in enumerate(cs):
            if not c:
                continue
            coef = c * math.factorial(m) / lam ** (m + 1)
            for r in range(m + 1):
                poly[r] += _normal(coef)
                coef *= lam / (r + 1)
        out[lam] = poly
    return out


def _normal(coef):
    """``coef``, unless a product has underflowed it to 0 or a subnormal."""
    if abs(coef) < sys.float_info.min:
        raise FloatingPointError("a partial-fraction coefficient underflows")
    return coef


def _in_range(terms, shift=0.0):
    """Whether the polynomial of every term of the exp-polynomial
    ``terms``, scaled by e^(shift t), stays below _TERM_CEILING for
    (lam - shift) t < _EXP_REACH.  A term that does not decay
    (lam = shift) is bounded over t <= 1 only: ``_scaled_ratio`` divides
    it by its leading power past that.  False for an infinite or NaN
    coefficient."""
    total = 0.0
    for lam, cs in terms.items():
        reach = max(1.0, _EXP_REACH / (lam - shift)) if lam > shift else 1.0
        p = 0.0
        for c in reversed(cs):
            p = p * reach + abs(c)
        total += p
    return total < _TERM_CEILING


def _exp_poly(terms):
    """t -> sum_lam p_lam(t) e^(-lam t) for the terms {lam: [c_0, c_1, ...]},
    t >= 0.  Where e^(-lam t) nears underflow the term is exp(log|p| -
    lam t); past lam t = _EXP_REACH it is 0 (``_in_range``)."""
    rows = [(lam, tuple(reversed(cs))) for lam, cs in terms.items()]

    def value(t):
        total = 0.0
        for rate, cs in rows:
            z = rate * t
            if z < _EXP_REACH:
                p = 0.0
                for c in cs:
                    p = p * t + c
                if z < 700.0:
                    total += p * math.exp(-z)
                elif p:
                    total += math.copysign(math.exp(math.log(abs(p)) - z), p)
        return total

    return value


def _scaled_ratio(num, den):
    """t -> the ratio of the exp-polynomials ``num`` and ``den`` (rates in
    units of the smallest, which is 1), each scaled by e^t so the ratio
    does not underflow.  Past t = 1 both are also divided by t^D, D the
    degree of their common rate-1 term, which then no longer grows and
    so cannot overflow."""
    lead_num, lead_den = tuple(num[1.0]), tuple(den[1.0])
    degree = len(lead_num) - 1
    rows_num = [(lam - 1.0, tuple(reversed(cs))) for lam, cs in num.items() if lam != 1.0]
    rows_den = [(lam - 1.0, tuple(reversed(cs))) for lam, cs in den.items() if lam != 1.0]

    def scaled(lead, rows, t):
        if t > 1.0:
            u = 1.0 / t
            total = 0.0
            for c in lead:  # lead(t) / t^D
                total = total * u + c
            scale = u**degree
        else:
            total = 0.0
            for c in reversed(lead):
                total = total * t + c
            scale = 1.0
        for rate, cs in rows:
            e = math.exp(-rate * t)
            if e:
                p = 0.0
                for c in cs:
                    p = p * t + c
                total += p * e * scale
        return total

    return lambda t: scaled(lead_num, rows_num, t) / scaled(lead_den, rows_den, t)


def _series_at_zero(groups, conditioned):
    """The density and the distribution function of the sum of K
    exponentials with the rates and shapes ``groups`` (largest rate
    last) from their power series at 0, in x = lam_max t, and the reach X
    of those series: the smallest x of 1, 1.25, 1.25^2, ... at which
    ``conditioned(x)`` holds, at most 256.  Returns the two functions
    x -> value on [0, X), the density's in units of lam_max, and X; or
    None where no such X is found or the series would need more than
    _MAX_SERIES_TERMS terms.

    With the scaled rates q = lam / lam_max and p = 1 - q, the Laplace
    transform prod (lam/(lam + s))^k shifted by lam_max gives
    f = lam_max prod(q^k) e^(-x) sum_n h_n x^(K-1+n)/(K-1+n)!, where h_n,
    the complete homogeneous symmetric polynomial of degree n in the K
    values p, is positive: every term is positive, so nothing cancels.
    The distribution function takes the same sum with one p = 1 more and
    K for K - 1.  Terms are added until, at X, the last is under 1e-17 of
    the sum and the ones after it fall at least by half each (h_n is
    log-concave in n, so h_(n+1)/h_n never grows), so at every x < X the
    truncation is under 1e-17.
    """
    lam_max = groups[-1][0]
    qs = [lam / lam_max for lam, k in groups for _ in range(k)]
    ps = [(lam_max - lam) / lam_max for lam, k in groups for _ in range(k)]
    K = len(qs)
    scale = _normal(math.prod(qs))
    reach = 1.0
    while not conditioned(reach):
        reach *= 1.25
        if reach > 256.0:
            return None
    # h_n, and its partial sums for the distribution function's extra p = 1
    h, column, cumulative = [1.0], [1.0] * (K + 1), [1.0]  # column[i]: h_n of the first i p
    f_terms, F_terms = [1.0], [1.0]  # at x = reach; the first at x^(K-1)/(K-1)! (x^K/K!)
    while True:
        n = len(h)
        column = [0.0] + column[1:]
        for i, p in enumerate(ps, 1):
            column[i] = column[i - 1] + p * column[i]
        h.append(column[-1])
        cumulative.append(cumulative[-1] + h[n])
        f_next = f_terms[-1] * reach * h[n] / max(h[n - 1], sys.float_info.min) / (K - 1 + n)
        F_next = F_terms[-1] * reach * cumulative[n] / cumulative[n - 1] / (K + n)
        if n >= 2 and all(after <= 0.5 * terms[-1] and terms[-1] <= 1e-17 * sum(terms)
                          for after, terms in ((f_next, f_terms), (F_next, F_terms))):
            break
        if n > _MAX_SERIES_TERMS:
            return None
        f_terms.append(f_next)
        F_terms.append(F_next)

    def series(terms, m):
        coefficients = terms[::-1]  # Horner in x / reach, highest power first
        fact = float(math.factorial(m))
        log_fact = math.lgamma(m + 1)
        direct = 1e300 ** (1.0 / m)  # below it x^m does not overflow

        def value(x):
            v = 0.0
            y = x / reach
            for c in coefficients:
                v = v * y + c
            if x < direct:
                lead = x**m / fact * math.exp(-x)
            else:
                lead = math.exp(m * math.log(x) - log_fact - x)
            return lead * v * scale  # scale <= 1 <= v: no early underflow

        return value

    return series(f_terms, K - 1), series(F_terms, K), reach


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
    # on the base's own support: its family closures are read
    binomials = [(float(math.comb(n, j)), j, n - j) for j in range(n - k + 1, n + 1)]

    def survival(t):
        # at least n-k+1 of the n components still alive
        try:
            sv = base._survival(t)
        except OverflowError:
            sv = 0.0
        q = 1.0 - sv
        return sum([c * sv**j * q**m for c, j, m in binomials])

    density = None
    if base.has_density:
        coeff = math.factorial(n) / (math.factorial(k - 1) * math.factorial(n - k))

        def density(t):
            try:
                sv, f = base._survival(t), base._density(t)
            except OverflowError:
                sv, f = base.survival(t), base.density(t)
            return coeff * (1.0 - sv) ** (k - 1) * sv ** (n - k) * f

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
