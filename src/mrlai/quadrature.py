"""Deterministic adaptive quadrature for the rest of the toolkit.

Every finite-interval rule here is built on one node table: the Chebyshev
points cos(k pi / N), N = 32, on each panel.  Finite intervals are integrated
with Fejer's second rule on the 31 interior points under globally
adaptive bisection: the panel with the worst error estimate is split
until the summed estimate meets the requested tolerance.  A panel's
error estimate is its distance to the embedded 15-point Fejer rule on
every second node, the same nested-pair idea as Gauss-Kronrod.  The
interior points never include a panel end, so integrable endpoint
singularities (e.g. an order-statistic density at the support edge) are
tolerated.  A caller that knows where the integrand kinks or jumps
passes those abscissae as ``points``; the adaptive loop then starts from
one panel per sub-interval between them, as QUADPACK's QAGP does
(Piessens et al., 1983), so the kinks sit on panel ends from the start
instead of being found by bisection.

Improper upper limits are integrated with the exp-sinh rule (Takahasi &
Mori, 1974): the trapezoid rule in tau under x = a + exp(pi/2 sinh tau),
whose terms vanish double-exponentially at both ends for integrable
endpoint singularities at a and for tails decaying like a power or
faster.  The step is halved level by level, adding only the new odd
nodes, until two levels agree within max(abs_tol, rel_tol * |I|).  A tail
the rule cannot settle inside the float range (x^-1.05 decays too slowly)
is probed for divergence, then integrated under x = a + (u/(1-u))^16.

Where a caller needs the running integral of f at many points and
quantities derived from it (``Dist``'s sweeps chain the tail integral
of the survival function this way), ``cheb_sweep`` covers an interval
with 33-point Chebyshev-Lobatto panels (N = 32) from right to left.
Each panel returns its samples, the integral from every node to the
right end of the sweep (one product with a precomputed spectral
integration matrix, as in Chebfun's ``cumsum``; Trefethen,
*Approximation Theory and Approximation Practice*, ch. 19) and its
Clenshaw-Curtis integral.  A panel is bisected until its error estimate,
the half-width times the sum of the four trailing Chebyshev coefficients,
meets max(abs_tol, rel_tol * |panel integral|).  The estimate is
weighted by the width, so a kink or a rounding-level jump in f ends the
bisection once the panel is narrow enough, where a pointwise
coefficient test would split forever.
Unlike ``integrate_finite``, the sweep samples both panel ends (k = 0
and k = N), so f must be finite there.

Panels need not end at the points where the caller wants values: a point
strictly inside a panel is read from the panel's Chebyshev interpolants
and their antiderivatives, summed by Clenshaw's recurrence, so a smooth
integrand costs a few panels however many points it is read at.  Such a
panel must also be resolved to machine precision, Chebfun's chopping
test (Aurentz & Trefethen, ACM TOMS 43(4), 2017): the trailing
coefficients of f, and of the values a ``resolve`` hook derives, sum to
at most ``_CHOP`` times their smallest |value|, not weighted by the
width.  The smallest value, not the largest, keeps the reads relative to
the value read where S, T or D falls by orders of magnitude across a
panel.  A panel that meets the width-weighted test but not this one is
split at the point nearest its middle, so a noisy or kinked integrand
ends with its points at panel ends, as without reads.  An integral
between points is a difference of the panel's antiderivative, good to
about eps times the panel's integral, so a caller that adds such pieces
up from 0 places knots that keep them large against that.

A NaN or infinity from the integrand at a sampled point is a hard
DomainError; silently skipping bad samples hides bugs in the caller.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache
from operator import mul

from .errors import Divergence, DomainError, GridError, NonConvergence

__all__ = [
    "QuadConfig",
    "CumulativeTable",
    "integrate_finite",
    "integrate_tail",
    "cumulative_on_grid",
    "ChebPanel",
    "cheb_sweep",
]

_MAX_PANELS = 20000
# a running estimate past this magnitude is declared divergent rather than
# merely slow to converge
_DIVERGENCE_BOUND = 1e15


@dataclass(frozen=True)
class QuadConfig:
    """Tolerances and limits for the adaptive integrator."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-9
    max_depth: int = 60

    def __post_init__(self):
        if not (self.abs_tol > 0):
            raise ValueError("abs_tol must be positive")
        if not (self.rel_tol > 0):
            raise ValueError("rel_tol must be positive")
        if self.max_depth < 10:
            raise ValueError("max_depth must be at least 10")


DEFAULT_CONFIG = QuadConfig()


@dataclass(frozen=True)
class CumulativeTable:
    """Prefix integrals of one integrand along a strictly increasing grid.

    ``values[j]`` is the integral from the grid origin up to ``grid[j]``.
    """

    grid: tuple
    values: tuple

    def __post_init__(self):
        if len(self.grid) != len(self.values):
            raise ValueError("grid and values must have equal length")


def _eval(f, x: float) -> float:
    y = f(x)
    if not math.isfinite(y):
        raise DomainError(f"integrand returned non-finite value {y!r} at x={x!r}")
    return y


def integrate_finite(
    f, a: float, b: float, cfg: QuadConfig = DEFAULT_CONFIG, points=()
) -> float:
    """Integral of ``f`` over the finite interval [a, b].

    Each panel is sampled at its 31 interior Chebyshev points (never at
    its ends) and integrated with Fejer's second rule; the distance to
    the embedded 15-point rule is its error estimate.  The result I
    satisfies |I - true| <= max(abs_tol, rel_tol * |I|) whenever the
    error estimator is trustworthy (smooth or endpoint-integrable
    integrands; the usual caveats of adaptive quadrature apply).

    ``points`` are known kinks or jumps of ``f``: the adaptive loop
    starts from one panel per sub-interval between those strictly inside
    (a, b), as QUADPACK's QAGP does, instead of bisecting towards them.
    Points outside (a, b) and repeats are ignored.
    """
    if a > b:
        raise ValueError(f"integrate_finite requires a <= b, got a={a!r} b={b!r}")
    if a == b:
        return 0.0

    edges = [a, *sorted({p for p in points if a < p < b}), b]
    # heap entries: (-error, tie-breaker, a, b, estimate, depth)
    heap = []
    total = total_err = 0.0
    for counter, (pa, pb) in enumerate(zip(edges, edges[1:])):
        est, err = _fejer_panel(f, pa, pb)
        heap.append((-err, counter, pa, pb, est, 0))
        total += est
        total_err += err
    heapq.heapify(heap)
    counter = len(heap)
    while total_err > max(cfg.abs_tol, cfg.rel_tol * abs(total)):
        if abs(total) > _DIVERGENCE_BOUND:
            raise Divergence(
                f"estimate exceeded divergence bound {_DIVERGENCE_BOUND:g} "
                f"on [{a!r}, {b!r}]"
            )
        if len(heap) >= _MAX_PANELS:
            raise NonConvergence(
                f"panel budget {_MAX_PANELS} exhausted on [{a!r}, {b!r}] "
                f"(remaining error estimate {total_err:.3e})"
            )
        neg_err, _, pa, pb, pest, depth = heapq.heappop(heap)
        if depth >= cfg.max_depth:
            raise NonConvergence(
                f"max_depth {cfg.max_depth} reached near [{pa!r}, {pb!r}] "
                f"(remaining error estimate {total_err:.3e})"
            )
        pm = 0.5 * (pa + pb)
        left, lerr = _fejer_panel(f, pa, pm)
        right, rerr = _fejer_panel(f, pm, pb)
        total += left + right - pest
        total_err += lerr + rerr - (-neg_err)
        heapq.heappush(heap, (-lerr, counter, pa, pm, left, depth + 1))
        heapq.heappush(heap, (-rerr, counter + 1, pm, pb, right, depth + 1))
        counter += 2
    return total


def integrate_tail(f, a: float, cfg: QuadConfig = DEFAULT_CONFIG) -> float:
    """Integral of ``f`` over [a, infinity).

    The exp-sinh rule (``_exp_sinh``), x = a + exp(pi/2 sinh tau),
    halves its trapezoid step until two levels agree within
    max(abs_tol, rel_tol * |I|).  It settles every tail whose terms vanish
    inside the float range.  A tail it cannot settle, such as x^-1.05,
    falls back to the stretched substitution x = a + (u/(1-u))^16 under
    ``integrate_finite``.  A two-point decay probe runs first, so a
    genuinely divergent tail raises Divergence after a few evaluations,
    not after the fallback has spent its panel budget.
    """
    try:
        return _exp_sinh(f, a, cfg)
    except NonConvergence:
        pass

    # stretched substitution x = a + (u/(1-u))^p: a tail decaying like
    # x^{-(1+d)} transforms to w^{p d - 1}, so even barely-integrable power
    # tails become benign near the upper limit
    p = 16

    def g_stretched(u):
        w = 1.0 - u
        if w <= 0.0:
            raise NonConvergence(
                "tail refinement reached the floating-point resolution of the upper limit"
            )
        z = u / w
        return f(a + z**p) * p * z ** (p - 1) / (w * w)

    # an integrand still converging like w^{-1} or worse near the upper
    # limit has a divergent original integral; milder endpoint growth is
    # just slow convergence
    near = abs(g_stretched(1.0 - 1e-9))
    far = abs(g_stretched(1.0 - 1e-3))
    if near > 1e5 * max(far, 1e-300):
        raise Divergence(
            f"tail integrand from a={a!r} fails to decay "
            f"(transformed magnitude grows toward the upper limit)"
        )
    try:
        return integrate_finite(g_stretched, 0.0, 1.0, cfg)
    except NonConvergence:
        raise NonConvergence(
            f"tail integral from a={a!r} did not reach tolerance under either rule"
        ) from None


# The exp-sinh rule: x = a + e(tau), e = exp(pi/2 sinh tau), weight
# w = e'(tau) = pi/2 cosh tau e, trapezoid step 2^-level.  No node has
# pi/2 |sinh tau| past _DE_EXP_LIMIT, so e and w stay finite; a term is
# negligible below _DE_EPS times the running sum.
_DE_EXP_LIMIT = 700.0
_DE_EPS = 2.0**-52
_DE_MAX_LEVEL = 7


@lru_cache(maxsize=None)
def _exp_sinh_level(level: int):
    """(tau, e, w) of the exp-sinh nodes new at ``level``, in ascending
    tau: tau = k 2^-level for every integer k at level 0 and odd k after."""
    h = 2.0**-level
    kmax = int(math.asinh(_DE_EXP_LIMIT / (0.5 * math.pi)) / h)
    nodes = []
    for k in range(-kmax, kmax + 1):
        if level and not k % 2:
            continue
        tau = k * h
        e = math.exp(0.5 * math.pi * math.sinh(tau))
        nodes.append((tau, e, 0.5 * math.pi * math.cosh(tau) * e))
    return tuple(nodes)


def _exp_sinh(f, a: float, cfg: QuadConfig) -> float:
    """Exp-sinh integral of ``f`` over [a, infinity) (Takahasi & Mori,
    Publ. RIMS 9, 1974), or NonConvergence where the rule cannot settle.

    Level 0 (step 1) sweeps right from tau = 0 and left from tau = -1.
    A sweep stops at the first term negligible against the running sum
    once that sum is nonzero: mass was found and has decayed.  The left
    sweep also stops where a + e == a.  A sweep that reaches the float
    range with a term that is not negligible cannot settle.  Each later
    level halves the step and adds only the new odd nodes: every one
    between the outermost terms of level 0 that were not negligible, and
    outside them, for at most one step of level 0, until a term is
    negligible.  Two levels that agree within max(abs_tol, rel_tol * |I|)
    accept the finer one.  Terms are accumulated in a fixed order with
    ``+``, so the digits do not depend on how ``sum()`` rounds.
    """
    nodes = _exp_sinh_level(0)
    mid = len(nodes) // 2  # tau = 0
    total = 0.0
    big = []  # the taus of terms that were not negligible when taken
    for left, sweep in ((False, nodes[mid:]), (True, nodes[mid - 1 :: -1])):
        term = 0.0
        zeros = 0
        for tau, e, w in sweep:
            x = a + e
            if x == a:
                if left:  # so is every node further left
                    break
                continue
            term = w * _eval(f, x)
            total += term
            if not abs(total) <= _DIVERGENCE_BOUND:
                raise NonConvergence(f"exp-sinh sum from a={a!r} passed {_DIVERGENCE_BOUND:g}")
            if abs(term) > _DE_EPS * abs(total):
                big.append(tau)
            elif total or (zeros and not left):  # decayed, or a second zero on the right
                break
            else:
                zeros += 1
        else:
            if abs(term) > _DE_EPS * abs(total):
                raise NonConvergence(f"exp-sinh terms from a={a!r} do not decay in the float range")
    if not big:
        return 0.0
    first, last = min(big), max(big)
    est = total
    for level in range(1, _DE_MAX_LEVEL + 1):
        nodes = _exp_sinh_level(level)
        i, j = bisect_left(nodes, (first,)), bisect_left(nodes, (last,))
        fresh = 0.0
        for tau, e, w in nodes[i:j]:
            fresh += w * _eval(f, a + e)
        # out from the mass, at most one step of level 0, until a term is negligible
        right = nodes[j : bisect_left(nodes, (last + 1.0,))]
        left = nodes[bisect_left(nodes, (first - 1.0,)) : i][::-1]
        for sweep in (right, left):
            for tau, e, w in sweep:
                x = a + e
                if x == a:
                    break
                term = w * _eval(f, x)
                fresh += term
                if abs(term) <= _DE_EPS * abs(total):
                    break
        total += fresh
        prev, est = est, total * 2.0**-level
        if abs(est - prev) <= max(cfg.abs_tol, cfg.rel_tol * abs(est)):
            return est
    raise NonConvergence(
        f"exp-sinh rule from a={a!r} did not reach tolerance by step 2^-{_DE_MAX_LEVEL}"
    )


def cumulative_on_grid(
    f,
    grid,
    cfg: QuadConfig = DEFAULT_CONFIG,
    origin: float = 0.0,
) -> CumulativeTable:
    """Prefix integrals of ``f`` from ``origin`` to each grid point.

    Each panel between consecutive grid points is integrated exactly once
    and prefix-summed, so a whole table costs a single pass.  An empty,
    repeated, decreasing or below-origin grid raises GridError.
    """
    pts = tuple(float(t) for t in grid)
    if not pts:
        raise GridError("grid must be non-empty")
    if any(b <= a for a, b in zip(pts, pts[1:])):
        raise GridError("grid must be strictly increasing")
    if pts[0] < origin:
        raise GridError(f"grid[0]={pts[0]!r} lies below the origin {origin!r}")

    values = []
    acc = 0.0
    lo = origin
    for j, hi in enumerate(pts):
        try:
            acc += integrate_finite(f, lo, hi, cfg)
        except (DomainError, NonConvergence, Divergence) as exc:
            raise type(exc)(f"panel {j} [{lo!r}, {hi!r}]: {exc}") from exc
        values.append(acc)
        lo = hi
    return CumulativeTable(grid=pts, values=tuple(values))


# Chebyshev-Lobatto panels: nodes cos(k pi / N), k = 0..N, run from the
# right end of a panel (k = 0) to its left end (k = N).
_N = 32
_TRAILING = 4
# a panel read between its ends is resolved to machine precision once its
# trailing coefficients sum to at most this share of its smallest |value|
_CHOP = 1e-14


@lru_cache(maxsize=None)
def _cheb_tables():
    """Node abscissae on [-1, 1], the spectral integration matrix Q with
    Q[i] . f = int_{x_i}^{1} p (p the interpolant of f at the nodes), and
    the rows of the values-to-coefficients map: c_k = D[k] . f gives
    p = sum_k c_k T_k.  The last row of Q holds the Clenshaw-Curtis weights.

    Built on first use from a table of cos(m pi / N), so importing the
    package stays cheap.
    """
    n = _N
    cos_m = [math.cos(m * math.pi / n) for m in range(2 * n)]

    def t(k, j):  # T_k at node j
        return cos_m[(k * j) % (2 * n)]

    halve = [0.5 if j in (0, n) else 1.0 for j in range(n + 1)]
    # coefficients c_k = sum_j D[k][j] f_j of p = sum_k c_k T_k
    dct = [
        [2.0 / n * halve[k] * halve[j] * t(k, j) for j in range(n + 1)]
        for k in range(n + 1)
    ]
    # E[i][k] = int_{x_i}^{1} T_k, from the antiderivative
    # T_{k+1}/(2(k+1)) - T_{k-1}/(2(k-1)) for k >= 2
    def anti(k, j):
        if k == 0:
            return t(1, j)
        if k == 1:
            return 0.25 * t(2, j)
        return t(k + 1, j) / (2.0 * (k + 1)) - t(k - 1, j) / (2.0 * (k - 1))

    ends = [anti(k, 0) for k in range(n + 1)]
    cols = list(zip(*dct))
    q = []
    for i in range(n + 1):
        e = [ends[k] - anti(k, i) for k in range(n + 1)]
        q.append(tuple(sum(map(mul, e, col)) for col in cols))
    q[0] = (0.0,) * (n + 1)
    nodes = tuple(cos_m[j] for j in range(n + 1))
    return nodes, tuple(q), tuple(map(tuple, dct))


@lru_cache(maxsize=None)
def _fejer_tables():
    """The interior nodes cos(k pi / N), k = 1..N-1, of ``_cheb_tables``
    with the weights of Fejer's second rule on them, and the weights of
    the embedded rule on the even-k nodes (N / 2 - 1 of them), both on
    [-1, 1]."""

    def weights(n):
        out = []
        for k in range(1, n):
            theta = k * math.pi / n
            s = sum(math.sin((2 * j - 1) * theta) / (2 * j - 1) for j in range(1, n // 2 + 1))
            out.append(4.0 / n * math.sin(theta) * s)
        return tuple(out)

    return _cheb_tables()[0][1:-1], weights(_N), weights(_N // 2)


def _fejer_panel(f, a: float, b: float):
    """Fejer's second rule on the interior Chebyshev nodes of [a, b].

    Returns (estimate, distance to the embedded rule on every second
    node), the same nested-pair error estimate as Gauss-Kronrod.
    """
    nodes, fine, coarse = _fejer_tables()
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    fs = [_eval(f, mid + half * x) for x in nodes]
    est = half * sum(map(mul, fine, fs))
    return est, abs(est - half * sum(map(mul, coarse, fs[1::2])))


class ChebPanel:
    """One accepted panel of a ``cheb_sweep``.

    ``xs`` run from ``b`` down to ``a`` and include both ends exactly;
    ``fs`` are the samples there.  ``integral`` is the Clenshaw-Curtis
    integral over [a, b].  ``tails[i]`` is the integral of f from
    ``xs[i]`` to the right end of the whole sweep, and ``carry`` the
    integral from ``b``, each panel's share corrected to first order for
    the rounding of its midpoint, which shifts its interior nodes.
    ``g`` and ``g_integral`` hold the derived node values returned by the
    sweep's ``resolve`` hook and their integral over the panel (None
    without one).
    ``inside`` is the range of indices of the sweep's ``points`` that lie
    strictly inside the panel.
    """

    __slots__ = (
        "a", "b", "half", "xs", "fs", "integral", "carry", "_tails", "g", "g_integral", "inside"
    )

    def __init__(self, a, b, xs, fs, carry):
        self.a, self.b, self.xs, self.fs = a, b, xs, fs
        self.half = 0.5 * (b - a)
        self.carry = carry  # the integral from b to the right end of the sweep
        self._tails = self.integral = self.g = self.g_integral = None

    @property
    def tails(self):
        if self._tails is None:
            half, fs, carry = self.half, self.fs, self.carry
            self._tails = tuple(carry + half * sum(map(mul, row, fs)) for row in _cheb_tables()[1])
        return self._tails


def _cheb_estimate(half, vals, trailing, weights):
    """(integral, sum of the |trailing coefficients|) of the interpolant
    of ``vals`` on a panel."""
    integral = half * sum(map(mul, weights, vals))
    return integral, sum(abs(sum(map(mul, row, vals))) for row in trailing)


def cheb_sweep(f, knots, cfg: QuadConfig = DEFAULT_CONFIG, resolve=None, points=()):
    """Adaptive Clenshaw-Curtis cover of [knots[0], knots[-1]], yielded
    panel by panel from right to left.

    Panels never straddle a knot.  A panel is accepted once the error
    estimate of its integral meets max(abs_tol, rel_tol * |integral|);
    otherwise it is bisected.  ``resolve(panel)``, when given, maps a
    candidate panel (its ``xs``, ``fs`` and ``tails`` are set) to derived
    node values, whose integral must meet the same test before the panel
    is accepted.  Because every panel to the right of a candidate has
    already been accepted, its ``tails`` are final.

    Panels need not end at the increasing ``points``.  A panel that holds
    one of them strictly inside is read there from its interpolants, so
    it is accepted only once the series of f, and of the derived values,
    are resolved to machine precision as well: the sum of each one's
    trailing coefficients, not weighted by the width, is at most
    ``_CHOP`` times its smallest |value|.  A panel that fails only this
    test is split at the point nearest its middle instead of bisected;
    such a split leaves fewer points inside each half, so it does not
    count toward ``cfg.max_depth``.

    Raises DomainError on a non-finite sample and NonConvergence when a
    panel would pass ``cfg.max_depth`` or the cover would exceed the
    panel budget.
    """
    pts = [float(k) for k in knots]
    if any(b <= a for a, b in zip(pts, pts[1:])):
        raise ValueError("knots must be strictly increasing")
    nodes, q, dct = _cheb_tables()
    weights, trailing = q[-1], dct[_N + 1 - _TRAILING :]
    # pending panels, the rightmost on top: (a, b, depth)
    stack = [(a, b, 0) for a, b in zip(pts, pts[1:])]
    carry = 0.0
    accepted = 0
    while stack:
        a, b, depth = stack.pop()
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        xs = (b,) + tuple(mid + half * x for x in nodes[1:-1]) + (a,)
        p = ChebPanel(a, b, xs, tuple(_eval(f, x) for x in xs), carry)
        p.integral, tsum = _cheb_estimate(p.half, p.fs, trailing, weights)
        err = half * tsum
        ok = err <= max(cfg.abs_tol, cfg.rel_tol * abs(p.integral))
        series = [(tsum, p.fs)]
        if ok and resolve is not None:
            p.g = tuple(resolve(p))
            p.g_integral, tsum = _cheb_estimate(p.half, p.g, trailing, weights)
            err = half * tsum
            ok = err <= max(cfg.abs_tol, cfg.rel_tol * abs(p.g_integral))
            series.append((tsum, p.g))
        p.inside = range(bisect_right(points, a), bisect_left(points, b))
        if ok and p.inside and any(t > _CHOP * min(map(abs, v)) for t, v in series):
            # resolved for its integral but not where it is read: the point
            # nearest its middle becomes a panel end
            mid = min((points[i] for i in p.inside), key=lambda x: abs(x - mid))
        elif ok:
            # the interior nodes sit off their places by the rounding of
            # (a + b) / 2 (its exact error by Knuth's two-sum), which shifts
            # the rule's integral by shift * (f(b) - f(a)) to first order;
            # the carry, which chains T from panel to panel, takes that off
            s = a + b
            v = s - a
            shift = 0.5 * ((s - v - a) + (v - b))
            accepted += 1
            carry += p.integral - shift * (p.fs[0] - p.fs[-1])
            yield p
            continue
        elif depth >= cfg.max_depth:
            raise NonConvergence(
                f"max_depth {cfg.max_depth} reached near [{a!r}, {b!r}] "
                f"(panel error estimate {err:.3e})"
            )
        else:
            depth += 1
        if accepted + len(stack) + 2 > _MAX_PANELS:
            raise NonConvergence(
                f"panel budget {_MAX_PANELS} exhausted on [{pts[0]!r}, {pts[-1]!r}]"
            )
        stack.append((a, mid, depth))
        stack.append((mid, b, depth))


def _integrate_knots(
    f, knots, cfg: QuadConfig = DEFAULT_CONFIG, resolve=None, points=None, read=None
):
    """Values at the increasing ``points`` (by default the knots; they run
    from knots[0] to knots[-1]) and the integral over each interval
    between consecutive points, of f or of the node values ``resolve``
    derives from it, in one ``cheb_sweep`` over the knots.  A point at a
    panel end takes the sample there, so points that are knots read what
    they would as knots.  The integrals over pieces of a panel come from
    its interpolant's antiderivative (``_interior``); the value at a
    point strictly inside a panel is ``read(panel, xs)``'s at the
    decreasing points xs, or None without ``read``."""
    pts = knots if points is None else points
    vals = [None] * len(pts)
    seg = [0.0] * (len(pts) - 1)
    for p in cheb_sweep(f, knots, cfg, resolve, pts):
        g, integral = (p.fs, p.integral) if resolve is None else (p.g, p.g_integral)
        above = p.inside.stop  # the first point from b up
        if above < len(pts) and pts[above] == p.b:
            vals[above] = g[0]
        if p.inside:
            down = p.inside[::-1]
            xs = [pts[i] for i in down]
            pieces = _interior(p, g, xs)
            for i, piece in zip(down, pieces):
                seg[i] += piece
            if read is not None:
                for i, v in zip(down, read(p, xs)):
                    vals[i] = v
            integral = pieces[-1]
        seg[p.inside.start - 1] += integral
        vals[0] = g[-1]
    return vals, seg


def _interior(p, g, xs, values=False):
    """The integrals of the interpolant of the node values ``g`` of the
    panel ``p`` over the pieces that the decreasing points ``xs`` inside it
    cut the panel into, from b down to a; with ``values``, (the
    interpolant at xs, those integrals).

    The Chebyshev coefficients c = D g are worked out once per call, with
    the antiderivative series a_1 = c_0 - c_2 / 2, a_k = (c_{k-1} -
    c_{k+1}) / (2k); each point sums the antiderivative, and with
    ``values`` the interpolant, by Clenshaw's recurrence, and a piece is
    the difference of the antiderivative at its two ends.
    """
    c = [sum(map(mul, row, g)) for row in _cheb_tables()[2]] + [0.0, 0.0]
    a = [0.0, c[0] - 0.5 * c[2]] + [(c[k - 1] - c[k + 1]) / (2 * k) for k in range(2, _N + 2)]
    mid, half = 0.5 * (p.a + p.b), p.half
    # the panel's own ends too are read where they lie in the frame of its
    # nodes, which the rounding of mid shifts off +-1
    ss = [(x - mid) / half for x in (p.b, *xs, p.a)]
    anti = [_clenshaw(a, s) for s in ss]
    pieces = [half * (u - v) for u, v in zip(anti, anti[1:])]
    return ([_clenshaw(c, s) for s in ss[1:-1]], pieces) if values else pieces


def _clenshaw(c, s):
    """sum_k c_k T_k(s) by Clenshaw's recurrence."""
    b1 = b2 = 0.0
    s2 = s + s
    for ck in reversed(c[1:]):
        b1, b2 = ck + s2 * b1 - b2, b1
    return c[0] + s * b1 - b2
