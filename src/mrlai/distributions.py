"""Lifetime distribution specifications and their evaluatable realisations.

A spec is a small frozen dataclass describing a distribution declaratively:
either a closed-form family (exponential, Weibull, Pareto, Erlang, uniform),
a distribution specified through its mean residual life function (linear,
reciprocal-linear, exponential, or piecewise MRL), or a composite
(mixture, convolution, order statistic, positive scaling).  Specs
round-trip through a JSON grammar tagged by a ``family`` key.

Each spec class is the one record of its family: it validates itself,
builds its ``Dist``, rescales itself and carries its published closed
ageing intensity, so the dispatchers here (``validate``, ``build``) and
in the other modules stay generic.

``build`` validates a spec and turns it into a ``Dist``: an immutable object
exposing the survival function, an optional density, the support, the
mean, and whatever closed forms the family admits (tail integral, mean
residual life and its running integral).  Everything a family cannot
supply in closed form falls back to adaptive quadrature.

MRL-specified families realise their survival via the classical
inversion  F(t) = (mu(0)/mu(t)) * exp(-int_0^t du/mu(u));  parameter
choices with mu'(t) < -1 (which appear in the source material's own
counterexamples) yield a quasi-survival that is not monotone.  Such
specs are accepted and evaluated as the formulas dictate, but the
probabilistic invariants obviously do not apply to them.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass, field, fields, is_dataclass, replace
from functools import cached_property

from .errors import SpecError, UnsupportedCapability
from .quadrature import DEFAULT_CONFIG, QuadConfig, integrate_finite, integrate_tail

__all__ = [
    "Exponential",
    "Weibull",
    "Pareto",
    "Erlang",
    "Uniform",
    "MrlLinear",
    "MrlReciprocalLinear",
    "MrlExponential",
    "MrlPiecewise",
    "PieceLinear",
    "PieceExpAffine",
    "PieceSqrtAffine",
    "PieceRecipLinear",
    "Mixture",
    "Convolution",
    "OrderStatistic",
    "Scaled",
    "Dist",
    "FormalExtension",
    "validate",
    "build",
    "spec_to_dict",
    "spec_from_dict",
    "dump_spec",
    "load_spec",
    "load_spec_file",
]


def _require(condition, path, message):
    if not condition:
        raise SpecError(path, message)


def _finite(x, path):
    _require(isinstance(x, (int, float)) and not isinstance(x, bool), path, "must be a number")
    _require(math.isfinite(x), path, "must be finite")
    return float(x)


def _holds(tag):
    """A field holding spec nodes (tag "family") or MRL pieces (tag "kind")."""
    return field(metadata={"tag": tag})


class _Family:
    """Base of every spec class.

    Each subclass is the only record of its family and provides
    ``_validated(path)`` (check the parameters, return a normalised copy)
    and ``_build()`` (realise the validated spec as a ``Dist``).  It
    overrides the two methods below where the family has the property.
    Subclassing registers the family in the JSON grammar.
    """

    def rescaled(self, a):
        """Spec of a * X in the same family, or None."""
        return None

    def closed_L(self, t):
        """Published closed-form ageing intensity at t, or None."""
        return None

    def closed_double_tail(self, t):
        """Closed int_t^inf int_u^inf S of the on-support formula at t, or None.

        Below the support start this is the formal continuation.
        """
        return None


# ---------------------------------------------------------------------------
# closed-form and MRL-specified families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Exponential(_Family):
    rate: float
    family = "exponential"

    def _validated(self, path):
        rate = _finite(self.rate, f"{path}.rate")
        _require(rate > 0, f"{path}.rate", "must be positive")
        return Exponential(rate)

    def _build(self):
        lam = self.rate
        return Dist(
            self,
            lambda t: math.exp(-lam * t),
            (0.0, math.inf),
            density=lambda t: lam * math.exp(-lam * t),
            tail=lambda t: math.exp(-lam * t) / lam,
            mean=1.0 / lam,
            mrl=lambda t: 1.0 / lam,
            mrl_integral=lambda t: t / lam,
        )

    def rescaled(self, a):
        return Exponential(self.rate / a)

    def closed_L(self, t):
        return 1.0

    def closed_double_tail(self, t):
        lam = self.rate
        return math.exp(-lam * t) / (lam * lam)


@dataclass(frozen=True)
class Weibull(_Family):
    shape: float
    scale: float
    family = "weibull"

    def _validated(self, path):
        shape = _finite(self.shape, f"{path}.shape")
        scale = _finite(self.scale, f"{path}.scale")
        _require(shape > 0, f"{path}.shape", "must be positive")
        _require(scale > 0, f"{path}.scale", "must be positive")
        return Weibull(shape, scale)

    def _build(self):
        alpha, beta = self.shape, self.scale

        def survival(t):
            return math.exp(-((t / beta) ** alpha))

        def density(t):
            if t == 0.0:
                if alpha > 1:
                    return 0.0
                return 1.0 / beta if alpha == 1 else math.inf
            z = (t / beta) ** alpha
            return alpha / t * z * math.exp(-z)

        return Dist(
            self,
            survival,
            (0.0, math.inf),
            density=density,
            mean=beta * math.gamma(1.0 + 1.0 / alpha),
        )

    def rescaled(self, a):
        return Weibull(self.shape, a * self.scale)


@dataclass(frozen=True)
class Pareto(_Family):
    shape: float
    scale: float
    family = "pareto"

    def _validated(self, path):
        shape = _finite(self.shape, f"{path}.shape")
        scale = _finite(self.scale, f"{path}.scale")
        _require(
            shape > 1, f"{path}.shape", "must exceed 1 (shape <= 1 means an infinite mean)"
        )
        _require(scale > 0, f"{path}.scale", "must be positive")
        return Pareto(shape, scale)

    def _build(self):
        a, b = self.shape, self.scale
        formal = FormalExtension(
            tail=lambda t: b**a * t ** (1.0 - a) / (a - 1.0),
            mrl=lambda t: t / (a - 1.0),
            mrl_integral=lambda t: t * t / (2.0 * (a - 1.0)),
        )
        return Dist(
            self,
            lambda t: (b / t) ** a,
            (b, math.inf),
            density=lambda t: a * b**a / t ** (a + 1.0),
            tail=lambda t: t * (b / t) ** a / (a - 1.0),
            mean=a * b / (a - 1.0),
            mrl=lambda t: t / (a - 1.0),
            mrl_integral=lambda t: (t * t - b * b) / (2.0 * (a - 1.0)),
            formal=formal,
        )

    def rescaled(self, a):
        return Pareto(self.shape, a * self.scale)

    def closed_L(self, t):
        return 2.0  # under the formal integration convention

    def closed_double_tail(self, t):
        a, b = self.shape, self.scale
        if a <= 2.0:
            return None  # the tail integral decays too slowly to integrate again
        return b**a * t ** (2.0 - a) / ((a - 1.0) * (a - 2.0))


def _erlang_terms(k, lam, t):
    """Cumulants e^{-lam t} (lam t)^i / i! for i < k."""
    terms = []
    p = math.exp(-lam * t)
    for i in range(k):
        terms.append(p)
        p *= lam * t / (i + 1)
    return terms


@dataclass(frozen=True)
class Erlang(_Family):
    k: int
    rate: float
    family = "erlang"

    def _validated(self, path):
        _require(
            isinstance(self.k, int) and not isinstance(self.k, bool) and self.k >= 1,
            f"{path}.k",
            "must be a positive integer",
        )
        rate = _finite(self.rate, f"{path}.rate")
        _require(rate > 0, f"{path}.rate", "must be positive")
        return Erlang(self.k, rate)

    def _build(self):
        k, lam = self.k, self.rate
        logc = (k - 1) * math.log(lam) + math.log(lam) - math.lgamma(k)

        def survival(t):
            return math.fsum(_erlang_terms(k, lam, t))

        def density(t):
            if t == 0.0:
                return lam if k == 1 else 0.0
            return math.exp(logc + (k - 1) * math.log(t) - lam * t)

        def tail_of(terms):
            return math.fsum((k - i) * p for i, p in enumerate(terms)) / lam

        def tail(t):
            return tail_of(_erlang_terms(k, lam, t))

        def mrl(t):
            # tail / survival from one term list
            terms = _erlang_terms(k, lam, t)
            return tail_of(terms) / math.fsum(terms)

        mrl_integral = None
        if k == 1:
            mrl_integral = lambda t: t / lam
        elif k == 2:
            mrl_integral = lambda t: (lam * t + math.log1p(lam * t)) / (lam * lam)
        elif k == 3:
            # antiderivative of ((lam t)^2 + 4 lam t + 6) / (lam ((lam t)^2 + 2 lam t + 2))
            def mrl_integral(t):
                s = lam * t
                val = (
                    math.log(s * s + 2.0 * s + 2.0)
                    + 2.0 * math.atan(s + 1.0)
                    + s
                    - math.log(2.0)
                    - math.pi / 2.0
                )
                return val / (lam * lam)

        return Dist(
            self,
            survival,
            (0.0, math.inf),
            density=density,
            tail=tail,
            mean=k / lam,
            mrl=mrl,
            mrl_integral=mrl_integral,
        )

    def rescaled(self, a):
        return Erlang(self.k, self.rate / a)

    def closed_double_tail(self, t):
        k, lam = self.k, self.rate
        terms = _erlang_terms(k, lam, t)
        weighted = (0.5 * (k - i) * (k - i + 1) * p for i, p in enumerate(terms))
        return math.fsum(weighted) / (lam * lam)

    def closed_L(self, t):
        if self.k != 2:
            return None
        s = self.rate * t
        return s * (s + 2.0) / ((s + 1.0) * (s + math.log1p(s)))


@dataclass(frozen=True)
class Uniform(_Family):
    lo: float
    hi: float
    family = "uniform"

    def _validated(self, path):
        lo = _finite(self.lo, f"{path}.lo")
        hi = _finite(self.hi, f"{path}.hi")
        _require(lo >= 0, f"{path}.lo", "must be non-negative")
        _require(hi > lo, f"{path}.hi", "must exceed lo")
        return Uniform(lo, hi)

    def _build(self):
        lo, hi = self.lo, self.hi
        width = hi - lo
        return Dist(
            self,
            lambda t: (hi - t) / width,
            (lo, hi),
            density=lambda t: 1.0 / width,
            tail=lambda t: (hi - t) ** 2 / (2.0 * width),
            mean=0.5 * (lo + hi),
            mrl=lambda t: 0.5 * (hi - t),
            mrl_integral=lambda t: 0.5 * (hi * (t - lo) - 0.5 * (t * t - lo * lo)),
        )

    def rescaled(self, a):
        return Uniform(a * self.lo, a * self.hi)

    def closed_double_tail(self, t):
        return max(self.hi - t, 0.0) ** 3 / (6.0 * (self.hi - self.lo))


@dataclass(frozen=True)
class MrlLinear(_Family):
    """Mean residual life a + b*t with a > 0, b >= 0."""

    a: float
    b: float
    family = "mrl_linear"

    def _validated(self, path):
        a = _finite(self.a, f"{path}.a")
        b = _finite(self.b, f"{path}.b")
        _require(a > 0, f"{path}.a", "must be positive")
        _require(b >= 0, f"{path}.b", "must be non-negative")
        return MrlLinear(a, b)

    def _build(self):
        a, b = self.a, self.b
        if b == 0.0:
            # the exponential with mean a; a itself stays the exact mean
            return Exponential(1.0 / a)._build().relabel(self, mean=a)
        c = 1.0 + 1.0 / b

        return Dist(
            self,
            lambda t: (a / (a + b * t)) ** c,
            (0.0, math.inf),
            density=lambda t: (b + 1.0) * a**c / (a + b * t) ** (c + 1.0),
            tail=lambda t: a * (a / (a + b * t)) ** (1.0 / b),
            mean=a,
            mrl=lambda t: a + b * t,
            mrl_integral=lambda t: a * t + 0.5 * b * t * t,
        )

    def rescaled(self, a):
        return MrlLinear(a * self.a, self.b)

    def closed_double_tail(self, t):
        # S(t) (a + b t)^2 / (1 - b); the tail decays too slowly from b = 1 on
        a, b = self.a, self.b
        if b >= 1.0:
            return None
        if b == 0.0:
            return a * a * math.exp(-t / a)
        m = a + b * t
        return (a / m) ** (1.0 + 1.0 / b) * m * m / (1.0 - b)

    def closed_L(self, t):
        return (self.a + self.b * t) / (self.a + 0.5 * self.b * t)


@dataclass(frozen=True)
class MrlReciprocalLinear(_Family):
    """Mean residual life 1/(a + b*t) with a > 0, b > 0."""

    a: float
    b: float
    family = "mrl_reciprocal_linear"

    def _validated(self, path):
        a = _finite(self.a, f"{path}.a")
        b = _finite(self.b, f"{path}.b")
        _require(a > 0, f"{path}.a", "must be positive")
        _require(b > 0, f"{path}.b", "must be positive")
        return MrlReciprocalLinear(a, b)

    def _build(self):
        a, b = self.a, self.b

        def survival(t):
            return (a + b * t) / a * math.exp(-(a * t + 0.5 * b * t * t))

        return Dist(
            self,
            survival,
            (0.0, math.inf),
            density=lambda t: ((a + b * t) ** 2 - b) / a * math.exp(-(a * t + 0.5 * b * t * t)),
            tail=lambda t: math.exp(-(a * t + 0.5 * b * t * t)) / a,
            mean=1.0 / a,
            mrl=lambda t: 1.0 / (a + b * t),
            mrl_integral=lambda t: math.log((a + b * t) / a) / b,
        )

    def rescaled(self, a):
        return MrlReciprocalLinear(self.a / a, self.b / (a * a))

    def closed_L(self, t):
        a, b = self.a, self.b
        return b * t / ((a + b * t) * math.log((a + b * t) / a))


@dataclass(frozen=True)
class MrlExponential(_Family):
    """Mean residual life exp(a + b*t) with b != 0."""

    a: float
    b: float
    family = "mrl_exponential"

    def _validated(self, path):
        a = _finite(self.a, f"{path}.a")
        b = _finite(self.b, f"{path}.b")
        _require(b != 0, f"{path}.b", "must be non-zero")
        return MrlExponential(a, b)

    def _build(self):
        # For b > 0 the defining formula exp(a + bt) is not a realisable MRL:
        # the inversion integral int 1/mu stays bounded, so mu(t) * survival(t)
        # tends to the positive constant K below instead of 0.  The closed
        # mrl/mrl_integral keep the defining formulas (which is what the
        # published intensity bt e^{bt}/(e^{bt}-1) is built from), while tail
        # and mean describe the reconstructed survival itself.
        a, b = self.a, self.b

        def survival(t):
            return math.exp(math.exp(-a) * math.expm1(-b * t) / b - b * t)

        def density(t):
            return survival(t) * (math.exp(-a - b * t) + b)

        offset = math.exp(a) * math.exp(-math.exp(-a) / b) if b > 0 else 0.0

        def tail(t):
            return math.exp(a + b * t) * survival(t) - offset

        return Dist(
            self,
            survival,
            (0.0, math.inf),
            density=density,
            tail=tail,
            mean=math.exp(a) - offset,
            mrl=lambda t: math.exp(a + b * t),
            mrl_integral=lambda t: math.exp(a) * math.expm1(b * t) / b,
        )

    def rescaled(self, a):
        return MrlExponential(self.a + math.log(a), self.b / a)

    def closed_L(self, t):
        b = self.b
        return b * t * math.exp(b * t) / math.expm1(b * t)


# Piece kinds for MrlPiecewise.  Each knows its own value, slope and the
# closed antiderivatives of mu and 1/mu, so the piecewise survival and the
# ageing-intensity denominator never need numerical integration.  Each also
# rescales itself (mu_{aX}(t) = a * mu_X(t / a)) and knows whether mu stays
# positive on its interval.  Every kind is monotone in t, so the endpoint
# values and, on an unbounded last piece, the limit decide that; the
# reciprocal kind is monotone only between its poles, so it tests its linear
# denominator instead.


class _Piece:
    def positive_on(self, lo, hi):
        """mu > 0 on [lo, hi), from the ends and, for hi = inf, the limit."""
        return self.mu(lo) > 0 and (
            self.positive_at_infinity() if math.isinf(hi) else self.mu(hi) >= 0
        )


@dataclass(frozen=True)
class PieceLinear(_Piece):
    """mu(t) = a + b*t on the piece, in absolute time coordinates."""

    a: float
    b: float
    kind = "linear"

    def mu(self, t):
        return self.a + self.b * t

    def mu_prime(self, t):
        return self.b

    def int_mu(self, s, t):
        return self.a * (t - s) + 0.5 * self.b * (t * t - s * s)

    def int_inv_mu(self, s, t):
        if self.b == 0.0:
            return (t - s) / self.a
        return math.log(self.mu(t) / self.mu(s)) / self.b

    def rescaled(self, a):
        return PieceLinear(a * self.a, self.b)

    def positive_at_infinity(self):
        return self.b >= 0


@dataclass(frozen=True)
class PieceExpAffine(_Piece):
    """mu(t) = p + q*exp(r*t)."""

    p: float
    q: float
    r: float
    kind = "exp_affine"

    def mu(self, t):
        return self.p + self.q * math.exp(self.r * t)

    def mu_prime(self, t):
        return self.q * self.r * math.exp(self.r * t)

    def int_mu(self, s, t):
        return self.p * (t - s) + self.q / self.r * (
            math.exp(self.r * t) - math.exp(self.r * s)
        )

    def int_inv_mu(self, s, t):
        # d/dt [r*t - ln(p + q e^{rt})] = r*p / (p + q e^{rt})
        if self.p == 0.0:
            return (math.exp(-self.r * s) - math.exp(-self.r * t)) / (self.q * self.r)
        anti = lambda u: (self.r * u - math.log(self.mu(u))) / (self.r * self.p)
        return anti(t) - anti(s)

    def rescaled(self, a):
        return PieceExpAffine(a * self.p, a * self.q, self.r / a)

    def positive_at_infinity(self):
        # constant when q*r == 0; else the limit is p (r < 0, never reached) or sign(q) * inf
        return self.q * self.r == 0 or (self.p >= 0 if self.r < 0 else self.q > 0)


@dataclass(frozen=True)
class PieceSqrtAffine(_Piece):
    """mu(t) = p + q*sqrt(t)."""

    p: float
    q: float
    kind = "sqrt_affine"

    def mu(self, t):
        return self.p + self.q * math.sqrt(t)

    def mu_prime(self, t):
        return 0.5 * self.q / math.sqrt(t) if t > 0 else math.inf

    def int_mu(self, s, t):
        return self.p * (t - s) + (2.0 * self.q / 3.0) * (t**1.5 - s**1.5)

    def int_inv_mu(self, s, t):
        if self.q == 0.0:
            return (t - s) / self.p
        anti = lambda u: (2.0 / self.q**2) * (
            self.q * math.sqrt(u) - self.p * math.log(self.mu(u))
        )
        return anti(t) - anti(s)

    def rescaled(self, a):
        return PieceSqrtAffine(a * self.p, math.sqrt(a) * self.q)

    def positive_at_infinity(self):
        return self.q >= 0


@dataclass(frozen=True)
class PieceRecipLinear(_Piece):
    """mu(t) = 1/(a + b*t)."""

    a: float
    b: float
    kind = "recip_linear"

    def mu(self, t):
        return 1.0 / (self.a + self.b * t)

    def mu_prime(self, t):
        d = self.a + self.b * t
        return -self.b / (d * d)

    def int_mu(self, s, t):
        if self.b == 0.0:
            return (t - s) / self.a
        return math.log((self.a + self.b * t) / (self.a + self.b * s)) / self.b

    def int_inv_mu(self, s, t):
        return self.a * (t - s) + 0.5 * self.b * (t * t - s * s)

    def rescaled(self, a):
        return PieceRecipLinear(self.a / a, self.b / (a * a))

    def positive_on(self, lo, hi):
        # mu has a pole where a + b*t = 0, so test the denominator itself
        return self.a + self.b * lo > 0 and (
            self.b >= 0 if math.isinf(hi) else self.a + self.b * hi > 0
        )


_PIECE_KINDS = {
    cls.kind: cls for cls in (PieceLinear, PieceExpAffine, PieceSqrtAffine, PieceRecipLinear)
}


@dataclass(frozen=True)
class MrlPiecewise(_Family):
    """MRL given piecewise: pieces[i] applies on [breakpoints[i-1], breakpoints[i])."""

    breakpoints: tuple
    pieces: tuple = _holds("kind")
    family = "mrl_piecewise"

    def _validated(self, path):
        bps = tuple(_finite(b, f"{path}.breakpoints[{i}]") for i, b in enumerate(self.breakpoints))
        _require(all(b > 0 for b in bps), f"{path}.breakpoints", "must be positive")
        _require(
            all(b2 > b1 for b1, b2 in zip(bps, bps[1:])),
            f"{path}.breakpoints",
            "must be strictly increasing",
        )
        pieces = tuple(self.pieces)
        _require(
            len(pieces) == len(bps) + 1,
            f"{path}.pieces",
            f"need exactly {len(bps) + 1} pieces for {len(bps)} breakpoints",
        )
        for i, piece in enumerate(pieces):
            _require(
                type(piece) in _PIECE_KINDS.values(),
                f"{path}.pieces[{i}]",
                f"unknown piece type {type(piece).__name__}",
            )
            for f in fields(piece):
                _finite(getattr(piece, f.name), f"{path}.pieces[{i}].{f.name}")
            lo = 0.0 if i == 0 else bps[i - 1]
            hi = bps[i] if i < len(bps) else math.inf
            _require(
                piece.positive_on(lo, hi),
                f"{path}.pieces[{i}]",
                f"mean residual life must stay positive on [{lo!r}, {hi!r})",
            )
        return MrlPiecewise(bps, pieces)

    def _build(self):
        bps = self.breakpoints
        pieces = self.pieces
        starts = (0.0,) + bps

        # prefix constants so per-point evaluation is O(log pieces)
        int_mu_at = [0.0]
        int_inv_at = [0.0]
        for i, bp in enumerate(bps):
            int_mu_at.append(int_mu_at[-1] + pieces[i].int_mu(starts[i], bp))
            int_inv_at.append(int_inv_at[-1] + pieces[i].int_inv_mu(starts[i], bp))

        def _index(t):
            return bisect.bisect_right(bps, t)

        def mu(t):
            return pieces[_index(t)].mu(t)

        def mrl_integral(t):
            i = _index(t)
            return int_mu_at[i] + pieces[i].int_mu(starts[i], t)

        def inv_integral(t):
            i = _index(t)
            return int_inv_at[i] + pieces[i].int_inv_mu(starts[i], t)

        mu0 = pieces[0].mu(0.0)

        def survival(t):
            return mu0 / mu(t) * math.exp(-inv_integral(t))

        def density(t):
            i = _index(t)
            return survival(t) * (pieces[i].mu_prime(t) + 1.0) / pieces[i].mu(t)

        return Dist(
            self,
            survival,
            (0.0, math.inf),
            density=density,
            tail=lambda t: mu(t) * survival(t),
            mean=mu0,
            mrl=mu,
            mrl_integral=mrl_integral,
            breakpoints=bps,
        )

    def rescaled(self, a):
        return MrlPiecewise(
            tuple(a * bp for bp in self.breakpoints), tuple(p.rescaled(a) for p in self.pieces)
        )


# ---------------------------------------------------------------------------
# composites (assembled by the reliability operations in ``ops``)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Mixture(_Family):
    weights: tuple
    components: tuple = _holds("family")
    family = "mixture"

    def _validated(self, path):
        weights = tuple(_finite(w, f"{path}.weights[{i}]") for i, w in enumerate(self.weights))
        _require(len(weights) >= 2, f"{path}.weights", "a mixture needs at least two components")
        _require(
            len(weights) == len(self.components),
            f"{path}.components",
            "weights and components must have equal length",
        )
        for i, w in enumerate(weights):
            _require(w > 0, f"{path}.weights[{i}]", "must be positive")
        _require(
            abs(sum(weights) - 1.0) <= 1e-12,
            f"{path}.weights",
            f"must sum to 1 (got {sum(weights)!r})",
        )
        comps = tuple(
            validate(c, f"{path}.components[{i}]") for i, c in enumerate(self.components)
        )
        # deterministic component order: sort by serialised form, weights riding along
        pairs = sorted(
            zip(weights, comps),
            key=lambda wc: (json.dumps(spec_to_dict(wc[1]), sort_keys=True), wc[0]),
        )
        return Mixture(tuple(w for w, _ in pairs), tuple(c for _, c in pairs))

    def _build(self):
        return ops.mixture(list(self.weights), [c._build() for c in self.components])

    def rescaled(self, a):
        comps = tuple(c.rescaled(a) for c in self.components)
        return None if any(c is None for c in comps) else Mixture(self.weights, comps)


@dataclass(frozen=True)
class Convolution(_Family):
    components: tuple = _holds("family")
    family = "convolution"

    def _validated(self, path):
        comps = tuple(
            validate(c, f"{path}.components[{i}]") for i, c in enumerate(self.components)
        )
        _require(len(comps) >= 2, f"{path}.components", "needs at least two summands")
        return Convolution(comps)

    def _build(self):
        dists = [c._build() for c in self.components]
        out = dists[0]
        for d in dists[1:]:
            out = ops.convolution(out, d)
        return out


@dataclass(frozen=True)
class OrderStatistic(_Family):
    base: object = _holds("family")
    k: int
    n: int
    family = "order_statistic"

    def _validated(self, path):
        base = validate(self.base, f"{path}.base")
        _require(
            isinstance(self.n, int) and not isinstance(self.n, bool) and self.n >= 1,
            f"{path}.n",
            "must be a positive integer",
        )
        _require(
            isinstance(self.k, int) and not isinstance(self.k, bool) and 1 <= self.k <= self.n,
            f"{path}.k",
            f"must lie in [1, n={self.n}]",
        )
        return OrderStatistic(base, self.k, self.n)

    def _build(self):
        return ops.order_statistic(self.base._build(), self.k, self.n)

    def rescaled(self, a):
        inner = self.base.rescaled(a)
        return None if inner is None else OrderStatistic(inner, self.k, self.n)


@dataclass(frozen=True)
class Scaled(_Family):
    base: object = _holds("family")
    factor: float
    family = "scaled"

    def _validated(self, path):
        factor = _finite(self.factor, f"{path}.factor")
        _require(factor > 0, f"{path}.factor", "must be positive")
        base = validate(self.base, f"{path}.base")
        # flatten nested scalings
        while isinstance(base, Scaled):
            factor *= base.factor
            base = base.base
        return Scaled(base, factor)

    def _build(self):
        return ops.scale(self.base._build(), self.factor)


_FAMILIES = {cls.family: cls for cls in _Family.__subclasses__()}


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


def validate(spec, path: str = "spec"):
    """Check all parameter constraints; return a normalised copy of the spec.

    Normalisation flattens nested Scaled wrappers and sorts mixture
    components into a deterministic order.
    """
    if not isinstance(spec, _Family):
        raise SpecError(path, f"unknown spec type {type(spec).__name__}")
    return spec._validated(path)


def build(spec) -> Dist:
    """Validate a spec and realise it as an evaluatable Dist."""
    return validate(spec)._build()


# ---------------------------------------------------------------------------
# JSON grammar
# ---------------------------------------------------------------------------


def spec_to_dict(spec) -> dict:
    """JSON form of a spec or a piece: its tag, then its fields in order."""
    tag = "family" if isinstance(spec, _Family) else "kind"
    body = {f.name: _to_json(getattr(spec, f.name)) for f in fields(spec)}
    return {tag: getattr(spec, tag), **body}


def _to_json(value):
    if isinstance(value, (tuple, list)):
        return [_to_json(v) for v in value]
    return spec_to_dict(value) if is_dataclass(value) else value


def spec_from_dict(d, path: str = "spec"):
    """Parse one spec node from its JSON dict form.  Unknown keys are rejected."""
    return _node_from_dict(d, path, "family")


def _node_from_dict(d, path, tag):
    # tag "family" reads a spec node, tag "kind" an MRL piece
    if not isinstance(d, dict):
        raise SpecError(path, "expected a JSON object")
    registry, noun = (_FAMILIES, "family") if tag == "family" else (_PIECE_KINDS, "piece kind")
    name = d.get(tag)
    cls = registry.get(name) if isinstance(name, str) else None
    if cls is None:
        raise SpecError(f"{path}.{tag}", f"unknown {noun} {name!r}")
    fs = fields(cls)
    extra = set(d) - {tag, *(f.name for f in fs)}
    if extra:
        raise SpecError(path, f"unknown keys {sorted(extra)} for {noun} '{name}'")
    # an omitted array reads as empty, so a single-piece MRL needs no breakpoints
    missing = [f.name for f in fs if f.name not in d and f.type != "tuple"]
    if missing:
        raise SpecError(path, f"missing keys {missing} for {noun} '{name}'")
    return cls(**{f.name: _field_from_json(f, d.get(f.name, []), path) for f in fs})


def _field_from_json(f, value, node_path):
    # field types are the annotation strings ("tuple" marks a JSON array)
    tag = f.metadata.get("tag")
    if f.type != "tuple":
        return value if tag is None else _node_from_dict(value, f"{node_path}.{f.name}", tag)
    if not isinstance(value, list):
        raise SpecError(f"{node_path}.{f.name}", "expected a JSON array")
    if tag is None:
        return tuple(value)
    return tuple(_node_from_dict(v, f"{node_path}.{f.name}[{i}]", tag) for i, v in enumerate(value))


def dump_spec(spec) -> str:
    return json.dumps(spec_to_dict(spec), indent=2, sort_keys=True)


def load_spec(text: str):
    return validate(spec_from_dict(json.loads(text)))


def load_spec_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return load_spec(fh.read())


# ---------------------------------------------------------------------------
# Dist
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FormalExtension:
    """Analytic continuation of the on-support formulas below the support start.

    Used by the 'formal' integration convention, which evaluates the
    MRLAI denominator with the on-support MRL formula continued down to
    zero (the treatment the Pareto characterisation implicitly applies).
    Unlike the family's own, its ``mrl_integral`` runs from 0.
    """

    tail: object
    mrl: object
    mrl_integral: object


class Dist:
    """Evaluatable lifetime distribution.  Immutable after construction.

    Scalar callables cover the survival function and, where available, the
    density, the closed tail integral T(t) = int_t^inf survival, the closed
    mean residual life, and the closed running integral of the MRL from the
    support start, int_s0^t mu(u) du.  Anything missing falls back to
    quadrature in the callers.

    These family closures hold the on-support formulas only and never test
    t against the support [s0, s1).  The edges are decided by the methods
    here: below s0, S = 1, f = 0 and T = mu = mean - t (``tail``); at and
    past s1, S = f = T = 0 and mu is undefined.  The MRL integral is read
    on [s0, s1] by ``ageing``, which adds the integral below s0 that its
    integration convention asks for.

    ``breakpoints`` holds the finite points where the survival function
    may lose smoothness: the finite support edges plus whatever the
    constructor passes (piecewise-MRL breakpoints, the kinks a composite
    inherits from its parts).  Quadrature over the survival function
    splits there first.  It is derived, never part of the spec.

    It keeps no per-call state: apart from the mean and the quadrature
    view, each worked out once on first use, every call evaluates afresh,
    whatever earlier calls and their ``QuadConfig`` were.
    """

    def __init__(
        self,
        spec,
        survival,
        support,
        *,
        density=None,
        tail=None,
        mean=None,
        mrl=None,
        mrl_integral=None,
        formal=None,
        lineage="",
        breakpoints=(),
    ):
        self.spec = spec
        self._survival = survival
        self.support = (float(support[0]), float(support[1]))
        edges = [e for e in self.support if math.isfinite(e)]
        self.breakpoints = tuple(sorted({*edges, *map(float, breakpoints)}))
        self._density = density
        self._tail = tail
        self._mean = mean
        self._mrl = mrl
        self._mrl_integral = mrl_integral
        self.formal = formal
        self.lineage = lineage or (spec.family if spec is not None else "")

    def _with(self, **changes) -> Dist:
        """A new ``Dist`` from this one's constructor arguments, ``changes``
        replacing some of them.  The mean goes over as stated, so nothing
        worked out on this object (the mean, the quadrature view) is copied.
        """
        args = dict(
            spec=self.spec,
            survival=self._survival,
            support=self.support,
            density=self._density,
            tail=self._tail,
            mean=self._mean,
            mrl=self._mrl,
            mrl_integral=self._mrl_integral,
            formal=self.formal,
            lineage=self.lineage,
            breakpoints=self.breakpoints,
        )
        return Dist(**{**args, **changes})

    def relabel(self, spec, lineage: str = "", *, mean=None) -> Dist:
        """This distribution under another spec and lineage.

        Used where a construction lands in a closed family: the closed
        forms carry over.  ``mean`` replaces the mean when the new spec
        states it exactly.
        """
        return self._with(spec=spec, lineage=lineage, mean=self.mean if mean is None else mean)

    # -- basic evaluation ---------------------------------------------------

    # Arithmetic overflow in a family formula only happens at the
    # astronomically large arguments probed by the improper-tail
    # substitution, where the true value has long underflowed to zero.

    def survival(self, t: float) -> float:
        s0, s1 = self.support
        if t < s0:
            return 1.0
        if t >= s1:
            return 0.0
        try:
            return self._survival(t)
        except OverflowError:
            return 0.0

    @property
    def has_density(self) -> bool:
        return self._density is not None

    def density(self, t: float) -> float:
        if self._density is None:
            raise UnsupportedCapability(
                f"{self.lineage}: no density available (survival is defined "
                "numerically or the construction does not preserve one)"
            )
        s0, s1 = self.support
        if t < s0 or t >= s1:
            return 0.0
        try:
            return self._density(t)
        except OverflowError:
            return 0.0

    def tail(self, t: float, cfg: QuadConfig = DEFAULT_CONFIG) -> float:
        """T(t) = integral of the survival function S over [t, infinity).

        0 from the support end on, and mean - t below the support start,
        where S = 1: the only place that rule is applied to T.  On the
        support, the closed tail where the family has one, otherwise
        quadrature (``ageing``'s ``method="quadrature"`` evaluates a view of
        the distribution without the closed tail).  The quadrature meets
        max(abs_tol * min(1, S(t)), rel_tol * T(t)) in one pass: callers
        divide T by S(t), and since T = S * mu the scaled floor bounds the
        error of mu.
        """
        s0, s1 = self.support
        if t >= s1:
            return 0.0
        if t < s0:
            return self.mean - t
        if self._tail is not None:
            try:
                return self._tail(t)
            except OverflowError:
                return 0.0
        return self._integral_above(self.survival, t, self._tail_config(t, cfg))

    def _on_grid(self, ts, point, closure, below=None, above=None) -> list:
        """The per-point method ``point`` at each of the increasing points
        ``ts``, bit for bit, without a method call per point.

        The grid is split once at the support edges.  ``closure``, the
        family formula ``point`` wraps (``_survival``, ``_density``,
        ``_tail``), is mapped over the points in [start, end); the points
        below and above take the constants ``below`` and ``above``, or
        ``point``'s values where those are None.  Where the closure is None
        or raises OverflowError, ``point`` gives the inside values too.
        """
        s0, s1 = self.support
        i, j = bisect.bisect_left(ts, s0), bisect.bisect_left(ts, s1)
        inside = ts[i:j]
        try:
            mid = list(map(closure or point, inside))
        except OverflowError:
            mid = list(map(point, inside))
        lo = [below] * i if below is not None else list(map(point, ts[:i]))
        hi = [above] * (len(ts) - j) if above is not None else list(map(point, ts[j:]))
        return lo + mid + hi

    def _tail_config(self, t: float, cfg: QuadConfig) -> QuadConfig:
        """``cfg`` with abs_tol scaled by min(1, S(t)), for integrals of the
        tail from t whose callers divide by S(t) or compare values that
        shrink with it."""
        # QuadConfig needs a positive abs_tol where S(t) underflows
        return replace(cfg, abs_tol=max(cfg.abs_tol * min(1.0, self.survival(t)), 1e-280))

    def _integral_above(self, f, t: float, cfg: QuadConfig = DEFAULT_CONFIG) -> float:
        """Integral of ``f`` from t to the support end, split first at the
        breakpoints above t; an infinite support end switches to the
        improper substitution past the last of them."""
        kinks = self.breakpoints
        s1 = self.support[1]
        if math.isfinite(s1):
            return integrate_finite(f, t, s1, cfg, points=kinks)
        last = max((b for b in kinks if b > t), default=None)
        if last is None:
            return integrate_tail(f, t, cfg)
        return integrate_finite(f, t, last, cfg, points=kinks) + integrate_tail(f, last, cfg)

    @cached_property
    def _quadrature_view(self) -> Dist:
        """This distribution without its closed tail, MRL and MRL integral,
        its formal continuation's MRL integral included, keeping everything
        else: what ``ageing`` evaluates under ``method="quadrature"``.  Built
        once, so a mean the view has to work out is worked out once."""
        formal = None if self.formal is None else replace(self.formal, mrl_integral=None)
        return self._with(tail=None, mrl=None, mrl_integral=None, formal=formal)

    @cached_property
    def mean(self) -> float:
        if self._mean is not None:
            return float(self._mean)
        s0 = self.support[0]
        if s0 > 0.0:
            # survival is identically 1 below the support start
            return s0 + self.tail(s0)
        return self.tail(0.0)

    # -- closed forms (None when the family has none) ------------------------

    @property
    def has_closed_mrl(self) -> bool:
        return self._mrl is not None

    def mrl_closed(self, t: float):
        """Closed-form MRL on the support, or None."""
        if self._mrl is None:
            return None
        return self._mrl(t)

    def __repr__(self):
        return f"Dist({self.lineage})"


# Composites are assembled by the reliability operations, which build on
# everything above; imported last to close that cycle.
from . import ops  # noqa: E402
