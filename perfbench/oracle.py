"""Independent reference values for the benchmark's correctness checks.

Nothing here calls into ``mrlai``.  Closed-grid families use published
closed forms written out in plain ``math``; numeric families use closed
tails through ``scipy.special.gammaincc`` and integrate the running MRL
with ``scipy.integrate.quad``; the far-tail probe uses ``mpmath``.
scipy and mpmath are imported lazily so the timed loop and the peak-RSS
reading never include them.

Each family object exposes, for a lifetime X:
  S(t)  survival            f(t)  density
  T(t)  int_t^inf S         D(t)  int_t^inf T
  mu(t) mean residual life, the true conditional mean (mean - t) below
        the support start
  G(t)  int_0^t mu (zero convention); ``formal`` families also give the
        formal-convention mu_f / G_f / T_f / D_f
"""

from __future__ import annotations

import math

# Tolerances, relative to the reference value (with a small absolute floor),
# taken from what the library states for each evaluation path.
TOL_CLOSED = 1e-10  # closed forms printed with 12 significant digits
TOL_NUMERIC = 1e-7  # numeric L of smooth families (tests/test_ageing.py::test_published_forms_match_pipeline)
TOL_ERLANG_QUAD = 1e-9  # Erlang(2) quadrature path (acceptance criterion 1)
# Convolutions: the library states its quadrature tolerance for smooth integrands
# only; the loosest tolerance its tests and corpus state for a convolution is 1e-5.
TOL_COMPOSITE = 1e-5
ABS_FLOOR = 1e-12


def close(value, ref, rel):
    if isinstance(ref, float) and math.isnan(ref):
        return isinstance(value, float) and math.isnan(value)
    return abs(value - ref) <= rel * abs(ref) + ABS_FLOOR


def rel_err(value, ref):
    if not math.isfinite(ref) or ref == 0.0:
        return 0.0 if value == ref else abs(value - ref)
    return abs(value - ref) / abs(ref)


# ---------------------------------------------------------------------------
# closed-form families (pure math)
# ---------------------------------------------------------------------------


class Exponential:
    def __init__(self, rate):
        self.l = rate

    def S(self, t):
        return math.exp(-self.l * t)

    def f(self, t):
        return self.l * math.exp(-self.l * t)

    def mu(self, t):
        return 1.0 / self.l

    def G(self, t):
        return t / self.l

    def T(self, t):
        return math.exp(-self.l * t) / self.l

    def D(self, t):
        return math.exp(-self.l * t) / self.l**2


class Erlang2:
    def __init__(self, rate):
        self.l = rate

    def S(self, t):
        s = self.l * t
        return math.exp(-s) * (1.0 + s)

    def f(self, t):
        s = self.l * t
        return self.l * s * math.exp(-s)

    def mu(self, t):
        s = self.l * t
        return (2.0 + s) / (self.l * (1.0 + s))

    def G(self, t):
        s = self.l * t
        return (s + math.log1p(s)) / self.l**2

    def T(self, t):
        s = self.l * t
        return math.exp(-s) * (2.0 + s) / self.l

    def D(self, t):
        s = self.l * t
        return math.exp(-s) * (3.0 + s) / self.l**2


class Uniform:
    def __init__(self, lo, hi):
        self.lo, self.hi, self.w = lo, hi, hi - lo
        self.mean = 0.5 * (lo + hi)

    def S(self, t):
        if t < self.lo:
            return 1.0
        return (self.hi - t) / self.w if t < self.hi else 0.0

    def f(self, t):
        return 1.0 / self.w if self.lo <= t < self.hi else 0.0

    def mu(self, t):
        return self.mean - t if t < self.lo else 0.5 * (self.hi - t)

    def G(self, t):
        if t <= self.lo:
            return self.mean * t - 0.5 * t * t
        lo = self.lo
        return self.mean * lo - 0.5 * lo * lo + 0.5 * (self.hi * (t - lo) - 0.5 * (t * t - lo * lo))

    def T(self, t):
        if t < self.lo:
            return self.mean - t
        return (self.hi - t) ** 2 / (2.0 * self.w)

    def D(self, t):
        if t < self.lo:
            m, lo = self.mean, self.lo
            return m * (lo - t) - 0.5 * (lo * lo - t * t) + self.w**2 / 6.0
        return (self.hi - t) ** 3 / (6.0 * self.w)


class Pareto:
    """Pareto(shape a, scale b); the formal convention continues t/(a-1) below b."""

    def __init__(self, shape, scale):
        self.a, self.b = shape, scale
        self.mean = shape * scale / (shape - 1.0)

    def S(self, t):
        return 1.0 if t < self.b else (self.b / t) ** self.a

    def f(self, t):
        return 0.0 if t < self.b else self.a * self.b**self.a / t ** (self.a + 1.0)

    def mu(self, t):
        return self.mean - t if t < self.b else t / (self.a - 1.0)

    def mu_f(self, t):
        return t / (self.a - 1.0)

    def G_f(self, t):
        return t * t / (2.0 * (self.a - 1.0))

    def T_f(self, t):
        return self.b**self.a * t ** (1.0 - self.a) / (self.a - 1.0)

    def D_f(self, t):
        a = self.a
        return self.b**a * t ** (2.0 - a) / ((a - 1.0) * (a - 2.0))


class MrlLinear:
    def __init__(self, a, b):
        self.a, self.b, self.c = a, b, 1.0 + 1.0 / b

    def S(self, t):
        return (self.a / (self.a + self.b * t)) ** self.c

    def f(self, t):
        return self.S(t) * (1.0 + self.b) / self.mu(t)

    def mu(self, t):
        return self.a + self.b * t

    def G(self, t):
        return self.a * t + 0.5 * self.b * t * t

    def T(self, t):
        return self.mu(t) * self.S(t)

    def D(self, t):
        return self.T(t) * self.mu(t) / (1.0 - self.b)


class MrlReciprocalLinear:
    def __init__(self, a, b):
        self.a, self.b = a, b

    def mu(self, t):
        return 1.0 / (self.a + self.b * t)

    def S(self, t):
        a, b = self.a, self.b
        return (a + b * t) / a * math.exp(-(a * t + 0.5 * b * t * t))

    def f(self, t):
        # f = S (1 + mu') / mu
        return self.S(t) * (1.0 - self.b * self.mu(t) ** 2) / self.mu(t)

    def G(self, t):
        return math.log1p(self.b * t / self.a) / self.b


class MrlExponential:
    def __init__(self, a, b):
        self.a, self.b = a, b

    def mu(self, t):
        return math.exp(self.a + self.b * t)

    def S(self, t):
        # mu(0)/mu(t) * exp(-int_0^t 1/mu)
        a, b = self.a, self.b
        return math.exp(-b * t - math.exp(-a) * (1.0 - math.exp(-b * t)) / b)

    def f(self, t):
        return self.S(t) * (1.0 + self.b * self.mu(t)) / self.mu(t)

    def G(self, t):
        return math.exp(self.a) * math.expm1(self.b * t) / self.b


class MrlPiecewiseLinear:
    """Continuous piecewise-linear MRL: pieces[i] = (a, b) on [bp[i-1], bp[i])."""

    def __init__(self, breakpoints, pieces):
        self.bps = list(breakpoints)
        self.pieces = list(pieces)
        self.starts = [0.0] + self.bps
        self.mean = self.pieces[0][0]

    def _i(self, t):
        i = 0
        while i < len(self.bps) and t >= self.bps[i]:
            i += 1
        return i

    def mu(self, t):
        a, b = self.pieces[self._i(t)]
        return a + b * t

    def _int(self, t, g):
        i = self._i(t)
        total = 0.0
        for j in range(i):
            total += g(self.pieces[j], self.starts[j], self.bps[j])
        return total + g(self.pieces[i], self.starts[i], t)

    def G(self, t):
        return self._int(t, lambda p, s, e: p[0] * (e - s) + 0.5 * p[1] * (e * e - s * s))

    def _int_inv(self, t):
        def g(p, s, e):
            a, b = p
            return (e - s) / a if b == 0.0 else math.log((a + b * e) / (a + b * s)) / b

        return self._int(t, g)

    def S(self, t):
        return self.mean / self.mu(t) * math.exp(-self._int_inv(t))

    def f(self, t):
        _, b = self.pieces[self._i(t)]
        return self.S(t) * (1.0 + b) / self.mu(t)


def closed_family(spec: dict):
    fam = spec["family"]
    if fam == "exponential":
        return Exponential(spec["rate"])
    if fam == "erlang" and spec["k"] == 2:
        return Erlang2(spec["rate"])
    if fam == "uniform":
        return Uniform(spec["lo"], spec["hi"])
    if fam == "pareto":
        return Pareto(spec["shape"], spec["scale"])
    if fam == "mrl_linear":
        return MrlLinear(spec["a"], spec["b"])
    if fam == "mrl_reciprocal_linear":
        return MrlReciprocalLinear(spec["a"], spec["b"])
    if fam == "mrl_exponential":
        return MrlExponential(spec["a"], spec["b"])
    if fam == "mrl_piecewise":
        for p in spec["pieces"]:
            if p["kind"] != "linear":
                raise ValueError("oracle handles linear pieces only")
        return MrlPiecewiseLinear(spec["breakpoints"], [(p["a"], p["b"]) for p in spec["pieces"]])
    raise ValueError(f"no closed oracle for {fam}")


def conv_parts(fam, formal):
    """(mu, G) under the requested convention; formal applies to Pareto only."""
    if formal and isinstance(fam, Pareto):
        return fam.mu_f, fam.G_f
    return fam.mu, fam.G


def hazard_ai(fam, t):
    """Hazard-based ageing intensity r(t) t / (-ln S(t)); NaN where no hazard has accrued."""
    s = fam.S(t)
    if s <= 0.0:
        return math.nan
    cum = -math.log(s)
    if cum <= 0.0:
        return math.nan
    return fam.f(t) / s * t / cum


# ---------------------------------------------------------------------------
# verdict reference: the documented grid rules applied to reference values
# ---------------------------------------------------------------------------

TOL_SCALES = (0.5, 1.0, 2.0)


def scan_kind(vals, tol):
    """Monotonicity kind by the rule ``classify.scan_monotonicity`` documents."""
    absv = sorted(abs(v) for v in vals)
    n = len(absv)
    med = absv[n // 2] if n % 2 else 0.5 * (absv[n // 2 - 1] + absv[n // 2])
    eps = tol * (med or absv[-1] or 1.0)
    diffs = [b - a for a, b in zip(vals, vals[1:])]
    if sum(abs(d) for d in diffs) < eps:
        return "constant"
    inc = all(d >= -eps for d in diffs)
    dec = all(d <= eps for d in diffs)
    if inc and dec:
        return "increasing" if vals[-1] >= vals[0] else "decreasing"
    if inc:
        return "increasing"
    if dec:
        return "decreasing"
    return "non_monotone"


def leq_relation(lhs, rhs, tol):
    """Pointwise order lhs <= rhs + tol on the grid (orders._pointwise_leq)."""
    return "holds" if max(a - b for a, b in zip(lhs, rhs)) <= tol else "fails"


def ratio_relation(ratios, tol):
    """Non-increasing ratio (orders._ratio_nonincreasing)."""
    if len(ratios) < 2:
        return "inconclusive"
    return "holds" if scan_kind(ratios, tol) in ("decreasing", "constant") else "fails"


# ---------------------------------------------------------------------------
# numeric families (scipy closed tails, quad for the running integral)
# ---------------------------------------------------------------------------


def _sp():
    import scipy.integrate
    import scipy.special

    return scipy.special, scipy.integrate


class _Numeric:
    def mu(self, t):
        return self.T(t) / self.S(t)

    def G_grid(self, ts):
        """int_0^t mu at each point of an increasing grid, panel by panel."""
        _, integ = _sp()
        out, acc, lo = [], 0.0, 0.0
        for t in ts:
            val, _ = integ.quad(self.mu, lo, t, epsabs=1e-14, epsrel=1e-13, limit=200)
            acc += val
            out.append(acc)
            lo = t
        return out


class Weibull(_Numeric):
    def __init__(self, shape, scale):
        sp, _ = _sp()
        self.al, self.be = shape, scale
        self._g1 = math.gamma(1.0 / shape)
        self._g2 = math.gamma(2.0 / shape)
        self._Q = sp.gammaincc

    def S(self, t):
        return math.exp(-((t / self.be) ** self.al))

    def T(self, t):
        z = (t / self.be) ** self.al
        return self.be / self.al * self._g1 * float(self._Q(1.0 / self.al, z))

    def D(self, t):
        z = (t / self.be) ** self.al
        m1 = self.be**2 / self.al * self._g2 * float(self._Q(2.0 / self.al, z))
        return m1 - t * self.T(t)


class Erlang(_Numeric):
    def __init__(self, k, rate):
        sp, _ = _sp()
        self.k, self.l = k, rate
        self._Q = sp.gammaincc

    def S(self, t):
        return float(self._Q(self.k, self.l * t))

    def T(self, t):
        s, k = self.l * t, self.k
        return (k * float(self._Q(k + 1, s)) - s * float(self._Q(k, s))) / self.l

    def D(self, t):
        s, k, l = self.l * t, self.k, self.l
        q0, q1, q2 = (float(self._Q(k + i, s)) for i in range(3))
        return 0.5 * (k * (k + 1) / l**2 * q2 - 2.0 * t * k / l * q1 + t * t * q0)


class Hypoexponential(_Numeric):
    """Exp(a) + Exp(b), a != b."""

    def __init__(self, a, b):
        self.a, self.b = a, b

    def S(self, t):
        a, b = self.a, self.b
        return (b * math.exp(-a * t) - a * math.exp(-b * t)) / (b - a)

    def T(self, t):
        a, b = self.a, self.b
        return (b / a * math.exp(-a * t) - a / b * math.exp(-b * t)) / (b - a)


class Mixture(_Numeric):
    def __init__(self, weights, comps):
        self.ws, self.cs = list(weights), list(comps)

    def S(self, t):
        return sum(w * c.S(t) for w, c in zip(self.ws, self.cs))

    def T(self, t):
        return sum(w * c.T(t) for w, c in zip(self.ws, self.cs))


def _os_coefficients(k, n):
    """c_m with S_{k:n} = sum_m c_m S^m for iid components with survival S."""
    coef = {}
    for j in range(n - k + 1, n + 1):
        for i in range(n - j + 1):
            m = j + i
            coef[m] = coef.get(m, 0) + math.comb(n, j) * math.comb(n - j, i) * (-1) ** i
    return {m: c for m, c in coef.items() if c}


class OrderStatistic(_Numeric):
    """k-th smallest of n iid copies; ``power(m)`` gives the family of S^m."""

    def __init__(self, power, k, n):
        self.parts = [(c, power(m)) for m, c in sorted(_os_coefficients(k, n).items())]

    def S(self, t):
        return sum(c * p.S(t) for c, p in self.parts)

    def T(self, t):
        return sum(c * p.T(t) for c, p in self.parts)


def numeric_family(spec: dict):
    fam = spec["family"]
    if fam == "weibull":
        return Weibull(spec["shape"], spec["scale"])
    if fam == "scaled" and spec["base"]["family"] == "weibull":
        return Weibull(spec["base"]["shape"], spec["base"]["scale"] * spec["factor"])
    if fam == "erlang":
        return Erlang(spec["k"], spec["rate"])
    if fam == "mixture":
        return Mixture(spec["weights"], [closed_family(c) for c in spec["components"]])
    if fam == "convolution":
        a, b = (c["rate"] for c in spec["components"])
        return Hypoexponential(a, b)
    if fam == "order_statistic":
        base = spec["base"]
        if base["family"] == "weibull":
            al, be = base["shape"], base["scale"]
            power = lambda m: Weibull(al, be * m ** (-1.0 / al))
        elif base["family"] == "mrl_linear":
            power = lambda m: _LinearPower(base["a"], base["b"], m)
        else:
            raise ValueError(f"no numeric oracle for os of {base['family']}")
        return OrderStatistic(power, spec["k"], spec["n"])
    raise ValueError(f"no numeric oracle for {fam}")


class _LinearPower:
    """S(t)^m for the linear-MRL law S = (a/(a+bt))^c."""

    def __init__(self, a, b, m):
        self.a, self.b, self.e = a, b, m * (1.0 + 1.0 / b)

    def S(self, t):
        return (self.a / (self.a + self.b * t)) ** self.e

    def T(self, t):
        a, b = self.a, self.b
        return (a + b * t) / (b * (self.e - 1.0)) * self.S(t)


# ---------------------------------------------------------------------------
# kinked composites (closed survival, quad tails split at the kinks)
# ---------------------------------------------------------------------------


class _Kinked:
    def T(self, t):
        _, integ = _sp()
        pts = [p for p in self.kinks if t < p < self.s1]
        edges = [t] + pts + ([self.s1] if math.isfinite(self.s1) else [])
        total = 0.0
        for lo, hi in zip(edges, edges[1:]):
            total += integ.quad(self.S, lo, hi, epsabs=1e-15, epsrel=1e-13, limit=200)[0]
        if not math.isfinite(self.s1):
            total += integ.quad(self.S, edges[-1], math.inf, epsabs=1e-15, epsrel=1e-13, limit=200)[0]
        return total

    def mu(self, t):
        return self.T(t) / self.S(t)


class UniformSum(_Kinked):
    """U(0, w1) + U(0, w2): trapezoidal law."""

    def __init__(self, w1, w2):
        self.a, self.b = min(w1, w2), max(w1, w2)
        self.s1 = w1 + w2
        self.kinks = [self.a, self.b]

    def S(self, t):
        a, b = self.a, self.b
        if t <= 0.0:
            return 1.0
        if t < a:
            return 1.0 - t * t / (2.0 * a * b)
        if t < b:
            return 1.0 - (2.0 * t - a) / (2.0 * b)
        if t < a + b:
            return (a + b - t) ** 2 / (2.0 * a * b)
        return 0.0


class ExpUniformSum(_Kinked):
    """Exp(rate) + U(0, w), in either summand order."""

    def __init__(self, rate, w):
        self.l, self.w = rate, w
        self.s1 = math.inf
        self.kinks = [w]

    def S(self, t):
        l, w = self.l, self.w
        if t <= 0.0:
            return 1.0
        if t < w:
            return ((1.0 - math.exp(-l * t)) / l + w - t) / w
        return math.exp(-l * t) * math.expm1(l * w) / (l * w)


class UniformOrderStatistic(_Kinked):
    def __init__(self, lo, hi, k, n):
        self.base = Uniform(lo, hi)
        self.coef = _os_coefficients(k, n)
        self.s1 = hi
        self.kinks = [lo]

    def S(self, t):
        sb = self.base.S(t)
        return sum(c * sb**m for m, c in self.coef.items())


def kinked_family(spec: dict):
    fam = spec["family"]
    if fam == "convolution":
        x, y = spec["components"]
        if x["family"] == y["family"] == "uniform":
            return UniformSum(x["hi"] - x["lo"], y["hi"] - y["lo"])
        e, u = (x, y) if x["family"] == "exponential" else (y, x)
        return ExpUniformSum(e["rate"], u["hi"] - u["lo"])
    if fam == "order_statistic":
        b = spec["base"]
        return UniformOrderStatistic(b["lo"], b["hi"], spec["k"], spec["n"])
    raise ValueError(f"no kinked oracle for {fam}")


# ---------------------------------------------------------------------------
# far-tail reference (mpmath, 30 digits)
# ---------------------------------------------------------------------------


def far_tail_mrl(spec: dict, t: float) -> float:
    import mpmath

    mpmath.mp.dps = 30
    if spec["family"] == "exponential":
        return 1.0 / spec["rate"]
    al, be = mpmath.mpf(spec["shape"]), mpmath.mpf(spec["scale"])
    z = (mpmath.mpf(t) / be) ** al
    # mu = (be/al) Gamma(1/al, z) e^z
    return float(be / al * mpmath.gammainc(1 / al, z) * mpmath.exp(z))
