"""Per-layer tracing of ``mrlai``, installed from outside the package.

The tracer replaces the public functions of each layer in every module
namespace that bound them by name (``ageing`` and ``ops`` hold their own
``integrate_finite``; ``classify``, ``orders`` and ``cli`` their own
``profile``; the package ``__init__`` re-exports most of them), and wraps
``Dist.survival`` / ``density`` / ``tail`` at class level.  ``uninstall``
puts every original back.

Layer-boundary calls down to the quadrature routines are kept as spans
(name, start, end, parent) and written out at the end of a traced run.
The hot leaves (survival, density, integrand evaluations) keep counts
only, so memory stays bounded.  Self time is computed on the fly from a
frame stack: a frame's duration minus the time its framed children took.
"""

from __future__ import annotations

import inspect
import json
import sys
from time import perf_counter

MAX_SPANS = 100_000

# (module, function, metric name, kept as a span, total time reported)
FRAMED = (
    ("quadrature", "integrate_tail", "quadrature.integrate_tail", True, False),
    ("quadrature", "cumulative_on_grid", "quadrature.cumulative_on_grid", True, False),
    ("distributions", "build", "distributions.build", True, False),
    ("ageing", "mrl", "ageing.mrl", True, True),
    ("ageing", "mrl_average", "ageing.mrl_average", True, True),
    ("ageing", "mrlai", "ageing.mrlai", True, True),
    ("classify", "scan_monotonicity", "classify.scan_monotonicity", True, False),
    ("classify", "classify_mrl", "classify.verdicts", True, False),
    ("classify", "classify_mrla", "classify.verdicts", True, False),
    ("classify", "classify_mrlai", "classify.verdicts", True, False),
    ("classify", "classify_hazard_ai", "classify.verdicts", True, False),
    ("orders", "mrlai_order", "orders.mrlai_order", True, True),
    ("orders", "ratio_test", "orders.ratio_test", True, True),
    ("orders", "icx_order", "orders.icx_order", True, True),
    ("orders", "vrl_order", "orders.vrl_order", True, True),
    ("orders", "mrl_order", "orders.mrl_order", True, True),
    ("orders", "lr_order", "orders.lr_order", True, True),
    ("orders", "sufficient_conditions", "orders.sufficient_conditions", True, True),
    ("cli", "main", "cli.main", True, True),
)

TIMED = (
    "quadrature.integrate_finite",
    "quadrature.integrate_tail",
    "quadrature.cumulative_on_grid",
    "distributions.build",
    "distributions.tail",
    "ops.composite_survival",
    "ops.composite_density",
    "ageing.profile",
    "ageing.mrl",
    "ageing.mrl_average",
    "ageing.mrlai",
    "classify.scan_monotonicity",
    "classify.verdicts",
    "orders.mrlai_order",
    "orders.ratio_test",
    "orders.icx_order",
    "orders.vrl_order",
    "orders.mrl_order",
    "orders.lr_order",
    "orders.sufficient_conditions",
    "corpus.run_case",
    "cli.main",
)
WITH_TOTAL = {
    "ageing.profile",
    "ageing.mrl",
    "ageing.mrl_average",
    "ageing.mrlai",
    "orders.mrlai_order",
    "orders.ratio_test",
    "orders.icx_order",
    "orders.vrl_order",
    "orders.mrl_order",
    "orders.lr_order",
    "orders.sufficient_conditions",
    "corpus.run_case",
    "cli.main",
}
COUNTS = (
    ("quadrature.integrate_finite.raised", "count"),
    ("quadrature.evals", "count"),
    ("quadrature.evals_per_call", "evals/call"),
    ("quadrature.max_nesting", "depth"),
    ("quadrature.nested_share", "ratio"),
    ("distributions.survival.calls", "count"),
    ("distributions.density.calls", "count"),
    ("distributions.tail.numeric_share", "ratio"),
    ("ageing.points", "count"),
    ("ageing.evals_per_point", "evals/point"),
    ("ageing.profile.repeat_share", "ratio"),
    ("corpus.mismatches", "count"),
)
EXTRA = (
    ("ageing.mrl.far_tail_raised", "count"),
    ("tracing.overhead_ms", "ms"),
    ("tracing.overhead_share", "ratio"),
)


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for name in TIMED:
        out.append((f"{name}.calls", "count"))
        out.append((f"{name}.self_ms", "ms"))
        if name in WITH_TOTAL:
            out.append((f"{name}.total_ms", "ms"))
    out.extend(COUNTS)
    out.extend(EXTRA)
    return out


class _Stat:
    __slots__ = ("calls", "self_s", "total_s", "active")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.active = 0


class Tracer:
    def __init__(self, pkg):
        self.pkg = pkg
        self.stats = {name: _Stat() for name in TIMED}
        self.frames = []  # [start, child_seconds]
        self.spans = []  # (name, start, end, parent)
        self.span_stack = []
        self.dropped_spans = 0
        self.evals = 0
        self.nested_evals = 0
        self.qdepth = 0
        self.max_nesting = 0
        self.finite_raised = 0
        self.survival_calls = 0
        self.density_calls = 0
        self.numeric_tails = 0
        self.points = 0
        self.profiles = 0
        self.repeat_profiles = 0
        self.mismatches = 0
        self._seen_profiles = set()
        self._restore = []

    # -- frames ------------------------------------------------------------

    def _call(self, stat, name, span, fn, args, kwargs):
        stat.calls += 1
        stat.active += 1
        frame = [perf_counter(), 0.0]
        self.frames.append(frame)
        idx = -1
        if span:
            if len(self.spans) < MAX_SPANS:
                parent = self.span_stack[-1] if self.span_stack else -1
                idx = len(self.spans)
                self.spans.append([name, frame[0], None, parent])
            else:
                self.dropped_spans += 1
            if idx >= 0:
                self.span_stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self.frames.pop()
            dur = end - frame[0]
            stat.self_s += dur - frame[1]
            stat.active -= 1
            if stat.active == 0:
                stat.total_s += dur
            if self.frames:
                self.frames[-1][1] += dur
            if idx >= 0:
                self.spans[idx][2] = end
                self.span_stack.pop()

    def _framed(self, name, fn, span):
        stat = self.stats[name]
        call = self._call

        def wrapper(*args, **kwargs):
            return call(stat, name, span, fn, args, kwargs)

        return wrapper

    # -- special wrappers ------------------------------------------------------

    def _integrate_finite(self, fn):
        stat = self.stats["quadrature.integrate_finite"]
        tracer = self

        def wrapper(f, *args, **kwargs):
            depth = tracer.qdepth + 1
            tracer.qdepth = depth
            if depth > tracer.max_nesting:
                tracer.max_nesting = depth
            if depth > 1:

                def g(x):
                    tracer.evals += 1
                    tracer.nested_evals += 1
                    return f(x)

            else:

                def g(x):
                    tracer.evals += 1
                    return f(x)

            try:
                return tracer._call(stat, "quadrature.integrate_finite", True, fn, (g, *args), kwargs)
            except BaseException:
                tracer.finite_raised += 1
                raise
            finally:
                tracer.qdepth = depth - 1

        return wrapper

    def _profile(self, fn):
        stat = self.stats["ageing.profile"]
        sig = inspect.signature(fn)
        tracer = self

        def wrapper(d, grid, *args, **kwargs):
            ts = tuple(grid)
            bound = sig.bind(d, ts, *args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            key = (d.spec, ts, a["conv"], a["cfg"], a["method"], a["with_hazard_ai"])
            tracer.profiles += 1
            if key in tracer._seen_profiles:
                tracer.repeat_profiles += 1
            tracer._seen_profiles.add(key)
            tracer.points += len(ts)
            return tracer._call(stat, "ageing.profile", True, fn, (d, ts, *args), kwargs)

        return wrapper

    def _mrlai(self, wrapped):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.points += 1
            return wrapped(*args, **kwargs)

        return wrapper

    def _run_case(self, fn):
        stat = self.stats["corpus.run_case"]
        tracer = self

        def wrapper(*args, **kwargs):
            report = tracer._call(stat, "corpus.run_case", True, fn, args, kwargs)
            tracer.mismatches += report.mismatches
            return report

        return wrapper

    def _dist_methods(self, Dist, composite):
        surv, dens, tail = Dist.survival, Dist.density, Dist.tail
        st_cs = self.stats["ops.composite_survival"]
        st_cd = self.stats["ops.composite_density"]
        st_tail = self.stats["distributions.tail"]
        tracer = self

        def survival(d, t):
            tracer.survival_calls += 1
            if type(d.spec) in composite:
                return tracer._call(st_cs, "ops.composite_survival", False, surv, (d, t), {})
            return surv(d, t)

        def density(d, t):
            tracer.density_calls += 1
            if type(d.spec) in composite:
                return tracer._call(st_cd, "ops.composite_density", False, dens, (d, t), {})
            return dens(d, t)

        def traced_tail(d, *args, **kwargs):
            before = tracer.stats["quadrature.integrate_finite"].calls
            try:
                return tracer._call(st_tail, "distributions.tail", False, tail, (d, *args), kwargs)
            finally:
                if tracer.stats["quadrature.integrate_finite"].calls != before:
                    tracer.numeric_tails += 1

        return {"survival": survival, "density": density, "tail": traced_tail}

    # -- install / uninstall ---------------------------------------------------

    def install(self):
        pkg = self.pkg
        replace = {}
        q = pkg.quadrature
        replace[q.integrate_finite] = self._integrate_finite(q.integrate_finite)
        for mod, fn_name, metric, span, _ in FRAMED:
            fn = getattr(getattr(pkg, mod), fn_name)
            replace[fn] = self._framed(metric, fn, span)
        replace[pkg.ageing.profile] = self._profile(pkg.ageing.profile)
        replace[pkg.ageing.mrlai] = self._mrlai(replace[pkg.ageing.mrlai])
        replace[pkg.corpus.run_case] = self._run_case(pkg.corpus.run_case)

        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == pkg.__name__ or name.startswith(pkg.__name__ + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                try:
                    wrapper = replace.get(value)
                except TypeError:  # unhashable module attribute
                    continue
                if wrapper is not None:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

        d = pkg.distributions
        composite = {d.Mixture, d.Convolution, d.OrderStatistic, d.Scaled}
        for attr, wrapper in self._dist_methods(d.Dist, composite).items():
            self._restore.append((d.Dist, attr, d.Dist.__dict__[attr]))
            setattr(d.Dist, attr, wrapper)

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def begin_op(self):
        """Profiles repeated within one op are counted per op."""
        self._seen_profiles.clear()

    # -- report ----------------------------------------------------------------

    def metrics(self):
        out = {}
        for name, st in self.stats.items():
            out[f"{name}.calls"] = st.calls
            out[f"{name}.self_ms"] = st.self_s * 1e3
            if name in WITH_TOTAL:
                out[f"{name}.total_ms"] = st.total_s * 1e3
        finite_calls = self.stats["quadrature.integrate_finite"].calls
        tail_calls = self.stats["distributions.tail"].calls
        out.update(
            {
                "quadrature.integrate_finite.raised": self.finite_raised,
                "quadrature.evals": self.evals,
                "quadrature.evals_per_call": self.evals / finite_calls if finite_calls else 0.0,
                "quadrature.max_nesting": self.max_nesting,
                "quadrature.nested_share": self.nested_evals / self.evals if self.evals else 0.0,
                "distributions.survival.calls": self.survival_calls,
                "distributions.density.calls": self.density_calls,
                "distributions.tail.numeric_share": (
                    self.numeric_tails / tail_calls if tail_calls else 0.0
                ),
                "ageing.points": self.points,
                "ageing.evals_per_point": self.evals / self.points if self.points else 0.0,
                "ageing.profile.repeat_share": (
                    self.repeat_profiles / self.profiles if self.profiles else 0.0
                ),
                "corpus.mismatches": self.mismatches,
            }
        )
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"dropped": self.dropped_spans, "fields": ["name", "start", "end", "parent"],
                 "spans": self.spans},
                fh,
            )
