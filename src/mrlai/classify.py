"""Grid-based monotonicity analysis and ageing-class verdicts.

A verdict is grid-relative: NonMonotone comes with an explicit witness
triple and is therefore a certificate, while Increasing/Decreasing/
Constant are evidence on the scanned grid, not proofs.  A grid, a
``Grid`` or a sequence of numbers, is read once into strictly increasing
points (``ageing._grid_points``); any other raises GridError.  A verdict
needs at least ``MIN_VERDICT_POINTS`` of them; a ``Grid`` itself may
have as few as two.

``classify_mrl``, ``classify_mrla`` and ``classify_mrlai`` read an
``ageing.MrlProfile`` on those points: ZERO for ``classify_mrl``,
``conv`` for the other two.  Each takes a ``Dist``, whose profile it
builds, or the ``ageing._Profiles`` of one, through which the CLI and the
corpus share each profile among the verdicts that read it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from operator import sub

from .ageing import Convention, Grid, _grid_points, _hazard_ai_on_grid, _profile_for, _source_dist
from .errors import BeyondSupport, GridError
from .quadrature import DEFAULT_CONFIG, QuadConfig

__all__ = [
    "Grid",
    "Kind",
    "MonotonicityVerdict",
    "scan_monotonicity",
    "classify_mrl",
    "classify_mrla",
    "classify_mrlai",
    "classify_hazard_ai",
]

DEFAULT_TOL = 1e-7
MIN_VERDICT_POINTS = 16


class Kind(enum.Enum):
    INCREASING = "increasing"
    DECREASING = "decreasing"
    CONSTANT = "constant"
    NON_MONOTONE = "non_monotone"


@dataclass(frozen=True)
class MonotonicityVerdict:
    """Outcome of a scan.  For NON_MONOTONE, ``witness`` is a triple of
    (t, value) pairs forming a peak or a valley; ``margin`` is the smaller
    of its two jumps.  For CONSTANT, ``level`` is the common value.  The
    string form holds no comma, so a CSV cell of it needs no quoting."""

    kind: Kind
    level: float | None = None
    witness: tuple | None = None
    margin: float = 0.0

    def __str__(self):
        if self.kind is Kind.CONSTANT:
            return f"constant({self.level:.9g})"
        if self.kind is Kind.NON_MONOTONE and self.witness:
            pts = "; ".join(f"t={t:.6g}: {v:.9g}" for t, v in self.witness)
            return f"non_monotone[{pts}]"
        return self.kind.value


def scan_monotonicity(ts, values, tol: float = DEFAULT_TOL) -> MonotonicityVerdict:
    """Classify a sampled function as constant, monotone, or non-monotone.

    The comparison threshold is tol times the median absolute sample,
    because L is dimensionless near 1 while mu carries time units.
    Witness search returns the largest-margin violating triple, which
    keeps regression tests deterministic.
    """
    ts = list(ts)
    vals = list(map(float, values))
    if len(vals) != len(ts):
        raise ValueError("ts and values must have equal length")
    if len(vals) < 2:
        raise ValueError("need at least two samples")
    if not all(map(math.isfinite, vals)):
        raise ValueError("values must be finite")

    sizes = sorted(map(abs, vals))
    scale = _median(sizes) or sizes[-1] or 1.0
    eps = tol * scale

    diffs = list(map(sub, vals[1:], vals))
    total_variation = sum(map(abs, diffs))
    if total_variation < eps:
        return MonotonicityVerdict(Kind.CONSTANT, level=_median(sorted(vals)))

    inc_ok = min(diffs) >= -eps
    dec_ok = max(diffs) <= eps
    if inc_ok and dec_ok:
        # every step is inside the noise band but the drift is real
        kind = Kind.INCREASING if vals[-1] >= vals[0] else Kind.DECREASING
        return MonotonicityVerdict(kind)
    if inc_ok:
        return MonotonicityVerdict(Kind.INCREASING)
    if dec_ok:
        return MonotonicityVerdict(Kind.DECREASING)

    witness, margin = _best_witness(ts, vals)
    return MonotonicityVerdict(Kind.NON_MONOTONE, witness=witness, margin=margin)


def _median(sorted_vals):
    n = len(sorted_vals)
    mid = n // 2
    if n % 2:
        return sorted_vals[mid]
    return 0.5 * (sorted_vals[mid - 1] + sorted_vals[mid])


def _best_witness(ts, vals):
    """Largest-margin triple i < j < k with a peak or a valley at j.

    The margin of a triple is the smaller of its two jumps; prefix/suffix
    extrema give the global optimum.  On ties the first j wins, a valley
    before a peak at the same j, with the first extreme index before j
    and the last one after it.
    """
    inner = vals[1:-1]
    pre_max, pre_min = _running_extrema(vals[:-2])
    suf_max, suf_min = (e[::-1] for e in _running_extrema(vals[:1:-1]))
    valleys = [b if b < a else a for a, b in zip(map(sub, pre_max, inner), map(sub, suf_max, inner))]
    peaks = [b if b < a else a for a, b in zip(map(sub, inner, pre_min), map(sub, inner, suf_min))]
    valley, peak = max(valleys), max(peaks)
    jv, jp = valleys.index(valley), peaks.index(peak)
    if valley > peak or (valley == peak and jv <= jp):
        j, before, after, margin = jv, pre_max[jv], suf_max[jv], valley
    else:
        j, before, after, margin = jp, pre_min[jp], suf_min[jp], peak
    # the first index holding the prefix extreme lies before j + 1, and the
    # last one holding the suffix extreme after it
    i = vals.index(before)
    k = len(vals) - 1 - vals[::-1].index(after)
    j += 1
    witness = ((ts[i], vals[i]), (ts[j], vals[j]), (ts[k], vals[k]))
    return witness, margin


def _running_extrema(seq):
    """Running maximum and minimum of ``seq``, each the first value to
    reach it.  (One loop: ``accumulate(seq, max)`` is slower, because the
    two-argument builtin call costs more than this loop's body.)"""
    hi = lo = seq[0]
    his, los = [], []
    for v in seq:
        if v > hi:
            hi = v
        elif v < lo:
            lo = v
        his.append(hi)
        los.append(lo)
    return his, los


def _verdict_points(grid) -> tuple:
    ts = _grid_points(grid)
    if len(ts) < MIN_VERDICT_POINTS:
        raise GridError(
            f"ageing-class verdicts need at least {MIN_VERDICT_POINTS} grid points, "
            f"got {len(ts)}"
        )
    return ts


def classify_mrl(
    d,
    grid,
    tol: float = DEFAULT_TOL,
    cfg: QuadConfig = DEFAULT_CONFIG,
    method: str = "auto",
) -> MonotonicityVerdict:
    """Verdict on the mean residual life itself, read from the ZERO profile."""
    prof = _profile_for(d, _verdict_points(grid), Convention.ZERO, cfg, method)
    return scan_monotonicity(prof.grid, prof.mu, tol)


def classify_mrla(
    d,
    grid,
    conv: Convention = Convention.ZERO,
    tol: float = DEFAULT_TOL,
    cfg: QuadConfig = DEFAULT_CONFIG,
    method: str = "auto",
) -> MonotonicityVerdict:
    """Verdict on the running average (1/t) int mu, read from the ``conv`` profile."""
    prof = _profile_for(d, _verdict_points(grid), conv, cfg, method)
    return scan_monotonicity(prof.grid, prof.mu_avg, tol)


def classify_mrlai(
    d,
    grid,
    conv: Convention = Convention.ZERO,
    tol: float = DEFAULT_TOL,
    cfg: QuadConfig = DEFAULT_CONFIG,
    method: str = "auto",
) -> MonotonicityVerdict:
    """Verdict on the ageing intensity L, read from the ``conv`` profile."""
    prof = _profile_for(d, _verdict_points(grid), conv, cfg, method)
    return scan_monotonicity(prof.grid, prof.L, tol)


def classify_hazard_ai(d, grid, tol: float = DEFAULT_TOL) -> MonotonicityVerdict:
    """Verdict on the hazard-based ageing intensity (needs a density).

    ``d`` may also be its ``ageing._Profiles``; only the ``Dist`` is read.
    Raises BeyondSupport, with the reason, where a grid point has no
    hazard AI (``ageing._hazard_ai_on_grid``).
    """
    ts = _verdict_points(grid)
    vals, why = _hazard_ai_on_grid(_source_dist(d), ts)
    if why is not None:
        raise BeyondSupport(why)
    return scan_monotonicity(ts, vals, tol)
