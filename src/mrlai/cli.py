"""Command-line surface.

Subcommands: ``eval`` tabulates survival/MRL/intensity curves, ``classify``
prints ageing-class verdicts, ``compare`` runs stochastic-order checks on a
pair of spec files, ``reproduce`` replays the worked-example corpus, and
``plotdata`` emits plot-ready CSV.

Grids are written ``min:max:step`` or ``min:max/n[:log]`` (log spacing) and
read as any grid is (``ageing._grid_points``); ``classify`` needs as many
points as an ageing-class verdict does (``classify.MIN_VERDICT_POINTS``).
All numbers print with 12 significant digits.  Every output format renders
each cell as the same string (``_fmt``), so values round-trip bit-equal
between table, CSV and JSON.  A table is handed over as columns: CSV prints
a float column through ``%.12g`` directly and every row through one ``%``
format, and quotes a cell holding a comma, a double quote or a line break as
``csv.writer`` does (a float never needs it).

Exit codes: 0 success (a failing order verdict is still a successful run),
1 the corpus replay found mismatches, 2 usage or spec error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import re
import sys
from itertools import repeat

from . import corpus as corpus_mod
from . import orders as orders_mod
from .ageing import Convention, _Profiles, _grid_points, _hazard_ai_on_grid, profile
from .classify import (
    Grid,
    classify_hazard_ai,
    classify_mrl,
    classify_mrla,
    classify_mrlai,
)
from .distributions import load_spec, load_spec_file, build
from .errors import BeyondSupport, ToolkitError
from .quadrature import DEFAULT_CONFIG


_FLOAT = "%.12g"
_NEEDS_QUOTES = re.compile('[,"\r\n]').search


def _fmt(x) -> str:
    """The one cell formatter: 12 significant digits for a float, str otherwise."""
    return _FLOAT % x if isinstance(x, float) else str(x)


def _csv_cell(x) -> str:
    """``_fmt(x)``, quoted where ``csv.writer`` would quote it."""
    s = _fmt(x)
    return '"%s"' % s.replace('"', '""') if _NEEDS_QUOTES(s) else s


def _csv_column(col):
    """The ``%`` slot and arguments that print ``col`` as CSV cells.

    A column of floats prints through ``_FLOAT`` as it is; any other has
    each cell formatted by ``_csv_cell``.
    """
    if {*map(type, col)} <= {float}:
        return _FLOAT, col
    return "%s", list(map(_csv_cell, col))


def _parse_grid(text: str) -> Grid:
    """Parse ``min:max:step`` or ``min:max/n[:log]`` into a ``Grid``.

    Only the spelling is checked here; ``Grid`` raises GridError for
    values it cannot use.
    """
    spacing = "linear"
    body = text
    if text.endswith(":log"):
        spacing, body = "log", text[: -len(":log")]
    try:
        if "/" in body:
            rng, n = body.rsplit("/", 1)
            lo, hi = (float(v) for v in rng.split(":"))
            n = int(n)
        else:
            lo, hi, step = (float(v) for v in body.split(":"))
            if step <= 0:
                raise ValueError("step must be positive")
            n = int(round((hi - lo) / step)) + 1
            hi = lo + step * (n - 1)
    except (ValueError, OverflowError) as exc:
        raise SystemExit(f"error: bad grid {text!r}: {exc}")
    return Grid(lo, hi, n, spacing)


def _load_one_spec(path_or_json: str):
    text = path_or_json.strip()
    if text.startswith("{"):
        return load_spec(text)
    return load_spec_file(path_or_json)


def _columns(rows, width):
    """The columns of ``rows``: ``width`` empty ones where there are no rows."""
    return list(zip(*rows)) or [()] * width


def _emit_columns(header, columns, fmt, out):
    """Write the table whose columns are ``columns`` as ``fmt``.

    CSV rows print through one ``%`` format; every cell is ``_fmt``'s
    string, quoted in CSV as ``csv.writer`` would quote it.
    """
    if fmt == "csv":
        slots, args = zip(*map(_csv_column, columns))
        out.write(",".join(map(_csv_cell, header)) + "\n")
        out.writelines(map((",".join(slots) + "\n").__mod__, zip(*args)))
        return
    cells = [list(map(_fmt, col)) for col in columns]
    if fmt == "json":
        rows = [dict(zip(header, row)) for row in zip(*cells)]
        out.write(json.dumps(rows, indent=2) + "\n")
        return
    widths = [max([len(h), *map(len, col)]) for h, col in zip(header, cells)]
    out.write("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip() + "\n")
    out.writelines(
        "  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() + "\n" for row in zip(*cells)
    )


@contextlib.contextmanager
def _output(args):
    if not args.output:
        yield sys.stdout
        return
    with open(args.output, "w", encoding="utf-8") as fh:
        yield fh


def cmd_eval(args) -> int:
    dist = build(_load_one_spec(args.spec))
    conv = Convention(args.conv)
    prof = profile(dist, _grid_points(_parse_grid(args.grid)), conv)
    sv = dist._column("survival", prof.grid)
    header = ["t", "survival", "mu", "mu_avg", "L"]
    columns = [prof.grid, sv, prof.mu, prof.mu_avg, prof.L]
    if dist.has_density:
        # the survival column serves the hazard AI too
        header.append("hazard_ai")
        columns.append(_hazard_ai_on_grid(dist, prof.grid, sv)[0])
    with _output(args) as out:
        _emit_columns(header, columns, args.format, out)
    return 0


def cmd_classify(args) -> int:
    dist = build(_load_one_spec(args.spec))
    conv = Convention(args.conv)
    grid = _parse_grid(args.grid)
    # one profile per convention: ZERO for the MRL, conv for the other two
    src = _Profiles(dist)
    rows = [
        ["mrl", str(classify_mrl(src, grid))],
        ["mrl_average", str(classify_mrla(src, grid, conv))],
        ["mrlai", str(classify_mrlai(src, grid, conv))],
    ]
    if dist.has_density:
        try:
            verdict = str(classify_hazard_ai(dist, grid))
        except BeyondSupport as exc:
            verdict = f"undefined ({exc})"
        rows.append(["hazard_ai", verdict])
    with _output(args) as out:
        _emit_columns(["quantity", "verdict"], _columns(rows, 2), args.format, out)
    return 0


def cmd_compare(args) -> int:
    X = build(_load_one_spec(args.spec_x))
    Y = build(_load_one_spec(args.spec_y))
    conv = Convention(args.conv)
    grid = _parse_grid(args.grid)
    wanted = [o.strip() for o in args.orders.split(",") if o.strip()]
    bad = [o for o in wanted if o not in orders_mod.BY_NAME]
    if bad:
        raise SystemExit(
            f"error: unknown order(s) {bad}; choose from {tuple(orders_mod.BY_NAME)}"
        )
    # each profile the checks read is built once per side
    X, Y = _Profiles(X), _Profiles(Y)
    rows = []
    for name in wanted:
        v = orders_mod.BY_NAME[name](X, Y, grid, conv, DEFAULT_CONFIG)
        witness = ""
        if v.witness is not None:
            witness = f"t={_fmt(v.witness.t)}: {_fmt(v.witness.lhs)} vs {_fmt(v.witness.rhs)}"
        rows.append([name, v.relation.value, v.decided_by, witness])
    shortcut = orders_mod.sufficient_conditions(X, Y, grid, conv)
    if shortcut is not None:
        rows.append(["shortcut", shortcut.relation.value, shortcut.decided_by, shortcut.note])
    with _output(args) as out:
        header = ["order", "relation", "decided_by", "witness"]
        _emit_columns(header, _columns(rows, len(header)), args.format, out)
    return 0


def cmd_reproduce(args) -> int:
    if not 0.0 <= args.tol_scale < float("inf"):  # inf passes every check, NaN fails every one
        raise SystemExit(f"error: --tol-scale must be a finite number >= 0, got {args.tol_scale!r}")
    if args.dump_corpus:
        with open(args.dump_corpus, "w", encoding="utf-8") as fh:
            json.dump(corpus_mod.corpus_to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    ids = corpus_mod.list_cases(args.filter)
    if not ids:
        print(f"warning: no corpus cases match {args.filter!r}", file=sys.stderr)
        return 0
    reports = [corpus_mod.run_case(i, tol_scale=args.tol_scale) for i in ids]
    with _output(args) as out:
        if args.format == "json":
            out.write(json.dumps(corpus_mod.report_to_dict(reports), indent=2) + "\n")
        else:
            header = ["case", "check", "computed", "expected", "status"]
            rows = []
            for rep in reports:
                for r in rep.results:
                    rows.append(
                        [rep.case_id, r.label, _fmt(r.computed), _fmt(r.expected), r.status]
                    )
            _emit_columns(header, _columns(rows, len(header)), args.format, out)
            mismatches = sum(r.mismatches for r in reports)
            disputed = sum(r.disputed for r in reports)
            out.write(
                f"# {len(reports)} cases, {sum(len(r.results) for r in reports)} checks, "
                f"{mismatches} mismatches, {disputed} disputed-as-expected\n"
            )
    return 1 if any(r.mismatches for r in reports) else 0


def cmd_plotdata(args) -> int:
    conv = Convention(args.conv)
    ts = _grid_points(_parse_grid(args.grid))
    series, values = [], []
    for spec_text in args.spec:
        dist = build(_load_one_spec(spec_text))
        if args.quantity == "survival":
            vals = dist._column("survival", ts)
        elif args.quantity == "hazard_ai":
            vals = _hazard_ai_on_grid(dist, ts)[0]  # nan holes, as in eval
        else:
            prof = profile(dist, ts, conv)
            vals = {"mu": prof.mu, "mu_avg": prof.mu_avg, "L": prof.L}[args.quantity]
        series += repeat(dist.lineage, len(ts))
        values += vals
    header, columns = ["t", args.quantity], [ts * len(args.spec), values]
    if len(args.spec) > 1:
        header, columns = ["series", *header], [series, *columns]
    with _output(args) as out:
        _emit_columns(header, columns, "csv", out)
    return 0


def _add_common(p, with_conv=True):
    if with_conv:
        p.add_argument(
            "--conv",
            choices=sorted(c.value for c in Convention),
            default="zero",
            help="integration convention for the running MRL average",
        )
    p.add_argument("--grid", default="0.1:10/64", help="grid: min:max:step or min:max/n[:log]")
    p.add_argument("--format", choices=("table", "csv", "json"), default="table")
    p.add_argument("--output", "-o", default=None, help="write to file instead of stdout")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mrlai",
        description="Mean-residual-life ageing intensity toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="tabulate survival, MRL, running average and intensity")
    p.add_argument("spec", help="spec file path or inline JSON")
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("classify", help="ageing-class verdicts on a grid")
    p.add_argument("spec", help="spec file path or inline JSON")
    _add_common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("compare", help="stochastic-order checks for a pair")
    p.add_argument("spec_x", help="left spec (file or inline JSON)")
    p.add_argument("spec_y", help="right spec (file or inline JSON)")
    p.add_argument(
        "--orders",
        default="mrlai,ratio",
        help=f"comma-separated subset of {','.join(orders_mod.BY_NAME)}",
    )
    _add_common(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("reproduce", help="replay the worked-example corpus")
    p.add_argument("--filter", default=None, help="fnmatch pattern on case ids, e.g. 'ex3.*'")
    p.add_argument("--tol-scale", type=float, default=1.0, help="multiply every check tolerance")
    p.add_argument(
        "--dump-corpus",
        default=None,
        metavar="FILE",
        help="also write the corpus itself (specs and expected values) as versioned JSON",
    )
    p.add_argument("--format", choices=("table", "csv", "json"), default="table")
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("plotdata", help="CSV of t versus a quantity for external plotting")
    p.add_argument("spec", nargs="+", help="one or more specs (file or inline JSON)")
    p.add_argument(
        "--quantity",
        choices=("survival", "mu", "mu_avg", "L", "hazard_ai"),
        default="L",
    )
    _add_common(p)
    p.set_defaults(func=cmd_plotdata)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on the first call, not at import, and reused by every later one
    return make_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already
        return int(exc.code or 0)
    try:
        return args.func(args)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return 2
        return int(exc.code or 0)
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
