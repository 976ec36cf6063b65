"""Command-line interface: outputs, round trips, exit codes."""

import csv
import hashlib
import io
import json
import math

import pytest

from mrlai.cli import _parse_grid, _parser, main, make_parser

ERLANG = '{"family":"erlang","k":2,"rate":2}'
EXP_HALF = '{"family":"exponential","rate":0.5}'
PARETO21 = '{"family":"pareto","shape":2,"scale":1}'
UNIFORM13 = '{"family":"uniform","lo":1,"hi":3}'
# the grid starts below the support start, where hazard AI is undefined
UNIFORM_LATE = '{"family":"uniform","lo":0.5,"hi":3}'
LATE_GRID = "0.1:2.9/32"


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_table_contains_printed_intensity(self, capsys):
        code, out, _ = run(["eval", ERLANG, "--grid", "0.5:4.5/5"], capsys)
        assert code == 0
        assert "0.885924163724" in out
        assert out.splitlines()[0].split()[:5] == ["t", "survival", "mu", "mu_avg", "L"]

    def test_exponential_unit_column(self, capsys):
        code, out, _ = run(
            ["eval", '{"family":"exponential","rate":1}', "--grid", "1:3/3", "--format", "csv"],
            capsys,
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert all(float(r["L"]) == pytest.approx(1.0, abs=1e-9) for r in rows)

    def test_erlang_terms_at_most_three_times_per_point(self, capsys, monkeypatch):
        # survival, mu and hazard AI each need the term list once
        import mrlai.distributions as dist_mod

        calls = []
        real = dist_mod._erlang_terms
        monkeypatch.setattr(dist_mod, "_erlang_terms", lambda *a: calls.append(a) or real(*a))
        code, _, _ = run(["eval", '{"family":"erlang","k":3,"rate":1.5}', "--grid", "0.1:6/40"],
                         capsys)
        assert code == 0
        assert len(calls) <= 3 * 40

    def test_bad_grid_usage_error(self, capsys):
        code, _, err = run(["eval", ERLANG, "--grid", "nope"], capsys)
        assert code == 2

    def test_unbounded_step_grid_usage_error(self, capsys):
        code, _, err = run(["eval", ERLANG, "--grid", "0:inf:1"], capsys)
        assert code == 2
        assert err.startswith("error: bad grid '0:inf:1': ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", EXP_HALF, "--grid", "0.1:1/4"],
            ["classify", EXP_HALF, "--grid", "0:1/32:log"],
            ["classify", EXP_HALF, "--grid", "0:1/32"],
            ["eval", UNIFORM13, "--conv", "support", "--grid", "0.5:2/4"],
            ["eval", EXP_HALF, "--grid", "0:1/4"],
            ["compare", EXP_HALF, UNIFORM13, "--conv", "support", "--grid", "0.5:2/8"],
            ["plotdata", EXP_HALF, "--grid", "0:1/4"],
            ["plotdata", EXP_HALF, "--quantity", "hazard_ai", "--grid", "0:1/4"],
        ],
        ids=lambda argv: " ".join(a for a in argv if not a.startswith("{")),
    )
    def test_grid_unfit_for_command_is_usage_error(self, capsys, argv):
        code, _, err = run(argv, capsys)
        assert code == 2
        assert err.startswith("error: ")

    @pytest.mark.parametrize(
        "text, points",
        [
            ("0.1:0.5:0.1", [0.1, 0.2, 0.30000000000000004, 0.4, 0.5]),
            ("1:2:0.3", [1.0, 1.3, 1.6, 1.9]),
            ("0.5:2/4", [0.5, 1.0, 1.5, 2.0]),
            (
                "0.1:10/5:log",
                [0.10000000000000002, 0.31622776601683805, 1.0000000000000004,
                 3.1622776601683813, 10.000000000000007],
            ),
        ],
    )
    def test_grid_spellings_expand_to_recorded_points(self, text, points):
        assert _parse_grid(text).points() == points

    def test_survival_plot_may_start_at_zero(self, capsys):
        code, _, _ = run(["plotdata", EXP_HALF, "--quantity", "survival", "--grid", "0:1/4"], capsys)
        assert code == 0

    def test_bad_spec_exit_code(self, capsys):
        code, _, err = run(["eval", '{"family":"pareto","shape":1,"scale":1}'], capsys)
        assert code == 2
        assert "shape" in err

    def test_formats_round_trip_bit_equal(self, capsys, tmp_path):
        _, table, _ = run(["eval", ERLANG, "--grid", "0.5:2/4"], capsys)
        _, csv_out, _ = run(["eval", ERLANG, "--grid", "0.5:2/4", "--format", "csv"], capsys)
        _, json_out, _ = run(["eval", ERLANG, "--grid", "0.5:2/4", "--format", "json"], capsys)
        table_rows = [line.split() for line in table.splitlines()[1:]]
        csv_rows = list(csv.reader(io.StringIO(csv_out)))[1:]
        json_rows = json.loads(json_out)
        for trow, crow, jrow in zip(table_rows, csv_rows, json_rows):
            assert trow == crow == list(jrow.values())

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "curve.csv"
        code, out, _ = run(
            ["eval", ERLANG, "--grid", "0.5:2/4", "--format", "csv", "-o", str(path)], capsys
        )
        assert code == 0 and out == ""
        assert path.read_text().startswith("t,")

    def test_unwritable_output_file(self, capsys, tmp_path):
        path = tmp_path / "nonexistent" / "x.csv"
        code, out, err = run(["eval", ERLANG, "--grid", "0.5:2/4", "-o", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: [Errno 2] ")

    def test_spec_file_gives_the_inline_bytes(self, capsys, tmp_path):
        mix = ('{"family":"mixture","weights":[0.5,0.5],"components":'
               '[{"family":"exponential","rate":1},{"family":"exponential","rate":2}]}')
        path = tmp_path / "mix.json"
        path.write_text(mix)
        argv = ["--grid", "0.1:5/32", "--format", "csv"]
        inline = run(["eval", mix, *argv], capsys)
        assert inline[0] == 0
        assert run(["eval", str(path), *argv], capsys) == inline


class TestClassify:
    def test_erlang_verdicts(self, capsys):
        code, out, _ = run(["classify", ERLANG, "--grid", "0.1:10/64"], capsys)
        assert code == 0
        lines = {l.split()[0]: l for l in out.splitlines()[1:]}
        assert "decreasing" in lines["mrl"]
        assert "non_monotone" in lines["mrlai"]
        assert "hazard_ai" in lines

    def test_hazard_ai_below_the_support_is_undefined(self, capsys):
        code, out, err = run(["classify", UNIFORM_LATE, "--grid", LATE_GRID, "--format", "csv"],
                             capsys)
        assert (code, err) == (0, "")
        rows = dict(line.split(",", 1) for line in out.splitlines()[1:])
        assert rows["mrl"] == rows["mrl_average"] == rows["mrlai"] == "decreasing"
        assert rows["hazard_ai"] == "undefined (uniform: no hazard has accumulated by t=0.1)"

    def test_linear_mrl_all_increasing(self, capsys):
        code, out, _ = run(
            ["classify", '{"family":"mrl_linear","a":1,"b":1}', "--grid", "0.1:20/64"], capsys
        )
        assert code == 0
        body = out.splitlines()[1:]
        assert all("increasing" in l for l in body if l.split()[0] != "hazard_ai")


class TestCompare:
    def test_printed_nonimplication(self, capsys):
        code, out, _ = run(
            [
                "compare",
                EXP_HALF,
                PARETO21,
                "--conv",
                "formal",
                "--orders",
                "mrlai,icx",
                "--grid",
                "0.1:30/80",
            ],
            capsys,
        )
        assert code == 0
        lines = out.splitlines()
        mrlai_line = next(l for l in lines if l.startswith("mrlai"))
        icx_line = next(l for l in lines if l.startswith("icx"))
        assert "holds" in mrlai_line
        assert "fails" in icx_line

    def test_self_compare_all_hold(self, capsys):
        code, out, _ = run(
            ["compare", ERLANG, ERLANG, "--orders", "mrlai,ratio,lr,icx,vrl,mrl",
             "--grid", "0.2:6/32"],
            capsys,
        )
        assert code == 0
        body = [l for l in out.splitlines()[1:] if l and not l.startswith("shortcut")]
        assert all("holds" in l for l in body)

    def test_unknown_order_rejected(self, capsys):
        code, _, err = run(["compare", ERLANG, ERLANG, "--orders", "zeta"], capsys)
        assert code == 2

    def test_shortcut_row_for_sufficient_pair(self, capsys):
        code, out, _ = run(
            ["compare", '{"family":"erlang","k":2,"rate":2}',
             '{"family":"mrl_linear","a":1,"b":1}', "--orders", "mrlai",
             "--grid", "0.05:12/64"],
            capsys,
        )
        assert code == 0
        shortcut = next(l for l in out.splitlines() if l.startswith("shortcut"))
        assert "holds" in shortcut and "thm_4_3" in shortcut

    def test_shortcut_row_on_a_coarse_grid(self, capsys):
        # eight points are too few for the MRL verdicts behind the shortcut;
        # the shortcut check refines the grid to sixteen instead of refusing
        code, out, _ = run(
            ["compare", '{"family":"erlang","k":2,"rate":2}',
             '{"family":"mrl_linear","a":1,"b":1}', "--orders", "mrlai",
             "--grid", "0.05:12/8"],
            capsys,
        )
        assert code == 0
        shortcut = next(l for l in out.splitlines() if l.startswith("shortcut"))
        assert "holds" in shortcut and "thm_4_3" in shortcut


    def test_vrl_past_the_second_support_end_is_an_error(self, capsys):
        code, out, err = run(
            ["compare", '{"family":"uniform","lo":0,"hi":2}', '{"family":"uniform","lo":0,"hi":1}',
             "--orders", "vrl", "--grid", "0.5:1.5/3"],
            capsys,
        )
        assert (code, out) == (2, "")
        assert err == "error: uniform: double tail is 0 at t=1.0, vrl ratio undefined\n"

    def test_divergent_double_tail_names_distribution_and_t(self, capsys):
        code, out, err = run(
            ["compare", '{"family":"pareto","shape":1.5,"scale":1}',
             '{"family":"exponential","rate":1}', "--orders", "vrl",
             "--grid", "0.1:3/16", "--conv", "formal"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: pareto: ") and "t=3.0" in err
        assert "[0.0, 1.0]" not in err  # the substituted variable's interval

    @pytest.mark.parametrize("order, tail", [("icx", "tail"), ("vrl", "double tail")])
    def test_formal_tail_at_zero_is_an_error(self, order, tail, capsys):
        # the continued tail b^a t^(1-a) / (a-1) of Pareto has a pole at 0,
        # as does its double tail; each order names the one it reads
        code, out, err = run(
            ["compare", '{"family":"exponential","rate":1}',
             '{"family":"pareto","shape":2.5,"scale":1}', "--conv", "formal",
             "--orders", order, "--grid", "0:2/3"],
            capsys,
        )
        assert (code, out) == (2, "")
        assert err == f"error: pareto: the {tail} integral diverges at t=0.0\n"


# sha256 of the full text report and of the dumped corpus; every byte of
# both must stay the same (the JSON report is tests/data/reproduce.json)
REPORT_DIGEST = "d2ff21f71fe1976c84b8a5a97d578dec77ba0aa4ea4f5893c9a8a1419d501b1e"
DUMP_DIGEST = "6a620bcd5f79b462d595d38fdadea7f9e36d4a83ae85cbf196e9faa7e3b020f5"


class TestReproduce:
    def test_full_run_exits_zero(self, capsys):
        code, out, _ = run(["reproduce"], capsys)
        assert code == 0
        assert "0 mismatches" in out
        assert "disputed-as-expected" in out
        assert hashlib.sha256(out.encode()).hexdigest() == REPORT_DIGEST

    def test_filter_counts(self, capsys):
        code, out, _ = run(["reproduce", "--filter", "ex3.*"], capsys)
        assert code == 0
        cases = {line.split()[0] for line in out.splitlines()[1:] if line and not line.startswith("#")}
        assert cases == {"ex3.1", "ex3.2", "ex3.3", "ex3.4", "ex3.5"}

    def test_bad_filter_warns_and_exits_zero(self, capsys):
        code, out, err = run(["reproduce", "--filter", "zzz*"], capsys)
        assert code == 0
        assert "no corpus cases" in err

    @pytest.mark.parametrize("scale", ["1e-9", "0"])  # 0 asks for an exact match
    def test_tight_tolerance_trips_exit_one(self, capsys, scale):
        code, out, _ = run(["reproduce", "--filter", "ex2.4", "--tol-scale", scale], capsys)
        assert code == 1
        assert "MISMATCH" in out

    @pytest.mark.parametrize("scale", ["inf", "nan", "-1"])
    def test_unusable_tolerance_scale_is_usage_error(self, capsys, scale):
        # inf would pass every numeric check, nan and -1 would fail every one
        code, out, err = run(["reproduce", "--filter", "thm2.7", "--tol-scale", scale], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: --tol-scale must be a finite number >= 0")
        assert "Traceback" not in err

    def test_json_report(self, capsys):
        code, out, _ = run(["reproduce", "--filter", "thm2.7", "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["cases"][0]["id"] == "thm2.7"

    def test_dump_corpus(self, capsys, tmp_path):
        path = tmp_path / "corpus.json"
        code, _, _ = run(["reproduce", "--filter", "thm2.7", "--dump-corpus", str(path)], capsys)
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc["version"] == 1
        assert {c["id"] for c in doc["cases"]} >= {"ex2.2", "ex3.3", "thm2.8"}
        assert hashlib.sha256(path.read_bytes()).hexdigest() == DUMP_DIGEST


class TestPlotdata:
    def test_header_and_values(self, capsys):
        code, out, _ = run(["plotdata", ERLANG, "--quantity", "L", "--grid", "0.5:2/4"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "t,L"
        first = lines[1].split(",")
        assert float(first[1]) == pytest.approx(0.885924163724462, rel=1e-9)

    def test_two_series_long_format(self, capsys):
        code, out, _ = run(
            ["plotdata", ERLANG, EXP_HALF, "--quantity", "mu", "--grid", "1:2/3"], capsys
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "series,t,mu"
        assert len(lines) == 1 + 2 * 3

    def test_hazard_ai_holes_match_eval(self, capsys):
        code, out, _ = run(["plotdata", UNIFORM_LATE, "--quantity", "hazard_ai",
                            "--grid", LATE_GRID], capsys)
        assert code == 0
        plotted = [line.split(",")[1] for line in out.splitlines()[1:]]
        _, table, _ = run(["eval", UNIFORM_LATE, "--grid", LATE_GRID, "--format", "csv"], capsys)
        assert plotted == [line.split(",")[-1] for line in table.splitlines()[1:]]
        assert plotted[:5] == ["nan"] * 5 and "nan" not in plotted[5:]

    def test_survival_quantity(self, capsys):
        code, out, _ = run(
            ["plotdata", EXP_HALF, "--quantity", "survival", "--grid", "1:2/2"], capsys
        )
        assert code == 0
        import math

        val = float(out.splitlines()[1].split(",")[1])
        assert val == pytest.approx(math.exp(-0.5), rel=1e-10)


class TestGridReadOnce:
    """eval and plotdata read their grid into points once, and every column
    takes those points as they are."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", ERLANG, "--grid", "0.5:4.5/64"],
            ["eval", UNIFORM_LATE, "--grid", "0.1:2.9/64", "--format", "csv"],
            ["plotdata", ERLANG, EXP_HALF, "--quantity", "L", "--grid", "0.5:2/64"],
            ["plotdata", ERLANG, "--quantity", "survival", "--grid", "0.5:2/64"],
            ["plotdata", UNIFORM_LATE, "--quantity", "hazard_ai", "--grid", "0.1:2.9/64"],
        ],
        ids=["eval", "eval-late", "plotdata-L", "plotdata-survival", "plotdata-hazard_ai"],
    )
    def test_one_full_grid_read_per_command(self, argv, capsys, monkeypatch):
        from mrlai import ageing

        reads = []

        class Counted(ageing._Points):
            def __new__(cls, ts):
                reads.append(len(ts))
                return super().__new__(cls, ts)

        monkeypatch.setattr(ageing, "_Points", Counted)
        code, _, _ = run(argv, capsys)
        assert code == 0
        assert reads == [64]


MIXTURE_EXP = ('{"family":"mixture","weights":[0.5,0.5],"components":['
               '{"family":"exponential","rate":1},{"family":"exponential","rate":2}]}')
MIXTURE_LATE = ('{"family":"mixture","weights":[0.5,0.5],"components":['
                '{"family":"uniform","lo":0.5,"hi":3},{"family":"uniform","lo":1,"hi":4}]}')


def _csv_rows(text):
    rows = list(csv.reader(io.StringIO(text)))
    assert all(len(r) == len(rows[0]) for r in rows), rows
    return rows


class TestCsvQuoting:
    def test_plotdata_lineage_with_a_comma_is_one_field(self, capsys):
        code, out, _ = run(["plotdata", MIXTURE_EXP, '{"family":"exponential","rate":1}',
                            "--quantity", "mu", "--grid", "0.5:2/4"], capsys)
        assert code == 0
        rows = _csv_rows(out)
        assert rows[0] == ["series", "t", "mu"]
        assert [r[0] for r in rows[1:]] == ["mixture(exponential, exponential)"] * 4 + [
            "exponential"] * 4
        assert out.splitlines()[1].startswith('"mixture(exponential, exponential)",0.5,')
        assert [float(r[2]) for r in rows[5:]] == [1.0] * 4

    def test_classify_undefined_hazard_ai_of_a_composite(self, capsys):
        code, out, err = run(["classify", MIXTURE_LATE, "--grid", LATE_GRID, "--format", "csv"],
                             capsys)
        assert (code, err) == (0, "")
        rows = dict(_csv_rows(out)[1:])
        assert rows["hazard_ai"] == (
            "undefined (mixture(uniform, uniform): no hazard has accumulated by t=0.1)"
        )

    def test_non_monotone_witness_needs_no_quotes(self, capsys):
        code, out, _ = run(["classify", ERLANG, "--grid", "0.1:10/64", "--format", "csv"], capsys)
        assert code == 0 and '"' not in out
        rows = dict(_csv_rows(out)[1:])
        assert rows["mrlai"].startswith("non_monotone[t=0.1: ")
        assert rows["mrlai"].count("; ") == 2

    def test_cells_are_the_cell_formatter_s_strings(self):
        from mrlai.cli import _emit_columns, _fmt

        floats = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e-300, 1e16, 0.1 + 0.2]
        header = ["x", "mixed", "text", 'a "b", c']
        rows = [[x, x, "plain", "c,d"] for x in floats]
        rows += [[0.5, 0, 'say "hi"', "two\nlines"], [2.5, 7, "cr\rhere", ""],
                 [3.5, 10**13, "x,y", "-0.0"]]
        columns = [list(c) for c in zip(*rows)]
        out = io.StringIO()
        _emit_columns(header, columns, "csv", out)
        # csv.writer's default line end "\r\n" makes it quote a lone "\r" too
        want = io.StringIO()
        csv.writer(want).writerows([header] + [[_fmt(c) for c in row] for row in rows])
        assert out.getvalue() == want.getvalue().replace("\r\n", "\n")
        # a later int in a float column prints as str(int), not %.12g
        assert "\n0.5,0," in out.getvalue() and ",10000000000000," in out.getvalue()
        parsed = list(csv.reader(io.StringIO(out.getvalue())))
        assert parsed == [header] + [[_fmt(c) for c in row] for row in rows]
        text = io.StringIO()
        _emit_columns(header, columns, "json", text)
        assert json.loads(text.getvalue()) == [dict(zip(header, map(_fmt, row))) for row in rows]
        assert [_fmt(x) for x in floats] == [
            "nan", "inf", "-inf", "-0", "4.94065645841e-324", "1e-300", "1e+16", "0.3"]


class TestParser:
    def test_built_once_and_reused(self):
        assert _parser() is _parser()

    def test_reuse_leaks_no_arguments(self, capsys, tmp_path):
        out = tmp_path / "first.csv"
        first = ["compare", ERLANG, EXP_HALF, "--orders", "lr", "--conv", "formal",
                 "--format", "csv", "--grid", "0.2:6/32", "-o", str(out)]
        assert main(first) == 0
        second = ["compare", ERLANG, EXP_HALF, "--grid", "0.2:6/32"]
        assert vars(_parser().parse_args(second)) == vars(make_parser().parse_args(second))
        code, text, _ = run(second, capsys)
        assert code == 0
        rows = [line.split()[0] for line in text.splitlines()[1:]]
        assert rows[:2] == ["mrlai", "ratio"] and "lr" not in rows
        assert out.read_text().splitlines()[1].startswith("lr,")


# The eight closed families, each with a grid of 512 points on its support
# and the convention it is read under.  Uniform and Pareto also get an
# ``eval`` grid that starts below the support start.
CLOSED = {
    "exponential": ('{"family":"exponential","rate":1.3}', "0.05:12/512", "zero"),
    "erlang2": ('{"family":"erlang","k":2,"rate":0.8}', "0.05:15/512", "zero"),
    "uniform": ('{"family":"uniform","lo":0.5,"hi":4}', "0.6:3.9/512", "zero"),
    "pareto": ('{"family":"pareto","shape":3.5,"scale":1.2}', "1.25:24/512", "formal"),
    "mrl_linear": ('{"family":"mrl_linear","a":1.5,"b":0.3}', "0.05:30/512", "zero"),
    "mrl_reciprocal_linear": (
        '{"family":"mrl_reciprocal_linear","a":1,"b":0.5}', "0.05:10/512", "zero"),
    "mrl_exponential": ('{"family":"mrl_exponential","a":0.2,"b":-0.1}', "0.05:20/512", "zero"),
    "mrl_piecewise": (
        '{"family":"mrl_piecewise","breakpoints":[1.5,3],"pieces":['
        '{"kind":"linear","a":1,"b":0.2},{"kind":"linear","a":0.7,"b":0.4},'
        '{"kind":"linear","a":1.6,"b":0.1}]}',
        "0.05:14/512",
        "zero",
    ),
}
BELOW_SUPPORT = {"uniform": "0.1:3.9/512", "pareto": "0.05:24/512"}
PARTNER = '{"family":"exponential","rate":1}'
# the corpus's ex3.1 mixture on its non-monotone verdict's grid, and its
# ex3.5 order statistic across its support
COMPOSITES = {
    "ex3.1-mixture": (
        '{"family":"mixture","weights":[0.2,0.8],"components":['
        '{"family":"mrl_linear","a":1,"b":8},{"family":"mrl_linear","a":1,"b":0.1}]}',
        "0.5:40/140",
    ),
    "ex3.5-os": (
        '{"family":"order_statistic","base":{"family":"uniform","lo":0,"hi":1},"k":2,"n":3}',
        "0.01:0.99/100",
    ),
}
# the Exp(1)/Exp(2) mixture, a closed T with a numeric D, against Erlang(2, 1)
PAIRS = {
    "exp-mixture-erlang2": (
        '{"family":"mixture","weights":[0.5,0.5],"components":['
        '{"family":"exponential","rate":1},{"family":"exponential","rate":2}]}',
        '{"family":"erlang","k":2,"rate":1}',
        "icx,vrl",
        "0.1:10/512",
    ),
}
FORMATS = ("table", "csv", "json")
QUANTITIES = ("survival", "mu", "mu_avg", "L", "hazard_ai")


def _digest_argvs():
    """Output id -> argv: every command, in every format it offers, on each
    closed family; ``compare`` runs all six orders against Exp(1), and the
    ``PAIRS`` their own orders."""
    out = {}
    for name, (spec, grid, conv) in CLOSED.items():
        common = ["--grid", grid, "--conv", conv]
        for fmt in FORMATS:
            out[f"eval-{name}-{fmt}"] = ["eval", spec, *common, "--format", fmt]
            out[f"classify-{name}-{fmt}"] = ["classify", spec, *common, "--format", fmt]
            out[f"compare-{name}-{fmt}"] = [
                "compare", spec, PARTNER, "--orders", "mrlai,ratio,lr,icx,vrl,mrl",
                *common, "--format", fmt,
            ]
            if name in BELOW_SUPPORT:
                out[f"eval-{name}-below-{fmt}"] = [
                    "eval", spec, "--grid", BELOW_SUPPORT[name], "--conv", conv, "--format", fmt
                ]
        for q in QUANTITIES:
            out[f"plotdata-{name}-{q}"] = ["plotdata", spec, "--quantity", q, *common]
    for name, (spec, grid) in COMPOSITES.items():
        out[f"eval-{name}-csv"] = ["eval", spec, "--grid", grid, "--format", "csv"]
    for name, (x, y, orders, grid) in PAIRS.items():
        out[f"compare-{name}-csv"] = [
            "compare", x, y, "--orders", orders, "--grid", grid, "--format", "csv"
        ]
    return out


# sha256 of each output, recorded before the closed-form grids were
# evaluated in one pass; every printed byte must stay the same.  The nine
# classify outputs with a non-monotone witness were re-recorded when the
# witness lost its commas ("t=0.05: 1.00497512; ..." for "(0.05,
# 1.00497512), ..."); undoing that maps them back to the old bytes.  The
# two composite outputs were recorded before mixtures and order
# statistics read their parts through the family closures, and the
# mixture pair's before its numeric D put a knot only at the first point,
# the top and the breakpoints.
DIGESTS = {
    "classify-erlang2-csv": "42b1e171d5259e9bdb4c28b372c4431ad5fbb56d198a225699bdae2748edb662",
    "classify-erlang2-json": "45831de00ee97881f0963b57f383d3c35994a5c55783cbd25a13ed2258cb07bc",
    "classify-erlang2-table": "e4485a5f55fe877bbd847d2225011440de4855ed164490e79a381b2aacfebab9",
    "classify-exponential-csv": "ef1310247ac8af1bbf418c18fe3267b6c26499476d9394775bd7a2d459289027",
    "classify-exponential-json": "e3e3d892acb9afcd89fd5da660a96176c28ca94a330860e26a7778cd8f51ae5c",
    "classify-exponential-table": "ad48bbfd56532c57f03ac397c87aa9936ef29941e31b59917d51c33c09c0793c",
    "classify-mrl_exponential-csv": "f2ea115048afe1e2112455a531f4aa58e838e409fcac906f9e6cd61dc1b6e331",
    "classify-mrl_exponential-json": "685c7453fed2608fde6371c99c6fd5870a41e098a77f5d0c81175cd479aadf0b",
    "classify-mrl_exponential-table": "7b74447f4635ba29923ca5a5c69efef78c972534afaeed927af703ffa8663a6f",
    "classify-mrl_linear-csv": "d43df5f8fb688d2bee027f4dfc05bd54087e3918c1a271c105746d87b8ff667f",
    "classify-mrl_linear-json": "9939e6625d40624780e7d62b12799e23b2d77f5d8bcf2eaafbbf52c1a2c2ba61",
    "classify-mrl_linear-table": "e926fb7c064f033caf5479e23ca3b01f425058c9d80800a5edd8be93f5b4a566",
    "classify-mrl_piecewise-csv": "7e4e0128fe34472deae43ec363199c3fb9c995a128ba10e016c041abf2d0265e",
    "classify-mrl_piecewise-json": "00ccb2f1920c3e3e71ae6712432cc5603d434e64846b7ede9651703f7441f332",
    "classify-mrl_piecewise-table": "3910f41e914e39c8f288bd138434257161791d9c7e3d40f5f53305a1963a7f6a",
    "classify-mrl_reciprocal_linear-csv": "f2ea115048afe1e2112455a531f4aa58e838e409fcac906f9e6cd61dc1b6e331",
    "classify-mrl_reciprocal_linear-json": "685c7453fed2608fde6371c99c6fd5870a41e098a77f5d0c81175cd479aadf0b",
    "classify-mrl_reciprocal_linear-table": "7b74447f4635ba29923ca5a5c69efef78c972534afaeed927af703ffa8663a6f",
    "classify-pareto-csv": "b82fca17de0bc9cbc65a2ec2d0d030743cab90fec79319f35609dd5ca086a85a",
    "classify-pareto-json": "20bc73ed3ecb58f3b568c705e7444f10e07d62dadb70a03baff4754626d3d7f0",
    "classify-pareto-table": "848c8d55bdcc76500374ca6d5e61b008c8329fcc5919c4a9f09c49c04a2d8e4a",
    "classify-uniform-csv": "539108ba625eccaa78bc263d1ecbf538625dd5016fd5adb72029f3487db69b5d",
    "classify-uniform-json": "a97390dd4d068cc059657e0ec0a875f4d034ed8de4d397eb5ddc8bf74bbff323",
    "classify-uniform-table": "ff2fb51a65468448fd1330c339ce101ce8cfac86801ed65b2a3ebb1619771d39",
    "compare-erlang2-csv": "e87a904ff589d214bf73ec8d1a53760b8e2c426b58d704f1c5e8927d9ad3909c",
    "compare-erlang2-json": "768e815043f77d7ecf5df5c83d535aed1fa2457044adc8ae0898b2d50021fbb1",
    "compare-erlang2-table": "831ba1865387c3396da68587ef72c2b982e8ecce417c6b030611f8a63dba17ca",
    "compare-exp-mixture-erlang2-csv": "514d2cc4cf9589c7dad22d4785bc8372890449b12ec1ed71b45f55c3fa51274d",
    "compare-exponential-csv": "79490f2511aced849d1e757d988ba50252be1bc8395d165f52ed455e26a70555",
    "compare-exponential-json": "86225ed8cfef44c5b8dbb24d288bdc3236325dfc7e5b38a0d2e31d7cfde77008",
    "compare-exponential-table": "d2b90eb8e86278686093bd79bb429fd289c9a9a06c8a1d4451103ec3bbf5ba0e",
    "compare-mrl_exponential-csv": "a0151516509d257c8fae3d5952df464ef4178037bcd0015aae72001b5da65a83",
    "compare-mrl_exponential-json": "4ffc667efd54d1fca1fc034a29f745e326bec3d4e37585c7973789a63a0f665c",
    "compare-mrl_exponential-table": "af4627e629a4d7224b8ffac62f74a6fc3886456716800a391f58c0a29791d6af",
    "compare-mrl_linear-csv": "21554115ba35117f942355d949c6768f219859711610087925d5c293194e7f00",
    "compare-mrl_linear-json": "393bf9f718c601ae8b63663f8a48820b8a28ba439b9a6e8c2ab61f0744942f1f",
    "compare-mrl_linear-table": "fe2c2ac9f10d0f3e7f41f54e5614c14e95043e37e91a8bdc44444b1e87ddf722",
    "compare-mrl_piecewise-csv": "3be4c592300dd68897fd4b212a052cdd435749bd9262c95884f1bcf3fc509de4",
    "compare-mrl_piecewise-json": "071fac0ccd34cde735946fb507a9ca41c7c01302c27f3e5cc0f1bdfdd0d456a1",
    "compare-mrl_piecewise-table": "0c6099b9f4429820e748b9ecb06cc2cf06e4c13568fbf2b1cf90c3a20937964e",
    "compare-mrl_reciprocal_linear-csv": "e4b69fd0b1703909d3c1ad3acdce307860f5458cc073df94ca58020cf500844a",
    "compare-mrl_reciprocal_linear-json": "0a58783b498803e04f68174e274e174e3f8f4975bf7882109c3ddb3016b040d1",
    "compare-mrl_reciprocal_linear-table": "c1425302fd35667e0eb3b04b6e0afb4fc1a224829b1ade341758a7ce1888949a",
    "compare-pareto-csv": "87fda6ad2e63b673e474f0a5f96ab6bff219a24c844263abec07a91da8e54a26",
    "compare-pareto-json": "5c7ae6ccc069bc8ab3a8268277c147d77da1a0ed7259c8d636c23fb89917b13a",
    "compare-pareto-table": "ffc0d1336e304ed5462ad9082403272a746ce413422c75653b4f517e9cbdb921",
    "compare-uniform-csv": "99e74071d9ae783d5cf4aafd00a308e09986b9f86fe11664b978c50312a6703e",
    "compare-uniform-json": "d2b2d8c801a512463f5c04eb32982dd01b0728d0d69b04fe7357cac08e918435",
    "compare-uniform-table": "d7e9fd781baa92ac71d82931827e588b26ca510871735d0ed39ad2039563edf7",
    "eval-erlang2-csv": "bd2dc29a5de6ad72dff44560665add0c6009b89a2c7982242bbcd342f8bda4ce",
    "eval-erlang2-json": "463c7f3da7817d6f8b250ad9c725c398cd41b2a21c555030c518f20aca642ded",
    "eval-erlang2-table": "8c1cea23f6bc55b7b3f9810fbbec29673db0673cfa86cd7cb9a65a50c5d8a20b",
    "eval-ex3.1-mixture-csv": "0f2234e4ca3c1b7e25e589b2858b46fca673a107eb87c65abc8110aa1c97fac9",
    "eval-ex3.5-os-csv": "5294c965678d0b680e3764ba0334f5a422a2bf704648114c998205c3453d734c",
    "eval-exponential-csv": "2276eb65b7150b61834615d1dcdfa29b5b87bd2d8f7557178d5bcc8d205dd750",
    "eval-exponential-json": "f532e18fa24579def0fd91c0d140989c6f1dbaabfb54f49e75d03478a1249c95",
    "eval-exponential-table": "456d1b257e5513f0d57cc4d29e9ac7f31b30e42e4c9615d7ac9c15f3cdd284ea",
    "eval-mrl_exponential-csv": "ed0d761e6ea08a76c8cd230537fa592849ab7a32ae5a0a02d228bcff6c0c4b36",
    "eval-mrl_exponential-json": "da9a3b6ab90b1fb5527a854529e1f7eb40331d9f051b58dc1fe350a5e8603a30",
    "eval-mrl_exponential-table": "a49e7461023e18eca20b914c88a17759f69f93ae4467a2060bac64822c4875b0",
    "eval-mrl_linear-csv": "53dbacbd493ed75347c28384a7caad855b3b045848e023089896a13090fd48ef",
    "eval-mrl_linear-json": "0e17b71c493294d35f2ee765d5fa092932411736fe053925713b5a1cb56f0536",
    "eval-mrl_linear-table": "6a0236f43e3e1b1ce71670d823a13f4df5b65766207ea3cb8850fe6252efda8a",
    "eval-mrl_piecewise-csv": "7c01ca9437dbab7ce3765f7a55ad4c6db74e6c3b2f9ab7eb6640a5a4149d6cdc",
    "eval-mrl_piecewise-json": "228d98dd0129b2563fc3c64e5397e78b452947be495c209b9c189732a30e573f",
    "eval-mrl_piecewise-table": "ec00d6304beea53ea8c380e85eba276ec0dccee235c2cc5e3b1433cd7ee09a75",
    "eval-mrl_reciprocal_linear-csv": "e3f7ac4b46647b940abf1cfa4acc22d4b5def5024a0928b716a56ce49f95b6fc",
    "eval-mrl_reciprocal_linear-json": "9b9c46b737136055578cc7130247103d696aa4cc5e8c98959ba468195aa2a0e8",
    "eval-mrl_reciprocal_linear-table": "b41a9fce380fba7f15aab2d738973d472f04dfc988febc351f411df7d12df811",
    "eval-pareto-below-csv": "20245c396f79fc2e71ea6bb4bbb57837521cb37d878a88636e94fe87df743e87",
    "eval-pareto-below-json": "1896f45c43702a7770281e1e9b125c2c3d4ef371125097a6c06a6db161952d69",
    "eval-pareto-below-table": "b519e371e2eccbb32fd9b16af57d1f720d53b8954ad7d03f88d954cdb16e347a",
    "eval-pareto-csv": "8211707e7d321b36e7c4afb3c5715ba7aaf4ebd315705cff5bf4f06905b01942",
    "eval-pareto-json": "08133ca3a551d04b95c02f49be3d90bb898d58672886bbbfc66258d0b022d87d",
    "eval-pareto-table": "8e75cecb9b9c4aba993a9f2388f5c79a1bd9a22571f16ca8642f121cee63b36f",
    "eval-uniform-below-csv": "018a13376b5aa3c160538b7e5db0785440dfab9cf887ed7df8d21fc9a3f90fb1",
    "eval-uniform-below-json": "86e448a5ceee7ab74bb54ad69b74144637d98e4c22decc7e2262e98af312c25b",
    "eval-uniform-below-table": "10b79c4b89c7c02319715fc650e005f0ccfc438f55879d7c41cba14295e91fa7",
    "eval-uniform-csv": "2588ec3a066cf01c04dc8cc81711735387bbc53818bee9003df22aa934fb8732",
    "eval-uniform-json": "ea922d568cb2744f28c735b255161957bf24ef15a8fc923754839b0ab083036d",
    "eval-uniform-table": "7fc4469d2118c97f84bbdd5b484f32c7d329fbd1fe14a8188184097c548bb7ba",
    "plotdata-erlang2-L": "502b0d09c1c08a598cd5e869b685c75908a70cfea569aa1d0076dc0f62603650",
    "plotdata-erlang2-hazard_ai": "50e5201d81382570ce56a564fbb8ccd48a24aac4122bf171b585a36b03c1de12",
    "plotdata-erlang2-mu": "f08fe62b1855ea027d5ead7bac733b6b44f02780d0e50d658383caac5b5ca1ad",
    "plotdata-erlang2-mu_avg": "600731c16b0875ace43b4e0e54f0de078d6c1134abac38faf3e41364b9685d3c",
    "plotdata-erlang2-survival": "c029e5f29d79a4745a0bbfe61f1bb690138ff1a26fcf9cd50a62015fb21c9065",
    "plotdata-exponential-L": "249429784417ef89e42b40b38cfeaa46d824bb5a92c02bbc0749c2f6e008c6f8",
    "plotdata-exponential-hazard_ai": "759f7cdf7e29e486ea7e33271fef868bdd2be52d7c381a2de6ab82686d583704",
    "plotdata-exponential-mu": "137cac18b1ed4c4878e7678bb1fe97e210d9bee64c2f0625fd7b10b0d8733839",
    "plotdata-exponential-mu_avg": "6e708d16d05a23e74f39a8885426fc7eb574c9df1d9b4f0baef26d4b080158c0",
    "plotdata-exponential-survival": "a67a34b5370f9c4a6565e04ee92e32242f97e2d7411801dd9fc98f5a7a5ae230",
    "plotdata-mrl_exponential-L": "b10fdb627999afdcf0cd68c80479801b33d67b6d0d36b33df31397f26546406f",
    "plotdata-mrl_exponential-hazard_ai": "ff134e43a549fa4236251f9bfe5540808869877657684079904eb5885faefbfb",
    "plotdata-mrl_exponential-mu": "0c7268e8d6e08ba579d39a09826a3db24ad2ffdb989cc97a1babc2c5f3c20521",
    "plotdata-mrl_exponential-mu_avg": "40248a0560dfaef98426cd3ecf583146ecb88508d5d9a0fb50a88f136c1a70e6",
    "plotdata-mrl_exponential-survival": "947e71f56da90a8b93617101009829ffd69b254cae2fd5c08063ad0f7820ada9",
    "plotdata-mrl_linear-L": "a499486735ed11525517353a4275bce19799068822f58426fbcc07991ea1fc19",
    "plotdata-mrl_linear-hazard_ai": "d73e4c854516534c4093a61b2c68877a4274e57ee7b0f63c5cca52177297b16d",
    "plotdata-mrl_linear-mu": "ea1a2ac8953f207d0287e038737c0dbb310cafed05c843603385c71d6eca3bb5",
    "plotdata-mrl_linear-mu_avg": "87cefb6211b54b06af5e26e109eb043c8c5f2a62cb9e98d637a648b8b8c64f3b",
    "plotdata-mrl_linear-survival": "e88f306f757dfec029bc6c6da4fedb52d798f5f4a886094e5c8c16e160a0bc7a",
    "plotdata-mrl_piecewise-L": "53c895482358d45785fc2868ed28748ca03238de14f669e952e428b63514fc16",
    "plotdata-mrl_piecewise-hazard_ai": "1e9a501a39aeb837ab392dee066b82981e5a0dffbcb2bd9afa421cb0eeca0903",
    "plotdata-mrl_piecewise-mu": "1e89d99c1f787563a3a9d08786fd9be0b8034e03b61e8cc51333cdca1d4fb50a",
    "plotdata-mrl_piecewise-mu_avg": "5aef92d050149f84450dfb937cc776ad780112d2e15013159cf51b5b850ff459",
    "plotdata-mrl_piecewise-survival": "4f213912210c043ac502094cef146851a2d946097e9539d8db95e082056fdc6b",
    "plotdata-mrl_reciprocal_linear-L": "8dea2f5fcd5378085fe2ca94a2c94bbddfc15d124506530ccea4e7f70530d57a",
    "plotdata-mrl_reciprocal_linear-hazard_ai": "0a06f86d184f0f7b335c65c9157ebc09f730ba9047318c15199b93c047ee2b6a",
    "plotdata-mrl_reciprocal_linear-mu": "7da3fb363cc03955dfa7ef15f326b637c6e3d5365299e97c4fed7f300940932e",
    "plotdata-mrl_reciprocal_linear-mu_avg": "6091141927c5267261bf08dd67637daf6ddb759d086c724e7d6dcb5aace7ae03",
    "plotdata-mrl_reciprocal_linear-survival": "f7418245eade36a4d64105195a95d16f6ff3bbf154720bcfee4f7e8bd00d08bd",
    "plotdata-pareto-L": "1d9f99956163a4e790564ffcb402d8bed385426116a8ecda347ef3ff4c4d3d5d",
    "plotdata-pareto-hazard_ai": "18c401d01846514ce1f681d8ea736a284cad98cc9c29ebc30c6cbf20d3a91087",
    "plotdata-pareto-mu": "f769a27f87097592055260d5d2d43a2d88229bf3a48226e33f04b349c73228d2",
    "plotdata-pareto-mu_avg": "733801cc524235c5d75d7ca2dd19c8fb7c4eaea62f468f1f31e48a75ca1ef2cc",
    "plotdata-pareto-survival": "bd37ce2361b59041c064e0161a9b6c940c4858bd878305e3550b38a0fa3965f7",
    "plotdata-uniform-L": "2c5d4e550c95047fd2482bda480158cd59e1cd16085848c5905c23b4b24513e6",
    "plotdata-uniform-hazard_ai": "2bc0ad62d4b148a27e16e72c55c4f5a4b21ce1e4576ad49cd955e8004fd97cba",
    "plotdata-uniform-mu": "c9be32e1c2ac71f73069cab2b2f1afcc5039ad892a91970eacdd01fa5477e33c",
    "plotdata-uniform-mu_avg": "9979e3190e04985c6c326b07c4ea61cd3f113bfc10ddb81b40884a50f63e66df",
    "plotdata-uniform-survival": "e75b59a4de8f421f27f62ddf98da79ff194a3f2cb4643a0192fa0f4312266d9e",
}


@pytest.mark.parametrize("case", sorted(_digest_argvs()))
def test_closed_family_output_digest(case, capsys):
    code, out, err = run(_digest_argvs()[case], capsys)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[case]
