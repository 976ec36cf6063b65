"""Command-line interface: outputs, round trips, exit codes."""

import csv
import io
import json

import pytest

from mrlai.cli import _parse_grid, _parser, main, make_parser

ERLANG = '{"family":"erlang","k":2,"rate":2}'
EXP_HALF = '{"family":"exponential","rate":0.5}'
PARETO21 = '{"family":"pareto","shape":2,"scale":1}'
UNIFORM13 = '{"family":"uniform","lo":1,"hi":3}'


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


class TestClassify:
    def test_erlang_verdicts(self, capsys):
        code, out, _ = run(["classify", ERLANG, "--grid", "0.1:10/64"], capsys)
        assert code == 0
        lines = {l.split()[0]: l for l in out.splitlines()[1:]}
        assert "decreasing" in lines["mrl"]
        assert "non_monotone" in lines["mrlai"]
        assert "hazard_ai" in lines

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


class TestReproduce:
    def test_full_run_exits_zero(self, capsys):
        code, out, _ = run(["reproduce"], capsys)
        assert code == 0
        assert "0 mismatches" in out
        assert "disputed-as-expected" in out

    def test_filter_counts(self, capsys):
        code, out, _ = run(["reproduce", "--filter", "ex3.*"], capsys)
        assert code == 0
        cases = {line.split()[0] for line in out.splitlines()[1:] if line and not line.startswith("#")}
        assert cases == {"ex3.1", "ex3.2", "ex3.3", "ex3.4", "ex3.5"}

    def test_bad_filter_warns_and_exits_zero(self, capsys):
        code, out, err = run(["reproduce", "--filter", "zzz*"], capsys)
        assert code == 0
        assert "no corpus cases" in err

    def test_tight_tolerance_trips_exit_one(self, capsys):
        code, out, _ = run(["reproduce", "--filter", "ex2.4", "--tol-scale", "1e-9"], capsys)
        assert code == 1
        assert "MISMATCH" in out

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

    def test_survival_quantity(self, capsys):
        code, out, _ = run(
            ["plotdata", EXP_HALF, "--quantity", "survival", "--grid", "1:2/2"], capsys
        )
        assert code == 0
        import math

        val = float(out.splitlines()[1].split(",")[1])
        assert val == pytest.approx(math.exp(-0.5), rel=1e-10)


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
