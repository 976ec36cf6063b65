"""Corpus registry: coverage, determinism, and the disputed-case protocol."""

import json
from pathlib import Path

import pytest

from mrlai.corpus import (
    all_cases,
    corpus_to_dict,
    list_cases,
    report_to_dict,
    run_all,
    run_case,
)
from mrlai.errors import UnknownCase


class TestRegistry:
    def test_at_least_sixteen_cases(self):
        assert len(list_cases()) >= 16

    def test_covers_every_worked_example(self):
        ids = set(list_cases())
        for want in [f"ex2.{i}" for i in range(1, 7)] + [
            f"ex3.{i}" for i in range(1, 6)
        ] + [f"ex4.{i}" for i in range(1, 6)] + ["thm2.5", "thm2.6a", "thm2.6b", "thm2.7", "thm2.8"]:
            assert want in ids, want

    def test_deterministic_order(self):
        assert list_cases() == sorted(list_cases(), key=list_cases().index)
        assert list_cases() == list_cases()

    def test_filters(self):
        assert list_cases("ex3.*") == ["ex3.1", "ex3.2", "ex3.3", "ex3.4", "ex3.5"]
        assert list_cases("nothing*") == []

    def test_unknown_case(self):
        with pytest.raises(UnknownCase):
            run_case("ex9.9")

    def test_every_expected_value_has_provenance(self):
        for case in all_cases():
            for check in case.checks:
                assert check.provenance, f"{case.id}: {check.quantity} lacks provenance"

    def test_disputed_checks_carry_source_annotation(self):
        for case in all_cases():
            for check in case.checks:
                if check.disputed:
                    assert check.source_value is not None or check.note


class TestRunCase:
    def test_erlang_case_matches_to_tolerance(self):
        rep = run_case("ex2.2")
        assert rep.mismatches == 0
        by_label = {r.label: r for r in rep.results}
        assert by_label["L[X](0.5)"].computed == pytest.approx(
            0.885924163724462, rel=1e-9
        )
        assert by_label["L[X](2)"].computed == pytest.approx(0.855700709220817, rel=1e-9)
        assert by_label["L[X](4.5)"].computed == pytest.approx(
            0.875905814337691, rel=1e-9
        )

    def test_exponential_characterisation(self):
        rep = run_case("thm2.7")
        assert rep.mismatches == 0
        assert any(r.label.startswith("class_mrlai") for r in rep.results)

    def test_disputed_case_reports_as_expected(self):
        rep = run_case("ex3.3")
        assert rep.mismatches == 0
        disputed = [r for r in rep.results if r.status == "disputed-as-expected"]
        assert len(disputed) == 3
        for r in disputed:
            assert "printed value" in r.note

    def test_full_run_is_clean(self):
        reports = run_all()
        assert sum(r.mismatches for r in reports) == 0

    def test_exactly_four_disputed_cases(self):
        reports = run_all()
        disputed_cases = [r.case_id for r in reports if r.disputed > 0]
        assert disputed_cases == ["ex2.3", "ex2.6", "ex3.3", "ex3.5"]

    def test_determinism(self):
        a = report_to_dict(run_all("ex2.*"))
        b = report_to_dict(run_all("ex2.*"))
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_each_case_builds_each_profile_once(self, monkeypatch):
        from mrlai import ageing

        built = []
        real = ageing._evaluate

        def counted(d, ts, conv, *args, **kwargs):
            if len(ts) > 1:  # a scalar check is a one-point profile
                built.append((id(d), ts, conv))
            return real(d, ts, conv, *args, **kwargs)

        monkeypatch.setattr(ageing, "_evaluate", counted)
        for case_id in list_cases():
            built.clear()
            run_case(case_id)
            assert len(built) == len(set(built)), case_id

    def test_tolerance_override(self):
        # absurdly tight tolerance must start flagging mismatches
        rep = run_case("ex2.4", tol_scale=1e-9)
        assert rep.mismatches > 0


class TestSerialisation:
    def test_corpus_serialises_with_spec_grammar(self):
        doc = corpus_to_dict()
        assert doc["version"] == 1
        assert len(doc["cases"]) == len(list_cases())
        text = json.dumps(doc)
        again = json.loads(text)
        assert again["cases"][0]["id"] == "ex2.1"
        from mrlai.distributions import spec_from_dict, validate

        for case in again["cases"]:
            for spec_dict in case["specs"].values():
                validate(spec_from_dict(spec_dict))

    def test_report_serialises(self):
        doc = report_to_dict(run_all("thm2.7"))
        text = json.dumps(doc, sort_keys=True)
        assert "mismatches" in text


GOLDEN = Path(__file__).parent / "data" / "reproduce.json"


class TestGoldenReport:
    """The report against ``tests/data/reproduce.json``, the committed
    ``mrlai reproduce --format json`` output (README says how to
    regenerate it)."""

    def test_matches_the_committed_report(self):
        want = json.loads(GOLDEN.read_text(encoding="utf-8"))
        got = json.loads(json.dumps(report_to_dict(run_all())))
        assert got["version"] == want["version"]
        assert [c["id"] for c in got["cases"]] == [c["id"] for c in want["cases"]]
        for gc, wc in zip(got["cases"], want["cases"]):
            assert [c["label"] for c in gc["checks"]] == [c["label"] for c in wc["checks"]]
            for g, w in zip(gc["checks"], wc["checks"]):
                where = f"{gc['id']} {g['label']}"
                assert g["status"] == w["status"], where
                if isinstance(w["computed"], str):
                    assert g["computed"] == w["computed"], where
                else:
                    assert g["computed"] == pytest.approx(w["computed"], rel=1e-12, abs=0.0), where
