"""Command-line behavior: formats, exit codes, and the pair-file parser."""

import os
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from latticegap.certificate import Certificate
from latticegap.cli import (
    FORMAT_VERSION,
    main,
    parse_pair_file,
    structured_parse,
    structured_serialize,
    surd_str,
    write_atomically,
)

PAIR_FILE = "3 4\n4 2 1\n0 3 4\n\n0 0 0\n3 4 4\n"

key_text = st.text(
    st.characters(min_codepoint=33, max_codepoint=126, exclude_characters=":"),
    min_size=1, max_size=12)
value_text = st.text(
    st.characters(min_codepoint=32, max_codepoint=126), max_size=20)


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def as_dict(report):
    return dict(report)


class TestStructuredFormat:
    def test_serialize_shape(self):
        text = structured_serialize((("format", FORMAT_VERSION), ("n", 3)))
        assert text == f"format: {FORMAT_VERSION}\nn: 3\n"

    def test_round_trip_is_byte_identical(self):
        pairs = (("format", FORMAT_VERSION), ("a", "x y"), ("b", "7/3"))
        text = structured_serialize(pairs)
        assert structured_parse(text) == pairs
        assert structured_serialize(structured_parse(text)) == text

    def test_serialize_rejects_unrepresentable_entries(self):
        with pytest.raises(ValueError):
            structured_serialize((("bad: key", "v"),))
        with pytest.raises(ValueError):
            structured_serialize((("key", "line\nbreak"),))

    def test_parse_requires_the_header(self):
        with pytest.raises(ValueError):
            structured_parse("a: b\n")
        with pytest.raises(ValueError):
            structured_parse("")
        with pytest.raises(ValueError):
            structured_parse("format " + FORMAT_VERSION + "\n")

    @given(st.lists(st.tuples(key_text, value_text), max_size=8))
    def test_round_trip_for_arbitrary_reports(self, tail):
        pairs = (("format", FORMAT_VERSION),) + tuple(tail)
        text = structured_serialize(pairs)
        assert structured_parse(text) == pairs
        assert structured_serialize(structured_parse(text)) == text

    def test_surd_rendering(self):
        assert surd_str(Fraction(1, 50)) == "1/sqrt(50)"
        assert surd_str(Fraction(1, 2)) == "1/sqrt(2)"
        assert surd_str(Fraction(4, 3)) is None
        assert surd_str(Fraction(0)) is None


class TestEpsCommand:
    def test_text_report(self, capsys):
        code, out, _ = run(["eps", "--d", "2", "--k", "1"], capsys)
        assert code == 0
        assert "minimal squared distance, d=2 k=1: 1/2" in out
        assert "distance: 1/sqrt(2)" in out

    def test_structured_report_round_trips(self, capsys):
        code, out, _ = run(
            ["eps", "--d", "3", "--k", "2", "--format", "structured"], capsys)
        assert code == 0
        report = structured_parse(out)
        assert structured_serialize(report) == out
        data = as_dict(report)
        assert data["status"] == "complete"
        assert data["eps_squared"] == "1/50"
        assert data["eps"] == "1/sqrt(50)"
        assert data["witnesses"] == "1"
        assert "witness.0" in data

    def test_writes_to_file(self, tmp_path, capsys):
        out_path = tmp_path / "report.txt"
        code, out, _ = run(["eps", "--d", "2", "--k", "2",
                            "--format", "structured", "--out",
                            str(out_path)], capsys)
        assert code == 0
        assert out == ""
        data = as_dict(structured_parse(out_path.read_text()))
        assert data["eps_squared"] == "1/5"

    def test_budget_exceeded_is_reported_incomplete(self, capsys):
        code, out, _ = run(
            ["eps", "--d", "3", "--k", "4", "--format", "structured"], capsys)
        assert code == 3
        data = as_dict(structured_parse(out))
        assert data["status"] == "incomplete"
        assert data["required_pairs"] == "69513875"
        assert data["budget"] == "8000000"

    def test_class_not_permitted(self, capsys):
        code, _, err = run(["eps", "--d", "3", "--k", "1",
                            "--classes", "point-segment"], capsys)
        assert code == 2
        assert "error:" in err

    def test_usage_errors_exit_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["eps", "--d", "2", "--k", "0"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["eps", "--d", "4", "--k", "1"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["eps", "--d", "2", "--k", "1", "--workers", "0"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["nonsense"])
        assert exc.value.code == 2


class TestAtomicOutput:
    OLD = b"format: latticegap/1\nstatus: complete\n"

    def test_replaces_the_file(self, tmp_path, capsys):
        out_path = tmp_path / "report.txt"
        out_path.write_bytes(self.OLD)
        code, _, _ = run(["eps", "--d", "2", "--k", "2", "--format",
                          "structured", "--out", str(out_path)], capsys)
        assert code == 0
        assert as_dict(structured_parse(out_path.read_text()))["eps_squared"] == "1/5"
        assert os.listdir(tmp_path) == ["report.txt"]

    def test_a_failed_write_leaves_the_old_file(self, tmp_path):
        out_path = tmp_path / "report.txt"
        out_path.write_bytes(self.OLD)
        with pytest.raises(UnicodeEncodeError):
            write_atomically(str(out_path), "half a report \ud800")
        assert out_path.read_bytes() == self.OLD
        assert os.listdir(tmp_path) == ["report.txt"]

    def test_a_failed_rename_leaves_the_old_file(self, tmp_path, monkeypatch):
        out_path = tmp_path / "report.txt"
        out_path.write_bytes(self.OLD)

        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError):
            write_atomically(str(out_path), "a whole new report\n")
        assert out_path.read_bytes() == self.OLD
        assert os.listdir(tmp_path) == ["report.txt"]


class TestCertifyCommand:
    def test_requires_a_selector(self, capsys):
        code, _, err = run(["certify"], capsys)
        assert code == 2
        assert "--prop1" in err

    def test_prop31_structured(self, capsys):
        code, out, _ = run(
            ["certify", "--prop31", "--format", "structured"], capsys)
        assert code == 0
        data = as_dict(structured_parse(out))
        assert data["status"] == "pass"
        assert data["selected"] == "prop31"
        assert data["certificate.0.subject"] == "coarse-bound-margin"
        assert data["certificate.0.verdict"] == "pass"
        assert structured_serialize(structured_parse(out)) == out

    def test_two_selectors_text(self, capsys):
        code, out, _ = run(["certify", "--prop1", "--prop31",
                            "--workers", "1"], capsys)
        assert code == 0
        assert "[prop1]" in out and "[prop31]" in out
        assert "overall: pass" in out
        assert "min_margin_at_start = 74" in out

    def test_budget_exceeded_inside_pipeline(self, capsys):
        code, out, _ = run(["certify", "--table1", "--budget", "10",
                            "--format", "structured"], capsys)
        assert code == 3
        data = as_dict(structured_parse(out))
        assert data["status"] == "incomplete"
        assert data["command"] == "certify"

    def test_failing_certificate_exits_one(self, capsys, monkeypatch):
        forced = Certificate.make(
            "small-gap-table", False, witnesses=("forced",), notes="forced")
        monkeypatch.setattr("latticegap.cli.reproduce_small_table",
                            lambda **kw: forced)
        code, out, _ = run(["certify", "--table1"], capsys)
        assert code == 1
        assert "overall: fail" in out


class TestDistanceCommand:
    def test_point_triangle_flags(self, capsys):
        code, out, _ = run(
            ["distance", "--d", "3", "--k", "1", "--first", "1,1,1",
             "--second", "1,0,0 0,1,0 0,0,1"], capsys)
        assert code == 0
        assert "squared distance: 4/3" in out

    def test_triangle_first_is_reordered(self, capsys):
        code, out, _ = run(
            ["distance", "--d", "3", "--k", "1",
             "--first", "1,0,0 0,1,0 0,0,1", "--second", "1,1,1",
             "--format", "structured"], capsys)
        assert code == 0
        data = as_dict(structured_parse(out))
        assert data["first"] == "1,1,1"
        assert data["sq_distance"] == "4/3"
        assert "encoding" in data and "gram_det" in data

    def test_pair_file(self, tmp_path, capsys):
        path = tmp_path / "pair.txt"
        path.write_text(PAIR_FILE)
        code, out, _ = run(["distance", "--file", str(path),
                            "--format", "structured"], capsys)
        assert code == 0
        data = as_dict(structured_parse(out))
        assert data["sq_distance"] == "1/1050"
        assert data["distance"] == "1/sqrt(1050)"
        assert data["offset_det"] == "-1"
        assert data["gram_det"] == "1050"
        assert data["disjoint"] == "true"
        assert data["in_envelope"] == "true"
        assert structured_serialize(structured_parse(out)) == out

    def test_intersecting_pair(self, capsys):
        code, out, _ = run(
            ["distance", "--d", "3", "--k", "1", "--first", "0,0,0 1,1,0",
             "--second", "1,0,0 0,1,0"], capsys)
        assert code == 0
        assert "squared distance: 0/1" in out
        assert "the simplices are not disjoint" in out

    def test_plane_pair_has_no_encoding(self, capsys):
        code, out, _ = run(
            ["distance", "--d", "2", "--k", "1", "--first", "0,0",
             "--second", "1,0 0,1", "--format", "structured"], capsys)
        assert code == 0
        data = as_dict(structured_parse(out))
        assert data["sq_distance"] == "1/2"
        assert "encoding" not in data

    @pytest.mark.parametrize("argv", [
        ["distance", "--d", "3", "--k", "1", "--first", "0,0,0"],
        ["distance", "--file", "/nonexistent/pair.txt"],
        ["distance", "--d", "3", "--k", "1", "--first", "0,0",
         "--second", "1,0,0"],
        ["distance", "--d", "3", "--k", "1", "--first", "0,0,0",
         "--second", "1,1,1 1,1,1"],
    ])
    def test_input_errors_exit_two(self, argv, capsys):
        code, _, err = run(argv, capsys)
        assert code == 2
        assert "error:" in err


class TestPairFileParser:
    def test_parses_the_reference_pair(self):
        first, second = parse_pair_file(PAIR_FILE)
        assert first.vertices == ((4, 2, 1), (0, 3, 4))
        assert second.vertices == ((0, 0, 0), (3, 4, 4))
        assert first.k == 4

    def test_tolerates_leading_blank_lines(self):
        first, _ = parse_pair_file("\n\n2 1\n0 0\n1 1\n\n1 0\n")
        assert first.vertices == ((0, 0), (1, 1))

    @pytest.mark.parametrize("text", [
        "",
        "3\n0 0 0\n\n1 1 1\n",
        "3 1\n0 0 0\n",
        "3 1\n0 0 0\n\n1 1 1\n\n0 1 1\n",
        "3 1\n0 0\n\n1 1 1\n",
    ])
    def test_rejects_malformed_files(self, text):
        with pytest.raises(ValueError):
            parse_pair_file(text)


class TestTableCommand:
    def test_full_table_text(self, capsys):
        code, out, _ = run(["table1", "--workers", "1"], capsys)
        assert code == 0
        assert "d=2 k=1 expected 1/2 computed 1/2 ok" in out
        assert "d=3 k=3 expected 1/299 computed 1/299 ok" in out
        assert out.count(" ok") == 7
        assert "PASS small-gap-table" in out

    def test_budget_exceeded(self, capsys):
        code, out, _ = run(["table1", "--budget", "10"], capsys)
        assert code == 3
        assert "incomplete" in out
