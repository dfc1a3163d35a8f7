"""The shared CSV reader rules in tsre.errors, checked on the reader itself.

Every CSV loader (genotypes, phenotypes) goes through read_csv and, for a
numeric field, finite_float; these tests pin each rule and the file and line
its error names, independent of which loader meets it first.
"""

import re

import pytest

from tsre.errors import DataError, finite_float, read_csv


def _read(path):
    return list(read_csv(path))


def _write(tmp_path, text):
    path = tmp_path / "in.csv"
    path.write_text(text, encoding="utf-8")
    return path


class TestReadCsv:
    def test_header_then_numbered_rows_without_blanks(self, tmp_path):
        path = _write(tmp_path, 'id,value\n\na,1\n"b\nc",2\n\nd,3\n')
        assert _read(path) == [
            ["id", "value"],
            (3, ["a", "1"]),
            (5, ["b\nc", "2"]),  # a quoted newline: the row ends on line 5
            (7, ["d", "3"]),
        ]

    @pytest.mark.parametrize(
        "text, message",
        [("", "empty file"), ("id,value\n", "no data rows"), ("id,value\n\n\n", "no data rows")],
        ids=["empty", "header_only", "blank_rows_only"],
    )
    def test_a_file_without_rows_is_an_error(self, tmp_path, text, message):
        path = _write(tmp_path, text)
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: {message}$"):
            _read(path)

    @pytest.mark.parametrize("row, width", [("b", 1), ("b,2,3", 3)], ids=["short", "long"])
    def test_a_row_not_as_wide_as_the_header_reports_its_line(self, tmp_path, row, width):
        path = _write(tmp_path, f"id,value\na,1\n{row}\n")
        with pytest.raises(DataError, match=f": line 3: {width} fields, expected 2$"):
            _read(path)

    def test_a_repeated_first_field_reports_its_line(self, tmp_path):
        path = _write(tmp_path, "id,value\na,1\nb,2\na,3\n")
        with pytest.raises(DataError, match=r": line 4: duplicate id 'a'$"):
            _read(path)

    def test_a_field_over_the_size_limit_reports_its_line(self, tmp_path):
        path = _write(tmp_path, "id,value\na,1\n" + "b" * 200_000 + ",2\n")
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: line 3: field larger"):
            _read(path)

    def test_undecodable_bytes_name_the_file(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_bytes(b"id,value\na,1\nb,\xff\n")
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: not UTF-8 text$"):
            _read(path)


class TestFiniteFloat:
    @pytest.mark.parametrize("text, value", [("1.5", 1.5), (" -2e3 ", -2000.0), ("0", 0.0)])
    def test_parses_a_finite_value(self, text, value):
        assert finite_float(text, "in.csv", 4) == value

    @pytest.mark.parametrize("text", ["oops", "", "1,5"])
    def test_an_unparseable_value_reports_its_line(self, text):
        message = f"^in.csv: line 4: cannot parse value {re.escape(repr(text))}$"
        with pytest.raises(DataError, match=message):
            finite_float(text, "in.csv", 4)

    @pytest.mark.parametrize("text", ["nan", "inf", "-Infinity"])
    def test_a_non_finite_value_reports_its_line(self, text):
        with pytest.raises(DataError, match=f"^in.csv: line 4: value '{text}' is not finite$"):
            finite_float(text, "in.csv", 4)
