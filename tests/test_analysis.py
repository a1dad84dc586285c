"""Tests for analysis helpers (stats, landscape, report)."""

import numpy as np

from repro.analysis import (
    Landscape,
    ascii_table,
    median_with_iqr,
    percent,
    to_csv,
)


class TestStats:
    def test_median_with_iqr(self):
        med, q25, q75 = median_with_iqr([1, 2, 3, 4, 5])
        assert med == 3
        assert q25 == 2
        assert q75 == 4

    def test_median_empty(self):
        med, q25, q75 = median_with_iqr([])
        assert np.isnan(med)


class TestLandscape:
    def make(self):
        rates = np.array([[0.1, 0.05, 0.02],
                          [0.5, 0.4, 0.3]])
        return Landscape("code", np.array([1e-8, 1e-1]),
                         np.arange(3), np.array([1.0, 0.3, 0.1]), rates)

    def test_peak(self):
        assert self.make().peak == 0.5

    def test_at_strike(self):
        np.testing.assert_allclose(self.make().at_strike(), [0.1, 0.5])

    def test_monotone_violations_none(self):
        assert self.make().monotone_violations(axis=0) == 0
        assert self.make().monotone_violations(axis=1) == 0

    def test_monotone_violations_detects_dip(self):
        ls = self.make()
        ls.rates[1, 1] = 0.0  # dip along the p axis
        assert ls.monotone_violations(axis=0) >= 1

    def test_to_rows(self):
        rows = self.make().to_rows()
        assert len(rows) == 6
        assert rows[0]["code"] == "code"


class TestReport:
    def test_ascii_table_alignment(self):
        rows = [{"a": 1, "b": "xy"}, {"a": 22, "b": "z"}]
        out = ascii_table(rows)
        lines = out.splitlines()
        assert lines[0].startswith("a")
        assert len({len(l) for l in lines}) == 1  # rectangular

    def test_ascii_table_title(self):
        out = ascii_table([{"a": 1}], title="T")
        assert out.splitlines()[0] == "T"

    def test_ascii_table_empty(self):
        assert "(empty)" in ascii_table([])

    def test_ascii_table_float_formatting(self):
        out = ascii_table([{"x": 0.123456}])
        assert "0.1235" in out

    def test_ascii_table_column_subset(self):
        out = ascii_table([{"a": 1, "b": 2}], columns=["b"])
        assert "a" not in out.splitlines()[0]

    def test_to_csv(self):
        out = to_csv([{"a": 1, "b": 2}, {"a": 3, "b": 4}])
        assert out.splitlines()[0] == "a,b"
        assert out.splitlines()[1] == "1,2"

    def test_to_csv_empty(self):
        assert to_csv([]) == ""

    def test_percent(self):
        assert percent(0.213) == "21.3%"
