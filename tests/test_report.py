import json

import pytest

from biliseg import ConfigError, MetricsReport, metrics_to_dict, write_report
from biliseg.report import format_cell
from biliseg.stats import AnovaResult

ROW = {
    "method": "threshold",
    "DSC": (0.819, 0.057),
    "HD_mm": (0.816, 0.353),
    "RVD": (0.188, 0.118),
    "outliers": (6.2, 3.86),
    "false_communicating_IHDs": (2.0, 2.00),
    "false_non_communicating_IHDs": (0.2, 0.40),
}
ANOVA = {
    "DSC": AnovaResult(8.0, 1, 2, 0.0123),
    "HD_mm": AnovaResult(0.0, 1, 2, 1.0),
    "RVD": None,
    "outliers": AnovaResult(1.0, 1, 2, 0.5),
    "false_communicating_IHDs": AnovaResult(1.0, 1, 2, 0.5),
    "false_non_communicating_IHDs": AnovaResult(1.0, 1, 2, 0.5),
}


class TestCellFormatting:
    def test_three_decimals_for_overlap_metrics(self):
        assert format_cell("DSC", (0.819, 0.057)) == "0.819 ±0.057"
        assert format_cell("HD_mm", (1.291, 0.656)) == "1.291 ±0.656"
        assert format_cell("RVD", (0.5394, 0.3489)) == "0.539 ±0.349"

    def test_count_cells(self):
        assert format_cell("outliers", (6.2, 3.86)) == "6.2 ±3.86"
        assert format_cell("false_communicating_IHDs", (0.0, 0.0)) == "0.0 ±0.00"


class TestWriteReport:
    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            write_report([ROW], "yaml", tmp_path / "r.yaml", ANOVA)

    def test_empty_rows_give_header_only(self, tmp_path):
        # no method rows and no ANOVA results: the header and an empty p-value row
        csv_path = tmp_path / "empty.csv"
        write_report([], "csv", csv_path, {})
        assert csv_path.read_text() == ("method,DSC,HD_mm,RVD,outliers,"
                                        "false_communicating_IHDs,false_non_communicating_IHDs\n"
                                        "ANOVA p-value,,,,,,\n")
        json_path = tmp_path / "empty.json"
        write_report([], "json", json_path, {})
        doc = json.loads(json_path.read_text())
        assert doc["rows"] == [{"method": "ANOVA p-value", "DSC": "", "HD_mm": "", "RVD": "",
                                "outliers": "", "false_communicating_IHDs": "",
                                "false_non_communicating_IHDs": ""}]
        assert doc["anova"] == {}
        md_path = tmp_path / "empty.md"
        write_report([], "markdown", md_path, {})
        assert md_path.read_text().splitlines() == [
            "| method | DSC | HD_mm | RVD | outliers | false_communicating_IHDs | "
            "false_non_communicating_IHDs |",
            "| --- | --- | --- | --- | --- | --- | --- |",
            "| ANOVA p-value |  |  |  |  |  |  |",
            "",
            "One-way ANOVA across methods (* marks p < 0.05):",
        ]

    def test_csv_columns_exact(self, tmp_path):
        path = tmp_path / "t.csv"
        write_report([ROW], "csv", path, ANOVA)
        lines = path.read_text().splitlines()
        assert lines[0] == ("method,DSC,HD_mm,RVD,outliers,"
                            "false_communicating_IHDs,false_non_communicating_IHDs")
        assert lines[1].startswith("threshold,0.819 ±0.057,0.816 ±0.353,")

    def test_markdown_table(self, tmp_path):
        path = tmp_path / "t.md"
        write_report([ROW], "markdown", path, ANOVA)
        text = path.read_text()
        assert "| threshold | 0.819 ±0.057 |" in text

    def test_byte_identical_reruns(self, tmp_path):
        for fmt, name in (("json", "a.json"), ("csv", "a.csv"), ("markdown", "a.md")):
            p1, p2 = tmp_path / name, tmp_path / ("again_" + name)
            write_report([ROW], fmt, p1, ANOVA)
            write_report([ROW], fmt, p2, ANOVA)
            assert p1.read_bytes() == p2.read_bytes()

    def test_anova_row_and_star(self, tmp_path):
        path = tmp_path / "s.json"
        write_report([ROW, dict(ROW, method="floodfill")], "json", path, ANOVA)
        doc = json.loads(path.read_text())
        p_row = doc["rows"][-1]
        assert p_row["method"] == "ANOVA p-value"
        assert p_row["DSC"] == "0.012300*"
        assert p_row["HD_mm"] == "1.000000"
        assert p_row["RVD"] == ""
        assert doc["anova"]["DSC"]["significant"] is True
        assert doc["anova"]["RVD"] is None

    def test_single_metrics_report_json_has_all_fields(self):
        rep = MetricsReport(dsc=1.0, hd_mm=0.0, hd_directed_pred_to_gt=0.0,
                            hd_directed_gt_to_pred=0.0, rvd=0.0, outliers=0,
                            missed_components=0, false_communicating=0,
                            false_non_communicating=0)
        doc = metrics_to_dict(rep)
        assert list(doc) == ["dsc", "hd_mm", "hd_directed_pred_to_gt", "hd_directed_gt_to_pred",
                             "rvd", "outliers", "missed_components", "false_communicating",
                             "false_non_communicating"]
        assert doc == {"dsc": 1.0, "hd_mm": 0.0, "hd_directed_pred_to_gt": 0.0,
                       "hd_directed_gt_to_pred": 0.0, "rvd": 0.0, "outliers": 0,
                       "missed_components": 0, "false_communicating": 0,
                       "false_non_communicating": 0}

