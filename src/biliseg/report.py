"""Evaluation report emission (JSON, CSV, Markdown).

Summary tables carry one row per segmentation method with the fixed columns
``method, DSC, HD_mm, RVD, outliers, false_communicating_IHDs,
false_non_communicating_IHDs``. Overlap/distance cells are printed with three
decimals, count cells as mean with one decimal and spread with two
("0.819 ±0.057", "6.2 ±3.86"). Emission is deterministic: identical inputs
produce byte-identical files.
"""
from __future__ import annotations

import csv
import dataclasses
import io
import json

from .errors import ConfigError
from .metrics import MetricsReport
from .stats import AnovaResult
from ._util import atomic_write

# summary column -> the MetricsReport field it summarizes
COLUMNS = {
    "DSC": "dsc",
    "HD_mm": "hd_mm",
    "RVD": "rvd",
    "outliers": "outliers",
    "false_communicating_IHDs": "false_communicating",
    "false_non_communicating_IHDs": "false_non_communicating",
}
REPORT_COLUMNS = ("method", *COLUMNS)
_COUNT_COLUMNS = frozenset(REPORT_COLUMNS[4:])
FORMATS = ("json", "csv", "markdown")


def format_cell(column: str, value: tuple[float, float]) -> str:
    """Render one table cell from a (mean, std) pair."""
    mean, std = value
    if column in _COUNT_COLUMNS:
        return f"{mean:.1f} ±{std:.2f}"
    return f"{mean:.3f} ±{std:.3f}"


def metrics_to_dict(report: MetricsReport) -> dict:
    return dataclasses.asdict(report)


def _render_rows(rows) -> list[dict]:
    rendered = []
    for row in rows:
        out = {"method": str(row["method"])}
        for col in COLUMNS:
            out[col] = format_cell(col, row[col])
        rendered.append(out)
    return rendered


def _anova_row(anova) -> dict:
    row = {"method": "ANOVA p-value"}
    for col in COLUMNS:
        res = anova.get(col)
        if not isinstance(res, AnovaResult):
            row[col] = ""
        else:
            row[col] = f"{res.p_value:.6f}" + ("*" if res.significant else "")
    return row


def write_report(rows, fmt: str, path, anova) -> None:
    """Write a summary table.

    ``rows`` is a list of summary rows, each a mapping from the report columns
    to (mean, std) pairs. ``anova`` maps metric columns to AnovaResult, or
    where F is undefined to the text of its cause ("zero within-group
    variance"); it adds a p-value row, and significant p-values gain a ``*``.
    """
    if fmt not in FORMATS:
        raise ConfigError(f"unknown report format {fmt!r}, expected one of {FORMATS}")
    rows = [*_render_rows(rows), _anova_row(anova)]

    if fmt == "json":
        doc = {"columns": list(REPORT_COLUMNS), "rows": rows, "anova": {
            col: {**dataclasses.asdict(res), "significant": res.significant}
            if isinstance(res, AnovaResult) else None
            for col, res in anova.items()
        }}
        text = json.dumps(doc, indent=2) + "\n"
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=REPORT_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        text = buf.getvalue()
    else:  # markdown
        lines = [
            "| " + " | ".join(REPORT_COLUMNS) + " |",
            "| " + " | ".join("---" for _ in REPORT_COLUMNS) + " |",
        ]
        for row in rows:
            lines.append("| " + " | ".join(str(row[c]) for c in REPORT_COLUMNS) + " |")
        lines.append("")
        lines.append("One-way ANOVA across methods (* marks p < 0.05):")
        for col, res in anova.items():
            if not isinstance(res, AnovaResult):
                lines.append(f"- {col}: undefined ({res})")
                continue
            star = "*" if res.significant else ""
            lines.append(
                f"- {col}: F({res.df_between}, {res.df_within}) = "
                f"{res.f_stat:.6g}, p = {res.p_value:.6f}{star}"
            )
        text = "\n".join(lines) + "\n"
    atomic_write(path, [text.encode("utf-8")])
