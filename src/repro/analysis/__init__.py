"""``repro.analysis`` — result tables, charts, records and reports."""

from .charts import bar_chart
from .records import ExperimentRecord
from .report import render_experiments_markdown, write_experiments_markdown
from .sensitivity import (SensitivityCurve, layer_sensitivity,
                          sensitivity_ranking)
from .tables import Table

__all__ = ["Table", "ExperimentRecord", "render_experiments_markdown",
           "write_experiments_markdown", "bar_chart", "SensitivityCurve",
           "layer_sensitivity", "sensitivity_ranking"]
