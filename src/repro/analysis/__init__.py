"""Statistics, landscape assembly and report rendering."""

from .landscape import Landscape
from .report import ascii_table, percent, to_csv
from .stats import median_with_iqr, wilson_interval

__all__ = [
    "Landscape",
    "ascii_table",
    "to_csv",
    "percent",
    "wilson_interval",
    "median_with_iqr",
]
