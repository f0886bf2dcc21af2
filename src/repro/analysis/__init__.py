"""Analysis utilities: distributions, run statistics, text rendering.

Everything the experiment harness needs to turn raw simulation output
into the paper's CDFs, CCDFs, scatter plots and tables — rendered as
ASCII for terminal inspection and as CSV-ready series for plotting.
"""

from repro.analysis.stats import (
    Cdf,
    geometric_mean,
    mean_ci,
    median,
)
from repro.analysis.runs import run_lengths
from repro.analysis.textplot import (
    format_table,
    render_cdf,
    render_scatter,
    render_series,
)

__all__ = [
    "Cdf",
    "geometric_mean",
    "mean_ci",
    "median",
    "run_lengths",
    "format_table",
    "render_cdf",
    "render_scatter",
    "render_series",
]
