"""ASCII rendering of the paper's plot types.

The benchmark harness prints every reproduced figure as text so results
are inspectable in a terminal and diffable in CI; the same series are
exposed as numeric arrays for anyone who wants matplotlib.
"""

from __future__ import annotations

import numpy as np

# One marker per series, assigned in order.  The cycle is explicit
# and finite: rendering more series than markers raises (silent reuse
# made two curves indistinguishable), so extending this string *is*
# the way to support more series.
_MARKERS = "ox+*#@%&=~^:;"

# Plot area in characters: every plot is 60 columns wide.
_WIDTH = 60
_CDF_HEIGHT = 16
_SERIES_HEIGHT = 14
_SCATTER_HEIGHT = 20


def _marker_for(index: int, n_series: int) -> str:
    """The marker for series ``index`` of ``n_series`` (fail early)."""
    if n_series > len(_MARKERS):
        raise ValueError(
            f"{n_series} series but only {len(_MARKERS)} distinct "
            f"markers ({_MARKERS!r}); extend _MARKERS or split the plot"
        )
    return _MARKERS[index]


def render_cdf(
    series: dict[str, np.ndarray],
    xlabel: str = "value",
    xmax: float | None = None,
) -> str:
    """Render one or more empirical CDFs as an ASCII plot.

    ``series`` maps a label to its raw samples.  Each curve gets a
    distinct marker; the legend maps markers back to labels.  More
    series than distinct markers is an error.
    """
    if not series:
        raise ValueError("need at least one series")
    width, height = _WIDTH, _CDF_HEIGHT
    all_samples = np.concatenate(
        [np.asarray(s, dtype=np.float64) for s in series.values()]
    )
    if xmax is None:
        xmax = float(all_samples.max())
    xmax = max(xmax, 1e-12)
    grid = np.full((height, width), " ", dtype="<U1")
    for idx, (_label, samples) in enumerate(series.items()):
        marker = _marker_for(idx, len(series))
        xs = np.sort(np.asarray(samples, dtype=np.float64))
        ys = np.arange(1, xs.size + 1) / xs.size
        # Bucket every sample to its cell and rasterize the series in
        # one fancy-indexed assignment (.astype truncates toward zero
        # exactly like the old per-sample int()).
        cols = np.minimum(
            width - 1, (xs / xmax * (width - 1)).astype(np.int64)
        )
        rows = np.minimum(
            height - 1, ((1.0 - ys) * (height - 1)).astype(np.int64)
        )
        grid[rows, cols] = marker
    lines = ["1.0 |" + "".join(grid[0])]
    for i in range(1, height):
        frac = 1.0 - i / (height - 1)
        prefix = f"{frac:3.1f} |" if i % 4 == 0 else "    |"
        lines.append(prefix + "".join(grid[i]))
    lines.append("    +" + "-" * width)
    lines.append(f"    0{' ' * (width - 12)}{xmax:.3g}  ({xlabel})")
    for idx, label in enumerate(series):
        lines.append(f"    {_marker_for(idx, len(series))} = {label}")
    return "\n".join(lines)


def render_series(
    xs: np.ndarray,
    ys_by_label: dict[str, np.ndarray],
    logy: bool = False,
    xlabel: str = "x",
) -> str:
    """Render y(x) curves (e.g. CCDF tails) as ASCII."""
    if not ys_by_label:
        raise ValueError("need at least one series")
    width, height = _WIDTH, _SERIES_HEIGHT
    xs = np.asarray(xs, dtype=np.float64)
    ymin, ymax = np.inf, -np.inf
    transformed = {}
    for label, ys in ys_by_label.items():
        ys = np.asarray(ys, dtype=np.float64)
        if logy:
            ys = np.where(ys > 0, ys, np.nan)
            ys = np.log10(ys)
        transformed[label] = ys
        finite = ys[np.isfinite(ys)]
        if finite.size:
            ymin = min(ymin, finite.min())
            ymax = max(ymax, finite.max())
    if not np.isfinite(ymin):
        raise ValueError("no finite y values to plot")
    span = max(ymax - ymin, 1e-12)
    xmax = max(float(xs.max()), 1e-12)
    grid = [[" "] * width for _ in range(height)]
    for idx, (_label, ys) in enumerate(transformed.items()):
        marker = _marker_for(idx, len(transformed))
        for x, y in zip(xs, ys, strict=True):
            if not np.isfinite(y):
                continue
            col = min(width - 1, int(x / xmax * (width - 1)))
            row = min(height - 1, int((ymax - y) / span * (height - 1)))
            grid[row][col] = marker
    top = f"{10**ymax:.1e}" if logy else f"{ymax:.3g}"
    bot = f"{10**ymin:.1e}" if logy else f"{ymin:.3g}"
    lines = [f"{top:>8} |" + "".join(grid[0])]
    for row in grid[1:-1]:
        lines.append("         |" + "".join(row))
    lines.append(f"{bot:>8} |" + "".join(grid[-1]))
    lines.append("         +" + "-" * width)
    lines.append(f"         0{' ' * (width - 12)}{xmax:.3g}  ({xlabel})")
    for idx, label in enumerate(ys_by_label):
        lines.append(
            f"         {_marker_for(idx, len(ys_by_label))} = {label}"
        )
    return "\n".join(lines)


def render_scatter(
    points_by_label: dict[str, tuple[np.ndarray, np.ndarray]],
    xlabel: str = "x",
    ylabel: str = "y",
    *,
    floor: float,
) -> str:
    """Render scatter points on log-log axes (e.g. Fig. 12's throughput
    comparison); values below ``floor`` are drawn at it."""
    if not points_by_label:
        raise ValueError("need at least one series")
    width, height = _WIDTH, _SCATTER_HEIGHT

    def _tx(v: np.ndarray) -> np.ndarray:
        return np.log10(np.maximum(np.asarray(v, dtype=np.float64), floor))

    all_x = np.concatenate(
        [_tx(p[0]) for p in points_by_label.values()]
    )
    all_y = np.concatenate(
        [_tx(p[1]) for p in points_by_label.values()]
    )
    xmin, xmax = all_x.min(), max(all_x.max(), all_x.min() + 1e-9)
    ymin, ymax = all_y.min(), max(all_y.max(), all_y.min() + 1e-9)
    grid = [[" "] * width for _ in range(height)]
    # The y = x diagonal, the reference line of Fig. 12.
    for col in range(width):
        x = xmin + col / (width - 1) * (xmax - xmin)
        if ymin <= x <= ymax:
            row = int((ymax - x) / (ymax - ymin) * (height - 1))
            grid[row][col] = "."
    for idx, (_label, (px, py)) in enumerate(points_by_label.items()):
        marker = _marker_for(idx, len(points_by_label))
        for x, y in zip(_tx(px), _tx(py), strict=True):
            col = min(width - 1, int((x - xmin) / (xmax - xmin) * (width - 1)))
            row = min(
                height - 1, int((ymax - y) / (ymax - ymin) * (height - 1))
            )
            grid[row][col] = marker
    fmt = lambda v: f"{10**v:.2g}"
    lines = [f"{fmt(ymax):>8} |" + "".join(grid[0])]
    for row in grid[1:-1]:
        lines.append("         |" + "".join(row))
    lines.append(f"{fmt(ymin):>8} |" + "".join(grid[-1]))
    lines.append("         +" + "-" * width)
    lines.append(
        f"         {fmt(xmin)}{' ' * (width - 16)}{fmt(xmax)}  ({xlabel})"
    )
    lines.append(f"         y-axis: {ylabel}; '.' marks y = x")
    for idx, label in enumerate(points_by_label):
        lines.append(
            f"         {_marker_for(idx, len(points_by_label))} = {label}"
        )
    return "\n".join(lines)


def format_table(
    headers: list[str], rows: list[list], title: str = ""
) -> str:
    """Monospace table with right-aligned numeric columns."""
    cells = [[str(h) for h in headers]]
    for row in rows:
        cells.append(
            [
                f"{v:.4g}" if isinstance(v, float) else str(v)
                for v in row
            ]
        )
    widths = [
        max(len(row[i]) for row in cells) for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(cells[0], widths, strict=True)))
    lines.append(sep)
    for row in cells[1:]:
        lines.append(
            " | ".join(c.rjust(w) for c, w in zip(row, widths, strict=True))
        )
    return "\n".join(lines)
