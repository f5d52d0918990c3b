"""The sweep's eps_tilde/eps0 chart, as deterministic SVG (no plotting framework).

Emits SVG 1.1 of a fixed 720 x 480 size, with numeric axis ticks, one
polyline per data series, and a dashed reference line at the measured value.
All coordinates are formatted with fixed precision so identical inputs
produce identical bytes.
"""

from __future__ import annotations

from collections import namedtuple

# Fixed series palette, cycled in order.
_COLORS = ("#1f5fa8", "#c24d2c", "#3a7d44", "#7a4fa3", "#a8761f", "#46808c")

_TICKS = 6

_WIDTH, _HEIGHT = 720, 480


# One polyline: its legend label and its (x, y) points.
Series = namedtuple("Series", "label points")


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _tick_label(value: float) -> str:
    return f"{value:.4g}"


def _escape(text: str) -> str:
    """Escape ``&``, ``<`` and ``>`` for element text, as ``xml.sax.saxutils.escape``.

    Written out here because importing ``xml.sax`` pulls in ``urllib`` and the
    email and network stack, a large share of the CLI's start-up time.
    """
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def sweep_chart(
    series: list[Series],
    x_label: str = "gap ratio",
    y_label: str = "permittivity estimate / measured value",
    reference_y: float = 1.0,
    reference_label: str = "measured",
) -> str:
    """Render series as polylines over labelled axes; returns the SVG text.

    The defaults are what ``vacuumresponse sweep --format svg`` draws:
    eps_tilde/eps0 against the gap ratio, with the measured value at 1.
    ``perfbench/traced.py`` times the chart with labels of its own.
    """
    if not series or not any(s.points for s in series):
        raise ValueError("chart needs at least one non-empty series")

    xs = [x for s in series for x, _ in s.points]
    ys = [y for s in series for _, y in s.points]
    ys.append(reference_y)
    x_min, x_max = min(xs), max(xs)
    y_min, y_max = 0.0, max(ys)
    if x_max == x_min:
        x_max = x_min + 1.0
    if y_max == y_min:
        y_max = y_min + 1.0
    y_max *= 1.06

    left, right, top, bottom = 72, 160, 24, 48
    plot_w = _WIDTH - left - right
    plot_h = _HEIGHT - top - bottom

    def px(x: float) -> float:
        return left + (x - x_min) / (x_max - x_min) * plot_w

    def py(y: float) -> float:
        return top + (y_max - y) / (y_max - y_min) * plot_h

    out: list[str] = []
    out.append(
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_WIDTH}" height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">'
    )
    out.append('<rect width="100%" height="100%" fill="white"/>')

    # Axes.
    axis = 'stroke="#222" stroke-width="1"'
    out.append(f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + plot_h}" {axis}/>')
    out.append(
        f'<line x1="{left}" y1="{top + plot_h}" x2="{left + plot_w}" y2="{top + plot_h}" {axis}/>'
    )

    # Ticks and numeric labels.
    for i in range(_TICKS):
        frac = i / (_TICKS - 1)
        x_val = x_min + frac * (x_max - x_min)
        x_pos = px(x_val)
        out.append(
            f'<line x1="{_fmt(x_pos)}" y1="{top + plot_h}" x2="{_fmt(x_pos)}" '
            f'y2="{top + plot_h + 5}" {axis}/>'
        )
        out.append(
            f'<text x="{_fmt(x_pos)}" y="{top + plot_h + 20}" font-size="12" '
            f'text-anchor="middle" font-family="sans-serif">{_tick_label(x_val)}</text>'
        )
        y_val = y_min + frac * (y_max - y_min)
        y_pos = py(y_val)
        out.append(f'<line x1="{left - 5}" y1="{_fmt(y_pos)}" x2="{left}" y2="{_fmt(y_pos)}" {axis}/>')
        out.append(
            f'<text x="{left - 8}" y="{_fmt(y_pos + 4)}" font-size="12" '
            f'text-anchor="end" font-family="sans-serif">{_tick_label(y_val)}</text>'
        )

    out.append(
        f'<text x="{left + plot_w / 2:.2f}" y="{_HEIGHT - 10}" font-size="13" '
        f'text-anchor="middle" font-family="sans-serif">{_escape(x_label)}</text>'
    )
    out.append(
        f'<text x="16" y="{top + plot_h / 2:.2f}" font-size="13" text-anchor="middle" '
        f'font-family="sans-serif" transform="rotate(-90 16 {top + plot_h / 2:.2f})">'
        f"{_escape(y_label)}</text>"
    )

    y_pos = py(reference_y)
    out.append(
        f'<line x1="{left}" y1="{_fmt(y_pos)}" x2="{left + plot_w}" y2="{_fmt(y_pos)}" '
        'stroke="#888" stroke-width="1" stroke-dasharray="6 4"/>'
    )
    out.append(
        f'<text x="{left + plot_w + 8}" y="{_fmt(y_pos + 4)}" font-size="12" '
        f'font-family="sans-serif" fill="#555">{_escape(reference_label)}</text>'
    )

    for index, s in enumerate(series):
        color = _COLORS[index % len(_COLORS)]
        coords = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in s.points)
        out.append(f'<polyline fill="none" stroke="{color}" stroke-width="2" points="{coords}"/>')
        legend_y = top + 16 + 18 * index
        out.append(
            f'<line x1="{left + plot_w + 8}" y1="{legend_y - 4}" x2="{left + plot_w + 32}" '
            f'y2="{legend_y - 4}" stroke="{color}" stroke-width="2"/>'
        )
        out.append(
            f'<text x="{left + plot_w + 38}" y="{legend_y}" font-size="12" '
            f'font-family="sans-serif">{_escape(s.label)}</text>'
        )

    out.append("</svg>")
    return "\n".join(out) + "\n"
