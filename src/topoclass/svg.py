"""Tiny static SVG writer for scatter plots and field heatmaps.

No plotting dependency: the CLI's figures are diffable text files, which is
what the byte-determinism contract needs.  Both plots share one document
frame (XML prolog, ``<svg>`` tag, white page, title, closing tag); their
marks are placed with whole-array numpy and formatted from ``.tolist()``
floats.  3-D and higher point sets are drawn as an orthographic (x, y)
projection with the third coordinate encoded in the mark radius; 1-D sets
are drawn on the line y = 0.
"""

from itertools import chain

import numpy as np

from .errors import NumericalError, SpecError

# class colors; index by label mod len
PALETTE = (
    "#5e3a8e",  # purple
    "#f2b90d",  # yellow
    "#2a9d8f",
    "#e76f51",
    "#457b9d",
    "#b5179e",
)

_WIDTH, _HEIGHT = 640, 480  # the page
_MARGIN = 40.0
_MIN_RADIUS = 2.0
_MAX_RADIUS = 6.0
_HEX = [f"{i:02x}" for i in range(256)]


def _spans(lo, hi):
    span = hi - lo
    if np.isinf(span):
        raise NumericalError(f"the coordinate span from {lo:.3g} to {hi:.3g} overflows float64")
    if span <= 0.0:
        return lo - 0.5, 1.0
    return lo, span


def _document(title, body, frame=()):
    """SVG text: prolog, white page, the ``frame`` lines, the title, ``body``."""
    title = title.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")  # as saxutils
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        *frame,
        f'<text x="{_WIDTH / 2:.1f}" y="{_MARGIN / 2 + 5:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
        *body,
        "</svg>",
    ]
    return "\n".join(lines) + "\n"


def scatter_svg(points, labels, title):
    """Scatter of a 1/2/3-D cloud; 3-D uses the depth-as-radius cue."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise SpecError("points must be 2-D (n, dim)")
    xs, ys = pts[:, 0], (pts[:, 1] if pts.shape[1] > 1 else np.zeros(len(pts)))
    radii = np.full(len(pts), 3.5)
    if pts.shape[1] >= 3:
        z = pts[:, 2]
        lo, span = _spans(float(z.min()), float(z.max()))
        radii = _MIN_RADIUS + (_MAX_RADIUS - _MIN_RADIUS) * (z - lo) / span
    # Python's min and max keep the first of equal extremes such as 0.0 and -0.0
    x_list, y_list = xs.tolist() or [0.0], ys.tolist() or [0.0]
    x0, xspan = _spans(min(x_list), max(x_list))
    y0, yspan = _spans(min(y_list), max(y_list))
    plot_w = _WIDTH - 2 * _MARGIN
    plot_h = _HEIGHT - 2 * _MARGIN
    px = _MARGIN + (xs - x0) / xspan * plot_w
    py = _HEIGHT - _MARGIN - (ys - y0) / yspan * plot_h
    colors = np.asarray(labels).astype(np.intp) % len(PALETTE)
    frame = [
        f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{plot_w:.1f}" height="{plot_h:.1f}" '
        'fill="none" stroke="#999" stroke-width="1"/>'
    ]
    body = [
        # corner annotations of the data ranges
        f'<text x="{_MARGIN:.1f}" y="{_HEIGHT - _MARGIN / 4:.1f}" text-anchor="start" '
        f'font-family="sans-serif" font-size="10">{x0:.3g}</text>',
        f'<text x="{_WIDTH - _MARGIN:.1f}" y="{_HEIGHT - _MARGIN / 4:.1f}" text-anchor="end" '
        f'font-family="sans-serif" font-size="10">{x0 + xspan:.3g}</text>',
        f'<text x="{_MARGIN / 4:.1f}" y="{_HEIGHT - _MARGIN:.1f}" '
        f'font-family="sans-serif" font-size="10">{y0:.3g}</text>',
        f'<text x="{_MARGIN / 4:.1f}" y="{_MARGIN + 10:.1f}" '
        f'font-family="sans-serif" font-size="10">{y0 + yspan:.3g}</text>',
    ]
    body.extend(
        f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{r:.2f}" '
        f'fill="{PALETTE[c]}" fill-opacity="0.75"/>'
        for x, y, r, c in zip(px.tolist(), py.tolist(), radii.tolist(), colors.tolist())
    )
    return _document(title, body, frame)


def heatmap_svg(xs, ys, values, title):
    """Grid heatmap of a scalar field on xs (columns) and ys (rows), min to max color."""
    values = np.asarray(values, dtype=np.float64)
    rows, cols = values.shape
    vlo, vspan = _spans(float(values.min()), float(values.max()))
    plot_w = _WIDTH - 2 * _MARGIN
    plot_h = _HEIGHT - 2 * _MARGIN
    cell_w = plot_w / cols
    cell_h = plot_h / rows
    lo, hi = (np.array([int(c[i : i + 2], 16) for i in (1, 3, 5)]) for c in PALETTE[:2])
    t = np.clip((values - vlo) / vspan, 0.0, 1.0)
    rgb = np.rint(lo + (hi - lo) * t[..., np.newaxis]).astype(np.intp).tolist()
    columns = [f"{_MARGIN + c * cell_w:.2f}" for c in range(cols)]
    row_ys = [f"{_HEIGHT - _MARGIN - (r + 1) * cell_h:.2f}" for r in range(rows)]
    size = f'width="{cell_w + 0.5:.2f}" height="{cell_h + 0.5:.2f}"'
    cells = (
        f'<rect x="{px}" y="{py}" {size} fill="#{_HEX[red]}{_HEX[green]}{_HEX[blue]}"/>'
        for py, row in zip(row_ys, rgb)
        for px, (red, green, blue) in zip(columns, row)
    )
    footer = (
        f'<text x="{_MARGIN:.1f}" y="{_HEIGHT - _MARGIN / 4:.1f}" '
        f'font-family="sans-serif" font-size="10">x in [{xs[0]:.3g}, {xs[-1]:.3g}], '
        f'y in [{ys[0]:.3g}, {ys[-1]:.3g}]</text>'
    )
    return _document(title, chain(cells, [footer]))
