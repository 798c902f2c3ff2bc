"""Tiny static SVG writer for scatter plots and field heatmaps.

No plotting dependency: the CLI's figures are diffable text files, which is
what the byte-determinism contract needs.  3-D point sets are drawn as an
orthographic (x, y) projection with the z coordinate encoded in the mark
radius.
"""

from xml.sax.saxutils import escape

import numpy as np

# class colors; index by label mod len
PALETTE = (
    "#5e3a8e",  # purple
    "#f2b90d",  # yellow
    "#2a9d8f",
    "#e76f51",
    "#457b9d",
    "#b5179e",
)

_MARGIN = 40.0
_MIN_RADIUS = 2.0
_MAX_RADIUS = 6.0
_HEX = [f"{i:02x}" for i in range(256)]


def _spans(lo, hi):
    span = hi - lo
    if span <= 0.0:
        return lo - 0.5, 1.0
    return lo, span


class SvgScene:
    """Collects circle marks in data coordinates; autoscales at render time."""

    def __init__(self, width=640, height=480, title=""):
        self.width = width
        self.height = height
        self.title = title
        self._marks = []  # (x, y, radius_px, color)

    def add_point(self, x, y, radius, color):
        self._marks.append((float(x), float(y), float(radius), color))

    def add_scatter(self, points, labels, z=None):
        """Add one mark per point, colored by label, radius encoding z if given."""
        pts = np.asarray(points, dtype=np.float64)
        radii = np.full(pts.shape[0], 3.5)
        if z is not None:
            z = np.asarray(z, dtype=np.float64)
            lo, span = _spans(float(z.min()), float(z.max()))
            radii = _MIN_RADIUS + (_MAX_RADIUS - _MIN_RADIUS) * (z - lo) / span
        for i in range(pts.shape[0]):
            color = PALETTE[int(labels[i]) % len(PALETTE)]
            self.add_point(pts[i, 0], pts[i, 1], radii[i], color)

    def render(self):
        xs = [m[0] for m in self._marks] or [0.0]
        ys = [m[1] for m in self._marks] or [0.0]
        x0, xspan = _spans(min(xs), max(xs))
        y0, yspan = _spans(min(ys), max(ys))
        plot_w = self.width - 2 * _MARGIN
        plot_h = self.height - 2 * _MARGIN

        def to_px(x, y):
            px = _MARGIN + (x - x0) / xspan * plot_w
            py = self.height - _MARGIN - (y - y0) / yspan * plot_h
            return px, py

        parts = [
            '<?xml version="1.0" encoding="UTF-8"?>',
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}" '
            f'height="{self.height}" viewBox="0 0 {self.width} {self.height}">',
            f'<rect x="0" y="0" width="{self.width}" height="{self.height}" fill="white"/>',
            f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{plot_w:.1f}" height="{plot_h:.1f}" '
            'fill="none" stroke="#999" stroke-width="1"/>',
            f'<text x="{self.width / 2:.1f}" y="{_MARGIN / 2 + 5:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{escape(self.title)}</text>',
        ]
        # corner annotations of the data ranges
        labels = [
            (x0, _MARGIN, self.height - _MARGIN / 4, "start"),
            (x0 + xspan, self.width - _MARGIN, self.height - _MARGIN / 4, "end"),
        ]
        for value, px, py, anchor in labels:
            parts.append(
                f'<text x="{px:.1f}" y="{py:.1f}" text-anchor="{anchor}" '
                f'font-family="sans-serif" font-size="10">{value:.3g}</text>'
            )
        parts.append(
            f'<text x="{_MARGIN / 4:.1f}" y="{self.height - _MARGIN:.1f}" '
            f'font-family="sans-serif" font-size="10">{y0:.3g}</text>'
        )
        parts.append(
            f'<text x="{_MARGIN / 4:.1f}" y="{_MARGIN + 10:.1f}" '
            f'font-family="sans-serif" font-size="10">{y0 + yspan:.3g}</text>'
        )
        for x, y, radius, color in self._marks:
            px, py = to_px(x, y)
            parts.append(
                f'<circle cx="{px:.2f}" cy="{py:.2f}" r="{radius:.2f}" '
                f'fill="{color}" fill-opacity="0.75"/>'
            )
        parts.append("</svg>")
        return "\n".join(parts) + "\n"


def scatter_svg(points, labels, title, width=640, height=480):
    """Scatter of a 1/2/3-D cloud; 3-D uses the depth-as-radius cue."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError("points must be 2-D (n, dim)")
    z = None
    if pts.shape[1] == 1:
        pts = np.column_stack([pts[:, 0], np.zeros(pts.shape[0])])
    elif pts.shape[1] >= 3:
        z = pts[:, 2]
        pts = pts[:, :2]
    scene = SvgScene(width=width, height=height, title=title)
    scene.add_scatter(pts, labels, z=z)
    return scene.render()


def heatmap_svg(xs, ys, values, title, width=640, height=480):
    """Grid heatmap of a scalar field on xs (columns) and ys (rows), min to max color."""
    values = np.asarray(values, dtype=np.float64)
    rows, cols = values.shape
    vlo, vspan = _spans(float(values.min()), float(values.max()))
    plot_w = width - 2 * _MARGIN
    plot_h = height - 2 * _MARGIN
    cell_w = plot_w / cols
    cell_h = plot_h / rows
    lo, hi = (np.array([int(c[i : i + 2], 16) for i in (1, 3, 5)]) for c in PALETTE[:2])
    t = np.clip((values - vlo) / vspan, 0.0, 1.0)
    rgb = np.rint(lo + (hi - lo) * t[..., np.newaxis]).astype(np.intp).tolist()
    columns = [f"{_MARGIN + c * cell_w:.2f}" for c in range(cols)]
    size = f'width="{cell_w + 0.5:.2f}" height="{cell_h + 0.5:.2f}"'
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="{_MARGIN / 2 + 5:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{escape(title)}</text>',
    ]
    for r, row in enumerate(rgb):
        py = f"{height - _MARGIN - (r + 1) * cell_h:.2f}"
        parts.extend(
            f'<rect x="{px}" y="{py}" {size} fill="#{_HEX[red]}{_HEX[green]}{_HEX[blue]}"/>'
            for px, (red, green, blue) in zip(columns, row)
        )
    parts.append(
        f'<text x="{_MARGIN:.1f}" y="{height - _MARGIN / 4:.1f}" '
        f'font-family="sans-serif" font-size="10">x in [{xs[0]:.3g}, {xs[-1]:.3g}], '
        f'y in [{ys[0]:.3g}, {ys[-1]:.3g}]</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
