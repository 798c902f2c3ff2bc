import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path
from xml.sax.saxutils import escape

import numpy as np
import pytest

import topoclass
from topoclass import svg
from topoclass.errors import NumericalError
from topoclass.numerics import make_rng
from topoclass.svg import (
    _MARGIN,
    _MAX_RADIUS,
    _MIN_RADIUS,
    PALETTE,
    _spans,
    heatmap_svg,
    scatter_svg,
)

NS = {"svg": "http://www.w3.org/2000/svg"}


def circles_of(svg_text):
    return ET.fromstring(svg_text).findall(".//svg:circle", NS)


def test_marks_stay_inside_viewport():
    rng = make_rng(1)
    pts = rng.uniform(-1e6, 1e6, size=(200, 2))  # extreme ranges still autoscale
    svg = scatter_svg(pts, np.zeros(200, dtype=int), "extremes")
    for circle in circles_of(svg):
        cx, cy, r = (float(circle.get(a)) for a in ("cx", "cy", "r"))
        assert 0.0 <= cx - r and cx + r <= 640.0
        assert 0.0 <= cy - r and cy + r <= 480.0


def test_degenerate_cloud_renders():
    pts = np.zeros((5, 2))
    svg = scatter_svg(pts, np.zeros(5, dtype=int), "all identical")
    assert len(circles_of(svg)) == 5


def test_depth_cue_varies_radius():
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 10.0]])
    svg = scatter_svg(pts, [0, 1], "3d")
    radii = sorted(float(c.get("r")) for c in circles_of(svg))
    assert radii[0] < radii[1]


@pytest.mark.parametrize("axis", [0, 1, 2], ids=["x", "y", "depth"])
def test_span_past_float64_is_numerical_error(axis):
    # both ends are finite, but hi - lo is not: the marks would be NaN
    pts = np.zeros((3, 3))
    pts[1, axis], pts[2, axis] = -1.5e308, 1.5e308
    with pytest.raises(NumericalError, match="overflows float64"):
        scatter_svg(pts, [0, 1, 0], "overflow")


def test_span_at_float64_limit_renders():
    pts = np.array([[0.0, -1.7e308], [1.0, 0.0]])
    assert scatter_svg(pts, [0, 1], "edge") == scatter_oracle(pts, [0, 1], "edge")


def test_one_dimensional_points_padded():
    svg = scatter_svg(np.array([[0.0], [1.0]]), [0, 1], "line")
    assert len(circles_of(svg)) == 2


def test_title_is_escaped():
    svg = scatter_svg(np.zeros((1, 2)), [0], "a < b & c")
    root = ET.fromstring(svg)  # would raise on unescaped markup
    assert "a < b & c" in [t.text for t in root.findall(".//svg:text", NS)]


@pytest.mark.parametrize(
    "title",
    ["a < b & c", "&amp; stays &amp;amp;", "<<>>&&", "quotes \" and ' stay", "stufe ä → ∞ ≤ 1", ""],
)
def test_title_escape_matches_saxutils(title):
    for svg in (
        scatter_svg(np.zeros((1, 2)), [0], title),
        heatmap_svg(np.zeros(1), np.zeros(1), np.zeros((1, 1)), title),
    ):
        assert f'font-size="14">{escape(title)}</text>' in svg
        assert title in [t.text or "" for t in ET.fromstring(svg).findall(".//svg:text", NS)]


def test_cli_import_leaves_the_web_stack_out():
    # a fresh interpreter that finds this checkout's package first
    src = str(Path(topoclass.__file__).resolve().parent.parent)
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import topoclass.cli; "
        "print(sorted({'ssl', 'http.client', 'urllib.request', 'multiprocessing', "
        "'concurrent.futures', 'scipy'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


def scatter_oracle(points, labels, title, width=640, height=480):
    """scatter_svg as a list of marks rendered one at a time, in Python floats."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.shape[1] == 1:
        pts = np.column_stack([pts[:, 0], np.zeros(pts.shape[0])])
    radii = np.full(pts.shape[0], 3.5)
    if pts.shape[1] >= 3:
        z = pts[:, 2]
        lo, span = _spans(float(z.min()), float(z.max()))
        radii = _MIN_RADIUS + (_MAX_RADIUS - _MIN_RADIUS) * (z - lo) / span
    marks = []
    for i in range(pts.shape[0]):
        color = PALETTE[int(labels[i]) % len(PALETTE)]
        marks.append((float(pts[i, 0]), float(pts[i, 1]), float(radii[i]), color))
    xs = [m[0] for m in marks] or [0.0]
    ys = [m[1] for m in marks] or [0.0]
    x0, xspan = _spans(min(xs), max(xs))
    y0, yspan = _spans(min(ys), max(ys))
    plot_w = width - 2 * _MARGIN
    plot_h = height - 2 * _MARGIN
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{plot_w:.1f}" height="{plot_h:.1f}" '
        'fill="none" stroke="#999" stroke-width="1"/>',
        f'<text x="{width / 2:.1f}" y="{_MARGIN / 2 + 5:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{escape(title)}</text>',
    ]
    corners = [
        (x0, _MARGIN, height - _MARGIN / 4, "start"),
        (x0 + xspan, width - _MARGIN, height - _MARGIN / 4, "end"),
    ]
    for value, px, py, anchor in corners:
        parts.append(
            f'<text x="{px:.1f}" y="{py:.1f}" text-anchor="{anchor}" '
            f'font-family="sans-serif" font-size="10">{value:.3g}</text>'
        )
    parts.append(
        f'<text x="{_MARGIN / 4:.1f}" y="{height - _MARGIN:.1f}" '
        f'font-family="sans-serif" font-size="10">{y0:.3g}</text>'
    )
    parts.append(
        f'<text x="{_MARGIN / 4:.1f}" y="{_MARGIN + 10:.1f}" '
        f'font-family="sans-serif" font-size="10">{y0 + yspan:.3g}</text>'
    )
    for x, y, radius, color in marks:
        px = _MARGIN + (x - x0) / xspan * plot_w
        py = height - _MARGIN - (y - y0) / yspan * plot_h
        parts.append(
            f'<circle cx="{px:.2f}" cy="{py:.2f}" r="{radius:.2f}" '
            f'fill="{color}" fill-opacity="0.75"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


@pytest.mark.parametrize("dim", [1, 2, 3, 5])
def test_scatter_matches_per_mark_oracle(dim):
    rng = make_rng(dim)
    pts = rng.normal(size=(80, dim))
    labels = rng.integers(0, 9, size=80)
    assert scatter_svg(pts, labels, "a < b") == scatter_oracle(pts, labels, "a < b")


@pytest.mark.parametrize(
    "pts",
    [
        np.zeros((5, 3)),  # all identical: every axis takes _spans' fallback
        make_rng(2).uniform(-1e6, 1e6, size=(40, 3)),
        np.array([[0.0, -0.0], [-0.0, 0.0], [1.0, 0.0]]),  # signed zeros at the range ends
        np.empty((0, 2)),
    ],
    ids=["identical", "1e6", "signed-zeros", "empty"],
)
def test_scatter_oracle_edge_clouds(pts):
    labels = list(range(len(pts)))
    assert scatter_svg(pts, labels, "t") == scatter_oracle(pts, labels, "t")


def test_scatter_oracle_size(monkeypatch):
    pts = make_rng(4).normal(size=(30, 3))
    labels = [1, 0, 2] * 10
    monkeypatch.setattr(svg, "_WIDTH", 700)
    monkeypatch.setattr(svg, "_HEIGHT", 333)
    got = scatter_svg(pts, labels, "sized")
    assert got == scatter_oracle(pts, labels, "sized", width=700, height=333)


def test_heatmap_is_wellformed():
    xs = np.linspace(-1, 1, 5)
    ys = np.linspace(-1, 1, 4)
    values = np.outer(np.arange(4), np.arange(5)).astype(float)
    root = ET.fromstring(heatmap_svg(xs, ys, values, "field"))
    rects = root.findall(".//svg:rect", NS)
    assert len(rects) == 1 + 4 * 5  # background plus one cell each


def lerp_color(c0, c1, t):
    return "#" + "".join(
        f"{round(a + (b - a) * t):02x}"
        for a, b in zip(
            (int(c0[1:3], 16), int(c0[3:5], 16), int(c0[5:7], 16)),
            (int(c1[1:3], 16), int(c1[3:5], 16), int(c1[5:7], 16)),
        )
    )


def heatmap_oracle(xs, ys, values, title, width=640, height=480):
    """heatmap_svg written one cell at a time, with Python's round per channel."""
    values = np.asarray(values, dtype=np.float64)
    rows, cols = values.shape
    vlo, vspan = _spans(float(values.min()), float(values.max()))
    plot_w = width - 2 * _MARGIN
    plot_h = height - 2 * _MARGIN
    cell_w = plot_w / cols
    cell_h = plot_h / rows
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="{_MARGIN / 2 + 5:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{escape(title)}</text>',
    ]
    for r in range(rows):
        for c in range(cols):
            t = (values[r, c] - vlo) / vspan
            color = lerp_color(PALETTE[0], PALETTE[1], min(max(t, 0.0), 1.0))
            px = _MARGIN + c * cell_w
            py = height - _MARGIN - (r + 1) * cell_h
            parts.append(
                f'<rect x="{px:.2f}" y="{py:.2f}" width="{cell_w + 0.5:.2f}" '
                f'height="{cell_h + 0.5:.2f}" fill="{color}"/>'
            )
    parts.append(
        f'<text x="{_MARGIN:.1f}" y="{height - _MARGIN / 4:.1f}" '
        f'font-family="sans-serif" font-size="10">x in [{xs[0]:.3g}, {xs[-1]:.3g}], '
        f'y in [{ys[0]:.3g}, {ys[-1]:.3g}]</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def test_heatmap_matches_per_cell_oracle(monkeypatch):
    xs = np.linspace(-2.5, 2.5, 37)
    ys = np.linspace(-1.0, 3.0, 23)
    values = make_rng(5).uniform(-0.3, 2.7, size=(23, 37))
    monkeypatch.setattr(svg, "_WIDTH", 700)
    monkeypatch.setattr(svg, "_HEIGHT", 333)
    assert heatmap_svg(xs, ys, values, "a < b") == heatmap_oracle(
        xs, ys, values, "a < b", width=700, height=333
    )


def test_heatmap_rounds_half_channels_to_even():
    # the field spans [0, 1], so t is the value itself; on the palette
    # #5e3a8e -> #f2b90d, t = 1/254 puts green at 58 + 127/254 = 58.5 (to 58),
    # t = 1/296 puts red at 94.5 (to 94), and t = 0.5 puts green at 121.5 and
    # blue at 77.5 (to 122 and 78)
    xs = ys = np.array([0.0, 1.0, 2.0])
    values = np.array([[0.0, 1 / 254, 1.0], [1 / 296, 0.5, 0.75], [1.0, 0.5, 0.0]])
    svg = heatmap_svg(xs, ys, values, "halves")
    assert svg == heatmap_oracle(xs, ys, values, "halves")
    assert 'fill="#5f3a8d"' in svg and 'fill="#a87a4e"' in svg


def test_constant_heatmap_matches_oracle():
    # a constant field takes _spans' fallback: every cell sits at t = 0.5
    xs = ys = np.linspace(0.0, 1.0, 4)
    values = np.full((4, 4), 7.0)
    svg = heatmap_svg(xs, ys, values, "flat")
    assert svg == heatmap_oracle(xs, ys, values, "flat")
    assert svg.count('fill="#a87a4e"') == 16
