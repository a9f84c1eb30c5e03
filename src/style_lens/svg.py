"""Dependency-free SVG emitters for the report artifacts.

These are conveniences only; the CSV outputs are the contract. Rendering is
deliberately plain: bars, boxes, and annotated heatmap cells.
"""

from __future__ import annotations


def _text(x, y, size, content, anchor=None):
    """One sans-serif text element; x and y are written as given."""
    align = "" if anchor is None else f' text-anchor="{anchor}"'
    return (f'<text x="{x}" y="{y}" font-size="{size}"{align} '
            f'font-family="sans-serif">{content}</text>')


def _write(path, width, height, body, title):
    """An SVG document of the title and the body elements, one per line."""
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        _text(10, 18, 14, title), *body, "</svg>",
    ]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")


def write_bar_chart(path, labels, values, title=""):
    width, height = 60 * max(len(labels), 1) + 60, 260
    top, bottom = 30, 220
    vmax = max(max(values), 1)
    body = []
    for i, (label, value) in enumerate(zip(labels, values)):
        x = 40 + i * 60
        h = (bottom - top) * value / vmax
        body.append(
            f'<rect x="{x}" y="{bottom - h:.1f}" width="40" height="{h:.1f}" '
            'fill="#4878a8"/>'
        )
        body.append(_text(x + 20, f"{bottom - h - 4:.1f}", 11, value, "middle"))
        body.append(_text(x + 20, bottom + 14, 10, label, "middle"))
    _write(path, width, height, body, title)


def write_boxplots(path, rows, title=""):
    metrics = []
    for r in rows:
        if r.metric not in metrics:
            metrics.append(r.metric)
    styles = []
    for r in rows:
        if r.style not in styles:
            styles.append(r.style)
    panel_w, panel_h = 40 * max(len(styles), 1) + 80, 160
    width = panel_w
    height = 30 + panel_h * len(metrics)
    body = []
    for mi, metric in enumerate(metrics):
        sub = [r for r in rows if r.metric == metric]
        y0 = 40 + mi * panel_h
        lo = min(r.min for r in sub)
        hi = max(r.max for r in sub)
        span = (hi - lo) or 1.0

        def sy(v):
            return y0 + (panel_h - 50) * (1.0 - (v - lo) / span)

        body.append(_text(10, y0 - 6, 11, metric))
        for si, style in enumerate(styles):
            match = [r for r in sub if r.style == style]
            if not match:
                continue
            r = match[0]
            cx = 60 + si * 40
            body.append(
                f'<line x1="{cx}" y1="{sy(r.min):.1f}" x2="{cx}" y2="{sy(r.max):.1f}" '
                'stroke="#333"/>'
            )
            body.append(
                f'<rect x="{cx - 10}" y="{sy(r.q3):.1f}" width="20" '
                f'height="{max(sy(r.q1) - sy(r.q3), 0.5):.1f}" fill="#9ec9e2" stroke="#333"/>'
            )
            body.append(
                f'<line x1="{cx - 10}" y1="{sy(r.median):.1f}" x2="{cx + 10}" '
                f'y2="{sy(r.median):.1f}" stroke="#a02020"/>'
            )
            body.append(_text(cx, y0 + panel_h - 36, 9, style, "middle"))
    _write(path, width, height, body, title)


def write_heatmap(path, matrix, row_labels, col_labels, title=""):
    cell = 60
    width = 120 + cell * len(col_labels)
    height = 60 + cell * len(row_labels)
    vmax = max(int(matrix.max()), 1)
    body = []
    for j, col in enumerate(col_labels):
        body.append(_text(120 + j * cell + cell // 2, 40, 10, col, "middle"))
    for i, row in enumerate(row_labels):
        y = 50 + i * cell
        body.append(_text(110, y + cell // 2, 10, row, "end"))
        for j in range(len(col_labels)):
            v = int(matrix[i, j])
            shade = 255 - int(195 * v / vmax)
            body.append(
                f'<rect x="{120 + j * cell}" y="{y}" width="{cell}" height="{cell}" '
                f'fill="rgb({shade},{shade},255)" stroke="#888"/>'
            )
            body.append(_text(120 + j * cell + cell // 2, y + cell // 2 + 4, 11, v, "middle"))
    _write(path, width, height, body, title)


def write_split_histograms(path, dist, title=""):
    edges = dist["edges"]
    keys = sorted(dist["hists"])
    colors = {"aggressive": "#e08030", "normal": "#4878a8"}
    panel_h = 140
    width = 40 + 12 * (len(edges) - 1)
    splits = sorted({s for (_l, s) in keys})
    height = 40 + panel_h * len(splits)
    body = []
    for pi, split in enumerate(splits):
        y0 = 40 + pi * panel_h
        sub = {l: dist["hists"][(l, s)] for (l, s) in keys if s == split}
        vmax = max((int(h.max()) for h in sub.values()), default=1) or 1
        body.append(_text(10, y0 - 4, 11, split))
        for label, hist in sorted(sub.items()):
            color = colors.get(label, "#777")
            for b, count in enumerate(hist):
                if count == 0:
                    continue
                h = (panel_h - 40) * int(count) / vmax
                body.append(
                    f'<rect x="{40 + b * 12}" y="{y0 + panel_h - 40 - h:.1f}" width="10" '
                    f'height="{h:.1f}" fill="{color}" fill-opacity="0.55"/>'
                )
    _write(path, width, height, body, title)
