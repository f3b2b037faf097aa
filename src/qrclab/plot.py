"""Self-contained SVG renderers for the case and scan figures.

Rendering is a pure function of the data and the fixed style constants
below, so plot files are diffable and byte-stable across reruns.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError

WIDTH = 640
HEIGHT = 360
MARGIN = 52
COLORS = ("#1f77b4", "#d62728")  # the first and the second curve
AXIS_COLOR = "#333333"
FONT = "font-family=\"sans-serif\" font-size=\"11\""


def _scale(values: np.ndarray, lo_px: float, hi_px: float):
    vmin = float(np.min(values))
    vmax = float(np.max(values))
    if vmax == vmin:  # degenerate range: park everything mid-axis
        return lambda v: (lo_px + hi_px) / 2.0, vmin, vmax
    span = vmax - vmin

    def to_px(v):
        return lo_px + (float(v) - vmin) / span * (hi_px - lo_px)

    return to_px, vmin, vmax


def _polyline(xs, ys, color: str) -> str:
    points = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))
    return (
        f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
        f'points="{points}"/>'
    )


def _frame(title: str, x_label: str, y_label: str, x_lo, x_hi, y_lo, y_hi) -> list[str]:
    left, right = MARGIN, WIDTH - MARGIN
    top, bottom = MARGIN, HEIGHT - MARGIN
    return [
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<line x1="{left}" y1="{bottom}" x2="{right}" y2="{bottom}" stroke="{AXIS_COLOR}"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{bottom}" stroke="{AXIS_COLOR}"/>',
        f'<text x="{WIDTH // 2}" y="{MARGIN - 28}" text-anchor="middle" {FONT}>{title}</text>',
        f'<text x="{WIDTH // 2}" y="{HEIGHT - 10}" text-anchor="middle" {FONT}>{x_label}</text>',
        f'<text x="14" y="{HEIGHT // 2}" text-anchor="middle" {FONT} '
        f'transform="rotate(-90 14 {HEIGHT // 2})">{y_label}</text>',
        f'<text x="{left}" y="{bottom + 14}" text-anchor="middle" {FONT}>{x_lo:.4g}</text>',
        f'<text x="{right}" y="{bottom + 14}" text-anchor="middle" {FONT}>{x_hi:.4g}</text>',
        f'<text x="{left - 6}" y="{bottom}" text-anchor="end" {FONT}>{y_lo:.4g}</text>',
        f'<text x="{left - 6}" y="{top + 4}" text-anchor="end" {FONT}>{y_hi:.4g}</text>',
    ]


def _document(body: list[str]) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">'
    )
    return head + "\n" + "\n".join(body) + "\n</svg>\n"


def _two_curves(x, curves: dict, title: str, x_label: str, y_label: str, markers: bool) -> str:
    """The figure of two named curves over one x axis, in ``COLORS`` order:
    a polyline each, with point markers if asked, and a legend naming them."""
    x_px, x_lo, x_hi = _scale(x, MARGIN, WIDTH - MARGIN)
    y_px, y_lo, y_hi = _scale(np.concatenate(list(curves.values())), HEIGHT - MARGIN, MARGIN)  # SVG y grows down

    body = _frame(title, x_label, y_label, x_lo, x_hi, y_lo, y_hi)
    xs = [x_px(v) for v in x]
    for values, color in zip(curves.values(), COLORS):
        ys = [y_px(v) for v in values]
        body.append(_polyline(xs, ys, color))
        if markers:
            body += [f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="3" fill="{color}"/>' for cx, cy in zip(xs, ys)]
    legend = " ".join(f'<tspan fill="{color}">{name}</tspan>' for name, color in zip(curves, COLORS))
    body.append(f'<text x="{WIDTH - MARGIN}" y="{MARGIN - 28}" text-anchor="end" {FONT}>{legend}</text>')
    return _document(body)


def render_overlay_svg(t, target, prediction, title: str = "target vs prediction") -> str:
    """Target/prediction overlay over a time axis, one polyline per curve."""
    t = np.asarray(t, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    prediction = np.asarray(prediction, dtype=np.float64)
    if t.size == 0:
        raise ConfigurationError("nothing to plot: empty series")
    if not (t.shape == target.shape == prediction.shape):
        raise ConfigurationError("t, target and prediction must have equal length")
    return _two_curves(t, {"target": target, "prediction": prediction}, title, "t", "value", markers=False)


def render_scan_svg(rows, title: str = "train/test score vs qubits") -> str:
    """Train/test score curves against reservoir width, with point markers."""
    rows = list(rows)
    if not rows:
        raise ConfigurationError("nothing to plot: empty scan")
    n = np.array([r.n_qubits for r in rows], dtype=np.float64)
    train = np.array([r.train_score for r in rows], dtype=np.float64)
    test = np.array([r.test_score for r in rows], dtype=np.float64)
    return _two_curves(n, {"train": train, "test": test}, title, "n_qubits", "score", markers=True)
