"""File emitters for distributions, success curves and run statistics.

Hitting distributions go to CSV with header t,prob and one row per step
count including explicit zeros. Success curves go to CSV with header
m,prob_commutator,prob_full, or to a self-contained 800x600 SVG line chart
with linear axes and one polyline per curve column. Run statistics go to
JSON with the field names of Statistics.to_dict. Floats print with 17
significant digits; rational-backed values can be written as num/den
strings (exact=True).
"""
from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

from .analytics import HittingDist, SuccessCurve
from .engine import Statistics

SVG_WIDTH = 800
SVG_HEIGHT = 600
_MARGIN_LEFT = 70
_MARGIN_RIGHT = 30
_MARGIN_TOP = 30
_MARGIN_BOTTOM = 60
_CURVE_COLORS = ("#1f6fb2", "#c23b22", "#3a7d44")


def fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def _fmt_value(value, exact: bool) -> str:
    if exact and isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    return fmt_float(value)


def _write_text(path, text: str):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


# ── CSV ──────────────────────────────────────────────────────────────────

def hitting_dist_csv(dist: HittingDist, exact: bool = False) -> str:
    lines = ["t,prob"]
    for t, value in dist.rows():
        lines.append(f"{t},{_fmt_value(value, exact)}")
    return "\n".join(lines) + "\n"


def success_curve_csv(curve: SuccessCurve) -> str:
    lines = ["m,prob_commutator,prob_full"]
    for m, pc, pf in curve.rows():
        lines.append(f"{m},{fmt_float(pc)},{fmt_float(pf)}")
    return "\n".join(lines) + "\n"


# ── JSON ─────────────────────────────────────────────────────────────────

def statistics_json(stats: Statistics) -> str:
    return json.dumps(stats.to_dict(), indent=2) + "\n"


# ── SVG ──────────────────────────────────────────────────────────────────

def _svg_chart(series: list[tuple[str, list[float], list[float]]],
               x_label: str, y_label: str) -> str:
    """Line chart: series is a list of (name, xs, ys) triples."""
    series = [(name, np.asarray(xs, dtype=float), np.asarray(ys, dtype=float))
              for name, xs, ys in series]
    xs_all = np.concatenate([xs for _, xs, _ in series] + [np.empty(0)])
    ys_all = np.concatenate([ys for _, _, ys in series] + [np.empty(0)])
    x_min, x_max = (float(xs_all.min()), float(xs_all.max())) if xs_all.size else (0.0, 1.0)
    y_min, y_max = (float(ys_all.min()), float(ys_all.max())) if ys_all.size else (0.0, 1.0)
    if x_max == x_min:
        x_max = x_min + 1.0
    if y_max == y_min:
        y_max = y_min + 1.0
    plot_w = SVG_WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = SVG_HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    # px and py map a scalar or an array, with the same float64 steps
    def px(x):
        return _MARGIN_LEFT + (x - x_min) / (x_max - x_min) * plot_w

    def py(y):
        return _MARGIN_TOP + plot_h - (y - y_min) / (y_max - y_min) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_WIDTH}" '
        f'height="{SVG_HEIGHT}" viewBox="0 0 {SVG_WIDTH} {SVG_HEIGHT}">',
        f'<rect width="{SVG_WIDTH}" height="{SVG_HEIGHT}" fill="white"/>',
        # axes
        f'<line x1="{_MARGIN_LEFT}" y1="{_MARGIN_TOP}" x2="{_MARGIN_LEFT}" '
        f'y2="{_MARGIN_TOP + plot_h}" stroke="black"/>',
        f'<line x1="{_MARGIN_LEFT}" y1="{_MARGIN_TOP + plot_h}" '
        f'x2="{_MARGIN_LEFT + plot_w}" y2="{_MARGIN_TOP + plot_h}" stroke="black"/>',
    ]
    for i in range(5):
        xv = x_min + (x_max - x_min) * i / 4
        yv = y_min + (y_max - y_min) * i / 4
        parts.append(f'<text x="{px(xv):.1f}" y="{_MARGIN_TOP + plot_h + 20}" '
                     f'font-size="12" text-anchor="middle">{xv:g}</text>')
        parts.append(f'<text x="{_MARGIN_LEFT - 8}" y="{py(yv) + 4:.1f}" '
                     f'font-size="12" text-anchor="end">{yv:.3g}</text>')
    parts.append(f'<text x="{_MARGIN_LEFT + plot_w / 2:.1f}" '
                 f'y="{SVG_HEIGHT - 15}" font-size="14" '
                 f'text-anchor="middle">{x_label}</text>')
    parts.append(f'<text x="18" y="{_MARGIN_TOP + plot_h / 2:.1f}" font-size="14" '
                 f'text-anchor="middle" transform="rotate(-90 18 '
                 f'{_MARGIN_TOP + plot_h / 2:.1f})">{y_label}</text>')
    for i, (name, xs, ys) in enumerate(series):
        color = _CURVE_COLORS[i % len(_CURVE_COLORS)]
        coords = np.column_stack((px(xs), py(ys))).ravel().tolist()
        points = " ".join(["%.2f,%.2f"] * len(xs)) % tuple(coords)
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                     f'points="{points}"/>')
        parts.append(f'<text x="{_MARGIN_LEFT + plot_w - 8}" '
                     f'y="{_MARGIN_TOP + 16 + 16 * i}" font-size="12" '
                     f'text-anchor="end" fill="{color}">{name}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def success_curve_svg(curve: SuccessCurve) -> str:
    return _svg_chart([("prob_commutator", curve.m, curve.prob_commutator),
                       ("prob_full", curve.m, curve.prob_full)],
                      "m", "success probability")


# ── Dispatch ─────────────────────────────────────────────────────────────

_RENDERERS = {
    (HittingDist, "csv"): hitting_dist_csv,
    (SuccessCurve, "csv"): success_curve_csv,
    (SuccessCurve, "svg"): success_curve_svg,
    (Statistics, "json"): statistics_json,
}


def emit(artifact, fmt: str, path, exact: bool = False):
    """Render a HittingDist (csv), SuccessCurve (csv, svg) or Statistics (json).

    exact writes rational hitting probabilities as num/den strings; the
    other artifacts hold floats only and ignore it.
    """
    renderer = _RENDERERS.get((type(artifact), fmt))
    if renderer is None:
        raise ValueError(f"cannot emit {type(artifact).__name__} as {fmt!r}")
    if isinstance(artifact, HittingDist):
        text = renderer(artifact, exact=exact)
    else:
        text = renderer(artifact)
    _write_text(path, text)
