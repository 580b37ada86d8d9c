"""File emitters for distributions, success curves and run statistics.

Hitting distributions go to CSV with header t,prob and one row per step
count including explicit zeros. Success curves go to CSV with header
m,prob_commutator,prob_full, or to a self-contained 800x600 SVG line chart
with linear axes and one polyline per curve column. Run statistics go to
JSON with the field names of Statistics.to_dict. Floats print with 17
significant digits; rational-backed values can be written as num/den
strings (exact=True).

Every float column of a CSV and every polyline coordinate goes through
format_column, which formats a run of bit-equal neighbours once: the
cumulative curve columns hold each value for two rows (T1 has odd support,
T1 + T2 even support), and the SVG's x texts are shared by its polylines.
The bytes are those of formatting each value on its own.
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


def format_column(values, spec: str) -> list[str]:
    """spec % x for every x of a float column, formatting each run of
    bit-equal neighbours once.

    Runs are found on the int64 view, so -0.0 and 0.0 stay apart and NaNs
    of one bit pattern join.
    """
    x = np.asarray(values, dtype=float)
    if not x.size:
        return []
    bits = x.view(np.int64)
    starts = np.empty(x.size, dtype=bool)
    starts[0] = True
    np.not_equal(bits[1:], bits[:-1], out=starts[1:])
    texts = [spec % v for v in x[starts].tolist()]
    if len(texts) == x.size:
        return texts
    return np.array(texts, dtype=object)[np.cumsum(starts) - 1].tolist()


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
    if exact and any(isinstance(value, Fraction) for value in dist.probs):
        texts = [_fmt_value(value, exact) for value in dist.probs]
    else:
        texts = format_column(dist.probs, "%.17g")
    return "t,prob\n" + "".join(map("%d,%s\n".__mod__, enumerate(texts, 1)))


def success_curve_csv(curve: SuccessCurve) -> str:
    rows = [None] * (3 * len(curve.m))
    rows[0::3] = curve.m
    rows[1::3] = format_column(curve.prob_commutator, "%.17g")
    rows[2::3] = format_column(curve.prob_full, "%.17g")
    return "m,prob_commutator,prob_full\n" + "%s,%s,%s\n" * len(curve.m) % tuple(rows)


# ── JSON ─────────────────────────────────────────────────────────────────

def statistics_json(stats: Statistics) -> str:
    return json.dumps(stats.to_dict(), indent=2) + "\n"


# ── SVG ──────────────────────────────────────────────────────────────────

def _svg_chart(xs, series: list[tuple[str, list[float]]],
               x_label: str, y_label: str) -> str:
    """Line chart of every (name, ys) in series over the one x axis xs."""
    xs = np.asarray(xs, dtype=float)
    series = [(name, np.asarray(ys, dtype=float)) for name, ys in series]
    ys_all = np.concatenate([ys for _, ys in series] + [np.empty(0)])
    x_min, x_max = (float(xs.min()), float(xs.max())) if xs.size else (0.0, 1.0)
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
    # "x," and "y " texts interleaved; the x half is formatted once for all series
    coords = [None] * (2 * xs.size)
    coords[0::2] = format_column(px(xs), "%.2f,")
    for i, (name, ys) in enumerate(series):
        color = _CURVE_COLORS[i % len(_CURVE_COLORS)]
        coords[1::2] = format_column(py(ys), "%.2f ")
        points = "".join(coords)[:-1]
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                     f'points="{points}"/>')
        parts.append(f'<text x="{_MARGIN_LEFT + plot_w - 8}" '
                     f'y="{_MARGIN_TOP + 16 + 16 * i}" font-size="12" '
                     f'text-anchor="end" fill="{color}">{name}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def success_curve_svg(curve: SuccessCurve) -> str:
    return _svg_chart(curve.m, [("prob_commutator", curve.prob_commutator),
                                ("prob_full", curve.prob_full)],
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
