"""Self-contained SVG emission for the two standard plots.

No plotting library: the files are small hand-built SVG 1.1 documents with
a viewBox, axes, tick labels, a legend and one polyline per curve.  Two
modes: the two-task trade-off (x = fine-tune risk, y = pretrain risk) and
the fine-tune-only curve (x = ensemble weight, y = fine-tune risk).
"""

from __future__ import annotations

import math

import numpy as np

from .estimators import ENSEMBLE, PRETRAINED, RIDGE, RIDGELESS

WIDTH, HEIGHT = 720, 480
PAD_L, PAD_R, PAD_T, PAD_B = 80, 180, 50, 60

METHOD = "analytic"  # the rows a plot draws

COLORS = {
    ENSEMBLE: "#1f77b4",
    RIDGE: "#ff7f0e",
    RIDGELESS: "#2ca02c",
    PRETRAINED: "#d62728",
}
LABELS = {
    ENSEMBLE: "ensemble (tau sweep)",
    RIDGE: "ridge family",
    RIDGELESS: "interpolating fine-tune",
    PRETRAINED: PRETRAINED,
}


def _escape(text: str) -> str:  # html.escape(text, quote=False), without html.entities
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


class MissingSeriesError(ValueError):
    """A required estimator series is absent from the rows."""


def _mean(vals):
    return float(np.mean(vals))


def _collect(rows, estimator, task):
    picked = [r for r in rows if r.estimator == estimator and r.task == task
              and r.method == METHOD]
    if not picked:
        raise MissingSeriesError(
            f"no {METHOD} rows for estimator {estimator!r} on task {task!r}")
    return picked


def _group_mean(rows, key):
    groups: dict[float, list[float]] = {}
    for r in rows:
        groups.setdefault(key(r), []).append(r.value)
    return {k: _mean(v) for k, v in groups.items()}


class _Axis:
    """Linear or log10 mapping from data to pixel coordinates."""

    def __init__(self, values, pixel_lo, pixel_hi):
        vals = [v for v in values if math.isfinite(v)]
        lo, hi = min(vals), max(vals)
        self.log = lo > 0 and hi / lo > 100.0
        if self.log:
            lo, hi = math.log10(lo), math.log10(hi)
        if hi - lo < 1e-300:
            lo, hi = lo - 0.5, hi + 0.5
        span = hi - lo
        self.lo, self.hi = lo - 0.05 * span, hi + 0.05 * span
        self.pixel_lo, self.pixel_hi = pixel_lo, pixel_hi

    def __call__(self, v):
        x = math.log10(v) if self.log else v
        frac = (x - self.lo) / (self.hi - self.lo)
        return self.pixel_lo + frac * (self.pixel_hi - self.pixel_lo)

    def ticks(self, count=5):
        out = []
        for i in range(count):
            x = self.lo + (self.hi - self.lo) * i / (count - 1)
            v = 10.0**x if self.log else x
            out.append((self(v), f"{v:.3g}"))
        return out


def _svg_header(title):
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">\n'
        f'<rect width="100%" height="100%" fill="white"/>\n'
        f'<text x="{WIDTH / 2:.1f}" y="28" font-family="sans-serif" font-size="16" '
        f'text-anchor="middle">{_escape(title)}</text>\n'
    )


def _axes(xaxis, yaxis, xlabel, ylabel):
    x0, x1 = PAD_L, WIDTH - PAD_R
    y0, y1 = HEIGHT - PAD_B, PAD_T
    parts = [
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>',
    ]
    for px, label in xaxis.ticks():
        parts.append(f'<line x1="{px:.1f}" y1="{y0}" x2="{px:.1f}" y2="{y0 + 5}" stroke="black"/>')
        parts.append(
            f'<text x="{px:.1f}" y="{y0 + 20}" font-family="sans-serif" font-size="11" '
            f'text-anchor="middle">{label}</text>')
    for py, label in yaxis.ticks():
        parts.append(f'<line x1="{x0 - 5}" y1="{py:.1f}" x2="{x0}" y2="{py:.1f}" stroke="black"/>')
        parts.append(
            f'<text x="{x0 - 8}" y="{py + 4:.1f}" font-family="sans-serif" font-size="11" '
            f'text-anchor="end">{label}</text>')
    parts.append(
        f'<text x="{(x0 + x1) / 2:.1f}" y="{HEIGHT - 16}" font-family="sans-serif" '
        f'font-size="13" text-anchor="middle">{_escape(xlabel)}</text>')
    parts.append(
        f'<text x="22" y="{(y0 + y1) / 2:.1f}" font-family="sans-serif" font-size="13" '
        f'text-anchor="middle" transform="rotate(-90 22 {(y0 + y1) / 2:.1f})">'
        f'{_escape(ylabel)}</text>')
    return "\n".join(parts) + "\n"


def _legend(entries):
    x = WIDTH - PAD_R + 16
    parts = []
    for i, (color, label, kind) in enumerate(entries):
        y = PAD_T + 14 + 22 * i
        if kind == "line":
            parts.append(f'<line x1="{x}" y1="{y - 4}" x2="{x + 22}" y2="{y - 4}" '
                         f'stroke="{color}" stroke-width="2"/>')
        else:
            parts.append(f'<circle cx="{x + 11}" cy="{y - 4}" r="4" fill="{color}"/>')
        parts.append(f'<text x="{x + 28}" y="{y}" font-family="sans-serif" '
                     f'font-size="12">{_escape(label)}</text>')
    return "\n".join(parts) + "\n"


def render_tradeoff_svg(
    rows,
    path,
    mode: str = "tradeoff",
    title: str = "",
    ensemble_lambda: float | None = None,
    ft_lambda: float | None = None,
) -> None:
    """Write one plot to ``path``.

    mode "tradeoff": ensemble tau-sweep as a polyline in (ft risk, pre risk)
    space, ridge family / interpolating / pretrained as labelled markers.
    mode "ft_curve": mean fine-tune risk against the ensemble weight with
    the comparison estimators as horizontal reference lines.
    """
    if mode not in ("tradeoff", "ft_curve"):
        raise ValueError(f"unknown mode {mode!r}")
    ens_pick = [r for r in rows if r.estimator == ENSEMBLE
                and (ensemble_lambda is None or r.lam == ensemble_lambda)]
    if not ens_pick:
        raise MissingSeriesError(f"no rows for estimator {ENSEMBLE!r}")
    case = rows[0].case if rows else ""
    if not title:
        title = f"case {case or '?'}: " + (
            "two-task trade-off" if mode == "tradeoff" else "fine-tune risk vs ensemble weight")

    if mode == "tradeoff":
        ens_ft = _group_mean(_collect(ens_pick, ENSEMBLE, "ft"), lambda r: r.tau)
        ens_pre = _group_mean(_collect(ens_pick, ENSEMBLE, "pre"), lambda r: r.tau)
        curve = [(ens_ft[t], ens_pre[t]) for t in sorted(ens_ft)]
        ridge_ft = _group_mean(_collect(rows, RIDGE, "ft"), lambda r: r.lam)
        ridge_pre = _group_mean(_collect(rows, RIDGE, "pre"), lambda r: r.lam)
        ridge_pts = [(ridge_ft[l], ridge_pre[l]) for l in sorted(ridge_ft)]
        singles = {}
        for est in (RIDGELESS, PRETRAINED):
            singles[est] = (
                _mean([r.value for r in _collect(rows, est, "ft")]),
                _mean([r.value for r in _collect(rows, est, "pre")]),
            )
        xs = [p[0] for p in curve + ridge_pts + list(singles.values())]
        ys = [p[1] for p in curve + ridge_pts + list(singles.values())]
        xaxis = _Axis(xs, PAD_L, WIDTH - PAD_R)
        yaxis = _Axis(ys, HEIGHT - PAD_B, PAD_T)
        body = []
        pts = " ".join(f"{xaxis(x):.2f},{yaxis(y):.2f}" for x, y in curve)
        body.append(f'<polyline points="{pts}" fill="none" '
                    f'stroke="{COLORS[ENSEMBLE]}" stroke-width="2"/>')
        for x, y in curve:
            body.append(f'<circle cx="{xaxis(x):.2f}" cy="{yaxis(y):.2f}" r="2.5" '
                        f'fill="{COLORS[ENSEMBLE]}"/>')
        for x, y in ridge_pts:
            body.append(f'<circle cx="{xaxis(x):.2f}" cy="{yaxis(y):.2f}" r="4" '
                        f'fill="{COLORS[RIDGE]}"/>')
        for est, (x, y) in singles.items():
            body.append(f'<rect x="{xaxis(x) - 4:.2f}" y="{yaxis(y) - 4:.2f}" width="8" '
                        f'height="8" fill="{COLORS[est]}"/>')
        legend = _legend([
            (COLORS[ENSEMBLE], LABELS[ENSEMBLE], "line"),
            (COLORS[RIDGE], LABELS[RIDGE], "marker"),
            (COLORS[RIDGELESS], LABELS[RIDGELESS], "marker"),
            (COLORS[PRETRAINED], LABELS[PRETRAINED], "marker"),
        ])
        xlabel, ylabel = "fine-tune excess risk", "pretrain excess risk"
    else:
        ens_ft = _group_mean(_collect(ens_pick, ENSEMBLE, "ft"), lambda r: r.tau)
        curve = sorted(ens_ft.items())
        refs = []
        for est in (RIDGE, RIDGELESS, PRETRAINED):
            sel = [r for r in rows if r.estimator == est
                   and (est != RIDGE or ft_lambda is None or r.lam == ft_lambda)]
            refs.append((est, _mean([r.value for r in _collect(sel, est, "ft")])))
        ys = [v for _, v in curve] + [v for _, v in refs]
        xaxis = _Axis([t for t, _ in curve], PAD_L, WIDTH - PAD_R)
        yaxis = _Axis(ys, HEIGHT - PAD_B, PAD_T)
        body = []
        pts = " ".join(f"{xaxis(t):.2f},{yaxis(v):.2f}" for t, v in curve)
        body.append(f'<polyline points="{pts}" fill="none" '
                    f'stroke="{COLORS[ENSEMBLE]}" stroke-width="2"/>')
        for t, v in curve:
            body.append(f'<circle cx="{xaxis(t):.2f}" cy="{yaxis(v):.2f}" r="2.5" '
                        f'fill="{COLORS[ENSEMBLE]}"/>')
        for est, v in refs:
            py = yaxis(v)
            body.append(f'<line x1="{PAD_L}" y1="{py:.2f}" x2="{WIDTH - PAD_R}" y2="{py:.2f}" '
                        f'stroke="{COLORS[est]}" stroke-width="1.5" stroke-dasharray="6 3"/>')
        legend = _legend([
            (COLORS[ENSEMBLE], LABELS[ENSEMBLE], "line"),
            (COLORS[RIDGE], LABELS[RIDGE], "line"),
            (COLORS[RIDGELESS], LABELS[RIDGELESS], "line"),
            (COLORS[PRETRAINED], LABELS[PRETRAINED], "line"),
        ])
        xlabel, ylabel = "ensemble weight tau", "fine-tune excess risk"

    svg = (_svg_header(title) + _axes(xaxis, yaxis, xlabel, ylabel)
           + "\n".join(body) + "\n" + legend + "</svg>\n")
    try:
        with open(path, "w") as fh:
            fh.write(svg)
    except OSError as exc:
        raise OSError(f"cannot write SVG to {path}: {exc}") from exc
