"""Self-contained SVG emission for the two standard figures, one function each.

No plotting library: the files are small hand-built SVG 1.1 documents with
a viewBox, axes, tick labels, a legend and one polyline per curve.
``render_tradeoff_svg`` draws the two-task trade-off (x = fine-tune risk,
y = pretrain risk) and ``render_ft_svg`` the fine-tune-only curve (x =
ensemble weight, y = fine-tune risk), each for the ensemble at one ridge
level and from the analytic rows' means over seeds.
"""

from __future__ import annotations

import math

import numpy as np

from .estimators import ENSEMBLE, PRETRAINED, RIDGE, RIDGELESS

WIDTH, HEIGHT = 720, 480
PAD_L, PAD_R, PAD_T, PAD_B = 80, 180, 50, 60

METHOD = "analytic"  # the rows a plot draws
TICKS = 5  # per axis

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


def _seed_means(rows, estimator, task, lam=None) -> dict[tuple, float]:
    """The mean over seeds of ``estimator``'s analytic risk on ``task`` at each of
    its points, keyed by (lambda, tau) in sorted order; ``lam`` keeps one level's."""
    groups: dict[tuple, list[float]] = {}
    for r in rows:
        if (r.estimator == estimator and r.task == task and r.method == METHOD
                and (lam is None or r.lam == lam)):
            groups.setdefault((r.lam, r.tau), []).append(r.value)
    if not groups:
        at = "" if lam is None else f" at lambda {lam!r}"
        raise MissingSeriesError(
            f"no {METHOD} rows for estimator {estimator!r} on task {task!r}{at}")
    return {point: float(np.mean(v)) for point, v in sorted(groups.items())}


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

    def ticks(self):
        for i in range(TICKS):
            x = self.lo + (self.hi - self.lo) * i / (TICKS - 1)
            v = 10.0**x if self.log else x
            yield self(v), f"{v:.3g}"


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


def _legend(markers):
    """The four estimators' legend; those in ``markers`` show a dot, the others a line."""
    x = WIDTH - PAD_R + 16
    parts = []
    for i, est in enumerate(COLORS):
        y = PAD_T + 14 + 22 * i
        if est in markers:
            parts.append(f'<circle cx="{x + 11}" cy="{y - 4}" r="4" fill="{COLORS[est]}"/>')
        else:
            parts.append(f'<line x1="{x}" y1="{y - 4}" x2="{x + 22}" y2="{y - 4}" '
                         f'stroke="{COLORS[est]}" stroke-width="2"/>')
        parts.append(f'<text x="{x + 28}" y="{y}" font-family="sans-serif" '
                     f'font-size="12">{_escape(LABELS[est])}</text>')
    return "\n".join(parts) + "\n"


def _ensemble_curve(points, xaxis, yaxis) -> list[str]:
    """The ensemble's tau sweep: a polyline through ``points`` with a dot at each."""
    pts = " ".join(f"{xaxis(x):.2f},{yaxis(y):.2f}" for x, y in points)
    return [f'<polyline points="{pts}" fill="none" '
            f'stroke="{COLORS[ENSEMBLE]}" stroke-width="2"/>',
            *(f'<circle cx="{xaxis(x):.2f}" cy="{yaxis(y):.2f}" r="2.5" '
              f'fill="{COLORS[ENSEMBLE]}"/>' for x, y in points)]


def _write(path, title, xaxis, yaxis, labels, body, markers) -> None:
    """Write one figure to ``path``: ``title``, the axes with their two ``labels``,
    the ``body`` elements and the legend (see ``_legend`` for ``markers``)."""
    svg = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
           f'viewBox="0 0 {WIDTH} {HEIGHT}">\n'
           f'<rect width="100%" height="100%" fill="white"/>\n'
           f'<text x="{WIDTH / 2:.1f}" y="28" font-family="sans-serif" font-size="16" '
           f'text-anchor="middle">{_escape(title)}</text>\n'
           + _axes(xaxis, yaxis, *labels) + "\n".join(body) + "\n" + _legend(markers)
           + "</svg>\n")
    try:
        with open(path, "w") as fh:
            fh.write(svg)
    except OSError as exc:
        raise OSError(f"cannot write SVG to {path}: {exc}") from exc


def render_tradeoff_svg(rows, path, lam: float) -> None:
    """Write the two-task trade-off to ``path``, each point a mean over seeds.

    The ensemble's tau sweep at ridge level ``lam`` is a curve in (fine-tune
    risk, pretrain risk) space; the ridge family's levels are dots, and the
    interpolating and pretrained estimators squares.
    """
    def points(estimator, level=None):
        ft, pre = (_seed_means(rows, estimator, task, level) for task in ("ft", "pre"))
        return [(ft[k], pre[k]) for k in ft]

    curve, ridge = points(ENSEMBLE, lam), points(RIDGE)
    singles = {est: points(est)[0] for est in (RIDGELESS, PRETRAINED)}
    every = curve + ridge + list(singles.values())
    xaxis = _Axis([x for x, _ in every], PAD_L, WIDTH - PAD_R)
    yaxis = _Axis([y for _, y in every], HEIGHT - PAD_B, PAD_T)
    body = _ensemble_curve(curve, xaxis, yaxis)
    body += [f'<circle cx="{xaxis(x):.2f}" cy="{yaxis(y):.2f}" r="4" fill="{COLORS[RIDGE]}"/>'
             for x, y in ridge]
    body += [f'<rect x="{xaxis(x) - 4:.2f}" y="{yaxis(y) - 4:.2f}" width="8" '
             f'height="8" fill="{COLORS[est]}"/>' for est, (x, y) in singles.items()]
    _write(path, f"case {rows[0].case or '?'}: two-task trade-off", xaxis, yaxis,
           ("fine-tune excess risk", "pretrain excess risk"), body,
           (RIDGE, RIDGELESS, PRETRAINED))


def render_ft_svg(rows, path, lam: float) -> None:
    """Write the fine-tune risk against the ensemble weight to ``path``.

    The ensemble's tau sweep at ridge level ``lam`` is a curve; ridge at
    ``lam`` and the interpolating and pretrained estimators are dashed
    horizontal lines.  Each value is a mean over seeds.
    """
    curve = [(tau, v) for (_, tau), v in _seed_means(rows, ENSEMBLE, "ft", lam).items()]
    refs = [(est, v) for est in (RIDGE, RIDGELESS, PRETRAINED)
            for v in _seed_means(rows, est, "ft", lam if est == RIDGE else None).values()]
    xaxis = _Axis([t for t, _ in curve], PAD_L, WIDTH - PAD_R)
    yaxis = _Axis([v for _, v in curve + refs], HEIGHT - PAD_B, PAD_T)
    body = _ensemble_curve(curve, xaxis, yaxis)
    body += [f'<line x1="{PAD_L}" y1="{yaxis(v):.2f}" x2="{WIDTH - PAD_R}" y2="{yaxis(v):.2f}" '
             f'stroke="{COLORS[est]}" stroke-width="1.5" stroke-dasharray="6 3"/>'
             for est, v in refs]
    _write(path, f"case {rows[0].case or '?'}: fine-tune risk vs ensemble weight", xaxis,
           yaxis, ("ensemble weight tau", "fine-tune excess risk"), body, ())
