"""Self-contained SVG line plots of sweep results.

The pair of panels mirrors the usual stacked layout: real energies
over a on top, half-widths over a below. Solid polylines follow the
tracked branches; dashed gray polylines show the unperturbed levels.
No external assets, scripts, or fonts beyond a generic family name.
"""

from __future__ import annotations

import math

import numpy as np

from .sweep import SweepResult

__all__ = ["energies_svg", "widths_svg"]

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_WIDTH, _HEIGHT = 760, 420
_LEFT, _RIGHT, _TOP, _BOTTOM = 72, 148, 34, 46


def _ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    """Round tick positions covering [lo, hi] on a 1-2-5 ladder."""
    span = hi - lo
    raw = span / max(target - 1, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    step = 10.0 * mag
    for mult in (1.0, 2.0, 2.5, 5.0):
        if span / (mult * mag) <= target:
            step = mult * mag
            break
    k0 = math.ceil(lo / step - 1e-9)
    k1 = math.floor(hi / step + 1e-9)
    return [k * step for k in range(k0, k1 + 1)]


def _fmt(v: float) -> str:
    return f"{v:.8g}"


def _panel(result: SweepResult, ylabel: str, branch_rows, bare_rows) -> str:
    a = result.a
    x_lo, x_hi = float(a[0]), float(a[-1])
    stack = np.concatenate([np.asarray(r, dtype=float) for r in branch_rows + bare_rows])
    finite = stack[np.isfinite(stack)]
    y_lo, y_hi = float(finite.min()), float(finite.max())
    if y_hi - y_lo < 1e-12:
        pad = max(abs(y_hi), 1.0) * 0.05
    else:
        pad = 0.04 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    px0, px1 = _LEFT, _WIDTH - _RIGHT
    py0, py1 = _TOP, _HEIGHT - _BOTTOM

    def sx(v):
        return px0 + (v - x_lo) / (x_hi - x_lo) * (px1 - px0)

    def sy(v):
        return py1 - (v - y_lo) / (y_hi - y_lo) * (py1 - py0)

    def poly(xs, ys, style):
        xy = np.column_stack((sx(np.asarray(xs)), sy(np.asarray(ys))))
        pts = " ".join(["%.2f,%.2f"] * xy.shape[0]) % tuple(xy.ravel().tolist())
        return f'<polyline fill="none" {style} points="{pts}"/>'

    title = result.scenario.label.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_WIDTH} {_HEIGHT}"'
        ' font-family="Helvetica, Arial, sans-serif" font-size="12">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{px0}" y="20" font-size="14">{title}</text>',
        f'<rect x="{px0}" y="{py0}" width="{px1 - px0}" height="{py1 - py0}"'
        ' fill="none" stroke="#444"/>',
    ]
    for v in _ticks(x_lo, x_hi):
        x = sx(v)
        parts.append(f'<line x1="{x:.2f}" y1="{py1}" x2="{x:.2f}" y2="{py1 + 5}" stroke="#444"/>')
        parts.append(
            f'<text x="{x:.2f}" y="{py1 + 18}" text-anchor="middle">{_fmt(v)}</text>'
        )
    for v in _ticks(y_lo, y_hi):
        y = sy(v)
        parts.append(f'<line x1="{px0 - 5}" y1="{y:.2f}" x2="{px0}" y2="{y:.2f}" stroke="#444"/>')
        parts.append(
            f'<text x="{px0 - 8}" y="{y + 4:.2f}" text-anchor="end">{_fmt(v)}</text>'
        )
    parts.append(
        f'<text x="{(px0 + px1) / 2:.0f}" y="{_HEIGHT - 12}" text-anchor="middle">a</text>'
    )
    parts.append(
        f'<text x="18" y="{(py0 + py1) / 2:.0f}" text-anchor="middle"'
        f' transform="rotate(-90 18 {(py0 + py1) / 2:.0f})">{ylabel}</text>'
    )

    dashed = 'stroke="#999" stroke-width="1" stroke-dasharray="6 4"'
    for row in bare_rows:
        parts.append(poly(a, row, dashed))
    for k, row in enumerate(branch_rows):
        color = _PALETTE[k % len(_PALETTE)]
        parts.append(poly(a, row, f'stroke="{color}" stroke-width="1.6"'))

    lx, ly = px1 + 12, py0 + 8
    for k in range(len(branch_rows)):
        color = _PALETTE[k % len(_PALETTE)]
        parts.append(
            f'<line x1="{lx}" y1="{ly + 18 * k}" x2="{lx + 22}" y2="{ly + 18 * k}"'
            f' stroke="{color}" stroke-width="1.6"/>'
        )
        parts.append(f'<text x="{lx + 28}" y="{ly + 18 * k + 4}">branch {k + 1}</text>')
    ly += 18 * len(branch_rows)
    parts.append(f'<line x1="{lx}" y1="{ly}" x2="{lx + 22}" y2="{ly}" {dashed}/>')
    parts.append(f'<text x="{lx + 28}" y="{ly + 4}">unperturbed</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def energies_svg(result: SweepResult) -> str:
    """Top panel: branch energies E_i(a) with dashed e_i(a) overlays."""
    return _panel(
        result,
        "E",
        [t.energy for t in result.trajectories],
        [result.bare[:, i].real for i in range(result.bare.shape[1])],
    )


def widths_svg(result: SweepResult) -> str:
    """Bottom panel: half-widths with dashed unperturbed overlays."""
    return _panel(
        result,
        "Γ/2",
        [t.gamma_half for t in result.trajectories],
        [-result.bare[:, i].imag for i in range(result.bare.shape[1])],
    )
