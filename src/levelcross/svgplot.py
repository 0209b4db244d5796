"""Self-contained SVG line plots of sweep results.

The pair of panels mirrors the usual stacked layout: real energies
over a on top, half-widths over a below. Solid polylines follow the
tracked branches; dashed gray polylines show the unperturbed levels.
No external assets, scripts, or fonts beyond a generic family name.

Points are printed to 0.01 px, so a polyline carries only the grid
points it needs at that resolution: Douglas-Peucker (Cartographica
10:112, 1973) in pixel space drops every point that lies within
TOLERANCE_PX, half the printed quantum, of the segment joining the
points kept around it. The first and last point of each polyline, and
every non-finite point with its neighbours, are always kept. The
simplifier runs on one polyline at a time, and each of its passes
costs only the points still undecided.
`trajectories.csv` carries every grid point.
"""

from __future__ import annotations

import math

import numpy as np

from .sweep import SweepResult

__all__ = ["energies_svg", "widths_svg"]

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_WIDTH, _HEIGHT = 760, 420
_PX0, _PX1, _PY0, _PY1 = 72, _WIDTH - 148, 34, _HEIGHT - 46  # the plot box, in pixels

TOLERANCE_PX = 0.005  # half of the 0.01 px the points are printed to


def _ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    """Round tick positions covering [lo, hi] on a 1-2-5 ladder."""
    span = hi - lo
    raw = span / max(target - 1, 1)
    mag = 10.0 ** math.floor(math.log10(raw)) if 0.0 < raw < math.inf else 0.0
    if not mag > 0.0:  # the span under- or overflows the 1-2-5 ladder
        return [lo, hi]
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


def _points(px, py) -> str:
    """The points attribute of a polyline, to 0.01 px."""
    xy = np.column_stack((px, py))
    return " ".join(["%.2f,%.2f"] * xy.shape[0]) % tuple(xy.ravel().tolist())


@np.errstate(over="ignore", invalid="ignore")  # such a distance is inf or NaN: kept
def _keep(px, py) -> np.ndarray:
    """Mask of the points each row of ``py`` (over the shared ``px``) keeps.

    Douglas-Peucker on one row at a time: a segment between kept points
    drops its interior when each interior point lies within TOLERANCE_PX
    of the segment (not of its infinite line). Otherwise the farthest
    point, the first on a tie, is kept and both halves go round again;
    one numpy pass splits every open segment of the row. Non-finite
    points and their neighbours are kept up front, so each segment has
    finite ends, and a NaN or infinite distance never drops a point.

    The open points' coordinates are carried from pass to pass,
    compacted with their indices, and each segment's values reach its
    points by np.repeat; the distances are computed in place, in the
    buffers of those repeats, and the division runs unmasked unless a
    segment has length 0. So memory stays within a dozen arrays of one
    row, whatever the number of rows.
    """
    px = np.broadcast_to(px, py.shape)
    bad = ~(np.isfinite(px) & np.isfinite(py))
    keep = bad.copy()
    keep[:, 1:] |= bad[:, :-1]
    keep[:, :-1] |= bad[:, 1:]
    keep[:, [0, -1]] = True
    for x, y, flat in zip(px, py, keep):
        todo = np.flatnonzero(~flat)
        tx, ty = x[todo], y[todo]  # the open points, compacted with todo
        while todo.size:
            # a gap in todo holds a kept point, so each run of todo is one open
            # segment's interior, between the kept points just outside it
            first = np.flatnonzero(np.diff(todo, prepend=-2) != 1)
            size = np.diff(first, append=todo.size)
            i, j = todo[first] - 1, todo[first + size - 1] + 1
            ax, ay = x[i], y[i]
            bx, by = x[j] - ax, y[j] - ay
            length2 = bx * bx + by * by  # never NaN: the ends are finite
            dx, dy = np.repeat(ax, size), np.repeat(ay, size)
            np.subtract(tx, dx, out=dx)
            np.subtract(ty, dy, out=dy)
            bx, by = np.repeat(bx, size), np.repeat(by, size)
            t = dx * bx
            t += dy * by
            if length2.all():
                np.divide(t, np.repeat(length2, size), out=t)
            else:  # a segment of length 0 measures from its start, t = 0
                length2 = np.repeat(length2, size)
                t = np.divide(t, length2, out=np.zeros_like(t), where=length2 > 0)
            np.clip(t, 0.0, 1.0, out=t)
            bx *= t
            dx -= bx
            by *= t
            dy -= by
            dx *= dx
            dy *= dy
            dx += dy
            dist = np.sqrt(dx, out=dx)
            dist[np.isnan(dist)] = np.inf
            del bx, by, dy, t, length2  # a row's buffers, freed before the compaction
            far = np.maximum.reduceat(dist, first)
            at_far = np.flatnonzero(dist == np.repeat(far, size))
            split = far > TOLERANCE_PX
            pick = at_far[np.searchsorted(at_far, first)][split]  # each segment's first
            flat[todo[pick]] = True
            still = np.repeat(split, size)
            still[pick] = False
            todo, tx, ty = todo[still], tx[still], ty[still]
    return keep


def _axes(result: SweepResult, rows: np.ndarray):
    """Data-to-pixel maps of a panel whose y range covers the (k, m) ``rows``,
    and its x and y ranges."""
    x_lo, x_hi = float(result.a[0]), float(result.a[-1])
    finite = rows[np.isfinite(rows)]
    y_lo, y_hi = float(finite.min()), float(finite.max())
    if y_hi - y_lo < 1e-12:
        pad = max(abs(y_hi), 1.0) * 0.05
    else:
        pad = 0.04 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def sx(v):
        return _PX0 + (v - x_lo) / (x_hi - x_lo) * (_PX1 - _PX0)

    def sy(v):
        return _PY1 - (v - y_lo) / (y_hi - y_lo) * (_PY1 - _PY0)

    return sx, sy, (x_lo, x_hi), (y_lo, y_hi)


def _panel(result: SweepResult, ylabel: str, branches: np.ndarray, bare: np.ndarray) -> str:
    """The panel of the (m, n) ``branches`` and ``bare`` tables, one line per column."""
    rows = np.concatenate((bare, branches), axis=1).T
    n_bare, n_branches = bare.shape[1], branches.shape[1]
    sx, sy, x_range, y_range = _axes(result, rows)
    px, py = sx(result.a), sy(rows)
    keep = _keep(px, py)
    points = [_points(px[k], y[k]) for y, k in zip(py, keep)]
    title = result.scenario.label.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_WIDTH} {_HEIGHT}"'
        ' font-family="Helvetica, Arial, sans-serif" font-size="12">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_PX0}" y="20" font-size="14">{title}</text>',
        f'<rect x="{_PX0}" y="{_PY0}" width="{_PX1 - _PX0}" height="{_PY1 - _PY0}"'
        ' fill="none" stroke="#444"/>',
    ]
    for v in _ticks(*x_range):
        x = sx(v)
        parts.append(f'<line x1="{x:.2f}" y1="{_PY1}" x2="{x:.2f}" y2="{_PY1 + 5}" stroke="#444"/>')
        parts.append(
            f'<text x="{x:.2f}" y="{_PY1 + 18}" text-anchor="middle">{_fmt(v)}</text>'
        )
    for v in _ticks(*y_range):
        y = sy(v)
        parts.append(f'<line x1="{_PX0 - 5}" y1="{y:.2f}" x2="{_PX0}" y2="{y:.2f}" stroke="#444"/>')
        parts.append(
            f'<text x="{_PX0 - 8}" y="{y + 4:.2f}" text-anchor="end">{_fmt(v)}</text>'
        )
    parts.append(
        f'<text x="{(_PX0 + _PX1) / 2:.0f}" y="{_HEIGHT - 12}" text-anchor="middle">a</text>'
    )
    parts.append(
        f'<text x="18" y="{(_PY0 + _PY1) / 2:.0f}" text-anchor="middle"'
        f' transform="rotate(-90 18 {(_PY0 + _PY1) / 2:.0f})">{ylabel}</text>'
    )

    dashed = 'stroke="#999" stroke-width="1" stroke-dasharray="6 4"'
    for pts in points[:n_bare]:
        parts.append(f'<polyline fill="none" {dashed} points="{pts}"/>')
    for k, pts in enumerate(points[n_bare:]):
        color = _PALETTE[k % len(_PALETTE)]
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.6" points="{pts}"/>')

    lx, ly = _PX1 + 12, _PY0 + 8
    for k in range(n_branches):
        color = _PALETTE[k % len(_PALETTE)]
        parts.append(
            f'<line x1="{lx}" y1="{ly + 18 * k}" x2="{lx + 22}" y2="{ly + 18 * k}"'
            f' stroke="{color}" stroke-width="1.6"/>'
        )
        parts.append(f'<text x="{lx + 28}" y="{ly + 18 * k + 4}">branch {k + 1}</text>')
    ly += 18 * n_branches
    parts.append(f'<line x1="{lx}" y1="{ly}" x2="{lx + 22}" y2="{ly}" {dashed}/>')
    parts.append(f'<text x="{lx + 28}" y="{ly + 4}">unperturbed</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def energies_svg(result: SweepResult) -> str:
    """Top panel: branch energies E_i(a) with dashed e_i(a) overlays."""
    return _panel(result, "E", result.branches.values.real, result.bare.real)


def widths_svg(result: SweepResult) -> str:
    """Bottom panel: half-widths with dashed unperturbed overlays."""
    return _panel(result, "Γ/2", -result.branches.values.imag, -result.bare.imag)
