"""Polyline decimation: every dropped point lies within the tolerance of the drawn line."""

import math
import xml.etree.ElementTree as ET
from dataclasses import replace

import numpy as np
import pytest

from levelcross import svgplot
from levelcross.model import SweepGrid, with_profile
from levelcross.presets import PRESET_IDS, preset
from levelcross.sweep import run_sweep

TOL = 0.005  # px: half of the 0.01 px the points are printed to


def segment_distance(px, py, k, i, j):
    """Distance of point k to the segment from point i to point j, one value at a time."""
    bx, by = px[j] - px[i], py[j] - py[i]
    dx, dy = px[k] - px[i], py[k] - py[i]
    length2 = bx * bx + by * by
    t = min(max((dx * bx + dy * by) / length2, 0.0), 1.0) if length2 > 0 else 0.0
    ex, ey = dx - t * bx, dy - t * by
    return math.sqrt(ex * ex + ey * ey)


def worst_dropped(px, py, kept):
    """The largest distance of a dropped point to the segment between its kept neighbours."""
    px, py = px.tolist(), py.tolist()
    worst = 0.0
    for i, j in zip(kept[:-1], kept[1:]):
        for k in range(i + 1, j):
            worst = max(worst, segment_distance(px, py, k, i, j))
    return worst


def reference_keep(px, py):
    """Douglas-Peucker, one segment at a time; the first of equally far points splits."""
    px, py = px.tolist(), py.tolist()
    kept = {0, len(px) - 1}
    stack = [(0, len(px) - 1)]
    while stack:
        i, j = stack.pop()
        if j - i < 2:
            continue
        dist = [segment_distance(px, py, k, i, j) for k in range(i + 1, j)]
        far = max(dist)
        if far > TOL:
            k = i + 1 + dist.index(far)
            kept.add(k)
            stack += [(i, k), (k, j)]
    return sorted(kept)


def panels(result):
    """Exact pixel coordinates (before the 0.01 px rounding) of both panels' polylines."""
    bare = result.bare
    for rows in (
        [bare[:, i].real for i in range(bare.shape[1])] + [t.energy for t in result.trajectories],
        [-bare[:, i].imag for i in range(bare.shape[1])]
        + [t.gamma_half for t in result.trajectories],
    ):
        sx, sy, _, _ = svgplot._axes(result, rows)
        yield sx(result.a), sy(np.array(rows, dtype=float))


def sweep(pid, steps):
    scenario = preset(pid)
    grid = SweepGrid(scenario.sweep.a_min, scenario.sweep.a_max, steps)
    return run_sweep(replace(scenario, sweep=grid))


def assert_within_tolerance(px, py):
    """Every row: kept indices rise from the first point to the last, drops lie within TOL."""
    keep = svgplot._keep(px, py)
    for row, mask in zip(py, keep):
        kept = np.flatnonzero(mask).tolist()
        assert kept[0] == 0 and kept[-1] == px.size - 1
        assert all(i < j for i, j in zip(kept[:-1], kept[1:]))
        assert worst_dropped(px, row, kept) <= TOL
        # negative control: without the kept interior point farthest from
        # its neighbours' segment, some dropped point lies beyond TOL
        interior = [
            (segment_distance(px.tolist(), row.tolist(), k, i, j), n)
            for n, (i, k, j) in enumerate(zip(kept[:-2], kept[1:-1], kept[2:]), start=1)
        ]
        if interior:
            worst = kept[:max(interior)[1]] + kept[max(interior)[1] + 1 :]
            assert worst_dropped(px, row, worst) > TOL
    return keep


@pytest.mark.parametrize("steps", [101, 2001])
@pytest.mark.parametrize("pid", PRESET_IDS)
def test_dropped_points_lie_within_the_tolerance(pid, steps):
    for px, py in panels(sweep(pid, steps)):
        assert_within_tolerance(px, py)


def test_dropped_points_lie_within_the_tolerance_at_criterion_11_size():
    masks = [assert_within_tolerance(px, py) for px, py in panels(sweep("fig4", 10_000))]
    kept = sum(int(m.sum()) for m in masks)
    assert kept < 160_000 // 50  # under one point in fifty is drawn


@pytest.mark.parametrize("pid", PRESET_IDS)
def test_batched_keep_equals_one_segment_at_a_time(pid):
    for px, py in panels(sweep(pid, 101)):
        keep = svgplot._keep(px, py)
        assert [np.flatnonzero(m).tolist() for m in keep] == [reference_keep(px, y) for y in py]


def test_equally_far_points_split_at_the_first():
    # integer pixels on plateaus: many interior points lie exactly equally far
    px = np.arange(40.0)
    py = np.array([[0, 3, 3, 3, 0, 0, 5, 5, 1, 1] * 4, [2, 2, 0, 0] * 10], dtype=float)
    keep = svgplot._keep(px, py)
    assert [np.flatnonzero(m).tolist() for m in keep] == [reference_keep(px, y) for y in py]
    # a repeated point: whichever copy splits, the other lies on its segment
    keep = svgplot._keep(np.array([0.0, 1.0, 1.0, 2.0]), np.array([[0.0, 1.0, 1.0, 0.0]]))
    assert np.flatnonzero(keep[0]).tolist() == [0, 1, 3]


def test_distance_is_to_the_segment_not_its_line():
    # point 2 lies on the line through points 0 and 3, but 5 px beyond the segment
    keep = svgplot._keep(np.array([0.0, 10.0, -5.0, 20.0]), np.zeros((1, 4)))
    assert np.flatnonzero(keep[0]).tolist() == [0, 1, 2, 3]


def test_overflowing_distances_keep_their_points():
    # finite pixels whose squares overflow: inf, then NaN (inf/inf) distances
    keep = svgplot._keep(np.arange(5.0), np.array([[0.0, 1e200, 2e200, 1e200, 0.0]]))
    assert keep.all()


def test_non_finite_points_and_their_neighbours_are_kept():
    px = np.linspace(72.0, 612.0, 60)
    smooth = 100.0 + 0.25 * px + 1e-5 * (px - 300.0) ** 2
    py = np.vstack([smooth, smooth])
    bad = {1: np.nan, 20: np.inf, 21: np.nan, 40: -np.inf}
    for k, v in bad.items():
        py[0, k] = v
    keep = svgplot._keep(px, py)
    near = {k + d for k in bad for d in (-1, 0, 1)}
    assert near <= set(np.flatnonzero(keep[0]).tolist())
    assert not near <= set(np.flatnonzero(keep[1]).tolist())
    # the finite stretches between them are decimated on their own
    anchors = sorted(near | {0, px.size - 1})
    want = set(anchors)
    for lo, hi in zip(anchors[:-1], anchors[1:]):
        want |= {lo + k for k in reference_keep(px[lo : hi + 1], py[0, lo : hi + 1])}
    assert len(want) < px.size
    assert np.flatnonzero(keep[0]).tolist() == sorted(want)


def test_flat_width_range_is_padded():
    # equal half-widths under a constant real coupling stay equal to within
    # rounding, so the widths panel pads the flat range by 5 % of
    # max(0.5, 1) each way: its y axis spans [0.45, 0.55]
    scenario = with_profile(preset("fig1"), "constant")
    levels = tuple(replace(level, half_width=0.5) for level in scenario.levels)
    result = run_sweep(replace(scenario, levels=levels, sweep=SweepGrid(0.0, 1.5, 101)))
    widths = np.array([t.gamma_half for t in result.trajectories])
    assert np.ptp(widths) < 1e-12
    svg = ET.fromstring(svgplot.widths_svg(result))
    ns = "{http://www.w3.org/2000/svg}"
    frame = svg.findall(f"{ns}rect")[1]
    top = float(frame.get("y"))
    bottom = top + float(frame.get("height"))
    # tick labels sit 4 px below their tick; read the axis off the outer two
    ticks = [
        (float(t.text), float(t.get("y")) - 4.0)
        for t in svg.findall(f"{ns}text")
        if t.get("text-anchor") == "end"
    ]
    (v0, y0), (v1, y1) = ticks[0], ticks[-1]
    per_px = (v1 - v0) / (y0 - y1)
    assert abs(v0 + (y0 - bottom) * per_px - 0.45) < 1e-4
    assert abs(v0 + (y0 - top) * per_px - 0.55) < 1e-4
