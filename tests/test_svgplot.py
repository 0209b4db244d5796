"""Polyline decimation: every dropped point lies within the tolerance of the drawn line."""

import math
import tracemalloc
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
    values = result.branches.values
    for rows in (
        np.concatenate((bare.real.T, values.real.T)),
        np.concatenate((-bare.imag.T, -values.imag.T)),
    ):
        sx, sy, _, _ = svgplot._axes(result, rows)
        yield sx(result.a), sy(rows)


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


@np.errstate(over="ignore", invalid="ignore")
def reference_batched_keep(px, py):
    """svgplot._keep as it was: each pass gathers the open points again and
    expands per-segment values by their segment index."""
    px = np.broadcast_to(px, py.shape)
    bad = ~(np.isfinite(px) & np.isfinite(py))
    keep = bad.copy()
    keep[:, 1:] |= bad[:, :-1]
    keep[:, :-1] |= bad[:, 1:]
    keep[:, [0, -1]] = True
    x, y, flat = px.ravel(), py.ravel(), keep.reshape(-1)
    todo = np.flatnonzero(~flat)
    while todo.size:
        first = np.flatnonzero(np.diff(todo, prepend=-2) != 1)
        size = np.diff(first, append=todo.size)
        i, j = todo[first] - 1, todo[first + size - 1] + 1
        seg = np.repeat(np.arange(first.size), size)
        ax, ay = x[i], y[i]
        bx, by = x[j] - ax, y[j] - ay
        length2 = bx * bx + by * by
        dx, dy = x[todo] - ax[seg], y[todo] - ay[seg]
        bx, by, length2 = bx[seg], by[seg], length2[seg]
        t = np.divide(dx * bx + dy * by, length2, out=np.zeros_like(dx), where=length2 > 0)
        t = np.clip(t, 0.0, 1.0)
        ex, ey = dx - t * bx, dy - t * by
        dist = np.sqrt(ex * ex + ey * ey)
        dist[np.isnan(dist)] = np.inf
        far = np.maximum.reduceat(dist, first)
        at_far = np.flatnonzero(dist == far[seg])
        split = far > TOL
        pick = at_far[np.diff(seg[at_far], prepend=-1) != 0][split]
        flat[todo[pick]] = True
        still = split[seg]
        still[pick] = False
        todo = todo[still]
    return keep


@pytest.mark.parametrize("steps", [101, 10_000])
@pytest.mark.parametrize("pid", PRESET_IDS)
def test_keep_matches_the_regathering_passes_on_presets(pid, steps):
    for px, py in panels(sweep(pid, steps)):
        assert np.array_equal(svgplot._keep(px, py), reference_batched_keep(px, py))


def awkward_rows(rng, m=400):
    """Rows of m points: a noisy curve with NaN and +-inf entries, constant
    and collinear stretches, repeated points, a constant row and a
    collinear row."""
    px = np.linspace(72.0, 612.0, m)
    rows = []
    for _ in range(12):
        y = 200.0 + np.cumsum(rng.normal(scale=0.3, size=m))
        lo = int(rng.integers(0, m - 60))
        y[lo : lo + 30] = y[lo]  # constant
        y[lo + 30 : lo + 60] = y[lo] + 0.01 * np.arange(30)  # collinear
        y[rng.integers(0, m, size=6)] = rng.choice([np.nan, np.inf, -np.inf], size=6)
        rows.append(y)
    rows.append(np.full(m, 150.0))
    rows.append(100.0 + 0.5 * px)
    return px, np.array(rows)


def test_keep_matches_the_regathering_passes_on_awkward_rows():
    rng = np.random.default_rng(31)
    for m in (3, 4, 50, 400):
        px, py = awkward_rows(rng, max(m, 61))
        px, py = px[:m], py[:, :m]
        assert np.array_equal(svgplot._keep(px, py), reference_batched_keep(px, py))
    # repeated points, and rows that end where they start: segments with
    # equal ends
    px = np.repeat(np.arange(50.0), 3)
    py = np.repeat(rng.normal(size=(4, 50)), 3, axis=1)
    assert np.array_equal(svgplot._keep(px, py), reference_batched_keep(px, py))
    px = np.concatenate((np.arange(30.0), np.arange(30.0)[::-1]))
    py = np.vstack((np.zeros(60), np.sin(np.arange(60.0) * np.pi / 59) ** 2, 0.001 * px))
    assert np.array_equal(svgplot._keep(px, py), reference_batched_keep(px, py))


def test_keep_memory_is_bounded():
    # one polyline at a time: the masks bad and keep, one byte a point of
    # every row, and at most 12 arrays of one row's floats or indices: the
    # open points and their coordinates (3), the last pass's distances (1),
    # the pass's dx, dy, bx, by and t with one temporary (6), and one each
    # for a pass's one-byte masks and its per-segment arrays (2). Every row
    # at once peaked at 111 MB on this panel, out-of-place distances at 14.5 MB
    rows, m = 8, 10**5
    px = np.linspace(72.0, 612.0, m)
    k = np.arange(rows)[:, None]
    bump = 20.0 * np.exp(-(((px - 300.0 - 20.0 * k) / 3.0) ** 2))
    py = 200.0 + 100.0 * np.sin((k + 1) * px / 40.0 + k) + bump
    tracemalloc.start()
    try:
        keep = svgplot._keep(px, py)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * rows * m + 12 * 8 * m
    assert 2 * rows < keep.sum() < rows * m // 10


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
    widths = -result.branches.values.imag
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


def test_axes_cover_the_finite_values_and_map_in_place():
    # the y range is that of the finite values alone; sy into `out` gives the
    # bits of the out-of-place formula, which also maps the ticks
    rng = np.random.default_rng(5)
    rows = rng.normal(size=(6, 500))
    rows[rng.integers(0, 6, size=40), rng.integers(0, 500, size=40)] = np.nan
    rows[0, 7], rows[3, 9] = np.inf, -np.inf
    result = replace(sweep("fig1", 500), a=np.linspace(0.0, 1.5, 500))
    sx, sy, _, (y_lo, y_hi) = svgplot._axes(result, rows)
    finite = rows[np.isfinite(rows)]
    pad = 0.04 * (finite.max() - finite.min())
    assert (y_lo, y_hi) == (finite.min() - pad, finite.max() + pad)
    want = svgplot._PY1 - (rows - y_lo) / (y_hi - y_lo) * (svgplot._PY1 - svgplot._PY0)
    got = rows.copy()
    assert sy(got, out=got) is got
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert sy(float(rows[1, 1])) == want[1, 1]


def test_panel_without_a_finite_value_is_refused():
    result = sweep("fig1", 101)
    nowhere = np.full(result.bare.shape, np.nan)
    with pytest.raises(ValueError, match="finite"):
        svgplot._panel(result, "E", nowhere, nowhere)


def test_panel_memory_is_the_stacked_rows_and_the_simplifier():
    # the panel maps its own stacked copy of the rows in place and takes the
    # y range without a copy of the finite values: its peak is that copy and
    # what _keep may hold (test_keep_memory_is_bounded), where the scaled
    # copy, its temporaries and the finite values took 6.4 MB more here
    m = 10**5
    a = np.linspace(0.0, 1.5, m)
    k = np.arange(4)
    branches = np.sin(3.0 * a[:, None] + k) + 0.1 * k
    bare = 1.0 - a[:, None] / 2 + 0.05 * k
    result = replace(sweep("fig1", 101), a=a)
    rows = 2 * branches.shape[1]
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        svgplot._panel(result, "E", branches, bare)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 8 * rows * m + 2 * rows * m + 12 * 8 * m
