import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import multigrid_ilc
from multigrid_ilc.errors import ValidationError
from multigrid_ilc.svg import (HEIGHT, MARGIN_B, MARGIN_L, MARGIN_R, MARGIN_T, WIDTH, Series,
                               _fmt, _nice_ticks, render_line_chart, write_svg)


def test_constant_series_is_horizontal_polyline():
    svg = render_line_chart(
        [Series("flat", [0.0, 1.0, 2.0], [3.0, 3.0, 3.0])], "t", "y"
    )
    lines = [part for part in svg.split("\n") if part.startswith("<polyline")]
    assert len(lines) == 1
    points = lines[0].split('points="')[1].split('"')[0].split(" ")
    ys = {p.split(",")[1] for p in points}
    assert len(ys) == 1


def test_two_series_two_polylines_and_legend():
    svg = render_line_chart(
        [
            Series("a", [0, 1], [0.0, 1.0]),
            Series("b", [0, 1], [1.0, 0.0]),
        ],
        "t", "y",
    )
    assert svg.count("<polyline") == 2
    assert ">a</text>" in svg
    assert ">b</text>" in svg


def test_nan_rejected():
    with pytest.raises(ValidationError, match="'bad' contains non-finite values"):
        render_line_chart([Series("bad", [0, 1], [0.0, math.nan])], "t", "y")


def test_empty_rejected():
    with pytest.raises(ValidationError, match="no series to plot"):
        render_line_chart([], "t", "y")
    with pytest.raises(ValidationError, match="'empty' is empty or ragged"):
        render_line_chart([Series("empty", [], [])], "t", "y")


def test_deterministic_bytes(tmp_path):
    series = [Series("s", [0.0, 0.5, 1.0], [0.0, -2.5, 4.0])]
    a = render_line_chart(series, "time (s)", "value", title="t")
    b = render_line_chart(series, "time (s)", "value", title="t")
    assert a == b
    p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
    write_svg(p1, series, "time (s)", "value", title="t")
    write_svg(p2, series, "time (s)", "value", title="t")
    assert p1.read_bytes() == p2.read_bytes()


def test_axis_labels_escaped():
    svg = render_line_chart(
        [Series("x<y", [0, 1], [0, 1])], "a & b", "y"
    )
    assert "x&lt;y" in svg
    assert "a &amp; b" in svg


def reference_points(series) -> list[str]:
    """Each series' polyline points as the per-point renderer wrote them:
    Python min and max over the lists, one scalar px/py and two _fmt calls
    per point."""
    x_lo = min(min(s.x) for s in series)
    x_hi = max(max(s.x) for s in series)
    y_lo = min(min(s.y) for s in series)
    y_hi = max(max(s.y) for s in series)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        pad = 1.0 if y_lo == 0 else abs(y_lo) * 0.1
    else:
        pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(x):
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    return [" ".join(f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in zip(s.x, s.y))
            for s in series]


def polylines(svg: str) -> list[str]:
    return re.findall(r'<polyline points="([^"]*)"', svg)


def values(kind: str, n: int):
    """Lists of ``n`` values: ints, floats, tiny floats, negative floats or
    one constant."""
    floats = {"float": st.floats(-1e6, 1e6, allow_subnormal=False),
              "tiny": st.floats(-1e-9, 1e-9, allow_subnormal=False),
              "negative": st.floats(-1e6, -1e-3)}
    if kind == "int":
        return st.lists(st.integers(-10**6, 10**6), min_size=n, max_size=n)
    if kind == "constant":
        return st.floats(-1e6, 1e6, allow_subnormal=False).map(lambda v: [v] * n)
    return st.lists(floats[kind], min_size=n, max_size=n)


KINDS = ("int", "float", "tiny", "negative", "constant")


@st.composite
def series_lists(draw):
    out = []
    for k in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, 40))
        x = draw(values(draw(st.sampled_from(KINDS)), n))
        y = draw(values(draw(st.sampled_from(KINDS)), n))
        out.append(Series(f"s{k}", x, y))
    return out


@settings(max_examples=300, deadline=None)
@given(series_lists())
def test_array_renderer_matches_the_per_point_one(series):
    """Lists (ints included) and arrays of them give the per-point polylines."""
    assert polylines(render_line_chart(series, "t", "y")) == reference_points(series)
    arrays = [Series(s.label, np.array(s.x), np.array(s.y)) for s in series]
    assert render_line_chart(arrays, "t", "y") == render_line_chart(series, "t", "y")


def test_polylines_are_formatted_in_blocks(monkeypatch):
    """A polyline longer than a block formats as the per-point one."""
    monkeypatch.setattr("multigrid_ilc.svg._BLOCK", 7)
    x = np.linspace(0.0, 3.0, 50)
    series = [Series("a", x, np.sin(x)), Series("b", x[:16], np.cos(x[:16]))]
    assert polylines(render_line_chart(series, "t", "y")) == reference_points(series)


SRC = Path(multigrid_ilc.__file__).resolve().parent.parent


def test_span_below_the_resolution_terminates():
    """Two y values one ulp apart give a tick step below the resolution of
    the ticks; the chart is still drawn (in a child process, so that a hang
    fails the test instead of the suite)."""
    code = ("from multigrid_ilc.svg import Series, render_line_chart\n"
            "svg = render_line_chart([Series('a', [0.0, 1.0], [1.0, 1.0 + 2.2e-16])], 't', 'y')\n"
            "print(svg.count('<polyline'))\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=20, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert done.returncode == 0, done.stderr
    assert done.stdout == "1\n"


@pytest.mark.parametrize("lo, hi", [(1.0, 1.0 + 2.2e-16), (1e16, 1e16 + 4.0)])
def test_ticks_stop_at_a_step_below_the_resolution_of_the_value(lo, hi):
    """A tick step that adding leaves the tick unchanged ends the ticks."""
    (tick,) = _nice_ticks(lo, hi)
    assert tick == pytest.approx(lo)


@pytest.mark.parametrize("x, y", [
    ([0.0, 1.0], [5e-324, 1e-323]),   # subnormal span: no decade for the ticks
    ([0.0, 1.0], [5e-324, 5e-324]),   # subnormal constant: the pad underflows
    ([1e17, 1e17], [0.0, 1.0]),       # constant x where x + 1 == x
])
def test_degenerate_finite_spans_are_drawn(x, y):
    svg = render_line_chart([Series("a", x, y)], "t", "y")
    assert len(polylines(svg)) == 1


@pytest.mark.parametrize("x, y", [
    ([-1e308, 1e308], [0.0, 1.0]),
    ([0.0, 1.0], [-1e308, 1e308]),
    ([0.0, 1.0], [1.7e308, 1.7e308]),  # the constant's pad overflows
])
def test_span_beyond_the_float_range_rejected(x, y):
    with pytest.raises(ValidationError, match="span overflows the float range"):
        render_line_chart([Series("a", x, y)], "t", "y")
