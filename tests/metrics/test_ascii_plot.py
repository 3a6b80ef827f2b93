"""Unit tests for the terminal plotting helpers."""

from repro.metrics import ascii_plot
from repro.metrics.ascii_plot import line_plot, sparkline


def small_grid(monkeypatch, width, height):
    monkeypatch.setattr(ascii_plot, "PLOT_WIDTH", width)
    monkeypatch.setattr(ascii_plot, "PLOT_HEIGHT", height)


def test_sparkline_shape():
    line = sparkline([0, 1, 2, 3])
    assert len(line) == 4
    assert line[0] == "▁"
    assert line[-1] == "█"


def test_sparkline_flat_and_empty():
    assert sparkline([]) == ""
    assert sparkline([5, 5, 5]) == "▁▁▁"


def test_line_plot_contains_markers_and_legend(monkeypatch):
    small_grid(monkeypatch, 20, 6)
    plot = line_plot({
        "lambda": [(0, 0), (10, 100)],
        "hops": [(0, 50), (10, 50)],
    })
    assert "l" in plot and "h" in plot
    assert "l = lambda" in plot
    assert "100" in plot  # y-axis max label


def test_line_plot_empty():
    assert line_plot({}) == ""


def test_sparkline_single_value():
    assert sparkline([7.0]) == "▁"


def test_sparkline_negative_values_normalise():
    line = sparkline([-10.0, 0.0, 10.0])
    assert line[0] == "▁" and line[-1] == "█"


def test_line_plot_single_point_series(monkeypatch):
    small_grid(monkeypatch, 12, 4)
    plot = line_plot({"s": [(5.0, 5.0)]})
    assert "s" in plot
    assert "s = s" in plot


# -- degenerate input: NaN / ±inf ------------------------------------
#
# Detector math feeds these helpers windows where a rate divides by
# zero ops or a baseline never formed; each renderer must degrade,
# not raise.

NAN = float("nan")
INF = float("inf")


def test_sparkline_nan_renders_hole():
    line = sparkline([0.0, NAN, 2.0])
    assert len(line) == 3
    assert line[1] == "·"
    assert line[0] == "▁" and line[2] == "█"


def test_sparkline_inf_renders_hole_without_skewing_scale():
    line = sparkline([0.0, INF, 1.0, -INF])
    assert line[1] == "·" and line[3] == "·"
    # Scale comes from the finite samples only: 0 → low, 1 → high.
    assert line[0] == "▁" and line[2] == "█"


def test_sparkline_all_nonfinite():
    assert sparkline([NAN, INF, -INF]) == "···"


def test_line_plot_drops_nonfinite_points(monkeypatch):
    small_grid(monkeypatch, 20, 6)
    plot = line_plot({
        "s": [(0.0, 0.0), (5.0, NAN), (INF, 3.0), (10.0, 100.0)],
    })
    assert "s" in plot
    assert "100" in plot


def test_line_plot_all_nonfinite_is_empty():
    assert line_plot({"s": [(NAN, 1.0), (2.0, INF)]}) == ""
