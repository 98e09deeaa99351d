"""SVG line plots: byte-exact output on hand-given inputs."""

import hashlib

import numpy as np
import pytest

from tikhtorus.svgplot import Series, line_plot

# SHA-256 of the documents line_plot writes for the cases below; every
# shipped plot goes through the same code, so these bytes pin the SVG format
CASES = {
    "linear": (
        dict(
            series=[
                Series("first", x=[0.0, 0.5, 1.0, 2.5], y=[1.0, -0.25, 3.0, 2.0]),
                Series("second", x=np.linspace(0.0, 2.0, 9), y=np.sin(np.linspace(0.0, 2.0, 9))),
            ],
            title="linear",
            xlabel="x",
            ylabel="y",
        ),
        "8f81f265e8e021328564f766009e8596285661c9b7481340282ab9215d827c4f",
    ),
    "loglog_with_dropped_points": (
        dict(
            series=[
                Series("kept", x=[1, 10, 100, 0, 1000, 5000], y=[1e-3, 0.0, 1e-5, 1.0, -2.0, 3e-7]),
                Series("all dropped", x=[-1.0, 0.0], y=[1.0, 2.0]),
                Series("array", x=np.array([2.0, 20.0, 200.0]), y=np.array([0.5, 0.05, 0.004])),
            ],
            title="log-log",
            xlabel="n",
            ylabel="gap",
            logx=True,
            logy=True,
        ),
        "fd8ad9d0a95feebaae28cb97f077555afd18de5cf88917ca6929862c88c54fcb",
    ),
    "constant": (
        dict(
            series=[Series("flat", x=[1, 2, 3], y=[2.0, 2.0, 2.0])],
            title="constant",
            xlabel="x",
            ylabel="y",
        ),
        "19d26b29ee59056061080bc898b763d229f99f1893934087a6d80084fbe78b6f",
    ),
    "single_point_log": (
        dict(
            series=[Series("point", x=[10.0], y=[1e-4])],
            title="one point",
            xlabel="x",
            ylabel="y",
            logx=True,
            logy=True,
        ),
        "6611d11508bd088ead1c2715a59f9ba0e5afd7095da0e269f0564e78ad14976d",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_documents_are_pinned(case):
    kwargs, digest = CASES[case]
    text = line_plot(**kwargs)
    assert text.startswith('<svg xmlns="http://www.w3.org/2000/svg"')
    assert text.endswith("</svg>\n")
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


def test_dropped_series_keeps_its_colour_slot():
    text = line_plot(**CASES["loglog_with_dropped_points"][0])
    assert text.count("<polyline") == 2
    assert 'stroke="#2ca02c"' in text  # the third colour, after the empty series
    assert "all dropped" not in text


def test_nothing_left_to_plot_is_rejected():
    with pytest.raises(ValueError, match="nothing to plot"):
        line_plot([Series("gone", x=[0.0, 1.0], y=[-1.0, 0.0])], "t", "x", "y", logy=True)
    with pytest.raises(ValueError, match="nothing to plot"):
        line_plot([], "t", "x", "y")


def test_series_lengths_must_match():
    with pytest.raises(ValueError, match="'short'"):
        line_plot([Series("short", x=[1.0, 2.0, 3.0], y=[1.0, 2.0])], "t", "x", "y")
