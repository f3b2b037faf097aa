"""SVG renderer tests (structural, not visual)."""

import hashlib
import re

import pytest

from qrclab.errors import ConfigurationError
from qrclab.experiment import ScanRow
from qrclab.plot import render_overlay_svg, render_scan_svg


def polyline_vertex_counts(svg: str) -> list[int]:
    counts = []
    for points in re.findall(r'points="([^"]*)"', svg):
        counts.append(len(points.split()))
    return counts


def make_row(n, train=0.9, test=0.5):
    return ScanRow(
        n_qubits=n, train_score=train, test_score=test, gap=train - test,
        confidence_term=0.1, m=100, delta=0.05,
    )


class TestOverlay:
    def test_two_point_series_two_vertices_per_curve(self):
        svg = render_overlay_svg([0, 1], [0.1, 0.9], [0.2, 0.7])
        assert polyline_vertex_counts(svg) == [2, 2]

    def test_longer_series(self):
        svg = render_overlay_svg(range(10), [0.1] * 10, [0.2] * 10)
        assert polyline_vertex_counts(svg) == [10, 10]

    def test_empty_refused(self):
        with pytest.raises(ConfigurationError):
            render_overlay_svg([], [], [])

    def test_length_mismatch_refused(self):
        with pytest.raises(ConfigurationError):
            render_overlay_svg([0, 1], [0.1], [0.2, 0.3])

    def test_deterministic(self):
        a = render_overlay_svg([0, 1, 2], [0.0, 0.5, 1.0], [0.1, 0.4, 0.8])
        b = render_overlay_svg([0, 1, 2], [0.0, 0.5, 1.0], [0.1, 0.4, 0.8])
        assert a == b

    def test_well_formed_xml(self):
        import xml.etree.ElementTree as ET

        svg = render_overlay_svg([0, 1], [0.0, 1.0], [1.0, 0.0])
        ET.fromstring(svg)

    def test_constant_series_does_not_crash(self):
        svg = render_overlay_svg([0, 1, 2], [0.5, 0.5, 0.5], [0.5, 0.5, 0.5])
        assert "<polyline" in svg


class TestScanPlot:
    def test_two_curves_with_markers(self):
        svg = render_scan_svg([make_row(2), make_row(3), make_row(4)])
        assert polyline_vertex_counts(svg) == [3, 3]
        assert svg.count("<circle") == 6

    def test_single_point_no_crash(self):
        svg = render_scan_svg([make_row(4)])
        assert svg.count("<circle") == 2

    def test_empty_refused(self):
        with pytest.raises(ConfigurationError):
            render_scan_svg([])

    def test_well_formed_xml(self):
        import xml.etree.ElementTree as ET

        ET.fromstring(render_scan_svg([make_row(2), make_row(5)]))


class TestBytes:
    """The exact bytes of both figures on small fixed inputs, so a change to
    the renderers that moves a byte of a bundle's SVG shows here."""

    def test_overlay_bytes(self):
        svg = render_overlay_svg([0, 1, 2, 3], [0.1, 0.5, -0.2, 0.9], [0.2, 0.4, 0.0, 0.7], title="parity: overlay")
        assert hashlib.sha256(svg.encode("utf-8")).hexdigest() == (
            "f0c5f2507550007e932ba1d2c160c355f9929bcbfb009646278b6ee84f04a785"
        )

    def test_scan_bytes(self):
        svg = render_scan_svg([make_row(2, 0.9, 0.5), make_row(3, 0.8, 0.6), make_row(5, 0.95, 0.3)])
        assert hashlib.sha256(svg.encode("utf-8")).hexdigest() == (
            "df66dd600dfb6ff93b72042beb4e3301e52cd0bc729e9ebf526ce86781d63a1d"
        )
