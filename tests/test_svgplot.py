"""The SVG plots must be well-formed and mark every reading."""

import os
import subprocess
import sys
import xml.etree.ElementTree as ET

from glucokit.evaluation import PairedReadings, ceg_analyze, ceg_zone
from glucokit.svgplot import CEG_SEGMENTS, ceg_svg, histogram_svg, scatter_svg


def elements(svg_text, local_tag):
    root = ET.fromstring(svg_text)
    return [el for el in root.iter() if el.tag.endswith(local_tag)]


def sample_pairs(n=9):
    refs = tuple(40.0 + 40.0 * i for i in range(n))
    preds = tuple(r * (1.05 if i % 2 else 0.9) for i, r in enumerate(refs))
    return PairedReadings(refs=refs, preds=preds)


class TestScatter:
    def test_one_marker_per_reading(self):
        p = sample_pairs(9)
        svg = scatter_svg(p, title="demo")
        marks = [el for el in elements(svg, "circle") if el.get("class") == "pt"]
        assert len(marks) == 9

    def test_title_embedded(self):
        assert "demo title" in scatter_svg(sample_pairs(), title="demo title")


class TestCegPlot:
    def test_boundary_segments_and_markers(self):
        p = sample_pairs(7)
        svg = ceg_svg(p)
        marks = [el for el in elements(svg, "circle") if el.get("class") == "pt"]
        assert len(marks) == 7
        assert len(elements(svg, "line")) >= len(CEG_SEGMENTS)

    def test_zone_letters_labelled(self):
        texts = {el.text for el in elements(ceg_svg(sample_pairs()), "text")}
        for zone in "ABCDE":
            assert zone in texts

    def test_segments_stay_consistent_with_classifier(self):
        # midpoint of each boundary segment must sit on a zone edge; a point
        # nudged to either side of the identity line must classify as A nearby
        assert ceg_zone(100.0, 101.0) == "A"
        assert ceg_zone(100.0, 99.0) == "A"
        for (x0, y0), (x1, y1) in CEG_SEGMENTS:
            assert 0.0 <= min(x0, x1) and 0.0 <= min(y0, y1)


class TestHistogram:
    def test_one_bar_per_zone(self):
        res = ceg_analyze(sample_pairs(10))
        svg = histogram_svg(res)
        bars = [el for el in elements(svg, "rect") if el.get("class") == "bar"]
        assert len(bars) == 5

    def test_axis_grows_with_out_of_range_points(self):
        p = PairedReadings(refs=(100.0, 550.0), preds=(90.0, 560.0))
        svg = scatter_svg(p)
        assert "600" in svg  # axis extends beyond the default 400 ceiling


def test_import_loads_no_network_or_xml_modules():
    # the plots need no network or XML library; xml.sax.saxutils alone
    # imports urllib.request, http.client and email
    code = ("import sys, glucokit.svgplot; "
            "print(sorted(m for m in ('xml.sax.saxutils', 'urllib.request', "
            "'http.client', 'email') if m in sys.modules))")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_text_is_escaped():
    svg = scatter_svg(sample_pairs(), title='a < b & "c" > \'d\'')
    assert "a &lt; b &amp; \"c\" &gt; 'd'" in svg
    ET.fromstring(svg)
