import cmath
import math
import re
from xml.etree import ElementTree

from carleson_kit.contour import (
    BoundedFunction,
    ContourConstants,
    ContourResult,
    Region,
    _boundary_arcs,
    bourgain_contour,
)
from carleson_kit.rendering import (
    _SCALE,
    _xy,
    arc_element,
    circle_element,
    dot_element,
    render_contour,
    render_points,
    svg_document,
    write_atomic,
)

SVG = "{http://www.w3.org/2000/svg}"
WIDE = ContourConstants(epsilon=0.3, c1=8.0, c2=8.0, c3=8.0,
                        m_threshold=1000.0, gamma=0.3, log_eps_prime=-50.0)


def _attr(tag, name):
    m = re.search(rf'{name}="([^"]+)"', tag)
    assert m is not None, tag
    return m.group(1)


def test_svg_document_wraps_elements():
    body = dot_element(0.5 + 0j)
    doc = svg_document([body])
    assert doc.startswith("<svg ")
    assert doc.endswith("</svg>\n")
    assert 'xmlns="http://www.w3.org/2000/svg"' in doc
    assert body in doc


def test_coordinates_put_imaginary_axis_up():
    center = dot_element(0j)
    top = dot_element(1j)
    right = dot_element(1.0 + 0j)
    assert float(_attr(top, "cy")) < float(_attr(center, "cy"))
    assert float(_attr(right, "cx")) > float(_attr(center, "cx"))
    assert float(_attr(top, "cx")) == float(_attr(center, "cx"))


def _contour_elements(doc):
    """The contour's elements of a figure, told by their stroke, in order."""
    return [e for e in ElementTree.fromstring(doc) if e.get("stroke") == "#c22"]


def _pixel(z):
    return complex(*_xy(z))


def _arc_midpoint(p0, p1, r, large, sweep):
    """The midpoint of the SVG arc of radius r from p0 to p1 (pixels, as
    x + iy) under its flags (SVG 1.1, F.6.5): the chord's midpoint moved
    along the chord's normal by r minus the center's distance from the
    chord, or by r plus it for the large arc, to the side the sweep
    gives."""
    mid, half = 0.5 * (p0 + p1), 0.5 * (p1 - p0)
    normal = 1j * half / abs(half)
    depth = math.sqrt(max(r * r - abs(half) ** 2, 0.0))
    return mid + (-1.0 if sweep else 1.0) * (r + depth if large else r - depth) * normal


def test_arc_element_writes_circles_and_arcs_exactly():
    # a quarter and three quarters of the circle of radius 0.25 around 0.5:
    # the sweep flag 0 turns counterclockwise in the figure, the large-arc
    # flag marks the longer one
    for start, end, large in ((0.0, 0.5 * math.pi, 0), (0.0, 1.5 * math.pi, 1)):
        tag = arc_element(0.5, 0.25, start, end, False)
        d = _attr(tag, "d").split()
        assert tag.startswith("<path ") and d[0] == "M" and d[3] == "A"
        assert d[6:9] == ["0", str(large), "0"]
        p0, p1 = complex(float(d[1]), float(d[2])), complex(float(d[9]), float(d[10]))
        assert p0 == _pixel(0.5 + 0.25 * cmath.exp(1j * start))
        assert p1 == _pixel(0.5 + 0.25 * cmath.exp(1j * end))
        want = _pixel(0.5 + 0.25 * cmath.exp(0.5j * (start + end)))
        got = _arc_midpoint(p0, p1, float(d[4]), d[7] == "1", d[8] == "1")
        assert abs(got - want) < 1e-9 * 0.25 * _SCALE
    # a gamma-disk of radius 5e-7 keeps its radius and center to the last bit
    tag = arc_element(0.3 + 0.2j, 5e-7, 0.0, 2.0 * math.pi, True)
    assert tag.startswith("<circle ")
    assert float(_attr(tag, "r")) == 5e-7 * _SCALE
    assert (float(_attr(tag, "cx")), float(_attr(tag, "cy"))) == _xy(0.3 + 0.2j)


def test_contour_figure_is_the_arcs():
    # two overlapping disks, three cutting one another and one meeting none:
    # every open arc, shorter or longer than pi, is a path whose ends, radius
    # and midpoint, recovered from its flags at the angle (a + b)/2, are the
    # arc's, and the full circle is a circle
    zeros = [0.0, 0.1 + 0.05j, -0.5 - 0.4j, -0.3 - 0.5j, 0.6 + 0.3j, 0.25j]
    result = bourgain_contour(BoundedFunction(zeros=zeros), 0.3, constants=WIDE)
    arcs, region = result.arcs, result.region
    elements = _contour_elements(render_contour(result, zeros))
    assert len(elements) == len(arcs) == 6 and arcs["full"].sum() == 1
    assert sorted(set((arcs["end"] - arcs["start"] > math.pi).tolist())) == [False, True]
    for e, (k, a, b, full) in zip(elements, arcs.tolist()):
        c, r = complex(region.centers[k]), float(region.radii[k])
        pr = r * _SCALE
        if full:
            assert e.tag == SVG + "circle"
            got = complex(float(e.get("cx")), float(e.get("cy")))
            assert abs(got - _pixel(c)) < 1e-9 * pr
            assert abs(float(e.get("r")) - pr) < 1e-9 * pr
            continue
        assert e.tag == SVG + "path"
        m, x0, y0, cmd, rx, ry, turn, large, sweep, x1, y1 = e.get("d").split()
        assert (m, cmd, turn, rx) == ("M", "A", "0", ry)
        assert abs(float(rx) - pr) < 1e-9 * pr
        p0, p1 = complex(float(x0), float(y0)), complex(float(x1), float(y1))
        assert abs(p0 - _pixel(c + r * cmath.exp(1j * a))) < 1e-9 * pr
        assert abs(p1 - _pixel(c + r * cmath.exp(1j * b))) < 1e-9 * pr
        got = _arc_midpoint(p0, p1, float(rx), large == "1", sweep == "1")
        assert abs(got - _pixel(c + r * cmath.exp(0.5j * (a + b)))) < 1e-9 * pr


def test_a_gap_below_1e_9_is_drawn_as_one_open_arc():
    # a disk of radius 2e-10 on the circle of radius 2e-8 covers a gap whose
    # chord is 4e-10: the figure draws the rest as one long arc, whose two
    # ends print as two points
    region = Region([(0.5, 2e-8), (0.5 + 2e-8, 2e-10)])
    result = ContourResult(region, _boundary_arcs(region), WIDE)
    doc = render_contour(result)
    assert "<polygon" not in doc and "<polyline" not in doc
    first, second = _contour_elements(doc)
    assert first.tag == second.tag == SVG + "path"
    d = first.get("d").split()
    assert d[7:9] == ["1", "0"] and d[1:3] != d[9:11]
    (k, a, b, full), _ = result.arcs.tolist()
    assert (k, full) == (0, False)
    for x, y, t in ((d[1], d[2], a), (d[9], d[10], b)):
        z = 0.5 + 2e-8 * cmath.exp(1j * t)
        assert abs(complex(float(x), float(y)) - _pixel(z)) < 1e-9 * 2e-8 * _SCALE


def test_render_contour_draws_region_and_zeros():
    zeros = [0.0, 0.6 + 0.3j]
    phi = BoundedFunction(zeros=zeros)
    result = bourgain_contour(phi, WIDE.epsilon, constants=WIDE)
    doc = render_contour(result, zeros=zeros)
    # each gamma disk's boundary comes out as one contour circle, after the
    # unit circle and one dot per zero, and no circle has radius 0
    circles = [line for line in doc.splitlines() if line.startswith("<circle ")]
    assert circles[:3] == [circle_element()] + [dot_element(z) for z in zeros]
    assert [e.tag for e in _contour_elements(doc)] == [SVG + "circle"] * 2
    assert len(circles) == 5
    assert 'r="0.00"' not in doc and 'r="0.0"' not in doc
    assert doc.count("</svg>") == 1


def test_render_points_scales_atom_dots():
    doc = render_points([0.2 + 0.1j], measure_atoms=[(0.5j, 0.25), (0.0, 5.0)])
    grey = [t for t in doc.splitlines() if 'fill="#777"' in t]
    assert len(grey) == 2
    radii = sorted(float(_attr(t, "r")) for t in grey)
    assert radii[0] == 2.0 + 6.0 * 0.25
    assert radii[1] == 8.0  # mass clipped at one
    assert 'fill="#06c"' in doc


def test_write_svg_is_atomic(tmp_path):
    target = tmp_path / "out.svg"
    doc = svg_document([dot_element(0j)])
    write_atomic(str(target), doc)
    assert target.read_text() == doc
    write_atomic(str(target), svg_document([]))
    assert "<circle" not in target.read_text()
    leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
    assert leftovers == []
