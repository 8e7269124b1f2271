import math
import re

from carleson_kit.contour import BoundedFunction, ContourConstants, bourgain_contour
from carleson_kit.disk import Arc, CarlesonSquare
from carleson_kit.rendering import (
    dot_element,
    polyline_element,
    render_contour,
    render_points,
    square_element,
    svg_document,
    write_atomic,
)

TAU = 2 * math.pi


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


def test_polyline_closure_switches_tag():
    pts = [0.1, 0.1j, -0.1]
    assert polyline_element(pts).startswith("<polyline ")
    assert polyline_element(pts, closed=True).startswith("<polygon ")


def test_square_element_shapes():
    full = square_element(CarlesonSquare(Arc(0.0, TAU)))
    assert full.startswith("<circle ")
    partial = square_element(CarlesonSquare(Arc(0.25, 0.5)))
    assert partial.startswith("<path ")
    assert "M " in _attr(partial, "d")


def test_render_contour_draws_region_and_zeros():
    consts = ContourConstants(
        epsilon=0.3, c1=8.0, c2=8.0, c3=8.0,
        m_threshold=1000.0, gamma=0.3, log_eps_prime=-50.0,
    )
    phi = BoundedFunction(zeros=[0.0])
    result = bourgain_contour(phi, consts.epsilon, constants=consts)
    doc = render_contour(result, zeros=[0.0])
    # the gamma disk boundary comes out as one closed polyline
    assert doc.count("<polygon ") == 1
    assert "<circle " in doc
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
