"""Minimal SVG output: unit circle, Carleson squares, zeros, contours,
and :func:`write_atomic`, which writes both figures and reports.

Everything is emitted as plain strings; coordinates map the closed unit
disk into a fixed viewport with the imaginary axis pointing up.
"""

from __future__ import annotations

import math
import os
import tempfile

_VIEW = 640
_MARGIN = 0.08


def _xy(z: complex) -> tuple[float, float]:
    scale = _VIEW / (2.0 * (1.0 + _MARGIN))
    x = (z.real + 1.0 + _MARGIN) * scale
    y = (1.0 + _MARGIN - z.imag) * scale
    return x, y


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def circle_element(center: complex = 0j, radius: float = 1.0,
                   stroke: str = "#444", width: float = 1.5) -> str:
    cx, cy = _xy(center)
    r = radius * _VIEW / (2.0 * (1.0 + _MARGIN))
    return (f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(r)}" '
            f'stroke="{stroke}" stroke-width="{width}" fill="none"/>')


def polyline_element(points, closed: bool = False) -> str:
    coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in map(_xy, points))
    tag = "polygon" if closed else "polyline"
    return f'<{tag} points="{coords}" stroke="#c22" stroke-width="1.2" fill="none"/>'


def dot_element(z: complex, radius: float = 3.0, fill: str = "#06c") -> str:
    x, y = _xy(z)
    return f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(radius)}" fill="{fill}"/>'


def square_element(square, stroke: str = "#888", width: float = 0.8) -> str:
    """Boundary of a Carleson square as radial segments and an inner arc."""
    arc = square.base
    r0 = square.inner_radius
    if arc.length >= 2.0 * math.pi - 1e-12:
        return circle_element(0j, r0, stroke=stroke, width=width)
    a0, a1 = arc.start, arc.start + arc.length
    p = []
    x, y = _xy(r0 * complex(math.cos(a0), math.sin(a0)))
    p.append(f"M {_fmt(x)} {_fmt(y)}")
    x, y = _xy(complex(math.cos(a0), math.sin(a0)))
    p.append(f"L {_fmt(x)} {_fmt(y)}")
    x, y = _xy(r0 * complex(math.cos(a1), math.sin(a1)))
    p.append(f"M {_fmt(x)} {_fmt(y)}")
    x, y = _xy(complex(math.cos(a1), math.sin(a1)))
    p.append(f"L {_fmt(x)} {_fmt(y)}")
    # inner arc sampled as a short polyline; exact arcs are not worth the
    # large-arc flag bookkeeping
    steps = max(8, int(arc.length * 16))
    arc_pts = []
    for i in range(steps + 1):
        a = a0 + arc.length * i / steps
        x, y = _xy(r0 * complex(math.cos(a), math.sin(a)))
        arc_pts.append(f"{_fmt(x)} {_fmt(y)}")
    p.append("M " + " L ".join(arc_pts))
    return f'<path d="{" ".join(p)}" stroke="{stroke}" stroke-width="{width}" fill="none"/>'


def svg_document(elements) -> str:
    body = "\n".join(elements)
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{_VIEW}" '
            f'height="{_VIEW}" viewBox="0 0 {_VIEW} {_VIEW}">\n'
            f'<rect width="{_VIEW}" height="{_VIEW}" fill="white"/>\n'
            f"{body}\n</svg>\n")


def render_contour(result, zeros=()) -> str:
    """Unit circle, the region's square, zeros and the contour polylines."""
    parts = [circle_element()]
    for piece in result.region.pieces:
        parts.append(square_element(piece.square))
    for z in zeros:
        parts.append(dot_element(complex(z)))
    for poly in result.polylines:
        pts = list(poly)
        closed = bool(pts and abs(pts[0] - pts[-1]) < 1e-9)
        parts.append(polyline_element(pts, closed=closed))
    return svg_document(parts)


def render_points(points, measure_atoms=()) -> str:
    """Unit circle plus marked interior points and optional weighted atoms."""
    parts = [circle_element()]
    for z, mass in measure_atoms:
        parts.append(dot_element(complex(z), radius=2.0 + 6.0 * min(1.0, mass),
                                 fill="#777"))
    for z in points:
        parts.append(dot_element(complex(z)))
    return svg_document(parts)


def write_atomic(path: str, text: str) -> None:
    """The one writer of reports and figures: a temporary file in the same
    directory, then ``os.replace``, so readers never see a partial file."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
