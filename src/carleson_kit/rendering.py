"""Minimal SVG output: unit circle, zeros, contours,
and :func:`write_atomic`, which writes both figures and reports.

Everything is emitted as plain strings; coordinates map the closed unit
disk into a fixed viewport with the imaginary axis pointing up.
"""

from __future__ import annotations

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


def circle_element() -> str:
    """The unit circle."""
    cx, cy = _xy(0j)
    r = _VIEW / (2.0 * (1.0 + _MARGIN))
    return (f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(r)}" '
            f'stroke="#444" stroke-width="1.5" fill="none"/>')


def polyline_element(points, closed: bool = False) -> str:
    coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in map(_xy, points))
    tag = "polygon" if closed else "polyline"
    return f'<{tag} points="{coords}" stroke="#c22" stroke-width="1.2" fill="none"/>'


def dot_element(z: complex, radius: float = 3.0, fill: str = "#06c") -> str:
    x, y = _xy(z)
    return f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(radius)}" fill="{fill}"/>'


def svg_document(elements) -> str:
    body = "\n".join(elements)
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{_VIEW}" '
            f'height="{_VIEW}" viewBox="0 0 {_VIEW} {_VIEW}">\n'
            f'<rect width="{_VIEW}" height="{_VIEW}" fill="white"/>\n'
            f"{body}\n</svg>\n")


def render_contour(result, zeros=()) -> str:
    """Unit circle, zeros and the contour polylines."""
    parts = [circle_element()]
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
