"""Minimal SVG output: unit circle, zeros, contours,
and :func:`write_atomic`, which writes both figures and reports.

Everything is emitted as plain strings; coordinates map the closed unit
disk into a fixed viewport with the imaginary axis pointing up, and every
number round-trips its double.  A contour's boundary is drawn exactly, as
circles and circle arcs.
"""

from __future__ import annotations

import cmath
import os
import tempfile

_VIEW = 640
_MARGIN = 0.08
_SCALE = _VIEW / (2.0 * (1.0 + _MARGIN))  # pixels per unit
_CONTOUR = 'stroke="#c22" stroke-width="1.2" fill="none"'


def _xy(z: complex) -> tuple[float, float]:
    x = (z.real + 1.0 + _MARGIN) * _SCALE
    y = (1.0 + _MARGIN - z.imag) * _SCALE
    return x, y


def _fmt(v: float) -> str:
    """The shortest decimal that reads back as the double."""
    return repr(float(v))


def _circle(z: complex, r: float, paint: str) -> str:
    x, y = _xy(z)
    return f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(r)}" {paint}/>'


def circle_element() -> str:
    """The unit circle."""
    return _circle(0j, _SCALE, 'stroke="#444" stroke-width="1.5" fill="none"')


def arc_element(center: complex, radius: float, start: float, end: float,
                full: bool) -> str:
    """One boundary arc of a contour (``ContourResult.arcs``), exactly: the
    full circle as ``<circle>``, an open arc from ``start`` to ``end``
    (counterclockwise) as a path with one elliptical-arc command (SVG 1.1,
    8.3.8).  Its large-arc flag is set for arcs longer than pi; its sweep
    flag is 0, since the image's y axis points down.  Every number
    round-trips its double: a gamma-disk of radius 5e-7 is 1.5e-4 pixels
    wide, and the ends of an arc 1e-9 short of the full circle stay two
    points."""
    if full:
        return _circle(center, radius * _SCALE, _CONTOUR)
    (x0, y0), (x1, y1) = (_xy(center + radius * cmath.exp(1j * t)) for t in (start, end))
    r, large = _fmt(radius * _SCALE), int(end - start > cmath.pi)
    return (f'<path d="M {_fmt(x0)} {_fmt(y0)} A {r} {r} 0 {large} 0 {_fmt(x1)} {_fmt(y1)}" '
            f'{_CONTOUR}/>')


def dot_element(z: complex, radius: float = 3.0, fill: str = "#06c") -> str:
    return _circle(z, radius, f'fill="{fill}"')


def svg_document(elements) -> str:
    body = "\n".join(elements)
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{_VIEW}" '
            f'height="{_VIEW}" viewBox="0 0 {_VIEW} {_VIEW}">\n'
            f'<rect width="{_VIEW}" height="{_VIEW}" fill="white"/>\n'
            f"{body}\n</svg>\n")


def render_contour(result, zeros=()) -> str:
    """Unit circle, zeros and the contour's boundary arcs."""
    parts = [circle_element()] + [dot_element(complex(z)) for z in zeros]
    centers, radii = result.region.centers.tolist(), result.region.radii.tolist()
    parts += [arc_element(centers[k], radii[k], a, b, full)
              for k, a, b, full in result.arcs.tolist()]
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
