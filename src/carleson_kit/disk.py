"""Geometry of the unit disk.

Blaschke factors, the pseudo-hyperbolic and hyperbolic metrics, normalized
reproducing kernels of the Hardy space, Carleson squares over boundary arcs,
dyadic arcs and the dyadic radial layers of the disk.

Conventions used throughout the package:

* a Blaschke factor with zero ``lam`` is
  ``b_lam(z) = (|lam|/lam) * (lam - z) / (1 - conj(lam) * z)``,
  with ``b_0(z) = z`` when ``lam = 0``;
* the normalized reproducing kernel at ``lam`` is
  ``k_lam(z) = sqrt(1 - |lam|^2) / (1 - conj(lam) * z)``;
* arcs carry their Euclidean length (radians); the radial threshold of a
  Carleson square uses the normalized length ``|I| / (2*pi)``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

TAU = 2.0 * math.pi


def as_complex(p) -> complex:
    """Accept a plain complex number or a DiskPoint."""
    if isinstance(p, DiskPoint):
        return p.value
    return complex(p)


def require_interior(p, what: str = "point") -> complex:
    z = as_complex(p)
    if abs(z) >= 1.0:
        raise DomainError(f"{what} must lie strictly inside the unit disk, got |z| = {abs(z):.6g}")
    return z


@dataclass(frozen=True)
class DiskPoint:
    """A point of the closed unit disk.

    Interior points satisfy ``|value| < 1``.  Setting ``boundary=True``
    permits ``|value| = 1`` for the places that work with boundary data.
    """

    value: complex
    boundary: bool = False

    def __post_init__(self):
        r = abs(self.value)
        if self.boundary:
            if abs(r - 1.0) > 1e-12:
                raise DomainError(f"boundary point must have |z| = 1, got {r:.12g}")
        elif r >= 1.0:
            raise DomainError(f"interior point must have |z| < 1, got {r:.12g}")

    def __complex__(self) -> complex:
        return self.value


def _maybe_scalar(z_in, result):
    if np.isscalar(z_in) or isinstance(z_in, (complex, float, int)):
        return complex(result)
    return result


def blaschke_factor(lam, z):
    """Evaluate the Blaschke factor with zero ``lam`` at ``z``.

    b_lam(z) = (|lam|/lam) (lam - z) / (1 - conj(lam) z), and b_0(z) = z.
    ``z`` may be a scalar or an ndarray; |z| <= 1 is allowed.
    """
    lam = require_interior(lam, "Blaschke zero")
    zs = np.asarray(z, dtype=complex)
    if lam == 0:
        return _maybe_scalar(z, zs + 0.0)
    unim = abs(lam) / lam
    out = unim * (lam - zs) / (1.0 - np.conj(lam) * zs)
    return _maybe_scalar(z, out)


def pseudo_hyperbolic(lam, mu) -> float:
    """Pseudo-hyperbolic distance |b_lam(mu)| between interior points."""
    lam = require_interior(lam)
    mu = require_interior(mu)
    if lam == mu:
        return 0.0
    return abs((lam - mu) / (1.0 - np.conj(lam) * mu))


def hyperbolic_distance(lam, mu) -> float:
    """Hyperbolic distance rho = (1/2) log((1+p)/(1-p)) with p pseudo-hyperbolic."""
    p = pseudo_hyperbolic(lam, mu)
    return math.atanh(p)


def metrics(lam, mu) -> tuple[float, float]:
    """Return the pair (pseudo-hyperbolic, hyperbolic) distance."""
    p = pseudo_hyperbolic(lam, mu)
    return p, math.atanh(p)


def kernel(lam, z):
    """Normalized reproducing kernel k_lam evaluated at ``z``."""
    lam = require_interior(lam, "kernel parameter")
    zs = np.asarray(z, dtype=complex)
    out = math.sqrt(1.0 - abs(lam) ** 2) / (1.0 - np.conj(lam) * zs)
    return _maybe_scalar(z, out)


def kernel_inner(lam, mu) -> complex:
    """Inner product <k_mu, k_lam> of two normalized kernels.

    Equals sqrt(1-|mu|^2) sqrt(1-|lam|^2) / (1 - conj(mu) lam); in particular
    kernel_inner(lam, lam) = 1.
    """
    lam = require_interior(lam)
    mu = require_interior(mu)
    num = math.sqrt((1.0 - abs(mu) ** 2) * (1.0 - abs(lam) ** 2))
    return num / (1.0 - np.conj(mu) * lam)


@dataclass(frozen=True)
class Arc:
    """A boundary arc given by its center angle and Euclidean length.

    The arc is the half-open interval [center - length/2, center + length/2)
    of angles modulo 2*pi, so that equal-depth dyadic arcs partition the
    circle exactly.  ``length`` lies in (0, 2*pi].
    """

    center_angle: float
    length: float

    def __post_init__(self):
        if not (0.0 < self.length <= TAU + 1e-12):
            raise DomainError(f"arc length must lie in (0, 2*pi], got {self.length}")

    @property
    def normalized_length(self) -> float:
        return self.length / TAU

    @property
    def start(self) -> float:
        return self.center_angle - 0.5 * self.length

    @property
    def end(self) -> float:
        return self.center_angle + 0.5 * self.length

    def contains_angle(self, theta: float) -> bool:
        if self.length >= TAU - 1e-15:
            return True
        return (theta - self.start) % TAU < self.length

    def dilate(self, factor: float) -> "Arc":
        """The concentric arc of ``factor`` times the length, capped at 2*pi."""
        return Arc(self.center_angle, min(self.length * factor, TAU))

    def intersects(self, other: "Arc") -> bool:
        if self.length >= TAU - 1e-15 or other.length >= TAU - 1e-15:
            return True
        gap = (other.start - self.start) % TAU
        return gap < self.length or gap > TAU - other.length

    def contains_arc(self, other: "Arc") -> bool:
        if self.length >= TAU - 1e-15:
            return True
        if other.length > self.length + 1e-15:
            return False
        off = (other.start - self.start) % TAU
        return off + other.length <= self.length + 1e-12


@dataclass(frozen=True)
class CarlesonSquare:
    """Carleson square over a boundary arc.

    Membership: arg(z) lies in the base arc and |z| >= 1 - |I|/(2*pi).
    With ``closed=False`` the square is open at the boundary circle
    (|z| < 1); with ``closed=True`` it is taken inside the closed disk.
    """

    base: Arc
    closed: bool = False

    @property
    def inner_radius(self) -> float:
        return max(0.0, 1.0 - self.base.normalized_length)

    def contains(self, z) -> bool:
        z = as_complex(z)
        r = abs(z)
        if self.closed:
            if r > 1.0 + 1e-12:
                return False
        elif r >= 1.0:
            return False
        if r < self.inner_radius:
            return False
        if self.base.length >= TAU - 1e-15:
            return True
        if r == 0.0:
            return False
        return self.base.contains_angle(cmath.phase(z))

    def contains_many(self, zs: np.ndarray) -> np.ndarray:
        """Vectorized membership for an array of complex points."""
        zs = np.asarray(zs, dtype=complex)
        r = np.abs(zs)
        ok = r <= 1.0 + 1e-12 if self.closed else r < 1.0
        ok &= r >= self.inner_radius
        if self.base.length < TAU - 1e-15:
            theta = np.angle(zs)
            ok &= (theta - self.base.start) % TAU < self.base.length
            ok &= r > 0.0
        return ok


def square_membership(square: CarlesonSquare, z) -> bool:
    """Whether ``z`` belongs to the Carleson square."""
    return square.contains(z)


def dyadic_arc(depth: int, index: int) -> Arc:
    """The dyadic arc of the given depth (2**depth arcs per circle)."""
    if depth < 0:
        raise DomainError("dyadic depth must be nonnegative")
    n = 1 << depth
    index %= n
    length = TAU / n
    return Arc((index + 0.5) * length, length)


@dataclass(frozen=True)
class DyadicGrid:
    """All dyadic arcs of depth 0..max_depth."""

    max_depth: int

    def arcs(self, depth: int) -> list[Arc]:
        if not (0 <= depth <= self.max_depth):
            raise DomainError(f"depth must lie in [0, {self.max_depth}]")
        return [dyadic_arc(depth, j) for j in range(1 << depth)]

    def all_arcs(self):
        for depth in range(self.max_depth + 1):
            yield from self.arcs(depth)


def pseudo_hyperbolic_disk(a, gamma: float) -> tuple[complex, float]:
    """Euclidean center and radius of the disk {z : |b_a(z)| < gamma}.

    center = a (1 - gamma^2) / (1 - gamma^2 |a|^2),
    radius = gamma (1 - |a|^2) / (1 - gamma^2 |a|^2).
    """
    a = require_interior(a, "disk center")
    if not (0.0 < gamma < 1.0):
        raise DomainError(f"radius parameter must lie in (0, 1), got {gamma}")
    denom = 1.0 - gamma * gamma * abs(a) ** 2
    center = a * (1.0 - gamma * gamma) / denom
    radius = gamma * (1.0 - abs(a) ** 2) / denom
    return center, radius


def layer_index(z) -> int:
    """Index m of the dyadic layer 1 - 2^-m <= |z| < 1 - 2^-(m+1).

    The layers partition the disk; a point on the shared circle
    |z| = 1 - 2^-(m+1) belongs to layer m + 1.
    """
    r = abs(require_interior(z))
    if r == 0.0:
        return 0
    m = max(0, int(math.floor(-math.log2(1.0 - r))))
    while 1.0 - 2.0 ** (-m) > r:
        m -= 1
    while r >= 1.0 - 2.0 ** (-(m + 1)):
        m += 1
    return m


def grid_layers(max_layer: int = 10, base_angles: int = 8) -> list[tuple[float, int]]:
    """(radius, angle count) of each layer of :func:`hyperbolic_grid`.

    Layer m has base_angles * 2**m angles at the radial midpoint
    1 - 0.75 * 2**-m of the dyadic annulus 1 - 2**-m <= |z| <= 1 - 2**-(m+1).
    """
    return [(1.0 - 0.75 * 2.0 ** (-m), base_angles * (1 << m)) for m in range(max_layer + 1)]


def hyperbolic_grid(max_layer: int = 10, base_angles: int = 8, include_origin: bool = True) -> np.ndarray:
    """Quasi-uniform sample of the disk, layer by layer.

    Layer m gets base_angles * 2**m equally spaced angles at the layer's
    radial midpoint 1 - 0.75 * 2**-m (see :func:`grid_layers`).  The default
    (10 layers, 8 base angles) is the grid used for sup-over-the-disk
    estimates.
    """
    pts = [np.array([0.0 + 0.0j])] if include_origin else []
    for r, n in grid_layers(max_layer, base_angles):
        theta = TAU * np.arange(n) / n
        pts.append(r * np.exp(1j * theta))
    return np.concatenate(pts)
