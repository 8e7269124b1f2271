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

The metric and kernel primitives (:func:`pseudo_hyperbolic`,
:func:`hyperbolic_distance`, :func:`kernel`, :func:`kernel_inner`) broadcast
over numpy arrays like ufuncs, so ``pseudo_hyperbolic(p[:, None], p[None, :])``
is a distance matrix and ``kernel_inner(p[:, None], p[None, :])`` a kernel
Gram matrix; scalar arguments give a float or a complex.  Each of them is the
package's one implementation of its formula.  Every entry that must be an
interior point is checked: |z| >= 1 or nan raises :class:`DomainError`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

TAU = 2.0 * math.pi


def require_interior(p, what: str = "point") -> complex:
    z = complex(p)
    if not abs(z) < 1.0:  # nan fails too
        raise DomainError(f"{what} must lie strictly inside the unit disk, got |z| = {abs(z):.6g}")
    return z


def _interior(z, what: str = "point") -> np.ndarray:
    """``z`` as a complex array; DomainError unless every entry lies in the
    open disk (nan fails)."""
    zs = np.asarray(z, dtype=complex)
    inside = np.abs(zs) < 1.0
    if not inside.all():
        bad = np.abs(zs[~inside]).flat[0]
        raise DomainError(f"{what} must lie strictly inside the unit disk, got |z| = {bad:.6g}")
    return zs


def _modulus(zs: np.ndarray) -> np.ndarray:
    """|z| by ``hypot``, as Python's ``abs`` computes it for a complex number;
    numpy's SIMD ``abs`` can differ from it in the last bit."""
    return np.hypot(zs.real, zs.imag)


def blaschke_factor(lam, z):
    """Evaluate the Blaschke factor with zero ``lam`` at ``z``.

    b_lam(z) = (|lam|/lam) (lam - z) / (1 - conj(lam) z), and b_0(z) = z.
    ``z`` may be a scalar or an ndarray; |z| <= 1 is allowed.
    """
    lam = require_interior(lam, "Blaschke zero")
    zs = np.asarray(z, dtype=complex)
    if lam == 0:
        out = zs + 0.0
    else:
        out = abs(lam) / lam * (lam - zs) / (1.0 - np.conj(lam) * zs)
    return complex(out) if np.isscalar(z) else out


def pseudo_hyperbolic(lam, mu):
    """Pseudo-hyperbolic distance |b_lam(mu)| = |lam - mu| / |1 - conj(lam) mu|.

    Broadcasts over arrays of interior points; a float when both arguments
    are scalars.
    """
    lam_a = _interior(lam)
    mu_a = _interior(mu)
    out = np.abs(lam_a - mu_a) / np.abs(1.0 - np.conj(lam_a) * mu_a)
    return float(out) if np.isscalar(lam) and np.isscalar(mu) else out


def hyperbolic_distance(lam, mu):
    """Hyperbolic distance rho = (1/2) log((1+p)/(1-p)) with p pseudo-hyperbolic."""
    return np.arctanh(pseudo_hyperbolic(lam, mu))


def kernel(lam, z):
    """Normalized reproducing kernel k_lam evaluated at ``z``.

    Broadcasts over arrays of interior parameters ``lam`` and of points
    ``z``, which may lie on the circle; a complex when both are scalars.
    """
    lam_a = _interior(lam, "kernel parameter")
    zs = np.asarray(z, dtype=complex)
    out = np.sqrt(1.0 - _modulus(lam_a) ** 2) / (1.0 - np.conj(lam_a) * zs)
    return complex(out) if np.isscalar(lam) and np.isscalar(z) else out


def kernel_inner(lam, mu):
    """Inner product <k_mu, k_lam> of two normalized kernels.

    Equals sqrt(1-|mu|^2) sqrt(1-|lam|^2) / (1 - conj(mu) lam); in particular
    kernel_inner(lam, lam) = 1.  Broadcasts over arrays of interior points,
    so ``kernel_inner(p[:, None], p[None, :])`` is the Gram matrix of the
    kernels at ``p``; a complex when both arguments are scalars.
    """
    lam_a = _interior(lam)
    mu_a = _interior(mu)
    num = np.sqrt((1.0 - _modulus(mu_a) ** 2) * (1.0 - _modulus(lam_a) ** 2))
    # conj(mu) lam in real arithmetic: every entry then rounds exactly as the
    # scalar complex product does, while numpy's SIMD complex multiply can
    # differ in the last bit, which ill-conditioned Grams amplify
    den = np.empty(num.shape, dtype=complex)
    den.real = 1.0 - (mu_a.real * lam_a.real + mu_a.imag * lam_a.imag)
    den.imag = 0.0 - (mu_a.real * lam_a.imag - mu_a.imag * lam_a.real)
    out = num / den
    return complex(out) if np.isscalar(lam) and np.isscalar(mu) else out


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
        z = complex(z)
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


def dyadic_arc(depth: int, index: int) -> Arc:
    """The dyadic arc of the given depth (2**depth arcs per circle)."""
    if depth < 0:
        raise DomainError("dyadic depth must be nonnegative")
    n = 1 << depth
    index %= n
    length = TAU / n
    return Arc((index + 0.5) * length, length)


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
