"""Geometry of the unit disk.

Blaschke factors, the pseudo-hyperbolic metric, normalized reproducing
kernels of the Hardy space, membership in Carleson squares, dyadic arcs and
the dyadic radial layers of the disk.

Conventions used throughout the package:

* a Blaschke factor with zero ``lam`` is
  ``b_lam(z) = (|lam|/lam) * (lam - z) / (1 - conj(lam) * z)``,
  with ``b_0(z) = z`` when ``lam = 0``;
* the normalized reproducing kernel at ``lam`` is
  ``k_lam(z) = sqrt(1 - |lam|^2) / (1 - conj(lam) * z)``;
* |z| is ``hypot(Re z, Im z)``, and :func:`in_open_disk` tests |z| < 1;
* arcs are kept in turns (fractions of the full circle).

The metric and kernel primitives (:func:`pseudo_hyperbolic`, :func:`kernel`,
:func:`kernel_inner`) broadcast over numpy arrays like ufuncs, so
``pseudo_hyperbolic(p[:, None], p[None, :])`` is a distance matrix and
``kernel_inner(p[:, None], p[None, :])`` a kernel Gram matrix; scalar
arguments give a float or a complex.  Each of them is the package's one
implementation of its formula.  Every entry that must be an
interior point is checked: |z| >= 1 or nan raises :class:`DomainError`.
log|B| is ``blaschke.blaschke_log_abs``, a sum of log :func:`pseudo_hyperbolic`.

A Carleson square exists only as its membership test: :func:`in_square` of
the turn and modulus that :func:`polar` gives a point, over an arc of turns.
The square is closed at the boundary circle, so that atoms on the circle
count; it is exact for dyadic arcs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

TAU = 2.0 * math.pi


def _modulus(zs: np.ndarray) -> np.ndarray:
    """|z| by ``hypot``, as Python's ``abs`` computes it for a complex number;
    numpy's SIMD ``abs`` can differ from it in the last bit."""
    return np.hypot(zs.real, zs.imag)


def in_open_disk(z) -> np.ndarray:
    """The package's one test of |z| < 1, entrywise (nan fails)."""
    return _modulus(np.asarray(z, dtype=complex)) < 1.0


def require_interior(p, what: str = "point") -> complex:
    z = complex(p)  # Python's abs is the hypot of in_open_disk, without numpy's call cost
    if not abs(z) < 1.0:
        raise DomainError(f"{what} must lie strictly inside the unit disk, got |z| = {abs(z):.6g}")
    return z


def _interior(z, what: str = "point") -> np.ndarray:
    """``z`` as a complex array; DomainError unless every entry lies in the
    open disk (nan fails)."""
    zs = np.asarray(z, dtype=complex)
    inside = in_open_disk(zs)
    if not inside.all():
        bad = _modulus(zs[~inside]).flat[0]
        raise DomainError(f"{what} must lie strictly inside the unit disk, got |z| = {bad:.6g}")
    return zs


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


def turns(theta) -> np.ndarray:
    """Angles (radians) as turns in [0, 1): (theta / 2 pi) mod 1, where a
    value that rounds to 1 wraps to 0."""
    v = np.asarray(theta, dtype=float) / TAU
    u = v - np.floor(v)  # rounds as v % 1.0 does, at a fraction of its cost
    return u - (u == 1.0)


def polar(z) -> tuple[np.ndarray, np.ndarray]:
    """Turn u = arg(z) / 2 pi mod 1 and modulus r of each point, the two
    coordinates :func:`in_square` tests."""
    zs = np.asarray(z, dtype=complex)
    return turns(np.arctan2(zs.imag, zs.real)), _modulus(zs)


def in_layer(r, length) -> np.ndarray:
    """The radial half of :func:`in_square`: 1 - length <= r <= 1 (up to
    1e-12), so the square is taken inside the closed disk."""
    return (r >= 1.0 - length) & (r <= 1.0 + 1e-12)


def in_square(u, r, start, length: float) -> np.ndarray:
    """The package's one test of membership in a Carleson square.

    The point with turn ``u`` and modulus ``r`` (see :func:`polar`) is in
    the square over the arc [start, start + length) of turns modulo 1 when
    (u - start) mod 1 < length (any u if length >= 1) and :func:`in_layer`
    holds.  For a dyadic arc, start = j 2**-d and length = 2**-d, d <= 52,
    every step is exact: the angle test is ``dyadic_index(u, d) == j``, so
    squares of depth d + 1 nest in their parents.
    """
    inside = in_layer(r, length)
    if length >= 1.0:
        return inside
    w = u - start
    return inside & (w - np.floor(w) < length)


def dyadic_index(u, depth: int) -> np.ndarray:
    """Index floor(u 2**depth) of the dyadic arc of the given depth holding
    turn u; ``dyadic_index(u, d + 1) >> 1 == dyadic_index(u, d)`` exactly."""
    return (np.asarray(u) * float(1 << depth)).astype(np.int64)


@dataclass(frozen=True)
class Arc:
    """The half-open boundary arc [start_turn, start_turn + normalized_length)
    of turns modulo 1, so that equal-depth dyadic arcs partition the circle
    exactly."""

    start_turn: float
    normalized_length: float


def dyadic_arc(depth: int, index: int) -> Arc:
    """The dyadic arc [index 2**-depth, (index + 1) 2**-depth) of turns
    (2**depth arcs per circle), exact for depth <= 52."""
    if depth < 0:
        raise DomainError("dyadic depth must be nonnegative")
    n = 1 << depth
    return Arc((index % n) / n, 1.0 / n)


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


def hyperbolic_grid(max_layer: int = 10, base_angles: int = 8) -> np.ndarray:
    """Quasi-uniform sample of the disk: the origin, then layer by layer.

    Layer m gets base_angles * 2**m equally spaced angles at the layer's
    radial midpoint 1 - 0.75 * 2**-m (see :func:`grid_layers`).  The default
    (10 layers, 8 base angles) is the grid used for sup-over-the-disk
    estimates.
    """
    pts = [np.array([0.0 + 0.0j])]
    for r, n in grid_layers(max_layer, base_angles):
        theta = TAU * np.arange(n) / n
        pts.append(r * np.exp(1j * theta))
    return np.concatenate(pts)
