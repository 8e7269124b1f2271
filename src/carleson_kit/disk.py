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
* |z| is ``hypot(Re z, Im z)``: :func:`in_open_disk` tests |z| < 1,
  :func:`in_closed_disk` |z| <= ``CLOSED_RADIUS`` = 1 + 1e-12;
* arcs are kept in turns (fractions of the full circle).

This module alone rounds the disk's geometry.  :func:`one_minus_sq` gives
1 - |z|^2 correctly rounded (Dekker's exact products, Knuth's TwoSum), where
1 - r^2 with r = |z| loses u / (1 - |z|); it runs once per point set.  With
d_a = 1 - |a|^2, 1 - conj(a) b = d_a + conj(a) (a - b) is the denominator
of :func:`blaschke_factor`, :func:`kernel` and :func:`pseudo_hyperbolic`,
and |k_z(a)|^2 = d_z / (d_z d_a + |z - a|^2) is the kernel's square (the
Poisson kernel at d_a = 0); neither sum cancels by more than a factor 4.
Only :func:`kernel_inner` keeps 1 - r^2 (see there).

The metric and kernel primitives (:func:`pseudo_hyperbolic`, :func:`kernel`,
:func:`kernel_inner`) broadcast over numpy arrays like ufuncs, so
``pseudo_hyperbolic(p[:, None], p[None, :])`` is a distance matrix and
``kernel_inner(p[:, None], p[None, :])`` a kernel Gram matrix; scalar
arguments give a float or a complex.  A point set is checked once, as a
complex array, by ``_interior`` (|z| >= 1 or nan raises :class:`DomainError`),
at the public entry that receives it, and then travels with its d as a
plain pair (z, d).  The unchecked forms take d from their caller:
``_blaschke_factor``, ``_pseudo_hyperbolic`` (into reused buffers, if
given), ``_pseudo_hyperbolic_disk`` and ``_kernel_sums``.

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
CLOSED_RADIUS = 1.0 + 1e-12  # the closed disk, up to rounding
_SPLIT = 134217729.0  # Dekker's 2**27 + 1
#: real multiply-adds (a complex one counts 4) below which OpenBLAS runs a
#: matrix product on one thread whatever OPENBLAS_NUM_THREADS says; threaded
#: products stalled poisson_sum for up to 0.1 s on a loaded 2-vCPU host
_BLAS_SERIAL = 2 ** 18


def _modulus(zs: np.ndarray) -> np.ndarray:
    """|z| by ``hypot``, as Python's ``abs`` computes it for a complex number;
    numpy's SIMD ``abs`` can differ from it in the last bit."""
    return np.hypot(zs.real, zs.imag)


def in_open_disk(z) -> np.ndarray:
    """The package's one test of |z| < 1 by hypot, entrywise (nan fails).
    numpy's abs is within 3 u of hypot, so it gives hypot's answer for
    every point farther than 2**-50 from the circle; hypot decides the rest."""
    zs = np.asarray(z, dtype=complex)
    r = np.abs(zs)
    near = (r >= 1.0 - 2.0 ** -50) & (r <= 1.0 + 2.0 ** -50)
    return r < 1.0 if not near.any() else np.where(near, _modulus(zs) < 1.0, r < 1.0)


def in_closed_disk(z) -> np.ndarray:
    """|z| <= CLOSED_RADIUS by hypot, entrywise (nan fails)."""
    return _modulus(np.asarray(z, dtype=complex)) <= CLOSED_RADIUS


def _interior(z, what: str = "point") -> np.ndarray:
    """``z`` as a complex array; DomainError unless every entry lies in the
    open disk (nan fails)."""
    zs = np.asarray(z, dtype=complex)
    inside = in_open_disk(zs)
    if not inside.all():
        bad = _modulus(zs[~inside]).flat[0]
        raise DomainError(f"{what} must lie strictly inside the unit disk, got |z| = {bad:.6g}")
    return zs


def _atoms(pairs, dtype) -> tuple[np.ndarray, np.ndarray]:
    """New contiguous arrays of the places (of ``dtype``) and the masses of
    (place, mass) pairs or a (k, 2) array; DomainError unless each mass is
    real, positive and finite (nan fails)."""
    arr = np.asarray(pairs, dtype=dtype)
    if arr.size == 0:
        arr = arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise DomainError("atoms must be given as pairs")
    masses = arr[:, 1]
    if not np.all((masses.real > 0.0) & (masses.real < math.inf) & (masses.imag == 0.0)):
        raise DomainError("atom masses must be positive finite reals")
    return arr[:, 0].copy(), masses.real.copy()


def _square(x):
    """(p, e) with p = x * x rounded and p + e = x * x exactly (Dekker).
    Like :func:`_two_sum`, it updates its own temporaries in place, so an
    array costs few allocations, and Python floats run the same steps."""
    hi = _SPLIT * x
    hi -= hi - x
    lo = x - hi
    p = x * x
    e = hi * hi
    e -= p
    hi += hi
    hi *= lo
    e += hi  # ((hi^2 - p) + 2 hi lo) + lo^2
    lo *= lo
    e += lo
    return p, e


def _two_sum(a, b):
    """(s, t) with s = a + b rounded and s + t = a + b exactly (Knuth);
    overwrites arrays ``a`` and ``b``."""
    s = a + b
    v = s - a
    b -= v
    v -= s
    a += v  # (a - (s - v)) + (b - v)
    a += b
    return s, a


def one_minus_sq(z):
    """1 - |z|^2 = 1 - x^2 - y^2, z = x + iy, correctly rounded, for a numpy
    array ``z`` (complex or real) or a Python number.

    x^2 = p + e, y^2 = q + f, p + q = s + t and 1 - s = h + g exactly (g = 0
    for s >= 1/2), so 1 - |z|^2 = h + (g - t) - e - f, and three TwoSums
    carry it as hi + b + c + d.  Only the last two additions round (and
    g - t, when g != 0), so the result is correctly rounded unless the
    exact value lies within a few u^2 (u = 2^-53) of a rounding tie.  It is
    bit-identical under z -> -z and z -> conj(z).
    """
    p, e = _square(z.real)
    q, f = _square(z.imag)
    s, t = _two_sum(p, q)
    h = 1.0 - s
    g = 1.0 - h
    g -= s
    g -= t
    lo, c = _two_sum(g, -e)
    lo, d = _two_sum(lo, -f)
    hi, b = _two_sum(h, lo)
    c += d
    b += c
    return hi + b


def _one_minus_conj(a, diff, d_a, out=None):
    """1 - conj(a) b = d_a + conj(a) diff, diff = a - b, d_a = one_minus_sq(a),
    into ``out`` if given; its modulus is at least (d_a + |a| |diff|) / 4:
    two bits lost at most."""
    return np.add(np.multiply(a.conjugate(), diff, out=out), d_a, out=out)


def _blaschke_factor(lam: complex, d_lam: float, zs: np.ndarray) -> np.ndarray:
    """:func:`blaschke_factor`, unchecked, of a Python complex ``lam`` and its d."""
    if lam == 0:
        return zs + 0.0
    diff = lam - zs
    return abs(lam) / lam * diff / _one_minus_conj(lam, diff, d_lam)


def blaschke_factor(lam, z):
    """Evaluate the Blaschke factor with zero ``lam`` at ``z``.

    b_lam(z) = (|lam|/lam) (lam - z) / (1 - conj(lam) z), and b_0(z) = z.
    ``z`` may be a scalar or an ndarray; |z| <= 1 is allowed.
    """
    lam = complex(_interior(lam, "Blaschke zero"))
    out = _blaschke_factor(lam, one_minus_sq(lam), np.asarray(z, dtype=complex))
    return complex(out) if np.isscalar(z) else out


def _pseudo_hyperbolic(lam, mu, d_lam, out=None, den=None, diff=None):
    """The arithmetic of :func:`pseudo_hyperbolic`, unchecked, from
    ``d_lam`` = one_minus_sq(lam) (mu needs none): rho goes into the float
    array ``out``, with the float ``den`` and complex ``diff`` as scratch,
    all of the broadcast shape, where the caller gives them.  No square is
    formed, so rho keeps a few u of relative accuracy at any distance."""
    if out is None:
        shape = np.broadcast(lam, mu).shape
        out, den, diff = np.empty(shape), np.empty(shape), np.empty(shape, dtype=complex)
    np.abs(np.subtract(lam, mu, out=diff), out=out)
    return np.divide(out, np.abs(_one_minus_conj(lam, diff, d_lam, diff), out=den), out=out)


def pseudo_hyperbolic(lam, mu):
    """Pseudo-hyperbolic distance |b_lam(mu)| = |lam - mu| / |1 - conj(lam) mu|.

    Broadcasts over arrays of interior points; a float when both arguments
    are scalars.
    """
    lam_a = _interior(lam)
    out = _pseudo_hyperbolic(lam_a, _interior(mu), one_minus_sq(lam_a))
    return float(out) if np.isscalar(lam) and np.isscalar(mu) else out


def kernel(lam, z):
    """Normalized reproducing kernel k_lam evaluated at ``z``.

    Broadcasts over arrays of interior parameters ``lam`` and of points
    ``z``, which may lie on the circle; a complex when both are scalars.
    """
    lam_a = _interior(lam, "kernel parameter")
    d_lam = one_minus_sq(lam_a)
    out = np.sqrt(d_lam) / _one_minus_conj(lam_a, lam_a - np.asarray(z, dtype=complex), d_lam)
    return complex(out) if np.isscalar(lam) and np.isscalar(z) else out


def _kernel_sums(z, d_z, a, d_a, weights) -> np.ndarray:
    """sum_j weights_j |k_{z_i}(a_j)|^2 at each interior z_i of the 1-d
    ``z``, unchecked: |k_z(a)|^2 = d_z / (d_z d_a + |z - a|^2), d_z and d_a
    the one_minus_sq of ``z`` and ``a``; d_a = 0 gives the Poisson kernel
    of nodes on the circle.  Each chunk of rows is one matrix-vector product."""
    out = np.empty(z.shape)
    rows = max(1, (_BLAS_SERIAL - 1) // max(1, a.size))
    for k in range(0, z.size, rows):
        zc, dc = z[k : k + rows, None], d_z[k : k + rows, None]
        den = np.abs(zc - a) ** 2
        if np.any(d_a):  # nodes on the circle (d_a = 0) add nothing
            den += dc * d_a
        out[k : k + rows] = dc / den @ weights
    return out


def kernel_inner(lam, mu):
    """Inner product <k_mu, k_lam> of two normalized kernels.

    Equals sqrt(1-|mu|^2) sqrt(1-|lam|^2) / (1 - conj(mu) lam); in particular
    kernel_inner(lam, lam) = 1.  Broadcasts over arrays of interior points,
    so ``kernel_inner(p[:, None], p[None, :])`` is the Gram matrix of the
    kernels at ``p``; a complex when both arguments are scalars.
    """
    lam_a = _interior(lam)
    mu_a = _interior(mu)
    # 1 - r^2 stays here: GramFactor's lmin moves by about cond^2 u under any
    # last-bit change of G, and one_minus_sq moved the benchmark's `sequence`
    # conditions by up to 9.75e-9 relative, past its references' 1e-9
    # (ROADMAP item 15 replaces the Gram)
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
    ``CLOSED_RADIUS``), so the square is taken inside the closed disk."""
    return (r >= 1.0 - length) & (r <= CLOSED_RADIUS)


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


def dyadic_index(u, depth) -> np.ndarray:
    """Index floor(u 2**depth) of the dyadic arc of the given depth holding
    turn u, broadcast over arrays of turns and of depths;
    ``dyadic_index(u, d + 1) >> 1 == dyadic_index(u, d)`` exactly."""
    return (np.asarray(u) * 2.0 ** depth).astype(np.int64)


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


def pseudo_hyperbolic_disk(a, gamma: float):
    """Euclidean center and radius of the disk {z : |b_a(z)| < gamma}, or
    arrays of them over an array ``a``.

    center = a (1 - gamma^2) / (1 - gamma^2 |a|^2),
    radius = gamma (1 - |a|^2) / (1 - gamma^2 |a|^2),

    with 1 - gamma^2 |a|^2 = (1 - gamma^2) + gamma^2 (1 - |a|^2).
    """
    centers = _interior(a, "disk center")
    center, radius = _pseudo_hyperbolic_disk(centers, one_minus_sq(centers), gamma)
    return (complex(center), float(radius)) if np.isscalar(a) else (center, radius)


def _pseudo_hyperbolic_disk(centers: np.ndarray, d_a: np.ndarray, gamma: float):
    """:func:`pseudo_hyperbolic_disk`, unchecked in the centers and their d."""
    if not (0.0 < gamma < 1.0):
        raise DomainError(f"radius parameter must lie in (0, 1), got {gamma}")
    d_gamma = one_minus_sq(float(gamma))
    denom = d_gamma + gamma * gamma * d_a
    return centers * (d_gamma / denom), gamma * d_a / denom


def layer_index(z):
    """Index m of the dyadic layer 1 - 2^-m <= |z| < 1 - 2^-(m+1) of each
    entry of ``z`` (an int for a scalar).

    The layers partition the disk; a point on the shared circle
    |z| = 1 - 2^-(m+1) belongs to layer m + 1.  Exact comparisons correct
    the guess from log2."""
    r = _modulus(_interior(z))
    m = np.maximum(0.0, np.floor(-np.log2(1.0 - r))).astype(np.int64)
    while (low := 1.0 - np.ldexp(1.0, -m) > r).any():
        m -= low
    while (high := r >= 1.0 - np.ldexp(1.0, -(m + 1))).any():
        m += high
    return int(m) if np.isscalar(z) else m


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
