"""Carleson norms of discrete and curve measures, and two companion
constants: the kernel-test constant and the empirical embedding constant
on polynomials.

All ratios use Euclidean units: arc lengths in radians, curve mass as
Euclidean arc length.  Suprema over arcs run over the dyadic arcs of depth
up to a requested bound, so every reported norm is a lower bound for the
true supremum and is nondecreasing in the depth.  Squares are evaluated
closed at the boundary circle so that measures with unimodular atoms are
handled; for measures supported inside the open disk this agrees with the
open square.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .disk import (
    TAU,
    CarlesonSquare,
    _modulus,
    dyadic_index,
    grid_layers,
    in_layer,
    in_open_disk,
    in_square,
    polar,
)
from .errors import DomainError

# the kernel test's layer series: atoms per block, relative tail, and rows
# per chunk of the direct sum at the interior atoms
_KERNEL_BLOCK = 32
_KERNEL_TAIL = 2.0 ** -60
_KERNEL_ROWS = 512
# (segment, arc) pairs per block of the curve norm: (2**16, 6) cut arrays
_PAIR_BLOCK = 2 ** 16


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finite positive measure sum_i mass_i * delta(point_i), |point_i| <= 1."""

    points: np.ndarray
    masses: np.ndarray

    def __init__(self, atoms):
        pts = []
        ms = []
        for p, m in atoms:
            p = complex(p)
            m = float(m)
            if not abs(p) <= 1.0 + 1e-12:  # nan fails
                raise DomainError(f"atom outside the closed disk: |z| = {abs(p):.6g}")
            if not 0.0 < m < math.inf:
                raise DomainError(f"atom masses must be positive and finite, got {m}")
            pts.append(p)
            ms.append(m)
        object.__setattr__(self, "points", np.asarray(pts, dtype=complex))
        object.__setattr__(self, "masses", np.asarray(ms, dtype=float))

    def __len__(self) -> int:
        return self.points.shape[0]

    def mass_in_square(self, square: CarlesonSquare) -> float:
        return float(self.masses[square.contains(self.points)].sum())


def _lengths_in_squares(a, d, start, length: float, closed: bool = True) -> np.ndarray:
    """Exact length of each segment [a, a + d] inside a Carleson square.

    The square's base is the arc [start, start + length) of turns; ``start``
    is a scalar (one square for every segment) or an array aligned with the
    segments (one square each).  Each segment is cut at its at most four
    crossings with the inner circle |z| = 1 - length and the two boundary
    rays; every piece between consecutive cuts lies wholly inside or outside
    the square, so its midpoint decides it, by ``in_square``.
    """
    seg_len = np.hypot(d.real, d.imag)
    r0 = max(0.0, 1.0 - length)
    cuts = [np.zeros_like(seg_len), np.ones_like(seg_len)]
    with np.errstate(divide="ignore", invalid="ignore"):
        if r0 > 0.0:
            qa = seg_len ** 2
            qb = 2.0 * (d.real * a.real + d.imag * a.imag)
            qc = np.hypot(a.real, a.imag) ** 2 - r0 * r0
            disc = qb * qb - 4.0 * qa * qc
            sq = np.sqrt(disc)
            for t in ((-qb - sq) / (2.0 * qa), (-qb + sq) / (2.0 * qa)):
                cuts.append(np.where(disc > 0.0, t, 1.0))
        if length < 1.0:
            for turn in (start, start + length):
                c, s = np.cos(TAU * turn), np.sin(TAU * turn)
                denom = c * d.imag - s * d.real
                t = -(c * a.imag - s * a.real) / denom
                cuts.append(np.where(denom != 0.0, t, 1.0))
    # cuts outside (0, 1) collapse onto an end point and give empty pieces
    ts = np.sort(np.clip(np.column_stack(cuts), 0.0, 1.0), axis=1)
    t0, t1 = ts[:, :-1], ts[:, 1:]
    u, r = polar(a[:, None] + 0.5 * (t0 + t1) * d[:, None])
    inside = (t1 > t0) & in_square(u, r, np.reshape(start, (-1, 1)), length, closed)
    return (np.where(inside, t1 - t0, 0.0) * seg_len[:, None]).sum(axis=1)


@dataclass(frozen=True)
class CurveMeasure:
    """Arc length carried by one or more polylines inside the open disk."""

    polylines: tuple

    def __init__(self, polylines):
        chains = []
        for chain in polylines:
            pts = np.array(chain, dtype=complex)  # a copy, never a view of the caller's array
            if pts.ndim != 1:
                raise DomainError("each polyline must be a 1-d sequence of vertices")
            if pts.shape[0] < 2:
                continue
            if not in_open_disk(pts).all():
                raise DomainError("polyline vertices must lie inside the open disk")
            chains.append(pts)
        object.__setattr__(self, "polylines", tuple(chains))

    def _endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        """Start and end points of every segment, polyline after polyline."""
        if not self.polylines:
            return np.empty(0, dtype=complex), np.empty(0, dtype=complex)
        return (np.concatenate([c[:-1] for c in self.polylines]),
                np.concatenate([c[1:] for c in self.polylines]))

    def mass_in_square(self, square: CarlesonSquare) -> float:
        a, b = self._endpoints()
        lengths = _lengths_in_squares(a, b - a, square.base.start_turn,
                                      square.base.normalized_length, square.closed)
        return float(lengths.sum())


def carleson_norm(measure, depth: int = 12) -> float:
    """sup over dyadic arcs of depth <= depth of mass(S(I)) / |I| (Euclidean).

    Membership in S(I) is ``disk.in_square``, as in ``mass_in_square``, so
    this is the brute-force supremum over the same arcs, up to the order in
    which masses are summed.  Only arcs whose square can receive mass are
    evaluated.

    A ``DiscreteMeasure`` takes one ``np.bincount`` per depth: the atoms in
    the depth's radial layer, binned by ``dyadic_index`` of their turns.

    A ``CurveMeasure`` takes one vectorized pass per depth.  Each segment
    that reaches radius 1 - 2**-depth is paired with the arcs of that depth
    whose indices run over floor(w0 2**depth) .. floor(w1 2**depth)
    mod 2**depth, where [w0, w1] is the shorter window of turns between its
    end points.  At depths 0 and 1 a window crossing turn 0 can span more
    than 2**depth indices, which then repeat an arc; each (arc, segment)
    pair is kept once.  The pairs' lengths inside their squares are summed
    per arc by ``np.add.at``, in blocks of ``_PAIR_BLOCK`` pairs, so the
    cut arrays of ``_lengths_in_squares`` stay bounded; its adds run in pair
    order, as ``np.bincount``'s do, whatever the blocks.
    """
    if depth < 0:
        raise DomainError("depth must be nonnegative")
    best = 0.0
    if isinstance(measure, DiscreteMeasure):
        if len(measure) == 0:
            return 0.0
        u, r = polar(measure.points)
        for level in range(depth + 1):
            n = 1 << level
            alive = in_layer(r, 1.0 / n)
            if not np.any(alive):
                continue
            mass = np.bincount(dyadic_index(u[alive], level), weights=measure.masses[alive])
            best = max(best, float(mass.max()) / (TAU / n))
        return best
    if isinstance(measure, CurveMeasure):
        a, b = measure._endpoints()
        if a.size == 0:
            return 0.0
        d = b - a
        # the shorter window [w_start, w_end] of turns holding each segment
        ta, ra = polar(a)
        tb, rb = polar(b)
        fwd = (tb - ta) % 1.0
        short = fwd <= 1.0 - fwd
        w_start = np.where(short, ta, tb)
        w_end = w_start + np.where(short, fwd, 1.0 - fwd)
        max_radius = np.maximum(ra, rb)
        for level in range(depth + 1):
            n = 1 << level
            alive = np.flatnonzero(max_radius >= 1.0 - 1.0 / n)
            if alive.size == 0:
                continue
            j0 = dyadic_index(w_start[alive], level)
            j1 = dyadic_index(w_end[alive], level)
            # more than n consecutive indices repeat an arc (depths 0 and 1)
            count = np.minimum(j1 - j0 + 1, n)
            seg = np.repeat(alive, count)
            offset = np.arange(seg.size) - np.repeat(np.cumsum(count) - count, count)
            j = (np.repeat(j0, count) + offset) % n
            mass = np.zeros(n)
            for lo in range(0, seg.size, _PAIR_BLOCK):
                s, jb = seg[lo:lo + _PAIR_BLOCK], j[lo:lo + _PAIR_BLOCK]
                np.add.at(mass, jb, _lengths_in_squares(a[s], d[s], jb / n, 1.0 / n))
            best = max(best, float(mass.max()) / (TAU / n))
        return best
    raise DomainError(f"unsupported measure type: {type(measure).__name__}")


def kernel_test_constant(measure: DiscreteMeasure) -> float:
    """sup over a grid of  sum_i mass_i |k_lam(point_i)|^2,  where
    |k_lam(p)|^2 = (1 - |lam|^2) / |1 - conj(lam) p|^2.

    The grid is ``hyperbolic_grid()`` plus the interior atoms of the measure
    themselves, which is where the supremum concentrates.  The origin gives
    the total mass, and the interior atoms are summed directly (N x N).

    Layer m of the grid (radius r, n angles theta_k = 2 pi k / n; see
    ``grid_layers``) is summed by its Fourier series.  With w_i = r p_i its
    values are S_k = (1 - r^2) sum_i m_i / |e^{i theta_k} - w_i|^2, and the
    Poisson kernel's series gives

        S_k = Re(C + 2 sum_{s >= 1} sum_i c_i w_i^s e^{-i s theta_k}),
        c_i = m_i (1 - r^2) / (1 - |w_i|^2),   C = sum_i c_i.

    e^{-i s theta_k} depends on s mod n only, so the series aliases onto n
    frequencies, in closed form  S = Re(C + 2 fft(B))  with

        B_s = sum_i c_i w_i^s / (1 - w_i^n)    for s = 1 .. n-1,
        B_0 = sum_i c_i w_i^n / (1 - w_i^n).

    This is well conditioned: |w|^n <= (1 - 0.75 * 2**-m)^(8 * 2**m) < e^-6.
    The atoms are sorted by radius and taken in blocks of ``_KERNEL_BLOCK``.
    A block whose largest |w| is rho keeps the powers s <= J =
    ceil(log(2**-60 (1 - rho)) / log rho).  Where J < n it also drops
    B_0 and the factor 1/(1 - w^n), since |w|^n < rho^J: each of the three
    cuts moves S by at most 2 sum_i c_i rho^J / ((1 - rho)(1 - e^-6)), so
    the error is below 2**-57 C, and C is the layer's mean value.  Where
    J >= n the block takes all n powers in the closed form.  The powers come
    from a cumulative product and are contracted with ``np.einsum``: a
    threaded BLAS matrix-vector product of this shape can stall.
    """
    if not isinstance(measure, DiscreteMeasure):
        raise DomainError("kernel test is defined for discrete measures")
    if len(measure) == 0:
        return 0.0
    radius = np.abs(measure.points)
    order = np.argsort(radius, kind="stable")
    points, masses = measure.points[order], measure.masses[order]
    best = float(masses.sum())  # lam = 0
    interior = points[radius[order] < 1.0 - 1e-12]
    for k in range(0, interior.size, _KERNEL_ROWS):
        lam = interior[k : k + _KERNEL_ROWS, None]
        # |lam| by hypot, as throughout the package (1 - |lam|^2 cancels)
        kern = (1.0 - _modulus(lam) ** 2) / np.abs(1.0 - np.conj(lam) * points) ** 2
        best = max(best, float(np.einsum("ij,j->i", kern, masses).max()))
    for r, n in grid_layers():
        best = max(best, float(_kernel_layer(points, masses, r, n).max()))
    return best


def _kernel_layer(points: np.ndarray, masses: np.ndarray, r: float, n: int) -> np.ndarray:
    """Kernel-test values at r exp(2 pi i k / n), k = 0 .. n-1, by the layer
    series of :func:`kernel_test_constant`; ``points`` sorted by modulus."""
    w = r * points
    radius = r * np.abs(points)
    c = masses * (1.0 - r * r) / (1.0 - radius ** 2)
    b = np.zeros(n, dtype=complex)
    for k in range(0, w.size, _KERNEL_BLOCK):
        wb, cb = w[k : k + _KERNEL_BLOCK], c[k : k + _KERNEL_BLOCK]
        rho = radius[k + wb.size - 1]
        if rho == 0.0:
            continue
        terms = math.ceil(math.log(_KERNEL_TAIL * (1.0 - rho)) / math.log(rho))
        powers = np.cumprod(np.broadcast_to(wb, (min(terms, n), wb.size)), axis=0)
        if terms < n:
            b[1 : terms + 1] += np.einsum("sj,j->s", powers, cb)
        else:
            g = cb / (1.0 - powers[-1])
            b[1:] += np.einsum("sj,j->s", powers[:-1], g)
            b[0] += np.einsum("j,j->", powers[-1], g)
    return c.sum() + 2.0 * np.fft.fft(b).real


def embedding_constant_empirical(measure: DiscreteMeasure, test_degree: int) -> float:
    """Largest eigenvalue of the L2(mu) quadratic form on polynomials.

    The form matrix is A[j, k] = sum_i mass_i point_i^k conj(point_i)^j for
    0 <= j, k <= test_degree; Hardy-space norms make the coefficient basis
    orthonormal, so the constant is the top eigenvalue of A.
    """
    if test_degree < 0:
        raise DomainError("test degree must be nonnegative")
    if len(measure) == 0:
        return 0.0
    powers = np.vander(measure.points, test_degree + 1, increasing=True)  # (n, deg+1)
    a = (powers.conj() * measure.masses[:, None]).T @ powers
    a = 0.5 * (a + a.conj().T)
    eig = np.linalg.eigvalsh(a)
    return float(max(eig[-1], 0.0))
