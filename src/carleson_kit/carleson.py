"""Carleson norms of discrete and curve measures, and two companion
constants: the kernel-test constant and the empirical embedding constant
on polynomials.

All ratios use Euclidean units: arc lengths in radians, curve mass as
Euclidean arc length.  Suprema over arcs run over the dyadic arcs of depth
up to a requested bound, so every reported norm is a lower bound for the
true supremum and is nondecreasing in the depth.  Square membership is
``disk.in_square``, closed at the boundary circle so that measures with
unimodular atoms are handled; for measures supported inside the open disk
this agrees with the open square.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .disk import (
    TAU,
    _atoms,
    _kernel_sums,
    _modulus,
    dyadic_index,
    grid_layers,
    in_closed_disk,
    in_layer,
    in_square,
    one_minus_sq,
    polar,
)
from .errors import DomainError

# the kernel test's layer series: atoms per power table, and the relative
# tail at which a layer's series stops
_KERNEL_BLOCK = 64
_KERNEL_TAIL = 2.0 ** -60
# per layer (r, n) of the grid, the scales r^n, r^1, ..., r^(n-1) that turn
# the sums of p^s into those of w^s, at frequency s mod n
_KERNEL_SCALES = [r ** np.r_[n, 1:n] for r, n in grid_layers()]
# segments per block of the curve norm, and (segment, arc) pairs per chunk
# of one depth within a block: the block bounds the per-segment arrays
# (about 20 numbers a segment) and the depth's pair index arrays, the chunk
# the (4, pairs) cut arrays
_PAIR_BLOCK = 2 ** 16


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finite positive measure sum_i mass_i * delta(point_i), |point_i| <= 1,
    from (point, mass) pairs or a (k, 2) array, checked as arrays."""

    points: np.ndarray
    masses: np.ndarray

    def __init__(self, atoms):
        points, masses = _atoms(atoms, complex)
        inside = in_closed_disk(points)  # nan fails
        if not inside.all():
            raise DomainError(f"atom outside the closed disk: |z| = "
                              f"{_modulus(points[~inside])[0]:.6g}")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "masses", masses)

    def __len__(self) -> int:
        return self.points.shape[0]


def _midpoint(a, d, t0, t1):
    """a + (t0 + t1)/2 d, the point whose square membership decides the
    piece [t0, t1] of the segment [a, a + d]."""
    return a + 0.5 * (t0 + t1) * d


class _Segments(NamedTuple):
    """Segments [a, a + d] with what their lengths in all squares share:
    the length |d|, the modulus |a|, and the turn and modulus (``polar``)
    of the midpoint of the whole segment, t = 1/2."""

    a: np.ndarray
    d: np.ndarray
    length: np.ndarray
    modulus: np.ndarray
    mid_turn: np.ndarray
    mid_modulus: np.ndarray

    @classmethod
    def between(cls, a, b, modulus) -> "_Segments":
        """The segments from ``a`` to ``b``; ``modulus`` is |a|, ``polar(a)[1]``."""
        d = b - a
        return cls(a, d, np.hypot(d.real, d.imag), modulus,
                   *polar(_midpoint(a, d, 0.0, 1.0)))

    def take(self, index) -> "_Segments":
        return _Segments(*(field[index] for field in self))


def _lengths_in_squares(seg: _Segments, start, length: float, rays) -> np.ndarray:
    """Exact length of each segment inside its Carleson square.

    Segment k's square is over the arc [start[k], start[k] + length) of
    turns; ``rays`` holds the cosines and the sines of the angles of the
    arcs' two ends, 2 pi start and 2 pi (start + length), as two arrays of
    shape (2, segments).

    Each segment a + t d, 0 <= t <= 1, is cut at its at most four crossings
    with the inner circle |z| = 1 - length and the two rays; a cut that does
    not exist is t = 1.  The pieces between consecutive cuts lie wholly
    inside or outside the square, so each piece's midpoint decides it, by
    ``in_square``.  No cut crosses most segments: when every cut has t <= 0
    or t >= 1 (nan fails both tests), the segment is one piece, and its
    length in the square is |d| if its own midpoint is in the square, else
    0.  Only the other segments sort their cuts (:func:`_lengths_of_pieces`).
    Both give the same bits: such a segment's sorted cuts, clipped to
    [0, 1], are 0, ..., 0, 1, ..., 1, so its one nonempty piece is (0, 1),
    its midpoint is the same expression at t0 = 0, t1 = 1, its length is
    (1 - 0) |d|, and the empty pieces add exact zeros.
    """
    a, d, seg_len = seg.a, seg.d, seg.length
    r0 = max(0.0, 1.0 - length)
    cuts = []  # (2, segments) arrays: the inner circle's two roots, the two rays
    with np.errstate(divide="ignore", invalid="ignore"):
        if r0 > 0.0:
            qa = seg_len ** 2
            qb = 2.0 * (d.real * a.real + d.imag * a.imag)
            qc = seg.modulus ** 2 - r0 * r0
            disc = qb * qb - 4.0 * qa * qc
            sq = np.sqrt(disc)
            cuts.append(np.where(disc > 0.0, np.stack((-qb - sq, -qb + sq)) / (2.0 * qa), 1.0))
        if length < 1.0:
            c, s = rays
            denom = c * d.imag - s * d.real
            cuts.append(np.where(denom != 0.0, -(c * a.imag - s * a.real) / denom, 1.0))
    out = np.where(in_square(seg.mid_turn, seg.mid_modulus, start, length), seg_len, 0.0)
    if cuts:
        cuts = np.concatenate(cuts)
        rows = np.flatnonzero(~((cuts <= 0.0) | (cuts >= 1.0)).all(axis=0))
        if rows.size:
            out[rows] = _lengths_of_pieces(seg.take(rows), cuts[:, rows], start[rows], length)
    return out


def _lengths_of_pieces(seg: _Segments, cuts: np.ndarray, start, length: float) -> np.ndarray:
    """Length in the square of each segment that a cut crosses: the pieces
    between its sorted cuts (one row of ``cuts`` per cut), by their
    midpoints; see :func:`_lengths_in_squares`."""
    ends = [np.zeros_like(seg.length), np.ones_like(seg.length)]
    # cuts outside (0, 1) collapse onto an end point and give empty pieces
    ts = np.sort(np.clip(np.column_stack(ends + list(cuts)), 0.0, 1.0), axis=1)
    t0, t1 = ts[:, :-1], ts[:, 1:]
    u, r = polar(_midpoint(seg.a[:, None], seg.d[:, None], t0, t1))
    inside = (t1 > t0) & in_square(u, r, start[:, None], length)
    return (np.where(inside, t1 - t0, 0.0) * seg.length[:, None]).sum(axis=1)


@dataclass(frozen=True)
class CurveMeasure:
    """Arc length carried by one or more polylines inside the open disk.

    The vertices are held once, polyline after polyline, with their polar
    coordinates (``polar``); the modulus is also the open-disk test of
    ``disk.in_open_disk``.  ``polylines`` are views into those vertices.
    """

    polylines: tuple

    def __init__(self, polylines):
        chains = []
        for chain in polylines:
            pts = np.asarray(chain, dtype=complex)
            if pts.ndim != 1:
                raise DomainError("each polyline must be a 1-d sequence of vertices")
            if pts.shape[0] >= 2:
                chains.append(pts)
        # a copy, never a view of the caller's arrays
        vertices = np.concatenate(chains) if chains else np.empty(0, dtype=complex)
        turn, modulus = polar(vertices)
        if not (modulus < 1.0).all():
            raise DomainError("polyline vertices must lie inside the open disk")
        ends = np.cumsum([c.size for c in chains], dtype=np.int64)
        first = np.ones(vertices.size, dtype=bool)
        first[ends - 1] = False
        object.__setattr__(self, "polylines", tuple(np.split(vertices, ends)[:-1]))
        object.__setattr__(self, "_vertices", vertices)
        object.__setattr__(self, "_polar", (turn, modulus))
        # the index of each segment's first vertex; the segment ends at the next vertex
        object.__setattr__(self, "_first", np.flatnonzero(first))


def carleson_norm(measure, depth: int = 12) -> float:
    """sup over dyadic arcs of depth <= depth of mass(S(I)) / |I| (Euclidean).

    Membership in S(I) is ``disk.in_square``, so this is the brute-force
    supremum over the dyadic arcs, up to the order in which masses are
    summed.  Only arcs whose square can receive mass are evaluated.

    A ``DiscreteMeasure`` takes one ``np.bincount`` per depth: the atoms in
    the depth's radial layer, binned by ``dyadic_index`` of their turns.

    A ``CurveMeasure`` runs over blocks of ``_PAIR_BLOCK`` segments, and
    within a block over the depths.  At a depth, each segment of the block
    that reaches radius 1 - 2**-depth is paired with the arcs of that depth
    whose indices run over floor(w0 2**depth) .. floor(w1 2**depth)
    mod 2**depth, where [w0, w1] is the shorter window of turns between its
    end points.  At depths 0 and 1 a window crossing turn 0 can span more
    than 2**depth indices, which then repeat an arc; each (arc, segment)
    pair is kept once.  The cosines and sines of the arc ends are computed
    once per depth that has pairs, and gathered per pair.
    ``_lengths_in_squares`` gives each pair's length inside its square, in
    chunks of ``_PAIR_BLOCK`` pairs.  A pair that no cut crosses takes the
    segment's length or 0, as the midpoint of the segment says; only the
    others sort their cuts.  Its docstring shows why both give the bits
    that sorting every pair gave.  ``np.add.at`` adds the lengths into the
    depth's arc masses in pair order, block after block, which is the order
    of the pairs of all segments at once: each arc's sum rounds as it would
    in one pass, whatever the blocks.
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
        vertices, first = measure._vertices, measure._first
        turn, modulus = measure._polar
        arcs = {}  # depth: its arcs' masses, and the turns, cosines and sines of their ends
        for lo in range(0, first.size, _PAIR_BLOCK):
            # a block of segments, by the indices and polar coordinates of their vertices
            ia = first[lo:lo + _PAIR_BLOCK]
            ib = ia + 1
            ta, ra, tb, rb = turn[ia], modulus[ia], turn[ib], modulus[ib]
            segs = _Segments.between(vertices[ia], vertices[ib], ra)
            # the shorter window [w_start, w_end] of turns holding each segment
            fwd = (tb - ta) % 1.0
            short = fwd <= 1.0 - fwd
            w_start = np.where(short, ta, tb)
            w_end = w_start + np.where(short, fwd, 1.0 - fwd)
            max_radius = np.maximum(ra, rb)
            alive = np.arange(ia.size)
            for level in range(depth + 1):
                n = 1 << level
                # the layers shrink as the depth grows, and so does alive
                alive = alive[max_radius[alive] >= 1.0 - 1.0 / n]
                if alive.size == 0:
                    break
                j0 = dyadic_index(w_start[alive], level)
                j1 = dyadic_index(w_end[alive], level)
                # more than n consecutive indices repeat an arc (depths 0 and 1)
                count = np.minimum(j1 - j0 + 1, n)
                seg = np.repeat(alive, count)
                offset = np.arange(seg.size) - np.repeat(np.cumsum(count) - count, count)
                j = (np.repeat(j0, count) + offset) % n
                if level not in arcs:
                    ends = np.arange(n + 1) / n
                    arcs[level] = np.zeros(n), ends, np.cos(TAU * ends), np.sin(TAU * ends)
                mass, ends, cos, sin = arcs[level]
                for plo in range(0, seg.size, _PAIR_BLOCK):
                    sb, jb = seg[plo:plo + _PAIR_BLOCK], j[plo:plo + _PAIR_BLOCK]
                    rays = np.stack((jb, jb + 1))  # each pair's arc: its start and end
                    np.add.at(mass, jb, _lengths_in_squares(
                        segs.take(sb), ends[jb], 1.0 / n, (cos[rays], sin[rays])))
        return max((float(mass.max()) / (TAU / mass.size) for mass, *_ in arcs.values()),
                   default=0.0)
    raise DomainError(f"unsupported measure type: {type(measure).__name__}")


def kernel_test_constant(measure: DiscreteMeasure) -> float:
    """sup over a grid of  sum_i mass_i |k_lam(point_i)|^2,  where
    |k_lam(p)|^2 = (1 - |lam|^2) / |1 - conj(lam) p|^2.

    The grid is ``hyperbolic_grid()`` plus the interior atoms of the measure
    themselves, which is where the supremum concentrates.  The origin gives
    the total mass, and the interior atoms are summed directly (N x N) by
    ``disk._kernel_sums``, in chunks that bound its temporaries.

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
    In a layer, a block whose largest |w| is rho keeps the powers s <= J =
    ceil(log(2**-60 (1 - rho)) / log rho).  Where J < n it also drops
    B_0 and the factor 1/(1 - w^n), since |w|^n < rho^J: each of the three
    cuts moves S by at most 2 sum_i c_i rho^J / ((1 - rho)(1 - e^-6)), so
    the error is below 2**-57 C, and C is the layer's mean value.  Where
    J >= n the block takes all n powers in the closed form.

    Since w^s = r^s p^s, one table of p^s per block serves all the layers:
    it is built once, by repeated doubling, up to the most powers any layer
    keeps, min(J, n).  Each layer contracts its first min(J, n) columns with
    its own coefficients, c_i or c_i / (1 - r^n p_i^n), and scales the sums
    by r^s once all blocks are in.  The contractions run on the table's real
    and imaginary parts with ``np.einsum``: a threaded BLAS
    matrix-vector product of this shape stalls when another process holds
    the other cores.
    """
    if not isinstance(measure, DiscreteMeasure):
        raise DomainError("kernel test is defined for discrete measures")
    if len(measure) == 0:
        return 0.0
    radius = np.abs(measure.points)
    order = np.argsort(radius, kind="stable")
    points, masses = measure.points[order], measure.masses[order]
    defects = one_minus_sq(points)
    best = float(masses.sum())  # lam = 0
    inner = int(np.count_nonzero(radius < 1.0 - 1e-12))  # sorted first
    if inner:
        best = max(best, float(_kernel_sums(points[:inner], defects[:inner], points, defects,
                                            masses).max()))
    for values in _kernel_layers(points, defects, masses):
        best = max(best, float(values.max()))
    return best


def _kernel_layers(points: np.ndarray, defects: np.ndarray, masses: np.ndarray) -> list:
    """Kernel-test values at r exp(2 pi i k / n), k = 0 .. n-1, on each layer
    (r, n) of ``grid_layers()``, by the layer series of
    :func:`kernel_test_constant`; ``points`` sorted by modulus, and
    ``defects`` their one_minus_sq."""
    modulus = np.abs(points)
    radii, angles = map(np.array, zip(*grid_layers()))
    ends = radii ** angles  # r^n
    # c_i, one row a layer, with 1 - |w|^2 = (1 - r^2) + r^2 (1 - |p|^2)
    d_radii = one_minus_sq(radii)[:, None]
    c = masses * d_radii / (d_radii + (radii * radii)[:, None] * defects)
    # per layer, sum_i coefficient_i p_i^s over the blocks at index s = 1 .. n
    sums = [np.zeros(n + 1, dtype=complex) for n in angles]
    for k in range(0, points.size, _KERNEL_BLOCK):
        block = slice(k, k + _KERNEL_BLOCK)
        largest = modulus[block][-1]
        if largest == 0.0:  # atoms at the origin add nothing to the series
            continue
        rho = radii * largest
        terms = np.ceil(np.log(_KERNEL_TAIL * (1.0 - rho)) / np.log(rho))
        keep = np.minimum(terms, angles).astype(int)
        table = _powers(points[block], int(keep.max()))
        parts = table.view(float)  # columns 2s - 2 and 2s - 1: p^s's real and imaginary parts
        cb = c[:, block]
        truncated = terms < angles
        for m in np.flatnonzero(truncated).tolist():
            j = keep[m]
            sums[m][1 : j + 1] += np.einsum("j,js->s", cb[m], parts[:, : 2 * j]).view(complex)
        closed = np.flatnonzero(~truncated)
        if closed.size:
            # c_i / (1 - w_i^n), its real and imaginary parts stacked
            g = cb[closed] / (1.0 - ends[closed, None] * table[:, angles[closed] - 1].T)
            g = np.stack((g.real, g.imag), axis=1)
            for m, gm in zip(closed.tolist(), g):
                n = angles[m]
                u = np.einsum("tj,js->ts", gm, parts[:, : 2 * n])
                sums[m][1:] += u[0].view(complex) + 1j * u[1].view(complex)
    out = []
    for n, scale, coef, acc in zip(angles, _KERNEL_SCALES, c, sums):
        acc[0] = acc[n]  # p^n aliases onto frequency 0
        out.append(coef.sum() + 2.0 * np.fft.fft(scale * acc[:n]).real)
    return out


def _powers(p: np.ndarray, count: int) -> np.ndarray:
    """The table p^s, s = 1 .. count, of shape (p.size, count): column s - 1
    holds p^s.  Each pass doubles the columns, p^(k + s) = p^s p^k, so a
    power takes at most about log2(s) rounded products."""
    out = np.empty((p.size, count), dtype=complex)
    out[:, 0] = p
    k = 1
    while k < count:
        m = min(k, count - k)
        np.multiply(out[:, :m], out[:, k - 1 : k], out=out[:, k : k + m])
        k += m
    return out


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
