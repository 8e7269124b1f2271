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
    in_open_disk,
    in_square,
    one_minus_sq,
    polar,
)
from .errors import DomainError

# the kernel test's layer series: atoms per power table, and the relative
# tail at which a layer's series stops
_KERNEL_BLOCK = 64
_KERNEL_TAIL = 2.0 ** -60
# the relative margin by which a layer's bound must fall short of the
# running supremum for the layer to be skipped (proof: kernel_test_constant)
_LAYER_PAD = 1e-9
# the radii r and angle counts n of the grid's layers, and per layer the
# scales r^n, r^1, ..., r^(n-1) that turn the sums of p^s into those of w^s,
# at frequency s mod n
_LAYER_RADII, _LAYER_ANGLES = map(np.array, zip(*grid_layers()))
_KERNEL_SCALES = [r ** np.r_[n, 1:n] for r, n in grid_layers()]
# segments per block of the curve norm, straddling segments per block of
# one depth, and (segment, arc) pairs per chunk: the blocks bound the
# per-segment arrays (about 20 numbers a straddling segment) and the pair
# index arrays, the chunk the (4, pairs) cut arrays
_PAIR_BLOCK = 2 ** 16
# polylines per block of the curve norm: the tests of their bounding disks
# hold about 20 numbers per polyline and depth
_POLYLINE_BLOCK = 2 ** 10
# the margin by which a polyline's bounding disk clears the inner circle and
# the rays of an arc for its segments to be measured whole
_PAD = 1e-9
# the deepest dyadic depth of a Carleson norm: the arcs of each depth d up
# to it take arrays of 2**d numbers
MAX_DEPTH = 24


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
    # a tiny denominator can overflow a ray cut to +-inf: it lies outside
    # (0, 1), which is the right answer
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
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

    The vertices are held once, polyline after polyline, and checked by
    ``disk.in_open_disk``; ``polylines`` are views into them.
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
        if not in_open_disk(vertices).all():
            raise DomainError("polyline vertices must lie inside the open disk")
        sizes = np.array([c.size for c in chains], dtype=np.int64)
        ends = np.cumsum(sizes)
        object.__setattr__(self, "polylines", tuple(
            vertices[a:b] for a, b in zip((ends - sizes).tolist(), ends.tolist())))
        object.__setattr__(self, "_vertices", vertices)
        # each polyline's first vertex and its number of segments; segment i
        # runs from vertex i to vertex i + 1
        object.__setattr__(self, "_chains", (ends - sizes, sizes - 1))


def _ranges(starts, counts) -> np.ndarray:
    """starts[k], starts[k] + 1, ..., starts[k] + counts[k] - 1, for k in order."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1] if ends.size else 0) + np.repeat(starts - (ends - counts), counts)


def carleson_norm(measure, depth: int = 12) -> float:
    """sup over dyadic arcs of depth <= depth of mass(S(I)) / |I| (Euclidean).

    Membership in S(I) is ``disk.in_square``, so this is the brute-force
    supremum over the dyadic arcs, up to the order in which masses are
    summed.  Only arcs whose square can receive mass are evaluated.

    A ``DiscreteMeasure`` takes one ``np.bincount`` per depth: the atoms in
    the depth's radial layer, binned by ``dyadic_index`` of their turns.

    A ``CurveMeasure`` is measured by :func:`_curve_norm`.

    ``depth`` must lie in 0..``MAX_DEPTH``: either kind of measure takes
    arrays of up to 2**depth arc masses per depth.
    """
    if not 0 <= depth <= MAX_DEPTH:
        raise DomainError(f"depth must lie in 0..{MAX_DEPTH}")
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
        return _curve_norm(measure, depth)
    raise DomainError(f"unsupported measure type: {type(measure).__name__}")


def _curve_norm(measure: CurveMeasure, depth: int) -> float:
    """The Carleson norm of a ``CurveMeasure``: at each depth d, the length
    of the polylines in the square over each arc of depth d, by
    ``in_square`` of the pieces between their cuts
    (:func:`_lengths_in_squares`), in two phases.

    Broad phase.  Each polyline has a bounding disk: its centre v0 is the
    first vertex, and its radius R is the polyline's length, halved when
    the polyline closes (its last vertex is its first), so that every point
    of the polyline lies within R of v0 along it.  With r0 = 1 - 2**-d, the
    inner circle of the depth's squares, and the pad ``_PAD`` = 1e-9:

    - a polyline with |v0| + R < r0 - pad is dropped for good, since r0
      grows with d;
    - a polyline is *whole* when its disk lies in the layer, |v0| - R >
      r0 + pad, and inside the wedge of the arc j of depth d that holds the
      turn of v0: with e and e' the (cosine, sine) of the arc's two end
      angles, the cross products e x v0 and v0 x e' both exceed R + pad.
      At depth 0 the one square is the closed disk, and every polyline is
      whole.  Each segment of a whole polyline adds its length |d| to arc j;
    - every other polyline *straddles*.  Each of its segments that reaches
      r0 at an end point is paired with the arcs of depth d whose indices
      run over floor(w0 2**d) .. floor(w1 2**d) mod 2**d, where [w0, w1] is
      the shorter window of turns between its end points (at depth 1 a
      window across turn 0 can span more than 2 indices, which then repeat
      an arc: each pair is kept once), and :func:`_lengths_in_squares`
      gives each pair's length.

    Every segment took that last path before the broad phase, and the other
    two give the same bits.  A dropped polyline has no vertex of modulus r0
    or more, so none of its segments was paired.  A segment of a whole
    polyline was paired with arc j only, and had length |d| there, because
    the pad dominates every rounding on the way (u = 2**-53; moduli are at
    most 1, and d >= 1, so r0 >= 1/2):

    - modulus: |v0| and the segment lengths are hypots, within u of exact,
      and R, their sum, is within (log2 k + 2) u R of exact for k segments:
      below 1e-14, as R < 1 (a disk with R >= 1 is never whole).  So every
      point of the segment has modulus above r0 + pad - 1e-14, and its end
      points reach r0;
    - turn: e and e' are within 2u of the unit vectors at the arc's ends,
      as are the rays the cuts use, so the disk keeps a distance above
      pad - 1e-14 from the lines through the origin along both.  Each end
      point's turn lies in arc j, more than (pad - 1e-14) / 2 pi from its
      ends; a computed turn is within 2u of exact, so it has
      ``dyadic_index`` j, and so do both ends of the window.  The midpoint,
      computed within 2u, lies in the square over arc j;
    - cut: a ray cut t = -(e x a) / (e x d) lies outside (0, 1), as a and
      a + d lie on one side of the line by more than pad - 1e-14 while
      e x a and e x d are computed within 3u; a tiny e x d can overflow t
      to +-inf, outside too.  A computed root t of the inner circle's
      quadratic has | |a + t d|^2 - r0^2 | below about 30 u (its
      coefficients are within a few u of exact, and rounding the root
      moves |a + t d|^2 by a few u more, near tangency too), while every
      point of the segment has |z|^2 - r0^2 > 2 r0 (pad - 1e-14) > 1e-10.

    So no cut fell inside the segment, and :func:`_lengths_in_squares` took
    its one-piece path: the length in the square over arc j is |d|, the
    same hypot of the same difference.

    Keep the bits: at each depth, one ``np.add.at`` adds the lengths into
    the arc masses in segment order (the whole polylines' segments, each
    polyline ending in a 0 that changes no sum, and the straddling pairs,
    merged by their places in polyline order), so each arc's sum rounds as
    when every segment was paired.  The polylines go in
    blocks of about ``_PAIR_BLOCK`` segments and at most ``_POLYLINE_BLOCK``
    polylines, block after block, which bounds the arrays and keeps that
    order.  Turns are taken for the polyline centres, and for the vertices
    of a polyline when it first straddles.
    """
    vertices = measure._vertices
    start, count = measure._chains
    if start.size == 0:
        return 0.0
    masses = {}  # per depth that has pairs, the masses of its arcs
    # blocks of about _PAIR_BLOCK segments and at most _POLYLINE_BLOCK polylines
    block = count.cumsum() // _PAIR_BLOCK + np.arange(start.size) // _POLYLINE_BLOCK
    cuts = [0, *((block[1:] != block[:-1]).nonzero()[0] + 1).tolist(), start.size]
    for lo, hi in zip(cuts, cuts[1:]):
        first, last = start[lo], start[hi - 1] + count[hi - 1]
        _add_block(masses, vertices[first:last + 1], start[lo:hi] - first, count[lo:hi], depth)
    return max((float(mass.max()) / (TAU / mass.size) for mass in masses.values()),
               default=0.0)


def _add_block(masses: dict, vertices, start, count, depth: int) -> None:
    """Add the lengths of a block of polylines to the arc masses of each
    depth, ``masses[d]``, made at the first pair of the depth; ``start``
    holds each polyline's first vertex and ``count`` its number of
    segments.  See :func:`_curve_norm`."""
    # the length of segment i, from vertex i to vertex i + 1, and 0 at each
    # polyline's last vertex: so a polyline holds one entry per vertex, and
    # its 0 adds nothing to the arc it is added to
    step = vertices[1:] - vertices[:-1]
    lengths = np.empty(vertices.size)
    lengths[:-1] = np.hypot(step.real, step.imag)
    lengths[start + count] = 0.0
    centre = vertices[start]
    u, r = polar(centre)
    # the polyline's length, halved when it closes: every vertex lies
    # within it of the first one along the polyline
    last = vertices[start + count]
    reach = np.add.reduceat(lengths, start)
    reach[(last.real == centre.real) & (last.imag == centre.imag)] *= 0.5
    # a row per depth, a column per polyline: whether it reaches the layer,
    # the arc holding its centre's turn, and whether it lies whole in that
    # arc's square
    levels = np.arange(depth + 1)[:, None]
    r0 = 1.0 - 1.0 / 2.0 ** levels
    reaches = r + reach >= r0 - _PAD
    arc = dyadic_index(u, levels)
    angle = TAU * (np.array((arc, arc + 1)) / 2.0 ** levels)  # the arc's ends
    cross = np.cos(angle) * centre.imag - np.sin(angle) * centre.real  # e x v0, -(v0 x e')
    whole = (r - reach > r0 + _PAD) & (np.minimum(cross[0], -cross[1]) > reach + _PAD)
    whole[0] = True  # the one square of depth 0 is the closed disk
    # polar coordinates of the vertices, taken when their polyline first straddles
    turn, modulus = np.empty(vertices.size), np.empty(vertices.size)
    ready = np.zeros(start.size, dtype=bool)
    # a polyline that reaches a depth reaches all the shallower ones, and a
    # whole one reaches its depth: the polylines live at each depth, and the
    # whole ones among them, by count
    live_count, whole_count = reaches.sum(axis=1).tolist(), whole.sum(axis=1).tolist()
    live = np.arange(start.size)
    for level in range(depth + 1):
        if live_count[level] < live.size:
            if live_count[level] == 0:
                return
            keep = reaches[level, live]
            lengths = lengths[keep.repeat(count[live] + 1)]
            live = live[keep]
        sizes, j = count[live] + 1, arc[level, live]
        if whole_count[level] == live.size:
            index, values = j.repeat(sizes), lengths
        else:
            inside = whole[level, live]
            index, values = j[inside].repeat(sizes[inside]), lengths[inside.repeat(sizes)]
            straddle = live[~inside]
            new = straddle[~ready[straddle]]
            if new.size:
                at = _ranges(start[new], count[new] + 1)
                turn[at], modulus[at] = polar(vertices[at])
                ready[new] = True
            segs = _ranges(start[straddle], count[straddle])
            # the whole polylines' entries ahead of each straddling segment
            ahead = np.repeat(np.cumsum(np.where(inside, sizes, 0))[~inside], count[straddle])
            paired = np.maximum(modulus[segs], modulus[segs + 1]) >= r0[level]
            if paired.any():
                place, pair_index, pair_length = _straddling_pairs(
                    vertices, turn, modulus, segs[paired], ahead[paired], level)
                merged = np.zeros(values.size + place.size, dtype=bool)
                merged[place] = True
                index = _merge(merged, index, pair_index)
                values = _merge(merged, values, pair_length)
        if index.size:
            if level not in masses:
                masses[level] = np.zeros(1 << level)
            np.add.at(masses[level], index, values)


def _merge(straddling, whole, pairs) -> np.ndarray:
    """One array in stream order from the whole polylines' entries and the
    straddling pairs', which take the places ``straddling`` marks."""
    out = np.empty(straddling.size, dtype=whole.dtype)
    out[straddling] = pairs
    out[~straddling] = whole
    return out


def _straddling_pairs(vertices, turn, modulus, segs, ahead, level: int):
    """The (arc, segment) pairs of depth ``level`` of the straddling
    segments ``segs`` (their first vertices, in order, at least one): each
    pair's place in the depth's stream, its arc, and its length in the
    arc's square.  ``ahead`` counts, per segment, the whole polylines'
    entries ahead of it in the stream; see :func:`_curve_norm`."""
    n = 1 << level
    ends = np.arange(n + 1) / n  # the arcs' ends, in turns
    cos, sin = np.cos(TAU * ends), np.sin(TAU * ends)
    places, arcs, lengths = [], [], []
    done = 0  # pairs so far
    for lo in range(0, segs.size, _PAIR_BLOCK):
        ia = segs[lo:lo + _PAIR_BLOCK]
        ib = ia + 1
        ta, tb = turn[ia], turn[ib]
        seg = _Segments.between(vertices[ia], vertices[ib], modulus[ia])
        # the shorter window [w_start, w_end] of turns holding each segment
        fwd = (tb - ta) % 1.0
        short = fwd <= 1.0 - fwd
        w_start = np.where(short, ta, tb)
        w_end = w_start + np.where(short, fwd, 1.0 - fwd)
        j0 = dyadic_index(w_start, level)
        j1 = dyadic_index(w_end, level)
        # more than n consecutive indices repeat an arc (depth 1)
        count = np.minimum(j1 - j0 + 1, n)
        which = np.repeat(np.arange(ia.size), count)
        offset = np.arange(which.size) - np.repeat(np.cumsum(count) - count, count)
        j = (np.repeat(j0, count) + offset) % n
        places.append(done + np.arange(which.size) + ahead[lo:lo + _PAIR_BLOCK][which])
        done += which.size
        arcs.append(j)
        for plo in range(0, which.size, _PAIR_BLOCK):
            sb, jb = which[plo:plo + _PAIR_BLOCK], j[plo:plo + _PAIR_BLOCK]
            rays = np.stack((jb, jb + 1))  # each pair's arc: its start and end
            lengths.append(_lengths_in_squares(seg.take(sb), ends[jb], 1.0 / n,
                                               (cos[rays], sin[rays])))
    return np.concatenate(places), np.concatenate(arcs), np.concatenate(lengths)


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

    Layers that cannot win are skipped.  Once the origin and the interior
    atoms have set ``best``, layer m is summed only when

        fl(U (1 + _LAYER_PAD)) >= best,   U = (1 - r^2) sum_i m_i / (1 - r |p_i|)^2,

    at O(N) per layer (``_layer_bounds``).  U bounds the layer: for |xi| = 1,
    |xi - r p| >= 1 - r |p|, so S_k <= U at every angle.  On the benchmark's
    48 ``carleson`` measures layers 4 .. 10 are skipped (layer 4 is summed
    once): the supremum sits at an atom.

    The pad.  Let V_k be a computed value of a skipped layer, U' the
    computed bound and u = 2**-53.  It suffices that V_k <= best, for then
    the maximum, and so the returned float, is the unpruned route's.  Since
    1 - |w| >= 1 - r >= 0.75 * 2**-10, 1 / (1 - |w|) < 1366.
      - U' is within 16,500 u of U: |p| (numpy's abs, within 4 u) and r |p|
        leave an absolute error of at most 6 u in 1 - r |p|, so a relative
        one of at most 8192 u, doubled by the square; the divisions, the
        products and the sum of N positive terms add under 100 u.
      - V_k is within 2**-57 C + 5e-11 U of S_k for N <= 10**7 atoms.  The
        truncation is bounded above, and C <= U, since (1 - r |p|)^2 <=
        1 - |w|^2.  A term c_i w_i^s, aliased or not, carries a relative
        error of at most 3 (s + 20) u, since the errors of the s - 1
        products in p^s's tree add, however the table is built.  Weighted
        by |w|^s these add at most 6.1 u (1366 + 20) U, because
        c_i / (1 - |w_i|)^2 = U_i / (1 - |w_i|^2).  The terms' moduli total at most 2.01 K, with
        K = sum_i c_i / (1 - |w_i|) <= U, and they pass at most N / 64 + 64
        accumulations (the einsum over a block, then the blocks in turn),
        the 13 butterfly stages of an FFT of n <= 8192 points (at most 8 u
        each) and a few scalings: under (N / 64 + 200) 2.01 u U.
    So V_k <= U (1 + 5e-11) <= U' (1 + 7e-11) < fl(U' (1 + 1e-9)), and the
    test skips the layer only when that float is below ``best``.

    The bits.  The bound only chooses which layers ``_kernel_layers`` sums;
    an evaluated layer's values are the unpruned route's, bit for bit.  Its
    coefficients, ends r^n and series lengths come from the same arrays over
    all eleven layers.  Its power columns are the same: ``_powers`` builds
    column s as a product of columns s - k and k - 1 (k the power of two
    with k <= s < 2k) however long the table, and numpy's elementwise
    products round each element alone.  Its einsum reads the same slices,
    and its sums, FFT and scaling are the same calls on equal arrays.
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
    reach = (1.0 + _LAYER_PAD) * _layer_bounds(radius[order], masses) >= best
    for values in _kernel_layers(points, defects, masses, np.flatnonzero(reach)):
        best = max(best, float(values.max()))
    return best


def _layer_bounds(modulus: np.ndarray, masses: np.ndarray) -> np.ndarray:
    """Per layer (r, n) of ``grid_layers()``, the bound
    U = (1 - r^2) sum_i m_i / (1 - r |p_i|)^2 of its kernel-test values;
    ``modulus`` holds the |p_i|.  See :func:`kernel_test_constant`."""
    radii = _LAYER_RADII
    return one_minus_sq(radii) * (masses / (1.0 - radii[:, None] * modulus) ** 2).sum(axis=1)


def _kernel_layers(points: np.ndarray, defects: np.ndarray, masses: np.ndarray,
                   layers: np.ndarray) -> list:
    """Kernel-test values at r exp(2 pi i k / n), k = 0 .. n-1, on the layers
    (r, n) of ``grid_layers()`` whose indices ``layers`` lists in increasing
    order, by the layer series of :func:`kernel_test_constant`; ``points``
    sorted by modulus, and ``defects`` their one_minus_sq.

    Each block's power table goes up to the most powers the listed layers
    keep, and only those layers are contracted and transformed.  Every
    per-layer array is taken from the arrays over all eleven layers, so a
    layer's values do not depend on which others are listed (the bits
    argument of :func:`kernel_test_constant`)."""
    layers = np.asarray(layers, dtype=int)
    if not layers.size:
        return []
    modulus = np.abs(points)
    radii, angles = _LAYER_RADII, _LAYER_ANGLES
    ends = radii ** angles  # r^n
    # c_i, one row a layer, with 1 - |w|^2 = (1 - r^2) + r^2 (1 - |p|^2)
    d_radii = one_minus_sq(radii)[:, None]
    c = masses * d_radii / (d_radii + (radii * radii)[:, None] * defects)
    # per listed layer, sum_i coefficient_i p_i^s over the blocks at index s = 1 .. n
    sums = {m: np.zeros(angles[m] + 1, dtype=complex) for m in layers.tolist()}
    for k in range(0, points.size, _KERNEL_BLOCK):
        block = slice(k, k + _KERNEL_BLOCK)
        largest = modulus[block][-1]
        if largest == 0.0:  # atoms at the origin add nothing to the series
            continue
        rho = radii * largest
        terms = np.ceil(np.log(_KERNEL_TAIL * (1.0 - rho)) / np.log(rho))
        keep = np.minimum(terms, angles).astype(int)
        table = _powers(points[block], int(keep[layers].max()))
        parts = table.view(float)  # columns 2s - 2 and 2s - 1: p^s's real and imaginary parts
        cb = c[:, block]
        truncated = terms[layers] < angles[layers]
        for m in layers[truncated].tolist():
            j = keep[m]
            sums[m][1 : j + 1] += np.einsum("j,js->s", cb[m], parts[:, : 2 * j]).view(complex)
        closed = layers[~truncated]
        if closed.size:
            # c_i / (1 - w_i^n), its real and imaginary parts stacked
            g = cb[closed] / (1.0 - ends[closed, None] * table[:, angles[closed] - 1].T)
            g = np.stack((g.real, g.imag), axis=1)
            for m, gm in zip(closed.tolist(), g):
                n = angles[m]
                u = np.einsum("tj,js->ts", gm, parts[:, : 2 * n])
                sums[m][1:] += u[0].view(complex) + 1j * u[1].view(complex)
    out = []
    for m, acc in sums.items():
        n = angles[m]
        acc[0] = acc[n]  # p^n aliases onto frequency 0
        out.append(c[m].sum() + 2.0 * np.fft.fft(_KERNEL_SCALES[m] * acc[:n]).real)
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
