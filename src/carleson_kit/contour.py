"""Level contours for functions bounded by one on the disk.

Given phi with ||phi||_inf <= 1 and a level eps, the construction produces
an open region O with

    {|phi| < eps'} subset O subset {|phi| <= eps},

where eps' is an explicit (astronomically small) second level, together
with the boundary of O, whose arclength measure has bounded Carleson
intensity.  The region is built in one generation: when no dyadic square
of the representing measure is too heavy, O is the union of the
pseudo-hyperbolic disks of radius gamma around the zeros, and a
:class:`Region` is just their circles: one array of Euclidean centers and
one of radii, each circle once.  Its boundary is a finite set of circle
arcs, found in closed form and held exactly as ``ContourResult.arcs``
(circle, start angle, end angle, or the full circle); the polylines that
the curve norm and the nets read are drawn from those arcs in one place.
A heavy square ends the construction with :class:`ContourBoundError`;
:func:`bourgain_contour` proves that a second generation, which would
split such squares off as "bad intervals", could not complete either.

eps' only enters through its logarithm; it underflows double precision by
design, so all comparisons against it are carried out in log space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blaschke import _blaschke_log_abs, _min_pseudo_hyperbolic
from .carleson import CurveMeasure, _ranges, carleson_norm
from .disk import (
    TAU,
    Arc,
    _atoms,
    _interior,
    _kernel_sums,
    _pseudo_hyperbolic_disk,
    dyadic_arc,
    in_layer,
    in_open_disk,
    in_square,
    one_minus_sq,
    polar,
    turns,
)
from .errors import ContourBoundError, DomainError
from .hardy import poisson_sum

# relative pad of the bad-interval scan's descent bound, for the rounding of
# sums taken in different orders
_BOUND_PAD = 1e-9
# dyadic depth below which the bad-interval scan stops
_DEPTH_FLOOR = 20
# (circle, disk) pairs per row block of the boundary's tests, (sample, circle)
# pairs per block of Region.contains_many, 256 times the arcs per drawn block
_PAIR_BLOCK = 2 ** 15
# largest Carleson norm of the boundary curve that verify_region accepts
CONTOUR_NORM_BOUND = 10.0
ARC = np.dtype([("circle", np.intp), ("start", float), ("end", float), ("full", bool)])


class BoundedFunction:
    """phi = (Blaschke part) * (singular part) * (outer part), ||phi|| <= 1.

    zeros: interior zeros with multiplicity, kept as a checked complex
    array.  singular_atoms: (angle, mass) pairs, kept as a (k, 2) float
    array of angles mod 2 pi and masses in normalized boundary units.
    outer_log: samples of log|phi*| on a uniform boundary grid, required
    <= 0 (tolerance 1e-8); None means the outer part is constant 1.
    """

    __slots__ = ("zeros", "singular_atoms", "outer_log", "_defects")

    def __init__(self, zeros=(), singular_atoms=(), outer_log=None):
        self.zeros = _interior(zeros, "zero").reshape(-1)
        self._defects = one_minus_sq(self.zeros)
        angles, masses = _atoms(singular_atoms, float)
        if not np.isfinite(angles).all():
            raise DomainError("singular atoms need finite angles")
        self.singular_atoms = np.column_stack((angles % TAU, masses))
        if outer_log is not None:
            outer_log = np.asarray(outer_log, dtype=float)
            if outer_log.ndim != 1 or outer_log.size == 0:
                raise DomainError("outer_log must be a 1-d sample array")
            if not np.isfinite(outer_log).all():
                raise DomainError("outer_log samples must be finite")
            if np.max(outer_log) > 1e-8:
                raise DomainError("outer part must have modulus <= 1")
        self.outer_log = outer_log

    def log_abs(self, z) -> np.ndarray:
        zs = np.atleast_1d(np.asarray(z, dtype=complex))
        out = _blaschke_log_abs(self.zeros, self._defects, zs)
        defects = None
        if self.singular_atoms.size:
            # the boundary Poisson kernel at xi is |k_z(xi)|^2, defined for
            # z in the open disk only
            flat = _interior(zs.reshape(-1))
            defects = one_minus_sq(flat)
            angles, masses = self.singular_atoms.T
            out -= _kernel_sums(flat, defects, np.exp(1j * angles), 0.0, masses).reshape(zs.shape)
        if self.outer_log is not None:
            out += poisson_sum(self.outer_log, zs, defects)
        return out[0] if np.isscalar(z) else out

    def representing_measure(self) -> "RepresentingMeasure":
        halves = 0.5 * self._defects
        density = None if self.outer_log is None else np.clip(-self.outer_log, 0.0, None)
        return RepresentingMeasure(np.column_stack((self.zeros, halves)), self.singular_atoms,
                                   density, _defects=self._defects)


class RepresentingMeasure:
    """nu = mu_singular + (-log|phi*|) dm + (1/2) sum (1 - |lam|^2) delta_lam.

    From (point, mass) and (angle, mass) pairs it keeps three checked
    arrays: ``points`` in the open disk, finite ``angles`` mod 2 pi, and
    the positive finite ``masses`` of both, points first.  The ``density``
    samples must be finite and nonnegative.  All masses are in normalized
    boundary units (the full circle has measure 1 under dm).
    """

    __slots__ = ("points", "angles", "masses", "density", "_defects", "_polar")

    def __init__(self, interior_atoms=(), boundary_atoms=(), density=None, *, _defects=None):
        points, inner_masses = _atoms(interior_atoms, complex)
        angles, boundary_masses = _atoms(boundary_atoms, float)
        # a BoundedFunction passes its checked zeros with their one_minus_sq
        self.points = _interior(points) if _defects is None else points
        self._defects = one_minus_sq(self.points) if _defects is None else _defects
        if not np.isfinite(angles).all():
            raise DomainError("boundary atoms need finite angles")
        self.angles = angles % TAU
        self.masses = np.concatenate([inner_masses, boundary_masses])
        if density is not None:
            density = np.asarray(density, dtype=float)
            if not np.isfinite(density).all() or np.min(density) < 0:
                raise DomainError("density must be finite and nonnegative")
        self.density = density
        # the turn and radius of every atom, in the order of the masses;
        # boundary atoms sit at radius 1
        u, r = polar(self.points)
        self._polar = (np.concatenate([u, turns(self.angles)]),
                       np.concatenate([r, np.ones(self.angles.size)]))

    def mass_in_square(self, arc: Arc) -> float:
        """nu of the closed Carleson square over ``arc`` (``disk.in_square``)."""
        u, r = self._polar
        m = float(self.masses @ in_square(u, r, arc.start_turn, arc.normalized_length))
        if self.density is not None:
            # each sample carries mass density[k]/n spread over its cell of
            # 1/n turns; integrate the overlap so that arcs shorter than
            # the sample spacing do not see concentrated point masses
            n = self.density.size
            cell = 1.0 / n
            rel = (np.arange(n) / n - arc.start_turn) % 1.0
            length = min(arc.normalized_length, 1.0)
            overlap = np.clip(length - rel, 0.0, cell)
            wrap = np.clip(rel + cell - 1.0, 0.0, length)
            m += float(np.dot(self.density, overlap + wrap))
        return m

    def potential(self, z) -> np.ndarray:
        """sum of masses against the boundary-normalized Poisson-type kernel.

        An atom at a takes |k_z(a)|^2 = (1 - |z|^2)/|1 - conj(z) a|^2, the
        boundary Poisson kernel when |a| = 1; for an interior atom of mass
        (1 - |a|^2)/2 it equals (1 - |b_a(z)|^2)/2.  z must lie in the open
        disk.
        """
        zs = np.atleast_1d(np.asarray(z, dtype=complex))
        flat = _interior(zs.reshape(-1))
        defects = one_minus_sq(flat)
        circle = np.exp(1j * self.angles)
        d_atoms = np.concatenate([self._defects, np.zeros(circle.size)])
        out = _kernel_sums(flat, defects, np.concatenate([self.points, circle]), d_atoms,
                           self.masses).reshape(zs.shape)
        if self.density is not None:
            out += poisson_sum(self.density, zs, defects)
        return out[0] if np.isscalar(z) else out


def check_potential_bounds(phi: BoundedFunction, eps: float, points) -> dict:
    """Two-sided comparison of -log|phi| with the measure potential.

    At every point, potential <= -log|phi|.  Where the point keeps
    pseudo-hyperbolic distance at least eps from every zero, also
    -log|phi| <= 2 log(1/eps) * potential; the constant is only valid a
    bit above the level (callers should keep min |b_lam| >= 1.1 eps).
    Raw margins are reported, nonnegative margins mean the bound holds;
    min_blaschke and both margins have the shape of the points.
    """
    if not 0 < eps < math.exp(-0.5):
        raise DomainError("eps must lie in (0, exp(-1/2)) for the upper constant")
    shape = np.shape(points) or (1,)
    zs = np.asarray(points, dtype=complex).reshape(-1)
    neglog = -phi.log_abs(zs)
    pot = phi.representing_measure().potential(zs)
    min_b = _min_pseudo_hyperbolic(phi.zeros, phi._defects, zs)
    lower_margin = neglog - pot
    upper_margin = 2.0 * math.log(1.0 / eps) * pot - neglog
    ok = min_b >= eps
    return {
        "min_blaschke": min_b.reshape(shape),
        "lower_margin": lower_margin.reshape(shape),
        "upper_margin": upper_margin.reshape(shape),
        "hypothesis_ok": bool(np.all(ok)),
        "worst_lower": float(np.min(lower_margin)),
        "worst_upper": float(np.min(upper_margin[ok])) if np.any(ok) else math.inf,
    }


@dataclass(frozen=True)
class ContourConstants:
    """Derived constants of the construction at level eps.

    M = 100 C1 log(1/eps) is the mass-density cutoff for bad squares,
    gamma = min{eps, 1/(2 C3 [M + log(1/eps)])} the pseudo-hyperbolic
    radius of the disks around zeros, and
    eps' = exp(-C2 log(1/gamma) [M + log(1/eps)]) the inner level, kept in
    log form because it underflows.
    """

    epsilon: float
    c1: float
    c2: float
    c3: float
    m_threshold: float
    gamma: float
    log_eps_prime: float

    @classmethod
    def for_epsilon(cls, eps: float,
                    c1: float = 8.0, c2: float = 8.0, c3: float = 8.0) -> "ContourConstants":
        if not 0 < eps < 1:
            raise DomainError("eps must lie in (0, 1)")
        log_inv = math.log(1.0 / eps)
        m = 100.0 * c1 * log_inv
        gamma = min(eps, 1.0 / (2.0 * c3 * (m + log_inv)))
        log_eps_prime = -c2 * math.log(1.0 / gamma) * (m + log_inv)
        return cls(eps, c1, c2, c3, m, gamma, log_eps_prime)


def select_bad_intervals(measure: RepresentingMeasure, m_threshold: float,
                         depth_floor: int = _DEPTH_FLOOR) -> tuple:
    """The maximal dyadic arcs of the circle whose square is too heavy.

    An arc J triggers when nu(Q(J)) > m_threshold * |J| (normalized
    length).  The scan starts at the whole circle and does not subdivide a
    triggered arc, so the returned witnesses are maximal and pairwise
    disjoint.

    A visited arc J of depth d that does not trigger is subdivided only if
    some dyadic J' under J, of depth d' in (d, depth_floor], could:

        nu(Q(J')) <= min(nu(Q(J)),  dbar(J) |J'| + A_d'(J)),

    where dbar(J) is the largest density sample over the cells that meet
    J, and A_d'(J) the mass of the atoms in Q(J) at radius at least
    1 - 2**-d' (no other atom can enter a square of depth d' under J).
    Both terms hold exactly because every membership test is
    ``disk.in_square``, under which Q(J') lies in Q(J).  J is subdivided if
    the bound, raised by the relative pad for the rounding of sums taken in
    different orders, exceeds m_threshold * 2**-d' for some d'.  Arcs with
    nu(Q(J)) <= m_threshold * 2**-depth_floor are never subdivided.  Every
    visited arc is measured and tested as in the unpruned recursion, so the
    result is the same.
    """
    floor_threshold = m_threshold * (2.0 ** -depth_floor)
    # normalized lengths of the depths 1..depth_floor and their thresholds
    scales = 2.0 ** -np.arange(1, depth_floor + 1)
    thresholds = m_threshold * scales
    u, r = measure._polar
    atom_mass = measure.masses
    # reach[k, j]: atom k lies in the radial layer of the squares of depth j + 1
    reach = in_layer(r[:, None], scales[None, :])
    density = measure.density
    witnesses = []

    def may_trigger(depth: int, index: int, mass: float) -> bool:
        if mass <= floor_threshold:
            return False
        dbar = 0.0
        if density is not None:
            # the cells [k/n, (k+1)/n) that meet [index, index + 1) * 2**-depth
            n = density.size
            k0, k1 = (index * n) >> depth, ((index + 1) * n - 1) >> depth
            dbar = float(np.max(density[k0 : k1 + 1]))
        inside = in_square(u, r, index / (1 << depth), 1.0 / (1 << depth))
        parts = dbar * scales[depth:] + np.where(inside, atom_mass, 0.0) @ reach[:, depth:]
        bound = (1.0 + _BOUND_PAD) * np.minimum(mass, parts)
        return bool(np.any(bound > thresholds[depth:]))

    def scan(depth: int, index: int) -> None:
        arc = dyadic_arc(depth, index)
        mass = measure.mass_in_square(arc)
        if mass > m_threshold * arc.normalized_length:
            witnesses.append(arc)
            return
        if depth < depth_floor and may_trigger(depth, index, mass):
            scan(depth + 1, 2 * index)
            scan(depth + 1, 2 * index + 1)

    scan(0, 0)
    return tuple(witnesses)


class Region:
    """Union of the open pseudo-hyperbolic disks of :func:`bourgain_contour`,
    held as the Euclidean ``centers`` (complex) and ``radii`` (float) of
    their circles.

    ``circles`` yields (center, radius) pairs.  Circles whose center and
    radius round to the same 14 digits are kept once, the first in the
    order given, so extraction, membership and verification all read the
    same circles.  Membership is the OR of |z - c| < r over the circles,
    tested by windows: the samples are sorted once by real part, two
    ``np.searchsorted`` calls find each circle's window
    fl(cx - r) <= x <= fl(cx + r), and the test runs on the (sample,
    circle) pairs in the windows only, in blocks of about ``_PAIR_BLOCK``
    pairs, whole circles each.  On the benchmark's corpus, whose radii run
    from 5.2e-7 to 3.4e-5, the windows hold 2,900-3,300 pairs per report,
    where testing every sample against every circle takes 10,000 at 1
    circle and 500,000 at 50.  In process, on about 10,000 samples, the
    windows take 0.14-0.22 ms per call at any count; a loop over the circles
    took 0.028 ms at 1 circle and 1.29 ms at 50.

    Why the window loses no sample, so the mask is the per-circle loop's
    bit for bit (each pair is the same subtraction and abs):

    - numpy's complex abs of a + bi is never below |a|.  Its SIMD route
      computes larger sqrt(1 + (smaller/larger)^2), where the square root
      and the product round monotonically from a factor of at least 1; its
      scalar route is ``hypot``, which is never below |a| either.  So a
      sample x + iy that passes has |fl(x - cx)| < r.
    - If x < cx - r exactly, then fl(x - cx) <= -r, since rounding is
      monotone and -r is a float; likewise on the other side.  So every
      sample that passes lies in [cx - r, cx + r].
    - A float x is its own rounding, so x >= cx - r gives
      x >= fl(cx - r) by monotone rounding, and x <= cx + r gives
      x <= fl(cx + r).  So the window holds every sample that passes, and
      needs no widening even where fl(cx - r) rounds above cx - r.
    - NaN sorts last and lies in no window, so a NaN sample reads False,
      as in the per-circle loop.

    No Carleson square is met with the disks, because the closed disk's
    square already holds each of them.  The disk {|b_a| < gamma} has
    Euclidean center c and radius r (``disk.pseudo_hyperbolic_disk``) with

        |c| + r = (|a| (1 - gamma^2) + gamma (1 - |a|^2)) / (1 - gamma^2 |a|^2)
                = (|a| + gamma) / (1 + gamma |a|),
        1 - (|c| + r) = (1 - |a|)(1 - gamma) / (1 + gamma |a|) > 0.

    So a point with |z - c| < r has |z| < |c| + r < 1 in exact arithmetic,
    and |z| < 1 + 1e-15 after rounding: every point a disk accepts passes
    ``disk.in_layer(|z|, 1)``, whose tolerance is 1e-12.
    """

    __slots__ = ("centers", "radii")

    def __init__(self, circles):
        kept = {}
        for c, r in circles:
            kept.setdefault((round(c.real, 14), round(c.imag, 14), round(r, 14)), (c, r))
        self.centers = np.array([c for c, _ in kept.values()], dtype=complex)
        self.radii = np.array([r for _, r in kept.values()], dtype=float)

    def contains_many(self, z) -> np.ndarray:
        zs = np.atleast_1d(np.asarray(z, dtype=complex))
        flat = zs.reshape(-1)
        order = np.argsort(flat.real)
        x = flat.real[order]
        cx = self.centers.real
        start = np.searchsorted(x, cx - self.radii)
        count = np.searchsorted(x, cx + self.radii, side="right") - start
        out = np.zeros(flat.size, dtype=bool)
        # blocks of about _PAIR_BLOCK pairs, whole circles each
        block = count.cumsum() // _PAIR_BLOCK
        cuts = [0, *((block[1:] != block[:-1]).nonzero()[0] + 1).tolist(), count.size]
        for lo, hi in zip(cuts, cuts[1:]):
            at = order[_ranges(start[lo:hi], count[lo:hi])]
            c = np.repeat(self.centers[lo:hi], count[lo:hi])
            r = np.repeat(self.radii[lo:hi], count[lo:hi])
            out[at[np.abs(flat[at] - c) < r]] = True
        return out.reshape(zs.shape)


@dataclass(frozen=True)
class ContourResult:
    """The region, its boundary and the constants of one contour.

    ``arcs`` is the boundary, exactly: one record of ``ARC`` per piece, in
    circle order.  Piece k runs counterclockwise along the region's circle
    ``circle`` from the angle ``start`` to ``end`` (radians about the
    circle's center, start < end <= start + 2 pi, both below 4 pi), or
    around the whole circle where ``full`` is set, with the angles 0 and
    2 pi.  :func:`_polylines` draws them.
    """

    region: Region
    arcs: np.ndarray
    constants: ContourConstants


def _uncovered(lo, hi):
    """The complement, on the circle of angles, of the union of the open
    intervals (lo[i], hi[i]), each at most 2 pi long, as pairs (a, b) with
    a < b <= a + 2 pi and b < 4 pi.

    The intervals are swept in the order of their starts taken mod 2 pi;
    ``reach`` is the end of the covered run so far, and a start beyond it
    opens a gap.  The last run may wrap past the first start plus 2 pi: the
    part of it past 2 pi covers the starts of the earlier gaps, which are
    cut back to it.  Gaps of length 0, single points, are dropped.
    """
    start = lo % TAU
    order = np.argsort(start)
    start, end = start[order], (start + (hi - lo))[order]
    gaps = []
    reach = end[0]
    for s, e in zip(start[1:], end[1:]):
        if s > reach:
            gaps.append((reach, s))
        reach = max(reach, e)
    gaps.append((reach, start[0] + TAU))
    wrap = reach - TAU
    return [(max(a, wrap), b) for a, b in gaps if b > max(a, wrap)]


def _boundary_arcs(region: Region) -> np.ndarray:
    """Boundary of the region as arcs of the circles of its disks, exactly.

    The region is a union of open disks, so its boundary is the part of
    each disk circle that no other open disk covers.  For circle k (center
    c_k, radius r_k) and another disk j at distance d = |c_j - c_k|:

    - d + r_k < r_j: disk j covers the whole circle, which keeps no arc;
    - d >= r_k + r_j or d + r_j <= r_k: disk j covers none of it;
    - otherwise disk j covers the open arc of the angles within
      arccos((r_k^2 + d^2 - r_j^2) / (2 r_k d)) of arg(c_j - c_k), the
      argument clipped to [-1, 1] against rounding.  Where that half-angle
      rounds to 0 (a tangency, or r_j below about 1e-8 r_k), the arc is
      empty and disk j covers none of the circle.

    The circle's arcs are the gaps between those covered arcs
    (:func:`_uncovered`), whose ends are where it meets other circles.  A
    circle of which no disk covers anything is one full arc, never an open
    arc whose two ends coincide.  The two tests run for all circles at
    once, over rows of circles that hold about ``_PAIR_BLOCK`` (circle,
    disk) pairs, so the distances never form the whole N x N matrix; each
    test is the same elementwise operation on the same operands as one
    circle at a time.
    """
    centers, radii = region.centers, region.radii
    covered = np.zeros(radii.size, dtype=bool)
    meets = np.zeros(radii.size, dtype=bool)
    rows = max(1, _PAIR_BLOCK // max(1, radii.size))
    for lo in range(0, radii.size, rows):
        dist = np.abs(centers - centers[lo:lo + rows, None])
        covered[lo:lo + rows], meet = _relations(dist, radii[lo:lo + rows, None], radii)
        meets[lo:lo + rows] = meet.any(axis=1)
    arcs = []
    for k in np.flatnonzero(~covered).tolist():
        lo = hi = np.zeros(0)
        if meets[k]:
            c, r = complex(centers[k]), float(radii[k])
            dist = np.abs(centers - c)
            # the circle itself has dist 0 and equal radius, so it never meets itself
            meet = _relations(dist, r, radii)[1]
            d, rj = dist[meet], radii[meet]
            mid = np.angle(centers[meet] - c)
            half = np.arccos(np.clip((r * r + d * d - rj * rj) / (2.0 * r * d), -1.0, 1.0))
            lo, hi = (mid - half)[half > 0], (mid + half)[half > 0]
        gaps = _uncovered(lo, hi) if lo.size else [(0.0, TAU)]
        arcs += [(k, a, b, not lo.size) for a, b in gaps]
    return np.array(arcs, dtype=ARC)


def _relations(dist, r, radii):
    """For circles of radius ``r`` at distances ``dist`` from the disks of
    ``radii`` (along the last axis): whether some disk covers the circle,
    and which disks cut it."""
    return np.any(dist + r < radii, axis=-1), (dist < r + radii) & (dist + radii > r)


def _polylines(region: Region, arcs: np.ndarray) -> tuple:
    """The arcs drawn as polylines, one per arc, in order.

    An open arc from a to b on the circle (c, r) is drawn through its two
    ends and the sample angles 2 pi (i + 1/2)/256 strictly between them, a
    full circle through the 256 samples with the first repeated at the
    end: each vertex is r e^(i t) + c.  e^(i t) is taken once per sample
    angle and once per end.  All arcs are drawn at once, in blocks of
    ``_PAIR_BLOCK // 256`` arcs (at most 258 vertices each), into one array
    whose slices are the polylines.  Each vertex is the same elementwise
    operation on the same operands as one arc at a time, so a polyline's
    bits do not depend on the others.
    """
    ts = TAU * (np.arange(256) + 0.5) / 256
    samples = np.concatenate((ts, ts + TAU))  # an arc's angles run below 4 pi
    full, m = arcs["full"], len(arcs)
    # e^(i t) of the samples, the starts and the ends: an open arc's vertices
    # are turn[512 + k], turn[lo:lo + n] and turn[512 + m + k], a full
    # circle's turn[0], turn[1:256] and turn[0] again
    turn = np.exp(1j * np.concatenate((samples, arcs["start"], arcs["end"])))
    first = np.where(full, 0, 512 + np.arange(m))
    last = np.where(full, 0, first + m)
    lo = np.where(full, 1, np.searchsorted(samples, arcs["start"], side="right"))
    sizes = np.where(full, 256, np.searchsorted(samples, arcs["end"])) - lo + 2
    stops = np.cumsum(sizes)
    heads = stops - sizes
    verts = np.empty(sizes.sum(), dtype=complex)
    for p in range(0, m, _PAIR_BLOCK // 256):
        arc = slice(p, p + _PAIR_BLOCK // 256)
        at = _ranges(lo[arc] - 1, sizes[arc])
        at[heads[arc] - heads[p]], at[stops[arc] - 1 - heads[p]] = first[arc], last[arc]
        block = np.take(turn, at, out=verts[heads[p]:stops[arc][-1]])
        block *= np.repeat(region.radii[arcs["circle"][arc]], sizes[arc])
        block += np.repeat(region.centers[arcs["circle"][arc]], sizes[arc])
    return tuple(verts[a:b] for a, b in zip(heads.tolist(), stops.tolist()))


def bourgain_contour(phi: BoundedFunction, eps: float,
                     constants: ContourConstants | None = None) -> ContourResult:
    """Build the two-level region and its boundary arcs, in one generation.

    :func:`select_bad_intervals` scans the whole circle.  Any witness J, a
    maximal dyadic arc with nu(Q(J)) > M |J|, raises
    :class:`ContourBoundError`, whose message gives the number of
    witnesses and, for the heaviest, its depth, nu(Q(J)) and M |J|.
    Otherwise the region is the union of the pseudo-hyperbolic gamma-disks
    around the zeros, in sorted order; equal zeros give one circle
    (:class:`Region`).

    Why a witness ends the construction.  The generation-by-generation
    recursion would take each component I_1 of the union of the 5J as the
    interval of a second generation, rescan the same measure with the
    window 5 I_1, and require the dilated witnesses found there to cover at
    most 0.01 |I_1|.  That scan visits arcs from the root exactly as the
    first one did: each arc has the same mass, so each ``may_trigger``
    choice is the same, and no ancestor of a generation-0 witness J
    triggers, since it did not at generation 0 and a trigger also needs
    containment in the window.  So the scan reaches every generation-0
    witness J with 5J in I_1.  Such a J lies in I_1, inside the window
    5 I_1, so it still triggers.  The union of those 5J is I_1, since I_1
    is a component of the union of all the 5J.  The second generation's
    bad intervals therefore cover I_1: their length ratio is at least
    1 > 0.01, and the construction fails there.  When the union of the 5J
    is the whole circle, the ratio is 1 already at generation 0.  Either
    way no input with a witness completes, and the recursion is not run.
    """
    if constants is None:
        constants = ContourConstants.for_epsilon(eps)
    measure = phi.representing_measure()
    witnesses = select_bad_intervals(measure, constants.m_threshold)
    if witnesses:
        masses = [measure.mass_in_square(j) for j in witnesses]
        k = int(np.argmax(masses))
        length = witnesses[k].normalized_length
        raise ContourBoundError(
            f"{len(witnesses)} heavy dyadic square(s) nu(Q(J)) > M|J|; the heaviest, "
            f"at depth {round(-math.log2(length))}, has nu(Q(J)) = {masses[k]:.6g} "
            f"against M|J| = {constants.m_threshold * length:.6g}")
    order = np.argsort(phi.zeros, kind="stable")  # by real part, then imaginary part
    centers, radii = _pseudo_hyperbolic_disk(phi.zeros[order], phi._defects[order], constants.gamma)
    region = Region(zip(centers.tolist(), radii.tolist()))
    return ContourResult(region, _boundary_arcs(region), constants)


def verify_region(phi: BoundedFunction, result: ContourResult, eps: float,
                  samples: int = 10000, rng=None, depth: int = 12) -> dict:
    """Sample-based check of the two-level sandwich and the contour norm.

    Points inside the region must satisfy |phi| <= eps; points outside must
    satisfy log|phi| >= log eps' (the inner level).  The levels as compared
    (log eps + 1e-9 and log eps') are returned with the violation counts and
    the observed extremes: the largest log|phi| inside and the smallest
    outside (-inf and inf when a side has no sample).  The boundary
    polylines are measured as a curve and their Carleson norm must not
    exceed ``CONTOUR_NORM_BOUND``.

    Half the samples are uniform on the disk.  The other half lie near the
    region: each disk (center c, radius r) takes the same number of points
    c + r sqrt(4 v) e^(i 2 pi w), uniform on the disk of radius 2r, and
    keeps those in the open unit disk.  All of them come from one draw of
    (angle, radius) rows, disk after disk.  That reads the doubles of the
    generator in the order of one ``uniform(0, 2 pi)`` and one
    ``uniform(0, 4)`` per disk, and ``uniform(0, h)`` is h times the
    double, so the points are the same bits as drawn disk by disk.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    half = samples // 2
    bulk = []
    while sum(b.size for b in bulk) < half:
        cand = rng.uniform(-1, 1, (half, 2))
        pts = cand[:, 0] + 1j * cand[:, 1]
        bulk.append(pts[in_open_disk(pts)])
    zs = np.concatenate(bulk)[:half]
    region = result.region
    if region.radii.size:
        per_disk = max(1, (samples - half) // region.radii.size)
        u = rng.random((region.radii.size, 2, per_disk))
        rad = region.radii[:, None] * np.sqrt(4.0 * u[:, 1])
        cand = region.centers[:, None] + rad * np.exp(1j * (TAU * u[:, 0]))
        zs = np.concatenate([zs, cand[in_open_disk(cand)]])
    inside = region.contains_many(zs)
    log_abs = phi.log_abs(zs)
    upper_level = math.log(eps) + 1e-9
    lower_level = result.constants.log_eps_prime
    inside_vals = log_abs[inside]
    upper_viol = int(np.sum(inside_vals > upper_level))
    outside_vals = log_abs[~inside]
    lower_viol = int(np.sum(outside_vals < lower_level))
    polylines = _polylines(region, result.arcs)
    norm = carleson_norm(CurveMeasure(polylines), depth=depth) if polylines else 0.0
    return {
        "samples": int(zs.size),
        "upper_violations": upper_viol,
        "lower_violations": lower_viol,
        "upper_level": upper_level,
        "lower_level": lower_level,
        "max_log_abs_inside": float(np.max(inside_vals)) if inside_vals.size else -math.inf,
        "min_log_abs_outside": float(np.min(outside_vals)) if outside_vals.size else math.inf,
        "contour_norm": norm,
        "passed": upper_viol == 0 and lower_viol == 0 and norm <= CONTOUR_NORM_BOUND,
    }
