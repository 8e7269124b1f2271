"""Level contours for functions bounded by one on the disk.

Given phi with ||phi||_inf <= 1 and a level eps, the construction produces
an open region O with

    {|phi| < eps'} subset O subset {|phi| <= eps},

where eps' is an explicit (astronomically small) second level, together
with a polyline description of the boundary of O whose arclength measure
has bounded Carleson intensity.  The region is built in one generation:
when no dyadic square of the representing measure is too heavy, O is the
union of the pseudo-hyperbolic disks of radius gamma around the zeros,
and a :class:`Region` is just those disks.
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

from .blaschke import blaschke_log_abs
from .carleson import CurveMeasure, carleson_norm
from .disk import (
    TAU,
    Arc,
    dyadic_arc,
    in_layer,
    in_open_disk,
    in_square,
    kernel,
    polar,
    pseudo_hyperbolic,
    pseudo_hyperbolic_disk,
    require_interior,
    turns,
)
from .errors import ContourBoundError, DomainError
from .hardy import poisson_sum

# relative pad of the bad-interval scan's descent bound, for the rounding of
# sums taken in different orders
_BOUND_PAD = 1e-9
# dyadic depth below which the bad-interval scan stops
_DEPTH_FLOOR = 20
# probe offset of the boundary extraction, relative to a circle's radius
_PROBE_OFFSET = 2.0 ** -12
# absolute pad of the extraction's disk culling, far above the rounding
# (about 1e-15) of a probe point and of its distance to a disk center
_CULL_PAD = 1e-12
# largest Carleson norm of the boundary curve that verify_region accepts
CONTOUR_NORM_BOUND = 10.0


class BoundedFunction:
    """phi = (Blaschke part) * (singular part) * (outer part), ||phi|| <= 1.

    zeros: interior zeros with multiplicity.  singular_atoms: (angle, mass)
    pairs, masses in normalized boundary units.  outer_log: samples of
    log|phi*| on a uniform boundary grid, required <= 0 (tolerance 1e-8);
    None means the outer part is constant 1.
    """

    __slots__ = ("zeros", "singular_atoms", "outer_log")

    def __init__(self, zeros=(), singular_atoms=(), outer_log=None):
        self.zeros = tuple(require_interior(z, "zero") for z in zeros)
        atoms = []
        for ang, mass in singular_atoms:
            if not (math.isfinite(ang) and 0 < mass < math.inf):
                raise DomainError("singular atoms need a finite angle and a positive finite mass")
            atoms.append((float(ang) % TAU, float(mass)))
        self.singular_atoms = tuple(atoms)
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
        out = blaschke_log_abs(self.zeros, zs)
        for ang, mass in self.singular_atoms:
            # the boundary Poisson kernel at xi is |k_z(xi)|^2; disk.kernel
            # refuses z off the open disk
            xi = complex(math.cos(ang), math.sin(ang))
            out -= mass * np.abs(kernel(zs, xi)) ** 2
        if self.outer_log is not None:
            out += poisson_sum(self.outer_log, zs)
        if np.isscalar(z) or isinstance(z, (complex, float, int)):
            return out[0]
        return out

    def representing_measure(self) -> "RepresentingMeasure":
        interior = tuple((lam, 0.5 * (1.0 - abs(lam) ** 2)) for lam in self.zeros)
        density = None if self.outer_log is None else np.clip(-self.outer_log, 0.0, None)
        return RepresentingMeasure(interior, self.singular_atoms, density)


class RepresentingMeasure:
    """nu = mu_singular + (-log|phi*|) dm + (1/2) sum (1 - |lam|^2) delta_lam.

    All masses are in normalized boundary units (the full circle has
    measure 1 under dm).
    """

    __slots__ = ("interior_atoms", "boundary_atoms", "density", "_atoms")

    def __init__(self, interior_atoms=(), boundary_atoms=(), density=None):
        self.interior_atoms = tuple(
            (require_interior(p), float(m)) for p, m in interior_atoms
        )
        self.boundary_atoms = tuple((float(a) % TAU, float(m)) for a, m in boundary_atoms)
        if any(m <= 0 for _, m in self.interior_atoms + self.boundary_atoms):
            raise DomainError("masses must be positive")
        if density is not None:
            density = np.asarray(density, dtype=float)
            if np.min(density) < 0:
                raise DomainError("density must be nonnegative")
        self.density = density
        # every atom once as (turn, radius, mass); boundary atoms sit at radius 1
        u, r = polar([p for p, _ in self.interior_atoms])
        self._atoms = (
            np.concatenate([u, turns([a for a, _ in self.boundary_atoms])]),
            np.concatenate([r, np.ones(len(self.boundary_atoms))]),
            np.array([m for _, m in self.interior_atoms + self.boundary_atoms], dtype=float),
        )

    def mass_in_square(self, arc: Arc) -> float:
        """nu of the closed Carleson square over ``arc`` (``disk.in_square``)."""
        u, r, w = self._atoms
        m = float(w @ in_square(u, r, arc.start_turn, arc.normalized_length))
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
        (1 - |a|^2)/2 it equals (1 - |b_a(z)|^2)/2.  ``disk.kernel`` refuses
        z off the open disk.
        """
        zs = np.atleast_1d(np.asarray(z, dtype=complex))
        out = np.zeros(zs.shape, dtype=float)
        for lam, m in self.interior_atoms:
            out += m * np.abs(kernel(zs, lam)) ** 2
        for ang, m in self.boundary_atoms:
            out += m * np.abs(kernel(zs, complex(math.cos(ang), math.sin(ang)))) ** 2
        if self.density is not None:
            out += poisson_sum(self.density, zs)
        if np.isscalar(z) or isinstance(z, (complex, float, int)):
            return out[0]
        return out


def check_potential_bounds(phi: BoundedFunction, eps: float, points) -> dict:
    """Two-sided comparison of -log|phi| with the measure potential.

    At every point, potential <= -log|phi|.  Where the point keeps
    pseudo-hyperbolic distance at least eps from every zero, also
    -log|phi| <= 2 log(1/eps) * potential; the constant is only valid a
    bit above the level (callers should keep min |b_lam| >= 1.1 eps).
    Raw margins are reported, nonnegative margins mean the bound holds.
    """
    if not 0 < eps < math.exp(-0.5):
        raise DomainError("eps must lie in (0, exp(-1/2)) for the upper constant")
    zs = np.atleast_1d(np.asarray(points, dtype=complex))
    neglog = -phi.log_abs(zs)
    pot = phi.representing_measure().potential(zs)
    if phi.zeros:
        min_b = np.min(pseudo_hyperbolic(np.array(phi.zeros)[None, :], zs[:, None]), axis=1)
    else:
        min_b = np.ones(zs.shape)
    lower_margin = neglog - pot
    upper_margin = 2.0 * math.log(1.0 / eps) * pot - neglog
    ok = min_b >= eps
    return {
        "min_blaschke": min_b,
        "lower_margin": lower_margin,
        "upper_margin": upper_margin,
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
    u, r, atom_mass = measure._atoms
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


@dataclass(frozen=True)
class DiskSpec:
    """Pseudo-hyperbolic disk around a zero, with its Euclidean realization."""

    center: complex
    gamma: float
    eu_center: complex
    eu_radius: float

    @classmethod
    def around(cls, center: complex, gamma: float) -> "DiskSpec":
        c, r = pseudo_hyperbolic_disk(center, gamma)
        return cls(center=center, gamma=gamma, eu_center=c, eu_radius=r)

    def contains_many(self, z: np.ndarray) -> np.ndarray:
        return np.abs(z - self.eu_center) < self.eu_radius


class Region:
    """Union of the pseudo-hyperbolic disks of :func:`bourgain_contour`.

    Membership is the OR of ``DiskSpec.contains_many`` over the disks, one
    disk at a time: a broadcast of every point against every disk was
    measured 3.3 times slower.

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

    def __init__(self, disks):
        self.disks = tuple(disks)

    def contains_many(self, z) -> np.ndarray:
        zs = np.atleast_1d(np.asarray(z, dtype=complex))
        out = np.zeros(zs.shape, dtype=bool)
        for d in self.disks:
            out |= d.contains_many(zs)
        return out


@dataclass(frozen=True)
class ContourResult:
    region: Region
    polylines: tuple
    constants: ContourConstants


def _extract_polylines(region: Region):
    """Boundary of the region as polylines along the circles of its disks.

    The region is a union of open disks, so every boundary point of it
    lies on a disk circle.  Each circle is sampled; a sample stays when
    probes offset to either side disagree about membership; transition
    parameters are refined by bisection.  Both sides of a batch of samples
    go through one membership call.

    Each circle's probes are tested against the disks near it only: those
    whose bounding boxes meet the circle's box grown by the probe offset h
    plus ``_CULL_PAD``.  The membership is unchanged.  The box of a dropped
    disk (center c, radius r) lies, along one axis, at least h + pad
    beyond the circle's box, while every probe point p lies within h of
    the circle, so |p - c| exceeds r by at least the pad.  The rounding
    of p, of the boxes and of |p - c| is about 1e-15, far below the pad, so
    ``abs(p - c) < r`` would have been False for that disk at every probe.
    """
    circles = {}
    for d in region.disks:
        key = (round(d.eu_center.real, 14), round(d.eu_center.imag, 14),
               round(d.eu_radius, 14))
        circles[key] = (d.eu_center, d.eu_radius)

    # lower and upper corners of each disk's bounding box, as (K, 2) arrays
    centers = np.array([d.eu_center for d in region.disks], dtype=complex)
    radii = np.array([d.eu_radius for d in region.disks])
    xy = np.stack((centers.real, centers.imag), axis=1)
    disk_lo, disk_hi = xy - radii[:, None], xy + radii[:, None]
    n = 256
    ts = TAU * (np.arange(n) + 0.5) / n
    polylines = []
    for c, r in circles.values():
        h = max(r * _PROBE_OFFSET, 1e-13)
        reach = h + _CULL_PAD
        lo = np.array([c.real - r, c.imag - r]) - reach
        hi = np.array([c.real + r, c.imag + r]) + reach
        near = Region(region.disks[i] for i in
                      np.flatnonzero(((disk_lo < hi) & (disk_hi > lo)).all(axis=1)))

        def crosses(t):
            # the samples at parameters t whose two probes disagree
            normal = np.exp(1j * t)
            p = c + r * normal
            off = h * normal
            sides = near.contains_many(np.concatenate((p + off, p - off)))
            return sides[: t.size] ^ sides[t.size :]

        def refine(t_good, t_bad):
            for _ in range(30):
                mid = 0.5 * (t_good + t_bad)
                if crosses(np.array([mid]))[0]:
                    t_good = mid
                else:
                    t_bad = mid
            return t_good

        on_boundary = crosses(ts)
        if not np.any(on_boundary):
            continue
        if np.all(on_boundary):
            verts = c + r * np.exp(1j * np.append(ts, ts[0]))
            verts[-1] = verts[0]
            polylines.append(verts)
            continue
        runs, run = [], []
        for i in np.roll(np.arange(n), -int(np.argmin(on_boundary))):
            if on_boundary[i]:
                run.append(i)
            elif run:
                runs.append(run)
                run = []
        if run:
            runs.append(run)
        for run in runs:
            t_first, t_last = ts[run[0]], ts[run[-1]]
            prev_t, next_t = ts[(run[0] - 1) % n], ts[(run[-1] + 1) % n]
            if prev_t > t_first:
                prev_t -= TAU
            if next_t < t_last:
                next_t += TAU
            run_ts = np.concatenate(([refine(t_first, prev_t)], ts[run],
                                     [refine(t_last, next_t)]))
            polylines.append(c + r * np.exp(1j * run_ts))
    return tuple(polylines)


def bourgain_contour(phi: BoundedFunction, eps: float,
                     constants: ContourConstants | None = None) -> ContourResult:
    """Build the two-level region and its boundary polylines, in one generation.

    :func:`select_bad_intervals` scans the whole circle.  Any witness J, a
    maximal dyadic arc with nu(Q(J)) > M |J|, raises
    :class:`ContourBoundError`, whose message gives the number of
    witnesses and, for the heaviest, its depth, nu(Q(J)) and M |J|.
    Otherwise the region is the union of the pseudo-hyperbolic gamma-disks
    around the distinct zeros, in sorted order (:class:`Region`).

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
    zeros = sorted(set(phi.zeros), key=lambda w: (w.real, w.imag))
    disks = tuple(DiskSpec.around(z, constants.gamma) for z in zeros)
    region = Region(disks)
    return ContourResult(region, _extract_polylines(region), constants)


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
    near = []
    per_disk = max(1, (samples - half) // max(1, len(result.region.disks)))
    for d in result.region.disks:
        ang = rng.uniform(0.0, TAU, per_disk)
        rad = d.eu_radius * np.sqrt(rng.uniform(0.0, 4.0, per_disk))
        cand = d.eu_center + rad * np.exp(1j * ang)
        near.append(cand[in_open_disk(cand)])
    if near:
        zs = np.concatenate([zs] + near)
    inside = result.region.contains_many(zs)
    log_abs = phi.log_abs(zs)
    upper_level = math.log(eps) + 1e-9
    lower_level = result.constants.log_eps_prime
    inside_vals = log_abs[inside]
    upper_viol = int(np.sum(inside_vals > upper_level))
    outside_vals = log_abs[~inside]
    lower_viol = int(np.sum(outside_vals < lower_level))
    if result.polylines:
        curve = CurveMeasure([np.asarray(p) for p in result.polylines])
        norm = carleson_norm(curve, depth=depth)
    else:
        norm = 0.0
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
