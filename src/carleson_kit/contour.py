"""Level contours for functions bounded by one on the disk.

Given phi with ||phi||_inf <= 1 and a level eps, the construction produces
an open region O with

    {|phi| < eps'} subset O subset {|phi| <= eps},

where eps' is an explicit (astronomically small) second level, together
with a polyline description of the boundary of O whose arclength measure
has bounded Carleson intensity.  The region is assembled generation by
generation: squares whose representing measure is too heavy are split off
as "bad intervals" and handled one scale down; everything else is covered
by pseudo-hyperbolic disks of radius gamma around the zeros.

eps' only enters through its logarithm; it underflows double precision by
design, so all comparisons against it are carried out in log space.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .carleson import CurveMeasure, carleson_norm
from .disk import (
    TAU,
    Arc,
    CarlesonSquare,
    dyadic_arc,
    pseudo_hyperbolic_disk,
    require_interior,
)
from .errors import ContourBoundError, DomainError
from .hardy import poisson_sum

# pads of the bad-interval scan's descent bound: radians on the atom angle
# tests, and relative on the bound itself
_ANGLE_PAD = 1e-9
_BOUND_PAD = 1e-9


def _require_open_disk(zs: np.ndarray) -> None:
    """Raise DomainError unless every point lies in the open disk (nan fails)."""
    if not np.all(np.abs(zs) < 1.0):
        raise DomainError("the Poisson kernels are defined at interior points only")


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
            if mass <= 0:
                raise DomainError("singular masses must be positive")
            atoms.append((float(ang) % TAU, float(mass)))
        self.singular_atoms = tuple(atoms)
        if outer_log is not None:
            outer_log = np.asarray(outer_log, dtype=float)
            if outer_log.ndim != 1 or outer_log.size == 0:
                raise DomainError("outer_log must be a 1-d sample array")
            if np.max(outer_log) > 1e-8:
                raise DomainError("outer part must have modulus <= 1")
        self.outer_log = outer_log

    @property
    def degree(self) -> int:
        return len(self.zeros)

    def log_abs(self, z) -> np.ndarray:
        zs = np.atleast_1d(np.asarray(z, dtype=complex))
        out = np.zeros(zs.shape, dtype=float)
        if self.zeros:
            lam = np.array(self.zeros)
            num = np.abs(lam[None, :] - zs[:, None])
            den = np.abs(1.0 - np.conj(lam)[None, :] * zs[:, None])
            with np.errstate(divide="ignore"):
                out += np.sum(np.log(num) - np.log(den), axis=1)
        if self.singular_atoms:
            _require_open_disk(zs)
        for ang, mass in self.singular_atoms:
            xi = complex(math.cos(ang), math.sin(ang))
            out -= mass * (1.0 - np.abs(zs) ** 2) / np.abs(xi - zs) ** 2
        if self.outer_log is not None:
            out += poisson_sum(self.outer_log, zs)
        if np.isscalar(z) or isinstance(z, (complex, float, int)):
            return out[0]
        return out

    def abs_values(self, z) -> np.ndarray:
        return np.exp(self.log_abs(z))

    def representing_measure(self) -> "RepresentingMeasure":
        interior = tuple((lam, 0.5 * (1.0 - abs(lam) ** 2)) for lam in self.zeros)
        density = None if self.outer_log is None else np.clip(-self.outer_log, 0.0, None)
        return RepresentingMeasure(interior, self.singular_atoms, density)


class RepresentingMeasure:
    """nu = mu_singular + (-log|phi*|) dm + (1/2) sum (1 - |lam|^2) delta_lam.

    All masses are in normalized boundary units (the full circle has
    measure 1 under dm).
    """

    __slots__ = ("interior_atoms", "boundary_atoms", "density")

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

    def total_mass(self) -> float:
        m = sum(m for _, m in self.interior_atoms) + sum(m for _, m in self.boundary_atoms)
        if self.density is not None:
            m += float(np.mean(self.density))
        return m

    def mass_in_square(self, square: CarlesonSquare) -> float:
        m = 0.0
        for p, w in self.interior_atoms:
            if square.contains(p):
                m += w
        for ang, w in self.boundary_atoms:
            if square.base.contains_angle(ang):
                m += w
        if self.density is not None:
            # each sample carries mass density[k]/n spread over its cell of
            # width 2*pi/n; integrate the overlap so that arcs shorter than
            # the sample spacing do not see concentrated point masses
            n = self.density.size
            cell = TAU / n
            rel = (TAU * np.arange(n) / n - square.base.start) % TAU
            length = min(square.base.length, TAU)
            overlap = np.clip(length - rel, 0.0, cell)
            wrap = np.clip(rel + cell - TAU, 0.0, length)
            m += float(np.dot(self.density, overlap + wrap)) / (n * cell)
        return m

    def potential(self, z) -> np.ndarray:
        """sum of masses against the boundary-normalized Poisson-type kernel.

        Interior atoms at lam use (1 - |z|^2)/|1 - conj(lam) z|^2, which for
        mass (1 - |lam|^2)/2 equals (1 - |b_lam(z)|^2)/2.
        """
        zs = np.atleast_1d(np.asarray(z, dtype=complex))
        out = np.zeros(zs.shape, dtype=float)
        if self.interior_atoms or self.boundary_atoms:
            _require_open_disk(zs)
        for lam, m in self.interior_atoms:
            out += m * (1.0 - np.abs(zs) ** 2) / np.abs(1.0 - np.conj(lam) * zs) ** 2
        for ang, m in self.boundary_atoms:
            xi = complex(math.cos(ang), math.sin(ang))
            out += m * (1.0 - np.abs(zs) ** 2) / np.abs(xi - zs) ** 2
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
        lam = np.array(phi.zeros)
        b = np.abs(lam[None, :] - zs[:, None]) / np.abs(1.0 - np.conj(lam)[None, :] * zs[:, None])
        min_b = np.min(b, axis=1)
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


def _clip_arc(a: Arc, window: Arc) -> list[Arc]:
    """Intersection of two arcs, as a list of zero, one or two arcs."""
    if window.length >= TAU:
        return [a]
    if a.length >= TAU:
        return [window]
    rel = (a.start - window.start) % TAU
    pieces = []
    # part of a starting inside [0, 2pi) of the window frame
    first_len = min(a.length, TAU - rel)
    lo, hi = rel, rel + first_len
    s, e = max(lo, 0.0), min(hi, window.length)
    if e - s > 1e-15:
        pieces.append((s, e - s))
    wrap = a.length - first_len
    if wrap > 1e-15:
        s, e = 0.0, min(wrap, window.length)
        if e - s > 1e-15:
            pieces.append((s, e - s))
    return [
        Arc(center_angle=window.start + s + ln / 2.0, length=ln) for s, ln in pieces
    ]


def _merge_arcs(arcs) -> list[Arc]:
    """Connected components of a union of arcs on the circle."""
    ivs = sorted((a.start % TAU, a.length) for a in arcs)
    if not ivs:
        return []
    merged = []
    cur_s, cur_e = ivs[0][0], ivs[0][0] + ivs[0][1]
    for s, ln in ivs[1:]:
        if s <= cur_e + 1e-12:
            cur_e = max(cur_e, s + ln)
        else:
            merged.append((cur_s, cur_e))
            cur_s, cur_e = s, s + ln
    merged.append((cur_s, cur_e))
    # wrap: last component may continue into the first
    if len(merged) > 1 and merged[-1][1] >= TAU + merged[0][0] - 1e-12:
        first = merged.pop(0)
        last = merged.pop()
        merged.append((last[0], max(last[1], first[1] + TAU)))
    if any(e - s >= TAU - 1e-12 for s, e in merged):
        return [Arc(center_angle=0.0, length=TAU)]
    return [Arc(center_angle=(s + e) / 2.0, length=e - s) for s, e in merged]


@dataclass(frozen=True)
class BadIntervals:
    """Result of the heavy-square scan below a base interval."""

    witnesses: tuple  # maximal dyadic arcs J with nu(Q(J)) > M |J|
    intervals: tuple  # components of union(5J), clipped to the window 5I
    length_ratio: float  # sum |I_k| / |I|


def select_bad_intervals(measure: RepresentingMeasure, base: Arc,
                         m_threshold: float, depth_floor: int = 20) -> BadIntervals:
    """Find the maximal dyadic arcs under 5*base whose square is too heavy.

    An arc J triggers when nu(Q(J)) > m_threshold * |J| (normalized
    length).  Triggered arcs are not subdivided further, so the witnesses
    are maximal and pairwise disjoint.  The returned intervals are the
    connected components of the union of the dilated witnesses 5J,
    clipped to the window 5*base.

    A visited arc J of depth d that does not trigger is subdivided only if
    some dyadic J' under J, of depth d' in (d, depth_floor], could:

        nu(Q(J')) <= min(nu(Q(J)) + E(J),  dbar(J) |J'| + A_d'(J)),

    where dbar(J) is the largest density sample over the cells that meet
    J, A_d'(J) the mass of the atoms over J that lie at radius at least
    1 - 2**-d' (boundary atoms count at every depth; no other atom can
    enter a square of depth d'), and E(J) the mass of the atoms within the
    angle pad of an end of J, which floating-point dyadic arcs do not nest
    reliably (a child may contain an angle a ulp outside its parent).  J
    is subdivided if the bound, raised by the relative pad, exceeds
    m_threshold * 2**-d' for some d'.  The atom tests widen J by _ANGLE_PAD
    radians on each side, which also covers the last-bit disagreement of
    np.angle and cmath.phase, the density term adds dbar over twice that
    width, and radii get 1e-12.  Arcs with nu(Q(J)) <= m_threshold *
    2**-depth_floor are never subdivided.  Every visited arc is measured and
    tested as in the unpruned recursion, so the result is the same.
    """
    window = base.dilate(5.0)
    floor_threshold = m_threshold * (2.0 ** -depth_floor)
    # normalized lengths of the depths 1..depth_floor and their thresholds
    scales = 2.0 ** -np.arange(1, depth_floor + 1)
    thresholds = m_threshold * scales
    # every atom as (angle, radius, mass); boundary atoms sit at radius 1
    interior, boundary = measure.interior_atoms, measure.boundary_atoms
    atom_angle = np.array([cmath.phase(p) for p, _ in interior] + [a for a, _ in boundary])
    atom_radius = np.array([abs(p) for p, _ in interior] + [1.0] * len(boundary))
    atom_mass = np.array([m for _, m in interior + boundary])
    # reach[k, j]: atom k can enter a square of depth j + 1
    reach = atom_radius[:, None] >= 1.0 - scales[None, :] - 1e-12
    density = measure.density
    density_pad = 2.0 * _ANGLE_PAD / TAU  # normalized width of both angle pads
    witnesses = []

    def may_trigger(depth: int, arc: Arc, mass: float) -> bool:
        if mass <= floor_threshold:
            return False
        dbar = 0.0
        if density is not None:
            n = density.size
            k0 = math.floor((arc.start - _ANGLE_PAD) * n / TAU)
            k1 = math.floor((arc.end + _ANGLE_PAD) * n / TAU)
            cells = density if k1 - k0 + 1 >= n else density[np.arange(k0, k1 + 1) % n]
            dbar = float(np.max(cells))
        off = (atom_angle - (arc.start - _ANGLE_PAD)) % TAU
        near = off < arc.length + 2.0 * _ANGLE_PAD
        edge = near & ((off < 2.0 * _ANGLE_PAD) | (off >= arc.length))
        parts = (dbar * (scales[depth:] + density_pad)
                 + np.where(near, atom_mass, 0.0) @ reach[:, depth:])
        whole = mass + dbar * density_pad + np.where(edge, atom_mass, 0.0) @ reach[:, depth]
        bound = (1.0 + _BOUND_PAD) * np.minimum(whole, parts)
        return bool(np.any(bound > thresholds[depth:]))

    def scan(depth: int, index: int) -> None:
        arc = dyadic_arc(depth, index)
        if not window.intersects(arc):
            return
        mass = measure.mass_in_square(CarlesonSquare(arc, closed=True))
        if window.contains_arc(arc) and mass > m_threshold * arc.normalized_length:
            witnesses.append(arc)
            return
        if depth < depth_floor and may_trigger(depth, arc, mass):
            scan(depth + 1, 2 * index)
            scan(depth + 1, 2 * index + 1)

    scan(0, 0)
    dilated = [w.dilate(5.0) for w in witnesses]
    components = []
    for comp in _merge_arcs(dilated):
        components.extend(_clip_arc(comp, window))
    ratio = sum(c.length for c in components) / base.length
    return BadIntervals(tuple(witnesses), tuple(components), ratio)


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


@dataclass(frozen=True)
class RegionPiece:
    """One generation's contribution: (Q(I) minus child squares) meet disks."""

    square: CarlesonSquare
    holes: tuple
    disks: tuple

    def contains_many(self, z: np.ndarray) -> np.ndarray:
        inside = self.square.contains_many(z)
        for hole in self.holes:
            inside &= ~hole.contains_many(z)
        in_disk = np.zeros(z.shape, dtype=bool)
        for d in self.disks:
            in_disk |= d.contains_many(z)
        return inside & in_disk


class Region:
    """Union of generation pieces; membership plus boundary extraction."""

    def __init__(self, pieces):
        self.pieces = tuple(pieces)

    def contains_many(self, z) -> np.ndarray:
        zs = np.atleast_1d(np.asarray(z, dtype=complex))
        out = np.zeros(zs.shape, dtype=bool)
        for piece in self.pieces:
            out |= piece.contains_many(zs)
        return out

    def contains(self, z) -> bool:
        return bool(self.contains_many(np.array([complex(z)]))[0])


@dataclass(frozen=True)
class GenerationStats:
    generation: int
    active_intervals: int
    bad_intervals: int
    length_ratio: float


@dataclass(frozen=True)
class ContourResult:
    region: Region
    polylines: tuple
    constants: ContourConstants
    generations: tuple
    truncated: bool

    def contains_many(self, z) -> np.ndarray:
        return self.region.contains_many(z)


def _square_primitives(square: CarlesonSquare):
    """Primitive curves of a Carleson square boundary interior to the disk."""
    prims = []
    arc = square.base
    r0 = square.inner_radius
    if arc.length < TAU:
        for ang in (arc.start % TAU, arc.end % TAU):
            prims.append(("segment", (round(ang, 12), round(r0, 12)),
                          (r0 * np.exp(1j * ang), np.exp(1j * ang))))
    if r0 > 0:
        prims.append(("inner_arc", (round(r0, 12), round(arc.start % TAU, 12),
                                    round(arc.length, 12)), (r0, arc)))
    return prims


def _curve_points(kind, payload, ts):
    if kind == "circle":
        c, r = payload
        return c + r * np.exp(1j * ts)
    if kind == "segment":
        a, b = payload
        return a + ts * (b - a)
    r0, arc = payload
    return r0 * np.exp(1j * (arc.start + ts * arc.length))


def _curve_normals(kind, payload, ts):
    if kind == "circle":
        return np.exp(1j * ts)
    if kind == "segment":
        a, b = payload
        d = (b - a) / abs(b - a)
        return np.full(ts.shape, 1j * d)
    r0, arc = payload
    return np.exp(1j * (arc.start + ts * arc.length))


def _extract_polylines(region: Region, resolution: float = 2.0 ** -12):
    """Boundary of the region as polylines along the primitive curves.

    Every boundary point of a piece lies on a disk circle, a radial edge or
    an inner arc of some square.  Each primitive is sampled; a sample stays
    when probes offset to either side disagree about membership; transition
    parameters are refined by bisection.
    """
    prims = {}
    for piece in region.pieces:
        for d in piece.disks:
            key = ("circle", (round(d.eu_center.real, 14), round(d.eu_center.imag, 14),
                              round(d.eu_radius, 14)))
            prims[key] = ("circle", (d.eu_center, d.eu_radius), d.eu_radius, True)
        for sq in (piece.square,) + piece.holes:
            for kind, kid, payload in _square_primitives(sq):
                if kind == "segment":
                    a, b = payload
                    prims[(kind, kid)] = (kind, payload, abs(b - a), False)
                else:
                    r0, arc = payload
                    prims[(kind, kid)] = (kind, payload, r0 * arc.length, False)

    polylines = []
    for kind, payload, scale, closed in prims.values():
        if scale <= 0:
            continue
        n = 256 if kind == "circle" else 512
        span = TAU if kind == "circle" else 1.0
        ts = span * (np.arange(n) + 0.5) / n
        pts = _curve_points(kind, payload, ts)
        normals = _curve_normals(kind, payload, ts)
        h = max(scale * resolution, 1e-13)
        side_a = region.contains_many(pts + h * normals)
        side_b = region.contains_many(pts - h * normals)
        on_boundary = side_a ^ side_b

        def refine(t_good, t_bad):
            for _ in range(30):
                mid = 0.5 * (t_good + t_bad)
                p = _curve_points(kind, payload, np.array([mid]))
                nrm = _curve_normals(kind, payload, np.array([mid]))
                hit = bool(
                    region.contains_many(p + h * nrm)[0]
                    ^ region.contains_many(p - h * nrm)[0]
                )
                if hit:
                    t_good = mid
                else:
                    t_bad = mid
            return t_good

        if not np.any(on_boundary):
            continue
        if np.all(on_boundary):
            verts = _curve_points(kind, payload, np.append(ts, ts[0] if closed else ts[-1]))
            if closed:
                verts[-1] = verts[0]
            polylines.append(verts)
            continue
        idx = np.arange(n)
        runs = []
        start = None
        order = idx if not closed else np.roll(idx, -int(np.argmin(on_boundary)))
        for i in order:
            if on_boundary[i] and start is None:
                start = i
                run = [i]
            elif on_boundary[i]:
                run.append(i)
            elif start is not None:
                runs.append(run)
                start = None
        if start is not None:
            runs.append(run)
        for run in runs:
            t_first, t_last = ts[run[0]], ts[run[-1]]
            prev_t = ts[(run[0] - 1) % n] if closed else max(t_first - span / n, 0.0)
            next_t = ts[(run[-1] + 1) % n] if closed else min(t_last + span / n, span)
            if closed and prev_t > t_first:
                prev_t -= span
            if closed and next_t < t_last:
                next_t += span
            t0 = refine(t_first, prev_t)
            t1 = refine(t_last, next_t)
            run_ts = np.concatenate(([t0], ts[run], [t1]))
            polylines.append(_curve_points(kind, payload, run_ts))
    return tuple(polylines)


def bourgain_contour(phi: BoundedFunction, eps: float,
                     constants: ContourConstants | None = None,
                     depth_floor: int = 20,
                     resolution: float = 2.0 ** -12,
                     max_generations: int = 64) -> ContourResult:
    """Build the two-level region and its boundary polylines.

    Each generation interval I contributes (Q(I) minus the bad child
    squares) intersected with the union of pseudo-hyperbolic gamma-disks
    around the zeros in Q(2I).  Bad children recurse; recursion below
    depth_floor (or past max_generations) is cut off and flagged, in which
    case the inner inclusion {|phi| < eps'} subset O is no longer certified.
    """
    if constants is None:
        constants = ContourConstants.for_epsilon(eps)
    measure = phi.representing_measure()
    gamma = constants.gamma
    full = Arc(center_angle=0.0, length=TAU)
    active = [full]
    pieces = []
    stats = []
    truncated = False
    generation = 0
    while active and generation < max_generations:
        next_active = []
        gen_bad = 0
        worst_ratio = 0.0
        for interval in active:
            bad = select_bad_intervals(measure, interval, constants.m_threshold, depth_floor)
            if bad.length_ratio > 0.01 + 1e-12:
                raise ContourBoundError(
                    f"bad intervals cover {bad.length_ratio:.4f} of their parent"
                )
            worst_ratio = max(worst_ratio, bad.length_ratio)
            gen_bad += len(bad.intervals)
            parent_square = CarlesonSquare(interval, closed=True)
            double = CarlesonSquare(interval.dilate(2.0), closed=True)
            disk_centers = {z for z in phi.zeros if double.contains(z)}
            disks = tuple(DiskSpec.around(z, gamma) for z in sorted(
                disk_centers, key=lambda w: (w.real, w.imag)))
            holes = tuple(CarlesonSquare(c, closed=True) for c in bad.intervals)
            if disks:
                pieces.append(RegionPiece(parent_square, holes, disks))
            for child in bad.intervals:
                if child.normalized_length <= 2.0 ** -depth_floor:
                    truncated = True
                else:
                    next_active.append(child)
        stats.append(GenerationStats(generation, len(active), gen_bad, worst_ratio))
        active = next_active
        generation += 1
    if active:
        truncated = True
    region = Region(pieces)
    polylines = _extract_polylines(region, resolution)
    return ContourResult(region, polylines, constants, tuple(stats), truncated)


def verify_region(phi: BoundedFunction, result: ContourResult, eps: float,
                  samples: int = 10000, rng=None, depth: int = 12) -> dict:
    """Sample-based check of the two-level sandwich and the contour norm.

    Points inside the region must satisfy |phi| <= eps; points outside must
    satisfy log|phi| >= log eps' (the inner level).  The levels as compared
    (log eps + 1e-9 and log eps') are returned with the violation counts and
    the observed extremes: the largest log|phi| inside and the smallest
    outside (-inf and inf when a side has no sample).  The boundary
    polylines are measured as a curve and their Carleson norm must not
    exceed 10.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    half = samples // 2
    bulk = []
    while sum(b.size for b in bulk) < half:
        cand = rng.uniform(-1, 1, (half, 2))
        pts = cand[:, 0] + 1j * cand[:, 1]
        bulk.append(pts[np.abs(pts) < 1.0])
    zs = np.concatenate(bulk)[:half]
    near = []
    per_disk = max(1, (samples - half) // max(1, sum(len(p.disks) for p in result.region.pieces)))
    for piece in result.region.pieces:
        for d in piece.disks:
            ang = rng.uniform(0.0, TAU, per_disk)
            rad = d.eu_radius * np.sqrt(rng.uniform(0.0, 4.0, per_disk))
            cand = d.eu_center + rad * np.exp(1j * ang)
            near.append(cand[np.abs(cand) < 1.0])
    if near:
        zs = np.concatenate([zs] + near)
    inside = result.contains_many(zs)
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
        "inside": int(np.sum(inside)),
        "outside": int(np.sum(~inside)),
        "upper_violations": upper_viol,
        "lower_violations": lower_viol,
        "upper_level": upper_level,
        "lower_level": lower_level,
        "max_log_abs_inside": float(np.max(inside_vals)) if inside_vals.size else -math.inf,
        "min_log_abs_outside": float(np.min(outside_vals)) if outside_vals.size else math.inf,
        "contour_norm": norm,
        "contour_norm_ok": norm <= 10.0,
        "truncated": result.truncated,
        "passed": upper_viol == 0 and lower_viol == 0 and norm <= 10.0,
    }
