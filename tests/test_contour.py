import cmath
import math

import numpy as np
import pytest

from carleson_kit.contour import (
    BadIntervals,
    BoundedFunction,
    ContourConstants,
    ContourResult,
    DiskSpec,
    Region,
    RegionPiece,
    RepresentingMeasure,
    _clip_arc,
    _merge_arcs,
    bourgain_contour,
    check_potential_bounds,
    select_bad_intervals,
    verify_region,
)
from carleson_kit.disk import Arc, CarlesonSquare, blaschke_factor, dyadic_arc
from carleson_kit.errors import ContourBoundError, DomainError

TAU = 2 * math.pi


def random_blaschke_zeros(rng, n, rmax=0.985):
    r = np.sqrt(rng.uniform(0, 1, n)) * rmax
    return r * np.exp(1j * rng.uniform(0, TAU, n))


def wide_constants(eps=0.3, gamma=0.3, m_threshold=1000.0, log_eps_prime=-50.0):
    """Hand-built constants with a macroscopic disk radius, for geometry tests."""
    return ContourConstants(
        epsilon=eps, c1=8.0, c2=8.0, c3=8.0,
        m_threshold=m_threshold, gamma=gamma, log_eps_prime=log_eps_prime,
    )


class TestConstants:
    def test_closed_forms_at_one_tenth(self):
        c = ContourConstants.for_epsilon(0.1)
        log10 = math.log(10.0)
        assert c.m_threshold == pytest.approx(800.0 * log10, rel=1e-15)
        assert c.gamma == pytest.approx(1.0 / (16.0 * 801.0 * log10), rel=1e-15)
        assert c.gamma == pytest.approx(3.3886897776470957e-05, rel=1e-12)
        assert c.log_eps_prime == pytest.approx(
            -8.0 * math.log(1.0 / c.gamma) * (c.m_threshold + log10), rel=1e-15
        )
        assert c.log_eps_prime == pytest.approx(-151865.21620315718, rel=1e-12)

    def test_gamma_scales_exactly_with_log_eps(self):
        # m + log(1/eps) = 801 log(1/eps), so gamma(0.1)/gamma(0.01) = 2
        g1 = ContourConstants.for_epsilon(0.1).gamma
        g2 = ContourConstants.for_epsilon(0.01).gamma
        assert g1 / g2 == 2.0

    def test_gamma_min_branch_for_tiny_eps(self):
        assert ContourConstants.for_epsilon(1e-10).gamma == 1e-10

    def test_rejects_bad_eps(self):
        with pytest.raises(DomainError):
            ContourConstants.for_epsilon(1.0)
        with pytest.raises(DomainError):
            ContourConstants.for_epsilon(0.0)


class TestBoundedFunction:
    def test_pure_blaschke_log_abs(self):
        rng = np.random.default_rng(3)
        zeros = random_blaschke_zeros(rng, 5, rmax=0.8)
        phi = BoundedFunction(zeros=zeros)
        zs = random_blaschke_zeros(rng, 30, rmax=0.9)
        want = sum(np.log(np.abs(blaschke_factor(lam, zs))) for lam in zeros)
        assert np.allclose(phi.log_abs(zs), want, atol=1e-12)

    def test_singular_atom_value_at_origin(self):
        # exp(-integral (xi+z)/(xi-z) dmu) has modulus e^-mass at z = 0
        phi = BoundedFunction(singular_atoms=[(1.0, 0.25)])
        assert phi.log_abs(np.array([0.0 + 0j]))[0] == pytest.approx(-0.25)

    def test_positive_outer_log_rejected(self):
        with pytest.raises(DomainError):
            BoundedFunction(outer_log=np.full(64, 0.1))

    def test_representing_measure_total_mass(self):
        outer = -np.abs(np.sin(TAU * np.arange(128) / 128))
        phi = BoundedFunction(
            zeros=[0.5, -0.2j], singular_atoms=[(2.0, 0.03)], outer_log=outer
        )
        nu = phi.representing_measure()
        want = 0.03 + np.mean(-outer) + 0.5 * ((1 - 0.5**2) + (1 - 0.2**2))
        assert nu.total_mass() == pytest.approx(want, rel=1e-12)
        # the potential at the origin is exactly the total mass
        assert nu.potential(0.0) == pytest.approx(nu.total_mass(), rel=1e-12)

    def test_outer_part_rejects_points_off_the_open_disk(self):
        # the Poisson integral of outer_log gave nan at 1.0 and a positive
        # log|phi| at 1.1, for a phi bounded by one
        phi = BoundedFunction(zeros=[0.3], outer_log=-0.1 * np.ones(8))
        with pytest.raises(DomainError):
            phi.log_abs([1.0, 1.1])
        with pytest.raises(DomainError):
            phi.log_abs([0.5, 1.1])
        with pytest.raises(DomainError):
            phi.representing_measure().potential([0.5, 1.0])
        assert phi.log_abs(0.0) < 0.0

    def test_singular_part_rejects_points_off_the_open_disk(self):
        # the singular kernel gave +2.1 and +0.02 at 1.1 and -1.5, a positive
        # log|phi| for a phi bounded by one
        phi = BoundedFunction(singular_atoms=[(0.0, 0.1)])
        for z in ([1.1, -1.5], [0.5, 1.0], [0.5, 1j], [0.5, complex("nan")], 1.1):
            with pytest.raises(DomainError):
                phi.log_abs(z)
        assert phi.log_abs(0.0) == pytest.approx(-0.1)
        assert np.all(phi.log_abs([0.5, -0.999j]) < 0.0)

    def test_atom_potential_rejects_points_off_the_open_disk(self):
        # the atom kernels gave -2.1 and -0.3 at 1.1 and 2.0
        measures = (
            RepresentingMeasure(interior_atoms=[(0.5, 0.2)]),
            RepresentingMeasure(boundary_atoms=[(0.0, 0.1)]),
            BoundedFunction(zeros=[0.3], singular_atoms=[(1.0, 0.1)]).representing_measure(),
        )
        for nu in measures:
            for z in ([1.1, 2.0], [0.5, 1.0], [0.5, complex("nan")], -1.0):
                with pytest.raises(DomainError):
                    nu.potential(z)
            assert nu.potential(0.0) == pytest.approx(nu.total_mass(), rel=1e-12)
            assert np.all(nu.potential([0.5, 0.9j]) > 0.0)

    def test_blaschke_only_log_abs_on_the_circle(self):
        # without an outer part the circle stays allowed: |B| = 1 there
        phi = BoundedFunction(zeros=[0.3, -0.5j])
        vals = phi.log_abs(np.exp(1j * np.array([0.0, 1.0, 4.0])))
        assert np.allclose(vals, 0.0, atol=1e-15)

    def test_blaschke_only_log_abs_rejects_points_off_the_closed_disk(self):
        # log|B| gave +0.78 at 1.5 and nan at nan, for a B bounded by one
        phi = BoundedFunction(zeros=[0.3])
        for z in ([0.5, 1.5], [0.5, complex("nan")], -1.1j):
            with pytest.raises(DomainError):
                phi.log_abs(z)


class TestPotentialBounds:
    def test_two_sided_on_separated_points(self):
        rng = np.random.default_rng(7)
        eps = 0.1
        for _ in range(10):
            zeros = random_blaschke_zeros(rng, 8, rmax=0.9)
            phi = BoundedFunction(zeros=zeros)
            pts = []
            while len(pts) < 50:
                z = complex(*rng.uniform(-0.7, 0.7, 2))
                d = min(abs(blaschke_factor(lam, z)) for lam in zeros)
                if d >= 1.1 * eps:
                    pts.append(z)
            out = check_potential_bounds(phi, eps, pts)
            assert out["hypothesis_ok"]
            assert out["worst_lower"] >= -1e-12
            assert out["worst_upper"] >= -1e-12

    def test_lower_bound_holds_even_near_zeros(self):
        # potential <= -log|phi| needs no separation at all
        rng = np.random.default_rng(9)
        zeros = random_blaschke_zeros(rng, 6, rmax=0.8)
        phi = BoundedFunction(zeros=zeros)
        pts = zeros + 1e-3  # points hugging the zeros
        out = check_potential_bounds(phi, 0.1, pts)
        assert not out["hypothesis_ok"]
        assert out["worst_lower"] >= -1e-12

    def test_eps_domain_guard(self):
        phi = BoundedFunction(zeros=[0.1])
        with pytest.raises(DomainError):
            check_potential_bounds(phi, 0.7, [0.5])


class TestBadIntervals:
    def test_planted_atom_witness_and_ratio(self):
        nu = RepresentingMeasure(boundary_atoms=[(1.0, 0.004)])
        full = Arc(center_angle=0.0, length=TAU)
        bad = select_bad_intervals(nu, full, m_threshold=10.0)
        assert len(bad.witnesses) == 1
        j = bad.witnesses[0]
        # smallest depth with 0.004 > 10 * 2^-d is d = 12
        assert j.normalized_length == pytest.approx(2.0**-12)
        assert j.contains_angle(1.0)
        assert bad.length_ratio == pytest.approx(5 * 2.0**-12, rel=1e-12)
        assert bad.length_ratio <= 0.01

    def test_witness_is_maximal(self):
        nu = RepresentingMeasure(boundary_atoms=[(1.0, 0.004)])
        full = Arc(center_angle=0.0, length=TAU)
        bad = select_bad_intervals(nu, full, m_threshold=10.0)
        j = bad.witnesses[0]
        # the dyadic parent is not heavy
        parent_mass = 0.004
        assert parent_mass <= 10.0 * (2 * j.normalized_length)

    def test_uniform_density_produces_no_witnesses(self):
        nu = RepresentingMeasure(density=np.full(256, 0.5))
        bad = select_bad_intervals(nu, Arc(0.0, TAU), m_threshold=10.0)
        assert bad.witnesses == ()
        assert bad.length_ratio == 0.0

    def test_deep_interior_atom_is_light(self):
        # an atom at radius 1/2 only enters squares of depth 0 and 1
        nu = RepresentingMeasure(interior_atoms=[(0.5, 1.0)])
        bad = select_bad_intervals(nu, Arc(0.0, TAU), m_threshold=10.0)
        assert bad.witnesses == ()


def unpruned_bad_intervals(measure, base, m_threshold, depth_floor=20):
    """The scan without its descent bound: every arc above the mass floor
    m_threshold * 2**-depth_floor is subdivided down to depth_floor."""
    window = base.dilate(5.0)
    floor_threshold = m_threshold * (2.0 ** -depth_floor)
    witnesses = []

    def scan(depth, index):
        arc = dyadic_arc(depth, index)
        if not window.intersects(arc):
            return
        mass = measure.mass_in_square(CarlesonSquare(arc, closed=True))
        if mass <= min(floor_threshold, m_threshold * arc.normalized_length):
            return
        if window.contains_arc(arc) and mass > m_threshold * arc.normalized_length:
            witnesses.append(arc)
            return
        if depth < depth_floor:
            scan(depth + 1, 2 * index)
            scan(depth + 1, 2 * index + 1)

    scan(0, 0)
    components = []
    for comp in _merge_arcs([w.dilate(5.0) for w in witnesses]):
        components.extend(_clip_arc(comp, window))
    ratio = sum(c.length for c in components) / base.length
    return BadIntervals(tuple(witnesses), tuple(components), ratio)


def _ray_angle(rng, base_depth, base_index, depth):
    """An end or the center of a random dyadic arc under the base, moved by
    at most two ulps: the angles where child and parent arcs disagree."""
    sub = 1 << (depth - base_depth)
    arc = dyadic_arc(depth, base_index * sub + int(rng.integers(sub)))
    angle = (arc.start, arc.end, arc.center_angle)[int(rng.integers(3))]
    steps = int(rng.integers(-2, 3))
    for _ in range(abs(steps)):
        angle = math.nextafter(angle, math.inf if steps > 0 else -math.inf)
    return angle


def _fuzzed_measure(rng, m_threshold, depth_floor, n, base_depth, base_index):
    """Atoms on and off dyadic rays under the base, interior atoms close to
    the circle, and a density of spikes with low bumps around the atoms."""
    def angle(depth):
        if rng.uniform() < 0.7:
            return _ray_angle(rng, base_depth, base_index, depth)
        return dyadic_arc(base_depth, base_index).start + rng.uniform() * TAU / (1 << base_depth)

    boundary = [(angle(int(rng.integers(base_depth + 1, depth_floor + 1))),
                 m_threshold * 2.0 ** -rng.uniform(1.0, depth_floor + 2.0))
                for _ in range(int(rng.integers(1, 5)))]
    interior = []
    for _ in range(int(rng.integers(0, 4))):
        r = 1.0 - 10.0 ** rng.uniform(-5.0, math.log10(0.3))
        depth = min(depth_floor, max(base_depth + 1, int(-math.log2(1.0 - r))))
        interior.append((r * np.exp(1j * angle(depth)), rng.uniform(0.5, 40.0) * (1.0 - r * r) / 2))
    density = np.zeros(n)
    for _ in range(int(rng.integers(1, 4))):
        density[int(rng.integers(n))] += m_threshold * rng.uniform(0.1, 4.0)
    for a, _ in boundary + [(np.angle(p), m) for p, m in interior]:
        k = int(math.floor((a % TAU) / TAU * n))
        width = int(rng.integers(1, 4))
        density[np.arange(k - width, k + width + 1) % n] += m_threshold * 2.0 ** -rng.uniform(1, 8)
    return RepresentingMeasure(interior, boundary, density)


class TestBadIntervalOracle:
    """The pruned scan against the unpruned recursion, bit for bit."""

    @pytest.mark.parametrize("depth_floor", [8, 12, 16])
    @pytest.mark.parametrize("base_depth", [0, 2])
    def test_fuzzed_measures_match_unpruned_scan(self, depth_floor, base_depth):
        rng = np.random.default_rng(1000 * depth_floor + base_depth)
        found = 0
        for trial in range(12):
            n = (64, 256, 1000, 1024)[trial % 4]
            m_threshold = (10.0, 23.0)[trial % 2]
            base_index = int(rng.integers(1 << base_depth))
            base = Arc(0.0, TAU) if base_depth == 0 else dyadic_arc(base_depth, base_index)
            nu = _fuzzed_measure(rng, m_threshold, depth_floor, n, base_depth, base_index)
            want = unpruned_bad_intervals(nu, base, m_threshold, depth_floor)
            assert select_bad_intervals(nu, base, m_threshold, depth_floor) == want
            found += len(want.witnesses)
        assert found >= 12

    def test_atoms_on_dyadic_rays_match_unpruned_scan(self):
        # atoms on the rays of the arcs of their trigger depth, each under a
        # density bump heavy enough that the unpruned scan descends to it
        # even where a parent arc leaves the atom out; interior atoms reach
        # no deeper than that depth, so only the parent's mass can carry them
        rng = np.random.default_rng(11)
        found = 0
        for _ in range(40):
            interior, boundary = [], []
            density = np.zeros(1024)
            for _ in range(3):
                depth = int(rng.integers(6, 12))
                angle = _ray_angle(rng, 0, 0, depth)
                mass = 10.0 * 2.0 ** -depth * rng.uniform(1.0, 1.4)
                if rng.uniform() < 0.5:
                    boundary.append((angle, mass))
                else:
                    r = 1.0 - 2.0 ** -depth * rng.uniform(0.5, 1.0)
                    interior.append((r * cmath.exp(1j * angle), mass))
                k = int(angle % TAU / TAU * 1024)
                density[np.arange(k - 2, k + 3) % 1024] = 3.0
            nu = RepresentingMeasure(interior, boundary, density)
            want = unpruned_bad_intervals(nu, Arc(0.0, TAU), 10.0, 12)
            assert select_bad_intervals(nu, Arc(0.0, TAU), 10.0, 12) == want
            found += len(want.witnesses)
        assert found >= 40


def _count_nodes(monkeypatch):
    calls = []
    inner = RepresentingMeasure.mass_in_square

    def counted(self, square):
        calls.append(square)
        return inner(self, square)

    monkeypatch.setattr(RepresentingMeasure, "mass_in_square", counted)
    return calls


class TestBadIntervalPruning:
    def test_uniform_density_stops_at_the_root(self, monkeypatch):
        calls = _count_nodes(monkeypatch)
        nu = RepresentingMeasure(density=np.full(256, 0.5))
        assert select_bad_intervals(nu, Arc(0.0, TAU), m_threshold=10.0).witnesses == ()
        assert len(calls) <= 4

    def test_smooth_outer_measure_stops_at_the_root(self, monkeypatch):
        # the outer-contour benchmark's inputs: depth 0.06, 4096 samples,
        # c1 = 0.1 at eps = 0.1, i.e. M = 10 log 10
        calls = _count_nodes(monkeypatch)
        size = 4096
        grid = TAU * np.arange(size) / size
        phi = BoundedFunction(
            zeros=[0.5 + 0.6j, -0.85 + 0.1j],
            singular_atoms=[(2.0, 3e-6)],
            outer_log=-0.06 * (1.0 + 0.5 * np.cos(3 * grid + 1.0)),
        )
        m_threshold = ContourConstants.for_epsilon(0.1, c1=0.1).m_threshold
        bad = select_bad_intervals(phi.representing_measure(), Arc(0.0, TAU), m_threshold)
        assert bad.witnesses == ()
        assert len(calls) <= 4

    def test_planted_atom_still_reaches_its_witness(self, monkeypatch):
        calls = _count_nodes(monkeypatch)
        nu = RepresentingMeasure(boundary_atoms=[(1.0, 0.004)])
        bad = select_bad_intervals(nu, Arc(0.0, TAU), m_threshold=10.0)
        assert [w.normalized_length for w in bad.witnesses] == [2.0**-12]
        # the path to depth 12 and the empty sibling at every level
        assert len(calls) == 1 + 2 * 12


class TestContour:
    def test_outer_function_above_level_gives_empty_region(self):
        phi = BoundedFunction(outer_log=np.full(256, math.log(0.5)))
        result = bourgain_contour(phi, 0.1)
        assert result.polylines == ()
        assert not result.truncated
        zs = np.array([0.0, 0.3 + 0.2j, -0.8j])
        assert not result.region.contains_many(zs).any()

    def test_identity_zero_region_is_gamma_disk(self):
        consts = wide_constants()
        phi = BoundedFunction(zeros=[0.0])
        result = bourgain_contour(phi, consts.epsilon, constants=consts)
        inside = result.region.contains_many(np.array([0.29 + 0j, 0.2j, -0.15]))
        outside = result.region.contains_many(np.array([0.31 + 0j, 0.4j, 0.9]))
        assert inside.all()
        assert not outside.any()
        # one closed polyline hugging the circle |z| = gamma
        assert len(result.polylines) == 1
        radii = np.abs(np.asarray(result.polylines[0]))
        assert np.max(np.abs(radii - 0.3)) < 1e-6

    def test_identity_zero_region_default_constants(self):
        phi = BoundedFunction(zeros=[0.0])
        result = bourgain_contour(phi, 0.1)
        gamma = result.constants.gamma
        assert result.region.contains_many(np.array([0.5 * gamma + 0j]))[0]
        assert not result.region.contains_many(np.array([1.5 * gamma + 0j]))[0]

    def test_random_product_verifies(self):
        rng = np.random.default_rng(100)
        zeros = random_blaschke_zeros(rng, 12)
        phi = BoundedFunction(zeros=zeros)
        result = bourgain_contour(phi, 0.1)
        report = verify_region(phi, result, 0.1, samples=4000, rng=rng)
        assert report["passed"]
        assert report["upper_violations"] == 0
        assert report["lower_violations"] == 0
        assert report["contour_norm"] <= 10.0

    def test_corrupted_region_is_detected(self):
        # enlarge every disk by 2x; sampling at level 1.5 gamma must complain
        consts = wide_constants()
        phi = BoundedFunction(zeros=[0.0])
        result = bourgain_contour(phi, consts.epsilon, constants=consts)
        bad_pieces = []
        for piece in result.region.pieces:
            disks = tuple(DiskSpec.around(d.center, 2 * d.gamma) for d in piece.disks)
            bad_pieces.append(RegionPiece(piece.square, piece.holes, disks))
        corrupted = ContourResult(
            region=Region(bad_pieces),
            polylines=result.polylines,
            constants=consts,
            generations=result.generations,
            truncated=False,
        )
        rng = np.random.default_rng(5)
        good = verify_region(phi, result, 1.5 * consts.gamma, samples=4000, rng=rng)
        assert good["upper_violations"] == 0
        bad = verify_region(phi, corrupted, 1.5 * consts.gamma, samples=4000, rng=rng)
        assert bad["upper_violations"] > 0
        assert not bad["passed"]

    def test_persistent_atom_trips_the_interval_bound(self):
        # a singular atom stays heavy under recursion: by the second
        # generation its dilated witness fills the parent interval
        phi = BoundedFunction(zeros=[0.0], singular_atoms=[(1.0, 0.004)])
        consts = wide_constants(m_threshold=10.0)
        with pytest.raises(ContourBoundError):
            bourgain_contour(phi, consts.epsilon, constants=consts)

    def test_generation_cap_sets_truncated_flag(self):
        phi = BoundedFunction(zeros=[0.0], singular_atoms=[(1.0, 0.004)])
        consts = wide_constants(m_threshold=10.0)
        result = bourgain_contour(phi, consts.epsilon, constants=consts, max_generations=1)
        assert result.truncated
        assert len(result.generations) == 1
        assert result.generations[0].bad_intervals == 1

    def test_generation_stats_are_recorded(self):
        phi = BoundedFunction(zeros=[0.0])
        result = bourgain_contour(phi, 0.1)
        assert len(result.generations) >= 1
        g0 = result.generations[0]
        assert g0.generation == 0
        assert g0.active_intervals == 1
        assert g0.length_ratio <= 0.01
