import cmath
import math
import tracemalloc

import numpy as np
import pytest
from oracles import extract_polylines_reference

from carleson_kit import blaschke as blaschke_mod
from carleson_kit import disk
from carleson_kit.contour import (
    BoundedFunction,
    ContourConstants,
    ContourResult,
    DiskSpec,
    Region,
    RepresentingMeasure,
    _extract_polylines,
    bourgain_contour,
    check_potential_bounds,
    select_bad_intervals,
    verify_region,
)
from carleson_kit.disk import (
    blaschke_factor,
    dyadic_arc,
    dyadic_index,
    kernel,
    polar,
    pseudo_hyperbolic,
    require_interior,
    turns,
)
from carleson_kit.errors import ContourBoundError, DomainError
from carleson_kit.hardy import poisson_sum

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
    @pytest.mark.parametrize("kwargs", [
        {"singular_atoms": [(math.inf, 0.1)]},
        {"singular_atoms": [(0.0, math.nan)]},
        {"singular_atoms": [(0.0, math.inf)]},
        {"outer_log": [-math.inf] + [-0.1] * 63},
        {"outer_log": [math.nan] + [-0.1] * 63},
    ])
    def test_refuses_non_finite_parts(self, kwargs):
        # a NaN outer sample passes the modulus test max(outer_log) <= 1e-8
        with pytest.raises(DomainError, match="finite"):
            BoundedFunction(zeros=[0.3], **kwargs)

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
        # the potential at the origin is exactly the total mass
        assert nu.potential(0.0) == pytest.approx(want, rel=1e-12)

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
            total = sum(m for _, m in nu.interior_atoms + nu.boundary_atoms)
            assert nu.potential(0.0) == pytest.approx(total, rel=1e-12)
            assert np.all(nu.potential([0.5, 0.9j]) > 0.0)

    def test_blaschke_only_log_abs_on_the_circle(self):
        # without an outer part the circle stays allowed: |B| = 1 there
        phi = BoundedFunction(zeros=[0.3, -0.5j])
        vals = phi.log_abs(np.exp(1j * np.array([0.0, 1.0, 4.0])))
        assert np.allclose(vals, 0.0, atol=1e-15)

    def test_circle_points_get_one_open_disk_verdict(self):
        # computed circle points with hypot(z) == 1, of which numpy's SIMD
        # np.abs puts about a quarter inside: every open-disk test takes them
        # as on the circle, none as interior
        z = np.exp(1j * np.random.default_rng(4).uniform(0.0, TAU, 2000))
        z = z[np.hypot(z.real, z.imag) == 1.0][:200]
        assert z.size == 200
        blaschke = BoundedFunction(zeros=[0.3, -0.5j])
        singular = BoundedFunction(singular_atoms=[(1.0, 0.1)])
        for p in z:
            for call in (lambda: require_interior(p), lambda: pseudo_hyperbolic(p, 0.0),
                         lambda: kernel(p, 0.5), lambda: poisson_sum(np.ones(8), p),
                         lambda: singular.log_abs([0.5, p]),
                         lambda: singular.representing_measure().potential([0.5, p])):
                with pytest.raises(DomainError):
                    call()
        assert (blaschke.log_abs(z) == 0.0).all()

    def test_blaschke_only_log_abs_rejects_points_off_the_closed_disk(self):
        # log|B| gave +0.78 at 1.5 and nan at nan, for a B bounded by one
        phi = BoundedFunction(zeros=[0.3])
        for z in ([0.5, 1.5], [0.5, complex("nan")], -1.1j):
            with pytest.raises(DomainError):
                phi.log_abs(z)


def one_shot_log_abs(zeros, zs):
    """The Blaschke part of log|phi| from one (points, zeros) array."""
    out = np.zeros(zs.shape)
    inner = np.hypot(zs.real, zs.imag) < 1.0
    rho = pseudo_hyperbolic(np.asarray(zeros)[None, :], zs[inner][:, None])
    with np.errstate(divide="ignore"):
        out[inner] = np.sum(np.log(rho), axis=1)
    return out


class TestLogAbsBlocks:
    @pytest.mark.parametrize("n_zeros, n_points", [
        (1, 40_000), (7, 10_001), (50, 10_001), (2**15 + 1, 5),
    ])
    def test_blocks_match_the_one_shot_sum_bit_for_bit(self, n_zeros, n_points):
        # point counts that no block size divides, except for 2**15 + 1
        # zeros, where every block is one row
        rng = np.random.default_rng(n_zeros)
        zeros = random_blaschke_zeros(rng, n_zeros, rmax=0.95)
        zs = random_blaschke_zeros(rng, n_points, rmax=0.999)
        # a point at a zero (-inf) and points on the circle (0)
        zs[:5] = [zeros[0], 1.0, -1.0, 1j, -1j]
        rows = max(1, blaschke_mod._LOG_BLOCK // n_zeros)
        assert n_points > rows and n_points % rows or rows == 1
        got = BoundedFunction(zeros=zeros).log_abs(zs)
        want = one_shot_log_abs(zeros, zs)
        assert got[0] == -math.inf
        assert (got[1:5] == 0.0).all()
        assert np.array_equal(got, want)

    def test_memory_stays_in_blocks(self):
        # 10,000 points x 1,000 zeros: one (points, zeros) complex array
        # alone is 160 MB
        rng = np.random.default_rng(3)
        phi = BoundedFunction(zeros=random_blaschke_zeros(rng, 1000))
        zs = random_blaschke_zeros(rng, 10_000)
        tracemalloc.start()
        try:
            phi.log_abs(zs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    def test_modulus_of_the_points_is_taken_once(self, monkeypatch):
        # both the closed-disk refusal and the open-disk mask read it
        rng = np.random.default_rng(8)
        phi = BoundedFunction(zeros=random_blaschke_zeros(rng, 50))
        zs = random_blaschke_zeros(rng, 1000)
        want = phi.log_abs(zs)
        sizes = []

        def counted(z):
            sizes.append(np.size(z))
            return np.hypot(z.real, z.imag)

        monkeypatch.setattr(disk, "_modulus", counted)
        monkeypatch.setattr(blaschke_mod, "_modulus", counted)
        # blocks of 655 rows: only the whole-array modulus has 1000 entries
        assert np.array_equal(phi.log_abs(zs), want)
        assert sizes.count(zs.size) == 1


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
        (j,) = select_bad_intervals(nu, m_threshold=10.0)
        # smallest depth with 0.004 > 10 * 2^-d is d = 12
        assert j.normalized_length == pytest.approx(2.0**-12)
        assert j == dyadic_arc(12, int(dyadic_index(turns(1.0), 12)))
        # 5J covers 5 * 2^-12 of the circle, within the ratio bound 0.01;
        # bourgain_contour refuses the atom all the same (TestContour)
        assert 5 * j.normalized_length <= 0.01

    def test_witness_is_maximal(self):
        nu = RepresentingMeasure(boundary_atoms=[(1.0, 0.004)])
        (j,) = select_bad_intervals(nu, m_threshold=10.0)
        # the dyadic parent is not heavy
        parent_mass = 0.004
        assert parent_mass <= 10.0 * (2 * j.normalized_length)

    def test_uniform_density_produces_no_witnesses(self):
        nu = RepresentingMeasure(density=np.full(256, 0.5))
        assert select_bad_intervals(nu, m_threshold=10.0) == ()

    def test_atoms_next_to_dyadic_rays_reach_their_witness(self):
        # one atom within three ulps of a dyadic ray, heavy at depth d only:
        # the witness is the depth-d arc holding the atom's turn
        rng = np.random.default_rng(29)
        for _ in range(150):
            depth = int(rng.integers(3, 17))
            angle = _ray_angle(rng, 0, 0, int(rng.integers(1, depth + 1)), ulps=3)
            mass = 10.0 * 2.0**-depth * rng.uniform(1.05, 1.9)
            if rng.uniform() < 0.5:
                nu = RepresentingMeasure(boundary_atoms=[(angle, mass)])
                u = turns(angle % TAU)
            else:
                z = (1.0 - 2.0**-depth * rng.uniform(0.5, 1.0)) * cmath.exp(1j * angle)
                nu = RepresentingMeasure(interior_atoms=[(z, mass)])
                u = polar(z)[0]
            witnesses = select_bad_intervals(nu, m_threshold=10.0)
            assert witnesses == (dyadic_arc(depth, int(dyadic_index(u, depth))),)

    def test_deep_interior_atom_is_light(self):
        # an atom at radius 1/2 only enters squares of depth 0 and 1
        nu = RepresentingMeasure(interior_atoms=[(0.5, 1.0)])
        assert select_bad_intervals(nu, m_threshold=10.0) == ()


def unpruned_bad_intervals(measure, m_threshold, depth_floor=20):
    """The scan of the whole circle without its descent bound: every arc
    above the mass floor m_threshold * 2**-depth_floor is subdivided down
    to depth_floor."""
    floor_threshold = m_threshold * (2.0 ** -depth_floor)
    witnesses = []

    def scan(depth, index):
        arc = dyadic_arc(depth, index)
        mass = measure.mass_in_square(arc)
        if mass <= min(floor_threshold, m_threshold * arc.normalized_length):
            return
        if mass > m_threshold * arc.normalized_length:
            witnesses.append(arc)
            return
        if depth < depth_floor:
            scan(depth + 1, 2 * index)
            scan(depth + 1, 2 * index + 1)

    scan(0, 0)
    return tuple(witnesses)


def _ray_angle(rng, base_depth, base_index, depth, ulps=2):
    """An end or the center of a random dyadic arc under the base, moved by
    at most ``ulps`` ulps: angles whose turns sit on a dyadic ray or round
    next to it."""
    sub = 1 << (depth - base_depth)
    arc = dyadic_arc(depth, base_index * sub + int(rng.integers(sub)))
    start, length = arc.start_turn, arc.normalized_length
    angle = TAU * (start, start + length, start + 0.5 * length)[int(rng.integers(3))]
    steps = int(rng.integers(-ulps, ulps + 1))
    for _ in range(abs(steps)):
        angle = math.nextafter(angle, math.inf if steps > 0 else -math.inf)
    return angle


def _fuzzed_measure(rng, m_threshold, depth_floor, n, base_depth, base_index):
    """Atoms on and off dyadic rays under the base, interior atoms close to
    the circle, and a density of spikes with low bumps around the atoms."""
    def angle(depth):
        if rng.uniform() < 0.7:
            return _ray_angle(rng, base_depth, base_index, depth)
        start = dyadic_arc(base_depth, base_index).start_turn * TAU
        return start + rng.uniform() * TAU / (1 << base_depth)

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
        # the measure sits under a dyadic arc of depth base_depth (the whole
        # circle for 0); the scan always covers the whole circle
        rng = np.random.default_rng(1000 * depth_floor + base_depth)
        found = 0
        for trial in range(12):
            n = (64, 256, 1000, 1024)[trial % 4]
            m_threshold = (10.0, 23.0)[trial % 2]
            base_index = int(rng.integers(1 << base_depth))
            nu = _fuzzed_measure(rng, m_threshold, depth_floor, n, base_depth, base_index)
            want = unpruned_bad_intervals(nu, m_threshold, depth_floor)
            assert select_bad_intervals(nu, m_threshold, depth_floor) == want
            found += len(want)
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
            want = unpruned_bad_intervals(nu, 10.0, 12)
            assert select_bad_intervals(nu, 10.0, 12) == want
            found += len(want)
        assert found >= 40


def _count_nodes(monkeypatch):
    calls = []
    inner = RepresentingMeasure.mass_in_square

    def counted(self, arc):
        calls.append(arc)
        return inner(self, arc)

    monkeypatch.setattr(RepresentingMeasure, "mass_in_square", counted)
    return calls


class TestBadIntervalPruning:
    def test_uniform_density_stops_at_the_root(self, monkeypatch):
        calls = _count_nodes(monkeypatch)
        nu = RepresentingMeasure(density=np.full(256, 0.5))
        assert select_bad_intervals(nu, m_threshold=10.0) == ()
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
        assert select_bad_intervals(phi.representing_measure(), m_threshold) == ()
        assert len(calls) <= 4

    def test_planted_atom_still_reaches_its_witness(self, monkeypatch):
        calls = _count_nodes(monkeypatch)
        nu = RepresentingMeasure(boundary_atoms=[(1.0, 0.004)])
        witnesses = select_bad_intervals(nu, m_threshold=10.0)
        assert [w.normalized_length for w in witnesses] == [2.0**-12]
        # the path to depth 12 and the empty sibling at every level
        assert len(calls) == 1 + 2 * 12


class TestContour:
    def test_outer_function_above_level_gives_empty_region(self):
        phi = BoundedFunction(outer_log=np.full(256, math.log(0.5)))
        result = bourgain_contour(phi, 0.1)
        assert result.polylines == ()
        assert result.region.disks == ()
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
        corrupted = ContourResult(
            region=Region(DiskSpec.around(d.center, 2 * d.gamma) for d in result.region.disks),
            polylines=result.polylines,
            constants=consts,
        )
        rng = np.random.default_rng(5)
        good = verify_region(phi, result, 1.5 * consts.gamma, samples=4000, rng=rng)
        assert good["upper_violations"] == 0
        bad = verify_region(phi, corrupted, 1.5 * consts.gamma, samples=4000, rng=rng)
        assert bad["upper_violations"] > 0
        assert not bad["passed"]

    def test_persistent_atom_trips_the_interval_bound(self):
        # the atom's witness J has depth 12 and 5J covers 5 * 2^-12 of the
        # circle; a second generation would find J again below 5J
        phi = BoundedFunction(zeros=[0.0], singular_atoms=[(1.0, 0.004)])
        consts = wide_constants(m_threshold=10.0)
        with pytest.raises(ContourBoundError) as info:
            bourgain_contour(phi, consts.epsilon, constants=consts)
        message = str(info.value)
        assert message.startswith("1 heavy dyadic square")
        assert "at depth 12," in message
        assert "nu(Q(J)) = 0.004 " in message
        assert f"M|J| = {10.0 * 2.0**-12:.6g}" in message

    def test_heaviest_witness_is_named(self):
        # two atoms heavy at depths 5 and 9, in opposite half turns
        phi = BoundedFunction(singular_atoms=[(1.0, 0.5), (4.0, 0.03)])
        consts = wide_constants(m_threshold=10.0)
        with pytest.raises(ContourBoundError) as info:
            bourgain_contour(phi, consts.epsilon, constants=consts)
        message = str(info.value)
        assert message.startswith("2 heavy dyadic square")
        assert "at depth 5, has nu(Q(J)) = 0.5 against M|J| = 0.3125" in message

    def test_heavy_root_fails_at_depth_zero(self):
        # nu(D) = 50 * (1 - 0.5^2) / 2 = 18.75 > M = 10: the root square is
        # its own witness
        phi = BoundedFunction(zeros=[0.5] * 50)
        consts = wide_constants(m_threshold=10.0)
        with pytest.raises(ContourBoundError, match=r"^1 heavy .* at depth 0, "
                                                    r"has nu\(Q\(J\)\) = 18.75 "):
            bourgain_contour(phi, consts.epsilon, constants=consts)


def circle_crossings(c1, r1, c2, r2):
    """The two points where the circles |z - c1| = r1 and |z - c2| = r2 meet."""
    d = abs(c2 - c1)
    along = (r1 * r1 - r2 * r2 + d * d) / (2.0 * d)
    unit = (c2 - c1) / d
    across = math.sqrt(r1 * r1 - along * along)
    return [c1 + (along + 1j * s * across) * unit for s in (1.0, -1.0)]


class TestBoundaryExtraction:
    """Partial boundary runs and their bisected ends, against the unculled
    reference extraction and the closed-form crossings."""

    def check_partial_runs(self, region, crossings, h_of):
        """Match the reference, and put every bisected end within 4h of a
        crossing, h the probe offset of the end's own circle; returns the
        number of partial runs."""
        got = _extract_polylines(region)
        want = extract_polylines_reference(region)
        assert len(got) == len(want)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        partial = [p for p in got if p[0] != p[-1]]
        for p in partial:
            h = h_of(p)
            for end in (p[0], p[-1]):
                assert min(abs(end - x) for x in crossings) < 4.0 * h
        return len(partial)

    @staticmethod
    def circle_h(disk_spec, other_h):
        def h_of(polyline):
            on_circle = abs(abs(polyline[len(polyline) // 2] - disk_spec.eu_center)
                            - disk_spec.eu_radius) < 1e-9
            return disk_spec.eu_radius * 2.0**-12 if on_circle else other_h
        return h_of

    def test_two_overlapping_disks(self):
        phi = BoundedFunction(zeros=[0.0, 0.1 + 0.05j])
        result = bourgain_contour(phi, 0.3, constants=wide_constants())
        d0, d1 = result.region.disks
        crossings = circle_crossings(d0.eu_center, d0.eu_radius, d1.eu_center, d1.eu_radius)
        h_of = self.circle_h(d0, d1.eu_radius * 2.0**-12)
        # h = 0.3 * 2**-12 = 7.3e-5 on the circle around 0; its ends were
        # 2.8h from the crossings before the culling, and must not move
        assert self.check_partial_runs(result.region, crossings, h_of) == 2

    def test_one_membership_call_per_sample_pass_and_bisection_step(self, monkeypatch):
        phi = BoundedFunction(zeros=[0.0, 0.1 + 0.05j])
        result = bourgain_contour(phi, 0.3, constants=wide_constants())
        calls = []
        original = Region.contains_many

        def counted(self, z):
            calls.append(np.size(z))
            return original(self, z)

        monkeypatch.setattr(Region, "contains_many", counted)
        _extract_polylines(result.region)
        # two circles sampled once each (both sides of 256 samples stacked),
        # then 30 steps at each of 4 run ends, both probes in one call
        assert calls.count(512) == 2
        assert calls.count(2) == 4 * 30
        assert len(calls) == 2 + 4 * 30

    def test_disk_within_the_probe_offset_of_a_circle_is_kept(self):
        # two disks of radius 0.3 (given by their Euclidean realizations)
        # 1e-5 apart on the real axis, each circle with probe offset
        # h = 0.3 * 2**-12 = 7.3e-5: each disk's box misses the other
        # circle's box but catches the outer probes of its two samples next
        # to the gap, so each circle shows a boundary run that culling by
        # the pad alone loses
        r, gap = 0.3, 1e-5
        left = DiskSpec(center=-r, gamma=0.5, eu_center=complex(-r), eu_radius=r)
        right = DiskSpec(center=r + gap, gamma=0.5, eu_center=complex(r + gap), eu_radius=r)
        h = r * 2.0**-12
        assert 1e-12 < (right.eu_center.real - r) - (left.eu_center.real + r) < h
        region = Region((left, right))
        got = _extract_polylines(region)
        want = extract_polylines_reference(region)
        assert len(got) == len(want) == 2
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        # both runs are open, and each leaves out the samples at the gap
        for p in got:
            assert p[0] != p[-1]
            assert np.min(np.abs(p - gap / 2)) > 1e-3

    @pytest.mark.parametrize("seed", range(4))
    def test_fuzzed_clustered_regions_match_the_reference(self, seed):
        # seeded clusters of zeros near one boundary point: overlapping disks
        # of several sizes, whose circles cut one another
        rng = np.random.default_rng(seed)
        ang = 1.0 + rng.uniform(-0.2, 0.2, 12)
        rad = 1.0 - 10.0 ** rng.uniform(-2.5, -0.5, 12)
        phi = BoundedFunction(zeros=rad * np.exp(1j * ang))
        consts = wide_constants(gamma=rng.uniform(0.05, 0.3))
        result = bourgain_contour(phi, consts.epsilon, constants=consts)
        want = extract_polylines_reference(result.region)
        got = _extract_polylines(result.region)
        assert any(p[0] != p[-1] for p in got)
        assert len(got) == len(want)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
