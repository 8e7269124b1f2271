import cmath
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from carleson_kit import blaschke as blaschke_mod
from carleson_kit import contour as contour_mod
from carleson_kit import disk
from carleson_kit import hardy as hardy_mod
from carleson_kit.blaschke import BlaschkeProduct, interpolation_constants, place_net_on_curve
from carleson_kit.contour import (
    BoundedFunction,
    ContourConstants,
    ContourResult,
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
    pseudo_hyperbolic_disk,
    turns,
)
from carleson_kit.errors import ContourBoundError, DomainError
from carleson_kit.hardy import poisson_sum
from carleson_kit.model_space import MatrixFunction
from carleson_kit.riesz import SubspaceSystem
from oracles import (
    block_log_abs_reference,
    ci_zeros,
    extract_polylines_reference,
    log_abs_oracle,
    region_samples_reference,
    rho_log_abs_reference,
    verify_region_reference,
)

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
            total = nu.masses.sum()
            assert nu.potential(0.0) == pytest.approx(total, rel=1e-12)
            assert np.all(nu.potential([0.5, 0.9j]) > 0.0)

    @pytest.mark.parametrize("kwargs", [
        {"interior_atoms": [(0.5, math.nan)]},
        {"boundary_atoms": [(math.nan, 0.1)]},
        {"boundary_atoms": [(1.0, math.inf)]},
        {"density": [math.nan] * 8},
        {"density": [math.inf] * 8},
    ])
    def test_representing_measure_refuses_non_finite_input(self, kwargs):
        # each was accepted: the bad-interval scan then found no witness, and
        # the potential at the origin was nan or inf
        with pytest.raises(DomainError, match="finite"):
            RepresentingMeasure(**kwargs)

    def test_one_minus_sq_of_the_points_is_taken_once(self, monkeypatch):
        # the singular atoms and the outer part's Poisson band share it, with
        # the bits poisson_sum gives on its own; half the points lie in the band
        rng = np.random.default_rng(9)
        outer = -0.1 * (1.0 + np.cos(TAU * np.arange(256) / 256))
        phi = BoundedFunction(zeros=[0.3], singular_atoms=[(1.0, 0.1), (4.0, 0.2)],
                              outer_log=outer)
        band = (1.0 - rng.uniform(0.0, 0.02, 500)) * np.exp(TAU * 1j * rng.uniform(size=500))
        zs = np.concatenate([random_blaschke_zeros(rng, 500), band])
        want_log, want_pot = phi.log_abs(zs), phi.representing_measure().potential(zs)
        d = disk.one_minus_sq(zs)
        assert np.array_equal(poisson_sum(outer, zs, d), poisson_sum(outer, zs))
        sizes = []

        def counted(z):
            sizes.append(np.size(z))
            return disk.one_minus_sq(z)

        monkeypatch.setattr(contour_mod, "one_minus_sq", counted)
        monkeypatch.setattr(hardy_mod, "one_minus_sq", counted)
        assert np.array_equal(phi.log_abs(zs), want_log)
        assert sizes == [zs.size]
        nu = phi.representing_measure()
        sizes.clear()
        assert np.array_equal(nu.potential(zs), want_pot)
        assert sizes == [zs.size]  # the measure keeps the zero's d from phi

    def test_blaschke_only_log_abs_on_the_circle(self):
        # without an outer part the circle stays allowed: |B| = 1 there
        phi = BoundedFunction(zeros=[0.3, -0.5j])
        vals = phi.log_abs(np.exp(1j * np.array([0.0, 1.0, 4.0])))
        assert np.allclose(vals, 0.0, atol=1e-15)

    def test_circle_points_get_one_open_disk_verdict(self):
        # computed circle points with hypot(z) == 1, of which numpy's SIMD
        # np.abs puts about a quarter inside: every open-disk test takes them
        # as on the circle, none as interior, and so does every constructor
        # that checks a point set
        z = np.exp(1j * np.random.default_rng(4).uniform(0.0, TAU, 2000))
        z = z[np.hypot(z.real, z.imag) == 1.0][:200]
        assert z.size == 200
        blaschke = BoundedFunction(zeros=[0.3, -0.5j])
        singular = BoundedFunction(singular_atoms=[(1.0, 0.1)])
        for p in z:
            for call in (lambda: disk._interior(p), lambda: pseudo_hyperbolic(p, 0.0),
                         lambda: kernel(p, 0.5), lambda: poisson_sum(np.ones(8), p),
                         lambda: singular.log_abs([0.5, p]),
                         lambda: singular.representing_measure().potential([0.5, p]),
                         lambda: BoundedFunction(zeros=[0.5, p]),
                         lambda: RepresentingMeasure(interior_atoms=[(0.5, 0.1), (p, 0.1)]),
                         lambda: BlaschkeProduct([0.5, p]),
                         lambda: interpolation_constants([0.5, p]),
                         lambda: place_net_on_curve([0.5, p], 0.05),
                         lambda: SubspaceSystem.from_kernel_groups([[0.5], [p]]),
                         lambda: MatrixFunction.from_scalar_blaschke([0.5, p])):
                with pytest.raises(DomainError):
                    call()
        assert (blaschke.log_abs(z) == 0.0).all()

    def test_blaschke_only_log_abs_rejects_points_off_the_closed_disk(self):
        # log|B| gave +0.78 at 1.5 and nan at nan, for a B bounded by one
        phi = BoundedFunction(zeros=[0.3])
        for z in ([0.5, 1.5], [0.5, complex("nan")], -1.1j):
            with pytest.raises(DomainError):
                phi.log_abs(z)


def assert_within_the_oracle_bound(zeros, zs, got):
    """|got - log|B|| <= C n u scale at every point, against the fsum oracle.

    Each side's log rho is off by up to about 2 ulp of the log plus rho's
    relative rounding, (4 + sqrt(5) / |1 - conj(a) z|) u, and the sum adds
    at most (n - 1) u sum |log rho| in any order; C = 16 covers both
    sides.  The worst seen is 6.5, at one zero.
    """
    n = len(zeros)
    for value, z in zip(got, zs):
        want, scale = log_abs_oracle(zeros, z)
        if math.isinf(want):
            assert value == want
        else:
            assert abs(value - want) <= 16 * n * 2.0 ** -53 * scale


class TestLogAbsBlocks:
    @pytest.mark.parametrize("n_zeros, n_points", [
        (1, 40_000), (7, 10_001), (50, 10_001), (2**15 + 1, 5),
    ])
    def test_blocks_match_the_block_order_bit_for_bit(self, n_zeros, n_points):
        # blocks of 16 zeros whose last one is short, except for one zero;
        # a group is one block at 10,001 points and all 2,049 blocks at 5
        rng = np.random.default_rng(n_zeros)
        zeros = random_blaschke_zeros(rng, n_zeros, rmax=0.95)
        zs = random_blaschke_zeros(rng, n_points, rmax=0.999)
        # a point at a zero (-inf, by the zero-by-zero sum) and points on
        # the circle (0); two of five points stay ordinary
        zs[:3] = [zeros[0], 1.0, -1j]
        assert n_zeros % blaschke_mod._PRODUCT_ZEROS or n_zeros == 1
        got = BoundedFunction(zeros=zeros).log_abs(zs)
        assert got[0] == -math.inf
        assert (got[1:3] == 0.0).all()
        assert np.array_equal(got, block_log_abs_reference(zeros, zs))

    @pytest.mark.parametrize("n_zeros, n_points", [
        (1, 3001), (2, 3001), (7, 3001), (50, 1001), (2**15 + 1, 5), (1000, 1),
    ])
    def test_sum_matches_the_fsum_oracle(self, n_zeros, n_points):
        rng = np.random.default_rng(n_zeros)
        zeros = random_blaschke_zeros(rng, n_zeros, rmax=0.95)
        # a point at a zero (-inf) and points on the circle (0) come first
        zs = np.concatenate([[zeros[0], 1.0, -1j], random_blaschke_zeros(rng, n_points, rmax=0.999)])
        got = BoundedFunction(zeros=tuple(zeros)).log_abs(zs)
        assert got[0] == -math.inf
        assert (got[1:3] == 0.0).all()
        assert_within_the_oracle_bound(zeros, zs, got)

    def test_repeated_zero_next_to_the_point_stays_finite(self):
        # a product of the 50 distances (1.5e-9 each) underflows to 0
        a = 0.5 + 0.3j
        zs = np.array([a + 1e-9])
        got = BoundedFunction(zeros=(a,) * 50).log_abs(zs)
        assert np.isfinite(got).all()
        assert_within_the_oracle_bound([a] * 50, zs, got)
        assert got[0] == pytest.approx(-1015.3875210254553, rel=1e-14)

    def test_tiny_distance_does_not_underflow(self):
        # rho = 1e-190: its square, 1e-380, underflows to 0 and gives -inf
        got = BoundedFunction(zeros=(1e-190,)).log_abs(np.array([2e-190 + 0j]))
        assert got[0] == math.log(1e-190) == -437.4911676688687

    def test_tiny_block_products_take_the_zero_by_zero_sum(self):
        # 20 copies of one zero: the first block's num at a point 1e-20 from
        # it is (1e-20)^16, subnormal, so that point is summed zero by zero,
        # bit for bit; the ordinary points keep their block sums
        rng = np.random.default_rng(11)
        a = 3e-8 - 4e-8j
        zeros = np.array([a] * 20)
        zs = np.concatenate([[a + 1e-20, a + 1e-20j], random_blaschke_zeros(rng, 200, rmax=0.99)])
        assert (zs[:2] != a).all()
        got = BoundedFunction(zeros=zeros).log_abs(zs)
        assert np.isfinite(got).all()
        assert np.array_equal(got[:2], rho_log_abs_reference(zeros, zs[:2]))
        assert np.array_equal(got, block_log_abs_reference(zeros, zs))
        assert_within_the_oracle_bound(zeros, zs, got)

    def test_point_at_a_zero_inside_a_block_is_minus_infinity_without_warnings(self):
        rng = np.random.default_rng(12)
        zeros = random_blaschke_zeros(rng, 40, rmax=0.95)
        zs = np.concatenate([zeros[[5, 17, 39]], random_blaschke_zeros(rng, 100, rmax=0.99)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = BoundedFunction(zeros=zeros).log_abs(zs)
        assert (got[:3] == -math.inf).all()
        assert np.isfinite(got[3:]).all()
        assert_within_the_oracle_bound(zeros, zs[3:], got[3:])

    def test_zeros_next_to_the_circle_stay_within_the_oracle_bound(self):
        # 20 zeros at 1 - 2^-50, points on the same circle and between the
        # zeros: 1 - conj(a) z is about 2^-50 where a point sits by a zero
        r = 1.0 - 2.0 ** -50
        angles = np.linspace(0.0, 0.5, 20)
        zeros = r * np.exp(1j * angles)
        zs = np.concatenate([r * np.exp(1j * (angles + 1e-13)), r * np.exp(1j * (angles + 0.01)),
                             (1.0 - 2.0 ** -40) * np.exp(1j * angles), [0.0, 0.5j]])
        got = BoundedFunction(zeros=zeros).log_abs(zs)
        assert not np.isnan(got).any()
        assert_within_the_oracle_bound(zeros, zs, got)

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
        # the open-disk mask is taken once, and the closed-disk refusal reads
        # hypot of the points off it only; the zeros, checked by the
        # constructor, are not checked again
        rng = np.random.default_rng(8)
        phi = BoundedFunction(zeros=random_blaschke_zeros(rng, 50))
        zs = random_blaschke_zeros(rng, 1000)
        want = phi.log_abs(zs)
        tests, hypots = [], []
        in_open_disk = disk.in_open_disk

        def counted(z):
            tests.append(np.size(z))
            return in_open_disk(z)

        def hypot(z):
            hypots.append(np.size(z))
            return np.hypot(z.real, z.imag)

        monkeypatch.setattr(disk, "in_open_disk", counted)
        monkeypatch.setattr(blaschke_mod, "in_open_disk", counted)
        monkeypatch.setattr(disk, "_modulus", hypot)  # in_closed_disk's hypot
        # chunks of 32 zeros: one test of the 1000 points, none of the
        # zeros and none per chunk; every point lies well inside
        assert np.array_equal(phi.log_abs(zs), want)
        assert tests == [zs.size]
        assert sum(hypots) == 0


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

    @pytest.mark.parametrize("n_zeros, n_points", [(50, 10_001), (2**15 + 1, 5)])
    def test_min_blaschke_is_the_one_shot_minimum_bit_for_bit(self, n_zeros, n_points):
        # taken in chunks of zeros; a minimum does not depend on the order
        rng = np.random.default_rng(n_zeros)
        zeros = random_blaschke_zeros(rng, n_zeros, rmax=0.95)
        zs = random_blaschke_zeros(rng, n_points, rmax=0.95)
        out = check_potential_bounds(BoundedFunction(zeros=zeros), 0.1, zs)
        want = np.min(pseudo_hyperbolic(zeros[None, :], zs[:, None]), axis=1)
        assert np.array_equal(out["min_blaschke"], want)

    def test_min_blaschke_is_one_without_zeros(self):
        # the empty product has |B| = 1, and no zero lies nearer than that
        phi = BoundedFunction(singular_atoms=[(1.0, 0.1)])
        out = check_potential_bounds(phi, 0.1, [0.3, -0.5j])
        assert out["min_blaschke"].tolist() == [1.0, 1.0]

    def test_eps_domain_guard(self):
        phi = BoundedFunction(zeros=[0.1])
        with pytest.raises(DomainError):
            check_potential_bounds(phi, 0.7, [0.5])

    def test_two_dimensional_points_give_the_flat_result_reshaped(self):
        phi = BoundedFunction(zeros=[0.1, -0.4 + 0.2j, 0.6j])
        pts = np.array([[0.3, -0.5j], [0.2 + 0.7j, -0.8]])
        grid = check_potential_bounds(phi, 0.1, pts)
        flat = check_potential_bounds(phi, 0.1, pts.reshape(-1))
        for key in ("min_blaschke", "lower_margin", "upper_margin"):
            assert grid[key].shape == (2, 2)
            assert np.array_equal(grid[key], flat[key].reshape(2, 2))
        for key in ("hypothesis_ok", "worst_lower", "worst_upper"):
            assert grid[key] == flat[key]


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
        assert result.region.centers.size == result.region.radii.size == 0
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

    def test_zeros_with_round_equal_circles_give_one_circle(self):
        # two distinct zeros one ulp apart: their gamma-circles agree to 14
        # digits, so the region keeps one circle, draws one polyline and
        # takes the near samples around one disk, while membership is still
        # the union of both disks
        consts = wide_constants()
        a = 0.5 + 0.25j
        b = complex(np.nextafter(0.5, 1.0), 0.25)
        phi = BoundedFunction(zeros=[b, a])
        result = bourgain_contour(phi, consts.epsilon, constants=consts)
        region = result.region
        assert region.centers.tolist() == [pseudo_hyperbolic_disk(a, consts.gamma)[0]]
        assert region.radii.tolist() == [pseudo_hyperbolic_disk(a, consts.gamma)[1]]
        assert len(result.polylines) == 1
        zs = np.random.default_rng(3).uniform(-0.7, 0.7, (4000, 2)) @ [1.0, 1j]
        both = np.zeros(zs.shape, dtype=bool)
        for z in (a, b):
            c, r = pseudo_hyperbolic_disk(z, consts.gamma)
            both |= np.abs(zs - c) < r
        assert np.array_equal(region.contains_many(zs), both)
        assert both.any() and not both.all()
        # 2000 bulk samples and all 2001 near samples around the one disk,
        # which lies well inside the unit disk
        report = verify_region(phi, result, consts.epsilon, samples=4001,
                               rng=np.random.default_rng(4))
        assert report["samples"] == 4001

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
            region=Region([pseudo_hyperbolic_disk(0.0, 2 * consts.gamma)]),
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


def clustered_disks(seed):
    """(center, radius) of seeded gamma-disks around a cluster of zeros near
    one boundary point: overlapping disks of several sizes, whose circles
    cut one another."""
    rng = np.random.default_rng(seed)
    ang = 1.0 + rng.uniform(-0.2, 0.2, 12)
    rad = 1.0 - 10.0 ** rng.uniform(-2.5, -0.5, 12)
    gamma = rng.uniform(0.05, 0.3)
    return [pseudo_hyperbolic_disk(z, gamma) for z in rad * np.exp(1j * ang)]


def own_circle(piece, disks):
    """The index of the (center, radius) pair whose circle the piece runs along."""
    return min(range(len(disks)), key=lambda i: np.max(
        np.abs(np.abs(piece - disks[i][0]) - disks[i][1])))


class TestBoundaryExtraction:
    """The boundary pieces against closed-form crossings and arc lengths."""

    ts = TAU * (np.arange(256) + 0.5) / 256

    def closed_circle(self, c, r):
        verts = c + r * np.exp(1j * np.append(self.ts, self.ts[0]))
        verts[-1] = verts[0]
        return verts

    def check_pieces(self, disks):
        """Every open piece ends within 1e-12 r of a crossing of its circle
        with another, every crossing outside the other disks is the end of
        a piece on each of its two circles, and no vertex lies inside another
        disk; returns the pieces."""
        pieces = _extract_polylines(Region(disks))
        ends = []
        for p in pieces:
            k = own_circle(p, disks)
            for j, (cj, rj) in enumerate(disks):
                if j != k:
                    assert np.all(np.abs(p - cj) > rj - 1e-15)
            if p[0] != p[-1]:
                ends += [(k, p[0]), (k, p[-1])]
        crossings = []
        for k, (ck, rk) in enumerate(disks):
            for j, (cj, rj) in enumerate(disks):
                if j != k and abs(rk - rj) < abs(cj - ck) < rk + rj:
                    crossings += [(k, x) for x in circle_crossings(ck, rk, cj, rj)]
        for k, end in ends:
            assert min(abs(end - x) for i, x in crossings if i == k) < 1e-12 * disks[k][1]
        for k, x in crossings:
            if all(abs(x - c) > r + 1e-9 for c, r in disks if abs(abs(x - c) - r) > 1e-9):
                assert min(abs(end - x) for i, end in ends if i == k) < 1e-12 * disks[k][1]
        return pieces

    def test_two_overlapping_disks(self):
        phi = BoundedFunction(zeros=[0.0, 0.1 + 0.05j])
        result = bourgain_contour(phi, 0.3, constants=wide_constants())
        disks = list(zip(result.region.centers.tolist(), result.region.radii.tolist()))
        pieces = self.check_pieces(disks)
        assert all(np.array_equal(a, b) for a, b in zip(result.polylines, pieces))
        assert len(pieces) == 2 and all(p[0] != p[-1] for p in pieces)

    @pytest.mark.parametrize("depth", [1e-3, 1e-5, 1e-7, 1e-9])
    def test_caps_match_the_closed_form_arc_length(self, depth):
        # the disk j of radius 0.2 reaches `depth` into the disk of radius 0.3
        # around 0, along the angle 0.7
        r, rj, angle = 0.3, 0.2, 0.7
        cj = (r + rj - depth) * cmath.exp(1j * angle)
        d = abs(cj)
        pieces = _extract_polylines(Region([(0.0, r), (cj, rj)]))
        assert len(pieces) == 2
        piece = next(p for p in pieces if abs(abs(p[1]) - r) < 1e-12)
        # the half-angle at 0 of the covered arc (of length 2 r half), by the
        # half-angle formula of the triangle (0, cj, crossing), whose factors
        # carry no cancellation
        half = 2.0 * math.atan(math.sqrt((d + rj - r) * (r + rj - d)
                                         / ((r + d + rj) * (r + d - rj))))
        got = (cmath.phase(piece[0]) - angle, angle - cmath.phase(piece[-1]))
        # arccos at an argument within a few ulps of 1 is off by about
        # 1e-16 / half: 2.9e-12 here at depth 1e-9
        for g in got:
            assert abs(g - half) * half < 1e-15
        # the drawn arc is the rest of the circle, through every sample off the cap
        assert len(piece) == 2 + np.sum(np.abs((self.ts - angle + math.pi) % TAU - math.pi) > half)

    def test_covered_arcs_across_angle_zero(self):
        # on the circle of radius 0.3 around 0, disk A covers the angles
        # within 0.505 of 0, across angle 0, disk B (inside A) those within
        # 0.1 of 0.2, disk C those within 0.336 of 2 and disk D (inside C)
        # those within 0.1 of 2.1; B's arc comes first by its start, the gap
        # after it begins inside A, and D's arc ends before C's
        disks = [(0.0, 0.3), (0.3, 0.15), (0.3 * cmath.exp(0.2j), 0.03),
                 (0.3 * cmath.exp(2j), 0.1), (0.3 * cmath.exp(2.1j), 0.03)]
        pieces = self.check_pieces(disks)
        assert sorted(own_circle(p, disks) for p in pieces) == [0, 0, 1, 3]

    def test_external_and_internal_tangency(self):
        # externally tangent: neither open disk covers any of the other circle
        pieces = _extract_polylines(Region([(-0.25, 0.25), (0.25, 0.25)]))
        assert len(pieces) == 2
        for p, c in zip(pieces, (-0.25, 0.25)):
            assert np.array_equal(p, self.closed_circle(c, 0.25))
        # internally tangent: the small circle is covered up to the tangent point
        pieces = _extract_polylines(Region([(0.0, 0.5), (0.25, 0.25)]))
        assert len(pieces) == 1
        assert np.array_equal(pieces[0], self.closed_circle(0.0, 0.5))

    def test_circle_inside_another_disk_draws_nothing(self):
        pieces = _extract_polylines(Region([(0.1 + 0.1j, 0.1), (0.0, 0.5)]))
        assert len(pieces) == 1
        assert np.array_equal(pieces[0], self.closed_circle(0.0, 0.5))

    def test_coincident_and_nearly_coincident_circles(self):
        r = 0.3
        # the same circle twice, or rounding to the same key: drawn once
        for shift in (0.0, 1e-17):
            pieces = _extract_polylines(Region([(0.2, r), (0.2 + shift, r)]))
            assert len(pieces) == 1
            assert np.array_equal(pieces[0], self.closed_circle(0.2, r))
        # one center, radii 1e-13 apart: the larger circle covers the smaller
        pieces = _extract_polylines(Region([(0.2, r), (0.2, r + 1e-13)]))
        assert len(pieces) == 1
        assert np.array_equal(pieces[0], self.closed_circle(0.2, r + 1e-13))
        # one radius, centers 1e-13 apart: each circle keeps the half away
        # from the other center, between the crossings on the bisector
        disks = [(0.2, r), (0.2 + 1e-13j, r)]
        pieces = self.check_pieces(disks)
        assert len(pieces) == 2
        for p, away in zip(pieces, (-1.0, 1.0)):
            assert abs(p[0].real - 0.2) == pytest.approx(r, rel=1e-12)
            assert abs(p[-1].real - 0.2) == pytest.approx(r, rel=1e-12)
            assert away * p[len(p) // 2].imag == pytest.approx(r, rel=1e-3)

    def test_disks_a_gap_apart_are_closed_circles(self):
        # two disks of radius 0.3, 1e-5 apart on the real axis: neither
        # meets the other, so both are drawn whole, the samples next to the
        # gap included
        r, gap = 0.3, 1e-5
        pieces = _extract_polylines(Region([(-r, r), (r + gap, r)]))
        assert len(pieces) == 2
        for p, c in zip(pieces, (-r, r + gap)):
            assert np.array_equal(p, self.closed_circle(c, r))

    @pytest.mark.parametrize("seed", range(4))
    def test_fuzzed_clusters_end_at_the_crossings(self, seed):
        pieces = self.check_pieces(clustered_disks(seed))
        assert any(p[0] != p[-1] for p in pieces)

    @pytest.mark.parametrize("seed", range(4))
    def test_pieces_map_onto_themselves_under_the_dyadic_symmetries(self, seed):
        def pieces(disks):
            """Each piece as its circle's radius and the points (center,
            first end, last end), or (center,) when it is closed."""
            out = []
            for p in _extract_polylines(Region(disks)):
                k = own_circle(p, disks)
                ends = () if p[0] == p[-1] else (p[0], p[-1])
                out.append((disks[k][1], np.array((disks[k][0],) + ends)))
            return out

        disks = clustered_disks(seed)
        want = pieces(disks)
        # z -> -z keeps the orientation of each piece, z -> conj(z) reverses it
        for mapped, order in ((np.negative, [0, 1, 2]), (np.conj, [0, 2, 1])):
            # the pseudo-hyperbolic disk of the mapped zero is the mapped disk
            got = pieces([(mapped(c), r) for c, r in disks])
            assert len(got) == len(want)
            for r, points in want:
                image = mapped(points)[order[:points.size]]
                assert any(g_r == r and g.size == image.size
                           and np.max(np.abs(g - image)) < 1e-12 for g_r, g in got)


def _contour_case(name):
    """(phi, contour result, eps) of one seeded region of the sampler and
    drawing oracle tests."""
    if name == "no disk":
        phi = BoundedFunction(outer_log=np.full(256, math.log(0.5)))
        return phi, bourgain_contour(phi, 0.1), 0.1
    if name == "covered":
        # the first disk lies inside the second; a far closed circle between
        # two overlapping ones puts a row of the block between the open arcs
        region = Region([(0.1 + 0.1j, 0.1), (0.0, 0.3), (0.6, 0.2), (-0.6j, 0.05),
                         (0.75, 0.1)])
        consts = wide_constants()
        phi = BoundedFunction(zeros=[0.0])
        return phi, ContourResult(region, _extract_polylines(region), consts), consts.epsilon
    if name == "2000 disks":
        zeros, consts = ci_zeros(2000), ContourConstants.for_epsilon(0.1)
    else:
        zeros, consts = {
            "one disk": ([0.3 + 0.2j], wide_constants()),
            "round-equal circles": ([complex(np.nextafter(0.5, 1.0), 0.25), 0.5 + 0.25j],
                                    wide_constants()),
            # c3 = 1e-6 makes gamma = eps = 0.3: each circle keeps one open arc
            "overlapping at gamma = eps": ([0.0, 0.1 + 0.05j],
                                           ContourConstants.for_epsilon(0.3, c3=1e-6)),
        }[name]
    phi = BoundedFunction(zeros=zeros)
    return phi, bourgain_contour(phi, consts.epsilon, constants=consts), consts.epsilon


class TestBlockedSamplerAndDrawing:
    """The near samples come from one draw and the closed circles from one
    block: the samples, their order, every polyline and the whole report
    equal the disk-by-disk references of ``oracles``."""

    CASES = ["no disk", "one disk", "round-equal circles", "overlapping at gamma = eps",
             "covered", "2000 disks"]

    @pytest.mark.parametrize("name", CASES)
    def test_polylines_are_the_per_circle_drawing(self, name):
        _, result, _ = _contour_case(name)
        want = extract_polylines_reference(result.region)
        assert len(result.polylines) == len(want)
        assert all(np.array_equal(a, b) for a, b in zip(result.polylines, want))

    @pytest.mark.parametrize("name", CASES)
    def test_samples_and_report_are_the_per_disk_draw(self, name, monkeypatch):
        phi, result, eps = _contour_case(name)
        seen = []
        log_abs = BoundedFunction.log_abs

        def recorded(self, z):
            seen.append(np.array(z))
            return log_abs(self, z)
        monkeypatch.setattr(BoundedFunction, "log_abs", recorded)
        for samples, seed in ((10000, 0), (4001, 7)):
            seen.clear()
            got = verify_region(phi, result, eps, samples=samples,
                                rng=np.random.default_rng(seed))
            want_zs = region_samples_reference(result.region, samples,
                                               np.random.default_rng(seed))
            assert len(seen) == 1 and np.array_equal(seen[0], want_zs)
            want = verify_region_reference(phi, result, eps, samples,
                                           np.random.default_rng(seed))
            assert got == want

    def test_the_cases_reach_every_path(self):
        kinds = {}
        for name in self.CASES:
            _, result, _ = _contour_case(name)
            region = result.region
            closed = sum(p[0] == p[-1] for p in result.polylines)
            kinds[name] = (region.radii.size, closed, len(result.polylines) - closed)
        assert kinds["no disk"] == (0, 0, 0)
        assert kinds["one disk"] == (1, 1, 0)
        assert kinds["round-equal circles"] == (1, 1, 0)
        assert kinds["overlapping at gamma = eps"] == (2, 0, 2)
        # one circle covered, two closed, and one open arc on each of two
        assert kinds["covered"] == (5, 2, 2)
        assert kinds["2000 disks"] == (2000, 2000, 0)

    @pytest.mark.parametrize("seed", range(4))
    def test_fuzzed_clusters_are_the_per_circle_drawing(self, seed):
        region = Region(clustered_disks(seed) + [(-0.5, 0.05), (-0.5 + 0.01j, 0.01)])
        got, want = _extract_polylines(region), extract_polylines_reference(region)
        assert len(got) == len(want)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_distance_tests_stay_in_row_blocks(self):
        # 4,000 circles: the whole (circle, disk) distance matrix would take
        # 256 MB as complex differences; the polylines take 16.4 MB
        region = Region(zip(*(a.tolist() for a in pseudo_hyperbolic_disk(
            np.array(ci_zeros(4000)), ContourConstants.for_epsilon(0.1).gamma))))
        tracemalloc.start()
        try:
            polylines = _extract_polylines(region)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        drawn = sum(p.nbytes for p in polylines)
        assert len(polylines) == 4000
        assert peak < drawn + 4e6
