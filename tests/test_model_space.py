import math

import numpy as np
import pytest

from carleson_kit.blaschke import BlaschkeProduct
from carleson_kit.construction import lemma_10_1_check
from carleson_kit.errors import DomainError
from carleson_kit.hardy import BoundaryGrid
from carleson_kit.model_space import (
    MatrixFunction,
    ModelTriple,
    det_theta_many,
    distance_analytic,
    distance_coanalytic,
    distance_kernel_datum,
    kernel_grid,
    project_model,
    residual_norm_coanalytic,
    support_cover_count,
    triple_from_theta,
    two_component_project,
)
from carleson_kit.riesz import SubspaceSystem

TAU = 2 * math.pi


def random_zeros(rng, n, rmax=0.8):
    return np.sqrt(rng.uniform(0, 1, n)) * rmax * np.exp(1j * rng.uniform(0, TAU, n))


class TestMatrixFunction:
    def test_polynomial_evaluation(self):
        # Theta(z) = A0 + A1 z
        a0 = np.array([[1.0, 0.0], [0.0, 0.0]])
        a1 = np.array([[0.0, 0.0], [0.0, 1.0]])
        th = MatrixFunction.from_polynomial([a0, a1])
        assert th.shape == (2, 2)
        z = 0.3 + 0.1j
        assert np.allclose(th(z), a0 + a1 * z)

    def test_rational_evaluation(self):
        # scalar Blaschke factor as numerator/denominator pair
        lam = 0.5
        th = MatrixFunction.from_scalar_blaschke([lam])
        b = BlaschkeProduct([lam])
        rng = np.random.default_rng(2)
        for z in random_zeros(rng, 10):
            assert complex(th(z)[0, 0]) == pytest.approx(b(complex(z)))

    def test_boundary_matches_pointwise_call(self):
        th = MatrixFunction.from_scalar_blaschke([0.3, -0.4j])
        vals = th.boundary(64)
        pts = np.exp(1j * TAU * np.arange(64) / 64)
        for k in (0, 10, 33):
            assert np.allclose(vals[k], th(pts[k]))

    def test_contractive_flags(self):
        assert MatrixFunction.from_scalar_blaschke([0.5, 0.1j]).is_contractive()
        assert not MatrixFunction.constant(2.0 * np.eye(2)).is_contractive()

    def test_denominator_must_be_zero_free(self):
        # denominator 1 - 2z vanishes at z = 1/2 inside the disk
        with pytest.raises(DomainError):
            MatrixFunction([np.eye(1)], denom=(1.0, -2.0))

    def test_diagonal_determinant_is_entry_product(self):
        rng = np.random.default_rng(5)
        za, zb = random_zeros(rng, 2), random_zeros(rng, 3)
        th = MatrixFunction.diagonal(
            [MatrixFunction.from_scalar_blaschke(za), MatrixFunction.from_scalar_blaschke(zb)]
        )
        assert th.shape == (2, 2)
        ba, bb = BlaschkeProduct(za), BlaschkeProduct(zb)
        probes = random_zeros(rng, 12)
        dets = det_theta_many(th, probes)
        for z, d in zip(probes, dets):
            assert d == pytest.approx(ba(complex(z)) * bb(complex(z)), abs=1e-10)
        assert det_theta_many(th, 0.1) == pytest.approx(ba(0.1) * bb(0.1), abs=1e-12)

    def test_det_zeros_recovered(self):
        zeros = [0.3, -0.5j, 0.2 + 0.4j]
        th = MatrixFunction.from_scalar_blaschke(zeros)
        found = sorted(th.det_zeros_in_disk(), key=lambda z: (z.real, z.imag))
        want = sorted(zeros, key=lambda z: (complex(z).real, complex(z).imag))
        assert len(found) == len(want)
        for f, w in zip(found, want):
            assert f == pytest.approx(w, abs=1e-8)


def test_projection_onto_model_space_reproduces_kernel_norm():
    # ||P_theta k_lam||^2 = 1 - |theta(lam)|^2 for scalar inner theta
    rng = np.random.default_rng(14)
    size = 2048
    for _ in range(10):
        zeros = random_zeros(rng, int(rng.integers(1, 6)))
        th = MatrixFunction.from_scalar_blaschke(zeros)
        b = BlaschkeProduct(zeros)
        lam = complex(random_zeros(rng, 1, rmax=0.7)[0])
        proj = project_model(lambda pts: b(pts), kernel_grid(lam, size))
        assert proj.norm() ** 2 == pytest.approx(1 - abs(b(lam)) ** 2, abs=1e-10)
        # the matrix route agrees
        proj2 = project_model(lambda pts: th(pts)[..., 0, 0] if np.ndim(pts) else th(pts)[0, 0], kernel_grid(lam, size))
        assert proj2.norm() == pytest.approx(proj.norm(), abs=1e-12)


def test_project_model_is_idempotent_and_analytic():
    rng = np.random.default_rng(15)
    b = BlaschkeProduct([0.4, -0.3j])
    f = kernel_grid(0.2 + 0.1j, 512)
    p1 = project_model(b, f)
    assert p1.is_analytic(1e-10)
    p2 = project_model(b, p1)
    assert np.allclose(p2.values, p1.values, atol=1e-10)
    # projection never increases the norm
    assert p1.norm() <= f.norm() + 1e-12


def test_triple_from_theta_zero_projection():
    th = MatrixFunction.constant(np.array([[0.5]]))
    triple = triple_from_theta(th, size=256)
    assert triple.dim_range == 1
    assert triple.dim_star == 1
    # Delta carries the defect (1 - 0.25)^(1/2)
    assert np.allclose(np.abs(triple.delta.values), math.sqrt(0.75), atol=1e-12)


def test_triple_identity_projection_requires_inner():
    inner = MatrixFunction.from_scalar_blaschke([0.3])
    triple = triple_from_theta(inner, proj="identity", size=256)
    assert np.allclose(triple.proj.values, np.eye(1), atol=1e-12)
    with pytest.raises(DomainError):
        triple_from_theta(MatrixFunction.constant(np.array([[0.5]])), proj="identity")


def test_triple_rejects_inconsistent_data():
    th = MatrixFunction.constant(np.array([[0.5]]))
    size = 64
    delta = BoundaryGrid(np.zeros((size, 1, 1), dtype=complex))  # defect missing
    proj = BoundaryGrid(np.zeros((size, 1, 1), dtype=complex))
    with pytest.raises(DomainError):
        ModelTriple(th, delta, proj)


def test_two_component_projection_is_idempotent():
    rng = np.random.default_rng(30)
    th = MatrixFunction.from_scalar_blaschke([0.5, -0.2j])
    triple = triple_from_theta(th, size=512)
    f = BoundaryGrid(kernel_grid(0.3, 512).values[:, None])
    g = BoundaryGrid((rng.standard_normal(512) + 1j * rng.standard_normal(512))[:, None])
    top, bottom = two_component_project(triple, f, g)
    top2, bottom2 = two_component_project(triple, BoundaryGrid(top.values), BoundaryGrid(bottom.values))
    assert np.allclose(top2.values, top.values, atol=1e-8)
    assert np.allclose(bottom2.values, bottom.values, atol=1e-8)


def test_distance_formulas_for_inner_theta():
    # for inner theta the distance of (k_lam e, 0) to the subspace is |theta(lam)|
    zeros = [0.5, 0.1 + 0.2j]
    th = MatrixFunction.from_scalar_blaschke(zeros)
    b = BlaschkeProduct(zeros)
    triple = triple_from_theta(th, size=1024)
    lam = 0.35 - 0.1j
    d = distance_kernel_datum(triple, lam, np.array([1.0 + 0j]))
    assert d == pytest.approx(abs(b(lam)), abs=1e-12)
    # the grid route agrees with the pointwise formula
    f = BoundaryGrid(kernel_grid(lam, 1024).values[:, None])
    assert distance_analytic(triple, f) == pytest.approx(d, abs=1e-8)


def test_coanalytic_distances_zero_projection():
    # with P = 0 and theta inner, Delta = 0: every (0, g) is orthogonal to K
    th = MatrixFunction.from_scalar_blaschke([0.4])
    triple = triple_from_theta(th, size=256)
    g = BoundaryGrid(np.exp(1j * TAU * np.arange(256) / 256)[:, None])
    # the numeric defect root of an inner theta is sqrt(roundoff) ~ 1e-8
    assert distance_coanalytic(triple, g) == pytest.approx(0.0, abs=1e-7)
    assert residual_norm_coanalytic(triple, g) == pytest.approx(g.norm(), abs=1e-7)


def test_covering_count_scalar_family():
    rng = np.random.default_rng(44)
    zeros = random_zeros(rng, 4, rmax=0.6)
    fam = [MatrixFunction.from_scalar_blaschke([z]) for z in zeros]
    grid = random_zeros(rng, 200, rmax=0.95)
    out = lemma_10_1_check(fam, [BlaschkeProduct([z]) for z in zeros], eps=0.3,
                           log_eps_prime=-5.0, z_grid=grid, n_power=1)
    # direct recount
    best = 0
    for z in grid:
        c = sum(abs(BlaschkeProduct([f.det_zeros_in_disk()[0]])(complex(z))) < 0.3 for f in fam)
        best = max(best, c)
    assert out["covering_max"] == best


def test_support_cover_count_inner_vs_defective():
    inner = triple_from_theta(MatrixFunction.from_scalar_blaschke([0.3]), size=128)
    lossy = triple_from_theta(MatrixFunction.constant(np.array([[0.5]])), size=128)
    # tol above sqrt(roundoff) so the inner member's numeric defect is ignored
    sigma, tau = support_cover_count([inner, lossy], tol=1e-6)
    assert sigma == 1  # only the defective member carries Delta mass
    assert tau >= 1  # the inner member has P = 0 and Delta = 0
    assert support_cover_count([]) == (0, 0)


def test_model_subspace_frame_is_orthonormal():
    # the kernels at theta's zeros span K_theta; one kernel group gives its frame
    rng = np.random.default_rng(9)
    pts = random_zeros(rng, 5, rmax=0.7)
    q = SubspaceSystem.from_kernel_groups([pts]).frames[0]
    assert q.shape == (5, 5)
    assert np.allclose(q.conj().T @ q, np.eye(q.shape[1]), atol=1e-10)
    with pytest.raises(DomainError):
        SubspaceSystem.from_kernel_groups([[0.5, 0.5]])
