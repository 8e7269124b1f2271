import math

import numpy as np
import pytest

from carleson_kit.blaschke import BlaschkeProduct
from carleson_kit.construction import lemma_10_1_check
from carleson_kit.errors import DomainError
from carleson_kit.model_space import BOUNDARY_SIZE, MatrixFunction, kernel_grid, project_model
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
        vals = th.boundary()
        assert vals.shape == (BOUNDARY_SIZE, 1, 1)
        pts = np.exp(1j * TAU * np.arange(BOUNDARY_SIZE) / BOUNDARY_SIZE)
        for k in (0, 10, 33, 2047):
            assert np.allclose(vals[k], th(pts[k]))

    def test_boundary_is_computed_once_and_read_only(self, monkeypatch):
        th = MatrixFunction.diagonal([MatrixFunction.from_scalar_blaschke([0.3])] * 2)
        sizes = []
        call = MatrixFunction.__call__

        def counted(theta, z):
            sizes.append(np.size(z))
            return call(theta, z)

        monkeypatch.setattr(MatrixFunction, "__call__", counted)
        first = th.boundary()
        assert th.is_contractive()
        assert th.boundary() is first
        assert sizes == [BOUNDARY_SIZE]
        with pytest.raises(ValueError):
            first[0, 0, 0] = 2.0

    def test_contractive_check_reads_the_512_roots_of_unity(self):
        # every 4th of the 2048 samples is, bit for bit, the evaluation at
        # the 512 roots of unity that the check sampled on its own before
        rng = np.random.default_rng(6)
        th = MatrixFunction.diagonal([MatrixFunction.from_scalar_blaschke(random_zeros(rng, 3)),
                                      MatrixFunction.from_scalar_blaschke(random_zeros(rng, 2))])
        pts = np.exp(1j * TAU * np.arange(512) / 512)
        assert np.array_equal(th.boundary()[::4], th(pts))

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
        dets = np.linalg.det(th(probes))
        for z, d in zip(probes, dets):
            assert d == pytest.approx(ba(complex(z)) * bb(complex(z)), abs=1e-10)
        assert np.linalg.det(th(0.1)) == pytest.approx(ba(0.1) * bb(0.1), abs=1e-12)

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


def test_covering_count_scalar_family():
    rng = np.random.default_rng(44)
    zeros = random_zeros(rng, 4, rmax=0.6)
    fam = [MatrixFunction.from_scalar_blaschke([z]) for z in zeros]
    grid = random_zeros(rng, 200, rmax=0.95)
    dets = np.abs(np.linalg.det(np.stack([t(grid) for t in fam])))
    out = lemma_10_1_check(fam, [BlaschkeProduct([z]) for z in zeros], eps=0.3,
                           log_eps_prime=-5.0, z_grid=grid, abs_dets=dets, alpha=0.5)
    # direct recount
    best = 0
    for z in grid:
        c = sum(abs(BlaschkeProduct([f.det_zeros_in_disk()[0]])(complex(z))) < 0.3 for f in fam)
        best = max(best, c)
    assert out["covering_max"] == best


def test_model_subspace_frame_is_orthonormal():
    # the kernels at theta's zeros span K_theta; one kernel group gives its frame
    rng = np.random.default_rng(9)
    pts = random_zeros(rng, 5, rmax=0.7)
    q = SubspaceSystem.from_kernel_groups([pts]).frames[0]
    assert q.shape == (5, 5)
    assert np.allclose(q.conj().T @ q, np.eye(q.shape[1]), atol=1e-10)
    with pytest.raises(DomainError):
        SubspaceSystem.from_kernel_groups([[0.5, 0.5]])
