import math

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from carleson_kit.blaschke import BlaschkeProduct, interpolation_constants
from carleson_kit.construction import lemma_10_1_check
from carleson_kit.errors import DomainError
from carleson_kit.model_space import BOUNDARY_SIZE, MatrixFunction
from carleson_kit.riesz import SubspaceSystem
from oracles import kernel_datum_distance

TAU = 2 * math.pi


def random_zeros(rng, n, rmax=0.8):
    return np.sqrt(rng.uniform(0, 1, n)) * rmax * np.exp(1j * rng.uniform(0, TAU, n))


class TestMatrixFunction:
    def test_polynomial_evaluation(self):
        # Theta(z) = A0 + A1 z
        a0 = np.array([[1.0, 0.0], [0.0, 0.0]])
        a1 = np.array([[0.0, 0.0], [0.0, 1.0]])
        th = MatrixFunction.from_polynomial([a0, a1])
        assert (th.rows, th.cols) == (2, 2)
        z = 0.3 + 0.1j
        assert np.allclose(th(z), a0 + a1 * z)

    def test_rational_evaluation(self):
        # scalar Blaschke products as numerator/denominator pairs: one
        # factor, several zeros, and a zero at the origin
        rng = np.random.default_rng(2)
        for zeros in ([0.5], list(random_zeros(rng, 5)), [0.0, 0.3 - 0.6j]):
            th = MatrixFunction.from_scalar_blaschke(zeros)
            b = BlaschkeProduct(zeros)
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

    def test_single_coefficient_polynomial_is_constant(self):
        # from_polynomial([m]) is the constant function m, on the disk and
        # on the circle, with det m as its only determinant coefficient
        m = np.array([[0.5, 0.25j], [-0.1, 0.3]])
        th = MatrixFunction.from_polynomial([m])
        rng = np.random.default_rng(3)
        assert np.allclose(th(random_zeros(rng, 7, rmax=0.99)), m, rtol=0, atol=1e-15)
        assert np.allclose(th(0.2j), m, rtol=0, atol=1e-15)
        assert np.allclose(th.boundary(), m, rtol=0, atol=1e-15)
        assert th.det_coefficients() == pytest.approx([np.linalg.det(m)], abs=1e-15)
        assert th.det_zeros_in_disk() == []
        assert th.is_contractive()

    def test_diagonal_places_the_members_on_the_diagonal(self):
        # members with different denominators share one common denominator
        rng = np.random.default_rng(8)
        members = [MatrixFunction.from_scalar_blaschke(random_zeros(rng, 2)),
                   MatrixFunction.from_polynomial([np.array([[0.5]]), np.array([[0.25]])]),
                   MatrixFunction.from_scalar_blaschke([0.0, 0.6j])]
        th = MatrixFunction.diagonal(members)
        assert (th.rows, th.cols) == (3, 3)
        probes = np.concatenate([random_zeros(rng, 10, rmax=0.95), [1.0, -1j]])
        vals = th(probes)
        for i, member in enumerate(members):
            assert np.allclose(vals[:, i, i], member(probes)[:, 0, 0], rtol=0, atol=1e-12)
        assert np.all(vals[:, ~np.eye(3, dtype=bool)] == 0)
        with pytest.raises(DomainError):
            MatrixFunction.diagonal([])
        with pytest.raises(DomainError):
            MatrixFunction.diagonal([MatrixFunction.from_polynomial([np.eye(2)])])

    def test_det_coefficients_of_a_polynomial_matrix(self):
        # the roots-of-unity interpolation returns det N's coefficients:
        # for 2x2 N of degree 2 the polynomial ad - bc, of degree 4
        rng = np.random.default_rng(12)
        coeffs = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
        th = MatrixFunction.from_polynomial(coeffs)
        a, b, c, d = (coeffs[:, i, j] for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)))
        want = npoly.polysub(npoly.polymul(a, d), npoly.polymul(b, c))
        assert th.det_coefficients() == pytest.approx(want, abs=1e-12)

    def test_contractive_flags(self):
        assert MatrixFunction.from_scalar_blaschke([0.5, 0.1j]).is_contractive()
        assert not MatrixFunction.from_polynomial([2.0 * np.eye(2)]).is_contractive()

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
        assert (th.rows, th.cols) == (2, 2)
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


def test_kernel_distance_from_the_model_space_is_the_reciprocal_projection_norm():
    # dist(k_lam, K_B) = ||P_+(conj(B) k_lam)|| = |B(lam)| for the Blaschke
    # product B over the zeros, and the sequence report's projection norm at
    # lam, with the zeros as the other points, is 1 / |B(lam)|
    rng = np.random.default_rng(14)
    for _ in range(10):
        zeros = random_zeros(rng, int(rng.integers(1, 6)))
        lam = complex(random_zeros(rng, 1, rmax=0.7)[0])
        distance = kernel_datum_distance(MatrixFunction.from_scalar_blaschke(zeros), lam,
                                         [1.0], 2048)
        assert distance == pytest.approx(abs(BlaschkeProduct(zeros)(lam)), abs=1e-12)
        norm = interpolation_constants([*zeros, lam]).projection_norms[-1]
        assert 1.0 - norm ** -2 == pytest.approx(1.0 - distance ** 2, abs=1e-10)


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
