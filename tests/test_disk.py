import math

import numpy as np
import pytest

from carleson_kit.disk import (
    CarlesonSquare,
    blaschke_factor,
    dyadic_arc,
    hyperbolic_distance,
    hyperbolic_grid,
    kernel,
    kernel_inner,
    layer_index,
    pseudo_hyperbolic,
    pseudo_hyperbolic_disk,
    require_interior,
)
from carleson_kit.errors import DomainError


def test_require_interior_rejects_boundary_and_outside():
    assert require_interior(0.5) == 0.5
    with pytest.raises(DomainError):
        require_interior(1.0)
    with pytest.raises(DomainError):
        require_interior(1.2 + 0.1j)


def test_blaschke_factor_basics():
    # b_0 is the identity, and every factor vanishes at its own zero.
    assert blaschke_factor(0.0, 0.3 + 0.1j) == pytest.approx(0.3 + 0.1j)
    lam = 0.4 - 0.2j
    assert abs(blaschke_factor(lam, lam)) < 1e-15
    # unimodular on the circle
    ang = np.linspace(0, 2 * np.pi, 17)
    vals = blaschke_factor(lam, np.exp(1j * ang))
    assert np.allclose(np.abs(vals), 1.0, atol=1e-12)


def test_blaschke_factor_vectorized_matches_scalar():
    rng = np.random.default_rng(11)
    for _ in range(20):
        lam = (rng.uniform(-0.9, 0.9) + 1j * rng.uniform(-0.9, 0.9)) * 0.7
        zs = (rng.uniform(-1, 1, 8) + 1j * rng.uniform(-1, 1, 8)) * 0.7
        batch = blaschke_factor(lam, zs)
        for z, got in zip(zs, batch):
            assert got == pytest.approx(blaschke_factor(lam, complex(z)))


def test_pseudo_hyperbolic_symmetry_and_moebius_invariance():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a, lam, mu = (complex(*rng.uniform(-0.65, 0.65, 2)) for _ in range(3))
        rho = pseudo_hyperbolic(lam, mu)
        assert rho == pytest.approx(pseudo_hyperbolic(mu, lam))
        assert 0.0 <= rho < 1.0
        moved = pseudo_hyperbolic(blaschke_factor(a, lam), blaschke_factor(a, mu))
        assert moved == pytest.approx(rho, rel=1e-10)


def test_hyperbolic_distance_agrees_with_rho():
    lam, mu = 0.5, -0.25 + 0.1j
    rho, h = pseudo_hyperbolic(lam, mu), hyperbolic_distance(lam, mu)
    assert h == pytest.approx(0.5 * math.log((1 + rho) / (1 - rho)))


def test_kernel_values_and_inner_product():
    lam = 0.3 + 0.4j
    z = 0.1 - 0.2j
    expect = math.sqrt(1 - abs(lam) ** 2) / (1 - np.conj(lam) * z)
    assert kernel(lam, z) == pytest.approx(expect)
    assert kernel_inner(lam, lam) == pytest.approx(1.0)


def test_kernel_inner_encodes_pseudo_hyperbolic_distance():
    # 1 - |<k_lam, k_mu>|^2 = rho(lam, mu)^2 for normalized kernels
    rng = np.random.default_rng(7)
    for _ in range(50):
        lam = complex(*rng.uniform(-0.67, 0.67, 2))
        mu = complex(*rng.uniform(-0.67, 0.67, 2))
        inner = kernel_inner(lam, mu)
        assert 1 - abs(inner) ** 2 == pytest.approx(
            pseudo_hyperbolic(lam, mu) ** 2, abs=1e-12
        )


def test_pseudo_hyperbolic_disk_is_euclidean():
    # frozen instance: a = 0.5, gamma = 0.5 gives center 0.4, radius 0.4
    center, radius = pseudo_hyperbolic_disk(0.5, 0.5)
    assert center == pytest.approx(0.4)
    assert radius == pytest.approx(0.4)

    rng = np.random.default_rng(3)
    for _ in range(25):
        a = complex(*rng.uniform(-0.67, 0.67, 2))
        gamma = rng.uniform(0.05, 0.95)
        c, r = pseudo_hyperbolic_disk(a, gamma)
        # points on the euclidean circle sit at pseudo-hyperbolic level gamma
        for t in np.linspace(0, 2 * np.pi, 9):
            z = c + r * np.exp(1j * t)
            assert pseudo_hyperbolic(a, z) == pytest.approx(gamma, abs=1e-10)
        assert pseudo_hyperbolic(a, c) < gamma


def test_dyadic_arcs_are_half_open_and_nest():
    arc = dyadic_arc(3, 0)
    assert arc.contains_angle(arc.start)
    assert not arc.contains_angle(arc.end)
    assert arc.length == pytest.approx(2 * math.pi / 8)
    parent = dyadic_arc(2, 0)
    assert parent.contains_arc(arc)
    for theta in np.linspace(arc.start, arc.end, 7, endpoint=False):
        assert parent.contains_angle(theta)


def test_dyadic_grid_children_partition_parent():
    for d in range(3):
        for i in range(2**d):
            arc = dyadic_arc(d, i)
            kids = [dyadic_arc(d + 1, 2 * i), dyadic_arc(d + 1, 2 * i + 1)]
            assert sum(k.length for k in kids) == pytest.approx(arc.length)
            for theta in np.linspace(arc.start, arc.end, 33, endpoint=False):
                assert sum(k.contains_angle(theta) for k in kids) == 1


def test_square_membership_matches_geometry():
    arc = dyadic_arc(2, 1)
    sq = CarlesonSquare(arc)
    inner = sq.inner_radius
    assert inner == pytest.approx(1 - arc.length / (2 * math.pi))
    mid = arc.center_angle
    assert sq.contains((inner + 1) / 2 * np.exp(1j * mid))
    assert not sq.contains(0.5 * inner * np.exp(1j * mid))
    # open at the unit circle, closed variant accepts it
    assert not sq.contains(np.exp(1j * mid))
    assert CarlesonSquare(arc, closed=True).contains(np.exp(1j * mid))
    # angle outside the base arc
    assert not sq.contains((inner + 1) / 2 * np.exp(1j * (arc.end + 0.3)))


def test_contains_many_agrees_with_scalar_membership():
    rng = np.random.default_rng(19)
    sq = CarlesonSquare(dyadic_arc(3, 5))
    pts = rng.uniform(-1, 1, (200, 2)) @ np.array([1, 1j])
    mask = sq.contains_many(pts)
    for z, m in zip(pts, mask):
        if abs(z) >= 1:
            assert not m
        else:
            assert m == sq.contains(complex(z))


def test_hyperbolic_grid_layers():
    pts = hyperbolic_grid(max_layer=6, base_angles=8)
    assert np.all(np.abs(pts) < 1.0)
    assert np.any(pts == 0)
    # layer m carries 8 * 2^m points at the layer midpoint radius
    assert pts.size == 1 + sum(8 * 2**m for m in range(7))
    for z in pts[np.abs(pts) > 0][:50]:
        assert 0 <= layer_index(z) <= 6


def _random_interior(rng, n, rmax=0.999):
    pts = rmax * np.sqrt(rng.uniform(0, 1, n)) * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
    pts[:4] = [0.0, 0.5, -0.3j, rmax]  # the origin, real and imaginary points
    pts[-3:] = pts[4:7]  # repeated points: coincident pairs off the diagonal
    return pts


def _scalar_matrix(fn, rows, cols):
    return np.array([[fn(complex(a), complex(b)) for b in cols] for a in rows])


def test_pseudo_hyperbolic_broadcast_matches_scalar():
    rng = np.random.default_rng(41)
    p = _random_interior(rng, 60)
    dist = pseudo_hyperbolic(p[:, None], p[None, :])
    assert dist.shape == (60, 60) and dist.dtype == float
    np.testing.assert_allclose(dist, _scalar_matrix(pseudo_hyperbolic, p, p), rtol=1e-15, atol=0)
    # the textbook |b_lam(mu)| in Python complex arithmetic
    textbook = _scalar_matrix(lambda a, b: abs((a - b) / (1 - a.conjugate() * b)), p, p)
    np.testing.assert_allclose(dist, textbook, rtol=1e-12, atol=0)
    assert np.all(dist[p[:, None] == p[None, :]] == 0.0)
    assert isinstance(pseudo_hyperbolic(0.5, 0.5j), float)


def test_kernel_inner_broadcast_equals_scalar_loop_bitwise():
    # the Gram loops this call replaced: one scalar kernel_inner per pair,
    # computed with math.sqrt, Python abs and numpy's scalar complex product
    def per_pair(lam, mu):
        num = math.sqrt((1.0 - abs(mu) ** 2) * (1.0 - abs(lam) ** 2))
        return num / (1.0 - np.conj(mu) * lam)

    rng = np.random.default_rng(43)
    p = _random_interior(rng, 80)
    gram = kernel_inner(p[:, None], p[None, :])
    assert gram.shape == (80, 80) and gram.dtype == complex
    assert gram.tobytes() == _scalar_matrix(per_pair, p, p).tobytes()
    assert gram.tobytes() == _scalar_matrix(kernel_inner, p, p).tobytes()
    assert isinstance(kernel_inner(0.5, 0.5j), complex)


def test_kernel_broadcast_matches_scalar():
    rng = np.random.default_rng(47)
    lam = _random_interior(rng, 30)
    z = np.concatenate([_random_interior(rng, 30), np.exp(1j * rng.uniform(0, 2 * np.pi, 10))])
    vals = kernel(lam[:, None], z[None, :])
    assert vals.shape == (30, 40)
    np.testing.assert_allclose(vals, _scalar_matrix(kernel, lam, z), rtol=1e-15, atol=0)
    textbook = _scalar_matrix(
        lambda a, b: math.sqrt(1 - abs(a) ** 2) / (1 - a.conjugate() * b), lam, z)
    np.testing.assert_allclose(vals, textbook, rtol=1e-12, atol=0)
    assert isinstance(kernel(0.5, 1j), complex)


@pytest.mark.parametrize("bad", [1.0, 1j, 1.5 - 0.2j, complex("nan"), complex(0.2, float("nan"))])
def test_broadcast_primitives_reject_points_off_the_open_disk(bad):
    pts = np.array([0.1, bad, -0.4j])
    good = np.array([0.3j, 0.2])
    for call in (lambda: pseudo_hyperbolic(pts[:, None], good[None, :]),
                 lambda: pseudo_hyperbolic(good[:, None], pts[None, :]),
                 lambda: kernel_inner(pts[:, None], good[None, :]),
                 lambda: kernel_inner(good[:, None], pts[None, :]),
                 lambda: kernel(pts, 0.5),
                 lambda: pseudo_hyperbolic(bad, 0.0),
                 lambda: kernel_inner(0.0, bad),
                 lambda: require_interior(bad)):
        with pytest.raises(DomainError):
            call()
