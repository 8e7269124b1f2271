import numpy as np
import pytest

from carleson_kit.blaschke import (
    BlaschkeProduct,
    interpolation_constants,
    net_is_valid,
    place_net_on_curve,
)
from carleson_kit.contour import BoundedFunction
from carleson_kit.disk import blaschke_factor, pseudo_hyperbolic
from carleson_kit.errors import DomainError

GEOMETRIC = [1 - 2.0**-k for k in range(1, 11)]


def random_interior(rng, n, rmax=0.9):
    r = np.sqrt(rng.uniform(0, 1, n)) * rmax
    t = rng.uniform(0, 2 * np.pi, n)
    return r * np.exp(1j * t)


def test_empty_product_is_one():
    b = BlaschkeProduct()
    assert len(b.zeros) == 0
    assert b(0.3 + 0.2j) == 1.0
    assert b.log_abs(0.5) == 0.0


def test_repeated_zero_rejected():
    with pytest.raises(DomainError):
        BlaschkeProduct([0.5, 0.5])
    with pytest.raises(DomainError):
        BlaschkeProduct([1.0])


def test_product_vanishes_at_zeros_and_is_contractive():
    rng = np.random.default_rng(21)
    for _ in range(10):
        zeros = random_interior(rng, 6)
        b = BlaschkeProduct(zeros)
        assert len(b.zeros) == 6
        for z in zeros:
            assert abs(b(z)) < 1e-12
        probes = random_interior(rng, 40)
        vals = b(probes)
        assert np.all(np.abs(vals) < 1.0)
        assert np.allclose(np.log(np.abs(b(probes))), b.log_abs(probes))
        # modulus one on the circle
        ring = np.exp(1j * rng.uniform(0, 2 * np.pi, 16))
        assert np.allclose(np.abs(b(ring)), 1.0, atol=1e-10)


def test_log_abs_is_the_contour_log_abs_bit_for_bit():
    # one log|B| routine serves both classes, so construct's log|B| and the
    # contour's agree in every bit, at the zeros (-inf) and on the circle (0)
    rng = np.random.default_rng(20)
    zeros = random_interior(rng, 20, rmax=0.95)
    zs = np.concatenate([random_interior(rng, 500, rmax=0.999), zeros[:2], [1.0, -1j]])
    got = BlaschkeProduct(zeros).log_abs(zs)
    assert np.array_equal(got, BoundedFunction(zeros=zeros).log_abs(zs))
    assert (got[500:502] == -np.inf).all() and (got[502:] == 0.0).all()


def test_log_abs_refuses_points_off_the_closed_disk():
    b = BlaschkeProduct([0.3])
    assert b.log_abs(1.0 + 1e-13) == 0.0
    for z in (1.5, [0.5, 1.1j], complex("nan")):
        with pytest.raises(DomainError):
            b.log_abs(z)


def test_product_factors_multiply():
    b = BlaschkeProduct([0.3, -0.4j])
    z = 0.1 + 0.5j
    assert b(z) == pytest.approx(blaschke_factor(0.3, z) * blaschke_factor(-0.4j, z))


def test_interpolation_constants_frozen_geometric_sequence():
    rep = interpolation_constants(GEOMETRIC, depth=14)
    assert rep.delta == pytest.approx(0.019135243301794242, rel=1e-12)
    assert rep.alpha == pytest.approx(0.33355048859934855, rel=1e-12)
    assert rep.carleson_norm == pytest.approx(0.6200427514699789, rel=1e-12)


def test_interpolation_constants_invariants():
    rng = np.random.default_rng(8)
    for _ in range(20):
        pts = random_interior(rng, int(rng.integers(2, 7)))
        rep = interpolation_constants(pts)
        # delta is a product of distances, never above the smallest one
        assert rep.delta <= rep.alpha + 1e-12
        assert 0 < rep.delta < 1
        assert 0 < rep.alpha < 1
        assert rep.carleson_norm > 0


def test_interpolation_constants_singleton():
    rep = interpolation_constants([0.5])
    assert rep.delta == 1.0
    assert rep.alpha == 1.0


def test_projection_norms_two_points():
    pts = [0.0, 0.5]
    # only the other point contributes: 1/|b_0.5(0)| = 1/0.5
    assert interpolation_constants(pts).projection_norms == pytest.approx([2.0, 2.0])
    assert interpolation_constants([0.5]).projection_norms == [1.0]
    with pytest.raises(DomainError, match="distinct"):
        interpolation_constants([0.25, 0.5, 0.25])
    # 400 distinct points 1e-6 apart: every column product of distances
    # underflows to 0, as for coinciding points
    with pytest.raises(DomainError, match="coinciding"):
        interpolation_constants(0.5 + 1e-6 * np.arange(400))


def test_projection_norms_match_direct_product():
    rng = np.random.default_rng(31)
    for _ in range(20):
        pts = list(random_interior(rng, 5))
        want = [1.0 / np.prod([abs(blaschke_factor(mu, lam)) for mu in pts if mu != lam])
                for lam in pts]
        assert interpolation_constants(pts).projection_norms == pytest.approx(want)


def test_place_net_on_curve_postconditions():
    rng = np.random.default_rng(17)
    alpha = 0.05
    for _ in range(10):
        verts = random_interior(rng, 120, rmax=0.95)
        net = place_net_on_curve(verts, alpha)
        assert set(net) <= {complex(v) for v in verts}
        separated, dense, product_small = net_is_valid(verts, net, alpha)
        assert separated
        assert dense
        assert product_small


def test_place_net_prefers_inner_layers():
    # a vertex near the origin always survives into the net
    verts = [0.001 + 0j, 0.9, 0.91j]
    net = place_net_on_curve(verts, 0.05)
    assert 0.001 + 0j in net


def test_place_net_rejects_bad_mesh():
    with pytest.raises(DomainError):
        place_net_on_curve([0.1], 0.5)


def test_net_is_valid_flags_sparse_net():
    verts = [0.0, 0.9]
    separated, dense, product_small = net_is_valid(verts, [0.0], 0.05)
    assert separated
    assert not dense
    assert not product_small


def test_net_density_is_the_one_shot_minimum_bit_for_bit():
    # 50 net points in chunks of 32 over 1001 vertices: the dense flag flips
    # exactly at the largest vertex-to-net distance of one (vertices, net)
    # array, as a minimum taken in any order must
    rng = np.random.default_rng(12)
    net = random_interior(rng, 50)
    verts = random_interior(rng, 1001)
    worst = np.min(pseudo_hyperbolic(net[None, :], verts[:, None]), axis=1).max()
    assert not net_is_valid(verts, net, worst)[1]
    assert net_is_valid(verts, net, np.nextafter(worst, 1.0))[1]
    with pytest.raises(DomainError):
        net_is_valid(np.append(verts, 1.0), net, 0.05)


def test_net_separation_flag():
    a, b = 0.0, 0.01
    assert pseudo_hyperbolic(a, b) < 0.05
    separated, _, _ = net_is_valid([a, b], [a, b], 0.05)
    assert not separated
