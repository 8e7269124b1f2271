import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from carleson_kit import disk
from carleson_kit.contour import BoundedFunction
from carleson_kit.disk import (
    Arc,
    blaschke_factor,
    dyadic_arc,
    dyadic_index,
    hyperbolic_grid,
    in_layer,
    in_square,
    kernel,
    kernel_inner,
    layer_index,
    one_minus_sq,
    polar,
    pseudo_hyperbolic,
    pseudo_hyperbolic_disk,
    turns,
)
from carleson_kit.errors import DomainError
from oracles import exact_kernel_sq, exact_log_abs, exact_one_minus_sq, exact_rho_sq

U = 2.0 ** -53


def test_interior_rejects_boundary_and_outside():
    # the one check of a point set: a complex array, refused as a whole
    pts = disk._interior([0.5, -0.3j, 0])
    assert pts.dtype == complex and pts.tolist() == [0.5, -0.3j, 0j]
    assert complex(disk._interior(0.5)) == 0.5
    for bad in (1.0, 1.2 + 0.1j, [0.5, 1.0], [0.5, complex("nan")]):
        with pytest.raises(DomainError, match="strictly inside"):
            disk._interior(bad)


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


def test_pseudo_hyperbolic_disk_lies_in_the_closed_disks_square():
    # |c| + r = (|a| + gamma) / (1 + gamma |a|) < 1, so a contour region
    # needs no Carleson square met with its disks (contour.Region); centers
    # as close to the circle as 1 - 2**-45
    rng = np.random.default_rng(29)
    for k in range(1, 46):
        for gamma in (1e-6, 1e-3, 0.1, 0.5, 0.9):
            for angle in (0.0, 1.0, math.pi / 4, math.pi, -2.5):
                a = (1.0 - 2.0**-k) * complex(math.cos(angle), math.sin(angle))
                c, r = pseudo_hyperbolic_disk(a, gamma)
                assert abs(c) + r <= 1.0 + 1e-12
                # points of the open disk |z - c| < r, its rim included
                t = rng.uniform(0.0, 2 * math.pi, 64)
                z = c + r * np.sqrt(rng.uniform(0.0, 1.0, 64)) * np.exp(1j * t)
                z = np.append(z, c + r * np.exp(1j * t))
                assert in_layer(polar(z)[1], 1.0).all()


def _in_arc(arc, u):
    """Whether the turns u lie in the arc: its closed square at radius 1."""
    return in_square(u, 1.0, arc.start_turn, arc.normalized_length)


def test_dyadic_arcs_are_half_open_and_nest():
    arc = dyadic_arc(3, 0)
    assert (arc.start_turn, arc.normalized_length) == (0.0, 0.125)
    assert _in_arc(arc, arc.start_turn)
    assert not _in_arc(arc, arc.start_turn + arc.normalized_length)
    parent = dyadic_arc(2, 0)
    assert parent.start_turn <= arc.start_turn
    assert arc.start_turn + arc.normalized_length <= parent.start_turn + parent.normalized_length
    assert _in_arc(parent, np.linspace(0.0, 0.125, 7, endpoint=False)).all()


def test_dyadic_grid_children_partition_parent():
    for d in range(3):
        for i in range(2**d):
            arc = dyadic_arc(d, i)
            kids = [dyadic_arc(d + 1, 2 * i), dyadic_arc(d + 1, 2 * i + 1)]
            assert sum(k.normalized_length for k in kids) == arc.normalized_length
            u = arc.start_turn + arc.normalized_length * np.arange(33) / 33
            assert (sum(_in_arc(k, u).astype(int) for k in kids) == 1).all()


def test_turns_of_tiny_negative_angles_wrap_to_zero():
    # (theta / 2 pi) mod 1 rounds to 1.0 for these angles; index 2**d would
    # name no arc
    tiny = np.array([-1e-300, -5e-324, -2.0**-60, -1e-17, -2.37e-16])
    for u in (turns(tiny), polar(np.cos(tiny) + 1j * np.sin(tiny))[0]):
        assert ((0.0 <= u) & (u < 1.0)).all()
        for d in (1, 4, 20, 52):
            assert (dyadic_index(u, d) < 2**d).all()
    assert (turns(tiny) == 0.0).all()
    # a turn that stays below 1 keeps its last arc
    assert 1.0 - 2.0**-51 < turns(-1e-15) < 1.0
    assert dyadic_index(turns(-1e-15), 4) == 15


def _ray_probes(rng, count, max_depth, ulps):
    """Turns and points at the ends and centres of random dyadic arcs of
    depths 1..max_depth, each angle moved by up to ``ulps`` ulps, at radii
    on and around the inner circles of the arcs' squares."""
    depth = rng.integers(1, max_depth + 1, count)
    turn = (rng.integers(0, 2**depth) + rng.choice([0.0, 0.5, 1.0], count)) / 2.0**depth
    theta = 2 * math.pi * turn
    for _ in range(ulps):
        step = rng.integers(-1, 2, count)
        theta = np.where(step > 0, np.nextafter(theta, np.inf),
                         np.where(step < 0, np.nextafter(theta, -np.inf), theta))
    radius = np.where(rng.uniform(size=count) < 0.5, 1.0,
                      1.0 - 2.0 ** -(depth + rng.integers(-1, 2, count)))
    return radius * np.exp(1j * theta)


def test_dyadic_squares_nest_exactly():
    # a child square holding a point whose parent misses it let the scans
    # stop above an atom on a dyadic ray
    z = _ray_probes(np.random.default_rng(23), 20000, 30, 3)
    u, r = polar(z)
    for d in range(31):
        index = dyadic_index(u, d)
        child = dyadic_index(u, d + 1)
        assert ((0 <= index) & (index < 2**d)).all()
        assert (child >> 1 == index).all()
        # the predicate's angle test is the index, in the arc it names and
        # its neighbours; a point in a child square is in the parent square
        for j in (index - 1, index, index + 1):
            angle = in_square(u, 1.0, (j % 2**d) / 2.0**d, 2.0**-d)
            assert (angle == (j % 2**d == index)).all()
        parent_sq = in_square(u, r, index / 2.0**d, 2.0**-d)
        child_sq = in_square(u, r, child / 2.0 ** (d + 1), 2.0 ** -(d + 1))
        assert not (child_sq & ~parent_sq).any()
        assert (parent_sq == in_layer(r, 2.0**-d)).all()
    # an array of depths broadcasts, row d the indices of depth d
    rows = dyadic_index(u, np.arange(32)[:, None])
    assert all((rows[d] == dyadic_index(u, d)).all() for d in range(32))
    # the points one by one give the same answers, each in its own square
    for k in range(0, 20000, 97):
        d = k % 31
        j = int(dyadic_index(u[k], d))
        arc = dyadic_arc(d, j)
        uk, rk = polar(z[k])
        inside = in_square(uk, rk, arc.start_turn, arc.normalized_length)
        assert bool(inside) == bool(in_layer(r[k], 2.0**-d))
        assert bool(in_square(u[k : k + 1], r[k : k + 1], arc.start_turn,
                              arc.normalized_length)[0]) == bool(inside)


def test_square_membership_matches_geometry():
    arc = dyadic_arc(2, 1)
    inner = 1.0 - arc.normalized_length
    mid = (arc.start_turn + 0.5 * arc.normalized_length) * 2 * math.pi

    def inside(radius, angle):
        u, r = polar(radius * np.exp(1j * angle))
        return bool(in_square(u, r, arc.start_turn, arc.normalized_length))

    assert inside((inner + 1) / 2, mid)
    assert inside(inner, mid)
    assert not inside(0.5 * inner, mid)
    # closed at the unit circle, up to 1e-12
    assert inside(1.0, mid)
    assert inside(1.0 + 1e-12, mid)
    assert not inside(1.0 + 3e-12, mid)
    # angle outside the base arc
    end = (arc.start_turn + arc.normalized_length) * 2 * math.pi
    assert not inside((inner + 1) / 2, end + 0.3)
    assert not inside(1.0, end)


def test_square_membership_broadcasts_like_scalar_calls():
    rng = np.random.default_rng(19)
    pts = rng.uniform(-1, 1, (200, 2)) @ np.array([1, 1j])
    pts[:3] = [1.0, 1j * (1.0 + 1e-12), -(1.0 + 1e-12)]
    for arc in (dyadic_arc(3, 5), Arc(float(turns(-2.35)), 0.7 / (2 * math.pi)), Arc(0.0, 1.0)):
        u, r = polar(pts)
        mask = in_square(u, r, arc.start_turn, arc.normalized_length)
        assert mask.shape == pts.shape
        for z, m in zip(pts, mask):
            if abs(z) > 1.0 + 1e-12:
                assert not m
            else:
                assert m == in_square(*polar(complex(z)), arc.start_turn, arc.normalized_length)
    # the full circle's square is the closed disk
    full = in_square(*polar(pts), 0.0, 1.0)
    assert (full == (np.abs(pts) <= 1.0 + 1e-12)).all()
    assert full[:3].all()


def test_hyperbolic_grid_layers():
    pts = hyperbolic_grid(max_layer=6, base_angles=8)
    assert np.all(np.abs(pts) < 1.0)
    assert np.any(pts == 0)
    # layer m carries 8 * 2^m points at the layer midpoint radius
    assert pts.size == 1 + sum(8 * 2**m for m in range(7))
    for z in pts[np.abs(pts) > 0][:50]:
        assert 0 <= layer_index(z) <= 6


def _exact_layer(x: float) -> int:
    """The m with 1 - 2^-m <= |x| < 1 - 2^-(m+1), in exact rationals."""
    d = 1 - abs(Fraction(x))  # in (0, 1]: 2^-(m+1) < d <= 2^-m
    m = 0
    while d * 2 ** (m + 1) <= 1:
        m += 1
    return m


def test_layer_index_of_arrays_is_exact_on_the_layer_circles():
    # |z| = 1 - 2^-(m+1) lies on the circle shared by layers m and m + 1,
    # and one ulp either side of it lies in one of them; the points are
    # real, negative and imaginary, so |z| is exact
    circles = [1.0 - 2.0 ** -(m + 1) for m in range(52)]
    radii = np.array([f(r) for r in circles
                      for f in (lambda r: np.nextafter(r, 0.0), float,
                                lambda r: np.nextafter(r, 1.0))] + [0.0])
    want = [_exact_layer(r) for r in radii.tolist()]
    assert want[1::3] == [m + 1 for m in range(52)]
    assert want[0::3][:52] == list(range(52))
    for pts in (radii, -radii, 1j * radii):
        got = layer_index(pts)
        assert got.dtype == np.int64 and got.tolist() == want
    assert [layer_index(r) for r in radii.tolist()] == want  # scalars give ints
    assert isinstance(layer_index(0.5), int)
    with pytest.raises(DomainError):
        layer_index(np.array([0.5, 1.0]))


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
                 lambda: disk._interior(bad)):
        with pytest.raises(DomainError):
            call()


# Exact-rational oracles for the primitives: every reference below is
# computed in fractions.Fraction from the points' float values, sharing no
# arithmetic with the library.


def unimodular(rng, n):
    """n points on the circle at seeded angles."""
    return np.exp(2j * math.pi * rng.uniform(size=n))


def near_circle_points():
    """1 - |z| = 2^-k for k = 1 .. 52, on the four half-axes and at eight
    seeded angles per k."""
    rng = np.random.default_rng(52)
    pts = []
    for k in range(1, 53):
        r = 1.0 - 2.0 ** -k
        pts += [r, -r, 1j * r, -1j * r, *(r * unimodular(rng, 8))]
    return np.array(pts, dtype=complex)


def relative_error(value, exact_sq):
    """|value - sqrt(exact_sq)| / sqrt(exact_sq), to first order, from
    squares compared in exact rationals."""
    return float(abs(Fraction(float(value)) ** 2 - exact_sq) / exact_sq) / 2


def test_one_minus_sq_is_correctly_rounded_near_the_circle():
    # 1 - r^2 with r = hypot loses u / (1 - |z|) here: 1.0e-4 relative at
    # 1 - |z| = 2^-40
    pts = near_circle_points()
    want = exact_one_minus_sq(pts)
    assert np.array_equal(one_minus_sq(pts), want)
    # Python numbers run the same steps on Python floats
    assert [one_minus_sq(complex(z)) for z in pts] == want.tolist()
    assert [one_minus_sq(np.array(z)) for z in pts] == want.tolist()
    assert np.array_equal(one_minus_sq(pts[:5]), want[:5])


def test_one_minus_sq_is_correctly_rounded_across_the_disk():
    rng = np.random.default_rng(54)
    pts = np.concatenate([
        np.sqrt(rng.uniform(0.0, 1.0, 2000)) * unimodular(rng, 2000),
        rng.uniform(-1.0, 1.0, 500) + 1e-9j * rng.uniform(-1.0, 1.0, 500),
        [0.0, 0.5, 0.5j, 1.0, -1.0j, 0.6 + 0.8j],
    ])
    assert np.array_equal(one_minus_sq(pts), exact_one_minus_sq(pts))


def test_in_open_disk_is_the_hypot_test_next_to_the_circle():
    # numpy's abs and hypot disagree on < 1 for about 3% of these points
    rng = np.random.default_rng(58)
    pts = (1.0 - 2.0 ** -rng.integers(40, 56, 20000)) * unimodular(rng, 20000)
    pts = np.concatenate([pts, 0.5 * pts, [1.0, 1j, np.nan, np.inf]])
    want = np.hypot(pts.real, pts.imag) < 1.0
    assert np.array_equal(disk.in_open_disk(pts), want)
    assert np.array_equal(disk.in_open_disk(pts[:20000:4] * 0.999), np.ones(5000, dtype=bool))
    assert [bool(disk.in_open_disk(z)) for z in pts[:50]] == [abs(complex(z)) < 1 for z in pts[:50]]


def test_one_minus_sq_is_bit_symmetric():
    pts = near_circle_points()
    d = one_minus_sq(pts)
    assert np.array_equal(one_minus_sq(-pts), d)
    assert np.array_equal(one_minus_sq(pts.conj()), d)


def one_ulp_pairs():
    """(a, b) with b one ulp from a in each nonzero coordinate, for a at
    1 - |a| = 2^-k, k = 1 .. 52, plus a seeded partner anywhere in the disk."""
    rng = np.random.default_rng(55)
    pairs = []
    for k in range(1, 53):
        r = 1.0 - 2.0 ** -k
        for a in [r, 1j * r, *(r * unimodular(rng, 3))]:
            a = complex(a)
            if a.real:
                pairs.append((a, complex(np.nextafter(a.real, 0.0), a.imag)))
            if a.imag:
                pairs.append((a, complex(a.real, np.nextafter(a.imag, 0.0))))
            pairs.append((a, complex(0.999 * unimodular(rng, 1)[0])))
    return pairs


def test_pseudo_hyperbolic_matches_exact_rationals_down_to_one_ulp():
    worst = 0.0
    for a, b in one_ulp_pairs():
        for rho, exact in ((pseudo_hyperbolic(a, b), exact_rho_sq(a, b)),
                           (pseudo_hyperbolic(b, a), exact_rho_sq(b, a))):
            worst = max(worst, relative_error(rho, exact))
    assert worst <= 6 * U


@pytest.mark.parametrize("n", [8, 12, 16, 20])
def test_pseudo_hyperbolic_of_the_near_circle_pairs(n):
    # the pairs of the "Near the circle" CI step; 1 - r^2 was off by 1.7e-13,
    # 1.0e-11 and 2.1e-9 relative at n = 8, 12 and 16
    a = 1.0 - 0.3 ** n
    b = a * cmath.exp(0.3j * 0.3 ** n)
    assert relative_error(pseudo_hyperbolic(a, b), exact_rho_sq(complex(a), b)) <= 4 * U


def test_kernel_squares_match_exact_rationals_down_to_one_ulp():
    # d_z / (d_z d_a + |z - a|^2): |z - a| is within an ulp, its square
    # within 2.5 u, and the rest adds a few half-ulp roundings
    worst_sum, worst_kernel = 0.0, 0.0
    for z, a in one_ulp_pairs():
        exact = exact_kernel_sq(z, a)
        zs, pts = np.array([z]), np.array([a])
        got = disk._kernel_sums(zs, one_minus_sq(zs), pts, one_minus_sq(pts), np.ones(1))[0]
        worst_sum = max(worst_sum, float(abs(Fraction(got) - exact) / exact))
        worst_kernel = max(worst_kernel, 2 * relative_error(abs(kernel(z, a)), exact))
    assert worst_sum <= 6 * U
    assert worst_kernel <= 8 * U


def test_log_abs_matches_exact_rationals_near_the_circle():
    # zeros and points within 2^-40 .. 2^-8 of the circle, points near the
    # zeros: the stated bound 16 n u sum (|log rho| + 1), where the complex
    # product 1 - conj(a) z missed by up to u / |1 - conj(a) z|
    rng = np.random.default_rng(58)
    gaps = 2.0 ** -rng.uniform(8, 40, 12)
    zeros = (1.0 - gaps) * unimodular(rng, 12)
    near = zeros + gaps * rng.uniform(0.1, 2.0, 12) * unimodular(rng, 12)
    pts = np.concatenate([near[np.abs(near) < 1.0], (1.0 - gaps[::-1]) * unimodular(rng, 12)])
    got = BoundedFunction(zeros=zeros).log_abs(pts)
    for value, z in zip(got, pts):
        want = exact_log_abs(zeros, z)
        rhos = [math.sqrt(float(exact_rho_sq(complex(a), complex(z)))) for a in zeros]
        scale = sum(abs(math.log(r)) + 1.0 for r in rhos)
        assert abs(value - want) <= 16 * zeros.size * U * scale


def test_pairwise_primitives_are_bit_symmetric():
    rng = np.random.default_rng(56)
    pts = np.concatenate([near_circle_points()[::7],
                          0.9 * np.sqrt(rng.uniform(0.0, 1.0, 40)) * unimodular(rng, 40)])
    rho = pseudo_hyperbolic(pts[:, None], pts[None, :])
    logs = BoundedFunction(zeros=pts[:30]).log_abs(pts[30:])
    d = one_minus_sq(pts)
    weights = np.linspace(0.5, 1.5, pts[::3].size)
    kern = disk._kernel_sums(pts, d, pts[::3], d[::3], weights)
    for image in (-pts, pts.conj()):
        assert np.array_equal(pseudo_hyperbolic(image[:, None], image[None, :]), rho)
        assert np.array_equal(BoundedFunction(zeros=image[:30]).log_abs(image[30:]), logs)
        d = one_minus_sq(image)
        assert np.array_equal(disk._kernel_sums(image, d, image[::3], d[::3], weights), kern)


def test_pseudo_hyperbolic_disk_vectorized_matches_scalar():
    rng = np.random.default_rng(57)
    a = np.concatenate([near_circle_points()[::5], 0.9 * unimodular(rng, 20)])
    centers, radii = pseudo_hyperbolic_disk(a, 0.3)
    assert centers.tolist() == [pseudo_hyperbolic_disk(complex(z), 0.3)[0] for z in a]
    assert radii.tolist() == [pseudo_hyperbolic_disk(complex(z), 0.3)[1] for z in a]
    with pytest.raises(DomainError):
        pseudo_hyperbolic_disk(np.array([0.5, 1.0]), 0.3)
