import math
import tracemalloc

import numpy as np
import pytest

from carleson_kit.errors import DomainError
from carleson_kit.hardy import (
    BoundaryGrid,
    outer_log_at,
    poisson_sum,
    riesz_project,
)

TAU = 2 * math.pi


def unit_samples(size):
    return np.exp(1j * TAU * np.arange(size) / size)


class TestBoundaryGrid:
    def test_requires_power_of_two(self):
        with pytest.raises(DomainError):
            BoundaryGrid(np.ones(100))
        BoundaryGrid(np.ones(128))

    def test_coefficient_round_trip(self):
        rng = np.random.default_rng(2)
        vals = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        g = BoundaryGrid(vals)
        back = BoundaryGrid.from_coefficients(g.coefficients())
        assert np.allclose(back.values, vals)

    def test_monomial_coefficients(self):
        xi = unit_samples(32)
        g = BoundaryGrid(3.0 * xi**5)
        c = g.coefficients()
        assert c[5] == pytest.approx(3.0)
        c[5] = 0
        assert np.allclose(c, 0, atol=1e-12)

    def test_parseval_norm_and_inner(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        b = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        ga, gb = BoundaryGrid(a), BoundaryGrid(b)
        assert ga.norm() ** 2 == pytest.approx(np.mean(np.abs(a) ** 2))
        assert ga.inner(gb) == pytest.approx(np.mean(a * np.conj(b)))

    def test_analytic_detection(self):
        xi = unit_samples(64)
        assert BoundaryGrid(1 + xi + xi**2).is_analytic()
        g = BoundaryGrid(np.conj(xi))
        assert not g.is_analytic()
        assert g.negative_part_magnitude() == pytest.approx(1.0)


def test_riesz_projection_splits_frequencies():
    xi = unit_samples(64)
    f = np.conj(xi) ** 2 + 3.0 + 0.5 * xi
    g = BoundaryGrid(f)
    plus = riesz_project(g, "plus")
    minus = riesz_project(g, "minus")
    assert np.allclose(plus.values, 3.0 + 0.5 * xi, atol=1e-12)
    assert np.allclose(plus.values + minus.values, f, atol=1e-12)
    with pytest.raises(DomainError):
        riesz_project(g, "up")


def test_riesz_projection_is_norm_decreasing():
    rng = np.random.default_rng(6)
    for _ in range(10):
        vals = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        g = BoundaryGrid(vals)
        p = riesz_project(g, "plus")
        assert p.norm() <= g.norm() + 1e-12
        assert riesz_project(p, "plus").values == pytest.approx(p.values)


class TestPoisson:
    def test_harmonic_polynomial_reproduced(self):
        xi = unit_samples(512)
        lam = 0.4 - 0.3j
        got = poisson_sum((xi**3).real, lam)
        assert got == pytest.approx((lam**3).real, abs=1e-12)

    def test_known_quadratic_value(self):
        # |1 + xi|^2 = 2 + 2 cos t has harmonic extension 2 + 2 Re z
        xi = unit_samples(4096)
        val = poisson_sum(np.abs(1 + xi) ** 2, 0.3)
        assert val == pytest.approx(2.6, abs=1e-12)

    def test_rejects_exterior_points(self):
        with pytest.raises(DomainError):
            poisson_sum(np.ones(64), 1.0)


def direct_poisson_sum(v, zs):
    """Test oracle: the positive-kernel quadrature, summed point by point."""
    n = v.size
    xi = np.exp(1j * TAU * np.arange(n) / n)
    return np.array([np.mean(v * (1.0 - abs(z) ** 2) / np.abs(xi - z) ** 2) for z in zs])


def poisson_oracle_data(n, rng):
    t = TAU * np.arange(n) / n
    spike = np.zeros(n)
    spike[0] = -50.0
    # a block of samples at a construct-style log floor over mild noise
    clamped = -rng.uniform(0.0, 1.0, n)
    clamped[: max(1, round(0.05 * n))] = -1.5e5
    return {
        "noise": rng.uniform(-1.0, 1.0, n),
        "spike": spike,
        "clamped": clamped,
        "cosine": 0.3 * np.cos(t) - 0.1 * np.cos(3 * t + 0.4),
    }


def poisson_oracle_points(n, rng):
    area = np.sqrt(rng.uniform(0.0, 1.0, 300)) * np.exp(1j * rng.uniform(0.0, TAU, 300))
    # 1 - |z| from 0.5 down to 1e-6, densest across the series/direct switch near 45/n
    gaps = np.concatenate([np.geomspace(0.5, 1e-6, 200),
                           np.geomspace(4.0, 100.0, 60) / max(n, 64)])
    near = (1.0 - gaps) * np.exp(1j * rng.uniform(0.0, TAU, gaps.size))
    # on and next to grid rays, where the kernel peaks
    rays = TAU * rng.integers(0, n, 12) / n
    ray_angles = np.concatenate([rays, rays - 1e-9, rays + 1e-9])
    ray_gaps = np.array([1e-6, 1e-4, 1e-2, 45.0 / max(n, 64), 0.3])
    on_rays = ((1.0 - ray_gaps)[:, None] * np.exp(1j * ray_angles)[None, :]).ravel()
    return np.concatenate([[0.0], area, near, on_rays])


class TestPoissonSum:
    @pytest.mark.parametrize("n", [1, 2, 3, 64, 100, 1000, 1024, 4096])
    def test_matches_direct_sum(self, n):
        rng = np.random.default_rng(n)
        zs = poisson_oracle_points(n, rng)
        for name, v in poisson_oracle_data(n, rng).items():
            want = direct_poisson_sum(v, zs)
            got = poisson_sum(v, zs)
            err = np.abs(got - want)
            bound = 1e-9 * np.abs(want) + 1e-12 * np.max(np.abs(v))
            worst = int(np.argmax(err - bound))
            assert np.all(err <= bound), (name, zs[worst], got[worst], want[worst])

    def test_shape_and_mean_at_origin(self):
        rng = np.random.default_rng(5)
        v = rng.standard_normal(256)
        zs = 0.4 * np.exp(1j * rng.uniform(0.0, TAU, (3, 5)))
        got = poisson_sum(v, zs)
        assert got.shape == (3, 5)
        assert np.allclose(got.ravel(), direct_poisson_sum(v, zs.ravel()), rtol=1e-12, atol=1e-13)
        assert poisson_sum(v, 0.0) == pytest.approx(np.mean(v), abs=1e-15)
        assert poisson_sum(v, np.array([], dtype=complex)).shape == (0,)

    @pytest.mark.parametrize("bad", [1.0, 1.1, -1j, np.nan, complex(np.inf, 0.0)])
    def test_rejects_points_off_the_open_disk(self, bad):
        with pytest.raises(DomainError):
            poisson_sum(np.ones(64), np.array([0.2, bad]))


def series_terms(r):
    """J for a block whose outermost radius is r, as poisson_sum chooses it."""
    return 0 if r == 0.0 else math.ceil(math.log(2.0 ** -60 * (1.0 - r)) / math.log(r))


def radius_with_terms(target):
    """Smallest radius whose block keeps exactly ``target`` >= 1 series terms."""
    lo, hi = 0.0, 1.0 - 1e-12
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if series_terms(mid) >= target else (mid, hi)
    assert series_terms(hi) == target
    return hi


def table_poisson_sum(v, zs):
    """Test oracle: the series with a (J, block) table of powers by one cumulative
    product and one matrix-vector product per block, plus the same direct shell."""
    n = v.size
    c = np.fft.fft(v) / n
    radius = np.hypot(zs.real, zs.imag)
    order = np.argsort(radius, kind="stable")
    xi = np.exp(1j * TAU * np.arange(n) / n)
    out = np.empty(zs.size)
    for k in range(0, zs.size, 128):
        idx = order[k : k + 128]
        terms = series_terms(radius[idx[-1]])
        if terms < n:
            powers = np.cumprod(np.broadcast_to(zs[idx], (terms, idx.size)), axis=0)
            out[idx] = c[0].real + 2.0 * (c[1 : terms + 1] @ powers).real
        else:
            kern = (1.0 - radius[idx, None] ** 2) / np.abs(xi[None, :] - zs[idx, None]) ** 2
            out[idx] = kern @ v / n
    return out


def outer_contour_style(n, rng):
    """An outer log as the contour workload draws it, and 10,000 points spread
    over the disk and crowded towards the circle as verify_region samples them."""
    t = TAU * np.arange(n) / n
    v = -0.06 * (1.0 + 0.5 * np.cos(rng.integers(1, 6) * t + rng.uniform(0.0, TAU)))
    area = np.sqrt(rng.uniform(0.0, 1.0, 5000))
    near = 1.0 - np.exp(rng.uniform(math.log(1e-4), math.log(0.3), 5000))
    radii = np.concatenate([area, near])
    return v, radii * np.exp(1j * rng.uniform(0.0, TAU, radii.size))


class TestBlockedSeries:
    def assert_matches_direct(self, v, zs):
        want = direct_poisson_sum(v, zs)
        err = np.abs(poisson_sum(v, zs) - want)
        bound = 1e-9 * np.abs(want) + 1e-12 * np.max(np.abs(v))
        assert np.all(err <= bound), zs[int(np.argmax(err - bound))]

    @pytest.mark.parametrize("terms", [1, 20 * 20 - 1, 20 * 20, 20 * 20 + 1,
                                       31 * 31, 1023])
    def test_block_with_given_series_length(self, terms):
        # one block of 128 points whose outermost radius keeps exactly J terms;
        # J = 1023 is the last series block before the direct shell at n = 1024
        n = 1024
        rng = np.random.default_rng(terms)
        r = radius_with_terms(terms)
        radii = np.append(r * rng.uniform(0.0, 1.0, 127), r)
        zs = radii * np.exp(1j * rng.uniform(0.0, TAU, 128))
        for v in poisson_oracle_data(n, rng).values():
            self.assert_matches_direct(v, zs)

    def test_block_at_the_origin_is_the_mean(self):
        rng = np.random.default_rng(3)
        v = rng.standard_normal(64)
        zs = np.concatenate([np.zeros(128), 0.5 * np.exp(1j * rng.uniform(0.0, TAU, 40))])
        got = poisson_sum(v, zs)
        assert np.all(got[:128] == np.fft.fft(v)[0].real / 64)
        self.assert_matches_direct(v, zs)

    def test_blocks_straddle_the_direct_switch(self):
        n = 1024
        rng = np.random.default_rng(11)
        gaps = np.geomspace(200.0, 10.0, 700) / n
        zs = (1.0 - gaps) * np.exp(1j * rng.uniform(0.0, TAU, gaps.size))
        outermost = np.sort(1.0 - gaps)[127::128]
        terms = [series_terms(r) for r in np.append(outermost, np.max(1.0 - gaps))]
        assert min(terms) < n <= max(terms)
        for v in poisson_oracle_data(n, rng).values():
            self.assert_matches_direct(v, zs)

    @pytest.mark.parametrize("n", [1024, 2048, 4096])
    def test_matches_power_table_on_contour_inputs(self, n):
        v, zs = outer_contour_style(n, np.random.default_rng(n))
        err = np.max(np.abs(poisson_sum(v, zs) - table_poisson_sum(v, zs)))
        assert err <= 1e-13 * np.max(np.abs(np.fft.fft(v) / n))

    def test_block_memory_grows_as_the_square_root_of_the_terms(self):
        # r = 0.985 keeps J = 3030 < n terms: all series, no direct shell; a
        # (J, 128) complex table of powers alone would take 6.2 MB
        n = 4096
        assert series_terms(0.985) < n
        rng = np.random.default_rng(6)
        v = rng.standard_normal(n)
        zs = 0.985 * np.exp(1j * rng.uniform(0.0, TAU, 2000))
        tracemalloc.start()
        try:
            poisson_sum(v, zs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20


class TestOuter:
    def test_mean_value_property(self):
        # the Herglotz quadrature at the origin is exactly the mean
        rng = np.random.default_rng(9)
        rough = rng.standard_normal(256) * 0.3
        assert outer_log_at(rough, 0).real == pytest.approx(np.mean(rough), abs=1e-12)

    def test_outer_log_at_matches_poisson(self):
        xi = unit_samples(512)
        logmod = np.log(np.abs(2 + xi))
        z = 0.3 + 0.2j
        got = outer_log_at(logmod, z)
        assert got.real == pytest.approx(poisson_sum(logmod, z), abs=1e-12)
        # exact value: log(2 + z) for this outer function
        assert got == pytest.approx(np.log(2 + z), abs=1e-10)
