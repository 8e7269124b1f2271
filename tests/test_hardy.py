import math
import tracemalloc

import numpy as np
import pytest

from carleson_kit import hardy
from carleson_kit.errors import DomainError
from carleson_kit.hardy import poisson_sum
from oracles import (exact_one_minus_sq, outer_log_at, poisson_sum_full_spectrum,
                     poisson_sum_reference)

TAU = 2 * math.pi
TAU_LONG = np.longdouble("6.28318530717958647692528676655900577")


def unit_samples(size):
    return np.exp(1j * TAU * np.arange(size) / size)


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
    """Test oracle: the positive-kernel quadrature, summed point by point,
    with an exact 1 - |z|^2."""
    n = v.size
    xi = np.exp(1j * TAU * np.arange(n) / n)
    return np.array([np.mean(v * d / np.abs(xi - z) ** 2)
                     for z, d in zip(zs, exact_one_minus_sq(zs))])


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

    def test_rejects_samples_that_are_not_a_nonempty_row(self):
        # any grid length n >= 1 is accepted, but not an empty or 2-d array
        assert poisson_sum(np.ones(100), 0.3) == pytest.approx(1.0, abs=1e-15)
        for bad in (np.ones(0), np.ones((8, 8)), np.float64(1.0)):
            with pytest.raises(DomainError):
                poisson_sum(bad, 0.3)


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
            kern = exact_one_minus_sq(zs[idx, None]) / np.abs(xi[None, :] - zs[idx, None]) ** 2
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


def long_double_power(z, k):
    """z**k in extended precision by repeated squaring."""
    base = np.asarray(z, dtype=np.clongdouble)
    out = np.ones_like(base)
    while k:
        if k & 1:
            out = out * base
        k >>= 1
        base = base * base
    return out


def long_double_poisson(v, zs):
    """The positive-kernel quadrature in extended precision, point by point."""
    n = v.size
    t = np.arange(n, dtype=np.longdouble) * TAU_LONG / n
    xr, xi = np.cos(t), np.sin(t)
    vl = v.astype(np.longdouble)
    out = np.empty(zs.size, dtype=np.longdouble)
    for i, z in enumerate(zs):
        zr, zi = np.longdouble(z.real), np.longdouble(z.imag)
        out[i] = np.mean(vl * (1 - zr * zr - zi * zi) / ((xr - zr) ** 2 + (xi - zi) ** 2))
    return out


def band_node_bound(v, zs):
    """What the direct band may be off at each z, from its nodes.

    The band sums over xi_j = exp(i fl(2 pi j / n)), up to 8 u off the roots
    of unity, mostly from rounding the angle (up to 2 pi).  A node d_j off
    changes |xi_j - z|**-2 by at most a factor (1 - d_j / |xi_j - z|)**-2,
    and |xi_j - z| >= 1 - |z| is about 8/n in the band, so node rounding
    costs mean_j |v_j| K_j ((1 - d_j / |xi_j - z|)**-2 - 1), K_j the kernel.
    16 u of mean_j |v_j| K_j more covers the arithmetic of each term and of
    the sum.  Evaluated in extended precision.
    """
    n = v.size
    t = np.arange(n, dtype=np.longdouble) * TAU_LONG / n
    xr, xi = np.cos(t), np.sin(t)
    nodes = np.exp(1j * TAU * np.arange(n) / n)
    drift = np.hypot(nodes.real - xr, nodes.imag - xi)
    weight = np.abs(v).astype(np.longdouble)
    out = np.empty(zs.size)
    for i, z in enumerate(zs):
        zr, zi = np.longdouble(z.real), np.longdouble(z.imag)
        dist = np.hypot(xr - zr, xi - zi)
        kern = weight * (1 - zr * zr - zi * zi) / dist ** 2
        out[i] = np.mean(kern * ((1 - drift / dist) ** -2 - 1 + 16 * 2.0 ** -53))
    return out


def band_edge_points(n, rng):
    """Points on both sides of n (1 - |z|) = 8, on grid rays, 1e-9 off them
    and at random angles."""
    offsets = np.geomspace(1e-12, 0.5, 30)
    x = np.concatenate([8.0 * (1.0 + offsets), 8.0 * (1.0 - offsets), [8.0]])
    rays = TAU * rng.integers(0, n, 8) / n
    angles = np.concatenate([rays, rays - 1e-9, rays + 1e-9, rng.uniform(0.0, TAU, 8)])
    return ((1.0 - x / n)[:, None] * np.exp(1j * angles)[None, :]).ravel()


def construct_style(n, rng):
    """Clamped log data on the construct grid: radii up to 0.95, 96 angles."""
    v = poisson_oracle_data(n, rng)["clamped"]
    radii = np.linspace(0.0, 0.95, 20)[:, None]
    return v, (radii * np.exp(1j * TAU * np.arange(96) / 96)).ravel()


class TestFoldedShell:
    """The grouped series, the folded shell and the direct band against the
    block-by-block reference, within 1e-13 max|c|."""

    def assert_matches_reference(self, v, zs):
        err = np.abs(poisson_sum(v, zs) - poisson_sum_reference(v, zs))
        bound = 1e-13 * np.max(np.abs(np.fft.fft(v) / v.size))
        assert np.max(err) <= bound, zs[int(np.argmax(err))]

    @pytest.mark.parametrize("n", [1000, 1024, 2048, 4096])
    def test_matches_reference_on_contour_inputs(self, n):
        self.assert_matches_reference(*outer_contour_style(n, np.random.default_rng(n + 1)))

    def test_matches_reference_on_construct_inputs(self):
        self.assert_matches_reference(*construct_style(2048, np.random.default_rng(17)))

    @pytest.mark.parametrize("n", [64, 1000, 4096])
    def test_accurate_across_the_band_edge(self, n):
        # inside the band both sum the kernel and agree with the reference; past
        # it the reference's own direct sum is off by about 1e-13 max|c| at
        # n = 4096, so the folded side is held to an extended-precision sum
        rng = np.random.default_rng(n)
        zs = band_edge_points(n, rng)
        v = outer_contour_style(n, rng)[0]
        bound = 1e-13 * np.max(np.abs(np.fft.fft(v) / n))
        got = poisson_sum(v, zs)
        inside = n * (1.0 - np.abs(zs)) < 8.0
        assert 0 < np.count_nonzero(inside) < zs.size
        assert np.max(np.abs(got - poisson_sum_reference(v, zs))[inside]) <= bound
        folded = ~inside
        err = np.abs(got[folded] - long_double_poisson(v, zs[folded])).astype(float)
        assert np.max(err) <= bound
        # the band side against the extended-precision sum: its nodes' rounding
        # (up to 1.2e-13 max|c| at n = 4096) and a few u per term
        err = np.abs(got[inside] - long_double_poisson(v, zs[inside])).astype(float)
        assert np.all(err <= band_node_bound(v, zs[inside]))

    @pytest.mark.parametrize("n", [1024, 4096])
    def test_folded_shell_keeps_rough_data_accurate(self, n):
        # next to the band the reference's direct sum is off by up to 1.3e-12
        # max|c| on these data (1 - |z|^2 cancels); the folded form is not.  The
        # relative term covers the result's own rounding where |S| >> max|c|
        # (next to its ray the spike gives |S| of about 100/8)
        rng = np.random.default_rng(n + 2)
        gaps = np.geomspace(8.0, 40.0, 60) / n
        zs = (1.0 - gaps) * np.exp(1j * rng.uniform(0.0, TAU, gaps.size))
        for name, v in poisson_oracle_data(n, rng).items():
            want = long_double_poisson(v, zs).astype(float)
            err = np.abs(poisson_sum(v, zs) - want)
            bound = 1e-13 * np.max(np.abs(np.fft.fft(v) / n)) + 1e-15 * np.abs(want)
            assert np.all(err <= bound), name

    def test_group_at_the_table_cap(self, monkeypatch):
        # nine blocks with 1024 <= J <= 1088 < n, so m = 32: eight of them fill
        # 32 * 1024 = 2**15 baby powers exactly, and the ninth starts a new group
        n = 2048
        rng = np.random.default_rng(8)
        lo, hi = radius_with_terms(1024), radius_with_terms(1089)
        radii = np.sort(rng.uniform(lo, hi, 9 * 128))
        radii[-1] = np.nextafter(hi, 0.0)
        assert series_terms(radii[-1]) == 1088 and series_terms(radii[127]) >= 1024
        zs = radii * np.exp(1j * rng.uniform(0.0, TAU, radii.size))
        v = poisson_oracle_data(n, rng)["noise"]
        seen = power_series_sizes(monkeypatch)
        got = poisson_sum(v, zs)
        assert [size for _, size in seen] == [1024, 128]
        assert math.isqrt(seen[0][0]) * seen[0][1] == 2 ** 15
        err = np.max(np.abs(got - poisson_sum_reference(v, zs)))
        assert err <= 1e-13 * np.max(np.abs(np.fft.fft(v) / n))

    def test_folded_shell_memory(self):
        # 20,000 points with 8 <= n (1 - |z|) <= 40: all in the folded shell; the
        # direct kernel takes a (128, n) complex block, 8 MB at n = 4096
        n = 4096
        rng = np.random.default_rng(12)
        gaps = rng.uniform(8.0, 40.0, 20_000) / n
        zs = (1.0 - gaps) * np.exp(1j * rng.uniform(0.0, TAU, gaps.size))
        v = outer_contour_style(n, rng)[0]
        tracemalloc.start()
        try:
            poisson_sum(v, zs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20

    @pytest.mark.parametrize("terms", [400, 1000, 4000])
    def test_blocked_power_error_stays_below_terms_times_u(self, terms):
        # the computed z**m carries about m u and Horner applies it J/m times, so
        # the error of z**J grows with J; pinned at J u on the circle |z| = 0.999
        rng = np.random.default_rng(terms)
        z = 0.999 * np.exp(1j * rng.uniform(0.0, TAU, 200))
        unit = np.zeros(terms, dtype=complex)
        unit[-1] = 1.0
        want = long_double_power(z, terms)
        rel = np.abs(hardy._power_series(unit, z) - want) / np.abs(want)
        assert float(np.max(rel)) <= terms * 2.0 ** -53


def higham_tau(c):
    """tau of poisson_sum for a power-of-two n: Higham's Thm 24.2 with
    twiddle factors 10 u off, padded by 1.001."""
    u = 2.0 ** -53
    mu = 10 * u
    steps = math.log2(c.size) * (mu + 4 * u / (1 - 4 * u) * (math.sqrt(2) + mu))
    beta = steps / (1 - steps)
    return 1.001 * beta / (1 - beta) * float(np.linalg.norm(c))


def long_double_dft(vs):
    """fft(v) / n of each row of ``vs`` by the definition in extended
    precision, the angles 2 pi jk / n reduced modulo 2 pi exactly."""
    n = vs.shape[1]
    t = np.arange(n, dtype=np.longdouble) * TAU_LONG / n
    cos, sin = np.cos(t), np.sin(t)
    vl = vs.astype(np.longdouble)
    j = np.arange(n)
    out = np.empty(vs.shape, dtype=np.clongdouble)
    rows = max(1, 2 ** 20 // n)
    for k in range(0, n, rows):
        turns = np.outer(np.arange(k, min(n, k + rows)), j) % n
        out[:, k:k + rows] = vl @ cos[turns].T - 1j * (vl @ sin[turns].T)
    return out / n


def outside_the_band(n, rng):
    """Points of the series and the folded shell, n (1 - |z|) >= 8."""
    area = np.sqrt(rng.uniform(0.0, 1.0, 200))
    gaps = np.geomspace(0.5, 8.001 / n, 200)
    radii = np.concatenate([area * (1.0 - 8.001 / n), 1.0 - gaps])
    return radii * np.exp(1j * rng.uniform(0.0, TAU, radii.size))


def power_series_sizes(monkeypatch):
    """Record the (terms, points) of every _power_series call."""
    seen = []
    series = hardy._power_series

    def spy(coef, z):
        seen.append((coef.size, z.size))
        return series(coef, z)

    monkeypatch.setattr(hardy, "_power_series", spy)
    return seen


class TestKeptSpectrum:
    """poisson_sum drops the coefficients within tau, the FFT's own error."""

    @pytest.mark.parametrize("n", [8, 64, 1024, 2048, 4096, 8192])
    def test_fft_error_stays_below_an_eighth_of_tau(self, n):
        data = poisson_oracle_data(n, np.random.default_rng(n))
        exact = long_double_dft(np.array(list(data.values())))
        for (name, v), want in zip(data.items(), exact):
            c = np.fft.fft(v) / n
            tau = hardy._fft_error(c)
            assert tau == pytest.approx(higham_tau(c), rel=1e-12)
            err = float(np.max(np.abs(c - want)))
            assert err <= tau / 8, (name, err / tau)

    def test_fft_error_is_zero_off_the_powers_of_two(self):
        for n in (3, 96, 1000):
            assert hardy._fft_error(np.fft.fft(np.cos(np.arange(n))) / n) == 0.0

    def test_planted_frequency_kept_at_twice_tau_dropped_at_half(self):
        n = 4096
        rng = np.random.default_rng(41)
        base = outer_contour_style(n, rng)[0]
        c = np.fft.fft(base) / n
        k = 1 + int(np.argmax(np.abs(c[1:n // 2])))
        tau = higham_tau(c)
        zs = outside_the_band(n, rng)
        t = TAU * np.arange(n) / n
        for amplitude, planted in [(2 * tau, [37, n - 37]), (tau / 2, [])]:
            # c_37 = c_{n-37} = amplitude e^{0.3i}
            v = base + 2 * amplitude * np.cos(37 * t + 0.3)
            assert higham_tau(np.fft.fft(v) / n) == pytest.approx(tau, rel=1e-9)
            kept = hardy._kept_spectrum(v)[1]
            assert np.flatnonzero(kept).tolist() == sorted([0, k, n - k] + planted)
            err = np.abs(poisson_sum(v, zs) - long_double_poisson(v, zs)).astype(float)
            assert np.max(err) <= 1e-13 * np.max(np.abs(c))

    @pytest.mark.parametrize("n", [2, 3, 64, 100, 1000, 1024, 4096])
    def test_nothing_dropped_is_the_full_spectrum_bit_for_bit(self, n):
        rng = np.random.default_rng(n + 5)
        zs = poisson_oracle_points(n, rng)
        data = poisson_oracle_data(n, rng)
        data["outer"] = outer_contour_style(n, rng)[0]
        for name, v in data.items():
            kept = hardy._kept_spectrum(v)[1]
            if n & (n - 1):
                # tau = 0: only exact zeros go
                assert np.array_equal(kept, np.fft.fft(v) != 0), name
            elif name in ("noise", "spike", "clamped"):
                # rough data keep every coefficient
                assert kept.all(), name
            if kept.all():
                assert np.array_equal(poisson_sum(v, zs), poisson_sum_full_spectrum(v, zs)), name

    @pytest.mark.parametrize("n", [1024, 2048, 4096])
    def test_outer_logs_keep_the_mean_and_one_frequency(self, n, monkeypatch):
        v, zs = outer_contour_style(n, np.random.default_rng(n))
        c = np.fft.fft(v) / n
        k = 1 + int(np.argmax(np.abs(c[1:n // 2])))
        assert np.flatnonzero(hardy._kept_spectrum(v)[1]).tolist() == [0, k, n - k]
        seen = power_series_sizes(monkeypatch)
        got = poisson_sum(v, zs)
        # the series stops at k and the shell sums k and k + 1 terms
        assert seen and max(terms for terms, _ in seen) <= k + 1
        err = np.max(np.abs(got - poisson_sum_full_spectrum(v, zs)))
        assert err <= 1e-13 * np.max(np.abs(c))

    def test_exact_zeros_go_where_tau_is_zero(self, monkeypatch):
        # n = 96 is no power of two, so tau = 0: a constant's spectrum is c_0
        # and exact zeros, which go, and the shell sums c_0 z**n / (1 - z**n)
        n = 96
        v = np.full(n, -0.25)
        c, kept = hardy._kept_spectrum(v)
        assert np.flatnonzero(kept).tolist() == [0]
        zs = outside_the_band(n, np.random.default_rng(96))
        seen = power_series_sizes(monkeypatch)
        err = np.abs(poisson_sum(v, zs) - long_double_poisson(v, zs)).astype(float)
        assert seen and all(terms == 1 for terms, _ in seen)
        assert np.max(err) <= 1e-14
        # all-zero samples keep nothing, and their sum is exactly 0
        assert not hardy._kept_spectrum(np.zeros(64))[1].any()
        assert not np.any(poisson_sum(np.zeros(64), zs))

    def test_split_fold_matches_the_full_spectrum(self, monkeypatch):
        # a kept frequency on each side of n/2 with a gap between: the shell
        # sums the two short polynomials, one of them times z**(K'-1)
        n = 2048
        rng = np.random.default_rng(23)
        t = TAU * np.arange(n) / n
        v = -0.06 * (1.0 + 0.5 * np.cos(3 * t + 0.7)) + 0.01 * np.sin(200 * t)
        gaps = rng.uniform(8.0, 40.0, 500) / n
        zs = (1.0 - gaps) * np.exp(1j * rng.uniform(0.0, TAU, gaps.size))
        seen = power_series_sizes(monkeypatch)
        got = poisson_sum(v, zs)
        assert sorted({terms for terms, _ in seen}) == [200, 201]
        scale = np.max(np.abs(np.fft.fft(v) / n))
        assert np.max(np.abs(got - poisson_sum_full_spectrum(v, zs))) <= 1e-13 * scale
        err = np.abs(got - long_double_poisson(v, zs)).astype(float)
        assert np.max(err) <= 1e-13 * scale


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
