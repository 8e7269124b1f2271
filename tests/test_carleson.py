import cmath
import math
import tracemalloc

import numpy as np
import pytest

from carleson_kit import carleson
from carleson_kit.carleson import (
    CurveMeasure,
    DiscreteMeasure,
    _kernel_layer,
    carleson_norm,
    embedding_constant_empirical,
    kernel_test_constant,
)
from carleson_kit.disk import (
    dyadic_arc,
    grid_layers,
    hyperbolic_grid,
    in_square,
    polar,
)
from carleson_kit.errors import DomainError

TAU = 2 * math.pi


def test_discrete_measure_validation():
    m = DiscreteMeasure([(0.5, 1.0), (0.2j, 0.5)])
    assert len(m) == 2
    assert m.masses.sum() == pytest.approx(1.5)
    with pytest.raises(DomainError):
        DiscreteMeasure([(0.5, 0.0)])
    with pytest.raises(DomainError):
        DiscreteMeasure([(0.5, -1.0)])
    with pytest.raises(DomainError):
        DiscreteMeasure([(1.5, 1.0)])


@pytest.mark.parametrize("atom", [(complex(math.nan, 0.0), 1.0), (0.5, math.inf),
                                  (0.5, math.nan)])
def test_discrete_measure_refuses_non_finite_atoms(atom):
    # a NaN position passes |z| <= 1 and a NaN mass passes m > 0 unnoticed
    with pytest.raises(DomainError):
        DiscreteMeasure([(0.2, 1.0), atom])


def test_boundary_atoms_are_allowed():
    # singular parts live on the circle; the norm scans closed squares
    m = DiscreteMeasure([(1.0 + 0j, 0.01)])
    assert carleson_norm(m, depth=6) > 0


def test_single_atom_norms_have_closed_forms():
    # an atom at radius r enters squares of depth d while 2^-d >= 1 - r;
    # the best ratio is mass * 2^dmax / (2 pi)
    assert carleson_norm(DiscreteMeasure([(0.5, 1.0)])) == pytest.approx(1 / math.pi)
    assert carleson_norm(DiscreteMeasure([(0.0, 1.0)])) == pytest.approx(1 / TAU)
    rng = np.random.default_rng(3)
    for _ in range(10):
        r = rng.uniform(0.0, 0.95)
        mass = rng.uniform(0.1, 3.0)
        t = rng.uniform(0, TAU)
        dmax = math.floor(-math.log2(1 - r)) if r > 0 else 0
        expect = mass * 2.0**dmax / TAU
        got = carleson_norm(DiscreteMeasure([(r * np.exp(1j * t), mass)]))
        assert got == pytest.approx(expect, rel=1e-12)


def test_atoms_next_to_dyadic_rays_keep_their_arcs():
    # np.angle put this atom in arc 15 of depth 4, whose square then
    # refused it, so the atom was lost at depths 1-4 (1/2pi, not 16/2pi)
    m = DiscreteMeasure([(0.96875 - 2.37e-16j, 1.0)])
    assert carleson_norm(m, 4) == pytest.approx(16 / TAU, rel=1e-15)
    # single atoms within three ulps of dyadic rays, at radius 1 - 2^-k or
    # on the circle: the closed form of test_single_atom_norms_have_closed_forms
    rng = np.random.default_rng(31)
    for _ in range(300):
        depth = int(rng.integers(1, 7))
        theta = TAU * (int(rng.integers(2**depth)) + rng.choice([0.0, 0.5, 1.0])) / 2**depth
        for _ in range(int(rng.integers(0, 4))):
            theta = math.nextafter(theta, math.inf if rng.uniform() < 0.5 else -math.inf)
        k = int(rng.integers(0, 9))
        radius = 1.0 if k == 8 else 1.0 - 2.0**-k
        z, mass = radius * cmath.exp(1j * theta), rng.uniform(0.1, 3.0)
        # |z| is computed: the atom enters depth d while abs(z) >= 1 - 2^-d
        dmax = max(d for d in range(7) if abs(z) >= 1.0 - 2.0**-d)
        got = carleson_norm(DiscreteMeasure([(z, mass)]), 6)
        assert got == pytest.approx(mass * 2.0**dmax / TAU, rel=1e-12)


def test_carleson_norm_is_homogeneous_and_monotone():
    rng = np.random.default_rng(12)
    pts = np.sqrt(rng.uniform(0, 1, 12)) * 0.9 * np.exp(1j * rng.uniform(0, TAU, 12))
    masses = rng.uniform(0.1, 1.0, 12)
    m1 = DiscreteMeasure(list(zip(pts, masses)))
    m2 = DiscreteMeasure(list(zip(pts, 3.0 * masses)))
    n1 = carleson_norm(m1)
    assert carleson_norm(m2) == pytest.approx(3.0 * n1)
    # deeper scans can only find heavier ratios
    assert carleson_norm(m1, depth=6) <= n1 + 1e-12


def test_curve_measure_radial_segment():
    # radial segment reaching 1 - 2^-5: best ratio (1 - 2^-5) / (2 pi) at depth 0
    seg = CurveMeasure([[0.0 + 0j, 0.96875 + 0j]])
    assert carleson_norm(seg) == pytest.approx(0.96875 / TAU, rel=1e-12)


def test_curve_measure_circle_norm_is_radius():
    # every Carleson square of depth d holds an arc of length 2 pi r 2^-d
    r = 0.75
    ts = np.linspace(0, TAU, 513)
    circle = [r * np.exp(1j * t) for t in ts]
    got = carleson_norm(CurveMeasure([circle]), depth=8)
    assert got == pytest.approx(r, abs=2e-3)


def test_curve_norm_is_the_same_in_any_pair_blocks(monkeypatch):
    # np.add.at adds in pair order, as np.bincount does, so the blocks of
    # (segment, arc) pairs cannot change a bit of the norm
    rng = np.random.default_rng(21)
    chains = [(1.0 - rng.uniform(1e-4, 0.3)) * np.exp(1j * np.cumsum(rng.uniform(0.0, 0.05, 400)))
              for _ in range(5)]
    m = CurveMeasure(chains)
    whole = [carleson_norm(m, depth) for depth in (0, 1, 6, 12)]
    monkeypatch.setattr(carleson, "_PAIR_BLOCK", 37)
    assert [carleson_norm(m, depth) for depth in (0, 1, 6, 12)] == whole


def test_curve_norm_memory_is_bounded_by_the_pair_blocks():
    # 200,000 segments next to the circle, one arc each per depth: all pairs
    # at once took 125 MB in the cut arrays of _lengths_in_squares
    ts = TAU * np.arange(200_001) / 200_000
    m = CurveMeasure([(1.0 - 2.0 ** -13) * np.exp(1j * ts)])
    tracemalloc.start()
    try:
        carleson_norm(m, depth=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 80 * 2 ** 20


def _oracle_segment_length(a: complex, b: complex, start: float, length: float) -> float:
    """Length of [a, b] inside the closed square over the arc [start, start +
    length) of turns, one segment at a time in scalars.

    Cuts the segment at its crossings with the inner circle and the two
    boundary rays and tests each piece's midpoint with ``in_square``.
    """
    d = b - a
    seg_len = abs(d)
    if seg_len == 0.0:
        return 0.0
    ts = [0.0, 1.0]
    r0 = max(0.0, 1.0 - length)
    if r0 > 0.0:
        qa = abs(d) ** 2
        qb = 2.0 * (d.conjugate() * a).real
        qc = abs(a) ** 2 - r0 * r0
        disc = qb * qb - 4.0 * qa * qc
        if disc > 0.0:
            sq = math.sqrt(disc)
            ts += [t for t in ((-qb - sq) / (2 * qa), (-qb + sq) / (2 * qa)) if 0.0 < t < 1.0]
    if length < 1.0:
        for theta in (start * TAU, (start + length) * TAU):
            e = complex(math.cos(theta), math.sin(theta))
            denom = (e.conjugate() * d).imag
            if denom != 0.0:
                t = -(e.conjugate() * a).imag / denom
                if 0.0 < t < 1.0:
                    ts.append(t)
    ts.sort()
    total = 0.0
    for t0, t1 in zip(ts, ts[1:]):
        if t1 > t0 and in_square(*polar(a + 0.5 * (t0 + t1) * d), start, length):
            total += (t1 - t0) * seg_len
    return total


def _oracle_mass(polylines, start: float, length: float) -> float:
    return sum(_oracle_segment_length(complex(p), complex(q), start, length)
               for chain in polylines for p, q in zip(chain, chain[1:]))


def _awkward_polylines(rng):
    """Random chains plus the cases where the breakpoint geometry degenerates."""
    def polar(r, t):
        return r * cmath.exp(1j * t)

    chains = []
    for _ in range(3):
        k = int(rng.integers(3, 9))
        chains.append([polar(0.99 * math.sqrt(rng.uniform()), rng.uniform(0, TAU))
                       for _ in range(k)])
    # crossing angle 0, once and back again
    chains.append([polar(rng.uniform(0.3, 0.99), rng.uniform(-0.5, 0.5)) for _ in range(4)])
    # chords whose ends lie near the circle dip below several inner circles
    t = rng.uniform(0, TAU)
    chains.append([polar(0.97, t), polar(0.97, t + 1.2), polar(0.985, t + 1.5)])
    # zero-length segments: repeated vertices
    p, q = polar(0.9, rng.uniform(0, TAU)), polar(0.8, rng.uniform(0, TAU))
    chains.append([p, p, q, q])
    # parallel to the ray at angle 0 (horizontal) and close to the ray at pi/2
    y = rng.uniform(0.1, 0.6)
    chains.append([complex(-0.7, y), complex(0.7, y)])
    chains.append([complex(-0.25, 0.1), complex(-0.25, 0.95)])
    # vertices on dyadic rays (exactly so on the real axis), and a segment
    # along the real axis through the origin
    chains.append([0.5 + 0j, 0.3 + 0.6j, 0.6j, -0.7 + 0j, -0.3 - 0.8j, 0.875 + 0j])
    chains.append([-0.4 + 0j, 0.96 + 0j])
    # a dense zigzag against the circle puts the supremum at a deep arc
    t = rng.uniform(0, TAU)
    chains.append([polar(0.975 if k % 2 else 0.995, t + 0.002 * k) for k in range(120)])
    return chains


def _oracle_norm(chains, depth: int) -> float:
    return max(_oracle_mass(chains, arc.start_turn, arc.normalized_length)
               / (arc.normalized_length * TAU)
               for level in range(depth + 1)
               for arc in (dyadic_arc(level, j) for j in range(1 << level)))


@pytest.mark.parametrize("seed", range(4))
def test_curve_norm_matches_brute_force_oracle(seed):
    chains = _awkward_polylines(np.random.default_rng(seed))
    # the whole set and each chain alone: their suprema sit at different depths
    for part in [chains] + [[c] for c in chains]:
        expect = _oracle_norm(part, depth=6)
        assert carleson_norm(CurveMeasure(part), depth=6) == pytest.approx(expect, rel=1e-12)


def test_curve_mass_in_square_matches_oracle():
    # the curve's length in each square by the norm's own routine, on random
    # arcs of turns, lengths near 1 and the whole circle among them
    rng = np.random.default_rng(77)
    chains = _awkward_polylines(rng)
    a = np.concatenate([np.asarray(c[:-1], dtype=complex) for c in chains])
    d = np.concatenate([np.asarray(c[1:], dtype=complex) for c in chains]) - a
    lengths = np.concatenate([rng.uniform(0.002, 1.0, 40),
                              [1.0 - 1e-3, 1.0 - 1e-9, 1.0 - 2.0**-40, 1.0]])
    for length in lengths:
        start = rng.uniform(0.0, 1.0)
        got = float(carleson._lengths_in_squares(a, d, start, length).sum())
        expect = _oracle_mass(chains, start, length)
        assert got == pytest.approx(expect, rel=1e-12, abs=1e-15)


def test_curve_norm_counts_a_segment_once_per_arc():
    # the chord crosses angle 0, so its angular window meets both depth-0
    # indices 0 and 1, which name the same arc
    ends = np.array([0.5 * cmath.exp(-0.1j), 0.5 * cmath.exp(0.1j)])
    chord = CurveMeasure([ends])
    whole = float(carleson._lengths_in_squares(ends[:1], ends[1:] - ends[:1], 0.0, 1.0)[0])
    assert whole == pytest.approx(math.sin(0.1), rel=1e-12)
    assert carleson_norm(chord, depth=0) == pytest.approx(whole / TAU, rel=1e-12)
    assert carleson_norm(chord, depth=1) == pytest.approx(whole / TAU, rel=1e-12)


def test_curve_measure_requires_interior_vertices():
    with pytest.raises(DomainError):
        CurveMeasure([[0.0 + 0j, 1.0 + 0j]])
    with pytest.raises(DomainError):
        CurveMeasure([np.array([0.0 + 0j, 1.0 + 0j])])
    with pytest.raises(DomainError):  # not a 1-d chain
        CurveMeasure([np.zeros((3, 2))])


def test_curve_measure_array_and_vertex_paths_agree():
    # arrays and plain sequences of vertices go through the same conversion
    chains = _awkward_polylines(np.random.default_rng(5))
    arrays = [np.asarray(c, dtype=complex) for c in chains]
    arrays.append(np.array([0.25, -0.5, 0.75]))  # a real-valued chain
    lists = [list(c) for c in arrays]
    lists[0] = [complex(p) for p in lists[0]]
    fast, slow = CurveMeasure(arrays), CurveMeasure(lists)
    assert len(fast.polylines) == len(slow.polylines) == len(arrays)
    for a, b in zip(fast.polylines, slow.polylines):
        assert a.dtype == b.dtype == complex
        assert a.tobytes() == b.tobytes()
    # the measure keeps its own copy of an array chain
    arrays[1][0] = 0.0
    assert fast.polylines[1].tobytes() == slow.polylines[1].tobytes()


def test_kernel_test_constant_single_atom():
    # sup_lam mass (1-|lam|^2)/|1-conj(lam) a|^2 = mass/(1-|a|^2), at lam = a
    assert kernel_test_constant(DiscreteMeasure([(0.5, 1.0)])) == pytest.approx(4 / 3)
    rng = np.random.default_rng(23)
    for _ in range(8):
        a = complex(*rng.uniform(-0.6, 0.6, 2))
        mass = rng.uniform(0.2, 2.0)
        got = kernel_test_constant(DiscreteMeasure([(a, mass)]))
        assert got == pytest.approx(mass / (1 - abs(a) ** 2), rel=1e-12)
    # an atom on the circle peaks at the outermost layer's grid point r:
    # (1 - r^2) / (1 - r)^2 = (1 + r) / (1 - r)
    r = grid_layers()[-1][0]
    got = kernel_test_constant(DiscreteMeasure([(1j, 1.0)]))
    assert got == pytest.approx((1.0 + r) / (1.0 - r), rel=1e-12)


def _direct_kernel_sums(measure, lam):
    """The kernel test's former direct sum, in chunks of 4096 grid points:
    sum_i mass_i (1 - |lam|^2) / |1 - conj(lam) point_i|^2 at each lam.
    |lam| is taken by hypot, as the library takes it: 1 - |lam|^2 cancels
    near the circle, so numpy's SIMD abs (a last bit off) would move the sum
    at lam 1e-6 from the circle by about 1e-10 relative."""
    out = np.empty(lam.size)
    for i in range(0, lam.size, 4096):
        chunk = lam[i : i + 4096, None]
        radius = np.hypot(chunk.real, chunk.imag)
        kern = (1.0 - radius ** 2) / np.abs(1.0 - np.conj(chunk) * measure.points) ** 2
        out[i : i + 4096] = kern @ measure.masses
    return out


def _disk_atoms(rng, n, r_max=1.0):
    radius = np.sqrt(rng.uniform(0.0, 1.0, n)) * r_max
    return list(zip(radius * np.exp(1j * rng.uniform(0.0, TAU, n)), rng.uniform(0.1, 2.0, n)))


def _kernel_oracle_measures():
    rng = np.random.default_rng(61)
    cases = {
        "boundary-atom": [(1.0, 1.0)],
        "origin-atom": [(0.0, 2.5)],
        "origin-and-boundary": [(0.0, 1.0), (1j, 0.5), (cmath.exp(2j), 1e-3), (0.5, 0.25)],
    }
    # 200 atoms 1e-6 from the circle, in a cluster 0.01 rad wide
    theta = 0.7 + rng.uniform(0.0, 0.01, 200)
    cases["boundary-cluster"] = list(zip((1.0 - 1e-6) * np.exp(1j * theta),
                                         rng.uniform(0.5, 1.5, 200)))
    # atoms on the rays of the grid, some of them at grid points
    rays = []
    for r, n in grid_layers()[::2]:
        ks = rng.integers(0, n, 4)
        rays += [(r * cmath.exp(1j * TAU * k / n), 0.3) for k in ks]
        rays += [(rng.uniform(0.0, 1.0) * cmath.exp(1j * TAU * k / n), 0.2) for k in ks]
        rays.append((cmath.exp(1j * TAU * ks[0] / n), 0.1))
    cases["grid-rays"] = rays
    pts = rng.uniform(0.0, 1.0, 150) ** 0.25 * np.exp(1j * rng.uniform(0.0, TAU, 150))
    cases["six-decades"] = list(zip(pts, 10.0 ** rng.uniform(-6.0, 0.0, 150)))
    for n in (1, 31, 32, 33, 400):  # one, and either side of a block edge
        atoms = _disk_atoms(rng, n)
        if n > 1:
            atoms[0] = (cmath.exp(1j * rng.uniform(0.0, TAU)), atoms[0][1])
        cases[f"disk-{n}"] = atoms
    cases["inner-33"] = _disk_atoms(rng, 33, r_max=0.6)
    return cases


_KERNEL_ORACLE = _kernel_oracle_measures()


@pytest.mark.parametrize("name", sorted(_KERNEL_ORACLE))
def test_kernel_test_constant_matches_direct_sum(name):
    measure = DiscreteMeasure(_KERNEL_ORACLE[name])
    order = np.argsort(np.abs(measure.points), kind="stable")
    points, masses = measure.points[order], measure.masses[order]
    # each layer within 1e-11 of its largest value: far from the mass the
    # values are small differences of the series' terms
    for r, n in grid_layers():
        want = _direct_kernel_sums(measure, r * np.exp(1j * TAU * np.arange(n) / n))
        got = _kernel_layer(points, masses, r, n)
        assert np.max(np.abs(got - want)) <= 1e-11 * want.max(), (r, n)
    interior = measure.points[np.abs(measure.points) < 1.0 - 1e-12]
    want = _direct_kernel_sums(measure, np.concatenate([hyperbolic_grid(), interior])).max()
    assert abs(kernel_test_constant(measure) - want) <= 1e-12 * want


def test_embedding_constant_small_cases():
    # degree 0: the form is just the total mass
    m = DiscreteMeasure([(0.5, 1.0), (-0.3, 0.25)])
    assert embedding_constant_empirical(m, 0) == pytest.approx(1.25)
    # atom at the origin only sees the constant coefficient
    m0 = DiscreteMeasure([(0.0, 2.0)])
    assert embedding_constant_empirical(m0, 5) == pytest.approx(2.0)


def test_three_constants_stay_comparable():
    rng = np.random.default_rng(40)
    for _ in range(5):
        n = int(rng.integers(2, 20))
        pts = np.sqrt(rng.uniform(0, 1, n)) * 0.95 * np.exp(1j * rng.uniform(0, TAU, n))
        masses = rng.uniform(0.05, 1.0, n)
        m = DiscreteMeasure(list(zip(pts, masses)))
        vals = [
            carleson_norm(m),
            kernel_test_constant(m),
            embedding_constant_empirical(m, 64),
        ]
        assert min(vals) > 0
        assert max(vals) / min(vals) <= 100.0


def test_empty_measure_constants_vanish():
    m = DiscreteMeasure([])
    assert kernel_test_constant(m) == 0.0
    assert embedding_constant_empirical(m, 8) == 0.0
    assert carleson_norm(m) == 0.0
