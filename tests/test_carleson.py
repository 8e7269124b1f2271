import cmath
import math
import random
import tracemalloc

import numpy as np
import pytest

from carleson_kit import carleson, disk
from carleson_kit.blaschke import interpolation_constants
from carleson_kit.carleson import (
    MAX_DEPTH,
    CurveMeasure,
    DiscreteMeasure,
    _kernel_layers,
    carleson_norm,
    embedding_constant_empirical,
    kernel_test_constant,
)
from carleson_kit.contour import BoundedFunction, ContourConstants, _polylines, bourgain_contour
from carleson_kit.disk import (
    dyadic_arc,
    dyadic_index,
    grid_layers,
    hyperbolic_grid,
    in_square,
    one_minus_sq,
    polar,
)
from carleson_kit.errors import DomainError
from oracles import ci_zeros, exact_one_minus_sq, kernel_sum_oracle

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
        segs = _segments(a, a + d)
        starts = np.full(a.size, start)
        got = float(carleson._lengths_in_squares(segs, starts, length,
                                                 _rays(starts, length)).sum())
        expect = _oracle_mass(chains, start, length)
        assert got == pytest.approx(expect, rel=1e-12, abs=1e-15)


def test_curve_norm_counts_a_segment_once_per_arc():
    # the chord crosses angle 0, so its angular window meets both depth-0
    # indices 0 and 1, which name the same arc
    ends = np.array([0.5 * cmath.exp(-0.1j), 0.5 * cmath.exp(0.1j)])
    chord = CurveMeasure([ends])
    whole = float(carleson._lengths_in_squares(_segments(ends[:1], ends[1:]), np.zeros(1), 1.0,
                                               _rays(np.zeros(1), 1.0))[0])
    assert whole == pytest.approx(math.sin(0.1), rel=1e-12)
    assert carleson_norm(chord, depth=0) == pytest.approx(whole / TAU, rel=1e-12)
    assert carleson_norm(chord, depth=1) == pytest.approx(whole / TAU, rel=1e-12)


def _segments(a, b):
    """The segments from ``a`` to ``b`` as ``carleson_norm`` hands them on."""
    return carleson._Segments.between(a, b, polar(a)[1])


def _rays(start, length):
    """Cosines and sines of the angles of the ends of the arcs [start, start + length)."""
    angles = TAU * np.stack((start, start + length))
    return np.cos(angles), np.sin(angles)


def _sorted_lengths(a, d, start, length):
    """The curve norm's kernel as it was before the no-cut rule: every
    segment sorts its cuts.  Kept here as the bit-for-bit reference."""
    seg_len = np.hypot(d.real, d.imag)
    r0 = max(0.0, 1.0 - length)
    cuts = [np.zeros_like(seg_len), np.ones_like(seg_len)]
    with np.errstate(divide="ignore", invalid="ignore"):
        if r0 > 0.0:
            qa = seg_len ** 2
            qb = 2.0 * (d.real * a.real + d.imag * a.imag)
            qc = np.hypot(a.real, a.imag) ** 2 - r0 * r0
            disc = qb * qb - 4.0 * qa * qc
            sq = np.sqrt(disc)
            for t in ((-qb - sq) / (2.0 * qa), (-qb + sq) / (2.0 * qa)):
                cuts.append(np.where(disc > 0.0, t, 1.0))
        if length < 1.0:
            for turn in (start, start + length):
                c, s = np.cos(TAU * turn), np.sin(TAU * turn)
                denom = c * d.imag - s * d.real
                t = -(c * a.imag - s * a.real) / denom
                cuts.append(np.where(denom != 0.0, t, 1.0))
    ts = np.sort(np.clip(np.column_stack(cuts), 0.0, 1.0), axis=1)
    t0, t1 = ts[:, :-1], ts[:, 1:]
    u, r = polar(a[:, None] + 0.5 * (t0 + t1) * d[:, None])
    inside = (t1 > t0) & in_square(u, r, np.reshape(start, (-1, 1)), length)
    return (np.where(inside, t1 - t0, 0.0) * seg_len[:, None]).sum(axis=1)


def _all_pairs_norm(measure: CurveMeasure, depth: int) -> tuple[float, int]:
    """The curve norm as it was before the segment blocks: all (segment,
    arc) pairs of a depth at once through ``_sorted_lengths``, added by
    ``np.add.at`` in pair order.  Returns the norm and the number of pairs."""
    a = np.concatenate([c[:-1] for c in measure.polylines])
    b = np.concatenate([c[1:] for c in measure.polylines])
    d = b - a
    ta, ra = polar(a)
    tb, rb = polar(b)
    fwd = (tb - ta) % 1.0
    short = fwd <= 1.0 - fwd
    w_start = np.where(short, ta, tb)
    w_end = w_start + np.where(short, fwd, 1.0 - fwd)
    max_radius = np.maximum(ra, rb)
    best, pairs = 0.0, 0
    for level in range(depth + 1):
        n = 1 << level
        alive = np.flatnonzero(max_radius >= 1.0 - 1.0 / n)
        if alive.size == 0:
            continue
        j0 = dyadic_index(w_start[alive], level)
        j1 = dyadic_index(w_end[alive], level)
        count = np.minimum(j1 - j0 + 1, n)
        seg = np.repeat(alive, count)
        offset = np.arange(seg.size) - np.repeat(np.cumsum(count) - count, count)
        j = (np.repeat(j0, count) + offset) % n
        mass = np.zeros(n)
        np.add.at(mass, j, _sorted_lengths(a[seg], d[seg], j / n, 1.0 / n))
        best = max(best, float(mass.max()) / (TAU / n))
        pairs += seg.size
    return best, pairs


@pytest.fixture
def sorted_rows(monkeypatch):
    """Counts the segments that sort their cuts, in ``carleson._lengths_of_pieces``."""
    rows = []
    pieces = carleson._lengths_of_pieces

    def counted(seg, *args):
        rows.append(seg.a.size)
        return pieces(seg, *args)

    monkeypatch.setattr(carleson, "_lengths_of_pieces", counted)
    return rows


# (a, b, depth, arc index, whether its cuts are sorted): rows where the
# cut structure degenerates
_PLANTED = [
    # an end exactly on the ray at turn 0, which cuts it at t = -0.0: as
    # the start of arc 0, and as the end, turn 1, of arc 3
    (0.9 + 0j, 0.85 + 0.2j, 2, 0, False),
    (0.9 + 0j, 0.85 + 0.2j, 2, 3, False),
    # a chord whose ends lie above the inner circle |z| = 7/8 while its
    # middle dips below it to |z| = 0.9 cos(1/2)
    (0.9 * cmath.exp(0.2j), 0.9 * cmath.exp(1.2j), 3, 0, True),
    (0.9 * cmath.exp(0.2j), 0.9 * cmath.exp(1.2j), 3, 1, True),
    # a zero-length segment: no cut exists
    (0.9 * cmath.exp(0.3j), 0.9 * cmath.exp(0.3j), 2, 0, False),
    # a segment along the ray at turn 0, parallel to its cut line
    (0.8 + 0j, 0.95 + 0j, 2, 0, False),
    (0.8 + 0j, 0.95 + 0j, 2, 3, False),
]


@pytest.mark.parametrize("a, b, depth, j, sorts", _PLANTED)
def test_planted_segments_take_their_path_bit_for_bit(sorted_rows, a, b, depth, j, sorts):
    a, b = np.array([a]), np.array([b])
    start, length = np.array([j / 2 ** depth]), 1.0 / 2 ** depth
    got = carleson._lengths_in_squares(_segments(a, b), start, length, _rays(start, length))
    want = _sorted_lengths(a, b - a, start, length)
    assert got.tobytes() == want.tobytes()
    assert sum(sorted_rows) == int(sorts)
    expect = _oracle_segment_length(complex(a[0]), complex(b[0]), float(start[0]), length)
    assert got[0] == pytest.approx(expect, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("block", [None, 37])
def test_curve_norm_is_the_all_pairs_norm_bit_for_bit(monkeypatch, sorted_rows, block):
    # the no-cut rule, the per-arc rays and the segment blocks change no
    # bit of the norm, in the default blocks and in blocks of 37
    if block is not None:
        monkeypatch.setattr(carleson, "_PAIR_BLOCK", block)
    planted = [[a, b] for a, b, *_ in _PLANTED]
    pairs = 0
    for seed in range(8):
        measure = CurveMeasure(_awkward_polylines(np.random.default_rng(seed)) + planted)
        for depth in (0, 1, 6, 12):
            want, count = _all_pairs_norm(measure, depth)
            assert carleson_norm(measure, depth) == want
            pairs += count
    # both paths ran: pairs that no cut crosses, and pairs that sort their cuts
    assert 0 < sum(sorted_rows) < pairs


def test_curve_norm_memory_on_the_large_contour_input():
    # the boundary of the 2,000-zero contour input of CI's large-input
    # step: the segment blocks bound the per-segment arrays and the pair
    # index arrays, which for all 512,000 segments at once peaked at 105 MB
    result = bourgain_contour(BoundedFunction(zeros=ci_zeros(2000)), 0.1)
    curve = CurveMeasure(_polylines(result.region, result.arcs))
    assert sum(c.size - 1 for c in curve.polylines) == 512_000
    tracemalloc.start()
    try:
        carleson_norm(curve, depth=12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 60 * 2 ** 20


def test_curve_measure_requires_interior_vertices():
    with pytest.raises(DomainError):
        CurveMeasure([[0.0 + 0j, 1.0 + 0j]])
    with pytest.raises(DomainError):
        CurveMeasure([np.array([0.0 + 0j, 1.0 + 0j])])
    with pytest.raises(DomainError):  # not a 1-d chain
        CurveMeasure([np.zeros((3, 2))])


def test_curve_vertex_modulus_is_taken_once(monkeypatch):
    # the open-disk refusal and the norm's polar coordinates share it
    circle = 0.9 * np.exp(1j * TAU * np.arange(257) / 256)
    want = carleson_norm(CurveMeasure([circle]), depth=8)
    sizes = []

    def counted(z):
        sizes.append(np.size(z))
        return np.hypot(z.real, z.imag)

    monkeypatch.setattr(disk, "_modulus", counted)
    assert carleson_norm(CurveMeasure([circle]), depth=8) == want
    assert sizes.count(circle.size) == 1


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
    # chains of fewer than two vertices carry no length and are dropped
    assert CurveMeasure([]).polylines == CurveMeasure([[0.5j], []]).polylines == ()


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
    """The kernel test's direct sum, in chunks of 4096 grid points:
    sum_i mass_i (1 - |lam|^2) / |1 - conj(lam) point_i|^2 at each lam,
    with |1 - conj(a) b|^2 = (1 - |a|^2)(1 - |b|^2) + |a - b|^2 and every
    1 - |z|^2 exact (``oracles.exact_one_minus_sq``): the complex product
    1 - conj(lam) p would cancel at lam = p 1e-6 from the circle, and move
    the sum there by about 1e-10 relative."""
    out = np.empty(lam.size)
    d_points = exact_one_minus_sq(measure.points)
    for i in range(0, lam.size, 4096):
        chunk = lam[i : i + 4096, None]
        d_chunk = exact_one_minus_sq(chunk)
        kern = d_chunk / (d_chunk * d_points + np.abs(chunk - measure.points) ** 2)
        out[i : i + 4096] = kern @ measure.masses
    return out


def _disk_atoms(rng, n, r_max=1.0):
    radius = np.sqrt(rng.uniform(0.0, 1.0, n)) * r_max
    return list(zip(radius * np.exp(1j * rng.uniform(0.0, TAU, n)), rng.uniform(0.1, 2.0, n)))


def _ring_atoms():
    """8 atoms at pseudo-hyperbolic distance 0.3 around the layer-5 grid
    point r = 1 - 0.75 * 2^-5 at angle 0, each of mass 0.01 (1 - |p|^2).
    The kernel test at r reads 0.01 * 8 * (1 - 0.3^2) = 0.0728, above every
    atom (at most 0.0668) and the origin: the supremum is on the grid."""
    r = grid_layers()[5][0]
    atoms = []
    for k in range(8):
        z = 0.3 * cmath.exp(1j * TAU * k / 8)
        p = (r + z) / (1.0 + r * z)
        atoms.append((p, 0.01 * (1.0 - abs(p) ** 2)))
    return atoms


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
    for n in (1, 31, 32, 33, 400):  # one atom, part of a block, and many blocks
        atoms = _disk_atoms(rng, n)
        if n > 1:
            atoms[0] = (cmath.exp(1j * rng.uniform(0.0, TAU)), atoms[0][1])
        cases[f"disk-{n}"] = atoms
    cases["inner-33"] = _disk_atoms(rng, 33, r_max=0.6)
    block = carleson._KERNEL_BLOCK
    for n in (block - 1, block, block + 1):  # either side of a power table's edge
        atoms = _disk_atoms(rng, n)
        atoms[0] = (cmath.exp(1j * rng.uniform(0.0, TAU)), atoms[0][1])
        cases[f"disk-{n}"] = atoms
    # a whole block at the origin, which the layer series skips, then atoms
    # at the origin that share a block with nonzero ones
    cases["origin-block"] = [(0.0, 0.5)] * (block + 5) + _disk_atoms(rng, 2 * block, 0.9)
    # a block at radius 0.995 keeps the closed form up to layer 9 and
    # truncates layer 10's series; a block at 0.999 takes every layer in the
    # closed form, up to n = 8192
    for radius in (0.995, 0.999):
        theta = rng.uniform(0.0, TAU, block)
        cases[f"radius-{radius}"] = list(zip(radius * np.exp(1j * theta),
                                             rng.uniform(0.1, 2.0, block)))
    cases["radius-0.995"] += _disk_atoms(rng, block, 0.5)
    cases["radius-0.999"] += cases["radius-0.995"]
    cases["ring-layer-5"] = _ring_atoms()
    return cases


_KERNEL_ORACLE = _kernel_oracle_measures()


@pytest.mark.parametrize("name", sorted(_KERNEL_ORACLE))
def test_kernel_test_constant_matches_direct_sum(name):
    measure = DiscreteMeasure(_KERNEL_ORACLE[name])
    order = np.argsort(np.abs(measure.points), kind="stable")
    points, masses = measure.points[order], measure.masses[order]
    # each layer within 1e-11 of its largest value: far from the mass the
    # values are small differences of the series' terms
    layers = grid_layers()
    values = _kernel_layers(points, one_minus_sq(points), masses, range(len(layers)))
    assert len(values) == len(layers)
    for (r, n), got in zip(layers, values):
        want = _direct_kernel_sums(measure, r * np.exp(1j * TAU * np.arange(n) / n))
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-11 * want.max(), (r, n)
    interior = measure.points[one_minus_sq(measure.points) > 2.0 ** -52]
    want = _direct_kernel_sums(measure, np.concatenate([hyperbolic_grid(), interior])).max()
    assert abs(kernel_test_constant(measure) - want) <= 1e-12 * want


def test_kernel_layers_cover_both_series_forms():
    # the layer series keeps the powers s <= J of a block whose largest |w|
    # is rho, and takes the closed form where J >= n: the radius cases of
    # the oracle above hold a block of each kind named there
    def forms(radius):
        rho = np.array([r for r, _ in grid_layers()]) * radius
        terms = np.ceil(np.log(carleson._KERNEL_TAIL * (1.0 - rho)) / np.log(rho))
        return (terms >= [n for _, n in grid_layers()]).tolist()

    assert forms(0.995) == [True] * 10 + [False]
    assert forms(0.999) == [True] * 11


def test_kernel_test_constant_is_exact_on_the_boundary_cluster():
    # 200 atoms 1e-6 from the circle: 1 - r^2 put the constant 2.9e-11
    # relative from the exact 1724437.43994892...; the supremum is at an
    # atom, where the exact-rational sums (each term rounded once, then
    # math.fsum) are within u of the exact ones
    measure = DiscreteMeasure(_KERNEL_ORACLE["boundary-cluster"])
    exact = max(kernel_sum_oracle(lam, measure.points, measure.masses)
                for lam in measure.points)
    assert _direct_kernel_sums(measure, hyperbolic_grid()).max() < exact / 2
    assert abs(kernel_test_constant(measure) - exact) <= 1e-15 * exact


@pytest.mark.parametrize("k", [39, 40, 50])
def test_kernel_test_evaluates_atoms_next_to_the_circle(k):
    # 20 atoms at 1 - 2^-k with masses 1 - |z|^2, next to one atom on the
    # circle: each of the 20 takes its own term 1 at itself, so the
    # constant is at least 1 however close they lie to the circle (from
    # k = 40 on, a cut at |z| < 1 - 1e-12 read 5e-9 and 5e-12).  The atom
    # on the circle is no grid point, nor is one whose cosine and sine put
    # it an ulp inside
    r = 1.0 - 2.0 ** -k
    points = r * np.exp(1j * np.linspace(0.1, 6.0, 20))
    masses = one_minus_sq(points)
    atoms = list(zip(points.tolist(), masses.tolist()))
    for rim in (1.0, cmath.exp(3.009j)):
        assert 0.0 <= one_minus_sq(rim) < 2.0 ** -53
        measure = DiscreteMeasure(atoms + [(rim, float(masses[0]))])
        assert 1.0 <= kernel_test_constant(measure) < 1.0 + 1e-12


@pytest.mark.parametrize("size", [1, 2, 7, 63, 64, 65, 150, 400])
def test_kernel_test_constant_symmetry(size):
    # the grid maps onto itself under z -> -z (every layer's n is even) and
    # z -> conj(z), and so do the interior atoms: the constant must not move.
    # Inside the disk the supremum falls on an interior atom; an atom on the
    # circle moves it onto the grid's outermost layer.
    rng = np.random.default_rng(1000 + size)
    inner = _disk_atoms(rng, size, r_max=0.99)
    rim = [(cmath.exp(1j * rng.uniform(0.0, TAU)), 1.0)] + inner[1:]
    for atoms in (inner, rim):
        want = kernel_test_constant(DiscreteMeasure(atoms))
        for image in (lambda z: -z, np.conj):
            got = kernel_test_constant(DiscreteMeasure([(image(p), m) for p, m in atoms]))
            assert abs(got - want) <= 1e-13 * want


def test_kernel_test_constant_memory_is_bounded():
    # the direct sum at the interior atoms takes chunks of under
    # disk._BLAS_SERIAL kernel values (4 MiB a complex temporary), whatever
    # the number of atoms
    rng = np.random.default_rng(4000)
    measure = DiscreteMeasure(_disk_atoms(rng, 4000, r_max=0.99))
    tracemalloc.start()
    try:
        kernel_test_constant(measure)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2 ** 20


def _corpus_like(seed, n):
    """n atoms area-uniform in |z| <= 0.99 with masses (1 - |z|) U(0.5, 1.5),
    the law of the benchmark's diagnostics carleson strata."""
    rng = np.random.default_rng(seed)
    z = 0.99 * np.sqrt(rng.uniform(0.0, 1.0, n)) * np.exp(1j * rng.uniform(0.0, TAU, n))
    return list(zip(z, (1.0 - np.abs(z)) * rng.uniform(0.5, 1.5, n)))


_PRUNE_CASES = {
    **{f"oracle-{name}": atoms for name, atoms in _KERNEL_ORACLE.items()},
    **{f"corpus-{n}-{seed}": _corpus_like(seed, n) for n in (100, 200, 400) for seed in range(3)},
}


def _unpruned_kernel_test(measure):
    """The kernel test with every grid layer summed: the origin, the interior
    atoms and all eleven layers of ``_kernel_layers``, in the library's order."""
    order = np.argsort(np.abs(measure.points), kind="stable")
    points, masses = measure.points[order], measure.masses[order]
    defects = one_minus_sq(points)
    best = float(masses.sum())
    inner = int(np.count_nonzero(np.abs(points) < 1.0 - 1e-12))
    if inner:
        best = max(best, float(disk._kernel_sums(points[:inner], defects[:inner], points,
                                                 defects, masses).max()))
    for values in _kernel_layers(points, defects, masses, range(len(grid_layers()))):
        best = max(best, float(values.max()))
    return best


def _record_layers(monkeypatch):
    """Patch the kernel test to record the layer indices it sums."""
    listed = []

    def recording(points, defects, masses, layers):
        listed.append(np.asarray(layers).tolist())
        return _kernel_layers(points, defects, masses, layers)

    monkeypatch.setattr(carleson, "_kernel_layers", recording)
    return listed


@pytest.mark.parametrize("name", sorted(_PRUNE_CASES))
def test_kernel_test_constant_equals_the_unpruned_route(name):
    # the layer bound only chooses which layers are summed: the constant is
    # the unpruned route's float, bit for bit
    measure = DiscreteMeasure(_PRUNE_CASES[name])
    assert kernel_test_constant(measure).hex() == _unpruned_kernel_test(measure).hex()


@pytest.mark.parametrize("n", [100, 200, 400])
def test_kernel_test_skips_the_outer_layers_on_corpus_like_measures(n, monkeypatch):
    # the supremum sits at an atom, and no layer from 5 on can reach it;
    # layer 4 now and then can (1 of the benchmark's 48 measures)
    listed = _record_layers(monkeypatch)
    for seed in range(8):
        kernel_test_constant(DiscreteMeasure(_corpus_like(100 + seed, n)))
    assert len(listed) == 8
    assert all(set(layers) <= {0, 1, 2, 3, 4} for layers in listed), listed
    assert sum(4 in layers for layers in listed) <= 1, listed


def test_kernel_test_sums_a_layer_within_the_pad_of_the_supremum(monkeypatch):
    # plant the running supremum through the atoms' sum, just above the
    # largest layer bound U (layer 5's): the layer is summed while
    # fl(U (1 + pad)) >= best, and skipped once best is one float above that
    measure = DiscreteMeasure(_ring_atoms())
    bounds = carleson._layer_bounds(np.abs(measure.points), measure.masses)
    assert np.argmax(bounds) == 5
    edge = (1.0 + carleson._LAYER_PAD) * bounds[5]
    listed = _record_layers(monkeypatch)
    plants = (bounds[5] * (1.0 + carleson._LAYER_PAD / 2), edge, np.nextafter(edge, np.inf))
    for best in plants:
        monkeypatch.setattr(carleson, "_kernel_sums", lambda *args, best=best: np.array([best]))
        assert kernel_test_constant(measure) == best
    assert bounds[5] < plants[0] < edge
    assert listed == [[5], [5], []]


def test_kernel_test_keeps_a_layer_that_holds_the_supremum(monkeypatch):
    # _ring_atoms: the layer-5 grid point beats every atom, so the bound must
    # keep layer 5 (the direct-sum oracle above checks the constant)
    measure = DiscreteMeasure(_ring_atoms())
    at_atoms = _direct_kernel_sums(measure, measure.points).max()
    at_point = _direct_kernel_sums(measure, np.array([grid_layers()[5][0] + 0j]))[0]
    grid = _direct_kernel_sums(measure, np.concatenate([hyperbolic_grid(), measure.points]))
    assert at_atoms < 0.0668 < 0.0728 == pytest.approx(at_point, abs=1e-15)
    assert grid.max() == at_point
    listed = _record_layers(monkeypatch)
    kernel_test_constant(measure)
    assert 5 in listed[0]


def _quarter_turn(atoms):
    """z -> i z, exact in floating point: x + i y goes to -y + i x."""
    return [(complex(-complex(p).imag, complex(p).real), m) for p, m in atoms]


@pytest.mark.parametrize("name", [
    "oracle-ring-layer-5", "oracle-disk-31", "oracle-disk-400", "oracle-grid-rays",
    *(f"corpus-{n}-{seed}" for n in (100, 200, 400) for seed in range(3))])
def test_kernel_test_constant_is_invariant_under_a_quarter_turn(name):
    # every layer has 8 * 2^m angles, a multiple of 4, so z -> i z maps the
    # grid onto itself, and the atoms exactly: the constant moves by at most
    # 8 u (measured: at most 1.9 u on 60 seeded measures with atoms on the
    # circle, where a layer holds the supremum, as in the disk and ray cases)
    atoms = _PRUNE_CASES[name]
    want = kernel_test_constant(DiscreteMeasure(atoms))
    got = kernel_test_constant(DiscreteMeasure(_quarter_turn(atoms)))
    assert abs(got - want) <= 8 * 2.0 ** -53 * want


def test_dyadic_norm_is_not_invariant_under_a_quarter_turn():
    # the baseline of the quarter turn: it maps the dyadic arcs of depth
    # >= 2 onto dyadic arcs, but not the two half circles, so the dyadic
    # norm of a sequence measure sum (1 - |z|^2) delta_z moves where a half
    # circle holds its supremum
    rng = np.random.default_rng(12)
    moves = []
    for _ in range(16):
        z = 0.9 * np.sqrt(rng.uniform(0.0, 1.0, 6)) * np.exp(1j * rng.uniform(0.0, TAU, 6))
        atoms = list(zip(z, one_minus_sq(z)))
        want = carleson_norm(DiscreteMeasure(atoms))
        moves.append(abs(carleson_norm(DiscreteMeasure(_quarter_turn(atoms))) - want) / want)
    assert max(moves) > 0.1


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


def _polygon(centre, radius):
    """A closed 256-gon around ``centre``, as the contour draws a circle
    that no other disk meets: the first vertex repeated at the end."""
    angles = TAU * (np.arange(256) + 0.5) / 256
    verts = centre + radius * np.exp(1j * np.append(angles, angles[0]))
    verts[-1] = verts[0]
    return verts


def _cross(e, z):
    """e x z: the signed distance of z from the line along the unit vector e."""
    return (e.conjugate() * z).imag


#: the radius of the planted polygons; the corpus's are about 3e-5 across
_RHO = 1.5e-5
#: gaps, from the ray or the circle, at and around the pad
_GAPS = [sign * gap for gap in (1e-13, 1e-9, 1e-6) for sign in (1, -1)]


def _planted_polygons():
    """Closed 256-gons planted at each of ``_GAPS`` against the ray at turn
    1/8 and the inner circle |z| = 7/8 of depth 3, on the side of the
    square over arc 1 (gap > 0) or across (gap < 0):

    - ray: from the left of the ray, in arc 1, and its mirror image across
      the ray, in arc 0;
    - circle: the least modulus is 7/8 + gap;
    - inside: the greatest modulus is 7/8 + gap, so at gap < 0 the polygon
      never reaches the layer of depth 3.

    The gap is measured from the polygon's bounding disk of
    ``_curve_norm`` (centre the first vertex, radius half the perimeter),
    which decides whole, straddling or dropped, or from the polygon itself,
    whose cuts then nearly touch its vertices.  Returns (kind, gap,
    polygon) triples, kind such as "ray-disk" or "inside-polygon"."""
    base = _polygon(0.0, _RHO)
    half = float(np.hypot(np.diff(base).real, np.diff(base).imag).sum()) / 2
    v0 = base[0]
    ray = cmath.exp(1j * TAU / 8)  # arc 1 of depth 3 lies on its left
    mid = cmath.exp(1j * TAU * 3 / 16)  # the middle of arc 1
    r0 = 7.0 / 8.0

    def shifted(poly, target, extreme):
        # the extreme vertex modulus moves with a radial shift to second order
        for _ in range(3):
            poly = poly + (target - extreme(np.abs(poly))) * mid
        return poly

    out = []
    for gap in _GAPS:
        for kind, offset in (("disk", half + gap - _cross(ray, v0)),
                             ("polygon", gap - _cross(ray, base).min())):
            poly = 0.95 * ray + 1j * ray * offset + base
            out.append((f"ray-{kind}", gap, poly))
            out.append((f"mirror-{kind}", gap, ray * ray * poly.conjugate()))
        out.append(("circle-disk", gap, (r0 + half + gap) * mid - v0 + base))
        out.append(("circle-polygon", gap, shifted((r0 + _RHO) * mid + base, r0 + gap, np.min)))
        out.append(("inside-disk", gap, (r0 - half + gap) * mid - v0 + base))
        out.append(("inside-polygon", gap, shifted((r0 - _RHO) * mid + base, r0 + gap, np.max)))
    out.append(("around the origin", None, _polygon(0.0, 0.5)))
    out.append(("across turn 0", None, _polygon(0.97, 1e-5)))
    return out


@pytest.fixture
def straddling(monkeypatch):
    """Records (depth, segments) of each straddling phase of the curve norm."""
    calls = []
    pairs = carleson._straddling_pairs

    def counted(vertices, turn, modulus, segs, ahead, level):
        calls.append((level, segs.size))
        return pairs(vertices, turn, modulus, segs, ahead, level)

    monkeypatch.setattr(carleson, "_straddling_pairs", counted)
    return calls


def test_planted_polygons_keep_their_bits_at_the_pad(straddling):
    # each polygon alone, and the groups in arc 1 and in arc 0, where
    # whole and straddling polygons add to one arc in turn, and all at
    # once; at depths 0 and 1 (every polygon is whole at 0, and the one
    # across turn 0 repeats an arc at 1), at the planted depth 3, whose arc
    # then holds the norm, and at 12: the broad phase changes no bit
    planted = _planted_polygons()
    groups = [("arc 1", [p for kind, _, p in planted if kind.split("-")[0] in
                         ("ray", "circle", "inside")]),
              ("arc 0", [p for kind, _, p in planted if kind.startswith("mirror")]),
              ("all", [p for *_, p in planted])]
    pairs = straddled = 0
    for kind, gap, polylines in [(k, g, [p]) for k, g, p in planted] + [
            (name, None, ps) for name, ps in groups]:
        measure = CurveMeasure(polylines)
        for depth in (0, 1, 3, 12):
            straddling.clear()
            want, count = _all_pairs_norm(measure, depth)
            assert carleson_norm(measure, depth) == want, (kind, gap, depth)
            pairs += count
            straddled += sum(size for _, size in straddling)
        # the depth-12 run: whether a segment straddled at depth 3
        at_3 = any(level == 3 and size for level, size in straddling)
        if kind.endswith("-disk") and abs(gap) == 1e-6 and (gap > 0) != kind.startswith("inside"):
            assert not at_3, (kind, gap)  # whole, or dropped: the disk clears the pad
        if kind.endswith("-polygon") and (gap > 0 or not kind.startswith("inside")):
            assert at_3, (kind, gap)  # its disk crosses the ray or the circle
        if gap is not None and gap < 0 and not kind.startswith("inside"):
            assert at_3, (kind, gap)  # the polygon itself crosses
        if kind == "around the origin":
            # its disk holds the origin; from depth 2 on no segment reaches 3/4
            assert [level for level, _ in straddling] == [1]
    # both phases ran: some pairs were measured whole, and some straddled
    assert 0 < straddled < pairs


@pytest.mark.parametrize("gap", _GAPS)
def test_planted_polygons_lie_where_they_were_put(gap):
    # the planting itself: the gap is the one asked for, to rounding
    base = _polygon(0.0, _RHO)
    half = float(np.hypot(np.diff(base).real, np.diff(base).imag).sum()) / 2
    ray = cmath.exp(1j * TAU / 8)
    polygons = {(kind, g): p for kind, g, p in _planted_polygons()}
    assert _cross(ray, polygons["ray-disk", gap][0]) - half == pytest.approx(gap, abs=1e-15)
    assert _cross(ray, polygons["ray-polygon", gap]).min() == pytest.approx(gap, abs=1e-15)
    assert -_cross(ray, polygons["mirror-disk", gap][0]) - half == pytest.approx(gap, abs=1e-15)
    assert -_cross(ray, polygons["mirror-polygon", gap]).max() == pytest.approx(gap, abs=1e-15)
    assert abs(polygons["circle-disk", gap][0]) - half - 7 / 8 == pytest.approx(gap, abs=1e-15)
    assert np.abs(polygons["circle-polygon", gap]).min() - 7 / 8 == pytest.approx(gap, abs=1e-15)
    assert abs(polygons["inside-disk", gap][0]) + half - 7 / 8 == pytest.approx(gap, abs=1e-15)
    assert np.abs(polygons["inside-polygon", gap]).max() - 7 / 8 == pytest.approx(gap, abs=1e-15)


#: z -> -z and z -> conj(z), on points, on angles (singular atoms) and on
#: the outer log's samples at the angles 2 pi i / size: both are exact in
#: floating point and map the dyadic arcs of every depth onto themselves
_DYADIC_SYMMETRIES = [
    (np.negative, lambda a: (a + math.pi) % TAU, lambda v: np.roll(v, v.size // 2)),
    (np.conj, lambda a: -a % TAU, lambda v: np.roll(v[::-1], 1)),
]
#: the relative deviation allowed under them, c u with c = 2**10: each arc
#: mass sums the same lengths in another order, from vertices that can
#: round one ulp apart; the seeds below reach 167 u (1.9e-14)
_SYMMETRY_TOLERANCE = 2.0 ** 10 * 2.0 ** -53


def _disk_point(rng, r_max):
    r, t = r_max * math.sqrt(rng.random()), TAU * rng.random()
    return complex(r * math.cos(t), r * math.sin(t))


def _contour_stratum_inputs(seed):
    """(zeros, singular atoms, outer log, epsilon, c1), one per contour
    stratum of the benchmark, seeded: Blaschke products of 1 to 50 zeros
    at radius <= 0.985, and outer functions of 1024 to 4096 samples with
    1-3 zeros and 1-2 light singular atoms at c1 = 0.1 and 0.2."""
    out = []
    for k, n in enumerate((1, 5, 9, 13, 17, 21, 25, 29, 33, 37, 42, 46, 50)):
        rng = random.Random(f"symmetry/{seed}/{n}")
        out.append(([_disk_point(rng, 0.985) for _ in range(n)], [], None,
                    (0.1, 0.05, 0.01)[k % 3], 8.0))
    for size in (1024, 2048, 4096):
        for c1 in (0.1, 0.2):
            rng = random.Random(f"symmetry/{seed}/{size}/{c1}")
            k, phase = rng.randrange(1, 6), TAU * rng.random()
            outer = -0.06 * (1.0 + 0.5 * np.cos(k * TAU * np.arange(size) / size + phase))
            zeros = [_disk_point(rng, 0.9) for _ in range(rng.randrange(1, 4))]
            atoms = [(TAU * rng.random(), rng.uniform(1e-6, 4e-6))
                     for _ in range(rng.randrange(1, 3))]
            out.append((zeros, atoms, outer, 0.1, c1))
    return out


@pytest.mark.parametrize("seed", range(4))
def test_curve_norm_under_the_dyadic_symmetries(seed):
    # the contour of the mapped function is the mapped contour, so its
    # curve norm is the same up to the order of the sums
    for zeros, atoms, outer, eps, c1 in _contour_stratum_inputs(seed):
        constants = ContourConstants.for_epsilon(eps, c1=c1)
        phi = BoundedFunction(zeros=zeros, singular_atoms=atoms, outer_log=outer)
        result = bourgain_contour(phi, eps, constants)
        polylines = _polylines(result.region, result.arcs)
        want = carleson_norm(CurveMeasure(polylines))
        assert want > 0.0
        for point, angle, samples in _DYADIC_SYMMETRIES:
            image = BoundedFunction(zeros=point(np.array(zeros)),
                                    singular_atoms=[(angle(a), m) for a, m in atoms],
                                    outer_log=None if outer is None else samples(outer))
            image_result = bourgain_contour(image, eps, constants)
            mapped = _polylines(image_result.region, image_result.arcs)
            assert [p.size for p in mapped] == [p.size for p in polylines]
            got = carleson_norm(CurveMeasure(mapped))
            assert abs(got - want) <= _SYMMETRY_TOLERANCE * want, (len(zeros), eps)


@pytest.mark.parametrize("size", [100, 200, 400])
def test_discrete_norm_under_the_dyadic_symmetries(size):
    # atoms as the carleson inputs of the benchmark: radius <= 0.99, mass 1 - |z|
    for seed in range(4):
        rng = random.Random(f"symmetry/discrete/{seed}/{size}")
        points = np.array([_disk_point(rng, 0.99) for _ in range(size)])
        masses = 1.0 - np.abs(points)
        want = carleson_norm(DiscreteMeasure(np.column_stack((points, masses))))
        for point, _, _ in _DYADIC_SYMMETRIES:
            got = carleson_norm(DiscreteMeasure(np.column_stack((point(points), masses))))
            assert abs(got - want) <= _SYMMETRY_TOLERANCE * want


def _closed_polygon(center, radius, n=256):
    verts = center + radius * np.exp(1j * TAU * np.arange(n + 1) / n)
    verts[-1] = verts[0]
    return verts


def test_depth_past_the_cap_is_refused_before_any_work():
    # a 256-gon of radius 1e-12 at 1 - 3e-12 reaches the squares of every
    # depth up to 38, so at depth 40 its arc masses would take 2**38
    # numbers at depth 38 alone; an atom there, just below turn 1, fills a
    # bincount as long
    curve = CurveMeasure([_closed_polygon(1.0 - 3e-12, 1e-12)])
    atoms = DiscreteMeasure([((1.0 - 3e-12) * cmath.exp(-1e-3j), 1.0)])
    tracemalloc.start()
    try:
        for measure in (curve, atoms):
            for depth in (40, MAX_DEPTH + 1, -1):
                with pytest.raises(DomainError, match=rf"^depth must lie in 0\.\.{MAX_DEPTH}$"):
                    carleson_norm(measure, depth)
        with pytest.raises(DomainError, match="depth must lie in"):
            interpolation_constants([0.5, -0.5j], depth=MAX_DEPTH + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_depth_at_the_cap_is_measured():
    # neither measure reaches a square deeper than depth 3, so depth 24
    # finds the norm of depth 12
    curve = CurveMeasure([_closed_polygon(0.9j, 0.01)])
    atoms = DiscreteMeasure([(0.9j, 0.1), (-0.5, 0.75)])
    for measure in (curve, atoms):
        assert carleson_norm(measure, MAX_DEPTH) == carleson_norm(measure, 12) > 0.0
    points = [0.9j, -0.5, 0.3 + 0.3j]
    assert (interpolation_constants(points, depth=MAX_DEPTH).carleson_norm
            == interpolation_constants(points, depth=12).carleson_norm > 0.0)


@pytest.mark.parametrize("size", [6, 12, 20])
def test_sequence_norm_under_the_dyadic_symmetries(size):
    # points as the sequence inputs of the benchmark: radius <= 0.9, pairwise
    # pseudo-hyperbolic distance >= 0.3; the measure sum (1 - |lam|^2)
    # delta_lam of the mapped points is the mapped measure
    for seed in range(8):
        rng = random.Random(f"symmetry/sequence/{seed}/{size}")
        points = []
        while len(points) < size:
            z = _disk_point(rng, 0.9)
            if all(abs(z - p) >= 0.3 * abs(1.0 - p.conjugate() * z) for p in points):
                points.append(z)
        points = np.array(points)
        want = interpolation_constants(points).carleson_norm
        assert want > 0.0
        for point, _, _ in _DYADIC_SYMMETRIES:
            got = interpolation_constants(point(points)).carleson_norm
            assert abs(got - want) <= _SYMMETRY_TOLERANCE * want
