"""Reference computations shared by the test modules.

They recompute a library quantity by the plain textbook route, one
factorization per member, so a test can compare the library's faster route
against them.  :func:`ci_zeros` rebuilds the seeded input of CI's large
contour steps.
"""

import math
import random
from fractions import Fraction

import numpy as np
import scipy.linalg

from carleson_kit.blaschke import _LOG_BLOCK, _PRODUCT_BLOCK, BlaschkeProduct
from carleson_kit.carleson import CurveMeasure, carleson_norm
from carleson_kit.construction import canonical_phase
from carleson_kit.contour import CONTOUR_NORM_BOUND, _uncovered
from carleson_kit.disk import (TAU, _kernel_sums, _modulus, in_open_disk, one_minus_sq,
                               pseudo_hyperbolic)
from carleson_kit.errors import DomainError
from carleson_kit.hardy import (_POISSON_BAND, _POISSON_BLOCK, _POISSON_ENTRIES, _POISSON_TAIL,
                                _batches, _int_power, _power_series)
from carleson_kit.riesz import SubspaceSystem


def exact_one_minus_sq(z) -> np.ndarray:
    """1 - |z|^2 of each entry of ``z``, exact in rationals and rounded once
    (a Fraction converts to the nearest float): the reference for the
    library's ``disk.one_minus_sq``, which shares no code with it."""
    zs = np.asarray(z, dtype=complex)
    exact = [float(1 - Fraction(w.real) ** 2 - Fraction(w.imag) ** 2)
             for w in zs.reshape(-1).tolist()]
    return np.array(exact, dtype=float).reshape(zs.shape)


def exact_rho_sq(a, b) -> Fraction:
    """rho(a, b)^2 = |a - b|^2 / |1 - conj(a) b|^2 of two floats' complex
    values, in exact rationals."""
    ax, ay, bx, by = map(Fraction, (a.real, a.imag, b.real, b.imag))
    re, im = 1 - (ax * bx + ay * by), ax * by - ay * bx
    return ((ax - bx) ** 2 + (ay - by) ** 2) / (re * re + im * im)


def exact_log_abs(zeros, z) -> float:
    """log|B(z)| for B the product over ``zeros``: each log rho from
    exact-rational rho^2 = N / D as (log N - log D) / 2 of the integers
    (each log within an ulp), summed by ``math.fsum``."""
    logs = []
    for a in zeros:
        rho_sq = exact_rho_sq(complex(a), complex(z))
        logs.append(0.5 * (math.log(rho_sq.numerator) - math.log(rho_sq.denominator)))
    return math.fsum(logs)


def exact_kernel_sq(z, a) -> Fraction:
    """|k_z(a)|^2 = (1 - |z|^2) / |1 - conj(z) a|^2 in exact rationals."""
    zx, zy, ax, ay = map(Fraction, (z.real, z.imag, a.real, a.imag))
    re, im = 1 - (zx * ax + zy * ay), zx * ay - zy * ax
    return (1 - zx * zx - zy * zy) / (re * re + im * im)


def _dyadic(z) -> tuple[int, int, int]:
    """(X, Y, s) with z = (X + iY) / 2**s exactly."""
    (a, b), (c, d) = z.real.as_integer_ratio(), z.imag.as_integer_ratio()
    s = max(b, d).bit_length() - 1
    return a * ((1 << s) // b), c * ((1 << s) // d), s


def kernel_sum_oracle(lam, points, masses) -> float:
    """sum_i masses_i |k_lam(points_i)|^2 with each term exact in rationals
    and rounded once, summed by ``math.fsum``: the terms are positive, so
    the result is within u = 2^-53 of the exact sum.  The rationals are
    dyadic, so each term is one integer quotient, which Python rounds
    correctly (a Fraction per term would take ten times as long)."""
    lx, ly, s = _dyadic(complex(lam))
    d = (1 << 2 * s) - lx * lx - ly * ly  # (1 - |lam|^2) 2^(2s)
    terms = []
    for p, m in zip(points, masses):
        px, py, t = _dyadic(complex(p))
        re = (1 << (s + t)) - (lx * px + ly * py)  # 1 - conj(lam) p, times 2^(s + t)
        im = lx * py - ly * px
        num, den = float(m).as_integer_ratio()
        terms.append(num * d * (1 << 2 * t) / (den * (re * re + im * im)))
    return math.fsum(terms)


def member_minimality(system, n):
    """sigma_min((I - Q Q^H) F_n), Q an orthonormal basis of the other frames.

    The others must be jointly independent, or Q spans too much.
    """
    f = system.frames[n]
    others = [system.frames[i] for i in range(len(system)) if i != n]
    if others:
        q, _ = np.linalg.qr(np.concatenate(others, axis=1))
        f = f - q @ (np.conj(q).T @ f)
    return float(np.linalg.svd(f, compute_uv=False)[-1])


def skew_norm_oracle(system, onto):
    """Norm of the skew projection onto the members ``onto`` along the rest.

    The square root of the largest generalized eigenvalue of the pencil
    (G_sigma, G), G_sigma the Gram matrix with every block row and column
    outside the selection zeroed, solved by scipy's generalized eigh.
    """
    gram = system.gram()
    slices = system.block_slices()
    keep = np.zeros(gram.shape[0], dtype=bool)
    for i in onto:
        keep[slices[i]] = True
    g_sigma = gram.copy()
    g_sigma[~keep, :] = 0.0
    g_sigma[:, ~keep] = 0.0
    vals = scipy.linalg.eigh(g_sigma, gram, eigvals_only=True)
    return math.sqrt(max(float(vals[-1]), 0.0))


def minimality_oracle(system):
    """Uniform minimality min_n delta_n, one QR per member."""
    return min(member_minimality(system, n) for n in range(len(system)))


def extraction_oracle(system, delta):
    """The greedy critical subset, each trial rebuilt and scored by the oracle.

    Drops the first member whose removal keeps minimality below ``delta``,
    and stops when no removal does; the indices of what is left, or None.
    """
    if minimality_oracle(system) >= delta:
        return None
    current = list(range(len(system)))
    while len(current) > 1:
        for k in range(len(current)):
            trial = current[:k] + current[k + 1:]
            if minimality_oracle(system.subsystem(trial)) < delta:
                current = trial
                break
        else:
            break
    return current


def dual_system(system):
    """Biorthogonal dual system inside the span of the original.

    The dual of subspace n is spanned by the columns of V G^{-1} in block n,
    orthonormalized by QR; every dual frame is orthogonal to all original
    frames with other indices.
    """
    all_dual = system.stacked() @ np.linalg.inv(system.gram())
    frames = [np.linalg.qr(all_dual[:, sl])[0] for sl in system.block_slices()]
    return SubspaceSystem(frames)


def dual_residual(system, dual):
    """Largest |<dual frame n, frame m>| over n != m."""
    stacked, dual_stacked = system.stacked(), dual.stacked()
    residual = 0.0
    for sl in system.block_slices():
        mask = np.ones(stacked.shape[1], dtype=bool)
        mask[sl] = False
        residual = max(residual, float(np.max(np.abs(
            np.conj(dual_stacked[:, sl]).T @ stacked[:, mask]))))
    return residual


def dyadic_a2_oracle(w, inv):
    """sup over dyadic arcs of (avg w)(avg 1/w), each level averaged on its own.

    Arcs of at least 8 samples; 0 * inf and an inf product both read inf,
    as in the library.
    """
    n = w.shape[0]
    with np.errstate(invalid="ignore"):
        best = float(np.nan_to_num(np.mean(w) * np.mean(inv), nan=np.inf,
                                   posinf=np.inf))
        depth = 1
        while n >> depth >= 8:
            block = n >> depth
            aw = w.reshape(-1, block).mean(axis=1)
            ai = inv.reshape(-1, block).mean(axis=1)
            products = np.nan_to_num(aw * ai, nan=np.inf, posinf=np.inf)
            best = max(best, float(np.max(products)))
            depth += 1
    return best


def toeplitz_centre_oracles(col):
    """(T^-1)_nn of the Hermitian Toeplitz T of first column ``col`` two ways.

    scipy's Levinson solve of T x = e_n, and the dense inverse of T.
    """
    size = col.shape[0]
    n = size // 2
    unit = np.zeros(size, dtype=complex)
    unit[n] = 1.0
    levinson = scipy.linalg.solve_toeplitz((col, np.conj(col)), unit)[n].real
    lag = np.subtract.outer(np.arange(size), np.arange(size))
    dense = np.where(lag >= 0, col[np.abs(lag)], np.conj(col[np.abs(lag)]))
    return float(levinson), float(np.linalg.inv(dense)[n, n].real)


def unit_sphere_net_reference(dim, eps, rng=None):
    """The greedy sphere net with every probe's distance by the min-norm formula.

    The route the library's filtered farthest-probe search must reproduce bit
    for bit, for dim >= 2: batches of 2048 phase-canonical random probes,
    the farthest added while its distance is at least eps, then 10,000 more
    probes to certify.
    """
    rng = np.random.default_rng(rng)
    net = [canonical_phase(np.eye(dim, dtype=complex)[0])]

    def draw(count):
        raw = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
        raw /= np.linalg.norm(raw, axis=1, keepdims=True)
        piv = np.take_along_axis(raw, np.argmax(np.abs(raw), axis=1)[:, None], axis=1)
        return raw * (np.conj(piv) / np.abs(piv))

    def min_dists(probes):
        arr = np.asarray(net)
        return np.min(np.linalg.norm(probes[:, None, :] - arr[None, :, :], axis=2), axis=1)

    while True:
        probes = draw(2048)
        d = min_dists(probes)
        far = int(np.argmax(d))
        if d[far] >= eps:
            net.append(probes[far])
            continue
        certified = True
        for start in range(0, 10_000, 2048):
            probes = draw(min(2048, 10_000 - start))
            d = min_dists(probes)
            far = int(np.argmax(d))
            if d[far] >= eps:
                net.append(probes[far])
                certified = False
                break
        if certified:
            return net


def net_split_reference(ps, net, eps):
    """The split as dicts: per member, the points of every part and their products.

    A member's part k holds, in sigma order, the net points whose attached
    vector is nearest to net vector k, for every k of the net, so a part
    may be empty; each part's product is the Blaschke product of its points,
    the constant one for an empty part.  An attached vector at distance eps
    or more from every net vector raises ValueError.
    """
    arr = np.asarray(net)
    parts, products = [], []
    for entry in ps.entries:
        points = {k: [] for k in range(len(net))}
        for lam, e in zip(entry.sigma, entry.vectors):
            dist = np.linalg.norm(arr - np.asarray(e)[None, :], axis=1)
            k = int(np.argmin(dist))
            if dist[k] >= eps:
                raise ValueError("an attached vector is eps or more from the net")
            points[k].append(lam)
        parts.append({k: tuple(pts) for k, pts in points.items()})
        products.append({k: BlaschkeProduct(pts) for k, pts in points.items()})
    return parts, products


def two_eps_margins_reference(ps, parts, net, eps):
    """The two-eps margins part by part, each point found in sigma by value."""
    worst_triangle = worst_total = -math.inf
    count = 0
    for entry, member_parts in zip(ps.entries, parts):
        index_of = {lam: i for i, lam in enumerate(entry.sigma)}
        for k, pts in member_parts.items():
            for lam in pts:
                val = float(np.linalg.norm(entry.theta(lam).conj().T @ np.asarray(net[k])))
                worst_triangle = max(worst_triangle, val - (entry.star_norms[index_of[lam]] + eps))
                worst_total = max(worst_total, val - 2.0 * eps)
                count += 1
    if count == 0:
        return {"points": 0, "worst_triangle_margin": 0.0,
                "worst_total_margin": -2.0 * eps, "passed": True}
    return {"points": count, "worst_triangle_margin": worst_triangle,
            "worst_total_margin": worst_total,
            "passed": bool(worst_triangle <= 1e-12 and worst_total < 0.0)}


def condition_sums_reference(b_family, theta_family, lam_grid, b_parts):
    """The condition sums with every member's product of every part, empty ones too.

    b_parts[n][k] is member n's product of part k; each member is evaluated
    on the grid here.  Returns the sums and the supremum of each part's sum.
    """
    zs = np.asarray(lam_grid, dtype=complex).reshape(-1)

    def values(products):
        return np.array([np.abs(b(zs)) for b in products]).reshape(len(products), zs.shape[0])

    scalars = values(b_family)
    sums = np.sum(1.0 - scalars ** 2, axis=0)
    top = int(np.argmax(sums))
    report = {"sum_10_2_sup": float(sums[top]), "sum_10_2_argmax": complex(zs[top])}
    d = theta_family[0].rows
    thetas = np.stack([t(zs) for t in theta_family])
    gaps = np.eye(d)[None, None] - thetas @ np.conj(np.swapaxes(thetas, 2, 3))
    eig_sums = np.linalg.eigvalsh(np.sum(gaps, axis=0))[:, -1]
    dets = np.abs(np.stack([np.linalg.det(t(zs)) for t in theta_family]))
    det_sums = np.sum(1.0 - dets ** 2, axis=0)
    report["sum_5_4_sup"] = float(np.max(eig_sums))
    report["sum_5_5_sup"] = float(np.max(det_sums))
    report["implication_margin"] = float(np.max(eig_sums - det_sums))
    report["implication_ok"] = report["implication_margin"] <= 1e-8
    n = scalars.shape[0]
    if n == 1:
        others = np.ones_like(scalars)
    else:
        others = np.array([np.prod(np.delete(scalars, i, axis=0), axis=0) for i in range(n)])
        with np.errstate(divide="ignore", invalid="ignore"):
            quotient = np.prod(scalars, axis=0, keepdims=True) / scalars
        others = np.where(scalars > 0.0, quotient, others)
    report["delta_prime"] = float(np.min(np.min(scalars + others, axis=0)))
    rhs = np.zeros_like(sums)
    part_sups = []
    for k in range(len(b_parts[0])):
        part_sum = np.sum(1.0 - values([parts[k] for parts in b_parts]) ** 2, axis=0)
        part_sups.append(float(np.max(part_sum)))
        rhs += part_sum
    report["split_pointwise_ok"] = bool(np.all(sums <= rhs + 1e-12))
    report["split_sup_lhs"] = float(np.max(sums))
    report["split_sup_rhs"] = float(sum(part_sups))
    return report, part_sups


def poisson_sum_reference(samples, z):
    """The Poisson quadrature of uniform-grid samples block by block.

    Points sorted by radius (stable) in blocks of 128; a block whose
    outermost radius is r keeps J = ceil(log(2**-60 (1 - r)) / log r) series
    terms and sums them by blocked powers (a cumulative product of the baby
    powers, one matrix product, Horner in z**m), unless J >= n, where it sums
    the positive kernel directly.  The route the library's grouped series,
    folded shell and narrower direct band must agree with.
    """
    v = np.asarray(samples, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise DomainError("poisson_sum expects a nonempty 1-d sample array")
    zs = np.asarray(z, dtype=complex)
    if not np.all(in_open_disk(zs)):
        raise DomainError("the Poisson integral is defined at interior points only")
    flat = zs.reshape(-1)
    radius = _modulus(flat)
    n = v.size
    c = np.fft.fft(v) / n
    out = np.empty(flat.shape)
    order = np.argsort(radius, kind="stable")
    xi = None
    for k in range(0, flat.size, 128):
        idx = order[k : k + 128]
        r = radius[idx[-1]]
        terms = 0 if r == 0.0 else math.ceil(math.log(2.0 ** -60 * (1.0 - r)) / math.log(r))
        if terms == 0:
            out[idx] = c[0].real
        elif terms < n:
            step = math.isqrt(terms)
            rows = -(-terms // step)
            baby = np.cumprod(np.broadcast_to(flat[idx], (step, idx.size)), axis=0)
            coef = np.zeros(rows * step, dtype=complex)
            coef[:terms] = c[1 : terms + 1]
            part = coef.reshape(rows, step) @ baby
            acc = part[-1]
            for row in part[-2::-1]:
                acc *= baby[-1]
                acc += row
            out[idx] = c[0].real + 2.0 * acc.real
        else:
            if xi is None:
                xi = np.exp(1j * TAU * np.arange(n) / n)
            zb = flat[idx, None]
            kern = exact_one_minus_sq(zb) / np.abs(xi[None, :] - zb) ** 2
            out[idx] = kern @ v / n
    return out.reshape(zs.shape)


def poisson_sum_full_spectrum(samples, z):
    """``hardy.poisson_sum`` as it was before it dropped the coefficients
    within the FFT's error: the same grouped series, folded shell and direct
    band over every coefficient.  Where nothing is dropped the library must
    agree with it bit for bit."""
    v = np.asarray(samples, dtype=float)
    zs = np.asarray(z, dtype=complex)
    flat = zs.reshape(-1)
    radius = _modulus(flat)
    n = v.size
    c = np.fft.fft(v) / n
    order = np.argsort(radius)
    rs = radius[order]
    pts = flat[order]
    out = np.empty(flat.shape)
    size = flat.size
    block_terms = []
    for hi in range(_POISSON_BLOCK, size + _POISSON_BLOCK, _POISSON_BLOCK):
        r = rs[min(hi, size) - 1]
        j = 0 if r == 0.0 else math.ceil(math.log(_POISSON_TAIL * (1.0 - r)) / math.log(r))
        if j >= n:
            break
        block_terms.append(j)
    b = 0
    while b < len(block_terms):
        first = block_terms[b]
        end = b + 1
        while end < len(block_terms) and block_terms[end] <= 2 * first:
            points = min((end + 1) * _POISSON_BLOCK, size) - b * _POISSON_BLOCK
            if math.isqrt(block_terms[end]) * points > _POISSON_ENTRIES:
                break
            end += 1
        lo, hi = b * _POISSON_BLOCK, min(end * _POISSON_BLOCK, size)
        top = block_terms[end - 1]
        out[lo:hi] = c[0].real
        if top:
            out[lo:hi] += 2.0 * _power_series(c[1:top + 1], pts[lo:hi]).real
        b = end
    start = min(len(block_terms) * _POISSON_BLOCK, size)
    band = start + int(np.count_nonzero(n * (1.0 - rs[start:]) >= _POISSON_BAND))
    fold = np.roll(c, -1)
    for lo, hi in _batches(band - start, _POISSON_ENTRIES // math.isqrt(n)):
        zc = pts[start + lo:start + hi]
        q = _power_series(fold, zc) / (1.0 - _int_power(zc, n))
        out[start + lo:start + hi] = c[0].real + 2.0 * q.real
    if band < size:
        xi = np.exp(1j * TAU * np.arange(n) / n)
        near = order[band:]
        out[band:] = _kernel_sums(flat[near], one_minus_sq(flat[near]), xi, 0.0, v) / n
    result = np.empty(flat.shape)
    result[order] = out
    return result.reshape(zs.shape)


def log_abs_oracle(zeros, z):
    """(log|B(z)|, its rounding scale) for B the product over ``zeros``, at
    one point, in pure Python with no library code.

    log|B(z)| is the ``math.fsum`` of math.log(|z - a| / |1 - conj(a) z|)
    over the zeros a: -inf at a zero, and 0 for |z| >= 1, where |B| = 1 on
    the circle (the library refuses points beyond it).  The scale is
    sum_a (|log rho_a| + 1 / |1 - conj(a) z|): each log rho is rounded
    relative to rho, so by an absolute amount that cancellation in
    1 - conj(a) z can amplify, not relative to |log rho|.
    """
    z = complex(z)
    if not abs(z) < 1.0:
        return 0.0, 0.0
    logs, scale = [], []
    for a in zeros:
        a = complex(a)
        den = abs(1 - a.conjugate() * z)
        rho = abs(z - a) / den
        if rho == 0.0:
            return -math.inf, math.inf
        logs.append(math.log(rho))
        scale.append(abs(logs[-1]) + 1.0 / den)
    return math.fsum(logs), math.fsum(scale)


def rho_log_abs_reference(zeros, zs):
    """The Blaschke part of log|phi| zero by zero, in the order of the
    library's fallback sum, from one (zeros, points) distance array: each
    chunk of max(1, 2^15 // points) rows summed down its columns, the
    chunks added in turn."""
    out = np.zeros(zs.shape)
    inner = np.hypot(zs.real, zs.imag) < 1.0
    rho = pseudo_hyperbolic(np.asarray(zeros)[:, None], zs[inner][None, :])
    rows = max(1, _LOG_BLOCK // rho.shape[1])
    sums = np.zeros(rho.shape[1])
    with np.errstate(divide="ignore"):
        for start in range(0, rho.shape[0], rows):
            sums += np.log(rho[start : start + rows]).sum(axis=0)
    out[inner] = sums
    return out


def block_log_abs_reference(zeros, zs):
    """The Blaschke part of log|phi| in the order of the library's block
    sum, one block of 16 consecutive zeros at a time: num = prod (a - z)
    and den = prod (1 - |a|^2 + conj(a) (a - z)), factor by factor in the
    zeros' order; log(|num| / |den|) of each group of max(1, 2^14 //
    points) blocks summed down its columns, the groups added in turn.  A
    point where some |num| or |den| ends below 2^-960 takes
    :func:`rho_log_abs_reference` instead."""
    zeros = np.asarray(zeros, dtype=complex)
    defects = exact_one_minus_sq(zeros)
    out = np.zeros(zs.shape)
    inner = np.hypot(zs.real, zs.imag) < 1.0
    pts = zs[inner]
    logs, tiny = [], np.zeros(pts.shape, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for start in range(0, zeros.size, 16):
            num = den = None
            for a, d_a in zip(zeros[start : start + 16], defects[start : start + 16]):
                diff = a - pts
                fac = np.conj(a) * diff + d_a
                num = diff if num is None else num * diff
                den = fac if den is None else den * fac
            tiny |= np.minimum(np.abs(num), np.abs(den)) < 2.0 ** -960
            logs.append(np.log(np.abs(num) / np.abs(den)))
    logs = np.array(logs)
    rows = max(1, _PRODUCT_BLOCK // pts.size)
    sums = np.zeros(pts.shape)
    for start in range(0, logs.shape[0], rows):
        sums += logs[start : start + rows].sum(axis=0)
    if tiny.any():
        sums[tiny] = rho_log_abs_reference(zeros, pts[tiny])
    out[inner] = sums
    return out


def outer_log_at(log_modulus, z):
    """log h(z) of the outer function via the Herglotz quadrature, at one point.

    mean_j log_modulus_j * (xi_j + z) / (xi_j - z); its real part is the
    Poisson extension that ``hardy.poisson_sum`` evaluates.
    """
    z = complex(z)
    if not abs(z) < 1.0:  # Python's abs is hypot; nan fails
        raise DomainError(f"evaluation point must lie in the open disk, got |z| = {abs(z):.6g}")
    v = np.asarray(log_modulus, dtype=float)
    n = v.shape[0]
    xi = np.exp(1j * TAU * np.arange(n) / n)
    return complex(np.mean(v * (xi + z) / (xi - z)))


def kernel_datum_distance(theta, lam, e, size):
    """||P_+(Theta* k_lam e)|| from ``size`` boundary samples.

    The distance of the kernel datum (k_lam e, 0) from the model subspace K:
    Theta* k_lam e is sampled at the roots of unity, and P_+ keeps its
    Fourier coefficients at frequencies 0..size/2-1, whose l2 norm is the
    answer by Parseval.
    """
    xi = np.exp(1j * TAU * np.arange(size) / size)
    k = math.sqrt(1.0 - abs(lam) ** 2) / (1.0 - np.conj(lam) * xi)
    u = np.einsum("nij,ni->nj", np.conj(theta(xi)), k[:, None] * np.asarray(e)[None, :])
    c = np.fft.fft(u, axis=0)[: size // 2] / size
    return float(np.sqrt(np.sum(np.abs(c) ** 2)))


def extract_polylines_reference(region):
    """The boundary polylines of a contour region, one circle at a time:
    the distances of each circle to every disk, its covered and cut tests,
    and the vertices of a closed circle drawn from its own angles.  The
    reference for ``contour._extract_polylines``, which takes the tests in
    row blocks and draws the closed circles as one block."""
    centers, radii = region.centers, region.radii
    n = 256
    ts = TAU * (np.arange(n) + 0.5) / n
    samples = np.concatenate((ts, ts + TAU))
    polylines = []
    for c, r in zip(centers.tolist(), radii.tolist()):
        dist = np.abs(centers - c)
        if np.any(dist + r < radii):
            continue
        meet = (dist < r + radii) & (dist + radii > r)
        if not np.any(meet):
            verts = c + r * np.exp(1j * np.append(ts, ts[0]))
            verts[-1] = verts[0]
            polylines.append(verts)
            continue
        d, rj = dist[meet], radii[meet]
        mid = np.angle(centers[meet] - c)
        half = np.arccos(np.clip((r * r + d * d - rj * rj) / (2.0 * r * d), -1.0, 1.0))
        for a, b in _uncovered(mid - half, mid + half):
            inner = samples[(samples > a) & (samples < b)]
            polylines.append(c + r * np.exp(1j * np.concatenate(([a], inner, [b]))))
    return tuple(polylines)


def region_samples_reference(region, samples, rng):
    """The points at which ``contour.verify_region`` checks the levels,
    drawn disk by disk: half uniform on the disk, then per disk the same
    number of points uniform on the disk of twice its radius, each from its
    own ``rng.uniform`` calls, kept inside the open unit disk."""
    half = samples // 2
    bulk = []
    while sum(b.size for b in bulk) < half:
        cand = rng.uniform(-1, 1, (half, 2))
        pts = cand[:, 0] + 1j * cand[:, 1]
        bulk.append(pts[in_open_disk(pts)])
    zs = np.concatenate(bulk)[:half]
    near = []
    per_disk = max(1, (samples - half) // max(1, region.radii.size))
    for c, r in zip(region.centers.tolist(), region.radii.tolist()):
        ang = rng.uniform(0.0, TAU, per_disk)
        rad = r * np.sqrt(rng.uniform(0.0, 4.0, per_disk))
        cand = c + rad * np.exp(1j * ang)
        near.append(cand[in_open_disk(cand)])
    return np.concatenate([zs] + near) if near else zs


def verify_region_reference(phi, result, eps, samples, rng, depth=12):
    """``contour.verify_region`` at the points of
    :func:`region_samples_reference`, with its report."""
    zs = region_samples_reference(result.region, samples, rng)
    inside = result.region.contains_many(zs)
    log_abs = phi.log_abs(zs)
    upper_level = math.log(eps) + 1e-9
    lower_level = result.constants.log_eps_prime
    inside_vals, outside_vals = log_abs[inside], log_abs[~inside]
    upper_viol = int(np.sum(inside_vals > upper_level))
    lower_viol = int(np.sum(outside_vals < lower_level))
    norm = (carleson_norm(CurveMeasure([np.asarray(p) for p in result.polylines]), depth)
            if result.polylines else 0.0)
    return {
        "samples": int(zs.size),
        "upper_violations": upper_viol,
        "lower_violations": lower_viol,
        "upper_level": upper_level,
        "lower_level": lower_level,
        "max_log_abs_inside": float(np.max(inside_vals)) if inside_vals.size else -math.inf,
        "min_log_abs_outside": float(np.min(outside_vals)) if outside_vals.size else math.inf,
        "contour_norm": norm,
        "passed": upper_viol == 0 and lower_viol == 0 and norm <= CONTOUR_NORM_BOUND,
    }


def ci_zeros(count):
    """The seeded zeros of CI's large contour inputs: ``count`` points at
    radius <= 0.985, area-uniform, from ``random.Random(count)``."""
    rng = random.Random(count)
    zeros = []
    for _ in range(count):
        r, t = 0.985 * math.sqrt(rng.random()), TAU * rng.random()
        zeros.append(complex(r * math.cos(t), r * math.sin(t)))
    return zeros
