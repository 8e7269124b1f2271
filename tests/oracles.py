"""Reference computations shared by the test modules.

They recompute a library quantity by the plain textbook route, one
factorization per member, so a test can compare the library's faster route
against them.
"""

import math

import numpy as np
import scipy.linalg

from carleson_kit.construction import canonical_phase
from carleson_kit.disk import TAU, _modulus, in_open_disk, require_interior
from carleson_kit.errors import DomainError
from carleson_kit.riesz import SubspaceSystem


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
    and stops when no removal does; labels of what is left, or None.
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
    return [system.labels[i] for i in current]


def dual_system(system):
    """Biorthogonal dual system inside the span of the original.

    The dual of subspace n is spanned by the columns of V G^{-1} in block n,
    orthonormalized by QR; every dual frame is orthogonal to all original
    frames with other indices.
    """
    all_dual = system.stacked() @ np.linalg.inv(system.gram())
    frames = [np.linalg.qr(all_dual[:, sl])[0] for sl in system.block_slices()]
    return SubspaceSystem(frames, labels=list(system.labels))


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


def extract_polylines_reference(region):
    """Boundary polylines of a region of disks with every probe tested
    against every disk.

    The unculled route the library's extraction must reproduce bit for bit,
    written out for circles: the circle |z - c| = r of each distinct disk
    is sampled at the angles 2 pi (k + 1/2) / 256, and a sample is on the
    boundary when the probes c + (r +- h) e^{it}, h = max(r 2**-12, 1e-13),
    disagree about membership in the whole region (two membership calls).
    Each end of a partial run is bisected 30 times in angle, with two more
    calls per step.
    """
    circles = {}
    for d in region.disks:
        key = (round(d.eu_center.real, 14), round(d.eu_center.imag, 14),
               round(d.eu_radius, 14))
        circles[key] = (d.eu_center, d.eu_radius)

    n = 256
    ts = TAU * (np.arange(n) + 0.5) / n
    polylines = []
    for c, r in circles.values():
        h = max(r * 2.0**-12, 1e-13)

        def on_circle(t):
            return c + r * np.exp(1j * t)

        def crosses(t):
            unit = np.exp(1j * t)
            p = c + r * unit
            return region.contains_many(p + h * unit) ^ region.contains_many(p - h * unit)

        def refine(t_good, t_bad):
            for _ in range(30):
                mid = 0.5 * (t_good + t_bad)
                if crosses(np.array([mid]))[0]:
                    t_good = mid
                else:
                    t_bad = mid
            return t_good

        on_boundary = crosses(ts)
        if not np.any(on_boundary):
            continue
        if np.all(on_boundary):
            verts = on_circle(np.append(ts, ts[0]))
            verts[-1] = verts[0]
            polylines.append(verts)
            continue
        # runs of boundary samples, read around the circle from a sample
        # that is not on the boundary
        first = int(np.argmin(on_boundary))
        runs, run = [], []
        for i in [(first + k) % n for k in range(n)]:
            if on_boundary[i]:
                run.append(i)
            elif run:
                runs.append(run)
                run = []
        if run:
            runs.append(run)
        for run in runs:
            t_first, t_last = ts[run[0]], ts[run[-1]]
            # the neighbouring samples off the boundary, unwrapped past 0
            prev_t = ts[run[0] - 1] if run[0] > 0 else ts[-1] - TAU
            next_t = ts[run[-1] + 1] if run[-1] < n - 1 else ts[0] + TAU
            run_ts = np.concatenate(([refine(t_first, prev_t)], ts[run],
                                     [refine(t_last, next_t)]))
            polylines.append(on_circle(run_ts))
    return tuple(polylines)


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
            kern = (1.0 - radius[idx, None] ** 2) / np.abs(xi[None, :] - zb) ** 2
            out[idx] = kern @ v / n
    return out.reshape(zs.shape)


def outer_log_at(log_modulus, z):
    """log h(z) of the outer function via the Herglotz quadrature, at one point.

    mean_j log_modulus_j * (xi_j + z) / (xi_j - z); its real part is the
    Poisson extension that ``hardy.poisson_sum`` evaluates.
    """
    z = require_interior(z, "evaluation point")
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
