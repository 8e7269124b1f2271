"""Finite Blaschke products, interpolation-type constants of finite
sequences, and greedy nets on curves with pseudo-hyperbolic mesh.
log|B| has one implementation, :func:`_blaschke_log_abs`, also the Blaschke
part of ``contour.BoundedFunction.log_abs``; |B| is ``abs(B(z))``, faster
for few zeros than exp of the log sum.  The sum takes the zeros in blocks
of 16 (:func:`_block_log_sums`): two complex products per block along all
the points in reused buffers, prod (a - z) and prod (1 - |a|^2 +
conj(a) (a - z)), then one abs pair, one divide and one log per block,
from 1 - |a|^2 of the zeros alone.  A point where a block product falls
below 2^-960, as at a zero, takes the zero-by-zero sum of log
pseudo_hyperbolic over chunks of zeros (:func:`_rho_log_sums` over
:func:`_rho_chunks`); the nearest zero of a point set
(``contour.check_potential_bounds``, :func:`net_is_valid`) is the minimum
over the same chunks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import carleson as carleson_mod
from .disk import (
    _blaschke_factor,
    _interior,
    _one_minus_conj,
    _pseudo_hyperbolic,
    in_closed_disk,
    in_open_disk,
    layer_index,
    one_minus_sq,
)
from .errors import DomainError

# distances per chunk of _rho_chunks (at least one row of all the points)
_LOG_BLOCK = 2 ** 15
# zeros per product of _block_log_sums, and complex entries per buffer of
# its products (at least one row of all the points)
_PRODUCT_ZEROS = 16
_PRODUCT_BLOCK = 2 ** 14
# a block product below this modulus may have gone subnormal on the way
_TINY_PRODUCT = 2.0 ** -960


def _rho_chunks(zeros: np.ndarray, defects: np.ndarray, pts: np.ndarray):
    """pseudo_hyperbolic(zeros[:, None], pts[None, :]) in chunks of
    max(1, _LOG_BLOCK // pts.size) rows, one row per zero, each row along
    all of the 1-d ``pts``, from the zeros' ``defects`` = one_minus_sq
    alone.  The chunks are views of buffers that are reused for the next
    chunk; both arrays must be checked interior."""
    rows = max(1, _LOG_BLOCK // max(1, pts.size))
    shape = (min(rows, zeros.size), pts.size)
    defects = defects[:, None]
    rho, den, work = np.empty(shape), np.empty(shape), np.empty(shape, dtype=complex)
    for start in range(0, zeros.size, rows):
        lam = zeros[start : start + rows, None]
        k = lam.shape[0]
        yield _pseudo_hyperbolic(lam, pts, defects[start : start + k], rho[:k], den[:k],
                                 work[:k])


def _min_pseudo_hyperbolic(zeros, defects, pts) -> np.ndarray:
    """min over ``zeros`` of pseudo_hyperbolic(zero, p), and 1, at each p of
    the 1-d ``pts``, in the chunks of :func:`_rho_chunks`; unchecked: the
    ``zeros`` with their ``defects`` and the points are interior."""
    out = np.ones(pts.shape)
    for rho in _rho_chunks(zeros, defects, pts):
        np.minimum(out, rho.min(axis=0), out=out)
    return out


def _rho_log_sums(zeros, defects, pts) -> np.ndarray:
    """sum over ``zeros`` of log pseudo_hyperbolic(zero, p) at each p of the
    1-d interior ``pts``, zero by zero: down each chunk of
    :func:`_rho_chunks`, then over the chunks in turn; -inf at a zero."""
    sums = np.zeros(pts.shape)
    with np.errstate(divide="ignore"):
        for rho in _rho_chunks(zeros, defects, pts):
            sums += np.log(rho, out=rho).sum(axis=0)
    return sums


def _block_log_sums(zeros, defects, pts) -> np.ndarray:
    """:func:`_rho_log_sums` by products over blocks of _PRODUCT_ZEROS zeros.

    Each block of consecutive zeros keeps two complex products along all
    the points, num = prod (a - p) and den = prod (d_a + conj(a) (a - p)),
    and adds log(|num| / |den|) to the sum.  Groups of up to
    max(1, _PRODUCT_BLOCK // points) blocks share three complex buffers,
    one row per block, so the Python loop runs _PRODUCT_ZEROS times per
    group; the logs of a group are summed down its rows, then over the
    groups in turn.  A point where some |num| or |den| ends below
    _TINY_PRODUCT is summed again by :func:`_rho_log_sums`.  ``pts`` must be
    nonempty.
    """
    size = _PRODUCT_ZEROS
    rows = min(-(-zeros.size // size), max(1, _PRODUCT_BLOCK // pts.size))
    num, den, work = np.empty((3, rows, pts.size), dtype=complex)
    # |num| and |den| go into the two halves of work, read as floats
    halves = work.reshape(-1).view(float).reshape(2, rows, pts.size)
    sums = np.zeros(pts.shape)
    tiny = np.zeros(pts.shape, dtype=bool)
    for start in range(0, zeros.size, rows * size):
        lam = zeros[start : start + rows * size, None]
        d = defects[start : start + rows * size, None]
        # lam[j::size] holds the j-th zero of each block of the group; only
        # the group's last block may be short, so those blocks are a prefix
        k = lam[::size].shape[0]
        np.subtract(lam[::size], pts, out=num[:k])
        _one_minus_conj(lam[::size], num[:k], d[::size], den[:k])
        for j in range(1, min(size, lam.shape[0])):
            a, d_a = lam[j::size], d[j::size]
            r = a.shape[0]
            diff = np.subtract(a, pts, out=work[:r])
            num[:r] *= diff
            den[:r] *= _one_minus_conj(a, diff, d_a, diff)
        mod_num, mod_den = np.abs(num[:k], out=halves[0, :k]), np.abs(den[:k], out=halves[1, :k])
        if min(mod_num.min(), mod_den.min()) < _TINY_PRODUCT:
            tiny |= (np.minimum(mod_num, mod_den) < _TINY_PRODUCT).any(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            sums += np.log(np.divide(mod_num, mod_den, out=mod_num), out=mod_num).sum(axis=0)
    if tiny.any():
        sums[tiny] = _rho_log_sums(zeros, defects, pts[tiny])
    return sums


def _blaschke_log_abs(zeros, defects, zs: np.ndarray) -> np.ndarray:
    """log|B| at each entry of ``zs``, B the product over the checked
    ``zeros`` (with multiplicity), from their ``defects`` = one_minus_sq;
    DomainError for |z| > ``disk.CLOSED_RADIUS`` unless ``zeros`` is empty.

    The sum runs over the interior points by :func:`_block_log_sums`: one
    abs pair, one divide and one log per block of _PRODUCT_ZEROS zeros, in
    three complex buffers of at most max(_PRODUCT_BLOCK, points) entries.
    Every factor has modulus below 2 (|a - p| < 2, |1 - conj(a) p| < 2), so
    no product overflows, and a product that ends at or above 2^-960 never
    went below 2^-975 on the way: its underflows cost at most 2^-98
    relative.  A
    product below 2^-960 (a point at a zero gives 0, where the log is
    -inf) sends its point to the zero-by-zero sum of :func:`_rho_log_sums`,
    which forms no product: each distance keeps a few u of relative
    accuracy, however small.

    The bound: for n zeros a and u = 2^-53, the result is within
    16 n u sum_a (|log rho_a| + 1) of a ``math.fsum`` of the exact terms.
    Each factor a - p is rounded by at most u; d_a + conj(a) (a - p) by at
    most 11 u, as d_a + |a| |a - p| <= 3 |1 - conj(a) p|; each complex
    product by sqrt(5) u.  A block's ratio is then within
    (12 + 2 sqrt(5)) u per zero plus 3 u (the abs pair and the divide) of
    its exact value, and its log adds u |log| of its own; adding the m <= n
    block logs in any order adds (m - 1) u sum |log| at most.  In all,
    (19.5 u + n u |log rho_a|) per zero to first order, inside the bound
    for n >= 2.  One zero is one block, whose bits are those of
    log pseudo_hyperbolic; the zero-by-zero sum rounds each log rho_a by a
    few u and adds (n - 1) u sum |log rho_a| at most, inside it too.
    """
    out = np.zeros(zs.shape, dtype=float)
    if zeros.size == 0:
        return out
    # |b_lam| = 1 on the circle, so only interior points add to the sum;
    # points off the closed disk are refused
    inner = in_open_disk(zs)
    if not in_closed_disk(zs[~inner]).all():
        raise DomainError("the Blaschke part is defined on the closed disk only")
    pts = zs[inner]
    if pts.size:
        out[inner] = _block_log_sums(zeros, defects, pts)
    return out


def _distinct_interior(points, what: str) -> np.ndarray:
    """``points`` as a checked 1-d complex array (``disk._interior``);
    DomainError unless they are pairwise distinct.  Distinctness is counted
    on a set of Python complexes: the first ``np.unique`` of a process adds
    about 0.6 MB resident."""
    arr = _interior(points, what).reshape(-1)
    if len(set(arr.tolist())) != arr.size:
        raise DomainError(f"{what}s must be pairwise distinct")
    return arr


class BlaschkeProduct:
    """Product of Blaschke factors over a finite list of simple interior zeros.

    ``zeros`` is the checked complex array of them, kept with their
    one_minus_sq.  The empty product is the constant 1.  Repeated zeros are
    rejected; degenerate inputs should model multiplicity by perturbation.
    """

    __slots__ = ("zeros", "_defects")

    def __init__(self, zeros=()):
        self.zeros = _distinct_interior(zeros, "Blaschke zero")
        # zero by zero, with the bits of the array form: one_minus_sq of a
        # short array costs about 25 us, of a Python complex about 1.2 us
        self._defects = np.array([one_minus_sq(lam) for lam in self.zeros.tolist()])

    def __call__(self, z):
        zs = np.asarray(z, dtype=complex)
        out = np.ones_like(zs)
        for lam, d_lam in zip(self.zeros.tolist(), self._defects.tolist()):
            out = out * _blaschke_factor(lam, d_lam, zs)
        return complex(out) if np.isscalar(z) else out

    def log_abs(self, z):
        """log |B(z)|, elementwise, by :func:`_blaschke_log_abs`."""
        out = _blaschke_log_abs(self.zeros, self._defects, np.asarray(z, dtype=complex))
        return float(out) if np.isscalar(z) else out


@dataclass(frozen=True)
class InterpolationReport:
    """Constants attached to a finite interior sequence.

    delta   = min over lam of prod_{mu != lam} |b_mu(lam)|
    alpha   = min pairwise pseudo-hyperbolic distance (1.0 for singletons)
    carleson_norm = Carleson norm of sum (1 - |lam|^2) delta_lam
    projection_norms = norm of the skew projection onto the kernel at each
        point lam along the others, (prod_{mu != lam} |b_mu(lam)|)^{-1},
        in the order of the points
    """

    delta: float
    alpha: float
    carleson_norm: float
    projection_norms: list[float]


def interpolation_constants(points, depth: int = 12) -> InterpolationReport:
    """delta, separation alpha, the Carleson norm of the point-mass measure
    and the projection norms, all from one distance matrix (ones on its
    diagonal): delta from its row sums of logs, the projection norms from
    its column products."""
    arr = _distinct_interior(points, "sequence point")
    if arr.size == 0:
        raise DomainError("the sequence must be nonempty")
    defects = one_minus_sq(arr)
    dist = _pseudo_hyperbolic(arr[:, None], arr[None, :], defects[:, None])
    np.fill_diagonal(dist, 1.0)
    prod = dist.prod(axis=0)
    if not prod.all():
        raise DomainError("degenerate sequence: coinciding points")
    # a single point's matrix is [[1]]: alpha = delta = 1
    alpha = float(dist.min())
    delta = float(np.exp(np.log(dist).sum(axis=1).min()))
    measure = carleson_mod.DiscreteMeasure(np.column_stack((arr, defects)))
    norm = carleson_mod.carleson_norm(measure, depth)
    return InterpolationReport(delta=delta, alpha=alpha, carleson_norm=norm,
                               projection_norms=(1.0 / prod).tolist())


def place_net_on_curve(vertices, alpha: float) -> list[complex]:
    """Greedy pseudo-hyperbolic alpha-net on the vertices of a polyline.

    Vertices are visited layer by layer (dyadic layer 0 first) and within a
    layer in the given order; a vertex joins the net when its
    pseudo-hyperbolic distance to every selected point exceeds alpha.  The
    result is alpha-separated and every input vertex lies within alpha of
    the net (strictly, outside of exact-tie vertices, which floating point
    never produces in practice).
    """
    if not (0.0 < alpha < 0.1):
        raise DomainError(f"net mesh must lie in (0, 0.1), got {alpha}")
    pts = _interior(vertices, "curve vertex").reshape(-1)
    visit = pts[np.argsort(layer_index(pts), kind="stable")]
    defects = one_minus_sq(visit)
    free = np.ones(visit.size, dtype=bool)  # farther than alpha from the net so far
    rho, den, work = np.empty(visit.size), np.empty(visit.size), np.empty(visit.size, dtype=complex)
    selected = []
    for k in range(visit.size):
        if free[k]:
            selected.append(k)
            rest = slice(k + 1, None)  # pseudo_hyperbolic(visit[k], visit[rest]), its bits
            free[rest] &= _pseudo_hyperbolic(visit[k], visit[rest], defects[k], rho[rest],
                                             den[rest], work[rest]) > alpha
    return visit[selected].tolist()


def net_is_valid(vertices, product: BlaschkeProduct,
                 alpha: float) -> tuple[bool, bool, bool]:
    """(separated, dense, product_small): the three net postconditions of
    the net of ``product``'s zeros, which the product has checked.

    separated: |b_lam(mu)| > alpha for distinct net points;
    dense: every vertex has a net point with |b_lam(z)| < alpha;
    product_small: |B(z)| < alpha at every vertex for B = ``product``.
    """
    arr, defects = product.zeros, product._defects
    if arr.size == 0:
        return (True, np.size(vertices) == 0, np.size(vertices) == 0)
    verts = _interior(vertices)
    d = _pseudo_hyperbolic(arr[:, None], arr[None, :], defects[:, None])
    np.fill_diagonal(d, np.inf)  # a single point is separated
    separated = bool(d.min() > alpha)
    dense = bool(np.all(_min_pseudo_hyperbolic(arr, defects, verts) < alpha))
    product_small = bool(np.all(np.abs(product(verts)) < alpha))
    return separated, dense, product_small
