"""Finite Blaschke products, interpolation-type constants of finite
sequences, and greedy nets on curves with pseudo-hyperbolic mesh.
log|B| has one implementation, :func:`blaschke_log_abs`, also the Blaschke
part of ``contour.BoundedFunction.log_abs``; |B| is ``abs(B(z))``, faster
for few zeros than exp of the chunked sum.  The sum takes the
pseudo-hyperbolic distances in chunks of zeros, each zero's row running
along all the points in reused buffers (:func:`_rho_chunks`), from
1 - |a|^2 of the zeros alone; the nearest zero of a point set
(``contour.check_potential_bounds``, :func:`net_is_valid`) is the minimum
over the same chunks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import carleson as carleson_mod
from .disk import (
    _interior,
    _modulus,
    _pseudo_hyperbolic_into,
    blaschke_factor,
    in_open_disk,
    layer_index,
    one_minus_sq,
    pseudo_hyperbolic,
    require_interior,
)
from .errors import DomainError

# distances per chunk of _rho_chunks (at least one row of all the points)
_LOG_BLOCK = 2 ** 15


def _rho_chunks(zeros: np.ndarray, pts: np.ndarray):
    """pseudo_hyperbolic(zeros[:, None], pts[None, :]) in chunks of
    max(1, _LOG_BLOCK // pts.size) rows, one row per zero, each row along
    all of the 1-d ``pts``, from one_minus_sq of the zeros alone.  The
    chunks are views of buffers that are reused for the next chunk; both
    arrays must be checked interior."""
    rows = max(1, _LOG_BLOCK // max(1, pts.size))
    shape = (min(rows, zeros.size), pts.size)
    defects = one_minus_sq(zeros)[:, None]
    rho, den, work = np.empty(shape), np.empty(shape), np.empty(shape, dtype=complex)
    for start in range(0, zeros.size, rows):
        lam = zeros[start : start + rows, None]
        k = lam.shape[0]
        yield _pseudo_hyperbolic_into(lam, pts, defects[start : start + k], rho[:k], den[:k],
                                      work[:k])


def _min_pseudo_hyperbolic(zeros, points) -> np.ndarray:
    """min over ``zeros`` of pseudo_hyperbolic(zero, p) at each p of the 1-d
    ``points``, in the chunks of :func:`blaschke_log_abs`; DomainError unless
    all of them are interior.  ``zeros`` must be nonempty."""
    zeros = _interior(zeros, "Blaschke zero")
    pts = _interior(points)
    out = np.full(pts.shape, np.inf)
    for rho in _rho_chunks(zeros, pts):
        np.minimum(out, rho.min(axis=0), out=out)
    return out


def blaschke_log_abs(zeros, zs: np.ndarray) -> np.ndarray:
    """log|B| at each entry of ``zs``, B the product over ``zeros`` (with
    multiplicity); DomainError for |z| > 1 + 1e-12 unless ``zeros`` is empty.

    The sum of log pseudo_hyperbolic runs over chunks of zeros, each row
    along all the interior points (see :func:`_rho_chunks`), so every numpy
    loop is as long as the points and at most max(_LOG_BLOCK, points)
    distances are held at once.  Each distance has the bits of
    :func:`pseudo_hyperbolic`, a few u (u = 2^-53) from rho anywhere in the
    disk; the sum over the zeros runs down each chunk and then over the
    chunks in turn.  For n zeros a, the result is within
    16 n u sum_a (|log rho_a| + 1) of a ``math.fsum`` of the exact terms.
    """
    out = np.zeros(zs.shape, dtype=float)
    if not zeros:
        return out
    zeros = _interior(zeros, "Blaschke zero")
    # |b_lam| = 1 on the circle, so only interior points add to the sum;
    # points off the closed disk are refused
    inner = in_open_disk(zs)
    if not np.all(_modulus(zs[~inner]) <= 1.0 + 1e-12):
        raise DomainError("the Blaschke part is defined on the closed disk only")
    pts = zs[inner]
    sums = np.zeros(pts.shape)
    with np.errstate(divide="ignore"):
        for rho in _rho_chunks(zeros, pts):
            sums += np.log(rho, out=rho).sum(axis=0)
    out[inner] = sums
    return out


class BlaschkeProduct:
    """Product of Blaschke factors over a finite list of simple interior zeros.

    The empty product is the constant 1.  Repeated zeros are rejected;
    degenerate inputs should model multiplicity by perturbation.
    """

    __slots__ = ("zeros",)

    def __init__(self, zeros=()):
        zs = [require_interior(z, "Blaschke zero") for z in zeros]
        if len(set(zs)) != len(zs):
            raise DomainError("Blaschke zeros must be pairwise distinct (simple zeros)")
        self.zeros = tuple(zs)

    def __call__(self, z):
        zs = np.asarray(z, dtype=complex)
        out = np.ones_like(zs)
        for lam in self.zeros:
            out = out * blaschke_factor(lam, zs)
        if np.isscalar(z) or isinstance(z, (complex, float, int)):
            return complex(out)
        return out

    def log_abs(self, z):
        """log |B(z)|, elementwise, by :func:`blaschke_log_abs`."""
        out = blaschke_log_abs(self.zeros, np.asarray(z, dtype=complex))
        if np.isscalar(z) or isinstance(z, (complex, float, int)):
            return float(out)
        return out


@dataclass(frozen=True)
class InterpolationReport:
    """Constants attached to a finite interior sequence.

    delta   = min over lam of prod_{mu != lam} |b_mu(lam)|
    alpha   = min pairwise pseudo-hyperbolic distance (1.0 for singletons)
    carleson_norm = Carleson norm of sum (1 - |lam|^2) delta_lam
    """

    delta: float
    alpha: float
    carleson_norm: float


def _check_distinct(points) -> list[complex]:
    pts = [require_interior(p, "sequence point") for p in points]
    if not pts:
        raise DomainError("the sequence must be nonempty")
    if len(set(pts)) != len(pts):
        raise DomainError("sequence points must be pairwise distinct")
    return pts


def interpolation_constants(points, depth: int = 12) -> InterpolationReport:
    """delta, separation alpha and the Carleson norm of the point-mass measure."""
    pts = _check_distinct(points)
    n = len(pts)
    arr = np.asarray(pts, dtype=complex)
    if n == 1:
        delta = 1.0
        alpha = 1.0
    else:
        dist = _distances(arr)
        alpha = float(dist.min())
        delta = float(np.exp(np.log(dist).sum(axis=1).min()))
    measure = carleson_mod.DiscreteMeasure(zip(pts, one_minus_sq(arr).tolist()))
    norm = carleson_mod.carleson_norm(measure, depth)
    return InterpolationReport(delta=delta, alpha=alpha, carleson_norm=norm)


def _distances(arr: np.ndarray) -> np.ndarray:
    """The pseudo-hyperbolic distance matrix of the 1-d ``arr``, with ones on
    its diagonal."""
    dist = pseudo_hyperbolic(arr[:, None], arr[None, :])
    np.fill_diagonal(dist, 1.0)
    return dist


def projection_norm_formula(points) -> list[float]:
    """Norm of the skew projection onto the kernel at each point lam of the
    sequence along the others, in the order of ``points``.

    Equals (prod_{mu != lam} |b_mu(lam)|)^{-1}, a column product of one
    distance matrix.
    """
    prod = _distances(np.asarray(_check_distinct(points), dtype=complex)).prod(axis=0)
    if not prod.all():
        raise DomainError("degenerate sequence: coinciding points")
    return (1.0 / prod).tolist()


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
    pts = [require_interior(v, "curve vertex") for v in vertices]
    if not pts:
        return []
    order = sorted(range(len(pts)), key=lambda i: (layer_index(pts[i]), i))
    visit = np.array([pts[i] for i in order], dtype=complex)
    defects = one_minus_sq(visit)
    free = np.ones(visit.size, dtype=bool)  # farther than alpha from the net so far
    rho, den, work = np.empty(visit.size), np.empty(visit.size), np.empty(visit.size, dtype=complex)
    selected: list[complex] = []
    for k, i in enumerate(order):
        if free[k]:
            selected.append(pts[i])
            rest = slice(k + 1, None)  # pseudo_hyperbolic(visit[k], visit[rest]), its bits
            free[rest] &= _pseudo_hyperbolic_into(visit[k], visit[rest], defects[k], rho[rest],
                                                  den[rest], work[rest]) > alpha
    return selected


def net_is_valid(vertices, net, alpha: float) -> tuple[bool, bool, bool]:
    """(separated, dense, product_small): the three net postconditions.

    separated: |b_lam(mu)| > alpha for distinct net points;
    dense: every vertex has a net point with |b_lam(z)| < alpha;
    product_small: |B(z)| < alpha at every vertex for B the net's product.
    """
    arr = np.asarray(net, dtype=complex)
    verts = np.asarray(vertices, dtype=complex)
    if arr.size == 0:
        return (True, verts.size == 0, verts.size == 0)
    separated = True
    if arr.size > 1:
        d = pseudo_hyperbolic(arr[:, None], arr[None, :])
        np.fill_diagonal(d, np.inf)
        separated = bool(d.min() > alpha)
    dense = bool(np.all(_min_pseudo_hyperbolic(arr, verts) < alpha))
    product = BlaschkeProduct(arr)
    product_small = bool(np.all(np.abs(product(verts)) < alpha))
    return separated, dense, product_small
