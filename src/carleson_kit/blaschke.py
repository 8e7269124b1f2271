"""Finite Blaschke products, interpolation-type constants of finite
sequences, and greedy nets on curves with pseudo-hyperbolic mesh.
log|B| has one implementation, :func:`blaschke_log_abs`, also the Blaschke
part of ``contour.BoundedFunction.log_abs``; |B| is ``abs(B(z))``, faster
for few zeros than exp of the blocked sum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import carleson as carleson_mod
from .disk import _modulus, blaschke_factor, layer_index, pseudo_hyperbolic, require_interior
from .errors import DomainError

# largest (points x zeros) block of the sum in blaschke_log_abs
_LOG_BLOCK = 2 ** 15


def blaschke_log_abs(zeros, zs: np.ndarray) -> np.ndarray:
    """log|B| at each entry of ``zs``, B the product over ``zeros`` (with
    multiplicity); DomainError for |z| > 1 + 1e-12 unless ``zeros`` is empty."""
    out = np.zeros(zs.shape, dtype=float)
    if not zeros:
        return out
    # |b_lam| = 1 on the circle, so only interior points add to the sum;
    # points off the closed disk are refused.  One modulus gives both tests
    # (in_open_disk is modulus < 1).
    modulus = _modulus(zs)
    if not np.all(modulus <= 1.0 + 1e-12):
        raise DomainError("the Blaschke part is defined on the closed disk only")
    inner = modulus < 1.0
    pts = zs[inner][:, None]
    zeros = np.array(zeros)[None, :]
    # row blocks of at most _LOG_BLOCK entries stay in cache and bound the
    # memory; each row is still summed along one contiguous axis, so every
    # sum has the bits of the one-shot (points, zeros) array
    rows = max(1, _LOG_BLOCK // zeros.size)
    sums = np.empty(pts.shape[0])
    with np.errstate(divide="ignore"):
        for start in range(0, pts.shape[0], rows):
            rho = pseudo_hyperbolic(zeros, pts[start : start + rows])
            sums[start : start + rows] = np.sum(np.log(rho, out=rho), axis=1)
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
    if n == 1:
        delta = 1.0
        alpha = 1.0
    else:
        arr = np.asarray(pts, dtype=complex)
        dist = pseudo_hyperbolic(arr[:, None], arr[None, :])
        np.fill_diagonal(dist, 1.0)
        alpha = float(dist.min())
        delta = float(np.exp(np.log(dist).sum(axis=1).min()))
    measure = carleson_mod.DiscreteMeasure([(p, 1.0 - abs(p) ** 2) for p in pts])
    norm = carleson_mod.carleson_norm(measure, depth)
    return InterpolationReport(delta=delta, alpha=alpha, carleson_norm=norm)


def projection_norm_formula(points, lam) -> float:
    """Norm of the skew projection onto the kernel at lam along the others.

    Equals (prod_{mu != lam} |b_mu(lam)|)^{-1}; lam must belong to the
    sequence.
    """
    pts = _check_distinct(points)
    lam = complex(lam)
    if lam not in pts:
        raise DomainError("lam must be one of the sequence points")
    others = np.array([mu for mu in pts if mu != lam], dtype=complex)
    prod = float(np.prod(pseudo_hyperbolic(others, lam)))
    if prod == 0.0:
        raise DomainError("degenerate sequence: coinciding points")
    return 1.0 / prod


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
    free = np.ones(visit.size, dtype=bool)  # farther than alpha from the net so far
    selected: list[complex] = []
    for k, i in enumerate(order):
        if free[k]:
            selected.append(pts[i])
            free[k + 1:] &= pseudo_hyperbolic(visit[k], visit[k + 1:]) > alpha
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
    dv = pseudo_hyperbolic(arr[None, :], verts[:, None])
    dense = bool(np.all(dv.min(axis=1) < alpha))
    product = BlaschkeProduct(arr)
    product_small = bool(np.all(np.abs(product(verts)) < alpha))
    return separated, dense, product_small
