"""Contour-net point systems for families of square matrix inner functions.

For each member of a family this module builds the level contour of its
determinant, places a pseudo-hyperbolic net on the contour, attaches the
worst unit vectors of the member at the net points, forms the Blaschke
product over the net, and splits the net by an epsilon-net on the unit
sphere of the coefficient space.  The companion checks compute the
condition sums that govern when the associated subspace family is a Riesz
basis, and replay the outer-comparison bound chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .blaschke import BlaschkeProduct, net_is_valid, place_net_on_curve
from .contour import ContourConstants, ContourResult, BoundedFunction, _polylines, bourgain_contour
from .errors import DomainError, LinearDependenceError, NetValidityError
from .hardy import poisson_sum
from .model_space import BOUNDARY_SIZE, MatrixFunction
from . import riesz

_EXACT = 1e-12
# random unit vectors per draw of the sphere net, and in all to certify it
_PROBE_BATCH = 2048
_CERTIFY_SAMPLES = 10_000
# candidate slack on squared distances of the sphere net's filter
_FILTER_SLACK = 1e-12
# probes per real product of the filter: for net size K with K dim <= 512,
# 256 K (2 dim) <= 2^18 multiply-adds, which OpenBLAS runs on one thread
# whatever OPENBLAS_NUM_THREADS says; a threaded call took ~8 ms on a
# loaded 2-vCPU host, longer than the min-norm formula it filters for
_FILTER_BLOCK = 256


def _as_unit(v) -> np.ndarray:
    arr = np.asarray(v, dtype=complex).reshape(-1)
    nrm = float(np.linalg.norm(arr))
    if nrm <= 0:
        raise DomainError("zero vector cannot be normalized")
    return arr / nrm


def canonical_phase(v) -> np.ndarray:
    """Rotate a nonzero vector so its largest component is real positive."""
    arr = np.asarray(v, dtype=complex).reshape(-1)
    j = int(np.argmax(np.abs(arr)))
    piv = arr[j]
    if abs(piv) <= 0:
        raise DomainError("zero vector has no canonical phase")
    return arr * (np.conj(piv) / abs(piv))


@dataclass(frozen=True)
class ContourNetEntry:
    """Everything attached to one family member.

    sigma holds the net points on the determinant contour, vectors the unit
    vectors with smallest image under the adjoint value at each net point,
    star_norms those smallest singular values, blaschke the product over
    sigma.  parts appears after the sphere-net split: one label per net
    point, in sigma order, the index of the sphere-net vector its attached
    vector went to.
    """

    theta: MatrixFunction
    contour: ContourResult
    sigma: tuple
    vectors: tuple
    star_norms: tuple
    blaschke: BlaschkeProduct
    parts: tuple | None = None


@dataclass(frozen=True)
class PointSystem:
    epsilon: float
    entries: tuple
    net_vectors: tuple | None = None

    @property
    def dim(self) -> int:
        dims = {e.theta.rows for e in self.entries}
        if len(dims) != 1:
            raise DomainError("family members have mixed dimensions")
        return dims.pop()


def validate_epsilon_choice(eps: float, c_alpha: float, cv_half_delta: float,
                            delta: float) -> dict:
    """Smallness test for the level: eps * C(alpha) * CV(delta/2) < delta/10."""
    if delta <= 0:
        raise DomainError("delta must be positive")
    lhs = eps * c_alpha * cv_half_delta
    rhs = delta / 10.0
    return {"epsilon": eps, "c_alpha": c_alpha, "cv_half_delta": cv_half_delta,
            "delta": delta, "lhs": lhs, "rhs": rhs, "ok": bool(lhs < rhs)}


def measure_c_alpha(ps: PointSystem) -> float:
    """Observed orthogonalizer condition of the kernel families over the nets.

    Empty and singleton nets contribute 1.  This is the measured stand-in
    for the separation-only constant of the net points.  A net whose
    kernels are numerically dependent (``from_kernel_groups`` or
    ``GramFactor`` raises LinearDependenceError) has no finite condition:
    the result is then math.inf, which a report writes as null.
    """
    worst = 1.0
    for entry in ps.entries:
        if len(entry.sigma) < 2:
            continue
        try:
            system = riesz.SubspaceSystem.from_kernel_groups([[p] for p in entry.sigma])
            worst = max(worst, riesz.GramFactor(system).condition())
        except LinearDependenceError:
            return math.inf
    return worst


def _det_as_bounded_function(theta: MatrixFunction) -> BoundedFunction:
    """Zeros plus boundary outer log of det theta, as a bounded function.

    The boundary log modulus is clipped to [-60, 0].
    """
    zeros = theta.det_zeros_in_disk()
    with np.errstate(divide="ignore"):
        log_mod = np.clip(np.log(theta.boundary_abs_det()), -60.0, 0.0)
    if float(np.min(log_mod)) > -1e-10:
        log_mod = None
    return BoundedFunction(zeros=tuple(zeros), outer_log=log_mod)


def build_contour_nets(theta_family, eps: float, alpha: float,
                       c1: float = 8.0, c2: float = 8.0, c3: float = 8.0) -> PointSystem:
    """Contour, net, unit vectors and Blaschke product for every member.

    Each member must be square and boundary-contractive.  Its determinant
    contour is taken at level eps**d with the constants
    ``ContourConstants.for_epsilon(eps**d, c1, c2, c3)``, the net on the
    contour vertices has pseudo-hyperbolic mesh alpha, and the attached
    vector at a net point is the left singular vector of the smallest
    singular value there, so the adjoint value has norm below eps at every
    net point.

    That norm is the kernel datum's distance in the functional model: with
    K the orthogonal complement of M = (Theta; Delta) H^2(E_1) in
    H^2(E) (+) L^2(E_*), the distance of (k_lam e, 0) from K is the norm of
    its projection onto M, ||P_+(Theta* k_lam e)|| = ||Theta(lam)* e||, which
    is the ``star_norms`` entry at lam.

    Members with equal coefficient arrays are refused: they give one
    subspace twice, so the family cannot be a Riesz basis.
    """
    if not 0.0 < eps < 1.0:
        raise DomainError("eps must lie in (0, 1)")
    family = list(theta_family)
    for i, theta in enumerate(family):
        if any(np.array_equal(theta.numer, other.numer)
               and np.array_equal(theta.denom, other.denom) for other in family[:i]):
            raise DomainError("family members must be pairwise distinct")
    entries = []
    for theta in family:
        if theta.rows != theta.cols:
            raise DomainError("family members must be square matrix functions")
        if not theta.is_contractive():
            raise DomainError("family members must be contractive in the disk")
        d = theta.rows
        phi = _det_as_bounded_function(theta)
        level = eps ** d
        contour = bourgain_contour(phi, level, constants=ContourConstants.for_epsilon(
            level, c1=c1, c2=c2, c3=c3))
        polylines = _polylines(contour.region, contour.arcs)
        vertices = np.concatenate(polylines) if polylines else np.zeros(0, dtype=complex)
        sigma = place_net_on_curve(vertices, alpha)
        product = BlaschkeProduct(sigma)
        if sigma:
            separated, dense, product_small = net_is_valid(vertices, product, alpha)
            if not (separated and dense and product_small):
                raise NetValidityError("net on the contour fails its postconditions")
        vectors = []
        star_norms = []
        for lam in sigma:
            u, s, _ = np.linalg.svd(theta(lam))
            e = canonical_phase(u[:, -1])
            smin = float(s[-1])
            if smin >= eps + 1e-9:
                raise NetValidityError(
                    "contour point fails the small-adjoint-value guarantee")
            vectors.append(e)
            star_norms.append(smin)
        entries.append(ContourNetEntry(
            theta=theta, contour=contour,
            sigma=tuple(sigma), vectors=tuple(vectors),
            star_norms=tuple(star_norms), blaschke=product))
    return PointSystem(epsilon=eps, entries=tuple(entries))


def _farthest(probes: np.ndarray, net: np.ndarray) -> tuple[int, np.float64]:
    """Index of the probe farthest from the net, and its distance to the net.

    The distance is the min-norm formula's, min_j |p - n_j| by
    ``np.linalg.norm`` over the (probes, net, dim) complex difference, and
    ties go to the first index: the result is argmax and max of that
    formula over every probe, bit for bit.  The formula runs only on the
    candidates of a filter.

    Filter: squared distances a = |p|^2 + |n|^2 - 2 Re<p, n> from a real
    product of the stacked [re, im] coordinates, in blocks of _FILTER_BLOCK
    probes.  The candidates are the probes whose smallest a is within
    tau = _FILTER_SLACK of the largest.

    Why the farthest probe is a candidate: let D be the exact squared
    distance to the net and d the min-norm formula's value.  For vectors of
    norm 1 up to rounding in C^dim, |a - D| <= e_2 ~ (8 dim + 8) u and
    |d^2 - D| <= e_1 ~ 4 (2 dim + 5) u with u = 2^-53, and the minimum over
    the net keeps both bounds.  If probe i has the largest d, then for
    every j
        a_i >= D_i - e_2 >= d_i^2 - e_1 - e_2 >= d_j^2 - e_1 - e_2
            >= a_j - 2 (e_1 + e_2).
    So tau >= 2 (e_1 + e_2), which 1e-12 is for every dim up to 250, keeps
    i and every probe tied with it among the candidates, and the argmax
    over the candidates in index order returns i and d_i.
    """
    stacked = np.concatenate([probes.real, probes.imag], axis=1)
    centres = np.concatenate([net.real, net.imag], axis=1)
    scaled = -2.0 * centres.T
    centre_norms = np.einsum("ij,ij->i", centres, centres)
    approx = np.empty(stacked.shape[0])
    for start in range(0, stacked.shape[0], _FILTER_BLOCK):
        block = stacked[start:start + _FILTER_BLOCK] @ scaled
        block += centre_norms
        approx[start:start + _FILTER_BLOCK] = block.min(axis=1)
    approx += np.einsum("ij,ij->i", stacked, stacked)
    candidates = np.flatnonzero(approx >= approx.max() - _FILTER_SLACK)
    sub = probes[candidates]
    d = np.min(np.linalg.norm(sub[:, None, :] - net[None], axis=2), axis=1)
    k = int(np.argmax(d))
    return int(candidates[k]), d[k]


def unit_sphere_net(dim: int, eps: float, rng=None) -> list[np.ndarray]:
    """Greedy eps-net on phase-canonicalized unit vectors, probe-certified.

    Net points are inserted farthest-first until a full batch of fresh
    random unit vectors all fall strictly within eps of the net; the final
    certification draws _CERTIFY_SAMPLES probes.  The farthest probe of a
    batch comes from ``_farthest``, which filters by a real product and
    returns what the min-norm distance over every probe gives, bit for bit,
    so the net is that formula's net.  dim 1 collapses to the single vector
    (1,).
    """
    if dim < 1:
        raise DomainError("dimension must be at least 1")
    if not 0.0 < eps < 2.0:
        raise DomainError("eps must lie in (0, 2)")
    if dim == 1:
        return [np.ones(1, dtype=complex)]
    rng = np.random.default_rng(rng)
    net = [canonical_phase(_as_unit(np.eye(dim)[0]))]

    def draw(count):
        raw = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
        raw /= np.linalg.norm(raw, axis=1, keepdims=True)
        piv = np.take_along_axis(raw, np.argmax(np.abs(raw), axis=1)[:, None], axis=1)
        return raw * (np.conj(piv) / np.abs(piv))

    while True:
        probes = draw(_PROBE_BATCH)
        far, dist = _farthest(probes, np.asarray(net))
        if dist >= eps:
            net.append(probes[far])
            continue
        certified = True
        for start in range(0, _CERTIFY_SAMPLES, _PROBE_BATCH):
            probes = draw(min(_PROBE_BATCH, _CERTIFY_SAMPLES - start))
            far, dist = _farthest(probes, np.asarray(net))
            if dist >= eps:
                net.append(probes[far])
                certified = False
                break
        if certified:
            return net


def epsilon_net_split(ps: PointSystem, net_vectors=None, rng=None) -> PointSystem:
    """Label every net point by its nearest sphere-net vector.

    A contour-net point's label is the index of the net vector closest to
    its attached vector; the distance must be strictly below ps.epsilon or
    the net is declared invalid.  Part k of a member is its net points
    labelled k, in sigma order.
    """
    eps = ps.epsilon
    if net_vectors is None:
        net_vectors = unit_sphere_net(ps.dim, eps, rng=rng)
    net = [
        canonical_phase(_as_unit(v)) for v in net_vectors]
    if not net:
        raise NetValidityError("the sphere net must be nonempty")
    arr = np.asarray(net)
    entries = []
    for entry in ps.entries:
        labels = []
        for e in entry.vectors:
            dist = np.linalg.norm(arr - np.asarray(e)[None, :], axis=1)
            k = int(np.argmin(dist))
            if dist[k] >= eps:
                raise NetValidityError(
                    "an attached vector lies farther than eps from every net vector")
            labels.append(k)
        entries.append(replace(entry, parts=tuple(labels)))
    return replace(ps, entries=tuple(entries), net_vectors=tuple(net))


def check_two_eps_margins(ps: PointSystem) -> dict:
    """Adjoint values at net points against the part vectors.

    For every net point lam with label k and part vector e = net vector k,
    ||theta(lam)* e|| <= ||theta(lam)* e_lam|| + eps and the sum stays
    strictly below 2 eps, with eps = ps.epsilon.  Needs a split system.
    """
    eps = ps.epsilon
    worst_triangle = -math.inf
    worst_total = -math.inf
    count = 0
    for entry in ps.entries:
        if entry.parts is None:
            raise DomainError("the point system must be split first")
        for lam, k, base in zip(entry.sigma, entry.parts, entry.star_norms):
            val = float(np.linalg.norm(entry.theta(lam).conj().T @ ps.net_vectors[k]))
            worst_triangle = max(worst_triangle, val - (base + eps))
            worst_total = max(worst_total, val - 2.0 * eps)
            count += 1
    if count == 0:
        return {"points": 0, "worst_triangle_margin": 0.0,
                "worst_total_margin": -2.0 * eps, "passed": True}
    passed = worst_triangle <= _EXACT and worst_total < 0.0
    return {"points": count, "worst_triangle_margin": worst_triangle,
            "worst_total_margin": worst_total, "passed": bool(passed)}


def _part_products(ps: PointSystem) -> list:
    """The ``b_parts`` of ``condition_sums`` for a split system: for each
    label in use, in increasing order, the Blaschke product of each member's
    points with that label, in sigma order, over the members that have any:
    the member's own product where all its points carry that label."""
    labels = sorted({k for e in ps.entries for k in e.parts})
    return [[e.blaschke if set(e.parts) == {k}
             else BlaschkeProduct([z for z, j in zip(e.sigma, e.parts) if j == k])
             for e in ps.entries if k in e.parts] for k in labels]


def _scalar_values(products, zs: np.ndarray) -> np.ndarray:
    """|B| of each Blaschke product at each point, shape (len(products), len(zs))."""
    return np.array([np.abs(b(zs)) for b in products]).reshape(len(products), zs.shape[0])


def condition_sums(b_family, lam_grid, theta_values=None, abs_dets=None, b_parts=None) -> dict:
    """Suprema of the basis condition sums over a grid.

    The Blaschke products b_family feed the sum of (1 - |B_n|^2) and
    delta_prime, the infimum of min_n (|B_n| + prod_{k != n} |B_k|).
    theta_values, the members of a matrix family on the grid (shape
    (members, points, d, d)), feed the operator sum of (I - theta theta*)
    whose top eigenvalue is compared pointwise against the determinant sum
    over abs_dets, |det| of theta_values, which comes with them (the
    determinant sum dominates, since each |det| is at most each singular
    value for contractions).  b_parts holds, for each sphere-net
    part with points, the products of the members' points in that part;
    the split domination sum (1 - |B_n|^2) <= sum over parts of
    sum (1 - |B_nk|^2) is checked pointwise.
    """
    zs = np.asarray(lam_grid, dtype=complex).reshape(-1)
    report: dict = {}

    scalars = _scalar_values(list(b_family), zs)
    sums = np.sum(1.0 - scalars ** 2, axis=0)
    top = int(np.argmax(sums))
    report["sum_10_2_sup"] = float(sums[top])
    report["sum_10_2_argmax"] = complex(zs[top])

    if theta_values is not None:
        d = theta_values.shape[-1]
        gaps = np.eye(d)[None, None] - theta_values @ np.conj(np.swapaxes(theta_values, 2, 3))
        eig_sums = np.linalg.eigvalsh(np.sum(gaps, axis=0))[:, -1]
        det_sums = np.sum(1.0 - abs_dets ** 2, axis=0)
        report["sum_5_4_sup"] = float(np.max(eig_sums))
        report["sum_5_5_sup"] = float(np.max(det_sums))
        margin = float(np.max(eig_sums - det_sums))
        report["implication_margin"] = margin
        report["implication_ok"] = bool(margin <= 1e-8)

    n = scalars.shape[0]
    prods = np.prod(scalars, axis=0, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        others = np.where(scalars > 0.0, prods / scalars, 0.0)
    if n == 1:
        others = np.ones_like(scalars)
    else:
        # recompute exactly where a factor vanishes
        for i in range(n):
            mask = scalars[i] == 0.0
            if np.any(mask):
                others[i, mask] = np.prod(
                    np.delete(scalars[:, mask], i, axis=0), axis=0)
    candidate = np.min(scalars + others, axis=0)
    report["delta_prime"] = float(np.min(candidate))

    if b_parts is not None:
        part_sums = [np.sum(1.0 - _scalar_values(part, zs) ** 2, axis=0) for part in b_parts]
        rhs = sum(part_sums, np.zeros_like(sums))
        report["split_pointwise_ok"] = bool(np.all(sums <= rhs + _EXACT))
        report["split_sup_lhs"] = float(np.max(sums))
        report["split_sup_rhs"] = float(sum(float(np.max(s)) for s in part_sums))
    return report


def n_power_for(alpha: float, log_eps_prime: float, dim: int) -> int:
    """Smallest N with alpha**N below eps'**dim, in logs."""
    if not 0.0 < alpha < 1.0:
        raise DomainError("alpha must lie in (0, 1)")
    if log_eps_prime >= 0.0:
        raise DomainError("log_eps_prime must be negative")
    return int(math.floor(dim * log_eps_prime / math.log(alpha))) + 1


def lemma_10_1_check(theta_family, b_family, eps: float, log_eps_prime: float,
                     z_grid, abs_dets, alpha: float) -> dict:
    """Replay of the outer-comparison bound chain on a grid.

    h_n is outer with boundary modulus max(|det theta_n|, eps'**d), kept in
    logs throughout.  d_star is the largest number of members whose
    boundary |det| falls below 1 - 1e-8 at one sample (at least 1).
    Checks, at every grid point: the product-complement inequality for the
    computed moduli; the bound sum (1 - |h_n|^2) <= 2 d_star log(1/eps');
    the mid chain |h_n| |B_n|^N <= |det theta_n| (to 1e-6)
    wherever |det theta_n| >= eps**d; and the assembled bound
    sum (1 - |det|^2) <= sum (1 - |h|^2) + N sum (1 - |B|^2) + d together
    with the covering count of {|det| < eps**d} staying at most d.
    N = n_power_for(alpha, log_eps_prime, d).  abs_dets holds |det theta_n|
    on z_grid, shape (members, points), as ``condition_sums`` reads it.
    """
    family = list(theta_family)
    products = list(b_family)
    if len(family) != len(products):
        raise DomainError("need one Blaschke product per family member")
    dims = {t.rows for t in family} | {t.cols for t in family}
    if len(dims) != 1:
        raise DomainError("matrix family members must share a square shape")
    d = dims.pop()
    if not 0.0 < eps < 1.0:
        raise DomainError("eps must lie in (0, 1)")
    # refuses alpha outside (0, 1) and log_eps_prime >= 0
    n_power = n_power_for(alpha, log_eps_prime, d)

    zs = np.asarray(z_grid, dtype=complex).reshape(-1)
    n_funcs = len(family)

    # boundary data: support multiplicity and log of the comparison modulus
    log_h_boundary = []
    support = np.zeros((n_funcs, BOUNDARY_SIZE), dtype=bool)
    for i, theta in enumerate(family):
        absdet = theta.boundary_abs_det()
        support[i] = absdet < 1.0 - 1e-8
        with np.errstate(divide="ignore"):
            log_mod = np.log(absdet)
        log_h_boundary.append(np.maximum(log_mod, d * log_eps_prime))
    multiplicity = int(np.max(np.sum(support, axis=0))) if n_funcs else 0
    d_star = max(multiplicity, 1)

    log_h = np.zeros((n_funcs, zs.shape[0]))
    for i in range(n_funcs):
        if np.all(log_h_boundary[i] == 0.0):
            continue
        log_h[i] = np.minimum(poisson_sum(log_h_boundary[i], zs), 0.0)

    log_b = np.stack([p.log_abs(zs) for p in products])
    with np.errstate(divide="ignore"):
        log_det = np.log(abs_dets)

    h_sq = np.exp(2.0 * log_h)
    b_sq = np.exp(2.0 * log_b)
    det_sq = np.exp(2.0 * log_det)

    # (a) product-complement inequality for (|h|^2, N copies of |B|^2)
    chain_sq = np.exp(2.0 * (log_h + n_power * log_b))
    a_lhs = 1.0 - chain_sq
    a_rhs = (1.0 - h_sq) + n_power * (1.0 - b_sq)
    check_a_margin = float(np.max(a_lhs - a_rhs))
    check_a_ok = check_a_margin <= _EXACT

    # (b) outer sums against the multiplicity bound
    b_sums = np.sum(1.0 - h_sq, axis=0)
    b_bound = 2.0 * d_star * (-log_eps_prime)
    check_b_sup = float(np.max(b_sums)) if b_sums.size else 0.0
    check_b_ok = check_b_sup <= b_bound + 1e-6

    # mid chain off the level sets; the tolerance absorbs the quadrature
    # error of the outer logs, which vanishes for inner members
    level = d * math.log(eps)
    off = log_det >= level
    mid_margin = (log_h + n_power * log_b) - log_det
    mid_worst = float(np.max(mid_margin[off])) if np.any(off) else -math.inf
    mid_ok = mid_worst <= 1e-6

    # assembled bound with the covering count
    covering = np.sum(~off, axis=0)
    covering_max = int(np.max(covering)) if covering.size else 0
    covering_ok = covering_max <= d
    lhs = np.sum(1.0 - det_sq, axis=0)
    rhs = np.sum(1.0 - h_sq, axis=0) + n_power * np.sum(1.0 - b_sq, axis=0) + d
    assembled_margin = float(np.max(lhs - rhs))
    assembled_ok = assembled_margin <= 1e-8

    passed = bool(check_a_ok and check_b_ok and mid_ok and covering_ok
                  and assembled_ok)
    return {
        # d_star is derived from the multiplicity, so support_ok always holds
        "dim": d, "d_star": d_star, "n_power": n_power,
        "support_multiplicity": multiplicity, "support_ok": True,
        "check_a_margin": check_a_margin, "check_a_ok": bool(check_a_ok),
        "check_b_sup": check_b_sup, "check_b_bound": b_bound,
        "check_b_ok": bool(check_b_ok),
        "mid_chain_worst": mid_worst, "mid_chain_ok": bool(mid_ok),
        "covering_max": covering_max, "covering_ok": bool(covering_ok),
        "assembled_margin": assembled_margin, "assembled_ok": bool(assembled_ok),
        "passed": passed,
    }
