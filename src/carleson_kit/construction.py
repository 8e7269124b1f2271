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
from .contour import ContourConstants, ContourResult, BoundedFunction, bourgain_contour
from .errors import DomainError, NetValidityError
from .hardy import poisson_sum
from .model_space import MatrixFunction, det_theta_many
from . import riesz

_EXACT = 1e-12


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


def product_defect_bound(alphas) -> tuple[float, float]:
    """(1 - prod alphas, sum (1 - alpha)): the left never exceeds the right
    for values in [0, 1]."""
    arr = np.asarray(alphas, dtype=float)
    return float(1.0 - np.prod(arr)), float(np.sum(1.0 - arr))


@dataclass(frozen=True)
class ContourNetEntry:
    """Everything attached to one family member.

    sigma holds the net points on the determinant contour, vectors the unit
    vectors with smallest image under the adjoint value at each net point,
    star_norms those smallest singular values, blaschke the product over
    sigma.  parts and part_products appear after the sphere-net split.
    """

    theta: MatrixFunction
    det_function: BoundedFunction
    contour: ContourResult
    sigma: tuple
    vectors: tuple
    star_norms: tuple
    blaschke: BlaschkeProduct
    parts: dict | None = None
    part_products: dict | None = None


@dataclass(frozen=True)
class PointSystem:
    epsilon: float
    alpha: float
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
    for the separation-only constant of the net points.
    """
    worst = 1.0
    for entry in ps.entries:
        if len(entry.sigma) < 2:
            continue
        system = riesz.SubspaceSystem.from_kernel_groups([[p] for p in entry.sigma])
        worst = max(worst, riesz.orthogonalizer_condition(system))
    return worst


def estimate_cv(delta_floor: float, rng=None, trials: int = 40,
                max_groups: int = 4, max_group_size: int = 3) -> dict:
    """Empirical basis constant at minimality level delta_floor.

    Draws random kernel-group systems, keeps those whose uniform minimality
    is at least delta_floor, and reports the largest orthogonalizer
    condition seen among them.  Purely a measurement; there is no formula
    to check it against.
    """
    if not 0.0 < delta_floor < 1.0:
        raise DomainError("delta_floor must lie in (0, 1)")
    rng = np.random.default_rng(rng)
    best = 1.0
    used = 0
    for _ in range(trials):
        groups = []
        seen = set()
        for _ in range(int(rng.integers(2, max_groups + 1))):
            size = int(rng.integers(1, max_group_size + 1))
            pts = []
            while len(pts) < size:
                z = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
                if abs(z) < 0.95 and z not in seen:
                    seen.add(z)
                    pts.append(z)
            groups.append(pts)
        try:
            system = riesz.SubspaceSystem.from_kernel_groups(groups)
        except Exception:
            continue
        if riesz.uniform_minimality(system) < delta_floor:
            continue
        used += 1
        best = max(best, riesz.orthogonalizer_condition(system))
    return {"cv": best, "samples_used": used, "trials": trials}


def _det_as_bounded_function(theta: MatrixFunction, boundary_size: int = 2048,
                             log_floor: float = -60.0) -> BoundedFunction:
    """Zeros plus boundary outer log of det theta, as a bounded function."""
    zeros = theta.det_zeros_in_disk()
    boundary = theta.boundary(boundary_size)
    dets = np.linalg.det(boundary)
    with np.errstate(divide="ignore"):
        log_mod = np.log(np.abs(dets))
    log_mod = np.clip(log_mod, log_floor, 0.0)
    if float(np.min(log_mod)) > -1e-10:
        log_mod = None
    return BoundedFunction(zeros=tuple(zeros), outer_log=log_mod)


def build_contour_nets(theta_family, eps: float, alpha: float,
                       constants: ContourConstants | None = None) -> PointSystem:
    """Contour, net, unit vectors and Blaschke product for every member.

    Each member must be square and boundary-contractive.  Its determinant
    contour is taken at level eps**d, the net on the contour vertices has
    pseudo-hyperbolic mesh alpha, and the attached vector at a net point is
    the left singular vector of the smallest singular value there, so the
    adjoint value has norm below eps at every net point.
    """
    if not 0.0 < eps < 1.0:
        raise DomainError("eps must lie in (0, 1)")
    entries = []
    for theta in theta_family:
        if theta.rows != theta.cols:
            raise DomainError("family members must be square matrix functions")
        if not theta.is_contractive():
            raise DomainError("family members must be contractive in the disk")
        d = theta.rows
        phi = _det_as_bounded_function(theta)
        level = eps ** d
        if constants is None:
            consts = ContourConstants.for_epsilon(level)
        else:
            consts = constants
        contour = bourgain_contour(phi, level, constants=consts)
        vertices = (np.concatenate(contour.polylines)
                    if contour.polylines else np.zeros(0, dtype=complex))
        sigma = place_net_on_curve(vertices, alpha)
        if sigma:
            separated, dense, product_small = net_is_valid(vertices, sigma, alpha)
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
            theta=theta, det_function=phi, contour=contour,
            sigma=tuple(sigma), vectors=tuple(vectors),
            star_norms=tuple(star_norms), blaschke=BlaschkeProduct(sigma)))
    return PointSystem(epsilon=eps, alpha=alpha, entries=tuple(entries))


def unit_sphere_net(dim: int, eps: float, rng=None, batch: int = 2048,
                    certify_samples: int = 10_000) -> list[np.ndarray]:
    """Greedy eps-net on phase-canonicalized unit vectors, probe-certified.

    Net points are inserted farthest-first until a full batch of fresh
    random unit vectors all fall strictly within eps of the net; the final
    certification draws certify_samples probes.  dim 1 collapses to the
    single vector (1,).
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

    def min_dists(probes):
        arr = np.asarray(net)
        return np.min(np.linalg.norm(probes[:, None, :] - arr[None, :, :], axis=2), axis=1)

    while True:
        probes = draw(batch)
        d = min_dists(probes)
        far = int(np.argmax(d))
        if d[far] >= eps:
            net.append(probes[far])
            continue
        certified = True
        for start in range(0, certify_samples, batch):
            probes = draw(min(batch, certify_samples - start))
            d = min_dists(probes)
            far = int(np.argmax(d))
            if d[far] >= eps:
                net.append(probes[far])
                certified = False
                break
        if certified:
            return net


def epsilon_net_split(ps: PointSystem, eps: float, net_vectors=None,
                      rng=None) -> PointSystem:
    """Split every net by nearest sphere-net vector.

    Each contour-net point goes to the part of the closest net vector; the
    distance must be strictly below eps or the net is declared invalid.
    Empty parts carry the constant-one Blaschke product, and the part
    products multiply back to the full product zero for zero.
    """
    if net_vectors is None:
        net_vectors = unit_sphere_net(ps.dim, eps, rng=rng)
    net = [
        canonical_phase(_as_unit(v)) for v in net_vectors]
    if not net:
        raise NetValidityError("the sphere net must be nonempty")
    arr = np.asarray(net)
    entries = []
    for entry in ps.entries:
        parts: dict[int, list] = {}
        for lam, e in zip(entry.sigma, entry.vectors):
            dist = np.linalg.norm(arr - np.asarray(e)[None, :], axis=1)
            k = int(np.argmin(dist))
            if dist[k] >= eps:
                raise NetValidityError(
                    "an attached vector lies farther than eps from every net vector")
            parts.setdefault(k, []).append(lam)
        part_points = {k: tuple(parts.get(k, ())) for k in range(len(net))}
        part_products = {k: BlaschkeProduct(pts) for k, pts in part_points.items()}
        merged = sorted((z for pts in part_points.values() for z in pts),
                        key=lambda z: (z.real, z.imag))
        original = sorted(entry.sigma, key=lambda z: (z.real, z.imag))
        if merged != original:
            raise NetValidityError("split parts do not recombine to the net")
        entries.append(replace(entry, parts=part_points, part_products=part_products))
    return PointSystem(epsilon=ps.epsilon, alpha=ps.alpha,
                       entries=tuple(entries), net_vectors=tuple(net))


def check_two_eps_margins(ps: PointSystem, eps: float) -> dict:
    """Adjoint values at net points against the part vectors.

    For every part vector e and net point lam in that part,
    ||theta(lam)* e|| <= ||theta(lam)* e_lam|| + eps and the sum stays
    strictly below 2 eps.  Needs a split system.
    """
    worst_triangle = -math.inf
    worst_total = -math.inf
    count = 0
    for entry in ps.entries:
        if entry.parts is None:
            raise DomainError("the point system must be split first")
        index_of = {lam: i for i, lam in enumerate(entry.sigma)}
        for k, pts in entry.parts.items():
            if not pts:
                continue
            ek = np.asarray(ps.net_vectors[k])
            for lam in pts:
                i = index_of[lam]
                val = float(np.linalg.norm(entry.theta(lam).conj().T @ ek))
                base = entry.star_norms[i]
                worst_triangle = max(worst_triangle, val - (base + eps))
                worst_total = max(worst_total, val - 2.0 * eps)
                count += 1
    if count == 0:
        return {"points": 0, "worst_triangle_margin": 0.0,
                "worst_total_margin": -2.0 * eps, "passed": True}
    passed = worst_triangle <= _EXACT and worst_total < 0.0
    return {"points": count, "worst_triangle_margin": worst_triangle,
            "worst_total_margin": worst_total, "passed": bool(passed)}


def _scalar_values(functions, zs: np.ndarray) -> np.ndarray:
    """abs values, shape (len(functions), len(zs))."""
    out = np.zeros((len(functions), zs.shape[0]))
    for i, fn in enumerate(functions):
        if isinstance(fn, BlaschkeProduct):
            out[i] = np.abs(fn(zs))
        elif isinstance(fn, MatrixFunction):
            out[i] = np.abs(det_theta_many(fn, zs))
        else:
            out[i] = np.abs(np.asarray(fn(zs), dtype=complex))
    return out


def condition_sums(b_family=None, theta_family=None, lam_grid=None,
                   e_grid=None, b_parts=None) -> dict:
    """Suprema of the basis condition sums over a grid.

    Scalar families feed the sum of (1 - |B_n|^2); matrix families feed the
    operator sum of (I - theta theta*) whose top eigenvalue is compared
    pointwise against the determinant sum (the determinant sum dominates,
    since each |det| is at most each singular value for contractions).
    delta_prime is the infimum of min_n (|theta_n| + prod_{k != n}
    |theta_k|).  With b_parts the split domination is checked pointwise.
    """
    if lam_grid is None:
        raise DomainError("a grid of interior points is required")
    zs = np.asarray(lam_grid, dtype=complex).reshape(-1)
    report: dict = {}

    scalars = None
    if b_family is not None:
        scalars = _scalar_values(list(b_family), zs)
        sums = np.sum(1.0 - scalars ** 2, axis=0)
        top = int(np.argmax(sums))
        report["sum_10_2_sup"] = float(sums[top])
        report["sum_10_2_argmax"] = complex(zs[top])

    if theta_family is not None:
        family = list(theta_family)
        dims = {t.rows for t in family} | {t.cols for t in family}
        if len(dims) != 1:
            raise DomainError("matrix family members must share a square shape")
        d = dims.pop()
        values = np.stack([
            np.stack([t(z) for z in zs]) for t in family])  # (n, z, d, d)
        gaps = np.eye(d)[None, None] - values @ np.conj(np.swapaxes(values, 2, 3))
        eig_sums = np.linalg.eigvalsh(np.sum(gaps, axis=0))[:, -1]
        dets = np.abs(np.linalg.det(values))
        det_sums = np.sum(1.0 - dets ** 2, axis=0)
        report["sum_5_4_sup"] = float(np.max(eig_sums))
        report["sum_5_5_sup"] = float(np.max(det_sums))
        margin = float(np.max(eig_sums - det_sums))
        report["implication_margin"] = margin
        report["implication_ok"] = bool(margin <= 1e-8)
        if e_grid is not None:
            total = np.sum(gaps, axis=0)
            best = 0.0
            for e in e_grid:
                ev = _as_unit(e)
                vals = np.real(np.einsum("i,zij,j->z", np.conj(ev), total, ev))
                best = max(best, float(np.max(vals)))
            report["sum_5_4_e_grid_sup"] = best
            report["e_grid_below_eig"] = bool(best <= report["sum_5_4_sup"] + _EXACT)
        if scalars is None:
            scalars = dets

    if scalars is not None:
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
        if scalars is None or b_family is None:
            raise DomainError("b_parts needs the matching b_family")
        lhs = np.sum(1.0 - scalars ** 2, axis=0)
        counts = {len(parts) for parts in b_parts}
        if len(counts) != 1:
            raise DomainError("every member needs the same number of parts")
        k_count = counts.pop()
        rhs = np.zeros_like(lhs)
        per_part_sups = []
        for k in range(k_count):
            part_vals = _scalar_values([parts[k] for parts in b_parts], zs)
            part_sum = np.sum(1.0 - part_vals ** 2, axis=0)
            per_part_sups.append(float(np.max(part_sum)))
            rhs += part_sum
        report["split_pointwise_ok"] = bool(np.all(lhs <= rhs + _EXACT))
        report["split_sup_lhs"] = float(np.max(lhs))
        report["split_sup_rhs"] = float(sum(per_part_sups))
        report["split_part_sups"] = per_part_sups
    return report


def n_power_for(alpha: float, log_eps_prime: float, dim: int) -> int:
    """Smallest N with alpha**N below eps'**dim, in logs."""
    if not 0.0 < alpha < 1.0:
        raise DomainError("alpha must lie in (0, 1)")
    if log_eps_prime >= 0.0:
        raise DomainError("log_eps_prime must be negative")
    return int(math.floor(dim * log_eps_prime / math.log(alpha))) + 1


def lemma_10_1_check(theta_family, b_family, eps: float, log_eps_prime: float,
                     z_grid, n_power: int | None = None, alpha: float | None = None,
                     d_star: int | None = None, boundary_size: int = 2048,
                     mid_tol: float = 1e-6) -> dict:
    """Replay of the outer-comparison bound chain on a grid.

    h_n is outer with boundary modulus max(|det theta_n|, eps'**d), kept in
    logs throughout.  Checks, at every grid point: the product-complement
    inequality for the computed moduli; the bound sum (1 - |h_n|^2) <=
    2 d_star log(1/eps'); the mid chain |h_n| |B_n|^N <= |det theta_n|
    wherever |det theta_n| >= eps**d; and the assembled bound
    sum (1 - |det|^2) <= sum (1 - |h|^2) + N sum (1 - |B|^2) + d together
    with the covering count of {|det| < eps**d} staying at most d.
    """
    family = list(theta_family)
    products = list(b_family)
    if len(family) != len(products):
        raise DomainError("need one Blaschke product per family member")
    dims = {t.rows for t in family} | {t.cols for t in family}
    if len(dims) != 1:
        raise DomainError("matrix family members must share a square shape")
    d = dims.pop()
    if log_eps_prime >= 0.0:
        raise DomainError("log_eps_prime must be negative")
    if n_power is None:
        if alpha is None:
            raise DomainError("give n_power or alpha to derive it")
        n_power = n_power_for(alpha, log_eps_prime, d)
    if n_power < 1:
        raise DomainError("n_power must be at least 1")

    zs = np.asarray(z_grid, dtype=complex).reshape(-1)
    n_funcs = len(family)

    # boundary data: support multiplicity and log of the comparison modulus
    log_h_boundary = []
    support = np.zeros((n_funcs, boundary_size), dtype=bool)
    for i, theta in enumerate(family):
        dets = np.linalg.det(theta.boundary(boundary_size))
        absdet = np.abs(dets)
        support[i] = absdet < 1.0 - 1e-8
        with np.errstate(divide="ignore"):
            log_mod = np.log(absdet)
        log_h_boundary.append(np.maximum(log_mod, d * log_eps_prime))
    multiplicity = int(np.max(np.sum(support, axis=0))) if n_funcs else 0
    d_star_eff = d_star if d_star is not None else max(multiplicity, 1)
    support_ok = multiplicity <= d_star_eff

    log_h = np.zeros((n_funcs, zs.shape[0]))
    for i in range(n_funcs):
        if np.all(log_h_boundary[i] == 0.0):
            continue
        log_h[i] = np.minimum(poisson_sum(log_h_boundary[i], zs), 0.0)

    log_b = np.stack([p.log_abs(zs) for p in products])
    with np.errstate(divide="ignore"):
        log_det = np.log(np.abs(np.stack([det_theta_many(t, zs) for t in family])))

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
    b_bound = 2.0 * d_star_eff * (-log_eps_prime)
    check_b_sup = float(np.max(b_sums)) if b_sums.size else 0.0
    check_b_ok = check_b_sup <= b_bound + 1e-6

    # mid chain off the level sets; the tolerance absorbs the quadrature
    # error of the outer logs, which vanishes for inner members
    level = d * math.log(eps)
    off = log_det >= level
    mid_margin = (log_h + n_power * log_b) - log_det
    mid_worst = float(np.max(mid_margin[off])) if np.any(off) else -math.inf
    mid_ok = mid_worst <= mid_tol

    # assembled bound with the covering count
    covering = np.sum(~off, axis=0)
    covering_max = int(np.max(covering)) if covering.size else 0
    covering_ok = covering_max <= d
    lhs = np.sum(1.0 - det_sq, axis=0)
    rhs = np.sum(1.0 - h_sq, axis=0) + n_power * np.sum(1.0 - b_sq, axis=0) + d
    assembled_margin = float(np.max(lhs - rhs))
    assembled_ok = assembled_margin <= 1e-8

    passed = bool(check_a_ok and check_b_ok and mid_ok and covering_ok
                  and assembled_ok and support_ok)
    return {
        "dim": d, "d_star": d_star_eff, "n_power": n_power,
        "support_multiplicity": multiplicity, "support_ok": bool(support_ok),
        "check_a_margin": check_a_margin, "check_a_ok": bool(check_a_ok),
        "check_b_sup": check_b_sup, "check_b_bound": b_bound,
        "check_b_ok": bool(check_b_ok),
        "mid_chain_worst": mid_worst, "mid_chain_ok": bool(mid_ok),
        "covering_max": covering_max, "covering_ok": bool(covering_ok),
        "assembled_margin": assembled_margin, "assembled_ok": bool(assembled_ok),
        "passed": passed,
    }
