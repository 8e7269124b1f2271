"""Scalar and matrix model-space computations on the boundary grid.

Scalar side: the projection onto K_theta = H^2 - theta H^2 for a finite
Blaschke product theta.  Matrix side: two-component subspaces

    M = (Theta; Delta) H^2(E_1)  (+)  (0; P L^2(E_*)),

their orthogonal projection, the three distance formulas for analytic,
kernel and co-analytic data, determinants of matrix functions with the
rectangular conventions (:func:`det_theta_many`) and boundary support
counts.  The span of the kernels at a finite zero set is built by
``riesz.SubspaceSystem.from_kernel_groups``; the covering count of
{|det Theta_n| < eps**d} is computed by ``construction.lemma_10_1_check``.

Matrix functions are held as a polynomial matrix numerator over a scalar
polynomial denominator with no zeros in the closed disk.  Polynomial
matrices are the ``denominator = 1`` case; the rational form exists so that
scalar Blaschke factors and diagonal inner matrices built from them are
representable exactly.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import polynomial as npoly

from .disk import TAU, kernel, require_interior
from .errors import DomainError
from .hardy import BoundaryGrid, riesz_project

DEFAULT_BOUNDARY_SIZE = 512


def _trim(coeffs: np.ndarray, tol: float = 0.0) -> np.ndarray:
    coeffs = np.asarray(coeffs, dtype=complex)
    scale = max(1.0, float(np.max(np.abs(coeffs), initial=0.0)))
    keep = coeffs.shape[0]
    while keep > 1 and abs(coeffs[keep - 1]) <= tol * scale:
        keep -= 1
    return coeffs[:keep]


class MatrixFunction:
    """Matrix-valued analytic function N(z) / q(z) on the closed disk.

    ``numer`` has shape (n_coeff, rows, cols), ascending powers; ``denom``
    is a scalar polynomial with no zeros in the closed unit disk.
    """

    __slots__ = ("numer", "denom", "_det_coeffs")

    def __init__(self, numer, denom=(1.0,)):
        numer = np.asarray(numer, dtype=complex)
        if numer.ndim != 3 or numer.shape[0] == 0:
            raise DomainError("numerator must have shape (n_coeff, rows, cols)")
        denom = _trim(np.asarray(denom, dtype=complex))
        if denom.shape[0] == 0 or np.all(denom == 0):
            raise DomainError("denominator must be a nonzero polynomial")
        if denom.shape[0] > 1:
            roots = npoly.polyroots(denom)
            if np.any(np.abs(roots) <= 1.0 + 1e-10):
                raise DomainError("denominator must not vanish on the closed disk")
        self.numer = numer
        self.denom = denom
        self._det_coeffs = None

    @property
    def rows(self) -> int:
        return self.numer.shape[1]

    @property
    def cols(self) -> int:
        return self.numer.shape[2]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def __call__(self, z):
        zs = np.asarray(z, dtype=complex)
        powers = zs[..., None] ** np.arange(self.numer.shape[0])
        num = np.tensordot(powers, self.numer, axes=(-1, 0))
        den = npoly.polyval(zs, self.denom)
        out = num / den[..., None, None]
        if np.isscalar(z) or isinstance(z, (complex, float, int)):
            return out.reshape(self.rows, self.cols)
        return out

    def boundary(self, size: int = DEFAULT_BOUNDARY_SIZE) -> np.ndarray:
        pts = np.exp(1j * TAU * np.arange(size) / size)
        return self(pts)

    def is_contractive(self, size: int = DEFAULT_BOUNDARY_SIZE, tol: float = 1e-8) -> bool:
        vals = self.boundary(size)
        s = np.linalg.svd(vals, compute_uv=False)
        return bool(np.max(s) <= 1.0 + tol)

    def det_coefficients(self) -> np.ndarray:
        """Coefficients of det(numerator) via roots-of-unity interpolation."""
        if self.rows != self.cols:
            raise DomainError("determinant coefficients need a square matrix")
        if self._det_coeffs is None:
            deg_bound = self.rows * (self.numer.shape[0] - 1)
            m = 1
            while m < deg_bound + 1:
                m *= 2
            m = max(m, 2)
            pts = np.exp(1j * TAU * np.arange(m) / m)
            powers = pts[:, None] ** np.arange(self.numer.shape[0])
            num = np.tensordot(powers, self.numer, axes=(1, 0))
            dets = np.linalg.det(num)
            coeffs = np.fft.fft(dets) / m
            self._det_coeffs = _trim(coeffs, tol=1e-12)
        return self._det_coeffs

    def det_zeros_in_disk(self) -> list[complex]:
        """Zeros of det (with multiplicity) strictly inside the disk."""
        coeffs = self.det_coefficients()
        if coeffs.shape[0] <= 1:
            return []
        roots = npoly.polyroots(coeffs)
        return [complex(r) for r in roots if abs(r) < 1.0]

    @classmethod
    def from_polynomial(cls, coeff_matrices) -> "MatrixFunction":
        """Build from a list of coefficient matrices, ascending powers."""
        return cls(np.asarray(coeff_matrices, dtype=complex))

    @classmethod
    def constant(cls, matrix) -> "MatrixFunction":
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2:
            raise DomainError("constant matrix must be two-dimensional")
        return cls(m[None, :, :])

    @classmethod
    def from_scalar_blaschke(cls, zeros) -> "MatrixFunction":
        """The 1x1 matrix function equal to the Blaschke product over ``zeros``."""
        num = np.array([1.0 + 0j])
        den = np.array([1.0 + 0j])
        for lam in zeros:
            lam = require_interior(lam, "Blaschke zero")
            if lam == 0:
                num = npoly.polymul(num, [0.0, 1.0])
            else:
                unim = abs(lam) / lam
                num = npoly.polymul(num, [unim * lam, -unim])
                den = npoly.polymul(den, [1.0, -np.conj(lam)])
        return cls(num[:, None, None], den)

    @classmethod
    def diagonal(cls, entries) -> "MatrixFunction":
        """Diagonal matrix function from 1x1 MatrixFunctions."""
        entries = list(entries)
        if not entries:
            raise DomainError("diagonal needs at least one entry")
        for e in entries:
            if e.shape != (1, 1):
                raise DomainError("diagonal entries must be 1x1 matrix functions")
        den = np.array([1.0 + 0j])
        for e in entries:
            den = npoly.polymul(den, e.denom)
        d = len(entries)
        pieces = []
        for i, e in enumerate(entries):
            other = np.array([1.0 + 0j])
            for j, f in enumerate(entries):
                if j != i:
                    other = npoly.polymul(other, f.denom)
            pieces.append(npoly.polymul(e.numer[:, 0, 0], other))
        n_coeff = max(p.shape[0] for p in pieces)
        numer = np.zeros((n_coeff, d, d), dtype=complex)
        for i, p in enumerate(pieces):
            numer[: p.shape[0], i, i] = p
        return cls(numer, den)


def det_theta_many(theta: MatrixFunction, zs: np.ndarray) -> np.ndarray:
    """Determinant of theta at each point of ``zs``, with the rectangular conventions.

    For square theta this is the determinant of the evaluated matrix; when
    the domain space is smaller than the range (cols < rows) the result is
    identically 0, and when it is larger (cols > rows) identically 1.
    """
    zs = np.asarray(zs, dtype=complex)
    if theta.cols < theta.rows:
        return np.zeros(zs.shape, dtype=complex)
    if theta.cols > theta.rows:
        return np.ones(zs.shape, dtype=complex)
    return np.linalg.det(theta(zs))


def project_model(theta, f: BoundaryGrid) -> BoundaryGrid:
    """Orthogonal projection of analytic f onto K_theta: f - theta P_+(conj(theta) f)."""
    if not isinstance(f, BoundaryGrid):
        raise DomainError("project_model expects a BoundaryGrid")
    if f.values.ndim != 1:
        raise DomainError("project_model handles scalar functions")
    if not f.is_analytic(1e-8):
        raise DomainError("input must be analytic on the grid")
    theta_b = theta(f.points)
    inner = BoundaryGrid(np.conj(theta_b) * f.values)
    plus = riesz_project(inner, "plus")
    return BoundaryGrid(f.values - theta_b * plus.values)


def kernel_grid(lam, size: int) -> BoundaryGrid:
    """Boundary samples of the normalized kernel k_lam."""
    return BoundaryGrid(kernel(lam, np.exp(1j * TAU * np.arange(size) / size)))


class ModelTriple:
    """Data (Theta, Delta, P) of a two-component invariant subspace.

    Theta is analytic (rows = dim E, cols = dim E_1); Delta and P are
    measurable matrix families sampled on a common boundary grid,
    Delta(xi): E_1 -> E_* and P(xi) an orthogonal projection of E_* whose
    range is orthogonal to the range of Delta(xi).  The constructor checks

        Theta* Theta + Delta* Delta = I,   P^2 = P = P*,   P Delta = 0

    at every sample, each to 1e-8.
    """

    __slots__ = ("theta", "delta", "proj", "size", "theta_boundary")

    def __init__(self, theta: MatrixFunction, delta: BoundaryGrid, proj: BoundaryGrid):
        if delta.values.ndim != 3 or proj.values.ndim != 3:
            raise DomainError("Delta and P must be matrix-valued grids")
        if delta.size != proj.size:
            raise DomainError("Delta and P must share the grid size")
        self.size = delta.size
        d_star, d1 = delta.values.shape[1], delta.values.shape[2]
        if theta.cols != d1:
            raise DomainError("Theta and Delta must share the domain dimension")
        if proj.values.shape[1] != d_star or proj.values.shape[2] != d_star:
            raise DomainError("P must be square on E_*")
        self.theta = theta
        self.delta = delta
        self.proj = proj
        self.theta_boundary = theta.boundary(self.size)
        tb, dv, pv = self.theta_boundary, delta.values, proj.values
        gram = np.einsum("nij,nik->njk", np.conj(tb), tb) + np.einsum(
            "nij,nik->njk", np.conj(dv), dv
        )
        eye = np.eye(d1)
        if np.max(np.abs(gram - eye)) > 1e-8:
            raise DomainError("Theta* Theta + Delta* Delta != I on the grid (tol 1e-8)")
        if np.max(np.abs(np.einsum("nij,njk->nik", pv, pv) - pv)) > 1e-8:
            raise DomainError("P is not idempotent on the grid (tol 1e-8)")
        if np.max(np.abs(pv - np.conj(np.transpose(pv, (0, 2, 1))))) > 1e-8:
            raise DomainError("P is not self-adjoint on the grid (tol 1e-8)")
        if np.max(np.abs(np.einsum("nij,njk->nik", pv, dv))) > 1e-8:
            raise DomainError("Range P must be orthogonal to Range Delta (tol 1e-8)")

    @property
    def dim_range(self) -> int:
        return self.theta.rows

    @property
    def dim_domain(self) -> int:
        return self.theta.cols

    @property
    def dim_star(self) -> int:
        return self.delta.values.shape[1]


def two_component_project(triple: ModelTriple, f: BoundaryGrid, g: BoundaryGrid):
    """Orthogonal projection of (f, g) onto M.

    P_M(f, g) = (Theta; Delta) P_+(Theta* f + Delta* g) + (0; P g).
    Returns the pair of grids (component in L^2(E), component in L^2(E_*)).
    """
    if f.size != triple.size or g.size != triple.size:
        raise DomainError("inputs must live on the triple's grid")
    fv = f.values if f.values.ndim == 2 else f.values[:, None]
    gv = g.values if g.values.ndim == 2 else g.values[:, None]
    tb, dv, pv = triple.theta_boundary, triple.delta.values, triple.proj.values
    u = np.einsum("nij,ni->nj", np.conj(tb), fv) + np.einsum("nij,ni->nj", np.conj(dv), gv)
    u_plus = riesz_project(BoundaryGrid(u), "plus").values
    top = np.einsum("nij,nj->ni", tb, u_plus)
    bottom = np.einsum("nij,nj->ni", dv, u_plus) + np.einsum("nij,nj->ni", pv, gv)
    return BoundaryGrid(top), BoundaryGrid(bottom)


def _pair_norm(top: BoundaryGrid, bottom: BoundaryGrid) -> float:
    return math.sqrt(top.norm() ** 2 + bottom.norm() ** 2)


def distance_analytic(triple: ModelTriple, f: BoundaryGrid) -> float:
    """dist{(f, 0), K} = ||P_+ Theta* f|| for analytic f in H^2(E)."""
    if f.size != triple.size:
        raise DomainError("input must live on the triple's grid")
    fv = f.values if f.values.ndim == 2 else f.values[:, None]
    if not BoundaryGrid(fv).is_analytic(1e-8):
        raise DomainError("f must be analytic")
    u = np.einsum("nij,ni->nj", np.conj(triple.theta_boundary), fv)
    return riesz_project(BoundaryGrid(u), "plus").norm()


def distance_kernel_datum(triple: ModelTriple, lam, e) -> float:
    """dist{(k_lam e, 0), K} = ||Theta(lam)* e||."""
    lam = require_interior(lam)
    e = np.asarray(e, dtype=complex)
    if e.shape != (triple.dim_range,):
        raise DomainError(f"vector must have shape ({triple.dim_range},)")
    return float(np.linalg.norm(np.conj(triple.theta(lam)).T @ e))


def distance_coanalytic(triple: ModelTriple, g: BoundaryGrid) -> float:
    """dist{(0, g), K} = (||P g||^2 + ||P_+ Delta* g||^2)^(1/2)."""
    if g.size != triple.size:
        raise DomainError("input must live on the triple's grid")
    gv = g.values if g.values.ndim == 2 else g.values[:, None]
    pg = np.einsum("nij,nj->ni", triple.proj.values, gv)
    u = np.einsum("nij,ni->nj", np.conj(triple.delta.values), gv)
    u_plus = riesz_project(BoundaryGrid(u), "plus")
    return math.sqrt(BoundaryGrid(pg).norm() ** 2 + u_plus.norm() ** 2)


def residual_norm_coanalytic(triple: ModelTriple, g: BoundaryGrid) -> float:
    """||P_K (0, g)||, the part of (0, g) orthogonal to M."""
    zero = BoundaryGrid(np.zeros((triple.size, triple.dim_range), dtype=complex))
    top, bottom = two_component_project(triple, zero, g)
    gv = g.values if g.values.ndim == 2 else g.values[:, None]
    res_sq = BoundaryGrid(gv).norm() ** 2 - _pair_norm(top, bottom) ** 2
    return math.sqrt(max(res_sq, 0.0))


def support_cover_count(triples, tol: float = 1e-8) -> tuple[int, int]:
    """Boundary multiplicities of the supports sigma_k and tau_k.

    sigma_k: samples where Delta_k has operator norm above tol (relative to
    the family scale); tau_k: samples where rank P_k + rank Delta_k falls
    short of dim E_*.  Returns the max multiplicity of each family.
    """
    triples = list(triples)
    if not triples:
        return 0, 0
    size = triples[0].size
    if any(t.size != size for t in triples):
        raise DomainError("triples must share the grid size")
    scale = max(
        1.0,
        max(float(np.max(np.abs(t.delta.values), initial=0.0)) for t in triples),
    )
    cut = tol * scale
    sigma_counts = np.zeros(size, dtype=int)
    tau_counts = np.zeros(size, dtype=int)
    for t in triples:
        sv = np.linalg.svd(t.delta.values, compute_uv=False)
        rank_delta = np.sum(sv > cut, axis=1)
        sigma_counts += sv[:, 0] > cut
        pe = np.linalg.eigvalsh(t.proj.values)
        rank_p = np.sum(pe > 0.5, axis=1)
        tau_counts += (rank_p + rank_delta) < t.dim_star
    return int(sigma_counts.max()), int(tau_counts.max())


def triple_from_theta(theta: MatrixFunction, d_star: int | None = None,
                      size: int = DEFAULT_BOUNDARY_SIZE,
                      proj: str = "zero") -> ModelTriple:
    """A valid triple over a contractive Theta.

    Delta(xi) = (I - Theta* Theta)^(1/2)(xi) embedded into E_* (padded with
    zero rows when d_star > cols).  ``proj`` selects P: 'zero' always works;
    'identity' requires Theta inner (Delta = 0).
    """
    if not theta.is_contractive(size):
        raise DomainError("Theta must be contractive on the boundary")
    d1 = theta.cols
    if d_star is None:
        d_star = d1
    if d_star < d1 and proj != "identity":
        raise DomainError("d_star must be at least the domain dimension")
    tb = theta.boundary(size)
    gram = np.einsum("nij,nik->njk", np.conj(tb), tb)
    w, v = np.linalg.eigh(np.eye(d1) - gram)
    w = np.clip(w, 0.0, None)
    root = np.einsum("nij,nj,nkj->nik", v, np.sqrt(w), np.conj(v))
    if proj == "identity":
        if np.max(w) > 1e-10:
            raise DomainError("identity projection needs an inner Theta")
        delta = np.zeros((size, d_star, d1), dtype=complex)
        p = np.broadcast_to(np.eye(d_star, dtype=complex), (size, d_star, d_star)).copy()
    elif proj == "zero":
        delta = np.zeros((size, d_star, d1), dtype=complex)
        delta[:, :d1, :] = root
        p = np.zeros((size, d_star, d_star), dtype=complex)
    else:
        raise DomainError("proj must be 'zero' or 'identity'")
    return ModelTriple(theta, BoundaryGrid(delta), BoundaryGrid(p))
