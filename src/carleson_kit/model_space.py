"""Scalar and matrix model-space computations on the boundary grid.

Scalar side: the projection onto K_theta = H^2 - theta H^2 for a finite
Blaschke product theta.  Matrix side: bounded analytic matrix functions
Theta, their boundary samples (:meth:`MatrixFunction.boundary`, computed
once per function) and the coefficients and zeros of det Theta.  The span
of the kernels at a finite zero set is built by
``riesz.SubspaceSystem.from_kernel_groups``; the covering count of
{|det Theta_n| < eps**d} is computed by ``construction.lemma_10_1_check``;
the distance of a kernel datum from the model subspace, ||Theta(lam)* e||,
is the ``star_norms`` entry of ``construction.build_contour_nets``.

Matrix functions are held as a polynomial matrix numerator over a scalar
polynomial denominator with no zeros in the closed disk.  Polynomial
matrices are the ``denominator = 1`` case; the rational form exists so that
scalar Blaschke factors and diagonal inner matrices built from them are
representable exactly.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import polynomial as npoly

from .disk import TAU, _interior, kernel
from .errors import DomainError
from .hardy import BoundaryGrid, riesz_project

# boundary samples of a matrix function: the roots of unity of this order
BOUNDARY_SIZE = 2048


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

    __slots__ = ("numer", "denom", "_det_coeffs", "_boundary")

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
        self._boundary = None

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
        return out.reshape(self.rows, self.cols) if np.isscalar(z) else out

    def boundary(self) -> np.ndarray:
        """Values at the ``BOUNDARY_SIZE`` roots of unity, shape (size, rows,
        cols); computed on the first call and kept read-only."""
        if self._boundary is None:
            pts = np.exp(1j * TAU * np.arange(BOUNDARY_SIZE) / BOUNDARY_SIZE)
            vals = self(pts)
            vals.flags.writeable = False
            self._boundary = vals
        return self._boundary

    def is_contractive(self) -> bool:
        """Largest boundary singular value at most 1 + 1e-8 on every 4th
        boundary sample, the roots of unity of order ``BOUNDARY_SIZE / 4``."""
        s = np.linalg.svd(self.boundary()[::4], compute_uv=False)
        return bool(np.max(s) <= 1.0 + 1e-8)

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
        for lam in _interior(zeros, "Blaschke zero").reshape(-1).tolist():
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
    plus = riesz_project(inner)
    return BoundaryGrid(f.values - theta_b * plus.values)


def kernel_grid(lam, size: int) -> BoundaryGrid:
    """Boundary samples of the normalized kernel k_lam."""
    return BoundaryGrid(kernel(lam, np.exp(1j * TAU * np.arange(size) / size)))
