"""Discrete Hardy-space numerics on a uniform boundary grid.

A circle function is held by its samples at the 2**m roots of unity.  The
FFT gives the Fourier-coefficient view; analytic means no negative
coefficients.  On top of that sit the Riesz projections, the Poisson
extension, outer functions built from a boundary modulus, Garsia sums and
the embedding constant of a family of Hankel operators with conjugate
analytic symbols.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .disk import TAU, require_interior
from .errors import DomainError, ResolutionWarning

DEFAULT_GRID_SIZE = 4096  # 2**12

#: points closer to the boundary than this many grid cells trigger a warning
POISSON_RESOLUTION_CELLS = 4

#: points per block of poisson_sum, and the relative Fourier tail it drops
_POISSON_BLOCK = 128
_POISSON_TAIL = 2.0 ** -60


def _check_power_of_two(n: int):
    if n < 2 or (n & (n - 1)) != 0:
        raise DomainError(f"grid size must be a power of two >= 2, got {n}")


class BoundaryGrid:
    """Samples of a function on the unit circle at 2**m uniform angles.

    ``values`` has shape (size, ...) with the sample axis first; entries may
    be scalars, vectors or matrices per sample.  The coefficient view uses
    the convention  c_k = (1/N) sum_j f(xi_j) xi_j**(-k),  stored in numpy
    FFT order (index k modulo N), so the round trip with
    :meth:`from_coefficients` is exact to rounding.
    """

    __slots__ = ("values",)

    def __init__(self, values):
        values = np.asarray(values, dtype=complex)
        _check_power_of_two(values.shape[0])
        self.values = values

    @property
    def size(self) -> int:
        return self.values.shape[0]

    @property
    def angles(self) -> np.ndarray:
        return TAU * np.arange(self.size) / self.size

    @property
    def points(self) -> np.ndarray:
        return np.exp(1j * self.angles)

    @classmethod
    def from_function(cls, fn, size: int = DEFAULT_GRID_SIZE) -> "BoundaryGrid":
        _check_power_of_two(size)
        pts = np.exp(1j * TAU * np.arange(size) / size)
        return cls(np.asarray(fn(pts), dtype=complex))

    def coefficients(self) -> np.ndarray:
        """Fourier coefficients in FFT order along the sample axis."""
        return np.fft.fft(self.values, axis=0) / self.size

    @classmethod
    def from_coefficients(cls, coeffs) -> "BoundaryGrid":
        coeffs = np.asarray(coeffs, dtype=complex)
        _check_power_of_two(coeffs.shape[0])
        return cls(np.fft.ifft(coeffs * coeffs.shape[0], axis=0))

    def negative_part_magnitude(self) -> float:
        """Largest coefficient magnitude at negative frequencies."""
        c = self.coefficients()
        return float(np.max(np.abs(c[self.size // 2:]))) if self.size > 1 else 0.0

    def is_analytic(self, tol: float = 1e-10) -> bool:
        scale = max(1.0, float(np.max(np.abs(self.values))))
        return self.negative_part_magnitude() <= tol * scale

    def norm(self) -> float:
        """L2 norm with normalized arc-length measure."""
        v = self.values.reshape(self.size, -1)
        return float(np.sqrt(np.mean(np.sum(np.abs(v) ** 2, axis=1))))

    def inner(self, other: "BoundaryGrid") -> complex:
        """<self, other>, linear in self, conjugate in other."""
        if other.size != self.size:
            raise DomainError("grids must share a size")
        a = self.values.reshape(self.size, -1)
        b = other.values.reshape(self.size, -1)
        return complex(np.mean(np.sum(a * np.conj(b), axis=1)))


def riesz_project(grid: BoundaryGrid, sign: str) -> BoundaryGrid:
    """Riesz projection onto analytic ('plus') or strictly co-analytic ('minus') part.

    'plus' keeps frequencies 0..N/2-1, 'minus' keeps -N/2..-1; the two parts
    sum back to the input exactly.
    """
    c = grid.coefficients()
    n = grid.size
    out = np.zeros_like(c)
    if sign == "plus":
        out[: n // 2] = c[: n // 2]
    elif sign == "minus":
        out[n // 2:] = c[n // 2:]
    else:
        raise DomainError(f"sign must be 'plus' or 'minus', got {sign!r}")
    return BoundaryGrid.from_coefficients(out)


def poisson_sum(samples, z) -> np.ndarray:
    """Poisson integral of uniform-grid samples, vectorized over ``z``.

    Returns  mean_j v_j (1 - |z|^2) / |xi_j - z|^2  with xi_j = exp(2 pi i j/n),
    for real samples v of any length n >= 1 and points z of any shape with
    |z| < 1 (the result has z's shape); |z| >= 1 raises DomainError.

    The quadrature equals its Fourier series exactly,

        S(z) = Re(c_0 + 2 sum_{j >= 1} c_{j mod n} z^j),   c = fft(v) / n,

    because summing the kernel's series over the grid folds frequency j onto
    j mod n.  The points are sorted by radius and taken in blocks of
    ``_POISSON_BLOCK``.  A block whose outermost radius is r keeps the terms
    j <= J = ceil(log(2**-60 (1 - r)) / log r), which drops a tail of at most
    2 max|c| r**(J+1) / (1 - r) <= 2**-59 max|c|; the powers come from a
    cumulative product and the sum is one complex matrix-vector product.
    Where J >= n, the shell 1 - |z| below about 45/n, the block sums the
    positive kernel directly instead: there the series would need more
    terms than the grid has samples, and the direct sum keeps its relative
    accuracy next to the circle, away from the data's mass.
    """
    v = np.asarray(samples, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise DomainError("poisson_sum expects a nonempty 1-d sample array")
    zs = np.asarray(z, dtype=complex)
    flat = zs.reshape(-1)
    radius = np.abs(flat)
    if not np.all(radius < 1.0):
        raise DomainError("the Poisson integral is defined at interior points only")
    n = v.size
    c = np.fft.fft(v) / n
    out = np.empty(flat.shape)
    order = np.argsort(radius, kind="stable")
    xi = None
    for k in range(0, flat.size, _POISSON_BLOCK):
        idx = order[k : k + _POISSON_BLOCK]
        r = radius[idx[-1]]
        terms = 0 if r == 0.0 else math.ceil(math.log(_POISSON_TAIL * (1.0 - r)) / math.log(r))
        if terms < n:
            powers = np.cumprod(np.broadcast_to(flat[idx], (terms, idx.size)), axis=0)
            out[idx] = c[0].real + 2.0 * (c[1 : terms + 1] @ powers).real
        else:
            if xi is None:
                xi = np.exp(1j * TAU * np.arange(n) / n)
            zb = flat[idx, None]
            kern = (1.0 - radius[idx, None] ** 2) / np.abs(xi[None, :] - zb) ** 2
            out[idx] = kern @ v / n
    return out.reshape(zs.shape)


def poisson_extend(values, lam, warn: bool = True):
    """Harmonic (Poisson) extension of boundary samples at interior points.

    Parameters
    ----------
    values : array or BoundaryGrid
        Real or complex samples on the uniform grid; shape (N,).
    lam : complex scalar or ndarray of interior points.
    warn : emit a ResolutionWarning when 1 - |lam| is below
        POISSON_RESOLUTION_CELLS / N, where the quadrature loses accuracy.

    Returns the quadrature  mean_j values_j (1-|lam|^2) / |xi_j - lam|^2,
    evaluated by :func:`poisson_sum` (complex samples part by part).
    """
    if isinstance(values, BoundaryGrid):
        values = values.values
    values = np.asarray(values)
    if values.ndim != 1:
        raise DomainError("poisson_extend expects scalar samples, shape (N,)")
    n = values.shape[0]
    lam_arr = np.atleast_1d(np.asarray(lam, dtype=complex))
    out = poisson_sum(values.real, lam_arr)
    if np.iscomplexobj(values):
        out = out + 1j * poisson_sum(values.imag, lam_arr)
    if warn and np.any(1.0 - np.abs(lam_arr) < POISSON_RESOLUTION_CELLS / n):
        warnings.warn(
            f"Poisson quadrature at distance < {POISSON_RESOLUTION_CELLS}/{n} from the boundary; "
            "increase the grid size",
            ResolutionWarning,
            stacklevel=2,
        )
    if np.isscalar(lam) or isinstance(lam, (complex, float, int)):
        return out[0]
    return out


class HardyFunction:
    """Analytic polynomial given by its Taylor coefficients c_0..c_deg."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.ndim != 1 or coeffs.shape[0] == 0:
            raise DomainError("coefficients must be a nonempty 1-d array")
        self.coeffs = coeffs

    @property
    def degree(self) -> int:
        return self.coeffs.shape[0] - 1

    def __call__(self, z):
        zs = np.asarray(z, dtype=complex)
        out = np.polynomial.polynomial.polyval(zs, self.coeffs)
        if np.isscalar(z) or isinstance(z, (complex, float, int)):
            return complex(out)
        return out

    def boundary(self, size: int = DEFAULT_GRID_SIZE) -> BoundaryGrid:
        if size <= self.degree:
            raise DomainError("grid size must exceed the degree")
        c = np.zeros(size, dtype=complex)
        c[: self.degree + 1] = self.coeffs
        return BoundaryGrid.from_coefficients(c)

    @classmethod
    def from_grid(cls, grid: BoundaryGrid, tol: float = 1e-10) -> "HardyFunction":
        if not grid.is_analytic(tol):
            raise DomainError(
                f"grid function has negative-frequency content above {tol:g}"
            )
        c = grid.coefficients()
        return cls(c[: grid.size // 2])

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))


def herglotz_coefficients(log_modulus: np.ndarray) -> np.ndarray:
    """Coefficients of the analytic completion g with Re g = log_modulus.

    g has  g_0 = v_0,  g_k = 2 v_k (k > 0),  g_k = 0 (k < 0),  where v is
    the coefficient array of the real samples.  Returned in FFT order.
    """
    v = np.asarray(log_modulus, dtype=float)
    n = v.shape[0]
    c = np.fft.fft(v) / n
    g = np.zeros(n, dtype=complex)
    g[0] = c[0].real
    g[1: n // 2] = 2.0 * c[1: n // 2]
    return g


def outer_from_modulus(u) -> HardyFunction:
    """Outer function h with |h| = u on the boundary, h(0) > 0.

    ``u`` is a positive sample array (or BoundaryGrid); accuracy is that of
    the grid, so u whose log has slowly decaying Fourier tail (zeros on or
    near the circle) converges slowly.  The Herglotz construction always
    yields h(0) = exp(mean log u) > 0.
    """
    if isinstance(u, BoundaryGrid):
        u = u.values.real
    u = np.asarray(u, dtype=float)
    if u.ndim != 1:
        raise DomainError("modulus samples must be one-dimensional")
    _check_power_of_two(u.shape[0])
    if np.any(u <= 0.0):
        raise DomainError("outer modulus must be strictly positive at every sample")
    g = herglotz_coefficients(np.log(u))
    n = u.shape[0]
    g_samples = np.fft.ifft(g * n)
    h_samples = np.exp(g_samples)
    c = np.fft.fft(h_samples) / n
    return HardyFunction(c[: n // 2])


def outer_log_at(log_modulus: np.ndarray, z) -> complex:
    """log h(z) of the outer function via the Herglotz quadrature, at one point.

    mean_j log_modulus_j * (xi_j + z) / (xi_j - z).  Only its real part, the
    Poisson extension of the log modulus, is needed by the library, which
    evaluates it at many points at once with :func:`poisson_sum`.
    """
    z = require_interior(z, "evaluation point")
    v = np.asarray(log_modulus, dtype=float)
    n = v.shape[0]
    xi = np.exp(1j * TAU * np.arange(n) / n)
    return complex(np.mean(v * (xi + z) / (xi - z)))


def _family_member_data(member, size: int):
    """Boundary samples (N, rows, cols) and coefficient view for one family member."""
    if isinstance(member, HardyFunction):
        grid = member.boundary(size)
    elif isinstance(member, BoundaryGrid):
        grid = member
        if grid.size != size:
            raise DomainError("family members must share the grid size")
    else:
        raise DomainError("family members must be HardyFunction or BoundaryGrid")
    vals = grid.values
    if vals.ndim == 1:
        vals = vals[:, None, None]
    elif vals.ndim == 2:
        vals = vals[:, :, None]
    elif vals.ndim != 3:
        raise DomainError("family members must be scalar, vector or matrix valued")
    flat = BoundaryGrid(vals.reshape(size, -1))
    if not flat.is_analytic(1e-10):
        raise DomainError("family member is not analytic on the grid (tol 1e-10)")
    return vals


def garsia_sum(family, lam, e=None, size: int | None = None) -> float:
    """Garsia-type sum  sum_n (|F_n|^2(lam) - |F_n(lam)|^2).

    Scalar members use |F_n|^2(lam) = Poisson extension of the boundary
    modulus squared.  With a unit vector ``e`` the members may be matrix
    valued and the summand is ||F_n^* e||^2(lam) - ||F_n(lam)^* e||^2.
    The result is nonnegative up to quadrature error.
    """
    lam = require_interior(lam)
    members = list(family)
    if not members:
        return 0.0
    if size is None:
        size = members[0].size if isinstance(members[0], BoundaryGrid) else DEFAULT_GRID_SIZE
    total = 0.0
    for member in members:
        vals = _family_member_data(member, size)
        n, rows, cols = vals.shape
        if e is None:
            if rows != 1 or cols != 1:
                raise DomainError("vector-valued members need the unit vector argument")
            ve = vals[:, :, 0]
        else:
            evec = np.asarray(e, dtype=complex)
            if evec.shape != (rows,):
                raise DomainError(f"unit vector must have shape ({rows},)")
            ve = np.einsum("nrc,r->nc", np.conj(vals), evec)
        boundary_sq = np.sum(np.abs(ve) ** 2, axis=1)
        harm = float(np.real(poisson_extend(boundary_sq, lam, warn=False)))
        coeffs = np.fft.fft(vals, axis=0) / n
        k = np.arange(n // 2)
        powers = lam ** k
        at_lam = np.tensordot(powers, coeffs[: n // 2], axes=(0, 0))
        if e is None:
            point_sq = abs(at_lam[0, 0]) ** 2
        else:
            point_sq = float(np.linalg.norm(np.conj(at_lam.T) @ evec) ** 2)
        total += harm - point_sq
    return total


def hankel_embedding_constant(family, ambient_degree: int) -> float:
    """Largest eigenvalue of the finite section of sum_n H_n^* H_n.

    H_n is the Hankel operator with symbol conj(F_n) acting on analytic
    polynomials of degree <= ambient_degree; for a polynomial symbol of
    degree D the operator has rank < D, so any ambient_degree >= max degree
    gives the exact constant of the family.
    """
    if ambient_degree < 0:
        raise DomainError("ambient degree must be nonnegative")
    members = list(family)
    dim = ambient_degree + 1
    total = np.zeros((dim, dim), dtype=complex)
    for member in members:
        if isinstance(member, BoundaryGrid):
            member = HardyFunction.from_grid(member)
        if not isinstance(member, HardyFunction):
            raise DomainError("family members must be HardyFunction or analytic BoundaryGrid")
        a = member.coeffs
        deg = a.shape[0] - 1
        if deg < 1:
            continue
        # H z^j = sum_{k>=1} conj(a_{j+k}) xi^{-k}; rows k = 1..deg
        h = np.zeros((deg, dim), dtype=complex)
        for j in range(dim):
            for k in range(1, deg + 1):
                if j + k <= deg:
                    h[k - 1, j] = np.conj(a[j + k])
        total += h.conj().T @ h
    eig = np.linalg.eigvalsh(total)
    return float(max(eig[-1], 0.0))
