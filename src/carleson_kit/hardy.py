"""Discrete Hardy-space numerics on a uniform boundary grid.

A circle function is held by its samples at the 2**m roots of unity.  The
FFT gives the Fourier-coefficient view; analytic means no negative
coefficients.  On top of that sit the Riesz projections, the one Poisson
quadrature of uniform-grid samples (:func:`poisson_sum`, which also gives
log|h| of an outer function h from its boundary log modulus) and the
Herglotz quadrature :func:`outer_log_at` for log h at one point.
"""

from __future__ import annotations

import math

import numpy as np

from .disk import TAU, _modulus, in_open_disk, require_interior
from .errors import DomainError

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
    2 max|c| r**(J+1) / (1 - r) <= 2**-59 max|c|.  With m = isqrt(J) the
    block evaluates the series by blocked powers (Paterson-Stockmeyer):
    one cumulative product gives the baby powers z, ..., z**m; one complex
    matrix product of c_1..c_J, zero-padded to ceil(J/m) rows of m, with
    them gives each row's polynomial; Horner in z**m combines the rows.
    Every power is then a product of at most m + J/m factors rather than J,
    so rounding does not grow with J, and a block holds O(128 sqrt(J))
    numbers instead of a (J, 128) table of powers.  A block at the origin
    (J = 0) is c_0.  Where J >= n, the shell 1 - |z| below about 45/n, the
    block sums the positive kernel directly instead: there the series would
    need more terms than the grid has samples, and the direct sum keeps its
    relative accuracy next to the circle, away from the data's mass.
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
    for k in range(0, flat.size, _POISSON_BLOCK):
        idx = order[k : k + _POISSON_BLOCK]
        r = radius[idx[-1]]
        terms = 0 if r == 0.0 else math.ceil(math.log(_POISSON_TAIL * (1.0 - r)) / math.log(r))
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
