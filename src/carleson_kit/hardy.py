"""Discrete Hardy-space numerics on a uniform boundary grid.

A circle function is held by its samples at the 2**m roots of unity.  The
FFT gives the Fourier-coefficient view; analytic means no negative
coefficients.  On top of that sit the Riesz projection onto the analytic
part and the one Poisson quadrature of uniform-grid samples
(:func:`poisson_sum`, which also gives log|h| of an outer function h from
its boundary log modulus).

The quadrature sums only the Fourier coefficients above the FFT's own
error.  For a power-of-two n, Higham's Thm 24.2 (*Accuracy and Stability
of Numerical Algorithms*, 2nd ed., Ch. 24) bounds every computed
coefficient's error by tau = beta ||c||_2 / (1 - beta),
beta = L eta / (1 - L eta), L = log2 n, eta = mu + gamma_4 (sqrt(2) + mu),
mu the error of the FFT's twiddle factors (:func:`_fft_error`); for any
other n, tau = 0.  A coefficient with |c_hat_j| <= tau becomes 0, which
costs at most 2 tau, twice its own error bound.  With K the largest kept
index below n/2 and K' the smallest at or above it, the series stops at K
wherever its 2**-60 tail rule allows the first kept term past K to be K',
and the folded shell sums two short polynomials, one of them times
z**(K'-1).  The full error budget, FFT error included, is in
:func:`poisson_sum`.
"""

from __future__ import annotations

import math

import numpy as np

from .disk import _BLAS_SERIAL, TAU, _kernel_sums, _modulus, one_minus_sq
from .errors import DomainError

#: points per block of poisson_sum, and the relative Fourier tail it drops
_POISSON_BLOCK = 128
_POISSON_TAIL = 2.0 ** -60
#: poisson_sum sums the kernel directly where n (1 - |z|) < _POISSON_BAND
_POISSON_BAND = 8.0
#: most complex entries in one table of baby powers of poisson_sum
_POISSON_ENTRIES = 2 ** 15
#: the unit roundoff u, and a bound on the error of each twiddle factor of
#: numpy's pocketfft (see _fft_error)
_U = 2.0 ** -53
_TWIDDLE_ERROR = 10.0 * _U


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
    def points(self) -> np.ndarray:
        return np.exp(1j * (TAU * np.arange(self.size) / self.size))

    def coefficients(self) -> np.ndarray:
        """Fourier coefficients in FFT order along the sample axis."""
        return np.fft.fft(self.values, axis=0) / self.size

    @classmethod
    def from_coefficients(cls, coeffs) -> "BoundaryGrid":
        coeffs = np.asarray(coeffs, dtype=complex)
        _check_power_of_two(coeffs.shape[0])
        return cls(np.fft.ifft(coeffs * coeffs.shape[0], axis=0))

    def is_analytic(self, tol: float = 1e-10) -> bool:
        """No coefficient at a negative frequency above ``tol`` times max(1, max|f|)."""
        scale = max(1.0, float(np.max(np.abs(self.values))))
        negative = np.abs(self.coefficients()[self.size // 2:])
        return float(np.max(negative)) <= tol * scale

    def norm(self) -> float:
        """L2 norm with normalized arc-length measure."""
        v = self.values.reshape(self.size, -1)
        return float(np.sqrt(np.mean(np.sum(np.abs(v) ** 2, axis=1))))


def riesz_project(grid: BoundaryGrid) -> BoundaryGrid:
    """Riesz projection onto the analytic part: keeps frequencies 0..N/2-1."""
    c = grid.coefficients()
    out = np.zeros_like(c)
    out[: grid.size // 2] = c[: grid.size // 2]
    return BoundaryGrid.from_coefficients(out)


def _batches(size: int, most: int) -> list[tuple[int, int]]:
    """Bounds of ceil(size / most) consecutive batches of range(size), their
    sizes within one of each other.

    Even batches leave no one-column remainder: OpenBLAS runs that product as
    a matrix-vector one, which it threads from a smaller size on.
    """
    count = -(-size // most)
    return [(k * size // count, (k + 1) * size // count) for k in range(count)]


def _power_series(coef: np.ndarray, z: np.ndarray) -> np.ndarray:
    """sum_{k=1..J} coef[k-1] z**k at every point of z, J = coef.size >= 1.

    Blocked powers (Paterson-Stockmeyer) with m = isqrt(J): running
    products give the baby powers z, ..., z**m; one complex matrix product
    of the coefficients, zero-padded to ceil(J/m) rows of m, with them gives
    each row's polynomial; Horner in z**m combines the rows.  The table
    holds m * z.size numbers, not J * z.size.  The product runs over batches
    of points small enough for ``_BLAS_SERIAL``.

    Rounding: the computed z**m carries a relative error of up to
    sqrt(5) (m - 1) u (u = 2**-53, sqrt(5) u per complex product), and
    Horner applies it once per row, so term k is effectively multiplied by
    z**k (1 + e_k) with |e_k| <= sqrt(5) (k - 1) u to first order: the
    error grows linearly with k, as it does for a cumulative product.  It is
    the coherent reuse of z**m that makes the typical e_k about (k / sqrt(m)) u
    rather than the sqrt(k) u of a random walk.  The matrix product and the
    Horner additions add at most (m + J/m + 2) u of sum_k |coef_k| |z|**k.
    """
    terms = coef.size
    step = math.isqrt(terms)
    rows = -(-terms // step)
    baby = np.empty((step, z.size), dtype=complex)
    baby[0] = z
    for j in range(1, step):
        # row by row: cumprod along axis 0 runs one short inner loop per point
        np.multiply(baby[j - 1], z, out=baby[j])
    padded = np.zeros(rows * step, dtype=complex)
    padded[:terms] = coef
    padded = padded.reshape(rows, step)
    part = np.empty((rows, z.size), dtype=complex)
    for lo, hi in _batches(z.size, max(1, (_BLAS_SERIAL // 4 - 1) // (rows * step))):
        np.matmul(padded, baby[:, lo:hi], out=part[:, lo:hi])
    acc = part[-1]
    for row in part[-2::-1]:
        acc *= baby[-1]
        acc += row
    return acc


def _int_power(z: np.ndarray, n: int) -> np.ndarray:
    """z**n for an integer n >= 1 by repeated squaring.

    numpy's complex ``**`` goes through exp and log: up to 9e-13 relative
    off at n = 4096 next to the band, against 2.7e-13 by squaring, whose
    error stays within sqrt(5) (n - 1) u to first order.
    """
    out = None
    while True:
        if n & 1:
            out = z if out is None else out * z
        n >>= 1
        if n == 0:
            return out
        z = z * z


def _fft_error(c: np.ndarray) -> float:
    """tau: a bound on every |c_hat_j - c_j| of c_hat = fft(v) / n.

    Higham, *Accuracy and Stability of Numerical Algorithms* (2nd ed.),
    Thm 24.2: a radix-2 FFT of size n = 2**L whose twiddle factors are each
    within mu of the exact roots of unity returns y_hat with
    ||y_hat - y||_2 <= beta ||y||_2,  beta = L eta / (1 - L eta),
    eta = mu + gamma_4 (sqrt(2) + mu),  gamma_4 = 4u / (1 - 4u).
    pocketfft's power-of-two transform is a product of radix-8, 4 and 2
    passes.  A radix-4 or radix-8 butterfly is two or three radix-2 stages
    whose inner twiddles are +-1, +-i (exact) and (+-1 +- i)/sqrt(2), and it
    rounds no more often than they would.  pocketfft forms each twiddle as
    one complex product of two table entries, each the cosine and sine of a
    rounded angle of at most pi/4 (about 3 u off), so a twiddle is about
    9 u off at most: mu = ``_TWIDDLE_ERROR`` = 10 u.  Dividing by n is
    exact, and one coefficient's error is at most the vector's 2-norm,
    beta ||c||_2 <= beta ||c_hat||_2 / (1 - beta).  The factor 1.001 covers
    the rounding of ||c_hat||_2 and of tau itself.  The tests measure the
    error of every coefficient below tau / 8.  No such bound is proved here
    for pocketfft's other radices or its Bluestein path, so tau = 0 for any
    other n, and only exact zeros are dropped.
    """
    n = c.size
    if n & (n - 1):
        return 0.0
    g4 = 4.0 * _U / (1.0 - 4.0 * _U)
    eta = _TWIDDLE_ERROR + g4 * (math.sqrt(2.0) + _TWIDDLE_ERROR)
    steps = (n.bit_length() - 1) * eta
    beta = steps / (1.0 - steps)
    return 1.001 * beta / (1.0 - beta) * float(np.linalg.norm(c))


def _kept_spectrum(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """c = fft(v) / n with every coefficient |c_j| <= tau = _fft_error(c)
    replaced by 0, and the mask of the kept ones."""
    c = np.fft.fft(v) / v.size
    kept = np.abs(c) > _fft_error(c)
    c[~kept] = 0.0
    return c, kept


def poisson_sum(samples, z, defects=None) -> np.ndarray:
    """Poisson integral of uniform-grid samples, vectorized over ``z``.

    Returns  mean_j v_j (1 - |z|^2) / |xi_j - z|^2  with xi_j = exp(2 pi i j/n),
    for real samples v of any length n >= 1 and points z of any shape with
    |z| < 1 (the result has z's shape); |z| >= 1 or nan raises DomainError.
    A caller that holds ``defects`` = one_minus_sq(z) passes it on, so that
    the band need not compute it again.

    The quadrature equals its Fourier series exactly,

        S(z) = Re(c_0 + 2 sum_{j >= 1} c_{j mod n} z^j),   c = fft(v) / n,

    because summing the kernel's series over the grid folds frequency j onto
    j mod n.  Only the spectrum above the FFT's own error is summed: every
    computed coefficient with |c_hat_j| <= tau is replaced by 0, where tau
    (:func:`_fft_error`, Higham's Thm 24.2; 0 unless n is a power of two)
    bounds each |c_hat_j - c_j|.  A dropped coefficient is then off by
    |0 - c_j| <= |c_hat_j| + |c_hat_j - c_j| <= 2 tau, at most twice what
    keeping it would cost.  Let K be the largest kept index below n/2 (0 if
    none) and K' the smallest kept index from n/2 to n, index n standing for
    c_0 (K' = n + 1 if none): the terms K < j < K' are all 0.  Smooth
    data, such as an outer function's log modulus, keep a few coefficients
    (the contour corpus keeps {0, +-k}); data whose coefficients all exceed
    tau have K' = K + 1 and take the arithmetic of the full spectrum, bit for
    bit.

    The points are sorted by radius and cut into blocks of
    ``_POISSON_BLOCK``.  A block whose outermost radius is r needs the terms
    j <= J = ceil(log(2**-60 (1 - r)) / log r), which leave a tail of at most
    2 max|c| r**(J+1) / (1 - r) <= 2**-59 max|c|.  Where J < K' the first
    term past J that is not 0 is K', whose tail is smaller still, so the
    block keeps min(J, K) terms; otherwise it keeps J.  Three regimes, from
    the centre out:

    * Series, the blocks with J < n.  Consecutive blocks whose kept terms
      stay within twice the first block's form a group, cut where its table
      of baby powers would pass ``_POISSON_ENTRIES`` numbers.  The group
      keeps the terms up to its largest count, a smaller tail for its inner
      blocks, and :func:`_power_series` sums them.  A group whose count is 0
      (the origin, or K = 0) is c_0.
    * Folded shell, the other points with n (1 - |z|) >= ``_POISSON_BAND``.
      Summing the series over periods of n gives exactly

          S(z) = c_0 + 2 Re(Q(z) / (1 - z**n)),  Q(z) = sum_{k=1..n} c_{k mod n} z**k,

      and with the gap K < k < K' left out,

          Q(z) = sum_{k=1..K} c_k z**k + z**(K'-1) sum_{k=K'..n} c_{k mod n} z**(k-K'+1):

      two polynomials of degrees K and n + 1 - K' by :func:`_power_series`
      (one of degree n when K' = K + 1), z**(K'-1) and z**n by squaring, in
      chunks under the same table cap for the longer polynomial.
    * Direct band, n (1 - |z|) < ``_POISSON_BAND``: the positive kernel
      (1 - |z|^2) / |xi - z|^2 summed over the grid (``disk._kernel_sums``,
      the nodes taken on the circle, every sample kept).  It keeps its
      relative accuracy next to the circle, away from the data's mass.

    Error, to first order in u = 2**-53, with r = |z| and M = max|c|.
    Coefficients: each summed coefficient is within 2 tau of the exact c_j,
    so the sum of the series over them is within
    2 tau + 4 tau sum_{j>=1} r**j = 2 tau (1 + r) / (1 - r) of S, in the
    series and the fold alike (the fold is an identity), which is at most
    tau n / 2 at the band's edge.  This is the worst case of Higham's bound;
    the FFT's measured error stays below tau / 8 on the tests' data.
    Series: J terms are off by at most
    u sum_{k<=J} |c_k| r**k (sqrt(5) k + m + J/m + 2), m = isqrt(J), since
    blocked powers give term k a relative error up to sqrt(5) (k - 1) u
    (see :func:`_power_series`): the error grows linearly with J.  In the
    folded form Q is such a series with J = n, so it carries no more error
    than the J >= n terms the series would need there.  Split at K', the
    factor z**(K'-1) is off by at most sqrt(5) (K' - 2) u relative and the
    second polynomial gives term k at most sqrt(5) (k - K') u, so term k
    again carries at most sqrt(5) (k - 1) u.  The rest comes from z**n, off
    by at most sqrt(5) n u r**n <= sqrt(5) n u e**-x with x = n (1 - r) >= 8,
    so |1 - z**n| >= 1 - e**-8.  Dividing Q by 1 - z**n then adds at most
    |Q| sqrt(5) n u e**-x / (1 - e**-8)**2 plus a few u |Q|, and
    |Q| <= M r / (1 - r) <= M n / x.  So the fold adds at most
    1.001 sqrt(5) M u n**2 e**-x / x, about 1.7e-13 M at n = 4096 on the
    band's edge x = 8, and e**-x shrinks it further in.  Closer to the
    circle that factor fades, which is why the band sums the kernel.
    """
    v = np.asarray(samples, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise DomainError("poisson_sum expects a nonempty 1-d sample array")
    zs = np.asarray(z, dtype=complex)
    flat = zs.reshape(-1)
    radius = _modulus(flat)
    if not np.all(radius < 1.0):
        raise DomainError("the Poisson integral is defined at interior points only")
    n = v.size
    c, kept = _kept_spectrum(v)
    # K, the largest kept index below n/2 (0: none), and K', the smallest
    # kept index from n/2 to n, index n standing for c_0 (n + 1: none)
    half = (n + 1) // 2
    low = np.flatnonzero(kept[1:half])
    high = np.flatnonzero(kept[half:])
    last_low = int(low[-1]) + 1 if low.size else 0
    first_high = half + int(high[0]) if high.size else n + 1 - int(kept[0])
    order = np.argsort(radius)
    rs = radius[order]
    pts = flat[order]
    out = np.empty(flat.shape)
    size = flat.size
    # series terms of each block of _POISSON_BLOCK points: J from its
    # outermost radius, or K where the terms K + 1..J are all dropped
    block_terms = []
    for hi in range(_POISSON_BLOCK, size + _POISSON_BLOCK, _POISSON_BLOCK):
        r = rs[min(hi, size) - 1]
        j = 0 if r == 0.0 else math.ceil(math.log(_POISSON_TAIL * (1.0 - r)) / math.log(r))
        if j >= n:
            break
        block_terms.append(min(j, last_low) if j < first_high else j)
    # series: consecutive blocks whose terms stay within twice the first
    # block's form one group, evaluated with its last (largest) count
    b = 0
    while b < len(block_terms):
        first = block_terms[b]
        end = b + 1
        while end < len(block_terms) and block_terms[end] <= 2 * first:
            points = min((end + 1) * _POISSON_BLOCK, size) - b * _POISSON_BLOCK
            if math.isqrt(block_terms[end]) * points > _POISSON_ENTRIES:
                break
            end += 1
        lo, hi = b * _POISSON_BLOCK, min(end * _POISSON_BLOCK, size)
        top = block_terms[end - 1]
        out[lo:hi] = c[0].real
        if top:
            out[lo:hi] += 2.0 * _power_series(c[1:top + 1], pts[lo:hi]).real
        b = end
    # folded shell: c_0 + 2 Re(Q(z) / (1 - z**n)), Q(z) = sum_{k=1..n} c_{k mod n} z**k
    # = sum_{k<=K} c_k z**k + z**(K'-1) sum_{k=K'..n} c_{k mod n} z**(k-K'+1)
    fold = np.roll(c, -1)
    if first_high == last_low + 1:
        parts = [(0, fold)]
    else:
        parts = [(0, fold[:last_low]), (first_high - 1, fold[first_high - 1:])]
        parts = [(shift, coef) for shift, coef in parts if coef.size]
    start = min(len(block_terms) * _POISSON_BLOCK, size)
    band = start + int(np.count_nonzero(n * (1.0 - rs[start:]) >= _POISSON_BAND))
    widest = max((coef.size for _, coef in parts), default=1)
    for lo, hi in _batches(band - start, _POISSON_ENTRIES // math.isqrt(widest)):
        zc = pts[start + lo:start + hi]
        q = 0.0
        for shift, coef in parts:
            term = _power_series(coef, zc)
            q = q + (term if shift == 0 else _int_power(zc, shift) * term)
        q = q / (1.0 - _int_power(zc, n))
        out[start + lo:start + hi] = c[0].real + 2.0 * q.real
    # direct band next to the circle: the positive kernel
    if band < size:
        xi = np.exp(1j * TAU * np.arange(n) / n)
        near = order[band:]
        d = one_minus_sq(flat[near]) if defects is None else defects.reshape(-1)[near]
        out[band:] = _kernel_sums(flat[near], d, xi, 0.0, v) / n
    result = np.empty(flat.shape)
    result[order] = out
    return result.reshape(zs.shape)
