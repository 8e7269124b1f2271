"""Five-level hierarchy of the exponential system in a weighted L2 space.

A weight is classified by which of five nested conditions hold: not
identically zero, integrable log, integrable reciprocal, finite Muckenhoupt
constant, and two-sided boundedness.  Integrals of singular weights cannot
be certified from samples, so divergence is decided by a documented
refinement-doubling rule, and closed-form tags override the numeric
verdicts where the truth is known exactly.
"""

from __future__ import annotations

import math

import numpy as np

from .disk import TAU
from .errors import DomainError

# closed-form facts per tag: (log w in L1, 1/w in L1, A2 finite, w bounded,
# 1/w bounded)
_TAG_FACTS = {
    "one": (True, True, True, True, True),
    "two_plus_cos": (True, True, True, True, True),
    "abs_one_minus_z": (True, False, False, True, False),
    "sqrt_abs_one_minus_z": (True, True, True, True, False),
}

_TAG_FUNCTIONS = {
    "one": lambda t: np.ones_like(t),
    "two_plus_cos": lambda t: 2.0 + np.cos(t),
    "abs_one_minus_z": lambda t: 2.0 * np.abs(np.sin(t / 2.0)),
    "sqrt_abs_one_minus_z": lambda t: np.sqrt(2.0 * np.abs(np.sin(t / 2.0))),
}

# ratio across two refinements that flags divergence; exact doubling is the
# asymptotic rate for power singularities and is approached from below
_DOUBLING = 1.9


class Weight:
    """Nonnegative boundary weight, sampled or callable in the angle.

    Callable weights can be resampled at any resolution; stored samples can
    only be coarsened.  The optional tag names a closed form whose
    integrability facts are known exactly.
    """

    __slots__ = ("_fn", "_values", "_grids", "_reciprocals", "tag")

    def __init__(self, fn=None, values=None, tag=None):
        if fn is None and values is None:
            raise DomainError("a weight needs samples or a callable")
        if tag is not None and tag not in _TAG_FACTS:
            raise DomainError(f"unknown weight tag {tag!r}")
        self._fn = fn
        if values is not None:
            arr = np.asarray(values, dtype=float)
            if arr.ndim != 1 or arr.shape[0] < 8:
                raise DomainError("weight samples must be a vector of length >= 8")
            if np.any(arr < 0) or not np.all(np.isfinite(arr)):
                raise DomainError("weight samples must be finite and nonnegative")
            self._values = arr
        else:
            self._values = None
        self._grids = {}
        self._reciprocals = {}
        self.tag = tag

    @classmethod
    def from_samples(cls, values, tag=None) -> "Weight":
        return cls(values=values, tag=tag)

    @classmethod
    def from_tag(cls, tag: str) -> "Weight":
        if tag not in _TAG_FUNCTIONS:
            raise DomainError(f"unknown weight tag {tag!r}")
        return cls(fn=_TAG_FUNCTIONS[tag], tag=tag)

    @property
    def max_size(self) -> int | None:
        return None if self._values is None else self._values.shape[0]

    def samples(self, size: int, midpoint: bool = True) -> np.ndarray:
        """Values on a uniform grid of the given size.

        Midpoint angles dodge singularities sitting at grid points; stored
        samples ignore the flag and are coarsened by striding.  Each grid is
        computed once per weight and handed out read-only, because every
        caller shares the one array.
        """
        if size < 8 or size & (size - 1):
            raise DomainError("sample size must be a power of two, at least 8")
        grid = self._grids.get((size, midpoint))
        if grid is None:
            # a read-only view leaves the flags of an array the weight's
            # callable or its caller owns alone
            grid = self._grid(size, midpoint).view()
            grid.flags.writeable = False
            self._grids[size, midpoint] = grid
        return grid

    def reciprocal(self, size: int, midpoint: bool = True) -> np.ndarray:
        """1/w on the grid of ``samples(size, midpoint)``, inf where w = 0.

        Computed once per grid and handed out read-only, like the samples.
        """
        inv = self._reciprocals.get((size, midpoint))
        if inv is None:
            vals = self.samples(size, midpoint)
            with np.errstate(divide="ignore"):
                inv = np.where(vals > 0.0, 1.0 / vals, np.inf)
            inv.flags.writeable = False
            self._reciprocals[size, midpoint] = inv
        return inv

    def _grid(self, size: int, midpoint: bool) -> np.ndarray:
        if self._fn is not None:
            shift = 0.5 if midpoint else 0.0
            t = (np.arange(size) + shift) * (TAU / size)
            vals = np.asarray(self._fn(t), dtype=float)
            if vals.shape != (size,):
                vals = np.broadcast_to(vals, (size,)).astype(float)
            if np.any(vals < 0) or not np.all(np.isfinite(vals)):
                raise DomainError("weight function produced negative or non-finite values")
            return vals
        stored = self._values.shape[0]
        if size > stored:
            raise DomainError("stored samples cannot be refined beyond their resolution")
        stride = stored // size
        return self._values[::stride]


def _refined(values_fn, sizes) -> tuple[float, bool, list[float]]:
    """(last value, divergent?, trace) for a sequence of refinements.

    Divergent when the value grows by the doubling ratio across two
    consecutive refinements.
    """
    trace = [float(values_fn(s)) for s in sizes]
    divergent = False
    for i in range(2, len(trace)):
        a, b = trace[i - 2], trace[i]
        if not math.isfinite(b) or (a > 0 and math.isfinite(a) and b >= _DOUBLING * a):
            divergent = True
    return trace[-1], divergent, trace


def _dyadic_a2(w: np.ndarray, inv: np.ndarray) -> float:
    """sup over dyadic arcs of (avg w)(avg 1/w), arcs of at least 8 samples.

    One pyramid of block sums serves every level: pairwise adds of the
    samples give the sums over blocks of 2, 4, 8, ... samples, and the
    products of the averages are kept from blocks of 8 up to the whole
    circle.  An arc where 1/w is infinite has an inf product, and one
    nan_to_num over all levels reads a 0 * inf (an arc where w vanishes) as
    inf too, so the supremum is finite only when every product is.
    """
    products = np.empty(w.shape[0] // 4 - 1)
    sw, si = w, inv
    block, start = 1, 0
    with np.errstate(invalid="ignore"):
        while sw.shape[0] > 1:
            sw, si = sw[0::2] + sw[1::2], si[0::2] + si[1::2]
            block *= 2
            if block >= 8:
                count = sw.shape[0]
                np.multiply(sw / block, si / block, out=products[start:start + count])
                start += count
        return float(np.max(np.nan_to_num(products, copy=False, nan=np.inf, posinf=np.inf)))


def classify_weight(w: Weight, base_depth: int = 8, max_depth: int = 14) -> dict:
    """Highest satisfied level of the five-step hierarchy, with quantities.

    Levels: 1 not identically zero, 2 integrable log, 3 integrable
    reciprocal, 4 finite dyadic Muckenhoupt constant, 5 both w and 1/w
    essentially bounded.  Numeric verdicts come from refinement doubling;
    a known tag overrides them.
    """
    if base_depth < 3 or max_depth < base_depth + 2:
        raise DomainError("need at least three refinement levels")
    sizes = [1 << d for d in range(base_depth, max_depth + 1)]
    if w.max_size is not None:
        sizes = [s for s in sizes if s <= w.max_size]
        if len(sizes) < 3:
            raise DomainError("stored samples allow fewer than three refinements")

    top = w.samples(sizes[-1])
    mass = float(np.mean(top))
    nonzero = bool(np.max(top) > 0.0 and mass > 0.0)

    # negative part of log w decides the -infinity flag; a zero sample
    # counts as 1e6
    def neg_log(size):
        with np.errstate(divide="ignore"):
            lg = np.log(np.minimum(w.samples(size), 1.0))
        return np.mean(np.where(lg == -np.inf, 1e6, -lg))

    _, log_divergent, _ = _refined(neg_log, sizes)
    if nonzero:
        logs = np.log(np.where(top > 0.0, top, np.nan))
        log_integral = float(np.nanmean(logs)) if not log_divergent else -math.inf
    else:
        log_integral = -math.inf
    log_integrable = nonzero and not log_divergent

    inv_value, inv_divergent, inv_trace = _refined(
        lambda s: np.mean(w.reciprocal(s)), sizes)
    inv_integrable = nonzero and not inv_divergent and math.isfinite(inv_value)

    a2_value, a2_divergent, a2_trace = _refined(
        lambda s: _dyadic_a2(w.samples(s), w.reciprocal(s)), sizes)
    a2_finite = nonzero and not a2_divergent and math.isfinite(a2_value)

    sup_w, w_divergent, _ = _refined(lambda s: float(np.max(w.samples(s))), sizes)
    sup_inv, sup_inv_divergent, _ = _refined(
        lambda s: float(np.max(w.reciprocal(s))), sizes)
    w_bounded = not w_divergent and math.isfinite(sup_w)
    inv_bounded = not sup_inv_divergent and math.isfinite(sup_inv)

    tag_override = False
    if w.tag is not None:
        log_integrable, inv_integrable, a2_finite, w_bounded, inv_bounded = (
            nonzero and fact for fact in _TAG_FACTS[w.tag])
        tag_override = True

    flags = [
        nonzero,
        nonzero and log_integrable,
        nonzero and log_integrable and inv_integrable,
        nonzero and log_integrable and inv_integrable and a2_finite,
        nonzero and log_integrable and inv_integrable and a2_finite
        and w_bounded and inv_bounded,
    ]
    level = 0
    for ok in flags:
        if not ok:
            break
        level += 1
    monotone = all(flags[i] or not flags[i + 1] for i in range(4))
    return {
        "level": level, "tag": w.tag, "tag_override": tag_override,
        "identically_zero": not nonzero, "mass": mass,
        "log_integral": log_integral, "log_integrable": bool(log_integrable),
        "inv_integral": inv_value, "inv_integrable": bool(inv_integrable),
        "inv_trace": inv_trace,
        "a2_constant": a2_value, "a2_finite": bool(a2_finite),
        "a2_trace": a2_trace,
        "sup_w": sup_w, "sup_inv": sup_inv,
        "w_bounded": bool(w_bounded), "inv_bounded": bool(inv_bounded),
        "levels": [bool(f) for f in flags], "monotone_ok": bool(monotone),
    }


def _centre_of_inverse(col: np.ndarray) -> float:
    """(T^-1)_nn of the Hermitian Toeplitz T of first column ``col``, size 2n + 1.

    Levinson-Durbin: the order-m forward predictor a^(m) (a_0 = 1) solves
    T_m a^(m) = err_m e_0 on the leading (m + 1)-square section T_m, and
    a^(m+1) = [a^(m), 0] + k [0, conj(reversed a^(m))] with the reflection
    coefficient k = -(sum_j c_(m+1-j) a_j)/err_m and err_(m+1) =
    err_m (1 - |k|^2).  The backward predictors b_m = conj(reversed a^(m)),
    padded with zeros, are the columns of a unit upper triangular B with
    B^H T B = diag(err_m), so T^-1 = sum_m b_m b_m^H / err_m (the UDL form).
    Its centre entry is sum_(m=n..2n) |a^(m)_(m-n)|^2 / err_m, because
    b_m[n] = conj(a^(m)_(m-n)) and b_m[n] = 0 for m < n: no right-hand side,
    no solution vector.
    """
    size = col.shape[0]
    n = size // 2
    reversed_col = col[:0:-1].copy()
    a = np.zeros(size, dtype=complex)
    a[0] = 1.0
    scratch = np.empty(size, dtype=complex)
    err = float(col[0].real)
    total = 0.0
    for m in range(size):
        if not 0.0 < err < math.inf:
            raise DomainError("the Toeplitz section is singular at working precision")
        if m >= n:
            c = a[m - n]
            total += (c.real * c.real + c.imag * c.imag) / err
        if m == size - 1:
            return total
        head = a[:m + 2]
        k = -complex(np.dot(reversed_col[size - 2 - m:], head[:-1])) / err
        update = scratch[:m + 2]
        np.conjugate(head[::-1], out=update)
        np.multiply(update, k, out=update)
        np.add(head, update, out=head)
        err *= 1.0 - (k.real * k.real + k.imag * k.imag)


def p0_norm_check(w: Weight, section_size: int) -> dict:
    """Squared norm of the zeroth-coefficient projection on a finite section.

    The section spans the exponentials of index -n..n; the squared norm of
    the projection onto the constant along the rest is
    (integral of w) times the central entry of the inverse Gram matrix, a
    (2n + 1)-square Hermitian Toeplitz matrix of Fourier coefficients taken
    from 2**max(13, bit length of 4n + 2) samples.  The entry comes from the
    Levinson-Durbin recursion through the UDL form
    (T^-1)_nn = sum_(m=n..2n) |a^(m)_(m-n)|^2 / err_m (see
    ``_centre_of_inverse``), in O(n^2).  On an ill-conditioned section it is
    accurate only to about cond(T) times machine epsilon, as is the entry
    from any other route (a general Toeplitz solve, a dense inverse).  A
    prediction error that is not finite and positive means the section is
    singular at working precision and raises DomainError.  The norm
    increases with the section and never exceeds
    (integral of w)(integral of 1/w).
    """
    n = int(section_size)
    if n < 1:
        raise DomainError("section size must be at least 1")
    sample_size = 1 << max(13, (4 * n + 2).bit_length())
    vals = w.samples(sample_size, midpoint=False)
    if np.max(vals) <= 0.0:
        raise DomainError("the weight is identically zero at this resolution")

    sizes = [sample_size >> 2, sample_size >> 1, sample_size]
    _, inv_divergent, _ = _refined(lambda s: np.mean(w.reciprocal(s)), sizes)
    mass = float(np.mean(vals))
    inv_mass = float(np.mean(w.reciprocal(sample_size, midpoint=False)))
    rhs = mass * inv_mass if not inv_divergent and math.isfinite(inv_mass) else math.inf

    coeffs = np.fft.fft(vals) / sample_size
    if 2 * n >= sample_size // 2:
        raise DomainError("section too large for the sample resolution")
    lhs = mass * _centre_of_inverse(coeffs[: 2 * n + 1])
    report = {
        "section_size": n, "sample_size": sample_size,
        "mass": mass, "inv_mass": inv_mass if math.isfinite(inv_mass) else None,
        "inv_divergent": bool(inv_divergent),
        "lhs": lhs, "rhs": rhs if math.isfinite(rhs) else None,
        "ok": bool(inv_divergent or lhs <= rhs + 1e-8),
    }
    return report
