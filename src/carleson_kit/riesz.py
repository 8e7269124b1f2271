"""Diagnostics for finite systems of subspaces of a Hilbert space.

A system is stored as a list of frames with orthonormal columns in a common
ambient C^dim.  Two factorizations of the stacked frames V = [F_1 ... F_K]
carry every diagnostic.  The block Gram matrix G = V^H V gives the
condition number of the orthogonalizer, norms of skew projections onto
sub-families, biorthogonal dual frames and the constant of the embedding
f -> (P_n f)_n.  Uniform minimality is read off the triangular factor of
V = QR instead, because forming G squares the condition number that its
inverse would pass on.

Kernel-based systems (groups of reproducing kernels, optionally tensored
with direction vectors) are embedded isometrically into C^n through the
Cholesky factor of their Gram matrix before the same diagnostics apply.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

from .disk import kernel_inner, require_interior
from .errors import DomainError, LinearDependenceError

_DEP_TOL = 1e-12


def _block_slices(ranks) -> list[slice]:
    """Consecutive column blocks of the given widths."""
    out, start = [], 0
    for k in ranks:
        out.append(slice(start, start + k))
        start += k
    return out


class SubspaceSystem:
    """Finite family of subspaces given by orthonormal frames.

    Orthonormality of each frame is validated on construction.  Joint
    linear independence across subspaces is *not* required here; the
    operations that need an invertible block Gram check it themselves.
    """

    __slots__ = ("frames", "dim", "labels")

    def __init__(self, frames, labels=None):
        frames = [np.asarray(f, dtype=complex) for f in frames]
        if not frames:
            raise DomainError("system needs at least one subspace")
        dims = {f.shape[0] for f in frames}
        if len(dims) != 1:
            raise DomainError("frames must share the ambient dimension")
        self.dim = dims.pop()
        for f in frames:
            if f.ndim != 2 or f.shape[1] == 0 or f.shape[1] > self.dim:
                raise DomainError("each frame needs shape (dim, rank)")
            err = np.max(np.abs(np.conj(f).T @ f - np.eye(f.shape[1])))
            if err > 1e-10:
                raise DomainError("frame columns must be orthonormal")
        self.frames = frames
        if labels is None:
            labels = list(range(len(frames)))
        if len(labels) != len(frames):
            raise DomainError("one label per subspace")
        self.labels = list(labels)

    def __len__(self) -> int:
        return len(self.frames)

    @property
    def ranks(self) -> list[int]:
        return [f.shape[1] for f in self.frames]

    def stacked(self) -> np.ndarray:
        return np.concatenate(self.frames, axis=1)

    def block_slices(self) -> list[slice]:
        return _block_slices(self.ranks)

    def gram(self) -> np.ndarray:
        v = self.stacked()
        return np.conj(v).T @ v

    def subsystem(self, indices) -> "SubspaceSystem":
        indices = list(indices)
        if not indices:
            raise DomainError("subsystem needs at least one index")
        return SubspaceSystem(
            [self.frames[i] for i in indices], labels=[self.labels[i] for i in indices]
        )

    @classmethod
    def from_vectors(cls, vectors, labels=None) -> "SubspaceSystem":
        """One-dimensional subspaces spanned by the given nonzero vectors."""
        frames = []
        for v in vectors:
            v = np.asarray(v, dtype=complex).reshape(-1)
            nv = np.linalg.norm(v)
            if nv == 0:
                raise DomainError("zero vector spans no subspace")
            frames.append((v / nv)[:, None])
        return cls(frames, labels=labels)

    @classmethod
    def from_kernel_groups(cls, groups, vectors=None, labels=None) -> "SubspaceSystem":
        """Subspaces spanned by reproducing kernels at groups of disk points.

        ``groups`` is a list of point lists.  With ``vectors`` (matching
        nested lists of direction vectors e) the spanning elements are the
        tensors k_lambda (x) e.  The joint Gram matrix is factored as
        G = C C^H and the columns of C^H realize the elements in C^n.
        """
        pts, dirs, sizes = [], [], []
        for gi, grp in enumerate(groups):
            grp = list(grp)
            if not grp:
                raise DomainError("empty kernel group")
            sizes.append(len(grp))
            for pi, p in enumerate(grp):
                pts.append(require_interior(p))
                if vectors is not None:
                    e = np.asarray(vectors[gi][pi], dtype=complex).reshape(-1)
                    if np.linalg.norm(e) == 0:
                        raise DomainError("zero direction vector")
                    dirs.append(e)
        p = np.array(pts)
        # kernel_inner rounds each entry exactly as a scalar call does; the
        # condition numbers of near-dependent systems amplify a last-bit
        # change of G to ~1e-8 relative
        gram = kernel_inner(p[:, None], p[None, :])
        if vectors is not None:
            d = np.array(dirs)
            gram *= d @ np.conj(d).T  # np.vdot(e_j, e_i) at (i, j)
        try:
            chol = np.linalg.cholesky(gram)
        except np.linalg.LinAlgError as exc:
            raise LinearDependenceError("kernel elements are numerically dependent") from exc
        emb = np.conj(chol).T
        frames, start = [], 0
        for s in sizes:
            block = emb[:, start : start + s]
            q, _ = np.linalg.qr(block)
            frames.append(q)
            start += s
        return cls(frames, labels=labels)


def _checked_gram(system: SubspaceSystem):
    """The Gram matrix and its ascending eigenvalues, refused when singular."""
    gram = system.gram()
    w = np.linalg.eigvalsh(gram)
    if w[0] <= _DEP_TOL * max(w[-1], 1.0):
        raise LinearDependenceError("subspaces are not jointly independent")
    return gram, w


def orthogonalizer_condition(system: SubspaceSystem) -> float:
    """Condition number sqrt(lmax(G)/lmin(G)) of the joint Gram matrix."""
    _, w = _checked_gram(system)
    return math.sqrt(w[-1] / w[0])


def _minimality_from_r(r: np.ndarray, slices: list[slice]) -> float:
    """Uniform minimality of the frames whose stack V has QR factor ``r``.

    ``slices`` are the column blocks of the frames.  A zero diagonal entry
    (or fewer rows than columns) means V is rank deficient: minimality 0.
    """
    if len(slices) == 1:
        return 1.0
    n = r.shape[1]
    if r.shape[0] < n or not np.all(np.diagonal(r)):
        return 0.0
    rinv = scipy.linalg.solve_triangular(r, np.eye(n), check_finite=False)
    rows = np.linalg.norm(rinv, axis=1)
    # sigma_max of a one-row block is its row norm; wider blocks need the
    # matrix 2-norm
    largest = max(float(rows[sl.start]) if sl.stop - sl.start == 1
                  else float(np.linalg.norm(rinv[sl], 2)) for sl in slices)
    return min(1.0, 1.0 / largest)


def uniform_minimality(system: SubspaceSystem) -> float:
    """min over n of delta_n = sigma_min((I - Q_n Q_n^H) F_n).

    Q_n is an orthonormal basis of the other subspaces.  Every delta_n is
    read off one QR factor V = QR of the stacked frames; G is never formed.
    - 1/delta_n is the norm of the skew projection P_n onto subspace n along
      the others: for x = F_n a + y, y in the others, ||x|| >= delta_n ||a||,
      with equality at y = -Q_n Q_n^H F_n a.
    - On the span of V, V^+ = R^{-1} Q^H, so P_n = F_n (V^+)_n, the block-n
      rows of V^+.  F_n and Q are isometries, hence
      ||P_n|| = sigma_max(R^{-1}[block n, :]).
    A system with a single subspace scores 1; one whose R has a zero pivot
    (exactly dependent frames) scores 0.
    """
    r = np.linalg.qr(system.stacked(), mode="r")
    return _minimality_from_r(r, system.block_slices())


def skew_projection_norm(system: SubspaceSystem, onto) -> float:
    """Norm of the skew projection onto the subspaces ``onto`` along the rest.

    On the span of the whole system, the projection keeps the components
    in the selected subspaces and kills the others.  The squared norm is
    the largest generalized eigenvalue of (G_sigma, G) where G_sigma zeroes
    every block row/column outside the selection.
    """
    onto = sorted(set(onto))
    if not onto or any(i < 0 or i >= len(system) for i in onto):
        raise DomainError("selection must be a nonempty subset of subspace indices")
    gram, _ = _checked_gram(system)
    slices = system.block_slices()
    keep = np.zeros(gram.shape[0], dtype=bool)
    for i in onto:
        keep[slices[i]] = True
    g_sigma = gram.copy()
    g_sigma[~keep, :] = 0.0
    g_sigma[:, ~keep] = 0.0
    vals = scipy.linalg.eigh(g_sigma, gram, eigvals_only=True)
    return math.sqrt(max(float(vals[-1]), 0.0))


def dual_system(system: SubspaceSystem) -> SubspaceSystem:
    """Biorthogonal dual system inside the span of the original.

    The dual of subspace n is spanned by the columns of F G^{-1} in block n;
    every dual frame is orthogonal to all original frames with other indices.
    """
    gram, _ = _checked_gram(system)
    stacked = system.stacked()
    all_dual = stacked @ np.linalg.inv(gram)
    frames = []
    for sl in system.block_slices():
        q, _ = np.linalg.qr(all_dual[:, sl])
        frames.append(q)
    return SubspaceSystem(frames, labels=list(system.labels))


def embedding_norm(system: SubspaceSystem) -> float:
    """Norm of f -> (P_n f)_n, i.e. lmax of the frame sum S = sum F_n F_n^H.

    Defined for any system; joint independence is not required.
    """
    s = np.zeros((system.dim, system.dim), dtype=complex)
    for f in system.frames:
        s += f @ np.conj(f).T
    w = np.linalg.eigvalsh(s)
    return float(w[-1])


def extract_critical_subset(system: SubspaceSystem, delta: float):
    """Minimal sub-family witnessing uniform minimality below ``delta``.

    Returns None when the whole system already has minimality >= delta.
    Otherwise indices (labels) of a subsystem S with minimality < delta such
    that dropping any single member of S pushes minimality to >= delta.
    Removal can only increase minimality, so the greedy descent terminates.
    """
    if delta <= 0:
        raise DomainError("delta must be positive")
    r = np.linalg.qr(system.stacked(), mode="r")
    slices = system.block_slices()
    if _minimality_from_r(r, slices) >= delta:
        return None
    # V[:, S] = Q R[:, S], so a sub-family's factor is the QR factor of its
    # columns of R: an N x |S| problem on the one factor of the whole system
    cols = [np.arange(sl.start, sl.stop) for sl in slices]
    ranks = system.ranks
    current = list(range(len(system)))
    while len(current) > 1:
        for k in range(len(current)):
            trial = current[:k] + current[k + 1 :]
            sub_r = np.linalg.qr(r[:, np.concatenate([cols[i] for i in trial])], mode="r")
            if _minimality_from_r(sub_r, _block_slices([ranks[i] for i in trial])) < delta:
                current = trial
                break
        else:
            break
    return [system.labels[i] for i in current]


def tensor_bound_check(points, e_dim: int, trials: int, rng) -> dict:
    """Frame bounds for sums of kernel tensors sum k_lambda (x) f_lambda.

    For random coefficient vectors f_lambda in C^e_dim the squared norm of
    the sum must lie between lmin(G) and lmax(G) times sum ||f_lambda||^2,
    G the kernel Gram matrix.  Returns the worst margins over the draws.
    """
    p = np.array([require_interior(z) for z in points], dtype=complex)
    n = len(p)
    if n == 0 or e_dim <= 0 or trials <= 0:
        raise DomainError("need points, a positive dimension and trials")
    gram = kernel_inner(p[:, None], p[None, :])
    w = np.linalg.eigvalsh(gram)
    lo, hi = float(w[0]), float(w[-1])
    chol = np.linalg.cholesky(gram)
    emb = np.conj(chol).T  # columns realize the kernels in C^n
    worst_lo = math.inf
    worst_hi = math.inf
    for _ in range(trials):
        coeff = rng.standard_normal((n, e_dim)) + 1j * rng.standard_normal((n, e_dim))
        total = emb @ coeff  # (n, e_dim), rows of C^n tensored against C^e
        norm_sq = float(np.sum(np.abs(total) ** 2))
        coeff_sq = float(np.sum(np.abs(coeff) ** 2))
        worst_lo = min(worst_lo, norm_sq - lo * coeff_sq)
        worst_hi = min(worst_hi, hi * coeff_sq - norm_sq)
    return {
        "lower_eigenvalue": lo,
        "upper_eigenvalue": hi,
        "worst_lower_margin": worst_lo,
        "worst_upper_margin": worst_hi,
        "passed": worst_lo >= -1e-10 and worst_hi >= -1e-10,
    }
