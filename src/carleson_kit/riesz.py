"""Diagnostics for finite systems of subspaces of a Hilbert space.

A system is stored as a list of frames with orthonormal columns in a common
ambient C^dim.  Two factorizations of the stacked frames V = [F_1 ... F_K]
carry every diagnostic.  :class:`GramFactor` forms the block Gram matrix
G = V^H V once per report, tests it for dependence and takes its spectrum;
the orthogonalizer condition sqrt(lmax/lmin), the embedding constant
lmax(G), the skew projection norms (from one Cholesky factor of G) and the
biorthogonal duals (the blocks of V G^{-1}) are read off it.  Uniform
minimality is read off the triangular factor of V = QR instead, because
forming G squares the condition number that its inverse would pass on.
The condition, skew norms and duals could come from R too, but at
conditions near 9e5 that moves them by up to 5.5e-6 relative, so they stay
on G for as long as reports must reproduce those made on G.

Kernel-based systems (groups of reproducing kernels, optionally tensored
with direction vectors) are embedded isometrically into C^n through the
Cholesky factor of their Gram matrix before the same diagnostics apply.
"""

from __future__ import annotations

import math
from itertools import accumulate

import numpy as np

from .disk import kernel_inner, require_interior
from .errors import DomainError, LinearDependenceError

_DEP_TOL = 1e-12


def _block_slices(ranks) -> list[slice]:
    """Consecutive column blocks of the given widths."""
    return [slice(end - k, end) for k, end in zip(ranks, accumulate(ranks))]


def _embedding(gram: np.ndarray) -> np.ndarray:
    """C^H for G = C C^H: its columns realize the spanning elements in C^n.
    LinearDependenceError when G is not numerically positive definite."""
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise LinearDependenceError("kernel elements are numerically dependent") from exc
    return np.conj(chol).T


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
            if not np.isfinite(f).all():
                raise DomainError("frame entries must be finite")
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
        emb = _embedding(gram)
        return cls([np.linalg.qr(emb[:, sl])[0] for sl in _block_slices(sizes)],
                   labels=labels)


class GramFactor:
    """G = V^H V of a jointly independent system and its ascending spectrum.

    Construction raises LinearDependenceError when lmin <= 1e-12 max(lmax, 1).
    """

    __slots__ = ("system", "gram", "eigenvalues")

    def __init__(self, system: SubspaceSystem):
        self.system = system
        self.gram = system.gram()
        self.eigenvalues = np.linalg.eigvalsh(self.gram)
        if self.eigenvalues[0] <= _DEP_TOL * max(self.eigenvalues[-1], 1.0):
            raise LinearDependenceError("subspaces are not jointly independent")

    def condition(self) -> float:
        """Condition number sqrt(lmax(G)/lmin(G)) of the orthogonalizer."""
        return math.sqrt(self.eigenvalues[-1] / self.eigenvalues[0])

    def embedding_norm(self) -> float:
        """lmax(G); see :func:`embedding_norm`."""
        return float(self.eigenvalues[-1])

    def skew_norms(self, selections) -> list[float]:
        """Norm of the skew projection onto each selection of subspaces along the rest.

        Its square is the largest generalized eigenvalue of (G_sigma, G),
        G_sigma the Gram matrix with every block row and column outside the
        selection sigma zeroed.  With G = L L^H the pencil reduces to
        L^{-1} G_sigma L^{-H}, whose nonzero spectrum is that of
        G_{sigma sigma} (G^{-1})_{sigma sigma}.  For G_{sigma sigma} = C C^H
        and M = L^{-1}[:, sigma], (G^{-1})_{sigma sigma} = M^H M and the norm
        is sigma_max(M C).  One L^{-1} serves every selection; a one-column
        selection j gives ||L^{-1}[:, j]|| sqrt(G_jj).
        """
        gram = self.gram
        linv = np.linalg.inv(np.linalg.cholesky(gram))
        col_norms = np.linalg.norm(linv, axis=0)
        slices = self.system.block_slices()
        out = []
        for sel in selections:
            cols = np.concatenate([np.arange(slices[i].start, slices[i].stop) for i in sel])
            if cols.size == 1:
                j = cols[0]
                out.append(float(col_norms[j]) * math.sqrt(gram[j, j].real))
            else:
                c = np.linalg.cholesky(gram[np.ix_(cols, cols)])
                out.append(float(np.linalg.norm(linv[:, cols] @ c, 2)))
        return out

    def singleton_skew_norms(self) -> list[float]:
        return self.skew_norms([[n] for n in range(len(self.system))])

    def dual_residual(self) -> float:
        """Largest |<d, f>| over dual frames d and original frames f of other index.

        Dual n is block n of V G^{-1}, orthonormalized by QR; it is orthogonal
        to every other original frame, so the residual is rounding (0 for one
        subspace).
        """
        stacked = self.system.stacked()
        slices = self.system.block_slices()
        all_dual = stacked @ np.linalg.inv(self.gram)
        dual = np.concatenate([np.linalg.qr(all_dual[:, sl])[0] for sl in slices], axis=1)
        residual = 0.0
        for sl in slices:
            others = np.ones(stacked.shape[1], dtype=bool)
            others[sl] = False
            residual = max(residual, float(np.max(np.abs(
                np.conj(dual[:, sl]).T @ stacked[:, others]), initial=0.0)))
        return residual


def orthogonalizer_condition(system: SubspaceSystem) -> float:
    """Condition number sqrt(lmax(G)/lmin(G)) of the joint Gram matrix."""
    return GramFactor(system).condition()


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
    rinv = np.linalg.solve(r, np.eye(n))
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
    """Norm of the skew projection onto the subspaces ``onto`` along the rest."""
    onto = sorted(set(onto))
    if not onto or any(i < 0 or i >= len(system) for i in onto):
        raise DomainError("selection must be a nonempty subset of subspace indices")
    return GramFactor(system).skew_norms([onto])[0]


def embedding_norm(system: SubspaceSystem) -> float:
    """Norm of f -> (P_n f)_n, lmax of S = sum F_n F_n^H = V V^H.

    S and G = V^H V share their nonzero spectrum, so this is lmax(G).
    Joint independence is not required.
    """
    return float(np.linalg.eigvalsh(system.gram())[-1])


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
    emb = _embedding(gram)
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
