import math

import numpy as np
import pytest

from carleson_kit.blaschke import interpolation_constants
from carleson_kit.errors import DomainError, LinearDependenceError
from carleson_kit.riesz import (
    GramFactor,
    SubspaceSystem,
    embedding_norm,
    extract_critical_subset,
    uniform_minimality,
)
from oracles import (dual_residual, dual_system, extraction_oracle, member_minimality,
                     minimality_oracle, skew_norm_oracle)

TAU = 2 * math.pi


def separated_points(rng, n, min_rho=0.3, rmax=0.85):
    pts = []
    while len(pts) < n:
        z = complex(*rng.uniform(-rmax, rmax, 2))
        if abs(z) >= rmax:
            continue
        if all(abs(z - p) / abs(1 - np.conj(p) * z) >= min_rho for p in pts):
            pts.append(z)
    return pts


def lines(vectors):
    """The system of the one-dimensional subspaces spanned by the vectors."""
    frames = []
    for v in vectors:
        v = np.asarray(v, dtype=complex)
        frames.append((v / np.linalg.norm(v))[:, None])
    return SubspaceSystem(frames)


def random_frames(rng, dim, ranks):
    frames = []
    for k in ranks:
        m = rng.standard_normal((dim, k)) + 1j * rng.standard_normal((dim, k))
        q, _ = np.linalg.qr(m)
        frames.append(q)
    return frames


def test_system_construction_and_validation():
    sys2 = lines([[1, 0, 0], [0, 1, 0]])
    assert len(sys2) == 2
    assert sys2.ranks == [1, 1]
    assert sys2.gram().shape == (2, 2)
    with pytest.raises(DomainError):
        SubspaceSystem([])
    # non-orthonormal frame rejected
    with pytest.raises(DomainError):
        SubspaceSystem([np.array([[1.0, 1.0], [0.0, 1.0]])])
    # non-finite entries rejected: NaN passes the orthonormality test
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError, match="must be finite"):
            SubspaceSystem([np.array([[bad], [0.0]])])


def test_frame_entries_past_two_are_refused_before_the_gram():
    # no orthonormal column has an entry above 1 in modulus; an entry of
    # 1e200 overflowed f^H f, with a RuntimeWarning, before it was refused
    for big in (2.5, 1e200, 1e200j):
        with pytest.raises(DomainError, match="frame columns must be orthonormal"):
            SubspaceSystem([np.array([[big], [0.0]])])
    assert SubspaceSystem([np.array([[1.0], [0.0]]), np.array([[0.0], [-1j]])]).ranks == [1, 1]


def test_orthonormal_system_is_perfectly_conditioned():
    sys3 = lines(np.eye(4)[:, :3].T)
    assert GramFactor(sys3).condition() == pytest.approx(1.0)
    assert uniform_minimality(sys3) == pytest.approx(1.0)
    assert embedding_norm(sys3) == pytest.approx(1.0)


def test_two_vector_condition_closed_form():
    # vectors with overlap c: Gram eigenvalues 1 +- c,
    # condition sqrt((1 + c)/(1 - c))
    c = 0.6
    v1 = np.array([1.0, 0.0])
    v2 = np.array([c, math.sqrt(1 - c * c)])
    sys2 = lines([v1, v2])
    assert GramFactor(sys2).condition() == pytest.approx(math.sqrt((1 + c) / (1 - c)))
    # minimality for two unit vectors is their sine distance
    assert uniform_minimality(sys2) == pytest.approx(math.sqrt(1 - c * c))


def test_dependent_systems_are_rejected_where_it_matters():
    v = np.array([1.0, 0.0])
    sys_dep = lines([v, v])
    with pytest.raises(LinearDependenceError):
        GramFactor(sys_dep)
    # the embedding constant is defined regardless of independence
    assert embedding_norm(sys_dep) == pytest.approx(2.0)
    # R has a zero pivot
    assert uniform_minimality(sys_dep) == 0.0
    # three lines in C^2: R has fewer rows than columns
    crowd = lines([[1, 0], [0, 1], [1, 1]])
    assert uniform_minimality(crowd) == 0.0
    assert extract_critical_subset(crowd, 0.1) is not None


def test_kernel_groups_match_vector_route():
    rng = np.random.default_rng(6)
    pts = separated_points(rng, 4)
    sys_k = SubspaceSystem.from_kernel_groups([[p] for p in pts])
    assert sys_k.dim == 4
    assert sys_k.ranks == [1, 1, 1, 1]
    g = sys_k.gram()
    assert np.allclose(np.diag(g).real, 1.0, atol=1e-10)


def test_skew_projection_matches_blaschke_formula():
    # the Gram route and the product formula are independent computations
    rng = np.random.default_rng(18)
    for _ in range(15):
        pts = separated_points(rng, int(rng.integers(2, 6)))
        system = SubspaceSystem.from_kernel_groups([[p] for p in pts])
        want = interpolation_constants(pts).projection_norms
        assert GramFactor(system).singleton_skew_norms() == pytest.approx(want, rel=1e-8)


def test_skew_projection_of_whole_system_is_identity():
    rng = np.random.default_rng(25)
    pts = separated_points(rng, 3)
    system = SubspaceSystem.from_kernel_groups([[p] for p in pts])
    assert GramFactor(system).skew_norms([[0, 1, 2]]) == pytest.approx([1.0], abs=1e-10)


def test_dual_system_biorthogonality():
    rng = np.random.default_rng(33)
    pts = separated_points(rng, 4)
    mixed_rank = SubspaceSystem.from_kernel_groups([[pts[0], pts[1]], [pts[2]], [pts[3]]])
    # kernels 0.01 apart: condition about 1e4, still jointly independent
    near_dependent = SubspaceSystem.from_kernel_groups([[0.5, 0.51], [0.52], [-0.3j]])
    assert GramFactor(near_dependent).condition() > 1e4
    for system in (mixed_rank, near_dependent):
        dual = dual_system(system)
        assert dual.ranks == system.ranks
        slices = system.block_slices()
        pairing = np.conj(dual.stacked()).T @ system.stacked()
        # dual block i annihilates every original block j != i and pairs
        # invertibly with its own block
        for i, si in enumerate(slices):
            for j, sj in enumerate(slices):
                block = pairing[si, sj]
                if i == j:
                    assert np.linalg.matrix_rank(block, tol=1e-8) == block.shape[0]
                else:
                    assert np.max(np.abs(block)) < 1e-8
        # the library reads the residual off its one Gram factor, by the
        # same operations as the oracle's frames
        assert GramFactor(system).dual_residual() == dual_residual(system, dual)


def test_single_subspace_has_zero_dual_residual():
    system = lines([[1.0, 0.0]])
    assert GramFactor(system).dual_residual() == 0.0


def test_embedding_norm_is_top_eigenvalue_of_frame_sum():
    rng = np.random.default_rng(41)
    frames = random_frames(rng, 6, [2] * 5)
    system = SubspaceSystem(frames)
    total = sum(f @ np.conj(f).T for f in frames)
    want = float(np.linalg.eigvalsh(total)[-1])
    assert embedding_norm(system) == pytest.approx(want, rel=1e-12)
    # a system report reads it off its one Gram factor, which needs the
    # frames jointly independent: ten columns in C^12
    frames = random_frames(rng, 12, [2] * 5)
    total = sum(f @ np.conj(f).T for f in frames)
    want = float(np.linalg.eigvalsh(total)[-1])
    assert GramFactor(SubspaceSystem(frames)).embedding_norm() == pytest.approx(want,
                                                                               rel=1e-12)


def test_uniform_minimality_matches_oracle():
    rng = np.random.default_rng(52)
    for _ in range(10):
        pts = separated_points(rng, 5, min_rho=0.25)
        groups = [[pts[0], pts[1]], [pts[2]], [pts[3], pts[4]]]
        system = SubspaceSystem.from_kernel_groups(groups)
        assert uniform_minimality(system) == pytest.approx(
            minimality_oracle(system), abs=1e-10
        )


def test_uniform_minimality_matches_oracle_on_mixed_ranks():
    # wider blocks take the matrix 2-norm of their rows of R^-1, rank-1
    # blocks the row norm; both against one QR per member
    rng = np.random.default_rng(53)
    for _ in range(40):
        ranks = [int(k) for k in rng.integers(1, 4, int(rng.integers(2, 7)))]
        dim = sum(ranks) + int(rng.integers(0, 4))
        system = SubspaceSystem(random_frames(rng, dim, ranks))
        assert uniform_minimality(system) == pytest.approx(
            minimality_oracle(system), rel=1e-9)


def test_uniform_minimality_matches_oracle_on_tensored_kernel_groups():
    rng = np.random.default_rng(54)
    for _ in range(20):
        sizes = [int(k) for k in rng.integers(1, 4, int(rng.integers(2, 5)))]
        pts = separated_points(rng, sum(sizes), min_rho=0.25)
        e_dim = int(rng.integers(1, 4))
        groups, vectors, start = [], [], 0
        for k in sizes:
            groups.append(pts[start:start + k])
            vectors.append([rng.standard_normal(e_dim) + 1j * rng.standard_normal(e_dim)
                            for _ in range(k)])
            start += k
        system = SubspaceSystem.from_kernel_groups(groups, vectors=vectors)
        assert uniform_minimality(system) == pytest.approx(
            minimality_oracle(system), rel=1e-9)


def near_duplicate_system(rng, n, rho):
    """n - 1 separated kernels plus one at pseudo-hyperbolic distance ~rho of one of them."""
    pts = separated_points(rng, n - 1, min_rho=0.3)
    lam = pts[int(rng.integers(0, n - 1))]
    direction = np.exp(1j * rng.uniform(0, TAU))
    pts.append(lam + rho * direction * (1 - abs(lam) ** 2))
    return SubspaceSystem.from_kernel_groups([[pts[i]] for i in rng.permutation(n)])


def test_uniform_minimality_matches_oracle_on_near_duplicate_kernels():
    # the one-QR route never forms G, so it keeps the oracle's accuracy at
    # orthogonalizer conditions from 1e2 to past 1e6
    rng = np.random.default_rng(55)
    worst_cond = 0.0
    for rho in np.geomspace(1e-1, 1e-5, 30):
        system = near_duplicate_system(rng, int(rng.integers(3, 9)), rho)
        worst_cond = max(worst_cond, np.linalg.cond(system.stacked()))
        assert uniform_minimality(system) == pytest.approx(
            minimality_oracle(system), rel=1e-9)
    assert worst_cond > 1e6


def test_skew_norms_of_members_invert_their_minimality():
    # 1/delta_n is the norm of the skew projection onto member n, which the
    # library takes from one Cholesky factor of G
    rng = np.random.default_rng(56)
    for rho in np.geomspace(0.5, 1e-2, 20):
        system = near_duplicate_system(rng, int(rng.integers(3, 8)), rho)
        factor = GramFactor(system)
        assert factor.condition() <= 1e3
        skew = factor.singleton_skew_norms()
        for n, s in enumerate(skew):
            assert s * member_minimality(system, n) == pytest.approx(1.0, abs=1e-10)
        assert uniform_minimality(system) * max(skew) == pytest.approx(1.0, abs=1e-10)


def assert_skew_norms_match_pencil(system, rng):
    """Every singleton norm and one random selection against the pencil oracle.

    Both routes reduce the pencil by a Cholesky factor of G, so they agree
    to a multiple of cond(G) eps = cond^2 eps, cond the orthogonalizer
    condition.
    """
    factor = GramFactor(system)
    tol = 16.0 * factor.condition() ** 2 * np.finfo(float).eps
    got = factor.singleton_skew_norms()
    assert got == pytest.approx([skew_norm_oracle(system, [n]) for n in range(len(system))],
                                rel=tol)
    onto = sorted(rng.choice(len(system), int(rng.integers(1, len(system) + 1)),
                             replace=False).tolist())
    assert factor.skew_norms([onto]) == pytest.approx([skew_norm_oracle(system, onto)],
                                                      rel=tol)


def test_skew_norms_match_pencil_on_mixed_ranks():
    rng = np.random.default_rng(58)
    for _ in range(40):
        ranks = [int(k) for k in rng.integers(1, 4, int(rng.integers(2, 7)))]
        dim = sum(ranks) + int(rng.integers(0, 4))
        assert_skew_norms_match_pencil(SubspaceSystem(random_frames(rng, dim, ranks)), rng)


def test_skew_norms_match_pencil_on_tensored_kernel_groups():
    rng = np.random.default_rng(59)
    for _ in range(20):
        sizes = [int(k) for k in rng.integers(1, 4, int(rng.integers(2, 5)))]
        pts = separated_points(rng, sum(sizes), min_rho=0.25)
        e_dim = int(rng.integers(1, 4))
        groups, vectors, start = [], [], 0
        for k in sizes:
            groups.append(pts[start:start + k])
            vectors.append([rng.standard_normal(e_dim) + 1j * rng.standard_normal(e_dim)
                            for _ in range(k)])
            start += k
        system = SubspaceSystem.from_kernel_groups(groups, vectors=vectors)
        assert_skew_norms_match_pencil(system, rng)


def test_skew_norms_match_pencil_on_near_duplicate_kernels():
    # orthogonalizer conditions from about 10 to past 1e5
    rng = np.random.default_rng(62)
    worst_cond = 0.0
    for rho in np.geomspace(1e-1, 3e-5, 30):
        system = near_duplicate_system(rng, int(rng.integers(3, 9)), rho)
        worst_cond = max(worst_cond, GramFactor(system).condition())
        assert_skew_norms_match_pencil(system, rng)
    assert worst_cond > 1e5


def test_skew_norms_refuse_a_dependent_system():
    v = np.array([1.0, 0.0])
    dependent = lines([v, [0.0, 1.0], v])
    with pytest.raises(LinearDependenceError):
        GramFactor(dependent).singleton_skew_norms()


def test_extract_critical_subset_matches_reference_greedy():
    # the factor-based trials pick the same witness as rebuilding and
    # rescoring every trial subfamily from scratch
    rng = np.random.default_rng(57)
    found = 0
    for t in range(60):
        pts = separated_points(rng, int(rng.integers(4, 8)), min_rho=0.35)
        lam = pts[int(rng.integers(0, len(pts)))]
        pts.append(lam + float(rng.uniform(2e-3, 5e-2)) * (1 - abs(lam) ** 2))
        order = rng.permutation(len(pts))
        if t % 2:
            # pair consecutive points so that some members have rank 2
            groups = [[pts[i] for i in order[j:j + 2]] for j in range(0, len(pts), 2)]
        else:
            groups = [[pts[i]] for i in order]
        system = SubspaceSystem.from_kernel_groups(groups)
        delta = float(rng.uniform(1.0, 3.0)) * uniform_minimality(system)
        want = extraction_oracle(system, delta)
        assert extract_critical_subset(system, delta) == want
        found += want is not None
    assert found >= 50


def test_extract_critical_subset_on_planted_cluster():
    rng = np.random.default_rng(60)
    base = separated_points(rng, 4, min_rho=0.4)
    lam = base[0]
    close = lam + 5e-3 * (1 - abs(lam) ** 2)  # pseudo-hyperbolically tiny offset
    pts = base + [close]
    system = SubspaceSystem.from_kernel_groups([[p] for p in pts])
    m0 = uniform_minimality(system)
    delta = 2.0 * m0
    subset = extract_critical_subset(system, delta)
    assert subset is not None
    sub = system.subsystem(subset)
    # the witness is genuinely below delta and minimal for that property
    assert uniform_minimality(sub) < delta
    for k in range(len(subset)):
        rest = [i for i in range(len(subset)) if i != k]
        if rest:
            assert uniform_minimality(sub.subsystem(rest)) >= delta
    # the planted pair survives into the witness
    assert {0, 4} <= set(subset)


def test_extract_critical_subset_none_when_separated():
    rng = np.random.default_rng(61)
    pts = separated_points(rng, 4, min_rho=0.5)
    system = SubspaceSystem.from_kernel_groups([[p] for p in pts])
    m0 = uniform_minimality(system)
    assert extract_critical_subset(system, 0.5 * m0) is None
    with pytest.raises(DomainError):
        extract_critical_subset(system, 0.0)


def test_coincident_points_are_a_linear_dependence_everywhere():
    # the kernel embedding refuses a singular Gram matrix with the
    # package's DomainError, not numpy's LinAlgError, with or without
    # directions
    with pytest.raises(LinearDependenceError):
        SubspaceSystem.from_kernel_groups([[0.5], [0.5]])
    with pytest.raises(LinearDependenceError):
        SubspaceSystem.from_kernel_groups([[0.5], [0.5]], [[[1j, 0]], [[1j, 0]]])


def test_a_pivot_left_by_rounding_is_a_linear_dependence():
    # (2, 2j) = 2 (1, 1j), so the pair is exactly dependent, but the
    # Cholesky's last pivot rounds to 4.2e-8 instead of failing, and the
    # system used to come back with a minimality of 1.5e-8
    with pytest.raises(LinearDependenceError):
        SubspaceSystem.from_kernel_groups([[0.5], [0.5]], [[[1, 1j]], [[2, 2j]]])


def test_kernel_directions_must_match_the_groups():
    # a mismatch is the package's DomainError, not numpy's ValueError
    # ("inhomogeneous shape") or IndexError
    groups = [[0.1, 0.5j], [-0.4]]
    with pytest.raises(DomainError, match="one length"):
        SubspaceSystem.from_kernel_groups(groups, [[[1, 0], [0, 1]], [[1, 1, 0]]])
    with pytest.raises(DomainError, match="one direction per point"):
        SubspaceSystem.from_kernel_groups(groups, [[[1, 0], [0, 1]]])
    with pytest.raises(DomainError, match="one direction per point"):
        SubspaceSystem.from_kernel_groups(groups, [[[1, 0]], [[0, 1]]])
    with pytest.raises(DomainError, match="zero direction"):
        SubspaceSystem.from_kernel_groups(groups, [[[1, 0], [0, 1]], [[0, 0]]])


def kernel_family(rng, tensored):
    """Seeded groups of 1-3 separated points, with directions in C^2..C^4 or None."""
    sizes = [int(k) for k in rng.integers(1, 4, int(rng.integers(2, 6)))]
    pts = separated_points(rng, sum(sizes), min_rho=0.25)
    e_dim = int(rng.integers(2, 5))
    groups, vectors, start = [], [], 0
    for k in sizes:
        groups.append(pts[start:start + k])
        vectors.append([rng.standard_normal(e_dim) + 1j * rng.standard_normal(e_dim)
                        for _ in range(k)])
        start += k
    return groups, vectors if tensored else None


def test_kernel_systems_are_moebius_invariant():
    # phi(z) = e^{it}(a - z)/(1 - conj(a) z) sends each normalized kernel to
    # a unimodular multiple of a normalized kernel, so the Gram of the
    # tensors k_lambda (x) e is conjugated by a diagonal unitary and every
    # subspace diagnostic stays.  Each route forms a Gram matrix, which
    # costs cond^2 u: agreement within 16 cond^2 u relative
    rng = np.random.default_rng(63)
    u = np.finfo(float).eps
    for k in range(40):
        groups, vectors = kernel_family(rng, tensored=k % 2 == 1)
        a = 0.5 * math.sqrt(rng.uniform()) * np.exp(1j * rng.uniform(0, TAU))
        rot = np.exp(1j * rng.uniform(0, TAU))
        moved = [[complex(rot * (a - z) / (1 - np.conj(a) * z)) for z in g] for g in groups]
        before = SubspaceSystem.from_kernel_groups(groups, vectors)
        after = SubspaceSystem.from_kernel_groups(moved, vectors)
        f_before, f_after = GramFactor(before), GramFactor(after)
        tol = 16.0 * f_before.condition() ** 2 * u
        assert f_after.condition() == pytest.approx(f_before.condition(), rel=tol)
        assert uniform_minimality(after) == pytest.approx(uniform_minimality(before), rel=tol)
        assert f_after.singleton_skew_norms() == pytest.approx(
            f_before.singleton_skew_norms(), rel=tol)
