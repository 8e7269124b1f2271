import json
import math
from dataclasses import replace

import numpy as np
import pytest

from carleson_kit import cli
from carleson_kit.blaschke import BlaschkeProduct
from carleson_kit.construction import (
    ContourNetEntry,
    PointSystem,
    _farthest,
    _part_products,
    build_contour_nets,
    canonical_phase,
    check_two_eps_margins,
    condition_sums,
    epsilon_net_split,
    lemma_10_1_check,
    measure_c_alpha,
    n_power_for,
    unit_sphere_net,
    validate_epsilon_choice,
)
from carleson_kit.contour import ContourConstants
from carleson_kit.disk import hyperbolic_grid
from carleson_kit.errors import DomainError, NetValidityError
from carleson_kit.model_space import MatrixFunction
from oracles import (
    condition_sums_reference,
    kernel_datum_distance,
    net_split_reference,
    two_eps_margins_reference,
    unit_sphere_net_reference,
)

TAU = 2 * math.pi


def interior_points(rng, n, rmax=0.8):
    return np.sqrt(rng.uniform(0, 1, n)) * rmax * np.exp(1j * rng.uniform(0, TAU, n))


def on_grid(family, grid):
    """The members' values on the grid, shape (members, points, d, d)."""
    return np.stack([t(grid) for t in family])


def dets_on_grid(family, grid):
    """|det| of the members on the grid, shape (members, points)."""
    return np.abs(np.linalg.det(on_grid(family, grid)))


def test_canonical_phase_pins_the_largest_component():
    rng = np.random.default_rng(2)
    for _ in range(20):
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        w = canonical_phase(v)
        j = int(np.argmax(np.abs(w)))
        assert w[j].imag == pytest.approx(0.0, abs=1e-12)
        assert w[j].real > 0
        # canonicalization kills a global phase
        rotated = canonical_phase(np.exp(1j * 1.234) * v)
        assert np.allclose(rotated, w, atol=1e-12)
    with pytest.raises(DomainError):
        canonical_phase(np.zeros(3))


class TestBuildContourNets:
    def test_scalar_member_single_point_net(self):
        lam = 0.3 + 0.2j
        fam = [MatrixFunction.from_scalar_blaschke([lam])]
        ps = build_contour_nets(fam, eps=0.1, alpha=0.05)
        assert ps.dim == 1
        entry = ps.entries[0]
        # the whole gamma-circle collapses to one net point
        assert len(entry.sigma) == 1
        sigma0 = entry.sigma[0]
        gamma = entry.contour.constants.gamma
        rho = abs(sigma0 - lam) / abs(1 - np.conj(lam) * sigma0)
        assert rho == pytest.approx(gamma, rel=1e-6)
        assert entry.vectors[0].shape == (1,)
        assert entry.vectors[0][0] == pytest.approx(1.0)
        # the star norm is |b(sigma0)|, below the level
        assert entry.star_norms[0] == pytest.approx(rho, rel=1e-9)
        assert entry.star_norms[0] < 0.1
        assert entry.blaschke.zeros.tolist() == list(entry.sigma)

    def test_large_determinant_gives_empty_net(self):
        fam = [MatrixFunction.constant(0.5 * np.eye(2))]
        ps = build_contour_nets(fam, eps=0.1, alpha=0.05)
        entry = ps.entries[0]
        assert entry.sigma == ()
        assert entry.star_norms == ()
        assert len(entry.blaschke.zeros) == 0

    def test_adjoint_vector_selects_small_singular_direction(self):
        mu = 0.4
        theta = MatrixFunction.diagonal(
            [MatrixFunction.from_scalar_blaschke([mu]), MatrixFunction.constant(np.eye(1))]
        )
        ps = build_contour_nets([theta], eps=0.1, alpha=0.05)
        entry = ps.entries[0]
        assert len(entry.sigma) >= 1
        for e, lam, smin in zip(entry.vectors, entry.sigma, entry.star_norms):
            assert np.allclose(e, [1.0, 0.0], atol=1e-9)
            # adjoint value along e is the small singular value
            val = np.linalg.norm(entry.theta(lam).conj().T @ e)
            assert val == pytest.approx(smin, abs=1e-12)
            assert smin < 0.1

    @pytest.mark.parametrize("constants", [None, {"c3": 1e-6}])
    def test_star_norms_are_kernel_datum_distances(self, constants):
        # dist{(k_lam e, 0), K} = ||P_+(Theta* k_lam e)|| = ||Theta(lam)* e||;
        # the small c3 widens the disks to gamma = eps**2 = 0.09
        theta = MatrixFunction.diagonal([MatrixFunction.from_scalar_blaschke([0.4 + 0.2j]),
                                         MatrixFunction.from_scalar_blaschke([-0.3])])
        entry = build_contour_nets([theta], eps=0.3, alpha=0.05,
                                   **(constants or {})).entries[0]
        assert len(entry.sigma) >= 2
        for lam, e, smin in zip(entry.sigma, entry.vectors, entry.star_norms):
            assert kernel_datum_distance(theta, lam, e, 2048) == pytest.approx(smin, abs=1e-12)

    def test_multi_point_net_with_wide_constants(self):
        # the small c3 makes gamma = eps = 0.3
        fam = [MatrixFunction.from_scalar_blaschke([0.0])]
        ps = build_contour_nets(fam, eps=0.3, alpha=0.05, c3=1e-6)
        entry = ps.entries[0]
        assert len(entry.sigma) > 3
        # net points live on the contour |z| = 0.3 and stay alpha-separated
        assert np.allclose(np.abs(np.asarray(entry.sigma)), 0.3, atol=1e-6)
        pts = np.asarray(entry.sigma)
        d = np.abs(pts[:, None] - pts[None, :]) / np.abs(1 - np.conj(pts[:, None]) * pts[None, :])
        np.fill_diagonal(d, np.inf)
        assert d.min() > 0.05

    def test_rejects_nonsquare_and_expansive_members(self):
        rect = MatrixFunction.from_polynomial([np.ones((2, 1))])
        with pytest.raises(DomainError):
            build_contour_nets([rect], eps=0.1, alpha=0.05)
        big = MatrixFunction.constant(1.5 * np.eye(1))
        with pytest.raises(DomainError):
            build_contour_nets([big], eps=0.1, alpha=0.05)

    def test_mixed_dimensions_raise_on_dim(self):
        fam = [
            MatrixFunction.from_scalar_blaschke([0.2]),
            MatrixFunction.constant(0.5 * np.eye(2)),
        ]
        ps = build_contour_nets(fam, eps=0.1, alpha=0.05)
        with pytest.raises(DomainError):
            ps.dim


class TestSphereNet:
    def test_dimension_one_collapses(self):
        net = unit_sphere_net(1, 0.3)
        assert len(net) == 1
        assert net[0][0] == pytest.approx(1.0)

    def test_dimension_two_net_is_separated_and_dense(self):
        rng = np.random.default_rng(10)
        eps = 0.5
        net = unit_sphere_net(2, eps, rng=rng)
        arr = np.asarray(net)
        assert np.allclose(np.linalg.norm(arr, axis=1), 1.0, atol=1e-12)
        # density against fresh canonicalized probes
        probes = rng.standard_normal((500, 2)) + 1j * rng.standard_normal((500, 2))
        probes /= np.linalg.norm(probes, axis=1, keepdims=True)
        probes = np.stack([canonical_phase(p) for p in probes])
        dmin = np.min(
            np.linalg.norm(probes[:, None, :] - arr[None, :, :], axis=2), axis=1
        )
        assert np.max(dmin) < eps

    # the ten construct-2x2 seeds of the benchmark corpus (dimension 2, eps 0.3)
    @pytest.mark.parametrize("seed", range(6, 80, 8))
    def test_corpus_nets_match_the_reference_bit_for_bit(self, seed):
        self._assert_same_net(2, 0.3, seed)

    # every (dim, eps) whose net stays near 120 vectors or fewer; the rest
    # of the grid (dim 3 below eps 0.5, dim 4 below eps 1.0) takes seconds
    # to minutes per net
    @pytest.mark.parametrize("dim, eps", [
        (2, 0.2), (2, 0.3), (2, 0.5), (2, 1.0), (2, 1.5),
        (3, 0.5), (3, 1.0), (3, 1.5), (4, 1.0), (4, 1.5)])
    def test_sweep_nets_match_the_reference_bit_for_bit(self, dim, eps):
        self._assert_same_net(dim, eps, 100 * dim + int(10 * eps))

    @staticmethod
    def _assert_same_net(dim, eps, seed):
        net = unit_sphere_net(dim, eps, rng=seed)
        reference = unit_sphere_net_reference(dim, eps, rng=seed)
        assert len(net) == len(reference) > 1
        assert all(np.array_equal(a, b) for a, b in zip(net, reference))

    @staticmethod
    def _probes_near_e1(count, spread, dim, seed):
        rng = np.random.default_rng(seed)
        raw = np.eye(dim, dtype=complex)[0] + spread * (
            rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim)))
        return raw / np.linalg.norm(raw, axis=1, keepdims=True)

    def test_farthest_takes_the_first_of_tied_probes(self):
        net = np.eye(2, dtype=complex)[:1]
        probes = self._probes_near_e1(2048, 0.1, 2, seed=1)
        # (0, 1) and (0, i) are both sqrt(2) from e1, by either formula
        probes[700] = [0.0, 1.0]
        probes[300] = [0.0, 1j]
        assert _farthest(probes, net) == (300, math.sqrt(2.0))
        probes[[300, 700]] = probes[[700, 300]]
        assert _farthest(probes, net) == (300, math.sqrt(2.0))

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_farthest_ranks_rounding_level_near_ties_by_the_min_norm_formula(self, dim):
        # (0.6, U w) with |w| = 0.8 and U unitary is sqrt(0.8) from e1 for
        # every U; in floating point the Gram identity and the min-norm
        # formula often order such probes differently in the last bits
        net = np.eye(dim, dtype=complex)[:1]
        disagree = 0
        for seed in range(10):
            rng = np.random.default_rng(seed)
            probes = self._probes_near_e1(2048, 0.1, dim, seed=rng)
            w = rng.standard_normal(dim - 1) + 1j * rng.standard_normal(dim - 1)
            z = rng.standard_normal((200, dim - 1, dim - 1)) + 1j * rng.standard_normal(
                (200, dim - 1, dim - 1))
            probes[:200, 0] = 0.6
            probes[:200, 1:] = np.linalg.qr(z)[0] @ (0.8 * w / np.linalg.norm(w))
            dists = np.min(np.linalg.norm(probes[:, None, :] - net[None], axis=2), axis=1)
            # |p|^2 + |e1|^2 - 2 Re<p, e1>
            stacked = np.concatenate([probes.real, probes.imag], axis=1)
            gram = np.einsum("ij,ij->i", stacked, stacked) + 1.0 - 2.0 * probes.real[:, 0]
            disagree += int(np.argmax(gram) != np.argmax(dists))
            assert _farthest(probes, net) == (int(np.argmax(dists)), np.max(dists))
        assert disagree > 0

    @pytest.mark.parametrize("dim, size", [(2, 1), (2, 40), (3, 60), (4, 100)])
    def test_farthest_matches_the_min_norm_formula_on_random_batches(self, dim, size):
        rng = np.random.default_rng(dim * size)
        for _ in range(5):
            net = self._probes_near_e1(size, 2.0, dim, seed=rng)
            probes = self._probes_near_e1(2048, 2.0, dim, seed=rng)
            dists = np.min(np.linalg.norm(probes[:, None, :] - net[None], axis=2), axis=1)
            assert _farthest(probes, net) == (int(np.argmax(dists)), np.max(dists))

    def test_farthest_keeps_a_probe_exactly_eps_away(self):
        # every coordinate a multiple of 1/8: |p| = 1 and |p - e1| = 1/2 exactly
        net = np.eye(3, dtype=complex)[:1]
        probes = self._probes_near_e1(2048, 0.05, 3, seed=2)
        assert np.max(np.linalg.norm(probes - net, axis=1)) < 0.5
        probes[1234] = [0.875, 0.375 + 0.25j, 0.125 + 0.125j]
        far, dist = _farthest(probes, net)
        assert (far, dist) == (1234, 0.5)
        # so the greedy net's test "dist >= eps" takes it at eps = 1/2
        assert dist >= 0.5

    def test_bad_arguments(self):
        with pytest.raises(DomainError):
            unit_sphere_net(0, 0.5)
        with pytest.raises(DomainError):
            unit_sphere_net(2, 2.5)


class TestNetSplit:
    def test_scalar_split_uses_trivial_net(self):
        rng = np.random.default_rng(7)
        zeros = interior_points(rng, 3, rmax=0.6)
        fam = [MatrixFunction.from_scalar_blaschke([z]) for z in zeros]
        ps = build_contour_nets(fam, eps=0.1, alpha=0.05)
        split = epsilon_net_split(ps)
        assert len(split.net_vectors) == 1
        for entry in split.entries:
            assert entry.parts == (0,) * len(entry.sigma)
        # one part, whose products are the members' own, not copies
        (part,) = _part_products(split)
        for entry, product in zip(split.entries, part, strict=True):
            assert product is entry.blaschke

    def test_split_recombines_multi_point_net(self):
        fam = [MatrixFunction.from_scalar_blaschke([0.0])]
        ps = build_contour_nets(fam, eps=0.3, alpha=0.05, c3=1e-6)
        split = epsilon_net_split(ps)
        entry = split.entries[0]
        # one label per net point, each naming a sphere-net vector
        assert len(entry.sigma) > 1
        assert len(entry.parts) == len(entry.sigma)
        assert set(entry.parts) <= set(range(len(split.net_vectors)))
        # the part products hold every net point once, and no part is empty
        parts = _part_products(split)
        assert all(len(b.zeros) > 0 for part in parts for b in part)
        merged = sorted((z for part in parts for b in part for z in b.zeros.tolist()),
                        key=lambda z: (z.real, z.imag))
        assert merged == sorted(entry.sigma, key=lambda z: (z.real, z.imag))

    def test_sparse_net_vectors_rejected(self):
        theta = MatrixFunction.diagonal(
            [MatrixFunction.from_scalar_blaschke([0.4]), MatrixFunction.constant(np.eye(1))]
        )
        ps = build_contour_nets([theta], eps=0.1, alpha=0.05)
        # the lone net vector is far from the attached vector [1, 0]
        far = [np.array([0.0, 1.0])]
        with pytest.raises(NetValidityError):
            epsilon_net_split(ps, net_vectors=far)


def test_two_eps_margins_scalar_family():
    rng = np.random.default_rng(13)
    zeros = interior_points(rng, 3, rmax=0.6)
    fam = [MatrixFunction.from_scalar_blaschke([z]) for z in zeros]
    split = epsilon_net_split(build_contour_nets(fam, eps=0.1, alpha=0.05))
    out = check_two_eps_margins(split)
    assert out["passed"]
    assert out["points"] == sum(len(e.sigma) for e in split.entries)
    # for scalars the net vector is exactly the attached vector, so the
    # triangle margin is -eps on the nose
    assert out["worst_triangle_margin"] == pytest.approx(-0.1, abs=1e-9)
    assert out["worst_total_margin"] < 0


def test_two_eps_margins_requires_split():
    fam = [MatrixFunction.from_scalar_blaschke([0.3])]
    ps = build_contour_nets(fam, eps=0.1, alpha=0.05)
    with pytest.raises(DomainError):
        check_two_eps_margins(ps)


class TestConditionSums:
    def test_single_identity_factor(self):
        # B(z) = z: sup of 1 - |z|^2 over any grid containing 0 is 1 at 0
        grid = np.array([0.0, 0.5, 0.3 + 0.4j])
        out = condition_sums(b_family=[BlaschkeProduct([0.0])], lam_grid=grid)
        assert out["sum_10_2_sup"] == pytest.approx(1.0)
        assert out["sum_10_2_argmax"] == 0.0

    def test_matrix_sum_matches_scalar_for_scalar_times_identity(self):
        rng = np.random.default_rng(4)
        zeros = [interior_points(rng, 2, rmax=0.6) for _ in range(3)]
        scalars = [BlaschkeProduct(zs) for zs in zeros]
        matrices = [
            MatrixFunction.diagonal(
                [MatrixFunction.from_scalar_blaschke(zs)] * 2
            )
            for zs in zeros
        ]
        grid = interior_points(rng, 60, rmax=0.9)
        out = condition_sums(b_family=scalars, lam_grid=grid,
                             theta_values=on_grid(matrices, grid),
                             abs_dets=dets_on_grid(matrices, grid))
        # for theta = b I the eigenvalue sum equals the scalar sum exactly
        assert out["sum_5_4_sup"] == pytest.approx(out["sum_10_2_sup"], rel=1e-10)
        assert out["implication_ok"]
        # dets are b^2, so the det sum uses fourth powers and dominates
        assert out["sum_5_5_sup"] >= out["sum_5_4_sup"] - 1e-10

    def test_delta_prime_vanishes_for_shared_zero(self):
        grid = np.linspace(-0.9, 0.9, 41).astype(complex)
        fam = [BlaschkeProduct([0.5, 0.2]), BlaschkeProduct([0.5, -0.3])]
        out = condition_sums(b_family=fam, lam_grid=np.append(grid, 0.5))
        assert out["delta_prime"] == pytest.approx(0.0, abs=1e-12)

    def test_delta_prime_positive_for_disjoint_zeros(self):
        grid = np.linspace(-0.9, 0.9, 81).astype(complex)
        fam = [BlaschkeProduct([0.5]), BlaschkeProduct([-0.5])]
        out = condition_sums(b_family=fam, lam_grid=grid)
        assert out["delta_prime"] > 0.3

    def test_split_domination(self):
        rng = np.random.default_rng(15)
        zeros = list(interior_points(rng, 4, rmax=0.7))
        full = BlaschkeProduct(zeros)
        parts = [BlaschkeProduct(zeros[:2]), BlaschkeProduct(zeros[2:])]
        grid = interior_points(rng, 80, rmax=0.9)
        # each part holds the products of the members with points in it
        out = condition_sums(b_family=[full], b_parts=[[p] for p in parts], lam_grid=grid)
        assert out["split_pointwise_ok"]
        assert out["split_sup_lhs"] <= out["split_sup_rhs"] + 1e-12


def matrix_member(rng, factors):
    """Coefficients of U_1 D_1(z) V_1 ... U_m D_m(z) V_m, D(z) = diag((z - a)/(1 + |a|), c).

    Each factor is contractive, with det zero a and a constant outer part c
    in (0.6, 0.95); U and V are unitary.
    """
    coeffs = [np.eye(2, dtype=complex)]
    for _ in range(factors):
        a = 0.6 * math.sqrt(rng.random()) * np.exp(1j * TAU * rng.random())
        c = rng.uniform(0.6, 0.95)
        u, v = (np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
                for _ in range(2))
        factor = (u @ np.diag([-a / (1 + abs(a)), c]) @ v, u @ np.diag([1 / (1 + abs(a)), 0]) @ v)
        out = [np.zeros((2, 2), dtype=complex) for _ in range(len(coeffs) + 1)]
        for i, p in enumerate(coeffs):
            for j, q in enumerate(factor):
                out[i + j] += p @ q
        coeffs = out
    return np.array(coeffs)


def multi_member_family(kind, seed):
    """(input document, family) of 2 or 3 members: 2x2 products of 2 to 4
    degree-one factors, or scalar Blaschke products of 1 to 3 zeros."""
    rng = np.random.default_rng(seed)
    members = int(rng.integers(2, 4))
    if kind == "matrices":
        coeffs = [matrix_member(rng, int(rng.integers(2, 5))) for _ in range(members)]
        document = {"matrices": [{"coefficients": [[[[x.real, x.imag] for x in row.tolist()]
                                                    for row in m] for m in c]} for c in coeffs]}
        return document, [MatrixFunction.from_polynomial(c) for c in coeffs]
    zeros = [interior_points(rng, int(rng.integers(1, 4)), rmax=0.7) for _ in range(members)]
    document = {"families": [[[z.real, z.imag] for z in zs.tolist()] for zs in zeros]}
    return document, [MatrixFunction.from_scalar_blaschke(zs) for zs in zeros]


def construct_flags(eps, seed):
    return ["--epsilon", str(eps), "--alpha", "0.05", "--depth", "4", "--seed", str(seed)]


def reference_construct_report(family, eps, seed):
    """The construct report by the dict-of-products split of ``oracles``,
    every part built, empty ones too, and each member evaluated on the grid
    by each check that reads it."""
    report = {"command": "construct",
              "inputs": {"members": len(family), "dims": sorted({t.rows for t in family})},
              "constants": {"epsilon": eps, "alpha": 0.05, "seed": seed, "cv": None,
                            "delta": None, "c1": 8.0, "c2": 8.0, "c3": 8.0}}
    ps = build_contour_nets(family, eps, 0.05)
    net = [canonical_phase(v / np.linalg.norm(v))
           for v in unit_sphere_net(ps.dim, eps, rng=np.random.default_rng(seed))]
    parts, products = net_split_reference(ps, net, eps)
    margins = two_eps_margins_reference(ps, parts, net, eps)
    grid = hyperbolic_grid(4, 8)
    b_family = [e.blaschke for e in ps.entries]
    sums, _ = condition_sums_reference(b_family, family, grid,
                                       [[p[k] for k in sorted(p)] for p in products])
    lemma = lemma_10_1_check(family, b_family, eps, ContourConstants.for_epsilon(eps).log_eps_prime,
                             z_grid=grid, abs_dets=dets_on_grid(family, grid), alpha=0.05)
    report["quantities"] = {
        "sigma_sizes": [len(e.sigma) for e in ps.entries], "net_vectors": len(net),
        "c_alpha": measure_c_alpha(ps), "condition_sums": sums, "lemma_10_1": lemma,
        "n_power": lemma["n_power"]}
    return cli._finish(report, [
        cli._check("point-system-valid", True),
        cli._check("two-eps-margins", margins["passed"], margins),
        cli._check("det-sum-dominates", sums["implication_ok"],
                   {"margin": sums["implication_margin"]}),
        cli._check("split-domination", sums["split_pointwise_ok"]),
        cli._check("outer-comparison-chain", lemma["passed"], {
            "assembled_margin": lemma["assembled_margin"],
            "covering_max": lemma["covering_max"]})])


MULTI_MEMBER = [("matrices", 1), ("matrices", 2), ("matrices", 3), ("families", 4),
                ("families", 5)]


class TestMultiMemberSplit:
    """Labels against the dict-of-products split, on families whose members
    reach several sphere-net parts: bit for bit, at eps 0.3 and 0.1."""

    @pytest.mark.parametrize("eps", [0.3, 0.1])
    @pytest.mark.parametrize("kind, seed", MULTI_MEMBER)
    def test_split_sums_and_margins_match_the_reference(self, kind, seed, eps):
        _, family = multi_member_family(kind, seed)
        split = epsilon_net_split(build_contour_nets(family, eps, 0.05),
                                  rng=np.random.default_rng(seed))
        net = [canonical_phase(v / np.linalg.norm(v))
               for v in unit_sphere_net(split.dim, eps, rng=np.random.default_rng(seed))]
        assert all(np.array_equal(a, b) for a, b in zip(split.net_vectors, net, strict=True))
        parts, products = net_split_reference(split, net, eps)
        for entry, member_parts in zip(split.entries, parts):
            assert entry.parts == tuple(
                next(k for k, pts in member_parts.items() if lam in pts) for lam in entry.sigma)
        assert check_two_eps_margins(split) == two_eps_margins_reference(split, parts, net, eps)

        grid = hyperbolic_grid(4, 8)
        b_family = [e.blaschke for e in split.entries]
        want, part_sups = condition_sums_reference(
            b_family, family, grid, [[p[k] for k in sorted(p)] for p in products])
        got = condition_sums(b_family, grid, theta_values=on_grid(family, grid),
                             abs_dets=dets_on_grid(family, grid), b_parts=_part_products(split))
        assert json.dumps(got, default=repr) == json.dumps(want, default=repr)
        # a part without points only ever added exact zeros
        used = {k for e in split.entries for k in e.parts}
        assert all(sup == 0.0 for k, sup in enumerate(part_sups) if k not in used)
        if kind == "matrices":
            # one stacked determinant is the members' determinants bit for bit
            assert np.array_equal(np.linalg.det(on_grid(family, grid)),
                                  np.stack([np.linalg.det(t(grid)) for t in family]))

    @pytest.mark.parametrize("eps", [0.3, 0.1])
    def test_matrix_families_reach_several_parts(self, eps):
        most = 0
        for kind, seed in MULTI_MEMBER[:3]:
            _, family = multi_member_family(kind, seed)
            split = epsilon_net_split(build_contour_nets(family, eps, 0.05),
                                      rng=np.random.default_rng(seed))
            most = max([most] + [len(set(e.parts)) for e in split.entries])
        assert most >= 3

    @pytest.mark.parametrize("eps", [0.3, 0.1])
    @pytest.mark.parametrize("kind, seed", MULTI_MEMBER)
    def test_report_matches_the_reference_byte_for_byte(self, kind, seed, eps, tmp_path):
        document, family = multi_member_family(kind, seed)
        inp, out = tmp_path / "input.json", tmp_path / "report.json"
        inp.write_text(json.dumps(document))
        code = cli.main(["construct", "--input", str(inp), *construct_flags(eps, seed),
                         "--out", str(out)])
        want = reference_construct_report(family, eps, seed)
        assert code == (0 if want["passed"] else 1)
        assert out.read_text() == cli.render_report(want)

    def test_each_member_is_evaluated_once_and_no_part_product_is_empty(
            self, monkeypatch, tmp_path):
        grid_size = hyperbolic_grid(4, 8).size
        sizes, zero_counts = [], []
        call, init = MatrixFunction.__call__, BlaschkeProduct.__init__

        def counted_call(theta, z):
            sizes.append(np.size(z))
            return call(theta, z)

        def counted_init(product, zeros=()):
            init(product, zeros)
            zero_counts.append(product.zeros.size)

        monkeypatch.setattr(MatrixFunction, "__call__", counted_call)
        monkeypatch.setattr(BlaschkeProduct, "__init__", counted_init)
        document, family = multi_member_family("matrices", 1)
        inp = tmp_path / "input.json"
        inp.write_text(json.dumps(document))
        cli.main(["construct", "--input", str(inp), *construct_flags(0.3, 1),
                  "--out", str(tmp_path / "report.json")])
        assert sizes.count(grid_size) == len(family)
        assert zero_counts and min(zero_counts) > 0

    def test_det_of_the_grid_values_is_taken_once(self, monkeypatch, tmp_path):
        # condition_sums and lemma_10_1_check share |det theta| on the grid;
        # the boundary dets of the lemma are 3-d stacks
        det, grid_dets = np.linalg.det, []

        def counted_det(a):
            if np.ndim(a) == 4:
                grid_dets.append(np.shape(a))
            return det(a)

        monkeypatch.setattr(np.linalg, "det", counted_det)
        document, family = multi_member_family("matrices", 1)
        inp = tmp_path / "input.json"
        inp.write_text(json.dumps(document))
        code = cli.main(["construct", "--input", str(inp), *construct_flags(0.3, 1),
                         "--out", str(tmp_path / "report.json")])
        assert code == 0
        assert grid_dets == [(len(family), hyperbolic_grid(4, 8).size, 2, 2)]


def test_n_power_bracketing():
    rng = np.random.default_rng(6)
    for _ in range(20):
        alpha = rng.uniform(0.05, 0.95)
        lep = -rng.uniform(0.5, 200.0)
        d = int(rng.integers(1, 4))
        n = n_power_for(alpha, lep, d)
        assert n * math.log(alpha) < d * lep
        assert (n - 1) * math.log(alpha) >= d * lep
    with pytest.raises(DomainError):
        n_power_for(0.5, 1.0, 1)


class TestLemmaChain:
    def test_inner_scalar_family_passes(self):
        rng = np.random.default_rng(8)
        fam_zeros = [[0.5, 0.55 + 0.05j], [-0.5, -0.45 - 0.05j]]
        theta = [MatrixFunction.from_scalar_blaschke(zs) for zs in fam_zeros]
        prods = [BlaschkeProduct(zs) for zs in fam_zeros]
        grid = interior_points(rng, 100, rmax=0.9)
        out = lemma_10_1_check(theta, prods, eps=0.1, log_eps_prime=-5.0,
                               z_grid=grid, abs_dets=dets_on_grid(theta, grid), alpha=0.5)
        assert out["passed"]
        assert out["n_power"] == 8
        assert out["support_multiplicity"] == 0
        assert out["check_a_ok"]
        assert out["check_b_sup"] == pytest.approx(0.0, abs=1e-12)
        assert out["mid_chain_ok"]
        assert out["covering_max"] <= 1
        assert out["assembled_ok"]

    def test_outer_member_is_handled(self):
        rng = np.random.default_rng(9)
        theta = [
            MatrixFunction.from_scalar_blaschke([0.5]),
            MatrixFunction.constant(np.array([[0.25]])),
        ]
        prods = [BlaschkeProduct([0.5]), BlaschkeProduct(())]
        grid = interior_points(rng, 60, rmax=0.8)
        out = lemma_10_1_check(theta, prods, eps=0.1, log_eps_prime=-5.0,
                               z_grid=grid, abs_dets=dets_on_grid(theta, grid), alpha=0.5)
        assert out["passed"]
        assert out["support_multiplicity"] == 1
        # the constant member contributes 1 - 0.25^2 to the outer sums
        assert out["check_b_sup"] == pytest.approx(1 - 0.25**2, abs=1e-6)

    def test_shape_mismatches_rejected(self):
        theta = [MatrixFunction.from_scalar_blaschke([0.5])]
        with pytest.raises(DomainError):
            lemma_10_1_check(theta, [], eps=0.1, log_eps_prime=-5.0, z_grid=np.array([0.0]),
                             abs_dets=dets_on_grid(theta, np.array([0.0])), alpha=0.5)

    @pytest.mark.parametrize("eps", [0.0, -0.1, 1.0])
    def test_eps_outside_the_unit_interval_rejected(self, eps):
        theta = [MatrixFunction.from_scalar_blaschke([0.5])]
        with pytest.raises(DomainError, match="eps"):
            lemma_10_1_check(theta, [BlaschkeProduct([0.5])], eps=eps, log_eps_prime=-5.0,
                             z_grid=np.array([0.0]),
                             abs_dets=dets_on_grid(theta, np.array([0.0])), alpha=0.5)


def test_validate_epsilon_choice_branches():
    ok = validate_epsilon_choice(0.001, 2.0, 5.0, 0.4)
    assert ok["ok"]
    assert ok["lhs"] == pytest.approx(0.01)
    assert ok["rhs"] == pytest.approx(0.04)
    bad = validate_epsilon_choice(0.1, 2.0, 5.0, 0.4)
    assert not bad["ok"]
    with pytest.raises(DomainError):
        validate_epsilon_choice(0.1, 2.0, 5.0, 0.0)


def test_measure_c_alpha_single_point_nets():
    rng = np.random.default_rng(11)
    zeros = interior_points(rng, 3, rmax=0.6)
    fam = [MatrixFunction.from_scalar_blaschke([z]) for z in zeros]
    ps = build_contour_nets(fam, eps=0.1, alpha=0.05)
    assert measure_c_alpha(ps) == 1.0


def test_measure_c_alpha_two_point_net():
    # hand-built system with net {0, 1/2}: kernel overlap g = sqrt(3)/2,
    # orthogonalizer condition sqrt((1+g)/(1-g))
    fam = [MatrixFunction.from_scalar_blaschke([0.0])]
    base = build_contour_nets(fam, eps=0.1, alpha=0.05)
    entry = base.entries[0]
    synthetic = ContourNetEntry(
        theta=entry.theta, contour=entry.contour,
        sigma=(0.0 + 0j, 0.5 + 0j),
        vectors=(np.ones(1, dtype=complex),) * 2,
        star_norms=(0.0, 0.5), blaschke=BlaschkeProduct([0.0, 0.5]),
    )
    ps = PointSystem(epsilon=0.1, entries=(synthetic,))
    g = math.sqrt(3) / 2
    assert measure_c_alpha(ps) == pytest.approx(math.sqrt((1 + g) / (1 - g)), rel=1e-10)
    # a dependent net has no finite condition: the Cholesky of the kernel
    # Gram and the spectrum test of GramFactor each refuse one
    for sigma in ((0.5 + 0j, 0.5 + 0j), (0.5 + 0j, 0.5 + 1e-7j)):
        dependent = replace(synthetic, sigma=sigma)
        ps = PointSystem(epsilon=0.1, entries=(synthetic, dependent))
        assert measure_c_alpha(ps) == math.inf
