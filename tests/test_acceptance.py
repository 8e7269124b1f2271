"""Acceptance suite: one test per shipped guarantee, with stated tolerances
and runtime budgets.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line per
guarantee.  Each test also records its headline numbers (worst errors, worst
ratios, elapsed seconds) in ``tests/artifacts/acceptance_report.json``, which
every run rewrites and git ignores.
"""

import filecmp
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from carleson_kit.blaschke import BlaschkeProduct, net_is_valid, projection_norm_formula
from carleson_kit.carleson import (
    DiscreteMeasure,
    carleson_norm,
    embedding_constant_empirical,
    kernel_test_constant,
)
from carleson_kit.cli import main
from carleson_kit.construction import (
    build_contour_nets,
    epsilon_net_split,
    lemma_10_1_check,
    product_defect_bound,
)
from carleson_kit.contour import (
    BoundedFunction,
    ContourConstants,
    bourgain_contour,
    check_potential_bounds,
    verify_region,
)
from carleson_kit.disk import hyperbolic_grid
from carleson_kit.model_space import MatrixFunction, kernel_grid, project_model
from carleson_kit.riesz import (
    SubspaceSystem,
    embedding_norm,
    extract_critical_subset,
    skew_projection_norm,
    tensor_bound_check,
    uniform_minimality,
)
from carleson_kit.weights import Weight, classify_weight, p0_norm_check
from oracles import minimality_oracle

TAU = 2 * math.pi
ARTIFACT = Path(__file__).parent / "artifacts" / "acceptance_report.json"


@pytest.fixture(scope="module", autouse=True)
def _fresh_artifact():
    ARTIFACT.parent.mkdir(exist_ok=True)
    if ARTIFACT.exists():
        ARTIFACT.unlink()
    yield


def record(name, **payload):
    data = json.loads(ARTIFACT.read_text()) if ARTIFACT.exists() else {}
    data[name] = payload
    ARTIFACT.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


class Timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0


def random_zeros(rng, n, rmax=0.985):
    r = np.sqrt(rng.uniform(0, 1, n)) * rmax
    return r * np.exp(1j * rng.uniform(0, TAU, n))


def separated_points(rng, n, min_rho=0.3, rmax=0.85):
    pts = []
    while len(pts) < n:
        z = complex(*rng.uniform(-rmax, rmax, 2))
        if abs(z) >= rmax:
            continue
        if all(abs(z - p) / abs(1 - np.conj(p) * z) >= min_rho for p in pts):
            pts.append(z)
    return pts


def test_c01_projection_norms_match_inverse_product_formula():
    rng = np.random.default_rng(101)
    worst = 0.0
    with Timer() as t:
        for _ in range(100):
            pts = separated_points(rng, int(rng.integers(2, 9)))
            system = SubspaceSystem.from_kernel_groups([[p] for p in pts])
            for i, p in enumerate(pts):
                gram = skew_projection_norm(system, [i])
                closed = projection_norm_formula(pts, p)
                worst = max(worst, abs(gram - closed) / closed)
    record("c01_projection_norms", sets=100, worst_relative_error=worst,
           seconds=t.elapsed)
    assert worst <= 1e-8
    assert t.elapsed < 5.0


def test_c02_model_projection_of_kernel_matches_defect():
    rng = np.random.default_rng(202)
    worst = 0.0
    with Timer() as t:
        for _ in range(100):
            b = BlaschkeProduct(random_zeros(rng, int(rng.integers(1, 21)), rmax=0.9))
            lam = complex(*rng.uniform(-0.6, 0.6, 2))
            proj = project_model(b, kernel_grid(lam, 4096))
            worst = max(worst, abs(proj.norm() ** 2 - (1.0 - abs(b(lam)) ** 2)))
    record("c02_kernel_projection_norm", cases=100, worst_absolute_error=worst,
           seconds=t.elapsed)
    assert worst <= 1e-8
    assert t.elapsed < 10.0


def test_c03_kernel_defect_sums_bounded_by_embedding_norm():
    rng = np.random.default_rng(303)
    grid = hyperbolic_grid(8, 8)
    worst = -math.inf
    with Timer() as t:
        for _ in range(20):
            pts = separated_points(rng, int(rng.integers(5, 9)))
            groups, i = [], 0
            while i < len(pts):
                k = min(int(rng.integers(1, 3)), len(pts) - i)
                groups.append(pts[i:i + k])
                i += k
            system = SubspaceSystem.from_kernel_groups(groups)
            sums = np.zeros(grid.shape[0])
            for g in groups:
                sums += 1.0 - np.abs(BlaschkeProduct(g)(grid)) ** 2
            worst = max(worst, float(np.max(sums) - embedding_norm(system)))
    record("c03_defect_sums", families=20, grid_points=int(grid.shape[0]),
           worst_margin=worst, seconds=t.elapsed)
    assert worst <= 1e-8
    assert t.elapsed < 30.0


def test_c04_carleson_constants_agree_within_factor_100():
    rng = np.random.default_rng(404)
    worst = 1.0
    with Timer() as t:
        for _ in range(100):
            n = int(rng.integers(1, 101))
            pos = random_zeros(rng, n, rmax=0.995)
            masses = rng.uniform(0.01, 1.0, n)
            mu = DiscreteMeasure(list(zip(pos.tolist(), masses.tolist())))
            vals = [carleson_norm(mu, depth=12), kernel_test_constant(mu),
                    embedding_constant_empirical(mu, test_degree=64)]
            worst = max(worst, max(vals) / min(vals))
    record("c04_constant_comparability", measures=100, worst_ratio=worst,
           seconds=t.elapsed)
    assert worst <= 100.0
    assert t.elapsed < 60.0


def test_c05_contour_sandwich_mass_ratio_and_norm():
    rng = np.random.default_rng(505)
    levels = (0.1, 0.05, 0.01)
    worst_spread = 0.0
    worst_norm = 0.0
    slowest = 0.0
    with Timer() as t:
        for _ in range(50):
            phi = BoundedFunction(zeros=random_zeros(rng, int(rng.integers(1, 51))))
            t0 = time.perf_counter()
            norms = []
            for eps in levels:
                result = bourgain_contour(phi, eps)
                rep = verify_region(phi, result, eps, samples=10000, rng=rng,
                                    depth=12)
                assert rep["upper_violations"] == 0
                assert rep["lower_violations"] == 0
                assert rep["contour_norm"] <= 10.0
                norms.append(rep["contour_norm"])
            slowest = max(slowest, time.perf_counter() - t0)
            assert slowest < 30.0
            worst_spread = max(worst_spread, max(norms) / min(norms))
            worst_norm = max(worst_norm, max(norms))
    record("c05_contour", products=50, levels=list(levels),
           samples_per_check=10000, worst_norm=worst_norm,
           worst_norm_spread=worst_spread, slowest_product_seconds=slowest,
           seconds=t.elapsed)
    # Why the spread is about 2: at the default constants gamma =
    # 1/(2 C3 (100 C1 + 1) log(1/eps)) is below eps, so gamma is proportional
    # to 1/log(1/eps) and gamma(0.1)/gamma(0.01) = log 100/log 10 = 2.  The
    # contour is the union of the gamma-disk circles, and while the disks do
    # not overlap its Carleson norm is linear in gamma up to the gamma**2
    # (about 1e-9) of the Euclidean radius gamma(1-|a|^2)/(1-gamma^2|a|^2).
    # The observed spread is 2 + 1.5e-9.
    assert worst_spread <= 2.0 * (1.0 + 1e-6)


def test_c06_potential_two_sided_bounds_on_separated_points():
    rng = np.random.default_rng(606)
    eps = 0.1
    worst_lower = worst_upper = math.inf
    with Timer() as t:
        for k in range(20):
            zeros = random_zeros(rng, int(rng.integers(2, 13)), rmax=0.9)
            atoms = ()
            outer = None
            if k % 3 == 1:
                atoms = tuple((float(a), float(m)) for a, m in
                              zip(rng.uniform(0, TAU, 2), rng.uniform(0.05, 0.4, 2)))
            elif k % 3 == 2:
                outer = -rng.uniform(0.0, 1.0, 1024)
            phi = BoundedFunction(zeros=zeros, singular_atoms=atoms,
                                  outer_log=outer)
            pts = []
            while len(pts) < 1000:
                cand = (rng.uniform(-0.97, 0.97, 4000)
                        + 1j * rng.uniform(-0.97, 0.97, 4000))
                cand = cand[np.abs(cand) < 0.97]
                d = np.min(np.abs(cand[:, None] - zeros[None, :])
                           / np.abs(1 - np.conj(zeros)[None, :] * cand[:, None]),
                           axis=1)
                pts.extend(cand[d >= 1.1 * eps][:1000 - len(pts)])
            out = check_potential_bounds(phi, eps, np.array(pts))
            assert out["hypothesis_ok"]
            worst_lower = min(worst_lower, out["worst_lower"])
            worst_upper = min(worst_upper, out["worst_upper"])
    record("c06_potential_bounds", functions=20, points_per_function=1000,
           worst_lower_margin=worst_lower, worst_upper_margin=worst_upper,
           seconds=t.elapsed)
    assert worst_lower >= -1e-8
    assert worst_upper >= -1e-8
    assert t.elapsed < 10.0


def test_c07_contour_nets_separated_dense_small_product():
    scalar_family = [
        MatrixFunction.from_scalar_blaschke([0.5, 0.55 + 0.05j]),
        MatrixFunction.from_scalar_blaschke([-0.5, -0.45 - 0.05j]),
    ]
    matrix_family = [MatrixFunction.diagonal([
        MatrixFunction.from_scalar_blaschke([0.4]),
        MatrixFunction.constant(np.eye(1)),
    ])]
    alpha = 0.05
    net_sizes = []
    with Timer() as t:
        for family in (scalar_family, matrix_family):
            ps = build_contour_nets(family, eps=0.1, alpha=alpha)
            for entry in ps.entries:
                verts = np.concatenate(
                    [np.asarray(p) for p in entry.contour.polylines])
                separated, dense, small = net_is_valid(verts, entry.sigma, alpha)
                assert separated
                assert dense
                assert small
                net_sizes.append(len(entry.sigma))
    record("c07_nets", alpha=alpha, net_sizes=net_sizes, seconds=t.elapsed)
    assert t.elapsed < 10.0


def test_c08_kernel_tensor_frame_bounds():
    rng = np.random.default_rng(808)
    worst_lo = worst_hi = math.inf
    with Timer() as t:
        for _ in range(10):
            pts = separated_points(rng, int(rng.integers(2, 7)))
            out = tensor_bound_check(pts, e_dim=int(rng.integers(1, 5)),
                                     trials=100, rng=rng)
            assert out["passed"]
            worst_lo = min(worst_lo, out["worst_lower_margin"])
            worst_hi = min(worst_hi, out["worst_upper_margin"])
    record("c08_tensor_bounds", draws=1000, worst_lower_margin=worst_lo,
           worst_upper_margin=worst_hi, seconds=t.elapsed)
    assert worst_lo >= -1e-10
    assert worst_hi >= -1e-10
    assert t.elapsed < 5.0


def test_c09_critical_subset_extraction_sound():
    rng = np.random.default_rng(909)
    sizes = []
    with Timer() as t:
        for _ in range(50):
            n = int(rng.integers(4, 7))
            base = separated_points(rng, n, min_rho=0.35)
            lam = base[int(rng.integers(0, n))]
            close = lam + float(rng.uniform(2e-3, 8e-3)) * (1 - abs(lam) ** 2)
            pts = base + [close]
            system = SubspaceSystem.from_kernel_groups([[p] for p in pts])
            delta = 2.0 * uniform_minimality(system)
            subset = extract_critical_subset(system, delta)
            assert subset is not None
            assert len(subset) <= len(pts)
            sub = system.subsystem([system.labels.index(s) for s in subset])
            # the witness is below delta and every proper part is not,
            # both recomputed independently of the library routine
            assert minimality_oracle(sub) < delta
            for k in range(len(subset)):
                rest = [i for i in range(len(subset)) if i != k]
                if rest:
                    assert minimality_oracle(sub.subsystem(rest)) >= delta
            sizes.append(len(subset))
    record("c09_extraction", systems=50, witness_sizes_min=min(sizes),
           witness_sizes_max=max(sizes), seconds=t.elapsed)
    assert t.elapsed < 10.0


def test_c10_outer_comparison_chain():
    rng = np.random.default_rng(1010)
    worst_defect = -math.inf
    with Timer() as t:
        for _ in range(10000):
            lhs, rhs = product_defect_bound(rng.uniform(0, 1, int(rng.integers(1, 9))))
            worst_defect = max(worst_defect, lhs - rhs)
        assert worst_defect <= 1e-12

        grid = hyperbolic_grid(8, 8)
        fam_zeros = [[0.5, 0.55 + 0.05j], [-0.5, -0.45 - 0.05j]]
        family = [MatrixFunction.from_scalar_blaschke(zs) for zs in fam_zeros]
        ps = build_contour_nets(family, eps=0.1, alpha=0.05)
        ps = epsilon_net_split(ps, eps=0.1, rng=rng)
        consts = ContourConstants.for_epsilon(0.1)
        pipeline = lemma_10_1_check(family, [e.blaschke for e in ps.entries],
                                    eps=0.1, log_eps_prime=consts.log_eps_prime,
                                    z_grid=grid, alpha=0.05)
        # outer-member family against a hand-tightened inner level
        mixed_theta = [MatrixFunction.from_scalar_blaschke([0.5]),
                       MatrixFunction.constant(np.array([[0.25]]))]
        mixed_b = [BlaschkeProduct([0.5]), BlaschkeProduct(())]
        mixed = lemma_10_1_check(mixed_theta, mixed_b, eps=0.1,
                                 log_eps_prime=-5.0, z_grid=grid, alpha=0.5)
    for report in (pipeline, mixed):
        assert report["check_a_ok"]
        assert report["check_b_sup"] <= report["check_b_bound"] + 1e-6
        assert report["mid_chain_ok"]
        assert report["covering_ok"]
        assert report["assembled_ok"]
        assert report["passed"]
    record("c10_comparison_chain", tuples=10000, worst_defect_margin=worst_defect,
           pipeline_assembled_margin=pipeline["assembled_margin"],
           mixed_outer_sum=mixed["check_b_sup"], seconds=t.elapsed)
    assert t.elapsed < 60.0


def test_c11_weight_levels_and_p0_identity():
    with Timer() as t:
        assert classify_weight(Weight.from_tag("one"))["level"] == 5
        assert classify_weight(Weight.from_tag("abs_one_minus_z"))["level"] == 2
        assert classify_weight(Weight.from_tag("sqrt_abs_one_minus_z"))["level"] == 4
        p0 = p0_norm_check(Weight.from_tag("two_plus_cos"), section_size=1024)
    target = 2.0 / math.sqrt(3.0)
    record("c11_weights", p0_lhs=p0["lhs"], p0_rhs=p0["rhs"], target=target,
           seconds=t.elapsed)
    assert p0["lhs"] == pytest.approx(target, abs=1e-4)
    assert p0["rhs"] == pytest.approx(target, abs=1e-4)
    assert p0["ok"]
    assert t.elapsed < 10.0


def test_c12_cli_reports_byte_identical(tmp_path):
    seq_in = tmp_path / "points.json"
    seq_in.write_text(json.dumps(
        {"points": [[0.0, 0.0], [0.5, 0.0], [0.0, -0.6]]}))
    con_in = tmp_path / "zeros.json"
    con_in.write_text(json.dumps({"zeros": [[0.0, 0.0], [0.3, 0.2]]}))
    with Timer() as t:
        for name in ("s1.json", "s2.json"):
            assert main(["sequence", "--input", str(seq_in),
                         "--out", str(tmp_path / name)]) == 0
        for name in ("c1.json", "c2.json"):
            assert main(["contour", "--input", str(con_in), "--epsilon", "0.1",
                         "--seed", "17", "--out", str(tmp_path / name)]) == 0
    identical = (filecmp.cmp(tmp_path / "s1.json", tmp_path / "s2.json",
                             shallow=False)
                 and filecmp.cmp(tmp_path / "c1.json", tmp_path / "c2.json",
                                 shallow=False))
    record("c12_cli_determinism", identical=identical, seconds=t.elapsed)
    assert identical
    assert t.elapsed < 5.0
