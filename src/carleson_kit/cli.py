"""Batch front end: JSON in, JSON report and optional SVG out.

Each subcommand runs one analysis, writes a deterministic report (sorted
keys, no timestamps, atomic replace) and exits 0 when every exercised
check passed, 1 on a check failure, 2 on bad input: an ``InputError`` of
this module or a ``DomainError`` of the library, both reported by ``main``.
Complex numbers travel as [re, im] pairs.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import operator
import os
import sys
import tempfile
from dataclasses import dataclass, fields
from itertools import chain, compress, repeat

import numpy as np

from . import rendering, riesz
from .blaschke import BlaschkeProduct, interpolation_constants, projection_norm_formula
from .carleson import (DiscreteMeasure, carleson_norm, embedding_constant_empirical,
                       kernel_test_constant)
from .construction import (build_contour_nets, check_two_eps_margins, condition_sums,
                           epsilon_net_split, lemma_10_1_check, measure_c_alpha,
                           validate_epsilon_choice)
from .contour import (BoundedFunction, ContourBoundError, ContourConstants,
                      bourgain_contour, verify_region)
from .disk import hyperbolic_grid
from .errors import DomainError, NetValidityError
from .model_space import MatrixFunction
from .weights import Weight, classify_weight, p0_norm_check


class InputError(Exception):
    pass


@dataclass
class RunConfig:
    command: str
    input: str | None = None
    epsilon: float | None = None
    alpha: float | None = None
    depth: int = 12
    seed: int | None = None
    delta: float | None = None
    cv: float | None = None
    c1: float = 8.0
    c2: float = 8.0
    c3: float = 8.0
    section: int = 256
    out: str | None = None
    svg: str | None = None

    def require_seed(self):
        if self.seed is None:
            raise InputError("this command runs randomized checks; --seed is mandatory")

    def validate(self):
        if self.epsilon is not None and not 0.0 < self.epsilon < 1.0:
            raise InputError("--epsilon must lie in (0, 1)")
        if self.alpha is not None and not 0.0 < self.alpha < 0.1:
            raise InputError("--alpha must lie in (0, 0.1)")
        if not 1 <= self.depth <= 24:
            raise InputError("--depth must lie in 1..24")
        if self.section < 1:
            raise InputError("--section must be positive")
        for name in ("c1", "c2", "c3"):
            if getattr(self, name) <= 0:
                raise InputError(f"--{name} must be positive")


def _sanitize(obj):
    """JSON-safe copy: numpy to python, complex to [re, im], non-finite to None."""
    if obj is None or isinstance(obj, (bool, str, int)):
        return obj
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, complex):
        return [_sanitize(obj.real), _sanitize(obj.imag)]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return _sanitize(float(obj))
    if isinstance(obj, np.complexfloating):
        return _sanitize(complex(obj))
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set)):
        return [_sanitize(v) for v in obj]
    return str(obj)


def render_report(report: dict) -> str:
    return json.dumps(_sanitize(report), sort_keys=True, indent=2) + "\n"


def write_report(path: str | None, report: dict) -> None:
    text = render_report(report)
    if path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".json.tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _check(name: str, passed: bool, detail=None) -> dict:
    entry = {"name": name, "passed": bool(passed)}
    if detail is not None:
        entry["detail"] = detail
    return entry


def _finish(report: dict, checks: list) -> dict:
    report["checks"] = checks
    report["passed"] = all(c["passed"] for c in checks)
    return report


def _load_input(path: str | None) -> tuple[dict, bytes]:
    """The input document and the bytes it was parsed from."""
    if path is None:
        raise InputError("--input is required for this command")
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read input file: {exc}") from exc
    try:
        return json.loads(raw), raw
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InputError(f"input is not valid JSON: {exc}") from exc


def _load_json(path: str | None) -> dict:
    return _load_input(path)[0]


def _load_json_digest(path: str | None) -> tuple[dict, str]:
    """The input document and the sha256 hex digest of its bytes.

    Reports whose input is one bulk list state the digest instead of
    echoing the list.
    """
    data, raw = _load_input(path)
    return data, hashlib.sha256(raw).hexdigest()


#: the JSON number types; bool is an int to Python but not a number here
_NUMBER_TYPES = frozenset((int, float))


def _complex_array(values, what: str) -> np.ndarray:
    """Complex array from a JSON list of numbers and [re, im] pairs.

    The entries are checked by the sets of their types and pair lengths, so
    the per-entry work runs in C (``map``, ``compress``, ``set``) rather than
    in a Python-level check per entry.
    """
    if not isinstance(values, list):
        raise InputError(f"{what} must be a list")
    is_pair = list(map(isinstance, values, repeat(list)))
    pairs = list(compress(values, is_pair))
    numbers = list(compress(values, map(operator.not_, is_pair)))
    parts = list(chain.from_iterable(pairs))
    if (not set(map(type, numbers)) <= _NUMBER_TYPES
            or not set(map(len, pairs)) <= {2}
            or not set(map(type, parts)) <= _NUMBER_TYPES):
        raise InputError(f"{what} must be a number or an [re, im] pair")
    re_im = np.array(parts, dtype=float).reshape(-1, 2)
    if numbers:
        mask = np.array(is_pair)
        mixed = np.zeros((len(values), 2))
        mixed[mask] = re_im
        mixed[~mask, 0] = numbers
        re_im = mixed
    return re_im.view(complex).reshape(-1)


def _real_array(values, what: str) -> np.ndarray:
    """Float array from a JSON list of numbers, checked by the set of their types."""
    if not isinstance(values, list) or not set(map(type, values)) <= _NUMBER_TYPES:
        raise InputError(f"{what} must be a list of numbers")
    return np.array(values, dtype=float)


def _complex_list(values, what: str) -> list[complex]:
    return _complex_array(values, what).tolist()


def _frame_in(group) -> np.ndarray:
    """(dim, rank) frame from a list of rank vectors of numbers or [re, im] pairs.

    Faults are named in the order a vector-by-vector parse meets them: a bad
    entry in a vector ahead of the first non-list vector comes first.
    """
    if not isinstance(group, list) or not group:
        raise InputError("each group is a nonempty list of vectors")
    is_list = list(map(isinstance, group, repeat(list)))
    vectors = group[: is_list.index(False)] if False in is_list else group
    entries = _complex_array(list(chain.from_iterable(vectors)), "frame vector")
    if len(vectors) < len(group):
        raise InputError("frame vector must be a list")
    if len(set(map(len, group))) > 1:
        raise InputError("the vectors of one group must have one length")
    return np.ascontiguousarray(entries.reshape(len(group), -1).T)


def run_sequence(cfg: RunConfig) -> dict:
    data, digest = _load_json_digest(cfg.input)
    points = _complex_list(data.get("points"), "points")
    rep = interpolation_constants(points, depth=cfg.depth)
    norms = [projection_norm_formula(points, p) for p in points]
    system = riesz.SubspaceSystem.from_kernel_groups([[p] for p in points])
    gram_norms = riesz.skew_projection_norms(system)
    condition = riesz.orthogonalizer_condition(system)
    worst = max(abs(a - b) / b for a, b in zip(gram_norms, norms))
    checks = [
        _check("delta-not-above-alpha", rep.delta <= rep.alpha + 1e-12,
               {"delta": rep.delta, "alpha": rep.alpha}),
        _check("projection-norms-match-gram", worst <= 1e-6, {"worst_rel": worst}),
        _check("carleson-norm-positive", rep.carleson_norm > 0.0),
    ]
    report = {
        "command": "sequence",
        "inputs": {"input_sha256": digest, "count": len(points)},
        "constants": {"depth": cfg.depth},
        "quantities": {
            "delta": rep.delta, "alpha": rep.alpha,
            "carleson_norm": rep.carleson_norm,
            "projection_norms": norms,
            "orthogonalizer_condition": condition,
        },
    }
    if cfg.svg:
        rendering.write_svg(cfg.svg, rendering.render_points(points))
    return _finish(report, checks)


def run_carleson(cfg: RunConfig) -> dict:
    data, digest = _load_json_digest(cfg.input)
    atoms_raw = data.get("atoms")
    if not isinstance(atoms_raw, list) or not atoms_raw:
        raise InputError("atoms must be a nonempty list of [[re, im], mass]")
    for entry in atoms_raw:
        if not (isinstance(entry, list) and len(entry) == 2):
            raise InputError("each atom is [[re, im], mass]")
        if type(entry[1]) not in _NUMBER_TYPES or entry[1] <= 0:
            raise InputError("atom masses must be positive numbers")
    positions = _complex_list([entry[0] for entry in atoms_raw], "atom position")
    atoms = [(z, float(entry[1])) for z, entry in zip(positions, atoms_raw)]
    measure = DiscreteMeasure(atoms)
    norm = carleson_norm(measure, depth=cfg.depth)
    kernel_const = kernel_test_constant(measure)
    embed_const = embedding_constant_empirical(measure, test_degree=64)
    values = [norm, kernel_const, embed_const]
    lo, hi = min(values), max(values)
    ratio = hi / lo if lo > 0 else math.inf
    checks = [
        _check("constants-within-factor-100", ratio <= 100.0, {"ratio": ratio}),
        _check("norm-positive", norm > 0.0),
    ]
    report = {
        "command": "carleson",
        "inputs": {"input_sha256": digest, "count": len(atoms)},
        "constants": {"depth": cfg.depth, "test_degree": 64},
        "quantities": {
            "carleson_norm": norm,
            "kernel_test_constant": kernel_const,
            "embedding_constant": embed_const,
        },
    }
    if cfg.svg:
        rendering.write_svg(cfg.svg, rendering.render_points([], measure_atoms=atoms))
    return _finish(report, checks)


def run_contour(cfg: RunConfig) -> dict:
    cfg.require_seed()
    if cfg.epsilon is None:
        raise InputError("--epsilon is required for contour runs")
    data = _load_json(cfg.input)
    zeros = _complex_list(data.get("zeros", []), "zeros")
    atoms_raw = data.get("singular_atoms", [])
    if not isinstance(atoms_raw, list):
        raise InputError("singular_atoms must be a list of [angle, mass]")
    atoms = []
    for entry in atoms_raw:
        if not (isinstance(entry, list) and len(entry) == 2
                and set(map(type, entry)) <= _NUMBER_TYPES):
            raise InputError("each singular atom is [angle, mass] with numbers")
        atoms.append((float(entry[0]), float(entry[1])))
    outer = data.get("outer_log")
    outer_arr = None if outer is None else _real_array(outer, "outer_log")
    phi = BoundedFunction(zeros=tuple(zeros), singular_atoms=tuple(atoms),
                          outer_log=outer_arr)
    constants = ContourConstants.for_epsilon(cfg.epsilon, c1=cfg.c1,
                                             c2=cfg.c2, c3=cfg.c3)
    checks = []
    report = {
        "command": "contour",
        "inputs": {"zeros": zeros, "singular_atoms": atoms,
                   "has_outer": outer_arr is not None},
        "constants": {
            "epsilon": cfg.epsilon, "c1": cfg.c1, "c2": cfg.c2, "c3": cfg.c3,
            "seed": cfg.seed, "depth": cfg.depth,
            "m_threshold": constants.m_threshold, "gamma": constants.gamma,
            "log_eps_prime": constants.log_eps_prime,
        },
        "quantities": {},
    }
    try:
        result = bourgain_contour(phi, cfg.epsilon, constants=constants)
    except ContourBoundError as exc:
        checks.append(_check("child-interval-ratio", False, str(exc)))
        return _finish(report, checks)
    verification = verify_region(phi, result, cfg.epsilon,
                                 rng=np.random.default_rng(cfg.seed),
                                 depth=cfg.depth)
    ratios = [g.length_ratio for g in result.generations]
    report["quantities"] = {
        "pieces": len(result.region.pieces),
        "polylines": len(result.polylines),
        "truncated": result.truncated,
        "generations": [
            {"generation": g.generation, "active_intervals": g.active_intervals,
             "bad_intervals": g.bad_intervals, "length_ratio": g.length_ratio}
            for g in result.generations],
        "contour_norm": verification["contour_norm"],
        "samples": verification["samples"],
    }
    checks.extend([
        _check("child-interval-ratio", all(r <= 0.01 + 1e-12 for r in ratios),
               {"ratios": ratios}),
        _check("sandwich-upper", verification["upper_violations"] == 0,
               {"violations": verification["upper_violations"],
                "max_log_abs_inside": verification["max_log_abs_inside"],
                "threshold": verification["upper_level"]}),
        _check("sandwich-lower", verification["lower_violations"] == 0,
               {"violations": verification["lower_violations"],
                "min_log_abs_outside": verification["min_log_abs_outside"],
                "threshold": verification["lower_level"]}),
        _check("contour-norm-at-most-10", verification["contour_norm"] <= 10.0,
               {"norm": verification["contour_norm"]}),
    ])
    if cfg.svg:
        rendering.write_svg(cfg.svg, rendering.render_contour(result, zeros))
    return _finish(report, checks)


def run_embedding(cfg: RunConfig) -> dict:
    data, digest = _load_json_digest(cfg.input)
    families = data.get("families")
    if not isinstance(families, list) or not families:
        raise InputError("families must be a nonempty list of zero lists")
    zero_lists = [_complex_list(f, "family zeros") for f in families]
    products = [BlaschkeProduct(zs) for zs in zero_lists]
    system = riesz.SubspaceSystem.from_kernel_groups(zero_lists)
    grid = hyperbolic_grid(min(cfg.depth, 8), 8)
    norm = riesz.embedding_norm(system)
    rep = condition_sums(b_family=products, lam_grid=grid)
    worst = rep["sum_10_2_sup"] - norm
    checks = [
        _check("sums-below-embedding-norm", worst <= 1e-8, {"worst_margin": worst}),
        _check("embedding-norm-at-least-1", norm >= 1.0 - 1e-12, {"norm": norm}),
    ]
    report = {
        "command": "embedding",
        "inputs": {"input_sha256": digest, "count": len(zero_lists)},
        "constants": {"grid_points": int(grid.shape[0])},
        "quantities": {
            "embedding_norm": norm,
            "sum_sup": rep["sum_10_2_sup"],
            "sum_argmax": rep["sum_10_2_argmax"],
            "delta_prime": rep["delta_prime"],
        },
    }
    return _finish(report, checks)


def run_system(cfg: RunConfig) -> dict:
    data = _load_json(cfg.input)
    groups = data.get("groups")
    if not isinstance(groups, list) or not groups:
        raise InputError("groups must be a nonempty list of frame matrices")
    frames = [_frame_in(g) for g in groups]
    system = riesz.SubspaceSystem(frames)
    try:
        condition = riesz.orthogonalizer_condition(system)
        minimality = riesz.uniform_minimality(system)
        # skew_n = 1/delta_n exactly, yet the singleton norms stay on the
        # Cholesky reduction of the pencil (G_n, G): at conditions near 9e5
        # the two routes differ by up to 4.2e-6 relative, so reading them
        # off the QR factor would move reports past the 1e-9 tolerance of
        # bench/refs; that switch belongs with a regeneration of the refs
        skew = riesz.skew_projection_norms(system)
        dual = riesz.dual_system(system)
        residual = 0.0
        stacked = system.stacked()
        slices = system.block_slices()
        dual_stacked = dual.stacked()
        for i, sl in enumerate(slices):
            mask = np.ones(stacked.shape[1], dtype=bool)
            mask[sl] = False
            residual = max(residual, float(np.max(np.abs(
                np.conj(dual_stacked[:, sl]).T @ stacked[:, mask]))))
    except riesz.LinearDependenceError as exc:
        return _finish({"command": "system",
                        "inputs": {"groups": len(groups)},
                        "constants": {}, "quantities": {}},
                       [_check("linearly-independent", False, str(exc))])
    norm = riesz.embedding_norm(system)
    checks = [
        _check("condition-at-least-1", condition >= 1.0 - 1e-12),
        _check("minimality-in-unit-interval", 0.0 < minimality <= 1.0 + 1e-12),
        _check("duals-biorthogonal", residual <= 1e-8, {"residual": residual}),
        _check("skew-norms-at-least-1", all(s >= 1.0 - 1e-9 for s in skew)),
    ]
    quantities = {
        "orthogonalizer_condition": condition,
        "uniform_minimality": minimality,
        "skew_projection_norms": skew,
        "embedding_norm": norm,
        "dual_residual": residual,
    }
    if cfg.delta is not None:
        subset = riesz.extract_critical_subset(system, cfg.delta)
        quantities["critical_subset"] = subset
        if subset is None:
            checks.append(_check("extraction-consistent", minimality >= cfg.delta))
        else:
            sub = system.subsystem(subset)
            below = riesz.uniform_minimality(sub) < cfg.delta
            minimal = all(
                riesz.uniform_minimality(
                    sub.subsystem([j for j in range(len(sub)) if j != i])) >= cfg.delta
                for i in range(len(sub))) if len(sub) > 1 else True
            checks.append(_check("extraction-consistent", below and minimal,
                                 {"below": below, "minimal": minimal}))
    report = {
        "command": "system",
        "inputs": {"groups": len(groups), "ranks": system.ranks},
        "constants": {"delta": cfg.delta},
        "quantities": quantities,
    }
    return _finish(report, checks)


def _parse_matrix_function(entry) -> MatrixFunction:
    if isinstance(entry, dict) and "coefficients" in entry:
        mats = []
        for mat in entry["coefficients"]:
            rows = [
                _complex_list(row, "matrix row") for row in mat]
            mats.append(np.asarray(rows, dtype=complex))
        return MatrixFunction.from_polynomial(mats)
    raise InputError("each matrix entry needs a 'coefficients' list")


def run_construct(cfg: RunConfig) -> dict:
    cfg.require_seed()
    if cfg.epsilon is None or cfg.alpha is None:
        raise InputError("--epsilon and --alpha are required for construct runs")
    data = _load_json(cfg.input)
    family = []
    if "families" in data:
        for zeros in data["families"]:
            family.append(MatrixFunction.from_scalar_blaschke(
                _complex_list(zeros, "family zeros")))
    elif "matrices" in data:
        family = [_parse_matrix_function(m) for m in data["matrices"]]
    else:
        raise InputError("input needs 'families' (zero lists) or 'matrices'")
    if not family:
        raise InputError("the family must be nonempty")
    checks = []
    report = {
        "command": "construct",
        "inputs": {"members": len(family),
                   "dims": sorted({t.rows for t in family})},
        "constants": {"epsilon": cfg.epsilon, "alpha": cfg.alpha,
                      "seed": cfg.seed, "cv": cfg.cv, "delta": cfg.delta},
        "quantities": {},
    }
    try:
        ps = build_contour_nets(family, cfg.epsilon, cfg.alpha)
        ps = epsilon_net_split(ps, cfg.epsilon,
                               rng=np.random.default_rng(cfg.seed))
    except (NetValidityError, ContourBoundError) as exc:
        checks.append(_check("point-system-valid", False, str(exc)))
        return _finish(report, checks)
    checks.append(_check("point-system-valid", True))
    margins = check_two_eps_margins(ps, cfg.epsilon)
    checks.append(_check("two-eps-margins", margins["passed"], margins))

    grid = hyperbolic_grid(min(cfg.depth, 8), 8)
    b_family = [e.blaschke for e in ps.entries]
    parts = [[e.part_products[k] for k in sorted(e.part_products)] for e in ps.entries]
    sums = condition_sums(b_family=b_family, theta_family=family,
                          lam_grid=grid, b_parts=parts)
    checks.append(_check("det-sum-dominates", sums["implication_ok"],
                         {"margin": sums["implication_margin"]}))
    checks.append(_check("split-domination", sums["split_pointwise_ok"]))
    consts = ContourConstants.for_epsilon(cfg.epsilon, c1=cfg.c1, c2=cfg.c2,
                                          c3=cfg.c3)
    lemma = lemma_10_1_check(family, b_family, cfg.epsilon,
                             consts.log_eps_prime, z_grid=grid, alpha=cfg.alpha)
    checks.append(_check("outer-comparison-chain", lemma["passed"], {
        "assembled_margin": lemma["assembled_margin"],
        "covering_max": lemma["covering_max"]}))
    c_alpha = measure_c_alpha(ps)
    report["quantities"] = {
        "sigma_sizes": [len(e.sigma) for e in ps.entries],
        "net_vectors": len(ps.net_vectors),
        "c_alpha": c_alpha,
        "condition_sums": {k: v for k, v in sums.items() if k != "split_part_sups"},
        "lemma_10_1": lemma,
        "n_power": lemma["n_power"],
    }
    if cfg.cv is not None and cfg.delta is not None:
        choice = validate_epsilon_choice(cfg.epsilon, c_alpha, cfg.cv, cfg.delta)
        report["quantities"]["epsilon_choice"] = choice
        checks.append(_check("epsilon-choice", choice["ok"], choice))
    if cfg.svg:
        pts = [z for e in ps.entries for z in e.sigma]
        rendering.write_svg(cfg.svg, rendering.render_points(pts))
    return _finish(report, checks)


def run_weight(cfg: RunConfig) -> dict:
    data = _load_json(cfg.input)
    tag = data.get("tag")
    samples = data.get("samples")
    if samples is not None:
        w = Weight.from_samples(_real_array(samples, "samples"), tag=tag)
    elif tag is not None:
        w = Weight.from_tag(tag)
    else:
        raise InputError("weight input needs 'samples' or a known 'tag'")
    classification = classify_weight(w)
    checks = [
        _check("levels-monotone", classification["monotone_ok"]),
        _check("a2-at-least-1",
               not classification["a2_finite"]
               or classification["a2_constant"] >= 1.0 - 1e-12,
               {"a2": classification["a2_constant"]}),
    ]
    p0 = None
    if classification["level"] >= 3:
        p0 = p0_norm_check(w, cfg.section)
        checks.append(_check("p0-between-bounds", p0["ok"],
                             {"lhs": p0["lhs"], "rhs": p0["rhs"]}))
    report = {
        "command": "weight",
        "inputs": {"tag": tag, "sample_count": None if samples is None else len(samples)},
        "constants": {"section": cfg.section},
        "quantities": {"classification": classification, "p0": p0},
    }
    return _finish(report, checks)


_RUNNERS = {
    "sequence": run_sequence,
    "carleson": run_carleson,
    "contour": run_contour,
    "embedding": run_embedding,
    "system": run_system,
    "construct": run_construct,
    "weight": run_weight,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="carleson-kit",
        description="Analyses of disk sequences, Carleson measures, contours, "
                    "subspace systems and weights; JSON reports, SVG figures.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
            ("sequence", "interpolation constants of a point sequence"),
            ("carleson", "Carleson constants of a discrete measure"),
            ("contour", "level contour of a bounded function, with verification"),
            ("embedding", "condition sums and embedding norm of Blaschke families"),
            ("system", "Riesz diagnostics of a subspace frame file"),
            ("construct", "contour-net point systems and their checks"),
            ("weight", "five-level classification of a boundary weight")):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", help="JSON file with flag values")
        p.add_argument("--input", help="input JSON document")
        p.add_argument("--epsilon", type=float)
        p.add_argument("--alpha", type=float)
        p.add_argument("--depth", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--delta", type=float)
        p.add_argument("--cv", type=float)
        p.add_argument("--c1", type=float)
        p.add_argument("--c2", type=float)
        p.add_argument("--c3", type=float)
        p.add_argument("--section", type=int)
        p.add_argument("--out", help="report path (stdout when omitted)")
        p.add_argument("--svg", help="figure path")
    return parser


def _config_from_args(args) -> RunConfig:
    """RunConfig from the flags, then the --config file, then the field defaults."""
    values = {f.name: getattr(args, f.name) for f in fields(RunConfig) if f.name != "command"}
    if args.config:
        try:
            with open(args.config) as fh:
                stored = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise InputError(f"cannot load config: {exc}") from exc
        if not isinstance(stored, dict):
            raise InputError("config must be a JSON object")
        for key, val in stored.items():
            if key not in values:
                raise InputError(f"unknown config key {key!r}")
            if values[key] is None:
                values[key] = val
    cfg = RunConfig(command=args.command, **{k: v for k, v in values.items() if v is not None})
    cfg.validate()
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        report = _RUNNERS[cfg.command](cfg)
    except (InputError, DomainError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    write_report(cfg.out, report)
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
