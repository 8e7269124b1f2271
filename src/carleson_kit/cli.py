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
import sys
from itertools import chain, compress, repeat

import numpy as np

from . import rendering, riesz
from .blaschke import BlaschkeProduct, interpolation_constants, projection_norm_formula
from .carleson import (DiscreteMeasure, carleson_norm, embedding_constant_empirical,
                       kernel_test_constant)
from .construction import (build_contour_nets, check_two_eps_margins, condition_sums,
                           epsilon_net_split, lemma_10_1_check, measure_c_alpha,
                           validate_epsilon_choice)
from .contour import (CONTOUR_NORM_BOUND, BoundedFunction, ContourBoundError,
                      ContourConstants, bourgain_contour, verify_region)
from .disk import hyperbolic_grid
from .errors import DomainError, NetValidityError
from .model_space import MatrixFunction
from .weights import Weight, classify_weight, p0_norm_check


class InputError(Exception):
    pass


def require_seed(args) -> None:
    if args.seed is None:
        raise InputError("this command runs randomized checks; --seed is mandatory")
    if args.seed < 0:
        raise InputError("--seed must be nonnegative")


def validate(args) -> None:
    """Refuse out-of-range flag values; a flag the command lacks is not in args."""
    flags = vars(args)
    for name, value in flags.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise InputError(f"--{name} must be finite")
    if flags.get("epsilon") is not None and not 0.0 < flags["epsilon"] < 1.0:
        raise InputError("--epsilon must lie in (0, 1)")
    if flags.get("alpha") is not None and not 0.0 < flags["alpha"] < 0.1:
        raise InputError("--alpha must lie in (0, 0.1)")
    if "depth" in flags and not 1 <= flags["depth"] <= 24:
        raise InputError("--depth must lie in 1..24")
    if "section" in flags and flags["section"] < 1:
        raise InputError("--section must be positive")
    for name in ("cv", "c1", "c2", "c3"):
        if flags.get(name) is not None and flags[name] <= 0:
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
    rendering.write_atomic(path, text)


def _check(name: str, passed: bool, detail=None) -> dict:
    entry = {"name": name, "passed": bool(passed)}
    if detail is not None:
        entry["detail"] = detail
    return entry


def _finish(report: dict, checks: list) -> dict:
    report["checks"] = checks
    report["passed"] = all(c["passed"] for c in checks)
    return report


def _refuse_constant(name: str):
    """json.loads hook for NaN, Infinity and -Infinity, which JSON does not have."""
    raise InputError(f"input is not valid JSON: {name} is not a JSON number")


def _load_input(path: str | None) -> tuple[dict, bytes]:
    """The input document, a JSON object, and the bytes it was parsed from."""
    if path is None:
        raise InputError("--input is required for this command")
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read input file: {exc}") from exc
    try:
        data = json.loads(raw, parse_constant=_refuse_constant)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InputError(f"input is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError("input must be a JSON object")
    return data, raw


def _load_json_digest(path: str | None) -> tuple[dict, str]:
    """The input document and the sha256 hex digest of its bytes.

    Reports whose input is one bulk list state the digest instead of
    echoing the list.
    """
    data, raw = _load_input(path)
    return data, hashlib.sha256(raw).hexdigest()


#: the JSON number types; bool is an int to Python but not a number here
_NUMBER_TYPES = frozenset((int, float))


def _float_array(values, what: str) -> np.ndarray:
    """Float array of JSON numbers, refused when one does not fit a double.

    A literal such as 1e400 parses to inf, and an integer literal past
    1.8e308 does not convert at all.
    """
    try:
        out = np.array(values, dtype=float)
    except OverflowError as exc:
        raise InputError(f"{what} must be finite") from exc
    if not np.isfinite(out).all():
        raise InputError(f"{what} must be finite")
    return out


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
    re_im = _float_array(parts, what).reshape(-1, 2)
    if numbers:
        mask = np.array(is_pair)
        mixed = np.zeros((len(values), 2))
        mixed[mask] = re_im
        mixed[~mask, 0] = _float_array(numbers, what)
        re_im = mixed
    return re_im.view(complex).reshape(-1)


def _real_array(values, what: str) -> np.ndarray:
    """Float array from a JSON list of numbers, checked by the set of their types."""
    if not isinstance(values, list) or not set(map(type, values)) <= _NUMBER_TYPES:
        raise InputError(f"{what} must be a list of numbers")
    return _float_array(values, what)


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


def run_sequence(args: argparse.Namespace) -> dict:
    data, digest = _load_json_digest(args.input)
    points = _complex_list(data.get("points"), "points")
    rep = interpolation_constants(points, depth=args.depth)
    norms = [projection_norm_formula(points, p) for p in points]
    system = riesz.SubspaceSystem.from_kernel_groups([[p] for p in points])
    factor = riesz.GramFactor(system)
    gram_norms = factor.singleton_skew_norms()
    condition = factor.condition()
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
        "constants": {"depth": args.depth},
        "quantities": {
            "delta": rep.delta, "alpha": rep.alpha,
            "carleson_norm": rep.carleson_norm,
            "projection_norms": norms,
            "orthogonalizer_condition": condition,
        },
    }
    if args.svg:
        rendering.write_atomic(args.svg, rendering.render_points(points))
    return _finish(report, checks)


def run_carleson(args: argparse.Namespace) -> dict:
    data, digest = _load_json_digest(args.input)
    atoms_raw = data.get("atoms")
    if not isinstance(atoms_raw, list) or not atoms_raw:
        raise InputError("atoms must be a nonempty list of [[re, im], mass]")
    for entry in atoms_raw:
        if not (isinstance(entry, list) and len(entry) == 2):
            raise InputError("each atom is [[re, im], mass]")
        if type(entry[1]) not in _NUMBER_TYPES or entry[1] <= 0:
            raise InputError("atom masses must be positive numbers")
    masses = _float_array([entry[1] for entry in atoms_raw], "atom masses").tolist()
    positions = _complex_list([entry[0] for entry in atoms_raw], "atom position")
    atoms = list(zip(positions, masses))
    measure = DiscreteMeasure(atoms)
    norm = carleson_norm(measure, depth=args.depth)
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
        "constants": {"depth": args.depth, "test_degree": 64},
        "quantities": {
            "carleson_norm": norm,
            "kernel_test_constant": kernel_const,
            "embedding_constant": embed_const,
        },
    }
    if args.svg:
        rendering.write_atomic(args.svg, rendering.render_points([], measure_atoms=atoms))
    return _finish(report, checks)


def run_contour(args: argparse.Namespace) -> dict:
    require_seed(args)
    if args.epsilon is None:
        raise InputError("--epsilon is required for contour runs")
    data, _ = _load_input(args.input)
    zeros = _complex_list(data.get("zeros", []), "zeros")
    atoms_raw = data.get("singular_atoms", [])
    if not isinstance(atoms_raw, list):
        raise InputError("singular_atoms must be a list of [angle, mass]")
    for entry in atoms_raw:
        if not (isinstance(entry, list) and len(entry) == 2
                and set(map(type, entry)) <= _NUMBER_TYPES):
            raise InputError("each singular atom is [angle, mass] with numbers")
    atoms = _float_array(atoms_raw, "singular atoms").tolist()
    outer = data.get("outer_log")
    outer_arr = None if outer is None else _real_array(outer, "outer_log")
    phi = BoundedFunction(zeros=tuple(zeros), singular_atoms=tuple(atoms),
                          outer_log=outer_arr)
    constants = ContourConstants.for_epsilon(args.epsilon, c1=args.c1,
                                             c2=args.c2, c3=args.c3)
    checks = []
    report = {
        "command": "contour",
        "inputs": {"zeros": zeros, "singular_atoms": atoms,
                   "has_outer": outer_arr is not None},
        "constants": {
            "epsilon": args.epsilon, "c1": args.c1, "c2": args.c2, "c3": args.c3,
            "seed": args.seed, "depth": args.depth,
            "m_threshold": constants.m_threshold, "gamma": constants.gamma,
            "log_eps_prime": constants.log_eps_prime,
        },
        "quantities": {},
    }
    try:
        result = bourgain_contour(phi, args.epsilon, constants=constants)
    except ContourBoundError as exc:
        checks.append(_check("child-interval-ratio", False, str(exc)))
        return _finish(report, checks)
    verification = verify_region(phi, result, args.epsilon,
                                 rng=np.random.default_rng(args.seed),
                                 depth=args.depth)
    norm = verification["contour_norm"]
    # one-generation constants, kept for the report's shape until bench/refs is regenerated
    report["quantities"] = {
        "pieces": 1 if result.region.disks else 0,
        "polylines": len(result.polylines),
        "truncated": False,
        "generations": [{"generation": 0, "active_intervals": 1,
                         "bad_intervals": 0, "length_ratio": 0.0}],
        "contour_norm": norm,
        "samples": verification["samples"],
    }
    checks.extend([
        _check("child-interval-ratio", True, {"ratios": [0.0]}),
        _check("sandwich-upper", verification["upper_violations"] == 0,
               {"violations": verification["upper_violations"],
                "max_log_abs_inside": verification["max_log_abs_inside"],
                "threshold": verification["upper_level"]}),
        _check("sandwich-lower", verification["lower_violations"] == 0,
               {"violations": verification["lower_violations"],
                "min_log_abs_outside": verification["min_log_abs_outside"],
                "threshold": verification["lower_level"]}),
        _check("contour-norm-at-most-10", norm <= CONTOUR_NORM_BOUND,
               {"norm": norm, "threshold": CONTOUR_NORM_BOUND,
                "slack": CONTOUR_NORM_BOUND - norm}),
    ])
    if args.svg:
        rendering.write_atomic(args.svg, rendering.render_contour(result, zeros))
    return _finish(report, checks)


def run_embedding(args: argparse.Namespace) -> dict:
    data, digest = _load_json_digest(args.input)
    families = data.get("families")
    if not isinstance(families, list) or not families:
        raise InputError("families must be a nonempty list of zero lists")
    zero_lists = [_complex_list(f, "family zeros") for f in families]
    products = [BlaschkeProduct(zs) for zs in zero_lists]
    system = riesz.SubspaceSystem.from_kernel_groups(zero_lists)
    grid = hyperbolic_grid(min(args.depth, 8), 8)
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


def run_system(args: argparse.Namespace) -> dict:
    data, _ = _load_input(args.input)
    groups = data.get("groups")
    if not isinstance(groups, list) or not groups:
        raise InputError("groups must be a nonempty list of frame matrices")
    frames = [_frame_in(g) for g in groups]
    system = riesz.SubspaceSystem(frames)
    try:
        factor = riesz.GramFactor(system)
    except riesz.LinearDependenceError as exc:
        return _finish({"command": "system",
                        "inputs": {"groups": len(groups)},
                        "constants": {}, "quantities": {}},
                       [_check("linearly-independent", False, str(exc))])
    condition = factor.condition()
    minimality = riesz.uniform_minimality(system)
    skew = factor.singleton_skew_norms()
    residual = factor.dual_residual()
    norm = factor.embedding_norm()
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
    if args.delta is not None:
        subset = riesz.extract_critical_subset(system, args.delta)
        quantities["critical_subset"] = subset
        if subset is None:
            checks.append(_check("extraction-consistent", minimality >= args.delta))
        else:
            sub = system.subsystem(subset)
            below = riesz.uniform_minimality(sub) < args.delta
            minimal = all(
                riesz.uniform_minimality(
                    sub.subsystem([j for j in range(len(sub)) if j != i])) >= args.delta
                for i in range(len(sub))) if len(sub) > 1 else True
            checks.append(_check("extraction-consistent", below and minimal,
                                 {"below": below, "minimal": minimal}))
    report = {
        "command": "system",
        "inputs": {"groups": len(groups), "ranks": system.ranks},
        "constants": {"delta": args.delta},
        "quantities": quantities,
    }
    return _finish(report, checks)


def _parse_matrix_function(entry) -> MatrixFunction:
    coefficients = entry.get("coefficients") if isinstance(entry, dict) else None
    if not isinstance(coefficients, list) or not all(map(isinstance, coefficients,
                                                         repeat(list))):
        raise InputError("each matrix entry needs a 'coefficients' list of matrices")
    mats = [[_complex_list(row, "matrix row") for row in mat] for mat in coefficients]
    try:
        stacked = np.array(mats, dtype=complex)
    except ValueError as exc:
        raise InputError("the coefficient matrices must be rectangular and of one "
                         "shape") from exc
    return MatrixFunction.from_polynomial(stacked)


def run_construct(args: argparse.Namespace) -> dict:
    require_seed(args)
    if args.epsilon is None or args.alpha is None:
        raise InputError("--epsilon and --alpha are required for construct runs")
    data, _ = _load_input(args.input)
    if "families" in data:
        if not isinstance(data["families"], list):
            raise InputError("families must be a list of zero lists")
        family = [MatrixFunction.from_scalar_blaschke(_complex_list(zeros, "family zeros"))
                  for zeros in data["families"]]
    elif "matrices" in data:
        if not isinstance(data["matrices"], list):
            raise InputError("matrices must be a list of {'coefficients': ...} entries")
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
        "constants": {"epsilon": args.epsilon, "alpha": args.alpha,
                      "seed": args.seed, "cv": args.cv, "delta": args.delta},
        "quantities": {},
    }
    try:
        ps = build_contour_nets(family, args.epsilon, args.alpha)
        ps = epsilon_net_split(ps, args.epsilon,
                               rng=np.random.default_rng(args.seed))
    except (NetValidityError, ContourBoundError) as exc:
        checks.append(_check("point-system-valid", False, str(exc)))
        return _finish(report, checks)
    checks.append(_check("point-system-valid", True))
    margins = check_two_eps_margins(ps, args.epsilon)
    checks.append(_check("two-eps-margins", margins["passed"], margins))

    grid = hyperbolic_grid(min(args.depth, 8), 8)
    b_family = [e.blaschke for e in ps.entries]
    parts = [[e.part_products[k] for k in sorted(e.part_products)] for e in ps.entries]
    sums = condition_sums(b_family=b_family, theta_family=family,
                          lam_grid=grid, b_parts=parts)
    checks.append(_check("det-sum-dominates", sums["implication_ok"],
                         {"margin": sums["implication_margin"]}))
    checks.append(_check("split-domination", sums["split_pointwise_ok"]))
    consts = ContourConstants.for_epsilon(args.epsilon, c1=args.c1, c2=args.c2,
                                          c3=args.c3)
    lemma = lemma_10_1_check(family, b_family, args.epsilon,
                             consts.log_eps_prime, z_grid=grid, alpha=args.alpha)
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
    if args.cv is not None and args.delta is not None:
        choice = validate_epsilon_choice(args.epsilon, c_alpha, args.cv, args.delta)
        report["quantities"]["epsilon_choice"] = choice
        checks.append(_check("epsilon-choice", choice["ok"], choice))
    if args.svg:
        pts = [z for e in ps.entries for z in e.sigma]
        rendering.write_atomic(args.svg, rendering.render_points(pts))
    return _finish(report, checks)


def run_weight(args: argparse.Namespace) -> dict:
    data, _ = _load_input(args.input)
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
        p0 = p0_norm_check(w, args.section)
        checks.append(_check("p0-between-bounds", p0["ok"],
                             {"lhs": p0["lhs"], "rhs": p0["rhs"]}))
    report = {
        "command": "weight",
        "inputs": {"tag": tag, "sample_count": None if samples is None else len(samples)},
        "constants": {"section": args.section},
        "quantities": {"classification": classification, "p0": p0},
    }
    return _finish(report, checks)


#: each subcommand: its runner, its help line, and the flags the runner
#: reads besides --input and --out
_COMMANDS = {
    "sequence": (run_sequence, "interpolation constants of a point sequence",
                 ("depth", "svg")),
    "carleson": (run_carleson, "Carleson constants of a discrete measure",
                 ("depth", "svg")),
    "contour": (run_contour, "level contour of a bounded function, with verification",
                ("epsilon", "seed", "depth", "c1", "c2", "c3", "svg")),
    "embedding": (run_embedding, "condition sums and embedding norm of Blaschke families",
                  ("depth",)),
    "system": (run_system, "Riesz diagnostics of a subspace frame file", ("delta",)),
    "construct": (run_construct, "contour-net point systems and their checks",
                  ("epsilon", "alpha", "seed", "depth", "cv", "delta", "c1", "c2", "c3",
                   "svg")),
    "weight": (run_weight, "five-level classification of a boundary weight", ("section",)),
}

#: the argparse settings of each flag in _COMMANDS
_FLAGS = {
    "epsilon": {"type": float},
    "alpha": {"type": float},
    "seed": {"type": int},
    "depth": {"type": int, "default": 12, "help": "dyadic depth (default %(default)s)"},
    "cv": {"type": float},
    "delta": {"type": float},
    "c1": {"type": float, "default": 8.0},
    "c2": {"type": float, "default": 8.0},
    "c3": {"type": float, "default": 8.0},
    "section": {"type": int, "default": 256, "help": "Toeplitz section size (default %(default)s)"},
    "svg": {"help": "figure path"},
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="carleson-kit",
        description="Analyses of disk sequences, Carleson measures, contours, "
                    "subspace systems and weights; JSON reports, SVG figures.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, helptext, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--input", help="input JSON document")
        p.add_argument("--out", help="report path (stdout when omitted)")
        for flag in flags:
            p.add_argument(f"--{flag}", **_FLAGS[flag])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        validate(args)
        report = _COMMANDS[args.command][0](args)
    except (InputError, DomainError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    write_report(args.out, report)
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
