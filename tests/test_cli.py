"""End-to-end runs of the command line front end via ``main(argv)``."""

import argparse
import cmath
import filecmp
import hashlib
import json
import math
import os
import subprocess
import sys
from itertools import chain
from pathlib import Path
from xml.etree import ElementTree

import jsonschema
import numpy as np
import pytest

from carleson_kit.cli import InputError, _complex_list, _frame_in, build_parser, main
from carleson_kit.contour import BoundedFunction, ContourConstants, select_bad_intervals
from carleson_kit.riesz import SubspaceSystem

REPO = Path(__file__).resolve().parents[1]
with open(REPO / "docs" / "schemas" / "report.schema.json") as _fh:
    REPORT_SCHEMA = json.load(_fh)


#: a placeholder that test_numbers_past_the_double_range_are_refused swaps
#: for a number literal no double holds
BIG = "number past the double range"


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_to_file(tmp_path, argv, name="report.json"):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    report = json.loads(out.read_text()) if out.exists() else None
    if report is not None:
        jsonschema.validate(instance=report, schema=REPORT_SCHEMA)
    return code, report


#: flags without which each subcommand refuses to run
REQUIRED_FLAGS = {
    "sequence": [], "carleson": [], "embedding": [], "system": [], "weight": [],
    "contour": ["--epsilon", "0.1", "--seed", "1"],
    "construct": ["--epsilon", "0.01", "--alpha", "0.05", "--seed", "1"],
}


def points_input(tmp_path):
    return write_json(tmp_path, "points.json",
                      {"points": [[0.0, 0.0], [0.5, 0.0], [0.0, -0.6]]})


class TestReports:
    def test_sequence(self, tmp_path):
        code, rep = run_to_file(tmp_path, [
            "sequence", "--input", points_input(tmp_path)])
        assert code == 0
        assert rep["passed"]
        q = rep["quantities"]
        assert 0.0 < q["delta"] <= q["alpha"] + 1e-12
        assert len(q["projection_norms"]) == 3
        assert rep["constants"]["depth"] == 12

    def test_carleson(self, tmp_path):
        inp = write_json(tmp_path, "atoms.json", {
            "atoms": [[[0.5, 0.0], 0.25], [[0.0, -0.9], 1.0], [[0.0, 0.0], 0.1]]})
        code, rep = run_to_file(tmp_path, ["carleson", "--input", inp])
        assert code == 0
        q = rep["quantities"]
        for key in ("carleson_norm", "kernel_test_constant", "embedding_constant"):
            assert q[key] > 0.0
        vals = sorted(q.values())
        assert vals[-1] / vals[0] <= 100.0

    def test_carleson_constants_drift_apart_for_a_boundary_atom(self, tmp_path):
        # a unit atom at 1: the kernel test peaks at the outermost grid layer,
        # (1 + r)/(1 - r) with r = 1 - 0.75 * 2**-10, while the depth-1 norm
        # is mass / |I| = 1/pi
        inp = write_json(tmp_path, "atom.json", {"atoms": [[[1.0, 0.0], 1.0]]})
        code, rep = run_to_file(tmp_path, ["carleson", "--input", inp, "--depth", "1"])
        assert code == 1
        failed = {c["name"]: c for c in rep["checks"] if not c["passed"]}
        assert set(failed) == {"constants-within-factor-100"}
        q = rep["quantities"]
        assert q["carleson_norm"] == pytest.approx(1.0 / math.pi, rel=1e-12)
        assert q["kernel_test_constant"] == pytest.approx(2729.67, abs=0.01)
        ratio = failed["constants-within-factor-100"]["detail"]["ratio"]
        assert ratio == pytest.approx(q["kernel_test_constant"] / q["carleson_norm"], rel=1e-12)
        assert ratio == pytest.approx(8575.5, abs=0.1)

    def test_contour(self, tmp_path):
        inp = write_json(tmp_path, "zeros.json",
                         {"zeros": [[0.0, 0.0], [0.3, 0.2]]})
        code, rep = run_to_file(tmp_path, [
            "contour", "--input", inp, "--epsilon", "0.1", "--seed", "3"])
        assert code == 0
        q = rep["quantities"]
        assert q["pieces"] >= 1
        assert q["polylines"] >= 1
        assert not q["truncated"]
        assert q["generations"][0]["generation"] == 0
        checks = {c["name"]: c for c in rep["checks"]}
        upper, lower = checks["sandwich-upper"], checks["sandwich-lower"]
        # the observed extremes stand next to the levels and agree with the outcome
        assert upper["detail"]["threshold"] == pytest.approx(math.log(0.1) + 1e-9, abs=1e-15)
        assert lower["detail"]["threshold"] == rep["constants"]["log_eps_prime"]
        assert upper["passed"] == (upper["detail"]["max_log_abs_inside"]
                                   <= upper["detail"]["threshold"])
        assert lower["passed"] == (lower["detail"]["min_log_abs_outside"]
                                   >= lower["detail"]["threshold"])
        assert upper["passed"] and lower["passed"]
        bound = checks["contour-norm-at-most-10"]
        assert bound["detail"] == {"norm": q["contour_norm"], "threshold": 10.0,
                                   "slack": 10.0 - q["contour_norm"]}
        assert bound["passed"] and bound["detail"]["slack"] >= 0.0

    def test_contour_lower_sandwich_fails_with_a_shallow_inner_level(self, tmp_path):
        # c2 = 1e-4 lifts log eps' to about -1.9, above log|phi| at most samples
        inp = write_json(tmp_path, "zeros.json",
                         {"zeros": [[0.0, 0.0], [0.3, 0.2]]})
        code, rep = run_to_file(tmp_path, [
            "contour", "--input", inp, "--epsilon", "0.1", "--seed", "3", "--c2", "1e-4"])
        assert code == 1
        failed = {c["name"]: c for c in rep["checks"] if not c["passed"]}
        assert set(failed) == {"sandwich-lower"}
        detail = failed["sandwich-lower"]["detail"]
        assert detail["violations"] > 0
        assert detail["min_log_abs_outside"] < detail["threshold"]

    def test_contour_interval_ratio_fails_for_a_persistent_atom(self, tmp_path):
        # c1 = 0.1 / log 10 makes M = 10 at eps = 0.1; the atom of mass 0.004
        # makes one heavy square of depth 12, which ends the construction
        inp = write_json(tmp_path, "atom.json",
                         {"zeros": [[0.0, 0.0]], "singular_atoms": [[1.0, 0.004]]})
        code, rep = run_to_file(tmp_path, [
            "contour", "--input", inp, "--epsilon", "0.1", "--seed", "3",
            "--c1", repr(0.1 / math.log(10.0))])
        assert code == 1
        assert rep["constants"]["m_threshold"] == pytest.approx(10.0, rel=1e-12)
        failed = {c["name"]: c for c in rep["checks"] if not c["passed"]}
        assert set(failed) == {"child-interval-ratio"}
        assert failed["child-interval-ratio"]["detail"] == (
            "1 heavy dyadic square(s) nu(Q(J)) > M|J|; the heaviest, at depth 12, "
            "has nu(Q(J)) = 0.004 against M|J| = 0.00244141")

    @pytest.mark.parametrize("payload", [
        # 30 zeros at radius 1 - 2^-10 within 0.002 of the angle 1.0
        {"zeros": [[(1.0 - 2.0**-10) * math.cos(t), (1.0 - 2.0**-10) * math.sin(t)]
                   for t in np.linspace(0.998, 1.002, 30)]},
        # |phi*| = e^-30 on 4 of 4096 boundary cells, 1 elsewhere
        {"zeros": [[0.3, 0.2]],
         "outer_log": [-30.0 if 1000 <= k < 1004 else 0.0 for k in range(4096)]},
    ], ids=["zero-cluster", "outer-dip"])
    def test_contour_fails_for_a_heavy_square_on_a_short_arc(self, tmp_path, payload):
        # M = 10: the witnesses have depth 9, so their dilations cover
        # 5 * 2^-9 < 0.01 of the circle, yet the construction ends
        c1 = 0.1 / math.log(10.0)
        phi = BoundedFunction(zeros=[complex(*z) for z in payload["zeros"]],
                              outer_log=payload.get("outer_log"))
        m_threshold = ContourConstants.for_epsilon(0.1, c1=c1).m_threshold
        witnesses = select_bad_intervals(phi.representing_measure(), m_threshold)
        assert [w.normalized_length for w in witnesses] == [2.0**-9]
        assert 5 * sum(w.normalized_length for w in witnesses) <= 0.01
        inp = write_json(tmp_path, "heavy.json", payload)
        code, rep = run_to_file(tmp_path, [
            "contour", "--input", inp, "--epsilon", "0.1", "--seed", "3", "--c1", repr(c1)])
        assert code == 1
        failed = {c["name"]: c for c in rep["checks"] if not c["passed"]}
        assert set(failed) == {"child-interval-ratio"}
        assert "at depth 9," in failed["child-interval-ratio"]["detail"]
        assert rep["quantities"] == {}

    def test_system_independence_fails_for_a_repeated_frame(self, tmp_path):
        # the first two one-dimensional frames span the same line of C^2
        inp = write_json(tmp_path, "repeat.json",
                         {"groups": [[[1.0, 0.0]], [[1.0, 0.0]], [[0.0, 1.0]]]})
        code, rep = run_to_file(tmp_path, ["system", "--input", inp])
        assert code == 1
        assert [c["name"] for c in rep["checks"]] == ["linearly-independent"]
        assert not rep["checks"][0]["passed"]
        assert rep["quantities"] == {}

    def test_embedding(self, tmp_path):
        inp = write_json(tmp_path, "fams.json",
                         {"families": [[[0.5, 0.0]], [[-0.3, 0.2]]]})
        code, rep = run_to_file(tmp_path, ["embedding", "--input", inp])
        assert code == 0
        assert rep["quantities"]["embedding_norm"] >= 1.0
        assert rep["quantities"]["sum_sup"] > 0.0

    def test_system_with_extraction(self, tmp_path):
        # two orthonormal one-dimensional frames in C^2
        inp = write_json(tmp_path, "groups.json", {
            "groups": [[[[1.0, 0.0], [0.0, 0.0]]], [[[0.0, 0.0], [1.0, 0.0]]]]})
        code, rep = run_to_file(tmp_path, [
            "system", "--input", inp, "--delta", "0.5"])
        assert code == 0
        q = rep["quantities"]
        assert q["orthogonalizer_condition"] == pytest.approx(1.0, abs=1e-12)
        assert q["uniform_minimality"] == pytest.approx(1.0, abs=1e-12)
        assert q["critical_subset"] is None

    def test_construct(self, tmp_path):
        inp = write_json(tmp_path, "family.json", {
            "families": [[[0.5, 0.0], [0.55, 0.05]], [[-0.5, 0.0], [-0.45, -0.05]]]})
        code, rep = run_to_file(tmp_path, [
            "construct", "--input", inp, "--epsilon", "0.1",
            "--alpha", "0.05", "--seed", "7"])
        assert code == 0
        q = rep["quantities"]
        assert q["c_alpha"] >= 1.0
        assert q["n_power"] >= 1
        assert q["lemma_10_1"]["passed"]
        assert all(s >= 1 for s in q["sigma_sizes"])

    def test_weight_tag(self, tmp_path):
        inp = write_json(tmp_path, "weight.json", {"tag": "two_plus_cos"})
        code, rep = run_to_file(tmp_path, ["weight", "--input", inp])
        assert code == 0
        cls = rep["quantities"]["classification"]
        assert cls["level"] == 5
        p0 = rep["quantities"]["p0"]
        assert p0["lhs"] == pytest.approx(2.0 / math.sqrt(3.0), abs=1e-4)

    def test_weight_with_one_zero_sample_has_no_finite_a2(self, tmp_path):
        # 1/w is infinite on every dyadic arc holding the zero sample: the
        # product there is inf, not the largest double
        inp = write_json(tmp_path, "weight.json", {"samples": [0.0] + [1.0] * 16383})
        code, rep = run_to_file(tmp_path, ["weight", "--input", inp])
        assert code == 0
        cls = rep["quantities"]["classification"]
        assert (cls["level"], cls["a2_finite"], cls["a2_constant"]) == (2, False, None)
        assert rep["checks"][1] == {"name": "a2-at-least-1", "passed": True,
                                    "detail": {"a2": None}}

    def test_weight_samples(self, tmp_path):
        t = np.arange(8192) * (2.0 * math.pi / 8192)
        inp = write_json(tmp_path, "wsamples.json", {
            "tag": "two_plus_cos", "samples": (2.0 + np.cos(t)).tolist()})
        code, rep = run_to_file(tmp_path, ["weight", "--input", inp])
        assert code == 0
        assert rep["inputs"]["sample_count"] == 8192
        assert rep["quantities"]["classification"]["level"] == 5


    @pytest.mark.parametrize("command, payload", [
        ("sequence", {"points": [[0.0, 0.0], [0.5, 0.0], [0.0, -0.6]]}),
        ("carleson", {"atoms": [[[0.5, 0.0], 0.25], [[0.0, -0.9], 1.0]]}),
        ("embedding", {"families": [[[0.5, 0.0]], [[-0.3, 0.2], [0.1, 0.1]]]}),
    ])
    def test_inputs_named_by_digest_not_echoed(self, tmp_path, command, payload):
        inp = write_json(tmp_path, "input.json", payload)
        code, rep = run_to_file(tmp_path, [command, "--input", inp])
        assert code == 0
        (bulk,) = payload.values()
        assert rep["inputs"] == {
            "input_sha256": hashlib.sha256(Path(inp).read_bytes()).hexdigest(),
            "count": len(bulk)}


class TestDeterminism:
    def test_reports_byte_identical(self, tmp_path):
        inp = points_input(tmp_path)
        for name in ("a.json", "b.json"):
            code, _ = run_to_file(tmp_path, ["sequence", "--input", inp], name)
            assert code == 0
        assert filecmp.cmp(tmp_path / "a.json", tmp_path / "b.json", shallow=False)

    def test_one_parser_serves_successive_reports(self, tmp_path):
        # the parser is built once per process; flags given to one report
        # (--delta, --depth) must not leak into the next
        assert build_parser() is build_parser()
        groups = write_json(tmp_path, "groups.json", {
            "groups": [[[[1.0, 0.0], [0.0, 0.0]]], [[[0.6, 0.0], [0.8, 0.0]]]]})
        assert run_to_file(tmp_path, ["system", "--input", groups], "a.json")[0] == 0
        code, rep = run_to_file(tmp_path, [
            "system", "--input", groups, "--delta", "0.9"], "b.json")
        assert code in (0, 1)
        assert rep["constants"]["delta"] == 0.9
        code, rep = run_to_file(tmp_path, [
            "sequence", "--input", points_input(tmp_path), "--depth", "7"], "d.json")
        assert code == 0
        assert rep["constants"]["depth"] == 7
        code, rep = run_to_file(tmp_path, ["system", "--input", groups], "c.json")
        assert code == 0
        assert rep["constants"]["delta"] is None
        assert filecmp.cmp(tmp_path / "a.json", tmp_path / "c.json", shallow=False)

    def test_seeded_contour_repeats(self, tmp_path):
        inp = write_json(tmp_path, "zeros.json", {"zeros": [[0.0, 0.0]]})
        argv = ["contour", "--input", inp, "--epsilon", "0.1", "--seed", "11"]
        for name in ("a.json", "b.json"):
            run_to_file(tmp_path, argv, name)
        assert filecmp.cmp(tmp_path / "a.json", tmp_path / "b.json", shallow=False)

    def test_stdout_matches_file(self, tmp_path, capsys):
        inp = points_input(tmp_path)
        code, _ = run_to_file(tmp_path, ["sequence", "--input", inp], "out.json")
        assert code == 0
        capsys.readouterr()
        assert main(["sequence", "--input", inp]) == 0
        captured = capsys.readouterr().out
        assert captured == (tmp_path / "out.json").read_text()


class TestExitCodes:
    def test_point_outside_disk(self, tmp_path, capsys):
        inp = write_json(tmp_path, "bad.json", {"points": [[2.0, 0.0]]})
        assert main(["sequence", "--input", inp]) == 2
        assert "input error" in capsys.readouterr().err

    @pytest.mark.parametrize("command, payload, flags, message", [
        ("sequence", {"points": [[2.0, 0.0]]}, [],
         "sequence point must lie strictly inside the unit disk, got |z| = 2"),
        ("carleson", {"atoms": [[[2.0, 0.0], 0.5]]}, [],
         "atom outside the closed disk: |z| = 2"),
        ("contour", {"zeros": [[2.0, 0.0]]}, ["--epsilon", "0.1", "--seed", "1"],
         "zero must lie strictly inside the unit disk, got |z| = 2"),
        ("embedding", {"families": [[[2.0, 0.0]]]}, [],
         "Blaschke zero must lie strictly inside the unit disk, got |z| = 2"),
        ("system", {"groups": [[[[1.0, 0.0], [1.0, 0.0]]]]}, [],
         "frame columns must be orthonormal"),
        ("construct", {"matrices": [{"coefficients": [[[[2.0, 0.0]]]]}]},
         ["--epsilon", "0.01", "--alpha", "0.05", "--seed", "1"],
         "family members must be contractive in the disk"),
        ("weight", {"samples": [-1.0] * 16}, [],
         "weight samples must be finite and nonnegative"),
    ])
    def test_library_domain_error_exits_2(self, tmp_path, capsys, command, payload,
                                          flags, message):
        inp = write_json(tmp_path, "refused.json", payload)
        assert main([command, "--input", inp] + flags) == 2
        assert capsys.readouterr().err == f"input error: {message}\n"

    def test_seed_is_mandatory_for_randomized_commands(self, tmp_path, capsys):
        zeros = write_json(tmp_path, "z.json", {"zeros": [[0.0, 0.0]]})
        assert main(["contour", "--input", zeros, "--epsilon", "0.1"]) == 2
        fam = write_json(tmp_path, "f.json", {"families": [[[0.5, 0.0]]]})
        assert main(["construct", "--input", fam, "--epsilon", "0.01",
                     "--alpha", "0.05"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["contour", "construct"])
    def test_negative_seed_is_refused(self, tmp_path, capsys, command):
        # numpy's generator refuses it with a ValueError, which was a traceback
        inp = write_json(tmp_path, "input.json", {"zeros": [], "families": [[[0.5, 0.0]]]})
        argv = [command, "--input", inp] + REQUIRED_FLAGS[command] + ["--seed=-1"]
        assert run_to_file(tmp_path, argv) == (2, None)
        assert capsys.readouterr().err == "input error: --seed must be nonnegative\n"

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["sequence", "--input", str(path)]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["sequence", "contour"])
    def test_input_that_is_not_utf8(self, tmp_path, capsys, command):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"points": "\xff"}')
        assert main([command, "--input", str(path)] + REQUIRED_FLAGS[command]) == 2
        assert "input is not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(REQUIRED_FLAGS))
    @pytest.mark.parametrize("document", ["[1, 2]", '"x"'])
    def test_input_that_is_not_an_object(self, tmp_path, capsys, command, document):
        path = tmp_path / "top.json"
        path.write_text(document)
        argv = [command, "--input", str(path)] + REQUIRED_FLAGS[command]
        assert run_to_file(tmp_path, argv) == (2, None)
        assert capsys.readouterr().err == "input error: input must be a JSON object\n"

    @pytest.mark.parametrize("command, payload, literal", [
        ("sequence", {"points": [[math.nan, 0.0], [0.5, 0.0]]}, "NaN"),
        ("carleson", {"atoms": [[[0.5, 0.0], math.nan]]}, "NaN"),
        ("contour", {"zeros": [], "outer_log": [math.nan] + [-0.1] * 63}, "NaN"),
        ("embedding", {"families": [[[0.5, 0.0]], [[-math.inf, 0.0]]]}, "-Infinity"),
        ("system", {"groups": [[[math.nan, 0.0]]]}, "NaN"),
        ("construct", {"families": [[[0.5, math.inf]]]}, "Infinity"),
        ("weight", {"samples": [1.0] * 15 + [math.nan]}, "NaN"),
    ])
    def test_non_json_number_literals_are_refused(self, tmp_path, capsys, command,
                                                  payload, literal):
        # json.dumps writes NaN, Infinity and -Infinity, which JSON lacks
        inp = write_json(tmp_path, "nan.json", payload)
        argv = [command, "--input", inp] + REQUIRED_FLAGS[command]
        assert run_to_file(tmp_path, argv) == (2, None)
        assert capsys.readouterr().err == (
            f"input error: input is not valid JSON: {literal} is not a JSON number\n")

    @pytest.mark.parametrize("command, payload, literal, message", [
        ("sequence", {"points": [[0.5, 0.0], [BIG, 0.0]]}, "1e400", "points"),
        ("sequence", {"points": [0.5, BIG]}, "-10**400", "points"),
        ("carleson", {"atoms": [[[BIG, 0.0], 1.0]]}, "1e400", "atom position"),
        ("carleson", {"atoms": [[[0.5, 0.0], BIG]]}, "1e400", "atom masses"),
        ("carleson", {"atoms": [[[0.5, 0.0], BIG]]}, "1" + "0" * 400, "atom masses"),
        ("contour", {"zeros": [[0.5, BIG]]}, "1e400", "zeros"),
        ("contour", {"singular_atoms": [[BIG, 0.1]]}, "1e400", "singular atoms"),
        ("contour", {"singular_atoms": [[0.0, BIG]]}, "1e400", "singular atoms"),
        ("contour", {"outer_log": [BIG] + [-0.1] * 63}, "-1e400", "outer_log"),
        ("embedding", {"families": [[[0.5, 0.0]], [[BIG, 0.0]]]}, "1e400", "family zeros"),
        ("system", {"groups": [[[BIG, 0.0]]]}, "1e400", "frame vector"),
        ("construct", {"families": [[[0.5, BIG]]]}, "1e400", "family zeros"),
        ("construct", {"matrices": [{"coefficients": [[[[BIG, 0.0]]]]}]}, "1e400",
         "matrix row"),
        ("weight", {"samples": [1.0] * 15 + [BIG]}, "1e400", "samples"),
    ])
    def test_numbers_past_the_double_range_are_refused(self, tmp_path, capsys, command,
                                                       payload, literal, message):
        # 1e400 parses to inf, and an integer literal that long converts to no
        # float: a LinAlgError, a report of nulls or a contour of -inf followed
        path = tmp_path / "huge.json"
        literal = literal.replace("10**400", str(10 ** 400))
        path.write_text(json.dumps(payload).replace(json.dumps(BIG), literal))
        argv = [command, "--input", str(path)] + REQUIRED_FLAGS[command]
        assert run_to_file(tmp_path, argv) == (2, None)
        assert capsys.readouterr().err == f"input error: {message} must be finite\n"

    @pytest.mark.parametrize("payload, message", [
        ({"matrices": 5}, "matrices must be a list of {'coefficients': ...} entries"),
        ({"families": 5}, "families must be a list of zero lists"),
        ({"matrices": [{"coefficients": 5}]},
         "each matrix entry needs a 'coefficients' list of matrices"),
        ({"matrices": [{"coefficients": [5]}]},
         "each matrix entry needs a 'coefficients' list of matrices"),
        ({"matrices": [{"coefficients": [[[0.5], [0.1, 0.0]]]}]},
         "the coefficient matrices must be rectangular and of one shape"),
        ({"matrices": [{"coefficients": [[[0.5]], [[0.1, 0.0]]]}]},
         "the coefficient matrices must be rectangular and of one shape"),
    ])
    def test_construct_refuses_malformed_shapes(self, tmp_path, capsys, payload, message):
        inp = write_json(tmp_path, "shapes.json", payload)
        argv = ["construct", "--input", inp] + REQUIRED_FLAGS["construct"]
        assert run_to_file(tmp_path, argv) == (2, None)
        assert capsys.readouterr().err == f"input error: {message}\n"

    def test_missing_input(self, capsys):
        assert main(["sequence"]) == 2
        capsys.readouterr()

    def test_flag_ranges(self, tmp_path, capsys):
        inp = points_input(tmp_path)
        assert main(["sequence", "--input", inp, "--depth", "0"]) == 2
        zeros = write_json(tmp_path, "z.json", {"zeros": []})
        assert main(["contour", "--input", zeros, "--epsilon", "1.5",
                     "--seed", "1"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("command, flag, value", [
        ("contour", "--c1", "nan"), ("contour", "--c3", "inf"),
        ("contour", "--epsilon", "nan"), ("system", "--delta", "nan"),
        ("system", "--delta", "inf"), ("construct", "--cv", "-inf")])
    def test_non_finite_flag_values_are_refused(self, tmp_path, capsys, command, flag,
                                                value):
        # a NaN --c1 ran to a passing report, an infinite one to a traceback
        inp = write_json(tmp_path, "input.json", {})
        argv = [command, "--input", inp] + REQUIRED_FLAGS[command] + [f"{flag}={value}"]
        assert run_to_file(tmp_path, argv) == (2, None)
        assert capsys.readouterr().err == f"input error: {flag} must be finite\n"

    def test_nonpositive_cv_is_refused(self, tmp_path, capsys):
        # a negative CV(delta/2) made the epsilon-choice check pass for any epsilon
        inp = write_json(tmp_path, "input.json", {})
        argv = (["construct", "--input", inp] + REQUIRED_FLAGS["construct"]
                + ["--cv=-5", "--delta", "0.4"])
        assert run_to_file(tmp_path, argv) == (2, None)
        assert capsys.readouterr().err == "input error: --cv must be positive\n"

    def test_weight_needs_tag_or_samples(self, tmp_path, capsys):
        inp = write_json(tmp_path, "empty.json", {})
        assert main(["weight", "--input", inp]) == 2
        capsys.readouterr()

    def test_singular_weight_section_exits_2(self, tmp_path, capsys):
        # 1/w integrates, so the report reaches the p0 check, but every
        # Fourier coefficient of one unit sample among 1e-200s is 1/8192:
        # the Toeplitz section has rank one
        inp = write_json(tmp_path, "weight.json", {"samples": [1.0] + [1e-200] * 8191})
        assert run_to_file(tmp_path, ["weight", "--input", inp]) == (2, None)
        assert capsys.readouterr().err == (
            "input error: the Toeplitz section is singular at working precision\n")

    def test_failed_check_exits_1(self, tmp_path):
        # epsilon far too large for this coverage and separation target
        inp = write_json(tmp_path, "family.json", {
            "families": [[[0.5, 0.0], [0.55, 0.05]], [[-0.5, 0.0], [-0.45, -0.05]]]})
        code, rep = run_to_file(tmp_path, [
            "construct", "--input", inp, "--epsilon", "0.1", "--alpha", "0.05",
            "--seed", "7", "--cv", "5.0", "--delta", "0.4"])
        assert code == 1
        assert not rep["passed"]
        failed = {c["name"] for c in rep["checks"] if not c["passed"]}
        assert failed == {"epsilon-choice"}


    def test_boolean_point_is_refused(self, tmp_path, capsys):
        # JSON false is a Python int; it must not read as the origin
        inp = write_json(tmp_path, "bool.json",
                         {"points": [[False, False], [0.5, 0.0], [0.0, 0.4]]})
        assert main(["sequence", "--input", inp]) == 2
        assert "points must be a number or an [re, im] pair" in capsys.readouterr().err

    def test_boolean_frame_entry_is_refused(self, tmp_path, capsys):
        inp = write_json(tmp_path, "bool.json", {
            "groups": [[[[1.0, 0.0], True]], [[[0.6, 0.0], [0.8, 0.0]]]]})
        assert main(["system", "--input", inp]) == 2
        assert "frame vector must be a number or an [re, im] pair" in capsys.readouterr().err

    def test_boolean_atom_mass_is_refused(self, tmp_path, capsys):
        inp = write_json(tmp_path, "bool.json", {"atoms": [[[0.5, 0.0], True]]})
        assert main(["carleson", "--input", inp]) == 2
        assert "atom masses must be positive numbers" in capsys.readouterr().err


OUTER_LOG = [-0.1] * 64
SAMPLES = [1.0, 2.0, 3.0, 2.0] * 2048


class TestNumberInputs:
    """Contour and weight numbers are JSON numbers: no strings, booleans or lists."""

    def contour(self, tmp_path, payload):
        inp = write_json(tmp_path, "contour.json", {"zeros": [[0.0, 0.0]], **payload})
        return run_to_file(tmp_path, ["contour", "--input", inp, "--epsilon", "0.1",
                                      "--seed", "3"])

    @pytest.mark.parametrize("payload", [
        {"singular_atoms": [["1.0", 0.01]]},
        {"singular_atoms": [[1.0, True]]},
        {"singular_atoms": [[[1.0], 0.01]]},
        {"singular_atoms": [[1.0, None]]},
        {"singular_atoms": 0.01},
        {"outer_log": ["-0.1"] + OUTER_LOG[1:]},
        {"outer_log": [False] + OUTER_LOG[1:]},
        {"outer_log": [[-0.1]] + OUTER_LOG[1:]},
        {"outer_log": -0.1},
    ])
    def test_contour_refuses_non_numbers(self, tmp_path, capsys, payload):
        assert self.contour(tmp_path, payload) == (2, None)
        assert "input error" in capsys.readouterr().err

    @pytest.mark.parametrize("ints, floats", [
        ({"singular_atoms": [[3, 0.01]]}, {"singular_atoms": [[3.0, 0.01]]}),
        ({"outer_log": [0, -1] * 32}, {"outer_log": [0.0, -1.0] * 32}),
    ])
    def test_contour_reads_ints_as_their_floats(self, tmp_path, ints, floats):
        code, rep = self.contour(tmp_path, ints)
        assert code in (0, 1)
        assert (code, rep) == self.contour(tmp_path, floats)

    @pytest.mark.parametrize("samples", [
        ["2.0"] + SAMPLES[1:],
        [True] + SAMPLES[1:],
        [[2.0]] + SAMPLES[1:],
        2.0,
    ])
    def test_weight_refuses_non_numbers(self, tmp_path, capsys, samples):
        inp = write_json(tmp_path, "weight.json", {"samples": samples})
        assert run_to_file(tmp_path, ["weight", "--input", inp]) == (2, None)
        assert "samples must be a list of numbers" in capsys.readouterr().err

    def test_weight_reads_ints_as_their_floats(self, tmp_path):
        ints = write_json(tmp_path, "ints.json", {"samples": [int(v) for v in SAMPLES]})
        floats = write_json(tmp_path, "floats.json", {"samples": SAMPLES})
        code, rep = run_to_file(tmp_path, ["weight", "--input", ints])
        assert code in (0, 1)
        assert rep["inputs"]["sample_count"] == len(SAMPLES)
        assert (code, rep) == run_to_file(tmp_path, ["weight", "--input", floats])


def complex_in_oracle(value, what):
    """Test oracle: the per-entry parse of one number or [re, im] pair.

    An int past the range of a double reads as inf, as a float literal
    past it does; :func:`finite_oracle` then refuses both.
    """
    def number(v):
        return isinstance(v, (int, float)) and not isinstance(v, bool)

    def real(v):
        try:
            return float(v)
        except OverflowError:
            return math.inf if v > 0 else -math.inf
    if number(value):
        return complex(real(value))
    if isinstance(value, list) and len(value) == 2 and all(map(number, value)):
        return complex(real(value[0]), real(value[1]))
    raise InputError(f"{what} must be a number or an [re, im] pair")


def finite_oracle(entries, what):
    """Test oracle: refuse parsed entries with an infinite part."""
    if not all(map(cmath.isfinite, entries)):
        raise InputError(f"{what} must be finite")


def frame_oracle(group):
    """Test oracle: a group parsed vector by vector and entry by entry."""
    if not isinstance(group, list) or not group:
        raise InputError("each group is a nonempty list of vectors")
    cols = []
    for v in group:
        if not isinstance(v, list):
            finite_oracle(chain.from_iterable(cols), "frame vector")
            raise InputError("frame vector must be a list")
        cols.append(np.array([complex_in_oracle(x, "frame vector") for x in v], dtype=complex))
    finite_oracle(chain.from_iterable(cols), "frame vector")
    if len({c.size for c in cols}) > 1:
        raise InputError("the vectors of one group must have one length")
    return np.stack(cols, axis=1)


def outcome(parse, value):
    try:
        return "ok", np.asarray(parse(value), dtype=complex)
    except InputError as exc:
        return "error", str(exc)


ENTRY_TABLE = [
    [], [0], [3, -2.5, 1e300, 2 ** 70], [[0.5, 0], [0, -0.4]], [-0.0, [-0.0, -0.0]],
    [1, [0.5, 0.25], 2.0], [[0.5, 0.25], 1, [1, 2]],
    ["1"], [["1", 0]], [1, "x"],
    [None], [[None, 0.0]], [0.5, None],
    [True], [False, 0.5], [[False, False]], [[0.5, True]], [1, [0, 1], False],
    [[0.5]], [[]], [[0.5, 0.0, 0.0]], [[0.5, 0.0], [1, 2, 3]],
    [[[0.5, 0.0], 0.0]], [[[0.5]]], [[0.5, [0.0]]], [{"re": 1.0}], [[0.5, {}]],
    [10 ** 400], [[0.0, 10 ** 400]],
]


class TestEntryParser:
    @pytest.mark.parametrize("values", ENTRY_TABLE + [0.5, "abc", None, {"a": 1}, True])
    def test_list_matches_per_entry_parse(self, values):
        def oracle(vals):
            if not isinstance(vals, list):
                raise InputError("w must be a list")
            entries = [complex_in_oracle(v, "w") for v in vals]
            finite_oracle(entries, "w")
            return entries
        got, want = outcome(lambda v: _complex_list(v, "w"), values), outcome(oracle, values)
        assert got[0] == want[0]
        if got[0] == "ok":
            # bit for bit, signed zeros included
            assert got[1].tobytes() == want[1].tobytes()
        else:
            assert got[1] == want[1]

    @pytest.mark.parametrize("group", [[v] for v in ENTRY_TABLE if v] + [
        [], None, [[0.5, 1.0], [2.0, 3.0]], [[0.5, "x"], 3.0], [3.0, [0.5, "x"]],
        [[1.0], [True]], [[1.0, 2.0], [1.0]], [[1.0, 2.0], 1.0, [1.0]],
        [[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[1, 1], [1, 1]]]])
    def test_frame_matches_vector_by_vector_parse(self, group):
        got, want = outcome(_frame_in, group), outcome(frame_oracle, group)
        assert got[0] == want[0]
        if got[0] == "ok":
            assert got[1].shape == want[1].shape
            assert got[1].tobytes() == want[1].tobytes()
        else:
            assert got[1] == want[1]


#: the flags of each subcommand besides --input and --out: those its runner reads
OPTIONS = {
    "sequence": {"--depth", "--svg"},
    "carleson": {"--depth", "--svg"},
    "contour": {"--epsilon", "--seed", "--depth", "--c1", "--c2", "--c3", "--svg"},
    "embedding": {"--depth"},
    "system": {"--delta"},
    "construct": {"--epsilon", "--alpha", "--seed", "--depth", "--cv", "--delta",
                  "--c1", "--c2", "--c3", "--svg"},
    "weight": {"--section"},
}


class TestOptionSurface:
    def test_each_subcommand_takes_the_flags_its_runner_reads(self):
        (commands,) = [a for a in build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction)]
        options = {name: {o for a in sub._actions for o in a.option_strings}
                   - {"-h", "--help"} for name, sub in commands.choices.items()}
        assert all({"--input", "--out"} <= opts for opts in options.values())
        assert {name: opts - {"--input", "--out"}
                for name, opts in options.items()} == OPTIONS
        assert sum(map(len, options.values())) == 38

    @pytest.mark.parametrize("command, unread", [
        ("sequence", ["--epsilon", "0.1"]),
        ("carleson", ["--seed", "3"]),
        ("contour", ["--section", "16"]),
        ("embedding", ["--svg", "fig.svg"]),
        ("system", ["--svg", "fig.svg"]),
        ("construct", ["--section", "16"]),
        ("weight", ["--epsilon", "0.1"]),
    ])
    def test_unread_flag_exits_2_and_writes_nothing(self, tmp_path, capsys, command,
                                                    unread):
        inp = write_json(tmp_path, "input.json", {})
        svg = ["--svg", str(tmp_path / "fig.svg")] if "--svg" in OPTIONS[command] else []
        for extra in (unread, ["--config", inp]):
            argv = ([command, "--input", inp, "--out", str(tmp_path / "report.json")]
                    + REQUIRED_FLAGS[command] + svg + extra)
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert f"unrecognized arguments: {extra[0]}" in capsys.readouterr().err
            assert not (tmp_path / "report.json").exists()
            assert not (tmp_path / "fig.svg").exists()


class TestGramFactorization:
    """A Riesz report forms the block Gram matrix, and its spectrum, once."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"gram": 0, "eigvalsh": 0}
        gram, eigvalsh = SubspaceSystem.gram, np.linalg.eigvalsh

        def counted_gram(system):
            counts["gram"] += 1
            return gram(system)

        def counted_eigvalsh(a):
            counts["eigvalsh"] += 1
            return eigvalsh(a)
        monkeypatch.setattr(SubspaceSystem, "gram", counted_gram)
        monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
        return counts

    @pytest.mark.parametrize("delta", [[], ["--delta", "0.99"]])
    def test_system_report(self, tmp_path, calls, delta):
        inp = write_json(tmp_path, "groups.json", {"groups": [
            [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]], [[0.6, 0.0, 0.8, 0.0]],
            [[0.0, 0.6, 0.0, 0.8]]]})
        code, rep = run_to_file(tmp_path, ["system", "--input", inp] + delta)
        assert code == 0
        assert rep["quantities"]["dual_residual"] < 1e-12
        assert calls == {"gram": 1, "eigvalsh": 1}

    def test_dependent_system_report(self, tmp_path, calls):
        inp = write_json(tmp_path, "repeat.json",
                         {"groups": [[[1.0, 0.0]], [[1.0, 0.0]], [[0.0, 1.0]]]})
        assert run_to_file(tmp_path, ["system", "--input", inp])[0] == 1
        assert calls == {"gram": 1, "eigvalsh": 1}

    def test_sequence_report(self, tmp_path, calls):
        assert run_to_file(tmp_path, ["sequence", "--input", points_input(tmp_path)])[0] == 0
        assert calls["gram"] == 1

    def test_embedding_report(self, tmp_path, calls):
        inp = write_json(tmp_path, "fams.json",
                         {"families": [[[0.5, 0.0]], [[-0.3, 0.2], [0.1, 0.1]]]})
        assert run_to_file(tmp_path, ["embedding", "--input", inp])[0] == 0
        assert calls["eigvalsh"] == 1


def test_svg_output(tmp_path):
    inp = points_input(tmp_path)
    svg = tmp_path / "fig.svg"
    code, _ = run_to_file(tmp_path, [
        "sequence", "--input", inp, "--svg", str(svg)])
    assert code == 0
    assert svg.read_text().startswith("<svg ")


def test_contour_svg_draws_one_curve_per_polyline(tmp_path):
    # two zeros: the figure holds the unit circle, one dot per zero and one
    # curve per boundary polyline of the report, and no circle of radius 0
    inp = write_json(tmp_path, "zeros.json", {"zeros": [[0.0, 0.0], [0.6, 0.3]]})
    svg = tmp_path / "contour.svg"
    code, rep = run_to_file(tmp_path, [
        "contour", "--input", inp, "--epsilon", "0.1", "--seed", "3", "--svg", str(svg)])
    assert code == 0
    ns = "{http://www.w3.org/2000/svg}"
    root = ElementTree.parse(svg).getroot()
    curves = [e for e in root if e.tag in (ns + "polygon", ns + "polyline")]
    assert len(curves) == rep["quantities"]["polylines"] == 2
    radii = [float(e.get("r")) for e in root.iter(ns + "circle")]
    assert len(radii) == 3
    assert min(radii) > 0.0


def test_weight_report_needs_numpy_alone(tmp_path):
    # a fresh interpreter imports the CLI and runs one weight report, whose
    # Toeplitz solve was the last use of scipy, without loading scipy
    inp = write_json(tmp_path, "weight.json", {"tag": "two_plus_cos"})
    argv = ["weight", "--input", inp, "--out", str(tmp_path / "report.json")]
    script = ("import sys\n"
              "from carleson_kit.cli import main\n"
              f"code = main({argv!r})\n"
              "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert run.stdout == "0 []\n"
