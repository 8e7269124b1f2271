"""End-to-end runs of the command line front end via ``main(argv)``."""

import filecmp
import json
import math
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from carleson_kit.cli import InputError, _complex_list, _frame_in, build_parser, main

REPO = Path(__file__).resolve().parents[1]
with open(REPO / "docs" / "schemas" / "report.schema.json") as _fh:
    REPORT_SCHEMA = json.load(_fh)


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
        # stays heavy under recursion until a dilated witness fills its parent
        inp = write_json(tmp_path, "atom.json",
                         {"zeros": [[0.0, 0.0]], "singular_atoms": [[1.0, 0.004]]})
        code, rep = run_to_file(tmp_path, [
            "contour", "--input", inp, "--epsilon", "0.1", "--seed", "3",
            "--c1", repr(0.1 / math.log(10.0))])
        assert code == 1
        assert rep["constants"]["m_threshold"] == pytest.approx(10.0, rel=1e-12)
        failed = {c["name"]: c for c in rep["checks"] if not c["passed"]}
        assert set(failed) == {"child-interval-ratio"}
        assert "bad intervals cover" in failed["child-interval-ratio"]["detail"]

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

    def test_weight_samples(self, tmp_path):
        t = np.arange(8192) * (2.0 * math.pi / 8192)
        inp = write_json(tmp_path, "wsamples.json", {
            "tag": "two_plus_cos", "samples": (2.0 + np.cos(t)).tolist()})
        code, rep = run_to_file(tmp_path, ["weight", "--input", inp])
        assert code == 0
        assert rep["inputs"]["sample_count"] == 8192
        assert rep["quantities"]["classification"]["level"] == 5


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
            "sequence", "--input", points_input(tmp_path), "--depth", "7",
            "--delta", "0.9"], "b.json")
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

    def test_seed_is_mandatory_for_randomized_commands(self, tmp_path, capsys):
        zeros = write_json(tmp_path, "z.json", {"zeros": [[0.0, 0.0]]})
        assert main(["contour", "--input", zeros, "--epsilon", "0.1"]) == 2
        fam = write_json(tmp_path, "f.json", {"families": [[[0.5, 0.0]]]})
        assert main(["construct", "--input", fam, "--epsilon", "0.01",
                     "--alpha", "0.05"]) == 2
        capsys.readouterr()

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["sequence", "--input", str(path)]) == 2
        capsys.readouterr()

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

    def test_weight_needs_tag_or_samples(self, tmp_path, capsys):
        inp = write_json(tmp_path, "empty.json", {})
        assert main(["weight", "--input", inp]) == 2
        capsys.readouterr()

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
    """Test oracle: the per-entry parse of one number or [re, im] pair."""
    def number(v):
        return isinstance(v, (int, float)) and not isinstance(v, bool)
    if number(value):
        return complex(value)
    if isinstance(value, list) and len(value) == 2 and all(map(number, value)):
        return complex(value[0], value[1])
    raise InputError(f"{what} must be a number or an [re, im] pair")


def frame_oracle(group):
    """Test oracle: a group parsed vector by vector and entry by entry."""
    if not isinstance(group, list) or not group:
        raise InputError("each group is a nonempty list of vectors")
    cols = []
    for v in group:
        if not isinstance(v, list):
            raise InputError("frame vector must be a list")
        cols.append(np.array([complex_in_oracle(x, "frame vector") for x in v], dtype=complex))
    if len({c.size for c in cols}) > 1:
        raise InputError("the vectors of one group must have one length")
    return np.stack(cols, axis=1)


def outcome(parse, value):
    try:
        return "ok", np.asarray(parse(value), dtype=complex)
    except InputError as exc:
        return "error", str(exc)
    except OverflowError:
        return "overflow", None


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
            return [complex_in_oracle(v, "w") for v in vals]
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


class TestConfigFile:
    def test_config_supplies_values_and_flags_win(self, tmp_path):
        inp = points_input(tmp_path)
        cfg = write_json(tmp_path, "cfg.json", {"depth": 9, "input": inp})
        code, rep = run_to_file(tmp_path, ["sequence", "--config", cfg])
        assert code == 0
        assert rep["constants"]["depth"] == 9
        code, rep = run_to_file(tmp_path, [
            "sequence", "--config", cfg, "--depth", "7"], "b.json")
        assert rep["constants"]["depth"] == 7

    def test_unknown_config_key(self, tmp_path, capsys):
        inp = points_input(tmp_path)
        cfg = write_json(tmp_path, "cfg.json", {"depht": 9})
        assert main(["sequence", "--config", cfg, "--input", inp]) == 2
        capsys.readouterr()


def test_svg_output(tmp_path):
    inp = points_input(tmp_path)
    svg = tmp_path / "fig.svg"
    code, _ = run_to_file(tmp_path, [
        "sequence", "--input", inp, "--svg", str(svg)])
    assert code == 0
    assert svg.read_text().startswith("<svg ")
