"""Edge inputs as a pinned contract: each either works or is refused.

One table of (command, flags, document, required exit, required failed
checks or refusal text, required quantities, required lower bounds).  Every
row runs the command line front end in process, with warnings as errors.
A report's failed checks must be exactly the listed ones; a refusal (exit
2) writes no report and prints exactly its line to stderr.  A quantity is
named by its dotted path in the report's ``quantities`` and must equal the
given value, None meaning null, or be at least the given bound.

Besides the hand-made rows, generated classes move seeded points to within
2^-k of the circle, k = 10, 20, 30, 40 and 50, and put pairs of sequence
points 2^-k apart.  They are generated in pure Python, from one
``random.Random`` stream per row.

A row whose outcome is wrong today is a strict expected failure naming the
ROADMAP item that mends it, so the mend flips it.

The large sizes of ROADMAP item 18 are not rows here: 2,000 and 4,000
zeros (``contour``) and 8,000 atoms (``carleson``) would take seconds of
the suite each.  They are left to the CI steps named "Large input" (twice)
and "Large carleson input" in ``.github/workflows/tests.yml``, which pin
their exit status, time and peak resident memory.
"""

import json
import math
import random
import warnings
from typing import NamedTuple

import pytest

from carleson_kit.cli import main

CONTOUR = ["--epsilon", "0.1", "--seed", "1"]


class Edge(NamedTuple):
    command: str
    flags: list
    document: dict
    exit: int
    failed: object  # the failed check names, or the refusal line for exit 2
    quantities: dict = {}
    at_least: dict = {}  # lower bounds of quantities


EDGES = {
    # equal zeros are one circle
    "contour-equal-zeros": Edge("contour", CONTOUR, {"zeros": [[0.3, 0.2], [0.3, 0.2]]}, 0, [],
                                {"polylines": 1}),
    # a zero next to the ray at turn 0 with a disk of radius 2e-303
    "contour-epsilon-1e-300": Edge("contour", ["--epsilon", "1e-300", "--seed", "1"],
                                   {"zeros": [[0.9990234375, 0.0]]}, 0, [], {"polylines": 1}),
    "sequence-coincident": Edge("sequence", [], {"points": [[0.5, 0.0], [0.5, 0.0]]}, 2,
                                "input error: sequence points must be pairwise distinct"),
    "sequence-1e-15-apart": Edge("sequence", [], {"points": [[0.5, 0.0], [0.5 + 1e-15, 0.0]]},
                                 2, "input error: kernel elements are numerically dependent"),
    "weight-all-zero": Edge("weight", [], {"samples": [0.0] * 8192}, 0, [],
                            {"classification.level": 0, "classification.a2_constant": None}),
    "weight-1e-300": Edge("weight", [], {"samples": [1e-300] * 8192}, 0, [],
                          {"classification.level": 5}),
    "weight-1e300": Edge("weight", [], {"samples": [1e300] * 8192}, 0, [],
                         {"classification.level": 5}),
    # a textbook interpolating sequence (delta 0.01468): the Gram route's
    # projection norms are 4.29e-6 off, past the check's 1e-6
    "sequence-geometric-29": Edge("sequence", [],
                                  {"points": [[1.0 - 2.0 ** -k, 0.0] for k in range(1, 30)]},
                                  0, []),
    # one atom on the circle: every one of the three constants is infinite
    "carleson-atom-on-circle": Edge("carleson", [], {"atoms": [[[1.0, 0.0], 1.0]]}, 0, [],
                                    {"carleson_norm": None, "kernel_test_constant": None,
                                     "embedding_constant": None}),
}

GAPS = (10, 20, 30, 40, 50)


def near_circle(row: str, count: int, k: int) -> list:
    """``count`` seeded points at radius 1 - 2^-k, as [re, im] pairs."""
    rng = random.Random(f"edges/{row}")
    r = 1.0 - 2.0 ** -k
    return [[r * math.cos(t), r * math.sin(t)]
            for t in (2.0 * math.pi * rng.random() for _ in range(count))]


for k in GAPS:
    # six separated points: the dyadic square of depth k over one of them
    # gives the norm 2^-k (2 - 2^-k) / (2 pi 2^-k) > 1 / pi
    EDGES[f"sequence-near-circle-{k}"] = Edge(
        "sequence", [], {"points": near_circle(f"sequence-{k}", 6, k)}, 0, [],
        at_least={"carleson_norm": 0.3})
    # the measure sum (1 - |a|^2) delta_a of 20 points: its kernel test at
    # an atom, and so its embedding constant, is at least 1
    mass = 2.0 ** -k * (2.0 - 2.0 ** -k)
    EDGES[f"carleson-near-circle-{k}"] = Edge(
        "carleson", [], {"atoms": [[p, mass] for p in near_circle(f"carleson-{k}", 20, k)]},
        0, [], at_least={"carleson_norm": 0.3, "kernel_test_constant": 1.0,
                         "embedding_constant": 1.0})
    EDGES[f"contour-near-circle-{k}"] = Edge(
        "contour", CONTOUR, {"zeros": near_circle(f"contour-{k}", 4, k)}, 0, [],
        {"polylines": 4})
    # two points 2^-k apart: their kernels are numerically dependent from
    # k = 20 on, which is a refusal
    EDGES[f"sequence-pair-{k}"] = Edge(
        "sequence", [], {"points": [[0.5, 0.2], [0.5 + 2.0 ** -k, 0.2], [-0.3, -0.4]]},
        *((0, []) if k == 10 else
          (2, "input error: subspaces are not jointly independent") if k == 20 else
          (2, "input error: kernel elements are numerically dependent")))

# two equal members give one subspace twice, so no family holding them is a
# Riesz basis: refused before any contour is drawn.  Checked on the grid,
# the outcome would hang on whether a grid point falls in {|B| < eps}
EQUAL_MATRIX = {"coefficients": [[[0.25, 0.0], [0.0, 0.5]], [[0.5, 0.0], [0.0, 0.25]]]}
for eps in ("0.3", "0.1"):
    for kind, members in (("families", [[[0.5, 0]], [[0.5, 0]]]),
                          ("matrices", [EQUAL_MATRIX, EQUAL_MATRIX])):
        EDGES[f"construct-equal-{kind}-{eps}"] = Edge(
            "construct", ["--epsilon", eps, "--alpha", "0.05", "--depth", "4", "--seed", "1"],
            {kind: members}, 2, "input error: family members must be pairwise distinct")

# two near-equal members: rho(0.5, 0.5 + s) < 0.1 for each s, so z = 0.5
# lies in both level sets {|B_n| < eps} at either eps, and the covering
# count there is 2 > d = 1.  At eps = 0.3 a grid point sees it and the run
# exits 1; at eps = 0.1 no point of the grid falls in either set
NEAR_EQUAL = ("0.05", "0.01", "0.001")
for sep in NEAR_EQUAL:
    for eps in ("0.3", "0.1"):
        EDGES[f"construct-near-equal-{sep}-{eps}"] = Edge(
            "construct", ["--epsilon", eps, "--alpha", "0.05", "--depth", "4", "--seed", "1"],
            {"families": [[[0.5, 0]], [[0.5 + float(sep), 0]]]}, 1, ["outer-comparison-chain"],
            {"lemma_10_1.covering_max": 2})

#: rows whose outcome is wrong today, with the ROADMAP items that mend them
WRONG_TODAY = {
    "sequence-geometric-29": "ROADMAP item 15: exits 1 on projection-norms-match-gram",
    "carleson-atom-on-circle": "ROADMAP items 4 and 11: exits 0 with finite constants",
    **{f"sequence-near-circle-{k}": "ROADMAP item 4: the depth-12 dyadic norm misses "
       "squares below 2^-12" for k in GAPS if k > 12},
    **{f"carleson-near-circle-{k}": "ROADMAP items 4 and 11: the depth-12 norm and the "
       "degree-64 embedding constant miss the circle"
       + ("; the kernel test evaluates no atom past 1 - 1e-12" if k >= 40 else "")
       for k in GAPS},
    **{f"construct-near-equal-{sep}-0.1": "ROADMAP item 21: exits 0 with covering_max 0, "
       "since the grid misses both level sets" for sep in NEAR_EQUAL},
}


def _quantity(quantities: dict, path: str):
    for key in path.split("."):
        quantities = quantities[key]
    return quantities


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.xfail(strict=True, reason=WRONG_TODAY[name]))
    if name in WRONG_TODAY else name for name in EDGES])
def test_edge_input(name, tmp_path, capsys):
    edge = EDGES[name]
    inp, out = tmp_path / "input.json", tmp_path / "report.json"
    inp.write_text(json.dumps(edge.document))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([edge.command, "--input", str(inp), *edge.flags, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == edge.exit, err
    if code == 2:
        assert not out.exists()
        assert err == edge.failed + "\n"
        return
    assert err == ""
    report = json.loads(out.read_text())
    assert [c["name"] for c in report["checks"] if not c["passed"]] == edge.failed
    for path, value in edge.quantities.items():
        assert _quantity(report["quantities"], path) == value, path
    for path, bound in edge.at_least.items():
        assert _quantity(report["quantities"], path) >= bound, path


def test_every_expected_failure_names_its_row():
    assert set(WRONG_TODAY) <= set(EDGES)
