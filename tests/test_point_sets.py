"""Point sets of the disk: each public entry refuses points off its domain,
and a report checks each input point set once at each public entry it
reaches (``kernel_inner`` checks both of its arguments) and takes its
1 - |z|^2 once.

The refusal table walks every exported function and constructor that takes
disk points, with one bad point among good ones.  On the circle and one ulp
outside it (|z| = 1 + 2^-52) the open disk refuses and the closed disk
(``disk.CLOSED_RADIUS``) accepts; nan and inf are refused by both.

The count test wraps ``disk._interior`` and ``disk.one_minus_sq`` wherever
the package bound them and runs reports in process.  A point set is keyed
by the bytes of its complex array.
"""

import json
import math
import sys
from collections import Counter

import numpy as np
import pytest

from carleson_kit import disk
from carleson_kit.blaschke import (BlaschkeProduct, interpolation_constants, net_is_valid,
                                   place_net_on_curve)
from carleson_kit.carleson import DiscreteMeasure
from carleson_kit.cli import main
from carleson_kit.contour import BoundedFunction, RepresentingMeasure, check_potential_bounds
from carleson_kit.disk import kernel, kernel_inner, pseudo_hyperbolic, pseudo_hyperbolic_disk
from carleson_kit.errors import DomainError
from carleson_kit.hardy import poisson_sum
from carleson_kit.model_space import MatrixFunction
from carleson_kit.riesz import SubspaceSystem

BAD = {
    "circle": complex(1.0, 0.0),
    "one-ulp-out": complex(1.0 + 2.0 ** -52, 0.0),
    "nan": complex(math.nan, 0.0),
    "inf": complex(math.inf, 0.0),
}
#: the bad points that the closed disk accepts
ON_CLOSED_DISK = {"circle", "one-ulp-out"}

OUTER = -0.1 * np.ones(8)

#: entry -> (domain, call with the point p among interior ones)
ENTRIES = {
    "BlaschkeProduct": ("open", lambda p: BlaschkeProduct([0.5, p])),
    "BlaschkeProduct.log_abs": ("closed", lambda p: BlaschkeProduct([0.5]).log_abs([0.3, p])),
    "interpolation_constants": ("open", lambda p: interpolation_constants([0.5, p])),
    # the net reaches net_is_valid as a BlaschkeProduct, whose refusal checks it
    "net_is_valid(net)": ("open", lambda p: net_is_valid([0.3], BlaschkeProduct([0.5, p]), 0.05)),
    "net_is_valid(vertices)": (
        "open", lambda p: net_is_valid([0.3, p], BlaschkeProduct([0.5]), 0.05)),
    "place_net_on_curve": ("open", lambda p: place_net_on_curve([0.5, p], 0.05)),
    "BoundedFunction": ("open", lambda p: BoundedFunction(zeros=[0.5, p])),
    "BoundedFunction.log_abs": ("closed", lambda p: BoundedFunction([0.5]).log_abs([0.3, p])),
    "BoundedFunction.log_abs(singular)": (
        "open", lambda p: BoundedFunction([0.5], [(1.0, 0.1)]).log_abs([0.3, p])),
    "BoundedFunction.log_abs(outer)": (
        "open", lambda p: BoundedFunction([0.5], outer_log=OUTER).log_abs([0.3, p])),
    "RepresentingMeasure": (
        "open", lambda p: RepresentingMeasure(interior_atoms=[(0.5, 0.1), (p, 0.1)])),
    "RepresentingMeasure.potential": (
        "open", lambda p: RepresentingMeasure([(0.5, 0.1)], density=[0.1] * 8).potential(
            [0.3, p])),
    "BoundedFunction.representing_measure.potential": (
        "open", lambda p: BoundedFunction([0.5]).representing_measure().potential([0.3, p])),
    "check_potential_bounds": (
        "open", lambda p: check_potential_bounds(BoundedFunction([0.5]), 0.1, [0.3, p])),
    "kernel": ("open", lambda p: kernel(p, 0.5)),
    "kernel_inner(lam)": ("open", lambda p: kernel_inner(p, 0.5)),
    "kernel_inner(mu)": ("open", lambda p: kernel_inner(np.array([0.5]), np.array([0.3, p]))),
    "pseudo_hyperbolic(lam)": ("open", lambda p: pseudo_hyperbolic(np.array([0.3, p]), 0.5)),
    "pseudo_hyperbolic(mu)": ("open", lambda p: pseudo_hyperbolic(0.5, p)),
    "pseudo_hyperbolic_disk": ("open", lambda p: pseudo_hyperbolic_disk(np.array([0.5, p]), 0.1)),
    "poisson_sum": ("open", lambda p: poisson_sum(np.ones(8), [0.5, p])),
    "DiscreteMeasure": ("closed", lambda p: DiscreteMeasure([(0.5, 1.0), (p, 1.0)])),
    "SubspaceSystem.from_kernel_groups": (
        "open", lambda p: SubspaceSystem.from_kernel_groups([[0.5], [0.3, p]])),
    "MatrixFunction.from_scalar_blaschke": (
        "open", lambda p: MatrixFunction.from_scalar_blaschke([0.5, p])),
}


@pytest.mark.parametrize("bad", sorted(BAD))
@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_entry_refuses_points_off_its_domain(entry, bad):
    domain, call = ENTRIES[entry]
    if domain == "closed" and bad in ON_CLOSED_DISK:
        call(BAD[bad])
    else:
        with pytest.raises(DomainError):
            call(BAD[bad])


def _key(z) -> bytes:
    return np.asarray(z, dtype=complex).reshape(-1).tobytes()


@pytest.fixture
def counted(monkeypatch):
    """Counters of the point sets that ``_interior`` checks and whose
    ``one_minus_sq`` is taken, by key, wherever the package bound them."""
    counts = {"_interior": Counter(), "one_minus_sq": Counter()}
    modules = [m for name, m in sys.modules.items() if name.startswith("carleson_kit.")]
    for name, calls in counts.items():
        original = getattr(disk, name)

        def wrapper(z, *args, _original=original, _calls=calls, **kwargs):
            _calls[_key(z)] += 1
            return _original(z, *args, **kwargs)

        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, wrapper)
    return counts


def _run(tmp_path, command, flags, document) -> int:
    inp = tmp_path / f"{command}.json"
    inp.write_text(json.dumps(document))
    return main([command, "--input", str(inp), *flags, "--out", str(tmp_path / "out.json")])


CONTOUR = {"zeros": [[0.3, 0.2], [-0.5, 0.1], [0.1, -0.6]],
           "singular_atoms": [[1.0, 1e-4]],
           "outer_log": [-1e-3 * (1.0 + math.cos(2 * math.pi * k / 64)) for k in range(64)]}


def test_contour_report_checks_each_point_set_once(tmp_path, counted):
    # the zeros and the verification samples, each checked once and each
    # 1 - |z|^2 taken once: the zeros' by BoundedFunction, kept for the
    # measure, the disks and log|B|; the samples' for the singular and the
    # outer part alike; and gamma's for the disks
    assert _run(tmp_path, "contour", ["--epsilon", "0.1", "--seed", "1"], CONTOUR) == 0
    zeros = _key([complex(*z) for z in CONTOUR["zeros"]])
    checks, defects = counted["_interior"], counted["one_minus_sq"]
    assert checks[zeros] == 1 and defects[zeros] == 1
    assert sorted(checks.values()) == [1, 1]  # the zeros, then the samples
    assert sorted(defects.values()) == [1, 1, 1]  # the zeros, gamma and the samples


def test_construct_report_checks_each_point_set_once(tmp_path, counted):
    # the family's zeros are checked once by from_scalar_blaschke, which
    # needs no 1 - |z|^2; the zeros of the determinant once by
    # BoundedFunction, which takes their 1 - |z|^2 once for the contour
    zeros = [0.5 + 0.1j, -0.2 + 0.4j]
    flags = ["--epsilon", "0.3", "--alpha", "0.05", "--depth", "4", "--seed", "1"]
    assert _run(tmp_path, "construct", flags,
                {"families": [[[z.real, z.imag] for z in zeros]]}) == 0
    checks, defects = counted["_interior"].copy(), counted["one_minus_sq"].copy()
    det_zeros = _key(MatrixFunction.from_scalar_blaschke(zeros).det_zeros_in_disk())
    assert checks[_key(zeros)] == 1 and defects[_key(zeros)] == 0
    assert checks[det_zeros] == 1 and defects[det_zeros] == 1


def test_sequence_report_checks_its_points_at_each_public_entry(tmp_path, counted):
    # the points go to two public entries: interpolation_constants checks
    # them once, and SubspaceSystem.from_kernel_groups leaves them to the
    # public kernel_inner, which checks each of its two arguments; the
    # distance matrix and the Carleson measure share one 1 - |z|^2, and the
    # kernel Gram keeps its 1 - r^2 (ROADMAP item 15)
    points = [[0.5, 0.0], [-0.2, 0.6], [0.1, -0.7], [-0.6, -0.3]]
    assert _run(tmp_path, "sequence", [], {"points": points}) == 0
    key = _key([complex(*p) for p in points])
    assert counted["_interior"] == Counter({key: 3})
    assert counted["one_minus_sq"] == Counter({key: 1})


def test_system_report_takes_no_disk_points(tmp_path, counted):
    frames = [[[1.0, 0.0, 0.0]], [[0.6, 0.8, 0.0]], [[0.0, 0.6, 0.8]]]
    assert _run(tmp_path, "system", [], {"groups": frames}) == 0
    assert counted["_interior"] == Counter() and counted["one_minus_sq"] == Counter()
