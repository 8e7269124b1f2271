import math
from collections import Counter

import numpy as np
import pytest

from carleson_kit.errors import DomainError
from carleson_kit.weights import Weight, _dyadic_a2, classify_weight, p0_norm_check
from oracles import dyadic_a2_oracle, toeplitz_centre_oracles

TAU = 2 * math.pi


def test_constant_weight_tops_the_hierarchy():
    out = classify_weight(Weight.from_tag("one"))
    assert out["level"] == 5
    assert out["levels"] == [True] * 5
    assert out["mass"] == pytest.approx(1.0)
    assert out["a2_constant"] == pytest.approx(1.0)
    assert out["monotone_ok"]


def test_two_plus_cos_weight():
    out = classify_weight(Weight.from_tag("two_plus_cos"))
    assert out["level"] == 5
    assert out["mass"] == pytest.approx(2.0, abs=1e-10)
    # integral of 1/(2 + cos t) over the circle is 1/sqrt(3)
    assert out["inv_integral"] == pytest.approx(1 / math.sqrt(3), abs=1e-6)
    # the product of the two averages is the global A2 ratio
    assert out["a2_constant"] == pytest.approx(2 / math.sqrt(3), abs=1e-6)


def test_log_divergent_weight_stops_at_level_two():
    # |1 - z| has integrable log but non-integrable reciprocal; the tag
    # carries the closed-form facts
    out = classify_weight(Weight.from_tag("abs_one_minus_z"))
    assert out["level"] == 2
    assert out["tag_override"]
    assert out["log_integrable"]
    assert not out["inv_integrable"]


def test_untagged_boundary_zero_is_misjudged_by_sampling():
    # the same |1 - z| without its tag: midpoint refinement sees the
    # reciprocal integral grow like log n, too slowly for the doubling
    # rule, so the numeric verdict overshoots to level 4.  this is the
    # documented limit of sampling and the reason the tags exist.
    w = Weight(fn=lambda t: np.abs(1 - np.exp(1j * t)))
    out = classify_weight(w)
    assert not out["tag_override"]
    assert out["level"] == 4
    assert not out["w_bounded"] or not out["inv_bounded"]


def test_sqrt_boundary_zero_reaches_a2():
    out = classify_weight(Weight.from_tag("sqrt_abs_one_minus_z"))
    assert out["level"] == 4
    assert out["a2_finite"]
    assert out["a2_constant"] == pytest.approx(1.3206, abs=2e-3)
    assert not out["inv_bounded"]


def test_untagged_sqrt_zero_also_lands_on_level_four():
    w = Weight(fn=lambda t: np.sqrt(np.abs(1 - np.exp(1j * t))))
    out = classify_weight(w)
    assert out["level"] == 4
    assert not out["inv_bounded"]


def test_zero_weight_is_level_zero():
    out = classify_weight(Weight.from_samples(np.zeros(1 << 14)))
    assert out["level"] == 0
    assert out["identically_zero"]
    assert out["levels"] == [False] * 5


def test_power_singularity_divergence_detected():
    # 1/w ~ t^-1.5 has a genuinely divergent integral: doubling catches it
    w = Weight(fn=lambda t: np.minimum(1.0, np.abs(np.exp(1j * t) - 1) ** 1.5))
    out = classify_weight(w)
    assert out["level"] == 2
    assert not out["inv_integrable"]
    assert len(out["inv_trace"]) >= 3


def test_stored_samples_and_max_size():
    vals = 1.0 + 0.5 * np.cos(TAU * np.arange(1 << 12) / (1 << 12))
    w = Weight.from_samples(vals)
    assert w.max_size == 1 << 12
    # grids of 2^8 to 2^12 samples
    out = classify_weight(w)
    assert out["level"] == 5
    assert len(out["a2_trace"]) == 5
    # 2^9 stored samples allow only the grids 2^8 and 2^9
    with pytest.raises(DomainError, match="fewer than three refinements"):
        classify_weight(Weight.from_samples(vals[::8]))


@pytest.mark.parametrize("weight", [
    Weight.from_tag("two_plus_cos"),
    Weight.from_samples(np.linspace(1.0, 2.0, 64)),
])
def test_each_grid_is_computed_once_and_read_only(weight):
    grid = weight.samples(16)
    assert weight.samples(16) is grid
    assert weight.samples(16, midpoint=False) is not grid
    with pytest.raises(ValueError, match="read-only"):
        grid[0] = 0.0
    inv = weight.reciprocal(16)
    assert weight.reciprocal(16) is inv
    assert weight.reciprocal(16, midpoint=False) is not inv
    np.testing.assert_array_equal(inv, 1.0 / grid)
    with pytest.raises(ValueError, match="read-only"):
        inv[0] = 0.0


def test_classification_evaluates_each_grid_once():
    evaluations = Counter()

    def fn(t):
        evaluations[t.size, t[0] > 0.0] += 1
        return 2.0 + np.cos(t)

    w = Weight(fn=fn)
    classify_weight(w)
    p0_norm_check(w, section_size=16)
    assert len(evaluations) > 1
    assert set(evaluations.values()) == {1}


def test_samples_power_of_two_guard():
    w = Weight.from_tag("one")
    with pytest.raises(DomainError):
        w.samples(100)
    assert w.samples(8).shape == (8,)


class TestP0Norm:
    def test_constant_weights_are_exact(self):
        for c in (1.0, 3.7):
            out = p0_norm_check(Weight(fn=lambda t, c=c: np.full_like(t, c)),
                                section_size=16)
            assert out["lhs"] == pytest.approx(1.0, abs=1e-10)
            assert out["rhs"] == pytest.approx(1.0, abs=1e-10)
            assert out["ok"]

    def test_two_plus_cos_matches_closed_form(self):
        # both sides equal 2/sqrt(3) for every section size
        for section in (8, 64):
            out = p0_norm_check(Weight.from_tag("two_plus_cos"), section_size=section)
            assert out["lhs"] == pytest.approx(2 / math.sqrt(3), abs=1e-6)
            assert out["rhs"] == pytest.approx(2 / math.sqrt(3), abs=1e-6)
            assert out["ok"]

    def test_section_norm_grows_toward_the_product_bound(self):
        w = Weight(fn=lambda t: 1.0 + 0.9 * np.cos(t))
        small = p0_norm_check(w, section_size=4)
        large = p0_norm_check(w, section_size=64)
        assert small["lhs"] <= large["lhs"] + 1e-10
        assert large["lhs"] <= large["rhs"] + 1e-8

    def test_divergent_reciprocal_reports_infinite_bound(self):
        # endpoint sampling hits the boundary zero, so 1/w averages to
        # infinity and the product bound is reported as absent
        out = p0_norm_check(Weight.from_tag("abs_one_minus_z"), section_size=8)
        assert out["rhs"] is None
        assert out["inv_mass"] is None
        assert out["ok"]
        assert out["lhs"] > 1.0


def _phase_shifted_samples(seed):
    """Positive samples whose Fourier coefficients are not real."""
    rng = np.random.default_rng(seed)
    t = TAU * np.arange(1 << 13) / (1 << 13)
    phase = TAU * rng.random(2)
    return (1.0 + 0.5 * np.cos(t + phase[0]) + 0.4 * np.cos(3 * t + phase[1])
            + 0.05 * rng.random(t.shape[0]))


SECTION_WEIGHTS = {
    **{tag: lambda tag=tag: Weight.from_tag(tag) for tag in (
        "one", "two_plus_cos", "abs_one_minus_z", "sqrt_abs_one_minus_z")},
    **{f"samples-seed-{seed}": lambda seed=seed: Weight.from_samples(
        _phase_shifted_samples(seed)) for seed in (1, 2)},
}


@pytest.mark.parametrize("section", [1, 2, 16, 256, 1024])
@pytest.mark.parametrize("name", sorted(SECTION_WEIGHTS))
def test_section_centre_matches_two_independent_solves(name, section):
    # the Levinson-Durbin centre entry against scipy's Toeplitz solve and
    # the dense inverse, on the same Fourier coefficients
    w = SECTION_WEIGHTS[name]()
    out = p0_norm_check(w, section_size=section)
    vals = w.samples(out["sample_size"], midpoint=False)
    col = (np.fft.fft(vals) / out["sample_size"])[: 2 * section + 1]
    if name.startswith("samples"):
        assert np.max(np.abs(col.imag)) > 0.01
    centre = out["lhs"] / out["mass"]
    levinson, dense = toeplitz_centre_oracles(col)
    assert centre == pytest.approx(levinson, rel=1e-12)
    assert centre == pytest.approx(dense, rel=1e-12)


def _zero_runs(t):
    # zero on a whole quarter of the circle and at scattered points
    w = 1.5 + np.sin(5 * t)
    w[(t > 1.0) & (t < 1.0 + TAU / 4)] = 0.0
    w[::37] = 0.0
    return w


A2_WEIGHTS = {
    "callable-two-plus-cos": lambda: Weight.from_tag("two_plus_cos"),
    "callable-power-zero": lambda: Weight(fn=lambda t: np.abs(np.sin(t / 2.0)) ** 0.7),
    "callable-zero-runs": lambda: Weight(fn=_zero_runs),
    "stored-random": lambda: Weight.from_samples(
        np.random.default_rng(3).uniform(0.01, 5.0, 1 << 14)),
    "stored-zero-runs": lambda: Weight.from_samples(
        _zero_runs(TAU * np.arange(1 << 14) / (1 << 14))),
}


@pytest.mark.parametrize("name", sorted(A2_WEIGHTS))
def test_a2_pyramid_matches_the_per_level_oracle(name):
    # grids of 8 to 16384 samples; the pyramid sums in another order than
    # the per-level means, so agreement is to rounding, and exact for inf.
    # classify_weight reads the grids from 256 samples up
    w = A2_WEIGHTS[name]()
    sizes = [1 << d for d in range(3, 15)]
    trace = [_dyadic_a2(w.samples(size), w.reciprocal(size)) for size in sizes]
    assert classify_weight(w)["a2_trace"] == trace[5:]
    for size, a2 in zip(sizes, trace):
        expected = dyadic_a2_oracle(w.samples(size), w.reciprocal(size))
        if math.isinf(expected):
            assert a2 == expected
        else:
            assert a2 == pytest.approx(expected, rel=1e-14)
