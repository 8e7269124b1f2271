"""Tests of the benchmark itself:  python3 -m pytest bench

They check that inputs are a pure function of the seed, that the
correctness gate catches a wrong number, that the tracer leaves
carleson_kit exactly as it found it, and that the host clock scales each
report by the anchors around it.
"""

import copy
import json
import os
import subprocess
import sys

import pytest

import harness
import hostclock
import refcheck
import run
import tracer
from workloads import WORKLOADS


@pytest.fixture(scope="module")
def main():
    return harness.import_main()


def _pool_bytes(name: str, seed: int) -> list[bytes]:
    wl = WORKLOADS[name]
    return [wl.case(i).input_bytes() for r in wl.rounds(seed, 3) for i in r]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(name):
    assert _pool_bytes(name, 7) == _pool_bytes(name, 7)
    assert _pool_bytes(name, 7) != _pool_bytes(name, 8)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_corpus_case_matches_its_reference_input(name):
    wl = WORKLOADS[name]
    refs = refcheck.load_refs(name)
    assert len(refs) == wl.corpus_size
    for index in range(wl.corpus_size):
        assert refs[str(index)]["input_sha256"] == wl.case(index).input_sha256()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_round_holds_one_case_per_stratum(name):
    wl = WORKLOADS[name]
    for picks in wl.rounds(3, 5):
        assert sorted(i % len(wl.strata) for i in picks) == list(range(len(wl.strata)))


def _first_case_with(refs, key):
    for index, entry in refs.items():
        if entry["exit"] == 0 and entry["quantities"].get(key):
            return int(index)
    raise AssertionError(f"no reference case has {key}")


def test_perturbed_reference_quantity_is_counted_as_failure(main, tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "OUT_ROOT", str(tmp_path))
    bench = run.Run("diagnostics", seed=0, trace=0)
    index = _first_case_with(bench.refs, "carleson_norm")
    bench.prepare([[index]])

    bench.run_rounds([[index]])
    assert (bench.attempted, bench.failed) == (1, 0)

    original = bench.refs[str(index)]["quantities"]["carleson_norm"]
    monkeypatch.setitem(bench.refs, str(index), copy.deepcopy(bench.refs[str(index)]))
    bench.refs[str(index)]["quantities"]["carleson_norm"] = original * (1 + 1e-6)
    bench.run_rounds([[index]])
    assert (bench.attempted, bench.failed) == (2, 1)
    assert "carleson_norm" in bench.failure_notes[0]
    bench.close()


def test_gate_tolerance_and_outcomes():
    ref = {"exit": 0, "checks": [["a", True]], "quantities": {"x": 1.0, "n": 3, "s": "k"}}
    report = {"checks": [{"name": "a", "passed": True}],
              "quantities": {"x": 1.0 + 1e-12, "n": 3, "s": "k"}}
    assert refcheck.compare(ref, 0, report) == []
    assert refcheck.compare(ref, 1, report)
    report["quantities"]["x"] = 1.0 + 1e-6
    assert refcheck.compare(ref, 0, report)
    report["quantities"]["x"] = 1.0
    report["checks"][0]["passed"] = False
    assert refcheck.compare(ref, 0, report)
    assert refcheck.compare({"exit": 2}, 2, None) == []


def test_tracer_restores_every_attribute(main, tmp_path):
    wl = WORKLOADS["diagnostics"]
    runner = harness.CaseRunner(main, str(tmp_path))
    cases = [wl.case(k) for k in range(len(wl.strata))]  # one case of every command
    from carleson_kit import contour

    before = tracer.snapshot()
    with tracer.Tracer() as tr:
        assert contour.carleson_norm is not before[("carleson_kit.contour", "carleson_norm")]
        for k, case in enumerate(cases):
            tr.report_id = k
            code, _, error = runner.run(case, lambda m, argv: tr.span("cli", m, argv))
            assert error is None and code == 0
    assert tracer.changed_since(before) == []
    names = {span[1] for span in tr.spans}
    assert {"cli", "carleson.carleson_norm.discrete", "riesz.uniform_minimality",
            "weights.classify_weight"} <= names
    assert tr.counts["disk.kernel_inner.calls"] > 0
    assert all(name not in names for name in ("disk.kernel_inner", "disk.dyadic_arc"))


def test_tracer_restores_after_an_exception(main):
    before = tracer.snapshot()
    from carleson_kit import riesz

    with pytest.raises(ValueError):
        with tracer.Tracer():
            riesz.extract_critical_subset(None, -1.0)
    assert tracer.changed_since(before) == []


def test_self_time_excludes_children():
    tr = tracer.Tracer()
    tr.spans = [(0, "root", 0.0, 10.0, None, 0), (1, "a", 1.0, 4.0, 0, 0),
                (2, "b", 2.0, 3.0, 1, 0)]
    assert tr.self_times() == {"root": 7.0, "a": 2.0, "b": 1.0}


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(40) == 75
    assert run.tail_percentile(150) == 90
    assert run.tail_percentile(20) == 50
    assert run.tail_percentile(9) == 50


def test_benchmark_json_lists_the_printed_metrics():
    with open(os.path.join(harness.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_reference_seconds_use_the_anchors_around_each_report():
    clock = hostclock.HostClock()
    clock.anchors = [(0, 0.01), (2, 0.03), (3, 0.05)]
    clock.done = 3
    assert clock.local_anchors() == pytest.approx([0.02, 0.02, 0.04])
    ref = hostclock.REFERENCE_S
    assert clock.reference_seconds([1.0, 2.0, 1.0]) == pytest.approx(
        [ref / 0.02, 2 * ref / 0.02, ref / 0.04])


def test_anchor_does_not_touch_carleson_kit():
    code = ("import sys, hostclock; hostclock.anchor(); "
            "sys.exit(any(m.startswith('carleson_kit') for m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=harness.BENCH_DIR, check=False)
    assert proc.returncode == 0
