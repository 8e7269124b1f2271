#!/usr/bin/env python3
"""carleson-kit benchmark: time to verified reports, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

A closed loop with one client drives ``carleson_kit.cli.main`` in this
process, one report at a time, on the seed's inputs (see workloads.py), and
checks every report against its reference (see refcheck.py).

--trace 0  times whole rounds of reports until S seconds have passed and
           the workload's min_rounds have run, and prints the end-to-end
           metrics in reference seconds: wall time corrected for the speed
           of the shared host by anchors run between reports (see
           hostclock.py).  The plain wall-time figures are printed too.
--trace 1  runs a fixed number of rounds twice, untraced and then under the
           outside-in tracer (see tracer.py), and prints the per-layer
           metrics, so counts repeat exactly for a given seed.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Everything the run writes goes under bench/out/.
"""

from __future__ import annotations

import argparse
import gzip
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from time import perf_counter

import harness
import hostclock
import refcheck
import tracer
from workloads import WORKLOADS

SETUP_PROBES = 3  # set-up samples before and again after the timed loop; setup_s is
                  # the median of all of them
ROUND_CAP = 512  # rounds drawn per timed run; more are cycled
MAX_FAILURE_NOTES = 20

# name -> (unit, better); the same list as BENCHMARK.json
END_TO_END = {
    "reports_per_s": ("1/s", "higher"),
    "report_s.p50": ("s", "lower"),
    "report_s.p90": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# Self times are seconds per report over the traced pass; counts are totals
# over that pass.
PER_LAYER = {name: ("s" if name.endswith("_s") else "frac" if name.endswith("_frac")
                    else "count", "lower") for name in (
    "contour.select_bad_intervals.self_s",
    "contour.RepresentingMeasure.mass_in_square.calls",
    "contour.bourgain_contour.self_s",
    "contour.Region.contains_many.calls",
    "contour.verify_region.self_s",
    "contour.BoundedFunction.log_abs.self_s",
    "contour.log_abs.points",
    "carleson.carleson_norm.curve.self_s",
    "carleson.curve_segments",
    "carleson.carleson_norm.discrete.self_s",
    "carleson.kernel_test_constant.self_s",
    "carleson.embedding_constant_empirical.self_s",
    "riesz.SubspaceSystem.from_kernel_groups.self_s",
    "riesz.uniform_minimality.self_s",
    "riesz.uniform_minimality.calls",
    "riesz.extract_critical_subset.self_s",
    "riesz.skew_projection_norm.self_s",
    "riesz.skew_projection_norm.calls",
    "riesz.orthogonalizer_condition.self_s",
    "riesz.dual_system.self_s",
    "riesz.embedding_norm.self_s",
    "disk.kernel_inner.calls",
    "disk.dyadic_arc.calls",
    "blaschke.interpolation_constants.self_s",
    "blaschke.projection_norm_formula.self_s",
    "blaschke.place_net_on_curve.self_s",
    "blaschke.net_is_valid.self_s",
    "blaschke.net_points",
    "construction.build_contour_nets.self_s",
    "construction.unit_sphere_net.self_s",
    "construction.sphere_net_vectors",
    "construction.epsilon_net_split.self_s",
    "construction.condition_sums.self_s",
    "construction.lemma_10_1_check.self_s",
    "construction.check_two_eps_margins.self_s",
    "hardy.outer_log_at.self_s",
    "hardy.outer_log_at.calls",
    "model_space.MatrixFunction.call.self_s",
    "model_space.MatrixFunction.call.calls",
    "model_space.det_theta_many.self_s",
    "weights.classify_weight.self_s",
    "weights.p0_norm_check.self_s",
    "cli.self_s",
    "trace.overhead_frac",
    "work.region_pieces",
    "work.polylines",
    "work.generations",
    "work.bad_intervals",
    "work.verify_samples",
    "work.grid_points",
    "work.input_points",
)}


# -- statistics ------------------------------------------------------------------

def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(n: int) -> int:
    """90, or the highest percentile down to 50 with ten of n samples beyond it."""
    for q in range(90, 50, -1):
        if n - math.ceil(q / 100.0 * n) >= 10:
            return q
    return 50


# -- pieces of a run ---------------------------------------------------------------

class Run:
    def __init__(self, workload: str, seed: int, trace: int):
        self.wl = WORKLOADS[workload]
        self.seed = seed
        self.main = harness.import_main()
        self.refs = refcheck.load_refs(workload)
        self.workdir = os.path.join(
            harness.OUT_ROOT, f"{workload}-seed{seed}-trace{trace}-{os.getpid()}")
        os.makedirs(self.workdir, exist_ok=True)
        self.runner = harness.CaseRunner(self.main, self.workdir)
        self.cases: dict[int, object] = {}
        self.attempted = 0
        self.failed = 0
        self.failure_notes: list[str] = []

    def prepare(self, rounds: list[list[int]]) -> None:
        """Build and write every input of the rounds; check it is the referenced one."""
        for index in sorted({i for r in rounds for i in r}):
            case = self.wl.case(index)
            ref = self.refs.get(str(index))
            if ref is None or ref["input_sha256"] != case.input_sha256():
                raise harness.SetupError(
                    f"case {index} of {self.wl.name} does not match its reference input; "
                    "regenerate bench/refs with make_refs.py at the reference commit")
            self.runner.prepare(case)
            self.cases[index] = case

    def check(self, index: int, code, error) -> dict | None:
        """Count one attempted report; returns the report when it was read."""
        self.attempted += 1
        report = None
        if error is not None:
            problems = [error]
        else:
            try:
                report = self.runner.report()
                problems = refcheck.compare(self.refs[str(index)], code, report)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problems = [f"unreadable report: {type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            if len(self.failure_notes) < MAX_FAILURE_NOTES:
                self.failure_notes.append(f"case {index}: {problems[0]}")
        return report

    def run_rounds(self, rounds, min_seconds=None, min_rounds=0, call=None, on_report=None):
        """Run whole rounds; returns (case indices, report seconds, wall seconds
        excluding checks), the first two in run order.

        With min_seconds the rounds cycle until that much wall time has
        passed and at least min_rounds have run, ending at a round boundary;
        otherwise each round runs once.
        """
        indices, samples = [], []
        checking = 0.0
        start = perf_counter()
        r = 0
        while True:
            for index in rounds[r % len(rounds)]:
                code, seconds, error = self.runner.run(self.cases[index], call)
                mark = perf_counter()
                indices.append(index)
                samples.append(seconds)
                report = self.check(index, code, error)
                if on_report is not None:
                    on_report(report)
                checking += perf_counter() - mark
            r += 1
            if min_seconds is None:
                if r == len(rounds):
                    break
            elif r >= min_rounds and perf_counter() - start - checking >= min_seconds:
                break
        return indices, samples, perf_counter() - start - checking

    def setup_samples(self) -> list[tuple[float, float]]:
        """(set-up seconds, host anchor seconds) from fresh interpreters, one
        after another."""
        warm = self.wl.warmup_case()
        self.runner.prepare(warm)
        out = []
        for k in range(SETUP_PROBES):
            argv = warm.argv(self.runner.input_path(warm),
                             os.path.join(self.workdir, f"warmup-{k}.json"))
            proc = subprocess.run(
                [sys.executable, os.path.join(harness.BENCH_DIR, "setup_probe.py"),
                 harness.SRC, json.dumps(argv)],
                capture_output=True, text=True, timeout=120, check=False)
            if proc.returncode != 0:
                raise harness.SetupError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
            probe = json.loads(proc.stdout.strip().splitlines()[-1])
            out.append((probe["seconds"], probe["anchor_s"]))
        return out

    def warm_up(self) -> None:
        warm = self.wl.warmup_case()
        code, _, error = self.runner.run(warm)
        if error is not None or code is None:
            raise harness.SetupError(f"warm-up report failed: {error}")

    def close(self) -> None:
        shutil.rmtree(self.runner.in_dir, ignore_errors=True)
        for name in os.listdir(self.workdir):
            if name.endswith(".json") and name != "result.json":
                os.unlink(os.path.join(self.workdir, name))

    def write(self, name: str, doc: dict) -> str:
        path = os.path.join(self.workdir, name)
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        return path


def metadata(seed: int) -> dict:
    import numpy
    import scipy

    blas = {}
    try:
        deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {k: deps.get(k) for k in ("blas", "lapack")}
    except (TypeError, AttributeError):  # older numpy without mode="dicts"
        pass
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "seed": seed,
        "git_commit": harness.git_commit(),
        "nproc": os.cpu_count(),
        "cpu_affinity": affinity,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in harness.BLAS_THREAD_VARS},
        "CARLESON_KIT_THREADS": os.environ.get("CARLESON_KIT_THREADS"),
        "machine": platform.machine(),
        "loop": "closed, one client, in process",
    }


def work_counts(counts: dict, report: dict | None) -> None:
    """Accumulate the exact work counts a report states."""
    if report is None:
        return
    q, inputs = report.get("quantities", {}), report.get("inputs", {})
    command = report.get("command")
    if command == "contour" and "pieces" in q:
        counts["work.region_pieces"] += q["pieces"]
        counts["work.polylines"] += q["polylines"]
        counts["work.generations"] += len(q["generations"])
        counts["work.bad_intervals"] += sum(g["bad_intervals"] for g in q["generations"])
        counts["work.verify_samples"] += q["samples"]
    if command == "embedding":
        counts["work.grid_points"] += report["constants"]["grid_points"]
    if command == "contour":
        n = len(inputs.get("zeros", []))
    elif command == "system":
        n = inputs.get("groups", 0)
    elif command == "construct":
        n = inputs.get("members", 0)
    elif command == "weight":
        n = inputs.get("sample_count") or 0
    else:
        n = inputs.get("count", 0)
    counts["work.input_points"] += n


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


# -- the two modes -------------------------------------------------------------------

def timed(run: Run, seconds: int) -> tuple[dict, dict]:
    setup = run.setup_samples()
    run.warm_up()
    rounds = run.wl.rounds(run.seed, ROUND_CAP)
    run.prepare(rounds)
    # reports are timed in wall time; the metrics are in reference seconds
    clock = hostclock.HostClock()
    indices, samples, wall = run.run_rounds(
        rounds, min_seconds=seconds, min_rounds=run.wl.min_rounds,
        on_report=clock.after_report)
    clock.close()
    ref = clock.reference_seconds(samples)
    # The host's speed drifts over tens of seconds; probing at both ends of
    # the loop keeps one slow spell from setting setup_s on its own.
    setup += run.setup_samples()
    setup_ref = [s * hostclock.REFERENCE_S / a for s, a in setup]
    n = len(samples)
    q = tail_percentile(run.wl.min_rounds * len(run.wl.strata))
    metrics = {
        "reports_per_s": metric(n / math.fsum(ref), "1/s"),
        "report_s.p50": metric(percentile(ref, 50), "s"),
        "report_s.p90": metric(percentile(ref, q), "s"),
        "setup_s": metric(statistics.median(setup_ref), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    wall_metrics = {
        "reports_per_s": n / wall,
        "report_s.p50": percentile(samples, 50),
        "report_s.p90": percentile(samples, q),
        "setup_s": statistics.median(s for s, _ in setup),
    }
    detail = {"reports": n, "wall_s": wall, "tail_percentile": q, "wall_metrics": wall_metrics,
              "anchor_s.median": statistics.median(a for _, a in clock.anchors),
              "anchors": clock.anchors, "setup_samples": setup,
              "report_s": samples, "reference_report_s": ref, "cases": indices}
    return metrics, detail


def traced(run: Run) -> tuple[dict, dict]:
    run.warm_up()
    rounds = run.wl.rounds(run.seed, run.wl.trace_rounds)
    run.prepare(rounds)
    plain_clock = hostclock.HostClock()
    _, plain, plain_wall = run.run_rounds(rounds, on_report=plain_clock.after_report)
    plain_clock.close()

    before = tracer.snapshot()
    work = Counter({name: 0 for name in PER_LAYER if name.startswith("work.")})
    report_ids = itertools.count()

    with tracer.Tracer() as tr:
        def call(main, argv):
            tr.report_id = next(report_ids)
            return tr.span("cli", main, argv)
        traced_clock = hostclock.HostClock()

        def after(report):
            work_counts(work, report)
            traced_clock.after_report()
        _, samples, traced_wall = run.run_rounds(rounds, call=call, on_report=after)
        traced_clock.close()
    leaked = tracer.changed_since(before)
    if leaked:
        raise harness.SetupError(f"tracer left patched attributes: {leaked[:5]}")

    n = len(samples)
    self_times = tr.self_times()
    values = {}
    for name, (unit, _) in PER_LAYER.items():
        if name == "trace.overhead_frac":
            # per report, traced against untraced time of the same input, both
            # in reference seconds; the median keeps a slow spell out of the ratio
            value = statistics.median(
                t / p for t, p in zip(traced_clock.reference_seconds(samples),
                                      plain_clock.reference_seconds(plain))) - 1.0
        elif name.startswith("work."):
            value = work[name]
        elif name.endswith(".self_s"):
            value = self_times.get(name[: -len(".self_s")], 0.0) / n
        else:
            value = tr.counts.get(name, 0)
        values[name] = metric(value, unit)

    per_report = {name: total / n for name, total in
                  sorted(self_times.items(), key=lambda kv: -kv[1])}
    modules = Counter()
    for name, value in per_report.items():
        modules[name.split(".")[0]] += value
    spans_path = os.path.join(run.workdir, "spans.jsonl.gz")
    with gzip.open(spans_path, "wt") as fh:
        for sid, name, start, end, parent, report in tr.spans:
            fh.write(json.dumps([sid, name, start, end, parent, report]) + "\n")
    detail = {
        "reports": n, "rounds": len(rounds),
        "untraced_wall_s": plain_wall, "traced_wall_s": traced_wall,
        "self_s_per_report": per_report,
        "module_self_s_per_report": dict(modules.most_common()),
        "counts": dict(sorted(tr.counts.items())),
        "spans": len(tr.spans), "spans_file": os.path.relpath(spans_path, harness.ROOT),
    }
    return values, detail


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        run = Run(args.workload, args.seed, args.trace)
        try:
            if args.trace:
                metrics, detail = traced(run)
            else:
                metrics, detail = timed(run, args.seconds)
            meta = metadata(args.seed)
        finally:
            run.close()
    except (harness.SetupError, OSError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark cannot run: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    path = run.write("result.json", {
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
        "meta": meta, "result": result, "detail": detail,
        "failed_frac": run.failed / run.attempted, "failures": run.failure_notes,
    })

    blas_name = " ".join(str((meta["blas"].get("blas") or {}).get(k)) for k in ("name", "version"))
    print(f"# workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"commit {meta['git_commit']}  nproc {meta['nproc']}  python {meta['python']}  "
          f"numpy {meta['numpy']}  scipy {meta['scipy']}  blas {blas_name}  "
          f"blas threads {meta['blas_threads']}  "
          f"CARLESON_KIT_THREADS {meta['CARLESON_KIT_THREADS']}")
    if args.trace == 0:
        wall = detail["wall_metrics"]
        print(f"# {detail['reports']} reports in {detail['wall_s']:.3f} s; report_s.p90 is "
              f"the p{detail['tail_percentile']} of {detail['reports']} samples")
        print(f"# times are reference seconds (wall time x {hostclock.REFERENCE_S} s / host "
              f"anchor, median anchor {detail['anchor_s.median']:.4g} s); in wall time: "
              + "  ".join(f"{k} {v:.6g}" for k, v in wall.items()))
    else:
        print(f"# {detail['reports']} reports in {detail['rounds']} rounds; self times are "
              f"seconds per report, counts are totals over the traced pass")
    for name, m in metrics.items():
        print(f"{name:52s} {m['value']:>16.6g} {m['unit']}")
    print(f"{'failed_frac':52s} {run.failed / run.attempted:>16.6g} frac "
          f"({run.failed} of {run.attempted} reports)")
    for note in run.failure_notes:
        print(f"# failure: {note}")
    print(f"# details in {os.path.relpath(path, harness.ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
