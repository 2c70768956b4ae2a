"""The repository's end-to-end benchmark: one runner, one output schema.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig8-mix --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing traced;
``--trace 1`` runs the same operations rebuilt layer by layer
(``layers.py``) and reports per-layer metrics. The last line of standard
output is the result object; the line before it is a detail record
(seed, generator configs, input sizes, per-operation result counts and
routes, the calibration-loop time, the tail percentile and its sample
count). Every operation's output is checked against an independent
reference; any mismatch or exception is counted in ``failed`` and makes
the exit status 1. ``README.md`` says why each workload exists.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import signal
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: In-process set-up is repeated this many times and ``import repro`` is
#: timed in this many fresh interpreters; ``setup_s`` adds the medians.
#: ``EARLY_IMPORTS`` of the imports run at set-up and the rest after the
#: timed loop, so that their median spans the host's slow and fast phases.
SETUP_REPEATS = 5
IMPORT_REPEATS = 5
EARLY_IMPORTS = 2
#: The child interpreter scales its own import time by a loop of this many
#: slices, timed before and after the import in the same process: a
#: one-slice loop there was noisier than the import (README.md).
IMPORT_LOOP_SLICES = 5
#: ``latency_tail_s`` is this fixed percentile of the pooled latencies
#: (README.md says why it is fixed rather than the highest percentile
#: with ten samples beyond it); the detail record gives its sample count.
TAIL_PERCENTILE = 90
#: A fixed pure-Python loop is timed right before and right after every
#: operation (every ``STREAM_CHUNK`` appends on ``fig9-stream``). Each
#: reported time is the operation's wall time scaled by
#: ``REFERENCE_SLICE_S`` over that loop's mean time: the host's speed
#: swings by up to 1.7x within seconds (co-tenants), and the loop,
#: sampled around the operation, tracks it. README.md has the numbers.
CALIBRATION_SLICE = 200_000
REFERENCE_SLICE_S = 0.02
STREAM_CHUNK = 500

#: Prints ``import repro``'s wall time and the mean time of the loop
#: around it (argv: source root, loop iterations).
_IMPORT_PROBE = """\
import sys, time
def loop(n=int(sys.argv[2])):
    start = time.perf_counter()
    acc = 0
    for i in range(n):
        acc += i * i % 7
    return time.perf_counter() - start
sys.path.insert(0, sys.argv[1])
before = loop()
start = time.perf_counter()
import repro
seconds = time.perf_counter() - start
print(seconds, (before + loop()) / 2)
"""


def calibrate(iterations: int = CALIBRATION_SLICE) -> float:
    start = time.perf_counter()
    acc = 0
    for i in range(iterations):
        acc += i * i % 7
    return time.perf_counter() - start


class Sample:
    """One timed operation: raw wall time and the loop time around it."""

    __slots__ = ("label", "seconds", "slice_s", "results", "tuples", "ok")

    def __init__(self, label, seconds, results, tuples, ok):
        self.label = label
        self.seconds = seconds
        self.slice_s = REFERENCE_SLICE_S
        self.results = results
        self.tuples = tuples
        self.ok = ok

    @property
    def scaled(self) -> float:
        return self.seconds * REFERENCE_SLICE_S / self.slice_s


def _timed(label, call, check, tuples) -> Sample:
    """Run one operation; a raise or a wrong answer is a failed sample."""
    gc.collect()
    before = calibrate()
    start = time.perf_counter()
    try:
        out = call()
    except Exception:  # every failure is counted, never fatal to the run
        seconds = time.perf_counter() - start
        print(f"{label}: raised\n{traceback.format_exc()}", file=sys.stderr)
        return Sample(label, seconds, 0, tuples, False)
    seconds = time.perf_counter() - start
    sample = Sample(label, seconds, 0, tuples, True)
    sample.slice_s = (before + calibrate()) / 2
    sample.results = check(out)
    if sample.results is None:
        print(f"{label}: wrong result", file=sys.stderr)
        sample.ok, sample.results = False, 0
    return sample


def _checker(reference):
    from inputs import fingerprint

    def check(out):
        return len(out) if fingerprint(out) == reference else None

    return check


def _distinct(operations):
    """``(label, call)`` once per distinct operation label."""
    return {label: call for label, call, _ in operations}.items()


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class Reads:
    """Independent ``temporal_join`` reads in a fixed rotation.

    ``fig8-mix`` runs them serially; ``sharded`` runs them with
    ``workers=2, parallel_mode="process"``.
    """

    def __init__(self, templates, configs, **run_kwargs):
        self.templates = templates
        self.configs = configs
        self.run_kwargs = run_kwargs

    def setup(self) -> None:
        """Nothing beyond ``import repro``: every read is cold."""

    def operations(self):
        for t in self.templates:
            yield t.name, (lambda t=t: t.run(**self.run_kwargs)), t

    def rotation(self):
        for label, call, t in self.operations():
            yield _timed(label, call, _checker(t.reference), t.tuples)

    def peak_calls(self):
        return _distinct(self.operations())

    def describe(self):
        return {t.name: t.route for t in self.templates}


class Fleet:
    """``fig9-fleet``: one ``run_batch`` per operation over a prepared case."""

    def __init__(self, cases, configs):
        self.cases = cases
        self.configs = configs
        self.prepared = {}

    def setup(self) -> None:
        from repro import prepare

        self.prepared = {case.name: prepare(case.database) for case in self.cases}

    #: Case indices of one rotation. LDBC runs twice so that the median
    #: and the tail both fall inside one case's latencies rather than on
    #: the edge between the two cases.
    ROTATION = (0, 1, 1)

    def operations(self):
        from repro import run_batch

        for index in self.ROTATION:
            case = self.cases[index]
            artifact = self.prepared[case.name]
            yield case.name, (
                lambda case=case, artifact=artifact:
                run_batch(case.queries, artifact, tau=case.tau)
            ), case

    def rotation(self):
        from inputs import fingerprint

        for label, call, case in self.operations():
            def check(outs, case=case):
                if [fingerprint(o) for o in outs] != case.references:
                    return None
                return sum(len(o) for o in outs)

            yield _timed(label, call, check, case.tuples)

    def peak_calls(self):
        return _distinct(self.operations())

    def describe(self):
        from repro import explain_analyze

        routes = {}
        for case in self.cases:
            for name, query in case.fleet:
                report = explain_analyze(
                    query, case.database, case.tau,
                    prepared=self.prepared[case.name],
                )
                routes[f"{case.name}/{name}"] = f"{report.algorithm}/{report.engine}"
        return routes


class Stream:
    """``fig9-stream``: one producer appending tuple by tuple, per case.

    Each operation is one ``append`` (or the closing ``finish``); a pass
    registers the case's fleet on a fresh service, which is set-up work
    and untimed, and ends by checking every snapshot against offline.
    """

    def __init__(self, cases, configs):
        self.cases = cases
        self.configs = configs
        self.arrivals = {}

    def setup(self) -> None:
        from layers import register_fleet

        for case in self.cases:
            register_fleet(case)

    def _arrivals(self, case):
        from repro.algorithms.online import arrivals_from_database

        if case.name not in self.arrivals:
            self.arrivals[case.name] = arrivals_from_database(case.database)
        return self.arrivals[case.name]

    def rotation(self):
        from inputs import fingerprint
        from layers import register_fleet

        for case in self.cases:
            arrivals = self._arrivals(case)
            gc.collect()
            service, handles = register_fleet(case)
            append = service.append
            clock = time.perf_counter
            samples = []
            try:
                for at in range(0, len(arrivals), STREAM_CHUNK):
                    chunk = []
                    before = calibrate()
                    for relation, values, interval in arrivals[at:at + STREAM_CHUNK]:
                        start = clock()
                        delivered = append(relation, values, interval)
                        chunk.append(Sample(case.name, clock() - start, delivered, 1, True))
                    slice_s = (before + calibrate()) / 2
                    for sample in chunk:
                        sample.slice_s = slice_s
                    samples.extend(chunk)
                before = calibrate()
                start = clock()
                delivered = service.finish()
                last = Sample(case.name, clock() - start, delivered, 0, True)
                last.slice_s = (before + calibrate()) / 2
            except Exception:  # a broken pass is one failed operation
                print(f"{case.name}: raised\n{traceback.format_exc()}", file=sys.stderr)
                yield from samples
                yield Sample(case.name, 0.0, 0, 0, False)
                continue
            snapshots = [fingerprint(h.snapshot().results) for h in handles]
            if snapshots != case.references:
                print(f"{case.name}: snapshot differs from offline", file=sys.stderr)
                last.ok = False
            yield from samples
            yield last

    def peak_calls(self):
        from layers import serve_pass

        for case in self.cases:
            yield case.name, lambda case=case: serve_pass(case)

    def describe(self):
        from layers import register_fleet

        routes = {}
        for case in self.cases:
            service, _ = register_fleet(case)
            for name, _query in case.fleet:
                choice = service.plan_for(name)
                routes[f"{case.name}/{name}"] = (
                    f"serve/online (plan: {choice.algorithm}/{choice.engine})"
                )
        return routes


def build(workload: str, seed: int):
    import inputs

    if workload == "fig8-mix":
        return Reads(*inputs.fig8_templates(seed))
    if workload == "fig9-fleet":
        return Fleet(*inputs.fig9_cases(seed))
    if workload == "fig9-stream":
        return Stream(*inputs.fig9_cases(seed))
    if workload == "sharded":
        return Reads(*inputs.sharded_templates(seed), workers=2,
                     parallel_mode="process")
    raise ValueError(workload)


def trace(workload: str, bench, seconds: float):
    import layers

    if workload == "fig8-mix":
        return layers.trace_reads(bench.templates, seconds)
    if workload == "fig9-fleet":
        return layers.trace_fleet([bench.cases[i] for i in bench.ROTATION], seconds)
    if workload == "fig9-stream":
        return layers.trace_stream(bench.cases, seconds)
    return layers.trace_sharded(bench.templates, seconds)


WORKLOADS = ("fig8-mix", "fig9-fleet", "fig9-stream", "sharded")


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
def _import_seconds() -> float:
    """``import repro`` in a fresh interpreter, scaled by that
    interpreter's own loop."""
    slices = IMPORT_LOOP_SLICES
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(SRC),
         str(slices * CALIBRATION_SLICE)],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
    )
    seconds, loop_s = map(float, done.stdout.split()[-2:])
    return seconds * REFERENCE_SLICE_S * slices / loop_s


def _scaled_call(fn) -> float:
    """``fn()``'s duration, scaled like an operation's (see Sample)."""
    before = calibrate()
    start = time.perf_counter()
    fn()
    seconds = time.perf_counter() - start
    return seconds * REFERENCE_SLICE_S * 2 / (before + calibrate())


def measure_setup(bench) -> dict:
    """In-process set-up samples and the first ``import repro`` samples;
    :func:`finish_setup` takes the rest after the timed loop."""
    local = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        local.append(_scaled_call(bench.setup))
    return {
        "in_process_samples": local,
        "import_samples": [_import_seconds() for _ in range(EARLY_IMPORTS)],
    }


def finish_setup(setup) -> float:
    """``setup_s``: median import + median in-process set-up."""
    setup["import_samples"] += [
        _import_seconds() for _ in range(IMPORT_REPEATS - EARLY_IMPORTS)
    ]
    setup["import_s"] = statistics.median(setup["import_samples"])
    setup["in_process_s"] = statistics.median(setup["in_process_samples"])
    return setup["import_s"] + setup["in_process_s"]


def measure_peak(bench) -> dict:
    """tracemalloc peak of each operation, each in its own traced call."""
    peaks = {}
    for label, call in bench.peak_calls():
        gc.collect()
        tracemalloc.start()
        try:
            call()
            peaks[label] = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
    return peaks


def tail(latencies):
    """``(value, samples beyond it)`` at ``TAIL_PERCENTILE``."""
    if len(latencies) < 2:
        return latencies[0], 0
    value = statistics.quantiles(latencies, n=100, method="inclusive")[
        TAIL_PERCENTILE - 1
    ]
    return value, sum(1 for x in latencies if x > value)


def measure(bench, seconds: float):
    """Whole rotations in a closed loop until ``seconds`` have passed."""
    samples = []
    rotations = 0
    deadline = time.perf_counter() + seconds
    while rotations == 0 or time.perf_counter() < deadline:
        samples.extend(bench.rotation())
        rotations += 1
    return samples, rotations


def end_to_end(samples, setup_s, peaks) -> tuple:
    done = [s for s in samples if s.ok]
    busy = sum(s.scaled for s in done)
    latencies = [s.scaled for s in done]
    tail_value, beyond = tail(latencies)
    metrics = {
        "setup_s": (setup_s, "s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_tail_s": (tail_value, "s"),
        "ops_per_s": (len(done) / busy, "1/s"),
        "results_per_s": (sum(s.results for s in done) / busy, "1/s"),
        "ingest_tuples_per_s": (sum(s.tuples for s in done) / busy, "1/s"),
        "peak_mb": (max(peaks.values()), "MB"),
    }
    return (
        {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        {"tail_percentile": TAIL_PERCENTILE, "tail_samples_beyond": beyond,
         "samples": len(latencies),
         "slice_s_median": statistics.median(s.slice_s for s in done),
         "raw_latency_p50_s": statistics.median(s.seconds for s in done),
         "raw_ops_per_s": len(done) / sum(s.seconds for s in done)},
    )


def stop_children() -> None:
    """Stop and reap every process this run started.

    The ``sharded`` pools join their workers on exit, but the first spawn
    pool also starts multiprocessing's resource tracker, which outlives
    its parent unless told to stop; left alone it lingers as an orphan
    after the benchmark has exited.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    tracker = resource_tracker._resource_tracker
    if hasattr(tracker, "_stop"):
        tracker._stop()  # closes the tracker's pipe and waits for it
    elif getattr(tracker, "_fd", None) is not None:
        os.close(tracker._fd)
        os.waitpid(tracker._pid, 0)
        tracker._fd = tracker._pid = None


def main(argv=None) -> int:
    # A SIGTERM unwinds like an exception, so the children are stopped too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        return run(argv)
    finally:
        stop_children()


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import repro  # noqa: F401  (compiles bytecode before import is timed)

    stages = {}
    mark = time.perf_counter()

    def stage(name):
        nonlocal mark
        now = time.perf_counter()
        stages[name] = now - mark
        mark = now

    bench = build(args.workload, args.seed)
    stage("inputs_and_references")
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "configs": bench.configs,
        "calibration_slice_s": calibrate(),
        "stages_s": stages,
    }
    setup = measure_setup(bench)
    detail["setup"] = setup
    detail["routes"] = bench.describe()
    stage("setup")
    # One untimed rotation: fills the planner memo and finishes lazy
    # imports, so timed operations cost what users pay on every call.
    warm = list(bench.rotation())
    detail["results_per_rotation"] = per_label = {}
    for s in warm:
        per_label[s.label] = per_label.get(s.label, 0) + s.results
    stage("warm_up")

    if args.trace:
        layers = trace(args.workload, bench, args.seconds)
        metrics = layers.metrics()
        detail["trace"] = layers.detail()
        samples = warm
        stage("traced")
    else:
        samples, rotations = measure(bench, args.seconds)
        stage("measured")
        peaks = measure_peak(bench)
        stage("peak_pass")
        setup_s = finish_setup(setup)
        stage("late_imports")
        metrics, tail_info = end_to_end(samples, setup_s, peaks)
        detail.update(tail_info, rotations=rotations, peak_mb=peaks)

    failed = sum(1 for s in samples if not s.ok)
    detail["failed_frac"] = failed / len(samples)
    print(json.dumps(detail, sort_keys=True, default=str))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
