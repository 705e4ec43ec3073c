"""dcea benchmark: appraisal and attestation-round workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fleet_appraisal --seed 1 --seconds 30 --trace 0

Each workload runs in this one process as a single client in a closed loop,
with no threads: the next op starts when the previous one has returned.
Inputs are made from ``--seed`` alone, in batches between timed windows.

Measuring lasts ``--seconds`` of wall time, in windows of about WINDOW_S of
op time. Each window is bracketed by a fixed probe that runs no dcea code,
so the probe's duration tells how fast the shared machine was running at
the time. The timing metrics come from the quietest QUIET_SHARE of the
windows by that probe, and are then scaled to the reference speed at which
the two probes take PROBE_REF_NS: a time is multiplied, and a rate divided,
by PROBE_REF_NS over the median probe time of those windows. Because the
probe never runs dcea, a slowdown that dcea causes stays in the figures;
what the selection and the scaling remove is the drift of the shared
machine's speed. ``setup_s`` is treated alike: complete set-ups are
repeated through the run, each bracketed by the probe, and the metric is
the median scaled time of the quieter half. The measured wall-clock figures
and the scale factor are printed too. Correctness counts every op of every
window, the warm-up included.

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
``--trace 1`` reports the per-layer metrics. It alternates untraced and
traced windows, and the throughput of each kind gives the tracing overhead.
It derives per-function and per-layer figures from the spans of the traced
ops, and it times each verifier check C1..C8 through the public
``disabled_checks`` hook.

Human-readable lines, the environment record among them, come first on
stdout. The last line is one JSON object with keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The full record also goes to
``perfbench/results/``, and a traced run writes its spans there too.
"""

from __future__ import annotations

import argparse
import gc
import importlib.metadata
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import traceback
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, perf_counter_ns
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

SETUP_FIRST = 3  # complete set-ups before measuring; the last one is used
SETUP_EVERY_S = 3.0  # one more set-up, between windows, per this much measuring
WARMUP_S = 0.5  # wall time of untimed ops before measuring
WINDOW_S = 0.25  # op time per window
WINDOW_MIN_OPS = 16
QUIET_SHARE = 0.25  # share of windows, quietest by probe, that the timings use
# Time of the two probes around a window at the reference speed: about the
# fast state of a shared 2-vCPU Xeon VM. Only the ratio of two runs' figures
# matters, so its value is a choice of unit.
PROBE_REF_NS = 2_500_000
PER_CHECK_S = 2.0  # time spent on the C1..C8 rows in a traced run

END_TO_END_UNITS = {
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def import_dcea():
    """Import dcea from this checkout's ``src/``, and from nowhere else."""
    package = ROOT / "src" / "dcea"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: no dcea sources at {package}; run from a checkout of the repository")
    sys.path.insert(0, str(ROOT / "src"))
    import dcea

    if Path(dcea.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported dcea from {dcea.__file__}, not from {package}")


class Probe:
    """A fixed slice of the same kinds of work dcea does (Ed25519 verifies in
    native code, then interpreted Python), calling no dcea code. Its
    duration tracks how fast the machine runs at the moment."""

    def __init__(self):
        from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

        key = Ed25519PrivateKey.from_private_bytes(bytes(range(32)))
        self.message = bytes(200)
        self.signature = key.sign(self.message)
        self.public = key.public_key()

    def __call__(self) -> int:
        start = perf_counter_ns()
        for _ in range(8):
            self.public.verify(self.signature, self.message)
        acc = 0
        for i in range(4000):
            acc ^= i * i
        return perf_counter_ns() - start


@dataclass
class Window:
    latencies_ns: List[int]
    errors: int
    probe_ns: int  # the two probes around the window, summed
    traced: bool = False


def pooled(windows: List[Window]) -> List[int]:
    return [x for w in windows for x in w.latencies_ns]


def quiet(windows: List[Window]) -> List[Window]:
    ranked = sorted(windows, key=lambda w: w.probe_ns)
    return ranked[: max(1, math.ceil(len(ranked) * QUIET_SHARE))]


def slowdown(windows: List[Window]) -> float:
    """How much slower than the reference speed the machine ran in these
    windows: timings are divided by this, rates multiplied."""
    return statistics.median(w.probe_ns for w in windows) / PROBE_REF_NS


def throughput(latencies_ns: List[int]) -> float:
    return len(latencies_ns) / (sum(latencies_ns) / 1e9)


def percentile_ms(latencies_ns: List[int], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(latencies_ns)
    rank = max(1, math.ceil(len(ordered) * q / 100))
    return ordered[rank - 1] / 1e6


class Runner:
    """A workload, its queue of prepared inputs, and the closed loop."""

    def __init__(self, workload_cls, seed: int):
        self.workload_cls, self.seed = workload_cls, seed
        self.probe = Probe()
        self.first_error_reported = False
        self.setups: List[Tuple[float, int]] = []  # (seconds, probe_ns)
        for _ in range(SETUP_FIRST):
            self.workload, items = self.set_up()
        self.pending = deque(items)

    def set_up(self):
        """One complete set-up from scratch, timed and bracketed by the probe."""
        workload = self.workload_cls(self.seed)
        before = self.probe()
        start = perf_counter()
        items = workload.setup()
        elapsed = perf_counter() - start
        self.setups.append((elapsed, before + self.probe()))
        return workload, items

    def setup_s(self) -> float:
        """Median time of the quieter half of the set-ups, by probe, each
        scaled to the reference speed."""
        ranked = sorted(self.setups, key=lambda s: s[1])
        quieter = ranked[: math.ceil(len(ranked) / 2)]
        return statistics.median(t * PROBE_REF_NS / probe for t, probe in quieter)

    def _take(self, n: int) -> list:
        while len(self.pending) < n:
            self.pending.extend(self.workload.refill())
        return [self.pending.popleft() for _ in range(n)]

    def _run(self, items, tracer=None):
        op, check = self.workload.op, self.workload.check
        latencies, errors = [], 0
        for item in items:
            start = perf_counter_ns()
            try:
                result = op(item) if tracer is None else tracer.run_op(op, item)
            except Exception:
                result = None
                self._report_error()
            latencies.append(perf_counter_ns() - start)
            if not check(item, result):
                errors += 1
        return latencies, errors

    def measure(self, seconds: float, tracer=None) -> List[Window]:
        """Run windows for ``seconds`` of wall time (at least two), with a
        spare set-up every SETUP_EVERY_S between them, so set-up is timed
        across the whole run. With a tracer, every second window is traced."""
        windows: List[Window] = []
        n = WINDOW_MIN_OPS
        gc.collect()
        next_setup = perf_counter() + SETUP_EVERY_S
        deadline = perf_counter() + seconds
        while perf_counter() < deadline or len(windows) < 2:
            if perf_counter() >= next_setup:
                self.set_up()
                next_setup += SETUP_EVERY_S
            traced = tracer is not None and len(windows) % 2 == 1
            items = self._take(n)
            if traced:
                tracer.install()
            try:
                before = self.probe()
                latencies, errors = self._run(items, tracer if traced else None)
                after = self.probe()
            finally:
                if traced:
                    tracer.uninstall()
            windows.append(Window(latencies, errors, before + after, traced))
            n = max(WINDOW_MIN_OPS, round(WINDOW_S * throughput(latencies)))
        return windows

    def _report_error(self):
        if not self.first_error_reported:
            self.first_error_reported = True
            traceback.print_exc(file=sys.stderr)


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(runner: Runner, seconds: float):
    windows = runner.measure(seconds)
    chosen = quiet(windows)
    timed, factor = pooled(chosen), slowdown(chosen)
    metrics = {
        "throughput_ops_s": throughput(timed) * factor,
        "latency_p50_ms": percentile_ms(timed, 50) / factor,
        "setup_s": runner.setup_s(),
        "peak_rss_mb": peak_rss_mib(),
    }
    return windows, metrics, dict(END_TO_END_UNITS), describe(runner, windows)


def describe(runner: Runner, windows: List[Window]) -> List[str]:
    """What the metrics were drawn from, and the measured wall-clock figures.
    p99 is reported here and in traced runs but carries no bound: on a shared
    machine its run-to-run spread exceeds any bound the benchmark may set."""
    calm = quiet(windows)
    chosen, every, factor = pooled(calm), pooled(windows), slowdown(calm)
    return [
        f"timings from {len(chosen)} ops in the quietest {len(calm)} of {len(windows)} "
        f"windows; slowdown {factor:.4f} (all windows {slowdown(windows):.4f})",
        f"quiet windows, as measured: throughput {throughput(chosen):.1f}/s, "
        f"p50 {percentile_ms(chosen, 50):.3f} ms, p99 {percentile_ms(chosen, 99):.3f} ms; "
        f"p99 at reference speed {percentile_ms(chosen, 99) / factor:.3f} ms",
        f"all windows, as measured: throughput {throughput(every):.1f}/s, "
        f"p50 {percentile_ms(every, 50):.3f} ms, p99 {percentile_ms(every, 99):.3f} ms",
        "set-ups, as measured (s) / probe (ms): " + " ".join(
            f"{t:.4f}/{probe / 1e6:.2f}" for t, probe in runner.setups
        ),
    ]


def per_check_us(appraisals, seconds: float, rng) -> Dict[str, float]:
    """Cost of each check alone: the time of a verify with only that check
    enabled minus one with all eight disabled, per bundle (medians over
    repetitions), averaged over the bundles. Values below the timer's noise
    are reported as measured, negative ones included."""
    from dcea import evidence, verifier
    from workloads import ALL_CHECKS, fresh_verifier

    configs = [("none", ALL_CHECKS)] + [(c, ALL_CHECKS - {c}) for c in verifier.CHECK_IDS]
    bundles = [evidence.deserialize(a.wire) for a in appraisals]
    times = [{name: [] for name, _ in configs} for _ in appraisals]
    deadline = perf_counter() + seconds
    reps = 0
    while reps < 3 or perf_counter() < deadline:
        reps += 1
        for a, bundle, slot in zip(appraisals, bundles, times):
            for name, disabled in configs:
                v = fresh_verifier(a.policy, a.registrations, rng)
                v.adopt_challenge(a.challenge)
                start = perf_counter_ns()
                v.verify(bundle, a.challenge, disabled_checks=disabled)
                slot[name].append(perf_counter_ns() - start)
    rows = {}
    for check_id in verifier.CHECK_IDS:
        diffs = [
            statistics.median(slot[check_id]) - statistics.median(slot["none"])
            for slot in times
        ]
        rows[f"verifier.{check_id}_us"] = statistics.fmean(diffs) / 1e3
    return rows


def per_layer(runner: Runner, seconds: float, workload_name: str):
    """Alternate untraced and traced windows, then derive the layer figures."""
    import tracing

    tracer = tracing.Tracer()
    windows = runner.measure(seconds, tracer=tracer)
    metrics = tracing.layer_metrics(tracer.spans, tracer.counts, tracer.ops)
    units = {name: "count" if name.endswith(".calls_per_op") else "us" for name in metrics}

    sample = runner.workload.appraisal_sample(runner.workload.refill())
    checks = per_check_us(sample, PER_CHECK_S, random.Random(0))
    metrics.update(checks)
    units.update({name: "us" for name in checks})

    untraced = quiet([w for w in windows if not w.traced])
    traced = quiet([w for w in windows if w.traced])
    untraced_tp = throughput(pooled(untraced)) * slowdown(untraced)
    traced_tp = throughput(pooled(traced)) * slowdown(traced)
    metrics["latency_p99_ms"] = percentile_ms(pooled(untraced), 99) / slowdown(untraced)
    units["latency_p99_ms"] = "ms"
    metrics["trace.untraced_throughput_ops_s"] = untraced_tp
    metrics["trace.traced_throughput_ops_s"] = traced_tp
    metrics["trace.overhead_pct"] = (untraced_tp - traced_tp) / untraced_tp * 100.0
    units["trace.untraced_throughput_ops_s"] = "1/s"
    units["trace.traced_throughput_ops_s"] = "1/s"
    units["trace.overhead_pct"] = "%"

    ops = sum(len(w.latencies_ns) for w in windows)
    metrics["error_rate"] = sum(w.errors for w in windows) / ops
    units["error_rate"] = "ratio"

    silent = [
        name for name in expected_to_fire(workload_name)
        if metrics[f"{name}.calls_per_op"] == 0
    ]
    notes = describe(runner, [w for w in windows if not w.traced])
    notes.append(f"traced ops {tracer.ops}; spans {len(tracer.spans)}")
    notes += [f"traced function never called: {name}" for name in silent]
    return windows, metrics, units, notes, tracer, silent


def expected_to_fire(workload_name: str):
    """Traced functions the workload's ops must call; a zero count means the
    wrapping missed a call path."""
    import tracing

    if workload_name == "attestation_rounds":  # a round makes its wire bytes, never parses them
        return tuple(
            n for n in tracing.SPAN_NAMES + tracing.COUNT_NAMES if n != "evidence.deserialize"
        )
    return (
        "evidence.deserialize", "verifier.Verifier.verify", "verifier.verify_bundle",
        "crypto.verify", "crypto.verify_chain", "td.verify_td_report_signature",
        "tpm.verify_quote_signature", "evidence.check_rtmr_pcr_consistency",
        "evidence.replay_event_log",
    )


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(workload: str, seed: int, why: str) -> dict:
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "cryptography": importlib.metadata.version("cryptography"),
        "git_commit": git_commit(),
        "workload": workload,
        "seed": seed,
        "why": why,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_dcea()
    from workloads import WHY, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    env = environment(args.workload, args.seed, WHY[args.workload])
    runner = Runner(WORKLOADS[args.workload], args.seed)
    warm = runner.measure(WARMUP_S)  # caches and lazy set-up; errors here count too

    silent: List[str] = []
    tracer = None
    if args.trace:
        windows, metrics, units, notes, tracer, silent = per_layer(
            runner, args.seconds, args.workload
        )
    else:
        windows, metrics, units, notes = end_to_end(runner, args.seconds)

    attempted = sum(len(w.latencies_ns) for w in warm + windows)
    failed = sum(w.errors for w in warm + windows)
    correct = failed == 0 and not silent
    results = {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}

    print(f"# workload {args.workload}: {env['why']}")
    print(f"# environment {json.dumps(env)}")
    print(f"# ops {attempted} (warm-up included), failed {failed}")
    for note in notes:
        print(f"# {note}")
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "environment": env, "attempted": attempted, "failed": failed,
        "correct": correct, "notes": notes, "metrics": results,
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write_spans(RESULTS / f"{stem}.spans.jsonl")

    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": results,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
