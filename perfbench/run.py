"""smoothstl benchmark: end-to-end latencies, per-layer timings and a trace.

Run from the repository root:

    python3 perfbench/run.py --workload synth_charging --seed 0 --seconds 30 --trace 0

--trace 0 measures the end-to-end metrics with tracing off: set-up time,
closed-loop call latency, the latency of the three evaluation calls
(exact, smooth, smooth with gradient) and peak memory. Times are scaled
to reference speed with the probe in calib.py, which runs before, during
and after each timed stretch, so that the host's changes of speed cancel
out; the raw wall times are printed beside them. --trace 1 measures
the per-layer metrics instead: each public function timed on its own on
the workload's inputs, exact operator counts, and a traced closed loop
whose spans give each layer's share of the call. Every run checks the
outputs it times. Each workload runs as a closed loop in this one
single-threaded process: a call starts when the previous one returns.

The script prints one metric per line with its unit and sample count,
then, as the last line, a JSON object with the keys correct, attempted,
failed and metrics. Spans of traced runs are written to perfbench/out/.
It uses only the public smoothstl API and the standard library plus
numpy. It refuses to run when STL_SMOOTH_THREADS is set to anything other
than 1, because threaded runs are not comparable.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

# share of a synthesis run's --trace 0 time spent on the three evaluation
# calls; the rest goes to synthesize() calls
EVAL_SHARE = 0.1
# share of a --trace 1 run spent timing single functions; the rest runs
# untraced/traced pairs of closed-loop calls
LAYER_SHARE = 0.4
MIN_REPEATS = 3
# a call shorter than this, in ms at reference speed, is run several
# times in one measured stretch, so that the probes around the stretch
# and a cold start do not swamp it
STRETCH_MS = 20.0
# set-up is measured in-process once and in this many fresh interpreters
SETUP_PROBES = 6

TRACED_NAMES = (
    "objective",
    "rollout_with_sensitivities",
    "eval_with_gradient",
    "evaluate",
    "rollout",
    "control_gradient",
)


class Refused(Exception):
    """The benchmark cannot run here; reported without a result line."""


class Tally:
    """Attempted and failed calls, plus run-level check failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def attempt(self, what, fn, check):
        """Run fn, then check its result.

        Returns the result, or None when fn raised. A call that fails its
        check is counted as failed but its result is kept.
        """
        self.attempted += 1
        try:
            result = fn()
            errors = check(result)
        except Exception as exc:  # a failing call is counted, not fatal
            result, errors = None, [f"{type(exc).__name__}: {exc}"]
        if errors:
            self.failed += 1
            print(f"FAILED {what}: {'; '.join(errors)}", file=sys.stderr)
        return result

    def problem(self, message):
        self.problems.append(message)
        print(f"CHECK FAILED: {message}", file=sys.stderr)

    def same_each_time(self, seen, key, value, what):
        """Record value under key; complain when a repeat differs."""
        if key in seen and seen[key] != value:
            self.problem(f"{what} differs between repeats of input {key}: {seen[key]} vs {value}")
        seen.setdefault(key, value)


def runs_per_stretch(ref_s):
    """Runs of a call that took ref_s reference seconds per measured stretch."""
    return max(1, math.ceil(STRETCH_MS / (ref_s * 1e3)))


def summary(samples):
    """(median, first quartile, third quartile, 90th percentile, n)."""
    med = statistics.median(samples)
    if len(samples) < 2:
        return med, med, med, med, len(samples)
    q1, _, q3 = statistics.quantiles(samples, n=4)
    p90 = statistics.quantiles(samples, n=10)[-1]
    return med, q1, q3, p90, len(samples)


def _digest_note(digests):
    return " ".join(f"{key}:{digest[:16]}" for key, digest in sorted(digests.items()))


def machine_facts():
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next(line.split(":", 1)[1].strip() for line in info if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
    }


def setup_probe_seconds(workload, seed):
    """(wall, reference) set-up seconds of a fresh interpreter running
    this script's set-up."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    wall, ref = done.stdout.strip().splitlines()[-1].split()
    return float(wall), float(ref)


# ---------------------------------------------------------------------------
# --trace 0: end-to-end metrics, tracing off


class MonitorLoop:
    """Closed loop of (exact, smooth, gradient) calls over prep's signals.

    Latencies at reference speed go to samples["exact"|"smooth"|"grad"]
    and, when count_call is set, their sum to samples["call"]; the raw
    wall times go to raw[kind]. The loop resumes where the last run_until
    stopped, cycling through the signals. An untimed warm-up call decides
    how often each kind runs per measured stretch (runs_per_stretch).
    """

    def __init__(self, sst, wl, prep, tally, clock, samples, raw, count_call):
        self.sst, self.wl, self.prep, self.tally, self.clock = sst, wl, prep, tally, clock
        self.samples, self.raw, self.count_call = samples, raw, count_call
        self.digests = {}
        self.first = None  # outcome on signal 0, for the oracle check
        self.i = 0
        self.repeats = None

    def run_until(self, deadline):
        """Run calls until deadline, at least one."""
        problem, signals = self.prep.problems[0], self.prep.signals
        if self.repeats is None:
            try:
                warm = self.wl.monitor_call(self.sst, problem, signals[0], self.clock.measure)
                self.repeats = tuple(runs_per_stretch(ref) for ref in warm.refs)
            except Exception:  # the timed calls below count the failure
                self.repeats = (1, 1, 1)
        while True:
            k = self.i % len(signals)
            out = self.tally.attempt(
                f"monitor signal {k}",
                lambda: self.wl.monitor_call(
                    self.sst, problem, signals[k], self.clock.measure, self.repeats
                ),
                self.wl.check_monitor,
            )
            self.i += 1
            if out is not None:
                for kind, wall, ref in zip(("exact", "smooth", "grad"), out.walls, out.refs):
                    self.samples[kind].append(ref * 1e3)
                    self.raw[kind].append(wall * 1e3)
                if self.count_call:
                    self.samples["call"].append(sum(out.refs) * 1e3)
                    self.raw["call"].append(sum(out.walls) * 1e3)
                digest = self.wl.monitor_digest(out)
                self.tally.same_each_time(self.digests, k, digest, "monitor digest")
                if k == 0 and self.first is None:
                    self.first = out
            if time.perf_counter() >= deadline:
                return


def end_to_end(sst, wl, prep, seconds, setup, tally, clock, seed):
    start = time.perf_counter()
    samples = {"call": [], "exact": [], "smooth": [], "grad": []}
    raw = {kind: [] for kind in samples}
    lines = []
    monitor = MonitorLoop(sst, wl, prep, tally, clock, samples, raw, prep.kind == "monitor")
    if prep.kind == "monitor":
        monitor.run_until(start + seconds)
        digests = monitor.digests
        if monitor.first is not None:
            sys.path.insert(0, str(ROOT / "tests"))
            import oracle

            problem = prep.problems[0]
            for err in wl.check_against_oracle(problem, prep.signals[0], monitor.first, oracle):
                tally.problem(err)
    else:
        # Evaluation calls are interleaved with the synthesize() calls, at
        # EVAL_SHARE of the time used so far, so that both sample the same
        # stretch of machine speed.
        digests, rho, sat = {}, [], []
        synth_s = eval_s = 0.0
        i = 0
        while i == 0 or time.perf_counter() < start + seconds:
            t0 = time.perf_counter()
            monitor.run_until(t0 + EVAL_SHARE / (1 - EVAL_SHARE) * synth_s - eval_s)
            eval_s += time.perf_counter() - t0
            problem = prep.problems[i % len(prep.problems)]
            t0 = time.perf_counter()
            timed = tally.attempt(
                f"synthesize seed {problem.seed}",
                lambda: clock.measure(lambda: sst.synthesize(problem)),
                lambda timed: wl.check_synth(sst, problem, timed[0]),
            )
            synth_s += time.perf_counter() - t0
            if timed is not None:
                result, wall, ref = timed
                samples["call"].append(ref * 1e3)
                raw["call"].append(wall * 1e3)
                rho.append(result.rho_exact)
                sat.append(result.rho_exact > 0.0)
                tally.same_each_time(digests, problem.seed, wl.synth_digest(result), "u_star digest")
            i += 1
        if rho:
            lines.append(("sat_frac", sum(sat) / len(sat), "frac", f"n={len(sat)}"))
            lines.append(("rho_exact_p50", statistics.median(rho), "", f"n={len(rho)}"))

    if not samples["call"]:
        raise Refused("every timed call raised; no latency to report")
    setup = [setup] + [setup_probe_seconds(prep.name, seed) for _ in range(SETUP_PROBES)]
    walls, refs = zip(*setup)
    metrics = {"setup_s": (statistics.median(refs), "s")}
    lines.append(("setup_s", statistics.median(refs), "s", f"n={len(refs)} samples={list(refs)}"))
    lines.append(("setup_wall_s", statistics.median(walls), "s", f"samples={list(walls)}"))
    for kind in ("call", "exact", "smooth", "grad"):
        med, q1, q3, p90, n = summary(samples[kind])
        metrics[f"{kind}_p50_ms"] = (med, "ms")
        lines.append((f"{kind}_p50_ms", med, "ms", f"n={n} q1={q1:.4g} q3={q3:.4g}"))
        if kind != "call":
            lines.append((f"{kind}_p90_ms", p90, "ms", f"n={n}"))
        raw_med, raw_q1, raw_q3, _, _ = summary(raw[kind])
        lines.append((f"{kind}_wall_p50_ms", raw_med, "ms", f"q1={raw_q1:.4g} q3={raw_q3:.4g}"))
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    lines.append(("peak_rss_mb", *metrics["peak_rss_mb"], ""))
    lines.append(("digests", len(digests), "inputs", _digest_note(digests)))
    return metrics, lines


# ---------------------------------------------------------------------------
# --trace 1: per-layer metrics


def time_each(clock, fn, n_inputs, budget_s):
    """Times in ms at reference speed of fn(i) for i = 0, 1, ... over
    budget_s seconds, after an untimed warm-up call.

    Each sample is the mean over runs_per_stretch runs of fn(i).
    """
    _, _, ref = clock.measure(lambda: fn(0))
    n = runs_per_stretch(ref)
    samples = []
    end = time.perf_counter() + budget_s
    i = 0
    while i < MIN_REPEATS or time.perf_counter() < end:
        _, _, ref = clock.measure(lambda: [fn(i % n_inputs) for _ in range(n)])
        samples.append(ref * 1e3 / n)
        i += 1
    return samples


def layer_timings(sst, prep, clock, budget_s):
    """Each public function on its own, on the workload's own inputs."""
    config, problem = prep.config, prep.problems[0]
    phi, cfg, model = problem.phi, problem.config, problem.model
    regions = config.effective_regions()
    parsed = sst.parse(config.spec, regions, p=model.p)
    controls, signals = prep.controls, prep.signals
    sens = [sst.rollout_with_sensitivities(model, problem.x0, u) for u in controls]
    grads = [sst.eval_with_gradient(phi, s, 0, cfg) for s in signals]
    n = len(controls)
    cases = {
        "parser.parse_ms": (lambda i: sst.parse(config.spec, regions, p=model.p), 1),
        "formula.to_nnf_ms": (lambda i: sst.to_nnf(parsed), 1),
        "scenarios.build_problem_ms": (
            lambda i: sst.build_problem(config, seed=prep.seeds[i], **prep.overrides),
            len(prep.seeds),
        ),
        "robustness.exact_ms": (lambda i: sst.evaluate(phi, signals[i], 0, sst.EXACT), n),
        "robustness.smooth_ms": (lambda i: sst.evaluate(phi, signals[i], 0, cfg), n),
        "gradient.fwd_bwd_ms": (lambda i: sst.eval_with_gradient(phi, signals[i], 0, cfg), n),
        "dynamics.rollout_ms": (lambda i: sst.rollout(model, problem.x0, controls[i]), n),
        "dynamics.rollout_sens_ms": (
            lambda i: sst.rollout_with_sensitivities(model, problem.x0, controls[i]), n
        ),
        "dynamics.costate_ms": (lambda i: sens[i].control_gradient(grads[i].dsignal), n),
        "optimizer.objective_ms": (lambda i: sst.objective(problem, controls[i]), n),
    }
    budget_s /= len(cases)
    return {name: time_each(clock, fn, k, budget_s) for name, (fn, k) in cases.items()}


def trace_targets(sst):
    import smoothstl.dynamics
    import smoothstl.optimizer

    opt = smoothstl.optimizer
    return [(opt, name) for name in TRACED_NAMES if name != "control_gradient"] + [
        (smoothstl.dynamics.SensitivityRollout, "control_gradient"),
        (sst, "evaluate"),
        (sst, "eval_with_gradient"),
    ]


def per_layer(sst, wl, prep, seconds, tally, clock, seed):
    import spans

    start = time.perf_counter()
    timings = layer_timings(sst, prep, clock, LAYER_SHARE * seconds)
    metrics, lines = {}, []
    for name, samples in timings.items():
        med, q1, q3, _, n = summary(samples)
        metrics[name] = (med, "ms")
        lines.append((name, med, "ms", f"n={n} q1={q1:.4g} q3={q3:.4g}"))
    reverse = metrics["gradient.fwd_bwd_ms"][0] - metrics["robustness.smooth_ms"][0]
    metrics["gradient.reverse_ms"] = (reverse, "ms")
    lines.append(("gradient.reverse_ms", reverse, "ms", "fwd_bwd_ms - smooth_ms"))

    problem = prep.problems[0]
    with sst.count_operator_evals() as counter:
        sst.evaluate(problem.phi, prep.signals[0], 0, problem.config)
    counts = {
        "formula.nodes": sst.node_count(problem.phi),
        "robustness.ops_per_forward": counter.scalars // counter.forwards,
        "robustness.apps_per_forward": counter.applications // counter.forwards,
    }

    # Untraced/traced pairs of closed-loop calls on the same input, in
    # alternating order so drift in machine speed does not bias the
    # overhead. Outputs and counts must repeat exactly.
    if prep.kind == "monitor":
        inputs, check, digest = prep.signals, wl.check_monitor, wl.monitor_digest

        def call(k):
            return wl.monitor_call(sst, problem, inputs[k])

        def iterations(out):
            return 0
    else:
        inputs, digest = prep.problems, wl.synth_digest

        def call(k):
            return sst.synthesize(inputs[k])

        def check(result):
            return wl.check_synth(sst, inputs[k], result)

        def iterations(result):
            return sum(rec.iterations for rec in result.restart_records)
    tracer = spans.Tracer()
    targets = trace_targets(sst)

    def traced_call(k):
        # the output check runs after the originals are restored
        with tracer.patched(targets):
            return tracer.call(call, k)

    seen_digest, seen_counts = {}, {}
    refs = {False: [], True: []}
    per_call = {"forwards": [], "iterations": []}
    i = 0
    while i == 0 or time.perf_counter() < start + seconds:
        k = i % len(inputs)
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            fn = traced_call if traced else call
            with sst.count_operator_evals() as counter:
                timed = tally.attempt(
                    f"{'traced ' if traced else ''}call {k}",
                    lambda: clock.measure(lambda: fn(k)),
                    lambda timed: check(timed[0]),
                )
            if timed is None:
                continue
            out, _, ref = timed
            refs[traced].append(ref)
            tally.same_each_time(seen_digest, k, digest(out), "output digest (traced vs untraced)")
            op_counts = (counter.forwards, iterations(out), counter.scalars, counter.applications)
            tally.same_each_time(seen_counts, k, op_counts, "operator counts")
            per_call["forwards"].append(counter.forwards)
            per_call["iterations"].append(op_counts[1])
        i += 1
    if not refs[True] or not refs[False]:
        raise Refused("no traced/untraced pair completed")
    counts["optimizer.forwards"] = statistics.median(per_call["forwards"])
    counts["optimizer.iterations"] = statistics.median(per_call["iterations"])
    for name, value in counts.items():
        metrics[name] = (value, "count")
        lines.append((name, value, "count", ""))
    if counts["optimizer.iterations"]:
        ratio = counts["optimizer.forwards"] / counts["optimizer.iterations"]
        lines.append(("optimizer.evals_per_iter", ratio, "", "forwards / iterations"))

    totals = tracer.self_times()
    root_s, n_calls = totals.pop("call")
    root_wall = sum(end - begin for name, begin, end, _, _ in tracer.spans if name == "call")
    for name in TRACED_NAMES:
        self_s, calls = totals.get(name, (0.0, 0))
        metrics[f"trace.{name}.calls"] = (calls / n_calls, "count")
        metrics[f"trace.{name}.share"] = (self_s / root_wall, "frac")
        lines.append((f"trace.{name}.calls", calls / n_calls, "count", "per call"))
        lines.append((f"trace.{name}.self_s", self_s / n_calls, "s", "per call"))
        lines.append((f"trace.{name}.share", self_s / root_wall, "frac", ""))
    metrics["optimizer.self_share"] = (root_s / root_wall, "frac")
    lines.append(("optimizer.self_share", root_s / root_wall, "frac", "outside every traced name"))
    overhead = statistics.median(refs[True]) / statistics.median(refs[False]) - 1.0
    metrics["trace.overhead_frac"] = (overhead, "frac")
    lines.append(("trace.overhead_frac", overhead, "frac", f"pairs={len(refs[True])}"))

    lines.append(("digests", len(seen_digest), "inputs", _digest_note(seen_digest)))
    path = OUT_DIR / f"spans-{prep.name}-seed{seed}.jsonl"
    tracer.write_jsonl(path)
    lines.append(("spans", len(tracer.spans), "spans", str(path.relative_to(ROOT))))
    return metrics, lines


# ---------------------------------------------------------------------------


def parse_args(argv):
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def set_up(argv):
    """Parse arguments, import numpy and smoothstl, build the inputs."""
    args = parse_args(argv)
    threads = os.environ.get("STL_SMOOTH_THREADS")
    if threads is not None and threads.strip() != "1":
        raise Refused(f"STL_SMOOTH_THREADS={threads!r}: threaded runs are not comparable; unset it")
    missing = [p for p in ("src/smoothstl/__init__.py", "tests/oracle.py") if not (ROOT / p).is_file()]
    if missing:
        raise Refused(f"run from a smoothstl checkout; missing {', '.join(missing)}")
    sys.path.insert(0, str(ROOT / "src"))
    import smoothstl as sst
    import workloads as wl

    return args, sst, wl, wl.setup(sst, args.workload, args.seed)


def main(argv=None):
    clock = calib.ReferenceClock()
    # set-up time covers the imports of numpy and smoothstl
    (args, sst, wl, prep), setup_wall, setup_ref = clock.measure(lambda: set_up(argv))
    if args.setup_probe:
        print(repr(setup_wall), repr(setup_ref))
        return 0

    tally = Tally()
    if args.trace:
        metrics, lines = per_layer(sst, wl, prep, args.seconds, tally, clock, args.seed)
    else:
        setup = (setup_wall, setup_ref)
        metrics, lines = end_to_end(sst, wl, prep, args.seconds, setup, tally, clock, args.seed)
    error_frac = tally.failed / tally.attempted
    lines.append(("error_frac", error_frac, "frac", f"failed={tally.failed} attempted={tally.attempted}"))

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(" ".join(f"{k}={v}" for k, v in machine_facts().items()))
    for name, value, unit, note in lines:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"{name:34s} {shown:>14s} {unit:6s} {note}")
    correct = tally.failed == 0 and not tally.problems
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Refused as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
