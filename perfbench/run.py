"""Benchmark of the cflgap command line, driven in-process through cli.main.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

One client runs a closed loop from a single process, every command with
``--jobs 1``.  A run times five fresh set-ups (each a new interpreter that
imports ``cflgap.cli`` and writes the workload's input files), then repeats
rounds of the workload's fixed command list for ``--seconds`` and checks
every output.  End-to-end times are scaled to a reference CPU speed (see
REFERENCE_S).  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` each round runs twice,
untraced then traced, and the metrics are the per-layer ones from the spans
(also written as JSONL under ``.perfbench/``).  Without ``--workload`` every
workload runs, each in its own process, and a table of all metrics goes to
standard error.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from bisect import bisect_left, bisect_right
from collections import defaultdict
from contextlib import redirect_stdout
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("sample-t10", "sample-mini", "verify")
SETUPS_PER_RUN = 5
PROBES_PER_SETUP = 5

# The speed of a shared virtual CPU drifts by 20% and more within seconds,
# and longer runs do not average it out.  So the runner pins itself (and
# its set-up processes) to one CPU and, before every command and every
# set-up, times a fixed pure-Python loop.  Each command's time is scaled by
# REFERENCE_S / (median loop time of the commands started within
# PROBE_WINDOW_S of it), so it reads as if the loop had taken REFERENCE_S,
# its time on an idle 2.1 GHz Xeon vCPU under Python 3.11.7.  Over five
# 30 s verify runs, the quartile distance over the median of cmd_p50_ms was
# 29% raw and 3% scaled.  The raw figures go into the details line.
REFERENCE_LOOP = 50_000
REFERENCE_S = 0.0030
PROBE_WINDOW_S = 0.5
CLI_KINDS = ("core", "collide", "verify-midpoint", "lpcheck", "census-exact",
             "census-mc", "bound", "certify", "oracle")

# (metric, span names, statistic, unit, better).  calls, busy_s, self_s and
# counts are per traced round; *_per_draw divide by the draws of those rounds.
LAYER_METRICS = [
    *[(f"cli.{kind}.p50_ms", (f"cli.{kind}",), "p50_ms", "ms", "lower") for kind in CLI_KINDS],
    ("cli.build_parser.busy_s", ("cli.build_parser",), "busy_s", "s", "lower"),
    ("cli.cmd_sample.self_s", ("cli.cmd_sample",), "self_s", "s", "lower"),
    ("io.read_document.calls", ("io.read_document",), "calls", "count", "lower"),
    ("io.read_document.busy_s", ("io.read_document",), "busy_s", "s", "lower"),
    ("io.load_core_doc.busy_s", ("io.load_core_doc",), "busy_s", "s", "lower"),
    ("io.write_document.calls", ("io.write_document",), "calls", "count", "lower"),
    ("io.write_document.busy_s", ("io.write_document",), "busy_s", "s", "lower"),
    ("io.sha256_of.busy_s", ("io.sha256_of",), "busy_s", "s", "lower"),
    ("io.bytes_read", ("io.read_document", "io.sha256_of"), "count", "bytes", "lower"),
    ("io.bytes_written", ("io.write_document",), "count", "bytes", "lower"),
    ("instance.validate_params.calls", ("instance.validate_params",), "calls", "count", "lower"),
    ("instance.validate_params.busy_s", ("instance.validate_params",), "busy_s", "s", "lower"),
    ("instance.validate_params.calls_per_draw", ("instance.validate_params",),
     "calls_per_draw", "count", "lower"),
    ("instance.CostVector.vector_cost.busy_s", ("instance.CostVector.vector_cost",),
     "busy_s", "s", "lower"),
    ("instance.CostVector.solution_cost.busy_s", ("instance.CostVector.solution_cost",),
     "busy_s", "s", "lower"),
    ("corevec.make_core_vector.calls", ("corevec.make_core_vector",), "calls", "count", "lower"),
    ("corevec.make_core_vector.busy_s", ("corevec.make_core_vector",), "busy_s", "s", "lower"),
    ("corevec.midpoint.busy_s", ("corevec.midpoint",), "busy_s", "s", "lower"),
    ("corevec.FracVector.equals.busy_s", ("corevec.FracVector.equals",), "busy_s", "s", "lower"),
    ("corevec.check_natural_lp.busy_s", ("corevec.check_natural_lp",), "busy_s", "s", "lower"),
    ("corevec.collides.calls", ("corevec.collides",), "calls", "count", "lower"),
    ("corevec.collides.busy_s", ("corevec.collides",), "busy_s", "s", "lower"),
    ("rounding.sample_outcome.calls", ("rounding.sample_outcome",), "calls", "count", "lower"),
    ("rounding.sample_outcome.self_s", ("rounding.sample_outcome",), "self_s", "s", "lower"),
    ("rounding.sample_outcome.p50_us", ("rounding.sample_outcome",), "p50_us", "us", "lower"),
    ("rounding.solution_violations.busy_s", ("rounding.solution_violations",),
     "busy_s", "s", "lower"),
    ("rounding.outcome_class_key.busy_s", ("rounding.outcome_class_key",), "busy_s", "s", "lower"),
    ("rounding.enumerate_outcome_classes.calls", ("rounding.enumerate_outcome_classes",),
     "calls", "count", "lower"),
    ("rounding.enumerate_outcome_classes.busy_s", ("rounding.enumerate_outcome_classes",),
     "busy_s", "s", "lower"),
    ("rounding.expected_vector.busy_s", ("rounding.expected_vector",), "busy_s", "s", "lower"),
    ("rounding.verify_midpoint.busy_s", ("rounding.verify_midpoint",), "busy_s", "s", "lower"),
    ("rounding.pivot_facilities.calls_per_draw", ("rounding.pivot_facilities",),
     "calls_per_draw", "count", "lower"),
    ("rounding.round_slots.calls", ("rounding.round_slots",), "calls", "count", "lower"),
    ("rounding.split_slots.calls", ("rounding.split_slots",), "calls", "count", "lower"),
    *[
        (f"randomness.ExactRng.{method}.{stat}", (f"randomness.ExactRng.{method}",),
         stat, unit, "lower")
        for method in ("integer_below", "bernoulli", "weighted_index", "permuted",
                       "chosen_positions")
        for stat, unit in (("calls", "count"), ("busy_s", "s"))
    ],
    ("randomness.permuted.items_per_draw", ("randomness.ExactRng.permuted",),
     "count_per_draw", "count", "lower"),
    ("certify.noncolliding_count_brute.busy_s", ("certify.noncolliding_count_brute",),
     "busy_s", "s", "lower"),
    ("certify.noncolliding_count_exact.busy_s", ("certify.noncolliding_count_exact",),
     "busy_s", "s", "lower"),
    ("certify.noncolliding_prob_mc.busy_s", ("certify.noncolliding_prob_mc",),
     "busy_s", "s", "lower"),
    ("certify.certify_gap.busy_s", ("certify.certify_gap",), "busy_s", "s", "lower"),
    ("polytope.enumerate_integer_solutions.busy_s", ("polytope.enumerate_integer_solutions",),
     "busy_s", "s", "lower"),
    ("polytope.enumerate_integer_solutions.solutions", ("polytope.enumerate_integer_solutions",),
     "count", "count", "lower"),
    ("polytope.membership_lp.busy_s", ("polytope.membership_lp",), "busy_s", "s", "lower"),
    ("polytope.verify_membership.busy_s", ("polytope.verify_membership",), "busy_s", "s", "lower"),
    ("polytope.brute_force_opt.busy_s", ("polytope.brute_force_opt",), "busy_s", "s", "lower"),
    ("simplex.feasible_combination.calls", ("simplex.feasible_combination",),
     "calls", "count", "lower"),
    ("simplex.feasible_combination.busy_s", ("simplex.feasible_combination",),
     "busy_s", "s", "lower"),
]
# Per-layer metrics read from the sample reports and the round timings.
RUN_METRICS = [
    ("rounding.feasible_ratio", "ratio", "higher"),
    ("rounding.matched_ratio", "ratio", "higher"),
    ("rounding.max_abs_z", "sigma", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("failed_ops_ratio", "ratio", "lower"),
]
# What cflgap.cli runs once per draw of a sample command.
DRAW_SPANS = ("rounding.sample_outcome", "rounding.solution_violations",
              "rounding.outcome_class_key")
END_TO_END = [
    ("setup_s", "s"), ("wall_s", "s"), ("ops_per_s", "1/s"), ("cmd_p50_ms", "ms"),
    ("cmd_tail_ms", "ms"), ("peak_rss_mb", "MB"),
]


def reference_probe() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_LOOP):
        total += i * i
    return time.perf_counter() - start


def read_bytes(path: str):
    """The file's bytes, or None if it cannot be read."""
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError:
        return None


def percentile(values: list, pct: int) -> tuple[float, int]:
    """Nearest-rank percentile, and how many samples lie beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


@dataclass
class Timing:
    """One command of an untraced round."""

    round: int
    start: float    # perf_counter when the reference loop before it started
    probe: float    # the reference loop's time
    seconds: float
    draws: int
    headline: bool


class Run:
    """One measured run of one workload: timings, outcomes and failures."""

    def __init__(self, workload: str, seed: int):
        from cflgap.cli import main as cli_main

        self.cli_main = cli_main
        self.workload = workload
        self.rng = random.Random(seed)
        self.tally = workloads.SampleTally()
        self.attempted = 0
        self.failures: list[str] = []
        self.timings: list[Timing] = []
        self.round_walls: list[float] = []  # untraced, unscaled
        self.repeats: list = []  # (command, output bytes) from the first round

    @property
    def draws(self) -> int:
        return sum(t.draws for t in self.timings)

    @property
    def failed_ops_ratio(self) -> float:
        return len(self.failures) / self.attempted

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def execute(self, command, tracer=None):
        """Run one command; returns (exit code or error text, seconds)."""
        start = time.perf_counter()
        try:
            with redirect_stdout(io.StringIO()):
                if tracer is None:
                    rc = self.cli_main(command.argv)
                else:
                    with tracer.command(f"cli.{command.kind}"):
                        rc = self.cli_main(command.argv)
        except SystemExit as exc:  # argparse rejected the arguments
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a traceback fails the command, not the run
            traceback.print_exc()
            rc = f"raised {exc!r}"
        return rc, time.perf_counter() - start

    def run_round(self, commands, tracer=None) -> tuple[float, list]:
        """Execute one round; returns (seconds in its commands, per command
        (rc, seconds, probe start, probe seconds), or None where skipped)."""
        outcomes, collided = [], True
        for command in commands:
            if command.needs_collision and not collided:
                outcomes.append(None)
                continue
            command.clear_outputs()
            start = time.perf_counter()
            probe = reference_probe()
            rc, seconds = self.execute(command, tracer)
            if command.kind == "collide":
                collided = rc == 0
            outcomes.append((rc, seconds, start, probe))
        return sum(o[1] for o in outcomes if o), outcomes

    def check_round(self, commands, outcomes) -> dict:
        """Record and check every executed command; returns the -o bytes."""
        outputs = {}
        for command, outcome in zip(commands, outcomes):
            if outcome is None:
                continue
            rc, seconds, start, probe = outcome
            self.attempted += 1
            self.timings.append(Timing(len(self.round_walls), start, probe, seconds,
                                       command.draws, command.headline))
            doc = None
            if command.output and rc == 0:
                try:
                    with open(command.output, "rb") as handle:
                        outputs[command.output] = handle.read()
                    doc = json.loads(outputs[command.output])
                except (OSError, ValueError) as exc:
                    self.fail(f"{' '.join(command.argv)}: unreadable output: {exc}")
                    continue
            try:
                problem = command.check(rc, doc, self.tally)
            except (OSError, LookupError, TypeError, ValueError) as exc:
                problem = f"output not as expected: {exc!r}"
            if problem:
                self.fail(f"{' '.join(command.argv)}: {problem}")
        return outputs

    def untraced_round(self) -> tuple[list, list, dict]:
        commands = workloads.round_commands(self.workload, self.rng)
        wall, outcomes = self.run_round(commands)
        outputs = self.check_round(commands, outcomes)
        self.round_walls.append(wall)
        if not self.repeats:
            self.repeats = [(c, outputs.get(c.output)) for c in commands if c.repeat]
        return commands, outcomes, outputs

    def measure(self, seconds: float) -> None:
        deadline = time.perf_counter() + seconds
        while not self.round_walls or time.perf_counter() < deadline:
            self.untraced_round()

    def measure_traced(self, seconds: float, tracer) -> list[float]:
        """Rounds run untraced then traced with the same seeds; outputs must match.

        Returns the traced round walls; ``round_walls`` keeps the untraced ones.
        """
        traced_walls = []
        deadline = time.perf_counter() + seconds
        while not traced_walls or time.perf_counter() < deadline:
            commands, outcomes, untraced = self.untraced_round()
            tracer.patch()
            try:
                wall, traced_outcomes = self.run_round(commands, tracer)
            finally:
                tracer.unpatch()
            traced_walls.append(wall)
            for command, plain, traced in zip(commands, outcomes, traced_outcomes):
                if traced is None:
                    continue
                self.attempted += 1
                same = plain is not None and plain[0] == traced[0]
                if same and command.output in untraced:
                    same = read_bytes(command.output) == untraced[command.output]
                if not same:
                    self.fail(f"traced {' '.join(command.argv)}: output differs from untraced run")
        return traced_walls

    def check_repeats(self) -> None:
        """Acceptance 8: the same command and seed give byte-identical output."""
        for command, expected in self.repeats:
            command.clear_outputs()
            rc, _ = self.execute(command)
            self.attempted += 1
            if rc != 0 or read_bytes(command.output) != expected:
                self.fail(f"rerun of {' '.join(command.argv)} is not byte-identical")

    def check_pooled_bias(self) -> float:
        """Bias band on the class counts pooled over every sample report."""
        if not self.tally.samples:
            return 0.0
        self.attempted += 1
        worst, failure = self.tally.pooled_check()
        if failure:
            self.fail(failure)
        return worst


def timed_setups(workload: str, directory: str) -> list[tuple[float, float]]:
    """(seconds, median reference loop time just before) of each set-up."""
    setups = []
    for _ in range(SETUPS_PER_RUN):
        probe = statistics.median(reference_probe() for _ in range(PROBES_PER_SETUP))
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "workloads.py"), workload, directory],
            capture_output=True, text=True, timeout=120,
        )
        setups.append((time.perf_counter() - start, probe))
        if proc.returncode != 0:
            raise RuntimeError(f"set-up of {workload} failed: {proc.stderr.strip()}")
    return setups


def command_scales(timings: list[Timing]) -> list[float]:
    """Per command: REFERENCE_S over the median loop time around it."""
    starts = [t.start for t in timings]
    return [
        REFERENCE_S / statistics.median(
            u.probe for u in timings[bisect_left(starts, t.start - PROBE_WINDOW_S):
                                     bisect_right(starts, t.start + PROBE_WINDOW_S)]
        )
        for t in timings
    ]


def end_to_end_values(run: Run, setups: list, scaled: bool) -> dict:
    timings = run.timings
    if scaled:
        scales = command_scales(timings)
        setup_times = [seconds * REFERENCE_S / probe for seconds, probe in setups]
    else:
        scales = [1.0] * len(timings)
        setup_times = [seconds for seconds, _ in setups]
    seconds = [t.seconds * scale for t, scale in zip(timings, scales)]
    walls = defaultdict(float)
    for t, x in zip(timings, seconds):
        walls[t.round] += x
    headline = [x for t, x in zip(timings, seconds) if t.headline]
    tail, _ = percentile(headline, workloads.TAIL_PERCENTILE[run.workload])
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(walls.values()),
        "ops_per_s": (run.draws or len(timings)) / sum(seconds),
        "cmd_p50_ms": statistics.median(headline) * 1e3,
        "cmd_tail_ms": tail * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def layer_metrics(tracer, rounds: int, run: Run, overhead: float) -> dict:
    draws = run.draws
    metrics = {}
    for name, spans, stat, unit, _ in LAYER_METRICS:
        entries = [tracer.stats.get(span, {}) for span in spans]
        durations = [d for span in spans for d in tracer.durations.get(span, ())]
        total = lambda key: sum(e.get(key, 0) for e in entries)  # noqa: E731
        p50_ns = statistics.median(durations) if durations else 0.0
        value = {
            "calls": total("calls") / rounds,
            "busy_s": total("busy_ns") / 1e9 / rounds,
            "self_s": total("self_ns") / 1e9 / rounds,
            "count": total("count") / rounds,
            "calls_per_draw": total("calls") / draws if draws else 0.0,
            "count_per_draw": total("count") / draws if draws else 0.0,
            "p50_ms": p50_ns / 1e6,
            "p50_us": p50_ns / 1e3,
        }[stat]
        metrics[name] = {"value": value, "unit": unit}
    samples = run.tally.samples
    derived = {
        "rounding.feasible_ratio": run.tally.feasible / samples if samples else 0.0,
        "rounding.matched_ratio": run.tally.matched / samples if samples else 0.0,
        "rounding.max_abs_z": run.tally.max_command_z,
        "trace.overhead_ratio": overhead,
        "failed_ops_ratio": run.failed_ops_ratio,
    }
    for name, unit, _ in RUN_METRICS:
        metrics[name] = {"value": derived[name], "unit": unit}
    return metrics


def draw_share(tracer) -> float:
    """Share of ``sample`` command time spent in the per-draw calls."""
    command = tracer.stats.get("cli.sample", {}).get("busy_ns", 0)
    draws = sum(tracer.stats.get(name, {}).get("busy_ns", 0) for name in DRAW_SPANS)
    return draws / command if command else 0.0


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    os.makedirs(OUT, exist_ok=True)
    directory = os.path.join(OUT, f"run-{workload}-{seed}-{os.getpid()}")
    os.makedirs(directory)
    cwd = os.getcwd()
    try:
        setups = timed_setups(workload, directory)
        os.chdir(directory)
        run = Run(workload, seed)
        details = {"workload": workload, "seed": seed}
        if trace:
            tracer = tracing.Tracer(durations_for=[
                spans[0] for _, spans, stat, _, _ in LAYER_METRICS if stat.startswith("p50")
            ])
            traced_walls = run.measure_traced(seconds, tracer)
        else:
            run.measure(seconds)
        run.check_repeats()
        pooled_abs_z = run.check_pooled_bias()
        if trace:
            overhead = statistics.median(traced_walls) / statistics.median(run.round_walls)
            # Each traced round repeats an untraced one with the same seeds, so
            # the traced rounds made exactly the draws tallied in run.draws.
            metrics = layer_metrics(tracer, len(traced_walls), run, overhead)
            trace_path = os.path.join(OUT, f"trace-{workload}-seed{seed}.jsonl")
            tracer.write_jsonl(trace_path)
            details.update(traced_rounds=len(traced_walls), spans=len(tracer.spans),
                           spans_dropped=tracer.dropped,
                           sample_draw_share=draw_share(tracer),
                           zero_metrics=[n for n, m in metrics.items() if m["value"] == 0],
                           trace_file=os.path.relpath(trace_path, ROOT))
        else:
            values = end_to_end_values(run, setups, scaled=True)
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
            details.update(raw=end_to_end_values(run, setups, scaled=False))
        headline = [t.seconds for t in run.timings if t.headline]
        _, beyond = percentile(headline, workloads.TAIL_PERCENTILE[workload])
        details.update(
            reference_loop_s=statistics.median(t.probe for t in run.timings),
            rounds=len(run.round_walls),
            draws=run.draws,
            headline_samples=len(headline),
            tail_percentile=workloads.TAIL_PERCENTILE[workload],
            tail_samples_beyond=beyond,
            setup_runs=len(setups),
            pooled_abs_z=pooled_abs_z,
            failed_ops_ratio=run.failed_ops_ratio,
            failures=run.failures[:10],
        )
    finally:
        os.chdir(cwd)
        shutil.rmtree(directory, ignore_errors=True)
    print(json.dumps(details))
    return {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": metrics,
    }


def run_all(args) -> dict:
    """Every workload, each in its own process; a metric table on stderr."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"{workload} failed: {proc.stderr.strip()}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
            print(f"{workload:12} {name:45} {metric['value']:14.6g} {metric['unit']}",
                  file=sys.stderr)
        print(f"{workload:12} failed {result['failed']} of {result['attempted']} attempted",
              file=sys.stderr)
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cflgap", "cli.py")):
        print(f"no cflgap sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    if args.workload is None:
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
