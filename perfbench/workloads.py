"""The benchmark's workloads: input set-up, one round's commands, output checks.

A round is a fixed list of ``cflgap`` commands; the runner repeats rounds
until its time is up.  Every command names its own check, which reads the
command's exit code and ``-o`` document and returns a failure message, or
None.  Checks test verdicts and exact numbers only, never sample bytes,
which change whenever the sampler's use of the random stream changes.

Run as a script (``python3 perfbench/workloads.py WORKLOAD DIR``) it is the
timed set-up: it imports ``cflgap.cli`` and writes the workload's input
files into DIR.
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

T10_GEN = ["gen", "--family", "--t", "10", "--a", "2"]
# The shared desk-scale instance of the test suite (MINI).
MINI_GEN = ["gen", "--general", "--nf", "6", "--t", "2", "--U", "4", "--m", "13",
            "--eps", "2/5", "--xl", "1/8"]
# The smallest instance the exhaustive polytope oracles accept (TINY).
TINY_GEN = ["gen", "--general", "--nf", "3", "--t", "1", "--U", "2", "--m", "3",
            "--eps", "1/2", "--xl", "1/3"]
# The largest census shape of the test suite: 13 facilities, t=4, 90,090 pairs.
SHAPE13_GEN = ["gen", "--general", "--nf", "13", "--t", "4", "--U", "4", "--m", "27",
               "--eps", "1/4", "--xl", "1/17"]

SETUP = {
    "sample-t10": [
        T10_GEN + ["-o", "inst10.json"],
        ["core", "--instance", "inst10.json", "--k", "0..9", "--l", "10..19", "-o", "c1.core"],
        ["core", "--instance", "inst10.json", "--k", "20..29", "--l", "30..39", "-o", "c2.core"],
    ],
    "sample-mini": [
        MINI_GEN + ["-o", "mini.json"],
        ["core", "--instance", "mini.json", "--k", "0,1", "--l", "2,3", "-o", "c1.core"],
        ["core", "--instance", "mini.json", "--k", "0,1", "--l", "4,5", "-o", "c2.core"],
    ],
    "verify": [
        T10_GEN + ["-o", "inst10.json"],
        SHAPE13_GEN + ["-o", "shape13.json"],
        MINI_GEN + ["-o", "mini.json"],
        TINY_GEN + ["-o", "tiny.json"],
        ["core", "--instance", "tiny.json", "--k", "0", "--l", "1", "-o", "tiny.core"],
    ],
}

# The latency percentile of the headline command (sample; verify-midpoint on
# verify) reported as cmd_tail_ms: the highest of 50/75/90/95/99 that leaves
# at least ten samples beyond it in a 30 s run at the baseline commit, on a
# slow stretch of a shared 2-vCPU machine.  It is fixed so that the metric
# means the same on every commit.
TAIL_PERCENTILE = {"sample-t10": 75, "sample-mini": 95, "verify": 75}

# Draws per command.  At the baseline a t=10 sample command costs about
# 60 ms besides its draws (writing the 373 KB report, loading both core
# files, the parser, the class enumeration) and 10.5 ms per draw, so at 40
# draws the draws take 87% of it, while a 30 s run still holds 60-100
# headline commands, enough for the p75 tail.  A MINI command costs about
# 6 ms besides its draws and 0.27 ms per draw: 93% draws at 300.  The
# --solutions-dir command writes one file per draw.  --mc 2000 (as in the
# CLI tests) spends 85% of the 25 ms census command in its samples.
T10_DRAWS = 40
MINI_DRAWS = 300
MINI_SOLUTION_DRAWS = 100
MC_SAMPLES = 2000

# Exact values the checks compare with.
T10_LOWER_BOUND = "46853201"
SHAPE13_LAMBDA = "15765"
MINI_LAMBDA = "53"

# Sampler-bias band: a count X of n draws in a class (or group of classes)
# of probability p fails when |X - np| > C/3 + sqrt(C^2/9 + 2*C*np(1-p)),
# C = ln(2/alpha).  By Bernstein's inequality an unbiased sampler crosses it
# with probability at most alpha, whatever n and p, so the false-alarm rate
# is at most alpha per test: at most 1e-10 per report (80 classes at t=10,
# 24 on MINI) and per run for the pooled groups.
BIAS_ALPHA = 1e-12
_BIAS_C = math.log(2 / BIAS_ALPHA)


def bias_halfwidth(variance: float) -> float:
    return _BIAS_C / 3 + math.sqrt(_BIAS_C * _BIAS_C / 9 + 2 * _BIAS_C * variance)


@dataclass
class Command:
    kind: str                     # span name suffix: cli.<kind>
    argv: list
    check: Callable               # (rc, doc, tally) -> failure message or None
    output: Optional[str] = None  # the -o document, read for the check
    solutions_dir: Optional[str] = None
    draws: int = 0
    headline: bool = False
    needs_collision: bool = False  # skipped when the round's collide said no
    repeat: bool = False           # rerun at the end: output must be identical

    def clear_outputs(self) -> None:
        """Delete what an earlier command left where this one writes, so that
        its check reads only this command's files."""
        if self.output and os.path.exists(self.output):
            os.remove(self.output)
        if self.solutions_dir:
            shutil.rmtree(self.solutions_dir, ignore_errors=True)


@dataclass
class SampleTally:
    """Sampler health over the reports of one run's untraced rounds."""

    samples: int = 0
    feasible: int = 0
    matched: int = 0
    max_command_z: float = 0.0  # largest |z| within a single report
    classes: dict = field(default_factory=lambda: defaultdict(lambda: [None, 0]))

    def add(self, doc: dict) -> None:
        self.samples += doc["samples"]
        self.feasible += doc["feasible"]
        self.matched += doc["samples"] - doc["unmatched_class_draws"]
        for cl in doc["classes"]:
            key = (cl["experiment"], cl["chosen_l_facility"], cl["extra_open"],
                   json.dumps(cl["slot_profile"]))
            entry = self.classes[key]
            entry[0] = Fraction(cl["probability"])
            entry[1] += cl["observed"]

    def pooled_check(self) -> tuple[float, Optional[str]]:
        """Largest |z| of the pooled counts, and a band failure if any.

        Besides each class, the check tests every group of classes that
        share a prefix of the key (experiment; chosen low facility; extra
        facility open): a bias in one branch moves a whole group, and the
        group's larger count shows it sooner than any single class does.
        """
        groups: dict = defaultdict(lambda: [Fraction(0), 0])
        for key, (p, observed) in self.classes.items():
            for depth in range(1, len(key) + 1):
                groups[key[:depth]][0] += p
                groups[key[:depth]][1] += observed
        worst, failure = 0.0, None
        for key, (p, observed) in groups.items():
            z, excess = class_deviation(self.samples, p, observed)
            worst = max(worst, abs(z))
            if excess and failure is None:
                failure = (f"pooled classes {key[:3]}: {observed} of {self.samples} "
                           f"draws at p={p} (z={z:.1f})")
        return worst, failure


def class_deviation(n: int, p: Fraction, observed: int) -> tuple[float, bool]:
    """(z-score of the count, whether it lies outside the bias band)."""
    mean = n * p
    variance = float(mean * (1 - p))
    deviation = abs(observed - mean)
    z = float(observed - mean) / math.sqrt(variance) if variance else float(deviation)
    return z, deviation > bias_halfwidth(variance)


# -- checks -------------------------------------------------------------------


def _exit_ok(rc, doc, tally):
    return None if rc == 0 else f"exit {rc}"


def check_sample(n: int, solutions_dir: Optional[str] = None):
    def check(rc, doc, tally):
        if rc != 0:
            return f"exit {rc}"
        if doc["samples"] != n or doc["infeasible"] != 0 or doc["unmatched_class_draws"] != 0:
            return (f"samples={doc['samples']} infeasible={doc['infeasible']} "
                    f"unmatched={doc['unmatched_class_draws']}")
        if solutions_dir is not None:
            names = os.listdir(solutions_dir) if os.path.isdir(solutions_dir) else []
            written = sum(name.startswith("sol_") for name in names)
            if written != n:
                return f"{written} solution files for {n} draws"
        tally.add(doc)
        for cl in doc["classes"]:
            z, excess = class_deviation(n, Fraction(cl["probability"]), cl["observed"])
            tally.max_command_z = max(tally.max_command_z, abs(z))
            if excess:
                return f"class count {cl['observed']} of {n} outside the bias band (z={z:.1f})"
        return None
    return check


def _read_core_sets(path: str) -> tuple[set, set]:
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    return set(doc["k"]), set(doc["l"])


def check_collide(first: str, second: str):
    """Exit 0 iff l1 leaves k2|l2 and l2 leaves k1|l1; exit 1 is a verdict too."""
    def check(rc, doc, tally):
        k1, l1 = _read_core_sets(first)
        k2, l2 = _read_core_sets(second)
        expected = 0 if (l1 - k2 - l2) and (l2 - k1 - l1) else 1
        return None if rc == expected else f"exit {rc}, expected {expected}"
    return check


def check_fields(**expected):
    """Exit 0 and each named top-level field of the -o document as given."""
    def check(rc, doc, tally):
        if rc != 0:
            return f"exit {rc}"
        wrong = {k: doc.get(k) for k, v in expected.items() if doc.get(k) != v}
        return f"unexpected {wrong}" if wrong else None
    return check


def check_census_mc(rc, doc, tally):
    if rc != 0:
        return f"exit {rc}"
    mc = doc["mc_estimate"]
    if doc["lambda"] != MINI_LAMBDA or mc["samples"] != MC_SAMPLES or not 0 <= mc["hits"] <= MC_SAMPLES:
        return f"lambda={doc['lambda']} samples={mc['samples']} hits={mc['hits']}"
    return None


# -- rounds -------------------------------------------------------------------


def _sample(seed: int, n: int, output: str, solutions_dir: Optional[str] = None) -> Command:
    argv = ["sample", "c1.core", "c2.core", "--n", str(n), "--seed", str(seed), "-o", output]
    if solutions_dir:
        argv += ["--solutions-dir", solutions_dir]
    return Command("sample", argv, check_sample(n, solutions_dir), output=output,
                   solutions_dir=solutions_dir, draws=n, headline=solutions_dir is None)


def round_commands(workload: str, rng: random.Random) -> list[Command]:
    """One round of the workload; per-command seeds come from ``rng``."""
    seed = lambda: rng.getrandbits(32)  # noqa: E731
    if workload == "sample-t10":
        commands = [_sample(seed(), T10_DRAWS, f"s{i}.json") for i in range(4)]
    elif workload == "sample-mini":
        commands = [_sample(seed(), MINI_DRAWS, f"s{i}.json") for i in range(3)] + [
            _sample(seed(), MINI_SOLUTION_DRAWS, "s3.json", solutions_dir="sols"),
        ]
    if workload in ("sample-t10", "sample-mini"):
        commands[0].repeat = True
        return commands
    if workload == "verify":
        return [
            Command("core", ["core", "--instance", "inst10.json", "--random",
                             "--seed", str(seed()), "-o", "r1.core"], _exit_ok,
                    output="r1.core", repeat=True),
            Command("core", ["core", "--instance", "inst10.json", "--random",
                             "--seed", str(seed()), "-o", "r2.core"], _exit_ok,
                    output="r2.core"),
            Command("collide", ["collide", "r1.core", "r2.core"],
                    check_collide("r1.core", "r2.core")),
            Command("verify-midpoint", ["verify-midpoint", "r1.core", "r2.core", "-o", "vm12.json"],
                    check_fields(valid=True), output="vm12.json", headline=True,
                    needs_collision=True),
            Command("verify-midpoint", ["verify-midpoint", "r2.core", "r1.core", "-o", "vm21.json"],
                    check_fields(valid=True), output="vm21.json", headline=True,
                    needs_collision=True),
            Command("lpcheck", ["lpcheck", "r1.core", "-o", "lp1.json"],
                    check_fields(passed=True), output="lp1.json"),
            Command("lpcheck", ["lpcheck", "r2.core", "-o", "lp2.json"],
                    check_fields(passed=True), output="lp2.json"),
            Command("census-exact", ["census", "--instance", "shape13.json", "--exact",
                                     "-o", "census13.json"],
                    check_fields(brute_force_count=SHAPE13_LAMBDA, **{"lambda": SHAPE13_LAMBDA}),
                    output="census13.json"),
            Command("census-mc", ["census", "--instance", "mini.json", "--mc", str(MC_SAMPLES),
                                  "--seed", str(seed()), "-o", "mc.json"],
                    check_census_mc, output="mc.json", repeat=True),
            Command("bound", ["bound", "--t", "10", "-o", "bound.json"],
                    check_fields(lower_bound=T10_LOWER_BOUND), output="bound.json"),
            Command("certify", ["certify", "--t", "10", "-o", "cert10.json"],
                    check_fields(ratio="1/1", opt_value="1/1"), output="cert10.json"),
            Command("certify", ["certify", "--core", "tiny.core", "--brute-force",
                                "-o", "certtiny.json"],
                    check_fields(ratio="2/1", opt_value="1/1", opt_provenance="brute-force"),
                    output="certtiny.json"),
            # The TINY core vector costs 1/2 against an optimum of 1, so it lies
            # outside the integer hull: the verdict is "not a member", with a
            # separating inequality that the oracle verifies.
            Command("oracle", ["oracle", "member", "--vector", "tiny.core", "-o", "member.json"],
                    check_fields(member=False, verified=True), output="member.json"),
            Command("oracle", ["oracle", "opt", "--core", "tiny.core", "-o", "opt.json"],
                    check_fields(opt_value="1/1"), output="opt.json"),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def main(argv: list[str]) -> int:
    """Timed set-up: import the CLI and write the workload's input files."""
    workload, directory = argv
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    from cflgap.cli import main as cli_main

    os.chdir(directory)
    for step in SETUP[workload]:
        rc = cli_main(step)
        if rc != 0:
            print(f"set-up step {' '.join(step)} exited {rc}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
