"""Tests of the benchmark's tracer and of BENCHMARK.json against the runner.

    PYTHONPATH=src python3 -m pytest perfbench/test_tracer.py -q
"""

import json
import os
import sys
from contextlib import redirect_stdout
from io import StringIO

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracer as tracing  # noqa: E402
from cflgap import cli  # noqa: E402


def bindings() -> dict:
    """Every (owner, attribute) -> object in the cflgap modules and classes."""
    found = {}
    for mod in tracing.cflgap_modules():
        for attr, value in vars(mod).items():
            found[(mod.__name__, attr)] = value
            if isinstance(value, type) and value.__module__.startswith("cflgap"):
                for name, member in vars(value).items():
                    found[(f"{value.__module__}.{value.__name__}", name)] = member
    return found


def test_patch_leaves_no_original_bound():
    originals = tracing.originals()
    tracer = tracing.Tracer(durations_for=())
    tracer.patch()
    try:
        still_bound = [
            key for key, value in bindings().items()
            if any(value is fn for fn in originals.values())
        ]
        patched = tracing.originals()
    finally:
        tracer.unpatch()
    assert still_bound == []
    for name, fn in patched.items():
        assert fn.__traced_original__ is originals[name], name


def test_unpatch_restores_every_binding():
    before = bindings()
    tracer = tracing.Tracer(durations_for=())
    tracer.patch()
    tracer.unpatch()
    after = bindings()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []


def _cli(argv, tracer=None):
    with redirect_stdout(StringIO()):
        if tracer is None:
            return cli.main(argv)
        with tracer.command(f"cli.{argv[0]}"):
            return cli.main(argv)


def test_traced_run_writes_identical_bytes(tmp_path):
    mini, a, b = (str(tmp_path / name) for name in ("mini.json", "a.core", "b.core"))
    assert _cli(["gen", "--general", "--nf", "6", "--t", "2", "--U", "4", "--m", "13",
                 "--eps", "2/5", "--xl", "1/8", "-o", mini]) == 0
    assert _cli(["core", "--instance", mini, "--k", "0,1", "--l", "2,3", "-o", a]) == 0
    assert _cli(["core", "--instance", mini, "--k", "0,1", "--l", "4,5", "-o", b]) == 0
    commands = {
        "sample": ["sample", a, b, "--n", "200", "--seed", "21"],
        "verify": ["verify-midpoint", a, b],
        "census": ["census", "--instance", mini, "--mc", "500", "--seed", "4"],
    }
    tracer = tracing.Tracer(durations_for=("rounding.sample_outcome",))
    for name, argv in commands.items():
        plain, traced = tmp_path / f"{name}-plain.json", tmp_path / f"{name}-traced.json"
        assert _cli(argv + ["-o", str(plain)]) == 0
        tracer.patch()
        try:
            assert _cli(argv + ["-o", str(traced)], tracer) == 0
        finally:
            tracer.unpatch()
        assert plain.read_bytes() == traced.read_bytes(), name
    assert tracer.stats["rounding.sample_outcome"]["calls"] == 200
    assert len(tracer.durations["rounding.sample_outcome"]) == 200
    assert tracer.stats["rounding.verify_midpoint"]["calls"] == 1
    root_spans = [span for span in tracer.spans if span[3] == -1]
    assert [span[0] for span in root_spans] == ["cli.sample", "cli.verify-midpoint", "cli.census"]
    for name, entry in tracer.stats.items():
        assert 0 <= entry["self_ns"] <= entry["busy_ns"], name


def test_benchmark_json_lists_the_runner_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    layers = [(m[0], m[3], m[4]) for m in run.LAYER_METRICS] + run.RUN_METRICS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers
