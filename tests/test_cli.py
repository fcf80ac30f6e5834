import argparse
import builtins
import json
import os
import shutil
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from functools import partial
from io import StringIO

import pytest

from cflgap import certify, cli, corevec, rounding
from cflgap import io as docio
from cflgap.instance import FACILITY_LIMIT
from conftest import spoil_rows

CLI = [sys.executable, "-m", "cflgap.cli"]


def run(*argv):
    """``cli.main(argv)`` in process, with what ``python -m cflgap.cli`` gives:
    the exit code (argparse's SystemExit carries its own), stdout and stderr."""
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return subprocess.CompletedProcess(list(argv), code, out.getvalue(), err.getvalue())


def run_fresh(*argv):
    """The command in a fresh ``python -m cflgap.cli``: what a shell sees,
    tracebacks included."""
    return subprocess.run(CLI + list(argv), capture_output=True, text=True)


@pytest.fixture()
def workspace(tmp_path):
    """Instance and core files shared by the command tests, built in process."""
    mini = tmp_path / "mini.json"
    a = tmp_path / "a.core"
    b = tmp_path / "b.core"
    c = tmp_path / "c.core"  # does not collide with a
    steps = [
        ["gen", "--general", "--nf", "6", "--t", "2", "--U", "4", "--m", "13",
         "--eps", "2/5", "--xl", "1/8", "-o", str(mini)],
        ["core", "--instance", str(mini), "--k", "0,1", "--l", "2,3", "-o", str(a)],
        ["core", "--instance", str(mini), "--k", "0,1", "--l", "4,5", "-o", str(b)],
        ["core", "--instance", str(mini), "--k", "4,5", "--l", "0,2", "-o", str(c)],
    ]
    for argv in steps:
        assert run(*argv).returncode == 0, argv
    return {"mini": mini, "a": a, "b": b, "c": c, "dir": tmp_path}


class TestGen:
    def test_family_valid(self, tmp_path):
        out = tmp_path / "inst.json"
        result = run("gen", "--family", "--t", "10", "--a", "2", "-o", str(out))
        assert result.returncode == 0
        doc = json.loads(out.read_text())
        assert doc["facility_count"] == 100
        assert doc["client_count"] == 20000
        assert doc["manifest"]["command"] == "gen"

    def test_strict_invalid_exits_2(self):
        result = run("gen", "--family", "--t", "4", "--a", "2", "--strict")
        assert result.returncode == 2
        assert "residual_probability" in result.stderr

    def test_nonstrict_invalid_still_writes(self, tmp_path):
        out = tmp_path / "bad.json"
        result = run("gen", "--family", "--t", "4", "--a", "2", "-o", str(out))
        assert result.returncode == 0
        assert "invalid" in result.stderr
        assert out.exists()

    @pytest.mark.parametrize(
        "mode, flag",
        [("--family", "--t")]
        + [("--general", flag) for flag in ("--nf", "--t", "--U", "--m", "--eps", "--xl")],
    )
    def test_missing_mode_option_exits_2_naming_it(self, mode, flag, capsys):
        options = {"--t": "2"} if mode == "--family" else {
            "--nf": "6", "--t": "2", "--U": "4", "--m": "13", "--eps": "2/5", "--xl": "1/8",
        }
        del options[flag]
        argv = ["gen", mode] + [word for pair in options.items() for word in pair]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"error: gen {mode} requires {flag}\n"


# Runs ``cli.main(argv)`` in a fresh interpreter and reports on stderr, after
# the command's own output, whether numpy was imported.
IMPORT_PROBE = """
import sys
from cflgap.cli import main
try:
    rc = main(sys.argv[1:]) if len(sys.argv) > 1 else 0
finally:
    print(f"numpy imported: {'numpy' in sys.modules}", file=sys.stderr)
sys.exit(rc)
"""


class TestColdImport:
    @pytest.mark.parametrize(
        "argv, numpy_imported",
        [
            ([], False),
            (["--help"], False),
            (["gen", "--general", "--nf", "6", "--t", "2", "--U", "4", "--m", "13",
              "--eps", "2/5", "--xl", "1/8", "-o", "{dir}/gen.json"], False),
            (["core", "--instance", "{mini}", "--k", "0,1", "--l", "2,3",
              "-o", "{dir}/k.core"], False),
            (["collide", "{a}", "{b}"], False),
            (["lpcheck", "{a}"], False),
            (["bound", "--t", "10"], False),
            (["census", "--t", "10", "--exact", "--formula-only"], False),
            (["core", "--instance", "{mini}", "--random", "--seed", "5"], True),
            (["sample", "{a}", "{b}", "--n", "20", "--seed", "3"], True),
        ],
        ids=["import", "help", "gen", "core", "collide", "lpcheck", "bound",
             "census-formula", "core-random", "sample"],
    )
    def test_numpy_only_where_drawn(self, workspace, argv, numpy_imported):
        argv = [word.format(**workspace) for word in argv]
        result = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, *argv], capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        assert result.stderr.splitlines()[-1] == f"numpy imported: {numpy_imported}"


class TestParserReuse:
    """``cli.main`` parses with one parser per process and finds each
    command's handler by name when it runs."""

    @pytest.mark.parametrize(
        "sequence",
        [
            [["census", "--instance", "{mini}", "--mc", "300", "--seed", "9", "--jobs", "2",
              "-o", "{dir}/mc.json"],
             ["census", "--instance", "{mini}", "--exact", "-o", "{dir}/exact.json"]],
            [["sample", "{a}", "{b}", "--n", "20", "--seed", "3", "--solutions-dir",
              "{dir}/sols", "-o", "{dir}/s.json"],
             ["verify-midpoint", "{a}", "{b}", "-o", "{dir}/vm.json"]],
        ],
        ids=["census-mc-then-exact", "sample-then-verify"],
    )
    def test_no_option_leaks_into_the_next_call(self, workspace, monkeypatch, sequence):
        seen = []
        for name in ("cmd_census", "cmd_sample", "cmd_verify_midpoint"):
            handler = getattr(cli, name)

            def spy(args, handler=handler):
                seen.append(dict(vars(args)))
                return handler(args)

            # the parser already exists (the workspace was built through
            # cli.main), so the spies are reached only by lookup at call time
            monkeypatch.setattr(cli, name, spy)
        runs = [[word.format(**workspace) for word in argv] for argv in sequence]
        for argv in runs:
            assert run(*argv).returncode == 0, argv
        assert seen == [vars(cli.build_parser().parse_args(argv)) for argv in runs]
        assert seen[-1].get("seed") is None
        with open(runs[-1][-1]) as handle:
            assert json.load(handle)["manifest"]["seed"] is None


# One argv per command and oracle subcommand, each leaving the defaults
# unset, and the values it parses to (recorded when every command declared
# its own options).
PARSED = {
    "gen --family --t 10": {
        "command": "gen", "family": True, "general": False, "t": 10, "a": 2, "nf": None,
        "capacity": None, "m": None, "eps": None, "xl": None, "strict": False,
        "output": None,
    },
    "core --instance i.json --k 0,1 --l 2,3": {
        "command": "core", "instance": "i.json", "k": "0,1", "l": "2,3", "random": False,
        "seed": None, "dense": False, "output": None,
    },
    "collide a.core b.core": {"command": "collide", "first": "a.core", "second": "b.core"},
    "lpcheck a.core": {"command": "lpcheck", "vector": "a.core", "output": None},
    "verify-midpoint a.core b.core": {
        "command": "verify-midpoint", "first": "a.core", "second": "b.core", "output": None,
    },
    "sample a b --n 5 --seed 1": {
        "command": "sample", "first": "a", "second": "b", "n": 5, "seed": 1, "jobs": 1,
        "solutions_dir": None, "output": None,
    },
    "census --t 10 --exact": {
        "command": "census", "instance": None, "t": 10, "a": 2, "exact": True,
        "formula_only": False, "mc": None, "seed": None, "jobs": 1, "output": None,
    },
    "certify --t 10": {
        "command": "certify", "core": None, "instance": None, "t": 10, "a": 2,
        "brute_force": False, "output": None,
    },
    "bound --t 10": {"command": "bound", "instance": None, "t": 10, "a": 2, "output": None},
    "oracle enum --instance i.json": {
        "command": "oracle", "oracle_command": "enum", "instance": "i.json", "output": None,
    },
    "oracle member --vector a.core": {
        "command": "oracle", "oracle_command": "member", "vector": "a.core", "output": None,
    },
    "oracle opt --core a.core": {
        "command": "oracle", "oracle_command": "opt", "core": "a.core", "output": None,
    },
}


def _subcommands(parser: argparse.ArgumentParser) -> dict:
    """Name -> parser of each subcommand of ``parser`` (empty when it has none)."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


def command_paths() -> list[list[str]]:
    """Every runnable command, with ``oracle`` split into its subcommands."""
    return [
        [name, nested] if nested else [name]
        for name, sub in _subcommands(cli.build_parser()).items()
        for nested in (list(_subcommands(sub)) or [None])
    ]


class TestParser:
    @pytest.mark.parametrize("argv", list(PARSED))
    def test_parsed_values(self, argv):
        assert vars(cli.build_parser().parse_args(argv.split())) == PARSED[argv]

    def test_every_command_parsed_above(self):
        parsed = {" ".join(filter(None, (values["command"], values.get("oracle_command"))))
                  for values in PARSED.values()}
        assert parsed == {" ".join(path) for path in command_paths()}

    @pytest.mark.parametrize("path", command_paths(), ids=" ".join)
    def test_each_command_has_a_handler_and_help(self, path, capsys):
        handler = getattr(cli, "cmd_" + "_".join(path).replace("-", "_"), None)
        assert callable(handler)
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args([*path, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: cflgap {' '.join(path)}")

    def test_shared_options_listed_first(self, capsys):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["sample", "--help"])
        usage = capsys.readouterr().out.split("\n\n")[0]
        assert usage.split() == [
            "usage:", "cflgap", "sample", "[-h]", "[--jobs", "JOBS]", "[-o", "OUTPUT]",
            "--n", "N", "--seed", "SEED", "[--solutions-dir", "SOLUTIONS_DIR]",
            "first", "second",
        ]


class TestInputsReadOnce:
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify-midpoint", "{a}", "{b}"],
            ["verify-midpoint", "{a}", "{b}", "-o", "{dir}/vm.json"],
            ["sample", "{a}", "{b}", "--n", "20", "--seed", "3", "-o", "{dir}/s.json"],
        ],
        ids=["verify-midpoint", "verify-midpoint-o", "sample-o"],
    )
    def test_each_input_opened_once(self, workspace, monkeypatch, argv):
        # each input used to be read twice: once to parse, once for its digest
        argv = [word.format(**workspace) for word in argv]
        inputs = [str(workspace["a"]), str(workspace["b"])]
        opened = []
        real_open = builtins.open

        def spy(file, *args, **kwargs):
            opened.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", spy)
        assert run(*argv).returncode == 0
        monkeypatch.undo()
        assert [str(file) for file in opened if str(file) in inputs] == inputs
        if "-o" in argv:
            with open(argv[-1]) as handle:
                manifest = json.load(handle)["manifest"]
            assert manifest["inputs"] == {path: docio.sha256_of(path) for path in inputs}


def as_id_lists(doc, min_runs=2):
    """``doc`` with each class of at least ``min_runs`` runs written as its
    ids; by default the form of core files from before a span held more than
    one run."""
    if isinstance(doc, list):
        return [as_id_lists(item, min_runs) for item in doc]
    if not isinstance(doc, dict):
        return doc
    span = doc.get("span")
    if span is not None and len(span) >= 2 * min_runs:
        return [j for lo, hi in zip(span[::2], span[1::2]) for j in range(lo, hi)]
    return {key: as_id_lists(value, min_runs) for key, value in doc.items()}


# Runs each command line of argv[1] (a JSON list of [argv, exit code]) in
# process under a 2 GB address-space cap, so that a class built id by id
# fails with MemoryError, not an OOM kill; exits at the first command that
# does not exit with its code.
CAPPED_COMMANDS = """
import json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 * 10**9, 2 * 10**9))
from cflgap.cli import main
for argv, expected in json.loads(sys.argv[1]):
    code = main(argv)
    if code != expected:
        sys.exit(f"{argv}: exit {code}, not {expected}")
"""

HUGE_GEN = ["gen", "--general", "--nf", "1000000000000", "--t", "2", "--U", "4",
            "--m", "13", "--eps", "2/5", "--xl", "1/8"]

# 2 * 10**12 + 3 clients on 6 facilities: a valid instance
WIDE_GEN = ["gen", "--general", "--nf", "6", "--t", "2", "--U", "1000000000000",
            "--m", "2000000000003", "--eps", "2/5", "--xl", "1/8"]


def run_capped(steps):
    """Run ``(argv, exit code)`` steps through CAPPED_COMMANDS in a subprocess."""
    return subprocess.run(
        [sys.executable, "-c", CAPPED_COMMANDS, json.dumps(steps)],
        capture_output=True, text=True,
    )


class TestCoreAndCollide:
    def test_random_core_passes_lpcheck(self, workspace):
        core = workspace["dir"] / "rand.core"
        result = run(
            "core", "--instance", str(workspace["mini"]),
            "--random", "--seed", "5", "-o", str(core),
        )
        assert result.returncode == 0
        check = run("lpcheck", str(core))
        assert check.returncode == 0
        assert "pass" in check.stdout

    def test_core_without_output_builds_no_document(self, workspace, monkeypatch):
        def refuse(*args):
            raise AssertionError("core built a document that it does not write")

        monkeypatch.setattr(docio, "core_file_doc", refuse)
        argv = ["core", "--instance", str(workspace["mini"]), "--random", "--seed", "5"]
        assert run(*argv).returncode == 0
        assert run(*argv, "-o", str(workspace["dir"] / "r.core")).returncode == 2

    def test_collide_true_exits_0(self, workspace):
        result = run("collide", str(workspace["a"]), str(workspace["b"]))
        assert result.returncode == 0
        assert "true" in result.stdout

    def test_collide_false_exits_1(self, workspace):
        result = run("collide", str(workspace["a"]), str(workspace["c"]))
        assert result.returncode == 1
        assert "false" in result.stdout

    def test_range_spec(self, workspace):
        core = workspace["dir"] / "spec.core"
        result = run(
            "core", "--instance", str(workspace["mini"]),
            "--k", "0..1", "--l", "2..3", "-o", str(core),
        )
        assert result.returncode == 0
        doc = json.loads(core.read_text())
        assert doc["k"] == [0, 1] and doc["l"] == [2, 3]

    @pytest.mark.parametrize("spec", ["0..1000000000000", "0..3", "-1..0", "1..0"])
    def test_range_spec_checked_before_it_is_expanded(self, workspace, capsys, spec):
        # every range used to be expanded before any check: 0..3000000
        # took 0.49 s and 327 MB peak RSS (2 vCPUs) before exiting 2
        start = time.perf_counter()
        code = cli.main(["core", "--instance", str(workspace["mini"]), f"--k={spec}", "--l=4,5"])
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code == 2
        assert err == (f"error: range {spec} is not a run of at most t = 2 of "
                       "the 6 facility ids\n")
        assert elapsed < 1

    def test_id_list_classes_read_as_their_runs(self, workspace, capsys):
        # k = {0, 1} with l = {2, 4} or {3, 5}: l and the outside facilities
        # are classes of two runs each
        for name, l in (("d", "2,4"), ("e", "3,5")):
            path = workspace["dir"] / f"{name}.core"
            assert run(
                "core", "--instance", str(workspace["mini"]), "--k", "0,1", "--l", l,
                "-o", str(path),
            ).returncode == 0
            doc = json.loads(path.read_text())
            old = as_id_lists(doc)
            assert old != doc
            (workspace["dir"] / f"{name}-ids.core").write_text(json.dumps(old))
            vec, old_vec = docio.load_core_doc(doc)[2], docio.load_core_doc(old)[2]
            assert old_vec.equals(vec) and vec.equals(old_vec)
        capsys.readouterr()
        stdout = []
        for suffix in ("", "-ids"):
            d, e = (str(workspace["dir"] / f"{name}{suffix}.core") for name in "de")
            assert cli.main(["lpcheck", d]) == 0
            assert cli.main(["verify-midpoint", d, e]) == 0
            stdout.append(capsys.readouterr().out)
        assert stdout[0] == stdout[1]

    def test_random_cores_at_1e12_facilities_are_small(self, tmp_path):
        # a class of several runs was written id by id: at 10**12 facilities
        # core -o ended in a MemoryError under this cap
        huge, first, second = (str(tmp_path / name)
                               for name in ("huge.json", "huge.core", "huge2.core"))
        steps = [
            [*HUGE_GEN, "-o", huge],
            ["core", "--instance", huge, "--random", "--seed", "1", "-o", first],
            ["core", "--instance", huge, "--random", "--seed", "2", "-o", second],
            ["lpcheck", first],
            ["collide", first, second],
        ]
        result = run_capped([(argv, 0) for argv in steps])
        assert result.returncode == 0, result.stderr
        for path in (first, second):
            assert os.path.getsize(path) < 4096

    def test_midpoints_certified_and_sampler_refused_at_1e12_facilities(self, tmp_path):
        # the rounding plan built the outside bins id by id, so verify-midpoint
        # refused such an instance; only the sampler's tables list every id
        huge, first, second, r1, r2 = (str(tmp_path / name) for name in
                                       ("huge.json", "a.core", "b.core", "r1.core", "r2.core"))
        result = run_capped([
            ([*HUGE_GEN, "-o", huge], 0),
            (["core", "--instance", huge, "--k", "0,1", "--l", "2,3", "-o", first], 0),
            (["core", "--instance", huge, "--k", "0,1", "--l", "4,5", "-o", second], 0),
            (["verify-midpoint", first, second], 0),
            (["core", "--instance", huge, "--random", "--seed", "1", "-o", r1], 0),
            (["core", "--instance", huge, "--random", "--seed", "2", "-o", r2], 0),
            (["verify-midpoint", r1, r2], 0),
            (["sample", first, second, "--n", "1", "--seed", "1"], 2),
        ])
        assert result.returncode == 0, result.stderr
        assert result.stdout.count("classes=24 probability_sum=1/1 valid=True") == 2
        refusal = ("error: facility count 1000000000000 exceeds the sampler's "
                   f"limit {FACILITY_LIMIT}")
        assert result.stderr.count(refusal) == 1
        assert "Traceback" not in result.stderr

    def test_wide_instances_are_refused_before_their_tables_are_built(self, tmp_path):
        # certify, oracle opt and census --mc built facility-wide masks and
        # rows, sample and certify client-wide ones: each ended in a numpy
        # MemoryError traceback under this cap
        huge, a, wide, wa, wb = (str(tmp_path / name) for name in
                                 ("huge.json", "a.core", "wide.json", "wa.core", "wb.core"))
        result = run_capped([
            ([*HUGE_GEN, "-o", huge], 0),
            (["core", "--instance", huge, "--k", "0,1", "--l", "2,3", "-o", a], 0),
            (["certify", "--core", a], 2),
            (["certify", "--instance", huge], 2),
            (["oracle", "opt", "--core", a], 2),
            (["census", "--instance", huge, "--mc", "10", "--seed", "1"], 2),
            ([*WIDE_GEN, "-o", wide], 0),
            (["core", "--instance", wide, "--k", "0,1", "--l", "2,3", "-o", wa], 0),
            (["core", "--instance", wide, "--k", "0,1", "--l", "4,5", "-o", wb], 0),
            (["sample", wa, wb, "--n", "1", "--seed", "1"], 2),
            (["certify", "--core", wa], 2),
            (["verify-midpoint", wa, wb], 0),
        ])
        assert result.returncode == 0, result.stderr
        assert result.stderr.count("error: facility count 1000000000000 exceeds ") == 4
        assert result.stderr.count("error: client count 2000000000003 exceeds ") == 2
        assert "Traceback" not in result.stderr
        assert "classes=24" in result.stdout and "valid=True" in result.stdout

    def test_malformed_subsets_exit_2(self, workspace):
        result = run(
            "core", "--instance", str(workspace["mini"]), "--k", "0,1", "--l", "1,2"
        )
        assert result.returncode == 2


class TestVerifyMidpointAndSample:
    def test_verify_midpoint_valid(self, workspace):
        out = workspace["dir"] / "cert.json"
        result = run(
            "verify-midpoint", str(workspace["a"]), str(workspace["b"]), "-o", str(out)
        )
        assert result.returncode == 0
        doc = json.loads(out.read_text())
        assert doc["valid"] is True
        assert doc["expectation_matches"] is True
        assert doc["probability_sum"] == "1/1"

    def test_non_colliding_exits_2_naming_empty_side(self, workspace):
        result = run("verify-midpoint", str(workspace["a"]), str(workspace["c"]))
        assert result.returncode == 2
        assert "no pivot exists" in result.stderr

    def test_sample_summary_and_solutions(self, workspace):
        out = workspace["dir"] / "samples.json"
        sol_dir = workspace["dir"] / "sols"
        result = run(
            "sample", str(workspace["a"]), str(workspace["b"]),
            "--n", "50", "--seed", "11", "-o", str(out),
            "--solutions-dir", str(sol_dir),
        )
        assert result.returncode == 0
        doc = json.loads(out.read_text())
        assert doc["samples"] == 50
        assert doc["feasible"] == 50
        assert doc["unmatched_class_draws"] == 0
        assert sum(c["observed"] for c in doc["classes"]) == 50
        files = sorted(sol_dir.iterdir())
        assert len(files) == 50
        first = json.loads(files[0].read_text())
        assert "seed" in first and len(first["assign"]) == 13

    def test_t10_solutions_of_a_multi_chunk_block_read_back_feasible(self, tmp_path):
        # a t=10 row is 160 KB, so one draw more than a piece's rows spans two
        # pieces of shuffled rows
        from cflgap.instance import build_family_instance
        from cflgap.io import solution_from_doc
        from cflgap.rounding import solution_violations

        family10 = build_family_instance(10, 2)
        n = max(1, rounding._CHUNK_BYTES // (8 * family10.client_count)) + 1
        inst, a, b = tmp_path / "t10.json", tmp_path / "a.core", tmp_path / "b.core"
        sol_dir = tmp_path / "sols"
        for argv in (
            ["gen", "--family", "--t", "10", "--a", "2", "-o", str(inst)],
            ["core", "--instance", str(inst), "--k", "0..9", "--l", "10..19", "-o", str(a)],
            ["core", "--instance", str(inst), "--k", "20..29", "--l", "30..39", "-o", str(b)],
            ["sample", str(a), str(b), "--n", str(n), "--seed", "8",
             "--solutions-dir", str(sol_dir)],
        ):
            assert run(*argv).returncode == 0, argv
        sols = [solution_from_doc(json.loads(path.read_text()))
                for path in sorted(sol_dir.iterdir())]
        assert len(sols) == n and len(set(sols)) == n
        assert all(solution_violations(family10, sol) == [] for sol in sols)

    def test_count_only_sample_does_not_shuffle(self, tmp_path, monkeypatch):
        # without --solutions-dir no per-client assignment is read, so rows
        # stay in run form, neither shuffled nor expanded; the reports are
        # still the golden ones
        from cflgap.randomness import ExactRng
        from test_golden import GOLDEN, MINI_GEN, T10_GEN, _cli, _digest, _pair

        def refuse(*args):
            raise AssertionError("a count-only sample built per-client rows")

        monkeypatch.setattr(ExactRng, "shuffle_rows", refuse)
        monkeypatch.setattr(rounding.DrawChunk, "row", refuse)
        monkeypatch.setattr(rounding.DrawChunk, "draws", refuse)
        monkeypatch.chdir(tmp_path)
        _pair(MINI_GEN, "0,1", "2,3", "0,1", "4,5")
        _cli("sample", "a.core", "b.core", "--n", "300", "--seed", "2024", "-o", "s.json")
        assert _digest(tmp_path / "s.json") == GOLDEN["mini-n300"]
        _pair(T10_GEN, "0..9", "10..19", "20..29", "30..39")
        _cli("sample", "a.core", "b.core", "--n", "40", "--seed", "424242", "-o", "s.json")
        assert _digest(tmp_path / "s.json") == GOLDEN["t10-n40"]

    def test_solutions_dir_changes_only_the_files_written(self, workspace):
        from cflgap.io import instance_from_doc, solution_from_doc
        from cflgap.rounding import solution_violations

        sol_dir = workspace["dir"] / "sols"
        reports = []
        for extra in ([], ["--solutions-dir", str(sol_dir)]):
            out = workspace["dir"] / f"report{len(reports)}.json"
            assert run(
                "sample", str(workspace["a"]), str(workspace["b"]),
                "--n", "1200", "--seed", "5", "-o", str(out), *extra,
            ).returncode == 0
            doc = json.loads(out.read_text())
            del doc["manifest"]["parameters"]["solutions_dir"]
            reports.append(doc)
        assert reports[0] == reports[1]
        files = sorted(sol_dir.iterdir())
        assert len(files) == 1200
        mini = instance_from_doc(json.loads(workspace["mini"].read_text()))
        for path in files:
            sol = solution_from_doc(json.loads(path.read_text()))
            assert solution_violations(mini, sol) == []

    def test_sample_refuses_solutions_dir_with_old_files(self, workspace):
        sol_dir = workspace["dir"] / "sols"
        assert run(
            "sample", str(workspace["a"]), str(workspace["b"]),
            "--n", "30", "--seed", "3", "--solutions-dir", str(sol_dir),
        ).returncode == 0
        before = {path.name: path.read_bytes() for path in sol_dir.iterdir()}
        assert len(before) == 30
        out = workspace["dir"] / "second.json"
        result = run(
            "sample", str(workspace["a"]), str(workspace["b"]),
            "--n", "10", "--seed", "4", "--solutions-dir", str(sol_dir), "-o", str(out),
        )
        assert result.returncode == 2
        assert str(sol_dir) in result.stderr and "30" in result.stderr
        assert {path.name: path.read_bytes() for path in sol_dir.iterdir()} == before
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["collide"],
        ["verify-midpoint"],
        ["sample", "--n", "5", "--seed", "1"],
    ], ids=["collide", "verify-midpoint", "sample"])
    def test_cores_of_different_instances_exit_2(self, workspace, command):
        # a core of MINI rebuilt with eps 1/3 that collides with core file a
        other_inst, other = workspace["dir"] / "eps.json", workspace["dir"] / "eps.core"
        for argv in (
            ["gen", "--general", "--nf", "6", "--t", "2", "--U", "4", "--m", "13",
             "--eps", "1/3", "--xl", "1/8", "-o", str(other_inst)],
            ["core", "--instance", str(other_inst), "--k", "0,1", "--l", "4,5",
             "-o", str(other)],
        ):
            assert run(*argv).returncode == 0, argv
        out = workspace["dir"] / "mixed.json"
        argv = [command[0], str(workspace["a"]), str(other), *command[1:]]
        if command[0] != "collide":
            argv += ["-o", str(out)]
        result = run(*argv)
        assert result.returncode == 2
        assert "core files describe different instances" in result.stderr
        assert not out.exists()

    def test_sample_infeasible_distribution_exits_2(self, tmp_path):
        # valid parameters, but a pivot target below 1 rounds to 0 slots and
        # the high set overflows on some branches
        inst, a, b = tmp_path / "inst.json", tmp_path / "a.core", tmp_path / "b.core"
        for argv in (
            ["gen", "--general", "--nf", "6", "--t", "2", "--U", "4", "--m", "13",
             "--eps", "1/3", "--xl", "1/18", "-o", str(inst)],
            ["core", "--instance", str(inst), "--k", "0,1", "--l", "2,3", "-o", str(a)],
            ["core", "--instance", str(inst), "--k", "0,1", "--l", "4,5", "-o", str(b)],
        ):
            assert run(*argv).returncode == 0
        result = run("sample", str(a), str(b), "--n", "20", "--seed", "1")
        assert result.returncode == 2, result.stderr
        assert "infeasible outcome class" in result.stderr
        assert "Traceback" not in result.stderr

    def test_sample_overfilled_pool_names_pool_and_served_count(self, tmp_path):
        # experiment A borrows 2 pivot slots for a rest pool of 1 client, so
        # its class profile serves 9 of the 8 clients
        inst, a, b = tmp_path / "inst.json", tmp_path / "a.core", tmp_path / "b.core"
        for argv in (
            ["gen", "--general", "--nf", "6", "--t", "2", "--U", "3", "--m", "8",
             "--eps", "1/5", "--xl", "1/14", "-o", str(inst)],
            ["core", "--instance", str(inst), "--k", "0,1", "--l", "2,3", "-o", str(a)],
            ["core", "--instance", str(inst), "--k", "0,1", "--l", "2,4", "-o", str(b)],
        ):
            assert run(*argv).returncode == 0, argv
        result = run("sample", str(a), str(b), "--n", "5", "--seed", "1")
        assert result.returncode == 2, result.stderr
        assert "slot_profile [(0, 3), (1, 2), (2, 2), (4, 2)]" in result.stderr
        assert "2 borrowed-pivot slots overfill the rest pool (size 1)" in result.stderr
        assert "the profile serves 9 of 8 clients" in result.stderr
        assert "Traceback" not in result.stderr


def _closed(draw, assign):  # client 0 moves to the lowest closed facility
    assign[0] = min(set(range(6)) - draw.solution.open)
    return draw.solution.open, assign


def _over(draw, assign):  # clients 0..4 pile onto facility 0, open in both experiments
    assign[:5] = 0
    return draw.solution.open, assign


def _closed_and_over(draw, assign):
    assign[:5] = min(set(range(6)) - draw.solution.open)
    return draw.solution.open, assign


def _id_too_high(draw, assign):
    assign[0] = 6
    return draw.solution.open, assign


def _huge_id(draw, assign):
    assign[0] = 10**12
    return draw.solution.open, assign


def _negative_id(draw, assign):
    assign[0] = -1
    return draw.solution.open, assign


def _short(draw, assign):
    return draw.solution.open, assign[:-1]


def _no_class(draw, assign):
    # the last client (rest pool) moves to the chosen low facility, which
    # stays within capacity, but the designated groups now serve 10 clients
    assign[-1] = draw.chosen_l_facility
    return draw.solution.open, assign


def _unknown_open_id(draw, assign):
    return draw.solution.open | {6}, assign


def _unknown_open_and_assign_id(draw, assign):
    assign[0] = 6
    return draw.solution.open | {6}, assign


class TestSampleFailurePath:
    """Rows of the block sampler, corrupted, reach the report's failure fields.

    ``sample`` refuses a distribution with an infeasible class before it
    draws, so only a corrupted draw reaches these checks.  The expected
    fields were recorded from ``solution_violations`` and
    ``outcome_class_key`` on each corrupted draw, on MINI at seed 5.
    Without ``--solutions-dir`` the command keeps its rows in run form, so
    a spoil that rewrites the first clients sees the row expanded in pool
    order.
    """

    @pytest.fixture()
    def corrupt(self, monkeypatch):
        """Make ``sample_block`` corrupt the draw at position ``i`` with ``spoil[i]``."""
        from dataclasses import replace

        import cflgap.rounding as rounding

        original = rounding.sample_block

        def corrupted(fn):
            def apply(draw):
                open_set, assign = fn(draw, draw.solution.assign.copy())
                return replace(draw, solution=rounding.IntSolution(open_set, assign))
            return apply

        def install(spoil):
            drawn = [0]  # draws made so far; blocks run in order in one process
            fns = {position: corrupted(fn) for position, fn in spoil.items()}

            def sample_block(plan, rng, count):
                first, drawn[0] = drawn[0], drawn[0] + count
                return spoil_rows(plan, original(plan, rng, count), fns, first)

            monkeypatch.setattr(rounding, "sample_block", sample_block)
        return install

    def _sample(self, workspace, n):
        out = workspace["dir"] / "failed.json"
        code = run(
            "sample", str(workspace["a"]), str(workspace["b"]),
            "--n", str(n), "--seed", "5", "-o", str(out),
        ).returncode
        doc = json.loads(out.read_text())
        fields = ("feasible", "infeasible", "violation_examples", "unmatched_class_draws")
        return code, {name: doc[name] for name in fields}

    @pytest.mark.parametrize("spoil, feasible, examples, unmatched", [
        (_closed, 18, ["sample 4: ['clients assigned to closed facilities [2]']",
                       "sample 9: ['clients assigned to closed facilities [3]']"], 2),
        (_over, 18, ["sample 4: ['capacity exceeded at [(0, 6)] (capacity 4)']",
                     "sample 9: ['capacity exceeded at [(0, 5)] (capacity 4)']"], 2),
        (_closed_and_over, 18,
         ["sample 4: ['clients assigned to closed facilities [2]', "
          "'capacity exceeded at [(2, 5)] (capacity 4)']",
          "sample 9: ['clients assigned to closed facilities [3]', "
          "'capacity exceeded at [(3, 5)] (capacity 4)']"], 2),
        (_id_too_high, 18, ["sample 4: ['assignment targets unknown facility ids']",
                            "sample 9: ['assignment targets unknown facility ids']"], 2),
        (_huge_id, 18, ["sample 4: ['assignment targets unknown facility ids']",
                        "sample 9: ['assignment targets unknown facility ids']"], 2),
        (_negative_id, 18, ["sample 4: ['assignment targets unknown facility ids']",
                            "sample 9: ['assignment targets unknown facility ids']"], 2),
        (_short, 18, ["sample 4: ['assignment covers 12 clients, instance has 13']",
                      "sample 9: ['assignment covers 12 clients, instance has 13']"], 2),
        (_no_class, 20, [], 2),
        (_unknown_open_id, 18, ["sample 4: ['open set contains unknown facility ids']",
                                "sample 9: ['open set contains unknown facility ids']"], 0),
        (_unknown_open_and_assign_id, 18,
         ["sample 4: ['open set contains unknown facility ids', "
          "'assignment targets unknown facility ids']",
          "sample 9: ['open set contains unknown facility ids', "
          "'assignment targets unknown facility ids']"], 2),
    ], ids=["closed", "over", "closed-and-over", "id-too-high", "huge-id",
            "negative-id", "short",
            "no-class", "unknown-open-id", "unknown-open-and-assign-id"])
    def test_corrupted_draws_are_reported(
        self, workspace, corrupt, spoil, feasible, examples, unmatched
    ):
        corrupt({4: spoil, 9: spoil})
        assert self._sample(workspace, 20) == (1, {
            "feasible": feasible,
            "infeasible": 20 - feasible,
            "violation_examples": examples,
            "unmatched_class_draws": unmatched,
        })

    def test_examples_keep_draw_order_across_blocks(self, workspace, corrupt):
        # seven flagged draws over two blocks; the report keeps the first five
        corrupt({3: _closed, 5: _over, 11: _no_class, 998: _over, 1000: _short,
                 1003: _closed, 1100: _id_too_high, 1101: _negative_id})
        assert self._sample(workspace, 1200) == (1, {
            "feasible": 1193,
            "infeasible": 7,
            "violation_examples": [
                "sample 3: ['clients assigned to closed facilities [4]']",
                "sample 5: ['capacity exceeded at [(0, 6)] (capacity 4)']",
                "sample 998: ['capacity exceeded at [(0, 6)] (capacity 4)']",
                "sample 1000: ['assignment covers 12 clients, instance has 13']",
                "sample 1003: ['clients assigned to closed facilities [5]']",
            ],
            "unmatched_class_draws": 8,
        })


class TestMalformedCoreDocument:
    @pytest.fixture()
    def broken(self, workspace):
        """Write a copy of a workspace file (core file a by default), altered."""
        def make(drop, source="a", name="broken.core"):
            doc = json.loads(workspace[source].read_text())
            drop(doc)
            path = workspace["dir"] / name
            path.write_text(json.dumps(doc))
            return str(path)
        return make

    @pytest.mark.parametrize("code", [0, 2])
    def test_fresh_interpreter_exit_codes(self, workspace, broken, code):
        # the tests here run commands in process, where an uncaught error
        # fails the test; one command per exit code runs as a shell runs it
        if code == 0:
            argv = ["lpcheck", broken(lambda doc: doc["y"][1].update(value="1/1"))]
            text, stream = "natural LP check: pass", "stdout"
        else:
            argv = ["sample", broken(lambda doc: doc.pop("k")), str(workspace["b"]),
                    "--n", "5", "--seed", "1"]
            text, stream = "missing field 'k'", "stderr"
        result = run_fresh(*argv)
        assert result.returncode == code, result.stderr
        assert text in getattr(result, stream)
        assert "Traceback" not in result.stderr

    def test_missing_k_exits_2_naming_field(self, workspace, broken):
        path = broken(lambda doc: doc.pop("k"))
        for argv in (["lpcheck", path],
                     ["sample", path, str(workspace["b"]), "--n", "5", "--seed", "1"]):
            result = run(*argv)
            assert result.returncode == 2, result.stderr
            assert "missing field 'k'" in result.stderr
            assert "Traceback" not in result.stderr

    def test_missing_x_cell_exits_2_naming_cell(self, workspace, broken):
        path = broken(lambda doc: doc["x"].pop())
        for argv in (["lpcheck", path],
                     ["sample", path, str(workspace["b"]), "--n", "5", "--seed", "1"]):
            result = run(*argv)
            assert result.returncode == 2, result.stderr
            assert "missing the x cell" in result.stderr
            assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("dense, cell", [
        (True, "repeats the x cell [0, 0]"),
        (False, "repeats the x cell for facility class 0 and client class 0"),
    ], ids=["dense", "classed"])
    @pytest.mark.parametrize("first", [False, True], ids=["appended", "prepended"])
    def test_repeated_x_cell_exits_2_naming_cell(self, workspace, capsys, dense, cell, first):
        # a second entry for the first x cell, with another value: the reader
        # kept whichever came last, so the verdict depended on entry order
        source = workspace["dir"] / "source.core"
        assert run(
            "core", "--instance", str(workspace["mini"]), "--k", "0,1", "--l", "2,3",
            *(["--dense"] if dense else []), "-o", str(source),
        ).returncode == 0
        doc = json.loads(source.read_text())
        entry = doc["x"][0]
        repeat = [*entry[:2], "1/3"] if dense else {**entry, "value": "1/3"}
        doc["x"].insert(0 if first else len(doc["x"]), repeat)
        path = workspace["dir"] / "repeated.core"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        for argv in (["lpcheck", str(path)],
                     ["collide", str(path), str(workspace["b"])]):
            assert cli.main(argv) == 2, argv
            err = capsys.readouterr().err
            assert cell in err and "Traceback" not in err

    @pytest.mark.parametrize("source, keys, value, commands, message", [
        pytest.param(
            "mini", ["client_count"], None,
            [["core", "--instance", "{path}", "--k", "0,1", "--l", "2,3"]],
            "field 'client_count' must be an integer, got null",
            id="null-client-count",
        ),
        pytest.param(
            "a", ["k"], 5,
            [["lpcheck", "{path}"],
             ["sample", "{path}", "{b}", "--n", "5", "--seed", "1"]],
            "field 'k' must be a list, got 5",
            id="non-list-k",
        ),
        pytest.param(
            "dense", ["x", 0, 0], 99,
            [["lpcheck", "{path}"]],
            "is outside the 6 x 13 assignment matrix",
            id="dense-triplet-out-of-range",
        ),
        pytest.param(
            "dense", ["y"], ["1/1"],
            [["lpcheck", "{path}"]],
            "core document has 1 y entries for 6 facilities",
            id="dense-y-short",
        ),
        # t = 0 used to end every validating command in a ZeroDivisionError
        pytest.param(
            "mini", ["family_params", "t"], 0,
            [["core", "--instance", "{path}", "--k", "0,1", "--l", "2,3"],
             ["certify", "--instance", "{path}"],
             ["bound", "--instance", "{path}"],
             ["census", "--instance", "{path}", "--exact"]],
            "t must be >= 1, got 0",
            id="instance-t-0",
        ),
        # certify --instance used to end in an AttributeError on reference_index
        pytest.param(
            "mini", ["family_params"], None,
            [["core", "--instance", "{path}", "--k", "0,1", "--l", "2,3"],
             ["certify", "--instance", "{path}"],
             ["bound", "--instance", "{path}"],
             ["census", "--instance", "{path}", "--exact"]],
            "error: instance has no family_params\n",
            id="family-less-instance",
        ),
        pytest.param(
            "a", ["instance", "family_params"], None,
            [["certify", "--core", "{path}"],
             ["verify-midpoint", "{path}", "{b_altered}"]],
            "error: instance has no family_params\n",
            id="family-less-core-file",
        ),
        pytest.param(
            "a", ["x", 0, "facilities"], {"span": [0, 1]},
            [["lpcheck", "{path}"],
             ["sample", "{path}", "{b}", "--n", "5", "--seed", "1"]],
            "x entry 0 field 'facilities' is not one of the y classes",
            id="x-facilities-not-a-y-class",
        ),
        pytest.param(
            # entry 0 holds the valid span [0, 9]; a shared span is no excuse
            # to skip checking a later entry's
            "a", ["x", 2, "clients"], {"span": [0]},
            [["lpcheck", "{path}"],
             ["sample", "{path}", "{b}", "--n", "5", "--seed", "1"]],
            "x entry clients span must be [lo, hi], got [0]",
            id="short-clients-span",
        ),
        # a reversed run is refused, not merged into the run before it
        pytest.param(
            "a", ["y", 0, "facilities"], {"span": [0, 2, 2, 1]},
            [["lpcheck", "{path}"]],
            "y entry facilities span must be [lo, hi], got [0, 2, 2, 1]",
            id="reversed-facility-run",
        ),
        pytest.param(
            "a", ["core_clients"], {"span": [-1, 9]},
            [["sample", "{path}", "{b}", "--n", "5", "--seed", "1"]],
            "core clients must be client ids of the instance",
            id="negative-core-client",
        ),
        # MINI's designated clients are [0, 9); a shifted group used to give
        # false verdicts (a failed midpoint expectation, a 5/14 gap ratio)
        pytest.param(
            "a", ["core_clients"], {"span": [1, 10]},
            [["sample", "{path}", "{b}", "--n", "5", "--seed", "1"],
             ["verify-midpoint", "{path}", "{b_altered}"],
             ["verify-midpoint", "{path}", "{b}"],
             ["certify", "--core", "{path}"],
             ["lpcheck", "{path}"]],
            "field 'core_clients' is",
            id="shifted-core-clients",
        ),
        pytest.param(
            "a", ["k"], [0, 99],
            [["sample", "{path}", "{b}", "--n", "20", "--seed", "1"],
             ["collide", "{path}", "{b}"]],
            "k and l must be facility ids of the instance",
            id="k-outside-facilities",
        ),
        pytest.param(
            "a", ["k"], [-1, 1],
            [["sample", "{path}", "{b}", "--n", "20", "--seed", "1"],
             ["collide", "{path}", "{b}"]],
            "k and l must be facility ids of the instance",
            id="negative-k",
        ),
        pytest.param(
            "a", ["k"], [0, 1, 2],
            [["sample", "{path}", "{b}", "--n", "20", "--seed", "1"],
             ["collide", "{path}", "{b}"]],
            "|k| and |l| must both equal t = 2, got 3, 2",
            id="k-of-size-3",
        ),
        pytest.param(
            "a", ["k"], [0, 2],
            [["sample", "{path}", "{b}", "--n", "20", "--seed", "1"],
             ["collide", "{path}", "{b}"]],
            "k and l must be disjoint, share [2]",
            id="overlapping-k-and-l",
        ),
        # MINI has capacity 4 and t = 2, so 9 designated clients, not 10
        pytest.param(
            "mini", ["family_params", "core_client_count"], 10,
            [["core", "--instance", "{path}", "--k", "0,1", "--l", "2,3"],
             ["certify", "--instance", "{path}"],
             ["bound", "--instance", "{path}"]],
            "core_client_count = 10 must equal capacity*t + 1 = 9",
            id="instance-core-client-count-10",
        ),
        pytest.param(
            "a", ["instance", "family_params", "core_client_count"], 10,
            [["verify-midpoint", "{path}", "{b_altered}"],
             ["lpcheck", "{path}"]],
            "core_client_count = 10 must equal capacity*t + 1 = 9",
            id="core-file-core-client-count-10",
        ),
        # y of l raised from eps to 1: these commands work from (k, l), so
        # they used to certify a vector that is not in the file
        pytest.param(
            "a", ["y", 1, "value"], "1/1",
            [["sample", "{path}", "{b}", "--n", "5", "--seed", "1"],
             ["verify-midpoint", "{path}", "{b}"],
             ["verify-midpoint", "{path}", "{b_altered}"],
             ["collide", "{path}", "{b}"],
             ["certify", "--core", "{path}"]],
            "holds a vector other than the core vector of k=[0, 1] l=[2, 3]: "
            "y of facilities 2..3 is 1, not 2/5",
            id="payload-other-than-its-index",
        ),
    ])
    def test_wrong_type_exits_2_naming_field(
        self, workspace, broken, source, keys, value, commands, message
    ):
        if source == "dense":
            workspace["dense"] = workspace["dir"] / "dense.core"
            assert run(
                "core", "--instance", str(workspace["mini"]), "--k", "0,1",
                "--l", "2,3", "--dense", "-o", str(workspace["dense"]),
            ).returncode == 0

        def alter(doc):
            for key in keys[:-1]:
                doc = doc[key]
            doc[keys[-1]] = value

        path = broken(alter, source)
        # core file b altered the same way, for commands that read two cores
        b_altered = broken(alter, "b", "b_altered.core") if source == "a" else None
        for argv in commands:
            result = run(*(
                arg.format(path=path, b=workspace["b"], b_altered=b_altered) for arg in argv
            ))
            assert result.returncode == 2, result.stderr
            assert message in result.stderr
            assert "Traceback" not in result.stderr

    def test_payload_other_than_its_index_read_as_written(self, workspace, broken, tmp_path):
        # lpcheck and oracle member check the vector in the file, whatever its index
        def raise_l(doc):
            doc["y"][1]["value"] = "1/1"

        assert run("lpcheck", broken(raise_l)).returncode == 0
        tiny, core = tmp_path / "tiny.json", tmp_path / "t.core"
        assert run(
            "gen", "--general", "--nf", "3", "--t", "1", "--U", "2", "--m", "3",
            "--eps", "1/2", "--xl", "1/3", "-o", str(tiny),
        ).returncode == 0
        assert run(
            "core", "--instance", str(tiny), "--k", "0", "--l", "1", "-o", str(core)
        ).returncode == 0
        doc = json.loads(core.read_text())
        raise_l(doc)
        core.write_text(json.dumps(doc))
        for argv, code in ((["lpcheck"], 0), (["oracle", "member", "--vector"], 0),
                           (["certify", "--core"], 2)):
            result = run(*argv, str(core))
            assert result.returncode == code, (argv, result.stderr)
            assert "Traceback" not in result.stderr

    def test_huge_facility_span_exits_2_fast(self, workspace, broken, capsys):
        # a facility span is read as one run and refused by the partition
        # check; reading it as an id set took 518 ms and 289 MB for a span
        # of 3 * 10**6 ids, and a span of 10**12 ids never finished
        def widen(doc):
            first = doc["y"][0]["facilities"]
            for entry in doc["y"] + doc["x"]:
                if entry["facilities"] == first:
                    entry["facilities"] = {"span": [0, 10**12]}

        path = broken(widen)
        start = time.perf_counter()
        code = cli.main(["lpcheck", path])
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code == 2
        assert "facility classes" in err and "Traceback" not in err
        assert elapsed < 0.5

    def test_overlapping_facility_runs_exit_2(self, broken, capsys):
        def overlap(doc):
            first = doc["y"][0]["facilities"]
            for entry in doc["y"] + doc["x"]:
                if entry["facilities"] == first:
                    entry["facilities"] = {"span": [0, 3, 2, 5]}

        assert cli.main(["lpcheck", broken(overlap)]) == 2
        err = capsys.readouterr().err
        assert "overlapping facility classes" in err and "Traceback" not in err

    def test_huge_facility_count_reads_outside_as_one_run(self, broken, capsys):
        # the outside facilities of a 10**12-facility core file are one span;
        # testing k and l against every facility id and building the outside
        # class id by id took 0.70 s (lpcheck) and 3.9 s (collide) at
        # 3 * 10**6 facilities, and could not allocate 10**12 ids
        huge = 10**12

        def widen(doc):
            doc["instance"]["facility_count"] = huge
            for entry in doc["y"] + doc["x"]:
                if entry["facilities"] == {"span": [4, 6]}:
                    entry["facilities"] = {"span": [4, huge]}
                    if entry["value"] == "1/2":
                        entry["value"] = f"1/{huge - 4}"

        path = broken(widen)
        for argv, code in ((["lpcheck", path], 0), (["collide", path, path], 1)):
            start = time.perf_counter()
            assert cli.main(argv) == code, capsys.readouterr().err
            elapsed = time.perf_counter() - start
            assert "Traceback" not in capsys.readouterr().err
            assert elapsed < 0.5, argv

    def test_oversized_dense_document_exits_2_before_allocating(self, tmp_path, capsys):
        # 2,000 x 2,000 dense coordinates, four times the dense limit: the
        # reader used to build the whole x matrix of zeros, then refuse the
        # lone y entry as "x values must be facility-class x client-class"
        path = tmp_path / "huge.core"
        path.write_text(json.dumps({
            "instance": {"facility_count": 2000, "client_count": 2000, "capacity": 1},
            "k": [0], "l": [1], "core_clients": {"span": [0, 1]},
            "repr": "dense", "y": ["1/1"] * 2000, "x": [],
        }))
        assert cli.main(["lpcheck", str(path)]) == 2
        err = capsys.readouterr().err
        assert "dense over 2000 facilities x 2000 clients, more than 1000000" in err
        assert "Traceback" not in err

    def test_designated_clients_beyond_instance_exit_2(self, tmp_path):
        # a t=1 instance cut to 2 clients, whose x entries still partition
        # them, while its 3 designated clients run past the last one
        tiny, core = tmp_path / "tiny.json", tmp_path / "t.core"
        assert run(
            "gen", "--general", "--nf", "3", "--t", "1", "--U", "2", "--m", "3",
            "--eps", "1/2", "--xl", "1/3", "-o", str(tiny),
        ).returncode == 0
        assert run(
            "core", "--instance", str(tiny), "--k", "0", "--l", "1", "-o", str(core)
        ).returncode == 0
        doc = json.loads(core.read_text())
        doc["instance"]["client_count"] = 2
        for entry in doc["x"]:
            assert entry["clients"] == {"span": [0, 3]}
            entry["clients"] = {"span": [0, 2]}
        core.write_text(json.dumps(doc))
        for argv in (["oracle", "opt", "--core"], ["oracle", "member", "--vector"],
                     ["lpcheck"], ["certify", "--core"]):
            result = run(*argv, str(core))
            assert result.returncode == 2, (argv, result.stdout)
            assert "core_client_count = 3 exceeds client_count = 2" in result.stderr
            assert "Traceback" not in result.stderr


def _reversed_x(doc):
    doc["x"].reverse()
    return doc


def _y_value(value):
    def alter(doc):
        doc["y"][1]["value"] = value  # the low set's y, eps = 1/2 on TINY
        return doc
    return alter


def _bound(entry, field, value):
    # the upper bound of the first entry's span: 1 for TINY's k = {0} and 3
    # for its clients, so an equal true, 1.0 or 3.0 leaves the file == canonical
    def alter(doc):
        doc[entry][0][field]["span"][1] = value
        return doc
    return alter


TINY_PAIR_COMMANDS = [
    ["sample", "{a}", "{b}", "--n", "20", "--seed", "1"],
    ["verify-midpoint", "{a}", "{b}"],
    ["collide", "{a}", "{b}"],
    ["certify", "--core", "{a}"],
    ["oracle", "opt", "--core", "{a}"],
]


class TestCoreFileForms:
    """Commands that work from a core file's index match its payload against
    the core vector's own document, and read any other form as a vector."""

    @pytest.fixture()
    def tiny_pair(self, tmp_path):
        """TINY core files a ({0}/{1}) and b ({0}/{2}), which collide."""
        tiny = tmp_path / "tiny.json"
        paths = {"tiny": tiny, "a": tmp_path / "a.core", "b": tmp_path / "b.core",
                 "dir": tmp_path}
        assert run(
            "gen", "--general", "--nf", "3", "--t", "1", "--U", "2", "--m", "3",
            "--eps", "1/2", "--xl", "1/3", "-o", str(tiny),
        ).returncode == 0
        for name, l in (("a", "1"), ("b", "2")):
            assert run("core", "--instance", str(tiny), "--k", "0", "--l", l,
                       "-o", str(paths[name])).returncode == 0
        return paths

    def _variant(self, tiny_pair, alter):
        doc = json.loads(tiny_pair["a"].read_text())
        path = tiny_pair["dir"] / "variant.core"
        path.write_text(json.dumps(alter(doc)))
        return str(path)

    @pytest.mark.parametrize("alter", [
        pytest.param(partial(as_id_lists, min_runs=1), id="id-lists"),
        pytest.param(None, id="dense"),
        pytest.param(_y_value("2/4"), id="unreduced-value"),
        pytest.param(_reversed_x, id="reordered-x"),
    ])
    def test_equal_payload_in_another_form_accepted(self, tiny_pair, monkeypatch, alter):
        if alter is None:
            variant = str(tiny_pair["dir"] / "dense.core")
            assert run("core", "--instance", str(tiny_pair["tiny"]), "--k", "0", "--l", "1",
                       "--dense", "-o", variant).returncode == 0
        else:
            variant = self._variant(tiny_pair, alter)
        parsed = []
        real = docio._vector_from_doc
        monkeypatch.setattr(docio, "_vector_from_doc",
                            lambda *args: parsed.append(args) or real(*args))
        for argv in TINY_PAIR_COMMANDS:
            canonical = run(*(arg.format(**tiny_pair) for arg in argv))
            assert canonical.returncode == 0, (argv, canonical.stderr)
            assert not parsed, argv
            result = run(*(arg.format(**{**tiny_pair, "a": variant}) for arg in argv))
            assert (result.returncode, result.stdout, result.stderr) == (
                0, canonical.stdout, ""), argv
            assert parsed, argv
            parsed.clear()

    @pytest.mark.parametrize("alter, message", [
        # JSON == takes true and 1.0 for 1; the span reader does not
        pytest.param(_bound("y", "facilities", True),
                     "y entry facilities span must be an integer, got true", id="true-bound"),
        pytest.param(_bound("y", "facilities", 1.0),
                     "y entry facilities span must be an integer, got 1.0", id="float-bound"),
        pytest.param(_bound("x", "clients", 3.0),
                     "x entry clients span must be an integer, got 3.0", id="float-client-bound"),
        pytest.param(_y_value("1/3"),
                     "core file {a} holds a vector other than the core vector of k=[0] l=[1]: "
                     "y of facilities 1 is 1/3, not 1/2", id="changed-value"),
    ])
    def test_unequal_or_mistyped_payload_exits_2(self, tiny_pair, alter, message):
        variant = self._variant(tiny_pair, alter)
        for argv in TINY_PAIR_COMMANDS:
            result = run(*(arg.format(**{**tiny_pair, "a": variant}) for arg in argv))
            assert result.returncode == 2, (argv, result.stdout)
            assert result.stderr == f"error: {message.format(a=variant)}\n", argv

    @pytest.mark.parametrize("argv, vectors", [
        (["verify-midpoint", "{a}", "{b}", "-o", "{dir}/vm.json"], 2),
        (["certify", "--core", "{a}", "-o", "{dir}/cert.json"], 1),
    ], ids=["verify-midpoint", "certify"])
    def test_each_core_vector_built_once_and_no_payload_parsed(
        self, workspace, monkeypatch, argv, vectors
    ):
        built = []

        def spy(inst, index):
            # the core reader builds from the CoreIndex its header check built
            built.append((sorted(index.k), sorted(index.l)))
            return corevec._core_vector(inst, index)

        def refuse(*args):
            raise AssertionError("a canonical core payload was parsed")

        def rebuild(*args):
            raise AssertionError("a core vector was built again")

        for module in (cli, rounding, certify):
            monkeypatch.setattr(module, "make_core_vector", rebuild)
        monkeypatch.setattr(docio, "_core_vector", spy)
        monkeypatch.setattr(docio, "_vector_from_doc", refuse)
        result = run(*(arg.format(**workspace) for arg in argv))
        assert result.returncode == 0, result.stderr
        assert built == [([0, 1], [2, 3]), ([0, 1], [4, 5])][:vectors]


class TestCensusCertifyBound:
    def test_census_exact_matches_brute_force(self, workspace):
        out = workspace["dir"] / "census.json"
        result = run(
            "census", "--instance", str(workspace["mini"]), "--exact", "-o", str(out)
        )
        assert result.returncode == 0
        doc = json.loads(out.read_text())
        assert doc["lambda"] == doc["brute_force_count"] == "53"

    def test_census_exact_refused_above_bound(self):
        result = run("census", "--t", "10", "--exact")
        assert result.returncode == 2
        assert "--formula-only" in result.stderr

    def test_census_formula_only_at_family_scale(self):
        result = run("census", "--t", "10", "--exact", "--formula-only")
        assert result.returncode == 0
        assert "99026143582326261786805320" in result.stdout

    def test_census_mc_requires_seed(self, workspace):
        result = run("census", "--instance", str(workspace["mini"]), "--mc", "100")
        assert result.returncode == 2

    @pytest.mark.parametrize("extra, message", [
        (["--exact", "--mc", "5"], "--exact conflicts with --mc"),
        (["--exact", "--seed", "3"], "--exact conflicts with --seed"),
        (["--exact", "--mc", "5", "--seed", "3"], "--exact conflicts with --mc and --seed"),
        (["--mc", "5", "--seed", "1", "--formula-only"],
         "--formula-only takes --exact and conflicts with --mc"),
    ], ids=["exact-mc", "exact-seed", "exact-mc-seed", "mc-formula-only"])
    def test_census_conflicting_flags_exit_2(self, workspace, extra, message):
        # these used to run one mode and drop the other flag (a seed went
        # unused into the manifest)
        out = workspace["dir"] / "census.json"
        result = run("census", "--instance", str(workspace["mini"]), *extra, "-o", str(out))
        assert (result.returncode, result.stderr) == (2, f"error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["sample", "{a}", "{b}", "--n", "-5", "--seed", "1"], "--n must be >= 1, got -5"),
        (["sample", "{a}", "{b}", "--n", "0", "--seed", "1"], "--n must be >= 1, got 0"),
        (["census", "--instance", "{mini}", "--mc", "0", "--seed", "1", "--jobs", "2"],
         "--mc must be >= 1, got 0"),
        (["sample", "{a}", "{b}", "--n", "5", "--seed", "1", "--jobs", "0"],
         "--jobs must be >= 1, got 0"),
        (["sample", "{a}", "{b}", "--n", "5", "--seed", "1", "--jobs", "-3"],
         "--jobs must be >= 1, got -3"),
        (["census", "--instance", "{mini}", "--mc", "5", "--seed", "1", "--jobs", "0"],
         "--jobs must be >= 1, got 0"),
        (["census", "--instance", "{mini}", "--mc", "5", "--seed", "1", "--jobs", "-3"],
         "--jobs must be >= 1, got -3"),
    ], ids=["sample-n-negative", "sample-n-zero", "census-mc-zero", "sample-jobs-zero",
            "sample-jobs-negative", "census-jobs-zero", "census-jobs-negative"])
    def test_non_positive_draw_count_exits_2(self, workspace, argv, message):
        result = run(*(arg.format(**workspace) for arg in argv))
        assert result.returncode == 2, result.stderr
        assert message in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("argv", [
        ["census", "--instance", "{mini}", "--exact", "-o", "{dir}/out.json"],
        ["census", "--instance", "{mini}", "--mc", "5", "--seed", "1", "-o", "{dir}/out.json"],
        ["sample", "{a}", "{b}", "--n", "5", "--seed", "1", "-o", "{dir}/out.json"],
    ], ids=["census-exact", "census-mc", "sample"])
    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_checked_before_any_work(self, workspace, monkeypatch, argv, jobs):
        # census --exact used to take --jobs 0 and exit 0; every command of
        # the shared option refuses it with one message, before it reads a file
        def refuse(*args, **kwargs):
            raise AssertionError("work started before --jobs was checked")

        monkeypatch.setattr(docio, "read_document", refuse)
        monkeypatch.setattr(certify, "build_census_report", refuse)
        result = run(*(arg.format(**workspace) for arg in argv), "--jobs", jobs)
        assert (result.returncode, result.stderr) == (2, f"error: --jobs must be >= 1, got {jobs}\n")
        assert not (workspace["dir"] / "out.json").exists()

    def test_verify_midpoint_checks_the_parameters_once(self, workspace, monkeypatch):
        # both core files describe one instance: it is parsed and checked once
        from cflgap import instance as instance_module

        calls = []
        validate = instance_module.validate_params
        monkeypatch.setattr(instance_module, "validate_params",
                            lambda inst: calls.append(inst) or validate(inst))
        for _ in range(2):
            calls.clear()
            result = run("verify-midpoint", str(workspace["a"]), str(workspace["b"]))
            assert result.returncode == 0, result.stderr
            assert len(calls) == 1

    @pytest.mark.parametrize("argv", [
        ["core", "--instance", "{mini}", "--random", "--seed", "-5"],
        ["sample", "{a}", "{b}", "--n", "1", "--seed", "-1"],
        ["census", "--instance", "{mini}", "--mc", "3", "--seed", "-2"],
    ], ids=["core-random", "sample", "census-mc"])
    def test_negative_seed_exits_2_naming_seed(self, workspace, argv, capsys):
        # core --random passed it to numpy ("expected non-negative integer");
        # sample and census --mc masked it to 64 bits and ran
        argv = [arg.format(**workspace) for arg in argv]
        with pytest.raises(SystemExit) as exit_info:
            cli.main(argv)
        assert exit_info.value.code == 2
        assert (f"argument --seed: must be a non-negative integer, got '{argv[-1]}'"
                in capsys.readouterr().err)

    def test_bound_t10(self, tmp_path):
        out = tmp_path / "bound.json"
        result = run("bound", "--t", "10", "-o", str(out))
        assert result.returncode == 0
        doc = json.loads(out.read_text())
        assert doc["core_size"] == "99026143582326261786805320"
        assert int(doc["lower_bound"]) >= 4882813

    def test_certify_t20_ratio_2(self):
        result = run("certify", "--t", "20")
        assert result.returncode == 0
        assert "ratio:      2/1" in result.stdout

    @pytest.mark.parametrize("extra, named", [
        (["--instance", "{mini}"], "--instance"),
        (["--t", "2"], "--t"),
        (["--instance", "{mini}", "--t", "2"], "--instance and --t"),
    ], ids=["instance", "t", "both"])
    def test_certify_core_with_an_instance_source_exits_2(self, workspace, extra, named):
        # the instance and --t used to be ignored, and --t stamped into the manifest
        out = workspace["dir"] / "cert.json"
        argv = ["certify", "--core", "{a}", *extra, "-o", str(out)]
        result = run(*(arg.format(**workspace) for arg in argv))
        assert result.returncode == 2
        assert result.stderr == (
            f"error: --core takes the instance from the core file and conflicts with {named}\n"
        )
        assert not out.exists()

    def test_certify_core_brute_force(self, tmp_path):
        tiny = tmp_path / "tiny.json"
        core = tmp_path / "t.core"
        assert run(
            "gen", "--general", "--nf", "3", "--t", "1", "--U", "2", "--m", "3",
            "--eps", "1/2", "--xl", "1/3", "-o", str(tiny),
        ).returncode == 0
        assert run(
            "core", "--instance", str(tiny), "--k", "0", "--l", "1", "-o", str(core)
        ).returncode == 0
        result = run("certify", "--core", str(core), "--brute-force")
        assert result.returncode == 0
        assert "(brute-force)" in result.stdout
        assert "ratio:      2/1" in result.stdout


class TestOracle:
    @pytest.fixture()
    def tiny_files(self, tmp_path):
        tiny = tmp_path / "tiny.json"
        core = tmp_path / "t.core"
        run(
            "gen", "--general", "--nf", "3", "--t", "1", "--U", "2", "--m", "3",
            "--eps", "1/2", "--xl", "1/3", "-o", str(tiny),
        ).returncode
        run(
            "core", "--instance", str(tiny), "--k", "0", "--l", "1", "-o", str(core)
        ).returncode
        return tiny, core

    def test_enum_count(self, tiny_files):
        tiny, _ = tiny_files
        result = run("oracle", "enum", "--instance", str(tiny))
        assert result.returncode == 0
        assert "integer solutions: 42" in result.stdout

    def test_member_verified(self, tiny_files):
        _, core = tiny_files
        result = run("oracle", "member", "--vector", str(core))
        assert result.returncode == 0
        assert "certificate verified: True" in result.stdout

    def test_opt_value_one(self, tiny_files):
        _, core = tiny_files
        result = run("oracle", "opt", "--core", str(core))
        assert result.returncode == 0
        assert "opt value: 1/1" in result.stdout

    def test_opt_refuses_a_core_file_other_than_its_index(self, tiny_files, capsys):
        # x of facility 1 and client 0 raised from 1/2 to 3/4: certify refused
        # the file, while oracle opt answered "opt value: 1/1" for it
        tiny, _ = tiny_files
        dense = tiny.parent / "dense.core"
        assert run("core", "--instance", str(tiny), "--k", "0", "--l", "1",
                              "--dense", "-o", str(dense)).returncode == 0
        doc = json.loads(dense.read_text())
        doc["x"] = [cell for cell in doc["x"] if cell[:2] != [1, 0]] + [[1, 0, "3/4"]]
        dense.write_text(json.dumps(doc))
        capsys.readouterr()
        errors = []
        for argv in (["oracle", "opt"], ["certify"], ["certify", "--brute-force"]):
            assert cli.main([*argv, "--core", str(dense)]) == 2, argv
            errors.append(capsys.readouterr().err)
        assert "holds a vector other than the core vector of k=[0] l=[1]" in errors[0]
        assert errors == errors[:1] * 3

    def test_enum_bound_exceeded_exits_2(self, workspace):
        result = run("oracle", "enum", "--instance", str(workspace["mini"]))
        assert result.returncode == 2

    def test_missing_file_exits_3(self, tmp_path):
        # an unreadable input exits 3 with one i/o error line: a missing file,
        # and one nested too deeply for the JSON decoder
        nested = tmp_path / "nested.core"
        nested.write_text("[" * 100_000 + "]" * 100_000)
        for argv in (["oracle", "enum", "--instance", "/nonexistent/inst.json"],
                     ["lpcheck", str(nested)]):
            result = run(*argv)
            assert result.returncode == 3, result.stderr
            assert result.stderr.startswith("i/o error:")
            assert len(result.stderr.splitlines()) == 1


class TestDeterminism:
    def test_identical_seeds_identical_bytes(self, workspace):
        out1 = workspace["dir"] / "s1.json"
        out2 = workspace["dir"] / "s2.json"
        for out in (out1, out2):
            result = run(
                "sample", str(workspace["a"]), str(workspace["b"]),
                "--n", "40", "--seed", "21", "-o", str(out),
            )
            assert result.returncode == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_jobs_fanout_matches_reruns(self, workspace):
        # 2,500 draws make three blocks, the last one partial, so --jobs 2
        # and 3 really fan out; every run must give the --jobs 1 bytes
        d = workspace["dir"]
        sols = d / "sols"
        runs = []
        for jobs in ("1", "2", "3"):
            shutil.rmtree(sols, ignore_errors=True)
            assert run(
                "sample", str(workspace["a"]), str(workspace["b"]), "--n", "2500",
                "--seed", "21", "--jobs", jobs, "--solutions-dir", str(sols),
                "-o", str(d / "j.json"),
            ).returncode == 0
            files = {path.name: path.read_bytes() for path in sols.iterdir()}
            runs.append(((d / "j.json").read_bytes(), files))
        assert len(runs[0][1]) == 2500
        assert runs[1] == runs[0] and runs[2] == runs[0]
        reports = []
        for jobs in ("1", "2"):
            assert run(
                "census", "--instance", str(workspace["mini"]), "--mc", "2500",
                "--seed", "17", "--jobs", jobs, "-o", str(d / "mc.json"),
            ).returncode == 0
            reports.append((d / "mc.json").read_bytes())
        assert reports[1] == reports[0]

    @pytest.mark.parametrize("n", [1, 999, 1000, 1001, 2500])
    def test_run_blocks_covers_n_in_seeded_blocks(self, n):
        calls = []

        def work(seed, count, start):
            calls.append((seed, count, start))
            return start

        assert cli._run_blocks(work, n, 5, 1) == [start for _, _, start in calls]
        seeds, counts, starts = (list(column) for column in zip(*calls))
        assert starts == list(range(0, n, 1000))
        assert all(1 <= count <= 1000 for count in counts) and sum(counts) == n
        # the seeds the per-worker derivation gave workers 0, 1 and 2
        assert seeds == [1635312068028924514, 13877614986023876344,
                         16279276485729455169][: len(calls)]

    @pytest.mark.parametrize("jobs, cpus, workers", [(64, 2, 2), (2, 1, 1), (2, None, 1)])
    def test_pool_has_at_most_one_worker_per_cpu(self, monkeypatch, jobs, cpus, workers):
        # the pool starts every worker at once: --jobs 64 used to fork one
        # process per block; five blocks, mapped serially here
        import concurrent.futures

        pools = []

        class SerialPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        def work(seed, count, start):
            return seed, count, start

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        assert cli._run_blocks(work, 5000, 5, jobs) == cli._run_blocks(work, 5000, 5, 1)
        assert pools == [workers]

    def test_mc_census_identical_bytes(self, workspace):
        out1 = workspace["dir"] / "mc1.json"
        out2 = workspace["dir"] / "mc2.json"
        for out in (out1, out2):
            result = run(
                "census", "--instance", str(workspace["mini"]),
                "--mc", "2000", "--seed", "17", "-o", str(out),
            )
            assert result.returncode == 0
        assert out1.read_bytes() == out2.read_bytes()
