import json
import shutil
import subprocess
import sys
import time
from contextlib import redirect_stdout
from io import StringIO

import pytest

from cflgap import cli

CLI = [sys.executable, "-m", "cflgap.cli"]


def run(*argv, cwd=None):
    return subprocess.run(
        CLI + list(argv), capture_output=True, text=True, cwd=cwd
    )


def run_in_process(*argv):
    """Exit code of ``cli.main(argv)``, for building inputs without a new interpreter."""
    with redirect_stdout(StringIO()):
        return cli.main(list(argv))


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
        assert run_in_process(*argv) == 0, argv
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
            assert run_in_process(*argv) == 0, argv
        assert seen == [vars(cli.build_parser().parse_args(argv)) for argv in runs]
        assert seen[-1].get("seed") is None
        with open(runs[-1][-1]) as handle:
            assert json.load(handle)["manifest"]["seed"] is None


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

    def test_sample_refuses_solutions_dir_with_old_files(self, workspace):
        sol_dir = workspace["dir"] / "sols"
        assert run_in_process(
            "sample", str(workspace["a"]), str(workspace["b"]),
            "--n", "30", "--seed", "3", "--solutions-dir", str(sol_dir),
        ) == 0
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
    def test_cores_of_different_instances_exit_2(self, workspace, command, capsys):
        # a core of MINI rebuilt with eps 1/3 that collides with core file a
        other_inst, other = workspace["dir"] / "eps.json", workspace["dir"] / "eps.core"
        for argv in (
            ["gen", "--general", "--nf", "6", "--t", "2", "--U", "4", "--m", "13",
             "--eps", "1/3", "--xl", "1/8", "-o", str(other_inst)],
            ["core", "--instance", str(other_inst), "--k", "0,1", "--l", "4,5",
             "-o", str(other)],
        ):
            assert run_in_process(*argv) == 0, argv
        capsys.readouterr()
        out = workspace["dir"] / "mixed.json"
        argv = [command[0], str(workspace["a"]), str(other), *command[1:]]
        if command[0] != "collide":
            argv += ["-o", str(out)]
        assert run_in_process(*argv) == 2
        assert "core files describe different instances" in capsys.readouterr().err
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
            assert run_in_process(*argv) == 0, argv
        result = run("sample", str(a), str(b), "--n", "5", "--seed", "1")
        assert result.returncode == 2, result.stderr
        assert "slot_profile [(0, 3), (1, 2), (2, 2), (4, 2)]" in result.stderr
        assert "2 borrowed-pivot slots overfill the rest pool (size 1)" in result.stderr
        assert "the profile serves 9 of 8 clients" in result.stderr
        assert "Traceback" not in result.stderr


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
            "holds a vector other than the core vector of k=[0, 1] l=[2, 3]",
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
        assert run_in_process(
            "gen", "--general", "--nf", "3", "--t", "1", "--U", "2", "--m", "3",
            "--eps", "1/2", "--xl", "1/3", "-o", str(tiny),
        ) == 0
        assert run_in_process(
            "core", "--instance", str(tiny), "--k", "0", "--l", "1", "-o", str(core)
        ) == 0
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

    def test_designated_clients_beyond_instance_exit_2(self, tmp_path):
        # a t=1 instance cut to 2 clients, whose x entries still partition
        # them, while its 3 designated clients run past the last one
        tiny, core = tmp_path / "tiny.json", tmp_path / "t.core"
        assert run_in_process(
            "gen", "--general", "--nf", "3", "--t", "1", "--U", "2", "--m", "3",
            "--eps", "1/2", "--xl", "1/3", "-o", str(tiny),
        ) == 0
        assert run_in_process(
            "core", "--instance", str(tiny), "--k", "0", "--l", "1", "-o", str(core)
        ) == 0
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
        run_in_process(
            "gen", "--general", "--nf", "3", "--t", "1", "--U", "2", "--m", "3",
            "--eps", "1/2", "--xl", "1/3", "-o", str(tiny),
        )
        run_in_process(
            "core", "--instance", str(tiny), "--k", "0", "--l", "1", "-o", str(core)
        )
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
            assert run_in_process(
                "sample", str(workspace["a"]), str(workspace["b"]), "--n", "2500",
                "--seed", "21", "--jobs", jobs, "--solutions-dir", str(sols),
                "-o", str(d / "j.json"),
            ) == 0
            files = {path.name: path.read_bytes() for path in sols.iterdir()}
            runs.append(((d / "j.json").read_bytes(), files))
        assert len(runs[0][1]) == 2500
        assert runs[1] == runs[0] and runs[2] == runs[0]
        reports = []
        for jobs in ("1", "2"):
            assert run_in_process(
                "census", "--instance", str(workspace["mini"]), "--mc", "2500",
                "--seed", "17", "--jobs", jobs, "-o", str(d / "mc.json"),
            ) == 0
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
