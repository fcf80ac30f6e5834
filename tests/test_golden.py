"""Golden digests that pin the command line's output bytes.

A ``sample`` report and its ``--solutions-dir`` files, and a ``census --mc``
report, depend only on the inputs, the seed and the draw count: ``--jobs``
only spreads the seeded blocks of draws over processes, so each digest is
checked at ``--jobs 1`` and ``--jobs 2``.  The ``sample`` digests were
pinned when each block's draws became arrays (``rounding.sample_block``):
its decisions first, then its assignments piece by piece
(``DrawChunk.draws``).  Any change to the order or arguments of the
``ExactRng`` calls a block makes changes the ``--solutions-dir`` files; so
does a change to the piece size, for a block that spans more than one
piece.  A MINI block of up to 1,000 draws is one piece; a ``t=10`` piece of
shuffled rows holds three draws, so the pinned ``t=10`` files span two
pieces.  The reports depend only on the decisions.
The non-sampling commands are pinned by exit code, stdout and ``-o`` bytes
together; their digests were recorded before dense vectors
became classed vectors with singleton classes.  Commands run in a temporary
directory with relative paths, so the manifests (which name the files) are
the same on every machine.
"""

import hashlib
import json
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from cflgap import cli

MINI_GEN = ["gen", "--general", "--nf", "6", "--t", "2", "--U", "4", "--m", "13",
            "--eps", "2/5", "--xl", "1/8"]
T10_GEN = ["gen", "--family", "--t", "10", "--a", "2"]

GOLDEN = {
    "mini-n300":
        "6764385b86d0f60b37ece9933bc9445805899c6d8aa8b1a669960f87f54128a1",
    "mini-n60-solutions-report":
        "93ae367e5480cbcbfe2848087bf4e441d00adef1c3787b515a5e34f3dbc6c4f8",
    "mini-n60-solutions-files":
        "aa3d56e1703ad727f0144a92f065f39b9aafdaa278304bf1cf75f797e04bde18",
    "t10-n40":
        "12420ddea7e63a9ec71c859995c4ecaff7df6b4e66d92c131dab49e52a919e1c",
    "t10-n4-solutions-files":
        "9b238f1ce1faf54b8284e1d2379ef3b3ca68eb78851d59759b949a77179a3941",
}


def _cli(*argv):
    with redirect_stdout(StringIO()):
        assert cli.main(list(argv)) == 0, argv


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _pair(gen, k1, l1, k2, l2):
    _cli(*gen, "-o", "inst.json")
    _cli("core", "--instance", "inst.json", "--k", k1, "--l", l1, "-o", "a.core")
    _cli("core", "--instance", "inst.json", "--k", k2, "--l", l2, "-o", "b.core")


def mini_digests(tmp_path):
    _pair(MINI_GEN, "0,1", "2,3", "0,1", "4,5")
    out = {}
    for jobs in ("1", "2"):
        _cli("sample", "a.core", "b.core", "--n", "300", "--seed", "2024",
             "--jobs", jobs, "-o", f"s{jobs}.json")
    assert _digest(tmp_path / "s2.json") == _digest(tmp_path / "s1.json")
    out["mini-n300"] = _digest(tmp_path / "s1.json")
    _cli("sample", "a.core", "b.core", "--n", "60", "--seed", "11",
         "--solutions-dir", "sols", "-o", "sols.json")
    out["mini-n60-solutions-report"] = _digest(tmp_path / "sols.json")
    out["mini-n60-solutions-files"] = _files_digest(tmp_path / "sols")
    return out


def _files_digest(directory):
    files = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        files.update(path.name.encode() + b"\0" + path.read_bytes())
    return files.hexdigest()


def t10_digests(tmp_path):
    _pair(T10_GEN, "0..9", "10..19", "20..29", "30..39")
    _cli("sample", "a.core", "b.core", "--n", "40", "--seed", "424242", "-o", "s.json")
    # four shuffled rows of 160 KB: a piece of three and a piece of one
    _cli("sample", "a.core", "b.core", "--n", "4", "--seed", "5", "--solutions-dir", "sols")
    return {"t10-n40": _digest(tmp_path / "s.json"),
            "t10-n4-solutions-files": _files_digest(tmp_path / "sols")}


@pytest.mark.parametrize("digests", [mini_digests, t10_digests])
def test_sample_bytes_match_golden(digests, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got = digests(tmp_path)
    assert got == {name: GOLDEN[name] for name in got}


def test_sample_report_does_not_depend_on_the_chunk_budget(tmp_path, monkeypatch):
    # class counts come from the decisions, drawn before any row is built,
    # so a budget of one row per chunk writes the same report
    import cflgap.rounding as rounding

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(rounding, "_CHUNK_BYTES", 8)
    _pair(MINI_GEN, "0,1", "2,3", "0,1", "4,5")
    _cli("sample", "a.core", "b.core", "--n", "300", "--seed", "2024", "-o", "s.json")
    assert _digest(tmp_path / "s.json") == GOLDEN["mini-n300"]


def test_census_mc_report_does_not_depend_on_the_chunk_budget(tmp_path, monkeypatch):
    # permuted_rows draws as successive permutations do, so chunks of seven
    # rows, not 1,000, count the same hits
    import cflgap.certify as certify

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(certify, "CENSUS_CHUNK_BYTES", 8 * 6 * 7)
    _cli(*MINI_GEN, "-o", "mini.json")
    argv = ["census", "--instance", "mini.json", "--mc", "2000", "--seed", "7"]
    assert _pinned(argv, "census_mc.json") == GOLDEN_CLI["census-mc"]


TINY_GEN = ["gen", "--general", "--nf", "3", "--t", "1", "--U", "2", "--m", "3",
            "--eps", "1/2", "--xl", "1/3"]

# name -> sha256 of the exit code, the stdout and the -o bytes of one command
GOLDEN_CLI = {
    "gen-mini":
        "7d1748c12c52c680111d29f7f6e306e77bb2da9a1965489aebea1d49761762e1",
    "gen-t10":
        "c988261bc9cc4796c0871a7c944e457dda9473fa040aee0043b271196574fbf0",
    "core-mini":
        "31c7b995c2278d16a85c20413ddaad256f876cb8d998405aa4e98c7650961931",
    "core-mini-b":
        "ce0a89db528ea320e39a0eeb4918db2653e0c3ea4b352c97a25a00b1d2407447",
    "core-mini-dense":
        "a1d57235ce98ae3e60c4ad50a05759e8608b5983b2e7805f8fb82d8126d03150",
    "core-mini-b-dense":
        "a7480688cfa7e34e83da61854e8dddfb28fcd2d64c4b1b177a8c00d887e9ff85",
    "core-tiny":
        "cbdfe2a396a733f8ae06278fccc7c5418e6bea4baf98af154fc2a655f75ad4a5",
    "core-tiny-dense":
        "a45abc268c9edf6eb73f7207f59c3038aac02061dbe54d0fec6febde9e0cd236",
    "core-t10":
        "9f1aaaedf7fe8e5fabae782ba832c3e1562a761bd309e6ca65ed0a5ff7658df6",
    "core-t10-b":
        "4680df31f7003fd77ff548006d4fbebc226ef2071f965af52833d75301e11e6c",
    "core-t10-dense":
        "faa9f8664ec3ce096ea3523a41deee37e2640518b48708faab5208d38cf44871",
    "lpcheck-classed":
        "0a003f610234e618084c746bf8832b34a0bbbd77431f688077625303979550df",
    "lpcheck-dense":
        "93e50ec69443de918474591c2683e5b154edeb8a3c12a6a1b022369b77eb793b",
    "lpcheck-dense-x-above-y":
        "41124df5ad4a8d378ea37b4ebe0ec0bbff4db4b4f73db33a157516c29da001db",
    "verify-midpoint-mini":
        "4f4974e8ea9853d3697aad57e5fd38eab0216a771dc0336b34fc09584b6534c7",
    "verify-midpoint-mini-dense":
        "ad6a47aea1e6b9b78df62dffdcd9da28d1a962b5ee7d9ecdff14f86fa7fb6350",
    "verify-midpoint-t10":
        "8c8218805cff9b28a9a9be4410a4cac47636f4a544dd3a364aa1e4ee7ba11260",
    "certify-t10":
        "21e955a274553f5584c2d5ed6101b4edd84f87e3e0e6324495849d7b233a6151",
    "certify-tiny-brute-force":
        "29beaa741ddb47227ec85a0ea17ea4d164e8c64522bdc9e20bf95dde2f239293",
    "certify-tiny-dense":
        "3cd7257da16c56dd603260049b062964c3f4b3a30265acd49e1fe096316998e8",
    "oracle-member-tiny":
        "606a78a55ac56b82e550ea2bdf5d0048e4000f2e7bdd0efe2f19fa130667f139",
    "oracle-member-tiny-dense":
        "67c9c72ea7b2dcacba4845f90056edff555143ee5e2d1d5d6bcaa0c0886b8702",
    "oracle-member-tiny-perturbed":
        "0e5a03402536e8f068a662a635b913569aee63b86a65d754bdfdebbdaf0f63f2",
    "oracle-opt-tiny":
        "c294abe085b0c783f4b23d2359340ab3091d5675ab2433174cb7e885753f2613",
    "oracle-enum-tiny":
        "578142207292d4ea1cda37150eac3bcb7e7b04315273c5967ac32f56ca2d2e95",
    "census-exact-mini":
        "bdbfd17481cb5d7986271d982782626dce5a567174c9905b0f2d6be39fceb410",
    "census-mc":
        "006a092f30e27f0d681fa3ff43bbfa42dffa6dad3806612411248f5e2c779960",
    "bound-t10":
        "dc927906bfe753f3e3c38b4bcd327e73936b487596c06b217371ea8bb3967ec6",
}


def _pinned(argv, output):
    """sha256 over the exit code, the stdout and the ``-o`` file of a run."""
    out = StringIO()
    with redirect_stdout(out), redirect_stderr(StringIO()):
        rc = cli.main(list(argv) + ["-o", output])
    digest = hashlib.sha256(f"{rc}\0{out.getvalue()}\0".encode())
    if Path(output).exists():
        digest.update(Path(output).read_bytes())
    return digest.hexdigest()


def _raise_dense_x(source, target, i, j, value):
    """Copy a dense core file with the x entry at (i, j) set to ``value``."""
    doc = json.loads(Path(source).read_text())
    doc["x"] = [t for t in doc["x"] if t[:2] != [i, j]] + [[i, j, value]]
    Path(target).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def cli_digests():
    out = {"gen-mini": _pinned(MINI_GEN, "mini.json"), "gen-t10": _pinned(T10_GEN, "t10.json")}
    _cli(*TINY_GEN, "-o", "tiny.json")
    runs = {
        "core-mini": (["core", "--instance", "mini.json", "--k", "0,1", "--l", "2,3"],
                      "mini_a.core"),
        "core-mini-b": (["core", "--instance", "mini.json", "--k", "0,1", "--l", "4,5"],
                        "mini_b.core"),
        "core-mini-dense": (["core", "--instance", "mini.json", "--k", "0,1", "--l", "2,3",
                             "--dense"], "mini_a_dense.core"),
        "core-mini-b-dense": (["core", "--instance", "mini.json", "--k", "0,1", "--l", "4,5",
                               "--dense"], "mini_b_dense.core"),
        "core-tiny": (["core", "--instance", "tiny.json", "--k", "0", "--l", "1"],
                      "tiny.core"),
        "core-tiny-dense": (["core", "--instance", "tiny.json", "--k", "0", "--l", "1",
                             "--dense"], "tiny_dense.core"),
        "core-t10": (["core", "--instance", "t10.json", "--k", "0..9", "--l", "10..19"],
                     "t10_a.core"),
        "core-t10-b": (["core", "--instance", "t10.json", "--k", "20..29", "--l", "30..39"],
                       "t10_b.core"),
        "core-t10-dense": (["core", "--instance", "t10.json", "--k", "0..9", "--l", "10..19",
                            "--dense"], "t10_dense.core"),
    }
    out.update({name: _pinned(argv, output) for name, (argv, output) in runs.items()})
    # y on the l facility 2 is 2/5; TINY's facility 1 opens at 1/2
    _raise_dense_x("mini_a_dense.core", "mini_bad.core", 2, 0, "1/2")
    _raise_dense_x("tiny_dense.core", "tiny_bad.core", 1, 0, "3/4")
    runs = {
        "lpcheck-classed": (["lpcheck", "mini_a.core"], "lp_classed.json"),
        "lpcheck-dense": (["lpcheck", "mini_a_dense.core"], "lp_dense.json"),
        "lpcheck-dense-x-above-y": (["lpcheck", "mini_bad.core"], "lp_bad.json"),
        "verify-midpoint-mini": (["verify-midpoint", "mini_a.core", "mini_b.core"],
                                 "vm_mini.json"),
        "verify-midpoint-mini-dense": (["verify-midpoint", "mini_a_dense.core",
                                        "mini_b_dense.core"], "vm_mini_dense.json"),
        "verify-midpoint-t10": (["verify-midpoint", "t10_a.core", "t10_b.core"],
                                "vm_t10.json"),
        "certify-t10": (["certify", "--t", "10"], "cert_t10.json"),
        "certify-tiny-brute-force": (["certify", "--core", "tiny.core", "--brute-force"],
                                     "cert_tiny_bf.json"),
        "certify-tiny-dense": (["certify", "--core", "tiny_dense.core"],
                               "cert_tiny_dense.json"),
        "oracle-member-tiny": (["oracle", "member", "--vector", "tiny.core"],
                               "member.json"),
        "oracle-member-tiny-dense": (["oracle", "member", "--vector", "tiny_dense.core"],
                                     "member_dense.json"),
        "oracle-member-tiny-perturbed": (["oracle", "member", "--vector", "tiny_bad.core"],
                                         "member_bad.json"),
        "oracle-opt-tiny": (["oracle", "opt", "--core", "tiny.core"], "opt.json"),
        "oracle-enum-tiny": (["oracle", "enum", "--instance", "tiny.json"], "enum.json"),
        "census-exact-mini": (["census", "--instance", "mini.json", "--exact"],
                              "census_exact.json"),
        "bound-t10": (["bound", "--t", "10"], "bound.json"),
    }
    out.update({name: _pinned(argv, output) for name, (argv, output) in runs.items()})
    mc = [_pinned(["census", "--instance", "mini.json", "--mc", "2000", "--seed", "7",
                   "--jobs", jobs], "census_mc.json") for jobs in ("1", "2")]
    assert mc[1] == mc[0]
    out["census-mc"] = mc[0]
    return out


def test_dense_core_at_t10_is_refused(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _cli(*T10_GEN, "-o", "t10.json")
    err = StringIO()
    with redirect_stdout(StringIO()), redirect_stderr(err):
        rc = cli.main(["core", "--instance", "t10.json", "--k", "0..9", "--l", "10..19",
                       "--dense", "-o", "t10_dense.core"])
    assert rc == 2
    assert "refusing to materialize 2000000 coordinates" in err.getvalue()
    assert not (tmp_path / "t10_dense.core").exists()


def test_non_sampling_bytes_match_golden(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli_digests() == GOLDEN_CLI
