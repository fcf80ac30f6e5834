"""Golden digests that pin the sampler's use of the random stream.

A ``sample`` report and its ``--solutions-dir`` files depend only on the
inputs, the seed, ``--n`` and ``--jobs``.  The digests below were recorded
before the rounding distribution was compiled into a ``RoundingPlan``; any
change to the order or arguments of the ``ExactRng`` calls a draw makes
changes them.  Commands run in a temporary directory with relative paths, so
the manifests (which name the files) are the same on every machine.
"""

import hashlib
from contextlib import redirect_stdout
from io import StringIO

import pytest

from cflgap import cli

MINI_GEN = ["gen", "--general", "--nf", "6", "--t", "2", "--U", "4", "--m", "13",
            "--eps", "2/5", "--xl", "1/8"]
T10_GEN = ["gen", "--family", "--t", "10", "--a", "2"]

GOLDEN = {
    "mini-n300-jobs1":
        "d2932921a6ad95f8a262ab7307e9e3df890b274ecdf0a7f27be4378dbf6feba9",
    "mini-n300-jobs2":
        "999125635c5f294a1955974f6443be5b28cbfcba36a7963671ea859721b8d5fa",
    "mini-n60-solutions-report":
        "051491d4437e47601d91a0991f6fee0b89bb83a7aec667e61f96d77e7d1469ee",
    "mini-n60-solutions-files":
        "71d4071dae0d83edb14e706fb324f07a11a955d899e9014cbd4f717c11437089",
    "t10-n40":
        "68fe2543669e1e0569b01ce53e78880be6ec4ca1c6951a5835f6238c27b2bdf5",
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
        out[f"mini-n300-jobs{jobs}"] = _digest(tmp_path / f"s{jobs}.json")
    _cli("sample", "a.core", "b.core", "--n", "60", "--seed", "11",
         "--solutions-dir", "sols", "-o", "sols.json")
    out["mini-n60-solutions-report"] = _digest(tmp_path / "sols.json")
    files = hashlib.sha256()
    for path in sorted((tmp_path / "sols").iterdir()):
        files.update(path.name.encode() + b"\0" + path.read_bytes())
    out["mini-n60-solutions-files"] = files.hexdigest()
    return out


def t10_digests(tmp_path):
    _pair(T10_GEN, "0..9", "10..19", "20..29", "30..39")
    _cli("sample", "a.core", "b.core", "--n", "40", "--seed", "424242", "-o", "s.json")
    return {"t10-n40": _digest(tmp_path / "s.json")}


@pytest.mark.parametrize("digests", [mini_digests, t10_digests])
def test_sample_bytes_match_golden(digests, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got = digests(tmp_path)
    assert got == {name: GOLDEN[name] for name in got}
