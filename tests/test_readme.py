"""The fenced Python block under README's "Python API" section runs as documented."""

import re
from pathlib import Path

from cflgap.corevec import CoreIndex, make_core_vector, midpoint
from cflgap.randomness import ExactRng
from cflgap.rounding import expected_vector

README = Path(__file__).resolve().parent.parent / "README.md"


def python_api_block() -> str:
    section = README.read_text().split("\n## Python API", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    return block


def test_python_api_block_runs_on_the_mini_pair(mini):
    c1 = CoreIndex.for_instance(mini, {0, 1}, {2, 3})
    c2 = CoreIndex.for_instance(mini, {0, 1}, {4, 5})
    names = {"inst": mini, "c1": c1, "c2": c2, "rng": ExactRng(1)}
    exec(compile(python_api_block(), str(README), "exec"), names)
    assert names["key"] in {cl.key for cl in names["classes"]}
    assert (names["feasible"], sum(names["freq"].values()), names["flagged"]) == (100, 100, [])
    mid = midpoint(make_core_vector(mini, c1.k, c1.l), make_core_vector(mini, c2.k, c2.l))
    assert names["expectation"].equals(mid)
    assert expected_vector(names["plan"], names["grouped"]).equals(mid)
