"""Outcome classes per chosen-facility group against the per-facility list.

The per-facility class lists are pinned by digest: each digest was recorded
when ``enumerate_outcome_classes`` still built one set of classes per low-set
facility, so a list made by expanding the groups must give the same bytes.
"""

import hashlib
import json
import pickle
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from io import StringIO
from itertools import chain, combinations, groupby

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cflgap import cli
from cflgap.corevec import CoreIndex, RunRows, collides
from cflgap.instance import build_family_instance, build_general_instance
from cflgap.io import frac_to_str
from cflgap.rounding import (
    compile_plan,
    enumerate_grouped_classes,
    enumerate_outcome_classes,
    expected_vector,
    verify_midpoint,
)
from conftest import CENSUS_SHAPES, MINI, find_valid_general, run_ids


def class_list_digest(classes):
    """sha256 over every class's key, probability, verdict, problems and open set, in order."""
    rows = [
        [cl.experiment, cl.chosen_l_facility, cl.extra_open, cl.slot_profile,
         frac_to_str(cl.probability), cl.feasible, cl.problems,
         sorted(run_ids(cl.open_facilities))]
        for cl in classes
    ]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


T10 = build_family_instance(10, 2)
T20 = build_family_instance(20, 2)


def _index(inst, k, l):
    return CoreIndex.for_instance(inst, k, l)


# name -> (instance, first index, second index)
PINNED_PAIRS = {
    "mini": (build_general_instance(**MINI), ([0, 1], [2, 3]), ([0, 1], [4, 5])),
    "t10-acceptance-2": (T10, (range(10), range(10, 20)), (range(20, 30), range(30, 40))),
    "t10-random-1": (T10, ([14, 16, 22, 28, 59, 69, 76, 81, 91, 95],
                           [18, 20, 24, 25, 26, 27, 50, 53, 77, 97]),
                     ([3, 8, 12, 16, 22, 30, 40, 52, 53, 89],
                      [29, 34, 57, 64, 66, 78, 84, 86, 88, 92])),
    "t10-random-2": (T10, ([1, 10, 16, 25, 33, 36, 66, 81, 86, 98],
                           [4, 8, 15, 21, 35, 47, 53, 68, 73, 92]),
                     ([20, 32, 47, 48, 49, 54, 62, 64, 84, 97],
                      [22, 24, 29, 39, 68, 75, 85, 88, 95, 98])),
    "t10-random-3": (T10, ([3, 7, 25, 28, 41, 45, 53, 86, 88, 97],
                           [13, 19, 26, 51, 57, 63, 66, 69, 72, 93]),
                     ([4, 20, 29, 30, 31, 37, 53, 54, 59, 85],
                      [1, 17, 32, 52, 55, 56, 66, 70, 86, 87])),
    "t20-random-1": (T20, ([0, 5, 14, 83, 91, 96, 134, 158, 181, 182, 185, 190, 266, 269,
                            283, 291, 313, 318, 336, 361],
                           [7, 29, 46, 66, 103, 117, 150, 154, 193, 210, 212, 239, 241, 243,
                            256, 298, 314, 339, 345, 386]),
                     ([8, 89, 96, 112, 117, 121, 141, 149, 173, 178, 190, 244, 247, 271,
                       284, 288, 326, 350, 369, 397],
                      [30, 48, 94, 106, 132, 180, 198, 226, 236, 250, 265, 277, 299, 302,
                       320, 335, 336, 362, 370, 375])),
    "t20-random-2": (T20, ([24, 63, 73, 101, 141, 189, 202, 208, 216, 266, 272, 300, 308,
                            329, 332, 341, 350, 388, 394, 396],
                           [2, 3, 21, 33, 48, 50, 117, 118, 146, 226, 228, 240, 265, 288,
                            293, 294, 366, 368, 377, 391]),
                     ([41, 96, 106, 109, 124, 131, 170, 171, 175, 192, 223, 229, 256, 318,
                       322, 356, 369, 374, 385, 399],
                      [4, 8, 13, 18, 51, 79, 82, 88, 129, 149, 176, 241, 246, 269, 285,
                       308, 339, 347, 359, 387])),
}
# each census shape's reference index, k = {0..t-1} and l = {t..2t-1},
# against the same index with the last member of l swapped for facility 2t
for shape in CENSUS_SHAPES:
    inst = find_valid_general(*shape)
    t = inst.family_params.t
    PINNED_PAIRS["census-{}-{}-{}-{}".format(*shape)] = (
        inst, (range(t), range(t, 2 * t)), (range(t), [*range(t, 2 * t - 1), 2 * t])
    )

# valid parameters whose distributions hold infeasible classes (the
# INFEASIBLE_SHAPES of the property tests): name -> the `gen --general`
# arguments after --t 2, and sample's refusal on ({0,1},{2,3}) vs ({0,1},{4,5})
INFEASIBLE = {
    "infeasible-pivot-rounds-to-0": (
        ["--nf", "6", "--U", "4", "--m", "13", "--eps", "1/3", "--xl", "1/18"],
        "error: the rounding distribution has an infeasible outcome class: experiment A, "
        "chosen_l_facility 2, extra_open True, slot_profile [(0, 5), (1, 4), (4, 3), (5, 1)]: "
        "facility 0 serves 5 clients above capacity 4\n",
    ),
    "infeasible-rest-overfill": (
        ["--nf", "6", "--U", "3", "--m", "8", "--eps", "1/5", "--xl", "1/14"],
        "error: the rounding distribution has an infeasible outcome class: experiment A, "
        "chosen_l_facility 2, extra_open True, slot_profile [(0, 4), (1, 3), (4, 1)]: "
        "facility 0 serves 4 clients above capacity 3\n",
    ),
}
for name, (gen, _) in INFEASIBLE.items():
    shape = dict(zip(gen[::2], gen[1::2]))
    inst = build_general_instance(int(shape["--nf"]), 2, int(shape["--U"]), int(shape["--m"]),
                                  Fraction(shape["--eps"]), Fraction(shape["--xl"]))
    PINNED_PAIRS[name] = (inst, ([0, 1], [2, 3]), ([0, 1], [4, 5]))

# name -> digest of the per-facility class list of the pinned pair
CLASS_LIST_DIGESTS = {
    "census-12-3-8-49":
        "16dfe7a04cc6f18688c5d21c1bbc4eda9571faae3e2203f08f53d949cb781fae",
    "census-13-4-4-27":
        "3108659473323d3c3ce64c3beff1762e876027727477aabd32b79529b037b650",
    "census-3-1-2-3":
        "93d17ffbc279c8e5da39ade46b325c549a4551abaa66e21bbf106ed536ad7553",
    "census-4-1-2-5":
        "f9b3029e53e1110cb4790e8517c533e2c5f2e3be99592835a5b15a85293c1057",
    "census-5-2-4-9":
        "e1151d3139675f1ff3557cfb8f4c21cb0a074456ad9063a46249dd52a1f58af9",
    "census-6-2-4-13":
        "f1e07c120458e60cbb473f12fdbe3367af629341f75900b4c077b6671e47db51",
    "census-7-2-4-13":
        "d6cb5431dd4a2dcbf8c947d03bd4f9ec5dd8fe5e1aa61b216736da75665ddfc0",
    "census-8-2-4-13":
        "812ac96d03a90bf4faa53e68da8ae9fe1dcbaf0b9f52d25bbaf56f7fbd48f62f",
    "census-9-3-8-25":
        "dcba31f51716f1eb9d30a54ccb6184aadc6048b8c45fb11eb554df82b655a1d9",
    "mini":
        "a09c288c1e742e7b6f602d82075db1312caeb9a55cdf97033a3caa12125829e7",
    "t10-acceptance-2":
        "108d051b505ddc45bed7fc16d08e03a80fda91bc20c4032f843aca2f26cc752f",
    "t10-random-1":
        "fe05a6bbaca503a73810ba63b23e11169c47bb616f413879a655d068fec80017",
    "t10-random-2":
        "491c4a3fb413745f125ecc5ff89898ad1d4987ef55e25e60ee79b3c96b97a3c0",
    "t10-random-3":
        "608540257192d00fff33bd3db5a92785930e2bc05ed806b500745c32966d379b",
    "t20-random-1":
        "0a7df603a76aa3c9a2c3f13a5dc7d68e29ec3daa5abd2e59cd57d6fcc5e90be4",
    "t20-random-2":
        "148c5e297a2c5d5632931ee07dc183cd2359bda4735a65c95d42c8d1eef76a41",
}


def pinned_pair(name):
    inst, (k1, l1), (k2, l2) = PINNED_PAIRS[name]
    c1, c2 = _index(inst, k1, l1), _index(inst, k2, l2)
    assert collides(c1, c2)
    return inst, c1, c2


def pinned_plan(name):
    return compile_plan(*pinned_pair(name))


@pytest.mark.parametrize("name", sorted(CLASS_LIST_DIGESTS))
def test_per_facility_class_list_matches_pinned_digest(name):
    classes = enumerate_outcome_classes(pinned_plan(name))
    assert class_list_digest(classes) == CLASS_LIST_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(INFEASIBLE))
def test_sample_refusal_names_the_first_infeasible_class(name, tmp_path, monkeypatch):
    gen, refusal = INFEASIBLE[name]
    monkeypatch.chdir(tmp_path)
    with redirect_stdout(StringIO()):
        assert cli.main(["gen", "--general", "--t", "2", *gen, "-o", "inst.json"]) == 0
        for name, l in (("a", "2,3"), ("b", "4,5")):
            assert cli.main(["core", "--instance", "inst.json", "--k", "0,1", "--l", l,
                             "-o", f"{name}.core"]) == 0
    err = StringIO()
    with redirect_stdout(StringIO()), redirect_stderr(err):
        assert cli.main(["sample", "a.core", "b.core", "--n", "1", "--seed", "1"]) == 2
    assert err.getvalue() == refusal


@pytest.mark.parametrize("name", sorted(PINNED_PAIRS))
def test_grouped_classes_expand_to_the_per_facility_list(name):
    plan = pinned_plan(name)
    grouped, expanded = enumerate_grouped_classes(plan), enumerate_outcome_classes(plan)
    # per experiment, the groups partition the low set, and each group has
    # at most 2 x 3 branch combinations
    for exp in plan.experiments:
        members = [cl.members for cl in grouped if cl.experiment == exp.label]
        assert sorted({i for group in members for i in group}) == list(exp.choice_set)
        assert len(set(members)) <= 4 and len(members) <= 24
    assert sum(len(cl.members) for cl in grouped) == len(expanded)
    assert all(len(cl.members) == 1 for cl in expanded)
    # a grouped class is the expanded class of its first member, with the
    # probability of every member
    first = {(cl.key, cl.open_facilities): cl for cl in expanded}
    for cl in grouped:
        one = first[cl.key, cl.open_facilities]
        assert (cl.problems, cl.parts) == (one.problems, one.parts)
        assert cl.probability == one.probability * len(cl.members)
    assert sum(cl.probability for cl in grouped) == sum(cl.probability for cl in expanded) == 1
    assert all(cl.feasible for cl in grouped) == all(cl.feasible for cl in expanded)
    by_group = expected_vector(plan, grouped)
    by_facility = expected_vector(plan, expanded)
    assert by_group.equals(by_facility) and by_facility.equals(by_group)


@pytest.mark.parametrize("name", ["mini", "t10-acceptance-2", *(
    "census-{}-{}-{}-{}".format(*shape) for shape in CENSUS_SHAPES)])
def test_slot_profile_carries_its_rows_as_sorted_runs(name):
    # the report writer renders a profile from its runs, taking their text
    # only when each run is nonempty, in id order and of plain ints
    plan = pinned_plan(name)
    for cl in enumerate_outcome_classes(plan) + enumerate_grouped_classes(plan):
        profile = cl.slot_profile
        assert type(profile) is RunRows
        runs = profile.runs
        assert runs == tuple(sorted(chain.from_iterable(part.entries for part in cl.parts)))
        assert all(type(v) is int for (lo, hi), n in runs for v in (lo, hi, n))
        assert all(lo < hi and n != 0 for (lo, hi), n in runs)
        assert all(hi <= next_lo for ((_, hi), _), ((next_lo, _), _) in zip(runs, runs[1:]))
        assert profile == tuple((i, n) for (lo, hi), n in runs for i in range(lo, hi))
    copy = pickle.loads(pickle.dumps(profile))
    assert (type(copy), copy, copy.runs) == (RunRows, profile, runs)


def groups_from_indices(own, other):
    """``own``'s low set as exchangeable groups, from the two indices alone: the
    pivot, then the others in ``other``'s k, in its l and outside both."""
    pivot = min(own.l - other.k - other.l)
    rest = sorted(own.l - {pivot})
    roles = ([i for i in rest if i in other.k], [i for i in rest if i in other.l],
             [i for i in rest if i not in other.k | other.l])
    return [(pivot,), *(tuple(role) for role in roles if role)]


def colliding_mini_pairs():
    inst = PINNED_PAIRS["mini"][0]
    indices = [_index(inst, k, l) for k in combinations(range(6), 2)
               for l in combinations(sorted(set(range(6)) - set(k)), 2)]
    return [(inst, c1, c2) for c1 in indices for c2 in indices if collides(c1, c2)]


# t10-random-2 has all four groups in both experiments
@pytest.mark.parametrize("name", ["every-mini-pair", "t10-acceptance-2", "t10-random-2",
                                  "t20-random-1", "t20-random-2"])
def test_plan_compiles_each_experiments_groups(name):
    pairs = colliding_mini_pairs() if name == "every-mini-pair" else [pinned_pair(name)]
    for inst, c1, c2 in pairs:
        plan = compile_plan(inst, c1, c2)
        grouped = enumerate_grouped_classes(plan)
        for exp, own, other in zip(plan.experiments, (c1, c2), (c2, c1)):
            assert list(exp.choice_groups) == groups_from_indices(own, other)
            assert sorted(i for group in exp.choice_groups for i in group) == list(exp.choice_set)
            listed = [cl.members for cl in grouped if cl.experiment == exp.label]
            assert [members for members, _ in groupby(listed)] == list(exp.choice_groups)


@pytest.mark.parametrize("name", sorted(INFEASIBLE))
def test_infeasible_shapes_keep_their_verdict(name):
    inst, c1, c2 = pinned_pair(name)
    cert = verify_midpoint(inst, c1, c2)
    assert not cert.all_classes_feasible and not cert.valid


def group_shape(plan):
    """The multiset of (member count, probability, feasible) of the grouped classes."""
    return Counter(
        (len(cl.members), cl.probability, cl.feasible) for cl in enumerate_grouped_classes(plan)
    )


def renamed(inst, index, sigma):
    return _index(inst, [sigma[i] for i in index.k], [sigma[i] for i in index.l])


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    name=st.sampled_from(["mini", "infeasible-rest-overfill", "t10-acceptance-2",
                          "t10-random-1"]),
    data=st.data(),
)
def test_certificate_is_invariant_under_facility_permutations(name, data):
    # facilities are interchangeable, so renaming them in both core vectors
    # renames the distribution and keeps the certificate
    inst, c1, c2 = pinned_pair(name)
    sigma = data.draw(st.permutations(range(inst.facility_count)))
    d1, d2 = renamed(inst, c1, sigma), renamed(inst, c2, sigma)
    before, after = verify_midpoint(inst, c1, c2), verify_midpoint(inst, d1, d2)
    assert (after.class_count, after.valid) == (before.class_count, before.valid)
    assert group_shape(compile_plan(inst, d1, d2)) == group_shape(compile_plan(inst, c1, c2))
