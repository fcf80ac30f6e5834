"""The midpoint certificate in integers against a Fraction reference.

``verify_midpoint`` sums integer class weights over the plan's one
denominator and compares integer numerators with the midpoint's.  The
reference here is the arithmetic it replaced, in Fractions: each class
probability as the product of its branch's exact decisions, and the
expectation and the midpoint coordinate by coordinate.  The vectors that
the package builds without checks (core vectors, midpoints, expectations)
must pass the checking constructor unchanged.
"""

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cflgap import rounding
from cflgap.corevec import (CoreIndex, FracVector, _core_vector, collides, make_core_vector,
                            midpoint)
from cflgap.instance import build_family_instance, build_general_instance
from cflgap.rounding import (
    compile_plan,
    enumerate_grouped_classes,
    enumerate_outcome_classes,
    expected_vector,
    verify_midpoint,
)
from conftest import CENSUS_SHAPES, MINI, exact_distribution, find_valid_general, run_ids

# Valid parameters whose rounding overfills capacity on some branches: the
# certificate of {0,1}/{2,3} against {0,1}/{4,5} is honestly invalid.
PREMISE_DEFECT = dict(
    facility_count=6, t=2, capacity=4, client_count=13,
    eps=Fraction(1, 3), x_l=Fraction(1, 18),
)

SHAPES = {
    "mini": build_general_instance(**MINI),
    "premise-defect": build_general_instance(**PREMISE_DEFECT),
    **{"census-{}-{}-{}-{}".format(*shape): find_valid_general(*shape)
       for shape in CENSUS_SHAPES},
}


def branch_probability(plan, cl):
    """A class's probability as the Fraction product of its branch's
    decisions, recomputed from the instance's family params."""
    def coin(target, value):
        floor, up = divmod(target, 1)
        return {floor: 1 - up, floor + 1: up}.get(value, 0) if up else int(value == floor)

    for exp, choices, p_extra, w_extra in exact_distribution(plan):
        if exp.label == cl.experiment:
            p_choice, w_choice = choices[exp.choice_set.index(cl.chosen_l_facility)]
            slots1, slots2 = cl.parts[0].served, cl.parts[2].served
            step2 = p_extra * coin(w_extra, slots2) if cl.extra_open else 1 - p_extra
            return Fraction(1, 2) * p_choice * coin(w_choice, slots1) * step2 * len(cl.members)
    raise AssertionError(f"no experiment {cl.experiment}")


def reference_expectation(inst, c1, c2, classes):
    """The classes' probability-weighted mean in Fractions, as ``y`` per
    facility and ``x`` per facility and client pool.

    Each class stands for its members: with probability / group size each,
    the first member's part and open place move to the member.  A class
    also stands for every uniform split of its parts' clients, so a part's
    clients spread evenly over its bins (the high set, or the outside bins)
    and over the pool it serves: the designated pool for the chosen
    facility and the high set, the rest pool for the borrowed pivot and the
    outside bins.
    """
    n_f, m = inst.facility_count, inst.client_count
    pools = (inst.designated_clients, inst.rest_clients)
    experiments = {exp.label: exp for exp in compile_plan(inst, c1, c2).experiments}
    y = [Fraction(0)] * n_f
    x = [[Fraction(0)] * 2 for _ in range(n_f)]  # per facility, per pool
    for cl in classes:
        exp = experiments[cl.experiment]
        outside = [i for lo, hi in exp.outside for i in range(lo, hi)]
        low, high, pivot, rest = cl.parts
        open_ids = {i for lo, hi in cl.open_facilities for i in range(lo, hi)}
        for member in cl.members:
            p = cl.probability / len(cl.members)
            for i in open_ids - {cl.chosen_l_facility} | {member}:
                y[i] += p
            for part, bins, pool in ((low, [member], 0), (high, sorted(run_ids(exp.high)), 0),
                                     (pivot, [exp.pivot_extra], 1), (rest, outside, 1)):
                for i in bins if part.served else ():
                    x[i][pool] += p * Fraction(part.served, len(bins) * len(pools[pool]))
    return y, x


def reference_certificate(inst, c1, c2, classes):
    """The four certificate fields in Fractions, coordinate by coordinate."""
    n_f, m = inst.facility_count, inst.client_count
    pools = (inst.designated_clients, inst.rest_clients)
    y, x = reference_expectation(inst, c1, c2, classes)
    v1 = make_core_vector(inst, c1.k, c1.l)
    v2 = make_core_vector(inst, c2.k, c2.l)
    matches = all(
        y[i] == (v1.y_of(i) + v2.y_of(i)) / 2
        and all(x[i][0 if j in pools[0] else 1] == (v1.x_of(i, j) + v2.x_of(i, j)) / 2
                for j in range(m))
        for i in range(n_f)
    )
    return (matches, all(cl.feasible for cl in classes),
            sum(len(cl.members) for cl in classes), sum(cl.probability for cl in classes))


def certificate_fields(cert):
    return (cert.expectation_matches, cert.all_classes_feasible, cert.class_count,
            cert.probability_sum)


@st.composite
def colliding_pairs(draw):
    """A shape and a random colliding pair: l2 holds an id ``o`` outside
    k1|l1, and k2|l2 misses an id ``p`` of l1."""
    inst = SHAPES[draw(st.sampled_from(sorted(SHAPES)))]
    n_f, t = inst.facility_count, inst.family.t
    perm = draw(st.permutations(range(n_f)))
    k1, l1 = perm[:t], perm[t:2 * t]
    o, p = draw(st.sampled_from(perm[2 * t:])), draw(st.sampled_from(l1))
    rest = draw(st.permutations([i for i in range(n_f) if i not in (o, p)]))
    c1 = CoreIndex.for_instance(inst, k1, l1)
    c2 = CoreIndex.for_instance(inst, rest[t - 1:2 * t - 1], [o, *rest[:t - 1]])
    assert collides(c1, c2)
    return inst, c1, c2


def own_pair(inst):
    """A colliding pair of any valid shape: the second low set is the
    outside ids first, then the first low set's."""
    n_f, t = inst.facility_count, inst.family.t
    c1 = CoreIndex.for_instance(inst, range(t), range(t, 2 * t))
    c2 = CoreIndex.for_instance(inst, range(t), [*range(2 * t, n_f), *range(t, 2 * t)][:t])
    assert collides(c1, c2)
    return c1, c2


@settings(max_examples=60, deadline=None)
@given(colliding_pairs())
def test_integer_certificate_equals_the_fraction_reference(case):
    inst, c1, c2 = case
    plan = compile_plan(inst, c1, c2)
    classes = enumerate_grouped_classes(plan)
    for cl in classes:
        assert cl.probability == branch_probability(plan, cl)
        assert Fraction(cl.weight, plan.denominator) == cl.probability
    assert certificate_fields(verify_midpoint(inst, c1, c2)) == reference_certificate(
        inst, c1, c2, classes)


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_every_shape_certifies_as_the_reference(name):
    inst = SHAPES[name]
    c1, c2 = own_pair(inst)
    cert = verify_midpoint(inst, c1, c2)
    classes = enumerate_grouped_classes(compile_plan(inst, c1, c2))
    assert certificate_fields(cert) == reference_certificate(inst, c1, c2, classes)
    assert cert.probability_sum == 1 and type(cert.probability_sum) is Fraction
    assert cert.expectation_matches  # the midpoint is the expectation on every shape


def test_premise_defect_is_invalid_in_both_paths():
    inst = SHAPES["premise-defect"]
    c1 = CoreIndex.for_instance(inst, {0, 1}, {2, 3})
    c2 = CoreIndex.for_instance(inst, {0, 1}, {4, 5})
    cert = verify_midpoint(inst, c1, c2)
    classes = enumerate_grouped_classes(compile_plan(inst, c1, c2))
    assert (cert.all_classes_feasible, cert.class_count, cert.valid) == (False, 16, False)
    assert certificate_fields(cert) == reference_certificate(inst, c1, c2, classes)


@pytest.mark.parametrize("name", ["mini", "census-13-4-4-27"])
def test_one_unit_of_weight_moved_is_seen_by_both_paths(name, monkeypatch):
    # 1/D moves between two classes of one experiment with different chosen
    # groups or parts, so with different means; the weights still sum to D
    inst = SHAPES[name]
    c1, c2 = own_pair(inst)
    exact = rounding.enumerate_grouped_classes
    drifted = []

    def drift(plan):
        classes = exact(plan)
        a, b = next(
            (a, b) for a in classes for b in classes
            if a.weight and a.experiment == b.experiment
            and (a.members, a.parts) != (b.members, b.parts)
        )
        shift = {id(a): -1, id(b): 1}
        drifted[:] = [replace(cl, weight=cl.weight + shift.get(id(cl), 0)) for cl in classes]
        return drifted

    monkeypatch.setattr(rounding, "enumerate_grouped_classes", drift)
    cert = verify_midpoint(inst, c1, c2)
    matches, feasible, count, total = reference_certificate(inst, c1, c2, drifted)
    assert (cert.expectation_matches, matches) == (False, False)
    assert cert.probability_sum == total == 1
    assert (cert.all_classes_feasible, cert.class_count) == (feasible, count)


def trusted_vectors(inst, c1, c2):
    """Every vector the package builds without checks, for one pair."""
    plan = compile_plan(inst, c1, c2)
    v1, v2 = make_core_vector(inst, c1.k, c1.l), _core_vector(inst, c2)
    return [v1, v2, midpoint(v1, v2), midpoint(v2, v1),
            expected_vector(plan, enumerate_grouped_classes(plan)),
            expected_vector(plan, enumerate_outcome_classes(plan))]


@pytest.mark.parametrize("name", ["mini", "census-13-4-4-27"])
@pytest.mark.parametrize("enumerate_classes", [enumerate_grouped_classes,
                                               enumerate_outcome_classes])
def test_expectation_of_a_strict_subset_of_the_classes(name, enumerate_classes):
    # a low-set facility that no given class chose is closed in every given
    # class; the classes without the last low-set id, the first experiment
    # alone, all but one class and one class are each summed as the
    # reference sums them
    inst = SHAPES[name]
    c1, c2 = own_pair(inst)
    plan = compile_plan(inst, c1, c2)
    classes = enumerate_classes(plan)
    last = max(cl.chosen_l_facility for cl in classes)
    subsets = [
        [cl for cl in classes if last not in cl.members],
        [cl for cl in classes if cl.experiment == "A"],
        classes[1:],
        classes[:1],
    ]
    pools = (inst.designated_clients, inst.rest_clients)
    for subset in subsets:
        assert 0 < len(subset) < len(classes)
        vec = expected_vector(plan, subset)
        y, x = reference_expectation(inst, c1, c2, subset)
        assert [vec.y_of(i) for i in range(inst.facility_count)] == y
        assert all(vec.x_of(i, pool[0]) == x[i][p] and vec.x_of(i, pool[-1]) == x[i][p]
                   for i in range(inst.facility_count) for p, pool in enumerate(pools) if pool)


T10 = build_family_instance(10, 2)


def index_pair(inst, k1, l1, k2, l2):
    return CoreIndex.for_instance(inst, k1, l1), CoreIndex.for_instance(inst, k2, l2)


@pytest.mark.parametrize("inst, pair", [
    (SHAPES["mini"], index_pair(SHAPES["mini"], {0, 1}, {2, 3}, {0, 1}, {4, 5})),
    (SHAPES["mini"], index_pair(SHAPES["mini"], {0, 4}, {1, 3}, {3, 5}, {0, 2})),
    (T10, index_pair(T10, range(10), range(10, 20), range(20, 30), range(30, 40))),
    (T10, index_pair(
        T10, [14, 16, 22, 28, 59, 69, 76, 81, 91, 95], [18, 20, 24, 25, 26, 27, 50, 53, 77, 97],
        [3, 8, 12, 16, 22, 30, 40, 52, 53, 89], [29, 34, 57, 64, 66, 78, 84, 86, 88, 92])),
    *((SHAPES[name], own_pair(SHAPES[name])) for name in sorted(SHAPES) if "census" in name),
], ids=["mini", "mini-2", "t10", "t10-random",
        *(name for name in sorted(SHAPES) if "census" in name)])
def test_trusted_vectors_pass_the_checking_constructor(inst, pair):
    c1, c2 = pair
    assert collides(c1, c2)
    for vec in trusted_vectors(inst, c1, c2):
        fields = (vec.facility_count, vec.client_count, vec.fac_classes, vec.cli_classes,
                  vec.y_values, vec.x_values)
        rebuilt = FracVector(*fields)  # raises unless the vector is valid
        assert (rebuilt.facility_count, rebuilt.client_count, rebuilt.fac_classes,
                rebuilt.cli_classes, rebuilt.y_values, rebuilt.x_values) == fields
        assert all(type(v) is Fraction for v in vec.y_values)
        assert all(type(v) is Fraction for row in vec.x_values for v in row)
        assert all(type(runs) is tuple and all(type(run) is tuple for run in runs)
                   for runs in vec.fac_classes + vec.cli_classes)
        assert rebuilt.equals(vec) and vec.equals(rebuilt)
