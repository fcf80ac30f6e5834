"""Property tests on random shapes: the compiled rounding distribution and
its outcome classes, classed vectors against their dense (singleton-class)
copies, the census predicate and counts, two-point costs against their
role sets, and the document readers on one-field mutations.

Shapes are drawn around the validity conditions of ``validate_params`` so
that most draws are valid; settings are derandomized and small, so the suite
stays reproducible and fast.
"""

import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from cflgap.certify import (
    BRUTE_CENSUS_LIMIT,
    CENSUS_CHUNK,
    _noncolliding_rows,
    analytic_opt_witness,
    core_size,
    noncolliding_count_brute,
    noncolliding_count_exact,
    noncolliding_prob_mc,
    reference_index,
)
from cflgap.corevec import (
    DENSE_LIMIT,
    CoreIndex,
    FracVector,
    check_natural_lp,
    collides,
    make_core_vector,
    midpoint,
)
from cflgap.instance import (
    CostVector,
    Instance,
    build_gap_costs,
    check_metric_admissible,
    build_general_instance,
    validate_params,
)
from cflgap.io import (
    _vector_to_doc,
    core_file_doc,
    document_bytes,
    instance_from_doc,
    instance_to_doc,
    load_core_doc,
)
from cflgap.randomness import ExactRng
from cflgap.rounding import (
    RoundingPlan,
    _experiment_specs,
    _split_part,
    compile_plan,
    enumerate_outcome_classes,
    expected_vector,
    outcome_class_key,
    sample_block,
    solution_violations,
)
from cflgap.polytope import brute_force_opt
from conftest import (MINI, TINY, block_draws, exact_distribution, outside_ids,
                      reference_open_set, run_ids, run_length)

DRAWS = 25


@st.composite
def valid_instances(draw):
    """A --general instance that passes ``validate_params``."""
    t = draw(st.integers(1, 3))
    capacity = draw(st.integers(1, 5))
    q = draw(st.integers(2, 4))  # outside facilities
    n_core = capacity * t + 1
    client_count = n_core + draw(st.integers(0, capacity * (q - 1)))
    eps = Fraction(1, draw(st.integers(t, 3 * t)))
    # high_set_load and low_set_load bound x_l from both sides
    lo, hi = Fraction(1, t * n_core), min(eps, capacity * eps / n_core)
    assume(lo <= hi)
    x_l = lo + (hi - lo) * Fraction(draw(st.integers(0, 4)), 4)
    inst = build_general_instance(2 * t + q, t, capacity, client_count, eps, x_l)
    assume(validate_params(inst) == [])
    return inst


def drawn_index(draw, inst):
    """A uniformly drawn (k, l) pair of ``inst``."""
    t = inst.family_params.t
    ids = draw(st.permutations(range(inst.facility_count)))
    return CoreIndex.for_instance(inst, ids[:t], ids[t : 2 * t])


def all_pairs(inst):
    """Every ordered disjoint (k, l) pair of ``inst``."""
    t, ids = inst.family_params.t, range(inst.facility_count)
    return [
        CoreIndex.for_instance(inst, k, l)
        for k in itertools.combinations(ids, t)
        for l in itertools.combinations([i for i in ids if i not in k], t)
    ]


@st.composite
def colliding_plans(draw):
    """The compiled plan of a valid --general instance and a colliding pair."""
    inst = draw(valid_instances())
    c1, c2 = drawn_index(draw, inst), drawn_index(draw, inst)
    assume(collides(c1, c2))
    return compile_plan(inst, c1, c2), (c1, c2)


@settings(
    derandomize=True,
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
@given(case=colliding_plans(), seed=st.integers(0, 2**32 - 1))
def test_enumeration_and_sampler_agree(case, seed):
    plan, (c1, c2) = case
    classes = enumerate_outcome_classes(plan)
    assert sum(cl.probability for cl in classes) == 1
    # the class average is the midpoint whenever every class assigns each
    # client once, over-capacity classes included; a class whose branch
    # counts overfill a pool holds no assignment to average
    if all(sum(n * (hi - lo) for lo, hi, n in cl.slot_profile) == plan.inst.client_count
           for cl in classes):
        mid = midpoint(
            make_core_vector(plan.inst, c1.k, c1.l), make_core_vector(plan.inst, c2.k, c2.l)
        )
        assert expected_vector(plan, classes).equals(mid)
    # the enumerator admits the shape when every class is feasible; otherwise
    # the sampler can reach an overflowing branch
    assume(all(cl.feasible for cl in classes))
    feasible_keys = {cl.key for cl in classes}
    rng = ExactRng(seed)
    for draw in block_draws(plan, sample_block(plan, rng, DRAWS), rng):
        assert solution_violations(plan.inst, draw.solution) == []
        assert outcome_class_key(plan, draw) in feasible_keys


# -- the outcome-class enumerator against a per-facility reference -------------


def reference_split(total, bins):
    """Canonical near-even split: ceil counts on the lowest-id bins."""
    if not bins:
        if total:
            raise ValueError("cannot split clients over zero bins")
        return {}
    base, extra = divmod(total, len(bins))
    return {fac: base + (1 if idx < extra else 0) for idx, fac in enumerate(bins)}


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    lengths=st.lists(st.tuples(st.integers(0, 3), st.integers(1, 6)), max_size=6),
    total=st.integers(0, 150),
    capacity=st.integers(0, 30),
)
def test_run_split_matches_reference_split(lengths, total, capacity):
    # runs from (gap, length) pairs; the split of the runs against the
    # split of their ids, one by one
    bins, lo = [], 0
    for gap, length in lengths:
        bins.append((lo + gap, lo + gap + length))
        lo += gap + length
    ids = [i for lo, hi in bins for i in range(lo, hi)]
    assume(ids or not total)
    part = _split_part(total, tuple(bins), capacity)
    expected = {fac: cnt for fac, cnt in reference_split(total, ids).items() if cnt}
    profile = [(fac, n) for (lo, hi), n in part.entries for fac in range(lo, hi)]  # in order
    assert dict(profile) == expected and [fac for fac, _ in profile] == sorted(expected)
    assert part.served == sum(expected.values()) == total
    over = [(fac, n) for (lo, hi), n in part.over for fac in range(lo, hi)]
    assert over == [(fac, cnt) for fac, cnt in sorted(expected.items()) if cnt > capacity]
    assert len(part.entries) <= len(bins) + 1


def reference_class(inst, exp, chosen, slots1, extra_open, slots2, probability):
    """One class built facility by facility, every check over the whole profile."""
    n_core, m_rest = len(inst.designated_clients), len(inst.rest_clients)
    outside = outside_ids(inst, exp)
    problems = []
    profile = {}
    if slots1:
        profile[chosen] = slots1
    rem1 = n_core - slots1
    rem2 = m_rest - (slots2 if extra_open else 0)
    if rem1 >= 0:
        high = sorted(run_ids(exp.high))
        profile.update((fac, cnt) for fac, cnt in reference_split(rem1, high).items() if cnt)
    else:
        problems.append(
            f"{slots1} step-1 slots overfill the designated pool (size {n_core})"
        )
    if extra_open and slots2:
        profile[exp.pivot_extra] = slots2
    if rem2 < 0:
        problems.append(
            f"{slots2} borrowed-pivot slots overfill the rest pool (size {m_rest})"
        )
    elif outside:
        profile.update((fac, cnt) for fac, cnt in reference_split(rem2, outside).items() if cnt)
    elif rem2 > 0:
        problems.append(f"no outside facility serves the {rem2} remaining clients")

    open_set = reference_open_set(inst, exp, chosen, extra_open)
    served = sum(profile.values())
    if served != inst.client_count:
        problems.append(f"the profile serves {served} of {inst.client_count} clients")
    problems.extend(
        f"facility {fac} serves {cnt} clients above capacity {inst.capacity}"
        for fac, cnt in sorted(profile.items())
        if not 0 <= cnt <= inst.capacity
    )
    closed = sorted(set(profile) - open_set)
    if closed:
        problems.append(f"closed facilities {closed} serve clients")
    key = (exp.label, chosen, extra_open, run_length(sorted(profile.items())))
    return key, probability, open_set, tuple(problems)


def class_fields(cl):
    """The fields of an enumerated class that ``reference_class`` builds."""
    return cl.key, cl.probability, run_ids(cl.open_facilities), cl.problems


def reference_branches(w):
    """floor(w) and ceil(w) with the probabilities that keep the mean at w."""
    low = math.floor(w)
    if low == w:
        return [(low, Fraction(1))]
    return [(low, low + 1 - w), (low + 1, w - low)]


def reference_classes(plan):
    """``(key, probability, open set, problems)`` of every class, in enumeration order."""
    out = []
    for exp, choices, p_extra, w_extra in exact_distribution(plan):
        for chosen, (p_chosen, w_chosen) in zip(exp.choice_set, choices):
            p_choice = p_chosen / 2
            if p_choice == 0:
                continue
            for slots1, p_r1 in reference_branches(w_chosen):
                step2 = []
                if p_extra > 0:
                    for slots2, p_r2 in reference_branches(w_extra):
                        step2.append((True, slots2, p_extra * p_r2))
                if p_extra < 1:
                    step2.append((False, 0, 1 - p_extra))
                for extra_open, slots2, p_s2 in step2:
                    out.append(reference_class(
                        plan.inst, exp, chosen, slots1, extra_open, slots2,
                        p_choice * p_r1 * p_s2,
                    ))
    return out


def assert_enumerator_matches_reference(plan):
    classes = enumerate_outcome_classes(plan)
    assert [class_fields(cl) for cl in classes] == reference_classes(plan)
    return classes


@settings(
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
@given(case=colliding_plans())
def test_enumerator_matches_per_facility_reference(case):
    plan, _ = case
    assert_enumerator_matches_reference(plan)


def reference_expectation(plan):
    """Dense y and x of the distribution, summed facility by facility over
    the reference classes: probability x each facility's class mean.

    Within a class, a facility's mean count is its group's total over the
    group size, spread evenly over the pool its group serves.
    """
    inst = plan.inst
    n_f, m = inst.facility_count, inst.client_count
    y = [Fraction(0)] * n_f
    x = [[Fraction(0)] * m for _ in range(n_f)]
    by_label = {exp.label: exp for exp in plan.experiments}
    for (label, chosen, _, profile), probability, open_set, _ in reference_classes(plan):
        exp = by_label[label]
        counts = {fac: n for lo, hi, n in profile for fac in range(lo, hi)}
        pools = (inst.designated_clients, inst.rest_clients)
        groups = [((chosen,), pools[0]), (run_ids(exp.high), pools[0]),
                  ((exp.pivot_extra,), pools[1]), (outside_ids(inst, exp), pools[1])]
        for i in range(n_f):
            if i in open_set:
                y[i] += probability
            for group, pool in groups:
                if i in group:
                    mean = Fraction(sum(counts.get(g, 0) for g in group), len(group))
                    for j in pool:
                        x[i][j] += probability * mean / len(pool)
    return y, x


@settings(
    derandomize=True,
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
@given(case=colliding_plans())
def test_expectation_part_sums_equal_per_facility_means(case):
    plan, _ = case
    dense = expected_vector(plan, enumerate_outcome_classes(plan)).to_dense()
    y, x = reference_expectation(plan)
    assert list(dense.y_values) == y
    assert [list(row) for row in dense.x_values] == x


@st.composite
def unvalidated_plans(draw):
    """The plan of a colliding pair on a shape ``validate_params`` may reject.

    Step-1 targets may exceed the designated pool and borrowed-pivot targets
    the rest pool, so the overfill and underserved verdicts are reached.
    """
    t = draw(st.integers(1, 3))
    capacity = draw(st.integers(1, 5))
    q = draw(st.integers(1, 4))
    n_core = capacity * t + 1
    client_count = n_core + draw(st.integers(0, capacity * (q + 1) + 2))
    eps = Fraction(1, draw(st.integers(t, 3 * t)))
    x_l = Fraction(1, draw(st.integers(1, 2 * n_core)))
    inst = build_general_instance(2 * t + q, t, capacity, client_count, eps, x_l)
    c1, c2 = drawn_index(draw, inst), drawn_index(draw, inst)
    assume(collides(c1, c2))
    return RoundingPlan(inst, _experiment_specs(inst, c1, c2))


@settings(
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
@given(plan=unvalidated_plans())
def test_enumerator_matches_reference_on_unvalidated_shapes(plan):
    assert_enumerator_matches_reference(plan)


def test_enumerator_matches_reference_with_both_pools_overfilled():
    # step-1 and borrowed-pivot targets above their pools, so one class
    # holds both overfill verdicts, in the reference's order
    inst = build_general_instance(5, 2, 3, 10, Fraction(1, 6), Fraction(1, 3))
    c1 = CoreIndex.for_instance(inst, [1, 4], [2, 3])
    c2 = CoreIndex.for_instance(inst, [1, 2], [0, 4])
    classes = assert_enumerator_matches_reference(
        RoundingPlan(inst, _experiment_specs(inst, c1, c2))
    )
    assert any(
        "overfill the designated pool" in cl.problems[0]
        and "overfill the rest pool" in cl.problems[1]
        for cl in classes
    )


# valid parameters whose distributions hold infeasible classes: a pivot target
# that rounds to 0 slots overflows the high set, and borrowed-pivot slots that
# overfill a one-client rest pool
INFEASIBLE_SHAPES = [
    dict(facility_count=6, t=2, capacity=4, client_count=13,
         eps=Fraction(1, 3), x_l=Fraction(1, 18)),
    dict(facility_count=6, t=2, capacity=3, client_count=8,
         eps=Fraction(1, 5), x_l=Fraction(1, 14)),
]


@pytest.mark.parametrize("shape", INFEASIBLE_SHAPES, ids=["pivot-rounds-to-0", "rest-overfill"])
def test_enumerator_matches_reference_on_infeasible_shapes(shape):
    inst = build_general_instance(**shape)
    assert validate_params(inst) == []
    pairs = all_pairs(inst)
    infeasible = 0
    for c1 in pairs[::7]:
        for c2 in pairs:
            if collides(c1, c2):
                classes = assert_enumerator_matches_reference(compile_plan(inst, c1, c2))
                infeasible += sum(not cl.feasible for cl in classes)
    assert infeasible


@pytest.mark.parametrize("shape", INFEASIBLE_SHAPES, ids=["pivot-rounds-to-0", "rest-overfill"])
def test_sampler_guard_blames_the_distribution_not_the_parameters(shape):
    inst = build_general_instance(**shape)
    assert validate_params(inst) == []
    plan = compile_plan(inst, CoreIndex.for_instance(inst, [0, 1], [2, 3]),
                        CoreIndex.for_instance(inst, [0, 1], [4, 5]))
    assert not all(cl.feasible for cl in enumerate_outcome_classes(plan))
    with pytest.raises(RuntimeError, match="distribution has an infeasible outcome class"):
        for seed in range(50):
            for _ in sample_block(plan, ExactRng(seed), 200):
                pass


def test_enumerator_matches_reference_at_t10(family10):
    t = 10
    c1 = CoreIndex.for_instance(family10, range(0, t), range(t, 2 * t))
    c2 = CoreIndex.for_instance(family10, range(2 * t, 3 * t), range(3 * t, 4 * t))
    classes = assert_enumerator_matches_reference(compile_plan(family10, c1, c2))
    assert len(classes) == 80 and all(cl.feasible for cl in classes)


# -- classed and dense vectors --------------------------------------------------

UNIT = st.fractions(min_value=0, max_value=1, max_denominator=6)


@st.composite
def partitions(draw, n):
    """A partition of range(n) into nonempty classes, in a random order."""
    labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    classes: dict[int, set[int]] = {}
    for i, label in enumerate(labels):
        classes.setdefault(label, set()).add(i)
    return draw(st.permutations([frozenset(c) for c in classes.values()]))


@st.composite
def classed_vectors(draw, n_f, m):
    """A random vector; sometimes the LP-feasible y = 1, x = 1/n_f one."""
    fac, cli = draw(partitions(n_f)), draw(partitions(m))
    if draw(st.booleans()):
        y = [Fraction(1)] * len(fac)
        x = [[Fraction(1, n_f)] * len(cli) for _ in fac]
    else:
        y = [draw(UNIT) for _ in fac]
        x = [[draw(UNIT) for _ in cli] for _ in fac]
    return FracVector(n_f, m, fac, cli, y, x)


@st.composite
def vector_pairs(draw):
    n_f, m = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    return draw(classed_vectors(n_f, m)), draw(classed_vectors(n_f, m))


def coordinates(v):
    return [v.y_of(i) for i in range(v.facility_count)] + [
        v.x_of(i, j) for i in range(v.facility_count) for j in range(v.client_count)
    ]


def coordinatewise_cost(cost, v):
    return sum(
        (cost.opening_of(i) * v.y_of(i)
         + sum((cost.connection_of(i, j) * v.x_of(i, j) for j in range(v.client_count)),
               Fraction(0))
         for i in range(v.facility_count)),
        Fraction(0),
    )


def violation_set(report):
    return {(vi.constraint, vi.slack) for vi in report.violations}


@settings(derandomize=True, max_examples=150, deadline=None)
@given(pair=vector_pairs(), data=st.data())
def test_classed_and_dense_agree(pair, data):
    v, w = pair
    dv, dw = v.to_dense(), w.to_dense()
    assert dv.is_dense and dw.is_dense
    assert coordinates(dv) == coordinates(v)
    assert v.equals(dv) and dv.equals(v)
    same = coordinates(v) == coordinates(w)
    for a in (v, dv):
        for b in (w, dw):
            assert a.equals(b) == b.equals(a) == same

    mids = [midpoint(a, b) for a in (v, dv) for b in (w, dw)]
    expected = [(a + b) / 2 for a, b in zip(coordinates(v), coordinates(w))]
    for mid in mids:
        assert coordinates(mid) == expected
        assert mid.equals(mids[0]) and mids[0].equals(mid)
    assert mids[-1].is_dense

    n_f, m = v.facility_count, v.client_count
    cost = CostVector(
        n_f, m,
        unit_opening=data.draw(st.frozensets(st.integers(0, n_f - 1))),
        near_facilities=data.draw(st.frozensets(st.integers(0, n_f - 1))),
        near_clients=data.draw(st.frozensets(st.integers(0, m - 1))),
    )
    assert cost.vector_cost(v) == cost.vector_cost(dv) == coordinatewise_cost(cost, v)

    inst = Instance(facility_count=n_f, client_count=m,
                    capacity=data.draw(st.integers(1, m)))
    classed, dense = check_natural_lp(inst, v), check_natural_lp(inst, dv)
    assert classed.passed == dense.passed
    assert violation_set(classed) == violation_set(dense)


@st.composite
def run_partitions(draw, n):
    """A partition of range(n) whose classes are unions of id runs.

    range(n) is cut into runs and each run gets a random class, so a class
    may hold several separate runs.  Each class is handed over as a
    frozenset, a list with repeats, a tuple of (lo, hi) runs, or (when it
    is one run) a range.
    """
    cuts = sorted(draw(st.sets(st.integers(0, n), max_size=n)) - {0, n})
    bounds = [0, *cuts, n]
    labels = draw(st.lists(st.integers(0, len(bounds) - 2), min_size=len(bounds) - 1,
                           max_size=len(bounds) - 1))
    runs: dict[int, list[tuple[int, int]]] = {}
    for (lo, hi), label in zip(zip(bounds, bounds[1:]), labels):
        runs.setdefault(label, []).append((lo, hi))
    classes = []
    for pieces in draw(st.permutations(list(runs.values()))):
        ids = [j for lo, hi in pieces for j in range(lo, hi)]
        forms = [frozenset(ids), ids + ids[:1], tuple(reversed(pieces))]
        if len(pieces) == 1:
            forms.append(range(*pieces[0]))
        classes.append(draw(st.sampled_from(forms)))
    return classes


def id_sets(classes):
    return [frozenset(c) if not isinstance(c, tuple) else
            frozenset(j for lo, hi in c for j in range(lo, hi)) for c in classes]


@st.composite
def run_vectors(draw, n_f, m):
    """A vector with run-partitioned facilities and clients, and its classes as id sets."""
    fac, cli = draw(run_partitions(n_f)), draw(run_partitions(m))
    if draw(st.booleans()):
        y = [Fraction(1)] * len(fac)
        x = [[Fraction(1, n_f)] * len(cli) for _ in fac]
    else:
        y = [draw(UNIT) for _ in fac]
        x = [[draw(UNIT) for _ in cli] for _ in fac]
    return FracVector(n_f, m, fac, cli, y, x), (id_sets(fac), id_sets(cli), y, x)


def reference_coordinates(n_f, m, reference):
    """Coordinates read from the id sets the vector was built from."""
    fac, cli, y, x = reference
    fac_of = {i: idx for idx, c in enumerate(fac) for i in c}
    cli_of = {j: idx for idx, c in enumerate(cli) for j in c}
    return [y[fac_of[i]] for i in range(n_f)] + [
        x[fac_of[i]][cli_of[j]] for i in range(n_f) for j in range(m)
    ]


def ids_to_doc(ids):
    """An id set as a core document is expected to hold it, written here
    independently of cflgap.io: the bounds of its maximal runs of ids."""
    ordered = sorted(ids)
    starts = [j for j in ordered if j - 1 not in ids]
    ends = [j + 1 for j in ordered if j + 1 not in ids]
    return {"span": [b for pair in zip(starts, ends) for b in pair]}


def core_doc_bytes(inst, vec):
    doc = {"instance": instance_to_doc(inst), "k": [], "l": [], "core_clients": []}
    return document_bytes({**doc, **_vector_to_doc(vec)})


@settings(derandomize=True, max_examples=120, deadline=None)
@given(data=st.data())
def test_client_runs_agree_with_ids(data):
    n_f, m = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 40))
    (v, ref_v), (w, ref_w) = data.draw(run_vectors(n_f, m)), data.draw(run_vectors(n_f, m))
    dv, dw = v.to_dense(), w.to_dense()
    assert coordinates(v) == coordinates(dv) == reference_coordinates(n_f, m, ref_v)
    assert coordinates(w) == reference_coordinates(n_f, m, ref_w)

    # the same point on a finer client partition: v's classes cut by w's
    fac, cli, y, x = ref_v
    atoms = [(a & b, ia) for ia, a in enumerate(cli) for b in ref_w[1] if a & b]
    finer = FracVector(n_f, m, fac, [ids for ids, _ in atoms], y,
                       [[row[ia] for _, ia in atoms] for row in x])
    for a, b in ((v, finer), (finer, v), (v, dv), (finer, dv)):
        assert a.equals(b)
    same = coordinates(v) == coordinates(w)
    for a in (v, dv, finer):
        for b in (w, dw):
            assert a.equals(b) == b.equals(a) == same

    expected = [(a + b) / 2 for a, b in zip(coordinates(v), coordinates(w))]
    mid, dense_mid = midpoint(v, w), midpoint(dv, dw)
    assert coordinates(mid) == coordinates(dense_mid) == expected
    assert mid.equals(dense_mid) and dense_mid.equals(mid)

    cost = CostVector(
        n_f, m,
        unit_opening=data.draw(st.frozensets(st.integers(0, n_f - 1))),
        near_facilities=data.draw(st.frozensets(st.integers(0, n_f - 1))),
        near_clients=data.draw(st.frozensets(st.integers(0, m - 1))),
    )
    assert cost.vector_cost(v) == cost.vector_cost(dv) == coordinatewise_cost(cost, v)
    inst = Instance(facility_count=n_f, client_count=m, capacity=data.draw(st.integers(1, m)))
    classed, dense = check_natural_lp(inst, v), check_natural_lp(inst, dv)
    assert classed.passed == dense.passed
    assert violation_set(classed) == violation_set(dense)

    # a classed vector writes each facility and client class as the id-set
    # writer does
    written = core_doc_bytes(inst, v)
    if not v.is_dense:
        doc = json.loads(written)
        assert [e["facilities"] for e in doc["y"]] == [ids_to_doc(f) for f in fac]
        entries = doc["x"]
        assert [e["facilities"] for e in entries] == [ids_to_doc(f) for f in fac for _ in cli]
        assert [e["clients"] for e in entries] == [ids_to_doc(c) for _ in fac for c in cli]
    _, _, loaded = load_core_doc(json.loads(written))
    assert loaded.equals(v)
    assert core_doc_bytes(inst, loaded) == written


# -- the census predicate, the brute-force census and Monte Carlo ---------------


def rows_agree_with_collides(inst, ref, candidates):
    k_rows = np.array([sorted(c.k) for c in candidates])
    l_rows = np.array([sorted(c.l) for c in candidates])
    mask = _noncolliding_rows(ref, inst.facility_count, k_rows, l_rows)
    assert mask.tolist() == [not collides(ref, c) for c in candidates]


@pytest.mark.parametrize("shape", [MINI, TINY], ids=["mini", "tiny"])
def test_noncolliding_rows_on_every_ordered_pair(shape):
    inst = build_general_instance(**shape)
    pairs = all_pairs(inst)
    for ref in pairs:
        rows_agree_with_collides(inst, ref, pairs)


@settings(
    derandomize=True,
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
@given(inst=valid_instances(), data=st.data())
def test_noncolliding_rows_and_brute_census_on_valid_shapes(inst, data):
    ref = drawn_index(data.draw, inst)
    candidates = [drawn_index(data.draw, inst) for _ in range(20)]
    rows_agree_with_collides(inst, ref, candidates)
    assert core_size(inst) <= BRUTE_CENSUS_LIMIT
    expected = noncolliding_count_exact(inst)
    assert noncolliding_count_brute(inst) == expected
    assert noncolliding_count_brute(inst, reference=ref) == expected


def replayed_hits(inst, samples, seed):
    """Monte Carlo hits drawn one permutation and one ``collides`` at a time."""
    t = inst.family_params.t
    ref = reference_index(inst)
    rng = ExactRng(seed)
    ids = np.arange(inst.facility_count)
    hits = 0
    for _ in range(samples):
        perm = rng.permuted(ids).tolist()
        cand = CoreIndex(frozenset(perm[:t]), frozenset(perm[t : 2 * t]))
        hits += not collides(ref, cand)
    return hits


@pytest.mark.parametrize("samples", [1, CENSUS_CHUNK - 1, CENSUS_CHUNK + 1, 2345])
@settings(derandomize=True, max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_mc_hits_equal_sequential_replay(mini, family10, samples, seed):
    for inst in (mini, family10):
        assert noncolliding_prob_mc(inst, samples, seed).hits == replayed_hits(
            inst, samples, seed
        )


# -- two-point solution cost ------------------------------------------------------


def per_client_cost(cost, open_set, assign):
    return sum((cost.opening_of(i) for i in open_set), Fraction(0)) + sum(
        (cost.connection_of(int(i), j) for j, i in enumerate(assign)), Fraction(0)
    )


@settings(derandomize=True, max_examples=60, deadline=None)
@given(shape=st.sampled_from([MINI, TINY]), data=st.data())
def test_two_point_solution_cost_is_per_client_sum(shape, data):
    inst = build_general_instance(**shape)
    n_f, m = inst.facility_count, inst.client_count
    cost = build_gap_costs(inst, drawn_index(data.draw, inst))
    open_set = data.draw(st.frozensets(st.integers(0, n_f - 1)))
    assign = np.array(data.draw(st.lists(st.integers(0, n_f - 1), min_size=m, max_size=m)))
    assert cost.solution_cost(open_set, assign) == per_client_cost(cost, open_set, assign)


def test_two_point_solution_cost_of_t10_witness(family10):
    ref = reference_index(family10)
    cost = build_gap_costs(family10, ref)
    witness = analytic_opt_witness(family10, ref)
    value = cost.solution_cost(witness.open, witness.assign)
    assert value == per_client_cost(cost, witness.open, witness.assign) == 1
    assert type(value) is Fraction


# -- two-point costs against their role sets -----------------------------------


@st.composite
def role_sets(draw, n):
    """Ids of range(n) as a frozenset, a list with repeats, or a range of either step sign."""
    form = draw(st.sampled_from(["set", "list", "range"]))
    if form == "range":
        start = draw(st.integers(0, n))
        ids = range(start, draw(st.integers(start, n)), draw(st.integers(1, 3)))
        return ids if draw(st.booleans()) else ids[::-1]
    ids = draw(st.lists(st.integers(0, n - 1), max_size=2 * n))
    return frozenset(ids) if form == "set" else ids


@st.composite
def id_runs(draw, n):
    """Sorted, disjoint, nonempty ``(lo, hi)`` runs inside range(n)."""
    cuts = sorted(draw(st.sets(st.integers(0, n), max_size=6)))
    return tuple(zip(cuts[::2], cuts[1::2]))


def quadrangle_holds_everywhere(cost, n_f, m):
    """The quadrangle inequality over every quadruple of ids: the reference loop."""
    c = cost.connection_of
    return all(
        c(i, j) <= c(i, jp) + c(ip, jp) + c(ip, j)
        for i, ip, j, jp in itertools.product(range(n_f), range(n_f), range(m), range(m))
    )


@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=st.data())
def test_two_point_costs_agree_with_role_sets(data):
    n_f, m = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 5))
    roles = [data.draw(role_sets(n)) for n in (n_f, n_f, m)]
    cost = CostVector(n_f, m, unit_opening=roles[0], near_facilities=roles[1], near_clients=roles[2])
    unit, near_f, near_c = (set(ids) for ids in roles)
    for i in range(n_f):
        assert cost.opening_of(i) == (i in unit)
        for j in range(m):
            assert cost.connection_of(i, j) == ((i in near_f) != (j in near_c))

    inst = Instance(facility_count=n_f, client_count=m, capacity=1)
    assert check_metric_admissible(cost, inst).admissible == quadrangle_holds_everywhere(cost, n_f, m)

    facilities, clients = data.draw(id_runs(n_f)), data.draw(id_runs(m))
    fac_ids = [i for lo, hi in facilities for i in range(lo, hi)]
    cli_ids = [j for lo, hi in clients for j in range(lo, hi)]
    assert cost._opening_total(facilities) == sum(i in unit for i in fac_ids)
    assert cost._block_connection_total(facilities, clients) == sum(
        (i in near_f) != (j in near_c) for i in fac_ids for j in cli_ids
    )

    open_set = data.draw(st.frozensets(st.integers(0, n_f - 1)))
    assign = data.draw(st.lists(st.integers(0, n_f - 1), min_size=m, max_size=m))
    assert cost.solution_cost(open_set, assign) == sum(i in unit for i in open_set) + sum(
        (i in near_f) != (j in near_c) for j, i in enumerate(assign)
    )


@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=st.data())
def test_zero_cost_closed_form_is_brute_force_on_tiny(tiny, data):
    cost = CostVector(
        3, 3,
        unit_opening=data.draw(role_sets(3)),
        near_facilities=data.draw(role_sets(3)),
        near_clients=data.draw(role_sets(3)),
    )
    assert cost.zero_cost_fits(tiny.capacity) == (brute_force_opt(tiny, cost)[0] == 0)


# -- one-field mutations of instance and core documents ---------------------------

# JSON values a damaged or hostile file may hold; ids and counts stay below
# DENSE_LIMIT, so no read allocates much before it refuses
HOSTILE_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, DENSE_LIMIT - 1),
    st.floats(),
    st.sampled_from(["1/0", "-1/2", "3/4", "0", "1.5", "x/y", ""]),
    st.text(max_size=4),
    st.lists(st.integers(-2, 8), max_size=4),
    st.fixed_dictionaries({"span": st.lists(st.integers(-2, DENSE_LIMIT - 1), max_size=3)}),
    st.dictionaries(st.text(max_size=2), st.integers(-2, 8), max_size=2),
)
DELETE = object()


def field_paths(doc, path=()):
    """The key path of every value in a JSON document, the document's own first."""
    yield path
    if isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from field_paths(value, path + (key,))


def mutated(doc, path, value):
    """A copy of ``doc`` whose value at ``path`` is ``value``, or deleted for DELETE."""
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


@pytest.mark.parametrize("form", ["instance", "core-classed", "core-dense"])
@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_one_field_mutation_is_read_or_refused_with_value_error(form, data):
    if form == "instance":
        doc, read = instance_to_doc(data.draw(valid_instances())), instance_from_doc
    else:
        inst = build_general_instance(**MINI)
        index = CoreIndex.for_instance(inst, [0, 1], [2, 3])
        vec = make_core_vector(inst, index.k, index.l)
        doc = core_file_doc(inst, index, vec.to_dense() if form == "core-dense" else vec)
        read = load_core_doc
    path = data.draw(st.sampled_from(list(field_paths(doc))))
    value = data.draw(st.one_of(st.just(DELETE), HOSTILE_VALUES) if path else HOSTILE_VALUES)
    try:
        read(mutated(doc, path, value))
    except ValueError:
        pass
