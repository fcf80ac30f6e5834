from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from cflgap.instance import (
    CostVector,
    build_family_instance,
    build_general_instance,
    validate_params,
)

# Desk-scale instance used across the suite: all rounding branches feasible,
# all validity conditions hold (some with zero slack).
MINI = dict(
    facility_count=6, t=2, capacity=4, client_count=13,
    eps=Fraction(2, 5), x_l=Fraction(1, 8),
)

# Smallest valid family-shaped instance that fits the exhaustive polytope
# enumeration bounds (3 facilities, 3 clients).
TINY = dict(
    facility_count=3, t=1, capacity=2, client_count=3,
    eps=Fraction(1, 2), x_l=Fraction(1, 3),
)

# Valid generalized shapes (facility_count, t, capacity, client_count) whose
# cores are small enough for exhaustive pair enumeration.
CENSUS_SHAPES = [
    (3, 1, 2, 3),
    (4, 1, 2, 5),
    (5, 2, 4, 9),
    (6, 2, 4, 13),
    (7, 2, 4, 13),
    (8, 2, 4, 13),
    (9, 3, 8, 25),
    (12, 3, 8, 49),
    (13, 4, 4, 27),
]


@pytest.fixture(scope="session")
def mini():
    inst = build_general_instance(**MINI)
    assert validate_params(inst) == []
    return inst


@pytest.fixture(scope="session")
def tiny():
    inst = build_general_instance(**TINY)
    assert validate_params(inst) == []
    return inst


@pytest.fixture(scope="session")
def family10():
    inst = build_family_instance(t=10, a=2)
    assert validate_params(inst) == []
    return inst


class NonMetricCost(CostVector):
    """TINY's two-point costs, except that facility 0 pays 3 to reach client 0.

    With near facilities {0} and near clients {0, 1}, the quadruple
    (i, i', j, j') = (0, 1, 0, 2) gives 3 > 1 + 0 + 1 on the representative ids.
    """

    def connection_of(self, i, j):
        return Fraction(3) if (i, j) == (0, 0) else super().connection_of(i, j)


@pytest.fixture
def non_metric_cost():
    return NonMetricCost(3, 3, unit_opening={1}, near_facilities={0}, near_clients=range(2))


def find_valid_general(facility_count, t, capacity, client_count):
    """Search small eps/x_l grids for valid parameters of the given shape."""
    for eps_den in range(1, 13):
        eps = Fraction(1, eps_den)
        for xl_den in range(1, 200):
            x_l = Fraction(1, xl_den)
            if x_l > eps:
                continue
            inst = build_general_instance(
                facility_count, t, capacity, client_count, eps, x_l
            )
            if not validate_params(inst):
                return inst
    raise AssertionError(
        f"no valid parameters found for shape ({facility_count}, {t}, "
        f"{capacity}, {client_count})"
    )


def exact_distribution(plan):
    """The rounding distribution of a plan, recomputed from its instance's
    family params rather than read from the plan's thresholds and coins.

    Yields, per experiment, ``(exp, choices, p_extra, w_extra)``: one
    ``(probability, slot target)`` per low-set facility in ``exp.choice_set``
    order, the probability that the borrowed pivot opens and its slot target.
    """
    inst, params = plan.inst, plan.inst.family_params
    t, eps = params.t, params.eps
    p_pivot, p_extra = 1 - (t - 1) * eps, t * eps
    n_core = inst.core_client_count
    n_rest = inst.client_count - n_core
    w_base = n_core * params.x_l
    w_extra = (
        Fraction(n_rest, inst.facility_count - 2 * t) / p_extra if n_rest else Fraction(0)
    )
    exp_a, exp_b = plan.experiments
    for exp, other in ((exp_a, exp_b), (exp_b, exp_a)):
        # an experiment's pivot choice is the facility the other one borrows
        choices = [
            (p_pivot, w_base / p_pivot) if i == other.pivot_extra else (eps, w_base / eps)
            for i in exp.choice_set
        ]
        yield exp, choices, p_extra, w_extra


def outside_ids(inst, exp):
    """The facilities of none of an experiment's index sets (its high set,
    low set and borrowed pivot), ascending, by set arithmetic over the ids."""
    named = run_ids(exp.high) | set(exp.choice_set) | {exp.pivot_extra}
    return [i for i in range(inst.facility_count) if i not in named]


def reference_open_set(inst, exp, chosen, extra_open):
    """The open set of a branch: the high set, the outside facilities, the
    chosen low facility and, when it opens, the borrowed pivot."""
    opened = {chosen, exp.pivot_extra} if extra_open else {chosen}
    return run_ids(exp.high) | frozenset(outside_ids(inst, exp)) | opened


def run_ids(runs):
    """The ids of sorted ``(lo, hi)`` runs, as a frozenset."""
    return frozenset(i for lo, hi in runs for i in range(lo, hi))


def run_length(rows):
    """Nonzero ``(facility, count)`` rows, sorted by facility, as maximal
    ``(lo, hi, count)`` runs: consecutive ids of one count merged."""
    runs = []
    for fac, cnt in rows:
        if runs and runs[-1][1] == fac and runs[-1][2] == cnt:
            runs[-1][1] += 1
        else:
            runs.append([fac, fac + 1, cnt])
    return tuple(map(tuple, runs))


def block_draws(plan, chunks, rng):
    """Every row of a block's chunks as a SampleDraw with its shuffled
    assignment, in draw order; ``rng`` is the stream the block was drawn from."""
    for chunk in chunks:
        yield from chunk.draws(plan, rng)


def pool_order_draws(plan, chunks):
    """Every row of the chunks as a SampleDraw in pool order, in draw order."""
    for chunk in chunks:
        for row in range(len(chunk)):
            yield pool_order_draw(plan, chunk, row)


def pool_order_draw(plan, chunk, row):
    """Row ``row`` of a chunk as a SampleDraw, its clients in pool order."""
    from cflgap.rounding import IntSolution, SampleDraw

    exp_index, chosen, extra_open = chunk.branches[row].tolist()
    return SampleDraw(
        solution=IntSolution(run_ids(chunk.open_sets[chunk.open_of[row]]), chunk.row(row)),
        experiment=plan.experiments[exp_index].label,
        chosen_l_facility=chosen,
        extra_open=bool(extra_open),
    )


def one_row_chunk(plan, draw):
    """A SampleDraw as a chunk of one run-form row: each client's facility
    with a count of one, and its open set as runs."""
    from cflgap.corevec import _runs
    from cflgap.rounding import DrawChunk, _branch_row

    assign = draw.solution.assign
    return DrawChunk(
        branches=np.array([_branch_row(plan, draw)]),
        open_of=np.zeros(1, dtype=np.int64),
        open_sets=(_runs(draw.solution.open),),
        facilities=assign[None],
        counts=np.ones((1, len(assign)), dtype=np.int64),
    )


def spoil_rows(plan, chunks, spoil, first=0):
    """The chunks, with the draw at each position in ``spoil`` (counted from
    ``first``) replaced by ``spoil[position](draw)`` as a chunk of its own;
    the draw passed is the row in pool order (:func:`pool_order_draw`)."""
    def rows(chunk, lo, hi):
        return replace(chunk, **{
            name: getattr(chunk, name)[lo:hi]
            for name in ("branches", "open_of", "facilities", "counts")
        })

    position = first
    for chunk in chunks:
        lo = 0
        for row in range(len(chunk)):
            fn = spoil.get(position + row)
            if fn is None:
                continue
            if row > lo:
                yield rows(chunk, lo, row)
            yield one_row_chunk(plan, fn(pool_order_draw(plan, chunk, row)))
            lo = row + 1
        if lo < len(chunk):
            yield rows(chunk, lo, len(chunk))
        position += len(chunk)


def shuffled_chunks(plan, chunks, rng):
    """Each of a block's chunks as its shuffled expansion
    (``DrawChunk.draws``): a run form of one column per client, each
    serving one client; ``rng`` is the stream the block was drawn from."""
    for chunk in chunks:
        assign = np.array([draw.solution.assign for draw in chunk.draws(plan, rng)])
        yield replace(chunk, facilities=assign, counts=np.ones_like(assign))
