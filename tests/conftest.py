from fractions import Fraction

import pytest

from cflgap.instance import build_family_instance, build_general_instance, validate_params

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
    n_core = params.core_client_count
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
