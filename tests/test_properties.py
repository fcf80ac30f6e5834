"""Property tests of the compiled rounding distribution on random shapes.

Shapes are drawn around the validity conditions of ``validate_params`` so
that most draws are valid; settings are derandomized and small, so the suite
stays reproducible and fast.
"""

from fractions import Fraction

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from cflgap.corevec import CoreIndex, collides
from cflgap.instance import build_general_instance, validate_params
from cflgap.randomness import ExactRng
from cflgap.rounding import (
    compile_plan,
    enumerate_outcome_classes,
    outcome_class_key,
    sample_outcome,
    solution_violations,
)

DRAWS = 25


@st.composite
def colliding_plans(draw):
    """A valid --general instance and a colliding pair of core indices."""
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

    def index():
        ids = draw(st.permutations(range(inst.facility_count)))
        return CoreIndex.for_instance(inst, ids[:t], ids[t : 2 * t])

    c1, c2 = index(), index()
    assume(collides(c1, c2))
    return compile_plan(inst, c1, c2)


@settings(
    derandomize=True,
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
@given(plan=colliding_plans(), seed=st.integers(0, 2**32 - 1))
def test_enumeration_and_sampler_agree(plan, seed):
    classes = enumerate_outcome_classes(plan)
    assert sum(cl.probability for cl in classes) == 1
    # the enumerator admits the shape when every class is feasible; otherwise
    # the sampler can reach an overflowing branch
    assume(all(cl.feasible for cl in classes))
    feasible_keys = {cl.key for cl in classes}
    rng = ExactRng(seed)
    for _ in range(DRAWS):
        draw = sample_outcome(plan, rng)
        assert solution_violations(plan.inst, draw.solution) == []
        assert outcome_class_key(plan, draw) in feasible_keys
