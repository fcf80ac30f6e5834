"""The exact phase-1 simplex, checked only by plain ``Fraction`` arithmetic.

Every answer of :func:`feasible_combination` is a certificate: a point with
``A v = b`` and ``v >= 0``, or a Farkas ``y`` with ``y^T A_j <= 0`` for every
column and ``y^T b > 0``.  The tests recheck it directly, on random small
rational systems (derandomized), on Beale's cycling example and on every
core vector and midpoint of the TINY instance.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cflgap.corevec import CoreIndex, collides, make_core_vector, midpoint
from cflgap.polytope import enumerate_integer_solutions, membership_lp, verify_membership
from cflgap.simplex import feasible_combination


def check_certificate(columns, rhs, v, y):
    """Recheck the solver's answer by direct Fraction arithmetic."""
    r = len(rhs)
    if v is not None:
        assert y is None
        assert len(v) == len(columns)
        assert all(isinstance(w, Fraction) and w >= 0 for w in v)
        for i in range(r):
            total = sum((w * Fraction(col[i]) for w, col in zip(v, columns)), Fraction(0))
            assert total == rhs[i]
        return True
    assert y is not None and len(y) == r
    assert all(isinstance(c, Fraction) for c in y)
    for col in columns:
        assert sum((c * Fraction(a) for c, a in zip(y, col)), Fraction(0)) <= 0
    assert sum((c * Fraction(b) for c, b in zip(y, rhs)), Fraction(0)) > 0
    return False


entries = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
)


@st.composite
def systems(draw):
    """A small system with flipped (negative) right-hand sides, zero rows,
    redundant rows, mixed int/Fraction entries, and often a known solution."""
    r = draw(st.integers(1, 4))
    n = draw(st.integers(1, 6))
    columns = [[draw(entries) for _ in range(r)] for _ in range(n)]
    if draw(st.booleans()):
        weights = [draw(st.fractions(min_value=0, max_value=2, max_denominator=4))
                   for _ in range(n)]
        rhs = [sum((w * col[i] for w, col in zip(weights, columns)), Fraction(0))
               for i in range(r)]
    else:
        rhs = [draw(entries) for _ in range(r)]
    if r > 1 and draw(st.booleans()):  # zero row
        i = draw(st.integers(0, r - 1))
        for col in columns:
            col[i] = 0
        rhs[i] = draw(st.sampled_from([0, 1, -1]))
    if draw(st.booleans()):  # redundant row: a multiple of row 0
        scale = draw(st.sampled_from([1, -2, Fraction(1, 3)]))
        for col in columns:
            col.append(scale * col[0])
        rhs.append(scale * rhs[0])
    return columns, rhs


@settings(derandomize=True, max_examples=200, deadline=None)
@given(systems())
def test_random_system_answer_is_a_certificate(system):
    columns, rhs = system
    v, y = feasible_combination(columns, rhs)
    check_certificate(columns, rhs, v, y)


def test_known_feasible_and_infeasible_systems():
    # x1 + x2 = 1, x1 - x2 = -1/2 (a flipped row): x = (1/4, 3/4)
    columns = [[1, 1], [1, -1]]
    v, y = feasible_combination(columns, [1, Fraction(-1, 2)])
    assert v == [Fraction(1, 4), Fraction(3, 4)] and y is None
    # x1 = -1 with x1 >= 0 is infeasible
    v, y = feasible_combination([[1]], [-1])
    assert v is None
    assert check_certificate([[1]], [-1], v, y) is False
    # zero rows only: zero right-hand side is feasible, nonzero is not
    assert feasible_combination([[0, 0]], [0, 0])[0] == [0]
    assert feasible_combination([[0, 0]], [0, Fraction(2, 3)])[0] is None


# Beale's example: Dantzig's largest-coefficient rule cycles on it; Bland's
# rule does not.  With slacks, the constraints are
#   x4/4 - 8 x5 - x6 + 9 x7 + x1 = 0
#   x4/2 - 12 x5 - x6/2 + 3 x7 + x2 = 0
#   x6 + x3 = 1
# and the objective -3/4 x4 + 20 x5 - x6/2 + 6 x7 reaches -5/4 at best.
BEALE_ROWS = [
    [1, 0, 0, Fraction(1, 4), -8, -1, 9],
    [0, 1, 0, Fraction(1, 2), -12, Fraction(-1, 2), 3],
    [0, 0, 1, 0, 0, 1, 0],
]
BEALE_COST = [0, 0, 0, Fraction(-3, 4), 20, Fraction(-1, 2), 6]


@pytest.mark.parametrize(
    "target,feasible",
    [(None, True), (Fraction(-5, 4), True), (Fraction(-5, 4) - Fraction(1, 100), False)],
)
def test_beale_cycling_example_terminates(target, feasible):
    rows = [list(row) for row in BEALE_ROWS]
    rhs = [0, 0, 1]
    if target is not None:
        # objective + slack = target: reachable iff target >= -5/4
        rows = [row + [0] for row in rows] + [BEALE_COST + [1]]
        rhs = rhs + [target]
    columns = [list(col) for col in zip(*rows)]
    v, y = feasible_combination(columns, rhs)
    assert check_certificate(columns, rhs, v, y) is feasible


def test_column_length_mismatch_raises():
    with pytest.raises(ValueError, match="column length mismatch"):
        feasible_combination([[1, 2], [1]], [1, 1])


def test_every_tiny_core_vector_and_midpoint_has_a_verified_certificate(tiny):
    solutions = enumerate_integer_solutions(tiny)
    facilities = range(tiny.facility_count)
    cores = [
        CoreIndex.for_instance(tiny, {k}, {l})
        for k, l in itertools.permutations(facilities, 2)
    ]
    vectors = {c: make_core_vector(tiny, c.k, c.l) for c in cores}
    for c in cores:
        result = membership_lp(vectors[c], solutions)
        assert verify_membership(vectors[c], solutions, result)
    colliding = 0
    for c1, c2 in itertools.combinations(cores, 2):
        mid = midpoint(vectors[c1], vectors[c2])
        result = membership_lp(mid, solutions)
        assert verify_membership(mid, solutions, result)
        if collides(c1, c2):
            colliding += 1
            assert result.member
    assert colliding > 0
