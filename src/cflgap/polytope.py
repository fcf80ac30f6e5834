"""Tiny-instance ground truth: enumeration, hull membership, brute-force opt.

Everything here is exhaustive and exact, intended for instances small enough
to list every feasible integer solution; family-scale midpoint membership is
certified constructively by the rounding module instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .corevec import FracVector
from .instance import CostVector, Instance, over_common_denominator
from .rounding import IntSolution, solution_violations
from .simplex import feasible_combination

__all__ = [
    "MembershipResult",
    "EnumerationBoundError",
    "InfeasibleInstanceError",
    "enumerate_integer_solutions",
    "membership_lp",
    "brute_force_opt",
    "solution_coordinates",
    "verify_membership",
]


# largest (facilities, clients) shape whose integer solutions are enumerated
ENUMERATION_BOUND = (4, 8)


class EnumerationBoundError(ValueError):
    """Instance too large for exhaustive integer-solution enumeration."""


class InfeasibleInstanceError(ValueError):
    """No feasible integer solution exists."""


@dataclass(frozen=True)
class MembershipResult:
    """Hull-membership decision with a checkable certificate.

    Members carry convex weights recombining exactly to the query; non-members
    carry ``(coefficients, offset)`` with ``coeffs . vec(s) <= offset`` for
    every enumerated solution and ``coeffs . query > offset``.
    """

    member: bool
    convex_weights: Optional[dict[int, Fraction]] = None
    separating_inequality: Optional[tuple[tuple[Fraction, ...], Fraction]] = None


def enumerate_integer_solutions(inst: Instance) -> list[IntSolution]:
    """Every (open set, assignment) pair respecting openings and capacities.

    Open facilities serving nobody are included.  Assignments are enumerated
    in client order with no symmetry reduction; :data:`ENUMERATION_BOUND`
    keeps the search exhaustive yet instant.
    """
    max_facilities, max_clients = ENUMERATION_BOUND
    if inst.facility_count > max_facilities or inst.client_count > max_clients:
        raise EnumerationBoundError(
            f"instance ({inst.facility_count} facilities, {inst.client_count} clients) "
            f"exceeds the enumeration bound ({max_facilities}, {max_clients})"
        )
    n_f, m, cap = inst.facility_count, inst.client_count, inst.capacity
    out: list[IntSolution] = []
    for mask in range(1 << n_f):
        open_list = [i for i in range(n_f) if mask >> i & 1]
        if m and not open_list:
            continue
        open_set = frozenset(open_list)
        assign = [0] * m
        load = {i: 0 for i in open_list}

        def extend(j: int) -> None:
            if j == m:
                out.append(IntSolution(open=open_set, assign=assign))
                return
            for i in open_list:
                if load[i] < cap:
                    assign[j] = i
                    load[i] += 1
                    extend(j + 1)
                    load[i] -= 1

        extend(0)
    return out


def _one_positions(sol: IntSolution, facility_count: int, client_count: int) -> list[int]:
    """Where a solution's coordinates are 1: its open facilities, then one
    ``(assign[j], j)`` cell per client."""
    return sorted(sol.open) + [
        facility_count + i * client_count + j for j, i in enumerate(sol.assign.tolist())
    ]


def solution_coordinates(
    sol: IntSolution, facility_count: int, client_count: int
) -> list[int]:
    """0/1 coordinates of a solution: openings then assignments, row-major."""
    coords = [0] * (facility_count * (1 + client_count))
    for pos in _one_positions(sol, facility_count, client_count):
        coords[pos] = 1
    return coords


def _vector_coordinates(v: FracVector) -> list[Fraction]:
    dense = v.to_dense()
    return list(dense.y_values) + [x for row in dense.x_values for x in row]


def _check_dimensions(v: FracVector, solutions: Sequence[IntSolution]) -> None:
    """Every solution has the vector's client count and only its facility ids."""
    n_f, m = v.facility_count, v.client_count
    for sol in solutions:
        ids = [*sol.open, *sol.assign.tolist()]
        if len(sol.assign) != m or (ids and not (0 <= min(ids) and max(ids) < n_f)):
            raise ValueError("solution dimensions do not match the vector")


def membership_lp(v: FracVector, solutions: Sequence[IntSolution]) -> MembershipResult:
    """Exact decision of ``v in conv(solutions)`` by integer-row pivoting."""
    if not solutions:
        raise ValueError("empty solution list")
    _check_dimensions(v, solutions)
    n_f, m = v.facility_count, v.client_count
    columns = [solution_coordinates(sol, n_f, m) + [1] for sol in solutions]
    rhs = _vector_coordinates(v) + [1]
    weights, farkas = feasible_combination(columns, rhs)
    if weights is not None:
        nonzero = {idx: w for idx, w in enumerate(weights) if w != 0}
        return MembershipResult(member=True, convex_weights=nonzero)
    coeffs = tuple(farkas[:-1])
    offset = -farkas[-1]
    return MembershipResult(
        member=False, separating_inequality=(coeffs, offset)
    )


def verify_membership(
    v: FracVector, solutions: Sequence[IntSolution], result: MembershipResult
) -> bool:
    """Re-check a membership certificate by direct arithmetic only.

    The weights, or the coefficients and offset, are scaled to integers over
    one denominator, added at each solution's one-positions and compared
    with the query's coordinates by cross-multiplying.
    """
    _check_dimensions(v, solutions)
    n_f, m = v.facility_count, v.client_count
    target, target_den = over_common_denominator(_vector_coordinates(v))
    if result.member:
        weights = result.convex_weights
        if weights is None or any(w < 0 for w in weights.values()):
            return False
        scaled, den = over_common_denominator(list(weights.values()))
        if sum(scaled) != den:
            return False
        combo = [0] * len(target)
        for idx, w in zip(weights, scaled):
            for pos in _one_positions(solutions[idx], n_f, m):
                combo[pos] += w
        return all(c * target_den == t * den for c, t in zip(combo, target))
    if result.separating_inequality is None:
        return False
    coeffs, offset = result.separating_inequality
    if len(coeffs) != len(target):
        return False
    (*scaled, bound), _ = over_common_denominator([*coeffs, offset])
    if any(sum(scaled[pos] for pos in _one_positions(sol, n_f, m)) > bound for sol in solutions):
        return False
    return sum(c * t for c, t in zip(scaled, target)) > bound * target_den


def brute_force_opt(inst: Instance, cost: CostVector) -> tuple[Fraction, IntSolution]:
    """Exact optimum over all enumerated integer solutions, with a witness."""
    if (cost.facility_count, cost.client_count) != (inst.facility_count, inst.client_count):
        raise ValueError("cost/instance dimension mismatch")
    solutions = enumerate_integer_solutions(inst)
    if not solutions:
        raise InfeasibleInstanceError("no feasible integer solution exists")
    opened = np.zeros((len(solutions), inst.facility_count), dtype=bool)
    for row, sol in enumerate(solutions):
        if solution_violations(inst, sol):
            raise AssertionError("enumerator produced an infeasible solution")
        opened[row, list(sol.open)] = True
    values = cost.solution_costs(opened, np.stack([sol.assign for sol in solutions]))
    best = int(np.argmin(values))  # the first minimum in enumeration order
    return Fraction(int(values[best])), solutions[best]
