import itertools
from dataclasses import replace
from fractions import Fraction

import pytest

from cflgap import polytope
from cflgap.corevec import CoreIndex, FracVector, collides, make_core_vector, midpoint
from cflgap.instance import CostVector, Instance, build_gap_costs
from cflgap.polytope import (
    EnumerationBoundError,
    InfeasibleInstanceError,
    brute_force_opt,
    enumerate_integer_solutions,
    membership_lp,
    solution_coordinates,
    verify_membership,
)
from cflgap.rounding import IntSolution, solution_violations, verify_midpoint


def count_by_direct_product(inst):
    """Independent enumeration count: filter raw assignment products."""
    total = 0
    for size in range(inst.facility_count + 1):
        for open_set in itertools.combinations(range(inst.facility_count), size):
            if inst.client_count and not open_set:
                continue
            for assign in itertools.product(open_set, repeat=inst.client_count):
                counts = {i: assign.count(i) for i in open_set}
                if all(c <= inst.capacity for c in counts.values()):
                    total += 1
            if not inst.client_count:
                total += 1
    return total


class TestEnumeration:
    def test_single_facility_no_clients(self):
        inst = Instance(facility_count=1, client_count=0, capacity=1)
        sols = enumerate_integer_solutions(inst)
        assert len(sols) == 2
        assert {sol.open for sol in sols} == {frozenset(), frozenset({0})}

    @pytest.mark.parametrize(
        "n_f,m,cap",
        [(2, 1, 1), (2, 2, 1), (3, 3, 2), (2, 3, 2), (4, 4, 2)],
    )
    def test_counts_match_independent_product_filter(self, n_f, m, cap):
        inst = Instance(facility_count=n_f, client_count=m, capacity=cap)
        sols = enumerate_integer_solutions(inst)
        assert len(sols) == count_by_direct_product(inst)
        assert len(set(sols)) == len(sols)  # deduplicated

    def test_all_enumerated_solutions_feasible(self):
        inst = Instance(facility_count=3, client_count=4, capacity=2)
        for sol in enumerate_integer_solutions(inst):
            assert solution_violations(inst, sol) == []

    def test_capacity_shortfall_yields_empty(self):
        inst = Instance(facility_count=2, client_count=3, capacity=1)
        assert enumerate_integer_solutions(inst) == []

    def test_bound_enforced(self, mini, monkeypatch):
        with pytest.raises(EnumerationBoundError):
            enumerate_integer_solutions(mini)
        # the bound is the module's: raising it admits a 5-facility shape
        inst = Instance(facility_count=5, client_count=2, capacity=1)
        with pytest.raises(EnumerationBoundError):
            enumerate_integer_solutions(inst)
        monkeypatch.setattr(polytope, "ENUMERATION_BOUND", (5, 8))
        assert enumerate_integer_solutions(inst)


class TestMembership:
    def test_vertex_is_member_with_unit_weight(self, tiny):
        sols = enumerate_integer_solutions(tiny)
        coords = solution_coordinates(sols[5], 3, 3)
        v_dense = FracVector.from_dense(
            coords[:3], [coords[3 + i * 3 : 3 + (i + 1) * 3] for i in range(3)]
        )
        res = membership_lp(v_dense, sols)
        assert res.member
        assert verify_membership(v_dense, sols, res)
        combo = res.convex_weights
        assert sum(combo.values()) == 1

    def test_midpoint_of_colliding_tiny_pair_is_member(self, tiny):
        c1 = CoreIndex.for_instance(tiny, {0}, {1})
        c2 = CoreIndex.for_instance(tiny, {0}, {2})
        assert collides(c1, c2)
        mid = midpoint(
            make_core_vector(tiny, c1.k, c1.l), make_core_vector(tiny, c2.k, c2.l)
        )
        sols = enumerate_integer_solutions(tiny)
        res = membership_lp(mid, sols)
        assert res.member
        assert verify_membership(mid, sols, res)
        # the constructive certificate agrees
        assert verify_midpoint(tiny, c1, c2).valid

    def test_x_above_y_is_nonmember_with_verified_inequality(self, tiny):
        v = make_core_vector(tiny, {0}, {1})
        bad = v.set_x(1, 0, Fraction(3, 4))  # y_1 = 1/2
        sols = enumerate_integer_solutions(tiny)
        res = membership_lp(bad, sols)
        assert not res.member
        assert res.separating_inequality is not None
        assert verify_membership(bad, sols, res)

    def test_tampered_certificates_fail_verification(self, tiny):
        v = make_core_vector(tiny, {0}, {1})
        sols = enumerate_integer_solutions(tiny)
        res = membership_lp(v, sols)
        assert not res.member
        coeffs, offset = res.separating_inequality
        for bad in ((coeffs[:-1], offset), (coeffs, offset + 10)):
            assert not verify_membership(v, sols, replace(res, separating_inequality=bad))
        mid = midpoint(v, make_core_vector(tiny, {0}, {2}))
        res = membership_lp(mid, sols)
        # move one weight onto a solution the certificate does not use
        moved = dict(res.convex_weights)
        unused = next(i for i in range(len(sols)) if i not in moved)
        moved[unused] = moved.pop(next(iter(moved)))
        assert not verify_membership(mid, sols, replace(res, convex_weights=moved))
        for open_ids, assign in (({0}, (0, 0)), ({0}, (3, 0, 0)), ({-1, 0}, (0, 0, 0))):
            bad = [IntSolution(open=frozenset(open_ids), assign=assign)]
            with pytest.raises(ValueError, match="dimensions"):
                verify_membership(mid, bad, res)
            with pytest.raises(ValueError, match="dimensions"):
                membership_lp(mid, sols + bad)

    def test_solution_coordinates_are_ints(self, tiny):
        sol = IntSolution(open=frozenset({0, 2}), assign=(2, 0, 0))
        coords = solution_coordinates(sol, 3, 3)
        assert all(type(c) is int for c in coords)
        assert coords == [1, 0, 1] + [0, 1, 1] + [0, 0, 0] + [1, 0, 0]

    def test_empty_solution_list_rejected(self, tiny):
        v = make_core_vector(tiny, {0}, {1})
        with pytest.raises(ValueError):
            membership_lp(v, [])

    def test_core_vector_membership_is_a_query_not_an_axiom(self, tiny):
        # the membership oracle just answers; no universal claim either way
        v = make_core_vector(tiny, {0}, {1})
        sols = enumerate_integer_solutions(tiny)
        res = membership_lp(v, sols)
        assert verify_membership(v, sols, res)


class TestBruteForceOpt:
    def test_all_zero_costs(self, tiny):
        cost = CostVector(3, 3, unit_opening=(), near_facilities=(), near_clients=())
        value, witness = brute_force_opt(tiny, cost)
        assert value == 0
        assert solution_violations(tiny, witness) == []

    def test_two_point_replica_opt_is_one(self, tiny):
        idx = CoreIndex.for_instance(tiny, {0}, {1})
        cost = build_gap_costs(tiny, idx)
        value, witness = brute_force_opt(tiny, cost)
        # designated clients overflow k's capacity: either open the costly
        # facility or pay one unit of connection
        assert value == 1
        assert cost.solution_cost(witness.open, witness.assign) == 1

    def test_infeasible_instance(self):
        inst = Instance(facility_count=2, client_count=3, capacity=1)
        cost = CostVector(2, 3, unit_opening=(), near_facilities=(), near_clients=())
        with pytest.raises(InfeasibleInstanceError):
            brute_force_opt(inst, cost)
