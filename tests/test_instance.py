from fractions import Fraction

import numpy as np
import pytest

import cflgap.instance as instance_module
from cflgap.certify import core_size, reference_index
from cflgap.corevec import CoreIndex, make_core_vector
from cflgap.instance import (
    CostVector,
    FamilyParams,
    Instance,
    build_family_instance,
    build_gap_costs,
    build_general_instance,
    check_metric_admissible,
    require_valid,
    validate_params,
)
from cflgap.rounding import verify_midpoint


def codes(violations):
    return {v.code for v in violations}


class TestBuildFamilyInstance:
    def test_classic_t10(self):
        inst = build_family_instance(t=10, a=2)
        assert inst.facility_count == 100
        assert inst.client_count == 20000
        assert inst.capacity == 1000
        assert inst.core_client_count == 10001
        p = inst.family_params
        assert p.eps == Fraction(10, 100)
        assert p.x_l == Fraction(1, 1000)
        assert p.a == 2

    def test_smallest_arguments(self):
        inst = build_family_instance(t=1, a=2)
        assert (inst.facility_count, inst.client_count, inst.capacity) == (1, 2, 1)
        assert "outside_facilities" in codes(validate_params(inst))

    def test_t4_rejected_by_residual_probability(self):
        inst = build_family_instance(t=4, a=2)
        assert inst.family_params.eps == Fraction(10, 16)
        assert (4 - 1) * inst.family_params.eps == Fraction(30, 16)
        assert "residual_probability" in codes(validate_params(inst))

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            build_family_instance(t=0, a=2)
        with pytest.raises(ValueError):
            build_family_instance(t=3, a=1)


class TestBuildGeneralInstance:
    def test_valid_mini(self):
        inst = build_general_instance(6, 2, 4, 13, Fraction(2, 5), Fraction(1, 8))
        assert inst.core_client_count == 9
        assert validate_params(inst) == []

    def test_overloaded_closed_branch(self):
        inst = build_general_instance(6, 2, 4, 17, Fraction(2, 5), Fraction(1, 8))
        assert "closed_extra_overflow" in codes(validate_params(inst))

    def test_no_outside_facilities(self):
        inst = build_general_instance(4, 2, 4, 13, Fraction(2, 5), Fraction(1, 8))
        assert "outside_facilities" in codes(validate_params(inst))

    def test_rejects_nonpositive_counts(self):
        with pytest.raises(ValueError):
            build_general_instance(0, 1, 2, 3, Fraction(1, 2), Fraction(1, 3))
        with pytest.raises(ValueError):
            build_general_instance(3, 1, 0, 3, Fraction(1, 2), Fraction(1, 3))
        with pytest.raises(ValueError):
            build_general_instance(3, 1, 2, 0, Fraction(1, 2), Fraction(1, 3))


class TestValidateParams:
    def test_classic_t10_valid(self):
        assert validate_params(build_family_instance(10, 2)) == []

    def test_t3_eps_above_one(self):
        inst = build_family_instance(3, 2)
        vio = validate_params(inst)
        assert "eps_range" in codes(vio)
        assert inst.family_params.eps == Fraction(10, 9)

    def test_t9_extra_open_probability(self):
        inst = build_family_instance(9, 2)
        p = inst.family_params
        assert 9 * p.eps == Fraction(10, 9)   # fails
        assert 8 * p.eps == Fraction(80, 81)  # holds
        vio = codes(validate_params(inst))
        assert "extra_open_probability" in vio
        assert "residual_probability" not in vio

    @pytest.mark.parametrize("t", range(2, 15))
    def test_family_valid_iff_t_at_least_10(self, t):
        inst = build_family_instance(t, 2)
        if t >= 10:
            assert validate_params(inst) == []
        else:
            assert validate_params(inst) != []

    def test_requires_family_params(self):
        with pytest.raises(ValueError):
            validate_params(Instance(facility_count=2, client_count=2, capacity=1))

    def test_assignment_mass_identity(self):
        # t*x_k + t*x_l = 1 exactly whenever parameters are valid
        for t, eps, x_l in [
            (2, Fraction(2, 5), Fraction(1, 8)),
            (1, Fraction(1, 2), Fraction(1, 3)),
            (10, Fraction(1, 10), Fraction(1, 1000)),
        ]:
            inst = build_general_instance(6 if t < 3 else 100, t, 4, 13, eps, x_l)
            p = inst.family_params
            assert p.t * p.x_k + p.t * p.x_l == 1


class TestFamily:
    PLAIN = Instance(facility_count=6, client_count=13, capacity=4)

    @pytest.mark.parametrize("read", [
        validate_params,
        require_valid,
        lambda inst: inst.family,
        lambda inst: inst.core_client_count,
        lambda inst: inst.designated_clients,
        lambda inst: CoreIndex.for_instance(inst, [0, 1], [2, 3]),
        lambda inst: make_core_vector(inst, [0, 1], [2, 3]),
        core_size,
        reference_index,
    ], ids=["validate_params", "require_valid", "family", "core_client_count",
            "designated_clients", "CoreIndex.for_instance", "make_core_vector",
            "core_size", "reference_index"])
    def test_one_refusal_for_a_family_less_instance(self, read):
        with pytest.raises(ValueError, match=r"^instance has no family_params$"):
            read(self.PLAIN)

    def test_require_valid_returns_the_family(self, mini, family10):
        for inst in (mini, family10):
            assert require_valid(inst) is inst.family is inst.family_params

    @pytest.mark.parametrize("t", [0, -1])
    def test_t_below_one_refused(self, t):
        with pytest.raises(ValueError, match=f"^t must be >= 1, got {t}$"):
            FamilyParams(t=t, eps=Fraction(1, 2), x_l=Fraction(1, 3))
        with pytest.raises(ValueError, match=f"^t must be >= 1, got {t}$"):
            build_general_instance(6, t, 4, 13, Fraction(1, 2), Fraction(1, 3))


class TestValidityVerdict:
    @pytest.fixture
    def calls(self, monkeypatch):
        """Every instance that ``validate_params`` is asked about."""
        seen = []
        monkeypatch.setattr(
            instance_module, "validate_params", lambda inst: seen.append(inst) or validate_params(inst)
        )
        return seen

    @staticmethod
    def pair(inst):
        return (CoreIndex.for_instance(inst, {0, 1}, l) for l in ({2, 3}, {4, 5}))

    def test_two_certificates_validate_once(self, calls):
        inst = build_general_instance(6, 2, 4, 13, Fraction(2, 5), Fraction(1, 8))
        assert verify_midpoint(inst, *self.pair(inst)).valid
        assert verify_midpoint(inst, *self.pair(inst)).valid
        assert calls == [inst]
        assert inst.violations == ()

    def test_invalid_instance_raises_the_same_message_on_every_call(self, calls):
        inst = build_general_instance(6, 2, 4, 17, Fraction(2, 5), Fraction(1, 8))
        expected = "instance parameters are invalid: " + "; ".join(
            str(v) for v in validate_params(inst)
        )
        for _ in range(3):
            with pytest.raises(ValueError) as err:
                verify_midpoint(inst, *self.pair(inst))
            assert str(err.value) == expected
        assert calls == [inst]


class TestGapCosts:
    def test_opening_costs_on_l_only(self, family10):
        idx = CoreIndex.for_instance(family10, range(10), range(10, 20))
        cost = build_gap_costs(family10, idx)
        assert sum(cost.opening_of(i) for i in range(100)) == 10
        assert all(cost.opening_of(i) == 1 for i in range(10, 20))
        assert all(cost.opening_of(i) == 0 for i in range(10))
        assert all(cost.opening_of(i) == 0 for i in range(20, 100))

    def test_connection_roles(self, family10):
        idx = CoreIndex.for_instance(family10, range(10), range(10, 20))
        cost = build_gap_costs(family10, idx)
        # co-located: facilities of k|l with designated clients
        assert cost.connection_of(0, 0) == 0
        assert cost.connection_of(19, 10000) == 0
        # across: facilities of k|l with outside clients, and vice versa
        assert cost.connection_of(0, 10001) == 1
        assert cost.connection_of(50, 0) == 1
        # co-located at the far point
        assert cost.connection_of(50, 19999) == 0

    def test_inconsistent_index_rejected(self, mini, family10):
        idx = CoreIndex.for_instance(family10, range(10), range(10, 20))
        with pytest.raises(ValueError):
            build_gap_costs(mini, idx)

    def test_metric_admissible_flag_and_check(self, mini):
        idx = CoreIndex.for_instance(mini, {0, 1}, {2, 3})
        cost = build_gap_costs(mini, idx)
        res = check_metric_admissible(cost, mini)
        assert res.admissible


class TestSolutionCost:
    @pytest.mark.parametrize("name", ["mini", "tiny"])
    def test_list_tuple_and_int64_array_agree(self, request, name):
        inst = request.getfixturevalue(name)
        n_f, m, t = inst.facility_count, inst.client_count, inst.family_params.t
        cost = build_gap_costs(inst, CoreIndex.for_instance(inst, range(t), range(t, 2 * t)))
        assign = [(3 * j + 1) % n_f for j in range(m)]
        open_set = frozenset(assign) | {0}
        expected = sum(cost.opening_of(i) for i in open_set) + sum(
            cost.connection_of(i, j) for j, i in enumerate(assign)
        )
        array = np.array(assign, dtype=np.int64)
        array.setflags(write=False)
        values = [cost.solution_cost(open_set, form) for form in (assign, tuple(assign), array)]
        assert values == [expected] * 3
        assert all(type(value) is Fraction for value in values)


class TestTwoPointRoles:
    ROLES = {"unit_opening": 3, "near_facilities": 3, "near_clients": 4}

    def cost(self, **roles):
        base = {"unit_opening": {1}, "near_facilities": {0, 1}, "near_clients": range(2)}
        return CostVector(3, 4, **{**base, **roles})

    @pytest.mark.parametrize("role", sorted(ROLES))
    @pytest.mark.parametrize(
        "bad",
        [
            lambda n: frozenset({-1}),
            lambda n: [0, n],
            lambda n: range(-1, 1),
            lambda n: range(n + 1),
            lambda n: range(n, -1, -1),
        ],
        ids=["negative", "past-end", "negative-range", "long-range", "descending-range"],
    )
    def test_out_of_range_ids_rejected(self, role, bad):
        with pytest.raises(ValueError, match=f"{role} holds ids outside"):
            self.cost(**{role: bad(self.ROLES[role])})

    def test_ranges_of_either_step_and_empty_ranges(self):
        cost = self.cost(near_clients=range(3, -1, -2), near_facilities=range(2, -1))
        # no near facility; near clients 3 and 1
        assert [cost.connection_of(0, j) for j in range(4)] == [0, 1, 0, 1]
        assert [cost.connection_of(i, 1) for i in range(3)] == [1, 1, 1]


class TestSolutionCostInput:
    COST = CostVector(3, 3, unit_opening={1}, near_facilities={0, 1}, near_clients=range(2))

    @pytest.mark.parametrize(
        "open_set,assign,match",
        [
            ({0}, [0, 0], "shape"),
            ({0}, [0, -1, 0], "unknown facility"),
            ({0}, [0, 3, 0], "unknown facility"),
            ({-1}, [0, 0, 0], "unknown facility"),
            ({3}, [0, 0, 0], "unknown facility"),
        ],
    )
    def test_non_solutions_rejected_in_both_forms(self, open_set, assign, match):
        with pytest.raises(ValueError, match=match):
            self.COST.solution_cost(frozenset(open_set), assign)

    @pytest.mark.parametrize("i", [-1, 3], ids=["negative", "past-end"])
    def test_unknown_facility_id_rejected_by_both_accessors(self, i):
        with pytest.raises(ValueError, match="unknown facility"):
            self.COST.opening_of(i)
        with pytest.raises(ValueError, match="unknown facility"):
            self.COST.connection_of(i, 0)

    @pytest.mark.parametrize("j", [-1, 3], ids=["negative", "past-end"])
    def test_unknown_client_id_rejected(self, j):
        with pytest.raises(ValueError, match="unknown client"):
            self.COST.connection_of(0, j)


class TestMetricAdmissible:
    def test_all_zero(self):
        inst = Instance(facility_count=2, client_count=2, capacity=1)
        cost = CostVector(2, 2, unit_opening=(), near_facilities=(), near_clients=())
        assert check_metric_admissible(cost, inst)

    def test_single_violation(self, tiny, non_metric_cost):
        res = check_metric_admissible(non_metric_cost, tiny)
        assert not res.admissible
        i, ip, j, jp = res.violation
        c = non_metric_cost.connection_of
        assert c(i, j) > c(i, jp) + c(ip, jp) + c(ip, j)

    def test_exact_verdict_on_family_scale(self, family10):
        idx = CoreIndex.for_instance(family10, range(10), range(10, 20))
        cost = build_gap_costs(family10, idx)
        res = check_metric_admissible(cost, family10)
        assert res.admissible and res.violation is None  # exact, not sampled

    def test_dimension_mismatch(self, mini):
        cost = CostVector(1, 1, unit_opening=(), near_facilities=(), near_clients=())
        with pytest.raises(ValueError):
            check_metric_admissible(cost, mini)


class TestCanonicalClients:
    def test_t10(self, family10):
        assert family10.designated_clients == range(10001)

    def test_mini(self, mini):
        assert mini.designated_clients == range(9)

    @pytest.mark.parametrize("t,a", [(10, 2), (11, 2), (12, 3)])
    def test_size_is_core_client_count(self, t, a):
        inst = build_family_instance(t, a)
        assert len(inst.designated_clients) == inst.core_client_count

    def test_instance_without_family_params_raises(self):
        with pytest.raises(ValueError, match="no family_params"):
            Instance(facility_count=2, client_count=3, capacity=1).designated_clients

    def test_rest_clients_follow_the_designated_group(self, mini):
        assert mini.rest_clients == range(9, 13)

    def test_group_past_the_last_client_raises(self):
        params = FamilyParams(t=2, eps=Fraction(2, 5), x_l=Fraction(1, 8))
        inst = Instance(facility_count=6, client_count=8, capacity=4, family_params=params)
        with pytest.raises(ValueError, match="core_client_count = 9 exceeds client_count = 8"):
            inst.designated_clients
