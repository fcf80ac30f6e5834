import itertools
from fractions import Fraction

import numpy as np
import pytest

import cflgap.certify as certify_module
from cflgap.corevec import CoreIndex
from cflgap.certify import (
    BRUTE_CENSUS_LIMIT,
    analytic_opt_witness,
    build_census_report,
    certify_gap,
    core_size,
    lower_bound_constraints,
    noncolliding_count_brute,
    noncolliding_count_exact,
    noncolliding_prob_mc,
    noncolliding_upper_bound,
    reference_index,
)
from cflgap.instance import (
    CostVector,
    build_family_instance,
    build_gap_costs,
    build_general_instance,
)
from cflgap.polytope import brute_force_opt
from cflgap.rounding import solution_violations

from conftest import CENSUS_SHAPES, find_valid_general

# t=7 is the largest t whose smallest core (n_f = 2t + 1 = 15) fits under the
# enumeration limit: 51,480 pairs, while t=8 needs C(17, 8) * 9 = 218,790.
LARGEST_T_SHAPE = (15, 7, 2, 15)


def pascal_binomial(n, k):
    """Independent binomial oracle by the additive recurrence."""
    if k < 0 or k > n:
        return 0
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row[k]


class TestCoreSize:
    def test_mini_is_90(self, mini):
        assert core_size(mini) == 90

    def test_tiny_is_6(self, tiny):
        assert core_size(tiny) == 6

    def test_t10_against_pascal_recurrence(self, family10):
        expected = pascal_binomial(100, 10) * pascal_binomial(90, 10)
        got = core_size(family10)
        assert got == expected
        assert got == 99026143582326261786805320

    def test_exhaustive_pair_enumeration_matches(self, mini):
        pairs = 0
        for k in itertools.combinations(range(6), 2):
            rest = set(range(6)) - set(k)
            pairs += sum(1 for _ in itertools.combinations(sorted(rest), 2))
        assert pairs == core_size(mini)


class TestNoncollidingCensus:
    @pytest.mark.parametrize("n_f,t,cap,m", CENSUS_SHAPES)
    def test_formula_equals_brute_force(self, n_f, t, cap, m):
        inst = find_valid_general(n_f, t, cap, m)
        assert noncolliding_count_exact(inst) == noncolliding_count_brute(inst)

    def test_reference_independence_at_mini_scale(self, mini):
        expected = noncolliding_count_exact(mini)
        for k in itertools.combinations(range(6), 2):
            rest = sorted(set(range(6)) - set(k))
            for l in itertools.combinations(rest, 2):
                ref = CoreIndex.for_instance(mini, k, l)
                assert noncolliding_count_brute(mini, reference=ref) == expected

    def test_more_than_64_facilities_just_under_the_limit(self):
        inst = find_valid_general(316, 1, 2, 13)
        assert core_size(inst) == 99_540 <= BRUTE_CENSUS_LIMIT
        assert noncolliding_count_brute(inst) == noncolliding_count_exact(inst)

    def test_largest_t_under_the_limit(self):
        inst = find_valid_general(*LARGEST_T_SHAPE)
        assert core_size(inst) == 51_480 <= BRUTE_CENSUS_LIMIT
        assert core_size(find_valid_general(17, 8, 2, 17)) > BRUTE_CENSUS_LIMIT
        assert noncolliding_count_brute(inst) == noncolliding_count_exact(inst)

    def test_over_the_limit_refused(self):
        inst = find_valid_general(317, 1, 2, 13)
        assert core_size(inst) > BRUTE_CENSUS_LIMIT
        with pytest.raises(ValueError, match="enumeration limit"):
            noncolliding_count_brute(inst)

    @pytest.mark.parametrize("shape", [(13, 4, 4, 27), (316, 1, 2, 13)], ids=["nf13", "nf316"])
    def test_count_does_not_depend_on_the_chunk(self, monkeypatch, shape):
        inst = find_valid_general(*shape)
        t = inst.family_params.t
        per_k_prime = core_size(inst) // pascal_binomial(shape[0], t)
        ref = CoreIndex.for_instance(inst, range(1, t + 1), range(shape[0] - t, shape[0]))
        expected = noncolliding_count_exact(inst)
        # one k' per block; 7 per block (a partial last block: C(13, 4) = 715
        # and 316 both leave 1 over); one block holding every pair
        for chunk in (1, 7 * per_k_prime, core_size(inst)):
            monkeypatch.setattr(certify_module, "BRUTE_CENSUS_CHUNK", chunk)
            assert noncolliding_count_brute(inst) == expected
            assert noncolliding_count_brute(inst, reference=ref) == expected

    def test_t1_containment_means_l_prime_in_k_or_l(self, tiny):
        # at t=1, E1 holds iff l' equals k or l; with E2 the total is 5 of 6
        assert noncolliding_count_exact(tiny) == 5
        assert noncolliding_count_brute(tiny) == 5

    @pytest.mark.parametrize("t,shape", [(4, (16, 4, 4, 33)), (5, (25, 5, 5, 56)), (6, (36, 6, 6, 85))])
    def test_containment_bound_on_square_shapes(self, t, shape):
        inst = find_valid_general(*shape)
        frac = Fraction(noncolliding_count_exact(inst), core_size(inst))
        assert frac <= 2 * Fraction(2, t) ** t

    def test_containment_bound_t10(self, family10):
        frac = Fraction(noncolliding_count_exact(family10), core_size(family10))
        assert frac <= 2 * Fraction(2, 10) ** 10
        assert noncolliding_upper_bound(family10) == 2 * Fraction(2, 10) ** 10 * core_size(family10)


class TestMonteCarlo:
    def test_mini_within_four_sigma_of_exact(self, mini):
        exact = Fraction(noncolliding_count_exact(mini), core_size(mini))
        est = noncolliding_prob_mc(mini, samples=100_000, seed=9)
        p = float(exact)
        sigma = (p * (1 - p) / est.samples) ** 0.5
        assert abs(est.estimate - p) <= 4 * sigma

    def test_seed_determinism(self, mini):
        a = noncolliding_prob_mc(mini, samples=2000, seed=123)
        b = noncolliding_prob_mc(mini, samples=2000, seed=123)
        assert a == b

    def test_t10_consistent_with_bound(self, family10):
        est = noncolliding_prob_mc(family10, samples=3000, seed=11)
        # the non-collision probability is ~2e-8; essentially every run
        # observes zero hits and reports the rule-of-three upper bound
        assert est.upper95 >= est.estimate
        assert est.estimate <= 1e-3

    def test_zero_samples_rejected(self, mini):
        with pytest.raises(ValueError):
            noncolliding_prob_mc(mini, samples=0, seed=1)


class TestLowerBound:
    def test_t10_exact_value_and_floor(self, family10):
        assert lower_bound_constraints(family10) == 46853201
        assert lower_bound_constraints(family10) >= 4882813  # ceil(5^10 / 2)

    def test_mini_is_ceil_90_over_lambda(self, mini):
        lam = noncolliding_count_brute(mini)
        assert lam == 53
        assert lower_bound_constraints(mini) == -(-90 // 53) == 2

    def test_monotone_over_t_10_to_14(self):
        bounds = [
            lower_bound_constraints(build_family_instance(t, 2))
            for t in range(10, 15)
        ]
        assert bounds == sorted(bounds)

    def test_report_cross_checks_brute_force(self, mini):
        report = build_census_report(mini, brute_force=True)
        assert report.brute_force_count == report.lambda_ == 53
        assert report.core_size == 90
        assert report.lower_bound == 2


class TestUnionBoundSoundness:
    def test_every_colliding_mini_pair_has_a_midpoint_certificate(self, mini):
        # a valid inequality violated by one core member cannot also cut a
        # colliding member: their midpoint is certified inside the integer
        # hull, so validity would fail; the counting step is then arithmetic
        from cflgap.rounding import verify_midpoint

        idx = [
            CoreIndex.for_instance(mini, k, l)
            for k in itertools.combinations(range(6), 2)
            for l in itertools.combinations(sorted(set(range(6)) - set(k)), 2)
        ]
        colliding = 0
        for a, b in itertools.combinations(idx, 2):
            from cflgap.corevec import collides

            if collides(a, b):
                colliding += 1
                assert verify_midpoint(mini, a, b).valid
        # per member: 90 - 53 = 37 colliding others; unordered pair count
        assert colliding == 90 * 37 // 2
        assert lower_bound_constraints(mini) == -(-90 // 53) == 2


class TestGapCertificate:
    def test_t10_ratio_one(self, family10):
        idx = CoreIndex.for_instance(family10, range(10), range(10, 20))
        cert = certify_gap(family10, idx, "analytic")
        assert cert.frac_cost == 1
        assert cert.opt_value == 1
        assert cert.ratio == 1
        assert cert.opt_provenance == "analytic"

    def test_t20_ratio_two(self):
        inst = build_family_instance(20, 2)
        idx = CoreIndex.for_instance(inst, range(20), range(20, 40))
        cert = certify_gap(inst, idx, "analytic")
        assert cert.frac_cost == Fraction(1, 2)
        assert cert.ratio == 2
        assert "g < 2" in cert.gap_conclusion

    def test_frac_cost_is_t_eps_for_several_references(self, mini):
        for k, l in [({0, 1}, {2, 3}), ({4, 5}, {0, 2}), ({1, 3}, {0, 5})]:
            idx = CoreIndex.for_instance(mini, k, l)
            cert = certify_gap(mini, idx, "analytic")
            assert cert.frac_cost == 2 * Fraction(2, 5)

    def test_tiny_brute_force_matches_analytic(self, tiny):
        idx = CoreIndex.for_instance(tiny, {0}, {1})
        analytic = certify_gap(tiny, idx, "analytic")
        brute = certify_gap(tiny, idx, "brute-force")
        assert brute.opt_value == analytic.opt_value == 1
        assert brute.opt_provenance == "brute-force"
        assert brute.ratio == analytic.ratio == 2  # frac cost 1*eps = 1/2

    def test_unknown_mode_rejected(self, tiny):
        idx = CoreIndex.for_instance(tiny, {0}, {1})
        with pytest.raises(ValueError):
            certify_gap(tiny, idx, "sampled")

    def test_no_tiny_gap_cost_fits_at_zero(self, tiny):
        for idx in (CoreIndex.for_instance(tiny, {k}, {l}) for k in range(3) for l in range(3) if k != l):
            cost = build_gap_costs(tiny, idx)
            assert not cost.zero_cost_fits(tiny.capacity)
            assert brute_force_opt(tiny, cost)[0] == 1
            assert certify_gap(tiny, idx, "analytic").opt_value == 1

    def test_analytic_optimum_refused_when_a_cost_zero_solution_fits(self, tiny, monkeypatch):
        # no unit-cost facility: the near clients fit in k | l for free
        free = CostVector(3, 3, unit_opening=(), near_facilities={0, 1}, near_clients=range(3))
        assert free.zero_cost_fits(tiny.capacity)
        monkeypatch.setattr(certify_module, "build_gap_costs", lambda inst, idx: free)
        with pytest.raises(AssertionError, match="cost-0"):
            certify_gap(tiny, CoreIndex.for_instance(tiny, {0}, {1}), "analytic")

    def test_non_metric_costs_refused(self, tiny, monkeypatch, non_metric_cost):
        monkeypatch.setattr(certify_module, "build_gap_costs", lambda inst, idx: non_metric_cost)
        for mode in ("analytic", "brute-force"):
            with pytest.raises(AssertionError, match="quadrangle"):
                certify_gap(tiny, CoreIndex.for_instance(tiny, {0}, {1}), mode)


def per_client_witness(inst, core_index):
    """The witness assignment built one client at a time."""
    t, cap = inst.family_params.t, inst.capacity
    k_sorted = sorted(core_index.k)
    outside = sorted(set(inst.facilities) - core_index.k - core_index.l)
    core = inst.designated_clients
    assign = [0] * inst.client_count
    for pos, j in enumerate(core[: cap * t]):
        assign[j] = k_sorted[pos // cap]
    assign[core[-1]] = min(core_index.l)
    for pos, j in enumerate(inst.rest_clients):
        assign[j] = outside[pos % len(outside)]
    return frozenset(k_sorted) | {min(core_index.l)} | frozenset(outside), assign


def per_client_cost(cost, open_set, assign):
    return sum((cost.opening_of(i) for i in open_set), Fraction(0)) + sum(
        (cost.connection_of(int(i), j) for j, i in enumerate(assign)), Fraction(0)
    )


class TestAnalyticWitness:
    @pytest.mark.parametrize("name", ["family10", "mini", "tiny"])
    def test_equals_per_client_construction(self, request, name):
        inst = request.getfixturevalue(name)
        ref = reference_index(inst)
        witness = analytic_opt_witness(inst, ref)
        open_set, assign = per_client_witness(inst, ref)
        assert witness.open == open_set
        assert witness.assign.dtype == np.int64 and not witness.assign.flags.writeable
        assert witness.assign.tobytes() == np.array(assign, dtype=np.int64).tobytes()

    @pytest.mark.parametrize("name", ["family10", "mini", "tiny"])
    def test_two_point_cost_of_every_assignment_form(self, request, name):
        inst = request.getfixturevalue(name)
        ref = reference_index(inst)
        cost = build_gap_costs(inst, ref)
        witness = analytic_opt_witness(inst, ref)
        assign = witness.assign.tolist()
        expected = per_client_cost(cost, witness.open, assign)
        assert expected == 1
        for form in (assign, tuple(assign), np.array(assign, dtype=np.int64), witness.assign):
            value = cost.solution_cost(witness.open, form)
            assert value == expected and type(value) is Fraction

    def test_two_point_cost_rejects_non_assignments(self, mini):
        cost = build_gap_costs(mini, reference_index(mini))
        with pytest.raises(ValueError, match="shape"):
            cost.solution_cost(frozenset(), [0] * (mini.client_count - 1))
        for bad in (-1, mini.facility_count):
            with pytest.raises(ValueError, match="unknown facility"):
                cost.solution_cost(frozenset(), [bad] + [0] * (mini.client_count - 1))

    @pytest.mark.parametrize(
        "k,l,open_set,assign",
        [({0}, {1}, {0, 1}, [0, 0, 1]), ({1}, {2}, {0, 1}, [0, 1, 1]), ({2}, {0}, {0, 2}, [0, 0, 2])],
    )
    def test_tiny_brute_force_optimum_and_witness(self, tiny, k, l, open_set, assign):
        value, witness = brute_force_opt(tiny, build_gap_costs(tiny, CoreIndex.for_instance(tiny, k, l)))
        assert value == 1 and type(value) is Fraction
        assert witness.open == open_set and witness.assign.tolist() == assign

    def test_witness_cost_exactly_one(self, family10):
        idx = CoreIndex.for_instance(family10, range(10), range(10, 20))
        witness = analytic_opt_witness(family10, idx)
        cost = build_gap_costs(family10, idx)
        assert cost.solution_cost(witness.open, witness.assign) == 1

    def test_witness_feasible(self, mini, family10):
        for inst, k, l in [
            (mini, {0, 1}, {2, 3}),
            (family10, range(10), range(10, 20)),
        ]:
            idx = CoreIndex.for_instance(inst, k, l)
            witness = analytic_opt_witness(inst, idx)
            assert solution_violations(inst, witness) == []

    def test_opt_never_exceeds_witness_cost(self, tiny):
        idx = CoreIndex.for_instance(tiny, {0}, {1})
        witness = analytic_opt_witness(tiny, idx)
        cost = build_gap_costs(tiny, idx)
        witness_cost = cost.solution_cost(witness.open, witness.assign)
        opt, _ = brute_force_opt(tiny, cost)
        assert opt <= witness_cost

    def test_capacity_shortfall_reported(self):
        inst = build_general_instance(6, 2, 4, 17, Fraction(2, 5), Fraction(1, 8))
        idx_kwargs = dict(k={0, 1}, l={2, 3})
        with pytest.raises(ValueError, match="invalid"):
            # validate_params already rejects; the witness reports through it
            analytic_opt_witness(
                inst, CoreIndex.for_instance(inst, **idx_kwargs)
            )
