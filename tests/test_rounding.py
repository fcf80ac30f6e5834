import itertools
import json
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import cflgap.rounding as rounding
from cflgap.corevec import CoreIndex, collides, make_core_vector, midpoint
from cflgap.instance import build_family_instance
from cflgap.io import solution_from_doc, solution_to_doc
from cflgap.randomness import ExactRng
from cflgap.rounding import (
    IntSolution,
    NonCollidingPairError,
    compile_plan,
    enumerate_outcome_classes,
    expected_vector,
    outcome_class_key,
    pivot_facilities,
    round_slots,
    sample_outcome,
    solution_violations,
    split_slots,
    verify_midpoint,
)
from cflgap.rounding import _FloorCoin
from conftest import exact_distribution


def mini_pair(mini):
    c1 = CoreIndex.for_instance(mini, {0, 1}, {2, 3})
    c2 = CoreIndex.for_instance(mini, {0, 1}, {4, 5})
    assert collides(c1, c2)
    return c1, c2


class TestPivotFacilities:
    def test_full_l_free(self, family10):
        c1 = CoreIndex.for_instance(family10, range(10), range(10, 20))
        c2 = CoreIndex.for_instance(family10, range(10), range(20, 30))
        assert pivot_facilities(c1, c2) == (10, 20)

    def test_partial_overlap(self, family10):
        c1 = CoreIndex.for_instance(family10, range(10), range(10, 20))
        c2 = CoreIndex.for_instance(family10, range(30, 40), set(range(10, 19)) | {20})
        f, g = pivot_facilities(c1, c2)
        assert f == 19
        assert g == 20

    def test_non_colliding_pair(self, family10):
        c1 = CoreIndex.for_instance(family10, range(10), range(10, 20))
        c2 = CoreIndex.for_instance(
            family10, range(30, 40), {0, 1, 2, 3, 4, 10, 11, 12, 13, 14}
        )
        with pytest.raises(NonCollidingPairError, match="no pivot exists"):
            pivot_facilities(c1, c2)


def t10_pair(family10):
    """The acceptance-2 pair at t=10."""
    c1 = CoreIndex.for_instance(family10, range(10), range(10, 20))
    c2 = CoreIndex.for_instance(family10, range(20, 30), range(30, 40))
    return c1, c2


class TestIntSolution:
    def test_tuple_and_array_built_compare_and_hash_equal(self):
        a = IntSolution(open=frozenset({0, 2}), assign=(0, 2, 2))
        b = IntSolution(open=frozenset({0, 2}), assign=np.array([0, 2, 2]))
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != IntSolution(open=frozenset({0, 2}), assign=(2, 2, 0))
        assert a != IntSolution(open=frozenset({0, 1, 2}), assign=(0, 2, 2))

    def test_assign_is_read_only_int64(self):
        source = np.array([0, 1], dtype=np.int32)
        sol = IntSolution(open=frozenset({0, 1}), assign=source)
        assert sol.assign.dtype == np.int64
        with pytest.raises(ValueError):
            sol.assign[0] = 1
        source[0] = 1  # the solution holds its own copy
        assert sol.assign.tolist() == [0, 1]

    def test_read_only_int64_array_kept_without_copy(self):
        arr = np.array([1, 0], dtype=np.int64)
        arr.setflags(write=False)
        assert IntSolution(open=frozenset({0, 1}), assign=arr).assign is arr

    def test_sampled_solution_round_trips_through_plain_int_doc(self, mini):
        sol = sample_outcome(compile_plan(mini, *mini_pair(mini)), ExactRng(3)).solution
        doc = solution_to_doc(sol, seed=3)
        assert all(type(i) is int for i in doc["open"] + doc["assign"])
        assert json.loads(json.dumps(doc)) == doc
        assert solution_from_doc(doc) == sol


class TestPlanThresholds:
    @pytest.mark.parametrize(
        "fixture, pair", [("mini", mini_pair), ("family10", t10_pair)], ids=["mini", "t10"]
    )
    def test_thresholds_match_exact_probabilities(self, fixture, pair, request):
        # the sampler's integer thresholds and coins against the probabilities
        # and slot targets of the construction
        inst = request.getfixturevalue(fixture)
        plan = compile_plan(inst, *pair(inst))
        for exp, choices, p_extra, w_extra in exact_distribution(plan):
            den, cum = exp.choice_denominator, exp.choice_thresholds
            assert cum[-1] == den
            steps = [hi - lo for lo, hi in zip((0,) + cum, cum)]
            assert [Fraction(s, den) for s in steps] == [p for p, _ in choices]
            assert len(exp.choice_slots) == len(choices)
            coins = [(coin, w) for coin, (_, w) in zip(exp.choice_slots, choices)]
            coins += [(exp.extra_coin, p_extra), (exp.extra_slots, w_extra)]
            for coin, exact in coins:
                assert 0 <= coin.num < coin.den
                assert coin.floor + Fraction(coin.num, coin.den) == exact


class TestRoundSlots:
    def test_integer_input_is_deterministic(self):
        rng = ExactRng(1)
        assert all(round_slots(Fraction(5), rng) == 5 for _ in range(20))

    def test_nine_quarters_values_and_frequency(self):
        rng = ExactRng(42)
        draws = Counter(round_slots(Fraction(9, 4), rng) for _ in range(8000))
        assert set(draws) == {2, 3}
        # P[3] = 1/4; 4 sigma band at n = 8000
        assert abs(draws[3] / 8000 - 0.25) < 4 * (0.25 * 0.75 / 8000) ** 0.5

    @pytest.mark.parametrize(
        "w", [Fraction(9, 4), Fraction(0), Fraction(45, 16), Fraction(7, 1), Fraction(1, 3)]
    )
    def test_expectation_preserved_by_branch_enumeration(self, w):
        branches = _FloorCoin.of(w).branches()
        assert sum(p for _, p in branches) == 1
        assert sum(v * p for v, p in branches) == w

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            round_slots(Fraction(-1, 2), ExactRng(0))


class TestSplitSlots:
    def test_exact_division(self):
        counts = split_slots(9, [4, 5, 6], Fraction(3), ExactRng(3))
        assert counts == [3, 3, 3]

    def test_uneven_split_both_assignments(self):
        rng = ExactRng(11)
        seen = Counter()
        for _ in range(4000):
            counts = split_slots(7, [0, 1], Fraction(7, 2), rng)
            assert sorted(counts) == [3, 4]
            seen[tuple(counts)] += 1
        # each bin gets the ceil with probability 1/2
        assert abs(seen[(4, 3)] / 4000 - 0.5) < 4 * (0.25 / 4000) ** 0.5

    def test_per_bin_expectation_exact(self):
        # n_bins * frac(avg) bins at ceil, uniformly placed => E[count] = avg
        total, bins, avg = 7, [0, 1], Fraction(7, 2)
        extra = total - (avg.numerator // avg.denominator) * len(bins)
        assert Fraction(extra, len(bins)) == avg - avg.numerator // avg.denominator

    def test_inconsistent_total_rejected(self):
        with pytest.raises(ValueError):
            split_slots(8, [0, 1], Fraction(7, 2), ExactRng(0))

    def test_empty_bins_with_zero_total(self):
        assert split_slots(0, [], Fraction(0), ExactRng(0)) == []


class TestSampler:
    def test_mini_samples_feasible(self, mini):
        plan = compile_plan(mini, *mini_pair(mini))
        rng = ExactRng(2024)
        for _ in range(2000):
            sol = sample_outcome(plan, rng).solution
            assert solution_violations(mini, sol) == []

    def test_t10_samples_feasible(self, family10):
        c1 = CoreIndex.for_instance(family10, range(10), range(10, 20))
        c2 = CoreIndex.for_instance(family10, range(20, 30), range(30, 40))
        plan = compile_plan(family10, c1, c2)
        rng = ExactRng(7)
        for _ in range(50):
            sol = sample_outcome(plan, rng).solution
            assert solution_violations(family10, sol) == []

    def test_seed_determinism(self, mini):
        plan = compile_plan(mini, *mini_pair(mini))
        a = [sample_outcome(plan, ExactRng(99)).solution for _ in range(1)][0]
        b = [sample_outcome(plan, ExactRng(99)).solution for _ in range(1)][0]
        assert a == b

    def test_non_colliding_rejected(self, family10):
        c1 = CoreIndex.for_instance(family10, range(10), range(10, 20))
        c2 = CoreIndex.for_instance(
            family10, range(30, 40), {0, 1, 2, 3, 4, 10, 11, 12, 13, 14}
        )
        with pytest.raises(NonCollidingPairError):
            compile_plan(family10, c1, c2)

    def test_invalid_instance_rejected(self, mini):
        from cflgap.instance import build_family_instance

        bad = build_family_instance(4, 2)
        c1 = CoreIndex.for_instance(bad, range(4), range(4, 8))
        c2 = CoreIndex.for_instance(bad, range(8, 12), range(12, 16))
        with pytest.raises(ValueError, match="invalid"):
            compile_plan(bad, c1, c2)

    def test_mini_step1_slot_values(self, mini):
        # w for a non-pivot low facility is 45/16: rounded to 2 or 3, both <= 4
        plan = compile_plan(mini, *mini_pair(mini))
        rng = ExactRng(5)
        seen = set()
        for _ in range(300):
            draw = sample_outcome(plan, rng)
            counts = Counter(draw.solution.assign)
            if draw.experiment == "A" and draw.chosen_l_facility == 3:
                seen.add(counts[3])
        assert seen <= {2, 3} and seen


class TestExpectedVector:
    def test_pivot_opening_t10(self, family10):
        c1 = CoreIndex.for_instance(family10, range(10), range(10, 20))
        c2 = CoreIndex.for_instance(family10, range(20, 30), range(30, 40))
        f, g = pivot_facilities(c1, c2)
        plan = compile_plan(family10, c1, c2)
        ev = expected_vector(plan, enumerate_outcome_classes(plan))
        assert ev.y_of(f) == Fraction(11, 20)
        assert ev.y_of(g) == Fraction(11, 20)

    def test_untouched_facilities_fully_open(self, family10):
        c1 = CoreIndex.for_instance(family10, range(10), range(10, 20))
        c2 = CoreIndex.for_instance(family10, range(20, 30), range(30, 40))
        plan = compile_plan(family10, c1, c2)
        ev = expected_vector(plan, enumerate_outcome_classes(plan))
        assert ev.y_of(99) == 1

    def test_equals_midpoint_every_coordinate_mini(self, mini):
        c1, c2 = mini_pair(mini)
        plan = compile_plan(mini, c1, c2)
        ev = expected_vector(plan, enumerate_outcome_classes(plan))
        mid = midpoint(
            make_core_vector(mini, c1.k, c1.l), make_core_vector(mini, c2.k, c2.l)
        )
        for i in range(6):
            assert ev.y_of(i) == mid.y_of(i), f"y mismatch at {i}"
            for j in range(13):
                assert ev.x_of(i, j) == mid.x_of(i, j), f"x mismatch at ({i},{j})"

    def test_equals_midpoint_all_mini_colliding_pairs(self, mini):
        idx = [
            CoreIndex.for_instance(mini, k, l)
            for k in itertools.combinations(range(6), 2)
            for l in itertools.combinations(sorted(set(range(6)) - set(k)), 2)
        ]
        pairs = [
            (a, b) for a, b in itertools.combinations(idx, 2) if collides(a, b)
        ]
        assert pairs
        for a, b in pairs:
            plan = compile_plan(mini, a, b)
            ev = expected_vector(plan, enumerate_outcome_classes(plan))
            mid = midpoint(
                make_core_vector(mini, a.k, a.l), make_core_vector(mini, b.k, b.l)
            )
            assert ev.equals(mid)


class TestOutcomeClasses:
    def test_probabilities_sum_to_one_mini(self, mini):
        classes = enumerate_outcome_classes(compile_plan(mini, *mini_pair(mini)))
        assert sum(c.probability for c in classes) == 1

    def test_all_feasible_and_cover_clients_mini(self, mini):
        for cl in enumerate_outcome_classes(compile_plan(mini, *mini_pair(mini))):
            assert cl.feasible
            assert sum(cnt for _, cnt in cl.slot_profile) == 13
            assert all(cnt <= 4 for _, cnt in cl.slot_profile)
            assert {fac for fac, _ in cl.slot_profile} <= cl.open_facilities

    def test_t10_extra_always_open(self, family10):
        # t*eps = 1: the closed-pivot branch has probability 0 and is pruned
        c1 = CoreIndex.for_instance(family10, range(10), range(10, 20))
        c2 = CoreIndex.for_instance(family10, range(20, 30), range(30, 40))
        classes = enumerate_outcome_classes(compile_plan(family10, c1, c2))
        assert all(cl.extra_open for cl in classes)
        assert sum(cl.probability for cl in classes) == 1
        assert all(cl.feasible for cl in classes)

    def test_sampler_frequencies_match_probabilities(self, mini):
        plan = compile_plan(mini, *mini_pair(mini))
        classes = enumerate_outcome_classes(plan)
        by_key = {cl.key: cl.probability for cl in classes}
        n = 20000
        rng = ExactRng(31337)
        freq = Counter()
        for _ in range(n):
            draw = sample_outcome(plan, rng)
            key = outcome_class_key(plan, draw)
            assert key in by_key, f"sampled class {key} not enumerated"
            freq[key] += 1
        for key, p in by_key.items():
            pf = float(p)
            sigma = (pf * (1 - pf) / n) ** 0.5
            assert abs(freq[key] / n - pf) <= 4 * sigma, (
                f"class {key}: observed {freq[key] / n}, expected {pf}"
            )


class TestEmpiricalMean:
    def test_sampled_coordinate_means_near_midpoint(self, mini):
        # 10^5 draws; probe 1000 random coordinates: >= 99% of probes must
        # sit within 4 standard errors of the exact midpoint value, and
        # zero-variance coordinates must match exactly
        import numpy as np

        c1, c2 = mini_pair(mini)
        plan = compile_plan(mini, c1, c2)
        n = 100_000
        rng = ExactRng(8675309)
        y_counts = np.zeros(6, dtype=np.int64)
        x_counts = np.zeros((6, 13), dtype=np.int64)
        cols = np.arange(13)
        for _ in range(n):
            sol = sample_outcome(plan, rng).solution
            for i in sol.open:
                y_counts[i] += 1
            x_counts[np.asarray(sol.assign), cols] += 1

        mid = midpoint(
            make_core_vector(mini, c1.k, c1.l), make_core_vector(mini, c2.k, c2.l)
        )
        probe = ExactRng(99)
        ok = 0
        total = 1000
        for _ in range(total):
            coord = probe.integer_below(6 + 6 * 13)
            if coord < 6:
                p = float(mid.y_of(coord))
                mean = y_counts[coord] / n
            else:
                i, j = divmod(coord - 6, 13)
                p = float(mid.x_of(i, j))
                mean = x_counts[i, j] / n
            if abs(mean - p) <= 4 * (p * (1 - p) / n) ** 0.5:
                ok += 1
        assert ok >= 0.99 * total, f"only {ok}/{total} probes within 4 SE"


class TestVerifyMidpoint:
    def test_mini_pair_valid(self, mini):
        c1, c2 = mini_pair(mini)
        cert = verify_midpoint(mini, c1, c2)
        assert cert.expectation_matches
        assert cert.all_classes_feasible
        assert cert.probability_sum == 1
        assert cert.valid

    def test_t10_random_pair_valid(self, family10):
        import random

        r = random.Random(4)
        ids = r.sample(range(100), 20)
        jds = r.sample(range(100), 20)
        c1 = CoreIndex.for_instance(family10, ids[:10], ids[10:])
        c2 = CoreIndex.for_instance(family10, jds[:10], jds[10:])
        assert collides(c1, c2)
        cert = verify_midpoint(family10, c1, c2)
        assert cert.valid

    def test_t20_random_pair_valid(self):
        # 400 facilities and 320,000 clients, the paper's lemma beyond t=10;
        # every client class of the vectors compared is one id run
        import random

        family20 = build_family_instance(t=20, a=2)
        r = random.Random(20)
        ids, jds = r.sample(range(400), 40), r.sample(range(400), 40)
        c1 = CoreIndex.for_instance(family20, ids[:20], ids[20:])
        c2 = CoreIndex.for_instance(family20, jds[:20], jds[20:])
        assert collides(c1, c2)
        cert = verify_midpoint(family20, c1, c2)
        assert cert.expectation_matches and cert.all_classes_feasible
        assert cert.probability_sum == 1 and cert.valid

    def test_non_colliding_rejected(self, family10):
        c1 = CoreIndex.for_instance(family10, range(10), range(10, 20))
        c2 = CoreIndex.for_instance(
            family10, range(30, 40), {0, 1, 2, 3, 4, 10, 11, 12, 13, 14}
        )
        with pytest.raises(NonCollidingPairError):
            verify_midpoint(family10, c1, c2)

    def test_drifted_class_weights_invalidate_certificate(self, mini, monkeypatch):
        # move probability mass between two feasible classes that open
        # different low facilities; the sum stays exactly 1 and every class
        # stays feasible, so only the expectation can notice
        exact = rounding.enumerate_outcome_classes
        calls = []

        def drifted(plan):
            calls.append(plan)
            classes = exact(plan)
            a = classes[0]
            b = next(c for c in classes if c.chosen_l_facility != a.chosen_l_facility)
            delta = min(a.probability, b.probability) / 2
            shift = {id(a): -delta, id(b): delta}
            return [
                replace(c, probability=c.probability + shift.get(id(c), 0))
                for c in classes
            ]

        monkeypatch.setattr(rounding, "enumerate_outcome_classes", drifted)
        cert = verify_midpoint(mini, *mini_pair(mini))
        assert len(calls) == 1
        assert cert.all_classes_feasible
        assert cert.probability_sum == 1
        assert cert.expectation_matches is False
        assert cert.valid is False

    def test_tiny_instance_pairs_valid(self, tiny):
        idx = [
            CoreIndex.for_instance(tiny, {a}, {b})
            for a in range(3)
            for b in range(3)
            if a != b
        ]
        pairs = [(a, b) for a, b in itertools.combinations(idx, 2) if collides(a, b)]
        assert pairs
        for a, b in pairs:
            assert verify_midpoint(tiny, a, b).valid
