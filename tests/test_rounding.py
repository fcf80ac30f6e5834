import itertools
import json
import math
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cflgap.rounding as rounding
from cflgap.corevec import CoreIndex, collides, make_core_vector, midpoint
from cflgap.instance import build_family_instance, build_general_instance
from cflgap.io import solution_from_doc, solution_to_doc
from cflgap.randomness import ExactRng, cumulative_thresholds
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
from cflgap.rounding import _FloorCoin, _Part
from conftest import (block_draws, exact_distribution, one_row_chunk, outside_ids,
                      pool_order_draws, reference_open_set, run_ids, run_length,
                      shuffled_chunks, spoil_rows)


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

    def test_violations_name_unknown_and_closed_facilities(self, tiny):
        def violations(open_ids, assign):
            return solution_violations(
                tiny, IntSolution(open=frozenset(open_ids), assign=assign)
            )

        assert violations({0, 1}, (0, 1, 1)) == []
        for bad in ({0, 3}, {-1, 0}):
            assert violations(bad, (0, 0, 0)) == [
                "open set contains unknown facility ids",
                "capacity exceeded at [(0, 3)] (capacity 2)",
            ]
        assert violations({0}, (0, 0, 1)) == ["clients assigned to closed facilities [1]"]
        assert violations({0, 1}, (0, 3, 1)) == ["assignment targets unknown facility ids"]
        # range-checked before counting: no table of 10**12 entries
        for huge in (10**12, -(10**12)):
            assert violations({0, 1}, (0, huge, 1)) == ["assignment targets unknown facility ids"]

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


class TestCumulativeThresholds:
    def test_integer_thresholds_over_the_common_denominator(self):
        assert cumulative_thresholds([Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)]) == (
            6, (3, 5, 6)
        )

    @pytest.mark.parametrize("probs, total", [
        ([Fraction(3, 2), Fraction(-1, 2)], "1"),
        ([Fraction(1, 2), Fraction(0), Fraction(-1, 3), Fraction(5, 6)], "1"),
        ([Fraction(1, 2), Fraction(1, 3)], "5/6"),
        ([Fraction(2, 3), Fraction(2, 3)], "4/3"),
        ([], "0"),
    ], ids=["negative", "negative-zero-step", "below-one", "above-one", "empty"])
    def test_refusal_names_the_sum(self, probs, total):
        message = f"probabilities must be nonnegative and sum to 1, got {total}"
        with pytest.raises(ValueError) as info:
            cumulative_thresholds(probs)
        assert str(info.value) == message


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
        coin = _FloorCoin.of(w)
        branches = coin.branches(coin.den)  # probabilities as numerators over coin.den
        assert sum(p for _, p in branches) == coin.den
        assert sum(v * p for v, p in branches) == w * coin.den

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


class TestBatchedDraws:
    def test_integers_below_mixes_machine_and_wide_bounds(self):
        ns = np.array([1, 2**63, 2**63 + 1, 2**70 + 3] * 64, dtype=object)
        draws = ExactRng(17).integers_below(ns).tolist()
        assert all(type(d) is int and 0 <= d < n for d, n in zip(draws, ns.tolist()))
        assert draws == ExactRng(17).integers_below(ns).tolist()
        # the widest bound is drawn past 64 bits, not folded into them
        assert max(draws[3::4]) >= 2**64

    def test_integers_below_machine_ints(self):
        ns = np.array([1, 2, 3, 2**62, 2**63 - 1] * 64, dtype=np.int64)
        draws = ExactRng(5).integers_below(ns)
        assert draws.dtype == np.int64 and ((0 <= draws) & (draws < ns)).all()
        assert (draws == ExactRng(5).integers_below(ns)).all()
        with pytest.raises(ValueError):
            ExactRng(5).integers_below(np.array([2, 0]))

    def test_wide_slot_coin_reads_floor_or_floor_plus_one(self, mini):
        # every low-set facility's slot target becomes 2 + (about 1/2), over
        # a denominator above 2**63, drawn through the block sampler
        plan = compile_plan(mini, *mini_pair(mini))
        den = 2**64 + 13
        coin = _FloorCoin(2, den // 2, den)
        wide = rounding.RoundingPlan(mini, tuple(
            replace(exp, choice_slots=(coin,) * len(exp.choice_slots))
            for exp in plan.experiments
        ))
        slots = Counter()
        for chunk in rounding.sample_block(wide, ExactRng(9), 400):
            chosen = chunk.branches[:, 1:2]
            slots.update((chunk.counts * (chunk.facilities == chosen)).sum(axis=1).tolist())
        assert set(slots) == {2, 3}


# Draws 20 of 10**12 ids and 4 of 10**19 under a 2 GB address-space cap, so
# that a draw that builds every id fails with MemoryError, not an OOM kill.
CAPPED_CHOICE = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (2 * 10**9, 2 * 10**9))
from cflgap.randomness import ExactRng
print(ExactRng(1).chosen_positions(10**12, 20))
print(ExactRng(1).chosen_positions(10**19, 4))
"""


class TestChosenPositions:
    def test_huge_range_drawn_without_building_it(self):
        result = subprocess.run(
            [sys.executable, "-c", CAPPED_CHOICE], capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        for line, n, r in zip(result.stdout.splitlines(), (10**12, 10**19), (20, 4)):
            ids = json.loads(line)
            assert len(set(ids)) == r and all(0 <= i < n for i in ids)

    def test_mini_core_ids_uniform(self):
        # core --random takes k as the first t of 2t chosen ids and l as the
        # rest: over many seeds each of MINI's 6 ids lands in k, and in l,
        # with probability t/n_f = 1/3, inside a Bernstein band (failure 1e-9)
        seeds, n_f, t = 3000, 6, 2
        in_k, in_l = Counter(), Counter()
        for seed in range(seeds):
            ids = ExactRng(seed).chosen_positions(n_f, 2 * t)
            assert len(set(ids)) == 2 * t
            in_k.update(ids[:t])
            in_l.update(ids[t:])
        p = t / n_f
        log_term = math.log(2 / 1e-9)
        band = log_term / 3 + math.sqrt((log_term / 3) ** 2 + 2 * log_term * seeds * p * (1 - p))
        for counts in (in_k, in_l):
            assert set(counts) == set(range(n_f))
            assert all(abs(counts[i] - seeds * p) <= band for i in range(n_f)), counts

    def test_order_is_uniform(self):
        # the first of two chosen ids is the smaller one half the time
        seeds = 2000
        smaller_first = sum(
            int(np.less(*ExactRng(seed).chosen_positions(10**6, 2)))
            for seed in range(seeds)
        )
        assert abs(smaller_first - seeds / 2) <= 4 * math.sqrt(seeds / 4)


class TestSampler:
    def test_mini_samples_feasible(self, mini):
        plan = compile_plan(mini, *mini_pair(mini))
        rng = ExactRng(2024)
        for draw in block_draws(plan, rounding.sample_block(plan, rng, 2000), rng):
            assert solution_violations(mini, draw.solution) == []

    def test_t10_samples_feasible(self, family10):
        c1 = CoreIndex.for_instance(family10, range(10), range(10, 20))
        c2 = CoreIndex.for_instance(family10, range(20, 30), range(30, 40))
        plan = compile_plan(family10, c1, c2)
        rng = ExactRng(7)
        for draw in block_draws(plan, rounding.sample_block(plan, rng, 50), rng):
            assert solution_violations(family10, draw.solution) == []

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
        seen = set()
        rng = ExactRng(5)
        for draw in block_draws(plan, rounding.sample_block(plan, rng, 300), rng):
            counts = Counter(draw.solution.assign)
            if draw.experiment == "A" and draw.chosen_l_facility == 3:
                seen.add(counts[3])
        assert seen <= {2, 3} and seen


class TestBlockSampler:
    def test_mini_rows_feasible_keyed_as_the_block_and_in_band(self, mini):
        plan = compile_plan(mini, *mini_pair(mini))
        by_key = {cl.key: cl.probability for cl in enumerate_outcome_classes(plan)}
        n = 100_000
        rng = ExactRng(271828)
        chunks = list(rounding.sample_block(plan, rng, n))
        feasible, block_keys, examples = rounding.tally_draws(plan, iter(chunks), 5)
        assert (feasible, examples) == (n, [])
        row_keys = Counter()
        for draw in block_draws(plan, chunks, rng):
            assert solution_violations(mini, draw.solution) == []
            row_keys[outcome_class_key(plan, draw)] += 1
        assert row_keys == block_keys and set(block_keys) <= set(by_key)
        for key, p in by_key.items():
            pf = float(p)
            sigma = (pf * (1 - pf) / n) ** 0.5
            assert abs(block_keys[key] / n - pf) <= 4 * sigma, key

    @pytest.mark.parametrize(
        "fixture, pair", [("mini", mini_pair), ("family10", t10_pair)], ids=["mini", "t10"]
    )
    def test_open_sets_are_the_branches_open_sets(self, fixture, pair, request):
        # each open code's runs list the branch's open set, by set arithmetic
        # over the ids, and are the enumerator's open set for that branch
        # (a branch of probability zero, the closed pivot when t*eps = 1 as
        # at t=10, has no class)
        inst = request.getfixturevalue(fixture)
        plan = compile_plan(inst, *pair(inst))
        enumerated = {(cl.experiment, cl.chosen_l_facility, cl.extra_open): cl.open_facilities
                      for cl in enumerate_outcome_classes(plan)}
        open_sets = plan._tables.open_sets
        branches = []
        for e, exp in enumerate(plan.experiments):
            for choice, chosen in enumerate(exp.choice_set):
                for extra_open in (False, True):
                    runs = open_sets[(e * len(exp.choice_set) + choice) * 2 + extra_open]
                    assert run_ids(runs) == reference_open_set(inst, exp, chosen, extra_open)
                    branch = (exp.label, chosen, extra_open)
                    assert runs == enumerated.get(branch, runs)
                    branches.append(branch)
        assert len(open_sets) == len(branches) and set(enumerated) <= set(branches)

    def test_chunks_hold_a_bounded_number_of_rows(self, family10, mini, monkeypatch):
        # a run-form chunk holds 512 KB of loads (648 rows of 101 at t=10), a
        # whole number of the pieces draws() shuffles at once (three 160 KB
        # rows at t=10); MINI blocks are one chunk and one piece
        shuffled = []
        shuffle_rows = ExactRng.shuffle_rows

        def spy(self, rows):
            shuffled.append(len(rows))
            shuffle_rows(self, rows)

        monkeypatch.setattr(ExactRng, "shuffle_rows", spy)
        for inst, pair, count, sizes, pieces in (
            (family10, t10_pair, 2 * 648 + 1, [648, 648, 1], [3] * 432 + [1]),
            (mini, mini_pair, 1000, [1000], [1000]),
        ):
            plan = compile_plan(inst, *pair(inst))
            rng = ExactRng(1)
            chunks = list(rounding.sample_block(plan, rng, count))
            assert [len(chunk) for chunk in chunks] == sizes
            shuffled.clear()
            assert len(list(block_draws(plan, chunks, rng))) == count
            # each piece shuffles its designated, then its rest segment
            assert shuffled == [rows for rows in pieces for _ in range(2)]


@pytest.mark.parametrize("budget, count, sizes", [
    # pieces of three t=10 rows; 595 rows of loads, cut to 594
    pytest.param(481_000, 600, [594, 6], id="t10"),
    # pieces of four MINI rows; seven rows of loads, cut to four
    pytest.param(8 * 13 * 4, 30, [4] * 7 + [2], id="mini"),
])
def test_solution_rows_do_not_depend_on_the_run_chunks(
    family10, mini, monkeypatch, budget, count, sizes
):
    """A block's shuffled expansions, and its tally, are those of the same
    block held as one run-form chunk: pieces are cut at the same rows."""
    inst, pair = (family10, t10_pair) if count == 600 else (mini, mini_pair)
    monkeypatch.setattr(rounding, "_CHUNK_BYTES", budget)
    plan = compile_plan(inst, *pair(inst))
    rng, whole_rng = ExactRng(3), ExactRng(3)
    chunks = list(rounding.sample_block(plan, rng, count))
    assert [len(chunk) for chunk in chunks] == sizes
    list(rounding.sample_block(plan, whole_rng, count))  # the same decisions
    whole = replace(chunks[0], **{
        name: joined(chunks, name) for name in ("branches", "open_of", "facilities", "counts")
    })
    rows = zip(block_draws(plan, chunks, rng), whole.draws(plan, whole_rng), strict=True)
    assert all(draw == whole_draw for draw, whole_draw in rows)
    assert rounding.tally_draws(plan, iter(chunks), 5) == rounding.tally_draws(
        plan, iter([whole]), 5
    )


def both_orders(plan, seed, count):
    """The chunks of one seed's block, as their shuffled expansions (run
    forms of unit counts, one column per client) and as run forms."""
    rng = ExactRng(seed)
    runs = list(rounding.sample_block(plan, rng, count))
    return list(shuffled_chunks(plan, runs, rng)), runs


def joined(chunks, field):
    """One field of every chunk, rows concatenated in draw order."""
    return np.concatenate([getattr(chunk, field) for chunk in chunks])


def expanded(chunks):
    """Every row of the chunks as an assignment, in draw order."""
    return np.array([chunk.row(r) for chunk in chunks for r in range(len(chunk))])


def moved_chosen(plan, chunks, every):
    """The chunks, with every ``every``-th draw's chosen low facility's clients
    moved onto another low-set facility, which that draw keeps closed: every
    entry of the chosen id (one column of a draw's run form, each of its
    clients in a shuffled expansion)."""
    position = 0
    for chunk in chunks:
        branches = chunk.branches.copy()
        for r in range(-position % every, len(chunk), every):
            exp_index, chosen, _ = branches[r].tolist()
            low = plan._tables.choice_set[exp_index]
            branches[r, 1] = low[low != chosen][0]
        facilities = chunk.facilities
        facilities = np.where(facilities == chunk.branches[:, 1:2], branches[:, 1:2], facilities)
        position += len(chunk)
        yield replace(chunk, facilities=facilities)


def assert_same_draws_up_to_pool_order(plan, shuffled, runs):
    """Same decisions, the same clients per pool and the same facility loads;
    the run forms tally as the shuffled rows, also with rows spoiled."""
    n_core, n_f = len(plan.inst.designated_clients), plan.inst.facility_count
    assert all((chunk.counts == 1).all() for chunk in shuffled)
    for name in ("branches", "open_of"):
        assert np.array_equal(joined(shuffled, name), joined(runs, name)), name
    a, b = joined(shuffled, "facilities"), expanded(runs)
    for pool in (slice(None, n_core), slice(n_core, None)):
        assert np.array_equal(np.sort(a[:, pool], axis=1), np.sort(b[:, pool], axis=1))
    for row_a, row_b in zip(a, b):
        assert np.array_equal(np.bincount(row_a, minlength=n_f), np.bincount(row_b, minlength=n_f))
    tally = rounding.tally_draws(plan, iter(shuffled), 5)
    assert tally == rounding.tally_draws(plan, iter(runs), 5)
    assert tally[0] == len(a) and tally[2] == []
    spoiled = rounding.tally_draws(plan, moved_chosen(plan, shuffled, 3), 5)
    assert spoiled == rounding.tally_draws(plan, moved_chosen(plan, runs, 3), 5)
    assert spoiled[0] < len(a) and spoiled[2]


class TestPoolOrderRows:
    """``sample_block`` keeps every row in run form; expanded in pool order,
    they are the shuffled expansions up to the within-pool order."""

    @pytest.mark.parametrize("n", [1, 999, 2500])
    def test_mini_rows_are_the_shuffled_rows_up_to_pool_order(self, mini, n):
        plan = compile_plan(mini, *mini_pair(mini))
        shuffled, runs = both_orders(plan, 31, n)
        assert_same_draws_up_to_pool_order(plan, shuffled, runs)
        if n > 1:  # the rows differ, so the comparison is not vacuous
            assert not np.array_equal(joined(shuffled, "facilities"), expanded(runs))

    def test_t10_rows_are_the_shuffled_rows_up_to_pool_order(self, family10):
        # four rows: one run-form chunk, shuffled in a piece of three and a
        # piece of one; or four chunks with a budget of one row of loads
        plan = compile_plan(family10, *t10_pair(family10))
        shuffled, runs = both_orders(plan, 17, 4)
        assert len(shuffled) == len(runs) == 1
        assert_same_draws_up_to_pool_order(plan, shuffled, runs)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rounding, "_CHUNK_BYTES", 8 * (family10.facility_count + 1))
            runs = list(rounding.sample_block(plan, ExactRng(17), 4))
        assert len(runs) == 4
        assert_same_draws_up_to_pool_order(plan, shuffled, runs)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), count=st.integers(1, 400))
def test_pool_order_rows_tally_as_shuffled_rows(mini, seed, count):
    plan = compile_plan(mini, *mini_pair(mini))
    assert_same_draws_up_to_pool_order(plan, *both_orders(plan, seed, count))


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
            assert sum(cnt * (hi - lo) for lo, hi, cnt in cl.slot_profile) == 13
            assert all(cnt <= 4 for _, _, cnt in cl.slot_profile)
            assert {fac for lo, hi, _ in cl.slot_profile for fac in range(lo, hi)} <= run_ids(
                cl.open_facilities
            )

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
        freq = Counter()
        rng = ExactRng(31337)
        for draw in block_draws(plan, rounding.sample_block(plan, rng, n), rng):
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
        y_counts = np.zeros(6, dtype=np.int64)
        x_counts = np.zeros((6, 13), dtype=np.int64)
        cols = np.arange(13)
        rng = ExactRng(8675309)
        for draw in block_draws(plan, rounding.sample_block(plan, rng, n), rng):
            sol = draw.solution
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

    def test_1e12_facility_pair_certified_in_bounded_memory(self):
        # the plan, its classes and the expectation hold facility classes as
        # runs, so nothing grows with the facility count
        import tracemalloc

        inst = build_general_instance(10**12, 2, 4, 13, Fraction(2, 5), Fraction(1, 8))
        tracemalloc.start()
        try:
            cert = verify_midpoint(inst, *mini_pair(inst))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cert.valid and cert.class_count == 24
        assert peak < 2**20

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

    def test_many_facilities_mini_shape_valid(self):
        # `gen --general --nf 20000 --t 2 --U 4 --m 13 --eps 2/5 --xl 1/8`:
        # the outside bins hold 19,996 facilities, and each facility group
        # is keyed by (experiment, role), so the expectation stays linear
        # in the facility count
        inst = build_general_instance(
            20000, 2, 4, 13, Fraction(2, 5), Fraction(1, 8)
        )
        c1 = CoreIndex.for_instance(inst, {0, 1}, {2, 3})
        c2 = CoreIndex.for_instance(inst, {0, 1}, {4, 5})
        assert verify_midpoint(inst, c1, c2).valid

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
        # stays feasible, so only the expectation can notice.  The
        # certificate reads the classes per chosen group.
        exact = rounding.enumerate_grouped_classes
        calls = []

        def drifted(plan):
            calls.append(plan)
            classes = exact(plan)
            a = classes[0]
            b = next(c for c in classes if c.chosen_l_facility != a.chosen_l_facility)
            # class weights are integers over the plan's denominator
            delta = min(a.weight, b.weight) // 2
            assert delta > 0
            shift = {id(a): -delta, id(b): delta}
            return [
                replace(c, weight=c.weight + shift.get(id(c), 0))
                for c in classes
            ]

        monkeypatch.setattr(rounding, "enumerate_grouped_classes", drifted)
        cert = verify_midpoint(mini, *mini_pair(mini))
        assert len(calls) == 1
        assert cert.all_classes_feasible
        assert cert.probability_sum == 1
        assert cert.expectation_matches is False
        assert cert.valid is False

    def test_drifted_profile_invalidates_certificate(self, mini, monkeypatch):
        # move one client from a high-set facility to the chosen low facility
        # in one class; its served total stays and no count passes capacity,
        # so the class stays feasible and only the expectation can notice
        exact = rounding.enumerate_grouped_classes
        cap = mini.capacity

        def drifted(plan):
            classes = exact(plan)
            idx, cl = next(
                (idx, cl) for idx, cl in enumerate(classes)
                if cl.parts[0].entries and cl.parts[0].entries[0][1] < cap
                and cl.parts[1].entries
            )
            low, high, pivot, rest = cl.parts
            (((chosen, _), slots),) = low.entries
            ((lo, hi), cnt), *others = high.entries
            # facility lo of the high set gives one client to the chosen one
            moved_high = tuple(
                (run, n) for run, n in (((lo, lo + 1), cnt - 1), ((lo + 1, hi), cnt))
                if n and run[0] < run[1]
            )
            parts = (
                _Part((((chosen, chosen + 1), slots + 1),), low.served + 1, ()),
                _Part(moved_high + tuple(others), high.served - 1, ()),
                pivot,
                rest,
            )
            assert sum(part.served for part in parts) == mini.client_count
            classes[idx] = replace(cl, parts=parts)
            return classes

        monkeypatch.setattr(rounding, "enumerate_grouped_classes", drifted)
        cert = verify_midpoint(mini, *mini_pair(mini))
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


# The per-draw checks that tally_draws replaced, kept as references: a loop
# over one solution's ids and counts.
def reference_violations(inst, sol):
    out = []
    if len(sol.assign) != inst.client_count:
        out.append(
            f"assignment covers {len(sol.assign)} clients, instance has {inst.client_count}"
        )
        return out
    if sol.open and not (0 <= min(sol.open) and max(sol.open) < inst.facility_count):
        out.append("open set contains unknown facility ids")
    if inst.client_count == 0:
        return out
    ids = sol.assign.tolist()
    if min(ids) < 0 or max(ids) >= inst.facility_count:
        out.append("assignment targets unknown facility ids")
        return out
    counts = Counter(ids)
    used = sorted(counts)
    not_open = [i for i in used if i not in sol.open]
    if not_open:
        out.append(f"clients assigned to closed facilities {not_open}")
    over = [(i, counts[i]) for i in used if counts[i] > inst.capacity]
    if over:
        out.append(f"capacity exceeded at {over} (capacity {inst.capacity})")
    return out


def reference_key(plan, draw):
    exp = plan.experiments[0 if draw.experiment == "A" else 1]
    counts = np.bincount(draw.solution.assign, minlength=plan.inst.facility_count).tolist()
    profile = {}
    for fac in (draw.chosen_l_facility, exp.pivot_extra):
        if counts[fac]:
            profile[fac] = counts[fac]
    for group in (run_ids(exp.high), outside_ids(plan.inst, exp)):
        group_counts = sorted((counts[fac] for fac in group), reverse=True)
        for fac, cnt in zip(sorted(group), group_counts):
            if cnt:
                profile[fac] = cnt
    return (draw.experiment, draw.chosen_l_facility, draw.extra_open,
            run_length(sorted(profile.items())))


def spoiled_chunks(plan, seed, n, spoil_every=0, shuffled=True):
    """The block sampler's chunks of ``n`` draws of ``plan``, as their
    shuffled expansions (:func:`conftest.shuffled_chunks`) or as run forms;
    with ``spoil_every``, every such draw, as its assignment (in pool order
    for a run form), gets a client moved to a random id in
    [-2, facility_count + 2) or dropped, and becomes a chunk of its own."""
    spoil = np.random.default_rng(seed)
    n_f = plan.inst.facility_count

    def spoiled(draw):
        assign = draw.solution.assign.copy()
        if spoil.integers(4) == 0:
            assign = assign[:-1]
        else:
            assign[spoil.integers(len(assign))] = spoil.integers(-2, n_f + 2)
        return replace(draw, solution=IntSolution(draw.solution.open, assign))

    positions = range(spoil_every - 1, n, spoil_every) if spoil_every else ()
    rng = ExactRng(seed)
    chunks = rounding.sample_block(plan, rng, n)
    if shuffled:
        chunks = shuffled_chunks(plan, chunks, rng)
    return list(spoil_rows(plan, chunks, dict.fromkeys(positions, spoiled)))


def spoiled_runs(plan, seed, n, spoil_every):
    """The block sampler's run-form chunks of ``n`` draws of ``plan``, every
    ``spoil_every``-th draw spoiled in its run form, in turn: a nonzero count
    moved to an unknown id, a count moved onto a closed facility, a count
    raised above capacity (from the row's other counts) and one count off
    by one.  Every third other row with a zero count gets an unknown id on
    it, which leaves the row countable."""
    spoil = np.random.default_rng(seed)
    n_f, capacity = plan.inst.facility_count, plan.inst.capacity
    unknown = [-3, -1, n_f, n_f + 3, 2**40, 2**62]
    chunks, position, spoiled = [], 0, 0
    for chunk in rounding.sample_block(plan, ExactRng(seed), n):
        facilities, counts = chunk.facilities.copy(), chunk.counts.copy()
        for r, (ids, row) in enumerate(zip(facilities, counts), start=position):
            nonzero, zero = np.flatnonzero(row), np.flatnonzero(row == 0)
            if (r + 1) % spoil_every:
                if r % 3 == 0 and len(zero):
                    ids[spoil.choice(zero)] = spoil.choice(unknown)
                continue
            kind, spoiled = spoiled % 4, spoiled + 1
            if kind == 0:
                ids[spoil.choice(nonzero)] = spoil.choice(unknown)
            elif kind == 1:
                open_set = run_ids(chunk.open_sets[chunk.open_of[r - position]])
                closed = sorted(set(range(n_f)) - open_set)
                ids[spoil.choice(nonzero)] = spoil.choice(closed)
            elif kind == 2:
                top = row.argmax()
                for e in nonzero[nonzero != top]:
                    moved = min(row[e], capacity + 1 - row[top])
                    row[e] -= moved
                    row[top] += moved
            elif spoil.integers(2):
                row[spoil.integers(len(row))] += 1
            else:
                row[spoil.choice(nonzero)] -= 1
        chunks.append(replace(chunk, facilities=facilities, counts=counts))
        position += len(chunk)
    return chunks


def expected_tally(plan, draws, max_examples):
    feasible, freq, examples = 0, Counter(), []
    for position, draw in enumerate(draws):
        violations = reference_violations(plan.inst, draw.solution)
        if violations:
            if len(examples) < max_examples:
                examples.append((position, violations))
        else:
            feasible += 1
        assign = draw.solution.assign
        if len(assign) == plan.inst.client_count and (
            len(assign) == 0 or 0 <= assign.min() <= assign.max() < plan.inst.facility_count
        ):
            freq[reference_key(plan, draw)] += 1
    return feasible, freq, examples


class TestDrawTally:
    @pytest.mark.parametrize("n", [1, 999, 1001, 2500])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_mini_class_counts_match_per_draw_keys(self, mini, seed, n):
        plan = compile_plan(mini, *mini_pair(mini))
        chunks = spoiled_chunks(plan, seed, n)
        draws = list(pool_order_draws(plan, chunks))
        expected = Counter(reference_key(plan, draw) for draw in draws)
        assert Counter(outcome_class_key(plan, draw) for draw in draws) == expected
        assert rounding.tally_draws(plan, iter(chunks), 5) == (n, expected, [])

    # one seed per n: a t=10 draw costs about 0.5 ms
    @pytest.mark.parametrize("seed, n", [(1, 1), (2, 999), (3, 1001), (4, 2500)])
    def test_t10_class_counts_match_per_draw_keys(self, family10, seed, n):
        # t=10 assignments are 20,000 long, so each chunk's shuffled
        # expansion is keyed on the chunk's way into the tally, not held
        plan = compile_plan(family10, *t10_pair(family10))
        expected = Counter()
        rng = ExactRng(seed)

        def keyed(chunks):
            for chunk in chunks:
                for draw in chunk.draws(plan, rng):
                    expected[reference_key(plan, draw)] += 1
                yield chunk

        tally = rounding.tally_draws(plan, keyed(rounding.sample_block(plan, rng, n)), 5)
        assert tally == (n, expected, [])

    @pytest.mark.parametrize("table_rows, form", [
        pytest.param(table_rows, form, id=f"{table_rows}{form}")
        for table_rows in (1, 7, 1000) for form in ("", "-pool-order", "-runs")
    ])
    def test_spoiled_draws_match_per_draw_checks_in_any_chunking(
        self, mini, monkeypatch, table_rows, form
    ):
        # chunks of table_rows MINI draws (a budget of table_rows pieces of
        # 13 clients), keyed table_rows at a time: shuffled expansions, or
        # run forms whose spoiled draws are expanded to one-row chunks in
        # pool order ("-pool-order") or spoiled in place ("-runs")
        monkeypatch.setattr(rounding, "_CHUNK_BYTES", 8 * 13 * table_rows)
        monkeypatch.setattr(rounding, "_LOAD_TABLE_BYTES", 8 * 6 * table_rows)
        plan = compile_plan(mini, *mini_pair(mini))
        if form == "-runs":
            chunks = spoiled_runs(plan, 4, 600, spoil_every=9)
            assert max(map(len, chunks)) == min(table_rows, 600)
        else:
            chunks = spoiled_chunks(plan, 4, 600, spoil_every=9, shuffled=not form)
        draws = list(pool_order_draws(plan, chunks))
        tally = rounding.tally_draws(plan, iter(chunks), 40)
        assert tally == expected_tally(plan, draws, 40)
        assert 0 < tally[0] < len(draws) and len(tally[2]) == 40

    @pytest.mark.parametrize("unknown", [-1, "n_f", 2**70])
    def test_open_set_with_an_unknown_id_tallies_as_infeasible(self, mini, unknown):
        # the row's loads fit its open set, but no row fits an open set with
        # an id outside [0, n_f); the row is still keyed
        plan = compile_plan(mini, *mini_pair(mini))
        draw = sample_outcome(plan, ExactRng(3))
        unknown = mini.facility_count if unknown == "n_f" else unknown
        solution = IntSolution(draw.solution.open | {unknown}, draw.solution.assign)
        chunk = one_row_chunk(plan, replace(draw, solution=solution))
        feasible, freq, examples = rounding.tally_draws(plan, [chunk], 5)
        assert (feasible, examples) == (0, [(0, ["open set contains unknown facility ids"])])
        assert freq == Counter([outcome_class_key(plan, draw)])

    def test_wide_instance_holds_a_bounded_table(self):
        # `gen --general --nf 20000 --t 2 --U 4 --m 13 --eps 2/5 --xl 1/8`: a
        # table of 1,000 rows would take 160 MB, so rows are tallied in chunks
        import tracemalloc

        inst = build_general_instance(20000, 2, 4, 13, Fraction(2, 5), Fraction(1, 8))
        plan = compile_plan(
            inst,
            CoreIndex.for_instance(inst, {0, 1}, {2, 3}),
            CoreIndex.for_instance(inst, {0, 1}, {4, 5}),
        )
        chunks = spoiled_chunks(plan, 6, 120, spoil_every=30)
        draws = list(pool_order_draws(plan, chunks))
        tracemalloc.start()
        try:
            tally = rounding.tally_draws(plan, iter(chunks), 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tally == expected_tally(plan, draws, 5)
        assert peak < 48 * 2**20

    def test_wide_instance_holds_a_bounded_table_of_run_forms(self):
        # the same instance, count-only: run-form chunks of three rows
        # (480 KB of loads each), four of their draws spoiled in place
        import tracemalloc

        inst = build_general_instance(20000, 2, 4, 13, Fraction(2, 5), Fraction(1, 8))
        plan = compile_plan(
            inst,
            CoreIndex.for_instance(inst, {0, 1}, {2, 3}),
            CoreIndex.for_instance(inst, {0, 1}, {4, 5}),
        )
        chunks = spoiled_runs(plan, 6, 120, spoil_every=30)
        assert all(len(chunk) <= 3 for chunk in chunks)
        draws = list(pool_order_draws(plan, chunks))
        tracemalloc.start()
        try:
            tally = rounding.tally_draws(plan, iter(chunks), 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tally == expected_tally(plan, draws, 5)
        assert tally[0] == 116 and len(tally[2]) == 4
        assert peak < 48 * 2**20


def run_form(data, ids, width, client_count):
    """A run-form row: ``width`` ids drawn from ``ids``, whose counts split
    ``client_count`` or one more or one less (some counts 0)."""
    row_ids = data.draw(st.lists(ids, min_size=width, max_size=width))
    total = max(0, client_count + data.draw(st.sampled_from([-1, 0, 0, 1])))
    cuts = sorted(data.draw(st.lists(st.integers(0, total), min_size=width - 1,
                                     max_size=width - 1)))
    return row_ids, np.diff([0, *cuts, total]).tolist()


@settings(derandomize=True, max_examples=120, deadline=None)
@given(data=st.data())
def test_row_loads_count_runs_and_shuffled_rows_as_a_per_row_counter(data):
    """Random run forms, and the assignments they expand to (in order,
    row-shuffled and one row at a time), are counted as a per-row Counter of
    ``np.repeat(ids, counts)``: only a row of the client count that gives
    no unknown id a client is counted."""
    n_f, client_count = data.draw(st.integers(1, 8)), data.draw(st.integers(0, 40))
    # known ids, which can recur, or any, with unknown ones near and far
    ids = st.integers(0, n_f - 1) | st.integers(-3, n_f + 3) | st.sampled_from([2**40, 2**62])
    width, rows = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 4))
    forms = [run_form(data, ids, width, client_count) for _ in range(rows)]
    chunk_ids = np.array([row_ids for row_ids, _ in forms], dtype=np.int64)
    counts = np.array([row_counts for _, row_counts in forms], dtype=np.int64)
    if data.draw(st.booleans()):  # an unknown id with no client counts nothing
        unknown = data.draw(st.sampled_from([-1, n_f, 2**62]))
        chunk_ids = np.column_stack((chunk_ids, np.full(rows, unknown)))
        counts = np.column_stack((counts, np.zeros(rows, dtype=np.int64)))
    inst = SimpleNamespace(facility_count=n_f, client_count=client_count)
    assigns = [np.repeat(row_ids, row_counts) for row_ids, row_counts in zip(chunk_ids, counts)]
    expected = []
    for assign in assigns:
        c = Counter(assign.tolist())
        countable = len(assign) == client_count and all(0 <= i < n_f for i in c)
        expected.append((countable, [c[i] for i in range(n_f)] if countable else None))

    def check(got, want):
        counted, loads = got
        assert loads.shape == (len(want), n_f) and loads.dtype == np.int64
        assert counted.tolist() == [countable for countable, _ in want]
        for row_loads, (countable, loads_want) in zip(loads, want):
            if countable:
                assert row_loads.tolist() == loads_want

    check(rounding._row_loads(inst, chunk_ids, counts), expected)
    shuffle = np.random.default_rng(data.draw(st.integers(0, 2**32)))
    for length in {len(assign) for assign in assigns}:
        at = [r for r, assign in enumerate(assigns) if len(assign) == length]
        chunk = np.array([assigns[r] for r in at], dtype=np.int64).reshape(len(at), length)
        for form in (chunk, shuffle.permuted(chunk, axis=1)):
            check(rounding._row_loads(inst, form), [expected[r] for r in at])
            for i, r in enumerate(at):
                check(rounding._row_loads(inst, form[i:i + 1]), [expected[r]])
                check(rounding._row_loads(inst, chunk_ids[r:r + 1], counts[r:r + 1]),
                      [expected[r]])


@pytest.mark.parametrize("spoil", [
    lambda ids, n_f: [n_f, *ids[1:]],
    lambda ids, n_f: [-1, *ids[1:]],
    lambda ids, n_f: [2**40, *ids[1:]],
    lambda ids, n_f: [2**62, *ids[1:]],
    lambda ids, n_f: ids[:-1],
    lambda ids, n_f: [*ids, ids[0]],
], ids=["id-n_f", "id-minus-1", "id-2**40", "id-2**62", "n_c-1-clients", "n_c+1-clients"])
def test_uncountable_draw_has_no_key_and_the_tally_agrees(mini, spoil):
    plan = compile_plan(mini, *mini_pair(mini))
    draw = sample_outcome(plan, ExactRng(5))
    sol = IntSolution(
        draw.solution.open, spoil(draw.solution.assign.tolist(), mini.facility_count)
    )
    draw = replace(draw, solution=sol)
    assert outcome_class_key(plan, draw) is None
    feasible, freq, examples = rounding.tally_draws(plan, iter([one_row_chunk(plan, draw)]), 1)
    assert (feasible, freq) == (0, Counter())
    assert examples == [(0, solution_violations(mini, sol))]


@settings(derandomize=True, max_examples=120, deadline=None)
@given(data=st.data())
def test_load_core_and_prelude_give_the_reference_violations(mini, data):
    """Random assignments and open sets around the MINI shape, counted or not;
    an open set may hold an id beyond int64."""
    n_f, n_c = mini.facility_count, mini.client_count
    length = data.draw(st.sampled_from([n_c - 1, n_c, n_c, n_c, n_c + 1]))
    ids = st.integers(0, n_f - 1) | st.integers(-2, n_f + 1) | st.sampled_from([10**12])
    sol = IntSolution(
        open=frozenset(data.draw(
            st.sets(st.integers(-1, n_f) | st.just(2**64), max_size=n_f + 2)
        )),
        assign=data.draw(st.lists(ids, min_size=length, max_size=length)),
    )
    expected = reference_violations(mini, sol)
    assert solution_violations(mini, sol) == expected
    plan = compile_plan(mini, *mini_pair(mini))
    draw = rounding.SampleDraw(sol, "A", 2, False)
    feasible, _, examples = rounding.tally_draws(plan, iter([one_row_chunk(plan, draw)]), 1)
    assert (feasible, examples) == ((1, []) if not expected else (0, [(0, expected)]))
