"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every assertion is an
exact rational identity unless the criterion itself states a statistical
band (4 standard errors on empirical frequencies).
"""

import itertools
import random
import subprocess
import sys
import time
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction

from cflgap.certify import (
    certify_gap,
    core_size,
    lower_bound_constraints,
    noncolliding_count_brute,
    noncolliding_count_exact,
    analytic_opt_witness,
)
from cflgap.corevec import (
    CoreIndex,
    check_natural_lp,
    collides,
    make_core_vector,
    midpoint,
)
from cflgap.instance import (
    build_family_instance,
    build_gap_costs,
    build_general_instance,
)
from cflgap.polytope import (
    brute_force_opt,
    enumerate_integer_solutions,
    membership_lp,
    verify_membership,
)
from cflgap.randomness import ExactRng
from cflgap.rounding import (
    compile_plan,
    enumerate_outcome_classes,
    expected_vector,
    outcome_class_key,
    sample_block,
    solution_violations,
    verify_midpoint,
)

from conftest import CENSUS_SHAPES, MINI, TINY, block_draws, find_valid_general

CLI = [sys.executable, "-m", "cflgap.cli"]


@contextmanager
def criterion(number: int, name: str):
    started = time.time()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"\nACCEPTANCE {number} ({name}): PASS [{time.time() - started:.1f}s]")


def random_colliding_pairs(inst, count, seed):
    rng = random.Random(seed)
    t = inst.family_params.t
    pairs = []
    while len(pairs) < count:
        ids1 = rng.sample(range(inst.facility_count), 2 * t)
        ids2 = rng.sample(range(inst.facility_count), 2 * t)
        c1 = CoreIndex.for_instance(inst, ids1[:t], ids1[t:])
        c2 = CoreIndex.for_instance(inst, ids2[:t], ids2[t:])
        if collides(c1, c2):
            pairs.append((c1, c2))
    return pairs


def test_acceptance_1_expectation_identity():
    with criterion(1, "expectation identity at t=10"):
        inst = build_family_instance(10, 2)
        assert inst.facility_count + inst.facility_count * inst.client_count == 2_000_100
        probe_rng = random.Random(2024)
        for c1, c2 in random_colliding_pairs(inst, 5, seed=101):
            cert = verify_midpoint(inst, c1, c2)
            assert cert.valid
            plan = compile_plan(inst, c1, c2)
            expectation = expected_vector(plan, enumerate_outcome_classes(plan))
            mid = midpoint(
                make_core_vector(inst, c1.k, c1.l),
                make_core_vector(inst, c2.k, c2.l),
            )
            # classwise equality covers all 2,000,100 coordinates exactly
            assert expectation.equals(mid)
            # plus individual-coordinate probes through the accessors
            for _ in range(10_000):
                i = probe_rng.randrange(100)
                j = probe_rng.randrange(20000)
                assert expectation.x_of(i, j) == mid.x_of(i, j)
            for i in range(100):
                assert expectation.y_of(i) == mid.y_of(i)


def test_acceptance_2_sampler_feasibility_and_frequencies():
    with criterion(2, "sampler feasibility and class frequencies"):
        # 10^4 seeded draws at t=10: zero violations
        inst = build_family_instance(10, 2)
        c1 = CoreIndex.for_instance(inst, range(10), range(10, 20))
        c2 = CoreIndex.for_instance(inst, range(20, 30), range(30, 40))
        plan = compile_plan(inst, c1, c2)
        rng = ExactRng(424242)
        for draw in block_draws(plan, sample_block(plan, rng, 10_000), rng):
            assert solution_violations(inst, draw.solution) == []

        # 10^5 seeded draws at the mini instance: zero violations, and the
        # empirical class frequencies sit within 4 standard errors
        mini = build_general_instance(**MINI)
        m1 = CoreIndex.for_instance(mini, {0, 1}, {2, 3})
        m2 = CoreIndex.for_instance(mini, {0, 1}, {4, 5})
        mini_plan = compile_plan(mini, m1, m2)
        classes = enumerate_outcome_classes(mini_plan)
        assert sum(c.probability for c in classes) == 1
        probabilities = {c.key: c.probability for c in classes}
        n = 100_000
        freq = Counter()
        rng = ExactRng(31415)
        for draw in block_draws(mini_plan, sample_block(mini_plan, rng, n), rng):
            assert solution_violations(mini, draw.solution) == []
            key = outcome_class_key(mini_plan, draw)
            assert key in probabilities
            freq[key] += 1
        for key, prob in probabilities.items():
            p = float(prob)
            sigma = (p * (1 - p) / n) ** 0.5
            assert abs(freq[key] / n - p) <= 4 * sigma, (
                f"class {key}: observed {freq[key] / n:.5f}, expected {p:.5f}"
            )


def test_acceptance_3_collision_census():
    with criterion(3, "collision census"):
        started = time.time()
        for shape in CENSUS_SHAPES:
            inst = find_valid_general(*shape)
            assert core_size(inst) <= 100_000
            assert noncolliding_count_exact(inst) == noncolliding_count_brute(inst)
        for t, shape in [(4, (16, 4, 4, 33)), (5, (25, 5, 5, 56)), (6, (36, 6, 6, 85))]:
            inst = find_valid_general(*shape)
            assert inst.facility_count == t * t
            fraction = Fraction(noncolliding_count_exact(inst), core_size(inst))
            assert fraction <= 2 * Fraction(2, t) ** t
        assert time.time() - started < 60


def test_acceptance_4_gap_certificates():
    with criterion(4, "gap certificates"):
        # t=10: fractional cost 1, optimum 1, verified cost-1 witness
        inst = build_family_instance(10, 2)
        idx = CoreIndex.for_instance(inst, range(10), range(10, 20))
        cert = certify_gap(inst, idx, "analytic")
        assert cert.frac_cost == 1 and cert.opt_value == 1 and cert.ratio == 1
        witness = analytic_opt_witness(inst, idx)
        assert solution_violations(inst, witness) == []
        cost = build_gap_costs(inst, idx)
        assert cost.solution_cost(witness.open, witness.assign) == 1

        # t=20 analytic: fractional cost exactly 1/2, ratio 2
        inst20 = build_family_instance(20, 2)
        idx20 = CoreIndex.for_instance(inst20, range(20), range(20, 40))
        cert20 = certify_gap(inst20, idx20, "analytic")
        assert cert20.frac_cost == Fraction(1, 2) and cert20.ratio == 2

        # tiny two-point replica: certificate optimum equals brute force
        tiny = build_general_instance(**TINY)
        idx_t = CoreIndex.for_instance(tiny, {0}, {1})
        cert_t = certify_gap(tiny, idx_t, "brute-force")
        opt, _ = brute_force_opt(tiny, build_gap_costs(tiny, idx_t))
        assert cert_t.opt_value == opt == 1


def test_acceptance_5_lower_bound_calculator():
    with criterion(5, "constraint-count lower bound via CLI"):
        started = time.time()
        result = subprocess.run(
            CLI + ["bound", "--t", "10"], capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        values = {
            line.split(":")[0].strip(): line.split(":")[1].strip()
            for line in result.stdout.strip().splitlines()
        }
        # independent binomial implementation: Pascal's additive recurrence
        def pascal(n, k):
            row = [1]
            for _ in range(n):
                row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
            return row[k]

        expected_core = pascal(100, 10) * pascal(90, 10)
        inst = build_family_instance(10, 2)
        assert int(values["core size"]) == expected_core == core_size(inst)
        assert int(values["lambda"]) == noncolliding_count_exact(inst)
        assert int(values["lower bound"]) == lower_bound_constraints(inst)
        assert int(values["lower bound"]) >= 4_882_813
        assert time.time() - started < 10


def test_acceptance_6_natural_lp_feasibility():
    with criterion(6, "natural LP feasibility of core vectors"):
        inst = build_family_instance(10, 2)
        rng = random.Random(606)
        for _ in range(100):
            ids = rng.sample(range(100), 20)
            vec = make_core_vector(inst, ids[:10], ids[10:])
            assert check_natural_lp(inst, vec).passed
        mini = build_general_instance(**MINI)
        count = 0
        for k in itertools.combinations(range(6), 2):
            rest = sorted(set(range(6)) - set(k))
            for l in itertools.combinations(rest, 2):
                assert check_natural_lp(mini, make_core_vector(mini, k, l)).passed
                count += 1
        assert count == 90


def test_acceptance_7_polytope_oracle_agreement():
    with criterion(7, "polytope oracle agreement"):
        tiny = build_general_instance(**TINY)
        c1 = CoreIndex.for_instance(tiny, {0}, {1})
        c2 = CoreIndex.for_instance(tiny, {0}, {2})
        assert collides(c1, c2)
        solutions = enumerate_integer_solutions(tiny)

        mid = midpoint(
            make_core_vector(tiny, c1.k, c1.l), make_core_vector(tiny, c2.k, c2.l)
        )
        result = membership_lp(mid, solutions)
        assert result.member
        assert result.convex_weights is not None
        assert sum(result.convex_weights.values()) == 1
        assert verify_membership(mid, solutions, result)
        assert verify_midpoint(tiny, c1, c2).valid  # constructive route agrees

        perturbed = make_core_vector(tiny, {0}, {1}).set_x(1, 0, Fraction(3, 4))
        bad = membership_lp(perturbed, solutions)
        assert not bad.member
        assert bad.separating_inequality is not None
        assert verify_membership(perturbed, solutions, bad)


def test_acceptance_8_determinism(tmp_path):
    with criterion(8, "byte-identical reruns of randomized reports"):
        mini = tmp_path / "mini.json"
        a = tmp_path / "a.core"
        b = tmp_path / "b.core"
        prep = [
            ["gen", "--general", "--nf", "6", "--t", "2", "--U", "4", "--m", "13",
             "--eps", "2/5", "--xl", "1/8", "-o", str(mini)],
            ["core", "--instance", str(mini), "--k", "0,1", "--l", "2,3", "-o", str(a)],
            ["core", "--instance", str(mini), "--k", "0,1", "--l", "4,5", "-o", str(b)],
        ]
        for argv in prep:
            assert subprocess.run(CLI + argv, capture_output=True).returncode == 0

        runs = {
            "sample": ["sample", str(a), str(b), "--n", "200", "--seed", "77"],
            # above cli.BLOCK_DRAWS, so --jobs 2 runs its blocks on a process pool
            "sample-jobs2": ["sample", str(a), str(b), "--n", "2500", "--seed", "77",
                             "--jobs", "2"],
            "census-mc": ["census", "--instance", str(mini), "--mc", "3000",
                          "--seed", "13"],
            "core-random": ["core", "--instance", str(mini), "--random",
                            "--seed", "5"],
        }
        for name, argv in runs.items():
            outputs = []
            for attempt in range(2):
                out = tmp_path / f"{name}-{attempt}.json"
                result = subprocess.run(
                    CLI + argv + ["-o", str(out)], capture_output=True, text=True
                )
                assert result.returncode == 0, result.stderr
                outputs.append(out.read_bytes())
            assert outputs[0] == outputs[1], f"{name} rerun differs"
