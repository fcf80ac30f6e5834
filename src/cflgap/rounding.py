"""Randomized rounding of the midpoint of two colliding core vectors.

For a colliding pair of core indices, a coin chooses one of two mirror-image
experiments.  Each experiment serves the designated clients with one side's
high set plus exactly one facility drawn from its low set, and serves the
remaining clients with the outside facilities plus (with probability
``t*eps``) one pivot facility borrowed from the other pair.  Fractional slot
targets are rounded to floor/ceil with the expectation-preserving coin, and
leftover clients are spread in near-even splits.

:func:`compile_plan` validates the instance and the pair once and compiles
the distribution into a :class:`RoundingPlan`: the pivots, both experiments'
facility roles and the client pools as int64 arrays.  The plan stores the
distribution only in compiled form: the low-set choice as integer
thresholds over one denominator, and every slot target and the borrowed
pivot's opening as a floor/ceil coin.  Two views read the same plan:

* :func:`sample_outcome` draws one integer solution (seed-deterministic)
  whose assignment is a read-only int64 array, comparing integer draws
  with the thresholds and coins and building no ``Fraction``, and
* :func:`enumerate_outcome_classes` lists every branch of the same
  thresholds and coins with its exact probability, collapsing exchangeable
  client and bin choices.

:func:`expected_vector` averages the enumerated classes (sum of probability
times class mean), so :func:`verify_midpoint` certifies constructively, from
one class list, that the midpoint of a colliding pair is a convex
combination of feasible integer solutions: these weights, these feasible
points, this exact sum.  A plan is built per command or caller and passed
explicitly; nothing caches plans across calls.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from itertools import repeat
from math import lcm
from typing import Sequence

import numpy as np

from .corevec import CoreIndex, FracVector, collides, make_core_vector, midpoint
from .instance import Instance, require_valid
from .randomness import ExactRng, cumulative_thresholds

__all__ = [
    "IntSolution",
    "OutcomeClass",
    "MidpointCertificate",
    "NonCollidingPairError",
    "RoundingPlan",
    "SampleDraw",
    "pivot_facilities",
    "round_slots",
    "split_slots",
    "compile_plan",
    "sample_outcome",
    "outcome_class_key",
    "expected_vector",
    "enumerate_outcome_classes",
    "verify_midpoint",
    "solution_violations",
]

ZERO = Fraction(0)
ONE = Fraction(1)


class NonCollidingPairError(ValueError):
    """Raised when an operation needs a colliding pair and gets none."""


@dataclass(frozen=True, eq=False)
class IntSolution:
    """Open facilities plus a total client-to-facility assignment.

    ``assign[j]`` is the facility serving client ``j``, held as a read-only
    1-d int64 array.  Any sequence of ints is converted once on construction;
    a read-only int64 array is kept without a copy.  Solutions compare and
    hash by content.
    """

    open: frozenset[int]
    assign: np.ndarray

    def __post_init__(self) -> None:
        arr = self.assign
        if not (
            isinstance(arr, np.ndarray)
            and arr.dtype == np.int64
            and not arr.flags.writeable
        ):
            arr = np.array(arr, dtype=np.int64)
            arr.setflags(write=False)
            object.__setattr__(self, "assign", arr)
        if arr.ndim != 1:
            raise ValueError(f"assignment must be 1-d, got shape {arr.shape}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntSolution):
            return NotImplemented
        return self.open == other.open and np.array_equal(self.assign, other.assign)

    def __hash__(self) -> int:
        return hash((self.open, self.assign.tobytes()))


def solution_violations(inst: Instance, sol: IntSolution) -> list[str]:
    """Violated integer-solution invariants (empty list = feasible)."""
    out: list[str] = []
    if len(sol.assign) != inst.client_count:
        out.append(
            f"assignment covers {len(sol.assign)} clients, instance has {inst.client_count}"
        )
        return out
    if not sol.open <= set(inst.facilities):
        out.append("open set contains unknown facility ids")
    if inst.client_count == 0:
        return out
    arr = sol.assign
    if arr.min() < 0 or arr.max() >= inst.facility_count:
        out.append("assignment targets unknown facility ids")
        return out
    counts = np.bincount(arr, minlength=inst.facility_count)
    used = np.flatnonzero(counts).tolist()
    counts = counts.tolist()
    not_open = [i for i in used if i not in sol.open]
    if not_open:
        out.append(f"clients assigned to closed facilities {not_open}")
    over = [(i, counts[i]) for i in used if counts[i] * inst.demand > inst.capacity]
    if over:
        out.append(f"capacity exceeded at {over} (capacity {inst.capacity})")
    return out


# ---------------------------------------------------------------------------
# Pivots and elementary rounding operations
# ---------------------------------------------------------------------------


def pivot_facilities(c1: CoreIndex, c2: CoreIndex) -> tuple[int, int]:
    """The shared pivot pair: smallest ids of l1 \\ (k2|l2) and l2 \\ (k1|l1).

    The first pivot is the residual-probability member of l1 in experiment A
    and the borrowed facility in experiment B; the second plays the mirror
    roles.  Any fixed consistent choice works; smallest id keeps it
    deterministic.
    """
    side1 = c1.l - (c2.k | c2.l)
    side2 = c2.l - (c1.k | c1.l)
    if not side1 or not side2:
        empty = "l1 \\ (k2|l2)" if not side1 else "l2 \\ (k1|l1)"
        raise NonCollidingPairError(f"no pivot exists: {empty} is empty")
    return min(side1), min(side2)


@dataclass(frozen=True)
class _FloorCoin:
    """A nonnegative exact rational ``floor + num/den`` with ``0 <= num < den``.

    Rounding it to floor or ceil takes one integer draw below ``den`` (none
    when ``num`` is 0), the same draw ``ExactRng.bernoulli`` makes for the
    fractional part.  A probability in [0, 1] is a coin that reads 0 or 1.
    :meth:`branches` lists the values :meth:`draw` returns with their exact
    probabilities, so the sampler and the enumerator read one coin.
    """

    floor: int
    num: int
    den: int

    @classmethod
    def of(cls, w: Fraction) -> "_FloorCoin":
        if w < 0:
            raise ValueError(f"slot target must be nonnegative, got {w}")
        floor, num = divmod(w.numerator, w.denominator)
        return cls(floor, num, w.denominator)

    def draw(self, rng: ExactRng) -> int:
        if self.num and rng.integer_below(self.den) < self.num:
            return self.floor + 1
        return self.floor

    def branches(self) -> list[tuple[int, Fraction]]:
        """``[(floor, 1)]``, or ``[(floor, 1 - num/den), (floor + 1, num/den)]``."""
        if not self.num:
            return [(self.floor, ONE)]
        up = Fraction(self.num, self.den)
        return [(self.floor, 1 - up), (self.floor + 1, up)]


def round_slots(w: Fraction, rng: ExactRng) -> int:
    """floor(w) with probability 1 - frac(w), else ceil(w); E[result] = w."""
    return _FloorCoin.of(Fraction(w)).draw(rng)


def _near_even(total: int, n_bins: int, rng: ExactRng) -> list[int]:
    """floor(total / n_bins) per bin, plus one on ``total % n_bins`` uniform bins."""
    base, extra = divmod(total, n_bins)
    counts = [base] * n_bins
    for pos in rng.chosen_positions(n_bins, extra).tolist():
        counts[pos] += 1
    return counts


def split_slots(
    total: int, bins: Sequence[int], avg: Fraction, rng: ExactRng
) -> list[int]:
    """Near-even split of ``total`` slots over ``bins`` with per-bin mean avg.

    Exactly ``len(bins) * frac(avg)`` uniformly chosen bins get ceil(avg),
    the rest floor(avg); requires total == len(bins) * avg exactly.
    """
    avg = Fraction(avg)
    if avg < 0:
        raise ValueError(f"avg must be nonnegative, got {avg}")
    if len(bins) * avg != total:
        raise ValueError(f"inconsistent split: {len(bins)} bins * {avg} != {total}")
    if not bins:
        return []
    return _near_even(total, len(bins), rng)


# ---------------------------------------------------------------------------
# Experiment structure shared by the sampler and the enumerator
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class _Experiment:
    label: str
    always_open: tuple[int, ...]   # the owning high set, opened in step 1
    choice_set: tuple[int, ...]    # the owning low set; exactly one opens
    pivot_extra: int               # borrowed facility, opened on extra_coin
    outside_bins: tuple[int, ...]  # remaining facilities, always opened in step 2
    base_open: frozenset[int]      # always_open | outside_bins
    core_pool: np.ndarray          # designated clients (int64, ascending), step 1
    rest_pool: np.ndarray          # remaining clients (int64, ascending), step 2
    # choice_set[i] opens on a draw below choice_denominator in
    # [choice_thresholds[i-1], choice_thresholds[i]) and takes choice_slots[i]
    choice_denominator: int
    choice_thresholds: tuple[int, ...]
    choice_slots: tuple[_FloorCoin, ...]
    extra_coin: _FloorCoin   # reads 1 (probability t*eps) when pivot_extra opens
    extra_slots: _FloorCoin  # pivot_extra's slot target when it opens

    def open_set(self, chosen: int, extra_open: bool) -> frozenset[int]:
        return self.base_open | ({chosen, self.pivot_extra} if extra_open else {chosen})


@dataclass(frozen=True, eq=False)
class RoundingPlan:
    """The rounding distribution of one validated colliding pair.

    Built by :func:`compile_plan`; experiment ``A`` is owned by the pair's
    first index, ``B`` by its second.  Every draw from the plan shares its
    client pools (int64 arrays, never written).
    """

    inst: Instance
    experiments: tuple[_Experiment, _Experiment]


def _experiment_specs(
    inst: Instance, c1: CoreIndex, c2: CoreIndex
) -> tuple[_Experiment, _Experiment]:
    params = inst.family_params
    t, eps, x_l = params.t, params.eps, params.x_l
    f, g = pivot_facilities(c1, c2)
    q = inst.facility_count - 2 * t
    p_pivot = 1 - (t - 1) * eps
    p_extra = t * eps
    # both experiments share the two pools: the designated clients and the tail
    designated, tail = inst.designated_clients, inst.rest_clients
    core = np.arange(designated.start, designated.stop, dtype=np.int64)
    rest = np.arange(tail.start, tail.stop, dtype=np.int64)
    w_base = len(core) * x_l
    pivot_slots, other_slots = _FloorCoin.of(w_base / p_pivot), _FloorCoin.of(w_base / eps)
    extra_coin = _FloorCoin.of(p_extra)
    extra_slots = _FloorCoin.of(Fraction(len(rest), q) / p_extra if len(rest) else ZERO)

    def build(label: str, own: CoreIndex, pivot: int, borrowed: int) -> _Experiment:
        # the own pivot takes the residual probability, the other low-set
        # facilities eps each; the other side's pivot is the borrowed one
        choice_set = tuple(sorted(own.l))
        is_pivot = [i == pivot for i in choice_set]
        denominator, thresholds = cumulative_thresholds(
            [p_pivot if flag else eps for flag in is_pivot]
        )
        taken = own.k | own.l | {borrowed}
        outside = tuple(i for i in inst.facilities if i not in taken)
        return _Experiment(
            label=label,
            always_open=tuple(sorted(own.k)),
            choice_set=choice_set,
            pivot_extra=borrowed,
            outside_bins=outside,
            base_open=own.k | frozenset(outside),
            core_pool=core,
            rest_pool=rest,
            choice_denominator=denominator,
            choice_thresholds=thresholds,
            choice_slots=tuple(pivot_slots if flag else other_slots for flag in is_pivot),
            extra_coin=extra_coin,
            extra_slots=extra_slots,
        )

    return build("A", c1, f, g), build("B", c2, g, f)


def compile_plan(inst: Instance, c1: CoreIndex, c2: CoreIndex) -> RoundingPlan:
    """Validate the instance and the pair, then compile their distribution.

    Raises ValueError when the instance parameters are invalid and
    NonCollidingPairError (naming the empty side) when the pair does not
    collide.
    """
    require_valid(inst)
    if not collides(c1, c2):
        # raises with the empty side named
        pivot_facilities(c1, c2)
    return RoundingPlan(inst, _experiment_specs(inst, c1, c2))


# ---------------------------------------------------------------------------
# Sampler
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SampleDraw:
    """One sampled solution plus the branch identifiers that produced it."""

    solution: IntSolution
    experiment: str
    chosen_l_facility: int
    extra_open: bool


def _check_split(counts: list[int], cap: int, step: str) -> None:
    for count in counts:
        if count > cap:
            raise RuntimeError(
                f"{step} split count {count} exceeds capacity; invalid parameters upstream"
            )


def _run_experiment(inst: Instance, exp: _Experiment, rng: ExactRng) -> SampleDraw:
    cap = inst.capacity
    assign = np.full(inst.client_count, -1, dtype=np.int64)

    # step 1: one low-set facility plus the high set serve the designated pool
    idx = bisect_right(exp.choice_thresholds, rng.integer_below(exp.choice_denominator))
    chosen = exp.choice_set[idx]
    slots = exp.choice_slots[idx].draw(rng)
    n_core = len(exp.core_pool)
    if slots > min(n_core, cap):
        raise RuntimeError(
            f"step-1 slot count {slots} exceeds pool/capacity; invalid parameters upstream"
        )
    perm = rng.permuted(exp.core_pool)
    counts = _near_even(n_core - slots, len(exp.always_open), rng)
    _check_split(counts, cap, "step-1")
    assign[perm] = np.repeat((chosen, *exp.always_open), (slots, *counts))

    # step 2: outside facilities (plus maybe the borrowed pivot) serve the rest
    extra_open = exp.extra_coin.draw(rng) == 1
    m_rest = len(exp.rest_pool)
    perm2 = rng.permuted(exp.rest_pool)
    slots2 = 0
    if extra_open:
        slots2 = exp.extra_slots.draw(rng)
        if slots2 > min(m_rest, cap):
            raise RuntimeError(
                f"step-2 slot count {slots2} exceeds pool/capacity; invalid parameters upstream"
            )
    rem2 = m_rest - slots2
    counts2: list[int] = []
    if exp.outside_bins:
        counts2 = _near_even(rem2, len(exp.outside_bins), rng)
        _check_split(counts2, cap, "step-2")
    elif rem2:
        raise RuntimeError(
            "no outside facilities left for remaining clients; invalid parameters upstream"
        )
    assign[perm2] = np.repeat((exp.pivot_extra, *exp.outside_bins), (slots2, *counts2))

    assign.setflags(write=False)
    return SampleDraw(
        solution=IntSolution(open=exp.open_set(chosen, extra_open), assign=assign),
        experiment=exp.label,
        chosen_l_facility=chosen,
        extra_open=extra_open,
    )


def sample_outcome(plan: RoundingPlan, rng: ExactRng) -> SampleDraw:
    """One draw from the distribution, with its branch identifiers.

    A fair coin (one ``integer_below(2)``) picks experiment A on 0, B on 1.
    """
    return _run_experiment(plan.inst, plan.experiments[rng.integer_below(2)], rng)


# ---------------------------------------------------------------------------
# Outcome-class enumeration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OutcomeClass:
    """All outcomes sharing one branch combination and one slot profile.

    Client-subset choices and which-bin-gets-the-extra-slot choices are
    collapsed: the profile stores the canonical representative (ceil slots on
    the lowest-id bins), and ``probability`` covers the whole class.  Only
    nonzero counts appear in the profile.
    """

    experiment: str
    chosen_l_facility: int
    extra_open: bool
    slot_profile: tuple[tuple[int, int], ...]  # (facility, count), sorted
    probability: Fraction
    open_facilities: frozenset[int]
    problems: tuple[str, ...]  # why the class is infeasible; empty if feasible

    @property
    def feasible(self) -> bool:
        return not self.problems

    @property
    def key(self) -> tuple:
        return (
            self.experiment,
            self.chosen_l_facility,
            self.extra_open,
            self.slot_profile,
        )


_NO_PART: tuple = ((), 0, ())  # (entries, served, over) of an empty profile part


def _split_part(total: int, bins: tuple[int, ...], capacity: int) -> tuple:
    """The canonical near-even split of ``total`` over ``bins`` as a profile part.

    Ceil counts go on the lowest-id bins.  A part is ``(entries, served,
    over)``: the nonzero ``(facility, count)`` entries sorted by facility, the
    clients they serve, and the entries above ``capacity``.
    """
    if not bins:
        if total:
            raise ValueError("cannot split clients over zero bins")
        return _NO_PART
    base, extra = divmod(total, len(bins))
    return _entries_part(
        [(fac, base + 1) for fac in bins[:extra]]
        + [(fac, base) for fac in bins[extra:]],
        capacity,
    )


def _entries_part(entries, capacity: int) -> tuple:
    """``(entries, served, over)`` of ``(facility, count)`` entries sorted by facility."""
    kept = tuple(entry for entry in entries if entry[1])
    over = tuple(entry for entry in kept if not 0 <= entry[1] <= capacity)
    return kept, sum(cnt for _, cnt in kept), over


def _joined(first: tuple, second: tuple) -> tuple:
    """One part from two disjoint parts, its entries and over entries re-sorted."""
    return (
        tuple(sorted(first[0] + second[0])),
        first[1] + second[1],
        tuple(sorted(first[2] + second[2])),
    )


def enumerate_outcome_classes(plan: RoundingPlan) -> list[OutcomeClass]:
    """Every branch combination with exact probability; probabilities sum to 1.

    A low-set choice has its threshold step over the denominator, halved by
    the fair experiment coin; a coin with no fractional part has one branch,
    so no branch of probability zero (e.g. the closed-pivot branch when
    t*eps = 1) appears.  A class's slot profile joins a step-1 part (the
    chosen low facility's slots and the split of the designated remainder
    over the high set) with a step-2 part (the borrowed pivot's slots and
    the split of the rest over the outside bins).  Each distinct (remainder,
    bin group) split is built and checked against capacity once per call, so
    a class costs O(groups), not O(facilities).
    """
    inst = plan.inst
    cap = inst.capacity  # unit demands: a count is a load
    split = cache(partial(_split_part, capacity=cap))  # local to this call

    out: list[OutcomeClass] = []
    for exp in plan.experiments:
        n_core, m_rest = len(exp.core_pool), len(exp.rest_pool)
        step2: list[tuple[bool, int, Fraction, tuple, list[str]]] = []
        # the open branches (coin reads 1) before the closed one
        branches2 = [
            (opened == 1, slots2, p_open * p_r2)
            for opened, p_open in reversed(exp.extra_coin.branches())
            for slots2, p_r2 in (exp.extra_slots.branches() if opened else [(0, ONE)])
        ]
        for extra_open, slots2, p_s2 in branches2:
            rem2 = m_rest - slots2
            problems2: list[str] = []
            rest = _NO_PART
            if rem2 < 0:
                problems2.append(
                    f"{slots2} borrowed-pivot slots overfill the rest pool (size {m_rest})"
                )
            elif exp.outside_bins:
                rest = split(rem2, exp.outside_bins)
            elif rem2 > 0:
                problems2.append(f"no outside facility serves the {rem2} remaining clients")
            pivot = _entries_part([(exp.pivot_extra, slots2)], cap)
            step2.append((extra_open, slots2, p_s2, _joined(pivot, rest), problems2))

        bounds = zip((0,) + exp.choice_thresholds, exp.choice_thresholds)
        for chosen, (lo, hi), coin in zip(exp.choice_set, bounds, exp.choice_slots):
            p_choice = Fraction(hi - lo, 2 * exp.choice_denominator)
            open_sets = {flag: exp.open_set(chosen, flag) for flag in (False, True)}
            for slots1, p_r1 in coin.branches():
                rem1 = n_core - slots1
                problems1: list[str] = []
                high = _NO_PART
                if rem1 >= 0:
                    high = split(rem1, exp.always_open)
                else:
                    problems1.append(
                        f"{slots1} step-1 slots overfill the designated pool (size {n_core})"
                    )
                part1 = _joined(_entries_part([(chosen, slots1)], cap), high)
                p1 = p_choice * p_r1
                for extra_open, slots2, p_s2, part2, problems2 in step2:
                    entries, served, over = _joined(part1, part2)
                    problems = problems1 + problems2
                    if served != inst.client_count:
                        problems.append(
                            f"the profile serves {served} of {inst.client_count} clients"
                        )
                    problems.extend(
                        f"facility {fac} serves {cnt} clients above capacity {cap}"
                        for fac, cnt in over
                    )
                    # the bin groups lie in base_open, so only the borrowed
                    # pivot can serve clients while closed
                    open_set = open_sets[extra_open]
                    if slots2 and exp.pivot_extra not in open_set:
                        problems.append(f"closed facilities {[exp.pivot_extra]} serve clients")
                    out.append(OutcomeClass(
                        experiment=exp.label,
                        chosen_l_facility=chosen,
                        extra_open=extra_open,
                        slot_profile=entries,
                        probability=p1 * p_s2,
                        open_facilities=open_set,
                        problems=tuple(problems),
                    ))
    return out


def outcome_class_key(plan: RoundingPlan, draw: SampleDraw) -> tuple:
    """Canonical class key of a sampled draw, matching OutcomeClass.key.

    Counts within each exchangeable bin group are sorted onto ascending ids,
    collapsing which-bin-got-the-extra-slot choices exactly as the
    enumerator does.
    """
    exp_a, exp_b = plan.experiments
    exp = exp_a if draw.experiment == "A" else exp_b
    counts = np.bincount(
        draw.solution.assign, minlength=plan.inst.facility_count
    ).tolist()
    profile: dict[int, int] = {}
    for fac in (draw.chosen_l_facility, exp.pivot_extra):
        if counts[fac]:
            profile[fac] = counts[fac]
    for group in (exp.always_open, exp.outside_bins):
        group_counts = sorted((counts[fac] for fac in group), reverse=True)
        for fac, cnt in zip(sorted(group), group_counts):
            if cnt:
                profile[fac] = cnt
    return (
        draw.experiment,
        draw.chosen_l_facility,
        draw.extra_open,
        tuple(sorted(profile.items())),
    )


# ---------------------------------------------------------------------------
# Expectation over the outcome classes
# ---------------------------------------------------------------------------


def expected_vector(plan: RoundingPlan, classes: Sequence[OutcomeClass]) -> FracVector:
    """Exact expectation of the distribution: sum of probability x class mean.

    ``classes`` are the plan's enumerated outcome classes.  Within a class,
    clients are exchangeable within their pool and facilities within their
    group, so a class's mean gives each facility of a group the clients the
    group serves / (group size x pool size) on every client of that pool, and
    y = the group's open members / group size.  The designated pool is served
    by the chosen low facility and the high set, the rest pool by the
    borrowed pivot and the outside bins.  Sums are kept per group and
    expanded to facilities once; facilities with equal values share a class.
    """
    inst = plan.inst
    by_label = {exp.label: exp for exp in plan.experiments}

    # (experiment, group) -> probability-weighted [open members, clients
    # served from the designated pool, clients served from the rest pool],
    # as integers over the common denominator of the class probabilities
    den = lcm(*(cl.probability.denominator for cl in classes))
    sums: dict[tuple[str, tuple[int, ...]], list[int]] = {}
    for cl in classes:
        exp = by_label[cl.experiment]
        weight = cl.probability.numerator * (den // cl.probability.denominator)
        served = dict(cl.slot_profile)
        for group, pool in (
            ((cl.chosen_l_facility,), 1),
            (exp.always_open, 1),
            ((exp.pivot_extra,), 2),
            (exp.outside_bins, 2),
        ):
            acc = sums.setdefault((exp.label, group), [0, 0, 0])
            acc[0] += weight * len(cl.open_facilities.intersection(group))
            acc[pool] += weight * sum(map(served.get, group, repeat(0)))

    # each facility lies in one group per experiment; the facilities that
    # share both groups get one value, computed once
    group_of: dict[int, list] = {i: [] for i in inst.facilities}
    for exp in plan.experiments:
        singles = [(i,) for i in (exp.pivot_extra, *exp.choice_set)]
        for group in (exp.always_open, exp.outside_bins, *singles):
            for i in group:
                group_of[i].append((exp.label, group))
    atoms: dict[tuple, list[int]] = {}
    for i, keys in group_of.items():
        atoms.setdefault(tuple(keys), []).append(i)

    pools = [inst.designated_clients] + ([inst.rest_clients] if inst.rest_clients else [])
    values: dict[tuple[Fraction, ...], list[int]] = {}
    for keys, members in atoms.items():
        value = [ZERO] * (1 + len(pools))
        for key in keys:
            acc, size = sums.get(key, (0, 0, 0)), len(key[1])
            value[0] += Fraction(acc[0], den * size)
            for c, pool in enumerate(pools, start=1):
                value[c] += Fraction(acc[c], den * size * len(pool))
        values.setdefault(tuple(value), []).extend(members)

    ordered = sorted(values.items(), key=lambda kv: min(kv[1]))
    return FracVector(
        inst.facility_count,
        inst.client_count,
        [members for _, members in ordered],
        pools,
        [value[0] for value, _ in ordered],
        [list(value[1:]) for value, _ in ordered],
    )


# ---------------------------------------------------------------------------
# The midpoint certificate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MidpointCertificate:
    """Constructive evidence that a colliding pair's midpoint is integral-convex.

    Valid iff the probability-weighted average of the enumerated outcome
    classes equals the midpoint exactly, every class is a feasible integer
    solution, and the class probabilities sum to exactly 1.  Parameter sets
    whose rounding branches overflow capacity yield an (honestly) invalid
    certificate; the classic family has ample slack.
    """

    pair: tuple[CoreIndex, CoreIndex]
    expectation_matches: bool
    all_classes_feasible: bool
    class_count: int
    probability_sum: Fraction

    @property
    def valid(self) -> bool:
        return (
            self.expectation_matches
            and self.all_classes_feasible
            and self.probability_sum == 1
        )


def verify_midpoint(inst: Instance, c1: CoreIndex, c2: CoreIndex) -> MidpointCertificate:
    """Exact midpoint-membership certificate for a colliding pair."""
    plan = compile_plan(inst, c1, c2)
    classes = enumerate_outcome_classes(plan)
    mid = midpoint(
        make_core_vector(inst, c1.k, c1.l), make_core_vector(inst, c2.k, c2.l)
    )
    return MidpointCertificate(
        pair=(c1, c2),
        expectation_matches=expected_vector(plan, classes).equals(mid),
        all_classes_feasible=all(cl.feasible for cl in classes),
        class_count=len(classes),
        probability_sum=sum((cl.probability for cl in classes), ZERO),
    )
