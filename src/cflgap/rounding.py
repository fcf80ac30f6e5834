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
facility roles and the client pools as ranges.  The plan stores the
distribution only in compiled form: the low-set choice as integer
thresholds over one denominator, and every slot target and the borrowed
pivot's opening as a floor/ceil coin.  Two views read the same plan:

* :func:`sample_block` draws a block of integer solutions
  (seed-deterministic) as :class:`DrawChunk` arrays.  Every decision of the
  block is drawn first, one array per step, by comparing uniform integers
  with the thresholds and coins (exactly, for any denominator; no
  ``Fraction`` and no float).  Then the assignments are built in chunks of
  rows: one ``np.repeat`` of the rows' facility counts, in pool order,
  then (unless ``shuffle=False``) each client pool's segment of every row
  shuffled in place.  Only readers of per-client assignments need the
  shuffle; feasibility and outcome classes depend only on facility loads.
  :func:`sample_outcome` is its one-row case, and
* :func:`enumerate_grouped_classes` lists every branch of the same
  thresholds and coins with its exact probability, collapsing exchangeable
  client and bin choices, and exchangeable low-set facilities into groups
  (at most four per experiment, for any t); each class holds its slot
  profile as one shared part per facility group.
  :func:`enumerate_outcome_classes` expands the groups into one set of
  classes per low-set facility, the classes a draw is keyed by.

:func:`tally_draws` checks and keys the chunks from their facility loads.
One function counts loads, :func:`_row_loads`: unknown ids go to one extra
column, then one row-offset ``bincount`` counts a chunk.
:func:`solution_violations` and :func:`outcome_class_key` are its one-row
cases, so a draw the tally cannot count has violations and no key in all
three.

:func:`expected_vector` sums probability times the parts into group totals,
so :func:`verify_midpoint` certifies constructively, from the grouped class
list, that the midpoint of a colliding pair is a convex combination of
feasible integer solutions: these weights, these feasible points, this
exact sum.
A plan is built per command or caller and passed explicitly.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, partial
from itertools import repeat
from math import lcm
from operator import itemgetter
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .corevec import CoreIndex, FracVector, make_core_vector, midpoint
from .instance import ONE, ZERO, Instance, over_common_denominator, require_valid
from .randomness import ExactRng, cumulative_thresholds

__all__ = [
    "IntSolution",
    "OutcomeClass",
    "MidpointCertificate",
    "NonCollidingPairError",
    "RoundingPlan",
    "SampleDraw",
    "DrawChunk",
    "pivot_facilities",
    "round_slots",
    "split_slots",
    "compile_plan",
    "PLAN_FACILITY_LIMIT",
    "sample_block",
    "sample_outcome",
    "outcome_class_key",
    "tally_draws",
    "expected_vector",
    "enumerate_outcome_classes",
    "enumerate_grouped_classes",
    "verify_midpoint",
    "solution_violations",
]


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
    """Violated integer-solution invariants (empty list = feasible).

    The loads are the one-row case of :func:`_row_loads`.
    """
    if len(sol.assign) != inst.client_count:
        return [
            f"assignment covers {len(sol.assign)} clients, instance has {inst.client_count}"
        ]
    out: list[str] = []
    if _has_unknown_id(sol.open, inst.facility_count):
        out.append("open set contains unknown facility ids")
    counted, loads = _row_loads(inst, sol.assign[None])
    if not counted[0]:
        out.append("assignment targets unknown facility ids")
        return out
    counts = loads[0].tolist()
    used = [i for i, count in enumerate(counts) if count]
    not_open = [i for i in used if i not in sol.open]
    if not_open:
        out.append(f"clients assigned to closed facilities {not_open}")
    over = [(i, counts[i]) for i in used if counts[i] > inst.capacity]
    if over:
        out.append(f"capacity exceeded at {over} (capacity {inst.capacity})")
    return out


def _row_loads(inst: Instance, assign: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of a 2-d int64 assignment, whether it can be counted and its
    clients per facility.

    A row can be counted when it has one entry per client and names only
    known facility ids.  Read as uint64, a negative id is at least 2**63,
    so one minimum sends every unknown id to an extra column ``n_f`` and a
    huge id costs no table.  Then one ``bincount``, each row offset by
    ``row * (n_f + 1)``, counts every row.  The loads of a row that cannot
    be counted mean nothing.
    """
    rows, n_f = len(assign), inst.facility_count
    ids = np.minimum(assign.view(np.uint64), n_f).view(np.int64)
    if rows > 1:  # one row needs no offset, so a single draw stays cheap to check
        ids += np.arange(0, rows * (n_f + 1), n_f + 1)[:, None]
    loads = np.bincount(ids.ravel(), minlength=rows * (n_f + 1)).reshape(rows, n_f + 1)
    counted = loads[:, n_f] == 0
    if assign.shape[1] != inst.client_count:
        counted[:] = False
    return counted, loads[:, :n_f]


def _has_unknown_id(open_set: frozenset[int], facility_count: int) -> bool:
    return bool(open_set) and not (0 <= min(open_set) and max(open_set) < facility_count)


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


def _near_even_rows(totals: np.ndarray, n_bins: int, rng: ExactRng) -> np.ndarray:
    """Per row, floor(total / n_bins) per bin plus one on ``total % n_bins`` uniform bins.

    A bin gets the extra slot when its rank in the row's uniform permutation
    of the bins is below the row's remainder, so every subset of that size
    is equally likely.  Zero bins are only allowed for zero totals.
    """
    if not n_bins:
        if totals.any():
            raise RuntimeError(
                "no facility left for the remaining clients; invalid parameters upstream"
            )
        return np.zeros((len(totals), 0), dtype=np.int64)
    base, extra = np.divmod(totals, n_bins)
    ranks = rng.permuted_rows(np.arange(n_bins), len(totals))
    return base[:, None] + (ranks < extra[:, None])


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
    return _near_even_rows(np.array([total]), len(bins), rng)[0].tolist()


# ---------------------------------------------------------------------------
# Experiment structure shared by the sampler and the enumerator
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class _Experiment:
    label: str
    # facility groups hold their ids in ascending order
    always_open: tuple[int, ...]   # the owning high set, opened in step 1
    choice_set: tuple[int, ...]    # the owning low set; exactly one opens
    pivot_extra: int               # borrowed facility, opened on extra_coin
    outside_bins: tuple[int, ...]  # remaining facilities, always opened in step 2
    base_open: frozenset[int]      # always_open | outside_bins
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
    first index, ``B`` by its second.  The block sampler reads the plan as
    :class:`_BlockTables`, built on its first draw.
    """

    inst: Instance
    experiments: tuple[_Experiment, _Experiment]

    @cached_property
    def _tables(self) -> "_BlockTables":
        return _BlockTables.of(self.experiments)


def _int_array(values: Sequence[int]) -> np.ndarray:
    """The nonnegative ints as int64, or as Python ints in an object array
    when one reaches 2**63, so that no value is ever rounded."""
    if max(values, default=0) < 2**63:
        return np.array(values, dtype=np.int64)
    return np.array(values, dtype=object)


@dataclass(frozen=True, eq=False)
class _BlockTables:
    """A plan's two experiments as the arrays the block sampler indexes per row.

    Row ``e`` of each 2-d table belongs to experiment ``e``; both have
    ``t`` low-set and high-set facilities and ``n_f - 2t - 1`` outside
    bins, so their rows have one length.  Each
    experiment's coins are one run of ``stride`` entries of the coin table:
    its low-set facilities' slot coins, then ``extra_coin`` and
    ``extra_slots``.  A row of ``layout`` lists the facilities in the order
    a draw's counts fill the clients, and its class key reads their loads:
    the chosen low facility (column 0, a placeholder filled per draw), the
    high set (designated pool), then the borrowed pivot and the outside
    bins (rest pool).  ``open_sets`` holds
    every open set by the code ``(e * len(choice_set) + choice) * 2 +
    extra_open``.
    """

    choice_den: np.ndarray              # (2,) low-set choice denominators
    thresholds: tuple[np.ndarray, ...]  # per experiment, cumulative numerators
    choice_set: np.ndarray              # (2, n_choice) low-set facility ids
    stride: int
    coin_floor: np.ndarray
    coin_num: np.ndarray
    coin_den: np.ndarray
    layout: np.ndarray                  # (2, 2 + n_high + n_out) facility ids
    n_high: int
    open_sets: tuple[frozenset[int], ...]

    @classmethod
    def of(cls, experiments: Sequence[_Experiment]) -> "_BlockTables":
        coins = [
            coin for exp in experiments
            for coin in (*exp.choice_slots, exp.extra_coin, exp.extra_slots)
        ]
        coin_den = _int_array([coin.den for coin in coins])
        return cls(
            choice_den=_int_array([exp.choice_denominator for exp in experiments]),
            thresholds=tuple(_int_array(exp.choice_thresholds) for exp in experiments),
            choice_set=np.array([exp.choice_set for exp in experiments], dtype=np.int64),
            stride=len(experiments[0].choice_slots) + 2,
            coin_floor=np.array([coin.floor for coin in coins], dtype=np.int64),
            coin_num=np.array([coin.num for coin in coins], dtype=coin_den.dtype),
            coin_den=coin_den,
            layout=np.array(
                [(-1, *exp.always_open, exp.pivot_extra, *exp.outside_bins)
                 for exp in experiments],
                dtype=np.int64,
            ),
            n_high=len(experiments[0].always_open),
            open_sets=tuple(
                exp.open_set(chosen, extra_open)
                for exp in experiments
                for chosen in exp.choice_set
                for extra_open in (False, True)
            ),
        )

    def flip(self, coins: np.ndarray, rng: ExactRng) -> np.ndarray:
        """Each listed coin's value: floor, or floor + 1 when a draw below den is below num."""
        up = rng.integers_below(self.coin_den[coins]) < self.coin_num[coins]
        return self.coin_floor[coins] + up


def _experiment_specs(
    inst: Instance, c1: CoreIndex, c2: CoreIndex
) -> tuple[_Experiment, _Experiment]:
    params = inst.family
    t, eps, x_l = params.t, params.eps, params.x_l
    f, g = pivot_facilities(c1, c2)
    q = inst.facility_count - 2 * t
    p_pivot = 1 - (t - 1) * eps
    p_extra = t * eps
    # both experiments share the two pools: the designated clients and the tail
    n_core, n_rest = len(inst.designated_clients), len(inst.rest_clients)
    w_base = n_core * x_l
    pivot_slots, other_slots = _FloorCoin.of(w_base / p_pivot), _FloorCoin.of(w_base / eps)
    extra_coin = _FloorCoin.of(p_extra)
    extra_slots = _FloorCoin.of(Fraction(n_rest, q) / p_extra if n_rest else ZERO)

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
            choice_denominator=denominator,
            choice_thresholds=thresholds,
            choice_slots=tuple(pivot_slots if flag else other_slots for flag in is_pivot),
            extra_coin=extra_coin,
            extra_slots=extra_slots,
        )

    return build("A", c1, f, g), build("B", c2, g, f)


# Most facilities a plan is compiled for: its outside bins, open sets and
# the sampler's tables hold every facility id (at 10**6 facilities and
# t = 2, verify_midpoint peaks near 0.7 GB).
PLAN_FACILITY_LIMIT = 1_000_000


def compile_plan(inst: Instance, c1: CoreIndex, c2: CoreIndex) -> RoundingPlan:
    """Validate the instance and the pair, then compile their distribution.

    Raises ValueError when the instance parameters are invalid or the
    instance has more than ``PLAN_FACILITY_LIMIT`` facilities (checked
    before anything that wide is built), and NonCollidingPairError (naming
    the empty side) when the pair does not collide.
    """
    require_valid(inst)
    if inst.facility_count > PLAN_FACILITY_LIMIT:
        raise ValueError(
            f"facility count {inst.facility_count} exceeds the rounding plan's limit "
            f"{PLAN_FACILITY_LIMIT}: its per-facility tables would not fit in memory"
        )
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


@dataclass(frozen=True, eq=False)
class DrawChunk:
    """Consecutive draws of one plan as arrays, one row per draw.

    Row ``r`` has the branch ``branches[r]`` (experiment index, chosen low
    facility, ``extra_open`` as 0 or 1), the open set
    ``open_sets[open_of[r]]`` and the assignment ``assign[r]``; the rows
    share one assignment length.  Rows from ``sample_block(...,
    shuffle=False)`` keep each client pool's segment in pool order (its
    facilities by count): the facility loads of the shuffled rows, but not
    a uniform assignment.
    """

    branches: np.ndarray
    open_of: np.ndarray
    open_sets: tuple[frozenset[int], ...]
    assign: np.ndarray

    def __len__(self) -> int:
        return len(self.branches)

    def draw(self, plan: RoundingPlan, row: int) -> SampleDraw:
        """Row ``row`` as a draw of ``plan``; its assignment is a view of the row."""
        exp_index, chosen, extra_open = self.branches[row].tolist()
        return SampleDraw(
            solution=IntSolution(self.open_sets[self.open_of[row]], self.assign[row]),
            experiment=plan.experiments[exp_index].label,
            chosen_l_facility=chosen,
            extra_open=bool(extra_open),
        )


# Bytes of assignments (and of the facility loads tally_draws counts from
# them) that sample_block materializes at once.
_CHUNK_BYTES = 1 << 18


def _draw_decisions(
    plan: RoundingPlan, rng: ExactRng, count: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every random decision of ``count`` draws, one row per draw.

    In stream order: the experiment coin, the low-set choice (a draw below
    the experiment's denominator, looked up in its thresholds), the chosen
    facility's slot coin, the borrowed pivot's opening coin, its slot coin
    (on the rows where it opens) and the two near-even splits.  Returns the
    branch rows, the open-set codes (see :class:`_BlockTables`) and the
    counts per ``layout`` column, which fill the client pools exactly.
    """
    tables, inst = plan._tables, plan.inst
    n_core, m_rest = len(inst.designated_clients), len(inst.rest_clients)
    exp_of = rng.integers_below(np.full(count, 2))
    u = rng.integers_below(tables.choice_den[exp_of])
    choice = np.empty(count, dtype=np.int64)
    for exp_index, thresholds in enumerate(tables.thresholds):
        rows = exp_of == exp_index
        choice[rows] = np.searchsorted(thresholds, u[rows], side="right")
    first_coin = exp_of * tables.stride
    slots1 = tables.flip(first_coin + choice, rng)
    extra_open = tables.flip(first_coin + tables.stride - 2, rng) == 1
    slots2 = np.zeros(count, dtype=np.int64)
    slots2[extra_open] = tables.flip(first_coin[extra_open] + tables.stride - 1, rng)
    n_out = tables.layout.shape[1] - 2 - tables.n_high
    counts = np.concatenate((
        slots1[:, None],
        _near_even_rows(n_core - slots1, tables.n_high, rng),
        slots2[:, None],
        _near_even_rows(m_rest - slots2, n_out, rng),
    ), axis=1)
    if count and (counts.min() < 0 or counts.max() > inst.capacity):
        raise RuntimeError(
            "a drawn slot count overfills its pool or exceeds capacity: "
            "the plan's distribution has an infeasible outcome class"
        )
    n_choice = tables.choice_set.shape[1]
    branches = np.stack(
        (exp_of, tables.choice_set[exp_of, choice], extra_open.astype(np.int64)), axis=1
    )
    open_of = (exp_of * n_choice + choice) * 2 + extra_open
    return branches, open_of, counts


def sample_block(
    plan: RoundingPlan, rng: ExactRng, count: int, *, shuffle: bool = True
) -> Iterator[DrawChunk]:
    """``count`` draws from the distribution, as chunks of rows in draw order.

    Every decision of the block is drawn first, as arrays
    (:func:`_draw_decisions`), so the branches and slot counts, and with
    them every class count, do not depend on how the rows are chunked.
    Then each chunk of at most ``_CHUNK_BYTES`` of assignments (or of
    facility loads, if wider) is materialized: one ``np.repeat`` of its
    rows' facilities by their counts, in pool order.  With ``shuffle``
    (the default), each pool's segment of every row is then shuffled in
    place, which gives the same uniform assignment as permuting the pool's
    clients and handing them out in order.  Only a reader of per-client
    assignments needs the shuffle: facility loads, and with them
    feasibility and class keys, do not change under a permutation within a
    row, and the shuffle draws from ``rng`` after every decision of the
    block, so the decisions are the same either way (the state ``rng`` is
    left in is not).  Assignments are read-only.
    """
    inst, tables = plan.inst, plan._tables
    branches, open_of, counts = _draw_decisions(plan, rng, count)
    n_core, n_clients = len(inst.designated_clients), inst.client_count
    step = max(1, _CHUNK_BYTES // (8 * max(n_clients, inst.facility_count, 1)))
    for lo in range(0, count, step):
        hi = min(count, lo + step)
        facilities = tables.layout[branches[lo:hi, 0]]
        facilities[:, 0] = branches[lo:hi, 1]
        assign = np.repeat(facilities.ravel(), counts[lo:hi].ravel())
        assign = assign.reshape(hi - lo, n_clients)
        if shuffle:
            rng.shuffle_rows(assign[:, :n_core])
            rng.shuffle_rows(assign[:, n_core:])
        assign.setflags(write=False)
        yield DrawChunk(branches[lo:hi], open_of[lo:hi], tables.open_sets, assign)


def sample_outcome(plan: RoundingPlan, rng: ExactRng) -> SampleDraw:
    """One draw from the distribution, with its branch identifiers.

    The one-row case of :func:`sample_block`.
    """
    (chunk,) = sample_block(plan, rng, 1)
    return chunk.draw(plan, 0)


# ---------------------------------------------------------------------------
# Outcome-class enumeration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OutcomeClass:
    """All outcomes sharing one branch combination and one slot profile.

    Client-subset choices and which-bin-gets-the-extra-slot choices are
    collapsed: the profile stores the canonical representative (ceil slots on
    the lowest-id bins), and ``probability`` covers the whole class.  The
    profile is held as ``parts``, one per facility group, each ``(entries,
    served, over)``: its nonzero ``(facility, count)`` entries sorted by
    facility, the clients they serve and the entries above capacity.
    Classes share parts; ``slot_profile`` joins them on first read.

    ``members`` are the low-set facilities the class stands for.  A class of
    :func:`enumerate_outcome_classes` has one, its ``chosen_l_facility``.  A
    class of :func:`enumerate_grouped_classes` stands for a group of
    exchangeable ones: its other fields describe the outcomes with
    ``chosen_l_facility`` (the first member) chosen, each other member's
    outcomes are the same with that member in its place, and
    ``probability`` covers every member.
    """

    experiment: str
    members: tuple[int, ...]
    extra_open: bool
    parts: tuple[tuple, tuple, tuple, tuple]  # chosen, high set, pivot, outside
    probability: Fraction
    open_facilities: frozenset[int]
    problems: tuple[str, ...]  # why the class is infeasible; empty if feasible

    @property
    def chosen_l_facility(self) -> int:
        return self.members[0]

    @property
    def feasible(self) -> bool:
        return not self.problems

    @cached_property
    def slot_profile(self) -> tuple[tuple[int, int], ...]:
        """Nonzero ``(facility, count)`` entries of every part, sorted by facility."""
        entries = [entry for part in self.parts for entry in part[0]]
        return tuple(sorted(entries, key=itemgetter(0)))

    @property
    def key(self) -> tuple:
        return (self.experiment, self.chosen_l_facility, self.extra_open, self.slot_profile)


_NO_PART: tuple = ((), 0, ())  # (entries, served, over) of an empty part


def _split_part(total: int, bins: tuple[int, ...], capacity: int) -> tuple:
    """The canonical split of ``total >= 0`` over ``bins`` as a part: ceil counts first."""
    if not bins:
        if total:
            raise ValueError("cannot split clients over zero bins")
        return _NO_PART
    base, extra = divmod(total, len(bins))
    entries = tuple(zip(bins[:extra], repeat(base + 1)))
    if base:
        entries += tuple(zip(bins[extra:], repeat(base)))
    over = ()
    if base + (extra > 0) > capacity:  # the largest count
        over = tuple(entry for entry in entries if entry[1] > capacity)
    return entries, total, over


# One branch combination of a chosen group, for any one member chosen:
# (slots1, extra_open, parts, probability, problems, over).  ``slots1`` are
# the chosen facility's clients, ``parts`` the high-set, pivot and outside
# parts, ``probability`` that of the branch with one given member chosen,
# ``problems`` the ones that name no facility (an overfilled pool, the served
# count) and ``over`` the entries of ``parts`` above capacity, unsorted.
_GroupBranch = tuple[int, bool, tuple, Fraction, tuple[str, ...], tuple]


def _choice_groups(exp: _Experiment, other: _Experiment) -> list[tuple[int, ...]]:
    """``exp``'s low set as groups of exchangeable facilities: its pivot (the
    facility ``other`` borrows), then the others in the other index's k (the
    high set of ``other``), in its l, and outside both."""
    pivot = other.pivot_extra
    rest = [i for i in exp.choice_set if i != pivot]
    k, l = frozenset(other.always_open), frozenset(other.choice_set)
    roles = (
        [i for i in rest if i in k],
        [i for i in rest if i in l],
        [i for i in rest if i not in k and i not in l],
    )
    return [(pivot,), *(tuple(role) for role in roles if role)]


def _group_branches(
    plan: RoundingPlan,
) -> Iterator[tuple[_Experiment, list[tuple[tuple[int, ...], list[_GroupBranch]]]]]:
    """Per experiment, each chosen group with its branches in enumeration order.

    Within an experiment, the members of a group (:func:`_choice_groups`)
    have one choice probability, one slot coin and open sets of one shape,
    so a group's branches are built once for all of them.  A low-set choice
    has its threshold step over the denominator, halved by the fair
    experiment coin; a coin with no fractional part has one branch, so no
    branch of probability zero (e.g. the closed-pivot branch when t*eps = 1)
    appears.  A branch's parts are the split of the designated remainder
    over the high set (step 1), then the borrowed pivot's slots and the
    split of the rest over the outside bins (step 2).  Each distinct
    (remainder, bin group) split is built and checked against capacity once
    per call and shared by the branches that use it, so a branch costs
    O(1), not O(facilities).
    """
    inst = plan.inst
    # local to this call; the experiments share their coins
    split = cache(partial(_split_part, capacity=inst.capacity))
    coin_branches = cache(_FloorCoin.branches)
    n_core, m_rest = len(inst.designated_clients), len(inst.rest_clients)
    for exp, other in zip(plan.experiments, plan.experiments[::-1]):
        step2: list[tuple[bool, int, Fraction, tuple, tuple, tuple[str, ...]]] = []
        # the open branches (coin reads 1) before the closed one
        branches2 = [
            (opened == 1, slots2, p_open * p_r2)
            for opened, p_open in reversed(coin_branches(exp.extra_coin))
            for slots2, p_r2 in (coin_branches(exp.extra_slots) if opened else [(0, ONE)])
        ]
        for extra_open, slots2, p_s2 in branches2:
            rem2 = m_rest - slots2
            problems2: tuple[str, ...] = ()
            rest = _NO_PART
            if rem2 < 0:
                problems2 = (
                    f"{slots2} borrowed-pivot slots overfill the rest pool (size {m_rest})",
                )
            elif exp.outside_bins:
                rest = split(rem2, exp.outside_bins)
            elif rem2 > 0:
                problems2 = (f"no outside facility serves the {rem2} remaining clients",)
            pivot = split(slots2, (exp.pivot_extra,))
            step2.append((extra_open, slots2, p_s2, pivot, rest, problems2))

        bounds = zip((0,) + exp.choice_thresholds, exp.choice_thresholds)
        steps = dict(zip(exp.choice_set, zip(bounds, exp.choice_slots)))
        groups = []
        for group in _choice_groups(exp, other):
            (lo, hi), coin = steps[group[0]]
            p_choice = Fraction(hi - lo, 2 * exp.choice_denominator)
            branches = []
            for slots1, p_r1 in coin_branches(coin):
                rem1 = n_core - slots1
                problems1: tuple[str, ...] = ()
                high = _NO_PART
                if rem1 >= 0:
                    high = split(rem1, exp.always_open)
                else:
                    problems1 = (
                        f"{slots1} step-1 slots overfill the designated pool (size {n_core})",
                    )
                p1 = p_choice * p_r1
                for extra_open, slots2, p_s2, pivot, rest, problems2 in step2:
                    problems = problems1 + problems2
                    served = slots1 + high[1] + pivot[1] + rest[1]
                    if served != inst.client_count:
                        problems += (
                            f"the profile serves {served} of {inst.client_count} clients",
                        )
                    branches.append((
                        slots1, extra_open, (high, pivot, rest), p1 * p_s2, problems,
                        high[2] + pivot[2] + rest[2],
                    ))
            groups.append((group, branches))
        yield exp, groups


def _group_classes(
    exp: _Experiment, members: tuple[int, ...], branches: Sequence[_GroupBranch], capacity: int
) -> Iterator[OutcomeClass]:
    """The classes of a group's branches, standing for ``members``, with the first chosen."""
    chosen, count = members[0], len(members)
    lows: dict[int, tuple] = {}  # the chosen facility's part, per slot count
    open_sets: dict[bool, frozenset[int]] = {}
    for slots1, extra_open, parts, probability, problems, over in branches:
        if count > 1:
            probability *= count
        low = lows.get(slots1)
        if low is None:
            low = lows[slots1] = _split_part(slots1, (chosen,), capacity)
        open_set = open_sets.get(extra_open)
        if open_set is None:
            open_set = open_sets[extra_open] = exp.open_set(chosen, extra_open)
        if low[2] or over:
            problems += tuple(
                f"facility {fac} serves {cnt} clients above capacity {capacity}"
                for fac, cnt in sorted(low[2] + over)
            )
        # the bin groups lie in base_open, so only the borrowed pivot can
        # serve clients while closed
        if parts[1][1] and exp.pivot_extra not in open_set:
            problems += (f"closed facilities {[exp.pivot_extra]} serve clients",)
        yield OutcomeClass(
            experiment=exp.label,
            members=members,
            extra_open=extra_open,
            parts=(low, *parts),
            probability=probability,
            open_facilities=open_set,
            problems=problems,
        )


def enumerate_grouped_classes(plan: RoundingPlan) -> list[OutcomeClass]:
    """Every branch combination per chosen group with exact probability;
    probabilities sum to 1.

    Each group's classes are built once, with its first member chosen, and
    stand for all its members (see :class:`OutcomeClass`).  An experiment
    has at most four groups, each with at most 2 x 3 branch combinations,
    so there are at most 48 classes for any t.
    """
    capacity = plan.inst.capacity
    return [
        cl
        for exp, groups in _group_branches(plan)
        for group, branches in groups
        for cl in _group_classes(exp, group, branches, capacity)
    ]


def enumerate_outcome_classes(plan: RoundingPlan) -> list[OutcomeClass]:
    """Every branch combination with exact probability, per low-set facility;
    probabilities sum to 1.

    The groups of :func:`enumerate_grouped_classes`, expanded: per
    experiment, each low-set facility in ascending order gets its group's
    classes with itself chosen, each with its own probability.
    """
    capacity = plan.inst.capacity
    out: list[OutcomeClass] = []
    for exp, groups in _group_branches(plan):
        branches_of = {i: branches for group, branches in groups for i in group}
        for chosen in exp.choice_set:
            out.extend(_group_classes(exp, (chosen,), branches_of[chosen], capacity))
    return out


def outcome_class_key(plan: RoundingPlan, draw: SampleDraw) -> Optional[tuple]:
    """Canonical class key of a sampled draw, matching OutcomeClass.key.

    The one-draw case of :func:`_row_loads` and :func:`_class_counts`: a
    draw whose assignment cannot be counted (a wrong length or an unknown
    facility id) has no key, as in :func:`tally_draws`, and gets None.
    """
    counted, loads = _row_loads(plan.inst, draw.solution.assign[None])
    if not counted[0]:
        return None
    (key,) = _class_counts(plan, np.array([_branch_row(plan, draw)]), loads)
    return key


def _branch_row(plan: RoundingPlan, draw: SampleDraw) -> tuple[int, int, int]:
    """(experiment index, chosen low facility, extra_open) of a draw."""
    exp_index = 0 if draw.experiment == plan.experiments[0].label else 1
    return exp_index, draw.chosen_l_facility, int(draw.extra_open)


def _class_key(exp: _Experiment, chosen: int, extra_open: int, row: list[int]) -> tuple:
    """The OutcomeClass.key of a draw of ``exp`` from its key row.

    The row holds the counts of the draw's ``_BlockTables.layout`` row: the
    chosen low facility, the high set, the borrowed pivot and the outside
    bins, each bin group's counts in ascending order.  Those go onto the
    group's ids in descending order, collapsing which-bin-got-the-extra-slot
    choices exactly as the enumerator does.
    """
    facilities = (chosen, *exp.always_open[::-1], exp.pivot_extra, *exp.outside_bins[::-1])
    profile = sorted(filter(itemgetter(1), zip(facilities, row)))
    return exp.label, chosen, bool(extra_open), tuple(profile)


def _class_counts(plan: RoundingPlan, branches: np.ndarray, loads: np.ndarray) -> Counter:
    """Class keys of draws, matching OutcomeClass.key, with how many draws have each.

    Row r of ``branches`` is draw r's :func:`_branch_row` and row r of
    ``loads`` its clients per facility.  The key rows (the branch, then the
    counts of :func:`_class_key`) are gathered and sorted at once, both
    experiments' layout rows having one length, and counted by their bytes,
    so no per-entry Python int is made and only distinct rows become keys.
    """
    tables = plan._tables
    facilities = tables.layout[branches[:, 0]]
    facilities[:, 0] = branches[:, 1]
    key_rows = np.concatenate(
        (branches, loads[np.arange(len(loads))[:, None], facilities]), axis=1
    )
    high_end = 4 + tables.n_high
    key_rows[:, 4:high_end].sort(axis=1)
    key_rows[:, high_end + 1:].sort(axis=1)
    freq: Counter = Counter()
    for key_row, n in Counter(map(bytes, key_rows)).items():
        exp_index, chosen, extra_open, *row = np.frombuffer(key_row, dtype=key_rows.dtype).tolist()
        freq[_class_key(plan.experiments[exp_index], chosen, extra_open, row)] += n
    return freq


# Bytes of facility loads that tally_draws holds before keying them: a
# block of 1,000 draws is keyed at once up to 1,048 facilities.
_LOAD_TABLE_BYTES = 1 << 23


def _open_limits(inst: Instance, open_sets: Sequence[frozenset[int]]) -> np.ndarray:
    """Per open set, the capacity on its members and 0 elsewhere; -1
    everywhere when it names an unknown facility id, so no row fits it."""
    limits = np.zeros((len(open_sets), inst.facility_count), dtype=np.int64)
    for index, open_set in enumerate(open_sets):
        if _has_unknown_id(open_set, inst.facility_count):
            limits[index] = -1
        else:
            limits[index, list(open_set)] = inst.capacity
    return limits


def tally_draws(
    plan: RoundingPlan, chunks: Iterable[DrawChunk], max_examples: int
) -> tuple[int, Counter, list[tuple[int, list[str]]]]:
    """Check and key the draws of ``plan``, given as chunks in draw order.

    Each chunk is checked from its own assignments, counted by
    :func:`_row_loads`.  A row is feasible iff it can be counted and no
    facility serves more than its limit: the capacity on the row's open
    set, 0 elsewhere (what :func:`solution_violations` checks).  A row whose
    assignment cannot be counted (a wrong length or an unknown facility id)
    is infeasible and has no class key.  The counted rows' loads are keyed by
    :func:`_class_counts` whenever ``_LOAD_TABLE_BYTES`` of them are held,
    and at the end.  Returns the number of feasible draws, the class-key
    counts, and ``(position, solution_violations)`` of the first
    ``max_examples`` infeasible draws in draw order.
    """
    inst = plan.inst
    key_rows = max(1, _LOAD_TABLE_BYTES // (8 * inst.facility_count))
    limits: dict[tuple[frozenset[int], ...], np.ndarray] = {}
    feasible, freq, examples = 0, Counter(), []
    held: list[tuple[np.ndarray, np.ndarray]] = []  # branches and loads not yet keyed
    held_rows = position = 0

    def key_held() -> None:
        branches, loads = (np.concatenate(part) for part in zip(*held))
        freq.update(_class_counts(plan, branches, loads))
        held.clear()

    for chunk in chunks:
        rows, open_sets, open_of = len(chunk), chunk.open_sets, chunk.open_of
        counted, loads = _row_loads(inst, chunk.assign)
        limit = limits.get(open_sets)
        if limit is None:
            limit = limits[open_sets] = _open_limits(inst, open_sets)
        bad = ~counted | (loads > limit[open_of]).any(axis=1)
        for row in np.flatnonzero(bad)[: max_examples - len(examples)].tolist():
            sol = IntSolution(open_sets[open_of[row]], chunk.assign[row])
            examples.append((position + row, solution_violations(inst, sol)))
        feasible += rows - int(bad.sum())
        position += rows
        if counted.any():
            keep = slice(None) if counted.all() else counted  # a view when all count
            held.append((chunk.branches[keep], loads[keep]))
            held_rows += int(counted.sum())
            if held_rows >= key_rows:
                key_held()
                held_rows = 0
    if held:
        key_held()
    return feasible, freq, examples


# ---------------------------------------------------------------------------
# Expectation over the outcome classes
# ---------------------------------------------------------------------------


def expected_vector(plan: RoundingPlan, classes: Sequence[OutcomeClass]) -> FracVector:
    """Exact expectation of the distribution: sum of probability x class mean.

    ``classes`` are the plan's enumerated outcome classes, per low-set
    facility or per chosen group.  Within a class, clients are exchangeable
    within their pool and facilities within their group, so a class's mean
    depends only on group totals: each facility of a group gets the clients
    the group serves / (group size x pool size) on every client of that
    pool, and y = the group's open members / group size.  The designated
    pool is served by the chosen group (a class's ``members``) and the high
    set, the rest pool by the borrowed pivot and the outside bins.  Each
    class adds its parts' served counts to their groups' totals, and a
    group's open members are counted once per distinct open set.  Totals are
    expanded to facilities once; facilities with equal values share a class.
    """
    inst = plan.inst

    # each group has a small key, (experiment, role): "high" for the high
    # set, "out" for the outside bins, "pivot" for the borrowed pivot and
    # its members for a chosen group
    groups: dict[tuple[str, object], tuple[int, ...]] = {}
    for exp in plan.experiments:
        groups[exp.label, "high"] = exp.always_open
        groups[exp.label, "out"] = exp.outside_bins
        groups[exp.label, "pivot"] = (exp.pivot_extra,)
    for cl in classes:
        groups[cl.experiment, cl.members] = cl.members

    # group key -> probability-weighted [open members, clients served from
    # the designated pool, clients served from the rest pool], as integers
    # over the common denominator of the class probabilities
    weights, den = over_common_denominator([cl.probability for cl in classes])
    sums = {key: [0, 0, 0] for key in groups}
    opened: dict[tuple[str, tuple[int, ...], frozenset[int]], int] = {}  # weight per open set
    for cl, weight in zip(classes, weights):
        label, members = cl.experiment, cl.members
        low, high, pivot, rest = cl.parts
        sums[label, members][1] += weight * low[1]
        sums[label, "high"][1] += weight * high[1]
        sums[label, "pivot"][2] += weight * pivot[1]
        sums[label, "out"][2] += weight * rest[1]
        at = (label, members, cl.open_facilities)
        opened[at] = opened.get(at, 0) + weight
    for (label, members, open_set), weight in opened.items():
        for role in (members, "high", "pivot", "out"):
            key = (label, role)
            sums[key][0] += weight * len(open_set.intersection(groups[key]))

    # each facility lies in one group per experiment; the facilities that
    # share both groups get one value, computed once
    group_of: dict[int, list] = {i: [] for i in inst.facilities}
    for key, group in groups.items():
        for i in group:
            group_of[i].append(key)
    atoms: dict[tuple, list[int]] = {}
    for i, keys in group_of.items():
        atoms.setdefault(tuple(keys), []).append(i)

    # a value is one integer numerator per coordinate over that coordinate's
    # denominator (den x scale, x pool size for x), so it keys by numerators
    pools = [inst.designated_clients] + ([inst.rest_clients] if inst.rest_clients else [])
    scale = lcm(*(len(group) for group in groups.values() if group))
    values: dict[tuple[int, ...], list[int]] = {}
    for keys, members in atoms.items():
        value = tuple(
            sum(sums[key][c] * (scale // len(groups[key])) for key in keys)
            for c in range(1 + len(pools))
        )
        values.setdefault(value, []).extend(members)

    dens = [den * scale] + [den * scale * len(pool) for pool in pools]
    ordered = sorted(values.items(), key=lambda kv: min(kv[1]))
    return FracVector(
        inst.facility_count,
        inst.client_count,
        [members for _, members in ordered],
        pools,
        [Fraction(value[0], dens[0]) for value, _ in ordered],
        [[Fraction(n, d) for n, d in zip(value[1:], dens[1:])] for value, _ in ordered],
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
    class_count: int  # per-facility classes, as enumerate_outcome_classes lists them
    probability_sum: Fraction

    @property
    def valid(self) -> bool:
        return (
            self.expectation_matches
            and self.all_classes_feasible
            and self.probability_sum == 1
        )


def verify_midpoint(inst: Instance, c1: CoreIndex, c2: CoreIndex) -> MidpointCertificate:
    """Exact midpoint-membership certificate for a colliding pair.

    Reads the classes per chosen group: a group's classes are feasible
    exactly when each member's are, and the expectation spreads their mass
    evenly over the members, so the number of classes does not grow with t.
    """
    plan = compile_plan(inst, c1, c2)
    classes = enumerate_grouped_classes(plan)
    mid = midpoint(make_core_vector(inst, c1.k, c1.l), make_core_vector(inst, c2.k, c2.l))
    weights, den = over_common_denominator([cl.probability for cl in classes])
    return MidpointCertificate(
        pair=(c1, c2),
        expectation_matches=expected_vector(plan, classes).equals(mid),
        all_classes_feasible=all(cl.feasible for cl in classes),
        class_count=sum(len(cl.members) for cl in classes),
        probability_sum=Fraction(sum(weights), den),
    )
