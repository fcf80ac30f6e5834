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
facility roles (the outside facilities as ``corevec.Runs``), their groups of
exchangeable low-set facilities and the client pools as ranges.  The plan
stores the distribution only in compiled form: the low-set choice as integer
thresholds over one denominator, and every slot target and the borrowed
pivot's opening as a floor/ceil coin.  Two views read the same plan:

* :func:`sample_block` draws a block of integer solutions
  (seed-deterministic) as :class:`DrawChunk` arrays.  Every decision of the
  block is drawn first, one array per step, by comparing uniform integers
  with the thresholds and coins (exactly, for any denominator; no
  ``Fraction`` and no float).  A chunk keeps each row in run form, its
  layout facilities in pool order with their slot counts, and builds no
  per-client row: feasibility and outcome classes depend only on facility
  loads.  Only a reader of per-client assignments expands a chunk
  (:meth:`DrawChunk.draws`): pieces of rows, one ``np.repeat`` of their
  facility counts, then each client pool's segment of every row shuffled
  in place.  :func:`sample_outcome` is its one-row case, and
* :func:`enumerate_grouped_classes` lists every branch of the same
  thresholds and coins with its exact probability, an integer weight over
  the plan's one denominator (:attr:`RoundingPlan.denominator`),
  collapsing exchangeable client and bin choices, and exchangeable low-set
  facilities into groups (at most four per experiment, for any t); each
  class holds its slot profile as one shared part per facility group, in
  run entries, and its open set as runs.
  :func:`enumerate_outcome_classes` expands the groups into one set of
  classes per low-set facility, the classes a draw is keyed by.

:func:`tally_draws` checks and keys the chunks from their facility loads.
One function counts loads, :func:`_row_loads`: unknown ids go to one extra
column, then a run form's counts are added at their ids and a one-row
assignment is counted by one ``bincount``.
:func:`solution_violations` and :func:`outcome_class_key` are its one-row
cases, so a draw the tally cannot count has violations and no key in all
three.

:func:`verify_midpoint` certifies constructively, from the grouped class
list, that the midpoint of a colliding pair is a convex combination of
feasible integer solutions: these weights, these feasible points, this
exact sum.  It sums weight times the parts into group totals as integers
(:func:`_expectation`) and compares them with the midpoint's numerators,
scaled to one denominator, on the common refinement of both experiments'
groups and both core vectors' classes; no ``Fraction`` is made on the way
and nothing grows with the facility count.  :func:`expected_vector` is the
same sum as a vector.
A plan is built per command or caller and passed explicitly.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain
from math import lcm
from operator import add, itemgetter
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .corevec import (CoreIndex, FracVector, RunRows, Runs, _gaps, _refine, _runs, _size,
                      _sorted_runs, make_core_vector)
from .instance import (CLIENT_LIMIT, FACILITY_LIMIT, ZERO, Instance, over_common_denominator,
                       require_narrow, require_valid)
from .randomness import ExactRng

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


def _row_loads(
    inst: Instance, ids: np.ndarray, counts: Optional[np.ndarray] = None
) -> tuple[np.ndarray, np.ndarray]:
    """Per row of 2-d int64 ``ids``, whether it can be counted and its
    clients per facility.

    Without ``counts``, ``ids`` is an assignment, one id per client; with
    them, a run form: entry ``ids[r, e]`` serves ``counts[r, e] >= 0``
    clients (an id may recur).  A row can be counted when its counts sum
    to the client count and it names no unknown facility id with a nonzero
    count.  Read as uint64, a negative id is at least 2**63, so one minimum
    sends every unknown id to an extra column ``n_f`` and a huge id costs
    no table.  Each row's ids go into its own ``n_f + 1`` columns of one
    flat table: by one ``bincount`` of an assignment, each row offset by
    ``row * (n_f + 1)``, or by ``np.add.at`` of a run form's counts.  The
    loads of a row that cannot be counted mean nothing.
    """
    rows, n_f = len(ids), inst.facility_count
    ids = np.minimum(ids.view(np.uint64), n_f).view(np.int64)
    if rows > 1:  # one row needs no offset, so a single draw stays cheap to check
        ids += np.arange(0, rows * (n_f + 1), n_f + 1)[:, None]
    if counts is None:
        loads, served = np.bincount(ids.ravel(), minlength=rows * (n_f + 1)), ids.shape[1]
    else:
        loads, served = np.zeros(rows * (n_f + 1), dtype=np.int64), counts.sum(axis=1)
        np.add.at(loads, ids.ravel(), counts.ravel())
    loads = loads.reshape(rows, n_f + 1)
    counted = (loads[:, n_f] == 0) & (served == inst.client_count)
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
    probabilities as integers over a multiple of ``den``, so the sampler and
    the enumerator read one coin.
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

    def branches(self, scale: int) -> list[tuple[int, int]]:
        """Each value with its probability's numerator over ``scale``, a
        multiple of ``den``: ``[(floor, scale)]``, or ``[(floor, (den - num)
        * f), (floor + 1, num * f)]`` with ``f = scale // den``."""
        if not self.num:
            return [(self.floor, scale)]
        f = scale // self.den
        return [(self.floor, (self.den - self.num) * f), (self.floor + 1, self.num * f)]


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
    outside: Runs                  # remaining facilities, always opened in step 2
    # choice_set[i] opens on a draw below choice_denominator in
    # [choice_thresholds[i-1], choice_thresholds[i]) and takes choice_slots[i]
    choice_denominator: int
    choice_thresholds: tuple[int, ...]
    choice_slots: tuple[_FloorCoin, ...]
    # choice_set as groups of exchangeable facilities (one choice step, one
    # slot coin, open sets of one shape): the pivot, then the others in the
    # other index's k, in its l and outside both
    choice_groups: tuple[tuple[int, ...], ...]
    extra_coin: _FloorCoin   # reads 1 (probability t*eps) when pivot_extra opens
    extra_slots: _FloorCoin  # pivot_extra's slot target when it opens
    # the same facilities as runs: the high set, each choice group, and the
    # open set of a branch before its chosen facility and the borrowed pivot
    # are added (the high set and the outside bins)
    high_runs: Runs
    group_runs: dict[tuple[int, ...], Runs]
    base_open: Runs

    def closed(self, chosen: int, extra_open: bool) -> list[int]:
        """A branch's closed facilities: the unchosen low-set ones and, unless
        it opens, the borrowed pivot."""
        closed = [i for i in self.choice_set if i != chosen]
        if not extra_open:
            closed.append(self.pivot_extra)
        return closed


@dataclass(frozen=True, eq=False)
class RoundingPlan:
    """The rounding distribution of one validated colliding pair.

    Built by :func:`compile_plan`; experiment ``A`` is owned by the pair's
    first index, ``B`` by its second.  The block sampler reads the plan as
    :class:`_BlockTables`, built on its first draw; only those tables list
    facility ids one by one.
    """

    inst: Instance
    experiments: tuple[_Experiment, _Experiment]

    @cached_property
    def scales(self) -> tuple[int, int, int, int]:
        """The common denominators, over both experiments, of the four
        decisions after the fair experiment coin: the low-set choice, the
        chosen facility's slot coin, the borrowed pivot's opening coin and
        its slot coin."""
        exps = self.experiments
        return (
            lcm(*(exp.choice_denominator for exp in exps)),
            lcm(*{coin.den for exp in exps for coin in exp.choice_slots}),
            lcm(*(exp.extra_coin.den for exp in exps)),
            lcm(*(exp.extra_slots.den for exp in exps)),
        )

    @cached_property
    def denominator(self) -> int:
        """The one denominator of every branch probability and class weight
        (:attr:`OutcomeClass.weight`): twice the product of the scales."""
        choice, slots, opening, extra = self.scales
        return 2 * choice * slots * opening * extra

    @cached_property
    def _tables(self) -> "_BlockTables":
        return _BlockTables.of(self.inst, self.experiments)


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
    extra_open``.  An instance of more than ``FACILITY_LIMIT`` facilities
    is refused with a ValueError before any table is built.
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
    def of(cls, inst: Instance, experiments: Sequence[_Experiment]) -> "_BlockTables":
        require_narrow("facility", inst.facility_count, FACILITY_LIMIT, "the sampler's")
        coins = [
            coin for exp in experiments
            for coin in (*exp.choice_slots, exp.extra_coin, exp.extra_slots)
        ]
        coin_den = _int_array([coin.den for coin in coins])
        everyone = frozenset(range(inst.facility_count))
        return cls(
            choice_den=_int_array([exp.choice_denominator for exp in experiments]),
            thresholds=tuple(_int_array(exp.choice_thresholds) for exp in experiments),
            choice_set=np.array([exp.choice_set for exp in experiments], dtype=np.int64),
            stride=len(experiments[0].choice_slots) + 2,
            coin_floor=np.array([coin.floor for coin in coins], dtype=np.int64),
            coin_num=np.array([coin.num for coin in coins], dtype=coin_den.dtype),
            coin_den=coin_den,
            layout=np.array(
                [(-1, *exp.always_open, exp.pivot_extra,
                  *chain.from_iterable(range(lo, hi) for lo, hi in exp.outside))
                 for exp in experiments],
                dtype=np.int64,
            ),
            n_high=len(experiments[0].always_open),
            open_sets=tuple(
                everyone.difference(exp.closed(chosen, extra_open))
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
    t, eps = params.t, params.eps
    p_pivot = 1 - (t - 1) * eps
    p_extra = t * eps
    # p_pivot + (t - 1) * eps = 1: the steps fill the denominator
    steps, choice_denominator = over_common_denominator([p_pivot, eps] if t > 1 else [p_pivot])
    pivot_step, other_step = steps[0], steps[-1]
    # both experiments share the two pools: the designated clients and the tail
    n_core, n_rest = len(inst.designated_clients), len(inst.rest_clients)
    w_base = n_core * params.x_l
    pivot_slots, other_slots = _FloorCoin.of(w_base / p_pivot), _FloorCoin.of(w_base / eps)
    extra_coin = _FloorCoin.of(p_extra)
    extra_slots = _FloorCoin.of(
        Fraction(n_rest, inst.facility_count - 2 * t) / p_extra if n_rest else ZERO
    )

    def build(
        label: str, own: CoreIndex, other: CoreIndex, pivot: int, borrowed: int
    ) -> _Experiment:
        # the own pivot takes the residual probability, the other low-set
        # facilities eps each; the other side's pivot is the borrowed one
        choice_set = tuple(sorted(own.l))
        at = choice_set.index(pivot)
        steps = [other_step] * len(choice_set)
        steps[at] = pivot_step
        slots = [other_slots] * len(choice_set)
        slots[at] = pivot_slots
        # the pivot, then the other low-set facilities in the other index's
        # k, in its l and outside both
        groups = tuple(filter(None, (
            (pivot,),
            tuple(sorted(own.l & other.k)),
            tuple(sorted(own.l & other.l)),
            tuple(sorted(own.l - other.k - other.l - {pivot})),
        )))
        always_open = tuple(sorted(own.k))
        high = _sorted_runs(always_open)
        outside = _gaps(_runs(high + _sorted_runs(choice_set) + ((borrowed, borrowed + 1),)),
                        inst.facility_count)
        return _Experiment(
            label=label,
            always_open=always_open,
            choice_set=choice_set,
            pivot_extra=borrowed,
            outside=outside,
            choice_denominator=choice_denominator,
            choice_thresholds=tuple(accumulate(steps)),
            choice_slots=tuple(slots),
            choice_groups=groups,
            extra_coin=extra_coin,
            extra_slots=extra_slots,
            high_runs=high,
            group_runs={group: _sorted_runs(group) for group in groups},
            base_open=_runs(high + outside),
        )

    pivot1, pivot2 = pivot_facilities(c1, c2)
    return build("A", c1, c2, pivot1, pivot2), build("B", c2, c1, pivot2, pivot1)


def compile_plan(inst: Instance, c1: CoreIndex, c2: CoreIndex) -> RoundingPlan:
    """Validate the instance and the pair, then compile their distribution.

    Raises ValueError when the instance parameters are invalid, and
    NonCollidingPairError (naming the empty side) when the pair does not
    collide.
    """
    require_valid(inst)
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
    """Consecutive draws of one plan in run form, one row per draw.

    Row ``r`` has the branch ``branches[r]`` (experiment index, chosen low
    facility, ``extra_open`` as 0 or 1), the open set
    ``open_sets[open_of[r]]`` and its clients: facility ``facilities[r, e]``
    serves ``counts[r, e]`` clients, in pool order.
    """

    branches: np.ndarray
    open_of: np.ndarray
    open_sets: tuple[frozenset[int], ...]
    facilities: np.ndarray
    counts: np.ndarray

    def __len__(self) -> int:
        return len(self.branches)

    def row(self, row: int) -> np.ndarray:
        """Row ``row``'s read-only assignment in pool order (each pool's
        clients by facility)."""
        assign = np.repeat(self.facilities[row], self.counts[row])
        assign.setflags(write=False)
        return assign

    def draws(self, plan: RoundingPlan, rng: ExactRng) -> Iterator[SampleDraw]:
        """The rows as draws of ``plan``, each pool's clients shuffled.

        ``rng`` is the block's stream, its chunks expanded in draw order.
        Each piece of :func:`_piece_rows` rows is one ``np.repeat`` of its
        facilities by their counts, then each pool's segment of every row
        shuffled in place.  Assignments are read-only.
        """
        inst, n_rows = plan.inst, len(self)
        n_core, piece = len(inst.designated_clients), _piece_rows(inst)
        for lo in range(0, n_rows, piece):
            hi = min(n_rows, lo + piece)
            assign = np.repeat(self.facilities[lo:hi].ravel(), self.counts[lo:hi].ravel())
            assign = assign.reshape(hi - lo, inst.client_count)
            rng.shuffle_rows(assign[:, :n_core])
            rng.shuffle_rows(assign[:, n_core:])
            assign.setflags(write=False)
            for r, (exp_index, chosen, extra_open) in enumerate(self.branches[lo:hi].tolist()):
                solution = IntSolution(self.open_sets[self.open_of[lo + r]], assign[r])
                label = plan.experiments[exp_index].label
                yield SampleDraw(solution, label, chosen, bool(extra_open))


# Bytes of assignments that DrawChunk.draws builds at once: three t=10 rows
# of 160 KB (a row counts as the wider of its clients and its facilities,
# which fixes the solution files' bytes).  A run-form chunk holds about
# this many bytes of loads, in a whole number of those pieces.
_CHUNK_BYTES = 1 << 19


def _piece_rows(inst: Instance) -> int:
    """Rows that :meth:`DrawChunk.draws` expands at once, counted from the
    block start: :func:`sample_block`'s step is a whole multiple of them."""
    return max(1, _CHUNK_BYTES // (8 * max(inst.client_count, inst.facility_count, 1)))


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


def sample_block(plan: RoundingPlan, rng: ExactRng, count: int) -> Iterator[DrawChunk]:
    """``count`` draws from the distribution, as run-form chunks in draw order.

    Every decision of the block is drawn first, as arrays
    (:func:`_draw_decisions`), so the branches and slot counts, and with
    them every class count, do not depend on how the rows are chunked.
    Each row's clients are its ``layout`` facilities by their slot counts.
    A chunk holds about ``_CHUNK_BYTES`` of facility loads in a whole
    number of :func:`_piece_rows` pieces, so the shuffled assignments
    (:meth:`DrawChunk.draws`) do not depend on the chunking either.  Run
    forms are read-only.  An instance of more than ``CLIENT_LIMIT`` clients
    is refused with a ValueError before any draw.
    """
    inst, tables = plan.inst, plan._tables
    require_narrow("client", inst.client_count, CLIENT_LIMIT, "the sampler's")
    branches, open_of, counts = _draw_decisions(plan, rng, count)
    counts.setflags(write=False)
    piece = _piece_rows(inst)
    step = max(piece, _CHUNK_BYTES // (8 * (inst.facility_count + 1)) // piece * piece)
    for lo in range(0, count, step):
        hi = min(count, lo + step)
        facilities = tables.layout[branches[lo:hi, 0]]
        facilities[:, 0] = branches[lo:hi, 1]
        facilities.setflags(write=False)
        yield DrawChunk(branches[lo:hi], open_of[lo:hi], tables.open_sets,
                        facilities, counts[lo:hi])


def sample_outcome(plan: RoundingPlan, rng: ExactRng) -> SampleDraw:
    """One draw from the distribution, with its branch identifiers: the
    one-row case of :func:`sample_block` and :meth:`DrawChunk.draws`."""
    (chunk,) = sample_block(plan, rng, 1)
    (draw,) = chunk.draws(plan, rng)
    return draw


# ---------------------------------------------------------------------------
# Outcome-class enumeration
# ---------------------------------------------------------------------------


@dataclass(slots=True, unsafe_hash=True)
class _Part:
    """One facility group's share of a slot profile, not changed once built:
    its nonzero ``((lo, hi), count)`` entries in id order (each id of a run
    serves ``count`` clients), the clients they serve and the entries above
    capacity."""

    entries: tuple
    served: int
    over: tuple
    _rows: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    @property
    def rows(self) -> tuple:
        """Per entry, its ``(facility, count)`` rows, expanded on first read:
        classes share parts."""
        if self._rows is None:
            self._rows = tuple(
                tuple((i, n) for i in range(lo, hi)) for (lo, hi), n in self.entries
            )
        return self._rows


@dataclass(frozen=True)
class OutcomeClass:
    """All outcomes sharing one branch combination and one slot profile.

    Client-subset choices and which-bin-gets-the-extra-slot choices are
    collapsed: the profile stores the canonical representative (ceil slots on
    the lowest-id bins), and ``probability`` covers the whole class.  It is
    held as an integer ``weight`` over the plan's ``denominator``
    (:attr:`RoundingPlan.denominator`) and made a Fraction on first read.
    The profile is held as ``parts``, one :class:`_Part` per facility group,
    and the open set as runs.  Classes share parts, and each part expands its
    run entries to rows once; on first read ``slot_profile`` sorts the
    parts' entries and joins their rows into a :class:`corevec.RunRows`
    that keeps the sorted entries as ``runs``.

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
    parts: tuple[_Part, _Part, _Part, _Part]  # chosen, high set, pivot, outside
    weight: int
    denominator: int
    open_facilities: Runs
    problems: tuple[str, ...]  # why the class is infeasible; empty if feasible

    @property
    def chosen_l_facility(self) -> int:
        return self.members[0]

    @cached_property
    def probability(self) -> Fraction:
        return Fraction(self.weight, self.denominator)

    @property
    def feasible(self) -> bool:
        return not self.problems

    @cached_property
    def slot_profile(self) -> RunRows:
        """Nonzero ``(facility, count)`` entries of every part, sorted by facility;
        its ``runs`` are the parts' run entries, sorted (the runs are disjoint)."""
        pairs = sorted(
            chain.from_iterable(zip(part.entries, part.rows) for part in self.parts),
            key=itemgetter(0),
        )
        return RunRows(chain.from_iterable(rows for _, rows in pairs),
                       tuple(entry for entry, _ in pairs))

    @property
    def key(self) -> tuple:
        return (self.experiment, self.chosen_l_facility, self.extra_open, self.slot_profile)


_NO_PART = _Part((), 0, ())


def _split_part(total: int, bins: Runs, capacity: int) -> _Part:
    """The canonical split of ``total >= 0`` over the ids of ``bins``: ceil
    counts on the lowest ids, so each run gets at most two entries."""
    if not bins:
        if total:
            raise ValueError("cannot split clients over zero bins")
        return _NO_PART
    if len(bins) == 1 and bins[0][1] - bins[0][0] == 1:  # one facility takes them all
        entries = ((bins[0], total),) if total else ()
        return _Part(entries, total, entries if total > capacity else ())
    base, extra = divmod(total, _size(bins))
    entries, up = [], extra  # up: ceil counts not yet placed
    for lo, hi in bins:
        cut = min(hi, lo + up)
        if cut > lo:
            entries.append(((lo, cut), base + 1))
            up -= cut - lo
        if base and cut < hi:
            entries.append(((cut, hi), base))
    over = ()
    if base + (extra > 0) > capacity:  # the largest count
        over = tuple(entry for entry in entries if entry[1] > capacity)
    return _Part(tuple(entries), total, over)


# One branch combination of a chosen group, for any one member chosen:
# (slots1, extra_open, parts, over, weight, problems).  ``slots1`` are the
# chosen facility's clients, ``parts`` the high-set, pivot and outside parts,
# ``over`` their entries above capacity, ``weight`` the probability of the
# branch with one given member chosen, over the plan's denominator, and
# ``problems`` the ones that name no facility (an overfilled pool, the served
# count).
_GroupBranch = tuple[int, bool, tuple, tuple, int, tuple[str, ...]]


def _group_branches(
    plan: RoundingPlan,
) -> Iterator[tuple[_Experiment, list[tuple[tuple[int, ...], list[_GroupBranch]]]]]:
    """Per experiment, each chosen group with its branches in enumeration order.

    Within an experiment, the members of a group (``choice_groups``) have
    one choice probability, one slot coin and open sets of one shape, so a
    group's branches are built once for all of them, and groups of one
    choice step and one slot coin (every group but the pivot's) share them.
    A low-set choice has its threshold step over the denominator, halved by
    the fair experiment coin; a coin with no fractional part has one
    branch, so no branch of probability zero (e.g. the closed-pivot branch
    when t*eps = 1) appears.  Each decision's probability is an integer
    over its scale in ``plan.scales``, so a branch's weight over
    ``plan.denominator`` is their product.  A branch's parts are the split
    of the designated remainder over the high set (step 1), then the
    borrowed pivot's slots and the split of the rest over the outside bins
    (step 2).  Each split is built and checked against capacity once and
    shared by the branches that use it, so a branch costs O(1), not
    O(facilities).
    """
    inst, capacity = plan.inst, plan.inst.capacity
    choice_scale, slot_scale, opening_scale, extra_scale = plan.scales
    n_core, m_rest = len(inst.designated_clients), len(inst.rest_clients)
    for exp in plan.experiments:
        step2: list[tuple[bool, int, int, _Part, _Part, tuple[str, ...]]] = []
        # the open branches (coin reads 1) before the closed one
        branches2 = [
            (opened == 1, slots2, w_open * w_r2)
            for opened, w_open in reversed(exp.extra_coin.branches(opening_scale))
            for slots2, w_r2 in (
                exp.extra_slots.branches(extra_scale) if opened else [(0, extra_scale)]
            )
        ]
        for extra_open, slots2, w_s2 in branches2:
            rem2 = m_rest - slots2
            problems2: tuple[str, ...] = ()
            rest = _NO_PART
            if rem2 < 0:
                problems2 = (
                    f"{slots2} borrowed-pivot slots overfill the rest pool (size {m_rest})",
                )
            elif exp.outside:
                rest = _split_part(rem2, exp.outside, capacity)
            elif rem2 > 0:
                problems2 = (f"no outside facility serves the {rem2} remaining clients",)
            pivot = _split_part(slots2, ((exp.pivot_extra, exp.pivot_extra + 1),), capacity)
            step2.append((extra_open, slots2, w_s2, pivot, rest, problems2))

        thresholds = (0,) + exp.choice_thresholds
        shared: dict[tuple[int, _FloorCoin], list[_GroupBranch]] = {}
        groups = []
        for group in exp.choice_groups:
            at = bisect_left(exp.choice_set, group[0])
            w_choice = (thresholds[at + 1] - thresholds[at]) * (
                choice_scale // exp.choice_denominator
            )
            coin = exp.choice_slots[at]
            branches = shared.get((w_choice, coin))
            if branches is None:
                branches = shared[w_choice, coin] = []
                for slots1, w_r1 in coin.branches(slot_scale):
                    rem1 = n_core - slots1
                    problems1: tuple[str, ...] = ()
                    high = _NO_PART
                    if rem1 >= 0:
                        high = _split_part(rem1, exp.high_runs, capacity)
                    else:
                        problems1 = (
                            f"{slots1} step-1 slots overfill the designated pool "
                            f"(size {n_core})",
                        )
                    w1 = w_choice * w_r1
                    for extra_open, slots2, w_s2, pivot, rest, problems2 in step2:
                        problems = problems1 + problems2
                        served = slots1 + high.served + pivot.served + rest.served
                        if served != inst.client_count:
                            problems += (
                                f"the profile serves {served} of {inst.client_count} clients",
                            )
                        branches.append((slots1, extra_open, (high, pivot, rest),
                                         high.over + pivot.over + rest.over, w1 * w_s2, problems))
            groups.append((group, branches))
        yield exp, groups


def _group_classes(
    plan: RoundingPlan, exp: _Experiment, members: tuple[int, ...],
    branches: Sequence[_GroupBranch],
) -> Iterator[OutcomeClass]:
    """The classes of a group's branches, standing for ``members``, with the first chosen."""
    inst, denominator = plan.inst, plan.denominator
    chosen, count, capacity = members[0], len(members), inst.capacity
    lows: dict[int, _Part] = {}  # the chosen facility's part, per slot count
    open_sets: dict[bool, Runs] = {}
    for slots1, extra_open, parts, over, weight, problems in branches:
        low = lows.get(slots1)
        if low is None:
            low = lows[slots1] = _split_part(slots1, ((chosen, chosen + 1),), capacity)
        open_set = open_sets.get(extra_open)
        if open_set is None:
            added = ((chosen, chosen + 1),)
            if extra_open:
                added += ((exp.pivot_extra, exp.pivot_extra + 1),)
            open_set = open_sets[extra_open] = _runs(exp.base_open + added)
        over = low.over + over
        if over:
            problems += tuple(
                f"facility {fac} serves {cnt} clients above capacity {capacity}"
                for (lo, hi), cnt in sorted(over)
                for fac in range(lo, hi)
            )
        yield OutcomeClass(exp.label, members, extra_open, (low, *parts),
                           weight * count, denominator, open_set, problems)


def enumerate_grouped_classes(plan: RoundingPlan) -> list[OutcomeClass]:
    """Every branch combination per chosen group with exact probability;
    probabilities sum to 1.

    Each group's classes are built once, with its first member chosen, and
    stand for all its members (see :class:`OutcomeClass`).  An experiment
    has at most four groups, each with at most 2 x 3 branch combinations,
    so there are at most 48 classes for any t.
    """
    out: list[OutcomeClass] = []
    for exp, groups in _group_branches(plan):
        for group, branches in groups:
            out.extend(_group_classes(plan, exp, group, branches))
    return out


def enumerate_outcome_classes(plan: RoundingPlan) -> list[OutcomeClass]:
    """Every branch combination with exact probability, per low-set facility;
    probabilities sum to 1.

    The groups of :func:`enumerate_grouped_classes`, expanded: per
    experiment, each low-set facility in ascending order gets its group's
    classes with itself chosen, each with its own probability.
    """
    out: list[OutcomeClass] = []
    for exp, groups in _group_branches(plan):
        branches_of = {i: branches for group, branches in groups for i in group}
        for chosen in exp.choice_set:
            out.extend(_group_classes(plan, exp, (chosen,), branches_of[chosen]))
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


def _class_counts(plan: RoundingPlan, branches: np.ndarray, loads: np.ndarray) -> Counter:
    """Class keys of draws, matching OutcomeClass.key, with how many draws have each.

    Row r of ``branches`` is draw r's :func:`_branch_row` and row r of
    ``loads`` its clients per facility.  A key row is the branch, then the
    counts of the draw's ``_BlockTables.layout`` row: the chosen low
    facility, the high set, the borrowed pivot and the outside bins.  Each
    bin group's counts are sorted in descending order, so they go onto the
    group's ids with the ceil counts on the lowest ids, collapsing
    which-bin-got-the-extra-slot choices exactly as the enumerator does.
    The key rows are gathered and sorted at once, both experiments' layout
    rows having one length, and counted by their bytes, so no per-entry
    Python int is made and only distinct rows become keys.
    """
    tables = plan._tables
    facilities = tables.layout[branches[:, 0]]
    facilities[:, 0] = branches[:, 1]
    key_rows = np.concatenate(
        (branches, loads[np.arange(len(loads))[:, None], facilities]), axis=1
    )
    high_end = 4 + tables.n_high
    for group in (key_rows[:, 4:high_end], key_rows[:, high_end + 1:]):
        group.sort(axis=1)
        group[:] = group[:, ::-1]
    layouts = tables.layout[:, 1:].tolist()
    freq: Counter = Counter()
    for key_row, n in Counter(map(bytes, key_rows)).items():
        exp_index, chosen, extra_open, *row = np.frombuffer(key_row, dtype=key_rows.dtype).tolist()
        profile = tuple(sorted(filter(itemgetter(1), zip((chosen, *layouts[exp_index]), row))))
        freq[plan.experiments[exp_index].label, chosen, bool(extra_open), profile] += n
    return freq


# Bytes of facility loads that tally_draws holds before keying them: a
# block of 1,000 draws is keyed at once up to 1,048 facilities.
_LOAD_TABLE_BYTES = 1 << 23


def _open_limits(inst: Instance, open_sets: Sequence[frozenset[int]]) -> np.ndarray:
    """Per open set, the capacity on its members and 0 elsewhere; -1
    everywhere when it names an unknown facility id, so no row fits it."""
    n_f = inst.facility_count
    sizes = [len(open_set) for open_set in open_sets]
    try:
        members = np.fromiter(chain.from_iterable(open_sets), np.int64, sum(sizes))
    except OverflowError:  # an id beyond int64 is unknown; clamping keeps it so
        members = np.fromiter(
            (min(max(i, -1), n_f) for i in chain.from_iterable(open_sets)), np.int64, sum(sizes)
        )
    rows = np.repeat(np.arange(len(open_sets)), sizes)
    unknown = (members < 0) | (members >= n_f)
    limits = np.zeros((len(open_sets), n_f), dtype=np.int64)
    limits[rows[~unknown], members[~unknown]] = inst.capacity
    limits[rows[unknown]] = -1
    return limits


def tally_draws(
    plan: RoundingPlan, chunks: Iterable[DrawChunk], max_examples: int
) -> tuple[int, Counter, list[tuple[int, list[str]]]]:
    """Check and key the draws of ``plan``, given as chunks in draw order.

    Each chunk is checked from its run form, counted by
    :func:`_row_loads`; a row is expanded (in pool order) only to describe
    it as one of the first ``max_examples`` infeasible draws.  A row is
    feasible iff it can be counted and no facility serves more than its
    limit: the capacity on the row's open set, 0 elsewhere (what
    :func:`solution_violations` checks).  A row that cannot be counted (the
    wrong number of clients or an unknown facility id) is infeasible and
    has no class key.  The counted rows' loads are keyed by
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
        counted, loads = _row_loads(inst, chunk.facilities, chunk.counts)
        limit = limits.get(open_sets)
        if limit is None:
            limit = limits[open_sets] = _open_limits(inst, open_sets)
        bad = ~counted | (loads > limit[open_of]).any(axis=1)
        for row in np.flatnonzero(bad)[: max_examples - len(examples)].tolist():
            sol = IntSolution(open_sets[open_of[row]], chunk.row(row))
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


# An expectation as integers: per experiment, its groups' runs and
# numerators (y, then x on each client pool), the value at a facility being
# the sum of the two experiments' groups that hold it; the client pools; and
# the denominators of y and of x on each pool.
_Expectation = tuple[list[list[tuple[Runs, list[int]]]], list[range], list[int]]


def _expectation(plan: RoundingPlan, classes: Sequence[OutcomeClass]) -> _Expectation:
    """The exact expectation of ``classes``, summed as integer numerators.

    Within a class, clients are exchangeable within their pool and
    facilities within their group, so a class's mean depends only on group
    totals: each facility of a group gets the clients the group serves /
    (group size x pool size) on every client of that pool, and y = the
    group's open members / group size.  The designated pool is served by the
    chosen group (a class's ``members``) and the high set, the rest pool by
    the borrowed pivot and the outside bins.  Each class adds its weight
    times its parts' served counts to their groups' totals.  A group's open
    members start as its size times its experiment's weight, and each
    distinct open set takes off its weight for each closed member.  Each
    experiment's groups tile the facilities, so the expectation is constant
    on each atom of the two tilings' common refinement: no work is done per
    facility.  The weights are over ``plan.denominator``, so the classes
    must be the plan's; a class of another denominator is a ValueError.
    """
    inst, den = plan.inst, plan.denominator
    # per (experiment, chosen group, open set): the weight of its classes and
    # the weighted clients served by the chosen group, the high set, the
    # borrowed pivot and the outside bins
    cells: dict[tuple[str, tuple[int, ...], Runs], list[int]] = {}
    for cl in classes:
        if cl.denominator != den:
            raise ValueError("outcome classes of another plan")
        weight = cl.weight
        low, high, pivot, rest = cl.parts
        key = (cl.experiment, cl.members, cl.open_facilities)
        cell = cells.get(key)
        if cell is None:
            cell = cells[key] = [0, 0, 0, 0, 0]
        cell[0] += weight
        cell[1] += weight * low.served
        cell[2] += weight * high.served
        cell[3] += weight * pivot.served
        cell[4] += weight * rest.served
    # per experiment, the weight and the weighted clients of its high set,
    # borrowed pivot and outside bins; per chosen group, its weighted
    # clients; per open set, its weight
    served = {exp.label: [0, 0, 0, 0] for exp in plan.experiments}
    chosen: dict[tuple[str, tuple[int, ...]], int] = {}
    opened: dict[str, dict[Runs, int]] = {label: {} for label in served}
    for (label, members, open_set), (weight, low, high, pivot, rest) in cells.items():
        totals = served[label]
        totals[0] += weight
        totals[1] += high
        totals[2] += pivot
        totals[3] += rest
        chosen[label, members] = chosen.get((label, members), 0) + low
        weights = opened[label]
        weights[open_set] = weights.get(open_set, 0) + weight

    # per experiment, one record per group (the high set, the borrowed
    # pivot, the outside bins, each chosen group and the low-set facilities
    # no listed class chose, which every listed class closes): its runs, its
    # size and its weighted [open members, clients served from the
    # designated pool, from the rest pool]
    records: dict[str, list[tuple[Runs, int, list[int]]]] = {}
    for exp in plan.experiments:
        weight, high, pivot, rest = served[exp.label]
        groups = [
            (exp.high_runs, len(exp.always_open), high, 0),
            (((exp.pivot_extra, exp.pivot_extra + 1),), 1, 0, pivot),
            (exp.outside, _size(exp.outside), 0, rest),
        ]
        members_chosen = [(members, clients) for (label, members), clients in chosen.items()
                          if label == exp.label]
        groups += [(exp.group_runs.get(members) or _runs(members), len(members), clients, 0)
                   for members, clients in members_chosen]
        unchosen = set(exp.choice_set).difference(
            chain.from_iterable(members for members, _ in members_chosen))
        if unchosen:
            groups.append((_sorted_runs(sorted(unchosen)), len(unchosen), 0, 0))
        records[exp.label] = [
            (runs, size, [weight * size, core, tail]) for runs, size, core, tail in groups
        ]
    # an experiment's groups tile the facilities: each closed run (a gap
    # between open runs) is cut at the group runs it crosses, found by
    # bisection over their starts
    for label, groups in records.items():
        tiles = sorted(((lo, hi, sums) for runs, _, sums in groups for lo, hi in runs),
                       key=itemgetter(0))
        starts = [lo for lo, _, _ in tiles]
        for open_set, weight in opened[label].items():
            for lo, hi in _gaps(open_set, inst.facility_count):
                at = bisect_right(starts, lo) - 1
                while lo < hi:
                    _, end, sums = tiles[at]
                    cut = end if end < hi else hi
                    sums[0] -= weight * (cut - lo)
                    lo, at = cut, at + 1

    # a value is one integer numerator per coordinate over that coordinate's
    # denominator (den x scale, x pool size for x)
    pools = [inst.designated_clients] + ([inst.rest_clients] if inst.rest_clients else [])
    scale = lcm(*(size for groups in records.values() for _, size, _ in groups if size))
    tilings = [
        [(runs, [total * (scale // size) for total in sums[:1 + len(pools)]])
         for runs, size, sums in groups if size]
        for groups in records.values()
    ]
    return tilings, pools, [den * scale] + [den * scale * len(pool) for pool in pools]


def expected_vector(plan: RoundingPlan, classes: Sequence[OutcomeClass]) -> FracVector:
    """Exact expectation of the distribution: sum of probability x class mean.

    ``classes`` are any of the plan's enumerated outcome classes, per
    low-set facility or per chosen group, summed by :func:`_expectation`
    (the given classes only: the sum is the distribution's expectation
    when they are all of them).  The
    vector's facility classes are the atoms of the two experiments' tilings,
    with equal values merged.
    """
    inst = plan.inst
    (tiling_a, tiling_b), pools, dens = _expectation(plan, classes)
    values: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for pieces, ia, ib in _refine([runs for runs, _ in tiling_a], [runs for runs, _ in tiling_b]):
        value = tuple(map(add, tiling_a[ia][1], tiling_b[ib][1]))
        values.setdefault(value, []).extend(pieces)
    return FracVector._trusted(
        inst.facility_count,
        inst.client_count,
        tuple(_runs(tuple(pieces)) for pieces in values.values()),
        tuple(((pool.start, pool.stop),) for pool in pools),
        tuple(Fraction(value[0], dens[0]) for value in values),
        tuple(tuple(Fraction(n, d) for n, d in zip(value[1:], dens[1:])) for value in values),
    )


def _numerators(v: FracVector) -> tuple[list[int], list[list[int]], int]:
    """A vector's y and x values as integer numerators over their common denominator."""
    nums, den = over_common_denominator(v.y_values + tuple(chain.from_iterable(v.x_values)))
    width, y_count = len(v.cli_classes), len(v.y_values)
    x_rows = [nums[lo:lo + width] for lo in range(y_count, len(nums), width)]
    return nums[:y_count], x_rows, den


def _matches_midpoint(
    inst: Instance, expectation: _Expectation, v1: FracVector, v2: FracVector
) -> bool:
    """Whether an expectation equals the midpoint of ``v1`` and ``v2`` exactly.

    Both vectors' values are put over their common denominators, so a
    midpoint value is an integer over twice their lcm; each coordinate is
    compared as a cross product of integers, once per atom of the common
    refinement of the two experiments' tilings and both vectors' classes.
    """
    v1._same_dims(v2)
    if v1.facility_count != inst.facility_count or v1.client_count != inst.client_count:
        raise ValueError("vector dimension mismatch")
    (tiling_a, tiling_b), pools, dens = expectation
    y1, x1, d1 = _numerators(v1)
    y2, x2, d2 = _numerators(v2)
    half = lcm(d1, d2)
    s1, s2, mid_den = half // d1, half // d2, 2 * half
    cli = _refine([((pool.start, pool.stop),) for pool in pools], v1.cli_classes, v2.cli_classes)
    for _, ia, ib, fa, fb in _refine([runs for runs, _ in tiling_a], [runs for runs, _ in tiling_b],
                                     v1.fac_classes, v2.fac_classes):
        value_a, value_b = tiling_a[ia][1], tiling_b[ib][1]
        if (value_a[0] + value_b[0]) * mid_den != (y1[fa] * s1 + y2[fb] * s2) * dens[0]:
            return False
        row1, row2 = x1[fa], x2[fb]
        for _, pool, ca, cb in cli:
            at = 1 + pool
            if ((value_a[at] + value_b[at]) * mid_den
                    != (row1[ca] * s1 + row2[cb] * s2) * dens[at]):
                return False
    return True


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


def verify_midpoint(
    inst: Instance,
    c1: CoreIndex,
    c2: CoreIndex,
    *,
    cores: Optional[tuple[FracVector, FracVector]] = None,
) -> MidpointCertificate:
    """Exact midpoint-membership certificate for a colliding pair.

    Reads the classes per chosen group: a group's classes are feasible
    exactly when each member's are, and the expectation spreads their mass
    evenly over the members, so the number of classes does not grow with t.
    ``cores`` are the core vectors of ``c1`` and ``c2`` when the caller has
    already built them; otherwise they are built here.
    """
    plan = compile_plan(inst, c1, c2)
    classes = enumerate_grouped_classes(plan)
    if cores is None:
        cores = make_core_vector(inst, c1.k, c1.l), make_core_vector(inst, c2.k, c2.l)
    return MidpointCertificate(
        pair=(c1, c2),
        expectation_matches=_matches_midpoint(inst, _expectation(plan, classes), *cores),
        all_classes_feasible=all(cl.feasible for cl in classes),
        class_count=sum(len(cl.members) for cl in classes),
        probability_sum=Fraction(sum(cl.weight for cl in classes), plan.denominator),
    )
