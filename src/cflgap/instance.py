"""Capacitated facility location instances and two-point cost vectors.

An instance has ``facility_count`` facilities with uniform integer capacity,
``client_count`` unit-demand clients, and (optionally) the parameter record of
the structured family used throughout this package.  The classic family is
``(t^2, a*t^4, t^3)``: ``t^2`` facilities of capacity ``t^3`` and ``a*t^4``
clients, with design constants ``eps = 10/t^2`` (the fractional opening value
on the low-opening facility set) and ``x_l = 1/t^3`` (the per-client
assignment mass sent to that set).  A generalized form keeps the same shape
but lets ``eps`` and ``x_l`` be chosen freely, so every identity can be
verified exactly at desk scale; :func:`validate_params` lists the conditions
under which the construction is well defined.

All fractional quantities are :class:`fractions.Fraction`; nothing here ever
touches floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import lcm
from typing import TYPE_CHECKING, Collection, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

    from .corevec import CoreIndex

__all__ = [
    "FamilyParams",
    "Instance",
    "CostVector",
    "MetricCheck",
    "ParamViolation",
    "build_family_instance",
    "build_general_instance",
    "validate_params",
    "require_valid",
    "build_gap_costs",
    "check_metric_admissible",
]

# The exact constants every module of the package shares.
ZERO = Fraction(0)
ONE = Fraction(1)


def over_common_denominator(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """Exact rationals as integer numerators over their least common denominator."""
    den = lcm(*(value.denominator for value in values))
    return [value.numerator * (den // value.denominator) for value in values], den


@dataclass(frozen=True)
class FamilyParams:
    """Design constants of a (generalized) family instance.

    ``t`` (at least 1) is the size of each of the two distinguished facility
    subsets, ``eps`` the fractional opening value on the low set and ``x_l``
    the assignment mass a designated client sends to each low-set facility.
    ``a`` is the client-multiplier of the classic family and is absent for
    hand-built generalized instances.
    """

    t: int
    eps: Fraction
    x_l: Fraction
    a: Optional[int] = None

    def __post_init__(self):
        if self.t < 1:
            raise ValueError(f"t must be >= 1, got {self.t}")

    @cached_property
    def x_k(self) -> Fraction:
        """Assignment mass to each high-set facility: (1 - t*x_l)/t, computed once."""
        return (1 - self.t * self.x_l) / self.t


@dataclass(frozen=True)
class Instance:
    """A uniform-capacity, unit-demand facility location feasible set."""

    facility_count: int
    client_count: int
    capacity: int
    family_params: Optional[FamilyParams] = None

    def __post_init__(self):
        if self.facility_count < 1:
            raise ValueError(f"facility_count must be positive, got {self.facility_count}")
        if self.client_count < 0:
            raise ValueError(f"client_count must be nonnegative, got {self.client_count}")
        if self.capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {self.capacity}")

    @property
    def family(self) -> FamilyParams:
        """The family parameters; ValueError for an instance without them."""
        if self.family_params is None:
            raise ValueError("instance has no family_params")
        return self.family_params

    @property
    def core_client_count(self) -> int:
        """Size of the designated client group: ``capacity*t + 1``."""
        return self.capacity * self.family.t + 1

    @cached_property
    def violations(self) -> tuple[ParamViolation, ...]:
        """:func:`validate_params` of this instance, computed once: the instance is frozen."""
        return tuple(validate_params(self))

    @property
    def facilities(self) -> range:
        return range(self.facility_count)

    @property
    def designated_clients(self) -> range:
        """The designated clients every core vector shares: ``range(capacity*t + 1)``.

        One more client than the high set can serve.  ValueError without family
        params, or when the group does not fit inside the instance's clients.
        """
        count = self.core_client_count
        if count > self.client_count:
            raise ValueError(
                f"core_client_count = {count} exceeds client_count = {self.client_count}"
            )
        return range(count)

    @property
    def rest_clients(self) -> range:
        """The clients after the designated group, served by the outside facilities."""
        return range(self.designated_clients.stop, self.client_count)


@dataclass(frozen=True)
class ParamViolation:
    """One violated validity condition, with the offending exact values."""

    code: str
    detail: str

    def __str__(self) -> str:
        return f"{self.code}: {self.detail}"


def build_family_instance(t: int, a: int) -> Instance:
    """Classic family instance: t^2 facilities, a*t^4 clients, capacity t^3.

    Construction is unconditional; use :func:`validate_params` to decide
    whether the fractional design is well defined for this ``t``.
    """
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    if a < 2:
        raise ValueError(f"a must be >= 2, got {a}")
    params = FamilyParams(
        t=t,
        eps=Fraction(10, t * t),
        x_l=Fraction(1, t**3),
        a=a,
    )
    return Instance(
        facility_count=t * t,
        client_count=a * t**4,
        capacity=t**3,
        family_params=params,
    )


def build_general_instance(
    facility_count: int,
    t: int,
    capacity: int,
    client_count: int,
    eps: Fraction,
    x_l: Fraction,
) -> Instance:
    """Generalized family instance with freely chosen design constants."""
    if facility_count < 1 or client_count < 1 or capacity < 1:
        raise ValueError(
            "facility_count, client_count and capacity must be positive, got "
            f"({facility_count}, {client_count}, {capacity})"
        )
    return Instance(
        facility_count=facility_count,
        client_count=client_count,
        capacity=capacity,
        family_params=FamilyParams(t=t, eps=Fraction(eps), x_l=Fraction(x_l)),
    )


def validate_params(inst: Instance) -> list[ParamViolation]:
    """All violated well-definedness conditions of the instance's parameters.

    Empty list means every probability and every fractional load of the
    construction lies in its admissible range.  Requires ``family_params``.
    """
    p = inst.family
    t, eps, x_l = p.t, p.eps, p.x_l
    n_f, m, cap = inst.facility_count, inst.client_count, inst.capacity
    n_core = inst.core_client_count
    out: list[ParamViolation] = []

    if not 0 < eps <= 1:
        out.append(ParamViolation("eps_range", f"eps = {eps} not in (0, 1]"))
    if not 0 <= x_l <= eps:
        out.append(ParamViolation("x_l_range", f"x_l = {x_l} not in [0, eps = {eps}]"))
    x_k = p.x_k
    if not 0 <= x_k <= 1:
        out.append(ParamViolation("x_k_range", f"x_k = (1 - t*x_l)/t = {x_k} not in [0, 1]"))
    if not n_f > 2 * t:
        out.append(
            ParamViolation(
                "outside_facilities",
                f"facility_count = {n_f} must exceed 2t = {2 * t}",
            )
        )
    if (t - 1) * eps > 1:
        out.append(
            ParamViolation(
                "residual_probability",
                f"(t-1)*eps = {(t - 1) * eps} > 1",
            )
        )
    if t * eps > 1:
        out.append(ParamViolation("extra_open_probability", f"t*eps = {t * eps} > 1"))
    if n_core > m:
        out.append(
            ParamViolation(
                "core_client_count",
                f"core_client_count = {n_core} exceeds client_count = {m}",
            )
        )
    if n_core * x_k > cap:
        out.append(
            ParamViolation(
                "high_set_load",
                f"core_client_count*x_k = {n_core * x_k} > capacity = {cap}",
            )
        )
    if n_core * x_l > cap * eps:
        out.append(
            ParamViolation(
                "low_set_load",
                f"core_client_count*x_l = {n_core * x_l} > capacity*eps = {cap * eps}",
            )
        )
    q = n_f - 2 * t
    if q > 0 and Fraction(m - n_core, q) > cap:
        out.append(
            ParamViolation(
                "outside_load",
                f"(m - core)/(n_f - 2t) = {Fraction(m - n_core, q)} > capacity = {cap}",
            )
        )
    if q > 0 and m - n_core > cap * (q - 1):
        out.append(
            ParamViolation(
                "closed_extra_overflow",
                f"m - core = {m - n_core} exceeds capacity*(n_f - 2t - 1) = {cap * (q - 1)}",
            )
        )
    return out


def require_valid(inst: Instance) -> FamilyParams:
    """The family of a valid instance; ValueError listing every violated condition otherwise."""
    if inst.violations:
        raise ValueError(
            "instance parameters are invalid: " + "; ".join(map(str, inst.violations))
        )
    return inst.family


# Most ids a table with one entry per facility, or per client, is built for.
# The sampler's tables, gap costs and the Monte Carlo census hold
# facility-wide tables (rounding plans hold runs, so verify_midpoint has no
# limit); the sampler's rows, the gap costs' client mask and the gap witness
# client-wide ones (sample and certify peak near 1 GB at 6 * 10**7 clients,
# and both fail at 1.2 * 10**8 under a 2 GB address-space cap).
FACILITY_LIMIT = 1_000_000
CLIENT_LIMIT = 50_000_000


def require_narrow(kind: str, count: int, limit: int, owner: str) -> None:
    """ValueError naming ``count`` when it exceeds ``limit``, before ``owner``
    builds a table with one entry per ``kind``."""
    if count > limit:
        raise ValueError(
            f"{kind} count {count} exceeds {owner} limit {limit}: "
            f"its per-{kind} tables would not fit in memory"
        )


# ---------------------------------------------------------------------------
# Cost vectors
# ---------------------------------------------------------------------------


class CostVector:
    """Two-point opening and connection costs, held as three boolean masks.

    A facility/client subset sits at one location and everything else at a
    second location at distance 1: connections cost 0 on the same side and 1
    across, and a designated facility set has opening cost 1.  The masks over
    the ids (``unit_opening``, ``near_facilities``, ``near_clients``) are
    built once from the role sets, so family-scale instances stay cheap.
    """

    def __init__(
        self,
        facility_count: int,
        client_count: int,
        *,
        unit_opening: Collection[int],
        near_facilities: Collection[int],
        near_clients: Collection[int],
    ):
        require_narrow("facility", facility_count, FACILITY_LIMIT, "the gap cost vector's")
        require_narrow("client", client_count, CLIENT_LIMIT, "the gap cost vector's")
        self.facility_count = facility_count
        self.client_count = client_count
        self.unit_opening = _role_mask(unit_opening, facility_count, "unit_opening")
        self.near_facilities = _role_mask(near_facilities, facility_count, "near_facilities")
        self.near_clients = _role_mask(near_clients, client_count, "near_clients")

    def opening_of(self, i: int) -> Fraction:
        """Opening cost of facility ``i``; ValueError for an unknown id."""
        return ONE if self.unit_opening[_known(i, self.facility_count, "facility")] else ZERO

    def connection_of(self, i: int, j: int) -> Fraction:
        """Cost of serving client ``j`` from facility ``i``; ValueError for an unknown id."""
        near = self.near_facilities[_known(i, self.facility_count, "facility")]
        return ZERO if near == self.near_clients[_known(j, self.client_count, "client")] else ONE

    def solution_cost(self, open_set: Collection[int], assign: Sequence[int]) -> Fraction:
        """Exact cost of an integer solution, counted as integers.

        ``assign`` is a list, a tuple or an int64 array (read as plain ints).
        ValueError unless it has one entry per client and it and ``open_set``
        name facility ids only.
        """
        import numpy as np

        ids = np.asarray(assign, dtype=np.int64)
        if ids.shape != (self.client_count,):
            raise ValueError(f"assignment of shape {ids.shape}, expected ({self.client_count},)")
        n_f = self.facility_count
        # read as unsigned, a negative id is 2**64 + id, so one max bounds both ends
        if (len(ids) and ids.view(np.uint64).max() >= n_f) or not all(
                0 <= i < n_f for i in open_set):
            raise ValueError("solution names unknown facility ids")
        opened = np.zeros(n_f, dtype=bool)
        opened[list(open_set)] = True
        return Fraction(int(self.solution_costs(opened, ids)))

    def solution_costs(self, opened: np.ndarray, assign: np.ndarray) -> np.ndarray:
        """Integer costs of solutions given as rows, in one mask step.

        Row ``s`` of the boolean ``opened`` marks solution ``s``'s open
        facilities and row ``s`` of ``assign`` its facility per client; the
        ids must already be known ones.  A 1-d pair is one solution.
        """
        import numpy as np

        far = np.count_nonzero(self.near_facilities[assign] != self.near_clients, axis=-1)
        return np.count_nonzero(opened & self.unit_opening, axis=-1) + far

    def _opening_total(self, facilities) -> Fraction:
        """Sum of opening costs over facility runs."""
        return Fraction(_count_in(self.unit_opening, facilities))

    def _block_connection_total(self, facilities, runs) -> Fraction:
        """Sum of connection costs over a block of facility runs x client runs."""
        f_near = _count_in(self.near_facilities, facilities)
        f_far = sum(hi - lo for lo, hi in facilities) - f_near
        c_near = _count_in(self.near_clients, runs)
        c_far = sum(hi - lo for lo, hi in runs) - c_near
        return Fraction(f_near * c_far + f_far * c_near)

    def vector_cost(self, v) -> Fraction:
        """Exact cost of a fractional (y, x) point, priced per symmetry class.

        Vectors never get materialized: each facility-class x client-class
        cell contributes x_value times the block's total connection cost,
        counted from the near facilities and clients in the masks over the
        classes' runs, so family-scale vectors are priced in O(classes).
        """
        if v.facility_count != self.facility_count or v.client_count != self.client_count:
            raise ValueError("cost/vector dimension mismatch")
        total = ZERO
        for fc_idx, fc in enumerate(v.fac_classes):
            y = v.y_values[fc_idx]
            if y != 0:
                total += y * self._opening_total(fc)
            for cc_idx, runs in enumerate(v.cli_classes):
                x = v.x_values[fc_idx][cc_idx]
                if x != 0:
                    total += x * self._block_connection_total(fc, runs)
        return total

    def zero_cost_fits(self, capacity: int) -> bool:
        """Whether some solution costs 0 at this capacity.

        A cost-0 solution opens only facilities of opening cost 0 and serves
        every unit-demand client on its own side, so one exists iff the near
        clients fit in the free near facilities and the far clients in the
        free far facilities.
        """
        free, near_f = ~self.unit_opening, self.near_facilities
        near = int(self.near_clients.sum())
        return (near <= capacity * int((near_f & free).sum())
                and self.client_count - near <= capacity * int((free & ~near_f).sum()))


def _known(i: int, size: int, kind: str) -> int:
    """``i`` itself; ValueError unless it is an id of ``range(size)``."""
    if not 0 <= i < size:
        raise ValueError(f"unknown {kind} id {i}")
    return i


def _role_mask(ids: Collection[int], size: int, role: str) -> np.ndarray:
    """Boolean mask of one two-point role's ids; ValueError for ids outside ``range(size)``."""
    import numpy as np

    mask = np.zeros(size, dtype=bool)
    if len(ids):
        if isinstance(ids, range):  # filled by one slice, never walked
            lo, hi = sorted((ids[0], ids[-1]))
            target = slice(lo, hi + 1, abs(ids.step))
        else:
            target = list(ids)
            lo, hi = min(target), max(target)
        if not (0 <= lo and hi < size):
            raise ValueError(f"{role} holds ids outside range({size})")
        mask[target] = True
    mask.setflags(write=False)  # the masks are public: a cost never changes
    return mask


def _count_in(mask: np.ndarray, runs) -> int:
    """How many ids of the ``(lo, hi)`` runs a boolean mask holds."""
    from numpy import count_nonzero

    return sum(int(count_nonzero(mask[lo:hi])) for lo, hi in runs)


def build_gap_costs(inst: Instance, core_index: "CoreIndex") -> CostVector:
    """Two-point cost vector certifying the gap of one core vector.

    The facilities of ``k | l`` and the designated clients sit at the near
    point, everything else at the far point (distance 1); facilities of ``l``
    cost 1 to open, all others 0.  :func:`check_metric_admissible` proves the
    quadrangle inequality exactly.
    """
    return CostVector(
        inst.facility_count,
        inst.client_count,
        unit_opening=core_index.l,
        near_facilities=core_index.k | core_index.l,
        near_clients=inst.designated_clients,
    )


@dataclass(frozen=True)
class MetricCheck:
    """Exact result of a quadrangle-inequality check, with a violating quadruple."""

    admissible: bool
    violation: Optional[tuple[int, int, int, int]] = None

    def __bool__(self) -> bool:
        return self.admissible


def check_metric_admissible(cost: CostVector, inst: Instance) -> MetricCheck:
    """Check c[i][j] <= c[i][j'] + c[i'][j'] + c[i'][j] over all quadruples.

    A connection cost depends only on the sides of its facility and its
    client, so the loop runs over one facility and one client per nonempty
    side (at most 16 quadruples) and the verdict is exact at every size.
    """
    if cost.facility_count != inst.facility_count or cost.client_count != inst.client_count:
        raise ValueError("cost/instance dimension mismatch")
    # argmax gives a side's first id, or id 0 of the other side when it is empty
    facilities, clients = ({int(mask.argmax()), int((~mask).argmax())} if len(mask) else ()
                           for mask in (cost.near_facilities, cost.near_clients))
    c = cost.connection_of
    for i, ip, j, jp in product(facilities, facilities, clients, clients):
        if c(i, j) > c(i, jp) + c(ip, jp) + c(ip, j):
            return MetricCheck(False, (i, ip, j, jp))
    return MetricCheck(True)
