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

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import TYPE_CHECKING, Collection, Iterator, Optional, Sequence

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

    ``t`` is the size of each of the two distinguished facility subsets,
    ``eps`` the fractional opening value on the low set, ``x_l`` the
    assignment mass a designated client sends to each low-set facility, and
    ``core_client_count`` the size of the designated client group
    (``capacity * t + 1``).  ``a`` is the client-multiplier of the classic
    family and is absent for hand-built generalized instances.
    """

    t: int
    eps: Fraction
    x_l: Fraction
    core_client_count: int
    a: Optional[int] = None

    @property
    def x_k(self) -> Fraction:
        """Assignment mass to each high-set facility: (1 - t*x_l)/t."""
        return (1 - self.t * self.x_l) / self.t


@dataclass(frozen=True)
class Instance:
    """A uniform-capacity, unit-demand facility location feasible set."""

    facility_count: int
    client_count: int
    capacity: int
    demand: int = 1
    family_params: Optional[FamilyParams] = None

    def __post_init__(self):
        if self.facility_count < 1:
            raise ValueError(f"facility_count must be positive, got {self.facility_count}")
        if self.client_count < 0:
            raise ValueError(f"client_count must be nonnegative, got {self.client_count}")
        if self.capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {self.capacity}")
        if self.demand != 1:
            raise ValueError(f"only unit demands are supported, got {self.demand}")
        p = self.family_params
        if p is not None and p.core_client_count != self.capacity * p.t + 1:
            raise ValueError(
                f"family_params core_client_count = {p.core_client_count} must equal "
                f"capacity*t + 1 = {self.capacity * p.t + 1}"
            )

    @property
    def facilities(self) -> range:
        return range(self.facility_count)

    @property
    def designated_clients(self) -> range:
        """The designated clients every core vector shares: ``range(capacity*t + 1)``.

        One more client than the high set can serve.  ValueError without family
        params, or when the group does not fit inside the instance's clients.
        """
        if self.family_params is None:
            raise ValueError("instance has no family_params")
        count = self.family_params.core_client_count
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
        core_client_count=t**4 + 1,
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
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    if facility_count < 1 or client_count < 1 or capacity < 1:
        raise ValueError(
            "facility_count, client_count and capacity must be positive, got "
            f"({facility_count}, {client_count}, {capacity})"
        )
    params = FamilyParams(
        t=t,
        eps=Fraction(eps),
        x_l=Fraction(x_l),
        core_client_count=capacity * t + 1,
    )
    return Instance(
        facility_count=facility_count,
        client_count=client_count,
        capacity=capacity,
        family_params=params,
    )


def validate_params(inst: Instance) -> list[ParamViolation]:
    """All violated well-definedness conditions of the instance's parameters.

    Empty list means every probability and every fractional load of the
    construction lies in its admissible range.  Requires ``family_params``.
    """
    p = inst.family_params
    if p is None:
        raise ValueError("instance has no family_params to validate")
    t, eps, x_l = p.t, p.eps, p.x_l
    n_f, m, cap = inst.facility_count, inst.client_count, inst.capacity
    n_core = p.core_client_count
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


def require_valid(inst: Instance) -> None:
    """ValueError listing every violated condition, if :func:`validate_params` finds any."""
    violations = validate_params(inst)
    if violations:
        raise ValueError(
            "instance parameters are invalid: " + "; ".join(str(v) for v in violations)
        )


# ---------------------------------------------------------------------------
# Cost vectors
# ---------------------------------------------------------------------------


class CostVector:
    """Nonnegative opening and connection costs, dense or two-point.

    The two-point form places a facility/client subset at one location and
    everything else at a second location at distance 1: connections cost 0 on
    the same side and 1 across, and a designated facility set has opening
    cost 1.  It is never materialized; entries are computed on demand, so
    family-scale instances stay cheap.
    """

    def __init__(
        self,
        facility_count: int,
        client_count: int,
        *,
        opening: Optional[Sequence[Fraction]] = None,
        connection: Optional[Sequence[Sequence[Fraction]]] = None,
        unit_opening: Optional[frozenset[int]] = None,
        near_facilities: Optional[frozenset[int]] = None,
        near_clients: Optional[Collection[int]] = None,
        metric_admissible: bool = False,
    ):
        self.facility_count = facility_count
        self.client_count = client_count
        self.metric_admissible = metric_admissible
        self._near_sorted: Optional[tuple[list[int], list[int]]] = None  # near ids, ascending
        self._masks = None  # near facility and client masks, see _near_masks
        if opening is not None:
            if connection is None:
                raise ValueError("dense costs need both opening and connection")
            if len(opening) != facility_count:
                raise ValueError("opening length mismatch")
            if len(connection) != facility_count or any(
                len(row) != client_count for row in connection
            ):
                raise ValueError("connection shape mismatch")
            self._opening = tuple(Fraction(f) for f in opening)
            self._connection = tuple(tuple(Fraction(c) for c in row) for row in connection)
            if any(f < 0 for f in self._opening) or any(
                c < 0 for row in self._connection for c in row
            ):
                raise ValueError("cost entries must be nonnegative")
            self._two_point = None
        else:
            if unit_opening is None or near_facilities is None or near_clients is None:
                raise ValueError("two-point costs need the three role sets")
            self._opening = None
            self._connection = None
            self._two_point = (unit_opening, near_facilities, near_clients)

    @classmethod
    def dense(
        cls,
        opening: Sequence[Fraction],
        connection: Sequence[Sequence[Fraction]],
        metric_admissible: bool = False,
    ) -> "CostVector":
        return cls(
            len(opening),
            len(connection[0]) if connection else 0,
            opening=opening,
            connection=connection,
            metric_admissible=metric_admissible,
        )

    def opening_of(self, i: int) -> Fraction:
        if self._two_point is not None:
            return ONE if i in self._two_point[0] else ZERO
        return self._opening[i]

    def connection_of(self, i: int, j: int) -> Fraction:
        if self._two_point is not None:
            _, near_f, near_c = self._two_point
            return ZERO if (i in near_f) == (j in near_c) else ONE
        return self._connection[i][j]

    def solution_cost(self, open_set: frozenset[int], assign: Sequence[int]) -> Fraction:
        """Exact cost of an integer solution; two-point costs are counted as integers.

        ``assign`` is a list, a tuple or an int64 array (read as plain ints).
        """
        if self._two_point is not None:
            import numpy as np

            ids = np.asarray(assign, dtype=np.int64)
            if ids.shape != (self.client_count,):
                raise ValueError(f"assignment of shape {ids.shape}, expected ({self.client_count},)")
            near_f, near_c = self._near_masks()
            try:  # an id past the last facility raises; a negative one would wrap
                if len(ids) and ids.min() < 0:
                    raise IndexError
                far = int(np.count_nonzero(near_f[ids] != near_c))
            except IndexError:
                raise ValueError("assignment targets unknown facility ids") from None
            return Fraction(sum(i in self._two_point[0] for i in open_set) + far)
        if not isinstance(assign, (list, tuple)):
            assign = assign.tolist()
        total = sum((self.opening_of(i) for i in open_set), ZERO)
        for j, i in enumerate(assign):
            total += self.connection_of(i, j)
        return total

    def _near_masks(self) -> tuple[np.ndarray, np.ndarray]:
        """Boolean masks of the near facilities and the near clients, built once."""
        if self._masks is None:
            import numpy as np

            _, near_f, near_c = self._two_point
            facilities = np.zeros(self.facility_count, dtype=bool)
            facilities[list(near_f)] = True
            clients = np.zeros(self.client_count, dtype=bool)
            if isinstance(near_c, range):
                clients[near_c.start : near_c.stop : near_c.step] = True
            else:
                clients[list(near_c)] = True
            self._masks = (facilities, clients)
        return self._masks

    def _near_count(self, axis: int, runs) -> int:
        """Near facilities (axis 0) or near clients (axis 1) in ``(lo, hi)`` runs, by bisection."""
        if self._near_sorted is None:
            self._near_sorted = (sorted(self._two_point[1]), sorted(self._two_point[2]))
        near = self._near_sorted[axis]
        return sum(bisect_left(near, hi) - bisect_left(near, lo) for lo, hi in runs)

    def _block_connection_total(self, facilities, runs) -> Fraction:
        """Sum of connection costs over a block of facility runs x client runs."""
        if self._two_point is not None:
            f_near = self._near_count(0, facilities)
            f_far = sum(hi - lo for lo, hi in facilities) - f_near
            c_near = self._near_count(1, runs)
            c_far = sum(hi - lo for lo, hi in runs) - c_near
            return Fraction(f_near * c_far + f_far * c_near)
        return sum(
            (self._connection[i][j] for lo_f, hi_f in facilities for i in range(lo_f, hi_f)
             for lo, hi in runs for j in range(lo, hi)),
            ZERO,
        )

    def vector_cost(self, v) -> Fraction:
        """Exact cost of a fractional (y, x) point, priced per symmetry class.

        Vectors never get materialized: each facility-class x client-class
        cell contributes x_value times the block's total connection cost, so
        family-scale vectors are priced in O(classes); a two-point block
        counts its near facilities and clients from the classes' runs.
        """
        if v.facility_count != self.facility_count or v.client_count != self.client_count:
            raise ValueError("cost/vector dimension mismatch")
        total = ZERO
        for fc_idx, fc in enumerate(v.fac_classes):
            y = v.y_values[fc_idx]
            if y != 0:
                total += y * sum(
                    (self.opening_of(i) for lo, hi in fc for i in range(lo, hi)), ZERO
                )
            for cc_idx, runs in enumerate(v.cli_classes):
                x = v.x_values[fc_idx][cc_idx]
                if x != 0:
                    total += x * self._block_connection_total(fc, runs)
        return total


def build_gap_costs(inst: Instance, core_index: "CoreIndex") -> CostVector:
    """Two-point cost vector certifying the gap of one core vector.

    The facilities of ``k | l`` and the designated clients sit at the near
    point, everything else at the far point (distance 1); facilities of ``l``
    cost 1 to open, all others 0.  The result satisfies the quadrangle
    inequality by construction and is flagged metric-admissible.
    """
    if not all(i in inst.facilities for i in core_index.k | core_index.l):
        raise ValueError("core index is inconsistent with the instance")
    return CostVector(
        inst.facility_count,
        inst.client_count,
        unit_opening=frozenset(core_index.l),
        near_facilities=frozenset(core_index.k | core_index.l),
        near_clients=inst.designated_clients,
        metric_admissible=True,
    )


@dataclass(frozen=True)
class MetricCheck:
    """Result of a quadrangle-inequality check.

    ``exhaustive`` distinguishes a full proof from a sampled "not falsified"
    verdict on instances too large to enumerate.
    """

    admissible: bool
    exhaustive: bool
    violation: Optional[tuple[int, int, int, int]] = None

    def __bool__(self) -> bool:
        return self.admissible


def _quadruples_random(
    n_f: int, m: int, samples: int, seed: int
) -> Iterator[tuple[int, int, int, int]]:
    from .randomness import ExactRng

    rng = ExactRng(seed)
    for _ in range(samples):
        yield (
            rng.integer_below(n_f),
            rng.integer_below(n_f),
            rng.integer_below(m),
            rng.integer_below(m),
        )


def check_metric_admissible(
    cost: CostVector,
    inst: Instance,
    *,
    pair_bound: int = 100_000,
    samples: int = 20_000,
    seed: int = 0,
) -> MetricCheck:
    """Check c[i][j] <= c[i][j'] + c[i'][j'] + c[i'][j] over all quadruples.

    Exhaustive whenever facility_count * client_count <= pair_bound
    (O(n_f^2 m^2) work); otherwise a seeded sample of quadruples, which can
    only falsify, never prove.
    """
    if cost.facility_count != inst.facility_count or cost.client_count != inst.client_count:
        raise ValueError("cost/instance dimension mismatch")
    n_f, m = inst.facility_count, inst.client_count
    exhaustive = n_f * m <= pair_bound

    if exhaustive:
        quads = (
            (i, ip, j, jp)
            for i in range(n_f)
            for ip in range(n_f)
            for j in range(m)
            for jp in range(m)
        )
    else:
        quads = _quadruples_random(n_f, m, samples, seed)

    for i, ip, j, jp in quads:
        lhs = cost.connection_of(i, j)
        rhs = (
            cost.connection_of(i, jp)
            + cost.connection_of(ip, jp)
            + cost.connection_of(ip, j)
        )
        if lhs > rhs:
            return MetricCheck(False, exhaustive, (i, ip, j, jp))
    return MetricCheck(True, exhaustive, None)
