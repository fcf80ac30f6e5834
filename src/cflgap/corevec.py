"""Core fractional vectors, the collision predicate, and the natural LP check.

A core vector is indexed by an ordered pair of disjoint size-``t`` facility
sets ``(k, l)``: facilities of ``k`` and all outside facilities are fully
open, facilities of ``l`` carry opening value ``eps``; each designated client
spreads one unit of assignment mass over ``k`` (``x_k`` each) and ``l``
(``x_l`` each), while every other client spreads it uniformly over the
outside facilities.  Vectors live in [0,1]^(n_f + n_f*m) and are stored by
symmetry classes (one rational per facility-class x client-class cell); a
dense point is the vector whose classes are all singletons.  Facility and
client classes alike are sorted half-open id runs ``(lo, hi)``, so a class
that is one id range costs the same at any id count.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .instance import ONE, ZERO, Instance, require_valid

__all__ = [
    "CoreIndex",
    "FracVector",
    "NaturalLpReport",
    "LpViolation",
    "make_core_vector",
    "collides",
    "check_natural_lp",
    "midpoint",
]

# Dense materialization guard: n_f * m coordinates beyond this is refused.
DENSE_LIMIT = 1_000_000

# An id class: sorted, disjoint, maximal half-open id runs (lo, hi).
Runs = tuple[tuple[int, int], ...]


def _fraction(value) -> Fraction:
    # Fraction(f) copies a Fraction f; midpoint and to_dense pass Fractions
    return value if type(value) is Fraction else Fraction(value)


def _runs(ids) -> Runs:
    """An id class as sorted runs with adjacent runs merged.

    ``ids`` is a tuple of ``(lo, hi)`` pairs, a ``range`` (one run, not
    walked) or any other iterable of ids.
    """
    if type(ids) is tuple and ids and type(ids[0]) is tuple:
        pairs = sorted(ids)
    elif type(ids) is range and ids.step == 1:
        pairs = [(ids.start, ids.stop)] if ids else []
    else:
        pairs = [(j, j + 1) for j in sorted(set(ids))]
    merged: list[tuple[int, int]] = []
    for lo, hi in pairs:
        if merged and merged[-1][1] == lo:
            merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return tuple(merged)


@dataclass(frozen=True)
class CoreIndex:
    """Ordered pair of disjoint facility t-sets.

    Every core vector of an instance shares its designated clients,
    :attr:`Instance.designated_clients`.
    """

    k: frozenset[int]
    l: frozenset[int]

    @classmethod
    def for_instance(
        cls, inst: Instance, k: Iterable[int], l: Iterable[int]
    ) -> "CoreIndex":
        """The index ``(k, l)``, or ValueError unless they are disjoint t-sets of facilities."""
        kf, lf, t = frozenset(k), frozenset(l), inst.family.t
        if len(kf) != t or len(lf) != t:
            raise ValueError(f"|k| and |l| must both equal t = {t}, got {len(kf)}, {len(lf)}")
        if kf & lf:
            raise ValueError(f"k and l must be disjoint, share {sorted(kf & lf)}")
        if not all(i in inst.facilities for i in kf | lf):
            raise ValueError("k and l must be facility ids of the instance")
        return cls(k=kf, l=lf)


def collides(c1: CoreIndex, c2: CoreIndex) -> bool:
    """True iff l1 has an element outside k2|l2 and l2 one outside k1|l1."""
    return bool(c1.l - (c2.k | c2.l)) and bool(c2.l - (c1.k | c1.l))


# ---------------------------------------------------------------------------
# FracVector
# ---------------------------------------------------------------------------


class FracVector:
    """Exact-rational (y, x) point stored by symmetry classes.

    The facility classes partition ``range(facility_count)`` and the client
    classes ``range(client_count)``; one y value per facility class and one
    x value per facility-class x client-class cell.  Each class, on either
    axis, is given as anything :func:`_runs` accepts (id sets, ranges, or
    runs) and kept as sorted ``(lo, hi)`` runs, so sizes, least ids and
    refinements come from the run endpoints.  A dense point is the vector
    whose classes are all singletons (:meth:`from_dense`).
    """

    def __init__(
        self,
        facility_count: int,
        client_count: int,
        fac_classes: Sequence[Iterable[int]],
        cli_classes: Sequence[Iterable[int]],
        y_values: Sequence[Fraction],
        x_values: Sequence[Sequence[Fraction]],
    ):
        self.facility_count = facility_count
        self.client_count = client_count
        # per axis (0 facilities, 1 clients): sorted run starts and owners
        self._lookups: list[Optional[tuple[list[int], list[int]]]] = [None, None]
        self.fac_classes: tuple[Runs, ...] = tuple(map(_runs, fac_classes))
        self.cli_classes: tuple[Runs, ...] = tuple(map(_runs, cli_classes))
        self.y_values = tuple(map(_fraction, y_values))
        self.x_values = tuple(tuple(map(_fraction, row)) for row in x_values)
        self._check_partition(self.fac_classes, facility_count, "facility")
        self._check_partition(self.cli_classes, client_count, "client")
        if len(self.y_values) != len(self.fac_classes):
            raise ValueError("one y value per facility class required")
        if len(self.x_values) != len(self.fac_classes) or any(
            len(row) != len(self.cli_classes) for row in self.x_values
        ):
            raise ValueError("x values must be facility-class x client-class")
        entries = list(self.y_values) + [v for row in self.x_values for v in row]
        bad = next((v for v in entries if not 0 <= v <= 1), None)
        if bad is not None:
            raise ValueError(f"vector entry {bad} outside [0, 1]")

    @staticmethod
    def _check_partition(classes: Sequence[Runs], n: int, what: str) -> None:
        """ValueError unless the classes are nonempty and their runs tile ``[0, n)``."""
        runs = sorted(run for c in classes for run in c)
        if any(b[0] < a[1] for a, b in zip(runs, runs[1:])):
            raise ValueError(f"overlapping {what} classes")
        edges = [0] + [hi for _, hi in runs]
        if (
            edges[-1] != n
            or not all(classes)
            or any(lo != edge or lo >= hi for (lo, hi), edge in zip(runs, edges))
        ):
            raise ValueError(f"{what} classes do not partition range({n})")

    @classmethod
    def from_dense(
        cls, y: Sequence[Fraction], x: Sequence[Sequence[Fraction]]
    ) -> "FracVector":
        """The vector with coordinates ``y[i]`` and ``x[i][j]``: singleton classes."""
        client_count = len(x[0]) if x else 0
        return cls(
            len(y),
            client_count,
            [((i, i + 1),) for i in range(len(y))],
            [((j, j + 1),) for j in range(client_count)],
            y,
            x,
        )

    @property
    def is_dense(self) -> bool:
        """True when every facility and every client class is a singleton."""
        return all(_size(c) == 1 for c in self.fac_classes + self.cli_classes)

    # -- coordinate access ---------------------------------------------------

    def _class_of(self, axis: int, i: int) -> int:
        """Class index of id ``i`` on axis 0 (facilities) or 1 (clients), by bisection."""
        if self._lookups[axis] is None:
            classes = (self.fac_classes, self.cli_classes)[axis]
            runs = sorted((lo, idx) for idx, c in enumerate(classes) for lo, _ in c)
            self._lookups[axis] = ([lo for lo, _ in runs], [idx for _, idx in runs])
        if not 0 <= i < (self.facility_count, self.client_count)[axis]:
            raise KeyError(i)
        starts, owners = self._lookups[axis]
        return owners[bisect_right(starts, i) - 1]

    def y_of(self, i: int) -> Fraction:
        return self.y_values[self._class_of(0, i)]

    def x_of(self, i: int, j: int) -> Fraction:
        return self.x_values[self._class_of(0, i)][self._class_of(1, j)]

    # -- conversions and algebra ----------------------------------------------

    def to_dense(self) -> "FracVector":
        """The same point with singleton classes in id order."""
        if self.facility_count * self.client_count > DENSE_LIMIT:
            raise ValueError(
                f"refusing to materialize {self.facility_count * self.client_count} coordinates"
            )
        rows = [self._class_of(0, i) for i in range(self.facility_count)]
        columns = [self._class_of(1, j) for j in range(self.client_count)]
        return FracVector.from_dense(
            [self.y_values[r] for r in rows],
            [[self.x_values[r][c] for c in columns] for r in rows],
        )

    def set_x(self, i: int, j: int, value: Fraction) -> "FracVector":
        """Dense copy with one assignment coordinate replaced."""
        d = self.to_dense()
        x = [list(row) for row in d.x_values]
        x[i][j] = Fraction(value)
        return FracVector.from_dense(d.y_values, x)

    def _same_dims(self, other: "FracVector") -> None:
        if (
            self.facility_count != other.facility_count
            or self.client_count != other.client_count
        ):
            raise ValueError("vector dimension mismatch")

    def equals(self, other: "FracVector") -> bool:
        """Exact coordinatewise equality, checked on the common refinement."""
        return self.first_difference(other) is None

    def first_difference(self, other: "FracVector") -> Optional[str]:
        """Where this vector first differs from ``other``, or None if they are equal.

        Checked on the common refinement, facility atom by facility atom in
        order of least id: the atom's y, then its x row over the client
        atoms.  The text names the ids (as ``lo..hi`` runs) and both values,
        this vector's first, e.g. ``y of facilities 2..3 is 1, not 2/5``.
        """
        self._same_dims(other)
        cli_atoms = _refine(self.cli_classes, other.cli_classes)
        cols_a = [ca for _, ca, _ in cli_atoms]
        cols_b = [cb for _, _, cb in cli_atoms]
        for fac_runs, fa, fb in _refine(self.fac_classes, other.fac_classes):
            y_a, y_b = self.y_values[fa], other.y_values[fb]
            if y_a != y_b:
                return f"y of facilities {_runs_text(fac_runs)} is {y_a}, not {y_b}"
            row_a, row_b = self.x_values[fa], other.x_values[fb]
            if [row_a[c] for c in cols_a] != [row_b[c] for c in cols_b]:
                cli_runs, x_a, x_b = next(
                    (runs, row_a[ca], row_b[cb])
                    for runs, ca, cb in cli_atoms
                    if row_a[ca] != row_b[cb]
                )
                return (
                    f"x of facilities {_runs_text(fac_runs)} and clients "
                    f"{_runs_text(cli_runs)} is {x_a}, not {x_b}"
                )
        return None


def _size(runs: Runs) -> int:
    return sum(hi - lo for lo, hi in runs)


def _runs_text(runs: Runs) -> str:
    """Runs in the command line's id-spec form, e.g. ``0..4,7``."""
    return ",".join(f"{lo}..{hi - 1}" if hi - lo > 1 else f"{lo}" for lo, hi in runs)


def _refine(
    parts_a: Sequence[Runs], parts_b: Sequence[Runs]
) -> list[tuple[Runs, int, int]]:
    """Common refinement of two run partitions: (runs, index in a, index in b).

    Both partitions tile the same ``[0, n)``, so one merge over their sorted
    runs cuts it at the union of their breakpoints; the pieces that share a
    pair of classes form one atom, and atoms are ordered by least id.
    """
    runs_a = sorted((lo, hi, i) for i, c in enumerate(parts_a) for lo, hi in c)
    runs_b = sorted((lo, hi, i) for i, c in enumerate(parts_b) for lo, hi in c)
    atoms: dict[tuple[int, int], list[tuple[int, int]]] = {}
    a = b = 0
    while a < len(runs_a) and b < len(runs_b):
        lo_a, hi_a, ia = runs_a[a]
        lo_b, hi_b, ib = runs_b[b]
        hi = min(hi_a, hi_b)
        atoms.setdefault((ia, ib), []).append((max(lo_a, lo_b), hi))
        a += hi_a == hi
        b += hi_b == hi
    return [(tuple(pieces), ia, ib) for (ia, ib), pieces in atoms.items()]


def midpoint(v1: FracVector, v2: FracVector) -> FracVector:
    """Coordinatewise exact average of two vectors of the same shape."""
    v1._same_dims(v2)
    fac_atoms = _refine(v1.fac_classes, v2.fac_classes)
    cli_atoms = _refine(v1.cli_classes, v2.cli_classes)
    y_values = [(v1.y_values[ia] + v2.y_values[ib]) / 2 for _, ia, ib in fac_atoms]
    x_values = [
        [(v1.x_values[fa][ca] + v2.x_values[fb][cb]) / 2 for _, ca, cb in cli_atoms]
        for _, fa, fb in fac_atoms
    ]
    return FracVector(
        v1.facility_count,
        v1.client_count,
        [atom for atom, _, _ in fac_atoms],
        [atom for atom, _, _ in cli_atoms],
        y_values,
        x_values,
    )


# ---------------------------------------------------------------------------
# Core vector construction
# ---------------------------------------------------------------------------


def make_core_vector(inst: Instance, k: Iterable[int], l: Iterable[int]) -> FracVector:
    """The core vector indexed by (k, l), symmetry-classed.

    The designated clients (:attr:`Instance.designated_clients`, a prefix of
    the client ids) and the rest, the tail, are both single runs.
    """
    params = require_valid(inst)
    index = CoreIndex.for_instance(inst, k, l)
    kf, lf = index.k, index.l
    # the outside facilities as the runs between the sorted ids of k | l
    taken = sorted(kf | lf)
    outside = tuple(
        (lo, hi)
        for lo, hi in zip([0] + [i + 1 for i in taken], taken + [inst.facility_count])
        if lo < hi
    )
    core, rest = inst.designated_clients, inst.rest_clients
    x_out = Fraction(1, inst.facility_count - 2 * params.t)

    fac_classes = [kf, lf] + ([outside] if outside else [])
    cli_classes = [((core.start, core.stop),)] + ([((rest.start, rest.stop),)] if rest else [])
    y_values = [ONE, params.eps] + ([ONE] if outside else [])
    x_rows = {
        "k": [params.x_k] + ([ZERO] if rest else []),
        "l": [params.x_l] + ([ZERO] if rest else []),
        "out": [ZERO] + ([x_out] if rest else []),
    }
    x_values = [x_rows["k"], x_rows["l"]] + ([x_rows["out"]] if outside else [])
    return FracVector(
        inst.facility_count, inst.client_count, fac_classes, cli_classes, y_values, x_values
    )


# ---------------------------------------------------------------------------
# Natural LP feasibility
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LpViolation:
    constraint: str
    where: str
    slack: Fraction

    def __str__(self) -> str:
        return f"{self.constraint} at {self.where}: violated by {self.slack}"


@dataclass(frozen=True)
class NaturalLpReport:
    passed: bool
    violations: tuple[LpViolation, ...]

    def __bool__(self) -> bool:
        return self.passed


def check_natural_lp(inst: Instance, v: FracVector) -> NaturalLpReport:
    """Exact check of the natural relaxation constraints.

    (i) every client's assignment mass is exactly 1, (ii) x_ij <= y_i,
    (iii) every facility's assigned demand is at most capacity * y_i.  The
    bounds 0 <= x_ij and y_i <= 1 need no check here: the :class:`FracVector`
    constructor refuses every entry outside [0, 1].  Checked once per
    symmetry class; a dense vector's violations name the facility and client
    ids, a classed one's the least id of each class.
    """
    if v.facility_count != inst.facility_count or v.client_count != inst.client_count:
        raise ValueError("vector/instance dimension mismatch")
    out: list[LpViolation] = []
    cap = inst.capacity
    dense = v.is_dense

    def where(what: str, least: int) -> str:
        return f"{what} {least}" if dense else f"{what} class {least}.."

    # a class's least id is its first run's start
    fac_sizes = list(map(_size, v.fac_classes))
    cli_sizes = list(map(_size, v.cli_classes))
    for cc_idx, runs in enumerate(v.cli_classes):
        mass = sum(
            (size * v.x_values[fc_idx][cc_idx] for fc_idx, size in enumerate(fac_sizes)),
            ZERO,
        )
        if mass != 1:
            out.append(LpViolation("assignment_mass", where("client", runs[0][0]), abs(mass - 1)))
    for fc_idx, fc in enumerate(v.fac_classes):
        y = v.y_values[fc_idx]
        where_f = where("facility", fc[0][0])
        load = ZERO
        for cc_idx, runs in enumerate(v.cli_classes):
            x = v.x_values[fc_idx][cc_idx]
            if x > y:
                where_c = where("client", runs[0][0])
                out.append(
                    LpViolation("assignment_le_opening", f"{where_f} / {where_c}", x - y)
                )
            load += cli_sizes[cc_idx] * x
        if load > cap * y:
            out.append(LpViolation("capacity", where_f, load - cap * y))

    return NaturalLpReport(passed=not out, violations=tuple(out))
