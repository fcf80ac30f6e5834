"""Collision census, gap certificates, and the constraint-count lower bound.

The census counts, for a fixed reference pair (k, l), how many ordered
disjoint pairs (k', l') fail to collide with it: either l' lands inside
k|l, or l lands inside k'|l'.  Inclusion-exclusion gives the exact count at
any scale; exhaustive pair enumeration provides the ground truth at desk
scale.  Because a valid inequality can separate at most the non-colliding
members (colliding pairs share a midpoint inside the integer hull), at least
ceil(core_size / lambda) inequalities are needed to separate the whole core,
with lambda the non-colliding count (the reference included).

Gap certificates pair a core vector with its two-point cost vector: the
fractional cost is t*eps while every integer solution costs at least 1, so
any formulation with gap quality below 1/(t*eps) must cut the vector.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import TYPE_CHECKING, Optional

from .corevec import CoreIndex, FracVector, make_core_vector
from .instance import (CLIENT_LIMIT, FACILITY_LIMIT, Instance, build_gap_costs,
                       check_metric_admissible, require_narrow, require_valid)

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

    from .rounding import IntSolution

# numpy, the sampler and the polytope oracle are imported by the array
# kernels and the witness that use them, so the formula census and the
# bound run without numpy.

__all__ = [
    "CensusReport",
    "GapCertificate",
    "McEstimate",
    "core_size",
    "noncolliding_count_exact",
    "noncolliding_count_brute",
    "noncolliding_prob_mc",
    "noncolliding_upper_bound",
    "reference_index",
    "lower_bound_constraints",
    "build_census_report",
    "certify_gap",
    "analytic_opt_witness",
    "BRUTE_CENSUS_LIMIT",
]

# exhaustive census refused above this many candidate pairs
BRUTE_CENSUS_LIMIT = 100_000
# candidate rows per array operation of the Monte Carlo census, and the
# bytes of permutation rows it holds at once (1,000 rows up to 2,097 facilities)
CENSUS_CHUNK = 1000
CENSUS_CHUNK_BYTES = 1 << 24
# candidate pairs per array operation of the brute-force census (at least one k')
BRUTE_CENSUS_CHUNK = 16_384


def core_size(inst: Instance) -> int:
    """Number of ordered disjoint (k, l) pairs: C(n_f, t) * C(n_f - t, t)."""
    n_f, t = inst.facility_count, require_valid(inst).t
    return comb(n_f, t) * comb(n_f - t, t)


def noncolliding_count_exact(inst: Instance) -> int:
    """Exact count of pairs not colliding with a fixed reference.

    Inclusion-exclusion over the two containment events:
    E1 (l' inside k|l), E2 (l inside k'|l').  The count is independent of
    which reference is fixed, and includes the reference pair itself.
    """
    n_f, t = inst.facility_count, require_valid(inst).t
    e1 = comb(2 * t, t) * comb(n_f - t, t)
    e2 = sum(
        comb(t, i) * comb(n_f - t, t - i) * comb(n_f - 2 * t + i, i)
        for i in range(t + 1)
    )
    both = sum(
        comb(t, i) ** 2 * comb(n_f - t - i, t - i) for i in range(t + 1)
    )
    return e1 + e2 - both


def reference_index(inst: Instance) -> CoreIndex:
    """The reference pair k = {0..t-1}, l = {t..2t-1}."""
    t = require_valid(inst).t
    return CoreIndex.for_instance(inst, range(t), range(t, 2 * t))


def _noncolliding(inside: np.ndarray, found: np.ndarray, t: int) -> np.ndarray:
    """The census predicate on per-candidate counts: not ``collides(ref, candidate)``.

    ``inside`` counts the members of ``l'`` in ``k|l`` and ``found`` the
    members of ``l`` in ``k'|l'``; the candidate does not collide when either
    set lies inside the other side, that is when either count is ``t``.
    """
    return (inside == t) | (found == t)


def _noncolliding_rows(
    ref: CoreIndex, n_f: int, k_rows: np.ndarray, l_rows: np.ndarray
) -> np.ndarray:
    """Mask of the candidate rows ``(k_rows[r], l_rows[r])`` that do not collide with ``ref``.

    Each row pair must hold distinct facility ids, so counting the members of
    ``l`` among them gives ``found``.
    """
    import numpy as np

    in_ref = np.zeros(n_f, dtype=bool)
    in_ref[list(ref.k | ref.l)] = True
    in_l = np.zeros(n_f, dtype=bool)
    in_l[list(ref.l)] = True
    inside = in_ref[l_rows].sum(axis=1)
    found = in_l[k_rows].sum(axis=1) + in_l[l_rows].sum(axis=1)
    return _noncolliding(inside, found, len(ref.l))


def noncolliding_count_brute(
    inst: Instance, reference: Optional[CoreIndex] = None
) -> int:
    """Ground-truth census by testing every candidate pair.

    The ``l'`` candidates of one ``k'`` are the rows of one fixed table, the
    t-subsets of ``range(n_f - t)``, read as positions among the facilities
    outside ``k'``.  Per block of ``k'`` (``BRUTE_CENSUS_CHUNK`` pairs, at
    least one ``k'``) each outside facility gets two small-int flags, "in
    k|l" and "in l"; adding a flag over the table's t columns counts, for
    every pair at once, the members of ``l'`` in ``k|l`` and the members of
    ``l`` in ``l'``.  No pair's id rows are built, and every pair is counted.
    """
    n_f, t = inst.facility_count, require_valid(inst).t
    size = core_size(inst)
    if size > BRUTE_CENSUS_LIMIT:
        raise ValueError(
            f"core size {size} exceeds the enumeration limit {BRUTE_CENSUS_LIMIT}; "
            "pass --formula-only"
        )
    import numpy as np

    ref = reference if reference is not None else reference_index(inst)
    flag = np.min_scalar_type(t)  # a count of at most t members
    in_ref = np.zeros(n_f, dtype=flag)
    in_ref[list(ref.k | ref.l)] = 1
    in_l = np.zeros(n_f, dtype=flag)
    in_l[list(ref.l)] = 1
    columns = np.array(
        list(itertools.combinations(range(n_f - t), t)), dtype=np.intp
    ).reshape(-1, t).T.copy()
    k_primes = itertools.combinations(range(n_f), t)
    per_block = max(1, BRUTE_CENSUS_CHUNK // columns.shape[1])
    count = examined = 0
    while block := list(itertools.islice(k_primes, per_block)):
        outside = np.ones((len(block), n_f), dtype=bool)
        outside[np.arange(len(block))[:, None], block] = False
        outside_ids = np.nonzero(outside)[1].reshape(len(block), n_f - t)
        ref_flags, l_flags = in_ref[outside_ids], in_l[outside_ids]
        inside = ref_flags[:, columns[0]]
        found = l_flags[:, columns[0]]
        for column in columns[1:]:
            inside += ref_flags[:, column]
            found += l_flags[:, column]
        # the members of l in k' are the ones no outside facility holds
        found += (t - l_flags.sum(axis=1, dtype=flag))[:, None]
        count += int(np.count_nonzero(_noncolliding(inside, found, t)))
        examined += inside.size
    if examined != size:
        raise AssertionError(f"census examined {examined} pairs, core size is {size}")
    return count


def noncolliding_upper_bound(inst: Instance) -> Fraction:
    """2 * (2t/n_f)^t * core_size: the with-repetition containment bound."""
    n_f, t = inst.facility_count, require_valid(inst).t
    return 2 * Fraction(2 * t, n_f) ** t * core_size(inst)


@dataclass(frozen=True)
class McEstimate:
    estimate: float
    half_width: float   # 95% normal-approximation half-width
    upper95: float      # estimate + half-width; rule-of-three when no hits
    samples: int
    seed: int
    hits: int

    @classmethod
    def from_hits(cls, hits: int, samples: int, seed: int) -> "McEstimate":
        """hits / samples with its 95% interval."""
        p_hat = hits / samples
        half = 1.96 * (p_hat * (1 - p_hat) / samples) ** 0.5
        upper = p_hat + half if hits else 3.0 / samples
        return cls(
            estimate=p_hat, half_width=half, upper95=upper,
            samples=samples, seed=seed, hits=hits,
        )


def noncolliding_prob_mc(inst: Instance, samples: int, seed: int) -> McEstimate:
    """Monte Carlo estimate of the non-collision probability vs a reference.

    Draws uniform ordered disjoint pairs (without repetition inside each
    set), so it estimates the exact census fraction; the closed-form
    containment bound allows repetition and is therefore only an upper
    reference.  Deterministic for a given seed.
    """
    import numpy as np

    from .randomness import ExactRng

    n_f, t = inst.facility_count, require_valid(inst).t
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    require_narrow("facility", n_f, FACILITY_LIMIT, "the Monte Carlo census's")
    ref = reference_index(inst)
    rng = ExactRng(seed)
    ids = np.arange(n_f)
    # permuted_rows draws as successive permutations do, so the hits do not
    # depend on the chunk size
    chunk = min(CENSUS_CHUNK, max(1, CENSUS_CHUNK_BYTES // (8 * n_f)))
    hits = 0
    for start in range(0, samples, chunk):
        perms = rng.permuted_rows(ids, min(chunk, samples - start))
        hits += int(np.count_nonzero(
            _noncolliding_rows(ref, n_f, perms[:, :t], perms[:, t : 2 * t])
        ))
    return McEstimate.from_hits(hits, samples, seed)


def lower_bound_constraints(inst: Instance) -> int:
    """ceil(core_size / lambda): minimum inequalities separating the core.

    lambda is the exact non-colliding count per member (reference included),
    the most core members a single valid inequality can eliminate.
    """
    lam = noncolliding_count_exact(inst)
    if lam == 0:
        raise AssertionError(
            "non-colliding count is zero; impossible for a valid instance "
            "(the reference never collides with itself)"
        )
    return -(-core_size(inst) // lam)


@dataclass(frozen=True)
class CensusReport:
    """Exact collision census of one instance, with optional extras."""

    core_size: int
    lambda_: int  # non-colliding count per member
    noncolliding_upper_bound: Fraction
    lower_bound: int
    brute_force_count: Optional[int] = None
    mc_estimate: Optional[McEstimate] = None


def build_census_report(inst: Instance, *, brute_force: bool = False) -> CensusReport:
    """Assemble the census; brute force cross-checks the formula when asked."""
    lam = noncolliding_count_exact(inst)
    upper = noncolliding_upper_bound(inst)
    if inst.facility_count == inst.family.t ** 2 and lam > upper:
        raise AssertionError(
            f"containment bound violated on a square-shaped instance: {lam} > {upper}"
        )
    brute = None
    if brute_force:
        brute = noncolliding_count_brute(inst)
        if brute != lam:
            raise AssertionError(
                f"census mismatch: formula {lam}, enumeration {brute}"
            )
    return CensusReport(
        core_size=core_size(inst),
        lambda_=lam,
        noncolliding_upper_bound=upper,
        lower_bound=lower_bound_constraints(inst),
        brute_force_count=brute,
    )


# ---------------------------------------------------------------------------
# Gap certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GapCertificate:
    frac_cost: Fraction
    opt_value: Fraction
    opt_provenance: str  # "analytic" | "brute-force"
    ratio: Fraction
    gap_conclusion: str


def analytic_opt_witness(inst: Instance, core_index: CoreIndex) -> IntSolution:
    """Cost-1 optimum witness under the matching two-point costs.

    Opens the high set, the cheapest-by-id low facility, and all outside
    facilities; fills the high set to capacity with designated clients, puts
    the single overflow client on the opened low facility, and spreads the
    rest over the outside facilities.  Requires the leftover clients to fit
    outside: client_count - core <= capacity * (n_f - 2t).
    """
    import numpy as np

    from .rounding import IntSolution, solution_violations

    t = require_valid(inst).t
    require_narrow("client", inst.client_count, CLIENT_LIMIT, "the gap witness's")
    cap = inst.capacity
    k_sorted = sorted(core_index.k)
    low_open = min(core_index.l)
    outside = sorted(set(inst.facilities) - core_index.k - core_index.l)
    core = inst.designated_clients  # capacity*t + 1: the high set overflows by one
    rest = inst.rest_clients
    if len(rest) > cap * len(outside):
        raise ValueError(
            f"outside capacity shortfall: {len(rest)} leftover clients exceed "
            f"capacity*(n_f - 2t) = {cap * len(outside)}"
        )

    # the designated clients are range(capacity*t + 1), the rest follow them
    assign = np.empty(inst.client_count, dtype=np.int64)
    assign[: cap * t] = np.repeat(k_sorted, cap)
    assign[core[-1]] = low_open
    assign[rest.start :] = np.resize(outside, len(rest))  # cyclic over outside
    assign.setflags(write=False)

    witness = IntSolution(
        open=frozenset(k_sorted) | {low_open} | frozenset(outside),
        assign=assign,
    )
    violations = solution_violations(inst, witness)
    if violations:
        raise AssertionError(f"witness construction infeasible: {violations}")
    return witness


def certify_gap(
    inst: Instance,
    core_index: CoreIndex,
    mode: str = "analytic",
    *,
    core: Optional[FracVector] = None,
) -> GapCertificate:
    """Gap certificate of one core vector under its two-point costs.

    Fractional cost is evaluated per symmetry class (t*eps: only the low
    set's openings contribute), so analytic mode needs no materialized
    vector.  Both modes check the costs' quadrangle inequality exactly.  In
    analytic mode the optimum is 1: costs are integers, no cost-0 solution
    fits (:meth:`CostVector.zero_cost_fits`, checked here), and the witness
    costs 1.  Brute-force mode replaces the analytic optimum with exhaustive
    enumeration on tiny instances.  ``core`` is the core vector of
    ``core_index`` when the caller has already built it.
    """
    if mode not in ("analytic", "brute-force"):
        raise ValueError(f"unknown mode {mode!r}")
    cost = build_gap_costs(inst, core_index)
    metric = check_metric_admissible(cost, inst)
    if not metric:
        raise AssertionError(f"gap costs violate the quadrangle inequality at {metric.violation}")
    if core is None:
        core = make_core_vector(inst, core_index.k, core_index.l)
    frac_cost = cost.vector_cost(core)

    if mode == "analytic":
        if cost.zero_cost_fits(inst.capacity):
            raise AssertionError("a cost-0 solution fits, so the optimum is below 1")
        witness = analytic_opt_witness(inst, core_index)
        witness_cost = cost.solution_cost(witness.open, witness.assign)
        if witness_cost != 1:
            raise AssertionError(f"witness cost is {witness_cost}, expected 1")
        opt_value = witness_cost
        provenance = "analytic"
    else:
        from .polytope import brute_force_opt

        opt_value, _ = brute_force_opt(inst, cost)
        provenance = "brute-force"

    ratio = opt_value / frac_cost
    return GapCertificate(
        frac_cost=frac_cost,
        opt_value=opt_value,
        opt_provenance=provenance,
        ratio=ratio,
        gap_conclusion=(
            f"any g-approximate natural-encoding formulation with g < {ratio} "
            "must separate this core vector"
        ),
    )
