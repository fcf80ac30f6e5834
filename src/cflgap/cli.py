"""Command-line front end: reproducible experiments with embedded manifests.

Every randomized command takes an explicit ``--seed``; reports are printed
as plain tables and optionally written as canonical JSON via ``-o``.  Output
documents embed a manifest (command, parameters, seed, tool version, input
digests), and identical manifests reproduce byte-identical files.

Exit codes: 0 success (or a true predicate), 1 false predicate / failed
check, 2 invalid parameters or violated preconditions, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from dataclasses import replace
from functools import partial
from typing import TYPE_CHECKING, Callable, Optional

from . import __version__
from . import io as docio
from .corevec import CoreIndex, check_natural_lp, collides, make_core_vector
from .instance import (
    Instance,
    build_family_instance,
    build_gap_costs,
    build_general_instance,
    require_valid,
)

if TYPE_CHECKING:  # pragma: no cover
    from .rounding import RoundingPlan

# numpy, the sampler, the census and the oracles are imported inside the
# commands that use them, so gen, core, collide, lpcheck, bound and
# census --exact --formula-only run without numpy.

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_INVALID = 2
EXIT_IO = 3

BLOCK_DRAWS = 1000  # draws per seeded block of sample and census --mc
MAX_VIOLATION_EXAMPLES = 5


def _manifest(command: str, params: dict, seed: Optional[int], inputs: dict) -> dict:
    return {
        "command": command,
        "parameters": params,
        "seed": seed,
        "version": __version__,
        "inputs": inputs,
    }


def _write(args, payload: dict) -> None:
    if getattr(args, "output", None):
        digest = docio.write_document(args.output, payload)
        print(f"wrote {args.output} sha256={digest}")


def _load_instance(path: str) -> tuple[Instance, dict]:
    doc = docio.read_document(path)
    return docio.instance_from_doc(doc), {path: docio.sha256_of(path)}


def _load_core(path: str):
    doc = docio.read_document(path)
    inst, index, vec = docio.load_core_doc(doc)
    return inst, index, vec, {path: docio.sha256_of(path)}


def _load_core_index(path: str):
    """Instance, index and input digest of a core file whose vector is the
    core vector of its ``(k, l)``; for any other payload, ValueError naming
    the first facility class or cell that differs."""
    inst, index, vec, inputs = _load_core(path)
    core = make_core_vector(inst, index.k, index.l)
    if not vec.equals(core):
        raise ValueError(
            f"core file {path} holds a vector other than the core vector of "
            f"k={sorted(index.k)} l={sorted(index.l)}: {vec.first_difference(core)}"
        )
    return inst, index, inputs


def _load_core_pair(first: str, second: str):
    """Instance, both indices and input digests of two core files of one instance."""
    inst, c1, in1 = _load_core_index(first)
    inst2, c2, in2 = _load_core_index(second)
    if inst != inst2:
        raise ValueError("core files describe different instances")
    return inst, c1, c2, {**in1, **in2}


def _parse_id_spec(spec: str) -> list[int]:
    """Facility id spec: comma-separated ids and lo..hi ranges, e.g. 0..4,7."""
    out: list[int] = []
    for part in spec.split(","):
        part = part.strip()
        if ".." in part:
            lo, hi = part.split("..", 1)
            out.extend(range(int(lo), int(hi) + 1))
        elif part:
            out.append(int(part))
    return out


def _resolve_instance(args) -> tuple[Instance, dict]:
    """Instance from --instance FILE, or built inline from --t/--a."""
    if getattr(args, "instance", None):
        return _load_instance(args.instance)
    if getattr(args, "t", None) is None:
        raise ValueError("provide --instance FILE or --t T")
    return build_family_instance(args.t, args.a), {}


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_gen(args) -> int:
    if args.family == args.general:
        raise ValueError("choose exactly one of --family / --general")
    options = {"--t": args.t} if args.family else {
        "--nf": args.nf, "--t": args.t, "--U": args.capacity,
        "--m": args.m, "--eps": args.eps, "--xl": args.xl,
    }
    missing = [flag for flag, value in options.items() if value is None]
    if missing:
        mode = "--family" if args.family else "--general"
        raise ValueError(f"gen {mode} requires {', '.join(missing)}")
    if args.family:
        inst = build_family_instance(args.t, args.a)
        params = {"mode": "family", "t": args.t, "a": args.a}
    else:
        inst = build_general_instance(
            args.nf, args.t, args.capacity, args.m,
            docio.frac_from_str(args.eps), docio.frac_from_str(args.xl),
        )
        params = {
            "mode": "general", "nf": args.nf, "t": args.t,
            "capacity": args.capacity, "m": args.m, "eps": args.eps, "xl": args.xl,
        }
    for v in inst.violations:
        print(f"invalid: {v}", file=sys.stderr)
    if inst.violations and args.strict:
        return EXIT_INVALID
    payload = {
        **docio.instance_to_doc(inst),
        "manifest": _manifest("gen", params, None, {}),
    }
    print(
        f"instance: {inst.facility_count} facilities, {inst.client_count} clients, "
        f"capacity {inst.capacity}, valid={not inst.violations}"
    )
    _write(args, payload)
    return EXIT_OK


def cmd_core(args) -> int:
    inst, inputs = _load_instance(args.instance)
    t = require_valid(inst).t
    if args.random:
        if args.seed is None:
            raise ValueError("--random requires --seed")
        import numpy as np

        from .randomness import ExactRng

        rng = ExactRng(args.seed)
        perm = rng.permuted(np.arange(inst.facility_count))
        k = [int(i) for i in perm[:t]]
        l = [int(i) for i in perm[t : 2 * t]]
    else:
        if not args.k or not args.l:
            raise ValueError("provide --k and --l, or --random --seed S")
        k = _parse_id_spec(args.k)
        l = _parse_id_spec(args.l)
    vec = make_core_vector(inst, k, l)
    if args.dense:
        vec = vec.to_dense()
    index = CoreIndex.for_instance(inst, k, l)
    payload = {
        **docio.core_file_doc(inst, index, vec),
        "manifest": _manifest(
            "core",
            {"k": sorted(index.k), "l": sorted(index.l), "dense": args.dense},
            args.seed,
            inputs,
        ),
    }
    form = "dense" if vec.is_dense else "classed"
    print(f"core vector: k={sorted(index.k)} l={sorted(index.l)} repr={form}")
    _write(args, payload)
    return EXIT_OK


def cmd_collide(args) -> int:
    _, c1, c2, _ = _load_core_pair(args.first, args.second)
    result = collides(c1, c2)
    print(f"collide: {str(result).lower()}")
    return EXIT_OK if result else EXIT_FALSE


def cmd_lpcheck(args) -> int:
    inst, _, vec, inputs = _load_core(args.vector)
    report = check_natural_lp(inst, vec)
    if report.passed:
        print("natural LP check: pass")
    else:
        print(f"natural LP check: fail ({len(report.violations)} violations)")
        for v in report.violations:
            print(f"  {v}")
    payload = {
        **docio.lp_report_to_doc(report),
        "manifest": _manifest("lpcheck", {"vector": args.vector}, None, inputs),
    }
    _write(args, payload)
    return EXIT_OK if report.passed else EXIT_FALSE


def cmd_verify_midpoint(args) -> int:
    from .rounding import verify_midpoint

    inst, c1, c2, inputs = _load_core_pair(args.first, args.second)
    cert = verify_midpoint(inst, c1, c2)
    print(
        f"midpoint certificate: expectation_matches={cert.expectation_matches} "
        f"all_classes_feasible={cert.all_classes_feasible} classes={cert.class_count} "
        f"probability_sum={docio.frac_to_str(cert.probability_sum)} valid={cert.valid}"
    )
    payload = {
        **docio.midpoint_certificate_to_doc(cert),
        "manifest": _manifest(
            "verify-midpoint",
            {"first": args.first, "second": args.second},
            None,
            inputs,
        ),
    }
    _write(args, payload)
    return EXIT_OK if cert.valid else EXIT_FALSE


def _run_blocks(work: Callable, n: int, seed: int, jobs: int) -> list:
    """``work(block_seed, count, start)`` for each block of draws, in block order.

    Block ``b`` covers draws ``[b * BLOCK_DRAWS, min(n, (b + 1) * BLOCK_DRAWS))``
    on the stream ``derive_block_seed(seed, b)``, so the results depend on
    ``n`` and ``seed`` but not on ``jobs``.
    """
    from .randomness import derive_block_seed

    starts = range(0, n, BLOCK_DRAWS)
    seeds = [derive_block_seed(seed, b) for b in range(len(starts))]
    counts = [min(BLOCK_DRAWS, n - start) for start in starts]
    if jobs <= 1 or len(starts) == 1:
        return list(map(work, seeds, counts, starts))
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(jobs, len(starts))) as pool:
        return list(pool.map(work, seeds, counts, starts))


def _sample_block(
    plan: RoundingPlan,
    solutions_dir: Optional[str],
    seed: int,
    count: int,
    start: int,
) -> tuple[int, Counter, list[str]]:
    from .randomness import ExactRng
    from .rounding import sample_block, tally_draws

    def chunks():
        index = start
        # only solution files read per-client assignments; the tally reads loads
        draws = sample_block(plan, ExactRng(seed), count, shuffle=bool(solutions_dir))
        for chunk in draws:
            if solutions_dir:
                for row in range(len(chunk)):
                    path = os.path.join(solutions_dir, f"sol_{index + row:06d}.json")
                    docio.write_document(
                        path, docio.solution_to_doc(chunk.draw(plan, row).solution, seed=seed)
                    )
            index += len(chunk)
            yield chunk

    feasible, freq, flagged = tally_draws(plan, chunks(), MAX_VIOLATION_EXAMPLES)
    problems = [f"sample {start + pos}: {violations}" for pos, violations in flagged]
    return feasible, freq, problems


def cmd_sample(args) -> int:
    from .rounding import compile_plan, enumerate_outcome_classes

    if args.n < 1:
        raise ValueError(f"--n must be >= 1, got {args.n}")
    if args.jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
    if args.solutions_dir and os.path.isdir(args.solutions_dir):
        stale = sum(
            name.startswith("sol_") and name.endswith(".json")
            for name in os.listdir(args.solutions_dir)
        )
        if stale:
            raise ValueError(
                f"--solutions-dir {args.solutions_dir} already holds {stale} "
                "sol_*.json files; choose an empty directory"
            )
    inst, c1, c2, inputs = _load_core_pair(args.first, args.second)
    plan = compile_plan(inst, c1, c2)
    classes = enumerate_outcome_classes(plan)
    infeasible = next((cl for cl in classes if not cl.feasible), None)
    if infeasible is not None:
        raise ValueError(
            "the rounding distribution has an infeasible outcome class: "
            f"experiment {infeasible.experiment}, "
            f"chosen_l_facility {infeasible.chosen_l_facility}, "
            f"extra_open {infeasible.extra_open}, "
            f"slot_profile {list(infeasible.slot_profile)}: "
            + "; ".join(infeasible.problems)
        )
    if args.solutions_dir:
        os.makedirs(args.solutions_dir, exist_ok=True)
    results = _run_blocks(
        partial(_sample_block, plan, args.solutions_dir), args.n, args.seed, args.jobs
    )
    feasible = sum(r[0] for r in results)
    freq = sum((r[1] for r in results), Counter())
    problems = [p for r in results for p in r[2]][:MAX_VIOLATION_EXAMPLES]

    class_docs = []
    for cl in classes:
        doc = docio.outcome_class_to_doc(cl)
        doc["observed"] = freq.get(cl.key, 0)
        class_docs.append(doc)
    unmatched = args.n - sum(d["observed"] for d in class_docs)

    print(f"samples: {args.n}, feasible: {feasible}, infeasible: {args.n - feasible}")
    payload = {
        "samples": args.n,
        "feasible": feasible,
        "infeasible": args.n - feasible,
        "violation_examples": problems,
        "unmatched_class_draws": unmatched,
        "classes": class_docs,
        "manifest": _manifest(
            "sample",
            {
                "first": args.first,
                "second": args.second,
                "n": args.n,
                "solutions_dir": args.solutions_dir,
            },
            args.seed,
            inputs,
        ),
    }
    _write(args, payload)
    return EXIT_OK if feasible == args.n and not unmatched else EXIT_FALSE


def _mc_block_hits(inst: Instance, seed: int, count: int, start: int) -> int:
    from .certify import noncolliding_prob_mc

    return noncolliding_prob_mc(inst, count, seed).hits


def cmd_census(args) -> int:
    from .certify import BRUTE_CENSUS_LIMIT, McEstimate, build_census_report, core_size

    inst, inputs = _resolve_instance(args)
    if args.exact:
        brute = not args.formula_only
        if brute and core_size(inst) > BRUTE_CENSUS_LIMIT:
            raise ValueError(
                f"core size {core_size(inst)} exceeds the enumeration bound "
                f"{BRUTE_CENSUS_LIMIT}; pass --formula-only"
            )
        report = build_census_report(inst, brute_force=brute)
        mode = {"mode": "exact", "formula_only": args.formula_only}
    else:
        if args.mc is None:
            raise ValueError("choose --exact or --mc N --seed S")
        if args.seed is None:
            raise ValueError("--mc requires --seed")
        if args.mc < 1:
            raise ValueError(f"--mc must be >= 1, got {args.mc}")
        if args.jobs < 1:
            raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
        hits = _run_blocks(partial(_mc_block_hits, inst), args.mc, args.seed, args.jobs)
        mc = McEstimate.from_hits(sum(hits), args.mc, args.seed)
        report = replace(build_census_report(inst), mc_estimate=mc)
        mode = {"mode": "mc", "samples": args.mc}

    print(f"core size:        {report.core_size}")
    print(f"non-colliding:    {report.lambda_}")
    print(f"lambda:           {report.lambda_}")
    print(f"lower bound:      {report.lower_bound}")
    if report.brute_force_count is not None:
        print(f"brute-force:      {report.brute_force_count}")
    if report.mc_estimate:
        mc = report.mc_estimate
        print(
            f"mc estimate:      {mc.estimate:.6g} +/- {mc.half_width:.3g} "
            f"(samples={mc.samples}, hits={mc.hits}, upper95={mc.upper95:.3g})"
        )
    payload = {
        **docio.census_report_to_doc(report),
        "manifest": _manifest("census", mode, args.seed, inputs),
    }
    _write(args, payload)
    return EXIT_OK


def cmd_certify(args) -> int:
    from .certify import certify_gap, reference_index

    if args.core:
        inst, index, inputs = _load_core_index(args.core)
    else:
        inst, inputs = _resolve_instance(args)
        index = reference_index(inst)
    mode = "brute-force" if args.brute_force else "analytic"
    cert = certify_gap(inst, index, mode)
    print(f"frac cost:  {docio.frac_to_str(cert.frac_cost)}")
    print(f"opt value:  {docio.frac_to_str(cert.opt_value)} ({cert.opt_provenance})")
    print(f"ratio:      {docio.frac_to_str(cert.ratio)}")
    print(cert.gap_conclusion)
    payload = {
        **docio.gap_certificate_to_doc(cert, index),
        "manifest": _manifest(
            "certify", {"core": args.core, "mode": mode, "t": args.t}, None, inputs
        ),
    }
    _write(args, payload)
    return EXIT_OK


def cmd_bound(args) -> int:
    from .certify import build_census_report

    inst, inputs = _resolve_instance(args)
    report = build_census_report(inst)
    print(f"core size:   {report.core_size}")
    print(f"lambda:      {report.lambda_}")
    print(f"lower bound: {report.lower_bound}")
    payload = {
        **docio.census_report_to_doc(report),
        "manifest": _manifest("bound", {"t": args.t}, None, inputs),
    }
    _write(args, payload)
    return EXIT_OK


def cmd_oracle_enum(args) -> int:
    from .polytope import enumerate_integer_solutions

    inst, inputs = _load_instance(args.instance)
    solutions = enumerate_integer_solutions(inst)
    print(f"integer solutions: {len(solutions)}")
    payload = {
        "count": len(solutions),
        "solutions": [docio.solution_to_doc(sol) for sol in solutions],
        "manifest": _manifest("oracle enum", {"instance": args.instance}, None, inputs),
    }
    _write(args, payload)
    return EXIT_OK


def cmd_oracle_member(args) -> int:
    from .polytope import enumerate_integer_solutions, membership_lp, verify_membership

    inst, _, vec, inputs = _load_core(args.vector)
    solutions = enumerate_integer_solutions(inst)
    result = membership_lp(vec, solutions)
    verified = verify_membership(vec, solutions, result)
    print(f"member: {str(result.member).lower()} (certificate verified: {verified})")
    payload = {
        **docio.membership_to_doc(result),
        "verified": verified,
        "manifest": _manifest("oracle member", {"vector": args.vector}, None, inputs),
    }
    _write(args, payload)
    return EXIT_OK


def cmd_oracle_opt(args) -> int:
    from .polytope import brute_force_opt

    inst, index, _, inputs = _load_core(args.core)
    cost = build_gap_costs(inst, index)
    value, witness = brute_force_opt(inst, cost)
    print(f"opt value: {docio.frac_to_str(value)}")
    payload = {
        "opt_value": docio.frac_to_str(value),
        "witness": docio.solution_to_doc(witness),
        "manifest": _manifest("oracle opt", {"core": args.core}, None, inputs),
    }
    _write(args, payload)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """The argument parser of every command.

    Each command names its handler, a ``cmd_*`` function of this module,
    which :func:`main` looks up when it runs, so a rebound handler is the
    one called.
    """
    parser = argparse.ArgumentParser(
        prog="cflgap",
        description="Exact verification lab for a capacitated facility "
        "location LP lower-bound construction.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="build an instance file")
    p.add_argument("--family", action="store_true")
    p.add_argument("--general", action="store_true")
    p.add_argument("--t", type=int)
    p.add_argument("--a", type=int, default=2)
    p.add_argument("--nf", type=int)
    p.add_argument("--U", dest="capacity", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--eps", type=str)
    p.add_argument("--xl", type=str)
    p.add_argument("--strict", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(handler="cmd_gen")

    p = sub.add_parser("core", help="build a core vector file")
    p.add_argument("--instance", required=True)
    p.add_argument("--k", type=str)
    p.add_argument("--l", type=str)
    p.add_argument("--random", action="store_true")
    p.add_argument("--seed", type=int)
    p.add_argument("--dense", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(handler="cmd_core")

    p = sub.add_parser("collide", help="exit 0 iff two core vectors collide")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(handler="cmd_collide")

    p = sub.add_parser("lpcheck", help="natural-relaxation feasibility of a vector")
    p.add_argument("vector")
    p.add_argument("-o", "--output")
    p.set_defaults(handler="cmd_lpcheck")

    p = sub.add_parser(
        "verify-midpoint", help="exact midpoint certificate for a colliding pair"
    )
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("-o", "--output")
    p.set_defaults(handler="cmd_verify_midpoint")

    p = sub.add_parser("sample", help="draw integer solutions from the distribution")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--solutions-dir")
    p.add_argument("-o", "--output")
    p.set_defaults(handler="cmd_sample")

    p = sub.add_parser("census", help="collision census (exact or Monte Carlo)")
    p.add_argument("--instance")
    p.add_argument("--t", type=int)
    p.add_argument("--a", type=int, default=2)
    p.add_argument("--exact", action="store_true")
    p.add_argument("--formula-only", action="store_true")
    p.add_argument("--mc", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("-o", "--output")
    p.set_defaults(handler="cmd_census")

    p = sub.add_parser("certify", help="gap certificate for a core vector")
    p.add_argument("--core")
    p.add_argument("--instance")
    p.add_argument("--t", type=int)
    p.add_argument("--a", type=int, default=2)
    p.add_argument("--brute-force", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(handler="cmd_certify")

    p = sub.add_parser("bound", help="exact constraint-count lower bound")
    p.add_argument("--instance")
    p.add_argument("--t", type=int)
    p.add_argument("--a", type=int, default=2)
    p.add_argument("-o", "--output")
    p.set_defaults(handler="cmd_bound")

    p = sub.add_parser("oracle", help="tiny-instance ground-truth oracles")
    osub = p.add_subparsers(dest="oracle_command", required=True)

    q = osub.add_parser("enum", help="enumerate all integer solutions")
    q.add_argument("--instance", required=True)
    q.add_argument("-o", "--output")
    q.set_defaults(handler="cmd_oracle_enum")

    q = osub.add_parser("member", help="exact hull membership of a vector")
    q.add_argument("--vector", required=True)
    q.add_argument("-o", "--output")
    q.set_defaults(handler="cmd_oracle_member")

    q = osub.add_parser("opt", help="brute-force optimum under two-point costs")
    q.add_argument("--core", required=True)
    q.add_argument("-o", "--output")
    q.set_defaults(handler="cmd_oracle_opt")

    return parser


_parser: Optional[argparse.ArgumentParser] = None  # built by the first main call


def main(argv: Optional[list[str]] = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return globals()[args.handler](args)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, AssertionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
