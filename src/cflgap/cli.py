"""Command-line front end: reproducible experiments with embedded manifests.

Every randomized command takes an explicit ``--seed``; reports are printed
as plain tables and optionally written as canonical JSON via ``-o``.  Every
command with ``-o`` ends with one :func:`_report` call, which builds its
document only when ``-o`` is given, stamps it with a manifest (the command
as parsed, parameters, seed, tool version, input digests) and writes it;
identical manifests reproduce byte-identical files.  Each input file is read
once, and its digest is taken from the bytes read.  :func:`main` runs the
handler ``cmd_<command>`` of the parsed command, found by name when it runs.

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


def _command(args) -> str:
    """The command as typed: ``oracle`` joined with its subcommand, e.g. ``oracle opt``."""
    return " ".join(filter(None, (args.command, getattr(args, "oracle_command", None))))


def _report(args, body: Callable[[], dict], params: dict, inputs: dict) -> None:
    """Write ``body()`` with its manifest to ``-o``, when given, and print its digest.

    The body is built only when it is written.  The manifest's command and
    seed are read from the parsed arguments, so no handler names itself twice.
    """
    if not getattr(args, "output", None):
        return
    manifest = {
        "command": _command(args),
        "parameters": params,
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "inputs": inputs,
    }
    digest = docio.write_document(args.output, {**body(), "manifest": manifest})
    print(f"wrote {args.output} sha256={digest}")


def _load_instance(path: str) -> tuple[Instance, dict]:
    doc, digest = docio.read_document(path)
    return docio.instance_from_doc(doc), {path: digest}


def _load_core(path: str):
    doc, digest = docio.read_document(path)
    return (*docio.load_core_doc(doc), {path: digest})


def _load_core_index(path: str, like: Optional[Instance] = None):
    """Instance, index, core vector and input digest of a core file whose
    vector is the core vector of its ``(k, l)``; for any other payload,
    ValueError naming the first facility class or cell that differs.
    ``like`` is as in :func:`io.load_core_vector_doc`."""
    doc, digest = docio.read_document(path)
    inst, index, core, difference = docio.load_core_vector_doc(doc, like)
    if difference is not None:
        raise ValueError(
            f"core file {path} holds a vector other than the core vector of "
            f"k={sorted(index.k)} l={sorted(index.l)}: {difference}"
        )
    return inst, index, core, {path: digest}


def _load_core_pair(first: str, second: str):
    """Instance, both indices, both core vectors and the input digests of two
    core files of one instance.  A second file whose instance is written as
    ``core -o`` writes the first's shares its Instance, so the parameters
    are checked once."""
    inst, c1, v1, in1 = _load_core_index(first)
    inst2, c2, v2, in2 = _load_core_index(second, inst)
    if inst != inst2:
        raise ValueError("core files describe different instances")
    return inst, (c1, c2), (v1, v2), {**in1, **in2}


def _parse_id_spec(spec: str, t: int, facility_count: int) -> list[int]:
    """Facility id spec: comma-separated ids and lo..hi ranges, e.g. 0..4,7.

    A range is checked against ``range(facility_count)`` and against ``t``
    before it is expanded, so a huge one is refused without being built.
    """
    out: list[int] = []
    for part in spec.split(","):
        part = part.strip()
        if ".." in part:
            lo, hi = (int(end) for end in part.split("..", 1))
            if not 0 <= lo <= hi < min(lo + t, facility_count):
                raise ValueError(f"range {part} is not a run of at most t = {t} of "
                                 f"the {facility_count} facility ids")
            out.extend(range(lo, hi + 1))
        elif part:
            out.append(int(part))
    return out


def _seed(text: str) -> int:
    """A ``--seed`` value: a non-negative integer, the seed of one PCG64 stream."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def _resolve_instance(args) -> tuple[Instance, dict]:
    """Instance from --instance FILE, or built inline from --t/--a."""
    if args.instance:
        return _load_instance(args.instance)
    if args.t is None:
        raise ValueError("provide --instance FILE or --t T")
    return build_family_instance(args.t, args.a), {}


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_gen(args) -> int:
    if args.family == args.general:
        raise ValueError("choose exactly one of --family / --general")
    params = {"mode": "family", "t": args.t, "a": args.a} if args.family else {
        "mode": "general", "nf": args.nf, "t": args.t,
        "capacity": args.capacity, "m": args.m, "eps": args.eps, "xl": args.xl,
    }
    missing = [key for key, value in params.items() if value is None]
    if missing:
        flags = ", ".join("--U" if key == "capacity" else f"--{key}" for key in missing)
        raise ValueError(f"gen --{params['mode']} requires {flags}")
    if args.family:
        inst = build_family_instance(args.t, args.a)
    else:
        inst = build_general_instance(
            args.nf, args.t, args.capacity, args.m,
            docio.frac_from_str(args.eps), docio.frac_from_str(args.xl),
        )
    for v in inst.violations:
        print(f"invalid: {v}", file=sys.stderr)
    if inst.violations and args.strict:
        return EXIT_INVALID
    print(
        f"instance: {inst.facility_count} facilities, {inst.client_count} clients, "
        f"capacity {inst.capacity}, valid={not inst.violations}"
    )
    _report(args, partial(docio.instance_to_doc, inst), params, {})
    return EXIT_OK


def cmd_core(args) -> int:
    inst, inputs = _load_instance(args.instance)
    t = require_valid(inst).t
    if args.random:
        if args.seed is None:
            raise ValueError("--random requires --seed")
        from .randomness import ExactRng

        ids = ExactRng(args.seed).chosen_positions(inst.facility_count, 2 * t)
        k, l = ids[:t], ids[t:]
    else:
        if not args.k or not args.l:
            raise ValueError("provide --k and --l, or --random --seed S")
        k = _parse_id_spec(args.k, t, inst.facility_count)
        l = _parse_id_spec(args.l, t, inst.facility_count)
    vec = make_core_vector(inst, k, l)
    if args.dense:
        vec = vec.to_dense()
    index = CoreIndex.for_instance(inst, k, l)
    form = "dense" if vec.is_dense else "classed"
    print(f"core vector: k={sorted(index.k)} l={sorted(index.l)} repr={form}")
    params = {"k": sorted(index.k), "l": sorted(index.l), "dense": args.dense}
    _report(args, partial(docio.core_file_doc, inst, index, vec), params, inputs)
    return EXIT_OK


def cmd_collide(args) -> int:
    _, pair, _, _ = _load_core_pair(args.first, args.second)
    result = collides(*pair)
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
    _report(args, partial(docio.lp_report_to_doc, report), {"vector": args.vector}, inputs)
    return EXIT_OK if report.passed else EXIT_FALSE


def cmd_verify_midpoint(args) -> int:
    from .rounding import verify_midpoint

    inst, pair, cores, inputs = _load_core_pair(args.first, args.second)
    cert = verify_midpoint(inst, *pair, cores=cores)
    print(
        f"midpoint certificate: expectation_matches={cert.expectation_matches} "
        f"all_classes_feasible={cert.all_classes_feasible} classes={cert.class_count} "
        f"probability_sum={docio.frac_to_str(cert.probability_sum)} valid={cert.valid}"
    )
    params = {"first": args.first, "second": args.second}
    _report(args, partial(docio.midpoint_certificate_to_doc, cert), params, inputs)
    return EXIT_OK if cert.valid else EXIT_FALSE


def _run_blocks(work: Callable, n: int, seed: int, jobs: int) -> list:
    """``work(block_seed, count, start)`` for each block of draws, in block order.

    Block ``b`` covers draws ``[b * BLOCK_DRAWS, min(n, (b + 1) * BLOCK_DRAWS))``
    on the stream ``derive_block_seed(seed, b)``, so the results depend on
    ``n`` and ``seed`` but not on ``jobs`` (at least 1, checked by
    :func:`main`).  The pool starts all its workers at once, so it has at
    most one per CPU.
    """
    from .randomness import derive_block_seed

    starts = range(0, n, BLOCK_DRAWS)
    seeds = [derive_block_seed(seed, b) for b in range(len(starts))]
    counts = [min(BLOCK_DRAWS, n - start) for start in starts]
    if jobs == 1 or len(starts) == 1:
        return list(map(work, seeds, counts, starts))
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(jobs, len(starts), os.cpu_count() or 1)) as pool:
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

    rng = ExactRng(seed)

    def chunks():
        index = start
        for chunk in sample_block(plan, rng, count):
            # only solution files read per-client rows; the tally reads run forms
            for draw in chunk.draws(plan, rng) if solutions_dir else ():
                path = os.path.join(solutions_dir, f"sol_{index:06d}.json")
                docio.write_document(path, docio.solution_to_doc(draw.solution, seed=seed))
                index += 1
            yield chunk

    feasible, freq, flagged = tally_draws(plan, chunks(), MAX_VIOLATION_EXAMPLES)
    problems = [f"sample {start + pos}: {violations}" for pos, violations in flagged]
    return feasible, freq, problems


def cmd_sample(args) -> int:
    from .rounding import compile_plan, enumerate_outcome_classes

    if args.n < 1:
        raise ValueError(f"--n must be >= 1, got {args.n}")
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
    inst, pair, _, inputs = _load_core_pair(args.first, args.second)
    plan = compile_plan(inst, *pair)
    classes = enumerate_outcome_classes(plan)
    infeasible = next((cl for cl in classes if not cl.feasible), None)
    if infeasible is not None:
        rows = [(i, n) for lo, hi, n in infeasible.slot_profile for i in range(lo, hi)]
        raise ValueError(
            "the rounding distribution has an infeasible outcome class: "
            f"experiment {infeasible.experiment}, "
            f"chosen_l_facility {infeasible.chosen_l_facility}, "
            f"extra_open {infeasible.extra_open}, "
            f"slot_profile {rows}: "
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

    observed = [freq.get(cl.key, 0) for cl in classes]
    unmatched = args.n - sum(observed)

    print(f"samples: {args.n}, feasible: {feasible}, infeasible: {args.n - feasible}")
    params = {
        "first": args.first,
        "second": args.second,
        "n": args.n,
        "solutions_dir": args.solutions_dir,
    }
    _report(args, lambda: {
        "samples": args.n,
        "feasible": feasible,
        "infeasible": args.n - feasible,
        "violation_examples": problems,
        "unmatched_class_draws": unmatched,
        "classes": [
            {**docio.outcome_class_to_doc(cl), "observed": n}
            for cl, n in zip(classes, observed)
        ],
    }, params, inputs)
    return EXIT_OK if feasible == args.n and not unmatched else EXIT_FALSE


def _mc_block_hits(inst: Instance, seed: int, count: int, start: int) -> int:
    from .certify import noncolliding_prob_mc

    return noncolliding_prob_mc(inst, count, seed).hits


def cmd_census(args) -> int:
    from .certify import McEstimate, build_census_report

    inst, inputs = _resolve_instance(args)
    if args.exact:
        given = [flag for flag, value in (("--mc", args.mc), ("--seed", args.seed))
                 if value is not None]
        if given:
            raise ValueError(f"--exact conflicts with {' and '.join(given)}")
        report = build_census_report(inst, brute_force=not args.formula_only)
        mode = {"mode": "exact", "formula_only": args.formula_only}
    else:
        if args.mc is None:
            raise ValueError("choose --exact or --mc N --seed S")
        if args.formula_only:
            raise ValueError("--formula-only takes --exact and conflicts with --mc")
        if args.seed is None:
            raise ValueError("--mc requires --seed")
        if args.mc < 1:
            raise ValueError(f"--mc must be >= 1, got {args.mc}")
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
    _report(args, partial(docio.census_report_to_doc, report), mode, inputs)
    return EXIT_OK


def cmd_certify(args) -> int:
    from .certify import certify_gap, reference_index

    if args.core:
        given = [flag for flag, value in (("--instance", args.instance), ("--t", args.t))
                 if value is not None]
        if given:
            raise ValueError(f"--core takes the instance from the core file and "
                             f"conflicts with {' and '.join(given)}")
        inst, index, core, inputs = _load_core_index(args.core)
    else:
        inst, inputs = _resolve_instance(args)
        index, core = reference_index(inst), None
    mode = "brute-force" if args.brute_force else "analytic"
    cert = certify_gap(inst, index, mode, core=core)
    print(f"frac cost:  {docio.frac_to_str(cert.frac_cost)}")
    print(f"opt value:  {docio.frac_to_str(cert.opt_value)} ({cert.opt_provenance})")
    print(f"ratio:      {docio.frac_to_str(cert.ratio)}")
    print(cert.gap_conclusion)
    params = {"core": args.core, "mode": mode, "t": args.t}
    _report(args, partial(docio.gap_certificate_to_doc, cert, index), params, inputs)
    return EXIT_OK


def cmd_bound(args) -> int:
    from .certify import build_census_report

    inst, inputs = _resolve_instance(args)
    report = build_census_report(inst)
    print(f"core size:   {report.core_size}")
    print(f"lambda:      {report.lambda_}")
    print(f"lower bound: {report.lower_bound}")
    _report(args, partial(docio.census_report_to_doc, report), {"t": args.t}, inputs)
    return EXIT_OK


def cmd_oracle_enum(args) -> int:
    from .polytope import enumerate_integer_solutions

    inst, inputs = _load_instance(args.instance)
    solutions = enumerate_integer_solutions(inst)
    print(f"integer solutions: {len(solutions)}")
    _report(args, lambda: {
        "count": len(solutions),
        "solutions": [docio.solution_to_doc(sol) for sol in solutions],
    }, {"instance": args.instance}, inputs)
    return EXIT_OK


def cmd_oracle_member(args) -> int:
    from .polytope import enumerate_integer_solutions, membership_lp, verify_membership

    inst, _, vec, inputs = _load_core(args.vector)
    solutions = enumerate_integer_solutions(inst)
    result = membership_lp(vec, solutions)
    verified = verify_membership(vec, solutions, result)
    print(f"member: {str(result.member).lower()} (certificate verified: {verified})")
    _report(args, lambda: {**docio.membership_to_doc(result), "verified": verified},
            {"vector": args.vector}, inputs)
    return EXIT_OK


def cmd_oracle_opt(args) -> int:
    from .polytope import brute_force_opt

    inst, index, _, inputs = _load_core_index(args.core)
    cost = build_gap_costs(inst, index)
    value, witness = brute_force_opt(inst, cost)
    print(f"opt value: {docio.frac_to_str(value)}")
    _report(args, lambda: {
        "opt_value": docio.frac_to_str(value), "witness": docio.solution_to_doc(witness),
    }, {"core": args.core}, inputs)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """The argument parser of every command.

    Options that several commands take (``-o``, the core pair, the instance
    source, ``--jobs``) are declared once, on parent parsers, and listed
    first in each command's ``--help``.  No command names its handler:
    :func:`main` derives it from the command's name.
    """
    parser = argparse.ArgumentParser(
        prog="cflgap",
        description="Exact verification lab for a capacitated facility "
        "location LP lower-bound construction.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("-o", "--output")
    pair = argparse.ArgumentParser(add_help=False)
    pair.add_argument("first")
    pair.add_argument("second")
    family = argparse.ArgumentParser(add_help=False)
    family.add_argument("--t", type=int)
    family.add_argument("--a", type=int, default=2)
    source = argparse.ArgumentParser(add_help=False, parents=[family])
    source.add_argument("--instance")
    jobs = argparse.ArgumentParser(add_help=False)
    jobs.add_argument("--jobs", type=int, default=1)

    p = sub.add_parser("gen", parents=[family, output], help="build an instance file")
    p.add_argument("--family", action="store_true")
    p.add_argument("--general", action="store_true")
    p.add_argument("--nf", type=int)
    p.add_argument("--U", dest="capacity", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--eps", type=str)
    p.add_argument("--xl", type=str)
    p.add_argument("--strict", action="store_true")

    p = sub.add_parser("core", parents=[output], help="build a core vector file")
    p.add_argument("--instance", required=True)
    p.add_argument("--k", type=str)
    p.add_argument("--l", type=str)
    p.add_argument("--random", action="store_true")
    p.add_argument("--seed", type=_seed)
    p.add_argument("--dense", action="store_true")

    sub.add_parser("collide", parents=[pair], help="exit 0 iff two core vectors collide")

    p = sub.add_parser(
        "lpcheck", parents=[output], help="natural-relaxation feasibility of a vector"
    )
    p.add_argument("vector")

    sub.add_parser(
        "verify-midpoint", parents=[pair, output],
        help="exact midpoint certificate for a colliding pair",
    )

    p = sub.add_parser(
        "sample", parents=[pair, jobs, output],
        help="draw integer solutions from the distribution",
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--solutions-dir")

    p = sub.add_parser(
        "census", parents=[source, jobs, output],
        help="collision census (exact or Monte Carlo)",
    )
    p.add_argument("--exact", action="store_true")
    p.add_argument("--formula-only", action="store_true")
    p.add_argument("--mc", type=int)
    p.add_argument("--seed", type=_seed)

    p = sub.add_parser(
        "certify", parents=[source, output], help="gap certificate for a core vector"
    )
    p.add_argument("--core")
    p.add_argument("--brute-force", action="store_true")

    sub.add_parser("bound", parents=[source, output], help="exact constraint-count lower bound")

    p = sub.add_parser("oracle", help="tiny-instance ground-truth oracles")
    osub = p.add_subparsers(dest="oracle_command", required=True)
    for name, flag, text in (
        ("enum", "--instance", "enumerate all integer solutions"),
        ("member", "--vector", "exact hull membership of a vector"),
        ("opt", "--core", "brute-force optimum under two-point costs"),
    ):
        osub.add_parser(name, parents=[output], help=text).add_argument(flag, required=True)

    return parser


_parser: Optional[argparse.ArgumentParser] = None  # built by the first main call


def main(argv: Optional[list[str]] = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        # every command that takes the shared --jobs option, before any work
        if getattr(args, "jobs", 1) < 1:
            raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
        return globals()["cmd_" + _command(args).replace(" ", "_").replace("-", "_")](args)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, AssertionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
