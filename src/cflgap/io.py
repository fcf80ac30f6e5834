"""JSON documents for instances, vectors, solutions, and reports.

Conventions: rationals are strings ``"p/q"`` in lowest terms; census-scale
integers are decimal strings; an id class is the bounds of its sorted runs,
``{"span": [lo_1, hi_1, ..., lo_r, hi_r]}``, and is also read as a list of
its ids.  Documents are written with sorted keys and a trailing newline, so
identical content yields identical bytes.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING, Any, Optional

from .corevec import (DENSE_LIMIT, CoreIndex, FracVector, NaturalLpReport, Runs,
                      _core_vector, _runs)
from .instance import ZERO, FamilyParams, Instance

if TYPE_CHECKING:  # pragma: no cover
    from .certify import CensusReport, GapCertificate, McEstimate
    from .polytope import MembershipResult
    from .rounding import IntSolution, MidpointCertificate, OutcomeClass

__all__ = [
    "frac_to_str",
    "frac_from_str",
    "instance_to_doc",
    "instance_from_doc",
    "core_file_doc",
    "load_core_doc",
    "load_core_vector_doc",
    "solution_to_doc",
    "solution_from_doc",
    "census_report_to_doc",
    "gap_certificate_to_doc",
    "midpoint_certificate_to_doc",
    "outcome_class_to_doc",
    "membership_to_doc",
    "lp_report_to_doc",
    "document_bytes",
    "write_document",
    "read_document",
    "sha256_of",
]


def frac_to_str(f: Fraction) -> str:
    if type(f) is not Fraction:
        f = Fraction(f)
    return f"{f.numerator}/{f.denominator}"


def frac_from_str(s: str) -> Fraction:
    """``"p/q"`` or ``"p"`` as a Fraction; ValueError for anything else."""
    if not isinstance(s, str):
        raise ValueError(f"expected a rational string 'p/q', got {_shown(s)}")
    if "/" in s:
        num, den = s.split("/", 1)
        try:
            return Fraction(int(num), int(den))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {s!r}") from None
    return Fraction(int(s))


def _shown(value: Any) -> str:
    text = json.dumps(value)
    return text if len(text) <= 40 else text[:37] + "..."


def _field(doc: Any, key: str, where: str) -> Any:
    """``doc[key]``, or ValueError naming the missing field."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be a JSON object")
    if key not in doc:
        raise ValueError(f"{where} is missing field '{key}'")
    return doc[key]


def _int(value: Any, where: str) -> int:
    """A JSON integer, or ValueError naming where it was expected."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{where} must be an integer, got {_shown(value)}")
    return value


def _list(value: Any, where: str) -> list:
    """A JSON list, or ValueError naming where it was expected."""
    if not isinstance(value, list):
        raise ValueError(f"{where} must be a list, got {_shown(value)}")
    return value


def _frac(value: Any, where: str) -> Fraction:
    """A rational string, or ValueError naming where it was expected."""
    try:
        return frac_from_str(value)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def _frac_field(doc: Any, key: str, where: str) -> Fraction:
    return _frac(_field(doc, key, where), f"{where} field '{key}'")


def _id_list(value: Any, where: str) -> frozenset[int]:
    return frozenset(_int(i, f"{where} id") for i in _list(value, where))


def _runs_to_doc(runs: Runs) -> dict:
    """An id class as the bounds of its sorted runs, ``{"span": [lo_1, hi_1, ...]}``."""
    return {"span": list(chain.from_iterable(runs))}


def _runs_from_doc(doc: Any, where: str) -> Runs:
    """An id class written by :func:`_runs_to_doc` (each ``lo < hi``), or as its ids."""
    if not isinstance(doc, dict):
        return _runs(_id_list(doc, where))
    span = _list(_field(doc, "span", where), f"{where} span")
    bounds = [_int(b, f"{where} span") for b in span]
    runs = tuple(zip(bounds[::2], bounds[1::2]))
    if not span or len(span) % 2 or any(lo >= hi for lo, hi in runs):
        raise ValueError(f"{where} span must be [lo, hi], got {_shown(span)}")
    return _runs(runs)


# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------


def instance_to_doc(inst: Instance) -> dict:
    doc = {
        "facility_count": inst.facility_count,
        "client_count": inst.client_count,
        "capacity": inst.capacity,
    }
    p = inst.family_params
    if p is not None:
        fp = {
            "t": p.t,
            "eps": frac_to_str(p.eps),
            "x_l": frac_to_str(p.x_l),
            "core_client_count": inst.core_client_count,
        }
        if p.a is not None:
            fp["a"] = p.a
        doc["family_params"] = fp
    return doc


def instance_from_doc(doc: dict) -> Instance:
    where = "instance document"
    counts = {
        key: _int(_field(doc, key, where), f"{where} field '{key}'")
        for key in ("facility_count", "client_count", "capacity")
    }
    fp = doc.get("family_params")
    if fp is None:
        return Instance(**counts)
    where = "instance family_params"
    inst = Instance(**counts, family_params=FamilyParams(
        t=_int(_field(fp, "t", where), f"{where} field 't'"),
        eps=_frac_field(fp, "eps", where),
        x_l=_frac_field(fp, "x_l", where),
        a=_int(fp["a"], f"{where} field 'a'") if fp.get("a") is not None else None,
    ))
    count = _int(_field(fp, "core_client_count", where), f"{where} field 'core_client_count'")
    if count != inst.core_client_count:
        raise ValueError(
            f"family_params core_client_count = {count} must equal "
            f"capacity*t + 1 = {inst.core_client_count}"
        )
    return inst


# ---------------------------------------------------------------------------
# Vectors and core files
# ---------------------------------------------------------------------------


def _vector_to_doc(vec: FracVector) -> dict:
    if not vec.is_dense:
        return {
            "repr": "classed",
            "y": [
                {"facilities": _runs_to_doc(fc), "value": frac_to_str(y)}
                for fc, y in zip(vec.fac_classes, vec.y_values)
            ],
            "x": [
                {
                    "facilities": _runs_to_doc(fc),
                    "clients": _runs_to_doc(runs),
                    "value": frac_to_str(vec.x_values[fi][ci]),
                }
                for fi, fc in enumerate(vec.fac_classes)
                for ci, runs in enumerate(vec.cli_classes)
            ],
        }
    triplets = [
        [i, j, frac_to_str(vec.x_of(i, j))]
        for i in range(vec.facility_count)
        for j in range(vec.client_count)
        if vec.x_of(i, j) != 0
    ]
    return {
        "repr": "dense",
        "y": [frac_to_str(vec.y_of(i)) for i in range(vec.facility_count)],
        "x": triplets,
    }


def _vector_from_doc(
    doc: dict, facility_count: int, client_count: int
) -> FracVector:
    where = "core document"
    classed = _field(doc, "repr", where) == "classed"
    y_doc = _list(_field(doc, "y", where), f"{where} field 'y'")
    x_doc = _list(_field(doc, "x", where), f"{where} field 'x'")
    if classed:
        fac_classes = [
            _runs_from_doc(_field(entry, "facilities", "y entry"), "y entry facilities")
            for entry in y_doc
        ]
        y_values = [_frac_field(entry, "value", "y entry") for entry in y_doc]
        fac_index = {fc: fi for fi, fc in enumerate(fac_classes)}
        cli_index: dict[Runs, int] = {}  # in order of first appearance
        cell: dict[tuple[int, int], Fraction] = {}
        for n, entry in enumerate(x_doc):
            fc = _runs_from_doc(_field(entry, "facilities", "x entry"), "x entry facilities")
            cc = _runs_from_doc(_field(entry, "clients", "x entry"), "x entry clients")
            if fc not in fac_index:
                raise ValueError(
                    f"{where} x entry {n} field 'facilities' is not one of the y classes"
                )
            at = (fac_index[fc], cli_index.setdefault(cc, len(cli_index)))
            if at in cell:
                raise ValueError(
                    f"{where} repeats the x cell for facility class {at[0]} "
                    f"and client class {at[1]}"
                )
            cell[at] = _frac_field(entry, "value", "x entry")
        cli_classes = list(cli_index)
        try:
            x_values = [
                [cell[(fi, ci)] for ci in range(len(cli_classes))]
                for fi in range(len(fac_classes))
            ]
        except KeyError as exc:
            fi, ci = exc.args[0]
            raise ValueError(
                f"{where} is missing the x cell for facility class {fi} "
                f"and client class {ci}"
            ) from None
        return FracVector(
            facility_count, client_count, fac_classes, cli_classes, y_values, x_values
        )
    if len(y_doc) != facility_count:
        raise ValueError(
            f"{where} has {len(y_doc)} y entries for {facility_count} facilities"
        )
    if facility_count * client_count > DENSE_LIMIT:
        raise ValueError(
            f"{where} is dense over {facility_count} facilities x {client_count} "
            f"clients, more than {DENSE_LIMIT} coordinates"
        )
    y = [_frac(s, f"{where} y entry") for s in y_doc]
    x = [[ZERO] * client_count for _ in range(facility_count)]
    seen: set[tuple[int, int]] = set()
    for triplet in x_doc:
        if not isinstance(triplet, list) or len(triplet) != 3:
            raise ValueError(f"{where} x entry must be [i, j, value], got {_shown(triplet)}")
        i, j = (_int(v, f"{where} x entry index") for v in triplet[:2])
        if not (0 <= i < facility_count and 0 <= j < client_count):
            raise ValueError(
                f"{where} x entry {_shown(triplet)} is outside the "
                f"{facility_count} x {client_count} assignment matrix"
            )
        if (i, j) in seen:
            raise ValueError(f"{where} repeats the x cell [{i}, {j}]")
        seen.add((i, j))
        x[i][j] = _frac(triplet[2], f"{where} x entry value")
    return FracVector.from_dense(y, x)


def core_file_doc(inst: Instance, index: CoreIndex, vec: FracVector) -> dict:
    """Self-contained core-vector document: instance, index, and payload."""
    return {
        "instance": instance_to_doc(inst),
        "k": sorted(index.k),
        "l": sorted(index.l),
        "core_clients": _runs_to_doc(_runs(inst.designated_clients)),
        **_vector_to_doc(vec),
    }


def _same_json(a: Any, b: Any) -> bool:
    """Whether two decoded JSON values are equal and of one type throughout:
    ``==`` takes ``true`` and ``1.0`` for ``1``."""
    if type(a) is not type(b):
        return False
    if type(a) is dict:
        return a.keys() == b.keys() and all(_same_json(a[key], b[key]) for key in a)
    if type(a) is list:
        return len(a) == len(b) and all(map(_same_json, a, b))
    return a == b


def _core_header(doc: dict, like: Optional[Instance] = None) -> tuple[Instance, CoreIndex]:
    """Instance and index of a core document, with :func:`load_core_doc`'s checks.

    An ``instance`` field that is the document of ``like`` (as ``core -o``
    writes it) is not parsed: ``like`` itself is returned, so the pair of
    files it was read from checks its parameters once.
    """
    where = "core document"
    given = _field(doc, "instance", where)
    if like is not None and _same_json(given, instance_to_doc(like)):
        inst = like
    else:
        inst = instance_from_doc(given)
    k = _id_list(_field(doc, "k", where), f"{where} field 'k'")
    l = _id_list(_field(doc, "l", where), f"{where} field 'l'")
    given = _field(doc, "core_clients", where)
    runs = _runs_from_doc(given, "core_clients")
    if inst.family_params is None:
        index = CoreIndex(k=k, l=l)
    else:
        designated = inst.designated_clients
        if runs != _runs(designated):
            raise ValueError(
                f"{where} field 'core_clients' is {_shown(given)}, not "
                f"[{designated.start}, {designated.stop}): core clients must be "
                "client ids of the instance's designated group"
            )
        index = CoreIndex.for_instance(inst, k, l)
    return inst, index


def load_core_doc(doc: dict) -> tuple[Instance, CoreIndex, FracVector]:
    """Instance, index and vector of a core document.

    A missing or mistyped field raises ValueError naming it.  On a family
    instance, ``core_clients`` must be its designated clients and ``(k, l)``
    a valid index; the payload is read as written.
    """
    inst, index = _core_header(doc)
    return inst, index, _vector_from_doc(doc, inst.facility_count, inst.client_count)


def load_core_vector_doc(
    doc: dict, like: Optional[Instance] = None
) -> tuple[Instance, CoreIndex, FracVector, Optional[str]]:
    """Instance, index and core vector of a core document, and where its
    payload first differs from that vector (None when it holds it).

    The header is checked as :func:`load_core_doc` checks it; ``like`` is
    as in :func:`_core_header`.  The core vector is built once, from the
    checked index.  A payload in the form ``core -o`` writes, the core
    vector's own document with every span bound a JSON int, is matched as a
    document and not parsed.  Any other payload is read as
    :func:`load_core_doc` reads it and compared as a vector, so it is
    accepted or refused exactly as before.
    """
    inst, index = _core_header(doc, like)
    core = failure = None
    try:
        core = _core_vector(inst, index)
        if _holds_document(doc, _vector_to_doc(core)):
            return inst, index, core, None
    except Exception as exc:  # raised after the full read, which reports first
        failure = exc
    vec = _vector_from_doc(doc, inst.facility_count, inst.client_count)
    if core is None:
        raise failure
    return inst, index, core, vec.first_difference(core)


def _holds_document(doc: dict, payload: dict) -> bool:
    """True iff ``doc``'s payload fields equal the classed ``payload``'s, with
    every span bound of ``doc`` an int: JSON ``==`` takes ``true`` and ``1.0``
    for ``1``, where reading the span refuses them."""
    if payload["repr"] != "classed" or any(doc.get(key) != payload[key] for key in payload):
        return False
    spans = [entry[key]["span"] for entry in chain(doc["y"], doc["x"])
             for key in ("facilities", "clients") if key in entry]
    return set(map(type, chain.from_iterable(spans))) == {int}


# ---------------------------------------------------------------------------
# Solutions and reports
# ---------------------------------------------------------------------------


def solution_to_doc(sol: IntSolution, *, seed: Optional[int] = None) -> dict:
    doc = {"open": sorted(sol.open), "assign": sol.assign.tolist()}
    if seed is not None:
        doc["seed"] = seed
    return doc


def solution_from_doc(doc: dict) -> IntSolution:
    """The solution of a document; a missing or mistyped field, or an
    ``assign`` entry beyond 64 bits, raises ValueError naming it."""
    from .rounding import IntSolution

    where = "solution document"
    entry = f"{where} field 'assign' entry"
    assign = _list(_field(doc, "assign", where), f"{where} field 'assign'")
    assign = [_int(i, entry) for i in assign]
    wide = next((i for i in assign if not -2**63 <= i < 2**63), None)
    if wide is not None:
        raise ValueError(f"{entry} must fit in 64 bits, got {_shown(wide)}")
    return IntSolution(open=_id_list(_field(doc, "open", where), f"{where} field 'open'"),
                       assign=assign)


def _mc_to_doc(mc: McEstimate) -> dict:
    return {
        "estimate": mc.estimate,
        "half_width": mc.half_width,
        "upper95": mc.upper95,
        "samples": mc.samples,
        "seed": mc.seed,
        "hits": mc.hits,
    }


def census_report_to_doc(report: CensusReport) -> dict:
    return {
        "core_size": str(report.core_size),
        "noncolliding_per_member": str(report.lambda_),
        "lambda": str(report.lambda_),
        "noncolliding_upper_bound": frac_to_str(report.noncolliding_upper_bound),
        "lower_bound": str(report.lower_bound),
        "brute_force_count": (
            str(report.brute_force_count)
            if report.brute_force_count is not None
            else None
        ),
        "mc_estimate": _mc_to_doc(report.mc_estimate) if report.mc_estimate else None,
    }


def gap_certificate_to_doc(cert: GapCertificate, index: CoreIndex) -> dict:
    return {
        "k": sorted(index.k),
        "l": sorted(index.l),
        "frac_cost": frac_to_str(cert.frac_cost),
        "opt_value": frac_to_str(cert.opt_value),
        "opt_provenance": cert.opt_provenance,
        "ratio": frac_to_str(cert.ratio),
        "gap_conclusion": cert.gap_conclusion,
    }


def outcome_class_to_doc(cl: OutcomeClass) -> dict:
    return {
        "experiment": cl.experiment,
        "chosen_l_facility": cl.chosen_l_facility,
        "extra_open": cl.extra_open,
        "slot_profile": cl.slot_profile,
        "probability": frac_to_str(cl.probability),
        "feasible": cl.feasible,
    }


def midpoint_certificate_to_doc(cert: MidpointCertificate) -> dict:
    c1, c2 = cert.pair
    return {
        "pair": [
            {"k": sorted(c1.k), "l": sorted(c1.l)},
            {"k": sorted(c2.k), "l": sorted(c2.l)},
        ],
        "expectation_matches": cert.expectation_matches,
        "all_classes_feasible": cert.all_classes_feasible,
        "class_count": cert.class_count,
        "probability_sum": frac_to_str(cert.probability_sum),
        "valid": cert.valid,
    }


def membership_to_doc(result: MembershipResult) -> dict:
    doc: dict[str, Any] = {"member": result.member}
    if result.convex_weights is not None:
        doc["convex_weights"] = {
            str(idx): frac_to_str(w) for idx, w in sorted(result.convex_weights.items())
        }
    if result.separating_inequality is not None:
        coeffs, offset = result.separating_inequality
        doc["separating_inequality"] = {
            "coefficients": [frac_to_str(c) for c in coeffs],
            "offset": frac_to_str(offset),
        }
    return doc


def lp_report_to_doc(report: NaturalLpReport) -> dict:
    return {
        "passed": report.passed,
        "violations": [
            {
                "constraint": v.constraint,
                "where": v.where,
                "slack": frac_to_str(v.slack),
            }
            for v in report.violations
        ],
    }


# ---------------------------------------------------------------------------
# Canonical bytes and digests
# ---------------------------------------------------------------------------


def _float_text(value: float) -> str:
    if value != value:
        return "NaN"
    if value == math.inf:
        return "Infinity"
    if value == -math.inf:
        return "-Infinity"
    return float.__repr__(value)


def _json_text(value: Any, indent: str) -> str:
    """``value`` as JSON text, nested at ``indent`` (two spaces per level)."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float_text(value)
    inner = indent + "  "
    sep = ",\n" + inner
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if set(map(type, value)) == {int}:
            body = sep.join(map(int.__repr__, value))
        else:
            body = sep.join([_json_text(item, inner) for item in value])
        return f"[\n{inner}{body}\n{indent}]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        for key in value:
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
        body = sep.join([
            f"{encode_basestring_ascii(key)}: {_json_text(value[key], inner)}"
            for key in sorted(value)
        ])
        return f"{{\n{inner}{body}\n{indent}}}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def document_bytes(payload: dict) -> bytes:
    """Canonical bytes of a document.

    The bytes are exactly those of ``json.dumps(payload, sort_keys=True,
    indent=2) + "\\n"`` encoded as UTF-8 (ASCII, since strings are escaped),
    for payloads whose dict keys are all ``str``.  Any other key, and any
    value of a type ``json`` cannot encode, raises TypeError.

    ``json.dumps`` is not called because before Python 3.14 an indented dump
    always runs the pure-Python encoder.  This writer joins lists of plain
    ints with ``str.join`` and escapes strings with json's C helper instead,
    so an outcome class's slot profile, a list of ``[lo, hi, count]`` run
    entries, is one such join per entry.
    """
    return (_json_text(payload, "") + "\n").encode("utf-8")


def write_document(path: str, payload: dict) -> str:
    """Write canonical JSON; returns the sha256 hex digest of the bytes."""
    data = document_bytes(payload)
    with open(path, "wb") as handle:
        handle.write(data)
    return hashlib.sha256(data).hexdigest()


def read_document(path: str) -> tuple[dict, str]:
    """The JSON document in ``path`` and the sha256 hex digest of the bytes read;
    JSONDecodeError for one nested too deeply to decode."""
    with open(path, "rb") as handle:
        data = handle.read()
    text = data.decode("utf-8")
    try:
        return json.loads(text), hashlib.sha256(data).hexdigest()
    except RecursionError:
        raise json.JSONDecodeError("document nests too deeply", text, 0) from None


def sha256_of(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()
