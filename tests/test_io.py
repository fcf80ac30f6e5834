import json
import math
from contextlib import redirect_stdout
from fractions import Fraction
from io import StringIO

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cflgap import cli
from cflgap import io as docio
from cflgap.corevec import CoreIndex, make_core_vector
from cflgap.certify import build_census_report, certify_gap
from cflgap.polytope import enumerate_integer_solutions, membership_lp
from cflgap.rounding import IntSolution, verify_midpoint


class TestFractions:
    @pytest.mark.parametrize(
        "f,s",
        [
            (Fraction(2, 5), "2/5"),
            (Fraction(4, 8), "1/2"),
            (Fraction(3), "3/1"),
            (Fraction(0), "0/1"),
            (Fraction(-7, 3), "-7/3"),
        ],
    )
    def test_roundtrip_lowest_terms(self, f, s):
        assert docio.frac_to_str(f) == s
        assert docio.frac_from_str(s) == f

    def test_parse_bare_integer(self):
        assert docio.frac_from_str("5") == Fraction(5)


class TestInstanceDoc:
    def test_roundtrip_family(self, family10):
        doc = docio.instance_to_doc(family10)
        assert doc["facility_count"] == 100
        assert doc["family_params"]["eps"] == "1/10"
        back = docio.instance_from_doc(doc)
        assert back == family10

    def test_roundtrip_general_without_a(self, mini):
        doc = docio.instance_to_doc(mini)
        assert "a" not in doc["family_params"]
        assert docio.instance_from_doc(doc) == mini

    def test_plain_instance_without_params(self):
        from cflgap.instance import Instance

        inst = Instance(facility_count=2, client_count=3, capacity=2)
        doc = docio.instance_to_doc(inst)
        assert "family_params" not in doc
        assert docio.instance_from_doc(doc) == inst


class TestCoreDoc:
    def test_classed_roundtrip(self, mini):
        idx = CoreIndex.for_instance(mini, {0, 1}, {2, 3})
        vec = make_core_vector(mini, idx.k, idx.l)
        doc = docio.core_file_doc(mini, idx, vec)
        assert doc["repr"] == "classed"
        inst2, idx2, vec2 = docio.load_core_doc(doc)
        assert inst2 == mini and idx2 == idx
        assert vec2.equals(vec)

    def test_dense_roundtrip(self, mini):
        idx = CoreIndex.for_instance(mini, {0, 1}, {2, 3})
        vec = make_core_vector(mini, idx.k, idx.l).to_dense()
        doc = docio.core_file_doc(mini, idx, vec)
        assert doc["repr"] == "dense"
        _, _, vec2 = docio.load_core_doc(doc)
        assert vec2.is_dense
        assert vec2.equals(vec)

    def test_span_encoding_for_contiguous_sets(self, family10):
        idx = CoreIndex.for_instance(family10, range(10), range(10, 20))
        vec = make_core_vector(family10, idx.k, idx.l)
        doc = docio.core_file_doc(family10, idx, vec)
        assert doc["core_clients"] == {"span": [0, 10001]}


class TestSolutionDoc:
    def test_roundtrip_with_seed(self):
        sol = IntSolution(open=frozenset({0, 2}), assign=(0, 2, 2))
        doc = docio.solution_to_doc(sol, seed=99)
        assert doc["seed"] == 99
        assert docio.solution_from_doc(doc) == sol

    @pytest.mark.parametrize(
        "doc,field",
        [
            ({"open": [0], "assign": [0, None]}, "'assign' entry"),
            ({"open": [0], "assign": [0, "1"]}, "'assign' entry"),
            ({"open": [0], "assign": 0}, "'assign'"),
            ({"open": [None], "assign": [0]}, "'open' id"),
            ({"open": 0, "assign": [0]}, "'open'"),
            ({"assign": [0]}, "'open'"),
            ({"open": [0]}, "'assign'"),
            ([0], "JSON object"),
        ],
        ids=["null-assign", "string-assign", "non-list-assign", "null-open",
             "non-list-open", "missing-open", "missing-assign", "not-an-object"],
    )
    def test_malformed_raises_value_error_naming_field(self, doc, field):
        with pytest.raises(ValueError, match=field):
            docio.solution_from_doc(doc)


class TestReportDocs:
    def test_census_integers_are_decimal_strings(self, family10):
        report = build_census_report(family10)
        doc = docio.census_report_to_doc(report)
        assert doc["core_size"] == "99026143582326261786805320"
        assert doc["lambda"] == "2113540661568914864"
        assert doc["lower_bound"] == "46853201"
        assert "/" in doc["noncolliding_upper_bound"]

    def test_gap_certificate_doc(self, family10):
        idx = CoreIndex.for_instance(family10, range(10), range(10, 20))
        cert = certify_gap(family10, idx)
        doc = docio.gap_certificate_to_doc(cert, idx)
        assert doc["frac_cost"] == "1/1"
        assert doc["ratio"] == "1/1"

    def test_midpoint_certificate_doc(self, mini):
        c1 = CoreIndex.for_instance(mini, {0, 1}, {2, 3})
        c2 = CoreIndex.for_instance(mini, {0, 1}, {4, 5})
        cert = verify_midpoint(mini, c1, c2)
        doc = docio.midpoint_certificate_to_doc(cert)
        assert doc["valid"] is True
        assert doc["probability_sum"] == "1/1"

    def test_membership_docs(self, tiny):
        sols = enumerate_integer_solutions(tiny)
        vec = make_core_vector(tiny, {0}, {1})
        res = membership_lp(vec, sols)
        doc = docio.membership_to_doc(res)
        assert doc["member"] is False
        assert "separating_inequality" in doc


class TestCanonicalBytes:
    def test_identical_payload_identical_bytes(self, mini):
        doc = docio.instance_to_doc(mini)
        rebuilt = docio.instance_to_doc(docio.instance_from_doc(doc))
        assert docio.document_bytes(doc) == docio.document_bytes(rebuilt)

    def test_write_returns_content_digest(self, tmp_path, mini):
        path = tmp_path / "inst.json"
        digest = docio.write_document(str(path), docio.instance_to_doc(mini))
        assert digest == docio.sha256_of(str(path))


def reference_bytes(value):
    """The bytes ``document_bytes`` must reproduce."""
    return (json.dumps(value, sort_keys=True, indent=2) + "\n").encode("utf-8")


_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(2**80), max_value=2**80)
    | st.floats()
    | st.text()
)
_row_ints = st.integers() | st.integers(min_value=-(2**80), max_value=2**80)
# rows of one width, as lists and tuples, the shape of a class's slot profile
_int_rows = st.integers(1, 3).flatmap(
    lambda width: st.lists(
        st.lists(_row_ints, min_size=width, max_size=width)
        | st.tuples(*[_row_ints] * width),
        max_size=20,
    )
)
_values = st.recursive(
    _scalars,
    lambda inner: (
        st.lists(inner, max_size=5)
        | st.lists(inner, max_size=5).map(tuple)
        | st.lists(st.lists(st.integers(), max_size=4), max_size=4)
        | _int_rows
        | _int_rows.map(tuple)
        | st.dictionaries(st.text(), inner, max_size=5)
    ),
    max_leaves=20,
)


class _Int(int):
    pass


class TestDocumentWriter:
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(st.dictionaries(st.text(), _values, max_size=6))
    @example({
        "floats": [math.nan, math.inf, -math.inf, -0.0, 1e-300, 0.1],
        "ints": [-3, 0, 2**64 + 1, -(2**70)],
        "int rows": [[0, 3], (1, 2), []],
        "big int rows": [[2**64 + 1, -(2**70)], (0, 2**64)],
        "mixed": [1, True, None, "x", 2.5],
        "empty": [{}, [], (), ""],
        "caf\u00e9 \"quoted\"\t\u0001\n": {"\u2603": "\ud83d\ude00 \\"},
    })
    def test_matches_json_dumps(self, payload):
        assert docio.document_bytes(payload) == reference_bytes(payload)

    @pytest.mark.parametrize("rows", [
        [[True, 1]],
        [[], []],
        [[1, 2], [3]],
        [(1, _Int(2))],
        [[1, 2], [3, 4.0]],
        [[1], "2"],
    ], ids=["bool", "empty-rows", "ragged", "int-subclass", "float", "str"])
    def test_rows_outside_the_int_row_template(self, rows):
        for payload in ({"rows": rows}, {"rows": tuple(rows)}):
            assert docio.document_bytes(payload) == reference_bytes(payload)

    @pytest.mark.parametrize("payload", [
        {"value": Fraction(1, 2)},
        {"value": [np.int64(3)]},
        {"value": {"nested": {1, 2}}},
        {"value": {1: "non-str key"}},
    ], ids=["fraction", "np-int64", "set", "int-key"])
    def test_rejects_what_json_rejects_and_non_str_keys(self, payload):
        with pytest.raises(TypeError):
            docio.document_bytes(payload)

    def test_command_payloads_match_json_dumps(self, tmp_path, monkeypatch):
        """The t=10 sample report, solution files and a census --mc document."""
        written = []
        write = docio.write_document

        def recording_write(path, payload):
            written.append((path, payload))
            return write(path, payload)

        monkeypatch.setattr(docio, "write_document", recording_write)
        monkeypatch.chdir(tmp_path)
        commands = [
            ["gen", "--family", "--t", "10", "--a", "2", "-o", "t10.json"],
            ["core", "--instance", "t10.json", "--k", "0..9", "--l", "10..19",
             "-o", "a.core"],
            ["core", "--instance", "t10.json", "--k", "20..29", "--l", "30..39",
             "-o", "b.core"],
            ["sample", "a.core", "b.core", "--n", "40", "--seed", "424242",
             "-o", "sample.json"],
            ["gen", "--general", "--nf", "6", "--t", "2", "--U", "4", "--m", "13",
             "--eps", "2/5", "--xl", "1/8", "-o", "mini.json"],
            ["core", "--instance", "mini.json", "--k", "0,1", "--l", "2,3", "-o", "m.core"],
            ["core", "--instance", "mini.json", "--k", "0,1", "--l", "4,5", "-o", "n.core"],
            ["sample", "m.core", "n.core", "--n", "3", "--seed", "5",
             "--solutions-dir", "sols"],
            ["census", "--instance", "mini.json", "--mc", "2000", "--seed", "7",
             "-o", "census.json"],
        ]
        with redirect_stdout(StringIO()):
            for argv in commands:
                assert cli.main(argv) == 0, argv
        names = {str(path).rsplit("/", 1)[-1] for path, _ in written}
        assert {"sample.json", "sol_000000.json", "census.json"} <= names
        for path, payload in written:
            assert docio.document_bytes(payload) == reference_bytes(payload), path
            assert (tmp_path / path).read_bytes() == reference_bytes(payload), path
