from fractions import Fraction

import pytest

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
        vec = make_core_vector(mini, idx.k, idx.l, dense=True)
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
