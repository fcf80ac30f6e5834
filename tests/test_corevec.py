import itertools
import random
import re
from fractions import Fraction

import pytest

from cflgap.corevec import (
    CoreIndex,
    FracVector,
    check_natural_lp,
    collides,
    make_core_vector,
    midpoint,
)
from cflgap.instance import build_family_instance


def core_pairs(inst):
    """All ordered disjoint (k, l) pairs of a small instance."""
    t = inst.family_params.t
    n_f = inst.facility_count
    for k in itertools.combinations(range(n_f), t):
        rest = [i for i in range(n_f) if i not in k]
        for l in itertools.combinations(rest, t):
            yield frozenset(k), frozenset(l)


class TestCoreIndex:
    def test_rejects_overlap(self, mini):
        with pytest.raises(ValueError):
            CoreIndex.for_instance(mini, {0, 1}, {1, 2})

    def test_rejects_wrong_size(self, mini):
        with pytest.raises(ValueError):
            CoreIndex.for_instance(mini, {0}, {2, 3})

    def test_rejects_foreign_ids(self, mini):
        with pytest.raises(ValueError):
            CoreIndex.for_instance(mini, {0, 1}, {2, 99})


class TestCollides:
    def test_disjoint_l_sets(self, family10):
        c1 = CoreIndex.for_instance(family10, range(10), range(10, 20))
        c2 = CoreIndex.for_instance(family10, range(10), range(20, 30))
        assert collides(c1, c2)

    def test_l2_inside_k1_union_l1(self, family10):
        c1 = CoreIndex.for_instance(family10, range(10), range(10, 20))
        c2 = CoreIndex.for_instance(
            family10, range(30, 40), {0, 1, 2, 3, 4, 10, 11, 12, 13, 14}
        )
        assert not collides(c1, c2)

    def test_single_witness_each_side(self, family10):
        c1 = CoreIndex.for_instance(family10, range(10), range(10, 20))
        c2 = CoreIndex.for_instance(
            family10, range(30, 40), set(range(10, 19)) | {20}
        )
        # witnesses: 19 on one side, 20 on the other
        assert c1.l - (c2.k | c2.l) == {19}
        assert c2.l - (c1.k | c1.l) == {20}
        assert collides(c1, c2)

    def test_symmetric_exhaustively_at_mini_scale(self, mini):
        idx = [
            CoreIndex.for_instance(mini, k, l) for k, l in core_pairs(mini)
        ]
        assert len(idx) == 90
        for a, b in itertools.combinations(idx, 2):
            assert collides(a, b) == collides(b, a)


class TestMakeCoreVector:
    def test_definition_values_t10(self, family10):
        v = make_core_vector(family10, range(10), range(10, 20))
        # i in l, designated client
        assert v.x_of(10, 5) == Fraction(1, 1000)
        assert v.y_of(10) == Fraction(1, 10)
        # i outside k|l, undesignated client
        assert v.x_of(50, 15000) == Fraction(1, 80)
        # i in k
        assert v.y_of(0) == 1
        assert v.x_of(0, 5) == Fraction(99, 1000)
        # zero blocks
        assert v.x_of(0, 15000) == 0
        assert v.x_of(50, 5) == 0

    def test_assignment_mass_is_one_for_both_client_roles(self, family10):
        v = make_core_vector(family10, range(10), range(10, 20))
        for j in (0, 10000, 10001, 19999):
            mass = sum(v.x_of(i, j) for i in range(100))
            assert mass == 1

    def test_rejects_invalid_instance(self):
        inst = build_family_instance(4, 2)
        with pytest.raises(ValueError):
            make_core_vector(inst, range(4), range(4, 8))

    def test_rejects_bad_subsets(self, family10):
        with pytest.raises(ValueError):
            make_core_vector(family10, range(10), range(5, 15))

    def test_dense_and_classed_agree_everywhere(self, mini):
        v = make_core_vector(mini, {0, 1}, {2, 3})
        d = v.to_dense()
        assert not v.is_dense and d.is_dense
        for i in range(6):
            assert v.y_of(i) == d.y_of(i)
            for j in range(13):
                assert v.x_of(i, j) == d.x_of(i, j)
        assert v.equals(d) and d.equals(v)

    def test_first_difference_names_the_first_class_or_cell(self, mini):
        v = make_core_vector(mini, {0, 1}, {2, 3})
        assert v.first_difference(v.to_dense()) is None
        # facilities 2..3 are the low set of v and outside in w
        w = make_core_vector(mini, {0, 1}, {4, 5})
        assert v.first_difference(w) == "y of facilities 2..3 is 2/5, not 1"
        assert v.to_dense().first_difference(w) == "y of facilities 2 is 2/5, not 1"
        x = [list(row) for row in v.x_values]
        x[1][0] = Fraction(1, 4)  # facilities 2..3, designated clients 0..8
        u = FracVector(6, 13, v.fac_classes, v.cli_classes, v.y_values, x)
        assert u.first_difference(v) == (
            "x of facilities 2..3 and clients 0..8 is 1/4, not 1/8"
        )

    def test_relabeling_invariance(self, mini):
        rng = random.Random(7)
        perm = list(range(6))
        rng.shuffle(perm)
        v = make_core_vector(mini, {0, 1}, {2, 3})
        w = make_core_vector(
            mini, {perm[0], perm[1]}, {perm[2], perm[3]}
        )
        for i in range(6):
            assert w.y_of(perm[i]) == v.y_of(i)
            for j in range(13):
                assert w.x_of(perm[i], j) == v.x_of(i, j)


class TestMidpoint:
    def test_identity(self, mini):
        v = make_core_vector(mini, {0, 1}, {2, 3})
        assert midpoint(v, v).equals(v)

    def test_y_on_exclusive_l_member_t10(self, family10):
        v1 = make_core_vector(family10, range(10), range(10, 20))
        v2 = make_core_vector(family10, range(20, 30), range(30, 40))
        mid = midpoint(v1, v2)
        # facility in l1 and fully open in v2
        assert mid.y_of(10) == Fraction(11, 20)
        assert mid.y_of(50) == 1

    def test_entries_stay_in_unit_interval(self, mini):
        v1 = make_core_vector(mini, {0, 1}, {2, 3})
        v2 = make_core_vector(mini, {4, 5}, {2, 0})
        mid = midpoint(v1, v2)
        for i in range(6):
            assert 0 <= mid.y_of(i) <= 1
            for j in range(13):
                assert 0 <= mid.x_of(i, j) <= 1

    def test_dimension_mismatch(self, mini, family10):
        v1 = make_core_vector(mini, {0, 1}, {2, 3})
        v2 = make_core_vector(family10, range(10), range(10, 20))
        with pytest.raises(ValueError):
            midpoint(v1, v2)

    def test_matches_dense_average(self, mini):
        v1 = make_core_vector(mini, {0, 1}, {2, 3})
        v2 = make_core_vector(mini, {4, 5}, {2, 0})
        classed = midpoint(v1, v2)
        dense = midpoint(v1.to_dense(), v2.to_dense())
        assert classed.equals(dense)


class TestNaturalLp:
    def test_core_vectors_pass_exhaustively_at_mini_scale(self, mini):
        for k, l in core_pairs(mini):
            v = make_core_vector(mini, k, l)
            assert check_natural_lp(mini, v).passed

    def test_t10_core_vector_passes_with_exact_load(self, family10):
        v = make_core_vector(family10, range(10), range(10, 20))
        report = check_natural_lp(family10, v)
        assert report.passed
        # load on a k facility: 10001 * 99/1000 <= 1000
        load = sum(v.x_of(0, j) for j in range(10001))
        assert load == Fraction(990099, 1000)

    def test_random_t10_core_vectors_pass(self, family10):
        rng = random.Random(123)
        for _ in range(100):
            ids = rng.sample(range(100), 20)
            v = make_core_vector(family10, ids[:10], ids[10:])
            assert check_natural_lp(family10, v).passed

    def test_x_above_y_fails_with_exact_slack(self, mini):
        v = make_core_vector(mini, {0, 1}, {2, 3})
        bad = v.set_x(2, 0, Fraction(1, 2))  # y on l is 2/5
        report = check_natural_lp(mini, bad)
        assert not report.passed
        slacks = {
            (vi.constraint, vi.slack)
            for vi in report.violations
            if vi.constraint == "assignment_le_opening"
        }
        assert ("assignment_le_opening", Fraction(1, 10)) in slacks

    def test_deficient_client_mass_fails(self, mini):
        # reshape client 0's column to total mass 9/10
        v = make_core_vector(mini, {0, 1}, {2, 3}).to_dense()
        x = [list(row) for row in v.x_values]
        x[0][0] = Fraction(0)
        x[1][0] = Fraction(13, 20)
        bad = FracVector.from_dense(v.y_values, x)
        report = check_natural_lp(mini, bad)
        assert not report.passed
        assert any(
            vi.constraint == "assignment_mass" and vi.slack == Fraction(1, 10)
            for vi in report.violations
        )

    def test_dimension_mismatch(self, mini, family10):
        v = make_core_vector(mini, {0, 1}, {2, 3})
        with pytest.raises(ValueError):
            check_natural_lp(family10, v)


class TestFracVector:
    def test_rejects_out_of_range_entries(self):
        with pytest.raises(ValueError):
            FracVector.from_dense([Fraction(3, 2)], [[Fraction(0)]])
        with pytest.raises(ValueError):
            FracVector.from_dense([Fraction(1)], [[Fraction(-1, 2)]])

    @pytest.mark.parametrize("fac_classes, cli_classes, message", [
        pytest.param([{0}], [range(5)], "do not partition range(2)", id="gap"),
        pytest.param([{0, 1}, {1}], [range(5)], "overlapping facility classes", id="overlap"),
        pytest.param([{0}, {2}], [range(5)], "do not partition range(2)", id="id-at-n"),
        pytest.param([{-1}, {1}], [range(5)], "do not partition range(2)", id="negative-id"),
        pytest.param([((0, 2),), ((1, 2),)], [range(5)], "overlapping facility classes",
                     id="facility-run-overlap"),
        pytest.param([((0, 1),), ((1, 3),)], [range(5)],
                     "facility classes do not partition range(2)", id="facility-run-past-n"),
        pytest.param([((-1, 1),), range(1, 2)], [range(5)],
                     "facility classes do not partition range(2)", id="facility-negative-run"),
        pytest.param([range(2), ()], [range(5)], "facility classes do not partition range(2)",
                     id="facility-empty-class"),
        pytest.param([((0, 10**12),)], [range(5)], "facility classes do not partition range(2)",
                     id="facility-huge-run"),
        pytest.param([{0, 1}], [((0, 2),), ((3, 5),)], "client classes do not partition range(5)",
                     id="client-gap"),
        pytest.param([{0, 1}], [((0, 3),), ((2, 5),)], "overlapping client classes",
                     id="client-overlap"),
        pytest.param([{0, 1}], [((0, 1), (3, 5)), ((1, 3), (5, 6))],
                     "client classes do not partition range(5)", id="client-run-past-n"),
        pytest.param([{0, 1}], [((-1, 2),), ((2, 5),)], "client classes do not partition range(5)",
                     id="client-negative-run"),
        pytest.param([{0, 1}], [range(5), ()], "client classes do not partition range(5)",
                     id="client-empty-class"),
    ])
    def test_rejects_bad_partition(self, fac_classes, cli_classes, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            FracVector(
                2,
                5,
                fac_classes=fac_classes,
                cli_classes=cli_classes,
                y_values=[Fraction(1)] * len(fac_classes),
                x_values=[[Fraction(1)] * len(cli_classes)] * len(fac_classes),
            )

    def test_client_classes_are_kept_as_runs(self):
        v = FracVector(
            1, 9, [{0}], [frozenset({0, 1, 2, 6}), [5, 3, 4, 3], range(7, 9)],
            [Fraction(1)], [[Fraction(1), Fraction(1, 2), Fraction(0)]],
        )
        assert v.cli_classes == (((0, 3), (6, 7)), ((3, 6),), ((7, 9),))
        assert [v.x_of(0, j) for j in range(9)] == [1, 1, 1, Fraction(1, 2), Fraction(1, 2),
                                                    Fraction(1, 2), 1, 0, 0]
        with pytest.raises(KeyError):
            v.x_of(0, 9)

    def test_set_x_is_functional(self, mini):
        v = make_core_vector(mini, {0, 1}, {2, 3})
        w = v.set_x(0, 0, Fraction(1, 2))
        assert v.x_of(0, 0) == Fraction(3, 8)
        assert w.x_of(0, 0) == Fraction(1, 2)
